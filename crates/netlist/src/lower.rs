//! Bit-blasting lowering from RTL modules to gate-level netlists.
//!
//! This is the "synthesis" step of the paper's flow (Fig. 1): a designer
//! locks at RTL, synthesis lowers the design to gates, and the attacker
//! receives the gate-level netlist. The lowering is *bit-exact* with the RTL
//! simulator: every expression is computed on a 64-bit [`Lane`] with
//! wrapping semantics, and values are masked to the signal width only at
//! assignment — identical to `mlrl_rtl::sim`. Cross-level equivalence is
//! asserted by [`crate::equiv`] and the integration tests.
//!
//! Key-controlled ternaries survive lowering as MUX trees driven by the
//! netlist's dedicated key inputs, so RTL-locked designs stay locked (and
//! attackable) at gate level.

use std::collections::HashMap;

use mlrl_rtl::ast::{Expr, ExprId, Module, NetKind, PortDir, SeqStmt};
use mlrl_rtl::op::{BinaryOp, UnaryOp};
use mlrl_rtl::tape::levelize;

use crate::build::{Lane, NetlistBuilder};
use crate::error::{NetlistError, Result};
use crate::ir::Netlist;

/// Lowers a flat RTL module to a gate-level netlist.
///
/// Input ports, output ports, and the key inputs of the module map to
/// netlist ports of the same names and widths; `reg` signals become D
/// flip-flop words; `wire` signals disappear into the gate network.
///
/// # Errors
///
/// - [`NetlistError::Lower`] if the module still contains instances
///   (flatten first) or a signal lacks a driver.
/// - [`NetlistError::VariableExponent`] if `**` appears with a
///   non-constant exponent (real synthesis rejects this too).
/// - [`NetlistError::Lower`] naming a signal on the cycle if continuous
///   assignments form a combinational cycle.
///
/// # Examples
///
/// ```
/// use mlrl_rtl::parser::parse_verilog;
/// use mlrl_netlist::lower::lower_module;
///
/// let m = parse_verilog("
/// module t(a, b, y);
///   input [7:0] a, b;
///   output [7:0] y;
///   assign y = a + b;
/// endmodule")?;
/// let n = lower_module(&m)?;
/// assert!(n.validate().is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lower_module(module: &Module) -> Result<Netlist> {
    Lowering::new(module)?.run()
}

struct Lowering<'m> {
    module: &'m Module,
    builder: NetlistBuilder,
    /// Signal name -> its current lane (masked to the signal width).
    lanes: HashMap<String, Lane>,
    /// Reg name -> state lane, for wiring next-state data at the end.
    reg_lanes: HashMap<String, Lane>,
    /// Memoized expression lowering (valid because every `Ident` lane is
    /// final before any expression reading it is lowered).
    memo: HashMap<ExprId, Lane>,
}

impl<'m> Lowering<'m> {
    fn new(module: &'m Module) -> Result<Self> {
        if !module.instances().is_empty() {
            return Err(NetlistError::Lower(format!(
                "module `{}` contains instances; flatten it first",
                module.name()
            )));
        }
        Ok(Self {
            module,
            builder: NetlistBuilder::new(Netlist::new(module.name())),
            lanes: HashMap::new(),
            reg_lanes: HashMap::new(),
            memo: HashMap::new(),
        })
    }

    fn run(mut self) -> Result<Netlist> {
        // Ports and registers first: they are the sources of every cone.
        for p in self.module.ports() {
            if p.dir == PortDir::Input {
                let lane = self.builder.input_lane(&p.name, p.width as usize);
                self.lanes.insert(p.name.clone(), lane);
            }
        }
        // Pre-allocate the full key so netlist key bit i is K[i].
        self.builder
            .reserve_key_bits(self.module.key_width() as usize);
        for n in self.module.nets() {
            if n.kind == NetKind::Reg {
                let lane = self.builder.dff_lane(n.width as usize);
                self.lanes.insert(n.name.clone(), lane);
                self.reg_lanes.insert(n.name.clone(), lane);
            }
        }
        // Output ports may also be driven as regs in always blocks; regs
        // above already claimed those names. Everything else gets its lane
        // from its continuous assignment below.

        // Continuous assignments in dependency order (the RTL simulator's
        // own levelizer: regs are state, not combinational dependencies).
        let order = levelize(self.module).map_err(|e| NetlistError::Lower(e.to_string()))?;
        for idx in order {
            let assign = &self.module.assigns()[idx];
            let lane = self.lower_expr(assign.rhs)?;
            let width = self
                .module
                .signal_width(&assign.lhs)
                .ok_or_else(|| NetlistError::Lower(format!("unknown signal `{}`", assign.lhs)))?;
            let masked = self.builder.mask_lane(lane, width as usize);
            self.lanes.insert(assign.lhs.clone(), masked);
        }

        // Clocked processes: compute next-state lanes with last-write-wins
        // and pre-edge reads, exactly like the RTL simulator's two-phase
        // commit.
        let mut next: HashMap<String, Lane> = self.reg_lanes.clone();
        for block in self.module.always_blocks() {
            let body = block.body.clone();
            self.walk_stmts(&body, &mut next)?;
        }
        for (name, next_lane) in next {
            let q_lane = self.reg_lanes[&name];
            let width = self
                .module
                .signal_width(&name)
                .ok_or_else(|| NetlistError::Lower(format!("unknown reg `{name}`")))?
                as usize;
            let masked = self.builder.mask_lane(next_lane, width);
            self.builder.connect_dff_lane(q_lane, masked, width);
        }

        // Output ports read their signal lane.
        for p in self.module.ports() {
            if p.dir == PortDir::Output {
                let lane = self.lanes.get(&p.name).copied().ok_or_else(|| {
                    NetlistError::Lower(format!("output `{}` has no driver", p.name))
                })?;
                self.builder
                    .output_from_lane(&p.name, lane, p.width as usize);
            }
        }
        let mut netlist = self.builder.finish();
        // Dead-logic sweep, as synthesis would do: gates above the masked
        // signal widths have no observable fanout.
        netlist.sweep();
        netlist.validate()?;
        Ok(netlist)
    }

    fn walk_stmts(&mut self, stmts: &[SeqStmt], next: &mut HashMap<String, Lane>) -> Result<()> {
        for s in stmts {
            match s {
                SeqStmt::NonBlocking { lhs, rhs } => {
                    let lane = self.lower_expr(*rhs)?;
                    next.insert(lhs.clone(), lane);
                }
                SeqStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let cond_lane = self.lower_expr(*cond)?;
                    let c = self.builder.or_reduce(cond_lane);
                    let mut then_map = next.clone();
                    let mut else_map = next.clone();
                    self.walk_stmts(then_body, &mut then_map)?;
                    self.walk_stmts(else_body, &mut else_map)?;
                    let names: std::collections::BTreeSet<String> =
                        then_map.keys().chain(else_map.keys()).cloned().collect();
                    for name in names {
                        let q = self.reg_lanes.get(&name).copied().ok_or_else(|| {
                            NetlistError::Lower(format!(
                                "always block writes non-reg signal `{name}`"
                            ))
                        })?;
                        let t = then_map.get(&name).copied().unwrap_or(q);
                        let e = else_map.get(&name).copied().unwrap_or(q);
                        next.insert(name, self.builder.mux_lane(c, t, e));
                    }
                }
            }
        }
        Ok(())
    }

    fn lower_expr(&mut self, id: ExprId) -> Result<Lane> {
        if let Some(&lane) = self.memo.get(&id) {
            return Ok(lane);
        }
        let expr = self
            .module
            .expr(id)
            .map_err(|e| NetlistError::Lower(e.to_string()))?
            .clone();
        let lane = match expr {
            Expr::Const { value, width } => {
                let v = match width {
                    Some(w) if w < 64 => value & ((1u64 << w) - 1),
                    _ => value,
                };
                self.builder.const_lane(v)
            }
            Expr::Ident(name) => self
                .lanes
                .get(&name)
                .copied()
                .ok_or_else(|| NetlistError::Lower(format!("unknown signal `{name}`")))?,
            Expr::KeyBit(i) => self.builder.key_slice_lane(i, 1),
            Expr::KeySlice { lsb, width } => self.builder.key_slice_lane(lsb, width),
            Expr::Index { base, bit } => {
                let lane = self
                    .lanes
                    .get(&base)
                    .copied()
                    .ok_or_else(|| NetlistError::Lower(format!("unknown signal `{base}`")))?;
                // The simulator reads bit min(bit, 63) of the masked value.
                self.builder.bit_lane(lane.bit(bit.min(63) as usize))
            }
            Expr::Unary { op, arg } => {
                let a = self.lower_expr(arg)?;
                match op {
                    UnaryOp::Not => self.builder.not_lane(a),
                    UnaryOp::Neg => self.builder.neg(a),
                    UnaryOp::LNot => {
                        let any = self.builder.or_reduce(a);
                        let z = self.builder.not(any);
                        self.builder.bit_lane(z)
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.lower_expr(lhs)?;
                let b = self.lower_expr(rhs)?;
                self.lower_binary(op, a, b)?
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let c_lane = self.lower_expr(cond)?;
                let c = self.builder.or_reduce(c_lane);
                let t = self.lower_expr(then_expr)?;
                let e = self.lower_expr(else_expr)?;
                self.builder.mux_lane(c, t, e)
            }
        };
        self.memo.insert(id, lane);
        Ok(lane)
    }

    fn lower_binary(&mut self, op: BinaryOp, a: Lane, b: Lane) -> Result<Lane> {
        let b_ = &mut self.builder;
        Ok(match op {
            BinaryOp::Add => b_.add(a, b),
            BinaryOp::Sub => b_.sub(a, b),
            BinaryOp::Mul => b_.mul(a, b),
            BinaryOp::Div => b_.divmod(a, b).0,
            BinaryOp::Mod => b_.divmod(a, b).1,
            BinaryOp::Pow => {
                let e = b_.lane_const(b).ok_or(NetlistError::VariableExponent)?;
                b_.pow_const(a, e)
            }
            BinaryOp::And => b_.and_lane(a, b),
            BinaryOp::Or => b_.or_lane(a, b),
            BinaryOp::Xor => b_.xor_lane(a, b),
            BinaryOp::Xnor => b_.xnor_lane(a, b),
            BinaryOp::Shl => b_.shl(a, b),
            BinaryOp::Shr => b_.shr(a, b),
            BinaryOp::Lt => {
                let bit = b_.lt(a, b);
                b_.bit_lane(bit)
            }
            BinaryOp::Gt => {
                let bit = b_.lt(b, a);
                b_.bit_lane(bit)
            }
            BinaryOp::Le => {
                let gt = b_.lt(b, a);
                let bit = b_.not(gt);
                b_.bit_lane(bit)
            }
            BinaryOp::Ge => {
                let lt = b_.lt(a, b);
                let bit = b_.not(lt);
                b_.bit_lane(bit)
            }
            BinaryOp::Eq => {
                let bit = b_.eq(a, b);
                b_.bit_lane(bit)
            }
            BinaryOp::Neq => {
                let e = b_.eq(a, b);
                let bit = b_.not(e);
                b_.bit_lane(bit)
            }
            BinaryOp::LAnd => {
                let x = b_.or_reduce(a);
                let y = b_.or_reduce(b);
                let bit = b_.and(x, y);
                b_.bit_lane(bit)
            }
            BinaryOp::LOr => {
                let x = b_.or_reduce(a);
                let y = b_.or_reduce(b);
                let bit = b_.or(x, y);
                b_.bit_lane(bit)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::NetlistSimulator;
    use mlrl_rtl::parser::parse_verilog;
    use mlrl_rtl::sim::Simulator;

    fn cross_check(src: &str, inputs: &[(&str, &[u64])]) {
        let m = parse_verilog(src).unwrap();
        let n = lower_module(&m).unwrap();
        let mut rtl = Simulator::new(&m).unwrap();
        let mut gate = NetlistSimulator::new(&n).unwrap();
        let rounds = inputs.iter().map(|(_, vs)| vs.len()).max().unwrap_or(0);
        for r in 0..rounds {
            for (name, vs) in inputs {
                let v = vs[r.min(vs.len() - 1)];
                rtl.set_input(name, v).unwrap();
                gate.set_input(name, v).unwrap();
            }
            rtl.settle().unwrap();
            gate.settle().unwrap();
            for p in m.ports() {
                if p.dir == mlrl_rtl::ast::PortDir::Output {
                    assert_eq!(
                        rtl.get(&p.name).unwrap(),
                        gate.output(&p.name).unwrap(),
                        "port {} round {r}",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn arithmetic_chain_matches_rtl() {
        cross_check(
            "module t(a, b, y);\n input [7:0] a, b;\n output [7:0] y;\n wire [7:0] w;\n assign w = a * b;\n assign y = w - a;\nendmodule",
            &[("a", &[0, 3, 255, 17]), ("b", &[0, 5, 255, 9])],
        );
    }

    #[test]
    fn mixed_width_carry_behaviour_matches() {
        // (a + b) >> 1 keeps the carry above 8 bits alive at 64-bit width in
        // the RTL simulator; the lowering must reproduce that.
        cross_check(
            "module t(a, b, y);\n input [7:0] a, b;\n output [7:0] y;\n assign y = (a + b) >> 1;\nendmodule",
            &[("a", &[200, 255, 128]), ("b", &[100, 255, 128])],
        );
    }

    #[test]
    fn predicates_and_ternary_match() {
        cross_check(
            "module t(a, b, y);\n input [7:0] a, b;\n output [7:0] y;\n assign y = (a > b) ? a % b : a ^ b;\nendmodule",
            &[("a", &[10, 0, 200, 7]), ("b", &[3, 0, 201, 7])],
        );
    }

    #[test]
    fn key_mux_lowered_netlist_obeys_key() {
        let m = parse_verilog(
            "module t(K, a, b, y);\n input [0:0] K;\n input [7:0] a, b;\n output [7:0] y;\n assign y = K[0] ? a + b : a - b;\nendmodule",
        )
        .unwrap();
        let n = lower_module(&m).unwrap();
        assert_eq!(n.key_width(), 1);
        let mut sim = NetlistSimulator::new(&n).unwrap();
        sim.set_input("a", 10).unwrap();
        sim.set_input("b", 3).unwrap();
        sim.set_key(&[true]).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("y").unwrap(), 13);
        sim.set_key(&[false]).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("y").unwrap(), 7);
    }

    #[test]
    fn sequential_counter_matches_rtl() {
        let src = "module t(clk, en, q);\n input clk;\n input en;\n output [7:0] q;\n reg [7:0] cnt;\n assign q = cnt;\n always @(posedge clk) begin\n if (en) begin\n cnt <= cnt + 1;\n end\n end\nendmodule";
        let m = parse_verilog(src).unwrap();
        let n = lower_module(&m).unwrap();
        let mut rtl = Simulator::new(&m).unwrap();
        let mut gate = NetlistSimulator::new(&n).unwrap();
        rtl.set_input("en", 1).unwrap();
        gate.set_input("en", 1).unwrap();
        for _ in 0..5 {
            rtl.tick().unwrap();
            gate.tick().unwrap();
        }
        assert_eq!(rtl.get("q").unwrap(), 5);
        assert_eq!(gate.output("q").unwrap(), 5);
    }

    #[test]
    fn variable_exponent_is_rejected() {
        let m = parse_verilog(
            "module t(a, b, y);\n input [7:0] a, b;\n output [7:0] y;\n assign y = a ** b;\nendmodule",
        )
        .unwrap();
        assert!(matches!(
            lower_module(&m),
            Err(NetlistError::VariableExponent)
        ));
    }

    #[test]
    fn combinational_cycle_names_a_signal_on_it() {
        let m = parse_verilog(
            "module t(y);\n output y;\n wire a, b;\n assign a = b;\n assign b = a;\n assign y = a;\nendmodule",
        )
        .unwrap();
        let err = lower_module(&m).unwrap_err();
        assert!(matches!(err, NetlistError::Lower(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "lowering error: combinational cycle through `a`"
        );
    }

    #[test]
    fn constant_exponent_is_lowered() {
        cross_check(
            "module t(a, b, y);\n input [7:0] a, b;\n output [7:0] y;\n assign y = a ** 3 + b;\nendmodule",
            &[("a", &[0, 2, 5, 255]), ("b", &[1, 4, 9, 255])],
        );
    }

    #[test]
    fn unary_ops_match() {
        cross_check(
            "module t(a, y0, y1, y2);\n input [7:0] a;\n output [7:0] y0, y1, y2;\n assign y0 = ~a;\n assign y1 = -a;\n assign y2 = !a;\nendmodule",
            &[("a", &[0, 1, 128, 255])],
        );
    }

    #[test]
    fn division_and_shift_ops_match() {
        cross_check(
            "module t(a, b, y0, y1, y2);\n input [7:0] a, b;\n output [7:0] y0, y1, y2;\n assign y0 = a / b;\n assign y1 = a << b;\n assign y2 = a >> 2;\nendmodule",
            &[("a", &[0, 7, 255, 90]), ("b", &[0, 2, 9, 70])],
        );
    }
}
