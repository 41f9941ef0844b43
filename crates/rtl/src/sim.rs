//! RTL simulator over a compiled, slot-indexed instruction tape.
//!
//! Evaluates a [`Module`] on concrete input and key values. At
//! construction the module is compiled once by [`crate::tape::Program`]:
//! signal names are interned to dense slots, continuous assignments are
//! levelized and lowered to a flat stack-machine tape, and clocked
//! processes are lowered to a predicated tape with two-phase non-blocking
//! commit semantics. `settle()`/`tick()` then run over dense state with
//! zero allocation and zero string hashing — the interpretive walk (and
//! its per-`settle` `order.clone()`) is gone, with identical observable
//! semantics.
//!
//! State is vector-batched: every slot holds `[u64; V]` — `V` independent
//! 64-bit *vectors* (not bits), walked by one tape pass. [`Simulator`] is
//! the `V = 1` scalar instantiation of [`BatchSimulator`]; wider batches
//! amortize the tape fetch and instruction dispatch over `V` lanes and let
//! the per-lane `[u64; V]` arithmetic autovectorize. There is exactly one
//! tape kernel (`run_tape`) and one scalar arithmetic kernel
//! ([`eval_binary`]), shared by every width.
//!
//! The simulator is what makes locking *testable*: with the correct key a
//! locked module must be functionally equivalent to the original, and with a
//! wrong key it should corrupt outputs. Division and modulo by zero evaluate
//! to 0 (a deterministic stand-in for Verilog's `x`).

use crate::ast::{Module, PortDir};
use crate::error::{Result, RtlError};
use crate::op::{BinaryOp, UnaryOp};
use crate::tape::{mask, Instr, Program};

/// A running batched simulation of one module: each of the `V` lanes
/// carries an independent full-width vector through the same compiled
/// tape, under one shared key.
///
/// # Examples
///
/// ```
/// use mlrl_rtl::parser::parse_verilog;
/// use mlrl_rtl::sim::BatchSimulator;
///
/// let m = parse_verilog("
/// module t(a, b, y);
///   input [7:0] a, b;
///   output [7:0] y;
///   assign y = a + b;
/// endmodule")?;
/// let mut sim = BatchSimulator::<4>::new(&m)?;
/// sim.set_input_batch("a", &[1, 2, 3, 4])?;
/// sim.set_input_batch("b", &[10, 20, 30, 40])?;
/// sim.settle()?;
/// assert_eq!(sim.get_lane("y", 2)?, 33);
/// # Ok::<(), mlrl_rtl::error::RtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchSimulator<'m, const V: usize> {
    module: &'m Module,
    program: Program,
    /// Current value of every slot, `V` vectors wide.
    state: Vec<[u64; V]>,
    /// Pending non-blocking values, one per sequential target.
    shadow: Vec<[u64; V]>,
    /// Reusable operand stack (preallocated to the compiled max depth).
    stack: Vec<[u64; V]>,
    key: Vec<bool>,
}

impl<'m, const V: usize> BatchSimulator<'m, V> {
    /// Prepares a simulator: checks drivers, levelizes the combinational
    /// assignments, and compiles both instruction tapes.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::CombinationalCycle`] if continuous assignments
    /// form a cycle, [`RtlError::UnknownSignal`] for undeclared references.
    pub fn new(module: &'m Module) -> Result<Self> {
        if !module.instances().is_empty() {
            return Err(RtlError::Hierarchy(format!(
                "module `{}` contains instances; flatten it first (Design::flatten)",
                module.name()
            )));
        }
        let program = Program::compile(module)?;
        let state = vec![[0; V]; program.slots.len()];
        let shadow = vec![[0; V]; program.seq_targets.len()];
        let stack = Vec::with_capacity(program.max_stack);
        Ok(Self {
            module,
            program,
            state,
            shadow,
            stack,
            key: vec![false; module.key_width() as usize],
        })
    }

    /// Resets every signal in every lane (and pending register values) to
    /// 0, as if freshly constructed. The installed key and the compiled
    /// program are kept.
    pub fn reset(&mut self) {
        self.state.fill([0; V]);
        self.shadow.fill([0; V]);
    }

    /// Sets an input port value in *every* lane (masked to the port width).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownSignal`] if `name` is not an input port.
    pub fn set_input(&mut self, name: &str, value: u64) -> Result<()> {
        let slot = self.input_slot(name)?;
        let masked = value & mask(self.program.slots[slot as usize].width);
        self.state[slot as usize] = [masked; V];
        Ok(())
    }

    /// Sets an input port to a different value per lane: lane `l` carries
    /// `values[l]` (masked to the port width). Lanes beyond `values.len()`
    /// replicate the last entry.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownSignal`] if `name` is not an input port
    /// and [`RtlError::LaneOutOfRange`] if `values` is empty or longer
    /// than `V`.
    pub fn set_input_batch(&mut self, name: &str, values: &[u64]) -> Result<()> {
        if values.is_empty() || values.len() > V {
            return Err(RtlError::LaneOutOfRange {
                requested: values.len(),
                lanes: V,
            });
        }
        let slot = self.input_slot(name)?;
        let m = mask(self.program.slots[slot as usize].width);
        let word = &mut self.state[slot as usize];
        for (lane, w) in word.iter_mut().enumerate() {
            *w = values[lane.min(values.len() - 1)] & m;
        }
        Ok(())
    }

    /// Installs the key bit vector (index 0 = `K[0]`), shared by all lanes.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::KeyTooShort`] if fewer bits are provided than the
    /// design consumes.
    pub fn set_key(&mut self, key: &[bool]) -> Result<()> {
        if key.len() < self.module.key_width() as usize {
            return Err(RtlError::KeyTooShort {
                required: self.module.key_width(),
                provided: key.len(),
            });
        }
        self.key = key.to_vec();
        Ok(())
    }

    /// Current value of any signal in lane 0.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownSignal`] for undeclared names.
    pub fn get(&self, name: &str) -> Result<u64> {
        self.get_lane(name, 0)
    }

    /// Current value of any signal in the given lane.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownSignal`] for undeclared names and
    /// [`RtlError::LaneOutOfRange`] if `lane >= V`.
    pub fn get_lane(&self, name: &str, lane: usize) -> Result<u64> {
        if lane >= V {
            return Err(RtlError::LaneOutOfRange {
                requested: lane,
                lanes: V,
            });
        }
        self.program
            .slot(name)
            .map(|s| self.state[s as usize][lane])
            .ok_or_else(|| RtlError::UnknownSignal(name.to_owned()))
    }

    /// Order-independent digest of every output-port value in one lane — a
    /// cheap probe for functional equivalence and key-corruption checks.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::LaneOutOfRange`] if `lane >= V`.
    pub fn outputs_digest_lane(&self, lane: usize) -> Result<u64> {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for p in self.module.ports() {
            if p.dir == PortDir::Output {
                digest ^= self.get_lane(&p.name, lane)?;
                digest = digest.wrapping_mul(0x100_0000_01b3);
            }
        }
        Ok(digest)
    }

    /// Forces a register/state value in every lane (useful for test setup).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownSignal`] for undeclared names.
    pub fn set_state(&mut self, name: &str, value: u64) -> Result<()> {
        let slot = self
            .program
            .slot(name)
            .ok_or_else(|| RtlError::UnknownSignal(name.to_owned()))?;
        let masked = value & mask(self.program.slots[slot as usize].width);
        self.state[slot as usize] = [masked; V];
        Ok(())
    }

    /// Propagates combinational logic until stable (one levelized pass over
    /// the compiled tape, all `V` lanes in parallel).
    ///
    /// # Errors
    ///
    /// Infallible for a compiled module; kept fallible for interface
    /// stability.
    pub fn settle(&mut self) -> Result<()> {
        mlrl_obs::counter_add("sim.settles", 1);
        mlrl_obs::counter_add("sim.lanes", V as u64);
        // Split borrows so the tape can be walked while state mutates.
        let Self {
            program,
            state,
            shadow,
            stack,
            key,
            ..
        } = self;
        run_tape(&program.comb, state, shadow, stack, key);
        Ok(())
    }

    /// Applies one positive clock edge: evaluates every clocked process with
    /// pre-edge values, commits all non-blocking updates atomically, then
    /// re-settles combinational logic. Each lane's state advances
    /// independently.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchSimulator::settle`] errors.
    pub fn tick(&mut self) -> Result<()> {
        self.settle()?;
        let Self {
            program,
            state,
            shadow,
            stack,
            key,
            ..
        } = self;
        // Pending values start at the pre-edge state: registers the tape
        // leaves unassigned keep their value at commit.
        for (idx, &slot) in program.seq_targets.iter().enumerate() {
            shadow[idx] = state[slot as usize];
        }
        run_tape(&program.seq, state, shadow, stack, key);
        for (idx, &slot) in program.seq_targets.iter().enumerate() {
            state[slot as usize] = shadow[idx];
        }
        self.settle()
    }

    fn input_slot(&self, name: &str) -> Result<u32> {
        self.program
            .slot(name)
            .filter(|&s| self.program.slots[s as usize].is_input)
            .ok_or_else(|| RtlError::UnknownSignal(name.to_owned()))
    }
}

/// A running scalar simulation of one module — the `V = 1` instantiation
/// of [`BatchSimulator`] behind the original single-vector interface.
///
/// # Examples
///
/// ```
/// use mlrl_rtl::parser::parse_verilog;
/// use mlrl_rtl::sim::Simulator;
///
/// let m = parse_verilog("
/// module t(a, b, y);
///   input [7:0] a, b;
///   output [7:0] y;
///   assign y = a + b;
/// endmodule")?;
/// let mut sim = Simulator::new(&m)?;
/// sim.set_input("a", 3)?;
/// sim.set_input("b", 4)?;
/// sim.settle()?;
/// assert_eq!(sim.get("y")?, 7);
/// # Ok::<(), mlrl_rtl::error::RtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'m> {
    inner: BatchSimulator<'m, 1>,
}

impl<'m> Simulator<'m> {
    /// Prepares a simulator: checks drivers, levelizes the combinational
    /// assignments, and compiles both instruction tapes.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::CombinationalCycle`] if continuous assignments
    /// form a cycle, [`RtlError::UnknownSignal`] for undeclared references.
    pub fn new(module: &'m Module) -> Result<Self> {
        Ok(Self {
            inner: BatchSimulator::new(module)?,
        })
    }

    /// Resets every signal (and pending register value) to 0, as if freshly
    /// constructed. The installed key and the compiled program are kept —
    /// this is the cheap way to reuse one simulator across independent
    /// trials instead of recompiling the module each time.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Sets an input port value (masked to the port width).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownSignal`] if `name` is not an input port.
    pub fn set_input(&mut self, name: &str, value: u64) -> Result<()> {
        self.inner.set_input(name, value)
    }

    /// Installs the key bit vector (index 0 = `K[0]`).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::KeyTooShort`] if fewer bits are provided than the
    /// design consumes.
    pub fn set_key(&mut self, key: &[bool]) -> Result<()> {
        self.inner.set_key(key)
    }

    /// Current value of any signal.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownSignal`] for undeclared names.
    pub fn get(&self, name: &str) -> Result<u64> {
        self.inner.get(name)
    }

    /// Order-independent digest of every output-port value — a cheap probe
    /// for functional equivalence and key-corruption checks.
    ///
    /// # Errors
    ///
    /// Propagates [`RtlError::UnknownSignal`] (cannot happen for a
    /// well-formed module).
    pub fn outputs_digest(&self) -> Result<u64> {
        self.inner.outputs_digest_lane(0)
    }

    /// Forces a register/state value (useful for test setup).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownSignal`] for undeclared names.
    pub fn set_state(&mut self, name: &str, value: u64) -> Result<()> {
        self.inner.set_state(name, value)
    }

    /// Propagates combinational logic until stable (one levelized pass over
    /// the compiled tape).
    ///
    /// # Errors
    ///
    /// Infallible for a compiled module; kept fallible for interface
    /// stability.
    pub fn settle(&mut self) -> Result<()> {
        self.inner.settle()
    }

    /// Applies one positive clock edge: evaluates every clocked process with
    /// pre-edge values, commits all non-blocking updates atomically, then
    /// re-settles combinational logic.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulator::settle`] errors.
    pub fn tick(&mut self) -> Result<()> {
        self.inner.tick()
    }
}

/// Executes one compiled tape over the dense state, all `V` lanes per
/// instruction. The per-lane loops call [`eval_binary`] and friends — the
/// same scalar kernels the `V = 1` path uses — so batch semantics are the
/// scalar semantics by construction.
fn run_tape<const V: usize>(
    tape: &[Instr],
    state: &mut [[u64; V]],
    shadow: &mut [[u64; V]],
    stack: &mut Vec<[u64; V]>,
    key: &[bool],
) {
    stack.clear();
    for instr in tape {
        match *instr {
            Instr::Const(v) => stack.push([v; V]),
            Instr::Load(slot) => stack.push(state[slot as usize]),
            Instr::LoadBit { slot, bit } => {
                let mut out = [0u64; V];
                for (o, w) in out.iter_mut().zip(&state[slot as usize]) {
                    *o = w >> bit & 1;
                }
                stack.push(out);
            }
            Instr::KeyBit(i) => {
                let v = key.get(i as usize).copied().unwrap_or(false) as u64;
                stack.push([v; V]);
            }
            Instr::KeySlice { lsb, width } => {
                let mut v = 0u64;
                for b in 0..width {
                    if key.get((lsb + b) as usize).copied().unwrap_or(false) {
                        v |= 1 << b;
                    }
                }
                stack.push([v; V]);
            }
            Instr::LoadShadow(idx) => stack.push(shadow[idx as usize]),
            Instr::Unary(op) => {
                let v = stack.last_mut().expect("tape underflow");
                for w in v.iter_mut() {
                    *w = match op {
                        UnaryOp::Not => !*w,
                        UnaryOp::Neg => w.wrapping_neg(),
                        UnaryOp::LNot => (*w == 0) as u64,
                    };
                }
            }
            Instr::Binary(op) => {
                let b = stack.pop().expect("tape underflow");
                let a = stack.last_mut().expect("tape underflow");
                for (aw, bw) in a.iter_mut().zip(&b) {
                    *aw = eval_binary(op, *aw, *bw);
                }
            }
            Instr::Select => {
                let else_v = stack.pop().expect("tape underflow");
                let then_v = stack.pop().expect("tape underflow");
                let cond = stack.last_mut().expect("tape underflow");
                for i in 0..V {
                    cond[i] = if cond[i] != 0 { then_v[i] } else { else_v[i] };
                }
            }
            Instr::Store { slot, mask } => {
                let v = stack.pop().expect("tape underflow");
                let out = &mut state[slot as usize];
                for (o, w) in out.iter_mut().zip(&v) {
                    *o = w & mask;
                }
            }
            Instr::StoreShadow { idx, mask } => {
                let v = stack.pop().expect("tape underflow");
                let out = &mut shadow[idx as usize];
                for (o, w) in out.iter_mut().zip(&v) {
                    *o = w & mask;
                }
            }
        }
    }
}

/// Evaluates one binary operation on 64-bit values with Verilog-ish
/// semantics: wrapping arithmetic, `/0` and `%0` yield 0, shifts ≥ 64 yield
/// 0, predicates yield 0/1.
pub fn eval_binary(op: BinaryOp, a: u64, b: u64) -> u64 {
    match op {
        BinaryOp::Add => a.wrapping_add(b),
        BinaryOp::Sub => a.wrapping_sub(b),
        BinaryOp::Mul => a.wrapping_mul(b),
        BinaryOp::Div => a.checked_div(b).unwrap_or(0),
        BinaryOp::Mod => a.checked_rem(b).unwrap_or(0),
        BinaryOp::Pow => a.wrapping_pow(b.min(u32::MAX as u64) as u32),
        BinaryOp::And => a & b,
        BinaryOp::Or => a | b,
        BinaryOp::Xor => a ^ b,
        BinaryOp::Xnor => !(a ^ b),
        BinaryOp::Shl => {
            if b >= 64 {
                0
            } else {
                a << b
            }
        }
        BinaryOp::Shr => {
            if b >= 64 {
                0
            } else {
                a >> b
            }
        }
        BinaryOp::Lt => (a < b) as u64,
        BinaryOp::Gt => (a > b) as u64,
        BinaryOp::Le => (a <= b) as u64,
        BinaryOp::Ge => (a >= b) as u64,
        BinaryOp::Eq => (a == b) as u64,
        BinaryOp::Neq => (a != b) as u64,
        BinaryOp::LAnd => (a != 0 && b != 0) as u64,
        BinaryOp::LOr => (a != 0 || b != 0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_verilog;

    fn sim_src(src: &str) -> Module {
        parse_verilog(src).unwrap()
    }

    #[test]
    fn combinational_chain_evaluates_in_order() {
        // Declared out of dependency order on purpose.
        let m = sim_src(
            "module t(a, y);\n input [7:0] a;\n output [7:0] y;\n wire [7:0] w1, w2;\n assign y = w2 + 1;\n assign w2 = w1 * 2;\n assign w1 = a + 3;\nendmodule",
        );
        let mut s = Simulator::new(&m).unwrap();
        s.set_input("a", 5).unwrap();
        s.settle().unwrap();
        assert_eq!(s.get("y").unwrap(), (5 + 3) * 2 + 1);
    }

    #[test]
    fn combinational_cycle_is_detected() {
        let m = sim_src(
            "module t(y);\n output [7:0] y;\n wire [7:0] w;\n assign w = y + 1;\n assign y = w + 1;\nendmodule",
        );
        assert!(matches!(
            Simulator::new(&m),
            Err(RtlError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn key_mux_selects_real_operation() {
        let m = sim_src(
            "module t(K, a, b, y);\n input [0:0] K;\n input [7:0] a, b;\n output [7:0] y;\n assign y = K[0] ? a + b : a - b;\nendmodule",
        );
        let mut s = Simulator::new(&m).unwrap();
        s.set_input("a", 10).unwrap();
        s.set_input("b", 3).unwrap();
        s.set_key(&[true]).unwrap();
        s.settle().unwrap();
        assert_eq!(s.get("y").unwrap(), 13);
        s.set_key(&[false]).unwrap();
        s.settle().unwrap();
        assert_eq!(s.get("y").unwrap(), 7);
    }

    #[test]
    fn key_slice_reads_bits_lsb_first() {
        let m = sim_src(
            "module t(K, y);\n input [3:0] K;\n output [3:0] y;\n assign y = K[3:0];\nendmodule",
        );
        let mut s = Simulator::new(&m).unwrap();
        s.set_key(&[true, false, true, true]).unwrap();
        s.settle().unwrap();
        assert_eq!(s.get("y").unwrap(), 0b1101);
    }

    #[test]
    fn widths_mask_results() {
        let m = sim_src(
            "module t(a, y);\n input [7:0] a;\n output [3:0] y;\n assign y = a + 1;\nendmodule",
        );
        let mut s = Simulator::new(&m).unwrap();
        s.set_input("a", 0xFF).unwrap();
        s.settle().unwrap();
        assert_eq!(s.get("y").unwrap(), 0); // 0x100 masked to 4 bits
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(eval_binary(BinaryOp::Div, 5, 0), 0);
        assert_eq!(eval_binary(BinaryOp::Mod, 5, 0), 0);
    }

    #[test]
    fn shifts_saturate() {
        assert_eq!(eval_binary(BinaryOp::Shl, 1, 64), 0);
        assert_eq!(eval_binary(BinaryOp::Shr, u64::MAX, 64), 0);
        assert_eq!(eval_binary(BinaryOp::Shl, 1, 3), 8);
    }

    #[test]
    fn predicates_return_bits() {
        assert_eq!(eval_binary(BinaryOp::Lt, 1, 2), 1);
        assert_eq!(eval_binary(BinaryOp::Ge, 1, 2), 0);
        assert_eq!(eval_binary(BinaryOp::LAnd, 5, 0), 0);
        assert_eq!(eval_binary(BinaryOp::LOr, 5, 0), 1);
        assert_eq!(eval_binary(BinaryOp::Xnor, 0b1010, 0b1010), u64::MAX);
    }

    #[test]
    fn sequential_counter_ticks() {
        let m = sim_src(
            "module t(clk, en, q);\n input clk;\n input en;\n output [7:0] q;\n reg [7:0] cnt;\n assign q = cnt;\n always @(posedge clk) begin\n if (en) begin\n cnt <= cnt + 1;\n end\n end\nendmodule",
        );
        let mut s = Simulator::new(&m).unwrap();
        s.set_input("en", 1).unwrap();
        for _ in 0..5 {
            s.tick().unwrap();
        }
        assert_eq!(s.get("q").unwrap(), 5);
        s.set_input("en", 0).unwrap();
        s.tick().unwrap();
        assert_eq!(s.get("q").unwrap(), 5);
    }

    #[test]
    fn nonblocking_swap_uses_pre_edge_values() {
        let m = sim_src(
            "module t(clk, a, b);\n input clk;\n output [7:0] a, b;\n reg [7:0] x, y;\n assign a = x;\n assign b = y;\n always @(posedge clk) begin\n x <= y;\n y <= x;\n end\nendmodule",
        );
        let mut s = Simulator::new(&m).unwrap();
        s.set_state("x", 1).unwrap();
        s.set_state("y", 2).unwrap();
        s.tick().unwrap();
        assert_eq!(s.get("a").unwrap(), 2);
        assert_eq!(s.get("b").unwrap(), 1);
    }

    #[test]
    fn last_nonblocking_assignment_wins() {
        let m = sim_src(
            "module t(clk, q);\n input clk;\n output [7:0] q;\n reg [7:0] r;\n assign q = r;\n always @(posedge clk) begin\n r <= 1;\n r <= 2;\n end\nendmodule",
        );
        let mut s = Simulator::new(&m).unwrap();
        s.tick().unwrap();
        assert_eq!(s.get("q").unwrap(), 2);
    }

    #[test]
    fn else_branches_predicate_with_inverted_condition() {
        let m = sim_src(
            "module t(clk, sel, q);\n input clk;\n input sel;\n output [7:0] q;\n reg [7:0] r;\n assign q = r;\n always @(posedge clk) begin\n if (sel) begin\n r <= 10;\n end else begin\n r <= 20;\n end\n end\nendmodule",
        );
        let mut s = Simulator::new(&m).unwrap();
        s.set_input("sel", 1).unwrap();
        s.tick().unwrap();
        assert_eq!(s.get("q").unwrap(), 10);
        s.set_input("sel", 0).unwrap();
        s.tick().unwrap();
        assert_eq!(s.get("q").unwrap(), 20);
    }

    #[test]
    fn reset_restores_power_on_state_without_recompiling() {
        let m = sim_src(
            "module t(clk, d, q);\n input clk;\n input [7:0] d;\n output [7:0] q;\n reg [7:0] r;\n assign q = r;\n always @(posedge clk) begin\n r <= r + d;\n end\nendmodule",
        );
        let mut s = Simulator::new(&m).unwrap();
        s.set_input("d", 3).unwrap();
        s.tick().unwrap();
        s.tick().unwrap();
        assert_eq!(s.get("q").unwrap(), 6);
        s.reset();
        assert_eq!(s.get("q").unwrap(), 0);
        assert_eq!(s.get("d").unwrap(), 0, "reset clears inputs too");
        s.set_input("d", 3).unwrap();
        s.tick().unwrap();
        assert_eq!(s.get("q").unwrap(), 3);
    }

    #[test]
    fn short_key_is_rejected() {
        let m =
            sim_src("module t(K, y);\n input [3:0] K;\n output y;\n assign y = K[0];\nendmodule");
        let mut s = Simulator::new(&m).unwrap();
        assert!(matches!(
            s.set_key(&[true]),
            Err(RtlError::KeyTooShort { .. })
        ));
    }

    #[test]
    fn batch_lanes_match_scalar_settles() {
        let m = sim_src(
            "module t(a, b, y);\n input [7:0] a, b;\n output [9:0] y;\n wire [7:0] w;\n assign w = a * b;\n assign y = (w ^ a) + b;\nendmodule",
        );
        let avs: Vec<u64> = (0..8u64).map(|i| i.wrapping_mul(37) & 0xff).collect();
        let bvs: Vec<u64> = (0..8u64).map(|i| i.wrapping_mul(91) & 0xff).collect();
        let mut batch = BatchSimulator::<8>::new(&m).unwrap();
        batch.set_input_batch("a", &avs).unwrap();
        batch.set_input_batch("b", &bvs).unwrap();
        batch.settle().unwrap();
        for lane in 0..8 {
            let mut scalar = Simulator::new(&m).unwrap();
            scalar.set_input("a", avs[lane]).unwrap();
            scalar.set_input("b", bvs[lane]).unwrap();
            scalar.settle().unwrap();
            assert_eq!(
                batch.get_lane("y", lane).unwrap(),
                scalar.get("y").unwrap(),
                "lane {lane}"
            );
            assert_eq!(
                batch.outputs_digest_lane(lane).unwrap(),
                scalar.outputs_digest().unwrap()
            );
        }
    }

    #[test]
    fn batch_lanes_tick_independently() {
        let m = sim_src(
            "module t(clk, d, q);\n input clk;\n input [7:0] d;\n output [7:0] q;\n reg [7:0] r;\n assign q = r;\n always @(posedge clk) begin\n r <= r + d;\n end\nendmodule",
        );
        let mut batch = BatchSimulator::<4>::new(&m).unwrap();
        batch.set_input_batch("d", &[1, 2, 3, 4]).unwrap();
        batch.tick().unwrap();
        batch.tick().unwrap();
        for lane in 0..4 {
            assert_eq!(
                batch.get_lane("q", lane).unwrap(),
                2 * (lane as u64 + 1),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn batch_short_inputs_replicate_and_bad_lanes_error() {
        let m = sim_src(
            "module t(a, y);\n input [7:0] a;\n output [7:0] y;\n assign y = a + 1;\nendmodule",
        );
        let mut batch = BatchSimulator::<4>::new(&m).unwrap();
        batch.set_input_batch("a", &[5, 9]).unwrap();
        batch.settle().unwrap();
        assert_eq!(batch.get_lane("y", 0).unwrap(), 6);
        for lane in 1..4 {
            assert_eq!(batch.get_lane("y", lane).unwrap(), 10, "lane {lane}");
        }
        assert!(batch.set_input_batch("a", &[]).is_err());
        assert!(batch.set_input_batch("a", &[0; 5]).is_err());
        assert!(batch.get_lane("y", 4).is_err());
    }
}
