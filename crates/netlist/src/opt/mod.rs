//! Binaryen-style optimization pass pipeline over the gate IR.
//!
//! One IR, many small passes, validation between: every pass is a
//! self-contained rewrite of a [`Netlist`] that preserves the observable
//! function (outputs and flip-flop next-state as functions of inputs,
//! key bits, and current state) for *every* key value — key bits are
//! ordinary input nets, so sound boolean optimization can never
//! specialize a locked design to one key.
//!
//! The pipeline is driven to a fixed point by [`optimize`]: each round
//! runs the level's pass list in order and the loop stops when a full
//! round changes nothing. After every pass the netlist is re-validated
//! ([`Netlist::validate`]), the discipline binaryen applies between its
//! passes — an invariant violation is a pass bug and panics immediately
//! rather than corrupting downstream consumers.
//!
//! Passes (see the per-pass modules for the exact rule sets):
//!
//! - `const_fold` — propagates tied-0/1 nets through
//!   [`GateKind::eval`]'s truth tables; gates whose inputs are all
//!   constant fold to `CONST0`/`CONST1`.
//! - `rewrite` — local strength reduction: buffer forwarding,
//!   double-inverter collapse, identity/annihilator absorption
//!   (`a&1 = a`, `a|1 = 1`, `a^a = 0`, MUX with constant or equal
//!   branches, ...), and at `O2` inverter-fusion rules that merge a
//!   single-use inverter into its consumer (`NOT(AND) → NAND`,
//!   `XOR(NOT a, b) → XNOR(a, b)`, MUX select-inversion branch swap)
//!   plus XOR-chain cancellation (`a ^ (a ^ b) → b`).
//! - `cse` — structural hashing: hash-cons on `(kind, operands)` with
//!   commutative operands sorted, so structurally identical gates share
//!   one output net.
//! - `cut_sweep` (`O2` only) — exact functional merging over ≤6-leaf
//!   cuts: per-net truth tables with support reduction, so absorption
//!   laws, functionally-duplicate cones, and single-cell resyntheses
//!   (`NOT(a)·NOT(b) → NOR`, AND/OR select networks → `MUX`) all fall
//!   out of one truth-table hash.
//! - `dce` — dead-gate elimination over the CSR
//!   [`FanoutIndex`](crate::ir::FanoutIndex):
//!   worklist removal of gates with no path to an output port or
//!   flip-flop data pin.
//!
//! Telemetry: when observability is enabled ([`mlrl_obs::enabled`]) the
//! driver wraps the whole run in a `phase.opt` span, each pass in an
//! `opt.pass.<name>` span, and publishes `opt.gates_removed`,
//! `opt.iterations`, and per-pass `opt.pass.<name>.removed` counters —
//! the source of `mlrl report`'s optimizer row.

mod const_fold;
mod cse;
mod cut_sweep;
mod dce;
mod rewrite;

use crate::ir::{GateKind, NetId, Netlist, NO_DRIVER};

/// Optimization effort level — the campaign axis (`opt_level = o2` in a
/// spec file, `--opt-level o2` on the CLI).
///
/// - `O0` (default): the pipeline is a no-op; canonical byte streams and
///   cache keys are exactly the pre-optimizer ones.
/// - `O1`: constant folding, basic rewrites, dead-gate elimination.
/// - `O2`: `O1` plus structural hashing (CSE) and the fusion rewrite
///   set, run to a joint fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No optimization (the historical lowering, byte-for-byte).
    #[default]
    O0,
    /// Constant folding + basic rewrites + dead-gate elimination.
    O1,
    /// `O1` plus structural hashing, inverter-fusion rewrites, and
    /// truth-table cut sweeping.
    O2,
}

impl OptLevel {
    /// Every level, in increasing effort order. The single source of the
    /// valid-token list in parse errors.
    pub const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

    /// Spec/CLI token of this level.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "o0",
            OptLevel::O1 => "o1",
            OptLevel::O2 => "o2",
        }
    }

    /// Parses a spec/CLI token (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a message listing every valid level token.
    pub fn parse(token: &str) -> Result<Self, String> {
        let lower = token.to_ascii_lowercase();
        Self::ALL
            .into_iter()
            .find(|l| l.name() == lower)
            .ok_or_else(|| {
                let expected: Vec<&str> = Self::ALL.iter().map(|l| l.name()).collect();
                format!(
                    "unknown opt level `{token}` (expected one of: {})",
                    expected.join(", ")
                )
            })
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one [`optimize`] run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// Gate count before the pipeline ran.
    pub gates_before: usize,
    /// Gate count after the pipeline converged.
    pub gates_after: usize,
    /// Fixed-point rounds executed (including the final no-change round).
    pub iterations: usize,
}

impl OptStats {
    /// Gates removed by the run.
    pub fn removed(&self) -> usize {
        self.gates_before.saturating_sub(self.gates_after)
    }

    /// Fraction of gates removed, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.gates_before == 0 {
            0.0
        } else {
            self.removed() as f64 / self.gates_before as f64
        }
    }
}

/// One registered pass: display/telemetry names plus the entry point,
/// which returns the number of changes it made (rewrites + removals).
struct Pass {
    name: &'static str,
    span: &'static str,
    counter: &'static str,
    run: fn(&mut Netlist) -> usize,
}

const CONST_FOLD: Pass = Pass {
    name: "const_fold",
    span: "opt.pass.const_fold",
    counter: "opt.pass.const_fold.removed",
    run: const_fold::run,
};
const REWRITE_BASIC: Pass = Pass {
    name: "rewrite",
    span: "opt.pass.rewrite",
    counter: "opt.pass.rewrite.removed",
    run: rewrite::run_basic,
};
const REWRITE_FULL: Pass = Pass {
    name: "rewrite",
    span: "opt.pass.rewrite",
    counter: "opt.pass.rewrite.removed",
    run: rewrite::run_full,
};
const CSE: Pass = Pass {
    name: "cse",
    span: "opt.pass.cse",
    counter: "opt.pass.cse.removed",
    run: cse::run,
};
const CUT_SWEEP: Pass = Pass {
    name: "cut_sweep",
    span: "opt.pass.cut_sweep",
    counter: "opt.pass.cut_sweep.removed",
    run: cut_sweep::run,
};
const DCE: Pass = Pass {
    name: "dce",
    span: "opt.pass.dce",
    counter: "opt.pass.dce.removed",
    run: dce::run,
};

/// Hard cap on fixed-point rounds. Every pass strictly reduces a
/// well-founded measure (gate count, then total operand count, then
/// inverter count), so convergence is guaranteed; the cap is a backstop
/// against a pass bug turning into an infinite loop.
const MAX_ROUNDS: usize = 64;

/// Runs the `level`'s pass list over `netlist` to a fixed point.
///
/// The observable function is preserved for every input, state, and key
/// assignment; net ids of surviving logic are preserved (dead nets
/// simply become undriven, as [`Netlist::sweep`] leaves them).
///
/// # Panics
///
/// Panics if a pass breaks a structural invariant ([`Netlist::validate`]
/// fails) — that is a pass bug, never a property of the input netlist.
pub fn optimize(netlist: &mut Netlist, level: OptLevel) -> OptStats {
    let gates_before = netlist.gates.len();
    let passes: &[Pass] = match level {
        OptLevel::O0 => &[],
        OptLevel::O1 => &[CONST_FOLD, REWRITE_BASIC, DCE],
        OptLevel::O2 => &[CONST_FOLD, REWRITE_FULL, CSE, CUT_SWEEP, DCE],
    };
    if passes.is_empty() {
        return OptStats {
            gates_before,
            gates_after: gates_before,
            iterations: 0,
        };
    }

    let _phase = mlrl_obs::span("phase.opt");
    let mut iterations = 0;
    while iterations < MAX_ROUNDS {
        iterations += 1;
        let mut changed = 0usize;
        for pass in passes {
            let before = netlist.gates.len();
            let n = {
                let _s = mlrl_obs::span(pass.span);
                (pass.run)(netlist)
            };
            if let Err(e) = netlist.validate() {
                panic!("optimizer pass `{}` broke the netlist: {e}", pass.name);
            }
            if n > 0 {
                mlrl_obs::counter_add(pass.counter, (before - netlist.gates.len()) as u64);
            }
            changed += n;
        }
        if changed == 0 {
            break;
        }
    }

    let stats = OptStats {
        gates_before,
        gates_after: netlist.gates.len(),
        iterations,
    };
    mlrl_obs::counter_add("opt.gates_removed", stats.removed() as u64);
    mlrl_obs::counter_add("opt.iterations", iterations as u64);
    stats
}

// -- shared pass machinery ------------------------------------------------

/// Gate indices in dependency order: a gate appears after the drivers of
/// all its inputs. Iterative DFS over the dense driver index; a back
/// edge (combinational cycle — never produced by the lowerer, but the
/// passes must not hang on hostile input) is skipped, which degrades the
/// order locally without affecting soundness.
fn topo_gate_order(netlist: &Netlist) -> Vec<u32> {
    let driver = netlist.driver_index();
    // 0 = unvisited, 1 = on stack, 2 = emitted.
    let mut state = vec![0u8; netlist.gates.len()];
    let mut order = Vec::with_capacity(netlist.gates.len());
    let mut stack: Vec<(u32, u8)> = Vec::new();
    for root in 0..netlist.gates.len() as u32 {
        if state[root as usize] != 0 {
            continue;
        }
        state[root as usize] = 1;
        stack.push((root, 0));
        while let Some((gi, cursor)) = stack.last_mut() {
            let g = &netlist.gates[*gi as usize];
            if (*cursor as usize) < g.inputs.len() {
                let inp = g.inputs[*cursor as usize];
                *cursor += 1;
                let di = driver[inp.index()];
                if di != NO_DRIVER && state[di as usize] == 0 {
                    state[di as usize] = 1;
                    stack.push((di, 0));
                }
            } else {
                state[*gi as usize] = 2;
                order.push(*gi);
                stack.pop();
            }
        }
    }
    order
}

/// Use-site rewiring map: `old net -> replacement net`, resolved with
/// path compression so replacement chains (`a -> b -> c`) collapse in
/// one [`Replacer::apply`] sweep. Only *uses* are rewired (gate inputs,
/// flip-flop data pins, output-port bits); drivers keep their output
/// nets, so the single-driver invariant is untouched and dead drivers
/// fall to the DCE pass.
struct Replacer {
    map: Vec<NetId>,
    changed: bool,
}

impl Replacer {
    fn identity(net_count: usize) -> Self {
        Self {
            map: (0..net_count as u32).map(NetId).collect(),
            changed: false,
        }
    }

    /// Redirects every use of `old` to `new`.
    fn set(&mut self, old: NetId, new: NetId) {
        debug_assert_eq!(self.map[old.index()], old, "net replaced twice");
        self.map[old.index()] = new;
        self.changed = true;
    }

    /// Final target of `net`, compressing the chain walked.
    fn resolve(&mut self, net: NetId) -> NetId {
        let mut root = net;
        while self.map[root.index()] != root {
            root = self.map[root.index()];
        }
        let mut cur = net;
        while self.map[cur.index()] != cur {
            let next = self.map[cur.index()];
            self.map[cur.index()] = root;
            cur = next;
        }
        root
    }

    /// Rewires every use site in one sweep. No-op when nothing was
    /// [`Replacer::set`].
    fn apply(&mut self, netlist: &mut Netlist) {
        if !self.changed {
            return;
        }
        for g in &mut netlist.gates {
            for inp in g.inputs.iter_mut() {
                let mut root = *inp;
                while self.map[root.index()] != root {
                    root = self.map[root.index()];
                }
                *inp = root;
            }
        }
        for f in &mut netlist.dffs {
            let mut root = f.d;
            while self.map[root.index()] != root {
                root = self.map[root.index()];
            }
            f.d = root;
        }
        for p in &mut netlist.outputs {
            for b in &mut p.bits {
                let mut root = *b;
                while self.map[root.index()] != root {
                    root = self.map[root.index()];
                }
                *b = root;
            }
        }
    }
}

/// Drops the gates flagged in `dead` (indexed by gate position).
fn retain_live(netlist: &mut Netlist, dead: &[bool]) {
    let mut i = 0;
    netlist.gates.retain(|_| {
        let keep = !dead[i];
        i += 1;
        keep
    });
}

/// The constant net carrying `v`.
fn const_net(v: bool) -> NetId {
    if v {
        NetId::CONST1
    } else {
        NetId::CONST0
    }
}

/// True for kinds whose two operands commute (operand order is
/// canonicalized before structural hashing).
fn commutative(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Gate;

    fn two_bit_adder() -> Netlist {
        // y = a ^ b with carry logic and some redundancy for the passes
        // to chew on.
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let b = n.add_input_port("b", 1)[0];
        let x1 = n.add_gate(GateKind::Xor, [a, b]);
        let x2 = n.add_gate(GateKind::Xor, [a, b]); // CSE victim
        let buf = n.add_gate(GateKind::Buf, [x2]);
        let dead = n.add_gate(GateKind::And, [a, b]); // no reader
        let _ = dead;
        n.add_output_port("y", vec![x1]);
        n.add_output_port("z", vec![buf]);
        n
    }

    #[test]
    fn opt_level_tokens_round_trip_and_errors_list_levels() {
        for level in OptLevel::ALL {
            assert_eq!(OptLevel::parse(level.name()).unwrap(), level);
            assert_eq!(
                OptLevel::parse(&level.name().to_ascii_uppercase()).unwrap(),
                level
            );
        }
        let err = OptLevel::parse("os").unwrap_err();
        for level in OptLevel::ALL {
            assert!(
                err.contains(level.name()),
                "{err} should list {}",
                level.name()
            );
        }
    }

    #[test]
    fn o0_is_a_no_op() {
        let mut n = two_bit_adder();
        let before = n.clone();
        let stats = optimize(&mut n, OptLevel::O0);
        assert_eq!(stats.removed(), 0);
        assert_eq!(stats.iterations, 0);
        assert_eq!(n, before);
    }

    #[test]
    fn o2_reaches_a_fixed_point_and_shrinks_redundancy() {
        let mut n = two_bit_adder();
        let stats = optimize(&mut n, OptLevel::O2);
        assert!(n.validate().is_ok());
        // One XOR survives; the duplicate, the buffer, and the dead AND
        // all fold away.
        assert_eq!(n.gates().len(), 1);
        assert_eq!(stats.gates_after, 1);
        assert!(stats.iterations >= 2, "runs until a no-change round");
        // Both outputs now read the surviving XOR.
        let y = n.port("y").unwrap().bits[0];
        let z = n.port("z").unwrap().bits[0];
        assert_eq!(y, z);
    }

    #[test]
    fn topo_order_visits_drivers_first() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let x = n.add_gate(GateKind::Not, [a]);
        let y = n.add_gate(GateKind::And, [x, a]);
        n.add_output_port("y", vec![y]);
        // Force non-topological storage order: swap the two gates.
        n.gates.swap(0, 1);
        let order = topo_gate_order(&n);
        let pos = |out: NetId| {
            order
                .iter()
                .position(|&gi| n.gates[gi as usize].output == out)
                .unwrap()
        };
        assert!(pos(x) < pos(y));
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn replacer_compresses_chains() {
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let g1 = n.add_gate(GateKind::Buf, [a]);
        let g2 = n.add_gate(GateKind::Buf, [g1]);
        n.add_output_port("y", vec![g2]);
        let mut r = Replacer::identity(n.net_count());
        r.set(g1, a);
        r.set(g2, g1);
        assert_eq!(r.resolve(g2), a);
        r.apply(&mut n);
        assert_eq!(n.port("y").unwrap().bits[0], a);
        // Drivers are untouched; the two bufs are now dead but present.
        assert_eq!(n.gates().len(), 2);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn retain_live_drops_flagged_gates() {
        let mut n = two_bit_adder();
        let dead = vec![false, true, false, true];
        retain_live(&mut n, &dead);
        assert_eq!(n.gates().len(), 2);
        assert!(n.gates().iter().all(|g: &Gate| g.kind != GateKind::And));
    }
}
