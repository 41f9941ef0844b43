//! Cut sweeping: exact functional merging and resynthesis over small
//! cones.
//!
//! Structural hashing ([`super::cse`]) only merges gates that look the
//! same; this pass merges gates that *compute* the same. Each gate gets
//! one cut — the union of its operands' cuts while it stays within
//! [`MAX_LEAVES`] leaves, else the gate's own output — and the exact
//! truth table of its function over those leaves (at most `2^6 = 64`
//! rows, one `u64`). Tables are canonicalized by support reduction:
//! variables the function does not depend on are dropped, so `a & (a |
//! b)` reduces to the projection of `a` and absorption laws fall out
//! for free. Then, in one topological walk:
//!
//! - a `(leaves, table)` pair already interned forwards the gate to the
//!   first net that computed it (functional CSE — sound because both
//!   nets compute the identical function of identical nets);
//! - constants and projections forward to `CONST0`/`CONST1`/the leaf
//!   itself (the map is seeded with them);
//! - a cone whose reduced function fits a *single* library cell is
//!   rewritten in place to that cell over the cut leaves (`NOT`,
//!   any 2-input cell, inhibitions via an existing complement net, or a
//!   `MUX` for 3-leaf select functions), bypassing the interior cone,
//!   which the DCE pass then reaps if nothing else reads it.
//!
//! Everything is verified exactly at the truth-table level — no
//! sampling, no SAT — so the pass can never merge two nets that differ
//! on any assignment.

use std::collections::HashMap;

use crate::ir::{GateInputs, GateKind, NetId, Netlist};

use super::{retain_live, topo_gate_order, Replacer};

/// Cut size bound: 6 leaves = 64-row truth table = one `u64`.
const MAX_LEAVES: usize = 6;

/// Truth-table pattern of variable `j` (replicated to 64 bits).
const VAR: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// One net's cut: sorted leaf nets plus the function's truth table over
/// them, replicated to fill the `u64` (so bitwise ops and comparisons
/// work at any leaf count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Cut {
    leaves: [NetId; MAX_LEAVES],
    len: u8,
    table: u64,
}

impl Cut {
    fn leaf(net: NetId) -> Self {
        let mut leaves = [NetId::CONST0; MAX_LEAVES];
        leaves[0] = net;
        Self {
            leaves,
            len: 1,
            table: VAR[0],
        }
    }

    fn constant(v: bool) -> Self {
        Self {
            leaves: [NetId::CONST0; MAX_LEAVES],
            len: 0,
            table: if v { u64::MAX } else { 0 },
        }
    }

    fn leaves(&self) -> &[NetId] {
        &self.leaves[..self.len as usize]
    }
}

/// Replicates the low `2^vars` bits of `table` to fill 64 bits.
fn replicate(table: u64, vars: usize) -> u64 {
    let mut width = 1u32 << vars;
    let mut t = if width >= 64 {
        return table;
    } else {
        table & ((1u64 << width) - 1)
    };
    while width < 64 {
        t |= t << width;
        width *= 2;
    }
    t
}

/// Re-expresses `table` (over `old` leaves) over the superset `new`.
fn expand(table: u64, old: &[NetId], new: &[NetId]) -> u64 {
    if old.len() == new.len() {
        return table;
    }
    let mut pos = [0usize; MAX_LEAVES];
    for (i, l) in old.iter().enumerate() {
        pos[i] = new.iter().position(|x| x == l).expect("old ⊆ new");
    }
    let rows = 1u64 << new.len();
    let mut out = 0u64;
    for a in 0..rows {
        let mut idx = 0usize;
        for (i, _) in old.iter().enumerate() {
            if a >> pos[i] & 1 == 1 {
                idx |= 1 << i;
            }
        }
        if table >> idx & 1 == 1 {
            out |= 1 << a;
        }
    }
    replicate(out, new.len())
}

/// Drops every variable the function does not depend on, compacting the
/// table. Returns the canonical cut.
fn reduce_support(mut cut: Cut) -> Cut {
    let mut j = 0usize;
    while j < cut.len as usize {
        let shift = 1u32 << j;
        let cof1 = (cut.table & VAR[j]) >> shift;
        let cof0 = cut.table & !VAR[j];
        if cof1 != cof0 {
            j += 1;
            continue;
        }
        // Independent of variable j: rebuild the table without it.
        let new_vars = cut.len as usize - 1;
        let rows = 1u64 << new_vars;
        let mut out = 0u64;
        for a in 0..rows {
            let low = a & ((1u64 << j) - 1);
            let high = (a >> j) << (j + 1);
            if cut.table >> (high | low) & 1 == 1 {
                out |= 1 << a;
            }
        }
        cut.table = replicate(out, new_vars);
        for i in j..new_vars {
            cut.leaves[i] = cut.leaves[i + 1];
        }
        cut.leaves[new_vars] = NetId::CONST0;
        cut.len = new_vars as u8;
        // Re-check the same position (a new variable shifted into it).
    }
    cut
}

/// Runs one cut-sweeping pass. Returns the number of changes (gates
/// forwarded to an equivalent net plus in-place resyntheses).
pub(super) fn run(netlist: &mut Netlist) -> usize {
    // A true topological order ([`super::optimize`] runs the passes on
    // acyclic netlists only), so forwarding a gate to an earlier-interned
    // net can never close a cycle.
    let order = topo_gate_order(netlist);
    let mut cuts: Vec<Option<Cut>> = vec![None; netlist.net_count()];
    cuts[NetId::CONST0.index()] = Some(Cut::constant(false));
    cuts[NetId::CONST1.index()] = Some(Cut::constant(true));

    let mut func: HashMap<Cut, NetId> = HashMap::with_capacity(netlist.gates.len() * 2);
    func.insert(Cut::constant(false), NetId::CONST0);
    func.insert(Cut::constant(true), NetId::CONST1);

    let mut repl = Replacer::identity(netlist.net_count());
    let mut dead = vec![false; netlist.gates.len()];
    let mut changed = 0usize;

    for &gi in &order {
        // Resolve operands through this pass's replacements and commit.
        let arity = netlist.gates[gi as usize].inputs.len();
        let mut ins = [NetId::CONST0; 3];
        for (slot, inp) in ins
            .iter_mut()
            .zip(netlist.gates[gi as usize].inputs.iter_mut())
        {
            *inp = repl.resolve(*inp);
            *slot = *inp;
        }
        let g = netlist.gates[gi as usize];

        // Seed self-cuts for leaf operands (inputs, key bits, dff state,
        // oversized cones) on first sight.
        for &inp in &ins[..arity] {
            if cuts[inp.index()].is_none() {
                let c = Cut::leaf(inp);
                cuts[inp.index()] = Some(c);
                func.entry(c).or_insert(inp);
            }
        }

        // Merge operand cuts; fall back to an opaque self-cut when the
        // union outgrows the bound.
        let cut = merge_cuts(g.kind, &ins[..arity], &cuts).map(reduce_support);
        let cut = match cut {
            Some(c) => c,
            None => {
                let c = Cut::leaf(g.output);
                cuts[g.output.index()] = Some(c);
                func.entry(c).or_insert(g.output);
                continue;
            }
        };

        if let Some(&rep) = func.get(&cut) {
            // Another net already computes exactly this function of
            // exactly these nets.
            repl.set(g.output, rep);
            dead[gi as usize] = true;
            changed += 1;
            continue;
        }

        // Single-cell resynthesis over the cut leaves.
        if let Some((kind, operands, n)) = resynthesize(&cut, &func) {
            let g = &mut netlist.gates[gi as usize];
            if g.kind != kind || g.inputs[..] != operands[..n] {
                g.kind = kind;
                g.inputs = GateInputs::new(&operands[..n]);
                changed += 1;
            }
        }

        cuts[g.output.index()] = Some(cut);
        func.insert(cut, g.output);
    }

    repl.apply(netlist);
    retain_live(netlist, &dead);
    changed
}

/// Union of the operands' stored cuts plus the gate function over the
/// union leaves, or `None` when the union exceeds [`MAX_LEAVES`].
fn merge_cuts(kind: GateKind, ins: &[NetId], cuts: &[Option<Cut>]) -> Option<Cut> {
    let mut union: Vec<NetId> = Vec::with_capacity(MAX_LEAVES);
    for &inp in ins {
        let c = cuts[inp.index()].as_ref().expect("operand cut seeded");
        for &l in c.leaves() {
            if !union.contains(&l) {
                union.push(l);
            }
        }
    }
    if union.len() > MAX_LEAVES {
        return None;
    }
    union.sort();
    let mut tables = [0u64; 3];
    for (slot, &inp) in tables.iter_mut().zip(ins.iter()) {
        let c = cuts[inp.index()].as_ref().expect("operand cut seeded");
        *slot = expand(c.table, c.leaves(), &union);
    }
    let mut leaves = [NetId::CONST0; MAX_LEAVES];
    leaves[..union.len()].copy_from_slice(&union);
    Some(Cut {
        leaves,
        len: union.len() as u8,
        table: kind.eval_word(&tables),
    })
}

/// A single library cell implementing `cut`'s function directly over its
/// leaves, if one exists: `(kind, operands, operand count)`.
///
/// Inhibition functions (`a & !b` and duals) are mapped only when a net
/// computing the needed complement is already interned — the pass never
/// allocates gates or nets.
fn resynthesize(cut: &Cut, func: &HashMap<Cut, NetId>) -> Option<(GateKind, [NetId; 3], usize)> {
    use GateKind::*;
    let ls = cut.leaves();
    match ls.len() {
        1 => {
            // Projections/constants were caught by the functional map;
            // the only remaining 1-support function is the complement.
            debug_assert_eq!(cut.table, !VAR[0]);
            Some((Not, [ls[0], NetId::CONST0, NetId::CONST0], 1))
        }
        2 => {
            let (a, b) = (VAR[0], VAR[1]);
            let two_in = |kind: GateKind| Some((kind, [ls[0], ls[1], NetId::CONST0], 2));
            match cut.table {
                t if t == a & b => two_in(And),
                t if t == a | b => two_in(Or),
                t if t == !(a & b) => two_in(Nand),
                t if t == !(a | b) => two_in(Nor),
                t if t == a ^ b => two_in(Xor),
                t if t == !(a ^ b) => two_in(Xnor),
                // Inhibition / implication: need an existing complement.
                t if t == a & !b => inhibition(And, ls[0], ls[1], func),
                t if t == !a & b => inhibition(And, ls[1], ls[0], func),
                t if t == a | !b => inhibition(Or, ls[0], ls[1], func),
                t if t == !a | b => inhibition(Or, ls[1], ls[0], func),
                _ => None,
            }
        }
        3 => {
            // MUX recognition: table == sel ? x : y over some assignment
            // of the three leaves.
            for sel in 0..3usize {
                for (x, y) in [(0usize, 1usize, 2usize), (0, 2, 1), (1, 2, 0)]
                    .into_iter()
                    .filter_map(|(p, q, r)| {
                        if p == sel {
                            Some((q, r))
                        } else if q == sel {
                            Some((p, r))
                        } else if r == sel {
                            Some((p, q))
                        } else {
                            None
                        }
                    })
                    .flat_map(|(p, q)| [(p, q), (q, p)])
                {
                    let t = (VAR[sel] & VAR[x]) | (!VAR[sel] & VAR[y]);
                    if cut.table == t {
                        return Some((Mux, [ls[sel], ls[x], ls[y]], 3));
                    }
                }
            }
            None
        }
        _ => None,
    }
}

/// `keep op !inv`, if a net computing `!inv` is interned.
fn inhibition(
    kind: GateKind,
    keep: NetId,
    inv: NetId,
    func: &HashMap<Cut, NetId>,
) -> Option<(GateKind, [NetId; 3], usize)> {
    let mut want = Cut::leaf(inv);
    want.table = !want.table;
    let not_net = *func.get(&want)?;
    Some((kind, [keep, not_net, NetId::CONST0], 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorption_falls_out_of_support_reduction() {
        // a & (a | b) == a
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let b = n.add_input_port("b", 1)[0];
        let or = n.add_gate(GateKind::Or, [a, b]);
        let and = n.add_gate(GateKind::And, [a, or]);
        n.add_output_port("y", vec![and]);
        let changed = run(&mut n);
        assert!(changed >= 1);
        assert!(n.validate().is_ok());
        assert_eq!(n.port("y").unwrap().bits[0], a);
    }

    #[test]
    fn functionally_equal_structures_merge() {
        // Distribution: a&b | a&c == a & (b|c).
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let b = n.add_input_port("b", 1)[0];
        let c = n.add_input_port("c", 1)[0];
        let ab = n.add_gate(GateKind::And, [a, b]);
        let ac = n.add_gate(GateKind::And, [a, c]);
        let sum = n.add_gate(GateKind::Or, [ab, ac]);
        let bc = n.add_gate(GateKind::Or, [b, c]);
        let flat = n.add_gate(GateKind::And, [a, bc]);
        n.add_output_port("y", vec![sum]);
        n.add_output_port("z", vec![flat]);
        run(&mut n);
        assert!(n.validate().is_ok());
        assert_eq!(
            n.port("y").unwrap().bits[0],
            n.port("z").unwrap().bits[0],
            "both cones compute a & (b|c)"
        );
    }

    #[test]
    fn two_gate_cones_resynthesize_to_one_cell() {
        // NOT(a) AND NOT(b) == NOR(a, b) — needs resynthesis, the
        // operands' inverters are shared so rewrite-fusion won't fire.
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let b = n.add_input_port("b", 1)[0];
        let na = n.add_gate(GateKind::Not, [a]);
        let nb = n.add_gate(GateKind::Not, [b]);
        let and = n.add_gate(GateKind::And, [na, nb]);
        n.add_output_port("y", vec![and]);
        n.add_output_port("p", vec![na]); // keep inverters multi-use
        n.add_output_port("q", vec![nb]);
        run(&mut n);
        assert!(n.validate().is_ok());
        let g = n
            .gates()
            .iter()
            .find(|g| g.output == n.port("y").unwrap().bits[0])
            .unwrap();
        assert_eq!(g.kind, GateKind::Nor);
        assert_eq!(&g.inputs[..], &[a, b]);
    }

    #[test]
    fn mux_recognition_rebuilds_and_or_selects() {
        // (s & x) | (!s & y) == MUX(s, x, y).
        let mut n = Netlist::new("t");
        let s = n.add_input_port("s", 1)[0];
        let x = n.add_input_port("x", 1)[0];
        let y = n.add_input_port("y", 1)[0];
        let ns = n.add_gate(GateKind::Not, [s]);
        let sx = n.add_gate(GateKind::And, [s, x]);
        let nsy = n.add_gate(GateKind::And, [ns, y]);
        let or = n.add_gate(GateKind::Or, [sx, nsy]);
        n.add_output_port("o", vec![or]);
        n.add_output_port("k", vec![ns]);
        run(&mut n);
        assert!(n.validate().is_ok());
        let g = n
            .gates()
            .iter()
            .find(|g| g.output == n.port("o").unwrap().bits[0])
            .unwrap();
        assert_eq!(g.kind, GateKind::Mux);
        assert_eq!(&g.inputs[..], &[s, x, y]);
    }

    #[test]
    fn table_plumbing_round_trips() {
        let a = NetId(10);
        let b = NetId(11);
        let c = NetId(12);
        // f(a) = a over [a], expanded to [a,b,c], is still VAR of a's slot.
        let t = expand(VAR[0], &[a], &[a, b, c]);
        assert_eq!(t, VAR[0]);
        let t = expand(VAR[0], &[b], &[a, b, c]);
        assert_eq!(t, VAR[1]);
        // Support reduction strips the padding variable back out.
        let mut cut = Cut {
            leaves: [a, b, c, NetId::CONST0, NetId::CONST0, NetId::CONST0],
            len: 3,
            table: VAR[1],
        };
        cut = reduce_support(cut);
        assert_eq!(cut.leaves(), &[b]);
        assert_eq!(cut.table, VAR[0]);
    }
}
