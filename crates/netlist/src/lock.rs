//! Gate-level logic locking.
//!
//! Implements the traditional, post-synthesis locking family the paper
//! contrasts RTL locking against (Fig. 1 and §1): key gates are inserted
//! into an already-synthesized netlist with no semantic knowledge of the
//! design.
//!
//! Two schemes are provided:
//!
//! - [`xor_xnor_lock`] — EPIC-style random logic locking. A key bit of 0
//!   inserts an XOR gate on a wire, a key bit of 1 inserts an XNOR, so the
//!   correct key always restores the original signal. The *cell type alone*
//!   determines the key bit — the canonical structural leak that ML attacks
//!   exploit on gate-level locking (KPA ≈ 100 % for a structural attacker).
//! - [`mux_lock`] — key-controlled multiplexers choosing between the true
//!   wire and a decoy wire, the gate-level analogue of the paper's RTL
//!   operation obfuscation. Leakage now depends on how distinguishable true
//!   and decoy fan-ins are, not on the cell type.
//!
//! Both return a [`GateKey`] recording the inserted bits, so attacks can be
//! scored with the same KPA accounting as the RTL flow.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::{NetlistError, Result};
use crate::ir::{GateKind, NetId, Netlist};

/// The correct key of a gate-level locked netlist, bit `i` = `K[i]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateKey {
    bits: Vec<bool>,
}

impl GateKey {
    /// Empty key.
    pub fn new() -> Self {
        Self::default()
    }

    /// Key bits, index 0 = `K[0]`.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of key bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }
}

impl From<Vec<bool>> for GateKey {
    fn from(bits: Vec<bool>) -> Self {
        Self { bits }
    }
}

/// Which gate-level scheme to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateLockScheme {
    /// EPIC-style XOR/XNOR key gates (cell type leaks the key bit).
    XorXnor,
    /// Key-controlled MUX between the true wire and a random decoy.
    Mux,
}

/// Wires eligible for key-gate insertion: outputs of existing gates that can
/// influence an observation point. Dead gates are excluded (corrupting them
/// corrupts nothing), as are primary inputs so locking never bypasses the
/// logic it protects.
fn lockable_wires(netlist: &Netlist) -> Vec<NetId> {
    let cone = netlist.observable_cone();
    netlist
        .gates()
        .iter()
        .map(|g| g.output)
        .filter(|n| cone[n.index()])
        .collect()
}

/// Inserts `key_len` EPIC-style XOR/XNOR key gates on random wires.
///
/// For each selected wire `w` and random key bit `k`:
/// - `k = 0` → `XOR(w, K[i])` replaces `w` in all fanout,
/// - `k = 1` → `XNOR(w, K[i])` replaces `w` in all fanout.
///
/// With the correct key installed the netlist is functionally identical to
/// the input; any wrong bit inverts a wire.
///
/// # Errors
///
/// Returns [`NetlistError::Lock`] if the netlist has fewer gates than
/// requested key bits (each wire is locked at most once per call).
///
/// # Examples
///
/// ```
/// use mlrl_netlist::build::NetlistBuilder;
/// use mlrl_netlist::ir::Netlist;
/// use mlrl_netlist::lock::xor_xnor_lock;
/// use mlrl_netlist::equiv::check_netlists;
///
/// let mut b = NetlistBuilder::new(Netlist::new("t"));
/// let a = b.input_lane("a", 8);
/// let c = b.input_lane("b", 8);
/// let s = b.add(a, c);
/// b.output_from_lane("y", s, 8);
/// let original = b.finish();
///
/// let mut locked = original.clone();
/// let key = xor_xnor_lock(&mut locked, 4, 42)?;
/// let check = check_netlists(&original, &locked, &[], key.bits(), 100, 1)?;
/// assert!(check.is_equivalent());
/// # Ok::<(), mlrl_netlist::error::NetlistError>(())
/// ```
pub fn xor_xnor_lock(netlist: &mut Netlist, key_len: usize, seed: u64) -> Result<GateKey> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wires = lockable_wires(netlist);
    if wires.len() < key_len {
        return Err(NetlistError::Lock(format!(
            "requested {key_len} key bits but only {} lockable wires",
            wires.len()
        )));
    }
    wires.shuffle(&mut rng);
    let mut key = GateKey::new();
    for &wire in wires.iter().take(key_len) {
        let bit: bool = rng.gen();
        let (_, k) = netlist.add_key_bit();
        let fresh = netlist.add_net();
        let kind = if bit { GateKind::Xnor } else { GateKind::Xor };
        netlist.replace_uses(wire, fresh, None);
        netlist.add_gate_to(kind, vec![wire, k], fresh);
        key.push(bit);
    }
    netlist.validate()?;
    Ok(key)
}

/// Inserts `key_len` key-controlled MUX gates, each choosing between a true
/// wire and a random decoy wire.
///
/// For key bit 1 the true wire sits in the MUX's select-1 position, for key
/// bit 0 in the select-0 position — the same convention as the RTL ternary
/// locking of Fig. 3. The decoy is a random *other* gate output that is not
/// in the true wire's transitive fanout (to keep the netlist acyclic).
///
/// # Errors
///
/// Returns [`NetlistError::Lock`] if there are not enough distinct wires.
pub fn mux_lock(netlist: &mut Netlist, key_len: usize, seed: u64) -> Result<GateKey> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wires = lockable_wires(netlist);
    if wires.len() < key_len || wires.len() < 2 {
        return Err(NetlistError::Lock(format!(
            "requested {key_len} key bits but only {} lockable wires",
            wires.len()
        )));
    }
    wires.shuffle(&mut rng);
    let mut key = GateKey::new();
    // Maintained incrementally across insertions: each mux adds new paths
    // through its decoy, and a stale view could admit a combinational cycle.
    // Net-indexed dense adjacency (net -> reading gates); insertions below
    // grow the net space, so reads go through `fanout.get(..)`.
    let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); netlist.net_count()];
    for (i, g) in netlist.gates().iter().enumerate() {
        for inp in &g.inputs {
            fanout[inp.index()].push(i as u32);
        }
    }
    for &wire in wires.iter().take(key_len) {
        let forbidden = transitive_fanout(netlist, &fanout, wire);
        let decoy = match wires
            .iter()
            .copied()
            .filter(|&w| w != wire && !forbidden.contains(&w))
            .max_by_key(|_| rng.gen::<u32>())
        {
            Some(d) => d,
            // Wire feeds everything; fall back to a constant decoy.
            None => NetId::CONST0,
        };
        let bit: bool = rng.gen();
        let (_, k) = netlist.add_key_bit();
        let fresh = netlist.add_net();
        netlist.replace_uses(wire, fresh, None);
        // Mux inputs are [sel, a, b] -> sel ? a : b.
        let (a, b) = if bit { (wire, decoy) } else { (decoy, wire) };
        netlist.add_gate_to(GateKind::Mux, vec![k, a, b], fresh);
        // Update the fanout view: the old consumers of `wire` now hang off
        // `fresh`, and the new mux reads `wire`, `decoy`, and `k`.
        let gi = (netlist.gates().len() - 1) as u32;
        fanout.resize(netlist.net_count(), Vec::new());
        let moved = std::mem::take(&mut fanout[wire.index()]);
        fanout[fresh.index()] = moved;
        for input in [wire, decoy, k] {
            fanout[input.index()].push(gi);
        }
        key.push(bit);
    }
    netlist.validate()?;
    Ok(key)
}

/// Applies the selected scheme.
///
/// # Errors
///
/// Propagates the scheme's errors.
pub fn lock_netlist(
    netlist: &mut Netlist,
    scheme: GateLockScheme,
    key_len: usize,
    seed: u64,
) -> Result<GateKey> {
    match scheme {
        GateLockScheme::XorXnor => xor_xnor_lock(netlist, key_len, seed),
        GateLockScheme::Mux => mux_lock(netlist, key_len, seed),
    }
}

/// All nets reachable forward from `from` through gates (including `from`).
fn transitive_fanout(
    netlist: &Netlist,
    fanout: &[Vec<u32>],
    from: NetId,
) -> std::collections::HashSet<NetId> {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![from];
    while let Some(net) = stack.pop() {
        if !seen.insert(net) {
            continue;
        }
        if let Some(gates) = fanout.get(net.index()) {
            for &gi in gates {
                stack.push(netlist.gates()[gi as usize].output);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::NetlistBuilder;
    use crate::equiv::check_netlists;
    use crate::sim::NetlistSimulator;

    fn sample_netlist() -> Netlist {
        let mut b = NetlistBuilder::new(Netlist::new("t"));
        let a = b.input_lane("a", 8);
        let c = b.input_lane("b", 8);
        let s = b.add(a, c);
        let m = b.mul(s, a);
        b.output_from_lane("y", m, 8);
        b.finish()
    }

    #[test]
    fn xor_xnor_lock_preserves_function_with_correct_key() {
        let original = sample_netlist();
        let mut locked = original.clone();
        let key = xor_xnor_lock(&mut locked, 8, 3).unwrap();
        assert_eq!(key.len(), 8);
        assert_eq!(locked.key_width(), 8);
        let r = check_netlists(&original, &locked, &[], key.bits(), 100, 9).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn xor_xnor_lock_corrupts_with_wrong_key() {
        let original = sample_netlist();
        let mut locked = original.clone();
        let key = xor_xnor_lock(&mut locked, 8, 3).unwrap();
        let mut wrong = key.bits().to_vec();
        wrong[0] = !wrong[0];
        let r = check_netlists(&original, &locked, &[], &wrong, 100, 9).unwrap();
        assert!(!r.is_equivalent());
    }

    #[test]
    fn xor_gate_type_encodes_key_bit() {
        // The structural leak: inserted cell type == key bit value.
        let mut locked = sample_netlist();
        let before = locked.gates().len();
        let key = xor_xnor_lock(&mut locked, 16, 5).unwrap();
        let inserted = &locked.gates()[before..];
        for (gate, &bit) in inserted.iter().zip(key.bits()) {
            let expect = if bit { GateKind::Xnor } else { GateKind::Xor };
            assert_eq!(gate.kind, expect);
        }
    }

    #[test]
    fn mux_lock_preserves_function_with_correct_key() {
        let original = sample_netlist();
        let mut locked = original.clone();
        let key = mux_lock(&mut locked, 8, 7).unwrap();
        let r = check_netlists(&original, &locked, &[], key.bits(), 100, 2).unwrap();
        assert!(r.is_equivalent(), "{r:?}");
        // Netlist stays acyclic.
        assert!(NetlistSimulator::new(&locked).is_ok());
    }

    #[test]
    fn mux_lock_gate_type_is_key_independent() {
        let mut locked = sample_netlist();
        let before = locked.gates().len();
        let _key = mux_lock(&mut locked, 8, 7).unwrap();
        for gate in &locked.gates()[before..] {
            assert_eq!(gate.kind, GateKind::Mux);
        }
    }

    #[test]
    fn dense_mux_locking_stays_acyclic() {
        // Chained mux insertions create new paths through decoys; a stale
        // reachability view can admit a combinational cycle. Lock a large
        // fraction of a chain-heavy netlist to exercise exactly that.
        for seed in 0..10 {
            let mut locked = sample_netlist();
            locked.sweep();
            let budget = locked.gates().len() / 2;
            let key = mux_lock(&mut locked, budget, seed).unwrap();
            let sim = NetlistSimulator::new(&locked);
            assert!(sim.is_ok(), "seed {seed} produced a cycle");
            let original = sample_netlist();
            let r = check_netlists(&original, &locked, &[], key.bits(), 30, seed).unwrap();
            assert!(r.is_equivalent(), "seed {seed}: correct key must unlock");
        }
    }

    #[test]
    fn too_many_key_bits_is_an_error() {
        let mut n = sample_netlist();
        let gates = n.gates().len();
        assert!(matches!(
            xor_xnor_lock(&mut n, gates + 1, 0),
            Err(NetlistError::Lock(_))
        ));
    }

    #[test]
    fn locking_is_deterministic_per_seed() {
        let a = {
            let mut n = sample_netlist();
            (xor_xnor_lock(&mut n, 6, 11).unwrap(), n)
        };
        let b = {
            let mut n = sample_netlist();
            (xor_xnor_lock(&mut n, 6, 11).unwrap(), n)
        };
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
