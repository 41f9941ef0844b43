//! Netlist statistics and gate-level locking overhead reports.
//!
//! The RTL crate reports operation-level cost (`mlrl_rtl::stats`); this
//! module reports the corresponding *post-synthesis* cost: gate counts by
//! cell type, logic depth, and the area/depth overhead a locking pass added.
//! Logic depth is one pass over the simulator's levelized gate order
//! ([`levelize`]), so it is defined only for acyclic netlists: on a
//! combinational cycle [`logic_depth`] and [`NetlistStats::of`] return
//! the same error the simulator does.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::Result;
use crate::ir::{GateKind, Netlist};
use crate::sim::levelize;

/// A snapshot of netlist size and shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistStats {
    /// Gate counts per cell type.
    pub gates_by_kind: BTreeMap<GateKind, usize>,
    /// Total gate count.
    pub total_gates: usize,
    /// Total nets (constants included).
    pub nets: usize,
    /// Flip-flop count.
    pub dffs: usize,
    /// Key input count.
    pub key_bits: usize,
    /// Longest combinational path, in gates.
    pub depth: usize,
}

impl NetlistStats {
    /// Measures a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`CombinationalCycle`](crate::NetlistError::CombinationalCycle)
    /// if the gates form a cycle (the logic depth is undefined).
    ///
    /// # Examples
    ///
    /// ```
    /// use mlrl_netlist::build::NetlistBuilder;
    /// use mlrl_netlist::ir::Netlist;
    /// use mlrl_netlist::stats::NetlistStats;
    ///
    /// let mut b = NetlistBuilder::new(Netlist::new("t"));
    /// let a = b.input_lane("a", 4);
    /// let c = b.input_lane("b", 4);
    /// let s = b.add(a, c);
    /// b.output_from_lane("y", s, 4);
    /// let stats = NetlistStats::of(&b.finish())?;
    /// assert!(stats.total_gates > 0);
    /// assert!(stats.depth >= 4); // ripple carry through 4 bits
    /// # Ok::<(), mlrl_netlist::error::NetlistError>(())
    /// ```
    pub fn of(netlist: &Netlist) -> Result<Self> {
        let mut gates_by_kind = BTreeMap::new();
        for g in netlist.gates() {
            *gates_by_kind.entry(g.kind).or_insert(0) += 1;
        }
        Ok(Self {
            total_gates: netlist.gates().len(),
            nets: netlist.net_count(),
            dffs: netlist.dffs().len(),
            key_bits: netlist.key_width(),
            depth: logic_depth(netlist)?,
            gates_by_kind,
        })
    }

    /// Overhead of `self` (a locked netlist) relative to `baseline`.
    pub fn overhead_vs(&self, baseline: &NetlistStats) -> GateOverhead {
        GateOverhead {
            extra_gates: self.total_gates.saturating_sub(baseline.total_gates),
            extra_depth: self.depth.saturating_sub(baseline.depth),
            key_bits: self.key_bits.saturating_sub(baseline.key_bits),
            area_factor: if baseline.total_gates == 0 {
                1.0
            } else {
                self.total_gates as f64 / baseline.total_gates as f64
            },
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} gates, {} nets, {} dffs, {} key bits, depth {}",
            self.total_gates, self.nets, self.dffs, self.key_bits, self.depth
        )?;
        for (kind, n) in &self.gates_by_kind {
            writeln!(f, "  {kind:<5} {n}")?;
        }
        Ok(())
    }
}

/// Cost a gate-level locking pass added.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOverhead {
    /// Gates added by locking.
    pub extra_gates: usize,
    /// Depth increase, in gates.
    pub extra_depth: usize,
    /// Key bits added.
    pub key_bits: usize,
    /// Locked area / baseline area.
    pub area_factor: f64,
}

impl GateOverhead {
    /// Gates added per key bit (the paper's per-bit cost measure, at gate
    /// level).
    pub fn gates_per_key_bit(&self) -> f64 {
        if self.key_bits == 0 {
            0.0
        } else {
            self.extra_gates as f64 / self.key_bits as f64
        }
    }
}

/// Longest combinational path in gates (flip-flop outputs and primary
/// inputs are depth 0): one pass over the levelized gate order.
///
/// # Errors
///
/// Returns [`CombinationalCycle`](crate::NetlistError::CombinationalCycle)
/// if the gates form a cycle.
pub fn logic_depth(netlist: &Netlist) -> Result<usize> {
    let mut depth = vec![0usize; netlist.net_count()];
    let mut max = 0;
    for gi in levelize(netlist)? {
        let g = &netlist.gates()[gi];
        let d = g.inputs.iter().map(|i| depth[i.index()]).max().unwrap_or(0) + 1;
        depth[g.output.index()] = d;
        max = max.max(d);
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::NetlistBuilder;
    use crate::error::NetlistError;
    use crate::lock::xor_xnor_lock;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new(Netlist::new("t"));
        let a = b.input_lane("a", 8);
        let c = b.input_lane("b", 8);
        let s = b.add(a, c);
        b.output_from_lane("y", s, 8);
        b.finish()
    }

    #[test]
    fn stats_count_gates_and_depth() {
        let n = sample();
        let s = NetlistStats::of(&n).unwrap();
        assert_eq!(s.total_gates, n.gates().len());
        assert!(s.depth >= 8, "ripple carry through 8 bits, got {}", s.depth);
        assert_eq!(s.dffs, 0);
        assert_eq!(s.key_bits, 0);
        let sum: usize = s.gates_by_kind.values().sum();
        assert_eq!(sum, s.total_gates);
    }

    #[test]
    fn locking_overhead_is_one_gate_per_key_bit() {
        let base = sample();
        let base_stats = NetlistStats::of(&base).unwrap();
        let mut locked = base.clone();
        xor_xnor_lock(&mut locked, 5, 1).unwrap();
        let locked_stats = NetlistStats::of(&locked).unwrap();
        let ov = locked_stats.overhead_vs(&base_stats);
        assert_eq!(ov.extra_gates, 5);
        assert_eq!(ov.key_bits, 5);
        assert!((ov.gates_per_key_bit() - 1.0).abs() < 1e-9);
        assert!(ov.area_factor > 1.0);
    }

    #[test]
    fn depth_handles_deep_chains_iteratively() {
        // 64-bit multiplier: thousands of gates, deep carry chains.
        let mut b = NetlistBuilder::new(Netlist::new("t"));
        let a = b.input_lane("a", 64);
        let c = b.input_lane("b", 64);
        let m = b.mul(a, c);
        b.output_from_lane("y", m, 64);
        let n = b.finish();
        let s = NetlistStats::of(&n).unwrap();
        assert!(s.depth > 64);
        assert!(s.total_gates > 1000);
    }

    #[test]
    fn depth_is_an_error_on_a_combinational_cycle() {
        // Two ANDs feeding each other.
        let mut n = Netlist::new("t");
        let a = n.add_input_port("a", 1)[0];
        let x = n.add_net();
        let y = n.add_net();
        n.add_gate_to(GateKind::And, vec![a, y], x);
        n.add_gate_to(GateKind::And, vec![a, x], y);
        n.add_output_port("y", vec![y]);
        assert!(matches!(
            logic_depth(&n),
            Err(NetlistError::CombinationalCycle(_))
        ));
        assert!(matches!(
            NetlistStats::of(&n),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn display_is_nonempty() {
        let s = NetlistStats::of(&sample()).unwrap();
        let text = s.to_string();
        assert!(text.contains("gates"));
        assert!(text.contains("depth"));
    }
}
