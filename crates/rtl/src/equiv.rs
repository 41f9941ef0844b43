//! Random-simulation equivalence checking.
//!
//! A miter-style probe used throughout the test suite: two modules are
//! driven with the same random input patterns (and their own key values)
//! and compared on every shared output port, including across clock ticks
//! for sequential designs. Random simulation cannot *prove* equivalence,
//! but for locking verification it is the right tool: a wrong key bit
//! flips a multiplexer whose effect random patterns expose quickly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ast::{Module, PortDir};
use crate::error::Result;
use crate::sim::Simulator;

/// Configuration for [`check_equiv`].
#[derive(Debug, Clone)]
pub struct EquivConfig {
    /// Random input patterns per clock phase.
    pub patterns: usize,
    /// Clock ticks applied after each pattern (0 for pure combinational).
    pub ticks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EquivConfig {
    fn default() -> Self {
        Self {
            patterns: 32,
            ticks: 2,
            seed: 0,
        }
    }
}

/// Outcome of an equivalence probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// No mismatch found over the configured patterns.
    Equivalent {
        /// Patterns exercised.
        patterns: usize,
    },
    /// A counterexample was found.
    Mismatch {
        /// Index of the failing pattern.
        pattern: usize,
        /// Output port that differed.
        output: String,
        /// Value in the first module.
        left: u64,
        /// Value in the second module.
        right: u64,
    },
}

impl EquivResult {
    /// Whether the probe found no mismatch.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent { .. })
    }
}

/// Compares `left` (with `left_key`) against `right` (with `right_key`)
/// on all shared output ports under random stimulus.
///
/// # Errors
///
/// Propagates simulator errors (combinational cycles, key too short, ...).
pub fn check_equiv(
    left: &Module,
    right: &Module,
    left_key: &[bool],
    right_key: &[bool],
    cfg: &EquivConfig,
) -> Result<EquivResult> {
    let inputs: Vec<String> = left
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Input && p.name != "clk")
        .map(|p| p.name.clone())
        .filter(|n| right.signal_width(n).is_some())
        .collect();
    let outputs: Vec<String> = left
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Output)
        .map(|p| p.name.clone())
        .filter(|n| right.signal_width(n).is_some())
        .collect();

    // One row per pattern, drawn pattern-major. Both simulators are one
    // lane wide, so registers carry from each pattern into the next.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let stimulus: Vec<Vec<u64>> = (0..cfg.patterns)
        .map(|_| inputs.iter().map(|_| rng.gen()).collect())
        .collect();
    let mut sim_l = Simulator::new(left)?;
    let mut sim_r = Simulator::new(right)?;
    sim_l.set_key(left_key)?;
    sim_r.set_key(right_key)?;
    let reads_l = sim_l.drive(&inputs, &stimulus, &outputs, cfg.ticks)?;
    let reads_r = sim_r.drive(&inputs, &stimulus, &outputs, cfg.ticks)?;
    for (i, (&l, &r)) in reads_l.iter().zip(&reads_r).enumerate() {
        if l != r {
            return Ok(EquivResult::Mismatch {
                pattern: i / outputs.len(),
                output: outputs[i % outputs.len()].clone(),
                left: l,
                right: r,
            });
        }
    }
    Ok(EquivResult::Equivalent {
        patterns: cfg.patterns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::bench_designs::{benchmark_by_name, generate};
    use crate::op::BinaryOp;

    #[test]
    fn identical_modules_are_equivalent() {
        let m = generate(&benchmark_by_name("IIR").unwrap(), 1);
        let r = check_equiv(&m, &m.clone(), &[], &[], &EquivConfig::default()).unwrap();
        assert!(r.is_equivalent());
    }

    #[test]
    fn locked_module_equivalent_under_correct_key() {
        let original = generate(&benchmark_by_name("FIR").unwrap(), 2);
        let mut locked = original.clone();
        let site = crate::visit::binary_ops(&locked)[5];
        let dummy = if site.op == BinaryOp::Mul {
            BinaryOp::Div
        } else {
            BinaryOp::Sub
        };
        let (bit, _) = locked.wrap_in_key_mux(site.id, true, dummy).unwrap();
        assert_eq!(bit, 0);
        let r = check_equiv(&original, &locked, &[], &[true], &EquivConfig::default()).unwrap();
        assert!(r.is_equivalent());
    }

    #[test]
    fn wrong_key_produces_counterexample() {
        let original = generate(&benchmark_by_name("FIR").unwrap(), 2);
        let mut locked = original.clone();
        let site = crate::visit::binary_ops(&locked)[5];
        let dummy = if site.op == BinaryOp::Mul {
            BinaryOp::Div
        } else {
            BinaryOp::Sub
        };
        locked.wrap_in_key_mux(site.id, true, dummy).unwrap();
        let r = check_equiv(&original, &locked, &[], &[false], &EquivConfig::default()).unwrap();
        match r {
            EquivResult::Mismatch {
                output,
                left,
                right,
                ..
            } => {
                assert_ne!(left, right);
                assert!(!output.is_empty());
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn structurally_different_equivalent_designs_pass() {
        // y = a + a  vs  y = a << 1 (wait: << adds a const; use a * 2).
        let build = |mul: bool| {
            let mut m = Module::new("t");
            m.add_input("a", 32).unwrap();
            m.add_output("y", 32).unwrap();
            let a = m.alloc_expr(Expr::Ident("a".into()));
            let root = if mul {
                let two = m.alloc_expr(Expr::Const {
                    value: 2,
                    width: None,
                });
                m.alloc_expr(Expr::Binary {
                    op: BinaryOp::Mul,
                    lhs: a,
                    rhs: two,
                })
            } else {
                let a2 = m.alloc_expr(Expr::Ident("a".into()));
                m.alloc_expr(Expr::Binary {
                    op: BinaryOp::Add,
                    lhs: a,
                    rhs: a2,
                })
            };
            m.add_assign("y", root).unwrap();
            m
        };
        let r = check_equiv(
            &build(true),
            &build(false),
            &[],
            &[],
            &EquivConfig::default(),
        )
        .unwrap();
        assert!(r.is_equivalent());
    }

    #[test]
    fn sequential_designs_compared_across_ticks() {
        let m = generate(&benchmark_by_name("SASC").unwrap(), 5);
        let cfg = EquivConfig {
            patterns: 8,
            ticks: 3,
            seed: 1,
        };
        let r = check_equiv(&m, &m.clone(), &[], &[], &cfg).unwrap();
        assert!(r.is_equivalent());
    }
}
