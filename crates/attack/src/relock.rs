//! Training-set assembly by self-referencing relocking (Fig. 2, "Setup" +
//! "Extraction" on the training side).
//!
//! SnapShot has no oracle; it manufactures labelled data by *relocking* the
//! target design with fresh keys it chooses itself (§2.2, §5). Each relock
//! round applies one round of random-selection ASSURE operation locking to
//! the target ("so that all parts of the design were used for learning"),
//! extracts the localities of the *new* key bits — whose values the
//! attacker knows — and adds them to the training set.
//!
//! # Planned rounds
//!
//! A round's rows follow from the target's site list alone, so no round
//! clones, mutates or walks the target:
//!
//! - Under the fixed pair table every binary operation is lockable, and the
//!   budget is at most the site list (`budget_fraction <= 1`), so
//!   [`lock_operations`](mlrl_locking::assure::lock_operations) would make
//!   exactly one pass over [`lockable_sites`]. [`plan_pass`] makes that
//!   pass's draws (shuffle, then one key bit per picked site) without the
//!   wraps.
//! - A wrapped site becomes a key-controlled ternary at the same
//!   `ExprId`, which the extraction walk visits where it visited the
//!   operation: the walk order of the target's nodes does not change.
//! - The ternary's branches are fresh binary nodes, the real operation and
//!   its dummy, so the new locality is `[code(then), code(else)]` and its
//!   label is the wrap's key bit.
//! - Only the new bits are kept, so a round's rows are its picks in
//!   site-list order.
//!
//! `relock_rounds_match_the_lock_then_extract_oracle` in
//! `tests/relock_oracle.rs` checks this round by round against cloning,
//! locking and extracting.

use mlrl_locking::assure::{lockable_sites, plan_pass, Selection};
use mlrl_locking::{key_budget, PairTable};
use mlrl_rtl::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of training-set generation.
#[derive(Debug, Clone)]
pub struct RelockConfig {
    /// Number of relock rounds (the paper uses 1 000; 100–200 converges
    /// for these feature spaces).
    pub rounds: usize,
    /// Training key budget as a fraction of the design's lockable
    /// operations (the paper uses 0.75).
    pub budget_fraction: f64,
    /// Base RNG seed; round `r` locks with seed
    /// `(seed + r) · 0x9e3779b97f4a7c15` (wrapping).
    pub seed: u64,
}

impl Default for RelockConfig {
    fn default() -> Self {
        Self {
            rounds: 200,
            budget_fraction: 0.75,
            seed: 0,
        }
    }
}

/// A labelled training set of locality feature rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainingSet {
    /// Categorical feature rows: `[C1, C2]` at RTL, a
    /// [`GateLocality`](crate::gate_snapshot::GateLocality) vector at gate
    /// level.
    pub features: Vec<Vec<u32>>,
    /// Key-bit labels (0 or 1).
    pub labels: Vec<usize>,
}

impl TrainingSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

/// Builds the SnapShot training set for `target` (a locked design whose key
/// the attacker does not know): `cfg.rounds` planned relock rounds (see the
/// module docs), each spending `key_budget(target, cfg.budget_fraction)`
/// bits.
///
/// # Panics
///
/// Panics if `cfg.budget_fraction` is not in `(0, 1]`. Above 1 a round
/// would need a second pass over the relocked design.
pub fn build_training_set(target: &Module, cfg: &RelockConfig) -> TrainingSet {
    assert!(
        cfg.budget_fraction > 0.0 && cfg.budget_fraction <= 1.0,
        "budget_fraction must be in (0, 1]"
    );
    let mut features = Vec::new();
    let mut labels = Vec::new();
    let Some(budget) = key_budget(target, cfg.budget_fraction) else {
        return TrainingSet { features, labels }; // nothing lockable
    };
    let table = PairTable::fixed();
    let sites = lockable_sites(target, &table);
    for round in 0..cfg.rounds {
        let seed = cfg
            .seed
            .wrapping_add(round as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wraps = plan_pass(&sites, Selection::Random, &table, budget, &mut rng)
            .expect("the fixed pair table locks every operation");
        wraps.sort_unstable_by_key(|w| w.site);
        for w in wraps {
            let (real, dummy) = (sites[w.site].op.code(), w.dummy.code());
            features.push(if w.key_value {
                vec![real, dummy]
            } else {
                vec![dummy, real]
            });
            labels.push(usize::from(w.key_value));
        }
    }
    TrainingSet { features, labels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_locking::assure::{lock_operations, AssureConfig};
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::visit;

    fn locked_target(name: &str, seed: u64) -> Module {
        let mut m = generate(&benchmark_by_name(name).unwrap(), seed);
        let total = visit::binary_ops(&m).len();
        lock_operations(&mut m, &AssureConfig::serial(total * 3 / 4, seed)).unwrap();
        m
    }

    #[test]
    fn training_set_covers_only_new_bits() {
        let target = locked_target("FIR", 1);
        let cfg = RelockConfig {
            rounds: 3,
            budget_fraction: 0.5,
            seed: 9,
        };
        let ts = build_training_set(&target, &cfg);
        assert!(!ts.is_empty());
        // 3 rounds × ~0.5 × lockable ops of the locked design.
        let lockable = visit::binary_ops(&target).len();
        let per_round = (lockable as f64 * 0.5).round() as usize;
        assert_eq!(ts.len(), 3 * per_round);
        assert!(ts.labels.iter().all(|&l| l <= 1));
    }

    #[test]
    #[should_panic(expected = "budget_fraction must be in (0, 1]")]
    fn budget_fraction_above_one_is_rejected() {
        let target = locked_target("FIR", 1);
        let cfg = RelockConfig {
            rounds: 1,
            budget_fraction: 1.01,
            seed: 0,
        };
        let _ = build_training_set(&target, &cfg);
    }

    #[test]
    fn unlocked_target_still_trains() {
        // Attacking an unlocked design: relocking provides data anyway.
        let target = generate(&benchmark_by_name("IIR").unwrap(), 2);
        let ts = build_training_set(
            &target,
            &RelockConfig {
                rounds: 2,
                ..Default::default()
            },
        );
        assert!(!ts.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let target = locked_target("SASC", 3);
        let cfg = RelockConfig {
            rounds: 2,
            budget_fraction: 0.75,
            seed: 4,
        };
        assert_eq!(
            build_training_set(&target, &cfg),
            build_training_set(&target, &cfg)
        );
    }

    #[test]
    fn rounds_scale_samples_linearly() {
        let target = locked_target("SIM_SPI", 5);
        let one = build_training_set(
            &target,
            &RelockConfig {
                rounds: 1,
                budget_fraction: 0.75,
                seed: 6,
            },
        );
        let four = build_training_set(
            &target,
            &RelockConfig {
                rounds: 4,
                budget_fraction: 0.75,
                seed: 6,
            },
        );
        assert_eq!(four.len(), 4 * one.len());
    }

    #[test]
    fn n2046_training_labels_are_biased_toward_add_real() {
        // On the fully imbalanced + network locked by ASSURE, most relocked
        // ops are + (real): the (Add,Sub) locality majority-label leaks.
        let target = locked_target("N_2046", 7);
        let ts = build_training_set(
            &target,
            &RelockConfig {
                rounds: 1,
                budget_fraction: 0.3,
                seed: 8,
            },
        );
        use mlrl_rtl::op::BinaryOp;
        let add = BinaryOp::Add.code();
        let sub = BinaryOp::Sub.code();
        let mut add_real = 0usize;
        let mut sub_real = 0usize;
        for (f, &l) in ts.features.iter().zip(&ts.labels) {
            // label 1 => true branch real; feature [c1,c2] = [then, else]
            let real = if l == 1 { f[0] } else { f[1] };
            if real == add {
                add_real += 1;
            } else if real == sub {
                sub_real += 1;
            }
        }
        assert!(
            add_real > sub_real,
            "expected Add-real majority: {add_real} vs {sub_real}"
        );
    }
}
