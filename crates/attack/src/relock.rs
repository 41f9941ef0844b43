//! Training-set assembly by self-referencing relocking (Fig. 2, "Setup" +
//! "Extraction" on the training side).
//!
//! SnapShot has no oracle; it manufactures labelled data by *relocking* the
//! target design with fresh keys it chooses itself (§2.2, §5). Every relock
//! round clones the locked target, applies one round of random-selection
//! ASSURE operation locking ("so that all parts of the design were used for
//! learning"), extracts the localities of the *new* key bits — whose values
//! the attacker knows — and adds them to the training set.

use mlrl_locking::assure::{lock_operations, AssureConfig};
use mlrl_rtl::{visit, Module};

use crate::extract::extract_localities;

/// Configuration of training-set generation.
#[derive(Debug, Clone)]
pub struct RelockConfig {
    /// Number of relock rounds (the paper uses 1 000; 100–200 converges
    /// for these feature spaces).
    pub rounds: usize,
    /// Training key budget as a fraction of the design's lockable
    /// operations (the paper uses 0.75).
    pub budget_fraction: f64,
    /// Base RNG seed; round `r` uses `seed + r`.
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
/// the attacker does not know).
///
/// # Panics
///
/// Panics if `cfg.budget_fraction` is not positive.
pub fn build_training_set(target: &Module, cfg: &RelockConfig) -> TrainingSet {
    assert!(
        cfg.budget_fraction > 0.0,
        "budget_fraction must be positive"
    );
    let base_bits = target.key_width();
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for round in 0..cfg.rounds {
        let mut clone = target.clone();
        let lockable = visit::binary_ops(&clone).len();
        let budget = ((lockable as f64) * cfg.budget_fraction).round().max(1.0) as usize;
        let round_seed = cfg
            .seed
            .wrapping_add(round as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let key = match lock_operations(&mut clone, &AssureConfig::random(budget, round_seed)) {
            Ok(k) => k,
            Err(_) => continue, // nothing lockable: skip round
        };
        for loc in extract_localities(&clone) {
            // Only the bits added this round have known values.
            if loc.key_bit >= base_bits {
                let value = key
                    .bit(loc.key_bit - base_bits)
                    .expect("relock key covers its own bits");
                features.push(loc.features());
                labels.push(usize::from(value));
            }
        }
    }
    TrainingSet { features, labels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};

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
