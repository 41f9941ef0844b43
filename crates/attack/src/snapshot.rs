//! The end-to-end SnapShot-RTL attack pipeline (Fig. 2): setup →
//! extraction → training → deployment, scored by key prediction accuracy.
//!
//! This module also holds what every attack in the crate shares: the one
//! [`AttackReport`], the ML core that both SnapShot levels run
//! ([`crate::gate_snapshot`] for the netlist side), and the scorer.

use std::collections::HashMap;

use mlrl_locking::key::Key;
use mlrl_ml::automl::{auto_fit, AutoMlConfig};
use mlrl_ml::dataset::{Dataset, OneHotEncoder};
use mlrl_rtl::Module;

use crate::extract::extract_localities;
use crate::relock::TrainingSet;

/// Result of one attack run against one locked target, at either level.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// Key prediction accuracy in percent over the attacked key bits.
    /// 50% is a random guess.
    pub kpa: f64,
    /// Number of target key bits attacked: predicted bits the true key
    /// can score.
    pub attacked_bits: usize,
    /// Training samples used.
    pub training_samples: usize,
    /// The model that made the predictions: the auto-ml winner
    /// ([`AutoMlOutcome::winner`](mlrl_ml::AutoMlOutcome::winner)), or
    /// `"freq-table"` for the frequency-table attacks.
    pub model_name: String,
    /// Cross-validation accuracy of the auto-ml winner on the training
    /// set; `None` for the frequency-table attacks, which fit nothing.
    pub cv_accuracy: Option<f64>,
    /// Per-bit predictions `(key_bit, predicted_value)`, one per target
    /// locality in extraction order.
    pub predictions: Vec<(u32, bool)>,
}

impl AttackReport {
    /// The scorer every attack shares: KPA over the predictions whose bit
    /// `truth` knows (evaluation only; the attacker never sees the key).
    pub(crate) fn score(
        predictions: Vec<(u32, bool)>,
        truth: impl Fn(u32) -> Option<bool>,
        training_samples: usize,
        model_name: String,
        cv_accuracy: Option<f64>,
    ) -> Self {
        let mut correct = 0usize;
        let mut scored = 0usize;
        for &(bit, predicted) in &predictions {
            if let Some(actual) = truth(bit) {
                scored += 1;
                if predicted == actual {
                    correct += 1;
                }
            }
        }
        let kpa = if scored == 0 {
            0.0
        } else {
            100.0 * correct as f64 / scored as f64
        };
        Self {
            kpa,
            attacked_bits: scored,
            training_samples,
            model_name,
            cv_accuracy,
            predictions,
        }
    }
}

/// The ML core both SnapShot levels share: fit a one-hot encoder over the
/// training rows plus the target rows (that vocabulary decides the
/// columns), train the auto-ml stack on the encoded training set, predict
/// every target `(key_bit, features)`, and score with `truth`.
///
/// Callers check their own `None` conditions first; `training` must be
/// non-empty.
pub(crate) fn ml_attack(
    targets: &[(u32, Vec<u32>)],
    training: &TrainingSet,
    automl: &AutoMlConfig,
    truth: impl Fn(u32) -> Option<bool>,
) -> AttackReport {
    let (encoder, train) = encode(targets, training);

    // Training: auto-ml model search (auto-sklearn stand-in).
    let outcome = auto_fit(&train, automl);

    // Deployment: predict the target key bits.
    let predictions = targets
        .iter()
        .map(|(bit, f)| (*bit, outcome.model.predict(&encoder.transform(f)) == 1))
        .collect();
    AttackReport::score(
        predictions,
        truth,
        training.len(),
        outcome.winner,
        Some(outcome.cv_accuracy),
    )
}

/// Interns the training rows in order of first appearance and one-hot
/// encodes only the distinct ones. The encoder is fitted on the distinct
/// rows plus the target rows, the same vocabulary as all rows plus the
/// targets.
fn encode(targets: &[(u32, Vec<u32>)], training: &TrainingSet) -> (OneHotEncoder, Dataset) {
    let mut distinct: Vec<Vec<u32>> = Vec::new();
    let mut seen: HashMap<&[u32], usize> = HashMap::new();
    let index: Vec<usize> = training
        .features
        .iter()
        .map(|row| {
            *seen.entry(row).or_insert_with(|| {
                distinct.push(row.clone());
                distinct.len() - 1
            })
        })
        .collect();
    let mut vocab = distinct.clone();
    vocab.extend(targets.iter().map(|(_, f)| f.clone()));
    let encoder = OneHotEncoder::fit(&vocab);
    let train = Dataset::from_interned(
        encoder.transform_all(&distinct),
        index,
        training.labels.clone(),
    )
    .expect("training set is consistent");
    (encoder, train)
}

/// Runs SnapShot-RTL against `target`, trained on `training` (the
/// expensive relocking phase: build it with
/// [`build_training_set`](crate::relock::build_training_set), or share one
/// through `mlrl-engine`'s content-addressed artifact cache).
///
/// `true_key` is used *only* to score the prediction (the oracle-less
/// attacker never sees it); the attack itself consumes nothing but the
/// locked design. Scoring covers the operation-obfuscation bits — the
/// paper's attack surface — i.e. exactly the bits that control an
/// extractable key multiplexer.
///
/// Returns `None` if the target exposes no localities (nothing to attack)
/// or `training` is empty.
///
/// # Examples
///
/// ```
/// use mlrl_attack::relock::{build_training_set, RelockConfig};
/// use mlrl_attack::snapshot::snapshot_attack;
/// use mlrl_locking::assure::{lock_operations, AssureConfig};
/// use mlrl_ml::AutoMlConfig;
/// use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
///
/// let mut m = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
/// let key = lock_operations(&mut m, &AssureConfig::serial(47, 2))?;
/// let training = build_training_set(&m, &RelockConfig { rounds: 10, ..Default::default() });
/// let report = snapshot_attack(&m, &key, &training, &AutoMlConfig::default())
///     .expect("localities exist");
/// assert_eq!(report.attacked_bits, 47);
/// assert!(report.kpa >= 0.0 && report.kpa <= 100.0);
/// # Ok::<(), mlrl_locking::LockError>(())
/// ```
pub fn snapshot_attack(
    target: &Module,
    true_key: &Key,
    training: &TrainingSet,
    automl: &AutoMlConfig,
) -> Option<AttackReport> {
    let targets: Vec<(u32, Vec<u32>)> = extract_localities(target)
        .into_iter()
        .map(|l| (l.key_bit, l.features()))
        .collect();
    if targets.is_empty() || training.is_empty() {
        return None;
    }
    Some(ml_attack(&targets, training, automl, |bit| {
        true_key.bit(bit)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relock::{build_training_set, RelockConfig};
    use mlrl_locking::assure::{lock_operations, AssureConfig};
    use mlrl_locking::era::{era_lock, EraConfig};
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::visit;

    fn attack(m: &Module, key: &Key, seed: u64) -> Option<AttackReport> {
        let relock = RelockConfig {
            rounds: 20,
            budget_fraction: 0.75,
            seed,
        };
        let automl = AutoMlConfig {
            max_train_samples: 3000,
            ..Default::default()
        };
        snapshot_attack(m, key, &build_training_set(m, &relock), &automl)
    }

    #[test]
    fn unlocked_target_returns_none() {
        let m = generate(&benchmark_by_name("FIR").unwrap(), 1);
        let key = Key::new();
        assert!(attack(&m, &key, 0).is_none());
    }

    #[test]
    fn empty_training_set_returns_none() {
        let mut m = generate(&benchmark_by_name("SASC").unwrap(), 5);
        let key = lock_operations(&mut m, &AssureConfig::serial(20, 6)).unwrap();
        let empty = TrainingSet {
            features: Vec::new(),
            labels: Vec::new(),
        };
        assert!(snapshot_attack(&m, &key, &empty, &AutoMlConfig::default()).is_none());
    }

    #[test]
    fn attack_on_fully_imbalanced_assure_target_succeeds() {
        // N_2046 under serial ASSURE: every locality is (Add real) — the
        // attack should predict nearly all bits (paper Fig 6a, ASSURE).
        // Use a smaller Add-only network for test speed.
        let mut m = generate(&benchmark_by_name("FIR").unwrap(), 2);
        let total = visit::binary_ops(&m).len();
        let key = lock_operations(&mut m, &AssureConfig::serial(total * 3 / 4, 3)).unwrap();
        let report = attack(&m, &key, 1).unwrap();
        // FIR is 100% imbalanced (32 Mul, 31 Add, no Div/Sub): near-perfect
        // prediction.
        assert!(report.kpa > 85.0, "expected high KPA, got {}", report.kpa);
    }

    #[test]
    fn attack_on_era_target_is_chance() {
        let mut m = generate(&benchmark_by_name("FIR").unwrap(), 2);
        let total = visit::binary_ops(&m).len();
        let outcome = era_lock(&mut m, &EraConfig::new(total * 3 / 4, 3)).unwrap();
        let report = attack(&m, &outcome.key, 1).unwrap();
        assert!(
            (report.kpa - 50.0).abs() < 15.0,
            "ERA should hold the attack near 50%, got {}",
            report.kpa
        );
    }

    #[test]
    fn report_covers_every_operation_bit() {
        let mut m = generate(&benchmark_by_name("SASC").unwrap(), 5);
        let key = lock_operations(&mut m, &AssureConfig::serial(20, 6)).unwrap();
        let report = attack(&m, &key, 2).unwrap();
        assert_eq!(report.attacked_bits, 20);
        assert_eq!(report.predictions.len(), 20);
        assert!(report.training_samples > 0);
        assert!(!report.model_name.is_empty());
        assert!(report.cv_accuracy.is_some());
    }

    #[test]
    fn scorer_counts_only_bits_the_truth_knows() {
        let predictions = vec![(0, true), (1, false), (2, true), (7, false)];
        let truth = |bit: u32| [true, true, true].get(bit as usize).copied();
        let report = AttackReport::score(predictions, truth, 9, "m".to_owned(), None);
        assert_eq!(report.attacked_bits, 3);
        assert_eq!(report.kpa, 100.0 * 2.0 / 3.0);
        assert_eq!(report.predictions.len(), 4);
        let none = AttackReport::score(vec![(5, true)], truth, 0, "m".to_owned(), None);
        assert_eq!((none.attacked_bits, none.kpa), (0, 0.0));
    }

    /// The encoding `ml_attack` made before interning: every training row
    /// encoded and stored on its own.
    fn encode_every_row(
        targets: &[(u32, Vec<u32>)],
        training: &TrainingSet,
    ) -> (OneHotEncoder, Dataset) {
        let mut vocab = training.features.clone();
        vocab.extend(targets.iter().map(|(_, f)| f.clone()));
        let encoder = OneHotEncoder::fit(&vocab);
        let x = encoder.transform_all(&training.features);
        let train = Dataset::from_rows(x, training.labels.clone()).unwrap();
        (encoder, train)
    }

    #[test]
    fn interned_encoding_leaves_the_auto_ml_outcome_unchanged() {
        use mlrl_locking::{key_budget, lock, LockScheme};
        for scheme in [LockScheme::Assure, LockScheme::Hra, LockScheme::Era] {
            for (name, seed) in [("FIR", 2), ("SASC", 5)] {
                let label = format!("{name}/{scheme:?}");
                let mut m = generate(&benchmark_by_name(name).unwrap(), seed);
                let bits = key_budget(&m, 0.75).unwrap();
                lock(&mut m, scheme, bits, seed).unwrap();
                let relock = RelockConfig {
                    rounds: 10,
                    budget_fraction: 0.75,
                    seed,
                };
                let training = build_training_set(&m, &relock);
                let targets: Vec<(u32, Vec<u32>)> = extract_localities(&m)
                    .into_iter()
                    .map(|l| (l.key_bit, l.features()))
                    .collect();
                let (old_encoder, old) = encode_every_row(&targets, &training);
                let (new_encoder, new) = encode(&targets, &training);
                assert_eq!(old_encoder, new_encoder, "{label}");
                assert_eq!(old, new, "{label}");
                let automl = AutoMlConfig {
                    max_train_samples: 3000,
                    seed,
                    ..Default::default()
                };
                let (a, b) = (auto_fit(&old, &automl), auto_fit(&new, &automl));
                assert_eq!(a.winner, b.winner, "{label}");
                assert_eq!(a.cv_accuracy.to_bits(), b.cv_accuracy.to_bits(), "{label}");
                let board = |o: &mlrl_ml::AutoMlOutcome| -> Vec<(String, u64)> {
                    o.leaderboard
                        .iter()
                        .map(|(n, s)| (n.clone(), s.to_bits()))
                        .collect()
                };
                assert_eq!(board(&a), board(&b), "{label}");
                assert_eq!(a.bayes_bound.to_bits(), b.bayes_bound.to_bits(), "{label}");
                assert_eq!(a.distinct_rows, b.distinct_rows, "{label}");
                assert_eq!(a.pruned, b.pruned, "{label}");
                for (_, f) in &targets {
                    let row = old_encoder.transform(f);
                    assert_eq!(a.model.predict(&row), b.model.predict(&row), "{label}");
                }
            }
        }
    }

    #[test]
    fn attack_is_deterministic() {
        let mut m = generate(&benchmark_by_name("SIM_SPI").unwrap(), 7);
        let key = lock_operations(&mut m, &AssureConfig::serial(15, 8)).unwrap();
        let a = attack(&m, &key, 3).unwrap();
        let b = attack(&m, &key, 3).unwrap();
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.kpa, b.kpa);
    }
}
