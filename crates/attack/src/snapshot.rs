//! The end-to-end SnapShot-RTL attack pipeline (Fig. 2): setup →
//! extraction → training → deployment, scored by key prediction accuracy.

use mlrl_locking::key::{Key, KeyBitKind};
use mlrl_ml::automl::{auto_fit, AutoMlConfig};
use mlrl_ml::dataset::{Dataset, OneHotEncoder};
use mlrl_rtl::Module;

use crate::extract::{extract_context_localities, extract_localities};
use crate::relock::{build_training_set_with, RelockConfig, TrainingSet};

/// Configuration of a SnapShot-RTL attack run.
#[derive(Debug, Clone, Default)]
pub struct AttackConfig {
    /// Training-set generation parameters.
    pub relock: RelockConfig,
    /// Auto-ml search parameters (the auto-sklearn stand-in).
    pub automl: AutoMlConfig,
    /// Extend locality features with the consuming-operation context
    /// (SnapShot's wider netlist window, adapted to RTL). Adds a third
    /// categorical feature; does not change the balanced-design floor.
    pub context_features: bool,
}

/// Result of one attack run against one locked target.
#[derive(Debug)]
pub struct AttackReport {
    /// Key prediction accuracy in percent over the attacked (operation)
    /// key bits. 50% is a random guess.
    pub kpa: f64,
    /// Number of target key bits attacked (operation bits with an
    /// extractable locality).
    pub attacked_bits: usize,
    /// Training samples used.
    pub training_samples: usize,
    /// Name of the auto-ml winner, the candidate that made the predictions
    /// ([`AutoMlOutcome::winner`](mlrl_ml::AutoMlOutcome::winner)).
    pub model_name: String,
    /// Cross-validation accuracy of the winner on the training set.
    pub cv_accuracy: f64,
    /// Per-bit predictions `(key_bit, predicted_value)`.
    pub predictions: Vec<(u32, bool)>,
}

/// Runs SnapShot-RTL against `target`.
///
/// `true_key` is used *only* to score the prediction (the oracle-less
/// attacker never sees it); the attack itself consumes nothing but the
/// locked design. Scoring covers the operation-obfuscation bits — the
/// paper's attack surface — i.e. exactly the bits that control an
/// extractable key multiplexer.
///
/// Returns `None` if the target exposes no localities (nothing to attack).
///
/// # Examples
///
/// ```
/// use mlrl_attack::snapshot::{snapshot_attack, AttackConfig};
/// use mlrl_attack::relock::RelockConfig;
/// use mlrl_locking::assure::{lock_operations, AssureConfig};
/// use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
///
/// let mut m = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
/// let key = lock_operations(&mut m, &AssureConfig::serial(47, 2))?;
/// let cfg = AttackConfig {
///     relock: RelockConfig { rounds: 10, ..Default::default() },
///     ..Default::default()
/// };
/// let report = snapshot_attack(&m, &key, &cfg).expect("localities exist");
/// assert_eq!(report.attacked_bits, 47);
/// assert!(report.kpa >= 0.0 && report.kpa <= 100.0);
/// # Ok::<(), mlrl_locking::LockError>(())
/// ```
pub fn snapshot_attack(
    target: &Module,
    true_key: &Key,
    cfg: &AttackConfig,
) -> Option<AttackReport> {
    // Extract before relocking: no localities means nothing to attack,
    // and training-set generation is the expensive half.
    let target_localities = extract_for(target, cfg);
    if target_localities.is_empty() {
        return None;
    }
    let training = build_training_set_with(target, &cfg.relock, cfg.context_features);
    attack_localities(target_localities, true_key, cfg, &training)
}

/// Like [`snapshot_attack`], but consuming a prebuilt training set (the
/// expensive relocking phase), e.g. one shared through `mlrl-engine`'s
/// content-addressed artifact cache.
///
/// `training` must have been built over `target` with the same
/// `cfg.context_features` flag (feature arity must match).
pub fn snapshot_attack_with_training(
    target: &Module,
    true_key: &Key,
    cfg: &AttackConfig,
    training: &TrainingSet,
) -> Option<AttackReport> {
    attack_localities(extract_for(target, cfg), true_key, cfg, training)
}

/// Deployment-side extraction: the localities of the unknown key bits,
/// in the feature shape `cfg` asks for.
fn extract_for(target: &Module, cfg: &AttackConfig) -> Vec<(u32, Vec<u32>)> {
    if cfg.context_features {
        extract_context_localities(target)
            .into_iter()
            .map(|l| (l.core.key_bit, l.features()))
            .collect()
    } else {
        extract_localities(target)
            .into_iter()
            .map(|l| (l.key_bit, l.features()))
            .collect()
    }
}

fn attack_localities(
    target_localities: Vec<(u32, Vec<u32>)>,
    true_key: &Key,
    cfg: &AttackConfig,
    training: &TrainingSet,
) -> Option<AttackReport> {
    if target_localities.is_empty() {
        return None;
    }
    if training.is_empty() {
        return None;
    }

    // Feature encoding over the union of observed codes.
    let mut vocab_rows: Vec<Vec<u32>> = training.features.clone();
    vocab_rows.extend(target_localities.iter().map(|(_, f)| f.clone()));
    let encoder = OneHotEncoder::fit(&vocab_rows);
    let x = encoder.transform_all(&training.features);
    let train = Dataset::from_rows(x, training.labels.clone()).expect("training set is consistent");

    // Training: auto-ml model search (auto-sklearn stand-in).
    let outcome = auto_fit(&train, &cfg.automl);

    // Deployment: predict the target key bits.
    let mut predictions = Vec::with_capacity(target_localities.len());
    for (key_bit, features) in &target_localities {
        let row = encoder.transform(features);
        let predicted = outcome.model.predict(&row) == 1;
        predictions.push((*key_bit, predicted));
    }

    // Scoring (evaluation only): KPA over the attacked operation bits.
    let mut correct = 0usize;
    let mut scored = 0usize;
    for &(bit, predicted) in &predictions {
        if let Some(actual) = true_key.bit(bit) {
            debug_assert_eq!(
                true_key.kind(bit),
                Some(KeyBitKind::Operation),
                "localities only exist for operation bits"
            );
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

    Some(AttackReport {
        kpa,
        attacked_bits: scored,
        training_samples: training.len(),
        model_name: outcome.winner,
        cv_accuracy: outcome.cv_accuracy,
        predictions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_locking::assure::{lock_operations, AssureConfig};
    use mlrl_locking::era::{era_lock, EraConfig};
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::visit;

    fn small_cfg(seed: u64) -> AttackConfig {
        AttackConfig {
            relock: RelockConfig {
                rounds: 20,
                budget_fraction: 0.75,
                seed,
            },
            automl: AutoMlConfig {
                max_train_samples: 3000,
                ..Default::default()
            },
            context_features: false,
        }
    }

    #[test]
    fn unlocked_target_returns_none() {
        let m = generate(&benchmark_by_name("FIR").unwrap(), 1);
        let key = Key::new();
        assert!(snapshot_attack(&m, &key, &small_cfg(0)).is_none());
    }

    #[test]
    fn attack_on_fully_imbalanced_assure_target_succeeds() {
        // N_2046 under serial ASSURE: every locality is (Add real) — the
        // attack should predict nearly all bits (paper Fig 6a, ASSURE).
        // Use a smaller Add-only network for test speed.
        let mut m = generate(&benchmark_by_name("FIR").unwrap(), 2);
        let total = visit::binary_ops(&m).len();
        let key = lock_operations(&mut m, &AssureConfig::serial(total * 3 / 4, 3)).unwrap();
        let report = snapshot_attack(&m, &key, &small_cfg(1)).unwrap();
        // FIR is 100% imbalanced (32 Mul, 31 Add, no Div/Sub): near-perfect
        // prediction.
        assert!(report.kpa > 85.0, "expected high KPA, got {}", report.kpa);
    }

    #[test]
    fn attack_on_era_target_is_chance() {
        let mut m = generate(&benchmark_by_name("FIR").unwrap(), 2);
        let total = visit::binary_ops(&m).len();
        let outcome = era_lock(&mut m, &EraConfig::new(total * 3 / 4, 3)).unwrap();
        let report = snapshot_attack(&m, &outcome.key, &small_cfg(1)).unwrap();
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
        let report = snapshot_attack(&m, &key, &small_cfg(2)).unwrap();
        assert_eq!(report.attacked_bits, 20);
        assert_eq!(report.predictions.len(), 20);
        assert!(report.training_samples > 0);
        assert!(!report.model_name.is_empty());
    }

    #[test]
    fn context_features_keep_the_era_floor() {
        // Richer features must not break Def. 1 resilience: with balanced
        // pairs the extended locality distribution is still uninformative.
        let mut kpas = Vec::new();
        for i in 0..3 {
            let mut m = generate(&benchmark_by_name("FIR").unwrap(), 40 + i);
            let total = visit::binary_ops(&m).len();
            let outcome = era_lock(&mut m, &EraConfig::new(total * 3 / 4, i)).unwrap();
            let mut cfg = small_cfg(i ^ 0x77);
            cfg.context_features = true;
            let report = snapshot_attack(&m, &outcome.key, &cfg).unwrap();
            kpas.push(report.kpa);
        }
        let mean = kpas.iter().sum::<f64>() / kpas.len() as f64;
        assert!(
            (mean - 50.0).abs() < 16.0,
            "context features must not break ERA: {mean:.1} ({kpas:?})"
        );
    }

    #[test]
    fn context_features_still_break_assure() {
        let mut m = generate(&benchmark_by_name("FIR").unwrap(), 2);
        let total = visit::binary_ops(&m).len();
        let key = lock_operations(&mut m, &AssureConfig::serial(total * 3 / 4, 3)).unwrap();
        let mut cfg = small_cfg(1);
        cfg.context_features = true;
        let report = snapshot_attack(&m, &key, &cfg).unwrap();
        assert!(report.kpa > 80.0, "got {}", report.kpa);
    }

    #[test]
    fn attack_is_deterministic() {
        let mut m = generate(&benchmark_by_name("SIM_SPI").unwrap(), 7);
        let key = lock_operations(&mut m, &AssureConfig::serial(15, 8)).unwrap();
        let a = snapshot_attack(&m, &key, &small_cfg(3)).unwrap();
        let b = snapshot_attack(&m, &key, &small_cfg(3)).unwrap();
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.kpa, b.kpa);
    }
}
