//! Frequency-table attack — a non-ML statistical baseline.
//!
//! The SnapShot feature space at RTL is tiny (two operator codes), so the
//! Bayes-optimal classifier is just the per-pair majority label of the
//! relocked training set. This baseline makes the paper's point sharper:
//! the defence cannot rely on the attacker's model being weak, because the
//! optimal "model" is a counting table. The auto-ml pipeline
//! ([`crate::snapshot`]) converges to the same decisions; this one gets
//! there without training.

use std::collections::HashMap;

use mlrl_locking::key::Key;
use mlrl_rtl::Module;

use crate::extract::extract_localities;
use crate::relock::TrainingSet;
use crate::snapshot::AttackReport;

/// `locality → (label-0 count, label-1 count)` over `training`: the whole
/// "model" of a frequency-table attack, at either level.
pub(crate) fn label_counts(training: &TrainingSet) -> HashMap<&[u32], (usize, usize)> {
    let mut table: HashMap<&[u32], (usize, usize)> = HashMap::new();
    for (f, &label) in training.features.iter().zip(&training.labels) {
        let slot = table.entry(f.as_slice()).or_default();
        if label == 1 {
            slot.1 += 1;
        } else {
            slot.0 += 1;
        }
    }
    table
}

/// Runs the frequency-table attack against `target`, counting over
/// `training` (scored with `true_key`, which the attacker never sees).
///
/// Each key bit gets the majority label of its `(C1, C2)` pair in
/// training. An unseen pair or a tie falls back to the training set's
/// global majority label, and a global tie to 1. The gate-level table
/// ([`gate_freq_table_attack`](crate::gate_snapshot::gate_freq_table_attack))
/// falls back to 0 instead; the campaign golden pins both rules, so they
/// stay different.
///
/// Returns `None` when the target exposes no localities or `training` is
/// empty.
pub fn freq_table_attack(
    target: &Module,
    true_key: &Key,
    training: &TrainingSet,
) -> Option<AttackReport> {
    let localities = extract_localities(target);
    if localities.is_empty() || training.is_empty() {
        return None;
    }
    let table = label_counts(training);
    let global = table
        .values()
        .fold((0, 0), |(g0, g1), &(n0, n1)| (g0 + n0, g1 + n1));
    let predictions = localities
        .iter()
        .map(|loc| {
            let (n0, n1) = table.get(&[loc.c1, loc.c2][..]).copied().unwrap_or(global);
            let predicted = if n1 == n0 {
                global.1 >= global.0
            } else {
                n1 > n0
            };
            (loc.key_bit, predicted)
        })
        .collect();
    Some(AttackReport::score(
        predictions,
        |bit| true_key.bit(bit),
        training.len(),
        "freq-table".to_owned(),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relock::{build_training_set, RelockConfig};
    use mlrl_locking::assure::{lock_operations, AssureConfig};
    use mlrl_locking::era::{era_lock, EraConfig};
    use mlrl_locking::key::KeyBitKind;
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
    use mlrl_rtl::op::BinaryOp;
    use mlrl_rtl::parser::parse_verilog;
    use mlrl_rtl::visit;

    fn training(m: &Module, seed: u64) -> TrainingSet {
        let relock = RelockConfig {
            rounds: 25,
            budget_fraction: 0.75,
            seed,
        };
        build_training_set(m, &relock)
    }

    fn attack(m: &Module, key: &Key, seed: u64) -> Option<AttackReport> {
        freq_table_attack(m, key, &training(m, seed))
    }

    #[test]
    fn breaks_imbalanced_assure_like_the_ml_attack() {
        let mut m = generate(&benchmark_by_name("FIR").unwrap(), 5);
        let total = visit::binary_ops(&m).len();
        let key = lock_operations(&mut m, &AssureConfig::serial(total * 3 / 4, 6)).unwrap();
        let report = attack(&m, &key, 7).unwrap();
        assert!(
            report.kpa > 90.0,
            "counting table should break FIR, got {}",
            report.kpa
        );
        assert_eq!(report.attacked_bits, key.len());
        assert_eq!(report.model_name, "freq-table");
        assert_eq!(report.cv_accuracy, None);
    }

    #[test]
    fn stays_at_chance_against_era() {
        let mut kpas = Vec::new();
        for i in 0..4 {
            let mut m = generate(&benchmark_by_name("FIR").unwrap(), 100 + i);
            let total = visit::binary_ops(&m).len();
            let outcome = era_lock(&mut m, &EraConfig::new(total * 3 / 4, i)).unwrap();
            let report = attack(&m, &outcome.key, i ^ 0xAB).unwrap();
            kpas.push(report.kpa);
        }
        let mean = kpas.iter().sum::<f64>() / kpas.len() as f64;
        assert!(
            (mean - 50.0).abs() < 15.0,
            "ERA should hold ~50%, got {mean:.1} ({kpas:?})"
        );
    }

    #[test]
    fn unlocked_target_returns_none() {
        let m = generate(&benchmark_by_name("IIR").unwrap(), 1);
        assert!(attack(&m, &Key::new(), 1).is_none());
    }

    #[test]
    fn label_counts_cover_every_training_row() {
        let mut m = generate(&benchmark_by_name("SASC").unwrap(), 2);
        lock_operations(&mut m, &AssureConfig::serial(15, 3)).unwrap();
        let training = training(&m, 4);
        let table = label_counts(&training);
        assert!(!table.is_empty());
        let total: usize = table.values().map(|(a, b)| a + b).sum();
        assert_eq!(total, training.len());
    }

    #[test]
    fn unseen_pairs_and_ties_fall_back_to_the_global_majority() {
        // One key-controlled (Add, Sub) pair; the training rows decide.
        let m = parse_verilog(
            "module t(K, a, b, y);\n input [0:0] K;\n input [7:0] a, b;\n output [7:0] y;\n assign y = K[0] ? a + b : a - b;\nendmodule",
        )
        .unwrap();
        let mut key = Key::new();
        key.push(true, KeyBitKind::Operation);
        let (add, sub, mul) = (
            BinaryOp::Add.code(),
            BinaryOp::Sub.code(),
            BinaryOp::Mul.code(),
        );
        let predict = |rows: &[([u32; 2], usize)]| {
            let training = TrainingSet {
                features: rows.iter().map(|(f, _)| f.to_vec()).collect(),
                labels: rows.iter().map(|&(_, l)| l).collect(),
            };
            freq_table_attack(&m, &key, &training).unwrap().predictions[0].1
        };
        // The pair's own majority wins over the global one.
        assert!(predict(&[
            ([add, sub], 1),
            ([mul, add], 0),
            ([mul, add], 0)
        ]));
        // An unseen pair takes the global majority.
        assert!(predict(&[
            ([mul, add], 1),
            ([mul, add], 1),
            ([add, mul], 0)
        ]));
        assert!(!predict(&[
            ([mul, add], 0),
            ([mul, add], 0),
            ([add, mul], 1)
        ]));
        // A tied pair takes the global majority; a global tie gives 1.
        assert!(!predict(&[
            ([add, sub], 0),
            ([add, sub], 1),
            ([mul, add], 0)
        ]));
        assert!(predict(&[([add, sub], 0), ([add, sub], 1)]));
    }
}
