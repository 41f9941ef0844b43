//! Validates the closed-form KPA model against the measured SnapShot-RTL
//! attack: the paper's §3 theory (learning resilience is a property of the
//! operation distribution) should predict the §5 evaluation.

use mlrl::attack::kpa_model::predict_kpa;
use mlrl::attack::relock::{build_training_set, RelockConfig};
use mlrl::attack::snapshot::snapshot_attack;
use mlrl::locking::assure::{lock_operations, AssureConfig};
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::locking::pairs::PairTable;
use mlrl::ml::AutoMlConfig;
use mlrl::rtl::bench_designs::benchmark_by_name;
use mlrl::rtl::visit;

fn measured_and_predicted(bench: &str, scheme: &str, seed: u64) -> (f64, f64) {
    let spec = benchmark_by_name(bench).expect("benchmark");
    let mut module = mlrl::rtl::bench_designs::generate(&spec, seed);
    let total = visit::binary_ops(&module).len();
    let budget = total * 3 / 4;
    let key = match scheme {
        "assure" => {
            lock_operations(&mut module, &AssureConfig::serial(budget, seed)).expect("lockable")
        }
        "era" => {
            era_lock(&mut module, &EraConfig::new(budget, seed))
                .expect("lockable")
                .key
        }
        other => panic!("unknown scheme {other}"),
    };
    let predicted = predict_kpa(&module, &key, &PairTable::fixed()).expected_kpa;
    let relock = RelockConfig {
        rounds: 40,
        budget_fraction: 0.75,
        seed: seed ^ 0xBEEF,
    };
    let training = build_training_set(&module, &relock);
    let measured = snapshot_attack(&module, &key, &training, &AutoMlConfig::default())
        .expect("localities")
        .kpa;
    (measured, predicted)
}

#[test]
fn model_tracks_assure_on_one_sided_designs() {
    // FIR: model predicts ~100; measurement should land within a few points.
    let (measured, predicted) = measured_and_predicted("FIR", "assure", 9);
    assert!(predicted > 99.0, "model: {predicted:.1}");
    assert!(
        (measured - predicted).abs() < 10.0,
        "measured {measured:.1} vs predicted {predicted:.1}"
    );
}

#[test]
fn model_tracks_assure_on_mixed_designs() {
    // Average over instances: per-instance noise is all-or-nothing per
    // feature group (see DESIGN.md), so compare means.
    let mut measured_sum = 0.0;
    let mut predicted_sum = 0.0;
    let n = 3;
    for i in 0..n {
        let (m, p) = measured_and_predicted("DES3", "assure", 50 + i);
        measured_sum += m;
        predicted_sum += p;
    }
    let measured = measured_sum / n as f64;
    let predicted = predicted_sum / n as f64;
    assert!(
        (measured - predicted).abs() < 12.0,
        "measured {measured:.1} vs predicted {predicted:.1}"
    );
}

#[test]
fn model_predicts_the_era_floor_exactly() {
    for (i, bench) in ["FIR", "MD5", "SASC"].iter().enumerate() {
        let spec = benchmark_by_name(bench).expect("benchmark");
        let mut module = mlrl::rtl::bench_designs::generate(&spec, 70 + i as u64);
        let total = visit::binary_ops(&module).len();
        let outcome = era_lock(&mut module, &EraConfig::new(total * 3 / 4, 71)).expect("lockable");
        let predicted = predict_kpa(&module, &outcome.key, &PairTable::fixed()).expected_kpa;
        assert!(
            (predicted - 50.0).abs() < 1e-9,
            "{bench}: ERA model must be exactly 50, got {predicted}"
        );
    }
}

#[test]
fn model_orders_schemes_like_the_measurement() {
    let (m_assure, p_assure) = measured_and_predicted("SHA256", "assure", 90);
    let (m_era, p_era) = measured_and_predicted("SHA256", "era", 90);
    assert!(p_assure > p_era, "model ordering");
    assert!(m_assure > m_era, "measured ordering");
}
