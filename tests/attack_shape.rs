//! Integration tests asserting the *shape* of the paper's evaluation
//! (Fig. 6): who wins, by roughly what factor, and where the floor sits.
//! Absolute digits differ from the paper (synthetic benchmarks, different
//! ML stack); the qualitative ordering must hold.

use mlrl::attack::relock::{build_training_set, RelockConfig};
use mlrl::attack::snapshot::snapshot_attack;
use mlrl::locking::assure::{lock_operations, AssureConfig};
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::ml::AutoMlConfig;
use mlrl::rtl::bench_designs::{benchmark_by_name, DesignSpec};
use mlrl::rtl::visit;

fn relock_cfg(seed: u64) -> RelockConfig {
    RelockConfig {
        rounds: 30,
        budget_fraction: 0.75,
        seed,
    }
}

/// Mean KPA over several independently locked instances.
fn mean_kpa(spec: &DesignSpec, scheme: &str, instances: usize) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for i in 0..instances {
        let seed = 1000 + i as u64;
        let mut module = mlrl::rtl::bench_designs::generate(spec, seed);
        let total = visit::binary_ops(&module).len();
        let budget = if scheme == "era" && spec.name == "N_2046" {
            total
        } else {
            total * 3 / 4
        };
        let key = match scheme {
            "assure" => {
                lock_operations(&mut module, &AssureConfig::serial(budget, seed)).expect("lock")
            }
            "era" => {
                era_lock(&mut module, &EraConfig::new(budget, seed))
                    .expect("lock")
                    .key
            }
            other => panic!("unknown scheme {other}"),
        };
        let training = build_training_set(&module, &relock_cfg(seed ^ 0xF00));
        if let Some(report) = snapshot_attack(&module, &key, &training, &AutoMlConfig::default()) {
            sum += report.kpa;
            n += 1;
        }
    }
    assert!(n > 0, "no instance produced a report");
    sum / n as f64
}

#[test]
fn assure_leaks_heavily_on_imbalanced_designs() {
    // FIR is 100% pair-imbalanced: serial ASSURE should approach 100% KPA
    // (the N_2046 column of Fig. 6a shows the same effect at scale).
    let spec = benchmark_by_name("FIR").expect("benchmark");
    let kpa = mean_kpa(&spec, "assure", 3);
    assert!(kpa > 85.0, "ASSURE on FIR should leak, got {kpa:.1}%");
}

#[test]
fn era_holds_the_line_at_chance_on_imbalanced_designs() {
    let spec = benchmark_by_name("FIR").expect("benchmark");
    let kpa = mean_kpa(&spec, "era", 6);
    assert!(
        (kpa - 50.0).abs() < 15.0,
        "ERA should average near 50%, got {kpa:.1}%"
    );
}

#[test]
fn era_beats_assure_by_a_wide_margin() {
    let spec = benchmark_by_name("MD5").expect("benchmark");
    let assure = mean_kpa(&spec, "assure", 2);
    let era = mean_kpa(&spec, "era", 2);
    assert!(
        assure > era + 15.0,
        "expected ASSURE ({assure:.1}%) well above ERA ({era:.1}%)"
    );
}

#[test]
fn balanced_design_is_safe_under_any_scheme() {
    // N_1023 (fully balanced): even plain ASSURE stays near chance —
    // observation 3 of §3.1. Use a scaled-down balanced network for speed.
    let mut spec = benchmark_by_name("N_1023").expect("benchmark");
    spec.op_mix = vec![
        (mlrl::rtl::op::BinaryOp::Add, 120),
        (mlrl::rtl::op::BinaryOp::Sub, 120),
    ];
    let kpa = mean_kpa(&spec, "assure", 4);
    assert!(
        (kpa - 50.0).abs() < 12.0,
        "balanced design should stay near 50%, got {kpa:.1}%"
    );
}

#[test]
fn fully_imbalanced_network_is_fully_broken_under_assure() {
    // The N_2046 effect, scaled down: an all-+ network under serial ASSURE
    // leaks every bit.
    let mut spec = benchmark_by_name("N_2046").expect("benchmark");
    spec.op_mix = vec![(mlrl::rtl::op::BinaryOp::Add, 200)];
    let kpa = mean_kpa(&spec, "assure", 2);
    assert!(
        kpa > 95.0,
        "all-+ network should be fully broken, got {kpa:.1}%"
    );
}

#[test]
fn era_saves_the_fully_imbalanced_network() {
    let mut spec = benchmark_by_name("N_2046").expect("benchmark");
    spec.op_mix = vec![(mlrl::rtl::op::BinaryOp::Add, 200)];
    let kpa = mean_kpa(&spec, "era", 6);
    assert!(
        (kpa - 50.0).abs() < 15.0,
        "ERA should pin the all-+ network near 50%, got {kpa:.1}%"
    );
}
