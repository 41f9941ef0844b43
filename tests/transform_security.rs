//! Integration: locking security under synthesis-like optimization.
//!
//! A real attacker sees the design *after* optimization. Constant folding
//! must neither break the locked design's function nor re-open the
//! learning channel ERA closed: key muxes are opaque to a key-oblivious
//! optimizer, so localities survive and the ODT balance is untouched.

use mlrl::attack::extract_localities;
use mlrl::attack::relock::{build_training_set, RelockConfig};
use mlrl::attack::snapshot::snapshot_attack;
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::locking::odt::Odt;
use mlrl::locking::pairs::PairTable;
use mlrl::ml::AutoMlConfig;
use mlrl::rtl::bench_designs::{benchmark_by_name, generate};
use mlrl::rtl::equiv::{check_equiv, EquivConfig};
use mlrl::rtl::transform::constant_fold;
use mlrl::rtl::visit;

#[test]
fn folding_a_locked_design_preserves_function() {
    for bench in ["DES3", "RSA"] {
        let spec = benchmark_by_name(bench).expect("benchmark");
        let original = generate(&spec, 21);
        let mut locked = original.clone();
        let total = visit::binary_ops(&locked).len();
        let outcome = era_lock(&mut locked, &EraConfig::new(total / 2, 23)).expect("lock");
        let mut folded = locked.clone();
        constant_fold(&mut folded).expect("fold");
        let r = check_equiv(
            &original,
            &folded,
            &[],
            outcome.key.as_bits(),
            &EquivConfig::default(),
        )
        .expect("equiv");
        assert!(
            r.is_equivalent(),
            "{bench}: folding broke the locked design"
        );
    }
}

#[test]
fn folding_keeps_every_locality() {
    let spec = benchmark_by_name("DES3").expect("benchmark");
    let mut locked = generate(&spec, 25);
    let total = visit::binary_ops(&locked).len();
    let outcome = era_lock(&mut locked, &EraConfig::new(total / 2, 27)).expect("lock");
    let before = extract_localities(&locked);
    let mut folded = locked.clone();
    constant_fold(&mut folded).expect("fold");
    let after = extract_localities(&folded);
    assert_eq!(
        before.len(),
        after.len(),
        "folding must not remove key muxes"
    );
    assert_eq!(before.len(), outcome.key.len());
    // Key-bit coverage identical.
    let bits = |locs: &[mlrl::attack::Locality]| {
        let mut b: Vec<u32> = locs.iter().map(|l| l.key_bit).collect();
        b.sort_unstable();
        b
    };
    assert_eq!(bits(&before), bits(&after));
}

#[test]
fn era_balance_survives_folding() {
    // Folding can only remove constant-operand ops in *pairs-agnostic*
    // positions; on our benchmarks (no constant-constant ops) the census
    // and hence Def. 1 balance are unchanged.
    let spec = benchmark_by_name("MD5").expect("benchmark");
    let mut locked = generate(&spec, 29);
    let total = visit::binary_ops(&locked).len();
    era_lock(&mut locked, &EraConfig::new(total * 3 / 4, 31)).expect("lock");
    let mut folded = locked.clone();
    constant_fold(&mut folded).expect("fold");
    let odt = Odt::load(&folded, PairTable::fixed());
    assert!(odt.is_balanced(), "folding re-opened the imbalance channel");
}

#[test]
fn attack_on_folded_era_design_stays_at_chance() {
    let mut kpas = Vec::new();
    for i in 0..3u64 {
        let spec = benchmark_by_name("FIR").expect("benchmark");
        let mut locked = generate(&spec, 60 + i);
        let total = visit::binary_ops(&locked).len();
        let outcome = era_lock(&mut locked, &EraConfig::new(total * 3 / 4, i)).expect("lock");
        let mut folded = locked.clone();
        constant_fold(&mut folded).expect("fold");
        let relock = RelockConfig {
            rounds: 25,
            budget_fraction: 0.75,
            seed: i ^ 0x33,
        };
        let training = build_training_set(&folded, &relock);
        let report = snapshot_attack(&folded, &outcome.key, &training, &AutoMlConfig::default())
            .expect("localities");
        kpas.push(report.kpa);
    }
    let mean = kpas.iter().sum::<f64>() / kpas.len() as f64;
    assert!(
        (mean - 50.0).abs() < 16.0,
        "folded ERA target should stay near 50%: {mean:.1} ({kpas:?})"
    );
}
