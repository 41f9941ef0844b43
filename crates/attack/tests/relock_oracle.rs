//! `build_training_set` plans its relock rounds from the target's site list
//! instead of locking a copy of the target. This test keeps the builder it
//! replaced — clone the target, lock the clone with one round of random
//! ASSURE, extract the localities of the new key bits — and checks every
//! round's features and labels against it.

use mlrl_attack::extract::extract_localities;
use mlrl_attack::relock::{build_training_set, RelockConfig};
use mlrl_locking::assure::{lock_operations, AssureConfig};
use mlrl_locking::{key_budget, lock, LockScheme};
use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
use mlrl_rtl::Module;

/// One relock round the way it used to be built: lock a clone, then
/// extract the new bits' localities.
fn oracle_round(target: &Module, budget: usize, seed: u64) -> (Vec<Vec<u32>>, Vec<usize>) {
    let base_bits = target.key_width();
    let mut clone = target.clone();
    let key = lock_operations(&mut clone, &AssureConfig::random(budget, seed))
        .expect("a target with operations can be relocked");
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for loc in extract_localities(&clone) {
        if loc.key_bit >= base_bits {
            let value = key.bit(loc.key_bit - base_bits).expect("new bit");
            features.push(loc.features());
            labels.push(usize::from(value));
        }
    }
    (features, labels)
}

fn targets() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for (i, name) in ["FIR", "SASC", "N_1023", "DES3"].into_iter().enumerate() {
        let seed = 40 + i as u64;
        let base = generate(&benchmark_by_name(name).expect("benchmark"), seed);
        for scheme in [LockScheme::Assure, LockScheme::Hra, LockScheme::Era] {
            let mut m = base.clone();
            let bits = key_budget(&m, 0.75).expect("operations");
            lock(&mut m, scheme, bits, seed ^ 0x5a).expect("lockable");
            out.push((format!("{name}/{scheme:?}"), m));
        }
    }
    let iir = generate(&benchmark_by_name("IIR").expect("benchmark"), 7);
    out.push(("IIR/unlocked".to_owned(), iir));
    out
}

#[test]
fn relock_rounds_match_the_lock_then_extract_oracle() {
    const ROUNDS: usize = 3;
    for (label, target) in targets() {
        for fraction in [0.3, 0.75, 1.0] {
            let cfg = RelockConfig {
                rounds: ROUNDS,
                budget_fraction: fraction,
                seed: 11,
            };
            let planned = build_training_set(&target, &cfg);
            let budget = key_budget(&target, fraction).expect("operations");
            assert_eq!(planned.len(), ROUNDS * budget, "{label} at {fraction}");
            for round in 0..ROUNDS {
                let seed = cfg
                    .seed
                    .wrapping_add(round as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let (features, labels) = oracle_round(&target, budget, seed);
                let rows = round * budget..(round + 1) * budget;
                assert_eq!(
                    planned.features[rows.clone()],
                    features[..],
                    "{label} at {fraction}, round {round}: features"
                );
                assert_eq!(
                    planned.labels[rows],
                    labels[..],
                    "{label} at {fraction}, round {round}: labels"
                );
            }
        }
    }
}
