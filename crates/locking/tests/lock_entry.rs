//! `lock` against the direct locker calls: for every scheme, on two
//! designs and two seeds, the entry point leaves the same module (arena
//! length included) and returns the same key, bit count and trace as
//! the scheme's own configuration.

use mlrl_locking::assure::{lock_operations, AssureConfig, Selection};
use mlrl_locking::era::{era_lock, EraConfig};
use mlrl_locking::hra::{hra_lock, HraConfig};
use mlrl_locking::pairs::PairTable;
use mlrl_locking::{key_budget, lock, LockOutcome, LockScheme};
use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
use mlrl_rtl::Module;

const SCHEMES: [LockScheme; 6] = [
    LockScheme::Assure,
    LockScheme::AssureRandom,
    LockScheme::AssureOriginal,
    LockScheme::Hra,
    LockScheme::HraGreedy,
    LockScheme::Era,
];

/// The reference: each scheme's configuration spelled out.
fn direct(m: &mut Module, scheme: LockScheme, bits: usize, seed: u64) -> LockOutcome {
    let assure = |m: &mut Module, cfg: AssureConfig| {
        let key = lock_operations(m, &cfg).expect("assure");
        LockOutcome {
            bits_used: key.len(),
            key,
            trace: Vec::new(),
        }
    };
    match scheme {
        LockScheme::Assure => assure(m, AssureConfig::serial(bits, seed)),
        LockScheme::AssureRandom => assure(m, AssureConfig::random(bits, seed)),
        LockScheme::AssureOriginal => assure(
            m,
            AssureConfig {
                selection: Selection::Serial,
                pair_table: PairTable::original_assure(),
                budget: bits,
                seed,
            },
        ),
        LockScheme::Hra => hra_lock(m, &HraConfig::new(bits, seed)).expect("hra"),
        LockScheme::HraGreedy => hra_lock(m, &HraConfig::greedy(bits, seed)).expect("greedy"),
        LockScheme::Era => era_lock(m, &EraConfig::new(bits, seed)).expect("era"),
    }
}

#[test]
fn every_scheme_locks_like_its_direct_configuration() {
    for design in ["IIR", "SASC"] {
        for seed in [3, 11] {
            let base = generate(&benchmark_by_name(design).expect("benchmark"), seed);
            let bits = key_budget(&base, 0.5).expect("lockable");
            for scheme in SCHEMES {
                let mut via_entry = base.clone();
                let got = lock(&mut via_entry, scheme, bits, seed).expect("lock");
                let mut via_config = base.clone();
                let want = direct(&mut via_config, scheme, bits, seed);
                let at = format!("{scheme:?} on {design}, seed {seed}");
                assert_eq!(via_entry, via_config, "{at}");
                assert_eq!(via_entry.arena().len(), via_config.arena().len(), "{at}");
                assert_eq!(got, want, "{at}");
                assert_eq!(got.key.len() as u32, via_entry.key_width(), "{at}");
                assert_ne!(via_entry, base, "{at}: the design is locked");
            }
        }
    }
}

#[test]
fn assure_spends_the_budget_exactly_and_keeps_no_trace() {
    let mut m = generate(&benchmark_by_name("FIR").expect("benchmark"), 2);
    let outcome = lock(&mut m, LockScheme::AssureRandom, 9, 4).expect("lock");
    assert_eq!(outcome.bits_used, 9);
    assert_eq!(outcome.key.len(), 9);
    assert!(outcome.trace.is_empty());
}

#[test]
fn key_budget_rounds_to_the_nearest_bit_and_spends_at_least_one() {
    // FIR has 63 operations.
    let fir = generate(&benchmark_by_name("FIR").expect("benchmark"), 1);
    assert_eq!(key_budget(&fir, 0.75), Some(47));
    assert_eq!(key_budget(&fir, 0.5), Some(32));
    assert_eq!(key_budget(&fir, 1.0), Some(63));
    assert_eq!(key_budget(&fir, 0.0), Some(1));
    assert_eq!(key_budget(&Module::new("empty"), 0.75), None);
}

#[test]
fn nothing_to_lock_is_an_error_for_every_scheme() {
    for scheme in SCHEMES {
        let mut m = Module::new("empty");
        assert!(lock(&mut m, scheme, 1, 0).is_err(), "{scheme:?}");
    }
}
