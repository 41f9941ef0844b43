//! Cross-crate integration tests: locking correctness end to end.
//!
//! Every scheme must (a) preserve the locked design's function under the
//! correct key, (b) corrupt outputs under wrong keys, (c) produce locked
//! RTL that survives an emit → parse round trip with identical operation
//! census and localities (the attacker-visible artifact).

use mlrl::attack::extract_localities;
use mlrl::locking::assure::{lock_operations, AssureConfig};
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::locking::key::Key;
use mlrl::locking::{lock, LockScheme};
use mlrl::rtl::ast::PortDir;
use mlrl::rtl::bench_designs::{benchmark_by_name, generate};
use mlrl::rtl::sim::Simulator;
use mlrl::rtl::{emit, parser, visit, Module};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn digest(module: &Module, key: &[bool], salt: u64) -> u64 {
    let mut sim = Simulator::new(module).expect("simulatable");
    for (i, p) in module.ports().iter().enumerate() {
        if p.dir == PortDir::Input && p.name != "clk" {
            sim.set_input(
                &p.name,
                (i as u64 + 3).wrapping_mul(0x517c_c1b7_2722_0a95) ^ salt,
            )
            .expect("input");
        }
    }
    sim.set_key(key).expect("key fits");
    sim.settle().expect("settles");
    sim.outputs_digest().expect("digest")
}

const SCHEMES: [LockScheme; 3] = [LockScheme::Assure, LockScheme::Hra, LockScheme::Era];

fn lock_with(scheme: LockScheme, module: &mut Module, budget: usize, seed: u64) -> Key {
    lock(module, scheme, budget, seed).expect("lock").key
}

#[test]
fn every_scheme_preserves_function_under_correct_key() {
    for bench in ["FIR", "RSA", "SASC"] {
        let spec = benchmark_by_name(bench).expect("paper benchmark");
        let original = generate(&spec, 11);
        let total = visit::binary_ops(&original).len();
        for scheme in SCHEMES {
            let mut locked = original.clone();
            let key = lock_with(scheme, &mut locked, total / 2, 5);
            for salt in 0..5 {
                assert_eq!(
                    digest(&locked, key.as_bits(), salt),
                    digest(&original, &[], salt),
                    "{bench}/{scheme:?} salt {salt}"
                );
            }
        }
    }
}

#[test]
fn every_scheme_corrupts_under_wrong_keys() {
    let spec = benchmark_by_name("MD5").expect("paper benchmark");
    let original = generate(&spec, 13);
    let total = visit::binary_ops(&original).len();
    let mut rng = StdRng::seed_from_u64(3);
    for scheme in SCHEMES {
        let mut locked = original.clone();
        let key = lock_with(scheme, &mut locked, total / 2, 7);
        let mut corrupted = 0;
        let trials = 10;
        for _ in 0..trials {
            let wrong = key.random_wrong_key(&mut rng);
            for salt in 0..3 {
                if digest(&locked, &wrong, salt) != digest(&locked, key.as_bits(), salt) {
                    corrupted += 1;
                    break;
                }
            }
        }
        assert!(
            corrupted >= trials * 7 / 10,
            "{scheme:?}: only {corrupted}/{trials} wrong keys corrupted outputs"
        );
    }
}

#[test]
fn locked_designs_round_trip_through_verilog() {
    for bench in ["SIM_SPI", "IIR"] {
        let spec = benchmark_by_name(bench).expect("paper benchmark");
        let mut locked = generate(&spec, 17);
        let total = visit::binary_ops(&locked).len();
        let _key = lock_with(LockScheme::Era, &mut locked, total / 2, 19);
        let text = emit::emit_verilog(&locked).expect("emit");
        let reparsed = parser::parse_verilog(&text).expect("parse back");
        assert_eq!(
            visit::op_census(&reparsed),
            visit::op_census(&locked),
            "{bench}: census changed across round trip"
        );
        assert_eq!(
            extract_localities(&reparsed),
            extract_localities(&locked),
            "{bench}: attacker-visible localities changed across round trip"
        );
        assert_eq!(reparsed.key_width(), locked.key_width());
    }
}

#[test]
fn relocking_builds_fig3b_nested_trees() {
    let spec = benchmark_by_name("FIR").expect("paper benchmark");
    let mut locked = generate(&spec, 23);
    let total = visit::binary_ops(&locked).len();
    // Lock every op, then relock: nesting is guaranteed.
    let k1 = lock_operations(&mut locked, &AssureConfig::serial(total, 1)).expect("lock");
    let k2 = lock_operations(&mut locked, &AssureConfig::random(total, 2)).expect("relock");
    let locs = extract_localities(&locked);
    assert_eq!(locs.len(), k1.len() + k2.len());
    let nested = locs
        .iter()
        .filter(|l| l.c1 == mlrl::rtl::op::MUX_CODE || l.c2 == mlrl::rtl::op::MUX_CODE)
        .count();
    assert!(nested > 0, "relocking must produce nested mux localities");
    // Function still intact with the concatenated key.
    let original = generate(&spec, 23);
    let full: Vec<bool> = k1.as_bits().iter().chain(k2.as_bits()).copied().collect();
    for salt in 0..3 {
        assert_eq!(digest(&locked, &full, salt), digest(&original, &[], salt));
    }
}

#[test]
fn era_exceeds_budget_only_when_needed_and_stays_balanced() {
    use mlrl::locking::odt::Odt;
    use mlrl::locking::pairs::PairTable;
    for bench in ["DES3", "SHA256", "N_1023"] {
        let spec = benchmark_by_name(bench).expect("paper benchmark");
        let mut locked = generate(&spec, 29);
        let total = visit::binary_ops(&locked).len();
        let outcome = era_lock(&mut locked, &EraConfig::new(total * 3 / 4, 33)).expect("lock");
        // Every pair that ERA touched is balanced in the final design; for
        // these benchmarks with a 75% budget every present pair is touched.
        let odt = Odt::load(&locked, PairTable::fixed());
        assert!(odt.is_balanced(), "{bench}: ODT not balanced after ERA");
        assert_eq!(outcome.key.len(), outcome.bits_used);
    }
}

#[test]
fn key_width_tracks_key_length_for_all_schemes() {
    let spec = benchmark_by_name("USB_PHY").expect("paper benchmark");
    for (scheme, seed) in SCHEMES.into_iter().zip(1u64..) {
        let mut locked = generate(&spec, 37);
        let total = visit::binary_ops(&locked).len();
        let key = lock_with(scheme, &mut locked, total / 2, seed);
        assert_eq!(locked.key_width() as usize, key.len(), "{scheme:?}");
        assert_eq!(visit::key_mux_count(&locked), key.len(), "{scheme:?}");
    }
}
