//! Cross-level integration: RTL designs (locked and unlocked) must lower to
//! gate-level netlists that are bit-exact with the RTL simulator, and the
//! paper's locking guarantees must survive synthesis.

use mlrl::locking::assure::{lock_operations, AssureConfig};
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::netlist::emit::emit_structural_verilog;
use mlrl::netlist::equiv::{check_module_vs_netlist, check_netlists};
use mlrl::netlist::lower::lower_module;
use mlrl::netlist::stats::NetlistStats;
use mlrl::rtl::bench_designs::{benchmark_by_name, generate_with_width, paper_benchmarks};
use mlrl::rtl::parser::parse_verilog;
use mlrl::rtl::visit;

/// Benchmarks whose *locked* form stays lowerable: RSA is excluded because
/// its Mod operations take Pow dummies with variable exponents.
fn lowerable_locked_benchmarks() -> Vec<&'static str> {
    vec!["DES3", "FIR", "IIR", "SASC", "SIM_SPI", "USB_PHY", "I2C_SL"]
}

#[test]
fn every_paper_benchmark_lowers_and_matches_rtl_simulation() {
    for spec in paper_benchmarks() {
        // Skip the giant synthetic networks for lowering speed; their op
        // content (pure +/- chains) is covered by the others.
        if spec.name.starts_with("N_") {
            continue;
        }
        let module = generate_with_width(&spec, 11, 8);
        let netlist =
            lower_module(&module).unwrap_or_else(|e| panic!("{} fails to lower: {e}", spec.name));
        let check = check_module_vs_netlist(&module, &netlist, &[], 40, 0, 5)
            .unwrap_or_else(|e| panic!("{} cross-check errors: {e}", spec.name));
        assert!(
            check.is_equivalent(),
            "{}: {} of {} vectors diverge (first: {:?})",
            spec.name,
            check.mismatches,
            check.samples,
            check.first_mismatch
        );
    }
}

#[test]
fn era_locked_designs_survive_synthesis_with_the_correct_key() {
    for name in lowerable_locked_benchmarks() {
        let spec = benchmark_by_name(name).expect("known benchmark");
        let original = generate_with_width(&spec, 23, 8);
        let mut locked = original.clone();
        let total = visit::binary_ops(&locked).len();
        let outcome = era_lock(&mut locked, &EraConfig::new(total * 3 / 4, 3)).expect("locks");
        let key: Vec<bool> = (0..locked.key_width())
            .map(|i| outcome.key.bit(i).unwrap_or(false))
            .collect();
        let mut netlist =
            lower_module(&locked).unwrap_or_else(|e| panic!("{name} locked fails to lower: {e}"));
        netlist.sweep();
        assert_eq!(
            netlist.key_width(),
            key.len(),
            "{name}: key width preserved"
        );
        // Correct key at gate level == original RTL function.
        let check = check_module_vs_netlist(&original, &netlist, &key, 40, 0, 7).expect("checks");
        assert!(
            check.is_equivalent(),
            "{name}: correct key must unlock, {check:?}"
        );
    }
}

#[test]
fn wrong_keys_corrupt_lowered_assure_designs() {
    let spec = benchmark_by_name("SASC").expect("known benchmark");
    let original = generate_with_width(&spec, 31, 8);
    let mut locked = original.clone();
    let key = lock_operations(&mut locked, &AssureConfig::serial(20, 9)).expect("locks");
    let key_bits: Vec<bool> = (0..locked.key_width())
        .map(|i| key.bit(i).unwrap_or(false))
        .collect();
    let mut netlist = lower_module(&locked).expect("lowers");
    netlist.sweep();
    // Flip each key bit in turn; most must visibly corrupt outputs on
    // random stimulus. Real and dummy operations can coincide on many
    // 8-bit inputs (narrow shifts, predicates), so 100% is not expected.
    let mut corrupting = 0usize;
    for flip in 0..key_bits.len() {
        let mut wrong = key_bits.clone();
        wrong[flip] = !wrong[flip];
        let check = check_module_vs_netlist(&original, &netlist, &wrong, 80, 0, flip as u64)
            .expect("checks");
        if !check.is_equivalent() {
            corrupting += 1;
        }
    }
    assert!(
        corrupting * 5 >= key_bits.len() * 3,
        "only {corrupting}/{} key bits corrupt outputs",
        key_bits.len()
    );
}

#[test]
fn structural_emission_round_trips_through_the_rtl_parser() {
    let spec = benchmark_by_name("SIM_SPI").expect("known benchmark");
    let module = generate_with_width(&spec, 5, 8);
    let mut netlist = lower_module(&module).expect("lowers");
    netlist.sweep();
    let text = emit_structural_verilog(&netlist).expect("emits");
    let reparsed = parse_verilog(&text).expect("structural Verilog reparses");
    // The reparsed gate-level module must match the original RTL module.
    let check = check_module_vs_netlist(&reparsed, &netlist, &[], 30, 0, 2).expect("checks");
    assert!(check.is_equivalent(), "round-trip diverges: {check:?}");
}

#[test]
fn synthesis_cost_scales_with_key_bits() {
    let spec = benchmark_by_name("SASC").expect("known benchmark");
    let original = generate_with_width(&spec, 17, 8);
    let base = {
        let mut n = lower_module(&original).expect("lowers");
        n.sweep();
        NetlistStats::of(&n).expect("acyclic")
    };
    let mut prev_gates = base.total_gates;
    for budget in [8usize, 16, 32] {
        let mut locked = original.clone();
        lock_operations(&mut locked, &AssureConfig::serial(budget, 1)).expect("locks");
        let mut n = lower_module(&locked).expect("lowers");
        n.sweep();
        let stats = NetlistStats::of(&n).expect("acyclic");
        assert!(
            stats.total_gates > prev_gates,
            "budget {budget}: {} gates not above {prev_gates}",
            stats.total_gates
        );
        prev_gates = stats.total_gates;
    }
}

#[test]
fn gate_level_locking_composes_with_rtl_locking() {
    // Defence in depth: ERA at RTL, then XOR/XNOR at gate level. Both keys
    // must be correct to unlock.
    let spec = benchmark_by_name("SIM_SPI").expect("known benchmark");
    let original = generate_with_width(&spec, 37, 8);
    let mut locked = original.clone();
    let total = visit::binary_ops(&locked).len();
    let outcome = era_lock(&mut locked, &EraConfig::new(total / 2, 5)).expect("locks");
    let rtl_key: Vec<bool> = (0..locked.key_width())
        .map(|i| outcome.key.bit(i).unwrap_or(false))
        .collect();
    let mut netlist = lower_module(&locked).expect("lowers");
    netlist.sweep();
    let base_unlocked = lower_module(&original).expect("lowers");

    let gate_key = mlrl::netlist::lock::xor_xnor_lock(&mut netlist, 8, 3).expect("locks");
    let full_key: Vec<bool> = rtl_key.iter().chain(gate_key.bits()).copied().collect();
    let ok = check_netlists(&base_unlocked, &netlist, &[], &full_key, 50, 9).expect("checks");
    assert!(ok.is_equivalent(), "both keys correct must unlock");

    let mut wrong_gate = full_key.clone();
    let last = wrong_gate.len() - 1;
    wrong_gate[last] = !wrong_gate[last];
    let bad = check_netlists(&base_unlocked, &netlist, &[], &wrong_gate, 50, 9).expect("checks");
    assert!(!bad.is_equivalent(), "wrong gate key must corrupt");
}
