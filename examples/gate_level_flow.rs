//! Gate-level flow: lock at RTL, "synthesize" (bit-blast) to a gate-level
//! netlist, verify cross-level equivalence, measure gate-level cost, and
//! show what the attacker of the paper's threat model actually receives.
//!
//! Run with: `cargo run --release --example gate_level_flow`

use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::netlist::emit::emit_structural_verilog;
use mlrl::netlist::equiv::check_module_vs_netlist;
use mlrl::netlist::lower::lower_module;
use mlrl::netlist::stats::NetlistStats;
use mlrl::rtl::bench_designs::{benchmark_by_name, generate_with_width};
use mlrl::rtl::visit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The designer's view: RTL, locked with ERA.
    let spec = benchmark_by_name("SASC").expect("SASC is a paper benchmark");
    let original = generate_with_width(&spec, 42, 16);
    let total_ops = visit::binary_ops(&original).len();
    let mut locked = original.clone();
    let outcome = era_lock(&mut locked, &EraConfig::new(total_ops * 3 / 4, 7))?;
    let key: Vec<bool> = (0..locked.key_width())
        .map(|i| outcome.key.bit(i).unwrap_or(false))
        .collect();
    println!(
        "SASC @16 bit: {total_ops} ops, ERA key = {} bits",
        key.len()
    );

    // 2. "Synthesis": bit-blast both views to gates.
    let base_netlist = lower_module(&original)?;
    let locked_netlist = lower_module(&locked)?;
    let base_stats = NetlistStats::of(&base_netlist)?;
    let locked_stats = NetlistStats::of(&locked_netlist)?;
    println!("\nunlocked netlist: {base_stats}");
    println!("locked netlist:   {locked_stats}");
    let overhead = locked_stats.overhead_vs(&base_stats);
    println!(
        "locking overhead: +{} gates ({:.1} per key bit), +{} depth, area x{:.2}",
        overhead.extra_gates,
        overhead.gates_per_key_bit(),
        overhead.extra_depth,
        overhead.area_factor
    );

    // 3. Cross-level equivalence: locked RTL and locked gates agree under
    //    the correct key on random stimulus (2 clock ticks per vector so
    //    the control process is exercised too).
    let check = check_module_vs_netlist(&locked, &locked_netlist, &key, 200, 2, 11)?;
    println!(
        "\ncross-level check (correct key): {}/{} vectors agree",
        check.samples - check.mismatches,
        check.samples
    );
    assert!(check.is_equivalent());

    // 4. A wrong key corrupts the gate-level outputs too (the all-flipped
    //    key picks every dummy operation).
    let wrong: Vec<bool> = key.iter().map(|b| !b).collect();
    let corrupted = check_module_vs_netlist(&original, &locked_netlist, &wrong, 200, 2, 13)?;
    println!(
        "cross-level check (wrong key):   {}/{} vectors corrupted",
        corrupted.mismatches, corrupted.samples
    );
    assert!(!corrupted.is_equivalent());

    // 5. What the foundry/attacker receives: structural Verilog.
    let text = emit_structural_verilog(&locked_netlist)?;
    println!("\nstructural Verilog preview (what the attacker reverse engineers):");
    for line in text.lines().take(8) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", text.lines().count());
    Ok(())
}
