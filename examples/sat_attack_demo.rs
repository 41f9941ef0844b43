//! The §5 open question, demonstrated: the oracle-guided SAT attack breaks
//! learning-resilient locking. ERA holds SnapShot at a coin flip, yet once
//! the attacker has a working chip (an oracle) the SAT attack recovers a
//! correct key in a handful of distinguishing input patterns.
//!
//! Run with: `cargo run --release --example sat_attack_demo`

use mlrl::attack::relock::{build_training_set, RelockConfig};
use mlrl::attack::snapshot::snapshot_attack;
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::ml::AutoMlConfig;
use mlrl::netlist::equiv::check_netlists;
use mlrl::netlist::lower::lower_module;
use mlrl::rtl::bench_designs::{benchmark_by_name, generate_with_width};
use mlrl::rtl::visit;
use mlrl::sat::attack::{sat_attack, SatAttackConfig, SimOracle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. ERA-lock a small design (8-bit signals keep the CNF small).
    let spec = benchmark_by_name("SIM_SPI").expect("SIM_SPI is a paper benchmark");
    let mut locked = generate_with_width(&spec, 42, 8);
    let total_ops = visit::binary_ops(&locked).len();
    let outcome = era_lock(&mut locked, &EraConfig::new(total_ops * 3 / 4, 7))?;
    let key: Vec<bool> = (0..locked.key_width())
        .map(|i| outcome.key.bit(i).unwrap_or(false))
        .collect();
    println!("SIM_SPI @8 bit, ERA-locked with {} key bits", key.len());

    // 2. The oracle-less ML attack is held at the coin-flip floor.
    let relock = RelockConfig {
        rounds: 60,
        ..Default::default()
    };
    let training = build_training_set(&locked, &relock);
    if let Some(report) =
        snapshot_attack(&locked, &outcome.key, &training, &AutoMlConfig::default())
    {
        println!(
            "SnapShot-RTL (oracle-less): KPA = {:.1}% (~50% = chance)",
            report.kpa
        );
    }

    // 3. Lower to gates — the attacker's netlist — and switch threat models:
    //    now the attacker owns a working chip (the oracle).
    //    (Scan view: oracle-guided attacks assume scan-chain access, which
    //    exposes flip-flop state as pseudo-I/O and reduces the circuit to
    //    its combinational core.)
    let mut netlist = lower_module(&locked)?.to_scan_view();
    netlist.sweep();
    println!(
        "lowered: {} gates, {} key bits",
        netlist.gates().len(),
        netlist.key_width()
    );
    let mut oracle = SimOracle::new(&netlist, &key)?;
    let report = sat_attack(&netlist, &mut oracle, &SatAttackConfig::default())?;
    println!(
        "SAT attack: {} DIPs (oracle queries), UNSAT proof = {}",
        report.dips, report.proved
    );

    // 4. The recovered key is functionally correct — the design is unlocked.
    let check = check_netlists(&netlist, &netlist, &key, &report.key, 300, 5)?;
    println!(
        "recovered key unlocks the design: {} ({}/{} vectors agree)",
        check.is_equivalent(),
        check.samples - check.mismatches,
        check.samples
    );
    assert!(report.proved && check.is_equivalent());
    println!("\nlearning resilience and SAT resistance are orthogonal objectives —");
    println!("exactly why the paper defers SAT resistance to Karfa et al. [3].");
    Ok(())
}
