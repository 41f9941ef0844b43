//! Quickstart: generate a design, lock it with ERA, verify functional
//! correctness under the right/wrong key, and run the SnapShot-RTL attack.
//!
//! Run with: `cargo run --release --example quickstart`

use mlrl::attack::relock::{build_training_set, RelockConfig};
use mlrl::attack::snapshot::snapshot_attack;
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::ml::AutoMlConfig;
use mlrl::rtl::ast::PortDir;
use mlrl::rtl::bench_designs::{benchmark_by_name, generate};
use mlrl::rtl::sim::Simulator;
use mlrl::rtl::{emit, visit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate the FIR benchmark (32 multiplies, 31 adds).
    let spec = benchmark_by_name("FIR").expect("FIR is a paper benchmark");
    let original = generate(&spec, 42);
    let total_ops = visit::binary_ops(&original).len();
    println!("FIR: {total_ops} lockable operations");

    // 2. Lock with ERA at a 75% key budget.
    let mut locked = original.clone();
    let outcome = era_lock(&mut locked, &EraConfig::new(total_ops * 3 / 4, 7))?;
    println!(
        "ERA used {} key bits (budget exceeded: {})",
        outcome.bits_used, outcome.exceeded_budget
    );

    // 3. The locked design is plain Verilog.
    let verilog = emit::emit_verilog(&locked)?;
    println!("locked RTL preview:");
    for line in verilog.lines().take(6) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", verilog.lines().count());

    // 4. Correct key => functionally equivalent; wrong key => corrupted.
    let inputs: Vec<String> = original
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Input)
        .map(|p| p.name.clone())
        .collect();
    let run = |module: &mlrl::rtl::Module, key: &[bool], salt: u64| -> u64 {
        let mut sim = Simulator::new(module).expect("simulatable");
        for (i, name) in inputs.iter().enumerate() {
            sim.set_input(name, (i as u64 + 1) * 31 + salt)
                .expect("input exists");
        }
        sim.set_key(key).expect("key fits");
        sim.settle().expect("settles");
        sim.outputs_digest().expect("outputs digest")
    };
    let golden = run(&original, &[], 3);
    assert_eq!(run(&locked, outcome.key.as_bits(), 3), golden);
    println!("correct key: outputs match the original (digest {golden:#018x})");
    let mut rng = StdRng::seed_from_u64(1);
    let wrong = outcome.key.random_wrong_key(&mut rng);
    let corrupted = run(&locked, &wrong, 3);
    println!(
        "wrong key:   digest {corrupted:#018x} (corrupted: {})",
        corrupted != golden
    );

    // 5. Attack it with SnapShot-RTL.
    let relock = RelockConfig {
        rounds: 40,
        budget_fraction: 0.75,
        seed: 9,
    };
    let training = build_training_set(&locked, &relock);
    let report = snapshot_attack(&locked, &outcome.key, &training, &AutoMlConfig::default())
        .expect("localities exist");
    println!(
        "SnapShot-RTL vs ERA: KPA = {:.1}% over {} bits (50% = random guess; model: {})",
        report.kpa, report.attacked_bits, report.model_name
    );
    Ok(())
}
