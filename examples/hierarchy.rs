//! Hierarchical flow: parse a multi-module design, flatten it, lock the
//! flat netlist with ERA, and attack it — the way locking meets real RTL
//! that arrives as a module hierarchy.
//!
//! Run with: `cargo run --release --example hierarchy`

use mlrl::attack::relock::{build_training_set, RelockConfig};
use mlrl::attack::snapshot::snapshot_attack;
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::locking::pairs::PairTable;
use mlrl::locking::report::LockingReport;
use mlrl::ml::AutoMlConfig;
use mlrl::rtl::equiv::{check_equiv, EquivConfig};
use mlrl::rtl::parser::parse_design;
use mlrl::rtl::stats::DesignStats;
use mlrl::rtl::visit;

const HIER_DESIGN: &str = "
// A two-stage MAC pipeline built from reusable blocks.
module mac(a, b, acc, y);
  input [15:0] a, b, acc;
  output [15:0] y;
  wire [15:0] prod;
  assign prod = a * b;
  assign y = prod + acc;
endmodule

module scale(x, k, y);
  input [15:0] x, k;
  output [15:0] y;
  wire [15:0] shifted;
  assign shifted = x << 2;
  assign y = shifted ^ k;
endmodule

module pipeline(in0, in1, in2, coeff, out);
  input [15:0] in0, in1, in2, coeff;
  output [15:0] out;
  wire [15:0] stage1, stage2;
  mac m0 (.a(in0), .b(in1), .acc(in2), .y(stage1));
  scale s0 (.x(stage1), .k(coeff), .y(stage2));
  mac m1 (.a(stage2), .b(in0), .acc(in1), .y(out));
endmodule";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = parse_design(HIER_DESIGN)?;
    println!(
        "modules: {:?}, tops: {:?}",
        design.module_names(),
        design.tops()
    );

    // Flatten the hierarchy: instances inline with prefixed signals.
    let flat = design.flatten("pipeline")?;
    println!("\nflattened:\n{}", DesignStats::of(&flat));
    println!(
        "ops after flattening: {} (mac ×2 contributes 2 muls + 2 adds)",
        visit::binary_ops(&flat).len()
    );

    // Lock the flat netlist.
    let mut locked = flat.clone();
    let total = visit::binary_ops(&locked).len();
    let outcome = era_lock(&mut locked, &EraConfig::new(total, 11))?;
    let report = LockingReport::build("ERA", &flat, &locked, &outcome.key, &PairTable::fixed());
    println!("\n{report}");

    // Prove the locked flat design still matches the hierarchy's function.
    let result = check_equiv(
        &flat,
        &locked,
        &[],
        outcome.key.as_bits(),
        &EquivConfig::default(),
    )?;
    println!("equivalence: {result:?}");
    assert!(result.is_equivalent());

    // Attack it.
    let relock = RelockConfig {
        rounds: 40,
        budget_fraction: 0.75,
        seed: 13,
    };
    let training = build_training_set(&locked, &relock);
    let attack = snapshot_attack(&locked, &outcome.key, &training, &AutoMlConfig::default())
        .expect("localities exist");
    println!(
        "\nSnapShot-RTL on the ERA-locked flat pipeline: KPA = {:.1}% over {} bits",
        attack.kpa, attack.attacked_bits
    );
    Ok(())
}
