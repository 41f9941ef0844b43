//! Integration: the hierarchical flow end to end — parse a multi-module
//! design, flatten, lock with each scheme, verify function, attack.

use mlrl::attack::relock::{build_training_set, RelockConfig};
use mlrl::attack::snapshot::snapshot_attack;
use mlrl::locking::assure::{lock_operations, AssureConfig};
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::ml::AutoMlConfig;
use mlrl::rtl::equiv::{check_equiv, EquivConfig};
use mlrl::rtl::parser::parse_design;
use mlrl::rtl::{emit, parser, visit};

/// A hierarchy with repeated instantiation of an imbalanced leaf: four
/// `mac` instances contribute 4 muls + 4 adds.
const SOC: &str = "
module mac(a, b, c, y);
  input [15:0] a, b, c;
  output [15:0] y;
  wire [15:0] p;
  assign p = a * b;
  assign y = p + c;
endmodule
module lane(x0, x1, out);
  input [15:0] x0, x1;
  output [15:0] out;
  wire [15:0] s0;
  mac m0 (.a(x0), .b(x1), .c(x0), .y(s0));
  mac m1 (.a(s0), .b(x0), .c(x1), .y(out));
endmodule
module soc(i0, i1, i2, o0, o1);
  input [15:0] i0, i1, i2;
  output [15:0] o0, o1;
  lane l0 (.x0(i0), .x1(i1), .out(o0));
  lane l1 (.x0(i1), .x1(i2), .out(o1));
endmodule";

#[test]
fn flatten_then_lock_preserves_hierarchy_function() {
    let design = parse_design(SOC).expect("parse");
    assert_eq!(design.tops(), vec!["soc"]);
    let flat = design.flatten("soc").expect("flatten");
    assert_eq!(visit::binary_ops(&flat).len(), 8, "4 macs x (mul + add)");

    for scheme in ["assure", "era"] {
        let mut locked = flat.clone();
        let key = match scheme {
            "assure" => lock_operations(&mut locked, &AssureConfig::serial(6, 3)).expect("lock"),
            _ => {
                era_lock(&mut locked, &EraConfig::new(6, 3))
                    .expect("lock")
                    .key
            }
        };
        let r = check_equiv(&flat, &locked, &[], key.as_bits(), &EquivConfig::default())
            .expect("equiv");
        assert!(r.is_equivalent(), "{scheme}: {r:?}");
    }
}

#[test]
fn flattened_locked_design_round_trips_and_attacks() {
    let design = parse_design(SOC).expect("parse");
    let flat = design.flatten("soc").expect("flatten");
    let mut locked = flat.clone();
    let total = visit::binary_ops(&locked).len();
    let outcome = era_lock(&mut locked, &EraConfig::new(total, 5)).expect("lock");

    // Emit -> parse round trip of the flattened locked design.
    let text = emit::emit_verilog(&locked).expect("emit");
    let back = parser::parse_verilog(&text).expect("reparse");
    assert_eq!(visit::op_census(&back), visit::op_census(&locked));
    assert_eq!(back.key_width(), locked.key_width());

    // The attack runs on the reparsed artifact (the attacker's view).
    let relock = RelockConfig {
        rounds: 15,
        budget_fraction: 0.75,
        seed: 7,
    };
    let training = build_training_set(&back, &relock);
    let report = snapshot_attack(&back, &outcome.key, &training, &AutoMlConfig::default())
        .expect("localities");
    assert_eq!(report.attacked_bits, outcome.key.len());
}

#[test]
fn instance_emission_round_trips_unflattened() {
    let design = parse_design(SOC).expect("parse");
    let lane = design.module("lane").expect("lane exists");
    let text = emit::emit_verilog(lane).expect("emit");
    assert!(
        text.contains("mac m0 (.a(x0), .b(x1), .c(x0), .y(s0));"),
        "{text}"
    );
    let back = parser::parse_verilog(&text).expect("reparse");
    assert_eq!(back.instances().len(), 2);
    assert_eq!(back.instances()[0].module_name, "mac");
}

#[test]
fn simulator_refuses_unflattened_modules() {
    let design = parse_design(SOC).expect("parse");
    let soc = design.module("soc").expect("soc exists");
    let err = mlrl::rtl::sim::Simulator::new(soc).unwrap_err();
    assert!(matches!(err, mlrl::rtl::RtlError::Hierarchy(_)), "{err:?}");
}
