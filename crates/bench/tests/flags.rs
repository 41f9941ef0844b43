//! The figure binaries check their command line against their flag table
//! before any work starts: an unknown flag, a value flag without a value,
//! a surplus operand and an unparsable number (flag value or numeric
//! positional) exit 1 with a usage error that names the offender, and
//! print nothing on stdout.

use std::process::Command;

const BINARIES: [&str; 10] = [
    env!("CARGO_BIN_EXE_ablation_budget"),
    env!("CARGO_BIN_EXE_attack_baselines"),
    env!("CARGO_BIN_EXE_design_bias"),
    env!("CARGO_BIN_EXE_fig1_gate_vs_rtl"),
    env!("CARGO_BIN_EXE_fig4_observations"),
    env!("CARGO_BIN_EXE_fig5_metric"),
    env!("CARGO_BIN_EXE_fig6_kpa"),
    env!("CARGO_BIN_EXE_multi_objective"),
    env!("CARGO_BIN_EXE_sat_attack_eval"),
    env!("CARGO_BIN_EXE_sec32_pair_leakage"),
];

fn assert_usage_error(binary: &str, args: &[&str], needle: &str) {
    let out = Command::new(binary).args(args).output().expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{binary} {args:?}: {stderr}");
    assert!(
        stderr.contains(needle) && stderr.contains("usage: "),
        "{binary} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{binary} {args:?} printed output");
}

#[test]
fn every_binary_rejects_unknown_flags_and_missing_values() {
    for binary in BINARIES {
        assert_usage_error(binary, &["--threds", "4"], "unknown flag `--threds`");
        assert_usage_error(
            binary,
            &["--canonical", "--threads"],
            "--threads needs a value",
        );
        assert_usage_error(binary, &["--threads", "banana"], "bad --threads `banana`");
    }
}

#[test]
fn unparsable_seeds_are_usage_errors() {
    for binary in BINARIES {
        // Three binaries take the seed as a positional operand.
        let positional = ["design_bias", "fig4_observations", "fig5_metric"]
            .iter()
            .any(|name| binary.ends_with(name));
        if positional {
            assert_usage_error(binary, &["banana"], "`banana`");
        } else {
            assert_usage_error(binary, &["--seed", "banana"], "bad --seed `banana`");
        }
    }
    assert_usage_error(BINARIES[4], &["8", "2", "banana"], "bad seed `banana`");
    assert_usage_error(BINARIES[4], &["eight"], "bad n_ops `eight`");
}

#[test]
fn every_binary_rejects_a_surplus_operand() {
    // The operands each binary's usage line names, in `BINARIES` order.
    let operands: [&[&str]; 10] = [
        &["FIR"],
        &["FIR"],
        &["1"],
        &[],
        &["8", "2", "1"],
        &["1"],
        &[],
        &[],
        &[],
        &[],
    ];
    for (binary, operands) in BINARIES.into_iter().zip(operands) {
        let args = [operands, &["banana"]].concat();
        assert_usage_error(binary, &args, "unexpected operand `banana`");
    }
    assert_usage_error(
        BINARIES[6],
        &["banana", "--quick"],
        "unexpected operand `banana`",
    );
}
