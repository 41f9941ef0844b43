//! End-to-end tests of the `mlrl` CLI binary: generate → stats → lock →
//! verify → attack on real files in a temp directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mlrl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mlrl"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlrl-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn full_lock_verify_attack_workflow() {
    let dir = tmpdir("flow");
    let design = dir.join("fir.v");
    let locked = dir.join("fir_locked.v");
    let key = dir.join("fir.key");

    let out = mlrl()
        .args(["gen", "FIR", "--seed", "5", "-o", design.to_str().unwrap()])
        .output()
        .expect("run gen");
    assert_success(&out, "gen");

    let out = mlrl()
        .args([
            "lock",
            design.to_str().unwrap(),
            "--scheme",
            "era",
            "--budget",
            "0.5",
            "--seed",
            "9",
            "-o",
            locked.to_str().unwrap(),
            "--key-out",
            key.to_str().unwrap(),
        ])
        .output()
        .expect("run lock");
    assert_success(&out, "lock");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("M_g_sec"), "lock report missing: {stderr}");

    let out = mlrl()
        .args([
            "verify",
            design.to_str().unwrap(),
            locked.to_str().unwrap(),
            "--key",
            key.to_str().unwrap(),
        ])
        .output()
        .expect("run verify");
    assert_success(&out, "verify");
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));

    let out = mlrl()
        .args([
            "attack",
            locked.to_str().unwrap(),
            "--relocks",
            "15",
            "--key",
            key.to_str().unwrap(),
        ])
        .output()
        .expect("run attack");
    assert_success(&out, "attack");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("KPA:"),
        "attack output missing KPA: {stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_rejects_wrong_key() {
    let dir = tmpdir("wrongkey");
    let design = dir.join("iir.v");
    let locked = dir.join("iir_locked.v");
    let key = dir.join("iir.key");

    assert_success(
        &mlrl()
            .args(["gen", "IIR", "-o", design.to_str().unwrap()])
            .output()
            .expect("gen"),
        "gen",
    );
    assert_success(
        &mlrl()
            .args([
                "lock",
                design.to_str().unwrap(),
                "--scheme",
                "assure",
                "-o",
                locked.to_str().unwrap(),
                "--key-out",
                key.to_str().unwrap(),
            ])
            .output()
            .expect("lock"),
        "lock",
    );
    // Flip the first key bit.
    let bits = std::fs::read_to_string(&key).expect("read key");
    let flipped: String = bits
        .trim()
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if i == 0 {
                if c == '0' {
                    '1'
                } else {
                    '0'
                }
            } else {
                c
            }
        })
        .collect();
    std::fs::write(&key, flipped).expect("write flipped key");

    let out = mlrl()
        .args([
            "verify",
            design.to_str().unwrap(),
            locked.to_str().unwrap(),
            "--key",
            key.to_str().unwrap(),
        ])
        .output()
        .expect("verify");
    assert!(!out.status.success(), "wrong key must fail verification");
    assert!(String::from_utf8_lossy(&out.stderr).contains("MISMATCH"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_reports_imbalance() {
    let dir = tmpdir("stats");
    let design = dir.join("md5.v");
    assert_success(
        &mlrl()
            .args(["gen", "MD5", "-o", design.to_str().unwrap()])
            .output()
            .expect("gen"),
        "gen",
    );
    let out = mlrl()
        .args(["stats", design.to_str().unwrap()])
        .output()
        .expect("stats");
    assert_success(&out, "stats");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("op mix"));
    assert!(stdout.contains("imbalance"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flatten_subcommand_inlines_hierarchy() {
    let dir = tmpdir("flatten");
    let hier = dir.join("hier.v");
    std::fs::write(
        &hier,
        "module leaf(a, y);\n input [7:0] a;\n output [7:0] y;\n assign y = a + 1;\nendmodule\nmodule top(x, z);\n input [7:0] x;\n output [7:0] z;\n leaf u0 (.a(x), .y(z));\nendmodule\n",
    )
    .expect("write hier");
    let flat = dir.join("flat.v");
    let out = mlrl()
        .args([
            "flatten",
            hier.to_str().unwrap(),
            "-o",
            flat.to_str().unwrap(),
        ])
        .output()
        .expect("run flatten");
    assert_success(&out, "flatten");
    let text = std::fs::read_to_string(&flat).expect("read flat");
    assert!(text.contains("u0__y"), "flattened signals missing: {text}");
    assert!(!text.contains("leaf u0"), "instance not inlined: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = mlrl().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unparsable_numeric_flags_are_usage_errors() {
    let dir = tmpdir("bad-flags");
    let spec = dir.join("c.spec");
    std::fs::write(
        &spec,
        "benchmarks = FIR\nschemes = assure\nbudgets = 0.5\nseeds = 3\nattacks = none\n",
    )
    .expect("write spec");
    let spec = spec.to_str().unwrap();
    for (args, flag) in [
        (vec!["campaign", spec, "--threads", "banana"], "--threads"),
        (
            vec!["campaign", spec, "--trace-sample", "banana"],
            "--trace-sample",
        ),
        (vec!["campaign", spec, "--threads"], "--threads"),
        (vec!["gen", "FIR", "--seed", "-1"], "--seed"),
        // A value flag with no value is a usage error, not a silent no-op.
        (vec!["campaign", spec, "--trace-out"], "--trace-out"),
        (
            vec!["campaign", spec, "--metrics-out", "--canonical"],
            "--metrics-out",
        ),
        (vec!["gen", "FIR", "-o"], "-o"),
    ] {
        let out = mlrl().args(&args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains("usage") && stderr.contains(flag),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_benchmark_is_reported() {
    let out = mlrl().args(["gen", "NOPE"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

#[test]
fn campaign_runs_spec_files_end_to_end() {
    let dir = tmpdir("campaign");
    let spec = dir.join("c.spec");
    let jsonl = dir.join("out.jsonl");
    std::fs::write(
        &spec,
        "benchmarks = FIR\nschemes = assure era\nbudgets = 0.5\nseeds = 3\n\
         attacks = kpa-model\nrelock_rounds = 4\nthreads = 2\n",
    )
    .expect("write spec");

    // Human table + JSONL sidecar.
    let out = mlrl()
        .args([
            "campaign",
            spec.to_str().unwrap(),
            "--jsonl",
            jsonl.to_str().unwrap(),
        ])
        .output()
        .expect("run campaign");
    assert_success(&out, "campaign");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("era"), "table missing scheme rows: {table}");
    let sidecar = std::fs::read_to_string(&jsonl).expect("jsonl written");
    assert!(
        sidecar.contains("\"cache_hit_rate\""),
        "summary line missing: {sidecar}"
    );

    // Boolean --canonical must not swallow the spec path, wherever it sits.
    let canonical_first = mlrl()
        .args(["campaign", "--canonical", spec.to_str().unwrap()])
        .output()
        .expect("run campaign --canonical");
    assert_success(&canonical_first, "campaign --canonical <spec>");
    let canonical_last = mlrl()
        .args(["campaign", spec.to_str().unwrap(), "--canonical"])
        .output()
        .expect("run campaign <spec> --canonical");
    assert_success(&canonical_last, "campaign <spec> --canonical");
    assert_eq!(
        canonical_first.stdout, canonical_last.stdout,
        "canonical output must not depend on flag position"
    );
    assert!(String::from_utf8_lossy(&canonical_first.stdout).starts_with("{\"campaign\":"));

    // --threads override and spec errors.
    let out = mlrl()
        .args([
            "campaign",
            spec.to_str().unwrap(),
            "--threads",
            "1",
            "--canonical",
        ])
        .output()
        .expect("run campaign --threads 1");
    assert_success(&out, "campaign --threads 1");
    assert_eq!(
        out.stdout, canonical_first.stdout,
        "canonical output must not depend on thread count"
    );
    std::fs::write(&spec, "schemes = era\n").expect("write bad spec");
    let out = mlrl()
        .args(["campaign", spec.to_str().unwrap()])
        .output()
        .expect("run campaign on bad spec");
    assert!(!out.status.success(), "empty-grid spec must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no benchmarks"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_campaigns_merge_to_the_unsharded_bytes() {
    let dir = tmpdir("shard");
    let spec = dir.join("c.spec");
    std::fs::write(
        &spec,
        "benchmarks = FIR\nschemes = assure era\nbudgets = 0.25 0.5\nseeds = 3\n\
         attacks = kpa-model none\nrelock_rounds = 4\nthreads = 2\n",
    )
    .expect("write spec");

    let canonical = |extra: &[&str]| {
        let mut args = vec!["campaign", spec.to_str().unwrap(), "--canonical"];
        args.extend_from_slice(extra);
        let out = mlrl().args(&args).output().expect("run campaign");
        assert_success(&out, "campaign");
        out.stdout
    };
    let full = canonical(&[]);
    let shard_files: Vec<std::path::PathBuf> = (0..3)
        .map(|i| {
            let bytes = canonical(&["--shard", &format!("{i}/3")]);
            let path = dir.join(format!("s{i}.jsonl"));
            std::fs::write(&path, bytes).expect("write shard");
            path
        })
        .collect();

    let mut args = vec!["merge".to_owned()];
    args.extend(shard_files.iter().map(|p| p.to_str().unwrap().to_owned()));
    let out = mlrl().args(&args).output().expect("run merge");
    assert_success(&out, "merge");
    assert_eq!(
        out.stdout, full,
        "merged shard output must be byte-identical to the unsharded run"
    );

    // A bad shard selector fails loudly.
    let out = mlrl()
        .args(["campaign", spec.to_str().unwrap(), "--shard", "3/3"])
        .output()
        .expect("run campaign with bad shard");
    assert!(!out.status.success(), "out-of-range shard must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    std::fs::remove_dir_all(&dir).ok();
}
