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
    // Pinned byte for byte: ERA's balanced pairs leave the frequency table
    // with ties, which fall back to the all-zero global majority.
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "attacked bits: 32\n\
         predicted key: 00000000000000000000000000000000\n\
         KPA: 40.62% (50% = random guess)\n"
    );

    // Without `--key` the KPA line is suppressed.
    let out = mlrl()
        .args(["attack", locked.to_str().unwrap(), "--relocks", "15"])
        .output()
        .expect("run attack without key");
    assert_success(&out, "attack without key");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "attacked bits: 32\n\
         predicted key: 00000000000000000000000000000000\n"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn attack_output_on_assure_is_pinned() {
    // ASSURE leaks on the all-Add/Mul FIR, so every predicted bit is
    // informative: the whole stdout is pinned byte for byte.
    let dir = tmpdir("assure-attack");
    let design = dir.join("fir.v");
    let locked = dir.join("fir_locked.v");
    let key = dir.join("fir.key");
    let run = |args: &[&str], what: &str| {
        let out = mlrl().args(args).output().expect(what);
        assert_success(&out, what);
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (design, locked, key) = (
        design.to_str().unwrap(),
        locked.to_str().unwrap(),
        key.to_str().unwrap(),
    );
    run(&["gen", "FIR", "--seed", "5", "-o", design], "gen");
    run(
        &[
            "lock",
            design,
            "--scheme",
            "assure",
            "--budget",
            "0.5",
            "--seed",
            "9",
            "-o",
            locked,
            "--key-out",
            key,
        ],
        "lock",
    );
    let stdout = run(
        &["attack", locked, "--relocks", "15", "--key", key],
        "attack",
    );
    assert_eq!(
        stdout,
        "attacked bits: 32\n\
         predicted key: 10111011110011100001110001110010\n\
         KPA: 100.00% (50% = random guess)\n"
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
fn sat_attack_subcommand_recovers_an_era_key() {
    let dir = tmpdir("sat-attack");
    let design = dir.join("spi.v");
    let locked = dir.join("spi_locked.v");
    let key = dir.join("spi.key");
    assert_success(
        &mlrl()
            .args(["gen", "SIM_SPI", "-o", design.to_str().unwrap()])
            .output()
            .expect("run gen"),
        "gen",
    );
    assert_success(
        &mlrl()
            .args([
                "lock",
                design.to_str().unwrap(),
                "--scheme",
                "era",
                "--budget",
                "0.25",
                "-o",
                locked.to_str().unwrap(),
                "--key-out",
                key.to_str().unwrap(),
            ])
            .output()
            .expect("run lock"),
        "lock",
    );
    let out = mlrl()
        .args([
            "sat-attack",
            locked.to_str().unwrap(),
            "--key",
            key.to_str().unwrap(),
        ])
        .output()
        .expect("run sat-attack");
    assert_success(&out, "sat-attack");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("functionally correct:  true"),
        "attack failed: {stdout}"
    );
    let effort = stdout
        .lines()
        .find(|l| l.starts_with("solver effort:"))
        .unwrap_or_else(|| panic!("effort line missing: {stdout}"));
    for unit in ["conflicts", "decisions", "propagations"] {
        assert!(effort.contains(unit), "{unit} missing: {effort}");
    }
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
fn orchestrate_has_no_jsonl_flag() {
    // `--canonical` prints, and `<run-dir>/merged.jsonl` holds, the bytes
    // a second `--jsonl` output would duplicate.
    let dir = tmpdir("orch-jsonl");
    let spec = dir.join("c.spec");
    std::fs::write(
        &spec,
        "benchmarks = FIR\nschemes = assure\nbudgets = 0.5\nseeds = 3\nattacks = none\n",
    )
    .expect("write spec");
    let written = dir.join("x");
    let run_dir = dir.join("run");
    let out = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--run-dir",
            run_dir.to_str().unwrap(),
            "--jsonl",
            written.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag `--jsonl`"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(!written.exists() && !run_dir.exists(), "nothing is written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = mlrl()
        .args(["gen", "FIR"])
        .stdout(writer)
        .output()
        .expect("run gen");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn every_subcommand_rejects_an_unknown_flag_before_any_work() {
    let dir = tmpdir("unknown-flag");
    let design = dir.join("fir.v");
    let design = design.to_str().unwrap();
    assert_success(
        &mlrl()
            .args(["gen", "FIR", "-o", design])
            .output()
            .expect("gen"),
        "gen",
    );
    let spec = dir.join("c.spec");
    std::fs::write(
        &spec,
        "benchmarks = FIR\nschemes = assure\nbudgets = 0.5\nseeds = 3\nattacks = none\n",
    )
    .expect("write spec");
    let spec = spec.to_str().unwrap();
    let written = dir.join("written");
    let written = written.to_str().unwrap();
    // Each row would write `written` (through `-o`, `--run-dir` or
    // `--jsonl`) if it ran.
    for argv in [
        vec!["gen", "FIR", "-o", written],
        vec!["flatten", design, "-o", written],
        vec!["stats", design],
        vec!["lock", design, "-o", written],
        vec!["verify", design, design, "--key", written],
        vec!["attack", design],
        vec!["synth", design, "-o", written],
        vec!["gatelock", design, "-o", written],
        vec!["sat-attack", design, "--key", written],
        vec!["campaign", spec, "--jsonl", written],
        vec!["merge", written, "-o", written],
        vec!["orchestrate", spec, "--run-dir", written],
        vec!["worker", spec, "--cells", "0"],
        vec!["top", written, "--once"],
        vec!["report", written],
    ] {
        let mut args = argv.clone();
        args.extend(["--threds", "4"]);
        let out = mlrl().args(&args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown flag `--threds`")
                && stderr.contains(&format!("usage: mlrl {} ", argv[0])),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert!(!std::path::Path::new(written).exists(), "{args:?} wrote");
        // One operand more than the usage line names (`mlrl gen FIR 7`
        // meant `--seed 7`) is as much a usage error; `merge` takes any
        // number of shards.
        if argv[0] == "merge" {
            continue;
        }
        let mut args = argv.clone();
        args.push("7");
        let out = mlrl().args(&args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unexpected operand `7`"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert!(!std::path::Path::new(written).exists(), "{args:?} wrote");
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
fn lock_takes_every_rtl_scheme_name_and_refuses_the_rest() {
    let dir = tmpdir("lock-schemes");
    let design = dir.join("fir.v");
    let out = mlrl()
        .args(["gen", "FIR", "--seed", "3", "-o", design.to_str().unwrap()])
        .output()
        .expect("run gen");
    assert_success(&out, "gen");
    let lock = |scheme: &str, locked: &PathBuf| {
        mlrl()
            .args(["lock", design.to_str().unwrap(), "--scheme", scheme])
            .args(["--budget", "0.5", "-o", locked.to_str().unwrap()])
            .output()
            .expect("run lock")
    };

    let locked = dir.join("greedy.v");
    assert_success(&lock("hra-greedy", &locked), "lock --scheme hra-greedy");
    assert!(locked.exists());

    for scheme in ["mux", "bogus"] {
        let locked = dir.join(format!("{scheme}.v"));
        let out = lock(scheme, &locked);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{scheme}: {stderr}");
        assert!(
            stderr.contains(&format!("scheme `{scheme}` does not lock an RTL module")),
            "{scheme}: {stderr}"
        );
        assert!(!locked.exists(), "{scheme}: wrote {}", locked.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
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
