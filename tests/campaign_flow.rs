//! Integration tests of the campaign engine's three core guarantees:
//!
//! 1. **Determinism** — the same spec produces a byte-identical canonical
//!    report on one thread and on many (derived seeds make results
//!    independent of scheduling).
//! 2. **Caching** — re-running the same spec on the same engine reports
//!    a non-zero cache hit rate with unchanged results.
//! 3. **Sharding** — merging every shard's canonical report reproduces
//!    the unsharded canonical byte stream, whatever the shard count and
//!    cache temperature (so a campaign partitions across processes or
//!    machines without changing its science).

use std::collections::{BTreeSet, HashSet};
use std::path::Path;

use mlrl::engine::fnv::Fnv64;
use mlrl::engine::job::{budget_bps, Job, ShardSpec};
use mlrl::engine::report::merge_canonical_streams;
use mlrl::engine::run::{scheduled_jobs, Engine};
use mlrl::engine::spec::{
    resolve_benchmark, AttackKind, CampaignSpec, Level, OptLevel, SchemeKind,
};
use mlrl::netlist::lock::GateLockScheme;
use mlrl::rtl::bench_designs::generate_with_width;
use mlrl::rtl::emit::emit_verilog;

/// Two grids pinning every simulator-derived number the canonical report
/// can carry. The first drives the RTL simulator hard (corruptibility
/// near-miss sweeps, oracle-guided hill-climbing agreement) on two
/// benchmarks; the second drives the gate simulator (SAT-attack oracle +
/// recovered-key equivalence check) on the small SoC only — SAT solving
/// is solver-bound, not simulator-bound, so multiplier-heavy designs
/// would dominate the test's runtime without pinning anything extra.
fn simulation_heavy_specs() -> [CampaignSpec; 2] {
    let mut rtl = CampaignSpec::grid(&["SIM_SPI", "FIR"], &[SchemeKind::Era], &[0.5]);
    rtl.name = "sim-golden-rtl".into();
    rtl.seeds = vec![7];
    rtl.attacks = vec![
        AttackKind::FreqTable,
        AttackKind::Corruptibility,
        AttackKind::OracleGuided,
    ];
    rtl.relock_rounds = 6;
    rtl.width = 6;
    rtl.wrong_keys = 8;
    rtl.threads = 2;

    let mut gate = CampaignSpec::grid(
        &["SIM_SPI"],
        &[SchemeKind::Era, SchemeKind::XorXnor],
        &[0.5],
    );
    gate.name = "sim-golden-gate".into();
    gate.levels = vec![Level::Rtl, Level::Gate];
    gate.seeds = vec![7];
    gate.attacks = vec![AttackKind::FreqTable, AttackKind::Sat];
    gate.relock_rounds = 6;
    gate.width = 6;
    gate.threads = 2;
    [rtl, gate]
}

/// The compiled-simulation-core refactor must be observationally
/// invisible: canonical campaign bytes match a golden snapshot taken
/// from the interpretive simulators (pre-refactor seed code).
///
/// Regenerate (only for a change that legitimately alters campaign
/// *science*, never for a simulator change) with:
/// `MLRL_BLESS=1 cargo test -q --test campaign_flow golden`.
#[test]
fn canonical_reports_match_pre_refactor_golden_snapshot() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden_campaign.jsonl"
    );
    let mut canonical = String::new();
    for spec in simulation_heavy_specs() {
        let report = Engine::new().run(&spec);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        canonical.push_str(&report.canonical_jsonl());
    }
    if std::env::var_os("MLRL_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(golden_path).parent().unwrap())
            .expect("create tests/data");
        std::fs::write(golden_path, &canonical).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden snapshot exists (MLRL_BLESS=1 to regenerate)");
    assert_eq!(
        canonical, golden,
        "canonical campaign bytes diverged from the pre-refactor golden snapshot"
    );
}

/// The analytic grid: FIR, SHA256, SASC × assure, hra, era × budgets
/// 0.25, 0.75 × the cells scored from the locked module alone (the KPA
/// model, pair analysis, and metric-only `none`) = 54 cells. Together
/// they pin `metric`, `balanced`, `kpa`, `localities` and `coverage`.
fn analytic_spec(threads: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::grid(
        &["FIR", "SHA256", "SASC"],
        &[SchemeKind::Assure, SchemeKind::Hra, SchemeKind::Era],
        &[0.25, 0.75],
    );
    spec.name = "analytic-golden".into();
    spec.seeds = vec![5];
    spec.attacks = vec![
        AttackKind::KpaModel,
        AttackKind::PairAnalysis,
        AttackKind::None,
    ];
    spec.threads = threads;
    spec
}

/// Analytic cells match a golden captured before their ODTs were cached,
/// on a cold run, a warm run whose locked modules are decoded from a
/// spill dir, and a 2-thread run.
///
/// Regenerate (only for a change that legitimately alters campaign
/// *science*) with `MLRL_BLESS=1 cargo test -q --test campaign_flow golden`.
#[test]
fn analytic_cells_match_their_golden_cold_warm_and_parallel() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden_analytic.jsonl"
    );
    let dir = std::env::temp_dir().join(format!(
        "mlrl-analytic-cache-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = Engine::new()
        .with_cache_dir(dir.clone())
        .run(&analytic_spec(1));
    assert_eq!(cold.records.len(), 54);
    assert_eq!(cold.failed_count(), 0, "{:?}", cold.records);
    let canonical = cold.canonical_jsonl();
    if std::env::var_os("MLRL_BLESS").is_some() {
        std::fs::write(golden_path, &canonical).expect("write golden snapshot");
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden snapshot exists (MLRL_BLESS=1 to regenerate)");
    assert_eq!(canonical, golden, "cold analytic cells diverged");

    // A fresh engine over the filled dir: every locked module is parsed
    // back from its spill, none is relocked. The three misses are the
    // base designs, which never spill.
    let warm = Engine::new()
        .with_cache_dir(dir.clone())
        .run(&analytic_spec(1));
    assert_eq!(warm.cache.misses, 3, "warm run relocked: {:?}", warm.cache);
    assert_eq!(
        warm.canonical_jsonl(),
        golden,
        "warm analytic cells diverged"
    );

    let parallel = Engine::new().run(&analytic_spec(2));
    assert_eq!(parallel.threads, 2);
    assert_eq!(
        parallel.canonical_jsonl(),
        golden,
        "2-thread analytic cells diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Gate-level corruptibility on SIM_SPI × {era, xor-xnor} at width 6, one
/// grid per wrong-key count: 32 keys fill one 64-lane word (W=1), 300
/// fill four (the W=4 sweep).
fn gate_corruptibility_specs(threads: usize) -> [CampaignSpec; 2] {
    [32, 300].map(|wrong_keys| {
        let mut spec = CampaignSpec::grid(
            &["SIM_SPI"],
            &[SchemeKind::Era, SchemeKind::XorXnor],
            &[0.5],
        );
        spec.name = format!("gate-corruptibility-{wrong_keys}");
        spec.levels = vec![Level::Gate];
        spec.seeds = vec![7];
        spec.attacks = vec![AttackKind::Corruptibility];
        spec.width = 6;
        spec.wrong_keys = wrong_keys;
        spec.threads = threads;
        spec
    })
}

fn gate_corruptibility_canonical(threads: usize) -> String {
    let mut canonical = String::new();
    for spec in gate_corruptibility_specs(threads) {
        let report = Engine::new().run(&spec);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        canonical.push_str(&report.canonical_jsonl());
    }
    canonical
}

/// Width-dispatched gate corruptibility cells match a golden captured
/// before the width knob was retired, cold and on 2 threads.
///
/// Regenerate (only for a change that legitimately alters campaign
/// *science*) with `MLRL_BLESS=1 cargo test -q --test campaign_flow golden`.
#[test]
fn gate_corruptibility_cells_match_their_golden_cold_and_parallel() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden_gate_corruptibility.jsonl"
    );
    let cold = gate_corruptibility_canonical(1);
    if std::env::var_os("MLRL_BLESS").is_some() {
        std::fs::write(golden_path, &cold).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden snapshot exists (MLRL_BLESS=1 to regenerate)");
    assert_eq!(cold, golden, "cold gate corruptibility cells diverged");
    assert_eq!(
        gate_corruptibility_canonical(2),
        golden,
        "2-thread gate corruptibility cells diverged"
    );
}

/// Set in the child process that
/// `warm_replays_hash_each_locked_instance_once` re-runs itself in.
const KEY_HASH_CHILD: &str = "MLRL_TEST_KEY_HASH_CHILD";

/// A warm replay of the analytic (`lock-replay`-shaped) grid hashes each
/// locked instance's base Verilog once (`engine.key_hashes`), and a
/// second run on the same engine hashes nothing. Telemetry counters are process-global and this binary's other
/// tests run engines concurrently, so the test re-runs itself alone in a
/// child process, where the count is exact.
#[test]
fn warm_replays_hash_each_locked_instance_once() {
    if std::env::var_os(KEY_HASH_CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                "--exact",
                "warm_replays_hash_each_locked_instance_once",
                "--test-threads",
                "1",
            ])
            .env(KEY_HASH_CHILD, "1")
            .output()
            .expect("re-run the test alone");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child run failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let spec = analytic_spec(1);
    let instances: HashSet<u64> = scheduled_jobs(&spec)
        .iter()
        .map(|j| j.derived_seed)
        .collect();
    assert_eq!(instances.len(), 18);
    let dir = std::env::temp_dir().join(format!("mlrl-key-hashes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = Engine::new().with_cache_dir(dir.clone()).run(&spec);
    assert_eq!(cold.failed_count(), 0, "{:?}", cold.records);

    let hashes = || {
        mlrl::obs::snapshot()
            .counters
            .get("engine.key_hashes")
            .copied()
            .unwrap_or(0)
    };
    mlrl::obs::enable();
    let engine = Engine::new().with_cache_dir(dir.clone());
    let warm = engine.run(&spec);
    let after_warm = hashes();
    let again = engine.run(&spec);
    let after_again = hashes();
    mlrl::obs::disable();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(warm.cache.misses, 3, "warm run relocked: {:?}", warm.cache);
    assert_eq!(after_warm, instances.len() as u64);
    assert_eq!(after_again, after_warm, "a second run re-hashed text");
    assert_eq!(warm.canonical_jsonl(), cold.canonical_jsonl());
    assert_eq!(again.canonical_jsonl(), cold.canonical_jsonl());
}

/// The content keys as `execute` hashed them from emitted Verilog before
/// they were memoized under their recipes. Spill files are named by these
/// keys, and `campaign_bench`'s traced walk recomputes the locked one.
fn locked_key_from_text(job: &Job, base_verilog: &str) -> u64 {
    Fnv64::new()
        .write_str("lock|")
        .write_str(job.scheme.name())
        .write_u64(budget_bps(job.budget))
        .write_u64(job.lock_seed())
        .write_str("|")
        .write_str(base_verilog)
        .finish()
}

fn lowered_key_from_text(source_verilog: &str, opt_level: OptLevel) -> u64 {
    let opt_tag = match opt_level {
        OptLevel::O0 => "",
        OptLevel::O1 => "opt-o1|",
        OptLevel::O2 => "opt-o2|",
    };
    Fnv64::new()
        .write_str("lower|scan-sweep|")
        .write_str(opt_tag)
        .write_str(source_verilog)
        .finish()
}

/// Every content key one cell of `spec` spills under, recomputed from the
/// emitted text (the locked Verilog is read back from its spill).
fn expected_spill_keys(spec: &CampaignSpec, job: &Job, key_bits: usize, dir: &Path) -> Vec<u64> {
    let design = resolve_benchmark(&job.benchmark).expect("known benchmark");
    let base = generate_with_width(&design, job.generate_seed(), spec.width);
    let base_verilog = emit_verilog(&base).expect("base emits");
    let trains = matches!(job.attack, AttackKind::FreqTable | AttackKind::Snapshot);
    let gate_train = |relock: GateLockScheme, lowered_key: u64| {
        Fnv64::new()
            .write_str("gtrain|")
            .write_u64(spec.relock_rounds as u64)
            .write_u64(key_bits.clamp(1, 64) as u64)
            .write_u64(job.relock_seed())
            .write_u64(relock as u64)
            .write_u64(lowered_key)
            .finish()
    };
    let base_lowered = lowered_key_from_text(&base_verilog, spec.opt_level);
    let mut keys = Vec::new();
    if let Some(scheme) = job
        .scheme
        .gate_scheme()
        .filter(|_| job.level == Level::Gate)
    {
        let gate_locked = Fnv64::new()
            .write_str("gatelock|")
            .write_str(job.scheme.name())
            .write_u64(key_bits as u64)
            .write_u64(job.lock_seed())
            .write_u64(base_lowered)
            .finish();
        keys.extend([base_lowered, gate_locked]);
        if trains {
            keys.push(gate_train(scheme, gate_locked));
        }
        return keys;
    }
    let locked = locked_key_from_text(job, &base_verilog);
    keys.push(locked);
    if job.level == Level::Gate {
        let spilled = std::fs::read_to_string(dir.join(format!("{locked:016x}.v")))
            .expect("locked module spilled");
        let (_header, locked_verilog) = spilled.split_once('\n').expect("spill header line");
        let lowered = lowered_key_from_text(locked_verilog, spec.opt_level);
        keys.extend([lowered, base_lowered]);
        if trains {
            keys.push(gate_train(GateLockScheme::Mux, lowered));
        }
    } else if trains {
        keys.push(
            Fnv64::new()
                .write_str("train|")
                .write_u64(spec.relock_rounds as u64)
                .write_u64(budget_bps(0.75))
                .write_u64(job.relock_seed())
                .write_u64(locked)
                .finish(),
        );
    }
    keys
}

/// Memoizing the text-hashed content keys under their recipes leaves
/// them, and so every spill file name, bit-identical: a cold run of a
/// mixed grid (RTL locks lowered at O0 and O2, gate schemes, RTL and gate
/// training sets) spills exactly under the keys recomputed from the text.
#[test]
fn spill_names_are_the_text_hashed_content_keys() {
    let mut gate = CampaignSpec::grid(
        &["SIM_SPI"],
        &[SchemeKind::Era, SchemeKind::XorXnor, SchemeKind::Mux],
        &[0.5],
    );
    gate.name = "content-keys".into();
    gate.levels = vec![Level::Rtl, Level::Gate];
    gate.seeds = vec![7];
    gate.attacks = vec![AttackKind::None, AttackKind::FreqTable];
    gate.relock_rounds = 6;
    gate.width = 6;
    gate.threads = 2;
    let mut o2 = gate.clone();
    o2.opt_level = OptLevel::O2;
    o2.attacks = vec![AttackKind::None];
    let mut snapshot = CampaignSpec::grid(&["SIM_SPI"], &[SchemeKind::Hra], &[0.5]);
    snapshot.seeds = vec![7];
    snapshot.attacks = vec![AttackKind::Snapshot];
    snapshot.relock_rounds = 6;
    snapshot.width = 6;

    let dir = std::env::temp_dir().join(format!("mlrl-content-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One engine for all three grids, so that their recipes share one memo.
    let engine = Engine::new().with_cache_dir(dir.clone());
    let mut expected = BTreeSet::new();
    for spec in [&gate, &o2, &snapshot] {
        let report = engine.run(spec);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        for job in scheduled_jobs(spec) {
            let record = &report.records[job.index];
            let key_bits = record.key_bits.expect("locked cell");
            let keys = expected_spill_keys(spec, &job, key_bits, &dir);
            expected.extend(keys.into_iter().map(|key| format!("{key:016x}")));
        }
    }
    let stems: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("spill dir")
        .map(|entry| {
            let name = entry.expect("dir entry").file_name().into_string();
            let name = name.expect("utf-8 name");
            let (stem, _ext) = name.split_once('.').expect("`<key>.<ext>` name");
            stem.to_owned()
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(stems, expected);
}

/// The acceptance grid: 2 benchmarks × 2 schemes × 3 budgets = 12 cells.
fn twelve_cell_spec(threads: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::grid(
        &["FIR", "IIR"],
        &[SchemeKind::Assure, SchemeKind::Era],
        &[0.25, 0.5, 0.75],
    );
    spec.name = "campaign-flow".into();
    spec.seeds = vec![11];
    spec.attacks = vec![AttackKind::FreqTable];
    spec.relock_rounds = 6;
    spec.threads = threads;
    spec
}

#[test]
fn parallel_and_serial_runs_produce_byte_identical_reports() {
    let serial = Engine::new().run(&twelve_cell_spec(1));
    let parallel = Engine::new().run(&twelve_cell_spec(4));

    assert_eq!(serial.records.len(), 12);
    assert_eq!(serial.failed_count(), 0, "{:?}", serial.records);
    assert_eq!(parallel.failed_count(), 0);
    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);

    let canonical_serial = serial.canonical_jsonl();
    let canonical_parallel = parallel.canonical_jsonl();
    assert_eq!(
        canonical_serial, canonical_parallel,
        "canonical reports must be byte-identical across thread counts"
    );
    // Sanity: the canonical report carries real science, not just headers.
    assert!(canonical_serial.contains("\"attack\":\"freq-table\""));
    assert!(serial.records.iter().all(|r| r.kpa.is_some()));
}

#[test]
fn rerunning_a_spec_hits_the_cache_with_unchanged_results() {
    let engine = Engine::new();
    let spec = twelve_cell_spec(2);

    let first = engine.run(&spec);
    assert_eq!(first.failed_count(), 0, "{:?}", first.records);

    let second = engine.run(&spec);
    assert_eq!(second.failed_count(), 0);

    assert!(
        second.cache.hits > 0,
        "second run must hit the artifact cache (stats: {:?})",
        second.cache
    );
    assert!(
        second.cache.hit_rate() > first.cache.hit_rate(),
        "hit rate must rise on re-run: first {:?}, second {:?}",
        first.cache,
        second.cache
    );
    assert_eq!(
        first.canonical_jsonl(),
        second.canonical_jsonl(),
        "cache hits must not change results"
    );
}

/// The gate-level acceptance grid: 1 benchmark × {rtl, gate} ×
/// {era, xor-xnor} × 1 budget × {freq-table, sat, none} = 8 cells
/// (rtl skips the gate scheme and the SAT attack).
fn mixed_level_spec(threads: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::grid(
        &["SIM_SPI"],
        &[SchemeKind::Era, SchemeKind::XorXnor],
        &[0.5],
    );
    spec.name = "mixed-level-flow".into();
    spec.levels = vec![Level::Rtl, Level::Gate];
    spec.seeds = vec![7];
    spec.attacks = vec![AttackKind::FreqTable, AttackKind::Sat, AttackKind::None];
    spec.relock_rounds = 6;
    spec.width = 6;
    spec.threads = threads;
    spec
}

#[test]
fn mixed_level_campaigns_are_byte_identical_across_thread_counts() {
    let serial = Engine::new().run(&mixed_level_spec(1));
    let parallel = Engine::new().run(&mixed_level_spec(4));

    assert_eq!(serial.records.len(), 8);
    assert_eq!(serial.failed_count(), 0, "{:?}", serial.records);
    assert_eq!(parallel.failed_count(), 0);
    assert_eq!(
        serial.canonical_jsonl(),
        parallel.canonical_jsonl(),
        "gate-level cells must be as deterministic as RTL cells"
    );
    // The canonical report carries the gate-level science.
    let canonical = serial.canonical_jsonl();
    assert!(canonical.contains("\"level\":\"gate\""));
    assert!(canonical.contains("\"sat_proved\":true"));
    assert!(canonical.contains("\"attack\":\"sat\""));
    // SAT-attacked cells record their iteration counts and area overhead.
    for r in serial.records.iter().filter(|r| r.attack == "sat") {
        assert!(r.sat_dips.expect("dips") > 0);
        assert!(r.area_overhead.expect("area") >= 1.0);
    }
}

#[test]
fn warm_reruns_hit_the_lowered_netlist_shard() {
    let engine = Engine::new();
    let spec = mixed_level_spec(2);

    let cold = engine.run(&spec);
    assert_eq!(cold.failed_count(), 0, "{:?}", cold.records);
    assert!(
        cold.cache.lowered_misses > 0,
        "cold run must synthesize (stats: {:?})",
        cold.cache
    );

    let warm = engine.run(&spec);
    assert_eq!(warm.failed_count(), 0);
    assert!(
        warm.cache.lowered_hits > 0,
        "warm re-run must hit the lowered-netlist shard (stats: {:?})",
        warm.cache
    );
    assert_eq!(
        warm.cache.lowered_misses, 0,
        "warm re-run must not re-synthesize (stats: {:?})",
        warm.cache
    );
    assert_eq!(
        cold.canonical_jsonl(),
        warm.canonical_jsonl(),
        "netlist-shard hits must not change results"
    );
}

/// Splits `spec` into `count` shards on independent engines (cold
/// caches, like separate processes) and returns the canonical streams.
fn run_shards(spec: &CampaignSpec, count: usize) -> Vec<String> {
    (0..count)
        .map(|index| {
            Engine::new()
                .run_shard(spec, Some(ShardSpec { index, count }))
                .canonical_jsonl()
        })
        .collect()
}

#[test]
fn merged_shard_reports_are_byte_identical_to_the_unsharded_run() {
    let spec = twelve_cell_spec(2);
    let full = Engine::new().run(&spec).canonical_jsonl();

    let shards = run_shards(&spec, 3);
    // Shards partition, not duplicate: 12 cells across 3 shards.
    let cells: usize = shards
        .iter()
        .map(|s| s.lines().count().saturating_sub(1))
        .sum();
    assert_eq!(cells, 12);
    let merged = merge_canonical_streams(&shards).expect("shards merge");
    assert_eq!(
        merged, full,
        "merged shard reports must be byte-identical to the unsharded canonical report"
    );
}

/// The optimizer axis: an O2 gate campaign must shard and merge
/// byte-exactly (the opt level is folded into the content-addressed
/// lowering keys, so shards can never mix optimized and unoptimized
/// artifacts), the canonical stream must carry the `opt_level` column
/// on every record, and the default-O0 stream must never carry it —
/// that omission is what keeps pre-optimizer golden bytes stable.
#[test]
fn o2_campaigns_shard_and_merge_byte_identically() {
    let mut spec = mixed_level_spec(2);
    spec.name = "o2-flow".into();
    spec.opt_level = OptLevel::O2;

    let full_report = Engine::new().run(&spec);
    assert_eq!(full_report.failed_count(), 0, "{:?}", full_report.records);
    let full = full_report.canonical_jsonl();
    assert!(full.contains("\"opt_level\":\"o2\""));
    // The optimized netlists still carry real gate-level science: SAT
    // proofs converge and locking still adds area on the smaller base.
    for r in full_report.records.iter().filter(|r| r.attack == "sat") {
        assert!(r.sat_dips.expect("dips") > 0);
        assert!(r.area_overhead.expect("area") >= 1.0);
    }

    let shards = run_shards(&spec, 3);
    let merged = merge_canonical_streams(&shards).expect("shards merge");
    assert_eq!(
        merged, full,
        "O2 shards must merge to the unsharded canonical bytes"
    );

    // Same grid at the default level: no opt_level column anywhere.
    let mut o0 = spec.clone();
    o0.name = "o0-flow".into();
    o0.opt_level = OptLevel::O0;
    let o0_bytes = Engine::new().run(&o0).canonical_jsonl();
    assert!(
        !o0_bytes.contains("opt_level"),
        "O0 must omit the column to keep historical canonical bytes"
    );
}

#[test]
fn uneven_shards_with_more_shards_than_cells_still_merge_exactly() {
    // The mixed-level grid has 8 cells; 11 shards forces empty shards
    // and single-cell shards, and its SAT cells exercise the cost model
    // (a 10× cell must not unbalance the partition's correctness).
    let spec = mixed_level_spec(1);
    let full = Engine::new().run(&spec).canonical_jsonl();
    let shards = run_shards(&spec, 11);
    assert!(
        shards.iter().any(|s| s.lines().count() == 1),
        "11 shards over 8 cells must leave some shard empty"
    );
    let merged = merge_canonical_streams(&shards).expect("shards merge");
    assert_eq!(merged, full);
}

#[test]
fn warm_caches_do_not_perturb_sharded_reports() {
    let spec = twelve_cell_spec(2);
    let full = Engine::new().run(&spec).canonical_jsonl();

    // Each shard runs twice on its own engine; the second (warm) pass
    // must hit the cache and still merge byte-exactly.
    let shards: Vec<String> = (0..3)
        .map(|index| {
            let shard = Some(ShardSpec { index, count: 3 });
            let engine = Engine::new();
            let cold = engine.run_shard(&spec, shard);
            let warm = engine.run_shard(&spec, shard);
            if !cold.records.is_empty() {
                assert!(
                    warm.cache.hits > 0,
                    "warm shard {index} must hit the cache (stats: {:?})",
                    warm.cache
                );
            }
            assert_eq!(cold.canonical_jsonl(), warm.canonical_jsonl());
            warm.canonical_jsonl()
        })
        .collect();
    let merged = merge_canonical_streams(&shards).expect("shards merge");
    assert_eq!(merged, full);
}

#[test]
fn co_located_shards_share_one_cache_dir() {
    // The ROADMAP's sound-but-untested path: two shard processes pointed
    // at the same --cache-dir. Artifacts are content-addressed, so shard 1
    // may freely consume what shard 0 spilled, results must merge to the
    // exact unsharded bytes, and a later run over the warm directory must
    // hit without re-synthesizing anything.
    let dir = std::env::temp_dir().join(format!(
        "mlrl-shared-cache-{}-{}",
        std::process::id(),
        line!()
    ));
    let spec = mixed_level_spec(2);
    let full = Engine::new().run(&spec).canonical_jsonl();

    let shards: Vec<String> = (0..2)
        .map(|index| {
            // A fresh engine per shard = a separate process's cold memory,
            // warm shared disk.
            Engine::new()
                .with_cache_dir(dir.clone())
                .run_shard(&spec, Some(ShardSpec { index, count: 2 }))
                .canonical_jsonl()
        })
        .collect();
    let merged = merge_canonical_streams(&shards).expect("shards merge");
    assert_eq!(
        merged, full,
        "shards sharing one cache dir must merge to the unsharded bytes"
    );

    // The two shards spilled every artifact; a third co-located engine
    // must serve the whole campaign from the shared directory without a
    // single synthesis run.
    let warm_engine = Engine::new().with_cache_dir(dir.clone());
    let warm = warm_engine.run(&spec);
    assert_eq!(warm.canonical_jsonl(), full);
    assert!(
        warm.cache.hits > 0,
        "warm run must hit the shared artifacts (stats: {:?})",
        warm.cache
    );
    assert_eq!(
        warm.cache.lowered_misses, 0,
        "warm run must not re-synthesize (stats: {:?})",
        warm.cache
    );
    assert!(
        warm.cache.lowered_hits > 0,
        "warm run must reuse the spilled netlists (stats: {:?})",
        warm.cache
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overlapping_or_incomplete_shard_sets_are_rejected() {
    let spec = twelve_cell_spec(2);
    let shards = run_shards(&spec, 3);
    // Dropping a shard is a missing-index error, not silent data loss.
    let err = merge_canonical_streams(&shards[..2]).expect_err("incomplete set");
    assert!(err.contains("missing"), "{err}");
    // Feeding one shard twice is an overlap error.
    let doubled = vec![shards[0].clone(), shards[0].clone(), shards[1].clone()];
    let err = merge_canonical_streams(&doubled).expect_err("overlap");
    assert!(err.contains("duplicate"), "{err}");
}

// Panic *isolation* (a panicking job yielding Err while the campaign
// completes) is covered at the pool layer by
// `mlrl_engine::pool::tests::isolates_panics_to_their_job`; no current
// benchmark/scheme combination panics, so this level checks the failure
// paths that are reachable: clean runs and up-front spec rejection.
#[test]
fn healthy_campaigns_have_no_failures_and_bad_specs_are_rejected() {
    let spec = twelve_cell_spec(2);
    let engine = Engine::new();
    let report = engine.run(&spec);
    assert_eq!(report.failed_count(), 0);

    let mut bad = spec.clone();
    bad.benchmarks = vec!["NO_SUCH_DESIGN".into()];
    assert!(bad.validate().is_err());
}

/// Telemetry is a pure side channel: enabling span tracing and metrics
/// must leave the canonical bytes untouched, while the exported Chrome
/// trace and metrics rollup are well-formed and account for the run.
///
/// Counter assertions use `>=` (never `==`): the telemetry sink is
/// process-global and other tests in this binary run concurrently, so
/// their cells may also land in the snapshot.
#[test]
fn telemetry_is_a_pure_side_channel_with_wellformed_artifacts() {
    let spec = twelve_cell_spec(2);
    let baseline = Engine::new().run(&spec).canonical_jsonl();

    mlrl::obs::enable();
    let traced = Engine::new().run(&spec).canonical_jsonl();
    let metrics = mlrl::obs::snapshot();
    let trace = mlrl::obs::trace_json();
    mlrl::obs::disable();

    assert_eq!(
        traced, baseline,
        "telemetry must never perturb the canonical bytes"
    );

    // The rollup accounts for the traced run's cells and cache traffic.
    let completed = metrics.counters.get("cells.completed").copied();
    assert!(
        completed.is_some_and(|n| n >= 12),
        "12-cell run must count its cells (counters: {:?})",
        metrics.counters
    );
    assert!(
        metrics.counters.contains_key("cache.misses"),
        "cold run must count cache misses (counters: {:?})",
        metrics.counters
    );
    let cell_stat = metrics.spans.get("cell").expect("cell span stat");
    assert!(cell_stat.count >= 12, "cell spans: {cell_stat:?}");
    assert!(
        metrics.spans.contains_key("phase.design"),
        "phase spans must aggregate (spans: {:?})",
        metrics.spans.keys().collect::<Vec<_>>()
    );

    // Every span name also accumulates a duration histogram, in
    // lockstep with its sum-only stat (both are recorded under the same
    // sink lock, so their counts agree within one snapshot).
    let cell_hist = metrics.hists.get("cell").expect("cell histogram");
    assert_eq!(cell_hist.count(), cell_stat.count);
    assert_eq!(cell_hist.sum(), cell_stat.total_us);
    let p50 = cell_hist.p50().expect("non-empty percentile");
    assert!(
        cell_hist.min().unwrap() <= p50 && p50 <= cell_hist.max().unwrap(),
        "p50 {p50} outside [{:?}, {:?}]",
        cell_hist.min(),
        cell_hist.max()
    );

    // The rollup JSON round-trips through its own parser, histograms
    // included.
    let reparsed = mlrl::obs::Metrics::parse(&metrics.to_json()).expect("metrics JSON reparses");
    assert_eq!(reparsed.counters, metrics.counters);
    assert_eq!(reparsed.spans, metrics.spans);
    assert_eq!(reparsed.hists, metrics.hists);

    // The Chrome trace is valid JSON with named spans on named lanes.
    let doc = mlrl::obs::json::parse(&trace).expect("trace is valid JSON");
    let events = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let name_of = |e: &mlrl::obs::json::Value| {
        e.as_object()
            .and_then(|o| o.get("name"))
            .and_then(|n| n.as_str())
            .map(str::to_owned)
    };
    assert!(
        events
            .iter()
            .any(|e| name_of(e).is_some_and(|n| n.starts_with("cell "))),
        "trace must carry per-cell spans"
    );
    assert!(
        events
            .iter()
            .any(|e| name_of(e).is_some_and(|n| n == "thread_name")),
        "trace must label its lanes"
    );

    // The overhead controls thin only the trace stream: with 1-in-8
    // span sampling and a 64-event ring, the canonical bytes and the
    // aggregate stats stay exact — only trace events get dropped.
    mlrl::obs::reset();
    mlrl::obs::enable();
    mlrl::obs::set_span_sample(8);
    mlrl::obs::set_trace_cap(64);
    let sampled = Engine::new().run(&spec).canonical_jsonl();
    let sampled_metrics = mlrl::obs::snapshot();
    let sampled_trace = mlrl::obs::trace_json();
    mlrl::obs::reset();
    mlrl::obs::disable();
    assert_eq!(
        sampled, baseline,
        "sampling and ring capping must never perturb the canonical bytes"
    );
    assert!(
        sampled_metrics
            .counters
            .get("cells.completed")
            .is_some_and(|&n| n >= 12),
        "stats stay exact under sampling (counters: {:?})",
        sampled_metrics.counters
    );
    let doc = mlrl::obs::json::parse(&sampled_trace).expect("sampled trace is valid JSON");
    let kept: Vec<String> = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("sampled traceEvents array")
        .iter()
        .filter_map(|e| {
            let o = e.as_object()?;
            if o.get("ph")?.as_str()? == "M" {
                return None;
            }
            o.get("name")?.as_str().map(str::to_owned)
        })
        .collect();
    let retained = kept
        .iter()
        .filter(|n| !n.starts_with("obs.events.dropped"))
        .count();
    assert!(
        retained <= 64,
        "the trace ring must stay bounded ({retained} events kept)"
    );
    assert!(
        kept.iter().any(|n| n.starts_with("obs.events.dropped")),
        "a 12-cell run overflows a 64-event ring, which must be marked: {kept:?}"
    );
}

#[test]
fn spec_files_round_trip_through_the_parser() {
    let text = "\
        name       = acceptance\n\
        benchmarks = FIR IIR\n\
        schemes    = assure era\n\
        budgets    = 0.25 0.5 0.75\n\
        seeds      = 11\n\
        attacks    = freq-table\n\
        relock_rounds = 6\n\
        threads    = 2\n";
    let parsed = CampaignSpec::parse(text).expect("parses");
    assert_eq!(parsed.cells(), 12);
    let mut expected = twelve_cell_spec(2);
    expected.name = "acceptance".into();
    assert_eq!(parsed, expected);
}
