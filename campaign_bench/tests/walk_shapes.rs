//! Tiny grids of each workload shape: the traced layer walk must rebuild
//! the engine's records byte for byte, and the correctness gate must
//! catch a changed cell.

use std::path::PathBuf;

use mlrl_campaign_bench::timed::{remove_dir, Checker};
use mlrl_campaign_bench::walk::{walk_pass, LEAF_SPANS};
use mlrl_campaign_bench::workload::Workload;
use mlrl_engine::spec::CampaignSpec;
use mlrl_engine::{CampaignReport, Engine};

fn spec(text: &str) -> CampaignSpec {
    CampaignSpec::parse(&format!("{text}threads = 1\n")).expect("tiny spec parses")
}

fn lines(report: &CampaignReport) -> Vec<String> {
    report.records.iter().map(|r| r.canonical_line()).collect()
}

fn assert_walk_matches(
    spec: &CampaignSpec,
    spill: Option<&std::path::Path>,
    engine: &CampaignReport,
) {
    assert_eq!(engine.failed_count(), 0, "{:?}", engine.records);
    let walked = walk_pass(spec, spill);
    let walked_lines: Vec<String> = walked.records.iter().map(|r| r.canonical_line()).collect();
    assert_eq!(walked_lines, lines(engine));
    let leaf_ms = walked.spans.leaf_ms();
    let cell_ms = walked.cell_time.as_secs_f64() * 1e3;
    assert!(
        leaf_ms > 0.0 && leaf_ms <= cell_ms,
        "{leaf_ms} of {cell_ms}"
    );
    assert!(LEAF_SPANS.contains(&"engine.canonical"));
}

#[test]
fn rtl_snapshot_shape() {
    let spec = spec(
        "benchmarks = FIR\nschemes = assure era\nbudgets = 0.75\nseeds = 3\n\
         attacks = snapshot\nrelock_rounds = 4\n",
    );
    let engine = Engine::new().run(&spec);
    assert_walk_matches(&spec, None, &engine);
    let walked = walk_pass(&spec, None);
    assert_eq!(walked.spans.n("ml.auto_fit_calls"), 2);
    assert!(walked.spans.n("ml.distinct_rows") <= walked.spans.n("ml.train_rows"));
}

#[test]
fn gate_sat_shape() {
    let spec = spec(
        "benchmarks = SIM_SPI\nlevels = gate\nschemes = era xor-xnor mux\nbudgets = 0.5\n\
         seeds = 3\nattacks = sat none\nwidth = 4\n",
    );
    let engine = Engine::new().run(&spec);
    assert!(engine
        .records
        .iter()
        .filter(|r| r.attack == "sat")
        .all(|r| r.sat_proved == Some(true)));
    assert_walk_matches(&spec, None, &engine);
    let walked = walk_pass(&spec, None);
    assert_eq!(walked.spans.n("sat.cells"), 3);
    assert!(walked.spans.n("netlist.sim_queries") > 0);
}

#[test]
fn lock_replay_shape() {
    let spec = spec(
        "benchmarks = SASC\nschemes = assure hra era\nbudgets = 0.5\nseeds = 1 2\n\
         attacks = kpa-model pair-analysis none\n",
    );
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lock-replay-shape");
    remove_dir(&dir).expect("fresh spill dir");
    let cold = Engine::new().with_cache_dir(&dir).run(&spec);
    let warm = Engine::new().with_cache_dir(&dir).run(&spec);
    assert_eq!(warm.canonical_jsonl(), cold.canonical_jsonl());
    assert!(warm.cache.hits > cold.cache.hits);
    assert_walk_matches(&spec, Some(&dir), &warm);
    let walked = walk_pass(&spec, Some(&dir));
    assert_eq!(
        walked.spans.n("locking.lock_calls"),
        0,
        "every lock is read back"
    );
    assert!(walked.spans.ms("rtl.parse") > 0.0);
    remove_dir(&dir).expect("spill dir removed");
}

#[test]
fn checker_flags_a_changed_cell() {
    let spec = spec(
        "benchmarks = FIR\nschemes = assure era\nbudgets = 0.5\nseeds = 9\n\
         attacks = kpa-model none\n",
    );
    let report = Engine::new().run(&spec);
    // Not the default seed: the first stream becomes the expectation.
    let inputs = Workload::LockReplay.inputs(9).expect("inputs build");
    let mut checker = Checker::new(&inputs);
    assert_eq!(checker.check(&report), 0);
    assert_eq!(checker.check(&report), 0);
    let mut changed = report.clone();
    changed.records[0].kpa = changed.records[0].kpa.map(|k| k + 1.0);
    assert_eq!(checker.check(&changed), 1);
    assert_eq!(
        (checker.attempted, checker.failed),
        (3 * report.records.len(), 1)
    );
    // New instances: the next stream checked becomes the expectation.
    checker.restart();
    assert_eq!(checker.check(&changed), 0);
    assert_eq!(checker.check(&report), 1);
}
