//! Integration coverage for the run analyzer: `mlrl report` against a
//! frozen run-dir fixture (golden snapshot, so the renderer stays
//! byte-stable), its folded-stack export, and the CLI subcommand.
//!
//! The fixture under `tests/data/report_fixture/` is a real (quick)
//! 2-worker orchestration's `journal.jsonl` + `metrics.json` +
//! `trace.json`, frozen at capture time; every number in the golden
//! report derives from those bytes, so the comparison is exact.

use std::path::Path;
use std::process::Command;

fn mlrl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mlrl"))
}

fn fixture() -> &'static Path {
    Path::new("tests/data/report_fixture")
}

#[test]
fn report_reproduces_the_golden_snapshot_byte_for_byte() {
    let golden = std::fs::read_to_string("tests/data/report_golden.txt").expect("golden report");
    let rendered =
        mlrl::orchestrate::render_report(fixture(), &mlrl::orchestrate::ReportOptions::default())
            .expect("report renders");
    assert_eq!(
        rendered, golden,
        "report output drifted from tests/data/report_golden.txt; \
         regenerate it with `mlrl report tests/data/report_fixture` if the change is intended"
    );
}

#[test]
fn folded_stack_export_matches_its_golden() {
    let golden =
        std::fs::read_to_string("tests/data/report_golden.folded").expect("golden folded stacks");
    let out = std::env::temp_dir().join(format!("mlrl-folded-{}.txt", std::process::id()));
    let opts = mlrl::orchestrate::ReportOptions {
        folded_out: Some(out.clone()),
        ..Default::default()
    };
    let rendered = mlrl::orchestrate::render_report(fixture(), &opts).expect("report renders");
    assert!(rendered.contains("folded stacks written to"));
    let folded = std::fs::read_to_string(&out).expect("folded file written");
    let _ = std::fs::remove_file(&out);
    assert_eq!(folded, golden, "folded-stack export drifted");
    // Shape sanity: every line is `lane;frame[;frame...] <self_us>`.
    for line in folded.lines() {
        let (stack, self_us) = line.rsplit_once(' ').expect("space-separated");
        assert!(
            stack.contains(';'),
            "stack must carry a lane prefix: {line}"
        );
        self_us.parse::<u64>().expect("numeric self time");
    }
}

#[test]
fn report_subcommand_prints_the_report() {
    let out = mlrl()
        .args(["report", fixture().to_str().unwrap(), "--top", "3"])
        .output()
        .expect("run mlrl report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(text.contains("campaign \"gate-vs-rtl-sweep\": 16 of 16 cells journaled"));
    assert!(text.contains("slowest cells (top 3)"));
    assert!(!text.contains(" 4. cell"), "--top 3 must truncate the list");
}
