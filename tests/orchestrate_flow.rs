//! Integration tests of `mlrl orchestrate`, driven through the real CLI
//! binary: worker processes, supervision, crash restart, checkpoint
//! resume — all proven against the one invariant that matters, byte
//! identity with the unsharded single-process run.
//!
//! Worker crashes are injected with the `MLRL_FAULT_CELL` env var (the
//! worker aborts right before executing that grid cell); adding
//! `MLRL_FAULT_FLAG=<path>` makes the fault one-shot so restarted or
//! resumed workers get through; `MLRL_FAULT_HALF_DONE=1` makes the worker
//! run the cell and die halfway through writing its `done` line.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn mlrl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mlrl"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlrl-orch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Writes the acceptance spec (4 cells: 2 schemes × {freq-table, none})
/// and returns its path.
fn write_spec(dir: &Path) -> PathBuf {
    let path = dir.join("campaign.spec");
    std::fs::write(
        &path,
        "name       = orch-flow\n\
         benchmarks = FIR\n\
         schemes    = assure era\n\
         budgets    = 0.5\n\
         seeds      = 11\n\
         attacks    = freq-table none\n\
         relock_rounds = 6\n\
         threads    = 1\n",
    )
    .expect("write spec");
    path
}

fn stdout_of(out: &Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The single-process canonical reference stream.
fn unsharded_reference(spec: &Path) -> String {
    let out = mlrl()
        .args(["campaign", spec.to_str().unwrap(), "--canonical"])
        .output()
        .expect("run campaign");
    stdout_of(&out, "single-process campaign")
}

#[test]
fn orchestrated_runs_are_byte_identical_to_the_single_process_run() {
    let dir = tmpdir("basic");
    let spec = write_spec(&dir);
    let full = unsharded_reference(&spec);

    let run_dir = dir.join("run");
    let out = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--quick",
            "--run-dir",
            run_dir.to_str().unwrap(),
            "--canonical",
        ])
        .output()
        .expect("run orchestrate");
    let orchestrated = stdout_of(&out, "orchestrate");
    assert_eq!(
        orchestrated, full,
        "orchestrated canonical bytes must equal the unsharded run's"
    );

    // The run dir holds the journal and the merged stream.
    assert!(run_dir.join("journal.jsonl").exists());
    assert_eq!(
        std::fs::read_to_string(run_dir.join("merged.jsonl")).expect("merged written"),
        full
    );
    // Workers shared the run dir's content-addressed cache.
    assert!(
        std::fs::read_dir(run_dir.join("cache"))
            .map(|entries| entries.count() > 0)
            .unwrap_or(false),
        "workers must spill into the shared cache dir"
    );
    // The final fleet snapshot, its clock readings masked.
    let fleet = std::fs::read_to_string(run_dir.join("fleet.json")).expect("fleet written");
    assert_eq!(
        mask_clock_fields(&fleet),
        "{\"updated_unix_ms\":N,\"cells_total\":4,\"cells_done\":4,\"eta_s\":N,\"workers\":[\
         {\"id\":0,\"state\":\"done\",\"pending\":0,\"hb_ms\":N},\
         {\"id\":1,\"state\":\"done\",\"pending\":0,\"hb_ms\":N}]}\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `text` with the value of every wall-clock field of `fleet.json`
/// (`updated_unix_ms`, `eta_s`, `hb_ms`, `cell_ms`) replaced by `N`.
fn mask_clock_fields(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = ["updated_unix_ms", "eta_s", "hb_ms", "cell_ms"]
        .iter()
        .filter_map(|k| rest.find(&format!("\"{k}\":")).map(|i| i + k.len() + 3))
        .min()
    {
        out.push_str(&rest[..at]);
        out.push('N');
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_alphanumeric());
    }
    out.push_str(rest);
    out
}

#[test]
fn crashed_workers_are_restarted_without_perturbing_the_bytes() {
    let dir = tmpdir("crash");
    let spec = write_spec(&dir);
    let full = unsharded_reference(&spec);

    let run_dir = dir.join("run");
    let flag = dir.join("fault-fired");
    let out = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--quick",
            "--run-dir",
            run_dir.to_str().unwrap(),
            "--canonical",
        ])
        .env("MLRL_FAULT_CELL", "2")
        .env("MLRL_FAULT_FLAG", &flag)
        .output()
        .expect("run orchestrate");
    let orchestrated = stdout_of(&out, "orchestrate with injected crash");
    assert!(flag.exists(), "the injected fault must actually fire");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("restarting"),
        "supervisor must report the restart: {stderr}"
    );
    assert_eq!(
        orchestrated, full,
        "a crash-restarted orchestration must still emit the exact unsharded bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that dies mid-write leaves half a `done` line with no
/// newline. The supervisor must not journal that torn record: it restarts
/// the worker, the cell runs again, and the merged bytes are exact.
#[test]
fn torn_done_lines_are_rejected_and_the_cell_is_rerun() {
    let dir = tmpdir("torn-done");
    let spec = write_spec(&dir);
    let full = unsharded_reference(&spec);

    let run_dir = dir.join("run");
    let flag = dir.join("fault-fired");
    let out = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--quick",
            "--run-dir",
            run_dir.to_str().unwrap(),
            "--canonical",
        ])
        .env("MLRL_FAULT_CELL", "2")
        .env("MLRL_FAULT_FLAG", &flag)
        .env("MLRL_FAULT_HALF_DONE", "1")
        .output()
        .expect("run orchestrate");
    let orchestrated = stdout_of(&out, "orchestrate with a torn done line");
    assert!(flag.exists(), "the injected fault must actually fire");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("restarting"),
        "supervisor must report the restart: {stderr}"
    );
    assert_eq!(
        orchestrated, full,
        "a torn done line must not reach the merged bytes"
    );
    // The journal holds the header and each cell's whole record once.
    let journal = std::fs::read_to_string(run_dir.join("journal.jsonl")).expect("journal kept");
    let records: Vec<&str> = journal.lines().skip(1).collect();
    assert_eq!(records.len(), 4, "{journal}");
    for line in records {
        assert!(
            full.lines().any(|l| l == line),
            "journaled record is not a whole canonical line: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_orchestrations_resume_from_the_journal_to_the_exact_bytes() {
    let dir = tmpdir("resume");
    let spec = write_spec(&dir);
    let full = unsharded_reference(&spec);
    let run_dir = dir.join("run");

    // Phase 1: a worker dies mid-campaign and the restart budget is 0,
    // so the whole orchestration aborts — the "killed" scenario, with
    // the journal left behind.
    let out = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--quick",
            "--run-dir",
            run_dir.to_str().unwrap(),
            "--max-restarts",
            "0",
        ])
        .env("MLRL_FAULT_CELL", "2")
        .output()
        .expect("run orchestrate");
    assert!(
        !out.status.success(),
        "restart budget 0 must abort on the injected crash"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume"),
        "abort must point at resume: {stderr}"
    );
    let journal = std::fs::read_to_string(run_dir.join("journal.jsonl")).expect("journal retained");
    let checkpointed = journal.lines().count().saturating_sub(1);
    assert!(
        checkpointed >= 1,
        "cells completed before the crash must be checkpointed:\n{journal}"
    );
    assert!(
        checkpointed < 4,
        "the faulted cell must not be checkpointed:\n{journal}"
    );

    // Phase 2: resume (fault cleared) recomputes only the remainder and
    // lands on the exact unsharded bytes.
    let out = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--quick",
            "--resume",
            run_dir.to_str().unwrap(),
            "--canonical",
        ])
        .output()
        .expect("resume orchestrate");
    let resumed = stdout_of(&out, "resumed orchestrate");
    assert_eq!(
        resumed, full,
        "killed-and-resumed orchestration must emit the exact unsharded bytes"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{checkpointed} resumed")),
        "resume must replay the checkpointed cells: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_runs_refuse_to_clobber_an_existing_journal() {
    let dir = tmpdir("guard");
    let spec = write_spec(&dir);
    let run_dir = dir.join("run");
    let first = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--workers",
            "1",
            "--quick",
            "--run-dir",
            run_dir.to_str().unwrap(),
        ])
        .output()
        .expect("run orchestrate");
    stdout_of(&first, "first orchestrate");

    let second = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--workers",
            "1",
            "--quick",
            "--run-dir",
            run_dir.to_str().unwrap(),
        ])
        .output()
        .expect("rerun orchestrate");
    assert!(!second.status.success(), "must refuse to clobber");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("--resume"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Telemetry across process boundaries: a traced orchestration must
/// emit the exact unsharded bytes, export a valid Chrome trace, and
/// aggregate worker metrics into a fleet rollup that accounts for every
/// cell — both at `--metrics-out` and in `<run-dir>/metrics.json`.
#[test]
fn traced_orchestrations_aggregate_worker_metrics_without_perturbing_bytes() {
    let dir = tmpdir("telemetry");
    let spec = write_spec(&dir);
    let full = unsharded_reference(&spec);

    // The traced single-process campaign is also byte-identical.
    let campaign_trace = dir.join("campaign-trace.json");
    let campaign_metrics = dir.join("campaign-metrics.json");
    let out = mlrl()
        .args([
            "campaign",
            spec.to_str().unwrap(),
            "--canonical",
            "--trace-out",
            campaign_trace.to_str().unwrap(),
            "--metrics-out",
            campaign_metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run traced campaign");
    assert_eq!(
        stdout_of(&out, "traced campaign"),
        full,
        "traced campaign bytes must equal the untraced run's"
    );
    assert!(campaign_trace.exists() && campaign_metrics.exists());

    let run_dir = dir.join("run");
    let trace = dir.join("trace.json");
    let metrics_out = dir.join("metrics.json");
    let out = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--quick",
            "--run-dir",
            run_dir.to_str().unwrap(),
            "--canonical",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics_out.to_str().unwrap(),
        ])
        .output()
        .expect("run traced orchestrate");
    let orchestrated = stdout_of(&out, "traced orchestrate");
    assert_eq!(
        orchestrated, full,
        "traced orchestration bytes must equal the unsharded run's"
    );

    // The fleet rollup accounts for every cell, exactly: worker
    // processes are isolated sinks, so unlike in-process tests the
    // counters admit `==` assertions.
    let rollup = std::fs::read_to_string(&metrics_out).expect("metrics rollup written");
    let metrics = mlrl::obs::Metrics::parse(&rollup).expect("metrics rollup parses");
    assert_eq!(
        metrics.counters.get("cells.completed"),
        Some(&4),
        "fleet rollup must account for all 4 cells (counters: {:?})",
        metrics.counters
    );
    assert_eq!(metrics.counters.get("cells.failed"), None);
    assert_eq!(metrics.counters.get("orch.cells.total"), Some(&4));
    assert!(
        metrics
            .counters
            .get("orch.workers.spawned")
            .is_some_and(|&n| n >= 2),
        "two workers must be spawned (counters: {:?})",
        metrics.counters
    );
    assert!(
        metrics.spans.get("cell").is_some_and(|s| s.count == 4),
        "worker cell spans must aggregate (spans: {:?})",
        metrics.spans
    );

    // Histograms fold across the fleet bucket-wise: the workers' cell
    // spans and the supervisor's protocol-observed wall times both
    // account for all 4 cells.
    assert!(
        metrics.hists.get("cell").is_some_and(|h| h.count() == 4),
        "worker cell histograms must merge (hists: {:?})",
        metrics.hists.keys().collect::<Vec<_>>()
    );
    assert!(
        metrics
            .hists
            .get("orch.cell_wall_us")
            .is_some_and(|h| h.count() == 4 && h.p99() <= h.max()),
        "supervisor must histogram per-cell wall time (hists: {:?})",
        metrics.hists.keys().collect::<Vec<_>>()
    );

    // Per-worker gauges must not collapse under the fleet's max-merge:
    // the supervisor namespaces each slot's gauges (`w<id>.`), so both
    // workers' pool utilization readings survive side by side.
    let namespaced: Vec<&String> = metrics
        .gauges
        .keys()
        .filter(|k| k.starts_with("w0.pool.") || k.starts_with("w1.pool."))
        .collect();
    assert!(
        namespaced.len() >= 2,
        "both workers' gauges must survive the fold (gauges: {:?})",
        metrics.gauges.keys().collect::<Vec<_>>()
    );

    // The supervisor drops the same rollup next to the journal.
    // Every run-dir file was replaced whole: no temp file is left over.
    let leftovers: Vec<String> = std::fs::read_dir(&run_dir)
        .expect("list run dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    let in_run_dir = std::fs::read_to_string(run_dir.join("metrics.json"))
        .expect("run dir holds the fleet rollup");
    assert_eq!(in_run_dir, rollup);

    // The trace is valid JSON carrying supervisor-synthesized worker
    // lanes and per-cell spans.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let doc = mlrl::obs::json::parse(&text).expect("trace is valid JSON");
    let events = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let names: Vec<String> = events
        .iter()
        .filter_map(|e| {
            e.as_object()
                .and_then(|o| o.get("name"))
                .and_then(|n| n.as_str())
                .map(str::to_owned)
        })
        .collect();
    assert!(
        (0..4).all(|i| names.iter().any(|n| n == &format!("cell {i}"))),
        "trace must span every cell: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("worker ")),
        "trace must span worker lifecycles: {names:?}"
    );

    // The run dir's merged fleet trace interleaves real worker-side
    // spans (lanes namespaced `w<slot>/`, streamed over the protocol
    // and skew-corrected) with supervisor-synthesized `orch/` lanes.
    let merged =
        std::fs::read_to_string(run_dir.join("trace.json")).expect("merged fleet trace written");
    let doc = mlrl::obs::json::parse(&merged).expect("merged trace is valid JSON");
    let events = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("merged traceEvents array");
    let lanes: Vec<String> = events
        .iter()
        .filter_map(|e| {
            let o = e.as_object()?;
            if o.get("name")?.as_str()? != "thread_name" {
                return None;
            }
            o.get("args")?
                .as_object()?
                .get("name")?
                .as_str()
                .map(str::to_owned)
        })
        .collect();
    let worker_slots: std::collections::HashSet<&str> = lanes
        .iter()
        .filter_map(|l| l.strip_prefix('w')?.split_once('/').map(|(slot, _)| slot))
        .filter(|slot| slot.chars().all(|c| c.is_ascii_digit()))
        .collect();
    assert!(
        worker_slots.len() >= 2,
        "streamed lanes from both worker slots must appear: {lanes:?}"
    );
    assert!(
        lanes.iter().any(|l| l.starts_with("orch/")),
        "supervisor-synthesized lanes must live under orch/: {lanes:?}"
    );
    // Collision guard: the namespaces keep every lane label unique.
    let mut deduped = lanes.clone();
    deduped.sort();
    deduped.dedup();
    assert_eq!(deduped.len(), lanes.len(), "lane labels collide: {lanes:?}");
    let merged_names: Vec<String> = events
        .iter()
        .filter_map(|e| {
            e.as_object()
                .and_then(|o| o.get("name"))
                .and_then(|n| n.as_str())
                .map(str::to_owned)
        })
        .collect();
    assert!(
        merged_names.iter().any(|n| n.starts_with("phase.")),
        "worker-side phase spans must reach the merged trace: {merged_names:?}"
    );

    // The live console reads the same run dir after the fact.
    let out = mlrl()
        .args(["top", run_dir.to_str().unwrap(), "--once"])
        .output()
        .expect("run top");
    let console = stdout_of(&out, "top --once");
    assert!(console.contains("4/4 cells"), "{console}");
    assert!(console.contains("w0"), "{console}");
    assert!(console.contains("p99"), "{console}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol compatibility under a hostile trace stream: with
/// `MLRL_FAULT_TRACE=1` every worker interleaves unknown verbs,
/// truncated trace chunks, non-JSON trace payloads and a metrics payload
/// with a negative counter with its real traffic — and the orchestration
/// must still emit the exact bytes and a well-formed merged trace.
#[test]
fn hostile_trace_streams_never_corrupt_bytes_or_the_merged_trace() {
    let dir = tmpdir("fault-trace");
    let spec = write_spec(&dir);
    let full = unsharded_reference(&spec);

    let run_dir = dir.join("run");
    let metrics_out = dir.join("metrics.json");
    let out = mlrl()
        .args([
            "orchestrate",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--quick",
            "--run-dir",
            run_dir.to_str().unwrap(),
            "--canonical",
            "--metrics-out",
            metrics_out.to_str().unwrap(),
        ])
        .env("MLRL_FAULT_TRACE", "1")
        .output()
        .expect("run orchestrate under trace faults");
    let orchestrated = stdout_of(&out, "orchestrate under trace faults");
    assert_eq!(
        orchestrated, full,
        "garbled trace traffic must never perturb canonical bytes"
    );

    // The merged trace still parses; the malformed chunks were rejected
    // whole (counted, not half-merged).
    let merged = std::fs::read_to_string(run_dir.join("trace.json")).expect("merged trace written");
    mlrl::obs::json::parse(&merged).expect("merged trace is valid JSON despite garbled chunks");
    let rollup = std::fs::read_to_string(&metrics_out).expect("metrics rollup written");
    let metrics = mlrl::obs::Metrics::parse(&rollup).expect("metrics rollup parses");
    assert_eq!(metrics.counters.get("cells.completed"), Some(&4));
    assert!(
        metrics
            .counters
            .get("orch.trace.rejected")
            .is_some_and(|&n| n >= 1),
        "rejected chunks must be counted (counters: {:?})",
        metrics.counters
    );
    assert!(
        metrics
            .counters
            .get("orch.metrics.rejected")
            .is_some_and(|&n| n >= 1),
        "rejected metrics payloads must be counted (counters: {:?})",
        metrics.counters
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--telemetry` worker upgrades the protocol in place: an
/// epoch-bearing hello, incremental `trace` chunks after completions,
/// and a final flush before the payload-carrying bye. A reader
/// predating those lines sees only additions it already skips.
#[test]
fn telemetry_workers_stream_epoch_hellos_and_trace_chunks() {
    let dir = tmpdir("worker-telemetry");
    let spec = write_spec(&dir);
    let out = mlrl()
        .args([
            "worker",
            spec.to_str().unwrap(),
            "--cells",
            "0,3",
            "--threads",
            "1",
            "--telemetry",
        ])
        .output()
        .expect("run telemetry worker");
    let stdout = stdout_of(&out, "telemetry worker");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines
            .first()
            .is_some_and(|l| l.starts_with("mlrl-worker v1 cells=2 epoch_us=")),
        "telemetry hello must carry the worker's trace epoch: {stdout}"
    );
    assert!(
        lines.last().is_some_and(|l| l.starts_with("bye 2 {")),
        "telemetry bye must carry the metrics payload: {stdout}"
    );
    let trace_lines: Vec<&&str> = lines.iter().filter(|l| l.starts_with("trace ")).collect();
    assert!(
        !trace_lines.is_empty(),
        "completions must stream trace chunks: {stdout}"
    );
    for line in &trace_lines {
        let payload = line.strip_prefix("trace ").unwrap();
        let chunk = mlrl::obs::json::parse(payload).expect("trace chunk is valid JSON");
        let obj = chunk.as_object().expect("chunk object");
        assert!(
            obj.contains_key("lanes") && obj.contains_key("events"),
            "{line}"
        );
    }
    // Chunks flow strictly after the done they describe, and the last
    // one after the final done (the pre-bye flush).
    let first_done = lines.iter().position(|l| l.starts_with("done ")).unwrap();
    let first_trace = lines.iter().position(|l| l.starts_with("trace ")).unwrap();
    assert!(first_trace > first_done, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workers_speak_the_line_protocol() {
    let dir = tmpdir("worker");
    let spec = write_spec(&dir);
    let out = mlrl()
        .args([
            "worker",
            spec.to_str().unwrap(),
            "--cells",
            "0,3",
            "--threads",
            "1",
            "--cache-dir",
            dir.join("cache").to_str().unwrap(),
        ])
        .output()
        .expect("run worker");
    let stdout = stdout_of(&out, "worker");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.first(), Some(&"mlrl-worker v1 cells=2"), "{stdout}");
    assert_eq!(lines.last(), Some(&"bye 2"), "{stdout}");
    for index in [0usize, 3] {
        assert!(
            lines.iter().any(|l| *l == format!("start {index}")),
            "{stdout}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(&format!("done {index} {{\"index\":{index},"))),
            "{stdout}"
        );
    }

    // Out-of-range cells are rejected up front.
    let out = mlrl()
        .args(["worker", spec.to_str().unwrap(), "--cells", "99"])
        .output()
        .expect("run worker");
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
