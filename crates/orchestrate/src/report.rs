//! `mlrl report` — the offline run analyzer.
//!
//! Consumes the artifacts an orchestration leaves behind in its
//! [`crate::run_dir`] — journal, metrics rollup and Chrome trace — and
//! renders the questions the raw files cannot
//! answer at a glance: where the wall time went per phase, how the
//! latency distributions look (p50/p90/p99 from the histogram rollup),
//! cache effectiveness, which worker straggled, and which cells were
//! slowest. `--folded-out` additionally exports folded stacks
//! (`lane;outer;inner <self_us>`) for `flamegraph.pl`-style tooling.
//!
//! Everything is parsed with [`mlrl_obs::json`] and rendered
//! deterministically: a fixed set of input files produces a
//! byte-identical report, which the golden-snapshot test pins.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mlrl_obs::json::{self, Value};
use mlrl_obs::Metrics;

use crate::journal::{read_journal, JournalContents};
use crate::run_dir::RunDir;

/// Options for [`render_report`].
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// How many slowest cells to list.
    pub top: usize,
    /// Trace file override; defaults to `<run-dir>/trace.json`.
    pub trace: Option<PathBuf>,
    /// When set, write folded stacks for flamegraph tooling here.
    pub folded_out: Option<PathBuf>,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            top: 10,
            trace: None,
            folded_out: None,
        }
    }
}

/// One complete (`ph == "X"`) trace event.
#[derive(Debug, Clone)]
struct TraceSpan {
    name: String,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

/// The parsed trace: lane labels by tid plus all complete spans.
#[derive(Debug, Default)]
struct Trace {
    lanes: BTreeMap<u64, String>,
    spans: Vec<TraceSpan>,
}

impl Trace {
    fn parse(text: &str) -> Option<Trace> {
        let doc = json::parse(text)?;
        let events = doc.as_object()?.get("traceEvents")?.as_array()?;
        let mut trace = Trace::default();
        for ev in events {
            let obj = ev.as_object()?;
            let name = obj.get("name")?.as_str()?.to_owned();
            // A missing or malformed field rejects the whole trace.
            let field = |key: &str| obj.get(key).and_then(Value::as_u64);
            match obj.get("ph").and_then(Value::as_str) {
                Some("M") if name == "thread_name" => {
                    let tid = field("tid")?;
                    if let Some(label) = obj
                        .get("args")
                        .and_then(Value::as_object)
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                    {
                        trace.lanes.insert(tid, label.to_owned());
                    }
                }
                Some("X") => trace.spans.push(TraceSpan {
                    name,
                    ts_us: field("ts")?,
                    dur_us: field("dur")?,
                    tid: field("tid")?,
                }),
                _ => {}
            }
        }
        Some(trace)
    }

    fn lane_label(&self, tid: u64) -> String {
        self.lanes
            .get(&tid)
            .cloned()
            .unwrap_or_else(|| format!("lane-{tid}"))
    }
}

/// A duration in microseconds as `us`, `ms` or `s`, two decimals past
/// a microsecond (`mlrl report` and `mlrl top` share it).
pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}%", part as f64 / whole as f64 * 100.0)
    }
}

/// Render the full report for `run_dir`. Missing artifacts degrade to a
/// note in their section rather than an error — only an unreadable or
/// malformed journal is fatal, because without it there is no run to
/// describe. When `opts.folded_out` is set the folded-stack export is
/// written as a side effect.
///
/// # Errors
///
/// Returns a message when the journal is missing/malformed or the
/// folded output cannot be written.
pub fn render_report(run_dir: &Path, opts: &ReportOptions) -> Result<String, String> {
    let run_dir = RunDir::new(run_dir);
    let journal = read_journal(&run_dir)?;
    let metrics = run_dir.read_metrics();
    let trace_path = opts.trace.clone().unwrap_or_else(|| run_dir.trace());
    let trace = std::fs::read_to_string(&trace_path)
        .ok()
        .and_then(|t| Trace::parse(&t));

    let mut out = String::new();
    out.push_str(&format!(
        "run report: {}\ncampaign \"{}\": {} of {} cells journaled\n",
        run_dir.root().display(),
        journal.campaign,
        journal.records.len(),
        journal.jobs
    ));

    match &metrics {
        None => out.push_str("\nmetrics: no readable metrics.json in the run dir\n"),
        Some(m) => {
            render_phases(&mut out, m);
            render_hists(&mut out, m);
            render_cache(&mut out, m);
        }
    }

    match &trace {
        None => out.push_str(&format!(
            "\ntrace: no readable trace at {} (pass --trace <file>)\n",
            trace_path.display()
        )),
        Some(t) => {
            render_workers(&mut out, t);
            render_worker_phases(&mut out, t, metrics.as_ref());
            render_slowest_cells(&mut out, t, &journal, opts.top);
        }
    }

    if let Some(folded_path) = &opts.folded_out {
        let Some(t) = &trace else {
            return Err(format!(
                "--folded-out needs a trace, and none was readable at {}",
                trace_path.display()
            ));
        };
        let folded = folded_stacks(t);
        std::fs::write(folded_path, folded)
            .map_err(|e| format!("cannot write {}: {e}", folded_path.display()))?;
        out.push_str(&format!(
            "\nfolded stacks written to {}\n",
            folded_path.display()
        ));
    }

    Ok(out)
}

/// Phase-time breakdown from `phase.*` span stats, largest share first.
fn render_phases(out: &mut String, metrics: &Metrics) {
    let phases: Vec<(&String, u64, u64)> = metrics
        .spans
        .iter()
        .filter(|(k, _)| k.starts_with("phase."))
        .map(|(k, v)| (k, v.count, v.total_us))
        .collect();
    if phases.is_empty() {
        return;
    }
    let whole: u64 = phases.iter().map(|(_, _, t)| t).sum();
    let mut ranked = phases;
    ranked.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(b.0)));
    out.push_str("\nphase breakdown (summed across workers)\n");
    for (name, count, total) in ranked {
        out.push_str(&format!(
            "  {name:<14} {:>10}  {:>6}  x{count}\n",
            fmt_us(total),
            pct(total, whole)
        ));
    }
    // Settle throughput from the simulator lane counters: every settle
    // reports how many boolean lanes (vectors/keys) its walk carried, so
    // lanes-per-second over the summed phase time is the regression
    // signal for the multi-word SIMD paths.
    let settles = metrics.counters.get("sim.settles").copied().unwrap_or(0);
    let lanes = metrics.counters.get("sim.lanes").copied().unwrap_or(0);
    if settles > 0 && whole > 0 {
        let per_sec = lanes as f64 * 1e6 / whole as f64;
        out.push_str(&format!(
            "  settle throughput: {lanes} vectors in {settles} settles ({:.0} lanes/settle, ~{:.0} vectors/sec of phase time)\n",
            lanes as f64 / settles as f64,
            per_sec
        ));
    }
    // Optimizer effectiveness: the `phase.opt` row above says where the
    // time went; this line says what it bought, per pass.
    let removed = metrics
        .counters
        .get("opt.gates_removed")
        .copied()
        .unwrap_or(0);
    let rounds = metrics.counters.get("opt.iterations").copied().unwrap_or(0);
    if rounds > 0 {
        let mut per_pass: Vec<(&str, u64)> = metrics
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let pass = k.strip_prefix("opt.pass.")?.strip_suffix(".removed")?;
                (v > 0).then_some((pass, v))
            })
            .collect();
        per_pass.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let detail: Vec<String> = per_pass
            .iter()
            .map(|(pass, v)| format!("{pass} {v}"))
            .collect();
        out.push_str(&format!(
            "  optimizer: {removed} gates removed in {rounds} fixed-point rounds ({})\n",
            if detail.is_empty() {
                "no pass removed anything".to_owned()
            } else {
                detail.join(", ")
            }
        ));
    }
}

/// Latency distributions: percentiles for every histogram in the rollup.
fn render_hists(out: &mut String, metrics: &Metrics) {
    let live: Vec<_> = metrics
        .hists
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .collect();
    if live.is_empty() {
        return;
    }
    out.push_str("\nlatency distributions (us)\n");
    out.push_str(&format!(
        "  {:<22} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
        "name", "count", "p50", "p90", "p99", "max"
    ));
    for (name, h) in live {
        let p = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
        out.push_str(&format!(
            "  {:<22} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
            name,
            h.count(),
            p(h.p50()),
            p(h.p90()),
            p(h.p99()),
            p(h.max())
        ));
    }
}

/// Cache effectiveness from the `cache.*` counters.
fn render_cache(out: &mut String, metrics: &Metrics) {
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
    let (lhits, lmisses) = (
        counter("cache.lowered_hits"),
        counter("cache.lowered_misses"),
    );
    if hits + misses + lhits + lmisses == 0 {
        return;
    }
    out.push_str("\ncache\n");
    out.push_str(&format!(
        "  locked artifacts: {hits} hits / {misses} misses (hit rate {})\n",
        pct(hits, hits + misses)
    ));
    if lhits + lmisses > 0 {
        out.push_str(&format!(
            "  lowered netlists: {lhits} hits / {lmisses} misses (hit rate {})\n",
            pct(lhits, lhits + lmisses)
        ));
    }
    out.push_str(&format!("  evictions: {}\n", counter("cache.evictions")));
}

/// Per-worker busy time and straggler ranking from the trace. A lane's
/// busy time is the sum of its top-level cell/worker spans; utilization
/// is busy over the whole run's wall span.
fn render_workers(out: &mut String, trace: &Trace) {
    // Busy time per lane from `cell *` spans (each cell span covers the
    // worker's active window for that cell; supervisor lanes carry them
    // for worker processes, pool lanes for in-process threads).
    let mut busy: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // tid → (busy_us, cells)
    for s in &trace.spans {
        if s.name.starts_with("cell ") {
            let e = busy.entry(s.tid).or_insert((0, 0));
            e.0 += s.dur_us;
            e.1 += 1;
        }
    }
    if busy.is_empty() {
        return;
    }
    let start = trace.spans.iter().map(|s| s.ts_us).min().unwrap_or(0);
    let end = trace
        .spans
        .iter()
        .map(|s| s.ts_us + s.dur_us)
        .max()
        .unwrap_or(0);
    let wall = end.saturating_sub(start);
    let mut ranked: Vec<(u64, u64, u64)> = busy
        .into_iter()
        .map(|(tid, (busy_us, cells))| (tid, busy_us, cells))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out.push_str(&format!(
        "\nworkers (run wall {}; busiest first — the top entry is the straggler)\n",
        fmt_us(wall)
    ));
    for (tid, busy_us, cells) in ranked {
        out.push_str(&format!(
            "  {:<16} busy {:>10} over {cells} cell(s), utilization {}\n",
            trace.lane_label(tid),
            fmt_us(busy_us),
            pct(busy_us, wall)
        ));
    }
}

/// Worker slot of a merged-trace lane label (`w<slot>/...`), if any.
fn slot_of_lane(label: &str) -> Option<u64> {
    let rest = label.strip_prefix('w')?;
    let (digits, _) = rest.split_once('/')?;
    digits.parse().ok()
}

/// Per-worker phase breakdown from the merged trace's `w<slot>/` lanes
/// — the distributed-tracing view: real worker-side `phase.*` spans on
/// each slot's namespaced lanes, not supervisor-synthesized timing.
/// Traces without such lanes (single-process runs, or orchestrations
/// predating worker trace streaming) get a note instead of an error.
/// The supervisor's `orch.clock_skew_us` gauge, when present, records
/// how far worker epoch claims had to be corrected against its own
/// receive timestamps — worth a line, since it bounds the alignment
/// error of every cross-worker comparison above.
fn render_worker_phases(out: &mut String, trace: &Trace, metrics: Option<&Metrics>) {
    let mut slots: BTreeMap<u64, BTreeMap<&str, u64>> = BTreeMap::new();
    for s in &trace.spans {
        if !s.name.starts_with("phase.") {
            continue;
        }
        let Some(label) = trace.lanes.get(&s.tid) else {
            continue;
        };
        let Some(slot) = slot_of_lane(label) else {
            continue;
        };
        *slots
            .entry(slot)
            .or_default()
            .entry(s.name.as_str())
            .or_insert(0) += s.dur_us;
    }
    if slots.is_empty() {
        out.push_str(
            "\nper-worker phases: none (trace has no w<slot>/ worker lanes — \
             single-process run or pre-streaming orchestration)\n",
        );
        return;
    }
    out.push_str("\nper-worker phases (worker-side spans from the merged trace)\n");
    for (slot, phases) in slots {
        let total: u64 = phases.values().sum();
        let mut ranked: Vec<(&str, u64)> = phases.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let detail: Vec<String> = ranked
            .iter()
            .map(|(name, us)| {
                format!(
                    "{} {}",
                    name.strip_prefix("phase.").unwrap_or(name),
                    fmt_us(*us)
                )
            })
            .collect();
        out.push_str(&format!(
            "  w{slot:<3} {:>10} in phases  ({})\n",
            fmt_us(total),
            detail.join(", ")
        ));
    }
    if let Some(skew) = metrics.and_then(|m| m.gauges.get("orch.clock_skew_us")) {
        out.push_str(&format!(
            "  clock skew: worker epochs corrected by up to {} against \
             supervisor receive timestamps\n",
            fmt_us(*skew as u64)
        ));
    }
}

/// `benchmark/level/attack` of a journaled record line (`?` for a
/// missing field).
fn cell_label(record: &str) -> String {
    let record = json::parse(record);
    let field = |key: &str| {
        record
            .as_ref()
            .and_then(Value::as_object)
            .and_then(|obj| obj.get(key))
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    format!(
        "{}/{}/{}",
        field("benchmark"),
        field("level"),
        field("attack")
    )
}

/// Top-N slowest cells from the trace, labeled via the journal records.
fn render_slowest_cells(out: &mut String, trace: &Trace, journal: &JournalContents, top: usize) {
    let mut cells: Vec<&TraceSpan> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("cell "))
        .collect();
    if cells.is_empty() || top == 0 {
        return;
    }
    cells.sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then_with(|| a.name.cmp(&b.name)));
    out.push_str(&format!("\nslowest cells (top {})\n", top.min(cells.len())));
    for (rank, s) in cells.iter().take(top).enumerate() {
        let label = s
            .name
            .strip_prefix("cell ")
            .and_then(|n| n.parse().ok())
            .and_then(|n| journal.records.get(&n))
            .map_or_else(String::new, |record| format!("  {}", cell_label(record)));
        out.push_str(&format!(
            "  {:>2}. {:<10} {:>10}  on {}{label}\n",
            rank + 1,
            s.name,
            fmt_us(s.dur_us),
            trace.lane_label(s.tid)
        ));
    }
}

/// Folded-stack export: one `lane;outer;...;leaf <self_us>` line per
/// distinct stack, self time aggregated, lines sorted — the input
/// format of `flamegraph.pl` and compatible viewers. Nesting is
/// reconstructed per lane from span containment (`[ts, ts+dur)`).
fn folded_stacks(trace: &Trace) -> String {
    let mut by_lane: BTreeMap<u64, Vec<&TraceSpan>> = BTreeMap::new();
    for s in &trace.spans {
        by_lane.entry(s.tid).or_default().push(s);
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (tid, mut spans) in by_lane {
        // Outer spans first at equal start so parents precede children.
        spans.sort_by(|a, b| a.ts_us.cmp(&b.ts_us).then_with(|| b.dur_us.cmp(&a.dur_us)));
        let lane = trace.lane_label(tid);
        // Stack of (span, child_time) of currently-open ancestors.
        let mut open: Vec<(&TraceSpan, u64)> = Vec::new();
        for s in spans {
            while let Some((top, _)) = open.last() {
                if s.ts_us >= top.ts_us + top.dur_us {
                    let (done, child_us) = open.pop().expect("non-empty");
                    emit_folded(&mut folded, &lane, &open, done, child_us);
                    if let Some((_, parent_child_us)) = open.last_mut() {
                        *parent_child_us += done.dur_us;
                    }
                } else {
                    break;
                }
            }
            open.push((s, 0));
        }
        while let Some((done, child_us)) = open.pop() {
            emit_folded(&mut folded, &lane, &open, done, child_us);
            if let Some((_, parent_child_us)) = open.last_mut() {
                *parent_child_us += done.dur_us;
            }
        }
    }
    let mut out = String::new();
    for (stack, self_us) in folded {
        out.push_str(&format!("{stack} {self_us}\n"));
    }
    out
}

fn emit_folded(
    folded: &mut BTreeMap<String, u64>,
    lane: &str,
    ancestors: &[(&TraceSpan, u64)],
    span: &TraceSpan,
    child_us: u64,
) {
    let mut stack = String::from(lane);
    for (a, _) in ancestors {
        stack.push(';');
        stack.push_str(&a.name);
    }
    stack.push(';');
    stack.push_str(&span.name);
    *folded.entry(stack).or_insert(0) += span.dur_us.saturating_sub(child_us);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: u64, dur: u64, tid: u64) -> TraceSpan {
        TraceSpan {
            name: name.to_owned(),
            ts_us: ts,
            dur_us: dur,
            tid,
        }
    }

    #[test]
    fn folded_stacks_nest_by_containment_and_report_self_time() {
        let mut trace = Trace::default();
        trace.lanes.insert(0, "worker 0".to_owned());
        // cell 1 [0,100) contains phase.lock [10,40) and phase.attack
        // [40,100); phase.attack contains sat.dip [50,70).
        trace.spans = vec![
            span("cell 1", 0, 100, 0),
            span("phase.lock", 10, 30, 0),
            span("phase.attack", 40, 60, 0),
            span("sat.dip", 50, 20, 0),
            span("cell 2", 120, 10, 0),
        ];
        let text = folded_stacks(&trace);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"worker 0;cell 1 10"), "{text}");
        assert!(lines.contains(&"worker 0;cell 1;phase.lock 30"), "{text}");
        assert!(lines.contains(&"worker 0;cell 1;phase.attack 40"), "{text}");
        assert!(
            lines.contains(&"worker 0;cell 1;phase.attack;sat.dip 20"),
            "{text}"
        );
        assert!(lines.contains(&"worker 0;cell 2 10"), "{text}");
        // Total self time equals total top-level wall time.
        let total: u64 = text
            .lines()
            .filter_map(|l| l.rsplit_once(' ')?.1.parse::<u64>().ok())
            .sum();
        assert_eq!(total, 110);
    }

    #[test]
    fn cells_are_labelled_from_their_journal_records() {
        let text = concat!(
            "{\"campaign\":\"demo\",\"jobs\":4}\n",
            "{\"index\":0,\"benchmark\":\"FIR\",\"level\":\"rtl\",\"attack\":\"sat\",\"kpa\":50.0}\n",
            "{\"index\":2,\"benchmark\":\"SPI\",\"level\":\"gate\",\"kpa\":null}\n",
            "{\"index\":3,\"bench", // truncated mid-write
        );
        let j = JournalContents::parse(text).expect("parses");
        assert_eq!(j.records.len(), 2);
        assert_eq!(cell_label(&j.records[&0]), "FIR/rtl/sat");
        assert_eq!(cell_label(&j.records[&2]), "SPI/gate/?");
    }

    #[test]
    fn phase_breakdown_reports_settle_throughput_from_lane_counters() {
        let mut m = Metrics::default();
        m.spans.insert(
            "phase.attack".to_owned(),
            mlrl_obs::SpanStat {
                count: 2,
                total_us: 2_000_000,
            },
        );
        m.counters.insert("sim.settles".to_owned(), 100);
        m.counters.insert("sim.lanes".to_owned(), 25_600);
        let mut out = String::new();
        render_phases(&mut out, &m);
        assert!(
            out.contains(
                "settle throughput: 25600 vectors in 100 settles \
                 (256 lanes/settle, ~12800 vectors/sec of phase time)"
            ),
            "{out}"
        );
        // Without settle counters the line is omitted entirely.
        let mut bare = Metrics::default();
        bare.spans.insert(
            "phase.attack".to_owned(),
            mlrl_obs::SpanStat {
                count: 1,
                total_us: 10,
            },
        );
        let mut out = String::new();
        render_phases(&mut out, &bare);
        assert!(!out.contains("settle throughput"), "{out}");
    }

    #[test]
    fn phase_breakdown_reports_optimizer_work_from_opt_counters() {
        let mut m = Metrics::default();
        m.spans.insert(
            "phase.opt".to_owned(),
            mlrl_obs::SpanStat {
                count: 4,
                total_us: 80_000,
            },
        );
        m.counters.insert("opt.gates_removed".to_owned(), 230);
        m.counters.insert("opt.iterations".to_owned(), 9);
        m.counters.insert("opt.pass.dce.removed".to_owned(), 150);
        m.counters
            .insert("opt.pass.cut_sweep.removed".to_owned(), 60);
        m.counters.insert("opt.pass.rewrite.removed".to_owned(), 20);
        m.counters.insert("opt.pass.cse.removed".to_owned(), 0);
        let mut out = String::new();
        render_phases(&mut out, &m);
        assert!(out.contains("phase.opt"), "{out}");
        assert!(
            out.contains(
                "optimizer: 230 gates removed in 9 fixed-point rounds \
                 (dce 150, cut_sweep 60, rewrite 20)"
            ),
            "{out}"
        );
        // O0 campaigns never run a round, so the line is omitted.
        let mut bare = Metrics::default();
        bare.spans.insert(
            "phase.lower".to_owned(),
            mlrl_obs::SpanStat {
                count: 1,
                total_us: 10,
            },
        );
        let mut out = String::new();
        render_phases(&mut out, &bare);
        assert!(!out.contains("optimizer:"), "{out}");
    }

    #[test]
    fn per_worker_phases_group_merged_trace_lanes_and_note_skew() {
        let mut trace = Trace::default();
        trace.lanes.insert(0, "w0/main".to_owned());
        trace.lanes.insert(1, "w1/pool-worker-0".to_owned());
        trace.lanes.insert(2, "orch/worker-0".to_owned());
        trace.spans = vec![
            span("phase.lock", 0, 100, 0),
            span("phase.attack", 100, 300, 0),
            span("phase.attack", 0, 250, 1),
            span("cell 0", 0, 400, 2),
        ];
        let mut m = Metrics::default();
        m.gauges.insert("orch.clock_skew_us".into(), 1500.0);
        let mut out = String::new();
        render_worker_phases(&mut out, &trace, Some(&m));
        assert!(out.contains("per-worker phases"), "{out}");
        assert!(out.contains("w0"), "{out}");
        assert!(out.contains("w1"), "{out}");
        assert!(out.contains("attack 300us"), "{out}");
        assert!(out.contains("clock skew"), "{out}");
        assert!(out.contains("1.50ms"), "{out}");

        // A trace without `w<slot>/` lanes (pre-streaming run) gets the
        // note, not an error — and no skew line without the gauge.
        let mut old = Trace::default();
        old.lanes.insert(0, "worker-0".to_owned());
        old.spans = vec![span("cell 1", 0, 10, 0)];
        let mut out = String::new();
        render_worker_phases(&mut out, &old, None);
        assert!(out.contains("no w<slot>/ worker lanes"), "{out}");
        assert!(!out.contains("clock skew"), "{out}");
    }

    #[test]
    fn malformed_span_fields_reject_the_whole_trace() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/report_fixture");
        let text = std::fs::read_to_string(fixture.join("trace.json")).expect("fixture trace");
        assert_eq!(Trace::parse(&text).expect("fixture parses").spans.len(), 18);
        let mutated = [
            (r#""ts":4164,"dur":2253,"#, r#""ts":4164,"dur":"12ms","#),
            (r#""dur":2,"pid":1,"tid":1"#, r#""dur":2,"pid":1,"tid":-7"#),
        ]
        .iter()
        .fold(text.clone(), |t, (from, to)| {
            assert!(t.contains(from), "{from}");
            t.replacen(from, to, 1)
        });
        assert!(Trace::parse(&mutated).is_none());

        let dir = std::env::temp_dir().join(format!("mlrl-report-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for name in ["journal.jsonl", "metrics.json"] {
            std::fs::copy(fixture.join(name), dir.join(name)).expect("copy fixture");
        }
        std::fs::write(dir.join("trace.json"), mutated).expect("trace");
        let report = render_report(&dir, &ReportOptions::default()).expect("renders");
        assert!(report.contains("no readable trace at"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_degrades_gracefully_without_metrics_or_trace() {
        let dir = std::env::temp_dir().join(format!("mlrl-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join("journal.jsonl"),
            "{\"campaign\":\"bare\",\"jobs\":2}\n",
        )
        .expect("journal");
        let text = render_report(&dir, &ReportOptions::default()).expect("renders");
        assert!(text.contains("campaign \"bare\": 0 of 2 cells journaled"));
        assert!(text.contains("no readable metrics.json"));
        assert!(text.contains("no readable trace"));
        // But a missing journal is fatal.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(render_report(&dir, &ReportOptions::default()).is_err());
    }
}
