//! `mlrl top` — the live fleet console.
//!
//! Tails a run directory's observability files and renders a refreshing
//! fleet view: campaign progress with the supervisor's blended ETA,
//! per-worker state / heartbeat age / utilization with stale-worker
//! highlighting, p50/p90/p99 cell latency, cache hit rates, process
//! memory, and the slowest in-flight cells, all read from the
//! [`crate::run_dir`]. Only the journal is required: a missing fleet
//! snapshot (older runs) or metrics rollup (runs without telemetry)
//! degrades to a note, so `mlrl top` works on any run dir. `--once` emits a
//! single plain snapshot for scripts and CI; live mode redraws until
//! the journal completes.

use std::path::Path;
use std::time::Duration;

use mlrl_obs::Metrics;

use crate::journal::read_journal;
use crate::report::fmt_us;
use crate::run_dir::{unix_ms, RunDir};

/// Knobs for [`render_top`] / [`run_top`].
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Redraw interval for live mode, milliseconds.
    pub refresh_ms: u64,
    /// Heartbeat age beyond which a worker row is flagged `STALE`.
    pub stale_ms: u64,
    /// Slowest in-flight cells to list.
    pub top_k: usize,
}

impl Default for TopOptions {
    fn default() -> Self {
        Self {
            refresh_ms: 1000,
            stale_ms: 5000,
            top_k: 3,
        }
    }
}

fn fmt_secs(ms: u64) -> String {
    format!("{:.1}s", ms as f64 / 1e3)
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2}GB", b / (1024.0 * 1024.0 * 1024.0))
    } else {
        format!("{:.1}MB", b / (1024.0 * 1024.0))
    }
}

/// Mean utilization of worker `id`'s pool threads, from the namespaced
/// `w<id>.pool.worker<k>.utilization` gauges in the fleet rollup.
fn worker_utilization(metrics: &Metrics, id: u64) -> Option<f64> {
    let prefix = format!("w{id}.pool.worker");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (k, v) in &metrics.gauges {
        if k.starts_with(&prefix) && k.ends_with(".utilization") {
            sum += v;
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// Render one plain-text snapshot of the run. Journal absence is the
/// only error; every other missing source degrades to a note.
pub fn render_top(run_dir: &Path, opts: &TopOptions) -> Result<String, String> {
    let run_dir = RunDir::new(run_dir);
    let journal = read_journal(&run_dir)?;
    let fleet = run_dir.read_fleet();
    let metrics = run_dir.read_metrics();
    let mut out = String::new();

    // Header: progress, ETA, snapshot freshness.
    let pct = if journal.jobs > 0 {
        journal.records.len() as f64 * 100.0 / journal.jobs as f64
    } else {
        100.0
    };
    out.push_str(&format!(
        "mlrl top · campaign \"{}\" · {}/{} cells ({pct:.0}%)",
        journal.campaign,
        journal.records.len(),
        journal.jobs
    ));
    if let Some(f) = &fleet {
        if journal.records.len() < journal.jobs {
            match f.eta_s {
                Some(s) => out.push_str(&format!(" · ETA {s}s")),
                None => out.push_str(" · ETA -"),
            }
        }
        let age = unix_ms().saturating_sub(f.updated_unix_ms);
        out.push_str(&format!(" · updated {} ago", fmt_secs(age)));
    }
    out.push('\n');

    // Worker rows.
    match &fleet {
        Some(f) => {
            out.push_str("workers\n");
            for w in &f.workers {
                let cell = match w.cell {
                    Some((c, ms)) => format!("cell #{c} ({})", fmt_secs(ms)),
                    None => "-".to_owned(),
                };
                let util = metrics
                    .as_ref()
                    .and_then(|m| worker_utilization(m, w.id))
                    .map(|u| format!("util {:.0}%", u * 100.0))
                    .unwrap_or_else(|| "util -".to_owned());
                // A finished worker's heartbeat age grows forever; only
                // flag staleness while it is supposed to be talking.
                let stale = matches!(w.state.as_str(), "running" | "idle" | "draining")
                    && w.hb_ms > opts.stale_ms;
                out.push_str(&format!(
                    "  w{:<3} {:<9} {:<18} hb {:<7} {:<9} pending {}{}\n",
                    w.id,
                    w.state,
                    cell,
                    fmt_secs(w.hb_ms),
                    util,
                    w.pending,
                    if stale { "  STALE" } else { "" }
                ));
            }
        }
        None => out.push_str("workers\n  (no fleet.json — run predates the live console)\n"),
    }

    match &metrics {
        Some(m) => {
            // Cell latency distribution: the supervisor's protocol-observed
            // wall times, falling back to worker-side cell spans.
            if let Some(h) = m
                .hists
                .get("orch.cell_wall_us")
                .filter(|h| h.count() > 0)
                .or_else(|| m.hists.get("cell").filter(|h| h.count() > 0))
            {
                out.push_str(&format!(
                    "cells   p50 {} · p90 {} · p99 {} · {} timed\n",
                    fmt_us(h.p50().unwrap_or(0)),
                    fmt_us(h.p90().unwrap_or(0)),
                    fmt_us(h.p99().unwrap_or(0)),
                    h.count()
                ));
            }
            let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
            let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
            if hits + misses > 0 {
                out.push_str(&format!(
                    "cache   hits {:.1}% ({hits}/{})\n",
                    hits as f64 * 100.0 / (hits + misses) as f64,
                    hits + misses
                ));
            }
            // Memory/CPU: the fleet-wide maxima across the supervisor's own
            // gauges and every worker's namespaced ones.
            let max_gauge = |suffix: &str| {
                m.gauges
                    .iter()
                    .filter(|(k, _)| *k == suffix || k.ends_with(&format!(".{suffix}")))
                    .map(|(_, v)| *v)
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            let (rss, peak) = (
                max_gauge("proc.rss_bytes"),
                max_gauge("proc.rss_bytes.peak"),
            );
            if peak.is_finite() {
                out.push_str(&format!(
                    "memory  rss {} (peak {})",
                    if rss.is_finite() && !rss.eq(&peak) {
                        fmt_bytes(rss)
                    } else {
                        fmt_bytes(peak)
                    },
                    fmt_bytes(peak)
                ));
                let cpu = max_gauge("proc.cpu_ms");
                if cpu.is_finite() {
                    out.push_str(&format!(" · cpu {}", fmt_secs(cpu as u64)));
                }
                out.push('\n');
            }
        }
        None => out.push_str("(no metrics.json — run without --telemetry)\n"),
    }

    // Slowest in-flight cells, from the live fleet snapshot.
    if let Some(f) = &fleet {
        let mut inflight: Vec<(u64, u64, u64)> = f
            .workers
            .iter()
            .filter(|w| w.state == "running")
            .filter_map(|w| w.cell.map(|(cell, ms)| (ms, cell, w.id)))
            .collect();
        inflight.sort_unstable_by(|a, b| b.cmp(a));
        if !inflight.is_empty() {
            out.push_str("slowest in-flight\n");
            for (ms, cell, id) in inflight.into_iter().take(opts.top_k) {
                out.push_str(&format!("  #{cell:<5} w{id}  {}\n", fmt_secs(ms)));
            }
        }
    }

    Ok(out)
}

/// The live console: clears the screen and re-renders every
/// `refresh_ms` until the journal reports every cell done (then leaves
/// the final frame up). With `once`, prints a single plain snapshot —
/// the scriptable/CI mode.
pub fn run_top(run_dir: &Path, opts: &TopOptions, once: bool) -> Result<(), String> {
    if once {
        print!("{}", render_top(run_dir, opts)?);
        return Ok(());
    }
    loop {
        let frame = render_top(run_dir, opts)?;
        // ANSI clear + home; the frame repaints in place.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        let journal = read_journal(&RunDir::new(run_dir))?;
        if journal.jobs > 0 && journal.records.len() >= journal.jobs {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(opts.refresh_ms.max(100)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mlrl-top-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn write(dir: &Path, name: &str, text: &str) {
        std::fs::write(dir.join(name), text).expect("write");
    }

    #[test]
    fn snapshot_renders_workers_latency_and_staleness() {
        let dir = tmp("full");
        write(
            &dir,
            "journal.jsonl",
            "{\"campaign\":\"demo\",\"jobs\":4,\"spec\":\"00\"}\n\
             {\"index\":0,\"benchmark\":\"FIR\"}\n\
             {\"index\":1,\"benchmark\":\"FIR\"}\n",
        );
        write(
            &dir,
            "fleet.json",
            "{\"updated_unix_ms\":1,\"cells_total\":4,\"cells_done\":2,\"eta_s\":7,\
             \"workers\":[\
             {\"id\":0,\"state\":\"running\",\"pending\":1,\"hb_ms\":200,\"cell\":2,\"cell_ms\":1500},\
             {\"id\":1,\"state\":\"idle\",\"pending\":1,\"hb_ms\":9000}]}\n",
        );
        let mut m = Metrics::default();
        m.gauges.insert("w0.pool.worker0.utilization".into(), 0.93);
        m.gauges
            .insert("w0.proc.rss_bytes.peak".into(), 64.0 * 1024.0 * 1024.0);
        let mut h = mlrl_obs::Histogram::default();
        for us in [900u64, 1_100, 2_000, 250_000] {
            h.record(us);
        }
        m.hists.insert("orch.cell_wall_us".into(), h);
        write(&dir, "metrics.json", &m.to_json());

        let text = render_top(&dir, &TopOptions::default()).expect("renders");
        assert!(text.contains("2/4 cells (50%)"), "{text}");
        assert!(text.contains("ETA 7s"), "{text}");
        assert!(text.contains("w0"), "{text}");
        assert!(text.contains("cell #2"), "{text}");
        assert!(text.contains("util 93%"), "{text}");
        // w1's heartbeat (9s) exceeds the default 5s staleness window.
        assert!(text.contains("STALE"), "{text}");
        assert!(
            text.contains("p50") && text.contains("p90") && text.contains("p99"),
            "{text}"
        );
        assert!(text.contains("peak 64.0MB"), "{text}");
        assert!(text.contains("slowest in-flight"), "{text}");
        assert!(text.contains("#2"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_side_files_degrade_to_notes_and_missing_journal_errors() {
        let dir = tmp("bare");
        write(
            &dir,
            "journal.jsonl",
            "{\"campaign\":\"demo\",\"jobs\":1,\"spec\":\"00\"}\n{\"index\":0,\"x\":1}\n",
        );
        let text = render_top(&dir, &TopOptions::default()).expect("renders");
        assert!(text.contains("1/1 cells (100%)"), "{text}");
        assert!(text.contains("no fleet.json"), "{text}");
        assert!(text.contains("no metrics.json"), "{text}");

        let empty = tmp("empty");
        let err = render_top(&empty, &TopOptions::default()).expect_err("no journal");
        assert!(err.contains("no journal"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }
}
