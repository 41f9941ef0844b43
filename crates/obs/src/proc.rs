//! `/proc/self` sampler: a background thread exporting process memory
//! and CPU usage as gauges — `proc.rss_bytes` (current),
//! `proc.rss_bytes.peak` (running maximum), and `proc.cpu_ms`
//! (user+system) — so memory blowups are visible live in `mlrl top`,
//! post-hoc in `mlrl report`, and in the `--metrics-out` rollup.
//! The data source is Linux `/proc`; on other platforms (or when a
//! read fails) the sampler silently records nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static STARTED: AtomicBool = AtomicBool::new(false);

/// One `/proc/self` reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// Resident set size, bytes.
    pub rss_bytes: u64,
    /// User + system CPU time, milliseconds.
    pub cpu_ms: u64,
}

/// Read `/proc/self/status` (VmRSS) and `/proc/self/stat`
/// (utime+stime). `None` when either is unreadable or unparsable
/// (non-Linux platforms).
pub fn sample() -> Option<ProcSample> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rss_kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())?;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // utime/stime are fields 14/15 overall; count from after the
    // parenthesized comm, which may itself contain spaces.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux configuration we target, so one
    // tick is 10ms. (Good enough for a trend gauge.)
    Some(ProcSample {
        rss_bytes: rss_kb * 1024,
        cpu_ms: (utime + stime) * 10,
    })
}

/// Export one reading into the global sink.
pub fn record(s: ProcSample) {
    crate::gauge_set("proc.rss_bytes", s.rss_bytes as f64);
    crate::gauge_max("proc.rss_bytes.peak", s.rss_bytes as f64);
    crate::gauge_set("proc.cpu_ms", s.cpu_ms as f64);
}

/// Take one sample immediately, then start a background thread that
/// re-samples every `interval`. Idempotent — later calls (even with a
/// different interval) only refresh the immediate sample. The thread
/// holds no resources and dies with the process; while the sink is
/// disabled it records nothing.
pub fn start_sampler(interval: Duration) {
    if let Some(s) = sample() {
        record(s);
    }
    if STARTED.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = std::thread::Builder::new()
        .name("obs-proc-sampler".to_owned())
        .spawn(move || loop {
            std::thread::sleep(interval);
            if !crate::enabled() {
                continue;
            }
            if let Some(s) = sample() {
                record(s);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_sample_reads_positive_rss_on_linux() {
        // On the Linux CI/dev machines this must produce a real
        // reading; elsewhere `None` is the documented behavior.
        if let Some(s) = sample() {
            assert!(s.rss_bytes > 0, "resident set should be non-zero");
        }
    }
}
