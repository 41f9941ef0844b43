//! # mlrl-obs — run telemetry for campaigns and orchestrations
//!
//! A std-only telemetry sink (the build environment has no crates.io
//! access) shared by the engine, the SAT attack, and the orchestrator.
//! Three primitives cover the instrumentation the workspace needs:
//!
//! - **spans** — RAII wall-clock timers ([`span`] / [`span_with`]) that
//!   aggregate per-name statistics *and* append Chrome trace events,
//! - **counters** — monotonic `u64` event counts ([`counter_add`]),
//! - **gauges** — last-written `f64` levels ([`gauge_set`]),
//! - **histograms** — log-bucketed duration distributions
//!   ([`hist::Histogram`]), recorded automatically per span name and
//!   on demand via [`hist_record`], with p50/p90/p99 accessors.
//!
//! The sink is process-global (like the `log` facade) so deep call
//! chains — engine → attack → solver — need no handle threading. It is
//! disabled by default; every entry point starts with one relaxed
//! atomic load, so instrumented hot paths cost nothing measurable when
//! telemetry is off. [`enable`] arms it for a run, [`snapshot`] returns
//! a mergeable [`Metrics`] rollup, and [`trace_json`] renders a
//! `chrome://tracing` / Perfetto-loadable trace with one lane per pool
//! worker or supervised process.
//!
//! Telemetry is a **pure side channel**: nothing recorded here may leak
//! into canonical campaign output. The integration suites prove the
//! canonical JSONL bytes are identical with tracing on, off, sharded,
//! and orchestrated.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod proc;

pub use hist::Histogram;

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default cap on the in-memory trace ring; see [`set_trace_cap`].
const MAX_EVENTS: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped by [`reset`] so threads drop stale cached lane ids.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Ring capacity for buffered trace events; see [`set_trace_cap`].
static TRACE_CAP: AtomicUsize = AtomicUsize::new(MAX_EVENTS);
/// Keep 1-in-N hot-class trace events; see [`set_span_sample`].
static SPAN_SAMPLE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Cached `(generation, lane)` for the current thread.
    static THREAD_LANE: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn epoch_pair() -> (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    *EPOCH.get_or_init(|| {
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_micros() as u64;
        (Instant::now(), wall)
    })
}

fn epoch() -> Instant {
    epoch_pair().0
}

/// Wall-clock UNIX time (microseconds) at which this process's
/// telemetry epoch was fixed. Workers report it in their `hello`
/// handshake so the supervisor can shift per-process trace timestamps
/// onto one shared timeline.
pub fn epoch_unix_micros() -> u64 {
    epoch_pair().1
}

/// Microseconds between the process telemetry epoch and `t` (zero when
/// `t` predates the epoch, which cannot happen for spans opened while
/// telemetry is enabled).
pub fn micros_since_epoch(t: Instant) -> u64 {
    t.checked_duration_since(epoch())
        .unwrap_or_default()
        .as_micros() as u64
}

#[derive(Debug)]
struct TraceEvent {
    name: String,
    /// `"X"` complete span or `"i"` instant.
    ph: &'static str,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

/// Aggregated wall-clock statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans under this name.
    pub count: u64,
    /// Total wall time across those spans, in microseconds.
    pub total_us: u64,
}

#[derive(Default)]
struct State {
    events: VecDeque<TraceEvent>,
    dropped: u64,
    /// Per-stat sequence numbers driving 1-in-N span sampling.
    sample_seq: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, SpanStat>,
    /// Duration distributions, recorded alongside the sum-only `spans`.
    hists: BTreeMap<String, Histogram>,
    /// Lane labels; the lane id (Chrome `tid`) is the index.
    lanes: Vec<String>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    let mut guard = match state().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard)
}

/// Arm the global sink. Also fixes the trace epoch if this is the first
/// telemetry call in the process.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Disarm the global sink; subsequent telemetry calls are no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether the sink is currently armed. One relaxed atomic load — cheap
/// enough for per-iteration hot paths.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drop all recorded events, counters, gauges, spans, and lanes, and
/// restore the default trace-ring capacity and span sampling rate.
/// Threads re-acquire lanes lazily on their next recording.
pub fn reset() {
    GENERATION.fetch_add(1, Ordering::Relaxed);
    TRACE_CAP.store(MAX_EVENTS, Ordering::Relaxed);
    SPAN_SAMPLE.store(1, Ordering::Relaxed);
    with_state(|s| *s = State::default());
}

/// Bound the in-memory trace ring to `cap` events. When full, the
/// *oldest* event is evicted and the `obs.trace.dropped` counter bumps
/// — long runs keep their most recent window instead of growing
/// without bound. Statistics, counters, gauges, and histograms are
/// unaffected. `0` is clamped to `1`. [`reset`] restores the default.
pub fn set_trace_cap(cap: usize) {
    TRACE_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// Keep only 1-in-`n` trace events for hot span classes (`sat.dip`,
/// cache traffic, optimizer passes). Phase spans (`phase.*`) and cell
/// spans always keep their events, and aggregate span statistics and
/// histograms stay exact regardless of sampling — only the per-event
/// trace stream thins. `0` and `1` both mean "keep everything".
/// [`reset`] restores the default.
pub fn set_span_sample(n: u64) {
    SPAN_SAMPLE.store(n.max(1), Ordering::Relaxed);
}

/// Span classes whose trace events are never sampled away: campaign
/// phases and per-cell spans, the backbone of the merged timeline.
fn always_traced(stat: &str) -> bool {
    stat.starts_with("phase.") || stat == "cell"
}

fn lane_in(s: &mut State, label: &str) -> u64 {
    if let Some(i) = s.lanes.iter().position(|l| l == label) {
        return i as u64;
    }
    s.lanes.push(label.to_owned());
    (s.lanes.len() - 1) as u64
}

/// Look up (or allocate) the lane with the given label, returning its
/// id. Lanes render as named threads in the Chrome trace viewer.
pub fn lane(label: &str) -> u64 {
    with_state(|s| lane_in(s, label))
}

fn current_lane(s: &mut State) -> u64 {
    let generation = GENERATION.load(Ordering::Relaxed);
    if let Some((gen_cached, lane)) = THREAD_LANE.with(|c| c.get()) {
        if gen_cached == generation {
            return lane;
        }
    }
    let label = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{}", s.lanes.len()));
    let lane = lane_in(s, &label);
    THREAD_LANE.with(|c| c.set(Some((generation, lane))));
    lane
}

/// Bind the current thread's trace lane to `label` (allocating the lane
/// if needed). Pool workers use this to render as `pool-worker-N`.
pub fn set_thread_lane(label: &str) {
    if !enabled() {
        return;
    }
    let generation = GENERATION.load(Ordering::Relaxed);
    let lane = lane(label);
    THREAD_LANE.with(|c| c.set(Some((generation, lane))));
}

fn push_event(s: &mut State, ev: TraceEvent) {
    let cap = TRACE_CAP.load(Ordering::Relaxed).max(1);
    while s.events.len() >= cap {
        s.events.pop_front();
        s.dropped += 1;
        *s.counters
            .entry("obs.trace.dropped".to_owned())
            .or_insert(0) += 1;
    }
    s.events.push_back(ev);
}

/// RAII span timer: created by [`span`] / [`span_with`], records a
/// trace event and a [`SpanStat`] sample when dropped. A guard created
/// while the sink is disabled is a free no-op.
#[must_use = "a span measures the scope it is held for"]
pub struct SpanGuard(Option<SpanInner>);

struct SpanInner {
    stat: &'static str,
    label: String,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        if !enabled() {
            return;
        }
        let dur_us = inner.start.elapsed().as_micros() as u64;
        let ts_us = micros_since_epoch(inner.start);
        let sample = SPAN_SAMPLE.load(Ordering::Relaxed);
        with_state(|s| {
            let keep_event = if sample <= 1 || always_traced(inner.stat) {
                true
            } else {
                let seq = s.sample_seq.entry(inner.stat.to_owned()).or_insert(0);
                *seq += 1;
                (*seq - 1) % sample == 0
            };
            if keep_event {
                let tid = current_lane(s);
                push_event(
                    s,
                    TraceEvent {
                        name: inner.label,
                        ph: "X",
                        ts_us,
                        dur_us,
                        tid,
                    },
                );
            }
            let st = s.spans.entry(inner.stat.to_owned()).or_default();
            st.count += 1;
            st.total_us += dur_us;
            s.hists
                .entry(inner.stat.to_owned())
                .or_default()
                .record(dur_us);
        });
    }
}

/// Open a span named `name`; the returned guard closes it on drop.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, || name.to_owned())
}

/// Open a span whose statistics aggregate under `stat` while the trace
/// event carries the (possibly per-item) label produced by `label` —
/// e.g. stats under `"cell"`, trace label `"cell 17"`. The closure only
/// runs when the sink is enabled, so hot callers pay no formatting cost
/// when telemetry is off.
pub fn span_with(stat: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some(SpanInner {
        stat,
        label: label(),
        start: Instant::now(),
    }))
}

/// Record an already-measured span on an explicit lane — used by the
/// supervisor to synthesize worker-process spans from protocol
/// timestamps it observed.
pub fn record_complete(name: impl Into<String>, lane: u64, start: Instant, dur: Duration) {
    // Checked first: converting `start` while disabled would fix the
    // telemetry epoch before `enable` does.
    if enabled() {
        let ts_us = micros_since_epoch(start);
        record_span_at(name, lane, ts_us, dur.as_micros() as u64);
    }
}

/// Record an instant event (a zero-width marker) on an explicit lane.
pub fn instant(name: impl Into<String>, lane: u64) {
    if !enabled() {
        return;
    }
    instant_at(name, lane, micros_since_epoch(Instant::now()));
}

/// Record a span with explicit trace-clock timestamps — used by the
/// supervisor when injecting worker-streamed spans, already shifted
/// onto its own timeline, into the merged trace.
pub fn record_span_at(name: impl Into<String>, lane: u64, ts_us: u64, dur_us: u64) {
    if !enabled() {
        return;
    }
    let ev = TraceEvent {
        name: name.into(),
        ph: "X",
        ts_us,
        dur_us,
        tid: lane,
    };
    with_state(|s| push_event(s, ev));
}

/// Record an instant event with an explicit trace-clock timestamp.
pub fn instant_at(name: impl Into<String>, lane: u64, ts_us: u64) {
    if !enabled() {
        return;
    }
    let ev = TraceEvent {
        name: name.into(),
        ph: "i",
        ts_us,
        dur_us: 0,
        tid: lane,
    };
    with_state(|s| push_event(s, ev));
}

/// Drain the buffered trace events into a compact self-contained JSON
/// chunk: `{"lanes":[..],"events":[[name,ph,ts_us,dur_us,tid],..]}`.
/// The full lane table rides along (lanes only grow, and `tid` indexes
/// it), so every chunk decodes without its predecessors. Returns
/// `None` when nothing is buffered. Workers call this after each cell
/// to stream their trace to the supervisor over the line protocol —
/// which also keeps worker-side trace memory flat.
pub fn drain_trace_chunk() -> Option<String> {
    if !enabled() {
        return None;
    }
    with_state(|s| {
        if s.events.is_empty() {
            return None;
        }
        let mut out = String::new();
        let mut w = json::Writer::new(&mut out);
        w.begin_object().key("lanes").begin_array();
        for label in &s.lanes {
            w.str(label);
        }
        w.end_array().key("events").begin_array();
        for ev in &s.events {
            w.begin_array().str(&ev.name).str(ev.ph).uint(ev.ts_us);
            w.uint(ev.dur_us).uint(ev.tid).end_array();
        }
        w.end_array().end_object();
        s.events.clear();
        Some(out)
    })
}

/// Merge a worker-streamed [`drain_trace_chunk`] payload into this
/// process's sink: every lane label gains `lane_prefix`, every
/// timestamp shifts by `offset_us` (the worker's epoch offset on the
/// receiving timeline; shifted timestamps clamp at zero). Returns
/// `false` on a malformed chunk, leaving the sink untouched — a
/// garbled or truncated flush from a dying worker must never corrupt
/// the merged trace.
pub fn merge_trace_chunk(chunk: &str, lane_prefix: &str, offset_us: i64) -> bool {
    if !enabled() {
        return false;
    }
    // Decode fully before touching the sink so a bad trailing record
    // cannot leave a half-merged chunk behind.
    let Some((labels, events)) = decode_trace_chunk(chunk, lane_prefix, offset_us) else {
        return false;
    };
    with_state(|s| {
        let lane_ids: Vec<u64> = labels.iter().map(|l| lane_in(s, l)).collect();
        for mut ev in events {
            ev.tid = lane_ids[ev.tid as usize];
            push_event(s, ev);
        }
    });
    true
}

/// The prefixed lane labels and the events of a [`drain_trace_chunk`]
/// payload, timestamps shifted by `offset_us`; an event's `tid` indexes
/// the labels. `None` when any part is malformed.
fn decode_trace_chunk(
    chunk: &str,
    lane_prefix: &str,
    offset_us: i64,
) -> Option<(Vec<String>, Vec<TraceEvent>)> {
    let doc = json::parse(chunk)?;
    let obj = doc.as_object()?;
    let lanes = obj.get("lanes")?.as_array()?.iter();
    let labels: Vec<String> = lanes
        .map(|l| Some(format!("{lane_prefix}{}", l.as_str()?)))
        .collect::<Option<_>>()?;
    let lane_count = labels.len() as u64;
    let event = |ev: &json::Value| {
        let [name, ph, ts, dur, tid] = ev.as_array()? else {
            return None;
        };
        let ph = match ph.as_str()? {
            "X" => "X",
            "i" => "i",
            _ => return None,
        };
        Some(TraceEvent {
            name: name.as_str()?.to_owned(),
            ph,
            ts_us: (ts.as_u64()? as i64 + offset_us).max(0) as u64,
            dur_us: dur.as_u64()?,
            tid: tid.as_u64().filter(|&t| t < lane_count)?,
        })
    };
    let events = obj.get("events")?.as_array()?.iter().map(event);
    Some((labels, events.collect::<Option<_>>()?))
}

/// Add `n` to the monotonic counter `name`.
pub fn counter_add(name: &str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    with_state(|s| match s.counters.get_mut(name) {
        Some(v) => *v += n,
        None => {
            s.counters.insert(name.to_owned(), n);
        }
    });
}

/// Set the gauge `name` to `value` (last write wins). Non-finite values
/// are dropped — they have no JSON representation.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() || !value.is_finite() {
        return;
    }
    with_state(|s| {
        s.gauges.insert(name.to_owned(), value);
    });
}

/// Raise the gauge `name` to `value` if `value` is larger (a no-op
/// otherwise) — peak-tracking writes like `proc.rss_bytes.peak`.
pub fn gauge_max(name: &str, value: f64) {
    if !enabled() || !value.is_finite() {
        return;
    }
    with_state(|s| {
        let slot = s.gauges.entry(name.to_owned()).or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    });
}

/// Record one sample into the histogram `name` — for values that are
/// not span durations (the supervisor's protocol-observed cell wall
/// times, batch sizes, queue depths). Span durations are recorded
/// automatically under the span's stat name.
pub fn hist_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_state(|s| {
        s.hists.entry(name.to_owned()).or_default().record(value);
    });
}

/// A mergeable rollup of counters, gauges, and span statistics — the
/// `metrics.json` payload, and the unit workers stream to the
/// supervisor over the line protocol.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-written levels.
    pub gauges: BTreeMap<String, f64>,
    /// Wall-clock statistics per span name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Duration distributions per span/histogram name.
    pub hists: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.spans.is_empty()
            && self.hists.is_empty()
    }

    /// Fold `other` into `self`: counters and span stats add, histograms
    /// add bucket-wise, gauges keep the maximum (the conservative
    /// fleet-wide reading for levels like utilization or heartbeat
    /// gaps).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            if *v > *slot {
                *slot = *v;
            }
        }
        for (k, v) in &other.spans {
            let slot = self.spans.entry(k.clone()).or_default();
            slot.count += v.count;
            slot.total_us += v.total_us;
        }
        for (k, v) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Serialize as a single-line JSON object with sorted keys:
    /// `{"counters":{..},"gauges":{..},"spans":{..},"hists":{..}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = json::Writer::new(&mut out);
        w.begin_object().key("counters").begin_object();
        for (k, v) in &self.counters {
            w.key(k).uint(*v);
        }
        w.end_object().key("gauges").begin_object();
        for (k, v) in self.gauges.iter().filter(|(_, v)| v.is_finite()) {
            w.key(k).float(*v);
        }
        w.end_object().key("spans").begin_object();
        for (k, v) in &self.spans {
            w.key(k).begin_object().key("count").uint(v.count);
            w.key("total_us").uint(v.total_us).end_object();
        }
        w.end_object().key("hists").begin_object();
        for (k, v) in &self.hists {
            v.write_json(w.key(k));
        }
        w.end_object().end_object();
        out
    }

    /// Parse a payload produced by [`Metrics::to_json`]. Returns `None`
    /// on malformed input, including any one value of the wrong type
    /// (a counter of -5, 1.5 or `"x"`: see [`json::Value::as_u64`]).
    pub fn parse(text: &str) -> Option<Metrics> {
        let value = json::parse(text)?;
        let obj = value.as_object()?;
        // A missing section is empty: payloads from writers predating
        // histograms carry no `hists`.
        let empty = BTreeMap::new();
        let section = |name: &str| obj.get(name).map_or(Some(&empty), json::Value::as_object);
        let mut metrics = Metrics::default();
        for (k, v) in section("counters")? {
            metrics.counters.insert(k.clone(), v.as_u64()?);
        }
        for (k, v) in section("gauges")? {
            metrics.gauges.insert(k.clone(), v.as_f64()?);
        }
        for (k, v) in section("spans")? {
            let span = v.as_object()?;
            let count = span.get("count")?.as_u64()?;
            let total_us = span.get("total_us")?.as_u64()?;
            metrics
                .spans
                .insert(k.clone(), SpanStat { count, total_us });
        }
        for (k, v) in section("hists")? {
            metrics.hists.insert(k.clone(), Histogram::from_json(v)?);
        }
        Some(metrics)
    }
}

/// Snapshot the sink's current counters, gauges, span statistics, and
/// histograms.
pub fn snapshot() -> Metrics {
    with_state(|s| Metrics {
        counters: s.counters.clone(),
        gauges: s.gauges.clone(),
        spans: s.spans.clone(),
        hists: s.hists.clone(),
    })
}

/// Render the recorded events as Chrome trace-event JSON
/// (`{"traceEvents":[...]}` — load in Perfetto or `chrome://tracing`).
/// One `thread_name` metadata record labels each lane.
pub fn trace_json() -> String {
    with_state(|s| {
        let mut out = String::new();
        let mut w = json::Writer::new(&mut out);
        let ids = |w: &mut json::Writer, tid: u64| {
            w.key("pid").uint(1).key("tid").uint(tid);
        };
        let instant = |w: &mut json::Writer, ts_us: u64, tid: u64| {
            w.key("ph").str("i").key("ts").uint(ts_us);
            ids(w, tid);
            w.key("s").str("t").end_object();
        };
        w.begin_object().key("traceEvents").begin_array();
        for (tid, label) in s.lanes.iter().enumerate() {
            w.begin_object().key("name").str("thread_name");
            w.key("ph").str("M");
            ids(&mut w, tid as u64);
            w.key("args").begin_object().key("name").str(label);
            w.end_object().end_object();
        }
        for ev in &s.events {
            w.begin_object().key("name").str(&ev.name);
            if ev.ph == "X" {
                w.key("ph").str("X").key("ts").uint(ev.ts_us);
                w.key("dur").uint(ev.dur_us);
                ids(&mut w, ev.tid);
                w.end_object();
            } else {
                instant(&mut w, ev.ts_us, ev.tid);
            }
        }
        if s.dropped > 0 {
            let name = format!("obs.events.dropped {}", s.dropped);
            instant(w.begin_object().key("name").str(&name), 0, 0);
        }
        w.end_array().end_object();
        out
    })
}

/// Write `text` to `path` through a sibling `<name>.<pid>.tmp` file and
/// a rename, so a concurrent reader never sees a torn file and a crash
/// leaves the previous file whole. The pid keeps processes that write
/// the same file (workers sharing a cache dir) off each other's temp
/// file. A killed process leaves its temp file behind, unused by later
/// writes and safe to delete once no writer runs.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-sink tests must not interleave: one mutex serializes them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        match GUARD.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _g = lock();
        disable();
        reset();
        counter_add("c", 3);
        gauge_set("g", 1.5);
        drop(span("s"));
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spans_counters_and_gauges_round_trip_through_json() {
        let _g = lock();
        reset();
        enable();
        counter_add("cache.hits", 2);
        counter_add("cache.hits", 3);
        gauge_set("pool.worker0.utilization", 0.75);
        gauge_set("dropme", f64::NAN);
        {
            let _s = span_with("cell", || "cell 7".to_owned());
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = snapshot();
        disable();

        assert_eq!(snap.counters["cache.hits"], 5);
        assert!((snap.gauges["pool.worker0.utilization"] - 0.75).abs() < 1e-12);
        assert!(!snap.gauges.contains_key("dropme"));
        assert_eq!(snap.spans["cell"].count, 1);
        assert!(snap.spans["cell"].total_us >= 1_000);

        let parsed = Metrics::parse(&snap.to_json()).expect("self-parse");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn merge_sums_counts_and_keeps_max_gauges() {
        let mut a = Metrics::default();
        a.counters.insert("n".into(), 2);
        a.gauges.insert("u".into(), 0.4);
        a.spans.insert(
            "s".into(),
            SpanStat {
                count: 1,
                total_us: 10,
            },
        );
        let mut b = Metrics::default();
        b.counters.insert("n".into(), 5);
        b.gauges.insert("u".into(), 0.9);
        b.spans.insert(
            "s".into(),
            SpanStat {
                count: 2,
                total_us: 30,
            },
        );
        a.merge(&b);
        assert_eq!(a.counters["n"], 7);
        assert!((a.gauges["u"] - 0.9).abs() < 1e-12);
        assert_eq!(
            a.spans["s"],
            SpanStat {
                count: 3,
                total_us: 40
            }
        );
    }

    #[test]
    fn trace_export_is_wellformed_and_labels_lanes() {
        let _g = lock();
        reset();
        enable();
        set_thread_lane("pool-worker-0");
        drop(span("phase"));
        let worker = lane("worker-1");
        instant("restart", worker);
        record_complete("cell 3", worker, Instant::now(), Duration::from_millis(4));
        let text = trace_json();
        disable();

        let value = json::parse(&text).expect("trace parses");
        let events = value
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.as_object()?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"thread_name"), "lane metadata present");
        assert!(names.contains(&"phase"));
        assert!(names.contains(&"restart"));
        assert!(names.contains(&"cell 3"));
        // The two explicit lanes carry distinct tids.
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.as_object()?.get("tid")?.as_f64())
            .map(|t| t as u64)
            .collect();
        assert!(tids.len() >= 2);
    }

    #[test]
    fn json_reader_handles_nesting_strings_and_escapes() {
        let v = json::parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"\\\n","d":true,"e":null}}"#)
            .expect("parses");
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        let inner = obj["b"].as_object().unwrap();
        assert_eq!(inner["c"].as_str(), Some("x\"\\\n"));
        assert_eq!(inner["d"], json::Value::Bool(true));
        assert!(json::parse("{\"a\":}").is_none());
        assert!(json::parse("[1,2,]").is_none());
    }

    #[test]
    fn spans_record_duration_histograms_alongside_stats() {
        let _g = lock();
        reset();
        enable();
        for _ in 0..3 {
            let _s = span("h.span");
            std::thread::sleep(Duration::from_millis(1));
        }
        hist_record("h.manual", 42);
        let snap = snapshot();
        disable();

        let h = snap.hists.get("h.span").expect("span histogram");
        assert_eq!(h.count(), 3);
        assert_eq!(h.count(), snap.spans["h.span"].count);
        assert!(h.min().unwrap() >= 1_000, "slept ≥1ms: {:?}", h.min());
        assert!(h.p50().unwrap() <= h.max().unwrap());
        assert_eq!(snap.hists["h.manual"].sum(), 42);

        let parsed = Metrics::parse(&snap.to_json()).expect("reparses");
        assert_eq!(parsed, snap, "histograms round-trip in the rollup");
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mut parts = Vec::new();
        for seed in 1u64..=3 {
            let mut h = Histogram::default();
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for _ in 0..50 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.record(x % 1_000_000);
            }
            parts.push(h);
        }
        let (a, b, c) = (&parts[0], &parts[1], &parts[2]);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        assert_eq!(ab, ba, "merge must be commutative");

        // Empty is the identity on both sides.
        let mut with_empty = a.clone();
        with_empty.merge(&Histogram::default());
        assert_eq!(&with_empty, a);
        let mut from_empty = Histogram::default();
        from_empty.merge(a);
        assert_eq!(&from_empty, a);
    }

    #[test]
    fn percentiles_stay_within_recorded_extremes() {
        let mut h = Histogram::default();
        let mut x = 0xdead_beefu64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 10_000_000);
        }
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        for p in [0u8, 1, 50, 90, 99, 100] {
            let v = h.percentile(p).unwrap();
            assert!(v >= min && v <= max, "p{p}={v} outside [{min},{max}]");
        }
        let (p50, p90, p99) = (h.p50().unwrap(), h.p90().unwrap(), h.p99().unwrap());
        assert!(p50 <= p90 && p90 <= p99, "percentiles must be monotone");
    }

    #[test]
    fn empty_histogram_rollup_is_stable() {
        let mut m = Metrics::default();
        m.hists
            .insert("never.recorded".into(), Histogram::default());
        let json = m.to_json();
        let parsed = Metrics::parse(&json).expect("parses");
        assert_eq!(parsed, m);
        // Serialization is a fixed point: parse ∘ to_json = id implies
        // to_json(parse(to_json(m))) == to_json(m).
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn hostile_labels_and_keys_survive_json_round_trips() {
        let _g = lock();
        reset();
        enable();
        // Quotes, backslashes, newlines, and raw control characters —
        // the shapes cell names and file paths can smuggle in.
        let hostile = "cell \"N_2046\"\\path\nwith\tctrl\u{1}";
        drop(span_with("stat \"with\\quotes\"", || hostile.to_owned()));
        counter_add("count \"q\"\\k", 2);
        gauge_set("gauge \"q\"\\k", 1.5);
        hist_record("hist \"q\"\\k", 7);
        let trace = trace_json();
        let snap = snapshot();
        disable();

        // The trace parses and carries the label byte-for-byte.
        let doc = json::parse(&trace).expect("escaped trace parses");
        let names: Vec<String> = doc
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(json::Value::as_array)
            .expect("traceEvents")
            .iter()
            .filter_map(|e| Some(e.as_object()?.get("name")?.as_str()?.to_owned()))
            .collect();
        assert!(
            names.iter().any(|n| n == hostile),
            "label intact: {names:?}"
        );

        // The rollup parses and every hostile key round-trips.
        let parsed = Metrics::parse(&snap.to_json()).expect("escaped rollup parses");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.counters["count \"q\"\\k"], 2);
        assert_eq!(parsed.spans["stat \"with\\quotes\""].count, 1);
        assert_eq!(parsed.hists["hist \"q\"\\k"].sum(), 7);
    }

    #[test]
    fn trace_ring_drops_oldest_and_counts_drops() {
        let _g = lock();
        reset();
        enable();
        set_trace_cap(3);
        let l = lane("ring");
        for i in 0..5 {
            instant(format!("ev{i}"), l);
        }
        let text = trace_json();
        let snap = snapshot();
        set_trace_cap(MAX_EVENTS);
        disable();

        // Newest three survive; the two oldest were evicted.
        assert!(!text.contains("\"ev0\"") && !text.contains("\"ev1\""));
        for kept in ["\"ev2\"", "\"ev3\"", "\"ev4\""] {
            assert!(text.contains(kept), "missing {kept} in {text}");
        }
        assert_eq!(snap.counters["obs.trace.dropped"], 2);
    }

    #[test]
    fn sampling_thins_hot_spans_but_keeps_phases_and_exact_stats() {
        let _g = lock();
        reset();
        enable();
        set_span_sample(4);
        for _ in 0..8 {
            drop(span("sat.dip"));
        }
        drop(span("phase.attack"));
        drop(span_with("cell", || "cell 0".to_owned()));
        let text = trace_json();
        let snap = snapshot();
        set_span_sample(1);
        disable();

        // 1-in-4 of the hot spans kept; phases and cells always kept;
        // the aggregate stats stay exact either way.
        assert_eq!(text.matches("\"sat.dip\"").count(), 2, "{text}");
        assert!(text.contains("\"phase.attack\""));
        assert!(text.contains("\"cell 0\""));
        assert_eq!(snap.spans["sat.dip"].count, 8);
        assert_eq!(snap.hists["sat.dip"].count(), 8);
    }

    #[test]
    fn drained_chunks_merge_back_with_prefix_and_offset() {
        let _g = lock();
        reset();
        enable();
        set_thread_lane("main");
        drop(span("phase.lock"));
        instant("marker", lane("aux"));
        let chunk = drain_trace_chunk().expect("chunk with events");
        // The drain emptied the ring …
        assert!(drain_trace_chunk().is_none());

        // … and the chunk re-injects under a slot prefix with a shift.
        assert!(merge_trace_chunk(&chunk, "w3/", 1_000_000));
        let text = trace_json();
        let snap = snapshot();
        disable();

        assert!(text.contains("\"w3/main\""), "{text}");
        assert!(text.contains("\"w3/aux\""), "{text}");
        assert!(text.contains("\"phase.lock\""));
        assert!(text.contains("\"marker\""));
        let doc = json::parse(&text).expect("merged trace parses");
        let min_ts = doc
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|e| {
                let o = e.as_object()?;
                if o.get("ph")?.as_str()? == "M" {
                    return None;
                }
                o.get("ts")?.as_f64()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(min_ts >= 1_000_000.0, "offset applied: {min_ts}");
        // Span stats were recorded at drain time and survive the merge.
        assert_eq!(snap.spans["phase.lock"].count, 1);
    }

    #[test]
    fn malformed_chunks_are_rejected_without_corrupting_the_sink() {
        let _g = lock();
        reset();
        enable();
        let before = trace_json();
        for bad in [
            "",
            "not json",
            "{\"lanes\":[\"a\"]}",
            "{\"lanes\":[\"a\"],\"events\":[[\"x\",\"X\",0,0]]}",
            "{\"lanes\":[\"a\"],\"events\":[[\"x\",\"X\",0,0,9]]}",
            "{\"lanes\":[\"a\"],\"events\":[[\"x\",\"Q\",0,0,0]]}",
            "{\"lanes\":[\"a\"],\"events\":[[\"x\",\"X\",0,0,0]",
        ] {
            assert!(!merge_trace_chunk(bad, "w0/", 0), "accepted: {bad}");
        }
        assert_eq!(trace_json(), before, "sink untouched by bad chunks");
        disable();
    }

    #[test]
    fn metrics_json_bytes_are_pinned() {
        let mut m = Metrics::default();
        m.counters.insert("cache.hits".into(), 5);
        m.counters.insert("q\"k\\".into(), 0);
        for (k, v) in [
            ("u", 0.75),
            ("whole", 3.0),
            ("neg", -2.5),
            ("big", 1e21),
            ("tiny", 1.5e-7),
            ("inf", f64::INFINITY),
        ] {
            m.gauges.insert(k.into(), v);
        }
        m.spans.insert(
            "cell".into(),
            SpanStat {
                count: 2,
                total_us: 300,
            },
        );
        let mut h = Histogram::default();
        for us in [3, 900, 1_100] {
            h.record(us);
        }
        m.hists.insert("cell".into(), h);
        m.hists.insert("empty".into(), Histogram::default());
        assert_eq!(
            m.to_json(),
            "{\"counters\":{\"cache.hits\":5,\"q\\\"k\\\\\":0},\
             \"gauges\":{\"big\":1000000000000000000000.0,\"neg\":-2.5,\"tiny\":0.00000015,\
             \"u\":0.75,\"whole\":3.0},\"spans\":{\"cell\":{\"count\":2,\"total_us\":300}},\
             \"hists\":{\"cell\":{\"count\":3,\"sum\":2003,\"min\":3,\"max\":1100,\
             \"buckets\":[[3,1],[62,1],[64,1]]},\
             \"empty\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}}}"
        );
        assert_eq!(
            Metrics::default().to_json(),
            "{\"counters\":{},\"gauges\":{},\"spans\":{},\"hists\":{}}"
        );
    }

    /// A fixed trace: two lanes (one hostile label), a span, an instant
    /// and, with a ring of three, one dropped event.
    fn fixed_trace() {
        reset();
        enable();
        set_trace_cap(3);
        let main = lane("main");
        let aux = lane("w\"1\n");
        record_span_at("dropped", main, 1, 1);
        record_span_at("phase.lock", main, 10, 5);
        instant_at("restart", aux, 20);
        record_span_at("cell \"3\"", aux, 30, 7);
    }

    #[test]
    fn trace_json_bytes_are_pinned() {
        let _g = lock();
        fixed_trace();
        let text = trace_json();
        reset();
        disable();
        assert_eq!(
            text,
            "{\"traceEvents\":[\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}},\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"w\\\"1\\n\"}},\
             {\"name\":\"phase.lock\",\"ph\":\"X\",\"ts\":10,\"dur\":5,\"pid\":1,\"tid\":0},\
             {\"name\":\"restart\",\"ph\":\"i\",\"ts\":20,\"pid\":1,\"tid\":1,\"s\":\"t\"},\
             {\"name\":\"cell \\\"3\\\"\",\"ph\":\"X\",\"ts\":30,\"dur\":7,\"pid\":1,\"tid\":1},\
             {\"name\":\"obs.events.dropped 1\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":0,\"s\":\"t\"}]}"
        );
    }

    #[test]
    fn drained_chunk_bytes_are_pinned() {
        let _g = lock();
        fixed_trace();
        let chunk = drain_trace_chunk();
        reset();
        disable();
        assert_eq!(
            chunk.as_deref(),
            Some(
                "{\"lanes\":[\"main\",\"w\\\"1\\n\"],\"events\":[\
                 [\"phase.lock\",\"X\",10,5,0],[\"restart\",\"i\",20,0,1],\
                 [\"cell \\\"3\\\"\",\"X\",30,7,1]]}"
            )
        );
    }

    #[test]
    fn malformed_values_reject_the_whole_metrics_payload() {
        for bad in [
            r#"{"counters":{"a":-5}}"#,
            r#"{"counters":{"a":1.5}}"#,
            r#"{"counters":{"c":"x"}}"#,
            r#"{"spans":{"s":{"count":-1,"total_us":3}}}"#,
            r#"{"gauges":{"g":"x"}}"#,
            r#"{"counters":[]}"#,
            r#"{"hists":{"h":{"count":1,"sum":2.5,"min":2,"max":2,"buckets":[[2,1]]}}}"#,
            r#"{"hists":{"h":{"count":1,"sum":2,"min":2,"max":2,"buckets":[[4294967296,1]]}}}"#,
        ] {
            assert_eq!(Metrics::parse(bad), None, "{bad}");
        }
        // Missing sections are empty; unknown top-level keys are skipped.
        let m = Metrics::parse(r#"{"counters":{"a":5},"gauges":{"g":-0.5},"extra":1}"#)
            .expect("parses");
        assert_eq!((m.counters["a"], m.gauges["g"]), (5, -0.5));
        assert!(m.spans.is_empty() && m.hists.is_empty());
    }

    #[test]
    fn epoch_unix_micros_is_fixed_and_plausible() {
        // 2020-01-01 in UNIX micros — any sane clock is past this.
        let us = epoch_unix_micros();
        assert!(us > 1_577_836_800_000_000, "epoch wall clock: {us}");
        assert_eq!(us, epoch_unix_micros(), "stable across calls");
    }

    #[test]
    fn gauge_max_only_raises() {
        let _g = lock();
        reset();
        enable();
        gauge_max("peak", 10.0);
        gauge_max("peak", 4.0);
        gauge_max("peak", 12.0);
        let snap = snapshot();
        disable();
        assert!((snap.gauges["peak"] - 12.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state_and_reassigns_lanes() {
        let _g = lock();
        reset();
        enable();
        counter_add("x", 1);
        set_thread_lane("before");
        drop(span("s"));
        reset();
        assert!(snapshot().is_empty());
        // After reset the thread re-acquires a lane lazily.
        drop(span("t"));
        let text = trace_json();
        disable();
        assert!(text.contains("\"t\""));
        assert!(!text.contains("before"));
    }
}
