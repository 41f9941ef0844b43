//! The supervisor: process lifecycle, failure recovery, merge.
//!
//! [`orchestrate`] is the one call behind `mlrl orchestrate`: it plans
//! the journal-aware cost-balanced assignments, spawns one worker
//! process per non-empty assignment (all pointed at one shared
//! content-addressed cache dir), supervises them over the
//! [`crate::protocol`] line stream, journals every completed cell,
//! restarts a crashed or wedged worker with its remaining cells, and on
//! completion merges the canonical unsharded byte stream in-process.
//!
//! Failure model:
//!
//! - a worker *crash* (process exit with unfinished cells, for any
//!   reason — OOM kill, panic outside a cell, fault injection) loses
//!   only its in-flight cells: everything journaled stays done, and a
//!   replacement worker takes over the remainder;
//! - a worker *wedge* (no protocol lines — not even heartbeats — for
//!   `wedge_timeout`) is killed and treated as a crash;
//! - more than `max_restarts` replacements aborts the orchestration
//!   with the journal intact, so `--resume` continues where it stopped;
//! - killing the *orchestrator* itself at any instant is recoverable
//!   the same way: the journal is flushed per cell.

use std::collections::BTreeSet;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mlrl_engine::report::{header_line, merge_canonical_streams};
use mlrl_engine::run::scheduled_jobs;
use mlrl_engine::spec::CampaignSpec;
use mlrl_obs::Metrics;

use crate::journal::Journal;
use crate::plan::{plan_assignments, spec_digest};
use crate::progress::{Progress, WorkerState};
use crate::protocol::{parse_line, WorkerEvent};
use crate::run_dir::{unix_ms, Fleet, FleetWorker, RunDir};

/// Everything `mlrl orchestrate` decides before handing off to
/// [`orchestrate`].
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Campaign spec file the workers (re-)read.
    pub spec_path: PathBuf,
    /// Run directory holding the journal (and the default cache dir).
    pub run_dir: RunDir,
    /// Continue a previous orchestration's journal instead of starting
    /// fresh.
    pub resume: bool,
    /// Worker processes to spawn.
    pub workers: usize,
    /// Worker command prefix (e.g. `[<mlrl binary>, "worker"]`); the
    /// spec path and per-worker flags are appended.
    pub worker_cmd: Vec<String>,
    /// Shared content-addressed artifact cache dir; defaults to
    /// [`RunDir::cache`] (sound to share: artifacts are
    /// content-addressed, so co-located workers warm each other).
    pub cache_dir: Option<PathBuf>,
    /// Total spill budget in bytes for the shared cache dir
    /// (`--cache-cap`; LRU eviction). Split evenly across the `workers`
    /// processes — each worker's LRU index tracks only its own writes,
    /// so handing every process the full budget would bound the shared
    /// directory at `workers × cap` instead of `cap`. The resulting
    /// bound is approximate (a worker cannot evict a sibling's files),
    /// but the budget, not a multiple of it, is the growth target.
    pub cache_cap: Option<u64>,
    /// In-process threads per worker (process-level parallelism is the
    /// point, so the default is 1).
    pub worker_threads: usize,
    /// Worker heartbeat interval in milliseconds.
    pub heartbeat_ms: u64,
    /// Silence window after which a worker counts as wedged.
    pub wedge_timeout: Duration,
    /// Replacement workers allowed before the orchestration aborts.
    pub max_restarts: usize,
    /// Whether to render the live progress line.
    pub progress: bool,
    /// Run workers with `--telemetry` and aggregate their streamed
    /// metrics payloads into `<run_dir>/metrics.json`. Requires the
    /// supervisor's own `mlrl_obs` sink to be enabled for trace lanes.
    pub telemetry: bool,
    /// Keep 1-in-N hot-class trace events in every worker
    /// (`--trace-sample`, forwarded verbatim); `None` keeps everything.
    pub trace_sample: Option<u64>,
    /// Optimizer-level token (`"o2"`) forwarded to every worker as
    /// `--opt-level`, overriding the spec file's `opt_level` exactly as
    /// the same flag does on `mlrl campaign` — so a sharded run stays
    /// byte-identical to the unsharded one. `None` leaves the spec file
    /// in charge.
    pub opt_level: Option<String>,
}

impl OrchestratorConfig {
    /// Defaults for a local orchestration of `spec_path` under
    /// `run_dir`; the caller must still fill in `worker_cmd`.
    pub fn new(spec_path: impl Into<PathBuf>, run_dir: impl Into<PathBuf>) -> Self {
        Self {
            spec_path: spec_path.into(),
            run_dir: RunDir::new(run_dir),
            resume: false,
            workers: 2,
            worker_cmd: Vec::new(),
            cache_dir: None,
            cache_cap: None,
            worker_threads: 1,
            heartbeat_ms: 1000,
            wedge_timeout: Duration::from_secs(30),
            max_restarts: 3,
            progress: true,
            telemetry: false,
            trace_sample: None,
            opt_level: None,
        }
    }
}

/// What an orchestration accomplished.
#[derive(Debug, Clone)]
pub struct OrchestrationOutcome {
    /// The merged canonical JSON-lines stream — byte-identical to
    /// `mlrl campaign <spec> --canonical` on one process.
    pub canonical: String,
    /// Campaign name from the spec.
    pub campaign: String,
    /// Total grid cells.
    pub cells: usize,
    /// Cells replayed from the journal (resume).
    pub resumed_cells: usize,
    /// Cells executed by workers this orchestration.
    pub executed_cells: usize,
    /// Cells whose record carries a failed status.
    pub failed_cells: usize,
    /// Replacement workers spawned after crashes/wedges.
    pub restarts: usize,
    /// Worker processes spawned in total.
    pub workers_spawned: usize,
    /// End-to-end wall-clock.
    pub wall: Duration,
    /// Fleet-wide metrics rollup (workers' payloads folded with the
    /// supervisor's own), also in the run dir; `Some` under telemetry.
    pub metrics: Option<Metrics>,
}

/// One supervised worker process.
struct Slot {
    child: Child,
    pending: BTreeSet<usize>,
    last_seen: Instant,
    alive: bool,
    /// Kill already sent (wedge); suppresses double-kills.
    killing: bool,
    /// Trace lane for this process (0 when telemetry is off).
    lane: u64,
    /// Spawn time — the worker's lifecycle span start.
    spawned: Instant,
    /// The in-flight cell and when its `start` line arrived.
    running: Option<(usize, Instant)>,
    /// Latest cumulative metrics payload streamed by this process.
    metrics: Option<Metrics>,
    /// Shift (supervisor trace micros) applied to this worker's
    /// streamed trace timestamps, derived from the `hello` epoch
    /// handshake; `None` until (unless) a telemetry hello arrives.
    epoch_offset_us: Option<i64>,
}

enum Msg {
    Event(usize, WorkerEvent),
    /// One line of a worker's stderr (piped so the renderer can keep
    /// the live progress line intact around it).
    Stderr(String),
    Eof(usize),
    Tick,
}

/// Runs a full orchestration; see the module docs for the failure model.
///
/// # Errors
///
/// Returns a message on spec/journal/spawn errors, on exceeding the
/// restart budget, or on a final record set that does not merge into a
/// complete canonical stream. The journal survives every error path, so
/// a failed orchestration is resumable.
pub fn orchestrate(cfg: &OrchestratorConfig) -> Result<OrchestrationOutcome, String> {
    let started = Instant::now();
    let spec_text = std::fs::read_to_string(&cfg.spec_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg.spec_path.display()))?;
    let spec =
        CampaignSpec::parse(&spec_text).map_err(|e| format!("{}: {e}", cfg.spec_path.display()))?;
    let jobs = scheduled_jobs(&spec);
    let cost_of = {
        let mut costs = vec![1u64; jobs.len()];
        for job in &jobs {
            costs[job.index] = job.cost();
        }
        costs
    };

    let mut journal = Journal::open(
        &cfg.run_dir,
        &spec.name,
        jobs.len(),
        spec_digest(&spec_text),
        cfg.resume,
    )?;
    let resumed_cells = journal.len();
    let resumed_cost: u64 = journal.completed().keys().map(|&i| cost_of[i]).sum();
    let mut progress = Progress::new(
        jobs.len(),
        cost_of.iter().sum(),
        resumed_cells,
        resumed_cost,
        cfg.progress,
    );

    mlrl_obs::counter_add("orch.cells.total", jobs.len() as u64);
    mlrl_obs::counter_add("orch.cells.resumed", resumed_cells as u64);

    let assignments = plan_assignments(&jobs, journal.completed(), cfg.workers);
    let mut restarts = 0usize;
    let mut workers_spawned = 0usize;
    // Fleet-wide rollup: every slot's latest streamed payload (restarted
    // slots keep contributing the cells they finished before crashing).
    let mut fleet_metrics = Metrics::default();

    if !assignments.is_empty() {
        let (tx, rx) = mpsc::channel::<Msg>();
        let mut slots: Vec<Slot> = Vec::new();
        for cells in &assignments {
            let slot = spawn_worker(cfg, cells, slots.len(), &tx).inspect_err(|_| {
                kill_all(&mut slots);
            })?;
            progress.set_state(slots.len(), WorkerState::Idle);
            slots.push(slot);
            workers_spawned += 1;
        }
        // Ticker: drives wedge detection and progress refresh; exits when
        // the supervisor drops the receiver.
        {
            let tx = tx.clone();
            std::thread::spawn(move || loop {
                std::thread::sleep(Duration::from_millis(200));
                if tx.send(Msg::Tick).is_err() {
                    break;
                }
            });
        }
        let mut last_live_write = Instant::now();

        // Every cell journaled is not the end: the last-finishing
        // worker's trailing `metrics`/`trace`/`bye` lines land *after* its
        // final `done`, so run until each worker's reader signals EOF too,
        // keeping the fleet rollup and worker lifecycle spans complete.
        while journal.len() < jobs.len() || slots.iter().any(|s| s.alive) {
            let msg = rx
                .recv()
                .map_err(|_| "supervisor channel closed unexpectedly".to_owned())?;
            match msg {
                Msg::Event(id, event) => {
                    // Heartbeat latency is the silence window this line
                    // just ended — measured before refreshing liveness.
                    let gap = slots[id].last_seen.elapsed();
                    slots[id].last_seen = Instant::now();
                    match event {
                        WorkerEvent::Hello { epoch_us, .. } => {
                            if let Some(worker_wall) = epoch_us {
                                note_epoch_offset(&mut slots[id], worker_wall);
                            }
                        }
                        WorkerEvent::Started { index } => {
                            slots[id].running = Some((index, Instant::now()));
                            progress.set_state(id, WorkerState::Running(index));
                        }
                        WorkerEvent::Done { index, record } => {
                            if let Err(e) = journal.record(index, &record) {
                                kill_all(&mut slots);
                                return Err(e);
                            }
                            slots[id].pending.remove(&index);
                            let cost = cost_of.get(index).copied().unwrap_or(1);
                            // The start→done window is the cell's wall
                            // time: a trace span on the worker's lane and
                            // the ETA's measured-throughput signal.
                            if let Some((started_index, started_at)) = slots[id].running.take() {
                                if started_index == index {
                                    let wall = started_at.elapsed();
                                    mlrl_obs::record_complete(
                                        format!("cell {index}"),
                                        slots[id].lane,
                                        started_at,
                                        wall,
                                    );
                                    mlrl_obs::hist_record(
                                        "orch.cell_wall_us",
                                        wall.as_micros() as u64,
                                    );
                                    progress.note_cell_timing(cost, wall);
                                }
                            }
                            progress.note_done(cost);
                            progress.emit(false);
                        }
                        WorkerEvent::Heartbeat => {
                            mlrl_obs::counter_add("orch.heartbeats", 1);
                            mlrl_obs::gauge_set("orch.heartbeat.gap_ms", gap.as_secs_f64() * 1e3);
                        }
                        WorkerEvent::Metrics { payload } => {
                            take_worker_metrics(&mut slots[id], &payload);
                        }
                        WorkerEvent::Trace { payload } => {
                            merge_worker_trace(&slots[id], id, &payload);
                        }
                        WorkerEvent::Bye { metrics, .. } => {
                            if let Some(payload) = metrics {
                                take_worker_metrics(&mut slots[id], &payload);
                            }
                            progress.set_state(id, WorkerState::Done);
                        }
                    }
                }
                Msg::Stderr(line) => {
                    // Worker stderr rides the renderer so it cannot
                    // splice into a live `\r`-rewritten progress line.
                    progress.passthrough(&line);
                }
                Msg::Eof(id) => {
                    let _ = slots[id].child.wait();
                    slots[id].alive = false;
                    mlrl_obs::record_complete(
                        format!("worker {id}"),
                        slots[id].lane,
                        slots[id].spawned,
                        slots[id].spawned.elapsed(),
                    );
                    if slots[id].pending.is_empty() || journal.len() == jobs.len() {
                        progress.set_state(id, WorkerState::Done);
                        continue;
                    }
                    // Crash or wedge-kill with work left: restart on the
                    // remainder.
                    progress.set_state(id, WorkerState::Crashed);
                    mlrl_obs::counter_add("orch.restarts", 1);
                    mlrl_obs::instant("restart", slots[id].lane);
                    restarts += 1;
                    if restarts > cfg.max_restarts {
                        kill_all(&mut slots);
                        progress.finish();
                        return Err(format!(
                            "worker crashed and the restart budget ({}) is exhausted; \
                             journal retained — continue with --resume {}",
                            cfg.max_restarts,
                            cfg.run_dir.root().display()
                        ));
                    }
                    let remainder: Vec<usize> = slots[id].pending.iter().copied().collect();
                    progress.passthrough(&format!(
                        "[mlrl orchestrate] worker {id} lost with {} cell(s) left; \
                         restarting as worker {} (restart {restarts}/{})",
                        remainder.len(),
                        slots.len(),
                        cfg.max_restarts
                    ));
                    let slot =
                        spawn_worker(cfg, &remainder, slots.len(), &tx).inspect_err(|_| {
                            kill_all(&mut slots);
                        })?;
                    progress.set_state(slots.len(), WorkerState::Idle);
                    slots.push(slot);
                    workers_spawned += 1;
                }
                Msg::Tick => {
                    let mut wedged: Vec<usize> = Vec::new();
                    for (id, slot) in slots.iter_mut().enumerate() {
                        if slot.alive
                            && !slot.killing
                            && slot.last_seen.elapsed() > cfg.wedge_timeout
                        {
                            slot.killing = true;
                            mlrl_obs::counter_add("orch.wedges", 1);
                            mlrl_obs::instant("wedge", slot.lane);
                            let _ = slot.child.kill(); // EOF follows; crash path restarts
                            wedged.push(id);
                        }
                    }
                    for id in wedged {
                        progress.passthrough(&format!(
                            "[mlrl orchestrate] worker {id} silent for {:?}; killing as wedged",
                            cfg.wedge_timeout
                        ));
                    }
                    progress.emit(false);
                    // Live observability files for `mlrl top`, refreshed
                    // about once a second. Best-effort — a full disk must
                    // not kill the campaign.
                    if last_live_write.elapsed() >= Duration::from_millis(900) {
                        last_live_write = Instant::now();
                        write_fleet(cfg, &slots, jobs.len(), journal.len(), progress.eta());
                        if cfg.telemetry {
                            let mut live = fold_fleet_slots(&slots);
                            live.merge(&mlrl_obs::snapshot());
                            let _ = cfg.run_dir.write_metrics(&live);
                        }
                    }
                }
            }
        }
        // Flush any worker stderr that arrived after the last EOF
        // (inherited stderr used to reach the terminal directly).
        for msg in rx.try_iter() {
            if let Msg::Stderr(line) = msg {
                progress.passthrough(&line);
            }
        }
        fleet_metrics = fold_fleet_slots(&slots);
        // Final fleet snapshot so `mlrl top` on a finished run dir shows
        // settled per-worker states instead of the last live tick.
        write_fleet(cfg, &slots, jobs.len(), journal.len(), progress.eta());
        progress.emit(true);
        progress.finish();
    }

    mlrl_obs::counter_add("orch.workers.spawned", workers_spawned as u64);

    // The fleet rollup: workers' streamed payloads folded with the
    // supervisor's own counters/gauges, persisted beside the journal.
    let metrics = if cfg.telemetry {
        fleet_metrics.merge(&mlrl_obs::snapshot());
        cfg.run_dir.write_metrics(&fleet_metrics)?;
        // The merged timeline: workers' streamed spans on `w<slot>/`
        // lanes interleaved with the supervisor's own `orch/` events.
        cfg.run_dir.write_trace()?;
        Some(fleet_metrics)
    } else {
        None
    };

    // The in-process merge: replay the journal through the same
    // validator shard merging uses, proving the record set is complete
    // and gap-free, and emitting the exact canonical unsharded bytes.
    let mut stream = header_line(&spec.name, journal.len(), None);
    stream.push('\n');
    for line in journal.completed().values() {
        stream.push_str(line);
        stream.push('\n');
    }
    let canonical = merge_canonical_streams(&[stream])?;
    cfg.run_dir.write_merged(&canonical)?;
    let failed_cells = journal
        .completed()
        .values()
        .filter(|line| line.contains("\"status\":\"failed\""))
        .count();

    Ok(OrchestrationOutcome {
        canonical,
        campaign: spec.name.clone(),
        cells: jobs.len(),
        resumed_cells,
        executed_cells: journal.len() - resumed_cells,
        failed_cells,
        restarts,
        workers_spawned,
        wall: started.elapsed(),
        metrics,
    })
}

/// Fix the slot's trace-timestamp shift from its telemetry hello: the
/// worker reports the wall clock at which it fixed its trace epoch, and
/// the difference from the supervisor's own epoch wall clock is the
/// shift between the two trace clocks. The shift is clamped to
/// `[0, hello receipt]` — a worker's epoch cannot predate the
/// supervisor's nor postdate its hello's arrival, so anything outside
/// that window is clock skew, surfaced as the `orch.clock_skew_us`
/// gauge (max across the fleet).
fn note_epoch_offset(slot: &mut Slot, worker_wall_us: u64) {
    let recv_us = mlrl_obs::micros_since_epoch(Instant::now()) as i64;
    let raw = worker_wall_us as i64 - mlrl_obs::epoch_unix_micros() as i64;
    let clamped = raw.clamp(0, recv_us);
    slot.epoch_offset_us = Some(clamped);
    mlrl_obs::gauge_max("orch.clock_skew_us", (raw - clamped).abs() as f64);
}

/// Merge one streamed trace chunk into the supervisor's sink under the
/// slot's `w<id>/` lane namespace, shifted onto the supervisor's
/// timeline by the slot's epoch offset. Malformed chunks — e.g. the
/// truncated final flush of a killed worker — are counted and dropped;
/// they must never corrupt the merged trace.
fn merge_worker_trace(slot: &Slot, id: usize, payload: &str) {
    if !mlrl_obs::enabled() {
        return;
    }
    let offset = slot.epoch_offset_us.unwrap_or(0);
    if !mlrl_obs::merge_trace_chunk(payload, &format!("w{id}/"), offset) {
        mlrl_obs::counter_add("orch.trace.rejected", 1);
    }
}

/// Keep a worker's streamed cumulative rollup; one that does not parse
/// in full is counted and dropped.
fn take_worker_metrics(slot: &mut Slot, payload: &str) {
    match Metrics::parse(payload) {
        Some(m) => slot.metrics = Some(m),
        None => mlrl_obs::counter_add("orch.metrics.rejected", 1),
    }
}

/// Fold every slot's latest streamed rollup into one fleet rollup.
/// Gauges are max-merged, so same-named per-worker gauges (every worker
/// process reports `pool.worker0.utilization`) would collapse to a
/// single fleet-wide value — namespace each slot's gauges by worker id
/// before folding; counters, span stats, and histograms merge
/// additively and need no prefix.
fn fold_fleet_slots(slots: &[Slot]) -> Metrics {
    let mut fleet = Metrics::default();
    for (id, slot) in slots.iter().enumerate() {
        if let Some(m) = &slot.metrics {
            let mut namespaced = m.clone();
            namespaced.gauges = m
                .gauges
                .iter()
                .map(|(k, v)| (format!("w{id}.{k}"), *v))
                .collect();
            fleet.merge(&namespaced);
        }
    }
    fleet
}

/// Replaces the run dir's fleet snapshot, on a ~1s throttle and once
/// more at the end (telemetry on or off — it derives from protocol
/// traffic, not from worker metrics). Best-effort, like every live file.
fn write_fleet(
    cfg: &OrchestratorConfig,
    slots: &[Slot],
    cells_total: usize,
    cells_done: usize,
    eta: Option<Duration>,
) {
    let workers = slots.iter().enumerate().map(|(id, slot)| {
        let idle = slot.pending.is_empty();
        let state = match (slot.alive, slot.killing, slot.running.is_some()) {
            (false, ..) if idle => "done",
            (false, ..) => "crashed",
            (true, true, _) => "wedged",
            (true, false, true) => "running",
            _ if idle => "draining",
            _ => "idle",
        };
        FleetWorker {
            id: id as u64,
            state: state.to_owned(),
            pending: slot.pending.len() as u64,
            hb_ms: slot.last_seen.elapsed().as_millis() as u64,
            cell: slot
                .running
                .map(|(cell, since)| (cell as u64, since.elapsed().as_millis() as u64)),
        }
    });
    let _ = cfg.run_dir.write_fleet(&Fleet {
        updated_unix_ms: unix_ms(),
        cells_total: cells_total as u64,
        cells_done: cells_done as u64,
        eta_s: eta.map(|d| d.as_secs()),
        workers: workers.collect(),
    });
}

/// Spawns one worker process over `cells` and its stdout reader thread.
fn spawn_worker(
    cfg: &OrchestratorConfig,
    cells: &[usize],
    id: usize,
    tx: &mpsc::Sender<Msg>,
) -> Result<Slot, String> {
    let (program, prefix) = cfg
        .worker_cmd
        .split_first()
        .ok_or("orchestrator config lists no worker command")?;
    let cache_dir = cfg.cache_dir.clone().unwrap_or_else(|| cfg.run_dir.cache());
    let csv: Vec<String> = cells.iter().map(usize::to_string).collect();
    let mut command = Command::new(program);
    command
        .args(prefix)
        .arg(&cfg.spec_path)
        .arg("--cells")
        .arg(csv.join(","))
        .arg("--threads")
        .arg(cfg.worker_threads.max(1).to_string())
        .arg("--heartbeat-ms")
        .arg(cfg.heartbeat_ms.to_string())
        .arg("--cache-dir")
        .arg(&cache_dir);
    if let Some(cap) = cfg.cache_cap {
        // Each worker polices only its own writes: share out the budget
        // so the directory's growth target is `cap`, not `workers × cap`.
        let share = (cap / cfg.workers.max(1) as u64).max(1);
        command.arg("--cache-cap").arg(share.to_string());
    }
    if cfg.telemetry {
        command.arg("--telemetry");
    }
    if let Some(n) = cfg.trace_sample {
        command.arg("--trace-sample").arg(n.to_string());
    }
    if let Some(level) = &cfg.opt_level {
        command.arg("--opt-level").arg(level);
    }
    // Worker stderr is piped, not inherited: the reader thread feeds it
    // through the supervisor's renderer line-by-line so passthrough
    // cannot splice into the live `\r`-rewritten progress line.
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn worker `{program}`: {e}"))?;
    let stdout = child
        .stdout
        .take()
        .ok_or("worker stdout was not captured")?;
    let stderr = child
        .stderr
        .take()
        .ok_or("worker stderr was not captured")?;
    {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let reader = std::io::BufReader::new(stderr);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if tx.send(Msg::Stderr(line)).is_err() {
                    return;
                }
            }
        });
    }
    let tx = tx.clone();
    std::thread::spawn(move || {
        let reader = std::io::BufReader::new(stdout);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if let Some(event) = parse_line(&line) {
                if tx.send(Msg::Event(id, event)).is_err() {
                    return;
                }
            }
        }
        let _ = tx.send(Msg::Eof(id));
    });
    // Supervisor-synthesized spans live under the `orch/` lane prefix;
    // real worker spans stream in under `w<slot>/`. The disjoint
    // prefixes are the guard against lane-label collisions in the
    // merged timeline.
    let lane = if mlrl_obs::enabled() {
        mlrl_obs::lane(&format!("orch/worker-{id}"))
    } else {
        0
    };
    Ok(Slot {
        child,
        pending: cells.iter().copied().collect(),
        last_seen: Instant::now(),
        alive: true,
        killing: false,
        lane,
        spawned: Instant::now(),
        running: None,
        metrics: None,
        epoch_offset_us: None,
    })
}

/// Best-effort kill of every live worker (error paths).
fn kill_all(slots: &mut [Slot]) {
    for slot in slots {
        if slot.alive {
            let _ = slot.child.kill();
            let _ = slot.child.wait();
            slot.alive = false;
        }
    }
}
