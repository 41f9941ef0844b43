//! The untraced run: the engine executes whole passes of the workload's
//! grid on one worker thread, and every cell is timed from its
//! `JobEvent::Started` to its `JobEvent::Finished`.
//!
//! Closed loop: the single worker starts a cell only when the previous
//! one has finished. Each pass builds a fresh engine and covers instances
//! no earlier pass of the run covered, so the run averages over as many
//! instances as its budget allows. `lock-replay` instead runs rounds: a
//! cold fill of new instances into a fresh spill directory, then warm
//! passes over it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mlrl_engine::{CampaignReport, Engine, JobEvent};

use crate::stats::{median, tail_percentile, Percentile};
use crate::workload::{Inputs, Workload, DEFAULT_SEED};

/// Warm passes of each `lock-replay` round.
const WARM_PASSES: u32 = 8;

/// Fewest `lock-replay` rounds; each gives one set-up sample.
const MIN_ROUNDS: u64 = 3;

/// Fewest cells a run times, so that the median has ten samples beyond it.
const MIN_TIMED_CELLS: usize = 20;

/// Cell timings collected by the engine observer during one pass.
#[derive(Default)]
struct CellClock {
    first_start: Option<Instant>,
    running: HashMap<usize, Instant>,
    cell_ms: Vec<f64>,
    setup_probes: Vec<Duration>,
    probe_error: Option<String>,
}

/// One engine pass over (part of) the grid.
pub struct Pass {
    /// The engine's report.
    pub report: CampaignReport,
    /// Pass start (before the spec is parsed) to the first cell's start.
    pub setup: Duration,
    /// First cell's start to the end of the run, less the set-up probes.
    pub wall: Duration,
    /// Per-cell wall times in milliseconds, in completion order.
    pub cell_ms: Vec<f64>,
    /// Set-up probes taken after each cell, in seconds.
    pub setup_probes: Vec<f64>,
}

/// Parses the spec text, builds a fresh single-thread engine (over
/// `cache_dir` when given) and runs the grid cells `cells` selects
/// (`None`: every cell). With `probe_setup`, a set-up probe runs after
/// every cell: the host's speed changes from second to second, so set-up
/// is sampled across the whole pass rather than in one burst.
pub fn run_pass(
    inputs: &Inputs,
    cache_dir: Option<&Path>,
    cells: Option<&[usize]>,
    probe_setup: bool,
) -> Result<Pass, String> {
    let started = Instant::now();
    let spec = inputs.spec()?;
    let clock = Arc::new(Mutex::new(CellClock::default()));
    let sink = Arc::clone(&clock);
    let probe_inputs = probe_setup.then(|| inputs.clone());
    let engine = match cache_dir {
        Some(dir) => Engine::new().with_cache_dir(dir),
        None => Engine::new(),
    }
    .with_observer(Arc::new(move |event| {
        let now = Instant::now();
        let mut clock = sink.lock().expect("cell clock poisoned");
        match event {
            JobEvent::Started { index } => {
                clock.first_start.get_or_insert(now);
                clock.running.insert(index, now);
            }
            JobEvent::Finished { record } => {
                if let Some(start) = clock.running.remove(&record.index) {
                    clock.cell_ms.push((now - start).as_secs_f64() * 1e3);
                }
                if let Some(inputs) = &probe_inputs {
                    match setup_probe(inputs) {
                        Ok(d) => clock.setup_probes.push(d),
                        Err(e) => clock.probe_error = Some(e),
                    }
                }
            }
        }
    }));
    let report = match cells {
        Some(cells) => engine.run_cells(&spec, cells),
        None => engine.run(&spec),
    };
    let ended = Instant::now();
    drop(engine);
    let clock = Arc::try_unwrap(clock)
        .map_err(|_| "engine kept its observer alive".to_owned())?
        .into_inner()
        .expect("cell clock poisoned");
    if let Some(e) = clock.probe_error {
        return Err(e);
    }
    let first = clock.first_start.unwrap_or(ended);
    let probed: Duration = clock.setup_probes.iter().sum();
    Ok(Pass {
        report,
        setup: first - started,
        wall: ended - first - probed,
        cell_ms: clock.cell_ms,
        setup_probes: clock
            .setup_probes
            .iter()
            .map(Duration::as_secs_f64)
            .collect(),
    })
}

/// Checks records against the expected canonical lines: on the first
/// pass of the default seed the stored reference, otherwise the first
/// stream checked since the last [`Checker::restart`], so a repeated cell
/// (and every warm replay) must reproduce it byte for byte.
pub struct Checker {
    workload: Workload,
    /// Expected lines: the stream header, then one line per grid cell.
    expected: Option<Vec<String>>,
    /// Cells checked.
    pub attempted: usize,
    /// Cells that failed a check.
    pub failed: usize,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl Checker {
    /// A checker for a run on `inputs`.
    pub fn new(inputs: &Inputs) -> Self {
        let expected = (inputs.seed == DEFAULT_SEED).then(|| {
            inputs
                .workload
                .reference()
                .lines()
                .map(str::to_owned)
                .collect()
        });
        Self {
            workload: inputs.workload,
            expected,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Forgets the expected lines before a pass over new instances; the
    /// next checked report sets them.
    pub fn restart(&mut self) {
        self.expected = None;
    }

    /// Checks every record of `report` (all of the grid, or the cells a
    /// `run_cells` call selected); returns how many failed. A cell fails
    /// if its status is not OK, its canonical line differs from the
    /// expected one, or (on `gate-sat`) its SAT attack did not prove.
    pub fn check(&mut self, report: &CampaignReport) -> usize {
        let expected = self.expected.get_or_insert_with(|| {
            report
                .canonical_jsonl()
                .lines()
                .map(str::to_owned)
                .collect()
        });
        let mut failed = 0;
        for record in &report.records {
            let got = record.canonical_line();
            let want = expected
                .get(record.index + 1)
                .map_or("<no such cell>", String::as_str);
            let unproved = self.workload == Workload::GateSat && record.sat_proved != Some(true);
            if !record.status.is_ok() || got != want || unproved {
                failed += 1;
                if self.problems.len() < 8 {
                    self.problems
                        .push(format!("cell {}: got {got}, want {want}", record.index));
                }
            }
        }
        self.attempted += report.records.len();
        self.failed += failed;
        failed
    }
}

/// Everything an untraced run measured.
pub struct Measured {
    /// Set-up samples, in seconds.
    pub setup_s: Vec<f64>,
    /// Per-cell wall times of the timed passes, in milliseconds.
    pub cell_ms: Vec<f64>,
    /// Completed OK cells in the timed passes.
    pub ok_cells: usize,
    /// Summed wall time of the timed passes.
    pub timed_wall: Duration,
    /// Timed passes run.
    pub passes: usize,
    /// Instances the timed passes covered.
    pub instances: usize,
    /// Correctness bookkeeping over every pass of the run.
    pub checker: Checker,
    /// Most heap bytes live at once in the process, in MiB.
    pub peak_heap_mb: f64,
}

impl Measured {
    /// Completed OK cells per wall second of the timed phase.
    pub fn cells_per_s(&self) -> f64 {
        self.ok_cells as f64 / self.timed_wall.as_secs_f64()
    }

    /// Median set-up time in seconds.
    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s).unwrap_or(f64::NAN)
    }

    /// Per-cell percentile at `level`.
    pub fn cell_percentile(&self, level: f64) -> Percentile {
        tail_percentile(&self.cell_ms, level)
    }

    fn take(&mut self, pass: Pass) {
        self.setup_s.extend(pass.setup_probes);
        self.checker.check(&pass.report);
        self.ok_cells += pass.report.ok_count();
        self.timed_wall += pass.wall;
        self.cell_ms.extend(pass.cell_ms);
        self.passes += 1;
    }
}

/// Runs the untraced benchmark for about `seconds`: passes over new
/// instances (at least [`MIN_TIMED_CELLS`] cells) with a set-up probe
/// after every timed cell, or in `lock-replay` at least [`MIN_ROUNDS`]
/// rounds whose cold fills are the set-up samples.
pub fn measure(inputs: &Inputs, seconds: u64, scratch: &Path) -> Result<Measured, String> {
    let workload = inputs.workload;
    let budget = Duration::from_secs(seconds);
    let mut m = Measured {
        setup_s: Vec::new(),
        cell_ms: Vec::new(),
        ok_cells: 0,
        timed_wall: Duration::ZERO,
        passes: 0,
        instances: 0,
        checker: Checker::new(inputs),
        peak_heap_mb: 0.0,
    };
    let started = Instant::now();
    let mut pass = 0;
    loop {
        let pass_started = Instant::now();
        let pass_inputs = if pass == 0 {
            inputs.clone()
        } else {
            m.checker.restart();
            workload.pass(inputs.seed, pass)?
        };
        if workload == Workload::LockReplay {
            replay_round(&pass_inputs, &scratch.join("round"), &mut m)?;
        } else {
            m.take(run_pass(&pass_inputs, None, None, true)?);
            // Untimed: a fresh engine must repeat the pass's first cell.
            let repeat = run_pass(&pass_inputs, None, Some(&[0]), false)?;
            m.checker.check(&repeat.report);
        }
        m.instances += pass_inputs.seeds.len();
        pass += 1;
        let enough = match workload {
            Workload::LockReplay => pass >= MIN_ROUNDS,
            _ => m.cell_ms.len() >= MIN_TIMED_CELLS,
        };
        if enough && started.elapsed() + pass_started.elapsed() > budget {
            break;
        }
    }
    m.peak_heap_mb = crate::heap::peak_mb();
    Ok(m)
}

/// One `lock-replay` round: a cold fill into a fresh spill directory,
/// then [`WARM_PASSES`] timed warm passes over it. Set-up runs from the
/// start of the fill to the first warm cell.
fn replay_round(inputs: &Inputs, dir: &Path, m: &mut Measured) -> Result<(), String> {
    remove_dir(dir)?;
    let started = Instant::now();
    let cold = run_pass(inputs, Some(dir), None, false)?;
    let fill = started.elapsed();
    m.checker.check(&cold.report);
    for warm_pass in 0..WARM_PASSES {
        let warm = run_pass(inputs, Some(dir), None, false)?;
        if warm_pass == 0 {
            m.setup_s.push((fill + warm.setup).as_secs_f64());
        }
        m.take(warm);
    }
    remove_dir(dir)
}

/// One set-up without cells: parse the spec, construct the engine, and
/// let it expand, schedule and start its pool over an empty cell
/// selection.
fn setup_probe(inputs: &Inputs) -> Result<Duration, String> {
    let started = Instant::now();
    let pass = run_pass(inputs, None, Some(&[]), false)?;
    if !pass.report.records.is_empty() {
        return Err("an empty cell selection ran cells".to_owned());
    }
    Ok(started.elapsed())
}

/// Removes a scratch directory if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display())),
    }
}

/// Scratch directory for spill files, inside the working directory.
pub fn scratch_dir(workload: Workload) -> PathBuf {
    PathBuf::from(".bench_cache").join(format!("{}-{}", workload.name(), std::process::id()))
}
