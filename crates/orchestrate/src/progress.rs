//! The live progress line.
//!
//! One stderr line — `\r`-rewritten on a terminal, printed as discrete
//! throttled lines when stderr is a pipe (CI logs) — showing cells
//! done/total, each worker's state, and an ETA extrapolated from the
//! cost model: completed *cost* (SAT cells ~10× an attack-free cell)
//! over elapsed wall-clock predicts the remaining cost's duration far
//! better than a cell count would. Once enough cells have finished with
//! measured wall times ([`Progress::note_cell_timing`]) the ETA blends
//! the static model with the observed per-cost-unit rate, so it
//! converges on real throughput as evidence accumulates.

use std::io::{IsTerminal, Write};
use std::time::{Duration, Instant};

/// Display state of one worker process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Spawned, no cell started yet.
    Idle,
    /// Executing the cell with this grid index.
    Running(usize),
    /// Finished its whole assignment.
    Done,
    /// Crashed or wedged (its remainder moves to a restarted worker).
    Crashed,
}

impl WorkerState {
    fn glyph(self) -> String {
        match self {
            WorkerState::Idle => "idle".to_owned(),
            WorkerState::Running(index) => format!("#{index}"),
            WorkerState::Done => "done".to_owned(),
            WorkerState::Crashed => "crashed".to_owned(),
        }
    }
}

/// Tracker + renderer of the orchestration progress line.
pub struct Progress {
    total_cells: usize,
    total_cost: u64,
    done_cells: usize,
    done_cost: u64,
    resumed_cost: u64,
    workers: Vec<WorkerState>,
    started: Instant,
    last_emit: Option<Instant>,
    live: bool,
    enabled: bool,
    min_interval: Duration,
    /// Cells with a measured wall time, their summed cost, and their
    /// summed per-cell wall-clock (one worker each, so worker-seconds).
    measured_cells: usize,
    measured_cost: u64,
    measured_wall: Duration,
}

/// Measured cells needed before the ETA trusts observed timings at all;
/// also the half-weight point of the blend (at `k` measured cells the
/// model and the observation contribute equally).
const MEASURED_BLEND_K: usize = 3;

impl Progress {
    /// New tracker over `total_cells` with summed `total_cost`;
    /// `already_done` covers journal-resumed cells (their cost counts as
    /// instantaneous, so the ETA reflects only real remaining work).
    pub fn new(
        total_cells: usize,
        total_cost: u64,
        already_done_cells: usize,
        already_done_cost: u64,
        enabled: bool,
    ) -> Self {
        Self {
            total_cells,
            total_cost,
            done_cells: already_done_cells,
            done_cost: already_done_cost,
            resumed_cost: already_done_cost,
            workers: Vec::new(),
            started: Instant::now(),
            last_emit: None,
            live: std::io::stderr().is_terminal(),
            enabled,
            min_interval: Duration::from_millis(500),
            measured_cells: 0,
            measured_cost: 0,
            measured_wall: Duration::ZERO,
        }
    }

    /// Registers worker slot `id` (slots appear as workers spawn,
    /// including restarts).
    pub fn set_state(&mut self, id: usize, state: WorkerState) {
        if self.workers.len() <= id {
            self.workers.resize(id + 1, WorkerState::Idle);
        }
        self.workers[id] = state;
    }

    /// Accounts one freshly completed cell of the given cost.
    pub fn note_done(&mut self, cost: u64) {
        self.done_cells += 1;
        self.done_cost += cost;
    }

    /// Feeds one cell's observed wall-clock into the ETA blend. Callers
    /// pair this with [`Progress::note_done`] whenever they know how
    /// long the cell actually ran (the supervisor measures
    /// `start`→`done` per worker).
    pub fn note_cell_timing(&mut self, cost: u64, wall: Duration) {
        self.measured_cells += 1;
        self.measured_cost += cost.max(1);
        self.measured_wall += wall;
    }

    /// Cells completed so far (including resumed ones).
    pub fn done_cells(&self) -> usize {
        self.done_cells
    }

    /// The rendered progress line (without trailing newline).
    pub fn render(&self) -> String {
        let mut line = format!(
            "[mlrl orchestrate] {}/{} cells",
            self.done_cells, self.total_cells
        );
        if !self.workers.is_empty() {
            let states: Vec<String> = self
                .workers
                .iter()
                .enumerate()
                .map(|(id, s)| format!("w{id}:{}", s.glyph()))
                .collect();
            line.push_str(&format!(" · {}", states.join(" ")));
        }
        match self.eta() {
            Some(eta) => line.push_str(&format!(" · ETA {}s", eta.as_secs())),
            None => line.push_str(" · ETA -"),
        }
        line
    }

    /// Workers that can still absorb remaining cost (idle or running);
    /// at least 1 so the measured fleet rate stays defined.
    fn active_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|s| matches!(s, WorkerState::Idle | WorkerState::Running(_)))
            .count()
            .max(1)
    }

    /// Blended ETA. The static model (elapsed wall over completed live
    /// cost) is the only signal early on; once ≥`MEASURED_BLEND_K`
    /// cells carry measured wall times, the observed seconds-per-cost
    /// (divided across active workers) is blended in with weight
    /// `m / (m + k)`, so the estimate converges on real throughput as
    /// `m` grows. `None` until either signal exists.
    pub fn eta(&self) -> Option<Duration> {
        let remaining = self.total_cost.saturating_sub(self.done_cost);
        let live_cost = self.done_cost.saturating_sub(self.resumed_cost);
        let model =
            (live_cost > 0).then(|| self.started.elapsed().as_secs_f64() / live_cost as f64);
        let measured =
            (self.measured_cells >= MEASURED_BLEND_K && self.measured_cost > 0).then(|| {
                self.measured_wall.as_secs_f64()
                    / self.measured_cost as f64
                    / self.active_workers() as f64
            });
        let secs_per_cost = match (model, measured) {
            (Some(model), Some(measured)) => {
                let m = self.measured_cells as f64;
                let w = m / (m + MEASURED_BLEND_K as f64);
                w * measured + (1.0 - w) * model
            }
            (Some(model), None) => model,
            (None, Some(measured)) => measured,
            (None, None) => return None,
        };
        Some(Duration::from_secs_f64(secs_per_cost * remaining as f64))
    }

    /// Emits the line to stderr, throttled unless `force`. On a terminal
    /// the line rewrites itself (`\r`); on a pipe it prints discrete
    /// newline-terminated lines so CI logs stay readable.
    pub fn emit(&mut self, force: bool) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        if !force {
            if let Some(last) = self.last_emit {
                if now.duration_since(last) < self.min_interval {
                    return;
                }
            }
        }
        self.last_emit = Some(now);
        let mut err = std::io::stderr().lock();
        let _ = if self.live {
            write!(err, "\r\x1b[2K{}", self.render())
        } else {
            writeln!(err, "{}", self.render())
        };
        let _ = err.flush();
    }

    /// Terminates a live (`\r`) progress line so following stderr output
    /// starts on a fresh line.
    pub fn finish(&mut self) {
        if self.enabled && self.live && self.last_emit.is_some() {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err);
        }
    }

    /// Prints foreign stderr output (worker passthrough, supervisor
    /// notices) without splicing into a live `\r`-rewritten progress
    /// line: clear the line, print whole lines, redraw. On a pipe this
    /// is a plain print — discrete lines never interleave mid-line.
    pub fn passthrough(&mut self, text: &str) {
        {
            let mut err = std::io::stderr().lock();
            if self.enabled && self.live && self.last_emit.is_some() {
                let _ = write!(err, "\r\x1b[2K");
            }
            for line in text.lines() {
                let _ = writeln!(err, "{line}");
            }
            let _ = err.flush();
        }
        if self.enabled && self.live && self.last_emit.is_some() {
            self.emit(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_cells_workers_and_eta() {
        let mut p = Progress::new(10, 19, 2, 2, false);
        p.set_state(0, WorkerState::Running(7));
        p.set_state(1, WorkerState::Idle);
        let line = p.render();
        assert!(line.contains("2/10 cells"), "{line}");
        assert!(line.contains("w0:#7"), "{line}");
        assert!(line.contains("w1:idle"), "{line}");
        assert!(line.contains("ETA"), "{line}");

        p.note_done(10);
        p.set_state(0, WorkerState::Done);
        let line = p.render();
        assert!(line.contains("3/10 cells"), "{line}");
        assert!(line.contains("w0:done"), "{line}");
        // 12 of 19 cost units done: a numeric ETA exists now.
        assert!(!line.contains("ETA -"), "{line}");
        assert_eq!(p.done_cells(), 3);
    }

    #[test]
    fn eta_blends_in_measured_cell_timings_once_enough_accumulate() {
        let mut p = Progress::new(10, 100, 0, 0, false);
        p.set_state(0, WorkerState::Running(0));
        p.set_state(1, WorkerState::Idle);

        // Fewer than k measured cells: no signal, ETA stays unknown
        // (done_cost is still 0, so the model has nothing either).
        p.note_cell_timing(10, Duration::from_secs(5));
        p.note_cell_timing(10, Duration::from_secs(5));
        assert!(p.render().contains("ETA -"), "{}", p.render());

        // Third measurement crosses the threshold: 30 cost units took 15
        // worker-seconds → 0.5 s/cost, across 2 active workers → 0.25
        // s/cost fleet-wide; 100 cost units remain → 25s.
        p.note_cell_timing(10, Duration::from_secs(5));
        assert_eq!(p.eta(), Some(Duration::from_secs_f64(25.0)));

        // A finished worker leaves the fleet: the same measurements now
        // predict serial execution — twice the ETA.
        p.set_state(1, WorkerState::Done);
        assert_eq!(p.eta(), Some(Duration::from_secs_f64(50.0)));
    }
}
