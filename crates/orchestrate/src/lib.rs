//! # mlrl-orchestrate — the multi-process campaign shard driver
//!
//! `mlrl campaign --shard i/n` + `mlrl merge` made sharded campaigns
//! *possible*; this crate makes them *operable*. One `mlrl orchestrate`
//! invocation owns the whole process lifecycle of a sharded run:
//!
//! - [`plan`] — journal-aware worker assignments: the engine's
//!   cache-aware schedule minus already-completed cells, cut into
//!   cost-balanced contiguous chunks (`partition_by_cost`), one per
//!   worker process,
//! - [`protocol`] — the line-delimited stdout protocol worker processes
//!   speak (`hello` / `start` / `done <record>` / `heartbeat` / `bye`),
//! - [`journal`] — an append-only JSONL checkpoint of completed cells
//!   under the run directory; a killed orchestration resumes from it
//!   without recomputing finished cells (warm `--cache-dir` artifacts
//!   make the rest near-free),
//! - [`progress`] — the live terminal progress line (cells done/total,
//!   per-worker state, cost-model ETA),
//! - [`report`] — the offline analyzer behind `mlrl report`: renders
//!   phase breakdowns, latency percentiles, cache rates, worker
//!   straggler rankings, and folded stacks from a run directory's
//!   artifacts,
//! - [`run_dir`] — the run directory: its file names, the `fleet.json`
//!   format, and how each file is written,
//! - [`supervise`] — the supervisor: spawns `--workers N` processes
//!   pointed at one shared content-addressed cache dir, restarts a
//!   crashed or wedged worker with its remaining cells, journals every
//!   completion, merges each worker's streamed trace chunks onto one
//!   skew-corrected timeline, and on success merges the canonical
//!   unsharded byte stream in-process,
//! - [`top`] — the live fleet console behind `mlrl top`: tails the run
//!   directory to render per-worker state, latency percentiles, and
//!   memory while (or after) the run executes.
//!
//! The determinism contract is inherited from the engine: every cell
//! record is a pure function of the spec, so the orchestrated output is
//! byte-identical to `mlrl campaign <spec> --canonical` on one process —
//! including across crash-restart and kill-resume boundaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod journal;
pub mod plan;
pub mod progress;
pub mod protocol;
pub mod report;
pub mod run_dir;
pub mod supervise;
pub mod top;

pub use journal::Journal;
pub use plan::{plan_assignments, spec_digest};
pub use protocol::WorkerEvent;
pub use report::{render_report, ReportOptions};
pub use supervise::{orchestrate, OrchestrationOutcome, OrchestratorConfig};
pub use top::{render_top, run_top, TopOptions};
