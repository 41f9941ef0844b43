//! # mlrl-bench — experiment harness for the DAC'22 reproduction
//!
//! Every paper sweep runs as a campaign on `mlrl_engine` (built by
//! `mlrl_engine::drivers`), and the ten `src/bin` binaries are thin
//! printers over `Engine` output: they parse flags through [`args`],
//! run the grid in parallel through the content-addressed artifact
//! cache, and format the records. All of them accept `--canonical` (the
//! deterministic JSON-lines stream) and `--shard I/N` (run one
//! deterministic partition; merge the outputs with `mlrl merge`).
//! [`experiments`] keeps the one non-campaign-shaped runner — the
//! Fig. 5a metric surface and the 5b per-bit trajectories. The two
//! Criterion benches under `benches/` are the controlled-input ones:
//! simulator lane width (`sim_throughput`) and the O2 optimizer
//! (`opt_pipeline`). End-to-end performance is measured by
//! `campaign_bench` at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod experiments;
