//! # mlrl-engine — parallel experiment campaigns with artifact caching
//!
//! The DAC'22 evaluation is a family of sweeps: benchmarks × abstraction
//! levels × locking schemes × key budgets × seeds × attacks. This crate
//! turns such a sweep from a hand-rolled single-threaded loop into a
//! declarative [`spec::CampaignSpec`] executed by [`run::Engine`]:
//!
//! - [`spec`] — the campaign grid and its `key = value` file format,
//!   including the RTL/gate [`spec::Level`] axis, gate-lock schemes
//!   (`xor-xnor` / `mux`), and the SAT attack with per-cell budgets,
//! - [`job`] — grid expansion with FNV-derived per-cell seeds, so
//!   results are independent of execution order and thread count,
//! - [`pool`] — a std-only work-stealing worker pool
//!   (`std::thread::scope`, per-worker deques, per-job panic isolation)
//!   with chunked dealing that preserves cache-aware job grouping,
//! - [`cache`] — a content-addressed artifact cache (base designs,
//!   locked modules, relock training sets, lowered netlists) keyed by
//!   FNV-1a over emitted Verilog + configuration, with optional on-disk
//!   spill; the lowered-netlist shard makes one synthesis serve every
//!   gate-level cell sharing the source module,
//! - [`report`] — per-job records with JSON-lines and table emitters;
//!   the *canonical* serialization is byte-identical across thread
//!   counts and cache states, and concatenated shard reports merge back
//!   into it ([`report::merge_canonical_streams`]),
//! - [`run`] — the engine wiring the above together, including sharded
//!   multi-process execution ([`run::Engine::run_shard`]: deterministic
//!   cost-balanced partitions of the job list, so a campaign splits
//!   across processes or machines and merges byte-exactly),
//! - [`drivers`] — every `mlrl-bench` sweep re-expressed as campaigns:
//!   `fig4_observations`, `fig5_metric`, `fig6_kpa`,
//!   `sec32_pair_leakage`, `attack_baselines`, `fig1_gate_vs_rtl`,
//!   `sat_attack_eval`, `ablation_budget`, `design_bias`, and
//!   `multi_objective`,
//! - [`cli`] — the command-line parser of `mlrl` and the bench binaries
//!   (per-command flag tables that reject unknown flags),
//! - [`fnv`] — the 64-bit FNV-1a content-address function.
//!
//! ## Example
//!
//! ```
//! use mlrl_engine::run::Engine;
//! use mlrl_engine::spec::CampaignSpec;
//!
//! let spec = CampaignSpec::parse(
//!     "benchmarks = FIR\n\
//!      schemes    = assure era\n\
//!      budgets    = 0.5\n\
//!      seeds      = 7\n\
//!      attacks    = kpa-model\n\
//!      threads    = 2\n",
//! )?;
//! let report = Engine::new().run(&spec);
//! assert_eq!(report.records.len(), 2);
//! assert_eq!(report.failed_count(), 0);
//! # Ok::<(), mlrl_engine::spec::SpecError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cli;
pub mod drivers;
pub mod fnv;
pub mod job;
pub mod pool;
pub mod report;
pub mod run;
pub mod spec;

pub use cache::{parse_byte_size, ArtifactCache, CacheStats};
pub use job::ShardSpec;
pub use report::{
    kpa_cell_means, merge_canonical_streams, scheme_averages, CampaignReport, CellSummary,
    JobRecord, JobStatus,
};
pub use run::{scheduled_jobs, Engine, JobEvent, JobObserver};
pub use spec::{AttackKind, CampaignSpec, Level, SchemeKind};
