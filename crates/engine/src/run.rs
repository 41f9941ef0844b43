//! The engine proper: executes a [`CampaignSpec`] on the worker pool
//! through the artifact cache.
//!
//! Per job: resolve + generate (or cache-hit) the base design, lock it
//! under the cell's derived seed (or cache-hit the locked artifact),
//! score the security metric, then run the cell's attack — reusing the
//! relock training set across every attack on the same locked instance.
//! Gate-level cells additionally lower ("synthesize") through the
//! lowered-netlist cache shard, so one synthesis serves every gate
//! scheme × seed × attack cell sharing the source module.
//! Determinism contract: the canonical report is a pure function of the
//! spec, whatever the thread count and whatever the cache already holds.

use std::sync::Arc;
use std::time::Instant;

use mlrl_attack::freq_table::freq_table_attack;
use mlrl_attack::gate_snapshot::{
    build_gate_training_set, gate_freq_table_attack, gate_snapshot_attack, GateAttackConfig,
};
use mlrl_attack::kpa_model::predict_kpa;
use mlrl_attack::observations::{run_scenario, Scenario};
use mlrl_attack::oracle_guided::{oracle_guided_attack, OracleAttackConfig};
use mlrl_attack::pair_analysis::pair_analysis_attack;
use mlrl_attack::relock::{build_training_set, RelockConfig};
use mlrl_attack::snapshot::snapshot_attack;
use mlrl_locking::corruptibility::{
    measure_corruptibility, measure_gate_corruptibility, CorruptibilityConfig,
};
use mlrl_locking::metric::SecurityMetric;
use mlrl_locking::odt::Odt;
use mlrl_locking::pairs::PairTable;
use mlrl_locking::{key_budget, lock};
use mlrl_ml::automl::AutoMlConfig;
use mlrl_netlist::lock::{lock_netlist, GateKey, GateLockScheme};
use mlrl_netlist::lower::lower_module;
use mlrl_netlist::opt::{optimize, OptLevel};
use mlrl_rtl::bench_designs::generate_with_width;
use mlrl_rtl::emit::emit_verilog;
use mlrl_rtl::{visit, Module};
use mlrl_sat::attack::{sat_attack, SatAttackConfig, SimOracle};

use crate::cache::{ArtifactCache, LockedArtifact, LoweredArtifact};
use crate::fnv::Fnv64;
use crate::job::{budget_bps, Job, ShardSpec};
use crate::pool::{partition_by_cost, run_jobs_weighted};
use crate::report::{record_from_job, CampaignReport, JobRecord, JobStatus};
use crate::spec::{resolve_benchmark, AttackKind, CampaignSpec, Level, SchemeKind};

/// One job-lifecycle notification delivered to an [`Engine`] observer.
///
/// Observers exist for *worker-mode* processes: an orchestrated shard
/// streams one protocol line per event to its supervisor, which
/// journals completions as they happen instead of waiting for the full
/// report. Events fire on pool worker threads; observers must be cheap
/// and thread-safe.
#[derive(Debug)]
pub enum JobEvent<'a> {
    /// The job is about to execute.
    Started {
        /// Grid (row-major) index of the cell.
        index: usize,
    },
    /// The job produced its record (including failures caught inside the
    /// job). Cells that *panic* escape this event — their `Failed`
    /// records materialize only in the final report.
    Finished {
        /// The completed record.
        record: &'a JobRecord,
    },
}

/// Shared per-job observer callback (see [`JobEvent`]).
pub type JobObserver = Arc<dyn Fn(JobEvent<'_>) + Send + Sync>;

/// Campaign executor: a worker pool wired to a shared artifact cache.
///
/// One engine can run many campaigns; artifacts persist across runs, so
/// re-running a spec (or running an overlapping one) hits the cache.
pub struct Engine {
    cache: Arc<ArtifactCache>,
    threads: usize,
    observer: Option<JobObserver>,
}

impl Engine {
    /// Engine with a fresh in-memory cache and automatic thread count.
    pub fn new() -> Self {
        Self {
            cache: Arc::new(ArtifactCache::new()),
            threads: 0,
            observer: None,
        }
    }

    /// Overrides the worker thread count (0 = automatic; the spec's
    /// `threads` key, when non-zero, still wins).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Uses a cache that persists locked modules and training sets under
    /// `dir` across processes.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = Arc::new(ArtifactCache::with_spill_dir(dir));
        self
    }

    /// Like [`Engine::with_cache_dir`], but caps the spill directory at
    /// `cap_bytes` with least-recently-used eviction — the knob behind
    /// `--cache-cap` for long-lived shared cache dirs.
    pub fn with_cache_dir_capped(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        cap_bytes: u64,
    ) -> Self {
        self.cache = Arc::new(ArtifactCache::with_spill_dir_capped(dir, cap_bytes));
        self
    }

    /// Registers a per-job lifecycle observer (worker-mode event
    /// emission; see [`JobEvent`]).
    pub fn with_observer(mut self, observer: JobObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds an engine from the CLI-style cache flags every front end
    /// shares (`--cache-dir DIR` / `--cache-cap BYTES`) — one
    /// definition of the flag semantics for `mlrl`, the orchestrator's
    /// workers, and the bench binaries.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed cap value
    /// ([`crate::cache::parse_byte_size`]) or a cap without a directory.
    pub fn from_cache_flags(dir: Option<&str>, cap: Option<&str>) -> Result<Self, String> {
        let cap = cap
            .map(crate::cache::parse_byte_size)
            .transpose()
            .map_err(|e| format!("bad --cache-cap: {e}"))?;
        match (dir, cap) {
            (Some(dir), Some(cap)) => Ok(Engine::new().with_cache_dir_capped(dir, cap)),
            (Some(dir), None) => Ok(Engine::new().with_cache_dir(dir)),
            (None, Some(_)) => Err("--cache-cap needs --cache-dir".to_owned()),
            (None, None) => Ok(Engine::new()),
        }
    }

    /// The engine's artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Runs every job of `spec` and collects the report.
    pub fn run(&self, spec: &CampaignSpec) -> CampaignReport {
        self.run_shard(spec, None)
    }

    /// Runs exactly the grid cells whose (row-major) indices appear in
    /// `cells`, preserving the cache-aware schedule order among them —
    /// the worker-mode entry point: an orchestrator hands each worker
    /// process an explicit cell list (journal-aware, cost-balanced)
    /// instead of a blind `i/n` shard. Unknown indices are ignored.
    pub fn run_cells(&self, spec: &CampaignSpec, cells: &[usize]) -> CampaignReport {
        let wanted: std::collections::HashSet<usize> = cells.iter().copied().collect();
        let jobs = schedule(spec.expand())
            .into_iter()
            .filter(|job| wanted.contains(&job.index))
            .collect();
        self.run_selected(spec, jobs)
    }

    /// Runs one shard of `spec` — or everything, with `None` — and
    /// collects the report.
    ///
    /// The expanded job list is partitioned deterministically: contiguous
    /// cost-balanced chunks of the cache-aware schedule, so cells sharing
    /// artifacts stay in one shard and a SAT-heavy stretch cannot
    /// serialize one. Records keep their grid indices; concatenating the
    /// shards' canonical reports through
    /// [`crate::report::merge_canonical_streams`] reproduces the
    /// unsharded canonical byte stream exactly.
    pub fn run_shard(&self, spec: &CampaignSpec, shard: Option<ShardSpec>) -> CampaignReport {
        let mut jobs = schedule(spec.expand());
        if let Some(shard) = shard {
            let costs: Vec<u64> = jobs.iter().map(Job::cost).collect();
            let range = partition_by_cost(&costs, shard.count)
                .into_iter()
                .nth(shard.index)
                .unwrap_or(0..0);
            jobs = jobs.drain(range).collect();
        }
        self.run_selected(spec, jobs)
    }

    /// Runs an explicit (already scheduled) job list.
    fn run_selected(&self, spec: &CampaignSpec, jobs: Vec<Job>) -> CampaignReport {
        let meta: Vec<Job> = jobs.clone();
        let threads = if spec.threads > 0 {
            spec.threads
        } else if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };

        let cache_before = self.cache.stats();
        // Last cache-stat snapshot mirrored into telemetry counters;
        // advanced per completion so streamed metrics carry live rates.
        let cache_bridged = std::sync::Mutex::new(cache_before);
        let started = Instant::now();
        let outcomes = run_jobs_weighted(threads, jobs, Job::cost, |_, job| {
            let cell_span = mlrl_obs::span_with("cell", || format!("cell {}", job.index));
            if let Some(observer) = &self.observer {
                observer(JobEvent::Started { index: job.index });
            }
            let record = run_job(&self.cache, spec, job);
            drop(cell_span);
            // Counted per job (not once at the end), and *before* the
            // Finished observer fires, so a worker process snapshotting
            // metrics from its observer accounts for this cell — even if
            // a later cell crashes the process.
            if record.status.is_ok() {
                mlrl_obs::counter_add("cells.completed", 1);
            } else {
                mlrl_obs::counter_add("cells.failed", 1);
            }
            // Same reasoning for cache counters: bridge the delta since
            // the previous completion so the observer's snapshot shows
            // live hit rates, not only end-of-run totals.
            if mlrl_obs::enabled() {
                let now = self.cache.stats();
                let mut last = cache_bridged.lock().expect("cache bridge poisoned");
                bridge_cache_stats(&now.since(*last));
                *last = now;
            }
            if let Some(observer) = &self.observer {
                observer(JobEvent::Finished { record: &record });
            }
            record
        });
        let wall_ms = started.elapsed().as_millis();
        // Only the tail since the last per-cell bridge — bridging from
        // `cache_before` again would double-count every cell's traffic.
        let bridged = *cache_bridged.lock().expect("cache bridge poisoned");
        bridge_cache_stats(&self.cache.stats().since(bridged));

        let mut records: Vec<JobRecord> = outcomes
            .into_iter()
            .zip(&meta)
            .map(|(outcome, job)| match outcome {
                Ok(record) => record,
                Err(panic_msg) => JobRecord {
                    status: JobStatus::Failed(panic_msg),
                    ..record_for(spec, job)
                },
            })
            .collect();
        // The schedule reordered for cache locality; reports stay in grid
        // (row-major) order.
        records.sort_by_key(|r| r.index);

        CampaignReport {
            name: spec.name.clone(),
            records,
            threads,
            wall_ms,
            cache: self.cache.stats().since(cache_before),
        }
    }
}

/// Mirror an [`ArtifactCache`] stats delta into telemetry counters so
/// `metrics.json` carries cache behavior alongside span timings.
fn bridge_cache_stats(delta: &crate::cache::CacheStats) {
    if !mlrl_obs::enabled() {
        return;
    }
    mlrl_obs::counter_add("cache.hits", delta.hits as u64);
    mlrl_obs::counter_add("cache.misses", delta.misses as u64);
    mlrl_obs::counter_add("cache.lowered_hits", delta.lowered_hits as u64);
    mlrl_obs::counter_add("cache.lowered_misses", delta.lowered_misses as u64);
    mlrl_obs::counter_add("cache.evictions", delta.evictions as u64);
    mlrl_obs::counter_add("cache.spill.rejected", delta.rejected as u64);
}

/// The spec's expanded job list in the engine's cache-aware schedule
/// order — the exact sequence [`Engine::run`] executes and shard
/// partitioning cuts. Orchestrators plan worker assignments over this
/// list (contiguous cost-balanced chunks keep artifact-sharing cells on
/// one worker process).
pub fn scheduled_jobs(spec: &CampaignSpec) -> Vec<Job> {
    schedule(spec.expand())
}

/// Cache-aware job ordering: groups cells that share artifacts so the
/// chunked pool dealing (see [`crate::pool`]) lands them on one worker.
/// Sort keys, most-shared first: base design (benchmark × base seed),
/// locked instance (`derived_seed`), level, then grid order for
/// determinism. Without this, two cells sharing a locked instance are
/// dealt to different workers and the second blocks on the first's
/// in-flight build instead of doing useful work.
fn schedule(mut jobs: Vec<Job>) -> Vec<Job> {
    jobs.sort_by(|a, b| {
        (
            &a.benchmark,
            a.base_seed,
            a.derived_seed,
            a.level.name(),
            a.index,
        )
            .cmp(&(
                &b.benchmark,
                b.base_seed,
                b.derived_seed,
                b.level.name(),
                b.index,
            ))
    });
    jobs
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// Seeds a job's record with every spec-derived column (currently the
/// optimizer level) so success and panic paths report identically.
fn record_for(spec: &CampaignSpec, job: &Job) -> JobRecord {
    let mut record = record_from_job(job);
    if spec.opt_level != OptLevel::O0 {
        record.opt_level = Some(spec.opt_level.name().to_owned());
    }
    record
}

fn run_job(cache: &ArtifactCache, spec: &CampaignSpec, job: Job) -> JobRecord {
    let started = Instant::now();
    let mut record = record_for(spec, &job);
    match execute(cache, spec, &job, &mut record) {
        Ok(()) => {}
        Err(message) => record.status = JobStatus::Failed(message),
    }
    record.wall_ms = started.elapsed().as_millis();
    record
}

fn execute(
    cache: &ArtifactCache,
    spec: &CampaignSpec,
    job: &Job,
    record: &mut JobRecord,
) -> Result<(), String> {
    let design_spec = resolve_benchmark(&job.benchmark)
        .ok_or_else(|| format!("unknown benchmark `{}`", job.benchmark))?;

    // Base design: keyed by the generator's full configuration.
    let design_key = Fnv64::new()
        .write_str("gen|")
        .write_str(&job.benchmark)
        .write_u64(job.generate_seed())
        .write_u64(spec.width as u64)
        .finish();
    let base = {
        let _s = mlrl_obs::span("phase.design");
        cache.design(design_key, || {
            generate_with_width(&design_spec, job.generate_seed(), spec.width)
        })
    };

    if job.scheme == SchemeKind::None {
        return execute_profile(&base, record);
    }
    if job.attack == AttackKind::Observations {
        return execute_observations(spec, job, design_spec.total_ops(), record);
    }

    // Memoized per distinct design: jobs sharing a base pay for one emit.
    let base_verilog = {
        let _s = mlrl_obs::span("phase.emit");
        cache.text(design_key, || {
            emit_verilog(&base).map_err(|e| e.to_string())
        })?
    };

    if job.level == Level::Gate && job.scheme.is_gate_scheme() {
        return execute_gate_locked(cache, spec, job, &base, &base_verilog, record);
    }

    // Locked instance: content-addressed by base Verilog + lock config.
    // Shared between a scheme's RTL cell and its gate (lowered) cell.
    let locked_key = Fnv64::new()
        .write_str("lock|")
        .write_str(job.scheme.name())
        .write_u64(budget_bps(job.budget))
        .write_u64(job.lock_seed())
        .write_str("|")
        .write_str(&base_verilog)
        .finish();
    let locked = {
        let _s = mlrl_obs::span("phase.lock");
        cache.locked(locked_key, || lock_design(&base, job))?
    };
    record.key_bits = Some(locked.key.len());

    // Security metric of the final design, against the base ODT.
    let initial_odt = Odt::load(&base, PairTable::fixed());
    let metric = SecurityMetric::new(&initial_odt);
    let final_odt = Odt::load(&locked.module, PairTable::fixed());
    record.metric = Some(metric.global(&final_odt));
    record.balanced = Some(final_odt.is_balanced());
    record.bits_to_balance = locked
        .trace
        .as_ref()
        .and_then(|t| t.iter().find(|(_, g)| *g >= 100.0 - 1e-9).map(|(n, _)| *n));
    if spec.trace {
        record.trace = locked.trace.clone();
    }

    if job.level == Level::Gate {
        // RTL scheme attacked at gate level: lower the locked module (the
        // paper's Fig. 1 flow — lock at RTL, synthesize, hand the netlist
        // to the attacker).
        let lower_span = mlrl_obs::span("phase.lower");
        let locked_verilog = cache.text(
            Fnv64::new()
                .write_str("ltext|")
                .write_u64(locked_key)
                .finish(),
            || emit_verilog(&locked.module).map_err(|e| e.to_string()),
        )?;
        let lowered_key = lowered_content_key(&locked_verilog, spec.opt_level);
        let lowered = cache.lowered(lowered_key, || {
            let netlist = synthesize(&locked.module, spec.opt_level)?;
            Ok(LoweredArtifact {
                netlist,
                key: key_bits(&locked),
            })
        })?;
        let base_lowered = lowered_base(cache, &base, &base_verilog, spec.opt_level)?;
        drop(lower_span);
        record_gate_shape(record, &lowered, &base_lowered);
        return run_gate_attack(cache, spec, job, &lowered, lowered_key, record);
    }

    run_attack(cache, spec, job, &locked, locked_key, &base, record)
}

/// Profile cell (`schemes = none`): no locking, no attack — reports the
/// base design's operation count, total pair imbalance (the minimum
/// balancing key bits), and the metric denominator `d_e(v_i, v_o)`; the
/// §5 "is there a global bias among designs?" analysis.
fn execute_profile(base: &Module, record: &mut JobRecord) -> Result<(), String> {
    let odt = Odt::load(base, PairTable::fixed());
    let v = odt.abs_vector();
    record.ops = Some(visit::binary_ops(base).len());
    record.imbalance = Some(odt.total_imbalance());
    record.initial_distance = Some(v.iter().map(|x| x * x).sum::<f64>().sqrt());
    record.balanced = Some(odt.is_balanced());
    Ok(())
}

/// Observation-pool cell (Fig. 4): builds an all-`+` network of the
/// benchmark's operation count, locks it with the scheme's selection
/// strategy at the cell's budget, relocks it `relock_rounds` times under
/// the scheme's training regime, and tallies which branch operator was
/// real. The cell generates its own network (the analysis is about
/// selection strategies, not a shared locked instance), so it bypasses
/// the artifact cache.
fn execute_observations(
    spec: &CampaignSpec,
    job: &Job,
    n_ops: usize,
    record: &mut JobRecord,
) -> Result<(), String> {
    let scenario = match job.scheme {
        SchemeKind::Assure => Scenario::SerialSerial,
        SchemeKind::AssureRandom => Scenario::RandomRandom,
        SchemeKind::AssureDisjoint => Scenario::RandomDisjoint,
        other => {
            // Unreachable by construction: expansion pairs the
            // observations attack with the ASSURE selection schemes only.
            return Err(format!(
                "scheme `{}` has no observation scenario",
                other.name()
            ));
        }
    };
    let pool = run_scenario(
        scenario,
        n_ops,
        job.budget,
        spec.relock_rounds,
        job.attack_seed(),
    );
    record.obs_plus = Some(pool.plus_real);
    record.obs_minus = Some(pool.minus_real);
    // Headline %: P(+ real) — 50 means the pool is uninformative.
    record.kpa = Some(100.0 * pool.p_plus_real());
    Ok(())
}

/// Gate-scheme cell: lower the *base* module once (cached), then insert
/// key gates into the netlist under the cell's derived seed.
fn execute_gate_locked(
    cache: &ArtifactCache,
    spec: &CampaignSpec,
    job: &Job,
    base: &Module,
    base_verilog: &str,
    record: &mut JobRecord,
) -> Result<(), String> {
    let base_lowered_key = lowered_content_key(base_verilog, spec.opt_level);
    let base_lowered = lowered_base(cache, base, base_verilog, spec.opt_level)?;

    let key_len = cell_key_budget(base, job)?;
    let gate_scheme = job
        .scheme
        .gate_scheme()
        .ok_or_else(|| format!("scheme `{}` is not a gate scheme", job.scheme.name()))?;

    // Locked netlist: chained off the lowered base's content key, so
    // cells differing only in attack share it.
    let locked_lowered_key = Fnv64::new()
        .write_str("gatelock|")
        .write_str(job.scheme.name())
        .write_u64(key_len as u64)
        .write_u64(job.lock_seed())
        .write_u64(base_lowered_key)
        .finish();
    let lowered = cache.lowered(locked_lowered_key, || {
        let mut netlist = base_lowered.netlist.clone();
        let key = lock_netlist(&mut netlist, gate_scheme, key_len, job.lock_seed())
            .map_err(|e| e.to_string())?;
        Ok(LoweredArtifact {
            netlist,
            key: key.bits().to_vec(),
        })
    })?;

    record.key_bits = Some(lowered.key.len());
    record_gate_shape(record, &lowered, &base_lowered);
    run_gate_attack(cache, spec, job, &lowered, locked_lowered_key, record)
}

/// Lowers a module to its attack surface: bit-blast, expose state through
/// the scan view, sweep dead logic as synthesis would.
///
/// The scan view is required by the SAT attack's oracle (the standard
/// assumption for production chips with test scan chains) and is used
/// for *every* gate-level cell so one synthesis serves both attack
/// families. For the structural ML attacks this is immaterial — they
/// never simulate, and the key-gate localities of the scan view match
/// the plain lowering — but it does mean the Fig. 1 printer reports
/// scan-view gate counts.
fn synthesize(module: &Module, opt_level: OptLevel) -> Result<mlrl_netlist::Netlist, String> {
    let mut netlist = lower_module(module)
        .map_err(|e| e.to_string())?
        .to_scan_view();
    netlist.sweep();
    // The optimizer is function-preserving for every key assignment, so
    // locked modules stay locked; at the default `O0` this is a no-op and
    // the lowering is byte-identical to the historical one.
    optimize(&mut netlist, opt_level);
    Ok(netlist)
}

/// Cached synthesis of the unlocked base module (shared by every
/// gate-level cell on the same base, whatever its scheme).
fn lowered_base(
    cache: &ArtifactCache,
    base: &Module,
    base_verilog: &str,
    opt_level: OptLevel,
) -> Result<Arc<LoweredArtifact>, String> {
    cache.lowered(lowered_content_key(base_verilog, opt_level), || {
        Ok(LoweredArtifact {
            netlist: synthesize(base, opt_level)?,
            key: Vec::new(),
        })
    })
}

/// Content key of a lowered netlist: source Verilog plus the lowering
/// configuration (scan view + sweep, plus the optimizer level when one
/// is active). `O0` keys are byte-identical to the historical ones, so
/// warm caches stay warm across the optimizer's introduction; locked
/// keys chain off this one, so the level propagates to every derived
/// artifact automatically.
fn lowered_content_key(source_verilog: &str, opt_level: OptLevel) -> u64 {
    let opt_tag = match opt_level {
        OptLevel::O0 => "",
        OptLevel::O1 => "opt-o1|",
        OptLevel::O2 => "opt-o2|",
    };
    Fnv64::new()
        .write_str("lower|scan-sweep|")
        .write_str(opt_tag)
        .write_str(source_verilog)
        .finish()
}

/// Fills the gate-count / area-overhead columns of a gate-level cell
/// (locked netlist vs the lowered unlocked base) — the single definition
/// of the area measure, used by RTL-scheme and gate-scheme cells alike.
fn record_gate_shape(
    record: &mut JobRecord,
    lowered: &LoweredArtifact,
    base_lowered: &LoweredArtifact,
) {
    let locked_gates = lowered.netlist.gates().len();
    let base_gates = base_lowered.netlist.gates().len();
    record.gates = Some(locked_gates);
    record.area_overhead = Some(if base_gates == 0 {
        1.0
    } else {
        locked_gates as f64 / base_gates as f64
    });
}

/// The cell's key budget: `job.budget` of the base design's lockable
/// operations, the same for RTL and gate cells so one sweep spends
/// comparable key bits at both levels (the Fig. 1 apples-to-apples
/// requirement).
fn cell_key_budget(base: &Module, job: &Job) -> Result<usize, String> {
    key_budget(base, job.budget)
        .ok_or_else(|| format!("benchmark `{}` has no lockable operations", job.benchmark))
}

fn lock_design(base: &Module, job: &Job) -> Result<LockedArtifact, String> {
    // Gate schemes and profile cells never get here: expansion routes
    // them through `execute_gate_locked` and `execute_profile`.
    let scheme = job
        .scheme
        .lock_scheme()
        .ok_or_else(|| format!("scheme `{}` cannot lock an RTL module", job.scheme.name()))?;
    let bits = cell_key_budget(base, job)?;
    let mut module = base.clone();
    let outcome = lock(&mut module, scheme, bits, job.lock_seed()).map_err(|e| e.to_string())?;
    let trace: Vec<(usize, f64)> = outcome.trace.iter().map(|&(n, g, _)| (n, g)).collect();
    Ok(LockedArtifact {
        module,
        key: outcome.key,
        trace: (!trace.is_empty()).then_some(trace),
    })
}

fn run_attack(
    cache: &ArtifactCache,
    spec: &CampaignSpec,
    job: &Job,
    locked: &LockedArtifact,
    locked_key: u64,
    base: &Module,
    record: &mut JobRecord,
) -> Result<(), String> {
    let needs_training = matches!(job.attack, AttackKind::FreqTable | AttackKind::Snapshot);
    let training = if needs_training {
        let relock = RelockConfig {
            rounds: spec.relock_rounds,
            budget_fraction: 0.75,
            seed: job.relock_seed(),
        };
        // Content-addressing by hash chaining: `locked_key` already
        // commits to the locked design's full content (base Verilog +
        // lock config), so chaining off it avoids re-emitting the locked
        // module here.
        let training_key = Fnv64::new()
            .write_str("train|")
            .write_u64(relock.rounds as u64)
            .write_u64(budget_bps(relock.budget_fraction))
            .write_u64(relock.seed)
            .write_u64(locked_key)
            .finish();
        let _s = mlrl_obs::span("phase.train");
        Some(cache.training(training_key, || build_training_set(&locked.module, &relock)))
    } else {
        None
    };

    let _attack_span = mlrl_obs::span("phase.attack");
    match job.attack {
        AttackKind::FreqTable | AttackKind::Snapshot => {
            let training = training.expect("training built above");
            let report = match job.attack {
                AttackKind::FreqTable => freq_table_attack(&locked.module, &locked.key, &training),
                _ => {
                    let automl = AutoMlConfig {
                        seed: job.attack_seed(),
                        ..Default::default()
                    };
                    snapshot_attack(&locked.module, &locked.key, &training, &automl)
                }
            }
            .ok_or("target exposes no key-controlled localities")?;
            record.kpa = Some(report.kpa);
            record.attacked_bits = Some(report.attacked_bits);
            record.training_samples = Some(report.training_samples);
        }
        AttackKind::KpaModel => {
            let prediction = predict_kpa(&locked.module, &locked.key, &PairTable::fixed());
            record.kpa = Some(prediction.expected_kpa);
            record.attacked_bits = Some(locked.key.len());
        }
        AttackKind::OracleGuided => {
            let cfg = OracleAttackConfig {
                seed: job.attack_seed(),
                ..Default::default()
            };
            let report = oracle_guided_attack(&locked.module, base, &locked.key, &cfg)
                .map_err(|e| e.to_string())?;
            // Headline is *output agreement*: bit-exact KPA is capped by
            // don't-care bits in nested dummy branches (§5).
            record.kpa = Some(100.0 * report.agreement);
            record.attacked_bits = Some(report.recovered.len());
        }
        AttackKind::PairAnalysis => {
            // The attacker knows the pairing table they face
            // (threat-model assumption 2): the original table for the
            // §3.2 leaky configuration, the involutive fix otherwise.
            let table = match job.scheme {
                SchemeKind::AssureOriginal => PairTable::original_assure(),
                _ => PairTable::fixed(),
            };
            let report = pair_analysis_attack(&locked.module, &locked.key, &table);
            record.kpa = Some(report.kpa_on_inferred);
            record.attacked_bits = Some(report.inferred.len());
            record.coverage = Some(report.coverage);
            record.localities = Some(mlrl_attack::extract_localities(&locked.module).len());
        }
        AttackKind::Corruptibility => {
            let report = measure_corruptibility(
                base,
                &locked.module,
                &key_bits(locked),
                &CorruptibilityConfig {
                    wrong_keys: spec.wrong_keys,
                    seed: job.attack_seed(),
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?;
            record.corruption_rate = Some(report.corruption_rate);
            record.error_rate = Some(report.error_rate);
        }
        AttackKind::Sat => {
            // Unreachable by construction: expansion keeps the SAT attack
            // at gate level.
            return Err("SAT attack requires a gate-level cell".to_owned());
        }
        AttackKind::Observations => {
            // Unreachable by construction: `execute` routes observation
            // cells before locking.
            return Err("observation cells do not lock".to_owned());
        }
        AttackKind::None => {}
    }
    Ok(())
}

/// The locked module's correct key as plain bits, `K[0]` first.
fn key_bits(locked: &LockedArtifact) -> Vec<bool> {
    (0..locked.module.key_width())
        .map(|i| locked.key.bit(i).unwrap_or(false))
        .collect()
}

/// Runs a gate-level cell's attack against its lowered locked netlist.
///
/// Structural attacks (frequency table / SnapShot) train on relocked
/// key-gate localities; the training set is cached per locked instance so
/// both attacks (and re-runs) share it. The SAT attack plays the oracle
/// with a simulator holding the correct key and reports DIP count, proof
/// status, bit-exact key recovery, and solver wall-clock.
fn run_gate_attack(
    cache: &ArtifactCache,
    spec: &CampaignSpec,
    job: &Job,
    lowered: &LoweredArtifact,
    lowered_key: u64,
    record: &mut JobRecord,
) -> Result<(), String> {
    let _attack_span = mlrl_obs::span("phase.attack");
    match job.attack {
        AttackKind::FreqTable | AttackKind::Snapshot => {
            let gate_key = GateKey::from(lowered.key.clone());
            // The attacker relocks with the scheme they face (threat-model
            // assumption 2); RTL schemes lower to MUX trees, so their
            // gate-level analogue is MUX insertion.
            let relock_scheme = job.scheme.gate_scheme().unwrap_or(GateLockScheme::Mux);
            let gcfg = GateAttackConfig {
                scheme: relock_scheme,
                rounds: spec.relock_rounds,
                bits_per_round: lowered.key.len().clamp(1, 64),
                seed: job.relock_seed(),
            };
            // Chained off the lowered artifact's content key, mirroring
            // the RTL training shard.
            let training_key = Fnv64::new()
                .write_str("gtrain|")
                .write_u64(gcfg.rounds as u64)
                .write_u64(gcfg.bits_per_round as u64)
                .write_u64(gcfg.seed)
                .write_u64(relock_scheme as u64)
                .write_u64(lowered_key)
                .finish();
            let training = {
                let _s = mlrl_obs::span("phase.train");
                cache.training(training_key, || {
                    build_gate_training_set(&lowered.netlist, &gcfg)
                })
            };
            let report = match job.attack {
                AttackKind::FreqTable => {
                    gate_freq_table_attack(&lowered.netlist, &gate_key, &training)
                }
                _ => {
                    let automl = AutoMlConfig {
                        seed: job.attack_seed(),
                        ..Default::default()
                    };
                    gate_snapshot_attack(&lowered.netlist, &gate_key, &training, &automl)
                }
            }
            .ok_or("target exposes no key-gate localities")?;
            record.kpa = Some(report.kpa);
            record.attacked_bits = Some(report.attacked_bits);
            record.training_samples = Some(report.training_samples);
        }
        AttackKind::Sat => {
            if lowered.key.is_empty() {
                return Err("locked netlist consumes no key bits".to_owned());
            }
            let cfg = SatAttackConfig {
                max_dips: spec.sat_max_dips,
                max_clauses: if spec.sat_max_clauses == 0 {
                    usize::MAX
                } else {
                    spec.sat_max_clauses
                },
                ..Default::default()
            };
            let mut oracle =
                SimOracle::new(&lowered.netlist, &lowered.key).map_err(|e| e.to_string())?;
            let started = Instant::now();
            let report =
                sat_attack(&lowered.netlist, &mut oracle, &cfg).map_err(|e| e.to_string())?;
            record.solver_ms = Some(started.elapsed().as_millis());
            record.sat_dips = Some(report.dips);
            record.sat_proved = Some(report.proved);
            // Key-recovery %: bit-exact agreement with the inserted key.
            // Can sit below 100 even under a proof when wrong bits cancel
            // along parity paths (the functional key class is not a
            // singleton); `sat_proved` carries functional correctness.
            let exact = report
                .key
                .iter()
                .zip(&lowered.key)
                .filter(|(a, b)| a == b)
                .count();
            record.kpa = Some(100.0 * exact as f64 / lowered.key.len() as f64);
            record.attacked_bits = Some(lowered.key.len());
        }
        AttackKind::Corruptibility => {
            if lowered.key.is_empty() {
                return Err("locked netlist consumes no key bits".to_owned());
            }
            // The reference is the locked netlist under the *correct* key
            // (equivalent to the unlocked design for a sound locking
            // pass); each chunk of wrong keys rides the 64-lane sweep.
            let report = measure_gate_corruptibility(
                &lowered.netlist,
                &lowered.netlist,
                &lowered.key,
                &CorruptibilityConfig {
                    wrong_keys: spec.wrong_keys,
                    seed: job.attack_seed(),
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?;
            record.corruption_rate = Some(report.corruption_rate);
            record.error_rate = Some(report.error_rate);
        }
        AttackKind::KpaModel
        | AttackKind::OracleGuided
        | AttackKind::PairAnalysis
        | AttackKind::Observations => {
            // Unreachable by construction: expansion keeps these at RTL.
            return Err(format!(
                "attack `{}` cannot run at gate level",
                job.attack.name()
            ));
        }
        AttackKind::None => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::grid(&["FIR"], &[SchemeKind::Assure, SchemeKind::Era], &[0.5]);
        spec.name = "tiny".into();
        spec.seeds = vec![5];
        spec.attacks = vec![AttackKind::FreqTable, AttackKind::KpaModel];
        spec.relock_rounds = 8;
        spec.threads = 2;
        spec
    }

    #[test]
    fn runs_a_small_campaign_end_to_end() {
        let engine = Engine::new();
        let report = engine.run(&tiny_spec());
        assert_eq!(report.records.len(), 4);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        for r in &report.records {
            assert!(r.key_bits.expect("locked") > 0);
            let kpa = r.kpa.expect("attacked");
            assert!((0.0..=100.0).contains(&kpa), "kpa {kpa}");
        }
        // ASSURE on an imbalanced design is broken; ERA holds near 50%.
        let freq = |scheme: &str| {
            report
                .records
                .iter()
                .find(|r| r.scheme == scheme && r.attack == "freq-table")
                .and_then(|r| r.kpa)
                .expect("cell present")
        };
        assert!(freq("assure") > 85.0);
        assert!(freq("era") < 75.0);
    }

    #[test]
    fn attack_cells_share_the_locked_instance() {
        let engine = Engine::new();
        let report = engine.run(&tiny_spec());
        // 2 schemes × 2 attacks: the second attack of each scheme reuses
        // the base design and the locked artifact from the first.
        assert!(report.cache.hits >= 2, "cache: {:?}", report.cache);
    }

    fn tiny_gate_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::grid(
            &["SIM_SPI"],
            &[SchemeKind::Era, SchemeKind::XorXnor, SchemeKind::Mux],
            &[0.75],
        );
        spec.name = "tiny-gate".into();
        spec.levels = vec![Level::Gate];
        spec.seeds = vec![3];
        spec.attacks = vec![AttackKind::Sat, AttackKind::FreqTable, AttackKind::None];
        spec.relock_rounds = 8;
        spec.width = 6;
        spec.threads = 2;
        spec
    }

    #[test]
    fn runs_a_gate_level_campaign_end_to_end() {
        let engine = Engine::new();
        let report = engine.run(&tiny_gate_spec());
        assert_eq!(report.records.len(), 9);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        for r in &report.records {
            assert_eq!(r.level, "gate");
            assert!(r.key_bits.expect("locked") > 0);
            let gates = r.gates.expect("gate cells report size");
            assert!(gates > 0);
            let overhead = r.area_overhead.expect("gate cells report area");
            assert!(overhead >= 1.0, "locking cannot shrink the design");
        }
        // Every SAT cell converges to a proof and recovers the key class
        // (§5: learning resilience does not buy SAT resistance).
        for r in report.records.iter().filter(|r| r.attack == "sat") {
            assert_eq!(r.sat_proved, Some(true), "{:?}", r);
            assert!(r.sat_dips.expect("dips recorded") > 0);
            assert!(r.solver_ms.is_some());
        }
        // The Fig. 1 leak: XOR/XNOR cell types give the frequency table
        // ≈ 100 % KPA, while MUX decoys deny the structural signal.
        let freq = |scheme: &str| {
            report
                .records
                .iter()
                .find(|r| r.scheme == scheme && r.attack == "freq-table")
                .and_then(|r| r.kpa)
                .expect("cell present")
        };
        assert!(freq("xor-xnor") >= 95.0, "got {}", freq("xor-xnor"));
        assert!(freq("mux") <= 90.0, "got {}", freq("mux"));
        // One synthesis of the base + one per locked instance; all other
        // gate cells hit the lowered shard.
        assert!(report.cache.lowered_hits > 0, "cache: {:?}", report.cache);
    }

    #[test]
    fn rtl_and_gate_cells_share_the_locked_rtl_instance() {
        let mut spec = tiny_gate_spec();
        spec.levels = vec![Level::Rtl, Level::Gate];
        spec.schemes = vec![SchemeKind::Era];
        spec.attacks = vec![AttackKind::None];
        let engine = Engine::new();
        let report = engine.run(&spec);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        // Same benchmark × scheme × budget × seed: the gate cell lowers
        // the very locked module the RTL cell scored, so the locked shard
        // sees one miss and one hit.
        assert!(report.cache.hits >= 2, "cache: {:?}", report.cache);
        let key_bits: Vec<_> = report.records.iter().map(|r| r.key_bits).collect();
        assert_eq!(key_bits[0], key_bits[1]);
    }

    #[test]
    fn cache_aware_ordering_yields_exact_hit_counts() {
        // 1 benchmark × era × 1 budget × 1 seed × 3 attacks on 4 threads:
        // the grouped schedule runs the three attack cells back to back on
        // one worker, so the shared artifacts are 1 design (3 lookups),
        // 1 locked instance (3 lookups), 1 training set (1 lookup,
        // freq-table only) — 3 misses, 4 hits, deterministically.
        let mut spec = tiny_spec();
        spec.schemes = vec![SchemeKind::Era];
        spec.attacks = vec![
            AttackKind::FreqTable,
            AttackKind::KpaModel,
            AttackKind::None,
        ];
        spec.threads = 4;
        let engine = Engine::new();
        let report = engine.run(&spec);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        assert_eq!(
            (report.cache.misses, report.cache.hits),
            (3, 4),
            "cache: {:?}",
            report.cache
        );
    }

    #[test]
    fn analysis_cells_fill_their_columns() {
        // §3.2 pair-analysis cells: the original table leaks, the fixed
        // table doesn't.
        let mut spec = CampaignSpec::grid(
            &["RSA"],
            &[SchemeKind::AssureOriginal, SchemeKind::Assure],
            &[0.75],
        );
        spec.attacks = vec![AttackKind::PairAnalysis];
        spec.seeds = vec![5];
        spec.threads = 2;
        let report = Engine::new().run(&spec);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        let by_scheme = |s: &str| {
            report
                .records
                .iter()
                .find(|r| r.scheme == s)
                .expect("cell present")
                .clone()
        };
        let leaky = by_scheme("assure-original");
        assert!(leaky.attacked_bits.expect("inferred") > 0);
        assert_eq!(leaky.kpa, Some(100.0));
        assert!(leaky.coverage.expect("coverage") > 0.0);
        assert!(leaky.localities.expect("localities") > 0);
        let fixed = by_scheme("assure");
        assert_eq!(fixed.attacked_bits, Some(0));

        // Fig. 4 observation cells: the disjoint scenario reads the key
        // off directly, the serial one learns nothing.
        let mut obs = CampaignSpec::grid(
            &["mix:add=64"],
            &[
                SchemeKind::Assure,
                SchemeKind::AssureRandom,
                SchemeKind::AssureDisjoint,
            ],
            &[0.5],
        );
        obs.attacks = vec![AttackKind::Observations];
        obs.seeds = vec![3];
        obs.relock_rounds = 6;
        obs.threads = 2;
        let report = Engine::new().run(&obs);
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        let p_plus = |s: &str| {
            let r = report
                .records
                .iter()
                .find(|r| r.scheme == s)
                .expect("cell present");
            assert!(r.obs_plus.is_some() && r.obs_minus.is_some());
            r.kpa.expect("p(+ real) recorded")
        };
        assert!((p_plus("assure") - 50.0).abs() < 10.0);
        assert_eq!(p_plus("assure-disjoint"), 100.0);

        // Profile cells: the synthetic extremes report their bias.
        let mut bias = CampaignSpec::grid(&["N_2046", "N_1023"], &[SchemeKind::None], &[1.0]);
        bias.attacks = vec![AttackKind::None];
        let report = Engine::new().run(&bias);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        let cell = |b: &str| {
            report
                .records
                .iter()
                .find(|r| r.benchmark == b)
                .expect("cell present")
                .clone()
        };
        let biased = cell("N_2046");
        let ops = biased.ops.expect("ops") as f64;
        let imbalance = biased.imbalance.expect("imbalance") as f64;
        assert!(
            (imbalance / ops - 1.0).abs() < 1e-9,
            "N_2046 is fully biased"
        );
        assert!(biased.initial_distance.expect("distance") > 0.0);
        let balanced = cell("N_1023");
        assert_eq!(balanced.imbalance, Some(0));
        assert_eq!(balanced.balanced, Some(true));
    }

    #[test]
    fn corruptibility_cells_share_the_locked_instance() {
        let mut spec = CampaignSpec::grid(&["SIM_SPI"], &[SchemeKind::Era], &[0.75]);
        spec.attacks = vec![AttackKind::Corruptibility, AttackKind::None];
        spec.seeds = vec![3];
        spec.width = 6;
        spec.wrong_keys = 8;
        let engine = Engine::new();
        let report = engine.run(&spec);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        let corr = report
            .records
            .iter()
            .find(|r| r.attack == "corruptibility")
            .expect("cell present");
        assert!(corr.corruption_rate.expect("corruption") > 0.0);
        assert!(corr.error_rate.expect("error rate") >= 0.0);
        // The `none` cell reuses the locked artifact.
        assert!(report.cache.hits >= 2, "cache: {:?}", report.cache);
    }

    #[test]
    fn gate_corruptibility_cells_sweep_wrong_keys_on_the_lanes() {
        // Gate-level corruptibility rides the 64-lane key sweep; both a
        // lowered RTL scheme and a native gate scheme must report it, and
        // the cells must stay canonically deterministic across threads.
        let mut spec = CampaignSpec::grid(
            &["SIM_SPI"],
            &[SchemeKind::Era, SchemeKind::XorXnor],
            &[0.5],
        );
        spec.levels = vec![Level::Gate];
        spec.attacks = vec![AttackKind::Corruptibility];
        spec.seeds = vec![3];
        spec.width = 6;
        spec.wrong_keys = 8;
        spec.threads = 2;
        let report = Engine::new().run(&spec);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        assert_eq!(report.records.len(), 2);
        for r in &report.records {
            assert_eq!(r.level, "gate");
            assert!(
                r.corruption_rate.expect("corruption") > 0.0,
                "near-miss keys must corrupt: {r:?}"
            );
            assert!(r.error_rate.expect("error rate") > 0.0, "{r:?}");
        }
        spec.threads = 1;
        let serial = Engine::new().run(&spec);
        assert_eq!(serial.canonical_jsonl(), report.canonical_jsonl());
    }

    #[test]
    fn observers_see_lifecycles_and_run_cells_runs_exactly_the_requested_cells() {
        use std::sync::Mutex;
        let spec = tiny_spec();
        let events: Arc<Mutex<Vec<(&'static str, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let engine = Engine::new().with_observer(Arc::new(move |event| {
            let mut log = sink.lock().expect("event log");
            match event {
                JobEvent::Started { index } => log.push(("start", index)),
                JobEvent::Finished { record } => log.push(("done", record.index)),
            }
        }));
        let partial = engine.run_cells(&spec, &[1, 3]);
        assert_eq!(partial.failed_count(), 0, "{:?}", partial.records);
        let indices: Vec<usize> = partial.records.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![1, 3], "only the requested cells run");

        let log = events.lock().expect("event log");
        for index in [1usize, 3] {
            assert!(log.contains(&("start", index)), "{log:?}");
            assert!(log.contains(&("done", index)), "{log:?}");
        }
        assert_eq!(log.len(), 4, "no other cell may emit events: {log:?}");
        drop(log);

        // Worker-subset records are byte-identical to the full run's —
        // the property the orchestrator's journal replay relies on.
        let full = Engine::new().run(&spec);
        for r in &partial.records {
            assert_eq!(r.canonical_line(), full.records[r.index].canonical_line());
        }

        // Unknown indices are ignored, not errors.
        assert!(engine.run_cells(&spec, &[999]).records.is_empty());
    }

    #[test]
    fn traced_specs_serialize_per_bit_trajectories() {
        let mut spec = CampaignSpec::grid(&["FIG5"], &[SchemeKind::Era], &[1.0]);
        spec.attacks = vec![AttackKind::None];
        spec.trace = true;
        let report = Engine::new().run(&spec);
        assert_eq!(report.failed_count(), 0, "{:?}", report.records);
        let record = &report.records[0];
        let trace = record.trace.as_ref().expect("ERA reports a trace");
        assert_eq!(trace.len(), record.key_bits.expect("locked"));
        let (_, final_metric) = trace.last().expect("non-empty");
        assert!((final_metric - 100.0).abs() < 1e-9, "ERA balances fully");
        assert!(report.canonical_jsonl().contains("\"trace\":[["));

        // The knob defaults off, and off means byte-stable old streams.
        spec.trace = false;
        let untraced = Engine::new().run(&spec);
        assert!(!untraced.canonical_jsonl().contains("\"trace\""));
    }

    #[test]
    fn failed_cells_do_not_kill_the_campaign() {
        let mut spec = tiny_spec();
        // A design with operations ASSURE cannot lock at this tiny
        // budget is hard to fabricate; instead poison one benchmark so
        // resolution fails inside the job.
        spec.benchmarks = vec!["FIR".into()];
        spec.budgets = vec![0.5];
        let engine = Engine::new();
        let mut jobs = spec.expand();
        jobs[0].benchmark = "DOES_NOT_EXIST".into();
        let record = super::run_job(engine.cache(), &spec, jobs[0].clone());
        assert!(!record.status.is_ok());
        let healthy = super::run_job(engine.cache(), &spec, jobs[1].clone());
        assert!(healthy.status.is_ok());
    }
}
