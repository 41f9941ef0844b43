//! The traced layer walk: benchmark-side code takes each cell through the
//! public entry points of `rtl`, `locking`, `attack`, `ml`, `netlist`,
//! `sat` and `engine`, in the order `engine::run` uses, and records a span
//! around every call.
//!
//! The walk keeps the engine's per-pass sharing: one base design (and its
//! emitted Verilog) per benchmark × seed, one locked instance per content
//! key, one synthesis of each unlocked base. Locked instances come from
//! the spill directory when one is given, as a warm engine reads them.
//! Every walked cell yields a full [`JobRecord`], so its canonical line can
//! be compared with the untraced engine's.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlrl_attack::extract::extract_localities;
use mlrl_attack::kpa_model::predict_kpa;
use mlrl_attack::pair_analysis::pair_analysis_attack;
use mlrl_attack::relock::{build_training_set, RelockConfig, TrainingSet};
use mlrl_engine::fnv::Fnv64;
use mlrl_engine::job::{budget_bps, Job};
use mlrl_engine::report::record_from_job;
use mlrl_engine::spec::{resolve_benchmark, AttackKind, CampaignSpec, Level, SchemeKind};
use mlrl_engine::{scheduled_jobs, JobRecord, JobStatus};
use mlrl_locking::assure::{lock_operations, AssureConfig};
use mlrl_locking::era::{era_lock, EraConfig};
use mlrl_locking::hra::{hra_lock, HraConfig};
use mlrl_locking::key::{Key, KeyBitKind};
use mlrl_locking::metric::SecurityMetric;
use mlrl_locking::odt::Odt;
use mlrl_locking::pairs::PairTable;
use mlrl_ml::{auto_fit, AutoMlConfig, Dataset, OneHotEncoder};
use mlrl_netlist::lock::{lock_netlist, GateLockScheme};
use mlrl_netlist::lower::lower_module;
use mlrl_netlist::opt::optimize;
use mlrl_netlist::Netlist;
use mlrl_rtl::bench_designs::generate_with_width;
use mlrl_rtl::emit::emit_verilog;
use mlrl_rtl::parser::parse_verilog;
use mlrl_rtl::{visit, Module};
use mlrl_sat::attack::{sat_attack, Oracle, PortValues, SatAttackConfig, SimOracle};

/// Spans that tile a walked cell: none of them nests inside another, so
/// their sum over the walked cell time is the trace's coverage.
/// (`netlist.sim_query` runs inside `sat.attack` and is not one of them.)
pub const LEAF_SPANS: [&str; 17] = [
    "rtl.generate",
    "rtl.emit",
    "rtl.parse",
    "locking.lock",
    "locking.metric",
    "attack.relock",
    "attack.extract",
    "attack.analytic",
    "ml.encode",
    "ml.auto_fit",
    "ml.predict",
    "netlist.lower",
    "netlist.lock",
    "netlist.sim_build",
    "sat.attack",
    "engine.spill_read",
    "engine.canonical",
];

/// Accumulated span times and counts.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    times: BTreeMap<&'static str, Duration>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Runs `f` inside the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add_time(name, started.elapsed());
        out
    }

    fn add_time(&mut self, name: &'static str, d: Duration) {
        *self.times.entry(name).or_default() += d;
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Total time of span `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// Total of counter `name`.
    pub fn n(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Summed time of the [`LEAF_SPANS`], in milliseconds.
    pub fn leaf_ms(&self) -> f64 {
        LEAF_SPANS.iter().map(|name| self.ms(name)).sum()
    }

    /// Adds every span and counter of `other`.
    pub fn merge(&mut self, other: &Spans) {
        for (name, d) in &other.times {
            self.add_time(name, *d);
        }
        for (name, n) in &other.counts {
            self.count(name, *n);
        }
    }
}

/// A SAT oracle that times every call into the simulator it wraps.
struct TimedOracle<O> {
    inner: O,
    spent: Duration,
    queries: u64,
}

impl<O: Oracle> Oracle for TimedOracle<O> {
    fn query(&mut self, inputs: &[(String, u64)]) -> PortValues {
        let started = Instant::now();
        let out = self.inner.query(inputs);
        self.spent += started.elapsed();
        self.queries += 1;
        out
    }

    fn query_batch(&mut self, batch: &[&[(String, u64)]]) -> Vec<PortValues> {
        let started = Instant::now();
        let out = self.inner.query_batch(batch);
        self.spent += started.elapsed();
        self.queries += batch.len() as u64;
        out
    }
}

/// `(key bits, M_g_sec)` after each lock step of ERA/HRA.
type MetricTrace = Vec<(usize, f64)>;

/// A locked instance as the walk holds it.
struct Locked {
    module: Module,
    key: Key,
    trace: Option<MetricTrace>,
}

/// One walked pass over a grid.
pub struct WalkedPass {
    /// Spans and counters of the pass.
    pub spans: Spans,
    /// Summed wall time of the walked cells.
    pub cell_time: Duration,
    /// The walked records, in grid order.
    pub records: Vec<JobRecord>,
}

/// Walks every cell of `spec` once, in the engine's schedule order.
/// `spill` is a warm spill directory to read locked instances from.
pub fn walk_pass(spec: &CampaignSpec, spill: Option<&Path>) -> WalkedPass {
    let mut walker = Walker {
        spec,
        spill,
        spans: Spans::default(),
        designs: HashMap::new(),
        locked: HashMap::new(),
        lowered: HashMap::new(),
    };
    let mut cell_time = Duration::ZERO;
    let mut records = Vec::new();
    for job in scheduled_jobs(spec) {
        let started = Instant::now();
        let mut record = record_from_job(&job);
        if let Err(message) = walker.cell(&job, &mut record) {
            record.status = JobStatus::Failed(message);
        }
        walker
            .spans
            .time("engine.canonical", || record.canonical_line());
        cell_time += started.elapsed();
        records.push(record);
    }
    records.sort_by_key(|r| r.index);
    WalkedPass {
        spans: walker.spans,
        cell_time,
        records,
    }
}

struct Walker<'a> {
    spec: &'a CampaignSpec,
    spill: Option<&'a Path>,
    spans: Spans,
    /// Base design and its emitted Verilog, by generator key.
    designs: HashMap<u64, Arc<(Module, String)>>,
    /// Locked instances, by the engine's content key.
    locked: HashMap<u64, Arc<Locked>>,
    /// Lowered netlists, by a hash of the source module's Verilog.
    lowered: HashMap<u64, Arc<Netlist>>,
}

impl Walker<'_> {
    fn cell(&mut self, job: &Job, record: &mut JobRecord) -> Result<(), String> {
        let base = self.base(job)?;
        let (base_module, base_verilog) = (&base.0, &base.1);
        if job.level == Level::Gate && job.scheme.is_gate_scheme() {
            return self.gate_locked(job, base_module, base_verilog, record);
        }
        let locked_key = Fnv64::new()
            .write_str("lock|")
            .write_str(job.scheme.name())
            .write_u64(budget_bps(job.budget))
            .write_u64(job.lock_seed())
            .write_str("|")
            .write_str(base_verilog)
            .finish();
        let locked = self.locked(locked_key, base_module, job)?;
        record.key_bits = Some(locked.key.len());

        self.spans.time("locking.metric", || {
            let initial = Odt::load(base_module, PairTable::fixed());
            let metric = SecurityMetric::new(&initial);
            let final_odt = Odt::load(&locked.module, PairTable::fixed());
            record.metric = Some(metric.global(&final_odt));
            record.balanced = Some(final_odt.is_balanced());
        });
        record.bits_to_balance = locked
            .trace
            .as_ref()
            .and_then(|t| t.iter().find(|(_, g)| *g >= 100.0 - 1e-9).map(|(n, _)| *n));
        if self.spec.trace {
            record.trace = locked.trace.clone();
        }

        if job.level == Level::Gate {
            let locked_verilog = self
                .spans
                .time("rtl.emit", || emit_verilog(&locked.module))
                .map_err(|e| e.to_string())?;
            let netlist = self.lowered(&locked_verilog, &locked.module)?;
            let base_lowered = self.lowered(base_verilog, base_module)?;
            self.record_gate_shape(record, &netlist, &base_lowered);
            let key: Vec<bool> = (0..locked.module.key_width())
                .map(|i| locked.key.bit(i).unwrap_or(false))
                .collect();
            return self.gate_attack(job, &netlist, &key, record);
        }
        self.rtl_attack(job, &locked, record)
    }

    /// The cell's base design and its Verilog, generated and emitted once
    /// per benchmark × seed.
    fn base(&mut self, job: &Job) -> Result<Arc<(Module, String)>, String> {
        let design = resolve_benchmark(&job.benchmark)
            .ok_or_else(|| format!("unknown benchmark `{}`", job.benchmark))?;
        let design_key = Fnv64::new()
            .write_str("gen|")
            .write_str(&job.benchmark)
            .write_u64(job.generate_seed())
            .write_u64(self.spec.width as u64)
            .finish();
        if let Some(found) = self.designs.get(&design_key) {
            return Ok(Arc::clone(found));
        }
        let width = self.spec.width;
        let module = self.spans.time("rtl.generate", || {
            generate_with_width(&design, job.generate_seed(), width)
        });
        let verilog = self
            .spans
            .time("rtl.emit", || emit_verilog(&module))
            .map_err(|e| e.to_string())?;
        let base = Arc::new((module, verilog));
        self.designs.insert(design_key, Arc::clone(&base));
        Ok(base)
    }

    fn locked(&mut self, key: u64, base: &Module, job: &Job) -> Result<Arc<Locked>, String> {
        if let Some(found) = self.locked.get(&key) {
            return Ok(Arc::clone(found));
        }
        let locked = match self.load_spilled(key) {
            Some(found) => found,
            None => self.lock(base, job)?,
        };
        let locked = Arc::new(locked);
        self.locked.insert(key, Arc::clone(&locked));
        Ok(locked)
    }

    /// Reads a spilled locked instance (`<key>.v` plus its `<key>.key`
    /// sidecar); `None` on any miss or corrupt file, as the engine's cache
    /// treats it.
    fn load_spilled(&mut self, key: u64) -> Option<Locked> {
        let dir = self.spill?;
        let (verilog, sidecar) = self.spans.time("engine.spill_read", || {
            let read = |ext: &str| std::fs::read_to_string(dir.join(format!("{key:016x}.{ext}")));
            Some((read("v").ok()?, read("key").ok()?))
        })?;
        let module = self
            .spans
            .time("rtl.parse", || parse_verilog(&verilog))
            .ok()?;
        let (key, trace) = self
            .spans
            .time("engine.spill_read", || parse_sidecar(&sidecar))?;
        Some(Locked { module, key, trace })
    }

    fn lock(&mut self, base: &Module, job: &Job) -> Result<Locked, String> {
        let locked = self.spans.time("locking.lock", || {
            let mut module = base.clone();
            let lockable = visit::binary_ops(&module).len();
            if lockable == 0 {
                return Err(format!(
                    "benchmark `{}` has no lockable operations",
                    job.benchmark
                ));
            }
            let budget = ((lockable as f64) * job.budget).round().max(1.0) as usize;
            let seed = job.lock_seed();
            let metric_trace = |t: &[(usize, f64, f64)]| -> MetricTrace {
                t.iter().map(|(n, g, _)| (*n, *g)).collect()
            };
            let (key, trace) = match job.scheme {
                SchemeKind::Assure => (
                    lock_operations(&mut module, &AssureConfig::serial(budget, seed))
                        .map_err(|e| e.to_string())?,
                    None,
                ),
                SchemeKind::Hra => {
                    let outcome = hra_lock(&mut module, &HraConfig::new(budget, seed))
                        .map_err(|e| e.to_string())?;
                    (outcome.key, Some(metric_trace(&outcome.trace)))
                }
                SchemeKind::Era => {
                    let outcome = era_lock(&mut module, &EraConfig::new(budget, seed))
                        .map_err(|e| e.to_string())?;
                    (outcome.key, Some(metric_trace(&outcome.trace)))
                }
                other => return Err(format!("scheme `{}` is not walked", other.name())),
            };
            Ok(Locked { module, key, trace })
        })?;
        self.spans.count("locking.lock_calls", 1);
        self.spans
            .count("locking.key_bits", locked.key.len() as u64);
        Ok(locked)
    }

    fn rtl_attack(
        &mut self,
        job: &Job,
        locked: &Locked,
        record: &mut JobRecord,
    ) -> Result<(), String> {
        match job.attack {
            AttackKind::Snapshot => {
                let relock = RelockConfig {
                    rounds: self.spec.relock_rounds,
                    budget_fraction: 0.75,
                    seed: job.relock_seed(),
                };
                let training = self.spans.time("attack.relock", || {
                    build_training_set(&locked.module, &relock)
                });
                self.spans
                    .count("attack.relock_rows", training.len() as u64);
                let automl = AutoMlConfig {
                    seed: job.attack_seed(),
                    ..Default::default()
                };
                let (kpa, scored) = self
                    .snapshot(&locked.module, &locked.key, &automl, &training)
                    .ok_or("target exposes no key-controlled localities")?;
                record.kpa = Some(kpa);
                record.attacked_bits = Some(scored);
                record.training_samples = Some(training.len());
            }
            AttackKind::KpaModel => {
                let prediction = self.spans.time("attack.analytic", || {
                    predict_kpa(&locked.module, &locked.key, &PairTable::fixed())
                });
                record.kpa = Some(prediction.expected_kpa);
                record.attacked_bits = Some(locked.key.len());
            }
            AttackKind::PairAnalysis => {
                let table = match job.scheme {
                    SchemeKind::AssureOriginal => PairTable::original_assure(),
                    _ => PairTable::fixed(),
                };
                let report = self.spans.time("attack.analytic", || {
                    pair_analysis_attack(&locked.module, &locked.key, &table)
                });
                record.kpa = Some(report.kpa_on_inferred);
                record.attacked_bits = Some(report.inferred.len());
                record.coverage = Some(report.coverage);
                record.localities = Some(self.spans.time("attack.extract", || {
                    extract_localities(&locked.module).len()
                }));
            }
            AttackKind::None => {}
            other => return Err(format!("attack `{}` is not walked", other.name())),
        }
        Ok(())
    }

    /// SnapShot's deployment half, step by step: extract the target's
    /// localities, one-hot encode, run the auto-ML search, predict and
    /// score. Returns `(KPA %, scored bits)`, or `None` when there is
    /// nothing to attack.
    fn snapshot(
        &mut self,
        target: &Module,
        key: &Key,
        automl: &AutoMlConfig,
        training: &TrainingSet,
    ) -> Option<(f64, usize)> {
        let localities: Vec<(u32, Vec<u32>)> = self.spans.time("attack.extract", || {
            extract_localities(target)
                .into_iter()
                .map(|l| (l.key_bit, l.features()))
                .collect()
        });
        if localities.is_empty() || training.is_empty() {
            return None;
        }
        let (encoder, train, distinct) = self.spans.time("ml.encode", || {
            let mut vocab = training.features.clone();
            vocab.extend(localities.iter().map(|(_, f)| f.clone()));
            let encoder = OneHotEncoder::fit(&vocab);
            let x = encoder.transform_all(&training.features);
            let train = Dataset::from_rows(x, training.labels.clone())
                .expect("relocked training rows and labels have equal length");
            let distinct = training.features.iter().collect::<HashSet<_>>().len();
            (encoder, train, distinct)
        });
        let outcome = self.spans.time("ml.auto_fit", || auto_fit(&train, automl));
        self.spans.count("ml.auto_fit_calls", 1);
        self.spans.count("ml.train_rows", train.len() as u64);
        self.spans.count("ml.distinct_rows", distinct as u64);
        self.spans
            .count("ml.candidates", outcome.leaderboard.len() as u64);
        let (correct, scored) = self.spans.time("ml.predict", || {
            let mut correct = 0usize;
            let mut scored = 0usize;
            for (bit, features) in &localities {
                let predicted = outcome.model.predict(&encoder.transform(features)) == 1;
                if let Some(actual) = key.bit(*bit) {
                    debug_assert_eq!(key.kind(*bit), Some(KeyBitKind::Operation));
                    scored += 1;
                    correct += usize::from(predicted == actual);
                }
            }
            (correct, scored)
        });
        let kpa = if scored == 0 {
            0.0
        } else {
            100.0 * correct as f64 / scored as f64
        };
        Some((kpa, scored))
    }

    /// Lowers `module` (keyed by its Verilog) once per pass: bit-blast,
    /// scan view, sweep, optimize at the spec's level.
    fn lowered(&mut self, verilog: &str, module: &Module) -> Result<Arc<Netlist>, String> {
        let key = Fnv64::new()
            .write_str("lower|scan-sweep|")
            .write_str(verilog)
            .finish();
        if let Some(found) = self.lowered.get(&key) {
            return Ok(Arc::clone(found));
        }
        let level = self.spec.opt_level;
        let netlist = self.spans.time("netlist.lower", || {
            let mut netlist = lower_module(module)
                .map_err(|e| e.to_string())?
                .to_scan_view();
            netlist.sweep();
            optimize(&mut netlist, level);
            Ok::<_, String>(netlist)
        })?;
        let netlist = Arc::new(netlist);
        self.lowered.insert(key, Arc::clone(&netlist));
        Ok(netlist)
    }

    fn gate_locked(
        &mut self,
        job: &Job,
        base: &Module,
        base_verilog: &str,
        record: &mut JobRecord,
    ) -> Result<(), String> {
        let base_lowered = self.lowered(base_verilog, base)?;
        let lockable = visit::binary_ops(base).len();
        if lockable == 0 {
            return Err(format!(
                "benchmark `{}` has no lockable operations",
                job.benchmark
            ));
        }
        let key_len = ((lockable as f64) * job.budget).round().max(1.0) as usize;
        let scheme = match job.scheme {
            SchemeKind::XorXnor => GateLockScheme::XorXnor,
            SchemeKind::Mux => GateLockScheme::Mux,
            other => return Err(format!("scheme `{}` is not a gate scheme", other.name())),
        };
        let (netlist, key) = self.spans.time("netlist.lock", || {
            let mut netlist = (*base_lowered).clone();
            let key = lock_netlist(&mut netlist, scheme, key_len, job.lock_seed())
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((netlist, key.bits().to_vec()))
        })?;
        record.key_bits = Some(key.len());
        self.record_gate_shape(record, &netlist, &base_lowered);
        self.gate_attack(job, &netlist, &key, record)
    }

    fn record_gate_shape(&mut self, record: &mut JobRecord, locked: &Netlist, base: &Netlist) {
        let locked_gates = locked.gates().len();
        let base_gates = base.gates().len();
        self.spans.count("netlist.gates", locked_gates as u64);
        record.gates = Some(locked_gates);
        record.area_overhead = Some(if base_gates == 0 {
            1.0
        } else {
            locked_gates as f64 / base_gates as f64
        });
    }

    fn gate_attack(
        &mut self,
        job: &Job,
        netlist: &Netlist,
        key: &[bool],
        record: &mut JobRecord,
    ) -> Result<(), String> {
        match job.attack {
            AttackKind::Sat => {
                if key.is_empty() {
                    return Err("locked netlist consumes no key bits".to_owned());
                }
                let cfg = SatAttackConfig {
                    max_dips: self.spec.sat_max_dips,
                    max_clauses: match self.spec.sat_max_clauses {
                        0 => usize::MAX,
                        cap => cap,
                    },
                    ..Default::default()
                };
                let sim = self
                    .spans
                    .time("netlist.sim_build", || SimOracle::new(netlist, key))
                    .map_err(|e| e.to_string())?;
                let mut oracle = TimedOracle {
                    inner: sim,
                    spent: Duration::ZERO,
                    queries: 0,
                };
                let report = self
                    .spans
                    .time("sat.attack", || sat_attack(netlist, &mut oracle, &cfg))
                    .map_err(|e| e.to_string())?;
                self.spans.add_time("netlist.sim_query", oracle.spent);
                self.spans.count("netlist.sim_queries", oracle.queries);
                self.spans.count("sat.cells", 1);
                self.spans.count("sat.proved", u64::from(report.proved));
                self.spans.count("sat.dips", report.dips as u64);
                record.sat_dips = Some(report.dips);
                record.sat_proved = Some(report.proved);
                let exact = report.key.iter().zip(key).filter(|(a, b)| a == b).count();
                record.kpa = Some(100.0 * exact as f64 / key.len() as f64);
                record.attacked_bits = Some(key.len());
            }
            AttackKind::None => {}
            other => return Err(format!("attack `{}` is not walked", other.name())),
        }
        Ok(())
    }
}

/// Parses a locked instance's key sidecar: the bit line, the kind line,
/// then optional `(bits, M_g_sec)` trace lines.
fn parse_sidecar(text: &str) -> Option<(Key, Option<MetricTrace>)> {
    let mut lines = text.lines();
    let bits = lines.next()?;
    let kinds = lines.next()?;
    if bits.len() != kinds.len() {
        return None;
    }
    let mut key = Key::new();
    for (b, k) in bits.chars().zip(kinds.chars()) {
        let value = match b {
            '0' => false,
            '1' => true,
            _ => return None,
        };
        let kind = match k {
            'O' => KeyBitKind::Operation,
            'B' => KeyBitKind::Branch,
            'C' => KeyBitKind::Constant,
            _ => return None,
        };
        key.push(value, kind);
    }
    let mut trace = Vec::new();
    for line in lines {
        let (n, g) = line.split_once(' ')?;
        trace.push((n.parse().ok()?, g.parse().ok()?));
    }
    Some((key, (!trace.is_empty()).then_some(trace)))
}
