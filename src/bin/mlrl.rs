//! `mlrl` — command-line front end for file-based locking workflows.
//!
//! ```text
//! mlrl gen     <benchmark> [--seed N] [-o design.v]
//! mlrl flatten <hier.v> --top NAME [-o flat.v]
//! mlrl stats  <design.v>
//! mlrl lock   <design.v> --scheme assure|hra|era [--budget F] [--seed N]
//!             [-o locked.v] [--key-out key.txt]
//! mlrl verify <original.v> <locked.v> --key key.txt [--patterns N]
//! mlrl attack <locked.v> [--relocks N] [--key key.txt] [--seed N]
//! mlrl synth  <design.v> [-o netlist.v]
//! mlrl gatelock <design.v> --scheme xor|mux --bits N [--seed N]
//!             [-o locked.v] [--key-out key.txt]
//! mlrl sat-attack <locked.v> --key key.txt [--max-dips N]
//! mlrl campaign <spec.txt> [--threads N] [--opt-level o0|o1|o2]
//!             [--jsonl out.jsonl]
//!             [--cache-dir DIR] [--cache-cap BYTES] [--canonical]
//!             [--shard I/N] [--trace-out FILE] [--metrics-out FILE]
//!             [--trace-sample N]
//! mlrl merge  <shard.jsonl>... [-o merged.jsonl]
//! mlrl orchestrate <spec.txt> [--workers N] [--run-dir DIR | --resume DIR]
//!             [--cache-dir DIR] [--cache-cap BYTES] [--worker-threads N]
//!             [--opt-level o0|o1|o2] [--wedge-timeout SECS]
//!             [--max-restarts N] [--canonical]
//!             [--jsonl out.jsonl] [--quick]
//!             [--trace-out FILE] [--metrics-out FILE] [--trace-sample N]
//! mlrl worker <spec.txt> --cells 0,2,5 [--threads N] [--opt-level o0|o1|o2]
//!             [--cache-dir DIR]
//!             [--cache-cap BYTES] [--heartbeat-ms MS] [--telemetry]
//!             [--trace-sample N]
//! mlrl top    <run-dir> [--once] [--refresh-ms MS] [--stale-ms MS] [--top N]
//! mlrl report <run-dir> [--trace FILE] [--top N] [--folded-out FILE]
//! ```
//!
//! Keys are stored as plain bit strings, `K[0]` first. Campaign spec
//! files use the `key = value` format of `mlrl_engine::spec` (see
//! `examples/campaign.spec`). `--shard I/N` runs the I-th of N
//! deterministic partitions of the job list (run every shard — on as
//! many processes or machines as you like — then `mlrl merge` their
//! `--canonical` outputs back into the byte stream an unsharded run
//! would print). `orchestrate` drives that whole flow on one machine:
//! it spawns `--workers` worker processes over cost-balanced cell
//! assignments, shares one content-addressed cache dir, journals every
//! completed cell under the run dir (so a killed orchestration resumes
//! with `--resume <dir>`), restarts crashed or wedged workers, and
//! merges the canonical unsharded bytes in-process. `worker` is the
//! internal per-process mode `orchestrate` spawns; it streams the
//! line protocol of `mlrl_orchestrate::protocol` on stdout.
//!
//! `--trace-out FILE` / `--metrics-out FILE` (on `campaign` and
//! `orchestrate`) arm the `mlrl_obs` telemetry sink and export a Chrome
//! trace-event JSON (load in Perfetto or `chrome://tracing`) and a
//! metrics rollup after the run. Telemetry is a pure side channel:
//! canonical output bytes are identical with it on or off. Under
//! `orchestrate`, workers run with `--telemetry` and stream cumulative
//! rollups *and incremental trace chunks* over the line protocol; the
//! supervisor aggregates the fleet into `<run-dir>/metrics.json` and
//! merges every worker's spans onto one skew-corrected timeline in
//! `<run-dir>/trace.json` (worker lanes namespaced `w<slot>/`,
//! supervisor-synthesized lanes `orch/`). `--trace-sample N` keeps
//! 1-in-N hot-class spans (phase and cell spans always kept; aggregate
//! stats stay exact) to bound trace volume on long runs.
//!
//! `top` is the live fleet console: it tails a run directory's
//! `journal.jsonl` / `fleet.json` / `metrics.json` and renders
//! campaign progress with ETA, per-worker state, heartbeat age and
//! utilization (stale workers flagged), p50/p90/p99 cell latency,
//! cache hit rates, and process memory. `--once` prints a single
//! plain snapshot for scripts and CI.
//!
//! `report` analyzes those artifacts offline: phase-time breakdown,
//! latency percentiles from the histogram rollup, cache hit rates,
//! per-worker utilization with straggler ranking, the top-N slowest
//! cells, and (with `--folded-out`) folded stacks for flamegraph
//! tooling.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mlrl::attack::freq_table::freq_table_attack;
use mlrl::attack::relock::RelockConfig;
use mlrl::engine::cache::parse_byte_size;
use mlrl::engine::job::ShardSpec;
use mlrl::engine::report::merge_canonical_streams;
use mlrl::engine::run::{Engine, JobEvent};
use mlrl::engine::spec::{CampaignSpec, OptLevel};
use mlrl::locking::assure::{lock_operations, AssureConfig};
use mlrl::locking::era::{era_lock, EraConfig};
use mlrl::locking::hra::{hra_lock, HraConfig};
use mlrl::locking::key::{Key, KeyBitKind};
use mlrl::locking::pairs::PairTable;
use mlrl::locking::report::LockingReport;
use mlrl::netlist::emit::emit_structural_verilog;
use mlrl::netlist::lock::{lock_netlist, GateLockScheme};
use mlrl::netlist::lower::lower_module;
use mlrl::netlist::stats::NetlistStats;
use mlrl::orchestrate::protocol;
use mlrl::orchestrate::supervise::{orchestrate, OrchestratorConfig};
use mlrl::rtl::bench_designs::{benchmark_by_name, generate, paper_benchmarks};
use mlrl::rtl::emit::emit_verilog;
use mlrl::rtl::equiv::{check_equiv, EquivConfig, EquivResult};
use mlrl::rtl::parser::{parse_design, parse_verilog};
use mlrl::rtl::stats::DesignStats;
use mlrl::rtl::{visit, Module};
use mlrl::sat::attack::{sat_attack_with_sim_oracle, SatAttackConfig};

/// Flags that take no value; the parser must not consume the next token
/// as their argument (`mlrl campaign --canonical spec.txt`). Every other
/// flag takes one.
const BOOLEAN_FLAGS: &[&str] = &["canonical", "quick", "telemetry", "once"];

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `argv` into positionals and flags. A value flag with no
    /// value after it (`--trace-out` last, or followed by another
    /// `--flag`) is a usage error.
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    flags.push((name.to_owned(), None));
                    continue;
                }
                let value = it
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("usage: --{name} needs a value"))?;
                flags.push((name.to_owned(), Some(value.clone())));
            } else if let Some(name) = a.strip_prefix('-') {
                let value = it
                    .next()
                    .ok_or_else(|| format!("usage: -{name} needs a value"))?;
                flags.push((name.to_owned(), Some(value.clone())));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { positional, flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of numeric flag `name`, or `default` when it is absent.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }

    /// The value of numeric flag `name`, if given. An unparsable value is
    /// a usage error.
    fn opt_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.flag(name)
            .map(|value| {
                value
                    .parse()
                    .map_err(|e| format!("usage: bad --{name} `{value}`: {e}"))
            })
            .transpose()
    }
}

fn load_module(path: &str) -> Result<Module, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_verilog(&src).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn key_to_string(key: &[bool]) -> String {
    key.iter().map(|b| if *b { '1' } else { '0' }).collect()
}

fn key_from_string(s: &str) -> Result<Vec<bool>, String> {
    s.trim()
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("invalid key character `{other}`")),
        })
        .collect()
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let name = args.positional.get(1).ok_or_else(|| {
        format!(
            "usage: mlrl gen <benchmark>\nbenchmarks: {}",
            paper_benchmarks()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(" ")
        )
    })?;
    let spec = benchmark_by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let module = generate(&spec, args.num("seed", 2022u64)?);
    let text = emit_verilog(&module).map_err(|e| e.to_string())?;
    match args.flag("o") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| e.to_string())?;
            eprintln!("wrote {path} ({} ops)", spec.total_ops());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_flatten(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: mlrl flatten <hier.v> --top NAME [-o flat.v]")?;
    let src = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let design = parse_design(&src).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let top = match args.flag("top") {
        Some(t) => t.to_owned(),
        None => {
            let tops = design.tops();
            if tops.len() == 1 {
                tops[0].to_owned()
            } else {
                return Err(format!(
                    "ambiguous top (candidates: {}); pass --top",
                    tops.join(", ")
                ));
            }
        }
    };
    let flat = design.flatten(&top).map_err(|e| e.to_string())?;
    eprintln!("{}", DesignStats::of(&flat));
    let text = emit_verilog(&flat).map_err(|e| e.to_string())?;
    match args.flag("o") {
        Some(out) => {
            fs::write(out, &text).map_err(|e| e.to_string())?;
            eprintln!("wrote {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: mlrl stats <design.v>")?;
    let module = load_module(path)?;
    println!("{}", DesignStats::of(&module));
    let odt = mlrl::locking::odt::Odt::load(&module, PairTable::fixed());
    println!(
        "  imbalance: {} ({} ops => ERA needs >= {} bits for Def. 1)",
        odt.total_imbalance(),
        visit::binary_ops(&module).len(),
        odt.total_imbalance()
    );
    Ok(())
}

fn cmd_lock(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: mlrl lock <design.v> --scheme era")?;
    let original = load_module(path)?;
    let mut locked = original.clone();
    let total = visit::binary_ops(&locked).len();
    let fraction: f64 = args.num("budget", 0.75)?;
    let budget = ((total as f64) * fraction).round().max(1.0) as usize;
    let seed: u64 = args.num("seed", 2022)?;
    let scheme = args.flag("scheme").unwrap_or("era");
    let key: Key = match scheme {
        "assure" => lock_operations(&mut locked, &AssureConfig::serial(budget, seed))
            .map_err(|e| e.to_string())?,
        "assure-random" => lock_operations(&mut locked, &AssureConfig::random(budget, seed))
            .map_err(|e| e.to_string())?,
        "hra" => {
            hra_lock(&mut locked, &HraConfig::new(budget, seed))
                .map_err(|e| e.to_string())?
                .key
        }
        "era" => {
            era_lock(&mut locked, &EraConfig::new(budget, seed))
                .map_err(|e| e.to_string())?
                .key
        }
        other => {
            return Err(format!(
                "unknown scheme `{other}` (assure|assure-random|hra|era)"
            ))
        }
    };
    let report = LockingReport::build(scheme, &original, &locked, &key, &PairTable::fixed());
    eprintln!("{report}");
    let text = emit_verilog(&locked).map_err(|e| e.to_string())?;
    match args.flag("o") {
        Some(out) => {
            fs::write(out, &text).map_err(|e| e.to_string())?;
            eprintln!("wrote {out}");
        }
        None => print!("{text}"),
    }
    if let Some(key_out) = args.flag("key-out") {
        fs::write(key_out, key_to_string(key.as_bits())).map_err(|e| e.to_string())?;
        eprintln!("wrote {key_out} ({} bits)", key.len());
    }
    Ok(())
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let original = load_module(
        args.positional
            .get(1)
            .ok_or("usage: mlrl verify <original.v> <locked.v> --key k.txt")?,
    )?;
    let locked = load_module(
        args.positional
            .get(2)
            .ok_or("usage: mlrl verify <original.v> <locked.v> --key k.txt")?,
    )?;
    let key_path = args.flag("key").ok_or("missing --key <file>")?;
    let key = key_from_string(&fs::read_to_string(key_path).map_err(|e| e.to_string())?)?;
    let cfg = EquivConfig {
        patterns: args.num("patterns", 64usize)?,
        ticks: 2,
        seed: 7,
    };
    match check_equiv(&original, &locked, &[], &key, &cfg).map_err(|e| e.to_string())? {
        EquivResult::Equivalent { patterns } => {
            println!("EQUIVALENT over {patterns} random patterns");
            Ok(())
        }
        EquivResult::Mismatch {
            pattern,
            output,
            left,
            right,
        } => Err(format!(
            "MISMATCH at pattern {pattern}: output `{output}` original={left:#x} locked={right:#x}"
        )),
    }
}

fn cmd_attack(args: &Args) -> Result<(), String> {
    let locked = load_module(
        args.positional
            .get(1)
            .ok_or("usage: mlrl attack <locked.v> [--key key.txt]")?,
    )?;
    let relock = RelockConfig {
        rounds: args.num("relocks", 60usize)?,
        budget_fraction: 0.75,
        seed: args.num("seed", 7u64)?,
    };
    // Build a scoring key: the real one if provided, else zeros (KPA then
    // meaningless and suppressed).
    let (score_key, have_key) = match args.flag("key") {
        Some(path) => {
            let bits = key_from_string(&fs::read_to_string(path).map_err(|e| e.to_string())?)?;
            let mut k = Key::new();
            for b in bits {
                k.push(b, KeyBitKind::Operation);
            }
            (k, true)
        }
        None => {
            let mut k = Key::new();
            for _ in 0..locked.key_width() {
                k.push(false, KeyBitKind::Operation);
            }
            (k, false)
        }
    };
    let report = freq_table_attack(&locked, &score_key, &relock)
        .ok_or("design exposes no key-controlled localities")?;
    println!("attacked bits: {}", report.attacked_bits);
    let predicted: Vec<bool> = {
        let mut bits = vec![false; locked.key_width() as usize];
        for (bit, v) in &report.predictions {
            if let Some(slot) = bits.get_mut(*bit as usize) {
                *slot = *v;
            }
        }
        bits
    };
    println!("predicted key: {}", key_to_string(&predicted));
    if have_key {
        println!("KPA: {:.2}% (50% = random guess)", report.kpa);
    }
    Ok(())
}

fn cmd_synth(args: &Args) -> Result<(), String> {
    let module = load_module(
        args.positional
            .get(1)
            .ok_or("usage: mlrl synth <design.v> [-o netlist.v]")?,
    )?;
    let mut netlist = lower_module(&module).map_err(|e| e.to_string())?;
    let removed = netlist.sweep();
    let stats = NetlistStats::of(&netlist);
    eprintln!(
        "synthesized `{}`: {stats}({removed} dead gates swept)",
        netlist.name()
    );
    let text = emit_structural_verilog(&netlist).map_err(|e| e.to_string())?;
    match args.flag("o") {
        Some(out) => {
            fs::write(out, text).map_err(|e| e.to_string())?;
            println!("wrote {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_gatelock(args: &Args) -> Result<(), String> {
    let module = load_module(args.positional.get(1).ok_or(
        "usage: mlrl gatelock <design.v> --scheme xor|mux --bits N [--seed N] [-o locked.v] [--key-out k.txt]",
    )?)?;
    let mut netlist = lower_module(&module).map_err(|e| e.to_string())?;
    netlist.sweep();
    let bits = args.num("bits", 32usize)?;
    let seed = args.num("seed", 7u64)?;
    let scheme = match args.flag("scheme").unwrap_or("xor") {
        "xor" => GateLockScheme::XorXnor,
        "mux" => GateLockScheme::Mux,
        other => return Err(format!("unknown gate scheme `{other}` (xor|mux)")),
    };
    let key = lock_netlist(&mut netlist, scheme, bits, seed).map_err(|e| e.to_string())?;
    eprintln!(
        "gate-locked `{}` with {} key bits ({} gates)",
        netlist.name(),
        key.len(),
        netlist.gates().len()
    );
    if let Some(path) = args.flag("key-out") {
        fs::write(path, key_to_string(key.bits())).map_err(|e| e.to_string())?;
        eprintln!("wrote key to {path}");
    }
    let text = emit_structural_verilog(&netlist).map_err(|e| e.to_string())?;
    match args.flag("o") {
        Some(out) => {
            fs::write(out, text).map_err(|e| e.to_string())?;
            println!("wrote {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_sat_attack(args: &Args) -> Result<(), String> {
    let locked = load_module(args.positional.get(1).ok_or(
        "usage: mlrl sat-attack <locked.v> --key key.txt [--max-dips N] (key plays the oracle chip)",
    )?)?;
    let key_path = args
        .flag("key")
        .ok_or("missing --key <file> (the oracle's key)")?;
    let key = key_from_string(&fs::read_to_string(key_path).map_err(|e| e.to_string())?)?;
    let mut netlist = lower_module(&locked)
        .map_err(|e| e.to_string())?
        .to_scan_view();
    netlist.sweep();
    eprintln!(
        "attacking `{}`: {} gates, {} key bits (scan view)",
        netlist.name(),
        netlist.gates().len(),
        netlist.key_width()
    );
    let cfg = SatAttackConfig {
        max_dips: args.num("max-dips", 512usize)?,
        ..Default::default()
    };
    let (report, correct) =
        sat_attack_with_sim_oracle(&netlist, &key, &cfg).map_err(|e| e.to_string())?;
    println!("DIPs (oracle queries): {}", report.dips);
    println!("UNSAT proof:           {}", report.proved);
    println!("recovered key:         {}", key_to_string(&report.key));
    println!("functionally correct:  {correct}");
    Ok(())
}

/// Builds an engine honouring the shared `--cache-dir` / `--cache-cap`
/// flags (`--cache-cap` without a dir is meaningless and rejected).
fn engine_from_cache_flags(args: &Args) -> Result<Engine, String> {
    Engine::from_cache_flags(args.flag("cache-dir"), args.flag("cache-cap"))
}

/// Arms the telemetry sink when `--trace-out` or `--metrics-out` was
/// passed; returns whether it did. Telemetry is a pure side channel —
/// canonical output bytes are identical either way.
fn arm_telemetry(args: &Args) -> bool {
    let wanted = args.flag("trace-out").is_some() || args.flag("metrics-out").is_some();
    if wanted {
        mlrl::obs::enable();
    }
    wanted
}

/// Applies the trace-overhead controls once the sink is armed:
/// `--trace-sample N` (`sample`) keeps 1-in-N hot-class spans (phase and
/// cell spans always kept; aggregate stats stay exact), and a background
/// `/proc/self` sampler exports `proc.rss_bytes` / `proc.cpu_ms`
/// gauges so process memory shows up in metrics and `mlrl top`.
fn arm_trace_overhead_controls(sample: Option<u64>) {
    if let Some(n) = sample {
        mlrl::obs::set_span_sample(n);
    }
    mlrl::obs::proc::start_sampler(Duration::from_millis(200));
}

/// Writes the telemetry artifacts the run asked for: a Chrome
/// trace-event JSON (`--trace-out`, Perfetto-loadable) and a metrics
/// rollup (`--metrics-out`). `metrics_json` overrides the local sink's
/// snapshot (the orchestrator passes its fleet-wide aggregate).
fn write_telemetry_artifacts(args: &Args, metrics_json: Option<&str>) -> Result<(), String> {
    if let Some(path) = args.flag("trace-out") {
        mlrl::obs::write_trace_json(std::path::Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.flag("metrics-out") {
        let json = match metrics_json {
            Some(json) => json.to_owned(),
            None => mlrl::obs::snapshot().to_json(),
        };
        fs::write(path, format!("{json}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or(
        "usage: mlrl campaign <spec.txt> [--threads N] [--opt-level o0|o1|o2] [--jsonl out.jsonl] [--cache-dir DIR] [--cache-cap BYTES] [--canonical] [--shard I/N] [--trace-out FILE] [--metrics-out FILE]",
    )?;
    let trace_sample = args.opt_num("trace-sample")?;
    if arm_telemetry(args) {
        arm_trace_overhead_controls(trace_sample);
    }
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec = CampaignSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(threads) = args.opt_num("threads")? {
        spec.threads = threads;
    }
    if let Some(level) = args.flag("opt-level") {
        spec.opt_level = OptLevel::parse(level).map_err(|e| format!("bad --opt-level: {e}"))?;
    }
    let shard = args.flag("shard").map(ShardSpec::parse).transpose()?;
    let engine = engine_from_cache_flags(args)?;
    eprintln!(
        "campaign `{}`: {} cells ({} benchmarks x {} levels x {} schemes x {} budgets x {} seeds x {} attacks, level-incompatible combos skipped){}",
        spec.name,
        spec.cells(),
        spec.benchmarks.len(),
        spec.levels.len(),
        spec.schemes.len(),
        spec.budgets.len(),
        spec.seeds.len(),
        spec.attacks.len(),
        match shard {
            Some(s) => format!("; running shard {s}"),
            None => String::new(),
        },
    );
    let report = engine.run_shard(&spec, shard);
    if args.has("canonical") {
        print!("{}", report.canonical_jsonl());
    } else {
        print!("{}", report.human_table());
        eprintln!("{}", report.summary());
    }
    if let Some(out) = args.flag("jsonl") {
        fs::write(out, report.jsonl()).map_err(|e| e.to_string())?;
        eprintln!("wrote {out}");
    }
    write_telemetry_artifacts(args, None)?;
    if report.failed_count() > 0 {
        return Err(format!("{} job(s) failed", report.failed_count()));
    }
    Ok(())
}

fn cmd_merge(args: &Args) -> Result<(), String> {
    let paths = &args.positional[1..];
    if paths.is_empty() {
        return Err("usage: mlrl merge <shard.jsonl>... [-o merged.jsonl]".to_owned());
    }
    let streams: Vec<String> = paths
        .iter()
        .map(|p| fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}")))
        .collect::<Result<_, _>>()?;
    let merged = merge_canonical_streams(&streams)?;
    match args.flag("o") {
        Some(out) => {
            fs::write(out, &merged).map_err(|e| e.to_string())?;
            eprintln!("wrote {out} ({} shard file(s) merged)", paths.len());
        }
        None => print!("{merged}"),
    }
    Ok(())
}

/// Writes one worker-protocol line to stdout, flushed immediately so the
/// supervisor (and the crash journal behind it) sees every completion
/// the instant it happens.
fn emit_protocol_line(line: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Internal worker mode spawned by `mlrl orchestrate`: runs exactly the
/// grid cells listed in `--cells`, streaming the line protocol of
/// `mlrl_orchestrate::protocol` on stdout.
///
/// Fault injection for crash-recovery tests: with `MLRL_FAULT_CELL=<i>`
/// in the environment, the worker aborts right before executing cell
/// `i`. When `MLRL_FAULT_FLAG=<path>` is also set, the abort is
/// one-shot — the flag file is created first, and a worker that finds
/// it existing runs normally (so the restarted/resumed worker gets
/// through). `MLRL_FAULT_TRACE=1` turns a telemetry worker hostile for
/// protocol-compat tests: after every completion it interleaves an
/// unknown verb, a truncated trace chunk, and a non-JSON trace payload
/// with the real stream — none of which may corrupt canonical output
/// or the supervisor's merged trace.
fn cmd_worker(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or(
        "usage: mlrl worker <spec.txt> --cells 0,2,5 [--threads N] [--opt-level o0|o1|o2] [--cache-dir DIR] [--cache-cap BYTES] [--heartbeat-ms MS] [--telemetry] [--trace-sample N]",
    )?;
    let telemetry = args.has("telemetry");
    let trace_sample = args.opt_num("trace-sample")?;
    if telemetry {
        mlrl::obs::enable();
        arm_trace_overhead_controls(trace_sample);
    }
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec = CampaignSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.threads = args.num("threads", 1usize)?;
    if let Some(level) = args.flag("opt-level") {
        spec.opt_level = OptLevel::parse(level).map_err(|e| format!("bad --opt-level: {e}"))?;
    }
    let cells: Vec<usize> = args
        .flag("cells")
        .ok_or("missing --cells <i,j,...>")?
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|e| format!("bad cell index `{t}`: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let total = spec.cells();
    if let Some(bad) = cells.iter().find(|&&i| i >= total) {
        return Err(format!("cell index {bad} out of range ({total} cells)"));
    }

    // The epoch-bearing hello only flows under --telemetry: it hands
    // the supervisor this worker's wall clock at trace-epoch time so
    // streamed spans can be skew-corrected onto one fleet timeline.
    // Readers predating the field drop the whole hello otherwise.
    if telemetry {
        emit_protocol_line(&protocol::hello_line_with_epoch(
            cells.len(),
            mlrl::obs::epoch_unix_micros(),
        ));
    } else {
        emit_protocol_line(&protocol::hello_line(cells.len()));
    }

    // Heartbeats flow between cell events so the supervisor can tell a
    // wedged worker from one grinding through an expensive cell.
    let finished = Arc::new(AtomicBool::new(false));
    {
        let finished = Arc::clone(&finished);
        let interval = Duration::from_millis(args.num("heartbeat-ms", 1000u64)?.max(10));
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if finished.load(Ordering::Relaxed) {
                break;
            }
            emit_protocol_line(&protocol::heartbeat_line());
        });
    }

    let fault_cell: Option<usize> = std::env::var("MLRL_FAULT_CELL")
        .ok()
        .and_then(|v| v.parse().ok());
    let fault_flag: Option<PathBuf> = std::env::var("MLRL_FAULT_FLAG").ok().map(PathBuf::from);
    let fault_trace = telemetry && std::env::var("MLRL_FAULT_TRACE").is_ok();

    let emitted = Arc::new(Mutex::new(std::collections::HashSet::new()));
    let emitted_by_observer = Arc::clone(&emitted);
    let engine = engine_from_cache_flags(args)?.with_observer(Arc::new(move |event| {
        match event {
            JobEvent::Started { index } => {
                if Some(index) == fault_cell {
                    let fire = match &fault_flag {
                        Some(flag) if flag.exists() => false, // already fired once
                        Some(flag) => {
                            let _ = fs::write(flag, "fault");
                            true
                        }
                        None => true,
                    };
                    if fire {
                        // Simulated hard crash: no unwinding, no events.
                        std::process::abort();
                    }
                }
                emit_protocol_line(&protocol::started_line(index));
            }
            JobEvent::Finished { record } => {
                emit_protocol_line(&protocol::done_line(record.index, &record.canonical_line()));
                // Stream the cumulative rollup and the buffered trace
                // events after every completion so a crash loses at
                // most the in-flight cell's telemetry.
                if telemetry {
                    emit_protocol_line(&protocol::metrics_line(&mlrl::obs::snapshot().to_json()));
                    if fault_trace {
                        // Hostile-stream injection: an unknown verb, a
                        // truncated chunk, and a non-JSON payload, all
                        // interleaved with the real traffic.
                        emit_protocol_line("zorp 42");
                        emit_protocol_line("trace {\"lanes\":[\"main\"");
                        emit_protocol_line(&protocol::trace_line("not json at all"));
                    }
                    if let Some(chunk) = mlrl::obs::drain_trace_chunk() {
                        emit_protocol_line(&protocol::trace_line(&chunk));
                    }
                }
                emitted_by_observer
                    .lock()
                    .expect("emitted set poisoned")
                    .insert(record.index);
            }
        }
    }));

    let report = engine.run_cells(&spec, &cells);
    finished.store(true, Ordering::Relaxed);
    // Cells that panicked escape the observer; their Failed records only
    // materialize in the report, so stream the stragglers now.
    let emitted = emitted.lock().expect("emitted set poisoned");
    for record in &report.records {
        if !emitted.contains(&record.index) {
            emit_protocol_line(&protocol::done_line(record.index, &record.canonical_line()));
        }
    }
    // The payload-carrying bye only flows under --telemetry: readers
    // predating the payload would drop the whole line otherwise. The
    // final trace flush goes first so spans recorded after the last
    // cell (teardown, stragglers) still reach the merged timeline.
    if telemetry {
        if fault_trace {
            emit_protocol_line("trace {\"lanes\":[\"main\"],\"ev");
        }
        if let Some(chunk) = mlrl::obs::drain_trace_chunk() {
            emit_protocol_line(&protocol::trace_line(&chunk));
        }
        emit_protocol_line(&protocol::bye_line_with_metrics(
            report.records.len(),
            &mlrl::obs::snapshot().to_json(),
        ));
    } else {
        emit_protocol_line(&protocol::bye_line(report.records.len()));
    }
    Ok(())
}

fn cmd_orchestrate(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or(
        "usage: mlrl orchestrate <spec.txt> [--workers N] [--run-dir DIR | --resume DIR] \
         [--cache-dir DIR] [--cache-cap BYTES] [--worker-threads N] [--opt-level o0|o1|o2] \
         [--wedge-timeout SECS] [--max-restarts N] [--canonical] [--jsonl out.jsonl] [--quick] \
         [--trace-out FILE] [--metrics-out FILE] [--trace-sample N]",
    )?;
    let trace_sample = args.opt_num("trace-sample")?;
    let telemetry = arm_telemetry(args);
    if telemetry {
        // The supervisor samples its own /proc too, so the fleet
        // metrics include the orchestrator's footprint.
        arm_trace_overhead_controls(trace_sample);
    }
    let (run_dir, resume) = match args.flag("resume") {
        Some(dir) => (PathBuf::from(dir), true),
        None => (
            PathBuf::from(args.flag("run-dir").unwrap_or("mlrl-run")),
            false,
        ),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;

    let mut cfg = OrchestratorConfig::new(path, &run_dir);
    cfg.resume = resume;
    cfg.workers = args.num("workers", 2usize)?.max(1);
    cfg.worker_cmd = vec![exe.to_string_lossy().into_owned(), "worker".to_owned()];
    cfg.cache_dir = args.flag("cache-dir").map(PathBuf::from);
    cfg.cache_cap = args
        .flag("cache-cap")
        .map(parse_byte_size)
        .transpose()
        .map_err(|e| format!("bad --cache-cap: {e}"))?;
    cfg.worker_threads = args.num("worker-threads", 1usize)?.max(1);
    if let Some(level) = args.flag("opt-level") {
        // Validate here; workers receive the token verbatim.
        OptLevel::parse(level).map_err(|e| format!("bad --opt-level: {e}"))?;
        cfg.opt_level = Some(level.to_owned());
    }
    cfg.wedge_timeout = Duration::from_secs(args.num("wedge-timeout", 30u64)?.max(1));
    cfg.max_restarts = args.num("max-restarts", 3usize)?;
    cfg.telemetry = telemetry;
    cfg.trace_sample = trace_sample;
    if args.has("quick") {
        // Smoke-test timing: tight heartbeats and wedge detection so a
        // small campaign's supervision overhead stays negligible. Never
        // touches the science — output bytes are unaffected. An explicit
        // --wedge-timeout still wins.
        cfg.heartbeat_ms = 200;
        if args.flag("wedge-timeout").is_none() {
            cfg.wedge_timeout = Duration::from_secs(10);
        }
    }

    let outcome = orchestrate(&cfg)?;

    let merged_path = run_dir.join("merged.jsonl");
    fs::write(&merged_path, &outcome.canonical)
        .map_err(|e| format!("cannot write {}: {e}", merged_path.display()))?;
    if let Some(out) = args.flag("jsonl") {
        fs::write(out, &outcome.canonical).map_err(|e| e.to_string())?;
    }
    if args.has("canonical") {
        print!("{}", outcome.canonical);
    }
    write_telemetry_artifacts(args, outcome.metrics_json.as_deref())?;
    eprintln!(
        "orchestrated `{}`: {} cells ({} resumed, {} executed, {} failed) on {} worker process(es), {} restart(s), {} ms; merged -> {}",
        outcome.campaign,
        outcome.cells,
        outcome.resumed_cells,
        outcome.executed_cells,
        outcome.failed_cells,
        outcome.workers_spawned,
        outcome.restarts,
        outcome.wall.as_millis(),
        merged_path.display(),
    );
    if outcome.failed_cells > 0 {
        return Err(format!("{} cell(s) failed", outcome.failed_cells));
    }
    Ok(())
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let run_dir = args
        .positional
        .get(1)
        .ok_or("usage: mlrl top <run-dir> [--once] [--refresh-ms MS] [--stale-ms MS] [--top N]")?;
    let opts = mlrl::orchestrate::TopOptions {
        refresh_ms: args.num("refresh-ms", 1000u64)?,
        stale_ms: args.num("stale-ms", 5000u64)?,
        top_k: args.num("top", 3usize)?,
    };
    mlrl::orchestrate::run_top(std::path::Path::new(run_dir), &opts, args.has("once"))
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let run_dir = args
        .positional
        .get(1)
        .ok_or("usage: mlrl report <run-dir> [--trace FILE] [--top N] [--folded-out FILE]")?;
    let opts = mlrl::orchestrate::ReportOptions {
        top: args.num("top", 10usize)?,
        trace: args.flag("trace").map(PathBuf::from),
        folded_out: args.flag("folded-out").map(PathBuf::from),
    };
    let text = mlrl::orchestrate::render_report(std::path::Path::new(run_dir), &opts)?;
    print!("{text}");
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv)?;
    match args.positional.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args),
        Some("flatten") => cmd_flatten(&args),
        Some("stats") => cmd_stats(&args),
        Some("lock") => cmd_lock(&args),
        Some("verify") => cmd_verify(&args),
        Some("attack") => cmd_attack(&args),
        Some("synth") => cmd_synth(&args),
        Some("gatelock") => cmd_gatelock(&args),
        Some("sat-attack") => cmd_sat_attack(&args),
        Some("campaign") => cmd_campaign(&args),
        Some("merge") => cmd_merge(&args),
        Some("orchestrate") => cmd_orchestrate(&args),
        Some("worker") => cmd_worker(&args),
        Some("top") => cmd_top(&args),
        Some("report") => cmd_report(&args),
        _ => Err(
            "usage: mlrl <gen|flatten|stats|lock|verify|attack|synth|gatelock|sat-attack|campaign|merge|orchestrate|worker|top|report> ...\nsee `src/bin/mlrl.rs` docs"
                .to_owned(),
        ),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
