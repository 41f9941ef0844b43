//! `mlrl` — command-line front end for file-based locking workflows.
//!
//! ```text
//! mlrl <gen|flatten|stats|lock|verify|attack|synth|gatelock|sat-attack|
//!       campaign|merge|orchestrate|worker|top|report> <operands> [flags]
//! ```
//!
//! Each subcommand's `mlrl_engine::cli::Command`, next to its handler, is
//! its usage line and flag table (`mlrl` alone prints them all); a flag
//! it lacks is a usage error (exit 1) before any work starts.
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
//! supervisor folds them into the run dir's fleet metrics rollup and
//! one skew-corrected trace (worker lanes namespaced `w<slot>/`,
//! supervisor-synthesized lanes `orch/`); `mlrl_orchestrate::run_dir`
//! names the files. `--trace-sample N` keeps 1-in-N hot-class spans
//! (phase and cell spans always kept; aggregate stats stay exact) to
//! bound trace volume on long runs.
//!
//! `top` is the live fleet console: it tails a run directory and renders
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
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mlrl::attack::freq_table::freq_table_attack;
use mlrl::attack::relock::{build_training_set, RelockConfig};
use mlrl::engine::cache::parse_byte_size;
use mlrl::engine::cli::{opt_level, CampaignFlags, Command, Parsed, Telemetry, CAMPAIGN_FLAGS};
use mlrl::engine::report::merge_canonical_streams;
use mlrl::engine::run::{Engine, JobEvent};
use mlrl::engine::spec::{CampaignSpec, SchemeKind};
use mlrl::locking::key::{Key, KeyBitKind};
use mlrl::locking::pairs::PairTable;
use mlrl::locking::report::LockingReport;
use mlrl::locking::{key_budget, lock, LockError};
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

fn load_module(path: &str) -> Result<Module, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_verilog(&src).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Writes `text` to the `-o` file and returns its path, or prints it to
/// stdout and returns `None`.
fn write_output<'a>(args: &'a Parsed, text: &str) -> Result<Option<&'a str>, String> {
    let Some(path) = args.value("-o") else {
        print!("{text}");
        return Ok(None);
    };
    fs::write(path, text).map_err(|e| e.to_string())?;
    Ok(Some(path))
}

fn key_to_string(key: &[bool]) -> String {
    key.iter().map(|b| if *b { '1' } else { '0' }).collect()
}

/// Reads a key file: a bit string, `K[0]` first.
fn load_key(path: &str) -> Result<Vec<bool>, String> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
    text.trim()
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("invalid key character `{other}`")),
        })
        .collect()
}

const GEN: Command = Command(&["mlrl gen <benchmark> [--seed N] [-o design.v]"]);

fn cmd_gen(args: &Parsed) -> Result<(), String> {
    let name = args.required(0).map_err(|usage| {
        let names: Vec<&str> = paper_benchmarks().iter().map(|s| s.name).collect();
        format!("{usage}\nbenchmarks: {}", names.join(" "))
    })?;
    let spec = benchmark_by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let module = generate(&spec, args.num("--seed", 2022u64)?);
    let text = emit_verilog(&module).map_err(|e| e.to_string())?;
    if let Some(path) = write_output(args, &text)? {
        eprintln!("wrote {path} ({} ops)", spec.total_ops());
    }
    Ok(())
}

const FLATTEN: Command = Command(&["mlrl flatten <hier.v> [--top NAME] [-o flat.v]"]);

fn cmd_flatten(args: &Parsed) -> Result<(), String> {
    let path = args.required(0)?;
    let src = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let design = parse_design(&src).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let top = match args.value("--top") {
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
    if let Some(out) = write_output(args, &text)? {
        eprintln!("wrote {out}");
    }
    Ok(())
}

const STATS: Command = Command(&["mlrl stats <design.v>"]);

fn cmd_stats(args: &Parsed) -> Result<(), String> {
    let module = load_module(args.required(0)?)?;
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

const LOCK: Command = Command(&[
    "mlrl lock <design.v> [--scheme assure|assure-random|assure-original|assure-disjoint|hra|hra-greedy|era]",
    "[--budget F] [--seed N] [-o locked.v] [--key-out key.txt]",
]);

fn cmd_lock(args: &Parsed) -> Result<(), String> {
    let scheme = args.value("--scheme").unwrap_or("era");
    let lock_scheme = SchemeKind::parse(scheme)
        .ok()
        .and_then(SchemeKind::lock_scheme)
        .ok_or_else(|| {
            let rtl = SchemeKind::ALL
                .into_iter()
                .filter(|s| s.lock_scheme().is_some());
            let names: Vec<&str> = rtl.map(SchemeKind::name).collect();
            format!(
                "scheme `{scheme}` does not lock an RTL module (expected one of: {})",
                names.join(", ")
            )
        })?;
    let fraction: f64 = args.num("--budget", 0.75)?;
    let seed: u64 = args.num("--seed", 2022)?;
    let original = load_module(args.required(0)?)?;
    let mut locked = original.clone();
    let budget = key_budget(&locked, fraction).ok_or(LockError::NothingToLock.to_string())?;
    let key = lock(&mut locked, lock_scheme, budget, seed)
        .map_err(|e| e.to_string())?
        .key;
    let report = LockingReport::build(scheme, &original, &locked, &key, &PairTable::fixed());
    eprintln!("{report}");
    let text = emit_verilog(&locked).map_err(|e| e.to_string())?;
    if let Some(out) = write_output(args, &text)? {
        eprintln!("wrote {out}");
    }
    if let Some(key_out) = args.value("--key-out") {
        fs::write(key_out, key_to_string(key.as_bits())).map_err(|e| e.to_string())?;
        eprintln!("wrote {key_out} ({} bits)", key.len());
    }
    Ok(())
}

const VERIFY: Command =
    Command(&["mlrl verify <original.v> <locked.v> [--key key.txt] [--patterns N]"]);

fn cmd_verify(args: &Parsed) -> Result<(), String> {
    let original = load_module(args.required(0)?)?;
    let locked = load_module(args.required(1)?)?;
    let key = load_key(args.value("--key").ok_or("missing --key <file>")?)?;
    let cfg = EquivConfig {
        patterns: args.num("--patterns", 64usize)?,
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

const ATTACK: Command =
    Command(&["mlrl attack <locked.v> [--relocks N] [--key key.txt] [--seed N]"]);

fn cmd_attack(args: &Parsed) -> Result<(), String> {
    let locked = load_module(args.required(0)?)?;
    let relock = RelockConfig {
        rounds: args.num("--relocks", 60usize)?,
        budget_fraction: 0.75,
        seed: args.num("--seed", 7u64)?,
    };
    // Build a scoring key: the real one if provided, else zeros (KPA then
    // meaningless and suppressed).
    let bits = match args.value("--key") {
        Some(path) => load_key(path)?,
        None => vec![false; locked.key_width() as usize],
    };
    let mut score_key = Key::new();
    for b in bits {
        score_key.push(b, KeyBitKind::Operation);
    }
    let training = build_training_set(&locked, &relock);
    let report = freq_table_attack(&locked, &score_key, &training)
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
    if args.has("--key") {
        println!("KPA: {:.2}% (50% = random guess)", report.kpa);
    }
    Ok(())
}

const SYNTH: Command = Command(&["mlrl synth <design.v> [-o netlist.v]"]);

fn cmd_synth(args: &Parsed) -> Result<(), String> {
    let module = load_module(args.required(0)?)?;
    let netlist = lower_module(&module).map_err(|e| e.to_string())?;
    let stats = NetlistStats::of(&netlist).map_err(|e| e.to_string())?;
    eprintln!("synthesized `{}`: {stats}", netlist.name());
    let text = emit_structural_verilog(&netlist).map_err(|e| e.to_string())?;
    if let Some(out) = write_output(args, &text)? {
        println!("wrote {out}");
    }
    Ok(())
}

const GATELOCK: Command = Command(&[
    "mlrl gatelock <design.v> [--scheme xor|mux] [--bits N] [--seed N] [-o locked.v]",
    "[--key-out key.txt]",
]);

fn cmd_gatelock(args: &Parsed) -> Result<(), String> {
    let module = load_module(args.required(0)?)?;
    let mut netlist = lower_module(&module).map_err(|e| e.to_string())?;
    let bits = args.num("--bits", 32usize)?;
    let seed = args.num("--seed", 7u64)?;
    let scheme = match args.value("--scheme").unwrap_or("xor") {
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
    if let Some(path) = args.value("--key-out") {
        fs::write(path, key_to_string(key.bits())).map_err(|e| e.to_string())?;
        eprintln!("wrote key to {path}");
    }
    let text = emit_structural_verilog(&netlist).map_err(|e| e.to_string())?;
    if let Some(out) = write_output(args, &text)? {
        println!("wrote {out}");
    }
    Ok(())
}

/// `--key` is the oracle chip's key.
const SAT_ATTACK: Command = Command(&["mlrl sat-attack <locked.v> [--key key.txt] [--max-dips N]"]);

fn cmd_sat_attack(args: &Parsed) -> Result<(), String> {
    let locked = load_module(args.required(0)?)?;
    let key = load_key(
        args.value("--key")
            .ok_or("missing --key <file> (the oracle's key)")?,
    )?;
    let netlist = lower_module(&locked)
        .map_err(|e| e.to_string())?
        .to_scan_view();
    eprintln!(
        "attacking `{}`: {} gates, {} key bits (scan view)",
        netlist.name(),
        netlist.gates().len(),
        netlist.key_width()
    );
    let cfg = SatAttackConfig {
        max_dips: args.num("--max-dips", 512usize)?,
        ..Default::default()
    };
    let (report, correct) =
        sat_attack_with_sim_oracle(&netlist, &key, &cfg).map_err(|e| e.to_string())?;
    println!("DIPs (oracle queries): {}", report.dips);
    println!("UNSAT proof:           {}", report.proved);
    println!("recovered key:         {}", key_to_string(&report.key));
    println!("functionally correct:  {correct}");
    println!(
        "solver effort:         {} conflicts, {} decisions, {} propagations",
        report.conflicts, report.decisions, report.propagations
    );
    Ok(())
}

const CAMPAIGN: Command = Command(&[
    "mlrl campaign <spec.txt> [--jsonl out.jsonl]",
    CAMPAIGN_FLAGS,
]);

fn cmd_campaign(args: &Parsed) -> Result<(), String> {
    let path = args.required(0)?;
    let flags = CampaignFlags::parse(args)?;
    flags.telemetry.arm();
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = flags.apply(&CampaignSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?);
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
        match flags.shard {
            Some(s) => format!("; running shard {s}"),
            None => String::new(),
        },
    );
    let report = flags.engine.run_shard(&spec, flags.shard);
    if flags.canonical {
        print!("{}", report.canonical_jsonl());
    } else {
        print!("{}", report.human_table());
        eprintln!("{}", report.summary());
    }
    if let Some(out) = args.value("--jsonl") {
        fs::write(out, report.jsonl()).map_err(|e| e.to_string())?;
        eprintln!("wrote {out}");
    }
    flags.telemetry.write(None)?;
    if report.failed_count() > 0 {
        return Err(format!("{} job(s) failed", report.failed_count()));
    }
    Ok(())
}

const MERGE: Command = Command(&["mlrl merge <shard.jsonl>... [-o merged.jsonl]"]);

fn cmd_merge(args: &Parsed) -> Result<(), String> {
    args.required(0)?;
    let paths = args.positionals();
    let streams: Vec<String> = paths
        .iter()
        .map(|p| fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}")))
        .collect::<Result<_, _>>()?;
    let merged = merge_canonical_streams(&streams)?;
    if let Some(out) = write_output(args, &merged)? {
        eprintln!("wrote {out} ({} shard file(s) merged)", paths.len());
    }
    Ok(())
}

/// Writes one worker-protocol line to stdout, flushed immediately so the
/// supervisor (and the crash journal behind it) sees every completion
/// the instant it happens.
fn emit_protocol_line(line: &str) {
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
/// through). `MLRL_FAULT_HALF_DONE=1` moves the abort to after cell `i`
/// ran: the worker writes the first half of its `done` line, with no
/// newline, and aborts — a torn protocol line the supervisor must reject
/// (the cell is re-run). `MLRL_FAULT_TRACE=1` turns a telemetry worker
/// hostile for protocol-compat tests: after every completion it interleaves an
/// unknown verb, a truncated trace chunk, a non-JSON trace payload and a
/// metrics payload with a negative counter with the real stream — none
/// of which may corrupt canonical output, the fleet rollup or the
/// supervisor's merged trace.
const WORKER: Command = Command(&[
    "mlrl worker <spec.txt> [--cells 0,2,5] [--threads N] [--opt-level o0|o1|o2]",
    "[--cache-dir DIR] [--cache-cap BYTES] [--heartbeat-ms MS] [--telemetry]",
    "[--trace-sample N]",
]);

fn cmd_worker(args: &Parsed) -> Result<(), String> {
    let path = args.required(0)?;
    let telemetry = args.has("--telemetry");
    let trace_sample = args.opt_num("--trace-sample")?;
    let threads = args.num("--threads", 1usize)?;
    let heartbeat = Duration::from_millis(args.num("--heartbeat-ms", 1000u64)?.max(10));
    let opt_level = opt_level(args)?;
    let engine = Engine::from_cache_flags(args.value("--cache-dir"), args.value("--cache-cap"))?;
    if telemetry {
        Telemetry {
            sample: trace_sample,
            ..Telemetry::default()
        }
        .enable();
    }
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec = CampaignSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.threads = threads;
    if let Some(level) = opt_level {
        spec.opt_level = level;
    }
    let cells: Vec<usize> = args
        .value("--cells")
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

    // Under --telemetry the hello hands the supervisor this worker's
    // wall clock at trace-epoch time so streamed spans can be
    // skew-corrected onto one fleet timeline.
    let epoch_us = telemetry.then(mlrl::obs::epoch_unix_micros);
    emit_protocol_line(&protocol::hello_line(cells.len(), epoch_us));

    // Heartbeats flow between cell events so the supervisor can tell a
    // wedged worker from one grinding through an expensive cell.
    let finished = Arc::new(AtomicBool::new(false));
    {
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || loop {
            std::thread::sleep(heartbeat);
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
    let fault_half_done = std::env::var("MLRL_FAULT_HALF_DONE").is_ok();
    let fault_trace = telemetry && std::env::var("MLRL_FAULT_TRACE").is_ok();
    // Whether the fault fires at cell `index` (once only, with a flag).
    let fault_fires = move |index: usize| {
        Some(index) == fault_cell
            && match &fault_flag {
                Some(flag) if flag.exists() => false, // already fired once
                Some(flag) => {
                    let _ = fs::write(flag, "fault");
                    true
                }
                None => true,
            }
    };

    let emitted = Arc::new(Mutex::new(std::collections::HashSet::new()));
    let emitted_by_observer = Arc::clone(&emitted);
    let engine = engine.with_observer(Arc::new(move |event| {
        match event {
            JobEvent::Started { index } => {
                if !fault_half_done && fault_fires(index) {
                    // Simulated hard crash: no unwinding, no events.
                    std::process::abort();
                }
                emit_protocol_line(&protocol::started_line(index));
            }
            JobEvent::Finished { record } => {
                let done = protocol::done_line(record.index, &record.canonical_line());
                if fault_half_done && fault_fires(record.index) {
                    // A crash mid-write: the stdout lock is held to the
                    // abort, so no heartbeat completes the torn line.
                    let mut out = std::io::stdout().lock();
                    let _ = out.write_all(&done.as_bytes()[..done.len() / 2]);
                    let _ = out.flush();
                    std::process::abort();
                }
                emit_protocol_line(&done);
                // Stream the cumulative rollup and the buffered trace
                // events after every completion so a crash loses at
                // most the in-flight cell's telemetry.
                if telemetry {
                    emit_protocol_line(&protocol::metrics_line(&mlrl::obs::snapshot().to_json()));
                    if fault_trace {
                        // Hostile-stream injection: an unknown verb, a
                        // truncated chunk, a non-JSON payload and a bad
                        // metrics payload, interleaved with the real traffic.
                        emit_protocol_line("zorp 42");
                        emit_protocol_line("trace {\"lanes\":[\"main\"");
                        emit_protocol_line(&protocol::trace_line("not json at all"));
                        emit_protocol_line("metrics {\"counters\":{\"cells.completed\":-5}}");
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
    // Under --telemetry the bye carries the final rollup. The final
    // trace flush goes first so spans recorded after the last cell
    // (teardown, stragglers) still reach the merged timeline.
    if telemetry {
        if fault_trace {
            emit_protocol_line("trace {\"lanes\":[\"main\"],\"ev");
        }
        if let Some(chunk) = mlrl::obs::drain_trace_chunk() {
            emit_protocol_line(&protocol::trace_line(&chunk));
        }
    }
    let metrics = telemetry.then(|| mlrl::obs::snapshot().to_json());
    emit_protocol_line(&protocol::bye_line(
        report.records.len(),
        metrics.as_deref(),
    ));
    Ok(())
}

const ORCHESTRATE: Command = Command(&[
    "mlrl orchestrate <spec.txt> [--workers N] [--run-dir DIR] [--resume DIR]",
    "[--cache-dir DIR] [--cache-cap BYTES] [--worker-threads N] [--opt-level o0|o1|o2]",
    "[--wedge-timeout SECS] [--max-restarts N] [--canonical] [--quick]",
    "[--trace-out FILE] [--metrics-out FILE] [--trace-sample N]",
]);

fn cmd_orchestrate(args: &Parsed) -> Result<(), String> {
    let path = args.required(0)?;
    let telemetry = Telemetry::parse(args)?;
    let (run_dir, resume) = match args.value("--resume") {
        Some(dir) => (dir, true),
        None => (args.value("--run-dir").unwrap_or("mlrl-run"), false),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;

    let mut cfg = OrchestratorConfig::new(path, run_dir);
    cfg.resume = resume;
    cfg.workers = args.num("--workers", 2usize)?.max(1);
    cfg.worker_cmd = vec![exe.to_string_lossy().into_owned(), "worker".to_owned()];
    cfg.cache_dir = args.value("--cache-dir").map(PathBuf::from);
    cfg.cache_cap = args
        .value("--cache-cap")
        .map(parse_byte_size)
        .transpose()
        .map_err(|e| format!("bad --cache-cap: {e}"))?;
    cfg.worker_threads = args.num("--worker-threads", 1usize)?.max(1);
    // Validate here; workers receive the token verbatim.
    opt_level(args)?;
    cfg.opt_level = args.value("--opt-level").map(str::to_owned);
    cfg.wedge_timeout = Duration::from_secs(args.num("--wedge-timeout", 30u64)?.max(1));
    cfg.max_restarts = args.num("--max-restarts", 3usize)?;
    cfg.trace_sample = telemetry.sample;
    if args.has("--quick") {
        // Smoke-test timing: tight heartbeats and wedge detection so a
        // small campaign's supervision overhead stays negligible. Never
        // touches the science — output bytes are unaffected. An explicit
        // --wedge-timeout still wins.
        cfg.heartbeat_ms = 200;
        if !args.has("--wedge-timeout") {
            cfg.wedge_timeout = Duration::from_secs(10);
        }
    }
    // The supervisor samples its own /proc too, so the fleet metrics
    // include the orchestrator's footprint.
    cfg.telemetry = telemetry.arm();

    let outcome = orchestrate(&cfg)?;

    if args.has("--canonical") {
        print!("{}", outcome.canonical);
    }
    telemetry.write(outcome.metrics.as_ref())?;
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
        cfg.run_dir.merged().display(),
    );
    if outcome.failed_cells > 0 {
        return Err(format!("{} cell(s) failed", outcome.failed_cells));
    }
    Ok(())
}

const TOP: Command =
    Command(&["mlrl top <run-dir> [--once] [--refresh-ms MS] [--stale-ms MS] [--top N]"]);

fn cmd_top(args: &Parsed) -> Result<(), String> {
    let run_dir = args.required(0)?;
    let opts = mlrl::orchestrate::TopOptions {
        refresh_ms: args.num("--refresh-ms", 1000u64)?,
        stale_ms: args.num("--stale-ms", 5000u64)?,
        top_k: args.num("--top", 3usize)?,
    };
    mlrl::orchestrate::run_top(std::path::Path::new(run_dir), &opts, args.has("--once"))
}

const REPORT: Command =
    Command(&["mlrl report <run-dir> [--trace FILE] [--top N] [--folded-out FILE]"]);

fn cmd_report(args: &Parsed) -> Result<(), String> {
    let run_dir = args.required(0)?;
    let opts = mlrl::orchestrate::ReportOptions {
        top: args.num("--top", 10usize)?,
        trace: args.value("--trace").map(PathBuf::from),
        folded_out: args.value("--folded-out").map(PathBuf::from),
    };
    let text = mlrl::orchestrate::render_report(std::path::Path::new(run_dir), &opts)?;
    print!("{text}");
    Ok(())
}

type Handler = fn(&Parsed) -> Result<(), String>;

/// Every subcommand's flag table and handler, in usage order.
const COMMANDS: [(&Command, Handler); 15] = [
    (&GEN, cmd_gen),
    (&FLATTEN, cmd_flatten),
    (&STATS, cmd_stats),
    (&LOCK, cmd_lock),
    (&VERIFY, cmd_verify),
    (&ATTACK, cmd_attack),
    (&SYNTH, cmd_synth),
    (&GATELOCK, cmd_gatelock),
    (&SAT_ATTACK, cmd_sat_attack),
    (&CAMPAIGN, cmd_campaign),
    (&MERGE, cmd_merge),
    (&ORCHESTRATE, cmd_orchestrate),
    (&WORKER, cmd_worker),
    (&TOP, cmd_top),
    (&REPORT, cmd_report),
];

fn run() -> Result<(), String> {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_default();
    let Some((cmd, handler)) = COMMANDS
        .iter()
        .find(|(cmd, _)| cmd.0[0].split(' ').nth(1) == Some(sub.as_str()))
    else {
        let lines: Vec<String> = COMMANDS.iter().map(|(cmd, _)| cmd.0.join(" ")).collect();
        return Err(format!(
            "usage: mlrl <command> ..., one of:\n  {}",
            lines.join("\n  ")
        ));
    };
    handler(&cmd.parse(argv)?)
}

fn main() -> ExitCode {
    mlrl::engine::cli::run_main(run)
}
