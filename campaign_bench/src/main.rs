//! Command line of the campaign benchmark.
//!
//! ```text
//! campaign_bench --workload <rtl-snapshot|gate-sat|lock-replay>
//!                [--seed N] [--seconds N] [--trace 0|1] [--write-refs DIR]
//! ```
//!
//! Prints a human-readable table, then one JSON result line as the last
//! line of standard output. Exits 1 when an output is wrong (or, traced,
//! when a walked cell differs from the engine's record) and 2 on a usage
//! or run error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mlrl_campaign_bench::heap::Counting;
use mlrl_campaign_bench::timed::{measure, remove_dir, run_pass, scratch_dir};
use mlrl_campaign_bench::traced::trace;
use mlrl_campaign_bench::workload::{Inputs, Workload, DEFAULT_SEED};

#[global_allocator]
static HEAP: Counting = Counting;

const USAGE: &str = "usage: campaign_bench --workload <rtl-snapshot|gate-sat|lock-replay> \
                     [--seed N] [--seconds N] [--trace 0|1] [--write-refs DIR]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_refs: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut write_refs = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                }
            }
            "--write-refs" => write_refs = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        write_refs,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = scratch_dir(args.workload);
    let outcome = run(&args, &scratch);
    let cleanup = remove_dir(&scratch);
    if let Some(parent) = scratch.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    match outcome.and_then(|code| cleanup.map(|()| code)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args, scratch: &Path) -> Result<ExitCode, String> {
    if let Some(dir) = &args.write_refs {
        return write_reference(&args.workload.inputs(args.seed)?, dir, scratch);
    }
    let inputs = args.workload.inputs(args.seed)?;
    let (correct, attempted, failed, metrics) = if args.trace {
        traced_table(args, &inputs, scratch)?
    } else {
        untraced_table(args, &inputs, scratch)?
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

type Table = (bool, usize, usize, Vec<(&'static str, f64, &'static str)>);

fn untraced_table(args: &Args, inputs: &Inputs, scratch: &Path) -> Result<Table, String> {
    let m = measure(inputs, args.seconds, scratch)?;
    let p50 = m.cell_percentile(50.0);
    let p90 = m.cell_percentile(90.0);
    let c = &m.checker;
    println!(
        "workload {}  seed {}  timed passes {}  instances {}  cells checked {}  failed {}",
        args.workload.name(),
        args.seed,
        m.passes,
        m.instances,
        c.attempted,
        c.failed
    );
    println!("  cells_per_s   {:.4} cells/s", m.cells_per_s());
    println!("  cell_p50_ms   {p50}");
    println!("  cell_p90_ms   {p90}");
    println!(
        "  setup_s       {:.6} s (median of {} set-ups)",
        m.setup_median_s(),
        m.setup_s.len()
    );
    println!("  peak_heap_mb  {:.3} MiB", m.peak_heap_mb);
    println!(
        "  fail_ratio    {:.4} ({} of {})",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    );
    for problem in &c.problems {
        eprintln!("check failed: {problem}");
    }
    let p50 = p50
        .value
        .ok_or("too few timed cells for a median (needs 20)")?;
    let metrics = vec![
        ("cells_per_s", m.cells_per_s(), "cells/s"),
        ("cell_p50_ms", p50, "ms"),
        ("setup_s", m.setup_median_s(), "s"),
        ("peak_heap_mb", m.peak_heap_mb, "MiB"),
    ];
    finite(&metrics)?;
    Ok((c.failed == 0, c.attempted, c.failed, metrics))
}

fn traced_table(args: &Args, inputs: &Inputs, scratch: &Path) -> Result<Table, String> {
    let t = trace(inputs, args.seconds, scratch)?;
    println!(
        "workload {}  seed {}  walked passes {}  walked cells {}  walk != engine {}",
        args.workload.name(),
        args.seed,
        t.passes,
        t.walked,
        t.mismatched
    );
    let metrics = t.metrics();
    for (name, value, unit) in &metrics {
        println!("  {name:<24} {value:>14.3} {unit}");
    }
    for problem in &t.checker.problems {
        eprintln!("check failed: {problem}");
    }
    finite(&metrics)?;
    let failed = t.mismatched + t.checker.failed;
    Ok((failed == 0, t.walked + t.checker.attempted, failed, metrics))
}

fn finite(metrics: &[(&str, f64, &str)]) -> Result<(), String> {
    match metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((name, v, _)) => Err(format!("metric {name} is not a number ({v})")),
        None => Ok(()),
    }
}

/// Writes the canonical stream of the first engine pass (a cold pass for
/// `lock-replay`) to `<dir>/<workload>.jsonl`.
fn write_reference(inputs: &Inputs, dir: &Path, scratch: &Path) -> Result<ExitCode, String> {
    let spill = (inputs.workload == Workload::LockReplay).then(|| scratch.join("refs"));
    let pass = run_pass(inputs, spill.as_deref(), None, false)?;
    if pass.report.failed_count() > 0 {
        return Err(format!("{} cells failed", pass.report.failed_count()));
    }
    let path = dir.join(format!("{}.jsonl", inputs.workload.name()));
    std::fs::write(&path, pass.report.canonical_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}
