//! Regenerates Fig. 6: KPA of the SnapShot-RTL attack per benchmark (6a)
//! and averaged per locking scheme (6b).
//!
//! A thin printer over `mlrl_engine`: the sweep runs as campaigns
//! (`mlrl_engine::drivers::fig6_campaigns` — one grid for ASSURE/HRA,
//! one for ERA, plus the paper's ERA-on-N_2046 100%-budget exception) on
//! the work-stealing pool, sharing base designs, locked instances, and
//! relock training sets through the artifact cache. This is the engine's
//! natural heavy workload: 14 benchmarks × 3 schemes × N instances,
//! each relocked up to 1000 times — cacheable, parallel, and linearly
//! partitionable across machines with `--shard`.
//!
//! Usage: `cargo run --release -p mlrl-bench --bin fig6_kpa -- <CMD flags>`.
//! Defaults: every benchmark, 3 instances, 60 relocks, seed 2022, all
//! cores. `--quick` is 3 small benchmarks, 1 instance and 20 relocks;
//! `--full` is paper scale, 10 instances and 200 relocks; `--csv` prints
//! CSV rows; `--shard I/N` implies `--canonical`.

use mlrl_bench::args::run_campaigns;
use mlrl_engine::cli::{CampaignFlags, Command, Parsed, CAMPAIGN_FLAGS};
use mlrl_engine::drivers::fig6_campaigns;
use mlrl_engine::{kpa_cell_means, scheme_averages, JobRecord};
use mlrl_rtl::bench_designs::paper_benchmarks;

const CMD: Command = Command(&[
    "fig6_kpa [--quick] [--full] [--benchmarks a,b,c] [--instances N] [--relocks N]",
    "[--seed N] [--csv]",
    CAMPAIGN_FLAGS,
]);

fn main() -> std::process::ExitCode {
    mlrl_bench::args::main(&CMD, run)
}

fn run(args: &Parsed, flags: &CampaignFlags) -> Result<(), String> {
    let mut benchmarks: Vec<String> = paper_benchmarks()
        .iter()
        .map(|s| s.name.to_owned())
        .collect();
    let mut instances = 3usize;
    let mut relocks = 60usize;
    if args.has("--quick") {
        benchmarks = vec!["FIR".into(), "SASC".into(), "N_1023".into()];
        instances = 1;
        relocks = 20;
    }
    if args.has("--full") {
        instances = 10;
        relocks = 200;
    }
    if let Some(b) = args.list("--benchmarks") {
        benchmarks = b;
    }
    instances = args.num("--instances", instances)?;
    relocks = args.num("--relocks", relocks)?;
    let seed: u64 = args.num("--seed", 2022)?;

    let specs = fig6_campaigns(&benchmarks, instances, relocks, seed);
    eprintln!(
        "Fig. 6 sweep: {} benchmarks x 3 schemes x {instances} instance(s), {relocks} relocks each",
        benchmarks.len()
    );
    let Some(reports) = run_campaigns(flags, &specs)? else {
        return Ok(()); // canonical / shard output already printed
    };
    let records: Vec<JobRecord> = reports.into_iter().flat_map(|r| r.records).collect();
    let cells = kpa_cell_means(&records, "snapshot");
    let averages = scheme_averages(&cells);

    if args.has("--csv") {
        println!("benchmark,scheme,kpa");
        for cell in &cells {
            println!(
                "{},{},{:.2}",
                cell.benchmark,
                cell.scheme.to_ascii_uppercase(),
                cell.kpa
            );
        }
        for (scheme, avg) in &averages {
            println!("AVERAGE,{},{avg:.2}", scheme.to_ascii_uppercase());
        }
        return Ok(());
    }

    println!();
    println!("Fig. 6a — KPA (%) per benchmark (random guess = 50%)");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "benchmark", "ASSURE", "HRA", "ERA"
    );
    for name in &benchmarks {
        let get = |scheme: &str| {
            cells
                .iter()
                .find(|c| &c.benchmark == name && c.scheme == scheme)
                .map(|c| c.kpa)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{name:<10} {:>10.2} {:>10.2} {:>10.2}",
            get("assure"),
            get("hra"),
            get("era")
        );
    }
    println!();
    println!("Fig. 6b — average KPA (%) (paper: ASSURE 74.78, HRA 74.26, ERA 47.92)");
    for (scheme, avg) in &averages {
        println!("{:<8} {avg:>8.2}", scheme.to_ascii_uppercase());
    }
    Ok(())
}
