//! §5 "Limitations and opportunities": is there a global bias among
//! designs? Reports each benchmark's initial operation-distribution
//! imbalance and its distance from the optimal (balanced) distribution —
//! the metric denominator `d_e(v_i, v_o)`.
//!
//! A thin printer over `mlrl_engine`: one lock-free profile cell per
//! benchmark (`mlrl_engine::drivers::design_bias_campaign`).
//!
//! Usage: `cargo run --release -p mlrl-bench --bin design_bias -- <CMD flags>`.

use mlrl_bench::args::run_campaigns;
use mlrl_engine::cli::{CampaignFlags, Command, Parsed, CAMPAIGN_FLAGS};
use mlrl_engine::drivers::design_bias_campaign;
use mlrl_engine::JobRecord;
use mlrl_rtl::bench_designs::paper_benchmarks;

const CMD: Command = Command(&["design_bias [seed] [--benchmarks a,b,c]", CAMPAIGN_FLAGS]);

fn main() -> std::process::ExitCode {
    mlrl_bench::args::main(&CMD, run)
}

fn run(args: &Parsed, flags: &CampaignFlags) -> Result<(), String> {
    let seed: u64 = args.positional_num(0, 2022)?;
    let benchmarks: Vec<String> = args.list("--benchmarks").unwrap_or_else(|| {
        paper_benchmarks()
            .iter()
            .map(|s| s.name.to_owned())
            .collect()
    });

    let spec = design_bias_campaign(&benchmarks, seed);
    let Some(reports) = run_campaigns(flags, std::slice::from_ref(&spec))? else {
        return Ok(()); // canonical / shard output already printed
    };

    let bias = |r: &JobRecord| r.imbalance.unwrap_or(0) as f64 / r.ops.unwrap_or(1).max(1) as f64;
    let mut rows: Vec<&JobRecord> = reports[0].records.iter().collect();
    rows.sort_by(|a, b| bias(b).partial_cmp(&bias(a)).expect("finite"));

    println!("initial distribution bias per benchmark (seed {seed})");
    println!(
        "{:<10} {:>8} {:>12} {:>8} {:>16}",
        "benchmark", "ops", "imbalance", "bias", "d_e(v_i, v_o)"
    );
    for r in &rows {
        println!(
            "{:<10} {:>8} {:>12} {:>8.2} {:>16.2}",
            r.benchmark,
            r.ops.unwrap_or(0),
            r.imbalance.unwrap_or(0),
            bias(r),
            r.initial_distance.unwrap_or(f64::NAN)
        );
    }
    println!();
    println!("bias = imbalance / ops. 1.00 means every operation's pair type is");
    println!("absent (N_2046); 0.00 means perfectly balanced (N_1023). The higher");
    println!("the bias, the more a learning attack can extract from relocking —");
    println!("and the more key bits ERA needs to reach Def. 1 security.");
    Ok(())
}
