//! Regenerates the §3.2 result: the original ASSURE operation pairing leaks
//! key bits to simple pair analysis; the involutive fix closes the channel.
//!
//! A thin printer over `mlrl_engine`: each benchmark × pairing-table cell
//! (`assure-original` vs `assure`) runs as a pair-analysis campaign cell
//! (`mlrl_engine::drivers::sec32_campaign`), sharing base designs through
//! the artifact cache.
//!
//! Usage: `cargo run --release -p mlrl-bench --bin sec32_pair_leakage -- <CMD flags>`.

use mlrl_bench::args::run_campaigns;
use mlrl_engine::cli::{CampaignFlags, Command, Parsed, CAMPAIGN_FLAGS};
use mlrl_engine::drivers::sec32_campaign;

const CMD: Command = Command(&[
    "sec32_pair_leakage [--benchmarks a,b,c] [--seed N]",
    CAMPAIGN_FLAGS,
]);

fn main() -> std::process::ExitCode {
    mlrl_bench::args::main(&CMD, run)
}

fn run(args: &Parsed, flags: &CampaignFlags) -> Result<(), String> {
    let benchmarks: Vec<String> = args.list("--benchmarks").unwrap_or_else(|| {
        // The leak needs the §3.2-named ops (*, /, %, ^, **): use the
        // arithmetic- and xor-heavy benchmarks.
        vec![
            "RSA".into(),
            "FIR".into(),
            "DES3".into(),
            "DFT".into(),
            "SHA256".into(),
        ]
    });
    let seed: u64 = args.num("--seed", 2022)?;

    let spec = sec32_campaign(&benchmarks, seed);
    let Some(reports) = run_campaigns(flags, std::slice::from_ref(&spec))? else {
        return Ok(()); // canonical / shard output already printed
    };
    let report = &reports[0];

    println!("§3.2 — pair-analysis leakage of ASSURE operation pairings (seed {seed})");
    println!("75% serial operation locking; attacker knows the pairing table.");
    println!();
    println!(
        "{:<10} {:<18} {:>10} {:>12} {:>14} {:>10}",
        "benchmark", "pair table", "localities", "inferred", "KPA(inferred)", "coverage"
    );
    for name in &benchmarks {
        for (scheme, table) in [("assure-original", "original-assure"), ("assure", "fixed")] {
            let Some(r) = report
                .records
                .iter()
                .find(|r| &r.benchmark == name && r.scheme == scheme)
            else {
                continue;
            };
            println!(
                "{:<10} {table:<18} {:>10} {:>12} {:>13.1}% {:>9.1}%",
                r.benchmark,
                r.localities.unwrap_or(0),
                r.attacked_bits.unwrap_or(0),
                r.kpa.unwrap_or(f64::NAN),
                r.coverage.unwrap_or(f64::NAN),
            );
        }
    }
    println!();
    println!("Paper: 'currently ASSURE can be broken by analyzing operation pairs';");
    println!("the involutive fix ('fixed') is applied to all other evaluations.");
    Ok(())
}
