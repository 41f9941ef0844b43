//! Ablation: KPA vs key-budget fraction per scheme — quantifies the §5.1
//! lesson that "half measures are not effective": HRA only reaches the 50%
//! floor once the budget covers the total imbalance; ERA is always on it.
//!
//! A thin printer over `mlrl_engine`: the fractions × schemes × instances
//! grid runs as one campaign (`mlrl_engine::drivers::ablation_campaign`)
//! whose budget axis *is* the ablation, with locked instances and relock
//! training sets shared through the artifact cache.
//!
//! Usage: `cargo run --release -p mlrl-bench --bin ablation_budget -- <CMD flags>`.

use mlrl_bench::args::run_campaigns;
use mlrl_engine::cli::{CampaignFlags, Command, Parsed, CAMPAIGN_FLAGS};
use mlrl_engine::drivers::ablation_campaign;
use mlrl_engine::kpa_cell_means;

const CMD: Command = Command(&[
    "ablation_budget [benchmark] [--instances N] [--relocks N] [--seed N]",
    CAMPAIGN_FLAGS,
]);

fn main() -> std::process::ExitCode {
    mlrl_bench::args::main(&CMD, run)
}

fn run(args: &Parsed, flags: &CampaignFlags) -> Result<(), String> {
    let benchmark = args.positional(0).unwrap_or("MD5").to_owned();
    let instances: usize = args.num("--instances", 2)?;
    let relocks: usize = args.num("--relocks", 30)?;
    let seed: u64 = args.num("--seed", 2022)?;

    let fractions = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5];
    eprintln!(
        "budget ablation on {benchmark}: {} fractions x 3 schemes x {instances} instances",
        fractions.len()
    );
    let spec = ablation_campaign(&benchmark, &fractions, instances, relocks, seed);
    let Some(reports) = run_campaigns(flags, std::slice::from_ref(&spec))? else {
        return Ok(()); // canonical / shard output already printed
    };
    let cells = kpa_cell_means(&reports[0].records, "snapshot");

    println!();
    println!("KPA (%) vs key-budget fraction on {benchmark} (random guess = 50)");
    print!("{:<10}", "scheme");
    for f in &fractions {
        print!("{f:>8.2}");
    }
    println!();
    for scheme in ["assure", "hra", "era"] {
        print!("{:<10}", scheme.to_ascii_uppercase());
        for f in &fractions {
            let kpa = cells
                .iter()
                .find(|c| c.scheme == scheme && (c.budget - f).abs() < 1e-9)
                .map(|c| c.kpa)
                .unwrap_or(f64::NAN);
            print!("{kpa:>8.1}");
        }
        println!();
    }
    println!();
    println!("Expected shape: ASSURE leaks at every budget; HRA's curve falls");
    println!("toward 50 only once the budget covers the total imbalance; ERA");
    println!("stays at the floor because it overruns the budget to balance.");
    Ok(())
}
