//! Regenerates Fig. 4: the impact of operation selection on learning
//! resilience, as observation pools over the all-`+` network.
//!
//! A thin printer over `mlrl_engine`: the three scenarios run as one
//! campaign of observation cells
//! (`mlrl_engine::drivers::fig4_campaign`), one selection scheme per
//! scenario.
//!
//! Usage: `cargo run --release -p mlrl-bench --bin fig4_observations -- <CMD flags>`.

use mlrl_attack::observations::ObservationPool;
use mlrl_bench::args::run_campaigns;
use mlrl_engine::cli::{CampaignFlags, Command, Parsed, CAMPAIGN_FLAGS};
use mlrl_engine::drivers::fig4_campaign;

/// The Fig. 4 sub-figure each selection scheme reproduces.
fn scenario_label(scheme: &str) -> &'static str {
    match scheme {
        "assure" => "serial locking (Fig 4b)",
        "assure-random" => "random locking (Fig 4c)",
        "assure-disjoint" => "random locking, no overlap (Fig 4d)",
        _ => "?",
    }
}

const CMD: Command = Command(&["fig4_observations [n_ops] [rounds] [seed]", CAMPAIGN_FLAGS]);

fn main() -> std::process::ExitCode {
    mlrl_bench::args::main(&CMD, run)
}

fn run(args: &Parsed, flags: &CampaignFlags) -> Result<(), String> {
    let n_ops: usize = args.positional_num(0, 128)?;
    let rounds: usize = args.positional_num(1, 20)?;
    let seed: u64 = args.positional_num(2, 2022)?;

    let spec = fig4_campaign(n_ops, rounds, seed);
    let Some(reports) = run_campaigns(flags, std::slice::from_ref(&spec))? else {
        return Ok(()); // canonical / shard output already printed
    };
    let report = &reports[0];

    println!("Fig. 4 — operation selection vs. learning resilience (via mlrl-engine)");
    println!("+-network of {n_ops} ops, 50% key budget, {rounds} training relocks, seed {seed}");
    println!();
    println!(
        "{:<38} {:>10} {:>10} {:>10}  inference",
        "scenario", "+ real", "- real", "P(+ real)"
    );
    for r in &report.records {
        let (Some(plus_real), Some(minus_real)) = (r.obs_plus, r.obs_minus) else {
            continue;
        };
        // Rebuilt only for `p_plus_real`/`inference`, which ignore the
        // scenario tag — the row's real scenario is in `r.scheme`.
        let pool = ObservationPool {
            scenario: mlrl_attack::observations::Scenario::SerialSerial,
            plus_real,
            minus_real,
        };
        println!(
            "{:<38} {plus_real:>10} {minus_real:>10} {:>10.3}  {}",
            scenario_label(&r.scheme),
            pool.p_plus_real(),
            pool.inference()
        );
    }
    println!();
    println!("Paper (Fig. 4e-4g): serial => confusing observations; random =>");
    println!("'+ mostly correct'; no-overlap => '+ always correct'.");
    Ok(())
}
