//! Regenerates Fig. 5: (a) the `M_g_sec` search-space surface for the §4.4
//! working example (`|ODT[(+,-)]| = 25`, `|ODT[(<<,>>)]| = 10`) and (b) the
//! metric evolution of ERA, HRA and Greedy across key bits.
//!
//! Fully on `mlrl-engine`: the Fig. 5b lock runs execute as two campaigns
//! (`fig5_campaign` / `fig5_hra_campaign`, `trace = true`) whose cells
//! serialize the per-bit metric trajectory into their canonical records —
//! the curves below are read straight off `JobRecord::trace`, with no
//! direct lock runs left in this binary. The surface (5a) stays a direct
//! metric evaluation — it locks nothing.
//!
//! Usage: `cargo run --release -p mlrl-bench --bin fig5_metric -- <CMD flags>`.
//! Pass `--csv` to dump the raw surface grid as CSV instead of the
//! summary; `--canonical`/`--shard` emit the 5b campaigns' canonical
//! stream only (the surface is not campaign-shaped).

use mlrl_bench::args::run_campaigns;
use mlrl_bench::experiments::fig5_surface;
use mlrl_engine::cli::{CampaignFlags, Command, Parsed, CAMPAIGN_FLAGS};
use mlrl_engine::drivers::{fig5_campaign, fig5_hra_campaign};
use mlrl_engine::JobRecord;

const CMD: Command = Command(&["fig5_metric [seed] [--csv]", CAMPAIGN_FLAGS]);

fn main() -> std::process::ExitCode {
    mlrl_bench::args::main(&CMD, run)
}

fn run(args: &Parsed, flags: &CampaignFlags) -> Result<(), String> {
    let seed: u64 = args.positional_num(0, 2022)?;

    if args.has("--csv") {
        // Surface dump only: locks nothing, so skip the 5b campaigns.
        println!("x_add_sub,y_shl_shr,m_g_sec");
        for (x, y, m) in &fig5_surface(seed) {
            println!("{x},{y},{m:.4}");
        }
        return Ok(());
    }

    // Fig. 5b through the engine: one campaign per budget regime.
    let specs = [fig5_campaign(seed), fig5_hra_campaign(seed)];
    let Some(reports) = run_campaigns(flags, &specs)? else {
        return Ok(()); // canonical / shard output already printed
    };
    let records: Vec<JobRecord> = reports.into_iter().flat_map(|r| r.records).collect();

    let surface = fig5_surface(seed);

    println!("Fig. 5a — M_g_sec surface, |ODT[(+,-)]|=25, |ODT[(<<,>>)]|=10 (seed {seed})");
    println!("(rows: (<<,>>) imbalance 10..0; cols: (+,-) imbalance 25..0, step 5)");
    println!();
    print!("{:>6}", "y\\x");
    for x in (0..=25u64).rev().step_by(5) {
        print!("{x:>8}");
    }
    println!();
    for y in (0..=10u64).rev().step_by(2) {
        print!("{y:>6}");
        for x in (0..=25u64).rev().step_by(5) {
            let m = surface
                .iter()
                .find(|(sx, sy, _)| *sx == x && *sy == y)
                .map(|(_, _, m)| *m)
                .unwrap_or(f64::NAN);
            print!("{m:>8.1}");
        }
        println!();
    }

    println!();
    println!("Fig. 5b — metric evolution per key bit (campaign cells, trace = true)");
    println!(
        "{:<12} {:>10} {:>14} {:>16}",
        "algo", "key bits", "bits to 100", "final M_g_sec"
    );
    for r in &records {
        let bits_to_100 = r
            .bits_to_balance
            .map(|n| n.to_string())
            .unwrap_or_else(|| "-".to_owned());
        let final_m = r.metric.unwrap_or(f64::NAN);
        let bits = r
            .key_bits
            .map(|n| n.to_string())
            .unwrap_or_else(|| "-".to_owned());
        println!(
            "{:<12} {bits:>10} {bits_to_100:>14} {final_m:>16.2}",
            r.scheme
        );
    }
    // The curves themselves (what Fig. 5b actually plots), deserialized
    // from the very records the table above summarizes.
    println!();
    println!("Trajectory samples (bits: M_g_sec):");
    for r in &records {
        let Some(trace) = &r.trace else { continue };
        let samples: Vec<String> = trace
            .iter()
            .step_by((trace.len() / 10).max(1))
            .map(|(n, m)| format!("{n}:{m:.0}"))
            .collect();
        println!("  {:<10} {}", r.scheme, samples.join("  "));
    }
    println!();
    println!("Paper: ERA jumps along the surface edges; Greedy takes the steepest");
    println!("path and reaches 100 with the fewest bits; HRA detours randomly to");
    println!("thwart reversibility.");
    Ok(())
}
