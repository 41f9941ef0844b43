//! Shared campaign front end of the `mlrl-bench` binaries.
//!
//! Each binary declares its flags in one `mlrl_engine::cli::Command`
//! table (its own flags plus `CAMPAIGN_FLAGS`) and hands it to [`main`],
//! which parses argv with `mlrl_engine::cli`, the parser `mlrl` uses: an
//! unknown flag, a value flag without a value and an unparsable number
//! exit 1 before any work starts.
//!
//! [`run_campaigns`] applies the shared campaign flags and routes
//! `--canonical` / `--shard I/N` runs to the canonical JSON-lines stream
//! (shard outputs concatenate per campaign, ready for `mlrl merge`).

use mlrl_engine::cli::{run_main, CampaignFlags, Command, Parsed};
use mlrl_engine::{CampaignReport, CampaignSpec};

/// Runs a driver's campaigns, honouring the shared campaign flags.
///
/// - `--threads N` overrides every spec's worker count;
/// - `--opt-level o0|o1|o2` overrides every spec's netlist optimizer
///   level (gate-level cells only — RTL cells never lower);
/// - `--canonical` prints each campaign's canonical JSON-lines report to
///   stdout instead of returning reports;
/// - `--shard I/N` runs only that deterministic partition of each
///   campaign and implies canonical output (concatenate one such stream
///   per shard with `mlrl merge` to rebuild the unsharded bytes);
/// - `--trace-out FILE` / `--metrics-out FILE` enable run telemetry and
///   export a Chrome trace / metrics rollup after the campaigns finish.
///   Telemetry is a pure side channel: canonical bytes never change;
/// - `--trace-sample N` keeps 1-in-N hot-class trace spans (phase and
///   cell spans always kept; aggregate stats stay exact).
///
/// Returns `Ok(None)` when canonical/shard output was printed (the
/// binary is done), or `Ok(Some(reports))` — one per spec, failures
/// already warned to stderr — for the driver's table printer.
///
/// # Errors
///
/// Returns a message on an unwritable telemetry output path.
pub fn run_campaigns(
    flags: &CampaignFlags,
    specs: &[CampaignSpec],
) -> Result<Option<Vec<CampaignReport>>, String> {
    flags.telemetry.arm();
    let canonical = flags.shard.is_some() || flags.canonical;
    let mut reports = Vec::new();
    for spec in specs.iter().map(|spec| flags.apply(spec)) {
        if canonical {
            print!(
                "{}",
                flags.engine.run_shard(&spec, flags.shard).canonical_jsonl()
            );
            continue;
        }
        let report = flags.engine.run(&spec);
        if report.failed_count() > 0 {
            eprintln!("warning: {}", report.summary());
        }
        reports.push(report);
    }
    flags.telemetry.write(None)?;
    Ok((!canonical).then_some(reports))
}

/// A binary's `main`: checks argv against `cmd`, reads the shared
/// campaign flags and calls `run` under [`run_main`], so any error prints
/// `error: <message>` and exits 1, and a closed stdout ends quietly.
pub fn main(
    cmd: &Command,
    run: fn(&Parsed, &CampaignFlags) -> Result<(), String>,
) -> std::process::ExitCode {
    run_main(|| {
        let args = cmd.parse(std::env::args().skip(1))?;
        run(&args, &CampaignFlags::parse(&args)?)
    })
}
