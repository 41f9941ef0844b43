//! Regenerates the Fig. 1 motivation quantitatively: ML-driven structural
//! attacks break traditional gate-level locking, while ML-resilient RTL
//! locking (ERA) holds the line — same designs, same key-bit counts, same
//! auto-ml stack at both abstraction levels.
//!
//! A thin printer over `mlrl_engine`: the sweep runs as two campaigns
//! (gate-level XOR/XNOR + MUX, RTL ASSURE + ERA) on one engine, so the
//! cells run in parallel, share base designs and lowered netlists through
//! the artifact cache, and reproduce byte-identically from the grid.
//! The engine's gate cells attack the *scan view* (state exposed as
//! pseudo-I/O) — immaterial to the oracle-less structural attacker, which
//! never simulates, but the `gates` column counts the scan-view netlist.
//!
//! Usage: `cargo run --release -p mlrl-bench --bin fig1_gate_vs_rtl -- <CMD flags>`.

use mlrl_bench::args::run_campaigns;
use mlrl_engine::cli::{CampaignFlags, Command, Parsed, CAMPAIGN_FLAGS};
use mlrl_engine::drivers::fig1_campaigns;
use mlrl_engine::JobRecord;

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean KPA of one benchmark × scheme column across instance seeds.
fn kpa_of(records: &[JobRecord], benchmark: &str, scheme: &str) -> f64 {
    let kpas: Vec<f64> = records
        .iter()
        .filter(|r| r.benchmark == benchmark && r.scheme == scheme)
        .filter_map(|r| r.kpa)
        .collect();
    mean(&kpas)
}

const CMD: Command = Command(&[
    "fig1_gate_vs_rtl [--benchmarks a,b,c] [--instances N] [--seed N] [--csv]",
    CAMPAIGN_FLAGS,
]);

fn main() -> std::process::ExitCode {
    mlrl_bench::args::main(&CMD, run)
}

fn run(args: &Parsed, flags: &CampaignFlags) -> Result<(), String> {
    let benchmarks: Vec<String> = args.list("--benchmarks").unwrap_or_else(|| {
        vec![
            "DES3".into(),
            "MD5".into(),
            "SASC".into(),
            "SIM_SPI".into(),
            "USB_PHY".into(),
            "I2C_SL".into(),
        ]
    });
    let instances: usize = args.num("--instances", 3)?;
    let seed: u64 = args.num("--seed", 2022)?;
    let csv = args.has("--csv");

    let (gate_spec, rtl_spec) = fig1_campaigns(&benchmarks, instances, seed);
    let Some(reports) = run_campaigns(flags, &[gate_spec, rtl_spec])? else {
        return Ok(()); // canonical / shard output already printed
    };
    let (gate, rtl) = (&reports[0], &reports[1]);

    println!("Fig. 1 — structural ML attacks: gate level vs RTL (seed {seed})");
    println!("Key budget: 75% of operations at both levels; {instances} instance(s) per cell.");
    println!();
    if csv {
        println!(
            "benchmark,key_bits,gates,kpa_gate_xorxnor,kpa_gate_mux,kpa_rtl_assure,kpa_rtl_era"
        );
    } else {
        println!(
            "{:<10} {:>8} {:>8} | {:>14} {:>10} | {:>11} {:>8}",
            "benchmark", "key bits", "gates", "gate XOR/XNOR", "gate MUX", "RTL ASSURE", "RTL ERA"
        );
    }
    for benchmark in &benchmarks {
        let shape = gate
            .records
            .iter()
            .find(|r| r.benchmark == *benchmark && r.scheme == "xor-xnor");
        let key_bits = shape.and_then(|r| r.key_bits).unwrap_or(0);
        // Unlocked size, recovered from the locked gate count and the
        // exact area factor.
        let gates = shape
            .and_then(|r| Some(r.gates? as f64 / r.area_overhead?))
            .map(|g| g.round() as usize)
            .unwrap_or(0);
        let kpa_gate_xor = kpa_of(&gate.records, benchmark, "xor-xnor");
        let kpa_gate_mux = kpa_of(&gate.records, benchmark, "mux");
        let kpa_rtl_assure = kpa_of(&rtl.records, benchmark, "assure");
        let kpa_rtl_era = kpa_of(&rtl.records, benchmark, "era");
        if csv {
            println!(
                "{benchmark},{key_bits},{gates},{kpa_gate_xor:.2},{kpa_gate_mux:.2},{kpa_rtl_assure:.2},{kpa_rtl_era:.2}"
            );
        } else {
            println!(
                "{:<10} {:>8} {:>8} | {:>13.1}% {:>9.1}% | {:>10.1}% {:>7.1}%",
                benchmark, key_bits, gates, kpa_gate_xor, kpa_gate_mux, kpa_rtl_assure, kpa_rtl_era
            );
        }
    }
    if !csv {
        println!();
        println!("Expected shape: gate-level XOR/XNOR ≈ 100% KPA (cell type leaks the bit),");
        println!("RTL serial ASSURE well above chance, ERA ≈ 50% (random guess).");
        println!("({} + {})", gate.summary(), rtl.summary());
    }
    Ok(())
}
