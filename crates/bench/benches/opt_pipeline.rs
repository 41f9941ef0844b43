//! Criterion bench: the optimization pass pipeline — what it costs and
//! what it buys.
//!
//! Three measurements per design:
//!
//! - `optimize`: wall time of one full `optimize(n, O2)` fixed-point run
//!   over the lowered netlist (the price paid once per synthesis, then
//!   amortized through the artifact cache);
//! - `settle_raw` / `settle_o2`: the same stimulus stream settled through
//!   the unoptimized and the `O2` netlist — the downstream simulation
//!   payoff (training-set generation, corruptibility sweeps);
//! - `sat_raw` / `sat_o2`: a full oracle-guided SAT attack on an
//!   XOR/XNOR-locked instance of each netlist — smaller Tseitin
//!   encodings mean faster miter solving.
//!
//! Gate-count reductions are printed once per design on stderr (they are
//! properties, not timings — the committed regression floor lives in
//! `tests/netlist_props.rs`).
//!
//! Run with `--quick` for the CI smoke mode:
//! one sample per benchmark, same workload shape.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mlrl_netlist::lock::xor_xnor_lock;
use mlrl_netlist::lower::lower_module;
use mlrl_netlist::opt::{optimize, OptLevel};
use mlrl_netlist::sim::NetlistSimulator;
use mlrl_netlist::Netlist;
use mlrl_rtl::bench_designs::{benchmark_by_name, generate_with_width};
use mlrl_sat::attack::{sat_attack_with_sim_oracle, SatAttackConfig};

/// Designs spanning the headroom spectrum: control-heavy `USB_PHY`
/// (~30-44% reduction), mid-range `SASC`, and arithmetic-dominated
/// `DES3` (near zero — the lowering's eager folding already got it).
const DESIGNS: &[&str] = &["USB_PHY", "SASC", "DES3"];

/// Vectors per measured settle iteration.
const VECTORS: usize = 256;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn sample_size() -> usize {
    if quick() {
        1
    } else {
        5
    }
}

/// Lowered scan-view netlist of a paper design at width 8.
fn lowered(name: &str) -> Netlist {
    let spec = benchmark_by_name(name).expect("known benchmark");
    let module = generate_with_width(&spec, 42, 8);
    let mut netlist = lower_module(&module).expect("lowers").to_scan_view();
    netlist.sweep();
    netlist
}

/// Deterministic stimulus stream shared by every settle benchmark.
fn stimulus(n: usize) -> Vec<u64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

fn bench_optimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt_pipeline/optimize");
    group.sample_size(sample_size());
    for name in DESIGNS {
        let raw = lowered(name);
        let mut probe = raw.clone();
        let stats = optimize(&mut probe, OptLevel::O2);
        eprintln!(
            "opt_pipeline: {name} O2 {} -> {} gates ({:.1}% removed, {} rounds)",
            stats.gates_before,
            stats.gates_after,
            100.0 * stats.reduction(),
            stats.iterations
        );
        group.bench_with_input(BenchmarkId::new("o2", *name), &raw, |b, raw| {
            b.iter(|| {
                let mut n = raw.clone();
                black_box(optimize(&mut n, OptLevel::O2).removed())
            })
        });
    }
    group.finish();
}

fn settle_stream(sim: &mut NetlistSimulator, inputs: &[String], vectors: &[u64]) -> u64 {
    let mut acc = 0u64;
    for (i, v) in vectors.iter().enumerate() {
        for name in inputs {
            sim.set_input(name, v.wrapping_add(i as u64))
                .expect("input");
        }
        sim.settle().expect("settles");
        acc ^= sim.outputs_digest().expect("digest");
    }
    acc
}

fn bench_settle(c: &mut Criterion) {
    let vectors = stimulus(VECTORS);
    let mut group = c.benchmark_group("opt_pipeline/settle");
    group.sample_size(sample_size());
    for name in DESIGNS {
        let raw = lowered(name);
        let mut opt = raw.clone();
        optimize(&mut opt, OptLevel::O2);
        let inputs: Vec<String> = raw.inputs().iter().map(|p| p.name.clone()).collect();
        for (label, netlist) in [("settle_raw", &raw), ("settle_o2", &opt)] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("{name}/{VECTORS}vec")),
                netlist,
                |b, nl| {
                    let mut sim = NetlistSimulator::new(nl).expect("acyclic");
                    b.iter(|| black_box(settle_stream(&mut sim, &inputs, &vectors)))
                },
            );
        }
    }
    group.finish();
}

fn bench_sat(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt_pipeline/sat");
    group.sample_size(sample_size());
    // One control-heavy design keeps the SAT leg affordable in CI while
    // still exercising the full lock → encode → attack path both ways.
    for name in ["USB_PHY"] {
        // Lock once, then optimize the locked instance: both attacks face
        // the same key semantics, so the delta is purely encoding size
        // (the optimizer treats key bits as free inputs and preserves the
        // function under every assignment).
        let mut locked_raw = lowered(name);
        let key = xor_xnor_lock(&mut locked_raw, 16, 7).expect("lockable");
        let mut locked_o2 = locked_raw.clone();
        optimize(&mut locked_o2, OptLevel::O2);
        for (label, locked) in [("sat_raw", &locked_raw), ("sat_o2", &locked_o2)] {
            group.bench_with_input(
                BenchmarkId::new(label, name),
                &(locked.clone(), key.clone()),
                |b, (locked, key)| {
                    b.iter(|| {
                        let (report, ok) = sat_attack_with_sim_oracle(
                            locked,
                            key.bits(),
                            &SatAttackConfig::default(),
                        )
                        .expect("attack converges");
                        assert!(report.proved && ok);
                        black_box(report.dips)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_optimize, bench_settle, bench_sat);
criterion_main!(benches);
