//! Criterion bench: simulation-core throughput in vectors/second.
//!
//! Tracks the cost of the two hot simulators across PRs: the RTL tape
//! (scalar `Simulator` and the 8-lane `BatchSimulator`) and the gate-level
//! `NetlistSimulator` across its word widths — `w1` (64 lanes), `w4`
//! (256 lanes), and `w8` (512 lanes). Each benchmark drives `VECTORS`
//! random input vectors through a full settle and folds every output
//! digest, so the measured time is per *training-set generation* unit of
//! work, directly comparable between the per-vector scalar path and every
//! batched width.
//!
//! Run with `--quick` for the CI smoke mode:
//! same vector count, a single sample — the workload size is kept so the
//! width ratios (and the committed baseline's scale) carry over.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mlrl_netlist::lower::lower_module;
use mlrl_netlist::sim::NetlistSimulator;
use mlrl_rtl::bench_designs::{benchmark_by_name, generate_with_width};
use mlrl_rtl::sim::{BatchSimulator, Simulator};

/// Vectors per measured iteration (full mode) — a multiple of 512 so
/// every width (64, 256, and 512 lanes) runs fully packed walks.
const VECTORS: usize = 512;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn vector_count() -> usize {
    VECTORS
}

fn sample_size() -> usize {
    if quick() {
        1
    } else {
        5
    }
}

/// Deterministic stimulus stream shared by every benchmark.
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

fn bench_rtl_settle(c: &mut Criterion) {
    let n = vector_count();
    let vectors = stimulus(n);
    let mut group = c.benchmark_group("sim_throughput/rtl");
    group.sample_size(sample_size());
    for name in ["FIR", "DES3"] {
        let spec = benchmark_by_name(name).expect("known benchmark");
        let module = generate_with_width(&spec, 42, 16);
        let inputs: Vec<String> = module
            .ports()
            .iter()
            .filter(|p| p.dir == mlrl_rtl::ast::PortDir::Input)
            .map(|p| p.name.clone())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("settle", format!("{name}/{n}vec")),
            &module,
            |b, m| {
                let mut sim = Simulator::new(m).expect("acyclic");
                b.iter(|| {
                    let mut acc = 0u64;
                    for (i, v) in vectors.iter().enumerate() {
                        for name in &inputs {
                            sim.set_input(name, v.wrapping_add(i as u64))
                                .expect("input");
                        }
                        sim.settle().expect("settles");
                        acc ^= sim.outputs_digest().expect("digest");
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

fn bench_gate_settle_scalar(c: &mut Criterion) {
    let n = vector_count();
    let vectors = stimulus(n);
    let mut group = c.benchmark_group("sim_throughput/gate_1lane");
    group.sample_size(sample_size());
    for name in ["FIR", "DES3"] {
        let spec = benchmark_by_name(name).expect("known benchmark");
        let module = generate_with_width(&spec, 42, 16);
        let mut netlist = lower_module(&module).expect("lowers");
        netlist.sweep();
        let inputs: Vec<String> = netlist.inputs().iter().map(|p| p.name.clone()).collect();
        group.bench_with_input(
            BenchmarkId::new("settle", format!("{name}/{n}vec")),
            &netlist,
            |b, nl| {
                let mut sim = NetlistSimulator::new(nl).expect("acyclic");
                b.iter(|| {
                    let mut acc = 0u64;
                    for (i, v) in vectors.iter().enumerate() {
                        for name in &inputs {
                            sim.set_input(name, v.wrapping_add(i as u64))
                                .expect("input");
                        }
                        sim.settle().expect("settles");
                        acc ^= sim.outputs_digest().expect("digest");
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

fn bench_rtl_settle_v8(c: &mut Criterion) {
    let n = vector_count();
    let vectors = stimulus(n);
    let mut group = c.benchmark_group("sim_throughput/rtl_v8");
    group.sample_size(sample_size());
    for name in ["FIR", "DES3"] {
        let spec = benchmark_by_name(name).expect("known benchmark");
        let module = generate_with_width(&spec, 42, 16);
        let inputs: Vec<String> = module
            .ports()
            .iter()
            .filter(|p| p.dir == mlrl_rtl::ast::PortDir::Input)
            .map(|p| p.name.clone())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("settle", format!("{name}/{n}vec")),
            &module,
            |b, m| {
                let mut sim = BatchSimulator::<8>::new(m).expect("acyclic");
                let stim: Vec<u64> = (0..n).map(|l| vectors[l].wrapping_add(l as u64)).collect();
                b.iter(|| {
                    // Same per-vector stimulus as the scalar RTL bench,
                    // eight vectors per tape walk.
                    let mut acc = 0u64;
                    let mut done = 0usize;
                    while done < n {
                        let lanes = (n - done).min(8);
                        for name in &inputs {
                            sim.set_input_batch(name, &stim[done..done + lanes])
                                .expect("input");
                        }
                        sim.settle().expect("settles");
                        for lane in 0..lanes {
                            acc ^= sim.outputs_digest_lane(lane).expect("digest");
                        }
                        done += lanes;
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

fn bench_gate_settle_wide<const W: usize>(c: &mut Criterion) {
    let n = vector_count();
    let vectors = stimulus(n);
    let mut group = c.benchmark_group(format!("sim_throughput/gate_w{W}"));
    group.sample_size(sample_size());
    for name in ["FIR", "DES3"] {
        let spec = benchmark_by_name(name).expect("known benchmark");
        let module = generate_with_width(&spec, 42, 16);
        let mut netlist = lower_module(&module).expect("lowers");
        netlist.sweep();
        let inputs: Vec<String> = netlist.inputs().iter().map(|p| p.name.clone()).collect();
        group.bench_with_input(
            BenchmarkId::new("settle", format!("{name}/{n}vec")),
            &netlist,
            |b, nl| {
                let mut sim = NetlistSimulator::<W>::with_width(nl).expect("acyclic");
                let cap = NetlistSimulator::<W>::LANES;
                let stim: Vec<u64> = (0..n).map(|l| vectors[l].wrapping_add(l as u64)).collect();
                b.iter(|| {
                    // Same per-vector stimulus as the 1-lane bench,
                    // `64 * W` vectors per levelized walk.
                    let mut acc = 0u64;
                    let mut done = 0usize;
                    while done < n {
                        let lanes = (n - done).min(cap);
                        for name in &inputs {
                            sim.set_input_batch(name, &stim[done..done + lanes])
                                .expect("input");
                        }
                        sim.settle().expect("settles");
                        for d in sim.outputs_digest_batch(lanes).expect("digest") {
                            acc ^= d;
                        }
                        done += lanes;
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

fn bench_gate_settle_w1(c: &mut Criterion) {
    bench_gate_settle_wide::<1>(c);
}

fn bench_gate_settle_w4(c: &mut Criterion) {
    bench_gate_settle_wide::<4>(c);
}

fn bench_gate_settle_w8(c: &mut Criterion) {
    bench_gate_settle_wide::<8>(c);
}

criterion_group!(
    benches,
    bench_rtl_settle,
    bench_rtl_settle_v8,
    bench_gate_settle_scalar,
    bench_gate_settle_w1,
    bench_gate_settle_w4,
    bench_gate_settle_w8
);
criterion_main!(benches);
