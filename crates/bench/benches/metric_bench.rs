//! Criterion benches for the ODT + security metric — the inner loop of HRA
//! (Fig. 5 machinery): census loads, metric evaluation and the tentative
//! lock/undo cycle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlrl_locking::key::Key;
use mlrl_locking::lock_step::{lock_type, undo_lock, OpSites};
use mlrl_locking::metric::SecurityMetric;
use mlrl_locking::odt::Odt;
use mlrl_locking::pairs::PairTable;
use mlrl_rtl::bench_designs::{benchmark_by_name, generate};
use mlrl_rtl::op::BinaryOp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_metric(c: &mut Criterion) {
    let mut group = c.benchmark_group("metric");
    for name in ["IIR", "SHA256", "N_2046"] {
        let spec = benchmark_by_name(name).expect("benchmark");
        let module = generate(&spec, 1);

        group.bench_with_input(BenchmarkId::new("odt-load", name), &module, |b, m| {
            b.iter(|| black_box(Odt::load(m, PairTable::fixed())))
        });

        let odt = Odt::load(&module, PairTable::fixed());
        let metric = SecurityMetric::new(&odt);
        group.bench_with_input(BenchmarkId::new("metric-eval", name), &odt, |b, odt| {
            b.iter(|| black_box(metric.global(odt)))
        });
    }

    // The HRA inner step: tentative lock + metric + undo.
    let spec = benchmark_by_name("MD5").expect("benchmark");
    let module = generate(&spec, 1);
    group.bench_function("tentative-lock-undo/MD5", |b| {
        let mut m = module.clone();
        let mut odt = Odt::load(&m, PairTable::fixed());
        let mut sites = OpSites::build(&m);
        let metric = SecurityMetric::new(&odt);
        let mut key = Key::new();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let (_, txn) = lock_type(
                BinaryOp::Add,
                &mut odt,
                &mut m,
                &mut sites,
                &mut key,
                false,
                &mut rng,
            )
            .unwrap();
            black_box(metric.global(&odt));
            undo_lock(txn, &mut m, &mut sites, &mut key, &mut odt).unwrap();
        })
    });
    group.finish();
}

criterion_group!(benches, bench_metric);
criterion_main!(benches);
