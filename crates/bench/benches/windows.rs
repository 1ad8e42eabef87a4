//! Criterion microbenchmark: slack-window variants (update and query
//! costs behind Figures 10-11), with each variant measured on both the
//! array-of-structs and structure-of-arrays block backends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qmax_core::{
    BasicSlackQMax, BatchInsert, HierSlackQMax, LazySlackQMax, QMax, SoaAmortizedQMax,
};
use qmax_traces::gen::random_u64_stream;

fn bench_window_updates(c: &mut Criterion) {
    let n = 1_000_000;
    let stream: Vec<u64> = random_u64_stream(n, 4).collect();
    let q = 1_000;
    let w = 200_000;
    let tau = 0.01;
    let mut group = c.benchmark_group("window_update");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    group.bench_function("basic", |b| {
        b.iter(|| {
            let mut sw = BasicSlackQMax::new(q, 0.25, w, tau);
            for (i, &v) in stream.iter().enumerate() {
                sw.insert(i as u32, v);
            }
            sw.len()
        })
    });
    group.bench_function("hier_c2", |b| {
        b.iter(|| {
            let mut sw = HierSlackQMax::new(q, 0.25, w, tau, 2);
            for (i, &v) in stream.iter().enumerate() {
                sw.insert(i as u32, v);
            }
            sw.len()
        })
    });
    group.bench_function("lazy_c2", |b| {
        b.iter(|| {
            let mut sw = LazySlackQMax::new(q, 0.25, w, tau, 2);
            for (i, &v) in stream.iter().enumerate() {
                sw.insert(i as u32, v);
            }
            sw.len()
        })
    });
    // SoA backends take the same stream through the batched kernel —
    // the configuration the engine's shard loop uses.
    let items: Vec<(u64, u64)> = stream
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u64, v))
        .collect();
    group.bench_function("basic_soa_batch", |b| {
        b.iter(|| {
            let mut sw = BasicSlackQMax::with_backend(w, tau, SoaAmortizedQMax::new(q, 0.25));
            for chunk in items.chunks(1024) {
                sw.insert_batch(chunk);
            }
            sw.len()
        })
    });
    group.bench_function("hier_c2_soa_batch", |b| {
        b.iter(|| {
            let mut sw = HierSlackQMax::with_backend(w, tau, 2, SoaAmortizedQMax::new(q, 0.25));
            for chunk in items.chunks(1024) {
                sw.insert_batch(chunk);
            }
            sw.len()
        })
    });
    group.bench_function("lazy_c2_soa_batch", |b| {
        b.iter(|| {
            let mut sw = LazySlackQMax::with_backend(w, tau, 2, SoaAmortizedQMax::new(q, 0.25));
            for chunk in items.chunks(1024) {
                sw.insert_batch(chunk);
            }
            sw.len()
        })
    });
    group.finish();
}

fn bench_window_queries(c: &mut Criterion) {
    let n = 500_000;
    let stream: Vec<u64> = random_u64_stream(n, 5).collect();
    let q = 1_000;
    let w = 200_000;
    let mut group = c.benchmark_group("window_query");
    group.sample_size(20);
    for tau in [0.01, 0.001] {
        let mut basic = BasicSlackQMax::new(q, 0.25, w, tau);
        let mut hier = HierSlackQMax::new(q, 0.25, w, tau, 2);
        for (i, &v) in stream.iter().enumerate() {
            basic.insert(i as u32, v);
            hier.insert(i as u32, v);
        }
        group.bench_with_input(BenchmarkId::new("basic", tau), &tau, |b, _| {
            b.iter(|| basic.query().len())
        });
        group.bench_with_input(BenchmarkId::new("hier_c2", tau), &tau, |b, _| {
            b.iter(|| hier.query().len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_window_updates, bench_window_queries);
criterion_main!(benches);
