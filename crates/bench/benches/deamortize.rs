//! Criterion microbenchmark: the de-amortization machinery — full
//! selection vs the suspendable machine, and the per-step overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qmax_select::{nth_smallest, Direction, NthElementMachine};
use qmax_traces::gen::random_u64_stream;

fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    group.sample_size(20);
    for n in [100_000usize, 1_000_000] {
        let data: Vec<u64> = random_u64_stream(n, 3).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("std_select", n), &n, |b, &n| {
            b.iter(|| {
                let mut buf = data.clone();
                *nth_smallest(&mut buf, n / 2)
            })
        });
        group.bench_with_input(BenchmarkId::new("machine_budget64", n), &n, |b, &n| {
            b.iter(|| {
                let mut buf = data.clone();
                let mut m = NthElementMachine::new(0, n, n / 2, Direction::Ascending);
                while m.step(&mut buf, 64) == qmax_select::MachineStatus::InProgress {}
                m.result_index().unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("machine_run", n), &n, |b, &n| {
            b.iter(|| {
                let mut buf = data.clone();
                let mut m = NthElementMachine::new(0, n, n / 2, Direction::Ascending);
                m.run_to_completion(&mut buf)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_select);
criterion_main!(benches);
