//! Criterion microbenchmark: scalar vs runtime-dispatched SIMD for each
//! explicit kernel (Ψ-filter admit, three-way partition with id-lane
//! permutation), at three buffer sizes spanning L1 to
//! L3-resident lanes. `figures kernels` records the acceptance numbers;
//! this bench is for interactive tuning of the intrinsics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qmax_select::Kernel;
use qmax_traces::gen::random_u64_stream;

const SIZES: [usize; 3] = [1_024, 16_384, 262_144];

/// Heavy-tailed value lane plus a distinct id lane.
fn lanes(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let vals: Vec<u64> = random_u64_stream(n, seed).map(|r| r >> (r % 48)).collect();
    let ids: Vec<u64> = (0..n as u64).collect();
    (vals, ids)
}

fn kernel_pair() -> [(&'static str, Kernel<u64>); 2] {
    [("scalar", Kernel::scalar()), ("dispatch", Kernel::detect())]
}

fn bench_admit(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/admit");
    for n in SIZES {
        let (vals, ids) = lanes(n, 3);
        let items: Vec<(u64, u64)> = ids.iter().copied().zip(vals.iter().copied()).collect();
        let mut probe = vals.clone();
        let threshold = *qmax_select::nth_smallest(&mut probe, n / 2);
        let mut out_v = vec![0u64; n];
        let mut out_i = vec![0u64; n];
        group.throughput(Throughput::Elements(n as u64));
        for (label, k) in kernel_pair() {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| k.admit_pairs(&items, Some(threshold), &mut out_v, &mut out_i, 0, n))
            });
        }
    }
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/partition3_desc");
    for n in SIZES {
        let (vals, ids) = lanes(n, 5);
        let mut probe = vals.clone();
        let pivot = *qmax_select::nth_smallest(&mut probe, n / 2);
        let mut out_v = vec![0u64; n];
        let mut out_i = vec![0u64; n];
        group.throughput(Throughput::Elements(n as u64));
        for (label, k) in kernel_pair() {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| k.partition3_desc(&vals, &ids, pivot, &mut out_v, &mut out_i))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_admit, bench_partition);
criterion_main!(benches);
