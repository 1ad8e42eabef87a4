//! Sharded-engine scaling sweep (the engine-crate counterpart of the
//! paper's per-PMD deployment, Section 6.6).
//!
//! For each trace and shard count this times (a) the single-threaded
//! batched insert path and (b) the multi-threaded driver, and reports
//! millions of inserts per second plus the driver's load balance. On a
//! single hardware core the threaded numbers measure coordination
//! overhead rather than speedup; the CSV records whatever the machine
//! actually delivers.

use crate::scale::Scale;
use crate::{fmt, mpps, Report};
use qmax_engine::{DriverConfig, QMax, ShardedQMax};
use qmax_traces::gen::{caida_like, random_u64_stream};
use qmax_traces::zipf::ZipfSampler;
use std::time::Instant;

const BATCH: usize = 1024;

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut flows = ZipfSampler::new(1_000_000, 1.0, seed);
    random_u64_stream(n, seed ^ 0x5EED)
        .map(|v| (flows.sample() as u64, v))
        .collect()
}

fn caida_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    caida_like(n, seed)
        .map(|p| (p.flow().as_u64(), p.len as u64))
        .collect()
}

fn sorted_values(engine: &mut ShardedQMax<u64, u64>) -> Vec<u64> {
    let mut v: Vec<u64> = engine.query().into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

/// Sweeps shard count ∈ {1, 2, 4, 8} on Zipf and CAIDA-like streams,
/// mirroring the series as `results/sharded_scaling.csv`.
/// `admitted_per_item` is the share of the batched path's inserts that
/// got past the engine's shared admission bound and a shard's Ψ — the
/// admitted work sharding multiplies. The threaded
/// driver (`run_threaded`, one producer, one SPSC ring per shard) must
/// rebuild the same reservoir as the single-threaded batched path —
/// asserted per row.
pub fn sharded_scaling(scale: &Scale) {
    println!("# Sharded engine: insert throughput vs shard count (q=10^4, gamma=0.25)");
    let n = scale.stream(2_000_000);
    let q = 10_000;
    let traces = [("zipf", zipf_stream(n, 7)), ("caida", caida_stream(n, 9))];
    let mut rep = Report::new(
        "sharded_scaling",
        &[
            "trace",
            "shards",
            "batch_mips",
            "threaded_mips",
            "load_factor",
            "admitted_per_item",
        ],
    );
    for (name, items) in &traces {
        for shards in [1usize, 2, 4, 8] {
            let mut batched: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            let mut admitted = 0usize;
            let start = Instant::now();
            for chunk in items.chunks(BATCH) {
                admitted += batched.insert_batch(chunk);
            }
            let batch_mips = mpps(items.len(), start.elapsed());
            let reference = sorted_values(&mut batched);
            let mut threaded: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            let report = threaded.run_threaded(items.iter().copied(), DriverConfig::default());
            assert_eq!(
                sorted_values(&mut threaded),
                reference,
                "batched and threaded paths diverged on {name}"
            );
            rep.row(&[
                name.to_string(),
                shards.to_string(),
                fmt(batch_mips),
                fmt(report.throughput_mips()),
                fmt(report.max_load_factor()),
                format!("{:.4}", admitted as f64 / items.len() as f64),
            ]);
        }
    }
}
