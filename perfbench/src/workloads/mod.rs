//! The four workloads. Each puts one engine layer on the hot path and
//! bypasses the layers the others stress; see `perfbench/README.md`.

pub mod driver;
pub mod lrfu;
pub mod sharded;
pub mod window;

use crate::common::{Outcome, BATCH};
use qmax_traces::hash;
use qmax_traces::rng::SplitMix64;
use qmax_traces::zipf::ZipfSampler;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ShardedZipf,
    WindowZipf,
    DriverCaida,
    LrfuArc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ShardedZipf,
        Workload::WindowZipf,
        Workload::DriverCaida,
        Workload::LrfuArc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ShardedZipf => "sharded-zipf",
            Workload::WindowZipf => "window-zipf",
            Workload::DriverCaida => "driver-caida",
            Workload::LrfuArc => "lrfu-arc",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Shrinks every input and structure, for the smoke test.
    pub tiny: bool,
}

pub fn run(w: Workload, ctx: &Ctx, trace: bool) -> Outcome {
    match w {
        Workload::ShardedZipf => sharded::run(ctx, trace),
        Workload::WindowZipf => window::run(ctx, trace),
        Workload::DriverCaida => driver::run(ctx, trace),
        Workload::LrfuArc => lrfu::run(ctx, trace),
    }
}

/// Construction of the workload's engine or cache, including the
/// one-time lazy initialisation it triggers in a fresh process.
pub fn setup(w: Workload, tiny: bool) -> Duration {
    fn timed<T>(build: impl FnOnce() -> T) -> Duration {
        let t = Instant::now();
        let built = black_box(build());
        let d = t.elapsed();
        drop(built);
        d
    }
    match w {
        Workload::ShardedZipf => timed(|| sharded::build(tiny)),
        Workload::WindowZipf => timed(|| window::build(tiny)),
        Workload::DriverCaida => timed(|| driver::build(tiny)),
        Workload::LrfuArc => timed(|| lrfu::build(tiny)),
    }
}

/// Fixes which id each flow rank has. The seed draws the arrivals and
/// their values, not the flow population, so the shard that the
/// heaviest flows hash to is the same in every run.
const FLOW_IDS: u64 = 0x0F10_F1D5;

/// `n` items keyed by a Zipf(1)-popular flow out of `flows`, each with
/// a uniform 64-bit value.
pub fn zipf_stream(n: usize, flows: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut ranks = ZipfSampler::new(flows, 1.0, seed);
    let mut values = SplitMix64::new(seed ^ 0x7A1F_5EED);
    (0..n)
        .map(|_| {
            let key = hash::hash64(u64::from(ranks.sample()), FLOW_IDS);
            (key, values.next_u64())
        })
        .collect()
}

/// How many times a pass replays a zipf stream.
pub const REPLAYS: usize = 2;

/// Feeds `input` to `f` as the client's batches, [`REPLAYS`] times
/// over. Batch `b` (counted across replays) is copied into `buf` just
/// before the call, as a client fills a receive buffer. Replay `r > 0`
/// passes every value through a seeded bijective hash, so each replay
/// is a fresh uniform stream over the same keys.
pub fn for_each_batch(
    input: &[(u64, u64)],
    seed: u64,
    buf: &mut Vec<(u64, u64)>,
    mut f: impl FnMut(usize, &[(u64, u64)]),
) {
    let per_replay = input.len().div_ceil(BATCH);
    for r in 0..REPLAYS {
        let salt = seed.wrapping_add(r as u64);
        for (i, chunk) in input.chunks(BATCH).enumerate() {
            buf.clear();
            if r == 0 {
                buf.extend_from_slice(chunk);
            } else {
                buf.extend(chunk.iter().map(|&(k, v)| (k, hash::hash64(v, salt))));
            }
            f(r * per_replay + i, buf);
        }
    }
}
