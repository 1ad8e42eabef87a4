//! `window-zipf`: one slack-window shard (`w = 10⁶`, `τ = 0.1`) behind
//! the same `insert_batch`, with a `query()` every 256 batches.
//!
//! There is no Ψ pre-filter and S = 1 skips routing, so block
//! admission, the SoA compaction and selection kernels, the adaptive
//! backend choice and block recycling are the hot path.

use super::{for_each_batch, zipf_stream, Ctx, REPLAYS};
use crate::alloc;
use crate::common::{
    ratio, trust_shares, Clock, Layers, Measured, Outcome, Recorder, BATCH, MAX_SPANS,
};
use crate::trace::{SpanStats, Tracer};
use qmax_core::{
    AdaptiveBackend, AdaptiveBasicSlackQMax, BasicSlackQMax, BatchInsert, Entry, IntervalBackend,
    QMax,
};
use qmax_engine::ShardedQMax;
use qmax_select::{calibrate, nth_smallest, Kernel};
use std::hint::black_box;
use std::time::Instant;

type Engine = ShardedQMax<u64, u64, AdaptiveBasicSlackQMax<u64, u64>>;

struct Params {
    q: usize,
    gamma: f64,
    w: usize,
    tau: f64,
    flows: usize,
    pass_items: usize,
    query_every: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            q: 64,
            gamma: 0.25,
            w: 8_192,
            tau: 0.1,
            flows: 5_000,
            pass_items: 1 << 15,
            query_every: 8,
        }
    } else {
        Params {
            q: 10_000,
            gamma: 0.25,
            w: 1_000_000,
            tau: 0.1,
            flows: 1_000_000,
            pass_items: 1 << 22,
            query_every: 256,
        }
    }
}

pub fn build(tiny: bool) -> Engine {
    build_with(&params(tiny))
}

fn build_with(p: &Params) -> Engine {
    ShardedQMax::new_windowed(p.q, p.gamma, 1, p.w, p.tau)
}

/// The window's top-q values at every scheduled query point, from an
/// array-of-structs slack window fed one item at a time.
fn reference(p: &Params, stream: &[(u64, u64)], seed: u64) -> Vec<Vec<u64>> {
    let mut window = BasicSlackQMax::new(p.q, p.gamma, p.w, p.tau);
    let mut out = Vec::new();
    for_each_batch(stream, seed, &mut Vec::new(), |b, batch| {
        for &(id, v) in batch {
            window.insert(id, v);
        }
        if (b + 1) % p.query_every == 0 {
            let mut vals: Vec<u64> = window.query().into_iter().map(|(_, v)| v).collect();
            vals.sort_unstable();
            out.push(vals);
        }
    });
    out
}

pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let p = params(ctx.tiny);
    let stream = zipf_stream(p.pass_items, p.flows, ctx.seed);
    let expected = reference(&p, &stream, ctx.seed);
    if trace {
        traced(ctx, &p, &stream, &expected)
    } else {
        untraced(ctx, &p, &stream, &expected)
    }
}

/// What one pass of the real engine did.
struct Pass {
    ns: f64,
    /// Allocation calls made inside `insert_batch`.
    batch_allocs: u64,
    label: &'static str,
}

/// One pass over the stream through a fresh engine's public path,
/// timing every call and checking every query.
fn engine_pass(
    ctx: &Ctx,
    p: &Params,
    stream: &[(u64, u64)],
    expected: &[Vec<u64>],
    rec: &mut Recorder,
) -> Pass {
    let mut engine = build_with(p);
    let mut ns = 0.0;
    let mut batch_allocs = 0;
    rec.begin_pass();
    for_each_batch(
        stream,
        ctx.seed,
        &mut Vec::with_capacity(BATCH),
        |b, batch| {
            let a = alloc::calls();
            let t = Instant::now();
            black_box(engine.insert_batch(black_box(batch)));
            let d = t.elapsed();
            batch_allocs += alloc::calls() - a;
            rec.batch(d);
            ns += d.as_nanos() as f64;
            if (b + 1) % p.query_every == 0 {
                let t = Instant::now();
                let top = engine.query();
                let d = t.elapsed();
                rec.query(d);
                ns += d.as_nanos() as f64;
                rec.check_top(&top, &expected[b / p.query_every], "window-zipf top-q");
            }
        },
    );
    rec.end_pass(stream.len() * REPLAYS, ns);
    Pass {
        ns,
        batch_allocs,
        label: engine.shard_backend_labels()[0],
    }
}

fn untraced(ctx: &Ctx, p: &Params, stream: &[(u64, u64)], expected: &[Vec<u64>]) -> Outcome {
    let mut rec = Recorder::new(p.q, REPLAYS * stream.len().div_ceil(BATCH));
    let mut label = "";
    let baseline = alloc::reset_peak();
    let clock = Clock::start(ctx.seconds);
    while !clock.done() {
        label = engine_pass(ctx, p, stream, expected, &mut rec).label;
    }
    let peak_heap_bytes = alloc::peak_since_bytes(baseline);
    let hit_ratio = rec.mean_recall();
    rec.into_outcome(
        hit_ratio,
        peak_heap_bytes,
        vec![format!("block_backend={label}")],
    )
}

/// Compaction counters of the mirror's blocks after a pass.
#[derive(Default)]
struct BlockCounts {
    compactions: u64,
    pivot_fallbacks: u64,
}

/// The window rebuilt from standalone `AdaptiveBackend` blocks stamped
/// from one prototype: each batch is split at `block_size()` boundaries
/// and fed to the current block's `insert_batch`, and a block is reset
/// when the ring recycles it. A query collects every block's candidates
/// and keeps the top q with `nth_smallest`; answers are checked like
/// the engine's.
fn mirror_pass(
    ctx: &Ctx,
    p: &Params,
    stream: &[(u64, u64)],
    expected: &[Vec<u64>],
    geometry: (usize, usize),
    tracer: &mut Tracer,
    rec: &mut Recorder,
) -> BlockCounts {
    let (block_size, n_blocks) = geometry;
    let proto = AdaptiveBackend::<u64, u64>::with_fill_hint(p.q, p.gamma, Some(block_size));
    let mut blocks: Vec<AdaptiveBackend<u64, u64>> = (0..n_blocks).map(|_| proto.fresh()).collect();
    let (mut cur, mut fill) = (0usize, 0usize);
    let mut candidates: Vec<Entry<u64, u64>> = Vec::with_capacity(n_blocks * p.q * 2);
    for_each_batch(
        stream,
        ctx.seed,
        &mut Vec::with_capacity(BATCH),
        |b, batch| {
            tracer.begin("batch");
            let mut i = 0;
            while i < batch.len() {
                let take = (block_size - fill).min(batch.len() - i);
                let span = &batch[i..i + take];
                let block = &mut blocks[cur];
                tracer.span("window.block_admit", || black_box(block.insert_batch(span)));
                fill += take;
                i += take;
                if fill == block_size {
                    fill = 0;
                    cur = (cur + 1) % n_blocks;
                    blocks[cur].reset();
                }
            }
            tracer.end();
            if (b + 1) % p.query_every == 0 {
                tracer.begin("query");
                let top: Vec<(u64, u64)> = tracer.span("sharded.query_local", || {
                    candidates.clear();
                    for block in &blocks {
                        block.candidates_into(&mut candidates);
                    }
                    if candidates.len() > p.q {
                        let cut = candidates.len() - p.q;
                        nth_smallest(&mut candidates, cut);
                        candidates.drain(..cut);
                    }
                    candidates.iter().map(|e| (e.id, e.val)).collect()
                });
                tracer.end();
                rec.check_top(
                    &top,
                    &expected[b / p.query_every],
                    "window-zipf mirror top-q",
                );
            }
        },
    );
    BlockCounts {
        compactions: blocks.iter().map(|b| b.compactions()).sum(),
        pivot_fallbacks: blocks.iter().map(|b| b.pivot_fallbacks()).sum(),
    }
}

/// Times of the backend policy's calibration pass run on its own.
const CALIBRATIONS: usize = 5;

fn traced(ctx: &Ctx, p: &Params, stream: &[(u64, u64)], expected: &[Vec<u64>]) -> Outcome {
    let mut rec = Recorder::new(p.q, REPLAYS * stream.len().div_ceil(BATCH));
    let mut tracer = Tracer::with_capacity(MAX_SPANS);
    for _ in 0..CALIBRATIONS {
        tracer.span("policy.calibrate", || {
            black_box(calibrate(Kernel::<u64>::detect()))
        });
    }
    let geometry = {
        let engine = build_with(p);
        let shard = &engine.shards()[0];
        (shard.block_size(), shard.n_blocks())
    };
    let batches = REPLAYS * stream.len().div_ceil(BATCH);
    // One root and up to two block spans per batch, two per query.
    let spans_per_pass = 3 * batches + 2 * (batches / p.query_every);
    let (mut passes, mut untraced_ns, mut batch_allocs) = (0u64, 0.0, 0u64);
    let mut counts = BlockCounts::default();
    let clock = Clock::start(ctx.seconds);
    loop {
        let pass = engine_pass(ctx, p, stream, expected, &mut rec);
        untraced_ns += pass.ns;
        batch_allocs += pass.batch_allocs;
        let c = mirror_pass(ctx, p, stream, expected, geometry, &mut tracer, &mut rec);
        counts.compactions += c.compactions;
        counts.pivot_fallbacks += c.pivot_fallbacks;
        passes += 1;
        if clock.done() || !tracer.has_room(spans_per_pass) {
            break;
        }
    }
    let sum = tracer.summary();
    let kitems = (passes as usize * REPLAYS * stream.len()) as f64 / 1e3;
    let self_ns = |name| SpanStats::self_of(&sum, name);
    let queries = sum.get("sharded.query_local").map_or(0, |s| s.count) as f64;
    let mut layers = Layers::new();
    layers.insert(
        "window.block_admit_ns_per_item",
        self_ns("window.block_admit") / (kitems * 1e3),
    );
    layers.insert(
        "window.compactions_per_kitem",
        counts.compactions as f64 / kitems,
    );
    layers.insert(
        "window.pivot_fallback_ratio",
        ratio(counts.pivot_fallbacks as f64, counts.compactions as f64),
    );
    layers.insert("window.allocs_per_kitem", batch_allocs as f64 / kitems);
    layers.insert(
        "policy.calibration_ms",
        self_ns("policy.calibrate") / CALIBRATIONS as f64 / 1e6,
    );
    layers.insert(
        "sharded.query_local_ms",
        ratio(self_ns("sharded.query_local"), queries) / 1e6,
    );
    let per_pass = |ns: f64| ns / passes as f64;
    let traced_ns = SpanStats::total_of(&sum, "batch") + SpanStats::total_of(&sum, "query");
    let layer_ns = self_ns("window.block_admit") + self_ns("sharded.query_local");
    trust_shares(
        &mut layers,
        per_pass(untraced_ns),
        per_pass(traced_ns),
        per_pass(layer_ns),
    );
    Outcome {
        notes: vec![
            format!("passes={passes}"),
            format!("block_size={}", geometry.0),
        ],
        checks: rec.checks,
        measured: Measured::Layers(layers),
        spans: Some(tracer),
    }
}
