//! `sharded-zipf`: four de-amortized shards behind the batched
//! `insert_batch`, with a merged `query()` every 256 batches.
//!
//! Routing, the per-shard Ψ pre-filter, per-shard admission and the
//! merge of S·q candidates on query are the hot path.

use super::{for_each_batch, zipf_stream, Ctx, REPLAYS};
use crate::alloc;
use crate::common::{
    ratio, trust_shares, Clock, Layers, Measured, Outcome, Recorder, BATCH, MAX_SPANS,
};
use crate::trace::{SpanStats, Tracer};
use qmax_core::{BatchInsert, DeamortizedQMax, DeamortizedStats, Entry, HeapQMax, QMax};
use qmax_engine::ShardedQMax;
use qmax_select::nth_smallest;
use std::hint::black_box;
use std::time::Instant;

struct Params {
    q: usize,
    gamma: f64,
    shards: usize,
    flows: usize,
    pass_items: usize,
    query_every: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            q: 64,
            gamma: 0.25,
            shards: 4,
            flows: 5_000,
            pass_items: 1 << 15,
            query_every: 8,
        }
    } else {
        Params {
            q: 10_000,
            gamma: 0.25,
            shards: 4,
            flows: 1_000_000,
            pass_items: 1 << 22,
            query_every: 256,
        }
    }
}

pub fn build(tiny: bool) -> ShardedQMax<u64, u64> {
    build_with(&params(tiny))
}

fn build_with(p: &Params) -> ShardedQMax<u64, u64> {
    ShardedQMax::new(p.q, p.gamma, p.shards)
}

/// The exact top-q values at every scheduled query point, from a
/// sequential heap fed one item at a time.
fn reference(p: &Params, stream: &[(u64, u64)], seed: u64) -> Vec<Vec<u64>> {
    let mut heap = HeapQMax::new(p.q);
    let mut out = Vec::new();
    for_each_batch(stream, seed, &mut Vec::new(), |b, batch| {
        for &(id, v) in batch {
            heap.insert(id, v);
        }
        if (b + 1) % p.query_every == 0 {
            let mut vals: Vec<u64> = heap.query().into_iter().map(|(_, v)| v).collect();
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
    admitted: u64,
    prefiltered: u64,
    stats: DeamortizedStats,
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
    let mut admitted = 0u64;
    rec.begin_pass();
    for_each_batch(
        stream,
        ctx.seed,
        &mut Vec::with_capacity(BATCH),
        |b, batch| {
            let t = Instant::now();
            let n = engine.insert_batch(black_box(batch));
            let d = t.elapsed();
            admitted += n as u64;
            rec.batch(d);
            ns += d.as_nanos() as f64;
            if (b + 1) % p.query_every == 0 {
                let t = Instant::now();
                let top = engine.query();
                let d = t.elapsed();
                rec.query(d);
                ns += d.as_nanos() as f64;
                rec.check_top(&top, &expected[b / p.query_every], "sharded-zipf top-q");
            }
        },
    );
    rec.end_pass(stream.len() * REPLAYS, ns);
    Pass {
        ns,
        admitted,
        prefiltered: engine.prefiltered(),
        stats: engine.aggregate_stats(),
    }
}

fn untraced(ctx: &Ctx, p: &Params, stream: &[(u64, u64)], expected: &[Vec<u64>]) -> Outcome {
    let mut rec = Recorder::new(p.q, REPLAYS * stream.len().div_ceil(BATCH));
    let baseline = alloc::reset_peak();
    let clock = Clock::start(ctx.seconds);
    while !clock.done() {
        engine_pass(ctx, p, stream, expected, &mut rec);
    }
    let peak_heap_bytes = alloc::peak_since_bytes(baseline);
    let hit_ratio = rec.mean_recall();
    rec.into_outcome(hit_ratio, peak_heap_bytes, Vec::new())
}

/// The engine's batch and query paths rebuilt from the public calls
/// they are made of, each call inside a span: `shard_of` routing with
/// the Ψ pre-filter, per-shard `insert_batch`, per-shard `query` and
/// the `nth_smallest` merge. Every answer is checked like the engine's.
fn mirror_pass(
    ctx: &Ctx,
    p: &Params,
    stream: &[(u64, u64)],
    expected: &[Vec<u64>],
    router: &ShardedQMax<u64, u64>,
    tracer: &mut Tracer,
    rec: &mut Recorder,
) {
    let mut shards: Vec<DeamortizedQMax<u64, u64>> = (0..p.shards)
        .map(|_| DeamortizedQMax::new(p.q, p.gamma))
        .collect();
    let mut runs: Vec<Vec<(u64, u64)>> = (0..p.shards).map(|_| Vec::with_capacity(BATCH)).collect();
    let mut psi: Vec<Option<u64>> = vec![None; p.shards];
    let mut merged: Vec<Entry<u64, u64>> = Vec::with_capacity(p.shards * p.q * 2);
    for_each_batch(
        stream,
        ctx.seed,
        &mut Vec::with_capacity(BATCH),
        |b, batch| {
            tracer.begin("batch");
            tracer.span("sharded.route", || {
                for (t, shard) in psi.iter_mut().zip(&shards) {
                    *t = shard.threshold();
                }
                for &(id, v) in batch {
                    let s = router.shard_of(&id);
                    if psi[s].is_some_and(|t| v <= t) {
                        continue;
                    }
                    runs[s].push((id, v));
                }
            });
            tracer.span("sharded.shard_admit", || {
                for (shard, run) in shards.iter_mut().zip(runs.iter_mut()) {
                    if !run.is_empty() {
                        black_box(shard.insert_batch(run));
                        run.clear();
                    }
                }
            });
            tracer.end();
            if (b + 1) % p.query_every == 0 {
                tracer.begin("query");
                tracer.span("sharded.query_local", || {
                    merged.clear();
                    for shard in shards.iter_mut() {
                        merged.extend(shard.query().into_iter().map(|(id, v)| Entry::new(id, v)));
                    }
                });
                let top: Vec<(u64, u64)> = tracer.span("sharded.query_merge", || {
                    if merged.len() > p.q {
                        let cut = merged.len() - p.q;
                        nth_smallest(&mut merged, cut);
                        merged.drain(..cut);
                    }
                    merged.iter().map(|e| (e.id, e.val)).collect()
                });
                tracer.end();
                rec.check_top(
                    &top,
                    &expected[b / p.query_every],
                    "sharded-zipf mirror top-q",
                );
            }
        },
    );
}

fn traced(ctx: &Ctx, p: &Params, stream: &[(u64, u64)], expected: &[Vec<u64>]) -> Outcome {
    let mut rec = Recorder::new(p.q, REPLAYS * stream.len().div_ceil(BATCH));
    let mut tracer = Tracer::with_capacity(MAX_SPANS);
    let batches = REPLAYS * stream.len().div_ceil(BATCH);
    let spans_per_pass = 3 * (batches + batches / p.query_every);
    let router = build_with(p);
    let (mut passes, mut untraced_ns) = (0u64, 0.0);
    let (mut admitted, mut prefiltered) = (0u64, 0u64);
    let mut stats = DeamortizedStats::default();
    let clock = Clock::start(ctx.seconds);
    loop {
        let pass = engine_pass(ctx, p, stream, expected, &mut rec);
        untraced_ns += pass.ns;
        admitted += pass.admitted;
        prefiltered += pass.prefiltered;
        stats.admitted += pass.stats.admitted;
        stats.total_ops += pass.stats.total_ops;
        stats.forced_completions += pass.stats.forced_completions;
        stats.max_step_ops = stats.max_step_ops.max(pass.stats.max_step_ops);
        mirror_pass(ctx, p, stream, expected, &router, &mut tracer, &mut rec);
        passes += 1;
        if clock.done() || !tracer.has_room(spans_per_pass) {
            break;
        }
    }
    let sum = tracer.summary();
    let items = (passes as usize * REPLAYS * stream.len()) as f64;
    let self_ns = |name| SpanStats::self_of(&sum, name);
    let queries = sum.get("sharded.query_local").map_or(0, |s| s.count) as f64;
    let mut layers = Layers::new();
    layers.insert(
        "sharded.route_ns_per_item",
        self_ns("sharded.route") / items,
    );
    layers.insert("sharded.prefilter_ratio", prefiltered as f64 / items);
    layers.insert("sharded.admitted_per_item", admitted as f64 / items);
    layers.insert(
        "sharded.shard_admit_ns_per_item",
        self_ns("sharded.shard_admit") / items,
    );
    layers.insert(
        "sharded.query_local_ms",
        ratio(self_ns("sharded.query_local"), queries) / 1e6,
    );
    layers.insert(
        "sharded.query_merge_ms",
        ratio(self_ns("sharded.query_merge"), queries) / 1e6,
    );
    layers.insert(
        "deamortized.ops_per_admit",
        ratio(stats.total_ops as f64, stats.admitted as f64),
    );
    layers.insert("deamortized.max_step_ops", stats.max_step_ops as f64);
    layers.insert(
        "deamortized.forced_completions",
        stats.forced_completions as f64,
    );
    let per_pass = |ns: f64| ns / passes as f64;
    let traced_ns = SpanStats::total_of(&sum, "batch") + SpanStats::total_of(&sum, "query");
    let layer_ns = [
        "sharded.route",
        "sharded.shard_admit",
        "sharded.query_local",
        "sharded.query_merge",
    ]
    .iter()
    .map(|n| self_ns(n))
    .sum::<f64>();
    trust_shares(
        &mut layers,
        per_pass(untraced_ns),
        per_pass(traced_ns),
        per_pass(layer_ns),
    );
    Outcome {
        notes: vec![format!("passes={passes}")],
        checks: rec.checks,
        measured: Measured::Layers(layers),
        spans: Some(tracer),
    }
}
