//! `driver-caida`: the threaded driver at S = 1 (one producer, one
//! shard worker) over CAIDA-like packets, keyed by flow with a
//! priority-sampling priority as value, replayed from a pre-generated
//! buffer.
//!
//! Producer routing and batching, the ring handoff, the per-batch `Vec`
//! that is freed on the worker thread and the worker drain are the hot
//! path; no other workload reaches them.

use super::Ctx;
use crate::alloc;
use crate::common::{
    best_eighth, median, percentile, ratio, trust_shares, Clock, Layers, Measured, Outcome,
    Recorder, BATCH, MAX_SPANS,
};
use crate::trace::{SpanStats, Tracer};
use qmax_core::{BatchInsert, DeamortizedQMax, DeamortizedStats, HeapQMax, QMax};
use qmax_engine::{DriverConfig, DriverReport, ShardedQMax};
use qmax_traces::gen::caida_like;
use qmax_traces::{hash, FlowKey};
use std::hint::black_box;
use std::time::Instant;

type Item = (FlowKey, u64);

struct Params {
    q: usize,
    gamma: f64,
    /// Packets per buffer.
    packets: usize,
}

fn params(tiny: bool) -> Params {
    Params {
        q: if tiny { 64 } else { 10_000 },
        gamma: 0.25,
        packets: if tiny { 1 << 15 } else { 1 << 19 },
    }
}

pub fn build(tiny: bool) -> ShardedQMax<FlowKey, u64> {
    build_with(&params(tiny))
}

fn build_with(p: &Params) -> ShardedQMax<FlowKey, u64> {
    ShardedQMax::new(p.q, p.gamma, 1)
}

/// The one call site of the threaded driver.
fn run_driver<S: Iterator<Item = Item>>(
    engine: &mut ShardedQMax<FlowKey, u64>,
    stream: S,
) -> DriverReport {
    engine.run_threaded(stream, DriverConfig::default())
}

/// Buffers a run may replay: consecutive stretches of one generated
/// trace, each with its own reference answer. How much a query costs
/// depends on the buffer as well as on the start (see [`STARTS`]), so
/// the runs draw on several.
const BUFFERS: usize = 4;

/// One stretch of the trace and the exact top-q values after it.
struct Buffer {
    items: Vec<Item>,
    expected: Vec<u64>,
}

/// Packets as `(flow, priority)`: the priority-sampling priority
/// `len / u` (§2) with `u ∈ (0, 1]` drawn from a seeded hash of the
/// packet id, as the integer `(len · 2⁵³) / (u · 2⁵³)`.
fn packets(n: usize, seed: u64) -> Vec<Item> {
    caida_like(n, seed)
        .map(|pkt| {
            let u = (hash::hash64(pkt.packet_id(), seed) >> 11) | 1;
            (pkt.flow(), (u64::from(pkt.len) << 53) / u)
        })
        .collect()
}

/// The exact top-q values after the whole buffer, from a sequential
/// heap.
fn reference(p: &Params, stream: &[Item]) -> Vec<u64> {
    let mut heap = HeapQMax::new(p.q);
    for &(id, v) in stream {
        heap.insert(id, v);
    }
    let mut vals: Vec<u64> = heap.query().into_iter().map(|(_, v)| v).collect();
    vals.sort_unstable();
    vals
}

pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let p = params(ctx.tiny);
    let buffers: Vec<Buffer> = packets(BUFFERS * p.packets, ctx.seed)
        .chunks(p.packets)
        .map(|items| Buffer {
            items: items.to_vec(),
            expected: reference(&p, items),
        })
        .collect();
    if trace {
        traced(ctx, &p, &buffers)
    } else {
        untraced(ctx, &p, &buffers)
    }
}

/// Replays the buffer to the driver's producer and records, every
/// [`BATCH`] items, how long the producer took to take them in: the
/// closed-loop latency of offering one batch.
struct Offer<'a> {
    items: std::iter::Chain<std::slice::Iter<'a, Item>, std::slice::Iter<'a, Item>>,
    taken: usize,
    last: Instant,
    rec: &'a mut Recorder,
}

impl Iterator for Offer<'_> {
    type Item = Item;

    #[inline]
    fn next(&mut self) -> Option<Item> {
        let item = *self.items.next()?;
        self.taken += 1;
        if self.taken.is_multiple_of(BATCH) {
            let now = Instant::now();
            self.rec.batch(now - self.last);
            self.last = now;
        }
        Some(item)
    }
}

/// Merged queries made of each finished run, timed on their own and
/// not counted in the run's throughput. The first pulls the shard's
/// data over from the worker's core; the run reports their median.
const QUERIES_PER_RUN: usize = 5;

/// Starts a buffer is replayed from, spread evenly over it. A query's
/// cost depends on where the shard's selection cycle stands when the
/// stream ends, and over one buffer it ranges across 2× from one start
/// to the next, so the run's query time averages many.
const STARTS: usize = 16;

/// What one threaded run did.
struct Run {
    run_ns: f64,
    /// All its queries, and their median.
    query_ns: f64,
    query_p50_ns: f64,
    allocs: u64,
    report: DriverReport,
    stats: DeamortizedStats,
}

/// One threaded run over a buffer, replayed cyclically from its start
/// number `start`, through a fresh engine, then the merged queries,
/// with the driver's accounting and answers checked.
fn engine_run(p: &Params, buffer: &Buffer, start: usize, rec: &mut Recorder) -> Run {
    let (stream, expected) = (&buffer.items[..], &buffer.expected[..]);
    let mut engine = build_with(p);
    let at = start * (stream.len() / STARTS);
    let offer = Offer {
        items: stream[at..].iter().chain(stream[..at].iter()),
        taken: 0,
        last: Instant::now(),
        rec: &mut *rec,
    };
    let a = alloc::calls();
    let t = Instant::now();
    let report = run_driver(&mut engine, offer);
    let run_ns = t.elapsed().as_nanos() as f64;
    let allocs = alloc::calls() - a;
    let mut query_ns = [0u64; QUERIES_PER_RUN];
    for ns in &mut query_ns {
        let t = Instant::now();
        let top = engine.query();
        let d = t.elapsed();
        rec.query(d);
        *ns = d.as_nanos() as u64;
        rec.check_top(&top, expected, "driver-caida top-q");
    }
    let drained: u64 = report.per_shard_drained.iter().sum();
    let items = stream.len() as u64;
    rec.checks.expect(
        report.items == items
            && drained + report.dropped() + report.quarantined() == items
            && report.dropped() == 0
            && report.quarantined() == 0
            && report.failures.is_empty(),
        "driver-caida conservation: items == drained, nothing dropped or quarantined",
    );
    Run {
        run_ns,
        query_ns: query_ns.iter().sum::<u64>() as f64,
        query_p50_ns: percentile(&mut query_ns, 50.0),
        allocs,
        stats: engine.aggregate_stats(),
        report,
    }
}

/// Pass number `n`: one run over each buffer, from its start number
/// `n mod STARTS`, so consecutive passes cover every start. The top-q
/// of a buffer is the same from every start, while the order the shard
/// sees, and so where its selection cycle stands when the queries come,
/// changes.
fn engine_pass(p: &Params, buffers: &[Buffer], n: usize, rec: &mut Recorder) -> Vec<Run> {
    rec.begin_pass();
    let runs: Vec<Run> = buffers
        .iter()
        .map(|b| engine_run(p, b, n % STARTS, rec))
        .collect();
    let run_ns = runs.iter().map(|r| r.run_ns).sum();
    rec.end_pass(buffers.len() * p.packets, run_ns);
    runs
}

fn untraced(ctx: &Ctx, p: &Params, buffers: &[Buffer]) -> Outcome {
    let mut rec = Recorder::new(p.q, BUFFERS * p.packets.div_ceil(BATCH));
    // The median query time of each run, by buffer and start.
    let mut by_start: Vec<Vec<f64>> = (0..BUFFERS * STARTS)
        .map(|_| Vec::with_capacity(64))
        .collect();
    let baseline = alloc::reset_peak();
    let clock = Clock::start(ctx.seconds);
    let mut n = 0;
    while !clock.done() {
        for (b, run) in engine_pass(p, buffers, n, &mut rec).iter().enumerate() {
            by_start[b * STARTS + n % STARTS].push(run.query_p50_ns);
        }
        n += 1;
    }
    let peak_heap_bytes = alloc::peak_since_bytes(baseline);
    // Each buffer-start pair's query time is reduced like any other
    // timing (see `best_eighth`) and the run reports their mean: the
    // pairs' costs fall in two groups, and a median over them would
    // jump between the groups.
    let visited: Vec<f64> = by_start
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| best_eighth(v, false))
        .collect();
    rec.set_query_p50(ratio(visited.iter().sum(), visited.len() as f64));
    let hit_ratio = rec.mean_recall();
    rec.into_outcome(hit_ratio, peak_heap_bytes, Vec::new())
}

/// The pipeline run on one thread from its public parts: the
/// producer's `shard_of` routing and batch fill (a fresh `Vec` per full
/// batch, as the driver allocates), then the worker's `insert_batch`
/// drain of that batch and its drop. The final query is checked like
/// the engine's.
fn mirror_pass(
    p: &Params,
    buffer: &Buffer,
    router: &ShardedQMax<FlowKey, u64>,
    tracer: &mut Tracer,
    rec: &mut Recorder,
) {
    let mut backend = DeamortizedQMax::<FlowKey, u64>::new(p.q, p.gamma);
    let mut buf: Vec<Item> = Vec::with_capacity(BATCH);
    for chunk in buffer.items.chunks(BATCH) {
        tracer.begin("batch");
        let full = tracer.span("driver.produce", || {
            for &(id, v) in chunk {
                black_box(router.shard_of(&id));
                buf.push((id, v));
            }
            std::mem::replace(&mut buf, Vec::with_capacity(BATCH))
        });
        tracer.span("driver.drain", || {
            black_box(backend.insert_batch(&full));
            drop(full);
        });
        tracer.end();
    }
    tracer.begin("query");
    let top = tracer.span("sharded.query_local", || backend.query());
    tracer.end();
    rec.check_top(&top, &buffer.expected, "driver-caida mirror top-q");
}

fn traced(ctx: &Ctx, p: &Params, buffers: &[Buffer]) -> Outcome {
    let mut rec = Recorder::new(p.q, BUFFERS * p.packets.div_ceil(BATCH));
    let mut tracer = Tracer::with_capacity(MAX_SPANS);
    let spans_per_pass = 3 * p.packets.div_ceil(BATCH) + 2;
    let router = build_with(p);
    let mut passes = 0u64;
    let (mut untraced_ns, mut run_ns_per_item) = (0.0, Vec::new());
    let (mut allocs, mut admitted, mut high_water, mut saturated) = (0u64, 0u64, 0u64, 0usize);
    let mut stats = DeamortizedStats::default();
    let clock = Clock::start(ctx.seconds);
    loop {
        for run in engine_pass(p, buffers, passes as usize, &mut rec) {
            // The traced pass runs once and queries once.
            untraced_ns += run.run_ns + run.query_ns / QUERIES_PER_RUN as f64;
            run_ns_per_item.push(run.run_ns / p.packets as f64);
            allocs += run.allocs;
            let r = &run.report;
            admitted += r.per_shard_admitted.iter().sum::<u64>();
            high_water = high_water.max(
                r.per_shard_ring_high_water
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0),
            );
            saturated = saturated.max(
                (0..r.per_shard_items.len())
                    .filter(|&s| r.saturated(s))
                    .count(),
            );
            stats.admitted += run.stats.admitted;
            stats.total_ops += run.stats.total_ops;
            stats.forced_completions += run.stats.forced_completions;
            stats.max_step_ops = stats.max_step_ops.max(run.stats.max_step_ops);
        }
        let buffer = &buffers[passes as usize % BUFFERS];
        mirror_pass(p, buffer, &router, &mut tracer, &mut rec);
        passes += 1;
        if clock.done() || !tracer.has_room(spans_per_pass) {
            break;
        }
    }
    let sum = tracer.summary();
    // Items through the mirror, one buffer a pass, and through the
    // threaded runs, one run over each buffer a pass.
    let items = (passes * p.packets as u64) as f64;
    let run_items = items * BUFFERS as f64;
    let self_ns = |name| SpanStats::self_of(&sum, name);
    let produce = self_ns("driver.produce") / items;
    let drain = self_ns("driver.drain") / items;
    let mut layers = Layers::new();
    layers.insert("driver.produce_ns_per_item", produce);
    layers.insert("driver.drain_ns_per_item", drain);
    layers.insert(
        "driver.handoff_ns_per_item",
        median(&run_ns_per_item) - produce.max(drain),
    );
    layers.insert(
        "driver.allocs_per_batch",
        allocs as f64 / (run_items / BATCH as f64),
    );
    layers.insert("driver.ring_high_water", high_water as f64);
    layers.insert("driver.saturated_shards", saturated as f64);
    layers.insert("driver.admitted_per_item", admitted as f64 / run_items);
    layers.insert(
        "deamortized.ops_per_admit",
        ratio(stats.total_ops as f64, stats.admitted as f64),
    );
    layers.insert("deamortized.max_step_ops", stats.max_step_ops as f64);
    layers.insert(
        "deamortized.forced_completions",
        stats.forced_completions as f64,
    );
    layers.insert(
        "sharded.query_local_ms",
        ratio(self_ns("sharded.query_local"), passes as f64) / 1e6,
    );
    let per_pass = |ns: f64| ns / passes as f64;
    let traced_ns = SpanStats::total_of(&sum, "batch") + SpanStats::total_of(&sum, "query");
    let layer_ns =
        self_ns("driver.produce") + self_ns("driver.drain") + self_ns("sharded.query_local");
    trust_shares(
        &mut layers,
        per_pass(untraced_ns) / BUFFERS as f64,
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
