//! `lrfu-arc`: the q-MAX LRFU cache (`q = 10⁴`, `γ = 0.25`, `c = 0.75`,
//! exact merge) serving 1024-request batches of an ARC-like trace over
//! a working set of 10q keys.
//!
//! At `q = 5·10⁴` the cache's index, score arena and log outgrow a 2 MB
//! L2 and its throughput follows other tenants' memory traffic (−40%
//! under a competing memory-bound process on a 2-vCPU guest); at
//! `q = 10⁴` they fit and the same interference costs a few percent.
//!
//! The keyed path is hot: flow-table probes, log-domain score merges,
//! and the maintenance selection with its eviction bookkeeping. No
//! engine code runs.

use super::Ctx;
use crate::alloc;
use crate::common::{trust_shares, Clock, Layers, Measured, Outcome, Recorder, BATCH, MAX_SPANS};
use crate::trace::{SpanStats, Tracer};
use qmax_core::FlowTable;
use qmax_lrfu::{Cache, DecayScore, QMaxLrfu};
use qmax_traces::gen::arc_like;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

struct Params {
    q: usize,
    gamma: f64,
    c: f64,
    requests: usize,
}

fn params(tiny: bool) -> Params {
    Params {
        q: if tiny { 256 } else { 10_000 },
        gamma: 0.25,
        c: 0.75,
        requests: if tiny { 1 << 15 } else { 1 << 20 },
    }
}

pub fn build(tiny: bool) -> QMaxLrfu<u64> {
    build_with(&params(tiny))
}

fn build_with(p: &Params) -> QMaxLrfu<u64> {
    QMaxLrfu::new(p.q, p.gamma, p.c)
}

/// Hits per batch from a replay that requests one key at a time.
fn reference(p: &Params, trace: &[u64]) -> Vec<usize> {
    let mut cache = build_with(p);
    trace
        .chunks(BATCH)
        .map(|chunk| chunk.iter().filter(|&&k| cache.request(k)).count())
        .collect()
}

pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let p = params(ctx.tiny);
    let requests = arc_like(p.requests, 10 * p.q, ctx.seed);
    let expected = reference(&p, &requests);
    if trace {
        traced(ctx, &p, &requests, &expected)
    } else {
        untraced(ctx, &p, &requests, &expected)
    }
}

/// What one pass of the real cache did.
struct Pass {
    ns: f64,
    hits: usize,
    maintenance_passes: u64,
}

/// One pass over the trace through a fresh cache's `request_batch`,
/// timing every call and checking every batch's hits. A batch that ran
/// the cache's O(q) maintenance selection is also recorded as a query.
fn cache_pass(
    p: &Params,
    trace: &[u64],
    expected: &[usize],
    rec: &mut Recorder,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut cache = build_with(p);
    let (mut ns, mut hits) = (0.0, 0);
    let mut batch: Vec<u64> = Vec::with_capacity(BATCH);
    rec.begin_pass();
    for (chunk, &want) in trace.chunks(BATCH).zip(expected) {
        // The client fills a request buffer, then hands it over.
        batch.clear();
        batch.extend_from_slice(chunk);
        let before = cache.maintenance_passes();
        let t = Instant::now();
        let got = match tracer.as_deref_mut() {
            Some(tr) => tr.span("lrfu.request_batch", || {
                cache.request_batch(black_box(&batch))
            }),
            None => cache.request_batch(black_box(&batch)),
        };
        let d = t.elapsed();
        rec.batch(d);
        if cache.maintenance_passes() > before {
            rec.query(d);
        }
        ns += d.as_nanos() as f64;
        hits += got;
        rec.checks.expect(got == want, "lrfu-arc hits per batch");
    }
    rec.end_pass(trace.len(), ns);
    Pass {
        ns,
        hits,
        maintenance_passes: cache.maintenance_passes(),
    }
}

fn untraced(ctx: &Ctx, p: &Params, trace: &[u64], expected: &[usize]) -> Outcome {
    let mut rec = Recorder::new(p.q, trace.len().div_ceil(BATCH));
    let mut hits = 0;
    let baseline = alloc::reset_peak();
    let clock = Clock::start(ctx.seconds);
    while !clock.done() {
        hits = cache_pass(p, trace, expected, &mut rec, None).hits;
    }
    let peak_heap_bytes = alloc::peak_since_bytes(baseline);
    rec.into_outcome(
        hits as f64 / trace.len() as f64,
        peak_heap_bytes,
        Vec::new(),
    )
}

/// Replays the cache's probe and merge layers on their own, each call
/// inside a span: a `FlowTable` sized like the cache's index takes
/// every batch through `entry_batch` (keeping a cache-sized resident
/// set by evicting the oldest insertions outside the span), and every
/// request's score is folded with `DecayScore::merge`, the cache's
/// exact log-domain merge. Returns the table's resize count.
fn layer_replay(p: &Params, trace: &[u64], capacity: usize, tracer: &mut Tracer) -> u64 {
    let mut table: FlowTable<u64, u32> = FlowTable::with_capacity(capacity);
    let mut resident: VecDeque<u64> = VecDeque::with_capacity(capacity);
    let mut missed: Vec<u64> = Vec::with_capacity(BATCH);
    let score = DecayScore::new(p.c);
    let mut acc = vec![f64::NEG_INFINITY; 4096];
    let mut time = 0u64;
    for chunk in trace.chunks(BATCH) {
        if table.len() + chunk.len() > capacity {
            while table.len() > p.q {
                let old = resident.pop_front().expect("every resident key is queued");
                table.remove(&old);
            }
        }
        missed.clear();
        tracer.span("lrfu.probe", || {
            table.entry_batch(
                chunk,
                |_| 0,
                |j, _, present| {
                    if !present {
                        missed.push(chunk[j]);
                    }
                },
            )
        });
        resident.extend(missed.iter().copied());
        tracer.span("lrfu.merge", || {
            for &key in chunk {
                time += 1;
                let slot = &mut acc[(key as usize) & 4095];
                *slot = score.merge(*slot, score.access(time));
            }
        });
    }
    black_box(&acc);
    table.resizes()
}

fn traced(ctx: &Ctx, p: &Params, trace: &[u64], expected: &[usize]) -> Outcome {
    let mut rec = Recorder::new(p.q, trace.len().div_ceil(BATCH));
    let mut tracer = Tracer::with_capacity(MAX_SPANS);
    let spans_per_pass = 3 * trace.len().div_ceil(BATCH);
    let capacity = build_with(p).capacity();
    let (mut passes, mut untraced_ns, mut maintenance, mut resizes) = (0u64, 0.0, 0u64, 0u64);
    let clock = Clock::start(ctx.seconds);
    loop {
        let pass = cache_pass(p, trace, expected, &mut rec, None);
        untraced_ns += pass.ns;
        maintenance += pass.maintenance_passes;
        cache_pass(p, trace, expected, &mut rec, Some(&mut tracer));
        resizes = resizes.max(layer_replay(p, trace, capacity, &mut tracer));
        passes += 1;
        if clock.done() || !tracer.has_room(spans_per_pass) {
            break;
        }
    }
    let sum = tracer.summary();
    let requests = (passes * trace.len() as u64) as f64;
    let probe = SpanStats::self_of(&sum, "lrfu.probe") / requests;
    let merge = SpanStats::self_of(&sum, "lrfu.merge") / requests;
    let total = SpanStats::total_of(&sum, "lrfu.request_batch") / requests;
    let mut layers = Layers::new();
    layers.insert("lrfu.probe_ns_per_req", probe);
    layers.insert("lrfu.merge_ns_per_req", merge);
    layers.insert("lrfu.residual_ns_per_req", total - probe - merge);
    layers.insert(
        "lrfu.maintenance_passes_per_kreq",
        maintenance as f64 / (requests / 1e3),
    );
    layers.insert("lrfu.flow_table_resizes", resizes as f64);
    // The three layers partition the traced request_batch time, so the
    // unattributed share is the untraced/traced gap of the same calls.
    let per_pass = |ns: f64| ns / passes as f64;
    let traced_ns = SpanStats::total_of(&sum, "lrfu.request_batch");
    trust_shares(
        &mut layers,
        per_pass(untraced_ns),
        per_pass(traced_ns),
        per_pass(traced_ns),
    );
    Outcome {
        notes: vec![format!("passes={passes}"), format!("capacity={capacity}")],
        checks: rec.checks,
        measured: Measured::Layers(layers),
        spans: Some(tracer),
    }
}
