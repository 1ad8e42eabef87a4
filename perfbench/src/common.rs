//! Pieces every workload shares: the run clock, output checks, timing
//! samples and the two kinds of result.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Items per public batch call in every workload.
pub const BATCH: usize = 1024;

/// A run's timings come from its best `1 / KEPT_SHARE` of passes.
const KEPT_SHARE: usize = 8;

/// Spans a traced run may hold in memory.
pub const MAX_SPANS: usize = 1 << 20;

/// How long the timed phase lasts, and whether it is over.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    budget: Duration,
}

impl Clock {
    pub fn start(seconds: f64) -> Self {
        Clock {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
        }
    }

    pub fn done(&self) -> bool {
        self.start.elapsed() >= self.budget
    }
}

/// Output checks against the untimed reference. A mismatch is counted
/// and reported, never retried.
#[derive(Debug, Default)]
pub struct Checks {
    pub made: u64,
    pub failed: u64,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.made += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {what}");
            }
        }
    }
}

/// Share of `expected` (a sorted multiset) that `got` (sorted) also
/// holds: 1.0 when the answer matches the reference.
pub fn recall<V: Ord>(got: &[V], expected: &[V]) -> f64 {
    if expected.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut hits) = (0, 0, 0usize);
    while i < got.len() && j < expected.len() {
        match got[i].cmp(&expected[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hits += 1;
                i += 1;
                j += 1;
            }
        }
    }
    hits as f64 / expected.len() as f64
}

/// The `p`-th percentile (nearest rank) of `xs`, which it sorts.
pub fn percentile(xs: &mut [u64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1] as f64
}

/// One timed pass over a workload's input.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Items per microsecond (= millions per second).
    pub mips: f64,
    pub batch_mean_ns: f64,
    pub batch_p50_ns: f64,
    pub batch_p99_ns: f64,
    pub query_p50_ns: f64,
}

/// Checks and latency samples gathered over a run's passes.
#[derive(Debug)]
pub struct Recorder {
    pub checks: Checks,
    /// Batch latencies of the current pass, in nanoseconds.
    batch_ns: Vec<u64>,
    /// Query latencies of the current pass, in nanoseconds.
    query_ns: Vec<u64>,
    passes: Vec<PassRecord>,
    /// Batch and query samples over all passes.
    samples: (usize, usize),
    recall_sum: f64,
    recall_n: u64,
    answer: Vec<u64>,
    /// The run's query time, where the workload reduces it itself.
    query_p50_ns: Option<f64>,
}

impl Recorder {
    /// Room for the samples of a pass of `batches` calls, and for
    /// answers of `q` values, allocated up front so that recording
    /// allocates nothing during the timed phase.
    pub fn new(q: usize, batches: usize) -> Self {
        Recorder {
            checks: Checks::default(),
            batch_ns: Vec::with_capacity(batches),
            query_ns: Vec::with_capacity(batches),
            passes: Vec::with_capacity(4096),
            samples: (0, 0),
            recall_sum: 0.0,
            recall_n: 0,
            answer: Vec::with_capacity(q),
            query_p50_ns: None,
        }
    }

    /// Records the latency of one batch call.
    pub fn batch(&mut self, d: Duration) {
        self.batch_ns.push(d.as_nanos() as u64);
    }

    /// Records the latency of one query.
    pub fn query(&mut self, d: Duration) {
        self.query_ns.push(d.as_nanos() as u64);
    }

    /// Marks the start of a timed pass.
    pub fn begin_pass(&mut self) {
        self.batch_ns.clear();
        self.query_ns.clear();
    }

    /// Records the pass begun last: `items` completed in `ns` of public
    /// calls.
    pub fn end_pass(&mut self, items: usize, ns: f64) {
        self.samples.0 += self.batch_ns.len();
        self.samples.1 += self.query_ns.len();
        self.passes.push(PassRecord {
            mips: items as f64 / (ns / 1e3),
            batch_mean_ns: ratio(
                self.batch_ns.iter().sum::<u64>() as f64,
                self.batch_ns.len() as f64,
            ),
            batch_p50_ns: percentile(&mut self.batch_ns, 50.0),
            batch_p99_ns: percentile(&mut self.batch_ns, 99.0),
            query_p50_ns: percentile(&mut self.query_ns, 50.0),
        });
    }

    /// Sets the run's query time, in nanoseconds, in place of the one
    /// reduced from its passes.
    pub fn set_query_p50(&mut self, ns: f64) {
        self.query_p50_ns = Some(ns);
    }

    /// The outcome of an untraced run.
    pub fn into_outcome(
        self,
        hit_ratio: f64,
        peak_heap_bytes: usize,
        notes: Vec<String>,
    ) -> Outcome {
        Outcome {
            checks: self.checks,
            measured: Measured::EndToEnd(EndToEnd {
                passes: self.passes,
                samples: self.samples,
                hit_ratio,
                peak_heap_bytes,
                query_p50_ns: self.query_p50_ns,
            }),
            notes,
            spans: None,
        }
    }

    /// Checks a top-q answer against the reference's sorted values. The
    /// answer's values are sorted in a reused buffer, so checking
    /// allocates nothing during the timed phase.
    pub fn check_top<I>(&mut self, got: &[(I, u64)], expected: &[u64], what: &str) {
        self.answer.clear();
        self.answer.extend(got.iter().map(|&(_, v)| v));
        self.answer.sort_unstable();
        self.recall_sum += recall(&self.answer, expected);
        self.recall_n += 1;
        let ok = self.answer == expected;
        self.checks.expect(ok, what);
    }

    /// Mean share of the reference answers the checked answers held.
    pub fn mean_recall(&self) -> f64 {
        ratio(self.recall_sum, self.recall_n as f64)
    }
}

/// The median of the best eighth of `xs` (at least one value). On a
/// shared host interference only adds time: the host deschedules the
/// benchmark's vCPU for milliseconds at a time, in spells that last from
/// seconds to minutes. The best measurements are the ones it spared, so
/// they compare like with like across runs.
pub fn best_eighth(xs: &[f64], higher_is_better: bool) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    median(&v[..xs.len().div_ceil(KEPT_SHARE)])
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What an untraced run measured.
#[derive(Debug)]
pub struct EndToEnd {
    pub passes: Vec<PassRecord>,
    /// Batch and query latency samples over all passes.
    pub samples: (usize, usize),
    pub hit_ratio: f64,
    pub peak_heap_bytes: usize,
    /// The run's query time where the workload reduces it itself.
    pub query_p50_ns: Option<f64>,
}

/// A run's timings, each the median of the best eighth of its passes'
/// values (at least one pass); see [`best_eighth`].
#[derive(Debug)]
pub struct Summary {
    pub kept: usize,
    pub throughput_mips: f64,
    pub batch_mean_ns: f64,
    pub batch_p50_ns: f64,
    pub batch_p99_ns: f64,
    pub query_p50_ns: f64,
}

impl EndToEnd {
    pub fn summary(&self) -> Summary {
        let best = |value: fn(&PassRecord) -> f64, higher_is_better: bool| {
            let v: Vec<f64> = self.passes.iter().map(value).collect();
            best_eighth(&v, higher_is_better)
        };
        Summary {
            kept: self.passes.len().div_ceil(KEPT_SHARE),
            throughput_mips: best(|p| p.mips, true),
            batch_mean_ns: best(|p| p.batch_mean_ns, false),
            batch_p50_ns: best(|p| p.batch_p50_ns, false),
            batch_p99_ns: best(|p| p.batch_p99_ns, false),
            query_p50_ns: self
                .query_p50_ns
                .unwrap_or_else(|| best(|p| p.query_p50_ns, false)),
        }
    }
}

/// Per-layer metrics of a traced run, by name; a layer the workload
/// does not run is absent and reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// The two shares that say how far to trust a breakdown, from per-pass
/// means: `untraced_ns` of the public path without spans, `traced_ns`
/// of the same passes under spans, and `layer_ns` the layer self times
/// attributed within them.
pub fn trust_shares(layers: &mut Layers, untraced_ns: f64, traced_ns: f64, layer_ns: f64) {
    if untraced_ns > 0.0 {
        layers.insert(
            "trace.unattributed_share",
            (untraced_ns - layer_ns) / untraced_ns,
        );
        layers.insert(
            "trace.overhead_share",
            (traced_ns - untraced_ns) / untraced_ns,
        );
    }
}

pub enum Measured {
    EndToEnd(EndToEnd),
    Layers(Layers),
}

/// One workload run: the checks it made and what it measured.
pub struct Outcome {
    pub checks: Checks,
    pub measured: Measured,
    /// Extra `key=value` facts for the human-readable record.
    pub notes: Vec<String>,
    /// The spans of a traced run, written out when the run ends.
    pub spans: Option<Tracer>,
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
