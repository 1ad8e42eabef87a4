//! Multi-threaded shard driver: one worker thread per shard, fed with
//! pre-routed batches over lock-free SPSC [`ring`](crate::ring)
//! buffers.
//!
//! This is the software analogue of the paper's per-PMD deployment: the
//! producer plays the NIC's RSS stage (hash each id, append to the
//! target shard's batch), workers play PMD threads (drain batches into
//! their private reservoir), and nothing is shared between workers, so
//! there is no locking on the per-item hot path — including the
//! cross-thread handoff itself, which publishes whole owned batches
//! with a pair of Acquire/Release edges. One producer feeds one ring
//! per shard; a caller with several sources chains them into one
//! iterator (the exact top-q does not depend on the interleaving).
//! [`ShardedQMax::run_threaded`] and
//! [`ShardedQMax::run_supervised`] share the producer loop
//! ([`route_batches`]) and differ only in how a full batch is handed
//! off and how a failed shard recovers.
//!
//! # Fault tolerance
//!
//! A measurement data plane must not take down the forwarding plane it
//! observes, so the driver isolates shard failures instead of
//! propagating them:
//!
//! * **Panic isolation** — every batch drain runs under
//!   [`std::panic::catch_unwind`]. A panicking shard is *quarantined*:
//!   its poisoned backend is dropped, the remainder of its sub-stream is
//!   drained off the ring and counted (never processed), and the
//!   other `S − 1` workers keep running untouched. After the run the
//!   quarantined slot is rebuilt empty from the engine's stored backend
//!   factory, so the engine stays queryable — exactly the per-PMD
//!   independence argument: one instance restarting never stalls the
//!   others.
//! * **Load shedding** — [`OverloadPolicy::Shed`] switches the producer
//!   from bounded-spin blocking pushes to `try_push` with a bounded
//!   per-shard drop budget, trading bounded loss for producer latency
//!   when a shard falls behind (a stalled PMD sheds packets; it does
//!   not stall RSS). Both policies are expressed in ring-occupancy
//!   terms: *full ring* is the overload condition.
//! * **Failure accounting** — [`DriverReport`] balances every routed
//!   item into drained, shed, or quarantined, and lists each failure as
//!   a [`ShardFailure`] with the captured panic message.
//! * **Backpressure observability** —
//!   [`DriverReport::per_shard_ring_high_water`] records the peak ring
//!   occupancy each shard's producer saw; a shard pinned at
//!   [`DriverReport::ring_capacity`] was the bottleneck (stalled, or
//!   simply slower than the stream).

use crate::ring;
use crate::shard_key::ShardKey;
use crate::sharded::{ShardHealth, ShardRouter, ShardedQMax};
use crate::supervisor::{ShardLifecycle, WatchdogConfig};
use qmax_core::BatchInsert;
#[cfg(test)]
use qmax_core::QMax;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::{Duration, Instant};

/// What the producer does when a shard's ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Wait (bounded spin, then yield) until the worker frees a slot
    /// (lossless backpressure; a slow shard throttles the whole
    /// stream). The default.
    Block,
    /// Drop the batch instead of waiting, up to `max_dropped` items
    /// per shard; once a shard's drop budget is spent the producer
    /// falls back to blocking pushes for it, so the loss is bounded.
    Shed {
        /// Per-shard shed budget in items.
        max_dropped: u64,
    },
}

impl OverloadPolicy {
    /// The shed rule of both drivers, applied to a `len`-item batch
    /// that met a full ring: under [`Self::Shed`] the batch is dropped
    /// (and charged to the shard's `dropped` tally) if the tally stays
    /// within budget. `false` means the caller must block instead.
    pub(crate) fn try_shed(self, dropped: &mut u64, len: u64) -> bool {
        match self {
            OverloadPolicy::Shed { max_dropped } if *dropped + len <= max_dropped => {
                *dropped += len;
                true
            }
            _ => false,
        }
    }
}

/// Tuning knobs for [`ShardedQMax::run_threaded`].
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Items per batch handed to a worker (amortizes handoff overhead;
    /// the paper's shared-memory blocks play the same role).
    pub batch_size: usize,
    /// Ring capacity: bounded in-flight batches per ring before the
    /// overload policy applies (backpressure instead of unbounded
    /// queueing).
    pub queue_depth: usize,
    /// Producer behavior when a worker's ring is full.
    pub overload: OverloadPolicy,
    /// Checkpoint cadence for [`ShardedQMax::run_supervised`], in
    /// drained items per shard (snapshots are taken at batch
    /// boundaries, so the effective interval is rounded up to the next
    /// batch). `None` disables checkpointing: panics fall back to the
    /// cold quarantine path. [`ShardedQMax::run_threaded`] panics when
    /// this is set.
    pub checkpoint_every: Option<u64>,
    /// Stall-watchdog and restart policy for
    /// [`ShardedQMax::run_supervised`]. `None` disables stall
    /// detection (panic recovery then uses [`WatchdogConfig::default`]
    /// for its restart budget and backoff).
    /// [`ShardedQMax::run_threaded`] panics when this is set.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            batch_size: 1024,
            queue_depth: 8,
            overload: OverloadPolicy::Block,
            checkpoint_every: None,
            watchdog: None,
        }
    }
}

/// One quarantined shard: which worker panicked, why, and what it cost.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Index of the shard whose worker panicked.
    pub shard: usize,
    /// The captured panic message (`"non-string panic payload"` when the
    /// payload was neither `&str` nor `String`).
    pub message: String,
    /// Items routed to the shard but never processed: the batch that
    /// panicked plus everything drained-and-dropped afterwards. Items
    /// the shard processed *before* panicking are also discarded with
    /// the poisoned backend, but are counted under
    /// [`DriverReport::per_shard_drained`], not here.
    pub items_lost: u64,
}

/// What a threaded run did: per-shard load, loss accounting, failures,
/// backpressure high-water marks, and aggregate timing.
///
/// Every routed item lands in exactly one bucket per shard `s`:
///
/// ```text
/// per_shard_items[s] == per_shard_drained[s] + per_shard_dropped[s] + per_shard_quarantined[s]
/// ```
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Total items routed.
    pub items: u64,
    /// Wall-clock time from first route to last worker joining.
    pub elapsed: Duration,
    /// Items routed to each shard.
    pub per_shard_items: Vec<u64>,
    /// Items each shard's backend admitted (passed the backend's own
    /// threshold check; the driver routes every item unfiltered).
    pub per_shard_admitted: Vec<u64>,
    /// Items each shard's worker actually processed (admitted or
    /// filtered by the backend).
    pub per_shard_drained: Vec<u64>,
    /// Items shed by the producer under [`OverloadPolicy::Shed`]
    /// because the shard's ring was full and budget remained.
    pub per_shard_dropped: Vec<u64>,
    /// Items routed to a shard but never processed because the shard
    /// was quarantined (its worker panicked, or its ring closed
    /// early).
    pub per_shard_quarantined: Vec<u64>,
    /// Candidate entries re-adopted from checkpoints by warm restores
    /// of each shard (always zero for [`ShardedQMax::run_threaded`],
    /// which recovers cold). Entries restore exactly once per recovery:
    /// [`qmax_core::Checkpoint::restore`] overwrites, never merges.
    pub per_shard_recovered: Vec<u64>,
    /// Peak ring occupancy (in-flight batches) each shard's producer
    /// ever observed, counting rejected pushes against a full ring.
    /// The backpressure signal: a shard pinned at
    /// [`Self::ring_capacity`] stopped keeping up with its sub-stream
    /// (overloaded, stalled, or quarantined). For
    /// [`ShardedQMax::run_supervised`] it folds across worker
    /// generations.
    pub per_shard_ring_high_water: Vec<u64>,
    /// Ring capacity in batches ([`DriverConfig::queue_depth`]) the
    /// run used — the ceiling of [`Self::per_shard_ring_high_water`].
    pub ring_capacity: u64,
    /// One entry per quarantined shard, in shard order.
    pub failures: Vec<ShardFailure>,
    /// Each shard's [`qmax_core::QMax::backend_label`] after the run
    /// (a quarantined shard reports its rebuilt backend's label) —
    /// surfaces which layout the adaptive backend policy chose per
    /// shard.
    pub per_shard_backend: Vec<&'static str>,
    /// Supervision state transitions recorded during the run (empty for
    /// [`ShardedQMax::run_threaded`], which has no supervisor).
    pub lifecycle: ShardLifecycle,
}

impl DriverReport {
    /// Aggregate insert throughput in millions of items per second.
    pub fn throughput_mips(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.items as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Total items shed by the producer across shards.
    pub fn dropped(&self) -> u64 {
        self.per_shard_dropped.iter().sum()
    }

    /// Total items lost to quarantined shards across the run.
    pub fn quarantined(&self) -> u64 {
        self.per_shard_quarantined.iter().sum()
    }

    /// Total candidate entries re-adopted from checkpoints by warm
    /// restores across shards.
    pub fn recovered(&self) -> u64 {
        self.per_shard_recovered.iter().sum()
    }

    /// Whether shard `s`'s producer ever saw its ring pinned at
    /// capacity — the occupancy-level statement of "this shard fell
    /// behind".
    pub fn saturated(&self, s: usize) -> bool {
        self.per_shard_ring_high_water[s] >= self.ring_capacity
    }

    /// Whether shard `s` finished the run un-quarantined.
    pub fn is_healthy(&self, s: usize) -> bool {
        !self.failures.iter().any(|f| f.shard == s)
    }

    /// Indices of shards that finished the run un-quarantined.
    pub fn healthy_shards(&self) -> Vec<usize> {
        (0..self.per_shard_items.len())
            .filter(|&s| self.is_healthy(s))
            .collect()
    }

    /// Load-balance quality over *healthy* shards: most-loaded healthy
    /// shard relative to the healthy mean (1.0 = perfectly balanced;
    /// the pool's throughput is limited by the most loaded surviving
    /// worker, exactly as with PMD threads). Quarantined shards are
    /// excluded — a dead worker neither carries load nor bounds
    /// throughput. 0.0 when every shard was quarantined or no items
    /// flowed; exactly 1.0 when a single healthy shard remains.
    pub fn max_load_factor(&self) -> f64 {
        let healthy: Vec<u64> = self
            .per_shard_items
            .iter()
            .enumerate()
            .filter(|&(s, _)| self.is_healthy(s))
            .map(|(_, &n)| n)
            .collect();
        if healthy.is_empty() {
            return 0.0;
        }
        let max = healthy.iter().copied().max().unwrap_or(0) as f64;
        let mean = healthy.iter().sum::<u64>() as f64 / healthy.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}

/// Drains a whole owned batch into one shard via the backend's own
/// [`BatchInsert`] path: the worker-side half of the batched hot path.
/// SoA backends route this through the vectorized Ψ-filter admit
/// kernel; the default implementation is a Ψ-cached singleton loop.
pub(crate) fn drain_batch<I, V: Ord, B: BatchInsert<I, V>>(
    shard: &mut B,
    batch: Vec<(I, V)>,
) -> u64 {
    shard.insert_batch(&batch) as u64
}

/// Renders a caught panic payload as the message string panics carry in
/// practice (`panic!("…")` yields `&str` or `String`).
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The producer loop of both threaded drivers: route each item to its
/// shard, count it, append it to that shard's batch, hand every batch
/// that reaches `batch_size` to `dispatch`, and finally flush each
/// shard's non-empty remainder in shard order. Returns the items routed
/// to each of the `n` shards.
///
/// `dispatch` is generic rather than `dyn` so each driver's handoff
/// compiles into the per-item loop.
pub(crate) fn route_batches<I: ShardKey, V>(
    router: ShardRouter,
    n: usize,
    stream: impl Iterator<Item = (I, V)>,
    batch_size: usize,
    mut dispatch: impl FnMut(usize, Vec<(I, V)>),
) -> Vec<u64> {
    let mut per_shard_items = vec![0u64; n];
    let mut buffers: Vec<Vec<(I, V)>> = (0..n).map(|_| Vec::with_capacity(batch_size)).collect();
    for (id, val) in stream {
        let s = router.route(&id);
        per_shard_items[s] += 1;
        buffers[s].push((id, val));
        if buffers[s].len() >= batch_size {
            let full = std::mem::replace(&mut buffers[s], Vec::with_capacity(batch_size));
            dispatch(s, full);
        }
    }
    for (s, buffer) in buffers.into_iter().enumerate() {
        if !buffer.is_empty() {
            dispatch(s, buffer);
        }
    }
    per_shard_items
}

/// What one worker thread hands back when its ring closes.
struct WorkerOutcome<B> {
    /// The backend, unless it was poisoned by a panic and dropped.
    shard: Option<B>,
    /// Items admitted by the backend.
    admitted: u64,
    /// Items processed by the backend (admitted or filtered).
    drained: u64,
    /// Items received but never processed (the panicking batch plus
    /// everything drained-and-dropped after the panic).
    quarantined: u64,
    /// The first panic's message, if any.
    panic_message: Option<String>,
}

/// One worker's drain loop over its shard's SPSC ring: spin-then-park
/// on emptiness ([`ring::Consumer::recv`]), end when the producer
/// closes. Each batch drains under `catch_unwind`; on a panic the
/// poisoned backend is dropped but the loop keeps accepting batches
/// (counted as quarantined) so the producer never waits on a ring
/// nobody drains.
fn worker_loop<I, V: Ord, B: BatchInsert<I, V>>(
    shard: B,
    mut rx: ring::Consumer<Vec<(I, V)>>,
) -> WorkerOutcome<B> {
    let mut out = WorkerOutcome {
        shard: Some(shard),
        admitted: 0,
        drained: 0,
        quarantined: 0,
        panic_message: None,
    };
    while let Some(batch) = rx.recv() {
        let len = batch.len() as u64;
        let Some(mut shard) = out.shard.take() else {
            out.quarantined += len;
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| drain_batch(&mut shard, batch))) {
            Ok(admitted) => {
                out.admitted += admitted;
                out.drained += len;
                out.shard = Some(shard);
            }
            Err(payload) => {
                // The backend's internal invariants may be arbitrarily
                // broken mid-unwind: poison it by dropping, and charge
                // the whole batch as quarantined (any partial
                // admissions die with the backend).
                out.quarantined += len;
                out.panic_message = Some(panic_message(payload));
                drop(shard);
            }
        }
    }
    out
}

/// Producer-side push of one batch under the overload policy.
/// `dropped`/`orphaned` are the shard's item tallies.
fn dispatch_ring<I, V>(
    tx: &mut ring::Producer<Vec<(I, V)>>,
    batch: Vec<(I, V)>,
    overload: OverloadPolicy,
    dropped: &mut u64,
    orphaned: &mut u64,
) {
    let len = batch.len() as u64;
    match overload {
        OverloadPolicy::Block => {
            if tx.push_wait(batch).is_err() {
                // The worker died without draining its ring; count and
                // carry on — the other shards still want their
                // sub-streams.
                *orphaned += len;
            }
        }
        OverloadPolicy::Shed { .. } => match tx.try_push(batch) {
            Ok(()) => {}
            Err(batch) => {
                if tx.consumer_gone() {
                    *orphaned += len;
                } else if overload.try_shed(dropped, len) {
                    // Charged to the shard's drop budget.
                } else if tx.push_wait(batch).is_err() {
                    *orphaned += len;
                }
            }
        },
    }
}

impl<I, V, B> ShardedQMax<I, V, B>
where
    I: ShardKey + Send,
    V: Ord + Clone + Send,
    B: BatchInsert<I, V> + Send,
{
    /// Feeds `stream` through one worker thread per shard and returns a
    /// load/timing/failure report. The engine is fully usable (and
    /// queryable) afterwards: shards move into the workers for the run
    /// and move back when the stream is exhausted — and a shard whose
    /// worker panicked moves back as a *fresh, empty* backend stamped
    /// from the engine's stored factory, with the failure recorded in
    /// [`DriverReport::failures`].
    ///
    /// The producer thread routes ids to shards ([`ShardKey`] hash) and
    /// accumulates per-shard batches of `config.batch_size` items;
    /// workers apply the same Ψ-cached batch drain as
    /// [`ShardedQMax::insert_batch`]. Each shard is fed over a
    /// lock-free SPSC [`ring`](crate::ring) bounded at
    /// `config.queue_depth` batches; a full ring either blocks the
    /// producer (bounded spin, then yield) or sheds the batch, per
    /// `config.overload`.
    ///
    /// This method never panics on a shard failure: worker panics are
    /// caught, quarantined, and reported.
    ///
    /// # Panics
    ///
    /// Before spawning any thread, if `config.checkpoint_every` or
    /// `config.watchdog` is set: checkpoints and stall detection are
    /// [`ShardedQMax::run_supervised`]'s job, and silently ignoring
    /// them would hide a misconfiguration.
    pub fn run_threaded<S>(&mut self, stream: S, config: DriverConfig) -> DriverReport
    where
        S: Iterator<Item = (I, V)>,
    {
        assert!(
            config.checkpoint_every.is_none() && config.watchdog.is_none(),
            "run_threaded does not checkpoint or watch for stalls; \
             use run_supervised for DriverConfig::checkpoint_every / watchdog"
        );
        let n = self.shard_count();
        let batch_size = config.batch_size.max(1);
        let queue_depth = config.queue_depth.max(1);
        let shards = self.take_shards();
        let router = self.router();
        let mut per_shard_dropped = vec![0u64; n];
        // Items orphaned by a dead consumer (worker died outside the
        // drain loop); folded into the quarantine bucket.
        let mut orphaned = vec![0u64; n];
        let start = Instant::now();
        let (per_shard_items, outcomes, high_water) = thread::scope(|scope| {
            let mut producers = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for shard in shards {
                let (tx, rx) = ring::ring::<Vec<(I, V)>>(queue_depth);
                producers.push(tx);
                handles.push(scope.spawn(move || worker_loop(shard, rx)));
            }
            let per_shard_items = route_batches(router, n, stream, batch_size, |s, batch| {
                dispatch_ring(
                    &mut producers[s],
                    batch,
                    config.overload,
                    &mut per_shard_dropped[s],
                    &mut orphaned[s],
                )
            });
            // Read the backpressure peaks, then close the rings
            // (dropping the producers) to end each worker's drain loop.
            let high_water: Vec<u64> = producers.iter().map(|p| p.high_water()).collect();
            drop(producers);
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (per_shard_items, outcomes, high_water)
        });
        let elapsed = start.elapsed();

        // Fold worker outcomes into the report, rebuild quarantined
        // slots cold from the factory, and restore the engine's shards
        // and coverage annotations.
        let mut returned = Vec::with_capacity(n);
        let mut per_shard_admitted = vec![0u64; n];
        let mut per_shard_drained = vec![0u64; n];
        let mut per_shard_quarantined = vec![0u64; n];
        let mut failures = Vec::new();
        let mut health = Vec::with_capacity(n);
        for (s, joined) in outcomes.into_iter().enumerate() {
            let outcome = match joined {
                Ok(outcome) => outcome,
                // The worker thread itself panicked outside the guarded
                // drain (a driver bug, not a backend bug) — treat every
                // item not otherwise accounted as quarantined and
                // rebuild anyway.
                Err(payload) => WorkerOutcome {
                    shard: None,
                    admitted: 0,
                    drained: 0,
                    quarantined: per_shard_items[s]
                        .saturating_sub(per_shard_dropped[s])
                        .saturating_sub(orphaned[s]),
                    panic_message: Some(panic_message(payload)),
                },
            };
            per_shard_admitted[s] = outcome.admitted;
            per_shard_drained[s] = outcome.drained;
            per_shard_quarantined[s] = outcome.quarantined + orphaned[s];
            match outcome.shard {
                Some(shard) => {
                    returned.push(shard);
                    health.push(ShardHealth::Healthy);
                }
                None => {
                    failures.push(ShardFailure {
                        shard: s,
                        message: outcome
                            .panic_message
                            .unwrap_or_else(|| "shard backend lost without a panic".to_string()),
                        items_lost: per_shard_quarantined[s],
                    });
                    returned.push(self.fresh_shard(s));
                    // Cold rebuild: the shard's conserved items are not
                    // represented until new arrivals repopulate it.
                    health.push(ShardHealth::Degraded);
                }
            }
        }
        self.restore_shards(returned);
        self.set_coverage(health, per_shard_drained.clone());
        let per_shard_backend = self.shard_backend_labels();
        DriverReport {
            items: per_shard_items.iter().sum(),
            elapsed,
            per_shard_items,
            per_shard_admitted,
            per_shard_drained,
            per_shard_dropped,
            per_shard_quarantined,
            per_shard_recovered: vec![0; n],
            per_shard_ring_high_water: high_water,
            ring_capacity: queue_depth as u64,
            failures,
            per_shard_backend,
            lifecycle: ShardLifecycle::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{silence_fault_panics, FaultSchedule, FaultyBackend};
    use crate::sharded::ShardedQMax;
    use qmax_core::DeamortizedQMax;
    use qmax_traces::gen::{caida_like, random_u64_stream};

    fn sorted_vals(qm: &mut impl QMax<u64, u64>) -> Vec<u64> {
        let mut v: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        v.sort_unstable();
        v
    }

    fn assert_balanced(report: &DriverReport) {
        for s in 0..report.per_shard_items.len() {
            assert_eq!(
                report.per_shard_items[s],
                report.per_shard_drained[s]
                    + report.per_shard_dropped[s]
                    + report.per_shard_quarantined[s],
                "shard {s} accounting does not balance: {report:?}"
            );
            assert!(report.per_shard_admitted[s] <= report.per_shard_drained[s]);
            assert!(report.per_shard_ring_high_water[s] <= report.ring_capacity);
        }
    }

    #[test]
    fn threaded_run_matches_sequential_inserts() {
        let items: Vec<(u64, u64)> = random_u64_stream(60_000, 21)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let q = 128;
        for shards in [1usize, 2, 4] {
            let mut threaded: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            let report = threaded.run_threaded(items.iter().copied(), DriverConfig::default());
            assert_eq!(report.items, items.len() as u64);
            assert_eq!(report.per_shard_items.len(), shards);
            assert!(report.failures.is_empty());
            assert_eq!(report.dropped() + report.quarantined(), 0);
            assert_eq!(report.ring_capacity, 8);
            assert_balanced(&report);
            let mut sequential: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            for &(id, v) in &items {
                sequential.insert(id, v);
            }
            assert_eq!(
                sorted_vals(&mut threaded),
                sorted_vals(&mut sequential),
                "threaded result diverged at {shards} shards"
            );
        }
    }

    /// The threaded driver against a per-shard sequential replay: route
    /// with `shard_of`, cut each sub-stream into `batch_size` batches in
    /// arrival order, and drain them into a fresh backend. Routing,
    /// drain and admission counts, and the merged top-q must all agree.
    #[test]
    fn threaded_run_matches_sequential_replay() {
        let items: Vec<(u64, u64)> = random_u64_stream(50_000, 44)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let q = 64;
        let batch_size = DriverConfig::default().batch_size;
        for shards in [1usize, 3] {
            let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            let report = engine.run_threaded(items.iter().copied(), DriverConfig::default());
            assert_balanced(&report);
            assert!(report.per_shard_ring_high_water.iter().any(|&h| h > 0));
            let mut subs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
            for &(id, v) in &items {
                subs[engine.shard_of(&id)].push((id, v));
            }
            let mut merged = Vec::new();
            for (s, sub) in subs.iter().enumerate() {
                let mut backend: DeamortizedQMax<u64, u64> = DeamortizedQMax::new(q, 0.25);
                let admitted: u64 = sub
                    .chunks(batch_size)
                    .map(|batch| backend.insert_batch(batch) as u64)
                    .sum();
                assert_eq!(report.per_shard_items[s], sub.len() as u64);
                assert_eq!(report.per_shard_drained[s], sub.len() as u64);
                assert_eq!(report.per_shard_admitted[s], admitted);
                merged.extend(backend.query().into_iter().map(|(_, v)| v));
            }
            merged.sort_unstable_by(|a, b| b.cmp(a));
            merged.truncate(q);
            merged.sort_unstable();
            assert_eq!(
                sorted_vals(&mut engine),
                merged,
                "threaded run diverged from the sequential replay at {shards} shards"
            );
        }
    }

    #[test]
    #[should_panic(expected = "use run_supervised")]
    fn run_threaded_rejects_checkpoint_cadence() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(8, 0.5, 2);
        engine.run_threaded(
            (0..100u64).map(|i| (i, i)),
            DriverConfig {
                checkpoint_every: Some(64),
                ..DriverConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "use run_supervised")]
    fn run_threaded_rejects_watchdog() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(8, 0.5, 2);
        engine.run_threaded(
            (0..100u64).map(|i| (i, i)),
            DriverConfig {
                watchdog: Some(WatchdogConfig::default()),
                ..DriverConfig::default()
            },
        );
    }

    #[test]
    fn report_accounts_for_all_items() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(32, 0.5, 4);
        let items: Vec<(u64, u64)> = caida_like(50_000, 8)
            .map(|p| (p.flow().as_u64(), p.len as u64))
            .collect();
        let report = engine.run_threaded(items.into_iter(), DriverConfig::default());
        assert_eq!(report.items, 50_000);
        assert_eq!(report.per_shard_items.iter().sum::<u64>(), 50_000);
        assert_balanced(&report);
        let agg = engine.aggregate_stats();
        assert_eq!(agg.admitted, report.per_shard_admitted.iter().sum::<u64>());
        assert!(report.throughput_mips() > 0.0);
        assert!(report.max_load_factor() >= 1.0);
        assert_eq!(report.per_shard_backend, vec!["qmax-deamortized"; 4]);
        assert_eq!(report.per_shard_ring_high_water.len(), 4);
    }

    #[test]
    fn engine_remains_usable_after_threaded_run() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(8, 0.5, 2);
        let items: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i)).collect();
        engine.run_threaded(items.into_iter(), DriverConfig::default());
        // Post-run inserts land in the same structure.
        engine.insert(999_999, 1_000_000);
        let mut top = sorted_vals(&mut engine);
        assert_eq!(top.pop(), Some(1_000_000));
        assert_eq!(top.pop(), Some(9_999));
    }

    #[test]
    fn tiny_batches_and_shallow_queues_still_agree() {
        let items: Vec<(u64, u64)> = random_u64_stream(5_000, 33)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let q = 16;
        let mut a: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 3);
        a.run_threaded(
            items.iter().copied(),
            DriverConfig {
                batch_size: 1,
                queue_depth: 1,
                overload: OverloadPolicy::Block,
                ..DriverConfig::default()
            },
        );
        let mut b: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 3);
        b.insert_batch(&items);
        assert_eq!(sorted_vals(&mut a), sorted_vals(&mut b));
    }

    #[test]
    fn panicking_shard_is_quarantined_and_rebuilt() {
        let _silence = silence_fault_panics();
        let q = 32;
        let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
            ShardedQMax::with_backends(q, 3, move |s| {
                // FaultyBackend counts every offered item (its
                // insert_batch loops over insert), so panic_at(50)
                // fires early in shard 1's sub-stream.
                let schedule = if s == 1 {
                    FaultSchedule::panic_at(50)
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(DeamortizedQMax::new(q, 0.25), schedule)
            });
        let items: Vec<(u64, u64)> = random_u64_stream(20_000, 7)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let report = engine.run_threaded(items.iter().copied(), DriverConfig::default());
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].shard, 1);
        assert!(report.failures[0].message.contains("fault-injected"));
        assert_eq!(
            report.per_shard_quarantined[1],
            report.failures[0].items_lost
        );
        assert!(report.per_shard_quarantined[1] > 0);
        assert!(!report.is_healthy(1));
        assert_eq!(report.healthy_shards(), vec![0, 2]);
        assert_balanced(&report);
        // The rebuilt slot is empty but live: the engine answers queries
        // and accepts new items for shard 1.
        assert!(engine.shards()[1].is_empty());
        let top = engine.query();
        assert!(!top.is_empty());
    }

    #[test]
    fn shedding_bounds_loss_and_balances_accounting() {
        let q = 16;
        let budget = 2_000u64;
        let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
            ShardedQMax::with_backends(q, 2, move |s| {
                let schedule = if s == 0 {
                    // Slow shard 0 down so its ring actually fills.
                    FaultSchedule::stall_every(256, 2)
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(DeamortizedQMax::new(q, 0.5), schedule)
            });
        let items: Vec<(u64, u64)> = random_u64_stream(40_000, 99)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let report = engine.run_threaded(
            items.iter().copied(),
            DriverConfig {
                batch_size: 64,
                queue_depth: 1,
                overload: OverloadPolicy::Shed {
                    max_dropped: budget,
                },
                ..DriverConfig::default()
            },
        );
        assert!(report.failures.is_empty());
        for &d in &report.per_shard_dropped {
            assert!(d <= budget, "shed {d} items, budget {budget}");
        }
        if report.per_shard_dropped[0] > 0 {
            // Shedding only fires against a full ring, so the stalled
            // shard's high-water must have pinned at capacity.
            assert!(report.saturated(0), "shed without saturation: {report:?}");
        }
        assert_balanced(&report);
    }

    #[test]
    fn max_load_factor_ignores_quarantined_shards() {
        let report = DriverReport {
            items: 300,
            elapsed: Duration::from_millis(1),
            per_shard_items: vec![100, 150, 50],
            per_shard_admitted: vec![10, 0, 5],
            per_shard_drained: vec![100, 20, 50],
            per_shard_dropped: vec![0, 0, 0],
            per_shard_quarantined: vec![0, 130, 0],
            per_shard_recovered: vec![0, 0, 0],
            per_shard_ring_high_water: vec![1, 8, 1],
            ring_capacity: 8,
            failures: vec![ShardFailure {
                shard: 1,
                message: "boom".into(),
                items_lost: 130,
            }],
            per_shard_backend: vec!["qmax-deamortized"; 3],
            lifecycle: ShardLifecycle::default(),
        };
        // Healthy shards carry 100 and 50 items: mean 75, max 100.
        assert!((report.max_load_factor() - 100.0 / 75.0).abs() < 1e-12);
        assert!(report.saturated(1));
        assert!(!report.saturated(0));

        // A single healthy shard is perfectly balanced by definition.
        let one_left = DriverReport {
            per_shard_items: vec![100, 150],
            per_shard_admitted: vec![10, 0],
            per_shard_drained: vec![100, 0],
            per_shard_quarantined: vec![0, 150],
            failures: vec![ShardFailure {
                shard: 1,
                message: "boom".into(),
                items_lost: 150,
            }],
            items: 250,
            elapsed: Duration::from_millis(1),
            per_shard_dropped: vec![0, 0],
            per_shard_recovered: vec![0, 0],
            per_shard_ring_high_water: vec![0, 0],
            ring_capacity: 8,
            per_shard_backend: vec!["qmax-deamortized"; 2],
            lifecycle: ShardLifecycle::default(),
        };
        assert_eq!(one_left.max_load_factor(), 1.0);

        // All shards quarantined: no load to balance.
        let none_left = DriverReport {
            per_shard_items: vec![100],
            per_shard_admitted: vec![0],
            per_shard_drained: vec![0],
            per_shard_quarantined: vec![100],
            failures: vec![ShardFailure {
                shard: 0,
                message: "boom".into(),
                items_lost: 100,
            }],
            items: 100,
            elapsed: Duration::from_millis(1),
            per_shard_dropped: vec![0],
            per_shard_recovered: vec![0],
            per_shard_ring_high_water: vec![0],
            ring_capacity: 8,
            per_shard_backend: vec!["qmax-deamortized"],
            lifecycle: ShardLifecycle::default(),
        };
        assert_eq!(none_left.max_load_factor(), 0.0);
    }
}
