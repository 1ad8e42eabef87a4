//! Checkpointed shard supervision: warm recovery, stall watchdogs, and
//! lifecycle accounting for the threaded driver.
//!
//! [`ShardedQMax::run_supervised`] runs the same producer loop as
//! [`ShardedQMax::run_threaded`] (`driver::route_batches`) over the same
//! per-shard rings; only the handoff (through a swappable ring slot)
//! and the recovery paths differ. With neither
//! [`DriverConfig::checkpoint_every`] nor [`DriverConfig::watchdog`]
//! set, the two drivers produce identical accounting and results under
//! [`OverloadPolicy::Block`](crate::OverloadPolicy::Block).
//!
//! [`ShardedQMax::run_threaded`](crate::ShardedQMax::run_threaded)
//! isolates a failing shard but recovers it **cold**: the quarantined
//! backend is rebuilt empty from the factory, discarding the shard's
//! entire slice of the heavy-hitter state, and a *stalled* shard is
//! never detected at all. [`ShardedQMax::run_supervised`] upgrades both
//! recovery paths:
//!
//! * **Checkpointing** — each worker snapshots its backend
//!   ([`qmax_core::Checkpoint`]) every
//!   [`DriverConfig::checkpoint_every`] drained items, at batch
//!   boundaries. A panicking shard warm-restores from its last
//!   checkpoint in place (the backend survives the unwind; `restore`
//!   fully overwrites whatever the panic left behind), so post-fault
//!   loss is bounded by one checkpoint interval plus the in-flight
//!   batch, instead of the whole shard. A `snapshot` or `restore` that
//!   panics itself is that shard's failure: the shard is permanently
//!   quarantined (and rebuilt cold after the run if its checkpoint
//!   cannot be restored).
//! * **Stall watchdog** — the heartbeat is the shard ring's
//!   consumption counter ([`crate::ring::Producer::consumed`], the
//!   number of batches the worker has popped), plus an explicit bump
//!   per recovery step; a supervisor thread sweeps every
//!   [`WatchdogConfig::poll_interval`] and declares a shard stalled
//!   when the counter has been silent for
//!   [`WatchdogConfig::deadline`] while batches are pending. A stalled
//!   shard is restarted with bounded retries and exponential backoff
//!   with deterministic jitter: a spare backend (pre-stamped from the
//!   factory) is warm-restored from the last checkpoint and takes over
//!   on a fresh ring, while the abandoned worker drains its leftover
//!   batches into the quarantine bucket when it eventually wakes.
//!   While a worker is stalled the producer keeps try-pushing against
//!   its full ring, so the shard's ring high-water
//!   ([`DriverReport::per_shard_ring_high_water`]) pins at capacity —
//!   the occupancy-level symptom of the stall — before failover swaps
//!   the ring out (high-water marks fold across worker generations).
//! * **Lifecycle log** — every transition
//!   (`Healthy → Suspect → Restarting(n) → Quarantined`, and the
//!   recovery back to `Healthy`) is recorded as a [`LifecycleEvent`]
//!   with a live coverage estimate, and returned as the
//!   [`ShardLifecycle`] on [`DriverReport::lifecycle`].
//!
//! # Accounting
//!
//! The PR 4 conservation law still holds per shard:
//! `items == drained + dropped + quarantined` (plus nothing else). With
//! checkpointing enabled, `drained` is *stricter* than in
//! `run_threaded`: items whose effect was lost with a failure — drained
//! after the last surviving checkpoint — are **reclassified** from
//! drained to quarantined at recovery time, so `per_shard_drained`
//! counts exactly the items represented in the final shard state, each
//! exactly once. [`DriverReport::per_shard_recovered`] counts the
//! candidate entries re-adopted from checkpoints by warm restores.
//!
//! # Bounds and caveats
//!
//! The watchdog cannot kill a thread: a stalled worker is *abandoned*,
//! not destroyed, and `run_supervised` still joins it before returning.
//! A worker stalled forever therefore wedges the run — the watchdog
//! bounds the *measurement outage* (a replacement takes over within
//! `deadline + backoff`), not the join. The fault harness only scripts
//! finite stalls.

use crate::driver::{
    drain_batch, panic_message, pin_plan, route_batches, DriverConfig, DriverReport, ShardFailure,
};
use crate::ring;
use crate::shard_key::ShardKey;
use crate::sharded::{ShardHealth, ShardedQMax};
use qmax_core::{BackendSnapshot, BatchInsert, Checkpoint};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Stall-detection and restart policy for
/// [`ShardedQMax::run_supervised`].
///
/// Also supplies the restart budget and backoff schedule used by the
/// in-worker panic recovery path, so panic storms and stalls draw from
/// the same bounded per-shard budget.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Heartbeat silence (with batches pending) after which a shard is
    /// declared stalled and restarted. Half the deadline marks it
    /// [`ShardState::Suspect`] first.
    pub deadline: Duration,
    /// Supervisor sweep period; detection latency is at most
    /// `deadline + poll_interval`.
    pub poll_interval: Duration,
    /// Restarts (panic or stall) allowed per shard before permanent
    /// quarantine.
    pub max_restarts: u32,
    /// Backoff before restart attempt `n` is `backoff_base · 2ⁿ⁻¹`,
    /// scaled by the jitter factor.
    pub backoff_base: Duration,
    /// Jitter fraction: each backoff is multiplied by a deterministic
    /// pseudorandom factor in `[1, 1 + backoff_jitter]`, derived from
    /// `seed`, the shard index, and the attempt number.
    pub backoff_jitter: f64,
    /// Seed for the jitter generator — same seed, same backoff
    /// schedule, which is what keeps chaos runs reproducible.
    pub seed: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            deadline: Duration::from_millis(200),
            poll_interval: Duration::from_millis(20),
            max_restarts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_jitter: 0.5,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// A shard's position in the supervision state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Draining batches normally (also the post-recovery state).
    Healthy,
    /// Heartbeat silent with batches pending for at least half the
    /// watchdog deadline; not yet restarted.
    Suspect,
    /// Being restarted (attempt `n`, 1-based): backoff, warm restore,
    /// and — for stalls — worker replacement are in progress.
    Restarting(u32),
    /// Restart budget exhausted; the shard is permanently out of the
    /// run. At run end its slot is still warm-rebuilt from the last
    /// checkpoint.
    Quarantined,
}

/// One supervision state transition, stamped with run-relative time and
/// a live coverage estimate.
#[derive(Debug, Clone)]
pub struct LifecycleEvent {
    /// Shard the transition applies to.
    pub shard: usize,
    /// The state entered.
    pub state: ShardState,
    /// Time since the run started.
    pub at: Duration,
    /// Restart attempts consumed by this shard so far (panics and
    /// stalls combined).
    pub restarts: u32,
    /// Live coverage at the transition: the fraction of all drained
    /// (conserved) items held by shards that were healthy at that
    /// instant. Dips below 1.0 while a shard is suspect, restarting, or
    /// quarantined with state on board; returns to 1.0 once a warm
    /// restore re-adopts the shard's checkpoint.
    pub coverage: f64,
    /// Human-readable cause (panic message, "stall deadline exceeded",
    /// …).
    pub detail: String,
}

/// The ordered transition log of a supervised run.
#[derive(Debug, Clone, Default)]
pub struct ShardLifecycle {
    events: Vec<LifecycleEvent>,
}

impl ShardLifecycle {
    pub(crate) fn from_events(mut events: Vec<LifecycleEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        ShardLifecycle { events }
    }

    /// All transitions, ordered by time.
    pub fn events(&self) -> &[LifecycleEvent] {
        &self.events
    }

    /// Whether no transitions were recorded (a fully healthy run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Restart attempts recorded for shard `s`.
    pub fn restarts(&self, s: usize) -> u32 {
        self.events
            .iter()
            .filter(|e| e.shard == s)
            .filter_map(|e| match e.state {
                ShardState::Restarting(n) => Some(n),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// The last state recorded for shard `s` ([`ShardState::Healthy`]
    /// if the shard never left it).
    pub fn final_state(&self, s: usize) -> ShardState {
        self.events
            .iter()
            .rev()
            .find(|e| e.shard == s)
            .map(|e| e.state)
            .unwrap_or(ShardState::Healthy)
    }

    /// The lowest live coverage observed across all transitions (1.0
    /// for a healthy run).
    pub fn min_coverage(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.coverage)
            .fold(1.0f64, f64::min)
    }
}

/// splitmix64 — the repo-standard deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic exponential backoff with jitter: `base · 2ⁿ⁻¹ ·
/// jitter(seed, shard, n)`, capped at 5 s.
fn backoff_delay(wd: &WatchdogConfig, shard: usize, attempt: u32) -> Duration {
    let doubling = attempt.saturating_sub(1).min(16);
    let base = wd.backoff_base.saturating_mul(1u32 << doubling);
    let r = splitmix64(wd.seed ^ ((shard as u64) << 32) ^ attempt as u64);
    let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 + wd.backoff_jitter.max(0.0) * unit;
    base.mul_f64(factor).min(Duration::from_secs(5))
}

/// Latest checkpoint for one shard, plus the cumulative counters at
/// snapshot time (needed to reclassify post-checkpoint progress as lost
/// on recovery).
struct CkptSlot<I, V> {
    snap: Option<BackendSnapshot<I, V>>,
    drained_at: u64,
    admitted_at: u64,
}

impl<I, V> CkptSlot<I, V> {
    fn new() -> Self {
        CkptSlot {
            snap: None,
            drained_at: 0,
            admitted_at: 0,
        }
    }
}

/// A shard's current batch ring producer, swappable on failover and
/// cleared on permanent quarantine or shutdown. Retiring a producer
/// (see [`SupShared::retire_producer`]) folds its ring high-water into
/// the shard's accumulator before the drop closes the ring.
type SenderSlot<I, V> = Mutex<Option<ring::Producer<Vec<(I, V)>>>>;

/// Everything the producer, workers, and supervisor share for one
/// supervised run. Stack-allocated outside the thread scope and
/// borrowed in.
struct SupShared<I, V, B> {
    /// Current sender per shard; `None` once the shard is permanently
    /// quarantined or the run is shutting down.
    slots: Vec<SenderSlot<I, V>>,
    /// Current worker generation per shard; a worker whose generation
    /// no longer matches counts everything it receives as quarantined.
    gens: Vec<AtomicU64>,
    /// Recovery-step heartbeat bumps (warm restores), never reset. The
    /// batch-level heartbeat is the current ring's consumption counter
    /// ([`ring::Producer::consumed`]); the watchdog sums the two.
    hearts: Vec<AtomicU64>,
    /// Peak ring occupancy per shard, folded across worker generations
    /// as producers are retired (failover, quarantine, shutdown).
    ring_hw: Vec<AtomicU64>,
    /// Batches handed to a worker but not yet fully processed.
    pending: Vec<AtomicI64>,
    /// Set while a worker is self-restoring after a panic, so the
    /// watchdog does not count backoff sleep as a stall.
    restoring: Vec<AtomicBool>,
    /// Whether the shard currently counts toward live coverage.
    healthy: Vec<AtomicBool>,
    drained: Vec<AtomicU64>,
    admitted: Vec<AtomicU64>,
    quarantined: Vec<AtomicU64>,
    /// Candidate entries re-adopted from checkpoints by warm restores.
    recovered: Vec<AtomicU64>,
    /// Restart attempts consumed (panics + stalls).
    restarts: Vec<AtomicU32>,
    ckpts: Vec<Mutex<CkptSlot<I, V>>>,
    events: Mutex<Vec<LifecycleEvent>>,
    fail_msgs: Vec<Mutex<Option<String>>>,
    /// Final backend of each shard's surviving generation.
    outcomes: Mutex<Vec<(usize, B)>>,
    live_workers: AtomicUsize,
    /// Set by the producer before it starts closing channels; the
    /// supervisor stops spawning replacements once it is up.
    closing: AtomicBool,
    start: Instant,
}

impl<I, V, B> SupShared<I, V, B> {
    fn new(n: usize) -> Self {
        SupShared {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            gens: (0..n).map(|_| AtomicU64::new(0)).collect(),
            hearts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            ring_hw: (0..n).map(|_| AtomicU64::new(0)).collect(),
            pending: (0..n).map(|_| AtomicI64::new(0)).collect(),
            restoring: (0..n).map(|_| AtomicBool::new(false)).collect(),
            healthy: (0..n).map(|_| AtomicBool::new(true)).collect(),
            drained: (0..n).map(|_| AtomicU64::new(0)).collect(),
            admitted: (0..n).map(|_| AtomicU64::new(0)).collect(),
            quarantined: (0..n).map(|_| AtomicU64::new(0)).collect(),
            recovered: (0..n).map(|_| AtomicU64::new(0)).collect(),
            restarts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            ckpts: (0..n).map(|_| Mutex::new(CkptSlot::new())).collect(),
            events: Mutex::new(Vec::new()),
            fail_msgs: (0..n).map(|_| Mutex::new(None)).collect(),
            outcomes: Mutex::new(Vec::new()),
            live_workers: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
            start: Instant::now(),
        }
    }

    /// Live coverage: fraction of all drained (conserved) items held by
    /// currently-healthy shards. 1.0 before anything drains.
    fn live_coverage(&self) -> f64 {
        let mut total = 0u64;
        let mut represented = 0u64;
        for s in 0..self.drained.len() {
            let d = self.drained[s].load(Ordering::SeqCst);
            total += d;
            if self.healthy[s].load(Ordering::SeqCst) {
                represented += d;
            }
        }
        if total == 0 {
            1.0
        } else {
            represented as f64 / total as f64
        }
    }

    fn push_event(&self, shard: usize, state: ShardState, detail: impl Into<String>) {
        let event = LifecycleEvent {
            shard,
            state,
            at: self.start.elapsed(),
            restarts: self.restarts[shard].load(Ordering::SeqCst),
            coverage: self.live_coverage(),
            detail: detail.into(),
        };
        self.events.lock().unwrap().push(event);
    }

    /// Rolls the shard's drained/admitted counters back to the last
    /// checkpoint, charging the difference to the quarantine bucket.
    /// Called with the generation already fenced (no live writer), so
    /// the plain store does not race a worker's increment.
    fn reclassify_to_checkpoint(&self, s: usize, slot: &CkptSlot<I, V>) {
        let lost = self.drained[s]
            .load(Ordering::SeqCst)
            .saturating_sub(slot.drained_at);
        self.drained[s].store(slot.drained_at, Ordering::SeqCst);
        self.admitted[s].store(slot.admitted_at, Ordering::SeqCst);
        self.quarantined[s].fetch_add(lost, Ordering::SeqCst);
    }

    /// Permanently quarantines shard `s` from its own worker: fences
    /// the generation, retires the ring (the producer sees it close and
    /// orphans the rest of the sub-stream), rolls progress back to the
    /// last checkpoint, and records the failure message.
    fn quarantine(&self, s: usize, checkpointing: bool, msg: String) {
        self.healthy[s].store(false, Ordering::SeqCst);
        self.gens[s].fetch_add(1, Ordering::SeqCst);
        self.retire_producer(s, &mut self.slots[s].lock().unwrap());
        if checkpointing {
            let slot = self.ckpts[s].lock().unwrap();
            self.reclassify_to_checkpoint(s, &slot);
        }
        *self.fail_msgs[s].lock().unwrap() = Some(msg.clone());
        self.push_event(s, ShardState::Quarantined, msg);
    }

    /// Retires a shard's current ring producer: folds the ring's
    /// high-water occupancy into the cross-generation accumulator,
    /// then drops the handle (which closes the ring, ending — or
    /// eventually ending, for a stalled worker — its drain loop).
    fn retire_producer(&self, s: usize, guard: &mut Option<ring::Producer<Vec<(I, V)>>>) {
        if let Some(producer) = guard.take() {
            self.ring_hw[s].fetch_max(producer.high_water(), Ordering::SeqCst);
        }
    }
}

/// One supervised worker generation: drains batches, checkpoints on
/// cadence, and warm-restores itself in place after a caught panic
/// while restart budget remains.
#[allow(clippy::too_many_arguments)]
fn supervised_worker<I, V, B>(
    sh: &SupShared<I, V, B>,
    s: usize,
    my_gen: u64,
    backend: B,
    mut rx: ring::Consumer<Vec<(I, V)>>,
    ckpt_every: Option<u64>,
    wd: WatchdogConfig,
    pin_core: Option<usize>,
) where
    V: Ord,
    B: BatchInsert<I, V> + Checkpoint<I, V>,
{
    // Counts this worker out however it exits, unwinding included: the
    // producer's shutdown waits for the count to reach zero.
    struct Exit<'a>(&'a AtomicUsize);
    impl Drop for Exit<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _exit = Exit(&sh.live_workers);
    if let Some(core) = pin_core {
        ring::pin_current_thread(core);
    }
    let mut live = Some(backend);
    let mut since_ckpt = 0u64;
    while let Some(batch) = rx.recv() {
        let len = batch.len() as u64;
        let mine = sh.gens[s].load(Ordering::SeqCst) == my_gen;
        match (mine, live.take()) {
            (false, b) => {
                // Abandoned by a stall failover: the replacement owns
                // the shard now; this sub-stream remainder is lost.
                sh.quarantined[s].fetch_add(len, Ordering::SeqCst);
                drop(b);
            }
            (true, None) => {
                // Permanently quarantined earlier in this loop.
                sh.quarantined[s].fetch_add(len, Ordering::SeqCst);
            }
            (true, Some(mut b)) => {
                match catch_unwind(AssertUnwindSafe(|| drain_batch(&mut b, batch))) {
                    Ok(admitted) => {
                        if sh.gens[s].load(Ordering::SeqCst) != my_gen {
                            // Swapped out mid-batch; the effect is
                            // discarded with this backend.
                            sh.quarantined[s].fetch_add(len, Ordering::SeqCst);
                            drop(b);
                        } else {
                            sh.drained[s].fetch_add(len, Ordering::SeqCst);
                            sh.admitted[s].fetch_add(admitted, Ordering::SeqCst);
                            // No explicit heartbeat: popping the batch
                            // already advanced the ring's consumption
                            // counter, which is what the watchdog reads.
                            since_ckpt += len;
                            if ckpt_every.is_some_and(|k| since_ckpt >= k) {
                                since_ckpt = 0;
                                match catch_unwind(AssertUnwindSafe(|| b.snapshot())) {
                                    Ok(snap) => {
                                        let mut slot = sh.ckpts[s].lock().unwrap();
                                        slot.snap = Some(snap);
                                        slot.drained_at = sh.drained[s].load(Ordering::SeqCst);
                                        slot.admitted_at = sh.admitted[s].load(Ordering::SeqCst);
                                        drop(slot);
                                        live = Some(b);
                                    }
                                    Err(payload) => {
                                        let msg = panic_message(payload);
                                        sh.quarantine(s, true, format!("snapshot: {msg}"));
                                    }
                                }
                            } else {
                                live = Some(b);
                            }
                        }
                    }
                    Err(payload) => {
                        let msg = panic_message(payload);
                        sh.quarantined[s].fetch_add(len, Ordering::SeqCst);
                        sh.healthy[s].store(false, Ordering::SeqCst);
                        let attempt = sh.restarts[s].fetch_add(1, Ordering::SeqCst) + 1;
                        if ckpt_every.is_some() && attempt <= wd.max_restarts {
                            sh.restoring[s].store(true, Ordering::SeqCst);
                            {
                                let slot = sh.ckpts[s].lock().unwrap();
                                sh.reclassify_to_checkpoint(s, &slot);
                            }
                            sh.push_event(s, ShardState::Restarting(attempt), msg);
                            thread::sleep(backoff_delay(&wd, s, attempt));
                            // The restore runs under `catch_unwind`
                            // inside the lock, so a panicking restore
                            // cannot poison the checkpoint slot.
                            let restored = {
                                let slot = sh.ckpts[s].lock().unwrap();
                                catch_unwind(AssertUnwindSafe(|| match &slot.snap {
                                    Some(snap) => {
                                        b.restore(snap);
                                        snap.len() as u64
                                    }
                                    None => {
                                        b.restore(&BackendSnapshot::empty());
                                        0
                                    }
                                }))
                            };
                            sh.restoring[s].store(false, Ordering::SeqCst);
                            match restored {
                                Ok(entries) => {
                                    sh.recovered[s].fetch_add(entries, Ordering::SeqCst);
                                    since_ckpt = 0;
                                    sh.healthy[s].store(true, Ordering::SeqCst);
                                    sh.hearts[s].fetch_add(1, Ordering::SeqCst);
                                    sh.push_event(s, ShardState::Healthy, "warm restore complete");
                                    live = Some(b);
                                }
                                Err(payload) => {
                                    let msg = panic_message(payload);
                                    sh.quarantine(s, true, format!("restore: {msg}"));
                                }
                            }
                        } else {
                            // Budget exhausted (or checkpointing off):
                            // permanent quarantine.
                            sh.quarantine(s, ckpt_every.is_some(), msg);
                        }
                    }
                }
            }
        }
        sh.pending[s].fetch_sub(1, Ordering::SeqCst);
    }
    if let Some(b) = live {
        if sh.gens[s].load(Ordering::SeqCst) == my_gen {
            sh.outcomes.lock().unwrap().push((s, b));
        }
    }
}

impl<I, V, B> ShardedQMax<I, V, B>
where
    I: ShardKey + Send,
    V: Ord + Clone + Send,
    B: BatchInsert<I, V> + Checkpoint<I, V> + Send,
{
    /// [`ShardedQMax::run_threaded`] with supervision: checkpointed
    /// warm recovery for panicking shards, a stall watchdog with
    /// bounded-backoff worker replacement, and a full
    /// [`ShardLifecycle`] transition log on the report.
    ///
    /// * With [`DriverConfig::checkpoint_every`] set, each worker
    ///   snapshots its backend on that drained-item cadence (at batch
    ///   boundaries) and a panicking shard warm-restores from the last
    ///   checkpoint in place, losing at most one checkpoint interval
    ///   plus the in-flight batch. Without it, panics take the same
    ///   cold-quarantine path as [`ShardedQMax::run_threaded`].
    /// * With [`DriverConfig::watchdog`] set, a supervisor thread
    ///   replaces stalled workers (heartbeat silent past the deadline
    ///   with batches pending) from pre-stamped spare backends, warm
    ///   restored from the last checkpoint, after exponential backoff
    ///   with deterministic jitter.
    /// * Either way, a shard that exhausts
    ///   [`WatchdogConfig::max_restarts`] is permanently quarantined;
    ///   its slot is still warm-rebuilt from its last checkpoint after
    ///   the run (cold only if no checkpoint was ever taken).
    ///
    /// After the run, [`ShardedQMax::query_with_coverage`] annotates
    /// merged queries with the surviving coverage fraction.
    pub fn run_supervised<S>(&mut self, stream: S, config: DriverConfig) -> DriverReport
    where
        S: Iterator<Item = (I, V)>,
    {
        let n = self.shard_count();
        let batch_size = config.batch_size.max(1);
        let queue_depth = config.queue_depth.max(1);
        let ckpt_every = config.checkpoint_every;
        let wd = config.watchdog.unwrap_or_default();
        let watchdog_on = config.watchdog.is_some();
        let pin_threads = config.pin_threads;
        let shards = self.take_shards();
        let router = self.router();
        // Spares for stall failover are stamped out of the factory up
        // front: the factory borrows `self` mutably and cannot be
        // called once the backends are inside the scope.
        let spares: Mutex<Vec<Vec<B>>> = Mutex::new(if watchdog_on {
            (0..n)
                .map(|s| (0..wd.max_restarts).map(|_| self.fresh_shard(s)).collect())
                .collect()
        } else {
            (0..n).map(|_| Vec::new()).collect()
        });
        let sh: SupShared<I, V, B> = SupShared::new(n);
        let done = AtomicBool::new(false);
        let mut per_shard_dropped = vec![0u64; n];
        let mut orphaned = vec![0u64; n];
        let start = Instant::now();
        let per_shard_items = thread::scope(|scope| {
            let sh = &sh;
            let spares = &spares;
            let done = &done;
            for (s, backend) in shards.into_iter().enumerate() {
                let (tx, rx) = ring::ring::<Vec<(I, V)>>(queue_depth);
                *sh.slots[s].lock().unwrap() = Some(tx);
                sh.live_workers.fetch_add(1, Ordering::SeqCst);
                let pin = pin_plan(config.pin_threads, s);
                scope.spawn(move || supervised_worker(sh, s, 0, backend, rx, ckpt_every, wd, pin));
            }
            if watchdog_on {
                scope.spawn(move || {
                    let mut last_heart = vec![0u64; n];
                    let mut last_change = vec![Instant::now(); n];
                    let mut suspect = vec![false; n];
                    while !done.load(Ordering::SeqCst) {
                        thread::sleep(wd.poll_interval);
                        let now = Instant::now();
                        for s in 0..n {
                            if sh.closing.load(Ordering::SeqCst) {
                                break;
                            }
                            // The batch-level heartbeat is the live
                            // ring's consumption counter; recovery
                            // steps add explicit bumps on top.
                            let consumed = {
                                let guard = sh.slots[s].lock().unwrap();
                                match guard.as_ref() {
                                    None => continue, // permanently quarantined
                                    Some(producer) => producer.consumed(),
                                }
                            };
                            let h = consumed + sh.hearts[s].load(Ordering::SeqCst);
                            if h != last_heart[s] || sh.restoring[s].load(Ordering::SeqCst) {
                                last_heart[s] = h;
                                last_change[s] = now;
                                if suspect[s] {
                                    suspect[s] = false;
                                    sh.healthy[s].store(true, Ordering::SeqCst);
                                    sh.push_event(s, ShardState::Healthy, "heartbeat resumed");
                                }
                                continue;
                            }
                            if sh.pending[s].load(Ordering::SeqCst) <= 0 {
                                // Idle, not stalled: nothing to drain.
                                last_change[s] = now;
                                continue;
                            }
                            let silent = now.duration_since(last_change[s]);
                            if !suspect[s] && silent >= wd.deadline / 2 {
                                suspect[s] = true;
                                sh.healthy[s].store(false, Ordering::SeqCst);
                                sh.push_event(
                                    s,
                                    ShardState::Suspect,
                                    "heartbeat silent with batches pending",
                                );
                            }
                            if silent < wd.deadline {
                                continue;
                            }
                            // Stall confirmed.
                            let attempt = sh.restarts[s].fetch_add(1, Ordering::SeqCst) + 1;
                            if attempt > wd.max_restarts {
                                sh.gens[s].fetch_add(1, Ordering::SeqCst);
                                sh.retire_producer(s, &mut sh.slots[s].lock().unwrap());
                                {
                                    let slot = sh.ckpts[s].lock().unwrap();
                                    sh.reclassify_to_checkpoint(s, &slot);
                                }
                                *sh.fail_msgs[s].lock().unwrap() = Some(format!(
                                    "stalled worker exceeded restart budget ({})",
                                    wd.max_restarts
                                ));
                                sh.push_event(
                                    s,
                                    ShardState::Quarantined,
                                    "stall restart budget exhausted",
                                );
                                suspect[s] = false;
                                continue;
                            }
                            sh.push_event(
                                s,
                                ShardState::Restarting(attempt),
                                "stall deadline exceeded",
                            );
                            thread::sleep(backoff_delay(&wd, s, attempt));
                            let spare = spares.lock().unwrap()[s].pop();
                            let Some(mut spare) = spare else { continue };
                            // Fence the stalled generation first so it
                            // can no longer commit progress, then roll
                            // the counters back to the checkpoint the
                            // replacement resumes from.
                            let new_gen = sh.gens[s].fetch_add(1, Ordering::SeqCst) + 1;
                            let restored = {
                                let slot = sh.ckpts[s].lock().unwrap();
                                sh.reclassify_to_checkpoint(s, &slot);
                                catch_unwind(AssertUnwindSafe(|| {
                                    if let Some(snap) = &slot.snap {
                                        spare.restore(snap);
                                        sh.recovered[s]
                                            .fetch_add(snap.len() as u64, Ordering::SeqCst);
                                    }
                                }))
                            };
                            if let Err(payload) = restored {
                                let msg = panic_message(payload);
                                sh.quarantine(s, true, format!("restore: {msg}"));
                                suspect[s] = false;
                                continue;
                            }
                            let (tx, rx) = ring::ring::<Vec<(I, V)>>(queue_depth);
                            {
                                let mut slot = sh.slots[s].lock().unwrap();
                                if sh.closing.load(Ordering::SeqCst) {
                                    // Shutdown raced the failover: the
                                    // stalled worker will drain its
                                    // leftovers into quarantine; do not
                                    // bring a replacement online.
                                    continue;
                                }
                                // Fold the stalled generation's ring
                                // high-water (pinned at capacity while
                                // the producer beat against it), then
                                // swap in the fresh ring.
                                sh.retire_producer(s, &mut slot);
                                *slot = Some(tx);
                            }
                            sh.live_workers.fetch_add(1, Ordering::SeqCst);
                            let pin = pin_plan(pin_threads, s);
                            scope.spawn(move || {
                                supervised_worker(sh, s, new_gen, spare, rx, ckpt_every, wd, pin)
                            });
                            sh.healthy[s].store(true, Ordering::SeqCst);
                            suspect[s] = false;
                            last_heart[s] = sh.hearts[s].load(Ordering::SeqCst);
                            last_change[s] = Instant::now();
                            sh.push_event(
                                s,
                                ShardState::Healthy,
                                "replacement worker online after warm restore",
                            );
                        }
                    }
                });
            }
            // Producer: the shared route/batch loop. Pushes never hold
            // the slot lock while waiting out a full ring, so the
            // supervisor can always swap a stalled shard's ring
            // underneath us. A full-ring `try_push` records the
            // at-capacity occupancy in the ring's high-water mark —
            // which is how a stall becomes visible as backpressure.
            let per_shard_items = route_batches(router, n, stream, batch_size, |s, batch| {
                let len = batch.len() as u64;
                let mut held = batch;
                loop {
                    {
                        let mut guard = sh.slots[s].lock().unwrap();
                        let Some(tx) = guard.as_mut().filter(|tx| !tx.consumer_gone()) else {
                            orphaned[s] += len;
                            return;
                        };
                        match tx.try_push(held) {
                            Ok(()) => {
                                sh.pending[s].fetch_add(1, Ordering::SeqCst);
                                return;
                            }
                            Err(batch) => held = batch, // ring full
                        }
                    }
                    if config.overload.try_shed(&mut per_shard_dropped[s], len) {
                        return;
                    }
                    thread::sleep(Duration::from_micros(200));
                }
            });
            // Shutdown: fence the supervisor out of new failovers, then
            // retire every ring (folding its high-water and closing
            // it). Re-retiring in the wait loop catches a producer a
            // failover installed in the race window.
            sh.closing.store(true, Ordering::SeqCst);
            while {
                for s in 0..n {
                    sh.retire_producer(s, &mut sh.slots[s].lock().unwrap());
                }
                sh.live_workers.load(Ordering::SeqCst) > 0
            } {
                thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::SeqCst);
            per_shard_items
        });
        let elapsed = start.elapsed();

        // Reassemble the engine: surviving generation backends slot
        // back in; permanently quarantined shards warm-rebuild from
        // their last checkpoint (cold only if none was ever taken).
        let mut finals: Vec<Option<B>> = (0..n).map(|_| None).collect();
        for (s, b) in sh.outcomes.into_inner().unwrap() {
            finals[s] = Some(b);
        }
        let per_shard_recovered: Vec<u64> = sh
            .recovered
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect();
        let mut per_shard_recovered = per_shard_recovered;
        let restarts: Vec<u32> = sh
            .restarts
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect();
        let per_shard_drained: Vec<u64> = sh
            .drained
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect();
        let per_shard_admitted: Vec<u64> = sh
            .admitted
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect();
        let mut per_shard_quarantined: Vec<u64> = sh
            .quarantined
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect();
        let mut failures = Vec::new();
        let mut returned = Vec::with_capacity(n);
        let mut health = Vec::with_capacity(n);
        let ckpt_slots: Vec<CkptSlot<I, V>> = sh
            .ckpts
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        let fail_msgs: Vec<Option<String>> = sh
            .fail_msgs
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        for (s, slot) in ckpt_slots.into_iter().enumerate() {
            per_shard_quarantined[s] += orphaned[s];
            match finals[s].take() {
                Some(b) => {
                    returned.push(b);
                    health.push(if restarts[s] > 0 {
                        ShardHealth::Restored
                    } else {
                        ShardHealth::Healthy
                    });
                }
                None => {
                    let message = fail_msgs[s]
                        .clone()
                        .unwrap_or_else(|| "shard backend lost without a panic".to_string());
                    failures.push(ShardFailure {
                        shard: s,
                        message,
                        items_lost: per_shard_quarantined[s],
                    });
                    let mut fresh = self.fresh_shard(s);
                    let restored = slot.snap.as_ref().and_then(|snap| {
                        catch_unwind(AssertUnwindSafe(|| fresh.restore(snap)))
                            .ok()
                            .map(|()| snap.len() as u64)
                    });
                    match restored {
                        Some(entries) => {
                            per_shard_recovered[s] += entries;
                            health.push(ShardHealth::Restored);
                        }
                        None => {
                            if slot.snap.is_some() {
                                // The restore panicked midway: start cold.
                                fresh = self.fresh_shard(s);
                            }
                            health.push(ShardHealth::Degraded);
                        }
                    }
                    returned.push(fresh);
                }
            }
        }
        self.restore_shards(returned);
        self.set_coverage(health, per_shard_drained.clone());
        let per_shard_backend = self.shard_backend_labels();
        let per_shard_ring_high_water: Vec<u64> = sh
            .ring_hw
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect();
        DriverReport {
            items: per_shard_items.iter().sum(),
            elapsed,
            per_shard_items,
            per_shard_admitted,
            per_shard_drained,
            per_shard_dropped,
            per_shard_quarantined,
            per_shard_recovered,
            per_shard_ring_high_water,
            ring_capacity: queue_depth as u64,
            failures,
            per_shard_backend,
            lifecycle: ShardLifecycle::from_events(sh.events.into_inner().unwrap()),
        }
    }
}
