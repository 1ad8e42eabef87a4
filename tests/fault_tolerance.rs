//! Acceptance tests for the fault-tolerant shard driver: a panicking
//! shard is quarantined and rebuilt while the rest of the engine keeps
//! measuring — the per-PMD independence the paper's deployment relies
//! on, made mechanical.

use qmax_core::{AmortizedQMax, BackendSnapshot, BatchInsert, Checkpoint, DeamortizedQMax, QMax};
use qmax_engine::fault::silence_fault_panics;
use qmax_engine::{
    DriverConfig, DriverReport, FaultSchedule, FaultyBackend, OverloadPolicy, ShardHealth,
    ShardState, ShardedQMax, WatchdogConfig,
};
use qmax_traces::gen::random_u64_stream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

fn sorted_vals(pairs: Vec<(u64, u64)>) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
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
            "shard {s} accounting does not balance"
        );
        assert!(report.per_shard_admitted[s] <= report.per_shard_drained[s]);
        // Warm restores re-adopt at most one checkpoint's candidate
        // entries (≤ the backend capacity), while every recovery
        // quarantines at least the in-flight batch — so recovery never
        // "creates" more items than the fault cost.
        assert!(
            report.per_shard_recovered[s] <= report.per_shard_quarantined[s],
            "shard {s}: recovered {} > quarantined {}",
            report.per_shard_recovered[s],
            report.per_shard_quarantined[s]
        );
    }
}

/// The pinned CI scenario: 100k items, one shard scripted to panic
/// mid-stream. The run completes without panicking, reports exactly one
/// failure, leaves the engine queryable, and the surviving shards'
/// merged top-q equals a sequential reference over the items routed to
/// healthy shards.
#[test]
fn one_shard_panic_is_isolated_and_reported() {
    let _silence = silence_fault_panics();
    let q = 256;
    let gamma = 0.25;
    let shards = 4;
    let failing = 2usize;
    let items: Vec<(u64, u64)> = random_u64_stream(100_000, 42)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();

    let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, move |s| {
            // The first ⌈q(1+γ)⌉ = 320 offered inserts reach the backend
            // unfiltered (no Ψ yet), so insert 300 is guaranteed to
            // arrive — mid-stream, while the reservoir is still filling.
            let schedule = if s == failing {
                FaultSchedule::panic_at(300)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(DeamortizedQMax::new(q, gamma), schedule)
        });

    let report = engine.run_threaded(items.iter().copied(), DriverConfig::default());

    assert_eq!(report.items, 100_000);
    assert_eq!(report.failures.len(), 1, "exactly one shard failure");
    let failure = &report.failures[0];
    assert_eq!(failure.shard, failing);
    assert!(
        failure.message.contains("fault-injected"),
        "unexpected panic message: {}",
        failure.message
    );
    assert_eq!(failure.items_lost, report.per_shard_quarantined[failing]);
    assert!(failure.items_lost > 0);
    assert_eq!(report.dropped(), 0, "Block policy never sheds");
    assert_balanced(&report);
    assert_eq!(report.healthy_shards().len(), shards - 1);

    // The engine is queryable and the quarantined slot is live + empty.
    assert!(engine.shards()[failing].is_empty());
    let got = sorted_vals(engine.query());
    assert_eq!(got.len(), q);

    // Sequential reference restricted to healthy-shard ids (same seed →
    // same routing).
    let mut reference: ShardedQMax<u64, u64> = ShardedQMax::new(q, gamma, shards);
    for &(id, v) in &items {
        if reference.shard_of(&id) != failing {
            reference.insert(id, v);
        }
    }
    assert_eq!(
        got,
        sorted_vals(reference.query()),
        "surviving shards diverged from the sequential reference"
    );

    // The rebuilt shard accepts new items immediately.
    let probe_id = (0..)
        .find(|id: &u64| engine.shard_of(id) == failing)
        .unwrap();
    engine.insert(probe_id, u64::MAX);
    let top = sorted_vals(engine.query());
    assert_eq!(top.last(), Some(&u64::MAX));
}

/// Every shard panicking still terminates the run: all items are
/// accounted, all shards report failures, and the engine comes back as
/// `S` empty-but-live reservoirs.
#[test]
fn all_shards_panicking_still_terminates() {
    let _silence = silence_fault_panics();
    let q = 16;
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, 3, move |_| {
            FaultyBackend::new(DeamortizedQMax::new(q, 0.5), FaultSchedule::panic_at(1))
        });
    let items: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i)).collect();
    let report = engine.run_threaded(items.into_iter(), DriverConfig::default());
    assert_eq!(report.failures.len(), 3);
    assert_eq!(report.quarantined(), 10_000);
    assert_eq!(report.max_load_factor(), 0.0);
    assert_balanced(&report);
    // Queryable (empty) afterwards. Note the rebuilt backends carry a
    // re-armed copy of the fault script — the factory stamps the shard
    // *as configured*, scripted faults included — so no insert probe
    // here: it would just fire `panic_at(1)` again.
    assert!(engine.query().is_empty());
    for s in engine.shards() {
        assert!(s.is_empty());
    }
}

/// A persistently slow shard under `Shed` completes with bounded,
/// budgeted loss and no failures; the healthy shard stays exact.
#[test]
fn stalled_shard_sheds_within_budget() {
    let _silence = silence_fault_panics();
    let q = 32;
    let budget = 5_000u64;
    let slow = 0usize;
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, 2, move |s| {
            let schedule = if s == slow {
                FaultSchedule::stall_every(64, 1)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(DeamortizedQMax::new(q, 0.5), schedule)
        });
    let items: Vec<(u64, u64)> = random_u64_stream(60_000, 5)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();
    let report = engine.run_threaded(
        items.iter().copied(),
        DriverConfig {
            batch_size: 32,
            queue_depth: 1,
            overload: OverloadPolicy::Shed {
                max_dropped: budget,
            },
            ..DriverConfig::default()
        },
    );
    assert!(report.failures.is_empty());
    for (s, &d) in report.per_shard_dropped.iter().enumerate() {
        assert!(d <= budget, "shard {s} shed {d} > budget {budget}");
    }
    assert_balanced(&report);
    // Stalls slow a shard but never corrupt it: the engine is fully
    // queryable and every drained item went through the normal insert
    // path, so the merged top-q is exact over the non-shed items — a
    // subset of the stream, hence bounded below by the top-q of any
    // particular subset we can name. The whole-stream maximum has a
    // 1/queue-ful chance of being shed, so assert on structure instead:
    // a full reservoir of q values came back.
    assert_eq!(sorted_vals(engine.query()).len(), q);
}

/// The upgraded one-shard-panic acceptance scenario: with checkpointing
/// enabled, the panicking shard warm-restores from its last checkpoint
/// and the post-recovery merged top-q differs from a sequential
/// reference **only** in the items offered to the failed shard after
/// that checkpoint — bounded loss, versus PR 4's whole-shard loss.
///
/// Batch boundaries are deterministic (single producer, `Block`
/// policy), the checkpoint cadence equals the batch size (a snapshot at
/// every batch boundary), and `panic_at(1800)` fires inside the failing
/// shard's 4th batch — so the lost set is exactly sub-stream positions
/// `[1536, 2048)` of the failing shard, and nothing else.
#[test]
fn one_shard_panic_warm_recovers_with_bounded_loss() {
    let _silence = silence_fault_panics();
    let q = 64;
    let gamma = 0.25;
    let shards = 4;
    let failing = 2usize;
    let batch = 512usize;
    let items: Vec<(u64, u64)> = random_u64_stream(100_000, 42)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();

    let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, move |s| {
            let schedule = if s == failing {
                FaultSchedule::panic_at(1800)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(AmortizedQMax::new(q, gamma), schedule)
        });

    let report = engine.run_supervised(
        items.iter().copied(),
        DriverConfig {
            batch_size: batch,
            checkpoint_every: Some(batch as u64),
            ..DriverConfig::default()
        },
    );

    // The shard recovered in place: no quarantined slot, one restart.
    assert!(report.failures.is_empty(), "warm restart is not a failure");
    assert_eq!(report.lifecycle.restarts(failing), 1);
    assert_eq!(report.lifecycle.final_state(failing), ShardState::Healthy);
    for s in (0..shards).filter(|&s| s != failing) {
        assert_eq!(report.lifecycle.restarts(s), 0);
    }
    // Exactly the panicking batch was lost; the checkpointed prefix was
    // re-adopted (once) by the warm restore.
    assert_eq!(report.per_shard_quarantined[failing], batch as u64);
    assert!(report.per_shard_recovered[failing] > 0);
    assert_balanced(&report);

    // Bounded loss: the merged top-q equals a sequential reference over
    // every item EXCEPT the failing shard's post-checkpoint batch
    // (sub-stream positions [1536, 2048) — `panic_at(1800)` fired in
    // the batch after the checkpoint at position 1536).
    let mut reference: ShardedQMax<u64, u64, AmortizedQMax<u64, u64>> =
        ShardedQMax::with_backends(q, shards, move |_| AmortizedQMax::new(q, gamma));
    let mut failing_pos = 0u64;
    for &(id, v) in &items {
        if reference.shard_of(&id) == failing {
            let lost = (1536..2048).contains(&failing_pos);
            failing_pos += 1;
            if lost {
                continue;
            }
        }
        reference.insert(id, v);
    }
    assert_eq!(
        sorted_vals(engine.query()),
        sorted_vals(reference.query()),
        "warm recovery lost more than the post-checkpoint batch"
    );

    // Coverage is whole again: the restored shard represents all of its
    // conserved items, and is flagged as restored (not exact-healthy).
    let annotated = engine.query_with_coverage();
    assert_eq!(annotated.coverage, 1.0);
    assert_eq!(annotated.degraded_shards, vec![failing]);
    assert_eq!(engine.shard_health()[failing], ShardHealth::Restored);
}

/// The seeded stall acceptance scenario: a one-shot 400 ms stall on one
/// shard. The watchdog flags the shard suspect, restarts it under
/// backoff within the deadline (while the stalled worker is still
/// asleep), live coverage dips below 1.0 during the outage, and the
/// warm-restored replacement brings coverage back to exactly 1.0.
#[test]
fn stall_watchdog_restarts_and_recovers_coverage() {
    let _silence = silence_fault_panics();
    let q = 64;
    let gamma = 0.25;
    let shards = 3;
    let stalled = 1usize;
    // Only the *first* backend built for the stalled shard carries the
    // stall script: replacement spares (stamped from the same factory)
    // come up clean, so the restarted shard does not re-stall.
    let mut builds = [0u32; 3];
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, move |s| {
            builds[s] += 1;
            let schedule = if s == stalled && builds[s] == 1 {
                FaultSchedule::stall_at(600, 400)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(AmortizedQMax::new(q, gamma), schedule)
        });
    let items: Vec<(u64, u64)> = random_u64_stream(60_000, 7)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();

    let report = engine.run_supervised(
        items.iter().copied(),
        DriverConfig {
            batch_size: 128,
            queue_depth: 2,
            checkpoint_every: Some(128),
            watchdog: Some(WatchdogConfig {
                deadline: Duration::from_millis(80),
                poll_interval: Duration::from_millis(10),
                max_restarts: 3,
                backoff_base: Duration::from_millis(5),
                backoff_jitter: 0.5,
                seed: 7,
            }),
            ..DriverConfig::default()
        },
    );

    // Detected and restarted exactly once, and the shard ended healthy.
    assert!(report.failures.is_empty());
    assert_eq!(report.lifecycle.restarts(stalled), 1);
    assert_eq!(report.lifecycle.final_state(stalled), ShardState::Healthy);
    let states: Vec<ShardState> = report
        .lifecycle
        .events()
        .iter()
        .filter(|e| e.shard == stalled)
        .map(|e| e.state)
        .collect();
    assert!(
        states.contains(&ShardState::Suspect),
        "watchdog never flagged the stalled shard suspect: {states:?}"
    );
    assert!(states.contains(&ShardState::Restarting(1)));

    // The restart happened while the stalled worker was still asleep:
    // its in-flight batch (and any queued leftovers) were abandoned
    // into the quarantine bucket, and the replacement re-adopted the
    // last checkpoint.
    assert!(report.per_shard_quarantined[stalled] >= 128);
    assert!(report.per_shard_recovered[stalled] > 0);
    assert_balanced(&report);

    // Live coverage dipped below 1.0 during the outage…
    assert!(
        report.lifecycle.min_coverage() < 1.0,
        "no coverage dip recorded: {:?}",
        report.lifecycle
    );
    // …and the warm restore brought it back to exactly 1.0: every
    // conserved item is represented by a healthy or restored shard.
    let annotated = engine.query_with_coverage();
    assert_eq!(annotated.coverage, 1.0);
    assert_eq!(annotated.degraded_shards, vec![stalled]);
    assert_eq!(engine.shard_health()[stalled], ShardHealth::Restored);
    assert_eq!(annotated.items.len(), q);
}

/// The engine's shared admission bound, derived by a query before a
/// supervised run, must not outlive the run. Here the failing shard
/// holds the whole global top-q (huge values) when the engine is
/// queried, then panics on its first batch of the run, before any
/// in-run checkpoint, and is warm-restored from the empty snapshot. The
/// merged top-q after the run must be exact over what the engine still
/// represents, although all of it lies far below the pre-run bound.
#[test]
fn supervised_restore_after_query_keeps_merged_top_q_exact() {
    let _silence = silence_fault_panics();
    let q = 32;
    let gamma = 0.25;
    let shards = 4;
    let failing = 1usize;
    let batch = 256usize;
    let router: ShardedQMax<u64, u64> = ShardedQMax::new(q, gamma, shards);
    let before: Vec<(u64, u64)> = (0..8_000u64)
        .map(|id| {
            let v = if router.shard_of(&id) == failing {
                1_000_000_000 + id
            } else {
                id % 1_000
            };
            (id, v)
        })
        .collect();
    let during: Vec<(u64, u64)> = random_u64_stream(20_000, 7)
        .enumerate()
        .map(|(i, v)| (100_000 + i as u64, v % 1_000_000))
        .collect();
    let build = |panic_at: Option<u64>| {
        ShardedQMax::with_backends(q, shards, move |s| {
            let schedule = match panic_at {
                Some(n) if s == failing => FaultSchedule::panic_at(n),
                _ => FaultSchedule::none(),
            };
            FaultyBackend::new(AmortizedQMax::new(q, gamma), schedule)
        })
    };
    // A fault-free dry run counts the failing shard's pre-run inserts,
    // so the real one panics on the first insert of the run.
    let mut dry: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> = build(None);
    for chunk in before.chunks(512) {
        dry.insert_batch(chunk);
    }
    let offered = dry.shards()[failing].offered();

    let mut engine = build(Some(offered + 1));
    for chunk in before.chunks(512) {
        engine.insert_batch(chunk);
    }
    let top = sorted_vals(engine.query());
    assert!(top.iter().all(|&v| v >= 1_000_000_000));
    let report = engine.run_supervised(
        during.iter().copied(),
        DriverConfig {
            batch_size: batch,
            checkpoint_every: Some(batch as u64),
            ..DriverConfig::default()
        },
    );
    assert_eq!(report.lifecycle.restarts(failing), 1);
    assert_eq!(report.per_shard_quarantined[failing], batch as u64);
    assert_eq!(report.per_shard_recovered[failing], 0);
    assert_balanced(&report);

    // Represented: every pre-run item off the failing shard, and every
    // run item except the failing shard's first (panicking) batch.
    let mut reference = AmortizedQMax::new(q, gamma);
    for &(id, v) in before
        .iter()
        .filter(|(id, _)| router.shard_of(id) != failing)
    {
        reference.insert(id, v);
    }
    let mut failing_pos = 0usize;
    for &(id, v) in &during {
        if router.shard_of(&id) == failing {
            failing_pos += 1;
            if failing_pos <= batch {
                continue;
            }
        }
        reference.insert(id, v);
    }
    assert_eq!(
        sorted_vals(engine.query()),
        sorted_vals(reference.query()),
        "a pre-run bound survived the supervised run"
    );
}

/// A backend whose checkpoint hooks can be scripted to panic.
struct BrokenCheckpoint<B> {
    inner: B,
    panic_on_snapshot: bool,
    panic_on_restore: bool,
}

impl<B: QMax<u64, u64>> QMax<u64, u64> for BrokenCheckpoint<B> {
    fn insert(&mut self, id: u64, val: u64) -> bool {
        self.inner.insert(id, val)
    }

    fn query(&mut self) -> Vec<(u64, u64)> {
        self.inner.query()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn q(&self) -> usize {
        self.inner.q()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn threshold(&self) -> Option<u64> {
        self.inner.threshold()
    }

    fn name(&self) -> &'static str {
        "broken-checkpoint"
    }
}

impl<B: BatchInsert<u64, u64>> BatchInsert<u64, u64> for BrokenCheckpoint<B> {
    fn insert_batch(&mut self, items: &[(u64, u64)]) -> usize {
        self.inner.insert_batch(items)
    }
}

impl<B: Checkpoint<u64, u64>> Checkpoint<u64, u64> for BrokenCheckpoint<B> {
    fn snapshot(&self) -> BackendSnapshot<u64, u64> {
        assert!(!self.panic_on_snapshot, "fault-injected: snapshot failed");
        self.inner.snapshot()
    }

    fn restore(&mut self, snap: &BackendSnapshot<u64, u64>) {
        assert!(!self.panic_on_restore, "fault-injected: restore failed");
        self.inner.restore(snap)
    }
}

/// Runs `run` on a helper thread and waits at most 60 s for it, so a
/// driver that never returns fails the test instead of hanging it.
fn returns_in_time<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(run());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("run_supervised did not return")
}

/// A shard whose `snapshot` panics at its first checkpoint is
/// quarantined like a panicking insert: the run returns, the shard is
/// reported as failed, and every shard's items still balance.
#[test]
fn panicking_snapshot_quarantines_the_shard() {
    let _silence = silence_fault_panics();
    let q = 64;
    let failing = 1usize;
    let report = returns_in_time(move || {
        let mut engine: ShardedQMax<u64, u64, BrokenCheckpoint<AmortizedQMax<u64, u64>>> =
            ShardedQMax::with_backends(q, 2, move |s| BrokenCheckpoint {
                inner: AmortizedQMax::new(q, 0.25),
                panic_on_snapshot: s == failing,
                panic_on_restore: false,
            });
        let items = random_u64_stream(100_000, 7)
            .enumerate()
            .map(|(i, v)| (i as u64, v));
        let report = engine.run_supervised(
            items,
            DriverConfig {
                checkpoint_every: Some(64),
                ..DriverConfig::default()
            },
        );
        assert_eq!(engine.query().len(), q, "the healthy shard still answers");
        report
    });
    assert_eq!(report.items, 100_000);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].shard, failing);
    assert!(report.failures[0].message.contains("snapshot failed"));
    assert_eq!(
        report.lifecycle.final_state(failing),
        ShardState::Quarantined
    );
    assert_eq!(
        report.lifecycle.final_state(1 - failing),
        ShardState::Healthy
    );
    assert_balanced(&report);
}

/// A shard that panics mid-stream and whose `restore` panics too cannot
/// warm-recover: it is quarantined, the post-run rebuild falls back to
/// a cold shard, and the run still returns with balanced accounting.
#[test]
fn panicking_restore_quarantines_the_shard() {
    let _silence = silence_fault_panics();
    let q = 64;
    let failing = 0usize;
    let report = returns_in_time(move || {
        let mut engine: ShardedQMax<
            u64,
            u64,
            BrokenCheckpoint<FaultyBackend<AmortizedQMax<u64, u64>>>,
        > = ShardedQMax::with_backends(q, 2, move |s| {
            let schedule = if s == failing {
                FaultSchedule::panic_at(1800)
            } else {
                FaultSchedule::none()
            };
            BrokenCheckpoint {
                inner: FaultyBackend::new(AmortizedQMax::new(q, 0.25), schedule),
                panic_on_snapshot: false,
                panic_on_restore: s == failing,
            }
        });
        let items = random_u64_stream(100_000, 9)
            .enumerate()
            .map(|(i, v)| (i as u64, v));
        let report = engine.run_supervised(
            items,
            DriverConfig {
                batch_size: 512,
                checkpoint_every: Some(512),
                ..DriverConfig::default()
            },
        );
        assert_eq!(engine.shard_health()[failing], ShardHealth::Degraded);
        report
    });
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].shard, failing);
    assert!(report.failures[0].message.contains("restore failed"));
    assert_eq!(
        report.lifecycle.final_state(failing),
        ShardState::Quarantined
    );
    assert_eq!(report.per_shard_recovered[failing], 0);
    assert_balanced(&report);
}
