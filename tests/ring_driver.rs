//! Battery for the SPSC-ring ingestion path of `run_threaded` and
//! `run_supervised`.
//!
//! Under the blocking overload policy every shard's sub-stream — and
//! therefore its offered-insert fault clock — is deterministic, so the
//! ring driver must agree with a per-shard sequential replay on the
//! *entire* failure-accounting report, not just totals. Shedding is
//! timing-dependent by design, so the shed scenarios check the
//! conservation invariant, the loss budget, and the occupancy evidence
//! (a shard can only shed once its ring high-water has hit capacity)
//! instead of exact equality.

use qmax_core::{AmortizedQMax, DeamortizedQMax, QMax};
use qmax_engine::fault::silence_fault_panics;
use qmax_engine::{
    BatchInsert, DriverConfig, DriverReport, FaultSchedule, FaultyBackend, OverloadPolicy,
    ShardedQMax, WatchdogConfig,
};
use qmax_traces::gen::random_u64_stream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const SEEDS: [u64; 3] = [1, 7, 23];

fn stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    random_u64_stream(n, seed)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect()
}

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
        assert!(
            report.per_shard_ring_high_water[s] <= report.ring_capacity,
            "shard {s} high-water exceeds ring capacity"
        );
    }
}

fn chaos_backend(seed: u64, q: usize, s: usize) -> FaultyBackend<DeamortizedQMax<u64, u64>> {
    FaultyBackend::new(
        DeamortizedQMax::new(q, 0.25),
        FaultSchedule::seeded(seed.wrapping_mul(0x9E37).wrapping_add(s as u64), 256),
    )
}

fn chaos_engine(
    seed: u64,
    q: usize,
    shards: usize,
) -> ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> {
    ShardedQMax::with_backends(q, shards, move |s| chaos_backend(seed, q, s))
}

/// What the threaded driver must report for one shard, replayed
/// sequentially.
#[derive(Debug, PartialEq)]
struct ShardReplay {
    items: u64,
    drained: u64,
    quarantined: u64,
    /// The first panic's message, if the shard failed.
    failure: Option<String>,
}

/// The sequential oracle: route with `shard_of`, cut each sub-stream
/// into `batch_size` batches in arrival order, and drain them into a
/// fresh backend under `catch_unwind`. The first panic drops the
/// backend; that batch and every later one count as quarantined.
/// Returns the per-shard accounting and the merged top-`q` values (a
/// failed shard contributes nothing, like its cold-rebuilt slot).
fn sequential_replay(
    seed: u64,
    q: usize,
    shards: usize,
    items: &[(u64, u64)],
    batch_size: usize,
) -> (Vec<ShardReplay>, Vec<u64>) {
    let router = chaos_engine(seed, q, shards);
    let mut subs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
    for &(id, v) in items {
        subs[router.shard_of(&id)].push((id, v));
    }
    let mut merged = Vec::new();
    let replays = subs
        .iter()
        .enumerate()
        .map(|(s, sub)| {
            let mut live = Some(chaos_backend(seed, q, s));
            let mut replay = ShardReplay {
                items: sub.len() as u64,
                drained: 0,
                quarantined: 0,
                failure: None,
            };
            for batch in sub.chunks(batch_size) {
                let len = batch.len() as u64;
                let Some(mut backend) = live.take() else {
                    replay.quarantined += len;
                    continue;
                };
                match catch_unwind(AssertUnwindSafe(|| backend.insert_batch(batch))) {
                    Ok(_) => {
                        replay.drained += len;
                        live = Some(backend);
                    }
                    Err(payload) => {
                        replay.quarantined += len;
                        replay.failure = Some(match payload.downcast::<String>() {
                            Ok(msg) => *msg,
                            Err(payload) => payload
                                .downcast_ref::<&str>()
                                .map_or_else(String::new, |m| m.to_string()),
                        });
                    }
                }
            }
            if let Some(mut backend) = live {
                merged.extend(backend.query().into_iter().map(|(_, v)| v));
            }
            replay
        })
        .collect();
    merged.sort_unstable_by(|a, b| b.cmp(a));
    merged.truncate(q);
    merged.sort_unstable();
    (replays, merged)
}

/// Blocking policy, seeded chaos on every shard: the ring driver and
/// the sequential replay must produce identical accounting — per-shard
/// items, drains, quarantines, failure records (shard, message, items
/// lost), and the merged reservoir — across the CI seed matrix.
#[test]
fn ring_driver_matches_sequential_replay_under_blocking_chaos() {
    let _silence = silence_fault_panics();
    let q = 256;
    let shards = 4;
    for seed in SEEDS {
        let items = stream(60_000, seed);
        let config = DriverConfig {
            batch_size: 256,
            queue_depth: 2,
            overload: OverloadPolicy::Block,
            ..DriverConfig::default()
        };
        let mut engine = chaos_engine(seed, q, shards);
        let report = engine.run_threaded(items.iter().copied(), config);
        let (replays, merged) = sequential_replay(seed, q, shards, &items, config.batch_size);

        assert_balanced(&report);
        assert_eq!(report.items, items.len() as u64, "seed {seed}");
        assert_eq!(
            report.per_shard_dropped,
            vec![0; shards],
            "seed {seed}: Block must never shed"
        );
        let observed: Vec<ShardReplay> = (0..shards)
            .map(|s| ShardReplay {
                items: report.per_shard_items[s],
                drained: report.per_shard_drained[s],
                quarantined: report.per_shard_quarantined[s],
                failure: report
                    .failures
                    .iter()
                    .find(|f| f.shard == s)
                    .map(|f| f.message.clone()),
            })
            .collect();
        assert_eq!(observed, replays, "seed {seed}: accounting diverged");
        for f in &report.failures {
            assert_eq!(
                f.items_lost, replays[f.shard].quarantined,
                "seed {seed}: shard {} items_lost diverged",
                f.shard
            );
        }
        assert_eq!(
            sorted_vals(engine.query()),
            merged,
            "seed {seed}: merged reservoirs diverged"
        );
    }
}

/// Full-ring shedding: a stalling shard backs its ring up to capacity
/// and the shed policy converts the overflow into budgeted, accounted
/// loss. Exact drop counts are timing-dependent, so the driver is held
/// to the invariants instead: conservation balance, the loss budget,
/// and the rule that a shard can only shed after its ring high-water
/// pinned at capacity.
#[test]
fn full_ring_shed_balances_and_shows_saturation() {
    let _silence = silence_fault_panics();
    let q = 256;
    let shards = 4;
    let budget = 30_000u64;
    for seed in SEEDS {
        let items = stream(80_000, seed);
        let stalling = (seed % shards as u64) as usize;
        let config = DriverConfig {
            batch_size: 64,
            queue_depth: 1,
            overload: OverloadPolicy::Shed {
                max_dropped: budget,
            },
            ..DriverConfig::default()
        };
        let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
            ShardedQMax::with_backends(q, shards, move |s| {
                let schedule = if s == stalling {
                    FaultSchedule::stall_at(2_000, 80)
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(DeamortizedQMax::new(q, 0.25), schedule)
            });
        let report = engine.run_threaded(items.iter().copied(), config);

        assert_balanced(&report);
        assert_eq!(report.items, items.len() as u64, "seed {seed}");
        // The shed budget bounds each shard's loss independently
        // (same contract the chaos example pins).
        for &d in &report.per_shard_dropped {
            assert!(d <= budget, "seed {seed}: shed beyond per-shard budget");
        }
        for s in 0..shards {
            if report.per_shard_dropped[s] > 0 {
                assert!(
                    report.saturated(s),
                    "seed {seed}: shard {s} shed without its ring high-water hitting capacity"
                );
            }
        }
        let _ = engine.query();
    }
}

/// PR 10's small-fix acceptance test: a watchdog-visible stall must
/// also be visible in the occupancy stats. The stalled worker stops
/// consuming, the blocked producer backs the ring up, and by the time
/// the watchdog fails the shard over its recorded ring high-water has
/// pinned at capacity — `DriverReport::saturated` returns true for
/// exactly that shard's stall even though the shard ends Healthy.
#[test]
fn stall_pins_ring_high_water_at_capacity_before_failover() {
    let _silence = silence_fault_panics();
    let q = 512;
    let shards = 4;
    let stalling = 1usize;
    let items = stream(200_000, 17);
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, {
            let mut builds = vec![0u32; shards];
            move |s| {
                builds[s] += 1;
                let schedule = if s == stalling && builds[s] == 1 {
                    FaultSchedule::stall_at(10_000, 300)
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(AmortizedQMax::new(q, 0.25), schedule)
            }
        });
    let config = DriverConfig {
        batch_size: 512,
        queue_depth: 2,
        overload: OverloadPolicy::Block,
        checkpoint_every: Some(1024),
        watchdog: Some(WatchdogConfig {
            deadline: Duration::from_millis(60),
            poll_interval: Duration::from_millis(10),
            backoff_base: Duration::from_millis(5),
            seed: 17,
            ..WatchdogConfig::default()
        }),
        pin_threads: false,
    };
    let report = engine.run_supervised(items.iter().copied(), config);
    assert_balanced(&report);
    assert!(
        report.lifecycle.restarts(stalling) >= 1,
        "watchdog must fail the stalled shard over"
    );
    assert!(
        report.saturated(stalling),
        "stalled shard's ring high-water must pin at capacity ({} < {})",
        report.per_shard_ring_high_water[stalling],
        report.ring_capacity
    );
    assert_eq!(engine.query().len(), q, "engine must stay queryable");
}

/// The pinning knob must not change any observable result — same
/// accounting, same reservoir — whether or not the scheduler honours
/// the affinity request (on a single-core host it is a near no-op).
#[test]
fn pinned_supervised_run_agrees_with_unpinned() {
    let q = 256;
    let shards = 2;
    let items = stream(30_000, 5);
    let run = |pin: bool| {
        let mut engine: ShardedQMax<u64, u64, AmortizedQMax<u64, u64>> =
            ShardedQMax::with_backends(q, shards, move |_| AmortizedQMax::new(q, 0.25));
        let config = DriverConfig {
            checkpoint_every: Some(2048),
            watchdog: Some(WatchdogConfig::default()),
            pin_threads: pin,
            ..DriverConfig::default()
        };
        let report = engine.run_supervised(items.iter().copied(), config);
        (report, sorted_vals(engine.query()))
    };
    let (unpinned, unpinned_vals) = run(false);
    let (pinned, pinned_vals) = run(true);
    assert_balanced(&unpinned);
    assert_balanced(&pinned);
    assert_eq!(unpinned.per_shard_items, pinned.per_shard_items);
    assert_eq!(unpinned.per_shard_drained, pinned.per_shard_drained);
    assert_eq!(unpinned_vals, pinned_vals);
}
