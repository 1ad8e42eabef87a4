//! Chaos property tests for the fault-tolerant shard driver.
//!
//! Each case derives a pseudorandom fault schedule per shard from a
//! seed — panics, simulated validation trips, stalls, or nothing — and
//! runs a heavy-tailed stream through `run_threaded`. Two invariants
//! must hold on *every* schedule:
//!
//! 1. **Exactness on survivors** (blocking policy): the merged result
//!    equals a sequential run restricted to the sub-streams of shards
//!    that finished healthy. Panic isolation must not perturb sibling
//!    shards by a single item.
//! 2. **Conservation**: every routed item is accounted exactly once —
//!    `items == drained + dropped + quarantined`, per shard and in
//!    aggregate — no matter which faults fired.
//! 3. **One producer loop**: `run_supervised` without checkpoints or a
//!    watchdog reports exactly what `run_threaded` reports.
//!
//! Fault-injected panics are deterministic in the *offered-insert*
//! clock of each shard, and the blocking policy makes each shard's
//! sub-stream identical run to run, so failures reproduce from the
//! case's seed alone.

use proptest::prelude::*;
use qmax_core::{AmortizedQMax, DeamortizedQMax, QMax};
use qmax_engine::fault::silence_fault_panics;
use qmax_engine::{
    DriverConfig, DriverReport, FaultSchedule, FaultyBackend, OverloadPolicy, ShardedQMax,
};
use qmax_traces::gen::caida_like;

/// Heavy-tailed (zipf-like flow sizes) keyed stream: flows reuse ids,
/// values are packet lengths.
fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    caida_like(n, seed)
        .map(|p| (p.flow().as_u64(), p.len as u64))
        .collect()
}

fn sorted_vals(pairs: Vec<(u64, u64)>) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

fn faulty_engine(
    q: usize,
    gamma: f64,
    shards: usize,
    fault_seed: u64,
    horizon: u64,
) -> ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> {
    ShardedQMax::with_backends(q, shards, move |s| {
        FaultyBackend::new(
            DeamortizedQMax::new(q, gamma),
            FaultSchedule::seeded(fault_seed.wrapping_add(s as u64), horizon),
        )
    })
}

fn check_balance(report: &DriverReport) {
    let mut drained = 0u64;
    let mut dropped = 0u64;
    let mut quarantined = 0u64;
    for s in 0..report.per_shard_items.len() {
        assert_eq!(
            report.per_shard_items[s],
            report.per_shard_drained[s]
                + report.per_shard_dropped[s]
                + report.per_shard_quarantined[s],
            "shard {s} accounting does not balance"
        );
        assert!(
            report.per_shard_admitted[s] <= report.per_shard_drained[s],
            "shard {s} admitted more than it drained"
        );
        assert!(
            report.per_shard_recovered[s] <= report.per_shard_quarantined[s],
            "shard {s}: recovered {} > quarantined {}",
            report.per_shard_recovered[s],
            report.per_shard_quarantined[s]
        );
        drained += report.per_shard_drained[s];
        dropped += report.per_shard_dropped[s];
        quarantined += report.per_shard_quarantined[s];
    }
    assert_eq!(report.items, drained + dropped + quarantined);
    assert_eq!(report.quarantined(), quarantined);
    assert_eq!(report.dropped(), dropped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Blocking policy: surviving shards match a sequential run over
    /// their ids exactly, failures only come from poisonous schedules,
    /// and the accounting balances.
    #[test]
    fn survivors_match_sequential_reference(
        fault_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        n in 200usize..3000,
        q in 1usize..48,
        shards in 1usize..6,
        batch_size in 1usize..128,
    ) {
        let _silence = silence_fault_panics();
        let gamma = 0.5;
        // Small horizon: triggers land inside the unfiltered
        // reservoir-fill phase, so poisonous schedules usually fire.
        let horizon = 48;
        let items = zipf_stream(n, stream_seed);
        let mut engine = faulty_engine(q, gamma, shards, fault_seed, horizon);
        let report = engine.run_threaded(items.iter().copied(), DriverConfig {
            batch_size,
            queue_depth: 2,
            overload: OverloadPolicy::Block,
            ..DriverConfig::default()
        });

        prop_assert_eq!(report.items, n as u64);
        prop_assert_eq!(report.dropped(), 0, "Block never sheds");
        check_balance(&report);

        // A shard can only fail if its schedule could poison it.
        for f in &report.failures {
            let schedule = FaultSchedule::seeded(
                fault_seed.wrapping_add(f.shard as u64),
                horizon,
            );
            prop_assert!(
                schedule.is_poisonous(),
                "shard {} failed on a non-poisonous schedule: {}",
                f.shard,
                f.message
            );
            prop_assert!(f.message.contains("fault-injected"));
            prop_assert_eq!(f.items_lost, report.per_shard_quarantined[f.shard]);
        }
        // Healthy shards lost nothing.
        for s in report.healthy_shards() {
            prop_assert_eq!(report.per_shard_quarantined[s], 0);
        }

        // Exactness: merged result == sequential run restricted to the
        // healthy shards' ids (same seed → same routing).
        let mut reference: ShardedQMax<u64, u64> = ShardedQMax::new(q, gamma, shards);
        for &(id, v) in &items {
            if report.is_healthy(reference.shard_of(&id)) {
                reference.insert(id, v);
            }
        }
        prop_assert_eq!(sorted_vals(engine.query()), sorted_vals(reference.query()));
    }

    /// Shedding policy: loss stays within the per-shard budget and the
    /// conservation invariant still balances with faults firing.
    #[test]
    fn shedding_balances_and_respects_budget(
        fault_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        n in 200usize..2000,
        q in 1usize..32,
        shards in 1usize..5,
        budget in 0u64..500,
    ) {
        let _silence = silence_fault_panics();
        let items = zipf_stream(n, stream_seed);
        let mut engine = faulty_engine(q, 0.5, shards, fault_seed, 48);
        let report = engine.run_threaded(items.iter().copied(), DriverConfig {
            batch_size: 16,
            queue_depth: 1,
            overload: OverloadPolicy::Shed { max_dropped: budget },
            ..DriverConfig::default()
        });
        prop_assert_eq!(report.items, n as u64);
        for (s, &d) in report.per_shard_dropped.iter().enumerate() {
            prop_assert!(d <= budget, "shard {} shed {} > budget {}", s, d, budget);
        }
        check_balance(&report);
        // The engine survives to answer queries whatever happened.
        let _ = engine.query();
    }

    /// Repeating a faulted run with the same seeds reproduces the same
    /// failures and the same merged result — the property that makes a
    /// chaos-CI failure debuggable from its seed.
    #[test]
    fn faulted_runs_are_reproducible(
        fault_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        n in 200usize..1500,
        shards in 1usize..5,
    ) {
        let _silence = silence_fault_panics();
        let q = 16;
        let items = zipf_stream(n, stream_seed);
        let config = DriverConfig {
            batch_size: 32,
            queue_depth: 2,
            overload: OverloadPolicy::Block,
            ..DriverConfig::default()
        };
        let mut a = faulty_engine(q, 0.5, shards, fault_seed, 48);
        let ra = a.run_threaded(items.iter().copied(), config);
        let mut b = faulty_engine(q, 0.5, shards, fault_seed, 48);
        let rb = b.run_threaded(items.iter().copied(), config);
        let fa: Vec<usize> = ra.failures.iter().map(|f| f.shard).collect();
        let fb: Vec<usize> = rb.failures.iter().map(|f| f.shard).collect();
        prop_assert_eq!(fa, fb);
        prop_assert_eq!(ra.per_shard_quarantined, rb.per_shard_quarantined);
        prop_assert_eq!(ra.per_shard_drained, rb.per_shard_drained);
        prop_assert_eq!(sorted_vals(a.query()), sorted_vals(b.query()));
    }

    /// One producer loop, two drivers: with checkpointing and the
    /// watchdog off, `run_supervised` takes the same cold-quarantine
    /// path as `run_threaded`, so under the blocking policy the two
    /// agree on every shard's routing, drain, admission, and
    /// quarantine counts, on which shards failed and why, and on the
    /// merged top-q.
    #[test]
    fn unsupervised_settings_make_both_drivers_agree(
        fault_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        n in 200usize..3000,
        q in 1usize..48,
        shards in 1usize..6,
        batch_size in 1usize..128,
    ) {
        let _silence = silence_fault_panics();
        let gamma = 0.5;
        let horizon = 48;
        let items = zipf_stream(n, stream_seed);
        let config = DriverConfig {
            batch_size,
            queue_depth: 2,
            overload: OverloadPolicy::Block,
            checkpoint_every: None,
            watchdog: None,
            ..DriverConfig::default()
        };
        let engine = || -> ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> {
            ShardedQMax::with_backends(q, shards, move |s| {
                FaultyBackend::new(
                    AmortizedQMax::new(q, gamma),
                    FaultSchedule::seeded(fault_seed.wrapping_add(s as u64), horizon),
                )
            })
        };
        let mut threaded = engine();
        let rt = threaded.run_threaded(items.iter().copied(), config);
        let mut supervised = engine();
        let rs = supervised.run_supervised(items.iter().copied(), config);

        check_balance(&rt);
        check_balance(&rs);
        prop_assert_eq!(&rt.per_shard_items, &rs.per_shard_items);
        prop_assert_eq!(&rt.per_shard_drained, &rs.per_shard_drained);
        prop_assert_eq!(&rt.per_shard_admitted, &rs.per_shard_admitted);
        prop_assert_eq!(&rt.per_shard_quarantined, &rs.per_shard_quarantined);
        let failed = |r: &DriverReport| -> Vec<(usize, String)> {
            r.failures.iter().map(|f| (f.shard, f.message.clone())).collect()
        };
        prop_assert_eq!(failed(&rt), failed(&rs));
        prop_assert_eq!(sorted_vals(threaded.query()), sorted_vals(supervised.query()));
    }

    /// Supervised runs with checkpointing: seeded one-shot faults never
    /// exhaust the restart budget, so no shard is ever permanently
    /// quarantined; the conservation invariant balances with the
    /// reclassified (post-checkpoint) losses included; recovered items
    /// are re-counted exactly once (`recovered ≤ quarantined`, checked
    /// in `check_balance`); and the whole run — restarts, accounting,
    /// merged result — reproduces from its seeds.
    #[test]
    fn supervised_warm_recovery_conserves_and_reproduces(
        fault_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        n in 200usize..2000,
        q in 1usize..32,
        shards in 1usize..5,
        // `recovered ≤ quarantined` is a theorem of configurations
        // where every failure costs at least one checkpoint's worth of
        // candidates: batch_size ≥ ⌈q(1+γ)⌉ = 48 here, so a recovery
        // never re-adopts more entries than the full batch it lost.
        // (With horizon 48 every poisonous trigger additionally fires
        // inside the shard's first batch, before its first checkpoint.)
        batch_size in 64usize..128,
        ckpt in 1u64..96,
    ) {
        let _silence = silence_fault_panics();
        let gamma = 0.5;
        let horizon = 48;
        let items = zipf_stream(n, stream_seed);
        let config = DriverConfig {
            batch_size,
            queue_depth: 2,
            overload: OverloadPolicy::Block,
            checkpoint_every: Some(ckpt),
            ..DriverConfig::default()
        };
        let supervised_engine = |seed: u64| -> ShardedQMax<
            u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>,
        > {
            ShardedQMax::with_backends(q, shards, move |s| {
                FaultyBackend::new(
                    AmortizedQMax::new(q, gamma),
                    FaultSchedule::seeded(seed.wrapping_add(s as u64), horizon),
                )
            })
        };
        let mut a = supervised_engine(fault_seed);
        let ra = a.run_supervised(items.iter().copied(), config);

        prop_assert_eq!(ra.items, n as u64);
        check_balance(&ra);
        // One-shot faults and a default restart budget of 3: every
        // panic warm-restores, so nothing is permanently quarantined.
        prop_assert!(ra.failures.is_empty(), "failures: {:?}", ra.failures);
        for s in 0..shards {
            prop_assert!(ra.lifecycle.restarts(s) <= 1, "one-shot fault, two restarts");
            if ra.lifecycle.restarts(s) == 0 {
                prop_assert_eq!(ra.per_shard_quarantined[s], 0);
                prop_assert_eq!(ra.per_shard_recovered[s], 0);
            }
        }
        // Warm restores leave every conserved item represented.
        let annotated = a.query_with_coverage();
        prop_assert_eq!(annotated.coverage, 1.0);

        // Reproducibility, including the recovered-entry accounting.
        let mut b = supervised_engine(fault_seed);
        let rb = b.run_supervised(items.iter().copied(), config);
        prop_assert_eq!(ra.per_shard_quarantined, rb.per_shard_quarantined);
        prop_assert_eq!(ra.per_shard_drained, rb.per_shard_drained);
        prop_assert_eq!(ra.per_shard_recovered, rb.per_shard_recovered);
        prop_assert_eq!(sorted_vals(a.query()), sorted_vals(b.query()));
    }
}
