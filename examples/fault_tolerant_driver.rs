//! Fault-tolerant driver demo: runs the threaded sharded engine under a
//! scripted shard failure, a load-shedding scenario, and a supervised
//! warm-recovery scenario (checkpoints + stall watchdog), and prints the
//! failure-accounting reports as JSON (the artifact the CI chaos job
//! uploads).
//!
//! Run with: `cargo run --release --example fault_tolerant_driver [seed]`
//!
//! The optional seed varies both the stream and the fault schedules;
//! the same seed always reproduces the same failures (the blocking
//! overload policy makes each shard's sub-stream, and therefore its
//! offered-insert fault clock, deterministic).

use qmax_core::{AmortizedQMax, DeamortizedQMax, QMax};
use qmax_engine::fault::silence_fault_panics;
use qmax_engine::{
    DriverConfig, DriverReport, FaultSchedule, FaultyBackend, OverloadPolicy, ShardedQMax,
    WatchdogConfig,
};
use qmax_traces::gen::caida_like;

fn report_json(name: &str, seed: u64, config: &DriverConfig, report: &DriverReport) -> String {
    let failures: Vec<String> = report
        .failures
        .iter()
        .map(|f| {
            format!(
                r#"{{"shard":{},"items_lost":{},"message":{:?}}}"#,
                f.shard, f.items_lost, f.message
            )
        })
        .collect();
    let vec_json = |v: &[u64]| {
        let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        format!("[{}]", parts.join(","))
    };
    let shards = report.per_shard_items.len();
    let restarts: Vec<String> = (0..shards)
        .map(|s| report.lifecycle.restarts(s).to_string())
        .collect();
    let lifecycle: Vec<String> = report
        .lifecycle
        .events()
        .iter()
        .map(|e| {
            format!(
                r#"{{"shard":{},"state":{:?},"at_ms":{:.3},"restarts":{},"coverage":{:.4}}}"#,
                e.shard,
                format!("{:?}", e.state),
                e.at.as_secs_f64() * 1e3,
                e.restarts,
                e.coverage
            )
        })
        .collect();
    format!(
        concat!(
            r#"{{"scenario":{:?},"seed":{},"items":{},"dropped":{},"quarantined":{},"#,
            r#""recovered":{},"checkpoint_every":{},"#,
            r#""per_shard_items":{},"per_shard_drained":{},"per_shard_dropped":{},"#,
            r#""per_shard_quarantined":{},"per_shard_recovered":{},"restarts":[{}],"#,
            r#""min_coverage":{:.4},"max_load_factor":{:.4},"#,
            r#""throughput_mips":{:.2},"failures":[{}],"lifecycle":[{}]}}"#
        ),
        name,
        seed,
        report.items,
        report.dropped(),
        report.quarantined(),
        report.recovered(),
        config
            .checkpoint_every
            .map_or("null".to_string(), |k| k.to_string()),
        vec_json(&report.per_shard_items),
        vec_json(&report.per_shard_drained),
        vec_json(&report.per_shard_dropped),
        vec_json(&report.per_shard_quarantined),
        vec_json(&report.per_shard_recovered),
        restarts.join(","),
        report.lifecycle.min_coverage(),
        report.max_load_factor(),
        report.throughput_mips(),
        failures.join(","),
        lifecycle.join(",")
    )
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
    }
}

fn main() {
    let _silence = silence_fault_panics();
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let q = 512;
    let gamma = 0.25;
    let shards = 4;
    let items: Vec<(u64, u64)> = caida_like(1_000_000, seed)
        .map(|p| (p.flow().as_u64(), p.len as u64))
        .collect();

    // Scenario 1: one shard panics mid-stream under the blocking
    // policy; the others finish and the merged query still answers.
    let failing = (seed % shards as u64) as usize;
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, move |s| {
            let schedule = if s == failing {
                FaultSchedule::panic_at(200 + seed % 300)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(DeamortizedQMax::new(q, gamma), schedule)
        });
    let config = DriverConfig::default();
    let report = engine.run_threaded(items.iter().copied(), config);
    assert_eq!(report.failures.len(), 1, "scripted failure must fire");
    assert_balanced(&report);
    assert_eq!(engine.query().len(), q, "engine must stay queryable");
    println!("{}", report_json("one-shard-panic", seed, &config, &report));

    // Scenario 2: seeded chaos schedules on every shard under the
    // shedding policy; loss is budgeted, accounting still balances.
    let budget = 50_000u64;
    let mut chaotic: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, move |s| {
            FaultyBackend::new(
                DeamortizedQMax::new(q, gamma),
                FaultSchedule::seeded(seed.wrapping_mul(0x9E37).wrapping_add(s as u64), 256),
            )
        });
    let config = DriverConfig {
        batch_size: 256,
        queue_depth: 2,
        overload: OverloadPolicy::Shed {
            max_dropped: budget,
        },
        ..DriverConfig::default()
    };
    let report = chaotic.run_threaded(items.iter().copied(), config);
    assert_balanced(&report);
    for &d in &report.per_shard_dropped {
        assert!(d <= budget, "shed beyond budget");
    }
    let _ = chaotic.query();
    println!(
        "{}",
        report_json("seeded-chaos-shed", seed, &config, &report)
    );

    // Scenario 3: supervised run — one shard panics (warm-restored from
    // its last checkpoint in place) and another stalls long enough for
    // the watchdog to fail it over to a replacement under backoff. No
    // permanent failures: the lifecycle log carries the full
    // Suspect → Restarting → Healthy history and the recovered-entry
    // accounting bounds the loss to one checkpoint interval.
    let panicking = (seed % shards as u64) as usize;
    let stalling = ((seed + 1) % shards as u64) as usize;
    let mut supervised: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, {
            let mut builds = vec![0u32; shards];
            move |s| {
                builds[s] += 1;
                let schedule = if s == panicking && builds[s] == 1 {
                    FaultSchedule::panic_at(60_000 + seed % 5_000)
                } else if s == stalling && builds[s] == 1 {
                    FaultSchedule::stall_at(30_000, 400)
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(AmortizedQMax::new(q, gamma), schedule)
            }
        });
    let config = DriverConfig {
        batch_size: 1024,
        queue_depth: 2,
        overload: OverloadPolicy::Block,
        checkpoint_every: Some(1024),
        watchdog: Some(WatchdogConfig {
            deadline: std::time::Duration::from_millis(80),
            poll_interval: std::time::Duration::from_millis(10),
            backoff_base: std::time::Duration::from_millis(5),
            seed,
            ..WatchdogConfig::default()
        }),
    };
    let report = supervised.run_supervised(items.iter().copied(), config);
    assert_balanced(&report);
    assert!(
        report.failures.is_empty(),
        "supervision must recover both shards"
    );
    assert!(
        report.lifecycle.restarts(panicking) >= 1,
        "panic restart must be logged"
    );
    assert!(
        report.lifecycle.restarts(stalling) >= 1,
        "stall failover must be logged"
    );
    assert_eq!(supervised.query().len(), q, "engine must stay queryable");
    let annotated = supervised.query_with_coverage();
    assert_eq!(
        annotated.coverage, 1.0,
        "warm restores must recover full coverage"
    );
    println!(
        "{}",
        report_json("supervised-warm-recovery", seed, &config, &report)
    );
}
