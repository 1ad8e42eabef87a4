//! Ring-vs-mpsc transport contention microbench.
//!
//! Round-paired the same way the flow-table and backend benches are:
//! each round times the ring transport and the mpsc transport back to
//! back (alternating which goes first), the per-round ratio divides out
//! slow drift, and the median ratio is what the acceptance gate reads.
//!
//! P producer threads each send a fixed token budget round-robin across
//! S = 4 shard consumers. The ring side uses one SPSC ring per
//! producer × shard; the mpsc side clones one `SyncSender` per producer
//! into S shared `sync_channel`s sized to the same total buffering
//! (DEPTH × P slots per shard). This isolates the hand-off primitive;
//! the end-to-end driver path is measured by the repository benchmark's
//! `driver-caida` workload.
//!
//! When producers + consumers outnumber the hardware cores the absolute
//! numbers measure coordination overhead — syscalls, parking, scheduler
//! churn — not parallel speedup; the paired ratio is still meaningful
//! because both sides pay the same oversubscription tax.
//! `BENCH_ingest.json` records the host's core count next to the
//! numbers.

use crate::scale::Scale;
use crate::{fmt, Report};
use qmax_engine::ring;
use std::io::Write as _;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const DEPTH: usize = 8;
const TRANSPORT_ROUNDS: usize = 5;
const PRODUCER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Drains a fan-in of SPSC lanes the way the driver's worker loop
/// does: check closed *before* sweeping so a close observed here
/// cannot hide a push sequenced before it, drop lanes once closed
/// and drained, back off politely when every lane is idle.
fn drain_ring_lanes(mut lanes: Vec<ring::Consumer<u64>>) -> u64 {
    let mut popped = 0u64;
    let mut idle = 0u32;
    while !lanes.is_empty() {
        let mut progress = false;
        lanes.retain_mut(|rx| {
            let closed = rx.is_closed();
            while rx.try_pop().is_some() {
                popped += 1;
                progress = true;
            }
            !closed
        });
        if progress {
            idle = 0;
        } else {
            idle += 1;
            if idle < 32 {
                thread::yield_now();
            } else {
                thread::sleep(Duration::from_micros(50));
            }
        }
    }
    popped
}

/// P producers × S shard consumers over P×S SPSC rings; returns the
/// wall-clock for moving `producers * msgs_each` tokens.
fn transport_ring(producers: usize, msgs_each: u64) -> Duration {
    let mut producer_lanes: Vec<Vec<ring::Producer<u64>>> =
        (0..producers).map(|_| Vec::with_capacity(SHARDS)).collect();
    let mut consumer_lanes: Vec<Vec<ring::Consumer<u64>>> =
        (0..SHARDS).map(|_| Vec::with_capacity(producers)).collect();
    for lanes in producer_lanes.iter_mut() {
        for lane in consumer_lanes.iter_mut() {
            let (tx, rx) = ring::ring::<u64>(DEPTH);
            lanes.push(tx);
            lane.push(rx);
        }
    }
    let start = Instant::now();
    thread::scope(|scope| {
        let mut consumers = Vec::with_capacity(SHARDS);
        for lanes in consumer_lanes.drain(..) {
            consumers.push(scope.spawn(move || drain_ring_lanes(lanes)));
        }
        for mut lanes in producer_lanes.drain(..) {
            scope.spawn(move || {
                for i in 0..msgs_each {
                    let s = (i % SHARDS as u64) as usize;
                    let _ = lanes[s].push_wait(i);
                }
                // Producers drop here; Drop closes each ring.
            });
        }
        let moved: u64 = consumers
            .into_iter()
            .map(|c| c.join().expect("ring consumer panicked"))
            .sum();
        assert_eq!(
            moved,
            producers as u64 * msgs_each,
            "ring transport lost tokens"
        );
    });
    start.elapsed()
}

/// Same topology over S shared `sync_channel`s with cloned senders,
/// buffered to the same total slot count per shard.
fn transport_mpsc(producers: usize, msgs_each: u64) -> Duration {
    let mut senders: Vec<mpsc::SyncSender<u64>> = Vec::with_capacity(SHARDS);
    let mut receivers: Vec<mpsc::Receiver<u64>> = Vec::with_capacity(SHARDS);
    for _ in 0..SHARDS {
        let (tx, rx) = mpsc::sync_channel::<u64>(DEPTH * producers);
        senders.push(tx);
        receivers.push(rx);
    }
    let start = Instant::now();
    thread::scope(|scope| {
        let mut consumers = Vec::with_capacity(SHARDS);
        for rx in receivers.drain(..) {
            consumers.push(scope.spawn(move || {
                let mut popped = 0u64;
                while rx.recv().is_ok() {
                    popped += 1;
                }
                popped
            }));
        }
        for _ in 0..producers {
            let lanes: Vec<mpsc::SyncSender<u64>> = senders.clone();
            scope.spawn(move || {
                for i in 0..msgs_each {
                    let s = (i % SHARDS as u64) as usize;
                    let _ = lanes[s].send(i);
                }
            });
        }
        drop(senders); // last sender clones die with the producers
        let moved: u64 = consumers
            .into_iter()
            .map(|c| c.join().expect("mpsc consumer panicked"))
            .sum();
        assert_eq!(
            moved,
            producers as u64 * msgs_each,
            "mpsc transport lost tokens"
        );
    });
    start.elapsed()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

struct PairedRound {
    ring_mops: f64,
    mpsc_mops: f64,
    ratio: f64, // mpsc_time / ring_time; > 1.0 means the ring is faster
}

struct TransportSeries {
    producers: usize,
    rounds: Vec<PairedRound>,
}

fn mops(msgs: u64, d: Duration) -> f64 {
    msgs as f64 / d.as_secs_f64() / 1e6
}

fn round_json(rounds: &[PairedRound]) -> String {
    let parts: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                r#"{{"ring_mops":{:.3},"mpsc_mops":{:.3},"ratio":{:.4}}}"#,
                r.ring_mops, r.mpsc_mops, r.ratio
            )
        })
        .collect();
    format!("[{}]", parts.join(","))
}

fn ratio_median(rounds: &[PairedRound]) -> f64 {
    median(rounds.iter().map(|r| r.ratio).collect())
}

fn write_ingest_bench_json(transport: &[TransportSeries], msgs_total: u64) {
    let transport_json: Vec<String> = transport
        .iter()
        .map(|t| {
            format!(
                concat!(
                    r#"    {{"producers":{},"ring_mops_median":{:.3},"mpsc_mops_median":{:.3},"#,
                    r#""ratio_median":{:.4},"rounds":{}}}"#
                ),
                t.producers,
                median(t.rounds.iter().map(|r| r.ring_mops).collect()),
                median(t.rounds.iter().map(|r| r.mpsc_mops).collect()),
                ratio_median(&t.rounds),
                round_json(&t.rounds)
            )
        })
        .collect();
    let ratio_at = |p: usize| {
        transport
            .iter()
            .find(|t| t.producers == p)
            .map(|t| ratio_median(&t.rounds))
            .unwrap_or(0.0)
    };
    let (r4, r8) = (ratio_at(4), ratio_at(8));
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ingest\",\n",
            "  \"note\": \"Round-paired ring-vs-mpsc transport comparison. Each round times both transports back to back (alternating order); ratio = mpsc_time / ring_time, so > 1.0 means the SPSC ring hand-off is faster. Medians are across rounds.\",\n",
            "  \"machine_note\": \"P producers and {shards} consumers share nproc hardware threads; once P + {shards} > nproc the numbers are coordination overhead under oversubscription (spin/yield/park on the ring side, mutex + futex on the mpsc side), not parallel speedup. The paired ratio stays meaningful because both sides pay the same scheduling tax.\",\n",
            "  \"config\": {{\"nproc\": {nproc}, \"shards\": {shards}, \"ring_depth\": {depth}, \"mpsc_capacity_per_shard\": \"ring_depth * producers\", \"transport_rounds\": {trounds}, \"transport_msgs_per_round\": {msgs}}},\n",
            "  \"transport\": [\n{transport}\n  ],\n",
            "  \"acceptance\": {{\"criterion\": \"ring beats mpsc on the contention microbench at >= 4 producer threads (median paired ratio > 1.0)\", \"ratio_p4\": {r4:.4}, \"ratio_p8\": {r8:.4}, \"pass\": {pass}}}\n",
            "}}\n"
        ),
        nproc = nproc,
        shards = SHARDS,
        depth = DEPTH,
        trounds = TRANSPORT_ROUNDS,
        msgs = msgs_total,
        transport = transport_json.join(",\n"),
        r4 = r4,
        r8 = r8,
        pass = r4 > 1.0 && r8 > 1.0,
    );
    match std::fs::File::create("BENCH_ingest.json").and_then(|mut f| f.write_all(json.as_bytes()))
    {
        Ok(()) => eprintln!("[ingest] wrote BENCH_ingest.json"),
        Err(e) => eprintln!("[ingest] could not write BENCH_ingest.json: {e}"),
    }
}

/// Contention microbench: SPSC ring fan-in vs shared `sync_channel`
/// at 1/2/4/8 producer threads. Writes `results/ingest_contention.csv`
/// and `BENCH_ingest.json`.
pub fn ingest_contention(scale: &Scale) {
    println!("# Ingestion: SPSC ring fan-in vs shared mpsc channel (S=4 shards)");
    let msgs_total = scale.stream(800_000) as u64;
    let mut rep = Report::new(
        "ingest_contention",
        &["producers", "round", "ring_mops", "mpsc_mops", "ratio"],
    );

    let mut transport = Vec::new();
    for producers in PRODUCER_SWEEP {
        let msgs_each = msgs_total.div_ceil(producers as u64);
        let total = msgs_each * producers as u64;
        let mut rounds = Vec::with_capacity(TRANSPORT_ROUNDS);
        for round in 0..TRANSPORT_ROUNDS {
            // Alternate which side runs first so drift (thermal,
            // page-cache, scheduler state) cancels in the ratio.
            let (ring_t, mpsc_t) = if round % 2 == 0 {
                let r = transport_ring(producers, msgs_each);
                let m = transport_mpsc(producers, msgs_each);
                (r, m)
            } else {
                let m = transport_mpsc(producers, msgs_each);
                let r = transport_ring(producers, msgs_each);
                (r, m)
            };
            let paired = PairedRound {
                ring_mops: mops(total, ring_t),
                mpsc_mops: mops(total, mpsc_t),
                ratio: mpsc_t.as_secs_f64() / ring_t.as_secs_f64(),
            };
            rep.row(&[
                producers.to_string(),
                round.to_string(),
                fmt(paired.ring_mops),
                fmt(paired.mpsc_mops),
                fmt(paired.ratio),
            ]);
            rounds.push(paired);
        }
        println!(
            "  transport P={producers}: median ratio {:.3} (mpsc/ring, >1 = ring faster)",
            ratio_median(&rounds)
        );
        transport.push(TransportSeries { producers, rounds });
    }

    write_ingest_bench_json(&transport, msgs_total);
}
