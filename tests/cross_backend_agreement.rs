//! Integration: every reservoir backend must produce the same top-q
//! set on the same workload — random numbers and realistic packet
//! traces alike.

use qmax_core::{
    AdaptiveBackend, AmortizedQMax, DeamortizedQMax, DedupQMax, Entry, HeapQMax, IndexedHeapQMax,
    KeyedSkipListQMax, QMax, SkipListQMax, SoaAmortizedQMax, SoaDeamortizedQMax, SortedVecQMax,
};
use qmax_engine::{FaultSchedule, FaultyBackend, ShardedQMax};
use qmax_traces::gen::{caida_like, random_u64_stream, univ1_like};

fn top_vals(qm: &mut dyn QMax<u32, u64>) -> Vec<u64> {
    let mut v: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

fn check_agreement(stream: &[u64], q: usize) {
    let mut backends: Vec<Box<dyn QMax<u32, u64>>> = vec![
        Box::new(AmortizedQMax::new(q, 0.25)),
        Box::new(DeamortizedQMax::new(q, 0.25)),
        Box::new(AmortizedQMax::new(q, 1.7)),
        Box::new(DeamortizedQMax::new(q, 0.03)),
        Box::new(HeapQMax::new(q)),
        Box::new(SkipListQMax::new(q)),
        Box::new(SortedVecQMax::new(q)),
    ];
    // The sharded engine must agree with the single-shard backends:
    // merge-on-query makes partitioning invisible to the caller.
    for shards in [1usize, 2, 4] {
        backends.push(Box::new(ShardedQMax::<u32, u64>::new(q, 0.25, shards)));
    }
    for qm in &mut backends {
        for (i, &v) in stream.iter().enumerate() {
            qm.insert(i as u32, v);
        }
    }
    let reference = top_vals(backends[0].as_mut());
    // Reference against an independent full sort.
    let mut sorted = stream.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    sorted.truncate(q);
    sorted.sort_unstable();
    assert_eq!(reference, sorted, "amortized q-MAX differs from full sort");
    for qm in &mut backends[1..] {
        assert_eq!(top_vals(qm.as_mut()), reference, "{} disagrees", qm.name());
    }
}

#[test]
fn agree_on_random_stream() {
    let stream: Vec<u64> = random_u64_stream(60_000, 42).collect();
    for q in [1usize, 17, 1000] {
        check_agreement(&stream, q);
    }
}

#[test]
fn agree_on_packet_sizes() {
    // Packet sizes have few distinct values — a heavy-ties workload.
    let stream: Vec<u64> = caida_like(50_000, 7).map(|p| p.len as u64).collect();
    check_agreement(&stream, 256);
}

#[test]
fn agree_on_flow_hashes() {
    let stream: Vec<u64> = univ1_like(50_000, 9).map(|p| p.flow().as_u64()).collect();
    for q in [64usize, 2048] {
        check_agreement(&stream, q);
    }
}

#[test]
fn agree_after_reset_and_reuse() {
    let s1: Vec<u64> = random_u64_stream(20_000, 1).collect();
    let s2: Vec<u64> = random_u64_stream(20_000, 2).collect();
    let q = 128;
    let mut a = AmortizedQMax::new(q, 0.5);
    let mut d = DeamortizedQMax::new(q, 0.5);
    for (i, &v) in s1.iter().enumerate() {
        a.insert(i as u32, v);
        d.insert(i as u32, v);
    }
    a.reset();
    d.reset();
    for (i, &v) in s2.iter().enumerate() {
        a.insert(i as u32, v);
        d.insert(i as u32, v);
    }
    assert_eq!(top_vals(&mut a), top_vals(&mut d));
    let mut sorted = s2.clone();
    sorted.sort_unstable_by(|x, y| y.cmp(x));
    sorted.truncate(q);
    sorted.sort_unstable();
    assert_eq!(top_vals(&mut a), sorted);
}

/// Checks the retention contract of [`QMax::threshold`] after every
/// batch of `stream` (ids are distinct positions): once `Some`, Ψ never
/// falls or returns to `None`; Ψ is at most the q-th largest value
/// offered; and the structure's candidates still hold the top-q value
/// multiset of everything offered. Candidates are read through
/// `gather_candidates`, which leaves the Ψ-filter backends untouched, so
/// the checks do not perturb the run. Returns whether Ψ was ever
/// reported.
fn check_retention<Q: QMax<u64, u64> + ?Sized>(
    qm: &mut Q,
    stream: &[u64],
    mut feed: impl FnMut(&mut Q, &[(u64, u64)]),
) -> bool {
    let q = qm.q();
    let name = qm.name();
    let mut reference = HeapQMax::new(q);
    let mut last: Option<u64> = None;
    let items: Vec<(u64, u64)> = stream
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u64, v))
        .collect();
    for (b, chunk) in items.chunks(97).enumerate() {
        feed(qm, chunk);
        for &(id, v) in chunk {
            reference.insert(id, v);
        }
        let psi = qm.threshold();
        if let Some(prev) = last {
            assert!(
                psi.is_some_and(|p| p >= prev),
                "{name}: Ψ fell from {prev} to {psi:?} after batch {b}"
            );
        }
        if let Some(p) = psi {
            let qth = reference.threshold();
            assert!(
                qth.is_some_and(|t| p <= t),
                "{name}: Ψ {p} above the q-th largest {qth:?} after batch {b}"
            );
        }
        let mut cands: Vec<Entry<u64, u64>> = Vec::new();
        qm.gather_candidates(&mut cands);
        let mut got: Vec<u64> = cands.into_iter().map(|e| e.val).collect();
        got.sort_unstable_by(|a, b| b.cmp(a));
        got.truncate(q);
        got.sort_unstable();
        let mut want: Vec<u64> = reference.query().into_iter().map(|(_, v)| v).collect();
        want.sort_unstable();
        assert_eq!(got, want, "{name}: lost a top-q item by batch {b}");
        last = psi;
    }
    last.is_some()
}

/// The contract the sharded engine's shared admission bound relies on,
/// checked for every Ψ-reporting `QMax` implementation on a random and a
/// heavy-ties stream.
#[test]
fn psi_reporting_backends_keep_the_retention_contract() {
    let q = 64;
    let random: Vec<u64> = random_u64_stream(20_000, 5).collect();
    let sizes: Vec<u64> = caida_like(20_000, 3).map(|p| p.len as u64).collect();
    for stream in [&random, &sizes] {
        let backends: Vec<Box<dyn QMax<u64, u64>>> = vec![
            Box::new(AmortizedQMax::new(q, 0.25)),
            Box::new(DeamortizedQMax::new(q, 0.25)),
            Box::new(SoaAmortizedQMax::new(q, 0.25)),
            Box::new(SoaDeamortizedQMax::new(q, 0.25)),
            Box::new(AdaptiveBackend::new(q, 0.25)),
            Box::new(HeapQMax::new(q)),
            Box::new(SkipListQMax::new(q)),
            Box::new(SortedVecQMax::new(q)),
            Box::new(IndexedHeapQMax::<u64, u64>::new(q)),
            Box::new(KeyedSkipListQMax::new(q)),
            Box::new(DedupQMax::<u64, u64>::new(q, 0.25)),
            Box::new(FaultyBackend::new(
                AmortizedQMax::new(q, 0.25),
                FaultSchedule::none(),
            )),
            Box::new(ShardedQMax::<u64, u64>::new(q, 0.25, 4)),
        ];
        for mut qm in backends {
            let reported = check_retention(qm.as_mut(), stream, |qm, chunk| {
                for &(id, v) in chunk {
                    qm.insert(id, v);
                }
            });
            assert!(reported, "{} never reported a Ψ", qm.name());
        }
        // The batched engine path, where the shared bound pre-filters.
        for shards in [2usize, 4] {
            let mut engine = ShardedQMax::new_soa(q, 0.25, shards);
            assert!(check_retention(&mut engine, stream, |e, chunk| {
                e.insert_batch(chunk);
            }));
        }
    }
}
