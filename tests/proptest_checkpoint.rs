//! Snapshot/restore round-trip properties for checkpointable backends.
//!
//! The supervision layer's warm-recovery guarantee reduces to one
//! backend-level contract: for any reachable state `b`,
//! `restore(snapshot(b))` into a fresh same-geometry backend yields a
//! structure that is *behaviorally identical* to `b` — same top-`q`,
//! same admission threshold Ψ, same statistics counters, and the same
//! response to any future insert stream. This suite pins that contract
//! with 256 randomized cases per backend family (AoS, SoA, adaptive),
//! plus deterministic probes of the two states a per-batch checkpoint
//! cadence is most likely to capture: a buffer sitting just below
//! capacity (mid-compaction pressure) and a freshly-recycled block
//! (immediately after a compaction, and after a `reset()` refill).

use proptest::prelude::*;
use qmax_core::{AdaptiveBackend, AmortizedQMax, Checkpoint, QMax, SoaAmortizedQMax};
use qmax_traces::gen::caida_like;

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    caida_like(n, seed)
        .map(|p| (p.flow().as_u64(), p.len as u64))
        .collect()
}

fn sorted_pairs(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs.sort_unstable();
    pairs
}

/// Feeds `prefix` into a backend, snapshots it, restores the snapshot
/// into `fresh`, and asserts behavioral identity — immediately and
/// again after both sides consume the same `suffix`.
macro_rules! assert_roundtrip {
    ($original:expr, $fresh:expr, $prefix:expr, $suffix:expr) => {{
        let mut original = $original;
        let mut restored = $fresh;
        for &(id, v) in $prefix {
            original.insert(id, v);
        }
        let snap = original.snapshot();
        assert_eq!(snap.len(), original.len(), "snapshot candidate count");
        restored.restore(&snap);
        assert_eq!(
            original.len(),
            restored.len(),
            "candidate count diverged at restore"
        );

        assert_eq!(
            sorted_pairs(original.query()),
            sorted_pairs(restored.query()),
            "candidate multiset diverged at restore"
        );
        assert_eq!(
            original.threshold(),
            restored.threshold(),
            "Ψ diverged at restore"
        );
        assert_eq!(original.compactions(), restored.compactions());
        assert_eq!(original.filtered(), restored.filtered());
        assert_eq!(
            original.snapshot().pivot_fallbacks,
            restored.snapshot().pivot_fallbacks
        );

        // A snapshot must capture *all* state that future behavior
        // depends on: the same suffix must drive both copies through
        // identical compaction schedules to identical results.
        for &(id, v) in $suffix {
            original.insert(id, v);
            restored.insert(id, v);
        }
        assert_eq!(
            sorted_pairs(original.query()),
            sorted_pairs(restored.query()),
            "candidate multiset diverged after the restored copy resumed"
        );
        assert_eq!(
            original.threshold(),
            restored.threshold(),
            "Ψ diverged after resume"
        );
        assert_eq!(original.compactions(), restored.compactions());
        assert_eq!(original.filtered(), restored.filtered());
        assert_eq!(
            original.snapshot().pivot_fallbacks,
            restored.snapshot().pivot_fallbacks
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary reachable states round-trip on every checkpointable
    /// backend family. The split point sweeps the snapshot over the
    /// whole fill/compact cycle, so cases land on empty, reservoir-fill,
    /// buffer-nearly-full, and just-compacted states.
    #[test]
    fn restore_of_snapshot_preserves_behavior(
        stream_seed in any::<u64>(),
        n in 1usize..1500,
        split in 0usize..1500,
        q in 1usize..48,
        gamma_idx in 0usize..3,
    ) {
        let gamma = [0.05, 0.25, 1.0][gamma_idx];
        let items = zipf_stream(n, stream_seed);
        let split = split.min(items.len());
        let (prefix, suffix) = items.split_at(split);

        assert_roundtrip!(
            AmortizedQMax::<u64, u64>::new(q, gamma),
            AmortizedQMax::<u64, u64>::new(q, gamma),
            prefix,
            suffix
        );
        assert_roundtrip!(
            SoaAmortizedQMax::<u64, u64>::new(q, gamma),
            SoaAmortizedQMax::<u64, u64>::new(q, gamma),
            prefix,
            suffix
        );
        assert_roundtrip!(
            AdaptiveBackend::<u64, u64>::new(q, gamma),
            AdaptiveBackend::<u64, u64>::new(q, gamma),
            prefix,
            suffix
        );
    }
}

/// A buffer one slot below capacity — the state a per-batch checkpoint
/// captures right before the compaction that would recycle it.
#[test]
fn mid_compaction_pressure_roundtrips() {
    let (q, gamma) = (16, 0.5);
    let cap = AmortizedQMax::<u64, u64>::new(q, gamma).capacity();
    // Distinct ascending values: nothing is filtered, every insert
    // lands in the buffer, so `cap - 1` inserts leave it one below full.
    let prefix: Vec<(u64, u64)> = (0..cap as u64 - 1).map(|i| (i, 1000 + i)).collect();
    let suffix: Vec<(u64, u64)> = (0..64u64).map(|i| (500 + i, 2000 + i)).collect();

    let mut probe = AmortizedQMax::<u64, u64>::new(q, gamma);
    for &(id, v) in &prefix {
        probe.insert(id, v);
    }
    assert_eq!(
        probe.compactions(),
        0,
        "probe compacted early; state is not mid-pressure"
    );
    assert_eq!(probe.len(), cap - 1);

    assert_roundtrip!(
        AmortizedQMax::<u64, u64>::new(q, gamma),
        AmortizedQMax::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
    assert_roundtrip!(
        SoaAmortizedQMax::<u64, u64>::new(q, gamma),
        SoaAmortizedQMax::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
    assert_roundtrip!(
        AdaptiveBackend::<u64, u64>::new(q, gamma),
        AdaptiveBackend::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
}

/// A freshly-recycled block: the snapshot is taken immediately after
/// the first compaction collapsed the buffer back to its top-`q`.
#[test]
fn freshly_recycled_block_roundtrips() {
    let (q, gamma) = (16, 0.5);
    let cap = AmortizedQMax::<u64, u64>::new(q, gamma).capacity();
    let prefix: Vec<(u64, u64)> = (0..cap as u64).map(|i| (i, 1000 + i)).collect();
    let suffix: Vec<(u64, u64)> = (0..64u64).map(|i| (500 + i, 3000 + i)).collect();

    let mut probe = AmortizedQMax::<u64, u64>::new(q, gamma);
    for &(id, v) in &prefix {
        probe.insert(id, v);
    }
    assert!(
        probe.compactions() >= 1,
        "fill to capacity must have recycled the block"
    );

    assert_roundtrip!(
        AmortizedQMax::<u64, u64>::new(q, gamma),
        AmortizedQMax::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
    assert_roundtrip!(
        SoaAmortizedQMax::<u64, u64>::new(q, gamma),
        SoaAmortizedQMax::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
    assert_roundtrip!(
        AdaptiveBackend::<u64, u64>::new(q, gamma),
        AdaptiveBackend::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
}

/// `reset()` followed by a partial refill — the state a shard is in
/// right after the engine recycles it between measurement epochs.
#[test]
fn reset_refill_roundtrips() {
    let (q, gamma) = (8, 0.25);
    let warmup: Vec<(u64, u64)> = (0..200u64).map(|i| (i, i * 7 % 997)).collect();
    let refill: Vec<(u64, u64)> = (0..5u64).map(|i| (i, 4000 + i)).collect();
    let suffix: Vec<(u64, u64)> = (0..64u64).map(|i| (900 + i, 5000 + i)).collect();

    macro_rules! reset_case {
        ($ctor:expr) => {{
            let mut original = $ctor;
            for &(id, v) in &warmup {
                original.insert(id, v);
            }
            original.reset();
            for &(id, v) in &refill {
                original.insert(id, v);
            }
            // Hand the pre-filled original to the round-trip checker
            // with an empty prefix: its state is the reset-refill one.
            assert_roundtrip!(original, $ctor, &[] as &[(u64, u64)], &suffix);
        }};
    }
    reset_case!(AmortizedQMax::<u64, u64>::new(q, gamma));
    reset_case!(SoaAmortizedQMax::<u64, u64>::new(q, gamma));
    reset_case!(AdaptiveBackend::<u64, u64>::new(q, gamma));
}
