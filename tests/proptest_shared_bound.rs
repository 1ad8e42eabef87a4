//! Property tests for the sharded engine's shared admission bound.
//!
//! `ShardedQMax::insert_batch` drops every item at or below one global
//! bound before routing it, and `query` discards every candidate below
//! that bound before its single merge selection. The bound is raised
//! from the shards' Ψ and from each merged query result, so queries at
//! random batch boundaries are what move it. Every query must still
//! return the exact top-`q` value multiset of the stream so far, on
//! streams built to stress the comparison: heavy ties (zipf, all-equal),
//! monotone runs, and values clustered exactly at the bound a query
//! sets. Pre-filtered items are counted, so the engine's accounting must
//! balance at every query too.
//!
//! Results are compared as sorted value multisets: ids tie-break
//! arbitrarily between equal values.

use proptest::prelude::*;
use qmax_core::{HeapQMax, QMax};
use qmax_engine::ShardedQMax;
use qmax_traces::gen::random_u64_stream;
use qmax_traces::hash;
use qmax_traces::zipf::ZipfSampler;

const QS: [usize; 3] = [1, 7, 64];

fn sorted_vals(pairs: Vec<(u64, u64)>) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

/// The `q`-th largest of `vals` (the smallest if there are fewer).
fn qth_largest(vals: &[u64], q: usize) -> u64 {
    let mut s = vals.to_vec();
    s.sort_unstable_by(|a, b| b.cmp(a));
    s[(q - 1).min(s.len() - 1)]
}

/// One of the five stream shapes, `n` items long.
fn stream(shape: usize, n: usize, q: usize, seed: u64) -> Vec<(u64, u64)> {
    let ids = |i: usize| hash::hash64(i as u64, seed);
    match shape {
        // Zipf ids (a hot shard) and zipf values (heavy ties).
        0 => {
            let mut id_ranks = ZipfSampler::new(500, 1.1, seed);
            let mut val_ranks = ZipfSampler::new(2_000, 1.0, seed ^ 0x5EED);
            (0..n)
                .map(|_| (u64::from(id_ranks.sample()), u64::from(val_ranks.sample())))
                .collect()
        }
        // All equal: every value ties with the bound once it exists.
        1 => (0..n).map(|i| (ids(i), 42)).collect(),
        // Ascending: every item beats every bound.
        2 => (0..n).map(|i| (ids(i), i as u64)).collect(),
        // Descending: after the first q, nothing is admissible.
        3 => (0..n).map(|i| (ids(i), (n - i) as u64)).collect(),
        // Clustered at the bound: a random prefix, then values one
        // below, at and one above its q-th largest — the value the first
        // query after the prefix raises the bound to.
        _ => {
            let half = n / 2;
            let prefix: Vec<u64> = random_u64_stream(half.max(1), seed)
                .map(|v| v % 10_000)
                .collect();
            let at = qth_largest(&prefix, q).max(1);
            let tail = random_u64_stream(n - half.min(n), seed ^ 1).map(|r| at + r % 3 - 1);
            prefix
                .into_iter()
                .take(half)
                .chain(tail)
                .enumerate()
                .map(|(i, v)| (ids(i), v))
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merged top-q ≡ a heap fed one item at a time, at every query, for
    /// S ∈ [1, 8] and q ∈ {1, 7, 64}; and every item is admitted,
    /// filtered by a shard, or pre-filtered by the engine.
    #[test]
    fn merged_top_q_is_exact_at_every_query(
        shape in 0usize..5,
        shards in 1usize..9,
        q_pick in 0usize..3,
        n in 1usize..6_000,
        batch in 1usize..600,
        query_mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let q = QS[q_pick];
        let items = stream(shape, n, q, seed);
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
        let mut reference = HeapQMax::new(q);
        let mut seen = 0u64;
        let batches = items.len().div_ceil(batch);
        for (b, chunk) in items.chunks(batch).enumerate() {
            engine.insert_batch(chunk);
            for &(id, v) in chunk {
                reference.insert(id, v);
            }
            seen += chunk.len() as u64;
            if (query_mask >> (b % 64)) & 1 == 1 || b + 1 == batches {
                prop_assert_eq!(
                    sorted_vals(engine.query()),
                    sorted_vals(reference.query()),
                    "shape {} S={} q={} after batch {}", shape, shards, q, b
                );
                let agg = engine.aggregate_stats();
                prop_assert_eq!(agg.admitted + agg.filtered + engine.prefiltered(), seen);
            }
        }
    }

    /// Windowed shards report no Ψ, so no bound ever forms: an S = 4
    /// windowed engine never pre-filters, queried or not.
    #[test]
    fn windowed_engine_never_prefilters(
        shape in 0usize..5,
        q_pick in 0usize..3,
        n in 1usize..6_000,
        batch in 1usize..600,
        query_mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let q = QS[q_pick];
        let items = stream(shape, n, q, seed);
        let mut engine = ShardedQMax::new_windowed(q, 0.5, 4, 2_000, 0.25);
        for (b, chunk) in items.chunks(batch).enumerate() {
            engine.insert_batch(chunk);
            if (query_mask >> (b % 64)) & 1 == 1 {
                engine.query();
            }
            prop_assert_eq!(engine.prefiltered(), 0);
        }
    }
}
