//! Amortized-constant-time q-MAX (Algorithm 1 with lazy compaction).

use crate::entry::Entry;
use crate::traits::{BatchInsert, IntervalBackend, QMax};
use qmax_select::kernels::{pivot_band, sample_positions, PIVOT_SEED, SAMPLED_COMPACT_MIN};
use qmax_select::{nth_smallest, partition3};

/// q-MAX with **amortized** `O(1)` update time and `⌈q(1+γ)⌉` space.
///
/// Arrivals whose value is at most the admission threshold Ψ are dropped
/// outright; the rest are appended to a buffer of `⌈q(1+γ)⌉` slots. When
/// the buffer fills, a linear-time selection finds the q-th largest
/// value, which becomes the new Ψ, and everything below it is discarded.
/// Each `O(q)` compaction pays for the `⌈qγ⌉` appends since the last
/// one, so updates cost `O(1 + 1/γ)` amortized.
///
/// This is the variant the paper benchmarks (its evaluation section);
/// see [`crate::DeamortizedQMax`] for the worst-case-constant variant.
///
/// ```
/// use qmax_core::{AmortizedQMax, QMax};
/// let mut qm = AmortizedQMax::new(2, 0.5);
/// for v in 0u64..100 {
///     qm.insert(v as u32, v);
/// }
/// let mut top: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
/// top.sort();
/// assert_eq!(top, vec![98, 99]);
/// ```
#[derive(Debug, Clone)]
pub struct AmortizedQMax<I, V> {
    q: usize,
    cap: usize,
    buf: Vec<Entry<I, V>>,
    threshold: Option<V>,
    compactions: u64,
    filtered: u64,
    /// Reusable buffers for the sampled-pivot compaction: drawn
    /// positions, and `(value, index)` samples (the index recovers the
    /// pivot entry without a `Copy` bound on `V`).
    sample_pos: Vec<usize>,
    sample: Vec<(V, usize)>,
    /// Compactions whose sampled pivot landed outside the tolerance
    /// band ([`qmax_select::kernels::pivot_band`]); the result is exact
    /// either way, the counter tracks sample quality.
    pivot_fallbacks: u64,
}

impl<I: Clone, V: Ord + Clone> AmortizedQMax<I, V> {
    /// Creates a q-MAX for the `q` largest items with space-slack
    /// parameter `gamma` (the paper's γ): the structure allocates
    /// `⌈q(1+γ)⌉` slots (at least `q + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `gamma` is not a positive finite number.
    /// Use [`AmortizedQMax::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64) -> Self {
        Self::try_new(q, gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AmortizedQMax::new`]: rejects `q == 0` and
    /// non-positive / non-finite `gamma` instead of panicking.
    pub fn try_new(q: usize, gamma: f64) -> Result<Self, crate::QMaxError> {
        crate::error::check_q_gamma(q, gamma)?;
        let cap = ((q as f64) * (1.0 + gamma)).ceil() as usize;
        let cap = cap.max(q + 1);
        Ok(AmortizedQMax {
            q,
            cap,
            buf: Vec::with_capacity(cap),
            threshold: None,
            compactions: 0,
            filtered: 0,
            sample_pos: Vec::new(),
            sample: Vec::new(),
            pivot_fallbacks: 0,
        })
    }

    /// Total buffer capacity `⌈q(1+γ)⌉`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of compactions (threshold recomputations) performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Number of arrivals dropped by the admission filter.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Compactions whose sampled pivot landed outside the tolerance
    /// band and degraded to a large exact-select residue. Always zero
    /// for buffers below `SAMPLED_COMPACT_MIN` slots.
    pub fn pivot_fallbacks(&self) -> u64 {
        self.pivot_fallbacks
    }

    /// Iterates over the current candidate set (a superset of the top
    /// `q`, in unspecified order).
    pub fn candidates(&self) -> impl Iterator<Item = (&I, &V)> {
        self.buf.iter().map(|e| (&e.id, &e.val))
    }

    /// Merges another instance's candidates into this one — the MERGE
    /// procedure of the paper's Algorithm 3: after merging, this
    /// instance's top `q` equal the top `q` of the union of both input
    /// streams (assuming the inputs are disjoint streams).
    pub fn merge_from(&mut self, other: &Self) {
        for (id, val) in other.candidates() {
            self.insert(id.clone(), val.clone());
        }
    }

    /// Compacts the buffer: finds the q-th largest value, makes it the
    /// new threshold, and discards all candidates below it. Large
    /// buffers seed the selection with a sampled pivot; the resulting Ψ
    /// and survivor multiset are identical either way.
    fn compact(&mut self) {
        debug_assert!(self.buf.len() > self.q);
        let cut = self.buf.len() - self.q;
        if self.buf.len() >= SAMPLED_COMPACT_MIN {
            self.arrange_cut_sampled(cut);
        } else {
            nth_smallest(&mut self.buf, cut);
        }
        // buf[cut..] now holds the q largest; buf[cut] is the q-th
        // largest overall and becomes the new admission threshold.
        let psi = self.buf[cut].val.clone();
        self.buf.drain(..cut);
        self.threshold = Some(match self.threshold.take() {
            Some(old) if old > psi => old,
            _ => psi,
        });
        self.compactions += 1;
    }

    /// Establishes the [`nth_smallest`] postcondition at rank `cut` by
    /// first partitioning around a pivot estimated from a deterministic
    /// `O(√n)` sample (seeded by the compaction counter, so replays are
    /// exact), then exact-selecting only within the region the true cut
    /// landed in.
    fn arrange_cut_sampled(&mut self, cut: usize) {
        let n = self.buf.len();
        sample_positions(n, PIVOT_SEED ^ self.compactions, &mut self.sample_pos);
        let m = self.sample_pos.len();
        self.sample.clear();
        for &p in &self.sample_pos {
            self.sample.push((self.buf[p].val.clone(), p));
        }
        let srank = ((cut as u128 * m as u128) / (n as u128)) as usize;
        let srank = srank.min(m - 1);
        nth_smallest(&mut self.sample, srank);
        let pivot = self.buf[self.sample[srank].1].clone();
        let (lt, gt) = partition3(&mut self.buf, 0, n, &pivot);
        let band = pivot_band(n);
        if cut < lt {
            // Pivot landed high: the cut is inside the `<` region.
            if lt - cut > band {
                self.pivot_fallbacks += 1;
            }
            nth_smallest(&mut self.buf[..lt], cut);
        } else if cut >= gt {
            // Pivot landed low: the cut is inside the `>` region.
            if cut - gt > band {
                self.pivot_fallbacks += 1;
            }
            nth_smallest(&mut self.buf[gt..], cut - gt);
        }
        // Otherwise the cut fell in the `==` run and the postcondition
        // already holds: buf[..cut] <= buf[cut] == pivot <= buf[cut..].
    }
}

impl<I: Clone, V: Ord + Clone> QMax<I, V> for AmortizedQMax<I, V> {
    #[inline]
    fn insert(&mut self, id: I, val: V) -> bool {
        if let Some(t) = &self.threshold {
            if val <= *t {
                self.filtered += 1;
                return false;
            }
        }
        self.buf.push(Entry::new(id, val));
        if self.buf.len() == self.cap {
            self.compact();
        }
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        if self.buf.len() > self.q {
            self.compact();
        }
        self.buf
            .iter()
            .map(|e| (e.id.clone(), e.val.clone()))
            .collect()
    }

    fn gather_candidates(&mut self, out: &mut Vec<Entry<I, V>>) {
        self.candidates_into(out);
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.threshold = None;
    }

    fn q(&self) -> usize {
        self.q
    }

    #[inline]
    fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    fn threshold(&self) -> Option<V> {
        self.threshold.clone()
    }

    fn name(&self) -> &'static str {
        "qmax-amortized"
    }
}

impl<I: Clone, V: Ord + Clone> BatchInsert<I, V> for AmortizedQMax<I, V> {
    /// Chunked hoisted-Ψ admit loop — the array-of-structs small-block
    /// fast path (no kernel handle anywhere). Ψ can only change at a
    /// compaction, and compactions coincide with chunk boundaries
    /// (chunks are sized to the remaining buffer room), so reading Ψ
    /// once per chunk is exact, not an approximation: admissions,
    /// filtered counts, and Ψ trajectory are identical to the
    /// singleton loop.
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut admitted = 0usize;
        let mut i = 0;
        while i < items.len() {
            let take = (self.cap - self.buf.len()).min(items.len() - i);
            let before = self.buf.len();
            match &self.threshold {
                Some(t) => {
                    for (id, val) in &items[i..i + take] {
                        if *val > *t {
                            self.buf.push(Entry::new(id.clone(), val.clone()));
                        } else {
                            self.filtered += 1;
                        }
                    }
                }
                None => {
                    self.buf.extend(
                        items[i..i + take]
                            .iter()
                            .map(|(id, val)| Entry::new(id.clone(), val.clone())),
                    );
                }
            }
            admitted += self.buf.len() - before;
            i += take;
            if self.buf.len() == self.cap {
                self.compact();
            }
        }
        admitted
    }
}

impl<I: Clone, V: Ord + Clone> crate::checkpoint::Checkpoint<I, V> for AmortizedQMax<I, V> {
    /// A straight copy of the candidate buffer plus Ψ and counters —
    /// the cheap-memcpy checkpoint the amortized layout was chosen for.
    fn snapshot(&self) -> crate::checkpoint::BackendSnapshot<I, V> {
        crate::checkpoint::BackendSnapshot {
            entries: self.buf.clone(),
            threshold: self.threshold.clone(),
            compactions: self.compactions,
            filtered: self.filtered,
            pivot_fallbacks: self.pivot_fallbacks,
        }
    }

    /// Overwrites buffer, Ψ, and counters with the snapshot's. A
    /// snapshot is always taken between inserts, so its candidate count
    /// is below `cap` and no compaction is needed on the way in.
    fn restore(&mut self, snap: &crate::checkpoint::BackendSnapshot<I, V>) {
        self.buf.clear();
        self.buf.extend(snap.entries.iter().cloned());
        self.threshold = snap.threshold.clone();
        self.compactions = snap.compactions;
        self.filtered = snap.filtered;
        self.pivot_fallbacks = snap.pivot_fallbacks;
        if self.buf.len() >= self.cap {
            self.compact();
        }
    }
}

impl<I: Clone, V: Ord + Clone> IntervalBackend<I, V> for AmortizedQMax<I, V> {
    fn fresh(&self) -> Self {
        AmortizedQMax {
            q: self.q,
            cap: self.cap,
            buf: Vec::with_capacity(self.cap),
            threshold: None,
            compactions: 0,
            filtered: 0,
            sample_pos: Vec::new(),
            sample: Vec::new(),
            pivot_fallbacks: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.cap
    }

    fn candidates_into(&self, out: &mut Vec<Entry<I, V>>) {
        out.extend(self.buf.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn top_q_reference(vals: &[u64], q: usize) -> Vec<u64> {
        let mut s = vals.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s.truncate(q);
        s.sort_unstable();
        s
    }

    #[test]
    fn matches_reference_on_random_stream() {
        let mut state = 1u64;
        for q in [1usize, 2, 10, 100] {
            for gamma in [0.05, 0.25, 1.0, 2.0] {
                let vals: Vec<u64> = (0..5000).map(|_| splitmix(&mut state) % 10_000).collect();
                let mut qm = AmortizedQMax::new(q, gamma);
                for (i, &v) in vals.iter().enumerate() {
                    qm.insert(i as u32, v);
                }
                let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
                got.sort_unstable();
                assert_eq!(got, top_q_reference(&vals, q), "q={q} gamma={gamma}");
            }
        }
    }

    #[test]
    fn short_stream_returns_everything() {
        let mut qm = AmortizedQMax::new(10, 0.5);
        qm.insert(1u32, 5u64);
        qm.insert(2, 3);
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![3, 5]);
        assert_eq!(qm.len(), 2);
    }

    #[test]
    fn threshold_filters_small_items() {
        let mut qm = AmortizedQMax::new(4, 0.5);
        for v in 0u64..1000 {
            qm.insert(v as u32, v);
        }
        assert!(qm.threshold().is_some());
        let t = qm.threshold().unwrap();
        assert!(t >= 4, "threshold should have risen well above the start");
        assert!(!qm.insert(9999, 0), "tiny value must be filtered");
        assert!(qm.insert(10000, 1_000_000), "huge value must be admitted");
        assert!(qm.filtered() > 0);
    }

    #[test]
    fn threshold_is_monotone() {
        let mut state = 7u64;
        let mut qm = AmortizedQMax::new(8, 0.25);
        let mut last: Option<u64> = None;
        for i in 0..20_000u64 {
            qm.insert(i as u32, splitmix(&mut state) % 1_000_000);
            if let Some(t) = qm.threshold() {
                if let Some(l) = last {
                    assert!(t >= l, "threshold decreased: {l} -> {t}");
                }
                last = Some(t);
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut qm = AmortizedQMax::new(2, 1.0);
        for v in 0u64..100 {
            qm.insert(v as u32, v);
        }
        qm.reset();
        assert!(qm.is_empty());
        assert_eq!(qm.threshold(), None);
        qm.insert(0u32, 1u64);
        assert_eq!(qm.query().len(), 1);
    }

    #[test]
    fn duplicate_values_are_kept_up_to_q() {
        let mut qm = AmortizedQMax::new(3, 0.5);
        for i in 0..50u32 {
            qm.insert(i, 7u64);
        }
        let got = qm.query();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|(_, v)| *v == 7));
    }

    #[test]
    fn descending_stream_filters_aggressively() {
        let mut qm = AmortizedQMax::new(5, 0.2);
        let mut admitted = 0u64;
        for v in (0u64..100_000).rev() {
            if qm.insert(v as u32, v) {
                admitted += 1;
            }
        }
        // After the first compaction, nothing else can be admitted.
        assert!(admitted <= qm.capacity() as u64 + 1);
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![99_995, 99_996, 99_997, 99_998, 99_999]);
    }

    #[test]
    fn merge_equals_union_top_q() {
        let mut state = 19u64;
        let mut next = move || splitmix(&mut state) % 1_000_000;
        let q = 32;
        let left: Vec<u64> = (0..4000).map(|_| next()).collect();
        let right: Vec<u64> = (0..4000).map(|_| next()).collect();
        let mut a = AmortizedQMax::new(q, 0.5);
        let mut b = AmortizedQMax::new(q, 0.5);
        for (i, &v) in left.iter().enumerate() {
            a.insert(i as u32, v);
        }
        for (i, &v) in right.iter().enumerate() {
            b.insert((4000 + i) as u32, v);
        }
        a.merge_from(&b);
        let mut got: Vec<u64> = a.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        let mut union: Vec<u64> = left.iter().chain(&right).copied().collect();
        union.sort_unstable_by(|x, y| y.cmp(x));
        union.truncate(q);
        union.sort_unstable();
        assert_eq!(got, union);
    }

    #[test]
    fn sampled_compaction_matches_reference() {
        // Buffers at and above SAMPLED_COMPACT_MIN take the sampled
        // pivot; the compaction result (Ψ and survivors) is exact.
        let mut state = 41u64;
        let q = 1600usize;
        let vals: Vec<u64> = (0..40_000).map(|_| splitmix(&mut state)).collect();
        let mut qm = AmortizedQMax::new(q, 1.0);
        for (i, &v) in vals.iter().enumerate() {
            qm.insert(i as u32, v);
        }
        assert!(qm.compactions() > 0);
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, top_q_reference(&vals, q));
    }

    #[test]
    fn adversarial_sample_forces_fallback_but_stays_exact() {
        // Every sampled position of the first compaction holds the
        // minimum, so the pivot lands far below the true cut and the
        // exact-select residue exceeds the tolerance band.
        let q = 64usize;
        let mut qm = AmortizedQMax::<u32, u64>::new(q, 31.0);
        let cap = qm.capacity();
        assert_eq!(cap, 2048);
        let mut pos = Vec::new();
        qmax_select::kernels::sample_positions(cap, qmax_select::kernels::PIVOT_SEED, &mut pos);
        let vals: Vec<u64> = (0..cap)
            .map(|i| if pos.contains(&i) { 1 } else { 1000 + i as u64 })
            .collect();
        for (i, &v) in vals.iter().enumerate() {
            qm.insert(i as u32, v);
        }
        assert_eq!(qm.compactions(), 1);
        assert_eq!(qm.pivot_fallbacks(), 1, "bad pivot must be counted");
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, top_q_reference(&vals, q));
    }

    #[test]
    #[should_panic(expected = "q must be positive")]
    fn zero_q_panics() {
        let _ = AmortizedQMax::<u32, u64>::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn bad_gamma_panics() {
        let _ = AmortizedQMax::<u32, u64>::new(5, 0.0);
    }
}
