//! Per-block adaptive backend: AoS or SoA, chosen by the calibrated
//! [`BackendPolicy`].
//!
//! [`AdaptiveBackend`] is an [`IntervalBackend`] that delegates every
//! operation to either the array-of-structs [`AmortizedQMax`] (scalar
//! admit loop, no kernel handle — the small-block fast path) or the
//! structure-of-arrays [`SoaAmortizedQMax`] (kernel-dispatched batch
//! admit over split lanes). The choice is made **once at construction**
//! from three inputs:
//!
//! * the block's capacity `⌈q(1+γ)⌉` and an optional *lifetime fill*
//!   hint — how many items the block is expected to see before it is
//!   recycled. The basic slack window passes its per-block fill
//!   (`W·τ`-shaped), which is the true discriminator: block capacity
//!   is the same at every τ, but the items a block sees over its life
//!   shrink linearly with it, and a block whose lifetime fill stays
//!   below capacity never compacts at all — the append-only regime
//!   where AoS wins no matter what the calibration measured. Merge-fed
//!   structures (hierarchical/lazy rings) pass `None`: their blocks
//!   absorb batches from every block below, so they live in the
//!   compaction-heavy regime where the calibrated crossover decides;
//! * the process-wide calibrated crossover
//!   ([`BackendPolicy::global`]), overridable via the
//!   `QMAX_BACKEND_POLICY` environment variable (`auto` / `force-aos`
//!   / `force-soa`, composing with `QMAX_FORCE_SCALAR`);
//! * the value-lane type: under `auto`, non-`u64` lanes (e.g.
//!   [`OrderedF64`](crate::OrderedF64) decay scores) route straight to
//!   AoS — the SIMD tiers cannot engage there, so the SoA layout's
//!   per-chunk overhead buys nothing.
//!
//! Because the two delegates are behavioral twins (same admissions,
//! same Ψ trajectory, same top-q value multiset; ids tie-break
//! arbitrarily), the choice is observable only through
//! [`QMax::backend_label`] and performance — never through query
//! results. The differential property suite in
//! `tests/proptest_adaptive.rs` pins this down.

use crate::amortized::AmortizedQMax;
use crate::entry::Entry;
use crate::soa::SoaAmortizedQMax;
use crate::traits::{BatchInsert, IntervalBackend, QMax};
use qmax_select::{lane_is_u64, BackendChoice, BackendPolicy, PolicyMode};

/// An interval backend that delegates to AoS or SoA per constructed
/// block capacity and expected fill (see the module docs).
///
/// ```
/// use qmax_core::{AdaptiveBackend, BatchInsert, QMax};
/// let mut qm = AdaptiveBackend::new(2, 0.5);
/// let items: Vec<(u32, u64)> = (0u64..100).map(|v| (v as u32, v)).collect();
/// qm.insert_batch(&items);
/// let mut top: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
/// top.sort();
/// assert_eq!(top, vec![98, 99]);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveBackend<I, V> {
    inner: Inner<I, V>,
}

#[derive(Debug, Clone)]
enum Inner<I, V> {
    Aos(AmortizedQMax<I, V>),
    Soa(SoaAmortizedQMax<I, V>),
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> AdaptiveBackend<I, V> {
    /// Creates an adaptive q-MAX for the `q` largest items with
    /// space-slack `gamma`, letting the global policy pick the layout
    /// with no fill hint (the block is assumed to fill to capacity —
    /// the plain interval use).
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `gamma` is not a positive finite number.
    /// Use [`AdaptiveBackend::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64) -> Self {
        Self::try_new(q, gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AdaptiveBackend::new`].
    pub fn try_new(q: usize, gamma: f64) -> Result<Self, crate::QMaxError> {
        Self::try_with_policy(q, gamma, None, BackendPolicy::global())
    }

    /// Like [`AdaptiveBackend::new`], with a lifetime fill hint: how
    /// many items this block is expected to see before it is recycled.
    /// The basic slack window passes its per-block size here; merge-fed
    /// structures pass `None` (see the module docs).
    pub fn with_fill_hint(q: usize, gamma: f64, expected_fill: Option<usize>) -> Self {
        Self::try_with_fill_hint(q, gamma, expected_fill).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AdaptiveBackend::with_fill_hint`].
    pub fn try_with_fill_hint(
        q: usize,
        gamma: f64,
        expected_fill: Option<usize>,
    ) -> Result<Self, crate::QMaxError> {
        Self::try_with_policy(q, gamma, expected_fill, BackendPolicy::global())
    }

    /// Fully explicit constructor: tests and benchmarks pin a policy
    /// (mode + model) instead of consulting the process-global one.
    pub fn try_with_policy(
        q: usize,
        gamma: f64,
        expected_fill: Option<usize>,
        policy: &BackendPolicy,
    ) -> Result<Self, crate::QMaxError> {
        crate::error::check_q_gamma(q, gamma)?;
        let cap = (((q as f64) * (1.0 + gamma)).ceil() as usize).max(q + 1);
        let choice = if policy.mode() == PolicyMode::Auto && !lane_is_u64::<V>() {
            // The SIMD tiers only accept u64 value lanes; on any other
            // lane the SoA layout pays its chunk overhead for nothing.
            BackendChoice::Aos
        } else {
            policy.choose(cap, expected_fill)
        };
        let inner = match choice {
            BackendChoice::Aos => Inner::Aos(AmortizedQMax::try_new(q, gamma)?),
            BackendChoice::Soa => Inner::Soa(SoaAmortizedQMax::try_new(q, gamma)?),
        };
        Ok(AdaptiveBackend { inner })
    }

    /// Which layout the policy picked for this instance.
    pub fn choice(&self) -> BackendChoice {
        match &self.inner {
            Inner::Aos(_) => BackendChoice::Aos,
            Inner::Soa(_) => BackendChoice::Soa,
        }
    }

    /// Total buffer capacity `⌈q(1+γ)⌉` (same geometry either way).
    pub fn capacity(&self) -> usize {
        match &self.inner {
            Inner::Aos(b) => b.capacity(),
            Inner::Soa(b) => b.capacity(),
        }
    }

    /// Number of compactions (threshold recomputations) performed.
    pub fn compactions(&self) -> u64 {
        match &self.inner {
            Inner::Aos(b) => b.compactions(),
            Inner::Soa(b) => b.compactions(),
        }
    }

    /// Number of arrivals dropped by the admission filter.
    pub fn filtered(&self) -> u64 {
        match &self.inner {
            Inner::Aos(b) => b.filtered(),
            Inner::Soa(b) => b.filtered(),
        }
    }

    /// Compactions whose sampled pivot fell outside the tolerance band
    /// (exact either way; tracks sample quality).
    pub fn pivot_fallbacks(&self) -> u64 {
        match &self.inner {
            Inner::Aos(b) => b.pivot_fallbacks(),
            Inner::Soa(b) => b.pivot_fallbacks(),
        }
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> QMax<I, V> for AdaptiveBackend<I, V> {
    #[inline]
    fn insert(&mut self, id: I, val: V) -> bool {
        match &mut self.inner {
            Inner::Aos(b) => b.insert(id, val),
            Inner::Soa(b) => b.insert(id, val),
        }
    }

    fn query(&mut self) -> Vec<(I, V)> {
        match &mut self.inner {
            Inner::Aos(b) => b.query(),
            Inner::Soa(b) => b.query(),
        }
    }

    fn gather_candidates(&mut self, out: &mut Vec<Entry<I, V>>) {
        IntervalBackend::candidates_into(self, out);
    }

    fn reset(&mut self) {
        match &mut self.inner {
            Inner::Aos(b) => b.reset(),
            Inner::Soa(b) => b.reset(),
        }
    }

    fn q(&self) -> usize {
        match &self.inner {
            Inner::Aos(b) => QMax::q(b),
            Inner::Soa(b) => QMax::q(b),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match &self.inner {
            Inner::Aos(b) => QMax::len(b),
            Inner::Soa(b) => QMax::len(b),
        }
    }

    #[inline]
    fn threshold(&self) -> Option<V> {
        match &self.inner {
            Inner::Aos(b) => b.threshold(),
            Inner::Soa(b) => b.threshold(),
        }
    }

    fn name(&self) -> &'static str {
        "qmax-adaptive"
    }

    fn backend_label(&self) -> &'static str {
        match &self.inner {
            Inner::Aos(_) => "qmax-adaptive-aos",
            Inner::Soa(_) => "qmax-adaptive-soa",
        }
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> BatchInsert<I, V> for AdaptiveBackend<I, V> {
    #[inline]
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        match &mut self.inner {
            Inner::Aos(b) => b.insert_batch(items),
            Inner::Soa(b) => b.insert_batch(items),
        }
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> crate::checkpoint::Checkpoint<I, V>
    for AdaptiveBackend<I, V>
{
    /// Delegates to the chosen layout; the snapshot format is layout-
    /// independent, so a snapshot taken from an AoS block restores into
    /// a SoA block of the same geometry and vice versa.
    fn snapshot(&self) -> crate::checkpoint::BackendSnapshot<I, V> {
        match &self.inner {
            Inner::Aos(b) => b.snapshot(),
            Inner::Soa(b) => b.snapshot(),
        }
    }

    fn restore(&mut self, snap: &crate::checkpoint::BackendSnapshot<I, V>) {
        match &mut self.inner {
            Inner::Aos(b) => b.restore(snap),
            Inner::Soa(b) => b.restore(snap),
        }
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> IntervalBackend<I, V> for AdaptiveBackend<I, V> {
    /// Fresh instances keep the prototype's choice: the policy decided
    /// once for this capacity/fill shape, and a window stamping blocks
    /// out of one prototype must get a homogeneous ring.
    fn fresh(&self) -> Self {
        AdaptiveBackend {
            inner: match &self.inner {
                Inner::Aos(b) => Inner::Aos(IntervalBackend::fresh(b)),
                Inner::Soa(b) => Inner::Soa(IntervalBackend::fresh(b)),
            },
        }
    }

    fn capacity(&self) -> usize {
        match &self.inner {
            Inner::Aos(b) => IntervalBackend::capacity(b),
            Inner::Soa(b) => IntervalBackend::capacity(b),
        }
    }

    fn candidates_into(&self, out: &mut Vec<Entry<I, V>>) {
        match &self.inner {
            Inner::Aos(b) => b.candidates_into(out),
            Inner::Soa(b) => b.candidates_into(out),
        }
    }

    fn top_q_into(&self, out: &mut Vec<Entry<I, V>>) {
        match &self.inner {
            Inner::Aos(b) => b.top_q_into(out),
            Inner::Soa(b) => b.top_q_into(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderedF64;
    use qmax_select::{CostModel, KernelKind};

    fn policy(mode: PolicyMode, crossover: usize) -> BackendPolicy {
        BackendPolicy::new(
            mode,
            CostModel {
                kernel_kind: KernelKind::Scalar,
                aos_fixed_ns: 10.0,
                aos_per_item_ns: 2.0,
                soa_fixed_ns: 100.0,
                soa_per_item_ns: 1.0,
                crossover_items: crossover,
            },
        )
    }

    #[test]
    fn forced_modes_pick_their_layout() {
        let aos = AdaptiveBackend::<u32, u64>::try_with_policy(
            10,
            0.5,
            None,
            &policy(PolicyMode::ForceAos, 0),
        )
        .unwrap();
        assert_eq!(aos.choice(), BackendChoice::Aos);
        assert_eq!(aos.backend_label(), "qmax-adaptive-aos");
        let soa = AdaptiveBackend::<u32, u64>::try_with_policy(
            10,
            0.5,
            Some(1),
            &policy(PolicyMode::ForceSoa, usize::MAX),
        )
        .unwrap();
        assert_eq!(soa.choice(), BackendChoice::Soa);
        assert_eq!(soa.backend_label(), "qmax-adaptive-soa");
    }

    #[test]
    fn auto_splits_on_fill_hint() {
        let p = policy(PolicyMode::Auto, 90);
        let small = AdaptiveBackend::<u32, u64>::try_with_policy(100, 0.25, Some(10), &p).unwrap();
        assert_eq!(small.choice(), BackendChoice::Aos);
        let large =
            AdaptiveBackend::<u32, u64>::try_with_policy(100, 0.25, Some(5000), &p).unwrap();
        assert_eq!(large.choice(), BackendChoice::Soa);
        // Lifetime fill within capacity (125) stays append-only AoS
        // even above the crossover.
        let append_only =
            AdaptiveBackend::<u32, u64>::try_with_policy(100, 0.25, Some(120), &p).unwrap();
        assert_eq!(append_only.choice(), BackendChoice::Aos);
    }

    #[test]
    fn auto_routes_non_u64_lanes_to_aos() {
        // Even with a crossover of 0 (SoA always), a non-u64 value lane
        // must land on AoS in auto mode — but forced SoA is honored.
        let p = policy(PolicyMode::Auto, 0);
        let qm = AdaptiveBackend::<u32, OrderedF64>::try_with_policy(10, 0.5, None, &p).unwrap();
        assert_eq!(qm.choice(), BackendChoice::Aos);
        let forced = AdaptiveBackend::<u32, OrderedF64>::try_with_policy(
            10,
            0.5,
            None,
            &policy(PolicyMode::ForceSoa, 0),
        )
        .unwrap();
        assert_eq!(forced.choice(), BackendChoice::Soa);
    }

    #[test]
    fn fresh_preserves_choice() {
        let p = policy(PolicyMode::Auto, 90);
        let proto = AdaptiveBackend::<u32, u64>::try_with_policy(100, 0.25, Some(10), &p).unwrap();
        let block = IntervalBackend::fresh(&proto);
        assert_eq!(block.choice(), proto.choice());
        assert_eq!(IntervalBackend::capacity(&block), proto.capacity());
    }

    #[test]
    fn both_arms_match_reference() {
        let items: Vec<(u32, u64)> = (0..5000u64)
            .map(|i| (i as u32, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 10_000))
            .collect();
        let mut expect: Vec<u64> = items.iter().map(|&(_, v)| v).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(37);
        expect.sort_unstable();
        for mode in [PolicyMode::ForceAos, PolicyMode::ForceSoa] {
            let mut qm =
                AdaptiveBackend::<u32, u64>::try_with_policy(37, 0.6, None, &policy(mode, 0))
                    .unwrap();
            qm.insert_batch(&items);
            let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "{mode:?}");
        }
    }

    #[test]
    fn global_constructor_works() {
        let mut qm = AdaptiveBackend::<u32, u64>::new(5, 0.5);
        for v in 0u64..1000 {
            qm.insert(v as u32, v);
        }
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![995, 996, 997, 998, 999]);
        assert!(matches!(
            qm.backend_label(),
            "qmax-adaptive-aos" | "qmax-adaptive-soa"
        ));
    }

    #[test]
    #[should_panic(expected = "q must be positive")]
    fn zero_q_panics() {
        let _ = AdaptiveBackend::<u32, u64>::new(0, 0.5);
    }
}
