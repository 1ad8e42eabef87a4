//! The sharded q-MAX reservoir.

use crate::shard_key::ShardKey;
use qmax_core::{
    AdaptiveBackend, AdaptiveBasicSlackQMax, BatchInsert, DeamortizedQMax, DeamortizedStats, Entry,
    ExpDecayQMax, OrderedF64, QMax, QMaxError, SoaAmortizedQMax, SoaBasicSlackQMax,
    SoaDeamortizedQMax,
};
use qmax_select::nth_smallest;
use qmax_traces::hash;

/// Default seed mixed into shard hashing (any fixed constant works; it
/// only decorrelates shard assignment from other uses of the same key
/// hash, e.g. the RSS hash of the packet source).
const DEFAULT_SEED: u64 = 0x51AD_ED01;

/// A copyable id→shard mapping, usable while the shard backends are
/// temporarily moved into worker threads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardRouter {
    seed: u64,
    shards: usize,
}

impl ShardRouter {
    /// The shard for an id: a seeded 64-bit mix of the id's key word,
    /// reduced by multiply-shift (unbiased for any shard count).
    #[inline]
    pub(crate) fn route<I: ShardKey>(&self, id: &I) -> usize {
        let h = hash::hash64(id.shard_hash(), self.seed);
        (((h as u128) * (self.shards as u128)) >> 64) as usize
    }
}

/// `S` hash-partitioned q-MAX shards answering global top-`q` queries.
///
/// Each shard is an independent [`QMax`] backend configured with the
/// *global* `q`: partitioning by id means a shard sees only a sub-stream,
/// and retaining the local top-`q` of every sub-stream is exactly what
/// makes the merged union a superset of the global top-`q` (at most
/// `q − 1` items beat a global top-`q` item anywhere, so in particular
/// within its own shard).
///
/// The structure itself implements [`QMax`], so it can stand wherever a
/// single-instance backend does — including the cross-backend agreement
/// tests, which assert its merged result equals [`qmax_core::HeapQMax`]'s
/// value-for-value.
///
/// **Shared admission bound.** A shard filters against its own Ψ_s,
/// which tracks roughly the global `(S·q)`-th largest value, so on its
/// own each shard would admit about `S·q` items' worth of work. The
/// engine therefore keeps one `bound`: an exact lower bound on the
/// *global* `q`-th largest value, raised from the max of the shards' Ψ
/// and from the minimum of every merged query result, and drops
/// `val <= bound` before routing. It is the paper's network-wide merge
/// (§6.4: one global threshold pushed back to every measurement point)
/// inside one process; it relies on the retention contract of
/// [`QMax::threshold`].
///
/// Construction:
/// * [`ShardedQMax::new`] — `S` [`DeamortizedQMax`] shards (the paper's
///   worst-case-constant-time structure).
/// * [`ShardedQMax::with_backends`] — any homogeneous backend set built
///   by a closure, e.g. `AmortizedQMax` or `HeapQMax` shards.
#[derive(Debug)]
pub struct ShardedQMax<I, V, B = DeamortizedQMax<I, V>> {
    shards: Vec<B>,
    /// The backend factory the shards were built from, retained so a
    /// poisoned shard can be quarantined and rebuilt fresh (the
    /// `IntervalBackend::fresh` prototype pattern, lifted to the
    /// engine): the engine stays queryable with `S − k` populated
    /// reservoirs plus `k` empty replacements after `k` failures.
    factory: ShardFactory<B>,
    /// Configured shard count `S`; equals `shards.len()` except while a
    /// threaded run has temporarily moved the backends into workers.
    stated_shards: usize,
    q: usize,
    seed: u64,
    /// Items dropped by the batched pre-filter before reaching a shard.
    prefiltered: u64,
    /// Exact lower bound on the global `q`-th largest value the shards
    /// represent; only ever raised, and cleared whenever a shard backend
    /// is replaced. See the type-level docs.
    bound: Option<V>,
    /// `insert_batch`'s per-shard runs, kept between calls so the hot
    /// path does not allocate (grown on first use).
    runs: Vec<Vec<(I, V)>>,
    /// Per-shard health as of the most recent threaded/supervised run
    /// (all [`ShardHealth::Healthy`] for a purely sequential engine).
    health: Vec<ShardHealth>,
    /// Per-shard conserved items: items drained into the shard whose
    /// effect the engine committed to represent, as of the most recent
    /// threaded/supervised run.
    conserved: Vec<u64>,
}

/// How much of a shard's conserved state the current backend actually
/// represents — the per-shard input to coverage annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// The backend holds everything the shard drained.
    Healthy,
    /// The backend was warm-restored from a checkpoint: it represents
    /// the shard's conserved items (post-checkpoint losses were
    /// reclassified as quarantined), but the shard did fail during the
    /// run.
    Restored,
    /// The backend was rebuilt cold (no checkpoint): the shard's
    /// conserved items are not represented until new arrivals
    /// repopulate it.
    Degraded,
}

/// A merged top-`q` query annotated with how much of the engine's
/// conserved state backs it. See [`ShardedQMax::query_with_coverage`].
#[derive(Debug, Clone)]
pub struct CoverageQuery<I, V> {
    /// The merged global top-`q` (same contents as [`QMax::query`]).
    pub items: Vec<(I, V)>,
    /// Fraction of conserved items (across all shards) represented by
    /// currently healthy or warm-restored shards. Exactly 1.0 when
    /// every shard is healthy or fully restored; dips below 1.0 while
    /// a cold-rebuilt shard's slice of the state is missing.
    pub coverage: f64,
    /// Shards whose results are not exact ([`ShardHealth::Restored`]
    /// or [`ShardHealth::Degraded`]), in shard order.
    pub degraded_shards: Vec<usize>,
}

/// The stored shard constructor (index → backend). Boxed so the engine
/// type stays independent of the concrete closure.
struct ShardFactory<B>(Box<dyn FnMut(usize) -> B + Send>);

impl<B> std::fmt::Debug for ShardFactory<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ShardFactory(..)")
    }
}

impl<I: Clone, V: Ord + Clone> ShardedQMax<I, V> {
    /// Creates `shards` de-amortized shards, each tracking the global
    /// top-`q` with space-slack `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, or `gamma` is not positive
    /// and finite. Use [`ShardedQMax::try_new`] at fallible API
    /// boundaries.
    pub fn new(q: usize, gamma: f64, shards: usize) -> Self {
        Self::try_new(q, gamma, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ShardedQMax::new`]: rejects `q == 0`, non-positive /
    /// non-finite `gamma`, and `shards == 0` instead of panicking — the
    /// constructor a service exposes to operator-supplied configuration.
    pub fn try_new(q: usize, gamma: f64, shards: usize) -> Result<Self, QMaxError> {
        if shards == 0 {
            return Err(QMaxError::ZeroShards);
        }
        // Validate (q, gamma) once up front so the error surfaces
        // before any shard is built.
        DeamortizedQMax::<I, V>::try_new(q, gamma)?;
        Ok(Self::with_backends(q, shards, move |_| {
            DeamortizedQMax::new(q, gamma)
        }))
    }

    /// Per-shard de-amortized execution counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<DeamortizedStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Counters rolled up across shards: sums everywhere except
    /// `max_step_ops`, which is the maximum over shards — the quantity
    /// the worst-case `O(γ⁻¹)` bound constrains per arrival.
    pub fn aggregate_stats(&self) -> DeamortizedStats {
        let mut agg = DeamortizedStats::default();
        for s in self.shards.iter().map(|s| s.stats()) {
            agg.admitted += s.admitted;
            agg.filtered += s.filtered;
            agg.iterations += s.iterations;
            agg.forced_completions += s.forced_completions;
            agg.total_ops += s.total_ops;
            agg.max_step_ops = agg.max_step_ops.max(s.max_step_ops);
        }
        agg
    }
}

impl<I, V, B: QMax<I, V>> ShardedQMax<I, V, B> {
    /// Creates `shards` shards from `make_shard(shard_index)`.
    ///
    /// Every backend must be configured with the same global `q`
    /// (asserted), otherwise the merge-on-query superset argument
    /// breaks.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, or a backend reports a
    /// different `q`.
    ///
    /// The factory is retained for the lifetime of the engine: it is
    /// what [`ShardedQMax::rebuild_shard`] (and the fault-tolerant
    /// driver's quarantine path) stamps replacement backends out of, so
    /// it must be callable again with any shard index.
    pub fn with_backends<F: FnMut(usize) -> B + Send + 'static>(
        q: usize,
        shards: usize,
        mut make_shard: F,
    ) -> Self {
        assert!(q > 0, "q must be positive");
        assert!(shards > 0, "need at least one shard");
        let built: Vec<B> = (0..shards).map(&mut make_shard).collect();
        for (i, s) in built.iter().enumerate() {
            assert_eq!(
                s.q(),
                q,
                "shard {i} configured with q={}, engine q={q}",
                s.q()
            );
        }
        let stated_shards = built.len();
        ShardedQMax {
            shards: built,
            factory: ShardFactory(Box::new(make_shard)),
            stated_shards,
            q,
            seed: DEFAULT_SEED,
            prefiltered: 0,
            bound: None,
            runs: Vec::new(),
            health: vec![ShardHealth::Healthy; stated_shards],
            conserved: vec![0; stated_shards],
        }
    }

    /// Quarantines shard `s`: replaces its backend with a fresh, empty
    /// one stamped out of the stored factory and returns the displaced
    /// backend (drop it to discard the poisoned state).
    ///
    /// The other `S − 1` shards are untouched, so the engine remains
    /// queryable throughout — a merged query simply loses shard `s`'s
    /// contribution until new arrivals repopulate it, mirroring the
    /// paper's per-PMD independence (one PMD's instance restarting
    /// never stalls the others).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the factory produces a backend
    /// with a mismatched `q` (the same invariant construction checks).
    pub fn rebuild_shard(&mut self, s: usize) -> B {
        let fresh = self.fresh_shard(s);
        if self.conserved[s] > 0 || !self.shards[s].is_empty() {
            self.health[s] = ShardHealth::Degraded;
        }
        self.bound = None;
        std::mem::replace(&mut self.shards[s], fresh)
    }

    /// Warm variant of [`rebuild_shard`](Self::rebuild_shard): replaces
    /// shard `s`'s backend with a fresh one but salvages the displaced
    /// backend's local top-`q` into it first, returning the number of
    /// candidates carried over.
    ///
    /// This is the survival move when a shard's *structure* is suspect
    /// but its candidate set is still trusted (or was validated out of
    /// band): the rebuilt shard re-adopts exactly the candidates that
    /// determine every future top-`q` answer, so a merged query over the
    /// full history stays exact — any global top-`q` item from before
    /// the rebuild is, by definition, in its shard's local top-`q` and
    /// survives the salvage. Only the sub-top-`q` slack candidates and
    /// the admission threshold Ψ are discarded, which merely re-widens
    /// admission (the safe direction: Ψ may only have been too low,
    /// never too high). The shard is marked [`ShardHealth::Restored`]
    /// rather than `Degraded`.
    ///
    /// Backends that implement [`qmax_core::Checkpoint`] get the
    /// stronger per-batch checkpointed recovery through
    /// [`run_supervised`](Self::run_supervised); this method is the
    /// fallback for backends that do not (e.g. the default
    /// de-amortized layout).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the factory produces a backend
    /// with a mismatched `q`.
    pub fn rebuild_shard_warm(&mut self, s: usize) -> usize {
        let fresh = self.fresh_shard(s);
        self.bound = None;
        let mut old = std::mem::replace(&mut self.shards[s], fresh);
        let salvaged = old.query();
        let carried = salvaged.len();
        for (id, v) in salvaged {
            self.shards[s].insert(id, v);
        }
        if carried > 0 {
            self.health[s] = ShardHealth::Restored;
        }
        carried
    }

    /// Stamps a fresh backend for shard `s` out of the stored factory
    /// without touching the current shard vector (the threaded driver
    /// uses this while the backends live outside `self` mid-run).
    pub(crate) fn fresh_shard(&mut self, s: usize) -> B {
        let fresh = (self.factory.0)(s);
        assert_eq!(
            fresh.q(),
            self.q,
            "rebuilt shard {s} configured with q={}, engine q={}",
            fresh.q(),
            self.q
        );
        fresh
    }

    /// Replaces the shard-assignment seed (rarely needed; distinct
    /// engines sharing ids partition identically unless reseeded).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.stated_shards
    }

    /// Read access to the shard backends.
    pub fn shards(&self) -> &[B] {
        &self.shards
    }

    /// Each shard's [`QMax::backend_label`], indexed by shard —
    /// observability for the adaptive backend selection (which layout
    /// the policy actually chose per shard). Empty while a threaded run
    /// has the backends moved into workers.
    pub fn shard_backend_labels(&self) -> Vec<&'static str> {
        self.shards.iter().map(|s| s.backend_label()).collect()
    }

    /// Items dropped by the batched pre-filter (one compare against the
    /// shared admission bound) without touching a shard. Not counted in
    /// any shard's own `filtered` statistic.
    pub fn prefiltered(&self) -> u64 {
        self.prefiltered
    }

    /// Per-shard health as of the most recent threaded/supervised run.
    pub fn shard_health(&self) -> &[ShardHealth] {
        &self.health
    }

    /// Records the per-shard health and conserved-item counts of a
    /// finished driver run (the inputs to coverage annotation).
    pub(crate) fn set_coverage(&mut self, health: Vec<ShardHealth>, conserved: Vec<u64>) {
        debug_assert_eq!(health.len(), self.stated_shards);
        debug_assert_eq!(conserved.len(), self.stated_shards);
        self.health = health;
        self.conserved = conserved;
    }

    /// The merged top-`q` annotated with the fraction of conserved
    /// items represented by currently-healthy + warm-restored shards.
    ///
    /// Callers use this to distinguish an exact top-`q` (`coverage ==
    /// 1.0`, `degraded_shards` empty) from a partial one during or
    /// after an outage: a cold-rebuilt shard leaves its conserved items
    /// unrepresented (`coverage < 1.0`) until a warm restore — or new
    /// arrivals — bring the fraction back toward 1.0.
    pub fn query_with_coverage(&mut self) -> CoverageQuery<I, V>
    where
        I: ShardKey + Clone,
        V: Ord + Clone,
        B: QMax<I, V>,
    {
        let items = self.query();
        let total: u64 = self.conserved.iter().sum();
        let represented: u64 = self
            .conserved
            .iter()
            .zip(&self.health)
            .filter(|&(_, h)| !matches!(h, ShardHealth::Degraded))
            .map(|(&c, _)| c)
            .sum();
        let coverage = if total == 0 {
            1.0
        } else {
            represented as f64 / total as f64
        };
        let degraded_shards = self
            .health
            .iter()
            .enumerate()
            .filter(|&(_, h)| !matches!(h, ShardHealth::Healthy))
            .map(|(s, _)| s)
            .collect();
        CoverageQuery {
            items,
            coverage,
            degraded_shards,
        }
    }

    /// The shard an id routes to: a seeded 64-bit mix of the id's key
    /// word, reduced by multiply-shift (unbiased for any shard count).
    #[inline]
    pub fn shard_of(&self, id: &I) -> usize
    where
        I: ShardKey,
    {
        self.router().route(id)
    }

    /// The id→shard mapping as a standalone copyable value.
    pub(crate) fn router(&self) -> ShardRouter {
        ShardRouter {
            seed: self.seed,
            shards: self.shards.len().max(self.stated_shards),
        }
    }

    /// Moves the shard backends out (for worker threads); the engine is
    /// not queryable until [`Self::restore_shards`] puts them back. The
    /// shared bound is cleared: a run may rebuild a shard or restore an
    /// older checkpoint, so the backends that come back may represent
    /// less than the ones that left.
    pub(crate) fn take_shards(&mut self) -> Vec<B> {
        self.bound = None;
        std::mem::take(&mut self.shards)
    }

    /// Puts backends taken by [`Self::take_shards`] back in shard order.
    pub(crate) fn restore_shards(&mut self, shards: Vec<B>) {
        debug_assert_eq!(shards.len(), self.stated_shards);
        self.shards = shards;
    }

    /// Batched hot path: inserts a batch, dropping every item at or
    /// below the shared admission bound before it is routed.
    ///
    /// The bound is first raised to the max of the shards' Ψ, read
    /// **once per call**. Each Ψ_s is at most shard `s`'s local `q`-th
    /// largest value, hence at most the global one, so the bound stays
    /// exact: the pre-filter drops only items whose values cannot change
    /// the top-`q` value multiset (`<=` is the comparison every shard
    /// already uses, ties included). A Ψ raised mid-batch is picked up by
    /// the next call, and every shard still re-checks its own Ψ inside
    /// [`BatchInsert::insert_batch`]. A dropped item costs one compare:
    /// it is never hashed.
    ///
    /// Survivors are routed into per-shard runs (scratch reused across
    /// calls) and handed to each backend as one contiguous batch, so a
    /// structure-of-arrays backend can run its branchless filter over
    /// the whole run. Returns the number of admitted items.
    pub fn insert_batch(&mut self, items: &[(I, V)]) -> usize
    where
        I: ShardKey + Clone,
        V: Ord + Clone,
        B: BatchInsert<I, V>,
    {
        if self.shards.len() == 1 {
            // Single shard: routing and pre-filtering are pure overhead;
            // the backend's own admission filter sees the batch whole.
            return self.shards[0].insert_batch(items);
        }
        for shard in &self.shards {
            if let Some(t) = shard.threshold() {
                raise(&mut self.bound, t);
            }
        }
        let router = self.router();
        // Taken, not borrowed: a shard that panics mid-batch leaves no
        // stale run behind for the next call.
        let mut runs = std::mem::take(&mut self.runs);
        runs.resize_with(self.shards.len(), Vec::new);
        let mut dropped = 0u64;
        for (id, val) in items {
            if self.bound.as_ref().is_some_and(|b| val <= b) {
                dropped += 1;
                continue;
            }
            runs[router.route(id)].push((id.clone(), val.clone()));
        }
        self.prefiltered += dropped;
        let mut admitted = 0usize;
        for (shard, run) in self.shards.iter_mut().zip(&mut runs) {
            if !run.is_empty() {
                admitted += shard.insert_batch(run);
                run.clear();
            }
        }
        self.runs = runs;
        admitted
    }
}

/// Raises `bound` to `v` if `v` is larger (or `bound` is unset).
fn raise<V: Ord>(bound: &mut Option<V>, v: V) {
    if bound.as_ref().is_none_or(|b| *b < v) {
        *bound = Some(v);
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> ShardedQMax<I, V, SoaDeamortizedQMax<I, V>> {
    /// Creates `shards` structure-of-arrays de-amortized shards
    /// ([`SoaDeamortizedQMax`]) tracking the global top-`q` with
    /// space-slack `gamma`.
    ///
    /// Behaviorally identical to [`ShardedQMax::new`]; the difference is
    /// the per-shard layout — split `vals`/`ids` lanes with a branchless
    /// batch admission filter and value-only selection kernels — which
    /// pays off for `Copy` primitive ids/values on the
    /// [`ShardedQMax::insert_batch`] path.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, or `gamma` is not positive
    /// and finite.
    pub fn new_soa(q: usize, gamma: f64, shards: usize) -> Self {
        Self::with_backends(q, shards, move |_| SoaDeamortizedQMax::new(q, gamma))
    }

    /// Per-shard de-amortized execution counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<DeamortizedStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Counters rolled up across shards: sums everywhere except
    /// `max_step_ops`, which is the maximum over shards.
    pub fn aggregate_stats(&self) -> DeamortizedStats {
        let mut agg = DeamortizedStats::default();
        for s in self.shards.iter().map(|s| s.stats()) {
            agg.admitted += s.admitted;
            agg.filtered += s.filtered;
            agg.iterations += s.iterations;
            agg.forced_completions += s.forced_completions;
            agg.total_ops += s.total_ops;
            agg.max_step_ops = agg.max_step_ops.max(s.max_step_ops);
        }
        agg
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> ShardedQMax<I, V, SoaAmortizedQMax<I, V>> {
    /// Creates `shards` structure-of-arrays amortized shards
    /// ([`SoaAmortizedQMax`]): the lazily-compacted variant with the
    /// same split-lane layout and branchless batch filter as
    /// [`ShardedQMax::new_soa`].
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, or `gamma` is not positive
    /// and finite.
    pub fn new_soa_amortized(q: usize, gamma: f64, shards: usize) -> Self {
        Self::with_backends(q, shards, move |_| SoaAmortizedQMax::new(q, gamma))
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> ShardedQMax<I, V, SoaBasicSlackQMax<I, V>> {
    /// Creates `shards` structure-of-arrays slack-window shards
    /// ([`SoaBasicSlackQMax`]): each shard tracks the top-`q` of its
    /// sub-stream over a count-based `(W/S, τ)`-slack window, so the
    /// merged query approximates the global top-`q` of the last `w`
    /// arrivals (hash partitioning spreads a window of `w` global
    /// arrivals across shards as ≈ `w/S` arrivals each; per-shard
    /// block boundaries therefore jitter by the partition's deviation
    /// from a perfect split, which concentrates tightly for `w ≫ S`).
    ///
    /// Window shards report no admission threshold (block boundaries
    /// count *arrivals*, so dropping items early would shift them);
    /// [`ShardedQMax::insert_batch`] detects that and routes every item
    /// through, still batching per-shard runs through the SoA kernel.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, `gamma` is not positive and
    /// finite, `w == 0`, or `tau` is outside `(0, 1]`.
    pub fn new_windowed_soa(q: usize, gamma: f64, shards: usize, w: usize, tau: f64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(w > 0, "window must be positive");
        let per_shard_w = (w / shards).max(1);
        Self::with_backends(q, shards, move |_| {
            SoaBasicSlackQMax::new_soa(q, gamma, per_shard_w, tau)
        })
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> ShardedQMax<I, V, AdaptiveBasicSlackQMax<I, V>> {
    /// Creates `shards` slack-window shards whose per-block layout is
    /// chosen by the calibrated backend policy (see
    /// [`qmax_core::BackendPolicy`]): each shard's expected per-block
    /// fill `⌈(w/S)·τ⌉` decides between the array-of-structs and
    /// structure-of-arrays block, ending the small-τ collapse of the
    /// hand-picked SoA configuration while keeping its large-fill wins.
    ///
    /// This is the recommended windowed constructor;
    /// [`ShardedQMax::new_windowed_soa`] remains for pinning the layout
    /// by hand. Inspect the per-shard decisions with
    /// [`ShardedQMax::shard_backend_labels`].
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, `gamma` is not positive and
    /// finite, `w == 0`, or `tau` is outside `(0, 1]`.
    pub fn new_windowed(q: usize, gamma: f64, shards: usize, w: usize, tau: f64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(w > 0, "window must be positive");
        let per_shard_w = (w / shards).max(1);
        Self::with_backends(q, shards, move |_| {
            AdaptiveBasicSlackQMax::new_adaptive(q, gamma, per_shard_w, tau)
        })
    }
}

impl<I: Copy + 'static> ShardedQMax<I, OrderedF64, ExpDecayQMax<AdaptiveBackend<I, OrderedF64>>> {
    /// Creates `shards` exponential-decay shards whose reservoir layout
    /// is chosen by the calibrated backend policy. Decayed reservoirs
    /// score in [`OrderedF64`], a lane the SIMD kernels cannot
    /// vectorize, so the `auto` policy resolves these shards to the
    /// array-of-structs layout; `QMAX_BACKEND_POLICY=force-soa` still
    /// pins the split-lane layout for comparison runs.
    ///
    /// Semantics are identical to [`ShardedQMax::new_decayed_soa`]
    /// (per-shard decay `c^S`, no admission threshold).
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, `gamma` is not positive and
    /// finite, or `c` is outside `(0, 1]`.
    pub fn new_decayed(q: usize, gamma: f64, shards: usize, c: f64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(c > 0.0 && c <= 1.0, "decay parameter must be in (0, 1]");
        let c_shard = c.powf(shards as f64).max(f64::MIN_POSITIVE);
        Self::with_backends(q, shards, move |_| {
            ExpDecayQMax::new(AdaptiveBackend::new(q, gamma), c_shard)
        })
    }
}

impl<I: Copy + 'static> ShardedQMax<I, OrderedF64, ExpDecayQMax<SoaAmortizedQMax<I, OrderedF64>>> {
    /// Creates `shards` exponential-decay shards over structure-of-arrays
    /// reservoirs: each shard ages its sub-stream with per-shard decay
    /// `c^S`, so an item `k` *global* arrivals old has decayed by
    /// ≈ `c^k` (its shard saw ≈ `k/S` of those arrivals). The decay
    /// clock advances per shard-local arrival, so the equivalence is in
    /// expectation over the hash partition.
    ///
    /// Decayed shards report no admission threshold (an arriving item's
    /// stored score depends on its arrival time), disabling the
    /// engine's Ψ-prefilter; per-shard runs still flow through the SoA
    /// batch kernel with the log transform applied once per run.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, `gamma` is not positive and
    /// finite, or `c` is outside `(0, 1]`.
    pub fn new_decayed_soa(q: usize, gamma: f64, shards: usize, c: f64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(c > 0.0 && c <= 1.0, "decay parameter must be in (0, 1]");
        let c_shard = c.powf(shards as f64).max(f64::MIN_POSITIVE);
        Self::with_backends(q, shards, move |_| {
            ExpDecayQMax::new(SoaAmortizedQMax::new(q, gamma), c_shard)
        })
    }
}

impl<I: ShardKey, V: Ord + Clone, B: QMax<I, V>> QMax<I, V> for ShardedQMax<I, V, B> {
    fn insert(&mut self, id: I, val: V) -> bool {
        let s = self.shard_of(&id);
        self.shards[s].insert(id, val)
    }

    /// The merged global top-`q`: every shard's raw candidates at or
    /// above the shared bound (the global top-`q` all are), cut to `q` by
    /// one selection. When every shard reports a Ψ, the result's
    /// minimum — the global `q`-th largest value — then raises the
    /// bound.
    fn query(&mut self) -> Vec<(I, V)> {
        if self.shards.len() == 1 {
            // Single shard: its own query is the answer.
            return self.shards[0].query();
        }
        let mut merged: Vec<Entry<I, V>> = Vec::new();
        let mut all_psi = true;
        for shard in &mut self.shards {
            all_psi &= shard.threshold().is_some();
            let start = merged.len();
            merged.reserve_exact(shard.len());
            shard.gather_candidates(&mut merged);
            if let Some(b) = &self.bound {
                retain_at_least(&mut merged, start, b);
            }
        }
        if merged.len() > self.q {
            // Select so the q largest occupy the suffix, then keep only
            // that suffix.
            let cut = merged.len() - self.q;
            nth_smallest(&mut merged, cut);
            merged.drain(..cut);
        }
        if all_psi && merged.len() == self.q {
            if let Some(min) = merged.iter().map(|e| &e.val).min() {
                raise(&mut self.bound, min.clone());
            }
        }
        merged.into_iter().map(|e| (e.id, e.val)).collect()
    }

    fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
        self.prefiltered = 0;
        self.bound = None;
        self.health.fill(ShardHealth::Healthy);
        self.conserved.fill(0);
    }

    fn q(&self) -> usize {
        self.q
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// The global admission threshold: the *minimum* over shard
    /// thresholds. A value at or below it is at or below its own
    /// shard's Ψ, so it would be filtered wherever it routes; `None`
    /// until every shard has established a threshold.
    fn threshold(&self) -> Option<V> {
        let mut min: Option<V> = None;
        for shard in &self.shards {
            let t = shard.threshold()?;
            min = Some(match min {
                Some(m) if m <= t => m,
                _ => t,
            });
        }
        min
    }

    fn name(&self) -> &'static str {
        "qmax-sharded"
    }
}

/// Drops the entries of `v[start..]` whose value is below `floor`,
/// keeping the rest in place (order not preserved).
fn retain_at_least<I, V: Ord>(v: &mut Vec<Entry<I, V>>, start: usize, floor: &V) {
    let mut i = start;
    let mut end = v.len();
    while i < end {
        if v[i].val < *floor {
            end -= 1;
            v.swap(i, end);
        } else {
            i += 1;
        }
    }
    v.truncate(end);
}

impl<I: ShardKey + Clone, V: Ord + Clone, B: BatchInsert<I, V>> BatchInsert<I, V>
    for ShardedQMax<I, V, B>
{
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        ShardedQMax::insert_batch(self, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmax_core::HeapQMax;
    use qmax_traces::gen::random_u64_stream;

    fn top_q_reference(vals: &[u64], q: usize) -> Vec<u64> {
        let mut s = vals.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s.truncate(q);
        s.sort_unstable();
        s
    }

    fn sorted_vals(qm: &mut impl QMax<u64, u64>) -> Vec<u64> {
        let mut v: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_reference_across_shard_counts() {
        let vals: Vec<u64> = random_u64_stream(40_000, 3).collect();
        for q in [1usize, 16, 500] {
            let expect = top_q_reference(&vals, q);
            for shards in [1usize, 2, 4, 8] {
                let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
                for (i, &v) in vals.iter().enumerate() {
                    engine.insert(i as u64, v);
                }
                assert_eq!(sorted_vals(&mut engine), expect, "q={q} shards={shards}");
            }
        }
    }

    #[test]
    fn batch_insert_equals_singleton_inserts() {
        let vals: Vec<u64> = random_u64_stream(30_000, 5).collect();
        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let q = 64;
        let mut batched: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 4);
        let mut single: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 4);
        for chunk in items.chunks(777) {
            batched.insert_batch(chunk);
        }
        for (id, v) in &items {
            single.insert(*id, *v);
        }
        assert_eq!(sorted_vals(&mut batched), sorted_vals(&mut single));
        // The pre-filter must shed the bulk of a long random stream.
        assert!(
            batched.prefiltered() > items.len() as u64 / 2,
            "pre-filter inactive"
        );
    }

    #[test]
    fn pre_filter_never_loses_an_admissible_item() {
        // Ascending stream: every item beats the current threshold, so
        // nothing may be pre-filtered and the final top-q is exact.
        let q = 32;
        let items: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i, i)).collect();
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, 4);
        for chunk in items.chunks(512) {
            engine.insert_batch(chunk);
        }
        let expect: Vec<u64> = (20_000 - q as u64..20_000).collect();
        assert_eq!(sorted_vals(&mut engine), expect);
    }

    #[test]
    fn agrees_with_heap_backend_shards() {
        let vals: Vec<u64> = random_u64_stream(25_000, 9).collect();
        let q = 100;
        let mut engine: ShardedQMax<u64, u64, HeapQMax<u64, u64>> =
            ShardedQMax::with_backends(q, 3, move |_| HeapQMax::new(q));
        for (i, &v) in vals.iter().enumerate() {
            engine.insert(i as u64, v);
        }
        assert_eq!(sorted_vals(&mut engine), top_q_reference(&vals, q));
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let engine: ShardedQMax<u64, u64> = ShardedQMax::new(8, 0.5, 5);
        for id in 0..10_000u64 {
            let s = engine.shard_of(&id);
            assert!(s < 5);
            assert_eq!(s, engine.shard_of(&id), "routing not deterministic");
        }
    }

    #[test]
    fn shards_see_disjoint_balanced_slices() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(4, 0.5, 4);
        let n = 40_000u64;
        for id in 0..n {
            engine.insert(id, hash::mix64(id));
        }
        let stats = engine.shard_stats();
        let total: u64 = stats.iter().map(|s| s.admitted + s.filtered).sum();
        assert_eq!(total, n, "arrival accounting leak across shards");
        for (i, s) in stats.iter().enumerate() {
            let seen = s.admitted + s.filtered;
            assert!(
                seen > n / 8 && seen < n / 2,
                "shard {i} saw {seen} of {n}: partition badly unbalanced"
            );
        }
    }

    #[test]
    fn threshold_is_min_over_shards() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(4, 0.25, 3);
        assert_eq!(engine.threshold(), None);
        for id in 0..50_000u64 {
            engine.insert(id, hash::mix64(id) % 100_000);
        }
        let global = engine.threshold().expect("threshold after 50k inserts");
        let per_shard: Vec<u64> = engine
            .shards()
            .iter()
            .map(|s| s.threshold().expect("shard threshold"))
            .collect();
        assert_eq!(global, per_shard.iter().copied().min().unwrap());
        // Safety: a value at the global threshold is never admitted.
        assert!(!engine.insert(u64::MAX, global));
    }

    #[test]
    fn reset_clears_every_shard() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(4, 0.5, 4);
        for id in 0..5_000u64 {
            engine.insert(id, id);
        }
        engine.reset();
        assert!(engine.is_empty());
        assert_eq!(engine.threshold(), None);
        assert_eq!(engine.prefiltered(), 0);
        for id in 0..100u64 {
            engine.insert(id, id);
        }
        assert_eq!(engine.query().len(), 4);
    }

    #[test]
    fn single_shard_degenerates_to_backend() {
        let vals: Vec<u64> = random_u64_stream(10_000, 11).collect();
        let q = 50;
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.3, 1);
        let mut plain = DeamortizedQMax::new(q, 0.3);
        for (i, &v) in vals.iter().enumerate() {
            engine.insert(i as u64, v);
            plain.insert(i as u64, v);
        }
        let mut a = sorted_vals(&mut engine);
        let mut b: Vec<u64> = plain.query().into_iter().map(|(_, v)| v).collect();
        b.sort_unstable();
        a.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "shard 0 configured with q=3")]
    fn mismatched_shard_q_is_rejected() {
        let _: ShardedQMax<u64, u64, HeapQMax<u64, u64>> =
            ShardedQMax::with_backends(5, 2, |_| HeapQMax::new(3));
    }

    #[test]
    fn soa_backend_matches_aos_backend() {
        let vals: Vec<u64> = random_u64_stream(30_000, 13).collect();
        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        for q in [1usize, 64, 300] {
            for shards in [1usize, 4] {
                let mut aos: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, shards);
                let mut soa = ShardedQMax::new_soa(q, 0.5, shards);
                for chunk in items.chunks(1024) {
                    aos.insert_batch(chunk);
                    soa.insert_batch(chunk);
                }
                assert_eq!(
                    sorted_vals(&mut aos),
                    sorted_vals(&mut soa),
                    "q={q} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn soa_amortized_backend_matches_reference() {
        let vals: Vec<u64> = random_u64_stream(25_000, 17).collect();
        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let q = 128;
        let mut engine = ShardedQMax::new_soa_amortized(q, 0.5, 4);
        for chunk in items.chunks(777) {
            engine.insert_batch(chunk);
        }
        assert_eq!(sorted_vals(&mut engine), top_q_reference(&vals, q));
    }

    #[test]
    fn soa_shard_stats_roll_up() {
        let mut engine = ShardedQMax::new_soa(16, 0.5, 4);
        let items: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i, hash::mix64(i))).collect();
        for chunk in items.chunks(512) {
            engine.insert_batch(chunk);
        }
        let agg = engine.aggregate_stats();
        assert_eq!(agg.forced_completions, 0);
        // Every item was either pre-filtered by the engine or accounted
        // for by exactly one shard.
        assert_eq!(
            agg.admitted + agg.filtered + engine.prefiltered(),
            items.len() as u64
        );
        assert_eq!(engine.shard_stats().len(), 4);
    }

    #[test]
    fn windowed_shards_expire_old_items_and_track_recent_top() {
        let q = 8;
        let w = 10_000;
        let mut engine = ShardedQMax::new_windowed_soa(q, 0.5, 4, w, 0.25);
        // An early burst of huge values, then several windows of
        // moderate ones: the burst must age out of every shard.
        let huge: Vec<(u64, u64)> = (0..100u64).map(|i| (i, 1_000_000_000 + i)).collect();
        engine.insert_batch(&huge);
        let recent: Vec<(u64, u64)> = (0..(4 * w) as u64)
            .map(|i| (100 + i, 1_000 + hash::mix64(i) % 100_000))
            .collect();
        for chunk in recent.chunks(1024) {
            engine.insert_batch(chunk);
        }
        let got: Vec<u64> = engine.query().into_iter().map(|(_, v)| v).collect();
        assert_eq!(got.len(), q);
        assert!(
            got.iter().all(|&v| v < 1_000_000_000),
            "expired burst leaked through a shard window: {got:?}"
        );
        // Window shards must disable the Ψ-prefilter entirely.
        assert_eq!(engine.threshold(), None);
        assert_eq!(engine.prefiltered(), 0);
    }

    #[test]
    fn decayed_shards_prefer_recent_items() {
        use qmax_core::OrderedF64;
        let q = 8;
        let mut engine = ShardedQMax::new_decayed_soa(q, 0.5, 4, 0.9);
        // One huge early item, then a long run of small ones: decay
        // must sink the early item below the recent tail.
        engine.insert_batch(&[(0u64, OrderedF64(1e9))]);
        let tail: Vec<(u64, OrderedF64)> = (1..5_000u64).map(|i| (i, OrderedF64(2.0))).collect();
        for chunk in tail.chunks(512) {
            engine.insert_batch(chunk);
        }
        let ids: Vec<u64> = engine.query().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), q);
        assert!(!ids.contains(&0), "decayed item survived: {ids:?}");
        assert_eq!(engine.threshold(), None);
        assert_eq!(engine.prefiltered(), 0);
    }

    #[test]
    fn adaptive_windowed_shards_match_soa_windowed_shards() {
        // The adaptive constructor must answer the same windowed
        // queries as the hand-picked SoA configuration — the policy
        // only moves the layout, never the semantics.
        let q = 8;
        let w = 10_000;
        let items: Vec<(u64, u64)> = (0..(4 * w) as u64)
            .map(|i| (i, 1_000 + hash::mix64(i) % 100_000))
            .collect();
        let mut ada = ShardedQMax::new_windowed(q, 0.5, 4, w, 0.25);
        let mut soa = ShardedQMax::new_windowed_soa(q, 0.5, 4, w, 0.25);
        for chunk in items.chunks(1024) {
            ada.insert_batch(chunk);
            soa.insert_batch(chunk);
        }
        assert_eq!(sorted_vals(&mut ada), sorted_vals(&mut soa));
        // Per-shard labels surface the decision the policy made.
        let labels = ada.shard_backend_labels();
        assert_eq!(labels.len(), 4);
        for l in labels {
            assert!(l.starts_with("qmax-adaptive"), "unexpected label {l}");
        }
    }

    #[test]
    fn adaptive_decayed_shards_match_soa_decayed_shards() {
        use qmax_core::OrderedF64;
        let q = 8;
        let items: Vec<(u64, OrderedF64)> = (0..20_000u64)
            .map(|i| (i, OrderedF64(1.0 + (hash::mix64(i) % 1_000) as f64)))
            .collect();
        let mut ada = ShardedQMax::new_decayed(q, 0.5, 4, 0.999);
        let mut soa = ShardedQMax::new_decayed_soa(q, 0.5, 4, 0.999);
        for chunk in items.chunks(512) {
            ada.insert_batch(chunk);
            soa.insert_batch(chunk);
        }
        let ids = |v: Vec<(u64, OrderedF64)>| {
            let mut ids: Vec<u64> = v.into_iter().map(|(id, _)| id).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids(ada.query()), ids(soa.query()));
        // The score lane is OrderedF64, which SIMD cannot vectorize, so
        // the auto policy must resolve decayed shards to AoS.
        if std::env::var("QMAX_BACKEND_POLICY").is_err() {
            for l in ada.shard_backend_labels() {
                assert_eq!(l, "qmax-adaptive-aos");
            }
        }
    }

    /// Phase 1 puts the global top-`q` (huge values) on shard 0 and
    /// filler on the rest, then queries so the shared bound rises to a
    /// huge value. A cold rebuild of shard 0 must clear that bound: the
    /// medium values inserted next are below it, yet they are the top-`q`
    /// of what the engine still represents.
    #[test]
    fn cold_rebuild_clears_the_shared_bound() {
        let q = 8;
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 4);
        let phase1: Vec<(u64, u64)> = (0..4_000u64)
            .map(|id| {
                let v = if engine.shard_of(&id) == 0 {
                    1_000_000_000 + id
                } else {
                    id % 100
                };
                (id, v)
            })
            .collect();
        let mut reference = HeapQMax::new(q);
        for chunk in phase1.chunks(256) {
            engine.insert_batch(chunk);
        }
        for &(id, v) in phase1.iter().filter(|(id, _)| engine.shard_of(id) != 0) {
            reference.insert(id, v);
        }
        let before = sorted_vals(&mut engine);
        assert!(before.iter().all(|&v| v >= 1_000_000_000));
        assert!(engine.bound.is_some(), "query must set the bound");

        engine.rebuild_shard(0);
        assert_eq!(engine.bound, None);
        let phase2: Vec<(u64, u64)> = (10_000..10_400u64).map(|id| (id, id)).collect();
        for chunk in phase2.chunks(64) {
            engine.insert_batch(chunk);
        }
        for &(id, v) in &phase2 {
            reference.insert(id, v);
        }
        assert_eq!(sorted_vals(&mut engine), sorted_vals(&mut reference));
    }

    #[test]
    fn query_bound_sheds_what_the_shard_thresholds_admit() {
        // After a merged query the engine drops everything at or below
        // the global q-th value, which the per-shard Ψ (each near the
        // global (S·q)-th value) would still let through.
        let q = 64;
        let items: Vec<(u64, u64)> = (0..60_000u64).map(|i| (i, hash::mix64(i))).collect();
        let (warm, rest) = items.split_at(30_000);
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 4);
        for chunk in warm.chunks(512) {
            engine.insert_batch(chunk);
        }
        let top = engine.query();
        let qth = top.iter().map(|&(_, v)| v).min().unwrap();
        assert_eq!(engine.bound, Some(qth));
        let max_psi = engine.shards().iter().filter_map(|s| s.threshold()).max();
        assert!(max_psi < Some(qth), "bound no tighter than max Ψ");
        let before = engine.prefiltered();
        engine.insert_batch(&rest[..512]);
        let dropped = engine.prefiltered() - before;
        let at_or_below = rest[..512].iter().filter(|&&(_, v)| v <= qth).count();
        assert_eq!(dropped, at_or_below as u64);
    }

    #[test]
    fn warm_rebuild_and_reset_clear_the_shared_bound() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(16, 0.5, 3);
        let items: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i, hash::mix64(i))).collect();
        let (a, b) = items.split_at(20_000);
        for chunk in a.chunks(1024) {
            engine.insert_batch(chunk);
        }
        engine.query();
        assert!(engine.bound.is_some());
        engine.rebuild_shard_warm(1);
        assert_eq!(engine.bound, None);
        for chunk in b.chunks(1024) {
            engine.insert_batch(chunk);
        }
        engine.query();
        assert!(engine.bound.is_some());
        engine.reset();
        assert_eq!(engine.bound, None);
    }

    #[test]
    fn batch_prefilter_stays_active_with_hoisted_psi() {
        // A long skewed-ish stream must still be shed mostly by the
        // per-call Ψ snapshot even though it is no longer refreshed per
        // admitted item.
        let vals: Vec<u64> = random_u64_stream(30_000, 5).collect();
        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(64, 0.5, 4);
        for chunk in items.chunks(777) {
            engine.insert_batch(chunk);
        }
        assert!(
            engine.prefiltered() > items.len() as u64 / 2,
            "pre-filter inactive: {} of {}",
            engine.prefiltered(),
            items.len()
        );
    }
}
