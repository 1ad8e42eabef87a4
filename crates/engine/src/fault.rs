//! Deterministic fault injection for the sharded driver.
//!
//! Robustness claims are only as good as the failures they were tested
//! against, so this module makes failures *reproducible*: a
//! [`FaultyBackend`] wraps any [`QMax`] backend and fires a scripted
//! [`FaultSchedule`] — panics, stalls, and out-of-range values — at
//! exact insert counts. The same schedule over the same stream fails at
//! the same item every run, which is what lets the chaos suite compare
//! a faulted threaded run against a clean sequential reference.
//!
//! The schedule triggers on *offered* inserts (calls that reach the
//! backend after the driver's Ψ-prefilter), which is a deterministic
//! function of the shard's sub-stream under the blocking overload
//! policy.

use qmax_core::{BackendSnapshot, BatchInsert, Checkpoint, Entry, QMax};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::Duration;

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic mid-insert, as a backend bug would: the wrapped backend's
    /// state is abandoned mid-operation, exercising the driver's
    /// quarantine path.
    Panic,
    /// Sleep for `millis` before the insert proceeds: a slow shard, not
    /// a broken one. Results are unaffected; queues fill — the fault
    /// that exercises [`crate::OverloadPolicy::Shed`].
    Stall {
        /// Stall duration per firing, in milliseconds.
        millis: u64,
    },
    /// Simulate the backend's own input validation tripping on a
    /// corrupt (out-of-range) value: panics like [`FaultKind::Panic`]
    /// but with the message a validation assert would carry.
    BadValue,
}

/// When a fault fires, measured in offered inserts (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Fire once, on exactly the `n`-th insert.
    At(u64),
    /// Fire on every `n`-th insert (n, 2n, 3n, …).
    Every(u64),
}

/// A scripted list of faults for one backend instance.
///
/// Schedules are `Clone` so a shard factory can stamp the same script
/// into every rebuild — note this means a rebuilt shard re-arms its
/// one-shot faults from zero.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    faults: Vec<(Trigger, FaultKind)>,
}

impl FaultSchedule {
    /// No faults: the wrapped backend behaves exactly like the inner
    /// one (used for the healthy shards of a chaos run).
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Panic once, on the `n`-th offered insert (1-based).
    pub fn panic_at(n: u64) -> Self {
        FaultSchedule {
            faults: vec![(Trigger::At(n.max(1)), FaultKind::Panic)],
        }
    }

    /// Trip the simulated input-validation assert once, on the `n`-th
    /// offered insert (1-based).
    pub fn bad_value_at(n: u64) -> Self {
        FaultSchedule {
            faults: vec![(Trigger::At(n.max(1)), FaultKind::BadValue)],
        }
    }

    /// Stall `millis` ms once, on the `n`-th offered insert (1-based).
    pub fn stall_at(n: u64, millis: u64) -> Self {
        FaultSchedule {
            faults: vec![(Trigger::At(n.max(1)), FaultKind::Stall { millis })],
        }
    }

    /// Stall `millis` ms on every `period`-th offered insert: a
    /// persistently slow shard.
    pub fn stall_every(period: u64, millis: u64) -> Self {
        FaultSchedule {
            faults: vec![(Trigger::Every(period.max(1)), FaultKind::Stall { millis })],
        }
    }

    /// Appends another schedule's faults to this one (builder-style).
    pub fn and(mut self, other: FaultSchedule) -> Self {
        self.faults.extend(other.faults);
        self
    }

    /// Whether any scheduled fault poisons the backend when it fires
    /// ([`FaultKind::Panic`] or [`FaultKind::BadValue`]; stalls only
    /// slow it down).
    pub fn is_poisonous(&self) -> bool {
        self.faults
            .iter()
            .any(|(_, k)| matches!(k, FaultKind::Panic | FaultKind::BadValue))
    }

    /// A pseudorandom schedule derived from `seed`: possibly empty,
    /// possibly a one-shot panic / bad value / stall somewhere in
    /// `1..=horizon`, possibly a periodic micro-stall (long period,
    /// sub-millisecond pauses — a slow shard, not a dead one).
    /// Identical seeds yield identical schedules — the chaos suite's
    /// source of reproducible variety.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let horizon = horizon.max(1);
        let mut x = seed;
        let mut next = move || {
            // splitmix64: the same generator the proptest shim uses.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        match next() % 5 {
            0 => FaultSchedule::none(),
            1 => FaultSchedule::panic_at(next() % horizon + 1),
            2 => FaultSchedule::bad_value_at(next() % horizon + 1),
            3 => FaultSchedule::stall_at(next() % horizon + 1, next() % 3),
            _ => FaultSchedule::stall_every(horizon / 2 + next() % horizon + 1, next() % 2),
        }
    }
}

/// A [`QMax`] backend that fails on schedule.
///
/// Wraps any inner backend and forwards every call, firing the
/// [`FaultSchedule`]'s faults at their scripted insert counts. Intended
/// for tests and the chaos CI job; it costs one counter increment and a
/// (usually empty) schedule scan per insert.
#[derive(Debug, Clone)]
pub struct FaultyBackend<B> {
    inner: B,
    schedule: FaultSchedule,
    /// One-shot faults already fired (parallel to `schedule.faults`).
    fired: Vec<bool>,
    /// Offered inserts so far.
    seen: u64,
}

impl<B> FaultyBackend<B> {
    /// Wraps `inner` with a fault script.
    pub fn new(inner: B, schedule: FaultSchedule) -> Self {
        let fired = vec![false; schedule.faults.len()];
        FaultyBackend {
            inner,
            schedule,
            fired,
            seen: 0,
        }
    }

    /// Read access to the wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Offered inserts so far (the schedule's clock).
    pub fn offered(&self) -> u64 {
        self.seen
    }

    /// Fires every fault scheduled for insert number `n`.
    fn fire(&mut self, n: u64) {
        for (i, &(trigger, kind)) in self.schedule.faults.iter().enumerate() {
            let due = match trigger {
                Trigger::At(at) => !self.fired[i] && n == at,
                Trigger::Every(period) => n.is_multiple_of(period),
            };
            if !due {
                continue;
            }
            self.fired[i] = true;
            match kind {
                FaultKind::Panic => {
                    panic!("fault-injected: scripted panic at insert {n}")
                }
                FaultKind::BadValue => {
                    panic!("fault-injected: value out of range at insert {n}")
                }
                FaultKind::Stall { millis } => std::thread::sleep(Duration::from_millis(millis)),
            }
        }
    }
}

impl<I, V: Ord, B: QMax<I, V>> QMax<I, V> for FaultyBackend<B> {
    fn insert(&mut self, id: I, val: V) -> bool {
        self.seen += 1;
        self.fire(self.seen);
        self.inner.insert(id, val)
    }

    fn query(&mut self) -> Vec<(I, V)> {
        self.inner.query()
    }

    fn gather_candidates(&mut self, out: &mut Vec<Entry<I, V>>) {
        self.inner.gather_candidates(out)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.seen = 0;
        self.fired.iter_mut().for_each(|f| *f = false);
    }

    fn q(&self) -> usize {
        self.inner.q()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn threshold(&self) -> Option<V> {
        self.inner.threshold()
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

impl<I, V: Ord, B: Checkpoint<I, V>> Checkpoint<I, V> for FaultyBackend<B> {
    fn snapshot(&self) -> BackendSnapshot<I, V> {
        self.inner.snapshot()
    }

    /// Restores the wrapped backend's logical state only. `seen` and
    /// `fired` keep advancing across a warm restore — a one-shot fault
    /// fires once per [`QMax::reset`] arming, not once per recovery, so
    /// a supervised shard that panics and warm-restores does not panic
    /// again on the very next insert.
    fn restore(&mut self, snap: &BackendSnapshot<I, V>) {
        self.inner.restore(snap);
    }
}

impl<I: Clone, V: Ord + Clone, B: QMax<I, V>> BatchInsert<I, V> for FaultyBackend<B> {
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut admitted = 0;
        for (id, val) in items {
            if self.insert(id.clone(), val.clone()) {
                admitted += 1;
            }
        }
        admitted
    }
}

/// Live [`silence_fault_panics`] guards. The filtering hook only
/// swallows scripted panics while this is non-zero; at zero every
/// payload falls through to the previously installed hook.
static SILENCE_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// Scope token returned by [`silence_fault_panics`]. While at least one
/// guard is alive, panic payloads containing `"fault-injected"` are
/// swallowed; dropping the last guard restores the previous hook's
/// behaviour for *all* panics.
#[derive(Debug)]
pub struct FaultSilenceGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for FaultSilenceGuard {
    fn drop(&mut self) {
        SILENCE_DEPTH.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Keeps fault-injected panics out of test output — *scoped*.
///
/// Panics caught by the driver still run the global panic hook, which
/// by default prints a backtrace banner per panic — noise when a chaos
/// run fires hundreds of *scripted* panics. This arms a filter that
/// swallows payloads containing `"fault-injected"` and forwards
/// everything else to the previously installed hook, so real failures
/// still print.
///
/// The filter is only active while the returned [`FaultSilenceGuard`]
/// (or another one) is alive: once every guard has dropped, the
/// previous hook's behaviour is fully restored, including for scripted
/// payloads. Earlier revisions installed the filter permanently, which
/// hid scripted-looking panics escaping from *later*, unrelated tests
/// in the same process.
#[must_use = "the panic filter is only active while the guard is alive"]
pub fn silence_fault_panics() -> FaultSilenceGuard {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SILENCE_DEPTH.load(Ordering::SeqCst) > 0 {
                let message = info
                    .payload()
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()));
                if let Some(m) = message {
                    if m.contains("fault-injected") {
                        return;
                    }
                }
            }
            previous(info);
        }));
    });
    SILENCE_DEPTH.fetch_add(1, Ordering::SeqCst);
    FaultSilenceGuard {
        _not_send: std::marker::PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmax_core::HeapQMax;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn clean_schedule_is_transparent() {
        let mut faulty = FaultyBackend::new(HeapQMax::new(3), FaultSchedule::none());
        let mut plain = HeapQMax::new(3);
        for i in 0..100u64 {
            assert_eq!(faulty.insert(i, i * 7 % 31), plain.insert(i, i * 7 % 31));
        }
        let mut a: Vec<u64> = faulty.query().into_iter().map(|(_, v)| v).collect();
        let mut b: Vec<u64> = plain.query().into_iter().map(|(_, v)| v).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(faulty.offered(), 100);
    }

    #[test]
    fn panic_fires_at_the_scripted_insert_exactly_once() {
        let _silence = silence_fault_panics();
        let mut faulty = FaultyBackend::new(HeapQMax::new(3), FaultSchedule::panic_at(5));
        for i in 0..4u64 {
            faulty.insert(i, i);
        }
        let err = catch_unwind(AssertUnwindSafe(|| faulty.insert(4, 4)))
            .expect_err("insert 5 must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("fault-injected"), "got {msg:?}");
        assert!(msg.contains("insert 5"), "got {msg:?}");
        // One-shot: the fault does not re-fire.
        assert!(catch_unwind(AssertUnwindSafe(|| faulty.insert(5, 5))).is_ok());
        // …until reset re-arms the script.
        faulty.reset();
        for i in 0..4u64 {
            faulty.insert(i, i);
        }
        assert!(catch_unwind(AssertUnwindSafe(|| faulty.insert(4, 4))).is_err());
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        for seed in 0..64u64 {
            let a = format!("{:?}", FaultSchedule::seeded(seed, 1000));
            let b = format!("{:?}", FaultSchedule::seeded(seed, 1000));
            assert_eq!(a, b);
        }
        // The generator actually produces variety.
        let distinct: std::collections::HashSet<String> = (0..64u64)
            .map(|seed| format!("{:?}", FaultSchedule::seeded(seed, 1000)))
            .collect();
        assert!(
            distinct.len() > 8,
            "only {} distinct schedules",
            distinct.len()
        );
    }

    #[test]
    fn stalls_do_not_poison() {
        assert!(!FaultSchedule::stall_every(10, 1).is_poisonous());
        assert!(FaultSchedule::panic_at(1).is_poisonous());
        assert!(FaultSchedule::bad_value_at(1).is_poisonous());
        assert!(!FaultSchedule::none().is_poisonous());
        let mut faulty = FaultyBackend::new(HeapQMax::new(2), FaultSchedule::stall_at(2, 0));
        for i in 0..10u64 {
            faulty.insert(i, i);
        }
        assert_eq!(faulty.len(), 2);
    }
}
