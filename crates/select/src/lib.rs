//! Selection algorithms used by the q-MAX data structures.
//!
//! The q-MAX algorithm (Ben Basat et al., IMC 2019) maintains the `q`
//! largest items of a stream in worst-case constant time per update. Its
//! core trick is that finding an order statistic of an `O(q)`-sized array
//! takes `O(q)` time ([`nth_smallest`]), and that this linear-time
//! computation can be *de-amortized*: broken into many small,
//! bounded-work steps that are interleaved with arrivals
//! ([`NthElementMachine`]).
//!
//! This crate provides:
//!
//! * [`nth_smallest`] — the standard library's
//!   [`slice::select_nth_unstable`] (introselect with a
//!   median-of-medians fallback: worst-case linear) behind the
//!   crate's `&T`-returning, "out of range"-panicking contract.
//! * [`NthElementMachine`] — a suspendable median-of-medians selection
//!   machine. Each call to [`NthElementMachine::step`] performs at most
//!   `budget` elementary operations and returns whether the selection
//!   has completed. Total work is bounded by `WORK_BOUND_FACTOR * n`, so
//!   running the machine with a per-step budget of
//!   `WORK_BOUND_FACTOR * n / s` completes it within `s` steps.
//! * [`PartitionMachine`] — a suspendable three-way partition around a
//!   fixed pivot value.
//! * [`partition3`] — the in-place three-way partition the
//!   array-of-structs sampled compaction runs around its pivot.
//! * [`Kernel`] — runtime-dispatched SIMD kernels over `u64` lanes
//!   (batch Ψ-filter admit, stable three-way partition) for the
//!   structure-of-arrays backend.
//!
//! The machines hold only indices, never borrows, so the caller may
//! mutate *other* regions of the same buffer between steps (this is
//! exactly how q-MAX inserts arrivals into one region while selection
//! runs on another).

#![warn(missing_docs)]
// `unsafe` is denied crate-wide rather than forbidden: the only
// exception is the `kernels` module, whose SIMD intrinsics require it
// (each block carries a SAFETY argument; see DESIGN.md §4.3).
#![deny(unsafe_code)]

pub mod kernels;
mod machine;
mod partition;
pub mod policy;
mod select;

pub use kernels::{prefetch_read, Kernel, KernelKind, ProbeKernel, GROUP_WIDTH};
pub use machine::{
    Direction, MachineStatus, NthElementMachine, PartitionMachine, WORK_BOUND_FACTOR,
};
pub use partition::partition3;
pub use policy::{calibrate, BackendChoice, BackendPolicy, CostModel, PolicyMode};
pub use select::nth_smallest;
