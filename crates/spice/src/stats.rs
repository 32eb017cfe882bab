//! Per-thread solver telemetry counters.
//!
//! Every analysis in this crate increments a set of thread-local,
//! monotonically increasing counters: Newton iterations, LU
//! factorizations, transient step rejections/acceptances, and
//! non-convergence events. Orchestration layers (the `nemscmos-harness`
//! crate) attribute work to a job by taking a [`snapshot`] before and
//! after it and diffing — there is no reset, so nested scopes compose.
//!
//! Each counter is declared once, as one row of the counter table below
//! (field, [`Counter`] variant, wire key, whether decoding requires the
//! key). [`SolverStats`], its arithmetic, the [`Heartbeat`] mirror and
//! every encoder that walks [`SolverStats::iter`] follow from that row,
//! so a new counter is one row plus one `count` call at its increment
//! site.
//!
//! Counters are thread-local; when a caller fans work out to other
//! threads it is responsible for summing the child deltas back into its
//! own thread with [`add`] (the harness pool does this automatically).
//!
//! # Example
//!
//! ```
//! use nemscmos_spice::stats;
//!
//! let before = stats::snapshot();
//! // ... run an analysis ...
//! let spent = stats::snapshot().delta_since(&before);
//! assert_eq!(spent.newton_iterations, 0); // nothing ran in this doctest
//! ```

use std::cell::Cell;
use std::ops::{Add, AddAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Generates [`SolverStats`] and [`Counter`] from the counter table
/// below. Each row is the counter's doc, then
/// `field: Variant = "wire key", required|optional;`.
macro_rules! counter_table {
    ($(
        $(#[$doc:meta])*
        $field:ident: $variant:ident = $key:literal, $decode:ident;
    )+) => {
        /// Cumulative solver-effort counters, one field per row of the
        /// counter table.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SolverStats {
            $( $(#[$doc])* pub $field: u64, )+
        }

        /// Names one [`SolverStats`] counter.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $( $(#[$doc])* $variant, )+
        }

        impl Counter {
            /// Number of counters.
            pub const COUNT: usize = [$(Counter::$variant),+].len();

            /// Every counter, in table (and wire) order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),+];

            /// The counter's key in the JSON encoding.
            pub const fn key(self) -> &'static str {
                match self {
                    $(Counter::$variant => $key,)+
                }
            }

            /// Whether a decoded encoding must carry this key. Optional
            /// keys were added after the first cache format and decode
            /// as zero when absent.
            pub const fn is_required(self) -> bool {
                match self {
                    $(Counter::$variant => counter_table!(@required $decode),)+
                }
            }
        }

        impl SolverStats {
            /// Every counter at zero.
            pub const ZERO: SolverStats = SolverStats { $($field: 0,)+ };

            /// The value of one counter.
            #[inline]
            pub const fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$variant => self.$field,)+
                }
            }

            // `from_fn` and `iter` spell out every field rather than loop
            // over `Counter::ALL`, so they compile to straight-line code:
            // a budget poll runs `delta_since` and `Heartbeat::publish` on
            // every Newton iteration.

            /// Builds a value from one closure call per counter, in table
            /// order.
            #[inline]
            pub fn from_fn(mut f: impl FnMut(Counter) -> u64) -> SolverStats {
                SolverStats { $($field: f(Counter::$variant),)+ }
            }

            /// Every counter with its value, in table order.
            #[inline]
            pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> {
                Counter::ALL.into_iter().zip([$(self.$field),+])
            }

            /// Mutable access to one counter.
            #[inline]
            pub fn get_mut(&mut self, counter: Counter) -> &mut u64 {
                match counter {
                    $(Counter::$variant => &mut self.$field,)+
                }
            }
        }
    };
    (@required required) => { true };
    (@required optional) => { false };
}

counter_table! {
    /// Newton iterations applied (converged or not).
    newton_iterations: NewtonIterations = "newton", required;
    /// Jacobian LU factorizations (one per Newton iteration that reaches
    /// the linear solve).
    lu_factorizations: LuFactorizations = "lu", required;
    /// Transient steps rejected (Newton failure or LTE violation).
    step_rejections: StepRejections = "rejected", required;
    /// Transient steps accepted.
    steps_accepted: StepsAccepted = "accepted", required;
    /// Newton solves that gave up (triggering fallbacks or job retries).
    nonconvergence_events: NonconvergenceEvents = "nonconv", required;
    /// Assemblies served by the pattern-frozen slot map (no per-iteration
    /// triplet sort/dedup/alloc).
    slot_cache_hits: SlotCacheHits = "slot_hits", optional;
    /// Sparse or dense factorizations served by numeric-only
    /// refactorization over a recorded symbolic structure.
    symbolic_reuses: SymbolicReuses = "sym_reuse", optional;
    /// Sparse or dense numeric-only refactorizations rejected by a guard
    /// (pivot monitor, pattern or fill drift) and redone as fresh
    /// fully-pivoted factorizations.
    refactor_fallbacks: RefactorFallbacks = "refac_fb", optional;
    /// Linear-circuit solves that reused the previous factorization
    /// outright (RHS-only re-solve).
    bypass_solves: BypassSolves = "bypass", optional;
    /// Assemblies that evaluated at least one batch lane through the
    /// structure-of-arrays path (zero when the circuit has no device with
    /// a batch key).
    batched_evals: BatchedEvals = "batched", optional;
    /// Wall-clock nanoseconds spent loading devices during assembly
    /// (gather + model evaluation + lane stamping). Exactly
    /// zero for circuits without nonlinear devices.
    device_eval_ns: DeviceEvalNs = "eval_ns", optional;
    /// Wall-clock nanoseconds spent in the linear solve (factorization,
    /// refactorization, or bypass back-substitution).
    linear_solve_ns: LinearSolveNs = "solve_ns", optional;
    /// Summed `nnz(L + U)` (diagonal included) over every fresh sparse
    /// factorization, the post-thaw ones included — the honest fill cost
    /// of the chosen column ordering. Refactorizations and bypasses reuse
    /// a recorded factorization and do not re-count; the dense path never
    /// counts.
    fill_nnz: FillNnz = "fill_nnz", optional;
    /// Wall-clock nanoseconds spent computing fill-reducing column
    /// orderings: once per fresh factorization that has no order to
    /// inherit (a new stamper's first, the solve after a thaw, and a
    /// refactor fallback over a changed pattern; a fallback on value drift
    /// keeps the rejected factorization's order). Zero when the ordering
    /// does not engage.
    ordering_ns: OrderingNs = "ordering_ns", optional;
    /// Frozen sparse patterns converted back to triplet assembly because
    /// an assembly deviated from (or stopped short of) the frozen push
    /// sequence.
    thaws: Thaws = "thaws", optional;
    /// Sparse solves of a triplet assembly compressed at solve time
    /// rather than through the frozen slot map: only the one solve right
    /// after a thaw. It takes the same factorization pipeline as frozen
    /// solves (ordered when the stamper is, fill counted, cached).
    triplet_factorizations: TripletFactorizations = "triplet_lu", optional;
    /// Assemblies that published their device-eval chunks to the eval
    /// helper thread ([`crate::par`]): zero below the lane threshold, at
    /// an eval-thread budget of 1, and when another thread held the
    /// helper.
    parallel_evals: ParallelEvals = "par_evals", optional;
    /// Device-eval chunks the eval helper evaluated (the caller
    /// evaluated the rest).
    helper_chunks: HelperChunks = "helper_chunks", optional;
    /// Wall-clock nanoseconds spent stamping the linear elements during
    /// the assemblies of circuits with devices (timed inside the device
    /// section and subtracted from `device_eval_ns`). Zero for circuits
    /// without devices, whose assembly reads no clock.
    linear_stamp_ns: LinearStampNs = "linear_ns", optional;
    /// Device lanes written straight into their resolved CSC slots on a
    /// frozen pattern (see [`crate::stamp`]), summed over assemblies.
    resolved_lanes: ResolvedLanes = "lanes_resolved", optional;
    /// Device lanes that took the per-push route on a frozen pattern
    /// they had already been resolved on — at another tape position, or
    /// with non-finite outputs. A lane's first assembly on each freeze,
    /// which resolves it, is not counted.
    lane_fallbacks: LaneFallbacks = "lane_fb", optional;
}

impl SolverStats {
    /// Counters accumulated since `earlier` (which must be an older
    /// snapshot from the same thread, or a summed baseline).
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats::from_fn(|c| self.get(c) - earlier.get(c))
    }

    /// True if every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SolverStats::ZERO
    }
}

impl Add for SolverStats {
    type Output = SolverStats;
    fn add(self, rhs: SolverStats) -> SolverStats {
        SolverStats::from_fn(|c| self.get(c) + rhs.get(c))
    }
}

impl AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        *self = *self + rhs;
    }
}

/// Cross-thread view of a running solve, for watchdog supervision.
///
/// The thread-local counters above are invisible to other threads; a
/// [`Heartbeat`] mirrors every one of them (plus a coarse *progress*
/// counter and the current simulation time) into shared atomics that an
/// installed [`budget::Budget`](crate::budget::Budget) publishes on every
/// Newton iteration. A supervising watchdog reads the snapshot — and in
/// particular [`progress`](Heartbeat::progress), which ticks only on
/// accepted transient steps and completed DC solves — to tell a solve
/// that is grinding forward from one that is wedged.
#[derive(Debug, Default)]
pub struct Heartbeat {
    counters: [AtomicU64; Counter::COUNT],
    progress: AtomicU64,
    sim_time_bits: AtomicU64,
}

impl Heartbeat {
    /// A fresh heartbeat with all counters at zero.
    pub fn new() -> Heartbeat {
        Heartbeat::default()
    }

    /// Publishes the solve's effort counters (called from inside the
    /// Newton loop via the installed budget).
    pub fn publish(&self, spent: &SolverStats) {
        for (counter, n) in spent.iter() {
            self.counters[counter as usize].store(n, Ordering::Relaxed);
        }
    }

    /// Marks forward progress (an accepted transient step or a completed
    /// DC solve). Stall detection keys on this counter, *not* on raw
    /// Newton iterations — a timestep-rejection storm burns iterations
    /// without advancing and must still read as a stall.
    pub fn tick_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the last accepted simulation time.
    pub fn set_sim_time(&self, t: f64) {
        self.sim_time_bits.store(t.to_bits(), Ordering::Relaxed);
    }

    /// Monotone forward-progress counter (see
    /// [`tick_progress`](Heartbeat::tick_progress)).
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// The last accepted simulation time, `0.0` until a transient step
    /// lands.
    pub fn sim_time(&self) -> f64 {
        f64::from_bits(self.sim_time_bits.load(Ordering::Relaxed))
    }

    /// The most recently published effort counters.
    pub fn snapshot(&self) -> SolverStats {
        SolverStats::from_fn(|c| self.counters[c as usize].load(Ordering::Relaxed))
    }
}

thread_local! {
    static COUNTERS: [Cell<u64>; Counter::COUNT] =
        const { [const { Cell::new(0) }; Counter::COUNT] };
}

/// Current counter values for this thread.
pub fn snapshot() -> SolverStats {
    COUNTERS.with(|cells| SolverStats::from_fn(|c| cells[c as usize].get()))
}

/// Adds `delta` into this thread's counters — used to fold work done on
/// worker threads back into the spawning thread.
pub fn add(delta: SolverStats) {
    for (counter, n) in delta.iter() {
        count(counter, n);
    }
}

/// Runs `f` and returns its result together with the solver effort it
/// spent on this thread.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, SolverStats) {
    let before = snapshot();
    let r = f();
    (r, snapshot().delta_since(&before))
}

/// Adds `n` to one of this thread's counters.
pub(crate) fn count(counter: Counter, n: u64) {
    COUNTERS.with(|cells| {
        let cell = &cells[counter as usize];
        cell.set(cell.get() + n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distinct nonzero value per counter.
    fn distinct() -> SolverStats {
        SolverStats::from_fn(|c| 100 + 7 * c as u64)
    }

    #[test]
    fn counters_are_monotone_and_diffable() {
        let a = snapshot();
        for (counter, n) in distinct().iter() {
            count(counter, n);
        }
        let d = snapshot().delta_since(&a);
        assert_eq!(d, distinct());
        for (counter, n) in d.iter() {
            assert_eq!(n, 100 + 7 * counter as u64, "{counter:?}");
        }
        assert!(!d.is_zero());
        assert_eq!(d + d, SolverStats::from_fn(|c| 2 * distinct().get(c)));
        assert_eq!((d + d).delta_since(&d), d);
    }

    #[test]
    fn table_rows_are_consistent() {
        let keys: std::collections::HashSet<_> = Counter::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), Counter::COUNT, "wire keys must be unique");
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "ALL follows declaration order");
            // Each counter addresses its own field.
            let mut st = SolverStats::ZERO;
            *st.get_mut(c) = 1;
            assert_eq!(st.iter().filter(|&(_, n)| n == 1).count(), 1);
            assert_eq!(st.get(c), 1);
        }
        let required: Vec<_> = Counter::ALL
            .into_iter()
            .filter(|c| c.is_required())
            .map(Counter::key)
            .collect();
        assert_eq!(
            required,
            ["newton", "lu", "rejected", "accepted", "nonconv"]
        );
    }

    #[test]
    fn measure_scopes_compose() {
        let ((), outer) = measure(|| {
            count(Counter::NewtonIterations, 2);
            let ((), inner) = measure(|| count(Counter::NewtonIterations, 5));
            assert_eq!(inner.newton_iterations, 5);
        });
        assert_eq!(outer.newton_iterations, 7);
    }

    #[test]
    fn heartbeat_mirrors_counters_across_threads() {
        use std::sync::Arc;
        let hb = Arc::new(Heartbeat::new());
        let remote = Arc::clone(&hb);
        std::thread::spawn(move || {
            remote.publish(&distinct());
            remote.tick_progress();
            remote.set_sim_time(1.5e-9);
        })
        .join()
        .unwrap();
        // Every counter is mirrored.
        assert_eq!(hb.snapshot(), distinct());
        assert_eq!(hb.progress(), 1);
        assert_eq!(hb.sim_time(), 1.5e-9);
    }

    #[test]
    fn add_folds_external_work() {
        let before = snapshot();
        add(SolverStats {
            newton_iterations: 11,
            ..Default::default()
        });
        assert_eq!(snapshot().delta_since(&before).newton_iterations, 11);
    }
}
