//! Solve budgets: deadlines, iteration caps, and cooperative cancellation.
//!
//! A [`Budget`] bounds how long a solve may run. It is installed for the
//! current thread with [`with`] (same thread-local install/restore pattern
//! as [`profile`](crate::profile) and [`faults`](crate::faults)) and
//! polled from inside the Newton loop on **every iteration**, so even a
//! solve wedged in a timestep-rejection storm is interrupted at iteration
//! granularity. A tripped budget surfaces as a typed
//! [`SpiceError::DeadlineExceeded`] / [`SpiceError::Cancelled`] carrying
//! the partial solver effort spent inside the scope.
//!
//! Three mechanisms compose:
//!
//! * **Wall-clock deadline** and **iteration caps** (Newton / LU /
//!   step-rejection), checked synchronously by the polling solve itself.
//! * **Cooperative cancellation** through a shared [`InterruptFlag`]: any
//!   other thread (a user, a watchdog) raises the flag and the solve
//!   bails at its next Newton iteration. The flag is sticky, so once
//!   raised every subsequent solve in the scope — including op fallback
//!   ladders — fails fast too.
//! * **Heartbeats**: if the budget carries a shared
//!   [`Heartbeat`], every poll publishes the
//!   effort spent so far, and accepted transient steps / completed DC
//!   solves tick its *progress* counter. A supervising watchdog uses this
//!   to cancel jobs that stop making progress.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use nemscmos_spice::budget::{self, Budget};
//! use nemscmos_spice::circuit::Circuit;
//! use nemscmos_spice::analysis::op::op;
//! use nemscmos_spice::waveform::Waveform;
//!
//! let mut ckt = Circuit::new();
//! let n = ckt.node("out");
//! ckt.vsource(n, Circuit::GROUND, Waveform::dc(1.0));
//! ckt.resistor(n, Circuit::GROUND, 1e3);
//! // A generous deadline: the solve completes normally.
//! let res = budget::with(Budget::deadline(Duration::from_secs(60)), || op(&mut ckt));
//! assert!(res.is_ok());
//! ```

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use nemscmos_numeric::newton::{InterruptFlag, InterruptKind};

use crate::stats::{self, Heartbeat, SolverStats};
use crate::SpiceError;

/// Limits applied to every solve while the budget is installed.
///
/// All limits are optional; a default budget is unbounded (useful when
/// only the heartbeat or the cancellation flag is wanted). Iteration caps
/// are measured as deltas from the moment the budget is installed, so
/// nested scopes each get a fresh allowance.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock deadline, measured from installation.
    pub deadline: Option<Duration>,
    /// Cap on Newton iterations spent inside the scope.
    pub max_newton: Option<u64>,
    /// Cap on LU factorizations spent inside the scope.
    pub max_lu: Option<u64>,
    /// Cap on transient step rejections inside the scope.
    pub max_rejections: Option<u64>,
    /// Cooperative cancellation flag, shared with the supervisor.
    pub flag: Option<InterruptFlag>,
    /// Shared heartbeat published on every Newton iteration.
    pub heartbeat: Option<Arc<Heartbeat>>,
}

impl Budget {
    /// An unbounded budget (no limits, no flag, no heartbeat).
    pub fn unbounded() -> Budget {
        Budget::default()
    }

    /// A budget with only a wall-clock deadline.
    pub fn deadline(d: Duration) -> Budget {
        Budget {
            deadline: Some(d),
            ..Budget::default()
        }
    }

    /// A cancellable budget; raising the returned flag (from any thread)
    /// interrupts the solve at its next Newton iteration.
    pub fn cancellable() -> (Budget, InterruptFlag) {
        let flag = InterruptFlag::new();
        let budget = Budget {
            flag: Some(flag.clone()),
            ..Budget::default()
        };
        (budget, flag)
    }

    /// Sets the Newton iteration cap.
    pub fn with_max_newton(mut self, cap: u64) -> Budget {
        self.max_newton = Some(cap);
        self
    }

    /// Sets the LU factorization cap.
    pub fn with_max_lu(mut self, cap: u64) -> Budget {
        self.max_lu = Some(cap);
        self
    }

    /// Sets the step-rejection cap.
    pub fn with_max_rejections(mut self, cap: u64) -> Budget {
        self.max_rejections = Some(cap);
        self
    }

    /// Attaches a cooperative cancellation flag.
    pub fn with_flag(mut self, flag: InterruptFlag) -> Budget {
        self.flag = Some(flag);
        self
    }

    /// Attaches a shared heartbeat.
    pub fn with_heartbeat(mut self, hb: Arc<Heartbeat>) -> Budget {
        self.heartbeat = Some(hb);
        self
    }
}

/// A shared allowance of solver effort, drawn down across many solves.
///
/// A [`Budget`] caps one scope; a `QuotaPool` caps a *stream* of scopes —
/// e.g. every job one client submits to the job server. The pool holds a
/// grant of Newton iterations. Before each job, [`QuotaPool::budget`]
/// derives a `Budget` whose `max_newton` is the remaining allowance;
/// after the job, [`QuotaPool::settle`] subtracts the effort actually
/// spent (from the job's [`SolverStats`], success or failure alike). An
/// exhausted pool derives no further budgets, which admission control
/// surfaces as a typed quota rejection rather than letting a zero-cap
/// solve trip mid-flight.
///
/// Clones share the same allowance (the counter is behind an `Arc`), so
/// the admission thread and per-connection workers can draw on one pool.
#[derive(Debug, Clone)]
pub struct QuotaPool {
    granted: u64,
    remaining: Arc<std::sync::atomic::AtomicU64>,
}

impl QuotaPool {
    /// A pool granting `newton` Newton iterations in total.
    pub fn new(newton: u64) -> QuotaPool {
        QuotaPool {
            granted: newton,
            remaining: Arc::new(std::sync::atomic::AtomicU64::new(newton)),
        }
    }

    /// The original grant.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Newton iterations still available.
    pub fn remaining(&self) -> u64 {
        self.remaining.load(std::sync::atomic::Ordering::Acquire)
    }

    /// True once the allowance is fully spent.
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Derives a budget capped at the remaining allowance, or `None` if
    /// the pool is exhausted (callers reject the job instead of running
    /// it against a zero cap).
    pub fn budget(&self) -> Option<Budget> {
        let left = self.remaining();
        (left > 0).then(|| Budget::unbounded().with_max_newton(left))
    }

    /// Charges the pool for effort actually spent, saturating at zero.
    /// Returns the allowance left after the charge.
    pub fn settle(&self, spent: &SolverStats) -> u64 {
        use std::sync::atomic::Ordering;
        let cost = spent.newton_iterations;
        let mut cur = self.remaining.load(Ordering::Acquire);
        loop {
            let next = cur.saturating_sub(cost);
            match self.remaining.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return next,
                Err(seen) => cur = seen,
            }
        }
    }
}

struct Scope {
    budget: Budget,
    armed: Instant,
    base: SolverStats,
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Runs `f` with `budget` installed for the current thread, restoring any
/// previously installed budget afterwards (even on panic). Nested scopes
/// shadow outer ones; caps and the deadline of the inner scope are
/// measured from its own installation.
pub fn with<R>(budget: Budget, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Scope>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let scope = Scope {
        armed: Instant::now(),
        base: stats::snapshot(),
        budget,
    };
    let prev = SCOPE.with(|s| s.borrow_mut().replace(scope));
    let _restore = Restore(prev);
    f()
}

/// Like [`with`], but a `None` budget runs `f` with no scope installed
/// (zero per-iteration overhead).
pub fn with_opt<R>(budget: Option<Budget>, f: impl FnOnce() -> R) -> R {
    match budget {
        Some(b) => with(b, f),
        None => f(),
    }
}

/// True if a budget scope is installed on this thread.
pub fn active() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// A clone of the installed scope's interrupt flag, if any — the engine
/// attaches this to its `NewtonSolver` so `apply_step` observes raises.
pub(crate) fn flag() -> Option<InterruptFlag> {
    SCOPE.with(|s| s.borrow().as_ref().and_then(|sc| sc.budget.flag.clone()))
}

/// Effort spent inside the installed scope, plus `pending` Newton
/// iterations the in-flight solve has applied but not yet flushed into
/// the thread-local counters (LU counts flush immediately per solve, so
/// they need no such correction).
fn spent(scope: &Scope, pending_newton: u64) -> SolverStats {
    let mut d = stats::snapshot().delta_since(&scope.base);
    d.newton_iterations += pending_newton;
    d
}

fn deadline_error(limit: String, time: f64, spent: SolverStats) -> SpiceError {
    SpiceError::DeadlineExceeded {
        limit,
        time,
        spent: Box::new(spent),
    }
}

/// Builds the typed interrupt error for a raised flag observed by a
/// `NewtonSolver` (the `NewtonStatus::Interrupted` path in the engine).
pub(crate) fn interrupted(kind: InterruptKind, time: f64, pending_newton: u64) -> SpiceError {
    let spent = SCOPE.with(|s| {
        s.borrow()
            .as_ref()
            .map(|sc| spent(sc, pending_newton))
            .unwrap_or_default()
    });
    match kind {
        InterruptKind::Cancelled => SpiceError::Cancelled {
            time,
            spent: Box::new(spent),
        },
        InterruptKind::Deadline => deadline_error(
            "cancelled by supervisor (deadline or stall watchdog)".into(),
            time,
            spent,
        ),
    }
}

/// Polls the installed budget. Called from inside the Newton loop on every
/// iteration with the current simulation `time` and the solve's
/// not-yet-flushed iteration count. Publishes the heartbeat, then checks
/// flag → iteration caps → wall-clock deadline. A tripped limit raises the
/// scope's flag (if any) so concurrent/nested solves fail fast too.
pub(crate) fn poll(time: f64, pending_newton: u64) -> crate::Result<()> {
    SCOPE.with(|s| {
        let borrow = s.borrow();
        let Some(scope) = borrow.as_ref() else {
            return Ok(());
        };
        let spent = spent(scope, pending_newton);
        if let Some(hb) = &scope.budget.heartbeat {
            hb.publish(&spent);
        }
        if let Some(kind) = scope.budget.flag.as_ref().and_then(InterruptFlag::raised) {
            return Err(interrupted_with(kind, time, spent));
        }
        let caps = [
            (scope.budget.max_newton, spent.newton_iterations, "newton"),
            (scope.budget.max_lu, spent.lu_factorizations, "lu"),
            (
                scope.budget.max_rejections,
                spent.step_rejections,
                "step-rejection",
            ),
        ];
        for (cap, used, what) in caps {
            if let Some(cap) = cap {
                if used > cap {
                    if let Some(flag) = &scope.budget.flag {
                        flag.expire();
                    }
                    return Err(deadline_error(
                        format!("{what} iteration cap of {cap}"),
                        time,
                        spent,
                    ));
                }
            }
        }
        if let Some(d) = scope.budget.deadline {
            if scope.armed.elapsed() >= d {
                if let Some(flag) = &scope.budget.flag {
                    flag.expire();
                }
                return Err(deadline_error(
                    format!("wall-clock deadline of {d:?}"),
                    time,
                    spent,
                ));
            }
        }
        Ok(())
    })
}

fn interrupted_with(kind: InterruptKind, time: f64, spent: SolverStats) -> SpiceError {
    match kind {
        InterruptKind::Cancelled => SpiceError::Cancelled {
            time,
            spent: Box::new(spent),
        },
        InterruptKind::Deadline => deadline_error(
            "cancelled by supervisor (deadline or stall watchdog)".into(),
            time,
            spent,
        ),
    }
}

/// Heartbeat hook: a transient step was accepted at simulation time `t`.
pub(crate) fn pulse_accepted_step(t: f64) {
    SCOPE.with(|s| {
        if let Some(hb) = s
            .borrow()
            .as_ref()
            .and_then(|sc| sc.budget.heartbeat.as_ref())
        {
            hb.set_sim_time(t);
            hb.tick_progress();
        }
    });
}

/// Heartbeat hook: a DC solve completed successfully.
pub(crate) fn pulse_solve_done() {
    SCOPE.with(|s| {
        if let Some(hb) = s
            .borrow()
            .as_ref()
            .and_then(|sc| sc.budget.heartbeat.as_ref())
        {
            hb.tick_progress();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_scope_means_no_limit() {
        assert!(!active());
        assert!(poll(0.0, 0).is_ok());
    }

    #[test]
    fn scope_installs_and_restores() {
        let (budget, _flag) = Budget::cancellable();
        with(budget, || {
            assert!(active());
            assert!(flag().is_some());
            with(Budget::unbounded(), || {
                // Inner scope shadows: no flag here.
                assert!(flag().is_none());
            });
            assert!(flag().is_some());
        });
        assert!(!active());
    }

    #[test]
    fn raised_flag_polls_as_cancelled() {
        let (budget, flag) = Budget::cancellable();
        with(budget, || {
            assert!(poll(0.0, 0).is_ok());
            flag.cancel();
            match poll(1e-9, 0) {
                Err(SpiceError::Cancelled { time, .. }) => assert_eq!(time, 1e-9),
                other => panic!("expected Cancelled, got {other:?}"),
            }
        });
    }

    #[test]
    fn newton_cap_trips_and_raises_the_flag() {
        let (budget, flag) = Budget::cancellable();
        with(budget.with_max_newton(10), || {
            assert!(poll(0.0, 10).is_ok());
            match poll(0.0, 11) {
                Err(SpiceError::DeadlineExceeded { limit, spent, .. }) => {
                    assert!(limit.contains("newton iteration cap of 10"));
                    assert_eq!(spent.newton_iterations, 11);
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            assert_eq!(flag.raised(), Some(InterruptKind::Deadline));
        });
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        with(Budget::deadline(Duration::ZERO), || match poll(0.0, 0) {
            Err(SpiceError::DeadlineExceeded { limit, .. }) => {
                assert!(limit.contains("wall-clock deadline"));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        });
    }

    #[test]
    fn quota_pool_draws_down_and_exhausts() {
        let pool = QuotaPool::new(100);
        assert_eq!(pool.granted(), 100);
        assert_eq!(pool.remaining(), 100);
        assert!(!pool.exhausted());

        let b = pool.budget().expect("fresh pool derives a budget");
        assert_eq!(b.max_newton, Some(100));

        let mut spent = SolverStats {
            newton_iterations: 60,
            ..Default::default()
        };
        assert_eq!(pool.settle(&spent), 40);
        assert_eq!(pool.budget().unwrap().max_newton, Some(40));

        // Overdraw saturates at zero instead of wrapping.
        spent.newton_iterations = 1_000;
        assert_eq!(pool.settle(&spent), 0);
        assert!(pool.exhausted());
        assert!(pool.budget().is_none());
    }

    #[test]
    fn quota_pool_clones_share_the_allowance() {
        let pool = QuotaPool::new(10);
        let worker = pool.clone();
        let spent = SolverStats {
            newton_iterations: 7,
            ..Default::default()
        };
        worker.settle(&spent);
        assert_eq!(pool.remaining(), 3);
    }

    #[test]
    fn heartbeat_is_published_on_poll() {
        let hb = Arc::new(Heartbeat::new());
        with(Budget::unbounded().with_heartbeat(Arc::clone(&hb)), || {
            stats::count(stats::Counter::NewtonIterations, 7);
            assert!(poll(0.0, 2).is_ok());
            pulse_accepted_step(3e-9);
            pulse_solve_done();
        });
        assert_eq!(hb.snapshot().newton_iterations, 9);
        assert_eq!(hb.progress(), 2);
        assert_eq!(hb.sim_time(), 3e-9);
    }
}
