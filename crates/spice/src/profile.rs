//! Thread-local solve-robustness overrides.
//!
//! The retry ladder in `nemscmos-harness` re-runs a failed job with
//! progressively more conservative solver settings. Experiments call
//! high-level circuit APIs that build their own [`OpOptions`] /
//! [`TranOptions`] internally, so the overrides travel out-of-band: the
//! harness installs a [`SolveProfile`] for the current thread and every
//! analysis started on that thread folds it into its options.
//!
//! The default profile is all-neutral — when nothing is installed the
//! analyses behave exactly as their explicit options dictate.
//!
//! [`OpOptions`]: crate::analysis::op::OpOptions
//! [`TranOptions`]: crate::analysis::tran::TranOptions

use std::cell::Cell;

/// Which linear-algebra backend the MNA stamper should use.
///
/// By default the stamper picks dense LU for small systems and sparse
/// LU above a size threshold; the differential-testing suite in
/// `nemscmos-verify` pins each backend explicitly to prove they agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixBackend {
    /// Column-major dense matrix with partial-pivot LU.
    Dense,
    /// Triplet assembly compressed to CSC with Gilbert–Peierls LU.
    Sparse,
}

/// Conservative-solve overrides applied on top of analysis options.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveProfile {
    /// Raise the convergence shunt `gmin` to at least this value, and use
    /// a finer g_min-stepping ladder in the operating point.
    pub gmin_floor: Option<f64>,
    /// Raise the Newton iteration budget to at least this value.
    pub newton_min_iter: Option<usize>,
    /// Skip the direct Newton attempt in the operating point and go
    /// straight to the stepping continuation (g_min then source ramp).
    pub force_source_stepping: bool,
    /// Integrate transients with backward Euler only (maximum damping).
    pub force_backward_euler: bool,
    /// Pin the MNA matrix backend instead of the size-based default.
    pub matrix_backend: Option<MatrixBackend>,
    /// Override the unknown-count threshold at or above which the sparse
    /// backend computes a fill-reducing column ordering (default
    /// `stamp::ORDERING_LIMIT`). `Some(0)` forces the ordering for every
    /// sparse system — differential testing uses this to exercise the
    /// ordered path on decks smaller than the default threshold.
    /// `Some(usize::MAX)` disables it and factors in natural (stamp)
    /// order, the pre-ordering code path verbatim — the reference side of
    /// the `ordered_vs_natural` differential.
    pub ordering_limit: Option<usize>,
}

impl SolveProfile {
    /// True when no override is active.
    pub fn is_neutral(&self) -> bool {
        *self == SolveProfile::default()
    }

    /// `gmin` with the floor applied.
    pub(crate) fn effective_gmin(&self, gmin: f64) -> f64 {
        match self.gmin_floor {
            Some(floor) => gmin.max(floor),
            None => gmin,
        }
    }

    /// `max_iter` with the boost applied.
    pub(crate) fn effective_max_iter(&self, max_iter: usize) -> usize {
        match self.newton_min_iter {
            Some(min) => max_iter.max(min),
            None => max_iter,
        }
    }
}

thread_local! {
    static ACTIVE: Cell<SolveProfile> = const { Cell::new(SolveProfile {
        gmin_floor: None,
        newton_min_iter: None,
        force_source_stepping: false,
        force_backward_euler: false,
        matrix_backend: None,
        ordering_limit: None,
    }) };
}

/// The profile active on this thread.
pub fn current() -> SolveProfile {
    ACTIVE.with(|p| p.get())
}

/// Runs `f` with `profile` installed on this thread, restoring the
/// previous profile afterwards (also on unwind).
pub fn with<R>(profile: SolveProfile, f: impl FnOnce() -> R) -> R {
    struct Restore(SolveProfile);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(ACTIVE.with(|p| p.replace(profile)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_neutral() {
        assert!(current().is_neutral());
    }

    #[test]
    fn with_installs_and_restores() {
        let prof = SolveProfile {
            gmin_floor: Some(1e-9),
            ..Default::default()
        };
        with(prof, || {
            assert_eq!(current().gmin_floor, Some(1e-9));
            // Nested override wins, then unwinds.
            let inner = SolveProfile {
                force_backward_euler: true,
                ..Default::default()
            };
            with(inner, || assert!(current().force_backward_euler));
            assert_eq!(current(), prof);
        });
        assert!(current().is_neutral());
    }

    #[test]
    fn effective_values_apply_floors() {
        let p = SolveProfile {
            gmin_floor: Some(1e-9),
            newton_min_iter: Some(400),
            ..Default::default()
        };
        assert_eq!(p.effective_gmin(1e-12), 1e-9);
        assert_eq!(p.effective_gmin(1e-6), 1e-6);
        assert_eq!(p.effective_max_iter(100), 400);
        assert_eq!(p.effective_max_iter(1000), 1000);
    }
}
