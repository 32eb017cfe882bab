//! Numerical health guards: non-finite attribution, singular-pivot
//! naming, and the post-solve KCL residual audit.
//!
//! The Newton loop judges convergence on the update norm `‖Δx‖`, so a
//! converged point is not automatically a point where Kirchhoff's current
//! law holds to high precision — and a NaN produced deep inside a device
//! model would otherwise surface only as an opaque "non-finite Newton
//! update". This module gives every such failure a name:
//!
//! * [`unknown_name`] maps a raw MNA unknown index back to its circuit
//!   meaning (node name, branch current of a concrete element, or a
//!   device internal unknown), used by
//!   [`SpiceError::SingularSystem`]
//!   and [`SpiceError::NonFinite`].
//! * [`GuardConfig`] is a thread-local toggle (same out-of-band pattern
//!   as [`crate::profile`]) for the optional KCL audit: after every
//!   converged Newton solve the engine re-assembles the residual at the
//!   converged point and fails with
//!   [`SpiceError::KclViolation`] if any
//!   node row exceeds the tolerance.
//!
//! The audit is **off by default**: enabling it costs one extra assembly
//! per converged solve, and keeping the default path untouched preserves
//! bitwise-identical results for existing analyses.

use std::cell::Cell;

use crate::circuit::Circuit;
use crate::element::{Element, NodeId};
use crate::stamp::{NonFiniteNote, StampSection};
use crate::SpiceError;

/// Thread-local health-guard configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GuardConfig {
    /// When set, every converged Newton solve is followed by a KCL audit:
    /// the residual is re-assembled at the converged point and the solve
    /// fails with [`SpiceError::KclViolation`] if any node row exceeds
    /// this tolerance (amperes). `None` (the default) disables the audit.
    pub kcl_tol: Option<f64>,
}

impl GuardConfig {
    /// A config that audits KCL to `tol` amperes after every solve.
    pub fn kcl(tol: f64) -> GuardConfig {
        GuardConfig { kcl_tol: Some(tol) }
    }
}

thread_local! {
    static ACTIVE: Cell<GuardConfig> = const { Cell::new(GuardConfig { kcl_tol: None }) };
}

/// The guard configuration active on this thread.
pub fn current() -> GuardConfig {
    ACTIVE.with(|c| c.get())
}

/// Runs `f` with `cfg` active on this thread, restoring the previous
/// configuration afterwards, also on unwind.
pub fn with<R>(cfg: GuardConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(GuardConfig);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(ACTIVE.with(|c| c.replace(cfg)));
    f()
}

/// The active KCL audit tolerance, if the audit is enabled.
pub(crate) fn kcl_tolerance() -> Option<f64> {
    current().kcl_tol
}

/// Human-readable description of a raw MNA unknown index: the node name,
/// the branch current of a concrete element, or a device internal
/// unknown. Indices beyond the layout degrade to `"unknown #idx"` rather
/// than panicking — this runs on error paths.
pub fn unknown_name(ckt: &Circuit, idx: usize) -> String {
    let nn = ckt.num_node_unknowns();
    if idx < nn {
        return format!("node '{}'", ckt.node_name(NodeId(idx + 1)));
    }
    let branch = idx - nn;
    if branch < ckt.num_branches() {
        for e in ckt.elements() {
            if e.branch() == Some(branch) {
                return format!("branch current of {}", describe_element(ckt, e));
            }
        }
        return format!("branch current #{branch}");
    }
    // Device internal unknowns: bases are assigned in device order by
    // `Circuit::finalize_layout`, so replaying that walk recovers the
    // owner without duplicating layout state.
    let mut base = nn + ckt.num_branches();
    for dev in ckt.devices() {
        let k = dev.num_internal();
        if idx < base + k {
            return format!(
                "internal unknown #{} of device '{}'",
                idx - base,
                dev.name()
            );
        }
        base += k;
    }
    format!("unknown #{idx}")
}

fn describe_element(ckt: &Circuit, e: &Element) -> String {
    let nodes = |a: NodeId, b: NodeId| format!("{}-{}", ckt.node_name(a), ckt.node_name(b));
    match *e {
        Element::Inductor { a, b, .. } => format!("inductor {}", nodes(a, b)),
        Element::VSource { p, m, .. } => format!("voltage source {}", nodes(p, m)),
        Element::Vcvs { op, om, .. } => format!("vcvs {}", nodes(op, om)),
        _ => "element".to_string(),
    }
}

/// What stamped the offending value, for the `device` field of
/// [`SpiceError::NonFinite`].
pub(crate) fn section_label(ckt: &Circuit, section: StampSection) -> String {
    match section {
        StampSection::Linear => "linear elements".to_string(),
        StampSection::Device(i) => match ckt.devices().get(i) {
            Some(d) => format!("device '{}'", d.name()),
            None => format!("device #{i}"),
        },
        StampSection::Solver => "solver internals (gmin/IC clamps)".to_string(),
        StampSection::Fault => "fault injection".to_string(),
    }
}

/// Builds the typed non-finite-assembly error from a stamper note.
pub(crate) fn non_finite_error(ckt: &Circuit, note: &NonFiniteNote, time: f64) -> SpiceError {
    SpiceError::NonFinite {
        device: section_label(ckt, note.section),
        node: unknown_name(ckt, note.row),
        stage: note.stage,
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn default_guard_is_off() {
        assert_eq!(current().kcl_tol, None);
        assert_eq!(kcl_tolerance(), None);
    }

    #[test]
    fn with_installs_and_restores() {
        with(GuardConfig::kcl(1e-9), || {
            assert_eq!(kcl_tolerance(), Some(1e-9));
            with(GuardConfig::default(), || {
                assert_eq!(kcl_tolerance(), None);
            });
            assert_eq!(kcl_tolerance(), Some(1e-9));
        });
        assert_eq!(kcl_tolerance(), None);
    }

    #[test]
    fn unknown_names_cover_the_layout() {
        let mut ckt = Circuit::new();
        let a = ckt.node("vin");
        let b = ckt.node("vout");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(a, b, 1e3);
        ckt.inductor(b, Circuit::GROUND, 1e-6);
        let n = ckt.num_unknowns();
        assert_eq!(n, 4);
        assert_eq!(unknown_name(&ckt, 0), "node 'vin'");
        assert_eq!(unknown_name(&ckt, 1), "node 'vout'");
        assert!(unknown_name(&ckt, 2).contains("voltage source vin-0"));
        assert!(unknown_name(&ckt, 3).contains("inductor vout-0"));
        assert_eq!(unknown_name(&ckt, 99), "unknown #99");
    }

    #[test]
    fn section_labels_are_descriptive() {
        let ckt = Circuit::new();
        assert_eq!(section_label(&ckt, StampSection::Linear), "linear elements");
        assert!(section_label(&ckt, StampSection::Solver).contains("solver"));
        assert_eq!(section_label(&ckt, StampSection::Fault), "fault injection");
        assert_eq!(section_label(&ckt, StampSection::Device(7)), "device #7");
    }
}
