//! A modified-nodal-analysis (MNA) circuit simulator.
//!
//! This crate is the HSPICE stand-in for the `nemscmos` workspace: it
//! provides netlist construction, nonlinear DC operating-point analysis,
//! DC sweeps with state continuation (for hysteretic electromechanical
//! devices), and adaptive transient analysis with trapezoidal /
//! backward-Euler integration.
//!
//! # Architecture
//!
//! * [`circuit::Circuit`] — the netlist builder. Linear elements
//!   (R, C, L, V/I sources, controlled sources) are stored as data;
//!   nonlinear multi-terminal devices implement the [`device::Device`]
//!   trait and stamp their own Jacobian/residual contributions.
//! * [`stamp::Stamper`] — the per-iteration MNA assembler. Small systems
//!   use a dense LU, larger ones the sparse Gilbert–Peierls LU from
//!   `nemscmos-numeric`.
//! * [`analysis`] — operating point (with g_min stepping and source
//!   ramping), DC sweep, and transient analysis.
//! * [`result`] — waveforms and probe access.
//! * [`stats`] — per-thread solver telemetry (Newton iterations, LU
//!   factorizations, step rejections) for harness run reports.
//! * [`profile`] — thread-local robustness overrides consumed by the
//!   harness retry ladder (g_min floor, forced source stepping,
//!   backward-Euler-only integration).
//! * [`budget`] — solve budgets: wall-clock deadlines, iteration caps,
//!   cooperative cancellation, and heartbeats for watchdog supervision.
//! * [`par`] — the per-thread eval-thread budget and the one parked
//!   helper thread that large batch plans share device evaluation with.
//!
//! # Example: RC low-pass step response
//!
//! ```
//! use nemscmos_spice::circuit::Circuit;
//! use nemscmos_spice::waveform::Waveform;
//! use nemscmos_spice::analysis::tran::{transient, TranOptions};
//!
//! # fn main() -> Result<(), nemscmos_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.vsource(vin, Circuit::GROUND, Waveform::dc(1.0));
//! ckt.resistor(vin, vout, 1e3);
//! ckt.capacitor(vout, Circuit::GROUND, 1e-9);
//! let res = transient(&mut ckt, 10e-6, &TranOptions::default())?;
//! let v_end = res.voltage(vout).last_value();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 10 time constants
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod budget;
pub mod circuit;
pub mod device;
pub mod element;
pub mod faults;
pub mod guard;
pub mod netlist;
pub mod par;
pub mod profile;
pub mod result;
pub mod stamp;
pub mod stats;
pub mod vcd;
pub mod waveform;

use std::error::Error;
use std::fmt;

use nemscmos_numeric::NumericError;

use crate::stats::SolverStats;

/// Errors produced by circuit construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// The underlying numerical kernel failed.
    Numeric(NumericError),
    /// Newton iteration failed to converge.
    NoConvergence {
        /// Which analysis failed ("op", "dc sweep", "transient").
        analysis: &'static str,
        /// Simulation time at failure (`0.0` for DC analyses).
        time: f64,
        /// Detail about the failing stage.
        detail: String,
    },
    /// The netlist is malformed (dangling node, non-positive element
    /// value, missing source, ...).
    InvalidCircuit(String),
    /// An analysis was asked about a node, element, or probe that does not
    /// exist.
    UnknownProbe(String),
    /// A non-finite value (NaN/Inf) was stamped during MNA assembly,
    /// caught before it could reach the linear solver.
    NonFinite {
        /// What stamped the value (`"device 'nems1'"`, `"linear
        /// elements"`, `"fault injection"`, ...).
        device: String,
        /// The unknown (row) the value landed on, by circuit name.
        node: String,
        /// `"jacobian"` or `"residual"`.
        stage: &'static str,
        /// Simulation time of the failing solve (`0.0` for DC).
        time: f64,
    },
    /// The linearized circuit equations were singular, with the failing
    /// pivot column mapped back to its circuit unknown.
    SingularSystem {
        /// Pivot column that collapsed (raw MNA index).
        column: usize,
        /// The circuit unknown that column belongs to.
        unknown: String,
        /// Best available pivot magnitude (`0.0` if structurally empty).
        pivot: f64,
        /// Simulation time of the failing solve (`0.0` for DC).
        time: f64,
    },
    /// The post-solve KCL audit found a node whose residual current
    /// exceeds the configured tolerance (see
    /// [`guard::GuardConfig::kcl_tol`]).
    KclViolation {
        /// The worst-offending node, by name.
        node: String,
        /// Its residual current in amperes.
        residual: f64,
        /// The tolerance it violated (amperes).
        tol: f64,
        /// Simulation time of the audited solve (`0.0` for DC).
        time: f64,
    },
    /// The solve exceeded a limit from the installed
    /// [`budget::Budget`] — a wall-clock deadline, an iteration cap, or a
    /// watchdog stall cancellation — and was abandoned cooperatively.
    DeadlineExceeded {
        /// Which limit tripped, human-readable ("wall-clock deadline of
        /// 250ms", "newton iteration cap of 10000", ...).
        limit: String,
        /// Simulation time reached when the solve was abandoned (`0.0`
        /// for DC).
        time: f64,
        /// Partial telemetry: solver effort spent inside the budget scope
        /// before the interrupt (boxed to keep `SpiceError` small on the
        /// happy path's `Result`).
        spent: Box<SolverStats>,
    },
    /// The solve was cooperatively cancelled through a
    /// [`budget::InterruptFlag`] (an explicit external cancellation, not
    /// a budget limit).
    Cancelled {
        /// Simulation time reached when the solve was abandoned (`0.0`
        /// for DC).
        time: f64,
        /// Partial telemetry: solver effort spent inside the budget scope
        /// before the interrupt (boxed to keep `SpiceError` small on the
        /// happy path's `Result`).
        spent: Box<SolverStats>,
    },
}

impl SpiceError {
    /// True for the cooperative-interrupt variants
    /// ([`DeadlineExceeded`](SpiceError::DeadlineExceeded) /
    /// [`Cancelled`](SpiceError::Cancelled)). Fallback ladders and retry
    /// policies must propagate these immediately instead of escalating —
    /// the solve was *stopped*, not *stuck*.
    pub fn is_interrupt(&self) -> bool {
        matches!(
            self,
            SpiceError::DeadlineExceeded { .. } | SpiceError::Cancelled { .. }
        )
    }
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::Numeric(e) => write!(f, "numerical failure: {e}"),
            SpiceError::NoConvergence {
                analysis,
                time,
                detail,
            } => {
                write!(
                    f,
                    "{analysis} failed to converge at t = {time:.4e} s: {detail}"
                )
            }
            SpiceError::InvalidCircuit(msg) => write!(f, "invalid circuit: {msg}"),
            SpiceError::UnknownProbe(msg) => write!(f, "unknown probe: {msg}"),
            SpiceError::NonFinite {
                device,
                node,
                stage,
                time,
            } => write!(
                f,
                "non-finite {stage} entry stamped by {device} at {node} (t = {time:.4e} s)"
            ),
            SpiceError::SingularSystem {
                column,
                unknown,
                pivot,
                time,
            } => write!(
                f,
                "singular system at t = {time:.4e} s: pivot column {column} ({unknown}) \
                 collapsed (best pivot magnitude {pivot:.3e})"
            ),
            SpiceError::KclViolation {
                node,
                residual,
                tol,
                time,
            } => write!(
                f,
                "KCL audit failed at t = {time:.4e} s: residual {residual:.3e} A at {node} \
                 exceeds tolerance {tol:.3e} A"
            ),
            SpiceError::DeadlineExceeded { limit, time, spent } => write!(
                f,
                "budget exhausted at t = {time:.4e} s ({limit}; spent {} newton iterations, \
                 {} accepted steps)",
                spent.newton_iterations, spent.steps_accepted
            ),
            SpiceError::Cancelled { time, spent } => write!(
                f,
                "solve cancelled at t = {time:.4e} s (spent {} newton iterations, \
                 {} accepted steps)",
                spent.newton_iterations, spent.steps_accepted
            ),
        }
    }
}

impl Error for SpiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpiceError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericError> for SpiceError {
    fn from(e: NumericError) -> Self {
        SpiceError::Numeric(e)
    }
}

/// Convenience alias for results of simulator routines.
pub type Result<T> = std::result::Result<T, SpiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            SpiceError::Numeric(NumericError::SingularMatrix {
                column: 0,
                pivot: 0.0,
            }),
            SpiceError::NoConvergence {
                analysis: "op",
                time: 0.0,
                detail: "x".into(),
            },
            SpiceError::InvalidCircuit("bad".into()),
            SpiceError::UnknownProbe("n7".into()),
            SpiceError::NonFinite {
                device: "device 'nems1'".into(),
                node: "node 'out'".into(),
                stage: "jacobian",
                time: 1e-9,
            },
            SpiceError::SingularSystem {
                column: 3,
                unknown: "node 'out'".into(),
                pivot: 0.0,
                time: 0.0,
            },
            SpiceError::KclViolation {
                node: "node 'out'".into(),
                residual: 1e-3,
                tol: 1e-9,
                time: 2e-9,
            },
            SpiceError::DeadlineExceeded {
                limit: "wall-clock deadline of 250ms".into(),
                time: 1e-9,
                spent: Box::default(),
            },
            SpiceError::Cancelled {
                time: 0.0,
                spent: Box::default(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn interrupts_are_classified() {
        let d = SpiceError::DeadlineExceeded {
            limit: "newton iteration cap of 10".into(),
            time: 0.0,
            spent: Box::default(),
        };
        let c = SpiceError::Cancelled {
            time: 0.0,
            spent: Box::default(),
        };
        assert!(d.is_interrupt());
        assert!(c.is_interrupt());
        assert!(d.to_string().contains("newton iteration cap"));
        assert!(!SpiceError::InvalidCircuit("x".into()).is_interrupt());
    }

    #[test]
    fn numeric_error_converts() {
        let e: SpiceError = NumericError::SingularMatrix {
            column: 2,
            pivot: 0.0,
        }
        .into();
        assert!(matches!(e, SpiceError::Numeric(_)));
    }

    #[test]
    fn health_errors_name_the_culprit() {
        let e = SpiceError::NonFinite {
            device: "device 'beam3'".into(),
            node: "node 'bit'".into(),
            stage: "residual",
            time: 0.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("beam3") && msg.contains("bit") && msg.contains("residual"));

        let e = SpiceError::SingularSystem {
            column: 5,
            unknown: "branch current of inductor a-b".into(),
            pivot: 1e-301,
            time: 0.0,
        };
        assert!(e.to_string().contains("inductor a-b"));
    }
}
