//! System-matrix extraction at a bias point.
//!
//! The scaling benchmark (`perfbase`) measures ordering and
//! factorization cost on the *actual* Newton Jacobian of a generated
//! circuit, not a synthetic pattern. This module assembles that matrix
//! the same way AC analysis does: solve the DC operating point (with the
//! circuit's initial conditions clamped, exactly like a transient's
//! t = 0 solve, so bistable arrays land in a definite state), then load
//! every element and linearized device into a fresh stamper and read the
//! triplets back out.

use super::engine::{load_linear, Workspace};
use super::op::{op_vector, OpOptions};
use crate::circuit::Circuit;
use crate::device::{LoadContext, Mode, Solution};
use crate::stamp::Stamper;
use crate::Result;

/// The Newton Jacobian of a circuit at its (IC-clamped) operating point.
#[derive(Debug, Clone)]
pub struct SystemProbe {
    /// Number of MNA unknowns (node voltages plus branch currents).
    pub n: usize,
    /// Nonzero Jacobian entries as `(row, col, value)` triplets; duplicate
    /// coordinates are possible and sum, matching
    /// [`CscMatrix::from_triplets`] semantics.
    ///
    /// [`CscMatrix::from_triplets`]: nemscmos_numeric::sparse::CscMatrix::from_triplets
    pub entries: Vec<(usize, usize, f64)>,
}

/// Extracts the DC Jacobian at the circuit's operating point.
///
/// Initial conditions registered with [`Circuit::set_ic`] are clamped
/// during the solve (the transient t = 0 convention) so a sea of bistable
/// cells converges to the seeded state instead of wandering.
///
/// # Errors
///
/// Propagates operating-point failures.
pub fn dc_jacobian(ckt: &mut Circuit, opts: &OpOptions) -> Result<SystemProbe> {
    let ics: Vec<_> = ckt.ics().to_vec();
    let clamps = if ics.is_empty() {
        None
    } else {
        Some(ics.as_slice())
    };
    let mut ws = Workspace::new();
    let x_op = op_vector(ckt, opts, None, clamps, &mut ws)?;
    let n = x_op.len();

    let ctx = LoadContext {
        mode: Mode::Dc,
        gmin: opts.gmin,
        source_scale: 1.0,
    };
    let mut st = Stamper::new(n);
    load_linear(ckt, &x_op, &ctx, &mut st, None)?;
    let sol = Solution::new(&x_op);
    for dev in ckt.devices() {
        dev.load(&sol, &ctx, &mut st);
    }
    st.gmin_shunts(ctx.gmin, ckt.num_node_unknowns(), &x_op);
    Ok(SystemProbe {
        n,
        entries: st.jacobian_entries(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::NodeId;
    use crate::waveform::Waveform;

    #[test]
    fn resistor_divider_jacobian_matches_hand_stamp() {
        // vdd --R1-- mid --R2-- gnd, driven by a source: unknowns are
        // [v(vdd), v(mid), i(src)].
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let mid = ckt.node("mid");
        ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(vdd, mid, 1000.0);
        ckt.resistor(mid, Circuit::GROUND, 1000.0);
        let probe = dc_jacobian(&mut ckt, &OpOptions::default()).unwrap();
        assert_eq!(probe.n, 3);
        let sum = |r: usize, c: usize| -> f64 {
            probe
                .entries
                .iter()
                .filter(|&&(er, ec, _)| er == r && ec == c)
                .map(|&(_, _, v)| v)
                .sum()
        };
        // Conductance block (row/col 0-1) plus source incidence (row/col 2).
        assert!((sum(0, 0) - 1e-3).abs() < 1e-9);
        assert!((sum(1, 1) - 2e-3).abs() < 1e-9);
        assert!((sum(0, 1) + 1e-3).abs() < 1e-9);
        assert_eq!(sum(0, 2), 1.0);
        assert_eq!(sum(2, 0), 1.0);
    }

    #[test]
    fn ics_clamp_the_probe_operating_point() {
        // A floating capacitor node has no DC path; the IC clamp pins it,
        // and the probe must not error out.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.capacitor(a, NodeId::GROUND, 1e-15);
        ckt.set_ic(a, 0.75);
        let probe = dc_jacobian(&mut ckt, &OpOptions::default()).unwrap();
        assert_eq!(probe.n, 1);
    }
}
