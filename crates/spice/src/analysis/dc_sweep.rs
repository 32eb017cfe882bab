//! DC sweep with warm-starting and device-state continuation.

use super::engine::Workspace;
use super::op::{op_vector, OpOptions};
use crate::circuit::Circuit;
use crate::element::SourceRef;
use crate::result::OpResult;
use crate::{Result, SpiceError};

/// Tolerance (V) by which a grid point may overshoot `stop` and still be
/// swept, so that rounding in `start + k·step` cannot drop the end point.
const SWEEP_END_SLACK: f64 = 1e-12;

/// Number of points of the linear grid `start, start + step, …` that
/// reaches `stop` (inclusive, within a picovolt), or `None` when the grid
/// is not finite: a non-finite bound or step, a zero step, or a step that
/// points away from `stop`. Saturates at `usize::MAX` instead of
/// overflowing, so a caller can cap the count before allocating.
pub(crate) fn linear_sweep_len(start: f64, stop: f64, step: f64) -> Option<usize> {
    if !(start.is_finite() && stop.is_finite() && step.is_finite()) || step == 0.0 {
        return None;
    }
    let span = (stop - start + SWEEP_END_SLACK.copysign(step)) / step;
    (span >= 0.0).then(|| (span.floor() as usize).saturating_add(1))
}

/// The linear grid `start, start + step, …` that reaches `stop`
/// (inclusive, within a picovolt), each point computed as `start + k·step`
/// so rounding does not accumulate. A `.dc` directive parsed by
/// [`parse_deck`] always yields a valid grid of at most [`MAX_DC_POINTS`].
///
/// # Panics
///
/// Panics if a bound or the step is not finite, the step is zero, or it
/// points away from `stop`.
///
/// [`parse_deck`]: crate::netlist::parse_deck
/// [`MAX_DC_POINTS`]: crate::netlist::MAX_DC_POINTS
pub fn linear_sweep(start: f64, stop: f64, step: f64) -> Vec<f64> {
    let n = linear_sweep_len(start, stop, step).expect("bad sweep grid");
    (0..n).map(|k| start + step * k as f64).collect()
}

/// Sweeps the DC value of `src` through `values`, solving an operating
/// point at each step.
///
/// Each point warm-starts from the previous solution and *commits* device
/// state between points, so hysteretic devices (NEMS switches) follow the
/// sweep direction — sweeping up and then down traces both branches of a
/// hysteresis loop.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidCircuit`] if `values` is empty and
/// propagates convergence failures (annotated with the failing sweep
/// value).
pub fn dc_sweep(
    ckt: &mut Circuit,
    src: SourceRef,
    values: &[f64],
    opts: &OpOptions,
) -> Result<Vec<OpResult>> {
    dc_sweep_seeded(ckt, src, values, &[], opts)
}

/// [`dc_sweep`] with node-voltage seeds applied to the *first* point —
/// required when sweeping a bistable circuit (e.g. finding an SRAM write
/// trip point): the seeds select the starting attractor, and warm-started
/// continuation follows it through the sweep.
///
/// # Errors
///
/// See [`dc_sweep`]; additionally rejects seeds naming nodes outside the
/// circuit.
pub fn dc_sweep_seeded(
    ckt: &mut Circuit,
    src: SourceRef,
    values: &[f64],
    seeds: &[(crate::element::NodeId, f64)],
    opts: &OpOptions,
) -> Result<Vec<OpResult>> {
    if values.is_empty() {
        return Err(SpiceError::InvalidCircuit(
            "empty DC sweep value list".into(),
        ));
    }
    // One workspace across all sweep points: the matrix of a device-free
    // circuit does not change with the swept source value, so subsequent
    // points reuse the factorization outright.
    let mut ws = Workspace::new();
    let mut results = Vec::with_capacity(values.len());
    let mut prev: Option<Vec<f64>> = if seeds.is_empty() {
        None
    } else {
        let n = ckt.num_unknowns();
        let mut guess = vec![0.0; n];
        for &(node, v) in seeds {
            if node.is_ground() {
                continue;
            }
            let idx = node.index() - 1;
            if idx >= ckt.num_node_unknowns() {
                return Err(SpiceError::InvalidCircuit(format!(
                    "seed node index {} outside circuit",
                    node.index()
                )));
            }
            guess[idx] = v;
        }
        Some(guess)
    };
    for &v in values {
        // Budget check between points: a sweep of many cheap op solves
        // should still honour a cancellation/deadline promptly even when
        // no individual solve runs long. Interrupt errors from inside
        // op_vector pass through the map_err below untouched.
        crate::budget::poll(0.0, 0)?;
        ckt.set_vsource_dc(src, v)?;
        let x = op_vector(ckt, opts, prev.as_deref(), None, &mut ws).map_err(|e| match e {
            SpiceError::NoConvergence {
                analysis,
                time,
                detail,
            } => SpiceError::NoConvergence {
                analysis,
                time,
                detail: format!("at sweep value {v}: {detail}"),
            },
            other => other,
        })?;
        results.push(OpResult::new(
            x.clone(),
            ckt.num_node_unknowns(),
            ckt.branch_base(),
        ));
        prev = Some(x);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn sweep_tracks_divider_linearly() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let v = ckt.vsource(a, Circuit::GROUND, Waveform::dc(0.0));
        ckt.resistor(a, b, 1e3);
        ckt.resistor(b, Circuit::GROUND, 1e3);
        let values = [0.0, 0.5, 1.0, 1.5, 2.0];
        let results = dc_sweep(&mut ckt, v, &values, &OpOptions::default()).unwrap();
        assert_eq!(results.len(), values.len());
        for (res, &vin) in results.iter().zip(values.iter()) {
            assert!((res.voltage(b) - vin / 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v = ckt.vsource(a, Circuit::GROUND, Waveform::dc(0.0));
        ckt.resistor(a, Circuit::GROUND, 1e3);
        assert!(dc_sweep(&mut ckt, v, &[], &OpOptions::default()).is_err());
    }
}
