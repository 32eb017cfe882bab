//! DC operating-point analysis with g_min stepping and source ramping.

use nemscmos_numeric::newton::NewtonOptions;

use super::engine::{newton_solve, Workspace};
use crate::circuit::Circuit;
use crate::device::{LoadContext, Mode, Solution};
use crate::element::NodeId;
use crate::result::OpResult;
use crate::{Result, SpiceError};

/// Options for [`op_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpOptions {
    /// Convergence shunt from every node to ground (siemens).
    pub gmin: f64,
    /// Newton iteration settings.
    pub newton: NewtonOptions,
    /// Maximum re-solves for discrete device-state consistency
    /// (hysteretic devices may flip state after a solve).
    pub max_state_loops: usize,
}

impl Default for OpOptions {
    fn default() -> Self {
        OpOptions {
            gmin: 1e-12,
            newton: NewtonOptions::default(),
            max_state_loops: 16,
        }
    }
}

/// Computes the DC operating point with default options.
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`] when Newton, g_min stepping *and*
/// source stepping all fail, or [`SpiceError::InvalidCircuit`] for a
/// malformed netlist.
pub fn op(ckt: &mut Circuit) -> Result<OpResult> {
    op_with(ckt, &OpOptions::default())
}

/// Computes the DC operating point with explicit options.
///
/// # Errors
///
/// See [`op`].
pub fn op_with(ckt: &mut Circuit, opts: &OpOptions) -> Result<OpResult> {
    let mut ws = Workspace::new();
    let x = op_vector(ckt, opts, None, None, &mut ws)?;
    Ok(OpResult::new(x, ckt.num_node_unknowns(), ckt.branch_base()))
}

/// Computes a DC operating point seeded with initial node-voltage guesses
/// — the way to select an attractor of a *bistable* circuit (e.g. an SRAM
/// cell in a chosen stored state) without clamp-current artifacts.
///
/// Unlisted nodes start at `0 V`.
///
/// # Errors
///
/// See [`op`]; additionally returns [`SpiceError::InvalidCircuit`] if a
/// seed references a node outside the circuit.
pub fn op_seeded(ckt: &mut Circuit, seeds: &[(NodeId, f64)], opts: &OpOptions) -> Result<OpResult> {
    let n = ckt.num_unknowns();
    let mut guess = vec![0.0; n];
    for dev in ckt.devices() {
        dev.initial_guess(&mut guess);
    }
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
    let mut ws = Workspace::new();
    let x = op_vector(ckt, opts, Some(&guess), None, &mut ws)?;
    Ok(OpResult::new(x, ckt.num_node_unknowns(), ckt.branch_base()))
}

/// Core OP driver, shared with the transient t = 0 solve and DC sweeps.
///
/// `guess` warm-starts Newton; `ic_clamps` force node voltages (used for
/// biasing bistable circuits at t = 0).
pub(crate) fn op_vector(
    ckt: &mut Circuit,
    opts: &OpOptions,
    guess: Option<&[f64]>,
    ic_clamps: Option<&[(NodeId, f64)]>,
    ws: &mut Workspace,
) -> Result<Vec<f64>> {
    ckt.validate()?;
    let n = ckt.num_unknowns();
    let mut x = match guess {
        Some(g) => {
            if g.len() != n {
                return Err(SpiceError::InvalidCircuit(format!(
                    "warm-start guess has {} unknowns, circuit has {n}",
                    g.len()
                )));
            }
            g.to_vec()
        }
        None => {
            let mut x0 = vec![0.0; n];
            for dev in ckt.devices() {
                dev.initial_guess(&mut x0);
            }
            x0
        }
    };

    // Align device discrete state (hysteresis flags) with the initial
    // guess, so a seeded bistable circuit starts in the intended attractor
    // rather than the power-on state.
    {
        let ctx = LoadContext::dc(opts.gmin);
        let sol = Solution::new(&x);
        let _ = ckt.commit_devices(&sol, &ctx);
    }

    // Discrete-state consistency loop: hysteretic devices may flip after a
    // converged solve; re-solve until no device changes state.
    for _ in 0..opts.max_state_loops.max(1) {
        solve_dc_point(ckt, &mut x, opts, ic_clamps, ws)?;
        let ctx = LoadContext::dc(opts.gmin);
        let sol = Solution::new(&x);
        if !ckt.commit_devices(&sol, &ctx) {
            crate::budget::pulse_solve_done();
            return Ok(x);
        }
    }
    Err(SpiceError::NoConvergence {
        analysis: "op",
        time: 0.0,
        detail: "device discrete state failed to reach consistency".into(),
    })
}

/// Newton with fallbacks: plain, g_min stepping, then source stepping.
fn solve_dc_point(
    ckt: &Circuit,
    x: &mut [f64],
    opts: &OpOptions,
    ic_clamps: Option<&[(NodeId, f64)]>,
    ws: &mut Workspace,
) -> Result<()> {
    // Harness retry-ladder overrides (neutral unless a rung is active).
    let prof = crate::profile::current();
    let base_gmin = prof.effective_gmin(opts.gmin);
    let base_ctx = LoadContext {
        mode: Mode::Dc,
        gmin: base_gmin,
        source_scale: 1.0,
    };
    let saved: Vec<f64> = x.to_vec();
    if !prof.force_source_stepping {
        // Interrupt errors (deadline/cancellation) short-circuit the whole
        // fallback chain: the solve was stopped, not stuck, so escalating
        // to the next strategy would just burn more of an expired budget.
        match newton_solve(ckt, x, &base_ctx, &opts.newton, None, ic_clamps, ws) {
            Ok(_) => return Ok(()),
            Err(e) if e.is_interrupt() => return Err(e),
            Err(_) => {}
        }

        // g_min stepping: start very lossy, tighten geometrically. Under a
        // retry rung the ladder is finer (÷3 per rung instead of ÷10).
        x.copy_from_slice(&saved);
        let mut ok = true;
        let mut gmin = 1e-2;
        let tighten = if prof.gmin_floor.is_some() { 3.0 } else { 10.0 };
        while gmin > base_gmin {
            let ctx = LoadContext {
                mode: Mode::Dc,
                gmin,
                source_scale: 1.0,
            };
            match newton_solve(ckt, x, &ctx, &opts.newton, None, ic_clamps, ws) {
                Ok(_) => {}
                Err(e) if e.is_interrupt() => return Err(e),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            gmin /= tighten;
        }
        if ok {
            match newton_solve(ckt, x, &base_ctx, &opts.newton, None, ic_clamps, ws) {
                Ok(_) => return Ok(()),
                Err(e) if e.is_interrupt() => return Err(e),
                Err(_) => {}
            }
        }
    }

    // Source stepping: ramp all independent sources to 100% (finer ramp
    // when the retry ladder demands it).
    x.iter_mut().for_each(|v| *v = 0.0);
    let ramp_steps = if prof.force_source_stepping { 20 } else { 10 };
    for step in 1..=ramp_steps {
        let scale = step as f64 / ramp_steps as f64;
        let ctx = LoadContext {
            mode: Mode::Dc,
            gmin: base_gmin,
            source_scale: scale,
        };
        newton_solve(ckt, x, &ctx, &opts.newton, None, ic_clamps, ws).map_err(|e| match e {
            // Typed health diagnostics (non-finite assembly, singular pivot
            // with attribution, KCL audit) and budget interrupts survive
            // the fallback chain unwrapped so callers can triage them.
            SpiceError::NonFinite { .. }
            | SpiceError::SingularSystem { .. }
            | SpiceError::KclViolation { .. }
            | SpiceError::DeadlineExceeded { .. }
            | SpiceError::Cancelled { .. } => e,
            e => SpiceError::NoConvergence {
                analysis: "op",
                time: 0.0,
                detail: format!("source stepping failed at scale {:.0}%: {e}", scale * 100.0),
            },
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(2.0));
        ckt.resistor(a, b, 1e3);
        ckt.resistor(b, Circuit::GROUND, 3e3);
        let res = op(&mut ckt).unwrap();
        // gmin (1e-12 S) shifts the divider by ~1 nV; allow for it.
        assert!((res.voltage(b) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn source_current_sign_convention() {
        // A 1 V source driving 1 kΩ: 1 mA leaves the + terminal into the
        // circuit, so the through-source current is −1 mA.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v = ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let res = op(&mut ckt).unwrap();
        assert!((res.source_current(v) + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(5.0));
        ckt.resistor(a, b, 1e3);
        ckt.capacitor(b, Circuit::GROUND, 1e-12);
        let res = op(&mut ckt).unwrap();
        // No DC path through the cap: b floats to the source value via R
        // (gmin pulls it only negligibly).
        assert!((res.voltage(b) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn inductor_is_short_in_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(a, b, 1e3);
        ckt.inductor(b, Circuit::GROUND, 1e-6);
        let res = op(&mut ckt).unwrap();
        assert!(res.voltage(b).abs() < 1e-9);
    }

    #[test]
    fn isource_injects_current() {
        // 1 mA from ground into node a across 1 kΩ → 1 V.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.isource(Circuit::GROUND, a, Waveform::dc(1e-3));
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let res = op(&mut ckt).unwrap();
        assert!((res.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vccs_gain_stage() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(inp, Circuit::GROUND, Waveform::dc(0.5));
        // i = gm·v(in) pulled out of `out` (current flows out→gnd through
        // the source), so v(out) = −gm·R·v(in).
        ckt.vccs(out, Circuit::GROUND, inp, Circuit::GROUND, 2e-3);
        ckt.resistor(out, Circuit::GROUND, 1e3);
        let res = op(&mut ckt).unwrap();
        assert!((res.voltage(out) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn vcvs_doubles_voltage() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(inp, Circuit::GROUND, Waveform::dc(0.7));
        ckt.vcvs(out, Circuit::GROUND, inp, Circuit::GROUND, 2.0);
        ckt.resistor(out, Circuit::GROUND, 1e3);
        let res = op(&mut ckt).unwrap();
        assert!((res.voltage(out) - 1.4).abs() < 1e-9);
    }

    #[test]
    fn empty_circuit_is_invalid() {
        let mut ckt = Circuit::new();
        assert!(matches!(op(&mut ckt), Err(SpiceError::InvalidCircuit(_))));
    }

    #[test]
    fn warm_start_wrong_length_is_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(a, Circuit::GROUND, 1.0);
        let bad = vec![0.0; 99];
        let mut ws = Workspace::new();
        assert!(op_vector(&mut ckt, &OpOptions::default(), Some(&bad), None, &mut ws).is_err());
    }
}

#[cfg(test)]
mod fallback_tests {
    use super::*;
    use crate::waveform::Waveform;
    use nemscmos_numeric::newton::NewtonOptions;

    /// A deliberately hostile start: tiny Newton budget forces the plain
    /// solve to fail so the g_min-stepping and source-stepping fallbacks
    /// must carry the analysis.
    #[test]
    fn fallbacks_rescue_a_starved_newton() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(5.0));
        ckt.resistor(a, b, 1e3);
        ckt.resistor(b, Circuit::GROUND, 1e3);
        // max_step so small the 2.5 V answer needs many damped steps; a
        // tiny max_iter makes the direct attempt fail, but each fallback
        // stage starts closer and eventually lands.
        let opts = OpOptions {
            newton: NewtonOptions {
                max_iter: 12,
                max_step: 0.3,
                ..Default::default()
            },
            ..Default::default()
        };
        let res = op_with(&mut ckt, &opts).expect("fallbacks should converge");
        assert!((res.voltage(b) - 2.5).abs() < 1e-3);
    }

    /// With an impossible budget every strategy fails and the error says
    /// which stage gave up.
    #[test]
    fn exhausted_fallbacks_report_source_stepping() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(100.0));
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let opts = OpOptions {
            newton: NewtonOptions {
                max_iter: 2,
                max_step: 1e-3,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = op_with(&mut ckt, &opts).unwrap_err();
        assert!(err.to_string().contains("source stepping"), "{err}");
    }
}
