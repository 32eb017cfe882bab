//! Adaptive transient analysis (trapezoidal / backward Euler).

use nemscmos_numeric::newton::NewtonOptions;

use super::engine::{newton_solve, LinearState, Workspace};
use super::op::{op_vector, OpOptions};
use crate::circuit::Circuit;
use crate::device::{LoadContext, Mode, Solution};
use crate::element::Element;
use crate::result::TranResult;
use crate::stats::{count, Counter};
use crate::{Result, SpiceError};

/// Time-integration method for the bulk of the transient.
///
/// The first step after every source breakpoint always uses backward
/// Euler to damp the discontinuity, regardless of this setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Second-order trapezoidal rule (default; more accurate).
    #[default]
    Trapezoidal,
    /// First-order backward Euler (more damped; use for stiff switching
    /// studies where trapezoidal ringing is a concern).
    BackwardEuler,
}

/// Options for [`transient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranOptions {
    /// Integration method (see [`IntegrationMethod`]).
    pub method: IntegrationMethod,
    /// Initial / post-breakpoint step size. Default: `tstop / 50_000`.
    pub dt_init: Option<f64>,
    /// Maximum step size. Default: `tstop / 500`.
    pub dt_max: Option<f64>,
    /// Local-truncation-error target on node voltages per step (volts).
    pub lte_tol: f64,
    /// Newton settings per time step.
    pub newton: NewtonOptions,
    /// Convergence shunt (siemens).
    pub gmin: f64,
    /// Hard cap on accepted + rejected steps.
    pub max_steps: usize,
    /// If true, skip the t = 0 operating point and start from all-zero
    /// state plus the registered initial conditions (SPICE `UIC`).
    pub use_ic_only: bool,
}

impl Default for TranOptions {
    fn default() -> Self {
        TranOptions {
            method: IntegrationMethod::Trapezoidal,
            dt_init: None,
            dt_max: None,
            lte_tol: 2e-3,
            newton: NewtonOptions::default(),
            gmin: 1e-12,
            max_steps: 2_000_000,
            use_ic_only: false,
        }
    }
}

/// Collects and sorts the time discontinuities of all sources.
fn collect_breakpoints(ckt: &Circuit, tstop: f64) -> Vec<f64> {
    let mut bps = vec![tstop];
    for e in ckt.elements() {
        match e {
            Element::VSource { wave, .. } | Element::ISource { wave, .. } => {
                wave.breakpoints(tstop, &mut bps);
            }
            _ => {}
        }
    }
    bps.retain(|&t| t > 0.0 && t <= tstop);
    bps.sort_by(f64::total_cmp);
    // Deduplicate within a relative tolerance.
    let eps = tstop * 1e-12;
    bps.dedup_by(|a, b| (*a - *b).abs() <= eps);
    bps
}

/// Runs a transient analysis from `t = 0` to `tstop`.
///
/// The initial state is the DC operating point at `t = 0` (with any
/// registered initial conditions clamped), then the circuit is integrated
/// with adaptive step control: steps are rejected and halved when the
/// predictor/corrector disagreement on node voltages exceeds
/// `opts.lte_tol`, and forced to land on every source breakpoint.
///
/// Device dynamic state is reset at the start, and committed after every
/// accepted step.
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`] if Newton fails at the minimum
/// step size or the step budget is exhausted, and propagates operating-
/// point and netlist errors.
pub fn transient(ckt: &mut Circuit, tstop: f64, opts: &TranOptions) -> Result<TranResult> {
    if !(tstop.is_finite() && tstop > 0.0) {
        return Err(SpiceError::InvalidCircuit(format!(
            "bad transient stop time {tstop}"
        )));
    }
    ckt.validate()?;
    ckt.reset_device_state();
    let n = ckt.num_unknowns();

    // Harness retry-ladder overrides (neutral unless a rung is active).
    let prof = crate::profile::current();
    let gmin = prof.effective_gmin(opts.gmin);
    let method = if prof.force_backward_euler {
        IntegrationMethod::BackwardEuler
    } else {
        opts.method
    };

    // --- Initial state at t = 0. ---
    let op_opts = OpOptions {
        gmin,
        newton: opts.newton,
        max_state_loops: 8,
    };
    // One linear-algebra workspace for the whole run: the t = 0 operating
    // point and every timestep share the frozen assembly pattern and
    // cached factorizations.
    let mut ws = Workspace::new();
    let ics: Vec<_> = ckt.ics().to_vec();
    let mut x = if opts.use_ic_only {
        let mut x0 = vec![0.0; n];
        for dev in ckt.devices() {
            dev.initial_guess(&mut x0);
        }
        for &(node, v) in &ics {
            if !node.is_ground() {
                x0[node.index() - 1] = v;
            }
        }
        x0
    } else {
        let clamps = if ics.is_empty() {
            None
        } else {
            Some(ics.as_slice())
        };
        op_vector(ckt, &op_opts, None, clamps, &mut ws)?
    };

    let mut lin = LinearState::from_dc(ckt, &x);
    let mut result = TranResult::new(ckt.num_node_unknowns(), ckt.branch_base());
    result.push(0.0, &x);

    let breakpoints = collect_breakpoints(ckt, tstop);
    let dt_max = opts.dt_max.unwrap_or(tstop / 500.0);
    let dt_init = opts.dt_init.unwrap_or(tstop / 50_000.0).min(dt_max);
    let dt_min = tstop * 1e-13;
    let snap_eps = tstop * 1e-12;

    let mut t = 0.0;
    let mut dt = dt_init;
    let mut bp_idx = 0usize;
    // Previous accepted solution (for the LTE predictor).
    let mut x_prev = x.clone();
    let mut dt_prev = 0.0f64;
    let mut force_be = true; // first step from DC uses backward Euler
    let mut steps = 0usize;
    // Most recent Newton failure, kept so an eventual give-up (step
    // underflow / budget exhaustion) can surface the root cause — and so
    // typed health diagnostics are returned as themselves rather than
    // buried in a generic non-convergence message.
    let mut last_err: Option<SpiceError> = None;
    let give_up = |t: f64, last_err: &mut Option<SpiceError>, detail: String| match last_err.take()
    {
        Some(
            e @ (SpiceError::NonFinite { .. }
            | SpiceError::SingularSystem { .. }
            | SpiceError::KclViolation { .. }),
        ) => e,
        Some(e) => SpiceError::NoConvergence {
            analysis: "transient",
            time: t,
            detail: format!("{detail}; last solver error: {e}"),
        },
        None => SpiceError::NoConvergence {
            analysis: "transient",
            time: t,
            detail,
        },
    };

    while t < tstop - snap_eps {
        steps += 1;
        if steps > opts.max_steps {
            return Err(give_up(
                t,
                &mut last_err,
                format!("step budget of {} exhausted", opts.max_steps),
            ));
        }
        // Advance past any breakpoints we've already reached.
        while bp_idx < breakpoints.len() && breakpoints[bp_idx] <= t + snap_eps {
            bp_idx += 1;
        }
        // Clamp the step to the next breakpoint.
        let mut dt_step = dt.min(dt_max);
        let mut hit_bp = false;
        if bp_idx < breakpoints.len() {
            let to_bp = breakpoints[bp_idx] - t;
            if dt_step >= to_bp - snap_eps {
                dt_step = to_bp;
                hit_bp = true;
            }
        }
        if dt_step < dt_min {
            return Err(give_up(
                t,
                &mut last_err,
                format!("step size underflow (dt = {dt_step:.3e})"),
            ));
        }

        let t_new = t + dt_step;
        let backward_euler = force_be || method == IntegrationMethod::BackwardEuler;
        let ctx = LoadContext {
            mode: Mode::Transient {
                time: t_new,
                dt: dt_step,
                backward_euler,
            },
            gmin,
            source_scale: 1.0,
        };

        // Newton from the previous solution.
        let mut x_try = x.clone();
        match newton_solve(
            ckt,
            &mut x_try,
            &ctx,
            &opts.newton,
            Some(&lin),
            None,
            &mut ws,
        ) {
            Ok(_) => {}
            // A budget interrupt is a stop order, not a convergence
            // failure: shrinking the step and retrying would spin the
            // controller against an expired deadline forever.
            Err(e) if e.is_interrupt() => return Err(e),
            Err(e) => {
                // Shrink and retry.
                count(Counter::StepRejections, 1);
                last_err = Some(e);
                dt = dt_step / 8.0;
                force_be = true;
                continue;
            }
        }

        // Fault injection: a timestep-rejection storm discards steps that
        // converged cleanly, driving the controller toward underflow.
        if crate::faults::step_fault() {
            count(Counter::StepRejections, 1);
            dt = dt_step / 8.0;
            force_be = true;
            continue;
        }

        // Local truncation estimate: disagreement between the linear
        // predictor (from the last two accepted points) and the corrector.
        let nv = ckt.num_node_unknowns();
        let mut err = 0.0f64;
        if dt_prev > 0.0 {
            let r = dt_step / dt_prev;
            for i in 0..nv {
                let pred = x[i] + (x[i] - x_prev[i]) * r;
                err = err.max((x_try[i] - pred).abs());
            }
        }
        if err > 8.0 * opts.lte_tol && dt_step > 4.0 * dt_min && !hit_bp {
            count(Counter::StepRejections, 1);
            dt = dt_step * 0.5;
            continue;
        }

        // Accept the step.
        count(Counter::StepsAccepted, 1);
        crate::budget::pulse_accepted_step(t_new);
        let sol = Solution::new(&x_try);
        let state_changed = ckt.commit_devices(&sol, &ctx);
        lin.advance(ckt, &x_try, dt_step, backward_euler);
        x_prev = std::mem::replace(&mut x, x_try);
        dt_prev = dt_step;
        t = t_new;
        result.push(t, &x);

        // Step-size adaptation.
        let grow = if err <= f64::EPSILON {
            2.0
        } else {
            (opts.lte_tol / err).sqrt().clamp(0.4, 2.0)
        };
        dt = (dt_step * grow).min(dt_max);
        if hit_bp || state_changed {
            // Restart small after a discontinuity — a source breakpoint or
            // a discrete device-state flip (NEMS pull-in/release) — and
            // damp it with backward Euler.
            dt = dt_init;
            force_be = true;
        } else {
            force_be = false;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::waveform::Waveform;

    #[test]
    fn rc_charge_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(vin, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-9); // tau = 1 µs
        let res = transient(&mut ckt, 5e-6, &TranOptions::default()).unwrap();
        let v = res.voltage(out);
        for &t in &[0.5e-6, 1e-6, 2e-6, 4e-6] {
            let expect = 1.0 - (-t / 1e-6_f64).exp();
            assert!(
                (v.eval(t) - expect).abs() < 5e-3,
                "t = {t}: got {}, expected {expect}",
                v.eval(t)
            );
        }
    }

    #[test]
    fn rl_current_rise_matches_analytic() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let v = ckt.vsource(a, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        ckt.resistor(a, b, 1e3);
        ckt.inductor(b, Circuit::GROUND, 1e-3); // tau = L/R = 1 µs
        let res = transient(&mut ckt, 5e-6, &TranOptions::default()).unwrap();
        let i = res.source_current(v);
        // Through-source current is −i_load by convention.
        let t = 2e-6;
        let expect = -(1e-3) * (1.0 - (-t / 1e-6_f64).exp());
        assert!((i.eval(t) - expect).abs() < 5e-6);
    }

    #[test]
    fn lc_oscillator_conserves_frequency() {
        // 1 V initial condition on C, ringing through L: f = 1/(2π√(LC)).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.capacitor(a, Circuit::GROUND, 1e-9);
        ckt.inductor(a, Circuit::GROUND, 1e-6);
        // A large resistor keeps the matrix well-posed.
        ckt.resistor(a, Circuit::GROUND, 1e9);
        ckt.set_ic(a, 1.0);
        // A DC clamp would fight the inductor short; start from the IC
        // directly (SPICE UIC).
        let opts = TranOptions {
            lte_tol: 1e-4,
            use_ic_only: true,
            ..Default::default()
        };
        let period = 2.0 * std::f64::consts::PI * (1e-9f64 * 1e-6).sqrt(); // ≈ 199 ns
        let res = transient(&mut ckt, 3.0 * period, &opts).unwrap();
        let v = res.voltage(a);
        // Initial condition respected.
        assert!((v.values()[0] - 1.0).abs() < 1e-3);
        // First falling zero crossing at period/4.
        let t_zero = v
            .crossing_falling(0.0, 0.0)
            .expect("oscillation crosses zero");
        assert!(
            (t_zero - period / 4.0).abs() < period * 0.02,
            "zero at {t_zero}, expected {}",
            period / 4.0
        );
    }

    #[test]
    fn pulse_source_edges_are_resolved() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(
            a,
            Circuit::GROUND,
            Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 2e-9, 10e-9),
        );
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let res = transient(&mut ckt, 5e-9, &TranOptions::default()).unwrap();
        let v = res.voltage(a);
        // Mid-rise exactly at 1.05 ns thanks to breakpoint snapping.
        assert!((v.eval(1.05e-9) - 0.5).abs() < 0.05);
        assert!((v.eval(2e-9) - 1.0).abs() < 1e-6);
        assert!(v.eval(0.5e-9).abs() < 1e-6);
    }

    #[test]
    fn breakpoint_exactly_at_tstop_is_merged_and_terminates() {
        // A pulse whose rising edge starts exactly at tstop: the source
        // breakpoint coincides with the implicit tstop breakpoint. The
        // dedup in collect_breakpoints must merge them so the final step
        // lands on tstop once, with no zero-length step or underflow.
        let tstop = 5e-9;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(
            a,
            Circuit::GROUND,
            Waveform::pulse(0.0, 1.0, tstop, 0.1e-9, 0.1e-9, 2e-9, 10e-9),
        );
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let bps = collect_breakpoints(&ckt, tstop);
        assert_eq!(
            bps.iter()
                .filter(|&&t| (t - tstop).abs() <= tstop * 1e-12)
                .count(),
            1,
            "tstop breakpoint must be deduplicated: {bps:?}"
        );
        let res = transient(&mut ckt, tstop, &TranOptions::default()).unwrap();
        let va = res.voltage(a);
        let t_end = *va.times().last().unwrap();
        assert!((t_end - tstop).abs() <= tstop * 1e-9, "ended at {t_end}");
        // The pulse never rose before tstop.
        assert!(res.voltage(a).last_value().abs() < 1e-6);
    }

    #[test]
    fn breakpoints_within_one_snap_eps_collapse() {
        // Two sources with edges 0.4·snap_eps apart (snap_eps = tstop·1e-12):
        // the dedup tolerance equals snap_eps, so they must collapse into a
        // single breakpoint — otherwise the clamp logic would be forced
        // into a dt below dt_min between them. The run must complete with
        // strictly increasing time points.
        let tstop = 1e-6;
        let snap_eps = tstop * 1e-12;
        let t0 = 0.3e-6;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(
            a,
            Circuit::GROUND,
            Waveform::pulse(0.0, 1.0, t0, 1e-9, 1e-9, 0.2e-6, 1e-3),
        );
        ckt.vsource(
            b,
            Circuit::GROUND,
            Waveform::pulse(0.0, 1.0, t0 + 0.4 * snap_eps, 1e-9, 1e-9, 0.2e-6, 1e-3),
        );
        ckt.resistor(a, Circuit::GROUND, 1e3);
        ckt.resistor(b, Circuit::GROUND, 1e3);
        let bps = collect_breakpoints(&ckt, tstop);
        assert_eq!(
            bps.iter()
                .filter(|&&t| (t - t0).abs() <= 2.0 * snap_eps)
                .count(),
            1,
            "near-coincident breakpoints must be deduplicated: {bps:?}"
        );
        for w in bps.windows(2) {
            assert!(
                w[1] - w[0] > snap_eps,
                "breakpoints closer than snap_eps: {bps:?}"
            );
        }
        let res = transient(&mut ckt, tstop, &TranOptions::default()).unwrap();
        let va = res.voltage(a);
        for w in va.times().windows(2) {
            assert!(w[1] > w[0], "non-increasing time points {w:?}");
        }
        // Mid-pulse both sources are high; after the pulse both are low.
        assert!((va.eval(0.4e-6) - 1.0).abs() < 1e-3);
        assert!(va.last_value().abs() < 1e-3);
    }

    #[test]
    fn rejects_bad_stop_time() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(a, Circuit::GROUND, 1.0);
        assert!(transient(&mut ckt, -1.0, &TranOptions::default()).is_err());
        assert!(transient(&mut ckt, f64::NAN, &TranOptions::default()).is_err());
    }

    #[test]
    fn uic_starts_from_initial_conditions() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GROUND, 1e3);
        ckt.capacitor(a, Circuit::GROUND, 1e-9);
        ckt.set_ic(a, 2.0);
        let opts = TranOptions {
            use_ic_only: true,
            ..Default::default()
        };
        let res = transient(&mut ckt, 1e-6, &opts).unwrap();
        let v = res.voltage(a);
        assert!((v.values()[0] - 2.0).abs() < 1e-9);
        // Decays toward zero with tau = 1 µs.
        let expect = 2.0 * (-1.0f64).exp();
        assert!((v.last_value() - expect).abs() < 2e-2);
    }
}
