//! Shared assembly and Newton machinery used by every analysis.

use nemscmos_numeric::newton::{NewtonOptions, NewtonSolver, NewtonStatus};
use nemscmos_numeric::NumericError;

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::circuit::{BatchPlan, Circuit};
use crate::device::{Device, EvalBatch, LoadContext, Mode, Solution};
use crate::element::{Element, NodeId};
use crate::faults::FaultKind;
use crate::stamp::{JacobianKey, StampSection, Stamper};
use crate::stats::{count, Counter};
use crate::{Result, SpiceError};

/// Linear-algebra state carried across Newton solves and timesteps.
///
/// The [`Stamper`] inside accumulates the incremental fast path (frozen
/// assembly pattern, reusable factorizations — see [`crate::stamp`]), so
/// every analysis creates one `Workspace` per run and threads it through
/// each [`newton_solve`].
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    st: Option<Stamper>,
    /// Structure-of-arrays gather/eval columns, one per chunk of the
    /// batch plan, reused across assemblies so the steady state allocates
    /// nothing. The mutex lets the eval helper fill a chunk the caller
    /// has gathered.
    scratch: Vec<Mutex<EvalBatch>>,
}

impl Workspace {
    pub(crate) fn new() -> Workspace {
        Workspace {
            st: None,
            scratch: Vec::new(),
        }
    }

    /// The cached stamper for `n` unknowns — recreated when the dimension,
    /// backend or ordering choice changed — plus the batch scratch
    /// columns, split-borrowed so assembly can use both.
    fn parts(&mut self, n: usize) -> (&mut Stamper, &mut Vec<Mutex<EvalBatch>>) {
        let stale = match &self.st {
            Some(st) => {
                st.dim() != n
                    || st.is_dense() != Stamper::want_dense(n)
                    || st.is_ordered() != Stamper::want_ordered(n)
            }
            None => true,
        };
        if stale {
            self.st = Some(Stamper::new(n));
        }
        (
            self.st.as_mut().expect("stamper just ensured"),
            &mut self.scratch,
        )
    }
}

/// Conductance used to clamp initial-condition nodes during the t = 0 solve.
pub(crate) const IC_CLAMP_SIEMENS: f64 = 1.0e4;

/// Integration history of the linear reactive elements, indexed by element
/// position in the circuit.
#[derive(Debug, Clone)]
pub(crate) struct LinearState {
    /// Per-capacitor `(v, i)` at the last accepted step.
    pub cap: Vec<(f64, f64)>,
    /// Per-inductor `(i, v)` at the last accepted step.
    pub ind: Vec<(f64, f64)>,
}

impl LinearState {
    /// Builds history from a converged DC solution: capacitor voltages from
    /// node voltages with zero current, inductor currents from branch
    /// unknowns with zero voltage.
    pub fn from_dc(ckt: &Circuit, x: &[f64]) -> LinearState {
        let sol = Solution::new(x);
        let branch_base = ckt.branch_base();
        let mut cap = vec![(0.0, 0.0); ckt.elements().len()];
        let mut ind = vec![(0.0, 0.0); ckt.elements().len()];
        for (idx, e) in ckt.elements().iter().enumerate() {
            match *e {
                Element::Capacitor { a, b, .. } => {
                    cap[idx] = (sol.v(a) - sol.v(b), 0.0);
                }
                Element::Inductor { branch, .. } => {
                    ind[idx] = (x[branch_base + branch], 0.0);
                }
                _ => {}
            }
        }
        LinearState { cap, ind }
    }

    /// Updates history after an accepted transient step.
    pub fn advance(&mut self, ckt: &Circuit, x: &[f64], dt: f64, backward_euler: bool) {
        let sol = Solution::new(x);
        let branch_base = ckt.branch_base();
        for (idx, e) in ckt.elements().iter().enumerate() {
            match *e {
                Element::Capacitor { a, b, farads } => {
                    let v_new = sol.v(a) - sol.v(b);
                    let (v_prev, i_prev) = self.cap[idx];
                    let i_new = if backward_euler {
                        farads / dt * (v_new - v_prev)
                    } else {
                        2.0 * farads / dt * (v_new - v_prev) - i_prev
                    };
                    self.cap[idx] = (v_new, i_new);
                }
                Element::Inductor {
                    branch, henries, ..
                } => {
                    let i_new = x[branch_base + branch];
                    let (i_prev, v_prev) = self.ind[idx];
                    let v_new = if backward_euler {
                        henries / dt * (i_new - i_prev)
                    } else {
                        2.0 * henries / dt * (i_new - i_prev) - v_prev
                    };
                    self.ind[idx] = (i_new, v_new);
                }
                _ => {}
            }
        }
    }
}

/// Stamps every linear element for the context `ctx` at candidate `x`.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidCircuit`] if a transient-mode assembly is
/// attempted without linear integration history.
pub(crate) fn load_linear(
    ckt: &Circuit,
    x: &[f64],
    ctx: &LoadContext,
    st: &mut Stamper,
    lin: Option<&LinearState>,
) -> Result<()> {
    if matches!(ctx.mode, Mode::Transient { .. }) && lin.is_none() {
        return Err(SpiceError::InvalidCircuit(
            "transient assembly requires linear integration state".into(),
        ));
    }
    let sol = Solution::new(x);
    let branch_base = ckt.branch_base();
    for (idx, e) in ckt.elements().iter().enumerate() {
        match *e {
            Element::Resistor { a, b, ohms } => {
                st.conductance(a, b, 1.0 / ohms, sol.v(a), sol.v(b));
            }
            Element::Capacitor { a, b, farads } => {
                match ctx.mode {
                    Mode::Dc => {} // open circuit in DC
                    Mode::Transient {
                        dt, backward_euler, ..
                    } => {
                        // `lin` is guaranteed Some in transient mode by the
                        // entry check above.
                        let (v_prev, i_prev) = match lin {
                            Some(s) => s.cap[idx],
                            None => (0.0, 0.0),
                        };
                        let (geq, ieq) = if backward_euler {
                            let g = farads / dt;
                            (g, -g * v_prev)
                        } else {
                            let g = 2.0 * farads / dt;
                            (g, -g * v_prev - i_prev)
                        };
                        // i = geq (va − vb) + ieq flowing a → b
                        let v = sol.v(a) - sol.v(b);
                        st.current(a, b, geq * v + ieq);
                        st.j_node(a, a, geq);
                        st.j_node(b, b, geq);
                        st.j_node(a, b, -geq);
                        st.j_node(b, a, -geq);
                    }
                }
            }
            Element::Inductor {
                a,
                b,
                branch,
                henries,
            } => {
                let br = branch_base + branch;
                let i = x[br];
                // Node rows carry the branch current a → b.
                st.f_node(a, i);
                st.f_node(b, -i);
                if let Some(r) = st.node_row(a) {
                    st.j(r, br, 1.0);
                }
                if let Some(r) = st.node_row(b) {
                    st.j(r, br, -1.0);
                }
                // Branch row: constitutive equation.
                match ctx.mode {
                    Mode::Dc => {
                        // Short circuit: v(a) − v(b) = 0.
                        st.f(br, sol.v(a) - sol.v(b));
                        if let Some(c) = st.node_row(a) {
                            st.j(br, c, 1.0);
                        }
                        if let Some(c) = st.node_row(b) {
                            st.j(br, c, -1.0);
                        }
                    }
                    Mode::Transient {
                        dt, backward_euler, ..
                    } => {
                        let (i_prev, v_prev) = match lin {
                            Some(s) => s.ind[idx],
                            None => (0.0, 0.0),
                        };
                        // v = req (i − i_prev) − v_hist
                        let (req, v_hist) = if backward_euler {
                            (henries / dt, 0.0)
                        } else {
                            (2.0 * henries / dt, v_prev)
                        };
                        let v = sol.v(a) - sol.v(b);
                        st.f(br, v - req * (i - i_prev) + v_hist);
                        if let Some(c) = st.node_row(a) {
                            st.j(br, c, 1.0);
                        }
                        if let Some(c) = st.node_row(b) {
                            st.j(br, c, -1.0);
                        }
                        st.j(br, br, -req);
                    }
                }
            }
            Element::VSource {
                p,
                m,
                ref wave,
                branch,
            } => {
                let br = branch_base + branch;
                let i = x[br];
                st.f_node(p, i);
                st.f_node(m, -i);
                if let Some(r) = st.node_row(p) {
                    st.j(r, br, 1.0);
                }
                if let Some(r) = st.node_row(m) {
                    st.j(r, br, -1.0);
                }
                let vs = wave.eval(ctx.time()) * ctx.source_scale;
                st.f(br, sol.v(p) - sol.v(m) - vs);
                if let Some(c) = st.node_row(p) {
                    st.j(br, c, 1.0);
                }
                if let Some(c) = st.node_row(m) {
                    st.j(br, c, -1.0);
                }
            }
            Element::ISource { from, to, ref wave } => {
                let i = wave.eval(ctx.time()) * ctx.source_scale;
                st.current(from, to, i);
            }
            Element::Vccs { op, om, cp, cm, gm } => {
                let i = gm * (sol.v(cp) - sol.v(cm));
                st.current(op, om, i);
                st.j_node(op, cp, gm);
                st.j_node(op, cm, -gm);
                st.j_node(om, cp, -gm);
                st.j_node(om, cm, gm);
            }
            Element::Vcvs {
                op,
                om,
                cp,
                cm,
                gain,
                branch,
            } => {
                let br = branch_base + branch;
                let i = x[br];
                st.f_node(op, i);
                st.f_node(om, -i);
                if let Some(r) = st.node_row(op) {
                    st.j(r, br, 1.0);
                }
                if let Some(r) = st.node_row(om) {
                    st.j(r, br, -1.0);
                }
                st.f(br, sol.v(op) - sol.v(om) - gain * (sol.v(cp) - sol.v(cm)));
                for (node, sign) in [(op, 1.0), (om, -1.0), (cp, -gain), (cm, gain)] {
                    if let Some(c) = st.node_row(node) {
                        st.j(br, c, sign);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Stamps Norton clamps that force `v(node) = value` during the t = 0 solve.
pub(crate) fn load_ic_clamps(clamps: &[(NodeId, f64)], x: &[f64], st: &mut Stamper) {
    let sol = Solution::new(x);
    for &(node, value) in clamps {
        if node.is_ground() {
            continue;
        }
        let g = IC_CLAMP_SIEMENS;
        st.f_node(node, g * (sol.v(node) - value));
        st.j_node(node, node, g);
    }
}

/// Assembles the full system (linear elements, devices, solver stamps) at
/// candidate `x`, with section attribution for non-finite detection.
///
/// Device loads go through the circuit's batch plan unless
/// [`SolveProfile::scalar_device_eval`] pins the one-at-a-time loop or no
/// device is batchable: every chunk is gathered, the linear elements are
/// stamped, every chunk is evaluated (part of them on the eval helper,
/// see [`crate::par`]), and then every device stamps in global order —
/// scattering its lane or loading itself. Gather and evaluation stamp
/// nothing, so the stamp-call sequence, and with it the assembled system,
/// is bitwise the same on every path and at every eval-thread budget.
/// The caller's own time in gather, eval (claiming and waiting) and
/// scatter is attributed to [`SolverStats::device_eval_ns`]; linear
/// stamping is not.
///
/// [`SolveProfile::scalar_device_eval`]:
///     crate::profile::SolveProfile::scalar_device_eval
/// [`SolverStats::device_eval_ns`]: crate::stats::SolverStats::device_eval_ns
fn assemble(
    ckt: &Circuit,
    x: &[f64],
    ctx: &LoadContext,
    st: &mut Stamper,
    scratch: &mut Vec<Mutex<EvalBatch>>,
    lin: Option<&LinearState>,
    ic_clamps: Option<&[(NodeId, f64)]>,
) -> Result<()> {
    st.clear();
    st.set_section(StampSection::Linear);
    let devices = ckt.devices();
    let sol = Solution::new(x);
    let plan = if crate::profile::current().scalar_device_eval {
        None
    } else {
        ckt.batch_plan()
    };
    match plan {
        Some(plan) => {
            scratch.resize_with(plan.chunks.len(), Default::default);
            let gather_eval_ns = eval_chunks(plan, devices, &sol, ctx, scratch, || {
                load_linear(ckt, x, ctx, st, lin)
            })?;
            let scatter_start = Instant::now();
            for (i, dev) in devices.iter().enumerate() {
                st.set_section(StampSection::Device(i));
                match plan.membership[i] {
                    Some((c, lane)) => {
                        let batch = scratch[c].get_mut().unwrap_or_else(PoisonError::into_inner);
                        dev.batch_scatter(lane, batch, &sol, ctx, st);
                    }
                    None => dev.load(&sol, ctx, st),
                }
            }
            count(Counter::BatchedEvals, 1);
            count(
                Counter::DeviceEvalNs,
                gather_eval_ns + scatter_start.elapsed().as_nanos() as u64,
            );
        }
        None => {
            load_linear(ckt, x, ctx, st, lin)?;
            if !devices.is_empty() {
                let eval_start = Instant::now();
                for (i, dev) in devices.iter().enumerate() {
                    st.set_section(StampSection::Device(i));
                    dev.load(&sol, ctx, st);
                }
                count(
                    Counter::DeviceEvalNs,
                    eval_start.elapsed().as_nanos() as u64,
                );
            }
        }
    }
    st.set_section(StampSection::Solver);
    st.gmin_shunts(ctx.gmin, ckt.num_node_unknowns(), x);
    if let Some(clamps) = ic_clamps {
        load_ic_clamps(clamps, x, st);
    }
    Ok(())
}

/// Locks one chunk's columns. A poisoned lock only means a `batch_eval`
/// panicked mid-chunk; every gather clears the columns, so they are
/// valid either way.
fn lock(chunk: &Mutex<EvalBatch>) -> MutexGuard<'_, EvalBatch> {
    chunk.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Gathers every chunk of `plan` in order, runs `linear`, then evaluates
/// every chunk — shared with the eval helper when [`crate::par::evaluate`]
/// publishes the job to it. Returns the caller's nanoseconds in gather
/// and eval; `linear` is not counted.
fn eval_chunks(
    plan: &BatchPlan,
    devices: &[Box<dyn Device>],
    sol: &Solution<'_>,
    ctx: &LoadContext,
    scratch: &[Mutex<EvalBatch>],
    linear: impl FnOnce() -> Result<()>,
) -> Result<u64> {
    let eval = |c: usize| devices[plan.chunks[c].rep].batch_eval(ctx, &mut lock(&scratch[c]));
    let gather_start = Instant::now();
    let (gather_ns, eval_start) =
        crate::par::evaluate(&eval, plan.chunks.len(), plan.lanes, |job| {
            for (c, chunk) in plan.chunks.iter().enumerate() {
                let mut batch = lock(&scratch[c]);
                batch.clear();
                for &i in &chunk.members {
                    devices[i].batch_gather(sol, &mut batch);
                }
                // Reserve the output columns here so that `batch_eval`
                // never allocates, whichever thread runs it.
                let lanes = batch.lanes();
                for col in &mut batch.out {
                    col.reserve(lanes);
                }
                drop(batch);
                job.gathered();
            }
            let gather_ns = gather_start.elapsed().as_nanos() as u64;
            linear()?;
            Ok::<_, SpiceError>((gather_ns, Instant::now()))
        })?;
    Ok(gather_ns + eval_start.elapsed().as_nanos() as u64)
}

/// Maps a bare singular-matrix failure from the linear solver to a
/// [`SpiceError::SingularSystem`] naming the circuit unknown whose pivot
/// column collapsed.
fn attribute_singular(ckt: &Circuit, e: SpiceError, time: f64) -> SpiceError {
    match e {
        SpiceError::Numeric(NumericError::SingularMatrix { column, pivot }) => {
            SpiceError::SingularSystem {
                column,
                unknown: crate::guard::unknown_name(ckt, column),
                pivot,
                time,
            }
        }
        other => other,
    }
}

/// Post-solve KCL audit: re-assembles the residual at the converged point
/// and fails if any node row carries more than the configured tolerance in
/// amperes. A no-op unless [`crate::guard::kcl_tolerance`] is set.
fn kcl_audit(
    ckt: &Circuit,
    x: &[f64],
    ctx: &LoadContext,
    st: &mut Stamper,
    scratch: &mut Vec<Mutex<EvalBatch>>,
    lin: Option<&LinearState>,
    ic_clamps: Option<&[(NodeId, f64)]>,
) -> Result<()> {
    let Some(tol) = crate::guard::kcl_tolerance() else {
        return Ok(());
    };
    assemble(ckt, x, ctx, st, scratch, lin, ic_clamps)?;
    let nn = ckt.num_node_unknowns();
    let (worst, residual) =
        st.residual()
            .iter()
            .take(nn)
            .enumerate()
            .fold(
                (0, 0.0),
                |(wi, wv), (i, &v)| {
                    if v.abs() > wv {
                        (i, v.abs())
                    } else {
                        (wi, wv)
                    }
                },
            );
    if residual > tol {
        count(Counter::NonconvergenceEvents, 1);
        return Err(SpiceError::KclViolation {
            node: crate::guard::unknown_name(ckt, worst),
            residual,
            tol,
            time: ctx.time(),
        });
    }
    Ok(())
}

/// One full Newton solve of the circuit equations at the given context.
///
/// `x` enters as the initial guess and exits as the converged solution.
/// Returns the number of Newton iterations used.
pub(crate) fn newton_solve(
    ckt: &Circuit,
    x: &mut [f64],
    ctx: &LoadContext,
    opts: &NewtonOptions,
    lin: Option<&LinearState>,
    ic_clamps: Option<&[(NodeId, f64)]>,
    ws: &mut Workspace,
) -> Result<usize> {
    let n = x.len();
    let mut eff_opts = *opts;
    eff_opts.max_iter = crate::profile::current().effective_max_iter(eff_opts.max_iter);
    let opts = &eff_opts;
    let mut solver = NewtonSolver::new(*opts);
    if let Some(flag) = crate::budget::flag() {
        solver.attach_interrupt(flag);
    }
    // A circuit without nonlinear devices assembles a Jacobian that is a
    // pure function of this key (candidate `x`, time, and source scaling
    // move only the RHS), so the factorization can be bypassed when the
    // key repeats. Fault injection perturbs the matrix out-of-band and
    // disqualifies the bypass outright.
    let key = if ckt.devices().is_empty() && !crate::faults::active() {
        let (transient, dt_bits, backward_euler) = match ctx.mode {
            Mode::Dc => (false, 0, false),
            Mode::Transient {
                dt, backward_euler, ..
            } => (true, dt.to_bits(), backward_euler),
        };
        Some(JacobianKey {
            transient,
            dt_bits,
            backward_euler,
            gmin_bits: ctx.gmin.to_bits(),
            ic_clamps: ic_clamps.is_some(),
        })
    } else {
        None
    };
    let (st, scratch) = ws.parts(n);
    loop {
        // Budget poll: publishes the heartbeat and fails the solve with a
        // typed interrupt error if a deadline, cap, or cancellation
        // tripped. Inert unless a budget scope is installed.
        if let Err(e) = crate::budget::poll(ctx.time(), solver.iterations() as u64) {
            count(Counter::NewtonIterations, solver.iterations() as u64);
            return Err(e);
        }
        assemble(ckt, x, ctx, st, scratch, lin, ic_clamps)?;

        // Fault injection — inert (a thread-local load) unless a plan is
        // installed by a test or soak driver.
        match crate::faults::newton_fault() {
            None | Some(FaultKind::TimestepStorm) => {}
            Some(FaultKind::NanResidual) => {
                st.set_section(StampSection::Fault);
                st.f(crate::faults::singular_row(n), f64::NAN);
            }
            Some(FaultKind::SingularPivot) => {
                st.make_singular(crate::faults::singular_row(n));
            }
            Some(FaultKind::JacobianPerturb { relative }) => {
                st.scale_jacobian(|| crate::faults::perturb_factor(relative));
            }
        }

        // Health guard: a NaN/Inf stamped anywhere in this assembly fails
        // the solve with device and node attribution instead of reaching
        // the factorization.
        if let Some(note) = st.non_finite() {
            count(Counter::NewtonIterations, solver.iterations() as u64);
            count(Counter::NonconvergenceEvents, 1);
            return Err(crate::guard::non_finite_error(ckt, note, ctx.time()));
        }

        let solve_start = Instant::now();
        let solved = st.solve_with_key(key);
        count(
            Counter::LinearSolveNs,
            solve_start.elapsed().as_nanos() as u64,
        );
        let dx = match solved {
            Ok(dx) => dx,
            Err(e) => {
                count(Counter::NewtonIterations, solver.iterations() as u64);
                count(Counter::NonconvergenceEvents, 1);
                return Err(attribute_singular(ckt, e, ctx.time()));
            }
        };
        if !dx.iter().all(|v| v.is_finite()) {
            count(Counter::NewtonIterations, solver.iterations() as u64);
            count(Counter::NonconvergenceEvents, 1);
            return Err(SpiceError::NoConvergence {
                analysis: "newton",
                time: ctx.time(),
                detail: "non-finite Newton update".into(),
            });
        }
        match solver.apply_step(x, &dx) {
            NewtonStatus::Converged => {
                count(Counter::NewtonIterations, solver.iterations() as u64);
                kcl_audit(ckt, x, ctx, st, scratch, lin, ic_clamps)?;
                return Ok(solver.iterations());
            }
            NewtonStatus::Interrupted(kind) => {
                let pending = solver.iterations() as u64;
                count(Counter::NewtonIterations, pending);
                return Err(crate::budget::interrupted(kind, ctx.time(), 0));
            }
            NewtonStatus::Continue => {
                if solver.exhausted() {
                    count(Counter::NewtonIterations, solver.iterations() as u64);
                    count(Counter::NonconvergenceEvents, 1);
                    return Err(SpiceError::NoConvergence {
                        analysis: "newton",
                        time: ctx.time(),
                        detail: format!(
                            "no convergence after {} iterations (last |Δx| = {:.3e})",
                            solver.iterations(),
                            solver.last_update_norm()
                        ),
                    });
                }
            }
        }
    }
}
