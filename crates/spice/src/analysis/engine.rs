//! Shared assembly and Newton machinery used by every analysis.

use nemscmos_numeric::newton::{NewtonOptions, NewtonSolver, NewtonStatus};
use nemscmos_numeric::NumericError;

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::circuit::{BatchPlan, Circuit};
use crate::device::{stamp_lane, Device, EvalBatch, LaneStamp, LoadContext, Mode, Solution};
use crate::element::{Element, NodeId};
use crate::faults::FaultKind;
use crate::stamp::{JacobianKey, LaneTape, StampSection, Stamper};
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
    lanes: LaneScratch,
}

/// The device-lane state [`assemble`] keeps across assemblies.
#[derive(Debug, Default)]
struct LaneScratch {
    /// Structure-of-arrays gather/eval columns, one per chunk of the
    /// batch plan, reused across assemblies so the steady state allocates
    /// nothing. The mutex lets the eval helper fill a chunk the caller
    /// has gathered.
    chunks: Vec<Mutex<EvalBatch>>,
    /// The batch plan's lanes resolved against the current frozen
    /// pattern.
    slots: LaneSlots,
}

impl Workspace {
    pub(crate) fn new() -> Workspace {
        Workspace::default()
    }

    /// The cached stamper for `n` unknowns — recreated when the dimension,
    /// backend or ordering choice changed — plus the batch scratch
    /// columns and lane slots, split-borrowed so assembly can use both.
    fn parts(&mut self, n: usize) -> (&mut Stamper, &mut LaneScratch) {
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
            &mut self.lanes,
        )
    }
}

/// Where one lane's stamps landed on the table's frozen pattern.
#[derive(Debug, Clone, Copy)]
struct SlotLane {
    /// The tape position of the lane's first push, or
    /// [`SlotLane::UNRESOLVED`].
    pos: u32,
    /// The lane's first entry in [`LaneSlots::ops`] (its first stamp in
    /// the plan's layout).
    start: u32,
    /// Resolved residual rows, then CSC slots.
    residuals: u16,
    entries: u16,
    /// The contact bit the lane was resolved with.
    closed: bool,
}

impl SlotLane {
    const UNRESOLVED: u32 = u32::MAX;
}

/// One resolved stamp: the residual row or CSC slot it adds to, and the
/// stage position of its value, with [`SlotOp::NEG`] set when the value
/// is negated.
#[derive(Debug, Clone, Copy, Default)]
struct SlotOp {
    target: u32,
    src: u32,
}

impl SlotOp {
    const NEG: u32 = 1 << 31;
}

/// Every batched lane's stamps resolved to the CSC slots and residual
/// rows of one frozen pattern (see [`crate::stamp`]).
///
/// A lane's resolved stamps sit at its plan stamp offset, residual rows
/// first, then Jacobian slots, each in push order (only the order within
/// each target array matters for the sums). Their values are read from
/// `stage`, into which an assembly that writes through the table first
/// copies every batch column a lane stamp reads, chunk after chunk, so
/// that a resolved stamp is one load, one sign flip and one add.
#[derive(Debug, Default)]
struct LaneSlots {
    /// The freeze every resolved lane belongs to.
    freeze: u64,
    lanes: Vec<SlotLane>,
    ops: Vec<SlotOp>,
    /// Per chunk: where its columns start in `stage`.
    stage_base: Vec<u32>,
    stage: Vec<f64>,
    /// Whether `stage` holds this assembly's values (`Some(false)`: a
    /// staged value is not finite). Reset by every assembly.
    staged: Option<bool>,
}

/// How a lane's record compares with the tape it is about to stamp.
enum SlotMatch {
    /// Resolved at this position of this freeze, with this contact bit.
    Hit,
    /// Not resolved on this freeze: this assembly resolves it.
    Unresolved,
    /// Resolved on this freeze, but elsewhere on the tape or with the
    /// other contact bit.
    Moved,
}

impl LaneSlots {
    /// Sizes the table for `plan`, forgetting every resolution when the
    /// layout changed, and marks the stage stale. Called by every
    /// assembly on a frozen pattern.
    fn fit(&mut self, plan: &BatchPlan) {
        self.staged = None;
        if self.lanes.len() == plan.lanes && self.ops.len() == plan.stamps.len() {
            return;
        }
        self.freeze = 0;
        self.lanes = plan.stamp_start[..plan.lanes]
            .iter()
            .map(|&start| SlotLane {
                pos: SlotLane::UNRESOLVED,
                start,
                residuals: 0,
                entries: 0,
                closed: false,
            })
            .collect();
        self.ops = vec![SlotOp::default(); plan.stamps.len()];
        let mut base = 0usize;
        self.stage_base = plan
            .chunks
            .iter()
            .map(|chunk| {
                let at = base;
                base += chunk.sources.count_ones() as usize * chunk.len;
                u32::try_from(at).expect("stage fits u32")
            })
            .collect();
        assert!(base < SlotOp::NEG as usize, "stage fits 31 bits");
        self.stage = vec![0.0; base];
    }

    #[inline]
    fn check(&mut self, g: usize, freeze: u64, pos: usize, closed: bool) -> SlotMatch {
        if self.freeze != freeze {
            // A new freeze: every resolution belongs to an older one.
            self.freeze = freeze;
            for lane in &mut self.lanes {
                lane.pos = SlotLane::UNRESOLVED;
            }
        }
        let lane = &self.lanes[g];
        if lane.pos as usize == pos && lane.closed == closed {
            SlotMatch::Hit
        } else if lane.pos == SlotLane::UNRESOLVED {
            SlotMatch::Unresolved
        } else {
            SlotMatch::Moved
        }
    }

    /// Copies every column a lane stamp reads into the stage, once per
    /// assembly. Returns whether every copied value is finite (an
    /// unfilled column counts as not finite).
    fn stage(&mut self, plan: &BatchPlan, scratch: &mut [Mutex<EvalBatch>]) -> bool {
        if let Some(ok) = self.staged {
            return ok;
        }
        let mut ok = true;
        for ((chunk, batch), &base) in plan.chunks.iter().zip(scratch).zip(&self.stage_base) {
            let batch = batch.get_mut().unwrap_or_else(PoisonError::into_inner);
            let mut at = base as usize;
            for k in (0..16).filter(|&k| chunk.sources & 1 << k != 0) {
                let col = batch.column(k);
                ok &= col.len() == chunk.len && col.iter().all(|v| v.is_finite());
                if !ok {
                    break;
                }
                self.stage[at..at + chunk.len].copy_from_slice(col);
                at += chunk.len;
            }
        }
        self.staged = Some(ok);
        ok
    }

    /// Writes lane `g` straight into its resolved slots from the stage:
    /// the same additions, in the same order per slot and row, as its
    /// per-push route.
    #[inline]
    fn write(&self, g: usize, tape: LaneTape<'_>) {
        let lane = self.lanes[g];
        let ops = &self.ops[lane.start as usize..][..(lane.residuals + lane.entries) as usize];
        let (residuals, entries) = ops.split_at(lane.residuals as usize);
        // The value of a resolved stamp, negated by flipping the sign
        // bit exactly as `-v` does.
        let value = |op: &SlotOp| {
            let v = self.stage[(op.src & !SlotOp::NEG) as usize];
            f64::from_bits(v.to_bits() ^ u64::from(op.src & SlotOp::NEG) << 32)
        };
        for op in residuals {
            tape.rhs[op.target as usize] += value(op);
        }
        for op in entries {
            tape.values[op.target as usize] += value(op);
        }
        *tape.cursor += lane.entries as usize;
    }

    /// Records where lane `g` of `plan` landed: the residual rows of its
    /// active `stamps` (contact `closed`), and `slots`, the CSC slots of
    /// its Jacobian pushes from tape position `pos`.
    fn resolve(
        &mut self,
        plan: &BatchPlan,
        g: usize,
        stamps: &[LaneStamp],
        closed: bool,
        pos: usize,
        slots: &[u32],
    ) {
        let (c, l) = plan.chunk_lane(g);
        let chunk = &plan.chunks[c];
        let stage_of = |s: &LaneStamp| {
            let k = s.src & LaneStamp::COLUMN;
            let rank = (chunk.sources & ((1u16 << k) - 1)).count_ones() as usize;
            let at = self.stage_base[c] as usize + rank * chunk.len + l;
            at as u32
                | if s.src & LaneStamp::NEG != 0 {
                    SlotOp::NEG
                } else {
                    0
                }
        };
        let active = || stamps.iter().filter(move |s| s.active(closed));
        let residuals = active().filter(|s| s.col == LaneStamp::RESIDUAL);
        let entries = active().filter(|s| s.col != LaneStamp::RESIDUAL);
        let (Ok(n_res), Ok(n_ent)) = (
            u16::try_from(residuals.clone().count()),
            u16::try_from(slots.len()),
        ) else {
            return; // too many stamps to record: the lane stays per-push
        };
        debug_assert_eq!(entries.clone().count(), slots.len());
        let targets = residuals
            .clone()
            .map(|s| s.row)
            .chain(slots.iter().copied());
        let lane = &mut self.lanes[g];
        for (k, (s, target)) in residuals.chain(entries).zip(targets).enumerate() {
            self.ops[lane.start as usize + k] = SlotOp {
                target,
                src: stage_of(s),
            };
        }
        *lane = SlotLane {
            pos: u32::try_from(pos).unwrap_or(SlotLane::UNRESOLVED),
            residuals: n_res,
            entries: n_ent,
            closed,
            ..*lane
        };
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
/// Devices load through the circuit's batch plan: every chunk is
/// gathered, the linear elements are stamped, every chunk is evaluated
/// (part of them on the eval helper, see [`crate::par`]), and then every
/// device stamps in global order — its lane, or itself through
/// [`Device::load`] when it has none. On a frozen pattern a lane resolved
/// at its tape position writes straight into its CSC slots; every other
/// lane takes the per-push route and, on a frozen pattern, is resolved
/// for the next assembly (see [`crate::stamp`]). Gather and evaluation
/// stamp nothing, so the stamp-call sequence, and with it the assembled
/// system, is bitwise the same at every eval-thread budget and on either
/// route. The caller's time in the device section (gather, eval claiming
/// and waiting, stamping) is attributed to
/// [`SolverStats::device_eval_ns`]: one bracket around the section minus
/// the linear stamping inside it, which goes to
/// [`SolverStats::linear_stamp_ns`]. A circuit without devices reads no
/// clock.
///
/// [`SolverStats::device_eval_ns`]: crate::stats::SolverStats::device_eval_ns
/// [`SolverStats::linear_stamp_ns`]: crate::stats::SolverStats::linear_stamp_ns
fn assemble(
    ckt: &Circuit,
    x: &[f64],
    ctx: &LoadContext,
    st: &mut Stamper,
    lanes: &mut LaneScratch,
    lin: Option<&LinearState>,
    ic_clamps: Option<&[(NodeId, f64)]>,
) -> Result<()> {
    st.clear();
    st.set_section(StampSection::Linear);
    let devices = ckt.devices();
    if devices.is_empty() {
        load_linear(ckt, x, ctx, st, lin)?;
    } else {
        let plan = ckt.batch_plan();
        let sol = Solution::new(x);
        let LaneScratch {
            chunks: scratch,
            slots,
        } = lanes;
        scratch.resize_with(plan.chunks.len(), Default::default);
        // Only a frozen pattern needs the slot table; the backend cannot
        // become frozen during the assembly.
        if st.lane_tape().is_some() {
            slots.fit(plan);
        }
        let start = Instant::now();
        let linear_ns = eval_chunks(plan, devices, x, ctx, scratch, || {
            let linear_start = Instant::now();
            load_linear(ckt, x, ctx, st, lin)?;
            Ok(linear_start.elapsed().as_nanos() as u64)
        })?;
        let (mut resolved, mut fallbacks) = (0, 0);
        for (i, dev) in devices.iter().enumerate() {
            let g = plan.device_lane[i];
            if g == BatchPlan::NO_LANE {
                st.set_section(StampSection::Device(i));
                dev.load(&sol, ctx, st);
                continue;
            }
            let g = g as usize;
            let closed = plan.closed[g];
            let mut resolve_at = None;
            if let Some(tape) = st.lane_tape() {
                let (freeze, pos) = (tape.freeze, *tape.cursor);
                match slots.check(g, freeze, pos, closed) {
                    SlotMatch::Hit => {
                        if slots.stage(plan, scratch) {
                            slots.write(g, tape);
                            resolved += 1;
                            continue;
                        }
                        fallbacks += 1;
                    }
                    SlotMatch::Unresolved => {}
                    SlotMatch::Moved => fallbacks += 1,
                }
                resolve_at = Some((freeze, pos));
            }
            let (c, l) = plan.chunk_lane(g);
            let batch = scratch[c].get_mut().unwrap_or_else(PoisonError::into_inner);
            let stamps = plan.lane_stamps(g);
            st.set_section(StampSection::Device(i));
            stamp_lane(stamps, closed, batch, l, st);
            if let Some((freeze, pos)) = resolve_at {
                if let Some(tape) = st.tape_slots(freeze, pos) {
                    slots.resolve(plan, g, stamps, closed, pos, tape);
                }
            }
        }
        if plan.lanes > 0 {
            count(Counter::BatchedEvals, 1);
            count(Counter::ResolvedLanes, resolved);
            count(Counter::LaneFallbacks, fallbacks);
        }
        count(Counter::LinearStampNs, linear_ns);
        count(
            Counter::DeviceEvalNs,
            start.elapsed().as_nanos() as u64 - linear_ns,
        );
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
/// publishes the job to it. Returns what `linear` returns: the
/// nanoseconds it spent stamping.
fn eval_chunks(
    plan: &BatchPlan,
    devices: &[Box<dyn Device>],
    x: &[f64],
    ctx: &LoadContext,
    scratch: &[Mutex<EvalBatch>],
    linear: impl FnOnce() -> Result<u64>,
) -> Result<u64> {
    let eval = |c: usize| devices[plan.chunks[c].rep].batch_eval(ctx, &mut lock(&scratch[c]));
    crate::par::evaluate(&eval, plan.chunks.len(), plan.lanes, |job| {
        for (c, chunk) in plan.chunks.iter().enumerate() {
            chunk.gather(x, &plan.closed, &mut lock(&scratch[c]));
            job.gathered();
        }
        linear()
    })
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
    lanes: &mut LaneScratch,
    lin: Option<&LinearState>,
    ic_clamps: Option<&[(NodeId, f64)]>,
) -> Result<()> {
    let Some(tol) = crate::guard::kcl_tolerance() else {
        return Ok(());
    };
    assemble(ckt, x, ctx, st, lanes, lin, ic_clamps)?;
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
    let (st, lanes) = ws.parts(n);
    loop {
        // Budget poll: publishes the heartbeat and fails the solve with a
        // typed interrupt error if a deadline, cap, or cancellation
        // tripped. Inert unless a budget scope is installed.
        if let Err(e) = crate::budget::poll(ctx.time(), solver.iterations() as u64) {
            count(Counter::NewtonIterations, solver.iterations() as u64);
            return Err(e);
        }
        assemble(ckt, x, ctx, st, lanes, lin, ic_clamps)?;

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
                kcl_audit(ckt, x, ctx, st, lanes, lin, ic_clamps)?;
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
