//! Property tests of the batched SoA device-evaluation path, running on
//! the vendored `nemscmos_numeric::check` runner.
//!
//! Two layers:
//!
//! * a stamp-level property that rebuilds the engine's batch plan by hand
//!   over random mixed device lists (several MOSFET cards, NEMFETs in
//!   both hysteresis states, a `DynamicNemfet` with internal unknowns)
//!   and asserts the gather → eval → scatter pipeline reproduces the
//!   scalar `load` loop's Jacobian/residual push sequence bit for bit;
//! * an end-to-end property that runs random NEMS+MOS stage chains
//!   through op → transient → `reset_device_state` → op, once as built
//!   and once with every device wrapped in [`Unbatched`] (no batch key,
//!   so each loads through the scalar `load`), comparing every sampled
//!   voltage bitwise — including decks whose gate drives cross
//!   `v_pull_in`, exercising the discrete pull-in re-solve and the
//!   commit/reset state machine. It runs on the default (dense) backend
//!   and again pinned to the frozen, ordered sparse path, where lanes
//!   write straight into their resolved CSC slots. A NEMFET's contact
//!   state changes values only, never the Jacobian pattern, so some
//!   chains also carry a keyless [`PatternSwitch`], whose committed state
//!   does change the pattern and drives the thaw / re-freeze /
//!   re-resolve path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use nemscmos_devices::mosfet::{MosModel, Mosfet, Polarity, HIGH_VT_SHIFT};
use nemscmos_devices::nemfet::{DynamicNemfet, MechanicalParams, Nemfet, NemsModel};
use nemscmos_mems::dynamics::ActuatorDynamics;
use nemscmos_mems::electrostatics::Actuator;
use nemscmos_numeric::check::{check, Config, Draws};
use nemscmos_numeric::prop_check;
use nemscmos_spice::analysis::op::op;
use nemscmos_spice::analysis::tran::{transient, TranOptions};
use nemscmos_spice::circuit::Circuit;
use nemscmos_spice::device::{Device, EvalBatch, Lane, LoadContext, Solution};
use nemscmos_spice::element::NodeId;
use nemscmos_spice::profile::{self, MatrixBackend, SolveProfile};
use nemscmos_spice::stamp::{StampSection, Stamper};
use nemscmos_spice::stats;
use nemscmos_spice::waveform::Waveform;

/// Non-ground nodes available to the random device lists.
const NODES: usize = 5;

fn mech() -> MechanicalParams {
    let act = Actuator::from_parameters(1.0, 0.2e-12, 20e-9, 5e-9, 7.5);
    let dynamics = ActuatorDynamics::new(act, 4e-14, 2e-7);
    MechanicalParams::from_dynamics(&dynamics)
}

/// Mints `NODES` non-ground node ids (node ids are plain indices, so a
/// throwaway circuit is the supported way to obtain them).
fn node_ids() -> Vec<NodeId> {
    let mut ckt = Circuit::new();
    let mut ids = vec![NodeId::GROUND];
    for k in 0..NODES {
        ids.push(ckt.node(&format!("n{k}")));
    }
    ids
}

/// One random device in a stamp-level case.
#[derive(Debug, Clone)]
enum DevSpec {
    /// EKV MOSFET drawn from one of four model cards.
    Mos {
        card: usize,
        w: f64,
        d: usize,
        g: usize,
        s: usize,
    },
    /// Quasi-static NEMFET, optionally committed into contact.
    Nems {
        nmos: bool,
        w: f64,
        d: usize,
        g: usize,
        s: usize,
        pulled_in: bool,
    },
    /// Dynamic NEMFET: two internal unknowns, no batch key.
    Dyn {
        w: f64,
        d: usize,
        g: usize,
        s: usize,
    },
}

fn mos_card(card: usize) -> MosModel {
    match card {
        0 => MosModel::nmos_90nm(),
        1 => MosModel::pmos_90nm(),
        2 => MosModel::nmos_90nm().with_vth_shift(HIGH_VT_SHIFT),
        _ => MosModel::pmos_90nm().with_vth_shift(HIGH_VT_SHIFT),
    }
}

fn dev_spec(d: &mut Draws) -> DevSpec {
    let w = d.f64_in(0.2, 6.0);
    let dn = d.usize_in(0, NODES);
    // Keep the gate off ground (and distinct from the source) so a
    // `pulled_in` NEMFET can actually be committed into contact.
    let g = d.usize_in(1, NODES);
    let mut s = d.usize_in(0, NODES);
    if s == g {
        s = 0;
    }
    match d.usize_in(0, 7) {
        0..=3 => DevSpec::Mos {
            card: d.usize_in(0, 3),
            w,
            d: dn,
            g,
            s,
        },
        4..=6 => DevSpec::Nems {
            nmos: d.bool(),
            w,
            d: dn,
            g,
            s,
            pulled_in: d.bool(),
        },
        _ => DevSpec::Dyn { w, d: dn, g, s },
    }
}

/// Builds the boxed device list, assigning internal-unknown bases past the
/// node block exactly as circuit freeze would, and committing `pulled_in`
/// NEMFETs into contact through the public `commit` path.
fn build_devices(specs: &[DevSpec], ids: &[NodeId]) -> (Vec<Box<dyn Device>>, usize) {
    let ctx = LoadContext::dc(0.0);
    let mut devices: Vec<Box<dyn Device>> = Vec::new();
    let mut base = NODES;
    for (k, spec) in specs.iter().enumerate() {
        match *spec {
            DevSpec::Mos { card, w, d, g, s } => devices.push(Box::new(Mosfet::new(
                format!("m{k}"),
                mos_card(card),
                ids[d],
                ids[g],
                ids[s],
                w,
            ))),
            DevSpec::Nems {
                nmos,
                w,
                d,
                g,
                s,
                pulled_in,
            } => {
                let pol = if nmos { Polarity::Nmos } else { Polarity::Pmos };
                let mut dev = Nemfet::new(
                    format!("x{k}"),
                    NemsModel::nems_90nm(pol),
                    ids[d],
                    ids[g],
                    ids[s],
                    w,
                );
                if pulled_in {
                    // Drive the gate past v_pull_in (sign-corrected for
                    // P-type) and commit a DC point: contact is immediate.
                    let mut x = vec![0.0; NODES];
                    x[g - 1] = if nmos { 2.0 } else { -2.0 };
                    assert!(dev.commit(&Solution::new(&x), &ctx));
                    assert!(dev.is_pulled_in());
                }
                devices.push(Box::new(dev));
            }
            DevSpec::Dyn { w, d, g, s } => {
                let mut dev = DynamicNemfet::new(
                    format!("xd{k}"),
                    NemsModel::nems_90nm(Polarity::Nmos),
                    mech(),
                    ids[d],
                    ids[g],
                    ids[s],
                    w,
                );
                dev.set_internal_base(base);
                base += 2;
                devices.push(Box::new(dev));
            }
        }
    }
    (devices, base)
}

/// Random unknown vector: volt-scale node voltages, then per dynamic
/// device a displacement inside the gap and a modest velocity (keeping
/// every electrostatic force evaluation finite).
fn unknown_vector(specs: &[DevSpec], n: usize, d: &mut Draws) -> Vec<f64> {
    let gap = mech().gap;
    let mut x = vec![0.0; n];
    for v in x.iter_mut().take(NODES) {
        *v = d.f64_in(-1.2, 1.2);
    }
    let mut at = NODES;
    for spec in specs {
        if let DevSpec::Dyn { .. } = spec {
            x[at] = d.f64_in(0.0, 0.8 * gap);
            x[at + 1] = d.f64_in(-0.5, 0.5);
            at += 2;
        }
    }
    x
}

/// Stamps every device through the scalar `load` loop, returning the raw
/// push-ordered Jacobian triplets (bit-patterns) and the residual.
fn scalar_stamps(
    devices: &[Box<dyn Device>],
    x: &[f64],
    n: usize,
) -> (Vec<(usize, usize, u64)>, Vec<u64>) {
    let ctx = LoadContext::dc(0.0);
    let sol = Solution::new(x);
    let mut st = Stamper::new(n);
    for (i, dev) in devices.iter().enumerate() {
        st.set_section(StampSection::Device(i));
        dev.load(&sol, &ctx, &mut st);
    }
    collect(&st)
}

/// Rebuilds the engine's batch plan by hand (first-seen key order, lane =
/// arrival order within a batch) and stamps through each device's lane
/// description: gather → shared eval → the per-push route, falling back
/// to `load` for keyless devices.
fn batched_stamps(
    devices: &[Box<dyn Device>],
    x: &[f64],
    n: usize,
) -> (Vec<(usize, usize, u64)>, Vec<u64>) {
    let ctx = LoadContext::dc(0.0);
    let sol = Solution::new(x);
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut membership: Vec<Option<(usize, usize)>> = vec![None; devices.len()];
    let mut index: HashMap<u64, usize> = HashMap::new();
    for (i, dev) in devices.iter().enumerate() {
        if let Some(key) = dev.batch_key() {
            let b = *index.entry(key).or_insert_with(|| {
                batches.push(Vec::new());
                batches.len() - 1
            });
            membership[i] = Some((b, batches[b].len()));
            batches[b].push(i);
        }
    }
    let lanes: Vec<Option<Lane>> = devices.iter().map(|dev| dev.lane()).collect();
    let mut scratch: Vec<EvalBatch> = Vec::new();
    scratch.resize_with(batches.len(), EvalBatch::new);
    for (b, members) in batches.iter().enumerate() {
        let batch = &mut scratch[b];
        batch.clear();
        for &i in members {
            lanes[i]
                .as_ref()
                .expect("keyed devices describe a lane")
                .gather(&sol, batch);
        }
        devices[members[0]].batch_eval(&ctx, batch);
    }
    let mut st = Stamper::new(n);
    for (i, dev) in devices.iter().enumerate() {
        st.set_section(StampSection::Device(i));
        match (membership[i], &lanes[i]) {
            (Some((b, lane)), Some(desc)) => desc.stamp(&scratch[b], lane, &mut st),
            _ => dev.load(&sol, &ctx, &mut st),
        }
    }
    collect(&st)
}

fn collect(st: &Stamper) -> (Vec<(usize, usize, u64)>, Vec<u64>) {
    let jac = st
        .jacobian_entries()
        .into_iter()
        .map(|(r, c, v)| (r, c, v.to_bits()))
        .collect();
    let res = st.residual().iter().map(|v| v.to_bits()).collect();
    (jac, res)
}

/// Batch partitioning preserves each instance's stamp push order: over
/// random mixed device lists the manually orchestrated batched pipeline
/// reproduces the scalar loop's raw triplet stream bit for bit.
#[test]
fn batched_pipeline_matches_scalar_push_order() {
    let ids = node_ids();
    // Pin the sparse backend: its triplet store keeps duplicate entries
    // unsummed in push order, so equality of `jacobian_entries` is
    // equality of the entire stamp-call sequence, not just of the sums.
    let pin = SolveProfile {
        matrix_backend: Some(MatrixBackend::Sparse),
        ..Default::default()
    };
    check(
        "batched pipeline matches scalar push order",
        &Config::with_cases(48),
        |d| {
            let specs = d.vec_of(1, 12, dev_spec);
            let n = NODES
                + 2 * specs
                    .iter()
                    .filter(|s| matches!(s, DevSpec::Dyn { .. }))
                    .count();
            let x = unknown_vector(&specs, n, d);
            (specs, x)
        },
        |(specs, x)| {
            let (devices, n) = build_devices(specs, &ids);
            let (scalar_jac, scalar_res) = profile::with(pin, || scalar_stamps(&devices, x, n));
            let (batch_jac, batch_res) = profile::with(pin, || batched_stamps(&devices, x, n));
            prop_check!(
                scalar_jac.len() == batch_jac.len(),
                "triplet streams diverge in length: {} scalar vs {} batched",
                scalar_jac.len(),
                batch_jac.len()
            );
            for (k, (a, b)) in scalar_jac.iter().zip(&batch_jac).enumerate() {
                prop_check!(
                    a == b,
                    "triplet {k} differs: scalar ({}, {}, {:#018x}) vs batched ({}, {}, {:#018x})",
                    a.0,
                    a.1,
                    a.2,
                    b.0,
                    b.1,
                    b.2
                );
            }
            prop_check!(scalar_res == batch_res, "residual vectors differ bitwise");
            Ok(())
        },
    );
}

/// The batch plan itself is well-formed: keyed devices group by exact key
/// in first-seen order, keys never straddle batches, and internal-unknown
/// devices (no key) always fall through to scalar `load`.
#[test]
fn batch_partition_groups_by_key_and_leaves_dynamics_scalar() {
    let ids = node_ids();
    check(
        "batch partition groups by key",
        &Config::with_cases(48),
        |d| d.vec_of(1, 12, dev_spec),
        |specs| {
            let (devices, _) = build_devices(specs, &ids);
            let mut first_batch: HashMap<u64, usize> = HashMap::new();
            let mut batch_count = 0usize;
            for (i, dev) in devices.iter().enumerate() {
                let key = dev.batch_key();
                match (&specs[i], key) {
                    (DevSpec::Dyn { .. }, None) => {}
                    (DevSpec::Dyn { .. }, Some(_)) => {
                        return Err(format!("dynamic NEMFET {i} unexpectedly batchable"))
                    }
                    (_, None) => return Err(format!("device {i} lost its batch key")),
                    (_, Some(k)) => {
                        first_batch.entry(k).or_insert_with(|| {
                            batch_count += 1;
                            batch_count - 1
                        });
                    }
                }
            }
            // Same card + same device kind ⇒ same key; different kind over
            // the same card (NEMFET contact vs plain MOSFET) ⇒ different
            // key, thanks to the type tag folded into the hash.
            for (i, a) in specs.iter().enumerate() {
                for (j, b) in specs.iter().enumerate().skip(i + 1) {
                    let (ka, kb) = (devices[i].batch_key(), devices[j].batch_key());
                    match (a, b) {
                        (DevSpec::Mos { card: ca, .. }, DevSpec::Mos { card: cb, .. }) => {
                            prop_check!(
                                (ca == cb) == (ka == kb),
                                "MOSFETs {i}/{j} with cards {ca}/{cb} got keys {ka:?}/{kb:?}"
                            );
                        }
                        (DevSpec::Mos { .. }, DevSpec::Nems { .. })
                        | (DevSpec::Nems { .. }, DevSpec::Mos { .. }) => {
                            prop_check!(
                                ka != kb,
                                "MOSFET and NEMFET share batch key {ka:?} at {i}/{j}"
                            );
                        }
                        (DevSpec::Nems { nmos: na, .. }, DevSpec::Nems { nmos: nb, .. }) => {
                            // Pull-in state is a lane constant, never in
                            // the key: same polarity ⇒ same batch.
                            prop_check!(
                                (na == nb) == (ka == kb),
                                "NEMFETs {i}/{j} (nmos {na}/{nb}) got keys {ka:?}/{kb:?}"
                            );
                        }
                        _ => {}
                    }
                }
            }
            Ok(())
        },
    );
}

/// One random stage of the end-to-end chain.
#[derive(Debug, Clone)]
struct StageSpec {
    /// NEMFET pull-down (true) or MOSFET pull-down (false).
    nems: bool,
    /// High-V_t card variant for the MOSFET stages.
    high_vt: bool,
    w: f64,
    r_load: f64,
}

/// A random resistor-loaded pull-down chain plus its drive shape.
#[derive(Debug, Clone)]
struct CktSpec {
    stages: Vec<StageSpec>,
    /// Drive level; spans `v_pull_in` = 0.5 V in both directions.
    v_hi: f64,
    /// DC drive (exercises the pull-in re-solve inside `op`) vs a step
    /// (exercises the dwell-gated transient transition).
    step: bool,
    /// Whether the chain carries a [`PatternSwitch`] on the drive.
    switch: bool,
}

fn ckt_spec(d: &mut Draws) -> CktSpec {
    CktSpec {
        stages: d.vec_of(1, 3, |d| StageSpec {
            nems: d.bool(),
            high_vt: d.bool(),
            w: d.f64_in(0.5, 4.0),
            r_load: d.f64_in(5e3, 100e3),
        }),
        v_hi: d.f64_in(0.1, 1.2),
        step: d.bool(),
        switch: d.bool(),
    }
}

/// A keyless device whose committed state changes the Jacobian pattern:
/// a leak from `a` to ground plus, only while on, a current `G_ON ·
/// v(ctrl)` out of `a`, whose one extra Jacobian entry is `(a, ctrl)`.
/// It turns on when a commit sees `v(ctrl)` at or above
/// [`PatternSwitch::THRESHOLD`], and off below it. On the frozen sparse
/// path every flip thaws the pattern, so the next solve re-freezes and
/// every lane re-resolves.
#[derive(Debug)]
struct PatternSwitch {
    a: NodeId,
    ctrl: NodeId,
    on: bool,
}

impl PatternSwitch {
    const THRESHOLD: f64 = 0.5;
    const G_LEAK: f64 = 1e-9;
    const G_ON: f64 = 1e-6;
}

impl Device for PatternSwitch {
    fn name(&self) -> &str {
        "sw"
    }
    fn load(&self, x: &Solution<'_>, _ctx: &LoadContext, st: &mut Stamper) {
        st.conductance(self.a, NodeId::GROUND, Self::G_LEAK, x.v(self.a), 0.0);
        if self.on {
            st.f_node(self.a, Self::G_ON * x.v(self.ctrl));
            st.j_node(self.a, self.ctrl, Self::G_ON);
        }
    }
    fn commit(&mut self, x: &Solution<'_>, _ctx: &LoadContext) -> bool {
        let on = x.v(self.ctrl) >= Self::THRESHOLD;
        std::mem::replace(&mut self.on, on) != on
    }
    fn reset_state(&mut self) {
        self.on = false;
    }
}

/// Forwards every [`Device`] method to the wrapped device except the
/// batching hooks, which keep their defaults (no key, no lane): the
/// engine's batch plan leaves the instance out of every chunk, so it
/// loads through the scalar [`Device::load`] — the reference side of the
/// end-to-end properties.
#[derive(Debug)]
struct Unbatched<D: Device>(D);

impl<D: Device> Device for Unbatched<D> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn num_internal(&self) -> usize {
        self.0.num_internal()
    }
    fn set_internal_base(&mut self, base: usize) {
        self.0.set_internal_base(base);
    }
    fn load(&self, x: &Solution<'_>, ctx: &LoadContext, st: &mut Stamper) {
        self.0.load(x, ctx, st);
    }
    fn commit(&mut self, x: &Solution<'_>, ctx: &LoadContext) -> bool {
        self.0.commit(x, ctx)
    }
    fn reset_state(&mut self) {
        self.0.reset_state();
    }
    fn initial_guess(&self, x: &mut [f64]) {
        self.0.initial_guess(x);
    }
}

/// Adds `dev` to `ckt`, wrapped in [`Unbatched`] when asked.
fn add<D: Device + 'static>(ckt: &mut Circuit, dev: D, unbatched: bool) {
    if unbatched {
        ckt.add_device(Unbatched(dev));
    } else {
        ckt.add_device(dev);
    }
}

fn build_chain(spec: &CktSpec, unbatched: bool) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let drive = ckt.node("in");
    ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.2));
    let wave = if spec.step {
        Waveform::step(0.0, spec.v_hi, 2e-9, 0.2e-9)
    } else {
        Waveform::dc(spec.v_hi)
    };
    ckt.vsource(drive, Circuit::GROUND, wave);
    if spec.switch {
        // First in the device list, so every lane stamps behind the
        // entry it adds or drops.
        ckt.add_device(PatternSwitch {
            a: vdd,
            ctrl: drive,
            on: false,
        });
    }
    let mut gate = drive;
    let mut outs = vec![drive];
    for (k, stage) in spec.stages.iter().enumerate() {
        let out = ckt.node(&format!("out{k}"));
        ckt.resistor(vdd, out, stage.r_load);
        if stage.nems {
            let dev = Nemfet::new(
                format!("x{k}"),
                NemsModel::nems_90nm(Polarity::Nmos),
                out,
                gate,
                Circuit::GROUND,
                stage.w,
            );
            add(&mut ckt, dev, unbatched);
        } else {
            let card = if stage.high_vt {
                MosModel::nmos_90nm().with_vth_shift(HIGH_VT_SHIFT)
            } else {
                MosModel::nmos_90nm()
            };
            let dev = Mosfet::new(format!("m{k}"), card, out, gate, Circuit::GROUND, stage.w);
            add(&mut ckt, dev, unbatched);
        }
        outs.push(out);
        gate = out;
    }
    (ckt, outs)
}

/// Runs op → transient → `reset_device_state` → op on a fresh chain
/// (every device [`Unbatched`] when asked) and flattens every sampled
/// voltage to its bit pattern. Solver errors are folded into the output
/// so both eval paths must fail identically too.
fn run_chain(spec: &CktSpec, unbatched: bool) -> Result<Vec<u64>, String> {
    let (mut ckt, outs) = build_chain(spec, unbatched);
    let mut bits = Vec::new();
    let first = op(&mut ckt).map_err(|e| format!("first op: {e:?}"))?;
    for &n in &outs {
        bits.push(first.voltage(n).to_bits());
    }
    let opts = TranOptions {
        dt_init: Some(0.2e-9),
        dt_max: Some(0.5e-9),
        ..Default::default()
    };
    let tr = transient(&mut ckt, 8e-9, &opts).map_err(|e| format!("transient: {e:?}"))?;
    for &n in &outs {
        for v in tr.voltage(n).values() {
            bits.push(v.to_bits());
        }
    }
    // Reset releases every beam; the closing op must re-run the discrete
    // pull-in fixpoint from scratch in both eval paths.
    ckt.reset_device_state();
    let last = op(&mut ckt).map_err(|e| format!("final op: {e:?}"))?;
    for &n in &outs {
        bits.push(last.voltage(n).to_bits());
    }
    Ok(bits)
}

/// Runs `spec` as built and with every device [`Unbatched`], and checks
/// that the two trajectories are bitwise equal and that only the built
/// side batched. Returns the built side's solver effort.
fn compare_chain(spec: &CktSpec) -> Result<stats::SolverStats, String> {
    let (fast, batched) = stats::measure(|| run_chain(spec, false));
    let (slow, unbatched) = stats::measure(|| run_chain(spec, true));
    prop_check!(
        batched.batched_evals > 0 && unbatched.batched_evals == 0,
        "batched evals: {} as built, {} unbatched",
        batched.batched_evals,
        unbatched.batched_evals
    );
    prop_check!(
        fast == slow,
        "trajectories diverge between eval paths: fast {:?}… vs slow {:?}…",
        fast.as_ref().map(|b| b.len()),
        slow.as_ref().map(|b| b.len())
    );
    Ok(batched)
}

/// End to end, batched devices and their [`Unbatched`] twins produce
/// bitwise-identical trajectories across op, transient, and post-reset
/// re-solve — including drives that cross `v_pull_in` and flip the
/// discrete NEMFET state mid-analysis.
///
/// Each case runs twice: on the default backend (the chains are far below
/// the dense limit) and pinned to the frozen, ordered sparse path, where
/// lanes written straight into their resolved CSC slots must stamp
/// bitwise what `load` stamps push by push. There every case resolves its
/// lanes; a case without a [`PatternSwitch`] never sends a lane back to
/// the per-push route, NEMFET pull-in crossings included, and switch
/// flips make some cases thaw, re-freeze and re-resolve.
#[test]
fn batched_and_scalar_trajectories_are_bitwise_identical() {
    let sparse = SolveProfile {
        matrix_backend: Some(MatrixBackend::Sparse),
        ordering_limit: Some(0),
        ..Default::default()
    };
    let rethawed = AtomicUsize::new(0);
    check(
        "batched and scalar trajectories are bitwise identical",
        &Config::with_cases(24),
        ckt_spec,
        |spec| {
            compare_chain(spec)?;
            let frozen = profile::with(sparse, || compare_chain(spec))?;
            prop_check!(
                frozen.resolved_lanes > 0,
                "no lane was written through its resolved slots: {frozen:?}"
            );
            if spec.switch {
                if frozen.thaws > 0 {
                    rethawed.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                prop_check!(
                    frozen.lane_fallbacks == 0,
                    "{} lanes fell back to the per-push route: {frozen:?}",
                    frozen.lane_fallbacks
                );
            }
            Ok(())
        },
    );
    assert!(
        rethawed.load(Ordering::Relaxed) > 0,
        "no case flipped a pattern switch on the frozen sparse path"
    );
}
