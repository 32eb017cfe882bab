//! Eval/solve attribution counters: `device_eval_ns` and `batched_evals`
//! must be exactly zero on decks without devices (the device section is
//! never entered, so no timestamp is ever taken), nonzero where batched
//! device work actually happens, and — for devices without a batch key —
//! zero batched passes while their load time is still attributed. A
//! sparse device deck must also engage the incremental linear-algebra
//! fast path: slot-cache hits, symbolic LU reuses, and no more refactor
//! fallbacks than factorizations; a dense one must replay its compiled
//! refactor.

use nemscmos_spice::analysis::op::op;
use nemscmos_spice::analysis::tran::{transient, TranOptions};
use nemscmos_spice::circuit::Circuit;
use nemscmos_spice::device::{
    batch_key_word, Col, Device, EvalBatch, Lane, LoadContext, Solution, BATCH_KEY_SEED,
};
use nemscmos_spice::element::NodeId;
use nemscmos_spice::stamp::Stamper;
use nemscmos_spice::stats;
use nemscmos_spice::waveform::Waveform;

/// A minimal nonlinear shunt: i = k·v² to ground, batchable (a key and
/// a lane) when `keyed`.
#[derive(Debug)]
struct SquareLaw {
    node: NodeId,
    k: f64,
    keyed: bool,
}

impl Device for SquareLaw {
    fn name(&self) -> &str {
        "squarelaw"
    }
    fn load(&self, x: &Solution<'_>, _ctx: &LoadContext, st: &mut Stamper) {
        let v = x.v(self.node);
        st.nonlinear_current(
            self.node,
            NodeId::GROUND,
            self.k * v * v,
            &[(self.node, 2.0 * self.k * v)],
        );
    }
    fn commit(&mut self, _x: &Solution<'_>, _ctx: &LoadContext) -> bool {
        false
    }
    fn reset_state(&mut self) {}
    fn batch_key(&self) -> Option<u64> {
        self.keyed
            .then(|| batch_key_word(BATCH_KEY_SEED, self.k.to_bits()))
    }
    fn lane(&self) -> Option<Lane> {
        let mut lane = Lane::new();
        lane.voltage(self.node);
        lane.nonlinear_current(
            self.node,
            NodeId::GROUND,
            Col::Out(0),
            &[(self.node, Col::Out(1))],
        );
        self.keyed.then_some(lane)
    }
    fn batch_eval(&self, _ctx: &LoadContext, batch: &mut EvalBatch) {
        for &v in &batch.vin[0] {
            batch.out[0].push(self.k * v * v);
            batch.out[1].push(2.0 * self.k * v);
        }
    }
}

/// Driven RC with a square-law shunt: nonlinear, so every Newton
/// iteration runs the device section and a real factorization.
fn device_deck() -> Circuit {
    shunt_deck(true)
}

/// [`device_deck`] with its two shunts batchable only when `keyed`.
fn shunt_deck(keyed: bool) -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource(vin, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
    ckt.resistor(vin, out, 1e3);
    ckt.capacitor(out, Circuit::GROUND, 1e-9);
    for _ in 0..2 {
        ckt.add_device(SquareLaw {
            node: out,
            k: 1e-3,
            keyed,
        });
    }
    ckt
}

/// Same deck minus the devices: the linear-bypass fast path.
fn linear_deck() -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource(vin, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
    ckt.resistor(vin, out, 1e3);
    ckt.capacitor(out, Circuit::GROUND, 1e-9);
    ckt
}

fn tran_opts() -> TranOptions {
    TranOptions {
        dt_init: Some(2e-9),
        dt_max: Some(10e-9),
        ..Default::default()
    }
}

#[test]
fn device_decks_attribute_both_eval_and_solve_time() {
    let mut ckt = device_deck();
    let (_, spent) = stats::measure(|| transient(&mut ckt, 1e-6, &tran_opts()).unwrap());
    assert!(spent.newton_iterations > 0);
    // Hundreds of iterations, each bracketed by two monotonic-clock reads
    // per section: zero accumulated time would mean the bracket vanished.
    assert!(
        spent.device_eval_ns > 0,
        "eval time: {}",
        spent.device_eval_ns
    );
    assert!(
        spent.linear_solve_ns > 0,
        "solve time: {}",
        spent.linear_solve_ns
    );
    // Both instances share a batch key, so every assembly goes batched:
    // at least one batched pass per Newton iteration.
    assert!(
        spent.batched_evals >= spent.newton_iterations,
        "batched {} vs newton {}",
        spent.batched_evals,
        spent.newton_iterations
    );
}

#[test]
fn linear_decks_record_zero_device_attribution() {
    let mut ckt = linear_deck();
    let (_, spent) = stats::measure(|| transient(&mut ckt, 1e-6, &tran_opts()).unwrap());
    assert!(spent.newton_iterations > 0);
    assert_eq!(spent.device_eval_ns, 0, "no devices, no eval time");
    assert_eq!(spent.batched_evals, 0);
    // The factorization may be bypassed, but the back-substitution still
    // runs inside the timed solve bracket every iteration.
    assert!(
        spent.linear_solve_ns > 0,
        "solve time: {}",
        spent.linear_solve_ns
    );
    assert!(spent.bypass_solves > 0, "linear bypass engaged");
}

#[test]
fn keyless_devices_skip_batching_but_not_attribution() {
    let mut ckt = shunt_deck(false);
    let (_, spent) = stats::measure(|| transient(&mut ckt, 1e-6, &tran_opts()).unwrap());
    assert!(spent.newton_iterations > 0);
    assert_eq!(spent.batched_evals, 0, "no batch key, no batched pass");
    // The eval/solve brackets time the section whether its devices
    // scatter batch lanes or load themselves.
    assert!(spent.device_eval_ns > 0);
    assert!(spent.linear_solve_ns > 0);
}

#[test]
fn sparse_device_ladder_engages_the_incremental_fast_path() {
    // A driven RC ladder with a square-law shunt on every rung: well past
    // the dense limit (64 unknowns), and nonlinear, so every Newton
    // iteration assembles and factors a sparse Jacobian of one pattern.
    let rungs = 80;
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.vsource(vin, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
    let mut prev = vin;
    for k in 0..rungs {
        let node = ckt.node(&format!("n{k}"));
        ckt.resistor(prev, node, 1e3);
        ckt.capacitor(node, Circuit::GROUND, 1e-12);
        ckt.add_device(SquareLaw {
            node,
            k: 1e-4,
            keyed: true,
        });
        prev = node;
    }
    ckt.validate().unwrap();
    assert!(ckt.num_unknowns() > 64, "{} unknowns", ckt.num_unknowns());
    let opts = TranOptions {
        dt_max: Some(0.5e-9),
        ..Default::default()
    };
    let (_, spent) = stats::measure(|| transient(&mut ckt, 10e-9, &opts).unwrap());
    assert!(spent.slot_cache_hits > 0, "slot-cache hits: {spent:?}");
    assert!(spent.symbolic_reuses > 0, "symbolic reuses: {spent:?}");
    assert!(
        spent.refactor_fallbacks <= spent.lu_factorizations,
        "fallbacks {} vs factorizations {}",
        spent.refactor_fallbacks,
        spent.lu_factorizations
    );
}

#[test]
fn dense_device_deck_replays_its_refactor() {
    // Three unknowns, well inside the dense limit: every Newton
    // iteration after the first refactors a dense Jacobian of one
    // pattern, which the compiled schedule replays.
    let mut ckt = device_deck();
    let (_, spent) = stats::measure(|| transient(&mut ckt, 1e-6, &tran_opts()).unwrap());
    assert_eq!(spent.slot_cache_hits, 0, "dense decks have no slot map");
    assert!(spent.symbolic_reuses > 0, "symbolic reuses: {spent:?}");
    assert!(
        spent.refactor_fallbacks <= spent.lu_factorizations,
        "fallbacks {} vs factorizations {}",
        spent.refactor_fallbacks,
        spent.lu_factorizations
    );
}

#[test]
fn op_on_a_device_deck_batches_every_assembly() {
    let mut ckt = device_deck();
    let (_, spent) = stats::measure(|| op(&mut ckt).unwrap());
    assert!(spent.newton_iterations > 0);
    assert!(
        spent.batched_evals >= spent.newton_iterations,
        "batched {} vs newton {}",
        spent.batched_evals,
        spent.newton_iterations
    );
    assert!(spent.device_eval_ns > 0, "op evals must be timed");
}
