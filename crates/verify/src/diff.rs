//! Differential testing: one deck, several solver configurations, one
//! answer.
//!
//! Three axes of the stack have independent implementations that must
//! agree on every deck in [`decks`]:
//!
//! * **Integration method** — trapezoidal vs backward Euler agree to
//!   within their integration-order error bound.
//! * **Matrix backend** — dense vs sparse LU (pinned through
//!   [`SolveProfile::matrix_backend`]) agree to linear-solver rounding.
//! * **Harness parallelism** — 1 thread vs N threads produce *bitwise
//!   identical* artifacts, because per-job seeding is derived from the
//!   spec, never from scheduling.
//!
//! A failure reports the first diverging node, time, and both values.
//!
//! [`SolveProfile::matrix_backend`]: nemscmos_spice::profile::SolveProfile

use nemscmos_devices::mosfet::{MosModel, Mosfet};
use nemscmos_harness::{HarnessError, JobSpec, Json, JsonCodec, RetryPolicy, Runner};
use nemscmos_spice::analysis::tran::{transient, IntegrationMethod, TranOptions};
use nemscmos_spice::circuit::Circuit;
use nemscmos_spice::element::NodeId;
use nemscmos_spice::profile::{self, MatrixBackend, SolveProfile};
use nemscmos_spice::result::TranResult;
use nemscmos_spice::waveform::Waveform;

use crate::compare::{Divergence, Tolerance};

/// A freshly built circuit plus the observed `(name, node)` pairs.
type BuiltDeck = (Circuit, Vec<(String, NodeId)>);

/// A named, reproducible test deck.
pub struct Deck {
    /// Deck name, used in reports and golden-snapshot paths.
    pub name: &'static str,
    /// Transient horizon (s).
    pub tstop: f64,
    build: fn() -> BuiltDeck,
}

impl Deck {
    /// Builds a fresh circuit plus the observed (name, node) pairs.
    pub fn build(&self) -> BuiltDeck {
        (self.build)()
    }
}

fn rc_ladder_pulse() -> BuiltDeck {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    ckt.vsource(
        inp,
        Circuit::GROUND,
        Waveform::pulse(0.0, 1.2, 0.2e-9, 50e-12, 50e-12, 1.0e-9, 2.4e-9),
    );
    let mut prev = inp;
    let mut watch = Vec::new();
    for i in 0..5 {
        let n = ckt.node(&format!("n{i}"));
        ckt.resistor(prev, n, 2e3);
        ckt.capacitor(n, Circuit::GROUND, 20e-15);
        prev = n;
        watch.push((format!("n{i}"), n));
    }
    (ckt, watch)
}

fn rlc_tank() -> BuiltDeck {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    let out = ckt.node("out");
    ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
    ckt.resistor(a, b, 50.0);
    ckt.inductor(b, out, 10e-9);
    ckt.capacitor(out, Circuit::GROUND, 1e-12);
    ckt.set_ic(out, 0.0);
    (ckt, vec![("out".into(), out)])
}

fn cmos_inverter() -> BuiltDeck {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.2));
    ckt.vsource(
        inp,
        Circuit::GROUND,
        Waveform::pulse(0.0, 1.2, 0.3e-9, 30e-12, 30e-12, 1.2e-9, 3.0e-9),
    );
    ckt.add_device(Mosfet::new("mp", MosModel::pmos_90nm(), out, inp, vdd, 2.0));
    ckt.add_device(Mosfet::new(
        "mn",
        MosModel::nmos_90nm(),
        out,
        inp,
        Circuit::GROUND,
        1.0,
    ));
    ckt.capacitor(out, Circuit::GROUND, 5e-15);
    (ckt, vec![("out".into(), out)])
}

fn nmos_cascade() -> BuiltDeck {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.2));
    ckt.vsource(
        inp,
        Circuit::GROUND,
        Waveform::pulse(0.0, 1.2, 0.2e-9, 40e-12, 40e-12, 1.0e-9, 2.4e-9),
    );
    let mut gate = inp;
    let mut watch = Vec::new();
    for i in 0..3 {
        let d = ckt.node(&format!("d{i}"));
        ckt.resistor(vdd, d, 20e3);
        ckt.add_device(Mosfet::new(
            format!("m{i}"),
            MosModel::nmos_90nm(),
            d,
            gate,
            Circuit::GROUND,
            1.0,
        ));
        ckt.capacitor(d, Circuit::GROUND, 2e-15);
        watch.push((format!("d{i}"), d));
        gate = d;
    }
    (ckt, watch)
}

fn wide_rc_ladder() -> BuiltDeck {
    // 80 ladder nodes: above the stamper's dense limit, so the *default*
    // backend here is sparse and the dense override is the unusual path.
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    ckt.vsource(
        inp,
        Circuit::GROUND,
        Waveform::step(0.0, 1.0, 0.1e-9, 50e-12),
    );
    let mut prev = inp;
    let mut watch = Vec::new();
    for i in 0..80 {
        let n = ckt.node(&format!("w{i}"));
        ckt.resistor(prev, n, 500.0);
        ckt.capacitor(n, Circuit::GROUND, 5e-15);
        if i % 16 == 15 {
            watch.push((format!("w{i}"), n));
        }
        prev = n;
    }
    (ckt, watch)
}

fn diode_charge() -> BuiltDeck {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let d = ckt.node("d");
    ckt.vsource(
        vdd,
        Circuit::GROUND,
        Waveform::step(0.0, 1.2, 0.1e-9, 50e-12),
    );
    ckt.resistor(vdd, d, 50e3);
    ckt.add_device(Mosfet::new(
        "md",
        MosModel::nmos_90nm(),
        d,
        d,
        Circuit::GROUND,
        1.0,
    ));
    ckt.capacitor(d, Circuit::GROUND, 10e-15);
    (ckt, vec![("d".into(), d)])
}

/// The differential test fleet: six decks spanning linear RC/RLC,
/// nonlinear MOSFET stages, and a ladder wide enough to cross the
/// dense/sparse backend threshold.
pub fn decks() -> Vec<Deck> {
    vec![
        Deck {
            name: "rc-ladder-pulse",
            tstop: 2.0e-9,
            build: rc_ladder_pulse,
        },
        Deck {
            name: "rlc-tank",
            tstop: 4.0e-9,
            build: rlc_tank,
        },
        Deck {
            name: "cmos-inverter",
            tstop: 2.5e-9,
            build: cmos_inverter,
        },
        Deck {
            name: "nmos-cascade",
            tstop: 2.0e-9,
            build: nmos_cascade,
        },
        Deck {
            name: "wide-rc-ladder",
            tstop: 1.5e-9,
            build: wide_rc_ladder,
        },
        Deck {
            name: "diode-charge",
            tstop: 2.0e-9,
            build: diode_charge,
        },
    ]
}

fn run_deck(deck: &Deck, opts: &TranOptions) -> (TranResult, Vec<(String, NodeId)>) {
    let (mut ckt, watch) = deck.build();
    let res = transient(&mut ckt, deck.tstop, opts)
        .unwrap_or_else(|e| panic!("deck `{}` failed: {e}", deck.name));
    (res, watch)
}

/// Compares two runs of a deck node-by-node on a uniform sample grid.
fn compare_runs(
    deck: &Deck,
    a: &(TranResult, Vec<(String, NodeId)>),
    b: &(TranResult, Vec<(String, NodeId)>),
    tol_of_scale: impl Fn(f64) -> Tolerance,
) -> Result<(), Divergence> {
    const SAMPLES: usize = 201;
    for (name, node) in &a.1 {
        let ta = a.0.voltage(*node);
        let tb = b.0.voltage(*node);
        let scale = ta.max_value().abs().max(ta.min_value().abs()).max(1e-6);
        let tol = tol_of_scale(scale);
        for k in 0..SAMPLES {
            let t = deck.tstop * k as f64 / (SAMPLES - 1) as f64;
            let va = ta.eval(t);
            let vb = tb.eval(t);
            if !tol.within(va, vb) {
                return Err(Divergence {
                    node: name.clone(),
                    time: t,
                    got: va,
                    reference: vb,
                    bound: tol.band(vb),
                });
            }
        }
    }
    Ok(())
}

/// Trapezoidal and backward Euler must agree within the lower method's
/// integration-order error bound.
///
/// # Errors
///
/// The first diverging (node, time) pair.
pub fn trap_vs_be(deck: &Deck) -> Result<(), Divergence> {
    let trap = run_deck(
        deck,
        &TranOptions {
            method: IntegrationMethod::Trapezoidal,
            ..Default::default()
        },
    );
    let be = run_deck(
        deck,
        &TranOptions {
            method: IntegrationMethod::BackwardEuler,
            ..Default::default()
        },
    );
    // Backward Euler is first order: the controller holds each step's
    // LTE near `lte_tol`, so the accumulated divergence stays within a
    // few percent of the signal scale.
    compare_runs(deck, &trap, &be, |scale| Tolerance::new(0.03 * scale, 0.03))
}

/// Dense and sparse LU must agree to linear-solver rounding, pinned via
/// the thread-local solve profile.
///
/// # Errors
///
/// The first diverging (node, time) pair.
pub fn dense_vs_sparse(deck: &Deck) -> Result<(), Divergence> {
    let pin = |backend| SolveProfile {
        matrix_backend: Some(backend),
        ..Default::default()
    };
    let dense = profile::with(pin(MatrixBackend::Dense), || {
        run_deck(deck, &TranOptions::default())
    });
    let sparse = profile::with(pin(MatrixBackend::Sparse), || {
        run_deck(deck, &TranOptions::default())
    });
    // Different pivot orders perturb each solve at rounding level; the
    // adaptive controller can amplify that slightly, but agreement must
    // stay far below any physical scale.
    compare_runs(deck, &dense, &sparse, |scale| {
        Tolerance::new(1e-6 * scale, 1e-6)
    })
}

/// The fill-reducing column ordering must not change what the sparse
/// solver computes, only how much fill it creates doing so. Both sides
/// pin the sparse backend and set [`SolveProfile::ordering_limit`]: the
/// natural side to `Some(usize::MAX)`, which disables the ordering, the
/// ordered side to `Some(0)`, which forces it on every deck (the goldens
/// are all below the size threshold).
///
/// Unlike `fast_vs_slow` this is a tolerance comparison, not a byte
/// comparison: permuting the elimination order changes the partial-pivot
/// sequence, so the two factorizations round differently at the last
/// ulp and the adaptive controller can amplify that slightly.
///
/// # Errors
///
/// The first diverging (node, time) pair.
///
/// [`SolveProfile::ordering_limit`]: nemscmos_spice::profile::SolveProfile::ordering_limit
pub fn ordered_vs_natural(deck: &Deck) -> Result<(), Divergence> {
    let natural = profile::with(
        SolveProfile {
            matrix_backend: Some(MatrixBackend::Sparse),
            ordering_limit: Some(usize::MAX),
            ..Default::default()
        },
        || run_deck(deck, &TranOptions::default()),
    );
    let ordered = profile::with(
        SolveProfile {
            matrix_backend: Some(MatrixBackend::Sparse),
            ordering_limit: Some(0),
            ..Default::default()
        },
        || run_deck(deck, &TranOptions::default()),
    );
    compare_runs(deck, &natural, &ordered, |scale| {
        Tolerance::new(1e-6 * scale, 1e-6)
    })
}

/// The incremental linear-algebra fast path (pattern-frozen assembly,
/// symbolic LU reuse, linear-circuit bypass) must be *bitwise identical*
/// to the from-scratch path it replaces: the rendered JSON snapshot of
/// every deck must not change by a single byte when the fast path is
/// disabled via [`SolveProfile::legacy_linear_algebra`].
///
/// # Errors
///
/// A message naming the deck and the rendered sizes when the artifacts
/// differ.
///
/// [`SolveProfile::legacy_linear_algebra`]: nemscmos_spice::profile::SolveProfile::legacy_linear_algebra
pub fn fast_vs_slow(deck: &Deck) -> Result<(), String> {
    let fast = snapshot_json(deck).render();
    let slow = profile::with(
        SolveProfile {
            legacy_linear_algebra: true,
            ..Default::default()
        },
        || snapshot_json(deck).render(),
    );
    if fast != slow {
        return Err(format!(
            "deck `{}` differs between the fast and legacy linear-algebra \
             paths ({} vs {} rendered bytes)",
            deck.name,
            fast.len(),
            slow.len()
        ));
    }
    Ok(())
}

/// The structure-of-arrays batched device-evaluation path must be
/// *bitwise identical* to the one-instance-at-a-time path it replaces:
/// the rendered JSON snapshot of every deck must not change by a single
/// byte when batching is disabled via
/// [`SolveProfile::scalar_device_eval`].
///
/// # Errors
///
/// A message naming the deck and the rendered sizes when the artifacts
/// differ.
///
/// [`SolveProfile::scalar_device_eval`]: nemscmos_spice::profile::SolveProfile::scalar_device_eval
pub fn batched_vs_scalar(deck: &Deck) -> Result<(), String> {
    let batched = snapshot_json(deck).render();
    let scalar = profile::with(
        SolveProfile {
            scalar_device_eval: true,
            ..Default::default()
        },
        || snapshot_json(deck).render(),
    );
    if batched != scalar {
        return Err(format!(
            "deck `{}` differs between the batched and scalar device-eval \
             paths ({} vs {} rendered bytes)",
            deck.name,
            batched.len(),
            scalar.len()
        ));
    }
    Ok(())
}

/// [`batched_vs_scalar`] with a seeded fault plan installed identically
/// around both runs: a mild Jacobian perturbation keeps the residual
/// exact (so both paths still converge to the true solution) while
/// forcing extra Newton iterations through the fault machinery. Both
/// paths must see the identical fault stream and produce byte-identical
/// snapshots.
///
/// # Errors
///
/// A message naming the deck when the faulted artifacts differ.
pub fn batched_vs_scalar_faulted(deck: &Deck, seed: u64) -> Result<(), String> {
    use nemscmos_spice::faults::{self, Disarm, FaultKind, FaultPlan};
    let plan = FaultPlan::immediate(
        FaultKind::JacobianPerturb { relative: 1e-4 },
        Disarm::AfterTriggers(5),
        seed,
    );
    let batched = faults::with(plan, || snapshot_json(deck).render());
    let scalar = profile::with(
        SolveProfile {
            scalar_device_eval: true,
            ..Default::default()
        },
        || faults::with(plan, || snapshot_json(deck).render()),
    );
    if batched != scalar {
        return Err(format!(
            "deck `{}` (fault seed {seed}) differs between the batched and \
             scalar device-eval paths ({} vs {} rendered bytes)",
            deck.name,
            batched.len(),
            scalar.len()
        ));
    }
    Ok(())
}

/// A deck's waveforms rendered as canonical JSON (times plus one value
/// array per observed node), decimated to a fixed grid so artifacts are
/// small and digest-stable.
pub fn snapshot_json(deck: &Deck) -> Json {
    const SAMPLES: usize = 101;
    let (res, watch) = run_deck(deck, &TranOptions::default());
    let grid: Vec<f64> = (0..SAMPLES)
        .map(|k| deck.tstop * k as f64 / (SAMPLES - 1) as f64)
        .collect();
    let mut fields = vec![
        ("deck".to_string(), Json::Str(deck.name.to_string())),
        (
            "times".to_string(),
            Json::Arr(grid.iter().map(|&t| Json::Num(t)).collect()),
        ),
    ];
    for (name, node) in &watch {
        let tr = res.voltage(*node);
        fields.push((
            format!("v({name})"),
            Json::Arr(grid.iter().map(|&t| Json::Num(tr.eval(t))).collect()),
        ));
    }
    Json::Obj(fields)
}

/// Opaque JSON artifact for harness jobs (`run` needs a codec).
#[derive(Debug, Clone, PartialEq)]
struct Artifact(Json);

impl JsonCodec for Artifact {
    fn to_json(&self) -> Json {
        self.0.clone()
    }
    fn from_json(v: &Json) -> Option<Artifact> {
        Some(Artifact(v.clone()))
    }
}

fn render_fleet(threads: usize) -> Result<Vec<String>, HarnessError> {
    let fleet = decks();
    let jobs: Vec<JobSpec> = fleet
        .iter()
        .map(|d| JobSpec::new(d.name, format!("verify-diff v1 deck={}", d.name)))
        .collect();
    let runner = Runner::with_config(threads, None, RetryPolicy::default());
    let out = runner.run("verify-thread-identity", &jobs, |i, _attempt| {
        Ok(Artifact(snapshot_json(&fleet[i])))
    })?;
    Ok(out.into_iter().map(|a| a.0.render()).collect())
}

/// Runs every deck through the harness with 1 thread and with
/// `threads`, and demands bitwise-identical rendered artifacts.
///
/// # Errors
///
/// The name of the first deck whose artifacts differ, or a harness
/// error.
pub fn thread_identity(threads: usize) -> Result<(), String> {
    let serial = render_fleet(1).map_err(|e| format!("serial run failed: {e}"))?;
    let parallel = render_fleet(threads).map_err(|e| format!("parallel run failed: {e}"))?;
    for ((deck, a), b) in decks().iter().zip(&serial).zip(&parallel) {
        if a != b {
            return Err(format!(
                "deck `{}` differs between 1 and {threads} harness threads \
                 ({} vs {} rendered bytes)",
                deck.name,
                a.len(),
                b.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_has_at_least_five_decks() {
        assert!(decks().len() >= 5);
    }

    #[test]
    fn wide_ladder_crosses_dense_limit() {
        let (mut ckt, _) = decks()
            .iter()
            .find(|d| d.name == "wide-rc-ladder")
            .unwrap()
            .build();
        assert!(ckt.num_unknowns() > 64);
    }
}
