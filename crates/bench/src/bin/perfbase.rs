//! `perfbase` — wall-clock benchmark baselines of the solver.
//!
//! ```sh
//! cargo run --release -p nemscmos-bench --bin perfbase -- \
//!     [--iters N] [--out PATH] [--smoke] [--scaling]
//! ```
//!
//! **Default mode** times every deck of the verify differential fleet
//! plus a domino (dynamic OR) fan-in sweep twice: once with every
//! optimization disabled — [`SolveProfile::legacy_linear_algebra`] plus
//! [`SolveProfile::scalar_device_eval`], the exact pre-fast-path code
//! paths — and once on the default profile (pattern-frozen assembly,
//! symbolic LU reuse, linear-circuit bypass, batched SoA device
//! evaluation). Both runs use this same driver, so the before/after
//! numbers are directly comparable, and the differential suites
//! guarantee the paths produce bitwise-identical results. Writes the
//! measurements (wall-clock min/median per deck, speedup, the fast-path
//! counter deltas including fill and ordering attribution) as canonical
//! JSON to `--out` (default `BENCH_9.json`).
//!
//! **`--scaling`** sweeps the `nemscmos-gen` generated circuit families
//! — SRAM arrays from 4×4 up to 64×64 (tens to thousands of unknowns)
//! and wide domino fanout trees — extracting each deck's DC Jacobian
//! and measuring, on the *same matrix*: minimum-degree ordering time,
//! natural-order vs ordered factorization time and fill (nnz(L+U)),
//! ordered refactor-replay time, and solve residuals for both paths.
//! SRAM decks then run a full transient under the default profile to
//! prove the end-to-end path holds at scale. Writes the curve to
//! `--out` (default `BENCH_10.json`, committed at the repo root).
//!
//! `--smoke` runs a reduced pass without writing the baseline file and
//! asserts the machinery actually engaged. In default mode: symbolic
//! reuses and slot-cache hits observed, batched evaluation engaged and
//! bitwise-identical to the scalar path, fallback count sane, legacy
//! runs clean of fast-path counters. With `--scaling`: the two smallest
//! SRAM sizes plus one domino tree, asserting the ordering never
//! worsens fill, both factorizations solve to small residual, and the
//! transient records fill/ordering attribution. `ci.sh` runs both
//! smoke modes.
//!
//! [`SolveProfile::legacy_linear_algebra`]: nemscmos_spice::profile::SolveProfile::legacy_linear_algebra
//! [`SolveProfile::scalar_device_eval`]: nemscmos_spice::profile::SolveProfile::scalar_device_eval

use std::process::ExitCode;
use std::time::Instant;

use nemscmos::gates::{DynamicOrGate, DynamicOrParams, PdnStyle};
use nemscmos::gen::{DominoTreeGen, GenDeck, SramArrayGen};
use nemscmos::tech::Technology;
use nemscmos_bench::cli::Cli;
use nemscmos_harness::{Json, JsonCodec};
use nemscmos_numeric::sparse::{min_degree, CscMatrix, SparseLu};
use nemscmos_spice::analysis::probe::dc_jacobian;
use nemscmos_spice::analysis::tran::{transient, TranOptions};
use nemscmos_spice::analysis::OpOptions;
use nemscmos_spice::profile::{self, SolveProfile};
use nemscmos_spice::stats::{self, SolverStats};
use nemscmos_verify::diff;

/// One benchmark workload: a named closure that builds its circuit
/// fresh and runs one full transient.
struct Workload {
    name: String,
    unknowns: usize,
    run: Box<dyn Fn()>,
}

fn verify_deck_workloads() -> Vec<Workload> {
    diff::decks()
        .into_iter()
        .map(|deck| {
            let (ckt, _) = deck.build();
            let unknowns = {
                let mut c = ckt;
                c.validate().expect("verify deck validates");
                c.num_unknowns()
            };
            Workload {
                name: format!("verify:{}", deck.name),
                unknowns,
                run: Box::new(move || {
                    let (mut ckt, _) = deck.build();
                    transient(&mut ckt, deck.tstop, &TranOptions::default())
                        .unwrap_or_else(|e| panic!("deck `{}` failed: {e}", deck.name));
                }),
            }
        })
        .collect()
}

fn domino_workload(fan_in: usize, fan_out: usize) -> Workload {
    let tech = Technology::n90();
    let params = DynamicOrParams::new(fan_in, fan_out, PdnStyle::HybridNems);
    let unknowns = {
        let mut built = DynamicOrGate::build(&tech, &params);
        built.circuit.validate().expect("domino deck validates");
        built.circuit.num_unknowns()
    };
    Workload {
        name: format!("domino:or{fan_in}-fo{fan_out}"),
        unknowns,
        run: Box::new(move || {
            let mut built = DynamicOrGate::build(&tech, &params);
            let opts = TranOptions {
                dt_max: Some(built.period / 400.0),
                ..Default::default()
            };
            transient(&mut built.circuit, built.period, &opts)
                .unwrap_or_else(|e| panic!("domino or{fan_in} failed: {e}"));
        }),
    }
}

/// Wall-clock samples of `iters` runs (after one warm-up), in seconds.
fn time_runs(iters: usize, f: &dyn Fn()) -> Vec<f64> {
    f(); // warm-up
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples
}

fn legacy_profile() -> SolveProfile {
    SolveProfile {
        legacy_linear_algebra: true,
        scalar_device_eval: true,
        ..Default::default()
    }
}

struct Measurement {
    name: String,
    unknowns: usize,
    legacy_s: Vec<f64>,
    fast_s: Vec<f64>,
    legacy_stats: SolverStats,
    fast_stats: SolverStats,
}

/// Fraction of attributed Newton time spent in the device-eval section
/// (0 when nothing was attributed, i.e. device-free decks).
fn eval_share(st: &SolverStats) -> f64 {
    let total = st.device_eval_ns + st.linear_solve_ns;
    if total == 0 {
        0.0
    } else {
        st.device_eval_ns as f64 / total as f64
    }
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.legacy_s[0] / self.fast_s[0].max(1e-12)
    }

    fn to_json(&self) -> Json {
        let ms = |s: &[f64], k: usize| Json::Num(s[k.min(s.len() - 1)] * 1e3);
        let counters = |st: &SolverStats| {
            let Json::Obj(mut fields) = st.to_json() else {
                unreachable!("SolverStats encodes as an object")
            };
            fields.push(("eval_share".into(), Json::Num(eval_share(st))));
            Json::Obj(fields)
        };
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("unknowns".into(), Json::Int(self.unknowns as i64)),
            ("legacy_ms_min".into(), ms(&self.legacy_s, 0)),
            (
                "legacy_ms_median".into(),
                ms(&self.legacy_s, self.legacy_s.len() / 2),
            ),
            ("fast_ms_min".into(), ms(&self.fast_s, 0)),
            (
                "fast_ms_median".into(),
                ms(&self.fast_s, self.fast_s.len() / 2),
            ),
            ("speedup".into(), Json::Num(self.speedup())),
            ("legacy_counters".into(), counters(&self.legacy_stats)),
            ("fast_counters".into(), counters(&self.fast_stats)),
        ])
    }
}

fn measure(w: &Workload, iters: usize) -> Measurement {
    // Counter deltas from one dedicated run per path, outside the timed
    // samples so instrumentation reads never skew the wall clock.
    let ((), legacy_stats) = profile::with(legacy_profile(), || stats::measure(|| (w.run)()));
    let ((), fast_stats) = stats::measure(|| (w.run)());
    let legacy_s = profile::with(legacy_profile(), || time_runs(iters, &w.run));
    let fast_s = time_runs(iters, &w.run);
    println!(
        "{:<28} n={:<3} legacy {:>8.2} ms  fast {:>8.2} ms  speedup {:>5.2}x  \
         (lu {} -> {}, sym-reuse {}, slot-hits {}, bypass {}, fallbacks {}, \
         batched {}, eval-share {:.0}%, fill {}, order {:.2} ms)",
        w.name,
        w.unknowns,
        legacy_s[0] * 1e3,
        fast_s[0] * 1e3,
        legacy_s[0] / fast_s[0].max(1e-12),
        legacy_stats.lu_factorizations,
        fast_stats.lu_factorizations,
        fast_stats.symbolic_reuses,
        fast_stats.slot_cache_hits,
        fast_stats.bypass_solves,
        fast_stats.refactor_fallbacks,
        fast_stats.batched_evals,
        eval_share(&fast_stats) * 100.0,
        fast_stats.fill_nnz,
        fast_stats.ordering_ns as f64 * 1e-6,
    );
    Measurement {
        name: w.name.clone(),
        unknowns: w.unknowns,
        legacy_s,
        fast_s,
        legacy_stats,
        fast_stats,
    }
}

/// The smoke contract: the fast path must demonstrably engage, stay
/// sane, and leave legacy runs untouched. Returns violation messages.
fn smoke_violations(results: &[Measurement]) -> Vec<String> {
    let mut violations = Vec::new();
    for m in results {
        let f = &m.fast_stats;
        let l = &m.legacy_stats;
        // The time-attribution counters are profile-independent brackets,
        // so only the discrete fast-path counters must stay zero here.
        if l.slot_cache_hits
            + l.symbolic_reuses
            + l.refactor_fallbacks
            + l.bypass_solves
            + l.batched_evals
            > 0
        {
            violations.push(format!(
                "{}: legacy run recorded fast-path counters ({l:?})",
                m.name
            ));
        }
        if f.refactor_fallbacks > f.lu_factorizations {
            violations.push(format!(
                "{}: more refactor fallbacks ({}) than factorizations ({})",
                m.name, f.refactor_fallbacks, f.lu_factorizations
            ));
        }
    }
    // The sparse decks must exercise the symbolic-reuse machinery.
    let sparse: Vec<_> = results.iter().filter(|m| m.unknowns > 64).collect();
    if sparse.is_empty() {
        violations.push("no deck crossed the sparse threshold".into());
    }
    if !sparse.iter().any(|m| m.fast_stats.symbolic_reuses > 0) {
        violations.push("no sparse deck recorded a symbolic LU reuse".into());
    }
    if !sparse.iter().any(|m| m.fast_stats.slot_cache_hits > 0) {
        violations.push("no sparse deck recorded a slot-cache hit".into());
    }
    // The linear decks must exercise the factorization bypass.
    if !results.iter().any(|m| m.fast_stats.bypass_solves > 0) {
        violations.push("no deck recorded a bypass solve".into());
    }
    // Device decks must run batched, and device-free decks must record
    // exactly zero eval attribution (the device section never executes).
    if !results.iter().any(|m| m.fast_stats.batched_evals > 0) {
        violations.push("no deck recorded a batched device evaluation".into());
    }
    for m in results {
        if m.fast_stats.batched_evals == 0 && m.fast_stats.device_eval_ns > 0 {
            violations.push(format!(
                "{}: device-free deck attributed {} ns of device-eval time",
                m.name, m.fast_stats.device_eval_ns
            ));
        }
    }
    violations
}

/// One point of the scaling curve: matrix-level ordering/factorization
/// measurements on a generated deck's DC Jacobian, plus (for SRAM
/// decks) the end-to-end transient under the default profile.
struct ScalingPoint {
    name: String,
    unknowns: usize,
    nnz_a: usize,
    ordering_ms: f64,
    natural_ms: f64,
    ordered_ms: f64,
    refactor_ms: f64,
    natural_fill: usize,
    ordered_fill: usize,
    natural_residual: f64,
    ordered_residual: f64,
    tran: Option<(f64, SolverStats)>,
}

impl ScalingPoint {
    fn factor_speedup(&self) -> f64 {
        self.natural_ms / self.ordered_ms.max(1e-9)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("unknowns".into(), Json::Int(self.unknowns as i64)),
            ("nnz_a".into(), Json::Int(self.nnz_a as i64)),
            ("ordering_ms".into(), Json::Num(self.ordering_ms)),
            ("natural_factor_ms".into(), Json::Num(self.natural_ms)),
            ("ordered_factor_ms".into(), Json::Num(self.ordered_ms)),
            ("ordered_refactor_ms".into(), Json::Num(self.refactor_ms)),
            (
                "natural_fill_nnz".into(),
                Json::Int(self.natural_fill as i64),
            ),
            (
                "ordered_fill_nnz".into(),
                Json::Int(self.ordered_fill as i64),
            ),
            ("factor_speedup".into(), Json::Num(self.factor_speedup())),
            ("natural_residual".into(), Json::Num(self.natural_residual)),
            ("ordered_residual".into(), Json::Num(self.ordered_residual)),
        ];
        if let Some((secs, st)) = &self.tran {
            fields.push(("tran_s".into(), Json::Num(*secs)));
            fields.push(("tran_counters".into(), st.to_json()));
        }
        Json::Obj(fields)
    }
}

/// Times `f` adaptively: always once, two more runs when the first came
/// back fast enough that timer noise matters. Returns the minimum (s).
fn time_min<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    let mut best = t0.elapsed().as_secs_f64();
    if best < 0.2 {
        for _ in 0..2 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
    }
    (best, out)
}

/// Infinity-norm relative residual of `A x = b`.
fn rel_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let r = a.mat_vec(x);
    let num = r
        .iter()
        .zip(b)
        .map(|(ri, bi)| (ri - bi).abs())
        .fold(0.0f64, f64::max);
    let den = b.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1e-30);
    num / den
}

fn measure_scaling(mut deck: GenDeck, with_transient: bool) -> ScalingPoint {
    let name = deck.name.clone();
    let probe = dc_jacobian(&mut deck.circuit, &OpOptions::default())
        .unwrap_or_else(|e| panic!("deck `{name}`: operating point failed: {e}"));
    let a = CscMatrix::from_triplets(probe.n, probe.n, &probe.entries);
    let b = a.mat_vec(&vec![1.0; probe.n]);

    let (ordering_s, q) = time_min(|| min_degree(&a));
    let (natural_s, natural_lu) = time_min(|| {
        SparseLu::factor_symbolic(&a).unwrap_or_else(|e| panic!("deck `{name}`: natural: {e}"))
    });
    let (ordered_s, mut ordered_lu) = time_min(|| {
        SparseLu::factor_symbolic_with_order(&a, &q)
            .unwrap_or_else(|e| panic!("deck `{name}`: ordered: {e}"))
    });
    let (refactor_s, ()) = time_min(|| {
        ordered_lu
            .refactor(&a)
            .unwrap_or_else(|e| panic!("deck `{name}`: refactor: {e:?}"))
    });
    let natural_residual = rel_residual(&a, &natural_lu.solve(&b).unwrap(), &b);
    let ordered_residual = rel_residual(&a, &ordered_lu.solve(&b).unwrap(), &b);

    let tran = with_transient.then(|| {
        let opts = TranOptions {
            dt_max: Some(deck.dt_max),
            ..Default::default()
        };
        let t0 = Instant::now();
        let (res, st) = stats::measure(|| transient(&mut deck.circuit, deck.tstop, &opts));
        res.unwrap_or_else(|e| panic!("deck `{name}`: transient failed: {e}"));
        (t0.elapsed().as_secs_f64(), st)
    });

    let point = ScalingPoint {
        name,
        unknowns: probe.n,
        nnz_a: a.nnz(),
        ordering_ms: ordering_s * 1e3,
        natural_ms: natural_s * 1e3,
        ordered_ms: ordered_s * 1e3,
        refactor_ms: refactor_s * 1e3,
        natural_fill: natural_lu.factor_nnz(),
        ordered_fill: ordered_lu.factor_nnz(),
        natural_residual,
        ordered_residual,
        tran,
    };
    println!(
        "{:<18} n={:<5} nnz(A)={:<6} natural {:>9.2} ms / fill {:<8} ordered {:>8.2} ms / \
         fill {:<7} ({:>6.2}x, order {:.2} ms, refactor {:.3} ms){}",
        point.name,
        point.unknowns,
        point.nnz_a,
        point.natural_ms,
        point.natural_fill,
        point.ordered_ms,
        point.ordered_fill,
        point.factor_speedup(),
        point.ordering_ms,
        point.refactor_ms,
        match &point.tran {
            Some((secs, _)) => format!("  tran {secs:.2} s"),
            None => String::new(),
        },
    );
    point
}

/// The generated-deck fleet for the scaling study.
fn scaling_decks(smoke: bool) -> Vec<(GenDeck, bool)> {
    let tech = Technology::n90();
    let sram_sizes: &[usize] = if smoke { &[4, 8] } else { &[4, 8, 16, 32, 64] };
    let mut decks: Vec<(GenDeck, bool)> = sram_sizes
        .iter()
        .map(|&s| (SramArrayGen::new(s, s).build(&tech), true))
        .collect();
    if smoke {
        decks.push((DominoTreeGen::new(32, 64).build(&tech), false));
    } else {
        decks.push((DominoTreeGen::new(32, 64).build(&tech), true));
        decks.push((DominoTreeGen::new(48, 64).build(&tech), true));
    }
    decks
}

/// The scaling smoke contract: ordering never worsens fill, both
/// factorizations solve accurately, and the transient records the new
/// attribution counters on decks above the ordering threshold.
fn scaling_violations(points: &[ScalingPoint]) -> Vec<String> {
    let mut violations = Vec::new();
    for p in points {
        if p.ordered_fill > p.natural_fill {
            violations.push(format!(
                "{}: ordered fill {} exceeds natural fill {}",
                p.name, p.ordered_fill, p.natural_fill
            ));
        }
        for (side, r) in [
            ("natural", p.natural_residual),
            ("ordered", p.ordered_residual),
        ] {
            // NaN must trip the gate too, hence the explicit finite check.
            if !r.is_finite() || r >= 1e-8 {
                violations.push(format!("{}: {side} solve residual {r:e}", p.name));
            }
        }
        if let Some((_, st)) = &p.tran {
            if p.unknowns >= 96 && (st.fill_nnz == 0 || st.ordering_ns == 0) {
                violations.push(format!(
                    "{}: transient above the ordering threshold recorded \
                     fill_nnz={} ordering_ns={}",
                    p.name, st.fill_nnz, st.ordering_ns
                ));
            }
        }
    }
    if !points.iter().any(|p| p.tran.is_some()) {
        violations.push("no scaling deck ran a transient".into());
    }
    violations
}

fn run_scaling(smoke: bool, out: &str) -> ExitCode {
    let decks = scaling_decks(smoke);
    println!(
        "perfbase --scaling: {} generated decks{}",
        decks.len(),
        if smoke { " (smoke subset)" } else { "" }
    );
    let points: Vec<ScalingPoint> = decks
        .into_iter()
        .map(|(deck, with_tran)| measure_scaling(deck, with_tran))
        .collect();

    if smoke {
        let violations = scaling_violations(&points);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("perfbase scaling smoke violation: {v}");
            }
            return ExitCode::FAILURE;
        }
        println!("perfbase scaling smoke OK");
        return ExitCode::SUCCESS;
    }

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("perfbase".into())),
        ("version".into(), Json::Int(4)),
        ("mode".into(), Json::Str("scaling".into())),
        (
            "points".into(),
            Json::Arr(points.iter().map(ScalingPoint::to_json).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(out, doc.render() + "\n") {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("scaling curve written to {out}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = Cli::new("perfbase", "sparse fast-path benchmark baseline")
        .value("--iters", "timing iterations per workload [default: 5]")
        .value("--out", "output JSON path [default: BENCH_9.json]")
        .switch("--smoke", "reduced CI smoke variant")
        .switch("--scaling", "generated-deck ordering/fill scaling sweep")
        .parse_or_exit();
    let mut iters: usize = args.num("--iters", 5);
    let smoke = args.has("--smoke");
    if args.has("--scaling") {
        let out = args.get("--out").unwrap_or("BENCH_10.json").to_string();
        return run_scaling(smoke, &out);
    }
    let out = args.get("--out").unwrap_or("BENCH_9.json").to_string();
    if smoke {
        iters = iters.min(2);
    }

    let mut workloads = verify_deck_workloads();
    // The domino fan-in sweep: the paper's workhorse circuit at growing
    // PDN width. The fan-in-16 / fan-out-8 point crosses the sparse
    // threshold; fan-in 24 pushes deeper into the regime where frozen
    // linear algebra makes the per-iteration solve cheap and device
    // evaluation dominates — the deck that isolates the batched-eval win.
    for fan_in in [4usize, 8, 12, 16, 24] {
        workloads.push(domino_workload(fan_in, 8));
    }
    if smoke {
        // Keep only a representative subset: one linear deck (bypass),
        // one wide deck (sparse), and the headline domino point.
        workloads.retain(|w| {
            w.name == "verify:rc-ladder-pulse"
                || w.name == "verify:wide-rc-ladder"
                || w.name == "domino:or16-fo8"
        });
    }

    println!(
        "perfbase: {} workloads, {iters} timed iterations each (plus warm-up)",
        workloads.len()
    );
    let results: Vec<Measurement> = workloads.iter().map(|w| measure(w, iters)).collect();

    if smoke {
        let mut violations = smoke_violations(&results);
        // Batched and scalar device evaluation must stay bitwise
        // identical on the differential fleet (cheap: snapshot decks).
        for deck in diff::decks() {
            if let Err(msg) = diff::batched_vs_scalar(&deck) {
                violations.push(format!("batched-vs-scalar differential: {msg}"));
            }
        }
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("perfbase smoke violation: {v}");
            }
            return ExitCode::FAILURE;
        }
        println!("perfbase smoke OK");
        return ExitCode::SUCCESS;
    }

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("perfbase".into())),
        ("version".into(), Json::Int(4)),
        ("iters".into(), Json::Int(iters as i64)),
        (
            "decks".into(),
            Json::Arr(results.iter().map(Measurement::to_json).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(&out, doc.render() + "\n") {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("baseline written to {out}");
    ExitCode::SUCCESS
}
