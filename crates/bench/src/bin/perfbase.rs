//! `perfbase` — ordering and fill scaling curve of the sparse solver.
//!
//! ```sh
//! cargo run --release -p nemscmos-bench --bin perfbase -- [--out PATH] [--smoke]
//! ```
//!
//! Sweeps the `nemscmos-gen` generated circuit families — SRAM arrays
//! from 4×4 up to 64×64 (tens to thousands of unknowns) and wide domino
//! fanout trees — extracting each deck's DC Jacobian and measuring, on
//! the *same matrix*: minimum-degree ordering time, natural-order vs
//! ordered factorization time and fill (nnz(L+U)), ordered
//! refactor-replay time, and solve residuals for both paths. The
//! natural-order factorization is measured only up to
//! [`NATURAL_MAX_UNKNOWNS`] (sram-32x32); above it, it takes minutes and
//! gigabytes, and its points cite `BENCH_10.json`, which recorded it.
//! SRAM decks then run a full transient under the default profile to
//! prove the end-to-end path holds at scale. Writes the curve to `--out`
//! (default `BENCH_10.json`, committed at the repo root).
//!
//! `--smoke` runs the two smallest SRAM sizes plus one domino tree
//! without writing the file, asserting the ordering never worsens fill
//! wherever both orders are measured, both factorizations solve to small
//! residual, the transient records fill/ordering attribution, a
//! sparse transient (sram-8x8, 178 unknowns) writes its device lanes
//! through their resolved slots with no lane falling back to the
//! per-push route, and the transient of a dense verify deck
//! (`nmos-cascade`, 7 unknowns) replays its compiled dense refactor:
//! symbolic reuses recorded, and fewer refactor fallbacks than
//! factorizations. `ci.sh` runs it.

use std::process::ExitCode;
use std::time::Instant;

use nemscmos::gen::{DominoTreeGen, GenDeck, SramArrayGen};
use nemscmos::tech::Technology;
use nemscmos_bench::cli::Cli;
use nemscmos_harness::{Json, JsonCodec};
use nemscmos_numeric::sparse::{min_degree, CscMatrix, SparseLu};
use nemscmos_spice::analysis::probe::dc_jacobian;
use nemscmos_spice::analysis::tran::{transient, TranOptions};
use nemscmos_spice::analysis::OpOptions;
use nemscmos_spice::stats::{self, SolverStats};
use nemscmos_verify::diff;

/// Largest deck (in unknowns) whose DC Jacobian is also factored in
/// natural order: sram-32x32, about 12 s. sram-64x64 took about 15
/// minutes and 1 GB to reprint what `BENCH_10.json` records.
const NATURAL_MAX_UNKNOWNS: usize = 2_218;

/// The natural-order factorization of one point's matrix.
struct Natural {
    ms: f64,
    fill: usize,
    residual: f64,
}

/// One point of the scaling curve: matrix-level ordering/factorization
/// measurements on a generated deck's DC Jacobian, plus (for SRAM
/// decks) the end-to-end transient under the default profile.
struct ScalingPoint {
    name: String,
    unknowns: usize,
    nnz_a: usize,
    ordering_ms: f64,
    ordered_ms: f64,
    refactor_ms: f64,
    ordered_fill: usize,
    ordered_residual: f64,
    /// `None` above [`NATURAL_MAX_UNKNOWNS`].
    natural: Option<Natural>,
    tran: Option<(f64, SolverStats)>,
}

impl ScalingPoint {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("unknowns".into(), Json::Int(self.unknowns as i64)),
            ("nnz_a".into(), Json::Int(self.nnz_a as i64)),
            ("ordering_ms".into(), Json::Num(self.ordering_ms)),
            ("ordered_factor_ms".into(), Json::Num(self.ordered_ms)),
            ("ordered_refactor_ms".into(), Json::Num(self.refactor_ms)),
            (
                "ordered_fill_nnz".into(),
                Json::Int(self.ordered_fill as i64),
            ),
            ("ordered_residual".into(), Json::Num(self.ordered_residual)),
        ];
        match &self.natural {
            Some(nat) => fields.extend([
                ("natural_factor_ms".into(), Json::Num(nat.ms)),
                ("natural_fill_nnz".into(), Json::Int(nat.fill as i64)),
                (
                    "factor_speedup".into(),
                    Json::Num(nat.ms / self.ordered_ms.max(1e-9)),
                ),
                ("natural_residual".into(), Json::Num(nat.residual)),
            ]),
            None => fields.push((
                "natural_measured_in".into(),
                Json::Str("BENCH_10.json".into()),
            )),
        }
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
    let natural = (probe.n <= NATURAL_MAX_UNKNOWNS).then(|| {
        let (secs, lu) = time_min(|| {
            SparseLu::factor_symbolic(&a).unwrap_or_else(|e| panic!("deck `{name}`: natural: {e}"))
        });
        Natural {
            ms: secs * 1e3,
            fill: lu.factor_nnz(),
            residual: rel_residual(&a, &lu.solve(&b).unwrap(), &b),
        }
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
        ordered_ms: ordered_s * 1e3,
        refactor_ms: refactor_s * 1e3,
        ordered_fill: ordered_lu.factor_nnz(),
        ordered_residual,
        natural,
        tran,
    };
    println!(
        "{:<18} n={:<5} nnz(A)={:<6} natural {} ordered {:>8.2} ms / fill {:<7} \
         (order {:.2} ms, refactor {:.3} ms){}",
        point.name,
        point.unknowns,
        point.nnz_a,
        match &point.natural {
            Some(nat) => format!("{:>9.2} ms / fill {:<8}", nat.ms, nat.fill),
            None => format!("{:<26}", "in BENCH_10.json"),
        },
        point.ordered_ms,
        point.ordered_fill,
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

/// The scaling smoke contract: ordering never worsens fill where both
/// orders are measured, every factorization solves accurately, the
/// transient records the new attribution counters on decks above the
/// ordering threshold, and sparse transients resolve every device lane
/// with no per-push fallback.
fn scaling_violations(points: &[ScalingPoint]) -> Vec<String> {
    let mut violations = Vec::new();
    for p in points {
        if let Some(nat) = p.natural.as_ref().filter(|nat| p.ordered_fill > nat.fill) {
            violations.push(format!(
                "{}: ordered fill {} exceeds natural fill {}",
                p.name, p.ordered_fill, nat.fill
            ));
        }
        let natural = p.natural.as_ref().map(|nat| ("natural", nat.residual));
        for (side, r) in natural.into_iter().chain([("ordered", p.ordered_residual)]) {
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
            // Above the dense limit every lane is resolved once per
            // freeze and then written straight into its slots: a lane on
            // the per-push route after that is a silent slow path.
            if p.unknowns > 64 && (st.resolved_lanes == 0 || st.lane_fallbacks > 0) {
                violations.push(format!(
                    "{}: sparse transient wrote {} lanes through resolved slots \
                     and sent {} back to the per-push route",
                    p.name, st.resolved_lanes, st.lane_fallbacks
                ));
            }
        }
    }
    if !points.iter().any(|p| p.tran.is_some()) {
        violations.push("no scaling deck ran a transient".into());
    }
    violations
}

/// The dense verify deck whose transient must replay its refactor.
const DENSE_DECK: &str = "nmos-cascade";

/// Runs [`DENSE_DECK`]'s transient and returns its solver counters.
fn dense_deck_counters() -> SolverStats {
    let deck = diff::decks()
        .into_iter()
        .find(|d| d.name == DENSE_DECK)
        .expect("the verify fleet holds the dense deck");
    let (mut ckt, _) = deck.build();
    let (res, st) = stats::measure(|| transient(&mut ckt, deck.tstop, &TranOptions::default()));
    res.unwrap_or_else(|e| panic!("deck `{DENSE_DECK}`: transient failed: {e}"));
    println!(
        "{DENSE_DECK:<18} dense transient: {} factorizations, {} replayed, {} fallbacks",
        st.lu_factorizations, st.symbolic_reuses, st.refactor_fallbacks
    );
    st
}

/// The dense replay contract: the compiled refactor engages and a
/// kernel fallback is the exception.
fn dense_replay_violation(st: &SolverStats) -> Option<String> {
    (st.symbolic_reuses == 0 || st.refactor_fallbacks >= st.lu_factorizations).then(|| {
        format!(
            "{DENSE_DECK}: dense transient replayed {} of {} factorizations \
             with {} refactor fallbacks",
            st.symbolic_reuses, st.lu_factorizations, st.refactor_fallbacks
        )
    })
}

fn main() -> ExitCode {
    let args = Cli::new("perfbase", "generated-deck ordering/fill scaling sweep")
        .value("--out", "output JSON path [default: BENCH_10.json]")
        .switch("--smoke", "reduced CI smoke variant")
        .parse_or_exit();
    let smoke = args.has("--smoke");
    let out = args.get("--out").unwrap_or("BENCH_10.json");
    let decks = scaling_decks(smoke);
    println!(
        "perfbase: {} generated decks{}",
        decks.len(),
        if smoke { " (smoke subset)" } else { "" }
    );
    let points: Vec<ScalingPoint> = decks
        .into_iter()
        .map(|(deck, with_tran)| measure_scaling(deck, with_tran))
        .collect();

    if smoke {
        let mut violations = scaling_violations(&points);
        violations.extend(dense_replay_violation(&dense_deck_counters()));
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
        ("version".into(), Json::Int(5)),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_replay_gate_needs_reuses_and_rare_fallbacks() {
        let mut st = SolverStats::ZERO;
        st.lu_factorizations = 10;
        assert!(dense_replay_violation(&st).is_some(), "no replay");
        st.symbolic_reuses = 9;
        st.refactor_fallbacks = 1;
        assert_eq!(dense_replay_violation(&st), None);
        st.refactor_fallbacks = 10;
        assert!(dense_replay_violation(&st).is_some(), "all fell back");
    }
}
