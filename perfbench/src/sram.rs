//! `sram-array`: default-profile transients of a generated 24×24 hybrid
//! SRAM array (1282 unknowns, above the sparse-ordering threshold).
//!
//! The unit of work is one transient over the deck's own `tstop`/`dt_max`
//! on a freshly built deck (the build is set-up). Most of a transient
//! here is the one natural-order factorization it makes after its first
//! thaw, so this is the workload that shows a fix to that factorization.
//!
//! The direct-transient path has no result cache: a repeated input costs
//! exactly a fresh transient. The workload records no repeated jobs, so
//! `repeat_p50_ms` reads the fresh ones (see `Pass::repeat_ms`), and it,
//! `fresh_p50_ms` and `run_s` are one population here.
//!
//! The traced run adds matrix-level probes on the deck's DC Jacobian —
//! minimum-degree ordering, one natural-order factor, one ordered
//! factor and one refactor — that explain `numeric.solve_s`. They run
//! after the timed units and never inside `run_s`.

use std::time::Instant;

use nemscmos::gen::{GenDeck, SramArrayGen};
use nemscmos::tech::Technology;
use nemscmos_numeric::sparse::{min_degree, CscMatrix, SparseLu};
use nemscmos_spice::analysis::{dc_jacobian, transient, OpOptions, TranOptions};
use nemscmos_spice::stats::{self, SolverStats};

use crate::report::{solver_rows, Pass};
use crate::trace::Tracer;

/// Array rows.
pub const ROWS: usize = 24;
/// Array columns.
pub const COLS: usize = 24;
/// Largest accepted deviation of a final probe voltage from the
/// committed reference (V). Bistable cells sit within millivolts of a
/// rail, so a wrong stored state misses by about a volt, while the
/// round-off of a different but correct pivot order stays far below.
pub const TOLERANCE_V: f64 = 1e-3;
/// Final probe voltages of one transient, committed with the benchmark.
pub const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference/sram-array.txt");

/// Final voltage of each probe node, in the deck's probe order.
pub type Probes = Vec<(String, f64)>;

/// Parses `name value` lines (`#` starts a comment).
pub fn parse_reference(text: &str) -> Result<Probes, String> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(
            |l| match l.split_whitespace().collect::<Vec<_>>().as_slice() {
                [name, value] => value
                    .parse()
                    .map(|v| ((*name).to_string(), v))
                    .map_err(|_| format!("bad voltage in reference line {l:?}")),
                _ => Err(format!("reference line {l:?} is not `name value`")),
            },
        )
        .collect()
}

/// Every way `got` misses `reference` by more than [`TOLERANCE_V`].
pub fn check(got: &[(String, f64)], reference: &[(String, f64)]) -> Vec<String> {
    let mut misses: Vec<String> = reference
        .iter()
        .filter_map(|(name, want)| match got.iter().find(|(n, _)| n == name) {
            None => Some(format!("probe {name} missing from the transient")),
            Some((_, v)) if (v - want).abs() > TOLERANCE_V => Some(format!(
                "probe {name}: {v} V, reference {want} V (tolerance {TOLERANCE_V} V)"
            )),
            Some(_) => None,
        })
        .collect();
    if reference.is_empty() {
        misses.push("reference holds no probes".into());
    }
    misses
}

fn build(tracer: &mut Tracer) -> GenDeck {
    tracer.span("core.gen.build", |_| {
        SramArrayGen::new(ROWS, COLS).build(&Technology::n90())
    })
}

/// One transient: wall (s), solver counters and final probe voltages.
fn simulate(deck: &mut GenDeck, tracer: &mut Tracer) -> Result<(f64, SolverStats, Probes), String> {
    let opts = TranOptions {
        dt_max: Some(deck.dt_max),
        ..Default::default()
    };
    let t0 = Instant::now();
    let (res, spent) = tracer.span("spice.transient", |_| {
        stats::measure(|| transient(&mut deck.circuit, deck.tstop, &opts))
    });
    let wall = t0.elapsed().as_secs_f64();
    let res = res.map_err(|e| format!("{}: transient failed: {e}", deck.name))?;
    let probes = deck
        .probes
        .iter()
        .map(|(name, node)| (name.clone(), res.voltage(*node).last_value()))
        .collect();
    Ok((wall, spent, probes))
}

/// Runs transients, each on a freshly built deck, for at least
/// `seconds` (one at minimum). `started` marks the workload start, so
/// the first set-up sample covers everything before the first transient.
pub fn measure(
    seconds: f64,
    started: Instant,
    reference: &[(String, f64)],
    tracer: &mut Tracer,
) -> Pass {
    let mut pass = Pass::default();
    let mut spent_total = SolverStats::default();
    let mut build_s = 0.0;
    let mut setup_from = started;
    let loop_start = Instant::now();
    while pass.attempted == 0 || loop_start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let mut deck = build(tracer);
        build_s += t.elapsed().as_secs_f64();
        pass.setup_s.push(setup_from.elapsed().as_secs_f64());
        pass.attempted += 1;
        match simulate(&mut deck, tracer) {
            Ok((wall, spent, probes)) => {
                pass.busy_s += wall;
                pass.push_unit(wall);
                pass.fresh_ms.push(wall * 1e3);
                spent_total += spent;
                let misses = check(&probes, reference);
                if !misses.is_empty() {
                    pass.fail(misses.join("; "));
                }
            }
            Err(e) => pass.fail(e),
        }
        setup_from = Instant::now();
    }
    let units = pass.unit_s.len().max(1) as f64;
    let wall_s = pass.unit_s.iter().sum::<f64>();
    pass.layers.extend(solver_rows(&spent_total, units, wall_s));
    pass.layers
        .insert("gen.build_s", build_s / pass.setup_s.len() as f64);
    if tracer.enabled() {
        probe_matrix(&mut pass, tracer);
    }
    pass
}

/// Runs `f` once inside a span; returns its wall in ms.
fn timed(tracer: &mut Tracer, name: &str, f: &mut dyn FnMut()) -> f64 {
    let t = Instant::now();
    tracer.span(name, |_| f());
    t.elapsed().as_secs_f64() * 1e3
}

/// Times ordering and factorization of the deck's DC Jacobian once
/// each, in the traced run only.
fn probe_matrix(pass: &mut Pass, tracer: &mut Tracer) {
    pass.attempted += 1;
    let mut deck = build(tracer);
    let probe = match tracer.span("spice.dc_jacobian", |_| {
        dc_jacobian(&mut deck.circuit, &OpOptions::default())
    }) {
        Ok(p) => p,
        Err(e) => return pass.fail(format!("dc_jacobian: {e}")),
    };
    let a = CscMatrix::from_triplets(probe.n, probe.n, &probe.entries);
    let mut q = Vec::new();
    let order_ms = timed(tracer, "numeric.min_degree", &mut || q = min_degree(&a));
    let mut natural = None;
    let natural_ms = timed(tracer, "numeric.factor_natural", &mut || {
        natural = Some(SparseLu::factor(&a));
    });
    let mut ordered = None;
    let ordered_ms = timed(tracer, "numeric.factor_ordered", &mut || {
        ordered = Some(SparseLu::factor_symbolic_with_order(&a, &q));
    });
    let (Some(Ok(natural)), Some(Ok(mut ordered))) = (natural, ordered) else {
        return pass.fail("DC Jacobian factorization failed".into());
    };
    let mut refactored = Ok(());
    let refactor_ms = timed(tracer, "numeric.refactor", &mut || {
        refactored = ordered.refactor(&a);
    });
    if let Err(e) = refactored {
        pass.fail(format!("refactor of the DC Jacobian rejected: {e:?}"));
    }
    pass.layers.extend([
        ("numeric.order_ms", order_ms),
        ("numeric.natural_factor_ms", natural_ms),
        ("numeric.ordered_factor_ms", ordered_ms),
        ("numeric.refactor_ms", refactor_ms),
        ("numeric.natural_fill_nnz", natural.factor_nnz() as f64),
        ("numeric.ordered_fill_nnz", ordered.factor_nnz() as f64),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes(pairs: &[(&str, f64)]) -> Probes {
        pairs.iter().map(|(n, v)| ((*n).to_string(), *v)).collect()
    }

    #[test]
    fn reference_parses_and_gates_the_output() {
        let got = probes(&[("wl0", 1.19998), ("q00", 1.1997), ("qb00", 2.5e-5)]);
        let reference =
            parse_reference("# comment\nwl0 1.19998\nq00 1.1997\nqb00 2.5e-5\n").unwrap();
        assert_eq!(reference, got);
        assert!(check(&got, &reference).is_empty());

        // A deliberately wrong reference (the cell stored the other
        // state) fails the check, naming the probe.
        let wrong = probes(&[("wl0", 1.19998), ("q00", 2.5e-5), ("qb00", 1.1997)]);
        let misses = check(&got, &wrong);
        assert_eq!(misses.len(), 2, "{misses:?}");
        assert!(misses[0].contains("q00"));

        // Within tolerance passes; a missing probe or an empty reference
        // fails.
        let close = probes(&[("q00", 1.1997 + 0.5 * TOLERANCE_V)]);
        assert!(check(&got, &close).is_empty());
        assert_eq!(check(&got, &probes(&[("bl0", 1.07)])).len(), 1);
        assert_eq!(check(&got, &[]).len(), 1);
    }

    #[test]
    fn committed_reference_parses() {
        let text = std::fs::read_to_string(REFERENCE).unwrap();
        let reference = parse_reference(&text).unwrap();
        let names: Vec<&str> = reference.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["wl0", "bl0", "q00", "qb00"]);
    }

    #[test]
    fn malformed_reference_lines_are_errors() {
        assert!(parse_reference("q00 1.2 extra").is_err());
        assert!(parse_reference("q00 volts").is_err());
        assert_eq!(parse_reference("# only a comment\n\n").unwrap(), vec![]);
    }
}
