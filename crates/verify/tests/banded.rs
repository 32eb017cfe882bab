//! Banded snapshots above the sparse ordering threshold: generated
//! 16×16 SRAM arrays (602 unknowns, so the sparse solver orders their
//! columns), conventional and hybrid (NEMFET pull-up and pull-down
//! cells), their probes decimated to a fixed grid and committed as
//! `golden/banded/<deck>.json`.
//!
//! Unlike the byte-exact goldens it is checked within a 1 mV band per
//! sample ([`compare::series`]): a change of elimination order moves the
//! waveforms only at round-off level, so it is judged against the band
//! instead of re-blessed, while a wrong stored bit misses by about a
//! volt. Set `NEMSCMOS_BLESS=1` to rewrite the snapshots.

use std::fs;
use std::path::PathBuf;

use nemscmos::gen::SramArrayGen;
use nemscmos::sram::SramKind;
use nemscmos::tech::Technology;
use nemscmos_harness::Json;
use nemscmos_spice::analysis::tran::{transient, TranOptions};
use nemscmos_spice::stats;
use nemscmos_verify::compare::{self, Tolerance};
use nemscmos_verify::golden;

/// Points of the decimation grid over `[0, tstop]`.
const SAMPLES: usize = 101;
/// Allowed deviation of every sample from the snapshot (V).
const BAND_V: f64 = 1e-3;

/// The sample grid and each probe's waveform on it, in probe order.
type Snapshot = (Vec<f64>, Vec<(String, Vec<f64>)>);

fn snapshot_path(deck: &str) -> PathBuf {
    golden::golden_dir()
        .join("banded")
        .join(format!("{deck}.json"))
}

/// Runs the 16×16 array's default-profile transient and samples its
/// probes. Returns the deck name with the samples.
fn simulate(kind: SramKind) -> (String, Snapshot) {
    let mut deck = SramArrayGen::new(16, 16)
        .with_kind(kind)
        .build(&Technology::n90());
    assert_eq!(deck.circuit.num_unknowns(), 602);
    let opts = TranOptions {
        dt_max: Some(deck.dt_max),
        ..Default::default()
    };
    let (res, spent) = stats::measure(|| transient(&mut deck.circuit, deck.tstop, &opts));
    let res = res.unwrap_or_else(|e| panic!("{} transient: {e}", deck.name));
    assert!(
        spent.ordering_ns > 0,
        "the ordered path never ran: {spent:?}"
    );
    let grid: Vec<f64> = (0..SAMPLES)
        .map(|k| deck.tstop * k as f64 / (SAMPLES - 1) as f64)
        .collect();
    let probes = deck
        .probes
        .iter()
        .map(|(name, node)| {
            let tr = res.voltage(*node);
            (name.clone(), grid.iter().map(|&t| tr.eval(t)).collect())
        })
        .collect();
    (deck.name, (grid, probes))
}

fn render(deck: &str, (grid, probes): &Snapshot) -> String {
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    let mut fields = vec![
        ("deck".to_string(), Json::Str(deck.into())),
        ("times".to_string(), nums(grid)),
    ];
    fields.extend(
        probes
            .iter()
            .map(|(name, vs)| (format!("v({name})"), nums(vs))),
    );
    Json::Obj(fields).render() + "\n"
}

fn parse(text: &str) -> Snapshot {
    let Json::Obj(fields) = Json::parse(text).expect("snapshot is JSON") else {
        panic!("snapshot is not a JSON object");
    };
    let nums = |v: &Json| -> Vec<f64> {
        v.as_arr()
            .expect("an array of numbers")
            .iter()
            .map(|x| x.as_f64().expect("a number"))
            .collect()
    };
    let mut grid = Vec::new();
    let mut probes = Vec::new();
    for (key, value) in &fields {
        if key == "times" {
            grid = nums(value);
        } else if let Some(name) = key.strip_prefix("v(").and_then(|k| k.strip_suffix(')')) {
            probes.push((name.to_string(), nums(value)));
        }
    }
    (grid, probes)
}

/// Checks the array of `kind` against its snapshot, or rewrites the
/// snapshot under `NEMSCMOS_BLESS=1`.
fn check(kind: SramKind) {
    let (deck, got) = simulate(kind);
    if std::env::var("NEMSCMOS_BLESS").is_ok_and(|v| v == "1") {
        let path = snapshot_path(&deck);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, render(&deck, &got)).unwrap();
        return;
    }
    let text = fs::read_to_string(snapshot_path(&deck)).expect("committed banded snapshot");
    let (grid, reference) = parse(&text);
    assert_eq!(got.0, grid, "sample grid changed");
    let names = |p: &[(String, Vec<f64>)]| p.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&got.1), names(&reference), "probe set changed");
    assert!(!reference.is_empty(), "snapshot holds no probes");
    for ((name, vs), (_, want)) in got.1.iter().zip(&reference) {
        compare::series(name, &grid, vs, want, Tolerance::abs(BAND_V))
            .unwrap_or_else(|d| panic!("{deck}: {d}"));
    }
}

#[test]
fn sram_16x16_stays_within_a_millivolt_of_its_snapshot() {
    check(SramKind::Conventional);
}

#[test]
fn sram_16x16_hybrid_stays_within_a_millivolt_of_its_snapshot() {
    check(SramKind::Hybrid);
}
