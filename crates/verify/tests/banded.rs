//! Banded snapshot above the sparse ordering threshold: a generated
//! 16×16 SRAM array (602 unknowns, so the sparse solver orders its
//! columns), its probes decimated to a fixed grid and committed as
//! `golden/banded/sram-16x16.json`.
//!
//! Unlike the byte-exact goldens it is checked within a 1 mV band per
//! sample ([`compare::series`]): a change of elimination order moves the
//! waveforms only at round-off level, so it is judged against the band
//! instead of re-blessed, while a wrong stored bit misses by about a
//! volt. Set `NEMSCMOS_BLESS=1` to rewrite the snapshot.

use std::fs;
use std::path::PathBuf;

use nemscmos::gen::SramArrayGen;
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

fn snapshot_path() -> PathBuf {
    golden::golden_dir().join("banded").join("sram-16x16.json")
}

/// Runs the array's default-profile transient and samples its probes.
fn simulate() -> Snapshot {
    let mut deck = SramArrayGen::new(16, 16).build(&Technology::n90());
    assert_eq!(deck.circuit.num_unknowns(), 602);
    let opts = TranOptions {
        dt_max: Some(deck.dt_max),
        ..Default::default()
    };
    let (res, spent) = stats::measure(|| transient(&mut deck.circuit, deck.tstop, &opts));
    let res = res.expect("sram-16x16 transient");
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
    (grid, probes)
}

fn render((grid, probes): &Snapshot) -> String {
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    let mut fields = vec![
        ("deck".to_string(), Json::Str("sram-16x16".into())),
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

#[test]
fn sram_16x16_stays_within_a_millivolt_of_its_snapshot() {
    let got = simulate();
    if std::env::var("NEMSCMOS_BLESS").is_ok_and(|v| v == "1") {
        let path = snapshot_path();
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, render(&got)).unwrap();
        return;
    }
    let text = fs::read_to_string(snapshot_path()).expect("committed banded snapshot");
    let (grid, reference) = parse(&text);
    assert_eq!(got.0, grid, "sample grid changed");
    let names = |p: &[(String, Vec<f64>)]| p.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&got.1), names(&reference), "probe set changed");
    assert!(!reference.is_empty(), "snapshot holds no probes");
    for ((name, vs), (_, want)) in got.1.iter().zip(&reference) {
        compare::series(name, &grid, vs, want, Tolerance::abs(BAND_V))
            .unwrap_or_else(|d| panic!("sram-16x16: {d}"));
    }
}
