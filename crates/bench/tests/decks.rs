//! Validates every SPICE deck shipped under `examples/decks/`: each must
//! parse and its full directive sequence must run.

use nemscmos::factory::StandardFactory;
use nemscmos::spice::analysis::dc_sweep::{dc_sweep, linear_sweep};
use nemscmos::spice::analysis::op::{op, OpOptions};
use nemscmos::spice::analysis::tran::{transient, TranOptions};
use nemscmos::spice::netlist::{parse_deck, Directive};

fn decks_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/decks")
}

fn run_deck(text: &str) {
    let factory = StandardFactory::n90();
    let deck = parse_deck(text, &factory).expect("deck parses");
    assert!(
        !deck.directives.is_empty(),
        "deck has no analysis directives"
    );
    for directive in deck.directives.clone() {
        let mut fresh = parse_deck(text, &factory).expect("reparse");
        match directive {
            Directive::Op => {
                op(&mut fresh.circuit).expect(".op converges");
            }
            Directive::Tran { tstop } => {
                let res = transient(&mut fresh.circuit, tstop, &TranOptions::default())
                    .expect(".tran completes");
                assert!(res.num_points() > 10);
            }
            Directive::Dc {
                source,
                start,
                stop,
                step,
            } => {
                let src = fresh.sources[&source];
                let values = linear_sweep(start, stop, step);
                dc_sweep(&mut fresh.circuit, src, &values, &OpOptions::default())
                    .expect(".dc completes");
            }
            Directive::Ac {
                points_per_decade,
                f_start,
                f_stop,
            } => {
                let (_, src) = fresh
                    .sources
                    .iter()
                    .next()
                    .map(|(k, v)| (k.clone(), *v))
                    .expect("a source");
                let freqs =
                    nemscmos::spice::analysis::ac::log_sweep(f_start, f_stop, points_per_decade);
                nemscmos::spice::analysis::ac::ac(
                    &mut fresh.circuit,
                    src,
                    &freqs,
                    &OpOptions::default(),
                )
                .expect(".ac completes");
            }
        }
    }
}

#[test]
fn every_shipped_deck_runs() {
    let dir = decks_dir();
    let mut found = 0;
    for entry in std::fs::read_dir(&dir).expect("decks directory") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("cir") {
            continue;
        }
        found += 1;
        let text = std::fs::read_to_string(&path).expect("readable deck");
        run_deck(&text);
    }
    assert!(found >= 3, "expected the shipped decks, found {found}");
}

#[test]
fn hybrid_cell_deck_write_works() {
    let text = std::fs::read_to_string(decks_dir().join("sram_hybrid_cell.cir")).unwrap();
    let factory = StandardFactory::n90();
    let deck = parse_deck(&text, &factory).unwrap();
    let mut ckt = deck.circuit;
    let res = transient(&mut ckt, 8e-9, &TranOptions::default()).unwrap();
    // The deck writes a 0 into QL (starting from QL = 1).
    assert!(res.voltage(deck.nodes["ql"]).last_value() < 0.15);
    assert!(res.voltage(deck.nodes["qr"]).last_value() > 1.0);
}
