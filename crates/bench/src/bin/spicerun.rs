//! `spicerun` — run a SPICE-style netlist against the nemscmos engine.
//!
//! ```sh
//! cargo run --release -p nemscmos-bench --bin spicerun -- deck.cir
//! ```
//!
//! Executes every directive in the deck in order:
//! * `.op` prints all node voltages and source currents;
//! * `.tran` prints final node voltages (add `--csv` for the full
//!   waveform table on stdout, or `--vcd <file>` to dump a GTKWave-ready
//!   VCD);
//! * `.dc` prints the sweep table;
//! * `.ac` prints magnitude (dB) per node, driven by the deck's first
//!   voltage source.

use std::process::ExitCode;

use nemscmos::factory::StandardFactory;
use nemscmos::spice::analysis::ac::{ac, log_sweep};
use nemscmos::spice::analysis::dc_sweep::{dc_sweep, linear_sweep};
use nemscmos::spice::analysis::op::{op, OpOptions};
use nemscmos::spice::analysis::tran::{transient, TranOptions};
use nemscmos::spice::netlist::{parse_deck, Directive, ParsedDeck};
use nemscmos_bench::cli::Cli;

fn run(deck: &ParsedDeck, text: &str, csv: bool, vcd_path: Option<&str>) -> Result<(), String> {
    // Node names sorted for stable output (ground omitted: always 0 V).
    let mut names: Vec<&String> = deck
        .nodes
        .iter()
        .filter(|(_, id)| !id.is_ground())
        .map(|(n, _)| n)
        .collect();
    names.sort();

    for directive in &deck.directives {
        // Each analysis gets a fresh elaboration (analyses freeze topology
        // and mutate device state).
        let factory = StandardFactory::n90();
        let mut fresh = parse_deck(text, &factory).map_err(|e| e.to_string())?;
        match directive {
            Directive::Op => {
                let res = op(&mut fresh.circuit).map_err(|e| e.to_string())?;
                println!("** .op **");
                for n in &names {
                    println!("v({n}) = {:.6} V", res.voltage(deck.nodes[*n]));
                }
                for (src, sref) in &deck.sources {
                    println!("i({src}) = {:.6e} A", res.source_current(*sref));
                }
            }
            Directive::Tran { tstop } => {
                let res = transient(&mut fresh.circuit, *tstop, &TranOptions::default())
                    .map_err(|e| e.to_string())?;
                println!("** .tran {tstop:.3e} s ({} points) **", res.num_points());
                if let Some(path) = vcd_path {
                    let ids: Vec<_> = names.iter().map(|n| deck.nodes[*n]).collect();
                    let mut file = std::fs::File::create(path)
                        .map_err(|e| format!("cannot create {path}: {e}"))?;
                    nemscmos::spice::vcd::write_vcd(&mut file, &fresh.circuit, &res, &ids)
                        .map_err(|e| e.to_string())?;
                    println!("wrote {path}");
                }
                if csv {
                    print!("t");
                    for n in &names {
                        print!(",v({n})");
                    }
                    println!();
                    let traces: Vec<_> =
                        names.iter().map(|n| res.voltage(deck.nodes[*n])).collect();
                    for (k, &t) in res.times().iter().enumerate() {
                        print!("{t:.6e}");
                        for tr in &traces {
                            print!(",{:.6e}", tr.values()[k]);
                        }
                        println!();
                    }
                } else {
                    for n in &names {
                        println!(
                            "v({n}) final = {:.6} V",
                            res.voltage(deck.nodes[*n]).last_value()
                        );
                    }
                }
            }
            Directive::Dc {
                source,
                start,
                stop,
                step,
            } => {
                let src = *deck
                    .sources
                    .get(source)
                    .ok_or_else(|| format!(".dc references unknown source {source}"))?;
                // The parser bounded this grid.
                let values = linear_sweep(*start, *stop, *step);
                let results = dc_sweep(&mut fresh.circuit, src, &values, &OpOptions::default())
                    .map_err(|e| e.to_string())?;
                println!("** .dc {source} **");
                print!("{source:>10}");
                for n in &names {
                    print!("{:>14}", format!("v({n})"));
                }
                println!();
                for (val, r) in values.iter().zip(results.iter()) {
                    print!("{val:>10.4}");
                    for n in &names {
                        print!("{:>14.6}", r.voltage(deck.nodes[*n]));
                    }
                    println!();
                }
            }
            Directive::Ac {
                points_per_decade,
                f_start,
                f_stop,
            } => {
                let (sname, src) = deck
                    .sources
                    .iter()
                    .next()
                    .ok_or_else(|| ".ac needs at least one voltage source".to_string())?;
                let freqs = log_sweep(*f_start, *f_stop, *points_per_decade);
                let res = ac(&mut fresh.circuit, *src, &freqs, &OpOptions::default())
                    .map_err(|e| e.to_string())?;
                println!("** .ac (driven by {sname}) **");
                print!("{:>14}", "freq (Hz)");
                for n in &names {
                    print!("{:>14}", format!("|v({n})| dB"));
                }
                println!();
                for (k, &f) in freqs.iter().enumerate() {
                    print!("{f:>14.4e}");
                    for n in &names {
                        let v = res.voltage(deck.nodes[*n])[k];
                        print!("{:>14.3}", v.db());
                    }
                    println!();
                }
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = Cli::new(
        "spicerun",
        "run a SPICE-style netlist against the nemscmos engine",
    )
    .switch("--csv", "print full .tran waveform tables as CSV")
    .value("--vcd", "dump .tran waveforms to a GTKWave-ready VCD file")
    .positionals("<deck.cir>", 1)
    .parse_or_exit();
    let csv = args.has("--csv");
    let vcd_path = args.get("--vcd").map(str::to_string);
    let path = match args.positional.first() {
        Some(p) => p.clone(),
        None => {
            eprintln!("usage: spicerun [--csv] [--vcd out.vcd] <deck.cir>");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let factory = StandardFactory::n90();
    let deck = match parse_deck(&text, &factory) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if deck.directives.is_empty() {
        eprintln!("deck has no analysis directives (.op/.tran/.dc/.ac)");
        return ExitCode::FAILURE;
    }
    match run(&deck, &text, csv, vcd_path.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("analysis error: {e}");
            ExitCode::FAILURE
        }
    }
}
