//! Prints sections of the paper's evaluation by id, then the harness
//! telemetry: `repro all` regenerates every table and figure,
//! `repro fig10 fig10-headline` one figure and its headline numbers.
//! The ids are those of [`nemscmos_bench::experiments::registry`]; an
//! unknown one exits 2 and lists them.

use std::process::exit;

use nemscmos::tech::Technology;
use nemscmos_bench::cli::Cli;
use nemscmos_bench::experiments::registry;
use nemscmos_harness::drain_reports;

fn main() {
    let args = Cli::new(
        "repro",
        "prints sections of the paper's evaluation by section or group id",
    )
    .positionals("ID...", usize::MAX)
    .parse_or_exit();
    let sections =
        registry::resolve(args.positional.iter().map(String::as_str)).unwrap_or_else(|e| {
            eprintln!("repro: {e}\n{}", registry::id_list());
            exit(2);
        });
    let tech = Technology::n90();
    let mut failures = 0;
    for section in sections {
        match section.render(&tech) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("{} failed: {e}", section.id);
                failures += 1;
            }
        }
    }

    println!("=== Harness telemetry ===");
    let reports = drain_reports();
    for report in &reports {
        println!("{}", report.render());
    }
    println!("{}", nemscmos_harness::supervision_totals(&reports));

    if failures > 0 {
        eprintln!("{failures} section(s) failed");
        exit(1);
    }
}
