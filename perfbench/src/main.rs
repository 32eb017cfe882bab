//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sram-array|paper-figures|server-mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each invocation measures one workload
//! in its own process for at least `--seconds`, checks the program's
//! outputs, prints one line per metric and, last, one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` measures half the time untraced
//! and half traced and reports the per-layer metrics, the layers' self
//! times and the trace overhead, and writes the spans to
//! `.perfbench/traces/`. Scratch files live under `.perfbench/work-<pid>/`
//! and are removed on exit. See `README.md`.

mod figures;
mod report;
mod samples;
mod server_mix;
mod sram;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{result_line, Pass, END_TO_END, PER_LAYER};
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SramArray,
    PaperFigures,
    ServerMix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("sram-array", Workload::SramArray),
        ("paper-figures", Workload::PaperFigures),
        ("server-mix", Workload::ServerMix),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("", |(n, _)| n)
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0_f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The committed reference outputs the run checks against; empty for a
/// workload that has none.
#[derive(Default)]
struct Reference {
    probes: sram::Probes,
    sections: Vec<String>,
}

fn load_reference(workload: Workload) -> Result<Reference, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read reference {path}: {e}"))
    };
    let mut reference = Reference::default();
    match workload {
        Workload::SramArray => reference.probes = sram::parse_reference(&read(sram::REFERENCE)?)?,
        Workload::PaperFigures => {
            reference.sections = figures::sections(&read(figures::REFERENCE)?)
        }
        Workload::ServerMix => {}
    }
    Ok(reference)
}

/// Runs the workload for `seconds`.
fn measure(
    args: &Args,
    seconds: f64,
    started: Instant,
    work: &Path,
    reference: &Reference,
    tracer: &mut Tracer,
) -> Pass {
    match args.workload {
        Workload::SramArray => sram::measure(seconds, started, &reference.probes, tracer),
        Workload::PaperFigures => figures::measure(
            seconds,
            started,
            &work.join("harness-cache"),
            &reference.sections,
            tracer,
        ),
        Workload::ServerMix => server_mix::measure(seconds, started, args.seed, work, tracer),
    }
}

/// Pins the process-wide harness runner: two pool threads, a cache in
/// this run's scratch directory, no supervision knobs from outside.
/// Must run before any thread starts and before the runner is first used.
fn pin_harness_env(work: &Path) {
    std::env::set_var("NEMSCMOS_HARNESS_THREADS", figures::THREADS.to_string());
    std::env::set_var("NEMSCMOS_HARNESS_CACHE_DIR", work.join("harness-cache"));
    for knob in [
        "NEMSCMOS_HARNESS_CACHE",
        "NEMSCMOS_HARNESS_DEADLINE_MS",
        "NEMSCMOS_HARNESS_STALL_MS",
    ] {
        std::env::remove_var(knob);
    }
}

fn print_end_to_end(pass: &Pass) -> Vec<(&'static str, f64)> {
    let rows = pass.end_to_end();
    for (name, value, n) in &rows {
        let unit = END_TO_END
            .iter()
            .find(|(m, _)| m == name)
            .map_or("", |r| r.1);
        println!("{name:<16} {value:>14.6} {unit:<6} (n={n})");
    }
    rows.into_iter().map(|(n, v, _)| (n, v)).collect()
}

fn print_per_layer(
    workload: Workload,
    pass: &Pass,
    spans: &[trace::Span],
) -> Vec<(&'static str, f64)> {
    let get = |name: &str| pass.layers.get(name).copied().unwrap_or(0.0);
    println!(
        "solver ledger per unit: wall {:.4} s = numeric.solve_s {:.4} + devices.eval_s {:.4} + \
         spice.unattributed_s {:.4} (numeric.ordering_s {:.4} is inside solve)",
        get("spice.wall_s"),
        get("numeric.solve_s"),
        get("devices.eval_s"),
        get("spice.unattributed_s"),
        get("numeric.ordering_s"),
    );
    if workload == Workload::SramArray {
        println!(
            "DC Jacobian probes: order {:.2} ms | natural factor {:.2} ms (fill {}) | \
             ordered factor {:.2} ms (fill {}) | refactor {:.3} ms",
            get("numeric.order_ms"),
            get("numeric.natural_factor_ms"),
            get("numeric.natural_fill_nnz"),
            get("numeric.ordered_factor_ms"),
            get("numeric.ordered_fill_nnz"),
            get("numeric.refactor_ms"),
        );
    }
    println!("layer self time over the traced half (s):");
    for (layer, secs) in trace::layer_self_seconds(spans) {
        println!("  {layer:<12} {secs:>12.6}");
    }
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = get(name);
            println!("{name:<30} {value:>16.6} {unit}");
            (*name, value)
        })
        .collect()
}

fn run(args: &Args, started: Instant, work: &Path) -> Result<(Pass, String), String> {
    let reference = load_reference(args.workload)?;
    if !args.trace {
        let mut off = Tracer::new(false, started, 0);
        let pass = measure(args, args.seconds, started, work, &reference, &mut off);
        let metrics = print_end_to_end(&pass);
        let line = result_line(&pass, &metrics, END_TO_END);
        return Ok((pass, line));
    }
    let half = args.seconds / 2.0;
    let mut off = Tracer::new(false, started, 0);
    let plain = measure(args, half, started, work, &reference, &mut off);
    let mut tracer = Tracer::new(true, started, 1);
    let mut traced = measure(args, half, Instant::now(), work, &reference, &mut tracer);
    traced
        .layers
        .insert("trace.overhead_s", traced.run_s() - plain.run_s());
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.problems.extend(plain.problems);
    let spans = tracer.into_spans();
    let path = PathBuf::from(".perfbench/traces").join(format!(
        "{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = trace::write_json(&spans, &path) {
        traced
            .problems
            .push(format!("cannot write spans to {path:?}: {e}"));
    }
    let metrics = print_per_layer(args.workload, &traced, &spans);
    let line = result_line(&traced, &metrics, PER_LAYER);
    Ok((traced, line))
}

/// Removes this run's scratch directory, and `.perfbench` itself when
/// nothing else (traces, other runs) is left in it.
fn remove_scratch(work: &Path) {
    let _ = std::fs::remove_dir_all(work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    if args.workload == Workload::PaperFigures {
        pin_harness_env(&work);
    }
    let outcome = run(&args, started, &work);
    remove_scratch(&work);
    match outcome {
        Ok((pass, line)) => {
            for p in &pass.problems {
                eprintln!("perfbench: {}: {p}", args.workload.name());
            }
            println!("{line}");
            if pass.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload server-mix --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServerMix);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 20.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sram-array --trace 2").is_err());
        assert!(args("--workload sram-array --seconds -1").is_err());
        assert!(args("--workload sram-array --seed").is_err());
        assert!(args("--workload sram-array --frobnicate 1").is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for (name, w) in Workload::ALL {
            assert_eq!(w.name(), name);
        }
    }
}
