//! `paper-figures`: regenerates every table and figure of the paper
//! through the experiment modules and the harness, cold.
//!
//! Each unit of work empties the harness result cache (set-up), then
//! renders table 1 and figures 1, 2, 9–12, 14, 15 and 17 plus the
//! gated-block companion exactly as `bin/all` prints them, and drains
//! the harness job records. Harness jobs computed in the unit are fresh
//! jobs; jobs that a later figure shares with an earlier one (fig11 and
//! fig12 reuse fig10's gate points) are served from the cache the unit
//! itself filled, and are its repeated jobs.
//!
//! The harness runner is process-wide and configured from the
//! environment on first use; `main` pins its thread count and cache
//! directory before anything else runs.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use nemscmos::tech::Technology;
use nemscmos_bench::experiments::{device_tables, dynamic_or, sleep, sram};
use nemscmos_harness::{drain_reports, RunReport, Runner};
use nemscmos_spice::stats::SolverStats;

use crate::report::{solver_rows, Pass};
use crate::trace::Tracer;

/// Harness pool threads.
pub const THREADS: usize = 2;
/// Rendered tables, byte for byte, committed with the benchmark.
pub const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference/paper-figures.txt");

type Render = fn(&Technology) -> Result<String, String>;

/// `(per-figure metric, section header, renderer)` in `bin/all` order.
pub const FIGURES: &[(&str, &str, Render)] = &[
    (
        "experiments.table1_s",
        "Table 1 — device currents",
        |_| Ok(device_tables::render_table1()),
    ),
    ("experiments.fig01_s", "Figure 1 — scaling trend", |_| {
        Ok(device_tables::render_fig01())
    }),
    ("experiments.fig02_s", "Figure 2 — swing survey", |_| {
        Ok(device_tables::render_fig02())
    }),
    (
        "experiments.fig09_s",
        "Figure 9 — keeper trade-off",
        |t| {
            dynamic_or::fig09(t)
                .map(|c| dynamic_or::render_fig09(&c))
                .map_err(|e| e.to_string())
        },
    ),
    ("experiments.fig10_s", "Figure 10 — OR vs fan-out", |t| {
        dynamic_or::fig10(t)
            .map(|p| dynamic_or::render_fig10(&p))
            .map_err(|e| e.to_string())
    }),
    ("experiments.fig11_s", "Figure 11 — OR vs fan-in", |t| {
        dynamic_or::fig11(t)
            .map(|p| dynamic_or::render_fig11(&p))
            .map_err(|e| e.to_string())
    }),
    (
        "experiments.fig12_s",
        "Figure 12 — PDP vs activity",
        |t| {
            dynamic_or::fig12(t)
                .map(|d| dynamic_or::render_fig12(&d))
                .map_err(|e| e.to_string())
        },
    ),
    ("experiments.fig14_s", "Figure 14 — SRAM SNM", |t| {
        sram::fig14(t)
            .map(|r| sram::render_fig14(&r))
            .map_err(|e| e.to_string())
    }),
    (
        "experiments.fig15_s",
        "Figure 15 — SRAM latency/leakage",
        |t| {
            sram::fig15(t)
                .map(|r| sram::render_fig15(&r))
                .map_err(|e| e.to_string())
        },
    ),
    ("experiments.fig17_s", "Figure 17 — sleep devices", |t| {
        Ok(sleep::render_fig17(&sleep::fig17(t)))
    }),
    ("experiments.gated_block_s", "Gated-block companion", |t| {
        sleep::gated_block_study(t).map_err(|e| e.to_string())
    }),
];

/// The figure's short name (`fig09`) from its metric name.
fn key(metric: &str) -> &str {
    metric
        .trim_start_matches("experiments.")
        .trim_end_matches("_s")
}

/// One section as `bin/all` prints it.
fn section(header: &str, body: &str) -> String {
    format!("=== {header} ===\n{body}\n")
}

/// Splits rendered text into its `=== … ===` sections.
pub fn sections(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in text.split_inclusive('\n') {
        match out.last_mut() {
            Some(cur) if !line.starts_with("=== ") => cur.push_str(line),
            _ => out.push(line.to_string()),
        }
    }
    out
}

/// The keys of the figures whose rendering differs from the reference.
pub fn mismatches(rendered: &[String], reference: &[String]) -> Vec<&'static str> {
    FIGURES
        .iter()
        .enumerate()
        .filter(|(i, _)| rendered.get(*i) != reference.get(*i))
        .map(|(_, (metric, _, _))| key(metric))
        .collect()
}

/// One cold regeneration: sections, per-figure walls and the drained
/// harness reports.
struct Regeneration {
    sections: Vec<String>,
    figure_s: Vec<f64>,
    reports: Vec<RunReport>,
    errors: Vec<String>,
}

fn regenerate(tech: &Technology, tracer: &mut Tracer) -> Regeneration {
    let mut regen = Regeneration {
        sections: Vec::new(),
        figure_s: Vec::new(),
        reports: Vec::new(),
        errors: Vec::new(),
    };
    for (metric, header, render) in FIGURES {
        let key = key(metric);
        let t = Instant::now();
        let body = tracer.span(&format!("experiments.{key}"), |_| render(tech));
        regen.figure_s.push(t.elapsed().as_secs_f64());
        match body {
            Ok(body) => regen.sections.push(section(header, &body)),
            Err(e) => {
                regen.errors.push(format!("{key} failed: {e}"));
                regen.sections.push(String::new());
            }
        }
    }
    regen.reports = tracer.span("harness.drain_reports", |_| drain_reports());
    regen
}

/// Empties the result cache and readies the runner.
fn prepare(cache_dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(cache_dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot empty the harness cache {cache_dir:?}: {e}")),
    }
    let runner = Runner::global();
    if runner.threads() != THREADS {
        return Err(format!(
            "harness runs {} threads, not {THREADS}",
            runner.threads()
        ));
    }
    // Reports a previous unit left behind would be charged to this one.
    drain_reports();
    Ok(())
}

/// Runs cold regenerations for at least `seconds` (one at minimum).
pub fn measure(
    seconds: f64,
    started: Instant,
    cache_dir: &Path,
    reference: &[String],
    tracer: &mut Tracer,
) -> Pass {
    let tech = Technology::n90();
    let mut pass = Pass::default();
    let mut figure_s = vec![0.0; FIGURES.len()];
    let mut totals = HarnessTotals::default();
    let mut setup_from = started;
    let loop_start = Instant::now();
    while pass.attempted == 0 || loop_start.elapsed().as_secs_f64() < seconds {
        if let Err(e) = prepare(cache_dir) {
            pass.attempted += 1;
            pass.fail(e);
            break;
        }
        pass.setup_s.push(setup_from.elapsed().as_secs_f64());
        let t = Instant::now();
        let regen = regenerate(&tech, tracer);
        let wall = t.elapsed().as_secs_f64();
        pass.push_unit(wall);
        pass.busy_s += wall;
        for (sum, s) in figure_s.iter_mut().zip(&regen.figure_s) {
            *sum += s;
        }

        pass.attempted += FIGURES.len() as u64;
        for e in &regen.errors {
            pass.fail(e.clone());
        }
        for key in mismatches(&regen.sections, reference) {
            pass.fail(format!("{key}: rendered table differs from the reference"));
        }
        totals.add(&regen.reports, &mut pass);
        setup_from = Instant::now();
    }
    let units = pass.unit_s.len().max(1) as f64;
    for ((metric, _, _), sum) in FIGURES.iter().zip(&figure_s) {
        pass.layers.insert(metric, sum / units);
    }
    totals.ledger(&mut pass, units);
    pass
}

/// Harness records summed over a pass.
#[derive(Default)]
struct HarnessTotals {
    jobs: u64,
    job_wall_s: f64,
    batch_wall_s: f64,
    cache_hits: u64,
    retries: u64,
    stats: SolverStats,
}

impl HarnessTotals {
    /// Folds one regeneration's reports in, recording job latencies and
    /// failures on `pass`. Every cache hit must be a job an earlier
    /// figure of the same unit computed: anything else was served from
    /// a cache that was not empty.
    fn add(&mut self, reports: &[RunReport], pass: &mut Pass) {
        let mut computed = HashSet::new();
        for report in reports {
            self.batch_wall_s += report.batch_wall.as_secs_f64();
            self.cache_hits += report.cache_hits() as u64;
            self.retries += report.retried_jobs() as u64;
            self.stats += report.total_stats();
            for job in &report.jobs {
                self.jobs += 1;
                self.job_wall_s += job.wall.as_secs_f64();
                pass.attempted += 1;
                let ms = job.wall.as_secs_f64() * 1e3;
                if job.cached {
                    pass.repeat_ms.push(ms);
                    if !computed.contains(&job.digest) {
                        pass.fail(format!(
                            "{}/{}: served from a cache that should be empty",
                            report.title, job.name
                        ));
                    }
                } else {
                    pass.fresh_ms.push(ms);
                    computed.insert(job.digest.clone());
                }
                if job.outcome.is_failure() {
                    pass.fail(format!(
                        "{}/{}: {}",
                        report.title,
                        job.name,
                        job.outcome.label()
                    ));
                }
            }
        }
    }

    /// Per-regeneration ledger rows. Solver counters and job walls are
    /// summed over the pool threads, so `spice.wall_s` is job time, not
    /// elapsed time.
    fn ledger(&self, pass: &mut Pass, units: f64) {
        pass.layers
            .extend(solver_rows(&self.stats, units, self.job_wall_s));
        pass.layers.extend([
            ("harness.jobs", self.jobs as f64 / units),
            ("harness.job_wall_sum_s", self.job_wall_s / units),
            ("harness.batch_wall_s", self.batch_wall_s / units),
            (
                "harness.pool_busy_share",
                self.job_wall_s / (THREADS as f64 * self.batch_wall_s),
            ),
            ("harness.cache_hits", self.cache_hits as f64 / units),
            ("harness.retries", self.retries as f64 / units),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_split_at_headers() {
        let text = "=== A ===\nrow 1\nrow 2\n\n=== B ===\nx\n\n";
        assert_eq!(
            sections(text),
            ["=== A ===\nrow 1\nrow 2\n\n", "=== B ===\nx\n\n"]
        );
        assert_eq!(sections(&section("A", "row")), ["=== A ===\nrow\n"]);
    }

    #[test]
    fn a_wrong_reference_names_the_figure() {
        let rendered: Vec<String> = FIGURES
            .iter()
            .map(|(_, header, _)| section(header, "body"))
            .collect();
        assert!(mismatches(&rendered, &rendered).is_empty());

        let mut wrong = rendered.clone();
        wrong[4] = section(FIGURES[4].1, "bodY");
        assert_eq!(mismatches(&rendered, &wrong), ["fig10"]);
        // A truncated reference fails every figure it lacks.
        assert_eq!(
            mismatches(&rendered, &wrong[..9]),
            ["fig10", "fig17", "gated_block"]
        );
    }

    #[test]
    fn committed_reference_has_every_figure() {
        let text = std::fs::read_to_string(REFERENCE).unwrap();
        let got = sections(&text);
        assert_eq!(got.len(), FIGURES.len());
        for (s, (_, header, _)) in got.iter().zip(FIGURES) {
            assert!(s.starts_with(&format!("=== {header} ===\n")), "{s:.40}");
        }
        for (metric, _, _) in FIGURES {
            assert!(
                crate::report::PER_LAYER.iter().any(|(m, _)| m == metric),
                "{metric}"
            );
        }
        assert_eq!(key("experiments.gated_block_s"), "gated_block");
    }
}
