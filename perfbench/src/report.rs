//! The metric tables, one pass's measurements, and the result line.

use std::collections::BTreeMap;

use nemscmos_harness::Json;
use nemscmos_spice::stats::SolverStats;

use crate::samples::{median, tail};

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("jobs_per_s", "1/s"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("repeat_p50_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run (zero
/// where the workload does not reach the layer). Must match `per_layer`
/// in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("numeric.solve_s", "s"),
    ("numeric.ordering_s", "s"),
    ("numeric.fill_nnz", "count"),
    ("numeric.lu", "count"),
    ("numeric.symbolic_reuses", "count"),
    ("numeric.refactor_fallbacks", "count"),
    ("numeric.bypass_solves", "count"),
    ("numeric.order_ms", "ms"),
    ("numeric.natural_factor_ms", "ms"),
    ("numeric.ordered_factor_ms", "ms"),
    ("numeric.refactor_ms", "ms"),
    ("numeric.natural_fill_nnz", "count"),
    ("numeric.ordered_fill_nnz", "count"),
    ("devices.eval_s", "s"),
    ("devices.batched_evals", "count"),
    ("devices.eval_share", "share"),
    ("spice.newton", "count"),
    ("spice.steps_accepted", "count"),
    ("spice.step_rejections", "count"),
    ("spice.slot_cache_hits", "count"),
    ("spice.us_per_newton", "us"),
    ("spice.unattributed_s", "s"),
    ("spice.wall_s", "s"),
    ("gen.build_s", "s"),
    ("experiments.table1_s", "s"),
    ("experiments.fig01_s", "s"),
    ("experiments.fig02_s", "s"),
    ("experiments.fig09_s", "s"),
    ("experiments.fig10_s", "s"),
    ("experiments.fig11_s", "s"),
    ("experiments.fig12_s", "s"),
    ("experiments.fig14_s", "s"),
    ("experiments.fig15_s", "s"),
    ("experiments.fig17_s", "s"),
    ("experiments.gated_block_s", "s"),
    ("harness.jobs", "count"),
    ("harness.job_wall_sum_s", "s"),
    ("harness.batch_wall_s", "s"),
    ("harness.pool_busy_share", "share"),
    ("harness.cache_hits", "count"),
    ("harness.retries", "count"),
    ("server.accept_ms", "ms"),
    ("server.exec_ms", "ms"),
    ("server.result_probe_ms", "ms"),
    ("server.journal_bytes_per_job", "B"),
    ("server.queue_depth_max", "count"),
    ("server.rejected", "count"),
    ("server.shed", "count"),
    ("server.degraded", "count"),
    ("server.repeat_share", "share"),
    ("trace.overhead_s", "s"),
];

/// What one timed pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up samples (s): workload start, or a repeated set-up, to the
    /// first timed operation after it.
    pub setup_s: Vec<f64>,
    /// Wall of each unit of work (s); see [`Pass::push_unit`].
    pub unit_s: Vec<f64>,
    /// Peak resident memory of the process through its first unit of
    /// work (MiB).
    pub first_unit_rss_mb: f64,
    /// Latency of each fresh job (ms).
    pub fresh_ms: Vec<f64>,
    /// Latency of each repeated job (ms). Left empty by a workload whose
    /// path has no result cache, where a repeat costs a fresh job: its
    /// `repeat_p50_ms` then reads the fresh jobs.
    pub repeat_ms: Vec<f64>,
    /// Wall the jobs ran in (s), for the completion rate.
    pub busy_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, shed or answered wrongly.
    pub failed: u64,
    /// Why each failure counted (also the correctness verdict).
    pub problems: Vec<String>,
    /// Per-layer values, per unit of work.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Counts one failed operation and says why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Records one unit's wall. After the first unit, also records the
    /// process's peak resident memory: later units reuse the heap the
    /// first one grew, and the peak over a whole run creeps up by heap
    /// fragmentation in steps that depend on how many units the run's
    /// length allowed, so a faster program would read as a bigger one.
    pub fn push_unit(&mut self, wall_s: f64) {
        if self.unit_s.is_empty() {
            self.first_unit_rss_mb = peak_rss_mb();
        }
        self.unit_s.push(wall_s);
    }

    /// Median unit wall (s).
    pub fn run_s(&self) -> f64 {
        median(&self.unit_s).unwrap_or(f64::NAN)
    }

    /// The end-to-end metrics `(name, value, samples)`.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, usize)> {
        let jobs = (self.fresh_ms.len() + self.repeat_ms.len()) as f64;
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        let pct = |s: &[f64], p| tail(s, p).unwrap_or(f64::NAN);
        let repeat_ms = if self.repeat_ms.is_empty() {
            &self.fresh_ms
        } else {
            &self.repeat_ms
        };
        vec![
            (
                "setup_s",
                median(&self.setup_s).unwrap_or(f64::NAN),
                self.setup_s.len(),
            ),
            ("run_s", self.run_s(), self.unit_s.len()),
            ("jobs_per_s", jobs / self.busy_s, jobs as usize),
            (
                "fresh_p50_ms",
                pct(&self.fresh_ms, 50.0),
                self.fresh_ms.len(),
            ),
            (
                "fresh_p90_ms",
                pct(&self.fresh_ms, 90.0),
                self.fresh_ms.len(),
            ),
            ("repeat_p50_ms", pct(repeat_ms, 50.0), repeat_ms.len()),
            ("ok_share", ok, self.attempted as usize),
            ("peak_rss_mb", self.first_unit_rss_mb, 1),
        ]
    }
}

/// The solver ledger rows of `units` units of work that spent `st` in
/// `wall_s` seconds of solver time, per unit. Eval + solve +
/// unattributed sums to the wall; ordering is timed inside the solve
/// bracket, so it is a part of `numeric.solve_s`, not a row of its own.
pub fn solver_rows(st: &SolverStats, units: f64, wall_s: f64) -> [(&'static str, f64); 17] {
    let per = |v: u64| v as f64 / units;
    let wall = wall_s / units;
    let eval_s = per(st.device_eval_ns) * 1e-9;
    let solve_s = per(st.linear_solve_ns) * 1e-9;
    [
        ("numeric.solve_s", solve_s),
        ("numeric.ordering_s", per(st.ordering_ns) * 1e-9),
        ("numeric.fill_nnz", per(st.fill_nnz)),
        ("numeric.lu", per(st.lu_factorizations)),
        ("numeric.symbolic_reuses", per(st.symbolic_reuses)),
        ("numeric.refactor_fallbacks", per(st.refactor_fallbacks)),
        ("numeric.bypass_solves", per(st.bypass_solves)),
        ("devices.eval_s", eval_s),
        ("devices.batched_evals", per(st.batched_evals)),
        ("devices.eval_share", eval_s / wall),
        ("spice.newton", per(st.newton_iterations)),
        ("spice.steps_accepted", per(st.steps_accepted)),
        ("spice.step_rejections", per(st.step_rejections)),
        ("spice.slot_cache_hits", per(st.slot_cache_hits)),
        (
            "spice.us_per_newton",
            wall * 1e6 / per(st.newton_iterations).max(1.0),
        ),
        ("spice.unattributed_s", wall - eval_s - solve_s),
        ("spice.wall_s", wall),
    ]
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(pass: &Pass, metrics: &[(&str, f64)], units: &[(&str, &str)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value)| {
            let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
            (
                (*name).to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(pass.problems.is_empty())),
        ("attempted".into(), Json::Int(pass.attempted as i64)),
        ("failed".into(), Json::Int(pass.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// Peak resident set of this process so far, in MiB, from the kernel's
/// high-water mark for the process image (`VmHWM`). `getrusage` is not
/// used: its `ru_maxrss` carries over the peak of the process that
/// forked and exec'd this one (here, `cargo run`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names in `BENCHMARK.json`, in file order, for one metric list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn end_to_end_covers_every_declared_metric() {
        let pass = Pass {
            setup_s: vec![0.5],
            unit_s: vec![1.0, 3.0, 2.0],
            fresh_ms: vec![4.0; 3],
            repeat_ms: vec![1.0],
            busy_s: 2.0,
            first_unit_rss_mb: 12.0,
            attempted: 4,
            failed: 1,
            ..Pass::default()
        };
        let rows = pass.end_to_end();
        let names: Vec<&str> = rows.iter().map(|r| r.0).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|r| r.0).collect();
        assert_eq!(names, expected);
        let value = |n| rows.iter().find(|r| r.0 == n).unwrap().1;
        assert_eq!(value("run_s"), 2.0);
        assert_eq!(value("jobs_per_s"), 2.0);
        assert_eq!(value("ok_share"), 0.75);
        assert_eq!(value("peak_rss_mb"), 12.0);
        assert_eq!(value("repeat_p50_ms"), 1.0);

        // Without a repeat path, repeats read the fresh jobs.
        let no_cache = Pass {
            fresh_ms: vec![4.0, 6.0],
            busy_s: 1.0,
            ..Pass::default()
        };
        let rows = no_cache.end_to_end();
        let value = |n| rows.iter().find(|r| r.0 == n).unwrap().1;
        assert_eq!(value("repeat_p50_ms"), 5.0);
        assert_eq!(value("jobs_per_s"), 2.0);
    }

    #[test]
    fn peak_rss_is_taken_after_the_first_unit() {
        assert!(peak_rss_mb() > 0.0);
        let mut pass = Pass::default();
        pass.push_unit(1.0);
        let first = pass.first_unit_rss_mb;
        assert!(first > 0.0);
        // Memory a later unit touches does not move the reading.
        let later = std::hint::black_box(vec![1u8; 64 << 20]);
        pass.push_unit(2.0);
        assert_eq!(pass.first_unit_rss_mb, first);
        assert!(peak_rss_mb() >= first + 60.0);
        drop(later);
        assert_eq!(pass.unit_s, [1.0, 2.0]);
    }
}
