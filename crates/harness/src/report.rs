//! Per-job telemetry records and aggregated run reports.
//!
//! Every job the [`Runner`](crate::runner::Runner) executes produces a
//! [`JobRecord`]: where the result came from (cache or compute), which
//! retry rung finally converged, and the solver counters the job spent.
//! Records are grouped into a [`RunReport`] per experiment; reports can
//! be rendered as an aligned text table and are also published to a
//! process-global sink so binaries can drain and print them after an
//! experiment module returns only its domain results.

use std::sync::Mutex;
use std::time::Duration;

use nemscmos_spice::stats::SolverStats;

use crate::retry::Rung;
use crate::FailureKind;

/// How a job ended — the degradation contract made visible: a job either
/// succeeds outright, is rescued by the retry ladder, fails with a typed
/// diagnostic, or panics (caught at the harness boundary, never aborting
/// the batch).
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// First attempt (or cache hit) succeeded.
    Ok,
    /// A retry rung rescued the job after at least one failed attempt.
    Recovered(Rung),
    /// All applicable attempts failed; classified for the taxonomy.
    Failed {
        /// Coarse failure class.
        kind: FailureKind,
        /// The final error's display string.
        message: String,
    },
    /// The job body panicked; the payload message was captured.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl JobOutcome {
    /// Short display label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Ok => "ok",
            JobOutcome::Recovered(_) => "recovered",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::Panicked { .. } => "panic",
        }
    }

    /// Whether the job produced no result.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            JobOutcome::Failed { .. } | JobOutcome::Panicked { .. }
        )
    }

    /// The taxonomy class, if this outcome is a failure.
    pub fn failure_kind(&self) -> Option<FailureKind> {
        match self {
            JobOutcome::Failed { kind, .. } => Some(*kind),
            JobOutcome::Panicked { .. } => Some(FailureKind::Panic),
            _ => None,
        }
    }
}

/// Telemetry for one executed (or cache-served) job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Human-readable job name (also the first token of the spec).
    pub name: String,
    /// Content digest of the job spec (32 hex chars).
    pub digest: String,
    /// Whether the result was served from the cache.
    pub cached: bool,
    /// Whether the result was recovered from a run journal during a
    /// [`Runner::resume`](crate::runner::Runner::resume) — the job was
    /// completed by an earlier (killed or deadline-aborted) invocation
    /// of the same run and was not re-executed.
    pub resumed: bool,
    /// The retry rung that produced the result (`Direct` for cache hits).
    pub rung: Rung,
    /// Number of ladder attempts (0 for cache hits).
    pub attempts: u32,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Solver counters spent by this job (zero for cache hits).
    pub stats: SolverStats,
    /// Wall-clock time for the job, including retries.
    pub wall: Duration,
    /// Seconds of per-job deadline left when the job finished (negative
    /// when the budget tripped). `None` when the run had no deadline.
    pub deadline_margin: Option<f64>,
}

/// Aggregated telemetry for one experiment run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Report title (experiment name).
    pub title: String,
    /// Per-job records, in job order.
    pub jobs: Vec<JobRecord>,
    /// Wall-clock span of the whole batch (submit to last job done) —
    /// distinct from [`RunReport::total_wall`], which sums overlapping
    /// per-job times.
    pub batch_wall: Duration,
    /// Cache artifacts quarantined as corrupt while serving this run.
    pub quarantined: u64,
    /// Torn journal lines quarantined to `journal-<run-id>.jsonl.torn`
    /// while replaying this run's journal.
    pub torn: u64,
}

impl RunReport {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> RunReport {
        RunReport {
            title: title.into(),
            jobs: Vec::new(),
            batch_wall: Duration::ZERO,
            quarantined: 0,
            torn: 0,
        }
    }

    /// Number of jobs served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.jobs.iter().filter(|j| j.cached).count()
    }

    /// Number of jobs that needed at least one retry.
    pub fn retried_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.attempts > 1).count()
    }

    /// Number of jobs that produced no result (failed or panicked).
    pub fn failed_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_failure()).count()
    }

    /// Number of jobs whose body panicked.
    pub fn panicked_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Panicked { .. }))
            .count()
    }

    /// Number of jobs recovered from a run journal (not re-executed).
    pub fn resumed_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.resumed).count()
    }

    /// Number of jobs cancelled cooperatively (user or supervisor).
    pub fn cancelled_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome.failure_kind() == Some(FailureKind::Cancelled))
            .count()
    }

    /// Number of jobs stopped by a deadline, iteration cap, or the
    /// stall watchdog.
    pub fn deadline_exceeded_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome.failure_kind() == Some(FailureKind::Deadline))
            .count()
    }

    /// Failure counts by class, most frequent first (ties by class
    /// order). Empty when every job produced a result.
    pub fn failure_taxonomy(&self) -> Vec<(FailureKind, usize)> {
        let mut counts: Vec<(FailureKind, usize)> = Vec::new();
        for j in &self.jobs {
            if let Some(kind) = j.outcome.failure_kind() {
                match counts.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((kind, 1)),
                }
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }

    /// Sum of solver counters across all jobs.
    pub fn total_stats(&self) -> SolverStats {
        self.jobs
            .iter()
            .fold(SolverStats::default(), |acc, j| acc + j.stats)
    }

    /// Total wall time across jobs (sum, not span — jobs overlap when
    /// the pool is parallel).
    pub fn total_wall(&self) -> Duration {
        self.jobs.iter().map(|j| j.wall).sum()
    }

    /// Renders an aligned text table of the per-job telemetry plus a
    /// summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== harness report: {} ==\n", self.title));
        if self.jobs.is_empty() {
            out.push_str("(no jobs)\n");
            return out;
        }
        let name_w = self
            .jobs
            .iter()
            .map(|j| j.name.len())
            .chain(["job".len()])
            .max()
            .unwrap_or(3);
        let with_margin = self.jobs.iter().any(|j| j.deadline_margin.is_some());
        out.push_str(&format!(
            "{:<name_w$}  {:>7}  {:>8}  {:>9}  {:>8}  {:>8}  {:>8}  {:>8}  {:>9}",
            "job", "src", "rung", "outcome", "newton", "lu", "rej", "acc", "wall"
        ));
        if with_margin {
            out.push_str(&format!("  {:>9}", "margin"));
        }
        out.push('\n');
        for j in &self.jobs {
            let src = if j.resumed {
                "journal"
            } else if j.cached {
                "cache"
            } else {
                "solve"
            };
            out.push_str(&format!(
                "{:<name_w$}  {:>7}  {:>8}  {:>9}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8.1}ms",
                j.name,
                src,
                if j.cached || j.resumed {
                    "-"
                } else {
                    j.rung.label()
                },
                j.outcome.label(),
                j.stats.newton_iterations,
                j.stats.lu_factorizations,
                j.stats.step_rejections,
                j.stats.steps_accepted,
                j.wall.as_secs_f64() * 1e3,
            ));
            if with_margin {
                match j.deadline_margin {
                    Some(m) => out.push_str(&format!("  {:>+8.1}ms", m * 1e3)),
                    None => out.push_str(&format!("  {:>9}", "-")),
                }
            }
            out.push('\n');
        }
        let t = self.total_stats();
        out.push_str(&format!(
            "total: {} jobs ({} cached, {} retried, {} failed) | newton {} | \
             lu {} | rejected {} | accepted {} | nonconv {} | wall {:.1}ms\n",
            self.jobs.len(),
            self.cache_hits(),
            self.retried_jobs(),
            self.failed_jobs(),
            t.newton_iterations,
            t.lu_factorizations,
            t.step_rejections,
            t.steps_accepted,
            t.nonconvergence_events,
            self.total_wall().as_secs_f64() * 1e3,
        ));
        // Incremental linear-algebra telemetry, shown only when one of its
        // counters moved (a batch served entirely from the cache keeps the
        // shorter report shape).
        if t.slot_cache_hits + t.symbolic_reuses + t.refactor_fallbacks + t.bypass_solves > 0 {
            out.push_str(&format!(
                "fast path: slot-cache hits {} | symbolic reuses {} | refactor fallbacks {} | \
                 bypass solves {}\n",
                t.slot_cache_hits, t.symbolic_reuses, t.refactor_fallbacks, t.bypass_solves,
            ));
        }
        let (resumed, cancelled, deadlined) = (
            self.resumed_jobs(),
            self.cancelled_jobs(),
            self.deadline_exceeded_jobs(),
        );
        if !self.batch_wall.is_zero()
            || resumed + cancelled + deadlined > 0
            || self.quarantined + self.torn > 0
        {
            out.push_str(&format!(
                "supervision: batch wall {:.1}ms | resumed {resumed} | cancelled {cancelled} | \
                 deadline-exceeded {deadlined} | quarantined {} | torn {}\n",
                self.batch_wall.as_secs_f64() * 1e3,
                self.quarantined,
                self.torn,
            ));
        }
        let taxonomy = self.failure_taxonomy();
        if !taxonomy.is_empty() {
            let classes: Vec<String> = taxonomy
                .iter()
                .map(|(k, n)| format!("{} {n}", k.label()))
                .collect();
            out.push_str(&format!("failure taxonomy: {}\n", classes.join(" | ")));
            for j in self.jobs.iter().filter(|j| j.outcome.is_failure()) {
                let detail = match &j.outcome {
                    JobOutcome::Failed { message, .. } | JobOutcome::Panicked { message } => {
                        message.as_str()
                    }
                    _ => unreachable!("is_failure covers Failed | Panicked"),
                };
                out.push_str(&format!("  {}: {detail}\n", j.name));
            }
        }
        out
    }
}

/// Aggregates the supervision counters of several reports into one
/// summary line — binaries print this after draining the sink so a long
/// multi-experiment run ends with the batch wall time and the
/// resumed / cancelled / deadline-exceeded / quarantined totals in one
/// place.
pub fn supervision_totals(reports: &[RunReport]) -> String {
    let batch_wall: Duration = reports.iter().map(|r| r.batch_wall).sum();
    let sum = |f: fn(&RunReport) -> usize| reports.iter().map(f).sum::<usize>();
    format!(
        "supervision totals: {} run(s) | batch wall {:.1}ms | resumed {} | cancelled {} | \
         deadline-exceeded {} | quarantined {} | torn {}",
        reports.len(),
        batch_wall.as_secs_f64() * 1e3,
        sum(RunReport::resumed_jobs),
        sum(RunReport::cancelled_jobs),
        sum(RunReport::deadline_exceeded_jobs),
        reports.iter().map(|r| r.quarantined).sum::<u64>(),
        reports.iter().map(|r| r.torn).sum::<u64>(),
    )
}

/// Process-global report sink.
///
/// Experiment functions keep their domain-level signatures (returning
/// figures/summaries); the harness publishes the matching [`RunReport`]
/// here, and binaries drain and print after running the sweep.
static SINK: Mutex<Vec<RunReport>> = Mutex::new(Vec::new());

/// Publishes a report to the global sink.
pub fn publish(report: RunReport) {
    SINK.lock().expect("report sink poisoned").push(report);
}

/// Drains all published reports, oldest first.
pub fn drain() -> Vec<RunReport> {
    std::mem::take(&mut *SINK.lock().expect("report sink poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, cached: bool, newton: u64) -> JobRecord {
        JobRecord {
            name: name.into(),
            digest: "0".repeat(32),
            cached,
            resumed: false,
            rung: Rung::Direct,
            attempts: u32::from(!cached),
            outcome: JobOutcome::Ok,
            stats: SolverStats {
                newton_iterations: newton,
                ..Default::default()
            },
            wall: Duration::from_millis(2),
            deadline_margin: None,
        }
    }

    fn failed_record(name: &str, outcome: JobOutcome) -> JobRecord {
        JobRecord {
            outcome,
            ..record(name, false, 0)
        }
    }

    #[test]
    fn aggregates_counters_and_hits() {
        let mut r = RunReport::new("fig10");
        r.jobs.push(record("or2", false, 40));
        r.jobs.push(record("or4", true, 0));
        r.jobs.push(record("or8", false, 55));
        assert_eq!(r.cache_hits(), 1);
        assert_eq!(r.retried_jobs(), 0);
        assert_eq!(r.total_stats().newton_iterations, 95);
        assert_eq!(r.total_wall(), Duration::from_millis(6));
    }

    #[test]
    fn render_contains_rows_and_summary() {
        let mut r = RunReport::new("sweep");
        r.jobs.push(record("job-a", false, 12));
        r.jobs.push(record("job-b", true, 0));
        let text = r.render();
        assert!(text.contains("harness report: sweep"));
        assert!(text.contains("job-a"));
        assert!(text.contains("cache"));
        assert!(text.contains("solve"));
        assert!(text.contains("total: 2 jobs (1 cached, 0 retried, 0 failed)"));
        assert!(!text.contains("failure taxonomy"));
        // No fast-path counters in these records → no fast-path line.
        assert!(!text.contains("fast path:"));
    }

    #[test]
    fn render_shows_fast_path_line_when_engaged() {
        let mut r = RunReport::new("sweep");
        let mut j = record("job-a", false, 12);
        j.stats.slot_cache_hits = 10;
        j.stats.symbolic_reuses = 9;
        j.stats.refactor_fallbacks = 1;
        j.stats.bypass_solves = 4;
        r.jobs.push(j);
        let text = r.render();
        assert!(text.contains(
            "fast path: slot-cache hits 10 | symbolic reuses 9 | refactor fallbacks 1 | \
             bypass solves 4"
        ));
    }

    #[test]
    fn taxonomy_counts_and_orders_failure_classes() {
        let mut r = RunReport::new("soak");
        r.jobs.push(record("fine", false, 5));
        r.jobs.push(failed_record(
            "sing-1",
            JobOutcome::Failed {
                kind: FailureKind::Singular,
                message: "pivot collapsed".into(),
            },
        ));
        r.jobs.push(failed_record(
            "sing-2",
            JobOutcome::Failed {
                kind: FailureKind::Singular,
                message: "pivot collapsed again".into(),
            },
        ));
        r.jobs.push(failed_record(
            "boom",
            JobOutcome::Panicked {
                message: "index out of bounds".into(),
            },
        ));
        assert_eq!(r.failed_jobs(), 3);
        assert_eq!(r.panicked_jobs(), 1);
        assert_eq!(
            r.failure_taxonomy(),
            vec![(FailureKind::Singular, 2), (FailureKind::Panic, 1)]
        );
        let text = r.render();
        assert!(
            text.contains("failure taxonomy: singular 2 | panic 1"),
            "{text}"
        );
        assert!(text.contains("boom: index out of bounds"), "{text}");
    }

    #[test]
    fn recovered_outcome_labels_and_classifies() {
        let o = JobOutcome::Recovered(Rung::TightGmin);
        assert_eq!(o.label(), "recovered");
        assert!(!o.is_failure());
        assert_eq!(o.failure_kind(), None);
        let p = JobOutcome::Panicked {
            message: "x".into(),
        };
        assert_eq!(p.failure_kind(), Some(FailureKind::Panic));
    }

    #[test]
    fn empty_report_renders() {
        assert!(RunReport::new("empty").render().contains("(no jobs)"));
    }

    #[test]
    fn supervision_summary_counts_resumed_and_interrupted_jobs() {
        let mut r = RunReport::new("resume");
        r.batch_wall = Duration::from_millis(120);
        r.quarantined = 1;
        let mut resumed = record("from-journal", false, 0);
        resumed.resumed = true;
        r.jobs.push(resumed);
        r.jobs.push(failed_record(
            "too-slow",
            JobOutcome::Failed {
                kind: FailureKind::Deadline,
                message: "budget exhausted".into(),
            },
        ));
        r.jobs.push(failed_record(
            "stopped",
            JobOutcome::Failed {
                kind: FailureKind::Cancelled,
                message: "solve cancelled".into(),
            },
        ));
        assert_eq!(r.resumed_jobs(), 1);
        assert_eq!(r.deadline_exceeded_jobs(), 1);
        assert_eq!(r.cancelled_jobs(), 1);
        r.torn = 2;
        let text = r.render();
        assert!(text.contains("journal"), "{text}");
        assert!(
            text.contains(
                "supervision: batch wall 120.0ms | resumed 1 | cancelled 1 | \
                 deadline-exceeded 1 | quarantined 1 | torn 2"
            ),
            "{text}"
        );
    }

    #[test]
    fn margin_column_appears_only_under_a_deadline() {
        let mut r = RunReport::new("deadline-cols");
        r.jobs.push(record("plain", false, 1));
        assert!(!r.render().contains("margin"));
        r.jobs[0].deadline_margin = Some(0.25);
        let text = r.render();
        assert!(text.contains("margin"), "{text}");
        assert!(text.contains("+250.0ms"), "{text}");
        r.jobs[0].deadline_margin = Some(-0.050);
        assert!(r.render().contains("-50.0ms"));
    }

    #[test]
    fn supervision_totals_fold_across_reports() {
        let mut a = RunReport::new("a");
        a.batch_wall = Duration::from_millis(30);
        let mut resumed = record("r", false, 0);
        resumed.resumed = true;
        a.jobs.push(resumed);
        let mut b = RunReport::new("b");
        b.batch_wall = Duration::from_millis(70);
        b.quarantined = 2;
        b.torn = 1;
        b.jobs.push(failed_record(
            "d",
            JobOutcome::Failed {
                kind: FailureKind::Deadline,
                message: "late".into(),
            },
        ));
        assert_eq!(
            supervision_totals(&[a, b]),
            "supervision totals: 2 run(s) | batch wall 100.0ms | resumed 1 | cancelled 0 | \
             deadline-exceeded 1 | quarantined 2 | torn 1"
        );
    }

    #[test]
    fn quiet_reports_omit_the_supervision_line() {
        let mut r = RunReport::new("quiet");
        r.jobs.push(record("j", false, 1));
        assert!(!r.render().contains("supervision:"));
    }

    #[test]
    fn sink_publish_and_drain() {
        // Other tests use the same process-global sink; tag our reports
        // and only assert about those.
        publish(RunReport::new("sink-test-1"));
        publish(RunReport::new("sink-test-2"));
        let mine: Vec<_> = drain()
            .into_iter()
            .filter(|r| r.title.starts_with("sink-test-"))
            .collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].title, "sink-test-1");
        assert_eq!(mine[1].title, "sink-test-2");
    }
}
