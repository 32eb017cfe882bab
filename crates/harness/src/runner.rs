//! Job specification and the orchestrating [`Runner`].
//!
//! A [`JobSpec`] names a job and carries its *spec string* — the
//! canonical rendering of everything that determines the result. The
//! [`Runner`] executes a batch of specs across the work-stealing pool,
//! consulting the content-addressed cache first and escalating through
//! the retry ladder on non-convergence, and publishes a [`RunReport`]
//! with per-job telemetry.
//!
//! Two supervision layers ride on top:
//!
//! * [`Runner::with_supervision`] installs a per-job
//!   [`Budget`](nemscmos_spice::budget::Budget) (deadline, iteration
//!   caps) around each job's whole retry ladder, and — when a stall
//!   timeout is configured — spawns a per-batch
//!   [`Watchdog`] that cancels jobs whose
//!   heartbeat stops progressing. Interrupted jobs fail with typed
//!   [`SpiceError`](nemscmos_spice::SpiceError) interrupts carrying
//!   partial telemetry; the rest of the batch keeps running.
//! * [`Runner::with_journal`] / [`Runner::resume`] make batches
//!   crash-safe: every completed job is fsync'd to an append-only
//!   [`Journal`], and a resumed run re-executes
//!   only the jobs that never landed — bitwise-identically, thanks to
//!   deterministic per-spec seeding.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use nemscmos_spice::budget::{self, InterruptFlag};
use nemscmos_spice::faults::{self, FaultPlan};
use nemscmos_spice::stats::{self, Heartbeat};

use crate::cache::{content_digest, spec_seed, Cache};
use crate::journal::Journal;
use crate::json::JsonCodec;
use crate::report::{self, JobOutcome, JobRecord, RunReport};
use crate::retry::{run_with_retries, Attempt, RetryPolicy, Rung};
use crate::watchdog::{Supervision, Watchdog};
use crate::{pool, HarnessError};

/// A fully-specified unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Short human-readable name (report rows).
    pub name: String,
    /// Canonical spec string: everything that influences the result —
    /// circuit configuration, solver options, trial counts, seed inputs.
    /// Equal spec strings ⇒ equal results (that is the cache contract).
    pub spec: String,
}

impl JobSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, spec: impl Into<String>) -> JobSpec {
        JobSpec {
            name: name.into(),
            spec: spec.into(),
        }
    }

    /// Content digest of the spec string (the cache key).
    pub fn digest(&self) -> String {
        content_digest(&self.spec)
    }

    /// Deterministic master seed derived from the spec string.
    pub fn seed(&self) -> u64 {
        spec_seed(&self.spec)
    }
}

/// Produces the fault plan (if any) to install around one job's full
/// retry ladder. Used by soak tests to exercise the degradation
/// contract; `None` per job means that job runs clean.
pub type FaultSource = Box<dyn Fn(usize, &JobSpec) -> Option<FaultPlan> + Send + Sync>;

/// Experiment orchestrator: pool + cache + retry ladder + telemetry.
pub struct Runner {
    threads: usize,
    cache: Option<Cache>,
    policy: RetryPolicy,
    fault_source: Option<FaultSource>,
    supervision: Supervision,
    journal: Option<Journal>,
}

impl fmt::Debug for Runner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runner")
            .field("threads", &self.threads)
            .field("cache", &self.cache)
            .field("policy", &self.policy)
            .field(
                "fault_source",
                &self.fault_source.as_ref().map(|_| "<fault source>"),
            )
            .field("supervision", &self.supervision)
            .field("journal", &self.journal.as_ref().map(Journal::run_id))
            .finish()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::from_env()
    }
}

impl Runner {
    /// A runner configured from the environment:
    ///
    /// - `NEMSCMOS_HARNESS_THREADS=n` — worker count (default: available
    ///   parallelism);
    /// - `NEMSCMOS_HARNESS_CACHE=off|0` — disable the result cache;
    /// - `NEMSCMOS_HARNESS_CACHE_DIR=path` — cache location (default
    ///   `target/harness-cache`);
    /// - `NEMSCMOS_HARNESS_DEADLINE_MS=n` / `NEMSCMOS_HARNESS_STALL_MS=n`
    ///   — per-job deadline and stall timeout (see
    ///   [`Supervision::from_env`]).
    ///
    /// # Panics
    ///
    /// On malformed supervision knobs (a set-but-garbage `*_MS` value):
    /// fail-fast with the typed [`HarnessError::Config`] message rather
    /// than silently running unsupervised. Services that prefer a
    /// recoverable error call [`Supervision::from_env`] themselves.
    pub fn from_env() -> Runner {
        let cache_off = std::env::var("NEMSCMOS_HARNESS_CACHE")
            .map(|v| v == "off" || v == "0")
            .unwrap_or(false);
        Runner {
            threads: pool::default_threads(),
            cache: (!cache_off).then(|| Cache::at(Cache::default_dir())),
            policy: RetryPolicy::default(),
            fault_source: None,
            supervision: Supervision::from_env()
                .unwrap_or_else(|e| panic!("harness refuses to start: {e}")),
            journal: None,
        }
    }

    /// The process-wide runner used by experiment modules (configured
    /// from the environment on first use).
    pub fn global() -> &'static Runner {
        static GLOBAL: OnceLock<Runner> = OnceLock::new();
        GLOBAL.get_or_init(Runner::from_env)
    }

    /// A runner with explicit settings (tests; custom tools).
    pub fn with_config(threads: usize, cache: Option<Cache>, policy: RetryPolicy) -> Runner {
        Runner {
            threads: threads.max(1),
            cache,
            policy,
            fault_source: None,
            supervision: Supervision::default(),
            journal: None,
        }
    }

    /// Installs a per-job [`Supervision`] policy: each job runs under a
    /// budget covering its whole retry ladder; when a stall timeout is
    /// set, a per-batch watchdog additionally cancels jobs whose
    /// heartbeat progress stops.
    #[must_use]
    pub fn with_supervision(mut self, supervision: Supervision) -> Runner {
        self.supervision = supervision;
        self
    }

    /// Attaches a crash-safe run journal named `run_id` (stored next to
    /// the result cache): every completed job is fsync'd to
    /// `journal-<run_id>.jsonl` before the batch moves on. Re-opening an
    /// existing journal replays it — jobs a previous invocation of the
    /// run already completed are served from the journal instead of
    /// re-executing.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Cache`] when `run_id` is not filesystem-safe or
    /// the journal file cannot be created.
    pub fn with_journal(mut self, run_id: &str) -> Result<Runner, HarnessError> {
        let dir = self
            .cache
            .as_ref()
            .map(|c| c.dir().to_path_buf())
            .unwrap_or_else(Cache::default_dir);
        self.journal = Some(Journal::open(dir, run_id)?);
        Ok(self)
    }

    /// An environment-configured runner resuming run `run_id`: jobs the
    /// killed or deadline-aborted previous invocation journaled are
    /// recovered without re-execution; only unfinished jobs run. With
    /// deterministic per-spec seeding the combined results are bitwise
    /// identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Cache`] when the journal cannot be opened.
    pub fn resume(run_id: &str) -> Result<Runner, HarnessError> {
        Runner::from_env().with_journal(run_id)
    }

    /// Installs a fault source: before each job, it is asked for a
    /// [`FaultPlan`] to arm around that job's entire retry ladder
    /// (soak/chaos testing). Faulted jobs bypass the result cache in
    /// both directions so injected failures can never poison cached
    /// artifacts or be masked by a prior clean run.
    #[must_use]
    pub fn with_fault_source(mut self, source: FaultSource) -> Runner {
        self.fault_source = Some(source);
        self
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The cache, if enabled.
    pub fn cache(&self) -> Option<&Cache> {
        self.cache.as_ref()
    }

    /// The supervision policy (inert by default).
    pub fn supervision(&self) -> &Supervision {
        &self.supervision
    }

    /// The run journal, if one is attached.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Runs `jobs` through cache → retry ladder → pool, returning results
    /// in job order and the telemetry report.
    ///
    /// `f` computes one job; it receives the job's index into `jobs` (so
    /// callers can index a parallel parameter array) and the current
    /// [`Attempt`] (rung already installed as the thread's solver
    /// profile, master seed derived from the spec string).
    ///
    /// # Errors
    ///
    /// The first job error in job order; telemetry for all jobs that ran
    /// is still published to the report sink.
    pub fn run<T, F>(&self, title: &str, jobs: &[JobSpec], f: F) -> Result<Vec<T>, HarnessError>
    where
        T: JsonCodec + Send,
        F: Fn(usize, &Attempt) -> Result<T, HarnessError> + Sync,
    {
        let (results, report) = self.run_collect(title, jobs, f);
        report::publish(report);
        results.into_iter().collect()
    }

    /// Like [`Runner::run`], but returns per-job results and the report
    /// directly instead of publishing to the global sink.
    pub fn run_collect<T, F>(
        &self,
        title: &str,
        jobs: &[JobSpec],
        f: F,
    ) -> (Vec<Result<T, HarnessError>>, RunReport)
    where
        T: JsonCodec + Send,
        F: Fn(usize, &Attempt) -> Result<T, HarnessError> + Sync,
    {
        let batch_started = Instant::now();
        let quarantined_before = self.cache.as_ref().map_or(0, Cache::quarantined);
        let watchdog = self
            .supervision
            .needs_watchdog()
            .then(|| Watchdog::spawn(&self.supervision));
        let slots = pool::try_parallel_map(self.threads, jobs.len(), |i| {
            self.run_one(i, &jobs[i], &f, watchdog.as_ref())
        });
        drop(watchdog); // stop and join the scanner before reporting
        let mut report = RunReport::new(title);
        report.batch_wall = batch_started.elapsed();
        report.torn = self.journal.as_ref().map_or(0, |j| j.torn() as u64);
        report.quarantined = self
            .cache
            .as_ref()
            .map_or(0, Cache::quarantined)
            .saturating_sub(quarantined_before);
        let mut results = Vec::with_capacity(jobs.len());
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Ok((result, record)) => {
                    report.jobs.push(record);
                    results.push(result);
                }
                // A panic that escaped the per-job body guard (e.g. a
                // panicking `to_json` during the cache store) — degrade
                // to a per-job record instead of aborting the batch.
                Err(payload) => {
                    let message = pool::panic_message(&*payload);
                    report.jobs.push(JobRecord {
                        name: jobs[i].name.clone(),
                        digest: jobs[i].digest(),
                        cached: false,
                        resumed: false,
                        rung: Rung::Direct,
                        attempts: 0,
                        outcome: JobOutcome::Panicked {
                            message: message.clone(),
                        },
                        stats: Default::default(),
                        wall: Duration::ZERO,
                        deadline_margin: None,
                    });
                    results.push(Err(HarnessError::Panicked(message)));
                }
            }
        }
        (results, report)
    }

    /// Executes a single job: journal probe (resumed runs), cache probe,
    /// then the retry ladder under the job's budget and fault plan (if
    /// any), then a best-effort cache store and journal append. A
    /// panicking job body is caught here and degraded to
    /// [`HarnessError::Panicked`] so one buggy job cannot take down the
    /// batch.
    fn run_one<T, F>(
        &self,
        index: usize,
        job: &JobSpec,
        f: &F,
        watchdog: Option<&Watchdog>,
    ) -> (Result<T, HarnessError>, JobRecord)
    where
        T: JsonCodec,
        F: Fn(usize, &Attempt) -> Result<T, HarnessError>,
    {
        let digest = job.digest();
        let started = Instant::now();
        let plan = self.fault_source.as_ref().and_then(|s| s(index, job));

        // Faulted jobs bypass the journal and the cache entirely: a
        // stored clean result would mask the injected fault, and a
        // fault-perturbed result must never become the spec's canonical
        // artifact.
        if plan.is_none() {
            // Journal first: a previous invocation of this run already
            // completed the job — recover it without re-execution.
            if let Some(journal) = &self.journal {
                if let Some(value) = journal.lookup(&digest, &job.spec) {
                    if let Some(decoded) = T::from_json(&value) {
                        let record = JobRecord {
                            name: job.name.clone(),
                            digest,
                            cached: false,
                            resumed: true,
                            rung: Rung::Direct,
                            attempts: 0,
                            outcome: JobOutcome::Ok,
                            stats: Default::default(),
                            wall: started.elapsed(),
                            deadline_margin: None,
                        };
                        return (Ok(decoded), record);
                    }
                }
            }
            if let Some(cache) = &self.cache {
                if let Some(value) = cache.load(&digest, &job.spec) {
                    if let Some(decoded) = T::from_json(&value) {
                        let record = JobRecord {
                            name: job.name.clone(),
                            digest,
                            cached: true,
                            resumed: false,
                            rung: Rung::Direct,
                            attempts: 0,
                            outcome: JobOutcome::Ok,
                            stats: Default::default(),
                            wall: started.elapsed(),
                            deadline_margin: None,
                        };
                        return (Ok(decoded), record);
                    }
                    // Decodable JSON of the wrong shape: stale codec —
                    // fall through and recompute.
                }
            }
        }

        // Supervised jobs run under a budget wired to a fresh interrupt
        // flag and heartbeat; the watchdog (if any) watches the pair and
        // expires the flag on a progress stall. The guard unregisters on
        // every exit path, including panics.
        let mut watch_guard = None;
        let job_budget = if self.supervision.is_inert() {
            None
        } else {
            let flag = InterruptFlag::new();
            let heartbeat = Arc::new(Heartbeat::new());
            if let Some(dog) = watchdog {
                watch_guard = Some(dog.register(index, flag.clone(), Arc::clone(&heartbeat)));
            }
            Some(self.supervision.budget(flag, heartbeat))
        };

        let before = stats::snapshot();
        // The plan and the budget wrap the *whole* ladder, so fault
        // trigger counters persist across rungs and the deadline covers
        // every rescue attempt, not each one separately.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            budget::with_opt(job_budget, || {
                faults::with_opt(plan, || {
                    run_with_retries(self.policy, job.seed(), |attempt| f(index, attempt))
                })
            })
        }))
        .unwrap_or_else(|payload| Err(HarnessError::Panicked(pool::panic_message(&*payload))));
        drop(watch_guard);
        let spent = stats::snapshot().delta_since(&before);
        let wall = started.elapsed();
        let deadline_margin = self
            .supervision
            .deadline
            .map(|d| d.as_secs_f64() - wall.as_secs_f64());

        match outcome {
            Ok((value, rung, attempts)) => {
                if plan.is_none() && (self.cache.is_some() || self.journal.is_some()) {
                    // Store failures are non-fatal: the result is still
                    // correct, a later run just recomputes.
                    let artifact = value.to_json();
                    if let Some(cache) = &self.cache {
                        let _ = cache.store(&digest, &job.spec, &artifact);
                    }
                    if let Some(journal) = &self.journal {
                        let _ = journal.record(&job.name, &digest, &job.spec, &artifact);
                    }
                }
                let record = JobRecord {
                    name: job.name.clone(),
                    digest,
                    cached: false,
                    resumed: false,
                    rung,
                    attempts,
                    outcome: if attempts > 1 {
                        JobOutcome::Recovered(rung)
                    } else {
                        JobOutcome::Ok
                    },
                    stats: spent,
                    wall,
                    deadline_margin,
                };
                (Ok(value), record)
            }
            Err(e) => {
                let outcome = match &e {
                    HarnessError::Panicked(message) => JobOutcome::Panicked {
                        message: message.clone(),
                    },
                    other => JobOutcome::Failed {
                        kind: other.kind(),
                        message: other.to_string(),
                    },
                };
                let record = JobRecord {
                    name: job.name.clone(),
                    digest,
                    cached: false,
                    resumed: false,
                    rung: self.policy.max_rung,
                    attempts: Rung::ALL
                        .iter()
                        .filter(|r| **r <= self.policy.max_rung)
                        .count() as u32,
                    outcome,
                    stats: spent,
                    wall,
                    deadline_margin,
                };
                (Err(e), record)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_cache(tag: &str) -> Cache {
        let dir =
            std::env::temp_dir().join(format!("nemscmos-runner-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::at(dir)
    }

    #[test]
    fn results_are_in_job_order_and_cached_second_time() {
        let cache = scratch_cache("order");
        let dir = cache.dir().to_path_buf();
        let runner = Runner::with_config(4, Some(cache), RetryPolicy::default());
        let jobs: Vec<JobSpec> = (0..12)
            .map(|i| JobSpec::new(format!("j{i}"), format!("runner-order item={i}")))
            .collect();

        let (results, report) = runner.run_collect("first", &jobs, |i, a| {
            Ok(i as f64 * 2.0 + (a.seed % 2) as f64 * 0.0)
        });
        let first: Vec<f64> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(
            first,
            (0..12).map(|i| f64::from(i) * 2.0).collect::<Vec<_>>()
        );
        assert_eq!(report.cache_hits(), 0);

        let (results, report) = runner.run_collect(
            "second",
            &jobs,
            |_: usize, _: &Attempt| -> Result<f64, HarnessError> {
                panic!("must be served from cache")
            },
        );
        let second: Vec<f64> = results.into_iter().map(Result::<f64, _>::unwrap).collect();
        assert_eq!(second, first);
        assert_eq!(report.cache_hits(), 12);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn retry_rung_is_recorded_in_report() {
        let runner = Runner::with_config(1, None, RetryPolicy::default());
        let jobs = [JobSpec::new("stiff", "runner-retry stiff-case")];
        let (results, report) = runner.run_collect("retry", &jobs, |_, a| {
            if a.rung < Rung::TightGmin {
                Err(HarnessError::NonConvergence("first pass fails".into()))
            } else {
                Ok(1.0)
            }
        });
        assert_eq!(results.into_iter().next().unwrap().unwrap(), 1.0);
        assert_eq!(report.jobs[0].rung, Rung::TightGmin);
        assert_eq!(report.jobs[0].attempts, 2);
        assert_eq!(report.retried_jobs(), 1);
    }

    #[test]
    fn job_errors_surface_but_other_jobs_complete() {
        let runner = Runner::with_config(2, None, RetryPolicy::default());
        let jobs = [
            JobSpec::new("good", "runner-err good"),
            JobSpec::new("bad", "runner-err bad"),
        ];
        let (results, report) = runner.run_collect("mixed", &jobs, |i, _| {
            if jobs[i].name == "bad" {
                Err(HarnessError::Failed("broken".into()))
            } else {
                Ok(5.0)
            }
        });
        assert!(results[0].as_ref().is_ok_and(|v| *v == 5.0));
        assert!(results[1].is_err());
        assert_eq!(report.jobs.len(), 2);
    }

    #[test]
    fn disabled_cache_always_recomputes() {
        let runner = Runner::with_config(1, None, RetryPolicy::default());
        let jobs = [JobSpec::new("j", "runner-nocache j")];
        let mut calls = std::sync::atomic::AtomicUsize::new(0);
        for _ in 0..2 {
            let (results, report) = runner.run_collect("nocache", &jobs, |_, _| {
                calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(0.0)
            });
            assert!(results[0].is_ok());
            assert_eq!(report.cache_hits(), 0);
        }
        assert_eq!(*calls.get_mut(), 2);
    }

    #[test]
    fn seeds_differ_across_specs_but_not_across_runs() {
        let a = JobSpec::new("a", "seed-test a");
        let b = JobSpec::new("b", "seed-test b");
        assert_eq!(a.seed(), JobSpec::new("a2", "seed-test a").seed());
        assert_ne!(a.seed(), b.seed());
        assert_eq!(a.digest().len(), 32);
    }
}
