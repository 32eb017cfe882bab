//! Batch supervision: per-job budgets and the progress-stall watchdog.
//!
//! [`Supervision`] is the harness-level policy — a per-job wall-clock
//! deadline, iteration caps, and a stall timeout — from which the
//! [`Runner`](crate::runner::Runner) derives one [`Budget`] per job. The
//! deadline and the caps are enforced *in-band* by the budget itself (the
//! Newton loop polls every iteration); the watchdog covers the failure mode polling
//! cannot see on its own: a solve that keeps iterating but stops making
//! *progress* — a timestep-rejection storm, an op retry loop that never
//! converges. Progress is defined by heartbeat ticks (accepted transient
//! steps, completed DC solves), so raw Newton churn does not count.
//!
//! The [`Watchdog`] is one background thread per batch. Each running job
//! registers its interrupt flag and heartbeat; the thread scans every
//! [`Supervision::poll`] interval and *expires* the flag of any job whose
//! progress counter has not moved for [`Supervision::stall_timeout`]. The
//! job observes the raised flag at its next Newton iteration and returns
//! a typed [`SpiceError::DeadlineExceeded`](nemscmos_spice::SpiceError)
//! carrying the partial effort spent.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nemscmos_spice::budget::{Budget, InterruptFlag};
use nemscmos_spice::stats::Heartbeat;

use crate::HarnessError;

/// Per-job resource policy for a batch.
///
/// All limits are optional; the default is fully inert (no budget
/// installed, no watchdog spawned, zero per-iteration overhead).
#[derive(Debug, Clone)]
pub struct Supervision {
    /// Per-job wall-clock deadline (covers the job's whole retry
    /// ladder). Enforced in-band by the budget.
    pub deadline: Option<Duration>,
    /// Cancel a job whose heartbeat progress counter stops moving for
    /// this long. Enforced out-of-band by the watchdog thread.
    pub stall_timeout: Option<Duration>,
    /// Watchdog scan interval.
    pub poll: Duration,
    /// Per-job Newton iteration cap.
    pub max_newton: Option<u64>,
    /// Per-job LU factorization cap.
    pub max_lu: Option<u64>,
    /// Per-job step-rejection cap.
    pub max_rejections: Option<u64>,
}

impl Default for Supervision {
    fn default() -> Supervision {
        Supervision {
            deadline: None,
            stall_timeout: None,
            poll: Duration::from_millis(5),
            max_newton: None,
            max_lu: None,
            max_rejections: None,
        }
    }
}

impl Supervision {
    /// Supervision with only a per-job wall-clock deadline.
    pub fn deadline(d: Duration) -> Supervision {
        Supervision {
            deadline: Some(d),
            ..Supervision::default()
        }
    }

    /// Supervision from the environment:
    ///
    /// - `NEMSCMOS_HARNESS_DEADLINE_MS=n` — per-job deadline;
    /// - `NEMSCMOS_HARNESS_STALL_MS=n` — stall timeout.
    ///
    /// Unset values leave the corresponding limit off. A value that is
    /// *set but malformed* (not a positive integer number of
    /// milliseconds) is a typed [`HarnessError::Config`] — a garbage
    /// knob silently running a batch unsupervised is worse than
    /// refusing to start.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Config`] naming the offending variable and value.
    pub fn from_env() -> Result<Supervision, HarnessError> {
        Ok(Supervision {
            deadline: Self::env_ms("NEMSCMOS_HARNESS_DEADLINE_MS")?,
            stall_timeout: Self::env_ms("NEMSCMOS_HARNESS_STALL_MS")?,
            ..Supervision::default()
        })
    }

    /// Parses one `*_MS` environment knob: unset ⇒ `None`, a positive
    /// integer ⇒ `Some(duration)`, anything else ⇒ typed config error.
    fn env_ms(key: &str) -> Result<Option<Duration>, HarnessError> {
        let Ok(raw) = std::env::var(key) else {
            return Ok(None);
        };
        match raw.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Some(Duration::from_millis(ms))),
            _ => Err(HarnessError::Config(format!(
                "{key}={raw:?} is not a positive integer number of milliseconds"
            ))),
        }
    }

    /// One-line rendering of the effective policy, for startup logs
    /// (servers print this so the active limits are never a mystery).
    pub fn describe(&self) -> String {
        let show = |d: Option<Duration>| match d {
            Some(d) => format!("{}ms", d.as_millis()),
            None => "off".to_string(),
        };
        let cap = |c: Option<u64>| match c {
            Some(c) => c.to_string(),
            None => "off".to_string(),
        };
        format!(
            "deadline {} | stall {} | max-newton {} | max-lu {} | max-rejections {}",
            show(self.deadline),
            show(self.stall_timeout),
            cap(self.max_newton),
            cap(self.max_lu),
            cap(self.max_rejections),
        )
    }

    /// Sets the stall timeout.
    #[must_use]
    pub fn with_stall_timeout(mut self, d: Duration) -> Supervision {
        self.stall_timeout = Some(d);
        self
    }

    /// Sets the per-job Newton iteration cap.
    #[must_use]
    pub fn with_max_newton(mut self, cap: u64) -> Supervision {
        self.max_newton = Some(cap);
        self
    }

    /// Sets the watchdog scan interval.
    #[must_use]
    pub fn with_poll(mut self, d: Duration) -> Supervision {
        self.poll = d;
        self
    }

    /// True when no limit is configured — the runner skips budgets and
    /// the watchdog entirely.
    pub fn is_inert(&self) -> bool {
        self.deadline.is_none()
            && self.stall_timeout.is_none()
            && self.max_newton.is_none()
            && self.max_lu.is_none()
            && self.max_rejections.is_none()
    }

    /// True when the out-of-band watchdog thread is needed (a stall
    /// timeout is configured; everything else is enforced in-band).
    pub fn needs_watchdog(&self) -> bool {
        self.stall_timeout.is_some()
    }

    /// The per-job budget implementing this policy, wired to the job's
    /// interrupt flag and heartbeat.
    pub fn budget(&self, flag: InterruptFlag, heartbeat: Arc<Heartbeat>) -> Budget {
        Budget {
            deadline: self.deadline,
            max_newton: self.max_newton,
            max_lu: self.max_lu,
            max_rejections: self.max_rejections,
            flag: Some(flag),
            heartbeat: Some(heartbeat),
        }
    }
}

/// One watched job: cancel handle plus the progress bookkeeping the
/// scanner thread updates.
struct SlotState {
    flag: InterruptFlag,
    heartbeat: Arc<Heartbeat>,
    progress_seen: u64,
    last_progress: Instant,
}

struct WatchShared {
    done: AtomicBool,
    stall_timeout: Duration,
    slots: Mutex<HashMap<usize, SlotState>>,
}

/// Background scanner that expires the interrupt flag of any registered
/// job whose progress stalls. Dropping the watchdog stops and joins the
/// thread.
pub struct Watchdog {
    shared: Arc<WatchShared>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("stall_timeout", &self.shared.stall_timeout)
            .finish_non_exhaustive()
    }
}

impl Watchdog {
    /// Spawns the scanner thread for `sup` (which must have a stall
    /// timeout; see [`Supervision::needs_watchdog`]).
    pub fn spawn(sup: &Supervision) -> Watchdog {
        let stall_timeout = sup
            .stall_timeout
            .expect("watchdog spawned without a stall timeout");
        let poll = sup.poll.max(Duration::from_millis(1));
        let shared = Arc::new(WatchShared {
            done: AtomicBool::new(false),
            stall_timeout,
            slots: Mutex::new(HashMap::new()),
        });
        let scanner = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("harness-watchdog".into())
            .spawn(move || {
                while !scanner.done.load(Ordering::Acquire) {
                    scanner.scan(Instant::now());
                    std::thread::sleep(poll);
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            shared,
            handle: Some(handle),
        }
    }

    /// Puts job `index` under watch. The returned guard unregisters it
    /// on drop (normal completion, interrupt, or panic alike).
    pub fn register(
        &self,
        index: usize,
        flag: InterruptFlag,
        heartbeat: Arc<Heartbeat>,
    ) -> WatchGuard {
        let state = SlotState {
            progress_seen: heartbeat.progress(),
            last_progress: Instant::now(),
            flag,
            heartbeat,
        };
        self.shared
            .slots
            .lock()
            .expect("watchdog slots poisoned")
            .insert(index, state);
        WatchGuard {
            shared: Arc::clone(&self.shared),
            index,
        }
    }
}

impl WatchShared {
    fn scan(&self, now: Instant) {
        let mut slots = self.slots.lock().expect("watchdog slots poisoned");
        for state in slots.values_mut() {
            let progress = state.heartbeat.progress();
            if progress != state.progress_seen {
                state.progress_seen = progress;
                state.last_progress = now;
            } else if now.duration_since(state.last_progress) >= self.stall_timeout {
                // Sticky and idempotent: only the first expire wins, so
                // re-raising on later scans is harmless.
                state.flag.expire();
            }
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.done.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Unregisters one job from the watchdog on drop.
pub struct WatchGuard {
    shared: Arc<WatchShared>,
    index: usize,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.shared
            .slots
            .lock()
            .expect("watchdog slots poisoned")
            .remove(&self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemscmos_spice::budget::InterruptKind;

    fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn env_parsing_is_strict_and_typed() {
        // One test covers set/garbage/unset sequentially — env vars are
        // process-global, so this must not be split across parallel
        // tests.
        let key = "NEMSCMOS_HARNESS_DEADLINE_MS";
        let stall = "NEMSCMOS_HARNESS_STALL_MS";
        let old_key = std::env::var(key).ok();
        let old_stall = std::env::var(stall).ok();

        std::env::set_var(key, "250");
        std::env::remove_var(stall);
        let sup = Supervision::from_env().expect("well-formed env parses");
        assert_eq!(sup.deadline, Some(Duration::from_millis(250)));
        assert_eq!(sup.stall_timeout, None);

        for garbage in ["soon", "-5", "1.5", "", "0"] {
            std::env::set_var(key, garbage);
            let err = Supervision::from_env().expect_err("garbage env must be refused");
            assert_eq!(err.kind(), crate::FailureKind::Config);
            let msg = err.to_string();
            assert!(
                msg.contains(key) && msg.contains("milliseconds"),
                "unhelpful config error: {msg}"
            );
        }

        match old_key {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
        match old_stall {
            Some(v) => std::env::set_var(stall, v),
            None => std::env::remove_var(stall),
        }
    }

    #[test]
    fn describe_renders_effective_limits() {
        let sup = Supervision::deadline(Duration::from_millis(40)).with_max_newton(100);
        let text = sup.describe();
        assert!(text.contains("deadline 40ms"), "{text}");
        assert!(text.contains("stall off"), "{text}");
        assert!(text.contains("max-newton 100"), "{text}");
    }

    #[test]
    fn default_supervision_is_inert() {
        let sup = Supervision::default();
        assert!(sup.is_inert());
        assert!(!sup.needs_watchdog());
        let sup = Supervision::deadline(Duration::from_secs(1));
        assert!(!sup.is_inert());
        assert!(!sup.needs_watchdog(), "deadlines are enforced in-band");
        assert!(sup
            .with_stall_timeout(Duration::from_millis(10))
            .needs_watchdog());
    }

    #[test]
    fn budget_carries_the_policy() {
        let sup = Supervision::deadline(Duration::from_millis(40)).with_max_newton(100);
        let flag = InterruptFlag::new();
        let b = sup.budget(flag.clone(), Arc::new(Heartbeat::new()));
        assert_eq!(b.deadline, Some(Duration::from_millis(40)));
        assert_eq!(b.max_newton, Some(100));
        assert!(b.flag.is_some());
        assert!(b.heartbeat.is_some());
    }

    #[test]
    fn stalled_job_gets_its_flag_expired() {
        let sup = Supervision::default()
            .with_stall_timeout(Duration::from_millis(20))
            .with_poll(Duration::from_millis(2));
        let dog = Watchdog::spawn(&sup);
        let flag = InterruptFlag::new();
        let hb = Arc::new(Heartbeat::new());
        let _guard = dog.register(0, flag.clone(), Arc::clone(&hb));
        assert!(
            wait_until(Duration::from_secs(5), || flag.raised().is_some()),
            "stalled slot was never cancelled"
        );
        assert_eq!(flag.raised(), Some(InterruptKind::Deadline));
    }

    #[test]
    fn progressing_job_is_left_alone() {
        let sup = Supervision::default()
            .with_stall_timeout(Duration::from_millis(60))
            .with_poll(Duration::from_millis(2));
        let dog = Watchdog::spawn(&sup);
        let flag = InterruptFlag::new();
        let hb = Arc::new(Heartbeat::new());
        let _guard = dog.register(3, flag.clone(), Arc::clone(&hb));
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(150) {
            hb.tick_progress();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(flag.raised(), None, "progressing job must not be cancelled");
    }

    #[test]
    fn dropping_the_guard_unregisters_the_job() {
        let sup = Supervision::default()
            .with_stall_timeout(Duration::from_millis(10))
            .with_poll(Duration::from_millis(2));
        let dog = Watchdog::spawn(&sup);
        let flag = InterruptFlag::new();
        let guard = dog.register(1, flag.clone(), Arc::new(Heartbeat::new()));
        drop(guard);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(flag.raised(), None, "unregistered job must not be touched");
    }
}
