//! Dependency-free work-stealing thread pool for experiment jobs.
//!
//! Built on `std::thread::scope` and channels — no `crossbeam`, no
//! `rayon`. Jobs are indexed `0..items`; each worker owns a deque of
//! indices and steals from its neighbours when it runs dry, so a few
//! slow simulations (a stiff transient, a deep retry ladder) do not
//! serialize the whole sweep.
//!
//! # Determinism
//!
//! The pool itself introduces no nondeterminism: the job function is
//! called with the job *index* only, results are returned in index
//! order, and any randomness must come from a per-index seed (see
//! [`nemscmos_numeric::rng::Xoshiro256pp::for_stream`]). A sweep run
//! with 1 thread and with N threads therefore produces bitwise-identical
//! results.
//!
//! # Telemetry
//!
//! Solver counters ([`nemscmos_spice::stats`]) are thread-local; the
//! pool measures the per-job delta on each worker and folds the total
//! back into the *calling* thread, so a parent scope (e.g. a harness
//! job that fans out a Monte Carlo) still observes all nested work.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Mutex};

use nemscmos_spice::par;
use nemscmos_spice::stats::{self, SolverStats};

/// Worker-thread count from the environment, defaulting to the machine's
/// available parallelism.
///
/// `NEMSCMOS_HARNESS_THREADS=n` (n ≥ 1) overrides.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("NEMSCMOS_HARNESS_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Extracts a human-readable message from a caught panic payload.
///
/// `panic!("...")` payloads are `&str` or `String`; anything else (a
/// custom `panic_any` value) degrades to a placeholder rather than
/// losing the event.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Pops a job index for worker `w`: its own queue first (back, LIFO),
/// then stealing from the other queues (front, FIFO).
fn pop_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w].lock().expect("queue poisoned").pop_back() {
        return Some(i);
    }
    let n = queues.len();
    for off in 1..n {
        let victim = (w + off) % n;
        if let Some(i) = queues[victim].lock().expect("queue poisoned").pop_front() {
            return Some(i);
        }
    }
    None
}

/// Like [`parallel_map`], but panics from `f` are *returned* per slot as
/// `Err(payload)` instead of re-raised, so a panicking job cannot abort
/// the batch: every queued job still runs, the pool shuts down cleanly,
/// and the caller decides how to degrade each failed slot (the harness
/// `Runner` turns them into per-job `Panicked` records).
///
/// Every job runs even with one worker; solver-telemetry deltas from all
/// non-panicking jobs are folded back into the calling thread. With more
/// than one worker, each runs its jobs at an eval-thread budget of 1
/// ([`par::with_eval_threads`]); with one, jobs run inline under the
/// caller's budget.
pub fn try_parallel_map<T, F>(threads: usize, items: usize, f: F) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if items == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, items);
    if threads == 1 {
        return (0..items)
            .map(|i| std::panic::catch_unwind(AssertUnwindSafe(|| f(i))))
            .collect();
    }

    // Contiguous blocks keep neighbouring jobs (often similar circuits)
    // on the same worker until stealing kicks in.
    let chunk = items.div_ceil(threads);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(items);
            // Own-queue pops are LIFO from the back; seed reversed so the
            // worker consumes its block in ascending index order.
            Mutex::new((lo..hi).rev().collect())
        })
        .collect();
    type Caught = Box<dyn std::any::Any + Send>;
    let (tx, rx) = mpsc::channel::<(usize, Result<T, Caught>, SolverStats)>();

    let mut slots: Vec<Option<std::thread::Result<T>>> = Vec::with_capacity(items);
    slots.resize_with(items, || None);
    let mut folded = SolverStats::default();

    std::thread::scope(|scope| {
        for w in 0..threads {
            let tx = tx.clone();
            let queues = &queues;
            let f = &f;
            // The workers already share the cores, so each one runs its
            // jobs' device evaluation on its own thread.
            scope.spawn(move || {
                par::with_eval_threads(1, || {
                    // Queues only shrink (no job is ever re-queued), so
                    // once `pop_job` finds them all empty the worker is
                    // done; jobs still running finish on their workers.
                    while let Some(i) = pop_job(queues, w) {
                        // Catch the panic here and ship the payload to the
                        // caller as that slot's value, so the original
                        // payload (not `thread::scope`'s generic one) is
                        // preserved and the worker keeps draining.
                        let outcome =
                            std::panic::catch_unwind(AssertUnwindSafe(|| stats::measure(|| f(i))));
                        // Receiver outlives the workers, so the sends
                        // cannot fail.
                        match outcome {
                            Ok((result, delta)) => {
                                let _ = tx.send((i, Ok(result), delta));
                            }
                            Err(payload) => {
                                let _ = tx.send((i, Err(payload), SolverStats::default()));
                            }
                        }
                    }
                })
            });
        }
        drop(tx);
        for (i, result, delta) in rx {
            slots[i] = Some(result);
            folded += delta;
        }
    });

    stats::add(folded);
    slots
        .into_iter()
        .map(|s| s.expect("every job index completed"))
        .collect()
}

/// Runs `f(0..items)` across `threads` workers with work stealing and
/// returns the results in index order.
///
/// `threads` is clamped to `[1, items]`; with one worker (or one item)
/// everything runs inline on the calling thread. Solver-telemetry deltas
/// from all workers are folded back into the calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` after all queued jobs finish (the
/// lowest-index panic payload is re-raised; see [`try_parallel_map`] to
/// receive panics as values instead).
pub fn parallel_map<T, F>(threads: usize, items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(items);
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for slot in try_parallel_map(threads, items, f) {
        match slot {
            Ok(v) => out.push(v),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        let out = parallel_map(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads| {
            parallel_map(threads, 33, |i| {
                use nemscmos_numeric::rng::{Rand64, Xoshiro256pp};
                let mut rng = Xoshiro256pp::for_stream(7, i as u64);
                rng.next_f64()
            })
        };
        let one = run(1);
        for n in [2, 3, 8] {
            assert_eq!(run(n), one, "thread count {n} diverged");
        }
    }

    #[test]
    fn empty_and_single_item_work() {
        assert_eq!(parallel_map(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(8, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn stealing_covers_unbalanced_loads() {
        // One pathologically slow job at index 0; the rest must be stolen
        // and the whole map still completes with correct results.
        let out = parallel_map(4, 64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_stats_fold_into_caller() {
        let before = stats::snapshot();
        parallel_map(4, 16, |_| {
            stats::add(SolverStats {
                newton_iterations: 2,
                ..Default::default()
            })
        });
        let d = stats::snapshot().delta_since(&before);
        assert_eq!(d.newton_iterations, 32);
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let from_str = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(&*from_str), "static str");
        let from_string = std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(&*from_string), "formatted 42");
        let from_any = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(&*from_any), "non-string panic payload");
    }

    #[test]
    #[should_panic(expected = "job 7 exploded")]
    fn job_panics_propagate() {
        parallel_map(4, 16, |i| {
            if i == 7 {
                panic!("job 7 exploded");
            }
            i
        });
    }

    #[test]
    fn try_map_drains_every_job_despite_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Regression for the resume_unwind panic path: multiple panicking
        // jobs must not stop the queue — every job runs, the pool joins
        // cleanly, and each payload lands in its own slot.
        let ran = AtomicUsize::new(0);
        let slots = try_parallel_map(4, 32, |i| {
            ran.fetch_add(1, Ordering::SeqCst);
            if i % 8 == 3 {
                panic!("job {i} exploded");
            }
            i
        });
        assert_eq!(ran.load(Ordering::SeqCst), 32, "queued jobs must drain");
        assert_eq!(slots.len(), 32);
        for (i, slot) in slots.iter().enumerate() {
            if i % 8 == 3 {
                let payload = slot.as_ref().expect_err("job should have panicked");
                assert_eq!(panic_message(&**payload), format!("job {i} exploded"));
            } else {
                assert_eq!(*slot.as_ref().expect("job should have succeeded"), i);
            }
        }
    }

    #[test]
    fn try_map_catches_panics_single_threaded_too() {
        let slots = try_parallel_map(1, 4, |i| {
            if i == 1 {
                panic!("inline boom");
            }
            i * 10
        });
        assert!(slots[1].is_err());
        assert_eq!(*slots[3].as_ref().unwrap(), 30);
    }

    #[test]
    fn try_map_still_folds_stats_from_surviving_jobs() {
        let before = stats::snapshot();
        let _ = try_parallel_map(4, 16, |i| {
            stats::add(SolverStats {
                newton_iterations: 2,
                ..Default::default()
            });
            if i == 5 {
                panic!("after counting");
            }
        });
        let d = stats::snapshot().delta_since(&before);
        // The panicking job's delta is lost (its measure never returned),
        // but every surviving job's work is folded back.
        assert_eq!(d.newton_iterations, 30);
    }
}
