//! Parallel device evaluation on one parked helper thread.
//!
//! An assembly evaluates its device batches in fixed chunks of lanes
//! (see [`Circuit`](crate::circuit::Circuit)'s batch plan). When a plan
//! has enough lanes and the calling thread's eval-thread budget
//! ([`eval_threads`]) is at least 2, the assembly shares those chunks
//! with one process-wide helper thread: the caller publishes the job,
//! gathers the chunks in order while the helper evaluates the ones
//! already gathered, claims whatever is left itself, and then waits only
//! for the chunk the helper has in flight. Gather and scatter never
//! leave the calling thread.
//!
//! Chunks are claimed from one atomic cursor, and every chunk is
//! evaluated by the same pure [`Device::batch_eval`] call whichever
//! thread runs it, so the evaluated columns — and everything stamped
//! from them — are bitwise the same at any budget.
//!
//! There is at most one helper per process. It is spawned on first use
//! and taken with a `try_lock`: an assembly that finds it busy (another
//! thread's assembly holds it) evaluates every chunk itself.
//!
//! [`Device::batch_eval`]: crate::device::Device::batch_eval

use std::any::Any;
use std::cell::Cell;
use std::hint::spin_loop;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::Duration;

use crate::stats::{count, Counter};

/// Smallest batched lane count at which an assembly engages the helper:
/// the measured break-even of `SramArrayGen` transients on a 2-vCPU
/// host, between the 8×8 array (432 lanes, no steady gain) and the
/// 10×10 array (660 lanes, about 13% faster).
pub(crate) const PAR_MIN_LANES: usize = 512;

/// Spin iterations (about 40 µs) before a waiting thread sleeps.
const SPINS: u32 = 2_000;

thread_local! {
    static EVAL_THREADS: Cell<usize> = const { Cell::new(2) };
}

/// This thread's eval-thread budget: how many threads an assembly on it
/// may use for device evaluation (default 2). Below 2 the helper is
/// never engaged.
pub fn eval_threads() -> usize {
    EVAL_THREADS.with(Cell::get)
}

/// Runs `f` with the eval-thread budget `threads` installed on this
/// thread, restoring the previous budget afterwards (also on unwind).
///
/// Threads that already share the machine's cores with siblings — the
/// harness pool's workers when it runs more than one, the job server's
/// workers — run with a budget of 1.
pub fn with_eval_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            EVAL_THREADS.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(EVAL_THREADS.with(|t| t.replace(threads)));
    f()
}

// A job's claim state is one word, so that one compare-exchange both
// checks and claims: bit 0 is set while the helper evaluates a chunk,
// bits 1..32 are the cursor (the next unclaimed chunk), bits 32..64 the
// limit (chunks gathered so far). A chunk is claimable while
// cursor < limit.

/// Set while the helper evaluates a chunk.
const BUSY: u64 = 1;
/// One step of the cursor field.
const CURSOR_ONE: u64 = 1 << 1;
/// One step of the limit field.
const LIMIT_ONE: u64 = 1 << 32;
/// Chunks a job may have: the cursor field must not carry into the
/// limit field.
const MAX_CHUNKS: usize = (1 << 31) - 2;

fn cursor(word: u64) -> usize {
    ((word >> 1) & 0x7fff_ffff) as usize
}

fn limit(word: u64) -> usize {
    (word >> 32) as usize
}

/// The helper thread, once spawned. Whoever holds this lock owns the
/// statics below.
static HELPER: Mutex<Option<Thread>> = Mutex::new(None);
/// The published job's claim word.
static WORD: AtomicU64 = AtomicU64::new(0);
/// The published job's chunk evaluator: a `*const &(dyn Fn(usize) +
/// Sync)` into the publishing caller's frame.
static EVAL: AtomicPtr<()> = AtomicPtr::new(ptr::null_mut());
/// Chunks the helper evaluated for the published job.
static HELPED: AtomicUsize = AtomicUsize::new(0);
/// The first panic the helper caught in the published job.
static CAUGHT: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
/// Set while the helper is (about to be) parked.
static SLEEPING: AtomicBool = AtomicBool::new(false);

/// Evaluates chunks `0..chunks` with `eval` for one assembly of `lanes`
/// batched lanes: runs `gather`, which must mark every chunk gathered, in
/// order, with [`Job::gathered`], then claims and evaluates every chunk
/// the helper has not. The job is published to the helper when the
/// assembly qualifies: at least [`PAR_MIN_LANES`] lanes, an eval-thread
/// budget of at least 2, and a helper that is free (or spawnable).
///
/// Returns `gather`'s error without evaluating the rest. On every exit —
/// that error or a panic included — the helper is joined before this
/// returns, and a panic the helper caught is re-raised here with its
/// original payload.
pub(crate) fn evaluate<T, E>(
    eval: &(dyn Fn(usize) + Sync),
    chunks: usize,
    lanes: usize,
    gather: impl FnOnce(&Job<'_>) -> Result<T, E>,
) -> Result<T, E> {
    // The job lives in this frame only, so it cannot be leaked: its drop
    // (the join) always runs before `eval` goes out of scope.
    let job = Job::new(&eval, chunks, lanes);
    let out = gather(&job)?;
    job.finish();
    Ok(out)
}

/// One assembly's chunk evaluations: chunks `0..chunks`, each claimed
/// once, by the caller or — when the job is published — by the helper.
/// Dropping a published job, on any exit (a panic included), stops the
/// helper from claiming more and waits for the chunk it has in flight,
/// so no borrow the job holds outlives it.
pub(crate) struct Job<'a> {
    eval: &'a (dyn Fn(usize) + Sync),
    chunks: usize,
    /// The claim word of a job that is not published.
    local: AtomicU64,
    /// The helper lock, held while the job is published.
    helper: Option<MutexGuard<'static, Option<Thread>>>,
}

impl<'a> Job<'a> {
    /// A job over `chunks` chunks, none gathered yet, evaluated by
    /// `eval`, and published to the helper when the assembly qualifies
    /// (see [`evaluate`]).
    fn new(eval: &'a &'a (dyn Fn(usize) + Sync), chunks: usize, lanes: usize) -> Job<'a> {
        assert!(chunks <= MAX_CHUNKS, "{chunks} chunks overflow the cursor");
        let helper = (lanes >= PAR_MIN_LANES && eval_threads() >= 2)
            .then(|| publish(eval))
            .flatten();
        Job {
            eval: *eval,
            chunks,
            local: AtomicU64::new(0),
            helper,
        }
    }

    fn word(&self) -> &AtomicU64 {
        match self.helper {
            Some(_) => &WORD,
            None => &self.local,
        }
    }

    /// Marks the next chunk, in order, as gathered: from now on the
    /// helper may claim it.
    pub(crate) fn gathered(&self) {
        self.word().fetch_add(LIMIT_ONE, SeqCst);
        if let Some(Some(helper)) = self.helper.as_deref() {
            wake(helper);
        }
    }

    /// Claims and evaluates every chunk still unclaimed (all must be
    /// gathered), joins the helper, counts its share, and re-raises a
    /// panic it caught, with the original payload.
    fn finish(self) {
        loop {
            let c = cursor(self.word().fetch_add(CURSOR_ONE, SeqCst));
            if c >= self.chunks {
                break;
            }
            (self.eval)(c);
        }
        if self.helper.is_none() {
            return;
        }
        self.join();
        count(Counter::ParallelEvals, 1);
        count(Counter::HelperChunks, HELPED.load(SeqCst) as u64);
        let caught = lock(&CAUGHT).take();
        drop(self);
        if let Some(payload) = caught {
            panic::resume_unwind(payload);
        }
    }

    /// Stops the helper claiming (moves the cursor to the limit) and
    /// waits until it has no chunk in flight. Idempotent.
    fn join(&self) {
        let mut word = WORD.load(SeqCst);
        while cursor(word) < limit(word) {
            let closed = word + (limit(word) - cursor(word)) as u64 * CURSOR_ONE;
            match WORD.compare_exchange_weak(word, closed, SeqCst, SeqCst) {
                Ok(_) => break,
                Err(now) => word = now,
            }
        }
        let mut spins = 0;
        while WORD.load(SeqCst) & BUSY != 0 {
            if spins < SPINS {
                spins += 1;
                spin_loop();
            } else {
                // Sleep rather than yield: if the helper shares this
                // core, it must get the core to finish its chunk.
                thread::sleep(Duration::from_micros(10));
            }
        }
    }
}

impl Drop for Job<'_> {
    fn drop(&mut self) {
        if self.helper.is_some() {
            self.join();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every value behind these locks is whole at every step.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the helper (spawning it on first use) and publishes a fresh
/// job evaluated by `eval`; `None` when another thread holds the helper
/// or it cannot be spawned.
fn publish(eval: &&(dyn Fn(usize) + Sync)) -> Option<MutexGuard<'static, Option<Thread>>> {
    let mut helper = match HELPER.try_lock() {
        Ok(guard) => guard,
        // The panicking holder joined its job first (`Job::drop`).
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => return None,
    };
    if helper.is_none() {
        *helper = thread::Builder::new()
            .name("spice-eval-helper".into())
            .spawn(serve)
            .ok()
            .map(|handle| handle.thread().clone());
    }
    let thread = helper.as_ref()?;
    HELPED.store(0, SeqCst);
    *lock(&CAUGHT) = None;
    EVAL.store(ptr::from_ref(eval).cast_mut().cast(), SeqCst);
    // The previous job was joined (cursor at its limit, not busy), so
    // the helper holds no claim and cannot win one until chunks are
    // gathered.
    WORD.store(0, SeqCst);
    wake(thread);
    Some(helper)
}

/// Unparks the helper if it parked (or is about to). Pairs with the
/// `SLEEPING` store and claim-word load in [`serve`]: with both sides
/// `SeqCst`, either the helper sees the new work or this sees it asleep.
fn wake(helper: &Thread) {
    if SLEEPING.swap(false, SeqCst) {
        helper.unpark();
    }
}

/// The helper's loop: claim and evaluate gathered chunks; spin, then
/// park, while there are none. It never returns and is never joined:
/// [`help`] catches every panic of a chunk evaluation, so nothing ends
/// it before the process exits.
fn serve() {
    let mut spins = 0;
    loop {
        if help() {
            spins = 0;
        } else if spins < SPINS {
            spins += 1;
            spin_loop();
        } else {
            SLEEPING.store(true, SeqCst);
            let word = WORD.load(SeqCst);
            if cursor(word) >= limit(word) {
                thread::park();
            }
            SLEEPING.store(false, SeqCst);
            spins = 0;
        }
    }
}

/// Claims and evaluates one gathered chunk of the published job. Returns
/// whether a chunk was claimable.
fn help() -> bool {
    let word = WORD.load(SeqCst);
    let c = cursor(word);
    if c >= limit(word) {
        return false;
    }
    if WORD
        .compare_exchange_weak(word, word + CURSOR_ONE + BUSY, SeqCst, SeqCst)
        .is_err()
    {
        return true;
    }
    // SAFETY: the claim succeeded on a word with cursor < limit, so the
    // job that owns the word is still published: its caller closes the
    // cursor in `Job::join` before its `Job` (and every borrow the job
    // holds) can end, and `join` then waits until `BUSY`, set by this
    // claim, is clear. `EVAL` was stored before that job's first word and
    // is replaced only by the next `publish`, after that join, so it
    // points at the caller's live `&(dyn Fn(usize) + Sync)` until the
    // `fetch_and` below, after this function's last use of it.
    let eval = unsafe { *EVAL.load(SeqCst).cast::<&(dyn Fn(usize) + Sync)>() };
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| eval(c))) {
        lock(&CAUGHT).get_or_insert(payload);
    }
    HELPED.fetch_add(1, SeqCst);
    WORD.fetch_and(!BUSY, SeqCst);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_defaults_to_two_and_scopes_restore() {
        assert_eq!(eval_threads(), 2);
        with_eval_threads(1, || {
            assert_eq!(eval_threads(), 1);
            let _ = panic::catch_unwind(|| with_eval_threads(5, || panic!("inner")));
            assert_eq!(eval_threads(), 1);
        });
        assert_eq!(eval_threads(), 2);
    }

    #[test]
    fn claim_word_fields_do_not_overlap() {
        let word = 7 * LIMIT_ONE + 5 * CURSOR_ONE + BUSY;
        assert_eq!((cursor(word), limit(word), word & BUSY), (5, 7, 1));
        let full = MAX_CHUNKS as u64 * LIMIT_ONE + (MAX_CHUNKS as u64 + 1) * CURSOR_ONE;
        assert_eq!((cursor(full), limit(full)), (MAX_CHUNKS + 1, MAX_CHUNKS));
    }

    #[test]
    fn helper_claims_each_gathered_chunk_once_and_nothing_beyond() {
        use std::time::Instant;
        const CHUNKS: usize = 8;
        let gathered: Vec<AtomicBool> = (0..CHUNKS).map(|_| AtomicBool::new(false)).collect();
        let hits: Vec<AtomicUsize> = (0..CHUNKS).map(|_| AtomicUsize::new(0)).collect();
        let early = AtomicUsize::new(0);
        let caller = thread::current().id();
        let by_caller = AtomicUsize::new(0);
        let eval = |c: usize| {
            if !gathered[c].load(SeqCst) {
                early.fetch_add(1, SeqCst);
            }
            if thread::current().id() == caller {
                by_caller.fetch_add(1, SeqCst);
            }
            hits[c].fetch_add(1, SeqCst);
        };
        let eval: &(dyn Fn(usize) + Sync) = &eval;
        let (out, spent) = crate::stats::measure(|| {
            evaluate(eval, CHUNKS, PAR_MIN_LANES, |job| {
                assert!(job.helper.is_some(), "no other test takes the helper");
                // Hand over one chunk at a time and wait for the helper to
                // evaluate it before gathering the next: it must take
                // every chunk, and none before it is gathered.
                for c in 0..CHUNKS {
                    gathered[c].store(true, SeqCst);
                    job.gathered();
                    let start = Instant::now();
                    while hits[c].load(SeqCst) == 0 && start.elapsed() < Duration::from_secs(5) {
                        thread::yield_now();
                    }
                }
                Ok::<_, ()>(())
            })
        });
        assert_eq!(out, Ok(()));
        assert_eq!(
            early.load(SeqCst),
            0,
            "a chunk was evaluated before it was gathered"
        );
        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
        assert_eq!(by_caller.load(SeqCst), 0);
        assert_eq!(
            (spent.parallel_evals, spent.helper_chunks),
            (1, CHUNKS as u64)
        );
    }

    #[test]
    fn unpublished_job_evaluates_every_chunk_once() {
        let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        let eval = |c: usize| {
            hits[c].fetch_add(1, SeqCst);
        };
        // Too few lanes, or a budget of 1: the helper stays out.
        for (lanes, threads) in [(PAR_MIN_LANES - 1, 2), (PAR_MIN_LANES, 1)] {
            let out = with_eval_threads(threads, || {
                evaluate(&eval, hits.len(), lanes, |job| {
                    assert!(job.helper.is_none());
                    for _ in 0..hits.len() {
                        job.gathered();
                    }
                    Ok::<_, ()>(lanes)
                })
            });
            assert_eq!(out, Ok(lanes));
        }
        assert!(hits.iter().all(|h| h.load(SeqCst) == 2));
        // An error from `gather` comes back without evaluating anything.
        let out = evaluate(&eval, hits.len(), 0, |job| {
            job.gathered();
            Err::<(), _>("gather failed")
        });
        assert_eq!(out, Err("gather failed"));
        assert!(hits.iter().all(|h| h.load(SeqCst) == 2));
    }
}
