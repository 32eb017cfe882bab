//! The resident job server: socket loop, worker pool, heartbeat pump,
//! and crash-tolerant restart.
//!
//! # Lifecycle of one submission
//!
//! 1. A connection's reader thread parses the request and runs it
//!    through [`Admission::submit`], which journals the acceptance
//!    (fsync) *before* the `accepted` line is written back — the
//!    zero-lost-acks invariant.
//! 2. A worker takes the job (highest priority first) and resolves it
//!    cheapest-first: journal replay → content-addressed cache → real
//!    execution under the retry ladder, a per-job [`Budget`] wired to
//!    the supervision policy and the client's [`QuotaPool`], and (when
//!    configured) the stall watchdog.
//! 3. Every terminal outcome — success, typed failure, or shed — is
//!    journaled as a marker object, so a restarted server can answer
//!    `result` probes for the whole run without re-executing anything.
//!
//! # Crash tolerance
//!
//! [`serve`] opens the run's [`Journal`] first thing. Completed jobs
//! replay into memory; accepted-but-unfinished jobs (the obligations a
//! `kill -9` leaves behind) are re-enqueued as orphans before the
//! socket is even bound. Because deck execution is deterministic from
//! the spec alone, the re-run results are bitwise identical to what the
//! dead process would have produced.
//!
//! [`Budget`]: nemscmos_spice::budget::Budget
//! [`QuotaPool`]: nemscmos_spice::budget::QuotaPool

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nemscmos_harness::{
    content_digest, run_with_retries, spec_seed, Cache, HarnessError, Journal, Json, JsonCodec,
    RetryPolicy, Supervision, Watchdog,
};
use nemscmos_spice::budget::{self, InterruptFlag};
use nemscmos_spice::par;
use nemscmos_spice::stats::{self, Heartbeat};

use crate::admission::{Admission, AdmissionConfig, QueuedJob, SubmitOutcome};
use crate::deck::Deck;
use crate::proto::{RejectReason, Request, Response};

/// Everything one [`serve`] call needs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path to listen on (stale files are unlinked).
    pub socket: PathBuf,
    /// Run directory holding the journal and result cache.
    pub dir: PathBuf,
    /// Journal run id — restarting with the same id resumes the run.
    pub run_id: String,
    /// Worker thread count.
    pub workers: usize,
    /// Queue, quota, and size-limit policy.
    pub admission: AdmissionConfig,
    /// Per-job deadline/stall/iteration-cap policy.
    pub supervision: Supervision,
    /// Heartbeat streaming interval.
    pub heartbeat_every: Duration,
}

impl ServerConfig {
    /// A config with default policies rooted at `dir`.
    pub fn new(socket: impl Into<PathBuf>, dir: impl Into<PathBuf>, run_id: &str) -> ServerConfig {
        ServerConfig {
            socket: socket.into(),
            dir: dir.into(),
            run_id: run_id.to_string(),
            workers: 2,
            admission: AdmissionConfig::default(),
            supervision: Supervision::default(),
            heartbeat_every: Duration::from_millis(250),
        }
    }
}

/// Journal marker for a successful result. Markers (rather than raw
/// results) let a restarted server distinguish success, typed failure,
/// and shed tombstones when replaying.
pub(crate) fn ok_marker(result: &Json, degraded: bool, rung: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), result.clone()),
        ("degraded".into(), Json::Bool(degraded)),
        ("rung".into(), Json::Str(rung.into())),
    ])
}

/// Journal marker for a typed failure.
pub(crate) fn failed_marker(kind: &str, error: &str) -> Json {
    Json::Obj(vec![
        ("failed".into(), Json::Str(kind.into())),
        ("error".into(), Json::Str(error.into())),
    ])
}

/// Journal tombstone for a shed job.
pub(crate) fn shed_marker() -> Json {
    Json::Obj(vec![("shed".into(), Json::Bool(true))])
}

/// A decoded journal marker.
pub(crate) enum Recorded {
    /// The job completed; the payload is the result artifact.
    Ok {
        /// The result artifact.
        result: Json,
        /// Whether the recorded run was a degraded variant.
        degraded: bool,
        /// Ladder rung that succeeded (empty for replays).
        rung: String,
    },
    /// The job failed with a typed taxonomy kind.
    Failed {
        /// [`FailureKind`](nemscmos_harness::FailureKind) label.
        kind: String,
        /// Rendered error.
        error: String,
    },
    /// The job was shed before running.
    Shed,
}

pub(crate) fn decode_marker(v: &Json) -> Recorded {
    if let Some(result) = v.get("ok") {
        return Recorded::Ok {
            result: result.clone(),
            degraded: v.get("degraded").and_then(Json::as_bool).unwrap_or(false),
            rung: v
                .get("rung")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        };
    }
    if let Some(kind) = v.get("failed").and_then(Json::as_str) {
        return Recorded::Failed {
            kind: kind.to_string(),
            error: v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        };
    }
    if v.get("shed").and_then(Json::as_bool) == Some(true) {
        return Recorded::Shed;
    }
    // Marker-less payload (foreign journal): treat as a plain success.
    Recorded::Ok {
        result: v.clone(),
        degraded: false,
        rung: String::new(),
    }
}

/// One executing job, visible to the heartbeat pump.
struct RunningEntry {
    digest: String,
    hb: Arc<Heartbeat>,
    reply: Option<Sender<Response>>,
}

struct Shared {
    admission: Admission,
    journal: Journal,
    cache: Cache,
    supervision: Supervision,
    watchdog: Option<Watchdog>,
    running: Mutex<HashMap<u64, RunningEntry>>,
    /// A clone of each open connection's stream, by accept order:
    /// readers block until their client speaks, so once stopping `serve`
    /// shuts these read sides to end every reader with end-of-file.
    open: Mutex<HashMap<u64, UnixStream>>,
    stopping: AtomicBool,
}

impl Shared {
    fn open_streams(&self) -> MutexGuard<'_, HashMap<u64, UnixStream>> {
        self.open.lock().expect("open-stream registry poisoned")
    }

    fn send(reply: &Option<Sender<Response>>, resp: Response) {
        if let Some(tx) = reply {
            // A gone client (dropped connection) is not an error; the
            // journal still holds the outcome for a later `result` probe.
            let _ = tx.send(resp);
        }
    }

    /// Resolves one taken job: journal replay, cache replay, or real
    /// execution under budget + ladder. Always journals and counts the
    /// terminal outcome before notifying, so a client that has seen the
    /// terminal line finds it in `health`.
    fn run_job(&self, job: QueuedJob) {
        if let Some(marker) = self.journal.lookup(&job.digest, &job.spec) {
            if let Recorded::Ok {
                result,
                degraded,
                rung,
            } = decode_marker(&marker)
            {
                self.admission.job_done(|c| {
                    c.completed += 1;
                    c.replayed_journal += 1;
                });
                Self::send(
                    &job.reply,
                    Response::Done {
                        digest: job.digest,
                        degraded,
                        source: "journal".into(),
                        rung,
                        result,
                    },
                );
                return;
            }
            // Failed/shed tombstone: a resubmission is a fresh request —
            // fall through and execute.
        }
        if let Some(result) = self.cache.load(&job.digest, &job.spec) {
            let _ = self.journal.record(
                &job.client,
                &job.digest,
                &job.spec,
                &ok_marker(&result, job.degraded, ""),
            );
            self.admission.job_done(|c| {
                c.completed += 1;
                c.replayed_cache += 1;
            });
            Self::send(
                &job.reply,
                Response::Done {
                    digest: job.digest,
                    degraded: job.degraded,
                    source: "cache".into(),
                    rung: String::new(),
                    result,
                },
            );
            return;
        }

        let flag = InterruptFlag::new();
        let hb = Arc::new(Heartbeat::new());
        let mut job_budget = self.supervision.budget(flag.clone(), Arc::clone(&hb));
        if let Some(quota) = &job.quota {
            // The client's remaining grant caps this job in-band: a
            // runaway deck is stopped mid-run with a typed `deadline`
            // failure, not merely billed afterwards. A just-exhausted
            // pool (admission raced a settle) still gets 1 iteration so
            // the trip is typed rather than a zero-division oddity.
            let remaining = quota.remaining().max(1);
            job_budget.max_newton = Some(
                job_budget
                    .max_newton
                    .map_or(remaining, |m| m.min(remaining)),
            );
        }
        self.running
            .lock()
            .expect("running registry poisoned")
            .insert(
                job.seq,
                RunningEntry {
                    digest: job.digest.clone(),
                    hb: Arc::clone(&hb),
                    reply: job.reply.clone(),
                },
            );
        let guard = self
            .watchdog
            .as_ref()
            .map(|w| w.register(job.seq as usize, flag.clone(), Arc::clone(&hb)));
        let before = stats::snapshot();
        // The budget wraps the *whole* ladder: one allowance covers all
        // rungs, and a flag raised on rung N fails rung N+1 on its first
        // poll instead of burning the remaining escalations.
        let outcome = budget::with(job_budget, || {
            run_with_retries(RetryPolicy::default(), spec_seed(&job.spec), |_| {
                job.deck.execute()
            })
        });
        let spent = stats::snapshot().delta_since(&before);
        drop(guard);
        self.running
            .lock()
            .expect("running registry poisoned")
            .remove(&job.seq);
        if let Some(quota) = &job.quota {
            quota.settle(&spent);
        }
        match outcome {
            Ok((result, rung, attempts)) => {
                let _ = self.cache.store(&job.digest, &job.spec, &result);
                let _ = self.journal.record(
                    &job.client,
                    &job.digest,
                    &job.spec,
                    &ok_marker(&result, job.degraded, rung.label()),
                );
                self.admission.job_done(|c| {
                    c.completed += 1;
                    if attempts > 1 {
                        c.retried += 1;
                    }
                });
                Self::send(
                    &job.reply,
                    Response::Done {
                        digest: job.digest,
                        degraded: job.degraded,
                        source: "run".into(),
                        rung: rung.label().into(),
                        result,
                    },
                );
            }
            Err(e) => {
                let kind = e.kind();
                let error = e.to_string();
                let _ = self.journal.record(
                    &job.client,
                    &job.digest,
                    &job.spec,
                    &failed_marker(kind.label(), &error),
                );
                self.admission.job_done(|c| {
                    c.failed += 1;
                    match kind {
                        nemscmos_harness::FailureKind::Deadline => c.deadline_exceeded += 1,
                        nemscmos_harness::FailureKind::Cancelled => c.cancelled += 1,
                        _ => {}
                    }
                });
                Self::send(
                    &job.reply,
                    Response::Failed {
                        digest: job.digest,
                        kind: kind.label().into(),
                        error,
                    },
                );
            }
        }
    }

    /// Whether `digest` is currently executing.
    fn is_running(&self, digest: &str) -> bool {
        self.running
            .lock()
            .expect("running registry poisoned")
            .values()
            .any(|e| e.digest == digest)
    }

    /// The health snapshot: queue state, typed-outcome counters, and
    /// durability totals.
    fn health_json(&self) -> Json {
        let (queue_depth, running, draining, clients, c) = self.admission.snapshot();
        let n = |v: u64| v.to_json();
        Json::Obj(vec![
            ("queue_depth".into(), n(queue_depth)),
            ("running".into(), n(running)),
            ("draining".into(), Json::Bool(draining)),
            ("clients".into(), n(clients)),
            ("accepted".into(), n(c.accepted)),
            ("degraded".into(), n(c.degraded)),
            ("shed".into(), n(c.shed)),
            ("completed".into(), n(c.completed)),
            ("replayed_journal".into(), n(c.replayed_journal)),
            ("replayed_cache".into(), n(c.replayed_cache)),
            ("failed".into(), n(c.failed)),
            ("deadline_exceeded".into(), n(c.deadline_exceeded)),
            ("cancelled".into(), n(c.cancelled)),
            ("retried".into(), n(c.retried)),
            (
                "rejected".into(),
                Json::Obj(vec![
                    ("queue-full".into(), n(c.rejected_queue_full)),
                    ("quota-exhausted".into(), n(c.rejected_quota)),
                    ("deck-too-large".into(), n(c.rejected_too_large)),
                    ("bad-request".into(), n(c.rejected_bad_request)),
                    ("draining".into(), n(c.rejected_draining)),
                ]),
            ),
            (
                "journal".into(),
                Json::Obj(vec![
                    ("recovered".into(), n(self.journal.recovered() as u64)),
                    ("torn".into(), n(self.journal.torn() as u64)),
                    ("pending".into(), n(self.journal.pending().len() as u64)),
                ]),
            ),
            ("cache_quarantined".into(), n(self.cache.quarantined())),
            ("supervision".into(), Json::Str(self.supervision.describe())),
        ])
    }

    /// Answers a `result` probe for `spec` from durable state.
    fn probe(&self, spec: &str) -> Response {
        let deck = match Deck::parse(spec) {
            Ok(d) => d,
            Err(e) => {
                self.admission.count(|c| c.rejected_bad_request += 1);
                return Response::Rejected {
                    reason: RejectReason::BadRequest,
                    detail: e,
                };
            }
        };
        let canonical = deck.canonical();
        let digest = content_digest(&canonical);
        if let Some(marker) = self.journal.lookup(&digest, &canonical) {
            return match decode_marker(&marker) {
                Recorded::Ok {
                    result,
                    degraded,
                    rung,
                } => {
                    self.admission.count(|c| c.replayed_journal += 1);
                    Response::Done {
                        digest,
                        degraded,
                        source: "journal".into(),
                        rung,
                        result,
                    }
                }
                Recorded::Failed { kind, error } => Response::Failed {
                    digest,
                    kind,
                    error,
                },
                Recorded::Shed => Response::Shed { digest },
            };
        }
        if self.is_running(&digest) || self.admission.is_queued(&digest) {
            return Response::Running { digest };
        }
        // An accepted-but-unfinished obligation from a previous
        // incarnation that a worker has not reached yet.
        if self
            .journal
            .pending()
            .iter()
            .any(|(_, d, s)| *d == digest && *s == canonical)
        {
            return Response::Running { digest };
        }
        if let Some(result) = self.cache.load(&digest, &canonical) {
            self.admission.count(|c| c.replayed_cache += 1);
            return Response::Done {
                digest,
                degraded: false,
                source: "cache".into(),
                rung: String::new(),
                result,
            };
        }
        Response::Rejected {
            reason: RejectReason::NotFound,
            detail: format!("no outcome for digest {digest} in this run"),
        }
    }

    /// Dispatches one parsed request from a connection.
    fn handle(&self, req: Request, tx: &Sender<Response>) {
        match req {
            Request::Submit {
                client,
                deck,
                priority,
            } => match self.admission.submit(
                &client,
                &deck,
                priority,
                Some(tx.clone()),
                &self.journal,
            ) {
                SubmitOutcome::Accepted {
                    digest,
                    effective,
                    degraded,
                    shed,
                } => {
                    if let Some(victim) = shed {
                        Self::send(
                            &victim.reply,
                            Response::Shed {
                                digest: victim.digest,
                            },
                        );
                    }
                    let _ = tx.send(Response::Accepted {
                        digest,
                        degraded,
                        effective,
                    });
                }
                SubmitOutcome::Rejected { reason, detail } => {
                    let _ = tx.send(Response::Rejected { reason, detail });
                }
            },
            Request::Result { deck } => {
                let _ = tx.send(self.probe(&deck));
            }
            Request::Health => {
                let _ = tx.send(Response::Health {
                    stats: self.health_json(),
                });
            }
            Request::Shutdown => {
                let (queued, running) = self.admission.drain();
                let _ = tx.send(Response::Draining { queued, running });
            }
        }
    }
}

fn handle_connection(shared: &Shared, stream: UnixStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<Response>();
    let writer = std::thread::Builder::new()
        .name("server-conn-writer".into())
        .spawn(move || {
            let mut out = BufWriter::new(write_half);
            while let Ok(resp) = rx.recv() {
                if writeln!(out, "{}", resp.render()).is_err() || out.flush().is_err() {
                    break;
                }
            }
        })
        .expect("spawn connection writer");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    match Request::parse(trimmed) {
                        Ok(req) => shared.handle(req, &tx),
                        Err(detail) => {
                            shared.admission.count(|c| c.rejected_bad_request += 1);
                            let _ = tx.send(Response::Rejected {
                                reason: RejectReason::BadRequest,
                                detail,
                            });
                        }
                    }
                }
                line.clear();
            }
            Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Runs the server until a graceful drain completes. Blocks the calling
/// thread; spawn it when embedding (see the integration tests).
///
/// # Errors
///
/// [`HarnessError`] when the journal cannot be opened or the socket
/// cannot be bound.
pub fn serve(config: ServerConfig) -> Result<(), HarnessError> {
    let journal = Journal::open(&config.dir, &config.run_id)?;
    let cache = Cache::at(config.dir.join("cache"));
    let watchdog = config
        .supervision
        .needs_watchdog()
        .then(|| Watchdog::spawn(&config.supervision));
    let shared = Arc::new(Shared {
        admission: Admission::new(config.admission.clone()),
        journal,
        cache,
        supervision: config.supervision.clone(),
        watchdog,
        running: Mutex::new(HashMap::new()),
        open: Mutex::new(HashMap::new()),
        stopping: AtomicBool::new(false),
    });

    // Restart obligations first: every accepted-but-unfinished job from
    // a previous incarnation is re-enqueued before the socket opens, so
    // no client can observe a lost ack.
    for (client, digest, spec) in shared.journal.pending() {
        match Deck::parse(&spec) {
            Ok(deck) => shared
                .admission
                .enqueue_resumed(&client, &digest, &spec, deck),
            Err(e) => {
                // A journaled spec that no longer parses cannot be
                // re-run; close it out as a typed failure rather than
                // carrying the obligation forever.
                let _ = shared.journal.record(
                    &client,
                    &digest,
                    &spec,
                    &failed_marker("config", &format!("unreplayable journaled spec: {e}")),
                );
            }
        }
    }

    // A kill -9 leaves the old socket file behind; a fresh bind needs
    // it gone.
    if config.socket.exists() {
        let _ = std::fs::remove_file(&config.socket);
    }
    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| HarnessError::Config(format!("bind {:?}: {e}", config.socket)))?;

    let mut workers = Vec::new();
    for i in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        let socket = config.socket.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("server-worker-{i}"))
                // Workers share the cores with each other, so each one
                // evaluates its jobs' devices on its own thread.
                .spawn(move || {
                    par::with_eval_threads(1, || {
                        while let Some(job) = shared.admission.take() {
                            shared.run_job(job);
                        }
                    });
                    // Workers leave only once draining with an empty
                    // queue, so the last one out sees the drain complete
                    // and wakes the blocking accept below by connecting
                    // (refused once the loop is gone).
                    if shared.admission.drained() {
                        let _ = UnixStream::connect(&socket);
                    }
                })
                .expect("spawn worker"),
        );
    }
    let pump = {
        let shared = Arc::clone(&shared);
        let every = config.heartbeat_every;
        std::thread::Builder::new()
            .name("server-heartbeat-pump".into())
            .spawn(move || {
                // Parked between ticks: `serve` unparks the pump once
                // stopping, so a drain never waits out a tick.
                let mut next = Instant::now() + every;
                while !shared.stopping.load(Ordering::Acquire) {
                    let now = Instant::now();
                    if now < next {
                        std::thread::park_timeout(next - now);
                        continue;
                    }
                    next = now + every;
                    let running = shared.running.lock().expect("running registry poisoned");
                    for entry in running.values() {
                        let snap = entry.hb.snapshot();
                        Shared::send(
                            &entry.reply,
                            Response::Heartbeat {
                                digest: entry.digest.clone(),
                                newton: snap.newton_iterations,
                                progress: entry.hb.progress(),
                            },
                        );
                    }
                }
            })
            .expect("spawn heartbeat pump")
    };

    // Blocking accepts: the last worker out connects once the drain
    // completes, and that connection, like any arriving after the drain,
    // ends the loop unserved.
    let mut connections = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.admission.drained() {
            break;
        }
        let Ok(stream) = stream else {
            break;
        };
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        shared.open_streams().insert(id, read_half);
        let shared = Arc::clone(&shared);
        connections.push(
            std::thread::Builder::new()
                .name("server-conn".into())
                .spawn(move || {
                    handle_connection(&shared, stream);
                    shared.open_streams().remove(&id);
                })
                .expect("spawn connection handler"),
        );
    }
    shared.stopping.store(true, Ordering::Release);
    pump.thread().unpark();
    for w in workers {
        let _ = w.join();
    }
    let _ = pump.join();
    for stream in shared.open_streams().values() {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for c in connections {
        let _ = c.join();
    }
    let _ = std::fs::remove_file(&config.socket);
    Ok(())
}
