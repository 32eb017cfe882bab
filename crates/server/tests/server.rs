//! End-to-end tests: a real server on a real Unix socket, driven by
//! [`ServerClient`]. Each test gets its own scratch run directory and
//! socket; the server is spawned in-process on a thread and shut down
//! through the protocol's graceful drain.

use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nemscmos_harness::{content_digest, Journal, Json};
use nemscmos_server::{serve, Deck, Limits, RejectReason, Response, ServerClient, ServerConfig};

struct TestServer {
    dir: PathBuf,
    socket: PathBuf,
    handle: Option<JoinHandle<()>>,
}

impl TestServer {
    /// Starts a server with `config(base)` in a fresh scratch dir.
    fn start(tag: &str, config: impl FnOnce(ServerConfig) -> ServerConfig) -> TestServer {
        let dir =
            std::env::temp_dir().join(format!("nemscmos-server-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TestServer::start_in(dir, config)
    }

    /// Starts (or restarts) a server in an existing run dir.
    fn start_in(dir: PathBuf, config: impl FnOnce(ServerConfig) -> ServerConfig) -> TestServer {
        let socket = dir.join("server.sock");
        let cfg = config(ServerConfig::new(&socket, &dir, "e2e"));
        let handle = std::thread::spawn(move || serve(cfg).expect("server runs"));
        TestServer {
            dir,
            socket,
            handle: Some(handle),
        }
    }

    fn client(&self) -> ServerClient {
        ServerClient::connect_with_retry(&self.socket, 50, Duration::from_millis(20))
            .expect("server comes up")
    }

    /// Graceful drain + join; asserts the serve loop exits.
    fn stop(mut self, client: &mut ServerClient) {
        client.shutdown().expect("drain acknowledged");
        self.handle.take().unwrap().join().expect("clean exit");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn done_result(resp: &Response) -> (&str, &Json) {
    match resp {
        Response::Done { source, result, .. } => (source.as_str(), result),
        other => panic!("expected done, got {other:?}"),
    }
}

#[test]
fn submit_runs_replays_and_reports_health() {
    let server = TestServer::start("basic", |c| c);
    let mut client = server.client();
    let spec = "deck v1 mc trials=24 seed=9 sigma=0.05";

    let accepted = client.submit("alice", spec, 5).unwrap();
    let digest = match &accepted {
        Response::Accepted {
            digest,
            degraded,
            effective,
        } => {
            assert!(!degraded, "below the watermark nothing degrades");
            assert_eq!(effective, spec);
            digest.clone()
        }
        other => panic!("expected accepted, got {other:?}"),
    };
    let (terminal, _) = client.wait(&digest).unwrap();
    let (source, result) = done_result(&terminal);
    assert_eq!(source, "run");
    let mean = result.get("mean").and_then(Json::as_f64).unwrap();
    assert!(mean.is_finite() && mean > 0.0, "divider mean sane: {mean}");

    // Resubmitting the same spec replays from the journal, bitwise.
    let again = client.submit("alice", spec, 5).unwrap();
    let digest2 = match &again {
        Response::Accepted { digest, .. } => digest.clone(),
        other => panic!("{other:?}"),
    };
    assert_eq!(digest2, digest);
    let (replayed, _) = client.wait(&digest).unwrap();
    let (source, replay_result) = done_result(&replayed);
    assert_eq!(source, "journal");
    assert_eq!(replay_result.render(), result.render(), "bitwise replay");

    // The result op answers from durable state too.
    let probed = client.result(spec).unwrap();
    assert_eq!(done_result(&probed).1.render(), result.render());

    // Health reflects all of it.
    let health = client.health().unwrap();
    let n = |k: &str| health.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(n("accepted"), 2);
    assert_eq!(n("completed"), 2);
    assert!(n("replayed_journal") >= 1);
    assert_eq!(n("failed"), 0);
    assert!(health.get("supervision").and_then(Json::as_str).is_some());

    // Unknown specs are a typed not-found.
    let missing = client
        .result("deck v1 mc trials=5 seed=77 sigma=0.1")
        .unwrap();
    assert!(ServerClient::rejected_with(
        &missing,
        RejectReason::NotFound
    ));

    server.stop(&mut client);
}

#[test]
fn typed_rejections_for_bad_oversized_and_draining() {
    let server = TestServer::start("reject", |mut c| {
        c.admission.limits = Limits {
            max_fan_in: 4,
            max_trials: 50,
        };
        c
    });
    let mut client = server.client();

    let bad = client.submit("bob", "deck v1 warp factor=9", 5).unwrap();
    assert!(ServerClient::rejected_with(&bad, RejectReason::BadRequest));
    let wide = client
        .submit("bob", "deck v1 domino fan_in=5 fan_out=1", 5)
        .unwrap();
    assert!(ServerClient::rejected_with(
        &wide,
        RejectReason::DeckTooLarge
    ));
    let heavy = client
        .submit("bob", "deck v1 mc trials=51 seed=1 sigma=0.1", 5)
        .unwrap();
    assert!(ServerClient::rejected_with(
        &heavy,
        RejectReason::DeckTooLarge
    ));

    // Raw protocol garbage is also a typed rejection, not a hangup.
    let garbage = client.submit("bob", "", 5).unwrap();
    assert!(ServerClient::rejected_with(
        &garbage,
        RejectReason::BadRequest
    ));

    let health = client.health().unwrap();
    let rejected = health.get("rejected").unwrap();
    let n = |k: &str| rejected.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(n("bad-request"), 2);
    assert_eq!(n("deck-too-large"), 2);

    // After the drain flips, submissions are refused as draining.
    client.shutdown().unwrap();
    let late = client.submit("bob", "deck v1 mc trials=5 seed=1 sigma=0.1", 5);
    if let Ok(resp) = late {
        assert!(ServerClient::rejected_with(&resp, RejectReason::Draining));
    } // a closed socket is also an acceptable refusal during shutdown

    if let Some(h) = server.handle {
        h.join().expect("clean exit");
    }
    let _ = std::fs::remove_dir_all(&server.dir);
}

#[test]
fn quota_kills_runaway_clients_in_band_and_refuses_further_work() {
    let server = TestServer::start("quota", |mut c| {
        c.admission.quota_newton = 10;
        c
    });
    let mut client = server.client();

    // 60 trials cost well over 10 Newton iterations: the budget stops
    // the job mid-run with a typed deadline failure.
    let spec = "deck v1 mc trials=60 seed=3 sigma=0.05";
    let accepted = client.submit("greedy", spec, 5).unwrap();
    let digest = match &accepted {
        Response::Accepted { digest, .. } => digest.clone(),
        other => panic!("{other:?}"),
    };
    let (terminal, _) = client.wait(&digest).unwrap();
    match &terminal {
        Response::Failed { kind, .. } => assert_eq!(kind, "deadline"),
        other => panic!("expected an in-band budget kill, got {other:?}"),
    }

    // The pool is spent: the next submission is refused outright.
    let refused = client.submit("greedy", spec, 5).unwrap();
    assert!(ServerClient::rejected_with(
        &refused,
        RejectReason::QuotaExhausted
    ));
    // A different client has its own pool; a 2-trial deck (~2-3 Newton
    // iterations per trial) fits comfortably inside a fresh grant of 10.
    let ok = client
        .submit("frugal", "deck v1 mc trials=2 seed=3 sigma=0.05", 5)
        .unwrap();
    let digest = match &ok {
        Response::Accepted { digest, .. } => digest.clone(),
        other => panic!("{other:?}"),
    };
    let (terminal, _) = client.wait(&digest).unwrap();
    assert!(matches!(terminal, Response::Done { .. }), "{terminal:?}");

    let health = client.health().unwrap();
    let rejected = health.get("rejected").unwrap();
    assert_eq!(
        rejected
            .get("quota-exhausted")
            .and_then(Json::as_f64)
            .unwrap() as u64,
        1
    );
    assert_eq!(
        health
            .get("deadline_exceeded")
            .and_then(Json::as_f64)
            .unwrap() as u64,
        1
    );

    server.stop(&mut client);
}

#[test]
fn faulted_decks_escalate_the_ladder_or_surface_typed() {
    let server = TestServer::start("fault", |c| c);
    let mut client = server.client();

    // Rescued at the gmin rung: completes, and the rung is reported.
    let rescued_spec = "deck v1 fault kind=nan disarm=gmin seed=11";
    let resp = client.submit("f", rescued_spec, 5).unwrap();
    let digest = match &resp {
        Response::Accepted { digest, .. } => digest.clone(),
        other => panic!("{other:?}"),
    };
    let (terminal, _) = client.wait(&digest).unwrap();
    match &terminal {
        Response::Done { rung, source, .. } => {
            assert_eq!(source, "run");
            assert_eq!(rung, "gmin");
        }
        other => panic!("expected ladder rescue, got {other:?}"),
    }

    // Never disarmed: the full ladder fails with the typed kind.
    let doomed_spec = "deck v1 fault kind=nan disarm=never seed=12";
    let resp = client.submit("f", doomed_spec, 5).unwrap();
    let digest = match &resp {
        Response::Accepted { digest, .. } => digest.clone(),
        other => panic!("{other:?}"),
    };
    let (terminal, _) = client.wait(&digest).unwrap();
    match &terminal {
        Response::Failed { kind, .. } => assert_eq!(kind, "nonfinite"),
        other => panic!("expected typed failure, got {other:?}"),
    }
    // The failure is tombstoned: a result probe replays it.
    let probed = client.result(doomed_spec).unwrap();
    assert!(matches!(probed, Response::Failed { .. }), "{probed:?}");

    let health = client.health().unwrap();
    assert!(health.get("retried").and_then(Json::as_f64).unwrap() as u64 >= 1);

    server.stop(&mut client);
}

#[test]
fn restart_resumes_orphans_bitwise_identically() {
    // Phase 1: fabricate the crash aftermath — a journal holding one
    // completed job and one accepted-but-unfinished orphan, exactly
    // what journal-before-ack leaves behind after a kill -9.
    let dir = std::env::temp_dir().join(format!(
        "nemscmos-server-test-{}-restart",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let orphan_spec = "deck v1 mc trials=16 seed=21 sigma=0.07";
    let orphan_digest = content_digest(orphan_spec);
    {
        let journal = Journal::open(&dir, "e2e").unwrap();
        journal
            .record_accepted("alice", &orphan_digest, orphan_spec)
            .unwrap();
    }
    let expected = Deck::parse(orphan_spec)
        .unwrap()
        .execute()
        .unwrap()
        .render();

    // Phase 2: a server restarted on that dir must re-run the orphan
    // without any client asking, and the answer must be bitwise what
    // the dead process would have produced.
    let server = TestServer::start_in(dir, |c| c);
    let mut client = server.client();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let result = loop {
        match client.result(orphan_spec).unwrap() {
            Response::Done { result, .. } => break result,
            Response::Running { .. } => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "orphan never finished"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("unexpected probe answer: {other:?}"),
        }
    };
    assert_eq!(result.render(), expected, "bitwise-identical re-run");

    let health = client.health().unwrap();
    let journal = health.get("journal").unwrap();
    assert_eq!(
        journal.get("pending").and_then(Json::as_f64).unwrap() as u64,
        0,
        "the restart obligation is discharged"
    );

    server.stop(&mut client);
}

#[test]
fn overload_sheds_lowest_priority_and_degrades_under_watermark() {
    let server = TestServer::start("overload", |mut c| {
        // One deliberately slow lane so the queue can actually fill.
        c.workers = 1;
        c.admission.queue_cap = 3;
        c.admission.degrade_watermark = 2;
        c.admission.min_trials = 8;
        c
    });
    let mut client = server.client();

    // A slow job occupies the worker while we pile up the queue.
    let blocker = client
        .submit("load", "deck v1 domino fan_in=4 fan_out=2", 9)
        .unwrap();
    let blocker_digest = match &blocker {
        Response::Accepted { digest, .. } => digest.clone(),
        other => panic!("{other:?}"),
    };

    let mut accepted = Vec::new();
    let mut saw_degraded = false;
    let mut low_digest = None;
    for (i, priority) in [(0u64, 2u8), (1, 5), (2, 5)] {
        let spec = format!("deck v1 mc trials=64 seed={i} sigma=0.05");
        match client.submit("load", &spec, priority).unwrap() {
            Response::Accepted {
                digest, degraded, ..
            } => {
                if degraded {
                    saw_degraded = true;
                }
                if priority == 2 {
                    low_digest = Some(digest.clone());
                }
                accepted.push(digest);
            }
            other => panic!("{other:?}"),
        }
    }
    assert!(saw_degraded, "past the watermark MC decks must degrade");

    // Queue is now at cap 3. Equal priority: refused queue-full.
    let full = client
        .submit("load", "deck v1 mc trials=64 seed=90 sigma=0.05", 2)
        .unwrap();
    assert!(ServerClient::rejected_with(&full, RejectReason::QueueFull));

    // Higher priority: admitted by shedding the priority-2 job.
    let vip = client
        .submit("load", "deck v1 mc trials=64 seed=91 sigma=0.05", 8)
        .unwrap();
    let vip_digest = match &vip {
        Response::Accepted { digest, .. } => digest.clone(),
        other => panic!("{other:?}"),
    };
    let (shed_notice, _) = client.wait(low_digest.as_deref().unwrap()).unwrap();
    assert!(
        matches!(shed_notice, Response::Shed { .. }),
        "{shed_notice:?}"
    );

    // Everything still admitted must reach a terminal state.
    for digest in accepted
        .iter()
        .filter(|d| Some(d.as_str()) != low_digest.as_deref())
        .chain([&blocker_digest, &vip_digest])
    {
        let (terminal, _) = client.wait(digest).unwrap();
        assert!(matches!(terminal, Response::Done { .. }), "{terminal:?}");
    }

    let health = client.health().unwrap();
    let n = |k: &str| health.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(n("shed"), 1);
    assert!(n("degraded") >= 1);
    assert_eq!(
        health
            .get("rejected")
            .unwrap()
            .get("queue-full")
            .and_then(Json::as_f64)
            .unwrap() as u64,
        1
    );

    server.stop(&mut client);
}

#[test]
fn heartbeats_stream_while_a_job_runs() {
    let server = TestServer::start("heartbeat", |mut c| {
        c.heartbeat_every = Duration::from_millis(20);
        c
    });
    let mut client = server.client();
    // A domino transient is slow enough to straddle several 20 ms pump
    // ticks.
    let resp = client
        .submit("hb", "deck v1 domino fan_in=8 fan_out=4", 5)
        .unwrap();
    let digest = match &resp {
        Response::Accepted { digest, .. } => digest.clone(),
        other => panic!("{other:?}"),
    };
    let (terminal, heartbeats) = client.wait(&digest).unwrap();
    assert!(matches!(terminal, Response::Done { .. }), "{terminal:?}");
    assert!(heartbeats >= 1, "expected streamed progress, got none");
    server.stop(&mut client);
}

#[test]
fn an_idle_server_drains_without_waiting_out_a_heartbeat_tick() {
    // A pump that slept through its interval would hold `serve` for up
    // to 30 s after the drain.
    let server = TestServer::start("prompt-drain", |mut c| {
        c.heartbeat_every = Duration::from_secs(30);
        c
    });
    let mut client = server.client();
    assert!(client.health().is_ok());
    let t0 = Instant::now();
    server.stop(&mut client);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(3),
        "serve returned {took:?} after the drain"
    );
}
