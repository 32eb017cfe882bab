//! `server-mix`: the resident job server under a closed-loop mix of
//! fresh and repeated decks.
//!
//! Each unit of work is one *round*: start an in-process [`serve`] with
//! its default two workers on an empty run directory (set-up ends when
//! both client connections are up), then drive it from two
//! [`ServerClient`] connections, each sending its next request only
//! after the previous one answered. A client's list mixes
//!
//! - fresh `verify`, `domino` and `mc` decks — submit, fsync'd journal
//!   append, queue, execution, cache and journal writes, terminal reply
//!   — and
//! - about one third repeats of decks that client already completed,
//!   asked for with a `result` probe and answered from the journal.
//!
//! The fresh decks of a run are a fixed set — every verify deck, the
//! whole domino fan-in × fan-out grid and Monte-Carlo decks with seeded
//! RNG seeds and sigmas — split into two halves of equal work, so the
//! work per round does not depend on the seed. Each round submits every
//! deck once, in an order drawn from the seed and the round number, on
//! a server that has seen none of them.
//!
//! Every `done` result, fresh or repeated, must equal `Deck::execute`
//! of its spec; those references are computed once, after the timed
//! rounds, and their solver counters give the per-layer solver rows
//! (per round) that the server's worker threads do not expose.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use nemscmos_harness::Json;
use nemscmos_numeric::rng::{Rand64, Xoshiro256pp};
use nemscmos_server::{serve, Deck, Response, ServerClient, ServerConfig};
use nemscmos_spice::stats::{self, SolverStats};
use nemscmos_verify::diff;

use crate::report::{solver_rows, Pass};
use crate::samples::median;
use crate::trace::{Span, Tracer};

/// Client connections (and client threads) driving the server.
pub const CLIENTS: usize = 2;
/// Domino decks: the full fan-in × fan-out grid.
const DOMINO_FAN_INS: std::ops::RangeInclusive<usize> = 2..=9;
const DOMINO_FAN_OUTS: std::ops::RangeInclusive<usize> = 1..=8;
/// Monte-Carlo decks in the pool, cycling through these trial counts.
const MC_TRIALS: [usize; 3] = [32, 64, 128];
const MC_DECKS: usize = 30;
const RUN_ID: &str = "perfbench";
const PRIORITY: u8 = 5;

/// One request of a client's list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Job {
    /// Submit a deck this server has not seen, and wait for its result.
    Fresh(String),
    /// Probe the result of a deck this client already completed.
    Repeat(String),
}

fn below(rng: &mut Xoshiro256pp, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256pp) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

/// The run's fresh decks as canonical specs, one list per client:
/// every verify deck, the whole domino grid and [`MC_DECKS`]
/// Monte-Carlo decks with seeded RNG seeds and sigmas. The split is
/// balanced by construction — alternate verify decks, domino decks by
/// the parity of `fan_in + fan_out`, Monte-Carlo decks alternately with
/// every trial count on both sides — so neither client waits on a
/// heavier half, and the work per round does not depend on the seed.
pub fn fresh_pool(seed: u64) -> Vec<Vec<String>> {
    let mut rng = Xoshiro256pp::for_stream(seed, 0);
    let mut pool = vec![Vec::new(); CLIENTS];
    for (i, d) in diff::decks().into_iter().enumerate() {
        pool[i % CLIENTS].push(
            Deck::Verify {
                name: d.name.into(),
            }
            .canonical(),
        );
    }
    for fan_in in DOMINO_FAN_INS {
        for fan_out in DOMINO_FAN_OUTS {
            pool[(fan_in + fan_out) % CLIENTS].push(Deck::Domino { fan_in, fan_out }.canonical());
        }
    }
    for i in 0..MC_DECKS {
        let deck = Deck::MonteCarlo {
            trials: MC_TRIALS[i % MC_TRIALS.len()],
            seed: rng.next_u64(),
            sigma: 0.01 + 0.19 * rng.next_f64(),
        };
        pool[i % CLIENTS].push(deck.canonical());
    }
    pool
}

/// Each client's request list for round `round`: its share of the pool
/// in a seeded order, plus one repeat per two fresh decks at seeded
/// positions, each naming a deck the same client completed earlier.
pub fn round_jobs(pool: &[Vec<String>], seed: u64, round: u64) -> Vec<Vec<Job>> {
    let mut rng = Xoshiro256pp::for_stream(seed, round + 1);
    pool.iter()
        .map(|share| {
            let mut fresh: Vec<&String> = share.iter().collect();
            shuffle(&mut fresh, &mut rng);
            // `true` marks a repeat; the first request is always fresh.
            let mut kinds = vec![false; fresh.len()];
            kinds.extend(vec![true; fresh.len() / 2]);
            shuffle(&mut kinds[1..], &mut rng);
            let mut done = 0;
            kinds
                .into_iter()
                .map(|repeat| {
                    if repeat && done > 0 {
                        Job::Repeat(fresh[below(&mut rng, done)].clone())
                    } else {
                        done += 1;
                        Job::Fresh(fresh[done - 1].clone())
                    }
                })
                .collect()
        })
        .collect()
}

/// What one client saw in one round.
#[derive(Debug, Default)]
struct ClientLog {
    attempted: u64,
    fresh_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
    accept_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    /// `(spec, rendered result)` of every `done` answer.
    results: Vec<(String, String)>,
    failures: Vec<String>,
    queue_depth_max: f64,
    spans: Vec<Span>,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

fn fresh_job(
    client: &mut ServerClient,
    who: &str,
    spec: &str,
    log: &mut ClientLog,
    t: &mut Tracer,
) {
    let t0 = Instant::now();
    let accepted = client.submit(who, spec, PRIORITY);
    let t1 = Instant::now();
    t.record("server.submit", t0, t1);
    let digest = match accepted {
        Ok(Response::Accepted {
            digest,
            degraded: false,
            effective,
        }) if effective == spec => digest,
        other => return log.failures.push(format!("submit {spec:?}: {other:?}")),
    };
    let outcome = client.wait(&digest);
    let t2 = Instant::now();
    t.record("server.wait", t1, t2);
    match outcome {
        Ok((
            Response::Done {
                result,
                degraded: false,
                ..
            },
            _,
        )) => {
            log.fresh_ms.push(ms(t0, t2));
            log.accept_ms.push(ms(t0, t1));
            log.exec_ms.push(ms(t1, t2));
            log.results.push((spec.to_string(), result.render()));
        }
        other => log.failures.push(format!("wait {spec:?}: {other:?}")),
    }
}

fn repeat_job(client: &mut ServerClient, spec: &str, log: &mut ClientLog, t: &mut Tracer) {
    let t0 = Instant::now();
    let answer = t.span("server.result_probe", |_| client.result(spec));
    let t1 = Instant::now();
    match answer {
        Ok(Response::Done { result, .. }) => {
            log.repeat_ms.push(ms(t0, t1));
            log.probe_ms.push(ms(t0, t1));
            log.results.push((spec.to_string(), result.render()));
        }
        other => log.failures.push(format!("result {spec:?}: {other:?}")),
    }
}

/// Runs one client's list closed-loop. The traced run also polls
/// `health` after every request of client 0 for the queue depth.
fn drive(mut client: ServerClient, id: usize, jobs: &[Job], mut tracer: Tracer) -> ClientLog {
    let who = format!("perfbench-{id}");
    let poll_health = tracer.enabled() && id == 0;
    let mut log = ClientLog::default();
    for job in jobs {
        log.attempted += 1;
        match job {
            Job::Fresh(spec) => tracer.span("server.job", |t| {
                fresh_job(&mut client, &who, spec, &mut log, t);
            }),
            Job::Repeat(spec) => repeat_job(&mut client, spec, &mut log, &mut tracer),
        }
        if poll_health {
            if let Ok(h) = client.health() {
                let depth = h.get("queue_depth").and_then(Json::as_f64).unwrap_or(0.0);
                log.queue_depth_max = log.queue_depth_max.max(depth);
            }
        }
    }
    log.spans = tracer.into_spans();
    log
}

/// One round's outcome.
struct Round {
    setup_s: f64,
    wall_s: f64,
    logs: Vec<ClientLog>,
    health: Json,
    journal_bytes: u64,
}

fn connect(
    socket: &Path,
    server: &std::thread::JoinHandle<impl Send>,
) -> Result<ServerClient, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match ServerClient::connect(socket) {
            Ok(c) => return Ok(c),
            Err(e) if server.is_finished() || Instant::now() > deadline => {
                return Err(format!("server never came up: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

fn run_round(
    dir: &Path,
    jobs: &[Vec<Job>],
    setup_from: Instant,
    epoch: Instant,
    trace: bool,
    id_base: u64,
) -> Result<Round, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let socket = dir.join("server.sock");
    let config = ServerConfig::new(&socket, dir, RUN_ID);
    let server = std::thread::spawn(move || serve(config));
    let clients: Result<Vec<ServerClient>, String> =
        (0..CLIENTS).map(|_| connect(&socket, &server)).collect();
    let clients = match clients {
        Ok(c) => c,
        // A server that never bound its socket has exited; join it for
        // its error.
        Err(e) if server.is_finished() => {
            return Err(match server.join() {
                Ok(Err(serve_err)) => format!("{e}: {serve_err}"),
                _ => e,
            })
        }
        Err(e) => return Err(e),
    };
    let setup_s = setup_from.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(jobs)
            .enumerate()
            .map(|(id, (client, list))| {
                let tracer = Tracer::new(trace, epoch, id_base + ((id as u64) << 32));
                s.spawn(move || drive(client, id, list, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut admin = connect(&socket, &server)?;
    let health = admin.health().map_err(|e| format!("health: {e}"))?;
    admin.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    drop(admin);
    match server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("server exited with {e}")),
        Err(_) => return Err("server thread panicked".into()),
    }
    let journal = dir.join(format!("journal-{RUN_ID}.jsonl"));
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    Ok(Round {
        setup_s,
        wall_s,
        logs,
        health,
        journal_bytes,
    })
}

/// Sums the numeric leaves under `key` of a health snapshot.
fn health_count(health: &Json, key: &str) -> f64 {
    match health.get(key) {
        Some(Json::Obj(fields)) => fields.iter().filter_map(|(_, v)| v.as_f64()).sum(),
        Some(v) => v.as_f64().unwrap_or(0.0),
        None => 0.0,
    }
}

/// Server-side counters and request-phase samples summed over a pass.
#[derive(Default)]
struct ServerTotals {
    accept_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    journal_bytes: u64,
    accepted: f64,
    queue_depth_max: f64,
    rejected: f64,
    shed: f64,
    degraded: f64,
}

/// Runs rounds for at least `seconds` (one at minimum), then checks
/// every result against `Deck::execute`.
pub fn measure(
    seconds: f64,
    started: Instant,
    seed: u64,
    work: &Path,
    tracer: &mut Tracer,
) -> Pass {
    let pool = fresh_pool(seed);
    let mut pass = Pass::default();
    let mut totals = ServerTotals::default();
    let mut results: Vec<(String, String)> = Vec::new();
    let mut setup_from = started;
    let loop_start = Instant::now();
    let mut round = 0u64;
    while pass.attempted == 0 || loop_start.elapsed().as_secs_f64() < seconds {
        let jobs = round_jobs(&pool, seed, round);
        let dir = work.join(format!("round-{round}"));
        let id_base = (round + 1) << 40;
        let outcome = run_round(
            &dir,
            &jobs,
            setup_from,
            tracer.epoch(),
            tracer.enabled(),
            id_base,
        );
        round += 1;
        let r = match outcome {
            Ok(r) => r,
            Err(e) => {
                pass.attempted += 1;
                pass.fail(format!("round {round}: {e}"));
                break;
            }
        };
        pass.setup_s.push(r.setup_s);
        pass.push_unit(r.wall_s);
        pass.busy_s += r.wall_s;
        totals.journal_bytes += r.journal_bytes;
        totals.accepted += health_count(&r.health, "accepted");
        totals.rejected += health_count(&r.health, "rejected");
        totals.shed += health_count(&r.health, "shed");
        totals.degraded += health_count(&r.health, "degraded");
        for log in r.logs {
            pass.attempted += log.attempted;
            for f in log.failures {
                pass.fail(f);
            }
            pass.fresh_ms.extend(log.fresh_ms);
            pass.repeat_ms.extend(log.repeat_ms);
            totals.accept_ms.extend(log.accept_ms);
            totals.exec_ms.extend(log.exec_ms);
            totals.probe_ms.extend(log.probe_ms);
            totals.queue_depth_max = totals.queue_depth_max.max(log.queue_depth_max);
            results.extend(log.results);
            tracer.adopt(log.spans);
        }
        setup_from = Instant::now();
    }
    check_results(&results, &mut pass);

    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let requests = (pass.fresh_ms.len() + pass.repeat_ms.len()).max(1) as f64;
    pass.layers.extend([
        ("server.accept_ms", med(&totals.accept_ms)),
        ("server.exec_ms", med(&totals.exec_ms)),
        ("server.result_probe_ms", med(&totals.probe_ms)),
        (
            "server.journal_bytes_per_job",
            totals.journal_bytes as f64 / totals.accepted.max(1.0),
        ),
        ("server.queue_depth_max", totals.queue_depth_max),
        ("server.rejected", totals.rejected),
        ("server.shed", totals.shed),
        ("server.degraded", totals.degraded),
        (
            "server.repeat_share",
            pass.repeat_ms.len() as f64 / requests,
        ),
    ]);
    pass
}

/// Compares every answered result with `Deck::execute` of its spec,
/// executing each distinct spec once. Those executions are one round's
/// fresh work run directly, so their solver counters are the solver
/// ledger per round.
fn check_results(results: &[(String, String)], pass: &mut Pass) {
    let mut reference: BTreeMap<&str, Result<String, String>> = BTreeMap::new();
    let mut spent = SolverStats::default();
    let mut wall_s = 0.0;
    for (spec, got) in results {
        let want = reference.entry(spec).or_insert_with(|| {
            let t = Instant::now();
            let (out, st) = stats::measure(|| {
                Deck::parse(spec).and_then(|d| d.execute().map_err(|e| e.to_string()))
            });
            wall_s += t.elapsed().as_secs_f64();
            spent += st;
            out.map(|j| j.render())
        });
        match want {
            Ok(want) if want == got => {}
            Ok(want) => pass.fail(format!(
                "{spec:?}: served {got}, Deck::execute gives {want}"
            )),
            Err(e) => pass.fail(format!("{spec:?}: reference execution failed: {e}")),
        }
    }
    pass.layers.extend(solver_rows(&spent, 1.0, wall_s));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(list: &[Job]) -> Vec<&String> {
        list.iter()
            .filter_map(|j| match j {
                Job::Fresh(s) => Some(s),
                Job::Repeat(_) => None,
            })
            .collect()
    }

    #[test]
    fn a_result_that_differs_from_deck_execute_fails_the_run() {
        let spec = Deck::MonteCarlo {
            trials: 16,
            seed: 3,
            sigma: 0.1,
        }
        .canonical();
        let right = Deck::parse(&spec).unwrap().execute().unwrap().render();
        let mut pass = Pass::default();
        check_results(&[(spec.clone(), right.clone())], &mut pass);
        assert!(pass.problems.is_empty(), "{:?}", pass.problems);

        let wrong = right.replacen("\"mean\":", "\"mean\":1", 1);
        check_results(&[(spec.clone(), right), (spec, wrong)], &mut pass);
        assert_eq!(pass.failed, 1, "{:?}", pass.problems);
        assert!(pass.problems[0].contains("Deck::execute"));
    }

    #[test]
    fn generator_is_deterministic_and_honours_the_seed() {
        assert_eq!(fresh_pool(7), fresh_pool(7));
        assert_ne!(fresh_pool(7), fresh_pool(8));
        let pool = fresh_pool(7);
        assert_eq!(round_jobs(&pool, 7, 3), round_jobs(&pool, 7, 3));
        assert_ne!(round_jobs(&pool, 7, 3), round_jobs(&pool, 8, 3));
        assert_ne!(round_jobs(&pool, 7, 3), round_jobs(&pool, 7, 4));
    }

    #[test]
    fn pool_composition_does_not_depend_on_the_seed() {
        let kinds = |seed| {
            let mut counts = BTreeMap::new();
            for spec in fresh_pool(seed).concat() {
                let deck = Deck::parse(&spec).expect("pool specs parse");
                assert_eq!(deck.canonical(), spec, "pool specs are canonical");
                let kind = spec.split_whitespace().nth(2).unwrap().to_string();
                *counts.entry(kind).or_insert(0) += 1;
            }
            counts
        };
        let first = kinds(1);
        assert_eq!(first["verify"], diff::decks().len());
        assert_eq!(first["domino"], 64);
        assert_eq!(first["mc"], MC_DECKS);
        for seed in 2..6 {
            assert_eq!(kinds(seed), first);
        }
    }

    #[test]
    fn each_round_submits_the_pool_once_and_repeats_only_completed_decks() {
        let pool = fresh_pool(11);
        for round in 0..4 {
            let lists = round_jobs(&pool, 11, round);
            assert_eq!(lists.len(), CLIENTS);
            for (list, share) in lists.iter().zip(&pool) {
                let mut mine = fresh(list);
                mine.sort();
                let mut want: Vec<&String> = share.iter().collect();
                want.sort();
                assert_eq!(mine, want, "a client submits exactly its share");
            }
            let mut submitted: Vec<&String> = lists.iter().flat_map(|l| fresh(l)).collect();
            submitted.sort();
            let mut expected: Vec<&String> = pool.iter().flatten().collect();
            expected.sort();
            assert_eq!(submitted, expected, "every pool deck fresh exactly once");

            let (mut fresh_n, mut repeat_n) = (0, 0);
            for list in &lists {
                assert!(matches!(list[0], Job::Fresh(_)));
                for (i, job) in list.iter().enumerate() {
                    match job {
                        Job::Fresh(_) => fresh_n += 1,
                        Job::Repeat(spec) => {
                            repeat_n += 1;
                            assert!(
                                fresh(&list[..i]).contains(&spec),
                                "repeat of an uncompleted deck"
                            );
                        }
                    }
                }
            }
            let share = repeat_n as f64 / (fresh_n + repeat_n) as f64;
            assert!((0.3..0.37).contains(&share), "repeat share {share}");
        }
    }
}
