//! The wire protocol: newline-delimited JSON over a local socket.
//!
//! One request or response per line, encoded with the workspace's
//! vendored [`Json`] layer (no `serde`). Every message is a JSON object
//! whose discriminant key is `"op"` for requests and `"resp"` for
//! responses; unknown or malformed lines decode to an error the server
//! answers with a typed [`RejectReason::BadRequest`] rejection instead
//! of dropping the connection.
//!
//! Responses to a `submit` arrive on the same connection, tagged with
//! the job's content digest: first `accepted` (sent only *after* the
//! acceptance is fsync'd to the journal) or `rejected`, then zero or
//! more `heartbeat` progress lines, then exactly one terminal line —
//! `done`, `failed`, or `shed`.

use nemscmos_harness::{Json, JsonCodec};

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one deck for execution. `client` names the quota account;
    /// `priority` orders the queue (higher runs first, lowest is shed
    /// first under overload).
    Submit {
        /// Quota account / client identity.
        client: String,
        /// Canonical deck spec string (see [`crate::deck::Deck`]).
        deck: String,
        /// 0–9, higher is more important.
        priority: u8,
    },
    /// Fetch the outcome of a previously accepted deck (by spec, from
    /// which the server recomputes the digest) — how a client recovers
    /// results after a server restart.
    Result {
        /// Canonical deck spec string.
        deck: String,
    },
    /// Queue/supervision statistics.
    Health,
    /// Graceful drain: stop admitting, finish queued work, exit.
    Shutdown,
}

impl Request {
    /// Encodes to one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let obj = match self {
            Request::Submit {
                client,
                deck,
                priority,
            } => vec![
                ("op".into(), Json::Str("submit".into())),
                ("client".into(), Json::Str(client.clone())),
                ("deck".into(), Json::Str(deck.clone())),
                ("priority".into(), Json::Num(f64::from(*priority))),
            ],
            Request::Result { deck } => vec![
                ("op".into(), Json::Str("result".into())),
                ("deck".into(), Json::Str(deck.clone())),
            ],
            Request::Health => vec![("op".into(), Json::Str("health".into()))],
            Request::Shutdown => vec![("op".into(), Json::Str("shutdown".into()))],
        };
        Json::Obj(obj).render()
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// A human-readable description of what is malformed.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field `op`")?;
        match op {
            "submit" => {
                let client = v
                    .get("client")
                    .and_then(Json::as_str)
                    .ok_or("submit: missing string field `client`")?;
                let deck = v
                    .get("deck")
                    .and_then(Json::as_str)
                    .ok_or("submit: missing string field `deck`")?;
                let priority = match v.get("priority") {
                    None => 5.0,
                    Some(p) => p.as_f64().ok_or("submit: `priority` must be a number")?,
                };
                if !(0.0..=9.0).contains(&priority) || priority.fract() != 0.0 {
                    return Err(format!(
                        "submit: priority {priority} not an integer in 0..=9"
                    ));
                }
                Ok(Request::Submit {
                    client: client.to_string(),
                    deck: deck.to_string(),
                    priority: priority as u8,
                })
            }
            "result" => {
                let deck = v
                    .get("deck")
                    .and_then(Json::as_str)
                    .ok_or("result: missing string field `deck`")?;
                Ok(Request::Result {
                    deck: deck.to_string(),
                })
            }
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Why an admission was refused. Every variant is visible to clients as
/// a stable label and counted separately in the health stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Bounded queue is full and the newcomer does not outrank any
    /// queued job.
    QueueFull,
    /// The client's solver-effort quota is spent.
    QuotaExhausted,
    /// The deck exceeds the server's configured size limits.
    DeckTooLarge,
    /// Malformed request or unparseable deck spec.
    BadRequest,
    /// The server is draining for shutdown.
    Draining,
    /// `result` probe for a deck this run never completed.
    NotFound,
}

impl RejectReason {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::QuotaExhausted => "quota-exhausted",
            RejectReason::DeckTooLarge => "deck-too-large",
            RejectReason::BadRequest => "bad-request",
            RejectReason::Draining => "draining",
            RejectReason::NotFound => "not-found",
        }
    }

    /// Inverse of [`RejectReason::label`].
    pub fn from_label(label: &str) -> Option<RejectReason> {
        [
            RejectReason::QueueFull,
            RejectReason::QuotaExhausted,
            RejectReason::DeckTooLarge,
            RejectReason::BadRequest,
            RejectReason::Draining,
            RejectReason::NotFound,
        ]
        .into_iter()
        .find(|r| r.label() == label)
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job is journaled and queued; `digest` identifies it from now
    /// on. `effective` is the spec actually queued — it differs from the
    /// submitted deck exactly when `degraded` is true.
    Accepted {
        /// Content digest of the effective spec.
        digest: String,
        /// True when backpressure reduced the job (fewer MC samples).
        degraded: bool,
        /// The effective (possibly degraded) canonical spec.
        effective: String,
    },
    /// The job was refused with a typed reason.
    Rejected {
        /// Typed refusal class.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
    },
    /// Periodic progress while the job runs.
    Heartbeat {
        /// Which job.
        digest: String,
        /// Newton iterations spent so far.
        newton: u64,
        /// Coarse progress ticks (accepted steps / completed solves).
        progress: u64,
    },
    /// Terminal: the job completed. `source` is `run`, `cache`, or
    /// `journal` (replayed).
    Done {
        /// Which job.
        digest: String,
        /// True when the executed spec was a degraded variant.
        degraded: bool,
        /// `run` | `cache` | `journal`.
        source: String,
        /// Retry-ladder rung that succeeded (empty for replays).
        rung: String,
        /// The result artifact.
        result: Json,
    },
    /// Terminal: the job failed with a typed taxonomy kind.
    Failed {
        /// Which job.
        digest: String,
        /// [`FailureKind`](nemscmos_harness::FailureKind) label.
        kind: String,
        /// Rendered error.
        error: String,
    },
    /// Terminal: the job was evicted by a higher-priority arrival.
    Shed {
        /// Which job.
        digest: String,
    },
    /// A probed job is still queued or running.
    Running {
        /// Which job.
        digest: String,
    },
    /// Health statistics snapshot.
    Health {
        /// Structured counters (see `server::health_json`).
        stats: Json,
    },
    /// Acknowledges a shutdown request; the server exits once idle.
    Draining {
        /// Jobs still queued.
        queued: u64,
        /// Jobs currently executing.
        running: u64,
    },
}

impl Response {
    /// Encodes to one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let obj = match self {
            Response::Accepted {
                digest,
                degraded,
                effective,
            } => vec![
                ("resp".into(), Json::Str("accepted".into())),
                ("digest".into(), Json::Str(digest.clone())),
                ("degraded".into(), Json::Bool(*degraded)),
                ("effective".into(), Json::Str(effective.clone())),
            ],
            Response::Rejected { reason, detail } => vec![
                ("resp".into(), Json::Str("rejected".into())),
                ("reason".into(), Json::Str(reason.label().into())),
                ("detail".into(), Json::Str(detail.clone())),
            ],
            Response::Heartbeat {
                digest,
                newton,
                progress,
            } => vec![
                ("resp".into(), Json::Str("heartbeat".into())),
                ("digest".into(), Json::Str(digest.clone())),
                ("newton".into(), newton.to_json()),
                ("progress".into(), progress.to_json()),
            ],
            Response::Done {
                digest,
                degraded,
                source,
                rung,
                result,
            } => vec![
                ("resp".into(), Json::Str("done".into())),
                ("digest".into(), Json::Str(digest.clone())),
                ("degraded".into(), Json::Bool(*degraded)),
                ("source".into(), Json::Str(source.clone())),
                ("rung".into(), Json::Str(rung.clone())),
                ("result".into(), result.clone()),
            ],
            Response::Failed {
                digest,
                kind,
                error,
            } => vec![
                ("resp".into(), Json::Str("failed".into())),
                ("digest".into(), Json::Str(digest.clone())),
                ("kind".into(), Json::Str(kind.clone())),
                ("error".into(), Json::Str(error.clone())),
            ],
            Response::Shed { digest } => vec![
                ("resp".into(), Json::Str("shed".into())),
                ("digest".into(), Json::Str(digest.clone())),
            ],
            Response::Running { digest } => vec![
                ("resp".into(), Json::Str("running".into())),
                ("digest".into(), Json::Str(digest.clone())),
            ],
            Response::Health { stats } => vec![
                ("resp".into(), Json::Str("health".into())),
                ("stats".into(), stats.clone()),
            ],
            Response::Draining { queued, running } => vec![
                ("resp".into(), Json::Str("draining".into())),
                ("queued".into(), queued.to_json()),
                ("running".into(), running.to_json()),
            ],
        };
        Json::Obj(obj).render()
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// A human-readable description of what is malformed.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
        let resp = v
            .get("resp")
            .and_then(Json::as_str)
            .ok_or("missing string field `resp`")?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{resp}: missing string field `{key}`"))
        };
        let num_field = |key: &str| -> Result<u64, String> {
            let n = v
                .get(key)
                .ok_or_else(|| format!("{resp}: missing count field `{key}`"))?;
            u64::from_json(n).ok_or_else(|| {
                format!(
                    "{resp}: `{key}` must be a non-negative integer, got {}",
                    n.render()
                )
            })
        };
        let bool_field = |key: &str| -> Result<bool, String> {
            v.get(key)
                .and_then(Json::as_bool)
                .ok_or(format!("{resp}: missing bool field `{key}`"))
        };
        match resp {
            "accepted" => Ok(Response::Accepted {
                digest: str_field("digest")?,
                degraded: bool_field("degraded")?,
                effective: str_field("effective")?,
            }),
            "rejected" => Ok(Response::Rejected {
                reason: RejectReason::from_label(&str_field("reason")?)
                    .ok_or("rejected: unknown reason label")?,
                detail: str_field("detail")?,
            }),
            "heartbeat" => Ok(Response::Heartbeat {
                digest: str_field("digest")?,
                newton: num_field("newton")?,
                progress: num_field("progress")?,
            }),
            "done" => Ok(Response::Done {
                digest: str_field("digest")?,
                degraded: bool_field("degraded")?,
                source: str_field("source")?,
                rung: str_field("rung")?,
                result: v.get("result").cloned().ok_or("done: missing `result`")?,
            }),
            "failed" => Ok(Response::Failed {
                digest: str_field("digest")?,
                kind: str_field("kind")?,
                error: str_field("error")?,
            }),
            "shed" => Ok(Response::Shed {
                digest: str_field("digest")?,
            }),
            "running" => Ok(Response::Running {
                digest: str_field("digest")?,
            }),
            "health" => Ok(Response::Health {
                stats: v.get("stats").cloned().ok_or("health: missing `stats`")?,
            }),
            "draining" => Ok(Response::Draining {
                queued: num_field("queued")?,
                running: num_field("running")?,
            }),
            other => Err(format!("unknown resp {other:?}")),
        }
    }

    /// The digest a job-scoped response refers to, if any.
    pub fn digest(&self) -> Option<&str> {
        match self {
            Response::Accepted { digest, .. }
            | Response::Heartbeat { digest, .. }
            | Response::Done { digest, .. }
            | Response::Failed { digest, .. }
            | Response::Shed { digest }
            | Response::Running { digest } => Some(digest),
            _ => None,
        }
    }

    /// True for `done` / `failed` / `shed` — the last message a job
    /// produces.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Response::Done { .. } | Response::Failed { .. } | Response::Shed { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let all = [
            Request::Submit {
                client: "c1".into(),
                deck: "deck v1 mc trials=64 seed=7 sigma=0.05".into(),
                priority: 8,
            },
            Request::Result {
                deck: "deck v1 verify name=rlc-tank".into(),
            },
            Request::Health,
            Request::Shutdown,
        ];
        for req in all {
            let line = req.render();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn submit_priority_defaults_and_validates() {
        let req = Request::parse(r#"{"op":"submit","client":"a","deck":"d"}"#).unwrap();
        assert!(matches!(req, Request::Submit { priority: 5, .. }));
        assert!(
            Request::parse(r#"{"op":"submit","client":"a","deck":"d","priority":11}"#).is_err()
        );
        assert!(
            Request::parse(r#"{"op":"submit","client":"a","deck":"d","priority":1.5}"#).is_err()
        );
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"warp"}"#).is_err());
        assert!(Request::parse(r#"{"op":"submit","client":"a"}"#).is_err());
    }

    #[test]
    fn responses_round_trip() {
        let all = [
            Response::Accepted {
                digest: "abc".into(),
                degraded: true,
                effective: "deck v1 mc trials=16 seed=7 sigma=0.05".into(),
            },
            Response::Rejected {
                reason: RejectReason::QueueFull,
                detail: "queue at 64".into(),
            },
            Response::Heartbeat {
                digest: "abc".into(),
                newton: 120,
                progress: 12,
            },
            Response::Done {
                digest: "abc".into(),
                degraded: false,
                source: "run".into(),
                rung: "direct".into(),
                result: Json::Obj(vec![("v".into(), Json::Num(1.5))]),
            },
            Response::Failed {
                digest: "abc".into(),
                kind: "deadline".into(),
                error: "wall-clock deadline of 250ms".into(),
            },
            Response::Shed {
                digest: "abc".into(),
            },
            Response::Running {
                digest: "abc".into(),
            },
            Response::Health {
                stats: Json::Obj(vec![("queue_depth".into(), Json::Num(3.0))]),
            },
            Response::Draining {
                queued: 2,
                running: 1,
            },
        ];
        for resp in all {
            let line = resp.render();
            assert_eq!(Response::parse(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn counts_are_integers() {
        // Counts render as bare integers and round-trip in that form.
        let hb = Response::Heartbeat {
            digest: "abc".into(),
            newton: 120,
            progress: 12,
        };
        let line = hb.render();
        assert!(line.contains(r#""newton":120,"progress":12"#), "{line}");
        let drain = Response::Draining {
            queued: 2,
            running: 1,
        };
        let line = drain.render();
        assert!(line.contains(r#""queued":2,"running":1"#), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), drain);
        // Negative and fractional counts are refused, not coerced.
        for bad in [
            r#"{"resp":"draining","queued":-3,"running":0}"#,
            r#"{"resp":"draining","queued":2.5,"running":0}"#,
            r#"{"resp":"draining","queued":"2","running":0}"#,
            r#"{"resp":"heartbeat","digest":"d","newton":-1,"progress":0}"#,
            r#"{"resp":"heartbeat","digest":"d","newton":1,"progress":0.5}"#,
        ] {
            let err = Response::parse(bad).unwrap_err();
            assert!(err.contains("non-negative integer"), "{bad}: {err}");
        }
    }

    #[test]
    fn reject_labels_are_stable() {
        for r in [
            RejectReason::QueueFull,
            RejectReason::QuotaExhausted,
            RejectReason::DeckTooLarge,
            RejectReason::BadRequest,
            RejectReason::Draining,
            RejectReason::NotFound,
        ] {
            assert_eq!(RejectReason::from_label(r.label()), Some(r));
        }
        assert_eq!(RejectReason::from_label("nope"), None);
    }

    #[test]
    fn terminality_and_digest_tagging() {
        let done = Response::Done {
            digest: "d".into(),
            degraded: false,
            source: "cache".into(),
            rung: String::new(),
            result: Json::Null,
        };
        assert!(done.is_terminal());
        assert_eq!(done.digest(), Some("d"));
        let hb = Response::Heartbeat {
            digest: "d".into(),
            newton: 0,
            progress: 0,
        };
        assert!(!hb.is_terminal());
        assert!(Response::Health { stats: Json::Null }.digest().is_none());
    }
}
