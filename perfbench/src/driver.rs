//! The benchmark's own load driver: one generator thread that issues
//! requests closed-loop or open-loop through a client's runtime and
//! times each from the instant it was due.
//!
//! Requests run as tasks on the client's executor (the serving path a
//! real caller uses); each completion task stamps its resolve instant
//! and hands the reply back over a channel, so the generator's own
//! delay never shows up in a latency. Open-loop latency is timed from
//! the *due* instant of the Poisson schedule, so a generator or
//! executor stall is charged to every request it delays; how late the
//! generator dispatched is reported separately (`gen_late_ms`).

use crate::trace::Recorder;
use bytes::Bytes;
use hedge::{LoadClient, TransportError};
use kvstore::{Command, Reply};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What a correct reply to a request looks like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Check {
    /// A bulk string equal to these bytes.
    Str(Bytes),
    /// `+OK`.
    Ok,
    /// An integer.
    Int(i64),
}

impl Check {
    /// Whether `reply` is the expected one.
    pub fn matches(&self, reply: &Reply) -> bool {
        match (self, reply) {
            (Check::Str(want), Reply::Str(got)) => want == got,
            (Check::Ok, Reply::Ok) => true,
            (Check::Int(want), Reply::Int(got)) => want == got,
            _ => false,
        }
    }
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The command the program receives.
    pub cmd: Command,
    /// The reply it must produce.
    pub check: Check,
    /// The request's own service time (cost × burn per unit), ms.
    pub service_ms: f64,
}

/// A seeded request stream. `issuer` is the closed-loop issuer index
/// (always 0 open-loop); streams that keep per-issuer state (e.g. the
/// value last written to a key) rely on each issuer's requests being
/// strictly sequential.
pub trait Requests: Send {
    /// The next request for `issuer`.
    fn next(&mut self, issuer: usize) -> Request;
}

/// How requests are offered.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// `issuers` callers, each sending its next request as soon as the
    /// previous reply arrives.
    Closed {
        /// Concurrent callers.
        issuers: usize,
    },
    /// Poisson arrivals at `rate_qps`, regardless of completions; an
    /// arrival finding `max_in_flight` outstanding is dropped.
    Open {
        /// Mean arrival rate.
        rate_qps: f64,
        /// Admission bound.
        max_in_flight: usize,
    },
}

/// When the generator stops issuing.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many arrivals.
    Count(u64),
    /// After this long.
    Time(Duration),
}

/// Accounting and samples of one driver run.
#[derive(Debug, Default)]
pub struct RunRecord {
    /// Arrivals (dispatched + dropped).
    pub offered: u64,
    /// Requests handed to the client.
    pub dispatched: u64,
    /// Arrivals refused by the admission bound.
    pub dropped: u64,
    /// Requests that resolved with a reply (right or wrong).
    pub completed: u64,
    /// Requests that resolved with a transport error.
    pub failed: u64,
    /// Replies that did not match their check.
    pub wrong: u64,
    /// Dispatched requests that never resolved within the drain limit.
    pub lost: u64,
    /// Due-to-resolve latency of every completed request, ms.
    pub latencies_ms: Vec<f64>,
    /// Latency minus the request's own service time, ms.
    pub nonservice_ms: Vec<f64>,
    /// Due-to-dispatch delay of every dispatch, ms.
    pub gen_late_ms: Vec<f64>,
    /// Start of generation to the last resolve.
    pub elapsed: Duration,
    /// The first few wrong replies, for the error report.
    pub wrong_examples: Vec<String>,
}

impl RunRecord {
    /// Completed requests per second over the run.
    pub fn throughput_qps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// How long a drain waits for stragglers before counting them lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

struct Pending {
    issuer: usize,
    due: Instant,
    /// Where the latency clock starts: `due` open-loop, `dispatched`
    /// closed-loop.
    timed_from: Instant,
    dispatched: Instant,
    check: Check,
    service_ms: f64,
}

struct Done {
    id: u64,
    resolved: Instant,
    result: Result<Reply, TransportError>,
}

/// Drives `requests` through `client` from `start` until `stop`, then
/// drains. Runs on the calling thread (the generator thread).
pub fn drive<C: LoadClient>(
    client: &C,
    requests: &mut dyn Requests,
    load: Load,
    start: Instant,
    stop: Stop,
    seed: u64,
    mut spans: Option<&mut Recorder>,
) -> RunRecord {
    let (tx, rx) = mpsc::channel::<Done>();
    let mut rec = RunRecord::default();
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut next_id = 0u64;
    let stopped = |offered: u64, now: Instant| match stop {
        Stop::Count(n) => offered >= n,
        Stop::Time(d) => now.duration_since(start) >= d,
    };

    // `due` is when the request should have gone out; closed-loop
    // latency is timed from the dispatch itself, so the generator's
    // hand-off between a resolve and the next send shows in
    // gen_late_ms rather than in the latency.
    let mut dispatch = |rec: &mut RunRecord,
                        pending: &mut HashMap<u64, Pending>,
                        issuer: usize,
                        due: Instant,
                        time_from_dispatch: bool,
                        requests: &mut dyn Requests| {
        let req = requests.next(issuer);
        let id = next_id;
        next_id += 1;
        let fut = client.load_execute(req.cmd);
        let tx = tx.clone();
        let dispatched = Instant::now();
        client.load_runtime().spawn(async move {
            let result = fut.await;
            let _ = tx.send(Done {
                id,
                resolved: Instant::now(),
                result,
            });
        });
        rec.offered += 1;
        rec.dispatched += 1;
        rec.gen_late_ms
            .push(dispatched.saturating_duration_since(due).as_secs_f64() * 1e3);
        pending.insert(
            id,
            Pending {
                issuer,
                due,
                timed_from: if time_from_dispatch { dispatched } else { due },
                dispatched,
                check: req.check,
                service_ms: req.service_ms,
            },
        );
    };

    // Books one completion; returns the issuer that is free again.
    let complete = |rec: &mut RunRecord,
                    pending: &mut HashMap<u64, Pending>,
                    done: Done,
                    spans: &mut Option<&mut Recorder>|
     -> usize {
        let p = pending
            .remove(&done.id)
            .expect("every completion belongs to a dispatched request");
        match &done.result {
            Ok(reply) => {
                rec.completed += 1;
                let ms = done
                    .resolved
                    .saturating_duration_since(p.timed_from)
                    .as_secs_f64()
                    * 1e3;
                rec.latencies_ms.push(ms);
                rec.nonservice_ms.push(ms - p.service_ms);
                if !p.check.matches(reply) {
                    rec.wrong += 1;
                    if rec.wrong_examples.len() < 5 {
                        rec.wrong_examples
                            .push(format!("want {:?}, got {:?}", p.check, reply));
                    }
                }
            }
            Err(_) => rec.failed += 1,
        }
        if let Some(r) = spans.as_deref_mut() {
            let root = r.record(done.id, "query", None, p.due, Instant::now());
            r.record(done.id, "gen.lag", Some(root), p.due, p.dispatched);
            r.record(
                done.id,
                "client.execute",
                Some(root),
                p.dispatched,
                done.resolved,
            );
        }
        p.issuer
    };

    match load {
        Load::Closed { issuers } => {
            for issuer in 0..issuers {
                if !stopped(rec.offered, Instant::now()) {
                    dispatch(
                        &mut rec,
                        &mut pending,
                        issuer,
                        Instant::now(),
                        true,
                        requests,
                    );
                }
            }
            while !pending.is_empty() {
                let Ok(done) = rx.recv_timeout(DRAIN_LIMIT) else {
                    break;
                };
                let resolved = done.resolved;
                let issuer = complete(&mut rec, &mut pending, done, &mut spans);
                if !stopped(rec.offered, Instant::now()) {
                    // The issuer's next request is due when its
                    // previous one resolved.
                    dispatch(&mut rec, &mut pending, issuer, resolved, true, requests);
                }
            }
        }
        Load::Open {
            rate_qps,
            max_in_flight,
        } => {
            assert!(rate_qps > 0.0, "open loop needs a positive rate");
            let mut rng = SmallRng::seed_from_u64(seed);
            let mean_gap_s = 1.0 / rate_qps;
            let mut due = start;
            while !stopped(rec.offered, due) {
                // Wait for the due instant, booking completions.
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    match rx.recv_timeout(due - now) {
                        Ok(done) => {
                            complete(&mut rec, &mut pending, done, &mut spans);
                        }
                        Err(_) => break,
                    }
                }
                if pending.len() >= max_in_flight {
                    rec.offered += 1;
                    rec.dropped += 1;
                } else {
                    dispatch(&mut rec, &mut pending, 0, due, false, requests);
                }
                let u: f64 = rng.gen();
                due += Duration::from_secs_f64(-(1.0 - u).ln() * mean_gap_s);
            }
            while !pending.is_empty() {
                let Ok(done) = rx.recv_timeout(DRAIN_LIMIT) else {
                    break;
                };
                complete(&mut rec, &mut pending, done, &mut spans);
            }
        }
    }
    rec.lost = pending.len() as u64;
    rec.elapsed = start.elapsed();
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_compare_reply_payloads() {
        let v = Bytes::from_static(b"abc");
        assert!(Check::Str(v.clone()).matches(&Reply::Str(v.clone())));
        assert!(!Check::Str(v).matches(&Reply::Str(Bytes::from_static(b"abd"))));
        assert!(Check::Int(3).matches(&Reply::Int(3)));
        assert!(!Check::Int(3).matches(&Reply::Nil));
        assert!(Check::Ok.matches(&Reply::Ok));
        assert!(!Check::Ok.matches(&Reply::Error("x".into())));
    }
}
