//! The race engine behind every hedging client.
//!
//! A [`Wave`] says what one read fetches: its primary requests, what
//! each reissue fetches, and when the replies in hand decide the read.
//! [`RaceEngine`] does everything else, the same way for every wave:
//!
//! 1. samples the policy's full reissue schedule under the policy
//!    mutex — every stage of a `MultipleR` policy flips its coin *now*
//!    (distributionally identical to flipping at fire time, see
//!    [`ReissuePolicy::sample_schedule_indexed`]), yielding the
//!    non-decreasing stage deadlines `(d₁,q₁), …, (dₙ,qₙ)`;
//! 2. dispatches the primaries; under [`CancellationStyle::Tied`] with
//!    a non-empty schedule each registers a tie id;
//! 3. races every in-flight attempt against the next stage deadline
//!    (measured from the primary dispatch). When a deadline fires and
//!    the [`BudgetGovernor`] grants quota, the wave's next reissue goes
//!    out. The first reissue of a tied read names the *straggler* — the
//!    lowest-index primary still outstanding — as the peer its server
//!    retracts at dequeue time. A transport error never decides the
//!    race; the failed attempt just drops out;
//! 4. once the wave decides, cancels every loser via its
//!    [`CancelToken`] (client `CANCEL`) and drains it asynchronously;
//! 5. books the `(straggler, first reissue)` pair — exact when both
//!    completed, censored at the loser's elapsed-at-retraction lower
//!    bound when its cancel landed in time — and feeds it, un-raced
//!    completions and later-stage losers to the optional
//!    [`OnlineAdapter`], so the adapter can run the §4.2 *correlated*
//!    optimizer instead of the independence model.
//!
//! Replica hedging ([`crate::HedgedClient`]) is the wave with one
//! primary whose first `Ok` wins. `erasure::StripedClient` is the wave
//! of `k` fragment primaries and parity reissues that wins once the
//! fragments in hand decode.

use crate::client::{BudgetGovernor, CancellationStyle, HedgeConfig, HedgeStats, MAX_STAGES};
use crate::rt::{race, select_all, Either, Runtime};
use crate::sync::CancelToken;
use crate::transport::{InFlight, ReplicaSet, TieSpec, TransportError};

use kvstore::{Command, Reply};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reissue_core::censored::Obs;
use reissue_core::load::LoadSignal;
use reissue_core::metrics::LogHistogram;
use reissue_core::online::{OnlineAdapter, ReissueOutcome};
use reissue_core::policy::ReissuePolicy;

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process-global tie id source. Replicas key tie state by id alone,
/// so ids must be unique across every client in the process.
static NEXT_TIE_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_tie_id() -> u64 {
    NEXT_TIE_ID.fetch_add(1, Ordering::Relaxed)
}

fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What one read fetches, and when the replies in hand decide it.
///
/// Attempts are numbered in dispatch order: primaries `0..primaries()`,
/// then one number per reissue.
pub trait Wave: std::fmt::Debug + Send + 'static {
    /// Number of primary requests.
    fn primaries(&self) -> usize;
    /// Primary `i`: the replica it goes to and its command.
    fn primary(&mut self, i: usize, replicas: &ReplicaSet) -> (usize, Command);
    /// The next reissue, or `None` when nothing is left to fetch.
    /// `busy[a]` is the replica attempt `a` went to, so the new reissue
    /// is attempt `busy.len()`.
    fn reissue(&mut self, replicas: &ReplicaSet, busy: &[usize]) -> Option<(usize, Command)>;
    /// Folds in attempt `a`'s reply.
    fn on_reply(&mut self, a: usize, reply: Reply) -> Step;
    /// The error a read ends with when its attempts and schedule run
    /// out without a transport error to report.
    fn exhausted(&self) -> TransportError {
        TransportError::ConnectionClosed
    }
    /// Whether the decided read stood a reissue's payload in for a
    /// missing primary's ([`HedgeStats::decodes_with_parity`]).
    fn used_parity(&self) -> bool {
        false
    }
}

/// How one reply moved a race.
pub enum Step {
    /// Not decided yet: keep racing.
    Pending,
    /// The reply cannot count toward the read. The attempt is booked
    /// as failed, and the error surfaces if the race runs dry.
    Unusable(TransportError),
    /// The read is decided and resolves to this.
    Decided(Result<Reply, TransportError>),
}

pub(crate) struct PolicyState {
    pub(crate) policy: ReissuePolicy,
    pub(crate) adapter: Option<OnlineAdapter>,
    rng: SmallRng,
}

#[derive(Default)]
pub(crate) struct Counters {
    queries: AtomicU64,
    reissues: AtomicU64,
    reissues_by_stage: [AtomicU64; MAX_STAGES],
    reissue_wins: AtomicU64,
    decodes_with_parity: AtomicU64,
    cancelled_in_time: AtomicU64,
    pairs_exact: AtomicU64,
    pairs_censored: AtomicU64,
    errors: AtomicU64,
    /// Reissue dispatches per replica index — the targeting
    /// distribution the EWMA-health regression tests watch.
    pub(crate) reissue_targets: Vec<AtomicU64>,
}

/// The shared state of a hedging client: connections, policy,
/// governor, counters and latency histogram, plus the race loop that
/// runs a [`Wave`] over them.
pub struct RaceEngine {
    pub(crate) rt: Runtime,
    pub(crate) replicas: ReplicaSet,
    pub(crate) state: Mutex<PolicyState>,
    pub(crate) counters: Counters,
    /// Streaming latency recorder: log-bucketed (1% relative quantile
    /// error, constant memory).
    pub(crate) latencies_ms: Mutex<LogHistogram>,
    governor: Option<Arc<BudgetGovernor>>,
    cancellation: CancellationStyle,
    /// Aggregate load estimator, present iff the online config opts
    /// into utilization-aware damping. Fed on every dispatch (primary
    /// and reissue) and every read resolution; its estimate is pushed
    /// into the adapter at each observation (see
    /// [`RaceEngine::observe`]).
    pub(crate) load: Option<LoadSignal>,
}

#[derive(Debug, PartialEq)]
enum Observation {
    Primary(f64),
    Reissue(f64),
    /// A raced read's joint outcome; either side may be censored.
    Pair {
        primary: Obs,
        reissue: Obs,
    },
}

/// Fate of one pair participant, as it becomes known.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Side {
    Pending,
    Known(Obs),
    /// Transport failure: no usable observation from this side.
    Failed,
}

/// The `(straggler, first reissue)` pair, indexed by [`STRAGGLER`] and
/// [`FIRST_REISSUE`]. Its sides resolve at different times — the
/// winner synchronously, each loser when its drain completes — and
/// whichever report fills the second side books the pair.
type PairBook = Mutex<[Side; 2]>;
const STRAGGLER: usize = 0;
const FIRST_REISSUE: usize = 1;

/// Which pair counter a closed pair bumps.
#[derive(Debug, PartialEq)]
enum Pairs {
    Exact,
    Censored,
    Neither,
}

/// What a closed pair books: its counter and the observation it feeds
/// the adapter. A failed side leaves the other side's exact value to
/// its marginal stream. Two censored sides (a later reissue won and
/// both were retracted) are two lower bounds with nothing completed to
/// anchor them, which the Kaplan–Meier completion cannot use.
fn close_pair(straggler: Side, reissue: Side) -> (Pairs, Option<Observation>) {
    match (straggler, reissue) {
        (Side::Known(p), Side::Known(r)) => {
            let pairs = match (p.is_censored(), r.is_censored()) {
                (false, false) => Pairs::Exact,
                (true, true) => return (Pairs::Neither, None),
                _ => Pairs::Censored,
            };
            let obs = Observation::Pair {
                primary: p,
                reissue: r,
            };
            (pairs, Some(obs))
        }
        (Side::Known(Obs::Exact(p)), Side::Failed) => {
            (Pairs::Neither, Some(Observation::Primary(p)))
        }
        (Side::Failed, Side::Known(Obs::Exact(r))) => {
            (Pairs::Neither, Some(Observation::Reissue(r)))
        }
        _ => (Pairs::Neither, None),
    }
}

/// One in-flight attempt of a race.
struct Attempt {
    /// Dispatch-order number (see [`Wave`]).
    index: usize,
    token: CancelToken,
    dispatched: Instant,
    tie: Option<u64>,
}

/// The attempts of one read.
struct Attempts {
    futs: Vec<InFlight>,
    /// Aligned with `futs`.
    meta: Vec<Attempt>,
    /// The replica of every attempt dispatched so far, by index.
    busy: Vec<usize>,
    primaries: usize,
    /// Opened by the first reissue.
    book: Option<Arc<PairBook>>,
    straggler: Option<usize>,
}

impl Attempts {
    /// The pair side attempt `index` reports to, if it is in the pair.
    fn pair_side(&self, index: usize) -> Option<(&Arc<PairBook>, usize)> {
        let side = if index == self.primaries {
            FIRST_REISSUE
        } else if Some(index) == self.straggler {
            STRAGGLER
        } else {
            return None;
        };
        self.book.as_ref().map(|b| (b, side))
    }
}

impl RaceEngine {
    /// Connects to the replicas on `rt` with `cfg`'s policy, online
    /// adaptation, budget, pool, seed and cancellation style
    /// (`cfg.workers` is ignored: the runtime is given).
    pub fn connect(rt: Runtime, addrs: &[SocketAddr], cfg: HedgeConfig) -> std::io::Result<Self> {
        let replicas = ReplicaSet::connect_pipelined(addrs, cfg.pool_per_replica, cfg.pipeline)?;
        let governor = cfg.governor.clone().or_else(|| {
            cfg.budget_cap
                .or(cfg.online.map(|o| 1.25 * o.budget))
                .map(|cap| Arc::new(BudgetGovernor::new(cap)))
        });
        let load = cfg
            .online
            .and_then(|o| o.load.map(|_| LoadSignal::new(addrs.len().max(1))));
        Ok(RaceEngine {
            rt,
            replicas,
            state: Mutex::new(PolicyState {
                policy: cfg.policy,
                adapter: cfg.online.map(OnlineAdapter::new),
                rng: SmallRng::seed_from_u64(cfg.seed),
            }),
            counters: Counters {
                reissue_targets: (0..addrs.len()).map(|_| AtomicU64::new(0)).collect(),
                ..Counters::default()
            },
            latencies_ms: Mutex::new(LogHistogram::latency_ms()),
            governor,
            cancellation: cfg.cancellation,
            load,
        })
    }

    /// The executor.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The connected replicas.
    pub fn replicas(&self) -> &ReplicaSet {
        &self.replicas
    }

    /// The budget governor in force, if any (owned or shared).
    pub fn governor(&self) -> Option<&Arc<BudgetGovernor>> {
        self.governor.as_ref()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HedgeStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        HedgeStats {
            queries: get(&c.queries),
            reissues: get(&c.reissues),
            reissues_by_stage: std::array::from_fn(|i| get(&c.reissues_by_stage[i])),
            reissue_wins: get(&c.reissue_wins),
            decodes_with_parity: get(&c.decodes_with_parity),
            cancelled_in_time: get(&c.cancelled_in_time),
            pairs_exact: get(&c.pairs_exact),
            pairs_censored: get(&c.pairs_censored),
            errors: get(&c.errors),
        }
    }

    /// Quantile of end-to-end read latencies (ms) over all successful
    /// reads, within the histogram's 1% relative error.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latencies_ms
            .lock()
            .unwrap()
            .quantile(q.clamp(0.0, 1.0))
    }

    /// Runs one read of `wave` to its decision (see the module docs).
    pub async fn run<W: Wave>(self: Arc<Self>, mut wave: W) -> Result<Reply, TransportError> {
        let schedule = {
            let mut st = self.state.lock().unwrap();
            let st = &mut *st;
            st.policy.sample_schedule_indexed(&mut st.rng)
        };
        let started = Instant::now();
        if let Some(load) = &self.load {
            load.query_start();
        }
        let (outcome, raced) = if schedule.is_empty() && wave.primaries() == 1 {
            // Nothing to race (the common unhedged read): await the
            // primary directly, without the race's bookkeeping.
            let (idx, cmd) = wave.primary(0, &self.replicas);
            self.note_dispatch();
            let step = match self
                .replicas
                .replica(idx)
                .request(cmd, CancelToken::new())
                .await
            {
                Ok(reply) => wave.on_reply(0, reply),
                Err(e) => Step::Unusable(e),
            };
            let outcome = match step {
                Step::Decided(outcome) => outcome,
                Step::Unusable(e) => Err(e),
                Step::Pending => Err(wave.exhausted()),
            };
            (outcome, false)
        } else {
            self.race(&mut wave, &schedule, started).await
        };

        let elapsed_ms = ms_since(started);
        // Lightweight tail tracing: HEDGE_DEBUG=1 reports every read
        // slower than 10 ms and the schedule it armed.
        if elapsed_ms > 10.0 && std::env::var_os("HEDGE_DEBUG").is_some() {
            eprintln!("[hedge] slow {elapsed_ms:.2}ms armed={schedule:?} wave={wave:?}");
        }
        inc(&self.counters.queries);
        if wave.used_parity() {
            inc(&self.counters.decodes_with_parity);
        }
        if let Some(g) = &self.governor {
            g.note_query();
        }
        if let Some(load) = &self.load {
            load.query_end(outcome.is_ok().then_some(elapsed_ms));
        }
        match &outcome {
            Ok(_) => {
                self.latencies_ms.lock().unwrap().record(elapsed_ms);
                // Raced reads are observed through their pair book
                // instead, so the adapter sees correlated pairs rather
                // than two unpaired streams.
                if !raced {
                    self.observe(Observation::Primary(elapsed_ms));
                }
            }
            Err(_) => inc(&self.counters.errors),
        }
        outcome
    }

    /// Races the wave's attempts against the stage schedule. Returns the
    /// outcome and whether any reissue went out.
    async fn race<W: Wave>(
        self: &Arc<Self>,
        wave: &mut W,
        schedule: &[(usize, f64)],
        started: Instant,
    ) -> (Result<Reply, TransportError>, bool) {
        let tied = self.cancellation == CancellationStyle::Tied && !schedule.is_empty();
        let mut at = Attempts {
            futs: Vec::new(),
            meta: Vec::new(),
            busy: Vec::new(),
            primaries: wave.primaries(),
            book: None,
            straggler: None,
        };
        for i in 0..at.primaries {
            let (idx, cmd) = wave.primary(i, &self.replicas);
            let tie = tied.then(|| TieSpec {
                id: next_tie_id(),
                peer: None,
            });
            self.dispatch(&mut at, idx, cmd, tie);
        }
        // (stage index, delay ms, deadline). FIFO: a stage denied by
        // the governor re-asks later and blocks the stages behind it,
        // so dispatch order always follows stage order.
        let mut pending: VecDeque<(usize, f64, Instant)> = schedule
            .iter()
            .map(|&(stage, ms)| {
                (
                    stage,
                    ms,
                    started + Duration::from_secs_f64(ms.max(0.0) / 1e3),
                )
            })
            .collect();
        let mut last_err: Option<TransportError> = None;

        let (winner, outcome) = loop {
            if at.futs.is_empty() {
                // Everything dispatched has failed. Rescue from the
                // remaining schedule *now* — waiting out a deadline
                // only adds latency to a read with nothing in flight —
                // or give up when the stages, the quota or the wave run
                // out.
                let next = match pending.front() {
                    Some(_) if self.governor_allows() => wave.reissue(&self.replicas, &at.busy),
                    _ => None,
                };
                let Some((idx, cmd)) = next else {
                    return (
                        Err(last_err.unwrap_or_else(|| wave.exhausted())),
                        at.book.is_some(),
                    );
                };
                let (stage, ..) = pending.pop_front().expect("stage present");
                self.dispatch_reissue(&mut at, stage, idx, cmd);
                continue;
            }
            let futs = std::mem::take(&mut at.futs);
            let (i, out, rest) = match pending.front() {
                None => select_all(futs).await,
                Some(&(stage, delay_ms, deadline)) => {
                    match race(select_all(futs), self.rt.sleep_until(deadline)).await {
                        Either::Left((sel_out, _timer)) => sel_out,
                        Either::Right((sel, ())) => {
                            at.futs = sel.into_futures();
                            if !self.governor_allows() {
                                // No quota: re-ask one stage-delay later
                                // (with a small floor so a d=0 stage
                                // cannot hot-spin). A read still
                                // outstanding after several delays is
                                // precisely the straggler hedging exists
                                // for, and re-asking gives it priority
                                // over the steady trickle of marginal
                                // just-past-d hedges that would otherwise
                                // consume the quota first-come-first-served.
                                let interval = Duration::from_secs_f64(delay_ms.max(0.1) / 1e3);
                                pending.front_mut().expect("stage present").2 =
                                    Instant::now() + interval;
                            } else if let Some((idx, cmd)) = wave.reissue(&self.replicas, &at.busy)
                            {
                                pending.pop_front();
                                self.dispatch_reissue(&mut at, stage, idx, cmd);
                            } else {
                                // Nothing left to fetch: the rest of the
                                // schedule is moot.
                                pending.clear();
                            }
                            continue;
                        }
                    }
                }
            };
            at.futs = rest;
            let m = at.meta.remove(i);
            let step = match out {
                Ok(reply) => wave.on_reply(m.index, reply),
                Err(e) => Step::Unusable(e),
            };
            let err = match &step {
                Step::Unusable(e) => Some(e),
                _ => None,
            };
            // A server-side retraction (a tied peer dequeued first) is a
            // clean in-time cancel, booked with its censoring bound.
            let side = self.side(err, m.dispatched);
            if let Some((book, side_idx)) = at.pair_side(m.index) {
                self.report(book, side_idx, side);
            }
            match step {
                Step::Decided(outcome) => break (m.index, outcome),
                Step::Pending => {}
                Step::Unusable(e) => last_err = Some(e),
            }
        };

        if winner >= at.primaries {
            inc(&self.counters.reissue_wins);
        }
        for m in &at.meta {
            m.token.cancel();
        }
        let futs = std::mem::take(&mut at.futs);
        for (fut, m) in futs.into_iter().zip(std::mem::take(&mut at.meta)) {
            let to = match at.pair_side(m.index) {
                Some((book, side)) => Drain::Pair(book.clone(), side),
                None if m.index > at.primaries => Drain::Marginal,
                None => Drain::Count,
            };
            self.clone().drain(fut, m.dispatched, to);
        }
        (outcome, at.book.is_some())
    }

    /// Whether the budget governor permits one more reissue right now
    /// (see [`BudgetGovernor::allows`]; always true without one).
    fn governor_allows(&self) -> bool {
        self.governor.as_ref().is_none_or(|g| g.allows())
    }

    /// Every attempt put on the wire feeds the offered-rate estimate —
    /// hedging's own load contribution is part of the utilization it
    /// must react to.
    fn note_dispatch(&self) {
        if let Some(load) = &self.load {
            load.note_dispatch();
        }
    }

    fn dispatch(&self, at: &mut Attempts, idx: usize, cmd: Command, tie: Option<TieSpec>) {
        self.note_dispatch();
        let token = CancelToken::new();
        let replica = self.replicas.replica(idx);
        at.futs.push(replica.request_tied(cmd, token.clone(), tie));
        at.meta.push(Attempt {
            index: at.busy.len(),
            token,
            dispatched: Instant::now(),
            tie: tie.map(|t| t.id),
        });
        at.busy.push(idx);
    }

    /// Dispatches one stage's reissue: counts it (total, per stage, per
    /// target). The first reissue opens the pair book and names the
    /// straggler — the lowest-index primary still outstanding — as its
    /// tie peer, so the two servers race to retract the loser.
    fn dispatch_reissue(&self, at: &mut Attempts, stage: usize, idx: usize, cmd: Command) {
        inc(&self.counters.reissues);
        if let Some(g) = &self.governor {
            g.note_reissue();
        }
        inc(&self.counters.reissues_by_stage[stage.min(MAX_STAGES - 1)]);
        if let Some(c) = self.counters.reissue_targets.get(idx) {
            inc(c);
        }
        let mut tie = None;
        if at.book.is_none() {
            let straggler = at.meta.iter().find(|m| m.index < at.primaries);
            let straggler = straggler.map(|m| (m.index, m.tie));
            at.straggler = straggler.map(|(index, _)| index);
            let book = Arc::new(Mutex::new([Side::Pending; 2]));
            if straggler.is_none() {
                // Every primary has resolved already: close that side
                // so the reissue's report is not orphaned.
                self.report(&book, STRAGGLER, Side::Failed);
            }
            at.book = Some(book);
            if let Some((index, Some(peer))) = straggler {
                let addr = self.replicas.replica(at.busy[index]).addr();
                tie = Some(TieSpec {
                    id: next_tie_id(),
                    peer: Some((addr, peer)),
                });
            }
        }
        self.dispatch(at, idx, cmd, tie);
    }

    /// An attempt's pair side from its error (`None` = completed):
    /// completed → exact; retracted in time → censored at the elapsed
    /// time when the retraction confirmed, a lower bound on the response
    /// time it would have had (counted as an in-time cancel); any other
    /// failure → no usable observation.
    fn side(&self, err: Option<&TransportError>, dispatched: Instant) -> Side {
        match err {
            None => Side::Known(Obs::Exact(ms_since(dispatched))),
            Some(TransportError::Cancelled) => {
                inc(&self.counters.cancelled_in_time);
                Side::Known(Obs::Censored(ms_since(dispatched)))
            }
            Some(_) => Side::Failed,
        }
    }

    /// Drains a loser asynchronously. Pair participants report to the
    /// book; a later-stage reissue that completes feeds the marginal
    /// reissue stream (a censored bound is only usable jointly, and the
    /// pair already carries the read's joint outcome).
    fn drain(self: Arc<Self>, loser: InFlight, dispatched: Instant, to: Drain) {
        let rt = self.rt.clone();
        rt.spawn(async move {
            let side = self.side(loser.await.err().as_ref(), dispatched);
            match (to, side) {
                (Drain::Pair(book, idx), side) => self.report(&book, idx, side),
                (Drain::Marginal, Side::Known(Obs::Exact(ms))) => {
                    self.observe(Observation::Reissue(ms));
                }
                _ => {}
            }
        });
    }

    /// Records one side of the pair; the report that closes the book
    /// bumps the pair counter and feeds the adapter.
    fn report(&self, book: &PairBook, idx: usize, side: Side) {
        let [straggler, reissue] = {
            let mut b = book.lock().unwrap();
            b[idx] = side;
            if b.contains(&Side::Pending) {
                return;
            }
            *b
        };
        let (pairs, obs) = close_pair(straggler, reissue);
        match pairs {
            Pairs::Exact => inc(&self.counters.pairs_exact),
            Pairs::Censored => inc(&self.counters.pairs_censored),
            Pairs::Neither => {}
        }
        if let Some(obs) = obs {
            self.observe(obs);
        }
    }

    /// Feeds one latency observation to the adapter and refreshes the
    /// live policy from it — the serving-time re-optimization loop.
    fn observe(&self, obs: Observation) {
        let mut st = self.state.lock().unwrap();
        let Some(adapter) = st.adapter.as_mut() else {
            return;
        };
        // Push the freshest load estimate first: with
        // `OnlineConfig::load` set this rescales the live reissue
        // probability immediately, so the policy tracks a load ramp
        // between re-optimizations.
        if let Some(load) = &self.load {
            adapter.set_utilization(load.utilization());
        }
        match obs {
            Observation::Primary(ms) => adapter.observe_primary(ms),
            Observation::Reissue(ms) => adapter.observe_reissue(ms),
            Observation::Pair { primary, reissue } => match (primary, reissue) {
                (Obs::Exact(x), Obs::Exact(y)) => {
                    adapter.observe_pair(x, ReissueOutcome::Completed(y));
                }
                (Obs::Exact(x), Obs::Censored(lb)) => {
                    adapter.observe_pair(x, ReissueOutcome::Censored(lb));
                }
                (Obs::Censored(lb), Obs::Exact(y)) => {
                    adapter.observe_pair_censored_primary(lb, y);
                }
                // `close_pair` never emits a doubly censored pair.
                (Obs::Censored(_), Obs::Censored(_)) => {}
            },
        }
        let live = adapter.policy();
        if live.probability > 0.0 && live.delay.is_finite() && live.delay >= 0.0 {
            st.policy = ReissuePolicy::single_r(live.delay, live.probability.clamp(0.0, 1.0));
        }
    }
}

/// Where a drained loser reports.
enum Drain {
    Pair(Arc<PairBook>, usize),
    Marginal,
    Count,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_pairs_book_the_right_counter_and_observation() {
        let exact = |ms| Side::Known(Obs::Exact(ms));
        let censored = |ms| Side::Known(Obs::Censored(ms));
        let pair = |p, r| {
            Some(Observation::Pair {
                primary: p,
                reissue: r,
            })
        };
        let cases = [
            (
                exact(1.0),
                exact(2.0),
                Pairs::Exact,
                pair(Obs::Exact(1.0), Obs::Exact(2.0)),
            ),
            (
                exact(1.0),
                censored(2.0),
                Pairs::Censored,
                pair(Obs::Exact(1.0), Obs::Censored(2.0)),
            ),
            (
                censored(1.0),
                exact(2.0),
                Pairs::Censored,
                pair(Obs::Censored(1.0), Obs::Exact(2.0)),
            ),
            (censored(1.0), censored(2.0), Pairs::Neither, None),
            (
                Side::Failed,
                exact(2.0),
                Pairs::Neither,
                Some(Observation::Reissue(2.0)),
            ),
            (
                exact(1.0),
                Side::Failed,
                Pairs::Neither,
                Some(Observation::Primary(1.0)),
            ),
            (Side::Failed, censored(2.0), Pairs::Neither, None),
            (censored(1.0), Side::Failed, Pairs::Neither, None),
            (Side::Failed, Side::Failed, Pairs::Neither, None),
        ];
        for (straggler, reissue, pairs, obs) in cases {
            assert_eq!(
                close_pair(straggler, reissue),
                (pairs, obs),
                "({straggler:?}, {reissue:?})"
            );
        }
    }
}
