//! The k-of-n fragment-hedging client: the fragment [`Wave`] over
//! `hedge`'s [`RaceEngine`], plus the stripe write path.
//!
//! A striped read dispatches the `k` *data*-fragment requests as its
//! primary wave (slot `s` lives on replica `(s + o) % n` for the key's
//! rotation offset `o`, see [`crate::placement_offset`]) and completes
//! as soon as the fragments in hand decode — all `k` data fragments,
//! or `k−1` of them plus a parity clone. The engine arms the reissue
//! policy's `(d, q)` timer over the *straggling* fragment exactly as it
//! does over a replica-hedged query: when a stage deadline passes with
//! the stripe still undecodable (and the coin came up heads and the
//! budget governor grants quota), the next reissue fetches parity slot
//! `k + r` instead of a second full copy. That is the erasure-coding
//! trade at the heart of this subsystem: the hedge costs `1/k` of a
//! full read, so at an equal *byte* budget the fragment client can
//! afford `k×` the reissue probability of the replica client
//! ([`reissue_core::kofn::fragment_budget`]).
//!
//! Loser retraction, tie registration (the first reissue names the
//! lowest-index data slot still outstanding as its tied peer) and the
//! censored `(straggler, reissue)` pair book are the engine's, shared
//! with replica hedging — which is the `k = 1` case of this wave.

use crate::codec::{self, decodable};
use hedge::rt::Runtime;
use hedge::{BudgetGovernor, CancelToken, CancellationStyle, HedgeConfig, HedgeStats};
use hedge::{RaceEngine, ReplicaSet, Step, TransportError, Wave};
use kvstore::{Command, Reply};
use reissue_core::policy::ReissuePolicy;

use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::Arc;

/// Configuration for [`StripedClient`].
#[derive(Clone, Debug)]
pub struct StripedConfig {
    /// Data fragments per stripe. The replica count `n` is taken from
    /// the address list; for each key, `k` replicas hold its data
    /// fragments and the other `n − k` hold parity clones (which
    /// replica holds which slot rotates per key, see
    /// [`crate::placement_offset`]).
    pub k: usize,
    /// The reissue policy armed over the straggling fragment. Stage
    /// delays are measured from the primary wave's dispatch, exactly
    /// like the replica-hedging client measures them from its primary.
    pub policy: ReissuePolicy,
    /// Cap on the realized fragment-reissue rate (reissues / striped
    /// reads); see [`BudgetGovernor`]. Remember the equal-byte
    /// exchange rate: a fragment budget of `q` costs the bytes of a
    /// replica budget of `q / k`.
    pub budget_cap: Option<f64>,
    /// An externally shared governor (takes precedence over
    /// `budget_cap`).
    pub governor: Option<Arc<BudgetGovernor>>,
    /// TCP connections per replica.
    pub pool_per_replica: usize,
    /// Executor worker threads (ignored by
    /// [`StripedClient::connect_with_runtime`]).
    pub workers: usize,
    /// Seed for the reissue coin flips.
    pub seed: u64,
    /// How the straggler is retracted once the stripe decodes without
    /// it (see [`CancellationStyle`]).
    pub cancellation: CancellationStyle,
}

impl Default for StripedConfig {
    fn default() -> Self {
        StripedConfig {
            k: 2,
            policy: ReissuePolicy::None,
            budget_cap: None,
            governor: None,
            pool_per_replica: 4,
            workers: 4,
            seed: 0x5EED,
            cancellation: CancellationStyle::Client,
        }
    }
}

/// A fragment-hedging client over `n` replicas holding one stripe slot
/// each. Cheap to clone (clones share connections and statistics).
#[derive(Clone)]
pub struct StripedClient {
    engine: Arc<RaceEngine>,
    k: usize,
}

impl StripedClient {
    /// Connects to the `n` fragment replicas and starts a fresh runtime.
    pub fn connect(addrs: &[SocketAddr], cfg: StripedConfig) -> std::io::Result<StripedClient> {
        let rt = Runtime::new(cfg.workers);
        Self::connect_with_runtime(rt, addrs, cfg)
    }

    /// Connects on an existing runtime.
    pub fn connect_with_runtime(
        rt: Runtime,
        addrs: &[SocketAddr],
        cfg: StripedConfig,
    ) -> std::io::Result<StripedClient> {
        if cfg.k == 0 || addrs.len() < cfg.k {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("need at least k={} replicas, got {}", cfg.k, addrs.len()),
            ));
        }
        let hedge_cfg = HedgeConfig {
            policy: cfg.policy,
            online: None,
            budget_cap: cfg.budget_cap,
            governor: cfg.governor,
            pool_per_replica: cfg.pool_per_replica,
            pipeline: 1,
            workers: cfg.workers,
            seed: cfg.seed,
            cancellation: cfg.cancellation,
        };
        let engine = Arc::new(RaceEngine::connect(rt, addrs, hedge_cfg)?);
        Ok(StripedClient { engine, k: cfg.k })
    }

    /// The executor, for spawning concurrent load generators.
    pub fn runtime(&self) -> &Runtime {
        self.engine.runtime()
    }

    /// Stripe geometry `(k, n)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.k, self.engine.replicas().len())
    }

    /// The budget governor in force, if any.
    pub fn governor(&self) -> Option<&Arc<BudgetGovernor>> {
        self.engine.governor()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HedgeStats {
        self.engine.stats()
    }

    /// Quantile of end-to-end striped-read latencies (ms).
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.engine.latency_quantile(q)
    }

    /// Writes `value` as a `(k, n)` stripe: slot `s`'s fragment to the
    /// key's rotated replica `(s + offset) % n`. Blocking convenience
    /// for seeding; awaits every `FSET` acknowledgement.
    pub fn put_blocking(&self, key: &[u8], value: &[u8]) -> Result<(), TransportError> {
        let cmd = Command::Set(Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
        match self.execute_blocking(cmd)? {
            Reply::Ok => Ok(()),
            other => Err(TransportError::Protocol(format!("SET replied {other:?}"))),
        }
    }

    /// Executes one command. `GET` runs the k-of-n fragment race;
    /// `SET` writes a stripe, failing unless every slot's `FSET` is
    /// acknowledged; everything else passes through to a round-robin
    /// replica untouched. The returned future is `'static`: spawn any
    /// number concurrently.
    pub fn execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        let engine = self.engine.clone();
        let k = self.k;
        async move {
            let replicas = engine.replicas();
            let n = replicas.len();
            match cmd {
                Command::Get(key) => engine.clone().run(FragmentWave::new(key, k, n)).await,
                Command::Set(key, value) => {
                    let frags = codec::encode_stripe(&value, k, n)
                        .map_err(|e| TransportError::Protocol(e.to_string()))?;
                    let offset = crate::placement_offset(&key, n);
                    for (slot, frag) in frags.into_iter().enumerate() {
                        let cmd = Command::FSet(key.clone(), slot as u32, frag);
                        let replica = replicas.replica((slot + offset) % n);
                        let reply = replica.request(cmd, CancelToken::new()).await?;
                        if reply != Reply::Ok {
                            return Err(TransportError::Protocol(format!(
                                "FSET slot {slot} replied {reply:?}"
                            )));
                        }
                    }
                    Ok(Reply::Ok)
                }
                other => {
                    let replica = replicas.replica(replicas.pick_primary());
                    replica.request(other, CancelToken::new()).await
                }
            }
        }
    }

    /// Blocking convenience wrapper around [`StripedClient::execute`].
    pub fn execute_blocking(&self, cmd: Command) -> Result<Reply, TransportError> {
        let fut = self.execute(cmd);
        self.engine.runtime().block_on(fut)
    }
}

impl hedge::LoadClient for StripedClient {
    fn load_runtime(&self) -> &Runtime {
        self.runtime()
    }

    fn load_execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        self.execute(cmd)
    }

    fn load_counters(&self) -> (u64, u64) {
        let s = self.stats();
        (s.queries, s.reissues)
    }
}

/// One key's k-of-n read as a [`Wave`]: attempt `a` fetches stripe slot
/// `a` — the `k` data slots as primaries, parity slots `k, k+1, …` as
/// reissues until the stripe's `n` slots run out.
struct FragmentWave {
    key: Bytes,
    k: usize,
    offset: usize,
    /// Fragment payloads by slot.
    fragments: Vec<Option<Bytes>>,
    /// Data slots that answered `Nil`.
    nil_data: usize,
    /// Set when the stripe decoded with a data slot missing.
    used_parity: bool,
}

impl FragmentWave {
    fn new(key: Bytes, k: usize, n: usize) -> Self {
        FragmentWave {
            offset: crate::placement_offset(&key, n),
            key,
            k,
            fragments: vec![None; n],
            nil_data: 0,
            used_parity: false,
        }
    }

    /// Slot `slot`'s replica and its `FGET`.
    fn fetch(&self, slot: usize) -> (usize, Command) {
        let replica = (slot + self.offset) % self.fragments.len();
        (replica, Command::FGet(self.key.clone(), slot as u32))
    }
}

impl std::fmt::Debug for FragmentWave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let present: Vec<usize> = (0..self.fragments.len())
            .filter(|&s| self.fragments[s].is_some())
            .collect();
        write!(f, "FGET {:?} k={} present={present:?}", self.key, self.k)
    }
}

impl Wave for FragmentWave {
    fn primaries(&self) -> usize {
        self.k
    }

    fn primary(&mut self, slot: usize, _: &ReplicaSet) -> (usize, Command) {
        self.fetch(slot)
    }

    fn reissue(&mut self, _: &ReplicaSet, busy: &[usize]) -> Option<(usize, Command)> {
        let slot = busy.len();
        (slot < self.fragments.len()).then(|| self.fetch(slot))
    }

    fn on_reply(&mut self, slot: usize, reply: Reply) -> Step {
        match reply {
            Reply::Str(payload) => self.fragments[slot] = Some(payload),
            // Every data slot answered Nil: the key has no stripe.
            Reply::Nil if slot < self.k => {
                self.nil_data += 1;
                if self.nil_data == self.k {
                    return Step::Decided(Ok(Reply::Nil));
                }
                return Step::Pending;
            }
            Reply::Nil => return Step::Pending,
            other => {
                let e = format!("FGET slot {slot} replied {other:?}");
                return Step::Unusable(TransportError::Protocol(e));
            }
        }
        let present = (0..self.fragments.len()).filter(|&s| self.fragments[s].is_some());
        if !decodable(self.k, present) {
            return Step::Pending;
        }
        self.used_parity = self.fragments[..self.k].iter().any(Option::is_none);
        let present: Vec<&Bytes> = self.fragments.iter().flatten().collect();
        // `decodable` and `decode_stripe` agree on the slot arithmetic,
        // so a failure here means a malformed stored fragment.
        let value = codec::decode_stripe(&present)
            .map_err(|e| TransportError::Protocol(format!("ERASURE {e}")));
        Step::Decided(value.map(Reply::Str))
    }

    fn exhausted(&self) -> TransportError {
        TransportError::Protocol("ERASURE undecodable: too few fragments".into())
    }

    fn used_parity(&self) -> bool {
        self.used_parity
    }
}
