//! The three workloads: what each sets up, the seeded requests it
//! offers, and the reply each request must produce.
//!
//! * `kv-get` — one replica, no service burn, 512 keys × 64 B, 90 %
//!   `GET` / 10 % `SET`, closed loop with two issuers: pure per-request
//!   overhead of the executor, transport, codec and server threads.
//! * `sinter-hedge` — the §6.2 set-intersection trace on three
//!   replicas at 150 ns/op with a query of death every 500th arrival,
//!   open-loop Poisson at ρ ≈ 0.3, served by the online-correlated
//!   SingleR hedging client (k = 0.99, budget 0.05) with client-driven
//!   cancellation: the paper's experiment.
//! * `ec-stripe` — a (k = 2, n = 4) erasure-coded stripe group at
//!   64 B/unit and 4 µs/unit, 64 keys × 8 KiB plus a 1 MiB monster
//!   every 500th read, open-loop Poisson at ρ = 0.2, read by the k-of-n
//!   fragment client with `SingleR(1 ms, 1)` under cap 0.3 and tied
//!   cancellation.

use crate::driver::{Check, Load, Request, Requests};
use bytes::Bytes;
use erasure::{encode_stripe, StripedClient, StripedConfig};
use hedge::harness::Cluster;
use hedge::{BudgetGovernor, CancellationStyle, HedgeConfig, HedgedClient, LoadClient, TieStats};
use kvstore::dataset::{Dataset, DatasetConfig};
use kvstore::workload::{store_with_monsters, Trace, WorkloadConfig, MONSTER_KEY_A, MONSTER_KEY_B};
use kvstore::{Command, KvStore, Reply};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reissue_core::online::OnlineConfig;
use reissue_core::policy::ReissuePolicy;
use shard::StripedGroup;
use std::net::SocketAddr;
use std::sync::Arc;

/// Executor workers and connections per replica: both match the two
/// vCPUs the benchmark was sized on.
const WORKERS: usize = 2;
const POOL_PER_REPLICA: usize = 2;
/// Open-loop admission bound; an arrival beyond it is dropped.
const MAX_IN_FLIGHT: usize = 512;
/// One arrival in this many is a query of death.
const MONSTER_EVERY: u64 = 500;

/// Client counters the benchmark reads, whichever client serves.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientCounters {
    pub queries: u64,
    pub reissues: u64,
    pub reissue_wins: u64,
    pub cancelled_in_time: u64,
    pub pairs_exact: u64,
    pub pairs_censored: u64,
    pub decodes_with_parity: u64,
}

impl ClientCounters {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ClientCounters) -> ClientCounters {
        ClientCounters {
            queries: self.queries - earlier.queries,
            reissues: self.reissues - earlier.reissues,
            reissue_wins: self.reissue_wins - earlier.reissue_wins,
            cancelled_in_time: self.cancelled_in_time - earlier.cancelled_in_time,
            pairs_exact: self.pairs_exact - earlier.pairs_exact,
            pairs_censored: self.pairs_censored - earlier.pairs_censored,
            decodes_with_parity: self.decodes_with_parity - earlier.decodes_with_parity,
        }
    }
}

/// What the benchmark needs from a client beyond issuing requests.
pub trait BenchClient: LoadClient + Sync {
    /// Counter snapshot.
    fn counters(&self) -> ClientCounters;
    /// The reissue-rate governor in force, if any.
    fn governor(&self) -> Option<Arc<BudgetGovernor>>;
    /// The online adapter's current `(d, q)`, when one runs.
    fn online_policy(&self) -> Option<(f64, f64)>;
}

impl BenchClient for HedgedClient {
    fn counters(&self) -> ClientCounters {
        let s = self.stats();
        ClientCounters {
            queries: s.queries,
            reissues: s.reissues,
            reissue_wins: s.reissue_wins,
            cancelled_in_time: s.cancelled_in_time,
            pairs_exact: s.pairs_exact,
            pairs_censored: s.pairs_censored,
            decodes_with_parity: 0,
        }
    }

    fn governor(&self) -> Option<Arc<BudgetGovernor>> {
        HedgedClient::governor(self).cloned()
    }

    fn online_policy(&self) -> Option<(f64, f64)> {
        HedgedClient::online_policy(self).map(|p| (p.delay, p.probability))
    }
}

impl BenchClient for StripedClient {
    fn counters(&self) -> ClientCounters {
        let s = self.stats();
        ClientCounters {
            queries: s.queries,
            reissues: s.reissues,
            reissue_wins: s.reissue_wins,
            cancelled_in_time: s.cancelled_in_time,
            pairs_exact: s.pairs_exact,
            pairs_censored: s.pairs_censored,
            decodes_with_parity: s.decodes_with_parity,
        }
    }

    fn governor(&self) -> Option<Arc<BudgetGovernor>> {
        StripedClient::governor(self).cloned()
    }

    fn online_policy(&self) -> Option<(f64, f64)> {
        None
    }
}

/// The serving side of a rig.
pub enum Servers {
    /// Full replicas of a [`KvStore`].
    Replicas(Cluster<KvStore>),
    /// One erasure-coded stripe group.
    Striped(StripedGroup),
}

/// Server counters summed over every replica.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub commands: u64,
    pub retractions: u64,
    pub collapses: u64,
}

impl Servers {
    fn each(&self) -> Vec<(u64, TieStats)> {
        match self {
            Servers::Replicas(c) => (0..c.len())
                .map(|i| (c.server(i).stats().commands, c.server(i).tie_stats()))
                .collect(),
            Servers::Striped(g) => (0..g.geometry().1)
                .map(|i| (g.server(i).stats().commands, g.server(i).tie_stats()))
                .collect(),
        }
    }

    /// Summed counters.
    pub fn counters(&self) -> ServerCounters {
        self.each()
            .into_iter()
            .fold(ServerCounters::default(), |acc, (commands, t)| {
                ServerCounters {
                    commands: acc.commands + commands,
                    retractions: acc.retractions + t.retractions,
                    collapses: acc.collapses + t.collapses,
                }
            })
    }

    /// Every replica's address.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        match self {
            Servers::Replicas(c) => c.addrs(),
            Servers::Striped(g) => g.addrs(),
        }
    }
}

/// A running system: servers plus the client that reads them.
pub struct Rig<C> {
    pub client: C,
    pub servers: Servers,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The client type serving it.
    type Client: BenchClient;
    /// Name on the command line.
    const NAME: &'static str;
    /// The online adapter's configuration, when the client runs one.
    const ONLINE: Option<OnlineConfig>;

    /// Builds the dataset and request inputs from the seed.
    fn generate(seed: u64) -> Self;
    /// Starts the servers and connects the client.
    fn spawn(&self) -> std::io::Result<Rig<Self::Client>>;
    /// A fresh seeded request stream matching freshly spawned servers.
    fn requests(&self) -> Box<dyn Requests>;
    /// How the requests are offered.
    fn load(&self) -> Load;
    /// Arrivals that warm the system up before measuring.
    fn warmup(&self) -> u64;
    /// The wire frames (command, reply) each of `n` queries exchanges
    /// on its primary path.
    fn frames(&self, n: usize) -> Vec<Vec<(Command, Reply)>>;
    /// A local copy of one replica's store and `n` commands it serves.
    fn store_sample(&self, n: usize) -> (KvStore, Vec<Command>);
}

/// `len` seeded bytes.
fn random_bytes(rng: &mut SmallRng, len: usize) -> Bytes {
    Bytes::from((0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>())
}

/// Seed stream `k` of the workload seed, so each input is independent.
fn stream(seed: u64, k: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn hedge_config(seed: u64, online: Option<OnlineConfig>) -> HedgeConfig {
    HedgeConfig {
        policy: ReissuePolicy::None,
        online,
        workers: WORKERS,
        pool_per_replica: POOL_PER_REPLICA,
        seed,
        cancellation: CancellationStyle::Client,
        ..HedgeConfig::default()
    }
}

// ---------------------------------------------------------------- kv-get

/// `kv-get`: closed-loop reads and writes of small values.
pub struct KvGet {
    seed: u64,
    keys: Vec<Bytes>,
    values: Vec<Bytes>,
}

const KV_KEYS: usize = 512;
const KV_VALUE_LEN: usize = 64;
const KV_SET_FRACTION: f64 = 0.1;
const KV_ISSUERS: usize = 2;

struct KvRequests {
    rng: SmallRng,
    keys: Vec<Bytes>,
    /// The value last written to each key. Issuer `i` owns the keys
    /// `≡ i (mod issuers)`, so its own strictly sequential requests
    /// decide what every read must return.
    current: Vec<Bytes>,
}

impl Requests for KvRequests {
    fn next(&mut self, issuer: usize) -> Request {
        let k = issuer + KV_ISSUERS * self.rng.gen_range(0..KV_KEYS / KV_ISSUERS);
        let key = self.keys[k].clone();
        if self.rng.gen::<f64>() < KV_SET_FRACTION {
            let value = random_bytes(&mut self.rng, KV_VALUE_LEN);
            self.current[k] = value.clone();
            Request {
                cmd: Command::Set(key, value),
                check: Check::Ok,
                service_ms: 0.0,
            }
        } else {
            Request {
                cmd: Command::Get(key),
                check: Check::Str(self.current[k].clone()),
                service_ms: 0.0,
            }
        }
    }
}

impl KvGet {
    fn store(&self) -> KvStore {
        let mut store = KvStore::new();
        for (k, v) in self.keys.iter().zip(&self.values) {
            store.execute(&Command::Set(k.clone(), v.clone()));
        }
        store
    }
}

impl Workload for KvGet {
    type Client = HedgedClient;
    const NAME: &'static str = "kv-get";
    const ONLINE: Option<OnlineConfig> = None;

    fn generate(seed: u64) -> Self {
        let mut rng = stream(seed, 1);
        KvGet {
            seed,
            keys: (0..KV_KEYS)
                .map(|i| Bytes::from(format!("kv:{i:03}")))
                .collect(),
            values: (0..KV_KEYS)
                .map(|_| random_bytes(&mut rng, KV_VALUE_LEN))
                .collect(),
        }
    }

    fn spawn(&self) -> std::io::Result<Rig<HedgedClient>> {
        let cluster = Cluster::spawn(1, &self.store(), 0)?;
        let client = HedgedClient::connect(&cluster.addrs(), hedge_config(self.seed, None))?;
        Ok(Rig {
            client,
            servers: Servers::Replicas(cluster),
        })
    }

    fn requests(&self) -> Box<dyn Requests> {
        Box::new(KvRequests {
            rng: stream(self.seed, 2),
            keys: self.keys.clone(),
            current: self.values.clone(),
        })
    }

    fn load(&self) -> Load {
        Load::Closed {
            issuers: KV_ISSUERS,
        }
    }

    fn warmup(&self) -> u64 {
        5_000
    }

    fn frames(&self, n: usize) -> Vec<Vec<(Command, Reply)>> {
        let mut reqs = self.requests();
        (0..n)
            .map(|i| {
                let r = reqs.next(i % KV_ISSUERS);
                let reply = match r.check {
                    Check::Str(v) => Reply::Str(v),
                    _ => Reply::Ok,
                };
                vec![(r.cmd, reply)]
            })
            .collect()
    }

    fn store_sample(&self, n: usize) -> (KvStore, Vec<Command>) {
        let mut reqs = self.requests();
        let cmds = (0..n).map(|i| reqs.next(i % KV_ISSUERS).cmd).collect();
        (self.store(), cmds)
    }
}

// ---------------------------------------------------------- sinter-hedge

/// `sinter-hedge`: the §6.2 trace through the online hedging client.
pub struct SinterHedge {
    seed: u64,
    store: KvStore,
    /// `(command, exact cardinality, service ms)` per trace entry.
    trace: Arc<Vec<(Command, i64, f64)>>,
    monster: (Command, i64, f64),
}

const SINTER_NANOS_PER_OP: u64 = 150;
const SINTER_REPLICAS: usize = 3;
/// Arrival rate: ρ ≈ 0.3 of three replicas at the trace's mean service
/// time (≈ 0.49 ms with monsters; the seed moves it by a few percent).
/// Fixed rather than derived per seed, so the offered load does not
/// vary with the dataset.
const SINTER_RATE_QPS: f64 = 1_850.0;
const SINTER_TRACE_LEN: usize = 10_000;

/// The adapter configuration of the §6.2 experiment.
const SINTER_ONLINE: OnlineConfig = OnlineConfig {
    k: 0.99,
    budget: 0.05,
    window: 1_000,
    reoptimize_every: 250,
    learning_rate: 0.5,
    min_pairs: 48,
    load: None,
};

struct SinterRequests {
    trace: Arc<Vec<(Command, i64, f64)>>,
    monster: (Command, i64, f64),
    next: u64,
}

impl Requests for SinterRequests {
    fn next(&mut self, _issuer: usize) -> Request {
        let i = self.next;
        self.next += 1;
        let (cmd, card, service_ms) = if i % MONSTER_EVERY == MONSTER_EVERY / 2 {
            &self.monster
        } else {
            &self.trace[i as usize % self.trace.len()]
        };
        Request {
            cmd: cmd.clone(),
            check: Check::Int(*card),
            service_ms: *service_ms,
        }
    }
}

/// Executes `cmd` on `store`, returning its cardinality reply and its
/// service time at `nanos_per_op`.
fn card_and_cost(store: &mut KvStore, cmd: &Command, nanos_per_op: u64) -> (i64, f64) {
    match store.execute(cmd) {
        (Reply::Int(n), cost) => (n, cost as f64 * nanos_per_op as f64 / 1e6),
        (other, _) => panic!("SINTERCARD replied {other:?}"),
    }
}

impl Workload for SinterHedge {
    type Client = HedgedClient;
    const NAME: &'static str = "sinter-hedge";
    const ONLINE: Option<OnlineConfig> = Some(SINTER_ONLINE);

    fn generate(seed: u64) -> Self {
        let dataset = Dataset::generate(DatasetConfig {
            num_sets: 300,
            universe: 100_000,
            card_mu: (300.0f64).ln(),
            card_sigma: 0.3,
            seed: seed ^ 0x5e75,
        });
        let pairs = Trace::generate(
            &dataset,
            WorkloadConfig {
                num_queries: SINTER_TRACE_LEN,
                ns_per_op: SINTER_NANOS_PER_OP as f64,
                seed: seed ^ 0xbeef,
            },
        )
        .pairs;
        let mut store = store_with_monsters(&dataset);
        let trace: Vec<(Command, i64, f64)> = pairs
            .iter()
            .map(|&(a, b)| {
                let cmd =
                    Command::SInterCard(Bytes::from(Dataset::key(a)), Bytes::from(Dataset::key(b)));
                let (card, ms) = card_and_cost(&mut store, &cmd, SINTER_NANOS_PER_OP);
                (cmd, card, ms)
            })
            .collect();
        let monster_cmd = Command::SInterCard(MONSTER_KEY_A.into(), MONSTER_KEY_B.into());
        let (card, monster_ms) = card_and_cost(&mut store, &monster_cmd, SINTER_NANOS_PER_OP);
        SinterHedge {
            seed,
            store,
            trace: Arc::new(trace),
            monster: (monster_cmd, card, monster_ms),
        }
    }

    fn spawn(&self) -> std::io::Result<Rig<HedgedClient>> {
        let cluster = Cluster::spawn(SINTER_REPLICAS, &self.store, SINTER_NANOS_PER_OP)?;
        let client =
            HedgedClient::connect(&cluster.addrs(), hedge_config(self.seed, Self::ONLINE))?;
        Ok(Rig {
            client,
            servers: Servers::Replicas(cluster),
        })
    }

    fn requests(&self) -> Box<dyn Requests> {
        Box::new(SinterRequests {
            trace: self.trace.clone(),
            monster: self.monster.clone(),
            next: 0,
        })
    }

    fn load(&self) -> Load {
        Load::Open {
            rate_qps: SINTER_RATE_QPS,
            max_in_flight: MAX_IN_FLIGHT,
        }
    }

    fn warmup(&self) -> u64 {
        // At least one adapter window, so the policy has re-optimized
        // (and switched to the correlated optimizer) before measuring.
        SINTER_ONLINE.window as u64 * 3 / 2
    }

    fn frames(&self, n: usize) -> Vec<Vec<(Command, Reply)>> {
        let mut reqs = self.requests();
        (0..n)
            .map(|_| {
                let r = reqs.next(0);
                let Check::Int(card) = r.check else {
                    unreachable!("sinter checks are cardinalities")
                };
                vec![(r.cmd, Reply::Int(card))]
            })
            .collect()
    }

    fn store_sample(&self, n: usize) -> (KvStore, Vec<Command>) {
        let mut reqs = self.requests();
        (
            self.store.clone(),
            (0..n).map(|_| reqs.next(0).cmd).collect(),
        )
    }
}

// ------------------------------------------------------------- ec-stripe

/// `ec-stripe`: k-of-n fragment reads of striped values.
pub struct EcStripe {
    seed: u64,
    /// Regular keys then the monster, with their values.
    keys: Vec<Bytes>,
    values: Vec<Bytes>,
    rate_qps: f64,
}

const EC_K: usize = 2;
const EC_N: usize = 4;
const EC_BYTES_PER_UNIT: u64 = 64;
const EC_NANOS_PER_OP: u64 = 4_000;
const EC_KEYS: usize = 64;
const EC_VALUE_LEN: usize = 8 * 1024;
const EC_MONSTER_LEN: usize = 1 << 20;
/// Offered utilization of the fragment servers. Each fragment read ends
/// in a sleep whose wake-up a stolen vCPU delays, so steal raises the
/// effective utilization. At 0.5 the group collapsed (p50 > 100 ms,
/// drops) at about 25 % steal, and at 0.3 it dropped arrivals at 30 %
/// and more; at 0.2 each server wakes about as often as a sinter-hedge
/// replica, which held at the same steal.
const EC_UTIL: f64 = 0.2;
const EC_CAP: f64 = 0.3;
const EC_DELAY_MS: f64 = 1.0;

/// Service time of one fragment read of a `len`-byte value, ms.
fn fragment_ms(len: usize) -> f64 {
    let frag = erasure::fragment_len(len, EC_K) as u64;
    (1 + frag / EC_BYTES_PER_UNIT) as f64 * EC_NANOS_PER_OP as f64 / 1e6
}

struct EcRequests {
    rng: SmallRng,
    keys: Vec<Bytes>,
    values: Vec<Bytes>,
    next: u64,
}

impl Requests for EcRequests {
    fn next(&mut self, _issuer: usize) -> Request {
        let i = self.next;
        self.next += 1;
        let k = if i % MONSTER_EVERY == MONSTER_EVERY / 5 {
            EC_KEYS
        } else {
            self.rng.gen_range(0..EC_KEYS)
        };
        Request {
            cmd: Command::Get(self.keys[k].clone()),
            check: Check::Str(self.values[k].clone()),
            // The k fragments are read in parallel: the read waits for
            // one fragment's service time.
            service_ms: fragment_ms(self.values[k].len()),
        }
    }
}

impl Workload for EcStripe {
    type Client = StripedClient;
    const NAME: &'static str = "ec-stripe";
    const ONLINE: Option<OnlineConfig> = None;

    fn generate(seed: u64) -> Self {
        let mut rng = stream(seed, 3);
        let mut keys: Vec<Bytes> = (0..EC_KEYS)
            .map(|i| Bytes::from(format!("ec:{i:03}")))
            .collect();
        keys.push(Bytes::from_static(b"ec:monster"));
        let mut values: Vec<Bytes> = (0..EC_KEYS)
            .map(|_| random_bytes(&mut rng, EC_VALUE_LEN))
            .collect();
        values.push(random_bytes(&mut rng, EC_MONSTER_LEN));
        // Capacity a read consumes: k fragment services.
        let mean_ms = EC_K as f64
            * (fragment_ms(EC_VALUE_LEN)
                + (fragment_ms(EC_MONSTER_LEN) - fragment_ms(EC_VALUE_LEN)) / MONSTER_EVERY as f64);
        EcStripe {
            seed,
            keys,
            values,
            rate_qps: EC_N as f64 * EC_UTIL / (mean_ms / 1e3),
        }
    }

    fn spawn(&self) -> std::io::Result<Rig<StripedClient>> {
        let group = StripedGroup::spawn(EC_K, EC_N, EC_BYTES_PER_UNIT, EC_NANOS_PER_OP)?;
        for (k, v) in self.keys.iter().zip(&self.values) {
            group
                .seed(k, v)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        let client = StripedClient::connect(
            &group.addrs(),
            StripedConfig {
                k: EC_K,
                policy: ReissuePolicy::SingleR {
                    delay: EC_DELAY_MS,
                    prob: 1.0,
                },
                budget_cap: Some(EC_CAP),
                governor: None,
                pool_per_replica: POOL_PER_REPLICA,
                workers: WORKERS,
                seed: self.seed,
                cancellation: CancellationStyle::Tied,
            },
        )?;
        Ok(Rig {
            client,
            servers: Servers::Striped(group),
        })
    }

    fn requests(&self) -> Box<dyn Requests> {
        Box::new(EcRequests {
            rng: stream(self.seed, 4),
            keys: self.keys.clone(),
            values: self.values.clone(),
            next: 0,
        })
    }

    fn load(&self) -> Load {
        Load::Open {
            rate_qps: self.rate_qps,
            max_in_flight: MAX_IN_FLIGHT,
        }
    }

    fn warmup(&self) -> u64 {
        1_000
    }

    fn frames(&self, n: usize) -> Vec<Vec<(Command, Reply)>> {
        let mut reqs = self.requests();
        (0..n)
            .map(|_| {
                let Command::Get(key) = reqs.next(0).cmd else {
                    unreachable!("ec-stripe only reads")
                };
                let k = self.keys.iter().position(|x| *x == key).expect("known key");
                let frags = encode_stripe(&self.values[k], EC_K, EC_N).expect("encodable");
                (0..EC_K)
                    .map(|slot| {
                        (
                            Command::FGet(key.clone(), slot as u32),
                            Reply::Str(frags[slot].clone()),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn store_sample(&self, n: usize) -> (KvStore, Vec<Command>) {
        let mut store = KvStore::new();
        for (k, v) in self.keys.iter().zip(&self.values) {
            let frags = encode_stripe(v, EC_K, EC_N).expect("encodable");
            for (slot, f) in frags.into_iter().enumerate() {
                store.execute(&Command::FSet(k.clone(), slot as u32, f));
            }
        }
        let mut reqs = self.requests();
        let cmds = (0..n)
            .map(|i| {
                let Command::Get(key) = reqs.next(0).cmd else {
                    unreachable!("ec-stripe only reads")
                };
                Command::FGet(key, (i % EC_K) as u32)
            })
            .collect();
        (store, cmds)
    }
}

/// 8 KiB values for the codec probe, seeded.
pub fn ec_probe_values(seed: u64) -> Vec<Bytes> {
    let mut rng = stream(seed, 5);
    (0..EC_KEYS)
        .map(|_| random_bytes(&mut rng, EC_VALUE_LEN))
        .collect()
}

/// Stripe geometry `(k, n)` of the erasure workload.
pub const EC_GEOMETRY: (usize, usize) = (EC_K, EC_N);
