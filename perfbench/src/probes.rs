//! Probes that time calls into single layers through their public
//! functions: PING round trips, executor timer lateness, the RESP
//! codec, store execution, the (d, q) optimizers and the stripe codec.

use crate::trace::Recorder;
use bytes::{Bytes, BytesMut};
use hedge::{CancelToken, Replica, Runtime};
use kvstore::resp::{decode_command, decode_reply, encode_command, encode_reply};
use kvstore::{Command, KvStore, Reply};
use reissue_core::optimizer::{compute_optimal_single_r, compute_optimal_single_r_correlated};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One PING round trip through a dedicated connection, in ms.
pub fn ping_ms(rt: &Runtime, replica: &Replica) -> f64 {
    let t0 = Instant::now();
    let reply = rt.block_on(replica.request(Command::Ping, CancelToken::new()));
    assert!(matches!(reply, Ok(Reply::Pong)), "PING answered {reply:?}");
    t0.elapsed().as_secs_f64() * 1e3
}

/// `n` back-to-back PINGs to `addr` over a fresh connection, in ms.
pub fn idle_pings(rt: &Runtime, addr: SocketAddr, n: usize, spans: &mut Recorder) -> Vec<f64> {
    let replica = Replica::connect(addr, 1).expect("connect probe socket");
    (0..n)
        .map(|i| {
            let t0 = Instant::now();
            let ms = ping_ms(rt, &replica);
            spans.record(i as u64, "probe.ping.idle", None, t0, Instant::now());
            ms
        })
        .collect()
}

/// What the concurrent probe thread saw while the load ran.
#[derive(Default)]
pub struct LoadedProbe {
    /// PING round trips to the loaded replicas, ms.
    pub pings_ms: Vec<f64>,
    /// Distinct online `(d, q)` policies observed, in order.
    pub policy_changes: u64,
    pub spans: Vec<(Instant, Instant)>,
}

/// Pings the loaded replicas round-robin every `gap` and polls the
/// online policy until `stop` is set.
pub fn loaded_probe(
    rt: &Runtime,
    addrs: &[SocketAddr],
    policy: &dyn Fn() -> Option<(f64, f64)>,
    gap: Duration,
    stop: &AtomicBool,
) -> LoadedProbe {
    let replicas: Vec<Replica> = addrs
        .iter()
        .map(|&a| Replica::connect(a, 1).expect("connect probe socket"))
        .collect();
    let mut out = LoadedProbe::default();
    let mut last = policy();
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        out.pings_ms
            .push(ping_ms(rt, &replicas[i % replicas.len()]));
        out.spans.push((t0, Instant::now()));
        i += 1;
        let now = policy();
        if now != last {
            out.policy_changes += 1;
            last = now;
        }
        std::thread::sleep(gap);
    }
    out
}

/// Spawns a task on `rt` that sleeps to deadlines `period` apart until
/// `stop` is set; resolves to each wake's `(deadline, woke)`.
pub fn timer_probe(
    rt: &Runtime,
    period: Duration,
    stop: Arc<AtomicBool>,
) -> hedge::JoinHandle<Vec<(Instant, Instant)>> {
    let rt2 = rt.clone();
    rt.spawn(async move {
        let mut out = Vec::new();
        let mut deadline = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            deadline += period;
            rt2.sleep_until(deadline).await;
            out.push((deadline, Instant::now()));
        }
        out
    })
}

/// Mean µs per query to encode and decode every command and reply
/// frame of `frames` (one inner list per query).
pub fn codec_us_per_query(frames: &[Vec<(Command, Reply)>], rounds: usize) -> f64 {
    let mut buf = BytesMut::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for (cmd, reply) in frames.iter().flatten() {
            encode_command(black_box(cmd), &mut buf);
            let decoded = decode_command(&mut buf).expect("own frame decodes");
            black_box(decoded);
            encode_reply(black_box(reply), &mut buf);
            let decoded = decode_reply(&mut buf).expect("own frame decodes");
            black_box(decoded);
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / (rounds * frames.len()).max(1) as f64
}

/// Time of each `KvStore::execute`, µs, on a local copy with no burn.
pub fn store_execute_us(mut store: KvStore, cmds: &[Command]) -> Vec<f64> {
    cmds.iter()
        .map(|cmd| {
            let t0 = Instant::now();
            black_box(store.execute(black_box(cmd)));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Times `rounds` runs each of the independent and the correlated
/// SingleR optimizer on `window` (the run's latencies, ms); pairs are
/// consecutive latencies. Returns every timing, ms.
pub fn reoptimize_ms(window: &[f64], k: f64, budget: f64, rounds: usize) -> Vec<f64> {
    let pairs: Vec<(f64, f64)> = window.windows(2).map(|w| (w[0], w[1])).collect();
    let mut out = Vec::with_capacity(2 * rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        black_box(compute_optimal_single_r(
            black_box(window),
            window,
            k,
            budget,
        ));
        out.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        black_box(compute_optimal_single_r_correlated(
            black_box(window),
            &pairs,
            k,
            budget,
        ));
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out
}

/// Stripe codec timings on `values`, µs per call:
/// `(encode, decode from data fragments, decode with parity)`.
pub fn erasure_us(values: &[Bytes], k: usize, n: usize, rounds: usize) -> (f64, f64, f64) {
    let stripes: Vec<Vec<Bytes>> = values
        .iter()
        .map(|v| erasure::encode_stripe(v, k, n).expect("encodable"))
        .collect();
    let calls = (rounds * values.len()).max(1) as f64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for v in values {
            black_box(erasure::encode_stripe(black_box(v), k, n).expect("encodable"));
        }
    }
    let encode = t0.elapsed().as_secs_f64() * 1e6 / calls;
    let decode_with = |pick: &dyn Fn(&[Bytes]) -> Vec<Bytes>| {
        let picked: Vec<Vec<Bytes>> = stripes.iter().map(|s| pick(s)).collect();
        for (frags, v) in picked.iter().zip(values) {
            let got = erasure::decode_stripe(frags).expect("decodable");
            assert_eq!(&got, v, "stripe decodes to its value");
        }
        let t0 = Instant::now();
        for _ in 0..rounds {
            for frags in &picked {
                black_box(erasure::decode_stripe(black_box(frags)).expect("decodable"));
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / calls
    };
    let data_only = decode_with(&|s| s[..k].to_vec());
    // Drop data slot 0 and stand the first parity slot in for it.
    let with_parity = decode_with(&|s| s[1..=k].to_vec());
    (encode, data_only, with_parity)
}
