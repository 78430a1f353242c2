//! Benchmark of the hedged TCP serving path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-get|sinter-hedge|ec-stripe> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the system up several times, measures the last one
//! for `--seconds` and prints the end-to-end metrics. `--trace 1` is
//! the separate traced run: it measures half the time untraced and half
//! traced (spans, allocation counting, probes) and prints the
//! per-layer metrics plus the tracing overhead. Every run checks each
//! reply and the request accounting; the last stdout line is a JSON
//! object, and the exit code is non-zero when any check failed. See
//! `README.md` beside this file for what each metric means.

mod alloc;
mod cpu;
mod driver;
mod probes;
mod stats;
mod trace;
mod workloads;

use driver::{drive, Requests, RunRecord, Stop};
use hedge::LoadClient;
use stats::{median, quantile, ratio, sorted};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{
    BenchClient, ClientCounters, EcStripe, KvGet, Rig, ServerCounters, SinterHedge, Workload,
};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics printed by the untraced run, as listed in
/// `BENCHMARK.json`.
const END_TO_END: &[&str] = &[
    "throughput_qps",
    "cpu_per_query_us",
    "peak_rss_mb",
    "setup_s",
];

/// Per-layer metrics printed by the traced run.
const PER_LAYER: &[&str] = &[
    "rt.cpu_us_per_query",
    "transport.cpu_us_per_query",
    "server.reader.cpu_us_per_query",
    "server.sweep.cpu_us_per_query",
    "server.tie.cpu_us_per_query",
    "bench.cpu_us_per_query",
    "server.idle_cpu_cores",
    "allocs_per_query",
    "resp.codec_us_per_query",
    "store.execute_us.p50",
    "store.execute_us.p99",
    "rt.timer_late_us.p50",
    "rt.timer_late_us.p99",
    "rt.timer_inserts_per_query",
    "transport.ping_rtt_ms.p50",
    "transport.ping_rtt_ms.p99",
    "server.queue_wait_ms.p50",
    "server.queue_wait_ms.p99",
    "query.p50_ms",
    "query.p99_ms",
    "query.nonservice_ms.p50",
    "query.nonservice_ms.p99",
    "query.p999_ms",
    "query.failed_frac",
    "server.commands_per_query",
    "client.reissue_rate",
    "client.reissue_win_ratio",
    "client.cancel_in_time_ratio",
    "client.pairs_censored_ratio",
    "client.decodes_with_parity_ratio",
    "server.tie.retractions_per_reissue",
    "server.tie.collapses_per_reissue",
    "policy.reoptimize_ms.p50",
    "policy.reoptimize_ms.max",
    "policy.reoptimizations",
    "erasure.encode_us",
    "erasure.decode_us",
    "erasure.decode_parity_us",
    "bench.gen_late_ms.p99",
    "trace.overhead.cpu_us_per_query",
    "trace.overhead.p50_ms",
    "trace.query.self_us_per_query",
    "trace.gen.lag.self_us_per_query",
    "trace.client.execute.self_us_per_query",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Idle window for `server.idle_cpu_cores`.
const IDLE_WINDOW: Duration = Duration::from_secs(1);
/// Gap between the traced run's loaded-replica PINGs.
const PROBE_GAP: Duration = Duration::from_millis(2);
/// Period of the executor timer probe.
const TIMER_PERIOD: Duration = Duration::from_millis(1);
/// Back-to-back PINGs for the idle round trip.
const IDLE_PINGS: usize = 2_000;
/// Sample sizes of the offline layer probes.
const CODEC_QUERIES: usize = 1_000;
const STORE_COMMANDS: usize = 5_000;
const OPTIMIZER_WINDOW: usize = 1_000;
/// How long a finished run may take to retire its executor tasks.
const TASK_SETTLE: Duration = Duration::from_secs(5);

const USAGE: &str = "usage: perfbench --workload <kv-get|sinter-hedge|ec-stripe> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    value: f64,
    unit: &'static str,
    /// Sample count behind a percentile, or other context.
    note: String,
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<String, Metric>,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_noted(name, value, unit, String::new());
    }

    fn put_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        if !value.is_finite() {
            self.violations
                .push(format!("{name} is not finite ({value})"));
            return;
        }
        self.metrics
            .insert(name.to_string(), Metric { value, unit, note });
    }

    /// Reports percentile `p` of `samples`, or a
    /// violation when too few samples lie beyond it.
    fn put_quantile(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) {
        match quantile(&sorted(samples), p) {
            Some(q) => self.put_noted(
                name,
                q.value,
                unit,
                format!("n={} beyond={}", q.n, q.beyond),
            ),
            None => self.violations.push(format!(
                "{name}: {} samples leave fewer than {} beyond p{}",
                samples.len(),
                stats::MIN_BEYOND,
                p * 100.0
            )),
        }
    }

    /// Books a run's accounting into `attempted`/`failed` and checks it.
    fn account(&mut self, phase: &str, rec: &RunRecord) {
        self.attempted += rec.offered;
        self.failed += rec.failed + rec.dropped + rec.wrong;
        if rec.wrong > 0 {
            self.violations.push(format!(
                "{phase}: {} wrong replies, e.g. {}",
                rec.wrong,
                rec.wrong_examples.join("; ")
            ));
        }
        if rec.offered != rec.dispatched + rec.dropped {
            self.violations.push(format!(
                "{phase}: offered {} != dispatched {} + dropped {}",
                rec.offered, rec.dispatched, rec.dropped
            ));
        }
        if rec.lost != 0 {
            self.violations
                .push(format!("{phase}: {} requests never resolved", rec.lost));
        }
        if rec.completed == 0 {
            self.violations.push(format!("{phase}: nothing completed"));
        }
    }
}

/// Runs `f` on the load-generator thread, whose name attributes its
/// CPU to the benchmark rather than to the program.
fn on_gen_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn_scoped(s, f)
            .expect("spawn generator thread")
            .join()
            .expect("generator thread panicked")
    })
}

/// A set-up, warmed-up system.
struct System<W: Workload> {
    wl: W,
    rig: Rig<W::Client>,
    requests: Box<dyn Requests>,
}

impl<W: Workload> System<W> {
    /// Waits for the executor's tasks to finish, then drops the system.
    /// A task that outlives the last client handle would drop the
    /// runtime on its own worker thread, which then tries to join
    /// itself and panics.
    fn tear_down(self) {
        let rt = self.rig.client.load_runtime();
        let deadline = Instant::now() + TASK_SETTLE;
        while rt.live_tasks() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Generates the inputs, starts the servers, connects and warms up.
fn set_up<W: Workload>(seed: u64, report: &mut Report) -> System<W> {
    let wl = W::generate(seed);
    let rig = wl.spawn().expect("start servers and connect");
    let mut requests = wl.requests();
    let (load, warmup) = (wl.load(), wl.warmup());
    let rec = on_gen_thread(|| {
        drive(
            &rig.client,
            &mut *requests,
            load,
            Instant::now(),
            Stop::Count(warmup),
            seed ^ 0x3A7E,
            None,
        )
    });
    report.account("warm-up", &rec);
    System { wl, rig, requests }
}

/// One measured window: the driver's record plus counter deltas.
struct Window {
    rec: RunRecord,
    /// Process CPU seconds and CPU seconds per layer (Linux only).
    cpu: Option<(f64, BTreeMap<&'static str, f64>)>,
    client: ClientCounters,
    server: ServerCounters,
    timer_inserts: u64,
    allocs: u64,
}

impl Window {
    fn per_query(&self, total: f64) -> f64 {
        ratio(total, self.rec.completed as f64)
    }
}

/// Drives `seconds` of load through `sys` and checks the outcome.
fn measure<W: Workload>(
    sys: &mut System<W>,
    seconds: f64,
    seed: u64,
    spans: Option<&mut Recorder>,
    phase: &str,
    report: &mut Report,
) -> Window {
    let client = &sys.rig.client;
    let rt = client.load_runtime();
    let live_before = rt.live_tasks();
    let (client0, server0) = (client.counters(), sys.rig.servers.counters());
    let (inserts0, allocs0) = (rt.timer_insert_ops(), alloc::allocations());
    let cpu0 = cpu::snapshot();
    let steal0 = cpu::host_steal_ticks();
    let requests = &mut sys.requests;
    let load = sys.wl.load();
    let rec = on_gen_thread(|| {
        drive(
            client,
            &mut **requests,
            load,
            Instant::now(),
            Stop::Time(Duration::from_secs_f64(seconds)),
            seed,
            spans,
        )
    });
    let cpu1 = cpu::snapshot();
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, cpu::host_steal_ticks()) {
        // Context for every wall-clock figure of this window.
        report.put(
            &format!("host.steal_share.{phase}"),
            ratio((s1 - s0) as f64, (t1 - t0) as f64),
            "1",
        );
    }
    let window = Window {
        cpu: cpu0
            .zip(cpu1)
            .map(|(a, b)| (a.process_secs_until(&b), a.layer_secs_until(&b))),
        client: client.counters().since(&client0),
        server: {
            let s = sys.rig.servers.counters();
            ServerCounters {
                commands: s.commands - server0.commands,
                retractions: s.retractions - server0.retractions,
                collapses: s.collapses - server0.collapses,
            }
        },
        timer_inserts: rt.timer_insert_ops() - inserts0,
        allocs: alloc::allocations() - allocs0,
        rec,
    };
    report.account(phase, &window.rec);

    // Every task the run spawned retires once it drains.
    let settle = Instant::now() + TASK_SETTLE;
    while rt.live_tasks() > live_before && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(1));
    }
    if rt.live_tasks() > live_before {
        report.violations.push(format!(
            "{phase}: executor holds {} live tasks after drain, {} before",
            rt.live_tasks(),
            live_before
        ));
    }
    // The realized reissue rate stays within the governor's cap plus
    // its burst allowance (both over the client's whole life).
    if let Some(g) = client.governor() {
        let limit = g.cap() * (g.queries() + 1) as f64 + g.burst();
        if g.reissues() as f64 > limit {
            report.violations.push(format!(
                "{phase}: {} reissues over {} queries exceed cap {} + burst {}",
                g.reissues(),
                g.queries(),
                g.cap(),
                g.burst()
            ));
        }
    }
    window
}

fn run<W: Workload>(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        traced::<W>(args, &mut report);
    } else {
        untraced::<W>(args, &mut report);
    }
    report
}

/// The end-to-end run.
fn untraced<W: Workload>(args: &Args, report: &mut Report) {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut peak_rss = None;
    let mut sys: Option<System<W>> = None;
    for _ in 0..SETUPS {
        // Tear the previous system down outside the timed set-up.
        if let Some(old) = sys.take() {
            old.tear_down();
        }
        let t0 = Instant::now();
        sys = Some(set_up::<W>(args.seed, report));
        setup_s.push(t0.elapsed().as_secs_f64());
        // The program's peak over the first set-up: later ones start
        // from the heap the torn-down systems left behind, and the
        // measured window fills the benchmark's own sample buffers.
        if peak_rss.is_none() {
            peak_rss = cpu::peak_rss_mb();
        }
    }
    let mut sys = sys.expect("at least one set-up");
    let w = measure(&mut sys, args.seconds, args.seed, None, "run", report);
    let rec = &w.rec;
    report.put("throughput_qps", rec.throughput_qps(), "1/s");
    if let Some((process, _)) = &w.cpu {
        report.put("cpu_per_query_us", w.per_query(process * 1e6), "us");
    }
    // Table only: the JSON line leaves out metrics that can be 0, that
    // have too few samples beyond them on a short run, or that follow
    // the host's CPU steal more than the program (the latency
    // percentiles, see README.md).
    report.put_quantile("p50_ms", &rec.latencies_ms, 0.5, "ms");
    report.put_quantile("p99_ms", &rec.latencies_ms, 0.99, "ms");
    report.put_quantile("p999_ms", &rec.latencies_ms, 0.999, "ms");
    report.put(
        "reissue_rate",
        ratio(w.client.reissues as f64, w.client.queries as f64),
        "1/query",
    );
    report.put(
        "failed_frac",
        stats::failed_frac(rec.offered, rec.failed, rec.dropped, rec.wrong),
        "1",
    );
    if let Some(mb) = peak_rss {
        report.put_noted("peak_rss_mb", mb, "MiB", "first set-up and warm-up".into());
    }
    if let Some(mb) = cpu::peak_rss_mb() {
        report.put("run.peak_rss_mb", mb, "MiB");
    }
    report.put_noted(
        "setup_s",
        median(&setup_s),
        "s",
        format!("median of {SETUPS}: {setup_s:.3?}"),
    );
}

/// The traced run: half untraced, half traced with probes, then the
/// offline layer probes.
fn traced<W: Workload>(args: &Args, report: &mut Report) {
    let mut sys = set_up::<W>(args.seed, report);
    let half = args.seconds / 2.0;

    // Idle: whatever the stack burns with nothing to serve.
    let idle0 = cpu::snapshot();
    std::thread::sleep(IDLE_WINDOW);
    if let (Some(a), Some(b)) = (idle0, cpu::snapshot()) {
        report.put(
            "server.idle_cpu_cores",
            a.process_secs_until(&b) / IDLE_WINDOW.as_secs_f64(),
            "cores",
        );
    }

    let plain = measure(&mut sys, half, args.seed, None, "untraced", report);

    let epoch = Instant::now();
    let mut spans = Recorder::new(epoch);
    let stop = Arc::new(AtomicBool::new(false));
    let rt = sys.rig.client.load_runtime().clone();
    let timer = probes::timer_probe(&rt, TIMER_PERIOD, stop.clone());
    let addrs = sys.rig.servers.addrs();
    let probe_client = sys.rig.client.clone();
    alloc::set_counting(true);
    let (traced_w, loaded) = std::thread::scope(|s| {
        let probe = std::thread::Builder::new()
            .name("bench-probe".into())
            .spawn_scoped(s, || {
                probes::loaded_probe(
                    &rt,
                    &addrs,
                    &|| probe_client.online_policy(),
                    PROBE_GAP,
                    &stop,
                )
            })
            .expect("spawn probe thread");
        let w = measure(
            &mut sys,
            half,
            args.seed ^ 0x7ACE,
            Some(&mut spans),
            "traced",
            report,
        );
        stop.store(true, Ordering::Relaxed);
        (w, probe.join().expect("probe thread panicked"))
    });
    alloc::set_counting(false);
    let timer_wakes = rt.block_on(timer);

    layer_metrics(&plain, &traced_w, report);

    // Probes that ran alongside the traced half.
    let idle_ms = probes::idle_pings(&rt, addrs[0], IDLE_PINGS, &mut spans);
    report.put_quantile("transport.ping_rtt_ms.p50", &idle_ms, 0.5, "ms");
    report.put_quantile("transport.ping_rtt_ms.p99", &idle_ms, 0.99, "ms");
    let idle_p50 = median(&idle_ms);
    let waits: Vec<f64> = loaded.pings_ms.iter().map(|ms| ms - idle_p50).collect();
    report.put_quantile("server.queue_wait_ms.p50", &waits, 0.5, "ms");
    report.put_quantile("server.queue_wait_ms.p99", &waits, 0.99, "ms");
    for (i, &(a, b)) in loaded.spans.iter().enumerate() {
        spans.record(i as u64, "probe.ping.loaded", None, a, b);
    }
    let late_us: Vec<f64> = timer_wakes
        .iter()
        .enumerate()
        .map(|(i, &(deadline, woke))| {
            spans.record(i as u64, "probe.timer", None, deadline, woke);
            woke.saturating_duration_since(deadline).as_secs_f64() * 1e6
        })
        .collect();
    report.put_quantile("rt.timer_late_us.p50", &late_us, 0.5, "us");
    report.put_quantile("rt.timer_late_us.p99", &late_us, 0.99, "us");
    // Each probe sleep is one timer insertion; the rest are the load's.
    report.put(
        "rt.timer_inserts_per_query",
        traced_w.per_query(
            traced_w
                .timer_inserts
                .saturating_sub(timer_wakes.len() as u64) as f64,
        ),
        "1/query",
    );
    report.put(
        "server.commands_per_query",
        traced_w.per_query(
            traced_w
                .server
                .commands
                .saturating_sub(loaded.pings_ms.len() as u64) as f64,
        ),
        "1/query",
    );
    report.put(
        "policy.reoptimizations",
        loaded.policy_changes as f64,
        "count",
    );

    // Offline layer probes on the workload's own inputs.
    let t0 = Instant::now();
    let frames = sys.wl.frames(CODEC_QUERIES);
    report.put(
        "resp.codec_us_per_query",
        probes::codec_us_per_query(&frames, 20),
        "us",
    );
    let t1 = Instant::now();
    spans.record(0, "probe.codec", None, t0, t1);
    let (store, cmds) = sys.wl.store_sample(STORE_COMMANDS);
    let exec_us = probes::store_execute_us(store, &cmds);
    report.put_quantile("store.execute_us.p50", &exec_us, 0.5, "us");
    report.put_quantile("store.execute_us.p99", &exec_us, 0.99, "us");
    let t2 = Instant::now();
    spans.record(0, "probe.store", None, t1, t2);
    let lat = &traced_w.rec.latencies_ms;
    let window = &lat[lat.len().saturating_sub(OPTIMIZER_WINDOW)..];
    let online = W::ONLINE.unwrap_or_default();
    let reopt = probes::reoptimize_ms(window, online.k, online.budget, 10);
    report.put_quantile("policy.reoptimize_ms.p50", &reopt, 0.5, "ms");
    report.put(
        "policy.reoptimize_ms.max",
        reopt.iter().cloned().fold(0.0, f64::max),
        "ms",
    );
    let t3 = Instant::now();
    spans.record(0, "probe.optimizer", None, t2, t3);
    let (k, n) = workloads::EC_GEOMETRY;
    let (enc, dec, dec_parity) =
        probes::erasure_us(&workloads::ec_probe_values(args.seed), k, n, 20);
    report.put("erasure.encode_us", enc, "us");
    report.put("erasure.decode_us", dec, "us");
    report.put("erasure.decode_parity_us", dec_parity, "us");
    spans.record(0, "probe.erasure", None, t3, Instant::now());

    let queries = traced_w.rec.completed as f64;
    let self_ns = spans.self_ns_by_name();
    for name in ["query", "gen.lag", "client.execute"] {
        let ns = self_ns.get(name).copied().unwrap_or(0) as f64;
        report.put(
            &format!("trace.{name}.self_us_per_query"),
            ratio(ns / 1e3, queries),
            "us",
        );
    }
    write_spans(W::NAME, &spans);
}

/// Per-layer numbers from the two halves of the traced run. Layer CPU
/// comes from the untraced half, which runs no probes and no counting
/// allocator, so only the queries' own work is charged to them.
fn layer_metrics(plain: &Window, w: &Window, report: &mut Report) {
    if let Some((process, layers)) = &plain.cpu {
        for (layer, metric) in [
            ("rt", "rt.cpu_us_per_query"),
            ("transport", "transport.cpu_us_per_query"),
            ("server.reader", "server.reader.cpu_us_per_query"),
            ("server.sweep", "server.sweep.cpu_us_per_query"),
            ("server.tie", "server.tie.cpu_us_per_query"),
        ] {
            let secs = layers.get(layer).copied().unwrap_or(0.0);
            report.put(metric, plain.per_query(secs * 1e6), "us");
        }
        // The generator thread exits inside the window, so the
        // benchmark's share is what the process used beyond the
        // program's (persistent) threads.
        let program: f64 = layers
            .iter()
            .filter(|(layer, _)| **layer != "bench")
            .map(|(_, secs)| secs)
            .sum();
        report.put(
            "bench.cpu_us_per_query",
            plain.per_query((process - program).max(0.0) * 1e6),
            "us",
        );
        if let Some((traced_process, _)) = &w.cpu {
            report.put(
                "trace.overhead.cpu_us_per_query",
                w.per_query(traced_process * 1e6) - plain.per_query(process * 1e6),
                "us",
            );
        }
    }
    report.put("allocs_per_query", w.per_query(w.allocs as f64), "1/query");
    let (a, b) = (sorted(&plain.rec.latencies_ms), sorted(&w.rec.latencies_ms));
    if let (Some(pa), Some(pb)) = (quantile(&a, 0.5), quantile(&b, 0.5)) {
        report.put("trace.overhead.p50_ms", pb.value - pa.value, "ms");
    }
    report.put_quantile("query.p50_ms", &plain.rec.latencies_ms, 0.5, "ms");
    report.put_quantile("query.p99_ms", &plain.rec.latencies_ms, 0.99, "ms");
    report.put_quantile("query.nonservice_ms.p50", &w.rec.nonservice_ms, 0.5, "ms");
    report.put_quantile("query.nonservice_ms.p99", &w.rec.nonservice_ms, 0.99, "ms");
    report.put_quantile("query.p999_ms", &w.rec.latencies_ms, 0.999, "ms");
    report.put_quantile("bench.gen_late_ms.p99", &w.rec.gen_late_ms, 0.99, "ms");
    let rec = &w.rec;
    report.put(
        "query.failed_frac",
        stats::failed_frac(rec.offered, rec.failed, rec.dropped, rec.wrong),
        "1",
    );
    let c = &w.client;
    let reissues = c.reissues as f64;
    report.put(
        "client.reissue_rate",
        ratio(reissues, c.queries as f64),
        "1/query",
    );
    report.put(
        "client.reissue_win_ratio",
        ratio(c.reissue_wins as f64, reissues),
        "1",
    );
    report.put(
        "client.cancel_in_time_ratio",
        ratio(c.cancelled_in_time as f64, reissues),
        "1",
    );
    report.put(
        "client.pairs_censored_ratio",
        ratio(
            c.pairs_censored as f64,
            (c.pairs_exact + c.pairs_censored) as f64,
        ),
        "1",
    );
    report.put(
        "client.decodes_with_parity_ratio",
        ratio(c.decodes_with_parity as f64, c.queries as f64),
        "1",
    );
    report.put(
        "server.tie.retractions_per_reissue",
        ratio(w.server.retractions as f64, reissues),
        "1",
    );
    report.put(
        "server.tie.collapses_per_reissue",
        ratio(w.server.collapses as f64, reissues),
        "1",
    );
}

/// Writes the traced run's spans beside the benchmark, one file per
/// workload (each run replaces the last).
fn write_spans(workload: &str, spans: &Recorder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    let path = dir.join(format!("{workload}.spans.tsv"));
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        spans.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match result {
        Ok(()) => eprintln!(
            "spans: {} written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        KvGet::NAME => run::<KvGet>(&args),
        SinterHedge::NAME => run::<SinterHedge>(&args),
        EcStripe::NAME => run::<EcStripe>(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {} cpus {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, m) in &report.metrics {
        println!("  {name:<40} {:>14.4} {:<8} {}", m.value, m.unit, m.note);
    }
    for v in &report.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = wanted
        .iter()
        .filter_map(|name| {
            report.metrics.get(*name).map(|m| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
        })
        .collect();
    let correct = report.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
