//! CPU attribution from the OS's per-thread accounting.
//!
//! Every thread the serving stack starts carries a name that says
//! which layer it belongs to (`hedge-worker-*`, `hedge-conn-*`,
//! `kv-conn-reader`, …). Reading `/proc/self/task/*/{comm,stat}`
//! before and after a window and grouping the deltas by name prefix
//! splits the process's CPU across layers without touching the
//! program. Off Linux there is no such accounting: [`snapshot`]
//! returns `None` and the metrics are left out, never reported as 0.

use std::collections::BTreeMap;

/// Clock ticks per second of `utime`/`stime` (`USER_HZ`, fixed at 100
/// by the Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// Thread-name prefixes and the layer each belongs to. The kernel
/// keeps at most 15 bytes of a name, so only the stable prefix of
/// address-suffixed names is matched.
const LAYERS: &[(&str, &str)] = &[
    ("hedge-worker-", "rt"),
    ("hedge-conn-", "transport"),
    ("kv-conn-reader", "server.reader"),
    ("kv-sweep-", "server.sweep"),
    ("kv-tie-", "server.tie"),
    ("kv-accept-", "server.accept"),
    ("bench-", "bench"),
    ("perfbench", "bench"),
];

/// The layer a thread belongs to, from its name.
pub fn layer_of(comm: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map_or("other", |&(_, layer)| layer)
}

/// `utime + stime` in ticks from one `/proc/.../stat` line. The name
/// field may hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Per-thread and whole-process CPU at one instant.
#[derive(Clone, Debug)]
pub struct CpuSnapshot {
    /// Thread id → (layer, ticks).
    threads: BTreeMap<u32, (&'static str, u64)>,
    /// Ticks of the whole process, exited threads included.
    process: u64,
}

/// Reads the process's CPU accounting, or `None` where `/proc` does
/// not provide it.
pub fn snapshot() -> Option<CpuSnapshot> {
    let process = parse_stat_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)?;
    let mut threads = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let Ok(entry) = entry else { continue };
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        // A thread may exit between listing and reading: skip it.
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(entry.path().join("comm")),
            std::fs::read_to_string(entry.path().join("stat")),
        ) else {
            continue;
        };
        if let Some(ticks) = parse_stat_ticks(&stat) {
            threads.insert(tid, (layer_of(comm.trim_end()), ticks));
        }
    }
    Some(CpuSnapshot { threads, process })
}

impl CpuSnapshot {
    /// Whole-process CPU seconds between `self` and a later snapshot.
    pub fn process_secs_until(&self, later: &CpuSnapshot) -> f64 {
        later.process.saturating_sub(self.process) as f64 / TICKS_PER_SEC
    }

    /// CPU seconds per layer between `self` and a later snapshot.
    /// Threads born inside the window count from zero; threads that
    /// exited inside it are lost here (the process total keeps them).
    pub fn layer_secs_until(&self, later: &CpuSnapshot) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (tid, &(layer, ticks)) in &later.threads {
            let before = self.threads.get(tid).map_or(0, |&(_, t)| t);
            *out.entry(layer).or_insert(0.0) += ticks.saturating_sub(before) as f64 / TICKS_PER_SEC;
        }
        out
    }
}

/// Host-wide `(steal, total)` CPU ticks so far, from `/proc/stat`:
/// time the hypervisor withheld from this machine's CPUs.
pub fn host_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size in MiB (`VmHWM`), where `/proc` has it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_names_group_by_prefix() {
        assert_eq!(layer_of("hedge-worker-1"), "rt");
        assert_eq!(layer_of("hedge-conn-127."), "transport");
        assert_eq!(layer_of("kv-conn-reader"), "server.reader");
        assert_eq!(layer_of("kv-sweep-127.0."), "server.sweep");
        assert_eq!(layer_of("kv-tie-127.0.0."), "server.tie");
        assert_eq!(layer_of("kv-accept-127.0"), "server.accept");
        assert_eq!(layer_of("bench-gen"), "bench");
        assert_eq!(layer_of("perfbench"), "bench");
        assert_eq!(layer_of("kv-conn"), "other");
        assert_eq!(layer_of(""), "other");
    }

    #[test]
    fn stat_ticks_survive_odd_names() {
        let line = "4242 (kv-sweep-1) x) S 1 2 3 4 5 6 7 8 9 10 250 31 0 0 20 0 9 0";
        assert_eq!(parse_stat_ticks(line), Some(281));
        assert_eq!(parse_stat_ticks("12 (cut) S 1 2"), None);
        assert_eq!(parse_stat_ticks("no parens at all"), None);
    }

    #[test]
    fn deltas_group_by_layer_and_count_new_threads_from_zero() {
        let before = CpuSnapshot {
            threads: BTreeMap::from([(1, ("rt", 100)), (2, ("rt", 50)), (3, ("transport", 7))]),
            process: 1000,
        };
        let after = CpuSnapshot {
            threads: BTreeMap::from([
                (1, ("rt", 150)),
                (2, ("rt", 60)),
                (4, ("server.reader", 20)),
            ]),
            process: 1100,
        };
        let d = before.layer_secs_until(&after);
        assert_eq!(d.get("rt"), Some(&0.6));
        assert_eq!(d.get("server.reader"), Some(&0.2));
        assert_eq!(d.get("transport"), None);
        assert_eq!(before.process_secs_until(&after), 1.0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_snapshot_sees_this_thread() {
        let s = snapshot().expect("linux has /proc");
        assert!(!s.threads.is_empty());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
