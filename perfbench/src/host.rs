//! Host readings taken from `/proc`: process CPU time, peak resident
//! memory, steal time, and the provenance printed with every result.

use std::fs;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, fixed at
/// 100 on Linux for user-visible interfaces).
const USER_HZ: f64 = 100.0;

/// Process user + system CPU seconds so far (all threads).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Machine-wide CPU tick counters from the `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the counters now (zeros when `/proc/stat` is unreadable).
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let vals: Vec<u64> = stat
            .lines()
            .find(|l| l.starts_with("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so it is not re-added.
        CpuTicks {
            total: vals.iter().take(8).sum(),
            steal: vals.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU capacity stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Online CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|v| v.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}
