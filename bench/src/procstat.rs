//! Process and host accounting from `/proc`, read before and after the
//! measured phase. CPU time is real time with every modeled sleep excluded.

use std::fs;

/// Linux reports process times in clock ticks of 1/100 s on every
/// configuration this repo targets (`getconf CLK_TCK`).
const TICKS_PER_SEC: f64 = 100.0;

#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnapshot {
    /// User + system CPU seconds of the whole process.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches, summed over live threads.
    pub ctx_switches: u64,
    /// Peak resident set size in MiB (`VmHWM`).
    pub peak_rss_mb: f64,
    /// Host-wide steal and total jiffies (`/proc/stat`).
    pub host_steal: u64,
    pub host_total: u64,
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

pub fn read() -> ProcSnapshot {
    let mut snap = ProcSnapshot::default();
    if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
        // The command name may contain spaces; fields resume after ')'.
        if let Some((_, rest)) = stat.rsplit_once(')') {
            let f: Vec<&str> = rest.split_whitespace().collect();
            // utime and stime are fields 14 and 15 of the full line.
            let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
            snap.cpu_s = (ticks(11) + ticks(12)) / TICKS_PER_SEC;
        }
    }
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                snap.ctx_switches += status_field(&status, "voluntary_ctxt_switches:")
                    + status_field(&status, "nonvoluntary_ctxt_switches:");
            }
        }
    }
    if let Ok(status) = fs::read_to_string("/proc/self/status") {
        snap.peak_rss_mb = status_field(&status, "VmHWM:") as f64 / 1024.0;
    }
    if let Ok(stat) = fs::read_to_string("/proc/stat") {
        if let Some(cpu) = stat.lines().next() {
            let f: Vec<u64> = cpu
                .split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect();
            // user nice system idle iowait irq softirq steal (guest…).
            snap.host_total = f.iter().take(8).sum();
            snap.host_steal = f.get(7).copied().unwrap_or(0);
        }
    }
    snap
}

/// Share of host CPU time the hypervisor took away between two snapshots.
pub fn steal_share(before: &ProcSnapshot, after: &ProcSnapshot) -> f64 {
    let total = after.host_total.saturating_sub(before.host_total);
    after.host_steal.saturating_sub(before.host_steal) as f64 / total.max(1) as f64
}
