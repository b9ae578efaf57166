//! The disk cost model: what makes cold reads expensive.
//!
//! Block reads in the real Galileo hit spinning disks (1 TB drives in the
//! paper's testbed, §VIII-A). Here every read charges `seek + bytes /
//! bandwidth` of real wall-clock time in the *reading node's* thread — disk
//! time occupies the node, unlike wire time, which matches reality: a node
//! mid-read cannot serve other work on that thread.
//!
//! How the charges of one multi-block fetch add up is [`Lanes`]: reads are
//! sequential on the node's one spindle, aggregation is sequential on one
//! modeled CPU, and the two overlap the way read-ahead overlaps them on a
//! real node. Every system in the workspace that pays a disk (the STASH and
//! Basic stores, the `stash-elastic` baseline) bills through it.

use stash_obs::{sleep_until, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Seek/transfer cost model for one simulated drive.
#[derive(Debug, Clone)]
pub struct DiskModel {
    /// Per-read positioning cost.
    pub seek: Duration,
    /// Sequential transfer rate in bytes per second.
    pub bytes_per_sec: f64,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            // Scaled-down disk (see DESIGN.md §2): experiments compare
            // systems under identical cost models, so only the disk:network
            // cost ratio matters, not absolute magnitudes.
            seek: Duration::from_micros(800),
            bytes_per_sec: 150.0e6,
        }
    }
}

impl DiskModel {
    /// A zero-cost model, for tests that need to isolate CPU work.
    pub fn free() -> Self {
        DiskModel {
            seek: Duration::ZERO,
            bytes_per_sec: f64::INFINITY,
        }
    }

    /// Wall-clock cost of reading one block of `bytes`.
    pub fn read_cost(&self, bytes: usize) -> Duration {
        self.seek + Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// The virtual-time schedule of one block fetch (DESIGN.md §2b): two lanes
/// that run beside each other.
///
/// * The **spindle lane** — one disk per node, strictly sequential. Block
///   *i* is ready at `ready[i-1] + read_cost(i)`; [`Lanes::read`] sleeps
///   the calling thread to that *absolute* deadline, so wake-up slop does
///   not add up over a long plan and real work done between two reads (a
///   single-threaded caller aggregating block *i*) is time the disk spent
///   reading ahead.
/// * The **modeled scan lane** — one modeled CPU. The charge for block *i*
///   starts when the previous charge has ended *and* block *i*'s real scan
///   has finished; [`Lanes::end`] sleeps until the last charge ends.
///
/// Σ disk and Σ scan charged are exactly what a serial bill would charge;
/// only the *wall* shrinks, by what a real node overlaps. With nothing to
/// charge neither lane ever sleeps.
#[derive(Debug)]
pub struct Lanes {
    start: Instant,
    disk_free: Instant,
    scan_free: Instant,
    disk: Duration,
    scan: Duration,
}

/// What one fetch was billed and what it took ([`Lanes::end`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneBill {
    /// Σ read costs charged on the spindle lane.
    pub disk: Duration,
    /// Σ aggregation costs charged on the modeled scan lane.
    pub scan: Duration,
    /// Wall-clock time from [`Lanes::begin`] to the end of the last charge.
    pub wall: Duration,
}

impl Lanes {
    pub fn begin() -> Self {
        let start = Instant::now();
        Lanes {
            start,
            disk_free: start,
            scan_free: start,
            disk: Duration::ZERO,
            scan: Duration::ZERO,
        }
    }

    /// Spindle lane: charge one read behind the reads before it and sleep
    /// until the disk has finished it. A zero cost (a cached block, a free
    /// disk) leaves the lane untouched.
    pub fn read(&mut self, cost: Duration) {
        if cost.is_zero() {
            return;
        }
        self.disk += cost;
        self.disk_free += cost;
        sleep_until(self.disk_free);
    }

    /// Modeled scan lane: charge `cost` for a block whose real scan ended at
    /// `finished`. Call in plan order; nothing sleeps until [`Lanes::end`].
    pub fn scan(&mut self, finished: Instant, cost: Duration) {
        self.scan += cost;
        self.scan_free = self.scan_free.max(finished) + cost;
    }

    /// Sleep until the last scan charge has ended and hand back the bill.
    pub fn end(self) -> LaneBill {
        sleep_until(self.scan_free);
        LaneBill {
            disk: self.disk,
            scan: self.scan,
            wall: self.start.elapsed(),
        }
    }
}

impl LaneBill {
    /// Add the bill to a node's registry: `dfs.charge.disk_ns` and
    /// `dfs.charge.scan_ns` are what the *model* billed, `dfs.fetch.wall_ns`
    /// what the fetches took — real and modeled time side by side.
    pub fn record(&self, metrics: &MetricsRegistry) {
        let ns = |d: Duration| d.as_nanos() as u64;
        metrics.counter("dfs.charge.disk_ns").add(ns(self.disk));
        metrics.counter("dfs.charge.scan_ns").add(ns(self.scan));
        metrics.counter("dfs.fetch.wall_ns").add(ns(self.wall));
    }
}

/// Per-store disk counters (relaxed atomics; monitoring only).
#[derive(Debug, Default)]
pub struct DiskStats {
    reads: AtomicU64,
    bytes: AtomicU64,
}

impl DiskStats {
    pub fn record_read(&self, bytes: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Number of block reads charged.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Total bytes charged.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// What the timing tests of this crate share.
#[cfg(test)]
pub(crate) mod timing {
    use std::time::Duration;

    pub(crate) const MS: Duration = Duration::from_millis(1);
    /// Timer and scheduler slop allowed on top of a schedule's exact length.
    pub(crate) const SLACK: Duration = Duration::from_millis(6);

    /// A schedule's length is asserted from below on every run — a sleep
    /// cannot end early — and from above on the best of a few: tests run
    /// beside each other and a busy host only ever adds time. Returns the
    /// first wall under `upper`.
    pub(crate) fn within(upper: Duration, attempt: impl Fn() -> Duration) -> Duration {
        let mut walls = Vec::new();
        for _ in 0..5 {
            let wall = attempt();
            if wall < upper {
                return wall;
            }
            walls.push(wall);
        }
        panic!("{walls:?}: never under {upper:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::timing::{within, MS, SLACK};
    use super::*;

    #[test]
    fn read_cost_combines_seek_and_transfer() {
        let m = DiskModel {
            seek: Duration::from_millis(2),
            bytes_per_sec: 1e6,
        };
        // 1 MB at 1 MB/s = 1 s + 2 ms seek.
        let c = m.read_cost(1_000_000);
        assert!(c >= Duration::from_millis(1001) && c <= Duration::from_millis(1005));
        assert_eq!(m.read_cost(0), Duration::from_millis(2));
    }

    #[test]
    fn free_model_costs_nothing_and_never_sleeps() {
        let m = DiskModel::free();
        assert_eq!(m.read_cost(usize::MAX / 2), Duration::ZERO);
        let mut lanes = Lanes::begin();
        for _ in 0..1000 {
            lanes.read(m.read_cost(1 << 30));
            lanes.scan(Instant::now(), Duration::ZERO);
        }
        let bill = lanes.end();
        assert_eq!((bill.disk, bill.scan), (Duration::ZERO, Duration::ZERO));
        assert!(bill.wall < 50 * MS, "{:?}", bill.wall);
    }

    /// One block costs its read plus its scan; over many, a disk-bound
    /// fetch costs Σ disk plus the last block's scan and a scan-bound one
    /// the first block's read plus Σ scan — never the serial Σ disk + Σ scan.
    #[test]
    fn lanes_overlap_reads_and_scans() {
        for (n, disk, scan, wall) in [
            (1, 15 * MS, 6 * MS, 21 * MS),
            (8, 5 * MS, 2 * MS, 42 * MS),
            (8, MS, 4 * MS, 33 * MS),
        ] {
            within(wall + SLACK, || {
                let mut lanes = Lanes::begin();
                for _ in 0..n {
                    lanes.read(disk);
                    lanes.scan(Instant::now(), scan);
                }
                let bill = lanes.end();
                assert_eq!((bill.disk, bill.scan), (disk * n, scan * n));
                assert!(bill.wall >= wall, "{:?} vs {wall:?}", bill.wall);
                bill.wall
            });
        }
    }

    #[test]
    fn bill_lands_in_the_registry() {
        let metrics = MetricsRegistry::new();
        let bill = LaneBill {
            disk: 3 * MS,
            scan: 2 * MS,
            wall: 4 * MS,
        };
        bill.record(&metrics);
        bill.record(&metrics);
        assert_eq!(metrics.counter("dfs.charge.disk_ns").get(), 6_000_000);
        assert_eq!(metrics.counter("dfs.charge.scan_ns").get(), 4_000_000);
        assert_eq!(metrics.counter("dfs.fetch.wall_ns").get(), 8_000_000);
    }

    #[test]
    fn stats_accumulate_across_threads() {
        let stats = std::sync::Arc::new(DiskStats::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&stats);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.record_read(10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.reads(), 400);
        assert_eq!(stats.bytes(), 4000);
    }
}
