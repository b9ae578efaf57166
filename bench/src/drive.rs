//! Set-up and the closed-loop measured phase shared by every workload.

use crate::shape::{self, Workload, CLIENTS};
use crate::workloads::Plan;
use stash_cluster::{ClusterClient, SimCluster};
use stash_model::{AggQuery, CellKey, QueryResult};
use stash_obs::QueryTrace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One answer reduced to what the oracle comparison needs: per-Cell exact
/// statistics as raw bits, plus estimator outputs when Cells carry
/// sketches. (A sketched state answer is megabytes; its digest is not.)
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// Non-empty Cells sorted by key; per attribute
    /// `[count, min, max, sum, sum_sq]` bit patterns.
    pub cells: Vec<(CellKey, Vec<[u64; 5]>)>,
    /// `[p50, p99, distinct]` of attribute 0 as bit patterns.
    pub estimates: Option<[u64; 3]>,
}

impl Digest {
    pub fn of(r: &QueryResult) -> Digest {
        let mut cells: Vec<(CellKey, Vec<[u64; 5]>)> = r
            .cells
            .iter()
            .filter(|c| !c.summary.is_empty())
            .map(|c| {
                let attrs = c
                    .summary
                    .attrs()
                    .iter()
                    .map(|s| {
                        [
                            s.count,
                            s.min().map_or(0, f64::to_bits),
                            s.max().map_or(0, f64::to_bits),
                            s.sum.to_bits(),
                            s.sum_sq.to_bits(),
                        ]
                    })
                    .collect();
                (c.key, attrs)
            })
            .collect();
        cells.sort_unstable_by_key(|(k, _)| *k);
        let estimates = match (r.quantile(0, 0.5), r.quantile(0, 0.99), r.distinct(0)) {
            (Some(p50), Some(p99), Some(d)) => {
                Some([p50.value.to_bits(), p99.value.to_bits(), d.count.to_bits()])
            }
            _ => None,
        };
        Digest { cells, estimates }
    }
}

/// A sampled measured answer, kept for the oracle.
pub struct Sample {
    pub query: AggQuery,
    pub digest: Digest,
}

/// What one client recorded.
#[derive(Default)]
pub struct ClientLog {
    /// Latency of every request in issue order; `u64::MAX` marks a failed
    /// request, which therefore exceeds any latency limit.
    pub lat_ns: Vec<u64>,
    /// Completion time of every request since the measured phase started.
    pub done_ns: Vec<u64>,
    /// Index into the lane of every request (for per-viewport checks).
    pub positions: Vec<u32>,
    /// `total_count` of every answer (0 for failed requests).
    pub counts: Vec<u64>,
    pub errors: u64,
    pub cache_hits: u64,
    pub derived_hits: u64,
    pub misses: u64,
    pub rollup_hits: u64,
    pub samples: Vec<Sample>,
    /// `(client-observed ns, coordinator trace)` of traced requests.
    pub traces: Vec<(u64, QueryTrace)>,
    /// The lane ran out before the stop signal (non-cyclic plans only).
    pub exhausted: bool,
}

pub struct RunOptions {
    /// Keep the digest of every `sample_every`-th answer per client.
    pub sample_every: usize,
    /// Every second request goes through `.traced().run()` (see
    /// [`goes_traced`]), so the traced pass measures its own overhead on
    /// paired requests.
    pub traced: bool,
}

/// In a traced pass, is the `i`-th request of a lane traced? Alternates,
/// and flips on every lap of a wrapping lane so that each list position is
/// traced on every second lap whatever the parity of the list length.
pub fn goes_traced(i: usize, lane_len: usize) -> bool {
    (i + i / lane_len) % 2 == 1
}

fn client_loop(
    client: ClusterClient,
    lane: &[AggQuery],
    cyclic: bool,
    t0: Instant,
    stop: &AtomicBool,
    opts: &RunOptions,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        if i == lane.len() && !cyclic {
            log.exhausted = true;
            break;
        }
        let pos = i % lane.len();
        let q = &lane[pos];
        let traced = opts.traced && goes_traced(i, lane.len());
        let t = Instant::now();
        let outcome = if traced {
            client
                .query(q)
                .traced()
                .run()
                .map(|(r, trace)| (r, Some(trace)))
        } else {
            client.query(q).run().map(|r| (r, None))
        };
        let ns = t.elapsed().as_nanos() as u64;
        log.done_ns.push(t0.elapsed().as_nanos() as u64);
        log.positions.push(pos as u32);
        match outcome {
            Ok((r, trace)) => {
                log.lat_ns.push(ns);
                log.counts.push(r.total_count());
                log.cache_hits += r.cache_hits as u64;
                log.derived_hits += r.derived_hits as u64;
                log.misses += r.misses as u64;
                log.rollup_hits += r.rollup_hits as u64;
                if let Some(trace) = trace {
                    log.traces.push((ns, trace));
                }
                if i.is_multiple_of(opts.sample_every) {
                    log.samples.push(Sample {
                        query: q.clone(),
                        digest: Digest::of(&r),
                    });
                }
            }
            Err(e) => {
                eprintln!("perf: query failed: {e} ({q})");
                log.lat_ns.push(u64::MAX);
                log.counts.push(0);
                log.errors += 1;
            }
        }
        i += 1;
    }
    log
}

/// Drive one closed-loop client per lane until `stop` is set. `beside`
/// runs on the calling thread meanwhile (the timer, or the ingest
/// producer) and must set `stop` before it returns.
pub fn run_clients<R>(
    cluster: &SimCluster,
    plan: &Plan,
    stop: &AtomicBool,
    opts: &RunOptions,
    beside: impl FnOnce() -> R,
) -> (Vec<ClientLog>, R) {
    std::thread::scope(|s| {
        let t0 = Instant::now();
        let handles: Vec<_> = plan
            .lanes
            .iter()
            .map(|lane| {
                let client = cluster.client();
                s.spawn(move || client_loop(client, lane, plan.cyclic, t0, stop, opts))
            })
            .collect();
        let r = beside();
        assert!(
            stop.load(Ordering::Relaxed),
            "beside() must stop the clients"
        );
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, r)
    })
}

/// Sleep until `seconds` have passed, then stop the clients.
pub fn timer(seconds: f64, stop: &AtomicBool) {
    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
}

/// Build the workload's cluster and run its warm-up pass. Returns the
/// cluster, the set-up wall time and the number of failed warm-up queries.
pub fn setup(workload: Workload, seed: u64, plan: &Plan) -> (SimCluster, f64, u64) {
    let t0 = Instant::now();
    let cluster = SimCluster::new(shape::cluster_config(workload, seed));
    // The warm-up pass is split across as many threads as the measured
    // phase has clients; every thread joins before the clock stops.
    let failed: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = cluster.client();
                let warm = &plan.warm;
                s.spawn(move || {
                    warm.iter()
                        .skip(c)
                        .step_by(CLIENTS)
                        .filter(|q| client.query(q).run().is_err())
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .sum()
    });
    (cluster, t0.elapsed().as_secs_f64(), failed)
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(p/100 · n)` (1-based). `p` in (0, 100].
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0).expect("median of a non-empty sample")
}

/// `u64::MAX` (a failed request) reads as infinity.
pub fn ns_to_ms(ns: u64) -> f64 {
    if ns == u64::MAX {
        f64::INFINITY
    } else {
        ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.5), Some(1));
        let w = [10, 20, 30];
        assert_eq!(percentile(&w, 50.0), Some(20));
        assert_eq!(percentile(&w, 99.0), Some(30));
        assert_eq!(percentile::<u32>(&[], 50.0), None);
    }

    #[test]
    fn failed_requests_exceed_any_limit() {
        let mut lat = vec![1_000_000, u64::MAX, 2_000_000];
        lat.sort_unstable();
        assert!(ns_to_ms(percentile(&lat, 99.0).unwrap()).is_infinite());
        assert_eq!(ns_to_ms(percentile(&lat, 50.0).unwrap()), 2.0);
    }
}
