//! Sustained warm-path load: the "heavy traffic" half of the north star.
//!
//! A fixed set of viewports is warmed once, then a closed-loop multi-client
//! harness drives a large request stream (the acceptance run uses 10⁵)
//! round-robin over the warm set, measuring every request's latency. (PR 9
//! repeated it per delivery-shard count; the fabric has had no delivery
//! threads since PR 24, so there is one leg.)

use crate::harness::Scale;
use crate::report::Table;
use stash_cluster::SimCluster;
use stash_model::AggQuery;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What one sustained-load leg delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub requests: usize,
    pub secs: f64,
    pub rps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
}

/// Percentile of an unsorted latency sample (nearest-rank on the sorted
/// data; `p` in [0, 100]).
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Drive `requests` queries round-robin over `queries` from `clients`
/// closed-loop clients, recording every request's latency. Returns total
/// seconds and the per-request latencies in milliseconds (unordered).
pub fn drive_sustained(
    cluster: &SimCluster,
    queries: Arc<Vec<AggQuery>>,
    requests: usize,
    clients: usize,
) -> (f64, Vec<f64>) {
    assert!(!queries.is_empty() && requests > 0 && clients > 0);
    let next = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let client = cluster.client();
            let queries = Arc::clone(&queries);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                // Per-thread latency buffers: the measurement must not add
                // a shared lock to the very path it measures.
                let mut lats = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        return lats;
                    }
                    let q = &queries[i % queries.len()];
                    let t = Instant::now();
                    client.query(q).run().expect("sustained query");
                    lats.push(t.elapsed().as_secs_f64() * 1e3);
                }
            })
        })
        .collect();
    let mut lats = Vec::with_capacity(requests);
    for h in handles {
        lats.extend(h.join().expect("sustained client"));
    }
    (t0.elapsed().as_secs_f64(), lats)
}

/// Run the sustained leg: build a STASH cluster, warm `distinct` viewports,
/// then drive `requests` closed-loop queries and report the distribution.
pub fn run_leg(scale: &Scale, requests: usize, distinct: usize) -> Row {
    let cluster = scale.stash_cluster();
    let wl = scale.workload();
    let mut rng = scale.rng();
    let queries: Vec<AggQuery> = (0..distinct.max(1))
        .map(|_| wl.random_query(&mut rng, stash_data::QuerySizeClass::County))
        .collect();
    // Warm pass: every viewport's Cells become graph-resident, so the
    // measured phase is the warm path the paper's sustained dashboards hit.
    let warm = cluster.client();
    for q in &queries {
        warm.query(q).run().expect("warm-up");
    }
    let (secs, mut lats) = drive_sustained(&cluster, Arc::new(queries), requests, scale.clients);
    cluster.shutdown();
    lats.sort_by(|a, b| a.total_cmp(b));
    Row {
        requests,
        secs,
        rps: requests as f64 / secs,
        p50_ms: percentile(&lats, 50.0),
        p95_ms: percentile(&lats, 95.0),
        p99_ms: percentile(&lats, 99.0),
    }
}

pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Sustained warm-path load — closed-loop clients",
        &[
            "requests", "secs", "req/s", "p50 (ms)", "p95 (ms)", "p99 (ms)",
        ],
    )
    .with_note("one warm viewport set, replayed round-robin");
    for r in rows {
        t.push(vec![
            r.requests.to_string(),
            format!("{:.2}", r.secs),
            format!("{:.0}", r.rps),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p95_ms),
            format!("{:.2}", r.p99_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn sustained_leg_reports_a_full_distribution() {
        let mut scale = Scale::small();
        scale.n_nodes = 2;
        scale.clients = 8;
        let row = run_leg(&scale, 64, 4);
        assert_eq!(row.requests, 64);
        assert!(row.rps > 0.0);
        assert!(row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms);
        let t = table(&[row]);
        assert_eq!(t.rows.len(), 1);
    }
}
