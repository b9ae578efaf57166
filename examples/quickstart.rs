//! Quickstart: boot a simulated STASH deployment, run one visual query
//! cold and warm, and print the JSON a front-end would render.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stash::cluster::{ClusterConfig, SimCluster};
use stash::geo::{BBox, TemporalRes, TimeRange};
use stash::model::{AggFunc, AggQuery};
use std::time::Instant;

fn main() {
    // An 8-node cluster with default (scaled-down) disk and network cost
    // models; the dataset is the deterministic synthetic NAM stand-in.
    println!("booting 8-node STASH cluster…");
    let cluster = SimCluster::new(ClusterConfig::default());
    let client = cluster.client();

    // A county-sized query (paper query class: 0.6° x 1.2°) over one day,
    // rendered at geohash resolution 4, daily bins.
    let query = AggQuery::new(
        BBox::from_corner_extent(38.0, -105.5, 0.6, 1.2), // around Boulder, CO
        TimeRange::whole_day(2015, 2, 2),
        4,
        TemporalRes::Day,
    );

    let t0 = Instant::now();
    let cold = client.query(&query).run().expect("cold query");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let warm = client.query(&query).run().expect("warm query");
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;

    println!("\nquery: {query}");
    println!(
        "cold: {cold_ms:>8.2} ms   ({} cells, {} observations, {} fetched from storage)",
        cold.cells.len(),
        cold.total_count(),
        cold.misses
    );
    println!(
        "warm: {warm_ms:>8.2} ms   ({} cells, {} cache hits, hit ratio {:.0}%)",
        warm.cells.len(),
        warm.cache_hits,
        warm.hit_ratio() * 100.0
    );
    println!("speedup: {:.1}x", cold_ms / warm_ms.max(1e-9));

    // What the Grafana WorldMap panel would receive: per-cell aggregates.
    let series = warm.series(0, AggFunc::Mean); // attribute 0 = temperature
    println!("\nmean surface temperature per cell (JSON):");
    let rows: Vec<serde_json::Value> = series
        .iter()
        .map(|(key, value)| {
            let (lat, lon) = key.geohash.center();
            serde_json::json!({
                "geohash": key.geohash.to_string(),
                "time": key.time.to_string(),
                "lat": (lat * 1000.0).round() / 1000.0,
                "lon": (lon * 1000.0).round() / 1000.0,
                "mean_temp_c": (value * 100.0).round() / 100.0,
            })
        })
        .collect();
    let rows = serde_json::Value::Array(rows);
    println!("{}", serde_json::to_string_pretty(&rows).unwrap());

    cluster.shutdown();
}
