//! STASH vs the ElasticSearch-like baseline (paper §VIII-F, Fig. 8): the
//! same panning stream on both engines, booted from one `ClusterConfig`:
//! the same dataset, disk, scan-cost and network models.
//!
//! ES's request cache only helps byte-identical queries, so overlapping
//! pans barely improve; STASH reuses the shared Cells and drops steeply
//! from the second query onward.
//!
//! Run with:
//! ```sh
//! cargo run --release --example elasticsearch_comparison
//! ```

use stash::cluster::{ClusterConfig, SimCluster};
use stash::data::{WorkloadConfig, WorkloadGen};
use stash::elastic::EsSimCluster;
use stash::geo::BBox;
use stash::model::AggQuery;
use std::time::Instant;

fn time_stream<F: FnMut(&AggQuery)>(queries: &[AggQuery], mut run: F) -> Vec<f64> {
    queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            run(q);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn main() {
    println!("booting STASH and ElasticSearch-like clusters…\n");
    let config = ClusterConfig::default();
    let stash_cluster = SimCluster::new(config.clone());
    let es_cluster = EsSimCluster::new(config).expect("a sealed dataset");
    let stash_client = stash_cluster.client();
    let es_client = es_cluster.client();

    let workload = WorkloadGen::new(WorkloadConfig::default());
    let start = BBox::from_corner_extent(36.0, -104.0, 4.0, 8.0); // state-sized

    // The Fig. 8a stream: a state query, then 8 pans of 20% around it.
    let stream = workload.pan_star(start, 0.20);

    let stash_ms = time_stream(&stream, |q| {
        stash_client.query(q).run().expect("stash query");
    });
    let es_ms = time_stream(&stream, |q| {
        es_client.query(q).expect("es query");
    });

    println!(
        "{:<22} {:>12} {:>12}",
        "interaction", "STASH (ms)", "ES-like (ms)"
    );
    let labels = ["initial state view".to_string()]
        .into_iter()
        .chain((1..stream.len()).map(|i| format!("pan 20% direction {i}")));
    for ((label, s), e) in labels.zip(&stash_ms).zip(&es_ms) {
        println!("{label:<22} {s:>12.2} {e:>12.2}");
    }

    let drop =
        |ms: &[f64]| (1.0 - ms[1..].iter().cloned().fold(f64::INFINITY, f64::min) / ms[0]) * 100.0;
    println!(
        "\nbest latency reduction vs first query:  STASH {:.1}%   ES {:.1}%",
        drop(&stash_ms),
        drop(&es_ms)
    );
    println!("(paper Fig. 8a: STASH between ~49.7% and ~70%, ES between ~0.6% and ~2%)");

    stash_cluster.shutdown();
    es_cluster.shutdown();
}
