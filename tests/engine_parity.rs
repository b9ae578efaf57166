//! Parity tests: STASH, the basic system, and the ElasticSearch-like
//! baseline must all report identical aggregates over identical data —
//! the precondition for every latency comparison in Fig. 6 and Fig. 8.

use proptest::prelude::*;
use stash::cluster::{ClusterConfig, Mode, SimCluster};
use stash::data::GeneratorConfig;
use stash::dfs::DiskModel;
use stash::elastic::EsSimCluster;
use stash::geo::{BBox, TemporalRes, TimeRange};
use stash::model::AggQuery;

fn generator() -> GeneratorConfig {
    GeneratorConfig {
        seed: 404,
        obs_per_deg2_per_day: 40.0,
        max_obs_per_block: 50_000,
        value_quantum: 0.0,
    }
}

/// The one deployment every engine here boots from.
fn config() -> ClusterConfig {
    ClusterConfig::builder()
        .n_nodes(3)
        .disk(DiskModel::free())
        .generator(generator())
        .scan_cost_per_obs(std::time::Duration::ZERO)
        .cell_service_cost(std::time::Duration::ZERO)
        .build()
        .expect("parity test config is valid")
}

fn stash_cluster(config: &ClusterConfig, mode: Mode) -> SimCluster {
    SimCluster::new(ClusterConfig {
        mode,
        ..config.clone()
    })
}

#[test]
fn three_engines_agree_on_a_query_set() {
    let config = config();
    let basic = stash_cluster(&config, Mode::Basic);
    let stash = stash_cluster(&config, Mode::Stash);
    let es = EsSimCluster::new(config).expect("a sealed dataset");
    let (bc, sc, ec) = (basic.client(), stash.client(), es.client());

    let queries = [
        AggQuery::new(
            BBox::from_corner_extent(38.0, -105.0, 0.6, 1.2),
            TimeRange::whole_day(2015, 2, 2),
            4,
            TemporalRes::Day,
        ),
        AggQuery::new(
            BBox::from_corner_extent(35.0, -110.0, 4.0, 8.0),
            TimeRange::whole_day(2015, 2, 2),
            3,
            TemporalRes::Day,
        ),
        AggQuery::new(
            BBox::from_corner_extent(42.0, -95.0, 1.0, 1.0),
            TimeRange::whole_day(2015, 7, 15),
            4,
            TemporalRes::Hour,
        ),
    ];
    for (i, q) in queries.iter().enumerate() {
        let rb = bc.query(q).run().expect("basic");
        let rs = sc.query(q).run().expect("stash");
        let re = ec.query(q).expect("es");
        assert!(rb.total_count() > 0, "query {i} found no data");
        assert_eq!(rb.total_count(), rs.total_count(), "query {i}: stash count");
        assert_eq!(rb.total_count(), re.total_count(), "query {i}: es count");
        assert_eq!(rb.cells.len(), rs.cells.len(), "query {i}: stash cells");
        assert_eq!(rb.cells.len(), re.cells.len(), "query {i}: es cells");
        for ((cb, cs), ce) in rb.cells.iter().zip(&rs.cells).zip(&re.cells) {
            assert_eq!(cb.key, cs.key);
            assert_eq!(cb.key, ce.key);
            for a in 0..cb.summary.n_attrs() {
                assert_eq!(
                    cb.summary.attr(a).unwrap().min(),
                    cs.summary.attr(a).unwrap().min()
                );
                assert_eq!(
                    cb.summary.attr(a).unwrap().min(),
                    ce.summary.attr(a).unwrap().min()
                );
                assert_eq!(
                    cb.summary.attr(a).unwrap().max(),
                    ce.summary.attr(a).unwrap().max()
                );
            }
        }
    }
    basic.shutdown();
    stash.shutdown();
    es.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs real cluster queries; keep the count low
        .. ProptestConfig::default()
    })]

    /// Random queries: STASH (cold then warm) must equal the basic system.
    #[test]
    fn stash_matches_basic_on_random_queries(
        lat in 25.0f64..50.0,
        lon in -125.0f64..-70.0,
        dlat in 0.3f64..3.0,
        dlon in 0.3f64..3.0,
        res in 2u8..=4,
    ) {
        let config = config();
        let basic = stash_cluster(&config, Mode::Basic);
        let stash = stash_cluster(&config, Mode::Stash);
        let q = AggQuery::new(
            BBox::from_corner_extent(lat, lon, dlat, dlon),
            TimeRange::whole_day(2015, 2, 2),
            res,
            TemporalRes::Day,
        );
        let truth = basic.client().query(&q).run().expect("basic");
        let sc = stash.client();
        let cold = sc.query(&q).run().expect("cold");
        let warm = sc.query(&q).run().expect("warm");
        prop_assert_eq!(truth.total_count(), cold.total_count());
        prop_assert_eq!(truth.total_count(), warm.total_count());
        prop_assert_eq!(truth.cells.len(), warm.cells.len());
        prop_assert_eq!(warm.misses, 0);
        basic.shutdown();
        stash.shutdown();
    }
}
