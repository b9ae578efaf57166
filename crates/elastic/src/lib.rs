//! # stash-elastic
//!
//! An ElasticSearch-*like* baseline engine, reproducing the comparison
//! system of the paper's §VIII-F on the same simulated fabric and dataset.
//!
//! What is modeled (and why it is what the paper measured):
//!
//! * **Hash-sharded index** — documents are routed to shards by hash, not
//!   by geography (ES's default `_id` routing). Every search therefore
//!   scatter-gathers **all** shards; there is no geospatial data locality.
//!   (The paper: "the index was split into 600 shards" across 120 data
//!   nodes.)
//! * **Shard request cache** — per node, keyed by the *exact* query. This
//!   is the crucial semantic difference from STASH: an identical repeated
//!   query hits, but a panned / diced / zoomed query — however much it
//!   overlaps — recomputes its aggregations from raw documents. That is
//!   why ES's latency "improves slightly" (−2 %…−0.6 %) under panning
//!   while STASH improves 49–70 % (Fig. 8a).
//! * **Field-data cache** — per node LRU over block columns: after a block
//!   is first read from disk its values stay in memory, so repeated
//!   *disk* cost fades while *aggregation* cost remains. ("Three types of
//!   caches … stored the query results, aggregations, and field values.")
//!
//! The engine is booted from the same [`stash_cluster::ClusterConfig`] a
//! STASH deployment boots from, so the substrate is shared by construction:
//! node count and worker tiers, network fabric (each node receives through a
//! port that completes reply slots and parks searches on its tiers, as a
//! STASH node does), disk model, scan cost, dataset generator (read through
//! [`stash_cluster::GenBlockSource`]) and fetch schedule
//! ([`stash_dfs::Lanes`]: the disk reads ahead while a block is collected).
//! Fig. 8's comparisons vary only the middleware.

pub mod cluster;
pub mod lru;
pub mod shard;

pub use cluster::{EsClient, EsSimCluster};
pub use lru::LruCache;
pub use shard::{query_fingerprint, ShardStats};
