//! The paper's proposed future work (§IX-A), implemented:
//!
//! 1. **A smaller-capacity STASH graph at the front-end** — "can greatly
//!    reduce latency in case users tend to browse a narrow spatiotemporal
//!    region, thus reducing the number of queries needed to be evaluated
//!    at the back-end." [`CachingClient`] keeps a client-side
//!    [`StashGraph`]; fully-cached interactions never touch the cluster,
//!    and partially-cached ones ship only the *missing* Cells' subqueries.
//! 2. **Prefetching from a predicted access pattern** — "constructing
//!    prefetching queries that augment regions the model predicts would be
//!    of interest." [`Prefetcher`] is a momentum predictor over the user's
//!    pan trajectory: after each interaction it warms the viewport the
//!    user is most likely to request next, in the background.

use crate::client::{ClientError, ClusterClient};
use stash_core::{LogicalClock, StashConfig, StashGraph};
use stash_model::{AggQuery, Cell, CellKey, QueryResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A front-end with its own STASH graph and an optional prefetcher.
pub struct CachingClient {
    inner: ClusterClient,
    graph: Arc<StashGraph>,
    clock: Arc<LogicalClock>,
    /// Dataset attribute count, for caching empty regions with the right
    /// summary width.
    n_attrs: usize,
    /// Local-graph statistics: interactions fully served client-side.
    local_only: AtomicU64,
    /// Interactions that needed at least one back-end subquery.
    remote: AtomicU64,
}

impl CachingClient {
    /// Wrap a cluster client with a front-end graph of `max_cells` capacity.
    pub(crate) fn new(inner: ClusterClient, max_cells: usize, n_attrs: usize) -> Self {
        let clock = Arc::new(LogicalClock::new());
        let config = StashConfig {
            max_cells,
            ..StashConfig::default()
        };
        CachingClient {
            inner,
            graph: Arc::new(StashGraph::new(config, Arc::clone(&clock))),
            clock,
            n_attrs,
            local_only: AtomicU64::new(0),
            remote: AtomicU64::new(0),
        }
    }

    /// The wrapped plain client (bypasses the front-end graph).
    pub fn raw(&self) -> &ClusterClient {
        &self.inner
    }

    /// Cells held client-side.
    pub fn cached_cells(&self) -> usize {
        self.graph.len()
    }

    /// `(fully-local interactions, interactions that hit the back-end)`.
    pub fn interaction_stats(&self) -> (u64, u64) {
        (
            self.local_only.load(Ordering::Relaxed),
            self.remote.load(Ordering::Relaxed),
        )
    }

    /// Evaluate a query front-end-first: local hits and derivations cost no
    /// network at all; only missing Cells become back-end subqueries.
    pub fn query(&self, query: &AggQuery) -> Result<QueryResult, ClientError> {
        self.clock.advance();
        let keys = self.inner.plan(query)?;
        if keys.is_empty() {
            return Ok(QueryResult::default());
        }
        let (mut cells, candidates) = self.graph.get_many(&keys);
        let local_hits = cells.len();
        let mut derived = 0usize;
        let mut missing = Vec::with_capacity(candidates.len());
        for key in candidates {
            if let Some(cell) = self.graph.try_derive(&key) {
                derived += 1;
                cells.push(cell);
            } else {
                missing.push(key);
            }
        }

        let mut fetched = 0usize;
        if missing.is_empty() {
            self.local_only.fetch_add(1, Ordering::Relaxed);
        } else {
            self.remote.fetch_add(1, Ordering::Relaxed);
            let remote_cells = self.fetch_remote(query, missing)?;
            fetched = remote_cells.len();
            self.graph.insert_many(remote_cells.iter().cloned());
            cells.extend(remote_cells);
        }
        self.graph.touch_region(&keys);

        cells.retain(|c| !c.summary.is_empty());
        cells.sort_by_key(|c| c.key);
        Ok(QueryResult {
            cells,
            cache_hits: local_hits,
            derived_hits: derived,
            misses: fetched,
            rollup_hits: 0,
        })
    }

    /// Scatter the missing keys of `query` straight to their owners (the
    /// client knows the zero-hop partitioner) — or, when a share fails,
    /// coordinate the whole query — and keep one Cell per missing key.
    fn fetch_remote(
        &self,
        query: &AggQuery,
        mut missing: Vec<CellKey>,
    ) -> Result<Vec<Cell>, ClientError> {
        let (answer, _) = self
            .inner
            .scatter_or_coordinate(query, &missing, Instant::now())?;
        missing.sort_unstable();
        // Both answers are sorted by key; a coordinated one also holds the
        // Cells this client already had.
        let mut answered = answer
            .cells
            .into_iter()
            .filter(|c| missing.binary_search(&c.key).is_ok())
            .peekable();
        // Empty regions come back as no cell; cache their emptiness too so
        // panning over ocean stays local.
        Ok(missing
            .iter()
            .map(|&k| {
                answered
                    .next_if(|c| c.key == k)
                    .unwrap_or_else(|| Cell::empty(k, self.n_attrs))
            })
            .collect())
    }
}

/// Momentum-based viewport predictor (§IX-A's "trained model", scaled to
/// its simplest useful form): if the user panned in some direction, the
/// most likely next request is one more pan the same way.
#[derive(Debug, Default)]
pub struct Prefetcher {
    last_bbox: Option<stash_geo::BBox>,
}

impl Prefetcher {
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe an interaction and predict the next viewport, if the
    /// trajectory suggests one.
    pub fn observe_and_predict(&mut self, query: &AggQuery) -> Option<AggQuery> {
        let prev = self.last_bbox.replace(query.bbox);
        let prev = prev?;
        let b = query.bbox;
        // Same extent ⇒ a pan; the delta is the momentum vector.
        if (prev.lat_extent() - b.lat_extent()).abs() > 1e-9
            || (prev.lon_extent() - b.lon_extent()).abs() > 1e-9
        {
            return None; // zoom or dice: no directional momentum
        }
        let dlat = b.min_lat - prev.min_lat;
        let dlon = b.min_lon - prev.min_lon;
        if dlat.abs() < 1e-12 && dlon.abs() < 1e-12 {
            return None; // repeat of the same view
        }
        let mut next = query.clone();
        next.bbox = b.pan(dlat, dlon);
        (next.bbox != b).then_some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::{BBox, TemporalRes, TimeRange};

    fn q(lat: f64, lon: f64) -> AggQuery {
        AggQuery::new(
            BBox::from_corner_extent(lat, lon, 1.0, 2.0),
            TimeRange::whole_day(2015, 2, 2),
            4,
            TemporalRes::Day,
        )
    }

    #[test]
    fn prefetcher_extrapolates_pans() {
        let mut p = Prefetcher::new();
        assert!(
            p.observe_and_predict(&q(40.0, -100.0)).is_none(),
            "no history yet"
        );
        let pred = p.observe_and_predict(&q(40.5, -100.0)).expect("momentum");
        // Panned north by 0.5: prediction continues north.
        assert!((pred.bbox.min_lat - 41.0).abs() < 1e-9);
        assert!((pred.bbox.min_lon + 100.0).abs() < 1e-9);
    }

    #[test]
    fn prefetcher_ignores_zooms_and_repeats() {
        let mut p = Prefetcher::new();
        p.observe_and_predict(&q(40.0, -100.0));
        // Same view again: no prediction.
        assert!(p.observe_and_predict(&q(40.0, -100.0)).is_none());
        // A dice (different extent): no prediction.
        let mut diced = q(40.0, -100.0);
        diced.bbox = diced.bbox.scale(0.5);
        assert!(p.observe_and_predict(&diced).is_none());
    }

    #[test]
    fn prefetcher_momentum_follows_direction_changes() {
        let mut p = Prefetcher::new();
        p.observe_and_predict(&q(40.0, -100.0));
        p.observe_and_predict(&q(40.5, -100.0)); // north
        let east = p
            .observe_and_predict(&q(40.5, -99.0))
            .expect("east momentum");
        assert!((east.bbox.min_lon + 98.0).abs() < 1e-9, "continues east");
        assert!((east.bbox.min_lat - 40.5).abs() < 1e-9);
    }
}
