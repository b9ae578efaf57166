//! The query evaluation strategy (§IV-D, §V-B).
//!
//! "Any subsequent query will be evaluated over the cached values first.
//! Disk access is required only if (a) there are missing values for
//! completing query evaluation, and (b) those missing values are not
//! available by computing from the existing cached values."
//!
//! [`evaluate`] implements exactly that ladder for the keys a node owns:
//!
//! 1. **cache hit** — Cell fresh in the local graph;
//! 2. **derived hit** — Cell merged from a complete set of cached children;
//! 3. **fetch** — remaining keys go to the backing store through the
//!    caller-supplied [`FetchFn`] (local scan or one forwarded hop), and
//!    the fetched Cells are inserted for future reuse (collective caching).
//!
//! The ladder's last step needs no answer and changes none: the replacement
//! pass (§V-C) and the accessed region's freshness dispersal to its
//! spatiotemporal neighborhood (§V-C2). [`evaluate_traced`] leaves it to its
//! caller, who runs [`StashGraph::upkeep`] at the returned tick — an owner
//! after its reply has left; [`evaluate`] runs it at once.

use crate::graph::StashGraph;
use stash_model::{Cell, CellKey, QueryError, QueryResult};
use stash_obs::StageTimes;
use std::time::Instant;

/// Supplies Cells the cache cannot: scans the backing store (and forwards
/// to peer partitions when a coarse Cell spans them). Must return exactly
/// one Cell per requested key — an empty summary is a valid answer for an
/// empty region, a *missing* key is a storage fault.
pub type FetchFn<'a> = dyn Fn(&[CellKey]) -> Result<Vec<Cell>, String> + Sync + 'a;

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Query could not be planned (bad resolution, cover too large).
    Query(QueryError),
    /// The backing store failed or returned an incomplete answer.
    Fetch(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Query(e) => write!(f, "planning failed: {e}"),
            EvalError::Fetch(e) => write!(f, "fetch failed: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<QueryError> for EvalError {
    fn from(e: QueryError) -> Self {
        EvalError::Query(e)
    }
}

/// Provenance of one evaluation, returned alongside the result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalOutcome {
    pub cache_hits: usize,
    pub derived_hits: usize,
    pub fetched: usize,
}

/// Evaluate the given target keys against a node's graph, then run the
/// evaluation's upkeep. `keys` are the Cells this node is responsible for
/// (the front end has already split the query by owner); call sites with a
/// whole query use [`stash_model::AggQuery::target_keys`] first. The
/// non-empty Cells come back in no particular order.
pub fn evaluate(
    graph: &StashGraph,
    keys: &[CellKey],
    fetch: &FetchFn,
) -> Result<QueryResult, EvalError> {
    let (result, _, tick) = evaluate_traced(graph, keys, fetch)?;
    graph.upkeep(keys, tick);
    Ok(result)
}

/// The answer of [`evaluate`] without its upkeep, plus a per-stage timing
/// breakdown and the logical tick the evaluation took. `plm_ns` covers the
/// batched PLM/cache pass, `merge_ns` derivation, insertion and result
/// assembly, and `dfs_ns` the wall time spent inside `fetch` (local DFS
/// scan, or scan + wire when the fetcher gathers remotely — callers that
/// know their fetcher's wire share move it to `wire_ns`). The caller owes
/// the graph `upkeep(keys, tick)`, before any later evaluation of it.
pub fn evaluate_traced(
    graph: &StashGraph,
    keys: &[CellKey],
    fetch: &FetchFn,
) -> Result<(QueryResult, StageTimes, u64), EvalError> {
    let tick = graph.clock().advance();
    let mut outcome = EvalOutcome::default();
    let mut times = StageTimes::default();

    // Pass 1: direct hits (batched: one lock round per level)…
    let t = Instant::now();
    let (mut cells, candidates) = graph.get_many(keys);
    times.plm_ns = t.elapsed().as_nanos() as u64;
    outcome.cache_hits = cells.len();

    // …then derivation from cached children for the remainder.
    let t = Instant::now();
    let mut missing: Vec<CellKey> = Vec::with_capacity(candidates.len());
    if graph.config().enable_derivation {
        for key in candidates {
            if let Some(cell) = graph.try_derive(&key) {
                outcome.derived_hits += 1;
                cells.push(cell);
            } else {
                missing.push(key);
            }
        }
    } else {
        missing = candidates;
    }
    times.merge_ns = t.elapsed().as_nanos() as u64;

    // Pass 2: fetch what memory cannot provide.
    if !missing.is_empty() {
        let t = Instant::now();
        let fetched = fetch(&missing).map_err(EvalError::Fetch)?;
        times.dfs_ns = t.elapsed().as_nanos() as u64;
        if fetched.len() != missing.len() {
            return Err(EvalError::Fetch(format!(
                "store returned {} cells for {} keys",
                fetched.len(),
                missing.len()
            )));
        }
        outcome.fetched = fetched.len();
        // Collective caching: fetched Cells are inserted so *any* later
        // query (from any user) reuses them.
        let t = Instant::now();
        graph.insert_many(fetched.iter().cloned());
        cells.extend(fetched);
        times.merge_ns += t.elapsed().as_nanos() as u64;
    }

    // Drop empty Cells from the rendered set (nothing to draw) while
    // keeping them cached. The front end orders the merged answer.
    let t = Instant::now();
    cells.retain(|c| !c.summary.is_empty());
    times.merge_ns += t.elapsed().as_nanos() as u64;
    Ok((
        QueryResult {
            cells,
            cache_hits: outcome.cache_hits,
            derived_hits: outcome.derived_hits,
            misses: outcome.fetched,
            rollup_hits: 0,
        },
        times,
        tick,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::config::StashConfig;
    use crate::fx::FxHashSet;
    use parking_lot::Mutex;
    use stash_geo::time::epoch_seconds;
    use stash_geo::{Geohash, TemporalRes, TimeBin};
    use std::str::FromStr;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn graph() -> StashGraph {
        StashGraph::new(StashConfig::default(), Arc::new(LogicalClock::new()))
    }

    fn key(gh: &str) -> CellKey {
        CellKey::new(
            Geohash::from_str(gh).unwrap(),
            TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0)),
        )
    }

    fn filled(k: CellKey, v: f64) -> Cell {
        let mut c = Cell::empty(k, 1);
        c.summary.push_row(&[v]);
        c
    }

    /// A fetcher that returns value `1.0` per key and records what it was
    /// asked for.
    fn recording_fetcher(
        log: Arc<Mutex<Vec<Vec<CellKey>>>>,
    ) -> impl Fn(&[CellKey]) -> Result<Vec<Cell>, String> + Sync {
        move |keys: &[CellKey]| {
            log.lock().push(keys.to_vec());
            Ok(keys.iter().map(|&k| filled(k, 1.0)).collect())
        }
    }

    #[test]
    fn cold_query_fetches_everything_then_warm_query_fetches_nothing() {
        let g = graph();
        let keys: Vec<CellKey> = key("9q8").spatial_children().unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let fetch = recording_fetcher(Arc::clone(&log));

        let cold = evaluate(&g, &keys, &fetch).unwrap();
        assert_eq!(cold.misses, 32);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cells.len(), 32);

        let warm = evaluate(&g, &keys, &fetch).unwrap();
        assert_eq!(warm.cache_hits, 32);
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.cells.len(), 32);
        assert_eq!(log.lock().len(), 1, "second query must not fetch");
        assert!((warm.hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_fetches_only_missing() {
        let g = graph();
        let all: Vec<CellKey> = key("9q8").spatial_children().unwrap();
        let (cached, uncached) = all.split_at(20);
        g.insert_many(cached.iter().map(|&k| filled(k, 2.0)));

        let log = Arc::new(Mutex::new(Vec::new()));
        let fetch = recording_fetcher(Arc::clone(&log));
        let r = evaluate(&g, &all, &fetch).unwrap();
        assert_eq!(r.cache_hits, 20);
        assert_eq!(r.misses, 12);
        let fetched_keys = &log.lock()[0];
        assert_eq!(fetched_keys.as_slice(), uncached);
    }

    #[test]
    fn rollup_is_served_by_derivation_not_disk() {
        let g = graph();
        let parent = key("9q8");
        let children = parent.spatial_children().unwrap();
        g.insert_many(children.iter().map(|&k| filled(k, 3.0)));

        let fetch =
            |_: &[CellKey]| -> Result<Vec<Cell>, String> { Err("disk must not be touched".into()) };
        let r = evaluate(&g, &[parent], &fetch).unwrap();
        assert_eq!(r.derived_hits, 1);
        assert_eq!(r.misses, 0);
        assert_eq!(r.cells[0].summary.count(), 32);
        // And the derived parent now serves direct hits.
        let r2 = evaluate(&g, &[parent], &fetch).unwrap();
        assert_eq!(r2.cache_hits, 1);
    }

    #[test]
    fn empty_cells_are_cached_but_not_rendered() {
        let g = graph();
        let k = key("9q8y");
        let fetch = |keys: &[CellKey]| -> Result<Vec<Cell>, String> {
            Ok(keys.iter().map(|&k| Cell::empty(k, 1)).collect())
        };
        let r = evaluate(&g, &[k], &fetch).unwrap();
        assert_eq!(r.misses, 1);
        assert!(r.cells.is_empty(), "empty summaries are not rendered");
        // But the emptiness is cached: next evaluation is a hit, no fetch.
        let deny = |_: &[CellKey]| -> Result<Vec<Cell>, String> { Err("no".into()) };
        let r2 = evaluate(&g, &[k], &deny).unwrap();
        assert_eq!(r2.cache_hits, 1);
    }

    #[test]
    fn incomplete_fetch_is_an_error() {
        let g = graph();
        let keys = [key("9q8y"), key("9q8z")];
        let fetch = |keys: &[CellKey]| -> Result<Vec<Cell>, String> {
            Ok(vec![Cell::empty(keys[0], 1)]) // one short
        };
        match evaluate(&g, &keys, &fetch) {
            Err(EvalError::Fetch(msg)) => assert!(msg.contains("2 keys")),
            other => panic!("expected fetch error, got {other:?}"),
        }
    }

    #[test]
    fn fetch_failure_propagates() {
        let g = graph();
        let fetch = |_: &[CellKey]| -> Result<Vec<Cell>, String> { Err("io error".into()) };
        let err = evaluate(&g, &[key("9q8y")], &fetch).unwrap_err();
        assert_eq!(err, EvalError::Fetch("io error".into()));
    }

    #[test]
    fn results_hold_every_asked_cell_once() {
        let g = graph();
        let mut keys: Vec<CellKey> = key("9q8").spatial_children().unwrap();
        keys.reverse();
        let fetch = |keys: &[CellKey]| -> Result<Vec<Cell>, String> {
            Ok(keys.iter().map(|&k| filled(k, 1.0)).collect())
        };
        g.insert_many(keys[..10].iter().map(|&k| filled(k, 1.0)));
        let mut got: Vec<CellKey> = evaluate(&g, &keys, &fetch)
            .unwrap()
            .cells
            .iter()
            .map(|c| c.key)
            .collect();
        got.sort_unstable();
        keys.sort_unstable();
        assert_eq!(got, keys);
    }

    #[test]
    fn traced_evaluation_times_every_stage_it_runs() {
        let g = graph();
        let keys: Vec<CellKey> = key("9q8").spatial_children().unwrap();
        let slow_fetch = |keys: &[CellKey]| -> Result<Vec<Cell>, String> {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok(keys.iter().map(|&k| filled(k, 1.0)).collect())
        };
        let (cold, t_cold, _) = evaluate_traced(&g, &keys, &slow_fetch).unwrap();
        assert_eq!(cold.misses, 32);
        assert!(
            t_cold.dfs_ns >= 5_000_000,
            "fetch wall time not captured: {} ns",
            t_cold.dfs_ns
        );
        // The evaluator itself never touches the wire or retries.
        assert_eq!((t_cold.wire_ns, t_cold.retry_ns, t_cold.wait_ns), (0, 0, 0));

        let deny = |_: &[CellKey]| -> Result<Vec<Cell>, String> { Err("warm".into()) };
        let (warm, t_warm, _) = evaluate_traced(&g, &keys, &deny).unwrap();
        assert_eq!(warm.cache_hits, 32);
        assert_eq!(t_warm.dfs_ns, 0, "warm evaluation must not fetch");
        // Results are identical to the untraced path.
        assert_eq!(evaluate(&g, &keys, &deny).unwrap().cells, warm.cells);
    }

    #[test]
    fn evaluation_advances_the_clock() {
        let g = graph();
        let t0 = g.clock().now();
        let fetch = |keys: &[CellKey]| -> Result<Vec<Cell>, String> {
            Ok(keys.iter().map(|&k| Cell::empty(k, 1)).collect())
        };
        evaluate(&g, &[key("9q8y")], &fetch).unwrap();
        assert_eq!(g.clock().now(), t0 + 1);
        let (_, _, tick) = evaluate_traced(&g, &[key("9q8y")], &fetch).unwrap();
        assert_eq!(tick, t0 + 2);
    }

    #[test]
    fn upkeep_is_left_to_the_caller_of_the_traced_evaluation() {
        let g = graph();
        let center = key("9q8y");
        let neighbor = center.lateral_neighbors()[0];
        let fetch = |keys: &[CellKey]| -> Result<Vec<Cell>, String> {
            Ok(keys.iter().map(|&k| filled(k, 1.0)).collect())
        };
        g.insert_many([filled(neighbor, 1.0)]);
        let (_, _, tick) = evaluate_traced(&g, &[center], &fetch).unwrap();
        let untouched = g.freshness_of(&neighbor).unwrap();
        assert_eq!(g.stats().dispersal_probes.load(Ordering::Relaxed), 0);
        g.upkeep(&[center], tick);
        assert!(g.freshness_of(&neighbor).unwrap() > untouched);
        assert_eq!(g.stats().dispersals.load(Ordering::Relaxed), 1);
    }

    // -- Upkeep after the answer == the in-evaluate order ----------------------

    /// The evaluation order this crate had before upkeep left the
    /// evaluation: a replacement pass after every derivation and after the
    /// post-fetch inserts, dispersal at the end, the answer sorted.
    fn evaluate_reference(
        graph: &StashGraph,
        keys: &[CellKey],
        fetch: &FetchFn,
    ) -> Result<QueryResult, EvalError> {
        graph.clock().advance();
        let (mut cells, candidates) = graph.get_many(keys);
        let cache_hits = cells.len();
        let (mut derived_hits, mut missing) = (0, Vec::new());
        for key in candidates {
            if let Some(cell) = graph.try_derive(&key) {
                graph.evict_if_needed();
                derived_hits += 1;
                cells.push(cell);
            } else {
                missing.push(key);
            }
        }
        let mut misses = 0;
        if !missing.is_empty() {
            let fetched = fetch(&missing).map_err(EvalError::Fetch)?;
            misses = fetched.len();
            graph.insert_many(fetched.iter().cloned());
            graph.evict_if_needed();
            cells.extend(fetched);
        }
        graph.touch_region(keys);
        cells.retain(|c| !c.summary.is_empty());
        cells.sort_by_key(|c| c.key);
        Ok(QueryResult {
            cells,
            cache_hits,
            derived_hits,
            misses,
            rollup_hits: 0,
        })
    }

    /// Storage for the proptest: a res-4 Day Cell holds one row (or none)
    /// valued by its key; a res-3 Day Cell is the merge of its 32 children,
    /// so deriving it from cache and fetching it give the same bits.
    fn stored(k: CellKey) -> Cell {
        if k.geohash.len() == 3 {
            let children: Vec<Cell> = k
                .spatial_children()
                .unwrap()
                .into_iter()
                .map(stored)
                .collect();
            return Cell::from_children(k, 1, &children);
        }
        match k.dense_id() % 5 {
            0 => Cell::empty(k, 1),
            v => filled(k, v as f64),
        }
    }

    fn resident(g: &StashGraph) -> Vec<(CellKey, u64)> {
        let mut out: Vec<(CellKey, u64)> = g
            .keys_intersecting(
                &stash_geo::BBox::from_corner_extent(-90.0, -180.0, 180.0, 360.0),
                &stash_geo::TimeRange::new(i64::MIN / 2, i64::MAX / 2).unwrap(),
            )
            .into_iter()
            .map(|k| (k, g.freshness_of(&k).unwrap().to_bits()))
            .collect();
        out.sort_unstable();
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 48, ..Default::default() })]

        /// Single-threaded sequences of hit / derive / miss shares on twin
        /// graphs, one evaluated in the reference order and one with its
        /// upkeep after the answer: the answers are always equal; freshness
        /// is equal bit for bit until a replacement pass ran (the two orders
        /// may then pick different victims); every upkeep leaves the graph
        /// within budget, evicting no Cell fresher than one it keeps.
        #[test]
        fn upkeep_after_the_answer_equals_the_in_evaluate_order(
            budget in 0usize..4,
            shares in proptest::collection::vec(
                (0u8..3, 0usize..3, 0i64..2, 0usize..32, 1usize..=32),
                1..24,
            ),
        ) {
            // One in four sequences never evicts.
            let max_cells = [100_000, 40, 80, 150][budget];
            let config = StashConfig { max_cells, ..StashConfig::default() };
            let twins = [0, 1].map(|_| StashGraph::new(config.clone(), Arc::new(LogicalClock::new())));
            let fetch = |keys: &[CellKey]| -> Result<Vec<Cell>, String> {
                Ok(keys.iter().map(|&k| stored(k)).collect())
            };
            let tiles = ["9q8", "9q9", "9qb"];
            // A share is res-3 tiles (derived once their children are all
            // cached), a whole tile's 32 children, or a run of them.
            for (kind, tile, day, start, len) in shares {
                let k = key(tiles[tile]);
                let root = CellKey::new(k.geohash, TimeBin { idx: k.time.idx + day, ..k.time });
                let children = root.spatial_children().unwrap().into_iter();
                let keys: Vec<CellKey> = match kind {
                    0 => tiles.iter().take(tile + 1).map(|t| CellKey::new(key(t).geohash, root.time)).collect(),
                    1 => children.collect(),
                    _ => children.skip(start).take(len).collect(),
                };
                let want = evaluate_reference(&twins[0], &keys, &fetch).unwrap();
                let g = &twins[1];
                let (mut got, _, tick) = evaluate_traced(g, &keys, &fetch).unwrap();
                got.cells.sort_by_key(|c| c.key);
                proptest::prop_assert_eq!(&got.cells, &want.cells);

                let before: Vec<(CellKey, f64)> =
                    resident(g).into_iter().map(|(k, _)| (k, g.freshness_of(&k).unwrap())).collect();
                g.upkeep(&keys, tick);
                proptest::prop_assert!(g.len() <= max_cells);
                let after: FxHashSet<CellKey> = resident(g).into_iter().map(|(k, _)| k).collect();
                let (kept, evicted): (Vec<_>, Vec<_>) = before.iter().partition(|(k, _)| after.contains(k));
                let least_kept = kept.iter().map(|(_, f)| *f).fold(f64::INFINITY, f64::min);
                let most_evicted = evicted.iter().map(|(_, f)| *f).fold(f64::NEG_INFINITY, f64::max);
                proptest::prop_assert!(least_kept >= most_evicted, "kept {} < evicted {}", least_kept, most_evicted);

                let passes = |g: &StashGraph| g.stats().evict_passes.load(Ordering::Relaxed);
                if passes(&twins[0]) + passes(&twins[1]) == 0 {
                    proptest::prop_assert_eq!(resident(&twins[0]), resident(&twins[1]));
                }
            }
        }
    }
}
