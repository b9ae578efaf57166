//! Aggregation queries and results.
//!
//! A STASH query is the programmatic form of the paper's SQL example
//! (§II-B): a spatial polygon (`Query_Polygon`, here a bounding box), a time
//! interval (`Query_Time`), the requested spatial and temporal resolutions
//! (`group by spatial_resolution, temporal_resolution`), and the aggregate
//! functions to render. Evaluation returns one Cell per (geohash, time-bin)
//! group intersecting the query.

use crate::cell::Cell;
use crate::key::CellKey;
use crate::level::{Level, LevelError, MAX_SPATIAL_RES};
use crate::stats::SummaryStats;
use stash_geo::cover::{cover_bbox, cover_len, CoverError};
use stash_geo::{BBox, TemporalRes, TimeBin, TimeRange};

/// Aggregate functions a front-end can request per attribute.
///
/// All are computable from a Cell's [`SummaryStats`], so the choice of
/// function never changes what STASH caches — only how the client renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Min,
    Max,
    Sum,
    Mean,
    StdDev,
}

impl AggFunc {
    /// Evaluate against a summary. `None` when the summary is empty and the
    /// function is undefined on zero observations.
    pub fn apply(self, s: &SummaryStats) -> Option<f64> {
        match self {
            AggFunc::Count => Some(s.count as f64),
            AggFunc::Min => s.min(),
            AggFunc::Max => s.max(),
            AggFunc::Sum => Some(s.sum),
            AggFunc::Mean => s.mean(),
            AggFunc::StdDev => s.stddev(),
        }
    }
}

/// A hierarchical aggregation query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggQuery {
    /// Spatial extent (the paper's `Query_Polygon`).
    pub bbox: BBox,
    /// Temporal extent (the paper's `Query_Time`).
    pub time: TimeRange,
    /// Requested spatial resolution: geohash length of result Cells.
    pub spatial_res: u8,
    /// Requested temporal resolution of result Cells.
    pub temporal_res: TemporalRes,
}

/// Why a query could not be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Invalid resolution pair.
    Level(LevelError),
    /// The spatial cover exploded past the planner's cell budget.
    Cover(CoverError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Level(e) => write!(f, "bad resolution: {e}"),
            QueryError::Cover(e) => write!(f, "cover failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<LevelError> for QueryError {
    fn from(e: LevelError) -> Self {
        QueryError::Level(e)
    }
}

impl From<CoverError> for QueryError {
    fn from(e: CoverError) -> Self {
        QueryError::Cover(e)
    }
}

/// Ceiling on target Cells per query ([`AggQuery::target_keys`]); protects
/// the planner from degenerate resolution/extent combinations.
pub const MAX_CELLS_PER_QUERY: usize = 200_000;

impl AggQuery {
    pub fn new(bbox: BBox, time: TimeRange, spatial_res: u8, temporal_res: TemporalRes) -> Self {
        AggQuery {
            bbox,
            time,
            spatial_res,
            temporal_res,
        }
    }

    /// The STASH level the result Cells live at.
    pub fn level(&self) -> Result<Level, QueryError> {
        Ok(Level::of(self.spatial_res, self.temporal_res)?)
    }

    /// Enumerate the keys of every Cell this query needs, bounded by
    /// `max_cells` to protect the planner from degenerate requests: the
    /// count is checked before anything is allocated.
    pub fn target_keys(&self, max_cells: usize) -> Result<Vec<CellKey>, QueryError> {
        self.level()?;
        let n = self.target_cell_count();
        if n > max_cells {
            return Err(CoverError::TooManyCells(n).into());
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        let bins = TimeBin::cover_range(self.temporal_res, self.time);
        let hashes = cover_bbox(&self.bbox, self.spatial_res);
        let mut keys = Vec::with_capacity(n);
        for bin in &bins {
            for gh in &hashes {
                keys.push(CellKey::new(*gh, *bin));
            }
        }
        Ok(keys)
    }

    /// Number of target cells without materializing them.
    pub fn target_cell_count(&self) -> usize {
        cover_len(&self.bbox, self.spatial_res.min(MAX_SPATIAL_RES))
            .saturating_mul(TimeBin::cover_range_len(self.temporal_res, self.time))
    }

    /// One step coarser spatially — the paper's *roll-up*.
    pub fn rolled_up(&self) -> Option<AggQuery> {
        (self.spatial_res > 1).then(|| AggQuery {
            spatial_res: self.spatial_res - 1,
            ..self.clone()
        })
    }

    /// One step finer spatially — the paper's *drill-down*.
    pub fn drilled_down(&self) -> Option<AggQuery> {
        (self.spatial_res < MAX_SPATIAL_RES).then(|| AggQuery {
            spatial_res: self.spatial_res + 1,
            ..self.clone()
        })
    }

    /// Translated query — the paper's *panning*. `frac` is the fraction of
    /// the current extent to move by (0.10 / 0.20 / 0.25 in §VIII-D3);
    /// `(dy, dx)` pick one of 8 directions with unit components.
    pub fn panned(&self, frac: f64, dy: f64, dx: f64) -> AggQuery {
        AggQuery {
            bbox: self.bbox.pan(
                dy * frac * self.bbox.lat_extent(),
                dx * frac * self.bbox.lon_extent(),
            ),
            ..self.clone()
        }
    }

    /// Area-scaled query — the paper's *iterative dicing* (±20% area steps).
    /// `area_factor` is the target area ratio (0.8 shrinks by 20%).
    pub fn diced(&self, area_factor: f64) -> AggQuery {
        AggQuery {
            bbox: self.bbox.scale(area_factor.max(0.0).sqrt()),
            ..self.clone()
        }
    }
}

impl std::fmt::Display for AggQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Q[{} t=[{},{}) s={} t-res={}]",
            self.bbox, self.time.start, self.time.end, self.spatial_res, self.temporal_res
        )
    }
}

/// Result of evaluating an [`AggQuery`]: one Cell per non-empty
/// spatiotemporal group, plus evaluation provenance counters used by the
/// benchmarks (cache hits vs disk fetches).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    pub cells: Vec<Cell>,
    /// Cells answered directly from the in-memory STASH graph.
    pub cache_hits: usize,
    /// Cells synthesized by merging cached finer-resolution Cells.
    pub derived_hits: usize,
    /// Cells that required a fetch from the backing store.
    pub misses: usize,
    /// Cells answered from a continuous-rollup store (DESIGN.md §17):
    /// materialized coarse aggregates maintained by ingest, served without
    /// touching the STASH graph or raw blocks.
    pub rollup_hits: usize,
}

impl QueryResult {
    /// Fraction of target cells served without touching the backing store.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.derived_hits + self.misses + self.rollup_hits;
        if total == 0 {
            return 0.0;
        }
        (self.cache_hits + self.derived_hits + self.rollup_hits) as f64 / total as f64
    }

    /// Render one aggregate as `(cell key, value)` rows for a heatmap.
    pub fn series(&self, attr: usize, func: AggFunc) -> Vec<(CellKey, f64)> {
        self.cells
            .iter()
            .filter_map(|c| {
                let s = c.summary.attr(attr)?;
                Some((c.key, func.apply(s)?))
            })
            .collect()
    }

    /// Total observations aggregated across all result cells.
    pub fn total_count(&self) -> u64 {
        self.cells.iter().map(|c| c.summary.count()).sum()
    }

    /// Merge attribute `attr`'s sketch bundles across every result cell.
    ///
    /// `None` when any *non-empty* cell lacks sketch state (exact-only
    /// deployment), when no cell holds data — empty cells contribute no
    /// observations and are skipped regardless of how they were built — or
    /// when two cells carry incompatibly-configured sketches (result cells
    /// can come from remote nodes, so a config mismatch is a data condition,
    /// not a programmer error: the estimate is unanswerable, not a panic).
    fn fold_sketches(&self, attr: usize) -> Option<stash_sketch::AttrSketches> {
        let mut acc: Option<stash_sketch::AttrSketches> = None;
        for cell in &self.cells {
            match cell.summary.attr_sketches(attr) {
                Some(sk) => match &mut acc {
                    Some(a) => a.try_merge(sk).ok()?,
                    None => acc = Some(sk.clone()),
                },
                None if cell.summary.is_empty() => continue,
                None => return None,
            }
        }
        acc
    }

    /// Estimated `q`-quantile of attribute `attr` over the whole result,
    /// with its relative-error bound. `None` unless the deployment carries
    /// sketch-valued Cells and the result holds data.
    pub fn quantile(&self, attr: usize, q: f64) -> Option<stash_sketch::QuantileEstimate> {
        self.fold_sketches(attr)?.quantile(q)
    }

    /// Estimated distinct-value count of attribute `attr` over the whole
    /// result, with its standard error. `None` unless the deployment
    /// carries sketch-valued Cells and the result holds data.
    pub fn distinct(&self, attr: usize) -> Option<stash_sketch::DistinctEstimate> {
        Some(self.fold_sketches(attr)?.distinct())
    }

    /// The `k` most frequent values of attribute `attr` over the whole
    /// result, each with a count estimate and overcount bound. `None`
    /// unless the deployment carries sketch-valued Cells and the result
    /// holds data.
    pub fn top_k(&self, attr: usize, k: usize) -> Option<Vec<stash_sketch::TopKEntry>> {
        Some(self.fold_sketches(attr)?.top_k(k))
    }

    /// [`top_k`](Self::top_k) plus the truncation flag: when
    /// [`TopKResult::truncated`](stash_sketch::TopKResult) is true,
    /// candidate eviction fired somewhere
    /// in the folded sketches' history and the list may omit values that
    /// are truly among the top `k`; when false, a short list is ground
    /// truth — the data simply had fewer distinct values. Front-ends should
    /// prefer this over `top_k` whenever they render completeness.
    pub fn top_k_report(&self, attr: usize, k: usize) -> Option<stash_sketch::TopKResult> {
        Some(self.fold_sketches(attr)?.top_k_report(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;

    fn day_query(extent: (f64, f64), res: u8) -> AggQuery {
        AggQuery::new(
            BBox::from_corner_extent(30.0, -100.0, extent.0, extent.1),
            TimeRange::whole_day(2015, 2, 2),
            res,
            TemporalRes::Day,
        )
    }

    #[test]
    fn paper_query_classes_have_sane_cell_counts() {
        // City (0.2 x 0.5 deg) at res 4 covers a handful of cells; country
        // (16 x 32) covers thousands.
        let city = day_query((0.2, 0.5), 4);
        let country = day_query((16.0, 32.0), 4);
        let city_n = city.target_keys(100_000).unwrap().len();
        let country_n = country.target_keys(100_000).unwrap().len();
        assert!((1..20).contains(&city_n), "city: {city_n}");
        assert!(country_n > 5_000, "country: {country_n}");
        assert_eq!(city.target_cell_count(), city_n);
        assert_eq!(country.target_cell_count(), country_n);
    }

    #[test]
    fn target_keys_budget_enforced() {
        let country = day_query((16.0, 32.0), 7);
        match country.target_keys(1_000) {
            Err(QueryError::Cover(CoverError::TooManyCells(_))) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn target_keys_budget_is_checked_before_allocating() {
        // ~1.1 × 10^15 hour bins: a cover built first would abort.
        let mut eons = day_query((0.2, 0.5), 1);
        eons.temporal_res = TemporalRes::Hour;
        eons.time = TimeRange::new(0, 4_000_000_000_000_000_000).unwrap();
        assert!(matches!(
            eons.target_keys(200_000),
            Err(QueryError::Cover(CoverError::TooManyCells(n))) if n > 1_000_000_000_000_000
        ));
        // More bins than budget over a one-cell box: the keys outnumber it.
        let mut days = day_query((0.2, 0.5), 1);
        days.time = TimeRange::new(
            epoch_seconds(2015, 1, 1, 0, 0, 0),
            epoch_seconds(2015, 1, 11, 0, 0, 0),
        )
        .unwrap();
        assert_eq!(days.target_cell_count(), 10);
        assert_eq!(
            days.target_keys(9),
            Err(QueryError::Cover(CoverError::TooManyCells(10)))
        );
        assert_eq!(days.target_keys(10).unwrap().len(), 10);
    }

    #[test]
    fn target_keys_cross_product_of_space_and_time() {
        let mut q = day_query((0.5, 0.5), 4);
        q.time = TimeRange::new(
            epoch_seconds(2015, 2, 2, 0, 0, 0),
            epoch_seconds(2015, 2, 5, 0, 0, 0),
        )
        .unwrap();
        let keys = q.target_keys(100_000).unwrap();
        let spatial: std::collections::HashSet<_> = keys.iter().map(|k| k.geohash).collect();
        let temporal: std::collections::HashSet<_> = keys.iter().map(|k| k.time).collect();
        assert_eq!(temporal.len(), 3);
        assert_eq!(keys.len(), spatial.len() * temporal.len());
        for k in &keys {
            assert_eq!(k.spatial_res(), 4);
            assert_eq!(k.temporal_res(), TemporalRes::Day);
        }
    }

    #[test]
    fn empty_time_range_yields_no_keys() {
        let mut q = day_query((1.0, 1.0), 4);
        q.time = TimeRange::new(100, 100).unwrap();
        assert!(q.target_keys(1000).unwrap().is_empty());
        assert_eq!(q.target_cell_count(), 0);
    }

    #[test]
    fn bad_resolution_is_rejected() {
        let q = day_query((1.0, 1.0), 0);
        assert!(matches!(q.target_keys(1000), Err(QueryError::Level(_))));
        let q = day_query((1.0, 1.0), 13);
        assert!(q.target_keys(1000).is_err());
    }

    #[test]
    fn navigation_ops() {
        let q = day_query((4.0, 8.0), 5);
        let down = q.drilled_down().unwrap();
        assert_eq!(down.spatial_res, 6);
        assert_eq!(down.bbox, q.bbox);
        let up = q.rolled_up().unwrap();
        assert_eq!(up.spatial_res, 4);
        let panned = q.panned(0.25, 0.0, 1.0);
        assert!((panned.bbox.min_lon - (q.bbox.min_lon + 2.0)).abs() < 1e-9);
        assert_eq!(panned.bbox.lat_extent(), q.bbox.lat_extent());
        let diced = q.diced(0.8);
        assert!((diced.bbox.area_deg2() / q.bbox.area_deg2() - 0.8).abs() < 1e-9);
        // Edges of the hierarchy.
        assert!(day_query((1.0, 1.0), 1).rolled_up().is_none());
        assert!(day_query((1.0, 1.0), MAX_SPATIAL_RES)
            .drilled_down()
            .is_none());
    }

    #[test]
    fn agg_funcs_apply() {
        let s = SummaryStats::from_values(&[1.0, 3.0]);
        assert_eq!(AggFunc::Count.apply(&s), Some(2.0));
        assert_eq!(AggFunc::Min.apply(&s), Some(1.0));
        assert_eq!(AggFunc::Max.apply(&s), Some(3.0));
        assert_eq!(AggFunc::Sum.apply(&s), Some(4.0));
        assert_eq!(AggFunc::Mean.apply(&s), Some(2.0));
        assert_eq!(AggFunc::StdDev.apply(&s), Some(1.0));
        let empty = SummaryStats::empty();
        assert_eq!(AggFunc::Count.apply(&empty), Some(0.0));
        assert_eq!(AggFunc::Mean.apply(&empty), None);
    }

    #[test]
    fn result_counters_and_series() {
        use crate::cell::Cell;
        use stash_geo::Geohash;
        use std::str::FromStr;

        let key = CellKey::new(
            Geohash::from_str("9q8y").unwrap(),
            TimeBin::containing(TemporalRes::Day, 0),
        );
        let mut cell = Cell::empty(key, 2);
        cell.summary.push_row(&[2.0, 4.0]);
        let r = QueryResult {
            cells: vec![cell],
            cache_hits: 3,
            derived_hits: 1,
            misses: 4,
            rollup_hits: 0,
        };
        assert!((r.hit_ratio() - 0.5).abs() < 1e-12);
        // Rollup-served keys count as hits: they never touch raw blocks.
        let rolled = QueryResult {
            rollup_hits: 4,
            ..r.clone()
        };
        assert!((rolled.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.total_count(), 1);
        let series = r.series(1, AggFunc::Max);
        assert_eq!(series, vec![(key, 4.0)]);
        assert!(r.series(5, AggFunc::Max).is_empty());
        assert_eq!(QueryResult::default().hit_ratio(), 0.0);
    }
}
