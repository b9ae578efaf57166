//! Geohash covers of query rectangles.
//!
//! STASH's query planner turns a `Query_Polygon` into the set of same-length
//! geohash cells that intersect it (§IV-D): those are the spatial labels of
//! the Cells the query needs. At one length the geohash cells form a regular
//! grid, so a box's cover is a rectangle of it — a row range × a column
//! range, found by arithmetic on exact cell edges — and each cell's label is
//! one re-interleave of its row and column. No per-cell encode or decode, no
//! allocation beyond the output vector.

use crate::bbox::BBox;
use crate::geohash::Geohash;
use crate::MAX_GEOHASH_LEN;
use std::ops::Range;

/// Error produced by [`cover_bbox_bounded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverError {
    /// The cover would exceed the caller's cell budget; contains the
    /// cover's cell count.
    TooManyCells(usize),
    /// Geohash length out of range.
    BadLength(u8),
}

impl std::fmt::Display for CoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverError::TooManyCells(n) => write!(f, "cover would produce {n} cells"),
            CoverError::BadLength(l) => {
                write!(f, "geohash length {l} not in 1..={MAX_GEOHASH_LEN}")
            }
        }
    }
}

impl std::error::Error for CoverError {}

/// All geohashes of length `len` whose boxes intersect `bbox`
/// (half-open edge semantics: a cell merely *touching* the query's north or
/// east edge is excluded, so adjacent queries don't share cells), row by row
/// from south to north, each row west to east.
///
/// # Panics
/// Panics if `len` is 0 or exceeds [`MAX_GEOHASH_LEN`]. Use
/// [`cover_bbox_bounded`] for fallible, budgeted covers.
pub fn cover_bbox(bbox: &BBox, len: u8) -> Vec<Geohash> {
    cover_bbox_bounded(bbox, len, usize::MAX).expect("unbounded cover cannot overflow budget")
}

/// Like [`cover_bbox`] but fails fast, before allocating, when the cover
/// would exceed `max_cells` — the guard STASH uses so a careless globe-wide
/// query at high resolution cannot allocate unbounded memory.
pub fn cover_bbox_bounded(
    bbox: &BBox,
    len: u8,
    max_cells: usize,
) -> Result<Vec<Geohash>, CoverError> {
    let (rows, cols) = grid_ranges(bbox, len).ok_or(CoverError::BadLength(len))?;
    let n = cell_count(&rows, &cols);
    if n > max_cells {
        return Err(CoverError::TooManyCells(n));
    }
    let mut out = Vec::with_capacity(n);
    for row in rows {
        out.extend(cols.clone().map(|col| {
            Geohash::from_grid_index(row, col, len).expect("ranges lie inside the grid")
        }));
    }
    Ok(out)
}

/// Number of cells [`cover_bbox`] returns, without materializing them; 0
/// for a length no cover exists at.
pub fn cover_len(bbox: &BBox, len: u8) -> usize {
    grid_ranges(bbox, len).map_or(0, |(rows, cols)| cell_count(&rows, &cols))
}

fn cell_count(rows: &Range<u64>, cols: &Range<u64>) -> usize {
    let n = (rows.end - rows.start).saturating_mul(cols.end - cols.start);
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// The rows (south to north) and columns (west to east) of the length-`len`
/// grid whose cells intersect `bbox` under [`BBox::intersects`]; `None` for
/// a bad length. A cell intersects exactly when its row does and its column
/// does, so the cover is their product.
fn grid_ranges(bbox: &BBox, len: u8) -> Option<(Range<u64>, Range<u64>)> {
    if len == 0 || len > MAX_GEOHASH_LEN {
        return None;
    }
    let (lat_bits, lon_bits) = Geohash::axis_bits(len);
    Some((
        axis_range(bbox.min_lat, bbox.max_lat, -90.0, 180.0, lat_bits),
        axis_range(bbox.min_lon, bbox.max_lon, -180.0, 360.0, lon_bits),
    ))
}

/// The cells `i` of an axis cut into `2^bits` equal cells from `origin`,
/// cell `i` spanning `[edge(i), edge(i + 1))`, that overlap `(lo, hi)`:
/// `edge(i) < hi && lo < edge(i + 1)`. Every edge is an integer multiple of
/// `span / 2^bits` (< 2^41 of them), so `edge` is exact in f64 and equal to
/// the edge a geohash decode bisects to; the float estimate of each end is
/// only a starting point, corrected against those exact edges.
fn axis_range(lo: f64, hi: f64, origin: f64, span: f64, bits: u32) -> Range<u64> {
    let n = 1u64 << bits;
    let step = span / n as f64;
    let edge = |i: u64| origin + i as f64 * step;
    // Index of the cell holding `x`, clamped to 0..=n (NaN lands on 0).
    let estimate = |x: f64| (((x - origin) / step).floor().max(0.0) as u64).min(n);
    // The first cell whose upper edge lies above `lo`.
    let mut first = estimate(lo);
    while first > 0 && edge(first) > lo {
        first -= 1;
    }
    while first < n && edge(first + 1) <= lo {
        first += 1;
    }
    // The first cell whose lower edge lies at or above `hi`.
    let mut end = estimate(hi);
    while end > 0 && edge(end - 1) >= hi {
        end -= 1;
    }
    while end < n && edge(end) < hi {
        end += 1;
    }
    first..end.max(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bb(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> BBox {
        BBox::new(min_lat, max_lat, min_lon, max_lon).unwrap()
    }

    /// The float walk the grid arithmetic replaced: anchor on the centre of
    /// the cell holding the south-west corner, step one cell extent at a
    /// time, encode every centre and keep the cells whose decoded box
    /// intersects the query. The budget is its in-walk check; the estimate
    /// pre-check it also had only spared the walk, and rejected some covers
    /// that fit the budget.
    fn walk_reference(bbox: &BBox, len: u8, max_cells: usize) -> Result<Vec<Geohash>, CoverError> {
        if len == 0 || len > MAX_GEOHASH_LEN {
            return Err(CoverError::BadLength(len));
        }
        let (h, w) = Geohash::cell_extent(len);
        let sw_lat = bbox.min_lat.clamp(-90.0, 90.0 - h / 2.0);
        let sw_lon = bbox.min_lon.clamp(-180.0, 180.0 - w / 2.0);
        let anchor = Geohash::encode(sw_lat, sw_lon, len).unwrap();
        let (start_lat, start_lon) = anchor.bbox().center();
        let mut out = Vec::new();
        let mut lat = start_lat;
        while lat - h / 2.0 < bbox.max_lat && lat < 90.0 {
            let mut lon = start_lon;
            while lon - w / 2.0 < bbox.max_lon && lon < 180.0 {
                let gh = Geohash::encode(lat, lon, len).unwrap();
                if gh.bbox().intersects(bbox) {
                    if out.len() >= max_cells {
                        return Err(CoverError::TooManyCells(usize::MAX));
                    }
                    out.push(gh);
                }
                lon += w;
            }
            lat += h;
        }
        Ok(out)
    }

    /// A coordinate `cells` cell edges from `origin`, then moved by one of:
    /// nothing (exactly on the edge), one ulp either way, 1e-10 or 1e-6 of
    /// a cell either way (the epsilons a float walk or count gets wrong),
    /// or a fraction of a cell.
    fn nudged(origin: f64, step: f64, cells: u64, how: u8, frac: f64) -> f64 {
        let x = origin + cells as f64 * step;
        match how % 8 {
            0 => x,
            1 => x.next_up(),
            2 => x.next_down(),
            3 => x + step * 1e-10,
            4 => x - step * 1e-10,
            5 => x + step * 1e-6,
            6 => x - step * 1e-6,
            _ => x + step * frac,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 4096,
            ..ProptestConfig::default()
        })]

        /// The grid cover equals the walk, cell for cell and in order, at
        /// every length: corners snapped onto and around exact cell edges,
        /// boxes reaching the pole rows and the antimeridian column, and
        /// budgets at, just under and just over the cover's size.
        #[test]
        fn grid_cover_equals_the_walk_reference(
            len in 1u8..=12,
            (row, col, rows, cols) in (any::<u64>(), any::<u64>(), 0u64..4, 0u64..4),
            (how0, how1, how2, how3) in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            (frac0, frac1, frac2, frac3) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            (edge_lat, edge_lon) in (0u8..4, 0u8..4),
            slack in -2i64..=2,
        ) {
            let (lat_bits, lon_bits) = Geohash::axis_bits(len);
            let (n_rows, n_cols) = (1u64 << lat_bits, 1u64 << lon_bits);
            let (h, w) = Geohash::cell_extent(len);
            let (hows, fracs) = ([how0, how1, how2, how3], [frac0, frac1, frac2, frac3]);
            // A quarter of the boxes each start in the south pole row, end
            // in the north pole row, start on the antimeridian's west side
            // or end on its east side.
            let pinned = |pin: u8, n: u64, span: u64, at: u64| match pin {
                1 => 0,
                2 => n - 1 - span.min(n - 1),
                _ => at % n,
            };
            let row = pinned(edge_lat, n_rows, rows, row);
            let col = pinned(edge_lon, n_cols, cols, col);
            let lat = |cells, i: usize| nudged(-90.0, h, cells, hows[i], fracs[i]).clamp(-90.0, 90.0);
            let lon = |cells, i: usize| nudged(-180.0, w, cells, hows[i], fracs[i]).clamp(-180.0, 180.0);
            let (lat0, lat1) = (lat(row, 0), lat(row + rows + 1, 1));
            let (lon0, lon1) = (lon(col, 2), lon(col + cols + 1, 3));
            let q = BBox {
                min_lat: lat0.min(lat1),
                max_lat: lat0.max(lat1),
                min_lon: lon0.min(lon1),
                max_lon: lon0.max(lon1),
            };
            let walked = walk_reference(&q, len, usize::MAX).unwrap();
            prop_assert_eq!(cover_bbox(&q, len), walked.clone(), "{} at len {}", q, len);
            prop_assert_eq!(cover_len(&q, len), walked.len());
            let budget = (walked.len() as i64 + slack).max(0) as usize;
            prop_assert_eq!(
                cover_bbox_bounded(&q, len, budget).ok(),
                walk_reference(&q, len, budget).ok(),
                "budget {}", budget
            );
        }
    }

    #[test]
    fn cover_len_counts_a_north_edge_just_past_a_boundary() {
        // The epsilon of the old count dropped the row whose south edge is
        // 45.0: 5.6e-10 is 1e-10 of a length-2 cell.
        let q = BBox {
            min_lat: 32.08125,
            max_lat: 45.0000000005625,
            min_lon: -106.7375,
            max_lon: -78.6125,
        };
        assert_eq!(cover_bbox(&q, 2).len(), 16);
        assert_eq!(cover_len(&q, 2), 16);
    }

    #[test]
    fn single_cell_query_covers_one_cell() {
        // A tiny box strictly inside one geohash-4 cell.
        let gh = Geohash::encode(40.0, -105.0, 4).unwrap();
        let c = gh.bbox();
        let (clat, clon) = c.center();
        let tiny = bb(clat, clat + 1e-6, clon, clon + 1e-6);
        let cover = cover_bbox(&tiny, 4);
        assert_eq!(cover, vec![gh]);
    }

    #[test]
    fn cover_contains_all_intersecting_cells() {
        let q = bb(39.5, 41.5, -106.0, -104.0);
        for len in 2..=5u8 {
            let cover = cover_bbox(&q, len);
            assert!(!cover.is_empty());
            // Every covered cell intersects the query...
            for gh in &cover {
                assert!(
                    gh.bbox().intersects(&q),
                    "len {len}: {gh} doesn't intersect"
                );
            }
            // ...and no duplicates.
            let mut sorted = cover.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), cover.len(), "len {len}: duplicates");
            // Sampled interior points are all covered.
            for i in 0..10 {
                for j in 0..10 {
                    let lat = q.min_lat + (i as f64 + 0.5) / 10.0 * q.lat_extent();
                    let lon = q.min_lon + (j as f64 + 0.5) / 10.0 * q.lon_extent();
                    let cell = Geohash::encode(lat, lon, len).unwrap();
                    assert!(
                        cover.contains(&cell),
                        "len {len}: point ({lat},{lon}) uncovered"
                    );
                }
            }
        }
    }

    #[test]
    fn cover_len_matches_cover() {
        let boxes = [
            bb(39.5, 41.5, -106.0, -104.0),
            bb(0.0, 16.0, 0.0, 32.0),
            bb(-10.3, -9.7, 100.1, 101.9),
            bb(88.0, 90.0, -180.0, -170.0),
        ];
        for q in &boxes {
            for len in 1..=4u8 {
                assert_eq!(
                    cover_len(q, len),
                    cover_bbox(q, len).len(),
                    "mismatch for {q} len {len}"
                );
            }
        }
    }

    #[test]
    fn bounded_cover_rejects_huge_requests() {
        let q = BBox::GLOBE;
        match cover_bbox_bounded(&q, 6, 1000) {
            Err(CoverError::TooManyCells(n)) => assert!(n > 1000),
            other => panic!("expected TooManyCells, got {other:?}"),
        }
    }

    #[test]
    fn bounded_cover_rejects_bad_length() {
        let q = bb(0.0, 1.0, 0.0, 1.0);
        assert_eq!(cover_bbox_bounded(&q, 0, 10), Err(CoverError::BadLength(0)));
        assert_eq!(
            cover_bbox_bounded(&q, 13, 10),
            Err(CoverError::BadLength(13))
        );
    }

    #[test]
    fn half_open_east_north_edges() {
        // Query box exactly matching one cell must cover exactly that cell,
        // not its east/north neighbors.
        let gh = Geohash::encode(10.0, 10.0, 3).unwrap();
        let cover = cover_bbox(&gh.bbox(), 3);
        assert_eq!(cover, vec![gh]);
    }

    #[test]
    fn country_sized_cover_at_res_4() {
        // Paper country class: 16x32 degrees. At geohash length 4
        // (~0.176 x 0.352 deg) that is roughly 91*91 cells.
        let q = bb(24.0, 40.0, -112.0, -80.0);
        let cover = cover_bbox(&q, 4);
        let n = cover.len();
        assert!((8_000..10_000).contains(&n), "unexpected cover size {n}");
    }

    #[test]
    fn globe_cover_at_len_1_is_32() {
        let cover = cover_bbox(&BBox::GLOBE, 1);
        assert_eq!(cover.len(), 32);
    }

    #[test]
    fn pole_adjacent_cover() {
        let q = bb(85.0, 90.0, 0.0, 45.0);
        let cover = cover_bbox(&q, 2);
        assert!(!cover.is_empty());
        for gh in &cover {
            assert!(gh.bbox().intersects(&q));
        }
    }
}
