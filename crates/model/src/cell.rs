//! The STASH Cell: a vertex of the distributed aggregation graph.
//!
//! Table I of the paper lists the three component groups of a Cell:
//!
//! 1. **Spatiotemporal labels** — here the [`CellKey`] (geohash + time bin);
//! 2. **Aggregated summary statistics** — the [`CellSummary`], "the main
//!    content of a Cell and the information returned to a client program";
//! 3. **Edge information** — *derived*, not stored: STASH replaces stored
//!    adjacency with "composable vertex discovery schemes" (§IV-D), so the
//!    edge accessors on [`Cell`] simply delegate to key arithmetic. This is
//!    what keeps a Cell two labels plus statistics and nothing else.

use crate::key::CellKey;
use crate::stats::CellSummary;
use stash_geo::{BBox, TimeRange};

/// A unit of aggregated, cacheable data: the paper's Cell (Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Component (a): the spatiotemporal labels.
    pub key: CellKey,
    /// Component (b): the aggregated summary statistics.
    pub summary: CellSummary,
}

impl Cell {
    pub fn new(key: CellKey, summary: CellSummary) -> Self {
        Cell { key, summary }
    }

    /// An empty Cell (no observations yet) for `n_attrs` attributes.
    pub fn empty(key: CellKey, n_attrs: usize) -> Self {
        Cell {
            key,
            summary: CellSummary::empty(n_attrs),
        }
    }

    /// The spatial bounding box this Cell covers.
    pub fn bbox(&self) -> BBox {
        self.key.geohash.bbox()
    }

    /// The time interval this Cell covers.
    pub fn time_range(&self) -> TimeRange {
        self.key.time.range()
    }

    /// Component (c): hierarchical edge endpoints (up to 3 parents),
    /// computed from the labels.
    pub fn parent_keys(&self) -> Vec<CellKey> {
        self.key.parents()
    }

    /// Component (c): lateral edge endpoints (8 spatial + 2 temporal
    /// neighbors), computed from the labels.
    pub fn neighbor_keys(&self) -> Vec<CellKey> {
        self.key.lateral_neighbors()
    }

    /// Merge a nested (child) Cell's statistics into this one.
    ///
    /// # Panics
    /// Panics if `child` is not spatiotemporally nested within `self` —
    /// merging unrelated Cells corrupts the cache.
    pub fn absorb_child(&mut self, child: &Cell) {
        assert!(
            child.key.is_within(&self.key),
            "absorb_child: {} is not nested within {}",
            child.key,
            self.key
        );
        self.summary.merge(&child.summary);
    }

    /// Build a coarse Cell by merging a complete set of child Cells.
    /// The caller asserts completeness (STASH checks it against the PLM);
    /// nesting of every child is checked here.
    pub fn from_children<'a>(
        key: CellKey,
        n_attrs: usize,
        children: impl IntoIterator<Item = &'a Cell>,
    ) -> Cell {
        let mut cell = Cell::empty(key, n_attrs);
        for c in children {
            cell.absorb_child(c);
        }
        cell
    }

    /// In-memory footprint estimate, used against the configurable Cell
    /// threshold of §V-C.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<CellKey>() + self.summary.estimated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;
    use stash_geo::{Geohash, TemporalRes, TimeBin};
    use std::str::FromStr;

    fn key(gh: &str, res: TemporalRes) -> CellKey {
        CellKey::new(
            Geohash::from_str(gh).unwrap(),
            TimeBin::containing(res, epoch_seconds(2015, 2, 2, 0, 0, 0)),
        )
    }

    fn cell_with_rows(k: CellKey, rows: &[[f64; 2]]) -> Cell {
        let mut c = Cell::empty(k, 2);
        for r in rows {
            c.summary.push_row(r);
        }
        c
    }

    #[test]
    fn cell_components_match_table_1() {
        let c = cell_with_rows(key("9q8y7", TemporalRes::Month), &[[1.0, 2.0]]);
        // (a) spatiotemporal labels
        assert_eq!(c.key.geohash.to_string(), "9q8y7");
        assert_eq!(c.key.time.to_string(), "2015-02");
        // (b) summary statistics
        assert_eq!(c.summary.count(), 1);
        // (c) edge information, derived from labels
        assert_eq!(c.neighbor_keys().len(), 10);
        assert_eq!(c.parent_keys().len(), 3);
        // Geometry helpers agree with the labels.
        assert!(c.bbox().encloses(&c.key.geohash.bbox()));
        assert_eq!(c.time_range(), c.key.time.range());
    }

    #[test]
    fn absorb_children_equals_direct_aggregation() {
        let parent_key = key("9q8y", TemporalRes::Month);
        // Two children with disjoint rows.
        let child_keys: Vec<CellKey> = parent_key.spatial_children().unwrap();
        let c1 = cell_with_rows(child_keys[0], &[[1.0, 10.0], [2.0, 20.0]]);
        let c2 = cell_with_rows(child_keys[1], &[[3.0, 30.0]]);
        let merged = Cell::from_children(parent_key, 2, [&c1, &c2]);
        let direct = cell_with_rows(parent_key, &[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]);
        assert_eq!(merged.summary, direct.summary);
    }

    #[test]
    #[should_panic(expected = "not nested")]
    fn absorb_rejects_non_nested() {
        let mut a = Cell::empty(key("9q8y", TemporalRes::Month), 2);
        let b = Cell::empty(key("9q8z", TemporalRes::Month), 2); // sibling, not child
        a.absorb_child(&b);
    }

    #[test]
    fn temporal_nesting_also_accepted() {
        let month = key("9q8y", TemporalRes::Month);
        let day = key("9q8y", TemporalRes::Day);
        let mut m = Cell::empty(month, 1);
        let mut d = Cell::empty(day, 1);
        d.summary.push_row(&[5.0]);
        m.absorb_child(&d);
        assert_eq!(m.summary.count(), 1);
    }

    #[test]
    fn estimated_bytes_positive() {
        let c = Cell::empty(key("9q", TemporalRes::Year), 4);
        assert!(c.estimated_bytes() > 0);
    }
}
