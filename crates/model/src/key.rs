//! Cell keys: the spatiotemporal labels identifying every STASH Cell.
//!
//! A [`CellKey`] pairs a geohash (spatial label) with a calendar bin
//! (temporal label). All of the paper's graph edges are *derived* from keys
//! rather than stored (§IV-D's "composable vertex discovery schemes"):
//! hierarchical edges via [`CellKey::spatial_parent`] /
//! [`CellKey::temporal_parent`] / children, lateral edges via
//! [`CellKey::lateral_neighbors`].

use crate::level::{Level, LevelError};
use stash_geo::{Geohash, TemporalRes, TimeBin};

/// The identity of a Cell: `(geohash, time bin)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    pub geohash: Geohash,
    pub time: TimeBin,
}

impl CellKey {
    pub fn new(geohash: Geohash, time: TimeBin) -> Self {
        CellKey { geohash, time }
    }

    /// The STASH level this key lives at.
    pub fn level(&self) -> Level {
        Level::of(self.geohash.len(), self.time.res)
            .expect("geohash length is always a valid spatial resolution")
    }

    /// Spatial resolution (geohash length).
    #[inline]
    pub fn spatial_res(&self) -> u8 {
        self.geohash.len()
    }

    /// Temporal resolution.
    #[inline]
    pub fn temporal_res(&self) -> TemporalRes {
        self.time.res
    }

    // -- Hierarchical edges (paper §IV-B: three parent/child precisions) ----

    /// Parent with one step lower *spatial* precision.
    pub fn spatial_parent(&self) -> Option<CellKey> {
        Some(CellKey::new(self.geohash.parent()?, self.time))
    }

    /// Parent with one step lower *temporal* precision.
    pub fn temporal_parent(&self) -> Option<CellKey> {
        Some(CellKey::new(self.geohash, self.time.parent()?))
    }

    /// Parent with one step lower precision in both dimensions.
    pub fn spatiotemporal_parent(&self) -> Option<CellKey> {
        Some(CellKey::new(self.geohash.parent()?, self.time.parent()?))
    }

    /// All existing parents (up to 3).
    pub fn parents(&self) -> Vec<CellKey> {
        [
            self.spatial_parent(),
            self.temporal_parent(),
            self.spatiotemporal_parent(),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// The 32 spatial children (same time bin, one step finer geohash).
    pub fn spatial_children(&self) -> Option<Vec<CellKey>> {
        Some(
            self.geohash
                .children()?
                .map(|g| CellKey::new(g, self.time))
                .collect(),
        )
    }

    /// The temporal children (same geohash, one step finer time bin:
    /// 12 / 28–31 / 24 of them).
    pub fn temporal_children(&self) -> Option<Vec<CellKey>> {
        Some(
            self.time
                .children()?
                .into_iter()
                .map(|t| CellKey::new(self.geohash, t))
                .collect(),
        )
    }

    // -- Lateral edges (paper Fig. 1: 8 spatial + 2 temporal neighbors) -----

    /// Same-level neighbors: up to 8 spatially adjacent cells in the same
    /// time bin plus the 2 temporally adjacent cells at the same geohash.
    pub fn lateral_neighbors(&self) -> Vec<CellKey> {
        let mut out: Vec<CellKey> = self
            .geohash
            .neighbors()
            .into_iter()
            .map(|g| CellKey::new(g, self.time))
            .collect();
        out.extend(self.time.neighbors().map(|t| CellKey::new(self.geohash, t)));
        out
    }

    /// Is `self` nested within `ancestor` (both dimensions)?
    pub fn is_within(&self, ancestor: &CellKey) -> bool {
        self.geohash.is_within(&ancestor.geohash) && self.time.is_within(&ancestor.time)
    }

    /// The key at `level` that contains this one — itself when `level` is
    /// its own, `None` when `level` is finer in either dimension. Pure label
    /// arithmetic (geohash prefix, calendar coarsening), equal to binning
    /// any observation of this Cell at `level` directly.
    pub fn ancestor_at(&self, level: Level) -> Option<CellKey> {
        Some(CellKey::new(
            self.geohash.prefix(level.spatial_res())?,
            self.time.coarsened(level.temporal_res())?,
        ))
    }

    /// All descendant keys down to `target` level that are nested within
    /// this key — the membership of a *Clique* of the given depth rooted
    /// here (§VII-B2). Follows spatial refinement first, then temporal, so
    /// the expansion is deterministic.
    pub fn descendants_to(
        &self,
        spatial_res: u8,
        temporal_res: TemporalRes,
    ) -> Result<Vec<CellKey>, LevelError> {
        // Validate target is same-or-finer in both dimensions.
        Level::of(spatial_res, temporal_res)?;
        if spatial_res < self.spatial_res() || temporal_res < self.temporal_res() {
            return Ok(Vec::new());
        }
        let mut hashes = vec![self.geohash];
        while hashes[0].len() < spatial_res {
            hashes = hashes
                .iter()
                .flat_map(|g| g.children().expect("below max length"))
                .collect();
        }
        let mut bins = vec![self.time];
        while bins[0].res < temporal_res {
            bins = bins
                .iter()
                .flat_map(|b| b.children().expect("below finest resolution"))
                .collect();
        }
        let mut out = Vec::with_capacity(hashes.len() * bins.len());
        for g in &hashes {
            for b in &bins {
                out.push(CellKey::new(*g, *b));
            }
        }
        Ok(out)
    }

    /// A stable 64-bit identifier unique within a level, used as the bit
    /// index of PLM bitmaps and as the DHT hash input. Mixes geohash bits
    /// with the time-bin index.
    pub fn dense_id(&self) -> u64 {
        // SplitMix64-style mixing of the two halves.
        let mut x = self
            .geohash
            .bits()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.time.idx as u64);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// The distinct keys at `level` containing any of `keys`, sorted — the
/// projection of a set of fine keys (an append batch's finest keys) onto one
/// level of the hierarchy. Keys coarser than `level` have no ancestor there
/// and are skipped.
pub fn ancestors_at<'a>(keys: impl IntoIterator<Item = &'a CellKey>, level: Level) -> Vec<CellKey> {
    let mut out: Vec<CellKey> = keys
        .into_iter()
        .filter_map(|k| k.ancestor_at(level))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.geohash, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;
    use std::str::FromStr;

    fn key(gh: &str, res: TemporalRes, y: i64, m: u32, d: u32) -> CellKey {
        CellKey::new(
            Geohash::from_str(gh).unwrap(),
            TimeBin::containing(res, epoch_seconds(y, m, d, 0, 0, 0)),
        )
    }

    #[test]
    fn paper_cell_example() {
        // §IV-B: a Cell covering geohash 9q8y7 and time 2015-03 has spatial
        // resolution 5 and temporal resolution Month.
        let k = key("9q8y7", TemporalRes::Month, 2015, 3, 1);
        assert_eq!(k.spatial_res(), 5);
        assert_eq!(k.temporal_res(), TemporalRes::Month);
        assert_eq!(k.to_string(), "9q8y7@2015-03");
        // 8 spatial + 2 temporal lateral neighbors.
        assert_eq!(k.lateral_neighbors().len(), 10);
        // Spatial parent is 9q8y at the same month.
        let sp = k.spatial_parent().unwrap();
        assert_eq!(sp.geohash.to_string(), "9q8y");
        assert_eq!(sp.time, k.time);
    }

    #[test]
    fn three_parent_precisions() {
        let k = key("9q8y7", TemporalRes::Month, 2015, 3, 1);
        let parents = k.parents();
        assert_eq!(parents.len(), 3);
        // One lower spatial, one lower temporal, one lower both.
        assert!(parents.contains(&key("9q8y", TemporalRes::Month, 2015, 3, 1)));
        assert!(parents.contains(&key("9q8y7", TemporalRes::Year, 2015, 1, 1)));
        assert!(parents.contains(&key("9q8y", TemporalRes::Year, 2015, 1, 1)));
        for p in &parents {
            assert!(k.is_within(p));
            assert!(p.level() < k.level());
        }
    }

    #[test]
    fn parents_at_hierarchy_root() {
        let k = key("9", TemporalRes::Year, 2015, 1, 1);
        assert!(k.parents().is_empty());
        assert!(k.spatial_parent().is_none());
        assert!(k.temporal_parent().is_none());
    }

    #[test]
    fn spatial_children_count_and_nesting() {
        let k = key("9q", TemporalRes::Day, 2015, 2, 2);
        let kids = k.spatial_children().unwrap();
        assert_eq!(kids.len(), 32);
        for c in &kids {
            assert!(c.is_within(&k));
            assert_eq!(c.spatial_parent().unwrap(), k);
        }
    }

    #[test]
    fn temporal_children_by_calendar() {
        let feb = key("9q", TemporalRes::Month, 2016, 2, 1);
        assert_eq!(feb.temporal_children().unwrap().len(), 29);
        let day = key("9q", TemporalRes::Day, 2016, 2, 2);
        assert_eq!(day.temporal_children().unwrap().len(), 24);
        let hour = CellKey::new(
            Geohash::from_str("9q").unwrap(),
            TimeBin::containing(TemporalRes::Hour, 0),
        );
        assert!(hour.temporal_children().is_none());
    }

    #[test]
    fn descendants_to_clique_membership() {
        // Clique of depth 2 (spatial): root + not included; descendants_to
        // returns the *leaf* set at the target resolution.
        let root = key("9q", TemporalRes::Day, 2015, 2, 2);
        let leaves = root.descendants_to(4, TemporalRes::Day).unwrap();
        assert_eq!(leaves.len(), 32 * 32);
        for l in &leaves {
            assert!(l.is_within(&root));
            assert_eq!(l.spatial_res(), 4);
        }
        // Spatiotemporal expansion multiplies the counts.
        let st = root.descendants_to(3, TemporalRes::Hour).unwrap();
        assert_eq!(st.len(), 32 * 24);
        // Same-resolution target returns just the root.
        assert_eq!(
            root.descendants_to(2, TemporalRes::Day).unwrap(),
            vec![root]
        );
        // Coarser target is empty.
        assert!(root.descendants_to(1, TemporalRes::Day).unwrap().is_empty());
    }

    #[test]
    fn dense_ids_are_distinct_for_nearby_cells() {
        let k = key("9q8y7", TemporalRes::Day, 2015, 2, 2);
        let mut ids = std::collections::HashSet::new();
        ids.insert(k.dense_id());
        for n in k.lateral_neighbors() {
            assert!(ids.insert(n.dense_id()), "dense_id collision with {n}");
        }
        for c in k.spatial_children().unwrap() {
            assert!(ids.insert(c.dense_id()), "dense_id collision with {c}");
        }
    }

    #[test]
    fn ancestor_at_equals_binning_the_observation_at_every_level() {
        use crate::level::{MAX_SPATIAL_RES, NUM_LEVELS};
        use crate::Observation;
        // Points on a block edge, a day boundary and a year boundary.
        let points = [
            (37.7749, -122.4194, epoch_seconds(2015, 3, 9, 14, 0, 0)),
            (36.5625, -123.75, epoch_seconds(2015, 2, 2, 0, 0, 0)),
            (-33.86, 151.21, epoch_seconds(2015, 12, 31, 23, 59, 59)),
            (90.0, 180.0, epoch_seconds(2016, 2, 29, 12, 30, 0)),
        ];
        for (lat, lon, t) in points {
            let obs = Observation::new(lat, lon, t, vec![]);
            let finest = obs.cell_key(MAX_SPATIAL_RES, TemporalRes::Hour).unwrap();
            for i in 0..NUM_LEVELS as u8 {
                let level = Level::from_index(i).unwrap();
                assert_eq!(
                    finest.ancestor_at(level),
                    obs.cell_key(level.spatial_res(), level.temporal_res()),
                    "{finest} at {level:?}"
                );
            }
        }
        // A level finer in either dimension has no ancestor; the own level
        // is the identity.
        let k = key("9q8y", TemporalRes::Day, 2015, 2, 2);
        assert_eq!(k.ancestor_at(k.level()), Some(k));
        assert_eq!(k.ancestor_at(Level::of(5, TemporalRes::Day).unwrap()), None);
        assert_eq!(
            k.ancestor_at(Level::of(4, TemporalRes::Hour).unwrap()),
            None
        );
    }

    #[test]
    fn ancestors_at_projects_sorts_and_dedups() {
        let level = Level::of(3, TemporalRes::Day).unwrap();
        let fine = [
            key("9q9p1", TemporalRes::Hour, 2015, 2, 2),
            key("9q8y7", TemporalRes::Hour, 2015, 2, 2),
            key("9q8zz", TemporalRes::Hour, 2015, 2, 2),
            key("9q", TemporalRes::Hour, 2015, 2, 2), // coarser than the level
        ];
        assert_eq!(
            ancestors_at(&fine, level),
            vec![
                key("9q8", TemporalRes::Day, 2015, 2, 2),
                key("9q9", TemporalRes::Day, 2015, 2, 2),
            ]
        );
    }

    #[test]
    fn level_consistency() {
        let k = key("9q8y7k", TemporalRes::Hour, 2015, 2, 2);
        let l = k.level();
        assert_eq!(l.spatial_res(), 6);
        assert_eq!(l.temporal_res(), TemporalRes::Hour);
    }
}
