//! STASH level arithmetic (§IV-C).
//!
//! Cells with the same (spatial, temporal) resolution pair sit at the same
//! *level* of the STASH graph; levels give the graph its hierarchy and let a
//! node segregate its per-level DHT maps. The paper computes the level of a
//! resolution pair as `n_j * n_t + n_i` "where n_s and n_t are the total
//! possible spatial and temporal resolutions and n_i, n_j the current
//! spatial and temporal resolution". Taken literally the formula collides
//! (it never mentions `n_s` again), so — as documented in DESIGN.md — we
//! implement the evident intent: `level = t_idx * N_SPATIAL + s_idx`, a
//! bijection from resolution pairs to `0..N_SPATIAL*N_TEMPORAL`.

use stash_geo::time::NUM_TEMPORAL_RES;
use stash_geo::{TemporalRes, MAX_GEOHASH_LEN};

/// Total number of spatial resolutions (geohash lengths 1..=12).
pub const MAX_SPATIAL_RES: u8 = MAX_GEOHASH_LEN;

/// Total number of distinct STASH levels.
pub const NUM_LEVELS: usize = MAX_SPATIAL_RES as usize * NUM_TEMPORAL_RES as usize;

/// A STASH graph level: one (spatial resolution, temporal resolution) pair.
///
/// Levels order coarse-to-fine: level 0 is (geohash length 1, Year); each
/// +1 in geohash length adds 1, each temporal refinement adds
/// [`MAX_SPATIAL_RES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Level(u8);

/// Error constructing a [`Level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelError {
    /// Spatial resolution (geohash length) out of `1..=MAX_SPATIAL_RES`.
    BadSpatial(u8),
    /// Raw level index out of range.
    BadIndex(u8),
}

impl std::fmt::Display for LevelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LevelError::BadSpatial(s) => {
                write!(f, "spatial resolution {s} not in 1..={MAX_SPATIAL_RES}")
            }
            LevelError::BadIndex(i) => write!(f, "level index {i} out of range"),
        }
    }
}

impl std::error::Error for LevelError {}

impl Level {
    /// Level of a (geohash length, temporal resolution) pair.
    pub fn of(spatial_res: u8, temporal_res: TemporalRes) -> Result<Level, LevelError> {
        if spatial_res == 0 || spatial_res > MAX_SPATIAL_RES {
            return Err(LevelError::BadSpatial(spatial_res));
        }
        Ok(Level(
            temporal_res.index() * MAX_SPATIAL_RES + (spatial_res - 1),
        ))
    }

    /// Reconstruct from a raw index.
    pub fn from_index(i: u8) -> Result<Level, LevelError> {
        if (i as usize) < NUM_LEVELS {
            Ok(Level(i))
        } else {
            Err(LevelError::BadIndex(i))
        }
    }

    /// Raw index, `0..NUM_LEVELS`.
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Geohash length of this level (1..=12).
    #[inline]
    pub fn spatial_res(self) -> u8 {
        self.0 % MAX_SPATIAL_RES + 1
    }

    /// Temporal resolution of this level.
    #[inline]
    pub fn temporal_res(self) -> TemporalRes {
        TemporalRes::from_index(self.0 / MAX_SPATIAL_RES).expect("index validated at construction")
    }

    /// The three coarser parent levels of the paper (§IV-B): one step lower
    /// spatial precision, one step lower temporal precision, and one step
    /// lower in both. Fewer at the coarse edges of the hierarchy.
    pub fn parent_levels(self) -> Vec<Level> {
        let s = self.spatial_res();
        let t = self.temporal_res();
        let mut out = Vec::with_capacity(3);
        if s > 1 {
            out.push(Level::of(s - 1, t).expect("validated"));
        }
        if let Some(ct) = t.coarser() {
            out.push(Level::of(s, ct).expect("validated"));
            if s > 1 {
                out.push(Level::of(s - 1, ct).expect("validated"));
            }
        }
        out
    }

    /// The three finer child levels (spatial, temporal, spatiotemporal).
    pub fn child_levels(self) -> Vec<Level> {
        let s = self.spatial_res();
        let t = self.temporal_res();
        let mut out = Vec::with_capacity(3);
        if s < MAX_SPATIAL_RES {
            out.push(Level::of(s + 1, t).expect("validated"));
        }
        if let Some(ft) = t.finer() {
            out.push(Level::of(s, ft).expect("validated"));
            if s < MAX_SPATIAL_RES {
                out.push(Level::of(s + 1, ft).expect("validated"));
            }
        }
        out
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "L{}(s={},t={})",
            self.0,
            self.spatial_res(),
            self.temporal_res()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bijection_over_all_pairs() {
        let mut seen = std::collections::HashSet::new();
        for t in TemporalRes::ALL {
            for s in 1..=MAX_SPATIAL_RES {
                let l = Level::of(s, t).unwrap();
                assert!(seen.insert(l.index()), "collision at ({s},{t:?})");
                assert_eq!(l.spatial_res(), s);
                assert_eq!(l.temporal_res(), t);
                assert_eq!(Level::from_index(l.index()).unwrap(), l);
            }
        }
        assert_eq!(seen.len(), NUM_LEVELS);
    }

    #[test]
    fn coarse_levels_order_before_fine() {
        let coarse = Level::of(1, TemporalRes::Year).unwrap();
        let fine = Level::of(6, TemporalRes::Day).unwrap();
        assert!(coarse < fine);
        assert_eq!(coarse.index(), 0);
    }

    #[test]
    fn invalid_inputs() {
        assert!(Level::of(0, TemporalRes::Day).is_err());
        assert!(Level::of(MAX_SPATIAL_RES + 1, TemporalRes::Day).is_err());
        assert!(Level::from_index(NUM_LEVELS as u8).is_err());
    }

    #[test]
    fn parent_child_levels_are_inverse() {
        for t in TemporalRes::ALL {
            for s in 1..=MAX_SPATIAL_RES {
                let l = Level::of(s, t).unwrap();
                for p in l.parent_levels() {
                    assert!(p.child_levels().contains(&l), "{p} missing child {l}");
                    assert!(p < l);
                }
                for c in l.child_levels() {
                    assert!(c.parent_levels().contains(&l), "{c} missing parent {l}");
                    assert!(c > l);
                }
            }
        }
    }

    #[test]
    fn interior_level_has_three_parents_and_children() {
        let l = Level::of(5, TemporalRes::Month).unwrap();
        assert_eq!(l.parent_levels().len(), 3);
        assert_eq!(l.child_levels().len(), 3);
        // Corners of the hierarchy have none.
        assert!(Level::of(1, TemporalRes::Year)
            .unwrap()
            .parent_levels()
            .is_empty());
        assert!(Level::of(MAX_SPATIAL_RES, TemporalRes::Hour)
            .unwrap()
            .child_levels()
            .is_empty());
    }
}
