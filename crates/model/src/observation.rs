//! Raw multidimensional observations — what the backing store holds.
//!
//! "The data collections we consider comprise multidimensional observations
//! that are stored in files — each observation has spatial coordinates
//! (latitude and longitude) and an observational timestamp associated with
//! it" (paper §I-B).

use crate::attr::AttrSchema;
use crate::key::CellKey;
use stash_geo::{Geohash, TemporalRes, TimeBin};

/// One observation: a georeferenced, timestamped row of attribute values.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    pub lat: f64,
    pub lon: f64,
    /// UTC epoch seconds.
    pub time: i64,
    /// Attribute values, aligned with the dataset's [`AttrSchema`].
    pub values: Vec<f64>,
}

impl Observation {
    pub fn new(lat: f64, lon: f64, time: i64, values: Vec<f64>) -> Self {
        Observation {
            lat,
            lon,
            time,
            values,
        }
    }

    /// The key of the Cell this observation falls into at the given
    /// resolutions, or `None` if its coordinates are invalid.
    pub fn cell_key(&self, spatial_res: u8, temporal_res: TemporalRes) -> Option<CellKey> {
        let gh = Geohash::encode(self.lat, self.lon, spatial_res).ok()?;
        Some(CellKey::new(
            gh,
            TimeBin::containing(temporal_res, self.time),
        ))
    }

    /// Validate the row against a schema.
    pub fn matches_schema(&self, schema: &AttrSchema) -> bool {
        self.values.len() == schema.len()
    }

    /// Approximate serialized size in bytes, for disk/network cost models.
    pub fn estimated_bytes(&self) -> usize {
        // lat + lon + time + values
        8 + 8 + 8 + 8 * self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;

    #[test]
    fn cell_key_bins_the_observation() {
        let obs = Observation::new(
            37.7749,
            -122.4194,
            epoch_seconds(2015, 3, 9, 14, 0, 0),
            vec![21.5, 0.4, 0.0, 0.0],
        );
        let k = obs.cell_key(5, TemporalRes::Month).unwrap();
        assert_eq!(k.geohash.to_string(), "9q8yy");
        assert_eq!(k.time.to_string(), "2015-03");
        assert!(k.geohash.bbox().contains(obs.lat, obs.lon));
        assert!(k.time.range().contains(obs.time));
    }

    #[test]
    fn invalid_coordinates_have_no_cell() {
        let obs = Observation::new(95.0, 0.0, 0, vec![]);
        assert!(obs.cell_key(4, TemporalRes::Day).is_none());
    }

    #[test]
    fn schema_match() {
        let schema = AttrSchema::nam();
        let ok = Observation::new(0.0, 0.0, 0, vec![1.0; 4]);
        let bad = Observation::new(0.0, 0.0, 0, vec![1.0; 3]);
        assert!(ok.matches_schema(&schema));
        assert!(!bad.matches_schema(&schema));
    }

    #[test]
    fn estimated_bytes_grows_with_width() {
        let narrow = Observation::new(0.0, 0.0, 0, vec![1.0]);
        let wide = Observation::new(0.0, 0.0, 0, vec![1.0; 10]);
        assert!(wide.estimated_bytes() > narrow.estimated_bytes());
        assert_eq!(narrow.estimated_bytes(), 32);
    }
}
