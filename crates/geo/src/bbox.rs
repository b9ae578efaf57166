//! Geodetic bounding boxes (the `Query_Polygon` of the paper's queries).
//!
//! STASH queries carry a rectangular spatial extent in degrees. The paper's
//! evaluation defines its four query-size classes (country / state / county /
//! city) purely by the latitudinal and longitudinal extent of this rectangle
//! (§VIII-A), so [`BBox`] is the unit of workload generation as well as of
//! query planning.

/// An axis-aligned latitude/longitude rectangle.
///
/// Invariants (enforced by [`BBox::new`]):
/// * `min_lat <= max_lat`, both within `[-90, 90]`
/// * `min_lon <= max_lon`, both within `[-180, 180]`
///
/// Boxes that would cross the antimeridian must be split by the caller;
/// the STASH paper's workloads (NAM North-American data) never produce them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    pub min_lat: f64,
    pub max_lat: f64,
    pub min_lon: f64,
    pub max_lon: f64,
}

/// Error constructing a [`BBox`] from invalid coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BBoxError {
    /// Latitude outside `[-90, 90]` or `min_lat > max_lat`.
    BadLatitude,
    /// Longitude outside `[-180, 180]` or `min_lon > max_lon`.
    BadLongitude,
    /// A coordinate was NaN.
    NotFinite,
}

impl std::fmt::Display for BBoxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BBoxError::BadLatitude => write!(f, "latitude out of range or inverted"),
            BBoxError::BadLongitude => write!(f, "longitude out of range or inverted"),
            BBoxError::NotFinite => write!(f, "coordinate is not finite"),
        }
    }
}

impl std::error::Error for BBoxError {}

impl BBox {
    /// The whole globe.
    pub const GLOBE: BBox = BBox {
        min_lat: -90.0,
        max_lat: 90.0,
        min_lon: -180.0,
        max_lon: 180.0,
    };

    /// Construct a validated bounding box.
    pub fn new(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> Result<Self, BBoxError> {
        if ![min_lat, max_lat, min_lon, max_lon]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err(BBoxError::NotFinite);
        }
        if !(-90.0..=90.0).contains(&min_lat)
            || !(-90.0..=90.0).contains(&max_lat)
            || min_lat > max_lat
        {
            return Err(BBoxError::BadLatitude);
        }
        if !(-180.0..=180.0).contains(&min_lon)
            || !(-180.0..=180.0).contains(&max_lon)
            || min_lon > max_lon
        {
            return Err(BBoxError::BadLongitude);
        }
        Ok(BBox {
            min_lat,
            max_lat,
            min_lon,
            max_lon,
        })
    }

    /// Construct from a south-west corner plus extents, clamping to the globe.
    pub fn from_corner_extent(lat: f64, lon: f64, lat_extent: f64, lon_extent: f64) -> Self {
        let min_lat = lat.clamp(-90.0, 90.0);
        let min_lon = lon.clamp(-180.0, 180.0);
        BBox {
            min_lat,
            max_lat: (min_lat + lat_extent.max(0.0)).clamp(-90.0, 90.0),
            min_lon,
            max_lon: (min_lon + lon_extent.max(0.0)).clamp(-180.0, 180.0),
        }
    }

    /// Latitudinal extent in degrees.
    #[inline]
    pub fn lat_extent(&self) -> f64 {
        self.max_lat - self.min_lat
    }

    /// Longitudinal extent in degrees.
    #[inline]
    pub fn lon_extent(&self) -> f64 {
        self.max_lon - self.min_lon
    }

    /// Area in square degrees (planar approximation, adequate for workload
    /// sizing — the paper classifies queries by degree extents, not km²).
    #[inline]
    pub fn area_deg2(&self) -> f64 {
        self.lat_extent() * self.lon_extent()
    }

    /// Geometric center `(lat, lon)`.
    #[inline]
    pub fn center(&self) -> (f64, f64) {
        (
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }

    /// Point-in-box test. The southern and western edges are inclusive and
    /// the northern and eastern edges exclusive, so adjacent boxes tile the
    /// plane without double-counting observations — the same convention
    /// geohash decoding uses.
    #[inline]
    pub fn contains(&self, lat: f64, lon: f64) -> bool {
        lat >= self.min_lat && lat < self.max_lat && lon >= self.min_lon && lon < self.max_lon
    }

    /// Closed-edge variant used when a query rectangle should capture points
    /// sitting exactly on its boundary (e.g. the north pole row).
    #[inline]
    pub fn contains_closed(&self, lat: f64, lon: f64) -> bool {
        lat >= self.min_lat && lat <= self.max_lat && lon >= self.min_lon && lon <= self.max_lon
    }

    /// Do two boxes share any interior area?
    #[inline]
    pub fn intersects(&self, other: &BBox) -> bool {
        self.min_lat < other.max_lat
            && other.min_lat < self.max_lat
            && self.min_lon < other.max_lon
            && other.min_lon < self.max_lon
    }

    /// Does `self` fully enclose `other`?
    #[inline]
    pub fn encloses(&self, other: &BBox) -> bool {
        self.min_lat <= other.min_lat
            && self.max_lat >= other.max_lat
            && self.min_lon <= other.min_lon
            && self.max_lon >= other.max_lon
    }

    /// Intersection box, or `None` when disjoint.
    pub fn intersection(&self, other: &BBox) -> Option<BBox> {
        if !self.intersects(other) {
            return None;
        }
        Some(BBox {
            min_lat: self.min_lat.max(other.min_lat),
            max_lat: self.max_lat.min(other.max_lat),
            min_lon: self.min_lon.max(other.min_lon),
            max_lon: self.max_lon.min(other.max_lon),
        })
    }

    /// Fraction of `self`'s area covered by `other` (0.0 ..= 1.0).
    pub fn overlap_fraction(&self, other: &BBox) -> f64 {
        match self.intersection(other) {
            Some(i) if self.area_deg2() > 0.0 => i.area_deg2() / self.area_deg2(),
            _ => 0.0,
        }
    }

    /// Translate by `(dlat, dlon)` degrees, clamping to the globe.
    ///
    /// Clamping preserves the box *extent* where possible by shifting the
    /// whole box back inside the globe — this is what a map UI does when a
    /// user pans against the edge of the world.
    pub fn pan(&self, dlat: f64, dlon: f64) -> BBox {
        let (h, w) = (self.lat_extent(), self.lon_extent());
        let mut min_lat = self.min_lat + dlat;
        let mut min_lon = self.min_lon + dlon;
        min_lat = min_lat.clamp(-90.0, 90.0 - h);
        min_lon = min_lon.clamp(-180.0, 180.0 - w);
        BBox {
            min_lat,
            max_lat: min_lat + h,
            min_lon,
            max_lon: min_lon + w,
        }
    }

    /// Shrink (factor < 1) or grow (factor > 1) around the center, clamping
    /// to the globe. Used by the paper's *iterative dicing* workloads
    /// (§VIII-D1: −20 % spatial area per step).
    pub fn scale(&self, factor: f64) -> BBox {
        let (clat, clon) = self.center();
        let h = self.lat_extent() * factor / 2.0;
        let w = self.lon_extent() * factor / 2.0;
        BBox {
            min_lat: (clat - h).clamp(-90.0, 90.0),
            max_lat: (clat + h).clamp(-90.0, 90.0),
            min_lon: (clon - w).clamp(-180.0, 180.0),
            max_lon: (clon + w).clamp(-180.0, 180.0),
        }
    }
}

impl std::fmt::Display for BBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.4},{:.4}]x[{:.4},{:.4}]",
            self.min_lat, self.max_lat, self.min_lon, self.max_lon
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_ranges() {
        assert!(BBox::new(0.0, 10.0, 0.0, 10.0).is_ok());
        assert_eq!(BBox::new(10.0, 0.0, 0.0, 10.0), Err(BBoxError::BadLatitude));
        assert_eq!(
            BBox::new(0.0, 10.0, 20.0, 10.0),
            Err(BBoxError::BadLongitude)
        );
        assert_eq!(BBox::new(0.0, 95.0, 0.0, 10.0), Err(BBoxError::BadLatitude));
        assert_eq!(
            BBox::new(0.0, 10.0, 0.0, 200.0),
            Err(BBoxError::BadLongitude)
        );
        assert_eq!(
            BBox::new(f64::NAN, 10.0, 0.0, 10.0),
            Err(BBoxError::NotFinite)
        );
    }

    #[test]
    fn contains_half_open() {
        let b = BBox::new(0.0, 10.0, 0.0, 10.0).unwrap();
        assert!(b.contains(0.0, 0.0));
        assert!(!b.contains(10.0, 5.0));
        assert!(!b.contains(5.0, 10.0));
        assert!(b.contains_closed(10.0, 10.0));
    }

    #[test]
    fn intersection_and_overlap() {
        let a = BBox::new(0.0, 10.0, 0.0, 10.0).unwrap();
        let b = BBox::new(5.0, 15.0, 5.0, 15.0).unwrap();
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, BBox::new(5.0, 10.0, 5.0, 10.0).unwrap());
        assert!((a.overlap_fraction(&b) - 0.25).abs() < 1e-12);
        let far = BBox::new(50.0, 60.0, 50.0, 60.0).unwrap();
        assert!(a.intersection(&far).is_none());
        assert_eq!(a.overlap_fraction(&far), 0.0);
    }

    #[test]
    fn encloses_is_reflexive_and_ordered() {
        let outer = BBox::new(0.0, 10.0, 0.0, 10.0).unwrap();
        let inner = BBox::new(2.0, 8.0, 2.0, 8.0).unwrap();
        assert!(outer.encloses(&outer));
        assert!(outer.encloses(&inner));
        assert!(!inner.encloses(&outer));
    }

    #[test]
    fn pan_preserves_extent_and_clamps() {
        let b = BBox::new(0.0, 4.0, 0.0, 8.0).unwrap();
        let p = b.pan(1.0, -2.0);
        assert!((p.lat_extent() - 4.0).abs() < 1e-12);
        assert!((p.lon_extent() - 8.0).abs() < 1e-12);
        assert!((p.min_lat - 1.0).abs() < 1e-12);
        // Panning far north keeps the box inside the globe with full extent.
        let top = b.pan(1000.0, 0.0);
        assert!((top.max_lat - 90.0).abs() < 1e-12);
        assert!((top.lat_extent() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scale_shrinks_around_center() {
        let b = BBox::new(0.0, 10.0, 0.0, 10.0).unwrap();
        let s = b.scale(0.5);
        assert_eq!(s.center(), b.center());
        assert!((s.area_deg2() - 25.0).abs() < 1e-9);
        // Iterative dicing: -20% AREA per step is scale(sqrt(0.8)) on extents.
        let diced = b.scale(0.8f64.sqrt());
        assert!((diced.area_deg2() / b.area_deg2() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn from_corner_extent_clamps() {
        let b = BBox::from_corner_extent(80.0, 170.0, 16.0, 32.0);
        assert!(b.max_lat <= 90.0 && b.max_lon <= 180.0);
        assert!(b.min_lat <= b.max_lat && b.min_lon <= b.max_lon);
    }
}
