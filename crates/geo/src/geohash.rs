//! Bit-packed geohash type: spatial label of a STASH Cell.
//!
//! A geohash of length *n* identifies one box of a recursive 32-way
//! subdivision of the globe (8×4 or 4×8 per step, alternating). STASH uses
//! geohash *length* as its spatial resolution: the paper's hierarchical edges
//! are exactly "drop / append one character" (§IV-B), and its lateral edges
//! are the 8 same-length boxes sharing a boundary (Fig. 1a).
//!
//! The representation packs up to 12 characters × 5 bits into a `u64`, so
//! parent / child / sibling arithmetic is shifts and masks. String form is
//! only materialized for display and wire formats.

use crate::base32;
use crate::bbox::BBox;
use crate::MAX_GEOHASH_LEN;

/// A geohash: a variable-length (1..=12 characters) spatial index.
///
/// Ordering is lexicographic on the character string for equal lengths
/// (equivalently, numeric on the packed bits), which groups spatially
/// proximate boxes — the property Galileo-style DHT partitioning relies on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Geohash {
    /// Right-aligned 5-bit digits: the first character occupies the most
    /// significant used bits, the last character the 5 least significant.
    bits: u64,
    len: u8,
}

/// Error parsing or constructing a [`Geohash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeohashError {
    /// Length 0 or > [`MAX_GEOHASH_LEN`].
    BadLength(usize),
    /// A character outside the geohash base-32 alphabet.
    BadCharacter(char),
    /// Latitude/longitude outside valid ranges.
    BadCoordinate,
}

impl std::fmt::Display for GeohashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeohashError::BadLength(n) => {
                write!(f, "geohash length {n} not in 1..={MAX_GEOHASH_LEN}")
            }
            GeohashError::BadCharacter(c) => write!(f, "invalid geohash character {c:?}"),
            GeohashError::BadCoordinate => write!(f, "coordinate out of range"),
        }
    }
}

impl std::error::Error for GeohashError {}

impl Geohash {
    /// Encode a point at the given geohash length (spatial resolution).
    ///
    /// `lat` must be in `[-90, 90]`, `lon` in `[-180, 180]` (a longitude of
    /// exactly 180° wraps to −180°).
    pub fn encode(lat: f64, lon: f64, len: u8) -> Result<Self, GeohashError> {
        if len == 0 || len > MAX_GEOHASH_LEN {
            return Err(GeohashError::BadLength(len as usize));
        }
        if !lat.is_finite()
            || !lon.is_finite()
            || !(-90.0..=90.0).contains(&lat)
            || !(-180.0..=180.0).contains(&lon)
        {
            return Err(GeohashError::BadCoordinate);
        }
        let lon = if lon == 180.0 { -180.0 } else { lon };
        let (mut lat_lo, mut lat_hi) = (-90.0f64, 90.0f64);
        let (mut lon_lo, mut lon_hi) = (-180.0f64, 180.0f64);
        let mut bits: u64 = 0;
        let total_bits = len as usize * 5;
        for i in 0..total_bits {
            bits <<= 1;
            if i % 2 == 0 {
                // Even interleave positions refine longitude.
                let mid = (lon_lo + lon_hi) / 2.0;
                if lon >= mid {
                    bits |= 1;
                    lon_lo = mid;
                } else {
                    lon_hi = mid;
                }
            } else {
                let mid = (lat_lo + lat_hi) / 2.0;
                if lat >= mid {
                    bits |= 1;
                    lat_lo = mid;
                } else {
                    lat_hi = mid;
                }
            }
        }
        Ok(Geohash { bits, len })
    }

    /// Construct from raw packed bits. `bits` must only use the low
    /// `5 * len` bits.
    pub fn from_bits(bits: u64, len: u8) -> Result<Self, GeohashError> {
        if len == 0 || len > MAX_GEOHASH_LEN {
            return Err(GeohashError::BadLength(len as usize));
        }
        let used = 5 * len as u32;
        if used < 64 && (bits >> used) != 0 {
            return Err(GeohashError::BadCoordinate);
        }
        Ok(Geohash { bits, len })
    }

    /// Raw packed digits (right-aligned).
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Geohash length, i.e. spatial resolution (1..=12).
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Never true — geohashes have at least one character — but provided for
    /// clippy's `len_without_is_empty` and API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decode to the bounding box this geohash identifies.
    pub fn bbox(&self) -> BBox {
        let (mut lat_lo, mut lat_hi) = (-90.0f64, 90.0f64);
        let (mut lon_lo, mut lon_hi) = (-180.0f64, 180.0f64);
        let total_bits = self.len as usize * 5;
        for i in 0..total_bits {
            let bit = (self.bits >> (total_bits - 1 - i)) & 1;
            if i % 2 == 0 {
                let mid = (lon_lo + lon_hi) / 2.0;
                if bit == 1 {
                    lon_lo = mid;
                } else {
                    lon_hi = mid;
                }
            } else {
                let mid = (lat_lo + lat_hi) / 2.0;
                if bit == 1 {
                    lat_lo = mid;
                } else {
                    lat_hi = mid;
                }
            }
        }
        BBox {
            min_lat: lat_lo,
            max_lat: lat_hi,
            min_lon: lon_lo,
            max_lon: lon_hi,
        }
    }

    /// Center point `(lat, lon)` of the box.
    #[inline]
    pub fn center(&self) -> (f64, f64) {
        self.bbox().center()
    }

    /// Width/height in degrees of a cell at geohash length `len`.
    ///
    /// Returns `(lat_extent, lon_extent)`. Even interleave steps split
    /// longitude, so odd lengths give boxes wider than tall.
    pub fn cell_extent(len: u8) -> (f64, f64) {
        let total_bits = len as u32 * 5;
        let lon_bits = total_bits.div_ceil(2);
        let lat_bits = total_bits / 2;
        (
            180.0 / (1u64 << lat_bits) as f64,
            360.0 / (1u64 << lon_bits) as f64,
        )
    }

    /// The parent cell: one step coarser spatial resolution (§IV-B "spatial
    /// parent"). `None` at length 1.
    #[inline]
    pub fn parent(&self) -> Option<Geohash> {
        (self.len > 1).then(|| Geohash {
            bits: self.bits >> 5,
            len: self.len - 1,
        })
    }

    /// Truncate to an ancestor of the given length. `prefix_len` must be
    /// `1..=self.len()`.
    pub fn prefix(&self, prefix_len: u8) -> Option<Geohash> {
        if prefix_len == 0 || prefix_len > self.len {
            return None;
        }
        Some(Geohash {
            bits: self.bits >> (5 * (self.len - prefix_len) as u32),
            len: prefix_len,
        })
    }

    /// The 32 children: one step finer spatial resolution. `None` when the
    /// hash is already at [`MAX_GEOHASH_LEN`].
    pub fn children(&self) -> Option<impl Iterator<Item = Geohash> + '_> {
        if self.len >= MAX_GEOHASH_LEN {
            return None;
        }
        let base = self.bits << 5;
        let len = self.len + 1;
        Some((0u64..32).map(move |d| Geohash {
            bits: base | d,
            len,
        }))
    }

    /// This cell's digit position within its parent (0..32); 5 low bits.
    #[inline]
    pub fn index_in_parent(&self) -> u8 {
        (self.bits & 31) as u8
    }

    /// Is `self` a spatial descendant of (or equal to) `ancestor`?
    pub fn is_within(&self, ancestor: &Geohash) -> bool {
        if ancestor.len > self.len {
            return false;
        }
        self.prefix(ancestor.len).as_ref() == Some(ancestor)
    }

    /// Bit counts of the two axes at this length: `(lat_bits, lon_bits)`.
    /// Even interleave positions carry longitude, so odd lengths give
    /// longitude one extra bit.
    #[inline]
    pub fn axis_bits(len: u8) -> (u32, u32) {
        let total = len as u32 * 5;
        (total / 2, total.div_ceil(2))
    }

    /// De-interleave the packed digits into per-axis grid indexes
    /// `(lat_idx, lon_idx)`: row/column of this box in the regular grid of
    /// its resolution, counted from the south-west corner. Two boxes are
    /// lateral neighbors iff their rows differ by at most one and their
    /// columns by at most one modulo the column count, which lets callers
    /// that walk many neighborhoods (freshness dispersal) do so by integer
    /// arithmetic and re-interleave only the boxes they need.
    #[inline]
    pub fn grid_index(&self) -> (u64, u64) {
        // Bit 0 of the interleave (MSB of `bits`) is longitude, so which
        // parity of positions *counted from the LSB* holds longitude
        // depends on the parity of the total bit count.
        let (even, odd) = (
            compact_even_bits(self.bits),
            compact_even_bits(self.bits >> 1),
        );
        if self.len.is_multiple_of(2) {
            (even, odd)
        } else {
            (odd, even)
        }
    }

    /// Re-interleave per-axis grid indexes into a geohash of length `len` —
    /// the inverse of [`grid_index`](Self::grid_index). Errors on a bad
    /// length or an index beyond the grid of that length.
    #[inline]
    pub fn from_grid_index(lat_idx: u64, lon_idx: u64, len: u8) -> Result<Geohash, GeohashError> {
        if len == 0 || len > MAX_GEOHASH_LEN {
            return Err(GeohashError::BadLength(len as usize));
        }
        let (lat_bits, lon_bits) = Self::axis_bits(len);
        if lat_idx >> lat_bits != 0 || lon_idx >> lon_bits != 0 {
            return Err(GeohashError::BadCoordinate);
        }
        let (lat, lon) = (spread_to_even_bits(lat_idx), spread_to_even_bits(lon_idx));
        let bits = if len.is_multiple_of(2) {
            lat | lon << 1
        } else {
            lon | lat << 1
        };
        Ok(Geohash { bits, len })
    }

    /// The grid neighbor `dy` rows north and `dx` columns east, or `None`
    /// beyond the poles. Longitude wraps across the antimeridian. Pure
    /// integer arithmetic — this sits on the freshness-dispersion hot path
    /// (§V-C2 touches ~10 neighbors per Cell per query).
    pub fn offset(&self, dy: i64, dx: i64) -> Option<Geohash> {
        let (lat_bits, lon_bits) = Self::axis_bits(self.len);
        let (lat, lon) = self.grid_index();
        let new_lat = lat as i64 + dy;
        if new_lat < 0 || new_lat >= (1i64 << lat_bits) {
            return None; // no neighbor beyond the poles
        }
        let lon_span = 1i64 << lon_bits;
        let new_lon = (lon as i64 + dx).rem_euclid(lon_span);
        Some(
            Self::from_grid_index(new_lat as u64, new_lon as u64, self.len)
                .expect("row range-checked, column wrapped"),
        )
    }

    /// The up-to-8 lateral neighbors: same-resolution boxes sharing an edge
    /// or corner (Fig. 1a of the paper). Fewer than 8 at the poles; wraps
    /// across the antimeridian.
    pub fn neighbors(&self) -> Vec<Geohash> {
        let mut out = Vec::with_capacity(8);
        for dy in [-1i64, 0, 1] {
            for dx in [-1i64, 0, 1] {
                if dy == 0 && dx == 0 {
                    continue;
                }
                if let Some(n) = self.offset(dy, dx) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// The geohash of the same length on the diametrically opposite side of
    /// the globe — the paper's *antipode* used to select maximally isolated
    /// helper nodes during Clique Handoff (§VII-B3).
    pub fn antipode(&self) -> Geohash {
        let (lat, lon) = self.center();
        let alat = (-lat).clamp(-90.0, 90.0);
        let mut alon = lon + 180.0;
        if alon >= 180.0 {
            alon -= 360.0;
        }
        Geohash::encode(alat, alon, self.len).expect("antipode of a valid center is valid")
    }

    /// A nearby same-length geohash at a random-ish offset around `self`,
    /// derived from `seed`. Used when an antipode helper declines and the
    /// hotspotted node retries "in a random direction around the antipode
    /// geohash" (§VII-B3).
    pub fn perturb(&self, seed: u64) -> Geohash {
        let b = self.bbox();
        let (clat, clon) = b.center();
        // Map seed to one of 8 directions and 1..=3 cell strides.
        let dir = (seed % 8) as usize;
        let stride = 1.0 + (seed / 8 % 3) as f64;
        const DIRS: [(f64, f64); 8] = [
            (1.0, 0.0),
            (1.0, 1.0),
            (0.0, 1.0),
            (-1.0, 1.0),
            (-1.0, 0.0),
            (-1.0, -1.0),
            (0.0, -1.0),
            (1.0, -1.0),
        ];
        let (dy, dx) = DIRS[dir];
        let lat = (clat + dy * stride * b.lat_extent()).clamp(-90.0, 90.0);
        let mut lon = clon + dx * stride * b.lon_extent();
        while lon < -180.0 {
            lon += 360.0;
        }
        while lon >= 180.0 {
            lon -= 360.0;
        }
        Geohash::encode(lat, lon, self.len).expect("perturbed coordinate is clamped valid")
    }

    /// Write the character form into a small stack buffer.
    fn to_chars(self) -> ([u8; MAX_GEOHASH_LEN as usize], usize) {
        let mut buf = [0u8; MAX_GEOHASH_LEN as usize];
        let n = self.len as usize;
        for (i, slot) in buf.iter_mut().enumerate().take(n) {
            let shift = 5 * (n - 1 - i) as u32;
            *slot = base32::encode_digit(((self.bits >> shift) & 31) as u8);
        }
        (buf, n)
    }
}

/// Gather the even-position bits (0, 2, 4, …) of `x` into the low half —
/// one axis of a 2-D Morton de-interleave, by mask-and-shift.
#[inline]
fn compact_even_bits(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    (x | x >> 16) & 0x0000_0000_ffff_ffff
}

/// Inverse of [`compact_even_bits`]: spread the low 32 bits of `x` to the
/// even positions.
#[inline]
fn spread_to_even_bits(x: u64) -> u64 {
    let mut x = x & 0x0000_0000_ffff_ffff;
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

impl std::fmt::Display for Geohash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (buf, n) = self.to_chars();
        // Alphabet is ASCII, so this is always valid UTF-8.
        f.write_str(std::str::from_utf8(&buf[..n]).expect("geohash digits are ASCII"))
    }
}

// Debug delegates to Display — geohashes read better as their character form
// in test failures and logs.
impl std::fmt::Debug for Geohash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Geohash({self})")
    }
}

impl std::str::FromStr for Geohash {
    type Err = GeohashError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let n = s.len();
        if n == 0 || n > MAX_GEOHASH_LEN as usize {
            return Err(GeohashError::BadLength(n));
        }
        let mut bits: u64 = 0;
        for ch in s.bytes() {
            let d = base32::decode_digit(ch).ok_or(GeohashError::BadCharacter(ch as char))?;
            bits = (bits << 5) | d as u64;
        }
        Ok(Geohash { bits, len: n as u8 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn known_encodings_match_reference() {
        // Reference values from geohash.org.
        let gh = Geohash::encode(37.7749, -122.4194, 6).unwrap(); // San Francisco
        assert_eq!(gh.to_string(), "9q8yyk");
        let gh = Geohash::encode(51.5074, -0.1278, 5).unwrap(); // London
        assert_eq!(gh.to_string(), "gcpvj");
        let gh = Geohash::encode(-33.8688, 151.2093, 7).unwrap(); // Sydney
        assert_eq!(gh.to_string(), "r3gx2f7");
    }

    #[test]
    fn roundtrip_string() {
        for s in ["9q8y7", "gcpvj", "s", "zzzzzzzzzzzz", "0000", "9Q8Y7"] {
            let gh = Geohash::from_str(s).unwrap();
            assert_eq!(gh.to_string(), s.to_ascii_lowercase());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Geohash::from_str("").is_err());
        assert!(Geohash::from_str("abc").is_err()); // 'a' invalid
        assert!(Geohash::from_str("9q8y7gggggggg").is_err()); // 13 chars
    }

    #[test]
    fn bbox_contains_encoded_point() {
        let (lat, lon) = (40.018, -105.274); // Boulder, CO
        for len in 1..=9u8 {
            let gh = Geohash::encode(lat, lon, len).unwrap();
            let b = gh.bbox();
            assert!(b.contains(lat, lon), "len {len}: {b} missing point");
        }
    }

    #[test]
    fn parent_child_nesting() {
        let gh = Geohash::from_str("9q8y7").unwrap();
        let parent = gh.parent().unwrap();
        assert_eq!(parent.to_string(), "9q8y");
        assert!(parent.bbox().encloses(&gh.bbox()));
        let children: Vec<_> = gh.children().unwrap().collect();
        assert_eq!(children.len(), 32);
        for c in &children {
            assert_eq!(c.parent().unwrap(), gh);
            assert!(gh.bbox().encloses(&c.bbox()));
            assert!(c.is_within(&gh));
        }
        // Children tile the parent exactly.
        let total: f64 = children.iter().map(|c| c.bbox().area_deg2()).sum();
        assert!((total - gh.bbox().area_deg2()).abs() < 1e-9);
    }

    #[test]
    fn paper_example_neighbors() {
        // Fig. 1a: the 8 spatial neighbors of 9q8y7.
        let gh = Geohash::from_str("9q8y7").unwrap();
        let mut names: Vec<String> = gh.neighbors().iter().map(|g| g.to_string()).collect();
        names.sort();
        let mut expected = vec![
            "9q8yd", "9q8ye", "9q8ys", "9q8yk", "9q8yh", "9q8y5", "9q8y4", "9q8y6",
        ];
        expected.sort_unstable();
        assert_eq!(names, expected);
    }

    #[test]
    fn paper_example_parent() {
        // §IV-B: "the spatial parent of Geohash region 9q8y7 is 9q8y".
        let gh = Geohash::from_str("9q8y7").unwrap();
        assert_eq!(gh.parent().unwrap().to_string(), "9q8y");
    }

    #[test]
    fn neighbors_at_pole_are_fewer() {
        // A cell touching the north pole has no northern neighbors.
        let gh = Geohash::encode(89.9, 0.0, 3).unwrap();
        let ns = gh.neighbors();
        assert!(
            ns.len() < 8,
            "expected < 8 neighbors at pole, got {}",
            ns.len()
        );
        for n in &ns {
            assert_eq!(n.len(), 3);
        }
    }

    #[test]
    fn neighbors_wrap_antimeridian() {
        let gh = Geohash::encode(0.0, 179.9, 4).unwrap();
        let ns = gh.neighbors();
        assert_eq!(ns.len(), 8);
        // Some neighbor must lie in the western hemisphere (wrapped).
        assert!(ns.iter().any(|n| n.center().1 < 0.0));
    }

    #[test]
    fn antipode_is_involutive_about_center() {
        let gh = Geohash::from_str("9q8y").unwrap();
        let anti = gh.antipode();
        let (lat, lon) = gh.center();
        let (alat, alon) = anti.center();
        assert!((lat + alat).abs() < 1.0, "lat {lat} vs {alat}");
        let dlon = (lon - alon).abs();
        assert!((dlon - 180.0).abs() < 1.0, "lon {lon} vs {alon}");
        // Antipode of antipode comes back to (approximately) the origin cell.
        assert_eq!(anti.antipode(), gh);
    }

    #[test]
    fn prefix_and_is_within() {
        let gh = Geohash::from_str("9q8y7k").unwrap();
        assert_eq!(gh.prefix(2).unwrap().to_string(), "9q");
        assert_eq!(gh.prefix(6).unwrap(), gh);
        assert!(gh.prefix(0).is_none());
        assert!(gh.prefix(7).is_none());
        assert!(gh.is_within(&Geohash::from_str("9q").unwrap()));
        assert!(!gh.is_within(&Geohash::from_str("9r").unwrap()));
        assert!(!Geohash::from_str("9q").unwrap().is_within(&gh));
    }

    #[test]
    fn cell_extent_matches_bbox() {
        for len in 1..=8u8 {
            let gh = Geohash::encode(10.0, 20.0, len).unwrap();
            let b = gh.bbox();
            let (h, w) = Geohash::cell_extent(len);
            assert!((b.lat_extent() - h).abs() < 1e-9, "len {len}");
            assert!((b.lon_extent() - w).abs() < 1e-9, "len {len}");
        }
    }

    #[test]
    fn ordering_groups_shared_prefixes() {
        let a = Geohash::from_str("9q8y0").unwrap();
        let b = Geohash::from_str("9q8yz").unwrap();
        let c = Geohash::from_str("9q900").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn from_bits_validates() {
        assert!(Geohash::from_bits(31, 1).is_ok());
        assert!(Geohash::from_bits(32, 1).is_err()); // uses bit 6
        assert!(Geohash::from_bits(0, 0).is_err());
        assert!(Geohash::from_bits(0, 13).is_err());
    }

    #[test]
    fn lon_180_wraps() {
        let gh = Geohash::encode(0.0, 180.0, 4).unwrap();
        let gh2 = Geohash::encode(0.0, -180.0, 4).unwrap();
        assert_eq!(gh, gh2);
    }

    #[test]
    fn perturb_same_length_and_nearby() {
        let gh = Geohash::from_str("9q8y").unwrap();
        for seed in 0..32u64 {
            let p = gh.perturb(seed);
            assert_eq!(p.len(), gh.len());
            assert_ne!(p, gh);
        }
    }
}
