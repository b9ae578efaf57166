//! Property-based tests for the spatiotemporal label arithmetic that the
//! whole STASH graph is built on. Invariants here are load-bearing: a wrong
//! parent/child or cover would silently corrupt cached aggregates.

use proptest::prelude::*;
use stash_geo::time::{civil_from_days, days_from_civil, days_in_month, epoch_seconds};
use stash_geo::{cover_bbox, BBox, Geohash, TemporalRes, TimeBin, TimeRange};

fn arb_latlon() -> impl Strategy<Value = (f64, f64)> {
    (-90.0f64..=90.0, -180.0f64..180.0)
}

/// The bit-at-a-time de-interleave `Geohash::grid_index` replaced: bit 0
/// of the interleave (MSB of the packed digits) is longitude.
fn split_axes_loop(bits: u64, len: u8) -> (u64, u64) {
    let total = len as u32 * 5;
    let (mut lat, mut lon) = (0u64, 0u64);
    for i in 0..total {
        let bit = (bits >> (total - 1 - i)) & 1;
        if i % 2 == 0 {
            lon = (lon << 1) | bit;
        } else {
            lat = (lat << 1) | bit;
        }
    }
    (lat, lon)
}

/// The bit-at-a-time re-interleave `Geohash::from_grid_index` replaced.
fn from_axes_loop(lat_idx: u64, lon_idx: u64, len: u8) -> u64 {
    let total = len as u32 * 5;
    let (mut lat_left, mut lon_left) = Geohash::axis_bits(len);
    let mut bits = 0u64;
    for i in 0..total {
        bits <<= 1;
        if i % 2 == 0 {
            lon_left -= 1;
            bits |= (lon_idx >> lon_left) & 1;
        } else {
            lat_left -= 1;
            bits |= (lat_idx >> lat_left) & 1;
        }
    }
    bits
}

proptest! {
    #[test]
    fn encode_decode_contains_point(((lat, lon), len) in (arb_latlon(), 1u8..=10)) {
        let gh = Geohash::encode(lat, lon, len).unwrap();
        let b = gh.bbox();
        prop_assert!(b.contains_closed(lat, lon), "{b} vs ({lat},{lon})");
    }

    #[test]
    fn string_roundtrip(((lat, lon), len) in (arb_latlon(), 1u8..=12)) {
        let gh = Geohash::encode(lat, lon, len).unwrap();
        let s = gh.to_string();
        prop_assert_eq!(s.parse::<Geohash>().unwrap(), gh);
        prop_assert_eq!(s.len(), len as usize);
    }

    #[test]
    fn parent_encloses_child(((lat, lon), len) in (arb_latlon(), 2u8..=10)) {
        let child = Geohash::encode(lat, lon, len).unwrap();
        let parent = child.parent().unwrap();
        prop_assert!(parent.bbox().encloses(&child.bbox()));
        prop_assert!(child.is_within(&parent));
        // Encoding the same point at the parent length gives the parent.
        prop_assert_eq!(Geohash::encode(lat, lon, len - 1).unwrap(), parent);
    }

    #[test]
    fn children_partition_parent(((lat, lon), len) in (arb_latlon(), 1u8..=6)) {
        let gh = Geohash::encode(lat, lon, len).unwrap();
        let children: Vec<Geohash> = gh.children().unwrap().collect();
        prop_assert_eq!(children.len(), 32);
        let area: f64 = children.iter().map(|c| c.bbox().area_deg2()).sum();
        prop_assert!((area - gh.bbox().area_deg2()).abs() < 1e-6);
        for c in &children {
            prop_assert_eq!(c.parent().unwrap(), gh);
        }
    }

    #[test]
    fn neighbors_are_adjacent_and_mutual(((lat, lon), len) in (arb_latlon(), 2u8..=7)) {
        let gh = Geohash::encode(lat.clamp(-85.0, 85.0), lon, len).unwrap();
        let b = gh.bbox();
        let ns = gh.neighbors();
        prop_assert!(ns.len() <= 8);
        for n in &ns {
            let nb = n.bbox();
            // Adjacent: closed boxes touch (allow antimeridian wrap).
            let lat_touch = nb.min_lat <= b.max_lat + 1e-9 && nb.max_lat >= b.min_lat - 1e-9;
            prop_assert!(lat_touch, "{gh} and {n} not lat-adjacent");
            // Mutual: gh must be a neighbor of each neighbor.
            prop_assert!(n.neighbors().contains(&gh), "{n} doesn't list {gh}");
        }
    }

    #[test]
    fn antipode_has_same_len_and_far_center(((lat, lon), len) in (arb_latlon(), 1u8..=8)) {
        let gh = Geohash::encode(lat, lon, len).unwrap();
        let anti = gh.antipode();
        prop_assert_eq!(anti.len(), gh.len());
        let (la, lo) = gh.center();
        let (aa, ao) = anti.center();
        // Great-circle separation of centers must be large: check the
        // chord in 3D to avoid longitude-wrap headaches.
        let to_xyz = |lat: f64, lon: f64| {
            let (latr, lonr) = (lat.to_radians(), lon.to_radians());
            (latr.cos() * lonr.cos(), latr.cos() * lonr.sin(), latr.sin())
        };
        let (x1, y1, z1) = to_xyz(la, lo);
        let (x2, y2, z2) = to_xyz(aa, ao);
        let dot = x1 * x2 + y1 * y2 + z1 * z2;
        prop_assert!(dot < 0.0, "antipode center not in opposite hemisphere (dot={dot})");
    }

    #[test]
    fn cover_includes_every_interior_point(
        (lat, lon) in arb_latlon(),
        dlat in 0.01f64..4.0,
        dlon in 0.01f64..4.0,
        len in 2u8..=4,
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let q = BBox::from_corner_extent(lat.min(85.0), lon.min(175.0), dlat, dlon);
        let cover = cover_bbox(&q, len);
        // Any interior sample point's cell is in the cover.
        let plat = q.min_lat + fy * q.lat_extent() * 0.999;
        let plon = q.min_lon + fx * q.lon_extent() * 0.999;
        if q.contains(plat, plon) {
            let cell = Geohash::encode(plat, plon, len).unwrap();
            prop_assert!(cover.contains(&cell), "point cell {cell} missing from cover of {q}");
        }
        for gh in &cover {
            prop_assert!(gh.bbox().intersects(&q));
        }
    }

    #[test]
    fn civil_date_roundtrip(z in -1_000_000i64..1_000_000) {
        let (y, m, d) = civil_from_days(z);
        prop_assert!((1..=12).contains(&m));
        prop_assert!(d >= 1 && d <= days_in_month(y, m));
        prop_assert_eq!(days_from_civil(y, m, d), z);
    }

    #[test]
    fn time_bin_contains_its_timestamp(t in -2_000_000_000i64..4_000_000_000) {
        for res in TemporalRes::ALL {
            let bin = TimeBin::containing(res, t);
            prop_assert!(bin.range().contains(t), "{res}: {t}");
            // Start of bin maps back to the same bin.
            prop_assert_eq!(TimeBin::containing(res, bin.start()), bin);
            prop_assert_eq!(TimeBin::containing(res, bin.end()), bin.next());
        }
    }

    #[test]
    fn time_parents_nest(t in -2_000_000_000i64..4_000_000_000) {
        let hour = TimeBin::containing(TemporalRes::Hour, t);
        let day = hour.parent().unwrap();
        let month = day.parent().unwrap();
        let year = month.parent().unwrap();
        prop_assert!(hour.is_within(&day));
        prop_assert!(day.is_within(&month));
        prop_assert!(month.is_within(&year));
        prop_assert!(hour.is_within(&year));
        prop_assert_eq!(day.res, TemporalRes::Day);
        prop_assert_eq!(year.res, TemporalRes::Year);
    }

    #[test]
    fn time_children_tile_parent(t in 0i64..4_000_000_000) {
        for res in [TemporalRes::Year, TemporalRes::Month, TemporalRes::Day] {
            let bin = TimeBin::containing(res, t);
            let kids = bin.children().unwrap();
            prop_assert_eq!(kids.len() as u32, bin.child_count().unwrap());
            prop_assert_eq!(kids.first().unwrap().start(), bin.start());
            prop_assert_eq!(kids.last().unwrap().end(), bin.end());
            for w in kids.windows(2) {
                prop_assert_eq!(w[0].end(), w[1].start());
            }
        }
    }

    #[test]
    fn cover_range_tiles(start in -10_000_000i64..10_000_000, dur in 1i64..10_000_000) {
        let range = TimeRange::new(start, start + dur).unwrap();
        for res in TemporalRes::ALL {
            let bins = TimeBin::cover_range(res, range);
            prop_assert_eq!(bins.len(), TimeBin::cover_range_len(res, range));
            prop_assert!(bins.first().unwrap().range().contains(range.start));
            prop_assert!(bins.last().unwrap().range().contains(range.end - 1));
        }
    }

    #[test]
    fn bbox_pan_preserves_extent(
        (lat, lon) in arb_latlon(), dlat in -30.0f64..30.0, dlon in -30.0f64..30.0,
    ) {
        let b = BBox::from_corner_extent(lat.min(80.0), lon.min(170.0), 4.0, 8.0);
        let p = b.pan(dlat, dlon);
        prop_assert!((p.lat_extent() - b.lat_extent()).abs() < 1e-9);
        prop_assert!((p.lon_extent() - b.lon_extent()).abs() < 1e-9);
        prop_assert!(p.min_lat >= -90.0 && p.max_lat <= 90.0);
        prop_assert!(p.min_lon >= -180.0 && p.max_lon <= 180.0);
    }

    #[test]
    fn epoch_seconds_monotone_in_days(
        y in 1900i64..2100, m in 1u32..=12, d1 in 1u32..=28, d2 in 1u32..=28,
    ) {
        let a = epoch_seconds(y, m, d1, 0, 0, 0);
        let b = epoch_seconds(y, m, d2, 0, 0, 0);
        prop_assert_eq!(a < b, d1 < d2);
        prop_assert_eq!((b - a).abs() % 86_400, 0);
    }

    /// The mask-and-shift (de)interleave equals the loops it replaced at
    /// every length, and `offset`/`neighbors` built on it are unchanged —
    /// poles and the antimeridian included (random digits reach both).
    #[test]
    fn grid_index_equals_loop_reference(
        (raw, dy, dx) in (any::<u64>(), -3i64..=3, -3i64..=3),
    ) {
        for len in 1u8..=12 {
            let bits = raw & ((1u64 << (5 * len as u32)) - 1);
            let gh = Geohash::from_bits(bits, len).unwrap();
            let (lat, lon) = gh.grid_index();
            prop_assert_eq!((lat, lon), split_axes_loop(bits, len), "split, len {}", len);
            prop_assert_eq!(from_axes_loop(lat, lon, len), bits, "loop join, len {}", len);
            prop_assert_eq!(Geohash::from_grid_index(lat, lon, len).unwrap(), gh);

            let (lat_bits, lon_bits) = Geohash::axis_bits(len);
            prop_assert!(Geohash::from_grid_index(1 << lat_bits, lon, len).is_err());
            prop_assert!(Geohash::from_grid_index(lat, 1 << lon_bits, len).is_err());
            let offset_ref = |dy: i64, dx: i64| {
                let new_lat = lat as i64 + dy;
                (0..1i64 << lat_bits).contains(&new_lat).then(|| {
                    let new_lon = (lon as i64 + dx).rem_euclid(1i64 << lon_bits);
                    let bits = from_axes_loop(new_lat as u64, new_lon as u64, len);
                    Geohash::from_bits(bits, len).unwrap()
                })
            };
            prop_assert_eq!(gh.offset(dy, dx), offset_ref(dy, dx), "offset, len {}", len);
            let ring: Vec<Geohash> = [-1i64, 0, 1]
                .into_iter()
                .flat_map(|dy| [-1i64, 0, 1].map(|dx| (dy, dx)))
                .filter(|&d| d != (0, 0))
                .filter_map(|(dy, dx)| offset_ref(dy, dx))
                .collect();
            prop_assert_eq!(gh.neighbors(), ring, "neighbors, len {}", len);
        }
    }
}
