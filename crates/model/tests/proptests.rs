//! Property tests for the Cell/summary algebra — the invariants that make
//! collective caching sound: aggregation must commute with partitioning.

use proptest::prelude::*;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{
    AggFunc, AggQuery, Cell, CellKey, CellSummary, FlatPartials, SketchSpec, SummaryStats,
};

fn arb_values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1000.0f64..1000.0, 0..max_len)
}

/// Row counts on both sides of the promotion points of the small spec in
/// `sketched_cells_merge_across_promotion`: a few rows keep both sketch
/// arrays sparse, a dozen or more promote them, a hundred saturate them.
fn arb_spanning_rows() -> impl Strategy<Value = Vec<[i32; 2]>> {
    let row = || prop::array::uniform2(-100i32..100);
    prop_oneof![
        prop::collection::vec(row(), 0..4),
        prop::collection::vec(row(), 4..30),
        prop::collection::vec(row(), 100..200),
    ]
}

proptest! {
    #[test]
    fn merge_commutes(a in arb_values(50), b in arb_values(50)) {
        let sa = SummaryStats::from_values(&a);
        let sb = SummaryStats::from_values(&b);
        prop_assert_eq!(sa.merged(&sb), sb.merged(&sa));
    }

    #[test]
    fn merge_associates(a in arb_values(20), b in arb_values(20), c in arb_values(20)) {
        let (sa, sb, sc) = (
            SummaryStats::from_values(&a),
            SummaryStats::from_values(&b),
            SummaryStats::from_values(&c),
        );
        let left = sa.merged(&sb).merged(&sc);
        let right = sa.merged(&sb.merged(&sc));
        // count/min/max associate exactly; sums only up to float
        // reassociation error.
        prop_assert_eq!(left.count, right.count);
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
        prop_assert!((left.sum - right.sum).abs() < 1e-6 * (1.0 + right.sum.abs()));
        prop_assert!((left.sum_sq - right.sum_sq).abs() < 1e-6 * (1.0 + right.sum_sq.abs()));
    }

    #[test]
    fn partition_then_merge_equals_whole(values in arb_values(100), split in 0usize..100) {
        let split = split.min(values.len());
        let (lo, hi) = values.split_at(split);
        let merged = SummaryStats::from_values(lo).merged(&SummaryStats::from_values(hi));
        let whole = SummaryStats::from_values(&values);
        // count/min/max are exact; sums may differ by float reassociation.
        prop_assert_eq!(merged.count, whole.count);
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert!((merged.sum - whole.sum).abs() < 1e-6 * (1.0 + whole.sum.abs()));
    }

    #[test]
    fn stats_are_consistent(values in arb_values(100)) {
        let s = SummaryStats::from_values(&values);
        if let (Some(min), Some(max), Some(mean)) = (s.min(), s.max(), s.mean()) {
            prop_assert!(min <= mean + 1e-9 && mean <= max + 1e-9);
            prop_assert!(s.variance().unwrap() >= 0.0);
            let spread = max - min;
            prop_assert!(s.stddev().unwrap() <= spread + 1e-9);
        } else {
            prop_assert!(values.is_empty());
        }
    }

    #[test]
    fn cell_key_roundtrips_through_level(
        (lat, lon) in (-90.0f64..=90.0, -180.0f64..180.0),
        s_res in 1u8..=10,
        t in -1_000_000_000i64..2_000_000_000,
        t_idx in 0u8..4,
    ) {
        let res = TemporalRes::from_index(t_idx).unwrap();
        let key = CellKey::new(
            Geohash::encode(lat, lon, s_res).unwrap(),
            TimeBin::containing(res, t),
        );
        let level = key.level();
        prop_assert_eq!(level.spatial_res(), s_res);
        prop_assert_eq!(level.temporal_res(), res);
    }

    #[test]
    fn parents_strictly_enclose(
        (lat, lon) in (-90.0f64..=90.0, -180.0f64..180.0),
        s_res in 2u8..=9,
        t in 0i64..2_000_000_000,
    ) {
        let key = CellKey::new(
            Geohash::encode(lat, lon, s_res).unwrap(),
            TimeBin::containing(TemporalRes::Day, t),
        );
        for p in key.parents() {
            prop_assert!(key.is_within(&p));
            prop_assert!(!p.is_within(&key) || p == key);
            prop_assert!(p.level() < key.level());
        }
    }

    #[test]
    fn query_cell_count_matches_enumeration(
        lat in -60.0f64..60.0,
        lon in -150.0f64..150.0,
        dlat in 0.1f64..3.0,
        dlon in 0.1f64..3.0,
        s_res in 2u8..=4,
    ) {
        let q = AggQuery::new(
            BBox::from_corner_extent(lat, lon, dlat, dlon),
            TimeRange::whole_day(2015, 2, 2),
            s_res,
            TemporalRes::Day,
        );
        let keys = q.target_keys(1_000_000).unwrap();
        prop_assert_eq!(keys.len(), q.target_cell_count());
        // No duplicates.
        let set: std::collections::HashSet<_> = keys.iter().collect();
        prop_assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn from_children_is_order_independent(
        rows in prop::collection::vec((0usize..4, -100.0f64..100.0), 1..60),
    ) {
        // Distribute rows over 4 child cells, then merge in two different
        // orders; count/min/max must be identical.
        let parent = CellKey::new(
            Geohash::encode(40.0, -105.0, 3).unwrap(),
            TimeBin::containing(TemporalRes::Day, 0),
        );
        let child_keys = parent.spatial_children().unwrap();
        let mut kids: Vec<Cell> = (0..4).map(|i| Cell::empty(child_keys[i], 1)).collect();
        for (slot, v) in &rows {
            kids[*slot].summary.push_row(&[*v]);
        }
        let forward = Cell::from_children(parent, 1, kids.iter());
        let backward = Cell::from_children(parent, 1, kids.iter().rev());
        prop_assert_eq!(forward.summary.count(), backward.summary.count());
        prop_assert_eq!(
            forward.summary.attr(0).unwrap().min(),
            backward.summary.attr(0).unwrap().min()
        );
        prop_assert_eq!(
            forward.summary.attr(0).unwrap().max(),
            backward.summary.attr(0).unwrap().max()
        );
    }

    #[test]
    fn agg_funcs_total_on_nonempty(values in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let s = SummaryStats::from_values(&values);
        for f in [AggFunc::Count, AggFunc::Min, AggFunc::Max, AggFunc::Sum, AggFunc::Mean, AggFunc::StdDev] {
            prop_assert!(f.apply(&s).is_some(), "{f:?} undefined on non-empty summary");
        }
    }

    #[test]
    fn cell_summary_merge_matches_row_union(
        rows_a in prop::collection::vec(prop::array::uniform2(-100.0f64..100.0), 0..30),
        rows_b in prop::collection::vec(prop::array::uniform2(-100.0f64..100.0), 0..30),
    ) {
        let mut a = CellSummary::empty(2);
        for r in &rows_a { a.push_row(r); }
        let mut b = CellSummary::empty(2);
        for r in &rows_b { b.push_row(r); }
        let mut union = CellSummary::empty(2);
        for r in rows_a.iter().chain(&rows_b) { union.push_row(r); }
        a.merge(&b);
        prop_assert_eq!(a.count(), union.count());
        for i in 0..2 {
            prop_assert_eq!(a.attr(i).unwrap().min(), union.attr(i).unwrap().min());
            prop_assert_eq!(a.attr(i).unwrap().max(), union.attr(i).unwrap().max());
        }
    }

    /// Sketch-carrying Cells keep the partition-merge law *bit-for-bit* on
    /// quantized data (the regime where the heavy-hitter candidate list is
    /// exactly order-invariant; quantiles and distinct counts are canonical
    /// on any data).
    #[test]
    fn sketched_cells_merge_matches_row_union(
        rows_a in prop::collection::vec(prop::array::uniform2(-50i32..50), 0..40),
        rows_b in prop::collection::vec(prop::array::uniform2(-50i32..50), 0..40),
    ) {
        let spec = SketchSpec::standard();
        let push = |cs: &mut CellSummary, rows: &[[i32; 2]]| {
            for r in rows {
                cs.push_row(&[r[0] as f64, r[1] as f64]);
            }
        };
        let mut a = CellSummary::empty_with(2, &spec);
        push(&mut a, &rows_a);
        let mut b = CellSummary::empty_with(2, &spec);
        push(&mut b, &rows_b);
        let mut union = CellSummary::empty_with(2, &spec);
        push(&mut union, &rows_a);
        push(&mut union, &rows_b);
        a.merge(&b);
        prop_assert_eq!(&a, &union);
        // Merging through a fresh exact-only accumulator (the gather seed
        // path) adopts sketch state instead of dropping it.
        let mut seed = CellSummary::empty(2);
        seed.merge(&union);
        prop_assert_eq!(&seed, &union);
    }

    /// The same law with operands on both sides of the sketches' promotion
    /// points, lifted from `stash-sketch`'s own suite: under a spec small
    /// enough that a dozen rows promote the register file (64 registers,
    /// dense from 15 non-zero) and the count-min matrix (16 × 2, dense from
    /// 8), two Cells merge sparse + sparse (staying or crossing), sparse +
    /// dense and dense + dense. Merge order, the union fold and the flat wire
    /// form must all agree.
    #[test]
    fn sketched_cells_merge_across_promotion(
        ra in arb_spanning_rows(), rb in arb_spanning_rows(), rc in arb_spanning_rows(),
    ) {
        let rows = [ra, rb, rc];
        let spec = SketchSpec { hll_precision: 6, cm_width: 16, cm_depth: 2, ..SketchSpec::standard() };
        let fold = |parts: &[&Vec<[i32; 2]>]| {
            let mut cs = CellSummary::empty_with(2, &spec);
            for r in parts.iter().flat_map(|p| p.iter()) {
                cs.push_row(&[r[0] as f64, r[1] as f64 * 0.5]);
            }
            cs
        };
        let [a, b, c] = [fold(&[&rows[0]]), fold(&[&rows[1]]), fold(&[&rows[2]])];
        let union = fold(&[&rows[0], &rows[1], &rows[2]]);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right = c.clone();
        right.merge(&b);
        let mut seed = CellSummary::empty(2);
        seed.merge(&a);
        seed.merge(&right);
        prop_assert_eq!(&left, &union);
        prop_assert_eq!(&seed, &union);
        // Equal states are one encoding, priced exactly, whatever route
        // (and so whatever sequence of forms) built them.
        let key = CellKey::new(
            Geohash::encode(40.0, -105.0, 4).unwrap(),
            TimeBin { res: TemporalRes::Day, idx: 16_470 },
        );
        let encode = |cs: &CellSummary| FlatPartials::encode(&[(key, cs.clone())]);
        let flat = encode(&union);
        prop_assert_eq!(&encode(&left), &flat);
        prop_assert_eq!(&encode(&seed), &flat);
        prop_assert_eq!(flat.wire_size(), 16 + 24 + union.wire_bytes());
        prop_assert_eq!(&flat.decode().unwrap()[0].1, &union);
    }

    /// A non-empty exact-only partial degrades the merged Cell to
    /// exact-only rather than keeping sketches that silently missed rows.
    #[test]
    fn mixed_merge_degrades_to_exact(
        rows in prop::collection::vec(prop::array::uniform2(-50i32..50), 1..20),
    ) {
        let spec = SketchSpec::standard();
        let mut sketched = CellSummary::empty_with(2, &spec);
        let mut exact = CellSummary::empty(2);
        for r in &rows {
            let row = [r[0] as f64, r[1] as f64];
            sketched.push_row(&row);
            exact.push_row(&row);
        }
        let mut merged = sketched.clone();
        merged.merge(&exact);
        prop_assert!(!merged.has_sketches());
        prop_assert_eq!(merged.count(), 2 * exact.count());
    }
}
