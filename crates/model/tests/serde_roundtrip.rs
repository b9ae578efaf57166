//! Wire-format tests: the front-end protocol is JSON (paper §VI-A — the
//! Grafana panel "parses and displays summarization responses in JSON"),
//! so every type crossing the client boundary must round-trip through
//! serde_json without loss.

use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{
    AggQuery, Cell, CellKey, CellSummary, FlatPartials, QueryResult, SketchSpec, SummaryStats,
};
use std::str::FromStr;

fn sample_key() -> CellKey {
    CellKey::new(
        Geohash::from_str("9q8y7").unwrap(),
        TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0)),
    )
}

fn sample_cell() -> Cell {
    let mut c = Cell::empty(sample_key(), 4);
    c.summary.push_row(&[21.5, 68.0, 0.0, 0.0]);
    c.summary.push_row(&[-3.25, 91.5, 4.2, 12.0]);
    c
}

fn roundtrip<T: serde::Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug>(
    v: &T,
) {
    let json = serde_json::to_string(v).expect("serialize");
    let back: T = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(&back, v, "lossy roundtrip via {json}");
}

#[test]
fn geohash_roundtrips() {
    for s in ["9", "9q8y7", "zzzzzzzzzzzz", "0000"] {
        roundtrip(&Geohash::from_str(s).unwrap());
    }
}

#[test]
fn time_types_roundtrip() {
    roundtrip(&TimeBin::containing(
        TemporalRes::Hour,
        epoch_seconds(2015, 7, 4, 13, 0, 0),
    ));
    roundtrip(&TimeRange::whole_day(2015, 2, 2));
    for res in TemporalRes::ALL {
        roundtrip(&res);
    }
}

#[test]
fn bbox_roundtrips() {
    roundtrip(&BBox::from_corner_extent(38.0, -105.0, 0.6, 1.2));
    roundtrip(&BBox::GLOBE);
}

#[test]
fn summary_stats_roundtrip_including_empty() {
    roundtrip(&SummaryStats::from_values(&[1.5, -2.25, 1e6]));
    // The empty summary's in-memory ±infinity sentinels travel as nulls.
    let empty = SummaryStats::empty();
    let json = serde_json::to_string(&empty).expect("empty serializes");
    assert!(
        json.contains("\"min\":null"),
        "wire form uses null extremes: {json}"
    );
    roundtrip(&empty);
    // A corrupt wire value (non-empty without extremes) is rejected.
    let bad = r#"{"count":3,"min":null,"max":null,"sum":1.0,"sum_sq":1.0}"#;
    assert!(serde_json::from_str::<SummaryStats>(bad).is_err());
}

#[test]
fn cell_and_key_roundtrip() {
    roundtrip(&sample_key());
    roundtrip(&sample_cell());
    roundtrip(&CellSummary::from_parts(vec![SummaryStats::of(5.0); 3]));
}

#[test]
fn query_roundtrips() {
    let q = AggQuery::new(
        BBox::from_corner_extent(38.0, -105.0, 4.0, 8.0),
        TimeRange::whole_day(2015, 2, 2),
        4,
        TemporalRes::Day,
    );
    roundtrip(&q);
}

#[test]
fn query_result_roundtrips_and_is_renderable() {
    let r = QueryResult {
        cells: vec![sample_cell()],
        cache_hits: 3,
        derived_hits: 1,
        misses: 2,
        rollup_hits: 1,
    };
    roundtrip(&r);
    // The JSON shape a front-end consumes: cells carry keys and summaries.
    let v: serde_json::Value = serde_json::to_value(&r).unwrap();
    assert!(v["cells"].is_array());
    assert_eq!(v["cells"].as_array().unwrap().len(), 1);
    assert_eq!(v["cache_hits"], 3);
    assert_eq!(v["rollup_hits"], 1);
}

#[test]
fn json_is_stable_across_serializations() {
    let c = sample_cell();
    let a = serde_json::to_string(&c).unwrap();
    let b = serde_json::to_string(&c).unwrap();
    assert_eq!(a, b, "serialization must be deterministic");
}

/// Regression pin for the pre-sketch wire format: an exact-only summary
/// must serialize byte-for-byte as it did before `CellStats` learned to
/// carry sketches — no `"sketches"` key, same field order, null extremes
/// for empty attributes.
#[test]
fn exact_only_wire_format_is_unchanged() {
    let mut s = CellSummary::empty(2);
    s.push_row(&[2.0, -4.5]);
    let json = serde_json::to_string(&s).unwrap();
    assert_eq!(
        json,
        concat!(
            r#"{"summaries":["#,
            r#"{"count":1,"min":2.0,"max":2.0,"sum":2.0,"sum_sq":4.0},"#,
            r#"{"count":1,"min":-4.5,"max":-4.5,"sum":-4.5,"sum_sq":20.25}"#,
            r#"]}"#
        )
    );
    let empty = serde_json::to_string(&CellSummary::empty(1)).unwrap();
    assert_eq!(
        empty,
        r#"{"summaries":[{"count":0,"min":null,"max":null,"sum":0.0,"sum_sq":0.0}]}"#
    );
    assert!(!json.contains("sketches"));
}

#[test]
fn sketched_cells_roundtrip() {
    let mut s = CellSummary::empty_with(2, &SketchSpec::standard());
    s.push_row(&[21.0, 68.0]);
    s.push_row(&[-3.0, 91.0]);
    assert!(s.has_sketches());
    roundtrip(&s);
    let json = serde_json::to_string(&s).unwrap();
    assert!(json.contains("\"sketches\""));
    // Sketch state participates in Cell/QueryResult wire forms untouched.
    let mut cell = Cell::empty(sample_key(), 2);
    cell.summary = s;
    roundtrip(&cell);
}

/// A two-attribute sketched Cell of `rows` rows over `distinct` values.
fn sketched_cell(rows: usize, distinct: usize) -> Cell {
    let mut c = Cell::empty(sample_key(), 2);
    c.summary = CellSummary::empty_with(2, &SketchSpec::standard());
    for i in 0..rows {
        let v = (i % distinct) as f64 * 0.5;
        c.summary.push_row(&[v, -v]);
    }
    c
}

fn flat_bytes(cells: &[Cell]) -> Vec<u8> {
    let parts: Vec<(CellKey, CellSummary)> =
        cells.iter().map(|c| (c.key, c.summary.clone())).collect();
    FlatPartials::encode(&parts).to_bytes()
}

#[test]
fn raw_and_sketched_bundles_roundtrip_through_json() {
    // Up to 64 rows a bundle is a raw run of values, past them sketches;
    // JSON carries either as the flat words that follow the summaries.
    for rows in [0usize, 2, 64, 65, 300] {
        let mut s = CellSummary::empty_with(2, &SketchSpec::standard());
        for i in 0..rows {
            s.push_row(&[i as f64 * 0.5, (i % 9) as f64]);
        }
        roundtrip(&s);
        let v = serde_json::to_value(&s).unwrap();
        let words = v["sketches"].as_array().expect("sketch words");
        assert_eq!(words.len() * 8, s.sketch_wire_bytes(), "{rows} rows");
        assert!(words.iter().all(|w| w.as_u64().is_some()), "{rows} rows");
    }
}

#[test]
fn query_results_of_raw_sparse_and_dense_bundles_roundtrip_bit_for_bit() {
    // 3 rows: raw runs. 200 rows over 10 values: sketches whose register
    // file and matrix are sparse lists. 3 000 distinct rows: dense arrays.
    let cells = vec![
        sketched_cell(3, 3),
        sketched_cell(200, 10),
        sketched_cell(3000, 3000),
    ];
    let forms: Vec<(bool, usize)> = cells
        .iter()
        .map(|c| {
            let b = c.summary.attr_sketches(0).unwrap();
            (b.is_raw(), b.to_sketches().1.flat_words())
        })
        .collect();
    // A p = 8 register file ships dense as 1 + 32 words.
    assert!(forms[0].0 && !forms[1].0 && !forms[2].0, "{forms:?}");
    assert!(forms[1].1 < 33 && forms[2].1 == 33, "{forms:?}");
    let r = QueryResult {
        cells,
        cache_hits: 1,
        derived_hits: 1,
        misses: 1,
        rollup_hits: 0,
    };
    let json = serde_json::to_string(&r).unwrap();
    let back: QueryResult = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    assert_eq!(flat_bytes(&back.cells), flat_bytes(&r.cells));
    assert_eq!(back.quantile(1, 0.5), r.quantile(1, 0.5));
}

/// `s`'s JSON with its sketch words edited by `edit`.
fn with_words(s: &CellSummary, edit: impl FnOnce(&mut Vec<u64>)) -> String {
    let v = serde_json::to_value(s).unwrap();
    let mut words: Vec<u64> = v["sketches"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.as_u64().unwrap())
        .collect();
    edit(&mut words);
    format!(
        r#"{{"summaries":{},"sketches":{}}}"#,
        serde_json::to_string(&v["summaries"]).unwrap(),
        serde_json::to_string(&words).unwrap()
    )
}

#[test]
fn corrupt_bundle_words_are_an_error_never_a_panic() {
    let raw = sketched_cell(2, 2).summary;
    let sketched = sketched_cell(300, 300).summary;
    for s in [&raw, &sketched] {
        let json = with_words(s, |_| {});
        assert_eq!(serde_json::from_str::<CellSummary>(&json).unwrap(), *s);
        let n = s.sketch_wire_bytes() / 8;
        for cut in 0..n {
            let json = with_words(s, |w| w.truncate(cut));
            assert!(
                serde_json::from_str::<CellSummary>(&json).is_err(),
                "cut {cut}"
            );
        }
        // A word past the last bundle.
        let json = with_words(s, |w| w.push(0));
        assert!(serde_json::from_str::<CellSummary>(&json).is_err());
    }
    // The quantile sketch opens a sketched bundle: α, budget, level, zero
    // count, |neg|, |pos|, then (index, count) pairs.
    let (quantile, _, _) = sketched.attr_sketches(0).unwrap().to_sketches();
    assert!(quantile.flat_words() > 6 + 2 * 4);
    let zero_count = with_words(&sketched, |w| w[7] = 0);
    assert!(serde_json::from_str::<CellSummary>(&zero_count).is_err());
    let over_budget = with_words(&sketched, |w| w[1] = 4);
    assert!(serde_json::from_str::<CellSummary>(&over_budget).is_err());
    // A raw run: a 3-word header, then its values ascending and canonical.
    let (lo, hi) = (0.0f64.to_bits(), 0.5f64.to_bits());
    assert_eq!(
        with_words(&raw, |_| {}),
        with_words(&raw, |w| w[3..5].copy_from_slice(&[lo, hi]))
    );
    let unsorted = with_words(&raw, |w| w[3..5].copy_from_slice(&[hi, lo]));
    assert!(serde_json::from_str::<CellSummary>(&unsorted).is_err());
    let negzero = with_words(&raw, |w| w[3] = (-0.0f64).to_bits());
    assert!(serde_json::from_str::<CellSummary>(&negzero).is_err());
}

#[test]
fn a_summary_of_no_rows_with_extremes_is_refused() {
    let bad = r#"{"count":0,"min":5.0,"max":null,"sum":0.0,"sum_sq":0.0}"#;
    assert!(serde_json::from_str::<SummaryStats>(bad).is_err());
    let cell = format!(r#"{{"summaries":[{bad}]}}"#);
    assert!(serde_json::from_str::<CellSummary>(&cell).is_err());
    let empty = r#"{"count":0,"min":null,"max":null,"sum":0.0,"sum_sq":0.0}"#;
    assert_eq!(
        serde_json::from_str::<SummaryStats>(empty).unwrap(),
        SummaryStats::empty()
    );
}
