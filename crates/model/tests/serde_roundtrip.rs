//! Wire-format tests: the front-end protocol is JSON (paper §VI-A — the
//! Grafana panel "parses and displays summarization responses in JSON"),
//! so every type crossing the client boundary must round-trip through
//! serde_json without loss.

use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{AggQuery, Cell, CellKey, CellSummary, QueryResult, SketchSpec, SummaryStats};
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

#[test]
fn raw_and_sketched_bundles_roundtrip_through_json() {
    // Up to 64 rows a bundle is a raw run of values, past them sketches;
    // each serializes as its own form and comes back as it was.
    for rows in [0usize, 2, 64, 65, 300] {
        let mut s = CellSummary::empty_with(2, &SketchSpec::standard());
        for i in 0..rows {
            s.push_row(&[i as f64 * 0.5, (i % 9) as f64]);
        }
        roundtrip(&s);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json.contains("\"raw\""), rows <= 64, "{rows} rows: {json}");
        assert_eq!(json.contains("\"quantile\""), rows > 64, "{rows} rows");
    }
}
