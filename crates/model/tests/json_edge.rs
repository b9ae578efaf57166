//! The JSON edge: the front-end protocol is JSON (paper §VI-A — the
//! Grafana panel "parses and displays summarization responses in JSON"),
//! so an `AggQuery` and a `QueryResult` must cross it without loss, write
//! the same bytes as ever, and refuse what the flat wire refuses.

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

fn sample_query() -> AggQuery {
    AggQuery::new(
        BBox::from_corner_extent(38.0, -105.0, 4.0, 8.0),
        TimeRange::whole_day(2015, 2, 2),
        4,
        TemporalRes::Day,
    )
}

fn of_cells(cells: Vec<Cell>) -> QueryResult {
    QueryResult {
        cells,
        ..QueryResult::default()
    }
}

fn of_summary(summary: CellSummary) -> QueryResult {
    of_cells(vec![Cell::new(sample_key(), summary)])
}

fn decode_result(text: &str) -> Result<QueryResult, serde_json::Error> {
    QueryResult::from_json(&serde_json::parse(text)?)
}

fn decode_query(text: &str) -> Result<AggQuery, serde_json::Error> {
    AggQuery::from_json(&serde_json::parse(text)?)
}

fn compact(v: &serde_json::Value) -> String {
    serde_json::to_string(v).unwrap()
}

/// `r` through JSON text and back, lossless.
fn roundtrip(r: &QueryResult) {
    let json = compact(&r.to_json());
    let back = decode_result(&json).expect("deserialize");
    assert_eq!(&back, r, "lossy roundtrip via {json}");
}

fn roundtrip_query(q: &AggQuery) {
    let json = compact(&q.to_json());
    let back = decode_query(&json).expect("deserialize");
    assert_eq!(&back, q, "lossy roundtrip via {json}");
}

/// The JSON of `s` as a one-Cell result's summary.
fn summary_json(s: &CellSummary) -> serde_json::Value {
    of_summary(s.clone()).to_json()["cells"][0]["summary"].clone()
}

/// A one-Cell result document whose summary is the JSON text `summary`.
fn doc_with_summary(summary: &str) -> String {
    let key = compact(&of_summary(CellSummary::empty(1)).to_json()["cells"][0]["key"]);
    format!(
        r#"{{"cells":[{{"key":{key},"summary":{summary}}}],"cache_hits":0,"derived_hits":0,"misses":0,"rollup_hits":0}}"#
    )
}

/// The one summary a document decodes to, or its error.
fn decode_summary(summary: &str) -> Result<CellSummary, serde_json::Error> {
    let mut r = decode_result(&doc_with_summary(summary))?;
    Ok(r.cells.remove(0).summary)
}

#[test]
fn geohash_roundtrips() {
    for s in ["9", "9q8y7", "zzzzzzzzzzzz", "0000"] {
        let key = CellKey::new(Geohash::from_str(s).unwrap(), sample_key().time);
        roundtrip(&of_cells(vec![Cell::empty(key, 1)]));
    }
}

#[test]
fn time_types_roundtrip() {
    let hour = TimeBin::containing(TemporalRes::Hour, epoch_seconds(2015, 7, 4, 13, 0, 0));
    let key = CellKey::new(sample_key().geohash, hour);
    roundtrip(&of_cells(vec![Cell::empty(key, 1)]));
    roundtrip_query(&AggQuery {
        time: TimeRange::whole_day(2015, 2, 2),
        ..sample_query()
    });
    for res in TemporalRes::ALL {
        let key = CellKey::new(sample_key().geohash, TimeBin { res, idx: -3 });
        roundtrip(&of_cells(vec![Cell::empty(key, 1)]));
        roundtrip_query(&AggQuery {
            temporal_res: res,
            ..sample_query()
        });
    }
}

#[test]
fn bbox_roundtrips() {
    for bbox in [
        BBox::from_corner_extent(38.0, -105.0, 0.6, 1.2),
        BBox::GLOBE,
    ] {
        roundtrip_query(&AggQuery {
            bbox,
            ..sample_query()
        });
    }
}

#[test]
fn summary_stats_roundtrip_including_empty() {
    let one = |s: SummaryStats| CellSummary::from_parts([s]);
    let values = SummaryStats::from_values(&[1.5, -2.25, 1e6]);
    roundtrip(&of_summary(one(values)));
    // The empty summary's in-memory ±infinity sentinels travel as nulls.
    let empty = one(SummaryStats::empty());
    let json = compact(&summary_json(&empty));
    assert!(
        json.contains("\"min\":null"),
        "wire form uses null extremes: {json}"
    );
    roundtrip(&of_summary(empty));
    // A corrupt wire value (non-empty without extremes) is rejected.
    let bad = r#"{"count":3,"min":null,"max":null,"sum":1.0,"sum_sq":1.0}"#;
    assert!(decode_summary(&format!(r#"{{"summaries":[{bad}]}}"#)).is_err());
}

#[test]
fn cell_and_key_roundtrip() {
    roundtrip(&of_cells(vec![Cell::empty(sample_key(), 0)]));
    roundtrip(&of_cells(vec![sample_cell()]));
    let three = vec![SummaryStats::of(5.0); 3];
    roundtrip(&of_summary(CellSummary::from_parts(three)));
}

#[test]
fn query_roundtrips() {
    roundtrip_query(&sample_query());
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
    let v = r.to_json();
    assert!(v["cells"].is_array());
    assert_eq!(v["cells"].as_array().unwrap().len(), 1);
    assert_eq!(v["cache_hits"], 3);
    assert_eq!(v["rollup_hits"], 1);
}

#[test]
fn json_is_stable_across_serializations() {
    let r = of_cells(vec![sample_cell()]);
    let a = compact(&r.to_json());
    let b = compact(&r.to_json());
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
    let json = compact(&summary_json(&s));
    assert_eq!(
        json,
        concat!(
            r#"{"summaries":["#,
            r#"{"count":1,"min":2.0,"max":2.0,"sum":2.0,"sum_sq":4.0},"#,
            r#"{"count":1,"min":-4.5,"max":-4.5,"sum":-4.5,"sum_sq":20.25}"#,
            r#"]}"#
        )
    );
    let empty = compact(&summary_json(&CellSummary::empty(1)));
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
    roundtrip(&of_summary(s.clone()));
    let json = compact(&summary_json(&s));
    assert!(json.contains("\"sketches\""));
    // Sketch state participates in Cell/QueryResult wire forms untouched.
    let mut cell = Cell::empty(sample_key(), 2);
    cell.summary = s;
    roundtrip(&of_cells(vec![cell]));
}

/// A two-attribute sketched Cell of `rows` rows over `distinct` values.
fn sketched_cell(rows: usize, distinct: usize) -> Cell {
    sketched_cell_at(sample_key(), 2, rows, distinct)
}

/// A sketched Cell of `attrs` (1 or 2) attributes: `rows` rows over
/// `distinct` values `v`, pushed as `[v, -v]`.
fn sketched_cell_at(key: CellKey, attrs: usize, rows: usize, distinct: usize) -> Cell {
    let mut c = Cell::empty(key, attrs);
    c.summary = CellSummary::empty_with(attrs, &SketchSpec::standard());
    for i in 0..rows {
        let v = (i % distinct) as f64 * 0.5;
        c.summary.push_row(&[v, -v][..attrs]);
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
        roundtrip(&of_summary(s.clone()));
        let v = summary_json(&s);
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
    let json = compact(&r.to_json());
    let back = decode_result(&json).unwrap();
    assert_eq!(back, r);
    assert_eq!(compact(&back.to_json()), json);
    assert_eq!(flat_bytes(&back.cells), flat_bytes(&r.cells));
    assert_eq!(back.quantile(1, 0.5), r.quantile(1, 0.5));
}

/// `s`'s JSON with its sketch words edited by `edit`.
fn with_words(s: &CellSummary, edit: impl FnOnce(&mut Vec<u64>)) -> String {
    let v = summary_json(s);
    let mut words: Vec<u64> = v["sketches"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.as_u64().unwrap())
        .collect();
    edit(&mut words);
    format!(
        r#"{{"summaries":{},"sketches":{}}}"#,
        compact(&v["summaries"]),
        compact(&words.into())
    )
}

#[test]
fn corrupt_bundle_words_are_an_error_never_a_panic() {
    let raw = sketched_cell(2, 2).summary;
    let sketched = sketched_cell(300, 300).summary;
    for s in [&raw, &sketched] {
        let json = with_words(s, |_| {});
        assert_eq!(decode_summary(&json).unwrap(), *s);
        let n = s.sketch_wire_bytes() / 8;
        for cut in 0..n {
            let json = with_words(s, |w| w.truncate(cut));
            assert!(decode_summary(&json).is_err(), "cut {cut}");
        }
        // A word past the last bundle.
        let json = with_words(s, |w| w.push(0));
        assert!(decode_summary(&json).is_err());
    }
    // The quantile sketch opens a sketched bundle: α, budget, level, zero
    // count, |neg|, |pos|, then (index, count) pairs.
    let (quantile, _, _) = sketched.attr_sketches(0).unwrap().to_sketches();
    assert!(quantile.flat_words() > 6 + 2 * 4);
    let zero_count = with_words(&sketched, |w| w[7] = 0);
    assert!(decode_summary(&zero_count).is_err());
    let over_budget = with_words(&sketched, |w| w[1] = 4);
    assert!(decode_summary(&over_budget).is_err());
    // A raw run: a 3-word header, then its values ascending and canonical.
    let (lo, hi) = (0.0f64.to_bits(), 0.5f64.to_bits());
    assert_eq!(
        with_words(&raw, |_| {}),
        with_words(&raw, |w| w[3..5].copy_from_slice(&[lo, hi]))
    );
    let unsorted = with_words(&raw, |w| w[3..5].copy_from_slice(&[hi, lo]));
    assert!(decode_summary(&unsorted).is_err());
    let negzero = with_words(&raw, |w| w[3] = (-0.0f64).to_bits());
    assert!(decode_summary(&negzero).is_err());
}

#[test]
fn a_summary_of_no_rows_with_extremes_is_refused() {
    let bad = r#"{"count":0,"min":5.0,"max":null,"sum":0.0,"sum_sq":0.0}"#;
    assert!(decode_summary(&format!(r#"{{"summaries":[{bad}]}}"#)).is_err());
    let empty = r#"{"count":0,"min":null,"max":null,"sum":0.0,"sum_sq":0.0}"#;
    let back = decode_summary(&format!(r#"{{"summaries":[{empty}]}}"#)).unwrap();
    assert_eq!(back.attr(0), Some(&SummaryStats::empty()));
}

// ---------------------------------------------------------------------------
// Goldens: the bytes the edge wrote before it had a hand-written codec.

fn key(geohash: &str, res: TemporalRes, t: i64) -> CellKey {
    CellKey::new(
        Geohash::from_str(geohash).unwrap(),
        TimeBin::containing(res, t),
    )
}

fn golden_query() -> AggQuery {
    AggQuery::new(
        BBox::from_corner_extent(38.0, -105.25, 4.0, 8.0),
        TimeRange::whole_day(2015, 2, 2),
        4,
        TemporalRes::Day,
    )
}

/// Exact-only Cells (one of no rows, before the epoch), then a raw-run, a
/// sparse and a dense sketched Cell.
fn golden_result() -> QueryResult {
    let day = epoch_seconds(2015, 2, 2, 0, 0, 0);
    let mut exact = Cell::empty(key("9q8y", TemporalRes::Day, day), 3);
    exact.summary.push_row(&[21.5, 68.0, 0.0]);
    exact.summary.push_row(&[-3.25, 1e-7, 4.2]);
    let before_epoch = epoch_seconds(1969, 12, 31, 23, 0, 0);
    let empty = Cell::empty(key("dr5r", TemporalRes::Hour, before_epoch), 2);
    QueryResult {
        cells: vec![
            exact,
            empty,
            sketched_cell_at(key("9q8z", TemporalRes::Month, day), 1, 3, 3),
            sketched_cell_at(key("9q9", TemporalRes::Year, day), 1, 200, 10),
            sketched_cell_at(key("zzzzzzzzzzzz", TemporalRes::Day, day), 1, 1000, 80),
        ],
        cache_hits: 2,
        derived_hits: 1,
        misses: 1,
        rollup_hits: 1,
    }
}

#[test]
fn goldens_are_byte_identical() {
    let q = golden_query().to_json();
    assert_eq!(compact(&q), include_str!("golden/agg_query.json"));
    assert_eq!(
        serde_json::to_string_pretty(&q).unwrap(),
        include_str!("golden/agg_query.pretty.json")
    );
    let r = golden_result();
    let forms: Vec<(bool, usize)> = r.cells[2..]
        .iter()
        .map(|c| {
            let b = c.summary.attr_sketches(0).unwrap();
            (b.is_raw(), b.to_sketches().1.flat_words())
        })
        .collect();
    assert!(forms[0].0 && !forms[1].0 && !forms[2].0, "{forms:?}");
    assert!(forms[1].1 < 33 && forms[2].1 == 33, "{forms:?}");
    let v = r.to_json();
    assert_eq!(compact(&v), include_str!("golden/query_result.json"));
    assert_eq!(
        serde_json::to_string_pretty(&v).unwrap(),
        include_str!("golden/query_result.pretty.json")
    );
    for text in [
        include_str!("golden/query_result.json"),
        include_str!("golden/query_result.pretty.json"),
    ] {
        assert_eq!(decode_result(text).unwrap(), r);
    }
    assert_eq!(
        decode_query(include_str!("golden/agg_query.pretty.json")).unwrap(),
        golden_query()
    );
}

// ---------------------------------------------------------------------------
// Refusals: JSON input passes the constructors the flat wire passes.

/// A one-Cell result document whose key's geohash is `geohash`.
fn doc_with_geohash(geohash: &str) -> String {
    let doc = of_cells(vec![Cell::empty(sample_key(), 1)]).to_json();
    let good = compact(&doc["cells"][0]["key"]["geohash"]);
    compact(&doc).replace(&good, geohash)
}

#[test]
fn invalid_edge_values_are_refused() {
    let ok = r#"{"bits":9,"len":1}"#;
    assert!(decode_result(&doc_with_geohash(ok)).is_ok());
    for geohash in [
        r#"{"bits":7,"len":0}"#,
        r#"{"bits":1024,"len":2}"#,
        r#"{"bits":0,"len":13}"#,
    ] {
        let doc = doc_with_geohash(geohash);
        assert!(decode_result(&doc).is_err(), "{doc}");
    }
    let query = |bbox: &str, time: &str, res: &str| {
        format!(r#"{{"bbox":{bbox},"time":{time},"spatial_res":4,"temporal_res":{res}}}"#)
    };
    let bbox = r#"{"min_lat":38.0,"max_lat":42.0,"min_lon":-105.0,"max_lon":-97.0}"#;
    let inverted = r#"{"min_lat":42.0,"max_lat":38.0,"min_lon":-105.0,"max_lon":-97.0}"#;
    let infinite = r#"{"min_lat":38.0,"max_lat":42.0,"min_lon":-1e999,"max_lon":-97.0}"#;
    let time = r#"{"start":0,"end":86400}"#;
    let backwards = r#"{"start":86400,"end":0}"#;
    assert!(decode_query(&query(bbox, time, r#""Day""#)).is_ok());
    for doc in [
        query(inverted, time, r#""Day""#),
        query(bbox, backwards, r#""Day""#),
        query(inverted, backwards, r#""Day""#),
        query(infinite, time, r#""Day""#),
        query(bbox, time, r#""Week""#),
        query(bbox, time, r#""day""#),
    ] {
        assert!(decode_query(&doc).is_err(), "{doc}");
    }
}

#[test]
fn a_key_whose_bin_overflows_i64_seconds_is_refused() {
    let doc = |idx: i64| {
        let key = CellKey::new(
            Geohash::from_str("9x").unwrap(),
            TimeBin {
                res: TemporalRes::Hour,
                idx,
            },
        );
        compact(&of_cells(vec![Cell::empty(key, 1)]).to_json())
    };
    assert!(decode_result(&doc(i64::MAX / 1000)).is_err());
    let last = i64::MAX / 3600 - 1;
    assert_eq!(
        decode_result(&doc(last)).unwrap().cells[0].key.time.idx,
        last
    );
}

/// Decode `text` as a result, and if it decodes, use what it holds.
fn decode_and_use(text: &str) {
    if let Ok(r) = decode_result(text) {
        for c in &r.cells {
            c.key.level();
            c.bbox();
        }
        compact(&r.to_json());
    }
}

#[test]
fn every_truncation_and_one_character_edit_is_an_error_or_a_value() {
    let r = QueryResult {
        cells: vec![
            sample_cell(),
            Cell::empty(sample_key(), 1),
            sketched_cell_at(sample_key(), 1, 3, 3),
            sketched_cell_at(sample_key(), 1, 80, 4),
        ],
        ..golden_result()
    };
    let doc = compact(&r.to_json());
    assert_eq!(decode_result(&doc).unwrap(), r);
    for cut in 0..doc.len() {
        decode_and_use(&doc[..cut]);
    }
    let bytes = doc.as_bytes();
    for i in 0..bytes.len() {
        let mut deleted = bytes.to_vec();
        deleted.remove(i);
        decode_and_use(std::str::from_utf8(&deleted).unwrap());
        for &c in b"019-.e\"{}[],:nt x" {
            let mut replaced = bytes.to_vec();
            replaced[i] = c;
            decode_and_use(std::str::from_utf8(&replaced).unwrap());
            let mut inserted = bytes.to_vec();
            inserted.insert(i, c);
            decode_and_use(std::str::from_utf8(&inserted).unwrap());
        }
    }
}
