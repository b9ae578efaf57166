//! The JSON edge: the front-end protocol (paper §VI-A — the Grafana panel
//! "parses and displays summarization responses in JSON"). An [`AggQuery`]
//! comes in and a [`QueryResult`] goes out; this module is the only code
//! that knows their JSON form.
//!
//! Objects keep their fields in declaration order. A [`Geohash`] is
//! `{"bits","len"}`, a [`TemporalRes`] its name, a [`SummaryStats`] carries
//! its extremes as `null` when it holds no rows (JSON has no ±∞), and a
//! [`CellStats`] gains a `"sketches"` key only when sketched: the words the
//! flat form writes after the summaries (DESIGN.md §15).
//!
//! Decoding builds every value through the constructor its type uses
//! everywhere else — [`Geohash::from_bits`], [`TimeRange::new`],
//! [`BBox::new`], `SummaryStats::check_decoded` and the flat reader's
//! bundle loop — so JSON refuses what the wire refuses, with an error and
//! never a panic.

use crate::cell::Cell;
use crate::key::CellKey;
use crate::query::{AggQuery, QueryResult};
use crate::stats::{CellStats, SummaryStats};
use serde_json::{Error, Value};
use stash_flat::{WordReader, WordWriter};
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_sketch::AttrSketches;
use std::sync::Arc;

type Result<T> = std::result::Result<T, Error>;

impl AggQuery {
    pub fn to_json(&self) -> Value {
        object([
            ("bbox", bbox_to_json(&self.bbox)),
            ("time", range_to_json(&self.time)),
            ("spatial_res", Value::U64(self.spatial_res.into())),
            ("temporal_res", res_to_json(self.temporal_res)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self> {
        Ok(AggQuery::new(
            field(v, "bbox", bbox_from_json)?,
            field(v, "time", range_from_json)?,
            field(v, "spatial_res", uint)?,
            field(v, "temporal_res", res_from_json)?,
        ))
    }
}

impl QueryResult {
    pub fn to_json(&self) -> Value {
        let count = |n: usize| Value::U64(n as u64);
        object([
            (
                "cells",
                Value::Array(self.cells.iter().map(cell_to_json).collect()),
            ),
            ("cache_hits", count(self.cache_hits)),
            ("derived_hits", count(self.derived_hits)),
            ("misses", count(self.misses)),
            ("rollup_hits", count(self.rollup_hits)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self> {
        Ok(QueryResult {
            cells: field(v, "cells", |v| array(v, cell_from_json))?,
            cache_hits: field(v, "cache_hits", uint)?,
            derived_hits: field(v, "derived_hits", uint)?,
            misses: field(v, "misses", uint)?,
            rollup_hits: field(v, "rollup_hits", uint)?,
        })
    }
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// Decode object field `key` (absent reads as `null`), naming it on error.
fn field<T>(v: &Value, key: &str, decode: impl FnOnce(&Value) -> Result<T>) -> Result<T> {
    if !v.is_object() {
        return Err(Error(format!("expected object, got {}", v.kind())));
    }
    decode(v.get_or_null(key)).map_err(|e| Error(format!("{key}: {e}")))
}

fn array<T>(v: &Value, decode: impl Fn(&Value) -> Result<T>) -> Result<Vec<T>> {
    v.as_array()
        .ok_or_else(|| Error(format!("expected array, got {}", v.kind())))?
        .iter()
        .enumerate()
        .map(|(i, item)| decode(item).map_err(|e| Error(format!("[{i}]: {e}"))))
        .collect()
}

fn uint<T: TryFrom<u64>>(v: &Value) -> Result<T> {
    v.as_u64().and_then(|n| T::try_from(n).ok()).ok_or_else(|| {
        Error(format!(
            "expected {}, got {}",
            std::any::type_name::<T>(),
            v.kind()
        ))
    })
}

fn int(v: &Value) -> Result<i64> {
    v.as_i64()
        .ok_or_else(|| Error(format!("expected i64, got {}", v.kind())))
}

fn float(v: &Value) -> Result<f64> {
    v.as_f64()
        .ok_or_else(|| Error(format!("expected number, got {}", v.kind())))
}

fn invalid(e: impl std::fmt::Display) -> Error {
    Error(e.to_string())
}

fn bbox_to_json(b: &BBox) -> Value {
    object([
        ("min_lat", Value::F64(b.min_lat)),
        ("max_lat", Value::F64(b.max_lat)),
        ("min_lon", Value::F64(b.min_lon)),
        ("max_lon", Value::F64(b.max_lon)),
    ])
}

fn bbox_from_json(v: &Value) -> Result<BBox> {
    BBox::new(
        field(v, "min_lat", float)?,
        field(v, "max_lat", float)?,
        field(v, "min_lon", float)?,
        field(v, "max_lon", float)?,
    )
    .map_err(invalid)
}

fn range_to_json(r: &TimeRange) -> Value {
    object([("start", Value::I64(r.start)), ("end", Value::I64(r.end))])
}

fn range_from_json(v: &Value) -> Result<TimeRange> {
    TimeRange::new(field(v, "start", int)?, field(v, "end", int)?)
        .ok_or_else(|| invalid("time range starts after it ends"))
}

const RES_NAMES: [&str; 4] = ["Year", "Month", "Day", "Hour"];

fn res_to_json(res: TemporalRes) -> Value {
    Value::String(RES_NAMES[res.index() as usize].into())
}

fn res_from_json(v: &Value) -> Result<TemporalRes> {
    let name = v
        .as_str()
        .ok_or_else(|| Error(format!("expected string, got {}", v.kind())))?;
    let i = RES_NAMES
        .iter()
        .position(|&n| n == name)
        .ok_or_else(|| Error(format!("unknown temporal resolution {name:?}")))?;
    Ok(TemporalRes::ALL[i])
}

fn key_to_json(k: &CellKey) -> Value {
    let geohash = object([
        ("bits", Value::U64(k.geohash.bits())),
        ("len", Value::U64(k.geohash.len().into())),
    ]);
    let time = object([
        ("res", res_to_json(k.time.res)),
        ("idx", Value::I64(k.time.idx)),
    ]);
    object([("geohash", geohash), ("time", time)])
}

fn key_from_json(v: &Value) -> Result<CellKey> {
    let geohash = field(v, "geohash", |v| {
        Geohash::from_bits(field(v, "bits", uint)?, field(v, "len", uint)?).map_err(invalid)
    })?;
    let time = field(v, "time", |v| {
        let (res, idx) = (field(v, "res", res_from_json)?, field(v, "idx", int)?);
        TimeBin::new(res, idx).ok_or_else(|| Error(format!("time bin {idx} outside i64 seconds")))
    })?;
    Ok(CellKey::new(geohash, time))
}

fn cell_to_json(c: &Cell) -> Value {
    object([
        ("key", key_to_json(&c.key)),
        ("summary", stats_to_json(&c.summary)),
    ])
}

fn cell_from_json(v: &Value) -> Result<Cell> {
    Ok(Cell::new(
        field(v, "key", key_from_json)?,
        field(v, "summary", stats_from_json)?,
    ))
}

fn summary_to_json(s: &SummaryStats) -> Value {
    let extreme = |x: Option<f64>| x.map_or(Value::Null, Value::F64);
    object([
        ("count", Value::U64(s.count)),
        ("min", extreme(s.min())),
        ("max", extreme(s.max())),
        ("sum", Value::F64(s.sum)),
        ("sum_sq", Value::F64(s.sum_sq)),
    ])
}

fn summary_from_json(v: &Value) -> Result<SummaryStats> {
    let extreme = |v: &Value| match v {
        Value::Null => Ok(None),
        v => float(v).map(Some),
    };
    let count = field(v, "count", uint)?;
    let (min, max) = (field(v, "min", extreme)?, field(v, "max", extreme)?);
    if count > 0 && (min.is_none() || max.is_none()) {
        return Err(invalid("non-empty summary requires min and max"));
    }
    let s = SummaryStats {
        count,
        min: min.unwrap_or(f64::INFINITY),
        max: max.unwrap_or(f64::NEG_INFINITY),
        sum: field(v, "sum", float)?,
        sum_sq: field(v, "sum_sq", float)?,
    };
    s.check_decoded().map_err(invalid)?;
    Ok(s)
}

fn stats_to_json(s: &CellStats) -> Value {
    let summaries = Value::Array(s.summaries.iter().map(summary_to_json).collect());
    let Some(sketches) = &s.sketches else {
        return object([("summaries", summaries)]);
    };
    let mut w = WordWriter::with_capacity(sketches.iter().map(AttrSketches::flat_words).sum());
    for bundle in sketches.iter() {
        bundle.flat_encode(&mut w);
    }
    let words = w.into_words().into_iter().map(Value::U64).collect();
    object([("summaries", summaries), ("sketches", Value::Array(words))])
}

fn stats_from_json(v: &Value) -> Result<CellStats> {
    let summaries: Arc<[SummaryStats]> =
        field(v, "summaries", |v| array(v, summary_from_json))?.into();
    let sketches = field(v, "sketches", |v| {
        if v.is_null() {
            return Ok(None);
        }
        // The flat reader's bundle loop, held to the same refusals; the
        // words must end with the last bundle.
        let words = array(v, uint)?;
        let mut r = WordReader::new(&words);
        crate::flat::decode_bundles(&mut r, summaries.len())
            .and_then(|b| r.finish().map(|()| Some(b)))
            .map_err(invalid)
    })?;
    Ok(CellStats {
        summaries,
        sketches,
    })
}
