//! # stash-model
//!
//! The data model of the STASH hierarchical aggregation cache
//! (Mitra et al., IEEE CLUSTER 2019, §IV): Cells, their keys, mergeable
//! summary statistics, the level arithmetic that organizes Cells into a
//! hierarchy, and the aggregation-query types exchanged between the
//! front-end, STASH, and the backing store.
//!
//! The central type is the [`Cell`] — "the minimum unit of data storage in
//! STASH" — identified by a [`CellKey`] (geohash spatial label × calendar
//! time bin) and carrying one [`SummaryStats`] per dataset attribute.
//! Summaries form a commutative monoid under [`SummaryStats::merge`], which
//! is what lets STASH compute a coarse Cell from cached finer Cells instead
//! of touching disk (§V-B: disk access happens only when missing values are
//! "not available by computing from the existing cached values").
//!
//! When a deployment enables sketch-valued Cells ([`SketchSpec`]), the
//! [`CellStats`] carrier additionally holds mergeable sketch partials per
//! attribute — quantiles, distinct counts, heavy hitters from
//! `stash-sketch` — that roll up along the same hierarchy and surface
//! through [`QueryResult::quantile`], [`QueryResult::distinct`], and
//! [`QueryResult::top_k`].

pub mod attr;
pub mod cell;
pub mod flat;
pub mod fx;
mod json;
pub mod key;
pub mod level;
pub mod observation;
pub mod query;
pub mod slot;
pub mod stats;

pub use attr::AttrSchema;
pub use cell::Cell;
pub use flat::FlatPartials;
pub use key::CellKey;
pub use level::{Level, MAX_SPATIAL_RES};
pub use observation::Observation;
pub use query::{AggFunc, AggQuery, QueryError, QueryResult, MAX_CELLS_PER_QUERY};
pub use stash_sketch::{
    AttrSketches, DistinctEstimate, DistinctSketch, FoldCtx, HeavyHitters, MergeError,
    PreparedValue, QuantileEstimate, SketchSpec, TopKEntry, TopKResult, UddSketch,
};
pub use stats::{CellStats, CellSummary, SummaryStats};
