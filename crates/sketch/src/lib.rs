//! Mergeable sketches for sketch-valued Cells.
//!
//! STASH's exact per-attribute summaries (count/min/max/sum/sum²) are
//! decomposable, which is what makes roll-up queries answerable from cache —
//! but they cannot answer the percentile overlays, cardinality maps, and
//! top-K panels that interactive exploration fronts ask for. This crate adds
//! three *approximate* summaries with the same algebraic contract:
//!
//! * [`UddSketch`] — a UDDSketch-style log-bucketed quantile sketch with a
//!   bounded relative error that degrades predictably under compaction.
//! * [`DistinctSketch`] — a HyperLogLog register file with linear-counting
//!   small-range correction.
//! * [`HeavyHitters`] — a count-min matrix plus a capped candidate list for
//!   top-K attribute values.
//!
//! Each follows the two-step aggregate convention: the struct itself is the
//! **mergeable partial state** that lives inside Cells, travels in partials
//! fragments, and merges upward along the hierarchy; **accessors**
//! ([`UddSketch::quantile`], [`DistinctSketch::estimate`],
//! [`HeavyHitters::top_k`]) turn a partial into a final answer with an
//! explicit error bound. Merging never consults insertion order:
//! [`UddSketch`] keeps a canonical compaction level so its state is a pure
//! function of the inserted multiset, HLL registers merge by `max`, and the
//! count-min matrix merges entrywise. The heavy-hitter candidate list is
//! additionally bit-for-bit order-invariant whenever the number of distinct
//! values stays within its cap (the intended regime: quantized/categorical
//! attributes).
//!
//! The flat word form (`flat_encode` / `flat_decode`, DESIGN.md §15) is
//! the one codec of sketch state, and it is deterministic: every sketch
//! writes its buckets and registers in a canonical sorted order, so equal
//! states produce equal words — the property the cluster's bit-for-bit
//! equivalence tests lean on. The crate depends on `stash-flat` only; the
//! JSON edge carries a bundle as its flat words (`stash-model`).
//!
//! State follows content: the HLL register file and the count-min matrix
//! are held — and flat-encoded — as sorted lists of their non-zero slots
//! until a promotion point computed from the array length, as the full
//! arrays from then on. Slots only move away from zero, so the form is a
//! function of the state like everything else here, and a Cell that saw a
//! handful of rows costs a handful of words to keep, copy and ship.
//!
//! Two fold entry points serve the scan kernel's hot path: [`FoldCtx`]
//! prepares each value once (hash, count-min columns, quantile bucket key)
//! so folding it into many groups skips the per-group recomputation, and
//! [`UddSketch::add_packed`] applies batched per-bucket counts in one step.
//! Merges come in two flavors: panicking `merge` for locally-built state
//! and fallible `try_merge` (returning [`MergeError`]) for partials that
//! arrived over the wire from a possibly misconfigured peer.

mod bundle;
mod distinct;
mod error;
mod fold;
mod hash;
mod heavy;
mod quantile;
mod sparse;
mod spec;

pub use bundle::AttrSketches;
pub use distinct::{DistinctEstimate, DistinctSketch};
pub use error::MergeError;
pub use fold::{FoldCtx, PreparedValue};
pub use heavy::{HeavyHitters, TopKEntry, TopKResult};
pub use quantile::{QuantileEstimate, UddSketch};
pub use spec::SketchSpec;
