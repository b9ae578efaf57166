//! Flat wire forms for Cell keys, summaries, and partials fragments
//! (DESIGN.md §15).
//!
//! A partials fragment — the payload a worker ships back for
//! `FetchPartials` — historically traveled as a value tree whose
//! size the protocol could only approximate. [`FlatPartials`] replaces
//! that with one contiguous little-endian word buffer per fragment:
//!
//! ```text
//! word 0        magic "STSHPRT3"
//! word 1        entry count n
//! per entry     key   (3 words: geohash bits|len, temporal res, bin index)
//!               stats (header word, 5 words per attribute, optional
//!                      sketch bundles — see cell_stats_words)
//! ```
//!
//! The encoding is canonical — equal states produce identical words — and
//! exact: [`FlatPartials::wire_size`] is the buffer's true byte length,
//! which is what the simulated network now charges. It is the one codec of
//! sketch state: the JSON edge (`json.rs`) carries a Cell's
//! bundles as the words [`encode_cell_stats`] writes after its summaries
//! and reads them back through the same bundle loop, so JSON refuses
//! exactly the Cells the wire refuses. Both readers hold every summary to
//! `SummaryStats::check_decoded`.

use crate::key::CellKey;
use crate::stats::{CellStats, SummaryStats};
use stash_flat::{magic, FlatError, WordReader, WordWriter};
use stash_geo::{Geohash, TemporalRes, TimeBin};
use stash_sketch::AttrSketches;
use std::sync::Arc;

/// Magic word of a flat partials fragment (`3`: a sketch bundle may be a
/// raw run of values, which a `2` decoder would refuse; `2` added the
/// sparse-until-dense runs a `1` decoder would misread).
pub const PARTIALS_MAGIC: u64 = magic(b"STSHPRT3");

/// Words of one flat-encoded [`CellKey`].
pub const KEY_WORDS: usize = 3;

/// Ceiling on attributes per summary accepted by the decoder — far above
/// any real schema, low enough that corrupt headers cannot force huge
/// allocations.
const MAX_FLAT_ATTRS: usize = 4096;

/// Append a key's flat form: geohash bits with the length packed in the
/// top nibble (5·12 = 60 payload bits leave it free), then the temporal
/// resolution index, then the bin index.
pub fn encode_key(w: &mut WordWriter, key: &CellKey) {
    w.push_u64(key.geohash.bits() | (key.geohash.len() as u64) << 60);
    w.push_u64(key.time.res.index() as u64);
    w.push_i64(key.time.idx);
}

/// Decode a key's flat form, validating geohash length/bits, the temporal
/// resolution index and the bin index ([`TimeBin::new`]).
pub fn decode_key(r: &mut WordReader) -> Result<CellKey, FlatError> {
    let packed = r.u64()?;
    let res = r.u64()?;
    let idx = r.i64()?;
    let geohash = Geohash::from_bits(packed & ((1u64 << 60) - 1), (packed >> 60) as u8)
        .map_err(|_| FlatError::Corrupt("invalid geohash in cell key"))?;
    let res = u8::try_from(res)
        .ok()
        .and_then(TemporalRes::from_index)
        .ok_or(FlatError::Corrupt(
            "invalid temporal resolution in cell key",
        ))?;
    let time = TimeBin::new(res, idx).ok_or(FlatError::Corrupt("time bin outside i64 seconds"))?;
    Ok(CellKey::new(geohash, time))
}

/// Words of one flat-encoded [`CellStats`]: a header word, five words per
/// exact attribute summary, plus the sketch bundles when carried.
pub fn cell_stats_words(s: &CellStats) -> usize {
    1 + 5 * s.summaries.len()
        + s.sketches
            .as_ref()
            .map_or(0, |b| b.iter().map(AttrSketches::flat_words).sum())
}

/// Append a summary's flat form. ±∞ sentinels of the empty state
/// round-trip as raw bit patterns — no optional fields on this path.
fn encode_summary(w: &mut WordWriter, s: &SummaryStats) {
    w.push_u64(s.count);
    w.push_f64(s.min);
    w.push_f64(s.max);
    w.push_f64(s.sum);
    w.push_f64(s.sum_sq);
}

/// The summary in five words of [`encode_summary`]'s form, unchecked
/// ([`SummaryStats::check_decoded`]).
fn summary_of_words(w: &[u64]) -> SummaryStats {
    SummaryStats {
        count: w[0],
        min: f64::from_bits(w[1]),
        max: f64::from_bits(w[2]),
        sum: f64::from_bits(w[3]),
        sum_sq: f64::from_bits(w[4]),
    }
}

/// Append a Cell summary's flat form: header word (attribute count in the
/// low half, sketch-presence flag at bit 32), the exact summaries, then
/// the sketch bundles when present.
pub fn encode_cell_stats(w: &mut WordWriter, s: &CellStats) {
    let flag = if s.sketches.is_some() { 1u64 << 32 } else { 0 };
    w.push_u64(s.summaries.len() as u64 | flag);
    for summary in s.summaries.iter() {
        encode_summary(w, summary);
    }
    if let Some(sketches) = &s.sketches {
        for bundle in sketches.iter() {
            bundle.flat_encode(w);
        }
    }
}

/// Decode a Cell summary's flat form. Never panics on corrupt input.
pub fn decode_cell_stats(r: &mut WordReader) -> Result<CellStats, FlatError> {
    let header = r.u64()?;
    let n_attrs = (header & u32::MAX as u64) as usize;
    let flag = header >> 32;
    if flag > 1 {
        return Err(FlatError::Corrupt("invalid cell stats header"));
    }
    if n_attrs > MAX_FLAT_ATTRS {
        return Err(FlatError::Corrupt(
            "cell stats attribute count out of range",
        ));
    }
    // Every exact summary's words are present before any is decoded, so
    // the shared slice is collected straight from them: one allocation of
    // known length.
    let summaries: Arc<[SummaryStats]> = r
        .take(5 * n_attrs)?
        .chunks_exact(5)
        .map(summary_of_words)
        .collect();
    if let Some(e) = summaries.iter().find_map(|s| s.check_decoded().err()) {
        return Err(FlatError::Corrupt(e));
    }
    let sketches = if flag == 1 {
        Some(decode_bundles(r, n_attrs)?)
    } else {
        None
    };
    Ok(CellStats {
        summaries,
        sketches,
    })
}

/// Decode a Cell's `n_attrs` sketch bundles — the reader of the flat form
/// and of the JSON edge, which carries the same words. One spec builds
/// every bundle of a Cell.
pub(crate) fn decode_bundles(
    r: &mut WordReader,
    n_attrs: usize,
) -> Result<Arc<[AttrSketches]>, FlatError> {
    let mut bundles: Vec<AttrSketches> = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let bundle = AttrSketches::flat_decode(r)?;
        if bundles
            .first()
            .is_some_and(|b| b.check_config(&bundle).is_err())
        {
            return Err(FlatError::Corrupt("cell sketch bundles of different specs"));
        }
        bundles.push(bundle);
    }
    Ok(bundles.into())
}

/// A partials fragment in flat wire form: one contiguous word buffer,
/// ready to ship. Cheap to clone relative to re-encoding, exact in size,
/// and decodable with full validation on the receiving side.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatPartials {
    words: Vec<u64>,
}

impl FlatPartials {
    /// Encode a fragment. Equal inputs produce identical buffers (every
    /// nested encoding is canonical).
    pub fn encode(parts: &[(CellKey, CellStats)]) -> Self {
        let total = 2 + parts
            .iter()
            .map(|(_, s)| KEY_WORDS + cell_stats_words(s))
            .sum::<usize>();
        let mut w = WordWriter::with_capacity(total);
        w.push_u64(PARTIALS_MAGIC);
        w.push_u64(parts.len() as u64);
        for (key, stats) in parts {
            encode_key(&mut w, key);
            encode_cell_stats(&mut w, stats);
        }
        FlatPartials {
            words: w.into_words(),
        }
    }

    /// Decode the fragment back into `(key, summary)` pairs, validating
    /// magic, counts, and every nested invariant. Never panics.
    pub fn decode(&self) -> Result<Vec<(CellKey, CellStats)>, FlatError> {
        let mut r = WordReader::new(&self.words);
        r.expect_magic(PARTIALS_MAGIC)?;
        let n = r.u64()? as usize;
        // Each entry is at least KEY_WORDS + 1 words; reject counts the
        // buffer cannot possibly hold before allocating.
        if n > r.remaining() / (KEY_WORDS + 1) {
            return Err(FlatError::Corrupt("partials entry count exceeds buffer"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let key = decode_key(&mut r)?;
            let stats = decode_cell_stats(&mut r)?;
            out.push((key, stats));
        }
        r.finish()?;
        Ok(out)
    }

    /// Number of `(key, summary)` entries carried.
    pub fn entries(&self) -> usize {
        // words[1] is the count; an encoded buffer always has ≥ 2 words.
        self.words.get(1).map_or(0, |&n| n as usize)
    }

    /// Exact wire footprint in bytes — the buffer's true length, which the
    /// simulated network charges.
    pub fn wire_size(&self) -> usize {
        self.words.len() * 8
    }

    /// The raw little-endian byte form (for persistence and fuzzing).
    pub fn to_bytes(&self) -> Vec<u8> {
        stash_flat::words_to_bytes(&self.words)
    }

    /// Rebuild from raw bytes. Validates alignment only; call
    /// [`FlatPartials::decode`] to validate content.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FlatError> {
        Ok(FlatPartials {
            words: stash_flat::bytes_to_words(bytes)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_sketch::SketchSpec;
    use std::str::FromStr;

    fn sample_key(gh: &str, res: TemporalRes, idx: i64) -> CellKey {
        CellKey::new(Geohash::from_str(gh).unwrap(), TimeBin { res, idx })
    }

    /// Cells of 1, 2, 3, 0 and 2 000 rows: with sketches that is every
    /// form a bundle takes — sparse lists, nothing at all, and a promoted
    /// register file and count-min matrix.
    fn sample_parts(with_sketches: bool) -> Vec<(CellKey, CellStats)> {
        let spec = SketchSpec::standard();
        let mut parts = Vec::new();
        for (i, (gh, rows)) in [
            ("9xj", 1),
            ("9xj0", 2),
            ("dr5ru7", 3),
            ("9", 0),
            ("c2", 2000),
        ]
        .into_iter()
        .enumerate()
        {
            let mut stats = if with_sketches {
                CellStats::empty_with(4, &spec)
            } else {
                CellStats::empty(4)
            };
            for row in 0..rows {
                let base = (i * 10 + row) as f64;
                stats.push_row(&[base, -base, base * 0.5, 0.0]);
            }
            parts.push((
                sample_key(gh, TemporalRes::from_index(i as u8 % 4).unwrap(), i as i64),
                stats,
            ));
        }
        parts
    }

    #[test]
    fn key_roundtrip_covers_lengths_and_resolutions() {
        for gh in ["9", "9x", "9xj42b", "zzzzzzzzzzzz"] {
            for res in TemporalRes::ALL {
                for idx in [-400i64, 0, 16_470] {
                    let key = sample_key(gh, res, idx);
                    let mut w = WordWriter::new();
                    encode_key(&mut w, &key);
                    assert_eq!(w.len(), KEY_WORDS);
                    let words = w.into_words();
                    let mut r = WordReader::new(&words);
                    assert_eq!(decode_key(&mut r).unwrap(), key);
                    r.finish().unwrap();
                }
            }
        }
    }

    #[test]
    fn a_key_whose_bin_overflows_i64_seconds_is_refused() {
        let decode = |idx: i64| {
            let key = sample_key("9x", TemporalRes::Hour, idx);
            let mut w = WordWriter::new();
            encode_key(&mut w, &key);
            decode_key(&mut WordReader::new(&w.into_words()))
        };
        assert!(matches!(
            decode(i64::MAX / 1000),
            Err(FlatError::Corrupt(_))
        ));
        let last = i64::MAX / 3600 - 1;
        assert_eq!(decode(last).unwrap().time.idx, last);
    }

    #[test]
    fn partials_roundtrip_with_and_without_sketches() {
        for with_sketches in [false, true] {
            let parts = sample_parts(with_sketches);
            let flat = FlatPartials::encode(&parts);
            assert_eq!(flat.entries(), parts.len());
            assert_eq!(flat.wire_size() % 8, 0);
            assert_eq!(flat.decode().unwrap(), parts);
        }
    }

    #[test]
    fn wire_size_matches_component_arithmetic() {
        // The protocol prices payloads with this arithmetic and never
        // encodes most of them; it must equal the encoder in any build
        // profile, over sketches in every form.
        for with_sketches in [false, true] {
            let parts = sample_parts(with_sketches);
            let flat = FlatPartials::encode(&parts);
            let expected = 16
                + parts
                    .iter()
                    .map(|(_, s)| KEY_WORDS * 8 + s.wire_bytes())
                    .sum::<usize>();
            assert_eq!(flat.wire_size(), expected);
        }
        let sizes: Vec<usize> = sample_parts(true)
            .iter()
            .map(|(_, s)| s.sketch_wire_bytes())
            .collect();
        assert!(sizes[3] < sizes[0] && sizes[2] < sizes[4] / 4, "{sizes:?}");
    }

    #[test]
    fn empty_fragment_roundtrips() {
        let flat = FlatPartials::encode(&[]);
        assert_eq!(flat.entries(), 0);
        assert_eq!(flat.wire_size(), 16);
        assert_eq!(flat.decode().unwrap(), Vec::new());
    }

    #[test]
    fn byte_form_roundtrips() {
        let flat = FlatPartials::encode(&sample_parts(true));
        let bytes = flat.to_bytes();
        assert_eq!(bytes.len(), flat.wire_size());
        let back = FlatPartials::from_bytes(&bytes).unwrap();
        assert_eq!(back, flat);
        assert_eq!(back.decode().unwrap(), flat.decode().unwrap());
        assert!(FlatPartials::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn corrupt_buffers_error_never_panic() {
        let flat = FlatPartials::encode(&sample_parts(true));
        let bytes = flat.to_bytes();
        // Every 8-aligned truncation must decode to an error.
        for cut in (0..bytes.len()).step_by(8) {
            let t = FlatPartials::from_bytes(&bytes[..cut]).unwrap();
            assert!(t.decode().is_err(), "cut {cut}");
        }
        // Flipping the magic fails loudly.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(FlatPartials::from_bytes(&bad).unwrap().decode().is_err());
        // An inflated entry count fails before allocating.
        let mut bad = bytes;
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(FlatPartials::from_bytes(&bad).unwrap().decode().is_err());
    }

    #[test]
    fn a_cell_of_bundles_under_two_specs_is_refused() {
        let other = SketchSpec {
            hll_precision: 9,
            ..SketchSpec::standard()
        };
        let mut stats = CellStats::empty(2);
        stats.sketches = Some(
            vec![
                AttrSketches::new(&SketchSpec::standard()),
                AttrSketches::new(&other),
            ]
            .into(),
        );
        let mut w = WordWriter::new();
        encode_cell_stats(&mut w, &stats);
        let words = w.into_words();
        assert!(decode_cell_stats(&mut WordReader::new(&words)).is_err());
    }

    #[test]
    fn a_summary_of_no_rows_must_be_empty() {
        let parts = [(sample_key("9xj", TemporalRes::Day, 3), CellStats::empty(2))];
        let words = stash_flat::bytes_to_words(&FlatPartials::encode(&parts).to_bytes()).unwrap();
        // Magic, count, key, stats header, then summary 0: count, min,
        // max, sum, sum of squares.
        let min = 2 + KEY_WORDS + 2;
        assert_eq!(words[min], f64::INFINITY.to_bits());
        for (at, value) in [(min, 5.0), (min + 1, 5.0), (min + 2, -0.0), (min + 3, 1.0)] {
            let mut bad = words.clone();
            bad[at] = f64::to_bits(value);
            let fp = FlatPartials::from_bytes(&stash_flat::words_to_bytes(&bad)).unwrap();
            assert!(fp.decode().is_err(), "word {at} = {value}");
        }
    }

    #[test]
    fn equal_states_encode_identically() {
        let a = FlatPartials::encode(&sample_parts(true));
        let b = FlatPartials::encode(&sample_parts(true));
        assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
