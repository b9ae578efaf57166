//! Flat wire-form proptests for partials fragments: random
//! `(CellKey, CellStats)` fragments — with and without sketch bundles,
//! raw runs and sketches mixed — must round-trip bit-for-bit through
//! [`FlatPartials`] and reject truncated or corrupt buffers without ever
//! panicking — whole fragments and single `CellStats` alike.

use proptest::prelude::*;
use stash_flat::{FlatError, WordReader, WordWriter};
use stash_geo::{Geohash, TemporalRes, TimeBin};
use stash_model::flat::{decode_cell_stats, encode_cell_stats};
use stash_model::{CellKey, CellStats, FlatPartials, SketchSpec};
use std::collections::BTreeMap;

/// A small pool of keys so random fragments contain duplicates — the
/// shape the coordinator's merge actually sees.
fn key_pool() -> Vec<CellKey> {
    let mut keys = Vec::new();
    for (bits, len) in [(0u64, 1u8), (9, 2), (317, 4), ((1 << 30) - 1, 6)] {
        let gh = Geohash::from_bits(bits, len).unwrap();
        for (ri, idx) in [(0usize, -400i64), (1, 0), (2, 16_470), (3, 99)] {
            keys.push(CellKey::new(
                gh,
                TimeBin {
                    res: TemporalRes::ALL[ri % TemporalRes::ALL.len()],
                    idx,
                },
            ));
        }
    }
    keys
}

fn build_parts(picks: &[(usize, Vec<(i32, i32)>)], sketches: bool) -> Vec<(CellKey, CellStats)> {
    let pool = key_pool();
    let spec = SketchSpec::standard();
    picks
        .iter()
        .map(|(key_idx, rows)| {
            let mut s = if sketches {
                CellStats::empty_with(2, &spec)
            } else {
                CellStats::empty(2)
            };
            for &(q0, q1) in rows {
                s.push_row(&[q0 as f64 * 0.25, q1 as f64 * 0.25]);
            }
            (pool[key_idx % pool.len()], s)
        })
        .collect()
}

/// Rows of one Cell: a handful, held as raw runs with sketches on, or a
/// few dozen either side of the 64-value raw cap — so fragments mix raw
/// and sketched Cells, and the per-key merge promotes raw runs.
fn arb_rows(q: i32) -> impl Strategy<Value = Vec<(i32, i32)>> {
    prop_oneof![
        proptest::collection::vec((-q..=q, -q..=q), 0..6),
        proptest::collection::vec((-q..=q, -q..=q), 30..90),
    ]
}

/// The coordinator's gather step: merge fragments per key.
fn merged(parts: &[(CellKey, CellStats)]) -> BTreeMap<CellKey, CellStats> {
    let mut out: BTreeMap<CellKey, CellStats> = BTreeMap::new();
    for (k, s) in parts {
        match out.entry(*k) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(s.clone());
            }
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(s),
        }
    }
    out
}

proptest! {
    /// Flat encode → decode is the identity, before and after the
    /// coordinator's per-key merge, and the advertised wire size is the
    /// literal buffer length.
    #[test]
    fn flat_partials_roundtrip_bit_for_bit(
        picks in proptest::collection::vec(
            (0usize..16, arb_rows(512)),
            0..12,
        ),
        sketches_flag in 0u8..2,
    ) {
        let parts = build_parts(&picks, sketches_flag == 1);
        let fp = FlatPartials::encode(&parts);
        prop_assert_eq!(fp.wire_size(), fp.to_bytes().len());
        prop_assert_eq!(fp.entries(), parts.len());

        let decoded = fp.decode().expect("own encoding decodes");
        prop_assert_eq!(&decoded, &parts, "flat roundtrip changed a fragment");

        // The coordinator's per-key merge promotes raw runs; its Cells
        // round-trip as well.
        let gathered: Vec<(CellKey, CellStats)> = merged(&decoded).into_iter().collect();
        let regathered = FlatPartials::encode(&gathered).decode().expect("merged Cells decode");
        prop_assert_eq!(regathered, gathered);

        // Byte-level transport round-trips the exact buffer.
        let back = FlatPartials::from_bytes(&fp.to_bytes()).expect("bytes decode");
        prop_assert_eq!(back, fp);
    }

    /// Truncations always error; arbitrary single-word corruption may
    /// error or decode, but never panics and never over-allocates.
    #[test]
    fn corrupt_partials_never_panic(
        picks in proptest::collection::vec(
            (0usize..16, arb_rows(64)),
            1..8,
        ),
        sketches_flag in 0u8..2,
        word_idx in 0usize..256,
        flip in 1u64..=u64::MAX,
    ) {
        let parts = build_parts(&picks, sketches_flag == 1);
        let bytes = FlatPartials::encode(&parts).to_bytes();

        for cut in (0..bytes.len()).step_by(8) {
            prop_assert!(
                FlatPartials::from_bytes(&bytes[..cut])
                    .and_then(|fp| fp.decode().map(|_| fp))
                    .is_err(),
                "truncated buffer accepted at {cut} of {}",
                bytes.len()
            );
        }
        prop_assert!(FlatPartials::from_bytes(&bytes[..bytes.len() - 1]).is_err());

        let mut corrupt = bytes.clone();
        let at = (word_idx % (bytes.len() / 8)) * 8;
        let word = u64::from_le_bytes(corrupt[at..at + 8].try_into().unwrap()) ^ flip;
        corrupt[at..at + 8].copy_from_slice(&word.to_le_bytes());
        if let Ok(fp) = FlatPartials::from_bytes(&corrupt) {
            let _ = fp.decode();
        }
    }

    /// A flat `CellStats` cut at any word boundary short of its end is a
    /// `FlatError` — the exact summaries are decoded straight into their
    /// shared slice only once all their words are known to be there — and
    /// the whole buffer decodes back to the same Cell.
    #[test]
    fn a_truncated_cell_stats_is_an_error_at_every_word(
        n_attrs in 0usize..6,
        rows in prop_oneof![
            proptest::collection::vec(-512i32..=512, 0..40),
            proptest::collection::vec(-512i32..=512, 60..100),
        ],
        sketches_flag in 0u8..2,
    ) {
        let spec = SketchSpec::standard();
        let mut stats = if sketches_flag == 1 {
            CellStats::empty_with(n_attrs, &spec)
        } else {
            CellStats::empty(n_attrs)
        };
        for q in rows {
            let row: Vec<f64> = (0..n_attrs).map(|a| (q + a as i32) as f64 * 0.25).collect();
            stats.push_row(&row);
        }
        let mut w = WordWriter::new();
        encode_cell_stats(&mut w, &stats);
        let words = w.into_words();
        prop_assert_eq!(words.len() * 8, stats.wire_bytes());
        for cut in 0..words.len() {
            let mut r = WordReader::new(&words[..cut]);
            let got: Result<CellStats, FlatError> = decode_cell_stats(&mut r);
            prop_assert!(got.is_err(), "cut at word {} of {} decoded", cut, words.len());
        }
        let mut r = WordReader::new(&words);
        prop_assert_eq!(decode_cell_stats(&mut r).expect("whole buffer decodes"), stats);
        prop_assert!(r.finish().is_ok());
    }
}
