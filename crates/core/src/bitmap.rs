//! A sparse 64-bit-keyed bitmap: the storage behind the precision-level map.
//!
//! The paper describes the PLM as "a memory-resident bitmap" (§IV-D). Cell
//! identities are 64-bit [`dense_id`](stash_model::CellKey::dense_id)s, far
//! too sparse for a flat bit vector, so the bitmap is chunked: a hash map
//! from the upper 58 bits to one 64-bit word covering the lower 6. A
//! `dense_id` is SplitMix-mixed, so neighbouring Cells get unrelated ids and
//! almost every cached Cell holds a word of its own; only ids that happen to
//! agree in their upper 58 bits share one. The same mixing makes the upper
//! bits a good hash already, so the map uses the Fx hasher rather than
//! SipHash.

use stash_model::fx::FxHashMap;

/// A set of `u64` keys stored as chunked bit words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseBitmap {
    chunks: FxHashMap<u64, u64>,
    len: usize,
}

impl SparseBitmap {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(id: u64) -> (u64, u64) {
        (id >> 6, 1u64 << (id & 63))
    }

    /// Insert; returns `true` if the id was newly added.
    pub fn insert(&mut self, id: u64) -> bool {
        let (chunk, bit) = Self::split(id);
        let word = self.chunks.entry(chunk).or_insert(0);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        true
    }

    /// Remove; returns `true` if the id was present.
    pub fn remove(&mut self, id: u64) -> bool {
        let (chunk, bit) = Self::split(id);
        match self.chunks.get_mut(&chunk) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                if *word == 0 {
                    self.chunks.remove(&chunk);
                }
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        let (chunk, bit) = Self::split(id);
        self.chunks.get(&chunk).is_some_and(|w| w & bit != 0)
    }

    /// Number of ids stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Iterate all stored ids (unordered).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flat_map(|(&chunk, &word)| {
            (0..64u64).filter_map(move |b| (word & (1 << b) != 0).then_some((chunk << 6) | b))
        })
    }

    /// Approximate heap footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.chunks.len() * (std::mem::size_of::<u64>() * 2 + 8)
    }
}

impl FromIterator<u64> for SparseBitmap {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut b = SparseBitmap::new();
        for id in iter {
            b.insert(id);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut b = SparseBitmap::new();
        assert!(b.insert(42));
        assert!(!b.insert(42), "duplicate insert must report false");
        assert!(b.contains(42));
        assert!(!b.contains(43));
        assert_eq!(b.len(), 1);
        assert!(b.remove(42));
        assert!(!b.remove(42));
        assert!(b.is_empty());
    }

    #[test]
    fn dense_ids_share_chunks() {
        let mut b = SparseBitmap::new();
        for i in 0..64 {
            b.insert(i);
        }
        assert_eq!(b.len(), 64);
        // One chunk word should hold all 64 bits.
        assert!(
            b.estimated_bytes() <= 64,
            "chunking failed: {} bytes",
            b.estimated_bytes()
        );
    }

    #[test]
    fn sparse_ids_work() {
        let ids = [0u64, u64::MAX, 1 << 63, 0xDEAD_BEEF_CAFE_F00D, 7];
        let b: SparseBitmap = ids.iter().copied().collect();
        for id in ids {
            assert!(b.contains(id));
        }
        assert_eq!(b.len(), ids.len());
    }

    #[test]
    fn iter_roundtrips() {
        let ids: Vec<u64> = (0..1000).map(|i| i * 2_654_435_761).collect();
        let b: SparseBitmap = ids.iter().copied().collect();
        let mut got: Vec<u64> = b.iter().collect();
        got.sort_unstable();
        let mut want = ids.clone();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
    }

    #[test]
    fn clear_empties() {
        let mut b: SparseBitmap = (0..100).collect();
        b.clear();
        assert!(b.is_empty());
        assert!(!b.contains(5));
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn word_boundary_neighbors_are_distinct() {
        let mut b = SparseBitmap::new();
        b.insert(63);
        b.insert(64);
        assert!(b.contains(63) && b.contains(64));
        b.remove(63);
        assert!(!b.contains(63) && b.contains(64));
    }
}
