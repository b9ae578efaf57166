//! The zero-hop DHT partitioner.
//!
//! Both Galileo's block placement and STASH's per-level Cell dispersion use
//! the same pure function: hash the leading characters of a geohash and map
//! onto the node ring. Because every node evaluates the function locally,
//! locating any block or Cell owner costs **zero** network hops and the
//! per-lookup complexity is O(1) (paper §IV-D).

use stash_geo::Geohash;
use stash_model::CellKey;

/// Maps geohash prefixes to node indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioner {
    n_nodes: usize,
    /// Geohash characters that determine placement (paper §VIII-A: 2).
    prefix_len: u8,
}

impl Partitioner {
    pub fn new(n_nodes: usize, prefix_len: u8) -> Self {
        assert!(n_nodes > 0, "partitioner needs at least one node");
        assert!(prefix_len >= 1, "prefix length must be at least 1");
        Partitioner {
            n_nodes,
            prefix_len,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Owner of a geohash: hash of its placement prefix, mod ring size.
    /// Geohashes *shorter* than the prefix use their full (coarse) hash —
    /// such coarse cells aggregate data spanning several partitions, and
    /// their summaries are merged from per-partition partials at the
    /// coordinator (see `stash-dfs::store`).
    pub fn owner(&self, gh: Geohash) -> usize {
        let prefix = gh
            .prefix(self.prefix_len.min(gh.len()))
            .expect("min() keeps length valid");
        self.hash_prefix(prefix)
    }

    /// Owner of a STASH Cell (by its spatial label).
    pub fn owner_of_cell(&self, key: &CellKey) -> usize {
        self.owner(key.geohash)
    }

    /// Effective owner when some nodes are down: the first node of the
    /// replica chain — the primary, then its ring successors — that is not
    /// in `exclude`. This models DFS block replication over one shared
    /// source (every node can read every block), so failover may walk the
    /// whole ring: when the primary is crashed or partitioned away, the
    /// next live node in the chain serves its blocks. Every live node
    /// evaluates the same pure function, so failover needs no coordination.
    /// Falls back to the primary if every node is excluded. A plan that
    /// spans partitions balances its reads over the first two live
    /// replicas ([`Partitioner::balance_reads`]).
    pub fn owner_excluding(&self, gh: Geohash, exclude: &[usize]) -> usize {
        let primary = self.owner(gh);
        for i in 0..self.n_nodes {
            let candidate = (primary + i) % self.n_nodes;
            if !exclude.contains(&candidate) {
                return candidate;
            }
        }
        primary
    }

    /// [`Partitioner::owner_excluding`] by a Cell's spatial label.
    pub fn owner_of_cell_excluding(&self, key: &CellKey, exclude: &[usize]) -> usize {
        self.owner_excluding(key.geohash, exclude)
    }

    /// Does placement of `gh` depend on more partitions than its own?
    /// True exactly when the geohash is coarser than the placement prefix.
    pub fn spans_partitions(&self, gh: Geohash) -> bool {
        gh.len() < self.prefix_len
    }

    /// Readers for a plan's blocks, given each block's effective owner
    /// ([`Partitioner::owner_excluding`] under `exclude`) in plan order.
    ///
    /// Each block is read by its effective owner or by that owner's first
    /// live ring successor — the node failover would hand it to — and the
    /// split minimises the largest per-node read count over all such
    /// choices. Every block of one owner has the same two candidates, so
    /// the choice is how many of each owner's blocks move on: the smallest
    /// feasible ceiling `t` is found by bisection, and each owner above
    /// `t` (its own blocks plus what its predecessor passed on) moves the
    /// excess, taken from its last blocks in plan order. A pure function
    /// of its arguments, so every node derives the same readers.
    ///
    /// Panics if an owner is in `exclude` while some node is live: that is
    /// not an effective owner.
    pub fn balance_reads(&self, owners: &[usize], exclude: &[usize]) -> Vec<usize> {
        let live: Vec<usize> = (0..self.n_nodes).filter(|n| !exclude.contains(n)).collect();
        if live.len() < 2 || owners.is_empty() {
            return owners.to_vec();
        }
        // Position of each live node on the ring of live nodes.
        let mut pos = vec![usize::MAX; self.n_nodes];
        for (i, &n) in live.iter().enumerate() {
            pos[n] = i;
        }
        let mut count = vec![0usize; live.len()];
        for &o in owners {
            count[pos[o]] += 1;
        }
        let lower = owners.len().div_ceil(live.len());
        let upper = *count.iter().max().expect("at least two live nodes");
        let (mut lo, mut hi) = (lower, upper);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if moves_within(&count, mid).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let mut moving = moves_within(&count, lo).expect("the largest count is always feasible");
        let mut readers = owners.to_vec();
        for reader in readers.iter_mut().rev() {
            let i = pos[*reader];
            if moving[i] > 0 {
                moving[i] -= 1;
                *reader = live[(i + 1) % live.len()];
            }
        }
        readers
    }

    fn hash_prefix(&self, prefix: Geohash) -> usize {
        // Fibonacci-mix the packed bits together with the length so "9"
        // (len 1) and "90" (len 2) land independently.
        let mut x = prefix
            .bits()
            .wrapping_add((prefix.len() as u64) << 56)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        (x % self.n_nodes as u64) as usize
    }
}

/// How many of each ring position's blocks move to the next position so
/// that no position reads more than `ceiling`, moving as few as possible;
/// `None` if no split fits. Position `i` reads `count[i] - moved[i] +
/// moved[i - 1]` (around the ring). Moving the least at each step is
/// optimal, and the inflow into position 0 is the least fixed point of one
/// lap: a lap from zero inflow finds it, a second lap from it is the split.
fn moves_within(count: &[usize], ceiling: usize) -> Option<Vec<usize>> {
    if count.iter().sum::<usize>() > ceiling * count.len() {
        return None;
    }
    let lap = |inflow: usize| {
        count
            .iter()
            .fold(inflow, |inflow, &c| (c + inflow).saturating_sub(ceiling))
    };
    let mut inflow = lap(0);
    let mut moved = Vec::with_capacity(count.len());
    for &c in count {
        if inflow > ceiling {
            return None; // the position would have to move more than it owns
        }
        inflow = (c + inflow).saturating_sub(ceiling);
        moved.push(inflow);
    }
    Some(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::{TemporalRes, TimeBin};
    use std::str::FromStr;

    fn p() -> Partitioner {
        Partitioner::new(8, 2)
    }

    #[test]
    fn deterministic_and_in_range() {
        let part = p();
        for s in ["9q", "9q8y7", "dr5ru", "zzz", "0", "gcpvj"] {
            let gh = Geohash::from_str(s).unwrap();
            let o = part.owner(gh);
            assert!(o < 8);
            assert_eq!(o, part.owner(gh), "non-deterministic for {s}");
        }
    }

    #[test]
    fn placement_follows_prefix() {
        let part = p();
        // All geohashes sharing a 2-char prefix land on the same node —
        // that is the data-colocation property STASH relies on.
        let base = Geohash::from_str("9q").unwrap();
        let owner = part.owner(base);
        for child in base.children().unwrap() {
            assert_eq!(part.owner(child), owner, "{child} strayed from {base}");
            for grand in child.children().unwrap() {
                assert_eq!(part.owner(grand), owner);
            }
        }
    }

    #[test]
    fn different_prefixes_spread() {
        let part = Partitioner::new(16, 2);
        // Count distinct owners across all 1024 two-char prefixes: a
        // reasonable hash must use most of the ring.
        let mut used = std::collections::HashSet::new();
        let g0 = Geohash::from_str("0").unwrap();
        let parents: Vec<Geohash> = stash_geo::cover_bbox(&stash_geo::BBox::GLOBE, 1);
        assert_eq!(parents.len(), 32);
        for p1 in &parents {
            for p2 in p1.children().unwrap() {
                used.insert(part.owner(p2));
            }
        }
        assert!(used.len() >= 14, "only {} of 16 nodes used", used.len());
        let _ = g0;
    }

    #[test]
    fn coarse_geohash_uses_own_hash() {
        let part = p();
        let coarse = Geohash::from_str("9").unwrap();
        assert!(part.spans_partitions(coarse));
        assert!(!part.spans_partitions(Geohash::from_str("9q").unwrap()));
        assert!(part.owner(coarse) < 8);
        // Its placement must differ from at least one of its children's —
        // coarse cells genuinely span partitions.
        let owners: std::collections::HashSet<usize> =
            coarse.children().unwrap().map(|c| part.owner(c)).collect();
        assert!(owners.len() > 1, "children of a coarse hash should spread");
    }

    #[test]
    fn owner_of_cell_matches_geohash_owner() {
        let part = p();
        let gh = Geohash::from_str("9q8y").unwrap();
        let key = CellKey::new(gh, TimeBin::containing(TemporalRes::Day, 0));
        assert_eq!(part.owner_of_cell(&key), part.owner(gh));
        // Time does not affect placement.
        let key2 = CellKey::new(gh, TimeBin::containing(TemporalRes::Day, 86_400_000));
        assert_eq!(part.owner_of_cell(&key2), part.owner_of_cell(&key));
    }

    #[test]
    fn single_node_ring() {
        let part = Partitioner::new(1, 2);
        assert_eq!(part.owner(Geohash::from_str("zz").unwrap()), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        Partitioner::new(0, 2);
    }

    #[test]
    fn exclusion_walks_the_replica_chain() {
        let part = p();
        let gh = Geohash::from_str("9q8").unwrap();
        let primary = part.owner(gh);
        assert_eq!(part.owner_excluding(gh, &[]), primary);
        // Excluding the primary hands the block to its ring successor…
        assert_eq!(part.owner_excluding(gh, &[primary]), (primary + 1) % 8);
        // …and chains through consecutive failures.
        let two_down = [primary, (primary + 1) % 8];
        assert_eq!(part.owner_excluding(gh, &two_down), (primary + 2) % 8);
        // Excluding an unrelated node changes nothing.
        assert_eq!(part.owner_excluding(gh, &[(primary + 3) % 8]), primary);
    }

    #[test]
    fn exclusion_of_everyone_falls_back_to_primary() {
        let part = p();
        let gh = Geohash::from_str("9q8").unwrap();
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(part.owner_excluding(gh, &all), part.owner(gh));
    }

    /// Effective owners in plan order, `count[n]` blocks on node `n`.
    fn owners_of(count: &[usize]) -> Vec<usize> {
        count
            .iter()
            .enumerate()
            .flat_map(|(n, &c)| std::iter::repeat_n(n, c))
            .collect()
    }

    fn loads(readers: &[usize], n: usize) -> Vec<usize> {
        let mut load = vec![0; n];
        for &r in readers {
            load[r] += 1;
        }
        load
    }

    #[test]
    fn balanced_reads_level_a_resolution_1_gather() {
        // Cell `9` on one day of the benchmark's domain: 522 blocks.
        let part = p();
        let count = [64, 52, 80, 80, 64, 52, 80, 50];
        let owners = owners_of(&count);
        let readers = part.balance_reads(&owners, &[]);
        assert_eq!(*loads(&readers, 8).iter().max().unwrap(), 66);
        for (&o, &r) in owners.iter().zip(&readers) {
            assert!(r == o || r == (o + 1) % 8, "block of {o} read by {r}");
        }
        // Node 2 down: node 3 owns 160 and can pass only to node 4. With
        // nodes 2 and 3 down, node 4 owns 224.
        for (down, worst) in [(vec![2], 80), (vec![2, 3], 112)] {
            let owners: Vec<usize> = owners
                .iter()
                .map(|&o| (o..).map(|n| n % 8).find(|n| !down.contains(n)).unwrap())
                .collect();
            let readers = part.balance_reads(&owners, &down);
            let load = loads(&readers, 8);
            assert_eq!(*load.iter().max().unwrap(), worst, "{down:?}: {load:?}");
            assert!(down.iter().all(|&d| load[d] == 0));
        }
    }

    #[test]
    fn an_owner_moves_its_last_blocks() {
        // Node 0 owns 4 blocks, node 1 none: the last two move on.
        let part = Partitioner::new(2, 2);
        assert_eq!(part.balance_reads(&[0, 0, 0, 0], &[]), vec![0, 0, 1, 1]);
        // A lone live node, or a lone node, reads everything it owns.
        assert_eq!(part.balance_reads(&[0, 0], &[1]), vec![0, 0]);
        assert_eq!(
            Partitioner::new(1, 2).balance_reads(&[0, 0], &[]),
            vec![0, 0]
        );
    }

    #[test]
    fn cell_exclusion_matches_geohash_exclusion() {
        let part = p();
        let gh = Geohash::from_str("9q8y").unwrap();
        let key = CellKey::new(gh, TimeBin::containing(TemporalRes::Day, 0));
        let primary = part.owner(gh);
        assert_eq!(
            part.owner_of_cell_excluding(&key, &[primary]),
            part.owner_excluding(gh, &[primary]),
        );
    }
}
