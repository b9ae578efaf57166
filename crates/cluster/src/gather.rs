//! Complete summaries from raw storage (DESIGN.md §16): a Cell's
//! per-partition partials, gathered with "up to one query forwarding" per
//! block owner (§IV-D) and merged. Two parties gather: a node, for the
//! misses of a share it evaluates (it scans its own blocks inline), and the
//! front end, for a share whose owner stayed dark (it has no blocks and
//! reads the owner's off the DFS replica chain).

use crate::caller::{Call, Caller};
use crate::cluster::ClusterConfig;
use crate::protocol::{ClusterError, Msg, PARTIALS};
use stash_dfs::{plan_reads, NodeStore, Partitioner, MAX_BLOCKS_PER_FETCH};
use stash_model::{Cell, CellKey, CellSummary, QueryResult};
use stash_obs::StageTimes;
use std::collections::HashMap;
use std::time::Instant;

/// Why one gather round could not complete (see [`Gatherer::try_gather`]):
/// an unreachable owner is recoverable — grow the exclusion set and replan
/// onto the replica chain; anything else ends the gather.
#[derive(Debug)]
pub(crate) enum GatherFailure {
    Owner(usize, ClusterError),
    Fatal(ClusterError),
}

/// One party's view of the cluster's storage: how it asks block owners, the
/// geometry it plans blocks with, and its own store when it has one.
pub(crate) struct Gatherer<'a> {
    pub(crate) caller: &'a Caller,
    pub(crate) config: &'a ClusterConfig,
    pub(crate) partitioner: &'a Partitioner,
    /// The gathering node's blocks, scanned on its own thread; `None` at
    /// the front end.
    pub(crate) store: Option<&'a NodeStore>,
}

impl Gatherer<'_> {
    /// Complete summaries for `keys` by merging per-partition partials
    /// (local scan for owned blocks, one FetchPartials hop for blocks on
    /// peers).
    ///
    /// `base_exclude` seeds the dead-node set for failover reads; owners
    /// that stay unreachable after retries are added to it and the whole
    /// gather replans, walking each dead node's blocks down the DFS replica
    /// chain. Merged answers are exact as long as any replica survives.
    pub(crate) fn gather_partials(
        &self,
        keys: &[CellKey],
        base_exclude: &[usize],
        acc: &mut StageTimes,
    ) -> Result<Vec<(CellKey, CellSummary)>, ClusterError> {
        let mut exclude = base_exclude.to_vec();
        let n_nodes = self.partitioner.n_nodes();
        loop {
            match self.try_gather(keys, &exclude, acc) {
                Ok(out) => return Ok(out),
                Err(GatherFailure::Owner(node, err)) => {
                    if exclude.contains(&node) || exclude.len() + 1 >= n_nodes {
                        return Err(err); // replica chain exhausted
                    }
                    exclude.push(node);
                }
                Err(GatherFailure::Fatal(err)) => return Err(err),
            }
        }
    }

    /// One gather round under a fixed exclusion set. An unreachable owner
    /// aborts the round with [`GatherFailure::Owner`] so the caller can
    /// grow the exclusion and replan.
    fn try_gather(
        &self,
        keys: &[CellKey],
        exclude: &[usize],
        acc: &mut StageTimes,
    ) -> Result<Vec<(CellKey, CellSummary)>, GatherFailure> {
        // Which nodes read blocks relevant to these keys? Each of them
        // derives the same readers from the same (keys, exclude).
        let mut readers: Vec<usize> = plan_reads(
            keys,
            self.config.block_len,
            &self.config.data_bbox,
            &self.config.data_time,
            MAX_BLOCKS_PER_FETCH,
            self.partitioner,
            exclude,
        )
        .map_err(|e| GatherFailure::Fatal(ClusterError::Storage(e.to_string())))?
        .into_iter()
        .map(|(_, _, reader)| reader)
        .collect();
        readers.sort_unstable();
        readers.dedup();

        // Every remote reader gets its FetchPartials before this party scans
        // its own blocks, so the round costs max(local, slowest remote), not
        // local + slowest remote.
        let me = self.caller.id.0;
        let mut waits = Vec::new();
        for &owner in readers.iter().filter(|&&o| o != me) {
            // A refused send aborts the round: the calls already made are
            // dropped, which cancels their slots, so peers' replies for
            // them are stale.
            let call = send_fetch(self.caller, owner, keys, exclude)
                .map_err(|e| GatherFailure::Owner(owner, e))?;
            waits.push(call);
        }
        let mut local: Vec<(CellKey, CellSummary)> = Vec::new();
        if let Some(store) = self.store.filter(|_| readers.contains(&me)) {
            let scan = Instant::now();
            local = store
                .fetch_partials_excluding(keys, exclude)
                .map_err(|e| GatherFailure::Fatal(ClusterError::Storage(e.to_string())))?;
            acc.dfs_ns += scan.elapsed().as_nanos() as u64;
        }
        // Merge partials per key; keys with no observations end up with an
        // empty summary (a valid "computed, empty" answer).
        let n_attrs = self.config.n_attrs;
        let mut merged: HashMap<CellKey, CellSummary> = keys
            .iter()
            .map(|&k| (k, CellSummary::empty(n_attrs)))
            .collect();
        let mut sketch_merges = 0u64;
        absorb_fragment(&mut merged, &mut sketch_merges, local)?;
        let mut dead: Option<(usize, ClusterError)> = None;
        for call in waits {
            let owner = call.node;
            match self
                .caller
                .wait(call, self.config.sub_rpc_timeout, PARTIALS)
            {
                Ok((Ok(parts), st)) => {
                    acc.add(&st);
                    absorb_fragment(&mut merged, &mut sketch_merges, parts)?;
                }
                // Retry this owner alone before declaring it dead; keep
                // draining the other waits either way.
                Err(ClusterError::Timeout { .. }) if dead.is_none() => {
                    match self.fetch_retried(owner, keys, exclude, acc) {
                        Ok(parts) => absorb_fragment(&mut merged, &mut sketch_merges, parts)?,
                        Err(e) if e.is_transient() => dead = Some((owner, e)),
                        Err(e) => return Err(GatherFailure::Fatal(e)),
                    }
                }
                Err(ClusterError::Timeout { .. }) => {}
                Ok((Err(e), _)) | Err(e) => return Err(GatherFailure::Fatal(e)),
            }
        }
        if let Some((node, err)) = dead {
            return Err(GatherFailure::Owner(node, err));
        }
        if sketch_merges > 0 {
            self.caller.obs.counter("sketch.merges").add(sketch_merges);
        }
        let mut out: Vec<(CellKey, CellSummary)> = merged.into_iter().collect();
        out.sort_by_key(|(k, _)| *k);
        Ok(out)
    }

    /// A block owner's FetchPartials, asked again under the retry policy.
    /// `acc` collects the responder's stage times and the backoff naps.
    fn fetch_retried(
        &self,
        owner: usize,
        keys: &[CellKey],
        exclude: &[usize],
        acc: &mut StageTimes,
    ) -> Result<Vec<(CellKey, CellSummary)>, ClusterError> {
        let attempts = ClusterConfig::SUB_RPC_RETRIES + 1;
        let salt = owner as u64 ^ 0xF00D;
        let (outcome, napped) = self.caller.retry(salt, attempts, false, || {
            let call = send_fetch(self.caller, owner, keys, exclude)?;
            let (result, st) = self
                .caller
                .wait(call, self.config.sub_rpc_timeout, PARTIALS)?;
            acc.add(&st);
            result
        });
        acc.retry_ns += napped.as_nanos() as u64;
        outcome
    }
}

/// One FetchPartials for `keys` to a block owner under `exclude`.
pub(crate) fn send_fetch<'a>(
    caller: &'a Caller,
    owner: usize,
    keys: &[CellKey],
    exclude: &[usize],
) -> Result<Call<'a>, ClusterError> {
    caller.call(owner, |rpc, reply_to| Msg::FetchPartials {
        rpc,
        reply_to,
        keys: keys.to_vec(),
        exclude: exclude.to_vec(),
    })
}

/// A share answered from storage: every key recomputed, so every key is a
/// miss, and empty summaries are dropped exactly as `evaluate` drops them —
/// so Basic's answers and a failed-over share match the fault-free STASH
/// path.
pub(crate) fn recomputed(parts: Vec<(CellKey, CellSummary)>, n_keys: usize) -> QueryResult {
    QueryResult {
        cells: parts
            .into_iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(key, summary)| Cell { key, summary })
            .collect(),
        misses: n_keys,
        ..QueryResult::default()
    }
}

/// Fold one partials fragment — the local scan's, or a peer's
/// wire-delivered reply — into a gather's per-key accumulators.
///
/// `sketch_merges` counts pairwise estimator-state merges (both sides
/// sketched; the seed's first adoption is a clone, not a merge) — the
/// gatherer-side half of the `sketch.merges` counter, matching the
/// per-store fragment-merge half.
///
/// A fragment built by a misconfigured peer (wrong schema width or sketch
/// parameters) is a protocol fault of that deployment, not a reason to
/// crash this party: the merge is refused with a typed error and the round
/// aborts.
pub(crate) fn absorb_fragment(
    merged: &mut HashMap<CellKey, CellSummary>,
    sketch_merges: &mut u64,
    parts: Vec<(CellKey, CellSummary)>,
) -> Result<(), GatherFailure> {
    for (key, summary) in parts {
        if let Some(m) = merged.get_mut(&key) {
            let sketched = m.has_sketches() && summary.has_sketches();
            m.merge_strict(&summary).map_err(|e| {
                GatherFailure::Fatal(ClusterError::Protocol(format!(
                    "partials fragment for {key:?} refused: {e}"
                )))
            })?;
            if sketched {
                *sketch_merges += summary.n_attrs() as u64;
            }
        }
    }
    Ok(())
}
