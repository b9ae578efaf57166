//! Cluster-side ingest sink: ships append batches from the gateway to
//! block owners, with retries and replica-chain failover.
//!
//! This is the [`AppendSink`] a [`crate::SimCluster`] hands to the
//! `stash-ingest` pump. One `append` call blocks until some live node has
//! (a) durably applied the batch to the shared storage and (b) received
//! invalidation acks from every live peer — the positive [`Msg::AppendAck`]
//! is only sent after both. Because storage is replicated (one shared
//! source behind every node) and appends are seq-idempotent, failing over
//! to *any* node is safe: a retried batch that already landed is a
//! `Duplicate`, which re-broadcasts invalidations and acks positively.

use crate::caller::Caller;
use crate::protocol::{ClusterError, Msg, ACK};
use stash_dfs::{BlockKey, Partitioner};
use stash_ingest::{AppendSink, IngestError};
use stash_model::Observation;
use std::sync::Arc;
use std::time::Duration;

/// Producer-side handle for streaming batches into a running cluster.
pub struct IngestClient {
    gateway: Arc<Caller>,
    partitioner: Partitioner,
    timeout: Duration,
    retries: u32,
}

impl IngestClient {
    pub(crate) fn new(
        gateway: Arc<Caller>,
        partitioner: Partitioner,
        timeout: Duration,
        retries: u32,
    ) -> Self {
        IngestClient {
            gateway,
            partitioner,
            timeout,
            retries,
        }
    }
}

impl AppendSink for IngestClient {
    fn owner_of(&self, block: BlockKey) -> usize {
        self.partitioner.owner(block.geohash)
    }

    /// Send the batch to the block's owner; on repeated timeouts or a
    /// refused send (owner crashed) walk the replica chain — any node can
    /// apply against the shared storage. Negative acks (rejected batch,
    /// incomplete invalidation round) are retried in place like lost ones,
    /// under the cluster's one retry policy: they are usually transient
    /// fault-plan weather, and `Duplicate` idempotency makes re-sends
    /// harmless.
    fn append(
        &self,
        block: BlockKey,
        seq: u64,
        rows: &[Observation],
        last: bool,
    ) -> Result<(), IngestError> {
        let n_nodes = self.partitioner.n_nodes();
        // One copy of the batch for every attempt and failover target.
        let rows: Arc<[Observation]> = rows.into();
        let mut exclude: Vec<usize> = Vec::new();
        loop {
            let target = self.partitioner.owner_excluding(block.geohash, &exclude);
            let attempts = self.retries + 1;
            let (applied, _) = self.gateway.retry(target as u64, attempts, false, || {
                let applied = self
                    .gateway
                    .ask(target, self.timeout, ACK, |rpc, reply_to| {
                        Msg::AppendBatch {
                            rpc,
                            reply_to,
                            block,
                            seq,
                            rows: Arc::clone(&rows),
                            last,
                        }
                    })?;
                // A positive ack means batch applied and every peer's
                // caches invalidated; a negative one is asked again.
                applied.then_some(()).ok_or(ClusterError::Timeout {
                    node: target,
                    op: "append",
                })
            });
            if applied.is_ok() {
                return Ok(());
            }
            // The target crashed, or never confirmed: fail over.
            exclude.push(target);
            if exclude.len() >= n_nodes {
                return Err(IngestError(format!(
                    "no node accepted batch {seq} of block {}/{}",
                    block.geohash, block.day
                )));
            }
        }
    }
}
