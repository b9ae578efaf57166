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

use crate::client::Gateway;
use crate::protocol::Msg;
use stash_dfs::{BlockKey, Partitioner};
use stash_ingest::{AppendSink, IngestError};
use stash_model::Observation;
use stash_net::rpc::RpcError;
use std::sync::Arc;
use std::time::Duration;

/// Producer-side handle for streaming batches into a running cluster.
pub struct IngestClient {
    gateway: Arc<Gateway>,
    partitioner: Partitioner,
    timeout: Duration,
    retries: u32,
    backoff: Duration,
}

impl IngestClient {
    pub(crate) fn new(
        gateway: Arc<Gateway>,
        partitioner: Partitioner,
        timeout: Duration,
        retries: u32,
        backoff: Duration,
    ) -> Self {
        IngestClient {
            gateway,
            partitioner,
            timeout,
            retries,
            backoff,
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
    /// incomplete invalidation round) are retried in place: they are
    /// usually transient fault-plan weather, and `Duplicate` idempotency
    /// makes re-sends harmless.
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
            for attempt in 0..=self.retries {
                if attempt > 0 {
                    std::thread::sleep(self.backoff.saturating_mul(1 << (attempt - 1).min(4)));
                }
                let sent = self
                    .gateway
                    .send_rpc(target, |rpc, reply_to| Msg::AppendBatch {
                        rpc,
                        reply_to,
                        block,
                        seq,
                        rows: Arc::clone(&rows),
                        last,
                    });
                let Some((rpc, slot)) = sent else {
                    break; // target crashed: fail over now
                };
                // A positive ack means batch applied and every peer's
                // caches invalidated; anything else is retried.
                match self.gateway.wait(rpc, &slot, self.timeout) {
                    Ok((Msg::AppendAck { applied: true, .. }, _)) => return Ok(()),
                    Ok(_) | Err(RpcError::Timeout) => {} // retry / fail over
                    Err(RpcError::Canceled) => {
                        return Err(IngestError("cluster disconnected".into()))
                    }
                }
            }
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
