//! Fabric-wide and per-node counters, shared lock-free across router clones.

use std::sync::atomic::{AtomicU64, Ordering};

/// One cache line of counters for one destination node. Every ledger event
/// of a message is recorded under its destination, so senders to different
/// nodes never bounce a shared counter line between cores; the fabric-wide
/// totals are the sums over the lanes.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Lane {
    messages_sent: AtomicU64,
    messages_delivered: AtomicU64,
    messages_dropped: AtomicU64,
    messages_loopback: AtomicU64,
    messages_refused: AtomicU64,
    bytes_sent: AtomicU64,
}

/// Message and byte counters for a [`Router`](crate::Router).
///
/// Relaxed ordering everywhere: these are monitoring counters, not
/// synchronization. (Per the concurrency guide: counters that no control
/// flow depends on need no happens-before edges.)
///
/// One lane per destination node, sized once at fabric construction; a
/// default (node-less) stats block has a single lane that tracks the totals
/// only.
#[derive(Debug)]
pub struct NetStats {
    /// Always at least one lane.
    lanes: Vec<Lane>,
    n_nodes: usize,
}

impl Default for NetStats {
    fn default() -> Self {
        NetStats::with_nodes(0)
    }
}

impl NetStats {
    /// Stats block with one lane per node of a fabric of `n_nodes`.
    pub fn with_nodes(n_nodes: usize) -> Self {
        NetStats {
            lanes: (0..n_nodes.max(1)).map(|_| Lane::default()).collect(),
            n_nodes,
        }
    }

    fn lane(&self, dst: usize) -> &Lane {
        // Modulo keeps any index safe on a node-less block.
        &self.lanes[dst % self.lanes.len()]
    }

    pub(crate) fn record_send(&self, dst: usize, bytes: usize) {
        let l = self.lane(dst);
        l.messages_sent.fetch_add(1, Ordering::Relaxed);
        l.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_deliver(&self, dst: usize) {
        self.lane(dst)
            .messages_delivered
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_drop(&self, dst: usize) {
        self.lane(dst)
            .messages_dropped
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_loopback(&self, dst: usize) {
        self.lane(dst)
            .messages_loopback
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_refuse(&self, dst: usize) {
        self.lane(dst)
            .messages_refused
            .fetch_add(1, Ordering::Relaxed);
    }

    fn sum(&self, field: impl Fn(&Lane) -> &AtomicU64) -> u64 {
        self.lanes
            .iter()
            .map(|l| field(l).load(Ordering::Relaxed))
            .sum()
    }

    fn of_node(&self, node: usize, field: impl Fn(&Lane) -> &AtomicU64) -> u64 {
        if node < self.n_nodes {
            field(&self.lanes[node]).load(Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Messages accepted by [`Router::send`](crate::Router::send).
    pub fn messages_sent(&self) -> u64 {
        self.sum(|l| &l.messages_sent)
    }

    /// Messages whose wire delay ended on a live queue of their destination
    /// (loopback sends skip the wire and are counted in
    /// [`NetStats::messages_loopback`] instead).
    pub fn messages_delivered(&self) -> u64 {
        self.sum(|l| &l.messages_delivered)
    }

    /// Messages lost to fault injection, partitions, crashes, stopped
    /// endpoints, or fabric teardown.
    pub fn messages_dropped(&self) -> u64 {
        self.sum(|l| &l.messages_dropped)
    }

    /// Loopback sends completed without touching the wire.
    pub fn messages_loopback(&self) -> u64 {
        self.sum(|l| &l.messages_loopback)
    }

    /// Sends refused outright (crashed peer); never accepted, so not part
    /// of the sent/delivered/dropped/loopback ledger.
    pub fn messages_refused(&self) -> u64 {
        self.sum(|l| &l.messages_refused)
    }

    /// `sent - delivered - dropped - loopback`: what the ledger says must
    /// still be parked on the wire. Exact once the fabric is quiescent.
    pub fn ledger_in_flight(&self) -> i64 {
        self.messages_sent() as i64
            - self.messages_delivered() as i64
            - self.messages_dropped() as i64
            - self.messages_loopback() as i64
    }

    /// Total payload bytes accepted.
    pub fn bytes_sent(&self) -> u64 {
        self.sum(|l| &l.bytes_sent)
    }

    /// Messages to `node` accepted by [`Router::send`](crate::Router::send);
    /// 0 if the id is out of range.
    pub fn node_sent(&self, node: usize) -> u64 {
        self.of_node(node, |l| &l.messages_sent)
    }

    /// Wire deliveries to `node`; 0 if the id is out of range.
    pub fn node_delivered(&self, node: usize) -> u64 {
        self.of_node(node, |l| &l.messages_delivered)
    }

    /// Messages destined for `node` that were lost; 0 if out of range.
    pub fn node_dropped(&self, node: usize) -> u64 {
        self.of_node(node, |l| &l.messages_dropped)
    }

    /// Sends to `node` refused because a peer was crashed; 0 if out of
    /// range.
    pub fn node_refused(&self, node: usize) -> u64 {
        self.of_node(node, |l| &l.messages_refused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NetStats::with_nodes(2);
        s.record_send(1, 10);
        s.record_send(1, 20);
        s.record_deliver(1);
        s.record_drop(0);
        assert_eq!(s.messages_sent(), 2);
        assert_eq!(s.bytes_sent(), 30);
        assert_eq!(s.messages_delivered(), 1);
        assert_eq!(s.messages_dropped(), 1);
        assert_eq!(s.node_sent(1), 2);
        assert_eq!(s.node_sent(0), 0);
        assert_eq!(s.node_delivered(1), 1);
        assert_eq!(s.node_delivered(0), 0);
        assert_eq!(s.node_dropped(0), 1);
        assert_eq!(s.node_dropped(1), 0);
    }

    #[test]
    fn loopback_and_refusals_have_their_own_ledger_lines() {
        let s = NetStats::with_nodes(2);
        s.record_send(0, 8);
        s.record_loopback(0);
        s.record_refuse(1);
        assert_eq!(s.messages_sent(), 1);
        assert_eq!(s.messages_loopback(), 1);
        assert_eq!(s.messages_refused(), 1);
        assert_eq!(s.node_refused(1), 1);
        assert_eq!(s.node_refused(0), 0);
        // Loopback is inside the ledger; the refusal is outside it.
        assert_eq!(s.ledger_in_flight(), 0);
        assert_eq!(s.messages_delivered(), 0);
        assert_eq!(s.messages_dropped(), 0);
    }

    #[test]
    fn out_of_range_node_counts_totals_only() {
        let s = NetStats::default();
        s.record_deliver(7);
        s.record_drop(7);
        assert_eq!(s.messages_delivered(), 1);
        assert_eq!(s.messages_dropped(), 1);
        assert_eq!(s.node_delivered(7), 0);
        assert_eq!(s.node_dropped(7), 0);
    }

    #[test]
    fn lanes_merge_at_read_time() {
        let s = NetStats::with_nodes(4);
        for dst in 0..4 {
            s.record_send(dst, 10);
            s.record_deliver(dst);
        }
        // Out-of-range destinations wrap instead of panicking.
        s.record_send(17, 5);
        assert_eq!(s.messages_sent(), 5);
        assert_eq!(s.bytes_sent(), 45);
        assert_eq!(s.messages_delivered(), 4);
        assert_eq!(s.node_delivered(2), 1);
    }

    #[test]
    fn counters_are_thread_safe() {
        let s = std::sync::Arc::new(NetStats::with_nodes(1));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_send(0, 1);
                        s.record_deliver(0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.messages_sent(), 8000);
        assert_eq!(s.bytes_sent(), 8000);
        assert_eq!(s.messages_delivered(), 8000);
        assert_eq!(s.node_delivered(0), 8000);
    }
}
