//! One way to ask a peer (DESIGN.md §10, §16): every request/reply exchange
//! of the cluster is a [`Call`] made through the asking party's [`Caller`],
//! read by the one reader of its reply kind ([`Reply`]), and — where it may
//! be asked again — run under the one retry policy, [`Caller::retry`].

use crate::protocol::{ClusterError, Msg, Reply};
use stash_net::{Handover, NodeId, Parked, Port, ReplySlot, Router, RpcTable};
use stash_obs::{Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A party's attachment to the fabric: the node id its requests leave from
/// and its replies are addressed to, the slots those replies complete, its
/// registry and its retry backoff. Every node owns one, and so does the
/// front end, whose port is all replies: it has no thread.
pub(crate) struct Caller {
    pub(crate) id: NodeId,
    pub(crate) router: Router<Msg>,
    rpc: RpcTable<Msg>,
    pub(crate) obs: Arc<MetricsRegistry>,
    /// `net.late_ns`: how long after its due time each modeled wait of this
    /// party (reply slots; a node's tier queues and inbox) actually ended.
    late: Arc<Histogram>,
    /// Base of [`backoff`].
    backoff: Duration,
    /// Sends the fabric refused (peer crashed / shutdown) — each one is a
    /// failover trigger somewhere upstream.
    pub(crate) refused: AtomicU64,
}

/// A request in flight: the peer it went to and the slot its reply will
/// complete. A call dropped without a [`Caller::wait`] cancels its id, so
/// its slot does not outlive it and a reply that comes later is stale.
pub(crate) struct Call<'a> {
    pub(crate) node: usize,
    pub(crate) id: u64,
    slot: ReplySlot<Msg>,
    /// The table the id is pending in; cleared by the wait, which leaves
    /// nothing to cancel.
    pending: Option<&'a RpcTable<Msg>>,
}

impl Drop for Call<'_> {
    fn drop(&mut self) {
        if let Some(rpc) = self.pending {
            rpc.cancel(self.id);
        }
    }
}

impl Caller {
    pub(crate) fn new(
        id: NodeId,
        router: Router<Msg>,
        obs: Arc<MetricsRegistry>,
        backoff: Duration,
    ) -> Self {
        Caller {
            id,
            router,
            rpc: RpcTable::default(),
            late: obs.histogram("net.late_ns"),
            obs,
            backoff,
            refused: AtomicU64::new(0),
        }
    }

    /// Send over the fabric. Returns `false` when the fabric refuses the
    /// message — destination (or self) crashed, or shutdown. Refusals are
    /// counted and logged once.
    #[must_use]
    pub(crate) fn send(&self, dst: NodeId, msg: Msg) -> bool {
        let bytes = msg.wire_size();
        if self.router.send(self.id, dst, msg, bytes) {
            return true;
        }
        if self.refused.fetch_add(1, Ordering::Relaxed) == 0 {
            eprintln!(
                "stash-cluster: node {} -> {} send refused by fabric (peer crashed or shutdown); \
                 further refusals counted silently",
                self.id.0, dst.0
            );
        }
        false
    }

    /// The one way a request leaves: register a reply slot and send the
    /// request `build` makes around its id and this caller's address. A
    /// refused send is [`ClusterError::Unreachable`].
    pub(crate) fn call(
        &self,
        dst: usize,
        build: impl FnOnce(u64, NodeId) -> Msg,
    ) -> Result<Call<'_>, ClusterError> {
        let (id, slot) = self.rpc.register();
        if self.send(NodeId(dst), build(id, self.id)) {
            Ok(Call {
                node: dst,
                id,
                slot,
                pending: Some(&self.rpc),
            })
        } else {
            self.rpc.cancel(id);
            Err(ClusterError::Unreachable { node: dst })
        }
    }

    /// Wait for the reply to `call` until it is due, or until `timeout`
    /// ([`ClusterError::Timeout`]), and read it as `reply`.
    pub(crate) fn wait<T>(
        &self,
        mut call: Call<'_>,
        timeout: Duration,
        reply: Reply<T>,
    ) -> Result<T, ClusterError> {
        // Whatever the wait's outcome, it takes the id out of the table.
        let arrived = self.rpc.wait(call.id, &call.slot, timeout);
        call.pending = None;
        let arrived = arrived.ok_or(ClusterError::Timeout {
            node: call.node,
            op: reply.op,
        })?;
        self.record_late(arrived.late);
        (reply.read)(arrived.response, arrived.wire.as_nanos() as u64)
    }

    /// [`Caller::call`], then [`Caller::wait`].
    pub(crate) fn ask<T>(
        &self,
        dst: usize,
        timeout: Duration,
        reply: Reply<T>,
        build: impl FnOnce(u64, NodeId) -> Msg,
    ) -> Result<T, ClusterError> {
        self.wait(self.call(dst, build)?, timeout, reply)
    }

    /// The one retry policy: run `attempt` until it ends in anything but a
    /// [`ClusterError::Timeout`] — an answer, a refused send, a protocol
    /// error — or until the last of `attempts` times out. The `n`-th nap is
    /// [`backoff`]`(base, self, salt, n)`; with `nap_first` the first
    /// attempt made here is napped for too, because it follows a fan-out's
    /// attempt that timed out. Returns the outcome and the time napped.
    pub(crate) fn retry<T>(
        &self,
        salt: u64,
        attempts: u32,
        nap_first: bool,
        mut attempt: impl FnMut() -> Result<T, ClusterError>,
    ) -> (Result<T, ClusterError>, Duration) {
        let first = u32::from(nap_first);
        let mut napped = Duration::ZERO;
        let mut n = first;
        loop {
            if n > 0 {
                let nap = backoff(self.backoff, self.id.0, salt, n);
                std::thread::sleep(nap);
                napped += nap;
            }
            match attempt() {
                Err(ClusterError::Timeout { .. }) if n + 1 - first < attempts => n += 1,
                outcome => return (outcome, napped),
            }
        }
    }

    /// Hand the reply `parked` (correlation id `rpc`) to its waiter, due
    /// when the wire says (one that never rode the wire is due now). A reply
    /// whose slot is gone — a fabric duplicate, its waiter timed out, or it
    /// was addressed to a previous incarnation of this node — is counted as
    /// `node.stale_reply` and dropped.
    pub(crate) fn complete(&self, rpc: u64, parked: Parked<Msg>) {
        let Parked { due, sent_at, env } = parked;
        if !self
            .rpc
            .complete_at(rpc, env.payload, sent_at.unwrap_or(due), due)
        {
            self.obs.inc("node.stale_reply");
        }
    }

    /// The front end's port (see [`stash_net::Port`]): every reply completes
    /// its slot; nothing falls through, there is no inbox to drain.
    pub(crate) fn port(self: &Arc<Self>) -> Port<Msg> {
        let this = Arc::clone(self);
        Arc::new(move |parked: Parked<Msg>| {
            match parked.env.payload.reply_id() {
                Some(rpc) => this.complete(rpc, parked),
                // A message the gateway has no business receiving. Counted,
                // not asserted: chaos runs must survive it.
                None => this.obs.inc("gateway.unexpected_msg"),
            }
            Handover::Taken
        })
    }

    /// A modeled wait of this party ended `late` after its due time.
    pub(crate) fn record_late(&self, late: Option<Duration>) {
        if let Some(late) = late {
            self.late.record_duration(late);
        }
    }
}

/// Exponential backoff with deterministic jitter: the nap before retry
/// `attempt` (1-based) of party `who` at the site and peer `salt` lies in
/// `[b, 1.5 b)` for `b = base · 2^min(attempt − 1, 4)`. A pure hash of its
/// inputs, so a replayed fault schedule sees identical retry timing — the
/// chaos suites depend on it.
pub(crate) fn backoff(base: Duration, who: usize, salt: u64, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1 << attempt.saturating_sub(1).min(4));
    let mut x =
        (who as u64) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    exp + exp.mul_f64((x % 1024) as f64 / 2048.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ACK;
    use stash_net::{Envelope, NetConfig};

    #[test]
    fn backoff_is_a_pure_function_inside_its_band() {
        let base = Duration::from_millis(10);
        for who in 0..4 {
            for salt in [0u64, 1, 7 ^ 0xF00D, 3 ^ 0x1A55, u64::MAX] {
                for attempt in 1..=8u32 {
                    let nap = backoff(base, who, salt, attempt);
                    assert_eq!(nap, backoff(base, who, salt, attempt));
                    let b = base * (1 << (attempt - 1).min(4));
                    assert!(
                        b <= nap && nap < b.mul_f64(1.5),
                        "{nap:?} outside [{b:?}, 1.5 b)"
                    );
                }
            }
        }
        // The naps the node sites took before there was one policy, pinned:
        // a replayed chaos run must nap exactly as it used to.
        for (who, salt, attempt, ns) in [
            (0, 1, 1, 10_102_539),
            (0, 3 ^ 0xF00D, 2, 23_437_500),
            (0, 1 ^ 0x1A55, 6, 211_093_750),
            (1, 1, 6, 214_375_000),
            (1, 3 ^ 0xF00D, 1, 13_969_727),
            (1, 1 ^ 0x1A55, 2, 22_626_953),
        ] {
            assert_eq!(backoff(base, who, salt, attempt).as_nanos(), ns);
        }
    }

    /// Node 2 of a fabric nobody else listens on, napping in microseconds.
    fn caller() -> Caller {
        let (router, _endpoints) = Router::new(3, NetConfig::default());
        let obs = Arc::new(MetricsRegistry::new());
        Caller::new(NodeId(2), router, obs, Duration::from_micros(10))
    }

    fn timeout() -> ClusterError {
        ClusterError::Timeout { node: 1, op: "x" }
    }

    /// Attempts made by a policy whose every attempt times out; checks the
    /// naps taken on the way.
    fn exhaust(attempts: u32, nap_first: bool) -> u32 {
        let caller = caller();
        let mut made = 0;
        let (outcome, napped) = caller.retry(5, attempts, nap_first, || -> Result<(), _> {
            made += 1;
            Err(timeout())
        });
        assert_eq!(outcome, Err(timeout()), "the last timeout is the outcome");
        let naps = (1..made + u32::from(nap_first)).map(|n| backoff(caller.backoff, 2, 5, n));
        assert_eq!(napped, naps.sum::<Duration>());
        made
    }

    /// A call given up without its wait — a gather that returned on an
    /// error, an aborted round — must not strand its slot in the table for
    /// the life of the party, and a reply that comes afterwards is stale.
    #[test]
    fn a_call_dropped_unwaited_cancels_its_slot() {
        let caller = caller();
        let ask = || {
            caller
                .call(1, |rpc, reply_to| Msg::Distress {
                    rpc,
                    reply_to,
                    n_cells: 1,
                })
                .expect("the fabric is up")
        };
        let call = ask();
        let id = call.id;
        assert_eq!(caller.rpc.in_flight(), 1);
        drop(call);
        assert_eq!(caller.rpc.in_flight(), 0, "an un-waited call left its slot");
        let reply = Msg::DistressAck {
            rpc: id,
            accept: true,
        };
        caller.complete(id, Parked::local(Envelope::local(NodeId(2), reply)));
        assert_eq!(caller.obs.counter("node.stale_reply").get(), 1);
        // A waited call leaves the table through its wait, even one that
        // timed out; only the un-waited one is left to cancel.
        let waited = ask();
        let other = ask();
        let got = caller.wait(waited, Duration::from_millis(1), ACK);
        assert!(matches!(got, Err(ClusterError::Timeout { node: 1, .. })));
        assert_eq!(caller.rpc.in_flight(), 1);
        drop(other);
        assert_eq!(caller.rpc.in_flight(), 0);
    }

    #[test]
    fn only_a_timeout_is_asked_again() {
        assert_eq!(exhaust(3, false), 3);
        assert_eq!(exhaust(6, true), 6);
        assert_eq!(exhaust(1, false), 1);
        let caller = caller();
        for end in [
            Ok(7),
            Err(ClusterError::Unreachable { node: 1 }),
            Err(ClusterError::Protocol("x".into())),
        ] {
            let mut made = 0;
            let (outcome, napped) = caller.retry(0, 5, false, || {
                made += 1;
                if made == 1 {
                    Err(timeout())
                } else {
                    end.clone()
                }
            });
            assert_eq!((made, outcome), (2, end));
            assert_eq!(napped, backoff(caller.backoff, 2, 0, 1));
        }
    }
}
