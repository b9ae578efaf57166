//! The delay queue: where a message spends its wire time.
//!
//! [`Router::send`](crate::Router::send) hands every message to its
//! destination at *send* time, stamped with the instant it is due. A
//! [`DelayQueue`] holds it until then and releases it to whichever consumer
//! takes it: `recv` returns only due messages and waits *on the queue* for
//! the head's due time, so a message with an earlier due time that arrives
//! meanwhile pre-empts the wait, and nobody ever holds a message that is
//! not yet due. A hop is one timed wait on the thread that will use the
//! message.
//!
//! With several consumers on one queue (a node's worker tier) every idle
//! one waits for the head's due time and the first to get there takes the
//! message. Having one of them keep the watch for the rest (one wake-up per
//! message, not one per consumer) was built and measured: 8 context
//! switches per warm query against 20, `query_p50_ms` within 3 %, and a
//! tail — the one watcher is sometimes the thread the scheduler keeps
//! waiting (EXPERIMENTS.md, "One watcher or all").

use crate::router::{Envelope, NodeId};
use crate::stats::NetStats;
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::{RecvError, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A message between `send` and the consumer that takes it.
#[derive(Debug)]
pub struct Parked<M> {
    /// When the wire releases it.
    pub due: Instant,
    /// When it entered the wire — whoever takes it stamps
    /// [`Envelope::wire`] and [`Envelope::late`] from this. `None` for a
    /// message that never rode the wire (loopback, a node's re-dispatch of
    /// something it already took): its stamps are final and
    /// the fabric's ledger does not count it.
    pub sent_at: Option<Instant>,
    pub env: Envelope<M>,
}

impl<M> Parked<M> {
    /// A locally dispatched message: due now, stamps untouched.
    pub fn local(env: Envelope<M>) -> Self {
        Parked {
            due: Instant::now(),
            sent_at: None,
            env,
        }
    }
}

struct Entry<M> {
    seq: u64,
    parked: Parked<M>,
}

// Order by (due, seq) — BinaryHeap is a max-heap, so wrap in Reverse at the
// usage site. seq is per queue and breaks ties FIFO.
impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.parked.due == other.parked.due && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.parked.due, self.seq).cmp(&(other.parked.due, other.seq))
    }
}

struct State<M> {
    /// Not yet due, ordered by `(due, seq)`.
    wire: BinaryHeap<Reverse<Entry<M>>>,
    /// Due and counted as delivered, in the order they became so.
    ready: VecDeque<Parked<M>>,
    seq: u64,
    closed: bool,
}

impl<M> State<M> {
    /// Move everything due by `now` from the wire to the ready list. This
    /// is the moment a message counts as *delivered* (DESIGN.md §16): its
    /// due time has passed on a live queue. It is observed lazily, by the
    /// next operation on the queue.
    fn mature(&mut self, now: Instant, stats: &NetStats, node: usize) {
        while self
            .wire
            .peek()
            .is_some_and(|Reverse(e)| e.parked.due <= now)
        {
            let Reverse(e) = self.wire.pop().expect("peeked non-empty");
            self.arrive(e.parked, stats, node);
        }
    }

    fn arrive(&mut self, parked: Parked<M>, stats: &NetStats, node: usize) {
        if parked.sent_at.is_some() {
            stats.record_deliver(node);
        }
        self.ready.push_back(parked);
    }
}

struct Shared<M> {
    state: Mutex<State<M>>,
    wakeup: Condvar,
    stats: Arc<NetStats>,
    node: usize,
}

/// A delay queue of one node: the node's inbox, or a further queue the
/// node had the fabric make for it ([`Router::delay_queue`]). Cheap to
/// clone; clones share the queue, and any number of them may consume.
///
/// [`Router::delay_queue`]: crate::Router::delay_queue
pub struct DelayQueue<M> {
    shared: Arc<Shared<M>>,
}

impl<M> Clone for DelayQueue<M> {
    fn clone(&self) -> Self {
        DelayQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// How a blocking take ends when it has nothing to return.
enum Idle {
    Closed,
    TimedOut,
}

impl<M> DelayQueue<M> {
    pub(crate) fn new(stats: Arc<NetStats>, node: NodeId) -> Self {
        DelayQueue {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    wire: BinaryHeap::new(),
                    ready: VecDeque::new(),
                    seq: 0,
                    closed: false,
                }),
                wakeup: Condvar::new(),
                stats,
                node: node.0,
            }),
        }
    }

    /// Park a message until its due time. Returns `false` when the queue is
    /// closed (node crashed, endpoint dropped, fabric shut down); a message
    /// the ledger counts is then recorded as dropped.
    pub fn push(&self, parked: Parked<M>) -> bool {
        let s = &*self.shared;
        let mut st = s.state.lock();
        if st.closed {
            drop(st);
            if parked.sent_at.is_some() {
                s.stats.record_drop(s.node);
            }
            return false;
        }
        let now = Instant::now();
        st.mature(now, &s.stats, s.node);
        let wake = if parked.due <= now {
            st.arrive(parked, &s.stats, s.node);
            true
        } else {
            // Every idle consumer waits for the head's due time: a new
            // head (strictly earlier than every parked message) must
            // re-arm them all.
            let new_head = st
                .wire
                .peek()
                .is_none_or(|Reverse(head)| parked.due < head.parked.due);
            let seq = st.seq;
            st.seq += 1;
            st.wire.push(Reverse(Entry { seq, parked }));
            new_head
        };
        drop(st);
        if wake {
            s.wakeup.notify_all();
        }
        true
    }

    /// Take the next due message, waiting for one until `deadline`.
    fn take(&self, deadline: Option<Instant>) -> Result<Envelope<M>, Idle> {
        let s = &*self.shared;
        let mut st = s.state.lock();
        // Did this consumer wait for what it takes? Only then is
        // `taken − due` the lateness of a wait; a message that was due
        // before its consumer came for it was queueing, not late.
        let mut waited = false;
        loop {
            let now = Instant::now();
            st.mature(now, &s.stats, s.node);
            if let Some(parked) = st.ready.pop_front() {
                return Ok(stamp(parked, now, waited));
            }
            if st.closed {
                return Err(Idle::Closed);
            }
            if deadline.is_some_and(|d| now >= d) {
                return Err(Idle::TimedOut);
            }
            waited = true;
            // To the head's due time or the caller's deadline, whichever
            // is first; a push that makes either too late wakes us.
            let head = st.wire.peek().map(|Reverse(e)| e.parked.due);
            match head.into_iter().chain(deadline).min() {
                Some(until) => {
                    stash_obs::wait_until(&s.wakeup, &mut st, until);
                }
                None => s.wakeup.wait(&mut st),
            }
        }
    }

    /// Block until a message is due (or the queue is closed).
    pub fn recv(&self) -> Result<Envelope<M>, RecvError> {
        self.take(None).map_err(|_| RecvError)
    }

    /// Block until a message is due, the queue is closed, or `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvTimeoutError> {
        self.take(Some(Instant::now() + timeout))
            .map_err(|idle| match idle {
                Idle::Closed => RecvTimeoutError::Disconnected,
                Idle::TimedOut => RecvTimeoutError::Timeout,
            })
    }

    /// Take a message that is due now, if there is one. Never returns a
    /// message before its due time.
    pub fn try_recv(&self) -> Result<Envelope<M>, TryRecvError> {
        let s = &*self.shared;
        let mut st = s.state.lock();
        let now = Instant::now();
        st.mature(now, &s.stats, s.node);
        match st.ready.pop_front() {
            Some(parked) => Ok(stamp(parked, now, false)),
            None if st.closed => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Messages due and not yet taken.
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        let mut st = s.state.lock();
        st.mature(Instant::now(), &s.stats, s.node);
        st.ready.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Messages not yet due.
    pub(crate) fn in_flight(&self) -> usize {
        let s = &*self.shared;
        let mut st = s.state.lock();
        st.mature(Instant::now(), &s.stats, s.node);
        st.wire.len()
    }

    /// Close the queue: what is not yet due is lost on the wire (and
    /// counted as dropped), what was due and not taken dies with its
    /// consumer, later pushes fail, and every consumer sees a disconnect.
    /// Idempotent.
    pub(crate) fn close(&self) {
        let s = &*self.shared;
        let mut st = s.state.lock();
        st.mature(Instant::now(), &s.stats, s.node);
        st.closed = true;
        // Payloads are dropped outside the lock.
        let lost = std::mem::take(&mut st.wire);
        let dead = std::mem::take(&mut st.ready);
        drop(st);
        s.wakeup.notify_all();
        for Reverse(e) in &lost {
            if e.parked.sent_at.is_some() {
                s.stats.record_drop(s.node);
            }
        }
        drop((lost, dead));
    }
}

/// Stamp what the taker observed: lateness if it waited for the message,
/// and the wire time that makes — modeled time plus that lateness. What a
/// message spends due and untaken while its consumer is busy is queueing at
/// the node, not wire.
fn stamp<M>(parked: Parked<M>, taken: Instant, waited: bool) -> Envelope<M> {
    let mut env = parked.env;
    if let Some(sent_at) = parked.sent_at {
        env.late = waited.then(|| taken.saturating_duration_since(parked.due));
        env.wire = parked.due.saturating_duration_since(sent_at) + env.late.unwrap_or_default();
    }
    env
}

/// The receiving end of a node's fabric inbox — the default place its
/// messages wait out their wire time. Dropping it closes the queue: the
/// node is gone.
pub struct Inbox<M> {
    queue: DelayQueue<M>,
}

impl<M> Inbox<M> {
    pub(crate) fn new(queue: DelayQueue<M>) -> Self {
        Inbox { queue }
    }

    /// Block until a message is due (or the inbox is severed).
    pub fn recv(&self) -> Result<Envelope<M>, RecvError> {
        self.queue.recv()
    }

    /// Block until a message is due, the inbox is severed, or `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvTimeoutError> {
        self.queue.recv_timeout(timeout)
    }

    /// Non-blocking receive of a message that is due now.
    pub fn try_recv(&self) -> Result<Envelope<M>, TryRecvError> {
        self.queue.try_recv()
    }
}

impl<M> Drop for Inbox<M> {
    fn drop(&mut self) {
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    const MS: Duration = Duration::from_millis(1);

    fn queue() -> (DelayQueue<u32>, Arc<NetStats>) {
        let stats = Arc::new(NetStats::with_nodes(1));
        (DelayQueue::new(Arc::clone(&stats), NodeId(0)), stats)
    }

    fn parked(payload: u32, sent_at: Instant, delay: Duration) -> Parked<u32> {
        Parked {
            due: sent_at + delay,
            sent_at: Some(sent_at),
            env: Envelope::local(NodeId(0), payload),
        }
    }

    #[test]
    fn releases_in_due_order_and_fifo_among_equal_deadlines() {
        let (q, _) = queue();
        let t0 = Instant::now();
        // Pushed out of order; 3 and 4 share a deadline.
        q.push(parked(5, t0, 9 * MS));
        q.push(parked(3, t0, 6 * MS));
        q.push(parked(1, t0, 2 * MS));
        q.push(parked(4, t0, 6 * MS));
        q.push(parked(2, t0, 4 * MS));
        let got: Vec<u32> = (0..5).map(|_| q.recv().unwrap().payload).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        assert!(t0.elapsed() >= 9 * MS);
    }

    #[test]
    fn try_recv_never_returns_a_message_before_its_due_time() {
        let (q, stats) = queue();
        let t0 = Instant::now();
        q.push(parked(7, t0, 20 * MS));
        loop {
            match q.try_recv() {
                // `wire` is never under the modeled 20 ms; the clock must
                // agree that the due time has come.
                Ok(env) => {
                    assert_eq!((env.wire, env.late), (20 * MS, None));
                    break assert!(t0.elapsed() >= 20 * MS, "taken before due");
                }
                Err(e) => {
                    assert_eq!(e, TryRecvError::Empty);
                    assert_eq!(stats.messages_delivered(), 0, "delivered before due");
                }
            }
        }
        assert_eq!(stats.messages_delivered(), 1);
    }

    #[test]
    fn an_earlier_arrival_preempts_the_wait_for_a_later_one() {
        let (q, _) = queue();
        let t0 = Instant::now();
        q.push(parked(2, t0, 400 * MS));
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                barrier.wait();
                let first = q.recv().unwrap();
                let late = first.late.expect("the consumer waited for it");
                (first.payload, late, t0.elapsed())
            });
            barrier.wait();
            // Let the consumer settle into its wait for the 400 ms head
            // (if it has not yet, the push below is simply the head it
            // finds) — the assertion is on the outcome either way.
            std::thread::sleep(5 * MS);
            let sent = Instant::now();
            q.push(parked(1, sent, 10 * MS));
            let (payload, late, at) = consumer.join().unwrap();
            assert_eq!(payload, 1, "the earlier-due message is taken first");
            assert!(at < 200 * MS, "slept through to the later deadline: {at:?}");
            assert!(late < 100 * MS, "taken {late:?} late");
        });
        assert_eq!(q.recv().unwrap().payload, 2);
        assert!(t0.elapsed() >= 400 * MS);
    }

    #[test]
    fn two_consumers_share_a_queue_without_loss_or_duplication() {
        const N: u32 = 200;
        let (q, stats) = queue();
        let taken = AtomicUsize::new(0);
        let mut seen = vec![0u32; N as usize];
        std::thread::scope(|s| {
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while let Ok(env) = q.recv() {
                            // Never before its due time (`wire` counts from
                            // the push, so the push is over 1 ms ago).
                            assert!(env.wire >= MS, "taken before due: {:?}", env.wire);
                            mine.push((env.payload, env.late.unwrap_or_default()));
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                        mine
                    })
                })
                .collect();
            for i in 0..N {
                q.push(parked(i, Instant::now(), MS));
                if i % 16 == 0 {
                    std::thread::sleep(2 * MS); // let both go idle
                }
            }
            while taken.load(Ordering::Relaxed) < N as usize {
                std::thread::sleep(MS);
            }
            q.close();
            let mut worst = Duration::ZERO;
            for c in consumers {
                for (payload, late) in c.join().unwrap() {
                    seen[payload as usize] += 1;
                    worst = worst.max(late);
                }
            }
            // A consumer that slept through a due message would leave it
            // to the other's next wake-up, whole pushes later.
            assert!(worst < 500 * MS, "a due message waited {worst:?}");
        });
        assert!(seen.iter().all(|&n| n == 1), "lost or duplicated: {seen:?}");
        assert_eq!(stats.messages_delivered(), N as u64);
        assert_eq!(stats.messages_dropped(), 0);
    }

    #[test]
    fn close_drops_what_is_not_yet_due_and_disconnects_consumers() {
        let (q, stats) = queue();
        let t0 = Instant::now();
        q.push(parked(1, t0, Duration::ZERO)); // due at once: delivered
        q.push(parked(2, t0, 10_000 * MS)); // still on the wire
        q.push(Parked::local(Envelope::local(NodeId(0), 3))); // off-ledger
        assert_eq!(q.len(), 2);
        assert_eq!(q.in_flight(), 1);
        q.close();
        assert_eq!(stats.messages_delivered(), 1);
        assert_eq!(stats.messages_dropped(), 1);
        assert_eq!(q.len(), 0);
        assert_eq!(q.recv().unwrap_err(), RecvError);
        assert_eq!(q.try_recv().unwrap_err(), TryRecvError::Disconnected);
        assert!(
            !q.push(parked(4, Instant::now(), MS)),
            "closed queue took a push"
        );
        assert_eq!(stats.messages_dropped(), 2);
    }

    #[test]
    fn local_messages_keep_their_stamps() {
        let (q, stats) = queue();
        let mut env = Envelope::local(NodeId(0), 9);
        env.wire = 7 * MS;
        q.push(Parked::local(env));
        let env = q.recv().unwrap();
        assert_eq!((env.wire, env.late), (7 * MS, None));
        assert_eq!(
            stats.messages_delivered(),
            0,
            "local dispatch is off-ledger"
        );
    }

    #[test]
    fn recv_timeout_returns_at_the_timeout_with_a_later_message_parked() {
        let (q, _) = queue();
        let t0 = Instant::now();
        q.push(parked(1, t0, 300 * MS));
        assert_eq!(
            q.recv_timeout(10 * MS).unwrap_err(),
            RecvTimeoutError::Timeout
        );
        assert!(t0.elapsed() >= 10 * MS && t0.elapsed() < 250 * MS);
        assert_eq!(q.recv().unwrap().payload, 1);
    }
}
