//! Request/response correlation over the one-way fabric.
//!
//! The fabric only sends; callers that need an answer (a client waiting for
//! a query result, a hotspotted node waiting for a Distress acknowledgement)
//! register a pending slot here, ship the correlation id inside their
//! message, and block on the returned slot. The responder's message
//! completes the slot by id — at *send* time, stamped with the instant it
//! is due ([`RpcTable::complete_at`], called from the destination's port on
//! the sender's thread) — and the waiter sleeps out the rest of the wire
//! time itself: one timed wait on the thread that will use the reply.
//!
//! Correlation ids are unique for the life of the process, across every
//! table: a node restarted with a fresh table must never take a reply a
//! peer addressed to its previous incarnation for one of its own requests.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A response handed over: it entered the wire at `sent_at` and its waiter
/// may have it from `due`.
struct Filled<R> {
    response: R,
    sent_at: Instant,
    due: Instant,
}

struct Slot<R> {
    state: Mutex<Option<Filled<R>>>,
    filled: Condvar,
}

/// The waiter's half of a pending request ([`RpcTable::register`]).
pub struct ReplySlot<R>(Arc<Slot<R>>);

impl<R> std::fmt::Debug for ReplySlot<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplySlot { .. }")
    }
}

/// A response as its waiter took it.
#[derive(Debug)]
pub struct Arrived<R> {
    pub response: R,
    /// Observed wire time of the response: its modeled time (due − sent)
    /// plus the waiter's lateness, if it waited.
    pub wire: Duration,
    /// How long after its due time the waiter took it, when it had to wait
    /// for that time; `None` when the response was due before its waiter
    /// came for it.
    pub late: Option<Duration>,
}

/// The next correlation id of any table: nothing keys on an id's value,
/// only on its uniqueness.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A table of in-flight requests awaiting responses of type `R`.
pub struct RpcTable<R> {
    pending: Mutex<HashMap<u64, Arc<Slot<R>>>>,
}

impl<R> std::fmt::Debug for RpcTable<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcTable")
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl<R> Default for RpcTable<R> {
    fn default() -> Self {
        RpcTable {
            pending: Mutex::new(HashMap::new()),
        }
    }
}

impl<R> RpcTable<R> {
    /// Allocate a correlation id, unique in the process, and its response
    /// slot.
    pub fn register(&self) -> (u64, ReplySlot<R>) {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot {
            state: Mutex::new(None),
            filled: Condvar::new(),
        });
        self.pending.lock().insert(id, Arc::clone(&slot));
        (id, ReplySlot(slot))
    }

    /// Deliver the response for `id`, due now. See
    /// [`RpcTable::complete_at`].
    pub fn complete(&self, id: u64, response: R) -> bool {
        let now = Instant::now();
        self.complete_at(id, response, now, now)
    }

    /// Hand over the response for `id`: it entered the wire at `sent_at`
    /// and its waiter may have it from `due`. Returns `false` when the id is
    /// unknown (already completed, timed out, or never registered) —
    /// duplicate responses are tolerated, mirroring at-least-once delivery.
    pub fn complete_at(&self, id: u64, response: R, sent_at: Instant, due: Instant) -> bool {
        // The table lock is released before the slot's is taken; a waiter
        // takes them in the other order.
        let Some(slot) = self.pending.lock().remove(&id) else {
            return false;
        };
        *slot.state.lock() = Some(Filled {
            response,
            sent_at,
            due,
        });
        slot.filled.notify_one();
        true
    }

    /// Block on a response slot until the response is due, or `None` once
    /// `timeout` passes. On timeout the slot is forgotten, so a late
    /// response is dropped rather than leaking; a response due only after
    /// the deadline is the timeout it would have been.
    pub fn wait(&self, id: u64, slot: &ReplySlot<R>, timeout: Duration) -> Option<Arrived<R>> {
        let deadline = Instant::now() + timeout;
        let mut state = slot.0.state.lock();
        loop {
            if let Some(Filled {
                response,
                sent_at,
                due,
            }) = state.take()
            {
                drop(state);
                if due > deadline {
                    stash_obs::sleep_until(deadline);
                    return None;
                }
                let waited = Instant::now() < due;
                stash_obs::sleep_until(due);
                let late = waited.then(|| due.elapsed());
                return Some(Arrived {
                    response,
                    wire: due.saturating_duration_since(sent_at) + late.unwrap_or_default(),
                    late,
                });
            }
            if stash_obs::wait_until(&slot.0.filled, &mut state, deadline) {
                // Past the deadline the slot is reclaimed — unless a
                // responder took it out of the table a moment ago. It has
                // filled the slot since this wait timed out (its notify
                // found nobody), or it is about to and will notify.
                if self.pending.lock().remove(&id).is_some() {
                    return None;
                }
                while state.is_none() {
                    slot.0.filled.wait(&mut state);
                }
            }
        }
    }

    /// Number of requests still awaiting responses.
    pub fn in_flight(&self) -> usize {
        self.pending.lock().len()
    }

    /// Forget a pending id whose request never left (the fabric refused
    /// the send): a reply to it is stale.
    pub fn cancel(&self, id: u64) {
        self.pending.lock().remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn complete_then_wait() {
        let table = RpcTable::<String>::default();
        let (id, rx) = table.register();
        assert_eq!(table.in_flight(), 1);
        assert!(table.complete(id, "ok".into()));
        let got = table.wait(id, &rx, Duration::from_secs(1)).unwrap();
        assert_eq!(got.response, "ok");
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn timeout_reclaims_slot() {
        let table = RpcTable::<u32>::default();
        let (id, rx) = table.register();
        assert!(table.wait(id, &rx, Duration::from_millis(10)).is_none());
        assert_eq!(table.in_flight(), 0);
        // A late response is ignored.
        assert!(!table.complete(id, 5));
    }

    #[test]
    fn unknown_and_duplicate_ids() {
        let table = RpcTable::<u32>::default();
        assert!(!table.complete(999, 1));
        let (id, rx) = table.register();
        assert!(table.complete(id, 1));
        assert!(!table.complete(id, 2), "duplicate response accepted");
        assert_eq!(
            table
                .wait(id, &rx, Duration::from_secs(1))
                .unwrap()
                .response,
            1
        );
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let table = Arc::new(RpcTable::<u32>::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&table);
                std::thread::spawn(move || (0..100).map(|_| t.register().0).collect::<Vec<_>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
    }

    #[test]
    fn ids_are_unique_across_tables() {
        // A restarted node gets a fresh table; a reply addressed to its
        // previous incarnation must find no slot in it.
        let (old, new) = (RpcTable::<u32>::default(), RpcTable::<u32>::default());
        let (stale, _slot) = old.register();
        let (id, _slot) = new.register();
        assert_ne!(stale, id);
        assert!(!new.complete(stale, 1));
        assert_eq!(new.in_flight(), 1);
    }

    #[test]
    fn cancel_drops_slot() {
        let table = RpcTable::<u32>::default();
        let (id, _rx) = table.register();
        table.cancel(id);
        assert_eq!(table.in_flight(), 0);
        assert!(!table.complete(id, 1));
    }

    #[test]
    fn cross_thread_completion() {
        let table = Arc::new(RpcTable::<u64>::default());
        let (id, rx) = table.register();
        let t = Arc::clone(&table);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t.complete(id, 42);
        });
        assert_eq!(
            table
                .wait(id, &rx, Duration::from_secs(2))
                .unwrap()
                .response,
            42
        );
        h.join().unwrap();
    }

    #[test]
    fn a_reply_is_taken_at_its_due_time_not_at_handover() {
        let table = RpcTable::<u32>::default();
        let (id, slot) = table.register();
        let sent = Instant::now();
        let delay = Duration::from_millis(15);
        assert!(table.complete_at(id, 7, sent, sent + delay));
        let got = table.wait(id, &slot, Duration::from_secs(2)).unwrap();
        assert_eq!(got.response, 7);
        assert!(sent.elapsed() >= delay, "handed out before due");
        let late = got.late.expect("the waiter slept to the due time");
        assert!(late < Duration::from_secs(1));
        assert_eq!(got.wire, delay + late);
        // A reply already due when its waiter comes for it was not late.
        let (id, slot) = table.register();
        assert!(table.complete(id, 8));
        let got = table.wait(id, &slot, Duration::from_secs(2)).unwrap();
        assert_eq!((got.response, got.late), (8, None));
    }

    #[test]
    fn a_reply_due_after_the_deadline_is_a_timeout_and_its_slot_is_reclaimed() {
        let table = RpcTable::<u32>::default();
        let (id, slot) = table.register();
        let sent = Instant::now();
        assert!(table.complete_at(id, 7, sent, sent + Duration::from_secs(60)));
        assert!(table.wait(id, &slot, Duration::from_millis(10)).is_none());
        // The wait ran to its deadline (as it would have without the early
        // handover) and not to the reply's due time.
        assert!(sent.elapsed() >= Duration::from_millis(10));
        assert!(sent.elapsed() < Duration::from_secs(30));
        assert_eq!(table.in_flight(), 0);
        assert!(!table.complete(id, 8), "reclaimed slot took a late reply");
    }

    /// A reply handed over just as its waiter's deadline fires: the waiter
    /// has left the condvar, the responder has taken the id out of the
    /// table. Whatever the interleaving, every wait must return, and with
    /// an answer only if the responder was told its completion took.
    #[test]
    fn a_reply_racing_the_deadline_never_strands_its_waiter() {
        const ROUNDS: u32 = 4_000;
        let table = Arc::new(RpcTable::<u32>::default());
        let (ids_tx, ids_rx) = std::sync::mpsc::channel::<(u64, Duration)>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<bool>();
        let responder = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for (id, nap) in ids_rx {
                    std::thread::sleep(nap);
                    if done_tx.send(table.complete(id, 1)).is_err() {
                        break;
                    }
                }
            })
        };
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    // Timeouts of 0–1 ms against a completion swept across
                    // the deadline: from 200 µs before it (a sleeping
                    // responder overshoots) to 50 µs after.
                    let timeout = Duration::from_micros(u64::from(round % 11) * 100);
                    let nap = (timeout + Duration::from_micros(u64::from(round % 26) * 10))
                        .saturating_sub(Duration::from_micros(200));
                    let (id, slot) = table.register();
                    ids_tx.send((id, nap)).unwrap();
                    let got = table.wait(id, &slot, timeout);
                    let completed = done_rx.recv().unwrap();
                    // A timeout also with `completed`: a reply due after
                    // the deadline is the timeout it would have been.
                    if let Some(arrived) = got {
                        assert!(completed && arrived.response == 1);
                    }
                }
            })
        };
        // A stranded waiter blocks forever; give the loop far more than the
        // ~2 s it needs and fail instead of hanging the suite.
        let started = Instant::now();
        while !waiter.is_finished() {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "a wait never returned"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        waiter.join().unwrap();
        responder.join().unwrap();
        assert_eq!(table.in_flight(), 0);
    }
}
