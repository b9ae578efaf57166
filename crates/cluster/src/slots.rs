//! A node's Cell-serving capacity.
//!
//! Node capacity is modeled, not measured (DESIGN.md §2b): the service
//! tier's `service_workers` threads are the cores a node serves Cells with.
//! A coordinator evaluates its own share of a query on its own thread, with
//! no hop, so without a bound a node would serve as many shares at once as
//! it has coordinators. Every Cell evaluation — a SubQuery on a service
//! worker, a coordinator's own share, a helper's guest serve — holds one of
//! `service_workers` [`Slots`] while it runs.

use parking_lot::{Condvar, Mutex};

/// A counting semaphore over the node's serving capacity.
pub(crate) struct Slots {
    /// `(free, waiting)`.
    state: Mutex<(usize, usize)>,
    freed: Condvar,
}

impl Slots {
    pub(crate) fn new(n: usize) -> Self {
        Slots {
            state: Mutex::new((n, 0)),
            freed: Condvar::new(),
        }
    }

    /// Take a slot, waiting until one is free.
    pub(crate) fn take(&self) -> Slot<'_> {
        let mut state = self.state.lock();
        while state.0 == 0 {
            state.1 += 1;
            self.freed.wait(&mut state);
            state.1 -= 1;
        }
        state.0 -= 1;
        Slot(self)
    }
}

/// One taken slot, given back when dropped.
pub(crate) struct Slot<'a>(&'a Slots);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.0 += 1;
        // A notify is a system call; only pay it when someone waits.
        if state.1 > 0 {
            self.0.freed.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn a_taker_waits_until_a_slot_is_given_back() {
        let slots = Arc::new(Slots::new(2));
        let (first, second) = (slots.take(), slots.take());
        let (taken, got) = mpsc::channel();
        let waiter = {
            let slots = Arc::clone(&slots);
            std::thread::spawn(move || {
                let _slot = slots.take();
                taken.send(()).unwrap();
            })
        };
        // Both slots are out: the third taker cannot get one however long
        // it tries.
        assert!(got.recv_timeout(Duration::from_millis(50)).is_err());
        drop(first);
        got.recv().expect("a given-back slot wakes the waiter");
        waiter.join().unwrap();
        drop(second);
        // Every slot is back.
        let all = [slots.take(), slots.take()];
        assert_eq!(slots.state.lock().0, 0);
        drop(all);
        assert_eq!(*slots.state.lock(), (2, 0));
    }
}
