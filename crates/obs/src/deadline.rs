//! The one place where modeled time is waited for.
//!
//! Every cost in DESIGN.md §2b — wire delay, disk reads, scan and serve
//! charges — is *slept*, always to an absolute deadline so slop never adds
//! up over a schedule. A thread's first wait here asks the kernel for the
//! minimum timer slack: Linux rounds a thread's timed sleeps up by its
//! slack (50 µs by default) so wake-ups can be batched, which added
//! 30–50 % to every 150 µs wire charge and ~80 µs to every serve charge —
//! simulator error, not model.

use parking_lot::{Condvar, MutexGuard};
use std::time::Instant;

/// Sleep the calling thread until `deadline`; returns at once when it has
/// passed.
pub fn sleep_until(deadline: Instant) {
    let left = deadline.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        min_timer_slack();
        std::thread::sleep(left);
    }
}

/// Wait on `cv` until notified or `deadline`, whichever is first. Returns
/// `true` when the deadline passed (spurious wake-ups are the caller's loop
/// to handle, as with any condvar).
pub fn wait_until<T>(cv: &Condvar, guard: &mut MutexGuard<'_, T>, deadline: Instant) -> bool {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return true;
    }
    min_timer_slack();
    cv.wait_for(guard, left).timed_out()
}

/// Set the calling thread's timer slack to the minimum, once per thread.
#[cfg(target_os = "linux")]
fn min_timer_slack() {
    use std::cell::Cell;
    use std::ffi::{c_int, c_ulong};

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    const ONE_NS: c_ulong = 1;

    thread_local!(static DONE: Cell<bool> = const { Cell::new(false) });
    if DONE.replace(true) {
        return;
    }
    // SAFETY: `prctl(PR_SET_TIMERSLACK, ns)` takes two integers by value,
    // reads and writes no memory of ours, and changes only how late the
    // kernel may wake this thread from a timed sleep. A failure (a kernel
    // without the option) leaves the default slack; nothing depends on the
    // result.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ONE_NS);
    }
}

#[cfg(not(target_os = "linux"))]
fn min_timer_slack() {}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::time::Duration;

    #[test]
    fn sleep_until_never_returns_early_and_skips_the_past() {
        let t0 = Instant::now();
        sleep_until(t0 + Duration::from_millis(3));
        assert!(t0.elapsed() >= Duration::from_millis(3));
        let t1 = Instant::now();
        sleep_until(t0);
        assert!(
            t1.elapsed() < Duration::from_millis(50),
            "a past deadline slept"
        );
    }

    #[test]
    fn wait_until_times_out_at_the_deadline_and_wakes_on_notify() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let t0 = Instant::now();
        assert!(wait_until(&cv, &mut g, t0 + Duration::from_millis(3)));
        assert!(t0.elapsed() >= Duration::from_millis(3));
        assert!(wait_until(&cv, &mut g, t0), "a past deadline is a timeout");
        drop(g);
        std::thread::scope(|s| {
            let mut g = m.lock();
            s.spawn(|| {
                *m.lock() = true;
                cv.notify_one();
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            while !*g {
                assert!(!wait_until(&cv, &mut g, deadline), "notify lost");
            }
        });
    }
}
