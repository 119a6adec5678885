//! Locking on `std::sync` that ignores poisoning.
//!
//! The serving engine catches producer and callback panics with
//! `catch_unwind` and keeps running, so a lock a panicking thread held is
//! still sound to use: every critical section leaves its state consistent
//! between statements that can panic. These helpers take the guard out of a
//! poisoned result instead of propagating the panic to every later locker.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Acquires `mutex`, whether or not a previous holder panicked.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Releases `guard`, blocks until `cv` is notified and reacquires.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`wait`] that also returns once `deadline` has passed; the flag says
/// whether it timed out.
pub fn wait_until<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    deadline: Instant,
) -> (MutexGuard<'a, T>, bool) {
    let timeout = deadline.saturating_duration_since(Instant::now());
    let (guard, result) = cv
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner);
    (guard, result.timed_out())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// A mutex whose last holder panicked after writing `value`.
    fn poisoned(value: i32) -> Arc<Mutex<i32>> {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            *lock(&m2) = value;
            let _held = lock(&m2);
            panic!("holder panics");
        });
        assert!(joined.join().is_err() && m.is_poisoned());
        m
    }

    #[test]
    fn a_panic_under_the_lock_leaves_it_lockable_with_the_written_value() {
        let m = poisoned(42);
        assert_eq!(*lock(&m), 42);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 43);
    }

    #[test]
    fn wait_wakes_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let mut ready = lock(&p2.0);
            while !*ready {
                ready = wait(&p2.1, ready);
            }
        });
        *lock(&pair.0) = true;
        pair.1.notify_all();
        waiter.join().unwrap();
    }

    #[test]
    fn wait_until_times_out_and_reacquires_a_poisoned_lock() {
        let (m, cv) = (poisoned(7), Condvar::new());
        let (mut guard, mut timed_out) = wait_until(&cv, lock(&m), Instant::now());
        assert!(timed_out);
        let soon = Instant::now() + Duration::from_millis(5);
        timed_out = false;
        while !timed_out {
            (guard, timed_out) = wait_until(&cv, guard, soon);
        }
        assert!(Instant::now() >= soon);
        assert_eq!(*guard, 7);
    }
}
