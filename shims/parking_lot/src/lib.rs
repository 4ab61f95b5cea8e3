//! Offline shim for `parking_lot`: `Mutex`/`MutexGuard`/`Condvar` backed
//! by `std::sync`, with parking_lot's no-poison `lock()` and
//! `Condvar::wait(&mut guard)` signatures. See `shims/README.md` for why
//! this exists.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion lock with parking_lot's panic-free API.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// Holds the std guard in an `Option` so [`Condvar::wait`] can move it
/// through `std`'s consume-and-return wait; the slot is only empty during
/// that call.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a std::sync::Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Unlike std, a panic in
    /// another holder does not poison the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            mutex: &self.inner,
            inner: Some(lock_std(&self.inner)),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                mutex: &self.inner,
                inner: Some(g),
            }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                mutex: &self.inner,
                inner: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

fn lock_std<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Release the lock while `f` runs and take it again before returning
    /// — also when `f` unwinds — as parking_lot's `MutexGuard::unlocked`.
    pub fn unlocked<F: FnOnce() -> U, U>(s: &mut Self, f: F) -> U {
        struct Relock<'g, 'a, T: ?Sized>(&'g mut MutexGuard<'a, T>);
        impl<T: ?Sized> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                self.0.inner = Some(lock_std(self.0.mutex));
            }
        }
        s.inner = None;
        let _relock = Relock(s);
        f()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

/// Result of a timed condition-variable wait ([`Condvar::wait_for`]).
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable usable with [`MutexGuard`], parking_lot-style.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub fn new() -> Self {
        Condvar::default()
    }

    /// Atomically release the guard's lock and wait for a notification,
    /// reacquiring the lock before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
    }

    /// As [`Condvar::wait`], but give up after `timeout`. Returns a
    /// [`WaitTimeoutResult`] telling whether the wait timed out (the lock
    /// is reacquired before returning either way).
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard present");
        let (g, res) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => e.into_inner(),
        };
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn unlocked_releases_and_retakes_the_lock() {
        let m = Mutex::new(1);
        let mut g = m.lock();
        let seen = MutexGuard::unlocked(&mut g, || {
            let mut inner = m.try_lock().expect("released while `f` runs");
            *inner += 1;
            *inner
        });
        assert_eq!((seen, *g), (2, 2));
        assert!(m.try_lock().is_none(), "retaken before returning");
        drop(g);
        let mut g = m.lock();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MutexGuard::unlocked(&mut g, || panic!("boom"))
        }));
        assert!(unwound.is_err());
        *g += 1;
        assert!(m.try_lock().is_none(), "retaken on unwind too");
        drop(g);
        assert_eq!(*m.lock(), 3);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        assert!(t.join().unwrap());
    }
}
