//! Ranked locks: a runtime deadlock-order checker that compiles away in
//! release builds.
//!
//! The engine's lock graph spans five domains (engine write lock, lake
//! commit queue, snapshot memos, the published-snapshot slot, the page
//! cache). Deadlock freedom rests on one global rule:
//! **every thread acquires locks in strictly increasing rank order**. The
//! rule is documented in `mate_index::engine` and statically gated by
//! `mate-analyze` rule R4 (no raw `Mutex`/`RwLock` in `crates/index`);
//! this module enforces it *dynamically*, so the whole test suite doubles
//! as a deadlock-order fuzzer:
//!
//! * [`RankedMutex`], [`RankedRwLock`], and [`RankedCondvar`] are
//!   newtypes over their `std::sync` counterparts, each carrying a
//!   [`Rank`].
//! * In **debug builds** every acquisition (read or write) pushes the
//!   rank onto a thread-local stack of held ranks and panics if the new
//!   rank is not strictly greater than every rank already held — the
//!   canonical symptom of a potential ABBA deadlock, caught on the first
//!   mis-ordered acquisition instead of the unlucky interleaving.
//! * In **release builds** the bookkeeping is compiled out entirely
//!   ([`Held`] is a zero-sized type and `acquire` is an inlined no-op),
//!   so a ranked lock costs exactly what the underlying `std::sync`
//!   primitive costs.
//!
//! Two ranks compare by `(major, minor)`. Locks of one domain that may be
//! nested in a defined order (a snapshot's memo slot, rank 40.0
//! `memo-slot`, read under which is its memo, 40.1 `source-memo`) share a
//! major rank and differ in `minor`.
//!
//! Poisoning: all guards recover from a poisoned inner lock. Every
//! current user (the lake's queue/slot state, the merged-source memos)
//! either restores its invariants before any panic can unwind past a
//! guard or re-validates what it reads,
//! so propagating the poison would only cascade one panicking thread into
//! every other (see the poisoning notes in `mate_index::engine::lake`).
//!
//! Waiting on a [`RankedCondvar`] keeps the mutex's rank on the held
//! stack: the thread is blocked for the whole wait and reacquires the
//! same mutex before continuing, so no acquisition this thread could
//! interleave can observe the temporarily released lock.

use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Position of a lock in the global acquisition order (see module docs).
///
/// Ordered lexicographically by `(major, minor)`; the `name` is carried
/// for diagnostics only. Construct rank constants with [`Rank::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank {
    major: u16,
    minor: u16,
    name: &'static str,
}

impl Rank {
    /// A rank at `(major, minor)` with a diagnostic `name`.
    pub const fn new(major: u16, minor: u16, name: &'static str) -> Self {
        Rank { major, minor, name }
    }

    /// The combined ordering key (`major` then `minor`).
    pub const fn key(self) -> u32 {
        ((self.major as u32) << 16) | self.minor as u32
    }

    /// Diagnostic name of the lock domain.
    pub const fn name(self) -> &'static str {
        self.name
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (rank {}.{})", self.name, self.major, self.minor)
    }
}

#[cfg(debug_assertions)]
mod tracking {
    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    /// Debug-build token for one held ranked lock: created on acquisition
    /// (after the order check), removed from the thread-local stack on
    /// drop. Guards may drop out of LIFO order, so removal searches for
    /// the newest entry with this token's rank.
    #[derive(Debug)]
    pub struct Held {
        key: u32,
    }

    impl Held {
        /// Checks the acquisition against every rank this thread already
        /// holds and records it.
        ///
        /// # Panics
        /// Panics if `rank` is not strictly greater than all held ranks —
        /// the documented total order would be violated, i.e. this
        /// acquisition could deadlock against a thread locking the same
        /// pair in the documented order.
        pub fn acquire(rank: Rank) -> Held {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(worst) = held.iter().max_by_key(|r| r.key()) {
                    if rank.key() <= worst.key() {
                        let chain = held
                            .iter()
                            .map(|r| r.to_string())
                            .collect::<Vec<_>>()
                            .join(" -> ");
                        // Drop the borrow before panicking so the guard
                        // drops of unwinding frames can still pop.
                        drop(held);
                        panic!(
                            "lock-rank violation: acquiring {rank} while holding [{chain}]; \
                             acquisitions must follow strictly increasing rank order \
                             (see mate_index::engine lock-rank table)"
                        );
                    }
                }
                held.push(rank);
            });
            Held { key: rank.key() }
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|r| r.key() == self.key) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Number of ranked locks the current thread holds (test hook).
    pub fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }
}

#[cfg(not(debug_assertions))]
mod tracking {
    use super::Rank;

    /// Release-build token: zero-sized, no bookkeeping.
    #[derive(Debug)]
    pub struct Held;

    impl Held {
        /// Release builds skip all order checking.
        #[inline(always)]
        pub fn acquire(_rank: Rank) -> Held {
            Held
        }
    }

    /// Release builds do not track held locks.
    #[inline(always)]
    pub fn held_count() -> usize {
        0
    }
}

pub use tracking::{held_count, Held};

/// A [`std::sync::Mutex`] that participates in rank checking (see module
/// docs). Poison-recovering: [`RankedMutex::lock`] never returns `Err`.
#[derive(Debug)]
pub struct RankedMutex<T> {
    rank: Rank,
    inner: Mutex<T>,
}

/// RAII guard of a [`RankedMutex`]; releases the lock and pops the rank
/// on drop.
#[derive(Debug)]
pub struct RankedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    _held: Held,
}

impl<T> RankedMutex<T> {
    /// Wraps `value` in a mutex at `rank`.
    pub const fn new(rank: Rank, value: T) -> Self {
        RankedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// The lock's rank.
    pub const fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquires the lock, blocking until available. Recovers the guard if
    /// a previous holder panicked (see module docs).
    ///
    /// # Panics
    /// In debug builds, panics on a rank-order violation.
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        let held = Held::acquire(self.rank);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        RankedMutexGuard { inner, _held: held }
    }

    /// Acquires the lock only if it is free right now. The rank check
    /// runs (and can panic) even when the attempt would return `None` —
    /// an out-of-order `try_lock` is the same latent deadlock.
    pub fn try_lock(&self) -> Option<RankedMutexGuard<'_, T>> {
        let held = Held::acquire(self.rank);
        match self.inner.try_lock() {
            Ok(inner) => Some(RankedMutexGuard { inner, _held: held }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RankedMutexGuard {
                inner: p.into_inner(),
                _held: held,
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex, returning the inner value (poison-recovering).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable paired with a [`RankedMutex`]. The wait keeps the
/// mutex's rank on the held stack (see module docs).
#[derive(Debug, Default)]
pub struct RankedCondvar {
    inner: Condvar,
}

impl RankedCondvar {
    /// A fresh condition variable.
    pub const fn new() -> Self {
        RankedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Atomically releases `guard`'s mutex and blocks until notified,
    /// then reacquires the mutex (poison-recovering) and returns the
    /// guard.
    pub fn wait<'a, T>(&self, guard: RankedMutexGuard<'a, T>) -> RankedMutexGuard<'a, T> {
        let RankedMutexGuard { inner, _held } = guard;
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        RankedMutexGuard { inner, _held }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A [`std::sync::RwLock`] that participates in rank checking. Both read
/// and write acquisitions push the lock's rank — reader/writer deadlock
/// cycles are rank-order violations all the same. Poison-recovering like
/// [`RankedMutex`].
#[derive(Debug)]
pub struct RankedRwLock<T> {
    rank: Rank,
    inner: RwLock<T>,
}

/// Shared-read RAII guard of a [`RankedRwLock`].
#[derive(Debug)]
pub struct RankedReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    _held: Held,
}

/// Exclusive-write RAII guard of a [`RankedRwLock`].
#[derive(Debug)]
pub struct RankedWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> RankedRwLock<T> {
    /// Wraps `value` in a reader-writer lock at `rank`.
    pub const fn new(rank: Rank, value: T) -> Self {
        RankedRwLock {
            rank,
            inner: RwLock::new(value),
        }
    }

    /// The lock's rank.
    pub const fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquires the shared read side.
    ///
    /// # Panics
    /// In debug builds, panics on a rank-order violation (including a
    /// recursive read of the same lock, which can deadlock against a
    /// queued writer on `std::sync::RwLock`).
    pub fn read(&self) -> RankedReadGuard<'_, T> {
        let held = Held::acquire(self.rank);
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RankedReadGuard { inner, _held: held }
    }

    /// Acquires the exclusive write side.
    ///
    /// # Panics
    /// In debug builds, panics on a rank-order violation.
    pub fn write(&self) -> RankedWriteGuard<'_, T> {
        let held = Held::acquire(self.rank);
        let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        RankedWriteGuard { inner, _held: held }
    }

    /// Consumes the lock, returning the inner value (poison-recovering).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> std::ops::Deref for RankedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::Deref for RankedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for RankedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const LOW: Rank = Rank::new(10, 0, "low");
    const MID_A: Rank = Rank::new(20, 0, "mid-a");
    const MID_B: Rank = Rank::new(20, 1, "mid-b");
    const HIGH: Rank = Rank::new(30, 0, "high");

    #[test]
    fn in_order_acquisition_is_clean() {
        let a = RankedMutex::new(LOW, 1u32);
        let b = RankedRwLock::new(MID_A, 2u32);
        let c = RankedMutex::new(HIGH, 3u32);
        let ga = a.lock();
        let gb = b.read();
        let gc = c.lock();
        assert_eq!(*ga + *gb + *gc, 6);
        drop((ga, gb, gc));
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn same_major_ascending_minor_is_clean() {
        let a = RankedMutex::new(MID_A, 1u32);
        let b = RankedMutex::new(MID_B, 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn out_of_lifo_drop_order_is_tracked() {
        let a = RankedMutex::new(LOW, 1u32);
        let b = RankedMutex::new(HIGH, 2u32);
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // released before the higher-ranked guard
        drop(gb);
        assert_eq!(held_count(), 0);
        // A fresh in-order sequence still passes.
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn out_of_order_acquisition_panics_in_debug() {
        let err = std::thread::spawn(|| {
            let hi = RankedMutex::new(HIGH, 0u32);
            let lo = RankedMutex::new(LOW, 0u32);
            let _g = hi.lock();
            let _violation = lo.lock();
        })
        .join()
        .expect_err("descending-rank acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("lock-rank violation"),
            "unexpected panic: {msg}"
        );
        assert!(msg.contains("low") && msg.contains("high"));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn equal_rank_nesting_panics_in_debug() {
        let err = std::thread::spawn(|| {
            let a = RankedMutex::new(MID_A, 0u32);
            let b = RankedMutex::new(MID_A, 0u32);
            let _g = a.lock();
            let _violation = b.lock(); // same (major, minor): ABBA-prone
        })
        .join()
        .expect_err("equal-rank nesting must panic");
        drop(err);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn try_lock_checks_rank_too() {
        let err = std::thread::spawn(|| {
            let hi = RankedRwLock::new(HIGH, 0u32);
            let lo = RankedMutex::new(LOW, 0u32);
            let _g = hi.write();
            let _violation = lo.try_lock();
        })
        .join()
        .expect_err("out-of-order try_lock must panic");
        drop(err);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn violation_unwind_releases_held_ranks() {
        let lo = RankedMutex::new(LOW, 0u32);
        let hi = RankedMutex::new(HIGH, 0u32);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = hi.lock();
            let _violation = lo.lock();
        }));
        assert!(res.is_err());
        // The unwinding frame dropped its guard: nothing leaks into later
        // acquisitions on this thread.
        assert_eq!(held_count(), 0);
        let _ok = lo.lock();
    }

    #[test]
    fn condvar_wait_roundtrips_the_guard() {
        let pair = Arc::new((RankedMutex::new(LOW, false), RankedCondvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                let mut ready = m.lock();
                while !*ready {
                    ready = cv.wait(ready);
                }
                true
            })
        };
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = Arc::new(RankedMutex::new(LOW, 7u32));
        let rw = Arc::new(RankedRwLock::new(HIGH, 8u32));
        {
            let m = Arc::clone(&m);
            let rw = Arc::clone(&rw);
            let _ = std::thread::spawn(move || {
                let _g1 = m.lock();
                let _g2 = rw.write();
                panic!("poison both");
            })
            .join();
        }
        assert_eq!(*m.lock(), 7);
        assert_eq!(*rw.read(), 8);
        assert_eq!(Arc::try_unwrap(m).unwrap().into_inner(), 7);
    }

    #[test]
    fn threads_have_independent_stacks() {
        // Thread A holding a high rank must not constrain thread B.
        let hi = Arc::new(RankedMutex::new(HIGH, 0u32));
        let lo = Arc::new(RankedMutex::new(LOW, 0u32));
        let _ga = hi.lock();
        let lo2 = Arc::clone(&lo);
        std::thread::spawn(move || {
            let _gb = lo2.lock(); // fresh stack: no violation
        })
        .join()
        .unwrap();
    }
}
