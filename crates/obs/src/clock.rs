//! Pluggable wall-time source for spans and events.
//!
//! This module is the one place in the workspace allowed to call
//! `std::time::Instant::now()` for observability timing (enforced by
//! `cargo run -p mate-analyze -- --rule obs`); everything else reads time
//! through [`Clock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic nanosecond source. Implementations must be cheap and
/// monotonic per instance; absolute epoch is unspecified (readings are
/// only compared against each other).
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since an arbitrary per-clock origin.
    fn now_nanos(&self) -> u64;
}

/// Real wall clock, anchored at construction time.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Hand-cranked clock for deterministic tests: time only moves when the
/// test calls [`ManualClock::advance_nanos`] (or sets it outright).
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves the clock forward by `delta` nanoseconds.
    pub fn advance_nanos(&self, delta: u64) {
        self.nanos.fetch_add(delta, Ordering::Relaxed);
    }

    /// Moves the clock forward by `delta` microseconds.
    pub fn advance_micros(&self, delta: u64) {
        self.advance_nanos(delta * 1_000);
    }

    /// Sets the clock to an absolute nanosecond reading.
    pub fn set_nanos(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_by_hand() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance_micros(3);
        assert_eq!(c.now_nanos(), 3_000);
        c.set_nanos(10);
        assert_eq!(c.now_nanos(), 10);
    }

    #[test]
    fn monotonic_clock_is_monotonic() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
