//! `mate_obs`: the observability substrate of the MATE engine.
//!
//! One [`Obs`] hub per engine (threaded through `EngineConfig` /
//! `MateConfig`) bundles three recording surfaces and one export surface:
//!
//! * **Metrics registry** ([`Registry`]) — named [`Counter`]s, [`Gauge`]s,
//!   and log-bucketed latency [`Histogram`]s (p50/p90/p99/max, mergeable,
//!   fixed ~2 KiB footprint each). A metric is registered once
//!   (get-or-create under a short registry lock) and recorded through its
//!   `Arc` handle with plain atomic operations — recording never takes the
//!   registry lock, so hot paths pay one `fetch_add`.
//! * **Spans and events** — [`Obs::span`] returns an RAII guard whose drop
//!   records the elapsed time into a `span_us.<name>` histogram and
//!   appends a completion event; [`Obs::event`] appends a free-form entry
//!   to a bounded ring buffer ([`EventLog`]). Both read wall time from a
//!   pluggable [`Clock`], so tests drive them deterministically with a
//!   [`ManualClock`]. Spans and events are gated by [`Obs::set_enabled`]:
//!   disabled, a span is a `None` guard — no clock read, no allocation,
//!   no lock.
//! * **Per-query profiles** ([`QueryProfile`]) — a flat summary of where
//!   one discovery query spent its time, condensed from a discovery
//!   result's stats by `DiscoveryStats::profile()`.
//! * **Export** — [`Obs::snapshot`] freezes every registered metric plus
//!   the event log into an [`ObsSnapshot`], renderable as machine-readable
//!   JSON ([`ObsSnapshot::to_json`], re-parseable with [`json::parse`])
//!   or Prometheus-style text ([`ObsSnapshot::to_prometheus`]).
//!
//! # Overhead model
//!
//! Counters/gauges/histograms are *always live*: one relaxed atomic RMW
//! per record, no branches on the enabled flag — cheap enough that the
//! engine's existing counters route through them unconditionally. The
//! enabled flag gates only the parts with real cost: clock reads, event
//! formatting, and ring-buffer pushes. A disabled hub therefore adds one
//! predictable branch per span site and nothing per metric.

#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod hist;
pub mod json;
pub mod lockrank;
pub mod profile;
pub mod registry;
pub mod snapshot;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use events::{Event, EventLog};
pub use hist::{Histogram, HistogramSnapshot};
pub use lockrank::{Rank, RankedCondvar, RankedMutex, RankedRwLock};
pub use profile::QueryProfile;
pub use registry::{Counter, Gauge, Registry};
pub use snapshot::ObsSnapshot;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default capacity of the bounded event ring buffer.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// The observability hub: a metrics registry, an event ring buffer, and a
/// clock, shared as one `Arc<Obs>` across an engine and its callers (see
/// the crate docs for the overhead model).
pub struct Obs {
    enabled: AtomicBool,
    clock: Arc<dyn Clock>,
    registry: Registry,
    events: EventLog,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// An enabled hub on the monotonic wall clock.
    pub fn new() -> Self {
        Obs::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A hub with spans/events disabled (metrics stay live; see crate
    /// docs). Re-enable any time with [`Obs::set_enabled`].
    pub fn disabled() -> Self {
        let obs = Obs::new();
        obs.set_enabled(false);
        obs
    }

    /// An enabled hub reading time from `clock` (tests pass a
    /// [`ManualClock`] for deterministic spans and event timestamps).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Obs {
            enabled: AtomicBool::new(true),
            clock,
            registry: Registry::new(),
            events: EventLog::new(DEFAULT_EVENT_CAPACITY),
        }
    }

    /// Turns span/event recording on or off. Metrics are unaffected.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans and events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The clock spans and events read wall time from.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The metrics registry (get-or-register handles; see [`Registry`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Get-or-register the counter `name` (see [`Registry::counter`]).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Get-or-register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// Get-or-register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// Appends an event to the ring buffer (no-op while disabled). `kind`
    /// is the event taxonomy key (`flush`, `fault_injected`, ...);
    /// `detail` carries the free-form context.
    pub fn event(&self, kind: &str, detail: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        self.events
            .push(self.clock.now_nanos() / 1_000, kind, detail.into());
    }

    /// Starts an RAII span: the guard's drop records the elapsed
    /// microseconds into the `span_us.<name>` histogram and appends a
    /// completion event of kind `name`. While the hub is disabled this
    /// returns an inert guard without reading the clock.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard { inner: None };
        }
        SpanGuard {
            inner: Some(SpanInner {
                obs: self,
                name,
                start_nanos: self.clock.now_nanos(),
            }),
        }
    }

    /// The current contents of the event ring buffer, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.drain_view()
    }

    /// Freezes every registered metric plus the event log into an
    /// exportable [`ObsSnapshot`]. One pass per metric kind under the
    /// registry lock, so the values within each kind are read coherently.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            counters: self.registry.counter_values(),
            gauges: self.registry.gauge_values(),
            histograms: self.registry.histogram_snapshots(),
            events: self.events(),
        }
    }
}

struct SpanInner<'a> {
    obs: &'a Obs,
    name: &'static str,
    start_nanos: u64,
}

/// RAII span timer returned by [`Obs::span`]; see there.
pub struct SpanGuard<'a> {
    inner: Option<SpanInner<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            let end = s.obs.clock.now_nanos();
            let us = end.saturating_sub(s.start_nanos) / 1_000;
            s.obs.histogram(&format!("span_us.{}", s.name)).record(us);
            s.obs.events.push(end / 1_000, s.name, format!("{us}us"));
        }
    }
}

/// `span!(obs, "flush")`: sugar for holding an [`Obs::span`] guard until
/// the end of the enclosing block.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        let _mate_obs_span_guard = $obs.span($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_reads_no_clock() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::with_clock(clock.clone());
        obs.set_enabled(false);
        {
            let _g = obs.span("quiet");
            clock.advance_micros(50);
        }
        assert!(obs.events().is_empty());
        assert!(obs.snapshot().histograms.is_empty());
    }

    #[test]
    fn span_records_histogram_and_event() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::with_clock(clock.clone());
        {
            let _g = obs.span("flush");
            clock.advance_micros(250);
        }
        let snap = obs.snapshot();
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "span_us.flush");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 250);
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "flush");
        assert_eq!(events[0].detail, "250us");
        assert_eq!(events[0].at_micros, 250);
    }

    #[test]
    fn span_macro_scopes_to_block() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::with_clock(clock.clone());
        {
            span!(obs, "scoped");
            clock.advance_micros(7);
        }
        assert_eq!(obs.events().len(), 1);
        assert_eq!(obs.events()[0].detail, "7us");
    }

    #[test]
    fn metrics_live_while_disabled() {
        let obs = Obs::disabled();
        obs.counter("c").add(3);
        obs.gauge("g").set(9);
        obs.histogram("h").record(100);
        let snap = obs.snapshot();
        assert_eq!(snap.counters, vec![("c".to_string(), 3)]);
        assert_eq!(snap.gauges, vec![("g".to_string(), 9)]);
        assert_eq!(snap.histograms[0].1.count(), 1);
    }
}
