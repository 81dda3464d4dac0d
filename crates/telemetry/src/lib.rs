//! Unified observability layer for the RBNN workspace.
//!
//! Everything the serving stack, the streaming router, the RRAM engine
//! model and the trainer report about themselves flows through this crate:
//!
//! - [`metrics`] — the lock-free primitives: [`Counter`], [`FloatCounter`],
//!   [`Gauge`], and [`LogHistogram`] (the 5%-resolution log-scaled
//!   histogram generalized out of the serving stats). Handles are
//!   registered once and recorded on the hot path without locks or
//!   allocation.
//! - [`registry`] — [`MetricsRegistry`]: named + labeled series with
//!   get-or-create registration; [`global()`] is the process-wide instance
//!   every subsystem instruments into.
//! - [`trace`] — request-lifecycle span sampling: [`SpanRecord`]
//!   decomposes one request into queue-wait / batch-linger / service
//!   phases, retained in a fixed [`SpanRing`] for post-hoc tail analysis.
//! - [`export`] — [`TelemetrySnapshot`] with a Prometheus-text renderer
//!   and a JSON dump.
//!
//! # Enabling and disabling
//!
//! Instrumentation sites guard their work with [`enabled()`] (a single
//! relaxed atomic load, branch-predictable because it never changes
//! mid-run in practice). Telemetry defaults to **on**; benches gate the
//! enabled-vs-disabled overhead. Core serving statistics
//! (`rbnn_serve::StatsSnapshot`) are *not* gated — they are part of the
//! serving contract — only the auxiliary reporting (span sampling, stream
//! gauges, RRAM/energy counters, training phase timers) honors the flag.
//!
//! # Example
//!
//! ```
//! use rbnn_telemetry as tel;
//!
//! let hits = tel::global().counter(
//!     "rbnn_doc_example_hits_total",
//!     "",
//!     "Times the doc example ran.",
//! );
//! hits.inc();
//! let text = tel::global().snapshot().render_prometheus();
//! assert!(text.contains("rbnn_doc_example_hits_total"));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use export::{HistogramSample, NumberSample, TelemetrySnapshot};
pub use metrics::{Counter, FloatCounter, Gauge, LogHistogram};
pub use registry::{MetricKey, MetricsRegistry};
pub use trace::{SpanRecord, SpanRing};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether auxiliary instrumentation is active (default: `true`).
///
/// One relaxed load — cheap enough for any hot path; instrumentation
/// sites check it *before* doing label formatting or clock reads, so a
/// disabled build pays only this branch.
#[inline]
pub fn enabled() -> bool {
    // Relaxed: a standalone on/off flag — instrumentation sites tolerate
    // observing a flip late by a few events, and nothing else is ordered
    // against the load.
    ENABLED.load(Ordering::Relaxed)
}

/// Turns auxiliary instrumentation on or off process-wide.
///
/// Flipping the flag mid-run is safe (recording through live handles is
/// always sound); already-registered series simply stop/resume updating.
pub fn set_enabled(on: bool) {
    // Relaxed: pairs with the load in `enabled`; eventual visibility is the
    // contract (series "stop/resume updating"), not synchronization.
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry every subsystem instruments into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let a = global().counter("rbnn_lib_test_total", "", "test");
        let b = global().counter("rbnn_lib_test_total", "", "test");
        let before = a.get();
        b.inc();
        assert_eq!(a.get(), before + 1);
    }

    #[test]
    fn enable_toggle_roundtrips() {
        // Confined to this test: restore the default before returning so
        // parallel tests never observe a disabled registry.
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
