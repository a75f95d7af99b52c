//! The queryable aggregate snapshot.

use crate::event::Event;
use crate::histogram::HistogramSnapshot;

/// A named counter value (flat shape keeps the wire format simple).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedCount {
    /// Counter name (`jobs_queued`, `attempts/vecadd`, …).
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// Point-in-time aggregate view of a [`crate::Recorder`] for the
/// dashboard and external clients.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// False when taken from a no-op recorder.
    pub enabled: bool,
    /// Every platform counter, in [`crate::Counter::ALL`] order.
    pub counters: Vec<NamedCount>,
    /// Queue wait in pump rounds: p50/p95/p99.
    pub queue_wait_rounds: HistogramSnapshot,
    /// Compile time in wall microseconds: p50/p95/p99.
    pub compile_micros: HistogramSnapshot,
    /// Grade time in wall microseconds: p50/p95/p99.
    pub grade_micros: HistogramSnapshot,
    /// Static-analysis time in wall microseconds: p50/p95/p99.
    pub analyze_micros: HistogramSnapshot,
    /// Free-form scoped counters (per-course attempts), sorted by name.
    pub scoped: Vec<NamedCount>,
    /// The newest events, oldest first.
    pub recent_events: Vec<Event>,
    /// Events evicted from the ring since boot.
    pub dropped_events: u64,
    /// Spans currently tracked.
    pub spans_tracked: u64,
    /// Span updates discarded because the span table was full.
    pub dropped_spans: u64,
}

impl MetricsSnapshot {
    /// The snapshot of a no-op recorder: everything empty/zero.
    pub fn disabled() -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: false,
            counters: Vec::new(),
            queue_wait_rounds: HistogramSnapshot::default(),
            compile_micros: HistogramSnapshot::default(),
            grade_micros: HistogramSnapshot::default(),
            analyze_micros: HistogramSnapshot::default(),
            scoped: Vec::new(),
            recent_events: Vec::new(),
            dropped_events: 0,
            spans_tracked: 0,
            dropped_spans: 0,
        }
    }

    /// Look up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .chain(self.scoped.iter())
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }
}
