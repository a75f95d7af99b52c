//! wb-obs: lock-light structured tracing and metrics.
//!
//! The paper operates WebGPU as production MOOC infrastructure and
//! sizes the fleet from per-attempt timing and worker health (§III–IV).
//! This crate is the reproduction's observability spine: one
//! [`Recorder`] shared (`Arc`) by every layer — broker, workers,
//! clusters, server — so that a single snapshot answers the operator
//! questions that matter during a deadline rush: *how long do jobs
//! wait, where does time go, what just happened?*
//!
//! Three coordinated views of the same traffic:
//!
//! * **Spans** — one per job lifecycle
//!   (`queued → dispatched → compiled → graded/failed`), annotated with
//!   cache hits, coalesced lookups, retries and failovers
//!   ([`SpanView`]).
//! * **Aggregates** — fixed-slot counters ([`Counter`]) and
//!   fixed-bucket histograms ([`Histogram`]) yielding p50/p95/p99 for
//!   queue wait, compile and grade time with no allocation on the hot
//!   path.
//! * **Event log** — a bounded ring buffer of sequence-numbered
//!   [`Event`]s for post-hoc replay of the last N state changes.
//!
//! The whole recorder is behind `Option`: [`Recorder::noop`] carries no
//! state and every method is a single branch, so an untraced cluster
//! pays nothing measurable.

pub mod event;
pub mod histogram;
pub mod recorder;
pub mod snapshot;
pub mod span;
pub mod sync;

pub use event::{Annotation, Event, EventKind, JobPhase};
pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::{Counter, Recorder, Timer};
pub use snapshot::{MetricsSnapshot, NamedCount};
pub use span::SpanView;
