//! The shared recorder: counters, timers, spans and the event ring.

use crate::event::{Annotation, Event, EventKind, JobPhase};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::snapshot::{MetricsSnapshot, NamedCount};
use crate::span::SpanView;
use crate::sync::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-slot platform counters. Adding a variant means adding it to
/// [`Counter::ALL`] — the recorder stores them in a flat atomic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Jobs that entered a queue / pool.
    JobsQueued,
    /// Deliveries to a concrete worker (including redeliveries).
    JobsDispatched,
    /// Jobs that reached a grade.
    JobsCompleted,
    /// Jobs that terminated without a grade.
    JobsFailed,
    /// Redeliveries after a failed attempt.
    Retries,
    /// Broker zone failovers survived.
    Failovers,
    /// Cache lookups served from a tier.
    CacheHits,
    /// Cache lookups that executed.
    CacheMisses,
    /// Cache lookups that piggybacked on an in-flight execution.
    CacheCoalesced,
    /// Broker: jobs enqueued.
    QueueEnqueued,
    /// Broker: deliveries handed out.
    QueueDelivered,
    /// Broker: jobs acknowledged.
    QueueAcked,
    /// Broker: negative acknowledgements.
    QueueNacked,
    /// Broker: visibility timeouts reclaimed.
    QueueTimeouts,
    /// Broker: jobs dead-lettered.
    DeadLetters,
    /// Worker health beats observed.
    HealthBeats,
    /// Autoscale decisions that grew the fleet.
    AutoscaleOut,
    /// Autoscale decisions that shrank the fleet.
    AutoscaleIn,
    /// Submissions rejected by the rate limiter.
    RateLimited,
    /// Attempts recorded by the server (per-course detail is scoped).
    AttemptsServed,
    /// Workers evicted by a health sweep.
    WorkerEvictions,
    /// Jobs admitted by the fair-share scheduler.
    SchedAdmitted,
    /// Jobs refused at admission (backlog budget exhausted).
    SchedShed,
    /// Full-grade requests downgraded to compile-only in the
    /// brown-out band.
    SchedBrownOuts,
    /// Starvation-aging promotions: a course dequeued ahead of its
    /// deficit because its head-of-line job waited too long.
    SchedAgedPromotions,
    /// Jobs handed from the scheduler to the execution layer.
    SchedDequeues,
    /// Static-analysis runs executed (cache hits don't re-run).
    AnalysisRuns,
    /// Jobs whose kernels the verifier flagged (any findings).
    AnalysisFlagged,
    /// Individual verifier findings across all flagged jobs.
    AnalysisFindings,
    /// Submissions rejected outright by a `Deny` analysis policy.
    AnalysisDenied,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 30] = [
        Counter::JobsQueued,
        Counter::JobsDispatched,
        Counter::JobsCompleted,
        Counter::JobsFailed,
        Counter::Retries,
        Counter::Failovers,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheCoalesced,
        Counter::QueueEnqueued,
        Counter::QueueDelivered,
        Counter::QueueAcked,
        Counter::QueueNacked,
        Counter::QueueTimeouts,
        Counter::DeadLetters,
        Counter::HealthBeats,
        Counter::AutoscaleOut,
        Counter::AutoscaleIn,
        Counter::RateLimited,
        Counter::AttemptsServed,
        Counter::WorkerEvictions,
        Counter::SchedAdmitted,
        Counter::SchedShed,
        Counter::SchedBrownOuts,
        Counter::SchedAgedPromotions,
        Counter::SchedDequeues,
        Counter::AnalysisRuns,
        Counter::AnalysisFlagged,
        Counter::AnalysisFindings,
        Counter::AnalysisDenied,
    ];

    /// Stable snake_case name for snapshots and dashboards.
    pub fn name(self) -> &'static str {
        match self {
            Counter::JobsQueued => "jobs_queued",
            Counter::JobsDispatched => "jobs_dispatched",
            Counter::JobsCompleted => "jobs_completed",
            Counter::JobsFailed => "jobs_failed",
            Counter::Retries => "retries",
            Counter::Failovers => "failovers",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheCoalesced => "cache_coalesced",
            Counter::QueueEnqueued => "queue_enqueued",
            Counter::QueueDelivered => "queue_delivered",
            Counter::QueueAcked => "queue_acked",
            Counter::QueueNacked => "queue_nacked",
            Counter::QueueTimeouts => "queue_timeouts",
            Counter::DeadLetters => "dead_letters",
            Counter::HealthBeats => "health_beats",
            Counter::AutoscaleOut => "autoscale_out",
            Counter::AutoscaleIn => "autoscale_in",
            Counter::RateLimited => "rate_limited",
            Counter::AttemptsServed => "attempts_served",
            Counter::WorkerEvictions => "worker_evictions",
            Counter::SchedAdmitted => "sched_admitted",
            Counter::SchedShed => "sched_shed",
            Counter::SchedBrownOuts => "sched_brown_outs",
            Counter::SchedAgedPromotions => "sched_aged_promotions",
            Counter::SchedDequeues => "sched_dequeues",
            Counter::AnalysisRuns => "analysis_runs",
            Counter::AnalysisFlagged => "analysis_flagged",
            Counter::AnalysisFindings => "analysis_findings",
            Counter::AnalysisDenied => "analysis_denied",
        }
    }

    fn idx(self) -> usize {
        Counter::ALL.iter().position(|c| *c == self).unwrap()
    }
}

/// The three latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// Pump rounds between enqueue and completion.
    QueueWaitRounds,
    /// Wall microseconds the compile step cost the job that paid for
    /// it: the cache lookup, plus the compile and the static verifier
    /// when this job computed the entry (as single-flight leader, or
    /// with no cache). A hit or coalesced wait records only the lookup.
    CompileMicros,
    /// Wall microseconds spent grading datasets.
    GradeMicros,
    /// Wall microseconds spent in static kernel analysis.
    AnalyzeMicros,
}

const SPAN_SHARDS: usize = 8;
/// Lock shards for the scoped-counter map. Per-course counters are the
/// scheduler's per-dequeue hot path; one `Mutex<BTreeMap>` serialized
/// every drain in a sharded control plane.
const SCOPED_SHARDS: usize = 16;
const MAX_SPANS_PER_SHARD: usize = 2048;
const DEFAULT_EVENT_CAPACITY: usize = 1024;
/// Events included inline in a [`MetricsSnapshot`].
const SNAPSHOT_RECENT: usize = 32;

#[derive(Default)]
struct SpanRecord {
    phases: Vec<(JobPhase, u64, u64)>,
    annotations: Vec<(Annotation, u64, u64)>,
}

struct EventRing {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

struct Inner {
    seq: AtomicU64,
    counters: [AtomicU64; Counter::ALL.len()],
    queue_wait: Histogram,
    compile: Histogram,
    grade: Histogram,
    analyze: Histogram,
    events: Mutex<EventRing>,
    spans: [Mutex<HashMap<u64, SpanRecord>>; SPAN_SHARDS],
    dropped_spans: AtomicU64,
    scoped: [Mutex<HashMap<String, u64>>; SCOPED_SHARDS],
}

/// FNV-1a shard index for a scoped-counter key: a stable string hash,
/// so a key always lands on the same lock.
fn scoped_shard(key: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % SCOPED_SHARDS as u64) as usize
}

/// The platform-wide recorder, shared as `Arc<Recorder>`.
///
/// A no-op recorder ([`Recorder::noop`]) carries no state: every
/// method is one branch on an `Option`, so instrumented code paths
/// cost nothing measurable when tracing is off.
pub struct Recorder {
    inner: Option<Inner>,
}

impl Recorder {
    /// A recorder that records nothing. `const`, so a `static` no-op
    /// recorder can stand in where a `&Recorder` is required.
    pub const fn noop() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder with the default event-log capacity (1024).
    pub fn traced() -> Recorder {
        Recorder::traced_with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A live recorder whose event ring keeps the last `events`
    /// entries (older ones are dropped and counted).
    pub fn traced_with_capacity(events: usize) -> Recorder {
        Recorder {
            inner: Some(Inner {
                seq: AtomicU64::new(0),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                queue_wait: Histogram::new(),
                compile: Histogram::new(),
                grade: Histogram::new(),
                analyze: Histogram::new(),
                events: Mutex::new(EventRing {
                    buf: VecDeque::new(),
                    cap: events.max(1),
                    dropped: 0,
                }),
                spans: std::array::from_fn(|_| Mutex::new(HashMap::new())),
                dropped_spans: AtomicU64::new(0),
                scoped: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            }),
        }
    }

    /// Whether this recorder keeps state.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increment a counter by one.
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter by `n`.
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(i) = &self.inner {
            i.counters[c.idx()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counter value (0 on a no-op recorder).
    pub fn counter(&self, c: Counter) -> u64 {
        match &self.inner {
            Some(i) => i.counters[c.idx()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Record an observation into one of the latency histograms.
    pub fn observe(&self, t: Timer, value: u64) {
        if let Some(i) = &self.inner {
            i.timer(t).record(value);
        }
    }

    /// Percentile summary of one latency histogram.
    pub fn histogram(&self, t: Timer) -> HistogramSnapshot {
        match &self.inner {
            Some(i) => i.timer(t).snapshot(),
            None => HistogramSnapshot::default(),
        }
    }

    /// Record a span phase boundary. Also bumps the matching
    /// `Jobs*` counter so aggregates never drift from spans.
    pub fn phase(&self, job_id: u64, phase: JobPhase, at_ms: u64) {
        let Some(i) = &self.inner else { return };
        let seq = i.push_event(at_ms, job_id, EventKind::Phase(phase));
        i.with_span(job_id, |s| s.phases.push((phase, at_ms, seq)));
        let c = match phase {
            JobPhase::Queued => Counter::JobsQueued,
            JobPhase::Dispatched => Counter::JobsDispatched,
            JobPhase::Compiled => return,
            JobPhase::Graded => Counter::JobsCompleted,
            JobPhase::Failed => Counter::JobsFailed,
        };
        i.counters[c.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Attach an annotation to a span. Also bumps the matching
    /// counter (`Retries`, `Failovers`, `CacheHits`, `CacheCoalesced`).
    pub fn annotate(&self, job_id: u64, a: Annotation, at_ms: u64) {
        let Some(i) = &self.inner else { return };
        let seq = i.push_event(at_ms, job_id, EventKind::Annotated(a));
        i.with_span(job_id, |s| s.annotations.push((a, at_ms, seq)));
        let c = match a {
            Annotation::CacheHit => Counter::CacheHits,
            Annotation::Coalesced => Counter::CacheCoalesced,
            Annotation::Retry => Counter::Retries,
            Annotation::Failover => Counter::Failovers,
            Annotation::BrownOut => Counter::SchedBrownOuts,
            Annotation::Shed => Counter::SchedShed,
            Annotation::AnalysisFlagged => Counter::AnalysisFlagged,
        };
        i.counters[c.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a dead-lettered delivery (broker delivery id, not a
    /// platform job id).
    pub fn dead_letter(&self, delivery_id: u64, at_ms: u64) {
        let Some(i) = &self.inner else { return };
        i.push_event(at_ms, delivery_id, EventKind::DeadLettered);
        i.counters[Counter::DeadLetters.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record an autoscale decision.
    pub fn autoscale(&self, from: usize, to: usize, at_ms: u64) {
        let Some(i) = &self.inner else { return };
        if from == to {
            return;
        }
        i.push_event(
            at_ms,
            0,
            EventKind::Autoscale {
                from: from as u64,
                to: to as u64,
            },
        );
        let c = if to > from {
            Counter::AutoscaleOut
        } else {
            Counter::AutoscaleIn
        };
        i.counters[c.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Increment a free-form scoped counter (e.g. `attempts/vecadd`).
    /// The map is lock-sharded by key hash so concurrent drains on
    /// different courses don't serialize here.
    pub fn bump_scoped(&self, key: &str) {
        if let Some(i) = &self.inner {
            *i.scoped[scoped_shard(key)]
                .lock()
                .entry(key.to_string())
                .or_insert(0) += 1;
        }
    }

    /// Current value of a scoped counter.
    pub fn scoped(&self, key: &str) -> u64 {
        match &self.inner {
            Some(i) => i.scoped[scoped_shard(key)]
                .lock()
                .get(key)
                .copied()
                .unwrap_or(0),
            None => 0,
        }
    }

    /// The last `n` events, oldest first.
    pub fn recent_events(&self, n: usize) -> Vec<Event> {
        match &self.inner {
            Some(i) => {
                let g = i.events.lock();
                g.buf.iter().rev().take(n).rev().cloned().collect()
            }
            None => Vec::new(),
        }
    }

    /// Events with `seq > after`, oldest first — the replay cursor.
    pub fn events_after(&self, after: u64) -> Vec<Event> {
        match &self.inner {
            Some(i) => {
                let g = i.events.lock();
                g.buf.iter().filter(|e| e.seq > after).cloned().collect()
            }
            None => Vec::new(),
        }
    }

    /// One job's span, if tracked.
    pub fn span(&self, job_id: u64) -> Option<SpanView> {
        let i = self.inner.as_ref()?;
        let g = i.spans[(job_id as usize) % SPAN_SHARDS].lock();
        g.get(&job_id).map(|r| SpanView {
            job_id,
            phases: r.phases.clone(),
            annotations: r.annotations.clone(),
        })
    }

    /// All tracked spans, ordered by job id.
    pub fn spans(&self) -> Vec<SpanView> {
        let Some(i) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for shard in &i.spans {
            let g = shard.lock();
            out.extend(g.iter().map(|(id, r)| SpanView {
                job_id: *id,
                phases: r.phases.clone(),
                annotations: r.annotations.clone(),
            }));
        }
        out.sort_by_key(|s| s.job_id);
        out
    }

    /// Full aggregate snapshot: counters, percentiles, scoped
    /// counters and the most recent events.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(i) = &self.inner else {
            return MetricsSnapshot::disabled();
        };
        MetricsSnapshot {
            enabled: true,
            counters: Counter::ALL
                .iter()
                .map(|c| NamedCount {
                    name: c.name().to_string(),
                    value: i.counters[c.idx()].load(Ordering::Relaxed),
                })
                .collect(),
            queue_wait_rounds: i.queue_wait.snapshot(),
            compile_micros: i.compile.snapshot(),
            grade_micros: i.grade.snapshot(),
            analyze_micros: i.analyze.snapshot(),
            scoped: {
                // Merge the lock shards through a BTreeMap so the
                // snapshot stays sorted by name, exactly as before.
                let mut merged = BTreeMap::new();
                for shard in &i.scoped {
                    for (k, v) in shard.lock().iter() {
                        merged.insert(k.clone(), *v);
                    }
                }
                merged
                    .into_iter()
                    .map(|(name, value)| NamedCount { name, value })
                    .collect()
            },
            recent_events: self.recent_events(SNAPSHOT_RECENT),
            dropped_events: i.events.lock().dropped,
            spans_tracked: i.spans.iter().map(|s| s.lock().len() as u64).sum(),
            dropped_spans: i.dropped_spans.load(Ordering::Relaxed),
        }
    }
}

impl Inner {
    fn timer(&self, t: Timer) -> &Histogram {
        match t {
            Timer::QueueWaitRounds => &self.queue_wait,
            Timer::CompileMicros => &self.compile,
            Timer::GradeMicros => &self.grade,
            Timer::AnalyzeMicros => &self.analyze,
        }
    }

    /// Allocate the next sequence number and append to the ring.
    fn push_event(&self, at_ms: u64, job_id: u64, kind: EventKind) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut g = self.events.lock();
        if g.buf.len() == g.cap {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(Event {
            seq,
            at_ms,
            job_id,
            kind,
        });
        seq
    }

    fn with_span(&self, job_id: u64, f: impl FnOnce(&mut SpanRecord)) {
        let mut g = self.spans[(job_id as usize) % SPAN_SHARDS].lock();
        if g.len() >= MAX_SPANS_PER_SHARD && !g.contains_key(&job_id) {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
            return;
        }
        f(g.entry(job_id).or_default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_observes_nothing() {
        let r = Recorder::noop();
        r.bump(Counter::JobsQueued);
        r.phase(1, JobPhase::Queued, 0);
        r.annotate(1, Annotation::CacheHit, 0);
        r.observe(Timer::CompileMicros, 42);
        r.bump_scoped("attempts/vecadd");
        assert!(!r.enabled());
        assert_eq!(r.counter(Counter::JobsQueued), 0);
        assert!(r.span(1).is_none());
        assert!(r.recent_events(10).is_empty());
        let s = r.snapshot();
        assert!(!s.enabled);
        assert_eq!(s.compile_micros.count, 0);
    }

    #[test]
    fn full_lifecycle_builds_a_complete_span() {
        let r = Recorder::traced();
        r.phase(7, JobPhase::Queued, 100);
        r.phase(7, JobPhase::Dispatched, 110);
        r.annotate(7, Annotation::CacheHit, 115);
        r.phase(7, JobPhase::Compiled, 120);
        r.phase(7, JobPhase::Graded, 130);
        let s = r.span(7).unwrap();
        assert!(s.is_complete() && s.is_ordered());
        assert!(s.has(Annotation::CacheHit));
        assert_eq!(s.terminal(), Some(JobPhase::Graded));
        assert_eq!(r.counter(Counter::JobsQueued), 1);
        assert_eq!(r.counter(Counter::JobsCompleted), 1);
        assert_eq!(r.counter(Counter::CacheHits), 1);
    }

    #[test]
    fn event_ring_is_bounded_with_monotonic_seq() {
        let r = Recorder::traced_with_capacity(4);
        for j in 0..10 {
            r.phase(j, JobPhase::Queued, j);
        }
        let ev = r.recent_events(100);
        assert_eq!(ev.len(), 4, "ring keeps only the newest");
        let seqs: Vec<u64> = ev.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        assert_eq!(r.snapshot().dropped_events, 6);
        // The replay cursor resumes mid-ring.
        assert_eq!(r.events_after(8).len(), 2);
    }

    #[test]
    fn scoped_counters_roll_up_per_course() {
        let r = Recorder::traced();
        r.bump_scoped("attempts/vecadd");
        r.bump_scoped("attempts/vecadd");
        r.bump_scoped("attempts/histo");
        assert_eq!(r.scoped("attempts/vecadd"), 2);
        assert_eq!(r.scoped("attempts/histo"), 1);
        assert_eq!(r.scoped("attempts/missing"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.scoped.len(), 2);
        assert_eq!(snap.scoped[0].name, "attempts/histo");
    }

    #[test]
    fn autoscale_events_direction() {
        let r = Recorder::traced();
        r.autoscale(2, 5, 10);
        r.autoscale(5, 5, 20); // no-op decisions are not events
        r.autoscale(5, 1, 30);
        assert_eq!(r.counter(Counter::AutoscaleOut), 1);
        assert_eq!(r.counter(Counter::AutoscaleIn), 1);
        assert_eq!(r.recent_events(10).len(), 2);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let r = std::sync::Arc::new(Recorder::traced());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for j in 0..50u64 {
                    let id = t * 50 + j;
                    r.phase(id, JobPhase::Queued, id);
                    r.phase(id, JobPhase::Dispatched, id + 1);
                    r.phase(id, JobPhase::Graded, id + 2);
                    r.observe(Timer::QueueWaitRounds, j % 7);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter(Counter::JobsQueued), 200);
        assert_eq!(r.counter(Counter::JobsCompleted), 200);
        let spans = r.spans();
        assert_eq!(spans.len(), 200);
        assert!(spans.iter().all(|s| s.is_complete() && s.is_ordered()));
        assert_eq!(r.histogram(Timer::QueueWaitRounds).count, 200);
        // Sequence numbers are globally unique.
        let mut seqs: Vec<u64> = r.events_after(0).iter().map(|e| e.seq).collect();
        let n = seqs.len();
        seqs.dedup();
        assert_eq!(seqs.len(), n);
    }
}
