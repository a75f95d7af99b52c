//! The administrators' dashboard (§VI-A).
//!
//! *"Each worker node constantly monitors the system, performing
//! necessary health checks, as well as validation of state. This
//! information is stored in a replicated database. An information
//! dashboard is available to the system administrators to track the
//! system status."* The dashboard snapshots a v2 cluster into a
//! serializable status record and renders the text view an operator
//! would read. Worker rows are read from the live `WorkerNode`s; the
//! pull plane keeps no beat history, only each worker's latest beat
//! ([`ClusterV2::latest_health`]).

use crate::v2::ClusterV2;
use wb_cache::CacheMetrics;
use wb_obs::{EventKind, HistogramSnapshot, MetricsSnapshot};
use wb_queue::BrokerMetrics;
use wb_sched::SchedSnapshot;

/// One worker's row on the dashboard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerRow {
    /// Worker id.
    pub id: u64,
    /// Up or crashed.
    pub alive: bool,
    /// Jobs completed.
    pub jobs_done: u64,
    /// Driver restarts.
    pub restarts: u64,
    /// Busy virtual milliseconds.
    pub busy_ms: u64,
}

/// A full system snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Virtual time of the snapshot.
    pub at_ms: u64,
    /// Jobs visible in the queue.
    pub queue_depth: usize,
    /// Jobs delivered to workers and not yet acknowledged — with the
    /// concurrent pump, many can be in flight at once.
    pub in_flight: usize,
    /// Broker counters.
    pub broker: BrokerMetrics,
    /// Fleet rows.
    pub workers: Vec<WorkerRow>,
    /// Jobs completed platform-wide.
    pub completed: u64,
    /// Mean job wait in pump rounds.
    pub mean_wait_rounds: f64,
    /// Active config version.
    pub config_version: u64,
    /// Submission-cache counters (`None` on an uncached cluster).
    pub cache: Option<CacheMetrics>,
    /// Per-course fair-share scheduler backlogs.
    pub sched: SchedSnapshot,
    /// Tracing aggregates — counters, latency percentiles, recent
    /// events. `MetricsSnapshot::disabled()` on an untraced cluster.
    pub obs: MetricsSnapshot,
}

impl Snapshot {
    /// Capture the current state of a v2 cluster.
    pub fn capture(cluster: &ClusterV2, now_ms: u64) -> Snapshot {
        let mut workers = Vec::new();
        let mut i = 0;
        while let Some(w) = cluster.worker(i) {
            workers.push(WorkerRow {
                id: w.id(),
                alive: !w.is_crashed(),
                jobs_done: w.jobs_done(),
                restarts: w.restarts(),
                busy_ms: w.busy_ms(),
            });
            i += 1;
        }
        Snapshot {
            at_ms: now_ms,
            queue_depth: cluster.queue_depth(now_ms),
            in_flight: cluster.in_flight(now_ms),
            broker: cluster.broker_metrics(),
            workers,
            completed: cluster.completed(),
            mean_wait_rounds: cluster.mean_wait_rounds(),
            config_version: cluster.config.get().version,
            cache: cluster.cache_metrics(),
            sched: cluster.sched_snapshot(),
            obs: cluster.metrics_snapshot(),
        }
    }

    /// Fleet-wide utilization proxy: alive workers with ≥1 job done.
    pub fn active_fraction(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let active = self
            .workers
            .iter()
            .filter(|w| w.alive && w.jobs_done > 0)
            .count();
        active as f64 / self.workers.len() as f64
    }

    /// Render the operator text view.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "WebGPU 2.0 status @ t={}ms   config v{}\n",
            self.at_ms, self.config_version
        ));
        out.push_str(&format!(
            "queue: {} visible, {} in flight | enqueued {} delivered {} acked {} timeouts {} dead {}\n",
            self.queue_depth,
            self.in_flight,
            self.broker.enqueued,
            self.broker.delivered,
            self.broker.acked,
            self.broker.timeouts,
            self.broker.dead_lettered
        ));
        out.push_str(&format!(
            "jobs completed: {} | mean wait: {:.1} rounds\n",
            self.completed, self.mean_wait_rounds
        ));
        if self.sched.courses.is_empty() {
            out.push_str("scheduler: no backlog\n");
        } else {
            out.push_str(&format!(
                "scheduler: {} held across {} course(s)\n",
                self.sched.total_backlog,
                self.sched.courses.len()
            ));
            for row in &self.sched.courses {
                out.push_str(&format!(
                    "  {:<12} backlog={:<5} deficit={}\n",
                    row.course, row.backlog, row.deficit
                ));
            }
        }
        if self.obs.enabled {
            out.push_str(&format!(
                "scheduler decisions: admitted {} | dequeued {} | browned-out {} | shed {} | aged promotions {}\n",
                self.obs.counter("sched_admitted"),
                self.obs.counter("sched_dequeues"),
                self.obs.counter("sched_brown_outs"),
                self.obs.counter("sched_shed"),
                self.obs.counter("sched_aged_promotions"),
            ));
        }
        match &self.cache {
            Some(cache) => {
                let t = cache.total();
                // `hit_rate()` is 0.0 (not NaN) when no lookup has
                // happened yet, so a t=0 snapshot renders "0.0%".
                out.push_str(&format!(
                    "cache: {:.1}% hit rate | {} hits {} misses {} coalesced | {} KiB resident, {} evictions\n",
                    t.hit_rate() * 100.0,
                    t.hits,
                    t.misses,
                    t.coalesced,
                    t.resident_bytes / 1024,
                    t.evictions
                ));
            }
            None => out.push_str("cache: disabled\n"),
        }
        out.push_str(&format!(
            "utilization: {:.0}% of {} workers active\n",
            self.active_fraction() * 100.0,
            self.workers.len()
        ));
        if self.obs.enabled {
            out.push_str(&format!(
                "latency p50/p95/p99: wait {}/{}/{} rounds | compile {}/{}/{} us | grade {}/{}/{} us\n",
                self.obs.queue_wait_rounds.p50,
                self.obs.queue_wait_rounds.p95,
                self.obs.queue_wait_rounds.p99,
                self.obs.compile_micros.p50,
                self.obs.compile_micros.p95,
                self.obs.compile_micros.p99,
                self.obs.grade_micros.p50,
                self.obs.grade_micros.p95,
                self.obs.grade_micros.p99,
            ));
        } else {
            out.push_str("latency p50/p95/p99: tracing disabled\n");
        }
        out.push_str("workers:\n");
        for w in &self.workers {
            out.push_str(&format!(
                "  #{:<3} {} jobs={:<5} restarts={:<2} busy={}ms\n",
                w.id,
                if w.alive { "up  " } else { "DOWN" },
                w.jobs_done,
                w.restarts,
                w.busy_ms
            ));
        }
        if self.obs.enabled {
            out.push_str(&format!(
                "recent events ({} dropped since boot):\n",
                self.obs.dropped_events
            ));
            for e in self.obs.recent_events.iter().rev().take(8) {
                out.push_str(&format!(
                    "  [{:>4}] t={}ms job={} {}\n",
                    e.seq,
                    e.at_ms,
                    e.job_id,
                    describe_event(&e.kind)
                ));
            }
        }
        out
    }
}

/// Operator-readable label for an event record.
fn describe_event(kind: &EventKind) -> String {
    match kind {
        EventKind::Phase(p) => format!("phase={p:?}"),
        EventKind::Annotated(a) => format!("note={a:?}"),
        EventKind::DeadLettered => "dead-lettered".to_string(),
        EventKind::Autoscale { from, to } => format!("autoscale {from}->{to}"),
    }
}

/// Shared percentile formatter for experiment harnesses: `"p50 {} /
/// p95 {} / p99 {}"` with the unit appended.
pub fn format_percentiles(h: &HistogramSnapshot, unit: &str) -> String {
    format!(
        "p50 {} / p95 {} / p99 {} {unit} (n={})",
        h.p50, h.p95, h.p99, h.count
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::AutoscalePolicy;
    use wb_labs::LabScale;
    use wb_worker::{JobAction, JobRequest};

    fn cluster_with_work() -> ClusterV2 {
        let c = ClusterV2::new(
            2,
            minicuda::DeviceConfig::test_small(),
            AutoscalePolicy::Static(2),
        );
        let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
        for j in 0..3 {
            c.enqueue(
                JobRequest {
                    job_id: j,
                    user: "a".into(),
                    source: wb_labs::solution("vecadd").unwrap().to_string(),
                    spec: lab.spec.clone(),
                    datasets: lab.datasets.clone(),
                    action: JobAction::RunDataset(0),
                },
                0,
            );
        }
        c
    }

    #[test]
    fn snapshot_reflects_progress() {
        let c = cluster_with_work();
        let before = Snapshot::capture(&c, 0);
        assert_eq!(before.queue_depth, 3);
        assert_eq!(before.completed, 0);
        for r in 0..5 {
            c.pump(r);
        }
        let after = Snapshot::capture(&c, 5);
        assert_eq!(after.completed, 3);
        assert_eq!(after.queue_depth, 0);
        assert_eq!(after.broker.acked, 3);
        assert!(after.active_fraction() > 0.0);
    }

    #[test]
    fn render_shows_down_workers() {
        let c = cluster_with_work();
        c.worker(1).unwrap().crash();
        let text = Snapshot::capture(&c, 1).render();
        assert!(text.contains("DOWN"));
        assert!(text.contains("queue: 3 visible"));
        assert!(text.contains("config v1"));
    }

    #[test]
    fn active_fraction_empty_fleet() {
        let s = Snapshot {
            at_ms: 0,
            queue_depth: 0,
            in_flight: 0,
            broker: BrokerMetrics::default(),
            workers: vec![],
            completed: 0,
            mean_wait_rounds: 0.0,
            config_version: 1,
            cache: None,
            sched: SchedSnapshot::default(),
            obs: MetricsSnapshot::disabled(),
        };
        assert_eq!(s.active_fraction(), 0.0);
        // An empty snapshot must render finite numbers everywhere —
        // no NaN hit-rate, no NaN utilization.
        let text = s.render();
        assert!(!text.contains("NaN"), "got: {text}");
        assert!(text.contains("utilization: 0% of 0 workers"));
    }

    #[test]
    fn pristine_cluster_renders_without_nan() {
        // Snapshot taken before any submission completes: the cache
        // has zero lookups and no worker has done a job, the two
        // historical zero-denominator cells.
        let c = ClusterV2::new(
            2,
            minicuda::DeviceConfig::test_small(),
            AutoscalePolicy::Static(2),
        );
        let text = Snapshot::capture(&c, 0).render();
        assert!(!text.contains("NaN"), "got: {text}");
        assert!(text.contains("cache: 0.0% hit rate"), "got: {text}");
        assert!(text.contains("utilization: 0% of 2 workers"));
    }

    #[test]
    fn traced_cluster_renders_percentiles_and_events() {
        let obs = std::sync::Arc::new(wb_obs::Recorder::traced());
        let c = crate::ClusterBuilder::new(minicuda::DeviceConfig::test_small())
            .fleet(2)
            .traced(obs)
            .build_v2();
        let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
        for j in 0..3 {
            c.enqueue(
                JobRequest {
                    job_id: j,
                    user: "a".into(),
                    source: wb_labs::solution("vecadd").unwrap().to_string(),
                    spec: lab.spec.clone(),
                    datasets: lab.datasets.clone(),
                    action: JobAction::RunDataset(0),
                },
                0,
            );
        }
        for r in 0..5 {
            c.pump(r);
        }
        let snap = Snapshot::capture(&c, 5);
        assert!(snap.obs.enabled);
        assert_eq!(snap.obs.counter("jobs_completed"), 3);
        assert_eq!(snap.obs.queue_wait_rounds.count, 3);
        let text = snap.render();
        assert!(text.contains("latency p50/p95/p99"), "got: {text}");
        assert!(text.contains("recent events"), "got: {text}");
        assert!(text.contains("phase=Graded"), "got: {text}");
    }

    #[test]
    fn render_reports_cache_hit_rate() {
        let c = cluster_with_work();
        // Three identical submissions: after draining, two of three
        // compile lookups were served by the cache.
        for r in 0..5 {
            c.pump(r);
        }
        let snap = Snapshot::capture(&c, 5);
        let cache = snap.cache.expect("v2 clusters cache by default");
        assert_eq!(cache.compile.misses, 1);
        assert_eq!(cache.compile.hits + cache.compile.coalesced, 2);
        let text = snap.render();
        assert!(text.contains("hit rate"), "operator view shows the gauge");
        assert!(!text.contains("cache: disabled"));
        // An uncached cluster renders the disabled marker instead.
        let bare = crate::ClusterBuilder::new(minicuda::DeviceConfig::test_small())
            .uncached()
            .build_v2();
        assert!(Snapshot::capture(&bare, 0)
            .render()
            .contains("cache: disabled"));
    }

    #[test]
    fn render_shows_scheduler_backlogs_and_decisions() {
        let obs = std::sync::Arc::new(wb_obs::Recorder::traced());
        let c = crate::ClusterBuilder::new(minicuda::DeviceConfig::test_small())
            .fleet(2)
            .traced(obs)
            .build_v2();
        let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
        for j in 0..3 {
            let mut spec = lab.spec.clone();
            spec.course = "ece408".to_string();
            c.enqueue(
                JobRequest {
                    job_id: j,
                    user: "a".into(),
                    source: wb_labs::solution("vecadd").unwrap().to_string(),
                    spec,
                    datasets: lab.datasets.clone(),
                    action: JobAction::RunDataset(0),
                },
                0,
            );
        }
        let before = Snapshot::capture(&c, 0);
        assert_eq!(before.sched.total_backlog, 3);
        let text = before.render();
        assert!(
            text.contains("scheduler: 3 held across 1 course(s)"),
            "got: {text}"
        );
        assert!(text.contains("ece408"), "got: {text}");
        assert!(
            text.contains("scheduler decisions: admitted 3"),
            "got: {text}"
        );
        for r in 0..5 {
            c.pump(r);
        }
        let after = Snapshot::capture(&c, 5);
        assert!(after.sched.courses.is_empty());
        let text = after.render();
        assert!(text.contains("scheduler: no backlog"), "got: {text}");
        assert!(text.contains("dequeued 3"), "got: {text}");
    }
}
