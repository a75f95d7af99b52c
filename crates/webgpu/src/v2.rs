//! WebGPU 2.0 (Figs. 6–7): a pull architecture — workers poll a
//! mirrored broker for jobs whose tags they can satisfy, drivers
//! restart on remote-config changes, the fleet resizes under an
//! autoscaling policy, and each worker's latest health beat is kept
//! for [`ClusterV2::latest_health`].

use crate::autoscaler::{AutoscalePolicy, Autoscaler, FleetMetrics, FleetTarget};
use crate::builder::BrokerTuning;
use crate::fleet::{placement, ReliabilityClass, WorkerDesc};
use crate::plane::{ControlPlane, Dispatch, State};
use minicuda::DeviceConfig;
use std::collections::HashMap;
use std::sync::Arc;
use wb_cache::CacheMetrics;
use wb_obs::sync::Mutex;
use wb_obs::{Counter, Recorder};
use wb_queue::ShardedBroker;
use wb_worker::{HealthBeat, JobOutcome, JobRequest, WorkerNode};

/// Pull dispatch: each round releases a batch sized to the live fleet
/// from the fair-share scheduler into the sharded, mirrored broker, and
/// every reachable worker syncs config, beats, and polls once.
pub struct Pull {
    broker: ShardedBroker<JobRequest>,
    /// Each worker's latest health beat (§VI-B: *"Each worker node
    /// constantly monitors the system, performing necessary health
    /// checks"*).
    health: Mutex<HashMap<u64, HealthBeat>>,
    scaler: Mutex<Autoscaler>,
}

/// The v2 pull cluster.
pub type ClusterV2 = ControlPlane<Pull>;

impl Pull {
    pub(crate) fn new(
        shards: usize,
        tuning: BrokerTuning,
        policy: AutoscalePolicy,
        fleet: usize,
        obs: &Arc<Recorder>,
    ) -> Pull {
        Pull {
            broker: ShardedBroker::with_recorder(
                shards,
                tuning.visibility_timeout_ms,
                tuning.max_attempts,
                Arc::clone(obs),
            ),
            health: Mutex::new(HashMap::new()),
            scaler: Mutex::new(Autoscaler::new(policy, fleet)),
        }
    }

    /// One worker's share of a round: config sync, health beat, one
    /// poll of its pinned lane. Touches only the worker, the config
    /// service, the latest-beat map and the broker — never the plane's
    /// state lock.
    fn pump_worker(
        plane: &ClusterV2,
        idx: usize,
        w: &WorkerNode,
        now_ms: u64,
    ) -> Option<JobOutcome> {
        w.sync_config(&plane.config);
        // Crashed workers emit no beat, so their last one ages. A beat
        // from a racing pump at an earlier clock never replaces a newer one.
        if let Some(beat) = w.health(now_ms) {
            plane.obs.bump(Counter::HealthBeats);
            let mut latest = plane.strategy.health.lock();
            if latest
                .get(&beat.worker_id)
                .is_none_or(|last| last.at_ms <= beat.at_ms)
            {
                latest.insert(beat.worker_id, beat);
            }
        }
        // The worker polls its pinned lane (stealing from siblings when
        // the lane is dry); each lane is a mirror, so the ack reaches
        // both zones and a failover cannot re-run completed jobs.
        w.poll_once(&plane.strategy.broker, idx % plane.shards, now_ms)
    }

    /// Grow and shrink the fleet toward `target`. Killed workers keep
    /// their roster slot (and count toward the fleet size) until
    /// revived or scaled in, so a chaos campaign's fleet doesn't
    /// silently regrow behind its back. Growth fills the on-demand
    /// deficit before buying spot; scale-in removes alive workers
    /// newest-first, spot before on-demand — and is exact: `target`
    /// already respects the policy floor.
    fn apply_target(plane: &ClusterV2, g: &mut State, target: FleetTarget) {
        while g.workers.len() < target.total() {
            let on_demand = g
                .workers
                .iter()
                .filter(|w| g.meta[&w.id()].class == ReliabilityClass::OnDemand)
                .count();
            let desc = WorkerDesc {
                zone: placement(g.next_worker_id),
                capabilities: None,
                reliability_class: if on_demand < target.on_demand {
                    ReliabilityClass::OnDemand
                } else {
                    ReliabilityClass::Spot
                },
            };
            plane.spawn_locked(g, desc);
        }
        while g.workers.len() > target.total() {
            let removable = |class| {
                g.workers.iter().rposition(|w| {
                    let m = &g.meta[&w.id()];
                    m.class == class && !m.killed
                })
            };
            let Some(pos) =
                removable(ReliabilityClass::Spot).or_else(|| removable(ReliabilityClass::OnDemand))
            else {
                break; // only killed workers left: hold their slots
            };
            let w = g.workers.remove(pos);
            g.meta.remove(&w.id());
        }
    }
}

impl Dispatch for Pull {
    /// Release one batch from the fair-share scheduler into the broker,
    /// lane by lane — each shard drains its slice of the live fleet's
    /// capacity (stealing from loaded siblings when its backlog is
    /// short) into its broker lane, so a dead fleet leaves jobs in the
    /// scheduler, where admission control sees them — then walk the
    /// reachable workers in order, each syncing, beating and polling
    /// once. The lane walk rotates by round so the `fleet % shards`
    /// remainder doesn't always favour lane 0; aging ticks at quota 0.
    fn round(
        plane: &ClusterV2,
        workers: &[(usize, Arc<WorkerNode>)],
        round: u64,
        now_ms: u64,
    ) -> Vec<JobOutcome> {
        let n = plane.shards;
        let fleet = workers.iter().filter(|(_, w)| !w.is_crashed()).count();
        for k in 0..n {
            let lane = (round as usize + k) % n;
            let quota = fleet / n + usize::from(k < fleet % n);
            for (_, req) in plane.sched.drain_stealing(lane, quota, now_ms) {
                let tags = req.spec.tags.to_wire();
                plane.strategy.broker.enqueue_to(lane, req, tags, now_ms);
            }
        }
        workers
            .iter()
            .filter_map(|(i, w)| Pull::pump_worker(plane, *i, w, now_ms))
            .collect()
    }

    /// Autoscale. Decision and application share one critical section:
    /// the fleet size the policy sees is the fleet the decision is
    /// applied to, so racing pumps cannot overshoot the policy bounds.
    fn after_round(plane: &ClusterV2, now_ms: u64) {
        let mut g = plane.state.lock();
        let metrics = FleetMetrics {
            queue_depth: plane.strategy.broker.depth(now_ms),
            sched_backlog: plane.sched.total_backlog(),
            max_course_backlog: plane.sched.max_course_backlog(),
            fleet_size: g.workers.len(),
            now_ms,
        };
        let target = plane.strategy.scaler.lock().desired_mix(&metrics);
        plane.obs.autoscale(g.workers.len(), target.total(), now_ms);
        Pull::apply_target(plane, &mut g, target);
    }

    fn kill(w: &WorkerNode) {
        w.preempt();
    }

    fn broker(&self) -> Option<&ShardedBroker<JobRequest>> {
        Some(&self.broker)
    }
}

impl ControlPlane<Pull> {
    /// Boot with an initial fleet and a scaling policy, sharing one
    /// default-budget submission cache. Use
    /// [`ClusterBuilder`](crate::ClusterBuilder) for anything more.
    pub fn new(initial_workers: usize, device: DeviceConfig, policy: AutoscalePolicy) -> Self {
        crate::ClusterBuilder::new(device)
            .fleet(initial_workers)
            .policy(policy)
            .build_v2()
    }

    /// Snapshot the cluster-wide submission-cache counters (`None`
    /// when the cluster was booted uncached).
    pub fn cache_metrics(&self) -> Option<CacheMetrics> {
        self.cache.as_ref().map(|c| c.metrics())
    }

    /// Jobs delivered to workers and not yet acknowledged.
    pub fn in_flight(&self, now_ms: u64) -> usize {
        self.strategy.broker.in_flight(now_ms)
    }

    /// Broker counters for the operations dashboard (§VI-A).
    pub fn broker_metrics(&self) -> wb_queue::BrokerMetrics {
        self.strategy.broker.metrics()
    }

    /// Number of recorded queueing-delay samples. Every completed job
    /// contributes exactly one: the baseline is written before the job
    /// becomes visible to any worker.
    pub fn wait_samples(&self) -> usize {
        self.state.lock().wait_count as usize
    }

    /// Mean queueing delay in pump rounds.
    pub fn mean_wait_rounds(&self) -> f64 {
        let g = self.state.lock();
        if g.wait_count == 0 {
            return 0.0;
        }
        g.wait_sum as f64 / g.wait_count as f64
    }

    /// Fail over the broker to its standby zone. Every job still
    /// waiting gets a `Failover` annotation on its span.
    pub fn broker_failover(&self, now_ms: u64) {
        self.mark_failover(now_ms);
        self.strategy.broker.failover();
    }

    /// Latest health beat per worker, sorted by worker id. A worker
    /// that has crashed keeps its last beat, which stops advancing.
    pub fn latest_health(&self) -> Vec<HealthBeat> {
        let mut out: Vec<HealthBeat> = self.strategy.health.lock().values().cloned().collect();
        out.sort_by_key(|b| b.worker_id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libwb::Dataset;
    use wb_sandbox::SyscallWhitelist;
    use wb_server::JobDispatcher;
    use wb_worker::{DatasetCase, JobAction, LabSpec};

    fn echo(job_id: u64) -> JobRequest {
        JobRequest {
            job_id,
            user: "alice".into(),
            source: r#"
                int main() {
                    int n;
                    float* a = wbImportVector(0, &n);
                    wbSolution(a, n);
                    return 0;
                }
            "#
            .to_string(),
            spec: LabSpec::cuda_test("echo"),
            datasets: vec![DatasetCase {
                name: "d0".into(),
                inputs: vec![Dataset::Vector(vec![2.0])].into(),
                expected: Dataset::Vector(vec![2.0]).into(),
            }],
            action: JobAction::FullGrade,
        }
    }

    #[test]
    fn dispatch_completes_jobs() {
        let c = ClusterV2::new(2, DeviceConfig::test_small(), AutoscalePolicy::Static(2));
        let out = c.dispatch(echo(1), 0).unwrap();
        assert!(out.compiled());
        assert_eq!(c.completed(), 1);
    }

    #[test]
    fn rush_of_identical_jobs_dedupes_cluster_wide() {
        // Twelve byte-identical submissions against a fleet of four:
        // the cache must compile and grade once,
        // no matter which workers pick which jobs up.
        let c = ClusterV2::new(4, DeviceConfig::test_small(), AutoscalePolicy::Static(4));
        for j in 0..12 {
            c.enqueue(echo(j), 0);
        }
        for r in 0..10 {
            c.pump(r);
        }
        assert_eq!(c.completed(), 12);
        let m = c.cache_metrics().expect("cached by default");
        assert_eq!(m.compile.misses, 1, "one compile for twelve identical jobs");
        assert_eq!(m.grade.misses, 1, "one grade for twelve identical jobs");
        assert_eq!(m.compile.hits + m.compile.coalesced, 11);
        // Every job still got a full, correct outcome.
        for j in 0..12 {
            let out = c.take_result(j).expect("result recorded");
            assert!(out.compiled());
            assert_eq!(out.passed_count(), 1);
        }
    }

    #[test]
    fn uncached_baseline_runs_every_job_fresh() {
        let c = crate::ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .uncached()
            .build_v2();
        assert!(c.cache_metrics().is_none());
        for j in 0..4 {
            c.enqueue(echo(j), 0);
        }
        for r in 0..10 {
            c.pump(r);
        }
        assert_eq!(c.completed(), 4);
    }

    #[test]
    fn tagged_jobs_wait_for_capable_workers() {
        let c = ClusterV2::new(1, DeviceConfig::test_small(), AutoscalePolicy::Static(1));
        let mut req = echo(7);
        req.spec.tags = ["mpi".to_string()].into_iter().collect();
        req.spec.whitelist = SyscallWhitelist::mpi_profile();
        c.enqueue(req, 0);
        // Plain CUDA fleet never takes it.
        for r in 0..5 {
            assert_eq!(c.pump(r), 0);
        }
        assert_eq!(c.queue_depth(10), 1, "job still queued");
        // Push an MPI-capable config; drivers restart and accept.
        c.config.update(|cfg| {
            cfg.capabilities.insert("mpi".into());
        });
        let mut done = 0;
        for r in 10..20 {
            done += c.pump(r);
        }
        assert_eq!(done, 1);
        assert!(c.worker(0).unwrap().restarts() >= 1);
    }

    #[test]
    fn reactive_policy_grows_fleet_under_load() {
        let c = ClusterV2::new(
            1,
            DeviceConfig::test_small(),
            AutoscalePolicy::Reactive {
                jobs_per_worker: 2,
                min: 1,
                max: 8,
            },
        );
        for j in 0..12 {
            c.enqueue(echo(j), 0);
        }
        c.pump(0);
        assert!(
            c.fleet_size() > 1,
            "queue of 12 with 2 jobs/worker must scale out (now {})",
            c.fleet_size()
        );
        // Drain and let it scale back in.
        for r in 1..40 {
            c.pump(r);
        }
        assert_eq!(c.completed(), 12);
        assert_eq!(c.fleet_size(), 1, "idle fleet returns to min");
    }

    #[test]
    fn broker_failover_loses_nothing() {
        let c = ClusterV2::new(1, DeviceConfig::test_small(), AutoscalePolicy::Static(1));
        for j in 0..3 {
            c.enqueue(echo(j), 0);
        }
        c.broker_failover(0);
        let mut done = 0;
        for r in 0..20 {
            done += c.pump(r);
        }
        assert_eq!(done, 3, "mirrored jobs survive the failover");
    }

    #[test]
    fn wait_rounds_tracked() {
        let c = ClusterV2::new(1, DeviceConfig::test_small(), AutoscalePolicy::Static(1));
        for j in 0..4 {
            c.enqueue(echo(j), 0);
        }
        for r in 0..10 {
            c.pump(r);
        }
        assert!(c.mean_wait_rounds() >= 1.0, "later jobs waited in queue");
        assert_eq!(c.wait_samples(), 4, "every completion has a latency sample");
    }

    #[test]
    fn failover_does_not_rerun_completed_jobs() {
        // Regression: worker acks used to reach only the active zone's
        // broker, so the standby still held every "completed" job and a
        // failover re-delivered, re-executed, and double-counted them.
        let c = ClusterV2::new(1, DeviceConfig::test_small(), AutoscalePolicy::Static(1));
        c.enqueue(echo(1), 0);
        let mut done = 0;
        for r in 0..5 {
            done += c.pump(r);
        }
        assert_eq!(done, 1);
        assert_eq!(c.completed(), 1);
        c.broker_failover(5);
        for r in 5..15 {
            done += c.pump(r);
        }
        assert_eq!(done, 1, "the standby has nothing to redeliver");
        assert_eq!(c.completed(), 1, "no double count after failover");
        assert_eq!(
            c.worker(0).unwrap().jobs_done(),
            1,
            "the job ran exactly once"
        );
    }

    #[test]
    fn scale_in_respects_the_policy_floor() {
        let c = ClusterV2::new(
            4,
            DeviceConfig::test_small(),
            AutoscalePolicy::Reactive {
                jobs_per_worker: 2,
                min: 2,
                max: 8,
            },
        );
        // Plenty of idle rounds: the cooldown elapses and the fleet
        // shrinks — but never through the policy minimum.
        for r in 0..20 {
            c.pump(r);
            assert!(
                c.fleet_size() >= 2,
                "round {r}: fleet {} dropped below Reactive min 2",
                c.fleet_size()
            );
        }
        assert_eq!(c.fleet_size(), 2, "idle fleet settles at the floor");
    }

    #[test]
    fn concurrent_pumps_hold_the_fleet_inside_policy_bounds() {
        // Regression for the autoscale snapshot race: `desired` used to
        // be computed from a fleet snapshot taken outside the state
        // lock, so two racing autoscales could each apply a decision
        // sized for a fleet the other had already changed. Four threads
        // pump the same loaded cluster; the fleet must sit inside
        // [min, max] at every observation.
        let c = crate::ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .shards(4)
            .policy(AutoscalePolicy::Reactive {
                jobs_per_worker: 2,
                min: 2,
                max: 8,
            })
            .build_v2();
        for j in 0..64 {
            c.enqueue(echo(j), 0);
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for r in 0..30 {
                        c.pump(t * 1_000 + r);
                        let fleet = c.fleet_size();
                        assert!((2..=8).contains(&fleet), "fleet {fleet} escaped [2, 8]");
                    }
                });
            }
        });
        // Sequential idle rounds finish any stragglers a final
        // concurrent release left in the broker, then let the cooldown
        // elapse so the fleet settles back at the floor.
        for r in 0..60 {
            c.pump(10_000 + r);
        }
        assert_eq!(c.completed(), 64, "every admitted job completed");
        assert_eq!(c.fleet_size(), 2, "idle fleet settles at the floor");
    }

    #[test]
    fn scaled_to_zero_fleet_is_reported_by_dispatch() {
        // With the hardcoded `> 1` scale-in clamp gone, a zero-minimum
        // policy really can drain the fleet — and dispatch's guard for
        // "work queued but nobody to run it" is reachable again.
        let c = ClusterV2::new(0, DeviceConfig::test_small(), AutoscalePolicy::Static(0));
        assert_eq!(c.fleet_size(), 0);
        let err = c.dispatch(echo(1), 0).unwrap_err().to_string();
        assert!(err.contains("scaled to zero"), "got: {err}");
    }
}

#[cfg(test)]
mod health_tests {
    use super::*;
    use libwb::Dataset;
    use wb_worker::{DatasetCase, JobAction, LabSpec};

    #[test]
    fn health_beats_keep_the_latest_per_worker() {
        let c = ClusterV2::new(2, DeviceConfig::test_small(), AutoscalePolicy::Static(2));
        c.enqueue(
            JobRequest {
                job_id: 1,
                user: "a".into(),
                source: "int main() { return 0; }".into(),
                spec: LabSpec::cuda_test("noop"),
                datasets: vec![DatasetCase {
                    name: "d0".into(),
                    inputs: vec![].into(),
                    expected: Dataset::Scalar(0.0).into(),
                }],
                action: JobAction::CompileOnly,
            },
            0,
        );
        for r in 0..4 {
            c.pump(r);
        }
        let health = c.latest_health();
        assert_eq!(health.len(), 2, "both workers beat");
        assert!(health.iter().any(|h| h.jobs_done >= 1));
        // A crashed worker stops appearing with fresh timestamps.
        c.worker(1).unwrap().crash();
        c.pump(100);
        let health = c.latest_health();
        let crashed = health.iter().find(|h| h.worker_id == 2).unwrap();
        assert!(crashed.at_ms < 100, "no fresh beat after the crash");
        let alive = health.iter().find(|h| h.worker_id == 1).unwrap();
        assert_eq!(alive.at_ms, 100);
    }
}
