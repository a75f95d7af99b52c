//! WebGPU 2.0 (Figs. 6–7): a pull architecture — workers poll a
//! mirrored broker for jobs whose tags they can satisfy, drivers
//! restart on remote-config changes, datasets live in a blob store,
//! and the fleet resizes under an autoscaling policy.

use crate::autoscaler::{AutoscalePolicy, Autoscaler, FleetMetrics, FleetTarget};
use crate::builder::BrokerTuning;
use crate::fleet::{FleetControl, FleetView, ReliabilityClass, WorkerDesc, WorkerInfo, Zone};
use minicuda::DeviceConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wb_cache::{CacheConfig, CacheMetrics};
use wb_db::BlobStore;
use wb_obs::sync::Mutex;
use wb_obs::{Annotation, Counter, JobPhase, Recorder, Timer};
use wb_queue::ShardedBroker;
use wb_sched::{Admission, GradeClass, SchedConfig, SchedSnapshot, ShardedScheduler};
use wb_server::{JobDispatcher, WbError};
use wb_worker::{
    new_submission_cache, ConfigServer, JobAction, JobOutcome, JobRequest, NodeConfig,
    SubmissionCache, WorkerConfig, WorkerNode,
};

/// A worker health record persisted to the metrics database (§VI-B:
/// *"Each worker node constantly monitors the system, performing
/// necessary health checks … This information is stored in a
/// replicated database."*).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRecord {
    /// Reporting worker.
    pub worker_id: u64,
    /// Virtual ms of the beat.
    pub at_ms: u64,
    /// Jobs completed at that time.
    pub jobs_done: u64,
    /// Driver restarts at that time.
    pub restarts: u64,
}
wb_db::impl_encode!(struct HealthRecord { worker_id, at_ms, jobs_done, restarts });

/// The v2 pull cluster.
pub struct ClusterV2 {
    broker: ShardedBroker<JobRequest>,
    /// Remote configuration service all workers watch (§VI-B).
    pub config: ConfigServer,
    /// Dataset bucket (§VI-A ° in Fig. 6).
    pub store: BlobStore,
    /// Replicated metrics database receiving worker health beats.
    pub metrics_db: wb_db::ReplicatedTable<HealthRecord>,
    device: DeviceConfig,
    /// Cluster-wide submission cache (`None` for the uncached
    /// baseline); autoscaled workers join it on boot.
    cache: Option<Arc<SubmissionCache>>,
    obs: Arc<Recorder>,
    /// Per-course fair-share scheduler, one lane per control-plane
    /// shard: every submission enters its course's shard and the pump
    /// releases fleet-sized batches into the broker in
    /// deficit-round-robin order, idle shards stealing from loaded
    /// ones so no lane strands work.
    sched: ShardedScheduler<JobRequest>,
    /// Control-plane lane count, shared by the broker, the scheduler,
    /// and the worker→lane pinning in the pump.
    shards: usize,
    state: Mutex<FleetState>,
    scaler: Mutex<Autoscaler>,
    /// High-water mark of the virtual clock (`now_ms` seen by submit
    /// and pump). Fleet mutations arriving through [`FleetControl`]
    /// carry no timestamp of their own; their span annotations are
    /// stamped with this.
    clock: AtomicU64,
}

/// Placement bookkeeping for one worker: where it lives, what it
/// costs, and whether the chaos/ops plane has killed it. Killed
/// workers stay in the roster (dark) until revived or scaled in.
struct WorkerMeta {
    zone: Zone,
    class: ReliabilityClass,
    killed: bool,
}

struct FleetState {
    workers: Vec<Arc<WorkerNode>>,
    meta: HashMap<u64, WorkerMeta>,
    next_worker_id: u64,
    results: HashMap<u64, JobOutcome>,
    completed: u64,
    /// Per-job queueing delay in pump rounds (latency proxy).
    wait_rounds: Vec<u64>,
    enqueue_round: HashMap<u64, u64>,
    round: u64,
}

impl ClusterV2 {
    /// Boot with an initial fleet and a scaling policy. The fleet
    /// shares one submission cache (default budgets). Equivalent to
    /// [`crate::ClusterBuilder`] with defaults — use the builder for
    /// anything beyond fleet/device/policy.
    pub fn new(initial_workers: usize, device: DeviceConfig, policy: AutoscalePolicy) -> Self {
        Self::new_inner(
            initial_workers,
            device,
            policy,
            Some(new_submission_cache(CacheConfig::default())),
            Arc::new(Recorder::noop()),
            SchedConfig::default(),
            WorkerConfig::default(),
            wb_worker::default_shards(),
            BrokerTuning::default(),
        )
    }

    #[allow(clippy::too_many_arguments)] // builder-only constructor
    pub(crate) fn new_inner(
        initial_workers: usize,
        device: DeviceConfig,
        policy: AutoscalePolicy,
        cache: Option<Arc<SubmissionCache>>,
        obs: Arc<Recorder>,
        sched: SchedConfig,
        worker_config: WorkerConfig,
        shards: usize,
        tuning: BrokerTuning,
    ) -> Self {
        let shards = shards.max(1);
        let config = ConfigServer::new(worker_config);
        let workers = (1..=initial_workers as u64)
            .map(|id| {
                Arc::new(Self::boot_worker(
                    id,
                    &device,
                    &config.get(),
                    cache.as_ref(),
                    shards,
                    &obs,
                ))
            })
            .collect::<Vec<_>>();
        // Initial placement alternates zones by id, so any fleet of
        // two or more straddles both availability zones on boot.
        let meta = workers
            .iter()
            .map(|w| {
                (
                    w.id(),
                    WorkerMeta {
                        zone: Zone::for_index(w.id()),
                        class: ReliabilityClass::OnDemand,
                        killed: false,
                    },
                )
            })
            .collect();
        ClusterV2 {
            broker: ShardedBroker::with_recorder(
                shards,
                tuning.visibility_timeout_ms,
                tuning.max_attempts,
                Arc::clone(&obs),
            ),
            config,
            store: BlobStore::new(),
            metrics_db: wb_db::ReplicatedTable::new(),
            device,
            cache,
            sched: ShardedScheduler::new(shards, sched, Arc::clone(&obs)),
            shards,
            obs,
            state: Mutex::new(FleetState {
                workers,
                meta,
                next_worker_id: initial_workers as u64 + 1,
                results: HashMap::new(),
                completed: 0,
                wait_rounds: Vec::new(),
                enqueue_round: HashMap::new(),
                round: 0,
            }),
            scaler: Mutex::new(Autoscaler::new(policy, initial_workers)),
            clock: AtomicU64::new(0),
        }
    }

    fn boot_worker(
        id: u64,
        device: &DeviceConfig,
        config: &WorkerConfig,
        cache: Option<&Arc<SubmissionCache>>,
        shards: usize,
        obs: &Arc<Recorder>,
    ) -> WorkerNode {
        WorkerNode::launch(
            id,
            &NodeConfig {
                device: device.clone(),
                worker: config.clone(),
                cache: cache.map(Arc::clone),
                shards,
                obs: Arc::clone(obs),
            },
        )
    }

    /// Fleet size.
    pub fn fleet_size(&self) -> usize {
        self.state.lock().workers.len()
    }

    /// Control-plane lane count (broker lanes == scheduler shards).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Snapshot the cluster-wide submission-cache counters (`None`
    /// when the cluster was booted uncached).
    pub fn cache_metrics(&self) -> Option<CacheMetrics> {
        self.cache.as_ref().map(|c| c.metrics())
    }

    /// Jobs completed.
    pub fn completed(&self) -> u64 {
        self.state.lock().completed
    }

    /// Jobs waiting platform-wide: the scheduler's per-course backlogs
    /// plus everything visible in the broker to an all-capable worker.
    pub fn queue_depth(&self, now_ms: u64) -> usize {
        self.sched.total_backlog() + self.broker.depth(now_ms)
    }

    /// Per-course scheduler backlogs, for the dashboard.
    pub fn sched_snapshot(&self) -> SchedSnapshot {
        self.sched.snapshot()
    }

    /// Jobs delivered to workers and not yet acknowledged.
    pub fn in_flight(&self, now_ms: u64) -> usize {
        self.broker.in_flight(now_ms)
    }

    /// Number of recorded queueing-delay samples. Every completed job
    /// contributes exactly one sample: the baseline is written before
    /// the job becomes visible to any worker.
    pub fn wait_samples(&self) -> usize {
        self.state.lock().wait_rounds.len()
    }

    /// Broker counters for the operations dashboard (§VI-A).
    pub fn broker_metrics(&self) -> wb_queue::BrokerMetrics {
        self.broker.metrics()
    }

    /// Mean queueing delay in pump rounds.
    pub fn mean_wait_rounds(&self) -> f64 {
        let g = self.state.lock();
        if g.wait_rounds.is_empty() {
            return 0.0;
        }
        g.wait_rounds.iter().sum::<u64>() as f64 / g.wait_rounds.len() as f64
    }

    /// Handle on a worker (fault injection).
    pub fn worker(&self, idx: usize) -> Option<Arc<WorkerNode>> {
        self.state.lock().workers.get(idx).cloned()
    }

    /// Fail over the broker to its standby zone. Every job still
    /// waiting (enqueued but not yet completed) gets a `Failover`
    /// annotation on its span — the operator-visible trace of which
    /// submissions lived through the zone switch.
    pub fn broker_failover(&self, now_ms: u64) {
        {
            let g = self.state.lock();
            for &job_id in g.enqueue_round.keys() {
                self.obs.annotate(job_id, Annotation::Failover, now_ms);
            }
        }
        self.broker.failover();
    }

    /// Offer a job for admission. Admitted jobs enter the fair-share
    /// scheduler (possibly downgraded to compile-only in the brown-out
    /// band) and are released to the broker by subsequent pumps; shed
    /// jobs return [`WbError::Overloaded`] with a finite retry hint.
    ///
    /// The latency baseline and the admission decision are one atomic
    /// step: the state lock is held across the scheduler offer, so an
    /// admitted job's `wait_rounds` baseline exists before any
    /// concurrent pump can merge its completion (`merge_outcomes`
    /// serializes on the same lock), and a shed job never touches
    /// `enqueue_round` at all. The earlier insert-then-rollback shape
    /// dropped the lock between the two, leaving a window where a
    /// concurrent `broker_failover` annotated spans of jobs that had
    /// already been refused.
    pub fn submit(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        self.clock.fetch_max(now_ms, Ordering::Relaxed);
        let job_id = req.job_id;
        let course = req.spec.course.clone();
        let class = if req.action == JobAction::FullGrade {
            GradeClass::Full
        } else {
            GradeClass::Light
        };
        let mut g = self.state.lock();
        let round = g.round;
        match self.sched.offer(&course, job_id, req, class, now_ms, |r| {
            r.action = JobAction::CompileOnly;
        }) {
            Admission::Admitted { .. } => {
                g.enqueue_round.insert(job_id, round);
                drop(g);
                self.obs.phase(job_id, JobPhase::Queued, now_ms);
                Ok(job_id)
            }
            Admission::Shed { retry_after_s } => {
                drop(g);
                self.obs.phase(job_id, JobPhase::Failed, now_ms);
                Err(WbError::Overloaded { retry_after_s })
            }
        }
    }

    /// Enqueue a job unconditionally; returns its platform job id.
    ///
    /// Thin wrapper over [`ClusterV2::submit`] for callers that size
    /// their own load (tests, benches). Panics if admission control is
    /// configured tight enough to shed — such callers should use
    /// `submit` and handle [`WbError::Overloaded`].
    pub fn enqueue(&self, req: JobRequest, now_ms: u64) -> u64 {
        self.submit(req, now_ms)
            .expect("enqueue on a cluster with admission control enabled; use submit")
    }

    /// One scheduler round: every live worker syncs config and polls
    /// once — **concurrently**, one scoped thread per worker — then the
    /// autoscaler adjusts the fleet. Returns the number of jobs
    /// completed this round.
    ///
    /// Concurrency contract: no cluster lock is held while a worker
    /// executes a job. The fleet is snapshotted under the state lock,
    /// each worker runs config-sync / health-beat / poll on its own
    /// thread against its own interior locks (and the broker's), and
    /// completion bookkeeping is merged back under the state lock only
    /// after every thread has joined. Fleet throughput therefore scales
    /// with fleet size up to the host's core count.
    pub fn pump(&self, now_ms: u64) -> usize {
        self.clock.fetch_max(now_ms, Ordering::Relaxed);
        // Workers in a partitioned zone are unreachable: they drop out
        // of the round (no config sync, no health beat, no poll) but
        // keep their fleet index, so lane pinning is stable across the
        // cut and heal.
        let cut = self.broker.partitioned_zone().map(Zone::from_broker);
        let (workers, round) = {
            let mut g = self.state.lock();
            g.round += 1;
            let reachable: Vec<(usize, Arc<WorkerNode>)> = g
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| cut.is_none() || g.meta.get(&w.id()).map(|m| m.zone) != cut)
                .map(|(i, w)| (i, Arc::clone(w)))
                .collect();
            (reachable, g.round)
        };
        // Release one fleet-sized batch from the fair-share scheduler
        // into the broker, lane by lane: each shard drains its own
        // slice of the fleet's capacity (stealing from loaded siblings
        // when its backlog is short) into the matching broker lane.
        // The lane walk is rotated by round so leftover quota from the
        // `fleet % shards` remainder doesn't always favour lane 0, and
        // every shard's aging clock ticks even at quota zero.
        let n = self.shards;
        let fleet = workers.len();
        for k in 0..n {
            let lane = (round as usize + k) % n;
            let quota = fleet / n + usize::from(k < fleet % n);
            for (_, req) in self.sched.drain_stealing(lane, quota, now_ms) {
                let tags = req.spec.tags.to_wire();
                self.broker.enqueue_to(lane, req, tags, now_ms);
            }
        }
        // A fleet of one is walked inline: there is nothing to overlap,
        // so the round spawns no thread.
        let outcomes: Vec<JobOutcome> = if workers.len() <= 1 {
            workers
                .iter()
                .filter_map(|(i, w)| self.pump_worker(*i, w, now_ms))
                .collect()
        } else {
            // One `std::thread::scope` thread per live worker, exactly
            // as `minicuda::device::launch` runs blocks over SM threads
            // (a panicking worker propagates at scope exit). Each thread
            // writes into its own pre-sized slot, so no lock guards the
            // results and no thread ever blocks on a sibling.
            let mut slots: Vec<Option<JobOutcome>> = Vec::new();
            slots.resize_with(workers.len(), || None);
            std::thread::scope(|s| {
                for ((i, w), slot) in workers.iter().zip(slots.iter_mut()) {
                    s.spawn(move || {
                        *slot = self.pump_worker(*i, w, now_ms);
                    });
                }
            });
            slots.into_iter().flatten().collect()
        };
        let done = outcomes.len();
        self.merge_outcomes(outcomes);
        self.autoscale(now_ms);
        done
    }

    /// One worker's share of a round. Runs on the worker's own thread
    /// under the concurrent pump; touches only the worker's interior
    /// state, the config service, the metrics database, and the
    /// broker — never the cluster state lock.
    fn pump_worker(&self, idx: usize, w: &WorkerNode, now_ms: u64) -> Option<JobOutcome> {
        w.sync_config(&self.config);
        // Persist the worker's health beat to the replicated metrics
        // database (crashed workers emit nothing, which is exactly how
        // the dashboard notices them going quiet).
        if let Some(beat) = w.health(now_ms) {
            self.obs.bump(Counter::HealthBeats);
            let _ = self.metrics_db.insert(&HealthRecord {
                worker_id: beat.worker_id,
                at_ms: beat.at_ms,
                jobs_done: beat.jobs_done,
                restarts: beat.restarts,
            });
        }
        // The worker polls its pinned lane (stealing from siblings when
        // the lane is dry); each lane is a mirror, so the ack reaches
        // both zones and a failover cannot re-run completed jobs.
        w.poll_once(&self.broker.lane(idx % self.shards), now_ms)
    }

    /// Post-join completion bookkeeping, under the state lock but
    /// strictly after all job execution finished.
    fn merge_outcomes(&self, outcomes: Vec<JobOutcome>) {
        if outcomes.is_empty() {
            return;
        }
        let mut g = self.state.lock();
        let round = g.round;
        for outcome in outcomes {
            g.completed += 1;
            if let Some(at) = g.enqueue_round.remove(&outcome.job_id) {
                let wait = round.saturating_sub(at);
                self.obs.observe(Timer::QueueWaitRounds, wait);
                g.wait_rounds.push(wait);
            }
            g.results.insert(outcome.job_id, outcome);
        }
    }

    fn autoscale(&self, now_ms: u64) {
        // Decision and application share one critical section: the
        // fleet size the policy sees is the fleet the decision is
        // applied to. The earlier shape computed `desired` from a
        // snapshot, dropped the lock, and reacquired it to act — two
        // racing autoscales could then each apply a decision sized for
        // a fleet the other had already changed, overshooting the
        // policy bounds.
        let mut g = self.state.lock();
        let metrics = FleetMetrics {
            queue_depth: self.broker.depth(now_ms),
            sched_backlog: self.sched.total_backlog(),
            max_course_backlog: self.sched.max_course_backlog(),
            fleet_size: g.workers.len(),
            now_ms,
        };
        let target = self.scaler.lock().desired_mix(&metrics);
        self.obs.autoscale(g.workers.len(), target.total(), now_ms);
        self.apply_target(&mut g, target);
    }

    /// Grow and shrink the fleet toward `target`. Killed workers keep
    /// their roster slot (and count toward the fleet size) until
    /// revived or scaled in, so a chaos campaign's fleet doesn't
    /// silently regrow behind its back. Growth fills the on-demand
    /// deficit before buying spot; scale-in removes alive workers
    /// newest-first, spot before on-demand — and is exact: `target`
    /// already respects the policy floor, so no extra `> 1` clamp (a
    /// hardcoded floor of one both violated `Reactive { min }` and
    /// made the scaled-to-zero guard in `dispatch` unreachable).
    fn apply_target(&self, g: &mut FleetState, target: FleetTarget) {
        let of_class = |g: &FleetState, class: ReliabilityClass| {
            g.workers
                .iter()
                .filter(|w| g.meta.get(&w.id()).is_some_and(|m| m.class == class))
                .count()
        };
        while g.workers.len() < target.total() {
            let class = if of_class(g, ReliabilityClass::OnDemand) < target.on_demand {
                ReliabilityClass::OnDemand
            } else {
                ReliabilityClass::Spot
            };
            let zone = Zone::for_index(g.next_worker_id);
            self.spawn_locked(
                g,
                WorkerDesc {
                    zone,
                    capabilities: None,
                    reliability_class: class,
                },
            );
        }
        while g.workers.len() > target.total() {
            let removable = |class| {
                g.workers.iter().rposition(|w| {
                    g.meta
                        .get(&w.id())
                        .is_some_and(|m| m.class == class && !m.killed)
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

    /// Boot a worker into the fleet under an already-held state lock —
    /// the one spawn path shared by the autoscaler and
    /// [`FleetControl::spawn_worker`], so the critical-section
    /// invariant above covers both.
    fn spawn_locked(&self, g: &mut FleetState, desc: WorkerDesc) -> u64 {
        let id = g.next_worker_id;
        g.next_worker_id += 1;
        let mut config = self.config.get();
        if let Some(caps) = desc.capabilities {
            // Same version as the server's: the override sticks until
            // the next fleet-wide publish bumps it.
            config.capabilities = caps;
        }
        // Spawned workers join the same cluster-wide cache as the
        // initial fleet.
        g.workers.push(Arc::new(Self::boot_worker(
            id,
            &self.device,
            &config,
            self.cache.as_ref(),
            self.shards,
            &self.obs,
        )));
        g.meta.insert(
            id,
            WorkerMeta {
                zone: desc.zone,
                class: desc.reliability_class,
                killed: false,
            },
        );
        id
    }

    /// Take a completed job's result.
    pub fn take_result(&self, job_id: u64) -> Option<JobOutcome> {
        self.state.lock().results.remove(&job_id)
    }

    /// Aggregate metrics snapshot from the shared recorder — counters,
    /// latency percentiles, recent events. Empty when the cluster was
    /// booted without tracing.
    pub fn metrics_snapshot(&self) -> wb_obs::MetricsSnapshot {
        self.obs.snapshot()
    }

    /// A job's lifecycle span (traced clusters only).
    pub fn span(&self, job_id: u64) -> Option<wb_obs::SpanView> {
        self.obs.span(job_id)
    }

    /// Every tracked span (traced clusters only).
    pub fn spans(&self) -> Vec<wb_obs::SpanView> {
        self.obs.spans()
    }
}

impl JobDispatcher for ClusterV2 {
    fn dispatch(&self, req: JobRequest, now_ms: u64) -> Result<JobOutcome, WbError> {
        let job_id = req.job_id;
        self.submit(req, now_ms)?;
        for round in 0..10_000u64 {
            self.pump(now_ms + round);
            if let Some(out) = self.take_result(job_id) {
                return Ok(out);
            }
            if self.queue_depth(now_ms + round) > 0 && self.fleet_size() == 0 {
                self.obs.phase(job_id, JobPhase::Failed, now_ms + round);
                return Err(WbError::infra("fleet scaled to zero with work queued"));
            }
        }
        self.obs.phase(job_id, JobPhase::Failed, now_ms + 10_000);
        Err(WbError::infra("job did not complete (no capable worker?)"))
    }

    // The queued path maps straight onto the cluster's native
    // admission/pump/result surface — this is how the semester replay
    // drives a shared cluster behind a `WebGpuServer`.

    fn submit_queued(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        self.submit(req, now_ms)
    }

    fn poll_queued(&self, job_id: u64) -> Option<JobOutcome> {
        self.take_result(job_id)
    }

    fn advance(&self, now_ms: u64) -> usize {
        self.pump(now_ms)
    }
}

impl FleetControl for ClusterV2 {
    fn spawn_worker(&self, desc: WorkerDesc) -> u64 {
        let mut g = self.state.lock();
        self.spawn_locked(&mut g, desc)
    }

    fn kill_worker(&self, id: u64) -> bool {
        let mut g = self.state.lock();
        let Some(w) = g.workers.iter().find(|w| w.id() == id).cloned() else {
            return false;
        };
        let Some(m) = g.meta.get_mut(&id) else {
            return false;
        };
        if m.killed || w.is_crashed() {
            return false;
        }
        m.killed = true;
        // The pull architecture's kill is a preemption: the node goes
        // dark at its next poll, taking any matching delivery with it;
        // the visibility timeout reclaims the job.
        w.preempt();
        true
    }

    fn revive_worker(&self, id: u64) -> bool {
        let mut g = self.state.lock();
        let Some(w) = g.workers.iter().find(|w| w.id() == id).cloned() else {
            return false;
        };
        let Some(m) = g.meta.get_mut(&id) else {
            return false;
        };
        if !m.killed && !w.is_crashed() {
            return false;
        }
        m.killed = false;
        w.recover();
        true
    }

    fn partition_zone(&self, zone: Zone) -> bool {
        let bz = zone.broker_zone();
        // Cutting the zone the broker is serving from forces a
        // failover; mark every pending span the same way
        // [`ClusterV2::broker_failover`] does, stamped with the
        // latest virtual time the cluster has seen.
        if self.broker.partitioned_zone().is_none() && self.broker.active_zone() == bz {
            let now = self.clock.load(Ordering::Relaxed);
            let g = self.state.lock();
            for &job_id in g.enqueue_round.keys() {
                self.obs.annotate(job_id, Annotation::Failover, now);
            }
        }
        self.broker.partition(bz)
    }

    fn heal_zone(&self, zone: Zone) -> bool {
        self.broker.heal(zone.broker_zone())
    }

    fn describe_fleet(&self) -> FleetView {
        let g = self.state.lock();
        let workers = g
            .workers
            .iter()
            .map(|w| {
                let m = g.meta.get(&w.id());
                WorkerInfo {
                    id: w.id(),
                    zone: m.map_or(Zone::Primary, |m| m.zone),
                    reliability_class: m.map_or(ReliabilityClass::OnDemand, |m| m.class),
                    capabilities: w.capabilities(),
                    alive: !w.is_crashed() && m.is_none_or(|m| !m.killed),
                    jobs_done: w.jobs_done(),
                }
            })
            .collect();
        FleetView {
            workers,
            partitioned: self.broker.partitioned_zone().map(Zone::from_broker),
        }
    }
}

impl ClusterV2 {
    /// Latest health record per worker, read from a fresh replica of
    /// the metrics database — the query the dashboard issues.
    pub fn latest_health(&self) -> Vec<HealthRecord> {
        let mut replica = wb_db::replica::Replica::new();
        let _ = replica.catch_up(&self.metrics_db);
        let mut latest: std::collections::HashMap<u64, HealthRecord> =
            std::collections::HashMap::new();
        for (_, rec) in replica.table().scan() {
            let slot = latest.entry(rec.worker_id).or_insert_with(|| rec.clone());
            if rec.at_ms >= slot.at_ms {
                *slot = rec;
            }
        }
        let mut out: Vec<HealthRecord> = latest.into_values().collect();
        out.sort_by_key(|r| r.worker_id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libwb::Dataset;
    use wb_sandbox::SyscallWhitelist;
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
                inputs: vec![Dataset::Vector(vec![2.0])],
                expected: Dataset::Vector(vec![2.0]),
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
        // Twelve byte-identical submissions against a fleet of four
        // pumping concurrently: the cache must compile and grade once,
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
    fn killed_worker_strands_nothing_past_the_visibility_timeout() {
        // Kill through FleetControl mid-load: the preempted worker
        // takes one delivery dark; the timeout reclaims it and the
        // survivor finishes every job exactly once.
        let c = crate::ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .shards(1)
            .broker_tuning(5, 10)
            .build_v2();
        for j in 0..4 {
            c.enqueue(echo(j), 0);
        }
        assert!(c.kill_worker(1), "worker 1 exists and is alive");
        assert!(!c.kill_worker(1), "double kill reports false");
        assert!(!c.kill_worker(99), "unknown id reports false");
        let mut done = 0;
        for r in 0..30 {
            done += c.pump(r);
        }
        assert_eq!(done, 4, "every job completed despite the kill");
        assert_eq!(c.describe_fleet().alive(), 1);
        assert!(c.revive_worker(1));
        assert!(!c.revive_worker(1), "double revive reports false");
        assert_eq!(c.describe_fleet().alive(), 2);
    }

    #[test]
    fn spawned_worker_with_capability_override_takes_tagged_jobs() {
        let c = crate::ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(1)
            .shards(1)
            .policy(AutoscalePolicy::Static(2))
            .build_v2();
        let id = c.spawn_worker(
            crate::fleet::WorkerDesc::spot(crate::fleet::Zone::Standby)
                .with_capabilities(["cuda", "mpi"].into()),
        );
        assert_eq!(id, 2);
        let view = c.describe_fleet();
        assert_eq!(view.total(), 2);
        assert_eq!(view.alive_of_class(ReliabilityClass::Spot), 1);
        assert!(view.workers[1].capabilities.contains("mpi"));
        let mut req = echo(7);
        req.spec.tags = ["mpi".to_string()].into_iter().collect();
        req.spec.whitelist = SyscallWhitelist::mpi_profile();
        c.enqueue(req, 0);
        let mut done = 0;
        for r in 0..10 {
            done += c.pump(r);
        }
        assert_eq!(done, 1, "only the spawned worker could take it");
        assert_eq!(c.fleet_size(), 2, "static target keeps both");
    }

    #[test]
    fn partitioned_zone_workers_sit_out_the_round() {
        let c = crate::ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .shards(1)
            .build_v2();
        // Worker 1 is primary, worker 2 standby. Cut the standby: only
        // the primary worker pumps; its beat arrives, the standby's
        // does not.
        assert!(c.partition_zone(crate::fleet::Zone::Standby));
        assert_eq!(
            c.describe_fleet().partitioned,
            Some(crate::fleet::Zone::Standby)
        );
        c.enqueue(echo(1), 0);
        c.enqueue(echo(2), 0);
        let mut done = 0;
        for r in 0..10 {
            done += c.pump(r);
        }
        assert_eq!(done, 2, "the primary worker drains the queue alone");
        assert_eq!(c.worker(1).unwrap().jobs_done(), 0, "standby sat out");
        assert!(c.heal_zone(crate::fleet::Zone::Standby));
        assert!(!c.heal_zone(crate::fleet::Zone::Standby), "already healed");
        c.enqueue(echo(3), 20);
        for r in 20..30 {
            done += c.pump(r);
        }
        assert_eq!(done, 3);
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
    fn health_beats_flow_into_the_replicated_db() {
        let c = ClusterV2::new(2, DeviceConfig::test_small(), AutoscalePolicy::Static(2));
        c.enqueue(
            JobRequest {
                job_id: 1,
                user: "a".into(),
                source: "int main() { return 0; }".into(),
                spec: LabSpec::cuda_test("noop"),
                datasets: vec![DatasetCase {
                    name: "d0".into(),
                    inputs: vec![],
                    expected: Dataset::Scalar(0.0),
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
