//! The original WebGPU architecture (Fig. 2): web server ¬, database
//! servers ­, and workers ® — the web server pushes each job to a
//! chosen worker and evicts workers whose health checks go quiet.

use crate::fleet::{FleetControl, FleetView, ReliabilityClass, WorkerDesc, WorkerInfo, Zone};
use minicuda::DeviceConfig;
use std::collections::HashMap;
use std::sync::Arc;
use wb_cache::{CacheConfig, CacheMetrics};
use wb_obs::sync::Mutex;
use wb_obs::{Annotation, Counter, JobPhase, Recorder};
use wb_sched::{Admission, GradeClass, SchedConfig, SchedSnapshot, ShardedScheduler};
use wb_server::{JobDispatcher, WbError};
use wb_worker::{
    new_submission_cache, JobAction, JobOutcome, JobRequest, NodeConfig, SubmissionCache,
    WorkerConfig, WorkerNode,
};

fn grade_class(req: &JobRequest) -> GradeClass {
    if req.action == JobAction::FullGrade {
        GradeClass::Full
    } else {
        GradeClass::Light
    }
}

/// Eviction threshold: a worker missing health checks for this many
/// virtual ms is dropped from the pool (§III-C).
pub const HEALTH_TIMEOUT_MS: u64 = 30_000;

struct PoolState {
    workers: Vec<Arc<WorkerNode>>,
    /// Reliability class per worker id (v1 predates multi-AZ: every
    /// node lives in the primary zone, but spot vs on-demand still
    /// matters to the cost meter and the chaos harness).
    class: HashMap<u64, ReliabilityClass>,
    last_beat: HashMap<u64, u64>,
    evicted: Vec<u64>,
    next_worker_id: u64,
    rr_cursor: usize,
    dispatch_failures: u64,
    /// Completed outcomes for jobs that entered through the pumped
    /// [`crate::Platform`] path.
    results: HashMap<u64, JobOutcome>,
    completed: u64,
}

/// The v1 push cluster.
pub struct ClusterV1 {
    device: DeviceConfig,
    config: WorkerConfig,
    /// One submission cache shared by every worker — including those
    /// added later — so duplicate submissions dedupe cluster-wide.
    cache: Arc<SubmissionCache>,
    /// Whether workers actually consult the shared cache (an uncached
    /// build keeps the cache object for metrics, but boots workers
    /// without it).
    cached: bool,
    /// Fair-share scheduler, one lane per control-plane shard:
    /// admission control for every submission path, and dequeue order
    /// for pumped work. Waves rotate their anchor shard and
    /// steal from loaded siblings, so a single hot course never
    /// serializes the whole pool behind one lane's lock.
    sched: ShardedScheduler<JobRequest>,
    /// Control-plane lane count.
    shards: usize,
    /// Cluster-wide recorder shared with every worker (noop unless the
    /// cluster was built traced).
    obs: Arc<Recorder>,
    state: Mutex<PoolState>,
}

impl ClusterV1 {
    /// Boot a cluster with `n` workers.
    ///
    /// v1 had no job routing, so — per §VI-A — every node must be
    /// "provisioned for the highest common multiple of the system
    /// requirements of the labs": the full image with every toolchain.
    /// For anything beyond the defaults, use
    /// [`ClusterBuilder`](crate::ClusterBuilder).
    pub fn new(n: usize, device: DeviceConfig) -> Self {
        Self::new_inner(
            n,
            device,
            Self::full_image_config(),
            Some(CacheConfig::default()),
            Arc::new(Recorder::noop()),
            SchedConfig::default(),
            wb_worker::default_shards(),
        )
    }

    /// The image v1 nodes must carry: every toolchain (§VI-A).
    pub(crate) fn full_image_config() -> WorkerConfig {
        WorkerConfig {
            image: "webgpu/full".to_string(),
            capabilities: ["cuda", "opencl", "openacc", "mpi", "multi-gpu"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ..WorkerConfig::default()
        }
    }

    /// The one real constructor — everything else (including
    /// [`ClusterBuilder`](crate::ClusterBuilder)) funnels here.
    /// `cache_cfg: None` boots workers without the shared cache (the
    /// uncached baseline); the cluster still keeps a cache object so
    /// [`cache_metrics`](Self::cache_metrics) stays callable (all
    /// zeros).
    pub(crate) fn new_inner(
        n: usize,
        device: DeviceConfig,
        config: WorkerConfig,
        cache_cfg: Option<CacheConfig>,
        obs: Arc<Recorder>,
        sched: SchedConfig,
        shards: usize,
    ) -> Self {
        let shards = shards.max(1);
        let cached = cache_cfg.is_some();
        let cache = new_submission_cache(cache_cfg.unwrap_or_default());
        let worker_cache = cached.then(|| Arc::clone(&cache));
        let workers = (1..=n as u64)
            .map(|id| {
                Arc::new(WorkerNode::launch(
                    id,
                    &NodeConfig {
                        device: device.clone(),
                        worker: config.clone(),
                        cache: worker_cache.clone(),
                        shards,
                        obs: Arc::clone(&obs),
                    },
                ))
            })
            .collect::<Vec<_>>();
        let last_beat = workers.iter().map(|w| (w.id(), 0)).collect();
        let class = workers
            .iter()
            .map(|w| (w.id(), ReliabilityClass::OnDemand))
            .collect();
        ClusterV1 {
            device,
            config,
            cache,
            cached,
            sched: ShardedScheduler::new(shards, sched, Arc::clone(&obs)),
            shards,
            obs,
            state: Mutex::new(PoolState {
                workers,
                class,
                last_beat,
                evicted: Vec::new(),
                next_worker_id: n as u64 + 1,
                rr_cursor: 0,
                dispatch_failures: 0,
                results: HashMap::new(),
                completed: 0,
            }),
        }
    }

    /// Number of workers currently in the pool.
    pub fn pool_size(&self) -> usize {
        self.state.lock().workers.len()
    }

    /// Control-plane lane count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Worker ids evicted so far.
    pub fn evicted(&self) -> Vec<u64> {
        self.state.lock().evicted.clone()
    }

    /// Failed dispatch attempts (crashed worker chosen before eviction).
    pub fn dispatch_failures(&self) -> u64 {
        self.state.lock().dispatch_failures
    }

    /// Handle on a worker (fault injection in tests).
    pub fn worker(&self, idx: usize) -> Option<Arc<WorkerNode>> {
        self.state.lock().workers.get(idx).cloned()
    }

    /// Add a worker to the pool (manual pre-deadline scaling, §III).
    /// New workers join the cluster-wide submission cache.
    pub fn add_worker(&self, now_ms: u64) -> u64 {
        let mut g = self.state.lock();
        let id = g.next_worker_id;
        g.next_worker_id += 1;
        let w = Arc::new(WorkerNode::launch(
            id,
            &NodeConfig {
                device: self.device.clone(),
                worker: self.config.clone(),
                cache: self.cached.then(|| Arc::clone(&self.cache)),
                shards: self.shards,
                obs: Arc::clone(&self.obs),
            },
        ));
        g.last_beat.insert(id, now_ms);
        g.class.insert(id, ReliabilityClass::OnDemand);
        g.workers.push(w);
        id
    }

    /// Snapshot the cluster-wide submission-cache counters.
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.cache.metrics()
    }

    /// [`cache_metrics`](Self::cache_metrics) with v2's `Option`
    /// semantics: `None` for an uncached build instead of zeroed
    /// gauges, so [`Platform`](crate::Platform) reads identically on
    /// both architectures.
    pub fn cache_metrics_opt(&self) -> Option<CacheMetrics> {
        self.cached.then(|| self.cache.metrics())
    }

    /// Remove the most recently added worker (scale-in).
    pub fn remove_worker(&self) -> Option<u64> {
        let mut g = self.state.lock();
        let w = g.workers.pop()?;
        g.last_beat.remove(&w.id());
        g.class.remove(&w.id());
        Some(w.id())
    }

    /// Collect health checks and evict silent workers. Returns the ids
    /// evicted this round.
    pub fn health_sweep(&self, now_ms: u64) -> Vec<u64> {
        let mut g = self.state.lock();
        // Record fresh beats.
        let beats: Vec<(u64, u64)> = g
            .workers
            .iter()
            .filter_map(|w| w.health(now_ms).map(|b| (b.worker_id, b.at_ms)))
            .collect();
        for (id, at) in beats {
            g.last_beat.insert(id, at);
        }
        // Evict the silent.
        let mut evicted_now = Vec::new();
        let last_beat = g.last_beat.clone();
        g.workers.retain(|w| {
            let last = last_beat.get(&w.id()).copied().unwrap_or(0);
            let alive = now_ms.saturating_sub(last) < HEALTH_TIMEOUT_MS;
            if !alive {
                evicted_now.push(w.id());
            }
            alive
        });
        for id in &evicted_now {
            self.obs.bump(Counter::WorkerEvictions);
            g.evicted.push(*id);
            g.last_beat.remove(id);
            g.class.remove(id);
        }
        evicted_now
    }

    /// Push a job to a worker: admission control first (a shed rush
    /// returns [`WbError::Overloaded`] instead of melting the pool),
    /// then round-robin placement skipping dead nodes; a failed
    /// submission marks a dispatch failure and tries the next worker
    /// (the retry behaviour students experienced as a slow attempt
    /// rather than an error page).
    pub fn submit(&self, req: &JobRequest, now_ms: u64) -> Result<JobOutcome, WbError> {
        match self
            .sched
            .admit(&req.spec.course, req.job_id, grade_class(req), now_ms)
        {
            Admission::Shed { retry_after_s } => {
                self.obs.phase(req.job_id, JobPhase::Failed, now_ms);
                Err(WbError::Overloaded { retry_after_s })
            }
            Admission::Admitted { browned_out } => {
                // The span opens the moment the web tier hands the job
                // over — queue wait is zero in a push cluster, but the
                // opener keeps v1 and v2 spans shape-compatible.
                self.obs.phase(req.job_id, JobPhase::Queued, now_ms);
                if browned_out {
                    let mut lighter = req.clone();
                    lighter.action = JobAction::CompileOnly;
                    self.execute(&lighter, now_ms)
                } else {
                    self.execute(req, now_ms)
                }
            }
        }
    }

    /// Run one admitted job on the pool: round-robin over live workers
    /// with dead-node retry.
    fn execute(&self, req: &JobRequest, now_ms: u64) -> Result<JobOutcome, WbError> {
        // Snapshot candidates to avoid holding the lock during a job.
        let candidates: Vec<Arc<WorkerNode>> = {
            let mut g = self.state.lock();
            if g.workers.is_empty() {
                self.obs.phase(req.job_id, JobPhase::Failed, now_ms);
                return Err(WbError::infra("no workers in the pool"));
            }
            let n = g.workers.len();
            let start = g.rr_cursor % n;
            g.rr_cursor = (g.rr_cursor + 1) % n.max(1);
            (0..n)
                .map(|k| Arc::clone(&g.workers[(start + k) % n]))
                .collect()
        };
        for w in candidates {
            match w.submit(req, now_ms) {
                Some(outcome) => return Ok(outcome),
                None => {
                    // The chosen node was down: account the failure and
                    // mark the span before trying the next candidate.
                    self.obs.annotate(req.job_id, Annotation::Retry, now_ms);
                    self.state.lock().dispatch_failures += 1;
                }
            }
        }
        self.obs.phase(req.job_id, JobPhase::Failed, now_ms);
        Err(WbError::infra("every worker in the pool is unreachable"))
    }

    /// Queue a job for asynchronous execution through admission
    /// control: the fair-share scheduler holds it until the next
    /// [`pump`](Self::pump), and its outcome lands in the results map
    /// ([`take_result`](Self::take_result)).
    pub fn enqueue(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        let job_id = req.job_id;
        let course = req.spec.course.clone();
        let class = grade_class(&req);
        let admission = self.sched.offer(&course, job_id, req, class, now_ms, |r| {
            r.action = JobAction::CompileOnly;
        });
        match admission {
            Admission::Admitted { .. } => {
                self.obs.phase(job_id, JobPhase::Queued, now_ms);
                Ok(job_id)
            }
            Admission::Shed { retry_after_s } => {
                self.obs.phase(job_id, JobPhase::Failed, now_ms);
                Err(WbError::Overloaded { retry_after_s })
            }
        }
    }

    /// Execute one fair-share wave of queued jobs. Returns how many
    /// jobs ran this round (successes land in the results map).
    pub fn pump(&self, now_ms: u64) -> usize {
        self.drain_wave(now_ms)
    }

    /// Take a completed job's outcome off the cluster (pumped path).
    pub fn take_result(&self, job_id: u64) -> Option<JobOutcome> {
        self.state.lock().results.remove(&job_id)
    }

    /// Jobs completed through the pumped path.
    pub fn completed(&self) -> u64 {
        self.state.lock().completed
    }

    /// Jobs the fair-share scheduler is still holding.
    pub fn queue_depth(&self) -> usize {
        self.sched.total_backlog()
    }

    /// Per-course scheduler backlog view.
    pub fn sched_snapshot(&self) -> SchedSnapshot {
        self.sched.snapshot()
    }

    /// Release one fair-share wave (at most one job per pool worker)
    /// from the scheduler, execute it over parallel lanes, and file the
    /// outcomes in the results map. Returns the count of jobs executed.
    fn drain_wave(&self, now_ms: u64) -> usize {
        let width = self.pool_size().max(1);
        let wave = self.sched.drain_rotating(width, now_ms);
        if wave.is_empty() {
            return 0;
        }
        let mut cells: Vec<Option<Result<JobOutcome, WbError>>> = Vec::new();
        cells.resize_with(wave.len(), || None);
        std::thread::scope(|s| {
            for ((_, req), cell) in wave.iter().zip(cells.iter_mut()) {
                s.spawn(move || {
                    *cell = Some(self.execute(req, now_ms));
                });
            }
        });
        let executed = cells.len();
        for out in cells
            .into_iter()
            .filter_map(|c| c.expect("lane fills its cell").ok())
        {
            let mut g = self.state.lock();
            g.results.insert(out.job_id, out);
            g.completed += 1;
        }
        executed
    }

    /// Current metrics snapshot from the cluster's recorder.
    pub fn metrics_snapshot(&self) -> wb_obs::MetricsSnapshot {
        self.obs.snapshot()
    }
}

impl FleetControl for ClusterV1 {
    fn spawn_worker(&self, desc: WorkerDesc) -> u64 {
        let mut g = self.state.lock();
        let id = g.next_worker_id;
        g.next_worker_id += 1;
        let mut config = self.config.clone();
        if let Some(caps) = desc.capabilities {
            config.capabilities = caps;
        }
        let w = Arc::new(WorkerNode::launch(
            id,
            &NodeConfig {
                device: self.device.clone(),
                worker: config,
                cache: self.cached.then(|| Arc::clone(&self.cache)),
                shards: self.shards,
                obs: Arc::clone(&self.obs),
            },
        ));
        // v1 is single-AZ: the zone in the descriptor is accepted but
        // every node lands in the primary zone's pool. The first
        // health sweep records the real beat.
        g.last_beat.insert(id, 0);
        g.class.insert(id, desc.reliability_class);
        g.workers.push(w);
        id
    }

    fn kill_worker(&self, id: u64) -> bool {
        let g = self.state.lock();
        let Some(w) = g.workers.iter().find(|w| w.id() == id) else {
            return false;
        };
        if w.is_crashed() {
            return false;
        }
        // The push architecture's kill is immediate: the node refuses
        // the next dispatch, and the health sweep eventually evicts it.
        w.crash();
        true
    }

    fn revive_worker(&self, id: u64) -> bool {
        let g = self.state.lock();
        let Some(w) = g.workers.iter().find(|w| w.id() == id) else {
            return false;
        };
        if !w.is_crashed() {
            return false;
        }
        w.recover();
        true
    }

    fn partition_zone(&self, _zone: Zone) -> bool {
        false // v1 predates multi-AZ: there is no zone to cut
    }

    fn heal_zone(&self, _zone: Zone) -> bool {
        false
    }

    fn describe_fleet(&self) -> FleetView {
        let g = self.state.lock();
        let workers = g
            .workers
            .iter()
            .map(|w| WorkerInfo {
                id: w.id(),
                zone: Zone::Primary,
                reliability_class: g
                    .class
                    .get(&w.id())
                    .copied()
                    .unwrap_or(ReliabilityClass::OnDemand),
                capabilities: w.capabilities(),
                alive: !w.is_crashed(),
                jobs_done: w.jobs_done(),
            })
            .collect();
        FleetView {
            workers,
            partitioned: None,
        }
    }
}

impl JobDispatcher for ClusterV1 {
    fn dispatch(&self, req: JobRequest, now_ms: u64) -> Result<JobOutcome, WbError> {
        self.submit(&req, now_ms)
    }

    fn submit_queued(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        self.enqueue(req, now_ms)
    }

    fn poll_queued(&self, job_id: u64) -> Option<JobOutcome> {
        self.take_result(job_id)
    }

    fn advance(&self, now_ms: u64) -> usize {
        self.pump(now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libwb::Dataset;
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
                inputs: vec![Dataset::Vector(vec![1.0])],
                expected: Dataset::Vector(vec![1.0]),
            }],
            action: JobAction::FullGrade,
        }
    }

    fn cluster(n: usize) -> ClusterV1 {
        ClusterV1::new(n, DeviceConfig::test_small())
    }

    #[test]
    fn jobs_round_robin_across_workers() {
        let c = cluster(3);
        for j in 0..6 {
            let out = c.submit(&echo(j), 0).unwrap();
            assert!(out.compiled());
        }
        for i in 0..3 {
            assert_eq!(c.worker(i).unwrap().jobs_done(), 2, "even spread");
        }
    }

    #[test]
    fn duplicate_submissions_hit_the_cluster_cache() {
        let c = cluster(3);
        for j in 0..6 {
            assert!(c.submit(&echo(j), 0).unwrap().compiled());
        }
        // Six identical sources spread round-robin over three workers:
        // one compile + one grade ran, the rest were cache hits — the
        // cache is cluster-wide, not per-node.
        let m = c.cache_metrics();
        assert_eq!(m.compile.misses, 1);
        assert_eq!(m.compile.hits, 5);
        assert_eq!(m.grade.misses, 1);
        assert_eq!(m.grade.hits, 5);
        assert!(m.total().hit_rate() > 0.8);
    }

    #[test]
    fn crashed_worker_is_skipped_with_retry() {
        let c = cluster(2);
        c.worker(0).unwrap().crash();
        for j in 0..4 {
            assert!(c.submit(&echo(j), 0).is_ok());
        }
        assert!(c.dispatch_failures() > 0, "the dead node was tried");
        assert_eq!(c.worker(1).unwrap().jobs_done(), 4);
    }

    #[test]
    fn all_dead_reports_error() {
        let c = cluster(2);
        c.worker(0).unwrap().crash();
        c.worker(1).unwrap().crash();
        assert!(c.submit(&echo(1), 0).is_err());
    }

    #[test]
    fn health_sweep_evicts_silent_workers() {
        let c = cluster(3);
        // t=0 everyone beats.
        assert!(c.health_sweep(0).is_empty());
        c.worker(1).unwrap().crash();
        // Within the timeout nothing is evicted.
        assert!(c.health_sweep(HEALTH_TIMEOUT_MS - 1).is_empty());
        // Past the timeout the crashed node goes.
        let evicted = c.health_sweep(HEALTH_TIMEOUT_MS + 1);
        assert_eq!(evicted.len(), 1);
        assert_eq!(c.pool_size(), 2);
        assert_eq!(c.evicted(), evicted);
    }

    #[test]
    fn recovered_worker_keeps_beating_until_evicted() {
        let c = cluster(2);
        c.worker(0).unwrap().crash();
        c.worker(0).unwrap().recover();
        // Recovery before the timeout: no eviction.
        assert!(c.health_sweep(HEALTH_TIMEOUT_MS + 1).is_empty());
        assert_eq!(c.pool_size(), 2);
    }

    #[test]
    fn scaling_in_and_out() {
        let c = cluster(1);
        let id = c.add_worker(0);
        assert_eq!(c.pool_size(), 2);
        assert_eq!(c.remove_worker(), Some(id));
        assert_eq!(c.pool_size(), 1);
    }

    #[test]
    fn empty_pool_rejects() {
        let c = cluster(1);
        c.remove_worker();
        assert!(c.submit(&echo(1), 0).is_err());
    }

    #[test]
    fn fleet_control_kill_and_revive_drive_the_push_pool() {
        let c = cluster(2);
        assert!(c.kill_worker(1));
        assert!(!c.kill_worker(1), "already dead");
        assert_eq!(c.describe_fleet().alive(), 1);
        for j in 0..4 {
            assert!(c.submit(&echo(j), 0).is_ok());
        }
        assert_eq!(c.worker(1).unwrap().jobs_done(), 4, "survivor took all");
        assert!(c.revive_worker(1));
        assert!(!c.revive_worker(1), "already alive");
        assert_eq!(c.describe_fleet().alive(), 2);
        // Single-AZ architecture: zone faults are a polite no.
        assert!(!c.partition_zone(Zone::Primary));
        assert!(!c.heal_zone(Zone::Primary));
        assert!(c.describe_fleet().partitioned.is_none());
    }

    #[test]
    fn spawned_worker_joins_the_pool_with_its_class() {
        let c = cluster(1);
        let id = c.spawn_worker(WorkerDesc::spot(Zone::Standby));
        assert_eq!(id, 2);
        let view = c.describe_fleet();
        assert_eq!(view.total(), 2);
        assert_eq!(view.alive_of_class(ReliabilityClass::Spot), 1);
        assert_eq!(
            view.workers[1].zone,
            Zone::Primary,
            "v1 is single-AZ regardless of the descriptor"
        );
        for j in 0..2 {
            assert!(c.submit(&echo(j), 0).is_ok());
        }
        assert_eq!(
            c.worker(1).unwrap().jobs_done(),
            1,
            "round-robin reached it"
        );
    }
}
