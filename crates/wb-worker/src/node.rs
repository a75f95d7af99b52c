//! The worker node: v1 push interface, v2 queue-polling driver,
//! health checks, container pool, and restart-on-config-change.

use crate::cache::SubmissionCache;
use crate::config::{ConfigServer, WorkerConfig};
use crate::job::{JobOutcome, JobRequest};
use crate::pipeline::{execute, RunCtx};
use minicuda::DeviceConfig;
use std::sync::Arc;
use wb_obs::sync::Mutex;
use wb_obs::{Annotation, JobPhase, Recorder};
use wb_queue::{CapabilitySet, ShardedBroker};
use wb_sandbox::{ContainerPool, Image};

/// A health check emitted periodically to the web server (v1) or kept
/// as the pull plane's latest beat for its worker (v2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthBeat {
    /// Reporting worker.
    pub worker_id: u64,
    /// Virtual ms at emission.
    pub at_ms: u64,
    /// Jobs completed so far.
    pub jobs_done: u64,
    /// Driver restarts so far.
    pub restarts: u64,
}

struct NodeState {
    config_version: u64,
    capabilities: CapabilitySet,
    pool: ContainerPool,
    jobs_done: u64,
    restarts: u64,
    /// When true the node stops heartbeating and refuses work
    /// (fault-injection switch).
    crashed: bool,
    /// When true the node vanishes at its *next* poll: it takes one
    /// delivery off the broker and goes dark without executing or
    /// acking it — the spot-instance preemption model, where the
    /// reclaim notice lands while a job is already in hand.
    preempting: bool,
    /// Accumulated virtual busy milliseconds (utilization metric).
    busy_ms: u64,
}

/// Everything a node needs to come up: device, worker configuration,
/// and the optional cluster-shared cache and recorder. One value
/// describes a whole fleet — clusters keep a `NodeConfig` and stamp out
/// workers with [`WorkerNode::launch`].
#[derive(Clone)]
pub struct NodeConfig {
    /// Simulated GPU the node drives.
    pub device: DeviceConfig,
    /// Remote worker configuration (image, capabilities, pool target).
    pub worker: WorkerConfig,
    /// Cluster-wide submission cache; `None` runs every job fresh
    /// (the pre-cache behaviour, kept as the bench baseline).
    pub cache: Option<Arc<SubmissionCache>>,
    /// Cluster-wide trace/metrics recorder (noop for untraced fleets).
    pub obs: Arc<Recorder>,
}

impl NodeConfig {
    /// A plain node: default worker config, no cache, noop recorder.
    pub fn new(device: DeviceConfig) -> Self {
        NodeConfig {
            device,
            worker: WorkerConfig::default(),
            cache: None,
            obs: Arc::new(Recorder::noop()),
        }
    }
}

/// One worker node with a simulated GPU. `device`, `cache` and `obs`
/// are as in the [`NodeConfig`] it launched from.
pub struct WorkerNode {
    id: u64,
    device: DeviceConfig,
    cache: Option<Arc<SubmissionCache>>,
    obs: Arc<Recorder>,
    state: Mutex<NodeState>,
}

impl WorkerNode {
    /// Boot a node from a [`NodeConfig`] — the one constructor, for
    /// cached, traced and plain nodes alike.
    pub fn launch(id: u64, cfg: &NodeConfig) -> Self {
        let config = &cfg.worker;
        WorkerNode {
            id,
            device: cfg.device.clone(),
            cache: cfg.cache.clone(),
            obs: Arc::clone(&cfg.obs),
            state: Mutex::new(NodeState {
                config_version: config.version,
                capabilities: config.capabilities.clone(),
                pool: ContainerPool::new(image_by_name(&config.image), config.pool_target),
                jobs_done: 0,
                restarts: 0,
                crashed: false,
                preempting: false,
                busy_ms: 0,
            }),
        }
    }

    /// Node id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Advertised capability tags.
    pub fn capabilities(&self) -> CapabilitySet {
        self.state.lock().capabilities.clone()
    }

    /// Jobs completed.
    pub fn jobs_done(&self) -> u64 {
        self.state.lock().jobs_done
    }

    /// Driver restarts (config changes).
    pub fn restarts(&self) -> u64 {
        self.state.lock().restarts
    }

    /// Accumulated busy virtual milliseconds.
    pub fn busy_ms(&self) -> u64 {
        self.state.lock().busy_ms
    }

    /// Simulate a crash: stops heartbeats and work.
    pub fn crash(&self) {
        self.state.lock().crashed = true;
    }

    /// Simulate a spot preemption: the node keeps beating until its
    /// next broker poll, where it takes a delivery (if one matches),
    /// crashes without executing or acking it, and leaves the job in
    /// flight for the visibility timeout to reclaim. The harshest
    /// churn case — kill-with-work-in-hand — distilled to a flag.
    pub fn preempt(&self) {
        self.state.lock().preempting = true;
    }

    /// Bring a crashed or preempted node back.
    pub fn recover(&self) {
        let mut g = self.state.lock();
        g.crashed = false;
        g.preempting = false;
    }

    /// True when the node is down.
    pub fn is_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Emit a health check (None while crashed — the web server evicts
    /// nodes whose beats stop arriving, §III-C).
    pub fn health(&self, now_ms: u64) -> Option<HealthBeat> {
        let g = self.state.lock();
        if g.crashed {
            return None;
        }
        Some(HealthBeat {
            worker_id: self.id,
            at_ms: now_ms,
            jobs_done: g.jobs_done,
            restarts: g.restarts,
        })
    }

    /// Watch the remote configuration; on a version change the driver
    /// restarts: capabilities and the container pool are rebuilt
    /// (§VI-B). Returns true when a restart happened.
    pub fn sync_config(&self, server: &ConfigServer) -> bool {
        let config = server.get();
        let mut g = self.state.lock();
        if config.version == g.config_version {
            return false;
        }
        g.config_version = config.version;
        g.capabilities = config.capabilities.clone();
        g.pool = ContainerPool::new(image_by_name(&config.image), config.pool_target);
        g.restarts += 1;
        true
    }

    /// v1 push interface: the web server calls this directly.
    /// Returns `None` when the node is down (the caller treats it as a
    /// dispatch failure and retries elsewhere).
    pub fn submit(&self, req: &JobRequest, now_ms: u64) -> Option<JobOutcome> {
        if self.is_crashed() {
            return None;
        }
        self.obs.phase(req.job_id, JobPhase::Dispatched, now_ms);
        Some(self.run(req, now_ms))
    }

    /// v2 pull interface: poll the broker once from lane `home`
    /// (stealing from the other lanes when it is dry); execute and ack a
    /// job if one matches this node's capabilities. The ack reaches
    /// both zones of the issuing lane, so a failover cannot re-run it.
    pub fn poll_once(
        &self,
        broker: &ShardedBroker<JobRequest>,
        home: usize,
        now_ms: u64,
    ) -> Option<JobOutcome> {
        let (caps, preempting) = {
            let g = self.state.lock();
            if g.crashed {
                return None;
            }
            (g.capabilities.clone(), g.preempting)
        };
        let delivery = broker.poll_from(home, &caps, now_ms);
        if preempting {
            // The node vanishes at this poll whether or not a job was
            // in hand. With a delivery taken, it goes dark without
            // executing, acking, or recording anything — the delivery
            // stays invisible until its timeout lapses, then redelivers
            // elsewhere with `attempts > 1`. The harshest churn case,
            // kill-with-work-in-hand, distilled to a flag.
            let mut g = self.state.lock();
            g.crashed = true;
            g.preempting = false;
            return None;
        }
        let delivery = delivery?;
        let job_id = delivery.payload.job_id;
        self.obs.phase(job_id, JobPhase::Dispatched, now_ms);
        if delivery.meta.attempts > 1 {
            // Visibility-timeout redelivery: this job already went out
            // at least once and came back unacked.
            self.obs.annotate(job_id, Annotation::Retry, now_ms);
        }
        let outcome = self.run(&delivery.payload, now_ms);
        broker.ack(delivery.meta.id);
        Some(outcome)
    }

    fn run(&self, req: &JobRequest, now_ms: u64) -> JobOutcome {
        // The container image must provide the lab's toolchain (§VI-B:
        // "a CUDA lab will not, for example, have the PGI OpenACC
        // tools"). A v1 cluster that pushes an MPI job to a CUDA-only
        // node hits exactly this failure.
        let (container, wait_ms, image_name) = {
            let g = self.state.lock();
            if !g.pool.image().has(&req.spec.toolchain) {
                self.obs.phase(req.job_id, JobPhase::Failed, now_ms);
                return JobOutcome {
                    job_id: req.job_id,
                    worker_id: self.id,
                    compile_error: Some(format!(
                        "toolchain `{}` is not installed in image `{}` on worker {}",
                        req.spec.toolchain,
                        g.pool.image().name,
                        self.id
                    )),
                    datasets: Vec::new(),
                    analysis: Vec::new(),
                    container_wait_ms: 0,
                };
            }
            // Check out a fresh container for the job (§VI-B: one job
            // per container, destroyed afterwards).
            let (c, w) = g.pool.checkout();
            (c, w, g.pool.image().name.clone())
        };
        let ctx = RunCtx {
            device: &self.device,
            worker_id: self.id,
            container_wait_ms: wait_ms,
            image: &image_name,
            cache: self.cache.as_deref(),
            obs: &self.obs,
            now_ms,
        };
        let outcome = execute(req, &ctx);
        let busy: u64 = outcome
            .datasets
            .iter()
            .map(|d| d.elapsed_cycles / 1_000) // cycles → virtual ms at 1 MHz-ish
            .sum::<u64>()
            .max(1)
            + wait_ms;
        let mut g = self.state.lock();
        g.pool.destroy(container);
        g.jobs_done += 1;
        g.busy_ms += busy;
        outcome
    }
}

fn image_by_name(name: &str) -> Image {
    if name.contains("full") {
        Image::full()
    } else {
        Image::cuda()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DatasetCase, JobAction, LabSpec};
    use libwb::Dataset;

    fn trivial_request(job_id: u64) -> JobRequest {
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
            spec: LabSpec::cuda_test("identity"),
            datasets: vec![DatasetCase {
                name: "d0".into(),
                inputs: vec![Dataset::Vector(vec![1.0, 2.0])],
                expected: Dataset::Vector(vec![1.0, 2.0]),
            }],
            action: JobAction::FullGrade,
        }
    }

    /// An uncached, untraced node on the small test device.
    fn node_with(id: u64, worker: WorkerConfig) -> WorkerNode {
        let cfg = NodeConfig {
            worker,
            ..NodeConfig::new(DeviceConfig::test_small())
        };
        WorkerNode::launch(id, &cfg)
    }

    fn node() -> WorkerNode {
        node_with(1, WorkerConfig::default())
    }

    #[test]
    fn push_submit_executes() {
        let n = node();
        let out = n.submit(&trivial_request(1), 0).expect("node is up");
        assert!(out.compiled());
        assert_eq!(out.passed_count(), 1);
        assert_eq!(n.jobs_done(), 1);
        assert!(n.busy_ms() >= 1);
    }

    #[test]
    fn crashed_node_refuses_work_and_heartbeats() {
        let n = node();
        assert!(n.health(0).is_some());
        n.crash();
        assert!(n.is_crashed());
        assert!(n.health(1).is_none());
        assert!(n.submit(&trivial_request(1), 0).is_none());
        n.recover();
        assert!(n.health(2).is_some());
        assert!(n.submit(&trivial_request(2), 0).is_some());
    }

    #[test]
    fn poll_respects_capabilities() {
        let broker = ShardedBroker::new(1, 10_000, 3);
        let mut req = trivial_request(1);
        req.spec.tags = ["mpi".to_string()].into_iter().collect();
        broker.enqueue_to(0, req.clone(), req.spec.tags.to_wire(), 0);
        let n = node(); // plain cuda worker
        assert!(n.poll_once(&broker, 0, 1).is_none(), "mpi job skipped");
        // An MPI-capable node picks it up.
        let mut cfg = WorkerConfig::default();
        cfg.capabilities.insert("mpi".into());
        let mpi_node = node_with(2, cfg);
        let out = mpi_node
            .poll_once(&broker, 0, 2)
            .expect("capable node took it");
        assert_eq!(out.worker_id, 2);
        assert_eq!(broker.depth(3), 0, "job acked");
    }

    #[test]
    fn preempted_node_strands_its_delivery_for_the_timeout() {
        let broker = ShardedBroker::new(1, 100, 3);
        let req = trivial_request(7);
        broker.enqueue_to(0, req, std::collections::BTreeSet::new(), 0);
        let n = node();
        n.preempt();
        assert!(n.health(0).is_some(), "beats continue until the poll");
        // The poll takes the delivery and vanishes: no outcome, no ack.
        assert!(n.poll_once(&broker, 0, 1).is_none());
        assert!(n.is_crashed());
        assert_eq!(broker.in_flight(2), 1, "job stranded in flight");
        assert_eq!(broker.depth(2), 0);
        // Visibility lapses; a healthy node picks the job back up.
        let rescuer = node_with(2, WorkerConfig::default());
        let out = rescuer.poll_once(&broker, 0, 101).expect("redelivered");
        assert_eq!(out.worker_id, 2);
        assert_eq!(broker.depth(102), 0, "acked after rescue");
        // Recovery clears both flags: the node polls normally again.
        n.recover();
        assert!(!n.is_crashed());
    }

    #[test]
    fn config_change_restarts_driver() {
        let server = ConfigServer::new(WorkerConfig::default());
        let n = node_with(1, server.get());
        assert!(!n.sync_config(&server), "same version: no restart");
        server.update(|c| c.image = "webgpu/full".into());
        assert!(n.sync_config(&server), "new version restarts");
        assert_eq!(n.restarts(), 1);
        assert!(!n.sync_config(&server), "idempotent until next change");
    }

    #[test]
    fn capability_update_applies_after_restart() {
        let server = ConfigServer::new(WorkerConfig::default());
        let n = node_with(1, server.get());
        assert!(!n.capabilities().contains("mpi"));
        server.update(|c| {
            c.capabilities.insert("mpi".into());
        });
        n.sync_config(&server);
        assert!(n.capabilities().contains("mpi"));
    }

    #[test]
    fn missing_toolchain_fails_before_any_work() {
        // §VI-B: "a CUDA lab will not, for example, have the PGI
        // OpenACC tools" — a job whose toolchain the image lacks is
        // rejected at intake, without consuming a container.
        let n = node(); // webgpu/cuda image: cuda + opencl only
        let mut req = trivial_request(9);
        req.spec.toolchain = "mpi".to_string();
        let out = n.submit(&req, 0).expect("node is up");
        assert!(!out.compiled());
        assert!(out
            .compile_error
            .as_ref()
            .unwrap()
            .contains("toolchain `mpi` is not installed"));
        assert!(out.datasets.is_empty());
        // A full-image node runs the same job fine.
        let cfg = WorkerConfig {
            image: "webgpu/full".to_string(),
            ..Default::default()
        };
        let fat = node_with(2, cfg);
        let out = fat.submit(&req, 0).expect("node is up");
        assert!(out.compiled(), "{:?}", out.compile_error);
    }

    #[test]
    fn nodes_share_a_cluster_wide_cache() {
        use crate::cache::new_submission_cache;
        let cache = new_submission_cache(wb_cache::CacheConfig::default());
        let cfg = NodeConfig {
            cache: Some(cache.clone()),
            ..NodeConfig::new(DeviceConfig::test_small())
        };
        let a = WorkerNode::launch(1, &cfg);
        let b = WorkerNode::launch(2, &cfg);
        let out_a = a.submit(&trivial_request(1), 0).expect("node a up");
        // A different student submits the same bytes to a different node.
        let out_b = b.submit(&trivial_request(2), 0).expect("node b up");
        assert_eq!(out_a.datasets, out_b.datasets);
        assert_eq!(out_b.worker_id, 2, "identity fields stay per-job");
        let m = cache.metrics();
        assert_eq!(m.compile.hits, 1, "node b reused node a's compile");
        assert_eq!(m.grade.hits, 1, "node b reused node a's grade");
    }

    #[test]
    fn health_beat_carries_progress() {
        let n = node();
        n.submit(&trivial_request(1), 0).unwrap();
        n.submit(&trivial_request(2), 0).unwrap();
        let beat = n.health(500).unwrap();
        assert_eq!(beat.jobs_done, 2);
        assert_eq!(beat.at_ms, 500);
        assert_eq!(beat.worker_id, 1);
    }
}
