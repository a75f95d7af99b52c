//! One construction surface for both cluster architectures.
//!
//! The constructor zoo (`new` / `new_uncached` / `new_traced` /
//! `with_config_traced`…) grew one axis at a time — cache, tracing,
//! worker image — and every new axis doubled it. [`ClusterBuilder`]
//! replaced the zoo: pick the axes you care about, then `build_v1()`
//! or `build_v2()`. The deprecated shims rode along for one release
//! and have since been deleted; only `ClusterV1::new` /
//! `ClusterV2::new` survive as plain defaults-only conveniences.
//!
//! ```
//! use webgpu::{AutoscalePolicy, ClusterBuilder, SchedConfig};
//!
//! let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
//!     .fleet(4)
//!     .policy(AutoscalePolicy::Reactive { jobs_per_worker: 2, min: 1, max: 8 })
//!     .scheduler(SchedConfig::default().with_course_weight("ece408", 3))
//!     .build_v2();
//! assert_eq!(cluster.fleet_size(), 4);
//! ```

use crate::autoscaler::AutoscalePolicy;
use crate::plane::ControlPlane;
use crate::v1::{full_image_config, ClusterV1, Push};
use crate::v2::{ClusterV2, Pull};
use minicuda::DeviceConfig;
use std::sync::Arc;
use wb_cache::CacheConfig;
use wb_obs::Recorder;
use wb_sched::SchedConfig;
use wb_worker::WorkerConfig;

/// Redelivery knobs for the v2 broker: how long a delivery stays
/// invisible before the queue reclaims it, and how many attempts a
/// job gets before the dead-letter queue. Chaos campaigns shorten the
/// timeout (killed workers strand deliveries until it lapses) and
/// raise the attempt budget (a job may be stranded many times without
/// being poisoned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerTuning {
    /// Visibility timeout in virtual ms.
    pub visibility_timeout_ms: u64,
    /// Delivery attempts before dead-lettering.
    pub max_attempts: u32,
}

impl Default for BrokerTuning {
    fn default() -> Self {
        BrokerTuning {
            visibility_timeout_ms: 60_000,
            max_attempts: 3,
        }
    }
}

/// Builds either cluster architecture from one set of knobs.
///
/// Defaults: fleet of 1, static policy sized to the fleet, default
/// submission cache, noop recorder, default scheduler (admission
/// effectively unbounded), and the architecture's default worker
/// image (v1: the full image §VI-A mandates; v2: the base config,
/// capability tags route jobs to capable nodes).
pub struct ClusterBuilder {
    pub(crate) device: DeviceConfig,
    pub(crate) fleet: usize,
    policy: Option<AutoscalePolicy>,
    pub(crate) cache: Option<CacheConfig>,
    pub(crate) obs: Arc<Recorder>,
    pub(crate) sched: SchedConfig,
    worker_config: Option<WorkerConfig>,
    shards: Option<usize>,
    tuning: BrokerTuning,
}

impl ClusterBuilder {
    /// Start from a device; everything else has defaults.
    pub fn new(device: DeviceConfig) -> Self {
        ClusterBuilder {
            device,
            fleet: 1,
            policy: None,
            cache: Some(CacheConfig::default()),
            obs: Arc::new(Recorder::noop()),
            sched: SchedConfig::default(),
            worker_config: None,
            shards: None,
            tuning: BrokerTuning::default(),
        }
    }

    /// Initial fleet size (default 1). Without an explicit
    /// [`policy`](Self::policy) the fleet stays static at this size.
    pub fn fleet(mut self, n: usize) -> Self {
        self.fleet = n;
        self
    }

    /// Autoscaling policy (v2 obeys it every pump; v1 scales manually,
    /// so it only sizes the initial pool).
    pub fn policy(mut self, policy: AutoscalePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Drop the cluster-wide submission cache: every job compiles and
    /// grades fresh (the pre-cache baseline benches compare against).
    pub fn uncached(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Use an explicitly-sized submission cache.
    pub fn cache(mut self, cfg: CacheConfig) -> Self {
        self.cache = Some(cfg);
        self
    }

    /// Record every layer — scheduler, broker, workers — onto a shared
    /// recorder, so each job's span covers its full lifecycle.
    pub fn traced(mut self, obs: Arc<Recorder>) -> Self {
        self.obs = obs;
        self
    }

    /// Fair-share scheduling and admission-control configuration.
    pub fn scheduler(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Worker image/capability configuration (overrides the
    /// architecture default).
    pub fn worker_config(mut self, config: WorkerConfig) -> Self {
        self.worker_config = Some(config);
        self
    }

    /// Control-plane lane count: the fair-share scheduler and (v2) the
    /// broker split `n` ways, and v2 workers pin to lanes round-robin.
    /// This knob moves neither `wb-obs`, which stripes its spans and
    /// scoped counters by fixed constants, nor `wb-cache`, which
    /// stripes by [`CacheConfig::shards`]. Defaults to one lane per
    /// core the host exposes; `1` reproduces the single-lane control
    /// plane exactly. Clamped to at least 1.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Broker redelivery knobs (v2 only; v1 has no broker). Defaults
    /// to a 60 s visibility timeout and 3 attempts.
    pub fn broker_tuning(mut self, visibility_timeout_ms: u64, max_attempts: u32) -> Self {
        self.tuning = BrokerTuning {
            visibility_timeout_ms,
            max_attempts,
        };
        self
    }

    /// Assemble the v1 push cluster.
    pub fn build_v1(mut self) -> ClusterV1 {
        let worker = self.worker_config.take().unwrap_or_else(full_image_config);
        ControlPlane::boot(Push::default(), worker, self)
    }

    /// Assemble the v2 pull cluster.
    pub fn build_v2(mut self) -> ClusterV2 {
        let policy = self
            .policy
            .take()
            .unwrap_or(AutoscalePolicy::Static(self.fleet));
        let pull = Pull::new(
            self.resolved_shards(),
            self.tuning,
            policy,
            self.fleet,
            &self.obs,
        );
        let worker = self.worker_config.take().unwrap_or_default();
        ControlPlane::boot(pull, worker, self)
    }

    pub(crate) fn resolved_shards(&self) -> usize {
        self.shards.unwrap_or_else(default_shards).max(1)
    }
}

/// The default control-plane lane count: one lane per core the host
/// exposes, so the control plane scales with the machine (1 when the
/// parallelism probe fails).
fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use libwb::Dataset;
    use wb_server::{JobDispatcher, WbError};
    use wb_worker::{DatasetCase, JobAction, JobRequest, LabSpec};

    fn echo(job_id: u64, course: &str) -> JobRequest {
        let mut spec = LabSpec::cuda_test("echo");
        spec.course = course.to_string();
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
            spec,
            datasets: vec![DatasetCase {
                name: "d0".into(),
                inputs: vec![Dataset::Vector(vec![1.0])],
                expected: Dataset::Vector(vec![1.0]),
            }],
            action: JobAction::FullGrade,
        }
    }

    #[test]
    fn defaults_build_working_clusters() {
        let v1 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .build_v1();
        assert_eq!(v1.pool_size(), 2);
        assert!(v1.dispatch(echo(1, "hpp"), 0).unwrap().compiled());

        let v2 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(3)
            .build_v2();
        assert_eq!(v2.fleet_size(), 3);
        v2.submit(echo(2, "hpp"), 0).unwrap();
        for r in 0..5 {
            v2.pump(r);
        }
        assert_eq!(v2.completed(), 1);
    }

    #[test]
    fn uncached_v1_runs_every_job_fresh() {
        let v1 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .uncached()
            .build_v1();
        for j in 0..4 {
            assert!(v1.dispatch(echo(j, "hpp"), 0).unwrap().compiled());
        }
        let m = v1.cache_metrics();
        assert_eq!(m.compile.hits, 0, "workers never consult the cache");
        assert_eq!(m.compile.misses, 0);
    }

    #[test]
    fn scheduler_config_reaches_admission_control() {
        let v2 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(1)
            .scheduler(SchedConfig {
                backlog_budget: 2,
                ..SchedConfig::default()
            })
            .build_v2();
        v2.submit(echo(1, "hpp"), 0).unwrap();
        v2.submit(echo(2, "hpp"), 0).unwrap();
        let err = v2.submit(echo(3, "hpp"), 0).unwrap_err();
        let WbError::Overloaded { retry_after_s } = err else {
            panic!("expected a shed, got {err:?}");
        };
        assert!(retry_after_s.is_finite() && retry_after_s > 0.0);
    }

    #[test]
    fn shards_knob_reaches_both_architectures() {
        let v2 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .shards(4)
            .build_v2();
        assert_eq!(v2.shards(), 4);
        let courses = ["hpp", "ece408", "cs100", "pmpp"];
        for j in 0..8u64 {
            v2.submit(echo(j, courses[j as usize % 4]), 0).unwrap();
        }
        for r in 0..10 {
            v2.pump(r);
        }
        assert_eq!(v2.completed(), 8, "multi-lane cluster drains every course");

        let v1 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .shards(0)
            .build_v1();
        assert_eq!(v1.shards(), 1, "zero clamps to a single lane");
        assert!(v1.dispatch(echo(9, "hpp"), 0).unwrap().compiled());
    }

    #[test]
    fn traced_builds_share_the_recorder() {
        let obs = Arc::new(Recorder::traced());
        let v1 = ClusterBuilder::new(DeviceConfig::test_small())
            .traced(Arc::clone(&obs))
            .build_v1();
        v1.dispatch(echo(9, "hpp"), 0).unwrap();
        assert!(obs.span(9).is_some(), "the job's span landed on the sink");
    }
}
