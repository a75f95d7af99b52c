//! A common façade over the two cluster architectures.
//!
//! Benches and fault/stress harnesses used to be written twice — once
//! against the v1 push API, once against the v2 pull API. [`Platform`]
//! is the shared surface both implement: admission-controlled
//! submission, a pump that advances one scheduling round, result
//! retrieval, and the metrics/scheduler snapshots the dashboards and
//! gates read. Harness code takes `&impl Platform` (or
//! `&dyn Platform`) and runs unchanged on either architecture.

use crate::{ClusterV1, ClusterV2};
use wb_cache::CacheMetrics;
use wb_obs::MetricsSnapshot;
use wb_sched::SchedSnapshot;
use wb_server::WbError;
use wb_worker::{JobOutcome, JobRequest};

/// The architecture-independent cluster surface.
pub trait Platform {
    /// Offer a job through admission control; `Ok(job_id)` when the
    /// fair-share scheduler accepted it, [`WbError::Overloaded`] with a
    /// finite retry hint when it shed.
    fn submit_job(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError>;

    /// Advance one scheduling round; returns jobs completed this round.
    fn pump(&self, now_ms: u64) -> usize;

    /// Take a completed job's outcome off the cluster.
    fn take_result(&self, job_id: u64) -> Option<JobOutcome>;

    /// Live workers.
    fn fleet_size(&self) -> usize;

    /// Jobs admitted and not yet executed.
    fn queue_depth(&self, now_ms: u64) -> usize;

    /// Jobs completed over the cluster's lifetime.
    fn completed(&self) -> u64;

    /// Aggregate counters/timers from the cluster's recorder.
    fn metrics_snapshot(&self) -> MetricsSnapshot;

    /// Per-course scheduler backlogs.
    fn sched_snapshot(&self) -> SchedSnapshot;

    /// Per-tier submission-cache gauges; `None` when the cluster was
    /// built `uncached()`.
    fn cache_metrics(&self) -> Option<CacheMetrics>;
}

impl Platform for ClusterV1 {
    fn submit_job(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        self.enqueue(req, now_ms)
    }

    fn pump(&self, now_ms: u64) -> usize {
        ClusterV1::pump(self, now_ms)
    }

    fn take_result(&self, job_id: u64) -> Option<JobOutcome> {
        ClusterV1::take_result(self, job_id)
    }

    fn fleet_size(&self) -> usize {
        self.pool_size()
    }

    fn queue_depth(&self, _now_ms: u64) -> usize {
        ClusterV1::queue_depth(self)
    }

    fn completed(&self) -> u64 {
        ClusterV1::completed(self)
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        ClusterV1::metrics_snapshot(self)
    }

    fn sched_snapshot(&self) -> SchedSnapshot {
        ClusterV1::sched_snapshot(self)
    }

    fn cache_metrics(&self) -> Option<CacheMetrics> {
        ClusterV1::cache_metrics_opt(self)
    }
}

impl Platform for ClusterV2 {
    fn submit_job(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        self.submit(req, now_ms)
    }

    fn pump(&self, now_ms: u64) -> usize {
        ClusterV2::pump(self, now_ms)
    }

    fn take_result(&self, job_id: u64) -> Option<JobOutcome> {
        ClusterV2::take_result(self, job_id)
    }

    fn fleet_size(&self) -> usize {
        ClusterV2::fleet_size(self)
    }

    fn queue_depth(&self, now_ms: u64) -> usize {
        ClusterV2::queue_depth(self, now_ms)
    }

    fn completed(&self) -> u64 {
        ClusterV2::completed(self)
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        ClusterV2::metrics_snapshot(self)
    }

    fn sched_snapshot(&self) -> SchedSnapshot {
        ClusterV2::sched_snapshot(self)
    }

    fn cache_metrics(&self) -> Option<CacheMetrics> {
        ClusterV2::cache_metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterBuilder;
    use libwb::Dataset;
    use minicuda::DeviceConfig;
    use wb_worker::{DatasetCase, JobAction, LabSpec};

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

    /// The generic harness shape: submit, pump to drain, take results.
    fn run_jobs(p: &dyn Platform, jobs: u64) {
        for j in 0..jobs {
            p.submit_job(echo(j, if j % 2 == 0 { "hpp" } else { "ece408" }), 0)
                .expect("default budget admits everything");
        }
        assert_eq!(p.queue_depth(0), jobs as usize);
        let mut round = 1;
        while p.completed() < jobs {
            p.pump(round);
            round += 1;
            assert!(round < 200, "platform failed to drain {jobs} jobs");
        }
        for j in 0..jobs {
            let out = p.take_result(j).expect("every job has an outcome");
            assert!(out.compiled());
        }
        assert_eq!(p.queue_depth(round), 0);
    }

    #[test]
    fn both_architectures_run_the_same_harness() {
        let v1 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .build_v1();
        run_jobs(&v1, 8);
        assert!(v1.fleet_size() == 2);

        let v2 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .build_v2();
        run_jobs(&v2, 8);
    }

    /// Cache gauges surface through the façade on both architectures.
    #[test]
    fn cache_metrics_on_both_architectures() {
        let v1 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .build_v1();
        let v2 = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .build_v2();
        for p in [&v1 as &dyn Platform, &v2] {
            run_jobs(p, 6);
            let cache = p.cache_metrics().expect("default builds are cached");
            assert!(cache.total().lookups() > 0);
        }
        // An uncached build reports None rather than zeroed gauges.
        let bare = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(1)
            .uncached()
            .build_v2();
        assert!(Platform::cache_metrics(&bare).is_none());
    }
}
