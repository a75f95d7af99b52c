//! OpenEdx frontend adapter — the WebGPU 2.0 face (§VI-A).
//!
//! In the new architecture, instructors author labs and students work
//! inside OpenEdx via a programming XBlock; the XBlock's only job on
//! the execution path is to enqueue jobs to the message broker and
//! collect results. This adapter models that contract: the server's
//! dispatcher becomes an enqueue + poll-for-result flow over
//! `wb-queue`, with lab datasets fetched from the blob store instead
//! of shipped inline.

use crate::api::WbError;
use crate::server::JobDispatcher;
use std::collections::HashMap;
use std::sync::Arc;
pub use wb_db::BlobStore;
use wb_obs::sync::Mutex;
use wb_queue::ShardedBroker;
use wb_worker::{JobOutcome, JobRequest};

/// A dispatcher that enqueues to the v2 broker and waits for the
/// result to be posted back by a worker.
///
/// The "wait" is cooperative: each `advance` lets every worker poll
/// once, and the result lands when one of them posts it. The trait's
/// provided `dispatch` drives the supplied worker set that way until
/// the job's outcome is in hand.
pub struct EdxFrontend {
    broker: Arc<ShardedBroker<JobRequest>>,
    results: Mutex<HashMap<u64, JobOutcome>>,
    workers: Vec<Arc<wb_worker::WorkerNode>>,
}

impl EdxFrontend {
    /// Build over a broker and a worker fleet. Every worker polls from
    /// lane 0; a one-lane broker is the XBlock's single queue.
    pub fn new(
        broker: Arc<ShardedBroker<JobRequest>>,
        workers: Vec<Arc<wb_worker::WorkerNode>>,
    ) -> Self {
        EdxFrontend {
            broker,
            results: Mutex::new(HashMap::new()),
            workers,
        }
    }

    /// Upload a lab dataset bundle to the blob store under the keys
    /// workers expect (`labs/<id>/<case>/...`).
    pub fn upload_datasets(
        store: &BlobStore,
        lab_id: &str,
        cases: &[wb_worker::DatasetCase],
    ) -> usize {
        let mut n = 0;
        for (i, case) in cases.iter().enumerate() {
            for (j, input) in case.inputs.iter().enumerate() {
                store.put(
                    format!("labs/{lab_id}/case{i}/input{j}.raw"),
                    input.export().into_bytes(),
                );
                n += 1;
            }
            store.put(
                format!("labs/{lab_id}/case{i}/expected.raw"),
                case.expected.export().into_bytes(),
            );
            n += 1;
        }
        n
    }

    /// Fetch a lab's dataset bundle back from the store.
    pub fn fetch_datasets(
        store: &BlobStore,
        lab_id: &str,
    ) -> Result<Vec<wb_worker::DatasetCase>, String> {
        let mut cases = Vec::new();
        for i in 0.. {
            let expected_key = format!("labs/{lab_id}/case{i}/expected.raw");
            let Some(expected_bytes) = store.get(&expected_key) else {
                break;
            };
            let expected = libwb::Dataset::import(
                std::str::from_utf8(&expected_bytes).map_err(|e| e.to_string())?,
            )
            .map_err(|e| e.to_string())?;
            let mut inputs = Vec::new();
            for j in 0.. {
                let key = format!("labs/{lab_id}/case{i}/input{j}.raw");
                let Some(bytes) = store.get(&key) else { break };
                inputs.push(
                    libwb::Dataset::import(std::str::from_utf8(&bytes).map_err(|e| e.to_string())?)
                        .map_err(|e| e.to_string())?,
                );
            }
            cases.push(wb_worker::DatasetCase {
                name: format!("case{i}"),
                inputs: inputs.into(),
                expected: expected.into(),
            });
        }
        if cases.is_empty() {
            return Err(format!("no datasets stored for lab {lab_id:?}"));
        }
        Ok(cases)
    }
}

impl JobDispatcher for EdxFrontend {
    /// Enqueue to lane 0 with the job's capability tags.
    fn submit_queued(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        let job_id = req.job_id;
        let tags = req.spec.tags.to_wire();
        self.broker.enqueue_to(0, req, tags, now_ms);
        Ok(job_id)
    }

    /// Let every live worker poll once; posted results are collected.
    fn advance(&self, now_ms: u64) -> usize {
        let mut done = 0;
        for w in &self.workers {
            if let Some(outcome) = w.poll_once(&self.broker, 0, now_ms) {
                self.results.lock().insert(outcome.job_id, outcome);
                done += 1;
            }
        }
        done
    }

    fn take_ready(&self, wanted: &dyn Fn(u64) -> bool) -> Vec<JobOutcome> {
        let mut map = self.results.lock();
        map.extract_if(|&id, _| wanted(id)).map(|e| e.1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libwb::Dataset;
    use minicuda::DeviceConfig;
    use wb_worker::{DatasetCase, JobAction, LabSpec, NodeConfig, WorkerNode};

    fn fleet(n: usize) -> (Arc<ShardedBroker<JobRequest>>, Vec<Arc<WorkerNode>>) {
        let broker = Arc::new(ShardedBroker::new(1, 60_000, 3));
        let cfg = NodeConfig::new(DeviceConfig::test_small());
        let workers = (0..n)
            .map(|i| Arc::new(WorkerNode::launch(i as u64 + 1, &cfg)))
            .collect();
        (broker, workers)
    }

    fn echo_request(job_id: u64) -> JobRequest {
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
                inputs: vec![Dataset::Vector(vec![1.0])].into(),
                expected: Dataset::Vector(vec![1.0]).into(),
            }],
            action: JobAction::FullGrade,
        }
    }

    #[test]
    fn dispatch_roundtrips_through_queue() {
        let (broker, workers) = fleet(2);
        let edx = EdxFrontend::new(broker, workers);
        let out = edx.dispatch(echo_request(1), 0).unwrap();
        assert!(out.compiled());
        assert_eq!(out.passed_count(), 1);
    }

    #[test]
    fn untakeable_job_reports_capability_gap() {
        let (broker, workers) = fleet(1);
        let edx = EdxFrontend::new(broker, workers);
        let mut req = echo_request(2);
        req.spec.tags = ["mpi".to_string()].into_iter().collect();
        let err = edx.dispatch(req, 0).unwrap_err();
        assert!(matches!(err, WbError::Infra { .. }));
        assert!(err.to_string().contains("capability"));
    }

    #[test]
    fn dataset_blob_roundtrip() {
        let store = BlobStore::new();
        let cases = vec![
            DatasetCase {
                name: "case0".into(),
                inputs: vec![Dataset::Vector(vec![1.0, 2.0]), Dataset::Scalar(3.0)].into(),
                expected: Dataset::Vector(vec![4.0]).into(),
            },
            DatasetCase {
                name: "case1".into(),
                inputs: vec![Dataset::IntVector(vec![1, 2, 3])].into(),
                expected: Dataset::Scalar(6.0).into(),
            },
        ];
        let n = EdxFrontend::upload_datasets(&store, "sum", &cases);
        assert_eq!(n, 5); // 3 inputs + 2 expected
        let back = EdxFrontend::fetch_datasets(&store, "sum").unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].inputs, cases[0].inputs);
        assert_eq!(back[1].expected, cases[1].expected);
        assert!(EdxFrontend::fetch_datasets(&store, "missing").is_err());
    }

    #[test]
    fn crashed_fleet_reports_down() {
        let (broker, workers) = fleet(1);
        workers[0].crash();
        let edx = EdxFrontend::new(broker, workers);
        let err = edx.dispatch(echo_request(3), 0).unwrap_err().to_string();
        assert!(err.contains("down") || err.contains("capability"));
    }
}
