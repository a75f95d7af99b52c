//! Live-bytes gate for the jobs a backlog holds, which holds on any
//! box: heap bytes are counted, not timed, so a one-core machine
//! enforces it as well as a CI host. A queued job shares its lab's
//! dataset payload with the deployed lab instead of copying it: 64
//! submissions of a `Full`-scale lab retain at most
//! [`MAX_BYTES_PER_REQUEST`] each, and at least [`MIN_SAVING`] times
//! fewer bytes than one copy of that lab's datasets. Run with
//! `--nocapture` to see both figures.

mod live_bytes;

use libwb::Dataset;
use live_bytes::live;
use std::sync::{Arc, Mutex};
use wb_labs::LabScale;
use wb_server::{DeviceKind, JobDispatcher, SubmitRequest, WbError, WebGpuServer};
use wb_worker::{JobOutcome, JobRequest};

/// Submissions held in the backlog.
const QUEUED: usize = 64;

/// What one queued submission may retain: the job's envelope, its
/// source, `LabSpec` and case names, and the server's pending row with
/// a second copy of the source (3 458 bytes when measured; 1 413 098
/// when every job copied the datasets).
const MAX_BYTES_PER_REQUEST: i64 = 8 * 1024;

/// How many times fewer bytes a queued submission must retain than a
/// copy of the lab's datasets (×408 when measured).
const MIN_SAVING: i64 = 100;

/// Keeps every job it is offered and runs none: a backlog.
#[derive(Default)]
struct Backlog(Mutex<Vec<JobRequest>>);

impl JobDispatcher for Backlog {
    fn submit_queued(&self, req: JobRequest, _now_ms: u64) -> Result<u64, WbError> {
        let job_id = req.job_id;
        self.0.lock().unwrap().push(req);
        Ok(job_id)
    }

    fn advance(&self, _now_ms: u64) -> usize {
        0
    }

    fn take_ready(&self, _wanted: &dyn Fn(u64) -> bool) -> Vec<JobOutcome> {
        Vec::new()
    }
}

#[test]
fn queued_jobs_share_their_labs_datasets() {
    let id = "vecadd";
    let lab = wb_labs::definition(id, LabScale::Full).expect("lab");
    let source = wb_labs::solution(id).expect("solution");
    let (dataset_bytes, copy) = live(|| {
        lab.datasets
            .iter()
            .map(|c| (c.inputs.to_vec(), Dataset::clone(&c.expected)))
            .collect::<Vec<_>>()
    });
    drop(copy);

    let backlog = Arc::new(Backlog::default());
    let srv = WebGpuServer::new(Box::new(Arc::clone(&backlog)));
    srv.register_instructor("prof", "pw").unwrap();
    srv.register_student("alice", "pw").unwrap();
    let prof = srv.login("prof", "pw", DeviceKind::Desktop, 0).unwrap();
    let alice = srv.login("alice", "pw", DeviceKind::Desktop, 0).unwrap();
    srv.deploy_lab(prof, lab.clone()).unwrap();

    let (queued, ()) = live(|| {
        for i in 0..QUEUED {
            // 15 s apart: the default rate limit refills one slot in that time.
            let req = SubmitRequest::full_grade(alice, id).at(i as u64 * 15_000);
            srv.submit_queued(&req.with_source(source)).unwrap();
        }
    });
    let per_request = queued / QUEUED as i64;
    println!(
        "{QUEUED} queued full grades of {id} at Full: {per_request} bytes each, \
         two copies of its {}-byte source among them; its datasets are \
         {dataset_bytes} bytes (x{:.0})",
        source.len(),
        dataset_bytes as f64 / per_request as f64
    );

    let jobs = backlog.0.lock().unwrap();
    assert_eq!(jobs.len(), QUEUED);
    for job in jobs.iter() {
        assert_eq!(job.datasets.len(), lab.datasets.len());
        for (held, deployed) in job.datasets.iter().zip(&lab.datasets) {
            assert!(
                Arc::ptr_eq(&held.inputs, &deployed.inputs)
                    && Arc::ptr_eq(&held.expected, &deployed.expected),
                "job {} holds a copy of {}",
                job.job_id,
                deployed.name
            );
        }
    }
    assert!(
        per_request <= MAX_BYTES_PER_REQUEST,
        "{per_request} bytes per queued request: over {MAX_BYTES_PER_REQUEST}"
    );
    assert!(
        per_request * MIN_SAVING <= dataset_bytes,
        "{per_request} bytes per queued request against {dataset_bytes} of datasets: \
         under x{MIN_SAVING}"
    );
}
