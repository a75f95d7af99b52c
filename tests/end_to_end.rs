//! End-to-end integration: a student's full journey through the
//! platform — register, open a lab, iterate on code, run datasets,
//! submit, get graded, and appear on the instructor roster — on both
//! cluster architectures.

use std::sync::Arc;
use wb_labs::LabScale;
use wb_server::{DeviceKind, JobDispatcher, SubmitRequest, WebGpuServer};
use webgpu::{AutoscalePolicy, ClusterBuilder};

fn server_on(dispatcher: Box<dyn JobDispatcher>) -> (WebGpuServer, u64, u64) {
    let srv = WebGpuServer::new(dispatcher);
    srv.register_instructor("prof", "pw").unwrap();
    srv.register_student("alice", "pw").unwrap();
    let staff = srv.login("prof", "pw", DeviceKind::Desktop, 0).unwrap();
    let alice = srv.login("alice", "pw", DeviceKind::Desktop, 0).unwrap();
    let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
    srv.deploy_lab(staff, lab).unwrap();
    (srv, staff, alice)
}

fn student_journey(srv: &WebGpuServer, staff: u64, alice: u64) {
    // 1. Read the lab manual.
    let html = srv.lab_description_html("vecadd").unwrap();
    assert!(html.contains("<h1>Vector Addition</h1>"));

    // 2. The editor opens with the skeleton.
    let code = srv.current_code(alice, "vecadd").unwrap();
    assert!(code.contains("TODO"));

    // 3. First try: the skeleton itself — compiles but fails datasets.
    let view = srv
        .submit(&SubmitRequest::compile_only(alice, "vecadd").at(10_000))
        .unwrap();
    assert!(view.compiled);

    // 4. Iterate: save the real solution, run one dataset.
    let solution = wb_labs::solution("vecadd").unwrap();
    srv.save_code(alice, "vecadd", solution, 60_000).unwrap();
    let run = srv
        .submit(&SubmitRequest::run_dataset(alice, "vecadd", 0).at(120_000))
        .unwrap();
    assert!(run.all_passed(), "{}", run.report);
    assert!(run.report.contains("correct"));

    // 5. Answer the questions and submit for grading.
    srv.answer_questions(alice, "vecadd", vec!["n flops".into(), "two reads".into()])
        .unwrap();
    let sub = srv
        .submit(&SubmitRequest::full_grade(alice, "vecadd").at(600_000))
        .unwrap();
    assert!(sub.compiled);
    assert_eq!(sub.passed, sub.total);
    let score = sub.score.expect("full grades carry a score");
    assert!((score - 90.0).abs() < 1e-9, "rubric: 10 + 80");

    // 6. History shows the revision; attempts show the runs.
    assert_eq!(srv.history(alice, "vecadd").unwrap().len(), 1);
    assert!(srv.attempts(alice, "vecadd").unwrap().len() >= 2);

    // 7. The instructor grades the questions and reads the roster.
    srv.grade_questions(staff, "alice", "vecadd", 10.0, Some("nice".into()))
        .unwrap();
    let roster = srv.roster(staff, "vecadd").unwrap();
    assert_eq!(roster.len(), 1);
    assert!((roster[0].total_grade - 100.0).abs() < 1e-9);
}

#[test]
fn full_journey_on_v1_push_cluster() {
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(2)
        .build_v1();
    let (srv, staff, alice) = server_on(Box::new(cluster));
    student_journey(&srv, staff, alice);
}

#[test]
fn full_journey_on_v2_queue_cluster() {
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(2)
        .policy(AutoscalePolicy::Static(2))
        .build_v2();
    let (srv, staff, alice) = server_on(Box::new(cluster));
    student_journey(&srv, staff, alice);
}

#[test]
fn every_table2_lab_reference_solution_grades_perfectly_through_the_server() {
    // The Table II matrix, end to end: deploy all 15 labs and submit
    // each reference solution through the web tier.
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(2)
        .build_v1();
    let srv = WebGpuServer::new(Box::new(cluster));
    srv.register_instructor("prof", "pw").unwrap();
    srv.register_student("ref", "pw").unwrap();
    let staff = srv.login("prof", "pw", DeviceKind::Desktop, 0).unwrap();
    let student = srv.login("ref", "pw", DeviceKind::Desktop, 0).unwrap();

    for (k, id) in wb_labs::lab_ids().into_iter().enumerate() {
        let lab = wb_labs::definition(id, LabScale::Small).unwrap();
        let max_auto = lab.rubric.compile_points
            + lab.rubric.dataset_points
            + lab
                .rubric
                .keyword_points
                .iter()
                .map(|(_, p)| p)
                .sum::<f64>();
        srv.deploy_lab(staff, lab).unwrap();
        let solution = wb_labs::solution(id).unwrap();
        // Space submissions out in time so the rate limiter is happy.
        let now = (k as u64 + 1) * 3_600_000;
        srv.save_code(student, id, solution, now).unwrap();
        let sub = srv
            .submit(&SubmitRequest::full_grade(student, id).at(now + 1_000))
            .unwrap();
        assert!(sub.compiled, "{id} must compile");
        assert_eq!(sub.passed, sub.total, "{id} must pass all datasets");
        let score = sub.score.expect("graded");
        assert!(
            (score - max_auto).abs() < 1e-9,
            "{id}: score {score} != max auto-gradable {max_auto}"
        );
    }
}

#[test]
fn mobile_login_statistic_flows_to_the_database() {
    // §II-B: ~2% of logins come from tablets/phones; the servers track
    // it end to end.
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(1)
        .build_v1();
    let srv = WebGpuServer::new(Box::new(cluster));
    for i in 0..50 {
        let name = format!("u{i}");
        srv.register_student(&name, "pw").unwrap();
        let device = if i % 50 == 0 {
            DeviceKind::Phone
        } else {
            DeviceKind::Desktop
        };
        srv.login(&name, "pw", device, i).unwrap();
    }
    let frac = srv.state.mobile_login_fraction();
    assert!((frac - 0.02).abs() < 1e-9);
}

#[test]
fn full_journey_on_the_openedx_frontend() {
    // WebGPU 2.0's student path: the OpenEdx XBlock enqueues to the
    // broker; a small fleet polls; datasets round-trip the blob store.
    use wb_queue::ShardedBroker;
    use wb_server::edx::{BlobStore, EdxFrontend};
    use wb_worker::{NodeConfig, WorkerNode};

    let broker = Arc::new(ShardedBroker::new(1, 60_000, 3));
    let cfg = NodeConfig::new(minicuda::DeviceConfig::test_small());
    let workers = (1..=2)
        .map(|id| Arc::new(WorkerNode::launch(id, &cfg)))
        .collect::<Vec<_>>();

    // The instructor uploads the lab datasets to the bucket; the
    // deployment fetches them back (what the worker-side would do).
    let store = BlobStore::new();
    let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
    EdxFrontend::upload_datasets(&store, "vecadd", &lab.datasets);
    let fetched = EdxFrontend::fetch_datasets(&store, "vecadd").unwrap();
    assert_eq!(fetched.len(), lab.datasets.len());
    for (a, b) in fetched.iter().zip(&lab.datasets) {
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.expected, b.expected);
    }

    let edx = EdxFrontend::new(broker, workers);
    let (srv, staff, alice) = server_on(Box::new(edx));
    student_journey(&srv, staff, alice);
}
