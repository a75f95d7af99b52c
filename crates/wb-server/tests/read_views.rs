//! The server's read views, pinned row for row: the attempts view,
//! `share_attempt`, the roster, the gradebook post and `current_code`
//! return exactly the rows and text the student's actions stored,
//! whatever form the tables keep them in. Sources here repeat across
//! rows, users and tables, and include non-ASCII text and an empty
//! file, so a table that shares equal texts between rows must hand each
//! row back byte for byte.

use std::collections::HashMap;
use wb_obs::sync::Mutex;
use wb_server::state::{AttemptRec, SubmissionRec};
use wb_server::{
    CourseraGradebook, DeviceKind, GradePost, JobDispatcher, LabDefinition, RosterRow,
    SubmitRequest, WbError, WebGpuServer,
};
use wb_worker::{JobOutcome, JobRequest, NodeConfig, WorkerNode};

/// Runs each job at submit time on one in-process worker.
struct LocalDispatcher {
    node: WorkerNode,
    done: Mutex<HashMap<u64, JobOutcome>>,
}

impl JobDispatcher for LocalDispatcher {
    fn submit_queued(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        let outcome = self
            .node
            .submit(&req, now_ms)
            .ok_or_else(|| WbError::infra("worker unavailable"))?;
        self.done.lock().insert(req.job_id, outcome);
        Ok(req.job_id)
    }

    fn advance(&self, _now_ms: u64) -> usize {
        0
    }

    fn take_ready(&self, wanted: &dyn Fn(u64) -> bool) -> Vec<JobOutcome> {
        let mut done = self.done.lock();
        done.extract_if(|&id, _| wanted(id)).map(|e| e.1).collect()
    }
}

const ECHO: &str = "int main() {\n    int n;\n    float* a = wbImportVector(0, &n);\n    wbSolution(a, n);\n    return 0;\n}\n";

/// `ECHO` behind a non-ASCII comment: the same program, another text.
fn accented() -> String {
    format!("// vérifié ✓ — écho\n{ECHO}")
}

const BROKEN: &str = "int oops( {\n";

/// The echo lab's deadline (`LabDefinition::test_lab`).
const DEADLINE_MS: u64 = 7 * 24 * 3600 * 1000;

/// A server with the echo lab, an instructor and two students.
fn server() -> (WebGpuServer, u64, u64, u64) {
    let dispatcher = LocalDispatcher {
        node: WorkerNode::launch(1, &NodeConfig::new(minicuda::DeviceConfig::test_small())),
        done: Mutex::new(HashMap::new()),
    };
    let srv = WebGpuServer::new(Box::new(dispatcher));
    srv.register_instructor("prof", "pw").unwrap();
    srv.register_student("alice", "pw").unwrap();
    srv.register_student("bob", "pw").unwrap();
    let staff = srv.login("prof", "pw", DeviceKind::Desktop, 0).unwrap();
    let alice = srv.login("alice", "pw", DeviceKind::Desktop, 0).unwrap();
    let bob = srv.login("bob", "pw", DeviceKind::Desktop, 0).unwrap();
    srv.deploy_lab(staff, LabDefinition::test_lab("echo"))
        .unwrap();
    (srv, staff, alice, bob)
}

fn attempt(
    user: &str,
    dataset: Option<usize>,
    at_ms: u64,
    outcome: (bool, bool, &str),
    source: &str,
) -> AttemptRec {
    let (compiled, passed, summary) = outcome;
    AttemptRec {
        user: user.to_string(),
        lab: "echo".to_string(),
        dataset,
        at_ms,
        compiled,
        passed,
        summary: summary.to_string(),
        source: source.to_string(),
        share_token: None,
    }
}

fn submission(user: &str, at_ms: u64, score: f64, source: &str) -> SubmissionRec {
    SubmissionRec {
        user: user.to_string(),
        lab: "echo".to_string(),
        at_ms,
        passed: 1,
        total: 1,
        compiled: true,
        score,
        override_score: None,
        source: source.to_string(),
    }
}

const COMPILED: (bool, bool, &str) = (true, false, "Compilation successful.");
const RAN: (bool, bool, &str) = (true, true, "[d0] Solution is correct (3 values checked)");
/// The report's first line runs into the hint appended after it.
const FAILED: (bool, bool, &str) = (
    false,
    false,
    "Compilation failed: 1:11: syntax error: expected a type, found `{`Hint: Compilation failed: \
     1:11: syntax error: expected a type, found `{`. Fix the first error the compiler reports; \
     later ones are often cascades.",
);

#[test]
fn the_attempts_view_returns_each_attempt_as_stored() {
    let (srv, _, alice, bob) = server();
    let accented = accented();
    // Alice: the same text twice, another text, a broken file, an empty
    // file; bob: alice's text. Each user/lab pair refills a token every
    // 15 s, so requests are 20 s apart.
    let runs = [
        SubmitRequest::compile_only(alice, "echo").with_source(ECHO),
        SubmitRequest::run_dataset(alice, "echo", 0).with_source(ECHO),
        SubmitRequest::run_dataset(alice, "echo", 0).with_source(accented.as_str()),
        SubmitRequest::compile_only(alice, "echo").with_source(BROKEN),
        SubmitRequest::compile_only(alice, "echo").with_source(""),
        SubmitRequest::run_dataset(bob, "echo", 0).with_source(ECHO),
    ];
    let mut ids = Vec::new();
    for (i, req) in runs.into_iter().enumerate() {
        let at = 20_000 * (i as u64 + 1);
        match srv.submit(&req.at(at)) {
            Ok(out) => ids.push(out.record_id),
            Err(WbError::CompileError { .. }) => {}
            Err(e) => panic!("attempt {i}: {e:?}"),
        }
    }
    let want_alice = vec![
        attempt("alice", None, 20_000, COMPILED, ECHO),
        attempt("alice", Some(0), 40_000, RAN, ECHO),
        attempt("alice", Some(0), 60_000, RAN, &accented),
        attempt("alice", None, 80_000, FAILED, BROKEN),
        attempt("alice", None, 100_000, COMPILED, ""),
    ];
    assert_eq!(srv.attempts(alice, "echo").unwrap(), want_alice);
    let want_bob = vec![attempt("bob", Some(0), 120_000, RAN, ECHO)];
    assert_eq!(srv.attempts(bob, "echo").unwrap(), want_bob);

    // The table's own reads agree with the view, row for row.
    let scanned: Vec<AttemptRec> = srv
        .state
        .attempts
        .scan()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    let all: Vec<AttemptRec> = want_alice.iter().chain(&want_bob).cloned().collect();
    assert_eq!(scanned, all);
    for (id, row) in srv.state.attempts.scan() {
        assert_eq!(srv.state.attempts.get(id).unwrap(), row);
    }
    assert_eq!(
        srv.state
            .attempts
            .find("by_user_lab", "alice/echo")
            .unwrap()
            .len(),
        5
    );
    assert_eq!(ids.len(), 5, "the broken file is an error");
}

#[test]
fn sharing_an_attempt_changes_only_its_token() {
    let (srv, _, alice, bob) = server();
    let first = srv
        .submit(
            &SubmitRequest::compile_only(alice, "echo")
                .with_source(ECHO)
                .at(20_000),
        )
        .unwrap();
    let second = srv
        .submit(
            &SubmitRequest::compile_only(alice, "echo")
                .with_source(ECHO)
                .at(40_000),
        )
        .unwrap();
    assert!(matches!(
        srv.share_attempt(alice, first.record_id, DEADLINE_MS - 1),
        Err(WbError::Rejected { .. })
    ));
    assert!(matches!(
        srv.share_attempt(bob, first.record_id, DEADLINE_MS),
        Err(WbError::Rejected { .. })
    ));
    let token = srv
        .share_attempt(alice, first.record_id, DEADLINE_MS)
        .unwrap();
    let shared = AttemptRec {
        share_token: Some(token),
        ..attempt("alice", None, 20_000, COMPILED, ECHO)
    };
    assert_eq!(
        srv.attempts(alice, "echo").unwrap(),
        vec![
            shared.clone(),
            attempt("alice", None, 40_000, COMPILED, ECHO)
        ]
    );
    assert_eq!(srv.state.attempts.get(first.record_id).unwrap(), shared);
    // Sharing again mints a new token over the same row.
    let again = srv
        .share_attempt(alice, first.record_id, DEADLINE_MS + 1)
        .unwrap();
    assert_ne!(again, token);
    assert_eq!(
        srv.state.attempts.get(first.record_id).unwrap(),
        AttemptRec {
            share_token: Some(again),
            ..shared
        }
    );
    assert_eq!(
        srv.state.attempts.get(second.record_id).unwrap(),
        attempt("alice", None, 40_000, COMPILED, ECHO)
    );
}

#[test]
fn roster_and_gradebook_read_the_graded_rows() {
    let (srv, staff, alice, bob) = server();
    let accented = accented();
    let grade = |token, source: &str, at| {
        srv.submit(
            &SubmitRequest::full_grade(token, "echo")
                .with_source(source)
                .at(at),
        )
        .unwrap()
    };
    let a1 = grade(alice, ECHO, 20_000);
    let a2 = grade(alice, &accented, 40_000);
    let b1 = grade(bob, ECHO, 60_000);
    assert_eq!(
        [a1.score, a2.score, b1.score],
        [Some(90.0), Some(90.0), Some(90.0)]
    );
    srv.override_grade(staff, a2.record_id, 95.5).unwrap();
    srv.answer_questions(bob, "echo", vec!["Rayleigh".into()])
        .unwrap();
    srv.grade_questions(staff, "bob", "echo", 7.0, None)
        .unwrap();

    let want = vec![
        submission("alice", 20_000, 90.0, ECHO),
        SubmissionRec {
            override_score: Some(95.5),
            ..submission("alice", 40_000, 90.0, &accented)
        },
        submission("bob", 60_000, 90.0, ECHO),
    ];
    let ids = [a1.record_id, a2.record_id, b1.record_id];
    for (id, row) in ids.iter().zip(&want) {
        assert_eq!(&srv.state.submissions.get(*id).unwrap(), row);
    }
    let scanned: Vec<SubmissionRec> = srv
        .state
        .submissions
        .scan()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    assert_eq!(scanned, want);
    assert_eq!(
        srv.state.submissions.find("by_lab", "echo").unwrap(),
        ids.to_vec()
    );

    assert_eq!(
        srv.roster(staff, "echo").unwrap(),
        vec![
            RosterRow {
                user: "alice".into(),
                email: "alice@students.example.edu".into(),
                submissions: 2,
                program_grade: 95.5,
                question_grade: 0.0,
                total_grade: 95.5,
                last_submission_ms: Some(40_000),
            },
            RosterRow {
                user: "bob".into(),
                email: "bob@students.example.edu".into(),
                submissions: 1,
                program_grade: 90.0,
                question_grade: 7.0,
                total_grade: 97.0,
                last_submission_ms: Some(60_000),
            },
        ]
    );

    let gradebook = CourseraGradebook::new();
    assert_eq!(
        srv.publish_grades(staff, "echo", &gradebook, 99_000)
            .unwrap(),
        3
    );
    let post = |user: &str, score| GradePost {
        user: user.to_string(),
        lab: "echo".to_string(),
        score,
        at_ms: 99_000,
    };
    assert_eq!(
        gradebook.posts(),
        vec![post("alice", 90.0), post("alice", 95.5), post("bob", 97.0)]
    );
}

#[test]
fn current_code_returns_the_latest_save_byte_for_byte() {
    let (srv, _, alice, bob) = server();
    let skeleton = "int main() {\n    // your code here\n    return 0;\n}\n";
    assert_eq!(srv.current_code(alice, "echo").unwrap(), skeleton);
    let accented = accented();
    let saves = [
        ECHO,
        accented.as_str(),
        "",
        ECHO,
        "  trailing spaces \t\n\n",
    ];
    for (i, text) in saves.iter().enumerate() {
        srv.save_code(alice, "echo", text, 1_000 * i as u64)
            .unwrap();
        assert_eq!(srv.current_code(alice, "echo").unwrap(), *text);
    }
    srv.save_code(bob, "echo", ECHO, 9_000).unwrap();
    assert_eq!(srv.current_code(bob, "echo").unwrap(), ECHO);
    assert_eq!(
        srv.current_code(alice, "echo").unwrap(),
        "  trailing spaces \t\n\n"
    );
    // A submission without inline source runs the latest save and
    // stores it.
    srv.save_code(alice, "echo", &accented, 10_000).unwrap();
    let out = srv
        .submit(&SubmitRequest::run_dataset(alice, "echo", 0).at(20_000))
        .unwrap();
    assert_eq!(
        srv.state.attempts.get(out.record_id).unwrap(),
        attempt("alice", Some(0), 20_000, RAN, &accented)
    );
}
