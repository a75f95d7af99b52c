//! Security integration (experiment S5): the two-layer sandbox under
//! adversarial submissions, end to end through the worker pipeline.

use minicuda::DeviceConfig;
use wb_labs::LabScale;
use wb_sandbox::{Blacklist, ScanMode};
use wb_worker::{execute, JobAction, JobRequest, RunCtx};

fn request_with(source: &str) -> JobRequest {
    let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
    JobRequest {
        job_id: 1,
        user: "mallory".into(),
        source: source.to_string(),
        spec: lab.spec,
        datasets: lab.datasets,
        action: JobAction::FullGrade,
    }
}

#[test]
fn inline_asm_rejected_at_compile_time() {
    let out = execute(
        &request_with("int main() { asm(\"syscall\"); return 0; }"),
        &RunCtx::new(&DeviceConfig::test_small()),
    );
    let err = out.compile_error.expect("blacklist fires");
    assert!(err.contains("asm"));
    assert!(out.datasets.is_empty(), "nothing executed");
}

#[test]
fn blacklist_fires_even_inside_comments() {
    // The paper documents this false positive as an accepted trade-off.
    let out = execute(
        &request_with("// I promise not to use asm\nint main() { return 0; }"),
        &RunCtx::new(&DeviceConfig::test_small()),
    );
    assert!(out.compile_error.is_some());
}

#[test]
fn preprocessed_scan_mode_is_the_documented_alternative() {
    let raw = Blacklist::standard();
    let pre = Blacklist::standard().with_mode(ScanMode::Preprocessed);
    let commented = "// asm in a comment only\nint main() { return 0; }";
    let real = "int main() { asm(\"x\"); return 0; }";
    assert!(!raw.permits(commented), "raw scan: false positive");
    assert!(
        pre.permits(commented),
        "preprocessed scan: no false positive"
    );
    assert!(
        !raw.permits(real) && !pre.permits(real),
        "both catch real use"
    );
}

#[test]
fn non_whitelisted_call_killed_at_runtime() {
    // MPI calls are not in the vecadd lab's whitelist: seccomp-style
    // kill with a security diagnostic, reported per dataset.
    let source = r#"
        int main() {
            int r = wbMPI_rank();
            return 0;
        }
    "#;
    let out = execute(
        &request_with(source),
        &RunCtx::new(&DeviceConfig::test_small()),
    );
    assert!(out.compiled(), "compiles fine — dies at runtime");
    for d in &out.datasets {
        let err = d.error.as_ref().expect("killed");
        assert_eq!(err.phase, minicuda::Phase::Security);
    }
}

#[test]
fn runaway_kernel_hits_the_time_limit() {
    let source = r#"
        __global__ void spin() { int x = 0; while (1) { x = x + 1; } }
        int main() { spin<<<4, 64>>>(); return 0; }
    "#;
    let mut req = request_with(source);
    req.spec.limits = wb_sandbox::ResourceLimits::strict();
    let out = execute(&req, &RunCtx::new(&DeviceConfig::test_small()));
    assert!(out.compiled());
    for d in &out.datasets {
        assert_eq!(
            d.error.as_ref().expect("timed out").phase,
            minicuda::Phase::Limit
        );
    }
}

#[test]
fn runaway_host_loop_hits_the_time_limit() {
    let source = "int main() { while (1) { int x = 0; } return 0; }";
    let mut req = request_with(source);
    req.spec.limits = wb_sandbox::ResourceLimits::strict();
    let out = execute(&req, &RunCtx::new(&DeviceConfig::test_small()));
    for d in &out.datasets {
        assert_eq!(d.error.as_ref().unwrap().phase, minicuda::Phase::Limit);
    }
}

#[test]
fn memory_bomb_hits_the_device_memory_cap() {
    let source = r#"
        int main() {
            float* p;
            while (1) { cudaMalloc(&p, 1024 * 1024 * 1024); }
            return 0;
        }
    "#;
    let out = execute(
        &request_with(source),
        &RunCtx::new(&DeviceConfig::test_small()),
    );
    for d in &out.datasets {
        let err = d.error.as_ref().expect("must fail");
        assert!(
            err.message.contains("out of device memory"),
            "unexpected: {err}"
        );
    }
}

#[test]
fn oversized_source_rejected_before_any_work() {
    let huge = format!("int main() {{ return 0; }} // {}", "x".repeat(400 * 1024));
    let out = execute(
        &request_with(&huge),
        &RunCtx::new(&DeviceConfig::test_small()),
    );
    assert!(out.compile_error.expect("size gate").contains("at most"));
}

#[test]
fn log_flood_is_truncated_not_fatal() {
    let source = r#"
        int main() {
            for (int i = 0; i < 100000; i++) {
                wbLog(TRACE, "spam spam spam spam spam spam", i);
            }
            int n;
            float* a = wbImportVector(0, &n);
            wbSolution(a, n);
            return 0;
        }
    "#;
    // Use the echo-style identity so the solution still matches d0's
    // inputs (vecadd expects a sum, so run dataset comparison will
    // fail, but the run itself must complete with a truncated log).
    let mut req = request_with(source);
    req.action = JobAction::RunDataset(0);
    let out = execute(&req, &RunCtx::new(&DeviceConfig::test_small()));
    let d = &out.datasets[0];
    assert!(d.error.is_none(), "{:?}", d.error);
    assert!(d.log_text.contains("truncated"));
}

#[test]
fn sandbox_escape_attempts_are_contained_to_the_job_dir() {
    use wb_sandbox::JobDir;
    let mut dir = JobDir::create(77, 1024);
    assert!(dir.write("/etc/cron.d/backdoor", b"evil").is_err());
    assert!(dir.write("../../job-76/solution.cu", b"steal").is_err());
    assert!(dir.read("/proc/self/environ").is_err());
    // Normal use still works and the owner is unprivileged.
    dir.write("solution.cu", b"int main(){}").unwrap();
    assert_ne!(dir.uid(), 0);
}

#[test]
fn worker_isolation_keeps_database_out_of_reach() {
    // §III-D: "a user able to thwart our security measures would be
    // confined to the worker node and cannot access critical data
    // found on the database." Structurally: the JobRequest/JobOutcome
    // envelope is the worker's entire interface — it contains no
    // database handles. This test asserts the boundary by running a
    // hostile job and checking the server state afterwards.
    use wb_server::{DeviceKind, SubmitRequest, WebGpuServer};
    use webgpu::ClusterBuilder;
    let cluster = ClusterBuilder::new(DeviceConfig::test_small()).build_v1();
    let srv = WebGpuServer::new(Box::new(cluster));
    srv.register_instructor("prof", "pw").unwrap();
    let staff = srv.login("prof", "pw", DeviceKind::Desktop, 0).unwrap();
    srv.deploy_lab(
        staff,
        wb_labs::definition("vecadd", LabScale::Small).unwrap(),
    )
    .unwrap();
    srv.register_student("mallory", "pw").unwrap();
    let m = srv.login("mallory", "pw", DeviceKind::Desktop, 0).unwrap();
    let users_before = srv.state.users.len();
    srv.save_code(
        m,
        "vecadd",
        "int main() { while (1) { int x = 0; } return 0; }",
        0,
    )
    .unwrap();
    let _ = srv.submit(&SubmitRequest::full_grade(m, "vecadd").at(1_000));
    assert_eq!(srv.state.users.len(), users_before, "user table untouched");
}
