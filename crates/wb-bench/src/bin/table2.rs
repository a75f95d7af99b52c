//! Experiment T2 — regenerate Table II: the labs × courses matrix.
//! Every `x` cell is *earned*: the lab's reference solution is
//! compiled, executed, and graded on a worker configured for that
//! course before the cell is printed.
//! The run fails unless every offered cell grades to 100%.

use minicuda::DeviceConfig;
use wb_bench::reference_job;
use wb_labs::{catalog, LabScale};
use wb_worker::{execute, JobAction, RunCtx};

fn main() {
    let courses = catalog::courses();
    println!("Table II — WebGPU-hosted labs and the courses they are used for");
    println!("(each x = reference solution graded to 100% on a simulated worker)\n");
    println!(
        "{:<28} {:<52} {:>4} {:>4} {:>4} {:>6}",
        "Lab", "Description", "HPP", "408", "598", "PUMPS"
    );

    let device = DeviceConfig::test_small();
    let mut job_id = 0;
    let mut failed = 0u64;
    for entry in catalog::table() {
        let mut cells = Vec::new();
        for course in &courses {
            if !entry.courses[course.column] {
                cells.push(" ".to_string());
                continue;
            }
            job_id += 1;
            let req = reference_job(entry.id, job_id, LabScale::Small, JobAction::FullGrade);
            let out = execute(&req, &RunCtx::new(&device));
            let ok = out.compiled() && out.passed_count() == out.datasets.len();
            if !ok {
                failed += 1;
            }
            cells.push(if ok {
                "x".to_string()
            } else {
                "FAIL".to_string()
            });
        }
        println!(
            "{:<28} {:<52} {:>4} {:>4} {:>4} {:>6}",
            entry.name, entry.teaches, cells[0], cells[1], cells[2], cells[3]
        );
    }

    println!("\ncourse offerings:");
    for c in courses {
        println!(
            "  {:<7} {} — {} labs, {} weeks{}",
            c.id,
            c.name,
            catalog::labs_for_course(c.id).len(),
            c.weeks,
            if c.peer_review { ", peer review" } else { "" }
        );
    }

    assert_eq!(failed, 0, "every offered cell must grade to 100%");
}
