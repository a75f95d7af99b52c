//! End-to-end course runs: real labs + the web server + a cluster +
//! simulated students.
//!
//! `CourseRun` deploys a Table II course's labs, registers a cohort,
//! and walks it week by week: students save code (some submit the
//! reference solution, some a buggy variant, some give up mid-course),
//! run datasets, answer questions, and submit. The report aggregates
//! what the instructor roster would show.

use libwb::rng::SplitMix64;
use wb_labs::{catalog, LabScale};
use wb_server::{DeviceKind, JobDispatcher, SubmitRequest, WebGpuServer};

use crate::sim::population::sample_device;

/// Configuration for a simulated course offering.
#[derive(Debug, Clone, PartialEq)]
pub struct CourseRun {
    /// Catalog course id (`hpp`, `ece408`, `ece598`, `pumps`).
    pub course_id: String,
    /// Cohort size (scaled down from real enrollments for test speed).
    pub students: usize,
    /// Weekly probability an active student continues.
    pub weekly_continue: f64,
    /// Probability a student's submission is buggy in a given week.
    pub buggy_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CourseRun {
    /// A small, fast configuration for tests.
    pub fn small(course_id: &str) -> Self {
        CourseRun {
            course_id: course_id.to_string(),
            students: 8,
            weekly_continue: 0.8,
            buggy_fraction: 0.25,
            seed: 42,
        }
    }
}

/// Per-lab aggregate of a course run.
#[derive(Debug, Clone, PartialEq)]
pub struct LabReport {
    /// Lab id.
    pub lab_id: String,
    /// Students who submitted.
    pub submitters: usize,
    /// Submissions that scored full dataset points.
    pub perfect: usize,
    /// Mean auto-score across submitters.
    pub mean_score: f64,
}

/// The whole course's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CourseReport {
    /// Course id.
    pub course_id: String,
    /// Students registered.
    pub registered: usize,
    /// Students still active in each lab-week.
    pub weekly_active: Vec<usize>,
    /// Students who finished every lab.
    pub completions: usize,
    /// Per-lab aggregates, in catalog order.
    pub labs: Vec<LabReport>,
    /// Total jobs dispatched to the cluster.
    pub jobs: u64,
}

/// Run a course against any dispatcher-backed cluster.
fn run_course(cfg: &CourseRun, dispatcher: Box<dyn JobDispatcher>) -> CourseReport {
    let mut rng = SplitMix64::new(cfg.seed);
    let srv = WebGpuServer::new(dispatcher);
    srv.register_instructor("staff", "pw")
        .expect("fresh server");
    let staff = srv
        .login("staff", "pw", DeviceKind::Desktop, 0)
        .expect("instructor login");

    let lab_ids = catalog::labs_for_course(&cfg.course_id);
    assert!(!lab_ids.is_empty(), "unknown course {}", cfg.course_id);
    for id in &lab_ids {
        let mut lab = wb_labs::definition(id, LabScale::Small).expect("catalog lab");
        // Stamp the offering onto the spec: the fair-share scheduler
        // arbitrates between courses by this key.
        lab.spec.course = cfg.course_id.clone();
        srv.deploy_lab(staff, lab).expect("deploy");
    }

    // Register and log in the cohort.
    let mut tokens = Vec::new();
    for i in 0..cfg.students {
        let name = format!("student{i}");
        srv.register_student(&name, "pw").expect("register");
        let device = sample_device(&mut rng);
        let token = srv.login(&name, "pw", device, 0).expect("login");
        tokens.push((name, token));
    }

    let mut active: Vec<bool> = vec![true; cfg.students];
    let mut weekly_active = Vec::new();
    let mut jobs = 0u64;
    let mut lab_reports: Vec<LabReport> = lab_ids
        .iter()
        .map(|id| LabReport {
            lab_id: id.to_string(),
            submitters: 0,
            perfect: 0,
            mean_score: 0.0,
        })
        .collect();

    let week_ms: u64 = 7 * 24 * 3600 * 1000;
    for (week, lab_id) in lab_ids.iter().enumerate() {
        // Dropout between weeks.
        if week > 0 {
            for a in active.iter_mut() {
                if *a && !rng.bool(cfg.weekly_continue) {
                    *a = false;
                }
            }
        }
        weekly_active.push(active.iter().filter(|&&a| a).count());

        let solution = wb_labs::solution(lab_id).expect("catalog solution");
        let report = &mut lab_reports[week];
        let mut score_sum = 0.0;
        for (i, (_, token)) in tokens.iter().enumerate() {
            if !active[i] {
                continue;
            }
            let now = week as u64 * week_ms + (i as u64 + 1) * 60_000;
            let buggy = rng.bool(cfg.buggy_fraction);
            let source = if buggy {
                // A plausible bug: drop the final character block of
                // the kernel's body guard by mangling a comparison.
                solution
                    .replacen("i < n", "i <= n", 1)
                    .replacen("row < m", "row <= m", 1)
            } else {
                solution.to_string()
            };
            srv.save_code(*token, lab_id, &source, now).expect("save");
            let sub = match srv.submit(&SubmitRequest::full_grade(*token, lab_id).at(now + 1_000)) {
                Ok(s) => s,
                Err(e) => panic!("submission failed: {e}"),
            };
            jobs += 1;
            report.submitters += 1;
            score_sum += sub.score.unwrap_or(0.0);
            if sub.all_passed() {
                report.perfect += 1;
            }
        }
        if report.submitters > 0 {
            report.mean_score = score_sum / report.submitters as f64;
        }
    }

    CourseReport {
        course_id: cfg.course_id.clone(),
        registered: cfg.students,
        weekly_active,
        completions: active.iter().filter(|&&a| a).count(),
        labs: lab_reports,
        jobs,
    }
}

/// Convenience: run a course on a fresh v1 cluster of `workers` nodes.
pub fn run_course_v1(cfg: &CourseRun, workers: usize) -> CourseReport {
    let cluster = crate::ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(workers)
        .build_v1();
    run_course(cfg, Box::new(cluster))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::AutoscalePolicy;

    #[test]
    fn small_hpp_course_runs_end_to_end_on_v1() {
        let cfg = CourseRun {
            course_id: "hpp".to_string(),
            students: 4,
            weekly_continue: 0.9,
            buggy_fraction: 0.25,
            seed: 7,
        };
        let report = run_course_v1(&cfg, 2);
        assert_eq!(report.labs.len(), 8, "HPP hosts 8 labs");
        assert_eq!(report.registered, 4);
        assert!(report.jobs > 0);
        // Activity never grows.
        assert!(report.weekly_active.windows(2).all(|w| w[0] >= w[1]));
        // Clean submissions score 80+ (compile + datasets); buggy ones
        // drag the mean below the max but the first lab has submitters.
        assert!(report.labs[0].submitters > 0);
    }

    #[test]
    fn pumps_course_includes_mpi_on_v2() {
        let cfg = CourseRun {
            course_id: "pumps".to_string(),
            students: 2,
            weekly_continue: 1.0, // the one-week school has no dropout
            buggy_fraction: 0.0,
            seed: 9,
        };
        // The MPI lab is tagged and a default v2 fleet lacks the tags,
        // so grow capabilities first via the config service.
        let cluster = crate::v2::ClusterV2::new(
            2,
            minicuda::DeviceConfig::test_small(),
            AutoscalePolicy::Static(2),
        );
        cluster.config.update(|c| {
            c.capabilities.insert("mpi".into());
            c.capabilities.insert("multi-gpu".into());
            c.image = "webgpu/full".to_string();
        });
        let report = run_course(&cfg, Box::new(cluster));
        assert!(report.labs.iter().any(|l| l.lab_id == "mpi-stencil"));
        let mpi = report
            .labs
            .iter()
            .find(|l| l.lab_id == "mpi-stencil")
            .unwrap();
        assert_eq!(mpi.perfect, 2, "clean solutions pass the MPI lab");
        assert_eq!(report.completions, 2);
    }

    #[test]
    fn buggy_students_score_less_than_clean_ones() {
        let clean = run_course_v1(
            &CourseRun {
                course_id: "ece408".to_string(),
                students: 3,
                weekly_continue: 1.0,
                buggy_fraction: 0.0,
                seed: 1,
            },
            1,
        );
        let buggy = run_course_v1(
            &CourseRun {
                course_id: "ece408".to_string(),
                students: 3,
                weekly_continue: 1.0,
                buggy_fraction: 1.0,
                seed: 1,
            },
            1,
        );
        let clean_mean: f64 =
            clean.labs.iter().map(|l| l.mean_score).sum::<f64>() / clean.labs.len() as f64;
        let buggy_mean: f64 =
            buggy.labs.iter().map(|l| l.mean_score).sum::<f64>() / buggy.labs.len() as f64;
        assert!(
            clean_mean > buggy_mean,
            "clean {clean_mean} vs buggy {buggy_mean}"
        );
    }
}
