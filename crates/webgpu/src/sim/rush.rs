//! Deadline-rush workload generator: several courses share one fleet
//! while a single course's submission rate surges an order of
//! magnitude — the Wednesday-evening shape of Figure 1, reduced to a
//! deterministic per-round arrival stream that benches and tests can
//! replay exactly.

use wb_labs::LabScale;
use wb_worker::{DatasetCase, JobAction, JobRequest, LabSpec};

/// One course's steady contribution to the rush.
pub struct CourseLoad {
    /// Course id (the scheduler's arbitration key).
    pub course: String,
    /// Catalog lab its students are submitting.
    pub lab_id: String,
    /// Submissions arriving every round.
    pub jobs_per_round: usize,
    spec: LabSpec,
    datasets: Vec<DatasetCase>,
    solution: String,
}

impl CourseLoad {
    /// Build a course load from the lab catalog, stamping `course`
    /// onto the spec.
    pub fn new(course: &str, lab_id: &str, jobs_per_round: usize) -> Self {
        let lab = wb_labs::definition(lab_id, LabScale::Small).expect("catalog lab");
        let mut spec = lab.spec.clone();
        spec.course = course.to_string();
        CourseLoad {
            course: course.to_string(),
            lab_id: lab_id.to_string(),
            jobs_per_round,
            spec,
            datasets: lab.datasets,
            solution: wb_labs::solution(lab_id)
                .expect("catalog solution")
                .to_string(),
        }
    }
}

/// A deterministic multi-course rush: each round, every course emits
/// its `jobs_per_round` submissions. Job ids are a function of (round,
/// offset) alone, so two replays of the same scenario are identical.
pub struct RushScenario {
    /// Arrival rounds.
    pub rounds: usize,
    /// The participating courses.
    pub courses: Vec<CourseLoad>,
}

impl RushScenario {
    /// The Wednesday shape: three catalog courses on one fleet, with
    /// `ece408` (the surging course) submitting `surge`× the others'
    /// rate — the paper's 10× pre-deadline spike at `surge = 10`.
    pub fn wednesday(rounds: usize, surge: usize) -> Self {
        RushScenario {
            rounds,
            courses: vec![
                CourseLoad::new("hpp", "vecadd", 1),
                CourseLoad::new("ece408", "matmul", surge),
                CourseLoad::new("ece598", "stencil", 1),
            ],
        }
    }

    /// Submissions arriving per round across all courses.
    fn per_round(&self) -> usize {
        self.courses.iter().map(|c| c.jobs_per_round).sum()
    }

    /// Total submissions the scenario emits.
    pub fn total_jobs(&self) -> usize {
        self.rounds * self.per_round()
    }

    /// The arrivals for one round. Every request carries a unique,
    /// replay-stable job id and a per-job source perturbation (a
    /// trailing attempt comment), so the submission cache cannot
    /// collapse the rush into one compile.
    pub fn arrivals(&self, round: usize) -> Vec<JobRequest> {
        let mut out = Vec::with_capacity(self.per_round());
        let base = (round * self.per_round()) as u64 + 1;
        for cl in &self.courses {
            for _ in 0..cl.jobs_per_round {
                let job_id = base + out.len() as u64;
                out.push(JobRequest {
                    job_id,
                    user: format!("{}-student{}", cl.course, job_id % 97),
                    source: format!("{}\n// attempt {job_id}\n", cl.solution),
                    spec: cl.spec.clone(),
                    datasets: cl.datasets.clone(),
                    action: JobAction::FullGrade,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wednesday_surges_one_course_tenfold() {
        let s = RushScenario::wednesday(4, 10);
        assert_eq!(s.per_round(), 12);
        assert_eq!(s.total_jobs(), 48);
        let surging = s.courses.iter().find(|c| c.course == "ece408").unwrap();
        let quiet = s.courses.iter().find(|c| c.course == "hpp").unwrap();
        assert_eq!(surging.jobs_per_round, 10 * quiet.jobs_per_round);
    }

    #[test]
    fn arrivals_are_replay_stable_and_cache_distinct() {
        let s = RushScenario::wednesday(3, 4);
        let a = s.arrivals(1);
        let b = s.arrivals(1);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.job_id, y.job_id, "replays are identical");
            assert_eq!(x.source, y.source);
        }
        // Unique ids across rounds, unique sources within a course.
        let next = s.arrivals(2);
        assert!(a.iter().all(|x| next.iter().all(|y| y.job_id != x.job_id)));
        let sources: std::collections::BTreeSet<&str> =
            a.iter().map(|r| r.source.as_str()).collect();
        assert_eq!(sources.len(), a.len(), "every submission compiles fresh");
        // The course key rides on every spec.
        assert!(a.iter().any(|r| r.spec.course == "ece408"));
        assert!(a.iter().any(|r| r.spec.course == "hpp"));
        assert!(a.iter().any(|r| r.spec.course == "ece598"));
    }
}
