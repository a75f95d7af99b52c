//! `wb-bench` — the nine paper-figure printers plus the semester
//! replay library (see DESIGN.md's experiment index).
//!
//! Each binary prints its table and then `assert!`s the deterministic
//! invariant the artifact stands on, so its exit code is the gate.
//! Nothing here times anything: `wb-ledger` is the repo's one timing
//! instrument.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I — registrations/completions/certificates |
//! | `figure1` | Figure 1 — active students per hour |
//! | `table2` | Table II — labs × courses matrix |
//! | `arch_v1` | Fig. 2 — v1 push architecture characterization |
//! | `arch_v2` | Fig. 6 — v1 vs v2 under heterogeneous tagged jobs |
//! | `container_overhead` | Fig. 7 / ref. 18 — container pool overhead |
//! | `provisioning` | §II-C — static vs reactive vs scheduled vs spot-aware fleets |
//! | `peer_review` | §IV-D — review starvation vs dropout |
//! | `faults` | §III — fault injection and recovery |
//!
//! [`semester`] replays Figure 1 at a multiple of the 2012 load through
//! the full stack; `tests/semester_replay.rs` holds its contracts.

pub mod semester;

use wb_labs::LabScale;
use wb_worker::{JobAction, JobRequest};

/// Build a grading job for a catalog lab's reference solution.
pub fn reference_job(lab_id: &str, job_id: u64, scale: LabScale, action: JobAction) -> JobRequest {
    let lab = wb_labs::definition(lab_id, scale).expect("catalog lab");
    JobRequest {
        job_id,
        user: "bench".into(),
        source: wb_labs::solution(lab_id)
            .expect("catalog solution")
            .to_string(),
        spec: lab.spec,
        datasets: lab.datasets,
        action,
    }
}

/// A fixed-width ASCII sparkline for terminal figures.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    let bucket = values.len().div_ceil(width);
    values
        .chunks(bucket)
        .map(|c| {
            let v = c.iter().cloned().fold(0.0f64, f64::max);
            let idx = ((v / max) * (GLYPHS.len() as f64 - 1.0)).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_job_builds() {
        let j = reference_job("vecadd", 7, LabScale::Small, JobAction::FullGrade);
        assert_eq!(j.job_id, 7);
        assert!(!j.datasets.is_empty());
    }

    #[test]
    fn sparkline_shapes() {
        let s = sparkline(&[0.0, 0.5, 1.0], 3);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[], 10), "");
    }
}
