//! Experiment S2 — peer-review starvation (§IV-D): with 3 random
//! reviews per student, what fraction of still-active students receive
//! at least one completed review as the course's dropout deepens?
//!
//! The paper: assignments were random; heavy early dropout meant many
//! active students "were offering reviews without receiving them",
//! the weight was cut from 10% to 5%, and the feature was removed.
//! The assignment is seeded, so the starvation curve is deterministic.

use wb_server::{peer, ServerState};

fn main() {
    let cohort: Vec<String> = (0..300).map(|i| format!("s{i}")).collect();
    let k = 3;

    println!(
        "peer review starvation: {} students, {k} reviews each, only active\nstudents complete their assigned reviews\n",
        cohort.len()
    );
    println!(
        "{:>14} {:>24} {:>26}",
        "active (%)", "active reviewed (%)", "reviews received by active"
    );

    let mut coverage_by_pct = Vec::new();
    for active_pct in [100usize, 50, 25, 10, 5, 3] {
        let st = ServerState::new();
        peer::assign_reviews(&st, "mp", &cohort, k, 1234);
        let n_active = (cohort.len() * active_pct).div_ceil(100);
        let active: Vec<String> = cohort[..n_active].to_vec();
        for s in &active {
            let ids = st
                .peer_reviews
                .find("by_reviewer_lab", &format!("{s}/mp"))
                .unwrap();
            for id in ids {
                let r = st.peer_reviews.get(id).unwrap();
                peer::complete_review(&st, "mp", s, &r.reviewee, "completed");
            }
        }
        let covered = peer::received_review_fraction(&st, "mp", &active);
        // Mean completed reviews received per active student.
        let mut total = 0usize;
        for s in &active {
            total += st
                .peer_reviews
                .find("by_reviewee_lab", &format!("{s}/mp"))
                .unwrap()
                .iter()
                .filter(|&&id| st.peer_reviews.get(id).unwrap().review.is_some())
                .count();
        }
        println!(
            "{:>14} {:>24.1} {:>26.2}",
            active_pct,
            100.0 * covered,
            total as f64 / active.len() as f64
        );
        coverage_by_pct.push(100.0 * covered);
    }

    println!(
        "\nAt MOOC dropout levels (≈3% complete, Table I) an active student's\n\
expected completed-reviews-received falls toward {k} × active%, so most\n\
reviewers get nothing back — the observed inequity that forced the\n\
10% → 5% → removed progression of the feature."
    );

    // The starvation claim: coverage at MOOC dropout levels (3% active)
    // must sit far below the full-participation coverage.
    let full = coverage_by_pct[0];
    let starved = coverage_by_pct[coverage_by_pct.len() - 1];
    assert!(
        starved <= full / 2.0,
        "coverage at 3% active ({starved:.1}%) must be under half of full participation ({full:.1}%)"
    );
}
