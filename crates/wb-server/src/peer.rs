//! Peer review (§IV-D).
//!
//! *"each student was assigned three other random students' labs with
//! 10% of the lab's grade given to the completion of the peer reviews.
//! … The high drop rate at the beginning of the course caused low
//! probability of an active student being assigned an active peer
//! reviewer"* — the weight was cut to 5% and the feature was phased
//! out. This module implements the random assignment and the
//! received-review statistics that motivated the removal, which the
//! `peer_review` experiment sweeps over dropout rates.

use crate::state::{PeerReviewRec, ServerState};
use libwb::rng::SplitMix64;

/// Assign each student `k` random peers to review (never themselves,
/// never the same peer twice). Deterministic given the seed.
///
/// The classic round-robin-over-a-shuffle construction guarantees every
/// student also *receives* exactly `k` assignments — the inequity the
/// paper observed comes from reviewers dropping out, not from the
/// assignment itself.
pub fn assign_reviews(
    state: &ServerState,
    lab: &str,
    students: &[String],
    k: usize,
    seed: u64,
) -> Vec<u64> {
    assert!(
        k < students.len().max(1),
        "cannot assign {k} reviews among {} students",
        students.len()
    );
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<&String> = students.iter().collect();
    rng.shuffle(&mut order);
    let n = order.len();
    let mut ids = Vec::new();
    for offset in 1..=k {
        for i in 0..n {
            let reviewer = order[i].clone();
            let reviewee = order[(i + offset) % n].clone();
            let id = state
                .peer_reviews
                .insert(&PeerReviewRec {
                    lab: lab.to_string(),
                    reviewer,
                    reviewee,
                    review: None,
                })
                .expect("insert review");
            ids.push(id);
        }
    }
    ids
}

/// Record a completed review; returns false when no matching
/// assignment exists.
pub fn complete_review(
    state: &ServerState,
    lab: &str,
    reviewer: &str,
    reviewee: &str,
    text: &str,
) -> bool {
    let key = format!("{reviewer}/{lab}");
    let Ok(ids) = state.peer_reviews.find("by_reviewer_lab", &key) else {
        return false;
    };
    for id in ids {
        if let Ok(mut rec) = state.peer_reviews.get(id) {
            if rec.reviewee == reviewee && rec.review.is_none() {
                rec.review = Some(text.to_string());
                return state.peer_reviews.update(id, &rec).is_ok();
            }
        }
    }
    false
}

/// Peer-review completion credit for one student: the fraction of their
/// assigned reviews they completed — the auto-gradable share of the
/// grade that §IV-D cut from 10% to 5% before dropping the feature.
pub fn completion_fraction(state: &ServerState, lab: &str, reviewer: &str) -> f64 {
    let key = format!("{reviewer}/{lab}");
    let ids = state
        .peer_reviews
        .find("by_reviewer_lab", &key)
        .unwrap_or_default();
    if ids.is_empty() {
        return 0.0;
    }
    let done = ids
        .iter()
        .filter(|&&id| {
            state
                .peer_reviews
                .get(id)
                .map(|r| r.review.is_some())
                .unwrap_or(false)
        })
        .count();
    done as f64 / ids.len() as f64
}

/// The statistic that killed the feature: among `active` students, the
/// fraction who received at least one completed review, assuming only
/// active students write reviews.
pub fn received_review_fraction(state: &ServerState, lab: &str, active: &[String]) -> f64 {
    if active.is_empty() {
        return 0.0;
    }
    let got = active
        .iter()
        .filter(|student| {
            let key = format!("{student}/{lab}");
            state
                .peer_reviews
                .find("by_reviewee_lab", &key)
                .unwrap_or_default()
                .iter()
                .any(|&id| {
                    state
                        .peer_reviews
                        .get(id)
                        .map(|r| r.review.is_some())
                        .unwrap_or(false)
                })
        })
        .count();
    got as f64 / active.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn students(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("s{i}")).collect()
    }

    #[test]
    fn everyone_gives_and_receives_k() {
        let st = ServerState::new();
        let names = students(10);
        assign_reviews(&st, "lab1", &names, 3, 42);
        for s in &names {
            let gives = st
                .peer_reviews
                .find("by_reviewer_lab", &format!("{s}/lab1"))
                .unwrap()
                .len();
            let gets = st
                .peer_reviews
                .find("by_reviewee_lab", &format!("{s}/lab1"))
                .unwrap()
                .len();
            assert_eq!(gives, 3);
            assert_eq!(gets, 3);
        }
    }

    #[test]
    fn no_self_review_and_no_duplicates() {
        let st = ServerState::new();
        let names = students(7);
        assign_reviews(&st, "lab1", &names, 3, 1);
        for s in &names {
            let ids = st
                .peer_reviews
                .find("by_reviewer_lab", &format!("{s}/lab1"))
                .unwrap();
            let mut seen = std::collections::HashSet::new();
            for id in ids {
                let r = st.peer_reviews.get(id).unwrap();
                assert_ne!(&r.reviewee, s, "no self review");
                assert!(seen.insert(r.reviewee.clone()), "no duplicate reviewee");
            }
        }
    }

    #[test]
    fn assignment_is_deterministic_per_seed() {
        let st1 = ServerState::new();
        let st2 = ServerState::new();
        let names = students(6);
        assign_reviews(&st1, "l", &names, 2, 9);
        assign_reviews(&st2, "l", &names, 2, 9);
        let a: Vec<_> = st1
            .peer_reviews
            .scan()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let b: Vec<_> = st2
            .peer_reviews
            .scan()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn too_many_reviews_for_cohort_panics() {
        let st = ServerState::new();
        let names = students(3);
        assign_reviews(&st, "l", &names, 3, 0);
    }

    #[test]
    fn completion_tracking() {
        let st = ServerState::new();
        let names = students(4);
        assign_reviews(&st, "l", &names, 2, 5);
        assert_eq!(completion_fraction(&st, "l", "s0"), 0.0);
        // Complete one of s0's two reviews.
        let ids = st.peer_reviews.find("by_reviewer_lab", "s0/l").unwrap();
        let target = st.peer_reviews.get(ids[0]).unwrap().reviewee;
        assert!(complete_review(&st, "l", "s0", &target, "nice tiling"));
        assert!((completion_fraction(&st, "l", "s0") - 0.5).abs() < 1e-9);
        // Completing the same one twice fails.
        assert!(!complete_review(&st, "l", "s0", &target, "again"));
        // Unknown assignment fails.
        assert!(!complete_review(&st, "l", "s0", "s0", "self"));
    }

    #[test]
    fn dropout_starves_active_students() {
        // 20 students assigned, but only 5 stay active and write
        // reviews — exactly the paper's complaint.
        let st = ServerState::new();
        let names = students(20);
        assign_reviews(&st, "l", &names, 3, 7);
        let active: Vec<String> = names[..5].to_vec();
        // Active students complete all their reviews.
        for s in &active {
            let ids = st
                .peer_reviews
                .find("by_reviewer_lab", &format!("{s}/l"))
                .unwrap();
            for id in ids {
                let r = st.peer_reviews.get(id).unwrap();
                complete_review(&st, "l", s, &r.reviewee, "done");
            }
        }
        let frac = received_review_fraction(&st, "l", &active);
        // With 25% of the cohort active, most active students get no
        // review from an active reviewer.
        assert!(
            frac < 1.0,
            "starvation should leave some active students unreviewed (got {frac})"
        );
        // The statistic is 0 for an empty active set.
        assert_eq!(received_review_fraction(&st, "l", &[]), 0.0);
    }
}
