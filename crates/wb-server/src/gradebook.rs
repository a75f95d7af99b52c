//! External gradebook export.
//!
//! §IV-F: *"the system assigns a grade automatically and records it in
//! the grade book (storing the grade in Coursera, for example)."*
//! The export path is a trait so courses can target Coursera, a campus
//! LMS, or a CSV file; the in-memory [`CourseraGradebook`] records
//! posts for tests and keeps only each student's best grade, which is
//! the MOOC's policy.

use crate::state::ServerState;
use std::collections::HashMap;
use wb_obs::sync::Mutex;

/// One posted grade.
#[derive(Debug, Clone, PartialEq)]
pub struct GradePost {
    /// Student login.
    pub user: String,
    /// Lab id.
    pub lab: String,
    /// Effective score (override-aware) plus question points.
    pub score: f64,
    /// Virtual ms of the posting.
    pub at_ms: u64,
}

/// Where grades are published.
pub trait ExternalGradebook: Send + Sync {
    /// Record a grade; implementations decide idempotency policy.
    fn post(&self, grade: GradePost) -> Result<(), String>;
}

/// The Coursera-style gradebook: keeps the best score per (user, lab).
#[derive(Default)]
pub struct CourseraGradebook {
    posts: Mutex<Vec<GradePost>>,
    best: Mutex<HashMap<(String, String), f64>>,
}

impl CourseraGradebook {
    /// Empty gradebook.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every post received, in order.
    pub fn posts(&self) -> Vec<GradePost> {
        self.posts.lock().clone()
    }

    /// Best recorded score for a student on a lab.
    pub fn best(&self, user: &str, lab: &str) -> Option<f64> {
        self.best
            .lock()
            .get(&(user.to_string(), lab.to_string()))
            .copied()
    }
}

impl ExternalGradebook for CourseraGradebook {
    fn post(&self, grade: GradePost) -> Result<(), String> {
        let key = (grade.user.clone(), grade.lab.clone());
        let mut best = self.best.lock();
        let entry = best.entry(key).or_insert(f64::NEG_INFINITY);
        if grade.score > *entry {
            *entry = grade.score;
        }
        self.posts.lock().push(grade);
        Ok(())
    }
}

/// Publish every submission's effective grade (plus any instructor
/// question score) for a lab. Returns the number of posts made.
pub fn publish_lab_grades(
    state: &ServerState,
    gradebook: &dyn ExternalGradebook,
    lab: &str,
    now_ms: u64,
) -> Result<usize, String> {
    let ids = state
        .submissions
        .find("by_lab", lab)
        .map_err(|e| e.to_string())?;
    let mut n = 0;
    for id in ids {
        let sub = state.submissions.get(id).map_err(|e| e.to_string())?;
        let question = state
            .answers
            .find("by_user_lab", &format!("{}/{}", sub.user, lab))
            .ok()
            .and_then(|ids| ids.first().copied())
            .and_then(|aid| state.answers.get(aid).ok())
            .and_then(|a| a.question_score)
            .unwrap_or(0.0);
        gradebook.post(GradePost {
            user: sub.user.clone(),
            lab: lab.to_string(),
            score: sub.effective_score() + question,
            at_ms: now_ms,
        })?;
        n += 1;
    }
    Ok(n)
}

/// Render a CSV export of best grades (campus-LMS style).
pub fn render_csv(gradebook: &CourseraGradebook) -> String {
    let best = gradebook.best.lock();
    let mut rows: Vec<(&(String, String), &f64)> = best.iter().collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::from("user,lab,score\n");
    for ((user, lab), score) in rows {
        out.push_str(&format!("{user},{lab},{score:.1}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SubmissionRec;

    fn submission(user: &str, lab: &str, score: f64, at: u64) -> SubmissionRec {
        SubmissionRec {
            user: user.into(),
            lab: lab.into(),
            at_ms: at,
            passed: 1,
            total: 1,
            compiled: true,
            score,
            override_score: None,
            source: String::new(),
        }
    }

    #[test]
    fn best_grade_wins() {
        let gb = CourseraGradebook::new();
        gb.post(GradePost {
            user: "a".into(),
            lab: "l".into(),
            score: 40.0,
            at_ms: 0,
        })
        .unwrap();
        gb.post(GradePost {
            user: "a".into(),
            lab: "l".into(),
            score: 90.0,
            at_ms: 1,
        })
        .unwrap();
        gb.post(GradePost {
            user: "a".into(),
            lab: "l".into(),
            score: 60.0,
            at_ms: 2,
        })
        .unwrap();
        assert_eq!(gb.best("a", "l"), Some(90.0));
        assert_eq!(gb.posts().len(), 3);
        assert_eq!(gb.best("a", "other"), None);
    }

    #[test]
    fn publish_includes_question_scores_and_overrides() {
        let st = ServerState::new();
        let id = st
            .submissions
            .insert(&submission("alice", "vecadd", 80.0, 5))
            .unwrap();
        // Instructor overrides the program grade and grades questions.
        let mut rec = st.submissions.get(id).unwrap();
        rec.override_score = Some(85.0);
        st.submissions.update(id, &rec).unwrap();
        st.answers
            .insert(&crate::state::AnswerRec {
                user: "alice".into(),
                lab: "vecadd".into(),
                answers: vec!["x".into()],
                question_score: Some(10.0),
                comment: None,
            })
            .unwrap();

        let gb = CourseraGradebook::new();
        let n = publish_lab_grades(&st, &gb, "vecadd", 100).unwrap();
        assert_eq!(n, 1);
        assert_eq!(gb.best("alice", "vecadd"), Some(95.0));
    }

    #[test]
    fn publish_posts_every_submission() {
        let st = ServerState::new();
        st.submissions
            .insert(&submission("a", "l", 10.0, 1))
            .unwrap();
        st.submissions
            .insert(&submission("a", "l", 90.0, 2))
            .unwrap();
        st.submissions
            .insert(&submission("b", "l", 50.0, 3))
            .unwrap();
        let gb = CourseraGradebook::new();
        assert_eq!(publish_lab_grades(&st, &gb, "l", 10).unwrap(), 3);
        assert_eq!(gb.best("a", "l"), Some(90.0));
        assert_eq!(gb.best("b", "l"), Some(50.0));
    }

    #[test]
    fn csv_export_is_sorted() {
        let gb = CourseraGradebook::new();
        for (u, l, s) in [("b", "l1", 70.0), ("a", "l2", 80.0), ("a", "l1", 90.0)] {
            gb.post(GradePost {
                user: u.into(),
                lab: l.into(),
                score: s,
                at_ms: 0,
            })
            .unwrap();
        }
        let csv = render_csv(&gb);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "user,lab,score");
        assert_eq!(lines[1], "a,l1,90.0");
        assert_eq!(lines[2], "a,l2,80.0");
        assert_eq!(lines[3], "b,l1,70.0");
    }

    #[test]
    fn empty_lab_publishes_nothing() {
        let st = ServerState::new();
        let gb = CourseraGradebook::new();
        assert_eq!(publish_lab_grades(&st, &gb, "ghost", 0).unwrap(), 0);
    }
}
