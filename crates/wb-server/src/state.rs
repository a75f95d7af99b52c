//! Server-side record types and the database schema.
//!
//! §III-A: the web server *"automatically saves all student code, and
//! their compilation and execution status, and previous attempts so
//! that a user can backtrack to earlier versions of their code."*

use std::borrow::Cow;
use std::sync::Arc;
use wb_db::{Kept, Table, Texts};

/// How a login reached the site (the paper reports ~2% of logins come
/// from tablets and smartphones, §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Desktop/laptop browser.
    Desktop,
    /// Tablet browser.
    Tablet,
    /// Smartphone browser.
    Phone,
}

/// User roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Enrolled student.
    Student,
    /// Course staff: roster access, grade overrides, comments.
    Instructor,
}

/// A registered user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserRec {
    /// Unique login name.
    pub name: String,
    /// Salted password hash (simulation-grade, see `session`).
    pub pass_hash: u64,
    /// Role.
    pub role: Role,
    /// Email shown on the roster.
    pub email: String,
}

/// One saved code revision (§IV-A action 1: the editor autosaves).
#[derive(Debug, Clone, PartialEq)]
pub struct RevisionRec {
    /// Owner.
    pub user: String,
    /// Lab id.
    pub lab: String,
    /// Virtual ms when saved.
    pub at_ms: u64,
    /// Full source at this revision.
    pub source: String,
}

/// One run against a test dataset (§IV-B: "each attempt is stored under
/// the Attempts view").
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRec {
    /// Owner.
    pub user: String,
    /// Lab id.
    pub lab: String,
    /// Dataset index run against (None = compile only).
    pub dataset: Option<usize>,
    /// Virtual ms of the attempt.
    pub at_ms: u64,
    /// Did it compile?
    pub compiled: bool,
    /// Did the output match?
    pub passed: bool,
    /// Student-facing summary line.
    pub summary: String,
    /// The code as it was for this attempt.
    pub source: String,
    /// Public share token, mintable after the deadline (§IV-B).
    pub share_token: Option<u64>,
}

/// A graded submission (§IV-A action 5).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmissionRec {
    /// Owner.
    pub user: String,
    /// Lab id.
    pub lab: String,
    /// Virtual ms of submission.
    pub at_ms: u64,
    /// Datasets passed / total.
    pub passed: usize,
    /// Total datasets graded.
    pub total: usize,
    /// Compiled successfully?
    pub compiled: bool,
    /// Rubric score (0..=max per the lab config).
    pub score: f64,
    /// Instructor override, if any (§IV-F).
    pub override_score: Option<f64>,
    /// Source graded.
    pub source: String,
}

impl SubmissionRec {
    /// Effective score after any instructor override.
    pub fn effective_score(&self) -> f64 {
        self.override_score.unwrap_or(self.score)
    }
}

/// How the attempts table keeps an [`AttemptRec`]: its source is the
/// table's one copy of that text, shared by every attempt that ran it,
/// and its other texts are private and exactly sized (`Box<str>` has no
/// capacity word, which pays for the text set's entry when no source
/// repeats).
#[derive(Debug)]
pub struct KeptAttempt {
    user: Box<str>,
    lab: Box<str>,
    dataset: Option<usize>,
    at_ms: u64,
    compiled: bool,
    passed: bool,
    summary: Box<str>,
    source: Arc<str>,
    share_token: Option<u64>,
}

impl Kept<AttemptRec> for KeptAttempt {
    fn keep(a: &AttemptRec, texts: &mut Texts) -> Self {
        KeptAttempt {
            user: a.user.as_str().into(),
            lab: a.lab.as_str().into(),
            dataset: a.dataset,
            at_ms: a.at_ms,
            compiled: a.compiled,
            passed: a.passed,
            summary: a.summary.as_str().into(),
            source: texts.share(&a.source),
            share_token: a.share_token,
        }
    }

    fn row(&self) -> Cow<'_, AttemptRec> {
        Cow::Owned(AttemptRec {
            user: self.user.to_string(),
            lab: self.lab.to_string(),
            dataset: self.dataset,
            at_ms: self.at_ms,
            compiled: self.compiled,
            passed: self.passed,
            summary: self.summary.to_string(),
            source: self.source.to_string(),
            share_token: self.share_token,
        })
    }

    fn release_texts(self, texts: &mut Texts) {
        texts.release(self.source);
    }
}

/// How the submissions table keeps a [`SubmissionRec`]: as
/// [`KeptAttempt`] keeps an attempt.
#[derive(Debug)]
pub struct KeptSubmission {
    user: Box<str>,
    lab: Box<str>,
    at_ms: u64,
    passed: usize,
    total: usize,
    compiled: bool,
    score: f64,
    override_score: Option<f64>,
    source: Arc<str>,
}

impl Kept<SubmissionRec> for KeptSubmission {
    fn keep(s: &SubmissionRec, texts: &mut Texts) -> Self {
        KeptSubmission {
            user: s.user.as_str().into(),
            lab: s.lab.as_str().into(),
            at_ms: s.at_ms,
            passed: s.passed,
            total: s.total,
            compiled: s.compiled,
            score: s.score,
            override_score: s.override_score,
            source: texts.share(&s.source),
        }
    }

    fn row(&self) -> Cow<'_, SubmissionRec> {
        Cow::Owned(SubmissionRec {
            user: self.user.to_string(),
            lab: self.lab.to_string(),
            at_ms: self.at_ms,
            passed: self.passed,
            total: self.total,
            compiled: self.compiled,
            score: self.score,
            override_score: self.override_score,
            source: self.source.to_string(),
        })
    }

    fn release_texts(self, texts: &mut Texts) {
        texts.release(self.source);
    }
}

/// Short-answer responses (§IV-B component 3). Not auto-graded.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerRec {
    /// Owner.
    pub user: String,
    /// Lab id.
    pub lab: String,
    /// One answer per configured question.
    pub answers: Vec<String>,
    /// Instructor-assigned question score.
    pub question_score: Option<f64>,
    /// Instructor comment (§IV-F).
    pub comment: Option<String>,
}

/// A peer-review assignment (§IV-D).
#[derive(Debug, Clone, PartialEq)]
pub struct PeerReviewRec {
    /// Lab id.
    pub lab: String,
    /// Student doing the review.
    pub reviewer: String,
    /// Student whose submission is reviewed.
    pub reviewee: String,
    /// Completed review text, when done.
    pub review: Option<String>,
}

/// A login event (feeds the device-mix statistic).
#[derive(Debug, Clone, PartialEq)]
pub struct LoginRec {
    /// User.
    pub user: String,
    /// Device used.
    pub device: DeviceKind,
    /// Virtual ms.
    pub at_ms: u64,
}

/// All server tables, with the indexes the views query.
pub struct ServerState {
    /// Users by id.
    pub users: Table<UserRec>,
    /// Code revisions.
    pub revisions: Table<RevisionRec>,
    /// Attempts, each source kept once per distinct text.
    pub attempts: Table<AttemptRec, KeptAttempt>,
    /// Graded submissions, each source kept once per distinct text.
    pub submissions: Table<SubmissionRec, KeptSubmission>,
    /// Short answers.
    pub answers: Table<AnswerRec>,
    /// Peer reviews.
    pub peer_reviews: Table<PeerReviewRec>,
    /// Login events.
    pub logins: Table<LoginRec>,
}

impl Default for ServerState {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerState {
    /// Fresh state with all indexes created.
    pub fn new() -> Self {
        let users: Table<UserRec> = Table::new();
        users.create_index("by_name", |u: &UserRec| u.name.clone());

        let revisions: Table<RevisionRec> = Table::new();
        revisions.create_index("by_user_lab", |r: &RevisionRec| {
            format!("{}/{}", r.user, r.lab)
        });

        let attempts: Table<AttemptRec, KeptAttempt> = Table::default();
        attempts.create_index("by_user_lab", |a: &AttemptRec| {
            format!("{}/{}", a.user, a.lab)
        });

        let submissions: Table<SubmissionRec, KeptSubmission> = Table::default();
        submissions.create_index("by_user_lab", |s: &SubmissionRec| {
            format!("{}/{}", s.user, s.lab)
        });
        submissions.create_index("by_lab", |s: &SubmissionRec| s.lab.clone());

        let answers: Table<AnswerRec> = Table::new();
        answers.create_index("by_user_lab", |a: &AnswerRec| {
            format!("{}/{}", a.user, a.lab)
        });

        let peer_reviews: Table<PeerReviewRec> = Table::new();
        peer_reviews.create_index("by_reviewer_lab", |p: &PeerReviewRec| {
            format!("{}/{}", p.reviewer, p.lab)
        });
        peer_reviews.create_index("by_reviewee_lab", |p: &PeerReviewRec| {
            format!("{}/{}", p.reviewee, p.lab)
        });

        let logins: Table<LoginRec> = Table::new();
        logins.create_index("by_user", |l: &LoginRec| l.user.clone());

        ServerState {
            users,
            revisions,
            attempts,
            submissions,
            answers,
            peer_reviews,
            logins,
        }
    }

    /// Fraction of logins from tablets/phones (the §II-B statistic).
    pub fn mobile_login_fraction(&self) -> f64 {
        let all = self.logins.scan();
        if all.is_empty() {
            return 0.0;
        }
        let mobile = all
            .iter()
            .filter(|(_, l)| matches!(l.device, DeviceKind::Tablet | DeviceKind::Phone))
            .count();
        mobile as f64 / all.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_builds_with_indexes() {
        let st = ServerState::new();
        st.users
            .insert(&UserRec {
                name: "alice".into(),
                pass_hash: 1,
                role: Role::Student,
                email: "a@example.edu".into(),
            })
            .unwrap();
        assert_eq!(st.users.find("by_name", "alice").unwrap().len(), 1);
    }

    #[test]
    fn effective_score_prefers_override() {
        let mut s = SubmissionRec {
            user: "a".into(),
            lab: "l".into(),
            at_ms: 0,
            passed: 1,
            total: 2,
            compiled: true,
            score: 50.0,
            override_score: None,
            source: String::new(),
        };
        assert_eq!(s.effective_score(), 50.0);
        s.override_score = Some(80.0);
        assert_eq!(s.effective_score(), 80.0);
    }

    #[test]
    fn mobile_fraction_computed() {
        let st = ServerState::new();
        for (i, d) in [
            DeviceKind::Desktop,
            DeviceKind::Desktop,
            DeviceKind::Phone,
            DeviceKind::Tablet,
        ]
        .iter()
        .enumerate()
        {
            st.logins
                .insert(&LoginRec {
                    user: format!("u{i}"),
                    device: *d,
                    at_ms: 0,
                })
                .unwrap();
        }
        assert!((st.mobile_login_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(ServerState::new().mobile_login_fraction(), 0.0);
    }
}
