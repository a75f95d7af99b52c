//! `wb-server` — the WebGPU web tier.
//!
//! §III-A: *"The web-server generates the site's HTML code and handles
//! user requests. … It automatically saves all student code, and their
//! compilation and execution status, and previous attempts. … Finally,
//! the web-server acts as an intermediary, dispatching jobs to a node
//! in the pool of workers and relaying the results \[to\] users."*
//!
//! Modules:
//!
//! * [`api`] — the typed submission surface: [`SubmitRequest`],
//!   [`SubmissionOutcome`], and the unified [`WbError`] taxonomy shared
//!   by the server and both cluster generations;
//! * [`server`] — the six student actions (§IV-A), instructor tools and
//!   roster (§IV-F), behind a [`server::JobDispatcher`] abstraction so
//!   the same logic runs on the v1 push cluster, the v2 queue cluster,
//!   or a local worker;
//! * [`lab`] — lab definitions and the grading rubric (§IV-E);
//! * [`markdown`] — the lab-description renderer;
//! * [`session`] — accounts and bearer-token sessions;
//! * [`ratelimit`] — the per-lab submission rate limit (§III-C);
//! * [`peer`] — peer-review assignment and the starvation statistics
//!   that led to the feature's removal (§IV-D);
//! * [`edx`] — the WebGPU 2.0 OpenEdx adapter over the message broker
//!   and blob store (§VI-A);
//! * [`state`] — record types and the database schema.

pub mod api;
pub mod edx;
pub mod gradebook;
pub mod hints;
pub mod lab;
pub mod markdown;
pub mod peer;
pub mod ratelimit;
pub mod server;
pub mod session;
pub mod state;

pub use api::{SubmissionOutcome, SubmitAction, SubmitRequest, WbError};
pub use edx::EdxFrontend;
pub use gradebook::{CourseraGradebook, ExternalGradebook, GradePost};
pub use hints::{hints_for, Hint};
pub use lab::{LabDefinition, Rubric};
pub use ratelimit::{RateLimit, RateLimiter};
pub use server::{JobDispatcher, RosterRow, WebGpuServer};
pub use session::{AuthError, Session, Sessions};
pub use state::{DeviceKind, Role, ServerState};
