//! `wb-worker` — the GPU worker node.
//!
//! §III-C: *"Upon a user program submission, the web-server selects a
//! single worker node and sends user code along with configurations
//! specified by the lab. The worker node then compiles, executes, and
//! evaluates the code using the datasets provided by the instructor.
//! … An additional task is for the worker node to send regular health
//! checks to the web-server."*
//!
//! §VI-B adds the v2 internals: a driver that polls the job queue,
//! holds a pool of containers mapped onto the node's GPUs, and restarts
//! when the remote configuration changes.
//!
//! This crate provides:
//!
//! * the job/result envelope types ([`job`]);
//! * the compile → sandbox → execute → evaluate pipeline ([`pipeline`]),
//!   one entry point, [`execute`], run under a [`RunCtx`];
//! * the node itself, supporting both the v1 push interface and the v2
//!   queue-polling driver ([`node`]);
//! * remote configuration with restart-on-change ([`config`]);
//! * the cluster-wide submission cache instantiation ([`cache`]):
//!   `wb-cache`'s generic cache pinned to this crate's
//!   [`job::DatasetOutcome`].

pub mod cache;
pub mod config;
pub mod job;
pub mod node;
pub mod pipeline;

pub use cache::{new_submission_cache, SubmissionCache};
pub use config::{ConfigServer, WorkerConfig};
pub use job::{DatasetCase, JobAction, JobOutcome, JobRequest, LabSpec};
pub use node::{HealthBeat, NodeConfig, WorkerNode};
pub use pipeline::{execute, execute_job_cached_traced, RunCtx};
pub use wb_queue::{Capability, CapabilitySet};
