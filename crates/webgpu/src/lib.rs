//! `webgpu` — the paper's system: a scalable online development
//! platform for GPU programming courses.
//!
//! This crate assembles the substrates into the two architectures the
//! paper describes and adds the course-scale simulation used to
//! regenerate its tables and figures:
//!
//! * [`plane`] — [`ControlPlane`], the one platform both
//!   architectures share: admission, the fair-share scheduler, the
//!   shared submission cache, the recorder, results, the round clock,
//!   and the elastic-fleet surface (spawn/kill/revive workers,
//!   partition/heal zones) — generic over a [`Dispatch`] strategy;
//! * [`v1`] — the original architecture (Fig. 2) as the
//!   [`Push`] strategy: the web server **pushes** jobs to a
//!   pool of workers, evicting nodes whose health checks stop arriving;
//! * [`v2`] — WebGPU 2.0 (Figs. 6–7) as the [`Pull`]
//!   strategy: workers **poll** a replicated message broker, accepting
//!   only jobs whose capability tags they satisfy; a remote config
//!   service restarts drivers; the fleet autoscales;
//! * [`builder`] — [`ClusterBuilder`], the one construction surface
//!   for both architectures (cache, tracing, scheduler, worker image);
//! * [`fleet`] — typed zones, reliability classes, worker descriptors
//!   and the fleet view;
//! * [`chaos`] — seeded churn/partition campaigns against either
//!   strategy, auditing exactly-once completion, span integrity, and
//!   broker-book reconciliation;
//! * [`autoscaler`] — static, reactive, deadline-aware, and
//!   spot-aware scaling policies (the paper manually added GPUs the
//!   day before each deadline — the scheduled policy automates
//!   exactly that);
//! * [`cost`] — an AWS-style cost model (on-demand and spot rates)
//!   for provisioning experiments;
//! * [`sim`] — student-population models: enrollment cohorts, weekly
//!   dropout, deadline-rush and diurnal load (regenerates Table I and
//!   Figure 1);
//! * [`course`] — end-to-end course runs wiring real labs, the web
//!   server, and a cluster together.

pub mod autoscaler;
pub mod builder;
pub mod chaos;
pub mod cost;
pub mod course;
pub mod dashboard;
pub mod fleet;
pub mod plane;
pub mod sim;
pub mod v1;
pub mod v2;

pub use autoscaler::{AutoscalePolicy, Autoscaler, FleetMetrics, FleetTarget};
pub use builder::{BrokerTuning, ClusterBuilder};
pub use chaos::{run_campaign, CampaignReport, ChaosConfig};
pub use cost::{CostModel as AwsCostModel, CostReport};
pub use course::{CourseReport, CourseRun};
pub use dashboard::{format_percentiles, Snapshot as DashboardSnapshot};
pub use fleet::{FleetView, ReliabilityClass, WorkerDesc, WorkerInfo, Zone};
pub use plane::{ControlPlane, Dispatch};
pub use sim::population::{CohortParams, CohortSummary, LoadModel};
pub use sim::rush::{CourseLoad, RushScenario};
pub use v1::{ClusterV1, Push};
pub use v2::{ClusterV2, Pull};
pub use wb_queue::shard_for_course;
pub use wb_sched::{CourseConfig, SchedConfig, SchedSnapshot};
