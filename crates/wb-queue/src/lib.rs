//! `wb-queue` — the WebGPU 2.0 job broker (§VI-A), held in memory.
//!
//! In the revised architecture, *"OpenEdx communicates with a queue
//! message broker server that can be replicated across Amazon
//! availability zones"*, and *"worker nodes poll the queue, accepting a
//! job if the node meets the job requirements"* — jobs are tagged
//! (Multi-GPU, MPI) and only capable workers take them.
//!
//! [`ShardedBroker`] is the broker. It provides:
//!
//! * tagged jobs with capability matching
//!   ([`ShardedBroker::poll_from`]);
//! * at-least-once delivery with **visibility timeouts**: an accepted
//!   job that is not acknowledged in time becomes visible again;
//! * bounded retries with a **dead-letter queue**;
//! * two mirrored [`Zone`]s with failover, partition and heal;
//! * per-course **lanes** ([`shard_for_course`]) with work-stealing
//!   polls;
//! * [`BrokerMetrics`] for depth/redelivery dashboards.
//!
//! Nothing is durable: the queues live in process memory. Time is
//! virtual (`now_ms` parameters) so the discrete-event course
//! simulation drives the broker deterministically.

mod broker;
mod capability;
mod mirror;
mod shard;

pub use broker::{BrokerMetrics, Delivery, JobMeta};
pub use capability::{Capability, CapabilitySet};
pub use mirror::Zone;
pub use shard::{shard_for_course, ShardedBroker};
