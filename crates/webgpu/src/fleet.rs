//! The elastic fleet's vocabulary: where a worker lives, what it
//! costs, and what the roster looks like.
//!
//! Every fleet mutation — spawn, kill, revive, partition, heal,
//! describe — is an inherent method of
//! [`ControlPlane`](crate::ControlPlane), written once for both
//! dispatch strategies, so the chaos harness, the autoscaler, and
//! fault benches all drive the fleet through the same door.
//!
//! Workers are described by [`WorkerDesc`]: an availability [`Zone`],
//! an optional capability override, and a [`ReliabilityClass`]
//! (on-demand vs spot). The class does not change how a worker runs
//! jobs — it changes what the worker *costs* (see [`crate::cost`]) and
//! how often chaos campaigns preempt it (spot instances die young).

use std::fmt;
use wb_queue::CapabilitySet;
pub use wb_queue::Zone;

/// Default placement for worker `id`: odd ids land in the primary
/// zone, even ids in the standby, so any fleet of two or more
/// straddles both zones out of the box.
pub fn placement(id: u64) -> Zone {
    if id % 2 == 1 {
        Zone::Primary
    } else {
        Zone::Standby
    }
}

/// How durable (and how priced) a worker's underlying instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReliabilityClass {
    /// Full-price capacity that stays up until the platform takes it
    /// down.
    OnDemand,
    /// Discounted preemptible capacity the provider may reclaim at any
    /// moment (priced by [`crate::cost::CostModel::spot_worker_hour`]).
    Spot,
}

impl fmt::Display for ReliabilityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReliabilityClass::OnDemand => "on-demand",
            ReliabilityClass::Spot => "spot",
        })
    }
}

/// Everything [`ControlPlane::spawn_worker`](crate::ControlPlane::spawn_worker)
/// needs to place a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerDesc {
    /// Availability zone the worker lands in.
    pub zone: Zone,
    /// Capability tags the worker advertises; `None` inherits the
    /// fleet's remote [`wb_worker::WorkerConfig`]. An override holds
    /// until the next fleet-wide config publish (the remote config
    /// service configures workers *uniformly*, §VI-B).
    pub capabilities: Option<CapabilitySet>,
    /// On-demand or spot.
    pub reliability_class: ReliabilityClass,
}

impl Default for WorkerDesc {
    fn default() -> Self {
        WorkerDesc::on_demand(Zone::Primary)
    }
}

impl WorkerDesc {
    /// An on-demand worker inheriting the fleet config.
    pub fn on_demand(zone: Zone) -> WorkerDesc {
        WorkerDesc {
            zone,
            capabilities: None,
            reliability_class: ReliabilityClass::OnDemand,
        }
    }

    /// A spot worker inheriting the fleet config.
    pub fn spot(zone: Zone) -> WorkerDesc {
        WorkerDesc {
            reliability_class: ReliabilityClass::Spot,
            ..WorkerDesc::on_demand(zone)
        }
    }

    /// Override the advertised capability tags.
    pub fn with_capabilities(mut self, caps: CapabilitySet) -> WorkerDesc {
        self.capabilities = Some(caps);
        self
    }
}

/// One worker's row in [`FleetView`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerInfo {
    /// Platform-wide worker id.
    pub id: u64,
    /// Zone the worker was placed in.
    pub zone: Zone,
    /// On-demand or spot.
    pub reliability_class: ReliabilityClass,
    /// Capability tags the worker advertises.
    pub capabilities: CapabilitySet,
    /// False once killed (or crashed) and not yet revived.
    pub alive: bool,
    /// Jobs this worker completed.
    pub jobs_done: u64,
}

/// A point-in-time description of the fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetView {
    /// Every worker the platform knows about, dead or alive.
    pub workers: Vec<WorkerInfo>,
    /// The zone currently cut off by a network partition, if any.
    pub partitioned: Option<Zone>,
}

impl FleetView {
    /// Workers currently able to take jobs.
    pub fn alive(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Alive workers of `class`.
    pub fn alive_of_class(&self, class: ReliabilityClass) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive && w.reliability_class == class)
            .count()
    }

    /// Total fleet size, dead workers included.
    pub fn total(&self) -> usize {
        self.workers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FleetView {
        /// Alive workers in `zone`.
        fn alive_in_zone(&self, zone: Zone) -> usize {
            self.workers
                .iter()
                .filter(|w| w.alive && w.zone == zone)
                .count()
        }
    }

    #[test]
    fn default_placement_straddles_both_zones() {
        assert_eq!(placement(1), Zone::Primary);
        assert_eq!(placement(2), Zone::Standby);
        let zones: std::collections::BTreeSet<Zone> = (1..=4).map(placement).collect();
        assert_eq!(zones.len(), 2, "any fleet of 2+ covers both zones");
    }

    #[test]
    fn desc_builders_set_class_and_caps() {
        let d = WorkerDesc::spot(Zone::Standby).with_capabilities(["cuda", "mpi"].into());
        assert_eq!(d.reliability_class, ReliabilityClass::Spot);
        assert_eq!(d.zone, Zone::Standby);
        assert!(d.capabilities.unwrap().contains("mpi"));
        let d = WorkerDesc::default();
        assert_eq!(d.reliability_class, ReliabilityClass::OnDemand);
        assert!(d.capabilities.is_none());
    }

    #[test]
    fn view_helpers_count_the_right_workers() {
        let view = FleetView {
            workers: vec![
                WorkerInfo {
                    id: 1,
                    zone: Zone::Primary,
                    reliability_class: ReliabilityClass::OnDemand,
                    capabilities: ["cuda"].into(),
                    alive: true,
                    jobs_done: 3,
                },
                WorkerInfo {
                    id: 2,
                    zone: Zone::Standby,
                    reliability_class: ReliabilityClass::Spot,
                    capabilities: ["cuda"].into(),
                    alive: false,
                    jobs_done: 0,
                },
                WorkerInfo {
                    id: 3,
                    zone: Zone::Primary,
                    reliability_class: ReliabilityClass::Spot,
                    capabilities: ["cuda"].into(),
                    alive: true,
                    jobs_done: 1,
                },
            ],
            partitioned: Some(Zone::Standby),
        };
        assert_eq!(view.total(), 3);
        assert_eq!(view.alive(), 2);
        assert_eq!(view.alive_in_zone(Zone::Primary), 2);
        assert_eq!(view.alive_in_zone(Zone::Standby), 0);
        assert_eq!(view.alive_of_class(ReliabilityClass::Spot), 1);
        assert_eq!(view.partitioned, Some(Zone::Standby));
    }
}
