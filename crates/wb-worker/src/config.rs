//! Remote worker configuration (§VI-B).
//!
//! *"The worker node is also connected to a remote configuration
//! system. This allows all worker nodes to be remotely configured
//! uniformly. A change in the remote configuration triggers the worker
//! node to restart the main driver."*

use wb_obs::sync::RwLock;
use wb_queue::CapabilitySet;

/// The configuration pushed to every worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerConfig {
    /// Monotonic version; bumped on every change.
    pub version: u64,
    /// Capability tags this fleet advertises to the broker.
    pub capabilities: CapabilitySet,
    /// Container image name workers should pool.
    pub image: String,
    /// Warm containers to keep per worker.
    pub pool_target: usize,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            version: 1,
            capabilities: ["cuda"].into(),
            image: "webgpu/cuda".to_string(),
            pool_target: 2,
        }
    }
}

/// The shared configuration service all workers watch.
#[derive(Debug, Default)]
pub struct ConfigServer {
    current: RwLock<WorkerConfig>,
}

impl ConfigServer {
    /// Start with a configuration.
    pub fn new(config: WorkerConfig) -> Self {
        ConfigServer {
            current: RwLock::new(config),
        }
    }

    /// Current configuration (workers poll this).
    pub fn get(&self) -> WorkerConfig {
        self.current.read().clone()
    }

    /// Publish a new configuration; the version is bumped
    /// automatically so watchers see the change.
    pub fn publish(&self, mut config: WorkerConfig) -> u64 {
        let mut g = self.current.write();
        config.version = g.version + 1;
        let v = config.version;
        *g = config;
        v
    }

    /// Convenience: mutate the current config in place and republish.
    pub fn update(&self, f: impl FnOnce(&mut WorkerConfig)) -> u64 {
        let mut g = self.current.write();
        let mut next = g.clone();
        f(&mut next);
        next.version = g.version + 1;
        let v = next.version;
        *g = next;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_version() {
        let s = ConfigServer::new(WorkerConfig::default());
        assert_eq!(s.get().version, 1);
        let v = s.publish(WorkerConfig {
            image: "webgpu/full".into(),
            ..WorkerConfig::default()
        });
        assert_eq!(v, 2);
        assert_eq!(s.get().image, "webgpu/full");
    }

    #[test]
    fn update_in_place() {
        let s = ConfigServer::new(WorkerConfig::default());
        s.update(|c| {
            c.capabilities.insert("mpi".into());
        });
        assert!(s.get().capabilities.contains("mpi"));
        assert_eq!(s.get().version, 2);
    }

    #[test]
    fn default_config_advertises_cuda() {
        let c = WorkerConfig::default();
        assert!(c.capabilities.contains("cuda"));
        assert!(c.pool_target >= 1);
    }
}
