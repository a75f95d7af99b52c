//! Per-lab resource limits.
//!
//! §III-C: *"time limits are placed on the submission rate and on the
//! duration of the compilation and execution of user code. The time
//! limits can be adjusted on a per lab basis."* Execution time in the
//! simulator is a warp-instruction / host-step budget; the submission
//! rate limit lives in the web server (`wb-server::ratelimit`).

use minicuda::{DeviceConfig, RunOptions};

/// Adjustable per-lab budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum source size accepted by the compiler, bytes.
    pub max_source_bytes: usize,
    /// Device budget in warp-instructions (the "execution time limit").
    pub max_warp_instructions: i64,
    /// Host interpreter budget in statements.
    pub max_host_steps: u64,
    /// Log output cap, bytes.
    pub max_log_bytes: usize,
    /// MPI world size for labs that need it (1 otherwise).
    pub world_size: usize,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            max_source_bytes: 256 * 1024,
            max_warp_instructions: 50_000_000,
            max_host_steps: 5_000_000,
            max_log_bytes: 64 * 1024,
            world_size: 1,
        }
    }
}

impl ResourceLimits {
    /// A tight budget for unit tests (fails fast on runaway code).
    pub fn strict() -> Self {
        ResourceLimits {
            max_source_bytes: 64 * 1024,
            max_warp_instructions: 500_000,
            max_host_steps: 200_000,
            max_log_bytes: 8 * 1024,
            world_size: 1,
        }
    }

    /// Scale the execution budgets by a per-lab multiplier (deadline
    /// week sometimes doubles limits for heavy labs like SGEMM).
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.max_warp_instructions = (self.max_warp_instructions as f64 * factor) as i64;
        self.max_host_steps = (self.max_host_steps as f64 * factor) as u64;
        self
    }

    /// Convert into interpreter options for a given device.
    pub fn to_run_options(&self, device: DeviceConfig) -> RunOptions {
        RunOptions {
            device,
            max_warp_instructions: self.max_warp_instructions,
            max_host_steps: self.max_host_steps,
            max_log_bytes: self.max_log_bytes,
            world_size: self.world_size,
            ..RunOptions::default()
        }
    }

    /// Check a submission's size before compiling.
    pub fn check_source_size(&self, source: &str) -> Result<(), String> {
        if source.len() > self.max_source_bytes {
            return Err(format!(
                "submission is {} bytes; this lab accepts at most {}",
                source.len(),
                self.max_source_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_generous() {
        let l = ResourceLimits::default();
        assert!(l.max_warp_instructions > 1_000_000);
        assert_eq!(l.world_size, 1);
    }

    #[test]
    fn scaling_multiplies_budgets() {
        let l = ResourceLimits::default().scaled(2.0);
        assert_eq!(
            l.max_warp_instructions,
            ResourceLimits::default().max_warp_instructions * 2
        );
        assert_eq!(
            l.max_host_steps,
            ResourceLimits::default().max_host_steps * 2
        );
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        let _ = ResourceLimits::default().scaled(0.0);
    }

    #[test]
    fn source_size_enforced() {
        let l = ResourceLimits {
            max_source_bytes: 10,
            ..Default::default()
        };
        assert!(l.check_source_size("short").is_ok());
        assert!(l.check_source_size("this is too long").is_err());
    }

    #[test]
    fn run_options_carry_budgets() {
        let l = ResourceLimits::strict();
        let o = l.to_run_options(DeviceConfig::default());
        assert_eq!(o.max_warp_instructions, l.max_warp_instructions);
        assert_eq!(o.max_host_steps, l.max_host_steps);
        assert_eq!(o.max_log_bytes, l.max_log_bytes);
    }
}
