//! The simulated GPU device: launch validation, block execution, and
//! wall-clock cycle estimation.
//!
//! Every block runs on the warp-batched IR executor (`batch`), over the
//! IR that `compile_with` lowers and attaches at every [`OptLevel`].
//! Blocks run one after another in launch order on the calling thread,
//! so every launch is deterministic — float atomics across blocks
//! included — and a cached grade always equals a fresh one. The SMs
//! exist only in the makespan model: `num_sms` sizes it, it runs
//! nothing.
//!
//! [`OptLevel`]: crate::OptLevel

use crate::batch::BatchExec;
use crate::cost::{self, CostSummary};
use crate::diag::{Diag, Phase, Pos};
use crate::memory::{ConstMem, MemPool};
use crate::sema::Program;
use crate::value::Value;
use std::sync::atomic::{AtomicI64, Ordering};

/// Static description of the simulated device.
///
/// Defaults approximate a mid-range teaching GPU; the exact numbers
/// only matter relative to each other (see `cost`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name reported by the Device Query lab.
    pub name: String,
    /// Streaming multiprocessors the makespan model spreads blocks
    /// over. Blocks still run one at a time, in launch order.
    pub num_sms: usize,
    /// Warp width.
    pub warp_size: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// Maximum extent of each block dimension.
    pub max_block_dim: [i64; 3],
    /// Maximum extent of each grid dimension.
    pub max_grid_dim: [i64; 3],
    /// Shared memory per block, bytes.
    pub max_shared_bytes: usize,
    /// Global memory size in 32-bit words.
    pub global_mem_words: usize,
    /// Constant memory in bytes (Device Query lab output).
    pub const_mem_bytes: usize,
    /// Core clock in kHz (used to convert cycles → virtual µs).
    pub clock_khz: u64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            name: "SimGPU 1080e".to_string(),
            num_sms: 8,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_block_dim: [1024, 1024, 64],
            max_grid_dim: [65_535, 65_535, 65_535],
            max_shared_bytes: 48 * 1024,
            global_mem_words: 64 << 20, // 256 MiB
            const_mem_bytes: 64 * 1024,
            clock_khz: 1_000_000,
        }
    }
}

impl DeviceConfig {
    /// A tiny device for unit tests: two SMs in the makespan model.
    pub fn test_small() -> Self {
        DeviceConfig {
            name: "SimGPU test".to_string(),
            num_sms: 2,
            ..Default::default()
        }
    }
}

/// Immutable context shared by all blocks of one launch.
pub(crate) struct KernelEnv<'a> {
    /// Device global memory pool. Kernels never see the host pool:
    /// dereferencing a host pointer is a classic student bug that the
    /// executors report instead of silently corrupting memory.
    pub global: &'a MemPool,
    /// Constant memory image.
    pub consts: &'a ConstMem,
    /// Remaining warp-instruction budget, shared across blocks.
    pub budget: &'a AtomicI64,
    /// Grid dimensions.
    pub grid: [i64; 3],
    /// Block dimensions.
    pub block_dim: [i64; 3],
    /// Per-block shared memory cap in bytes.
    pub max_shared_bytes: usize,
    /// Warp width (32 on the modeled device).
    pub warp_size: usize,
}

/// Outcome of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Aggregated counters over all blocks.
    pub cost: CostSummary,
    /// Estimated wall-clock device cycles: blocks are list-scheduled
    /// onto SMs and the makespan is taken.
    pub elapsed_cycles: u64,
}

/// Validate a launch configuration against device limits.
fn validate_launch(
    config: &DeviceConfig,
    grid: [i64; 3],
    block: [i64; 3],
    pos: Pos,
) -> Result<(), Diag> {
    for (axis, (&g, &max)) in grid.iter().zip(&config.max_grid_dim).enumerate() {
        if g < 1 || g > max {
            return Err(Diag::new(
                Phase::Runtime,
                pos,
                format!("grid dimension {axis} is {g}; must be in 1..={max}"),
            ));
        }
    }
    for (axis, (&b, &max)) in block.iter().zip(&config.max_block_dim).enumerate() {
        if b < 1 || b > max {
            return Err(Diag::new(
                Phase::Runtime,
                pos,
                format!("block dimension {axis} is {b}; must be in 1..={max}"),
            ));
        }
    }
    let threads = block[0] * block[1] * block[2];
    if threads > config.max_threads_per_block as i64 {
        return Err(Diag::new(
            Phase::Runtime,
            pos,
            format!(
                "block has {threads} threads; the device supports at most {}",
                config.max_threads_per_block
            ),
        ));
    }
    Ok(())
}

/// Execute a full kernel launch: every block of the grid, one after
/// another in launch order, stopping at the first failure.
///
/// `program` must carry lowered IR (every [`crate::compile_with`]
/// attaches it); a program straight from [`crate::sema::analyze`] has
/// none, and its launch fails with a [`Phase::Runtime`] diagnostic.
#[allow(clippy::too_many_arguments)]
pub fn launch(
    config: &DeviceConfig,
    program: &Program,
    kernel: &str,
    grid: [i64; 3],
    block: [i64; 3],
    args: &[Value],
    global: &MemPool,
    consts: &ConstMem,
    budget: &AtomicI64,
    pos: Pos,
) -> Result<LaunchResult, Diag> {
    validate_launch(config, grid, block, pos)?;
    // An empty block charges nothing, so without this check a grid
    // larger than the budget would run for as long as it has blocks.
    let blocks: i64 = grid.iter().product();
    if blocks > budget.load(Ordering::Relaxed) {
        return Err(Diag::new(
            Phase::Limit,
            pos,
            format!("kernel exceeded its execution time limit ({blocks} blocks launched)"),
        ));
    }

    let env = KernelEnv {
        global,
        consts,
        budget,
        grid,
        block_dim: block,
        max_shared_bytes: config.max_shared_bytes,
        warp_size: config.warp_size,
    };
    match program
        .ir()
        .and_then(|ir| Some((ir, ir.funcs.get(kernel)?)))
    {
        Some((ir, f)) => {
            // One executor, whose arena and tables every block reuses.
            let mut exec = BatchExec::new(&env, ir);
            run_grid(config, grid, |bi| exec.run_block(bi, f, args))
        }
        // The tree-walk oracle: tests build a program with the front end
        // alone to run its kernels on `simt`.
        #[cfg(test)]
        None => {
            let f = program.func(kernel).ok_or_else(|| {
                Diag::new(Phase::Runtime, pos, format!("unknown kernel `{kernel}`"))
            })?;
            run_grid(config, grid, |bi| {
                crate::simt::run_block(&env, program, bi, f, args)
            })
        }
        #[cfg(not(test))]
        None => Err(Diag::new(
            Phase::Runtime,
            pos,
            format!("kernel `{kernel}` has no lowered IR: compile the program before running it"),
        )),
    }
}

/// Run every block of `grid` in launch order through `run_block`,
/// merge the counters and estimate the makespan: blocks round-robin
/// onto SMs in launch order (a good proxy for the hardware scheduler).
fn run_grid(
    config: &DeviceConfig,
    grid: [i64; 3],
    mut run_block: impl FnMut([i64; 3]) -> Result<CostSummary, Diag>,
) -> Result<LaunchResult, Diag> {
    let [gx, gy, gz] = grid;
    let mut total = CostSummary::default();
    let mut sm_cycles = vec![0u64; config.num_sms.max(1)];
    for k in 0..gx * gy * gz {
        let c = run_block([k % gx, k / gx % gy, k / (gx * gy)])?;
        total.merge(&c);
        let slot = k as usize % sm_cycles.len();
        sm_cycles[slot] += c.device_cycles;
    }
    total.kernel_launches = 1;
    let elapsed = cost::LAUNCH_OVERHEAD + sm_cycles.into_iter().max().unwrap_or(0);
    Ok(LaunchResult {
        cost: total,
        elapsed_cycles: elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_validation_limits() {
        let c = DeviceConfig::default();
        let pos = Pos::unknown();
        assert!(validate_launch(&c, [1, 1, 1], [256, 1, 1], pos).is_ok());
        assert!(validate_launch(&c, [0, 1, 1], [256, 1, 1], pos).is_err());
        assert!(validate_launch(&c, [1, 1, 1], [2048, 1, 1], pos).is_err());
        // 32*32*2 = 2048 threads > 1024 even though each dim is legal.
        assert!(validate_launch(&c, [1, 1, 1], [32, 32, 2], pos).is_err());
        assert!(validate_launch(&c, [70_000, 1, 1], [32, 1, 1], pos).is_err());
    }

    #[test]
    fn default_config_is_plausible() {
        let c = DeviceConfig::default();
        assert_eq!(c.warp_size, 32);
        assert!(c.num_sms >= 1);
        assert!(!DeviceConfig::test_small().name.is_empty());
    }
}
