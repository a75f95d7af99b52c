//! The simulated GPU device: launch validation, block execution, and
//! wall-clock cycle estimation.
//!
//! Every block runs on the warp-batched IR executor (`batch`), over the
//! IR that `compile_with` lowers and attaches at every [`OptLevel`].
//! Every observable of a launch — memory, counters, makespan, the first
//! diagnostic — is the one running its blocks one after another in
//! launch order gives, so every launch is deterministic (float atomics
//! across blocks included) and a cached grade always equals a fresh one.
//!
//! # Fan-out
//!
//! Block 0 runs on the calling (rank) thread, which is the only writer
//! of simulated words. The other blocks fan out to helper threads when
//! the kernel and its callees have no atomic, block 0 loaded no global
//! allocation it also stored, and the work block 0 predicts for the
//! rest fits the budget and gives every participant `FAN_OUT_WORK`
//! (on a 1-core host nothing is spawned). Blocks `1..B` then split into
//! contiguous ranges: the rank thread runs the first, scoped helpers the
//! others. Each participant reads `&MemPool`, logs its global stores
//! (`batch::StoreLog`), records the allocations it loaded and stored,
//! and stops at its first failure.
//!
//! The launch **commits** when every range finished, the total
//! warp-instructions fit the budget and no allocation was both loaded
//! and stored anywhere in the launch: the rank thread applies the logs
//! and merges the per-block counters, both in block order. No block
//! read what any block wrote, so that is launch order's result.
//! **Otherwise** everything is discarded and blocks `1..B` run on the
//! rank thread in launch order, which reproduces the first diagnostic
//! exactly, since simulated memory was never touched.
//!
//! The SMs exist only in the makespan model: `num_sms` sizes it, it
//! runs nothing.
//!
//! [`OptLevel`]: crate::OptLevel

use crate::batch::{BatchExec, Footprint, Global, StoreLog};
use crate::cost::{self, CostSummary};
use crate::diag::{Diag, Phase, Pos};
use crate::host::INTERP_STACK;
use crate::ir::{Inst, IrFunc, IrProgram};
use crate::memory::{ConstMem, MemPool};
use crate::sema::Program;
use crate::value::Value;
use std::sync::OnceLock;

/// Static description of the simulated device.
///
/// Defaults approximate a mid-range teaching GPU; the exact numbers
/// only matter relative to each other (see `cost`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name reported by the Device Query lab.
    pub name: String,
    /// Streaming multiprocessors the makespan model spreads blocks
    /// over. How many blocks run at once depends on the host's cores,
    /// not on this.
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

/// Immutable context shared by all blocks of one launch. The launch
/// lends the executor the device pool and the warp budget mutably
/// beside it. Kernels never see the host pool: dereferencing a host
/// pointer is a classic student bug that the executors report instead
/// of silently corrupting memory.
pub(crate) struct KernelEnv<'a> {
    /// Constant memory image.
    pub consts: &'a ConstMem,
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

/// Execute a full kernel launch: every block of the grid, with the
/// result of running them in launch order and stopping at the first
/// failure.
///
/// `program` must carry lowered IR (every [`crate::compile_with`]
/// attaches it); a program straight from [`crate::sema::analyze`] has
/// none, and its launch fails with a [`Phase::Runtime`] diagnostic.
/// `budget` is the rank's remaining warp-instruction budget, which
/// every block of the launch draws down.
#[allow(clippy::too_many_arguments)]
pub fn launch(
    config: &DeviceConfig,
    program: &Program,
    kernel: &str,
    grid: [i64; 3],
    block: [i64; 3],
    args: &[Value],
    global: &mut MemPool,
    consts: &ConstMem,
    budget: &mut i64,
    pos: Pos,
) -> Result<LaunchResult, Diag> {
    validate_launch(config, grid, block, pos)?;
    // An empty block charges nothing, so without this check a grid
    // larger than the budget would run for as long as it has blocks.
    let blocks: i64 = grid.iter().product();
    if blocks > *budget {
        return Err(Diag::new(
            Phase::Limit,
            pos,
            format!("kernel exceeded its execution time limit ({blocks} blocks launched)"),
        ));
    }

    let env = KernelEnv {
        consts,
        grid,
        block_dim: block,
        max_shared_bytes: config.max_shared_bytes,
        warp_size: config.warp_size,
    };
    match program
        .ir()
        .and_then(|ir| Some((ir, ir.funcs.get(kernel)?)))
    {
        Some((ir, f)) => run_grid(config, &env, ir, f, args, global, budget),
        // The tree-walk oracle: tests build a program with the front end
        // alone to run its kernels on `simt`, one block after another.
        #[cfg(test)]
        None => {
            let f = program.func(kernel).ok_or_else(|| {
                Diag::new(Phase::Runtime, pos, format!("unknown kernel `{kernel}`"))
            })?;
            let mut cost = GridCost::new(config);
            for k in 0..blocks as usize {
                let bi = block_at(grid, k);
                cost.add(&crate::simt::run_block(
                    &env, global, budget, program, bi, f, args,
                )?);
            }
            Ok(cost.finish())
        }
        #[cfg(not(test))]
        None => Err(Diag::new(
            Phase::Runtime,
            pos,
            format!("kernel `{kernel}` has no lowered IR: compile the program before running it"),
        )),
    }
}

/// Run every block of `grid` through the batched executor, stopping at
/// the first failure. Block 0 runs on this thread; the rest fan out
/// over helper threads when [`fan_out_parts`] allows and the fanned-out
/// run commits, and otherwise run here in launch order.
fn run_grid(
    config: &DeviceConfig,
    env: &KernelEnv<'_>,
    ir: &IrProgram,
    f: &IrFunc,
    args: &[Value],
    global: &mut MemPool,
    budget: &mut i64,
) -> Result<LaunchResult, Diag> {
    let blocks = env.grid.iter().product::<i64>() as usize;
    let mut cost = GridCost::new(config);
    // Only `charge` draws the budget down, by the warp-instructions it
    // counts, so what is left after block 0 follows from its count.
    let start = *budget;
    // One executor, whose arena and tables every block it runs reuses.
    let mut exec = BatchExec::new(env, ir, Global::Owned(global), budget);
    cost.add(&exec.run_block(block_at(env.grid, 0), f, args)?);
    let left = start - cost.total.warp_instructions as i64;
    let parts = fan_out_parts(ir, f, blocks, &cost.total, left, &exec.footprint);
    if parts > 1 {
        let (_, block0) = exec.finish();
        if let Some((done, warps)) = fan_out(env, ir, f, args, global, left, block0, blocks, parts)
        {
            for part in done {
                part.log.apply(global);
                for c in &part.costs {
                    cost.add(c);
                }
            }
            *budget -= warps as i64;
            return Ok(cost.finish());
        }
        // Nothing was written: run the blocks here, which reproduces
        // the first failure exactly.
        exec = BatchExec::new(env, ir, Global::Owned(global), budget);
    }
    for k in 1..blocks {
        cost.add(&exec.run_block(block_at(env.grid, k), f, args)?);
    }
    Ok(cost.finish())
}

/// The index of block `k` of `grid` in launch order (x fastest).
fn block_at(grid: [i64; 3], k: usize) -> [i64; 3] {
    let [gx, gy, _] = grid;
    let k = k as i64;
    [k % gx, k / gx % gy, k / (gx * gy)]
}

/// A launch's counters, merged block by block in launch order, and
/// its makespan: blocks round-robin onto SMs in launch order (a good
/// proxy for the hardware scheduler).
struct GridCost {
    total: CostSummary,
    sm_cycles: Vec<u64>,
    blocks: usize,
}

impl GridCost {
    fn new(config: &DeviceConfig) -> Self {
        GridCost {
            total: CostSummary::default(),
            sm_cycles: vec![0; config.num_sms.max(1)],
            blocks: 0,
        }
    }

    /// Add the next block in launch order.
    fn add(&mut self, c: &CostSummary) {
        self.total.merge(c);
        let slot = self.blocks % self.sm_cycles.len();
        self.sm_cycles[slot] += c.device_cycles;
        self.blocks += 1;
    }

    fn finish(mut self) -> LaunchResult {
        self.total.kernel_launches = 1;
        LaunchResult {
            cost: self.total,
            elapsed_cycles: cost::LAUNCH_OVERHEAD + self.sm_cycles.into_iter().max().unwrap_or(0),
        }
    }
}

// ---- fan-out -------------------------------------------------------------

/// The warp-instructions each participant of a fanned-out launch must
/// be expected to run, so a launch fans out from 2¹⁵. Spawning and
/// joining a helper thread costs about 20 µs, under a thousand
/// warp-instructions of the lab kernels (`minicuda.warp_instr_per_us`
/// reads about 38 on a 2-core x86 box); at this size the spawn is under
/// 5 % of a helper's work.
const FAN_OUT_WORK: u64 = 1 << 14;

/// Cores this process may use, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many participants blocks `1..blocks` split over, or 0 when they
/// run on this thread. They fan out only when the kernel and its
/// callees have no atomic, block 0 (which `block0` counts and
/// `footprint` records) loaded no allocation it stored, and the work
/// block 0 predicts for the rest — its count times their number — fits
/// the budget `left` and gives every participant [`FAN_OUT_WORK`].
fn fan_out_parts(
    ir: &IrProgram,
    f: &IrFunc,
    blocks: usize,
    block0: &CostSummary,
    left: i64,
    footprint: &Footprint,
) -> usize {
    let rest = blocks - 1;
    let work = block0.warp_instructions.saturating_mul(rest as u64);
    let parts = fan_out_width(cores(), rest, work);
    if parts < 2 || work >= left.max(0) as u64 || footprint.conflicts() || has_atomics(ir, f) {
        return 0;
    }
    parts
}

/// Participants for `work` warp-instructions over `rest` blocks on
/// `cores` cores: one per core, per block, and per [`FAN_OUT_WORK`].
fn fan_out_width(cores: usize, rest: usize, work: u64) -> usize {
    let by_work = usize::try_from(work / FAN_OUT_WORK).unwrap_or(usize::MAX);
    cores.min(rest).min(by_work)
}

/// Whether `f` or a function it calls has an atomic instruction.
fn has_atomics(ir: &IrProgram, f: &IrFunc) -> bool {
    let (mut todo, mut seen) = (vec![f], vec![f.name.as_str()]);
    while let Some(g) = todo.pop() {
        for inst in g.blocks.iter().flat_map(|b| &b.insts) {
            match inst {
                Inst::Atomic { .. } | Inst::AtomicCas { .. } => return true,
                Inst::Call { callee, .. } if !seen.contains(&&**callee) => {
                    seen.push(callee);
                    todo.extend(ir.funcs.get(callee));
                }
                _ => {}
            }
        }
    }
    false
}

/// One participant's run of consecutive blocks: each block's counters,
/// the log of their global stores, and what they loaded and stored.
struct Part {
    costs: Vec<CostSummary>,
    log: StoreLog,
    footprint: Footprint,
}

/// Run blocks `1..blocks` in `parts` contiguous ranges: the first on
/// this thread, the others on scoped helpers, every one reading
/// `global` and logging its stores. Returns the parts in launch order
/// and their warp-instructions when the run may commit: every part
/// finished, the total fits the budget `left`, and no allocation was
/// both loaded and stored anywhere in the launch (`block0` included).
/// Otherwise nothing of it is kept.
#[allow(clippy::too_many_arguments)]
fn fan_out(
    env: &KernelEnv<'_>,
    ir: &IrProgram,
    f: &IrFunc,
    args: &[Value],
    global: &MemPool,
    left: i64,
    block0: Footprint,
    blocks: usize,
    parts: usize,
) -> Option<(Vec<Part>, u64)> {
    // The logs together hold at most the live device words.
    let cap = global.live_words().div_ceil(parts);
    let run = |first: usize, end: usize| -> Option<Part> {
        let mut budget = left;
        let log = StoreLog::new(cap);
        let mut exec = BatchExec::new(env, ir, Global::Logged(global, log), &mut budget);
        exec.footprint = block0.clone();
        let costs = (first..end)
            .map(|k| exec.run_block(block_at(env.grid, k), f, args).ok())
            .collect::<Option<Vec<_>>>()?;
        let (log, footprint) = exec.finish();
        Some(Part {
            costs,
            log,
            footprint,
        })
    };
    let bound = |p: usize| 1 + (blocks - 1) * p / parts;
    let done: Vec<Option<Part>> = std::thread::scope(|s| {
        let run = &run;
        let helpers: Vec<_> = (1..parts)
            .map(|p| {
                std::thread::Builder::new()
                    .stack_size(INTERP_STACK)
                    .spawn_scoped(s, move || run(bound(p), bound(p + 1)))
            })
            .collect();
        let mut done = vec![run(bound(0), bound(1))];
        for h in helpers {
            // A helper that could not start leaves its blocks undone.
            done.push(
                h.ok()
                    .and_then(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            );
        }
        done
    });
    let done = done.into_iter().collect::<Option<Vec<Part>>>()?;
    let mut footprint = block0;
    let mut warps = 0;
    for part in &done {
        footprint.merge(&part.footprint);
        warps += part.costs.iter().map(|c| c.warp_instructions).sum::<u64>();
    }
    (warps < left as u64 && !footprint.conflicts()).then_some((done, warps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ElemType, Ptr, Space};
    use crate::{compile, Dialect};

    #[test]
    fn a_launch_fans_out_from_two_participants_worth_of_work() {
        let w = FAN_OUT_WORK;
        assert_eq!(fan_out_width(2, 63, 2 * w - 1), 1);
        assert_eq!(fan_out_width(2, 63, 2 * w), 2);
        assert_eq!(fan_out_width(8, 63, 5 * w), 5);
        assert_eq!(fan_out_width(8, 3, u64::MAX), 3);
        assert_eq!(fan_out_width(1, 63, u64::MAX), 1);
    }

    /// Run block 0 of `k(a, b)` over 64 blocks of 256 threads, then
    /// blocks 1..64 fanned out over two participants: whether that run
    /// may commit.
    fn commits(kernel: &str) -> bool {
        let program = compile(kernel, Dialect::Cuda).unwrap_or_else(|d| panic!("{d}"));
        let ir = program.ir().expect("lowered");
        let f = ir.funcs.get("k").expect("kernel k");
        let mut global = MemPool::new();
        let arg = |alloc| {
            Value::P(Ptr {
                space: Space::Global,
                alloc,
                offset: 0,
                elem: ElemType::F32,
                level: 0,
            })
        };
        let args = [
            arg(global.alloc_elems(64 * 256)),
            arg(global.alloc_elems(64 * 256)),
        ];
        let consts = ConstMem::new();
        let env = KernelEnv {
            consts: &consts,
            grid: [64, 1, 1],
            block_dim: [256, 1, 1],
            max_shared_bytes: 48 * 1024,
            warp_size: 32,
        };
        let mut budget = i64::MAX;
        let mut exec = BatchExec::new(&env, ir, Global::Owned(&mut global), &mut budget);
        exec.run_block([0, 0, 0], f, &args).expect("block 0 runs");
        let (_, block0) = exec.finish();
        fan_out(&env, ir, f, &args, &global, i64::MAX, block0, 64, 2).is_some()
    }

    #[test]
    fn a_fanned_out_launch_commits_only_without_shared_allocations_or_atomics() {
        let index = "int i = blockIdx.x * blockDim.x + threadIdx.x;";
        let run = |body: &str| {
            commits(&format!(
                "__global__ void k(float* a, float* b) {{ {index} {body} }}"
            ))
        };
        assert!(run("b[i] = a[i] + 1;"));
        assert!(run("b[0] = blockIdx.x;"));
        // Block 0 is clean; a later block loads what another stores.
        assert!(!run(
            "if (blockIdx.x == 9) { b[0] = a[0]; } else { a[i] = 1; }"
        ));
        assert!(!run("if (blockIdx.x > 0) { b[i] += 1; }"));
        assert!(!run("if (blockIdx.x > 0) { atomicAdd(&b[0], 1.0); }"));
    }

    #[test]
    fn atomics_are_found_in_the_kernel_and_its_callees() {
        let program = compile(
            "__device__ void bump(float* b) { atomicAdd(b, 1.0); }
             __device__ void outer(float* b) { bump(b); }
             __global__ void k(float* b) { outer(b); }
             __global__ void plain(float* b) { b[0] = 1.0; }
             int main() { return 0; }",
            Dialect::Cuda,
        )
        .unwrap_or_else(|d| panic!("{d}"));
        let ir = program.ir().expect("lowered");
        assert!(has_atomics(ir, ir.funcs.get("k").unwrap()));
        assert!(!has_atomics(ir, ir.funcs.get("plain").unwrap()));
    }

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
