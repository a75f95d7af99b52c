//! The test-only tree-walk oracle: SIMT kernel execution over the AST,
//! one block at a time, all threads in lockstep.
//!
//! The product build runs every kernel on the warp-batched IR executor
//! (`batch`); this module is compiled into the unit tests only. There a
//! program built by the front end alone (no IR attached) runs its
//! launches here, and `differential.rs` requires the batched executor
//! to match it on everything a grader can see.
//!
//! The interpreter models CUDA's execution model directly instead of
//! approximating it with one OS thread per GPU thread:
//!
//! * every expression/statement is evaluated **for all threads of the
//!   block at once** over an *active mask* — exactly how a SIMT machine
//!   issues instructions;
//! * `if`/`while`/`for` partition the mask; a warp whose lanes disagree
//!   is counted as a **divergent branch** and both paths are charged;
//! * `__syncthreads()` under a partial mask is a **barrier divergence**
//!   error (undefined behaviour on real hardware; a deterministic,
//!   student-readable diagnostic here);
//! * global memory traffic is grouped per warp into 128-byte
//!   transactions (coalescing), shared memory is charged by bank
//!   conflict degree, and atomics serialize per lane.
//!
//! Blocks are independent (bulk-synchronous model); `device` runs them
//! one at a time in launch order and models the SMs only in its
//! makespan estimate.

// Lockstep interpretation indexes several parallel per-lane vectors
// (`active`, `vals`, `cvals`, …) by the same lane number; iterator
// zipping would obscure the SIMT structure.
#![allow(clippy::needless_range_loop)]

use crate::ast::*;
use crate::cost::{self, CostSummary};
use crate::device::KernelEnv;
use crate::diag::{Diag, Phase, Pos};
use crate::intrinsic::{DeviceOp, Intrinsic, Op};
use crate::ir::OclFn;
use crate::memory::{self, atomic_words, kernel_words, kernel_words_mut, MemPool, SharedMem};
use crate::sema::{const_eval, Program};
use crate::value::{apply_binop, apply_unop, ElemType, Ptr, Space, Value};
use std::collections::HashMap;

/// Execute one block of a kernel launch. Returns the block's cost.
pub(crate) fn run_block(
    env: &KernelEnv<'_>,
    global: &mut MemPool,
    budget: &mut i64,
    program: &Program,
    block_idx: [i64; 3],
    kernel: &FuncDef,
    args: &[Value],
) -> Result<CostSummary, Diag> {
    let n = (env.block_dim[0] * env.block_dim[1] * env.block_dim[2]) as usize;
    let mut tid = Vec::with_capacity(n);
    for z in 0..env.block_dim[2] {
        for y in 0..env.block_dim[1] {
            for x in 0..env.block_dim[0] {
                tid.push([x, y, z]);
            }
        }
    }
    let mut exec = BlockExec {
        env,
        global,
        budget,
        program,
        n,
        block_idx,
        tid,
        shared: SharedMem::new(),
        shared_ids: HashMap::new(),
        func: kernel,
        slots: vec![Vec::new(); kernel.frame.len()],
        active: vec![true; n],
        kernel_returned: vec![false; n],
        cost: CostSummary::default(),
        cycles: 0,
        call_depth: 0,
    };

    // Bind kernel parameters (uniform across threads).
    for (slot, (p, a)) in kernel.params.iter().zip(args).enumerate() {
        let v = a.coerce_to(&p.ty).map_err(|m| exec.rt_err(kernel.pos, m))?;
        exec.slots[slot] = vec![v; n];
    }

    let mut fr = FnFrame {
        returned: vec![false; n],
        retvals: vec![Value::I(0); n],
        loops: Vec::new(),
        kernel_level: true,
    };
    exec.exec_block_stmts(kernel.body, &mut fr)?;

    exec.cycles += cost::BLOCK_OVERHEAD;
    exec.cost.device_cycles = exec.cycles;
    Ok(exec.cost)
}

/// Per-invocation control-flow state.
struct FnFrame {
    returned: Vec<bool>,
    retvals: Vec<Value>,
    loops: Vec<LoopMasks>,
    kernel_level: bool,
}

struct LoopMasks {
    broke: Vec<bool>,
    continued: Vec<bool>,
}

struct BlockExec<'a> {
    env: &'a KernelEnv<'a>,
    global: &'a mut MemPool,
    budget: &'a mut i64,
    /// The AST the tree-walk runs: kernels, `__device__` functions and
    /// `__constant__` symbols.
    program: &'a Program,
    n: usize,
    block_idx: [i64; 3],
    tid: Vec<[i64; 3]>,
    shared: SharedMem,
    shared_ids: HashMap<Sym, u32>,
    /// The function running, whose arenas its statements index.
    func: &'a FuncDef,
    /// The current call's frame: each slot's per-lane values.
    slots: Vec<Vec<Value>>,
    active: Vec<bool>,
    kernel_returned: Vec<bool>,
    cost: CostSummary,
    cycles: u64,
    call_depth: usize,
}

impl<'a> BlockExec<'a> {
    // ---- bookkeeping ---------------------------------------------------

    fn block_linear(&self) -> u32 {
        (self.block_idx[0]
            + self.block_idx[1] * self.env.grid[0]
            + self.block_idx[2] * self.env.grid[0] * self.env.grid[1]) as u32
    }

    fn rt_err(&self, pos: Pos, message: impl Into<String>) -> Diag {
        Diag::new(Phase::Runtime, pos, message).with_thread(self.block_linear(), 0)
    }

    fn lane_err(&self, pos: Pos, lane: usize, message: impl Into<String>) -> Diag {
        Diag::new(Phase::Runtime, pos, message).with_thread(self.block_linear(), lane as u32)
    }

    /// Charge one warp-instruction for every warp with an active lane.
    fn charge_op(&mut self, pos: Pos, cycles_per_warp: u64) -> Result<(), Diag> {
        let mut warps = 0u64;
        for chunk in self.active.chunks(self.env.warp_size) {
            if chunk.iter().any(|&a| a) {
                warps += 1;
            }
        }
        if warps == 0 {
            return Ok(());
        }
        self.cost.warp_instructions += warps;
        self.cycles += cycles_per_warp * warps;
        let left = *self.budget;
        *self.budget -= warps as i64;
        if left <= 0 {
            return Err(Diag::new(
                Phase::Limit,
                pos,
                "kernel exceeded its execution time limit",
            )
            .with_thread(self.block_linear(), 0));
        }
        Ok(())
    }

    fn any_active(&self) -> bool {
        self.active.iter().any(|&a| a)
    }

    // ---- statements ----------------------------------------------------

    fn exec_block_stmts(&mut self, b: Block, fr: &mut FnFrame) -> Result<(), Diag> {
        let f = self.func;
        for s in f.block(b) {
            if !self.any_active() {
                break;
            }
            self.exec_stmt(s, fr)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt, fr: &mut FnFrame) -> Result<(), Diag> {
        let f = self.func;
        match *s {
            Stmt::Decl {
                ty,
                init,
                pos,
                slot,
                ..
            } => {
                self.charge_op(pos, cost::ISSUE)?;
                let vals = match init {
                    Some(e) => {
                        let raw = self.eval(f.expr(e))?;
                        self.coerce_lanes(raw, &ty, pos)?
                    }
                    None => vec![Value::zero_of(&ty); self.n],
                };
                self.slots[slot as usize] = vals;
                Ok(())
            }
            Stmt::SharedDecl {
                elem,
                name,
                dims,
                pos,
                slot,
            } => {
                if !self.shared_ids.contains_key(&name) {
                    let dims: Vec<usize> = dims
                        .ids()
                        .map(|d| const_eval(&f.exprs, d).expect("sema checked") as usize)
                        .collect();
                    let id = self.shared.declare(dims, ElemType::of(&elem));
                    if self.shared.bytes() > self.env.max_shared_bytes {
                        return Err(self.rt_err(
                            pos,
                            format!(
                                "block uses {} bytes of shared memory (limit {})",
                                self.shared.bytes(),
                                self.env.max_shared_bytes
                            ),
                        ));
                    }
                    self.shared_ids.insert(name, id);
                }
                // The array name becomes visible as a level-0 pointer.
                let id = self.shared_ids[&name];
                let p = Ptr {
                    space: Space::Shared,
                    alloc: id,
                    offset: 0,
                    elem: ElemType::of(&elem),
                    level: 0,
                };
                self.slots[slot as usize] = vec![Value::P(p); self.n];
                Ok(())
            }
            Stmt::Assign {
                target,
                op,
                value,
                pos,
            } => {
                let target = f.expr(target);
                let mut rhs = self.eval(f.expr(value))?;
                if let (ExprKind::Index(base, idx), Some(op)) = (target.kind, op) {
                    // Compound index assignment: compute the element
                    // address once and route both the load and the
                    // store through it, so a side-effecting index
                    // (`out[atomicAdd(&c[0], 1)] += x`) is evaluated
                    // exactly once, as in C.
                    let bvals = self.eval(f.expr(base))?;
                    let ivals = self.eval(f.expr(idx))?;
                    let mut ptrs = vec![None; self.n];
                    for i in 0..self.n {
                        if self.active[i] {
                            let p = bvals[i].as_ptr().map_err(|m| self.lane_err(pos, i, m))?;
                            let k = ivals[i].as_int().map_err(|m| self.lane_err(pos, i, m))?;
                            let (q, terminal) =
                                self.index_ptr(p, k).map_err(|m| self.lane_err(pos, i, m))?;
                            if !terminal {
                                return Err(self.lane_err(
                                    pos,
                                    i,
                                    "assignment to a whole array row (missing an index?)",
                                ));
                            }
                            ptrs[i] = Some(q);
                        }
                    }
                    let cur = self.load_lanes(&ptrs, pos)?;
                    for i in 0..self.n {
                        if self.active[i] {
                            rhs[i] = apply_binop(op, cur[i], rhs[i])
                                .map_err(|m| self.lane_err(pos, i, m))?;
                        }
                    }
                    self.charge_op(pos, cost::ISSUE)?;
                    return self.store_lanes(&ptrs, &rhs, pos);
                }
                if let Some(op) = op {
                    let cur = self.eval(target)?;
                    for i in 0..self.n {
                        if self.active[i] {
                            rhs[i] = apply_binop(op, cur[i], rhs[i])
                                .map_err(|m| self.lane_err(pos, i, m))?;
                        }
                    }
                }
                self.assign(target, rhs, pos)
            }
            Stmt::Expr(e) => {
                self.eval(f.expr(e))?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                pos,
            } => {
                self.charge_op(pos, cost::ISSUE)?;
                let cvals = self.eval(f.expr(cond))?;
                let entry = self.active.clone();
                let mut then_mask = vec![false; self.n];
                let mut else_mask = vec![false; self.n];
                for i in 0..self.n {
                    if entry[i] {
                        let t = cvals[i].truthy().map_err(|m| self.lane_err(pos, i, m))?;
                        then_mask[i] = t;
                        else_mask[i] = !t;
                    }
                }
                self.note_divergence(&entry, &then_mask);
                let mut after_then = entry.clone();
                if then_mask.iter().any(|&m| m) {
                    self.active = then_mask;
                    self.exec_block_stmts(then_blk, fr)?;
                    after_then = self.active.clone();
                } else {
                    for i in 0..self.n {
                        after_then[i] = false;
                    }
                }
                let mut after_else = vec![false; self.n];
                if let Some(eb) = else_blk {
                    if else_mask.iter().any(|&m| m) {
                        self.active = else_mask;
                        self.exec_block_stmts(eb, fr)?;
                        after_else = self.active.clone();
                    }
                } else {
                    after_else = else_mask;
                }
                for i in 0..self.n {
                    self.active[i] = after_then[i] || after_else[i];
                }
                Ok(())
            }
            Stmt::While { cond, body, pos } => {
                self.exec_loop(Some(f.expr(cond)), None, body, fr, pos)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                pos,
            } => {
                if let Some(i) = init {
                    self.exec_stmt(f.stmt(i), fr)?;
                }
                let (cond, step) = (cond.map(|c| f.expr(c)), step.map(|st| f.stmt(st)));
                self.exec_loop(cond, step, body, fr, pos)
            }
            Stmt::Return { value, pos } => {
                self.charge_op(pos, cost::ISSUE)?;
                let vals = match value {
                    Some(e) => self.eval(f.expr(e))?,
                    None => vec![Value::I(0); self.n],
                };
                for i in 0..self.n {
                    if self.active[i] {
                        fr.returned[i] = true;
                        fr.retvals[i] = vals[i];
                        if fr.kernel_level {
                            self.kernel_returned[i] = true;
                        }
                        self.active[i] = false;
                    }
                }
                Ok(())
            }
            Stmt::Break(pos) => {
                let lp = fr
                    .loops
                    .last_mut()
                    .ok_or_else(|| Diag::new(Phase::Runtime, pos, "break outside of a loop"))?;
                for i in 0..self.n {
                    if self.active[i] {
                        lp.broke[i] = true;
                        self.active[i] = false;
                    }
                }
                Ok(())
            }
            Stmt::Continue(pos) => {
                let lp = fr
                    .loops
                    .last_mut()
                    .ok_or_else(|| Diag::new(Phase::Runtime, pos, "continue outside of a loop"))?;
                for i in 0..self.n {
                    if self.active[i] {
                        lp.continued[i] = true;
                        self.active[i] = false;
                    }
                }
                Ok(())
            }
            Stmt::Block(b) => self.exec_block_stmts(b, fr),
            Stmt::Launch { pos, .. } => Err(self.rt_err(pos, "nested kernel launch")),
            Stmt::AccParallelLoop { pos, .. } => {
                Err(self.rt_err(pos, "OpenACC pragma inside device code"))
            }
        }
    }

    fn exec_loop(
        &mut self,
        cond: Option<&Expr>,
        step: Option<&Stmt>,
        body: Block,
        fr: &mut FnFrame,
        pos: Pos,
    ) -> Result<(), Diag> {
        let entry = self.active.clone();
        fr.loops.push(LoopMasks {
            broke: vec![false; self.n],
            continued: vec![false; self.n],
        });
        loop {
            // Re-arm lanes that are in the loop: entered, not broken,
            // not returned during previous iterations.
            for i in 0..self.n {
                let lp = fr.loops.last().expect("loop mask");
                self.active[i] = entry[i] && !lp.broke[i] && !fr.returned[i];
            }
            if !self.any_active() {
                break;
            }
            if let Some(c) = cond {
                self.charge_op(pos, cost::ISSUE)?;
                let cvals = self.eval(c)?;
                let before = self.active.clone();
                for i in 0..self.n {
                    if self.active[i] {
                        let t = cvals[i].truthy().map_err(|m| self.lane_err(pos, i, m))?;
                        if !t {
                            self.active[i] = false;
                            // Lane exits the loop permanently.
                            fr.loops.last_mut().expect("loop mask").broke[i] = true;
                        }
                    }
                }
                self.note_divergence(&before, &self.active.clone());
                if !self.any_active() {
                    break;
                }
            }
            self.exec_block_stmts(body, fr)?;
            // Lanes that `continue`d rejoin for the step/condition.
            {
                let lp = fr.loops.last_mut().expect("loop mask");
                for i in 0..self.n {
                    if lp.continued[i] {
                        lp.continued[i] = false;
                        self.active[i] = entry[i] && !lp.broke[i] && !fr.returned[i];
                    }
                }
            }
            if let Some(st) = step {
                if self.any_active() {
                    self.exec_stmt(st, fr)?;
                }
            }
        }
        fr.loops.pop();
        // Lanes that entered the loop resume after it, unless returned.
        for i in 0..self.n {
            self.active[i] = entry[i] && !fr.returned[i];
        }
        Ok(())
    }

    fn note_divergence(&mut self, before: &[bool], after: &[bool]) {
        for w in 0..before.len().div_ceil(self.env.warp_size) {
            let lo = w * self.env.warp_size;
            let hi = (lo + self.env.warp_size).min(before.len());
            let entered = before[lo..hi].iter().filter(|&&b| b).count();
            let stayed = after[lo..hi].iter().filter(|&&b| b).count();
            if entered > 0 && stayed > 0 && stayed < entered {
                self.cost.divergent_branches += 1;
            }
        }
    }

    fn coerce_lanes(&self, mut vals: Vec<Value>, ty: &Type, pos: Pos) -> Result<Vec<Value>, Diag> {
        for i in 0..self.n {
            if self.active[i] {
                vals[i] = vals[i]
                    .coerce_to(ty)
                    .map_err(|m| self.lane_err(pos, i, m))?;
            }
        }
        Ok(vals)
    }

    // ---- assignment ----------------------------------------------------

    fn assign(&mut self, target: &Expr, vals: Vec<Value>, pos: Pos) -> Result<(), Diag> {
        self.charge_op(pos, cost::ISSUE)?;
        let f = self.func;
        match target.kind {
            ExprKind::Bound(Binding::Slot(slot)) => {
                // Determine per-lane representation from the existing
                // value so `int i` stays int after `i = i / 2`.
                let (active, slot) = (&self.active, &mut self.slots[slot as usize]);
                let mut coerced_err: Option<String> = None;
                for i in 0..active.len() {
                    if active[i] {
                        let new = match slot[i] {
                            Value::I(_) => vals[i].as_int().map(Value::I),
                            Value::F(_) => vals[i].as_float().map(Value::F),
                            Value::B(_) => vals[i].truthy().map(Value::B),
                            Value::P(_) => vals[i].as_ptr().map(Value::P),
                        };
                        match new {
                            Ok(v) => slot[i] = v,
                            Err(m) => {
                                coerced_err = Some(m);
                                break;
                            }
                        }
                    }
                }
                if let Some(m) = coerced_err {
                    return Err(self.rt_err(pos, m));
                }
                Ok(())
            }
            ExprKind::Index(base, idx) => {
                let bvals = self.eval(f.expr(base))?;
                let ivals = self.eval(f.expr(idx))?;
                let mut ptrs = vec![None; self.n];
                for i in 0..self.n {
                    if self.active[i] {
                        let p = bvals[i].as_ptr().map_err(|m| self.lane_err(pos, i, m))?;
                        let k = ivals[i].as_int().map_err(|m| self.lane_err(pos, i, m))?;
                        let (q, terminal) =
                            self.index_ptr(p, k).map_err(|m| self.lane_err(pos, i, m))?;
                        if !terminal {
                            return Err(self.lane_err(
                                pos,
                                i,
                                "assignment to a whole array row (missing an index?)",
                            ));
                        }
                        ptrs[i] = Some(q);
                    }
                }
                self.store_lanes(&ptrs, &vals, pos)
            }
            _ => Err(self.rt_err(pos, "left side of assignment is not assignable")),
        }
    }

    // ---- memory --------------------------------------------------------

    /// Advance a pointer by an index; returns the new pointer and
    /// whether it now refers to an element (terminal) rather than a row.
    fn index_ptr(&self, p: Ptr, i: i64) -> Result<(Ptr, bool), String> {
        if p.space == Space::Shared {
            let arr = self
                .shared
                .array(p.alloc)
                .ok_or_else(|| "invalid shared array".to_string())?;
            let level = p.level as usize;
            let (stride, terminal) = match arr.dims.get(level + 1..) {
                Some(rest) if !rest.is_empty() => (rest.iter().product::<usize>() as i64, false),
                _ => (1, true),
            };
            let mut q = p.step(i, stride);
            q.level += 1;
            return Ok((q, terminal));
        }
        Ok((p.step(i, 1), true))
    }

    /// Load through per-lane pointers, charging coalescing-aware cost.
    fn load_lanes(&mut self, ptrs: &[Option<Ptr>], pos: Pos) -> Result<Vec<Value>, Diag> {
        self.charge_memory(ptrs, pos)?;
        let mut out = vec![Value::I(0); self.n];
        for i in 0..self.n {
            if let Some(p) = ptrs[i] {
                out[i] = kernel_words(self.global, self.env.consts, &self.shared, p)
                    .and_then(|(words, elem)| memory::load(words, p, elem))
                    .map_err(|e| self.lane_err(pos, i, e.0))?;
            }
        }
        Ok(out)
    }

    /// Store through per-lane pointers.
    fn store_lanes(&mut self, ptrs: &[Option<Ptr>], vals: &[Value], pos: Pos) -> Result<(), Diag> {
        self.charge_memory(ptrs, pos)?;
        for i in 0..self.n {
            if let Some(p) = ptrs[i] {
                kernel_words_mut(self.global, &mut self.shared, p)
                    .and_then(|(words, elem)| memory::store(words, p, elem, vals[i]))
                    .map_err(|e| self.lane_err(pos, i, e.0))?;
            }
        }
        Ok(())
    }

    /// Charge cycles for a warp-grouped memory operation.
    fn charge_memory(&mut self, ptrs: &[Option<Ptr>], pos: Pos) -> Result<(), Diag> {
        self.charge_op(pos, 0)?;
        let tw = cost::TRANSACTION_WORDS as i64;
        for w in 0..self.n.div_ceil(self.env.warp_size) {
            let lo = w * self.env.warp_size;
            let hi = (lo + self.env.warp_size).min(self.n);
            let lane_ptrs: Vec<Ptr> = (lo..hi).filter_map(|i| ptrs[i]).collect();
            if lane_ptrs.is_empty() {
                continue;
            }
            // Split by space: global/host traffic coalesces into
            // transactions; shared charges by bank conflicts; constant
            // broadcasts when uniform.
            let globals: Vec<&Ptr> = lane_ptrs
                .iter()
                .filter(|p| matches!(p.space, Space::Global | Space::Host))
                .collect();
            if !globals.is_empty() {
                let mut segments: Vec<(u32, i64)> =
                    globals.iter().map(|p| (p.alloc, p.offset / tw)).collect();
                segments.sort_unstable();
                segments.dedup();
                self.cost.global_accesses += globals.len() as u64;
                self.cost.global_transactions += segments.len() as u64;
                self.cycles += cost::GLOBAL_TRANSACTION * segments.len() as u64;
            }
            let shareds: Vec<&Ptr> = lane_ptrs
                .iter()
                .filter(|p| p.space == Space::Shared)
                .collect();
            if !shareds.is_empty() {
                // Bank conflict degree: max distinct words mapping to
                // the same bank.
                let mut per_bank: HashMap<usize, Vec<i64>> = HashMap::new();
                for p in &shareds {
                    let bank = (p.offset.rem_euclid(cost::SHARED_BANKS as i64)) as usize;
                    per_bank.entry(bank).or_default().push(p.offset);
                }
                let degree = per_bank
                    .values_mut()
                    .map(|offs| {
                        offs.sort_unstable();
                        offs.dedup();
                        offs.len()
                    })
                    .max()
                    .unwrap_or(1);
                self.cost.shared_accesses += 1;
                self.cost.shared_conflicts += degree.saturating_sub(1) as u64;
                self.cycles += cost::SHARED_ACCESS + cost::SHARED_CONFLICT * (degree as u64 - 1);
            }
            let consts: Vec<&Ptr> = lane_ptrs
                .iter()
                .filter(|p| p.space == Space::Constant)
                .collect();
            if !consts.is_empty() {
                let uniform = consts.windows(2).all(|w| w[0].offset == w[1].offset);
                // Broadcast is as cheap as a register; scattered reads
                // serialize like global.
                self.cycles += if uniform {
                    cost::SHARED_ACCESS
                } else {
                    cost::GLOBAL_TRANSACTION
                };
            }
        }
        Ok(())
    }

    // ---- expressions ---------------------------------------------------

    fn eval(&mut self, e: &Expr) -> Result<Vec<Value>, Diag> {
        let f = self.func;
        let pos = f.pos(e);
        match e.kind {
            ExprKind::IntLit(v) => Ok(vec![Value::I(v.get()); self.n]),
            ExprKind::FloatLit(v) => Ok(vec![Value::F(v); self.n]),
            ExprKind::StrLit(_) => Err(self.rt_err(pos, "strings are not device values")),
            ExprKind::SizeOf(t) => Ok(vec![Value::I(t.size_of()); self.n]),
            ExprKind::Var(_) => unreachable!("sema binds every name"),
            ExprKind::Bound(binding) => Ok(match binding {
                Binding::Slot(slot) => self.slots[slot as usize].clone(),
                Binding::Constant(id) => vec![Value::P(self.program.constant_ptr(id)); self.n],
                Binding::Predefined(v) => vec![Value::I(v.into()); self.n],
            }),
            ExprKind::Builtin(which, axis) => {
                self.charge_op(pos, cost::ISSUE)?;
                let ax = axis as usize;
                let out: Vec<Value> = match which {
                    BuiltinVar::ThreadIdx => self.tid.iter().map(|t| Value::I(t[ax])).collect(),
                    BuiltinVar::BlockIdx => vec![Value::I(self.block_idx[ax]); self.n],
                    BuiltinVar::BlockDim => vec![Value::I(self.env.block_dim[ax]); self.n],
                    BuiltinVar::GridDim => vec![Value::I(self.env.grid[ax]); self.n],
                };
                Ok(out)
            }
            ExprKind::Unary(op, inner) => {
                self.charge_op(pos, cost::ISSUE)?;
                let mut vals = self.eval(f.expr(inner))?;
                for i in 0..self.n {
                    if self.active[i] {
                        vals[i] = apply_unop(op, vals[i]).map_err(|m| self.lane_err(pos, i, m))?;
                    }
                }
                Ok(vals)
            }
            ExprKind::Binary(op, a, b) => {
                let (a, b) = (f.expr(a), f.expr(b));
                self.charge_op(pos, cost::ISSUE)?;
                // `&&`/`||` short-circuit per lane: evaluate the right
                // side only for lanes that need it.
                if op.is_logical() {
                    let avals = self.eval(a)?;
                    let saved = self.active.clone();
                    let mut need_rhs = vec![false; self.n];
                    for i in 0..self.n {
                        if saved[i] {
                            let at = avals[i].truthy().map_err(|m| self.lane_err(pos, i, m))?;
                            need_rhs[i] = match op {
                                BinOp::And => at,
                                BinOp::Or => !at,
                                _ => unreachable!(),
                            };
                        }
                    }
                    let bvals = if need_rhs.iter().any(|&x| x) {
                        self.active = need_rhs.clone();
                        let r = self.eval(b);
                        self.active = saved.clone();
                        r?
                    } else {
                        vec![Value::B(false); self.n]
                    };
                    let mut out = vec![Value::B(false); self.n];
                    for i in 0..self.n {
                        if saved[i] {
                            let at = avals[i].truthy().unwrap_or(false);
                            let v = if need_rhs[i] {
                                bvals[i].truthy().map_err(|m| self.lane_err(pos, i, m))?
                            } else {
                                at // short-circuited: && false, || true
                            };
                            out[i] = Value::B(match op {
                                BinOp::And => at && v,
                                BinOp::Or => at || v,
                                _ => unreachable!(),
                            });
                        }
                    }
                    return Ok(out);
                }
                let avals = self.eval(a)?;
                let bvals = self.eval(b)?;
                let mut out = vec![Value::I(0); self.n];
                for i in 0..self.n {
                    if self.active[i] {
                        out[i] = apply_binop(op, avals[i], bvals[i])
                            .map_err(|m| self.lane_err(pos, i, m))?;
                    }
                }
                Ok(out)
            }
            ExprKind::Ternary(c, a) => {
                let (a, b) = (f.expr(a), f.expr(a.next()));
                self.charge_op(pos, cost::ISSUE)?;
                let cvals = self.eval(f.expr(c))?;
                let saved = self.active.clone();
                let mut t_mask = vec![false; self.n];
                let mut f_mask = vec![false; self.n];
                for i in 0..self.n {
                    if saved[i] {
                        let t = cvals[i].truthy().map_err(|m| self.lane_err(pos, i, m))?;
                        t_mask[i] = t;
                        f_mask[i] = !t;
                    }
                }
                // Each arm is evaluated only for the lanes that select
                // it — `(i < n) ? in[i] : 0.0` must not load `in[i]`
                // on out-of-range lanes.
                let avals = if t_mask.iter().any(|&m| m) {
                    self.active = t_mask.clone();
                    let r = self.eval(a);
                    self.active = saved.clone();
                    r?
                } else {
                    vec![Value::I(0); self.n]
                };
                let bvals = if f_mask.iter().any(|&m| m) {
                    self.active = f_mask;
                    let r = self.eval(b);
                    self.active = saved;
                    r?
                } else {
                    vec![Value::I(0); self.n]
                };
                let mut out = vec![Value::I(0); self.n];
                for i in 0..self.n {
                    if self.active[i] {
                        out[i] = if t_mask[i] { avals[i] } else { bvals[i] };
                    }
                }
                Ok(out)
            }
            ExprKind::Index(base, idx) => {
                let bvals = self.eval(f.expr(base))?;
                let ivals = self.eval(f.expr(idx))?;
                let mut ptrs = vec![None; self.n];
                let mut all_terminal = true;
                for i in 0..self.n {
                    if self.active[i] {
                        let p = bvals[i].as_ptr().map_err(|m| self.lane_err(pos, i, m))?;
                        let k = ivals[i].as_int().map_err(|m| self.lane_err(pos, i, m))?;
                        let (q, terminal) =
                            self.index_ptr(p, k).map_err(|m| self.lane_err(pos, i, m))?;
                        if !terminal {
                            all_terminal = false;
                        }
                        ptrs[i] = Some(q);
                    }
                }
                if !all_terminal {
                    // Row of a multi-dim shared array: a pointer value.
                    let mut out = vec![Value::I(0); self.n];
                    for i in 0..self.n {
                        if let Some(p) = ptrs[i] {
                            out[i] = Value::P(p);
                        }
                    }
                    return Ok(out);
                }
                self.load_lanes(&ptrs, pos)
            }
            ExprKind::Cast(ty, inner) => {
                let vals = self.eval(f.expr(inner))?;
                self.coerce_lanes(vals, &ty, pos)
            }
            ExprKind::AddrOf(..) => {
                Err(self.rt_err(pos, "address-of is not supported in device code"))
            }
            ExprKind::Call { callee, first, len } => {
                self.eval_call(callee, f.list(ExprKind::args(first, len)), pos)
            }
            ExprKind::Intrinsic { which, first, len } => {
                self.eval_intrinsic(which, f.list(ExprKind::args(first, len)), pos)
            }
        }
    }

    fn eval_intrinsic(
        &mut self,
        which: Intrinsic,
        args: &[Expr],
        pos: Pos,
    ) -> Result<Vec<Value>, Diag> {
        let name = which.name();
        match which.op() {
            Op::Device(DeviceOp::Barrier) => {
                if !args.is_empty() {
                    // barrier(fence_flag): the flag is evaluated but
                    // irrelevant — all shared memory is coherent within
                    // the lockstep block.
                    let _ = self.eval(&args[0])?;
                }
                // All non-exited threads must be active here.
                for i in 0..self.n {
                    if !self.kernel_returned[i] && !self.active[i] {
                        return Err(Diag::new(
                            Phase::Runtime,
                            pos,
                            "__syncthreads() reached with divergent threads (barrier divergence)",
                        )
                        .with_thread(self.block_linear(), i as u32));
                    }
                    if self.kernel_returned[i] && self.active[i] {
                        unreachable!("returned lanes are inactive");
                    }
                }
                if self.kernel_returned.iter().any(|&r| r) && self.active.iter().any(|&a| a) {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "__syncthreads() after some threads returned (barrier divergence)",
                    )
                    .with_thread(self.block_linear(), 0));
                }
                self.cost.barriers += 1;
                self.charge_op(pos, cost::BARRIER)?;
                Ok(vec![Value::I(0); self.n])
            }
            Op::Device(DeviceOp::Atomic(kind)) => {
                let pvals = self.eval(&args[0])?;
                let vvals = self.eval(&args[1])?;
                let mut out = vec![Value::I(0); self.n];
                let mut lanes = 0u64;
                for i in 0..self.n {
                    if self.active[i] {
                        lanes += 1;
                        let p = pvals[i].as_ptr().map_err(|m| self.lane_err(pos, i, m))?;
                        out[i] = atomic_words(self.global, &mut self.shared, p, name)
                            .and_then(|(words, elem)| memory::rmw(words, p, elem, kind, vvals[i]))
                            .map_err(|e| self.lane_err(pos, i, e.0))?;
                    }
                }
                self.cost.atomics += lanes;
                self.cycles += cost::ATOMIC * lanes;
                self.charge_op(pos, 0)?;
                Ok(out)
            }
            Op::Device(DeviceOp::AtomicCas) => {
                let pvals = self.eval(&args[0])?;
                let cvals = self.eval(&args[1])?;
                let vvals = self.eval(&args[2])?;
                let mut out = vec![Value::I(0); self.n];
                let mut lanes = 0u64;
                for i in 0..self.n {
                    if self.active[i] {
                        lanes += 1;
                        let p = pvals[i].as_ptr().map_err(|m| self.lane_err(pos, i, m))?;
                        let c = cvals[i].as_int().map_err(|m| self.lane_err(pos, i, m))?;
                        let v = vvals[i].as_int().map_err(|m| self.lane_err(pos, i, m))?;
                        out[i] = atomic_words(self.global, &mut self.shared, p, name)
                            .and_then(|(words, elem)| memory::cas(words, p, elem, c, v))
                            .map_err(|e| self.lane_err(pos, i, e.0))?;
                    }
                }
                self.cost.atomics += lanes;
                self.cycles += cost::ATOMIC * lanes;
                self.charge_op(pos, 0)?;
                Ok(out)
            }
            Op::Device(DeviceOp::WorkItem(query)) => {
                self.charge_op(pos, cost::ISSUE)?;
                let dvals = self.eval(&args[0])?;
                let mut out = vec![Value::I(0); self.n];
                for i in 0..self.n {
                    if self.active[i] {
                        let d = dvals[i].as_int().map_err(|m| self.lane_err(pos, i, m))?;
                        if !(0..3).contains(&d) {
                            return Err(self.lane_err(pos, i, "work-item dimension must be 0..3"));
                        }
                        let d = d as usize;
                        let v = match query {
                            OclFn::LocalId => self.tid[i][d],
                            OclFn::GroupId => self.block_idx[d],
                            OclFn::LocalSize => self.env.block_dim[d],
                            OclFn::NumGroups => self.env.grid[d],
                            OclFn::GlobalSize => self.env.grid[d] * self.env.block_dim[d],
                            OclFn::GlobalId => {
                                self.block_idx[d] * self.env.block_dim[d] + self.tid[i][d]
                            }
                        };
                        out[i] = Value::I(v);
                    }
                }
                Ok(out)
            }
            Op::Math(op) => {
                self.charge_op(pos, cost::SFU)?;
                let argvals: Vec<Vec<Value>> = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<_, _>>()?;
                let mut out = vec![Value::I(0); self.n];
                for i in 0..self.n {
                    if self.active[i] {
                        let lane_args: Vec<Value> = argvals.iter().map(|v| v[i]).collect();
                        out[i] = op
                            .apply(name, &lane_args)
                            .map_err(|m| self.lane_err(pos, i, m))?;
                    }
                }
                Ok(out)
            }
            Op::Host(_) => unreachable!("sema keeps host calls out of device code"),
        }
    }

    /// A user `__device__` function call.
    fn eval_call(&mut self, sym: Sym, args: &[Expr], pos: Pos) -> Result<Vec<Value>, Diag> {
        let name = self.program.name(sym);
        let f = self.program.func_named(sym).expect("sema binds every call");
        if self.call_depth >= 32 {
            return Err(self.rt_err(pos, format!("recursion limit reached calling `{name}`")));
        }
        let argvals: Vec<Vec<Value>> = args
            .iter()
            .map(|a| self.eval(a))
            .collect::<Result<_, _>>()?;
        self.charge_op(pos, cost::ISSUE)?;

        let saved_active = self.active.clone();
        let mut frame = vec![Vec::new(); f.frame.len()];
        for (slot, (p, vals)) in f.params.iter().zip(argvals).enumerate() {
            frame[slot] = self.coerce_lanes(vals, &p.ty, pos)?;
        }
        let caller = std::mem::replace(&mut self.slots, frame);
        let caller_func = std::mem::replace(&mut self.func, f);
        self.call_depth += 1;
        let mut fr = FnFrame {
            returned: vec![false; self.n],
            retvals: vec![Value::I(0); self.n],
            loops: Vec::new(),
            kernel_level: false,
        };
        let result = self.exec_block_stmts(f.body, &mut fr);
        self.call_depth -= 1;
        self.slots = caller;
        self.func = caller_func;
        self.active = saved_active;
        result?;
        Ok(fr.retvals)
    }
}
