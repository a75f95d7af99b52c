//! Host-side interpreter: `main`, the CUDA runtime API, the `wb*`
//! support library, and the MPI layer.
//!
//! Every interaction with the outside world is a named *hostcall*
//! checked against the sandbox's [`HostcallPolicy`] — the simulated
//! equivalent of the seccomp whitelist the paper describes. The
//! interpreter keeps a virtual clock in device cycles: host statements,
//! memcpy traffic, and kernel makespans all advance it, and `wbTime`
//! spans read it, so students see the same copy-vs-compute breakdowns
//! the real platform reports.

use crate::ast::*;
use crate::cost::{CostModel, CostSummary};
use crate::device::{self, DeviceConfig};
use crate::diag::{Diag, Phase, Pos};
use crate::hostcall::{AllowAll, HostcallPolicy};
use crate::memory::{ConstMem, MemPool};
use crate::mpi::{CommWorld, RankComm};
use crate::sema::{predefined, Program};
use crate::value::{apply_binop, apply_math, apply_unop, ElemType, Ptr, Space, Value};
use libwb::{Dataset, Image, LogLevel, Logger, Timer, TimerKind};
use std::collections::HashMap;
use std::sync::atomic::AtomicI64;

/// Resource limits and device selection for one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Cost model.
    pub model: CostModel,
    /// Device budget in warp-instructions (the "time limit" the paper
    /// places on execution, §III-C).
    pub max_warp_instructions: i64,
    /// Host budget in interpreted statements.
    pub max_host_steps: u64,
    /// Log size cap in bytes.
    pub max_log_bytes: usize,
    /// Number of MPI ranks (1 = no MPI).
    pub world_size: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            device: DeviceConfig::default(),
            model: CostModel::default(),
            max_warp_instructions: 200_000_000,
            max_host_steps: 20_000_000,
            max_log_bytes: 64 * 1024,
            world_size: 1,
        }
    }
}

/// Everything a run produces — what the worker node reports back to the
/// web server.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Dataset registered via `wbSolution*`, if any.
    pub solution: Option<Dataset>,
    /// Captured `wbLog` output.
    pub log: Logger,
    /// `wbTime` spans.
    pub timer: Timer,
    /// Aggregated cost counters.
    pub cost: CostSummary,
    /// Virtual elapsed device cycles (host + copies + kernel makespans).
    pub elapsed_cycles: u64,
    /// First error, if the run failed.
    pub error: Option<Diag>,
    /// `main`'s return value (0 unless the program said otherwise).
    pub exit_code: i64,
    /// Names of hostcalls performed, in order (sandbox audit trail).
    pub hostcalls: Vec<String>,
}

impl RunOutcome {
    /// True when the program ran to completion without a diagnostic.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Run a compiled program against lab inputs with a permissive policy.
pub fn run(program: &Program, inputs: &[Dataset], opts: &RunOptions) -> RunOutcome {
    run_with_policy(program, inputs, opts, &AllowAll)
}

/// Run with an explicit hostcall policy (the sandbox entry point).
/// Stack size for interpreter threads. Tree-walking recursion is
/// stack-hungry in debug builds; interpreters always run on dedicated
/// threads with room to spare so a deeply recursive (but in-budget)
/// student program cannot overflow a small caller stack.
const INTERP_STACK: usize = 32 * 1024 * 1024;

pub fn run_with_policy(
    program: &Program,
    inputs: &[Dataset],
    opts: &RunOptions,
    policy: &dyn HostcallPolicy,
) -> RunOutcome {
    if opts.world_size <= 1 {
        return std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(INTERP_STACK)
                .spawn_scoped(s, || run_rank(program, inputs, opts, policy, None))
                .expect("spawn interpreter thread")
                .join()
                .expect("interpreter thread panicked")
        });
    }
    // MPI mode: one interpreter thread per rank, each with its own
    // device; outcomes are merged with rank 0 as primary.
    let comms = CommWorld::new(opts.world_size).into_rank_comms();
    let mut outcomes: Vec<Option<RunOutcome>> = (0..opts.world_size).map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, comm) in outcomes.iter_mut().zip(comms) {
            std::thread::Builder::new()
                .stack_size(INTERP_STACK)
                .spawn_scoped(s, move || {
                    *slot = Some(run_rank(program, inputs, opts, policy, Some(comm)));
                })
                .expect("spawn rank thread");
        }
    });

    let mut merged: Option<RunOutcome> = None;
    for (rank, o) in outcomes.into_iter().enumerate() {
        let o = o.expect("rank completed");
        match &mut merged {
            None => merged = Some(o),
            Some(m) => {
                m.cost.merge(&o.cost);
                m.elapsed_cycles = m.elapsed_cycles.max(o.elapsed_cycles);
                if m.solution.is_none() {
                    m.solution = o.solution;
                }
                if m.error.is_none() {
                    m.error = o.error;
                }
                for line in o.log.lines() {
                    m.log
                        .log(line.level, format!("[rank {rank}] {}", line.message));
                }
                m.hostcalls.extend(o.hostcalls);
            }
        }
    }
    merged.expect("world_size >= 1")
}

fn run_rank(
    program: &Program,
    inputs: &[Dataset],
    opts: &RunOptions,
    policy: &dyn HostcallPolicy,
    comm: Option<RankComm>,
) -> RunOutcome {
    let mut consts = ConstMem::new();
    for spec in program.constants() {
        consts.declare(spec.len, spec.elem);
    }
    let mut exec = HostExec {
        program,
        opts,
        policy,
        inputs,
        host: MemPool::new(),
        dev: MemPool::new(),
        consts,
        scopes: vec![HashMap::new()],
        logger: Logger::with_capacity(opts.max_log_bytes),
        timer: Timer::new(),
        clock: 0,
        host_steps: 0,
        budget: AtomicI64::new(opts.max_warp_instructions),
        cost: CostSummary::default(),
        solution: None,
        hostcalls: Vec::new(),
        comm,
        call_depth: 0,
    };

    let (error, exit_code) = match exec.run_main() {
        Ok(code) => (None, code),
        // `exit(code)` unwinds as a pseudo-diagnostic; translate it
        // back into a normal termination.
        Err(d) if d.message.starts_with("__exit__:") => {
            let code = d.message["__exit__:".len()..].parse().unwrap_or(1);
            (None, code)
        }
        Err(d) => (Some(d), 1),
    };

    RunOutcome {
        solution: exec.solution,
        log: exec.logger,
        timer: exec.timer,
        cost: exec.cost,
        elapsed_cycles: exec.clock,
        error,
        exit_code,
        hostcalls: exec.hostcalls,
    }
}

/// Control flow result of a host statement.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

struct HostExec<'a> {
    program: &'a Program,
    opts: &'a RunOptions,
    policy: &'a dyn HostcallPolicy,
    inputs: &'a [Dataset],
    host: MemPool,
    dev: MemPool,
    consts: ConstMem,
    scopes: Vec<HashMap<String, (Type, Value)>>,
    logger: Logger,
    timer: Timer,
    clock: u64,
    host_steps: u64,
    budget: AtomicI64,
    cost: CostSummary,
    solution: Option<Dataset>,
    hostcalls: Vec<String>,
    comm: Option<RankComm>,
    call_depth: usize,
}

impl<'a> HostExec<'a> {
    fn run_main(&mut self) -> Result<i64, Diag> {
        // Borrowed for `'a`, not from `self`: the AST outlives the run.
        let program = self.program;
        let main = program
            .func("main")
            .ok_or_else(|| Diag::nowhere(Phase::Sema, "program has no main function"))?;
        match self.exec_block(&main.body)? {
            Flow::Return(v) => Ok(v.as_int().unwrap_or(0)),
            _ => Ok(0),
        }
    }

    // ---- scope helpers ---------------------------------------------------

    fn declare(&mut self, name: &str, ty: Type, v: Value) {
        self.scopes
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), (ty, v));
    }

    fn lookup(&self, name: &str) -> Option<&(Type, Value)> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn assign_var(&mut self, name: &str, v: Value, pos: Pos) -> Result<(), Diag> {
        let slot = self
            .scopes
            .iter_mut()
            .rev()
            .find_map(|s| s.get_mut(name))
            .ok_or_else(|| Diag::new(Phase::Runtime, pos, format!("unknown variable `{name}`")))?;
        let coerced = v
            .coerce_to(&slot.0)
            .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
        slot.1 = coerced;
        Ok(())
    }

    fn step(&mut self, pos: Pos) -> Result<(), Diag> {
        self.host_steps += 1;
        self.cost.host_steps += 1;
        self.clock += self.opts.model.host_step;
        if self.host_steps > self.opts.max_host_steps {
            return Err(Diag::new(
                Phase::Limit,
                pos,
                "program exceeded its host execution time limit",
            ));
        }
        Ok(())
    }

    fn pool_of(&self, space: Space) -> &MemPool {
        match space {
            Space::Host => &self.host,
            Space::Global => &self.dev,
            _ => &self.host, // shared/constant never reach host deref paths
        }
    }

    // ---- statements --------------------------------------------------------

    fn exec_block(&mut self, b: &Block) -> Result<Flow, Diag> {
        self.scopes.push(HashMap::new());
        let mut flow = Flow::Normal;
        for s in &b.stmts {
            flow = self.exec_stmt(s)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        self.scopes.pop();
        Ok(flow)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, Diag> {
        match s {
            Stmt::Decl {
                ty,
                name,
                init,
                pos,
            } => {
                self.step(*pos)?;
                let v = match init {
                    Some(e) => {
                        let raw = self.eval(e)?;
                        raw.coerce_to(ty)
                            .map_err(|m| Diag::new(Phase::Runtime, *pos, m))?
                    }
                    None => Value::zero_of(ty),
                };
                self.declare(name, ty.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::SharedDecl { pos, .. } => {
                Err(Diag::new(Phase::Runtime, *pos, "__shared__ in host code"))
            }
            Stmt::Assign {
                target,
                op,
                value,
                pos,
            } => {
                self.step(*pos)?;
                let mut rhs = self.eval(value)?;
                if let Some(op) = op {
                    let cur = self.eval(target)?;
                    rhs = apply_binop(*op, cur, rhs)
                        .map_err(|m| Diag::new(Phase::Runtime, *pos, m))?;
                }
                match &target.kind {
                    ExprKind::Var(name) => self.assign_var(name, rhs, *pos)?,
                    ExprKind::Index(base, idx) => {
                        let p = self
                            .eval(base)?
                            .as_ptr()
                            .map_err(|m| Diag::new(Phase::Runtime, *pos, m))?;
                        let k = self
                            .eval(idx)?
                            .as_int()
                            .map_err(|m| Diag::new(Phase::Runtime, *pos, m))?;
                        let mut q = p;
                        q.offset += k;
                        self.host_store(q, rhs, *pos)?;
                    }
                    _ => {
                        return Err(Diag::new(
                            Phase::Runtime,
                            *pos,
                            "left side of assignment is not assignable",
                        ))
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.step(e.pos)?;
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                pos,
            } => {
                self.step(*pos)?;
                let c = self
                    .eval(cond)?
                    .truthy()
                    .map_err(|m| Diag::new(Phase::Runtime, *pos, m))?;
                if c {
                    self.exec_block(then_blk)
                } else if let Some(eb) = else_blk {
                    self.exec_block(eb)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body, pos } => {
                loop {
                    self.step(*pos)?;
                    let c = self
                        .eval(cond)?
                        .truthy()
                        .map_err(|m| Diag::new(Phase::Runtime, *pos, m))?;
                    if !c {
                        break;
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                pos,
            } => {
                self.scopes.push(HashMap::new());
                let result = (|| {
                    if let Some(i) = init {
                        self.exec_stmt(i)?;
                    }
                    loop {
                        self.step(*pos)?;
                        if let Some(c) = cond {
                            let t = self
                                .eval(c)?
                                .truthy()
                                .map_err(|m| Diag::new(Phase::Runtime, *pos, m))?;
                            if !t {
                                break;
                            }
                        }
                        match self.exec_block(body)? {
                            Flow::Break => break,
                            Flow::Continue | Flow::Normal => {}
                            other => return Ok(other),
                        }
                        if let Some(st) = step {
                            self.exec_stmt(st)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.scopes.pop();
                result
            }
            Stmt::Return { value, pos } => {
                self.step(*pos)?;
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::I(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Launch {
                kernel,
                grid,
                block,
                args,
                pos,
            } => {
                self.step(*pos)?;
                self.launch(kernel, grid, block, args, *pos)?;
                Ok(Flow::Normal)
            }
            Stmt::AccParallelLoop { body, pos } => {
                // OpenACC offload is simulated as a host-side execution
                // of the annotated loop with device-style accounting:
                // the loop ran "on the accelerator", so its statements
                // are charged to the kernel counters rather than the
                // host budget. See DESIGN.md (substitutions).
                self.step(*pos)?;
                self.cost.kernel_launches += 1;
                self.clock += self.opts.model.launch_overhead;
                self.exec_stmt(body)
            }
        }
    }

    // ---- kernel launches ---------------------------------------------------

    fn eval_dim(&mut self, d: &Dim3Expr, pos: Pos) -> Result<[i64; 3], Diag> {
        let x = self
            .eval(&d.x)?
            .as_int()
            .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
        let y = match &d.y {
            Some(e) => self
                .eval(e)?
                .as_int()
                .map_err(|m| Diag::new(Phase::Runtime, pos, m))?,
            None => 1,
        };
        let z = match &d.z {
            Some(e) => self
                .eval(e)?
                .as_int()
                .map_err(|m| Diag::new(Phase::Runtime, pos, m))?,
            None => 1,
        };
        Ok([x, y, z])
    }

    fn launch(
        &mut self,
        kernel: &str,
        grid: &Dim3Expr,
        block: &Dim3Expr,
        args: &[Expr],
        pos: Pos,
    ) -> Result<(), Diag> {
        self.check_policy("kernelLaunch", pos)?;
        let g = self.eval_dim(grid, pos)?;
        let b = self.eval_dim(block, pos)?;
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a)?);
        }
        let f = self.program.func(kernel).expect("sema verified kernel");
        let result = device::launch(
            &self.opts.device,
            &self.opts.model,
            self.program,
            f,
            g,
            b,
            &argv,
            &self.dev,
            &self.host,
            &self.consts,
            &self.budget,
            false,
            pos,
        )?;
        self.cost.merge(&result.cost);
        self.clock += result.elapsed_cycles;
        Ok(())
    }

    // ---- memory helpers ------------------------------------------------------

    fn host_load(&self, p: Ptr, pos: Pos) -> Result<Value, Diag> {
        match p.space {
            Space::Host => self
                .host
                .load(p)
                .map_err(|e| Diag::new(Phase::Runtime, pos, e.0)),
            Space::Global => Err(Diag::new(
                Phase::Runtime,
                pos,
                "host code dereferenced a device pointer (use cudaMemcpy)",
            )),
            _ => Err(Diag::new(Phase::Runtime, pos, "invalid host access")),
        }
    }

    fn host_store(&mut self, p: Ptr, v: Value, pos: Pos) -> Result<(), Diag> {
        match p.space {
            Space::Host => self
                .host
                .store(p, v)
                .map_err(|e| Diag::new(Phase::Runtime, pos, e.0)),
            Space::Global => Err(Diag::new(
                Phase::Runtime,
                pos,
                "host code wrote through a device pointer (use cudaMemcpy)",
            )),
            _ => Err(Diag::new(Phase::Runtime, pos, "invalid host access")),
        }
    }

    // ---- expressions ---------------------------------------------------------

    fn eval(&mut self, e: &Expr) -> Result<Value, Diag> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::I(*v)),
            ExprKind::FloatLit(v) => Ok(Value::F(*v)),
            ExprKind::StrLit(_) => Err(Diag::new(
                Phase::Runtime,
                e.pos,
                "string literals are only valid as wb* arguments",
            )),
            ExprKind::SizeOf(t) => Ok(Value::I(t.size_of())),
            ExprKind::Var(name) => {
                if let Some((_, v)) = self.lookup(name) {
                    return Ok(*v);
                }
                if let Some(id) = self.program.constant_id(name) {
                    let spec = &self.program.constants()[id as usize];
                    return Ok(Value::P(Ptr {
                        space: Space::Constant,
                        alloc: id,
                        offset: 0,
                        elem: spec.elem,
                        level: 0,
                    }));
                }
                if let Some(v) = predefined(name) {
                    return Ok(Value::I(v));
                }
                Err(Diag::new(
                    Phase::Runtime,
                    e.pos,
                    format!("unknown variable `{name}`"),
                ))
            }
            ExprKind::Builtin(_, _) => Err(Diag::new(
                Phase::Runtime,
                e.pos,
                "threadIdx/blockIdx are not available on the host",
            )),
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner)?;
                apply_unop(*op, v).map_err(|m| Diag::new(Phase::Runtime, e.pos, m))
            }
            ExprKind::Binary(op, a, b) => {
                if op.is_logical() {
                    // Short-circuit like C.
                    let av = self
                        .eval(a)?
                        .truthy()
                        .map_err(|m| Diag::new(Phase::Runtime, e.pos, m))?;
                    return match (op, av) {
                        (BinOp::And, false) => Ok(Value::B(false)),
                        (BinOp::Or, true) => Ok(Value::B(true)),
                        _ => {
                            let bv = self
                                .eval(b)?
                                .truthy()
                                .map_err(|m| Diag::new(Phase::Runtime, e.pos, m))?;
                            Ok(Value::B(bv))
                        }
                    };
                }
                let av = self.eval(a)?;
                let bv = self.eval(b)?;
                apply_binop(*op, av, bv).map_err(|m| Diag::new(Phase::Runtime, e.pos, m))
            }
            ExprKind::Ternary(c, a, b) => {
                let cv = self
                    .eval(c)?
                    .truthy()
                    .map_err(|m| Diag::new(Phase::Runtime, e.pos, m))?;
                if cv {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
            ExprKind::Index(base, idx) => {
                let p = self
                    .eval(base)?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, e.pos, m))?;
                let k = self
                    .eval(idx)?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, e.pos, m))?;
                let mut q = p;
                q.offset += k;
                if p.space == Space::Constant {
                    return self
                        .consts
                        .load(q)
                        .map_err(|er| Diag::new(Phase::Runtime, e.pos, er.0));
                }
                self.host_load(q, e.pos)
            }
            ExprKind::Cast(ty, inner) => {
                let v = self.eval(inner)?;
                v.coerce_to(ty)
                    .map_err(|m| Diag::new(Phase::Runtime, e.pos, m))
            }
            ExprKind::AddrOf(_) => Err(Diag::new(
                Phase::Runtime,
                e.pos,
                "&variable is only valid as an out-parameter of an API call",
            )),
            ExprKind::Call(name, args) => self.eval_call(name, args, e.pos),
        }
    }

    // ---- calls ------------------------------------------------------------

    fn check_policy(&mut self, name: &str, pos: Pos) -> Result<(), Diag> {
        self.hostcalls.push(name.to_string());
        if !self.policy.allow(name) {
            return Err(Diag::new(
                Phase::Security,
                pos,
                format!(
                    "call `{name}` is not in this lab's whitelist (policy {})",
                    self.policy.name()
                ),
            ));
        }
        Ok(())
    }

    /// Evaluate an out-parameter: returns the variable name to write.
    fn ref_arg(&mut self, e: &Expr) -> Result<String, Diag> {
        match &e.kind {
            ExprKind::AddrOf(name) => Ok(name.clone()),
            _ => Err(Diag::new(
                Phase::Runtime,
                e.pos,
                "this argument must be &variable",
            )),
        }
    }

    fn str_arg(&self, e: &Expr) -> Result<String, Diag> {
        match &e.kind {
            ExprKind::StrLit(s) => Ok(s.clone()),
            _ => Err(Diag::new(
                Phase::Runtime,
                e.pos,
                "this argument must be a string literal",
            )),
        }
    }

    fn input(&self, idx: i64, pos: Pos) -> Result<&'a Dataset, Diag> {
        usize::try_from(idx)
            .ok()
            .and_then(|i| self.inputs.get(i))
            .ok_or_else(|| {
                Diag::new(
                    Phase::Runtime,
                    pos,
                    format!(
                        "wbImport index {idx} out of range ({} input datasets)",
                        self.inputs.len()
                    ),
                )
            })
    }

    fn alloc_host_f32(&mut self, data: &[f32]) -> Ptr {
        let id = self.host.alloc_elems(data.len().max(1));
        self.host.write_f32(id, data).expect("fresh allocation");
        Ptr {
            space: Space::Host,
            alloc: id,
            offset: 0,
            elem: ElemType::F32,
            level: 0,
        }
    }

    fn alloc_host_i32(&mut self, data: &[i32]) -> Ptr {
        let id = self.host.alloc_elems(data.len().max(1));
        self.host.write_i32(id, data).expect("fresh allocation");
        Ptr {
            space: Space::Host,
            alloc: id,
            offset: 0,
            elem: ElemType::I32,
            level: 0,
        }
    }

    fn write_out_int(&mut self, arg: &Expr, v: i64, pos: Pos) -> Result<(), Diag> {
        let name = self.ref_arg(arg)?;
        self.assign_var(&name, Value::I(v), pos)
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], pos: Pos) -> Result<Value, Diag> {
        // Pure math: no policy involvement.
        if crate::value::is_math_intrinsic(name) {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| self.eval(a))
                .collect::<Result<_, _>>()?;
            return apply_math(name, &vals)
                .expect("is_math_intrinsic")
                .map_err(|m| Diag::new(Phase::Runtime, pos, m));
        }

        match name {
            // ---- memory management ----
            "malloc" => {
                self.check_policy(name, pos)?;
                let bytes = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if bytes < 0 {
                    return Err(Diag::new(Phase::Runtime, pos, "malloc of negative size"));
                }
                let id = self.host.alloc_bytes(bytes as usize);
                Ok(Value::P(Ptr {
                    space: Space::Host,
                    alloc: id,
                    offset: 0,
                    elem: ElemType::Unknown,
                    level: 0,
                }))
            }
            "free" => {
                self.check_policy(name, pos)?;
                let p = self
                    .eval(&args[0])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if p.space != Space::Host {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "free() of a non-host pointer (use cudaFree)",
                    ));
                }
                self.host
                    .free(p.alloc)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                Ok(Value::I(0))
            }
            "cudaMalloc" => {
                self.check_policy(name, pos)?;
                let out = self.ref_arg(&args[0])?;
                let bytes = self
                    .eval(&args[1])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if bytes < 0 {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "cudaMalloc of negative size",
                    ));
                }
                let words = (bytes as usize).div_ceil(4);
                if self.dev.total_words() + words > self.opts.device.global_mem_words {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "cudaMalloc failed: out of device memory",
                    ));
                }
                let id = self.dev.alloc_bytes(bytes as usize);
                let p = Ptr {
                    space: Space::Global,
                    alloc: id,
                    offset: 0,
                    elem: ElemType::Unknown,
                    level: 0,
                };
                // assign_var coerces through the declared pointer type,
                // which stamps the element interpretation.
                self.assign_var(&out, Value::P(p), pos)?;
                Ok(Value::I(0))
            }
            "cudaFree" => {
                self.check_policy(name, pos)?;
                let p = self
                    .eval(&args[0])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if p.space != Space::Global {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "cudaFree of a non-device pointer",
                    ));
                }
                self.dev
                    .free(p.alloc)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                Ok(Value::I(0))
            }
            "cudaMemcpy" => {
                self.check_policy(name, pos)?;
                let dst = self
                    .eval(&args[0])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let src = self
                    .eval(&args[1])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let bytes = self
                    .eval(&args[2])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let dir = self
                    .eval(&args[3])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let (want_dst, want_src) = match dir {
                    0 => (Space::Global, Space::Host),
                    1 => (Space::Host, Space::Global),
                    2 => (Space::Global, Space::Global),
                    3 => (Space::Host, Space::Host),
                    other => {
                        return Err(Diag::new(
                            Phase::Runtime,
                            pos,
                            format!("invalid cudaMemcpy direction {other}"),
                        ))
                    }
                };
                if dst.space != want_dst || src.space != want_src {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        format!(
                            "cudaMemcpy direction says {}→{} but pointers are {}→{}",
                            want_src.label(),
                            want_dst.label(),
                            src.space.label(),
                            dst.space.label()
                        ),
                    ));
                }
                let words = (bytes as usize).div_ceil(4);
                let dst_pool = self.pool_of(dst.space);
                let src_pool = self.pool_of(src.space);
                dst_pool
                    .copy(dst, src_pool, src, words)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                match dir {
                    0 => self.cost.words_h2d += words as u64,
                    1 => self.cost.words_d2h += words as u64,
                    _ => {}
                }
                self.clock += self.opts.model.copy_word * words as u64;
                Ok(Value::I(0))
            }
            "cudaMemcpyToSymbol" => {
                self.check_policy(name, pos)?;
                let sym = self
                    .eval(&args[0])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if sym.space != Space::Constant {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "cudaMemcpyToSymbol needs a __constant__ symbol",
                    ));
                }
                let src = self
                    .eval(&args[1])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if src.space != Space::Host {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "cudaMemcpyToSymbol source must be host memory",
                    ));
                }
                let bytes = self
                    .eval(&args[2])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let words = (bytes as usize).div_ceil(4);
                self.consts
                    .fill_from(sym.alloc, &self.host, src, words)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                self.cost.words_h2d += words as u64;
                self.clock += self.opts.model.copy_word * words as u64;
                Ok(Value::I(0))
            }
            "cudaDeviceSynchronize" | "cudaGetLastError" => {
                self.check_policy(name, pos)?;
                Ok(Value::I(0))
            }
            "cudaSetDevice" => {
                self.check_policy(name, pos)?;
                let _ = self.eval(&args[0])?;
                Ok(Value::I(0))
            }
            "cudaGetDeviceCount" => {
                self.check_policy(name, pos)?;
                // One simulated device per rank.
                self.write_out_int(&args[0], 1, pos)?;
                Ok(Value::I(0))
            }

            // ---- dataset import ----
            "wbImportVector" => {
                self.check_policy(name, pos)?;
                let idx = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let data = self
                    .input(idx, pos)?
                    .as_vector()
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.to_string()))?
                    .to_vec();
                self.write_out_int(&args[1], data.len() as i64, pos)?;
                Ok(Value::P(self.alloc_host_f32(&data)))
            }
            "wbImportIntVector" => {
                self.check_policy(name, pos)?;
                let idx = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let data = self
                    .input(idx, pos)?
                    .as_int_vector()
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.to_string()))?
                    .to_vec();
                self.write_out_int(&args[1], data.len() as i64, pos)?;
                Ok(Value::P(self.alloc_host_i32(&data)))
            }
            "wbImportMatrix" => {
                self.check_policy(name, pos)?;
                let idx = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let (rows, cols, data) = {
                    let (r, c, d) = self
                        .input(idx, pos)?
                        .as_matrix()
                        .map_err(|e| Diag::new(Phase::Runtime, pos, e.to_string()))?;
                    (r, c, d.to_vec())
                };
                self.write_out_int(&args[1], rows as i64, pos)?;
                self.write_out_int(&args[2], cols as i64, pos)?;
                Ok(Value::P(self.alloc_host_f32(&data)))
            }
            "wbImportImage" => {
                self.check_policy(name, pos)?;
                let idx = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let img = match self.input(idx, pos)? {
                    Dataset::Image(img) => img.clone(),
                    other => {
                        return Err(Diag::new(
                            Phase::Runtime,
                            pos,
                            format!("expected image dataset, found {}", other.kind()),
                        ))
                    }
                };
                self.write_out_int(&args[1], img.width() as i64, pos)?;
                self.write_out_int(&args[2], img.height() as i64, pos)?;
                self.write_out_int(&args[3], img.channels() as i64, pos)?;
                Ok(Value::P(self.alloc_host_f32(img.data())))
            }
            "wbImportCsrRowPtr" | "wbImportCsrColIdx" | "wbImportCsrValues" => {
                self.check_policy(name, pos)?;
                let idx = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let m = match self.input(idx, pos)? {
                    Dataset::Sparse(m) => m.clone(),
                    other => {
                        return Err(Diag::new(
                            Phase::Runtime,
                            pos,
                            format!("expected sparse dataset, found {}", other.kind()),
                        ))
                    }
                };
                match name {
                    "wbImportCsrRowPtr" => {
                        let data: Vec<i32> = m.row_ptr().iter().map(|&x| x as i32).collect();
                        self.write_out_int(&args[1], m.rows() as i64, pos)?;
                        Ok(Value::P(self.alloc_host_i32(&data)))
                    }
                    "wbImportCsrColIdx" => {
                        let data: Vec<i32> = m.col_idx().iter().map(|&x| x as i32).collect();
                        self.write_out_int(&args[1], m.nnz() as i64, pos)?;
                        Ok(Value::P(self.alloc_host_i32(&data)))
                    }
                    _ => {
                        self.write_out_int(&args[1], m.nnz() as i64, pos)?;
                        Ok(Value::P(self.alloc_host_f32(m.values())))
                    }
                }
            }
            "wbImportGraphRowPtr" | "wbImportGraphNeighbors" => {
                self.check_policy(name, pos)?;
                let idx = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let g = match self.input(idx, pos)? {
                    Dataset::Graph(g) => g.clone(),
                    other => {
                        return Err(Diag::new(
                            Phase::Runtime,
                            pos,
                            format!("expected graph dataset, found {}", other.kind()),
                        ))
                    }
                };
                if name == "wbImportGraphRowPtr" {
                    let data: Vec<i32> = g.row_ptr().iter().map(|&x| x as i32).collect();
                    self.write_out_int(&args[1], g.num_nodes() as i64, pos)?;
                    Ok(Value::P(self.alloc_host_i32(&data)))
                } else {
                    let data: Vec<i32> = g.neighbors().iter().map(|&x| x as i32).collect();
                    self.write_out_int(&args[1], g.num_edges() as i64, pos)?;
                    Ok(Value::P(self.alloc_host_i32(&data)))
                }
            }
            "wbImportScalar" => {
                self.check_policy(name, pos)?;
                let idx = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                match self.input(idx, pos)? {
                    Dataset::Scalar(x) => Ok(Value::F(*x)),
                    other => Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        format!("expected scalar dataset, found {}", other.kind()),
                    )),
                }
            }

            // ---- solution export ----
            "wbSolution" | "wbSolutionInt" => {
                self.check_policy(name, pos)?;
                let p = self
                    .eval(&args[0])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let n = self
                    .eval(&args[1])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if p.space != Space::Host {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "wbSolution needs a host pointer (copy your result back first)",
                    ));
                }
                if n < 0 {
                    return Err(Diag::new(Phase::Runtime, pos, "negative solution length"));
                }
                let off = usize::try_from(p.offset)
                    .map_err(|_| Diag::new(Phase::Runtime, pos, "negative pointer offset"))?;
                let ds = if name == "wbSolution" {
                    Dataset::Vector(
                        self.host
                            .read_f32(p.alloc, off, n as usize)
                            .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?,
                    )
                } else {
                    Dataset::IntVector(
                        self.host
                            .read_i32(p.alloc, off, n as usize)
                            .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?,
                    )
                };
                self.solution = Some(ds);
                Ok(Value::I(0))
            }
            "wbSolutionMatrix" => {
                self.check_policy(name, pos)?;
                let p = self
                    .eval(&args[0])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let rows = self
                    .eval(&args[1])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let cols = self
                    .eval(&args[2])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if p.space != Space::Host {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "wbSolutionMatrix needs a host pointer",
                    ));
                }
                if rows < 0 || cols < 0 {
                    return Err(Diag::new(Phase::Runtime, pos, "negative matrix dimensions"));
                }
                let off = usize::try_from(p.offset)
                    .map_err(|_| Diag::new(Phase::Runtime, pos, "negative pointer offset"))?;
                let data = self
                    .host
                    .read_f32(p.alloc, off, (rows * cols) as usize)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                self.solution = Some(Dataset::Matrix {
                    rows: rows as usize,
                    cols: cols as usize,
                    data,
                });
                Ok(Value::I(0))
            }
            "wbSolutionImage" => {
                self.check_policy(name, pos)?;
                let p = self
                    .eval(&args[0])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let w = self
                    .eval(&args[1])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?
                    as usize;
                let h = self
                    .eval(&args[2])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?
                    as usize;
                let c = self
                    .eval(&args[3])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?
                    as usize;
                if p.space != Space::Host {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "wbSolutionImage needs a host pointer",
                    ));
                }
                let off = usize::try_from(p.offset)
                    .map_err(|_| Diag::new(Phase::Runtime, pos, "negative pointer offset"))?;
                let data = self
                    .host
                    .read_f32(p.alloc, off, w * h * c)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                let img = Image::from_data(w, h, c, data)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.to_string()))?;
                self.solution = Some(Dataset::Image(img));
                Ok(Value::I(0))
            }
            "wbSolutionScalar" => {
                self.check_policy(name, pos)?;
                let x = self
                    .eval(&args[0])?
                    .as_float()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                self.solution = Some(Dataset::Scalar(x));
                Ok(Value::I(0))
            }

            // ---- logging & timing ----
            "wbLog" => {
                self.check_policy(name, pos)?;
                let level_code = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let level = match level_code {
                    10 => LogLevel::Trace,
                    11 => LogLevel::Debug,
                    12 => LogLevel::Info,
                    13 => LogLevel::Warn,
                    _ => LogLevel::Error,
                };
                let mut msg = String::new();
                for (k, a) in args.iter().skip(1).enumerate() {
                    if k > 0 {
                        msg.push(' ');
                    }
                    match &a.kind {
                        ExprKind::StrLit(s) => msg.push_str(s),
                        _ => {
                            let v = self.eval(a)?;
                            msg.push_str(&v.to_string());
                        }
                    }
                }
                self.logger.log(level, msg);
                Ok(Value::I(0))
            }
            "wbTime_start" | "wbTime_stop" => {
                self.check_policy(name, pos)?;
                let kind_code = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let kind = match kind_code {
                    101 => TimerKind::Gpu,
                    102 => TimerKind::Copy,
                    103 => TimerKind::Compute,
                    _ => TimerKind::Generic,
                };
                let msg = self.str_arg(&args[1])?;
                if name == "wbTime_start" {
                    self.timer.start(kind, msg, self.clock);
                } else if self.timer.stop(kind, &msg, self.clock).is_none() {
                    self.logger.log(
                        LogLevel::Warn,
                        format!("wbTime_stop({msg:?}) without matching wbTime_start"),
                    );
                }
                Ok(Value::I(0))
            }

            // ---- MPI ----
            "wbMPI_rank" => {
                self.check_policy(name, pos)?;
                Ok(Value::I(self.comm.as_ref().map_or(0, |c| c.rank() as i64)))
            }
            "wbMPI_size" => {
                self.check_policy(name, pos)?;
                Ok(Value::I(self.comm.as_ref().map_or(1, |c| c.size() as i64)))
            }
            "wbMPI_barrier" => {
                self.check_policy(name, pos)?;
                if let Some(c) = &self.comm {
                    c.barrier();
                }
                Ok(Value::I(0))
            }
            "wbMPI_sendFloat" => {
                self.check_policy(name, pos)?;
                let dst = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let p = self
                    .eval(&args[1])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let n = self
                    .eval(&args[2])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if p.space != Space::Host {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "wbMPI_sendFloat needs a host pointer",
                    ));
                }
                let off = usize::try_from(p.offset)
                    .map_err(|_| Diag::new(Phase::Runtime, pos, "negative pointer offset"))?;
                let data = self
                    .host
                    .read_f32(p.alloc, off, n as usize)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                let c = self
                    .comm
                    .as_ref()
                    .ok_or_else(|| Diag::new(Phase::Runtime, pos, "MPI call outside an MPI run"))?;
                c.send(dst as usize, data)
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                Ok(Value::I(0))
            }
            "wbMPI_recvFloat" => {
                self.check_policy(name, pos)?;
                let src = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let p = self
                    .eval(&args[1])?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let n = self
                    .eval(&args[2])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if p.space != Space::Host {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "wbMPI_recvFloat needs a host pointer",
                    ));
                }
                let c = self
                    .comm
                    .as_ref()
                    .ok_or_else(|| Diag::new(Phase::Runtime, pos, "MPI call outside an MPI run"))?;
                let data = c
                    .recv(src as usize)
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if data.len() != n as usize {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        format!(
                            "wbMPI_recvFloat expected {n} values but the message has {}",
                            data.len()
                        ),
                    ));
                }
                let off = usize::try_from(p.offset)
                    .map_err(|_| Diag::new(Phase::Runtime, pos, "negative pointer offset"))?;
                for (k, x) in data.iter().enumerate() {
                    let mut q = p;
                    q.offset = (off + k) as i64;
                    q.elem = ElemType::F32;
                    self.host
                        .store(q, Value::F(*x))
                        .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                }
                Ok(Value::I(0))
            }

            "exit" => {
                self.check_policy(name, pos)?;
                let code = self.eval(&args[0])?.as_int().unwrap_or(1);
                Err(Diag::new(Phase::Runtime, pos, format!("__exit__:{code}")))
            }

            // ---- user host function ----
            _ => {
                let program = self.program;
                let f = program.func(name).ok_or_else(|| {
                    Diag::new(Phase::Runtime, pos, format!("unknown function `{name}`"))
                })?;
                if self.call_depth >= 48 {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        format!("recursion limit reached calling `{name}`"),
                    ));
                }
                let mut argv = Vec::with_capacity(args.len());
                for (a, p) in args.iter().zip(&f.params) {
                    let v = self.eval(a)?;
                    argv.push(
                        v.coerce_to(&p.ty)
                            .map_err(|m| Diag::new(Phase::Runtime, pos, m))?,
                    );
                }
                // Fresh call frame: swap in a new scope stack.
                let saved = std::mem::take(&mut self.scopes);
                self.scopes.push(HashMap::new());
                for (p, v) in f.params.iter().zip(argv) {
                    self.declare(&p.name, p.ty.clone(), v);
                }
                self.call_depth += 1;
                let flow = self.exec_block(&f.body);
                self.call_depth -= 1;
                self.scopes = saved;
                match flow? {
                    Flow::Return(v) => Ok(v),
                    _ => Ok(Value::I(0)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, Dialect};

    fn run_src(src: &str, inputs: Vec<Dataset>) -> RunOutcome {
        let program = compile(src, Dialect::Cuda).expect("compiles");
        let opts = RunOptions {
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        run(&program, &inputs, &opts)
    }

    #[test]
    fn host_arithmetic_and_return() {
        let out = run_src("int main() { int x = 6 * 7; return x; }", vec![]);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.exit_code, 42);
    }

    #[test]
    fn host_loops_and_arrays() {
        let src = r#"
            int main() {
                float* a = (float*) malloc(10 * sizeof(float));
                for (int i = 0; i < 10; i++) { a[i] = i * 2.0; }
                float sum = 0.0;
                for (int i = 0; i < 10; i++) { sum += a[i]; }
                wbSolutionScalar(sum);
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.solution, Some(Dataset::Scalar(90.0)));
    }

    #[test]
    fn import_and_solution_roundtrip() {
        let src = r#"
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                wbSolution(a, n);
                return 0;
            }
        "#;
        let out = run_src(src, vec![Dataset::Vector(vec![1.0, 2.0, 3.0])]);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.solution, Some(Dataset::Vector(vec![1.0, 2.0, 3.0])));
    }

    #[test]
    fn end_to_end_vector_add_kernel() {
        let src = r#"
            __global__ void vecAdd(float* a, float* b, float* out, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { out[i] = a[i] + b[i]; }
            }
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                float* b = wbImportVector(1, &n);
                float* out = (float*) malloc(n * sizeof(float));
                float* dA; float* dB; float* dC;
                cudaMalloc(&dA, n * sizeof(float));
                cudaMalloc(&dB, n * sizeof(float));
                cudaMalloc(&dC, n * sizeof(float));
                cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
                cudaMemcpy(dB, b, n * sizeof(float), cudaMemcpyHostToDevice);
                vecAdd<<<(n + 63) / 64, 64>>>(dA, dB, dC, n);
                cudaMemcpy(out, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolution(out, n);
                return 0;
            }
        "#;
        let a: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..100).map(|i| (i * 3) as f32).collect();
        let want: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let out = run_src(src, vec![Dataset::Vector(a), Dataset::Vector(b)]);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.solution, Some(Dataset::Vector(want)));
        assert_eq!(out.cost.kernel_launches, 1);
        assert!(out.cost.words_h2d >= 200);
        assert!(out.elapsed_cycles > 0);
    }

    #[test]
    fn device_pointer_deref_on_host_is_caught() {
        let src = r#"
            int main() {
                float* d;
                cudaMalloc(&d, 4 * sizeof(float));
                float x = d[0];
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        let err = out.error.expect("must fail");
        assert!(err.message.contains("device pointer"), "{err}");
    }

    #[test]
    fn host_pointer_in_kernel_is_caught() {
        let src = r#"
            __global__ void k(float* a) { a[threadIdx.x] = 1.0; }
            int main() {
                float* a = (float*) malloc(32 * sizeof(float));
                k<<<1, 32>>>(a);
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        let err = out.error.expect("must fail");
        assert!(err.message.contains("host pointer"), "{err}");
    }

    #[test]
    fn memcpy_direction_mismatch_is_caught() {
        let src = r#"
            int main() {
                float* h = (float*) malloc(4);
                float* d;
                cudaMalloc(&d, 4);
                cudaMemcpy(h, d, 4, cudaMemcpyHostToDevice);
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.error.expect("fails").message.contains("direction"));
    }

    #[test]
    fn out_of_bounds_kernel_access_reports_thread() {
        let src = r#"
            __global__ void k(float* a) { a[threadIdx.x] = 1.0; }
            int main() {
                float* d;
                cudaMalloc(&d, 16 * sizeof(float));
                k<<<1, 32>>>(d);
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        let err = out.error.expect("must fail");
        assert!(err.message.contains("out of bounds"), "{err}");
        assert!(err.thread.is_some());
    }

    #[test]
    fn wblog_and_wbtime_capture() {
        let src = r#"
            int main() {
                wbTime_start(Generic, "whole thing");
                wbLog(TRACE, "value is", 42);
                wbTime_stop(Generic, "whole thing");
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.ok());
        assert_eq!(out.log.lines().len(), 1);
        assert!(out.log.lines()[0].message.contains("value is 42"));
        assert_eq!(out.timer.spans().len(), 1);
    }

    #[test]
    fn infinite_loop_hits_host_budget() {
        let src = "int main() { while (1) { int x = 0; } return 0; }";
        let program = compile(src, Dialect::Cuda).unwrap();
        let opts = RunOptions {
            max_host_steps: 10_000,
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        let out = run(&program, &[], &opts);
        assert_eq!(out.error.expect("must time out").phase, Phase::Limit);
    }

    #[test]
    fn infinite_kernel_hits_device_budget() {
        let src = r#"
            __global__ void spin() { int x = 0; while (1) { x = x + 1; } }
            int main() { spin<<<1, 32>>>(); return 0; }
        "#;
        let program = compile(src, Dialect::Cuda).unwrap();
        let opts = RunOptions {
            max_warp_instructions: 50_000,
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        let out = run(&program, &[], &opts);
        assert_eq!(out.error.expect("must time out").phase, Phase::Limit);
    }

    #[test]
    fn policy_denial_is_security_error() {
        use crate::hostcall::DenyList;
        let src = "int main() { float* p = (float*) malloc(4); return 0; }";
        let program = compile(src, Dialect::Cuda).unwrap();
        let opts = RunOptions::default();
        let policy = DenyList(vec!["malloc".to_string()]);
        let out = run_with_policy(&program, &[], &opts, &policy);
        let err = out.error.expect("must be denied");
        assert_eq!(err.phase, Phase::Security);
        assert!(out.hostcalls.contains(&"malloc".to_string()));
    }

    #[test]
    fn shared_memory_reduction_works() {
        let src = r#"
            __global__ void reduce(float* in, float* out, int n) {
                __shared__ float buf[64];
                int t = threadIdx.x;
                int i = blockIdx.x * blockDim.x + t;
                buf[t] = (i < n) ? in[i] : 0.0;
                __syncthreads();
                for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
                    if (t < stride) { buf[t] += buf[t + stride]; }
                    __syncthreads();
                }
                if (t == 0) { out[blockIdx.x] = buf[0]; }
            }
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                float* dIn; float* dOut;
                cudaMalloc(&dIn, n * sizeof(float));
                int blocks = (n + 63) / 64;
                cudaMalloc(&dOut, blocks * sizeof(float));
                cudaMemcpy(dIn, a, n * sizeof(float), cudaMemcpyHostToDevice);
                reduce<<<blocks, 64>>>(dIn, dOut, n);
                float* partial = (float*) malloc(blocks * sizeof(float));
                cudaMemcpy(partial, dOut, blocks * sizeof(float), cudaMemcpyDeviceToHost);
                float total = 0.0;
                for (int i = 0; i < blocks; i++) { total += partial[i]; }
                wbSolutionScalar(total);
                return 0;
            }
        "#;
        let data: Vec<f32> = (0..200).map(|i| i as f32).collect();
        let want: f32 = data.iter().sum();
        let out = run_src(src, vec![Dataset::Vector(data)]);
        assert!(out.ok(), "{:?}", out.error);
        match out.solution {
            Some(Dataset::Scalar(x)) => assert!((x - want).abs() < 1.0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(out.cost.barriers > 0);
        assert!(out.cost.shared_accesses > 0);
    }

    #[test]
    fn barrier_divergence_detected() {
        let src = r#"
            __global__ void bad() {
                if (threadIdx.x < 16) { __syncthreads(); }
            }
            int main() { bad<<<1, 32>>>(); return 0; }
        "#;
        let out = run_src(src, vec![]);
        let err = out.error.expect("must fail");
        assert!(err.message.contains("barrier divergence"), "{err}");
    }

    #[test]
    fn atomics_accumulate_across_blocks() {
        let src = r#"
            __global__ void count(int* c, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { atomicAdd(c, 1); }
            }
            int main() {
                int* d;
                cudaMalloc(&d, sizeof(int));
                count<<<8, 32>>>(d, 200);
                int* h = (int*) malloc(sizeof(int));
                cudaMemcpy(h, d, sizeof(int), cudaMemcpyDeviceToHost);
                wbSolutionInt(h, 1);
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.solution, Some(Dataset::IntVector(vec![200])));
        assert_eq!(out.cost.atomics, 200);
    }

    #[test]
    fn constant_memory_via_symbol() {
        let src = r#"
            __constant__ float mask[4];
            __global__ void apply(float* out) {
                int i = threadIdx.x;
                out[i] = mask[i] * 2.0;
            }
            int main() {
                float* h = (float*) malloc(4 * sizeof(float));
                for (int i = 0; i < 4; i++) { h[i] = i + 1.0; }
                cudaMemcpyToSymbol(mask, h, 4 * sizeof(float));
                float* d;
                cudaMalloc(&d, 4 * sizeof(float));
                apply<<<1, 4>>>(d);
                float* out = (float*) malloc(4 * sizeof(float));
                cudaMemcpy(out, d, 4 * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolution(out, 4);
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(
            out.solution,
            Some(Dataset::Vector(vec![2.0, 4.0, 6.0, 8.0]))
        );
    }

    #[test]
    fn opencl_dialect_vector_add() {
        let src = r#"
            __kernel void vadd(__global float* a, __global float* b, __global float* c, int n) {
                int i = get_global_id(0);
                if (i < n) { c[i] = a[i] + b[i]; }
            }
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                float* b = wbImportVector(1, &n);
                float* dA; float* dB; float* dC;
                cudaMalloc(&dA, n * sizeof(float));
                cudaMalloc(&dB, n * sizeof(float));
                cudaMalloc(&dC, n * sizeof(float));
                cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
                cudaMemcpy(dB, b, n * sizeof(float), cudaMemcpyHostToDevice);
                vadd<<<(n + 31) / 32, 32>>>(dA, dB, dC, n);
                float* out = (float*) malloc(n * sizeof(float));
                cudaMemcpy(out, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolution(out, n);
                return 0;
            }
        "#;
        let program = compile(src, Dialect::OpenCl).expect("opencl compiles");
        let out = run(
            &program,
            &[
                Dataset::Vector(vec![1.0, 2.0]),
                Dataset::Vector(vec![3.0, 4.0]),
            ],
            &RunOptions::default(),
        );
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.solution, Some(Dataset::Vector(vec![4.0, 6.0])));
    }

    #[test]
    fn mpi_two_ranks_exchange_and_solve() {
        let src = r#"
            int main() {
                int rank = wbMPI_rank();
                int size = wbMPI_size();
                float* buf = (float*) malloc(2 * sizeof(float));
                if (rank == 0) {
                    buf[0] = 10.0; buf[1] = 20.0;
                    wbMPI_sendFloat(1, buf, 2);
                    wbMPI_barrier();
                } else {
                    wbMPI_recvFloat(0, buf, 2);
                    wbMPI_barrier();
                    wbSolution(buf, 2);
                }
                return 0;
            }
        "#;
        let program = compile(src, Dialect::Cuda).unwrap();
        let opts = RunOptions {
            world_size: 2,
            ..Default::default()
        };
        let out = run(&program, &[], &opts);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.solution, Some(Dataset::Vector(vec![10.0, 20.0])));
    }

    #[test]
    fn user_host_function_calls() {
        let src = r#"
            float square(float x) { return x * x; }
            int main() {
                wbSolutionScalar(square(3.0) + square(4.0));
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.solution, Some(Dataset::Scalar(25.0)));
    }

    #[test]
    fn device_function_called_from_kernel() {
        let src = r#"
            __device__ float doubler(float x) { return x * 2.0; }
            __global__ void k(float* a) { a[threadIdx.x] = doubler(a[threadIdx.x]); }
            int main() {
                float* h = (float*) malloc(4 * sizeof(float));
                for (int i = 0; i < 4; i++) { h[i] = i; }
                float* d;
                cudaMalloc(&d, 4 * sizeof(float));
                cudaMemcpy(d, h, 4 * sizeof(float), cudaMemcpyHostToDevice);
                k<<<1, 4>>>(d);
                cudaMemcpy(h, d, 4 * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolution(h, 4);
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(
            out.solution,
            Some(Dataset::Vector(vec![0.0, 2.0, 4.0, 6.0]))
        );
    }

    #[test]
    fn hostcall_trace_records_order() {
        let src = r#"
            int main() {
                float* p = (float*) malloc(8);
                free(p);
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.ok());
        assert_eq!(
            out.hostcalls,
            vec!["malloc".to_string(), "free".to_string()]
        );
    }

    #[test]
    fn use_after_free_detected_on_host() {
        let src = r#"
            int main() {
                float* p = (float*) malloc(8);
                free(p);
                p[0] = 1.0;
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.error.expect("fails").message.contains("use after free"));
    }

    #[test]
    fn two_d_launch_indices() {
        let src = r#"
            __global__ void fill(float* m, int w, int h) {
                int x = blockIdx.x * blockDim.x + threadIdx.x;
                int y = blockIdx.y * blockDim.y + threadIdx.y;
                if (x < w && y < h) { m[y * w + x] = y * 10 + x; }
            }
            int main() {
                int w = 8; int h = 4;
                float* d;
                cudaMalloc(&d, w * h * sizeof(float));
                fill<<<dim3(2, 2), dim3(4, 2)>>>(d, w, h);
                float* out = (float*) malloc(w * h * sizeof(float));
                cudaMemcpy(out, d, w * h * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolutionMatrix(out, h, w);
                return 0;
            }
        "#;
        let out = run_src(src, vec![]);
        assert!(out.ok(), "{:?}", out.error);
        match out.solution.unwrap() {
            Dataset::Matrix { rows, cols, data } => {
                assert_eq!((rows, cols), (4, 8));
                assert_eq!(data[8 + 3], 13.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
