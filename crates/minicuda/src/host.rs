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
use crate::cost::{self, CostSummary};
use crate::device::{self, DeviceConfig};
use crate::diag::{Diag, Phase, Pos};
use crate::hostcall::{AllowAll, HostcallPolicy};
use crate::memory::{self, ConstMem, MemPool};
use crate::mpi::{CommWorld, RankComm};
use crate::sema::Program;
use crate::value::{apply_binop, apply_math, apply_unop, ElemType, Ptr, Space, Value};
use libwb::{Dataset, Image, LogLevel, Logger, Timer, TimerKind};

/// Resource limits and device selection for one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Simulated device.
    pub device: DeviceConfig,
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

/// Host memory a rank may hold at once, in 32-bit words: 256 MiB, the
/// size of the default device, so one `malloc` cannot take the
/// worker's memory.
const HOST_MEM_WORDS: usize = 64 << 20;

/// Stack size for interpreter threads. Tree-walking recursion is
/// stack-hungry in debug builds; interpreters always run on dedicated
/// threads with room to spare so a deeply recursive (but in-budget)
/// student program cannot overflow a small caller stack.
const INTERP_STACK: usize = 32 * 1024 * 1024;

/// Run with an explicit hostcall policy (the sandbox entry point).
pub fn run_with_policy(
    program: &Program,
    inputs: &[Dataset],
    opts: &RunOptions,
    policy: &dyn HostcallPolicy,
) -> RunOutcome {
    // One interpreter thread per rank, each with its own device; one
    // rank runs without a communicator. Outcomes are merged with rank 0
    // as primary.
    let comms: Vec<Option<RankComm>> = if opts.world_size <= 1 {
        vec![None]
    } else {
        let comms = CommWorld::new(opts.world_size).into_rank_comms();
        comms.into_iter().map(Some).collect()
    };
    let mut outcomes: Vec<Option<RunOutcome>> = comms.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, comm) in outcomes.iter_mut().zip(comms) {
            std::thread::Builder::new()
                .stack_size(INTERP_STACK)
                .spawn_scoped(s, move || {
                    *slot = Some(run_rank(program, inputs, opts, policy, comm));
                })
                .expect("spawn rank thread");
        }
    });

    let mut outcomes = outcomes.into_iter().map(|o| o.expect("rank completed"));
    let mut merged = outcomes.next().expect("at least one rank");
    for (rank, o) in (1..).zip(outcomes) {
        merged.cost.merge(&o.cost);
        merged.elapsed_cycles = merged.elapsed_cycles.max(o.elapsed_cycles);
        if merged.solution.is_none() {
            merged.solution = o.solution;
        }
        if merged.error.is_none() {
            merged.error = o.error;
        }
        for line in o.log.lines() {
            merged
                .log
                .log(line.level, format!("[rank {rank}] {}", line.message));
        }
        merged.hostcalls.extend(o.hostcalls);
    }
    merged
}

fn run_rank(
    program: &Program,
    inputs: &[Dataset],
    opts: &RunOptions,
    policy: &dyn HostcallPolicy,
    comm: Option<RankComm>,
) -> RunOutcome {
    let Some(main) = program.func("main") else {
        return RunOutcome {
            solution: None,
            log: Logger::with_capacity(opts.max_log_bytes),
            timer: Timer::new(),
            cost: CostSummary::default(),
            elapsed_cycles: 0,
            error: Some(Diag::nowhere(Phase::Sema, "program has no main function")),
            exit_code: 1,
            hostcalls: Vec::new(),
        };
    };
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
        frame: Frame::enter(main, Vec::new()),
        logger: Logger::with_capacity(opts.max_log_bytes),
        timer: Timer::new(),
        clock: 0,
        host_steps: 0,
        budget: opts.max_warp_instructions,
        cost: CostSummary::default(),
        solution: None,
        hostcalls: Vec::new(),
        comm,
        call_depth: 0,
    };

    let (error, exit_code) = match exec.run_main(main) {
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

/// A dataset's indices as the `int`s a student program reads.
fn narrow(indices: &[usize]) -> impl ExactSizeIterator<Item = i32> + '_ {
    indices.iter().map(|&x| x as i32)
}

/// Control flow result of a host statement.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// One call's variables: a value per slot of its function's frame.
struct Frame<'a> {
    /// The function running, whose arenas its statements index.
    func: &'a FuncDef,
    vals: Vec<Value>,
}

impl<'a> Frame<'a> {
    /// A frame for `f` with its parameter slots holding `args`.
    fn enter(f: &'a FuncDef, mut args: Vec<Value>) -> Self {
        args.resize(f.frame.len(), Value::I(0));
        Frame {
            func: f,
            vals: args,
        }
    }
}

struct HostExec<'a> {
    program: &'a Program,
    opts: &'a RunOptions,
    policy: &'a dyn HostcallPolicy,
    inputs: &'a [Dataset],
    host: MemPool,
    dev: MemPool,
    consts: ConstMem,
    frame: Frame<'a>,
    logger: Logger,
    timer: Timer,
    clock: u64,
    host_steps: u64,
    /// Remaining warp-instruction budget, lent to each launch.
    budget: i64,
    cost: CostSummary,
    solution: Option<Dataset>,
    hostcalls: Vec<String>,
    comm: Option<RankComm>,
    call_depth: usize,
}

impl<'a> HostExec<'a> {
    /// Run `main`, whose frame the executor starts in.
    fn run_main(&mut self, main: &'a FuncDef) -> Result<i64, Diag> {
        match self.exec_block(main.body)? {
            Flow::Return(v) => Ok(v.as_int().unwrap_or(0)),
            _ => Ok(0),
        }
    }

    /// Store `v` in a frame slot, coerced to the slot's declared type.
    fn assign_var(&mut self, slot: u32, v: Value, pos: Pos) -> Result<(), Diag> {
        let slot = slot as usize;
        self.frame.vals[slot] = v
            .coerce_to(&self.frame.func.frame[slot])
            .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
        Ok(())
    }

    fn step(&mut self, pos: Pos) -> Result<(), Diag> {
        self.host_steps += 1;
        self.cost.host_steps += 1;
        self.clock += cost::HOST_STEP;
        if self.host_steps > self.opts.max_host_steps {
            return Err(Diag::new(
                Phase::Limit,
                pos,
                "program exceeded its host execution time limit",
            ));
        }
        Ok(())
    }

    // ---- statements --------------------------------------------------------

    fn exec_block(&mut self, b: Block) -> Result<Flow, Diag> {
        let f = self.frame.func;
        for s in f.block(b) {
            let flow = self.exec_stmt(s)?;
            if !matches!(flow, Flow::Normal) {
                return Ok(flow);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, Diag> {
        let f = self.frame.func;
        match *s {
            Stmt::Decl {
                ty,
                init,
                pos,
                slot,
                ..
            } => {
                self.step(pos)?;
                let v = match init {
                    Some(e) => {
                        let raw = self.eval(f.expr(e))?;
                        raw.coerce_to(&ty)
                            .map_err(|m| Diag::new(Phase::Runtime, pos, m))?
                    }
                    None => Value::zero_of(&ty),
                };
                self.frame.vals[slot as usize] = v;
                Ok(Flow::Normal)
            }
            Stmt::SharedDecl { pos, .. } => {
                Err(Diag::new(Phase::Runtime, pos, "__shared__ in host code"))
            }
            Stmt::Assign {
                target,
                op,
                value,
                pos,
            } => {
                self.step(pos)?;
                let target = f.expr(target);
                let mut rhs = self.eval(f.expr(value))?;
                if let Some(op) = op {
                    let cur = self.eval(target)?;
                    rhs =
                        apply_binop(op, cur, rhs).map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                }
                match target.kind {
                    ExprKind::Bound(Binding::Slot(slot)) => self.assign_var(slot, rhs, pos)?,
                    ExprKind::Index(base, idx) => {
                        let p = self
                            .eval(f.expr(base))?
                            .as_ptr()
                            .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                        let k = self
                            .eval(f.expr(idx))?
                            .as_int()
                            .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                        let mut q = p;
                        q.offset += k;
                        self.host_store(q, rhs, pos)?;
                    }
                    _ => {
                        return Err(Diag::new(
                            Phase::Runtime,
                            pos,
                            "left side of assignment is not assignable",
                        ))
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                let e = f.expr(e);
                self.step(f.pos(e))?;
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                pos,
            } => {
                self.step(pos)?;
                let c = self
                    .eval(f.expr(cond))?
                    .truthy()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
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
                    self.step(pos)?;
                    let c = self
                        .eval(f.expr(cond))?
                        .truthy()
                        .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
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
                if let Some(i) = init {
                    self.exec_stmt(f.stmt(i))?;
                }
                loop {
                    self.step(pos)?;
                    if let Some(c) = cond {
                        let t = self
                            .eval(f.expr(c))?
                            .truthy()
                            .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
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
                        self.exec_stmt(f.stmt(st))?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, pos } => {
                self.step(pos)?;
                let v = match value {
                    Some(e) => self.eval(f.expr(e))?,
                    None => Value::I(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Launch {
                kernel,
                operands,
                pos,
            } => {
                self.step(pos)?;
                self.launch(self.program.name(kernel), operands, pos)?;
                Ok(Flow::Normal)
            }
            Stmt::AccParallelLoop { body, pos } => {
                // OpenACC offload is simulated as a host-side execution
                // of the annotated loop with device-style accounting:
                // the loop ran "on the accelerator", so its statements
                // are charged to the kernel counters rather than the
                // host budget. See DESIGN.md (substitutions).
                self.step(pos)?;
                self.cost.kernel_launches += 1;
                self.clock += cost::LAUNCH_OVERHEAD;
                self.exec_stmt(f.stmt(body))
            }
        }
    }

    // ---- kernel launches ---------------------------------------------------

    /// A grid or block extent triple; an absent extent is 1.
    fn eval_dim(&mut self, extents: &[Expr], pos: Pos) -> Result<[i64; 3], Diag> {
        let mut dim = [1; 3];
        for (d, e) in dim.iter_mut().zip(extents) {
            *d = self
                .eval(e)?
                .as_int()
                .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
        }
        Ok(dim)
    }

    fn launch(&mut self, kernel: &str, operands: LaunchOperands, pos: Pos) -> Result<(), Diag> {
        self.check_policy("kernelLaunch", pos)?;
        let f = self.frame.func;
        let g = self.eval_dim(f.list(operands.grid()), pos)?;
        let b = self.eval_dim(f.list(operands.block()), pos)?;
        let args = f.list(operands.args());
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a)?);
        }
        let result = device::launch(
            &self.opts.device,
            self.program,
            kernel,
            g,
            b,
            &argv,
            &mut self.dev,
            &self.consts,
            &mut self.budget,
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
                .words(p.alloc)
                .and_then(|words| memory::load(words, p, p.elem))
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
                .words_mut(p.alloc)
                .and_then(|words| memory::store(words, p, p.elem, v))
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
        let f = self.frame.func;
        let pos = f.pos(e);
        match e.kind {
            ExprKind::IntLit(v) => Ok(Value::I(v.get())),
            ExprKind::FloatLit(v) => Ok(Value::F(v)),
            ExprKind::StrLit(_) => Err(Diag::new(
                Phase::Runtime,
                pos,
                "string literals are only valid as wb* arguments",
            )),
            ExprKind::SizeOf(t) => Ok(Value::I(t.size_of())),
            ExprKind::Var(_) => unreachable!("sema binds every name"),
            ExprKind::Bound(binding) => Ok(match binding {
                Binding::Slot(slot) => self.frame.vals[slot as usize],
                Binding::Constant(id) => Value::P(self.program.constant_ptr(id)),
                Binding::Predefined(v) => Value::I(v.into()),
            }),
            ExprKind::Builtin(_, _) => Err(Diag::new(
                Phase::Runtime,
                pos,
                "threadIdx/blockIdx are not available on the host",
            )),
            ExprKind::Unary(op, inner) => {
                let v = self.eval(f.expr(inner))?;
                apply_unop(op, v).map_err(|m| Diag::new(Phase::Runtime, pos, m))
            }
            ExprKind::Binary(op, a, b) => {
                let (a, b) = (f.expr(a), f.expr(b));
                if op.is_logical() {
                    // Short-circuit like C.
                    let av = self
                        .eval(a)?
                        .truthy()
                        .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                    return match (op, av) {
                        (BinOp::And, false) => Ok(Value::B(false)),
                        (BinOp::Or, true) => Ok(Value::B(true)),
                        _ => {
                            let bv = self
                                .eval(b)?
                                .truthy()
                                .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                            Ok(Value::B(bv))
                        }
                    };
                }
                let av = self.eval(a)?;
                let bv = self.eval(b)?;
                apply_binop(op, av, bv).map_err(|m| Diag::new(Phase::Runtime, pos, m))
            }
            ExprKind::Ternary(c, a) => {
                let b = a.next();
                let cv = self
                    .eval(f.expr(c))?
                    .truthy()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if cv {
                    self.eval(f.expr(a))
                } else {
                    self.eval(f.expr(b))
                }
            }
            ExprKind::Index(base, idx) => {
                let p = self
                    .eval(f.expr(base))?
                    .as_ptr()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let k = self
                    .eval(f.expr(idx))?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let mut q = p;
                q.offset += k;
                if p.space == Space::Constant {
                    return self
                        .consts
                        .bank(q.alloc)
                        .and_then(|(words, elem)| memory::load(words, q, elem))
                        .map_err(|er| Diag::new(Phase::Runtime, pos, er.0));
                }
                self.host_load(q, pos)
            }
            ExprKind::Cast(ty, inner) => {
                let v = self.eval(f.expr(inner))?;
                v.coerce_to(&ty)
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))
            }
            ExprKind::AddrOf(..) => Err(Diag::new(
                Phase::Runtime,
                pos,
                "&variable is only valid as an out-parameter of an API call",
            )),
            ExprKind::Call { callee, first, len } => {
                self.eval_call(callee, f.list(ExprKind::args(first, len)), pos)
            }
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

    /// Evaluate an out-parameter: returns the frame slot to write.
    fn ref_arg(&mut self, e: &Expr) -> Result<u32, Diag> {
        match e.kind {
            ExprKind::AddrOf(_, slot) => Ok(slot),
            _ => Err(Diag::new(
                Phase::Runtime,
                self.frame.func.pos(e),
                "this argument must be &variable",
            )),
        }
    }

    fn str_arg(&self, e: &Expr) -> Result<String, Diag> {
        match e.kind {
            ExprKind::StrLit(s) => Ok(self.program.name(s).to_string()),
            _ => Err(Diag::new(
                Phase::Runtime,
                self.frame.func.pos(e),
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
        let p = Ptr {
            space: Space::Host,
            alloc: self.host.alloc_elems(data.len().max(1)),
            offset: 0,
            elem: ElemType::F32,
            level: 0,
        };
        self.host.write_f32(p, data).expect("fresh allocation");
        p
    }

    /// Import integers (or a dataset's indices, narrowed) into a fresh
    /// host allocation, straight from the borrowed dataset.
    fn alloc_host_i32(&mut self, data: impl ExactSizeIterator<Item = i32>) -> Ptr {
        let p = Ptr {
            space: Space::Host,
            alloc: self.host.alloc_elems(data.len().max(1)),
            offset: 0,
            elem: ElemType::I32,
            level: 0,
        };
        self.host.write_i32(p, data).expect("fresh allocation");
        p
    }

    fn write_out_int(&mut self, arg: &Expr, v: i64, pos: Pos) -> Result<(), Diag> {
        let slot = self.ref_arg(arg)?;
        self.assign_var(slot, Value::I(v), pos)
    }

    fn eval_call(&mut self, sym: Sym, args: &'a [Expr], pos: Pos) -> Result<Value, Diag> {
        let name = self.program.name(sym);
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
                let words = (bytes as usize).div_ceil(4);
                if self.host.live_words() + words > HOST_MEM_WORDS {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "malloc failed: out of host memory",
                    ));
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
                if self.dev.live_words() + words > self.opts.device.global_mem_words {
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
                self.assign_var(out, Value::P(p), pos)?;
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
                match dir {
                    0 => self.dev.copy_from(dst, &self.host, src, words),
                    1 => self.host.copy_from(dst, &self.dev, src, words),
                    2 => self.dev.copy_within(dst, src, words),
                    _ => self.host.copy_within(dst, src, words),
                }
                .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                match dir {
                    0 => self.cost.words_h2d += words as u64,
                    1 => self.cost.words_d2h += words as u64,
                    _ => {}
                }
                self.clock += cost::COPY_WORD * words as u64;
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
                self.clock += cost::COPY_WORD * words as u64;
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
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.to_string()))?;
                self.write_out_int(&args[1], data.len() as i64, pos)?;
                Ok(Value::P(self.alloc_host_f32(data)))
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
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.to_string()))?;
                self.write_out_int(&args[1], data.len() as i64, pos)?;
                Ok(Value::P(self.alloc_host_i32(data.iter().copied())))
            }
            "wbImportMatrix" => {
                self.check_policy(name, pos)?;
                let idx = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let (rows, cols, data) = self
                    .input(idx, pos)?
                    .as_matrix()
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.to_string()))?;
                self.write_out_int(&args[1], rows as i64, pos)?;
                self.write_out_int(&args[2], cols as i64, pos)?;
                Ok(Value::P(self.alloc_host_f32(data)))
            }
            "wbImportImage" => {
                self.check_policy(name, pos)?;
                let idx = self
                    .eval(&args[0])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let img = match self.input(idx, pos)? {
                    Dataset::Image(img) => img,
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
                    Dataset::Sparse(m) => m,
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
                        self.write_out_int(&args[1], m.rows() as i64, pos)?;
                        Ok(Value::P(self.alloc_host_i32(narrow(m.row_ptr()))))
                    }
                    "wbImportCsrColIdx" => {
                        self.write_out_int(&args[1], m.nnz() as i64, pos)?;
                        Ok(Value::P(self.alloc_host_i32(narrow(m.col_idx()))))
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
                    Dataset::Graph(g) => g,
                    other => {
                        return Err(Diag::new(
                            Phase::Runtime,
                            pos,
                            format!("expected graph dataset, found {}", other.kind()),
                        ))
                    }
                };
                if name == "wbImportGraphRowPtr" {
                    self.write_out_int(&args[1], g.num_nodes() as i64, pos)?;
                    Ok(Value::P(self.alloc_host_i32(narrow(g.row_ptr()))))
                } else {
                    self.write_out_int(&args[1], g.num_edges() as i64, pos)?;
                    Ok(Value::P(self.alloc_host_i32(narrow(g.neighbors()))))
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
                let n = rows
                    .checked_mul(cols)
                    .ok_or_else(|| Diag::new(Phase::Runtime, pos, "matrix dimensions overflow"))?;
                let off = usize::try_from(p.offset)
                    .map_err(|_| Diag::new(Phase::Runtime, pos, "negative pointer offset"))?;
                let data = self
                    .host
                    .read_f32(p.alloc, off, n as usize)
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
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let h = self
                    .eval(&args[2])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                let c = self
                    .eval(&args[3])?
                    .as_int()
                    .map_err(|m| Diag::new(Phase::Runtime, pos, m))?;
                if p.space != Space::Host {
                    return Err(Diag::new(
                        Phase::Runtime,
                        pos,
                        "wbSolutionImage needs a host pointer",
                    ));
                }
                if w < 0 || h < 0 || c < 0 {
                    return Err(Diag::new(Phase::Runtime, pos, "negative image dimensions"));
                }
                let n = w
                    .checked_mul(h)
                    .and_then(|n| n.checked_mul(c))
                    .ok_or_else(|| Diag::new(Phase::Runtime, pos, "image dimensions overflow"))?;
                let off = usize::try_from(p.offset)
                    .map_err(|_| Diag::new(Phase::Runtime, pos, "negative pointer offset"))?;
                let data = self
                    .host
                    .read_f32(p.alloc, off, n as usize)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
                let img = Image::from_data(w as usize, h as usize, c as usize, data)
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
                    match a.kind {
                        ExprKind::StrLit(s) => msg.push_str(self.program.name(s)),
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
                if p.offset < 0 {
                    return Err(Diag::new(Phase::Runtime, pos, "negative pointer offset"));
                }
                self.host
                    .write_f32(p, &data)
                    .map_err(|e| Diag::new(Phase::Runtime, pos, e.0))?;
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
                let f = program.func_named(sym).ok_or_else(|| {
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
                let caller = std::mem::replace(&mut self.frame, Frame::enter(f, argv));
                self.call_depth += 1;
                let flow = self.exec_block(f.body);
                self.call_depth -= 1;
                self.frame = caller;
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
    fn maximal_grid_hits_device_budget_before_any_block_runs() {
        let src = r#"
            __global__ void k(float* d) { }
            int main() {
                float* d;
                cudaMalloc(&d, 4);
                k<<<dim3(65535, 65535, 65535), dim3(1, 1, 1)>>>(d);
                return 0;
            }
        "#;
        let program = compile(src, Dialect::Cuda).unwrap();
        let out = run(&program, &[], &RunOptions::default());
        assert_eq!(out.error.expect("must time out").phase, Phase::Limit);
        assert_eq!(out.cost.kernel_launches, 0);
    }

    #[test]
    fn empty_blocks_count_against_the_device_budget() {
        let src = r#"
            __global__ void k() { }
            int main() { k<<<1000, 1>>>(); return 0; }
        "#;
        let program = compile(src, Dialect::Cuda).unwrap();
        let with_budget = |max_warp_instructions| RunOptions {
            max_warp_instructions,
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        let out = run(&program, &[], &with_budget(1000));
        assert!(out.ok(), "{:?}", out.error);
        assert_eq!(out.cost.warp_instructions, 0);
        let out = run(&program, &[], &with_budget(999));
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
    fn cross_block_float_atomics_are_deterministic() {
        let src = r#"
            __global__ void sum(float* in, float* out, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { atomicAdd(out, in[i]); }
            }
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                float* dIn; float* dOut;
                cudaMalloc(&dIn, n * sizeof(float));
                cudaMalloc(&dOut, sizeof(float));
                cudaMemcpy(dIn, a, n * sizeof(float), cudaMemcpyHostToDevice);
                sum<<<(n + 31) / 32, 32>>>(dIn, dOut, n);
                float* h = (float*) malloc(sizeof(float));
                cudaMemcpy(h, dOut, sizeof(float), cudaMemcpyDeviceToHost);
                wbSolutionScalar(h[0]);
                return 0;
            }
        "#;
        // Magnitudes far apart, so the f32 sum depends on the order.
        let data: Vec<f32> = (0..1000)
            .map(|i| if i % 7 == 0 { 1.0e7 } else { 0.1 * i as f32 })
            .collect();
        let program = compile(src, Dialect::Cuda).unwrap();
        let inputs = [Dataset::Vector(data.clone())];
        // The 8-SM default device, not the small test one.
        let (a, b) = (
            run(&program, &inputs, &RunOptions::default()),
            run(&program, &inputs, &RunOptions::default()),
        );
        assert!(a.ok(), "{:?}", a.error);
        let bits = |o: &RunOutcome| match o.solution {
            Some(Dataset::Scalar(x)) => x.to_bits(),
            ref other => panic!("unexpected {other:?}"),
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
        // Blocks run in launch order and lanes in lane order: the sum
        // is the sequential one.
        let want = data.iter().fold(0.0f32, |acc, x| acc + x);
        assert_eq!(bits(&a), want.to_bits());
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
