//! Semantic analysis: name binding, types, call resolution, kernel rules.
//!
//! Sema is the one place a variable name is resolved. It binds every
//! reference, `&var` out-parameter, declaration and parameter to a
//! frame slot, a `__constant__` id or a predefined integer, writing the
//! [`Binding`] into the AST, and records each function's frame layout
//! ([`FuncDef::frame`]). Lowering, the host interpreter and the
//! tree-walk read those bindings; none of them keeps a scope chain.
//!
//! The checker is deliberately lenient where C is lenient (numeric
//! promotions, pointer retyping through assignments) and strict where
//! student mistakes hide bugs: undeclared names, wrong arity, indexing
//! non-pointers, launching undefined kernels, `__shared__` outside
//! device code, host API calls inside kernels, non-constant shared
//! array extents, assignments to a name that is not a variable, and
//! declarations in a `for` step (which C does not allow, and which would
//! bind before the body they run after).

use crate::ast::*;
use crate::diag::{Diag, Phase, Pos};
use crate::dialect::Dialect;
use crate::value::{ElemType, Ptr, Space};

/// A compiled, semantically valid program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Every function, in source order.
    funcs: Vec<FuncDef>,
    /// Every name the program spells.
    names: Names,
    /// Each name's function index in `funcs`, or [`NO_FUNC`].
    func_of: Vec<u32>,
    constants: Vec<ConstantSpec>,
    dialect: Dialect,
    /// Lowered device-code IR, attached by every `compile_with` (or by
    /// a caller that lowers for itself, via `attach_ir`). `None` only
    /// for a program straight from [`analyze`], whose launches fail.
    ir: Option<std::sync::Arc<crate::ir::IrProgram>>,
}

/// `func_of` for a name that is no function.
const NO_FUNC: u32 = u32::MAX;

/// A `__constant__` symbol after constant folding.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantSpec {
    /// Symbol name.
    pub name: Sym,
    /// Element interpretation.
    pub elem: ElemType,
    /// Number of elements.
    pub len: usize,
}

impl Program {
    /// Function definition by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| self.names.name(f.name) == name)
    }

    /// Function definition by interned name.
    pub fn func_named(&self, name: Sym) -> Option<&FuncDef> {
        match self.func_of[name.index()] {
            NO_FUNC => None,
            i => Some(&self.funcs[i as usize]),
        }
    }

    /// Names of all `__global__` kernels, in source order.
    pub fn kernels(&self) -> Vec<&str> {
        self.funcs
            .iter()
            .filter(|f| f.kind == FuncKind::Kernel)
            .map(|f| self.names.name(f.name))
            .collect()
    }

    /// Constant-memory symbols in declaration order (ids are indices).
    pub fn constants(&self) -> &[ConstantSpec] {
        &self.constants
    }

    /// The program's name table.
    #[cfg(test)]
    pub(crate) fn names(&self) -> &Names {
        &self.names
    }

    /// The text of an interned name.
    pub fn name(&self, sym: Sym) -> &str {
        self.names.name(sym)
    }

    /// Id of a constant symbol.
    fn constant_id(&self, name: Sym) -> Option<u32> {
        self.constants
            .iter()
            .position(|c| c.name == name)
            .map(|i| i as u32)
    }

    /// The value a [`Binding::Constant`] denotes: a pointer to element 0
    /// of the symbol's constant bank.
    pub(crate) fn constant_ptr(&self, id: u32) -> Ptr {
        Ptr {
            space: Space::Constant,
            alloc: id,
            offset: 0,
            elem: self.constants[id as usize].elem,
            level: 0,
        }
    }

    /// Dialect the program was compiled under.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// All function definitions, in source order.
    pub fn funcs(&self) -> impl Iterator<Item = &FuncDef> {
        self.funcs.iter()
    }

    /// The attached device-code IR: optimized at `O2`, as lowered at
    /// `O0`. `None` only for a program straight from [`analyze`]; a
    /// kernel launch from such a program is a runtime diagnostic.
    pub fn ir(&self) -> Option<&crate::ir::IrProgram> {
        self.ir.as_deref()
    }

    /// Attach lowered IR (done by `compile_with`, after the passes at
    /// `O2`). Its spare capacity is dropped first: the cache keeps
    /// programs, and weighs them by [`Program::heap_bytes`].
    pub fn attach_ir(&mut self, mut ir: crate::ir::IrProgram) {
        ir.shrink_to_fit();
        self.ir = Some(std::sync::Arc::new(ir));
    }

    /// Heap bytes the program holds: its functions' arenas, its name,
    /// function and constant tables, and its IR, counted from each
    /// `Vec`'s capacity without walking a tree. A shared IR is counted
    /// whole.
    pub fn heap_bytes(&self) -> usize {
        let funcs: usize = self.funcs.iter().map(FuncDef::heap_bytes).sum();
        let ir = self.ir.as_ref().map_or(0, |ir| {
            // The `Arc`'s two counters sit beside the value.
            2 * std::mem::size_of::<usize>() + std::mem::size_of_val(&**ir) + ir.heap_bytes()
        });
        vec_bytes(&self.funcs)
            + funcs
            + self.names.heap_bytes()
            + vec_bytes(&self.func_of)
            + vec_bytes(&self.constants)
            + ir
    }
}

/// Values predefined as integer constants in every scope: `cudaMemcpy*`
/// direction flags, `wbLog` levels, and `wbTime` categories.
fn predefined(name: &str) -> Option<i32> {
    Some(match name {
        "cudaMemcpyHostToDevice" => 0,
        "cudaMemcpyDeviceToHost" => 1,
        "cudaMemcpyDeviceToDevice" => 2,
        "cudaMemcpyHostToHost" => 3,
        "cudaSuccess" => 0,
        "TRACE" => 10,
        "DEBUG" => 11,
        "INFO" => 12,
        "WARN" => 13,
        "ERROR" => 14,
        "FATAL" => 15,
        "Generic" => 100,
        "GPU" => 101,
        "Copy" => 102,
        "Compute" => 103,
        _ => return None,
    })
}

/// Execution context a statement appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    Host,
    Device,
}

/// Analyze a parsed unit, producing an executable [`Program`]. Sema is
/// the only resolver: it binds every name in every body (see
/// [`Binding`]) and lays out each function's frame.
pub fn analyze(unit: Unit, dialect: Dialect) -> Result<Program, Diag> {
    let Unit { items, names } = unit;
    let mut funcs: Vec<FuncDef> = Vec::new();
    let mut func_of = vec![NO_FUNC; names.len()];
    let mut constants = Vec::new();

    for item in items {
        match item {
            Item::Func(f) => {
                let name = names.name(f.name);
                if func_of[f.name.index()] != NO_FUNC {
                    return Err(Diag::new(
                        Phase::Sema,
                        f.pos,
                        format!("function `{name}` is defined twice"),
                    ));
                }
                if intrinsic_arity(name).is_some() || crate::value::is_math_intrinsic(name) {
                    return Err(Diag::new(
                        Phase::Sema,
                        f.pos,
                        format!("`{name}` is a built-in function and cannot be redefined"),
                    ));
                }
                if f.kind == FuncKind::Kernel && f.ret != Type::VOID {
                    return Err(Diag::new(
                        Phase::Sema,
                        f.pos,
                        format!("kernel `{name}` must return void"),
                    ));
                }
                func_of[f.name.index()] = funcs.len() as u32;
                funcs.push(f);
            }
            Item::Constant(c) => {
                let name = names.name(c.name);
                let len = const_eval(&c.exprs, c.size).ok_or_else(|| {
                    Diag::new(
                        Phase::Sema,
                        c.pos,
                        format!("__constant__ array `{name}` needs a constant size"),
                    )
                })?;
                if len <= 0 {
                    return Err(Diag::new(
                        Phase::Sema,
                        c.pos,
                        format!("__constant__ array `{name}` must have positive size"),
                    ));
                }
                if !c.elem.is_numeric() {
                    return Err(Diag::new(
                        Phase::Sema,
                        c.pos,
                        "__constant__ arrays must be int or float",
                    ));
                }
                constants.push(ConstantSpec {
                    name: c.name,
                    elem: ElemType::of(&c.elem),
                    len: len as usize,
                });
            }
        }
    }
    funcs.shrink_to_fit();
    constants.shrink_to_fit();

    let mut program = Program {
        funcs,
        names,
        func_of,
        constants,
        dialect,
        ir: None,
    };

    if let Some(main) = program.func("main") {
        if main.kind != FuncKind::Host {
            return Err(Diag::new(
                Phase::Sema,
                main.pos,
                "main must be a host function",
            ));
        }
    }

    // Second pass: bind and check every body, in source order. Each
    // body's arenas are moved out while it is checked, so the checker
    // binds them in place while it reads every signature, its own
    // included.
    let mut env = Env::new(program.names.len());
    for i in 0..program.funcs.len() {
        let f = &mut program.funcs[i];
        let mut body = Body {
            exprs: std::mem::take(&mut f.exprs),
            stmts: std::mem::take(&mut f.stmts),
            far: std::mem::take(&mut f.far),
        };
        let checker = Checker { program: &program };
        let frame = checker.check_func(&program.funcs[i], &mut body, &mut env)?;
        let f = &mut program.funcs[i];
        f.exprs = body.exprs;
        f.stmts = body.stmts;
        f.far = body.far;
        f.frame = frame;
    }

    Ok(program)
}

/// Fold a constant integer expression (`16`, `2 * 8`, `sizeof(float)`)
/// whose nodes are in `exprs`.
pub fn const_eval(exprs: &[Expr], e: ExprId) -> Option<i64> {
    match exprs[e.index()].kind {
        ExprKind::IntLit(v) => Some(v.get()),
        ExprKind::SizeOf(t) => Some(t.size_of()),
        ExprKind::Unary(UnOp::Neg, inner) => const_eval(exprs, inner).map(|v| -v),
        ExprKind::Binary(op, a, b) => {
            let a = const_eval(exprs, a)?;
            let b = const_eval(exprs, b)?;
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div if b != 0 => a / b,
                BinOp::Rem if b != 0 => a % b,
                BinOp::Shl => a << (b & 63),
                BinOp::Shr => a >> (b & 63),
                _ => return None,
            })
        }
        _ => None,
    }
}

struct Checker<'a> {
    program: &'a Program,
}

/// The arenas of the function being checked, moved out of it.
struct Body {
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    far: Vec<Pos>,
}

impl Body {
    fn pos(&self, e: ExprId) -> Pos {
        self.exprs[e.index()].at.unpack(&self.far)
    }
}

/// No slot: the name is declared but out of scope.
const HIDDEN: u32 = u32::MAX;

/// The binding table: one entry per interned name, holding the slot it
/// denotes where the check stands now. A scope is a mark in the undo
/// log, which records each declaration's shadowed slot; leaving the
/// scope restores them. Nothing is hashed: a [`Sym`] is the index.
struct Env {
    /// The slot each name denotes now, or `HIDDEN`.
    visible: Vec<u32>,
    /// `(name, shadowed slot)` per declaration, innermost last.
    undo: Vec<(Sym, u32)>,
    /// The frame being laid out: the declared type of every slot.
    frame: Vec<Type>,
    loop_depth: usize,
    /// The argument types of every call being checked, innermost last.
    arg_tys: Vec<Type>,
}

impl Env {
    /// A table for `names` interned names. The lab solutions lay out at
    /// most 21 slots in one frame (sgemm), so 32 lays them out without
    /// growing.
    fn new(names: usize) -> Env {
        Env {
            visible: vec![HIDDEN; names],
            undo: Vec::with_capacity(32),
            frame: Vec::with_capacity(32),
            loop_depth: 0,
            arg_tys: Vec::new(),
        }
    }

    /// Open a scope; [`Env::leave`] closes it.
    fn enter(&self) -> usize {
        self.undo.len()
    }

    fn leave(&mut self, mark: usize) {
        for (name, shadowed) in self.undo.drain(mark..).rev() {
            self.visible[name.index()] = shadowed;
        }
    }

    /// Bind `name` to a fresh slot of type `ty` in the innermost scope.
    fn declare(&mut self, name: Sym, ty: Type) -> u32 {
        let slot = self.frame.len() as u32;
        self.frame.push(ty);
        self.undo.push((name, self.visible[name.index()]));
        self.visible[name.index()] = slot;
        slot
    }

    fn lookup(&self, name: Sym) -> Option<u32> {
        let slot = self.visible[name.index()];
        (slot != HIDDEN).then_some(slot)
    }
}

impl<'a> Checker<'a> {
    fn name(&self, sym: Sym) -> &'a str {
        self.program.names.name(sym)
    }

    /// Check `body` (moved out of `f`), binding its names in place, and
    /// return `f`'s frame layout. Parameters take the first slots.
    fn check_func(&self, f: &FuncDef, body: &mut Body, env: &mut Env) -> Result<Vec<Type>, Diag> {
        let ctx = match f.kind {
            FuncKind::Host => Ctx::Host,
            FuncKind::Kernel | FuncKind::Device => Ctx::Device,
        };
        let mark = env.enter();
        for p in &f.params {
            if p.ty == Type::VOID {
                return Err(Diag::new(
                    Phase::Sema,
                    f.pos,
                    format!("parameter `{}` cannot have type void", self.name(p.name)),
                ));
            }
            env.declare(p.name, p.ty);
        }
        self.check_block(f.body, body, env, ctx)?;
        env.leave(mark);
        // Programs keep their frames: allocate each at its exact size.
        Ok(env.frame.drain(..).collect())
    }

    fn check_block(&self, blk: Block, b: &mut Body, env: &mut Env, ctx: Ctx) -> Result<(), Diag> {
        let mark = env.enter();
        for s in blk.ids() {
            self.check_stmt(s, b, env, ctx)?;
        }
        env.leave(mark);
        Ok(())
    }

    fn check_stmt(&self, id: StmtId, b: &mut Body, env: &mut Env, ctx: Ctx) -> Result<(), Diag> {
        match b.stmts[id.index()] {
            Stmt::Decl {
                ty,
                name,
                init,
                pos,
                ..
            } => {
                let name_text = self.name(name);
                if ty == Type::VOID {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        format!("variable `{name_text}` cannot have type void"),
                    ));
                }
                if let Some(e) = init {
                    let et = self.typeof_expr(e, b, env, ctx)?;
                    assignable(ty, et).map_err(|m| {
                        Diag::new(
                            Phase::Sema,
                            pos,
                            format!("cannot initialize `{name_text}`: {m}"),
                        )
                    })?;
                }
                let bound = env.declare(name, ty);
                if let Stmt::Decl { slot, .. } = &mut b.stmts[id.index()] {
                    *slot = bound;
                }
                Ok(())
            }
            Stmt::SharedDecl {
                elem,
                name,
                dims,
                pos,
                ..
            } => {
                let name_text = self.name(name);
                if ctx != Ctx::Device {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        "__shared__ declarations are only allowed in device code",
                    ));
                }
                if !elem.is_numeric() {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        "__shared__ arrays must be int or float",
                    ));
                }
                let mut total: i64 = 1;
                for d in dims.ids() {
                    let v = const_eval(&b.exprs, d).ok_or_else(|| {
                        Diag::new(
                            Phase::Sema,
                            pos,
                            format!("__shared__ array `{name_text}` needs constant dimensions"),
                        )
                    })?;
                    if v <= 0 {
                        return Err(Diag::new(
                            Phase::Sema,
                            pos,
                            format!(
                                "__shared__ array `{name_text}` has non-positive dimension {v}"
                            ),
                        ));
                    }
                    total = total.saturating_mul(v);
                }
                if total > 1 << 24 {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        format!("__shared__ array `{name_text}` is implausibly large"),
                    ));
                }
                // Type: one pointer level per dimension.
                let ty = (0..dims.len).fold(elem, |t, _| t.ptr_to());
                let bound = env.declare(name, ty);
                if let Stmt::SharedDecl { slot, .. } = &mut b.stmts[id.index()] {
                    *slot = bound;
                }
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                pos,
                op,
            } => {
                if !b.exprs[target.index()].is_lvalue() {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        "left side of assignment is not assignable",
                    ));
                }
                // Binding replaces the name; keep it for the diagnostic.
                let target_name = match b.exprs[target.index()].kind {
                    ExprKind::Var(name) => Some(name),
                    _ => None,
                };
                let tt = self.typeof_expr(target, b, env, ctx)?;
                let vt = self.typeof_expr(value, b, env, ctx)?;
                if let Some(op) = op {
                    // Compound assignment needs the operator defined.
                    if op.is_bitwise() && tt == Type::FLOAT {
                        return Err(Diag::new(
                            Phase::Sema,
                            pos,
                            "bitwise compound assignment on a float",
                        ));
                    }
                }
                assignable(tt, vt)
                    .map_err(|m| Diag::new(Phase::Sema, pos, format!("cannot assign: {m}")))?;
                if let (
                    ExprKind::Bound(Binding::Constant(_) | Binding::Predefined(_)),
                    Some(name),
                ) = (b.exprs[target.index()].kind, target_name)
                {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        format!(
                            "cannot assign to `{}`, which is not a variable",
                            self.name(name)
                        ),
                    ));
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.typeof_expr(e, b, env, ctx)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                pos,
            } => {
                let ct = self.typeof_expr(cond, b, env, ctx)?;
                condition(ct).map_err(|m| Diag::new(Phase::Sema, pos, m))?;
                self.check_block(then_blk, b, env, ctx)?;
                if let Some(blk) = else_blk {
                    self.check_block(blk, b, env, ctx)?;
                }
                Ok(())
            }
            Stmt::While { cond, body, pos } => {
                let ct = self.typeof_expr(cond, b, env, ctx)?;
                condition(ct).map_err(|m| Diag::new(Phase::Sema, pos, m))?;
                env.loop_depth += 1;
                let r = self.check_block(body, b, env, ctx);
                env.loop_depth -= 1;
                r
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                pos,
            } => {
                let mark = env.enter();
                if let Some(i) = init {
                    self.check_stmt(i, b, env, ctx)?;
                }
                if let Some(c) = cond {
                    let ct = self.typeof_expr(c, b, env, ctx)?;
                    condition(ct).map_err(|m| Diag::new(Phase::Sema, pos, m))?;
                }
                if let Some(st) = step {
                    // C's step is an expression: a name declared there
                    // would bind before the body it runs after.
                    if let Some(at) = declaration_pos(&b.stmts, st) {
                        return Err(Diag::new(
                            Phase::Sema,
                            at,
                            "a for-loop step cannot declare a variable",
                        ));
                    }
                    self.check_stmt(st, b, env, ctx)?;
                }
                env.loop_depth += 1;
                let r = self.check_block(body, b, env, ctx);
                env.loop_depth -= 1;
                env.leave(mark);
                r
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.typeof_expr(e, b, env, ctx)?;
                }
                Ok(())
            }
            Stmt::Break(pos) | Stmt::Continue(pos) => {
                if env.loop_depth == 0 {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        "break/continue outside of a loop",
                    ));
                }
                Ok(())
            }
            Stmt::Block(blk) => self.check_block(blk, b, env, ctx),
            Stmt::Launch {
                kernel,
                operands,
                pos,
            } => {
                let args = operands.args();
                let kernel_text = self.name(kernel);
                if ctx != Ctx::Host {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        "kernels can only be launched from host code",
                    ));
                }
                let f = self.program.func_named(kernel).ok_or_else(|| {
                    Diag::new(Phase::Sema, pos, format!("unknown kernel `{kernel_text}`"))
                })?;
                if f.kind != FuncKind::Kernel {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        format!("`{kernel_text}` is not a __global__ kernel"),
                    ));
                }
                if f.params.len() != args.len as usize {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        format!(
                            "kernel `{kernel_text}` expects {} arguments, {} given",
                            f.params.len(),
                            args.len
                        ),
                    ));
                }
                // Both x extents first, then the rest.
                let (grid, block) = (operands.grid(), operands.block());
                let firsts = grid.slice(0, 1).ids().chain(block.slice(0, 1).ids());
                let rest = grid
                    .slice(1, grid.len - 1)
                    .ids()
                    .chain(block.slice(1, block.len - 1).ids());
                for d in firsts.chain(rest) {
                    let t = self.typeof_expr(d, b, env, ctx)?;
                    if !t.is_numeric() {
                        return Err(Diag::new(
                            Phase::Sema,
                            pos,
                            "launch dimensions must be numeric",
                        ));
                    }
                }
                for (a, p) in args.ids().zip(&f.params) {
                    let at = self.typeof_expr(a, b, env, ctx)?;
                    assignable(p.ty, at).map_err(|m| {
                        Diag::new(
                            Phase::Sema,
                            b.pos(a),
                            format!("kernel argument `{}`: {m}", self.name(p.name)),
                        )
                    })?;
                }
                Ok(())
            }
            Stmt::AccParallelLoop { body, pos } => {
                if ctx != Ctx::Host {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        "#pragma acc parallel loop is host-only",
                    ));
                }
                // The annotated loop must be canonical:
                //   for (int i = <start>; i < <end>; i++)
                if let Stmt::For {
                    init, cond, step, ..
                } = b.stmts[body.index()]
                {
                    let stmt = |s: Option<StmtId>| s.map(|s| b.stmts[s.index()]);
                    let ok = matches!(stmt(init), Some(Stmt::Decl { ty: Type::INT, .. }))
                        && cond.is_some()
                        && matches!(stmt(step), Some(Stmt::Assign { .. }));
                    if !ok {
                        return Err(Diag::new(
                            Phase::Sema,
                            pos,
                            "#pragma acc parallel loop needs a canonical counted loop: for (int i = start; i < end; i++)",
                        ));
                    }
                }
                self.check_stmt(body, b, env, ctx)
            }
        }
    }

    /// The one lookup order: a local, then a `__constant__` symbol, then
    /// a predefined integer.
    fn resolve(&self, name: Sym, env: &Env) -> Option<(Binding, Type)> {
        if let Some(slot) = env.lookup(name) {
            return Some((Binding::Slot(slot), env.frame[slot as usize]));
        }
        if let Some(id) = self.program.constant_id(name) {
            let elem = match self.program.constants[id as usize].elem {
                ElemType::I32 => Type::INT,
                _ => Type::FLOAT,
            };
            return Some((Binding::Constant(id), elem.ptr_to()));
        }
        predefined(self.name(name)).map(|v| (Binding::Predefined(v), Type::INT))
    }

    fn typeof_expr(&self, id: ExprId, b: &mut Body, env: &mut Env, ctx: Ctx) -> Result<Type, Diag> {
        let kind = b.exprs[id.index()].kind;
        let pos = b.pos(id);
        match kind {
            ExprKind::IntLit(_) => Ok(Type::INT),
            ExprKind::FloatLit(_) => Ok(Type::FLOAT),
            // Strings type as char*-ish; only wb* intrinsics accept them.
            ExprKind::StrLit(_) => Ok(Type::VOID.ptr_to()),
            ExprKind::SizeOf(_) => Ok(Type::INT),
            ExprKind::Var(name) => {
                let (binding, t) = self.resolve(name, env).ok_or_else(|| {
                    Diag::new(
                        Phase::Sema,
                        pos,
                        format!("use of undeclared variable `{}`", self.name(name)),
                    )
                })?;
                b.exprs[id.index()].kind = ExprKind::Bound(binding);
                Ok(t)
            }
            ExprKind::Builtin(_, _) => {
                if ctx != Ctx::Device {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        "threadIdx/blockIdx/blockDim/gridDim are only available in device code",
                    ));
                }
                Ok(Type::INT)
            }
            ExprKind::Unary(op, inner) => {
                let t = self.typeof_expr(inner, b, env, ctx)?;
                match op {
                    UnOp::Neg => {
                        if !t.is_numeric() {
                            return Err(Diag::new(Phase::Sema, pos, "cannot negate this value"));
                        }
                        Ok(t)
                    }
                    UnOp::Not => Ok(Type::BOOL),
                    UnOp::BitNot => Ok(Type::INT),
                }
            }
            ExprKind::Binary(op, l, r) => {
                let ta = self.typeof_expr(l, b, env, ctx)?;
                let tb = self.typeof_expr(r, b, env, ctx)?;
                if op.is_comparison() || op.is_logical() {
                    return Ok(Type::BOOL);
                }
                if op.is_bitwise() {
                    if ta == Type::FLOAT || tb == Type::FLOAT {
                        return Err(Diag::new(
                            Phase::Sema,
                            pos,
                            "bitwise operators require integers",
                        ));
                    }
                    return Ok(Type::INT);
                }
                // Pointer arithmetic.
                if ta.is_ptr() {
                    return Ok(ta);
                }
                if tb.is_ptr() {
                    return Ok(tb);
                }
                if ta == Type::FLOAT || tb == Type::FLOAT {
                    Ok(Type::FLOAT)
                } else {
                    Ok(Type::INT)
                }
            }
            ExprKind::Bound(_) => unreachable!("each name is bound once"),
            ExprKind::Ternary(c, x) => {
                let y = x.next();
                let ct = self.typeof_expr(c, b, env, ctx)?;
                condition(ct).map_err(|m| Diag::new(Phase::Sema, pos, m))?;
                let ta = self.typeof_expr(x, b, env, ctx)?;
                let tb = self.typeof_expr(y, b, env, ctx)?;
                if ta == Type::FLOAT || tb == Type::FLOAT {
                    Ok(Type::FLOAT)
                } else {
                    Ok(ta)
                }
            }
            ExprKind::Index(base, idx) => {
                let bt = self.typeof_expr(base, b, env, ctx)?;
                let it = self.typeof_expr(idx, b, env, ctx)?;
                if !it.is_numeric() && it != Type::BOOL {
                    return Err(Diag::new(Phase::Sema, pos, "array index must be numeric"));
                }
                bt.pointee().ok_or_else(|| {
                    Diag::new(
                        Phase::Sema,
                        pos,
                        format!("cannot index a value of type {bt}"),
                    )
                })
            }
            ExprKind::Cast(ty, inner) => {
                let it = self.typeof_expr(inner, b, env, ctx)?;
                // Pointer↔number casts are rejected; pointer↔pointer and
                // numeric↔numeric are fine.
                if it.is_ptr() != ty.is_ptr() {
                    return Err(Diag::new(
                        Phase::Sema,
                        pos,
                        format!("cannot cast {it} to {ty}"),
                    ));
                }
                Ok(ty)
            }
            ExprKind::AddrOf(name, _) => {
                let slot = env.lookup(name).ok_or_else(|| {
                    Diag::new(
                        Phase::Sema,
                        pos,
                        format!(
                            "cannot take the address of undeclared variable `{}`",
                            self.name(name)
                        ),
                    )
                })?;
                b.exprs[id.index()].kind = ExprKind::AddrOf(name, slot);
                Ok(env.frame[slot as usize].ptr_to())
            }
            ExprKind::Call { callee, first, len } => {
                self.check_call(callee, ExprKind::args(first, len), pos, b, env, ctx)
            }
        }
    }

    fn check_call(
        &self,
        name: Sym,
        args: ExprList,
        pos: Pos,
        b: &mut Body,
        env: &mut Env,
        ctx: Ctx,
    ) -> Result<Type, Diag> {
        let base = env.arg_tys.len();
        for a in args.ids() {
            let t = self.typeof_expr(a, b, env, ctx)?;
            env.arg_tys.push(t);
        }
        let result = self.check_call_typed(name, &env.arg_tys[base..], pos, ctx);
        env.arg_tys.truncate(base);
        result
    }

    /// The checks of a call whose arguments typed as `arg_types`.
    fn check_call_typed(
        &self,
        sym: Sym,
        arg_types: &[Type],
        pos: Pos,
        ctx: Ctx,
    ) -> Result<Type, Diag> {
        let name = self.name(sym);
        // Math intrinsics are available everywhere.
        if crate::value::is_math_intrinsic(name) {
            let all_int = arg_types
                .iter()
                .all(|t| *t == Type::INT || *t == Type::BOOL);
            return Ok(if all_int && matches!(name, "min" | "max" | "abs") {
                Type::INT
            } else {
                Type::FLOAT
            });
        }

        if let Some((min_args, max_args, host_only, device_only, ret)) = intrinsic_arity(name) {
            if device_only && ctx != Ctx::Device {
                return Err(Diag::new(
                    Phase::Sema,
                    pos,
                    format!("`{name}` can only be called from device code"),
                ));
            }
            if host_only && ctx != Ctx::Host {
                return Err(Diag::new(
                    Phase::Sema,
                    pos,
                    format!("`{name}` can only be called from host code"),
                ));
            }
            if arg_types.len() < min_args || arg_types.len() > max_args {
                return Err(Diag::new(
                    Phase::Sema,
                    pos,
                    format!(
                        "`{name}` expects {} argument(s), {} given",
                        if min_args == max_args {
                            min_args.to_string()
                        } else {
                            format!("{min_args}..{max_args}")
                        },
                        arg_types.len()
                    ),
                ));
            }
            // Atomics return the pointee of their first argument.
            if name.starts_with("atomic") && name != "atomicCAS" {
                return arg_types.first().and_then(|t| t.pointee()).ok_or_else(|| {
                    Diag::new(
                        Phase::Sema,
                        pos,
                        format!("first argument of `{name}` must be a pointer"),
                    )
                });
            }
            return Ok(ret);
        }

        // User-defined function.
        let f = self.program.func_named(sym).ok_or_else(|| {
            Diag::new(
                Phase::Sema,
                pos,
                format!("call to undefined function `{name}`"),
            )
        })?;
        match (f.kind, ctx) {
            (FuncKind::Kernel, _) => {
                return Err(Diag::new(
                    Phase::Sema,
                    pos,
                    format!("kernel `{name}` must be launched with `{name}<<<grid, block>>>(...)`, not called"),
                ))
            }
            (FuncKind::Device, Ctx::Host) => {
                return Err(Diag::new(
                    Phase::Sema,
                    pos,
                    format!("__device__ function `{name}` cannot be called from host code"),
                ))
            }
            (FuncKind::Host, Ctx::Device) => {
                return Err(Diag::new(
                    Phase::Sema,
                    pos,
                    format!("host function `{name}` cannot be called from device code"),
                ))
            }
            _ => {}
        }
        if f.params.len() != arg_types.len() {
            return Err(Diag::new(
                Phase::Sema,
                pos,
                format!(
                    "`{name}` expects {} argument(s), {} given",
                    f.params.len(),
                    arg_types.len()
                ),
            ));
        }
        for (p, at) in f.params.iter().zip(arg_types) {
            assignable(p.ty, *at).map_err(|m| {
                Diag::new(
                    Phase::Sema,
                    pos,
                    format!("argument `{}` of `{name}`: {m}", self.name(p.name)),
                )
            })?;
        }
        Ok(f.ret)
    }
}

/// Where statement `s` declares a name: a declaration's position, or
/// for a multi-declarator block its first declaration's.
fn declaration_pos(stmts: &[Stmt], s: StmtId) -> Option<Pos> {
    match stmts[s.index()] {
        Stmt::Decl { pos, .. } => Some(pos),
        Stmt::Block(b) => Some(
            b.ids()
                .next()
                .and_then(|s| declaration_pos(stmts, s))
                .unwrap_or_default(),
        ),
        _ => None,
    }
}

fn condition(t: Type) -> Result<(), String> {
    if t.is_scalar() {
        Ok(())
    } else {
        Err(format!("condition must be a scalar, found {t}"))
    }
}

fn assignable(dst: Type, src: Type) -> Result<(), String> {
    if dst == src || (dst.is_scalar() && src.is_scalar()) {
        return Ok(());
    }
    // Pointers retype freely (C would at most warn); element
    // interpretation is fixed up at runtime through declared types.
    if dst.is_ptr() && src.is_ptr() {
        return Ok(());
    }
    Err(format!("expected {dst}, found {src}"))
}

/// Intrinsic table: `(min_args, max_args, host_only, device_only, return type)`.
fn intrinsic_arity(name: &str) -> Option<(usize, usize, bool, bool, Type)> {
    Some(match name {
        // Device synchronization / atomics / work-item queries.
        "__syncthreads" => (0, 0, false, true, Type::VOID),
        "barrier" => (1, 1, false, true, Type::VOID),
        "atomicAdd" | "atomicMin" | "atomicMax" | "atomicExch" => (2, 2, false, true, Type::FLOAT),
        "atomicCAS" => (3, 3, false, true, Type::INT),
        "get_global_id" | "get_local_id" | "get_group_id" | "get_local_size" | "get_num_groups"
        | "get_global_size" => (1, 1, false, true, Type::INT),
        // Host memory & CUDA API.
        "malloc" => (1, 1, true, false, Type::VOID.ptr_to()),
        "free" => (1, 1, true, false, Type::VOID),
        "cudaMalloc" => (2, 2, true, false, Type::INT),
        "cudaFree" => (1, 1, true, false, Type::INT),
        "cudaMemcpy" => (4, 4, true, false, Type::INT),
        "cudaMemcpyToSymbol" => (3, 3, true, false, Type::INT),
        "cudaDeviceSynchronize" => (0, 0, true, false, Type::INT),
        "cudaGetLastError" => (0, 0, true, false, Type::INT),
        "cudaSetDevice" => (1, 1, true, false, Type::INT),
        "cudaGetDeviceCount" => (1, 1, true, false, Type::INT),
        // wb support library.
        "wbImportVector" => (2, 2, true, false, Type::FLOAT.ptr_to()),
        "wbImportIntVector" => (2, 2, true, false, Type::INT.ptr_to()),
        "wbImportMatrix" => (3, 3, true, false, Type::FLOAT.ptr_to()),
        "wbImportImage" => (4, 4, true, false, Type::FLOAT.ptr_to()),
        "wbImportCsrRowPtr" => (2, 2, true, false, Type::INT.ptr_to()),
        "wbImportCsrColIdx" => (2, 2, true, false, Type::INT.ptr_to()),
        "wbImportCsrValues" => (2, 2, true, false, Type::FLOAT.ptr_to()),
        "wbImportGraphRowPtr" => (2, 2, true, false, Type::INT.ptr_to()),
        "wbImportGraphNeighbors" => (2, 2, true, false, Type::INT.ptr_to()),
        "wbImportScalar" => (1, 1, true, false, Type::FLOAT),
        "wbSolution" => (2, 2, true, false, Type::VOID),
        "wbSolutionInt" => (2, 2, true, false, Type::VOID),
        "wbSolutionMatrix" => (3, 3, true, false, Type::VOID),
        "wbSolutionImage" => (4, 4, true, false, Type::VOID),
        "wbSolutionScalar" => (1, 1, true, false, Type::VOID),
        "wbLog" => (1, 8, true, false, Type::VOID),
        "wbTime_start" | "wbTime_stop" => (2, 2, true, false, Type::VOID),
        // MPI layer for the multi-GPU lab.
        "wbMPI_rank" | "wbMPI_size" => (0, 0, true, false, Type::INT),
        "wbMPI_sendFloat" | "wbMPI_recvFloat" => (3, 3, true, false, Type::VOID),
        "wbMPI_barrier" => (0, 0, true, false, Type::VOID),
        "exit" => (1, 1, true, false, Type::VOID),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, Dialect};

    fn check(src: &str) -> Result<Program, Diag> {
        compile(src, Dialect::Cuda)
    }

    #[test]
    fn undeclared_variable_rejected() {
        let err = check("int main() { x = 1; return 0; }").unwrap_err();
        assert!(err.message.contains("undeclared variable `x`"));
    }

    #[test]
    fn scopes_nest_and_pop() {
        assert!(check("int main() { { int x = 1; } return 0; }").is_ok());
        let err = check("int main() { { int x = 1; } x = 2; return 0; }").unwrap_err();
        assert!(err.message.contains("undeclared"));
    }

    #[test]
    fn shadowing_allowed() {
        assert!(check("int main() { int x = 1; { float x = 2.0; x = 3.0; } return 0; }").is_ok());
    }

    #[test]
    fn names_bind_to_slots_constants_and_predefined_values() {
        let p = check(
            "__constant__ float m[2];\nfloat f(int x) { { int x = 2; } return x + cudaSuccess + m[1]; }",
        )
        .unwrap();
        let f = p.func("f").unwrap();
        assert_eq!(f.frame, [Type::INT, Type::INT]);
        let body = f.block(f.body);
        assert!(matches!(body[0], Stmt::Block(b)
            if matches!(f.block(b)[0], Stmt::Decl { slot: 1, .. })));
        let Stmt::Return { value: Some(e), .. } = body[1] else {
            panic!("return");
        };
        let ExprKind::Binary(_, sum, index) = f.expr(e).kind else {
            panic!("sum");
        };
        let ExprKind::Binary(_, x, success) = f.expr(sum).kind else {
            panic!("x + cudaSuccess");
        };
        assert_eq!(f.expr(x).kind, ExprKind::Bound(Binding::Slot(0)));
        assert_eq!(
            f.expr(success).kind,
            ExprKind::Bound(Binding::Predefined(0))
        );
        assert!(matches!(f.expr(index).kind, ExprKind::Index(m, _)
            if f.expr(m).kind == ExprKind::Bound(Binding::Constant(0))));
    }

    #[test]
    fn only_variables_are_assignable() {
        for src in [
            "int main() { cudaSuccess = 1; return 0; }",
            "__constant__ float m[2];\nint main() { float* q; m = q; return 0; }",
        ] {
            let err = check(src).unwrap_err();
            assert!(err.message.contains("not a variable"), "{err}");
        }
    }

    #[test]
    fn for_step_cannot_declare() {
        let err =
            check("int main() { for (int i = 0; i < 2; int j = 1) {} return 0; }").unwrap_err();
        assert!(err.message.contains("step cannot declare"), "{err}");
    }

    #[test]
    fn kernel_must_return_void() {
        let err = check("__global__ int k() { return 1; }").unwrap_err();
        assert!(err.message.contains("must return void"));
    }

    #[test]
    fn duplicate_function_rejected() {
        let err = check("int f() { return 0; } int f() { return 1; }").unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn builtin_redefinition_rejected() {
        let err = check("int malloc(int n) { return 0; }").unwrap_err();
        assert!(err.message.contains("built-in"));
    }

    #[test]
    fn builtins_device_only() {
        let err = check("int main() { int i = threadIdx.x; return 0; }").unwrap_err();
        assert!(err.message.contains("device code"));
    }

    #[test]
    fn shared_only_in_device() {
        let err = check("int main() { __shared__ float t[4]; return 0; }").unwrap_err();
        assert!(err.message.contains("device code"));
    }

    #[test]
    fn shared_dims_must_be_constant() {
        let err = check("__global__ void k(int n) { __shared__ float t[n]; }").unwrap_err();
        assert!(err.message.contains("constant dimensions"));
    }

    #[test]
    fn shared_dims_const_fold() {
        assert!(check("__global__ void k() { __shared__ float t[4 * 8][2]; }").is_ok());
    }

    #[test]
    fn launch_of_unknown_kernel_rejected() {
        let err = check("int main() { k<<<1, 1>>>(); return 0; }").unwrap_err();
        assert!(err.message.contains("unknown kernel"));
    }

    #[test]
    fn launch_arity_checked() {
        let err = check("__global__ void k(int a) {}\nint main() { k<<<1, 1>>>(); return 0; }")
            .unwrap_err();
        assert!(err.message.contains("expects 1 arguments"));
    }

    #[test]
    fn launch_of_host_function_rejected() {
        let err = check("void f() {}\nint main() { f<<<1, 1>>>(); return 0; }").unwrap_err();
        assert!(err.message.contains("not a __global__ kernel"));
    }

    #[test]
    fn calling_kernel_directly_rejected() {
        let err = check("__global__ void k() {}\nint main() { k(); return 0; }").unwrap_err();
        assert!(err.message.contains("must be launched"));
    }

    #[test]
    fn device_fn_not_callable_from_host() {
        let err = check("__device__ int d() { return 1; }\nint main() { int x = d(); return 0; }")
            .unwrap_err();
        assert!(err.message.contains("cannot be called from host"));
    }

    #[test]
    fn host_fn_not_callable_from_device() {
        let err = check("int h() { return 1; }\n__global__ void k() { int x = h(); }").unwrap_err();
        assert!(err.message.contains("cannot be called from device"));
    }

    #[test]
    fn launch_in_device_code_rejected() {
        let err =
            check("__global__ void k() {}\n__global__ void g() { k<<<1, 1>>>(); }").unwrap_err();
        assert!(err
            .message
            .contains("kernels can only be launched from host code"));
        let err =
            check("__global__ void k() {}\n__device__ void d() { k<<<1, 1>>>(); }").unwrap_err();
        assert!(err
            .message
            .contains("kernels can only be launched from host code"));
    }

    #[test]
    fn acc_pragma_in_device_code_rejected() {
        let err = check(
            "__global__ void k(float* a) {\n#pragma acc parallel loop\n  \
             for (int i = 0; i < 4; i++) { a[i] = 0.0; }\n}",
        )
        .unwrap_err();
        assert!(err
            .message
            .contains("#pragma acc parallel loop is host-only"));
    }

    #[test]
    fn host_api_not_callable_from_device() {
        let err = check("__global__ void k() { float* p = (float*) malloc(4); }").unwrap_err();
        assert!(err.message.contains("host code"));
    }

    #[test]
    fn syncthreads_not_callable_from_host() {
        let err = check("int main() { __syncthreads(); return 0; }").unwrap_err();
        assert!(err.message.contains("device code"));
    }

    #[test]
    fn indexing_non_pointer_rejected() {
        let err = check("int main() { int x = 1; int y = x[0]; return 0; }").unwrap_err();
        assert!(err.message.contains("cannot index"));
    }

    #[test]
    fn undefined_call_rejected() {
        let err = check("int main() { frobnicate(); return 0; }").unwrap_err();
        assert!(err.message.contains("undefined function"));
    }

    #[test]
    fn wrong_intrinsic_arity_rejected() {
        let err = check("int main() { float* p; cudaMalloc(&p); return 0; }").unwrap_err();
        assert!(err.message.contains("expects 2"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let err = check("int main() { break; return 0; }").unwrap_err();
        assert!(err.message.contains("outside of a loop"));
    }

    #[test]
    fn constant_symbol_usable_in_kernel() {
        let src =
            "__constant__ float mask[5];\n__global__ void k(float* out) { out[0] = mask[0]; }";
        let p = check(src).unwrap();
        assert_eq!(p.constants().len(), 1);
        assert_eq!(p.constants()[0].len, 5);
        assert_eq!(p.constant_id(p.names().find("mask").unwrap()), Some(0));
    }

    #[test]
    fn predefined_constants_resolve() {
        assert!(check(
            "int main() { float* a; float* b; cudaMemcpy(a, b, 4, cudaMemcpyHostToDevice); return 0; }"
        )
        .is_ok());
    }

    #[test]
    fn wblog_levels_resolve() {
        assert!(check("int main() { wbLog(TRACE, \"hello\"); return 0; }").is_ok());
    }

    #[test]
    fn wbtime_kinds_resolve() {
        assert!(check(
            "int main() { wbTime_start(Compute, \"k\"); wbTime_stop(Compute, \"k\"); return 0; }"
        )
        .is_ok());
    }

    #[test]
    fn kernels_listed() {
        let p = check("__global__ void a() {}\n__global__ void b() {}\nvoid c() {}").unwrap();
        assert_eq!(p.kernels(), ["a", "b"]);
    }

    #[test]
    fn main_must_be_host() {
        let err = check("__global__ void main() {}").unwrap_err();
        // Kernel main trips the void-return rule or the host rule; both
        // are sema errors mentioning main.
        assert_eq!(err.phase, Phase::Sema);
    }

    #[test]
    fn pointer_to_number_cast_rejected() {
        let err = check("int main() { float* p; int x = (int) p; return 0; }").unwrap_err();
        assert!(err.message.contains("cannot cast"));
    }

    #[test]
    fn atomic_returns_pointee_type() {
        assert!(check("__global__ void k(int* c) { int old = atomicAdd(c, 1); }").is_ok());
    }

    #[test]
    fn atomic_requires_pointer() {
        let err = check("__global__ void k() { int x = 0; atomicAdd(x, 1); }").unwrap_err();
        assert!(err.message.contains("must be a pointer"));
    }

    #[test]
    fn const_eval_handles_arithmetic() {
        use crate::lexer::lex;
        use crate::parser::parse;
        let u = parse(
            lex("__global__ void k() { __shared__ float t[2 * 8 + sizeof(float)]; }").unwrap(),
        )
        .unwrap();
        // If const_eval failed this would be a sema error.
        assert!(analyze(u, Dialect::Cuda).is_ok());
    }

    #[test]
    fn acc_pragma_checked() {
        let ok = check(
            "int main() { float* a = (float*) malloc(16);\n#pragma acc parallel loop\nfor (int i = 0; i < 4; i++) { a[i] = i; }\nreturn 0; }",
        );
        assert!(ok.is_ok(), "{ok:?}");
    }
}
