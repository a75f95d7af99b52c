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
use std::collections::HashMap;

/// A compiled, semantically valid program.
#[derive(Debug, Clone)]
pub struct Program {
    funcs: HashMap<String, FuncDef>,
    kernel_names: Vec<String>,
    constants: Vec<ConstantSpec>,
    dialect: Dialect,
    /// Lowered middle-end IR, attached by `compile_with` at `O2` (or by
    /// a caller that lowers for itself, via `attach_ir`). `None` means
    /// kernels execute on the tree-walk interpreter.
    ir: Option<std::sync::Arc<crate::ir::IrProgram>>,
}

/// A `__constant__` symbol after constant folding.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantSpec {
    /// Symbol name.
    pub name: String,
    /// Element interpretation.
    pub elem: ElemType,
    /// Number of elements.
    pub len: usize,
}

impl Program {
    /// Function definition by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.get(name)
    }

    /// Names of all `__global__` kernels.
    pub fn kernels(&self) -> &[String] {
        &self.kernel_names
    }

    /// Constant-memory symbols in declaration order (ids are indices).
    pub fn constants(&self) -> &[ConstantSpec] {
        &self.constants
    }

    /// Id of a constant symbol.
    fn constant_id(&self, name: &str) -> Option<u32> {
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

    /// All function definitions, in arbitrary order.
    pub fn funcs(&self) -> impl Iterator<Item = &FuncDef> {
        self.funcs.values()
    }

    /// The attached middle-end IR, if this program was compiled with
    /// the batched executor enabled.
    pub fn ir(&self) -> Option<&crate::ir::IrProgram> {
        self.ir.as_deref()
    }

    /// Attach lowered IR (done by `compile_with` after optimization).
    pub fn attach_ir(&mut self, ir: crate::ir::IrProgram) {
        self.ir = Some(std::sync::Arc::new(ir));
    }
}

/// Values predefined as integer constants in every scope: `cudaMemcpy*`
/// direction flags, `wbLog` levels, and `wbTime` categories.
fn predefined(name: &str) -> Option<i64> {
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
    let mut funcs: HashMap<String, FuncDef> = HashMap::new();
    let mut kernel_names = Vec::new();
    let mut constants = Vec::new();
    // Bodies are moved out until checked, so the checker binds one body
    // in place while it reads every signature, its own included.
    let mut bodies = Vec::new();

    for item in unit.items {
        match item {
            Item::Func(mut f) => {
                if funcs.contains_key(&f.name) {
                    return Err(Diag::new(
                        Phase::Sema,
                        f.pos,
                        format!("function `{}` is defined twice", f.name),
                    ));
                }
                if intrinsic_arity(&f.name).is_some() || crate::value::is_math_intrinsic(&f.name) {
                    return Err(Diag::new(
                        Phase::Sema,
                        f.pos,
                        format!(
                            "`{}` is a built-in function and cannot be redefined",
                            f.name
                        ),
                    ));
                }
                if f.kind == FuncKind::Kernel {
                    if f.ret != Type::Void {
                        return Err(Diag::new(
                            Phase::Sema,
                            f.pos,
                            format!("kernel `{}` must return void", f.name),
                        ));
                    }
                    kernel_names.push(f.name.clone());
                }
                bodies.push((f.name.clone(), std::mem::take(&mut f.body)));
                funcs.insert(f.name.clone(), f);
            }
            Item::Constant(c) => {
                let len = const_eval(&c.size).ok_or_else(|| {
                    Diag::new(
                        Phase::Sema,
                        c.pos,
                        format!("__constant__ array `{}` needs a constant size", c.name),
                    )
                })?;
                if len <= 0 {
                    return Err(Diag::new(
                        Phase::Sema,
                        c.pos,
                        format!("__constant__ array `{}` must have positive size", c.name),
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

    if let Some(main) = funcs.get("main") {
        if main.kind != FuncKind::Host {
            return Err(Diag::new(
                Phase::Sema,
                main.pos,
                "main must be a host function",
            ));
        }
    }

    let mut program = Program {
        funcs,
        kernel_names,
        constants,
        dialect,
        ir: None,
    };

    // Second pass: bind and check every body, in source order.
    for (name, mut body) in bodies {
        let checker = Checker { program: &program };
        let frame = checker.check_func(&program.funcs[&name], &mut body)?;
        let f = program.funcs.get_mut(&name).expect("inserted above");
        f.body = body;
        f.frame = frame;
    }

    Ok(program)
}

/// Fold a constant integer expression (`16`, `2 * 8`, `sizeof(float)`).
pub fn const_eval(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::SizeOf(t) => Some(t.size_of()),
        ExprKind::Unary(UnOp::Neg, inner) => const_eval(inner).map(|v| -v),
        ExprKind::Binary(op, a, b) => {
            let a = const_eval(a)?;
            let b = const_eval(b)?;
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

/// Lexical scopes, each mapping a visible name to its frame slot, and
/// the frame being laid out: the declared type of every slot.
struct Env {
    scopes: Vec<HashMap<String, u32>>,
    frame: Vec<Type>,
    loop_depth: usize,
}

impl Env {
    fn new() -> Self {
        Env {
            scopes: vec![HashMap::new()],
            frame: Vec::new(),
            loop_depth: 0,
        }
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    /// Bind `name` to a fresh slot of type `ty` in the innermost scope.
    fn declare(&mut self, name: &str, ty: Type) -> u32 {
        let slot = self.frame.len() as u32;
        self.frame.push(ty);
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), slot);
        slot
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }
}

impl<'a> Checker<'a> {
    /// Check `body` (moved out of `f`), binding its names in place, and
    /// return `f`'s frame layout. Parameters take the first slots.
    fn check_func(&self, f: &FuncDef, body: &mut Block) -> Result<Vec<Type>, Diag> {
        let ctx = match f.kind {
            FuncKind::Host => Ctx::Host,
            FuncKind::Kernel | FuncKind::Device => Ctx::Device,
        };
        let mut env = Env::new();
        for p in &f.params {
            if p.ty == Type::Void {
                return Err(Diag::new(
                    Phase::Sema,
                    f.pos,
                    format!("parameter `{}` cannot have type void", p.name),
                ));
            }
            env.declare(&p.name, p.ty.clone());
        }
        self.check_block(body, &mut env, ctx)?;
        env.frame.shrink_to_fit();
        Ok(env.frame)
    }

    fn check_block(&self, b: &mut Block, env: &mut Env, ctx: Ctx) -> Result<(), Diag> {
        env.push();
        for s in &mut b.stmts {
            self.check_stmt(s, env, ctx)?;
        }
        env.pop();
        Ok(())
    }

    fn check_stmt(&self, s: &mut Stmt, env: &mut Env, ctx: Ctx) -> Result<(), Diag> {
        match s {
            Stmt::Decl {
                ty,
                name,
                init,
                pos,
                slot,
            } => {
                if *ty == Type::Void {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        format!("variable `{name}` cannot have type void"),
                    ));
                }
                if let Some(e) = init {
                    let et = self.typeof_expr(e, env, ctx)?;
                    assignable(ty, &et).map_err(|m| {
                        Diag::new(
                            Phase::Sema,
                            *pos,
                            format!("cannot initialize `{name}`: {m}"),
                        )
                    })?;
                }
                *slot = env.declare(name, ty.clone());
                Ok(())
            }
            Stmt::SharedDecl {
                elem,
                name,
                dims,
                pos,
                slot,
            } => {
                if ctx != Ctx::Device {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        "__shared__ declarations are only allowed in device code",
                    ));
                }
                if !elem.is_numeric() {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        "__shared__ arrays must be int or float",
                    ));
                }
                let mut total: i64 = 1;
                for d in dims.iter() {
                    let v = const_eval(d).ok_or_else(|| {
                        Diag::new(
                            Phase::Sema,
                            *pos,
                            format!("__shared__ array `{name}` needs constant dimensions"),
                        )
                    })?;
                    if v <= 0 {
                        return Err(Diag::new(
                            Phase::Sema,
                            *pos,
                            format!("__shared__ array `{name}` has non-positive dimension {v}"),
                        ));
                    }
                    total = total.saturating_mul(v);
                }
                if total > 1 << 24 {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        format!("__shared__ array `{name}` is implausibly large"),
                    ));
                }
                // Type: one pointer level per dimension.
                let mut ty = elem.clone();
                for _ in 0..dims.len() {
                    ty = ty.ptr_to();
                }
                *slot = env.declare(name, ty);
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                pos,
                op,
            } => {
                if !target.is_lvalue() {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        "left side of assignment is not assignable",
                    ));
                }
                let tt = self.typeof_expr(target, env, ctx)?;
                let vt = self.typeof_expr(value, env, ctx)?;
                if let Some(op) = op {
                    // Compound assignment needs the operator defined.
                    if op.is_bitwise() && tt == Type::Float {
                        return Err(Diag::new(
                            Phase::Sema,
                            *pos,
                            "bitwise compound assignment on a float",
                        ));
                    }
                }
                assignable(&tt, &vt)
                    .map_err(|m| Diag::new(Phase::Sema, *pos, format!("cannot assign: {m}")))?;
                if let ExprKind::Var(name, Binding::Constant(_) | Binding::Predefined(_)) =
                    &target.kind
                {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        format!("cannot assign to `{name}`, which is not a variable"),
                    ));
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.typeof_expr(e, env, ctx)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                pos,
            } => {
                let ct = self.typeof_expr(cond, env, ctx)?;
                condition(&ct).map_err(|m| Diag::new(Phase::Sema, *pos, m))?;
                self.check_block(then_blk, env, ctx)?;
                if let Some(b) = else_blk {
                    self.check_block(b, env, ctx)?;
                }
                Ok(())
            }
            Stmt::While { cond, body, pos } => {
                let ct = self.typeof_expr(cond, env, ctx)?;
                condition(&ct).map_err(|m| Diag::new(Phase::Sema, *pos, m))?;
                env.loop_depth += 1;
                let r = self.check_block(body, env, ctx);
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
                env.push();
                if let Some(i) = init {
                    self.check_stmt(i, env, ctx)?;
                }
                if let Some(c) = cond {
                    let ct = self.typeof_expr(c, env, ctx)?;
                    condition(&ct).map_err(|m| Diag::new(Phase::Sema, *pos, m))?;
                }
                if let Some(st) = step {
                    // C's step is an expression: a name declared there
                    // would bind before the body it runs after.
                    if matches!(**st, Stmt::Decl { .. } | Stmt::Block(_)) {
                        return Err(Diag::new(
                            Phase::Sema,
                            st.pos(),
                            "a for-loop step cannot declare a variable",
                        ));
                    }
                    self.check_stmt(st, env, ctx)?;
                }
                env.loop_depth += 1;
                let r = self.check_block(body, env, ctx);
                env.loop_depth -= 1;
                env.pop();
                r
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.typeof_expr(e, env, ctx)?;
                }
                Ok(())
            }
            Stmt::Break(pos) | Stmt::Continue(pos) => {
                if env.loop_depth == 0 {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        "break/continue outside of a loop",
                    ));
                }
                Ok(())
            }
            Stmt::Block(b) => self.check_block(b, env, ctx),
            Stmt::Launch {
                kernel,
                grid,
                block,
                args,
                pos,
            } => {
                if ctx != Ctx::Host {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        "kernels can only be launched from host code",
                    ));
                }
                let f = self.program.func(kernel).ok_or_else(|| {
                    Diag::new(Phase::Sema, *pos, format!("unknown kernel `{kernel}`"))
                })?;
                if f.kind != FuncKind::Kernel {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        format!("`{kernel}` is not a __global__ kernel"),
                    ));
                }
                if f.params.len() != args.len() {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        format!(
                            "kernel `{kernel}` expects {} arguments, {} given",
                            f.params.len(),
                            args.len()
                        ),
                    ));
                }
                for d in [&mut grid.x, &mut block.x]
                    .into_iter()
                    .chain(grid.y.iter_mut())
                    .chain(grid.z.iter_mut())
                    .chain(block.y.iter_mut())
                    .chain(block.z.iter_mut())
                {
                    let t = self.typeof_expr(d, env, ctx)?;
                    if !t.is_numeric() {
                        return Err(Diag::new(
                            Phase::Sema,
                            *pos,
                            "launch dimensions must be numeric",
                        ));
                    }
                }
                for (a, p) in args.iter_mut().zip(&f.params) {
                    let at = self.typeof_expr(a, env, ctx)?;
                    assignable(&p.ty, &at).map_err(|m| {
                        Diag::new(
                            Phase::Sema,
                            a.pos,
                            format!("kernel argument `{}`: {m}", p.name),
                        )
                    })?;
                }
                Ok(())
            }
            Stmt::AccParallelLoop { body, pos } => {
                if ctx != Ctx::Host {
                    return Err(Diag::new(
                        Phase::Sema,
                        *pos,
                        "#pragma acc parallel loop is host-only",
                    ));
                }
                // The annotated loop must be canonical:
                //   for (int i = <start>; i < <end>; i++)
                if let Stmt::For {
                    init, cond, step, ..
                } = body.as_ref()
                {
                    let ok = matches!(init.as_deref(), Some(Stmt::Decl { ty: Type::Int, .. }))
                        && cond.is_some()
                        && matches!(step.as_deref(), Some(Stmt::Assign { .. }));
                    if !ok {
                        return Err(Diag::new(
                            Phase::Sema,
                            *pos,
                            "#pragma acc parallel loop needs a canonical counted loop: for (int i = start; i < end; i++)",
                        ));
                    }
                }
                self.check_stmt(body, env, ctx)
            }
        }
    }

    /// The one lookup order: a local, then a `__constant__` symbol, then
    /// a predefined integer.
    fn resolve(&self, name: &str, env: &Env) -> Option<(Binding, Type)> {
        if let Some(slot) = env.lookup(name) {
            return Some((Binding::Slot(slot), env.frame[slot as usize].clone()));
        }
        if let Some(id) = self.program.constant_id(name) {
            let elem = match self.program.constants[id as usize].elem {
                ElemType::I32 => Type::Int,
                _ => Type::Float,
            };
            return Some((Binding::Constant(id), elem.ptr_to()));
        }
        predefined(name).map(|v| (Binding::Predefined(v), Type::Int))
    }

    fn typeof_expr(&self, e: &mut Expr, env: &mut Env, ctx: Ctx) -> Result<Type, Diag> {
        match &mut e.kind {
            ExprKind::IntLit(_) => Ok(Type::Int),
            ExprKind::FloatLit(_) => Ok(Type::Float),
            // Strings type as char*-ish; only wb* intrinsics accept them.
            ExprKind::StrLit(_) => Ok(Type::Void.ptr_to()),
            ExprKind::SizeOf(_) => Ok(Type::Int),
            ExprKind::Var(name, binding) => {
                let (b, t) = self.resolve(name, env).ok_or_else(|| {
                    Diag::new(
                        Phase::Sema,
                        e.pos,
                        format!("use of undeclared variable `{name}`"),
                    )
                })?;
                *binding = b;
                Ok(t)
            }
            ExprKind::Builtin(_, _) => {
                if ctx != Ctx::Device {
                    return Err(Diag::new(
                        Phase::Sema,
                        e.pos,
                        "threadIdx/blockIdx/blockDim/gridDim are only available in device code",
                    ));
                }
                Ok(Type::Int)
            }
            ExprKind::Unary(op, inner) => {
                let t = self.typeof_expr(inner, env, ctx)?;
                match op {
                    UnOp::Neg => {
                        if !t.is_numeric() {
                            return Err(Diag::new(Phase::Sema, e.pos, "cannot negate this value"));
                        }
                        Ok(t)
                    }
                    UnOp::Not => Ok(Type::Bool),
                    UnOp::BitNot => Ok(Type::Int),
                }
            }
            ExprKind::Binary(op, a, b) => {
                let ta = self.typeof_expr(a, env, ctx)?;
                let tb = self.typeof_expr(b, env, ctx)?;
                if op.is_comparison() || op.is_logical() {
                    return Ok(Type::Bool);
                }
                if op.is_bitwise() {
                    if ta == Type::Float || tb == Type::Float {
                        return Err(Diag::new(
                            Phase::Sema,
                            e.pos,
                            "bitwise operators require integers",
                        ));
                    }
                    return Ok(Type::Int);
                }
                // Pointer arithmetic.
                if let Type::Ptr(_) = ta {
                    return Ok(ta);
                }
                if let Type::Ptr(_) = tb {
                    return Ok(tb);
                }
                if ta == Type::Float || tb == Type::Float {
                    Ok(Type::Float)
                } else {
                    Ok(Type::Int)
                }
            }
            ExprKind::Ternary(c, a, b) => {
                let ct = self.typeof_expr(c, env, ctx)?;
                condition(&ct).map_err(|m| Diag::new(Phase::Sema, e.pos, m))?;
                let ta = self.typeof_expr(a, env, ctx)?;
                let tb = self.typeof_expr(b, env, ctx)?;
                if ta == Type::Float || tb == Type::Float {
                    Ok(Type::Float)
                } else {
                    Ok(ta)
                }
            }
            ExprKind::Index(base, idx) => {
                let bt = self.typeof_expr(base, env, ctx)?;
                let it = self.typeof_expr(idx, env, ctx)?;
                if !it.is_numeric() && it != Type::Bool {
                    return Err(Diag::new(Phase::Sema, e.pos, "array index must be numeric"));
                }
                match bt {
                    Type::Ptr(inner) => Ok(*inner),
                    other => Err(Diag::new(
                        Phase::Sema,
                        e.pos,
                        format!("cannot index a value of type {other}"),
                    )),
                }
            }
            ExprKind::Cast(ty, inner) => {
                let it = self.typeof_expr(inner, env, ctx)?;
                // Pointer↔number casts are rejected; pointer↔pointer and
                // numeric↔numeric are fine.
                let ptr_to_num = matches!(it, Type::Ptr(_)) && !matches!(ty, Type::Ptr(_));
                let num_to_ptr = !matches!(it, Type::Ptr(_)) && matches!(ty, Type::Ptr(_));
                if ptr_to_num || num_to_ptr {
                    return Err(Diag::new(
                        Phase::Sema,
                        e.pos,
                        format!("cannot cast {it} to {ty}"),
                    ));
                }
                Ok(ty.clone())
            }
            ExprKind::AddrOf(name, slot) => {
                *slot = env.lookup(name).ok_or_else(|| {
                    Diag::new(
                        Phase::Sema,
                        e.pos,
                        format!("cannot take the address of undeclared variable `{name}`"),
                    )
                })?;
                Ok(env.frame[*slot as usize].clone().ptr_to())
            }
            ExprKind::Call(name, args) => self.check_call(name, args, e.pos, env, ctx),
        }
    }

    fn check_call(
        &self,
        name: &str,
        args: &mut [Expr],
        pos: Pos,
        env: &mut Env,
        ctx: Ctx,
    ) -> Result<Type, Diag> {
        let arg_types: Vec<Type> = args
            .iter_mut()
            .map(|a| self.typeof_expr(a, env, ctx))
            .collect::<Result<_, _>>()?;

        // Math intrinsics are available everywhere.
        if crate::value::is_math_intrinsic(name) {
            let all_int = arg_types
                .iter()
                .all(|t| *t == Type::Int || *t == Type::Bool);
            return Ok(if all_int && matches!(name, "min" | "max" | "abs") {
                Type::Int
            } else {
                Type::Float
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
            if args.len() < min_args || args.len() > max_args {
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
                        args.len()
                    ),
                ));
            }
            // Atomics return the pointee of their first argument.
            if name.starts_with("atomic") && name != "atomicCAS" {
                if let Some(Type::Ptr(inner)) = arg_types.first() {
                    return Ok((**inner).clone());
                }
                return Err(Diag::new(
                    Phase::Sema,
                    pos,
                    format!("first argument of `{name}` must be a pointer"),
                ));
            }
            return Ok(ret);
        }

        // User-defined function.
        let f = self.program.func(name).ok_or_else(|| {
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
        if f.params.len() != args.len() {
            return Err(Diag::new(
                Phase::Sema,
                pos,
                format!(
                    "`{name}` expects {} argument(s), {} given",
                    f.params.len(),
                    args.len()
                ),
            ));
        }
        for (p, at) in f.params.iter().zip(&arg_types) {
            assignable(&p.ty, at).map_err(|m| {
                Diag::new(
                    Phase::Sema,
                    pos,
                    format!("argument `{}` of `{name}`: {m}", p.name),
                )
            })?;
        }
        Ok(f.ret.clone())
    }
}

fn condition(t: &Type) -> Result<(), String> {
    if t.is_scalar() {
        Ok(())
    } else {
        Err(format!("condition must be a scalar, found {t}"))
    }
}

fn assignable(dst: &Type, src: &Type) -> Result<(), String> {
    match (dst, src) {
        (d, s) if d == s => Ok(()),
        (d, s) if d.is_scalar() && s.is_scalar() => Ok(()),
        // Pointers retype freely (C would at most warn); element
        // interpretation is fixed up at runtime through declared types.
        (Type::Ptr(_), Type::Ptr(_)) => Ok(()),
        (d, s) => Err(format!("expected {d}, found {s}")),
    }
}

/// Intrinsic table: `(min_args, max_args, host_only, device_only, return type)`.
fn intrinsic_arity(name: &str) -> Option<(usize, usize, bool, bool, Type)> {
    let t = |t: Type| t;
    Some(match name {
        // Device synchronization / atomics / work-item queries.
        "__syncthreads" => (0, 0, false, true, t(Type::Void)),
        "barrier" => (1, 1, false, true, t(Type::Void)),
        "atomicAdd" | "atomicMin" | "atomicMax" | "atomicExch" => {
            (2, 2, false, true, t(Type::Float))
        }
        "atomicCAS" => (3, 3, false, true, t(Type::Int)),
        "get_global_id" | "get_local_id" | "get_group_id" | "get_local_size" | "get_num_groups"
        | "get_global_size" => (1, 1, false, true, t(Type::Int)),
        // Host memory & CUDA API.
        "malloc" => (1, 1, true, false, t(Type::Void.ptr_to())),
        "free" => (1, 1, true, false, t(Type::Void)),
        "cudaMalloc" => (2, 2, true, false, t(Type::Int)),
        "cudaFree" => (1, 1, true, false, t(Type::Int)),
        "cudaMemcpy" => (4, 4, true, false, t(Type::Int)),
        "cudaMemcpyToSymbol" => (3, 3, true, false, t(Type::Int)),
        "cudaDeviceSynchronize" => (0, 0, true, false, t(Type::Int)),
        "cudaGetLastError" => (0, 0, true, false, t(Type::Int)),
        "cudaSetDevice" => (1, 1, true, false, t(Type::Int)),
        "cudaGetDeviceCount" => (1, 1, true, false, t(Type::Int)),
        // wb support library.
        "wbImportVector" => (2, 2, true, false, t(Type::Float.ptr_to())),
        "wbImportIntVector" => (2, 2, true, false, t(Type::Int.ptr_to())),
        "wbImportMatrix" => (3, 3, true, false, t(Type::Float.ptr_to())),
        "wbImportImage" => (4, 4, true, false, t(Type::Float.ptr_to())),
        "wbImportCsrRowPtr" => (2, 2, true, false, t(Type::Int.ptr_to())),
        "wbImportCsrColIdx" => (2, 2, true, false, t(Type::Int.ptr_to())),
        "wbImportCsrValues" => (2, 2, true, false, t(Type::Float.ptr_to())),
        "wbImportGraphRowPtr" => (2, 2, true, false, t(Type::Int.ptr_to())),
        "wbImportGraphNeighbors" => (2, 2, true, false, t(Type::Int.ptr_to())),
        "wbImportScalar" => (1, 1, true, false, t(Type::Float)),
        "wbSolution" => (2, 2, true, false, t(Type::Void)),
        "wbSolutionInt" => (2, 2, true, false, t(Type::Void)),
        "wbSolutionMatrix" => (3, 3, true, false, t(Type::Void)),
        "wbSolutionImage" => (4, 4, true, false, t(Type::Void)),
        "wbSolutionScalar" => (1, 1, true, false, t(Type::Void)),
        "wbLog" => (1, 8, true, false, t(Type::Void)),
        "wbTime_start" | "wbTime_stop" => (2, 2, true, false, t(Type::Void)),
        // MPI layer for the multi-GPU lab.
        "wbMPI_rank" | "wbMPI_size" => (0, 0, true, false, t(Type::Int)),
        "wbMPI_sendFloat" | "wbMPI_recvFloat" => (3, 3, true, false, t(Type::Void)),
        "wbMPI_barrier" => (0, 0, true, false, t(Type::Void)),
        "exit" => (1, 1, true, false, t(Type::Void)),
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
        assert_eq!(f.frame, [Type::Int, Type::Int]);
        assert!(matches!(f.body.stmts[0], Stmt::Block(ref b)
            if matches!(b.stmts[0], Stmt::Decl { slot: 1, .. })));
        let Stmt::Return { value: Some(e), .. } = &f.body.stmts[1] else {
            panic!("return");
        };
        let ExprKind::Binary(_, sum, index) = &e.kind else {
            panic!("sum");
        };
        let ExprKind::Binary(_, x, success) = &sum.kind else {
            panic!("x + cudaSuccess");
        };
        assert_eq!(x.kind, ExprKind::Var("x".into(), Binding::Slot(0)));
        assert_eq!(
            success.kind,
            ExprKind::Var("cudaSuccess".into(), Binding::Predefined(0))
        );
        assert!(matches!(&index.kind, ExprKind::Index(m, _)
            if m.kind == ExprKind::Var("m".into(), Binding::Constant(0))));
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
        assert_eq!(p.constant_id("mask"), Some(0));
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
        assert_eq!(p.kernels(), &["a".to_string(), "b".to_string()]);
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
