//! AST → IR lowering.
//!
//! Lowering turns all *lexical* structure into registers at compile
//! time so the executor never touches a name table:
//!
//! * names arrive bound: sema resolved each one to a frame slot, a
//!   `__constant__` id or a predefined integer ([`Binding`]). Lowering
//!   maps each slot to the virtual register its declaration wrote, so
//!   shadowing and `for`-init scopes are exactly sema's, which are the
//!   tree-walk's;
//! * every expression node writes a fresh single-definition register,
//!   which is what makes the optimization passes simple;
//! * constructs device code cannot run (strings, `&var`) become
//!   [`Inst::Trap`]s that only fire if the code actually executes with
//!   live lanes, preserving lazy runtime errors.
//!
//! Only device code is lowered: kernels and `__device__` functions.
//! Host functions never run on the device — sema rejects a
//! device-to-host call, a launch inside device code and a device-side
//! `#pragma acc` — so the host interpreter runs them from the AST.
//!
//! One deliberate semantic choice is compound index assignment:
//! `a[i] += v` lowers to a single [`Inst::Addr`] whose element pointer
//! feeds both the load and the store, so the index expression's side
//! effects happen exactly once (the C rule); see the regression test in
//! `tests/language.rs`.
//!
//! A second, narrower one: the recursion-depth check fires at the
//! `Call` instruction (after argument evaluation), where the test-only
//! tree-walk oracle (`simt`) checks before it. The diagnostic and
//! position are identical; only side effects inside arguments of the
//! depth-exceeding call differ.

use crate::ast::*;
use crate::diag::Pos;
use crate::fx::FxHashMap;
use crate::ir::*;
use crate::sema::{const_eval, Program};
use crate::value::{ElemType, Value};

/// Lower a program's device code: every kernel and `__device__`
/// function. Host functions stay AST-only (see the module docs).
pub fn lower_program(p: &Program) -> IrProgram {
    #[cfg(test)]
    LOWERINGS.with(|n| n.set(n.get() + 1));
    let funcs = p
        .funcs()
        .filter(|f| f.kind != FuncKind::Host)
        .map(|f| Lower::new(p, f).lower_func())
        .collect();
    IrProgram { funcs }
}

#[cfg(test)]
thread_local! {
    static LOWERINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many times this thread has called [`lower_program`].
#[cfg(test)]
pub(crate) fn lowerings() -> usize {
    LOWERINGS.with(std::cell::Cell::get)
}

struct Lower<'a> {
    prog: &'a Program,
    /// The function being lowered, whose arenas the ids index.
    f: &'a FuncDef,
    blocks: Vec<IrBlock>,
    cur: BlockId,
    next_reg: Reg,
    /// The register each frame slot's declaration wrote.
    slots: Vec<Reg>,
    shared: Vec<SharedSpec>,
    /// Each shared array's index in `shared`, by name.
    shared_ids: FxHashMap<Sym, u32>,
}

impl<'a> Lower<'a> {
    fn new(prog: &'a Program, f: &'a FuncDef) -> Self {
        Lower {
            prog,
            f,
            blocks: vec![IrBlock::default()],
            cur: 0,
            next_reg: 0,
            slots: vec![0; f.frame.len()],
            shared: Vec::new(),
            shared_ids: FxHashMap::default(),
        }
    }

    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn emit(&mut self, inst: Inst) {
        self.blocks[self.cur as usize].insts.push(inst);
    }

    /// Run `f` with a fresh block as the emission target; returns the
    /// block id.
    fn in_new_block<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (BlockId, T) {
        let id = self.blocks.len() as BlockId;
        self.blocks.push(IrBlock::default());
        let saved = self.cur;
        self.cur = id;
        let r = f(self);
        self.cur = saved;
        (id, r)
    }

    fn lower_func(mut self) -> IrFunc {
        let f = self.f;
        let mut params = Vec::with_capacity(f.params.len());
        for (slot, p) in f.params.iter().enumerate() {
            let r = self.fresh();
            self.slots[slot] = r;
            params.push((r, p.ty));
        }
        self.lower_block(f.body);
        IrFunc {
            name: self.prog.name(f.name).to_string(),
            params,
            blocks: self.blocks,
            num_regs: self.next_reg,
            shared: self.shared,
            kernel: f.kind == FuncKind::Kernel,
            pos: f.pos,
        }
    }

    /// Lower a `{}` block's statements into the current IR block.
    fn lower_block(&mut self, b: Block) {
        let f = self.f;
        for s in f.block(b) {
            self.lower_stmt(s);
        }
    }

    /// Lower a `{}` block into a brand-new IR block (branch arms, loop
    /// bodies).
    fn lower_block_child(&mut self, b: Block) -> BlockId {
        self.in_new_block(|l| l.lower_block(b)).0
    }

    fn trap(&mut self, pos: Pos, msg: impl Into<String>) -> Reg {
        self.emit(Inst::Trap {
            msg: msg.into(),
            pos,
        });
        // The trap aborts execution when reached, so this register is
        // never read; it exists so expression lowering always yields a
        // register.
        self.fresh()
    }

    // ---- statements ----------------------------------------------------

    fn lower_stmt(&mut self, s: &Stmt) {
        match *s {
            Stmt::Decl {
                ty,
                init,
                pos,
                slot,
                ..
            } => {
                let dst = match init {
                    Some(e) => {
                        let r = self.lower_expr(e);
                        let dst = self.fresh();
                        self.emit(Inst::Coerce { dst, a: r, ty, pos });
                        dst
                    }
                    None => {
                        let dst = self.fresh();
                        self.emit(Inst::Const {
                            dst,
                            v: Value::zero_of(&ty),
                        });
                        dst
                    }
                };
                self.slots[slot as usize] = dst;
            }
            Stmt::SharedDecl {
                elem,
                name,
                dims,
                pos,
                slot,
            } => {
                // Allocation deduplicates by name (first declaration's
                // dims win), mirroring the tree-walk's `shared_ids`.
                let spec = match self.shared_ids.get(&name) {
                    Some(&i) => i,
                    None => {
                        self.shared.push(SharedSpec {
                            name: self.prog.name(name).to_string(),
                            dims: dims
                                .ids()
                                .map(|d| {
                                    const_eval(&self.f.exprs, d).expect("sema checked") as usize
                                })
                                .collect(),
                            elem: ElemType::of(&elem),
                        });
                        let i = self.shared.len() as u32 - 1;
                        self.shared_ids.insert(name, i);
                        i
                    }
                };
                let dst = self.fresh();
                self.emit(Inst::DeclShared { dst, spec, pos });
                self.slots[slot as usize] = dst;
            }
            Stmt::Assign {
                target,
                op,
                value,
                pos,
            } => self.lower_assign(target, op, value, pos),
            Stmt::Expr(e) => {
                self.lower_expr(e);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                pos,
            } => {
                let c = self.lower_expr(cond);
                let then_b = self.lower_block_child(then_blk);
                let else_b = else_blk.map(|b| self.lower_block_child(b));
                self.emit(Inst::If {
                    cond: c,
                    then_b,
                    else_b,
                    pos,
                });
            }
            Stmt::While { cond, body, pos } => {
                let (cond_b, cond_r) = self.in_new_block(|l| l.lower_expr(cond));
                let body_b = self.lower_block_child(body);
                self.emit(Inst::Loop {
                    cond_b: Some(cond_b),
                    cond_r,
                    body_b,
                    step_b: None,
                    pos,
                });
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                pos,
            } => {
                // The init statement runs once in the enclosing block —
                // that block is the natural preheader for invariant
                // hoisting.
                let f = self.f;
                if let Some(i) = init {
                    self.lower_stmt(f.stmt(i));
                }
                let cond_lowered = cond.map(|c| self.in_new_block(|l| l.lower_expr(c)));
                let body_b = self.lower_block_child(body);
                let step_b = step.map(|st| self.in_new_block(|l| l.lower_stmt(f.stmt(st))).0);
                let (cond_b, cond_r) = match cond_lowered {
                    Some((b, r)) => (Some(b), r),
                    None => (None, 0),
                };
                self.emit(Inst::Loop {
                    cond_b,
                    cond_r,
                    body_b,
                    step_b,
                    pos,
                });
            }
            Stmt::Return { value, pos } => {
                let val = value.map(|e| self.lower_expr(e));
                self.emit(Inst::Return { val, pos });
            }
            Stmt::Break(pos) => self.emit(Inst::Break { pos }),
            Stmt::Continue(pos) => self.emit(Inst::Continue { pos }),
            Stmt::Block(b) => self.lower_block(b),
            // Only device code is lowered, and sema rejects both there.
            Stmt::Launch { pos, .. } | Stmt::AccParallelLoop { pos, .. } => {
                self.trap(pos, "sema: kernel launches and #pragma acc are host-only");
            }
        }
    }

    fn lower_assign(&mut self, target: ExprId, op: Option<BinOp>, value: ExprId, pos: Pos) {
        match self.f.expr(target).kind {
            ExprKind::Bound(Binding::Slot(slot)) => {
                let var = self.slots[slot as usize];
                let rhs = self.lower_expr(value);
                let src = match op {
                    Some(op) => {
                        let t = self.fresh();
                        self.emit(Inst::Bin {
                            dst: t,
                            op,
                            a: var,
                            b: rhs,
                            pos,
                        });
                        t
                    }
                    None => rhs,
                };
                self.emit(Inst::Assign { var, src, pos });
            }
            ExprKind::Index(base, idx) => {
                let rhs = self.lower_expr(value);
                let b = self.lower_expr(base);
                let i = self.lower_expr(idx);
                match op {
                    Some(op) => {
                        // Element address computed once: the load and
                        // the store go through the same pointer.
                        let p = self.fresh();
                        self.emit(Inst::Addr {
                            dst: p,
                            base: b,
                            idx: i,
                            pos,
                        });
                        let cur = self.fresh();
                        self.emit(Inst::LoadPtr {
                            dst: cur,
                            ptr: p,
                            pos,
                        });
                        let t = self.fresh();
                        self.emit(Inst::Bin {
                            dst: t,
                            op,
                            a: cur,
                            b: rhs,
                            pos,
                        });
                        self.emit(Inst::StorePtr {
                            ptr: p,
                            val: t,
                            pos,
                        });
                    }
                    None => self.emit(Inst::Store {
                        base: b,
                        idx: i,
                        val: rhs,
                        pos,
                    }),
                }
            }
            _ => {
                self.trap(pos, "left side of assignment is not assignable");
            }
        }
    }

    // ---- expressions ---------------------------------------------------

    fn lower_expr(&mut self, id: ExprId) -> Reg {
        let e = *self.f.expr(id);
        let pos = self.f.pos(&e);
        match e.kind {
            ExprKind::IntLit(v) => self.constant(Value::I(v.get())),
            ExprKind::FloatLit(v) => self.constant(Value::F(v)),
            ExprKind::StrLit(_) => self.trap(pos, "strings are not device values"),
            ExprKind::SizeOf(t) => self.constant(Value::I(t.size_of())),
            ExprKind::Var(_) => unreachable!("sema binds every name"),
            ExprKind::Bound(binding) => match binding {
                Binding::Slot(slot) => self.slots[slot as usize],
                Binding::Constant(id) => self.constant(Value::P(self.prog.constant_ptr(id))),
                Binding::Predefined(v) => self.constant(Value::I(v.into())),
            },
            ExprKind::Builtin(which, axis) => {
                let dst = self.fresh();
                self.emit(Inst::Builtin {
                    dst,
                    which,
                    axis,
                    pos,
                });
                dst
            }
            ExprKind::Unary(op, inner) => {
                let a = self.lower_expr(inner);
                let dst = self.fresh();
                self.emit(Inst::Un { dst, op, a, pos });
                dst
            }
            ExprKind::Binary(op, a, b) => {
                if op.is_logical() {
                    let ar = self.lower_expr(a);
                    let (rhs_b, rhs_r) = self.in_new_block(|l| l.lower_expr(b));
                    let dst = self.fresh();
                    self.emit(Inst::Logic {
                        dst,
                        op,
                        a: ar,
                        rhs_b,
                        rhs_r,
                        pos,
                    });
                    return dst;
                }
                let ar = self.lower_expr(a);
                let br = self.lower_expr(b);
                let dst = self.fresh();
                self.emit(Inst::Bin {
                    dst,
                    op,
                    a: ar,
                    b: br,
                    pos,
                });
                dst
            }
            ExprKind::Ternary(c, a) => {
                let b = a.next();
                let cr = self.lower_expr(c);
                let (then_b, then_r) = self.in_new_block(|l| l.lower_expr(a));
                let (else_b, else_r) = self.in_new_block(|l| l.lower_expr(b));
                let dst = self.fresh();
                self.emit(Inst::Ternary {
                    dst,
                    cond: cr,
                    then_b,
                    then_r,
                    else_b,
                    else_r,
                    pos,
                });
                dst
            }
            ExprKind::Index(base, idx) => {
                let b = self.lower_expr(base);
                let i = self.lower_expr(idx);
                let dst = self.fresh();
                self.emit(Inst::Load {
                    dst,
                    base: b,
                    idx: i,
                    pos,
                });
                dst
            }
            ExprKind::Cast(ty, inner) => {
                let a = self.lower_expr(inner);
                let dst = self.fresh();
                self.emit(Inst::Coerce { dst, a, ty, pos });
                dst
            }
            ExprKind::AddrOf(..) => self.trap(pos, "address-of is not supported in device code"),
            ExprKind::Call { callee, first, len } => {
                self.lower_call(callee, ExprKind::args(first, len), pos)
            }
        }
    }

    fn constant(&mut self, v: Value) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Const { dst, v });
        dst
    }

    fn lower_call(&mut self, callee: Sym, args: ExprList, pos: Pos) -> Reg {
        let name = self.prog.name(callee);
        let arg = |k: usize| args.ids().nth(k).expect("sema checked the arity");
        match name {
            "__syncthreads" | "barrier" => {
                if let Some(flag) = args.ids().next() {
                    // barrier(fence_flag): evaluated, irrelevant.
                    self.lower_expr(flag);
                }
                self.emit(Inst::Barrier { pos });
                self.constant(Value::I(0))
            }
            "atomicAdd" | "atomicMin" | "atomicMax" | "atomicExch" => {
                let kind = match name {
                    "atomicAdd" => AtomicKind::Add,
                    "atomicMin" => AtomicKind::Min,
                    "atomicMax" => AtomicKind::Max,
                    _ => AtomicKind::Exch,
                };
                let p = self.lower_expr(arg(0));
                let v = self.lower_expr(arg(1));
                let dst = self.fresh();
                self.emit(Inst::Atomic {
                    dst,
                    kind,
                    ptr: p,
                    val: v,
                    pos,
                });
                dst
            }
            "atomicCAS" => {
                let p = self.lower_expr(arg(0));
                let c = self.lower_expr(arg(1));
                let v = self.lower_expr(arg(2));
                let dst = self.fresh();
                self.emit(Inst::AtomicCas {
                    dst,
                    ptr: p,
                    cmp: c,
                    val: v,
                    pos,
                });
                dst
            }
            _ if OclFn::from_name(name).is_some() => {
                let which = OclFn::from_name(name).expect("checked");
                let dim = self.lower_expr(arg(0));
                let dst = self.fresh();
                self.emit(Inst::OclId {
                    dst,
                    which,
                    dim,
                    pos,
                });
                dst
            }
            _ if crate::value::is_math_intrinsic(name) => {
                let regs: Box<[Reg]> = args.ids().map(|a| self.lower_expr(a)).collect();
                let dst = self.fresh();
                self.emit(Inst::Math {
                    dst,
                    name: crate::value::math_name(name).expect("a math intrinsic"),
                    args: regs,
                    pos,
                });
                dst
            }
            _ => {
                if self.prog.func_named(callee).is_none() {
                    return self.trap(pos, format!("unknown function `{name}`"));
                }
                let regs: Box<[Reg]> = args.ids().map(|a| self.lower_expr(a)).collect();
                let dst = self.fresh();
                self.emit(Inst::Call {
                    dst,
                    callee: name.into(),
                    args: regs,
                    pos,
                });
                dst
            }
        }
    }
}
