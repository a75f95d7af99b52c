//! IR optimization passes: constant folding, common-subexpression
//! elimination, loop-invariant code motion, and dead-code elimination.
//!
//! Every pass is bound by two invariants that the differential grading
//! suite enforces:
//!
//! * **Memory and divergence counters are untouchable.** No pass may
//!   add, remove, or move a `Load`/`Store`/`Atomic`/`Barrier` or any
//!   control instruction, so `global_transactions`, bank conflicts,
//!   barrier counts, and `divergent_branches` stay bit-identical
//!   across opt levels (lab checks assert on them). Only
//!   `warp_instructions`/`device_cycles` — the post-optimization cost
//!   this middle-end exists to shrink — may change.
//!
//! * **Traps are immovable.** An instruction that could produce a
//!   runtime diagnostic (integer division by zero, pointer misuse,
//!   representation errors) is never folded into its error, never
//!   hoisted out of a conditionally-executed loop, and never deleted
//!   while dead, because any of those would change *whether* or
//!   *where* a student's kernel fails. Passes act only on operations
//!   the `Kind` analysis proves total over their operand
//!   representations. Duplicate elimination of a *potentially*
//!   trapping op is still legal — the surviving first occurrence runs
//!   under a superset mask with the same operand values, so it traps
//!   first with the identical lane and message.
//!
//! Pass order is fold → CSE → LICM → DCE: folding exposes identical
//! keys to CSE, CSE and LICM strand dead single-use temporaries, and
//! DCE sweeps them up.

use crate::ast::{BinOp, Type, UnOp};
use crate::fx::FxHashMap;
use crate::intrinsic::{Intrinsic, Ret};
use crate::ir::{BlockId, Inst, IrFunc, IrProgram, Reg};
use crate::value::{apply_binop, apply_unop, Value};

/// Optimize every function of a lowered program in place.
pub fn optimize_program(p: &mut IrProgram) {
    for f in p.funcs.values_mut() {
        optimize(f);
    }
}

/// Run all passes over one function.
///
/// The definition counts are taken once: the passes only fold an
/// instruction in place, move a single-definition one or delete one,
/// so every instruction left keeps its destination's count.
pub fn optimize(f: &mut IrFunc) {
    let defs = def_counts(f);
    fold(f, &defs);
    cse(f, &defs);
    licm(f, &defs);
    dce(f, &defs);
}

/// A set of registers: one membership flag per register of the
/// function, plus the members, so clearing costs what was inserted.
pub(crate) struct RegSet {
    member: Vec<bool>,
    /// Every register inserted since the last clear (a removed one
    /// may linger here).
    inserted: Vec<Reg>,
}

impl RegSet {
    pub(crate) fn new(num_regs: u32) -> RegSet {
        RegSet {
            member: vec![false; num_regs as usize],
            inserted: Vec::new(),
        }
    }

    pub(crate) fn contains(&self, r: Reg) -> bool {
        self.member[r as usize]
    }

    /// Add `r`; true when it was not a member.
    pub(crate) fn insert(&mut self, r: Reg) -> bool {
        let fresh = !std::mem::replace(&mut self.member[r as usize], true);
        if fresh {
            self.inserted.push(r);
        }
        fresh
    }

    pub(crate) fn remove(&mut self, r: Reg) {
        self.member[r as usize] = false;
    }

    pub(crate) fn clear(&mut self) {
        for r in self.inserted.drain(..) {
            self.member[r as usize] = false;
        }
    }
}

/// The constant each single-definition register holds, by register.
type Consts = [Option<Value>];

/// Static definition count per register. Lowering gives every
/// expression temporary exactly one definition; only named variables
/// (re-`Assign`ed) and loop registers exceed one.
fn def_counts(f: &IrFunc) -> Vec<u32> {
    let mut counts = vec![0u32; f.num_regs as usize];
    for b in &f.blocks {
        for inst in &b.insts {
            if let Some(d) = inst.dst() {
                counts[d as usize] += 1;
            }
        }
    }
    // Parameters are defined by the call/launch prologue.
    for (r, _) in &f.params {
        counts[*r as usize] += 1;
    }
    counts
}

// ---------------------------------------------------------------------
// Representation-kind analysis
// ---------------------------------------------------------------------

/// The runtime representation a register is guaranteed to hold, used
/// to prove operations total (non-trapping). `Assign` is
/// representation-preserving, so a variable's kind is fixed by its
/// declaration and survives every reassignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
    Bool,
    Ptr,
    Unknown,
}

impl Kind {
    fn of_value(v: &Value) -> Kind {
        match v {
            Value::I(_) => Kind::Int,
            Value::F(_) => Kind::Float,
            Value::B(_) => Kind::Bool,
            Value::P(_) => Kind::Ptr,
        }
    }

    fn of_type(ty: &Type) -> Kind {
        match *ty {
            Type::INT => Kind::Int,
            Type::FLOAT => Kind::Float,
            Type::BOOL => Kind::Bool,
            Type::VOID => Kind::Unknown,
            _ => Kind::Ptr,
        }
    }

    /// Accepted by `as_int`/`as_float`/`truthy` without error.
    fn numeric(self) -> bool {
        matches!(self, Kind::Int | Kind::Float | Kind::Bool)
    }
}

/// Infer register kinds for a whole function, iterating to a fixpoint
/// because flat block order is not execution order.
fn infer_kinds(f: &IrFunc) -> Vec<Kind> {
    let mut kinds = vec![Kind::Unknown; f.num_regs as usize];
    for (r, ty) in &f.params {
        // Launch/call prologues coerce arguments to the parameter
        // type, so parameter kinds are exact.
        kinds[*r as usize] = Kind::of_type(ty);
    }
    loop {
        let mut changed = false;
        let set = |kinds: &mut Vec<Kind>, r: Reg, k: Kind| {
            if k != Kind::Unknown && kinds[r as usize] == Kind::Unknown {
                kinds[r as usize] = k;
                true
            } else {
                false
            }
        };
        for b in &f.blocks {
            for inst in &b.insts {
                let upd = match inst {
                    Inst::Const { dst, v } => set(&mut kinds, *dst, Kind::of_value(v)),
                    Inst::Coerce { dst, ty, .. } => set(&mut kinds, *dst, Kind::of_type(ty)),
                    Inst::Builtin { dst, .. } | Inst::OclId { dst, .. } => {
                        set(&mut kinds, *dst, Kind::Int)
                    }
                    Inst::DeclShared { dst, .. } | Inst::Addr { dst, .. } => {
                        set(&mut kinds, *dst, Kind::Ptr)
                    }
                    Inst::Un { dst, op, a, .. } => {
                        let k = un_kind(*op, kinds[*a as usize]);
                        set(&mut kinds, *dst, k)
                    }
                    Inst::Bin { dst, op, a, b, .. } => {
                        let k = bin_kind(*op, kinds[*a as usize], kinds[*b as usize]);
                        set(&mut kinds, *dst, k)
                    }
                    Inst::Math {
                        dst, name, args, ..
                    } => {
                        let k = math_kind(*name, args.iter().map(|r| kinds[*r as usize]));
                        set(&mut kinds, *dst, k)
                    }
                    Inst::Logic { dst, .. } => set(&mut kinds, *dst, Kind::Bool),
                    Inst::Ternary {
                        dst,
                        then_r,
                        else_r,
                        ..
                    } => {
                        let kt = kinds[*then_r as usize];
                        let ke = kinds[*else_r as usize];
                        set(&mut kinds, *dst, if kt == ke { kt } else { Kind::Unknown })
                    }
                    // Loads, calls, and atomics stay Unknown: their
                    // representation depends on memory contents.
                    _ => false,
                };
                changed |= upd;
            }
        }
        if !changed {
            return kinds;
        }
    }
}

fn un_kind(op: UnOp, k: Kind) -> Kind {
    match op {
        UnOp::Not => Kind::Bool,
        UnOp::BitNot => Kind::Int,
        UnOp::Neg => match k {
            Kind::Int | Kind::Bool => Kind::Int,
            Kind::Float => Kind::Float,
            _ => Kind::Unknown,
        },
    }
}

fn bin_kind(op: BinOp, ka: Kind, kb: Kind) -> Kind {
    use BinOp::*;
    match op {
        And | Or | Eq | Ne | Lt | Le | Gt | Ge => Kind::Bool,
        Shl | Shr | BitAnd | BitOr | BitXor => Kind::Int,
        Add | Sub | Mul | Div | Rem => {
            if ka == Kind::Unknown || kb == Kind::Unknown {
                Kind::Unknown
            } else if ka == Kind::Ptr && kb == Kind::Ptr {
                // ptr - ptr yields an integer distance; ptr + ptr traps.
                if op == Sub {
                    Kind::Int
                } else {
                    Kind::Unknown
                }
            } else if ka == Kind::Ptr || kb == Kind::Ptr {
                Kind::Ptr
            } else if ka == Kind::Float || kb == Kind::Float {
                Kind::Float
            } else {
                Kind::Int
            }
        }
    }
}

/// The kind a math built-in yields, by the table's result rule.
fn math_kind(name: Intrinsic, args: impl Iterator<Item = Kind>) -> Kind {
    match name.ret() {
        Ret::Is(ty) => Kind::of_type(&ty),
        Ret::IntIfAllInt => {
            let mut kind = Kind::Int;
            for k in args {
                match k {
                    Kind::Unknown => return Kind::Unknown,
                    Kind::Int | Kind::Bool => {}
                    _ => kind = Kind::Float,
                }
            }
            kind
        }
        Ret::Pointee => Kind::Unknown,
    }
}

/// Whether a binary op is total (cannot `Err`) on operands of these
/// kinds, per `value::apply_binop`:
/// * `Eq`/`Ne` are total on every representation, pointers included.
/// * Other comparisons and `Add`/`Sub`/`Mul` need numeric operands
///   (pointer arithmetic is total only in the `ptr ± int` shapes).
/// * `Div` is total in float mode (IEEE inf/nan); integer `Div`/`Rem`
///   trap on a zero divisor, and float `Rem` always traps.
/// * Shifts are clamped and bitwise ops wrap, but both reject floats.
fn bin_safe(op: BinOp, ka: Kind, kb: Kind, divisor_nonzero: bool) -> bool {
    use BinOp::*;
    match op {
        Eq | Ne => true,
        Lt | Le | Gt | Ge | And | Or | Mul => ka.numeric() && kb.numeric(),
        Add => match (ka, kb) {
            (Kind::Ptr, k) | (k, Kind::Ptr) => k.numeric(),
            _ => ka.numeric() && kb.numeric(),
        },
        Sub => (ka.numeric() && kb.numeric()) || ka == Kind::Ptr,
        Div => {
            (ka.numeric() && kb.numeric())
                && (ka == Kind::Float || kb == Kind::Float || divisor_nonzero)
        }
        Rem => {
            ka.numeric()
                && kb.numeric()
                && ka != Kind::Float
                && kb != Kind::Float
                && divisor_nonzero
        }
        Shl | Shr | BitAnd | BitOr | BitXor => {
            ka.numeric() && kb.numeric() && ka != Kind::Float && kb != Kind::Float
        }
    }
}

fn un_safe(op: UnOp, k: Kind) -> bool {
    match op {
        UnOp::Neg | UnOp::Not | UnOp::BitNot => k.numeric(),
    }
}

fn coerce_safe(ty: &Type, k: Kind) -> bool {
    match *ty {
        Type::INT | Type::FLOAT | Type::BOOL => k.numeric(),
        Type::VOID => false,
        _ => k == Kind::Ptr,
    }
}

/// A math built-in with numeric operands of its arity is total: the
/// implementations are closed over IEEE floats. Sema leaves the arity
/// to the run, so a call of the wrong arity traps.
fn math_safe(name: Intrinsic, args: &[Reg], kinds: &[Kind]) -> bool {
    let (min, max) = name.arity();
    (min..=max).contains(&args.len()) && args.iter().all(|r| kinds[*r as usize].numeric())
}

/// An instruction safe to execute speculatively (hoist) or discard
/// (delete): pure, total, and free of memory or control effects.
fn pure_total(inst: &Inst, kinds: &[Kind], consts: &Consts) -> bool {
    match inst {
        Inst::Const { .. } | Inst::Builtin { .. } => true,
        Inst::Un { op, a, .. } => un_safe(*op, kinds[*a as usize]),
        Inst::Bin { op, a, b, .. } => {
            let nonzero = matches!(consts[*b as usize], Some(Value::I(v)) if v != 0);
            bin_safe(*op, kinds[*a as usize], kinds[*b as usize], nonzero)
        }
        Inst::Coerce { a, ty, .. } => coerce_safe(ty, kinds[*a as usize]),
        Inst::Math { name, args, .. } => math_safe(*name, args, kinds),
        _ => false,
    }
}

/// Single-definition registers currently holding a known constant.
fn const_map(f: &IrFunc, defs: &[u32]) -> Vec<Option<Value>> {
    let mut m = vec![None; f.num_regs as usize];
    for b in &f.blocks {
        for inst in &b.insts {
            if let Inst::Const { dst, v } = inst {
                if defs[*dst as usize] == 1 {
                    m[*dst as usize] = Some(*v);
                }
            }
        }
    }
    m
}

// ---------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------

/// Replace pure ops over known constants with `Const`. Folds only
/// successful evaluations — an op that would trap (division by zero)
/// is left in place so it traps at runtime exactly like the
/// tree-walk.
fn fold(f: &mut IrFunc, defs: &[u32]) {
    let mut consts: Vec<Option<Value>> = vec![None; f.num_regs as usize];
    loop {
        let mut changed = false;
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                let folded = match inst {
                    Inst::Const { dst, v } if defs[*dst as usize] == 1 => {
                        if consts[*dst as usize].is_none() {
                            consts[*dst as usize] = Some(*v);
                            changed = true;
                        }
                        None
                    }
                    Inst::Un { dst, op, a, .. } if defs[*dst as usize] == 1 => consts[*a as usize]
                        .and_then(|av| apply_unop(*op, av).ok())
                        .map(|v| (*dst, v)),
                    Inst::Bin { dst, op, a, b, .. } if defs[*dst as usize] == 1 => {
                        match (consts[*a as usize], consts[*b as usize]) {
                            (Some(av), Some(bv)) => {
                                apply_binop(*op, av, bv).ok().map(|v| (*dst, v))
                            }
                            _ => None,
                        }
                    }
                    Inst::Coerce { dst, a, ty, .. } if defs[*dst as usize] == 1 => consts
                        [*a as usize]
                        .and_then(|av| av.coerce_to(ty).ok())
                        .map(|v| (*dst, v)),
                    Inst::Math {
                        dst, name, args, ..
                    } if defs[*dst as usize] == 1
                        && args.iter().all(|r| consts[*r as usize].is_some()) =>
                    {
                        let vals: Vec<Value> =
                            args.iter().filter_map(|r| consts[*r as usize]).collect();
                        let op = name.as_math().expect("a math built-in");
                        op.apply(name.name(), &vals).ok().map(|v| (*dst, v))
                    }
                    _ => None,
                };
                if let Some((dst, v)) = folded {
                    *inst = Inst::Const { dst, v };
                    consts[dst as usize] = Some(v);
                    changed = true;
                }
            }
        }
        if !changed {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Common-subexpression elimination
// ---------------------------------------------------------------------

/// Hashable shape of a pure expression. Operator enums are fieldless,
/// so their `u8` casts serve as hash keys; a coercion's target type is
/// the `Copy` [`Type`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Un(u8, Reg),
    Bin(u8, Reg, Reg),
    Coerce(Reg, Type),
    Builtin(u8, u8),
    Math(Intrinsic, Box<[Reg]>),
}

fn make_key(inst: &Inst) -> Option<(Key, Reg)> {
    match inst {
        Inst::Un { dst, op, a, .. } => Some((Key::Un(*op as u8, *a), *dst)),
        Inst::Bin { dst, op, a, b, .. } => Some((Key::Bin(*op as u8, *a, *b), *dst)),
        Inst::Coerce { dst, a, ty, .. } => Some((Key::Coerce(*a, *ty), *dst)),
        Inst::Builtin {
            dst, which, axis, ..
        } => Some((Key::Builtin(*which as u8, *axis), *dst)),
        Inst::Math {
            dst, name, args, ..
        } => Some((Key::Math(*name, args.clone()), *dst)),
        _ => None,
    }
}

fn key_mentions(key: &Key, dead: impl Fn(Reg) -> bool) -> bool {
    match key {
        Key::Un(_, a) | Key::Coerce(a, ..) => dead(*a),
        Key::Bin(_, a, b) => dead(*a) || dead(*b),
        Key::Builtin(..) => false,
        Key::Math(_, args) => args.iter().any(|r| dead(*r)),
    }
}

/// No alias: the register is its own representative.
const UNALIASED: Reg = Reg::MAX;

struct Cse<'d> {
    /// Available expressions, as one table over the lexical mask
    /// scopes that enclose the instruction being scanned. Entries flow
    /// only *into* child scopes, where the active mask is a subset of
    /// the defining scope's — that subset relation is what makes
    /// reusing a lane-vector computed under the outer mask sound.
    avail: FxHashMap<Key, Reg>,
    /// The keys each open scope added, innermost last; a scope is a
    /// mark in this log, and leaving it removes what it added. A key
    /// is added only when no enclosing scope has it, so nothing is
    /// shadowed and removal restores the enclosing table exactly.
    added: Vec<Key>,
    /// Removed-duplicate redirections, by register (`UNALIASED` for
    /// none). Global and never undone: a duplicate's register is dead
    /// everywhere once its def is gone.
    alias: Vec<Reg>,
    aliased: bool,
    defs: &'d [u32],
    /// Scratch for the registers a loop redefines.
    loop_defs: RegSet,
}

impl Cse<'_> {
    fn resolve(&self, r: Reg) -> Reg {
        let mut r = r;
        while self.alias[r as usize] != UNALIASED {
            r = self.alias[r as usize];
        }
        r
    }

    fn enter(&self) -> usize {
        self.added.len()
    }

    fn leave(&mut self, mark: usize) {
        for key in self.added.drain(mark..) {
            self.avail.remove(&key);
        }
    }

    fn rewrite_srcs(&self, inst: &mut Inst) {
        if !self.aliased {
            return;
        }
        match inst {
            Inst::Un { a, .. } | Inst::Coerce { a, .. } => *a = self.resolve(*a),
            Inst::Bin { a, b, .. } => {
                *a = self.resolve(*a);
                *b = self.resolve(*b);
            }
            Inst::Assign { src, .. } => *src = self.resolve(*src),
            Inst::Load { base, idx, .. } | Inst::Addr { base, idx, .. } => {
                *base = self.resolve(*base);
                *idx = self.resolve(*idx);
            }
            Inst::Store { base, idx, val, .. } => {
                *base = self.resolve(*base);
                *idx = self.resolve(*idx);
                *val = self.resolve(*val);
            }
            Inst::LoadPtr { ptr, .. } => *ptr = self.resolve(*ptr),
            Inst::StorePtr { ptr, val, .. } => {
                *ptr = self.resolve(*ptr);
                *val = self.resolve(*val);
            }
            Inst::Math { args, .. } | Inst::Call { args, .. } => {
                for a in args {
                    *a = self.resolve(*a);
                }
            }
            Inst::Atomic { ptr, val, .. } => {
                *ptr = self.resolve(*ptr);
                *val = self.resolve(*val);
            }
            Inst::AtomicCas { ptr, cmp, val, .. } => {
                *ptr = self.resolve(*ptr);
                *cmp = self.resolve(*cmp);
                *val = self.resolve(*val);
            }
            Inst::OclId { dim, .. } => *dim = self.resolve(*dim),
            Inst::If { cond, .. } => *cond = self.resolve(*cond),
            Inst::Ternary { cond, .. } => *cond = self.resolve(*cond),
            Inst::Logic { a, .. } => *a = self.resolve(*a),
            Inst::Return { val: Some(v), .. } => *v = self.resolve(*v),
            _ => {}
        }
    }
}

/// Registers were redefined: entries computed from their old values
/// are stale in every scope, permanently.
fn kill(avail: &mut FxHashMap<Key, Reg>, dead: impl Fn(Reg) -> bool) {
    avail.retain(|k, _| !key_mentions(k, &dead));
}

/// Registers defined anywhere inside a set of blocks (transitively
/// through nested control flow).
fn block_defs(f: &IrFunc, roots: &[BlockId], out: &mut RegSet) {
    let mut stack: Vec<BlockId> = roots.to_vec();
    let mut children = Vec::new();
    while let Some(b) = stack.pop() {
        for inst in &f.blocks[b as usize].insts {
            if let Some(d) = inst.dst() {
                out.insert(d);
            }
            children.clear();
            inst.child_blocks(&mut children);
            stack.extend_from_slice(&children);
        }
    }
}

fn cse(f: &mut IrFunc, defs: &[u32]) {
    let mut state = Cse {
        avail: FxHashMap::default(),
        added: Vec::new(),
        alias: vec![UNALIASED; f.num_regs as usize],
        aliased: false,
        defs,
        loop_defs: RegSet::new(f.num_regs),
    };
    cse_block(f, 0, &mut state);
}

/// The child blocks of a control instruction, copied out so the
/// instruction's block can be edited while they are scanned.
enum Control {
    If(BlockId, Option<BlockId>),
    Ternary(BlockId, BlockId),
    Logic(BlockId),
    Loop(Option<BlockId>, BlockId, Option<BlockId>),
}

impl Control {
    fn of(inst: &Inst) -> Option<Control> {
        Some(match *inst {
            Inst::If { then_b, else_b, .. } => Control::If(then_b, else_b),
            Inst::Ternary { then_b, else_b, .. } => Control::Ternary(then_b, else_b),
            Inst::Logic { rhs_b, .. } => Control::Logic(rhs_b),
            Inst::Loop {
                cond_b,
                body_b,
                step_b,
                ..
            } => Control::Loop(cond_b, body_b, step_b),
            _ => return None,
        })
    }
}

/// Scan block `b` inside a scope of its own.
fn cse_scope(f: &mut IrFunc, b: BlockId, st: &mut Cse<'_>) {
    let mark = st.enter();
    cse_block(f, b, st);
    st.leave(mark);
}

fn cse_block(f: &mut IrFunc, b: BlockId, st: &mut Cse<'_>) {
    let mut i = 0;
    while i < f.blocks[b as usize].insts.len() {
        {
            let inst = &mut f.blocks[b as usize].insts[i];
            st.rewrite_srcs(inst);
        }
        // Control flow: child scopes, then resolve the cross-block
        // result registers (CSE inside an arm may have aliased them).
        match Control::of(&f.blocks[b as usize].insts[i]) {
            Some(Control::If(then_b, else_b)) => {
                cse_scope(f, then_b, st);
                if let Some(eb) = else_b {
                    cse_scope(f, eb, st);
                }
            }
            Some(Control::Ternary(then_b, else_b)) => {
                cse_scope(f, then_b, st);
                cse_scope(f, else_b, st);
                if let Inst::Ternary { then_r, else_r, .. } = &mut f.blocks[b as usize].insts[i] {
                    *then_r = st.resolve(*then_r);
                    *else_r = st.resolve(*else_r);
                }
            }
            Some(Control::Logic(rhs_b)) => {
                cse_scope(f, rhs_b, st);
                if let Inst::Logic { rhs_r, .. } = &mut f.blocks[b as usize].insts[i] {
                    *rhs_r = st.resolve(*rhs_r);
                }
            }
            Some(Control::Loop(cond_b, body_b, step_b)) => {
                // Registers redefined anywhere in the loop invalidate
                // outer entries *before* the body is scanned: an entry
                // reused inside the loop would read iteration-1 values
                // on iteration 2.
                let roots = [Some(body_b), cond_b, step_b];
                let roots: Vec<BlockId> = roots.into_iter().flatten().collect();
                st.loop_defs.clear();
                block_defs(f, &roots, &mut st.loop_defs);
                let loop_defs = &st.loop_defs;
                kill(&mut st.avail, |r| loop_defs.contains(r));
                let mark = st.enter();
                if let Some(cb) = cond_b {
                    cse_block(f, cb, st);
                }
                cse_block(f, body_b, st);
                if let Some(sb) = step_b {
                    cse_block(f, sb, st);
                }
                st.leave(mark);
                if let Inst::Loop { cond_r, .. } = &mut f.blocks[b as usize].insts[i] {
                    *cond_r = st.resolve(*cond_r);
                }
            }
            None => {
                let inst = &f.blocks[b as usize].insts[i];
                if let Some((key, dst)) = make_key(inst) {
                    if st.defs[dst as usize] == 1 {
                        if let Some(&prev) = st.avail.get(&key) {
                            st.alias[dst as usize] = prev;
                            st.aliased = true;
                            f.blocks[b as usize].insts.remove(i);
                            continue; // do not advance i
                        }
                        st.avail.insert(key.clone(), dst);
                        st.added.push(key);
                    }
                }
                if let Some(d) = inst.dst() {
                    if st.defs[d as usize] > 1 {
                        kill(&mut st.avail, |r| r == d);
                    }
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Loop-invariant code motion
// ---------------------------------------------------------------------

/// Hoist pure, total instructions whose operands are loop-invariant
/// from the top level of a loop's cond/body/step blocks into the
/// instruction stream just before the `Loop` — the preheader. This is
/// the pass that lifts the `blockIdx`/`blockDim` address math every
/// student kernel recomputes per iteration.
///
/// Because only [`pure_total`] instructions move, executing them when
/// the loop would have run zero iterations (or for lanes that never
/// enter) is unobservable beyond the cycle counters.
fn licm(f: &mut IrFunc, defs: &[u32]) {
    let kinds = infer_kinds(f);
    let consts = const_map(f, defs);
    let mut defset = RegSet::new(f.num_regs);
    licm_block(f, 0, &kinds, &consts, defs, &mut defset);
}

fn licm_block(
    f: &mut IrFunc,
    b: BlockId,
    kinds: &[Kind],
    consts: &Consts,
    defs: &[u32],
    defset: &mut RegSet,
) {
    let mut i = 0;
    let mut children = Vec::new();
    let mut srcs = Vec::new();
    while i < f.blocks[b as usize].insts.len() {
        children.clear();
        f.blocks[b as usize].insts[i].child_blocks(&mut children);
        // Inner loops first, so their hoisted code becomes a candidate
        // for this level.
        for &c in &children {
            licm_block(f, c, kinds, consts, defs, defset);
        }
        if let Inst::Loop {
            cond_b,
            body_b,
            step_b,
            ..
        } = f.blocks[b as usize].insts[i]
        {
            let roots = [Some(body_b), cond_b, step_b];
            let roots: Vec<BlockId> = roots.into_iter().flatten().collect();
            defset.clear();
            block_defs(f, &roots, defset);
            let mut hoisted: Vec<Inst> = Vec::new();
            loop {
                let mut changed = false;
                for &blk in &roots {
                    let mut j = 0;
                    while j < f.blocks[blk as usize].insts.len() {
                        let inst = &f.blocks[blk as usize].insts[j];
                        // Single-def only: hoisting the per-iteration
                        // re-init of a loop-local variable (a multi-def
                        // register) would change its value.
                        let movable = inst
                            .dst()
                            .is_some_and(|d| defset.contains(d) && defs[d as usize] == 1)
                            && pure_total(inst, kinds, consts)
                            && {
                                srcs.clear();
                                inst.srcs(&mut srcs);
                                srcs.iter().all(|&s| !defset.contains(s))
                            };
                        if movable {
                            let inst = f.blocks[blk as usize].insts.remove(j);
                            defset.remove(inst.dst().expect("movable defines"));
                            hoisted.push(inst);
                            changed = true;
                        } else {
                            j += 1;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            if !hoisted.is_empty() {
                let k = hoisted.len();
                f.blocks[b as usize].insts.splice(i..i, hoisted);
                i += k;
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------

/// Delete pure, total single-def instructions whose result is never
/// read — mostly the stranded defs left behind by folding and CSE.
/// Potentially-trapping dead code stays: `int t = a / b;` must still
/// fault on `b == 0` exactly as it does in the tree-walk.
///
/// Kinds and constants are inferred once: a deleted instruction is
/// read by nothing that stays, so the rest keep theirs.
fn dce(f: &mut IrFunc, defs: &[u32]) {
    let kinds = infer_kinds(f);
    let consts = const_map(f, defs);
    let mut used = vec![false; f.num_regs as usize];
    let mut srcs = Vec::new();
    loop {
        used.fill(false);
        for b in &f.blocks {
            for inst in &b.insts {
                srcs.clear();
                inst.srcs(&mut srcs);
                for s in &srcs {
                    used[*s as usize] = true;
                }
            }
        }
        let mut changed = false;
        for b in &mut f.blocks {
            b.insts.retain(|inst| {
                let dead = inst
                    .dst()
                    .is_some_and(|d| !used[d as usize] && defs[d as usize] == 1)
                    && pure_total(inst, &kinds, &consts);
                if dead {
                    changed = true;
                }
                !dead
            });
        }
        if !changed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Pos;
    use crate::ir::IrBlock;
    use crate::value::tests::edge_values;

    /// The kinds a rule is asked about; `Unknown` stands for any value.
    const KINDS: [Kind; 5] = [Kind::Int, Kind::Float, Kind::Bool, Kind::Ptr, Kind::Unknown];

    /// The lattice values a register of kind `k` may hold.
    fn of_kind(values: &[Value], k: Kind) -> impl Iterator<Item = Value> + '_ {
        values
            .iter()
            .copied()
            .filter(move |v| k == Kind::Unknown || Kind::of_value(v) == k)
    }

    /// A rule's claims about one evaluation: a total instruction never
    /// fails, and a known result kind is the kind it yields.
    fn holds(what: &str, total: bool, kind: Kind, got: &Result<Value, String>) {
        match got {
            Err(m) => assert!(!total, "{what}: called total, but fails with {m:?}"),
            Ok(v) => assert!(
                kind == Kind::Unknown || Kind::of_value(v) == kind,
                "{what}: {v:?} is not of the rule's kind {kind:?}"
            ),
        }
    }

    #[test]
    fn the_kind_and_totality_rules_hold_on_the_edge_value_lattice() {
        use BinOp::*;
        let values = edge_values();
        for ka in KINDS {
            for op in [UnOp::Neg, UnOp::Not, UnOp::BitNot] {
                for a in of_kind(&values, ka) {
                    let what = format!("{op:?} {a:?} as {ka:?}");
                    holds(&what, un_safe(op, ka), un_kind(op, ka), &apply_unop(op, a));
                }
            }
            for ty in [
                Type::INT,
                Type::FLOAT,
                Type::BOOL,
                Type::VOID,
                Type::INT.ptr_to(),
            ] {
                for a in of_kind(&values, ka) {
                    let what = format!("({ty}) {a:?} as {ka:?}");
                    holds(
                        &what,
                        coerce_safe(&ty, ka),
                        Kind::of_type(&ty),
                        &a.coerce_to(&ty),
                    );
                }
            }
            for kb in KINDS {
                let ops = [
                    Add, Sub, Mul, Div, Rem, Shl, Shr, BitAnd, BitOr, BitXor, Eq, Ne, Lt, Le, Gt,
                    Ge, And, Or,
                ];
                for op in ops {
                    for (a, b) in
                        of_kind(&values, ka).flat_map(|a| of_kind(&values, kb).map(move |b| (a, b)))
                    {
                        let nonzero = matches!(b, Value::I(v) if v != 0);
                        let what = format!("{a:?} {op:?} {b:?} as {ka:?}, {kb:?}");
                        let total = bin_safe(op, ka, kb, nonzero);
                        holds(&what, total, bin_kind(op, ka, kb), &apply_binop(op, a, b));
                    }
                }
                let math = Intrinsic::all().filter_map(|w| w.as_math().map(|op| (w, op)));
                for (which, op) in math {
                    for (a, b) in
                        of_kind(&values, ka).flat_map(|a| of_kind(&values, kb).map(move |b| (a, b)))
                    {
                        for (args, regs) in [(&[a][..], &[0][..]), (&[a, b][..], &[0, 1][..])] {
                            let what = format!("{}{args:?} as {ka:?}, {kb:?}", which.name());
                            let total = math_safe(which, regs, &[ka, kb]);
                            let kind = math_kind(which, [ka, kb].into_iter().take(args.len()));
                            holds(&what, total, kind, &op.apply(which.name(), args));
                        }
                    }
                }
            }
        }
    }

    fn func_of(insts: Vec<Inst>, num_regs: u32) -> IrFunc {
        IrFunc {
            name: "t".into(),
            params: vec![],
            blocks: vec![IrBlock { insts }],
            num_regs,
            shared: vec![],
            kernel: true,
            pos: Pos::unknown(),
        }
    }

    #[test]
    fn folds_constant_chains_and_sweeps_them() {
        let p = Pos::unknown();
        let mut f = func_of(
            vec![
                Inst::Const {
                    dst: 0,
                    v: Value::I(6),
                },
                Inst::Const {
                    dst: 1,
                    v: Value::I(7),
                },
                Inst::Bin {
                    dst: 2,
                    op: BinOp::Mul,
                    a: 0,
                    b: 1,
                    pos: p,
                },
                Inst::Return {
                    val: Some(2),
                    pos: p,
                },
            ],
            3,
        );
        optimize(&mut f);
        // 6*7 folds to 42; the operand consts die.
        assert_eq!(
            f.blocks[0].insts,
            vec![
                Inst::Const {
                    dst: 2,
                    v: Value::I(42)
                },
                Inst::Return {
                    val: Some(2),
                    pos: p
                },
            ]
        );
    }

    #[test]
    fn never_folds_or_deletes_a_trapping_div() {
        let p = Pos::unknown();
        let mut f = func_of(
            vec![
                Inst::Const {
                    dst: 0,
                    v: Value::I(1),
                },
                Inst::Const {
                    dst: 1,
                    v: Value::I(0),
                },
                // Dead AND constant-evaluable to an error: must survive
                // both folding and DCE so it traps at runtime.
                Inst::Bin {
                    dst: 2,
                    op: BinOp::Div,
                    a: 0,
                    b: 1,
                    pos: p,
                },
                Inst::Return { val: None, pos: p },
            ],
            3,
        );
        optimize(&mut f);
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. })));
    }

    #[test]
    fn cse_merges_duplicate_subexpressions() {
        let p = Pos::unknown();
        let mut f = func_of(
            vec![
                Inst::Builtin {
                    dst: 0,
                    which: crate::ast::BuiltinVar::ThreadIdx,
                    axis: 0,
                    pos: p,
                },
                Inst::Builtin {
                    dst: 1,
                    which: crate::ast::BuiltinVar::ThreadIdx,
                    axis: 0,
                    pos: p,
                },
                Inst::Bin {
                    dst: 2,
                    op: BinOp::Add,
                    a: 0,
                    b: 1,
                    pos: p,
                },
                Inst::Return {
                    val: Some(2),
                    pos: p,
                },
            ],
            3,
        );
        optimize(&mut f);
        // The duplicate threadIdx.x collapses; the add reads reg 0 twice.
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Bin { a: 0, b: 0, .. })));
        assert_eq!(
            f.blocks[0]
                .insts
                .iter()
                .filter(|i| matches!(i, Inst::Builtin { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn licm_hoists_invariant_math_out_of_a_loop() {
        let p = Pos::unknown();
        // r0 = 10 (invariant operand), loop body: r2 = r0 * r0 (invariant),
        // cond block: r1 = const true.
        let mut f = IrFunc {
            name: "t".into(),
            params: vec![],
            blocks: vec![
                IrBlock {
                    insts: vec![
                        Inst::Const {
                            dst: 0,
                            v: Value::I(10),
                        },
                        Inst::Loop {
                            cond_b: Some(1),
                            cond_r: 1,
                            body_b: 2,
                            step_b: None,
                            pos: p,
                        },
                    ],
                },
                IrBlock {
                    insts: vec![Inst::Const {
                        dst: 1,
                        v: Value::B(false),
                    }],
                },
                IrBlock {
                    insts: vec![
                        Inst::Bin {
                            dst: 2,
                            op: BinOp::Mul,
                            a: 0,
                            b: 0,
                            pos: p,
                        },
                        Inst::Store {
                            base: 3,
                            idx: 2,
                            val: 2,
                            pos: p,
                        },
                    ],
                },
            ],
            num_regs: 4,
            shared: vec![],
            kernel: true,
            pos: p,
        };
        // Skip fold (it would constant-fold the multiply); exercise
        // LICM directly.
        let defs = def_counts(&f);
        licm(&mut f, &defs);
        assert!(
            f.blocks[0]
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. })),
            "multiply should move to the preheader"
        );
        assert!(
            !f.blocks[2]
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Bin { .. })),
            "multiply should leave the body"
        );
    }
}
