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
use crate::ir::{BlockId, Inst, IrFunc, IrProgram, Reg};
use crate::value::{apply_binop, apply_math, apply_unop, Value};
use std::collections::{HashMap, HashSet};

/// Optimize every function of a lowered program in place.
pub fn optimize_program(p: &mut IrProgram) {
    for f in p.funcs.values_mut() {
        optimize(f);
    }
}

/// Run all passes over one function.
pub fn optimize(f: &mut IrFunc) {
    fold(f);
    cse(f);
    licm(f);
    dce(f);
}

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
        match ty {
            Type::Int => Kind::Int,
            Type::Float => Kind::Float,
            Type::Bool => Kind::Bool,
            Type::Ptr(_) => Kind::Ptr,
            Type::Void => Kind::Unknown,
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
                        let ka = kinds[*a as usize];
                        let k = match op {
                            UnOp::Not => Kind::Bool,
                            UnOp::BitNot => Kind::Int,
                            UnOp::Neg => match ka {
                                Kind::Int | Kind::Bool => Kind::Int,
                                Kind::Float => Kind::Float,
                                _ => Kind::Unknown,
                            },
                        };
                        set(&mut kinds, *dst, k)
                    }
                    Inst::Bin { dst, op, a, b, .. } => {
                        let k = bin_kind(*op, kinds[*a as usize], kinds[*b as usize]);
                        set(&mut kinds, *dst, k)
                    }
                    Inst::Math {
                        dst, name, args, ..
                    } => {
                        let ks: Vec<Kind> = args.iter().map(|r| kinds[*r as usize]).collect();
                        set(&mut kinds, *dst, math_kind(name, &ks))
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

fn math_kind(name: &str, args: &[Kind]) -> Kind {
    match name {
        // Dual-typed intrinsics follow their promoted argument kind.
        "abs" => args.first().copied().unwrap_or(Kind::Unknown),
        "min" | "max" | "fmin" | "fmax" => {
            if args.contains(&Kind::Unknown) {
                Kind::Unknown
            } else if args.contains(&Kind::Float) {
                Kind::Float
            } else {
                Kind::Int
            }
        }
        _ => Kind::Float,
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
        Add => (ka.numeric() && kb.numeric()) || (ka == Kind::Ptr) != (kb == Kind::Ptr),
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
    match ty {
        Type::Int | Type::Float | Type::Bool => k.numeric(),
        Type::Ptr(_) => k == Kind::Ptr,
        Type::Void => false,
    }
}

/// A math intrinsic with numeric operands of this arity is total: the
/// implementations are closed over IEEE floats. Probing with zeros
/// also validates the call's arity (sema does not).
fn math_safe(name: &str, args: &[Kind]) -> bool {
    if !args.iter().all(|k| k.numeric()) {
        return false;
    }
    let zeros = vec![Value::F(0.0); args.len()];
    matches!(apply_math(name, &zeros), Some(Ok(_)))
}

/// An instruction safe to execute speculatively (hoist) or discard
/// (delete): pure, total, and free of memory or control effects.
fn pure_total(inst: &Inst, kinds: &[Kind], consts: &HashMap<Reg, Value>) -> bool {
    match inst {
        Inst::Const { .. } | Inst::Builtin { .. } => true,
        Inst::Un { op, a, .. } => un_safe(*op, kinds[*a as usize]),
        Inst::Bin { op, a, b, .. } => {
            let nonzero = matches!(
                consts.get(b),
                Some(Value::I(v)) if *v != 0
            );
            bin_safe(*op, kinds[*a as usize], kinds[*b as usize], nonzero)
        }
        Inst::Coerce { a, ty, .. } => coerce_safe(ty, kinds[*a as usize]),
        Inst::Math { name, args, .. } => {
            let ks: Vec<Kind> = args.iter().map(|r| kinds[*r as usize]).collect();
            math_safe(name, &ks)
        }
        _ => false,
    }
}

/// Single-definition registers currently holding a known constant.
fn const_map(f: &IrFunc) -> HashMap<Reg, Value> {
    let defs = def_counts(f);
    let mut m = HashMap::new();
    for b in &f.blocks {
        for inst in &b.insts {
            if let Inst::Const { dst, v } = inst {
                if defs[*dst as usize] == 1 {
                    m.insert(*dst, *v);
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
fn fold(f: &mut IrFunc) {
    let defs = def_counts(f);
    let mut consts: HashMap<Reg, Value> = HashMap::new();
    loop {
        let mut changed = false;
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                let folded = match inst {
                    Inst::Const { dst, v } if defs[*dst as usize] == 1 => {
                        if !consts.contains_key(dst) {
                            consts.insert(*dst, *v);
                            changed = true;
                        }
                        None
                    }
                    Inst::Un { dst, op, a, .. } if defs[*dst as usize] == 1 => consts
                        .get(a)
                        .and_then(|av| apply_unop(*op, *av).ok())
                        .map(|v| (*dst, v)),
                    Inst::Bin { dst, op, a, b, .. } if defs[*dst as usize] == 1 => {
                        match (consts.get(a), consts.get(b)) {
                            (Some(av), Some(bv)) => {
                                apply_binop(*op, *av, *bv).ok().map(|v| (*dst, v))
                            }
                            _ => None,
                        }
                    }
                    Inst::Coerce { dst, a, ty, .. } if defs[*dst as usize] == 1 => consts
                        .get(a)
                        .and_then(|av| av.coerce_to(ty).ok())
                        .map(|v| (*dst, v)),
                    Inst::Math {
                        dst, name, args, ..
                    } if defs[*dst as usize] == 1 => {
                        let vals: Option<Vec<Value>> =
                            args.iter().map(|r| consts.get(r).copied()).collect();
                        vals.and_then(|vs| apply_math(name, &vs).and_then(|r| r.ok()))
                            .map(|v| (*dst, v))
                    }
                    _ => None,
                };
                if let Some((dst, v)) = folded {
                    *inst = Inst::Const { dst, v };
                    consts.insert(dst, v);
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
/// so their `u8` casts serve as hash keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Un(u8, Reg),
    Bin(u8, Reg, Reg),
    Coerce(Reg, String),
    Builtin(u8, u8),
    Math(String, Vec<Reg>),
}

fn make_key(inst: &Inst) -> Option<(Key, Reg)> {
    match inst {
        Inst::Un { dst, op, a, .. } => Some((Key::Un(*op as u8, *a), *dst)),
        Inst::Bin { dst, op, a, b, .. } => Some((Key::Bin(*op as u8, *a, *b), *dst)),
        Inst::Coerce { dst, a, ty, .. } => Some((Key::Coerce(*a, format!("{ty:?}")), *dst)),
        Inst::Builtin {
            dst, which, axis, ..
        } => Some((Key::Builtin(*which as u8, *axis), *dst)),
        Inst::Math {
            dst, name, args, ..
        } => Some((Key::Math(name.clone(), args.clone()), *dst)),
        _ => None,
    }
}

fn key_mentions(key: &Key, dead: &HashSet<Reg>) -> bool {
    match key {
        Key::Un(_, a) | Key::Coerce(a, _) => dead.contains(a),
        Key::Bin(_, a, b) => dead.contains(a) || dead.contains(b),
        Key::Builtin(..) => false,
        Key::Math(_, args) => args.iter().any(|r| dead.contains(r)),
    }
}

struct Cse {
    /// Available-expression tables, one per lexical mask scope.
    /// Entries flow only *into* child scopes, where the active mask is
    /// a subset of the defining scope's — that subset relation is what
    /// makes reusing a lane-vector computed under the outer mask
    /// sound.
    scopes: Vec<HashMap<Key, Reg>>,
    /// Removed-duplicate redirections. Global and never popped: a
    /// duplicate's register is dead everywhere once its def is gone.
    alias: HashMap<Reg, Reg>,
    defs: Vec<u32>,
}

impl Cse {
    fn resolve(&self, r: Reg) -> Reg {
        let mut r = r;
        while let Some(&n) = self.alias.get(&r) {
            r = n;
        }
        r
    }

    fn rewrite_srcs(&self, inst: &mut Inst) {
        if self.alias.is_empty() {
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

    /// A register was redefined: entries computed from its old value
    /// are stale in every scope, permanently.
    fn kill(&mut self, regs: &HashSet<Reg>) {
        if regs.is_empty() {
            return;
        }
        for scope in &mut self.scopes {
            scope.retain(|k, _| !key_mentions(k, regs));
        }
    }

    fn lookup(&self, key: &Key) -> Option<Reg> {
        self.scopes.iter().rev().find_map(|s| s.get(key).copied())
    }
}

/// Registers defined anywhere inside a set of blocks (transitively
/// through nested control flow).
fn block_defs(f: &IrFunc, roots: &[BlockId], out: &mut HashSet<Reg>) {
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

fn cse(f: &mut IrFunc) {
    let mut state = Cse {
        scopes: vec![HashMap::new()],
        alias: HashMap::new(),
        defs: def_counts(f),
    };
    cse_block(f, 0, &mut state);
}

fn cse_block(f: &mut IrFunc, b: BlockId, st: &mut Cse) {
    let mut i = 0;
    while i < f.blocks[b as usize].insts.len() {
        {
            let inst = &mut f.blocks[b as usize].insts[i];
            st.rewrite_srcs(inst);
        }
        // Control flow: child scopes, then resolve the cross-block
        // result registers (CSE inside an arm may have aliased them).
        let control = f.blocks[b as usize].insts[i].clone();
        match control {
            Inst::If { then_b, else_b, .. } => {
                st.scopes.push(HashMap::new());
                cse_block(f, then_b, st);
                st.scopes.pop();
                if let Some(eb) = else_b {
                    st.scopes.push(HashMap::new());
                    cse_block(f, eb, st);
                    st.scopes.pop();
                }
            }
            Inst::Ternary { then_b, else_b, .. } => {
                st.scopes.push(HashMap::new());
                cse_block(f, then_b, st);
                st.scopes.pop();
                st.scopes.push(HashMap::new());
                cse_block(f, else_b, st);
                st.scopes.pop();
                if let Inst::Ternary { then_r, else_r, .. } = &mut f.blocks[b as usize].insts[i] {
                    *then_r = st.resolve(*then_r);
                    *else_r = st.resolve(*else_r);
                }
            }
            Inst::Logic { rhs_b, .. } => {
                st.scopes.push(HashMap::new());
                cse_block(f, rhs_b, st);
                st.scopes.pop();
                if let Inst::Logic { rhs_r, .. } = &mut f.blocks[b as usize].insts[i] {
                    *rhs_r = st.resolve(*rhs_r);
                }
            }
            Inst::Loop {
                cond_b,
                body_b,
                step_b,
                ..
            } => {
                // Registers redefined anywhere in the loop invalidate
                // outer entries *before* the body is scanned: an entry
                // reused inside the loop would read iteration-1 values
                // on iteration 2.
                let mut roots = vec![body_b];
                roots.extend(cond_b);
                roots.extend(step_b);
                let mut defset = HashSet::new();
                block_defs(f, &roots, &mut defset);
                st.kill(&defset);
                st.scopes.push(HashMap::new());
                if let Some(cb) = cond_b {
                    cse_block(f, cb, st);
                }
                cse_block(f, body_b, st);
                if let Some(sb) = step_b {
                    cse_block(f, sb, st);
                }
                st.scopes.pop();
                if let Inst::Loop { cond_r, .. } = &mut f.blocks[b as usize].insts[i] {
                    *cond_r = st.resolve(*cond_r);
                }
            }
            _ => {
                let inst = &f.blocks[b as usize].insts[i];
                if let Some((key, dst)) = make_key(inst) {
                    if st.defs[dst as usize] == 1 {
                        if let Some(prev) = st.lookup(&key) {
                            st.alias.insert(dst, prev);
                            f.blocks[b as usize].insts.remove(i);
                            continue; // do not advance i
                        }
                        st.scopes.last_mut().unwrap().insert(key, dst);
                    }
                }
                if let Some(d) = inst.dst() {
                    if st.defs[d as usize] > 1 {
                        let mut dead = HashSet::new();
                        dead.insert(d);
                        st.kill(&dead);
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
fn licm(f: &mut IrFunc) {
    let kinds = infer_kinds(f);
    let consts = const_map(f);
    let defs = def_counts(f);
    licm_block(f, 0, &kinds, &consts, &defs);
}

fn licm_block(
    f: &mut IrFunc,
    b: BlockId,
    kinds: &[Kind],
    consts: &HashMap<Reg, Value>,
    defs: &[u32],
) {
    let mut i = 0;
    while i < f.blocks[b as usize].insts.len() {
        let mut children = Vec::new();
        f.blocks[b as usize].insts[i].child_blocks(&mut children);
        // Inner loops first, so their hoisted code becomes a candidate
        // for this level.
        for c in children {
            licm_block(f, c, kinds, consts, defs);
        }
        if let Inst::Loop {
            cond_b,
            body_b,
            step_b,
            ..
        } = f.blocks[b as usize].insts[i]
        {
            let mut roots = vec![body_b];
            roots.extend(cond_b);
            roots.extend(step_b);
            let mut defset = HashSet::new();
            block_defs(f, &roots, &mut defset);
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
                            .is_some_and(|d| defset.contains(&d) && defs[d as usize] == 1)
                            && pure_total(inst, kinds, consts)
                            && {
                                let mut srcs = Vec::new();
                                inst.srcs(&mut srcs);
                                srcs.iter().all(|s| !defset.contains(s))
                            };
                        if movable {
                            let inst = f.blocks[blk as usize].insts.remove(j);
                            defset.remove(&inst.dst().unwrap());
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
fn dce(f: &mut IrFunc) {
    loop {
        let kinds = infer_kinds(f);
        let consts = const_map(f);
        let defs = def_counts(f);
        let mut used = vec![false; f.num_regs as usize];
        let mut srcs = Vec::new();
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
        licm(&mut f);
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
