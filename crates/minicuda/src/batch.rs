//! Warp-batched IR execution.
//!
//! The one kernel executor: every launch runs here, at every opt level.
//! It runs one block of a kernel launch by dispatching each IR
//! instruction across every lane of the block at once, the way the
//! test-only tree-walk oracle (`simt`) does for AST nodes — but over a
//! flat register file of *typed lane vectors* instead of name tables.
//!
//! # Lane representations
//!
//! A register ([`LaneVec`]) is one of
//!
//! * `U(Value)` — **uniform**: the value is provably the same in every
//!   lane (`blockIdx`, kernel parameters, folded constants, uniform
//!   arithmetic) and is computed once per block instead of once per
//!   lane. A write to a *fresh* destination may stay uniform even
//!   under a partial mask, because every later read of it is masked by
//!   a subset of the writing mask; only `Assign` to an existing
//!   variable under a partial mask must demote to per-lane storage.
//! * `I(Vec<i64>)`, `F(Vec<f32>)`, `B(Vec<bool>)` — **typed lanes**:
//!   every lane holds that kind, stored without a tag (8/4/1 bytes a
//!   lane instead of a 24-byte `Value`).
//! * `Ptr(head, Vec<i64>)` — **pointer lanes** into one allocation at
//!   one indexing level: a shared header plus per-lane offsets.
//! * `P(Vec<Value>)` — **generic lanes**: anything else (kinds that
//!   differ per lane, pointers into different allocations).
//!
//! Each instruction matches on its operands' representations *once*
//! and then runs a monomorphic loop over plain slices. Loops whose
//! operation cannot fail ignore the mask — by the fresh-destination
//! rule above inactive lanes of the result are dead, so computing them
//! is harmless and lets the compiler vectorize. Fallible lane work
//! (`/`, `%`, memory, atomics) stays masked.
//!
//! # The generic fallback
//!
//! A typed arm maps an operator's one definition in `value` over the
//! lanes. Where none applies — a kind mix such as `bool + int`, pointer
//! comparison, pointers into different allocations, an active lane
//! that fails (a zero divisor) — the instruction drops to
//! [`BatchExec::per_lane`]: `apply_binop`/`apply_unop`/`coerce_to` per
//! active lane in lane order over `LaneVec::at`, with the scalar
//! diagnostics (message, position, first-failing lane). Its result is
//! re-packed into typed lanes when every active lane agrees, so one odd
//! instruction does not push the rest of the kernel off the fast path.
//!
//! # Memory accounting without sorting
//!
//! Memory instructions resolve the allocation once (global pool,
//! shared array with strides precomputed at `declare`, constant bank),
//! bounds-check each active lane against the slice, and charge per
//! warp from the `i64` offsets:
//!
//! * *Global coalescing* counts distinct `(alloc, offset /
//!   transaction_words)` keys. A key beyond the running min/max is new
//!   by construction (covers ascending and descending access); only a
//!   key inside the range is looked up in the list of keys seen.
//! * *Bank conflicts*: the degree is the largest number of distinct
//!   offsets that fall in one bank. If all of a warp's offsets lie in
//!   a window narrower than the bank count (broadcast, unit stride,
//!   reversed, a padded tile row) distinct offsets have distinct
//!   residues, so the degree is 1 and one min/max scan proves it.
//!   Otherwise offsets are entered into a per-warp table of
//!   `shared_banks × warp_size` slots, one row per bank, skipping
//!   offsets already in their row; the longest row is the degree. The
//!   previous implementation sorted and deduplicated `(bank, offset)`
//!   pairs and took the longest same-bank run — the same quantity,
//!   kept as the `#[cfg(test)]` oracle the unit tests compare against.
//!
//! # The arena
//!
//! Every buffer an instruction or control-flow entry needs — result
//! lanes, saved masks, loop frames, callee frames, per-warp counters —
//! comes from [`Arena`] free lists and returns there when the register
//! is overwritten or the construct exits, so steady-state execution
//! allocates nothing. A [`BatchExec`] (arena, `tid` tables, frame
//! shells) lives for one launch and is reused by every block it runs,
//! in launch order; it is dropped with the launch.
//!
//! # Where a global store lands
//!
//! On the rank thread the executor owns the device pool and a store
//! writes it in place. In a participant of a fanned-out launch (see
//! `device`) it only reads the pool: a global store appends to the
//! participant's [`StoreLog`], which the rank thread applies if the
//! launch commits. Either way the executor records which global
//! allocations its blocks loaded and stored ([`Footprint`]); a
//! participant stops at the first allocation in both, where its loads
//! would miss its own stores.
//!
//! Semantics are bit-identical to the `simt.rs` oracle (checked by the
//! unit tests in `differential.rs`) for everything a grader can
//! observe: dataset bytes, runtime diagnostics (message, position,
//! block/lane attribution, first-failing-lane order), and the memory
//! cost counters (transactions, bank conflicts, barriers, atomics,
//! divergent branches). `warp_instructions`/`device_cycles` are
//! charged per *executed IR instruction* — the post-optimization cost
//! the scheduler and brown-out admission should see — so they legally
//! differ from the tree-walk's per-AST-node charges and between opt
//! levels, which also means budget-limit diagnostics can trigger at
//! slightly different points right at the budget edge.

// Same rationale as simt.rs: lockstep interpretation indexes parallel
// per-lane vectors by lane number.
#![allow(clippy::needless_range_loop)]

use crate::ast::{BinOp, BuiltinVar, Type, UnOp};
use crate::cost::{self, CostSummary};
use crate::device::KernelEnv;
use crate::diag::{Diag, Phase, Pos};
use crate::intrinsic::Intrinsic;
use crate::ir::{BlockId, Inst, IrFunc, IrProgram, OclFn, Reg};
use crate::memory::{self, atomic_words, bounds, kernel_words, MemError, MemPool, SharedMem};
use crate::value::{
    apply_binop, apply_unop, convert, offset_step, store_bits, unary, Binary, ElemType, MathOp,
    Num, Prim, Ptr, Space, Unary, Value,
};
use std::collections::HashMap;

const ROW_ASSIGN: &str = "assignment to a whole array row (missing an index?)";

// ---- lane storage ------------------------------------------------------

/// Per-register lane storage; see the module comment.
#[derive(Debug)]
enum LaneVec {
    U(Value),
    I(Vec<i64>),
    F(Vec<f32>),
    B(Vec<bool>),
    Ptr(Ptr, Vec<i64>),
    P(Vec<Value>),
}

/// The header of a pointer-lane vector: `p` with its offset cleared.
fn head_of(p: Ptr) -> Ptr {
    Ptr { offset: 0, ..p }
}

impl LaneVec {
    const ZERO: LaneVec = LaneVec::U(Value::I(0));

    #[inline]
    fn at(&self, i: usize) -> Value {
        match self {
            LaneVec::U(v) => *v,
            LaneVec::I(v) => Value::I(v[i]),
            LaneVec::F(v) => Value::F(v[i]),
            LaneVec::B(v) => Value::B(v[i]),
            LaneVec::Ptr(h, o) => Value::P(Ptr { offset: o[i], ..*h }),
            LaneVec::P(v) => v[i],
        }
    }

    fn is_uniform(&self) -> bool {
        matches!(self, LaneVec::U(_))
    }

    fn is_float(&self) -> bool {
        matches!(self, LaneVec::U(Value::F(_)) | LaneVec::F(_))
    }

    /// Pointer lanes sharing one header: `(head, offsets)`.
    fn ptrs(&self) -> Option<(Ptr, Src<'_, i64>)> {
        match self {
            LaneVec::U(Value::P(p)) => Some((head_of(*p), Src::Splat(p.offset))),
            LaneVec::Ptr(h, o) => Some((*h, Src::Lanes(o))),
            _ => None,
        }
    }
}

/// A borrowed operand of one lane kind: a scalar or a slice.
#[derive(Clone, Copy)]
enum Src<'a, T> {
    Splat(T),
    Lanes(&'a [T]),
}

impl<T: Copy> Src<'_, T> {
    #[inline]
    fn get(&self, i: usize) -> T {
        match self {
            Src::Splat(x) => *x,
            Src::Lanes(v) => v[i],
        }
    }
}

/// A lane element kind: untagged storage of a [`Prim`], whose
/// conversions and operators the lane loops call.
trait Lane: Prim + 'static {
    /// `lv` as lanes of exactly this kind (uniform or per-lane).
    fn src(lv: &LaneVec) -> Option<Src<'_, Self>>;
    fn wrap(v: Vec<Self>) -> LaneVec;
    fn pool(a: &mut Arena) -> &mut Pool<Self>;
}

/// A [`Lane`] impl: the kind's [`LaneVec`] variant and [`Arena`] pool.
macro_rules! lane {
    ($t:ty, $variant:ident, $pool:ident) => {
        impl Lane for $t {
            fn src(lv: &LaneVec) -> Option<Src<'_, $t>> {
                match lv {
                    LaneVec::U(Value::$variant(x)) => Some(Src::Splat(*x)),
                    LaneVec::$variant(v) => Some(Src::Lanes(v)),
                    _ => None,
                }
            }
            fn wrap(v: Vec<$t>) -> LaneVec {
                LaneVec::$variant(v)
            }
            fn pool(a: &mut Arena) -> &mut Pool<$t> {
                &mut a.$pool
            }
        }
    };
}
lane!(i64, I, i);
lane!(f32, F, f);
lane!(bool, B, b);

/// One operand's lanes: [`Unary`]'s consumer that maps an operator's
/// function over them.
struct Map1<'r, T> {
    ar: &'r mut Arena,
    v: &'r [T],
}

impl<T: Copy> Unary<T> for Map1<'_, T> {
    type Out = LaneVec;
    fn to_int(self, f: impl Fn(T) -> i64 + Copy) -> LaneVec {
        self.ar.map(self.v, f)
    }
    fn to_float(self, f: impl Fn(T) -> f32 + Copy) -> LaneVec {
        self.ar.map(self.v, f)
    }
    fn to_bool(self, f: impl Fn(T) -> bool + Copy) -> LaneVec {
        self.ar.map(self.v, f)
    }
}

/// Two operands' lanes under a mask (`None` = all lanes): [`Binary`]'s
/// consumer. `None` sends the instruction to the per-lane fallback,
/// which reports the failing lane.
struct Map2<'r, T> {
    ar: &'r mut Arena,
    x: Src<'r, T>,
    y: Src<'r, T>,
    mask: Option<&'r [bool]>,
}

impl<T: Lane> Binary<T> for Map2<'_, T> {
    type Out = Option<LaneVec>;
    fn same(self, f: impl Fn(T, T) -> T + Copy) -> Option<LaneVec> {
        Some(self.ar.zip(self.x, self.y, f))
    }
    fn test(self, f: impl Fn(T, T) -> bool + Copy) -> Option<LaneVec> {
        Some(self.ar.zip(self.x, self.y, f))
    }
    fn partial(self, f: impl Fn(T, T) -> Result<T, &'static str> + Copy) -> Option<LaneVec> {
        let mut out = T::pool(self.ar).take();
        for i in (0..out.len()).filter(|&i| self.mask.is_none_or(|m| m[i])) {
            // An active lane that fails leaves the typed arm (inactive
            // ones may: a zero divisor). Its buffer is dropped: the
            // fallback reports the failure, which ends the launch.
            out[i] = f(self.x.get(i), self.y.get(i)).ok()?;
        }
        Some(T::wrap(out))
    }
}

#[inline]
fn map1<A: Copy, R>(a: &[A], out: &mut [R], f: impl Fn(A) -> R) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

#[inline]
fn map2<A: Copy, B: Copy, R>(a: Src<'_, A>, b: Src<'_, B>, out: &mut [R], f: impl Fn(A, B) -> R) {
    match (a, b) {
        (Src::Lanes(a), Src::Lanes(b)) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
        (Src::Lanes(a), Src::Splat(y)) => map1(a, out, |x| f(x, y)),
        (Src::Splat(x), Src::Lanes(b)) => map1(b, out, |y| f(x, y)),
        (Src::Splat(x), Src::Splat(y)) => {
            for o in out.iter_mut() {
                *o = f(x, y);
            }
        }
    }
}

/// Masked in-place write of `src` into `dst`, converting to `dst`'s
/// kind; `mask` is `None` under a full mask.
fn blend<T: Lane, S: Lane>(dst: &mut [T], src: Src<'_, S>, mask: Option<&[bool]>) {
    match (mask, src) {
        (None, Src::Lanes(s)) => map1(s, dst, T::cast),
        (None, Src::Splat(x)) => dst.fill(T::cast(x)),
        (Some(m), _) => {
            for i in 0..dst.len() {
                if m[i] {
                    dst[i] = T::cast(src.get(i));
                }
            }
        }
    }
}

/// [`blend`] from whichever numeric kind `src` holds; `false` when
/// `src` is not numeric lanes.
fn blend_from<T: Lane>(dst: &mut [T], src: &LaneVec, mask: Option<&[bool]>) -> bool {
    if let Some(s) = i64::src(src) {
        blend(dst, s, mask);
    } else if let Some(s) = f32::src(src) {
        blend(dst, s, mask);
    } else if let Some(s) = bool::src(src) {
        blend(dst, s, mask);
    } else {
        return false;
    }
    true
}

// ---- arena -------------------------------------------------------------

/// A free list of equal-length buffers.
struct Pool<T> {
    free: Vec<Vec<T>>,
    len: usize,
    zero: T,
}

impl<T: Copy> Pool<T> {
    fn new(len: usize, zero: T) -> Self {
        Pool {
            free: Vec::new(),
            len,
            zero,
        }
    }

    /// A buffer of the pool's length with unspecified contents.
    fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_else(|| vec![self.zero; self.len])
    }

    fn filled(&mut self, x: T) -> Vec<T> {
        let mut v = self.take();
        v.fill(x);
        v
    }

    fn copy_of(&mut self, s: &[T]) -> Vec<T> {
        let mut v = self.take();
        v.copy_from_slice(s);
        v
    }

    fn give(&mut self, v: Vec<T>) {
        debug_assert_eq!(v.len(), self.len);
        self.free.push(v);
    }
}

/// Launch-scoped buffer free lists plus the lane kernels that cannot
/// fail (and so need nothing but buffers).
struct Arena {
    n: usize,
    i: Pool<i64>,
    f: Pool<f32>,
    b: Pool<bool>,
    v: Pool<Value>,
    /// Per-warp counter snapshots.
    w: Pool<u32>,
    frames: Vec<Frame>,
}

impl Arena {
    fn new(n: usize, warps: usize) -> Self {
        Arena {
            n,
            i: Pool::new(n, 0),
            f: Pool::new(n, 0.0),
            b: Pool::new(n, false),
            v: Pool::new(n, Value::I(0)),
            w: Pool::new(warps, 0),
            frames: Vec::new(),
        }
    }

    fn recycle(&mut self, lv: LaneVec) {
        match lv {
            LaneVec::U(_) => {}
            LaneVec::I(v) | LaneVec::Ptr(_, v) => self.i.give(v),
            LaneVec::F(v) => self.f.give(v),
            LaneVec::B(v) => self.b.give(v),
            LaneVec::P(v) => self.v.give(v),
        }
    }

    fn dup(&mut self, lv: &LaneVec) -> LaneVec {
        match lv {
            LaneVec::U(v) => LaneVec::U(*v),
            LaneVec::I(v) => LaneVec::I(self.i.copy_of(v)),
            LaneVec::F(v) => LaneVec::F(self.f.copy_of(v)),
            LaneVec::B(v) => LaneVec::B(self.b.copy_of(v)),
            LaneVec::Ptr(h, v) => LaneVec::Ptr(*h, self.i.copy_of(v)),
            LaneVec::P(v) => LaneVec::P(self.v.copy_of(v)),
        }
    }

    /// `v` in every lane, as per-lane storage of `v`'s kind.
    fn splat(&mut self, v: Value) -> LaneVec {
        match v {
            Value::I(x) => LaneVec::I(self.i.filled(x)),
            Value::F(x) => LaneVec::F(self.f.filled(x)),
            Value::B(x) => LaneVec::B(self.b.filled(x)),
            Value::P(p) => LaneVec::Ptr(head_of(p), self.i.filled(p.offset)),
        }
    }

    fn values_of(&mut self, lv: &LaneVec) -> Vec<Value> {
        let mut out = self.v.take();
        for i in 0..self.n {
            out[i] = lv.at(i);
        }
        out
    }

    fn map<A: Copy, R: Lane>(&mut self, a: &[A], f: impl Fn(A) -> R) -> LaneVec {
        let mut out = R::pool(self).take();
        map1(a, &mut out, f);
        R::wrap(out)
    }

    fn zip<A: Copy, B: Copy, R: Lane>(
        &mut self,
        a: Src<'_, A>,
        b: Src<'_, B>,
        f: impl Fn(A, B) -> R,
    ) -> LaneVec {
        let mut out = R::pool(self).take();
        map2(a, b, &mut out, f);
        R::wrap(out)
    }

    /// Re-type generic lanes: when every lane under `mask` (`None` =
    /// all lanes) holds one kind — and, for pointers, one header —
    /// return typed storage, else the values unchanged.
    fn pack(&mut self, vals: Vec<Value>, mask: Option<&[bool]>) -> LaneVec {
        let live = |i: usize| mask.is_none_or(|m| m[i]);
        let Some(first) = (0..self.n).find(|&i| live(i)) else {
            return LaneVec::P(vals);
        };
        let packed = match vals[first] {
            Value::I(_) => self.pack_as(&vals, mask, |v| match v {
                Value::I(x) => Some(x),
                _ => None,
            }),
            Value::F(_) => self.pack_as(&vals, mask, |v| match v {
                Value::F(x) => Some(x),
                _ => None,
            }),
            Value::B(_) => self.pack_as(&vals, mask, |v| match v {
                Value::B(x) => Some(x),
                _ => None,
            }),
            Value::P(p) => {
                let h = head_of(p);
                let offs = self.pack_as(&vals, mask, |v| match v {
                    Value::P(q) if head_of(q) == h => Some(q.offset),
                    _ => None,
                });
                match offs {
                    Some(LaneVec::I(o)) => Some(LaneVec::Ptr(h, o)),
                    _ => None,
                }
            }
        };
        match packed {
            Some(lv) => {
                self.v.give(vals);
                lv
            }
            None => LaneVec::P(vals),
        }
    }

    fn pack_as<T: Lane>(
        &mut self,
        vals: &[Value],
        mask: Option<&[bool]>,
        get: impl Fn(Value) -> Option<T>,
    ) -> Option<LaneVec> {
        let mut out = T::pool(self).take();
        for i in 0..self.n {
            if mask.is_none_or(|m| m[i]) {
                match get(vals[i]) {
                    Some(x) => out[i] = x,
                    None => {
                        T::pool(self).give(out);
                        return None;
                    }
                }
            }
        }
        Some(T::wrap(out))
    }

    /// Per lane `m ? a : b`. Typed when both sides hold the same kind
    /// (pointers: the same header), generic otherwise.
    fn select(&mut self, m: &[bool], a: &LaneVec, b: &LaneVec) -> LaneVec {
        fn typed<T: Lane>(ar: &mut Arena, m: &[bool], a: &LaneVec, b: &LaneVec) -> Option<LaneVec> {
            let (x, y) = (T::src(a)?, T::src(b)?);
            let mut out = T::pool(ar).take();
            for i in 0..m.len() {
                out[i] = if m[i] { x.get(i) } else { y.get(i) };
            }
            Some(T::wrap(out))
        }
        if let Some(lv) = typed::<i64>(self, m, a, b)
            .or_else(|| typed::<f32>(self, m, a, b))
            .or_else(|| typed::<bool>(self, m, a, b))
        {
            return lv;
        }
        if let (Some((ha, x)), Some((hb, y))) = (a.ptrs(), b.ptrs()) {
            if ha == hb {
                let mut out = self.i.take();
                for i in 0..m.len() {
                    out[i] = if m[i] { x.get(i) } else { y.get(i) };
                }
                return LaneVec::Ptr(ha, out);
            }
        }
        let mut out = self.v.take();
        for i in 0..m.len() {
            out[i] = if m[i] { a.at(i) } else { b.at(i) };
        }
        LaneVec::P(out)
    }
}

// ---- frames ------------------------------------------------------------

/// Per-invocation state: the register file plus control-flow masks.
struct Frame {
    regs: Vec<LaneVec>,
    returned: Vec<bool>,
    any_returned: bool,
    retvals: LaneVec,
    loops: Vec<LoopFrame>,
    kernel_level: bool,
}

struct LoopFrame {
    broke: Vec<bool>,
    continued: Vec<bool>,
    any_continued: bool,
}

/// A mask and its counters, saved around a construct that narrows it.
struct SavedMask {
    active: Vec<bool>,
    count: usize,
    warps: Vec<u32>,
}

/// The current mask, or `None` when every lane is active. A macro so
/// the borrow is of `active` alone and the arena stays usable.
macro_rules! mask {
    ($ex:expr) => {
        ($ex.active_count != $ex.n).then_some(&$ex.active[..])
    };
}

/// The executor for the blocks of one launch: the arena, `tid` tables
/// and frame shells are built once and reused by every block;
/// everything else is reset per block.
pub(crate) struct BatchExec<'a> {
    env: &'a KernelEnv<'a>,
    ir: &'a IrProgram,
    /// Device global memory, lent by the launch.
    global: Global<'a>,
    /// The global allocations this executor's blocks loaded and stored.
    pub(crate) footprint: Footprint,
    /// The warp-instruction budget its blocks draw down: the rank's,
    /// or a fan-out participant's copy of what was left.
    budget: &'a mut i64,
    n: usize,
    block_idx: [i64; 3],
    /// `threadIdx` per axis, one entry per lane.
    tid: [Vec<i64>; 3],
    shared: SharedMem,
    /// Shared allocations deduplicate by *name* across the whole
    /// block (including device-function declarations), mirroring the
    /// tree-walk's `shared_ids`.
    shared_ids: HashMap<&'a str, u32>,
    active: Vec<bool>,
    active_count: usize,
    /// Active-lane count per warp, maintained at every mask mutation.
    warp_active: Vec<u32>,
    kernel_returned: Vec<bool>,
    any_kernel_returned: bool,
    cost: CostSummary,
    cycles: u64,
    call_depth: usize,
    arena: Arena,
    /// Reused per-lane pointer buffer for generic memory instructions.
    ptr_scratch: Vec<Option<Ptr>>,
    acct: Accounting,
}

/// Representation-preserving assignment conversion: the lane keeps the
/// value kind it was declared with.
fn repr_coerce(old: Value, new: Value) -> Result<Value, String> {
    match old {
        Value::I(_) => new.as_int().map(Value::I),
        Value::F(_) => new.as_float().map(Value::F),
        Value::B(_) => new.truthy().map(Value::B),
        Value::P(_) => new.as_ptr().map(Value::P),
    }
}

impl<'a> BatchExec<'a> {
    pub(crate) fn new(
        env: &'a KernelEnv<'a>,
        ir: &'a IrProgram,
        global: Global<'a>,
        budget: &'a mut i64,
    ) -> Self {
        let n = (env.block_dim[0] * env.block_dim[1] * env.block_dim[2]) as usize;
        let mut tid = [
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        ];
        for z in 0..env.block_dim[2] {
            for y in 0..env.block_dim[1] {
                for x in 0..env.block_dim[0] {
                    tid[0].push(x);
                    tid[1].push(y);
                    tid[2].push(z);
                }
            }
        }
        let warps = n.div_ceil(env.warp_size);
        BatchExec {
            env,
            ir,
            global,
            footprint: Footprint::default(),
            budget,
            n,
            block_idx: [0; 3],
            tid,
            shared: SharedMem::new(),
            shared_ids: HashMap::new(),
            active: vec![true; n],
            active_count: n,
            warp_active: vec![0; warps],
            kernel_returned: vec![false; n],
            any_kernel_returned: false,
            cost: CostSummary::default(),
            cycles: 0,
            call_depth: 0,
            arena: Arena::new(n, warps),
            ptr_scratch: Vec::new(),
            acct: Accounting::new(env.warp_size, cost::SHARED_BANKS),
        }
    }

    /// Run one block of the launch this executor was built for.
    pub(crate) fn run_block(
        &mut self,
        block_idx: [i64; 3],
        func: &'a IrFunc,
        args: &[Value],
    ) -> Result<CostSummary, Diag> {
        self.block_idx = block_idx;
        self.shared = SharedMem::new();
        self.shared_ids.clear();
        self.active.fill(true);
        self.recount();
        self.kernel_returned.fill(false);
        self.any_kernel_returned = false;
        self.cost = CostSummary::default();
        self.cycles = 0;
        self.call_depth = 0;

        let mut fr = self.take_frame(func.num_regs, true);
        for ((reg, ty), a) in func.params.iter().zip(args) {
            let v = a.coerce_to(ty).map_err(|m| self.rt_err(func.pos, m))?;
            fr.regs[*reg as usize] = LaneVec::U(v);
        }
        self.exec_block(func, &mut fr, 0)?;
        self.arena.frames.push(fr);

        self.cycles += cost::BLOCK_OVERHEAD;
        self.cost.device_cycles = self.cycles;
        Ok(self.cost)
    }

    /// The log of a participant's global stores (empty on the rank
    /// thread, which wrote them in place) and its footprint.
    pub(crate) fn finish(self) -> (StoreLog, Footprint) {
        let log = match self.global {
            Global::Owned(_) => StoreLog::default(),
            Global::Logged(_, log) => log,
        };
        (log, self.footprint)
    }

    // ---- bookkeeping ---------------------------------------------------

    /// A cleared frame of `num_regs` uniform registers, reusing a
    /// retired frame's shell and returning its lane buffers to the arena.
    fn take_frame(&mut self, num_regs: u32, kernel_level: bool) -> Frame {
        let n = self.n;
        let mut fr = self.arena.frames.pop().unwrap_or_else(|| Frame {
            regs: Vec::new(),
            returned: vec![false; n],
            any_returned: false,
            retvals: LaneVec::ZERO,
            loops: Vec::new(),
            kernel_level,
        });
        for lv in fr.regs.drain(..) {
            self.arena.recycle(lv);
        }
        fr.regs.resize_with(num_regs as usize, || LaneVec::ZERO);
        let ret = std::mem::replace(&mut fr.retvals, LaneVec::ZERO);
        self.arena.recycle(ret);
        for lp in fr.loops.drain(..) {
            self.arena.b.give(lp.broke);
            self.arena.b.give(lp.continued);
        }
        fr.returned.fill(false);
        fr.any_returned = false;
        fr.kernel_level = kernel_level;
        fr
    }

    /// Write a register, returning the buffer it held to the arena.
    fn set(&mut self, fr: &mut Frame, dst: usize, lv: LaneVec) {
        let old = std::mem::replace(&mut fr.regs[dst], lv);
        self.arena.recycle(old);
    }

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

    /// An error every active lane would raise alike: the tree-walk
    /// reports the first active lane's failure.
    fn first_err(&self, pos: Pos, message: impl Into<String>) -> Diag {
        self.lane_err(pos, self.first_active(), message)
    }

    fn first_active(&self) -> usize {
        self.active.iter().position(|&a| a).unwrap_or(0)
    }

    /// Charge one warp-instruction per warp with an active lane.
    fn charge(&mut self, pos: Pos, cycles_per_warp: u64) -> Result<(), Diag> {
        let warps = self.warp_active.iter().filter(|&&c| c > 0).count() as u64;
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

    /// Rebuild `active_count`/`warp_active` after a bulk mask edit.
    fn recount(&mut self) {
        self.active_count = 0;
        let ws = self.env.warp_size;
        for (w, lanes) in self.active.chunks(ws).enumerate() {
            let c = lanes.iter().filter(|&&a| a).count();
            self.warp_active[w] = c as u32;
            self.active_count += c;
        }
    }

    fn deactivate_all(&mut self) {
        self.active.fill(false);
        self.active_count = 0;
        self.warp_active.fill(0);
    }

    /// Save the mask and its counters (buffers from the arena).
    fn save_mask(&mut self) -> SavedMask {
        SavedMask {
            active: self.arena.b.copy_of(&self.active),
            count: self.active_count,
            warps: self.arena.w.copy_of(&self.warp_active),
        }
    }

    fn restore_mask(&mut self, saved: SavedMask) {
        self.active.copy_from_slice(&saved.active);
        self.active_count = saved.count;
        self.warp_active.copy_from_slice(&saved.warps);
        self.arena.b.give(saved.active);
        self.arena.w.give(saved.warps);
    }

    /// Narrow the mask to `keep(i)` of the lanes in `within`.
    fn narrow(&mut self, within: &[bool], keep: impl Fn(usize) -> bool) {
        for i in 0..self.n {
            self.active[i] = within[i] && keep(i);
        }
        self.recount();
    }

    /// Truthiness of a per-lane condition, valid in active lanes.
    fn truth(&mut self, cond: &LaneVec, pos: Pos) -> Result<Vec<bool>, Diag> {
        let mut t = self.arena.b.take();
        match cond {
            LaneVec::B(v) => t.copy_from_slice(v),
            LaneVec::I(v) => map1(v, &mut t, Prim::truthy),
            LaneVec::F(v) => map1(v, &mut t, Prim::truthy),
            _ => {
                for i in 0..self.n {
                    if self.active[i] {
                        match cond.at(i).truthy() {
                            Ok(x) => t[i] = x,
                            Err(m) => {
                                self.arena.b.give(t);
                                return Err(self.lane_err(pos, i, m));
                            }
                        }
                    }
                }
            }
        }
        Ok(t)
    }

    /// The generic fallback: `f` for each active lane in lane order;
    /// the first failure wins and is attributed to its lane. The
    /// values are re-packed into typed lanes when they agree.
    fn per_lane(
        &mut self,
        pos: Pos,
        mut f: impl FnMut(usize) -> Result<Value, String>,
    ) -> Result<LaneVec, Diag> {
        let full = self.active_count == self.n;
        let mut out = self.arena.v.take();
        for i in 0..self.n {
            if full || self.active[i] {
                match f(i) {
                    Ok(v) => out[i] = v,
                    Err(m) => {
                        self.arena.v.give(out);
                        return Err(self.lane_err(pos, i, m));
                    }
                }
            }
        }
        Ok(self.arena.pack(out, mask!(self)))
    }

    // ---- execution -----------------------------------------------------

    fn exec_block(&mut self, func: &'a IrFunc, fr: &mut Frame, b: BlockId) -> Result<(), Diag> {
        for inst in &func.blocks[b as usize].insts {
            if self.active_count == 0 {
                break;
            }
            self.exec_inst(func, fr, inst)?;
        }
        Ok(())
    }

    fn exec_inst(&mut self, func: &'a IrFunc, fr: &mut Frame, inst: &Inst) -> Result<(), Diag> {
        let n = self.n;
        match inst {
            Inst::Const { dst, v } => self.set(fr, *dst as usize, LaneVec::U(*v)),
            Inst::Builtin {
                dst,
                which,
                axis,
                pos,
            } => {
                self.charge(*pos, cost::ISSUE)?;
                let ax = *axis as usize;
                let lv = match which {
                    BuiltinVar::ThreadIdx => LaneVec::I(self.arena.i.copy_of(&self.tid[ax])),
                    BuiltinVar::BlockIdx => LaneVec::U(Value::I(self.block_idx[ax])),
                    BuiltinVar::BlockDim => LaneVec::U(Value::I(self.env.block_dim[ax])),
                    BuiltinVar::GridDim => LaneVec::U(Value::I(self.env.grid[ax])),
                };
                self.set(fr, *dst as usize, lv);
            }
            Inst::Un { dst, op, a, pos } => {
                self.charge(*pos, cost::ISSUE)?;
                let out = self.un(*op, &fr.regs[*a as usize], *pos)?;
                self.set(fr, *dst as usize, out);
            }
            Inst::Bin { dst, op, a, b, pos } => {
                self.charge(*pos, cost::ISSUE)?;
                let out = self.bin(*op, &fr.regs[*a as usize], &fr.regs[*b as usize], *pos)?;
                self.set(fr, *dst as usize, out);
            }
            Inst::Coerce { dst, a, ty, pos } => {
                self.charge(*pos, cost::ISSUE)?;
                let out = self.coerce(&fr.regs[*a as usize], ty, *pos)?;
                self.set(fr, *dst as usize, out);
            }
            Inst::Assign { var, src, pos } => {
                self.charge(*pos, cost::ISSUE)?;
                self.exec_assign(fr, *var as usize, *src as usize, *pos)?;
            }
            Inst::DeclShared { dst, spec, pos } => {
                let sp = &func.shared[*spec as usize];
                let id = match self.shared_ids.get(sp.name.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = self.shared.declare(sp.dims.clone(), sp.elem);
                        if self.shared.bytes() > self.env.max_shared_bytes {
                            return Err(self.rt_err(
                                *pos,
                                format!(
                                    "block uses {} bytes of shared memory (limit {})",
                                    self.shared.bytes(),
                                    self.env.max_shared_bytes
                                ),
                            ));
                        }
                        self.shared_ids.insert(&sp.name, id);
                        id
                    }
                };
                let p = Ptr {
                    space: Space::Shared,
                    alloc: id,
                    offset: 0,
                    elem: sp.elem,
                    level: 0,
                };
                self.set(fr, *dst as usize, LaneVec::U(Value::P(p)));
            }
            Inst::Load {
                dst,
                base,
                idx,
                pos,
            } => {
                let (addr, terminal) = self.index(
                    &fr.regs[*base as usize],
                    &fr.regs[*idx as usize],
                    true,
                    *pos,
                )?;
                let out = if terminal {
                    self.load_through(addr, *pos)?
                } else {
                    self.addr_lanes(addr)
                };
                self.set(fr, *dst as usize, out);
            }
            Inst::Store {
                base,
                idx,
                val,
                pos,
            } => {
                self.charge(*pos, cost::ISSUE)?;
                let (addr, _) = self.index(
                    &fr.regs[*base as usize],
                    &fr.regs[*idx as usize],
                    false,
                    *pos,
                )?;
                self.store_through(addr, &fr.regs[*val as usize], *pos)?;
            }
            Inst::Addr {
                dst,
                base,
                idx,
                pos,
            } => {
                let (addr, _) = self.index(
                    &fr.regs[*base as usize],
                    &fr.regs[*idx as usize],
                    false,
                    *pos,
                )?;
                let out = self.addr_lanes(addr);
                self.set(fr, *dst as usize, out);
            }
            Inst::LoadPtr { dst, ptr, pos } => {
                let out = match &fr.regs[*ptr as usize] {
                    LaneVec::Ptr(h, offs) => self.load_lanes(*h, offs, *pos)?,
                    other => {
                        let addr = self.addr_of(other, *pos)?;
                        self.load_through(addr, *pos)?
                    }
                };
                self.set(fr, *dst as usize, out);
            }
            Inst::StorePtr { ptr, val, pos } => {
                self.charge(*pos, cost::ISSUE)?;
                let val = &fr.regs[*val as usize];
                match &fr.regs[*ptr as usize] {
                    LaneVec::Ptr(h, offs) => self.store_lanes(*h, offs, val, *pos)?,
                    other => {
                        let addr = self.addr_of(other, *pos)?;
                        self.store_through(addr, val, *pos)?;
                    }
                }
            }
            Inst::Math {
                dst,
                name,
                args,
                pos,
            } => {
                self.charge(*pos, cost::SFU)?;
                let out = self.exec_math(fr, *name, args, *pos)?;
                self.set(fr, *dst as usize, out);
            }
            Inst::Atomic {
                dst,
                kind,
                ptr,
                val,
                pos,
            } => {
                let (ptrs, vals) = (&fr.regs[*ptr as usize], &fr.regs[*val as usize]);
                let out = self.exec_atomic(*pos, |ex, i| {
                    let p = ptrs.at(i).as_ptr().map_err(|m| ex.lane_err(*pos, i, m))?;
                    (ex.global.owned())
                        .and_then(|global| atomic_words(global, &mut ex.shared, p, kind.name()))
                        .and_then(|(words, elem)| memory::rmw(words, p, elem, *kind, vals.at(i)))
                        .map_err(|e| ex.lane_err(*pos, i, e.0))
                })?;
                self.set(fr, *dst as usize, out);
            }
            Inst::AtomicCas {
                dst,
                ptr,
                cmp,
                val,
                pos,
            } => {
                let (ptrs, cmps, vals) = (
                    &fr.regs[*ptr as usize],
                    &fr.regs[*cmp as usize],
                    &fr.regs[*val as usize],
                );
                let out = self.exec_atomic(*pos, |ex, i| {
                    let p = ptrs.at(i).as_ptr().map_err(|m| ex.lane_err(*pos, i, m))?;
                    let c = cmps.at(i).as_int().map_err(|m| ex.lane_err(*pos, i, m))?;
                    let v = vals.at(i).as_int().map_err(|m| ex.lane_err(*pos, i, m))?;
                    (ex.global.owned())
                        .and_then(|global| atomic_words(global, &mut ex.shared, p, "atomicCAS"))
                        .and_then(|(words, elem)| memory::cas(words, p, elem, c, v))
                        .map_err(|e| ex.lane_err(*pos, i, e.0))
                })?;
                self.set(fr, *dst as usize, out);
            }
            Inst::Barrier { pos } => {
                if self.active_count != n {
                    for i in 0..n {
                        if !self.kernel_returned[i] && !self.active[i] {
                            return Err(Diag::new(
                                Phase::Runtime,
                                *pos,
                                "__syncthreads() reached with divergent threads (barrier divergence)",
                            )
                            .with_thread(self.block_linear(), i as u32));
                        }
                    }
                }
                if self.any_kernel_returned && self.active_count > 0 {
                    return Err(Diag::new(
                        Phase::Runtime,
                        *pos,
                        "__syncthreads() after some threads returned (barrier divergence)",
                    )
                    .with_thread(self.block_linear(), 0));
                }
                self.cost.barriers += 1;
                self.charge(*pos, cost::BARRIER)?;
            }
            Inst::OclId {
                dst,
                which,
                dim,
                pos,
            } => {
                self.charge(*pos, cost::ISSUE)?;
                let out = self.exec_ocl_id(*which, &fr.regs[*dim as usize], *pos)?;
                self.set(fr, *dst as usize, out);
            }
            Inst::Call {
                dst,
                callee,
                args,
                pos,
            } => self.exec_call(fr, *dst as usize, callee, args, *pos)?,
            Inst::Trap { msg, pos } => return Err(self.rt_err(*pos, msg.clone())),
            Inst::If {
                cond,
                then_b,
                else_b,
                pos,
            } => {
                self.charge(*pos, cost::ISSUE)?;
                match &fr.regs[*cond as usize] {
                    LaneVec::U(cv) => {
                        let t = cv.truthy().map_err(|m| self.first_err(*pos, m))?;
                        // Uniform condition: the taken path runs under
                        // the unchanged mask; the merge is the identity.
                        if t {
                            self.exec_block(func, fr, *then_b)?;
                        } else if let Some(eb) = else_b {
                            self.exec_block(func, fr, *eb)?;
                        }
                    }
                    _ => self.exec_if_divergent(func, fr, *cond, *then_b, *else_b, *pos)?,
                }
            }
            Inst::Ternary {
                dst,
                cond,
                then_b,
                then_r,
                else_b,
                else_r,
                pos,
            } => {
                self.charge(*pos, cost::ISSUE)?;
                let arms = [(*then_b, *then_r), (*else_b, *else_r)];
                let out = match &fr.regs[*cond as usize] {
                    LaneVec::U(cv) => {
                        let t = cv.truthy().map_err(|m| self.first_err(*pos, m))?;
                        let (blk, res) = arms[usize::from(!t)];
                        self.exec_block(func, fr, blk)?;
                        self.arena.dup(&fr.regs[res as usize])
                    }
                    _ => self.exec_ternary_divergent(func, fr, *cond, arms, *pos)?,
                };
                self.set(fr, *dst as usize, out);
            }
            Inst::Logic {
                dst,
                op,
                a,
                rhs_b,
                rhs_r,
                pos,
            } => {
                self.charge(*pos, cost::ISSUE)?;
                let out = self.exec_logic(func, fr, *op == BinOp::And, *a, *rhs_b, *rhs_r, *pos)?;
                self.set(fr, *dst as usize, out);
            }
            Inst::Loop {
                cond_b,
                cond_r,
                body_b,
                step_b,
                pos,
            } => {
                let entry = self.save_mask();
                fr.loops.push(LoopFrame {
                    broke: self.arena.b.filled(false),
                    continued: self.arena.b.filled(false),
                    any_continued: false,
                });
                let r = self.run_loop(
                    func,
                    fr,
                    *cond_b,
                    *cond_r,
                    *body_b,
                    *step_b,
                    *pos,
                    &entry.active,
                );
                if let Some(lp) = fr.loops.pop() {
                    self.arena.b.give(lp.broke);
                    self.arena.b.give(lp.continued);
                }
                r?;
                // Lanes that entered resume after the loop unless they
                // returned inside it.
                if fr.any_returned {
                    self.narrow(&entry.active, |i| !fr.returned[i]);
                    self.arena.b.give(entry.active);
                    self.arena.w.give(entry.warps);
                } else {
                    self.restore_mask(entry);
                }
            }
            Inst::Break { pos } => {
                let Some(lp) = fr.loops.last_mut() else {
                    return Err(Diag::new(Phase::Runtime, *pos, "break outside of a loop"));
                };
                for i in 0..n {
                    lp.broke[i] |= self.active[i];
                }
                self.deactivate_all();
            }
            Inst::Continue { pos } => {
                let Some(lp) = fr.loops.last_mut() else {
                    return Err(Diag::new(
                        Phase::Runtime,
                        *pos,
                        "continue outside of a loop",
                    ));
                };
                for i in 0..n {
                    lp.continued[i] |= self.active[i];
                }
                lp.any_continued = true;
                self.deactivate_all();
            }
            Inst::Return { val, pos } => {
                self.charge(*pos, cost::ISSUE)?;
                let zero = LaneVec::ZERO;
                let src = val.map_or(&zero, |v| &fr.regs[v as usize]);
                // Masked write: lanes returned earlier keep their values.
                let new = match (&fr.retvals, mask!(self)) {
                    (LaneVec::U(_), None) => self.arena.dup(src),
                    (old, _) => self.arena.select(&self.active, src, old),
                };
                let old = std::mem::replace(&mut fr.retvals, new);
                self.arena.recycle(old);
                for i in 0..n {
                    if self.active[i] {
                        fr.returned[i] = true;
                        if fr.kernel_level {
                            self.kernel_returned[i] = true;
                        }
                    }
                }
                fr.any_returned = true;
                if fr.kernel_level {
                    self.any_kernel_returned = true;
                }
                self.deactivate_all();
            }
        }
        Ok(())
    }

    // ---- elementwise instructions ---------------------------------------

    fn un(&mut self, op: UnOp, a: &LaneVec, pos: Pos) -> Result<LaneVec, Diag> {
        let ar = &mut self.arena;
        Ok(match a {
            LaneVec::U(x) => LaneVec::U(apply_unop(op, *x).map_err(|m| self.first_err(pos, m))?),
            LaneVec::I(v) => unary(op, Map1 { ar, v }),
            LaneVec::F(v) => unary(op, Map1 { ar, v }),
            LaneVec::B(v) => unary(op, Map1 { ar, v }),
            _ => return self.per_lane(pos, |i| apply_unop(op, a.at(i))),
        })
    }

    fn bin(&mut self, op: BinOp, a: &LaneVec, b: &LaneVec, pos: Pos) -> Result<LaneVec, Diag> {
        if let (LaneVec::U(x), LaneVec::U(y)) = (a, b) {
            let v = apply_binop(op, *x, *y).map_err(|m| self.first_err(pos, m))?;
            return Ok(LaneVec::U(v));
        }
        let mask = mask!(self);
        match self.arena.bin(op, a, b, mask) {
            Some(out) => Ok(out),
            // Arithmetic on booleans, pointer comparison, pointers
            // into different allocations, an active lane that fails,
            // an operator the kinds do not admit: the scalar semantics.
            None => self.per_lane(pos, |i| apply_binop(op, a.at(i), b.at(i))),
        }
    }

    /// C-style conversion of every lane to `ty` (casts, declaration
    /// initialisers, call arguments).
    fn coerce(&mut self, a: &LaneVec, ty: &Type, pos: Pos) -> Result<LaneVec, Diag> {
        let ar = &mut self.arena;
        let typed = match a {
            LaneVec::U(x) => {
                let v = x.coerce_to(ty).map_err(|m| self.first_err(pos, m))?;
                Some(LaneVec::U(v))
            }
            LaneVec::I(v) => convert(ty, Map1 { ar, v }),
            LaneVec::F(v) => convert(ty, Map1 { ar, v }),
            LaneVec::B(v) => convert(ty, Map1 { ar, v }),
            LaneVec::Ptr(h, offs) if ty.is_ptr() => {
                Some(LaneVec::Ptr(h.cast(ty), ar.i.copy_of(offs)))
            }
            _ => None,
        };
        match typed {
            Some(out) => Ok(out),
            None => self.per_lane(pos, |i| a.at(i).coerce_to(ty)),
        }
    }

    fn exec_assign(
        &mut self,
        fr: &mut Frame,
        var: usize,
        src: usize,
        pos: Pos,
    ) -> Result<(), Diag> {
        if var == src {
            // Self-assignment is repr-preserving identity.
            return Ok(());
        }
        let old = std::mem::replace(&mut fr.regs[var], LaneVec::ZERO);
        let srcv = &fr.regs[src];
        let mask = mask!(self);
        let mut lanes = match (old, srcv) {
            (LaneVec::U(o), LaneVec::U(s)) if mask.is_none() => {
                let v = repr_coerce(o, *s).map_err(|m| self.rt_err(pos, m))?;
                fr.regs[var] = LaneVec::U(v);
                return Ok(());
            }
            // Per-lane or partial-mask write to a uniform variable:
            // demote, keeping the old value in inactive lanes (they may
            // rejoin later).
            (LaneVec::U(o), _) => self.arena.splat(o),
            (old, _) => old,
        };
        let typed = match &mut lanes {
            LaneVec::I(buf) => blend_from(buf, srcv, mask),
            LaneVec::F(buf) => blend_from(buf, srcv, mask),
            LaneVec::B(buf) => blend_from(buf, srcv, mask),
            LaneVec::Ptr(h, buf) => match srcv.ptrs() {
                Some((h2, offs)) if h2 == *h => {
                    blend(buf, offs, mask);
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !typed {
            // A pointer or generic source, or a pointer retargeted to
            // another allocation: each active lane keeps the kind it
            // holds, by the scalar rule.
            let mut vals = match lanes {
                LaneVec::P(vals) => vals,
                other => {
                    let vals = self.arena.values_of(&other);
                    self.arena.recycle(other);
                    vals
                }
            };
            for i in 0..self.n {
                if mask.is_none_or(|m| m[i]) {
                    vals[i] = repr_coerce(vals[i], srcv.at(i)).map_err(|m| self.rt_err(pos, m))?;
                }
            }
            // Inactive lanes stay readable, so re-type over all lanes.
            lanes = self.arena.pack(vals, None);
        }
        fr.regs[var] = lanes;
        Ok(())
    }

    fn exec_math(
        &mut self,
        fr: &Frame,
        which: Intrinsic,
        args: &[Reg],
        pos: Pos,
    ) -> Result<LaneVec, Diag> {
        let (op, name) = (which.as_math().expect("a math built-in"), which.name());
        let reg = |k: usize| &fr.regs[args[k] as usize];
        if args.iter().all(|&r| fr.regs[r as usize].is_uniform()) {
            let vals: Vec<Value> = (0..args.len()).map(|k| reg(k).at(0)).collect();
            let v = op.apply(name, &vals).map_err(|m| self.first_err(pos, m))?;
            return Ok(LaneVec::U(v));
        }
        let typed = match args.len() {
            1 => self.arena.math1(op, reg(0)),
            2 => self.arena.math2(op, reg(0), reg(1)),
            _ => None,
        };
        if let Some(out) = typed {
            return Ok(out);
        }
        let mut lane_args = vec![Value::I(0); args.len()];
        self.per_lane(pos, |i| {
            for (slot, &r) in lane_args.iter_mut().zip(args) {
                *slot = fr.regs[r as usize].at(i);
            }
            op.apply(name, &lane_args)
        })
    }

    /// The shared shape of the atomics: `one` per active lane in lane
    /// order, then the per-lane atomic charge.
    fn exec_atomic(
        &mut self,
        pos: Pos,
        mut one: impl FnMut(&mut Self, usize) -> Result<Value, Diag>,
    ) -> Result<LaneVec, Diag> {
        let mut buf = self.arena.v.take();
        let mut lanes = 0u64;
        for i in 0..self.n {
            if self.active[i] {
                lanes += 1;
                buf[i] = one(self, i)?;
            }
        }
        self.cost.atomics += lanes;
        self.cycles += cost::ATOMIC * lanes;
        self.charge(pos, 0)?;
        Ok(self.arena.pack(buf, Some(&self.active)))
    }

    fn exec_ocl_id(&mut self, which: OclFn, dim: &LaneVec, pos: Pos) -> Result<LaneVec, Diag> {
        const BAD_DIM: &str = "work-item dimension must be 0..3";
        let (bidx, bdim, grid) = (self.block_idx, self.env.block_dim, self.env.grid);
        let scalar = |d: usize| match which {
            OclFn::GroupId => Some(bidx[d]),
            OclFn::LocalSize => Some(bdim[d]),
            OclFn::NumGroups => Some(grid[d]),
            OclFn::GlobalSize => Some(grid[d] * bdim[d]),
            OclFn::LocalId | OclFn::GlobalId => None,
        };
        let id_base = |d: usize| match which {
            OclFn::GlobalId => bidx[d] * bdim[d],
            _ => 0,
        };
        if let LaneVec::U(dv) = dim {
            let d = dv.as_int().map_err(|m| self.first_err(pos, m))?;
            if !(0..3).contains(&d) {
                return Err(self.first_err(pos, BAD_DIM));
            }
            let d = d as usize;
            return Ok(match scalar(d) {
                Some(v) => LaneVec::U(Value::I(v)),
                None => {
                    let base = id_base(d);
                    self.arena.map(&self.tid[d], |t: i64| base + t)
                }
            });
        }
        let mut out = self.arena.i.take();
        for i in 0..self.n {
            if self.active[i] {
                let d = match dim.at(i).as_int() {
                    Ok(d) if (0..3).contains(&d) => d as usize,
                    Ok(_) => return Err(self.lane_err(pos, i, BAD_DIM)),
                    Err(m) => return Err(self.lane_err(pos, i, m)),
                };
                out[i] = scalar(d).unwrap_or_else(|| id_base(d) + self.tid[d][i]);
            }
        }
        Ok(LaneVec::I(out))
    }

    fn exec_call(
        &mut self,
        fr: &mut Frame,
        dst: usize,
        callee: &str,
        args: &[Reg],
        pos: Pos,
    ) -> Result<(), Diag> {
        let f = self
            .ir
            .funcs
            .get(callee)
            .ok_or_else(|| self.rt_err(pos, format!("unknown function `{callee}`")))?;
        if self.call_depth >= 32 {
            return Err(self.rt_err(pos, format!("recursion limit reached calling `{callee}`")));
        }
        self.charge(pos, cost::ISSUE)?;
        let mut newf = self.take_frame(f.num_regs, false);
        for ((preg, ty), &arg) in f.params.iter().zip(args) {
            newf.regs[*preg as usize] = self.coerce(&fr.regs[arg as usize], ty, pos)?;
        }
        let saved = self.save_mask();
        self.call_depth += 1;
        let result = self.exec_block(f, &mut newf, 0);
        self.call_depth -= 1;
        self.restore_mask(saved);
        result?;
        let ret = match std::mem::replace(&mut newf.retvals, LaneVec::ZERO) {
            // Divergent returns merge through generic lanes; only the
            // caller's active lanes read the result.
            LaneVec::P(vals) => self.arena.pack(vals, Some(&self.active)),
            typed => typed,
        };
        self.set(fr, dst, ret);
        self.arena.frames.push(newf);
        Ok(())
    }

    // ---- control flow (divergent paths) --------------------------------

    fn exec_if_divergent(
        &mut self,
        func: &'a IrFunc,
        fr: &mut Frame,
        cond: Reg,
        then_b: BlockId,
        else_b: Option<BlockId>,
        pos: Pos,
    ) -> Result<(), Diag> {
        let n = self.n;
        let ws = self.env.warp_size;
        let t = self.truth(&fr.regs[cond as usize], pos)?;
        // A per-lane condition usually still agrees across every active
        // lane (boundary checks in interior blocks); count first, so
        // that case pays for no masks or merges.
        let mut then_count = 0usize;
        for (w, lanes) in self.active.chunks(ws).enumerate() {
            let lo = w * ws;
            let stay = (0..lanes.len()).filter(|&k| lanes[k] && t[lo + k]).count();
            then_count += stay;
            if stay > 0 && stay < self.warp_active[w] as usize {
                self.cost.divergent_branches += 1;
            }
        }
        // Warp-uniform outcome: the taken path runs under the unchanged
        // mask and the merge is the identity.
        if then_count == self.active_count {
            self.arena.b.give(t);
            return self.exec_block(func, fr, then_b);
        }
        if then_count == 0 {
            self.arena.b.give(t);
            return match else_b {
                Some(eb) => self.exec_block(func, fr, eb),
                None => Ok(()),
            };
        }
        let entry = self.arena.b.copy_of(&self.active);
        self.narrow(&entry, |i| t[i]);
        self.exec_block(func, fr, then_b)?;
        let after_then = self.arena.b.copy_of(&self.active);
        self.narrow(&entry, |i| !t[i]);
        if let Some(eb) = else_b {
            self.exec_block(func, fr, eb)?;
        }
        // Lanes that survived their branch merge.
        for i in 0..n {
            self.active[i] |= after_then[i];
        }
        self.recount();
        for buf in [t, entry, after_then] {
            self.arena.b.give(buf);
        }
        Ok(())
    }

    /// Each arm runs only for the lanes that select it; no divergence
    /// is counted for ternaries (matching the tree-walk).
    fn exec_ternary_divergent(
        &mut self,
        func: &'a IrFunc,
        fr: &mut Frame,
        cond: Reg,
        arms: [(BlockId, Reg); 2],
        pos: Pos,
    ) -> Result<LaneVec, Diag> {
        let t = self.truth(&fr.regs[cond as usize], pos)?;
        let saved = self.save_mask();
        let t_count = (0..self.n).filter(|&i| saved.active[i] && t[i]).count();
        if t_count > 0 {
            self.narrow(&saved.active, |i| t[i]);
            self.exec_block(func, fr, arms[0].0)?;
        }
        if t_count < saved.count {
            self.narrow(&saved.active, |i| !t[i]);
            self.exec_block(func, fr, arms[1].0)?;
        }
        self.restore_mask(saved);
        let (tv, fv) = (&fr.regs[arms[0].1 as usize], &fr.regs[arms[1].1 as usize]);
        let out = if t_count == 0 {
            self.arena.dup(fv)
        } else if t_count == self.active_count {
            self.arena.dup(tv)
        } else {
            match self.arena.select(&t, tv, fv) {
                LaneVec::P(vals) => self.arena.pack(vals, Some(&self.active)),
                typed => typed,
            }
        };
        self.arena.b.give(t);
        Ok(out)
    }

    /// Short-circuit `&&`/`||`: the right-hand block runs only for the
    /// lanes the left side does not decide.
    #[allow(clippy::too_many_arguments)]
    fn exec_logic(
        &mut self,
        func: &'a IrFunc,
        fr: &mut Frame,
        is_and: bool,
        a: Reg,
        rhs_b: BlockId,
        rhs_r: Reg,
        pos: Pos,
    ) -> Result<LaneVec, Diag> {
        if let LaneVec::U(av) = &fr.regs[a as usize] {
            let at = av.truthy().map_err(|m| self.first_err(pos, m))?;
            if at != is_and {
                return Ok(LaneVec::U(Value::B(at)));
            }
            // Every active lane needs the right side, and the left is
            // the operator's identity: the result is the right side's
            // truth, under the unchanged mask.
            self.exec_block(func, fr, rhs_b)?;
            return match &fr.regs[rhs_r as usize] {
                LaneVec::U(bv) => {
                    let v = bv.truthy().map_err(|m| self.first_err(pos, m))?;
                    Ok(LaneVec::U(Value::B(v)))
                }
                bv => Ok(LaneVec::B(self.truth(bv, pos)?)),
            };
        }
        let ta = self.truth(&fr.regs[a as usize], pos)?;
        let saved = self.save_mask();
        // A lane needs the right side when its left side is the
        // operator's identity (`true &&`, `false ||`).
        self.narrow(&saved.active, |i| ta[i] == is_and);
        let mut out = ta;
        let mut result = Ok(());
        if self.active_count > 0 {
            result = self.exec_block(func, fr, rhs_b).and_then(|()| {
                let tb = self.truth(&fr.regs[rhs_r as usize], pos)?;
                for i in 0..self.n {
                    if self.active[i] {
                        out[i] = tb[i];
                    }
                }
                self.arena.b.give(tb);
                Ok(())
            });
        }
        self.restore_mask(saved);
        result?;
        Ok(LaneVec::B(out))
    }

    #[allow(clippy::too_many_arguments)]
    fn run_loop(
        &mut self,
        func: &'a IrFunc,
        fr: &mut Frame,
        cond_b: Option<BlockId>,
        cond_r: Reg,
        body_b: BlockId,
        step_b: Option<BlockId>,
        pos: Pos,
        entry: &[bool],
    ) -> Result<(), Diag> {
        let n = self.n;
        let ws = self.env.warp_size;
        loop {
            // Invariant: at the loop head, `active` already equals
            // entry ∧ ¬broke ∧ ¬returned (breaks/returns deactivate
            // immediately; `continue` lanes rejoined at body end), so
            // no re-arm recompute is needed.
            if self.active_count == 0 {
                break;
            }
            if let Some(cb) = cond_b {
                self.charge(pos, cost::ISSUE)?;
                self.exec_block(func, fr, cb)?;
                if self.active_count == 0 {
                    break;
                }
                let Frame { regs, loops, .. } = &mut *fr;
                let lp = loops
                    .last_mut()
                    .expect("run_loop runs inside its loop frame");
                match &regs[cond_r as usize] {
                    LaneVec::U(cv) => {
                        let t = cv.truthy().map_err(|m| self.first_err(pos, m))?;
                        if !t {
                            // All active lanes exit together: no
                            // divergence, loop is done.
                            for i in 0..n {
                                lp.broke[i] |= self.active[i];
                            }
                            self.deactivate_all();
                            break;
                        }
                    }
                    cv => {
                        let t = self.truth(cv, pos)?;
                        for w in 0..self.warp_active.len() {
                            let entered = self.warp_active[w];
                            if entered == 0 {
                                continue;
                            }
                            let mut stayed = entered;
                            for i in w * ws..((w + 1) * ws).min(n) {
                                if self.active[i] && !t[i] {
                                    self.active[i] = false;
                                    lp.broke[i] = true;
                                    stayed -= 1;
                                }
                            }
                            if stayed > 0 && stayed < entered {
                                self.cost.divergent_branches += 1;
                            }
                            self.active_count -= (entered - stayed) as usize;
                            self.warp_active[w] = stayed;
                        }
                        self.arena.b.give(t);
                        if self.active_count == 0 {
                            break;
                        }
                    }
                }
            } else {
                // Condition-less `for (;;)`: charge once per iteration
                // so an empty body cannot spin outside the budget.
                self.charge(pos, cost::ISSUE)?;
            }
            self.exec_block(func, fr, body_b)?;
            // Lanes that `continue`d rejoin for the step/condition.
            let lp = fr
                .loops
                .last_mut()
                .expect("run_loop runs inside its loop frame");
            if lp.any_continued {
                for i in 0..n {
                    if lp.continued[i] {
                        lp.continued[i] = false;
                        self.active[i] = entry[i] && !lp.broke[i] && !fr.returned[i];
                    }
                }
                lp.any_continued = false;
                self.recount();
            }
            if let Some(sb) = step_b {
                if self.active_count > 0 {
                    self.exec_block(func, fr, sb)?;
                }
            }
        }
        Ok(())
    }
}

// ---- typed arithmetic ----------------------------------------------------

impl Arena {
    /// Both operands as `f32` lanes — C's usual arithmetic conversion
    /// once either side is a float. Uniform numerics convert as
    /// scalars, int vectors through a pooled temporary; `None` when an
    /// operand is not plain numeric lanes.
    fn with_floats<R>(
        &mut self,
        a: &LaneVec,
        b: &LaneVec,
        f: impl FnOnce(&mut Arena, Src<'_, f32>, Src<'_, f32>) -> R,
    ) -> Option<R> {
        fn floats<'t>(lv: &'t LaneVec, tmp: &'t mut [f32]) -> Option<Src<'t, f32>> {
            Some(match lv {
                LaneVec::U(v) => Src::Splat(v.as_float().ok()?),
                LaneVec::F(v) => Src::Lanes(v),
                LaneVec::I(v) => {
                    map1(v, tmp, Prim::to_f);
                    Src::Lanes(tmp)
                }
                _ => return None,
            })
        }
        let (mut ta, mut tb) = (self.f.take(), self.f.take());
        let r = match (floats(a, &mut ta), floats(b, &mut tb)) {
            (Some(x), Some(y)) => Some(f(self, x, y)),
            _ => None,
        };
        self.f.give(ta);
        self.f.give(tb);
        r
    }

    /// The typed arms of a binary operator; `None` sends the
    /// instruction to the per-lane fallback.
    fn bin(
        &mut self,
        op: BinOp,
        a: &LaneVec,
        b: &LaneVec,
        mask: Option<&[bool]>,
    ) -> Option<LaneVec> {
        if let (Some(x), Some(y)) = (i64::src(a), i64::src(b)) {
            return i64::binary(
                op,
                Map2 {
                    ar: self,
                    x,
                    y,
                    mask,
                },
            );
        }
        if a.is_float() || b.is_float() {
            return self.with_floats(a, b, |ar, x, y| f32::binary(op, Map2 { ar, x, y, mask }))?;
        }
        // Pointer arithmetic keeps the header and steps the offsets.
        let mut moved = |h: Ptr, p, k, stride: i64| {
            let mut out = self.i.take();
            map2(p, k, &mut out, |o, k| offset_step(o, k, stride));
            LaneVec::Ptr(h, out)
        };
        Some(match (op, a.ptrs(), b.ptrs()) {
            (BinOp::Add, Some((h, p)), None) => moved(h, p, i64::src(b)?, 1),
            (BinOp::Add, None, Some((h, p))) => moved(h, p, i64::src(a)?, 1),
            (BinOp::Sub, Some((h, p)), None) => moved(h, p, i64::src(b)?, -1),
            (BinOp::Sub, Some((_, p)), Some((_, q))) => {
                self.zip(p, q, |o: i64, k| offset_step(o, k, -1))
            }
            _ => return None,
        })
    }

    /// One-argument built-ins over numeric lanes.
    fn math1(&mut self, op: MathOp, a: &LaneVec) -> Option<LaneVec> {
        match a {
            LaneVec::I(v) if op.keeps_ints() => op.int1(Map1 { ar: self, v }),
            LaneVec::I(v) => {
                let f = op.float1()?;
                Some(self.map(v, move |x: i64| f(x.to_f())))
            }
            LaneVec::F(v) => Some(self.map(v, op.float1()?)),
            _ => None,
        }
    }

    /// Two-argument built-ins over numeric lanes.
    fn math2(&mut self, op: MathOp, a: &LaneVec, b: &LaneVec) -> Option<LaneVec> {
        if op.keeps_ints() && !(a.is_float() || b.is_float()) {
            let (x, y) = (i64::src(a)?, i64::src(b)?);
            return op.int2(Map2 {
                ar: self,
                x,
                y,
                mask: None,
            })?;
        }
        let f = op.float2()?;
        self.with_floats(a, b, |ar, x, y| ar.zip(x, y, f))
    }
}

// ---- memory --------------------------------------------------------------

/// The element addresses a memory instruction touches.
enum Addr {
    /// Every active lane addresses the same element.
    Uniform(Ptr),
    /// One allocation and level: header plus per-lane offsets (an
    /// arena buffer the consumer recycles or keeps as the result).
    Lanes(Ptr, Vec<i64>),
    /// Anything else, `None` in inactive lanes (the `ptr_scratch`
    /// buffer, handed back by the consumer).
    Generic(Vec<Option<Ptr>>),
}

/// Device global memory as the blocks of one executor see it.
///
/// The rank thread's executor owns the pool and writes it in place. A
/// participant of a fanned-out launch (see `device`) only reads it: its
/// global stores append to a [`StoreLog`], which the rank thread applies
/// if the launch commits. Atomics need the owned pool, so a participant
/// stops at its first one.
pub(crate) enum Global<'a> {
    /// The rank thread's pool, written in place.
    Owned(&'a mut MemPool),
    /// A participant's read-only view, and the log of its stores.
    Logged(&'a MemPool, StoreLog),
}

impl Global<'_> {
    fn pool(&self) -> &MemPool {
        match self {
            Global::Owned(pool) => pool,
            Global::Logged(pool, _) => pool,
        }
    }

    fn owned(&mut self) -> Result<&mut MemPool, MemError> {
        match self {
            Global::Owned(pool) => Ok(pool),
            Global::Logged(..) => Err(MemError(
                "a fanned-out block cannot run an atomic".to_string(),
            )),
        }
    }
}

/// The global allocations a run of blocks loaded from and stored to.
#[derive(Debug, Clone, Default)]
pub(crate) struct Footprint {
    loaded: Vec<u32>,
    stored: Vec<u32>,
}

impl Footprint {
    /// Record a load or store of `alloc`: true when that is its first
    /// access of the kind and it already had the other.
    fn note(&mut self, alloc: u32, store: bool) -> bool {
        let (mine, other) = if store {
            (&mut self.stored, &self.loaded)
        } else {
            (&mut self.loaded, &self.stored)
        };
        if mine.contains(&alloc) {
            return false;
        }
        mine.push(alloc);
        other.contains(&alloc)
    }

    /// Whether some allocation was both loaded and stored.
    pub(crate) fn conflicts(&self) -> bool {
        self.loaded.iter().any(|a| self.stored.contains(a))
    }

    /// Add another run's accesses.
    pub(crate) fn merge(&mut self, other: &Footprint) {
        for &a in &other.loaded {
            self.note(a, false);
        }
        for &a in &other.stored {
            self.note(a, true);
        }
    }
}

/// A participant's global stores in the order its blocks made them, as
/// runs of consecutive words of one allocation: a contiguous warp store
/// costs 4 bytes a word.
#[derive(Debug, Default)]
pub(crate) struct StoreLog {
    /// `(alloc, first word, words)` of each run.
    runs: Vec<(u32, u32, u32)>,
    words: Vec<u32>,
    /// Words the log may hold: a store instruction that finds it full
    /// stops the participant.
    cap: usize,
}

impl StoreLog {
    /// An empty log that takes at most about `cap` words.
    pub(crate) fn new(cap: usize) -> Self {
        StoreLog {
            cap,
            ..StoreLog::default()
        }
    }

    #[inline]
    fn push(&mut self, alloc: u32, k: usize, bits: u32) {
        match self.runs.last_mut() {
            Some((a, first, n)) if *a == alloc && (*first + *n) as usize == k => *n += 1,
            _ => self.runs.push((alloc, k as u32, 1)),
        }
        self.words.push(bits);
    }

    /// Make the logged stores, in order. Each was bounds-checked
    /// against this pool, which no store log or free has changed
    /// since.
    pub(crate) fn apply(&self, pool: &mut MemPool) {
        let mut at = 0;
        for &(alloc, first, n) in &self.runs {
            let (first, n) = (first as usize, n as usize);
            let words = pool.words_mut(alloc).expect("logged allocation is live");
            words[first..first + n].copy_from_slice(&self.words[at..at + n]);
            at += n;
        }
    }
}

/// Where one store instruction's words land.
enum Dest<'m> {
    /// Written in place.
    Words(&'m mut [u32]),
    /// Appended to a participant's log: the allocation and its length.
    Log(&'m mut StoreLog, u32, usize),
}

impl Dest<'_> {
    fn len(&self) -> usize {
        match self {
            Dest::Words(words) => words.len(),
            Dest::Log(_, _, len) => *len,
        }
    }

    #[inline]
    fn put(&mut self, k: usize, bits: u32) {
        match self {
            Dest::Words(words) => words[k] = bits,
            Dest::Log(log, alloc, _) => log.push(*alloc, k, bits),
        }
    }
}

/// The words a kernel writes through `p`, with the element type it
/// writes them by: [`memory::kernel_words_mut`], with a participant's
/// global stores going to its log.
fn store_dest<'m>(
    global: &'m mut Global<'_>,
    shared: &'m mut SharedMem,
    p: Ptr,
) -> Result<(Dest<'m>, ElemType), MemError> {
    match (p.space, global) {
        (Space::Global, Global::Owned(pool)) => Ok((Dest::Words(pool.words_mut(p.alloc)?), p.elem)),
        (Space::Global, Global::Logged(pool, log)) => {
            let len = pool.words(p.alloc)?.len();
            if log.words.len() >= log.cap {
                return Err(MemError(
                    "a fanned-out block's store log is full".to_string(),
                ));
            }
            Ok((Dest::Log(log, p.alloc, len), p.elem))
        }
        _ => memory::block_words_mut(shared, p).map(|(words, elem)| (Dest::Words(words), elem)),
    }
}

/// Resolve each active lane's offset against an allocation of `len`
/// elements, in lane order, handing `(lane, element index)` to `each`;
/// the first out-of-range lane stops the walk.
#[inline]
fn for_each_element(
    mask: Option<&[bool]>,
    head: Ptr,
    offs: &[i64],
    len: usize,
    mut each: impl FnMut(usize, usize),
) -> Result<(), (usize, MemError)> {
    for i in 0..offs.len() {
        if mask.is_none_or(|m| m[i]) {
            let at = Ptr {
                offset: offs[i],
                ..head
            };
            each(i, bounds(at, len).map_err(|e| (i, e))?);
        }
    }
    Ok(())
}

impl<'a> BatchExec<'a> {
    /// Advance a pointer by an index (identical to the tree-walk):
    /// the new pointer and whether it addresses an element rather
    /// than a row of a multi-dimensional shared array.
    fn index_ptr(&self, p: Ptr, i: i64) -> Result<(Ptr, bool), String> {
        if p.space == Space::Shared {
            let arr = self
                .shared
                .array(p.alloc)
                .ok_or_else(|| "invalid shared array".to_string())?;
            let stride = arr.row_stride(p.level as usize);
            let mut q = p.step(i, stride.unwrap_or(1) as i64);
            q.level += 1;
            return Ok((q, stride.is_none()));
        }
        Ok((p.step(i, 1), true))
    }

    /// `base[idx]` for every active lane. `rows` says whether a row of
    /// a multi-dimensional shared array is an acceptable result (a
    /// load yields row pointers; a store or address-of is an error).
    /// Returns the addresses and whether they are all elements.
    fn index(
        &mut self,
        base: &LaneVec,
        idx: &LaneVec,
        rows: bool,
        pos: Pos,
    ) -> Result<(Addr, bool), Diag> {
        if let (LaneVec::U(bv), LaneVec::U(iv)) = (base, idx) {
            let (q, terminal) = bv
                .as_ptr()
                .and_then(|p| iv.as_int().map(|k| (p, k)))
                .and_then(|(p, k)| self.index_ptr(p, k))
                .map_err(|m| self.first_err(pos, m))?;
            if !terminal && !rows {
                return Err(self.first_err(pos, ROW_ASSIGN));
            }
            return Ok((Addr::Uniform(q), terminal));
        }
        // One header, integer indices: the row stride is looked up
        // once and the offsets are plain arithmetic.
        if let (Some((mut head, offs)), Some(k)) = (base.ptrs(), i64::src(idx)) {
            let mut row = None;
            if head.space == Space::Shared {
                let arr = self
                    .shared
                    .array(head.alloc)
                    .ok_or_else(|| self.first_err(pos, "invalid shared array"))?;
                row = arr.row_stride(head.level as usize);
                head.level += 1;
            }
            if row.is_some() && !rows {
                return Err(self.first_err(pos, ROW_ASSIGN));
            }
            let step = row.unwrap_or(1) as i64;
            let mut out = self.arena.i.take();
            map2(offs, k, &mut out, |o, k| offset_step(o, k, step));
            return Ok((Addr::Lanes(head, out), row.is_none()));
        }
        let full = self.active_count == self.n;
        let mut ptrs = std::mem::take(&mut self.ptr_scratch);
        ptrs.clear();
        ptrs.resize(self.n, None);
        let mut all_terminal = true;
        for i in 0..self.n {
            if full || self.active[i] {
                let r = base
                    .at(i)
                    .as_ptr()
                    .and_then(|p| idx.at(i).as_int().map(|k| (p, k)))
                    .and_then(|(p, k)| self.index_ptr(p, k))
                    .and_then(|(q, terminal)| {
                        if terminal || rows {
                            Ok((q, terminal))
                        } else {
                            Err(ROW_ASSIGN.to_string())
                        }
                    });
                match r {
                    Ok((q, terminal)) => {
                        all_terminal &= terminal;
                        ptrs[i] = Some(q);
                    }
                    Err(m) => {
                        self.ptr_scratch = ptrs;
                        return Err(self.lane_err(pos, i, m));
                    }
                }
            }
        }
        Ok((Addr::Generic(ptrs), all_terminal))
    }

    /// The addresses held by a pointer register (`LoadPtr`/`StorePtr`
    /// operands that are not typed pointer lanes).
    fn addr_of(&mut self, ptr: &LaneVec, pos: Pos) -> Result<Addr, Diag> {
        if let LaneVec::U(pv) = ptr {
            let p = pv.as_ptr().map_err(|m| self.first_err(pos, m))?;
            return Ok(Addr::Uniform(p));
        }
        let mut ptrs = std::mem::take(&mut self.ptr_scratch);
        ptrs.clear();
        ptrs.resize(self.n, None);
        for i in 0..self.n {
            if self.active[i] {
                match ptr.at(i).as_ptr() {
                    Ok(p) => ptrs[i] = Some(p),
                    Err(m) => {
                        self.ptr_scratch = ptrs;
                        return Err(self.lane_err(pos, i, m));
                    }
                }
            }
        }
        Ok(Addr::Generic(ptrs))
    }

    /// Addresses as a pointer-valued register (row pointers, `Addr`).
    fn addr_lanes(&mut self, addr: Addr) -> LaneVec {
        match addr {
            Addr::Uniform(q) => LaneVec::U(Value::P(q)),
            Addr::Lanes(head, offs) => LaneVec::Ptr(head, offs),
            Addr::Generic(ptrs) => {
                let mut vals = self.arena.v.take();
                for (v, p) in vals.iter_mut().zip(&ptrs) {
                    *v = p.map_or(Value::I(0), Value::P);
                }
                self.ptr_scratch = ptrs;
                self.arena.pack(vals, mask!(self))
            }
        }
    }

    fn load_through(&mut self, addr: Addr, pos: Pos) -> Result<LaneVec, Diag> {
        match addr {
            Addr::Uniform(q) => {
                self.charge_memory_uniform(q, pos)?;
                let v = self.load_one(q, pos, self.first_active())?;
                Ok(LaneVec::U(v))
            }
            Addr::Lanes(head, offs) => {
                let out = self.load_lanes(head, &offs, pos);
                self.arena.i.give(offs);
                out
            }
            Addr::Generic(ptrs) => {
                let r = self.charge_memory(&ptrs, pos).and_then(|()| {
                    let mut vals = self.arena.v.take();
                    for i in 0..self.n {
                        if let Some(p) = ptrs[i] {
                            vals[i] = self.load_one(p, pos, i)?;
                        }
                    }
                    Ok(self.arena.pack(vals, mask!(self)))
                });
                self.ptr_scratch = ptrs;
                r
            }
        }
    }

    fn store_through(&mut self, addr: Addr, val: &LaneVec, pos: Pos) -> Result<(), Diag> {
        match addr {
            Addr::Uniform(q) => {
                self.charge_memory_uniform(q, pos)?;
                // Lanes store in order; the last active lane wins, as
                // in the tree-walk's sequential store loop.
                let lane = match val {
                    LaneVec::U(_) => self.first_active(),
                    _ => self.active.iter().rposition(|&a| a).unwrap_or(0),
                };
                self.store_one(q, val.at(lane), pos, lane)
            }
            Addr::Lanes(head, offs) => {
                let r = self.store_lanes(head, &offs, val, pos);
                self.arena.i.give(offs);
                r
            }
            Addr::Generic(ptrs) => {
                let r = self.charge_memory(&ptrs, pos).and_then(|()| {
                    for i in 0..self.n {
                        if let Some(p) = ptrs[i] {
                            self.store_one(p, val.at(i), pos, i)?;
                        }
                    }
                    Ok(())
                });
                self.ptr_scratch = ptrs;
                r
            }
        }
    }

    /// Load through typed pointer lanes: one allocation lookup, one
    /// bounds check per active lane, typed result.
    fn load_lanes(&mut self, head: Ptr, offs: &[i64], pos: Pos) -> Result<LaneVec, Diag> {
        self.charge_lanes(head, offs, pos)?;
        self.note(head, false)
            .map_err(|e| self.first_err(pos, e.0))?;
        fn gather<T: Lane>(
            arena: &mut Arena,
            mask: Option<&[bool]>,
            words: &[u32],
            head: Ptr,
            offs: &[i64],
            decode: impl Fn(u32) -> T,
        ) -> Result<LaneVec, (usize, MemError)> {
            let mut out = T::pool(arena).take();
            let r = for_each_element(mask, head, offs, words.len(), |i, k| {
                out[i] = decode(words[k])
            });
            match r {
                Ok(()) => Ok(T::wrap(out)),
                Err(e) => {
                    T::pool(arena).give(out);
                    Err(e)
                }
            }
        }
        let (words, elem) = kernel_words(self.global.pool(), self.env.consts, &self.shared, head)
            .map_err(|e| self.first_err(pos, e.0))?;
        let (arena, mask) = (&mut self.arena, mask!(self));
        let out = if elem == ElemType::I32 {
            gather(arena, mask, words, head, offs, |bits| bits as i32 as i64)
        } else {
            gather(arena, mask, words, head, offs, f32::from_bits)
        };
        out.map_err(|(i, e)| self.lane_err(pos, i, e.0))
    }

    /// Store through typed pointer lanes, in lane order.
    fn store_lanes(
        &mut self,
        head: Ptr,
        offs: &[i64],
        val: &LaneVec,
        pos: Pos,
    ) -> Result<(), Diag> {
        self.charge_lanes(head, offs, pos)?;
        if let Some(v) = i64::src(val) {
            self.scatter(head, offs, v, pos)
        } else if let Some(v) = f32::src(val) {
            self.scatter(head, offs, v, pos)
        } else if let Some(v) = bool::src(val) {
            self.scatter(head, offs, v, pos)
        } else {
            // Pointer or generic values: the scalar store decides.
            for i in 0..self.n {
                if self.active[i] {
                    let at = Ptr {
                        offset: offs[i],
                        ..head
                    };
                    self.store_one(at, val.at(i), pos, i)?;
                }
            }
            Ok(())
        }
    }

    fn scatter<T: Lane>(
        &mut self,
        head: Ptr,
        offs: &[i64],
        src: Src<'_, T>,
        pos: Pos,
    ) -> Result<(), Diag> {
        self.note(head, true)
            .map_err(|e| self.first_err(pos, e.0))?;
        let mask = mask!(self);
        let (mut dest, elem) = match store_dest(&mut self.global, &mut self.shared, head) {
            Ok(found) => found,
            Err(e) => return Err(self.first_err(pos, e.0)),
        };
        for_each_element(mask, head, offs, dest.len(), |i, k| {
            dest.put(k, store_bits(src.get(i), elem))
        })
        .map_err(|(i, e)| self.lane_err(pos, i, e.0))
    }

    fn load_one(&mut self, p: Ptr, pos: Pos, lane: usize) -> Result<Value, Diag> {
        self.note(p, false)
            .and_then(|()| kernel_words(self.global.pool(), self.env.consts, &self.shared, p))
            .and_then(|(words, elem)| memory::load(words, p, elem))
            .map_err(|e| self.lane_err(pos, lane, e.0))
    }

    fn store_one(&mut self, p: Ptr, v: Value, pos: Pos, lane: usize) -> Result<(), Diag> {
        self.note(p, true)
            .and_then(|()| store_dest(&mut self.global, &mut self.shared, p))
            .and_then(|(mut dest, elem)| {
                let k = bounds(p, dest.len())?;
                dest.put(k, memory::store_word(v, elem)?);
                Ok(())
            })
            .map_err(|e| self.lane_err(pos, lane, e.0))
    }

    /// Record a global access through `p` in the footprint. A
    /// participant stops at an allocation both loaded and stored: its
    /// loads would not see its own stores.
    fn note(&mut self, p: Ptr, store: bool) -> Result<(), MemError> {
        let both = p.space == Space::Global && self.footprint.note(p.alloc, store);
        if both && matches!(self.global, Global::Logged(..)) {
            return Err(MemError(
                "a fanned-out block both loaded and stored one allocation".to_string(),
            ));
        }
        Ok(())
    }

    // ---- memory accounting -------------------------------------------------

    fn charge_global(&mut self, lanes: usize, transactions: u64) {
        self.cost.global_accesses += lanes as u64;
        self.cost.global_transactions += transactions;
        self.cycles += cost::GLOBAL_TRANSACTION * transactions;
    }

    fn charge_shared(&mut self, degree: u64) {
        self.cost.shared_accesses += 1;
        self.cost.shared_conflicts += degree - 1;
        self.cycles += cost::SHARED_ACCESS + cost::SHARED_CONFLICT * (degree - 1);
    }

    /// A warp's constant-memory read: broadcast when every lane reads
    /// the same word, a global transaction otherwise.
    fn charge_const(&mut self, uniform: bool) {
        self.cycles += if uniform {
            cost::SHARED_ACCESS
        } else {
            cost::GLOBAL_TRANSACTION
        };
    }

    /// Coalescing- and conflict-aware memory charge for typed pointer
    /// lanes: the space is known from the header, so each warp runs
    /// exactly one of the three accountings over its active offsets.
    fn charge_lanes(&mut self, head: Ptr, offs: &[i64], pos: Pos) -> Result<(), Diag> {
        self.charge(pos, 0)?;
        let ws = self.env.warp_size;
        let tw = cost::TRANSACTION_WORDS as i64;
        let mut acct = std::mem::take(&mut self.acct);
        for w in 0..self.warp_active.len() {
            let live = self.warp_active[w] as usize;
            if live == 0 {
                continue;
            }
            let lo = w * ws;
            let hi = (lo + ws).min(self.n);
            let lanes: &[i64] = if live == hi - lo {
                &offs[lo..hi]
            } else {
                acct.lanes.clear();
                acct.lanes
                    .extend((lo..hi).filter(|&i| self.active[i]).map(|i| offs[i]));
                &acct.lanes
            };
            match head.space {
                Space::Global | Space::Host => {
                    let keys = lanes.iter().map(|&o| (head.alloc, o / tw));
                    let distinct = count_distinct(keys, &mut acct.seen);
                    self.charge_global(live, distinct);
                }
                Space::Shared => {
                    let degree = acct.banks.degree(lanes);
                    self.charge_shared(degree);
                }
                Space::Constant => self.charge_const(lanes.iter().all(|&o| o == lanes[0])),
            }
        }
        self.acct = acct;
        Ok(())
    }

    /// The same charge for generic per-lane pointers, which may mix
    /// spaces and allocations inside one warp — byte-for-byte the
    /// tree-walk's accounting.
    fn charge_memory(&mut self, ptrs: &[Option<Ptr>], pos: Pos) -> Result<(), Diag> {
        self.charge(pos, 0)?;
        let ws = self.env.warp_size;
        let tw = cost::TRANSACTION_WORDS as i64;
        let mut acct = std::mem::take(&mut self.acct);
        for warp in ptrs.chunks(ws) {
            acct.segs.clear();
            acct.lanes.clear();
            let mut first_const = None;
            let mut const_uniform = true;
            for p in warp.iter().flatten() {
                match p.space {
                    Space::Global | Space::Host => acct.segs.push((p.alloc, p.offset / tw)),
                    Space::Shared => acct.lanes.push(p.offset),
                    Space::Constant => {
                        const_uniform &= *first_const.get_or_insert(p.offset) == p.offset;
                    }
                }
            }
            if !acct.segs.is_empty() {
                let distinct = count_distinct(acct.segs.iter().copied(), &mut acct.seen);
                self.charge_global(acct.segs.len(), distinct);
            }
            if !acct.lanes.is_empty() {
                let degree = acct.banks.degree(&acct.lanes);
                self.charge_shared(degree);
            }
            if first_const.is_some() {
                self.charge_const(const_uniform);
            }
        }
        self.acct = acct;
        Ok(())
    }

    /// Memory charge when every active lane touches the same pointer —
    /// the closed-form result of [`Self::charge_memory`].
    fn charge_memory_uniform(&mut self, p: Ptr, pos: Pos) -> Result<(), Diag> {
        self.charge(pos, 0)?;
        for w in 0..self.warp_active.len() {
            let lanes = self.warp_active[w] as usize;
            if lanes > 0 {
                match p.space {
                    Space::Global | Space::Host => self.charge_global(lanes, 1),
                    Space::Shared => self.charge_shared(1),
                    Space::Constant => self.charge_const(true),
                }
            }
        }
        Ok(())
    }
}

/// Per-warp scratch of the memory accounting, reused across
/// instructions so the charge allocates nothing.
#[derive(Default)]
struct Accounting {
    /// Active offsets of a partially active warp.
    lanes: Vec<i64>,
    /// `(alloc, segment)` keys of a warp with mixed pointers.
    segs: Vec<(u32, i64)>,
    /// Distinct keys seen so far in [`count_distinct`].
    seen: Vec<(u32, i64)>,
    banks: BankTable,
}

impl Accounting {
    fn new(warp_size: usize, banks: usize) -> Self {
        Accounting {
            lanes: Vec::with_capacity(warp_size),
            segs: Vec::with_capacity(warp_size),
            seen: Vec::with_capacity(warp_size),
            banks: BankTable {
                ways: warp_size,
                fill: vec![0; banks],
                rows: vec![0; banks * warp_size],
            },
        }
    }
}

/// Number of distinct keys, without sorting: a key equal to the one
/// before it is a repeat, and a key outside the running `[min, max]` is
/// new by construction, so ascending and descending access, plateaus
/// included, never search; any other key is looked up among the keys
/// seen, of which a warp has at most `warp_size`.
fn count_distinct(keys: impl Iterator<Item = (u32, i64)>, seen: &mut Vec<(u32, i64)>) -> u64 {
    seen.clear();
    let mut range: Option<((u32, i64), (u32, i64))> = None;
    let mut prev = None;
    for k in keys {
        if prev.replace(k) == Some(k) {
            continue;
        }
        match range {
            Some((min, max)) if k >= min && k <= max => {
                if !seen.contains(&k) {
                    seen.push(k);
                }
            }
            Some((min, max)) => {
                range = Some((min.min(k), max.max(k)));
                seen.push(k);
            }
            None => {
                range = Some((k, k));
                seen.push(k);
            }
        }
    }
    seen.len() as u64
}

/// One row per shared-memory bank holding the distinct offsets a warp
/// has sent to it.
#[derive(Default)]
struct BankTable {
    /// Row capacity: a warp's lane count.
    ways: usize,
    fill: Vec<u32>,
    rows: Vec<i64>,
}

impl BankTable {
    /// Conflict degree of one warp's shared access: the largest number
    /// of distinct offsets falling in one bank (lanes reading the same
    /// word are a broadcast, not a conflict).
    fn degree(&mut self, offs: &[i64]) -> u64 {
        let banks = self.fill.len() as i64;
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for &o in offs {
            min = min.min(o);
            max = max.max(o);
        }
        // Offsets inside a window narrower than the bank count have
        // pairwise distinct residues unless equal: no bank sees two
        // distinct offsets.
        if offs.is_empty() || max.abs_diff(min) < banks as u64 {
            return 1;
        }
        self.fill.fill(0);
        let mut degree = 1;
        for &o in offs {
            let bank = o.rem_euclid(banks) as usize;
            let row = &mut self.rows[bank * self.ways..(bank + 1) * self.ways];
            let used = self.fill[bank] as usize;
            if !row[..used].contains(&o) {
                row[used] = o;
                self.fill[bank] += 1;
                degree = degree.max(self.fill[bank]);
            }
        }
        degree as u64
    }
}

#[cfg(test)]
mod lattice;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::ConstMem;

    impl BatchExec<'_> {
        /// The accounting this module shipped with before it went
        /// sort-free — collect `(alloc, segment)` and `(bank, offset)`
        /// pairs per warp, sort, deduplicate, count — kept verbatim as
        /// the oracle for [`BatchExec::charge_memory`] and
        /// [`BatchExec::charge_lanes`].
        fn charge_memory_reference(&mut self, ptrs: &[Option<Ptr>], pos: Pos) -> Result<(), Diag> {
            self.charge(pos, 0)?;
            let tw = cost::TRANSACTION_WORDS as i64;
            let ws = self.env.warp_size;
            let mut segs: Vec<(u32, i64)> = Vec::new();
            let mut banks: Vec<(i64, i64)> = Vec::new();
            for w in 0..self.n.div_ceil(ws) {
                let lo = w * ws;
                let hi = (lo + ws).min(self.n);
                segs.clear();
                banks.clear();
                let mut global_count = 0u64;
                let mut first_const: Option<i64> = None;
                let mut const_uniform = true;
                let mut has_const = false;
                for p in ptrs[lo..hi].iter().flatten() {
                    match p.space {
                        Space::Global | Space::Host => {
                            global_count += 1;
                            segs.push((p.alloc, p.offset / tw));
                        }
                        Space::Shared => {
                            banks.push((p.offset.rem_euclid(cost::SHARED_BANKS as i64), p.offset));
                        }
                        Space::Constant => {
                            has_const = true;
                            match first_const {
                                None => first_const = Some(p.offset),
                                Some(o) => const_uniform &= o == p.offset,
                            }
                        }
                    }
                }
                if global_count > 0 {
                    segs.sort_unstable();
                    segs.dedup();
                    let distinct = segs.len() as u64;
                    self.cost.global_accesses += global_count;
                    self.cost.global_transactions += distinct;
                    self.cycles += cost::GLOBAL_TRANSACTION * distinct;
                }
                if !banks.is_empty() {
                    banks.sort_unstable();
                    banks.dedup();
                    let mut degree = 1usize;
                    let mut run = 0usize;
                    let mut cur = None;
                    for &(b, _) in banks.iter() {
                        run = if Some(b) == cur { run + 1 } else { 1 };
                        cur = Some(b);
                        degree = degree.max(run);
                    }
                    self.cost.shared_accesses += 1;
                    self.cost.shared_conflicts += degree.saturating_sub(1) as u64;
                    self.cycles +=
                        cost::SHARED_ACCESS + cost::SHARED_CONFLICT * (degree as u64 - 1);
                }
                if has_const {
                    self.cycles += if const_uniform {
                        cost::SHARED_ACCESS
                    } else {
                        cost::GLOBAL_TRANSACTION
                    };
                }
            }
            Ok(())
        }
    }

    /// Run `f` on an executor for one block of `n` threads.
    fn with_exec(n: usize, f: impl FnOnce(&mut BatchExec<'_>)) {
        let (mut global, consts, mut budget) = (MemPool::new(), ConstMem::new(), i64::MAX);
        let env = KernelEnv {
            consts: &consts,
            grid: [1, 1, 1],
            block_dim: [n as i64, 1, 1],
            max_shared_bytes: 48 * 1024,
            warp_size: 32,
        };
        let ir = IrProgram::default();
        let mut ex = BatchExec::new(&env, &ir, Global::Owned(&mut global), &mut budget);
        ex.recount();
        f(&mut ex);
    }

    fn ptr(space: Space, alloc: u32, offset: i64) -> Ptr {
        Ptr {
            space,
            alloc,
            offset,
            elem: ElemType::F32,
            level: 0,
        }
    }

    /// Counters and cycles a charge leaves behind, from a clean slate.
    fn charged(
        ex: &mut BatchExec<'_>,
        charge: impl FnOnce(&mut BatchExec<'_>) -> Result<(), Diag>,
    ) -> (CostSummary, u64) {
        ex.cost = CostSummary::default();
        ex.cycles = 0;
        charge(ex).unwrap();
        (ex.cost, ex.cycles)
    }

    /// Assert old and new accounting agree on `ptrs` (`None` = lane
    /// inactive) — and, when every pointer shares a header, that the
    /// typed-lane entry point agrees too.
    fn assert_same_charge(ex: &mut BatchExec<'_>, ptrs: &[Option<Ptr>], what: &str) {
        let pos = Pos::unknown();
        for (lane, p) in ptrs.iter().enumerate() {
            ex.active[lane] = p.is_some();
        }
        ex.recount();
        let want = charged(ex, |ex| ex.charge_memory_reference(ptrs, pos));
        let got = charged(ex, |ex| ex.charge_memory(ptrs, pos));
        assert_eq!(got, want, "{what}: generic lanes");
        let mut present = ptrs.iter().flatten();
        let Some(head) = present.next().map(|p| head_of(*p)) else {
            return;
        };
        if present.all(|p| head_of(*p) == head) {
            // Inactive lanes carry an offset the charge must ignore.
            let offs: Vec<i64> = ptrs.iter().map(|p| p.map_or(-7, |p| p.offset)).collect();
            let got = charged(ex, |ex| ex.charge_lanes(head, &offs, pos));
            assert_eq!(got, want, "{what}: typed lanes");
        }
    }

    #[test]
    fn sort_free_accounting_matches_the_sorting_oracle() {
        // 80 lanes: two full warps and a last warp of 16.
        let n = 80;
        with_exec(n, |ex| {
            let mut rng = libwb::rng::SplitMix64::new(0x5eed_2016);
            let lanes = |f: &dyn Fn(usize) -> i64, space: Space| -> Vec<Option<Ptr>> {
                (0..n).map(|i| Some(ptr(space, 3, f(i)))).collect()
            };
            for space in [Space::Shared, Space::Global, Space::Constant, Space::Host] {
                let tag = |s: &str| format!("{s} in {space:?}");
                assert_same_charge(ex, &lanes(&|_| 5, space), &tag("broadcast"));
                assert_same_charge(ex, &lanes(&|i| i as i64, space), &tag("unit stride"));
                for stride in [2, 16, 17, 32, 33] {
                    let p = lanes(&|i| (i * stride) as i64, space);
                    assert_same_charge(ex, &p, &tag(&format!("stride {stride}")));
                }
                assert_same_charge(ex, &lanes(&|i| (n - i) as i64 * 3, space), &tag("reversed"));
                assert_same_charge(
                    ex,
                    &lanes(&|i| -(i as i64) * 5 - 1, space),
                    &tag("negative"),
                );
                assert_same_charge(ex, &lanes(&|i| (i % 4) as i64 * 32, space), &tag("4-way"));
                // Monotone warps, plateaus included, which never search,
                // and warps that turn back, which do.
                let shapes: [(&str, &dyn Fn(usize) -> i64); 6] = [
                    ("ascending across segments", &|i| (i * 7) as i64),
                    ("descending across segments", &|i| (n - i) as i64 * 9 - 40),
                    ("plateaus", &|i| (i / 5) as i64 * 40),
                    ("descending plateaus", &|i| -((i / 3) as i64) * 50),
                    ("up then down", &|i| (i % 32).min(32 - i % 32) as i64 * 33),
                    ("down then up", &|i| (i % 32).abs_diff(16) as i64 * 40),
                ];
                for (what, f) in shapes {
                    let mut p = lanes(f, space);
                    assert_same_charge(ex, &p, &tag(what));
                    for slot in p.iter_mut().skip(1).step_by(3) {
                        *slot = None;
                    }
                    assert_same_charge(ex, &p, &tag(&format!("{what}, partial")));
                }
                for round in 0..40 {
                    let span = [8, 64, 4096][round % 3];
                    let mut p: Vec<Option<Ptr>> = (0..n)
                        .map(|_| Some(ptr(space, 3, rng.range(0..span) as i64 - span as i64 / 4)))
                        .collect();
                    assert_same_charge(ex, &p, &tag(&format!("random {round}")));
                    // Partial masks, down to whole warps switched off.
                    for slot in p.iter_mut() {
                        if rng.range(0..3u64) == 0 {
                            *slot = None;
                        }
                    }
                    p[32..64].fill(None);
                    assert_same_charge(ex, &p, &tag(&format!("random partial {round}")));
                }
            }
            assert_same_charge(ex, &vec![None; n], "empty mask");
            // Two global allocations inside one warp, then every space
            // at once: only the generic entry point takes these.
            let two: Vec<Option<Ptr>> = (0..n)
                .map(|i| Some(ptr(Space::Global, (i % 2) as u32, (i / 2) as i64)))
                .collect();
            assert_same_charge(ex, &two, "two allocations");
            for round in 0..40 {
                let mixed: Vec<Option<Ptr>> = (0..n)
                    .map(|_| {
                        let space = [Space::Shared, Space::Global, Space::Constant, Space::Host]
                            [rng.range(0..4u64) as usize];
                        let alloc = rng.range(0..3u64) as u32;
                        let offset = rng.range(0..256u64) as i64 - 64;
                        (rng.range(0..5u64) > 0).then(|| ptr(space, alloc, offset))
                    })
                    .collect();
                assert_same_charge(ex, &mixed, &format!("mixed spaces {round}"));
            }
        });
    }

    #[test]
    fn uniform_charge_is_the_closed_form_of_the_lane_charge() {
        with_exec(80, |ex| {
            let pos = Pos::unknown();
            for lane in 0..80 {
                ex.active[lane] = lane % 3 != 0 && !(32..64).contains(&lane);
            }
            ex.recount();
            for space in [Space::Shared, Space::Global, Space::Constant] {
                let p = ptr(space, 1, 9);
                let ptrs: Vec<Option<Ptr>> = ex.active.iter().map(|&a| a.then_some(p)).collect();
                let want = charged(ex, |ex| ex.charge_memory_reference(&ptrs, pos));
                let got = charged(ex, |ex| ex.charge_memory_uniform(p, pos));
                assert_eq!(got, want, "{space:?}");
            }
        });
    }

    #[test]
    fn typed_stores_encode_like_the_scalar_store() {
        let samples: [Value; 8] = [
            Value::I(0),
            Value::I(-7),
            Value::I(1 << 40),
            Value::F(2.75),
            Value::F(-0.0),
            Value::F(3.0e10),
            Value::B(true),
            Value::B(false),
        ];
        let mut words = [0u32];
        for elem in [ElemType::F32, ElemType::I32, ElemType::Unknown] {
            let p = Ptr {
                elem,
                ..ptr(Space::Global, 0, 0)
            };
            for v in samples {
                memory::store(&mut words, p, elem, v).unwrap();
                let want = words[0];
                let got = match v {
                    Value::I(x) => store_bits(x, elem),
                    Value::F(x) => store_bits(x, elem),
                    Value::B(x) => store_bits(x, elem),
                    Value::P(_) => unreachable!(),
                };
                assert_eq!(got, want, "{v:?} through {elem:?}");
            }
        }
    }
}
