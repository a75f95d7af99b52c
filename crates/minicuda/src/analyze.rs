//! Static kernel analysis: the verifier that runs between compile and
//! grade.
//!
//! The classic student GPU bugs — shared-memory races, barriers under
//! divergent control flow, out-of-bounds shared indexing — normally
//! surface only at runtime, one dataset execution at a time. This
//! module finds them *statically*, on the same kernel IR the batched
//! executor runs, so the platform can warn (or refuse) before any lane
//! executes.
//!
//! Two abstract domains drive every checker:
//!
//! * **Uniformity** — per-register "same value in every thread of the
//!   block?" lattice, the static analogue of the thread-invariance the
//!   LICM pass exploits. Thread-id reads, memory loads, and atomics
//!   are non-uniform sources; values computed from uniform operands
//!   under uniform control stay uniform.
//! * **Affine intervals** — indices as `base + Σ coeff·sym` over the
//!   thread/block-id axes and simple loop induction variables, with
//!   per-symbol ranges refined by dominating guards (`if (tid < K)`).
//!
//! Soundness stance: the verifier is **incomplete by design, never
//! noisy**. Every reported finding is backed by a concrete witness
//! (a thread pair, an index value) under *some* launch configuration;
//! anything the domains cannot prove is silently skipped. Concretely:
//! indices that are non-affine, multi-axis, or block-id-dependent are
//! never reported as races; out-of-bounds is reported only when the
//! offending range is certified by constants, guards, or constant-
//! bounded induction; device-function bodies are not inlined. A clean
//! report therefore does not certify the kernel — it certifies that
//! the cheap domains found nothing, which is exactly the contract a
//! warn-by-default pipeline needs.
//!
//! Determinism: findings depend only on the *unoptimized* lowering of
//! the sema'd program (the analyzer lowers for itself), so the verdict
//! is identical at `O0` and `O2` and can be cached under the compile
//! key.

use crate::ast::{BinOp, BuiltinVar, ExprId, Stmt, Type, UnOp};
use crate::diag::{Diag, Phase, Pos};
use crate::fx::{FxHashMap, FxHashSet};
use crate::ir::{BlockId, Inst, IrFunc, IrProgram, OclFn, Reg};
use crate::lower;
use crate::passes::RegSet;
use crate::sema::Program;
use crate::value::Value;
use std::collections::BTreeMap;

/// Per-lab policy for the analysis phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AnalysisPolicy {
    /// Skip the analyzer entirely.
    Off,
    /// Run the analyzer and carry findings on the outcome without
    /// affecting grading (the default: feedback, not enforcement).
    #[default]
    Warn,
    /// Reject submissions with findings before any dataset runs.
    Deny,
}

impl AnalysisPolicy {
    /// True when the analyzer runs at all (Warn or Deny).
    pub fn enabled(self) -> bool {
        !matches!(self, AnalysisPolicy::Off)
    }
}

/// Which checker produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// A barrier lexically nested under a non-uniform condition.
    BarrierDivergence,
    /// Conflicting same-interval accesses to one `__shared__` array.
    SharedRace,
    /// A shared-array index provably outside the declared extent.
    OutOfBounds,
    /// A variable read before any assignment initializes it.
    UninitRead,
}

impl CheckKind {
    /// Short student-facing tag used when rendering findings.
    pub fn label(self) -> &'static str {
        match self {
            CheckKind::BarrierDivergence => "barrier-divergence",
            CheckKind::SharedRace => "shared-race",
            CheckKind::OutOfBounds => "out-of-bounds",
            CheckKind::UninitRead => "uninit-read",
        }
    }

    fn rank(self) -> u8 {
        match self {
            CheckKind::BarrierDivergence => 0,
            CheckKind::SharedRace => 1,
            CheckKind::OutOfBounds => 2,
            CheckKind::UninitRead => 3,
        }
    }
}

/// One verifier finding: a checker tag plus a rendered diagnostic with
/// position and (where a witness exists) thread attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Producing checker.
    pub kind: CheckKind,
    /// Student-facing diagnostic (`Phase::Analysis`).
    pub diag: Diag,
}

impl Finding {
    /// Render the finding the way the attempt view shows it.
    pub fn render(&self) -> String {
        format!("[{}] {}", self.kind.label(), self.diag)
    }
}

/// Analyze every kernel of a compiled program.
///
/// The analyzer lowers the program for itself (never reusing an
/// attached, possibly optimized IR), so the verdict is a function of
/// the source alone — identical across opt levels. The product path
/// uses [`crate::compile_analyzed`] instead, which analyzes the one
/// lowering its compile makes.
pub fn analyze_program(p: &Program) -> Vec<Finding> {
    analyze_lowered(p, &lower::lower_program(p))
}

/// Analyze `ir`, the unoptimized lowering of `p`.
pub(crate) fn analyze_lowered(p: &Program, ir: &IrProgram) -> Vec<Finding> {
    analyze_ir_with_caps(ir, &launch_caps(p))
}

/// Kernels are visited in name order and findings sorted, so the
/// result is deterministic.
fn analyze_ir_with_caps(ir: &IrProgram, caps: &FxHashMap<&str, [Option<i64>; 3]>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in ir.funcs.values().filter(|f| f.kernel) {
        let cap = caps.get(f.name.as_str()).copied().unwrap_or([None; 3]);
        FuncAnalysis::new(f, cap).run(&mut findings);
    }
    findings.sort_by(|a, b| {
        (
            a.diag.pos.line,
            a.diag.pos.col,
            a.kind.rank(),
            &a.diag.message,
        )
            .cmp(&(
                b.diag.pos.line,
                b.diag.pos.col,
                b.kind.rank(),
                &b.diag.message,
            ))
    });
    findings.dedup();
    findings
}

/// Per-kernel certified thread-id maxima, scraped from host-side
/// launch sites. An axis gets `Some(max)` only when **every** launch
/// of that kernel gives the axis a constant extent — then no thread id
/// above `max` can ever exist, which sharpens both the race existence
/// solver and the bounds checker (`buf[t + BLOCK]` is fine precisely
/// because the block has `BLOCK` threads).
fn launch_caps(p: &Program) -> FxHashMap<&str, [Option<i64>; 3]> {
    let mut caps = FxHashMap::default();
    // Every statement sits once in its function's arena, so a flat
    // scan finds every launch, however deeply nested.
    for f in p.funcs() {
        for s in &f.stmts {
            let Stmt::Launch {
                kernel, operands, ..
            } = *s
            else {
                continue;
            };
            let block: Vec<ExprId> = operands.block().ids().collect();
            let ext = |e: Option<&ExprId>| match e {
                None => Some(1),
                Some(&e) => crate::sema::const_eval(&f.exprs, e).filter(|&v| v >= 1),
            };
            let axes = [ext(block.first()), ext(block.get(1)), ext(block.get(2))];
            let entry = caps
                .entry(p.name(kernel))
                .or_insert([Some(0), Some(0), Some(0)]);
            for (slot, ext) in entry.iter_mut().zip(axes) {
                *slot = match (*slot, ext) {
                    (Some(cur), Some(e)) => Some(cur.max(e - 1)),
                    _ => None,
                };
            }
        }
    }
    caps
}

// ---------------------------------------------------------------------
// Affine domain
// ---------------------------------------------------------------------

/// Symbolic axes of the affine domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sym {
    /// `threadIdx` axis 0/1/2.
    Tid(u8),
    /// `blockIdx` axis 0/1/2.
    Bid(u8),
    /// A detected loop induction variable.
    Ind(u32),
}

/// An affine form `base + Σ coeff·sym`, or Unknown.
#[derive(Debug, Clone, PartialEq)]
enum Aff {
    Val {
        base: i64,
        coeffs: BTreeMap<Sym, i64>,
    },
    Unknown,
}

impl Aff {
    fn konst(v: i64) -> Aff {
        Aff::Val {
            base: v,
            coeffs: BTreeMap::new(),
        }
    }

    fn sym(s: Sym) -> Aff {
        Aff::Val {
            base: 0,
            coeffs: BTreeMap::from([(s, 1)]),
        }
    }

    fn as_const(&self) -> Option<i64> {
        match self {
            Aff::Val { base, coeffs } if coeffs.is_empty() => Some(*base),
            _ => None,
        }
    }

    /// `(sym, coeff, base)` when exactly one symbol carries a nonzero
    /// coefficient.
    fn single_sym(&self) -> Option<(Sym, i64, i64)> {
        match self {
            Aff::Val { base, coeffs } if coeffs.len() == 1 => {
                let (&s, &c) = coeffs.iter().next().unwrap();
                Some((s, c, *base))
            }
            _ => None,
        }
    }

    fn combine(&self, other: &Aff, sign: i64) -> Aff {
        let (
            Aff::Val {
                base: b1,
                coeffs: c1,
            },
            Aff::Val {
                base: b2,
                coeffs: c2,
            },
        ) = (self, other)
        else {
            return Aff::Unknown;
        };
        let Some(base) = b1.checked_add(sign.wrapping_mul(*b2)) else {
            return Aff::Unknown;
        };
        let mut coeffs = c1.clone();
        for (&s, &c) in c2 {
            let e = coeffs.entry(s).or_insert(0);
            *e += sign * c;
            if *e == 0 {
                coeffs.remove(&s);
            }
        }
        Aff::Val { base, coeffs }
    }

    fn scale(&self, k: i64) -> Aff {
        let Aff::Val { base, coeffs } = self else {
            return Aff::Unknown;
        };
        if k == 0 {
            return Aff::konst(0);
        }
        let Some(base) = base.checked_mul(k) else {
            return Aff::Unknown;
        };
        Aff::Val {
            base,
            coeffs: coeffs.iter().map(|(&s, &c)| (s, c * k)).collect(),
        }
    }
}

/// Per-symbol interval. The lower bound is always certified (ids and
/// detected induction variables never go below their floor); the upper
/// bound is `Some` only when a guard or a constant loop bound
/// certified it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Range {
    lo: i64,
    hi: Option<i64>,
}

impl Range {
    fn full() -> Range {
        Range { lo: 0, hi: None }
    }

    /// The range used for *existence* questions (is there a thread
    /// with this id?): uncertified uppers fall back to the maximum
    /// block extent.
    fn existence_hi(&self) -> i64 {
        self.hi.unwrap_or(MAX_TID)
    }

    fn is_empty(&self) -> bool {
        self.existence_hi() < self.lo
    }
}

/// Largest thread id along one axis (CUDA's 1024-thread block cap).
const MAX_TID: i64 = 1023;

/// Guard context: symbol ranges plus the uniform-`if` path used to
/// recognize mutually exclusive branches.
#[derive(Debug, Clone, Default)]
struct Ctx {
    ranges: BTreeMap<Sym, Range>,
    /// `(if-site id, arm)` for every enclosing *uniform* conditional.
    path: Vec<(u32, u8)>,
}

impl Ctx {
    fn range(&self, s: Sym, induction: &[Range], caps: &[Option<i64>; 3]) -> Range {
        let mut r = self
            .ranges
            .get(&s)
            .copied()
            .unwrap_or_else(|| induction_range(s, induction));
        if let Sym::Tid(axis) = s {
            if let Some(cap) = caps[axis as usize] {
                r.hi = Some(r.hi.map_or(cap, |h| h.min(cap)));
            }
        }
        r
    }

    fn constrain(&mut self, s: Sym, lo: Option<i64>, hi: Option<i64>, base: Range) {
        let cur = self.ranges.entry(s).or_insert(base);
        if let Some(l) = lo {
            cur.lo = cur.lo.max(l);
        }
        if let Some(h) = hi {
            cur.hi = Some(cur.hi.map_or(h, |x| x.min(h)));
        }
    }
}

// ---------------------------------------------------------------------
// Access events
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    Atomic,
}

#[derive(Debug, Clone)]
struct Access {
    spec: u32,
    kind: AccessKind,
    /// Flattened element offset.
    idx: Aff,
    interval: u32,
    ctx: Ctx,
    pos: Pos,
}

/// A partially indexed shared array (row pointers of multi-dim
/// arrays, or a computed element address).
#[derive(Debug, Clone)]
struct Shape {
    spec: u32,
    /// Dimensions consumed so far.
    level: usize,
    /// Flattened element offset of the levels consumed.
    offset: Aff,
}

// ---------------------------------------------------------------------
// Per-function analysis
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum DefSite {
    None,
    One(BlockId, usize),
    Many,
}

struct FuncAnalysis<'a> {
    f: &'a IrFunc,
    /// Certified per-axis thread-id maxima from constant launch dims.
    cap: [Option<i64>; 3],
    defs: Vec<DefSite>,
    uniform: Vec<bool>,
    /// Set while a uniformity pass demotes a register.
    demoted: bool,
    /// The induction symbol of each register detected as one.
    induction: Vec<Option<Sym>>,
    /// The certified range of each induction symbol, by its id.
    induction_ranges: Vec<Range>,
    aff_memo: Vec<Option<Aff>>,
    /// The shared array a register points into, by register.
    shapes: Vec<Option<Shape>>,
    accesses: Vec<Access>,
    interval: u32,
    next_if_site: u32,
    findings: Vec<Finding>,
    reported_uninit: RegSet,
    /// Scratch for one instruction's source registers.
    srcs: Vec<Reg>,
}

impl<'a> FuncAnalysis<'a> {
    fn new(f: &'a IrFunc, cap: [Option<i64>; 3]) -> Self {
        let n = f.num_regs as usize;
        let mut defs = vec![DefSite::None; n];
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, inst) in b.insts.iter().enumerate() {
                if let Some(d) = inst.dst() {
                    defs[d as usize] = match defs[d as usize] {
                        DefSite::None => DefSite::One(bi as BlockId, ii),
                        _ => DefSite::Many,
                    };
                }
            }
        }
        FuncAnalysis {
            f,
            cap,
            defs,
            uniform: vec![true; n],
            demoted: false,
            induction: vec![None; n],
            induction_ranges: Vec::new(),
            aff_memo: vec![None; n],
            shapes: vec![None; n],
            accesses: Vec::new(),
            interval: 0,
            next_if_site: 0,
            findings: Vec::new(),
            reported_uninit: RegSet::new(f.num_regs),
            srcs: Vec::new(),
        }
    }

    fn inst_at(&self, site: DefSite) -> Option<&'a Inst> {
        match site {
            DefSite::One(b, i) => Some(&self.f.blocks[b as usize].insts[i]),
            _ => None,
        }
    }

    fn run(mut self, out: &mut Vec<Finding>) {
        self.detect_induction();
        self.compute_uniformity();
        self.walk_block(0, &mut Ctx::default(), true);
        self.check_races();
        self.check_uninit();
        out.append(&mut self.findings);
    }

    // -- uniformity ----------------------------------------------------

    fn compute_uniformity(&mut self) {
        // Fixpoint: re-walk until no register flips to non-uniform.
        loop {
            self.demoted = false;
            self.uniformity_block(0, true);
            if !self.demoted {
                break;
            }
        }
    }

    fn demote(&mut self, r: Reg) {
        self.demoted |= std::mem::replace(&mut self.uniform[r as usize], false);
    }

    fn cond_uniform(&self, r: Reg) -> bool {
        self.uniform[r as usize]
    }

    fn uniformity_block(&mut self, b: BlockId, ctx_uniform: bool) {
        let f = self.f;
        for inst in &f.blocks[b as usize].insts {
            self.srcs.clear();
            inst.srcs(&mut self.srcs);
            let srcs_uniform = self.srcs.iter().all(|&r| self.uniform[r as usize]);
            match inst {
                Inst::Builtin { dst, which, .. } => {
                    if *which == BuiltinVar::ThreadIdx {
                        self.demote(*dst);
                    }
                }
                Inst::OclId { dst, which, .. } => {
                    if matches!(which, OclFn::LocalId | OclFn::GlobalId) {
                        self.demote(*dst);
                    }
                }
                Inst::Load { dst, .. }
                | Inst::LoadPtr { dst, .. }
                | Inst::Atomic { dst, .. }
                | Inst::AtomicCas { dst, .. }
                | Inst::Call { dst, .. } => {
                    // Memory contents and callee effects are opaque.
                    self.demote(*dst);
                }
                Inst::Assign { var, .. } => {
                    if !srcs_uniform || !ctx_uniform {
                        self.demote(*var);
                    }
                }
                Inst::If {
                    cond,
                    then_b,
                    else_b,
                    ..
                } => {
                    let inner = ctx_uniform && self.cond_uniform(*cond);
                    self.uniformity_block(*then_b, inner);
                    if let Some(e) = else_b {
                        self.uniformity_block(*e, inner);
                    }
                }
                Inst::Ternary {
                    dst,
                    cond,
                    then_b,
                    else_b,
                    ..
                } => {
                    let inner = ctx_uniform && self.cond_uniform(*cond);
                    self.uniformity_block(*then_b, inner);
                    self.uniformity_block(*else_b, inner);
                    if !srcs_uniform || !inner {
                        self.demote(*dst);
                    }
                }
                Inst::Logic { dst, a, rhs_b, .. } => {
                    let inner = ctx_uniform && self.cond_uniform(*a);
                    self.uniformity_block(*rhs_b, inner);
                    if !srcs_uniform || !inner {
                        self.demote(*dst);
                    }
                }
                Inst::Loop {
                    cond_b,
                    cond_r,
                    body_b,
                    step_b,
                    ..
                } => {
                    let inner = ctx_uniform && (cond_b.is_none() || self.cond_uniform(*cond_r));
                    if let Some(c) = cond_b {
                        self.uniformity_block(*c, ctx_uniform);
                    }
                    self.uniformity_block(*body_b, inner);
                    if let Some(s) = step_b {
                        self.uniformity_block(*s, inner);
                    }
                }
                _ => {
                    if let Some(dst) = inst.dst() {
                        if !srcs_uniform || !ctx_uniform {
                            self.demote(dst);
                        }
                    }
                }
            }
        }
    }

    // -- induction detection -------------------------------------------

    /// Recognize `i = C; loop { cond: i < K (const) ... step: i += c }`
    /// registers and give them a certified-range symbol.
    fn detect_induction(&mut self) {
        let mut next_ind = 0u32;
        let mut cands: Vec<(Reg, i64, i64)> = Vec::new(); // (reg, init, hi)
        for b in &self.f.blocks {
            for inst in &b.insts {
                let Inst::Loop {
                    cond_b: Some(cb),
                    cond_r,
                    body_b,
                    step_b,
                    ..
                } = inst
                else {
                    continue;
                };
                // Condition must be `r < K` / `r <= K` on a register.
                let Some(cdef) = self
                    .f
                    .blocks
                    .get(*cb as usize)
                    .and_then(|blk| blk.insts.iter().find(|i| i.dst() == Some(*cond_r)))
                else {
                    continue;
                };
                let Inst::Bin {
                    op, a, b: bound, ..
                } = cdef
                else {
                    continue;
                };
                let hi_off = match op {
                    BinOp::Lt => -1,
                    BinOp::Le => 0,
                    _ => continue,
                };
                let Some(k) = self.const_of(*bound) else {
                    continue;
                };
                let r = *a;
                // The register's one non-assign def must be an integer
                // constant (possibly coerced), i.e. a decl init.
                let Some(init) = self.init_const(r) else {
                    continue;
                };
                // Every Assign to r must be a positive constant step
                // and live inside this loop's body/step blocks.
                let mut loop_blocks = vec![*body_b];
                if let Some(s) = step_b {
                    loop_blocks.push(*s);
                }
                let mut all = Vec::new();
                for lb in &loop_blocks {
                    self.collect_blocks(*lb, &mut all);
                }
                if !self.assigns_are_increments(r, &all) {
                    continue;
                }
                let hi = k + hi_off;
                if init <= hi {
                    cands.push((r, init, hi));
                }
            }
        }
        for (r, init, hi) in cands {
            if self.induction[r as usize].is_none() {
                self.induction[r as usize] = Some(Sym::Ind(next_ind));
                next_ind += 1;
                self.induction_ranges.push(Range {
                    lo: init,
                    hi: Some(hi),
                });
            }
        }
    }

    fn collect_blocks(&self, b: BlockId, out: &mut Vec<BlockId>) {
        out.push(b);
        let mut kids = Vec::new();
        for inst in &self.f.blocks[b as usize].insts {
            kids.clear();
            inst.child_blocks(&mut kids);
            for &k in &kids {
                self.collect_blocks(k, out);
            }
        }
    }

    /// The register's sole non-`Assign` def, as an integer constant.
    fn init_const(&self, r: Reg) -> Option<i64> {
        let mut init = None;
        for b in &self.f.blocks {
            for inst in &b.insts {
                if inst.dst() != Some(r) {
                    continue;
                }
                match inst {
                    Inst::Assign { .. } => {}
                    Inst::Const { v: Value::I(n), .. } => {
                        if init.replace(*n).is_some() {
                            return None;
                        }
                    }
                    Inst::Coerce {
                        a, ty: Type::INT, ..
                    } => {
                        let c = self.const_of(*a)?;
                        if init.replace(c).is_some() {
                            return None;
                        }
                    }
                    _ => return None,
                }
            }
        }
        init
    }

    /// Every `Assign` to `r` sits in `blocks` and adds a positive
    /// constant.
    fn assigns_are_increments(&self, r: Reg, blocks: &[BlockId]) -> bool {
        let mut saw = false;
        for (bi, b) in self.f.blocks.iter().enumerate() {
            for inst in &b.insts {
                let Inst::Assign { var, src, .. } = inst else {
                    continue;
                };
                if *var != r {
                    continue;
                }
                saw = true;
                if !blocks.contains(&(bi as BlockId)) {
                    return false;
                }
                let step = match self.inst_at(self.defs[*src as usize]) {
                    Some(Inst::Bin {
                        op: BinOp::Add,
                        a,
                        b,
                        ..
                    }) => {
                        if *a == r {
                            self.const_of(*b)
                        } else if *b == r {
                            self.const_of(*a)
                        } else {
                            None
                        }
                    }
                    Some(Inst::Coerce {
                        a, ty: Type::INT, ..
                    }) => match self.inst_at(self.defs[*a as usize]) {
                        Some(Inst::Bin {
                            op: BinOp::Add,
                            a: x,
                            b: y,
                            ..
                        }) => {
                            if *x == r {
                                self.const_of(*y)
                            } else if *y == r {
                                self.const_of(*x)
                            } else {
                                None
                            }
                        }
                        _ => None,
                    },
                    _ => None,
                };
                match step {
                    Some(s) if s > 0 => {}
                    _ => return false,
                }
            }
        }
        saw
    }

    fn const_of(&self, r: Reg) -> Option<i64> {
        match self.inst_at(self.defs[r as usize]) {
            Some(Inst::Const { v: Value::I(n), .. }) => Some(*n),
            Some(Inst::Coerce {
                a, ty: Type::INT, ..
            }) => self.const_of(*a),
            _ => None,
        }
    }

    // -- affine values -------------------------------------------------

    fn aff_of(&mut self, r: Reg) -> Aff {
        if let Some(s) = self.induction[r as usize] {
            return Aff::sym(s);
        }
        if let Some(a) = &self.aff_memo[r as usize] {
            return a.clone();
        }
        // Mark in-progress to break (impossible, but cheap) cycles.
        self.aff_memo[r as usize] = Some(Aff::Unknown);
        let a = self.aff_uncached(r);
        self.aff_memo[r as usize] = Some(a.clone());
        a
    }

    fn aff_uncached(&mut self, r: Reg) -> Aff {
        let Some(inst) = self.inst_at(self.defs[r as usize]) else {
            return Aff::Unknown;
        };
        match *inst {
            Inst::Const { v: Value::I(n), .. } => Aff::konst(n),
            Inst::Const { v: Value::B(b), .. } => Aff::konst(b as i64),
            Inst::Builtin { which, axis, .. } => match which {
                BuiltinVar::ThreadIdx => Aff::sym(Sym::Tid(axis)),
                BuiltinVar::BlockIdx => Aff::sym(Sym::Bid(axis)),
                _ => Aff::Unknown,
            },
            Inst::OclId { which, dim, .. } => {
                let axis = self.aff_of(dim).as_const();
                match (which, axis) {
                    (OclFn::LocalId, Some(d)) if (0..3).contains(&d) => Aff::sym(Sym::Tid(d as u8)),
                    (OclFn::GroupId, Some(d)) if (0..3).contains(&d) => Aff::sym(Sym::Bid(d as u8)),
                    _ => Aff::Unknown,
                }
            }
            Inst::Un {
                op: UnOp::Neg, a, ..
            } => self.aff_of(a).scale(-1),
            Inst::Bin { op, a, b, .. } => {
                let (fa, fb) = (self.aff_of(a), self.aff_of(b));
                match op {
                    BinOp::Add => fa.combine(&fb, 1),
                    BinOp::Sub => fa.combine(&fb, -1),
                    BinOp::Mul => match (fa.as_const(), fb.as_const()) {
                        (Some(k), _) => fb.scale(k),
                        (_, Some(k)) => fa.scale(k),
                        _ => Aff::Unknown,
                    },
                    _ => Aff::Unknown,
                }
            }
            Inst::Coerce {
                a, ty: Type::INT, ..
            } => self.aff_of(a),
            _ => Aff::Unknown,
        }
    }

    // -- guard constraints ---------------------------------------------

    /// Refine `ctx` with what holds when `cond` is true (`truth`) on
    /// the taken arm. Only conjunctions of single-symbol comparisons
    /// against constants refine anything; everything else is a no-op.
    fn apply_guard(&mut self, cond: Reg, truth: bool, ctx: &mut Ctx) {
        let Some(inst) = self.inst_at(self.defs[cond as usize]) else {
            return;
        };
        match *inst {
            Inst::Bin { op, a, b, .. } if op.is_comparison() => {
                self.apply_cmp(op, a, b, truth, ctx);
            }
            // `a && b` true → both; `a || b` false → both false.
            Inst::Logic { op, a, rhs_r, .. }
                if (op == BinOp::And && truth) || (op == BinOp::Or && !truth) =>
            {
                self.apply_guard(a, truth, ctx);
                self.apply_guard(rhs_r, truth, ctx);
            }
            Inst::Un {
                op: UnOp::Not, a, ..
            } => self.apply_guard(a, !truth, ctx),
            Inst::Coerce {
                a, ty: Type::BOOL, ..
            } => self.apply_guard(a, truth, ctx),
            _ => {}
        }
    }

    fn apply_cmp(&mut self, op: BinOp, a: Reg, b: Reg, truth: bool, ctx: &mut Ctx) {
        let diff = self.aff_of(a).combine(&self.aff_of(b), -1);
        let Some((s, c, base)) = diff.single_sym() else {
            return;
        };
        // `c·s + base OP 0`; normalize to a positive coefficient.
        let (c, base, op) = if c < 0 {
            (-c, -base, flip_cmp(op))
        } else {
            (c, base, op)
        };
        let op = if truth { op } else { negate_cmp(op) };
        let basev = self.induction_base(s);
        match op {
            // c·s + base < 0  →  s ≤ ⌊(-base - 1)/c⌋
            BinOp::Lt => ctx.constrain(s, None, Some((-base - 1).div_euclid(c)), basev),
            BinOp::Le => ctx.constrain(s, None, Some((-base).div_euclid(c)), basev),
            // c·s + base > 0  →  s ≥ ⌈(1 - base)/c⌉
            BinOp::Gt => ctx.constrain(s, Some(ceil_div(1 - base, c)), None, basev),
            BinOp::Ge => ctx.constrain(s, Some(ceil_div(-base, c)), None, basev),
            BinOp::Eq if base.rem_euclid(c) == 0 => {
                let v = (-base).div_euclid(c);
                ctx.constrain(s, Some(v), Some(v), basev);
            }
            _ => {}
        }
    }

    fn induction_base(&self, s: Sym) -> Range {
        induction_range(s, &self.induction_ranges)
    }

    // -- the structured walk -------------------------------------------

    /// Collect access events, split barrier intervals, and flag
    /// divergent barriers, in one pass over the structured blocks.
    fn walk_block(&mut self, b: BlockId, ctx: &mut Ctx, ctx_uniform: bool) {
        let f = self.f;
        for inst in &f.blocks[b as usize].insts {
            match inst {
                Inst::Barrier { pos } => {
                    self.interval += 1;
                    if !ctx_uniform {
                        let witness = self.divergence_witness(ctx);
                        self.findings.push(Finding {
                            kind: CheckKind::BarrierDivergence,
                            diag: Diag::new(
                                Phase::Analysis,
                                *pos,
                                "__syncthreads() under a thread-dependent condition: \
                                 threads that skip the branch never reach the barrier",
                            )
                            .with_thread(0, witness),
                        });
                    }
                }
                Inst::DeclShared { dst, spec, .. } => {
                    self.shapes[*dst as usize] = Some(Shape {
                        spec: *spec,
                        level: 0,
                        offset: Aff::konst(0),
                    });
                }
                Inst::Load {
                    dst,
                    base,
                    idx,
                    pos,
                } => {
                    if let Some(shape) = self.shapes[*base as usize].clone() {
                        let next = self.index_shape(&shape, *idx, *pos, ctx);
                        if next.level == self.dims(shape.spec).len() {
                            self.record_access(&next, AccessKind::Read, ctx, *pos);
                        } else {
                            self.shapes[*dst as usize] = Some(next);
                        }
                    }
                }
                Inst::Store { base, idx, pos, .. } => {
                    if let Some(shape) = self.shapes[*base as usize].clone() {
                        let next = self.index_shape(&shape, *idx, *pos, ctx);
                        self.record_access(&next, AccessKind::Write, ctx, *pos);
                    }
                }
                Inst::Addr {
                    dst,
                    base,
                    idx,
                    pos,
                } => {
                    if let Some(shape) = self.shapes[*base as usize].clone() {
                        let next = self.index_shape(&shape, *idx, *pos, ctx);
                        self.shapes[*dst as usize] = Some(next);
                    }
                }
                Inst::LoadPtr { ptr, pos, .. } => {
                    if let Some(shape) = self.shapes[*ptr as usize].clone() {
                        self.record_access(&shape, AccessKind::Read, ctx, *pos);
                    }
                }
                Inst::StorePtr { ptr, pos, .. } => {
                    if let Some(shape) = self.shapes[*ptr as usize].clone() {
                        self.record_access(&shape, AccessKind::Write, ctx, *pos);
                    }
                }
                Inst::Atomic { ptr, pos, .. } | Inst::AtomicCas { ptr, pos, .. } => {
                    if let Some(shape) = self.shapes[*ptr as usize].clone() {
                        self.record_access(&shape, AccessKind::Atomic, ctx, *pos);
                    }
                }
                Inst::If {
                    cond,
                    then_b,
                    else_b,
                    ..
                } => {
                    let uni = self.cond_uniform(*cond);
                    let site = self.next_if_site;
                    self.next_if_site += 1;
                    let inner_uniform = ctx_uniform && uni;
                    let mut then_ctx = ctx.clone();
                    self.apply_guard(*cond, true, &mut then_ctx);
                    if uni {
                        then_ctx.path.push((site, 0));
                    }
                    self.walk_block(*then_b, &mut then_ctx, inner_uniform);
                    if let Some(e) = else_b {
                        let mut else_ctx = ctx.clone();
                        self.apply_guard(*cond, false, &mut else_ctx);
                        if uni {
                            else_ctx.path.push((site, 1));
                        }
                        self.walk_block(*e, &mut else_ctx, inner_uniform);
                    }
                }
                Inst::Ternary {
                    cond,
                    then_b,
                    else_b,
                    ..
                } => {
                    let inner = ctx_uniform && self.cond_uniform(*cond);
                    let mut then_ctx = ctx.clone();
                    self.apply_guard(*cond, true, &mut then_ctx);
                    self.walk_block(*then_b, &mut then_ctx, inner);
                    let mut else_ctx = ctx.clone();
                    self.apply_guard(*cond, false, &mut else_ctx);
                    self.walk_block(*else_b, &mut else_ctx, inner);
                }
                Inst::Logic { op, a, rhs_b, .. } => {
                    let inner = ctx_uniform && self.cond_uniform(*a);
                    let mut rhs_ctx = ctx.clone();
                    // The rhs runs only for lanes where `a` kept the
                    // outcome open: true for `&&`, false for `||`.
                    self.apply_guard(*a, *op == BinOp::And, &mut rhs_ctx);
                    self.walk_block(*rhs_b, &mut rhs_ctx, inner);
                }
                Inst::Loop {
                    cond_b,
                    cond_r,
                    body_b,
                    step_b,
                    ..
                } => {
                    let inner = ctx_uniform && (cond_b.is_none() || self.cond_uniform(*cond_r));
                    if let Some(c) = cond_b {
                        self.walk_block(*c, ctx, ctx_uniform);
                    }
                    let mut body_ctx = ctx.clone();
                    if cond_b.is_some() {
                        self.apply_guard(*cond_r, true, &mut body_ctx);
                    }
                    self.walk_block(*body_b, &mut body_ctx, inner);
                    if let Some(s) = step_b {
                        self.walk_block(*s, &mut body_ctx, inner);
                    }
                }
                _ => {}
            }
        }
    }

    fn dims(&self, spec: u32) -> &'a [usize] {
        &self.f.shared[spec as usize].dims
    }

    /// Apply one index level: bounds-check it and fold it into the
    /// flattened offset.
    fn index_shape(&mut self, shape: &Shape, idx: Reg, pos: Pos, ctx: &Ctx) -> Shape {
        let dims = self.dims(shape.spec);
        let level = shape.level.min(dims.len() - 1);
        let extent = dims[level] as i64;
        let aff = self.aff_of(idx);
        self.check_oob(&aff, extent, ctx, pos, shape.spec, level);
        let stride: i64 = dims[level + 1..].iter().map(|&d| d as i64).product();
        Shape {
            spec: shape.spec,
            level: level + 1,
            offset: shape.offset.combine(&aff.scale(stride), 1),
        }
    }

    /// Report an index provably outside `[0, extent)`. Upper (lower)
    /// violations need every positively (negatively) weighted symbol's
    /// upper bound certified by a guard or induction range; id floors
    /// are certified for free.
    fn check_oob(&mut self, aff: &Aff, extent: i64, ctx: &Ctx, pos: Pos, spec: u32, level: usize) {
        let Aff::Val { base, coeffs } = aff else {
            return;
        };
        let mut min = *base;
        let mut max = *base;
        let mut min_certified = true;
        let mut max_certified = true;
        for (&s, &c) in coeffs {
            let r = ctx.range(s, &self.induction_ranges, &self.cap);
            if r.is_empty() {
                return; // unreachable under this guard
            }
            if c > 0 {
                min += c * r.lo;
                match r.hi {
                    Some(h) => max += c * h,
                    None => max_certified = false,
                }
            } else {
                max += c * r.lo;
                match r.hi {
                    Some(h) => min += c * h,
                    None => min_certified = false,
                }
            }
        }
        let name = &self.f.shared[spec as usize].name;
        if min_certified && min < 0 {
            self.findings.push(Finding {
                kind: CheckKind::OutOfBounds,
                diag: Diag::new(
                    Phase::Analysis,
                    pos,
                    format!(
                        "index of __shared__ array '{name}' (dimension {level}) \
                         can reach {min}, below 0"
                    ),
                ),
            });
        } else if max_certified && max >= extent {
            self.findings.push(Finding {
                kind: CheckKind::OutOfBounds,
                diag: Diag::new(
                    Phase::Analysis,
                    pos,
                    format!(
                        "index of __shared__ array '{name}' (dimension {level}) \
                         can reach {max}, but the extent is {extent}"
                    ),
                ),
            });
        }
    }

    fn record_access(&mut self, shape: &Shape, kind: AccessKind, ctx: &Ctx, pos: Pos) {
        self.accesses.push(Access {
            spec: shape.spec,
            kind,
            idx: shape.offset.clone(),
            interval: self.interval,
            ctx: ctx.clone(),
            pos,
        });
    }

    /// A thread id that skips the innermost certified guard (falls
    /// back to 0 when no guard bound is known).
    fn divergence_witness(&self, ctx: &Ctx) -> u32 {
        for (s, r) in &ctx.ranges {
            if let (Sym::Tid(_), Some(h)) = (s, r.hi) {
                if (0..=MAX_TID).contains(&(h + 1)) {
                    return (h + 1) as u32;
                }
            }
        }
        0
    }

    // -- race detection ------------------------------------------------

    fn check_races(&mut self) {
        let accesses = std::mem::take(&mut self.accesses);
        let mut reported: FxHashSet<(u32, u32)> = FxHashSet::default();
        for (i, a) in accesses.iter().enumerate() {
            for b in &accesses[i..] {
                if a.spec != b.spec || a.interval != b.interval {
                    continue;
                }
                if !conflicting_kinds(a.kind, b.kind) {
                    continue;
                }
                if mutually_exclusive(&a.ctx.path, &b.ctx.path) {
                    continue;
                }
                let Some((t1, t2)) = self.conflict_witness(a, b) else {
                    continue;
                };
                let key = (
                    a.pos.line * 10_000 + a.pos.col,
                    b.pos.line * 10_000 + b.pos.col,
                );
                if !reported.insert(key) {
                    continue;
                }
                let name = &self.f.shared[a.spec as usize].name;
                let what = if a.kind == AccessKind::Read || b.kind == AccessKind::Read {
                    "write/read"
                } else {
                    "write/write"
                };
                let other = if a.pos == b.pos {
                    String::new()
                } else {
                    format!(" and {}:{}", b.pos.line, b.pos.col)
                };
                self.findings.push(Finding {
                    kind: CheckKind::SharedRace,
                    diag: Diag::new(
                        Phase::Analysis,
                        a.pos,
                        format!(
                            "{what} race on __shared__ array '{name}'{other}: \
                             threads {t1} and {t2} can touch the same element \
                             with no barrier in between"
                        ),
                    )
                    .with_thread(0, t2 as u32),
                });
            }
        }
    }

    /// Two distinct thread ids that touch the same element, if the
    /// single-axis affine domain can prove some exist.
    fn conflict_witness(&self, a: &Access, b: &Access) -> Option<(i64, i64)> {
        let fa = race_form(&a.idx)?;
        let fb = race_form(&b.idx)?;
        // Both forms must live on the same axis (or be constant).
        let mut sym = match (fa.0, fb.0) {
            (Some(x), Some(y)) if x != y => return None,
            (Some(x), _) => Some(x),
            (_, y) => y,
        };
        // Constant indices: the executing *population* still matters —
        // `if (tid == 0) s[0] = …` has one writer, not a block's worth.
        // Threads are modeled along a single axis, so take the first
        // guarded one.
        if sym.is_none() {
            sym = a
                .ctx
                .ranges
                .keys()
                .chain(b.ctx.ranges.keys())
                .find(|s| matches!(s, Sym::Tid(_)))
                .copied();
        }
        let ra = range_for(sym, &a.ctx, &self.induction_ranges, &self.cap);
        let rb = range_for(sym, &b.ctx, &self.induction_ranges, &self.cap);
        if ra.is_empty() || rb.is_empty() {
            return None;
        }
        let (ca, ba) = (fa.1, fa.2);
        let (cb, bb) = (fb.1, fb.2);
        match (ca, cb) {
            (0, 0) => {
                if ba != bb {
                    return None;
                }
                // Same constant element; need two distinct executing
                // threads. With both guards on the same single axis,
                // any two distinct ids in the union work.
                pick_two_distinct(ra, rb)
            }
            (0, _) => {
                let t2 = exact_div(ba - bb, cb)?;
                if !in_range(t2, rb) {
                    return None;
                }
                let t1 = pick_other(ra, t2)?;
                Some((t1, t2))
            }
            (_, 0) => {
                let t1 = exact_div(bb - ba, ca)?;
                if !in_range(t1, ra) {
                    return None;
                }
                let t2 = pick_other(rb, t1)?;
                Some((t1, t2))
            }
            _ => {
                let lo = ra.lo;
                let hi = ra.existence_hi().min(lo + MAX_TID);
                for t1 in lo..=hi {
                    let Some(t2) = exact_div(ca * t1 + ba - bb, cb) else {
                        continue;
                    };
                    if t2 != t1 && in_range(t2, rb) {
                        return Some((t1, t2));
                    }
                }
                None
            }
        }
    }

    // -- uninitialized reads -------------------------------------------

    /// Flag reads of declared-but-never-yet-assigned variables: a
    /// register whose sole non-`Assign` def is the zero-constant a
    /// no-initializer decl lowers to, read on some path before any
    /// `Assign` must have run.
    fn check_uninit(&mut self) {
        // Per register: whether anything assigns it, how many defs are
        // not assignments, and whether the last of those is a constant.
        let n = self.f.num_regs as usize;
        let (mut assigned, mut non_assign, mut decl_const) =
            (vec![false; n], vec![0u32; n], vec![false; n]);
        for inst in self.f.blocks.iter().flat_map(|b| &b.insts) {
            if let Inst::Assign { var, .. } = inst {
                assigned[*var as usize] = true;
            } else if let Some(d) = inst.dst() {
                non_assign[d as usize] += 1;
                decl_const[d as usize] = matches!(inst, Inst::Const { .. });
            }
        }
        // `Many` def-sites here mean init + assigns; the one non-assign
        // def must be a bare constant.
        let candidates: Vec<bool> = (0..n)
            .map(|r| assigned[r] && non_assign[r] == 1 && decl_const[r])
            .collect();
        if !candidates.contains(&true) {
            return;
        }
        let mut init = vec![false; n];
        self.uninit_block(0, &candidates, &mut init);
    }

    /// `init` holds, by register, whether an assignment has surely run.
    fn uninit_block(&mut self, b: BlockId, cands: &[bool], init: &mut Vec<bool>) {
        let f = self.f;
        let mut reads = Vec::new();
        for inst in &f.blocks[b as usize].insts {
            // Reads first (an Assign's `var` operand is the redef, not
            // a read — only its `src` side counts).
            reads.clear();
            match inst {
                Inst::Assign { src, .. } => reads.push(*src),
                other => other.srcs(&mut reads),
            }
            if let Some(pos) = inst_pos(inst) {
                for &r in &reads {
                    if cands[r as usize] && !init[r as usize] && self.reported_uninit.insert(r) {
                        self.findings.push(Finding {
                            kind: CheckKind::UninitRead,
                            diag: Diag::new(
                                Phase::Analysis,
                                pos,
                                "variable is read before anything assigns to it \
                                 (declared without an initializer)",
                            ),
                        });
                    }
                }
            }
            // Both arms ran: what either left uninitialized stays so.
            let both =
                |t: Vec<bool>, e: Vec<bool>| t.iter().zip(&e).map(|(a, b)| *a && *b).collect();
            match inst {
                Inst::Assign { var, .. } => {
                    init[*var as usize] = true;
                }
                Inst::If { then_b, else_b, .. } => {
                    let mut t = init.clone();
                    self.uninit_block(*then_b, cands, &mut t);
                    // Without an else-arm, the then-arm may not run:
                    // keep `init` as-is.
                    if let Some(e) = else_b {
                        let mut f = init.clone();
                        self.uninit_block(*e, cands, &mut f);
                        *init = both(t, f);
                    }
                }
                Inst::Ternary { then_b, else_b, .. } => {
                    let mut t = init.clone();
                    self.uninit_block(*then_b, cands, &mut t);
                    let mut f = init.clone();
                    self.uninit_block(*else_b, cands, &mut f);
                    *init = both(t, f);
                }
                Inst::Logic { rhs_b, .. } => {
                    let mut t = init.clone();
                    self.uninit_block(*rhs_b, cands, &mut t);
                }
                Inst::Loop {
                    cond_b,
                    body_b,
                    step_b,
                    ..
                } => {
                    if let Some(c) = cond_b {
                        // The condition runs at least once.
                        self.uninit_block(*c, cands, init);
                    }
                    let mut body = init.clone();
                    self.uninit_block(*body_b, cands, &mut body);
                    if let Some(s) = step_b {
                        self.uninit_block(*s, cands, &mut body);
                    }
                    // Zero iterations possible: discard body inits.
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// Race-solver helpers
// ---------------------------------------------------------------------

fn conflicting_kinds(a: AccessKind, b: AccessKind) -> bool {
    use AccessKind::*;
    matches!(
        (a, b),
        (Write, Write) | (Write, Read) | (Read, Write) | (Write, Atomic) | (Atomic, Write)
    )
}

/// True when the two access paths pass through different arms of the
/// same *uniform* conditional — no thread can execute both, and since
/// the condition is uniform, no two threads can disagree either.
fn mutually_exclusive(a: &[(u32, u8)], b: &[(u32, u8)]) -> bool {
    a.iter()
        .any(|(site, arm)| b.iter().any(|(s2, a2)| s2 == site && a2 != arm))
}

/// The restricted affine shape races are solved over: constant, or
/// affine on a single `threadIdx` axis. Anything else (block ids,
/// induction symbols, multi-axis forms) is outside the domain.
fn race_form(aff: &Aff) -> Option<(Option<Sym>, i64, i64)> {
    match aff {
        Aff::Val { base, coeffs } if coeffs.is_empty() => Some((None, 0, *base)),
        Aff::Val { base, coeffs } if coeffs.len() == 1 => {
            let (&s, &c) = coeffs.iter().next().unwrap();
            match s {
                Sym::Tid(_) => Some((Some(s), c, *base)),
                _ => None,
            }
        }
        _ => None,
    }
}

fn range_for(sym: Option<Sym>, ctx: &Ctx, induction: &[Range], caps: &[Option<i64>; 3]) -> Range {
    match sym {
        Some(s) => ctx.range(s, induction, caps),
        None => Range::full(),
    }
}

/// The certified range of an induction symbol; full for any other.
fn induction_range(s: Sym, induction: &[Range]) -> Range {
    match s {
        Sym::Ind(id) => induction[id as usize],
        _ => Range::full(),
    }
}

fn in_range(v: i64, r: Range) -> bool {
    v >= r.lo && v <= r.existence_hi()
}

fn exact_div(num: i64, den: i64) -> Option<i64> {
    (den != 0 && num % den == 0).then(|| num / den)
}

fn pick_other(r: Range, not: i64) -> Option<i64> {
    if r.lo != not {
        Some(r.lo)
    } else if r.existence_hi() > r.lo {
        Some(r.lo + 1)
    } else {
        None
    }
}

fn pick_two_distinct(ra: Range, rb: Range) -> Option<(i64, i64)> {
    let t1 = ra.lo;
    let t2 = pick_other(rb, t1)?;
    Some((t1, t2))
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

fn ceil_div(num: i64, den: i64) -> i64 {
    (num + den - 1).div_euclid(den)
}

fn inst_pos(inst: &Inst) -> Option<Pos> {
    match inst {
        Inst::Un { pos, .. }
        | Inst::Bin { pos, .. }
        | Inst::Coerce { pos, .. }
        | Inst::Assign { pos, .. }
        | Inst::DeclShared { pos, .. }
        | Inst::Load { pos, .. }
        | Inst::Store { pos, .. }
        | Inst::Addr { pos, .. }
        | Inst::LoadPtr { pos, .. }
        | Inst::StorePtr { pos, .. }
        | Inst::Math { pos, .. }
        | Inst::Atomic { pos, .. }
        | Inst::AtomicCas { pos, .. }
        | Inst::Barrier { pos }
        | Inst::OclId { pos, .. }
        | Inst::Call { pos, .. }
        | Inst::Trap { pos, .. }
        | Inst::If { pos, .. }
        | Inst::Ternary { pos, .. }
        | Inst::Logic { pos, .. }
        | Inst::Loop { pos, .. }
        | Inst::Break { pos }
        | Inst::Continue { pos }
        | Inst::Return { pos, .. } => Some(*pos),
        Inst::Const { .. } | Inst::Builtin { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dialect;

    fn findings_of(kernel: &str) -> Vec<Finding> {
        let src = format!("{kernel}\nint main() {{ return 0; }}");
        let p = crate::compile_with(&src, Dialect::Cuda, crate::OptLevel::O0).unwrap();
        analyze_program(&p)
    }

    fn kinds(fs: &[Finding]) -> Vec<CheckKind> {
        fs.iter().map(|f| f.kind).collect()
    }

    #[test]
    fn divergent_barrier_is_flagged_with_a_witness() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                if (threadIdx.x < 7) { __syncthreads(); }
            }"#,
        );
        assert_eq!(kinds(&fs), vec![CheckKind::BarrierDivergence]);
        assert_eq!(fs[0].diag.thread, Some((0, 7)));
        assert_eq!(fs[0].diag.phase, Phase::Analysis);
        assert!(fs[0].diag.pos.line > 0);
    }

    #[test]
    fn barrier_under_uniform_condition_is_fine() {
        let fs = findings_of(
            r#"__global__ void k(float* a, int n) {
                for (int t = 0; t < 8; t++) { __syncthreads(); }
                if (n > 2) { __syncthreads(); }
            }"#,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn barrier_in_nonuniform_loop_is_flagged() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                int i = threadIdx.x;
                while (i > 0) { __syncthreads(); i = i - 1; }
            }"#,
        );
        assert_eq!(kinds(&fs), vec![CheckKind::BarrierDivergence]);
    }

    #[test]
    fn ww_race_on_a_constant_slot() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[32];
                s[0] = a[threadIdx.x];
            }"#,
        );
        assert_eq!(kinds(&fs), vec![CheckKind::SharedRace]);
        assert!(fs[0].diag.thread.is_some());
    }

    #[test]
    fn rw_race_on_neighbor_slots() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[64];
                int t = threadIdx.x;
                s[t] = a[t];
                a[t] = s[t + 1];
            }"#,
        );
        assert_eq!(kinds(&fs), vec![CheckKind::SharedRace]);
    }

    #[test]
    fn per_thread_slots_do_not_race() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[64];
                int t = threadIdx.x;
                s[t] = a[t];
                a[t] = s[t] * 2.0;
            }"#,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn barrier_separates_intervals() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[64];
                int t = threadIdx.x;
                s[t] = a[t];
                __syncthreads();
                a[t] = s[t + 1];
            }"#,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn single_writer_guard_suppresses_the_race() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[32];
                if (threadIdx.x == 0) { s[0] = a[0]; }
            }"#,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn uniform_branch_arms_are_mutually_exclusive() {
        let fs = findings_of(
            r#"__global__ void k(float* a, int n) {
                __shared__ float s[32];
                if (n > 4) { s[0] = 1.0; } else { s[0] = 2.0; }
            }"#,
        );
        // Each arm alone is still an all-threads write to s[0].
        assert_eq!(
            kinds(&fs),
            vec![CheckKind::SharedRace, CheckKind::SharedRace]
        );
    }

    #[test]
    fn guarded_single_writers_in_both_arms_are_silent() {
        let fs = findings_of(
            r#"__global__ void k(float* a, int n) {
                __shared__ float s[32];
                if (n > 4) {
                    if (threadIdx.x == 0) { s[0] = 1.0; }
                } else {
                    if (threadIdx.x == 0) { s[0] = 2.0; }
                }
            }"#,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn constant_index_oob_is_definite() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[16];
                s[16] = 1.0;
            }"#,
        );
        assert!(kinds(&fs).contains(&CheckKind::OutOfBounds), "{fs:?}");
    }

    #[test]
    fn off_by_one_guard_certifies_oob() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[64];
                int t = threadIdx.x;
                if (t <= 64) { s[t] = a[t]; }
            }"#,
        );
        assert!(kinds(&fs).contains(&CheckKind::OutOfBounds), "{fs:?}");
    }

    #[test]
    fn correct_guard_is_silent() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[64];
                int t = threadIdx.x;
                if (t < 64) { s[t] = a[t]; }
            }"#,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn negative_index_needs_no_guard() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[64];
                int t = threadIdx.x;
                s[t - 1] = a[t];
            }"#,
        );
        assert!(kinds(&fs).contains(&CheckKind::OutOfBounds), "{fs:?}");
    }

    #[test]
    fn lower_guard_suppresses_negative_index() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[64];
                int t = threadIdx.x;
                if (t >= 1) { s[t - 1] = a[t]; }
            }"#,
        );
        // The write s[t-1] maps distinct threads to distinct slots.
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn induction_range_catches_loop_off_by_one() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[16];
                if (threadIdx.x == 0) {
                    for (int i = 0; i <= 16; i++) { s[i] = 0.0; }
                }
            }"#,
        );
        assert!(kinds(&fs).contains(&CheckKind::OutOfBounds), "{fs:?}");
    }

    #[test]
    fn exclusive_loop_bound_is_silent() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float s[16];
                if (threadIdx.x == 0) {
                    for (int i = 0; i < 16; i++) { s[i] = 0.0; }
                }
            }"#,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn uninit_read_is_flagged_and_initialized_is_not() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                int x;
                if (threadIdx.x == 0) { x = 3; }
                a[0] = x;
                x = 5;
            }"#,
        );
        assert!(kinds(&fs).contains(&CheckKind::UninitRead), "{fs:?}");
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                int x = 0;
                if (threadIdx.x == 0) { x = 3; }
                a[0] = x;
            }"#,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn two_d_tile_accesses_are_outside_the_race_domain() {
        let fs = findings_of(
            r#"__global__ void k(float* a) {
                __shared__ float tile[16][16];
                int tx = threadIdx.x;
                int ty = threadIdx.y;
                tile[ty][tx] = a[ty * 16 + tx];
                __syncthreads();
                a[ty * 16 + tx] = tile[tx][ty];
            }"#,
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn verdict_is_identical_across_opt_levels() {
        let src = r#"__global__ void k(float* a) {
            __shared__ float s[32];
            s[0] = a[threadIdx.x];
            if (threadIdx.x < 3) { __syncthreads(); }
        }
        int main() { return 0; }"#;
        let base =
            analyze_program(&crate::compile_with(src, Dialect::Cuda, crate::OptLevel::O0).unwrap());
        assert!(!base.is_empty());
        let p = crate::compile_with(src, Dialect::Cuda, crate::OptLevel::O2).unwrap();
        assert_eq!(analyze_program(&p), base, "verdict differs at O2");
    }

    #[test]
    fn policy_default_is_warn() {
        assert_eq!(AnalysisPolicy::default(), AnalysisPolicy::Warn);
        assert!(AnalysisPolicy::Warn.enabled());
        assert!(AnalysisPolicy::Deny.enabled());
        assert!(!AnalysisPolicy::Off.enabled());
    }

    #[test]
    fn findings_render_with_kind_tags() {
        let f = Finding {
            kind: CheckKind::SharedRace,
            diag: Diag::new(Phase::Analysis, Pos::new(4, 2), "boom").with_thread(0, 9),
        };
        let r = f.render();
        assert!(r.starts_with("[shared-race]"), "{r}");
        assert!(r.contains("4:2"), "{r}");
        assert!(r.contains("thread 9"), "{r}");
    }
}
