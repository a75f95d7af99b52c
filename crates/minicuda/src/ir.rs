//! The kernel intermediate representation (middle-end).
//!
//! Device code is lowered from the sema'd AST into a structured IR:
//! flat instruction lists over **virtual registers**, with structured
//! control flow (`If`/`Loop`/`Ternary`/`Logic`) referencing nested
//! blocks instead of a goto graph. The shape is chosen so that
//!
//! * the warp-batched executor (`batch`) can run one instruction
//!   across all lanes of a block without any name lookups or per-node
//!   allocations — a register read is an index into a flat file;
//! * the optimization passes (`passes`) can reason about value flow:
//!   every expression writes a fresh single-definition register, and
//!   mutable variables are just registers redefined by `Assign`
//!   instructions;
//! * divergence semantics stay trivially aligned with the test-only
//!   tree-walk oracle (`simt`): the structured control instructions
//!   partition the active mask exactly where the AST nodes did.
//!
//! Only device code is lowered (kernels and `__device__` functions);
//! every compile lowers it once and attaches it to the `Program`, at
//! every opt level.
//!
//! Lexical scoping is resolved entirely at lowering time: the IR has
//! no runtime environments, only registers. Address arithmetic is
//! explicit (`Bin` chains feeding `Load`/`Store`/`Addr`), which is
//! what makes the thread-invariant address-math hoisting pass
//! possible.

use crate::ast::{vec_bytes, BinOp, BuiltinVar, Type, UnOp};
use crate::diag::Pos;
use crate::value::{ElemType, Value};

/// Version tag for the IR + lowering semantics. Absorbed into
/// `wb-cache`'s `CompileKey` so cached grades can never go stale when
/// the middle-end changes shape.
pub const IR_VERSION: &str = "ir-v1";

/// A virtual register index within one [`IrFunc`].
pub type Reg = u32;

/// A block index within one [`IrFunc`].
pub type BlockId = u32;

/// A `__shared__` array declaration site.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedSpec {
    /// Array name (allocation is deduplicated by name per block, like
    /// the tree-walk interpreter).
    pub name: String,
    /// Constant-folded dimension extents.
    pub dims: Vec<usize>,
    /// Element interpretation.
    pub elem: ElemType,
}

/// The four read-modify-write atomics that share a two-operand shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// `atomicAdd`
    Add,
    /// `atomicMin`
    Min,
    /// `atomicMax`
    Max,
    /// `atomicExch`
    Exch,
}

impl AtomicKind {
    /// Source-level intrinsic name (for diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            AtomicKind::Add => "atomicAdd",
            AtomicKind::Min => "atomicMin",
            AtomicKind::Max => "atomicMax",
            AtomicKind::Exch => "atomicExch",
        }
    }
}

/// OpenCL work-item query functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OclFn {
    /// `get_global_id`
    GlobalId,
    /// `get_local_id`
    LocalId,
    /// `get_group_id`
    GroupId,
    /// `get_local_size`
    LocalSize,
    /// `get_num_groups`
    NumGroups,
    /// `get_global_size`
    GlobalSize,
}

impl OclFn {
    /// Map a source name to the query kind.
    pub fn from_name(name: &str) -> Option<OclFn> {
        Some(match name {
            "get_global_id" => OclFn::GlobalId,
            "get_local_id" => OclFn::LocalId,
            "get_group_id" => OclFn::GroupId,
            "get_local_size" => OclFn::LocalSize,
            "get_num_groups" => OclFn::NumGroups,
            "get_global_size" => OclFn::GlobalSize,
            _ => return None,
        })
    }
}

/// One IR instruction.
///
/// Straight-line instructions write a destination register; structured
/// control instructions reference child [`IrBlock`]s. Positions are
/// carried wherever the tree-walk interpreter could produce a
/// diagnostic, so batched execution reports errors at identical
/// source locations.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Materialize a constant (literals, `sizeof`, folded values,
    /// constant-memory symbol pointers, predefined names).
    Const {
        /// Destination.
        dst: Reg,
        /// The value, uniform across lanes.
        v: Value,
    },
    /// `threadIdx.x` and friends.
    Builtin {
        /// Destination.
        dst: Reg,
        /// Variable family.
        which: BuiltinVar,
        /// Axis (0=x, 1=y, 2=z).
        axis: u8,
        /// Source position.
        pos: Pos,
    },
    /// Unary operation.
    Un {
        /// Destination.
        dst: Reg,
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Reg,
        /// Source position.
        pos: Pos,
    },
    /// Binary operation (never `&&`/`||`, which lower to [`Inst::Logic`]).
    Bin {
        /// Destination.
        dst: Reg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Source position.
        pos: Pos,
    },
    /// C-style conversion to a declared type (casts, decl inits,
    /// call-argument coercion).
    Coerce {
        /// Destination.
        dst: Reg,
        /// Source value.
        a: Reg,
        /// Target type.
        ty: Type,
        /// Source position.
        pos: Pos,
    },
    /// Representation-preserving variable assignment: each lane of
    /// `var` keeps its current value kind (`int i` stays int after
    /// `i = i / 2`), exactly like the tree-walk's assignment rule.
    Assign {
        /// The variable's register (redefined in place).
        var: Reg,
        /// New value.
        src: Reg,
        /// Source position.
        pos: Pos,
    },
    /// `__shared__` declaration: allocate on first execution (checking
    /// the per-block limit), then bind the name register to a level-0
    /// pointer.
    DeclShared {
        /// Register bound to the array name.
        dst: Reg,
        /// Index into [`IrFunc::shared`].
        spec: u32,
        /// Source position.
        pos: Pos,
    },
    /// `base[idx]` as a value: computes per-lane element pointers and
    /// loads through them (or yields row pointers for partially
    /// indexed multi-dimensional shared arrays).
    Load {
        /// Destination.
        dst: Reg,
        /// Pointer operand.
        base: Reg,
        /// Index operand.
        idx: Reg,
        /// Source position.
        pos: Pos,
    },
    /// `base[idx] = val`: computes element pointers and stores.
    Store {
        /// Pointer operand.
        base: Reg,
        /// Index operand.
        idx: Reg,
        /// Stored value.
        val: Reg,
        /// Source position.
        pos: Pos,
    },
    /// Compute the element address of `base[idx]` once (used by
    /// compound assignment so the index expression's side effects
    /// happen exactly once).
    Addr {
        /// Destination (holds per-lane pointers).
        dst: Reg,
        /// Pointer operand.
        base: Reg,
        /// Index operand.
        idx: Reg,
        /// Source position.
        pos: Pos,
    },
    /// Load through pointers computed by [`Inst::Addr`].
    LoadPtr {
        /// Destination.
        dst: Reg,
        /// Pointer register.
        ptr: Reg,
        /// Source position.
        pos: Pos,
    },
    /// Store through pointers computed by [`Inst::Addr`].
    StorePtr {
        /// Pointer register.
        ptr: Reg,
        /// Stored value.
        val: Reg,
        /// Source position.
        pos: Pos,
    },
    /// Pure math intrinsic (`sqrtf`, `min`, …).
    Math {
        /// Destination.
        dst: Reg,
        /// Intrinsic name (one of `value::math_name`'s).
        name: &'static str,
        /// Arguments.
        args: Box<[Reg]>,
        /// Source position.
        pos: Pos,
    },
    /// Two-operand atomic.
    Atomic {
        /// Destination (old value).
        dst: Reg,
        /// Which atomic.
        kind: AtomicKind,
        /// Pointer operand.
        ptr: Reg,
        /// Value operand.
        val: Reg,
        /// Source position.
        pos: Pos,
    },
    /// `atomicCAS(ptr, cmp, val)`.
    AtomicCas {
        /// Destination (old value).
        dst: Reg,
        /// Pointer operand.
        ptr: Reg,
        /// Compare value.
        cmp: Reg,
        /// Swap value.
        val: Reg,
        /// Source position.
        pos: Pos,
    },
    /// `__syncthreads()` / `barrier(flag)` (the flag, if any, is
    /// evaluated by preceding instructions).
    Barrier {
        /// Source position.
        pos: Pos,
    },
    /// OpenCL work-item query with a dynamic dimension argument.
    OclId {
        /// Destination.
        dst: Reg,
        /// Query kind.
        which: OclFn,
        /// Dimension operand (validated 0..3 per lane).
        dim: Reg,
        /// Source position.
        pos: Pos,
    },
    /// User `__device__` function call.
    Call {
        /// Destination (per-lane return values).
        dst: Reg,
        /// Callee name (must be lowered in the same [`IrProgram`]).
        callee: Box<str>,
        /// Argument registers.
        args: Box<[Reg]>,
        /// Source position.
        pos: Pos,
    },
    /// A deferred runtime error: reached only if the offending
    /// construct actually executes with live lanes (string literals in
    /// device code, `&var`, …), exactly like the tree-walk.
    Trap {
        /// Student-facing message.
        msg: String,
        /// Source position.
        pos: Pos,
    },
    /// Statement-level conditional: partitions the mask, charges both
    /// taken paths, counts warp divergence, and merges lanes that
    /// survived their branch.
    If {
        /// Condition register.
        cond: Reg,
        /// Then branch.
        then_b: BlockId,
        /// Else branch.
        else_b: Option<BlockId>,
        /// Source position.
        pos: Pos,
    },
    /// `cond ? a : b` — each arm is evaluated only for the lanes that
    /// select it; no divergence is counted (matching the tree-walk).
    Ternary {
        /// Destination.
        dst: Reg,
        /// Condition register.
        cond: Reg,
        /// Then-arm block.
        then_b: BlockId,
        /// Then-arm result register.
        then_r: Reg,
        /// Else-arm block.
        else_b: BlockId,
        /// Else-arm result register.
        else_r: Reg,
        /// Source position.
        pos: Pos,
    },
    /// Short-circuit `&&`/`||`: the right-hand block runs only for
    /// lanes that need it.
    Logic {
        /// Destination.
        dst: Reg,
        /// `BinOp::And` or `BinOp::Or`.
        op: BinOp,
        /// Left operand (already evaluated).
        a: Reg,
        /// Right-hand side block.
        rhs_b: BlockId,
        /// Right-hand side result register.
        rhs_r: Reg,
        /// Source position.
        pos: Pos,
    },
    /// `while`/`for` loop. `cond_b`/`cond_r` are absent for condition-
    /// less `for (;;)` loops; `step_b` only for `for`.
    Loop {
        /// Condition block (re-evaluated each iteration).
        cond_b: Option<BlockId>,
        /// Condition result register.
        cond_r: Reg,
        /// Body block.
        body_b: BlockId,
        /// Step block (`for` only).
        step_b: Option<BlockId>,
        /// Source position.
        pos: Pos,
    },
    /// Deactivate active lanes out of the innermost loop.
    Break {
        /// Source position.
        pos: Pos,
    },
    /// Park active lanes until the innermost loop's step/condition.
    Continue {
        /// Source position.
        pos: Pos,
    },
    /// Return from the enclosing function.
    Return {
        /// Returned value (absent for `return;`).
        val: Option<Reg>,
        /// Source position.
        pos: Pos,
    },
}

impl Inst {
    /// Destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Builtin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Coerce { dst, .. }
            | Inst::DeclShared { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Addr { dst, .. }
            | Inst::LoadPtr { dst, .. }
            | Inst::Math { dst, .. }
            | Inst::Atomic { dst, .. }
            | Inst::AtomicCas { dst, .. }
            | Inst::OclId { dst, .. }
            | Inst::Call { dst, .. }
            | Inst::Ternary { dst, .. }
            | Inst::Logic { dst, .. } => Some(*dst),
            Inst::Assign { var, .. } => Some(*var),
            _ => None,
        }
    }

    /// Collect every register this instruction reads (including
    /// registers referenced across child-block boundaries, like
    /// ternary arm results).
    pub fn srcs(&self, out: &mut Vec<Reg>) {
        match self {
            Inst::Const { .. }
            | Inst::Builtin { .. }
            | Inst::DeclShared { .. }
            | Inst::Barrier { .. }
            | Inst::Trap { .. }
            | Inst::Break { .. }
            | Inst::Continue { .. } => {}
            Inst::Un { a, .. } => out.push(*a),
            Inst::Bin { a, b, .. } => out.extend([*a, *b]),
            Inst::Coerce { a, .. } => out.push(*a),
            Inst::Assign { var, src, .. } => out.extend([*var, *src]),
            Inst::Load { base, idx, .. } | Inst::Addr { base, idx, .. } => {
                out.extend([*base, *idx]);
            }
            Inst::Store { base, idx, val, .. } => out.extend([*base, *idx, *val]),
            Inst::LoadPtr { ptr, .. } => out.push(*ptr),
            Inst::StorePtr { ptr, val, .. } => out.extend([*ptr, *val]),
            Inst::Math { args, .. } => out.extend_from_slice(args),
            Inst::Atomic { ptr, val, .. } => out.extend([*ptr, *val]),
            Inst::AtomicCas { ptr, cmp, val, .. } => out.extend([*ptr, *cmp, *val]),
            Inst::OclId { dim, .. } => out.push(*dim),
            Inst::Call { args, .. } => out.extend_from_slice(args),
            Inst::If { cond, .. } => out.push(*cond),
            Inst::Ternary {
                cond,
                then_r,
                else_r,
                ..
            } => out.extend([*cond, *then_r, *else_r]),
            Inst::Logic { a, rhs_r, .. } => out.extend([*a, *rhs_r]),
            Inst::Loop { cond_b, cond_r, .. } => {
                if cond_b.is_some() {
                    out.push(*cond_r);
                }
            }
            Inst::Return { val, .. } => {
                if let Some(v) = val {
                    out.push(*v);
                }
            }
        }
    }

    /// Child blocks referenced by a structured instruction.
    pub fn child_blocks(&self, out: &mut Vec<BlockId>) {
        match self {
            Inst::If { then_b, else_b, .. } => {
                out.push(*then_b);
                if let Some(e) = else_b {
                    out.push(*e);
                }
            }
            Inst::Ternary { then_b, else_b, .. } => out.extend([*then_b, *else_b]),
            Inst::Logic { rhs_b, .. } => out.push(*rhs_b),
            Inst::Loop {
                cond_b,
                body_b,
                step_b,
                ..
            } => {
                if let Some(c) = cond_b {
                    out.push(*c);
                }
                out.push(*body_b);
                if let Some(s) = step_b {
                    out.push(*s);
                }
            }
            _ => {}
        }
    }
}

/// A straight-line instruction list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrBlock {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
}

/// A lowered kernel or `__device__` function.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunc {
    /// Source name.
    pub name: String,
    /// Parameter registers (`0..params.len()`) and declared types.
    pub params: Vec<(Reg, Type)>,
    /// Blocks; index 0 is the entry block.
    pub blocks: Vec<IrBlock>,
    /// Number of virtual registers.
    pub num_regs: u32,
    /// `__shared__` declaration sites.
    pub shared: Vec<SharedSpec>,
    /// True for `__global__` kernels.
    pub kernel: bool,
    /// Definition position (parameter-binding diagnostics).
    pub pos: Pos,
}

/// All lowered device-side functions of one program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrProgram {
    /// Kernels and device functions by name.
    pub funcs: IrFuncs,
}

/// Lowered functions kept sorted by name in one vector: a lookup is a
/// binary search on [`IrFunc::name`], and the table holds exactly its
/// entries (a hash table's smallest holds four).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrFuncs(Vec<IrFunc>);

impl IrFuncs {
    /// The function named `name`.
    pub fn get(&self, name: &str) -> Option<&IrFunc> {
        let i = self
            .0
            .binary_search_by(|f| f.name.as_str().cmp(name))
            .ok()?;
        Some(&self.0[i])
    }

    /// Names in order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.0.iter().map(|f| &f.name)
    }

    /// Functions in name order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut IrFunc> {
        self.0.iter_mut()
    }

    /// Functions in name order.
    pub fn values(&self) -> impl Iterator<Item = &IrFunc> {
        self.0.iter()
    }
}

impl FromIterator<IrFunc> for IrFuncs {
    /// Sorts once. Names are distinct: sema rejects a function defined
    /// twice.
    fn from_iter<I: IntoIterator<Item = IrFunc>>(iter: I) -> Self {
        let mut v: Vec<IrFunc> = iter.into_iter().collect();
        v.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        IrFuncs(v)
    }
}

impl<Q: AsRef<str> + ?Sized> std::ops::Index<&Q> for IrFuncs {
    type Output = IrFunc;

    fn index(&self, name: &Q) -> &IrFunc {
        let name = name.as_ref();
        self.get(name)
            .unwrap_or_else(|| panic!("no lowered function `{name}`"))
    }
}

impl IrProgram {
    /// Drop the spare capacity lowering and the passes left in every
    /// vector.
    pub fn shrink_to_fit(&mut self) {
        self.funcs.0.shrink_to_fit();
        for f in self.funcs.values_mut() {
            f.params.shrink_to_fit();
            f.blocks.shrink_to_fit();
            f.shared.shrink_to_fit();
            for b in &mut f.blocks {
                b.insts.shrink_to_fit();
            }
        }
    }

    /// Heap bytes the IR holds: its function table and, per function,
    /// each vector's capacity and the text and operand lists of its
    /// instructions.
    pub fn heap_bytes(&self) -> usize {
        let table = vec_bytes(&self.funcs.0);
        let funcs: usize = self
            .funcs
            .values()
            .map(|f| {
                let insts: usize = f
                    .blocks
                    .iter()
                    .map(|b| {
                        vec_bytes(&b.insts) + b.insts.iter().map(Inst::heap_bytes).sum::<usize>()
                    })
                    .sum();
                let shared: usize = f
                    .shared
                    .iter()
                    .map(|s| s.name.capacity() + vec_bytes(&s.dims))
                    .sum();
                f.name.capacity()
                    + vec_bytes(&f.params)
                    + vec_bytes(&f.blocks)
                    + insts
                    + vec_bytes(&f.shared)
                    + shared
            })
            .sum();
        table + funcs
    }
}

impl Inst {
    /// Heap bytes the instruction holds beyond its own size.
    fn heap_bytes(&self) -> usize {
        match self {
            Inst::Math { args, .. } => std::mem::size_of_val(&**args),
            Inst::Call { callee, args, .. } => callee.len() + std::mem::size_of_val(&**args),
            Inst::Trap { msg, .. } => msg.capacity(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srcs_and_children() {
        let i = Inst::Ternary {
            dst: 9,
            cond: 1,
            then_b: 2,
            then_r: 3,
            else_b: 4,
            else_r: 5,
            pos: Pos::unknown(),
        };
        let mut s = Vec::new();
        i.srcs(&mut s);
        assert_eq!(s, vec![1, 3, 5]);
        let mut c = Vec::new();
        i.child_blocks(&mut c);
        assert_eq!(c, vec![2, 4]);
        assert_eq!(i.dst(), Some(9));
    }

    #[test]
    fn ocl_names_round_trip() {
        assert_eq!(OclFn::from_name("get_global_id"), Some(OclFn::GlobalId));
        assert_eq!(OclFn::from_name("get_global_size"), Some(OclFn::GlobalSize));
        assert_eq!(OclFn::from_name("nope"), None);
    }
}
