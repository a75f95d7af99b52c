//! Abstract syntax tree for the minicuda language.
//!
//! The tree is flat: each [`FuncDef`] owns its expressions and
//! statements in two arenas and every child is an [`ExprId`] or
//! [`StmtId`] into them; every name is interned once per program into
//! [`Names`] and named by a [`Sym`]; [`Type`] is one `Copy` value. A
//! compiled program keeps its AST, and the compile cache keeps
//! programs, so the nodes are small: an [`Expr`] is 16 bytes, a
//! [`Stmt`] 32.

use crate::diag::Pos;
use crate::intrinsic::Intrinsic;
use std::fmt;
use std::num::NonZeroU32;

/// Static types: a base under some pointer levels. `unsigned`
/// qualifiers are accepted by the parser and folded into the signed
/// equivalents; labs never rely on wraparound.
///
/// The type is `Copy` and 4 bytes, so a frame slot, a cast or an IR
/// coercion holds one inline and sema types an expression without
/// allocating. The parser bounds the pointer depth (see
/// [`MAX_POINTER_DEPTH`]), so it never overflows.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Type {
    ptrs: u16,
    base: Base,
}

/// Most pointer levels a declared type may have; `__shared__` arrays
/// count one per dimension. Sema's `&var` adds one more, still far
/// below `u16::MAX`.
pub const MAX_POINTER_DEPTH: usize = 64;

/// [`Type`] without its pointer levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Base {
    Void,
    Int,
    Float,
    Bool,
}

impl Type {
    /// No value (function returns only).
    pub const VOID: Type = Type::scalar(Base::Void);
    /// 64-bit integer (covers C `int`, `long`, `size_t` uses in labs).
    pub const INT: Type = Type::scalar(Base::Int);
    /// 32-bit float, matching GPU single precision.
    pub const FLOAT: Type = Type::scalar(Base::Float);
    /// Boolean.
    pub const BOOL: Type = Type::scalar(Base::Bool);

    const fn scalar(base: Base) -> Type {
        Type { base, ptrs: 0 }
    }

    /// Pointer to this type.
    pub const fn ptr_to(self) -> Type {
        Type {
            base: self.base,
            ptrs: self.ptrs + 1,
        }
    }

    /// True for pointer types.
    pub fn is_ptr(self) -> bool {
        self.ptrs > 0
    }

    /// Element type if this is a pointer.
    pub fn pointee(self) -> Option<Type> {
        self.is_ptr().then(|| Type {
            base: self.base,
            ptrs: self.ptrs - 1,
        })
    }

    /// Size in bytes, as `sizeof` reports. Pointers are 8.
    pub fn size_of(self) -> i64 {
        match self {
            Type::VOID => 0,
            Type::INT => 4, // C `int` on the platforms labs target
            Type::FLOAT => 4,
            Type::BOOL => 1,
            _ => 8,
        }
    }

    /// True for `int`/`float`/`bool` scalars.
    pub fn is_scalar(self) -> bool {
        self.ptrs == 0 && self.base != Base::Void
    }

    /// True when arithmetic is defined on the type.
    pub fn is_numeric(self) -> bool {
        self.ptrs == 0 && matches!(self.base, Base::Int | Base::Float)
    }
}

/// Spelled as the nested form (`Ptr(Ptr(Float))`), which IR digests
/// pin.
impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (0..self.ptrs).try_for_each(|_| f.write_str("Ptr("))?;
        fmt::Debug::fmt(&self.base, f)?;
        (0..self.ptrs).try_for_each(|_| f.write_str(")"))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.base {
            Base::Void => "void",
            Base::Int => "int",
            Base::Float => "float",
            Base::Bool => "bool",
        })?;
        (0..self.ptrs).try_for_each(|_| f.write_str("*"))
    }
}

/// An interned name: its index in the program's [`Names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The entry's index in its [`Names`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Every name a program spells, and the text of its string literals,
/// each stored once in one `String`. Diagnostics spell a [`Sym`] back
/// from here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Names {
    text: String,
    /// Each entry's end offset in `text`; entry `i` starts where entry
    /// `i - 1` ends.
    ends: Vec<u32>,
}

impl Names {
    /// The text of `sym`.
    pub fn name(&self, sym: Sym) -> &str {
        let i = sym.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The symbol spelled `name`, if the program spells it.
    #[cfg(test)]
    pub(crate) fn find(&self, name: &str) -> Option<Sym> {
        (0..self.ends.len() as u32)
            .map(Sym)
            .find(|&s| self.name(s) == name)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no name is stored.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Store `text` as a new entry (the parser's interner dedups names).
    pub(crate) fn push(&mut self, text: &str) -> Sym {
        self.push_with(|t| t.push_str(text))
    }

    /// Append a new entry written by `write` (a string literal's
    /// unescaped text).
    pub(crate) fn push_with(&mut self, write: impl FnOnce(&mut String)) -> Sym {
        let sym = Sym(self.ends.len() as u32);
        write(&mut self.text);
        self.ends.push(self.text.len() as u32);
        sym
    }

    /// Drop the spare capacity the table grew with.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Heap bytes the table holds.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity() + vec_bytes(&self.ends)
    }
}

/// Heap bytes of a `Vec`'s buffer, spare capacity included.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// An expression: an index into its function's [`FuncDef::exprs`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(NonZeroU32);

/// A statement: an index into its function's [`FuncDef::stmts`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(NonZeroU32);

macro_rules! arena_id {
    ($id:ident) => {
        impl $id {
            /// The id of arena slot `index`.
            pub(crate) fn new(index: usize) -> $id {
                let n = u32::try_from(index + 1).expect("arena index fits in u32");
                $id(NonZeroU32::new(n).expect("index + 1 is non-zero"))
            }

            /// The arena slot this id names.
            pub fn index(self) -> usize {
                self.0.get() as usize - 1
            }
        }

        impl fmt::Debug for $id {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}#{}", stringify!($id), self.index())
            }
        }
    };
}

arena_id!(ExprId);
arena_id!(StmtId);

/// A run of consecutive expressions in an arena: call and launch
/// arguments, `__shared__` extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprList {
    /// The first expression (any in-bounds id when `len` is 0).
    pub first: ExprId,
    /// Number of expressions.
    pub len: u32,
}

impl ExprList {
    /// The `len` expressions from the `start`-th on.
    pub fn slice(self, start: u32, len: u32) -> ExprList {
        assert!(start + len <= self.len, "a sub-list of the list");
        ExprList {
            first: ExprId::new(self.first.index() + start as usize),
            len,
        }
    }

    /// The ids in order.
    pub fn ids(self) -> impl Iterator<Item = ExprId> {
        let first = self.first.index();
        (first..first + self.len as usize).map(ExprId::new)
    }
}

/// A brace-delimited statement list: a run of consecutive statements
/// in its function's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// The first statement (any in-bounds id when `len` is 0).
    pub first: StmtId,
    /// Number of statements.
    pub len: u32,
}

impl Block {
    /// The ids in order.
    pub fn ids(self) -> impl Iterator<Item = StmtId> {
        let first = self.first.index();
        (first..first + self.len as usize).map(StmtId::new)
    }
}

/// The four grid/block builtin variable families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinVar {
    /// `threadIdx`
    ThreadIdx,
    /// `blockIdx`
    BlockIdx,
    /// `blockDim`
    BlockDim,
    /// `gridDim`
    GridDim,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl BinOp {
    /// True for comparison operators (result type `bool`).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for `&&` / `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// True for integer-only bit operations.
    pub fn is_bitwise(self) -> bool {
        matches!(
            self,
            BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `~`
    BitNot,
}

/// The slot the parser gives every `&var`; `sema::analyze` replaces
/// each one, so a checked program holds none.
pub(crate) const UNBOUND: u32 = u32::MAX;

/// What a variable name denotes. Sema binds every name once, following
/// the one lookup order (a local, then a `__constant__` symbol, then a
/// predefined integer); lowering and both interpreters read the binding
/// and never look a name up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// A slot of the enclosing function's frame ([`FuncDef::frame`]).
    Slot(u32),
    /// A `__constant__` symbol, by id (its index in the program's
    /// constants).
    Constant(u32),
    /// A predefined integer: a `cudaMemcpy*` direction, a `wbLog` level
    /// or a `wbTime` category.
    Predefined(i32),
}

/// Expression node: 16 bytes, so a function's expressions cost little
/// more than its source text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expr {
    /// Payload.
    pub kind: ExprKind,
    /// Source location, resolved by [`FuncDef::pos`].
    pub at: Loc,
}

/// An expression's source position packed into 4 bytes: a line below
/// 2^19 with a column below 2^12 inline, any other position as an index
/// into its function's [`FuncDef::far`] table. Every position survives
/// exactly.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Loc(u32);

impl Loc {
    const FAR: u32 = 1 << 31;
    const COL_BITS: u32 = 12;

    /// Pack `pos`, spilling it to `far` when it does not fit inline.
    pub(crate) fn pack(pos: Pos, far: &mut Vec<Pos>) -> Loc {
        if pos.line < Loc::FAR >> Loc::COL_BITS && pos.col < 1 << Loc::COL_BITS {
            return Loc(pos.line << Loc::COL_BITS | pos.col);
        }
        far.push(pos);
        let index = u32::try_from(far.len() - 1).expect("a far index fits in 31 bits");
        assert!(index < Loc::FAR, "a far index fits in 31 bits");
        Loc(Loc::FAR | index)
    }

    /// The position, with `far` the table the position spilled to when
    /// it was packed.
    pub fn unpack(self, far: &[Pos]) -> Pos {
        if self.0 & Loc::FAR != 0 {
            return far[(self.0 & !Loc::FAR) as usize];
        }
        Pos::new(self.0 >> Loc::COL_BITS, self.0 & ((1 << Loc::COL_BITS) - 1))
    }
}

impl fmt::Debug for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 & Loc::FAR != 0 {
            return write!(f, "far#{}", self.0 & !Loc::FAR);
        }
        let pos = self.unpack(&[]);
        write!(f, "{}:{}", pos.line, pos.col)
    }
}

/// A 64-bit integer literal stored as two 32-bit halves, so a node
/// holding one needs only 4-byte alignment.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Lit([u32; 2]);

impl Lit {
    /// The literal `v`.
    pub fn new(v: i64) -> Lit {
        Lit([v as u32, (v >> 32) as u32])
    }

    /// Its value.
    pub fn get(self) -> i64 {
        (u64::from(self.0[1]) << 32 | u64::from(self.0[0])) as i64
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

/// Expression payloads, 12 bytes. Children are ids in the same
/// function's arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(Lit),
    /// Float literal.
    FloatLit(f32),
    /// String literal (only valid as an argument to `wb*` calls), its
    /// unescaped text in the program's [`Names`].
    StrLit(Sym),
    /// A variable name as parsed; sema binds every one, so a checked
    /// program holds [`ExprKind::Bound`] instead.
    Var(Sym),
    /// A variable name and what sema bound it to.
    Bound(Binding),
    /// `threadIdx.x` and friends: family + axis (0=x, 1=y, 2=z).
    Builtin(BuiltinVar, u8),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary operation.
    Binary(BinOp, ExprId, ExprId),
    /// `cond ? a : b`: the condition, then `a`, whose successor in the
    /// arena is `b`.
    Ternary(ExprId, ExprId),
    /// A call as parsed; sema binds each call of a built-in, so a
    /// checked program holds [`ExprKind::Intrinsic`] for those, and
    /// `Call` only for user functions.
    Call {
        /// The function called.
        callee: Sym,
        /// The first argument; the arguments are consecutive.
        first: ExprId,
        /// The number of arguments.
        len: u16,
    },
    /// A call of a built-in function, bound by sema to its row.
    Intrinsic {
        /// The built-in called.
        which: Intrinsic,
        /// The first argument; the arguments are consecutive.
        first: ExprId,
        /// The number of arguments.
        len: u16,
    },
    /// `base[index]` — pointer or shared-array element.
    Index(ExprId, ExprId),
    /// `(type) expr`
    Cast(Type, ExprId),
    /// `&var` — host out-parameters (`cudaMalloc(&d, n)`) — and the
    /// frame slot sema bound the name to.
    AddrOf(Sym, u32),
    /// `sizeof(type)`
    SizeOf(Type),
}

impl ExprKind {
    /// The arguments of a [`ExprKind::Call`] or [`ExprKind::Intrinsic`].
    pub fn args(first: ExprId, len: u16) -> ExprList {
        ExprList {
            first,
            len: len.into(),
        }
    }
}

impl ExprId {
    /// The expression after this one in the arena.
    pub fn next(self) -> ExprId {
        ExprId::new(self.index() + 1)
    }
}

impl Expr {
    /// True when this expression can be assigned to.
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::Var(_) | ExprKind::Bound(_) | ExprKind::Index(..)
        )
    }
}

/// A launch's operands, consecutive in the arena: its grid extents,
/// then its block extents (1–3 each, x first; an absent extent is 1),
/// then the kernel arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchOperands {
    /// Every operand.
    pub all: ExprList,
    /// How many of them are grid extents.
    pub grid: u8,
    /// How many grid extents follow as block extents.
    pub block: u8,
}

impl LaunchOperands {
    /// The grid extents.
    pub fn grid(self) -> ExprList {
        self.all.slice(0, self.grid.into())
    }

    /// The block extents.
    pub fn block(self) -> ExprList {
        self.all.slice(self.grid.into(), self.block.into())
    }

    /// The kernel arguments.
    pub fn args(self) -> ExprList {
        let skip = u32::from(self.grid) + u32::from(self.block);
        self.all.slice(skip, self.all.len - skip)
    }
}

/// Statement node. Children are ids in the same function's arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stmt {
    /// Local variable declaration.
    Decl {
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: Sym,
        /// Optional initializer.
        init: Option<ExprId>,
        /// Source location.
        pos: Pos,
        /// Frame slot the declaration binds.
        slot: u32,
    },
    /// `__shared__ float tile[A][B];` — dims must be constant.
    SharedDecl {
        /// Element type.
        elem: Type,
        /// Array name.
        name: Sym,
        /// Dimension extents (constant expressions).
        dims: ExprList,
        /// Source location.
        pos: Pos,
        /// Frame slot the array name binds.
        slot: u32,
    },
    /// Assignment, optionally compound (`+=` carries `Some(Add)`).
    Assign {
        /// Assignable target (checked in sema).
        target: ExprId,
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Right-hand side.
        value: ExprId,
        /// Source location.
        pos: Pos,
    },
    /// Expression evaluated for side effects (calls).
    Expr(ExprId),
    /// Conditional.
    If {
        /// Condition.
        cond: ExprId,
        /// Then branch.
        then_blk: Block,
        /// Else branch.
        else_blk: Option<Block>,
        /// Source location.
        pos: Pos,
    },
    /// While loop.
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: Block,
        /// Source location.
        pos: Pos,
    },
    /// C-style for loop.
    For {
        /// Initializer statement.
        init: Option<StmtId>,
        /// Condition (true when absent).
        cond: Option<ExprId>,
        /// Step statement.
        step: Option<StmtId>,
        /// Body.
        body: Block,
        /// Source location.
        pos: Pos,
    },
    /// Return from the enclosing function.
    Return {
        /// Returned value for non-void functions.
        value: Option<ExprId>,
        /// Source location.
        pos: Pos,
    },
    /// Break out of the innermost loop.
    Break(Pos),
    /// Continue the innermost loop.
    Continue(Pos),
    /// Nested block scope.
    Block(Block),
    /// Kernel launch: `name<<<grid, block>>>(args);`
    Launch {
        /// Kernel name.
        kernel: Sym,
        /// Grid and block extents and kernel arguments.
        operands: LaunchOperands,
        /// Source location.
        pos: Pos,
    },
    /// `#pragma acc parallel loop` applied to the following for loop.
    AccParallelLoop {
        /// The annotated loop (must be a canonical counted `for`).
        body: StmtId,
        /// Source location.
        pos: Pos,
    },
}

/// Function qualifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncKind {
    /// `__global__` — launchable kernel.
    Kernel,
    /// `__device__` — callable from kernels only.
    Device,
    /// Unqualified — host function.
    Host,
}

/// Function parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: Sym,
}

/// Function definition. It owns its expressions and statements in two
/// arenas, each node once; every child is an id into them.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Kernel / device / host.
    pub kind: FuncKind,
    /// Return type.
    pub ret: Type,
    /// Function name.
    pub name: Sym,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// Source location of the definition.
    pub pos: Pos,
    /// Frame layout: the declared type of each slot, parameters first
    /// (sema fills it; one slot per parameter and per declaration).
    pub frame: Vec<Type>,
    /// Every expression of the body.
    pub exprs: Vec<Expr>,
    /// Every statement of the body.
    pub stmts: Vec<Stmt>,
    /// The expression positions [`Loc`] could not hold inline.
    pub far: Vec<Pos>,
}

impl FuncDef {
    /// The source position of `e`, one of this function's expressions.
    pub fn pos(&self, e: &Expr) -> Pos {
        e.at.unpack(&self.far)
    }

    /// The expression `id` names.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.index()]
    }

    /// The statement `id` names.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.index()]
    }

    /// The statements of `b`, in order.
    pub fn block(&self, b: Block) -> &[Stmt] {
        let first = b.first.index();
        &self.stmts[first..first + b.len as usize]
    }

    /// The expressions of `l`, in order.
    pub fn list(&self, l: ExprList) -> &[Expr] {
        let first = l.first.index();
        &self.exprs[first..first + l.len as usize]
    }

    /// Heap bytes the definition holds beyond its own size.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.params)
            + vec_bytes(&self.frame)
            + vec_bytes(&self.exprs)
            + vec_bytes(&self.stmts)
            + vec_bytes(&self.far)
    }
}

/// `__constant__ float mask[25];` — device constant memory, filled by
/// the host with `cudaMemcpyToSymbol`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantDef {
    /// Element type.
    pub elem: Type,
    /// Symbol name.
    pub name: Sym,
    /// Extent (constant expression), in `exprs`.
    pub size: ExprId,
    /// The extent's expressions.
    pub exprs: Vec<Expr>,
    /// Their positions that do not fit a [`Loc`].
    pub far: Vec<Pos>,
    /// Source location.
    pub pos: Pos,
}

/// Top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function definition.
    Func(FuncDef),
    /// A constant-memory array.
    Constant(ConstantDef),
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Unit {
    /// Items in source order.
    pub items: Vec<Item>,
    /// Every name the items spell.
    pub names: Names,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        assert_eq!(Type::FLOAT.ptr_to().to_string(), "float*");
        assert_eq!(Type::INT.to_string(), "int");
        assert_eq!(
            format!("{:?}", Type::INT.ptr_to().ptr_to()),
            "Ptr(Ptr(Int))"
        );
        assert_eq!(format!("{:?}", Type::VOID), "Void");
    }

    #[test]
    fn sizeofs() {
        assert_eq!(Type::INT.size_of(), 4);
        assert_eq!(Type::FLOAT.size_of(), 4);
        assert_eq!(Type::FLOAT.ptr_to().size_of(), 8);
    }

    #[test]
    fn pointee() {
        assert_eq!(Type::FLOAT.ptr_to().pointee(), Some(Type::FLOAT));
        assert_eq!(Type::INT.pointee(), None);
    }

    /// Cached programs hold their AST: nodes stay small and inline.
    #[test]
    fn nodes_stay_small() {
        assert_eq!(std::mem::size_of::<Expr>(), 16);
        assert!(std::mem::size_of::<Stmt>() <= 32);
        assert_eq!(std::mem::size_of::<Type>(), 4);
        assert_eq!(std::mem::size_of::<Option<ExprId>>(), 4);
    }

    #[test]
    fn names_spell_back() {
        let mut n = Names::default();
        let (a, b) = (n.push("alpha"), n.push("b"));
        assert_eq!((n.name(a), n.name(b)), ("alpha", "b"));
        assert_eq!(n.find("b"), Some(b));
        assert_eq!(n.find("c"), None);
    }

    #[test]
    fn lvalue_classification() {
        let at = Loc(0);
        let node = |kind| Expr { kind, at };
        assert!(node(ExprKind::Var(Sym(0))).is_lvalue());
        assert!(node(ExprKind::Bound(Binding::Slot(0))).is_lvalue());
        assert!(!node(ExprKind::IntLit(Lit::new(3))).is_lvalue());
    }

    #[test]
    fn positions_and_literals_round_trip() {
        let mut far = Vec::new();
        for pos in [
            Pos::new(1, 1),
            Pos::new(3, 4095),
            Pos::new(3, 4096),
            Pos::new(1 << 19, 2),
            Pos::new(u32::MAX, u32::MAX),
        ] {
            assert_eq!(Loc::pack(pos, &mut far).unpack(&far), pos);
        }
        assert_eq!(far.len(), 3, "only the three that do not fit spill");
        for v in [0, 1, -1, i64::MAX, i64::MIN, 1 << 40] {
            assert_eq!(Lit::new(v).get(), v);
        }
    }
}
