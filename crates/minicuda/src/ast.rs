//! Abstract syntax tree for the minicuda language.

use crate::diag::Pos;
use std::fmt;

/// Static types. `unsigned` qualifiers are accepted by the parser and
/// folded into the signed equivalents; labs never rely on wraparound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// No value (function returns only).
    Void,
    /// 64-bit integer (covers C `int`, `long`, `size_t` uses in labs).
    Int,
    /// 32-bit float, matching GPU single precision.
    Float,
    /// Boolean.
    Bool,
    /// Pointer to elements of the inner type.
    Ptr(Box<Type>),
}

impl Type {
    /// Pointer to this type.
    pub fn ptr_to(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// Element type if this is a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(inner) => Some(inner),
            _ => None,
        }
    }

    /// Size in bytes, as `sizeof` reports. Pointers are 8.
    pub fn size_of(&self) -> i64 {
        match self {
            Type::Void => 0,
            Type::Int => 4, // C `int` on the platforms labs target
            Type::Float => 4,
            Type::Bool => 1,
            Type::Ptr(_) => 8,
        }
    }

    /// True for `int`/`float`/`bool` scalars.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Int | Type::Float | Type::Bool)
    }

    /// True when arithmetic is defined on the type.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Int | Type::Float)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Bool => write!(f, "bool"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
        }
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

/// The slot the parser gives every name; `sema::analyze` replaces each
/// one, so a checked program holds none.
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
    Predefined(i64),
}

/// Expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Payload.
    pub kind: ExprKind,
    /// Source location for diagnostics.
    pub pos: Pos,
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f32),
    /// String literal (only valid as an argument to `wb*` calls).
    StrLit(String),
    /// Named variable and what sema bound it to.
    Var(String, Binding),
    /// `threadIdx.x` and friends: family + axis (0=x, 1=y, 2=z).
    Builtin(BuiltinVar, u8),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Function or intrinsic call.
    Call(String, Vec<Expr>),
    /// `base[index]` — pointer or shared-array element.
    Index(Box<Expr>, Box<Expr>),
    /// `(type) expr`
    Cast(Type, Box<Expr>),
    /// `&var` — host out-parameters (`cudaMalloc(&d, n)`) — and the
    /// frame slot sema bound the name to.
    AddrOf(String, u32),
    /// `sizeof(type)`
    SizeOf(Type),
}

impl Expr {
    /// Build an expression at a position.
    pub fn new(kind: ExprKind, pos: Pos) -> Self {
        Expr { kind, pos }
    }

    /// Integer literal convenience.
    pub fn int(v: i64, pos: Pos) -> Self {
        Expr::new(ExprKind::IntLit(v), pos)
    }

    /// True when this expression can be assigned to.
    pub fn is_lvalue(&self) -> bool {
        matches!(self.kind, ExprKind::Var(..) | ExprKind::Index(..))
    }
}

/// A grid or block dimension triple in a launch configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Dim3Expr {
    /// x extent.
    pub x: Expr,
    /// y extent (defaults to 1).
    pub y: Option<Expr>,
    /// z extent (defaults to 1).
    pub z: Option<Expr>,
}

/// Statement node.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local variable declaration.
    Decl {
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
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
        name: String,
        /// Dimension extents (constant expressions).
        dims: Vec<Expr>,
        /// Source location.
        pos: Pos,
        /// Frame slot the array name binds.
        slot: u32,
    },
    /// Assignment, optionally compound (`+=` carries `Some(Add)`).
    Assign {
        /// Assignable target (checked in sema).
        target: Expr,
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Right-hand side.
        value: Expr,
        /// Source location.
        pos: Pos,
    },
    /// Expression evaluated for side effects (calls).
    Expr(Expr),
    /// Conditional.
    If {
        /// Condition.
        cond: Expr,
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
        cond: Expr,
        /// Body.
        body: Block,
        /// Source location.
        pos: Pos,
    },
    /// C-style for loop.
    For {
        /// Initializer statement.
        init: Option<Box<Stmt>>,
        /// Condition (true when absent).
        cond: Option<Expr>,
        /// Step statement.
        step: Option<Box<Stmt>>,
        /// Body.
        body: Block,
        /// Source location.
        pos: Pos,
    },
    /// Return from the enclosing function.
    Return {
        /// Returned value for non-void functions.
        value: Option<Expr>,
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
        kernel: String,
        /// Grid dimensions. Both triples are boxed: inline they would
        /// make every `Stmt` three times its size, and compiled programs
        /// keep their AST in the cache.
        grid: Box<Dim3Expr>,
        /// Block dimensions.
        block: Box<Dim3Expr>,
        /// Kernel arguments.
        args: Vec<Expr>,
        /// Source location.
        pos: Pos,
    },
    /// `#pragma acc parallel loop` applied to the following for loop.
    AccParallelLoop {
        /// The annotated loop (must be a canonical counted `for`).
        body: Box<Stmt>,
        /// Source location.
        pos: Pos,
    },
}

impl Stmt {
    /// Source position of the statement.
    pub fn pos(&self) -> Pos {
        match self {
            Stmt::Decl { pos, .. }
            | Stmt::SharedDecl { pos, .. }
            | Stmt::Assign { pos, .. }
            | Stmt::If { pos, .. }
            | Stmt::While { pos, .. }
            | Stmt::For { pos, .. }
            | Stmt::Return { pos, .. }
            | Stmt::Launch { pos, .. }
            | Stmt::AccParallelLoop { pos, .. } => *pos,
            Stmt::Expr(e) => e.pos,
            Stmt::Break(p) | Stmt::Continue(p) => *p,
            Stmt::Block(b) => b.stmts.first().map(Stmt::pos).unwrap_or_default(),
        }
    }
}

/// A brace-delimited statement list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
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
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
}

/// Function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Kernel / device / host.
    pub kind: FuncKind,
    /// Return type.
    pub ret: Type,
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// Source location of the definition.
    pub pos: Pos,
    /// Frame layout: the declared type of each slot, parameters first
    /// (sema fills it; one slot per parameter and per declaration).
    pub frame: Vec<Type>,
}

/// `__constant__ float mask[25];` — device constant memory, filled by
/// the host with `cudaMemcpyToSymbol`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantDef {
    /// Element type.
    pub elem: Type,
    /// Symbol name.
    pub name: String,
    /// Extent (constant expression).
    pub size: Expr,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        assert_eq!(Type::Float.ptr_to().to_string(), "float*");
        assert_eq!(Type::Int.to_string(), "int");
    }

    #[test]
    fn sizeofs() {
        assert_eq!(Type::Int.size_of(), 4);
        assert_eq!(Type::Float.size_of(), 4);
        assert_eq!(Type::Float.ptr_to().size_of(), 8);
    }

    #[test]
    fn pointee() {
        assert_eq!(Type::Float.ptr_to().pointee(), Some(&Type::Float));
        assert_eq!(Type::Int.pointee(), None);
    }

    /// Cached programs hold their AST: a binding must not grow a node.
    #[test]
    fn expr_stays_56_bytes() {
        assert!(std::mem::size_of::<Expr>() <= 56);
    }

    #[test]
    fn lvalue_classification() {
        let p = Pos::unknown();
        assert!(Expr::new(ExprKind::Var("x".into(), Binding::Slot(UNBOUND)), p).is_lvalue());
        assert!(!Expr::int(3, p).is_lvalue());
    }
}
