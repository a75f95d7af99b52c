//! Runtime values shared by the host and SIMT interpreters.

use crate::ast::{BinOp, Type, UnOp};
use std::fmt;

/// Address spaces a pointer can refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Host (CPU) memory: `malloc`, `wbImport*` buffers.
    Host,
    /// Device global memory: `cudaMalloc` buffers.
    Global,
    /// Per-block shared memory (`__shared__` arrays).
    Shared,
    /// Device constant memory (`__constant__` symbols).
    Constant,
}

impl Space {
    /// Label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Space::Host => "host",
            Space::Global => "device global",
            Space::Shared => "shared",
            Space::Constant => "constant",
        }
    }
}

/// How the 32-bit words of an allocation are interpreted.
///
/// Allocations are raw words; interpretation flows through pointer
/// types, exactly as in C. A `malloc` result starts [`ElemType::Unknown`]
/// and picks up its element type from the first cast or typed
/// declaration it is assigned through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemType {
    /// Interpretation not yet established.
    Unknown,
    /// IEEE-754 single precision.
    F32,
    /// 32-bit signed integer.
    I32,
}

impl ElemType {
    /// Element interpretation implied by a pointer's static type.
    pub fn of(ty: &Type) -> ElemType {
        match *ty {
            Type::FLOAT => ElemType::F32,
            Type::INT | Type::BOOL => ElemType::I32,
            _ => ElemType::Unknown,
        }
    }
}

/// A typed pointer.
///
/// `level` supports multi-dimensional shared arrays: a 2-D `__shared__`
/// array is a level-0 pointer; the first index produces a level-1
/// pointer (a row); the second index reaches an element. Ordinary 1-D
/// allocations always sit at the last level, so indexing loads directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ptr {
    /// Address space.
    pub space: Space,
    /// Allocation id within the space's pool.
    pub alloc: u32,
    /// Element offset from the allocation base.
    pub offset: i64,
    /// Element interpretation.
    pub elem: ElemType,
    /// Indexing depth consumed so far (multi-dim shared arrays).
    pub level: u8,
}

impl Ptr {
    /// The null pointer (uninitialized pointer variables).
    pub fn null() -> Ptr {
        Ptr {
            space: Space::Host,
            alloc: u32::MAX,
            offset: 0,
            elem: ElemType::Unknown,
            level: 0,
        }
    }

    /// True for the null pointer.
    pub fn is_null(&self) -> bool {
        self.alloc == u32::MAX
    }

    /// Retype the pointer's element interpretation (cast / typed decl).
    pub fn with_elem(mut self, elem: ElemType) -> Ptr {
        if elem != ElemType::Unknown {
            self.elem = elem;
        }
        self
    }
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (covers `int` and `bool` truth values).
    I(i64),
    /// Float.
    F(f32),
    /// Boolean (comparison results).
    B(bool),
    /// Pointer.
    P(Ptr),
}

impl Value {
    /// Zero value of a declared type (uninitialized variables).
    pub fn zero_of(ty: &Type) -> Value {
        match *ty {
            Type::FLOAT => Value::F(0.0),
            Type::BOOL => Value::B(false),
            t if t.is_ptr() => Value::P(Ptr::null()),
            _ => Value::I(0),
        }
    }

    /// Truthiness for conditions (`if (n)` with an int works, as in C).
    pub fn truthy(&self) -> Result<bool, String> {
        match self {
            Value::B(b) => Ok(*b),
            Value::I(v) => Ok(*v != 0),
            Value::F(v) => Ok(*v != 0.0),
            Value::P(_) => Err("a pointer is not a condition".to_string()),
        }
    }

    /// Numeric conversion to `i64`, truncating floats like a C cast.
    pub fn as_int(&self) -> Result<i64, String> {
        match self {
            Value::I(v) => Ok(*v),
            Value::F(v) => Ok(*v as i64),
            Value::B(b) => Ok(*b as i64),
            Value::P(_) => Err("expected a number, found a pointer".to_string()),
        }
    }

    /// Numeric conversion to `f32`.
    pub fn as_float(&self) -> Result<f32, String> {
        match self {
            Value::I(v) => Ok(*v as f32),
            Value::F(v) => Ok(*v),
            Value::B(b) => Ok(*b as i64 as f32),
            Value::P(_) => Err("expected a number, found a pointer".to_string()),
        }
    }

    /// Pointer extraction.
    pub fn as_ptr(&self) -> Result<Ptr, String> {
        match self {
            Value::P(p) => Ok(*p),
            other => Err(format!("expected a pointer, found {other}")),
        }
    }

    /// Convert to the representation implied by a declared type
    /// (assignment / argument / store coercion, C-style).
    pub fn coerce_to(&self, ty: &Type) -> Result<Value, String> {
        match *ty {
            Type::INT => Ok(Value::I(self.as_int()?)),
            Type::FLOAT => Ok(Value::F(self.as_float()?)),
            Type::BOOL => Ok(Value::B(self.truthy()?)),
            Type::VOID => Err("cannot produce a void value".to_string()),
            t => {
                let p = self.as_ptr()?;
                Ok(Value::P(
                    p.with_elem(ElemType::of(&t.pointee().expect("a pointer"))),
                ))
            }
        }
    }

    /// Convert to a memory element representation for a store.
    pub fn coerce_to_elem(&self, elem: ElemType) -> Result<Value, String> {
        match elem {
            ElemType::F32 => Ok(Value::F(self.as_float()?)),
            ElemType::I32 => Ok(Value::I(self.as_int()?)),
            // Unknown element type: adopt the value's own representation.
            ElemType::Unknown => match self {
                Value::B(b) => Ok(Value::I(*b as i64)),
                v => Ok(*v),
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I(v) => write!(f, "{v}"),
            Value::F(v) => write!(f, "{v}"),
            Value::B(b) => write!(f, "{b}"),
            Value::P(p) if p.is_null() => write!(f, "(nil)"),
            Value::P(p) => write!(f, "<{} ptr #{}+{}>", p.space.label(), p.alloc, p.offset),
        }
    }
}

/// Apply a binary operator with C-style promotions.
///
/// Errors are plain strings; callers attach source positions and thread
/// coordinates.
pub fn apply_binop(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    // Pointer arithmetic and comparison.
    if let Value::P(p) = a {
        match op {
            Add => {
                let d = b.as_int()?;
                let mut q = p;
                q.offset += d;
                return Ok(Value::P(q));
            }
            Sub => {
                if let Value::P(p2) = b {
                    return Ok(Value::I(p.offset - p2.offset));
                }
                let d = b.as_int()?;
                let mut q = p;
                q.offset -= d;
                return Ok(Value::P(q));
            }
            Eq => {
                return Ok(Value::B(
                    matches!(b, Value::P(p2) if p == p2)
                        || (p.is_null() && b.as_int().map(|v| v == 0).unwrap_or(false)),
                ))
            }
            Ne => {
                let eq = apply_binop(Eq, a, b)?;
                return Ok(Value::B(!eq.truthy()?));
            }
            _ => return Err("operator not defined on pointers".to_string()),
        }
    }
    if let Value::P(p) = b {
        // int + ptr
        if op == Add {
            let d = a.as_int()?;
            let mut q = p;
            q.offset += d;
            return Ok(Value::P(q));
        }
        if op == Eq || op == Ne {
            return apply_binop(op, b, a);
        }
        return Err("operator not defined on pointers".to_string());
    }

    if op.is_logical() {
        let l = a.truthy()?;
        let r = b.truthy()?;
        return Ok(Value::B(match op {
            And => l && r,
            Or => l || r,
            _ => unreachable!(),
        }));
    }
    if op.is_bitwise() {
        if matches!(a, Value::F(_)) || matches!(b, Value::F(_)) {
            return Err("bitwise operators require integers".to_string());
        }
        let l = a.as_int()?;
        let r = b.as_int()?;
        return Ok(Value::I(match op {
            Shl => {
                let sh = r.clamp(0, 63) as u32;
                l.wrapping_shl(sh)
            }
            Shr => {
                let sh = r.clamp(0, 63) as u32;
                l.wrapping_shr(sh)
            }
            BitAnd => l & r,
            BitOr => l | r,
            BitXor => l ^ r,
            _ => unreachable!(),
        }));
    }

    let float_mode = matches!(a, Value::F(_)) || matches!(b, Value::F(_));
    if op.is_comparison() {
        let res = if float_mode {
            let l = a.as_float()?;
            let r = b.as_float()?;
            match op {
                Eq => l == r,
                Ne => l != r,
                Lt => l < r,
                Le => l <= r,
                Gt => l > r,
                Ge => l >= r,
                _ => unreachable!(),
            }
        } else {
            let l = a.as_int()?;
            let r = b.as_int()?;
            match op {
                Eq => l == r,
                Ne => l != r,
                Lt => l < r,
                Le => l <= r,
                Gt => l > r,
                Ge => l >= r,
                _ => unreachable!(),
            }
        };
        return Ok(Value::B(res));
    }

    if float_mode {
        let l = a.as_float()?;
        let r = b.as_float()?;
        Ok(Value::F(match op {
            Add => l + r,
            Sub => l - r,
            Mul => l * r,
            Div => l / r, // IEEE semantics: /0 gives inf/nan, as on GPUs
            Rem => {
                return Err("% is not defined on floats (use fmodf)".to_string());
            }
            _ => unreachable!(),
        }))
    } else {
        let l = a.as_int()?;
        let r = b.as_int()?;
        Ok(Value::I(match op {
            Add => l.wrapping_add(r),
            Sub => l.wrapping_sub(r),
            Mul => l.wrapping_mul(r),
            Div => {
                if r == 0 {
                    return Err("integer division by zero".to_string());
                }
                l.wrapping_div(r)
            }
            Rem => {
                if r == 0 {
                    return Err("integer modulo by zero".to_string());
                }
                l.wrapping_rem(r)
            }
            _ => unreachable!(),
        }))
    }
}

/// Apply a unary operator.
pub fn apply_unop(op: UnOp, v: Value) -> Result<Value, String> {
    match op {
        UnOp::Neg => match v {
            Value::I(x) => Ok(Value::I(x.wrapping_neg())),
            Value::F(x) => Ok(Value::F(-x)),
            Value::B(b) => Ok(Value::I(-(b as i64))),
            Value::P(_) => Err("cannot negate a pointer".to_string()),
        },
        UnOp::Not => Ok(Value::B(!v.truthy()?)),
        UnOp::BitNot => Ok(Value::I(!v.as_int()?)),
    }
}

/// A math function. Sema binds each call to its spelling's row in the
/// built-in table ([`crate::intrinsic`]); executors apply the op per
/// lane ([`MathOp::apply`]), so warp-batched dispatch never
/// string-matches inside a lane loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathOp {
    Sqrt,
    Rsqrt,
    Exp,
    Log,
    Log2,
    Sin,
    Cos,
    Fabs,
    Ceil,
    Floor,
    Pow,
    Fmod,
    Fmin,
    Fmax,
    Abs,
    Min,
    Max,
}

impl MathOp {
    /// How many arguments the function takes.
    pub const fn arity(self) -> u8 {
        match self {
            MathOp::Pow
            | MathOp::Fmod
            | MathOp::Fmin
            | MathOp::Fmax
            | MathOp::Min
            | MathOp::Max => 2,
            _ => 1,
        }
    }

    /// Apply the function, checking its arity (sema does not). `name`
    /// is only for error messages, so diagnostics match the spelling
    /// the program actually called.
    pub fn apply(self, name: &str, args: &[Value]) -> Result<Value, String> {
        let n = usize::from(self.arity());
        if args.len() != n {
            let s = if n == 1 { "" } else { "s" };
            return Err(format!("{name} expects {n} argument{s}"));
        }
        let unary =
            |f: fn(f32) -> f32| -> Result<Value, String> { Ok(Value::F(f(args[0].as_float()?))) };
        let binary_f = |f: fn(f32, f32) -> f32| -> Result<Value, String> {
            Ok(Value::F(f(args[0].as_float()?, args[1].as_float()?)))
        };
        match self {
            MathOp::Sqrt => unary(f32::sqrt),
            MathOp::Rsqrt => unary(|x| 1.0 / x.sqrt()),
            MathOp::Exp => unary(f32::exp),
            MathOp::Log => unary(f32::ln),
            MathOp::Log2 => unary(f32::log2),
            MathOp::Sin => unary(f32::sin),
            MathOp::Cos => unary(f32::cos),
            MathOp::Fabs => unary(f32::abs),
            MathOp::Ceil => unary(f32::ceil),
            MathOp::Floor => unary(f32::floor),
            MathOp::Pow => binary_f(f32::powf),
            MathOp::Fmod => binary_f(|a, b| a % b),
            MathOp::Fmin => binary_f(f32::min),
            MathOp::Fmax => binary_f(f32::max),
            MathOp::Abs => match args[0] {
                Value::F(x) => Ok(Value::F(x.abs())),
                other => other.as_int().map(|v| Value::I(v.abs())),
            },
            MathOp::Min | MathOp::Max => {
                let float_mode = matches!(args[0], Value::F(_)) || matches!(args[1], Value::F(_));
                if float_mode {
                    let a = args[0].as_float()?;
                    let b = args[1].as_float()?;
                    Ok(Value::F(if self == MathOp::Min {
                        a.min(b)
                    } else {
                        a.max(b)
                    }))
                } else {
                    let a = args[0].as_int()?;
                    let b = args[1].as_int()?;
                    Ok(Value::I(if self == MathOp::Min {
                        a.min(b)
                    } else {
                        a.max(b)
                    }))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp::*;

    /// The math function the built-in table binds `name` to.
    fn math(name: &str) -> MathOp {
        crate::intrinsic::Intrinsic::lookup(name)
            .and_then(|b| b.as_math())
            .unwrap_or_else(|| panic!("{name} is a math built-in"))
    }

    #[test]
    fn every_math_spelling_resolves_once() {
        for (name, op) in [
            ("sqrtf", MathOp::Sqrt),
            ("sqrt", MathOp::Sqrt),
            ("fmodf", MathOp::Fmod),
            ("fminf", MathOp::Fmin),
            ("fmax", MathOp::Fmax),
            ("abs", MathOp::Abs),
        ] {
            assert_eq!(math(name), op, "{name}");
        }
    }

    #[test]
    fn int_arithmetic() {
        assert_eq!(apply_binop(Add, Value::I(2), Value::I(3)), Ok(Value::I(5)));
        assert_eq!(apply_binop(Div, Value::I(7), Value::I(2)), Ok(Value::I(3)));
        assert!(apply_binop(Div, Value::I(1), Value::I(0)).is_err());
        assert!(apply_binop(Rem, Value::I(1), Value::I(0)).is_err());
    }

    #[test]
    fn mixed_promotes_to_float() {
        assert_eq!(
            apply_binop(Add, Value::I(1), Value::F(0.5)),
            Ok(Value::F(1.5))
        );
        assert_eq!(
            apply_binop(Div, Value::F(1.0), Value::I(0)),
            Ok(Value::F(f32::INFINITY))
        );
    }

    #[test]
    fn comparisons_yield_bool() {
        assert_eq!(
            apply_binop(Lt, Value::I(1), Value::I(2)),
            Ok(Value::B(true))
        );
        assert_eq!(
            apply_binop(Ge, Value::F(1.5), Value::I(2)),
            Ok(Value::B(false))
        );
    }

    #[test]
    fn logical_ops_accept_ints() {
        assert_eq!(
            apply_binop(And, Value::I(1), Value::B(true)),
            Ok(Value::B(true))
        );
        assert_eq!(
            apply_binop(Or, Value::I(0), Value::I(0)),
            Ok(Value::B(false))
        );
    }

    #[test]
    fn bitwise_int_only() {
        assert_eq!(apply_binop(Shl, Value::I(1), Value::I(4)), Ok(Value::I(16)));
        assert_eq!(apply_binop(Shr, Value::I(16), Value::I(2)), Ok(Value::I(4)));
        assert!(apply_binop(BitAnd, Value::F(1.0), Value::I(1)).is_err());
    }

    #[test]
    fn pointer_arithmetic_in_elements() {
        let p = Ptr {
            space: Space::Global,
            alloc: 3,
            offset: 10,
            elem: ElemType::F32,
            level: 0,
        };
        match apply_binop(Add, Value::P(p), Value::I(5)).unwrap() {
            Value::P(q) => assert_eq!(q.offset, 15),
            other => panic!("unexpected {other:?}"),
        }
        match apply_binop(Add, Value::I(2), Value::P(p)).unwrap() {
            Value::P(q) => assert_eq!(q.offset, 12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pointer_comparison() {
        let p = Ptr::null();
        assert_eq!(
            apply_binop(Eq, Value::P(p), Value::I(0)),
            Ok(Value::B(true))
        );
        assert_eq!(
            apply_binop(Ne, Value::P(p), Value::P(p)),
            Ok(Value::B(false))
        );
    }

    #[test]
    fn pointer_difference() {
        let mut p = Ptr::null();
        p.alloc = 1;
        let mut q = p;
        q.offset = 8;
        assert_eq!(apply_binop(Sub, Value::P(q), Value::P(p)), Ok(Value::I(8)));
    }

    #[test]
    fn unary_ops() {
        assert_eq!(apply_unop(UnOp::Neg, Value::F(2.0)), Ok(Value::F(-2.0)));
        assert_eq!(apply_unop(UnOp::Not, Value::I(0)), Ok(Value::B(true)));
        assert_eq!(apply_unop(UnOp::BitNot, Value::I(0)), Ok(Value::I(-1)));
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::F(2.9).coerce_to(&Type::INT), Ok(Value::I(2)));
        assert_eq!(Value::I(1).coerce_to(&Type::BOOL), Ok(Value::B(true)));
        assert_eq!(Value::I(3).coerce_to(&Type::FLOAT), Ok(Value::F(3.0)));
        assert!(Value::I(3).coerce_to(&Type::FLOAT.ptr_to()).is_err());
    }

    #[test]
    fn pointer_coercion_sets_elem() {
        let p = Ptr::null();
        let v = Value::P(p).coerce_to(&Type::FLOAT.ptr_to()).unwrap();
        match v {
            Value::P(q) => assert_eq!(q.elem, ElemType::F32),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero_of(&Type::FLOAT), Value::F(0.0));
        assert_eq!(Value::zero_of(&Type::INT), Value::I(0));
        assert!(matches!(
            Value::zero_of(&Type::INT.ptr_to()),
            Value::P(p) if p.is_null()
        ));
    }

    #[test]
    fn shift_amount_clamped() {
        assert_eq!(
            apply_binop(Shl, Value::I(1), Value::I(100)),
            Ok(Value::I(1i64 << 63))
        );
    }

    #[test]
    fn math_intrinsics() {
        let apply = |name, args: &[Value]| math(name).apply(name, args);
        assert_eq!(apply("sqrtf", &[Value::F(4.0)]), Ok(Value::F(2.0)));
        assert_eq!(apply("min", &[Value::I(3), Value::I(5)]), Ok(Value::I(3)));
        assert_eq!(
            apply("max", &[Value::F(1.5), Value::I(1)]),
            Ok(Value::F(1.5))
        );
        assert_eq!(apply("abs", &[Value::B(true)]), Ok(Value::I(1)));
        assert_eq!(
            apply("fminf", &[Value::F(1.0)]),
            Err("fminf expects 2 arguments".to_string())
        );
    }
}
