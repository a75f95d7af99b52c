//! Runtime values, and what every operator means on them.
//!
//! Each operator has one definition here per operand kind (`Prim`,
//! `Num`, `unary`, `convert`, [`MathOp`], `offset_step`), handed as a
//! plain function to a consumer (`Unary`, `Binary`). The scalar
//! one ([`apply_unop`], [`apply_binop`], [`Value::coerce_to`],
//! [`MathOp::apply`]) serves the host, constant folding, uniform
//! registers and per-lane fallbacks; the batched executor's typed lanes
//! map it over a slice, one monomorphic loop per operator and kind.

use crate::ast::{BinOp, Type, UnOp};
use std::fmt;

const NOT_A_NUMBER: &str = "expected a number, found a pointer";
const NOT_A_CONDITION: &str = "a pointer is not a condition";
const NOT_ON_POINTERS: &str = "operator not defined on pointers";
const VOID_VALUE: &str = "cannot produce a void value";

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

    /// The pointer a cast (or typed declaration) to the pointer type
    /// `ty` yields: it takes the pointee's element interpretation, when
    /// that is known.
    pub(crate) fn cast(mut self, ty: &Type) -> Ptr {
        let elem = ElemType::of(&ty.pointee().expect("a pointer type"));
        if elem != ElemType::Unknown {
            self.elem = elem;
        }
        self
    }

    /// The pointer `k` strides of `stride` elements on: see
    /// [`offset_step`].
    pub(crate) fn step(self, k: i64, stride: i64) -> Ptr {
        Ptr {
            offset: offset_step(self.offset, k, stride),
            ..self
        }
    }
}

/// The element offset `k` strides of `stride` elements past `offset`:
/// the one pointer step of every executor — `p + k` and `p[k]` (stride
/// 1, or a row's length in a 2-D shared array), `p - k` and the
/// distance `p - q` (stride -1). Offsets wrap like the integers they
/// are; a wrapped offset fails the bounds check of its access.
pub(crate) fn offset_step(offset: i64, k: i64, stride: i64) -> i64 {
    offset.wrapping_add(k.wrapping_mul(stride))
}

/// A kind a value holds untagged, as the batched executor's typed
/// lanes store it. C's conversions between the kinds are defined here
/// once: [`Value`]'s conversions and the typed lanes both call them.
pub(crate) trait Prim: Copy {
    /// `(int) x`: floats truncate toward zero, saturating, NaN to 0.
    fn to_i(self) -> i64;
    /// `(float) x`.
    fn to_f(self) -> f32;
    /// The truth of `x` as a condition: `x != 0`.
    fn truthy(self) -> bool;
    /// `s` converted to this kind, as assigning it to a variable of
    /// this kind converts it.
    fn cast<S: Prim>(s: S) -> Self;
    /// What `-x` means on this kind: bools negate as ints.
    fn neg<K: Unary<Self>>(k: K) -> K::Out;
    /// The value holding `self`.
    fn value(self) -> Value;
}

/// A [`Prim`] impl from its kind's conversions, each written on `x`;
/// `cast` names the conversion into the kind, `neg` the result kind and
/// function of `-x`.
macro_rules! prim {
    ($t:ty, $variant:ident, |$x:ident| to_i: $i:expr, to_f: $f:expr, truthy: $b:expr,
     cast: $cast:ident, neg: $kind:ident($neg:expr)) => {
        impl Prim for $t {
            fn to_i(self) -> i64 {
                let $x = self;
                $i
            }
            fn to_f(self) -> f32 {
                let $x = self;
                $f
            }
            fn truthy(self) -> bool {
                let $x = self;
                $b
            }
            fn cast<S: Prim>(s: S) -> $t {
                s.$cast()
            }
            fn neg<K: Unary<$t>>(k: K) -> K::Out {
                k.$kind($neg)
            }
            fn value(self) -> Value {
                Value::$variant(self)
            }
        }
    };
}
prim!(i64, I, |x| to_i: x, to_f: x as f32, truthy: x != 0,
      cast: to_i, neg: to_int(i64::wrapping_neg));
prim!(f32, F, |x| to_i: x as i64, to_f: x, truthy: x != 0.0,
      cast: to_f, neg: to_float(|x: f32| -x));
prim!(bool, B, |x| to_i: x as i64, to_f: x as i64 as f32, truthy: x,
      cast: truthy, neg: to_int(|x: bool| -x.to_i()));

/// A number kind operators compute in: `i64`, or `f32` once either
/// operand is a float (C's usual arithmetic conversions; bools compute
/// as ints).
pub(crate) trait Num: Prim + PartialOrd {
    /// What the binary operator `op` means on two numbers of this kind.
    fn binary<K: Binary<Self>>(op: BinOp, k: K) -> K::Out;
}

impl Num for i64 {
    fn binary<K: Binary<i64>>(op: BinOp, k: K) -> K::Out {
        use BinOp::*;
        // Arithmetic wraps, as the hardware's does; shift counts clamp
        // to the word.
        let count = |r: i64| r.clamp(0, 63) as u32;
        match op {
            Add => k.same(i64::wrapping_add),
            Sub => k.same(i64::wrapping_sub),
            Mul => k.same(i64::wrapping_mul),
            Div => k.partial(|l, r| match r {
                0 => Err("integer division by zero"),
                _ => Ok(l.wrapping_div(r)),
            }),
            Rem => k.partial(|l, r| match r {
                0 => Err("integer modulo by zero"),
                _ => Ok(l.wrapping_rem(r)),
            }),
            Shl => k.same(move |l: i64, r| l.wrapping_shl(count(r))),
            Shr => k.same(move |l: i64, r| l.wrapping_shr(count(r))),
            BitAnd => k.same(|l, r| l & r),
            BitOr => k.same(|l, r| l | r),
            BitXor => k.same(|l, r| l ^ r),
            _ => predicate(op, k),
        }
    }
}

impl Num for f32 {
    fn binary<K: Binary<f32>>(op: BinOp, k: K) -> K::Out {
        use BinOp::*;
        match op {
            Add => k.same(|l, r| l + r),
            Sub => k.same(|l, r| l - r),
            Mul => k.same(|l, r| l * r),
            // IEEE semantics: /0 gives inf/nan, as on GPUs.
            Div => k.same(|l, r| l / r),
            Rem => k.partial(|_, _| Err("% is not defined on floats (use fmodf)")),
            Shl | Shr | BitAnd | BitOr | BitXor => {
                k.partial(|_, _| Err("bitwise operators require integers"))
            }
            _ => predicate(op, k),
        }
    }
}

/// The comparisons and logical operators, alike on both number kinds.
fn predicate<T: Num, K: Binary<T>>(op: BinOp, k: K) -> K::Out {
    use BinOp::*;
    match op {
        Eq => k.test(|l: T, r: T| l == r),
        Ne => k.test(|l: T, r: T| l != r),
        Lt => k.test(|l: T, r: T| l < r),
        Le => k.test(|l: T, r: T| l <= r),
        Gt => k.test(|l: T, r: T| l > r),
        Ge => k.test(|l: T, r: T| l >= r),
        And => k.test(|l: T, r: T| l.truthy() && r.truthy()),
        Or => k.test(|l: T, r: T| l.truthy() || r.truthy()),
        _ => unreachable!("{op:?} is arithmetic"),
    }
}

/// What the unary operator `op` means on an operand of kind `T`.
pub(crate) fn unary<T: Prim, K: Unary<T>>(op: UnOp, k: K) -> K::Out {
    match op {
        UnOp::Neg => T::neg(k),
        UnOp::Not => k.to_bool(|x: T| !x.truthy()),
        UnOp::BitNot => k.to_int(|x: T| !x.to_i()),
    }
}

/// What converting an operand of kind `T` to the scalar type `ty`
/// means (a cast, an initialiser, an argument); `None` when `ty` is
/// not a scalar type.
pub(crate) fn convert<T: Prim, K: Unary<T>>(ty: &Type, k: K) -> Option<K::Out> {
    Some(match *ty {
        Type::INT => k.to_int(T::to_i),
        Type::FLOAT => k.to_float(T::to_f),
        Type::BOOL => k.to_bool(T::truthy),
        _ => return None,
    })
}

/// The word `x` becomes when stored through a pointer to `elem`: C's
/// conversion to the element type; while the type is unknown, a float
/// keeps its bits and the rest store as ints.
pub(crate) fn store_bits<T: Prim>(x: T, elem: ElemType) -> u32 {
    match (elem, x.value()) {
        (ElemType::F32, _) | (ElemType::Unknown, Value::F(_)) => x.to_f().to_bits(),
        _ => x.to_i() as i32 as u32,
    }
}

/// The consumer of a one-operand function on kind `T`, by the kind the
/// function yields. The scalar one applies it to its value; the
/// batched executor's maps it over a slice of lanes.
pub(crate) trait Unary<T> {
    type Out;
    fn to_int(self, f: impl Fn(T) -> i64 + Copy) -> Self::Out;
    fn to_float(self, f: impl Fn(T) -> f32 + Copy) -> Self::Out;
    fn to_bool(self, f: impl Fn(T) -> bool + Copy) -> Self::Out;
}

/// The consumer of a two-operand function on kind `T`, by its shape.
pub(crate) trait Binary<T> {
    type Out;
    /// A function that keeps the operands' kind and cannot fail.
    fn same(self, f: impl Fn(T, T) -> T + Copy) -> Self::Out;
    /// A comparison or logical operator.
    fn test(self, f: impl Fn(T, T) -> bool + Copy) -> Self::Out;
    /// A function that can fail: `Err` is its diagnostic.
    fn partial(self, f: impl Fn(T, T) -> Result<T, &'static str> + Copy) -> Self::Out;
}

/// One scalar operand.
struct One<T>(T);

impl<T> Unary<T> for One<T> {
    type Out = Value;
    fn to_int(self, f: impl Fn(T) -> i64 + Copy) -> Value {
        Value::I(f(self.0))
    }
    fn to_float(self, f: impl Fn(T) -> f32 + Copy) -> Value {
        Value::F(f(self.0))
    }
    fn to_bool(self, f: impl Fn(T) -> bool + Copy) -> Value {
        Value::B(f(self.0))
    }
}

/// Two scalar operands of one kind.
struct Two<T>(T, T);

impl<T: Num> Binary<T> for Two<T> {
    type Out = Result<Value, String>;
    fn same(self, f: impl Fn(T, T) -> T + Copy) -> Self::Out {
        Ok(f(self.0, self.1).value())
    }
    fn test(self, f: impl Fn(T, T) -> bool + Copy) -> Self::Out {
        Ok(Value::B(f(self.0, self.1)))
    }
    fn partial(self, f: impl Fn(T, T) -> Result<T, &'static str> + Copy) -> Self::Out {
        f(self.0, self.1).map(Prim::value).map_err(String::from)
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
        match *self {
            Value::B(b) => Ok(b),
            Value::I(v) => Ok(v.truthy()),
            Value::F(v) => Ok(v.truthy()),
            Value::P(_) => Err(NOT_A_CONDITION.to_string()),
        }
    }

    /// Numeric conversion to `i64`, truncating floats like a C cast.
    pub fn as_int(&self) -> Result<i64, String> {
        match *self {
            Value::I(v) => Ok(v),
            Value::F(v) => Ok(v.to_i()),
            Value::B(b) => Ok(b.to_i()),
            Value::P(_) => Err(NOT_A_NUMBER.to_string()),
        }
    }

    /// Numeric conversion to `f32`.
    pub fn as_float(&self) -> Result<f32, String> {
        match *self {
            Value::I(v) => Ok(v.to_f()),
            Value::F(v) => Ok(v),
            Value::B(b) => Ok(b.to_f()),
            Value::P(_) => Err(NOT_A_NUMBER.to_string()),
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
        let scalar = match *self {
            Value::I(x) => convert(ty, One(x)),
            Value::F(x) => convert(ty, One(x)),
            Value::B(x) => convert(ty, One(x)),
            Value::P(p) => {
                return match *ty {
                    Type::VOID => Err(VOID_VALUE.to_string()),
                    Type::BOOL => Err(NOT_A_CONDITION.to_string()),
                    t if t.is_ptr() => Ok(Value::P(p.cast(&t))),
                    _ => Err(NOT_A_NUMBER.to_string()),
                }
            }
        };
        match scalar {
            Some(v) => Ok(v),
            None if *ty == Type::VOID => Err(VOID_VALUE.to_string()),
            None => Err(format!("expected a pointer, found {self}")),
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
    let same_ptr = |p: Ptr, other: Value| {
        matches!(other, Value::P(q) if p == q)
            || (p.is_null() && other.as_int().is_ok_and(|v| v == 0))
    };
    if let Value::P(p) = a {
        return match (op, b) {
            (Add, _) => Ok(Value::P(p.step(b.as_int()?, 1))),
            (Sub, Value::P(q)) => Ok(Value::I(offset_step(p.offset, q.offset, -1))),
            (Sub, _) => Ok(Value::P(p.step(b.as_int()?, -1))),
            (Eq, _) => Ok(Value::B(same_ptr(p, b))),
            (Ne, _) => Ok(Value::B(!same_ptr(p, b))),
            _ => Err(NOT_ON_POINTERS.to_string()),
        };
    }
    if let Value::P(p) = b {
        return match op {
            Add => Ok(Value::P(p.step(a.as_int()?, 1))),
            Eq | Ne => apply_binop(op, b, a),
            _ => Err(NOT_ON_POINTERS.to_string()),
        };
    }
    if matches!(a, Value::F(_)) || matches!(b, Value::F(_)) {
        f32::binary(op, Two(a.as_float()?, b.as_float()?))
    } else {
        i64::binary(op, Two(a.as_int()?, b.as_int()?))
    }
}

/// Apply a unary operator.
pub fn apply_unop(op: UnOp, v: Value) -> Result<Value, String> {
    match v {
        Value::I(x) => Ok(unary(op, One(x))),
        Value::F(x) => Ok(unary(op, One(x))),
        Value::B(x) => Ok(unary(op, One(x))),
        Value::P(_) => Err(match op {
            UnOp::Neg => "cannot negate a pointer",
            UnOp::Not => NOT_A_CONDITION,
            UnOp::BitNot => NOT_A_NUMBER,
        }
        .to_string()),
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

    /// `abs`, `min` and `max` compute in ints when no argument is a
    /// float (C's `abs`, CUDA's integer `min`/`max`); the rest always
    /// compute in floats.
    pub(crate) fn keeps_ints(self) -> bool {
        matches!(self, MathOp::Abs | MathOp::Min | MathOp::Max)
    }

    /// The float function of a one-argument built-in.
    pub(crate) fn float1(self) -> Option<fn(f32) -> f32> {
        Some(match self {
            MathOp::Sqrt => f32::sqrt,
            MathOp::Rsqrt => |x| 1.0 / x.sqrt(),
            MathOp::Exp => f32::exp,
            MathOp::Log => f32::ln,
            MathOp::Log2 => f32::log2,
            MathOp::Sin => f32::sin,
            MathOp::Cos => f32::cos,
            MathOp::Fabs | MathOp::Abs => f32::abs,
            MathOp::Ceil => f32::ceil,
            MathOp::Floor => f32::floor,
            _ => return None,
        })
    }

    /// The float function of a two-argument built-in.
    pub(crate) fn float2(self) -> Option<fn(f32, f32) -> f32> {
        Some(match self {
            MathOp::Pow => f32::powf,
            MathOp::Fmod => |x, y| x % y,
            MathOp::Fmin | MathOp::Min => f32::min,
            MathOp::Fmax | MathOp::Max => f32::max,
            _ => return None,
        })
    }

    /// `abs` on an int (it wraps at `i64::MIN`, as every executor does;
    /// C leaves it undefined); `None` for the other functions.
    pub(crate) fn int1<K: Unary<i64>>(self, k: K) -> Option<K::Out> {
        (self == MathOp::Abs).then(|| k.to_int(i64::wrapping_abs))
    }

    /// `min` or `max` on ints; `None` for the other functions.
    pub(crate) fn int2<K: Binary<i64>>(self, k: K) -> Option<K::Out> {
        match self {
            MathOp::Min => Some(k.same(Ord::min)),
            MathOp::Max => Some(k.same(Ord::max)),
            _ => None,
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
        let ints = self.keeps_ints() && !args.iter().any(|a| matches!(a, Value::F(_)));
        match *args {
            [a] if ints => Ok(self.int1(One(a.as_int()?)).expect("abs")),
            [a, b] if ints => self
                .int2(Two(a.as_int()?, b.as_int()?))
                .expect("min or max"),
            [a] => Ok(Value::F(self.float1().expect("one argument")(
                a.as_float()?,
            ))),
            [a, b] => {
                let f = self.float2().expect("two arguments");
                Ok(Value::F(f(a.as_float()?, b.as_float()?)))
            }
            _ => unreachable!("the arity is checked"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ast::BinOp::*;

    /// The edge-value lattice: for each operand kind, the values at its
    /// edges. Ints: 0, ±1, the `i32` and `i64` extremes and 2²⁴+1 (the
    /// first int a float rounds); floats: ±0, ±1, ±∞, NaN, the smallest
    /// subnormal and each int edge as a float; both bools; pointers
    /// into one allocation at the offsets 0, ±1 and the `i64`
    /// extremes, and the null pointer.
    pub(crate) fn edge_values() -> Vec<Value> {
        let ints = [
            0,
            1,
            -1,
            i64::from(i32::MIN),
            i64::from(i32::MAX),
            i64::MIN,
            i64::MAX,
            (1 << 24) + 1,
        ];
        let mut floats = vec![
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
        ];
        for x in ints {
            let f = x as f32;
            if !floats.iter().any(|g| g.to_bits() == f.to_bits()) {
                floats.push(f);
            }
        }
        let mut out: Vec<Value> = ints.into_iter().map(Value::I).collect();
        out.extend(floats.into_iter().map(Value::F));
        out.extend([Value::B(false), Value::B(true)]);
        let p = Ptr {
            space: Space::Global,
            alloc: 0,
            offset: 0,
            elem: ElemType::F32,
            level: 0,
        };
        for offset in [0, 1, -1, i64::MIN, i64::MAX] {
            out.push(Value::P(Ptr { offset, ..p }));
        }
        out.push(Value::P(Ptr::null()));
        out
    }

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
        // C leaves it undefined; every executor wraps, as the lanes do.
        assert_eq!(apply("abs", &[Value::I(i64::MIN)]), Ok(Value::I(i64::MIN)));
        assert_eq!(
            apply("fminf", &[Value::F(1.0)]),
            Err("fminf expects 2 arguments".to_string())
        );
    }
}
