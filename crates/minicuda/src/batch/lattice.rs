//! Every operator over the edge-value lattice, on every path the
//! executor can take.
//!
//! Each unary, binary, coercion and math operator is applied to every
//! combination of lattice values ([`edge_values`]) by the scalar
//! semantics of [`crate::value`] and by [`BatchExec`] on each operand
//! layout: uniform registers, typed lanes (each operand per-lane or
//! uniform), and typed lanes under a divergent mask whose inactive
//! lanes hold hostile values (a zero divisor, NaN, a far pointer
//! offset). Every path must give the scalar result in each active
//! lane, compared bitwise with NaN as one class, or fail with the
//! scalar diagnostic's text.

use super::*;
use crate::value::tests::edge_values;

const N: usize = 4;

/// The divergent mask: lanes 1 and 3 are off and hold hostile values.
const MASK: [bool; N] = [true, false, true, false];

/// How an operand reaches the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Uniform,
    Lanes,
    /// Typed lanes under [`MASK`].
    Masked,
}
use Shape::*;

/// The operand layouts of a binary operator.
const PAIRS: [(Shape, Shape); 6] = [
    (Uniform, Uniform),
    (Lanes, Lanes),
    (Lanes, Uniform),
    (Uniform, Lanes),
    (Masked, Masked),
    (Masked, Uniform),
];

/// A value an inactive lane holds beside `v`: one of the same kind (so
/// the lanes stay typed) that would fail or poison an active lane.
fn hostile(v: Value) -> Value {
    match v {
        Value::I(_) => Value::I(0),
        Value::F(_) => Value::F(f32::NAN),
        Value::B(b) => Value::B(!b),
        Value::P(p) => Value::P(Ptr {
            offset: i64::MAX,
            ..p
        }),
    }
}

/// Bitwise equality, every NaN one class.
fn same(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

/// `v` laid out as `shape`. Lane layouts must come out typed.
fn operand(ex: &mut BatchExec<'_>, v: Value, shape: Shape) -> LaneVec {
    let lv = match shape {
        Uniform => return LaneVec::U(v),
        Lanes => ex.arena.splat(v),
        Masked => {
            let mut vals = ex.arena.v.take();
            for (i, slot) in vals.iter_mut().enumerate() {
                *slot = if MASK[i] { v } else { hostile(v) };
            }
            ex.arena.pack(vals, None)
        }
    };
    assert!(!matches!(lv, LaneVec::P(_)), "{v:?} as {shape:?} is typed");
    lv
}

/// Set the mask for operands laid out as `shapes`.
fn set_mask(ex: &mut BatchExec<'_>, shapes: &[Shape]) {
    let masked = shapes.contains(&Masked);
    for i in 0..N {
        ex.active[i] = !masked || MASK[i];
    }
    ex.recount();
}

/// Check the executor's outcome against the scalar one, lane by lane.
fn agree(
    ex: &mut BatchExec<'_>,
    want: &Result<Value, String>,
    got: Result<LaneVec, Diag>,
    what: &dyn Fn() -> String,
) {
    match (want, got) {
        (Ok(w), Ok(lv)) => {
            for i in (0..N).filter(|&i| ex.active[i]) {
                let g = lv.at(i);
                assert!(same(g, *w), "{}: lane {i} gave {g:?}, scalar {w:?}", what());
            }
            ex.arena.recycle(lv);
        }
        (Err(w), Err(d)) => assert_eq!(&d.message, w, "{}", what()),
        (w, g) => panic!(
            "{}: scalar {w:?}, executor {:?}",
            what(),
            g.map(|lv| lv.at(0))
        ),
    }
}

/// Run `f` on an executor for one block of [`N`] lanes.
fn with_exec(f: impl FnOnce(&mut BatchExec<'_>)) {
    let (mut global, consts, mut budget) =
        (MemPool::new(), crate::memory::ConstMem::new(), i64::MAX);
    let env = KernelEnv {
        consts: &consts,
        grid: [1, 1, 1],
        block_dim: [N as i64, 1, 1],
        max_shared_bytes: 48 * 1024,
        warp_size: 32,
    };
    let ir = IrProgram::default();
    let mut ex = BatchExec::new(&env, &ir, Global::Owned(&mut global), &mut budget);
    f(&mut ex);
}

#[test]
fn unary_operators_agree_on_every_path() {
    let pos = Pos::unknown();
    with_exec(|ex| {
        for op in [UnOp::Neg, UnOp::Not, UnOp::BitNot] {
            for x in edge_values() {
                let want = apply_unop(op, x);
                for shape in [Uniform, Lanes, Masked] {
                    set_mask(ex, &[shape]);
                    let a = operand(ex, x, shape);
                    let got = ex.un(op, &a, pos);
                    agree(ex, &want, got, &|| format!("{op:?} {x:?} as {shape:?}"));
                    ex.arena.recycle(a);
                }
            }
        }
    });
}

#[test]
fn binary_operators_agree_on_every_path() {
    use BinOp::*;
    let pos = Pos::unknown();
    let values = edge_values();
    with_exec(|ex| {
        for op in [
            Add, Sub, Mul, Div, Rem, Shl, Shr, BitAnd, BitOr, BitXor, Eq, Ne, Lt, Le, Gt, Ge, And,
            Or,
        ] {
            for &x in &values {
                for &y in &values {
                    let want = apply_binop(op, x, y);
                    for (sa, sb) in PAIRS {
                        set_mask(ex, &[sa, sb]);
                        let (a, b) = (operand(ex, x, sa), operand(ex, y, sb));
                        let got = ex.bin(op, &a, &b, pos);
                        agree(ex, &want, got, &|| {
                            format!("{x:?} {op:?} {y:?} as {sa:?}, {sb:?}")
                        });
                        ex.arena.recycle(a);
                        ex.arena.recycle(b);
                    }
                }
            }
        }
    });
}

#[test]
fn coercions_agree_on_every_path() {
    let pos = Pos::unknown();
    let targets = [
        Type::INT,
        Type::FLOAT,
        Type::BOOL,
        Type::VOID,
        Type::FLOAT.ptr_to(),
        Type::INT.ptr_to(),
        Type::FLOAT.ptr_to().ptr_to(),
    ];
    with_exec(|ex| {
        for ty in targets {
            for x in edge_values() {
                let want = x.coerce_to(&ty);
                for shape in [Uniform, Lanes, Masked] {
                    set_mask(ex, &[shape]);
                    let a = operand(ex, x, shape);
                    let got = ex.coerce(&a, &ty, pos);
                    agree(ex, &want, got, &|| format!("({ty}) {x:?} as {shape:?}"));
                    ex.arena.recycle(a);
                }
            }
        }
    });
}

#[test]
fn math_built_ins_agree_on_every_path() {
    let pos = Pos::unknown();
    let values = edge_values();
    // One spelling per function: spellings share their row's op.
    let mut ops: Vec<(Intrinsic, MathOp)> = Vec::new();
    for which in Intrinsic::all() {
        if let Some(op) = which.as_math() {
            if !ops.iter().any(|&(_, o)| o == op) {
                ops.push((which, op));
            }
        }
    }
    with_exec(|ex| {
        for (which, op) in ops {
            let name = which.name();
            // Each arity, the wrong one included: its diagnostic must
            // agree too.
            for &x in &values {
                let want = op.apply(name, &[x]);
                for shape in [Uniform, Lanes, Masked] {
                    set_mask(ex, &[shape]);
                    let mut fr = ex.take_frame(1, true);
                    fr.regs[0] = operand(ex, x, shape);
                    let got = ex.exec_math(&fr, which, &[0], pos);
                    agree(ex, &want, got, &|| format!("{name}({x:?}) as {shape:?}"));
                    ex.arena.frames.push(fr);
                }
                for &y in &values {
                    let want = op.apply(name, &[x, y]);
                    for (sa, sb) in PAIRS {
                        set_mask(ex, &[sa, sb]);
                        let mut fr = ex.take_frame(2, true);
                        fr.regs[0] = operand(ex, x, sa);
                        fr.regs[1] = operand(ex, y, sb);
                        let got = ex.exec_math(&fr, which, &[0, 1], pos);
                        agree(ex, &want, got, &|| {
                            format!("{name}({x:?}, {y:?}) as {sa:?}, {sb:?}")
                        });
                        ex.arena.frames.push(fr);
                    }
                }
            }
        }
    });
}
