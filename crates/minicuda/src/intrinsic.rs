//! The built-in functions: one table row per spelling a program may
//! call without defining it — 28 math spellings, 13 device operations
//! and 34 host calls.
//!
//! A row gives the spelling's [`Op`] (which also says where it may be
//! called), its arity and its result rule. Sema is the one place a
//! call's name is looked up: it binds each call of a built-in to its
//! row, writing [`ExprKind::Intrinsic`](crate::ast::ExprKind::Intrinsic)
//! into the AST, as it binds every variable name. Lowering, the host
//! interpreter, the passes and the executors match the bound [`Op`];
//! they read a spelling only to print it (a diagnostic, the hostcall
//! trace, the whitelist query).

use crate::ast::Type;
use crate::ir::{AtomicKind, OclFn};
use crate::value::MathOp;
use std::fmt;

/// A built-in function: its row in the table. Its `Debug` is its
/// spelling.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Intrinsic(u8);

/// What a built-in does, which decides where it may be called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Pure math, callable anywhere. Sema leaves its arity to the run,
    /// where [`MathOp::apply`] checks it.
    Math(MathOp),
    /// Device code only.
    Device(DeviceOp),
    /// Host code only: each call is checked against the run's hostcall
    /// whitelist and recorded in its trace.
    Host(HostOp),
}

/// The device operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOp {
    /// `__syncthreads()` and OpenCL's `barrier(flag)`.
    Barrier,
    /// A two-operand atomic.
    Atomic(AtomicKind),
    /// `atomicCAS(ptr, cmp, val)`.
    AtomicCas,
    /// An OpenCL work-item query.
    WorkItem(OclFn),
}

/// The host calls, each named after its spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOp {
    Malloc,
    Free,
    CudaMalloc,
    CudaFree,
    CudaMemcpy,
    CudaMemcpyToSymbol,
    CudaDeviceSynchronize,
    CudaGetLastError,
    CudaSetDevice,
    CudaGetDeviceCount,
    WbImportVector,
    WbImportIntVector,
    WbImportMatrix,
    WbImportImage,
    WbImportCsrRowPtr,
    WbImportCsrColIdx,
    WbImportCsrValues,
    WbImportGraphRowPtr,
    WbImportGraphNeighbors,
    WbImportScalar,
    WbSolution,
    WbSolutionInt,
    WbSolutionMatrix,
    WbSolutionImage,
    WbSolutionScalar,
    WbLog,
    WbTimeStart,
    WbTimeStop,
    WbMpiRank,
    WbMpiSize,
    WbMpiSendFloat,
    WbMpiRecvFloat,
    WbMpiBarrier,
    Exit,
}

impl HostOp {
    /// Whether this is one of the `wbMPI_*` calls, which only labs that
    /// use MPI allow.
    pub fn is_mpi(self) -> bool {
        use HostOp::*;
        matches!(
            self,
            WbMpiRank | WbMpiSize | WbMpiSendFloat | WbMpiRecvFloat | WbMpiBarrier
        )
    }
}

/// How a call's result type follows from its argument types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ret {
    /// Always this type.
    Is(Type),
    /// `int` when every argument is an `int` or a `bool`, else `float`:
    /// `abs`, `min` and `max`, as [`MathOp::apply`] computes them.
    IntIfAllInt,
    /// The pointee of the first argument, which must be a pointer: the
    /// atomics but `atomicCAS`.
    Pointee,
}

struct Row {
    name: &'static str,
    op: Op,
    /// Fewest and most arguments.
    args: (u8, u8),
    ret: Ret,
}

const fn math(name: &'static str, op: MathOp) -> Row {
    let n = op.arity();
    let ret = match op {
        MathOp::Abs | MathOp::Min | MathOp::Max => Ret::IntIfAllInt,
        _ => Ret::Is(Type::FLOAT),
    };
    Row {
        name,
        op: Op::Math(op),
        args: (n, n),
        ret,
    }
}

const fn device(name: &'static str, op: DeviceOp, n: u8, ret: Ret) -> Row {
    Row {
        name,
        op: Op::Device(op),
        args: (n, n),
        ret,
    }
}

const fn host(name: &'static str, op: HostOp, args: (u8, u8), ret: Type) -> Row {
    Row {
        name,
        op: Op::Host(op),
        args,
        ret: Ret::Is(ret),
    }
}

/// Every built-in.
#[rustfmt::skip]
static ROWS: [Row; 75] = {
    use DeviceOp::*;
    use HostOp::*;
    use MathOp::*;
    use OclFn::*;
    const INT_PTR: Type = Type::INT.ptr_to();
    const FLOAT_PTR: Type = Type::FLOAT.ptr_to();
    [
        // Math: the CUDA `f` spellings and the C spellings.
        math("sqrtf", Sqrt), math("sqrt", Sqrt), math("rsqrtf", Rsqrt),
        math("expf", Exp), math("exp", Exp),
        math("logf", Log), math("log", Log), math("log2f", Log2),
        math("sinf", Sin), math("sin", Sin), math("cosf", Cos), math("cos", Cos),
        math("fabsf", Fabs), math("fabs", Fabs),
        math("ceilf", Ceil), math("ceil", Ceil), math("floorf", Floor), math("floor", Floor),
        math("powf", Pow), math("pow", Pow), math("fmodf", Fmod),
        math("fminf", Fmin), math("fmin", Fmin), math("fmaxf", Fmax), math("fmax", Fmax),
        math("abs", Abs), math("min", Min), math("max", Max),
        // Device: synchronization, atomics, OpenCL work-item queries.
        device("__syncthreads",   Barrier,                   0, Ret::Is(Type::VOID)),
        device("barrier",         Barrier,                   1, Ret::Is(Type::VOID)),
        device("atomicAdd",       Atomic(AtomicKind::Add),   2, Ret::Pointee),
        device("atomicMin",       Atomic(AtomicKind::Min),   2, Ret::Pointee),
        device("atomicMax",       Atomic(AtomicKind::Max),   2, Ret::Pointee),
        device("atomicExch",      Atomic(AtomicKind::Exch),  2, Ret::Pointee),
        device("atomicCAS",       AtomicCas,                 3, Ret::Is(Type::INT)),
        device("get_global_id",   WorkItem(GlobalId),        1, Ret::Is(Type::INT)),
        device("get_local_id",    WorkItem(LocalId),         1, Ret::Is(Type::INT)),
        device("get_group_id",    WorkItem(GroupId),         1, Ret::Is(Type::INT)),
        device("get_local_size",  WorkItem(LocalSize),       1, Ret::Is(Type::INT)),
        device("get_num_groups",  WorkItem(NumGroups),       1, Ret::Is(Type::INT)),
        device("get_global_size", WorkItem(GlobalSize),      1, Ret::Is(Type::INT)),
        // Host: memory, the CUDA runtime, libwb, MPI.
        host("malloc",                 Malloc,                (1, 1), Type::VOID.ptr_to()),
        host("free",                   Free,                  (1, 1), Type::VOID),
        host("cudaMalloc",             CudaMalloc,            (2, 2), Type::INT),
        host("cudaFree",               CudaFree,              (1, 1), Type::INT),
        host("cudaMemcpy",             CudaMemcpy,            (4, 4), Type::INT),
        host("cudaMemcpyToSymbol",     CudaMemcpyToSymbol,    (3, 3), Type::INT),
        host("cudaDeviceSynchronize",  CudaDeviceSynchronize, (0, 0), Type::INT),
        host("cudaGetLastError",       CudaGetLastError,      (0, 0), Type::INT),
        host("cudaSetDevice",          CudaSetDevice,         (1, 1), Type::INT),
        host("cudaGetDeviceCount",     CudaGetDeviceCount,    (1, 1), Type::INT),
        host("wbImportVector",         WbImportVector,        (2, 2), FLOAT_PTR),
        host("wbImportIntVector",      WbImportIntVector,     (2, 2), INT_PTR),
        host("wbImportMatrix",         WbImportMatrix,        (3, 3), FLOAT_PTR),
        host("wbImportImage",          WbImportImage,         (4, 4), FLOAT_PTR),
        host("wbImportCsrRowPtr",      WbImportCsrRowPtr,     (2, 2), INT_PTR),
        host("wbImportCsrColIdx",      WbImportCsrColIdx,     (2, 2), INT_PTR),
        host("wbImportCsrValues",      WbImportCsrValues,     (2, 2), FLOAT_PTR),
        host("wbImportGraphRowPtr",    WbImportGraphRowPtr,   (2, 2), INT_PTR),
        host("wbImportGraphNeighbors", WbImportGraphNeighbors, (2, 2), INT_PTR),
        host("wbImportScalar",         WbImportScalar,        (1, 1), Type::FLOAT),
        host("wbSolution",             WbSolution,            (2, 2), Type::VOID),
        host("wbSolutionInt",          WbSolutionInt,         (2, 2), Type::VOID),
        host("wbSolutionMatrix",       WbSolutionMatrix,      (3, 3), Type::VOID),
        host("wbSolutionImage",        WbSolutionImage,       (4, 4), Type::VOID),
        host("wbSolutionScalar",       WbSolutionScalar,      (1, 1), Type::VOID),
        host("wbLog",                  WbLog,                 (1, 8), Type::VOID),
        host("wbTime_start",           WbTimeStart,           (2, 2), Type::VOID),
        host("wbTime_stop",            WbTimeStop,            (2, 2), Type::VOID),
        host("wbMPI_rank",             WbMpiRank,             (0, 0), Type::INT),
        host("wbMPI_size",             WbMpiSize,             (0, 0), Type::INT),
        host("wbMPI_sendFloat",        WbMpiSendFloat,        (3, 3), Type::VOID),
        host("wbMPI_recvFloat",        WbMpiRecvFloat,        (3, 3), Type::VOID),
        host("wbMPI_barrier",          WbMpiBarrier,          (0, 0), Type::VOID),
        host("exit",                   Exit,                  (1, 1), Type::VOID),
    ]
};

/// Slots in [`INDEX`]: a power of two over three times the rows, so
/// probe runs stay short.
const SLOTS: usize = 256;
const EMPTY: u8 = u8::MAX;

/// A spelling's home slot in [`INDEX`]: the top byte of its 32-bit
/// FNV-1a hash.
const fn slot(name: &[u8]) -> usize {
    let mut h: u32 = 0x811c_9dc5;
    let mut i = 0;
    while i < name.len() {
        h = (h ^ name[i] as u32).wrapping_mul(0x0100_0193);
        i += 1;
    }
    (h >> 24) as usize
}

/// Each row's index, at its spelling's home slot or the next free one
/// after it; built when the crate compiles.
static INDEX: [u8; SLOTS] = {
    let mut index = [EMPTY; SLOTS];
    let mut row = 0;
    while row < ROWS.len() {
        let mut s = slot(ROWS[row].name.as_bytes());
        while index[s] != EMPTY {
            s = (s + 1) % SLOTS;
        }
        index[s] = row as u8;
        row += 1;
    }
    index
};

impl Intrinsic {
    /// The built-in spelled `name`, if any. Sema alone calls this.
    pub(crate) fn lookup(name: &str) -> Option<Intrinsic> {
        let mut s = slot(name.as_bytes());
        loop {
            match INDEX[s] {
                EMPTY => return None,
                row if ROWS[usize::from(row)].name == name => return Some(Intrinsic(row)),
                _ => s = (s + 1) % SLOTS,
            }
        }
    }

    /// Every built-in, in table order.
    pub fn all() -> impl Iterator<Item = Intrinsic> {
        (0..ROWS.len() as u8).map(Intrinsic)
    }

    fn row(self) -> &'static Row {
        &ROWS[self.0 as usize]
    }

    /// The spelling.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// What it does.
    pub fn op(self) -> Op {
        self.row().op
    }

    /// The math function, for a math built-in.
    pub fn as_math(self) -> Option<MathOp> {
        match self.op() {
            Op::Math(op) => Some(op),
            _ => None,
        }
    }

    /// Fewest and most arguments.
    pub fn arity(self) -> (usize, usize) {
        let (min, max) = self.row().args;
        (min.into(), max.into())
    }

    /// The result rule.
    pub fn ret(self) -> Ret {
        self.row().ret
    }
}

impl fmt::Debug for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.name(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn each_spelling_resolves_to_its_own_row() {
        for (i, row) in ROWS.iter().enumerate() {
            let b = Intrinsic::lookup(row.name).expect("in the table");
            assert_eq!((b.0 as usize, b.name()), (i, row.name));
            assert_eq!(format!("{b:?}"), format!("{:?}", row.name));
        }
        for absent in ["", "a", "main", "sqrtff", "wbImport", "zzz", "__syncthread"] {
            assert_eq!(Intrinsic::lookup(absent), None, "{absent}");
        }
    }

    #[test]
    fn the_table_holds_28_math_13_device_and_34_host_spellings() {
        let count = |f: fn(Op) -> bool| ROWS.iter().filter(|r| f(r.op)).count();
        assert_eq!(count(|op| matches!(op, Op::Math(_))), 28);
        assert_eq!(count(|op| matches!(op, Op::Device(_))), 13);
        assert_eq!(count(|op| matches!(op, Op::Host(_))), 34);
    }

    #[test]
    fn a_math_row_takes_the_arguments_its_function_accepts() {
        for i in 0..ROWS.len() {
            let b = Intrinsic(i as u8);
            let Some(op) = b.as_math() else { continue };
            let (min, max) = b.arity();
            for n in 0..4 {
                let ok = op.apply(b.name(), &vec![Value::F(1.0); n]).is_ok();
                assert_eq!(ok, (min..=max).contains(&n), "{} with {n}", b.name());
            }
        }
    }
}
