//! `minicuda` — the GPU substrate of the WebGPU reproduction.
//!
//! WebGPU's worker nodes compile and execute student CUDA/OpenCL code on
//! physical NVIDIA GPUs. This repository has no GPUs, so `minicuda`
//! replaces the entire toolchain with a from-scratch implementation that
//! preserves the contract the platform needs:
//!
//! * a **compiler** (preprocessor → lexer → parser → semantic analysis)
//!   for a C-like language with CUDA and OpenCL surface dialects,
//!   producing student-readable diagnostics with line/column positions;
//! * a **simulated bulk-synchronous device**: grids, blocks, threads,
//!   warps, shared/global/constant address spaces, `__syncthreads`,
//!   atomics, and SIMT divergence executed in lockstep with an active
//!   mask — blocks run in parallel on simulated SMs via real threads;
//! * a **cost model** that charges cycles for warp instructions, global
//!   memory transactions (coalescing-aware), shared-memory bank
//!   conflicts, and atomics, so optimization labs (tiling, coarsening)
//!   show realistic speedups;
//! * a **host interpreter** exposing the `cuda*` API, the `wb*` support
//!   library (dataset import, solution export, logging, timing), and an
//!   MPI-like layer for the multi-GPU lab;
//! * **resource limits** (cycle and step budgets, log caps) and a
//!   hostcall policy hook that `wb-sandbox` uses as its syscall
//!   whitelist enforcement point.
//!
//! # Example
//!
//! ```
//! use libwb::Dataset;
//! use minicuda::{compile, Dialect, RunOptions};
//!
//! let source = r#"
//!     __global__ void vecAdd(float* a, float* b, float* out, int n) {
//!         int i = blockIdx.x * blockDim.x + threadIdx.x;
//!         if (i < n) { out[i] = a[i] + b[i]; }
//!     }
//!     int main() {
//!         int n;
//!         float* a = wbImportVector(0, &n);
//!         float* b = wbImportVector(1, &n);
//!         float* out = (float*) malloc(n * sizeof(float));
//!         float* dA; float* dB; float* dOut;
//!         cudaMalloc(&dA, n * sizeof(float));
//!         cudaMalloc(&dB, n * sizeof(float));
//!         cudaMalloc(&dOut, n * sizeof(float));
//!         cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
//!         cudaMemcpy(dB, b, n * sizeof(float), cudaMemcpyHostToDevice);
//!         vecAdd<<<(n + 255) / 256, 256>>>(dA, dB, dOut, n);
//!         cudaMemcpy(out, dOut, n * sizeof(float), cudaMemcpyDeviceToHost);
//!         wbSolution(out, n);
//!         return 0;
//!     }
//! "#;
//! let program = compile(source, Dialect::Cuda).expect("compiles");
//! let inputs = vec![
//!     Dataset::Vector(vec![1.0, 2.0]),
//!     Dataset::Vector(vec![10.0, 20.0]),
//! ];
//! let outcome = minicuda::run(&program, &inputs, &RunOptions::default());
//! assert_eq!(
//!     outcome.solution.unwrap(),
//!     Dataset::Vector(vec![11.0, 22.0]),
//! );
//! ```

pub mod analyze;
pub mod ast;
mod batch;
pub mod cost;
pub mod device;
pub mod diag;
pub mod dialect;
pub mod host;
pub mod hostcall;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod memory;
pub mod mpi;
pub mod parser;
pub mod passes;
pub mod preprocessor;
pub mod sema;
mod simt;
pub mod token;
pub mod value;

pub use analyze::{analyze_program, AnalysisPolicy, CheckKind, Finding};
pub use cost::{CostModel, CostSummary};
pub use device::DeviceConfig;
pub use diag::{Diag, Phase};
pub use dialect::Dialect;
pub use host::{run, run_with_policy, RunOptions, RunOutcome};
pub use hostcall::{AllowAll, HostcallPolicy};
pub use sema::Program;

/// How much of the middle-end a compile runs.
///
/// The level is part of a program's execution contract — `wb-cache`
/// folds [`OptLevel::fingerprint`] into the compile key so a grade
/// produced at one level is never served for another.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OptLevel {
    /// No IR: kernels run on the tree-walking interpreter — the
    /// oracle the differential tests compare the batched executor to.
    O0,
    /// Lower to the kernel IR, run the full pass pipeline (fold, CSE,
    /// LICM, DCE) and execute warp-batched.
    #[default]
    O2,
}

impl OptLevel {
    /// Cache-key component: distinguishes levels *and* IR revisions,
    /// so cached grades go stale when either changes.
    pub fn fingerprint(self) -> String {
        match self {
            OptLevel::O0 => "O0".to_string(),
            OptLevel::O2 => format!("O2/{}", ir::IR_VERSION),
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptLevel::O0 => "O0",
            OptLevel::O2 => "O2",
        })
    }
}

/// Compile `source` under the given dialect into an executable program.
///
/// Runs the full front end: preprocessing (comment stripping, object
/// macros), dialect canonicalization, lexing, parsing, and semantic
/// analysis. The first diagnostic encountered is returned, formatted the
/// way students see it in the WebGPU code view. Kernels execute on the
/// optimizing middle-end ([`OptLevel::O2`]); use [`compile_with`] to
/// select a different level.
pub fn compile(source: &str, dialect: Dialect) -> Result<Program, Diag> {
    compile_with(source, dialect, OptLevel::default())
}

/// [`compile`] with an explicit middle-end level.
pub fn compile_with(source: &str, dialect: Dialect, opt: OptLevel) -> Result<Program, Diag> {
    let pre = preprocessor::preprocess(source)?;
    let canonical = dialect::canonicalize(&pre, dialect);
    let tokens = lexer::lex(&canonical)?;
    let unit = parser::parse(tokens)?;
    let mut program = sema::analyze(unit, dialect)?;
    if opt == OptLevel::O2 {
        let mut lowered = lower::lower_program(&program);
        passes::optimize_program(&mut lowered);
        program.attach_ir(lowered);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_rejects_syntax_error() {
        let err = compile("int main( { return 0; }", Dialect::Cuda).unwrap_err();
        assert_eq!(err.phase, Phase::Parse);
    }

    #[test]
    fn compile_accepts_minimal_program() {
        let p = compile("int main() { return 0; }", Dialect::Cuda).unwrap();
        assert!(p.kernels().is_empty());
    }
}
