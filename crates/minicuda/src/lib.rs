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
//!   mask — blocks run one at a time in launch order on the calling
//!   thread, and the SM count only sizes the makespan model;
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
#[cfg(test)]
mod differential;
mod fx;
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
#[cfg(test)]
mod simt;
pub mod token;
pub mod value;

pub use analyze::{analyze_program, AnalysisPolicy, CheckKind, Finding};
pub use cost::CostSummary;
pub use device::DeviceConfig;
pub use diag::{Diag, Phase};
pub use dialect::Dialect;
pub use host::{run, run_with_policy, RunOptions, RunOutcome};
pub use hostcall::{AllowAll, HostcallPolicy};
pub use sema::Program;
use std::time::{Duration, Instant};

/// How much of the middle-end a compile runs.
///
/// Every level lowers the program's device code to the kernel IR and
/// runs its kernels on the one warp-batched executor; the level only
/// chooses whether the passes optimize that IR first. The level is
/// part of a program's execution contract — `wb-cache` folds it,
/// beside [`ir::IR_VERSION`], into the compile key so a grade produced
/// at one level is never served for another (the passes shrink
/// `warp_instructions` and `device_cycles`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OptLevel {
    /// Execute the IR exactly as lowering emits it: no pass runs.
    O0,
    /// Run the full pass pipeline (fold, CSE, LICM, DCE) over the IR
    /// before it executes.
    #[default]
    O2,
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
/// analysis, then lowers the device code to the kernel IR and optimizes
/// it ([`OptLevel::O2`]). The first diagnostic encountered is returned,
/// formatted the way students see it in the WebGPU code view; use
/// [`compile_with`] to select a different level.
pub fn compile(source: &str, dialect: Dialect) -> Result<Program, Diag> {
    compile_with(source, dialect, OptLevel::default())
}

/// [`compile`] with an explicit middle-end level: both levels lower
/// once and attach the IR, and only [`OptLevel::O2`] runs the passes.
pub fn compile_with(source: &str, dialect: Dialect, opt: OptLevel) -> Result<Program, Diag> {
    compile_body(source, dialect, opt, false).map(|(program, _, _)| program)
}

/// [`compile_with`] plus the static verifier ([`analyze_program`]'s
/// findings), lowering the program once for both: the analyzers read
/// the unoptimized IR, which the passes then optimize in place. Also
/// returns the wall time of the analysis alone: the verifier's run over
/// the lowered IR, with the front end, the lowering and the passes
/// excluded.
pub fn compile_analyzed(
    source: &str,
    dialect: Dialect,
    opt: OptLevel,
) -> Result<(Program, Vec<Finding>, Duration), Diag> {
    compile_body(source, dialect, opt, true)
}

/// The one compile path: the front end, then exactly one
/// `lower_program` — the verifier (when `analyze`) reads that IR before
/// `O2`'s passes optimize it in place, and the program carries it at
/// every level.
fn compile_body(
    source: &str,
    dialect: Dialect,
    opt: OptLevel,
    analyze: bool,
) -> Result<(Program, Vec<Finding>, Duration), Diag> {
    let pre = preprocessor::preprocess(source)?;
    let canonical = dialect::canonicalize(&pre, dialect);
    let tokens = lexer::lex(&canonical)?;
    let unit = parser::parse(tokens)?;
    let mut program = sema::analyze(unit, dialect)?;
    let (mut findings, mut analyze_time) = (Vec::new(), Duration::ZERO);
    let mut lowered = lower::lower_program(&program);
    if analyze {
        let started = Instant::now();
        findings = analyze::analyze_lowered(&program, &lowered);
        analyze_time = started.elapsed();
    }
    if opt == OptLevel::O2 {
        passes::optimize_program(&mut lowered);
    }
    program.attach_ir(lowered);
    Ok((program, findings, analyze_time))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_rejects_syntax_error() {
        let err = compile("int main( { return 0; }", Dialect::Cuda).unwrap_err();
        assert_eq!(err.phase, Phase::Parse);
    }

    /// Every compile lowers its device code exactly once and attaches
    /// the IR, at both levels, analyzed or not; `O0` attaches the
    /// lowering untouched, and the verifier reads that same lowering.
    #[test]
    fn analyzed_compile_lowers_once_and_matches_analyze_program() {
        let src = "__device__ float twice(float x) { return 2.0 * x; }\n\
                   __global__ void k(float* a) {\n  __shared__ float s[4];\n  \
                   s[threadIdx.x] = twice(a[0]);\n  if (threadIdx.x < 2) { __syncthreads(); }\n}\n\
                   int helper(int n) { return n + 1; }\n\
                   int main() { return helper(0) - 1; }";
        for opt in [OptLevel::O0, OptLevel::O2] {
            for analyzed in [false, true] {
                let ctx = format!("{opt} analyzed={analyzed}");
                let before = lower::lowerings();
                let (program, findings, _) = if analyzed {
                    compile_analyzed(src, Dialect::Cuda, opt).unwrap()
                } else {
                    (
                        compile_with(src, Dialect::Cuda, opt).unwrap(),
                        Vec::new(),
                        Duration::ZERO,
                    )
                };
                assert_eq!(lower::lowerings() - before, 1, "{ctx}: one lowering");
                if analyzed {
                    assert!(
                        !findings.is_empty(),
                        "{ctx}: the divergent barrier is found"
                    );
                    assert_eq!(findings, analyze_program(&program), "{ctx}");
                }
                let ir = program.ir().unwrap_or_else(|| panic!("{ctx}: IR attached"));
                let mut names: Vec<&str> = ir.funcs.keys().map(String::as_str).collect();
                names.sort_unstable();
                assert_eq!(names, ["k", "twice"], "{ctx}: device code only");
                if opt == OptLevel::O0 {
                    assert_eq!(*ir, lower::lower_program(&program), "{ctx}: no pass ran");
                }
            }
        }
    }

    #[test]
    fn compile_accepts_minimal_program() {
        let p = compile("int main() { return 0; }", Dialect::Cuda).unwrap();
        assert!(p.kernels().is_empty());
    }
}
