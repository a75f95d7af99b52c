//! Generated sources of hostile shape: each must compile, or compile
//! and run, to `Ok` or a typed diagnostic well within a generous time
//! bound, even in a debug build. A table lookup that degrades to a
//! linear scan turns these sizes into minutes, so the bound catches it.

use minicuda::{compile, compile_analyzed, Dialect, OptLevel, Phase};
use std::fmt::Write;
use std::time::{Duration, Instant};

/// Far above what each shape takes when every lookup is hashed.
const BOUND: Duration = Duration::from_secs(60);

/// Compile `src` with the verifier on, and check the time bound.
fn compile_within_bound(what: &str, src: &str) -> Result<(), minicuda::Diag> {
    let started = Instant::now();
    let out = compile_analyzed(src, Dialect::Cuda, OptLevel::O2).map(|_| ());
    let took = started.elapsed();
    assert!(took < BOUND, "{what}: took {took:?}");
    out
}

#[test]
fn twenty_thousand_locals_in_one_kernel_compile() {
    let mut body = String::new();
    for k in 0..20_000 {
        writeln!(body, "    float v{k} = a[{}] + {k};", k % 7).unwrap();
    }
    writeln!(body, "    a[0] = v0 + v19999;").unwrap();
    let src = format!(
        "__global__ void k(float* a) {{\n{body}}}\n\
         int main() {{ float* d; cudaMalloc(&d, 64); k<<<1, 1>>>(d); return 0; }}\n"
    );
    compile_within_bound("20 000 locals", &src).unwrap_or_else(|d| panic!("{d}"));
}

#[test]
fn five_thousand_defines_each_used_once_compile() {
    let mut src = String::new();
    for k in 0..5_000 {
        writeln!(src, "#define M{k} {k}").unwrap();
    }
    src.push_str("int main() {\n    int s = 0;\n");
    for k in 0..5_000 {
        writeln!(src, "    s = s + M{k};").unwrap();
    }
    src.push_str("    return s;\n}\n");
    compile_within_bound("5 000 defines", &src).unwrap_or_else(|d| panic!("{d}"));
}

#[test]
fn a_one_megabyte_identifier_is_a_typed_diagnostic() {
    let name = "x".repeat(1 << 20);
    let src = format!("int main() {{\n    return {name};\n}}\n");
    let err = compile_within_bound("1 MB identifier", &src).unwrap_err();
    assert_eq!(err.phase, Phase::Sema);
    assert_eq!(err.pos.line, 2);
    assert!(err.message.starts_with("use of undeclared variable `xxx"));
}

#[test]
fn a_doubling_macro_is_capped_instead_of_filling_memory() {
    // Each level doubles the text: `D14` is 2^14 copies of a 32-byte
    // body, over half a MiB, so 64 uses of it pass the 16 MiB cap.
    let mut src = String::from("#define D0 xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n");
    for k in 1..15 {
        writeln!(src, "#define D{k} D{} D{}", k - 1, k - 1).unwrap();
    }
    for _ in 0..64 {
        src.push_str("int a = D14;\n");
    }
    let err = compile_within_bound("doubling macro", &src).unwrap_err();
    assert_eq!(err.phase, Phase::Preprocess);
    assert!(err.message.contains("more than 16 MiB"), "{err}");
}

/// Compile and run `src` on the default options, and check the time
/// bound over both.
fn run_within_bound(what: &str, src: &str) -> minicuda::RunOutcome {
    let started = Instant::now();
    let program = compile(src, Dialect::Cuda).unwrap_or_else(|d| panic!("{what}: {d}"));
    let out = minicuda::run(&program, &[], &minicuda::RunOptions::default());
    let took = started.elapsed();
    assert!(took < BOUND, "{what}: took {took:?}");
    out
}

#[test]
fn a_hundred_and_fifty_thousand_cuda_mallocs_run() {
    // Each `cudaMalloc` checks the device's capacity against the words
    // live at that moment; summing every allocation made so far made
    // this loop quadratic.
    let src = "int main() {\n    float* d;\n    \
               for (int i = 0; i < 150000; i++) { cudaMalloc(&d, 4); }\n    \
               return 0;\n}\n";
    let out = run_within_bound("150 000 cudaMallocs", src);
    assert!(out.ok(), "{:?}", out.error);
}

#[test]
fn host_malloc_past_256_mib_is_a_typed_diagnostic() {
    let src = "int main() {\n    \
               for (int i = 0; i < 5; i++) { float* p = (float*) malloc(64 << 20); }\n    \
               return 0;\n}\n";
    let out = run_within_bound("five 64 MiB mallocs", src);
    let err = out.error.expect("the fifth malloc fails");
    assert_eq!(err.phase, Phase::Runtime);
    assert_eq!((err.pos.line, err.pos.col), (2, 55));
    assert_eq!(err.message, "malloc failed: out of host memory");
}

#[test]
fn a_solution_matrix_whose_size_overflows_is_a_typed_diagnostic() {
    // 2^32 x 2^32 elements: the product overflowed (a panic in a debug
    // build, a wrapped size of 0 in release).
    let src = "int main() {\n    float* h = (float*) malloc(16);\n    \
               wbSolutionMatrix(h, 4294967296, 4294967296);\n    return 0;\n}\n";
    let out = run_within_bound("2^32 x 2^32 solution matrix", src);
    let err = out.error.expect("the matrix is refused");
    assert_eq!(err.phase, Phase::Runtime);
    assert_eq!(err.message, "matrix dimensions overflow");
    assert!(out.solution.is_none());
}

#[test]
fn a_solution_image_with_a_negative_dimension_is_a_typed_diagnostic() {
    // -1 was cast to `usize` before the size was multiplied out.
    let src = "int main() {\n    float* h = (float*) malloc(16);\n    \
               wbSolutionImage(h, -1, 2, 3);\n    return 0;\n}\n";
    let out = run_within_bound("-1 x 2 x 3 solution image", src);
    let err = out.error.expect("the image is refused");
    assert_eq!(err.phase, Phase::Runtime);
    assert_eq!(err.message, "negative image dimensions");
    assert!(out.solution.is_none());
}

/// Run `src` and return its diagnostic, which must be a runtime one.
fn runtime_error(what: &str, src: &str) -> minicuda::Diag {
    let out = run_within_bound(what, src);
    let err = out.error.unwrap_or_else(|| panic!("{what}: ran clean"));
    assert_eq!(err.phase, Phase::Runtime, "{what}: {err}");
    err
}

#[test]
fn a_cuda_memcpy_of_negative_size_is_a_typed_diagnostic() {
    // The count was cast to `usize`: "copy overruns destination
    // (4611686018427387896 words past end)".
    let src = "int main() {\n    float* h = (float*) malloc(16);\n    float* d;\n    \
               cudaMalloc(&d, 16);\n    cudaMemcpy(d, h, -16, cudaMemcpyHostToDevice);\n    \
               return 0;\n}\n";
    let err = runtime_error("cudaMemcpy of -16 bytes", src);
    assert_eq!((err.pos.line, err.pos.col), (5, 5));
    assert_eq!(err.message, "cudaMemcpy of negative size");
}

#[test]
fn a_cuda_memcpy_to_symbol_of_negative_size_is_a_typed_diagnostic() {
    // It read "cudaMemcpyToSymbol overruns symbol".
    let src = "__constant__ float m[4];\nint main() {\n    float* h = (float*) malloc(16);\n    \
               cudaMemcpyToSymbol(m, h, -16);\n    return 0;\n}\n";
    let err = runtime_error("cudaMemcpyToSymbol of -16 bytes", src);
    assert_eq!((err.pos.line, err.pos.col), (4, 5));
    assert_eq!(err.message, "cudaMemcpyToSymbol of negative size");
}

#[test]
fn an_mpi_send_of_negative_size_is_a_typed_diagnostic() {
    // It read "read of 18446744073709551615 values at offset 0 overruns
    // allocation of 4 values".
    let src = "int main() {\n    float* h = (float*) malloc(16);\n    \
               wbMPI_sendFloat(0, h, -1);\n    return 0;\n}\n";
    let err = runtime_error("wbMPI_sendFloat of -1 values", src);
    assert_eq!((err.pos.line, err.pos.col), (3, 5));
    assert_eq!(err.message, "wbMPI_sendFloat of negative size");
}

/// Run `src` on `ranks` MPI ranks of the small test device, on a thread
/// of its own so that a run that hangs fails the test instead of
/// hanging it, and return its diagnostic, which must be a runtime one
/// reached in under a second.
fn mpi_runtime_error(what: &str, src: &'static str, ranks: usize) -> minicuda::Diag {
    let started = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let program = compile(src, Dialect::Cuda).unwrap_or_else(|d| panic!("{d}"));
        let opts = minicuda::RunOptions {
            device: minicuda::DeviceConfig::test_small(),
            world_size: ranks,
            ..Default::default()
        };
        let _ = tx.send(minicuda::run(&program, &[], &opts));
    });
    let out = rx
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("{what}: no result after 20 s"));
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "{what}: took {took:?}");
    let err = out.error.unwrap_or_else(|| panic!("{what}: ran clean"));
    assert_eq!(err.phase, Phase::Runtime, "{what}: {err}");
    err
}

#[test]
fn two_ranks_that_each_receive_before_sending_end_in_a_deadlock_diagnostic() {
    let src = "int main() {\n    float* h = (float*) malloc(16);\n    \
               int other = 1 - wbMPI_rank();\n    \
               wbMPI_recvFloat(other, h, 4);\n    wbMPI_sendFloat(other, h, 4);\n    \
               return 0;\n}\n";
    let err = mpi_runtime_error("receive-receive", src, 2);
    assert_eq!((err.pos.line, err.pos.col), (4, 5));
    assert_eq!(
        err.message,
        "MPI deadlock: no rank can continue (rank 0 waits in wbMPI_recvFloat for rank 1; \
         rank 1 waits in wbMPI_recvFloat for rank 0)"
    );
}

#[test]
fn a_barrier_that_a_failed_rank_never_reaches_ends_in_a_diagnostic() {
    // Rank 0 fails before the barrier; its diagnostic is the run's, and
    // rank 1's barrier ends instead of waiting for it.
    let src = "int main() {\n    int zero = wbMPI_rank();\n    \
               if (wbMPI_rank() == 0) { zero = 1 / zero; }\n    \
               wbMPI_barrier();\n    return 0;\n}\n";
    let err = mpi_runtime_error("barrier after a failed rank", src, 2);
    assert_eq!(err.pos.line, 3);
    assert!(err.message.contains("division by zero"), "{err}");
}

#[test]
fn a_barrier_that_a_finished_rank_never_reaches_names_both_ranks() {
    let src = "int main() {\n    if (wbMPI_rank() == 0) { return 0; }\n    \
               wbMPI_barrier();\n    return 0;\n}\n";
    let err = mpi_runtime_error("barrier after a finished rank", src, 2);
    assert_eq!((err.pos.line, err.pos.col), (3, 5));
    assert_eq!(
        err.message,
        "MPI deadlock: no rank can continue (rank 0 has finished; rank 1 waits in wbMPI_barrier)"
    );
}

#[test]
fn a_three_rank_receive_ring_ends_in_a_deadlock_diagnostic() {
    let src = "int main() {\n    float* h = (float*) malloc(16);\n    \
               int r = wbMPI_rank();\n    \
               wbMPI_recvFloat((r + 1) % 3, h, 4);\n    wbMPI_sendFloat((r + 2) % 3, h, 4);\n    \
               return 0;\n}\n";
    let err = mpi_runtime_error("three-rank ring", src, 3);
    assert_eq!((err.pos.line, err.pos.col), (4, 5));
    assert_eq!(
        err.message,
        "MPI deadlock: no rank can continue (rank 0 waits in wbMPI_recvFloat for rank 1; \
         rank 1 waits in wbMPI_recvFloat for rank 2; rank 2 waits in wbMPI_recvFloat for rank 0)"
    );
}

/// The diagnostic of a host program that steps `q`, one element into a
/// 4-element allocation `p`, by `line` (line 4 of the program).
fn host_pointer_error(what: &str, line: &str) -> minicuda::Diag {
    let src = format!(
        "int main() {{\n    float* p = (float*) malloc(16);\n    float* q = p + 1;\n{line}\n    \
         return 0;\n}}\n"
    );
    runtime_error(what, &src)
}

// Pointer offsets wrap in every executor, as integer arithmetic does;
// each of these overflowed an `i64` (a panic in a debug build, while
// per-lane pointers already wrapped). A wrapped offset fails the
// bounds check of its access.

#[test]
fn a_pointer_plus_an_overflowing_offset_wraps() {
    let err = host_pointer_error(
        "q + i64::MAX",
        "    float* r = q + 9223372036854775807;\n    r[0] = 1.0;",
    );
    assert_eq!(err.pos.line, 5);
    assert_eq!(
        err.message,
        "negative index -9223372036854775808 on host pointer"
    );
}

#[test]
fn an_overflowing_offset_plus_a_pointer_wraps() {
    let err = host_pointer_error(
        "i64::MAX + q",
        "    float* r = 9223372036854775807 + q;\n    r[0] = 1.0;",
    );
    assert_eq!(err.pos.line, 5);
    assert_eq!(
        err.message,
        "negative index -9223372036854775808 on host pointer"
    );
}

#[test]
fn a_pointer_minus_an_overflowing_offset_wraps() {
    let err = host_pointer_error(
        "p - i64::MIN",
        "    float* r = p - (-9223372036854775807 - 1);\n    r[0] = 1.0;",
    );
    assert_eq!(err.pos.line, 5);
    assert_eq!(
        err.message,
        "negative index -9223372036854775808 on host pointer"
    );
}

#[test]
fn an_overflowing_pointer_difference_wraps() {
    // `q - r` is 1 - i64::MIN: it wraps to a negative distance.
    let err = host_pointer_error(
        "q - (p + i64::MIN)",
        "    float* r = p + (-9223372036854775807 - 1);\n    if ((q - r) < 0) { r[0] = 1.0; }",
    );
    assert_eq!(err.pos.line, 5);
    assert_eq!(
        err.message,
        "negative index -9223372036854775808 on host pointer"
    );
}

#[test]
fn a_host_load_at_an_overflowing_index_wraps() {
    let err = host_pointer_error("q[i64::MAX]", "    float x = q[9223372036854775807];");
    assert_eq!(err.pos.line, 4);
    assert_eq!(
        err.message,
        "negative index -9223372036854775808 on host pointer"
    );
}

#[test]
fn a_host_store_at_an_overflowing_index_wraps() {
    let err = host_pointer_error("q[i64::MAX] = ...", "    q[9223372036854775807] = 1.0;");
    assert_eq!(err.pos.line, 4);
    assert_eq!(
        err.message,
        "negative index -9223372036854775808 on host pointer"
    );
}

#[test]
fn a_kernel_pointer_plus_an_overflowing_uniform_offset_wraps() {
    let src = "__global__ void k(float* d) {\n    float* q = d + 1;\n    \
               float* r = q + 9223372036854775807;\n    r[0] = 1.0;\n}\n\
               int main() {\n    float* d;\n    cudaMalloc(&d, 16);\n    k<<<1, 4>>>(d);\n    \
               return 0;\n}\n";
    let err = runtime_error("uniform d + 1 + i64::MAX in a kernel", src);
    assert_eq!(err.pos.line, 4);
    assert_eq!(
        err.message,
        "negative index -9223372036854775808 on device global pointer"
    );
}

#[test]
fn array_sizes_that_overflow_fold_like_the_run_and_are_refused() {
    // Sema folds a size with the run's operators: these wrap (they
    // overflowed an `i64` in a debug build) to a non-positive size.
    for (size, dim) in [
        ("9223372036854775807 + 1", "-9223372036854775808"),
        ("-(-9223372036854775807 - 1)", "-9223372036854775808"),
        ("(-9223372036854775807 - 1) / -1", "-9223372036854775808"),
        ("4611686018427387904 * 2", "-9223372036854775808"),
        ("1 << 64", "-9223372036854775808"),
    ] {
        let src = format!("__global__ void k() {{ __shared__ float t[{size}]; }}\n");
        let err = compile_within_bound(size, &src).expect_err(size);
        assert_eq!(err.phase, Phase::Sema, "{size}: {err}");
        assert_eq!(
            err.message,
            format!("__shared__ array `t` has non-positive dimension {dim}"),
            "{size}"
        );
    }
}
