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
