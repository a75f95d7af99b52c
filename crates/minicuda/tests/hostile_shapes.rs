//! Generated sources of hostile shape: each must end in `Ok` or a
//! typed diagnostic well within a generous time bound, even in a debug
//! build. A table lookup that degrades to a linear scan turns these
//! sizes into minutes, so the bound catches it.

use minicuda::{compile_analyzed, Dialect, OptLevel, Phase};
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
