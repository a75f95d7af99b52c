//! Pins the built-in surface: every spelling a program may call without
//! defining it, with the diagnostic each misuse reports. A spelling is
//! a math function (callable anywhere; its arity is checked when it
//! runs), a device operation (kernels and `__device__` functions only)
//! or a host call (host code only, checked against the run's hostcall
//! whitelist and recorded in its trace).

use libwb::Dataset;
use minicuda::hostcall::DenyList;
use minicuda::{compile, Dialect, Phase, RunOptions};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Math,
    Device,
    Host,
}

use Kind::*;

/// `(spelling, kind, fewest arguments, most arguments, result type)`,
/// the result when every argument is an `int` (an atomic's first
/// argument is an `int*`).
const SURFACE: &[(&str, Kind, usize, usize, &str)] = &[
    // Math: the CUDA `f` spellings and the C spellings.
    ("sqrtf", Math, 1, 1, "float"),
    ("sqrt", Math, 1, 1, "float"),
    ("rsqrtf", Math, 1, 1, "float"),
    ("expf", Math, 1, 1, "float"),
    ("exp", Math, 1, 1, "float"),
    ("logf", Math, 1, 1, "float"),
    ("log", Math, 1, 1, "float"),
    ("log2f", Math, 1, 1, "float"),
    ("sinf", Math, 1, 1, "float"),
    ("sin", Math, 1, 1, "float"),
    ("cosf", Math, 1, 1, "float"),
    ("cos", Math, 1, 1, "float"),
    ("fabsf", Math, 1, 1, "float"),
    ("fabs", Math, 1, 1, "float"),
    ("ceilf", Math, 1, 1, "float"),
    ("ceil", Math, 1, 1, "float"),
    ("floorf", Math, 1, 1, "float"),
    ("floor", Math, 1, 1, "float"),
    ("powf", Math, 2, 2, "float"),
    ("pow", Math, 2, 2, "float"),
    ("fmodf", Math, 2, 2, "float"),
    ("fminf", Math, 2, 2, "float"),
    ("fmin", Math, 2, 2, "float"),
    ("fmaxf", Math, 2, 2, "float"),
    ("fmax", Math, 2, 2, "float"),
    ("abs", Math, 1, 1, "int"),
    ("min", Math, 2, 2, "int"),
    ("max", Math, 2, 2, "int"),
    // Device: synchronization, atomics, OpenCL work-item queries.
    ("__syncthreads", Device, 0, 0, "void"),
    ("barrier", Device, 1, 1, "void"),
    ("atomicAdd", Device, 2, 2, "int"),
    ("atomicMin", Device, 2, 2, "int"),
    ("atomicMax", Device, 2, 2, "int"),
    ("atomicExch", Device, 2, 2, "int"),
    ("atomicCAS", Device, 3, 3, "int"),
    ("get_global_id", Device, 1, 1, "int"),
    ("get_local_id", Device, 1, 1, "int"),
    ("get_group_id", Device, 1, 1, "int"),
    ("get_local_size", Device, 1, 1, "int"),
    ("get_num_groups", Device, 1, 1, "int"),
    ("get_global_size", Device, 1, 1, "int"),
    // Host: memory, the CUDA runtime, libwb, MPI.
    ("malloc", Host, 1, 1, "void*"),
    ("free", Host, 1, 1, "void"),
    ("cudaMalloc", Host, 2, 2, "int"),
    ("cudaFree", Host, 1, 1, "int"),
    ("cudaMemcpy", Host, 4, 4, "int"),
    ("cudaMemcpyToSymbol", Host, 3, 3, "int"),
    ("cudaDeviceSynchronize", Host, 0, 0, "int"),
    ("cudaGetLastError", Host, 0, 0, "int"),
    ("cudaSetDevice", Host, 1, 1, "int"),
    ("cudaGetDeviceCount", Host, 1, 1, "int"),
    ("wbImportVector", Host, 2, 2, "float*"),
    ("wbImportIntVector", Host, 2, 2, "int*"),
    ("wbImportMatrix", Host, 3, 3, "float*"),
    ("wbImportImage", Host, 4, 4, "float*"),
    ("wbImportCsrRowPtr", Host, 2, 2, "int*"),
    ("wbImportCsrColIdx", Host, 2, 2, "int*"),
    ("wbImportCsrValues", Host, 2, 2, "float*"),
    ("wbImportGraphRowPtr", Host, 2, 2, "int*"),
    ("wbImportGraphNeighbors", Host, 2, 2, "int*"),
    ("wbImportScalar", Host, 1, 1, "float"),
    ("wbSolution", Host, 2, 2, "void"),
    ("wbSolutionInt", Host, 2, 2, "void"),
    ("wbSolutionMatrix", Host, 3, 3, "void"),
    ("wbSolutionImage", Host, 4, 4, "void"),
    ("wbSolutionScalar", Host, 1, 1, "void"),
    ("wbLog", Host, 1, 8, "void"),
    ("wbTime_start", Host, 2, 2, "void"),
    ("wbTime_stop", Host, 2, 2, "void"),
    ("wbMPI_rank", Host, 0, 0, "int"),
    ("wbMPI_size", Host, 0, 0, "int"),
    ("wbMPI_sendFloat", Host, 3, 3, "void"),
    ("wbMPI_recvFloat", Host, 3, 3, "void"),
    ("wbMPI_barrier", Host, 0, 0, "void"),
    ("exit", Host, 1, 1, "void"),
];

/// `name(0, 0, …)` with `n` arguments.
fn call(name: &str, n: usize) -> String {
    format!("{name}({})", vec!["0"; n].join(", "))
}

/// The diagnostic compiling `src` reports.
fn compile_error(src: &str) -> String {
    match compile(src, Dialect::Cuda) {
        Ok(_) => "compiled".to_string(),
        Err(d) => d.to_string(),
    }
}

/// Host code calling `name` with `n` arguments; the call is at 1:14.
fn in_main(name: &str, n: usize) -> String {
    format!("int main() {{ {}; return 0; }}", call(name, n))
}

/// A kernel calling `name` with `n` arguments; the call is at 1:23.
fn in_kernel(name: &str, n: usize) -> String {
    format!("__global__ void k() {{ {}; }}", call(name, n))
}

/// Run `src` on no inputs; the outcome must hold a diagnostic.
fn run_error(src: &str) -> String {
    let program = compile(src, Dialect::Cuda).unwrap_or_else(|d| panic!("{src}: {d}"));
    let out = minicuda::run(&program, &[] as &[Dataset], &RunOptions::default());
    out.error
        .unwrap_or_else(|| panic!("{src}: ran clean"))
        .to_string()
}

#[test]
fn the_surface_has_28_math_13_device_and_34_host_spellings() {
    let count = |k| SURFACE.iter().filter(|row| row.1 == k).count();
    assert_eq!((count(Math), count(Device), count(Host)), (28, 13, 34));
    for (i, row) in SURFACE.iter().enumerate() {
        assert!(SURFACE[..i].iter().all(|r| r.0 != row.0), "{} twice", row.0);
    }
}

#[test]
fn every_spelling_is_reserved() {
    for &(name, ..) in SURFACE {
        let src = format!("int {name}(int x) {{ return x; }}\nint main() {{ return 0; }}");
        assert_eq!(
            compile_error(&src),
            format!("1:1: semantic error: `{name}` is a built-in function and cannot be redefined"),
            "{name}"
        );
    }
}

#[test]
fn host_and_device_calls_check_their_arity_in_sema() {
    for &(name, kind, min, max, _) in SURFACE {
        let (wrap, col): (fn(&str, usize) -> String, u32) = match kind {
            Math => continue,
            Device => (in_kernel, 23),
            Host => (in_main, 14),
        };
        let want = if min == max {
            min.to_string()
        } else {
            format!("{min}..{max}")
        };
        let wrong = min.checked_sub(1).into_iter().chain([max + 1]);
        for n in wrong {
            assert_eq!(
                compile_error(&wrap(name, n)),
                format!("1:{col}: semantic error: `{name}` expects {want} argument(s), {n} given"),
                "{name} with {n}"
            );
        }
    }
}

/// `call` with its first `0` replaced by an `int*` parameter `c`.
fn on_pointer(call: &str) -> String {
    call.replacen("(0", "(c", 1)
}

#[test]
fn each_call_types_as_its_result_rule_says() {
    for &(name, kind, min, _, result) in SURFACE {
        let call = match name {
            "atomicAdd" | "atomicMin" | "atomicMax" | "atomicExch" | "atomicCAS" => {
                on_pointer(&call(name, min))
            }
            _ => call(name, min),
        };
        // A pointer initializes only a pointer, a scalar only a scalar.
        let (decl, want) = if result.ends_with('*') {
            ("int q", format!("expected int, found {result}"))
        } else {
            ("int** q", format!("expected int**, found {result}"))
        };
        let (src, col) = match kind {
            Device => (
                format!("__global__ void k(int* c) {{ {decl} = {call}; }}"),
                29,
            ),
            _ => (format!("int main() {{ {decl} = {call}; return 0; }}"), 14),
        };
        assert_eq!(
            compile_error(&src),
            format!("1:{col}: semantic error: cannot initialize `q`: {want}"),
            "{name}"
        );
    }
    // `abs`, `min` and `max` stay integers only while no argument is a
    // float; `abs` of a bool is an int.
    for (call, result) in [
        ("abs(1.5)", "float"),
        ("min(1, 2.5)", "float"),
        ("max(1.5, 2)", "float"),
        ("abs(1 < 2)", "int"),
        ("min(1 < 2, 3)", "int"),
        ("fminf(1, 2)", "float"),
        ("fmax(1, 2)", "float"),
    ] {
        let src = format!("int main() {{ int** q = {call}; return 0; }}");
        assert_eq!(
            compile_error(&src),
            format!("1:14: semantic error: cannot initialize `q`: expected int**, found {result}"),
            "{call}"
        );
    }
    // Atomics but `atomicCAS` return their pointer's element type, and
    // insist on a pointer.
    assert_eq!(
        compile_error("__global__ void k(float* c) { int** q = atomicMax(c, 0); }"),
        "1:31: semantic error: cannot initialize `q`: expected int**, found float"
    );
    assert_eq!(
        compile_error("__global__ void k() { atomicExch(0, 0); }"),
        "1:23: semantic error: first argument of `atomicExch` must be a pointer"
    );
}

#[test]
fn math_calls_of_the_wrong_arity_compile_and_fail_when_they_run() {
    for &(name, kind, min, max, _) in SURFACE {
        if kind != Math {
            continue;
        }
        let plural = if min == 1 { "" } else { "s" };
        for n in [min - 1, max + 1] {
            assert_eq!(
                run_error(&in_main(name, n)),
                format!("1:14: runtime error: {name} expects {min} argument{plural}"),
                "{name} with {n} on the host"
            );
            let src = format!(
                "__global__ void k(float* o) {{ o[0] = {}; }}\n\
                 int main() {{ float* d; cudaMalloc(&d, 4); k<<<1, 1>>>(d); return 0; }}",
                call(name, n)
            );
            assert_eq!(
                run_error(&src),
                format!(
                    "1:38: runtime error: {name} expects {min} argument{plural} (block 0, thread 0)"
                ),
                "{name} with {n} in a kernel"
            );
        }
    }
}

#[test]
fn each_call_is_checked_against_its_context() {
    for &(name, kind, min, ..) in SURFACE {
        match kind {
            Math => {
                assert_eq!(compile_error(&in_main(name, min)), "compiled", "{name}");
                assert_eq!(compile_error(&in_kernel(name, min)), "compiled", "{name}");
            }
            Device => assert_eq!(
                compile_error(&in_main(name, min)),
                format!("1:14: semantic error: `{name}` can only be called from device code"),
                "{name}"
            ),
            Host => assert_eq!(
                compile_error(&in_kernel(name, min)),
                format!("1:23: semantic error: `{name}` can only be called from host code"),
                "{name}"
            ),
        }
    }
}

#[test]
fn a_denied_host_call_is_a_security_error_and_is_traced() {
    for &(name, kind, min, ..) in SURFACE {
        if kind != Host {
            continue;
        }
        let program =
            compile(&in_main(name, min), Dialect::Cuda).unwrap_or_else(|d| panic!("{name}: {d}"));
        let policy = DenyList(vec![name.to_string()]);
        let out =
            minicuda::run_with_policy(&program, &[] as &[Dataset], &RunOptions::default(), &policy);
        let err = out.error.unwrap_or_else(|| panic!("{name}: allowed"));
        assert_eq!(err.phase, Phase::Security, "{name}");
        assert_eq!(
            err.to_string(),
            format!(
                "1:14: security violation: call `{name}` is not in this lab's whitelist \
                 (policy deny-list)"
            ),
            "{name}"
        );
        assert_eq!(out.hostcalls, [name], "{name}");
    }
}

#[test]
fn math_calls_are_not_hostcalls() {
    let program = compile(
        "int main() { float x = sqrtf(4.0) + min(1, 2) + fmaxf(1.0, 2.0); return 0; }",
        Dialect::Cuda,
    )
    .unwrap_or_else(|d| panic!("{d}"));
    let out = minicuda::run_with_policy(
        &program,
        &[] as &[Dataset],
        &RunOptions::default(),
        &DenyList(vec!["sqrtf".into(), "min".into(), "fmaxf".into()]),
    );
    assert!(out.ok(), "{:?}", out.error);
    assert!(out.hostcalls.is_empty(), "{:?}", out.hostcalls);
}
