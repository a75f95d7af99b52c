//! Property-based tests on the toolchain: front-end robustness and
//! host-interpreter arithmetic vs a Rust oracle.

use libwb::Dataset;
use minicuda::{compile, compile_with, Dialect, OptLevel, RunOptions};
use wb_prop::Gen;

/// An arithmetic expression tree we can render to minicuda source and
/// evaluate in Rust.
#[derive(Debug, Clone)]
enum E {
    Lit(i32),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Min(Box<E>, Box<E>),
    Max(Box<E>, Box<E>),
    Neg(Box<E>),
    Ternary(Box<E>, Box<E>, Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::Lit(v) => format!("({v})"),
            E::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            E::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            E::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            E::Min(a, b) => format!("min({}, {})", a.render(), b.render()),
            E::Max(a, b) => format!("max({}, {})", a.render(), b.render()),
            E::Neg(a) => format!("(-{})", a.render()),
            E::Ternary(c, a, b) => {
                format!("(({}) > 0 ? {} : {})", c.render(), a.render(), b.render())
            }
        }
    }

    fn eval(&self) -> i64 {
        match self {
            E::Lit(v) => *v as i64,
            E::Add(a, b) => a.eval().wrapping_add(b.eval()),
            E::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            E::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            E::Min(a, b) => a.eval().min(b.eval()),
            E::Max(a, b) => a.eval().max(b.eval()),
            E::Neg(a) => a.eval().wrapping_neg(),
            E::Ternary(c, a, b) => {
                if c.eval() > 0 {
                    a.eval()
                } else {
                    b.eval()
                }
            }
        }
    }
}

/// A random tree at most `depth` levels deep; draw 0 is a literal.
fn expr(g: &mut Gen, depth: u32) -> E {
    let sub = |g: &mut Gen| Box::new(expr(g, depth - 1));
    match g.below(if depth == 0 { 1 } else { 8 }) {
        0 => E::Lit(g.int(-1000..1000)),
        1 => E::Add(sub(g), sub(g)),
        2 => E::Sub(sub(g), sub(g)),
        3 => E::Mul(sub(g), sub(g)),
        4 => E::Min(sub(g), sub(g)),
        5 => E::Max(sub(g), sub(g)),
        6 => E::Neg(sub(g)),
        _ => E::Ternary(sub(g), sub(g), sub(g)),
    }
}

include!("corpus/straight_line.rs");

/// Optimizer soundness: a random straight-line kernel computes the
/// identical result — same solution bytes, same diagnostic (message,
/// position, thread) on failure, same memory-system counters — at
/// `O0` (the IR as lowered) and `O2` (full pass pipeline), including
/// runs that trap on division by zero or wrap on overflow. The
/// tree-walk oracle checks the executor on the same generator in
/// `minicuda`'s unit tests.
#[test]
fn straight_line_kernels_identical_at_o0_and_o2() {
    wb_prop::check(STRAIGHT_LINE_CASES, |g| {
        let (src, input) = straight_line_case(g);
        let run = |opt| {
            let program =
                compile_with(&src, Dialect::Cuda, opt).expect("generated kernel compiles");
            minicuda::run(
                &program,
                std::slice::from_ref(&input),
                &RunOptions::default(),
            )
        };
        let (o0, o2) = (run(OptLevel::O0), run(OptLevel::O2));
        assert_eq!(&o0.error, &o2.error, "diagnostics diverged");
        assert_eq!(&o0.solution, &o2.solution, "solutions diverged");
        assert_eq!(o0.exit_code, o2.exit_code);
        let (ca, cb) = (&o0.cost, &o2.cost);
        assert_eq!(ca.global_transactions, cb.global_transactions);
        assert_eq!(ca.global_accesses, cb.global_accesses);
        assert_eq!(ca.shared_accesses, cb.shared_accesses);
        assert_eq!(ca.shared_conflicts, cb.shared_conflicts);
        assert_eq!(ca.atomics, cb.atomics);
        assert_eq!(ca.barriers, cb.barriers);
        assert_eq!(ca.divergent_branches, cb.divergent_branches);
        assert_eq!(ca.kernel_launches, cb.kernel_launches);
    });
}

/// Pinned from the property's first run: with two blocks trapping, the
/// error reported is the first in launch order, not the first in wall
/// time. Block 0 traps late and block 1 at once; block 0's trap wins.
#[test]
fn parallel_device_reports_the_first_trap_in_launch_order() {
    let src = r#"
        __global__ void k(float* out, int n) {
            int acc = 0;
            if (blockIdx.x == 0) {
                for (int j = 0; j < 20000; j++) { acc = acc + j % 7; }
                out[0] = (float) (acc / (n - n));
            } else { out[1] = (float) (acc % (n - n)); }
        }
        int main() { float* d; cudaMalloc(&d, 64); k<<<2, 32>>>(d, 2); return 0; }
    "#;
    for opt in [OptLevel::O0, OptLevel::O2] {
        let program = compile_with(src, Dialect::Cuda, opt).expect("compiles");
        let err = minicuda::run(&program, &[] as &[Dataset], &RunOptions::default()).error;
        let (message, thread) = err
            .map(|e| (e.message, e.thread))
            .expect("both blocks trap");
        assert_eq!(
            (&*message, thread.map(|t| t.0)),
            ("integer division by zero", Some(0))
        );
    }
}

/// The host interpreter evaluates arbitrary integer expression
/// trees exactly like Rust's wrapping integer arithmetic.
#[test]
fn host_arithmetic_matches_rust_oracle() {
    wb_prop::check(64, |g| {
        let e = expr(g, 4);
        let src = format!(
            "int main() {{\n    int result = {};\n    wbSolutionScalar(result);\n    return 0;\n}}\n",
            e.render()
        );
        let program = compile(&src, Dialect::Cuda).expect("generated source compiles");
        let out = minicuda::run(&program, &[] as &[Dataset], &RunOptions::default());
        assert!(out.ok(), "{:?}", out.error);
        let want = e.eval();
        // wbSolutionScalar stores f32; compare within f32 precision of
        // the true value.
        match out.solution {
            Some(Dataset::Scalar(got)) => assert_eq!(got, want as f32, "expr {}", e.render()),
            other => panic!("unexpected solution {other:?}"),
        }
    });
}

/// The same expression computed per-thread on the device matches
/// the host result (lockstep SIMT vs scalar interpreter).
#[test]
fn device_arithmetic_matches_host() {
    wb_prop::check(64, |g| {
        let e = expr(g, 4);
        let src = format!(
            r#"
            __global__ void k(float* out) {{
                out[threadIdx.x] = {};
            }}
            int main() {{
                float* d;
                cudaMalloc(&d, 4 * sizeof(float));
                k<<<1, 4>>>(d);
                float* h = (float*) malloc(4 * sizeof(float));
                cudaMemcpy(h, d, 4 * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolution(h, 4);
                return 0;
            }}
            "#,
            e.render()
        );
        let program = compile(&src, Dialect::Cuda).expect("compiles");
        let out = minicuda::run(&program, &[] as &[Dataset], &RunOptions::default());
        assert!(out.ok(), "{:?}", out.error);
        let want = e.eval() as f32;
        match out.solution {
            Some(Dataset::Vector(v)) => assert!(v.iter().all(|&x| x == want), "{v:?} vs {want}"),
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// The front end never panics on arbitrary input — it either
/// compiles or returns a diagnostic.
#[test]
fn compiler_never_panics_on_arbitrary_text() {
    wb_prop::check(64, |g| {
        let src = g.text(0..201);
        let _ = compile(&src, Dialect::Cuda);
        let _ = compile(&src, Dialect::OpenCl);
    });
}

/// ... including near-miss C-like programs built from plausible
/// fragments.
#[test]
fn compiler_never_panics_on_clike_soup() {
    const PARTS: [&str; 15] = [
        "int main() {",
        "}",
        "float* p;",
        "if (x > 0)",
        "for (int i = 0; i < n; i++)",
        "__global__ void k() {",
        "__shared__ float t[16];",
        "a[i] = b[i] + 1.0;",
        "return 0;",
        "#define N 32",
        "k<<<1, 32>>>();",
        "/* comment",
        "\"string",
        "threadIdx.x",
        "??",
    ];
    wb_prop::check(64, |g| {
        let src = g.vec(0..24, |g| *g.pick(&PARTS)).join("\n");
        let _ = compile(&src, Dialect::Cuda);
    });
}

/// Compilation is deterministic: same source, same outcome.
#[test]
fn compilation_is_deterministic() {
    wb_prop::check(64, |g| {
        let src = g.text(0..121);
        let a = compile(&src, Dialect::Cuda)
            .map(|_| ())
            .map_err(|d| d.to_string());
        let b = compile(&src, Dialect::Cuda)
            .map(|_| ())
            .map_err(|d| d.to_string());
        assert_eq!(a, b);
    });
}
