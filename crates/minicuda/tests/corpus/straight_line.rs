// Random straight-line kernels: a chain of `int t{k} = <expr>;`
// statements over `i`, `x = a[i]` and earlier temporaries, including
// `/` and `%` so a trap (division by zero) and signed overflow are
// reachable. Read with `include!` by `minicuda`'s tree-walk-oracle
// unit tests and by `tests/properties.rs`'s optimizer-soundness
// property; both draw `STRAIGHT_LINE_CASES` cases.

/// How many generated kernels each suite draws.
const STRAIGHT_LINE_CASES: u64 = 48;

/// A statement expression for random straight-line kernels: leaves are
/// literals or a variable slot resolved against whatever is in scope
/// at the statement's position (`i`, `x`, earlier temporaries).
/// Division and remainder are deliberately included so the optimizer's
/// trap-preservation is exercised: a `/ 0` must produce the identical
/// diagnostic at every opt level, never be folded away or hoisted.
#[derive(Debug, Clone)]
enum K {
    Lit(i32),
    Var(usize),
    Add(Box<K>, Box<K>),
    Sub(Box<K>, Box<K>),
    Mul(Box<K>, Box<K>),
    Div(Box<K>, Box<K>),
    Rem(Box<K>, Box<K>),
    Min(Box<K>, Box<K>),
    Max(Box<K>, Box<K>),
    Neg(Box<K>),
    Ternary(Box<K>, Box<K>, Box<K>),
}

impl K {
    /// Render with `temps` temporaries in scope; variable slots wrap
    /// around `i`, `x`, `t0..t{temps-1}` so any raw index is valid.
    fn render(&self, temps: usize) -> String {
        match self {
            K::Lit(v) => format!("({v})"),
            K::Var(r) => match r % (temps + 2) {
                0 => "i".to_string(),
                1 => "x".to_string(),
                j => format!("t{}", j - 2),
            },
            K::Add(a, b) => format!("({} + {})", a.render(temps), b.render(temps)),
            K::Sub(a, b) => format!("({} - {})", a.render(temps), b.render(temps)),
            K::Mul(a, b) => format!("({} * {})", a.render(temps), b.render(temps)),
            K::Div(a, b) => format!("({} / {})", a.render(temps), b.render(temps)),
            K::Rem(a, b) => format!("({} % {})", a.render(temps), b.render(temps)),
            K::Min(a, b) => format!("min({}, {})", a.render(temps), b.render(temps)),
            K::Max(a, b) => format!("max({}, {})", a.render(temps), b.render(temps)),
            K::Neg(a) => format!("(-{})", a.render(temps)),
            K::Ternary(c, a, b) => format!(
                "(({}) > 0 ? {} : {})",
                c.render(temps),
                a.render(temps),
                b.render(temps)
            ),
        }
    }
}

/// A random statement expression at most `depth` levels deep; draws 0
/// and 1 are leaves.
fn kernel_expr(g: &mut wb_prop::Gen, depth: u32) -> K {
    let sub = |g: &mut wb_prop::Gen| Box::new(kernel_expr(g, depth - 1));
    match g.below(if depth == 0 { 2 } else { 11 }) {
        0 => K::Lit(g.int(-40..40)),
        1 => K::Var(g.int(0..64)),
        2 => K::Add(sub(g), sub(g)),
        3 => K::Sub(sub(g), sub(g)),
        4 => K::Mul(sub(g), sub(g)),
        5 => K::Div(sub(g), sub(g)),
        6 => K::Rem(sub(g), sub(g)),
        7 => K::Min(sub(g), sub(g)),
        8 => K::Max(sub(g), sub(g)),
        9 => K::Neg(sub(g)),
        _ => K::Ternary(sub(g), sub(g), sub(g)),
    }
}

/// Draw one straight-line kernel: its complete source and its one
/// input vector.
fn straight_line_case(g: &mut wb_prop::Gen) -> (String, libwb::Dataset) {
    let stmts = g.vec(1..6, |g| kernel_expr(g, 3));
    let (n, seed): (usize, u64) = (g.int(1..80), g.int(0..=u64::MAX));
    let mut body = String::new();
    for (k, e) in stmts.iter().enumerate() {
        body.push_str(&format!("                int t{k} = {};\n", e.render(k)));
    }
    let last = stmts.len() - 1;
    let src = format!(
        r#"
        __global__ void k(float* a, float* out, int n) {{
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {{
                int x = (int) a[i];
{body}                out[i] = (float) t{last};
            }}
        }}
        int main() {{
            int n;
            float* a = wbImportVector(0, &n);
            float* out = (float*) malloc(n * sizeof(float));
            float* dA; float* dOut;
            cudaMalloc(&dA, n * sizeof(float));
            cudaMalloc(&dOut, n * sizeof(float));
            cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
            k<<<(n + 31) / 32, 32>>>(dA, dOut, n);
            cudaMemcpy(out, dOut, n * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(out, n);
            return 0;
        }}
        "#
    );
    // Small signed values with zeros and negatives, so `/ x` and `% x`
    // sometimes trap and signed overflow stays reachable through `*`.
    let a: Vec<f32> = (0..n)
        .map(|k| (((seed >> (k % 48)) & 31) as i64 - 15) as f32)
        .collect();
    (src, libwb::Dataset::Vector(a))
}
