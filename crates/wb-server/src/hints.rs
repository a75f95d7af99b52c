//! Automated feedback — the paper's stated future work, implemented.
//!
//! §VIII: *"Future work on WebGPU includes automated feedback to
//! students and on-demand help/hints during development."* The hint
//! engine classifies a failed attempt (compile diagnostics, runtime
//! errors, mismatch patterns, cost-model smells) and produces the
//! message a TA would have typed, without a TA — the scaling story of
//! §II-A carried one step further.

use minicuda::token::{Tok, Token};
use minicuda::{CostSummary, Diag, Phase};
use wb_worker::JobOutcome;

/// A piece of automated feedback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hint {
    /// Stable identifier (used to avoid repeating hints to a student).
    pub code: &'static str,
    /// The student-facing message.
    pub message: String,
}

/// Derive hints from a job outcome. Returns the most specific hints
/// first; an empty vec means "nothing obviously wrong that we
/// recognize".
pub fn hints_for(outcome: &JobOutcome, source: &str) -> Vec<Hint> {
    let mut hints = Vec::new();

    if let Some(err) = &outcome.compile_error {
        hints.extend(compile_hints(err));
        return hints; // nothing ran; later analyses don't apply
    }
    // Tiling lab without shared memory, read only when a dataset ran
    // (a compile-only job reaches here too); the substring test spares
    // the lex when no `tileA` can be there.
    let tiles_not_shared = !outcome.datasets.is_empty()
        && source.contains("tileA")
        && with_tokens(source, |t| {
            has_ident(t, "tileA") && !has_ident(t, "__shared__")
        });

    for d in &outcome.datasets {
        if let Some(err) = &d.error {
            hints.extend(runtime_hints(err));
        } else if let Some(check) = &d.check {
            if !check.passed() {
                hints.extend(mismatch_hints(check, source));
            }
        }
        hints.extend(cost_hints(&d.cost, tiles_not_shared));
    }

    dedup(hints)
}

fn compile_hints(err: &str) -> Vec<Hint> {
    let mut hints = Vec::new();
    if err.contains("not allowed in this lab") {
        hints.push(Hint {
            code: "blacklist",
            message: "Your code uses a function this lab forbids — note that the scanner also \
matches inside comments, so delete the word entirely."
                .to_string(),
        });
    }
    if err.contains("expected `;`") || err.contains("found `;`") {
        hints.push(Hint {
            code: "semicolon",
            message: "Check the line the compiler points at for a missing or extra semicolon."
                .to_string(),
        });
    }
    if err.contains("missing `}`") {
        hints.push(Hint {
            code: "braces",
            message: "A block is never closed — count your braces from the function the \
compiler names."
                .to_string(),
        });
    }
    if err.contains("undeclared variable") {
        hints.push(Hint {
            code: "undeclared",
            message: "You are using a name before declaring it (or it is declared in an inner \
scope). Declare it with a type first."
                .to_string(),
        });
    }
    if err.contains("must be launched") {
        hints.push(Hint {
            code: "launch-syntax",
            message: "Kernels are launched with kernel<<<grid, block>>>(args), not called like \
functions."
                .to_string(),
        });
    }
    if err.contains("only available in device code") || err.contains("device code") {
        hints.push(Hint {
            code: "host-device-split",
            message: "threadIdx/blockIdx and __syncthreads exist only inside __global__ or \
__device__ functions; host code cannot use them."
                .to_string(),
        });
    }
    if hints.is_empty() {
        hints.push(Hint {
            code: "compile-generic",
            message: format!(
                "Compilation failed: {err}. Fix the first error the compiler reports; later \
ones are often cascades."
            ),
        });
    }
    hints
}

fn runtime_hints(err: &Diag) -> Vec<Hint> {
    let mut hints = Vec::new();
    let msg = &err.message;
    if msg.contains("out of bounds") || msg.contains("negative index") {
        hints.push(Hint {
            code: "bounds",
            message: "A thread indexed outside an allocation. The usual cause: the grid covers \
more threads than elements — guard with `if (i < n)` — or an off-by-one in an index expression."
                .to_string(),
        });
    }
    if msg.contains("host pointer") {
        hints.push(Hint {
            code: "memcpy-missing",
            message: "Your kernel received a host pointer. Allocate device memory with \
cudaMalloc and copy inputs over with cudaMemcpy before launching."
                .to_string(),
        });
    }
    if msg.contains("device pointer") {
        hints.push(Hint {
            code: "copy-back",
            message: "Host code dereferenced a device pointer. Copy results back with \
cudaMemcpy(..., cudaMemcpyDeviceToHost) before reading them."
                .to_string(),
        });
    }
    if msg.contains("barrier divergence") {
        hints.push(Hint {
            code: "barrier-divergence",
            message: "__syncthreads() ran while some threads of the block had branched away or \
returned. Every thread must reach every barrier: hoist the barrier out of the `if`."
                .to_string(),
        });
    }
    if msg.contains("direction says") {
        hints.push(Hint {
            code: "memcpy-direction",
            message: "The cudaMemcpy direction flag disagrees with the pointers you passed — \
check the argument order (dst, src, bytes, direction)."
                .to_string(),
        });
    }
    if err.phase == Phase::Limit {
        hints.push(Hint {
            code: "timeout",
            message: "Your program exceeded the lab's execution time limit. Look for a loop \
whose condition never becomes false — a missing stride update is the classic cause."
                .to_string(),
        });
    }
    if err.phase == Phase::Security {
        hints.push(Hint {
            code: "whitelist",
            message: "Your program called an API this lab does not allow. Stick to the calls \
shown in the lab description."
                .to_string(),
        });
    }
    if msg.contains("use after free") || msg.contains("double free") {
        hints.push(Hint {
            code: "lifetime",
            message: "A buffer was used after being freed (or freed twice). Free each \
allocation exactly once, after its last use."
                .to_string(),
        });
    }
    if hints.is_empty() {
        hints.push(Hint {
            code: "runtime-generic",
            message: format!("Runtime failure: {err}"),
        });
    }
    hints
}

fn mismatch_hints(check: &libwb::CheckReport, source: &str) -> Vec<Hint> {
    let mut hints = Vec::new();
    if let Some(shape) = &check.shape_error {
        if shape.contains("wbSolution") {
            hints.push(Hint {
                code: "no-solution",
                message: "Your program finished without calling wbSolution — submit your \
result buffer at the end of main."
                    .to_string(),
            });
            return hints;
        }
        hints.push(Hint {
            code: "shape",
            message: format!(
                "Your output has the wrong shape ({shape}). Check the dimensions you pass to \
wbSolution*."
            ),
        });
        return hints;
    }
    let frac = check.mismatch_count as f64 / check.total.max(1) as f64;
    if frac >= 0.999 {
        hints.push(Hint {
            code: "all-wrong",
            message: "Every value differs — the output buffer probably still holds its \
initial contents. Is the kernel writing to the buffer you copy back?"
                .to_string(),
        });
    } else if frac < 0.05 {
        hints.push(Hint {
            code: "edge-wrong",
            message: "Only a few values differ — usually the edges. Check boundary conditions: \
the first/last elements, the last partial tile, or sizes that are not multiples of the block."
                .to_string(),
        });
        let has_conditional =
            |t: &[Token]| has_ident(t, "if") || t.iter().any(|t| t.kind == Tok::Question);
        if with_tokens(source, |t| !has_conditional(t)) {
            hints.push(Hint {
                code: "no-guard",
                message: "Your kernel has no conditional at all: add a bounds guard like \
`if (i < n)`."
                    .to_string(),
            });
        }
    } else {
        hints.push(Hint {
            code: "many-wrong",
            message: format!(
                "{} of {} values differ. Compare your formula against the lab description on \
the first mismatching index shown in the report.",
                check.mismatch_count, check.total
            ),
        });
    }
    hints
}

/// `test` of `source`'s tokens after preprocessing, so comments and
/// parts of longer names (`shift`, `diff`) never count; false when it
/// does not lex, and the heuristics reading them stay silent.
fn with_tokens(source: &str, test: impl FnOnce(&[Token]) -> bool) -> bool {
    let Ok(pre) = minicuda::preprocessor::preprocess(source) else {
        return false;
    };
    minicuda::lexer::lex(&pre).is_ok_and(|t| test(&t))
}

fn has_ident(tokens: &[Token], name: &str) -> bool {
    tokens.iter().any(|t| t.kind == Tok::Ident(name))
}

fn cost_hints(cost: &CostSummary, tiles_not_shared: bool) -> Vec<Hint> {
    let mut hints = Vec::new();
    // Coalescing smell: far fewer accesses per transaction than the
    // hardware can merge.
    if cost.global_transactions > 64 && cost.coalescing_ratio() < 4.0 {
        hints.push(Hint {
            code: "uncoalesced",
            message: format!(
                "Your global memory accesses average {:.1} useful values per 128-byte \
transaction (32 is ideal). Consecutive threads should touch consecutive addresses.",
                cost.coalescing_ratio()
            ),
        });
    }
    // Bank conflict smell.
    if cost.shared_accesses > 0 && cost.shared_conflicts > cost.shared_accesses * 4 {
        hints.push(Hint {
            code: "bank-conflicts",
            message: "Shared-memory bank conflicts are serializing your warps — pad the inner \
dimension of your tile (e.g. [TILE][TILE + 1])."
                .to_string(),
        });
    }
    if tiles_not_shared {
        hints.push(Hint {
            code: "missing-shared",
            message: "Your tile arrays are not in shared memory — declare them __shared__ or \
every thread keeps a private copy."
                .to_string(),
        });
    }
    hints
}

fn dedup(hints: Vec<Hint>) -> Vec<Hint> {
    let mut seen = std::collections::BTreeSet::new();
    hints.into_iter().filter(|h| seen.insert(h.code)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use minicuda::DeviceConfig;
    use wb_labs::LabScale;
    use wb_worker::{execute, JobAction, JobRequest, RunCtx};

    fn grade(lab: &str, source: &str) -> (JobOutcome, String) {
        let lab = wb_labs::definition(lab, LabScale::Small).unwrap();
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: source.to_string(),
            spec: lab.spec,
            datasets: lab.datasets,
            action: JobAction::FullGrade,
        };
        (
            execute(&req, &RunCtx::new(&DeviceConfig::test_small())),
            source.to_string(),
        )
    }

    fn codes(outcome: &JobOutcome, source: &str) -> Vec<&'static str> {
        hints_for(outcome, source)
            .into_iter()
            .map(|h| h.code)
            .collect()
    }

    #[test]
    fn missing_guard_gets_bounds_hint() {
        let buggy = wb_labs::solution("vecadd").unwrap().replace(
            "if (i < n) { out[i] = a[i] + b[i]; }",
            "out[i] = a[i] + b[i];",
        );
        let (out, src) = grade("vecadd", &buggy);
        let c = codes(&out, &src);
        assert!(c.contains(&"bounds"), "{c:?}");
    }

    #[test]
    fn forgotten_memcpy_gets_memcpy_hint() {
        let buggy = wb_labs::solution("vecadd").unwrap().replace(
            "vecAdd<<<(n + 255) / 256, 256>>>(dA, dB, dC, n);",
            "vecAdd<<<(n + 255) / 256, 256>>>(hostA, hostB, dC, n);",
        );
        let (out, src) = grade("vecadd", &buggy);
        let c = codes(&out, &src);
        assert!(c.contains(&"memcpy-missing"), "{c:?}");
    }

    #[test]
    fn infinite_loop_gets_timeout_hint() {
        let src = r#"
            __global__ void spin() { int i = 0; while (i < 10) { i = i * 1; } }
            int main() { spin<<<1, 32>>>(); return 0; }
        "#;
        let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: src.to_string(),
            spec: wb_worker::LabSpec {
                limits: wb_sandbox::ResourceLimits::strict(),
                ..lab.spec
            },
            datasets: lab.datasets,
            action: JobAction::RunDataset(0),
        };
        let out = execute(&req, &RunCtx::new(&DeviceConfig::test_small()));
        let c = codes(&out, src);
        assert!(c.contains(&"timeout"), "{c:?}");
    }

    #[test]
    fn blacklisted_code_gets_blacklist_hint() {
        let (out, src) = grade("vecadd", "int main() { asm(\"x\"); return 0; }");
        let c = codes(&out, &src);
        assert!(c.contains(&"blacklist"), "{c:?}");
    }

    #[test]
    fn missing_wbsolution_gets_no_solution_hint() {
        let (out, src) = grade("vecadd", "int main() { return 0; }");
        let c = codes(&out, &src);
        assert!(c.contains(&"no-solution"), "{c:?}");
    }

    #[test]
    fn wrong_everywhere_gets_all_wrong_hint() {
        let buggy = wb_labs::solution("vecadd")
            .unwrap()
            .replace("out[i] = a[i] + b[i];", "int unused = 0;");
        let (out, src) = grade("vecadd", &buggy);
        let c = codes(&out, &src);
        assert!(c.contains(&"all-wrong"), "{c:?}");
    }

    #[test]
    fn barrier_in_branch_gets_divergence_hint() {
        let src = r#"
            __global__ void k() { if (threadIdx.x < 8) { __syncthreads(); } }
            int main() { k<<<1, 32>>>(); return 0; }
        "#;
        let (out, s) = grade("vecadd", src);
        let c = codes(&out, &s);
        assert!(c.contains(&"barrier-divergence"), "{c:?}");
    }

    #[test]
    fn strided_access_gets_coalescing_hint() {
        // A deliberately strided copy over enough data to trip the
        // heuristic.
        let src = r#"
            __global__ void badCopy(float* a, float* b) {
                int t = blockIdx.x * blockDim.x + threadIdx.x;
                b[(t * 37) % 8192] = a[(t * 53) % 8192];
            }
            int main() {
                int n;
                float* hostA = wbImportVector(0, &n);
                float* dA; float* dB;
                cudaMalloc(&dA, 8192 * sizeof(float));
                cudaMalloc(&dB, 8192 * sizeof(float));
                badCopy<<<32, 128>>>(dA, dB);
                wbSolution(hostA, n);
                return 0;
            }
        "#;
        let (out, s) = grade("vecadd", src);
        let c = codes(&out, &s);
        assert!(c.contains(&"uncoalesced"), "{c:?}");
    }

    /// Only the last element is wrong (edge-wrong) and the kernel has
    /// no `if` or `?`, though `verify` and `diff` contain "if".
    #[test]
    fn no_guard_hint_reads_tokens_not_substrings() {
        let clamped = wb_labs::solution("vecadd").unwrap().replace(
            "    int i = blockIdx.x * blockDim.x + threadIdx.x;\n    if (i < n) { out[i] = a[i] + b[i]; }",
            "    // verify: the clamp replaces the bounds guard\n    \
             int i = min(blockIdx.x * blockDim.x + threadIdx.x, n - 1);\n    \
             float diff = i == n - 1;\n    out[i] = a[i] + b[i] + diff;",
        );
        let (out, src) = grade("vecadd", &clamped);
        let c = codes(&out, &src);
        assert!(
            c.contains(&"edge-wrong") && c.contains(&"no-guard"),
            "{c:?}"
        );
        // A ternary is a conditional: no hint.
        let ternary = clamped.replace(
            "float diff = i == n - 1;",
            "float diff = i == n - 1 ? 1 : 0;",
        );
        let (out, src) = grade("vecadd", &ternary);
        let c = codes(&out, &src);
        assert!(
            c.contains(&"edge-wrong") && !c.contains(&"no-guard"),
            "{c:?}"
        );
    }

    /// `tileA` is a local, not `__shared__`: a comment naming
    /// `__shared__` does not silence the hint, and a comment naming
    /// `tileA` does not raise it.
    #[test]
    fn missing_shared_hint_ignores_comments() {
        let solution = wb_labs::solution("vecadd").unwrap();
        let local = solution.replace(
            "if (i < n) { out[i] = a[i] + b[i]; }",
            "// __shared__ tiles come later\n    \
             if (i < n) { float tileA = a[i]; out[i] = tileA; }",
        );
        let (out, src) = grade("vecadd", &local);
        assert!(codes(&out, &src).contains(&"missing-shared"));
        let comment_only = solution.replace(
            "if (i < n) { out[i] = a[i] + b[i]; }",
            "// tileA comes later\n    if (i < n) { out[i] = a[i]; }",
        );
        let (out, src) = grade("vecadd", &comment_only);
        let c = codes(&out, &src);
        assert!(!c.is_empty() && !c.contains(&"missing-shared"), "{c:?}");
    }

    #[test]
    fn clean_solution_gets_no_hints() {
        let (out, src) = grade("vecadd", wb_labs::solution("vecadd").unwrap());
        assert!(hints_for(&out, &src).is_empty());
    }

    #[test]
    fn hints_are_deduplicated() {
        // Multiple failing datasets with the same cause produce the
        // bounds hint once.
        let buggy = wb_labs::solution("vecadd").unwrap().replace(
            "if (i < n) { out[i] = a[i] + b[i]; }",
            "out[i] = a[i] + b[i];",
        );
        let (out, src) = grade("vecadd", &buggy);
        let hints = hints_for(&out, &src);
        let bounds = hints.iter().filter(|h| h.code == "bounds").count();
        assert_eq!(bounds, 1);
    }
}
