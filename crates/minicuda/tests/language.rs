//! Language-conformance suite: small programs exercising corners of
//! the minicuda language and runtime, with student-facing diagnostics
//! checked for position and wording.

use libwb::Dataset;
use minicuda::{compile, compile_with, DeviceConfig, Dialect, OptLevel, Phase, RunOptions};

fn run_ok(src: &str) -> minicuda::RunOutcome {
    let program = compile(src, Dialect::Cuda).unwrap_or_else(|d| panic!("compile: {d}"));
    let opts = RunOptions {
        device: DeviceConfig::test_small(),
        ..Default::default()
    };
    let out = minicuda::run(&program, &[] as &[Dataset], &opts);
    assert!(out.ok(), "{:?}", out.error);
    out
}

fn run_err(src: &str) -> minicuda::Diag {
    let program = compile(src, Dialect::Cuda).unwrap_or_else(|d| panic!("compile: {d}"));
    let opts = RunOptions {
        device: DeviceConfig::test_small(),
        ..Default::default()
    };
    minicuda::run(&program, &[] as &[Dataset], &opts)
        .error
        .expect("program should fail")
}

fn scalar(out: &minicuda::RunOutcome) -> f32 {
    match out.solution {
        Some(Dataset::Scalar(x)) => x,
        ref other => panic!("expected scalar, got {other:?}"),
    }
}

// ---- host language ------------------------------------------------------

#[test]
fn operator_precedence_torture() {
    let out = run_ok(
        "int main() { wbSolutionScalar(2 + 3 * 4 - 10 / 2 % 3 + (1 << 3) - 6 % 4); return 0; }",
    );
    // 2 + 12 - (5%3=2) + 8 - 2 = 18
    assert_eq!(scalar(&out), 18.0);
}

#[test]
fn comparison_and_logical_chains() {
    let out = run_ok(
        "int main() { int x = 5; wbSolutionScalar((x > 3 && x < 10) || x == 0); return 0; }",
    );
    assert_eq!(scalar(&out), 1.0);
}

#[test]
fn short_circuit_protects_rhs_on_host() {
    // The right side would divide by zero if evaluated.
    let out = run_ok(
        "int main() { int z = 0; int ok = (z == 0) || (10 / z > 1); wbSolutionScalar(ok); return 0; }",
    );
    assert_eq!(scalar(&out), 1.0);
}

#[test]
fn ternary_chains_are_right_associative() {
    let out = run_ok(
        "int main() { int x = 2; wbSolutionScalar(x == 1 ? 10 : x == 2 ? 20 : 30); return 0; }",
    );
    assert_eq!(scalar(&out), 20.0);
}

#[test]
fn while_break_continue() {
    let out = run_ok(
        r#"
        int main() {
            int sum = 0;
            int i = 0;
            while (1) {
                i = i + 1;
                if (i > 10) { break; }
                if (i % 2 == 0) { continue; }
                sum += i; // 1+3+5+7+9
            }
            wbSolutionScalar(sum);
            return 0;
        }
        "#,
    );
    assert_eq!(scalar(&out), 25.0);
}

#[test]
fn nested_loops_with_labels_not_needed() {
    let out = run_ok(
        r#"
        int main() {
            int count = 0;
            for (int i = 0; i < 5; i++) {
                for (int j = 0; j < 5; j++) {
                    if (j > i) { break; }
                    count++;
                }
            }
            wbSolutionScalar(count); // 1+2+3+4+5
            return 0;
        }
        "#,
    );
    assert_eq!(scalar(&out), 15.0);
}

#[test]
fn recursion_on_host_works_to_a_depth() {
    let out = run_ok(
        r#"
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { wbSolutionScalar(fib(12)); return 0; }
        "#,
    );
    assert_eq!(scalar(&out), 144.0);
}

#[test]
fn unbounded_recursion_is_caught() {
    let err = run_err(
        "int loop(int n) { return loop(n + 1); }\nint main() { int x = loop(0); return 0; }",
    );
    assert!(err.message.contains("recursion limit"), "{err}");
}

#[test]
fn float_int_promotions() {
    let out = run_ok(
        "int main() { float x = 7 / 2; float y = 7.0 / 2; wbSolutionScalar(x + y); return 0; }",
    );
    // int division first: 3; float: 3.5.
    assert_eq!(scalar(&out), 6.5);
}

#[test]
fn casts_truncate_like_c() {
    let out = run_ok(
        "int main() { int a = (int) 3.9; int b = (int) -1.5; wbSolutionScalar(a * 10 + b); return 0; }",
    );
    assert_eq!(scalar(&out), 29.0); // 3*10 + (-1)
}

#[test]
fn sizeof_values() {
    let out = run_ok(
        "int main() { wbSolutionScalar(sizeof(float) + sizeof(int) + sizeof(float*)); return 0; }",
    );
    assert_eq!(scalar(&out), 16.0);
}

#[test]
fn hex_literals_and_shifts() {
    let out = run_ok("int main() { wbSolutionScalar((0x10 << 2) | 0x3); return 0; }");
    assert_eq!(scalar(&out), 67.0);
}

#[test]
fn define_macros_compose() {
    let out = run_ok(
        "#define TILE 8\n#define DOUBLE_TILE (2 * TILE)\nint main() { wbSolutionScalar(DOUBLE_TILE); return 0; }",
    );
    assert_eq!(scalar(&out), 16.0);
}

#[test]
fn math_intrinsics_on_host() {
    let out = run_ok(
        "int main() { wbSolutionScalar(sqrtf(16.0) + fmaxf(1.0, 2.0) + fminf(1.0, 2.0) + fabsf(-3.0)); return 0; }",
    );
    assert_eq!(scalar(&out), 10.0);
}

#[test]
fn integer_division_by_zero_is_reported_with_position() {
    let err = run_err("int main() {\n    int z = 0;\n    int x = 10 / z;\n    return 0;\n}");
    assert_eq!(err.phase, Phase::Runtime);
    assert_eq!(err.pos.line, 3);
    assert!(err.message.contains("division by zero"));
}

#[test]
fn float_division_by_zero_is_ieee() {
    let out =
        run_ok("int main() { float x = 1.0 / 0.0; wbSolutionScalar(x > 1000000.0); return 0; }");
    assert_eq!(scalar(&out), 1.0);
}

// ---- device language ------------------------------------------------------

fn run_device_vec(src: &str, n: usize) -> Vec<f32> {
    let out = run_ok(src);
    match out.solution {
        Some(Dataset::Vector(v)) => {
            assert_eq!(v.len(), n);
            v
        }
        ref other => panic!("expected vector, got {other:?}"),
    }
}

#[test]
fn three_dimensional_builtins() {
    let v = run_device_vec(
        r#"
        __global__ void k(float* out) {
            int i = (threadIdx.z * blockDim.y + threadIdx.y) * blockDim.x + threadIdx.x;
            out[i] = gridDim.x * 100 + blockDim.x * 10 + blockDim.y + blockDim.z;
        }
        int main() {
            float* d;
            cudaMalloc(&d, 8 * sizeof(float));
            k<<<dim3(1, 1, 1), dim3(2, 2, 2)>>>(d);
            float* h = (float*) malloc(8 * sizeof(float));
            cudaMemcpy(h, d, 8 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 8);
            return 0;
        }
        "#,
        8,
    );
    // gridDim.x=1 → 100, blockDim.x=2 → 20, blockDim.y + blockDim.z = 4.
    assert!(v.iter().all(|&x| x == 124.0));
}

#[test]
fn warp_divergence_both_paths_execute() {
    let v = run_device_vec(
        r#"
        __global__ void k(float* out) {
            int t = threadIdx.x;
            if (t % 2 == 0) { out[t] = 100.0 + t; }
            else { out[t] = 200.0 + t; }
        }
        int main() {
            float* d;
            cudaMalloc(&d, 8 * sizeof(float));
            k<<<1, 8>>>(d);
            float* h = (float*) malloc(8 * sizeof(float));
            cudaMemcpy(h, d, 8 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 8);
            return 0;
        }
        "#,
        8,
    );
    for (t, &x) in v.iter().enumerate() {
        let want = if t % 2 == 0 { 100.0 } else { 200.0 } + t as f32;
        assert_eq!(x, want);
    }
}

#[test]
fn per_thread_loop_trip_counts() {
    // Each thread loops a different number of times — the mask machinery.
    let v = run_device_vec(
        r#"
        __global__ void k(float* out) {
            int t = threadIdx.x;
            int sum = 0;
            for (int i = 0; i <= t; i++) { sum += i; }
            out[t] = sum;
        }
        int main() {
            float* d;
            cudaMalloc(&d, 6 * sizeof(float));
            k<<<1, 6>>>(d);
            float* h = (float*) malloc(6 * sizeof(float));
            cudaMemcpy(h, d, 6 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 6);
            return 0;
        }
        "#,
        6,
    );
    assert_eq!(v, vec![0.0, 1.0, 3.0, 6.0, 10.0, 15.0]);
}

#[test]
fn early_return_lanes_exit_cleanly() {
    let v = run_device_vec(
        r#"
        __global__ void k(float* out, int n) {
            int t = threadIdx.x;
            out[t] = 1.0;
            if (t >= n) { return; }
            out[t] = 2.0;
        }
        int main() {
            float* d;
            cudaMalloc(&d, 4 * sizeof(float));
            k<<<1, 4>>>(d, 2);
            float* h = (float*) malloc(4 * sizeof(float));
            cudaMemcpy(h, d, 4 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 4);
            return 0;
        }
        "#,
        4,
    );
    assert_eq!(v, vec![2.0, 2.0, 1.0, 1.0]);
}

#[test]
fn shared_array_row_aliasing() {
    // t[i] of a 2-D shared array is a row pointer usable like float*.
    let v = run_device_vec(
        r#"
        __global__ void k(float* out) {
            __shared__ float t[2][4];
            int x = threadIdx.x;
            t[0][x] = x;
            t[1][x] = 10 * x;
            __syncthreads();
            out[x] = t[0][x] + t[1][x];
        }
        int main() {
            float* d;
            cudaMalloc(&d, 4 * sizeof(float));
            k<<<1, 4>>>(d);
            float* h = (float*) malloc(4 * sizeof(float));
            cudaMemcpy(h, d, 4 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 4);
            return 0;
        }
        "#,
        4,
    );
    assert_eq!(v, vec![0.0, 11.0, 22.0, 33.0]);
}

#[test]
fn atomic_cas_spinlock_free_increment() {
    let out = run_ok(
        r#"
        __global__ void inc(int* c) {
            // atomicCAS retry loop — the textbook pattern.
            int done = 0;
            while (done == 0) {
                int old = c[0];
                if (atomicCAS(c, old, old + 1) == old) { done = 1; }
            }
        }
        int main() {
            int* d;
            cudaMalloc(&d, sizeof(int));
            inc<<<2, 16>>>(d);
            int* h = (int*) malloc(sizeof(int));
            cudaMemcpy(h, d, sizeof(int), cudaMemcpyDeviceToHost);
            wbSolutionInt(h, 1);
            return 0;
        }
        "#,
    );
    assert_eq!(out.solution, Some(Dataset::IntVector(vec![32])));
}

#[test]
fn atomic_exch_and_max() {
    let out = run_ok(
        r#"
        __global__ void k(int* best) {
            atomicMax(best, threadIdx.x * 7 % 13);
        }
        int main() {
            int* d;
            cudaMalloc(&d, sizeof(int));
            k<<<1, 32>>>(d);
            int* h = (int*) malloc(sizeof(int));
            cudaMemcpy(h, d, sizeof(int), cudaMemcpyDeviceToHost);
            wbSolutionInt(h, 1);
            return 0;
        }
        "#,
    );
    assert_eq!(out.solution, Some(Dataset::IntVector(vec![12])));
}

#[test]
fn device_to_device_memcpy() {
    let v = run_device_vec(
        r#"
        __global__ void fill(float* a) { a[threadIdx.x] = threadIdx.x * 3.0; }
        int main() {
            float* dA; float* dB;
            cudaMalloc(&dA, 4 * sizeof(float));
            cudaMalloc(&dB, 4 * sizeof(float));
            fill<<<1, 4>>>(dA);
            cudaMemcpy(dB, dA, 4 * sizeof(float), cudaMemcpyDeviceToDevice);
            float* h = (float*) malloc(4 * sizeof(float));
            cudaMemcpy(h, dB, 4 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 4);
            return 0;
        }
        "#,
        4,
    );
    assert_eq!(v, vec![0.0, 3.0, 6.0, 9.0]);
}

#[test]
fn pointer_offset_kernel_argument() {
    // Passing `d + 2` launches the kernel on a sub-buffer.
    let v = run_device_vec(
        r#"
        __global__ void fill(float* a) { a[threadIdx.x] = 9.0; }
        int main() {
            float* d;
            cudaMalloc(&d, 6 * sizeof(float));
            fill<<<1, 2>>>(d + 2);
            float* h = (float*) malloc(6 * sizeof(float));
            cudaMemcpy(h, d, 6 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 6);
            return 0;
        }
        "#,
        6,
    );
    assert_eq!(v, vec![0.0, 0.0, 9.0, 9.0, 0.0, 0.0]);
}

#[test]
fn too_many_threads_per_block_rejected() {
    let err = run_err(
        r#"
        __global__ void k() {}
        int main() { k<<<1, 2048>>>(); return 0; }
        "#,
    );
    assert!(err.message.contains("must be in 1..=1024"), "{err}");
}

#[test]
fn grid_of_zero_rejected() {
    let err = run_err(
        r#"
        __global__ void k() {}
        int main() { k<<<0, 32>>>(); return 0; }
        "#,
    );
    assert!(err.message.contains("grid dimension"), "{err}");
}

#[test]
fn shared_memory_limit_enforced() {
    let err = run_err(
        r#"
        __global__ void k() {
            __shared__ float big[1024][16];
            big[0][0] = 1.0;
        }
        int main() { k<<<1, 32>>>(); return 0; }
        "#,
    );
    assert!(err.message.contains("shared memory"), "{err}");
}

#[test]
fn double_cuda_free_reported() {
    let err = run_err(
        r#"
        int main() {
            float* d;
            cudaMalloc(&d, 4);
            cudaFree(d);
            cudaFree(d);
            return 0;
        }
        "#,
    );
    assert!(err.message.contains("double free"), "{err}");
}

#[test]
fn negative_kernel_index_reports_thread() {
    let err = run_err(
        r#"
        __global__ void k(float* a) { a[threadIdx.x - 1] = 1.0; }
        int main() {
            float* d;
            cudaMalloc(&d, 32 * sizeof(float));
            k<<<1, 32>>>(d);
            return 0;
        }
        "#,
    );
    assert!(err.message.contains("negative index"), "{err}");
    assert!(err.thread.is_some());
}

#[test]
fn openacc_parallel_loop_runs_on_host_arrays() {
    let out = run_ok(
        r#"
        int main() {
            float* a = (float*) malloc(8 * sizeof(float));
            #pragma acc parallel loop
            for (int i = 0; i < 8; i++) {
                a[i] = i * 2.0;
            }
            wbSolution(a, 8);
            return 0;
        }
        "#,
    );
    assert_eq!(
        out.solution,
        Some(Dataset::Vector(vec![
            0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0
        ]))
    );
    assert_eq!(
        out.cost.kernel_launches, 1,
        "the ACC region counts as an offload"
    );
}

#[test]
fn opencl_work_item_functions_match_cuda_indexing() {
    let src = r#"
        __kernel void k(__global float* out, int n) {
            int i = get_group_id(0) * get_local_size(0) + get_local_id(0);
            if (i < n) { out[i] = get_num_groups(0) * 1000 + get_global_size(0); }
        }
        int main() {
            float* d;
            cudaMalloc(&d, 8 * sizeof(float));
            k<<<2, 4>>>(d, 8);
            float* h = (float*) malloc(8 * sizeof(float));
            cudaMemcpy(h, d, 8 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 8);
            return 0;
        }
    "#;
    let program = compile(src, Dialect::OpenCl).unwrap();
    let out = minicuda::run(&program, &[] as &[Dataset], &RunOptions::default());
    assert!(out.ok(), "{:?}", out.error);
    // 2 groups of 4 → num_groups 2, global size 8.
    assert_eq!(out.solution, Some(Dataset::Vector(vec![2008.0; 8])));
}

#[test]
fn wbtime_nests_and_reports_all_spans() {
    let out = run_ok(
        r#"
        int main() {
            wbTime_start(Generic, "outer");
            wbTime_start(Compute, "inner");
            int x = 0;
            for (int i = 0; i < 100; i++) { x += i; }
            wbTime_stop(Compute, "inner");
            wbTime_stop(Generic, "outer");
            wbSolutionScalar(x);
            return 0;
        }
        "#,
    );
    let spans = out.timer.spans();
    assert_eq!(spans.len(), 2);
    let inner = spans.iter().find(|s| s.message == "inner").unwrap();
    let outer = spans.iter().find(|s| s.message == "outer").unwrap();
    assert!(outer.elapsed() >= inner.elapsed(), "outer encloses inner");
}

#[test]
fn multi_kernel_program_accumulates_cost() {
    let out = run_ok(
        r#"
        __global__ void a(float* x) { x[threadIdx.x] = 1.0; }
        __global__ void b(float* x) { x[threadIdx.x] += 1.0; }
        int main() {
            float* d;
            cudaMalloc(&d, 32 * sizeof(float));
            a<<<1, 32>>>(d);
            b<<<1, 32>>>(d);
            b<<<1, 32>>>(d);
            float* h = (float*) malloc(32 * sizeof(float));
            cudaMemcpy(h, d, 32 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 32);
            return 0;
        }
        "#,
    );
    assert_eq!(out.cost.kernel_launches, 3);
    assert_eq!(out.solution, Some(Dataset::Vector(vec![3.0; 32])));
}

#[test]
fn coalesced_vs_strided_transactions() {
    // The cost model's core lesson: a strided access pattern touches
    // more 128-byte segments than a unit-stride one.
    let run_with = |indexing: &str| {
        let src = format!(
            r#"
            __global__ void k(float* a) {{
                int t = threadIdx.x;
                a[{indexing}] = 1.0;
            }}
            int main() {{
                float* d;
                cudaMalloc(&d, 2048 * sizeof(float));
                k<<<1, 32>>>(d);
                return 0;
            }}
            "#
        );
        let program = compile(&src, Dialect::Cuda).unwrap();
        let out = minicuda::run(&program, &[] as &[Dataset], &RunOptions::default());
        assert!(out.ok(), "{:?}", out.error);
        out.cost.global_transactions
    };
    let coalesced = run_with("t");
    let strided = run_with("t * 32");
    assert_eq!(coalesced, 1, "one 128B segment");
    assert_eq!(strided, 32, "one segment per lane");
}

#[test]
fn bank_conflicts_detected() {
    let run_with = |indexing: &str| {
        let src = format!(
            r#"
            __global__ void k(float* out) {{
                __shared__ float s[1024];
                int t = threadIdx.x;
                s[{indexing}] = 1.0;
                __syncthreads();
                out[t] = s[t];
            }}
            int main() {{
                float* d;
                cudaMalloc(&d, 32 * sizeof(float));
                k<<<1, 32>>>(d);
                return 0;
            }}
            "#
        );
        let program = compile(&src, Dialect::Cuda).unwrap();
        let out = minicuda::run(&program, &[] as &[Dataset], &RunOptions::default());
        assert!(out.ok(), "{:?}", out.error);
        out.cost.shared_conflicts
    };
    let clean = run_with("t");
    let conflicted = run_with("t * 32"); // every lane hits bank 0
    assert_eq!(clean, 0);
    assert!(conflicted > 20, "32-way conflict, got {conflicted}");
}

// ---- compound assignment through an effectful index ---------------------

/// Regression test: `a[e] += v` must evaluate the index expression `e`
/// exactly once. The tree-walk executor used to evaluate the target
/// twice — once to read the current value and once to store — so an
/// index with a side effect (here an `atomicAdd` cursor bump) read one
/// slot and wrote a different one. Identical behavior is required from
/// every executor, so the kernel runs at each opt level.
#[test]
fn compound_index_assignment_evaluates_index_once() {
    let src = r#"
        __global__ void scatter(float* hist, int* cursor) {
            hist[atomicAdd(&cursor[0], 1)] += 1.0;
        }
        int main() {
            int* dCur;
            float* dHist;
            cudaMalloc(&dCur, sizeof(int));
            cudaMalloc(&dHist, 8 * sizeof(float));
            scatter<<<1, 8>>>(dHist, dCur);
            float* h = (float*) malloc(8 * sizeof(float));
            cudaMemcpy(h, dHist, 8 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 8);
            return 0;
        }
    "#;
    for opt in [OptLevel::O0, OptLevel::O2] {
        let program = compile_with(src, Dialect::Cuda, opt).unwrap_or_else(|d| panic!("{d}"));
        let opts = RunOptions {
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        let out = minicuda::run(&program, &[] as &[Dataset], &opts);
        assert!(out.ok(), "{opt}: {:?}", out.error);
        // With the index evaluated once, each lane claims a distinct
        // slot and increments it: every bin ends at exactly 1. The old
        // double-evaluation bumped the cursor twice per lane, so half
        // the bins stayed 0.
        assert_eq!(
            out.solution,
            Some(Dataset::Vector(vec![1.0; 8])),
            "at {opt}"
        );
    }
}

/// `src` lowered to the kernel IR with no pass run over it: the
/// warp-batched executor on the IR exactly as lowering emits it.
fn compile_unoptimized(src: &str) -> minicuda::Program {
    let mut program =
        compile_with(src, Dialect::Cuda, OptLevel::O0).unwrap_or_else(|d| panic!("{d}"));
    program.attach_ir(minicuda::lower::lower_program(&program));
    program
}

/// The instruction cost model counts **IR ops executed**: after LICM
/// hoists thread-invariant math out of a 64-iteration loop, the O2
/// kernel issues measurably fewer warp-instructions than the same IR
/// run unoptimized — while every memory/divergence counter stays
/// bit-identical (the optimizer may only shrink issue counts).
#[test]
fn optimized_kernels_issue_fewer_warp_instructions() {
    let src = r#"
        __global__ void k(float* out, int n) {
            int acc = 0;
            for (int j = 0; j < 64; j = j + 1) {
                acc = acc + (n * 3 + 7);
            }
            out[threadIdx.x] = (float) acc;
        }
        int main() {
            float* d;
            cudaMalloc(&d, 32 * sizeof(float));
            k<<<1, 32>>>(d, 5);
            float* h = (float*) malloc(32 * sizeof(float));
            cudaMemcpy(h, d, 32 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 32);
            return 0;
        }
    "#;
    let run = |program: &minicuda::Program| {
        let opts = RunOptions {
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        let out = minicuda::run(program, &[] as &[Dataset], &opts);
        assert!(out.ok(), "{:?}", out.error);
        out
    };
    let raw = run(&compile_unoptimized(src));
    let o2 = run(&compile_with(src, Dialect::Cuda, OptLevel::O2).unwrap_or_else(|d| panic!("{d}")));
    assert_eq!(raw.solution, o2.solution);
    assert_eq!(raw.solution, Some(Dataset::Vector(vec![64.0 * 22.0; 32])));
    assert!(
        o2.cost.warp_instructions < raw.cost.warp_instructions,
        "LICM+fold should shrink issued IR ops: unoptimized={} O2={}",
        raw.cost.warp_instructions,
        o2.cost.warp_instructions
    );
    assert_eq!(raw.cost.global_transactions, o2.cost.global_transactions);
    assert_eq!(raw.cost.divergent_branches, o2.cost.divergent_branches);
    assert_eq!(raw.cost.barriers, o2.cost.barriers);
}

// ---- lane representations vs the tree-walk oracle -------------------------
//
// The batched executor stores a register as uniform, typed or generic
// lanes and picks a loop by representation. These kernels sit on the
// edges between representations; each must be indistinguishable from
// the tree-walk (`O0`) on the unoptimized IR and at `O2`: solution,
// diagnostic (message, position, block and lane) and memory counters.

/// Run `kernel` over one block of `n` threads writing `out[n]` on the
/// tree-walk, the unoptimized IR and the `O2` IR, and return the
/// (identical) outcome.
fn same_at_all_levels(kernel: &str, n: usize) -> minicuda::RunOutcome {
    let src = format!(
        r#"{kernel}
        int main() {{
            float* d; float* a; float* b;
            cudaMalloc(&d, {n} * sizeof(float));
            cudaMalloc(&a, {n} * sizeof(float));
            cudaMalloc(&b, {n} * sizeof(float));
            float* h = (float*) malloc({n} * sizeof(float));
            for (int i = 0; i < {n}; i++) {{ h[i] = i + 100; }}
            cudaMemcpy(a, h, {n} * sizeof(float), cudaMemcpyHostToDevice);
            for (int i = 0; i < {n}; i++) {{ h[i] = i + 200; }}
            cudaMemcpy(b, h, {n} * sizeof(float), cudaMemcpyHostToDevice);
            k<<<1, {n}>>>(d, a, b);
            cudaMemcpy(h, d, {n} * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, {n});
            return 0;
        }}"#
    );
    let run = |program: &minicuda::Program| {
        let opts = RunOptions {
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        minicuda::run(program, &[] as &[Dataset], &opts)
    };
    let at =
        |opt: OptLevel| compile_with(&src, Dialect::Cuda, opt).unwrap_or_else(|d| panic!("{d}"));
    let oracle = run(&at(OptLevel::O0));
    for (opt, program) in [
        ("unoptimized", compile_unoptimized(&src)),
        ("O2", at(OptLevel::O2)),
    ] {
        let out = run(&program);
        assert_eq!(out.error, oracle.error, "{opt}: diagnostic");
        assert_eq!(out.solution, oracle.solution, "{opt}: solution");
        let (c, o) = (&out.cost, &oracle.cost);
        assert_eq!(
            (c.global_transactions, c.global_accesses),
            (o.global_transactions, o.global_accesses),
            "{opt}: global memory counters"
        );
        assert_eq!(
            (c.shared_accesses, c.shared_conflicts),
            (o.shared_accesses, o.shared_conflicts),
            "{opt}: shared memory counters"
        );
        assert_eq!(
            (c.atomics, c.barriers, c.divergent_branches),
            (o.atomics, o.barriers, o.divergent_branches),
            "{opt}: atomics, barriers, divergence"
        );
    }
    oracle
}

fn solution_vec(out: &minicuda::RunOutcome) -> &[f32] {
    assert!(out.ok(), "{:?}", out.error);
    match &out.solution {
        Some(Dataset::Vector(v)) => v,
        other => panic!("expected vector, got {other:?}"),
    }
}

#[test]
fn int_and_float_lanes_mix_through_arithmetic_and_comparison() {
    let out = same_at_all_levels(
        r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            float f = t * 0.5;
            float sum = t + f;
            float diff = f - t;
            float prod = t * f;
            int below = t < f + 2;
            int above = 2.5 < t;
            out[t] = sum + diff * 100 + prod * 10000 + below * 7 + above * 3 + (a[t] - t);
        }"#,
        8,
    );
    let v = solution_vec(&out);
    for (t, &x) in v.iter().enumerate() {
        let (ti, f) = (t as f32, t as f32 * 0.5);
        let below = (ti < f + 2.0) as i32 as f32;
        let above = (2.5 < ti) as i32 as f32;
        let want = (ti + f) + (f - ti) * 100.0 + (ti * f) * 10000.0 + below * 7.0 + above * 3.0;
        assert_eq!(x, want + 100.0, "lane {t}");
    }
}

#[test]
fn ternary_between_two_arrays_then_indexed() {
    // Pointer lanes that cannot share one allocation header.
    let out = same_at_all_levels(
        r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            float* p = (t % 2 == 0) ? a : b;
            out[t] = p[t];
            p[t] = p[t] + 1000;
            out[t] += p[t];
        }"#,
        8,
    );
    let v = solution_vec(&out);
    for (t, &x) in v.iter().enumerate() {
        let base = if t % 2 == 0 { 100.0 } else { 200.0 } + t as f32;
        assert_eq!(x, base + base + 1000.0, "lane {t}");
    }
}

#[test]
fn partial_mask_assignment_demotes_a_uniform_variable() {
    // Inactive lanes keep the uniform's old value; active lanes convert
    // the source to the variable's declared kind.
    let out = same_at_all_levels(
        r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            int x = 7;
            float y = t * 1.5;
            float z = 0.25;
            bool flag = 0;
            if (t % 3 == 0) { x = y; z = t; flag = y; }
            out[t] = x * 100 + z + flag * 10000;
        }"#,
        8,
    );
    let v = solution_vec(&out);
    for (t, &x) in v.iter().enumerate() {
        let want = if t % 3 == 0 {
            let y = t as f32 * 1.5;
            (y as i32 * 100) as f32 + t as f32 + if y != 0.0 { 10000.0 } else { 0.0 }
        } else {
            700.25
        };
        assert_eq!(x, want, "lane {t}");
    }
}

#[test]
fn division_by_zero_in_one_lane_is_attributed_to_it() {
    let out = same_at_all_levels(
        r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            int q = 1;
            if (t > 2) { q = 100 / (t - 5); }
            out[t] = q % (t - 6);
        }"#,
        8,
    );
    let err = out.error.expect("lane 5 divides by zero");
    assert_eq!(err.message, "integer division by zero");
    assert_eq!(err.thread, Some((0, 5)));
}

#[test]
fn shared_2d_index_out_of_bounds_in_one_lane_is_attributed_to_it() {
    let out = same_at_all_levels(
        r#"__global__ void k(float* out, float* a, float* b) {
            __shared__ float tile[4][4];
            int t = threadIdx.x;
            int col = t % 4;
            if (t == 9) { col = col + 20; }
            tile[t / 4][col] = t;
            __syncthreads();
            out[t] = tile[t / 4][col];
        }"#,
        16,
    );
    let err = out.error.expect("lane 9 indexes past the tile");
    assert!(err.message.contains("out of bounds"), "{}", err.message);
    assert_eq!(err.thread, Some((0, 9)));
}

#[test]
fn bool_and_int_assignments_round_trip() {
    let out = same_at_all_levels(
        r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            bool big = t > 3;
            int i = big;
            i = i + big;
            big = i - 1;
            float f = big;
            if (t % 2 == 1) { big = t - 1; i = big; }
            out[t] = i * 10 + big + f * 100;
        }"#,
        8,
    );
    let v = solution_vec(&out);
    for (t, &x) in v.iter().enumerate() {
        let mut big = t > 3;
        let mut i = big as i32 * 2;
        big = i - 1 != 0;
        let f = big as i32 as f32;
        if t % 2 == 1 {
            big = t - 1 != 0;
            i = big as i32;
        }
        assert_eq!(x, (i * 10 + big as i32) as f32 + f * 100.0, "lane {t}");
    }
}

#[test]
fn device_function_returns_per_lane_floats_from_divergent_returns() {
    let out = same_at_all_levels(
        r#"__device__ float pick(float x, int t) {
            if (t % 2 == 0) { return x * 2.0; }
            return x + 0.5;
        }
        __global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            out[t] = pick(b[t], t) + 1;
        }"#,
        8,
    );
    let v = solution_vec(&out);
    for (t, &x) in v.iter().enumerate() {
        let b = 200.0 + t as f32;
        let want = if t % 2 == 0 { b * 2.0 } else { b + 0.5 };
        assert_eq!(x, want + 1.0, "lane {t}");
    }
}
