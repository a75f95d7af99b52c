//! Language-conformance suite: small programs exercising corners of
//! the minicuda language and runtime, with student-facing diagnostics
//! checked for position and wording.

use libwb::Dataset;
use minicuda::{compile, compile_with, DeviceConfig, Dialect, OptLevel, Phase, RunOptions};

fn run_ok(src: &str) -> minicuda::RunOutcome {
    run_ok_with(src, &[])
}

fn run_ok_with(src: &str, inputs: &[Dataset]) -> minicuda::RunOutcome {
    let program = compile(src, Dialect::Cuda).unwrap_or_else(|d| panic!("compile: {d}"));
    let opts = RunOptions {
        device: DeviceConfig::test_small(),
        ..Default::default()
    };
    let out = minicuda::run(&program, inputs, &opts);
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
    let raw =
        run(&compile_with(src, Dialect::Cuda, OptLevel::O0).unwrap_or_else(|d| panic!("{d}")));
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

/// `sema::analyze` alone yields a program without IR; a launch from it
/// is a typed runtime diagnostic (the kernel has nowhere to run), never
/// a panic, and host code before the launch still runs.
#[test]
fn program_without_ir_fails_its_launch_with_a_runtime_diagnostic() {
    let src = r#"
        __global__ void k(float* out) { out[threadIdx.x] = 1.0; }
        int main() {
            float* d;
            cudaMalloc(&d, 4 * sizeof(float));
            wbLog(INFO, "before the launch");
            k<<<1, 4>>>(d);
            return 0;
        }
    "#;
    let pre = minicuda::preprocessor::preprocess(src).unwrap();
    let tokens = minicuda::lexer::lex(&pre).unwrap();
    let unit = minicuda::parser::parse(tokens).unwrap();
    let program = minicuda::sema::analyze(unit, Dialect::Cuda).unwrap();
    assert!(program.ir().is_none());
    let out = minicuda::run(&program, &[] as &[Dataset], &RunOptions::default());
    let err = out.error.expect("the launch fails");
    assert_eq!(err.phase, Phase::Runtime);
    assert_eq!(err.pos.line, 7, "{err}");
    assert!(err.message.contains("no lowered IR"), "{err}");
    assert_eq!(out.log.lines().len(), 1, "host code before the launch ran");
}

// ---- lane representations at every level -----------------------------
//
// The batched executor stores a register as uniform, typed or generic
// lanes and picks a loop by representation. These kernels sit on the
// edges between representations; each must run identically on the IR
// as lowered (`O0`) and after the passes (`O2`): solution, diagnostic
// (message, position, block and lane) and memory counters. The
// tree-walk oracle runs the same corpus in `minicuda`'s unit tests.

include!("corpus/representation_edges.rs");

/// Run one `(kernel, n)` of the corpus at `O0` and at `O2`, and return
/// the (identical) outcome.
fn same_at_all_levels(case: (&str, usize)) -> minicuda::RunOutcome {
    let src = representation_edge_program(case);
    let run = |opt: OptLevel| {
        let program = compile_with(&src, Dialect::Cuda, opt).unwrap_or_else(|d| panic!("{d}"));
        let opts = RunOptions {
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        minicuda::run(&program, &[] as &[Dataset], &opts)
    };
    let (o0, o2) = (run(OptLevel::O0), run(OptLevel::O2));
    assert_eq!(o2.error, o0.error, "diagnostic");
    assert_eq!(o2.solution, o0.solution, "solution");
    let (c, o) = (&o2.cost, &o0.cost);
    assert_eq!(
        (c.global_transactions, c.global_accesses),
        (o.global_transactions, o.global_accesses),
        "global memory counters"
    );
    assert_eq!(
        (c.shared_accesses, c.shared_conflicts),
        (o.shared_accesses, o.shared_conflicts),
        "shared memory counters"
    );
    assert_eq!(
        (c.atomics, c.barriers, c.divergent_branches),
        (o.atomics, o.barriers, o.divergent_branches),
        "atomics, barriers, divergence"
    );
    o0
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
    let out = same_at_all_levels(INT_FLOAT_LANES_MIX);
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
    let out = same_at_all_levels(TERNARY_BETWEEN_TWO_ARRAYS);
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
    let out = same_at_all_levels(PARTIAL_MASK_DEMOTES_UNIFORM);
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
    let out = same_at_all_levels(DIV_ZERO_IN_ONE_LANE);
    let err = out.error.expect("lane 5 divides by zero");
    assert_eq!(err.message, "integer division by zero");
    assert_eq!(err.thread, Some((0, 5)));
}

#[test]
fn shared_2d_index_out_of_bounds_in_one_lane_is_attributed_to_it() {
    let out = same_at_all_levels(SHARED_2D_OOB_IN_ONE_LANE);
    let err = out.error.expect("lane 9 indexes past the tile");
    assert!(err.message.contains("out of bounds"), "{}", err.message);
    assert_eq!(err.thread, Some((0, 9)));
}

#[test]
fn bool_and_int_assignments_round_trip() {
    let out = same_at_all_levels(BOOL_INT_ROUND_TRIP);
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
    let out = same_at_all_levels(DEVICE_FN_DIVERGENT_RETURNS);
    let v = solution_vec(&out);
    for (t, &x) in v.iter().enumerate() {
        let b = 200.0 + t as f32;
        let want = if t % 2 == 0 { b * 2.0 } else { b + 0.5 };
        assert_eq!(x, want + 1.0, "lane {t}");
    }
}

#[test]
fn a_dead_fmin_of_ints_still_traps_at_every_level() {
    // `fmin` returns a float whatever its arguments, so `% 2` traps
    // even though nothing reads the result.
    let err = same_at_all_levels(DEAD_FMIN_OF_INTS_TRAPS)
        .error
        .expect("the dead line traps");
    assert_eq!(err.message, "% is not defined on floats (use fmodf)");
    assert_eq!((err.pos.line, err.thread), (3, Some((0, 0))));
}

#[test]
fn an_fmax_trap_in_a_zero_trip_loop_never_fires() {
    let out = same_at_all_levels(FMAX_TRAP_IN_A_ZERO_TRIP_LOOP);
    let v = solution_vec(&out);
    for (t, &x) in v.iter().enumerate() {
        assert_eq!(x, t as f32, "lane {t}");
    }
}

#[test]
fn abs_of_the_most_negative_int_wraps_on_every_lane_form() {
    let out = same_at_all_levels(ABS_OF_THE_MOST_NEGATIVE_INT);
    let v = solution_vec(&out);
    for (t, &x) in v.iter().enumerate() {
        assert_eq!(x, if t % 2 == 0 { 7.0 } else { 11.0 }, "lane {t}");
    }
}

#[test]
fn abs_of_the_most_negative_int_wraps_on_the_host_at_every_level() {
    let src = "int main() { int m = -9223372036854775807 - 1; int h = 0; \
               int loaded = h - 9223372036854775807 - 1; \
               wbSolutionScalar((abs(m) == m) + 2 * (abs(loaded) == m) + 4 * (abs(-5) == 5)); \
               return 0; }";
    for opt in [OptLevel::O0, OptLevel::O2] {
        let program = compile_with(src, Dialect::Cuda, opt).unwrap_or_else(|d| panic!("{d}"));
        let opts = RunOptions {
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        let out = minicuda::run(&program, &[] as &[Dataset], &opts);
        assert!(out.ok(), "{opt}: {:?}", out.error);
        assert_eq!(scalar(&out), 7.0, "{opt}");
    }
}

// ---- name binding: shadowing, pinned ------------------------------------
//
// Sema binds every name once and lowering, the host interpreter and the
// tree-walk all read that binding, so O0-vs-O2 parity alone no longer
// checks resolution: each program below pins its answer.

/// A shadow in a nested block; the outer name is read before the inner
/// declaration and again after the block.
const HOST_NESTED_SHADOW: &str = r#"
    int main() {
        int x = 1;
        float acc = 0;
        {
            acc = acc + x;
            int x = 10;
            acc = acc + x;
            { float x = 0.5; acc = acc + x; }
            acc = acc + x;
        }
        wbSolutionScalar(acc + x * 100);
        return 0;
    }"#;

/// `for (int i …)` shadows an outer `i`, which is read after the loop.
const HOST_FOR_SHADOW: &str = r#"
    int main() {
        int i = 7;
        int sum = 0;
        for (int i = 0; i < 4; i++) { sum += i; }
        wbSolutionScalar(sum * 100 + i);
        return 0;
    }"#;

/// A loop-body declaration without an initializer is re-initialized to
/// 0 on every iteration, even though the last iteration assigned it.
const HOST_LOOP_DECL: &str = r#"
    int main() {
        int sum = 0;
        for (int k = 0; k < 5; k++) {
            int fresh;
            sum = sum * 10 + fresh + 1;
            fresh = 9;
        }
        int w = 0;
        while (w < 2) {
            float f;
            sum = sum + f * 1000000;
            f = 1;
            w++;
        }
        wbSolutionScalar(sum);
        return 0;
    }"#;

/// A recursive host helper whose parameters and locals reuse `main`'s
/// names: every call gets its own frame.
const HOST_RECURSIVE_HELPER: &str = r#"
    int tri(int n, int acc) {
        int x = n;
        if (n == 0) { return acc; }
        int r = tri(n - 1, acc + x);
        return r;
    }
    int main() {
        int n = 5;
        int acc = 1000;
        int x = 3;
        int r = tri(n, 0);
        wbSolutionScalar(r * 10000 + n * 1000 + acc + x);
        return 0;
    }"#;

/// `cudaMalloc(&p, …)` and `wbImportVector(0, &n)` write through a
/// shadowed `p` and `n`; the outer ones keep their values.
const HOST_OUT_PARAMS: &str = r#"
    int main() {
        int n = -1;
        float* p = (float*) malloc(sizeof(float));
        p[0] = 42;
        float seen = 0;
        {
            int n = 0;
            float* p;
            float* v = wbImportVector(0, &n);
            cudaMalloc(&p, n * sizeof(float));
            cudaMemcpy(p, v, n * sizeof(float), cudaMemcpyHostToDevice);
            float* back = (float*) malloc(n * sizeof(float));
            cudaMemcpy(back, p, n * sizeof(float), cudaMemcpyDeviceToHost);
            seen = n * 1000 + back[n - 1];
        }
        wbSolutionScalar(seen * 10 + p[0] + n);
        return 0;
    }"#;

/// A local shadows a `__constant__` symbol, which is visible again
/// after the block.
const HOST_CONSTANT_SHADOW: &str = r#"
    __constant__ float mask[2];
    int main() {
        float* h = (float*) malloc(2 * sizeof(float));
        h[0] = 3;
        h[1] = 4;
        cudaMemcpyToSymbol(mask, h, 2 * sizeof(float));
        float total = 0;
        {
            float mask = 100;
            total = total + mask;
        }
        wbSolutionScalar(total + mask[0] * 10 + mask[1]);
        return 0;
    }"#;

/// A local shadows the predefined `cudaMemcpyHostToDevice` (0) with the
/// code of the opposite direction (1).
const HOST_PREDEFINED_SHADOW: &str = r#"
    int main() {
        float* h = (float*) malloc(sizeof(float));
        float* d;
        cudaMalloc(&d, sizeof(float));
        h[0] = 5;
        cudaMemcpy(d, h, sizeof(float), cudaMemcpyHostToDevice);
        h[0] = 0;
        {
            int cudaMemcpyHostToDevice = 1;
            cudaMemcpy(h, d, sizeof(float), cudaMemcpyHostToDevice);
        }
        wbSolutionScalar(h[0] * 10 + cudaMemcpyHostToDevice);
        return 0;
    }"#;

#[test]
fn nested_block_shadow_then_outer_read() {
    // 1 (outer, before the inner declaration) + 10 + 0.5 + 10, then
    // the outer x again: + 100.
    assert_eq!(scalar(&run_ok(HOST_NESTED_SHADOW)), 121.5);
}

#[test]
fn for_init_shadow_leaves_outer_counter() {
    assert_eq!(scalar(&run_ok(HOST_FOR_SHADOW)), 607.0);
}

#[test]
fn loop_body_declaration_reads_zero_every_iteration() {
    assert_eq!(scalar(&run_ok(HOST_LOOP_DECL)), 11111.0);
}

#[test]
fn recursive_helper_reusing_main_names_gets_its_own_frame() {
    // tri(5, 0) = 15; main's n, acc and x are untouched.
    assert_eq!(scalar(&run_ok(HOST_RECURSIVE_HELPER)), 156003.0);
}

#[test]
fn out_parameters_write_the_shadowing_variables() {
    let out = run_ok_with(HOST_OUT_PARAMS, &[Dataset::Vector(vec![10.0, 20.0, 30.0])]);
    // Inner n = 3 and back[2] = 30; outer p[0] = 42 and n = -1.
    assert_eq!(scalar(&out), 30341.0);
}

#[test]
fn local_shadows_a_constant_symbol() {
    assert_eq!(scalar(&run_ok(HOST_CONSTANT_SHADOW)), 134.0);
}

#[test]
fn local_shadows_a_predefined_constant() {
    // The shadowed call copies device to host (5 comes back); the outer
    // name is the predefined 0 again.
    assert_eq!(scalar(&run_ok(HOST_PREDEFINED_SHADOW)), 50.0);
}

#[test]
fn kernel_shadows_and_loop_declarations_are_pinned() {
    let out = same_at_all_levels(KERNEL_SCOPES);
    let want: Vec<f32> = (0..8).map(|t| (101 * t + 13) as f32).collect();
    assert_eq!(solution_vec(&out), want);
}

#[test]
fn kernel_local_shadows_a_constant_symbol() {
    let out = same_at_all_levels(KERNEL_CONSTANT_SHADOW);
    let want: Vec<f32> = (0..8).map(|t| (3 * t + 100) as f32).collect();
    assert_eq!(solution_vec(&out), want);
}

#[test]
fn device_helper_locals_shadow_the_kernels() {
    let out = same_at_all_levels(KERNEL_DEVICE_HELPER);
    // 2 * (t + 100) + (t + 1) + 1000
    let want: Vec<f32> = (0..8).map(|t| (3 * t + 1201) as f32).collect();
    assert_eq!(solution_vec(&out), want);
}

/// Sema binds every name: each variable reference and `&var` names a
/// slot of its function's frame, and each frame has exactly one slot
/// per parameter and declaration — over the 15 lab solutions and the
/// shadowing corpus above.
#[test]
fn sema_binds_every_name_in_the_labs_and_the_shadowing_corpus() {
    use minicuda::ast::{Binding, ExprKind, FuncDef, Stmt};

    // Each node sits once in its function's arenas, so a flat scan
    // visits every declaration and every reference.
    fn declared_and_used(f: &FuncDef) -> (Vec<u32>, Vec<u32>) {
        let mut declared: Vec<u32> = (0..f.params.len() as u32).collect();
        for s in &f.stmts {
            if let Stmt::Decl { slot, .. } | Stmt::SharedDecl { slot, .. } = *s {
                declared.push(slot);
            }
        }
        let used = f
            .exprs
            .iter()
            .filter_map(|e| match e.kind {
                ExprKind::Bound(Binding::Slot(s)) | ExprKind::AddrOf(_, s) => Some(s),
                // A name sema never visited is still unbound.
                ExprKind::Var(_) => Some(u32::MAX),
                _ => None,
            })
            .collect();
        (declared, used)
    }
    fn check(program: &minicuda::Program, f: &FuncDef, what: &str) {
        let (mut declared, used) = declared_and_used(f);
        declared.sort_unstable();
        let all: Vec<u32> = (0..f.frame.len() as u32).collect();
        assert_eq!(
            declared,
            all,
            "{what} `{}`: one slot per parameter and declaration",
            program.name(f.name)
        );
        let unbound: Vec<_> = used
            .iter()
            .filter(|&&s| s as usize >= f.frame.len())
            .collect();
        assert!(
            unbound.is_empty(),
            "{what} `{}`: unbound references",
            program.name(f.name)
        );
    }

    let mut checked = 0;
    for id in wb_labs::lab_ids() {
        let spec = wb_labs::definition(id, wb_labs::LabScale::Small)
            .expect("lab")
            .spec;
        let src = wb_labs::solution(id).expect("solution");
        let program = compile(src, spec.dialect).unwrap_or_else(|d| panic!("{id}: {d}"));
        program.funcs().for_each(|f| check(&program, f, id));
        checked += 1;
    }
    assert_eq!(checked, 15);
    for src in [
        HOST_NESTED_SHADOW,
        HOST_FOR_SHADOW,
        HOST_LOOP_DECL,
        HOST_RECURSIVE_HELPER,
        HOST_OUT_PARAMS,
        HOST_CONSTANT_SHADOW,
        HOST_PREDEFINED_SHADOW,
        KERNEL_SCOPES.0,
        KERNEL_CONSTANT_SHADOW.0,
        KERNEL_DEVICE_HELPER.0,
    ] {
        let program = compile(src, Dialect::Cuda).unwrap_or_else(|d| panic!("{d}"));
        program.funcs().for_each(|f| check(&program, f, "corpus"));
    }
}

// ---- non-ASCII text ---------------------------------------------------
//
// The preprocessor, the OpenCL canonicalizer and the lexer copy source
// text in byte runs, so a multi-byte character reaches a log line, a
// diagnostic or a column count exactly as the student wrote it.

/// The messages `src` logs, run at its dialect.
fn logged(src: &str, dialect: Dialect) -> Vec<String> {
    let program = compile(src, dialect).unwrap_or_else(|d| panic!("compile: {d}"));
    let out = minicuda::run(&program, &[] as &[Dataset], &RunOptions::default());
    assert!(out.ok(), "{:?}", out.error);
    out.log.lines().iter().map(|l| l.message.clone()).collect()
}

#[test]
fn non_ascii_log_text_comes_out_verbatim() {
    let plain = "int main() {\n  wbLog(TRACE, \"température µs\"); // déjà\n  return 0;\n}\n";
    let want = ["température µs"];
    assert_eq!(logged(plain, Dialect::Cuda), want);
    // A `#define` sends every later line through macro expansion.
    let defined = format!("#define N 4 /* café */\n{plain}");
    assert_eq!(logged(&defined, Dialect::Cuda), want);
    // OpenCL sources are rewritten onto the CUDA surface first.
    assert_eq!(logged(&defined, Dialect::OpenCl), want);
}

#[test]
fn a_stray_non_ascii_character_is_named_at_its_byte_column() {
    // `·` is two bytes: the diagnostic names the character, and its
    // column counts the bytes before it.
    let err = compile("int main() {\n  int x = 3 · 4;\n}\n", Dialect::Cuda).unwrap_err();
    assert_eq!(err.to_string(), "2:13: lex error: unexpected character '·'");
    // A token after a multi-byte character is placed by bytes too:
    // `é` is two bytes, so `$` sits at byte column 16, not 15.
    let err = compile("int main() {\n  wbLog(TRACE, \"é\"); $\n}\n", Dialect::Cuda).unwrap_err();
    assert_eq!(err.to_string(), "2:23: lex error: unexpected character '$'");
    let err = compile("#define T 1\nint main() { int é = T; }\n", Dialect::Cuda).unwrap_err();
    assert_eq!(err.to_string(), "2:18: lex error: unexpected character 'é'");
}
