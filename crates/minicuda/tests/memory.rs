//! Memory semantics pinned at the program boundary: what a student's
//! program sees from atomics on punned words, overlapping copies and
//! bulk transfers, and the exact text and position of each memory
//! diagnostic.

use libwb::Dataset;
use minicuda::{compile, DeviceConfig, Diag, Dialect, RunOptions, RunOutcome};

fn run_with(src: &str, world_size: usize) -> RunOutcome {
    let program = compile(src, Dialect::Cuda).unwrap_or_else(|d| panic!("compile: {d}"));
    let opts = RunOptions {
        device: DeviceConfig::test_small(),
        world_size,
        ..Default::default()
    };
    minicuda::run(&program, &[] as &[Dataset], &opts)
}

fn vector(src: &str) -> Vec<f32> {
    let out = run_with(src, 1);
    assert!(out.ok(), "{:?}", out.error);
    match out.solution {
        Some(Dataset::Vector(v)) => v,
        other => panic!("expected a vector, got {other:?}"),
    }
}

fn error(src: &str, world_size: usize) -> Diag {
    run_with(src, world_size)
        .error
        .expect("program should fail")
}

/// `(line, column, message)` of a diagnostic.
fn at(d: &Diag) -> (u32, u32, &str) {
    (d.pos.line, d.pos.col, d.message.as_str())
}

#[test]
fn atomic_cas_on_a_float_word_compares_bits_in_global_and_values_in_shared() {
    // 1075838976 is 0x40200000, the bits of 2.5f.
    let v = vector(
        r#"
        __global__ void k(float* g, float* out) {
            __shared__ float s[2];
            if (threadIdx.x == 0) {
                g[0] = 2.5; g[1] = 2.5; s[0] = 2.5; s[1] = 2.5;
                out[0] = atomicCAS(g, 2, 7);
                out[1] = atomicCAS(g + 1, 1075838976, 7);
                out[2] = atomicCAS(s, 2, 7);
                out[3] = atomicCAS(s + 1, 1075838976, 7);
                out[4] = g[0]; out[5] = g[1]; out[6] = s[0]; out[7] = s[1];
            }
        }
        int main() {
            float* g; float* out;
            cudaMalloc(&g, 2 * sizeof(float));
            cudaMalloc(&out, 8 * sizeof(float));
            k<<<1, 32>>>(g, out);
            float* h = (float*) malloc(8 * sizeof(float));
            cudaMemcpy(h, out, 8 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 8);
            return 0;
        }
        "#,
    );
    let bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
    let want = [
        // Global compares the word's raw bits with the int and, on a
        // match, stores the int's bits; it returns the old bits as an int.
        1075838976.0f32,
        1075838976.0,
        // Shared compares the float, truncated to an int, and stores
        // the int coerced to float; it returns the truncated old value.
        2.0,
        2.0,
        // The words afterwards.
        2.5,
        f32::from_bits(7),
        7.0,
        2.5,
    ];
    assert_eq!(bits, want.map(f32::to_bits));
}

#[test]
fn atomic_cas_truncates_the_compare_value_in_global_memory_only() {
    // 4294967298 is 2^32 + 2: 2 once narrowed to a 32-bit int.
    let v = vector(
        r#"
        __global__ void k(int* g, float* out) {
            __shared__ int s[1];
            if (threadIdx.x == 0) {
                g[0] = 2; s[0] = 2;
                out[0] = atomicCAS(g, 4294967298, 9);
                out[1] = atomicCAS(s, 4294967298, 9);
                out[2] = g[0]; out[3] = s[0];
            }
        }
        int main() {
            int* g; float* out;
            cudaMalloc(&g, sizeof(int));
            cudaMalloc(&out, 4 * sizeof(float));
            k<<<1, 1>>>(g, out);
            float* h = (float*) malloc(4 * sizeof(float));
            cudaMemcpy(h, out, 4 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 4);
            return 0;
        }
        "#,
    );
    assert_eq!(v, vec![2.0, 2.0, 9.0, 2.0]);
}

#[test]
fn atomics_through_a_cast_pointer_read_global_words_by_the_pointer_and_shared_by_the_array() {
    let v = vector(
        r#"
        __global__ void k(float* g, float* out) {
            __shared__ float s[1];
            if (threadIdx.x == 0) {
                g[0] = 2.5; s[0] = 2.5;
                out[0] = atomicAdd((int*) g, 1);
                out[1] = atomicAdd((int*) s, 1);
                out[2] = g[0]; out[3] = s[0];
            }
        }
        int main() {
            float* g; float* out;
            cudaMalloc(&g, sizeof(float));
            cudaMalloc(&out, 4 * sizeof(float));
            k<<<1, 1>>>(g, out);
            float* h = (float*) malloc(4 * sizeof(float));
            cudaMemcpy(h, out, 4 * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(h, 4);
            return 0;
        }
        "#,
    );
    let bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
    let want = [1075838976.0f32, 2.5, f32::from_bits(0x4020_0001), 3.5];
    assert_eq!(bits, want.map(f32::to_bits));
}

#[test]
fn overlapping_copies_inside_one_allocation_run_forward_word_by_word() {
    // A forward copy onto a later part of its own source repeats the
    // first `dst - src` words; onto an earlier part it is a plain move.
    let v = vector(
        r#"
        int main() {
            float* h = (float*) malloc(24 * sizeof(float));
            for (int i = 0; i < 8; i++) { h[i] = i; }
            for (int i = 8; i < 24; i++) { h[i] = 0; }
            float* d; float* e;
            cudaMalloc(&d, 8 * sizeof(float));
            cudaMalloc(&e, 8 * sizeof(float));
            cudaMemcpy(d, h, 8 * sizeof(float), cudaMemcpyHostToDevice);
            cudaMemcpy(d + 2, d, 5 * sizeof(float), cudaMemcpyDeviceToDevice);
            cudaMemcpy(e, d, 8 * sizeof(float), cudaMemcpyDeviceToDevice);
            cudaMemcpy(e, e + 3, 4 * sizeof(float), cudaMemcpyDeviceToDevice);
            cudaMemcpy(h + 8, e, 8 * sizeof(float), cudaMemcpyDeviceToHost);
            cudaMemcpy(h + 16, h, 8 * sizeof(float), cudaMemcpyHostToHost);
            cudaMemcpy(h + 17, h + 16, 6 * sizeof(float), cudaMemcpyHostToHost);
            cudaMemcpy(h, h + 1, 7 * sizeof(float), cudaMemcpyHostToHost);
            cudaMemcpy(h + 4, h + 4, 2 * sizeof(float), cudaMemcpyHostToHost);
            wbSolution(h, 24);
            return 0;
        }
        "#,
    );
    #[rustfmt::skip]
    let want = vec![
        1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.0,
        1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 7.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0,
    ];
    assert_eq!(v, want);
}

#[test]
fn mpi_recv_past_the_buffer_names_the_first_word_outside_it() {
    let src = r#"
        int main() {
            float* buf = (float*) malloc(3 * sizeof(float));
            if (wbMPI_rank() == 0) {
                buf[0] = 1.0; buf[1] = 2.0; buf[2] = 3.0;
                wbMPI_sendFloat(1, buf, 3);
            } else {
                wbMPI_recvFloat(0, buf + 1, 3);
            }
            return 0;
        }
    "#;
    let err = error(src, 2);
    assert_eq!(
        at(&err),
        (
            8,
            17,
            "index 3 out of bounds for host allocation of 3 elements"
        )
    );
}

#[test]
fn use_after_free_is_reported_where_the_freed_word_is_touched() {
    let host = error(
        r#"
        int main() {
            float* p = (float*) malloc(8);
            free(p);
            p[1] = 1.0;
            return 0;
        }
        "#,
        1,
    );
    assert_eq!(at(&host), (5, 13, "use after free"));
    let device = error(
        r#"
        __global__ void k(float* a) { a[threadIdx.x] = 1.0; }
        int main() {
            float* d;
            cudaMalloc(&d, 64);
            cudaFree(d);
            k<<<1, 4>>>(d);
            return 0;
        }
        "#,
        1,
    );
    assert_eq!(at(&device), (2, 39, "use after free"));
    assert_eq!(device.thread, Some((0, 0)));
}

#[test]
fn double_free_is_reported_at_the_second_free() {
    let host = error(
        r#"
        int main() {
            float* p = (float*) malloc(8);
            free(p);
            free(p);
            return 0;
        }
        "#,
        1,
    );
    assert_eq!(at(&host), (5, 13, "double free"));
    let device = error(
        r#"
        int main() {
            float* d;
            cudaMalloc(&d, 4);
            cudaFree(d);
            cudaFree(d);
            return 0;
        }
        "#,
        1,
    );
    assert_eq!(at(&device), (6, 13, "double free"));
}

#[test]
fn copy_overruns_name_the_side_and_the_words_past_the_end() {
    let dst = error(
        r#"
        int main() {
            float* h = (float*) malloc(16 * sizeof(float));
            float* d;
            cudaMalloc(&d, 10 * sizeof(float));
            cudaMemcpy(d + 4, h, 9 * sizeof(float), cudaMemcpyHostToDevice);
            return 0;
        }
        "#,
        1,
    );
    assert_eq!(
        at(&dst),
        (6, 13, "copy overruns destination (3 words past end)")
    );
    let src = error(
        r#"
        int main() {
            float* h = (float*) malloc(4 * sizeof(float));
            float* g = (float*) malloc(16 * sizeof(float));
            cudaMemcpy(g, h + 1, 5 * sizeof(float), cudaMemcpyHostToHost);
            return 0;
        }
        "#,
        1,
    );
    assert_eq!(at(&src), (5, 13, "copy overruns source (2 words past end)"));
}

#[test]
fn memcpy_to_symbol_overruns_name_the_symbol_or_the_source() {
    let symbol = error(
        r#"
        __constant__ float M[4];
        int main() {
            float* h = (float*) malloc(8 * sizeof(float));
            cudaMemcpyToSymbol(M, h, 5 * sizeof(float));
            return 0;
        }
        "#,
        1,
    );
    assert_eq!(at(&symbol), (5, 13, "cudaMemcpyToSymbol overruns symbol"));
    let source = error(
        r#"
        __constant__ float M[4];
        int main() {
            float* h = (float*) malloc(2 * sizeof(float));
            cudaMemcpyToSymbol(M, h, 3 * sizeof(float));
            return 0;
        }
        "#,
        1,
    );
    assert_eq!(at(&source), (5, 13, "cudaMemcpyToSymbol overruns source"));
}
