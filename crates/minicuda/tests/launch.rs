//! Launch semantics pinned at the program boundary, on grids large
//! enough to spread over several cores: 64 blocks of 256 threads, each
//! running a loop for work. Every test pins the exact solution words,
//! the whole `CostSummary`, the virtual elapsed cycles and the
//! diagnostic, so whatever runs the blocks must give what running them
//! one after another in launch order gives.

use libwb::Dataset;
use minicuda::{compile, Dialect, RunOptions};

/// FNV-1a over the bits of every solution word.
fn digest(words: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The run of `main` (prepended with the shared host preamble) as one
/// line: solution digest and length, cost, elapsed cycles, diagnostic.
fn pin_with(kernel: &str, launch: &str, max_warp_instructions: i64) -> String {
    let src = format!(
        r#"
{kernel}
int main() {{
    int n = 64 * 256;
    float* h = (float*) malloc(n * sizeof(float));
    for (int i = 0; i < n; i++) {{ h[i] = (i * 7) % 23; }}
    float* in; float* out; float* sums;
    cudaMalloc(&in, n * sizeof(float));
    cudaMalloc(&out, n * sizeof(float));
    cudaMalloc(&sums, 64 * sizeof(float));
    cudaMemcpy(in, h, n * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(out, h, n * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(sums, h, 64 * sizeof(float), cudaMemcpyHostToDevice);
    {launch}
    cudaMemcpy(h, out, n * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolution(h, n);
    return 0;
}}
"#
    );
    let program = compile(&src, Dialect::Cuda).unwrap_or_else(|d| panic!("compile: {d}"));
    let opts = RunOptions {
        max_warp_instructions,
        ..Default::default()
    };
    let out = minicuda::run(&program, &[] as &[Dataset], &opts);
    let (len, sum) = match &out.solution {
        Some(Dataset::Vector(v)) => (v.len(), digest(v.iter().map(|x| x.to_bits()))),
        None => (0, 0),
        Some(other) => panic!("expected a vector, got {other:?}"),
    };
    format!(
        "{sum:016x}/{len} {:?} {} {:?}",
        out.cost, out.elapsed_cycles, out.error
    )
}

fn pin(kernel: &str, launch: &str) -> String {
    pin_with(kernel, launch, RunOptions::default().max_warp_instructions)
}

/// A per-thread loop that gives every block a few thousand
/// warp-instructions of register work.
const WORK: &str = r#"
__device__ float work(int i) {
    float acc = 0.0;
    for (int j = 0; j < 24; j++) { acc = acc * 0.5 + ((i + j) % 5); }
    return acc;
}
"#;

#[test]
fn every_block_writing_one_word_leaves_the_last_blocks_value() {
    let kernel = format!(
        "{WORK}
__global__ void k(float* in, float* out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float w = work(i) + in[i];
    out[0] = blockIdx.x;
    if (i > 0) {{ out[i] = w; }}
}}"
    );
    assert_eq!(
        pin(&kernel, "k<<<64, 256>>>(in, out);"),
        "a8c15889d84a8127/16384 CostSummary { warp_instructions: 121344, global_transactions: 1536, global_accesses: 49151, shared_accesses: 0, shared_conflicts: 0, atomics: 0, barriers: 0, divergent_branches: 1, kernel_launches: 1, words_h2d: 32832, words_d2h: 16384, host_steps: 49169, device_cycles: 639232 } 622810 None"
    );
}

#[test]
fn a_block_reading_an_earlier_blocks_store_sees_it() {
    let kernel = format!(
        "{WORK}
__global__ void k(float* in, float* out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float w = work(i) + in[i];
    if (threadIdx.x == 0) {{
        if (blockIdx.x == 0) {{ out[0] = w; }} else {{ out[blockIdx.x] = out[blockIdx.x - 1] + 1; }}
    }}
}}"
    );
    assert_eq!(
        pin(&kernel, "k<<<64, 256>>>(in, out);"),
        "9380fd98db40c813/16384 CostSummary { warp_instructions: 119741, global_transactions: 639, global_accesses: 16511, shared_accesses: 0, shared_conflicts: 0, atomics: 0, barriers: 0, divergent_branches: 64, kernel_launches: 1, words_h2d: 32832, words_d2h: 16384, host_steps: 49169, device_cycles: 546708 } 611258 None"
    );
}

#[test]
fn an_in_place_update_reads_the_words_it_writes() {
    let kernel = format!(
        "{WORK}
__global__ void k(float* in, float* out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] += work(i) + 1;
}}"
    );
    assert_eq!(
        pin(&kernel, "k<<<64, 256>>>(in, out);"),
        "b093d15b8aad72e1/16384 CostSummary { warp_instructions: 119296, global_transactions: 1024, global_accesses: 32768, shared_accesses: 0, shared_conflicts: 0, atomics: 0, barriers: 0, divergent_branches: 0, kernel_launches: 1, words_h2d: 32832, words_d2h: 16384, host_steps: 49169, device_cycles: 581888 } 615642 None"
    );
}

#[test]
fn an_add_offsets_shape_skips_block_zero_and_updates_in_place() {
    let kernel = format!(
        "{WORK}
__global__ void k(float* sums, float* out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (blockIdx.x > 0) {{ out[i] += sums[blockIdx.x - 1] + work(i); }}
}}"
    );
    assert_eq!(
        pin(&kernel, "k<<<64, 256>>>(sums, out);"),
        "fa26f83d0607ee61/16384 CostSummary { warp_instructions: 119512, global_transactions: 1512, global_accesses: 48384, shared_accesses: 0, shared_conflicts: 0, atomics: 0, barriers: 0, divergent_branches: 0, kernel_launches: 1, words_h2d: 32832, words_d2h: 16384, host_steps: 49169, device_cycles: 629600 } 622810 None"
    );
}

#[test]
fn an_atomic_histogram_counts_every_thread() {
    let kernel = format!(
        "{WORK}
__global__ void k(float* in, float* out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int bin = ((int) (in[i] + work(i))) % 16;
    atomicAdd(&out[bin], 1.0);
}}"
    );
    assert_eq!(
        pin(&kernel, "k<<<64, 256>>>(in, out);"),
        "49bfa48c2582f41b/16384 CostSummary { warp_instructions: 120320, global_transactions: 512, global_accesses: 16384, shared_accesses: 0, shared_conflicts: 0, atomics: 16384, barriers: 0, divergent_branches: 0, kernel_launches: 1, words_h2d: 32832, words_d2h: 16384, host_steps: 49169, device_cycles: 1190144 } 691674 None"
    );
}

#[test]
fn an_out_of_bounds_store_in_the_last_block_names_that_block_and_lane() {
    let kernel = format!(
        "{WORK}
__global__ void k(float* in, float* out, int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float w = work(i) + in[i];
    if (blockIdx.x == 63 && threadIdx.x >= 200) {{ out[n + threadIdx.x - 200] = w; }}
    else {{ out[i] = w; }}
}}"
    );
    assert_eq!(
        pin(&kernel, "k<<<64, 256>>>(in, out, n);"),
        "0000000000000000/0 CostSummary { warp_instructions: 0, global_transactions: 0, global_accesses: 0, shared_accesses: 0, shared_conflicts: 0, atomics: 0, barriers: 0, divergent_branches: 0, kernel_launches: 0, words_h2d: 32832, words_d2h: 0, host_steps: 49166, device_cycles: 0 } 524492 Some(Diag { phase: Runtime, pos: Pos { line: 12, col: 51 }, message: \"index 16384 out of bounds for device global allocation of 16384 elements\", thread: Some((63, 200)) })"
    );
}

#[test]
fn a_budget_that_block_zero_fits_runs_out_in_a_late_block() {
    let kernel = format!(
        "{WORK}
__global__ void k(float* in, float* out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    out[i] = work(i) + in[i];
}}"
    );
    // The launch needs about 64 times what block 0 does; this budget
    // runs out about three quarters of the way through the grid.
    assert_eq!(
        pin_with(&kernel, "k<<<64, 256>>>(in, out);", 90_000),
        "0000000000000000/0 CostSummary { warp_instructions: 0, global_transactions: 0, global_accesses: 0, shared_accesses: 0, shared_conflicts: 0, atomics: 0, barriers: 0, divergent_branches: 0, kernel_launches: 0, words_h2d: 32832, words_d2h: 0, host_steps: 49166, device_cycles: 0 } 524492 Some(Diag { phase: Limit, pos: Pos { line: 5, col: 36 }, message: \"kernel exceeded its execution time limit\", thread: Some((48, 0)) })"
    );
}

#[test]
fn a_budget_that_block_zero_suggests_fits_runs_out_in_a_heavier_late_block() {
    let kernel = format!(
        "{WORK}
__global__ void k(float* in, float* out) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float w = work(i) + in[i];
    if (blockIdx.x > 0) {{ w = w + work(i + 1); }}
    out[i] = w;
}}"
    );
    // Every block after block 0 does about twice its work, so 63 more
    // blocks like block 0 would fit this budget and the real ones do not.
    assert_eq!(
        pin_with(&kernel, "k<<<64, 256>>>(in, out);", 150_000),
        "0000000000000000/0 CostSummary { warp_instructions: 0, global_transactions: 0, global_accesses: 0, shared_accesses: 0, shared_conflicts: 0, atomics: 0, barriers: 0, divergent_branches: 0, kernel_launches: 0, words_h2d: 32832, words_d2h: 0, host_steps: 49166, device_cycles: 0 } 524492 Some(Diag { phase: Limit, pos: Pos { line: 5, col: 29 }, message: \"kernel exceeded its execution time limit\", thread: Some((41, 0)) })"
    );
}

#[test]
fn a_host_pointer_that_only_late_blocks_dereference_is_reported_there() {
    let kernel = format!(
        "{WORK}
__global__ void k(float* in, float* out, float* host) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float w = work(i) + in[i];
    if (blockIdx.x >= 60) {{ w = w + host[threadIdx.x]; }}
    out[i] = w;
}}"
    );
    assert_eq!(
        pin(&kernel, "k<<<64, 256>>>(in, out, h);"),
        "0000000000000000/0 CostSummary { warp_instructions: 0, global_transactions: 0, global_accesses: 0, shared_accesses: 0, shared_conflicts: 0, atomics: 0, barriers: 0, divergent_branches: 0, kernel_launches: 0, words_h2d: 32832, words_d2h: 0, host_steps: 49166, device_cycles: 0 } 524492 Some(Diag { phase: Runtime, pos: Pos { line: 12, col: 41 }, message: \"kernel dereferenced a host pointer (did you forget cudaMemcpy?)\", thread: Some((60, 0)) })"
    );
}
