// Kernels on the edges between the batched executor's lane
// representations (uniform, typed and generic lanes), each as
// `(kernel, n)`: `k(out, a, b)` over one block of `n` threads, run by
// `representation_edge_program`'s host code. Read with `include!` by
// `minicuda`'s tree-walk-oracle unit tests and by `tests/language.rs`,
// which pins each kernel's expected output; the `KERNEL_*` three are
// also its name-binding corpus.

// Int and float lanes mixed through arithmetic and comparison.
const INT_FLOAT_LANES_MIX: (&str, usize) = (
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

// Pointer lanes that cannot share one allocation header.
const TERNARY_BETWEEN_TWO_ARRAYS: (&str, usize) = (
    r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            float* p = (t % 2 == 0) ? a : b;
            out[t] = p[t];
            p[t] = p[t] + 1000;
            out[t] += p[t];
        }"#,
    8,
);

// A partial-mask assignment demotes a uniform variable: inactive
// lanes keep its old value, active lanes convert to its declared kind.
const PARTIAL_MASK_DEMOTES_UNIFORM: (&str, usize) = (
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

// Integer division by zero in lane 5 only.
const DIV_ZERO_IN_ONE_LANE: (&str, usize) = (
    r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            int q = 1;
            if (t > 2) { q = 100 / (t - 5); }
            out[t] = q % (t - 6);
        }"#,
    8,
);

// A 2D shared index out of bounds in lane 9 only.
const SHARED_2D_OOB_IN_ONE_LANE: (&str, usize) = (
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

// Bool and int assignments round-tripping.
const BOOL_INT_ROUND_TRIP: (&str, usize) = (
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

// A device function returning per-lane floats from divergent returns.
const DEVICE_FN_DIVERGENT_RETURNS: (&str, usize) = (
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

// The first three host cases in a kernel: a nested-block shadow read
// before and after, a `for` shadow, and a loop-body declaration that
// reads 0 on every iteration.
const KERNEL_SCOPES: (&str, usize) = (
    r#"
    __global__ void k(float* out, float* a, float* b) {
        int t = threadIdx.x;
        int i = t;
        float acc = 0;
        {
            acc = acc + i;
            int i = 10;
            acc = acc + i;
        }
        for (int i = 0; i < 3; i++) {
            int fresh;
            acc = acc + fresh * 1000 + i;
            fresh = 7;
        }
        out[t] = acc + i * 100;
    }"#,
    8,
);

// A kernel local shadows a `__constant__` symbol (never filled, so it
// reads 0 on both sides of the block).
const KERNEL_CONSTANT_SHADOW: (&str, usize) = (
    r#"
    __constant__ float mask[4];
    __global__ void k(float* out, float* a, float* b) {
        int t = threadIdx.x;
        float sum = mask[t % 4];
        {
            float mask = t * 2.0;
            sum = sum + mask;
        }
        out[t] = sum + mask[0] + a[t];
    }"#,
    8,
);

// A `__device__` helper whose parameters and locals shadow the
// kernel's names.
const KERNEL_DEVICE_HELPER: (&str, usize) = (
    r#"
    __device__ float helper(float a, int t) {
        float out = a * 2;
        int i = t + 1;
        return out + i;
    }
    __global__ void k(float* out, float* a, float* b) {
        int t = threadIdx.x;
        int i = 1000;
        float v = helper(a[t], t);
        out[t] = v + i;
    }"#,
    8,
);

// A dead `fmin` of two ints, taken modulo 2: `fmin` returns a float,
// and `%` of a float traps, so the dead line still fails every lane.
// `front_end.rs` does not fold these two into its digests.
#[allow(dead_code)]
const DEAD_FMIN_OF_INTS_TRAPS: (&str, usize) = (
    r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            float dead = fmin(t, 3) % 2;
            out[t] = t;
        }"#,
    8,
);

// The same trap in a loop that runs zero times: it never executes, so
// no lane fails.
#[allow(dead_code)]
const FMAX_TRAP_IN_A_ZERO_TRIP_LOOP: (&str, usize) = (
    r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            out[t] = t;
            for (int i = 0; i < t - 100; i++) { out[t] = fmax(t, 3) % 2; }
        }"#,
    8,
);

// `abs` of the most negative int wraps to itself: folded from a
// constant, on uniform lanes loaded from memory, and on typed lanes
// mixed with small values. Even lanes write 7, odd lanes 11.
#[allow(dead_code)]
const ABS_OF_THE_MOST_NEGATIVE_INT: (&str, usize) = (
    r#"__global__ void k(float* out, float* a, float* b) {
            int t = threadIdx.x;
            int m = -9223372036854775807 - 1;
            int h = a[0] - 100;
            int loaded = h - 9223372036854775807 - 1;
            int u = abs(m);
            int v = abs(loaded);
            int w = abs(t % 2 == 0 ? loaded : -t);
            out[t] = (u == m) + 2 * (v == m) + 4 * (w == m) + 8 * (w == t);
        }"#,
    8,
);

/// The host program that runs `kernel` over one block of `n` threads:
/// `a[i] = i + 100`, `b[i] = i + 200`, and `out` is the solution.
fn representation_edge_program((kernel, n): (&str, usize)) -> String {
    format!(
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
    )
}
