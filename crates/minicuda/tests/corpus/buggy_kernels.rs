// Student-bug archetypes with runtime diagnostics, as `(lab id,
// source)` pairs: each compiles and fails on the lab's datasets. The
// executors must fail identically — same message, same position, same
// thread. Read with `include!` by `minicuda`'s tree-walk-oracle unit
// tests and by `wb-labs`' grading differential suite.

const BUGGY_KERNELS: &[(&str, &str)] = &[
    // Missing boundary check → out-of-bounds global access.
    (
        "vecadd",
        r#"
            __global__ void vecAdd(float* a, float* b, float* out, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                out[i] = a[i] + b[i];
            }
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                float* b = wbImportVector(1, &n);
                float* out = (float*) malloc(n * sizeof(float));
                float* dA; float* dB; float* dC;
                cudaMalloc(&dA, n * sizeof(float));
                cudaMalloc(&dB, n * sizeof(float));
                cudaMalloc(&dC, n * sizeof(float));
                cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
                cudaMemcpy(dB, b, n * sizeof(float), cudaMemcpyHostToDevice);
                vecAdd<<<(n + 63) / 64, 64>>>(dA, dB, dC, n);
                cudaMemcpy(out, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolution(out, n);
                return 0;
            }
            "#,
    ),
    // Integer division by zero inside a divergent branch.
    (
        "vecadd",
        r#"
            __global__ void divZero(float* a, float* b, float* out, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { out[i] = a[i] + (i / (i - 1)); }
            }
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                float* b = wbImportVector(1, &n);
                float* out = (float*) malloc(n * sizeof(float));
                float* dA; float* dB; float* dC;
                cudaMalloc(&dA, n * sizeof(float));
                cudaMalloc(&dB, n * sizeof(float));
                cudaMalloc(&dC, n * sizeof(float));
                cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
                cudaMemcpy(dB, b, n * sizeof(float), cudaMemcpyHostToDevice);
                divZero<<<(n + 63) / 64, 64>>>(dA, dB, dC, n);
                cudaMemcpy(out, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolution(out, n);
                return 0;
            }
            "#,
    ),
    // Dereferencing the host pointer on the device.
    (
        "vecadd",
        r#"
            __global__ void hostDeref(float* a, float* b, float* out, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { out[i] = a[i] + b[i]; }
            }
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                float* b = wbImportVector(1, &n);
                float* out = (float*) malloc(n * sizeof(float));
                float* dC;
                cudaMalloc(&dC, n * sizeof(float));
                hostDeref<<<(n + 63) / 64, 64>>>(a, b, dC, n);
                cudaMemcpy(out, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolution(out, n);
                return 0;
            }
            "#,
    ),
    // Barrier inside a divergent branch.
    (
        "vecadd",
        r#"
            __global__ void divBarrier(float* a, float* b, float* out, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (threadIdx.x < 7) { __syncthreads(); }
                if (i < n) { out[i] = a[i] + b[i]; }
            }
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                float* b = wbImportVector(1, &n);
                float* out = (float*) malloc(n * sizeof(float));
                float* dA; float* dB; float* dC;
                cudaMalloc(&dA, n * sizeof(float));
                cudaMalloc(&dB, n * sizeof(float));
                cudaMalloc(&dC, n * sizeof(float));
                cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
                cudaMemcpy(dB, b, n * sizeof(float), cudaMemcpyHostToDevice);
                divBarrier<<<(n + 63) / 64, 64>>>(dA, dB, dC, n);
                cudaMemcpy(out, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
                wbSolution(out, n);
                return 0;
            }
            "#,
    ),
];
