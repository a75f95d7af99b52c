//! `mcrun`, the offline development runner, end to end: the built
//! binary compiles a source file, runs it on a dataset directory, and
//! reports through its exit code.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const VECADD: &str = r#"
__global__ void vecAdd(float* a, float* b, float* out, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { out[i] = a[i] + b[i]; }
}

int main() {
    int n;
    float* hostA = wbImportVector(0, &n);
    float* hostB = wbImportVector(1, &n);
    float* hostC = (float*) malloc(n * sizeof(float));
    float* dA; float* dB; float* dC;
    cudaMalloc(&dA, n * sizeof(float));
    cudaMalloc(&dB, n * sizeof(float));
    cudaMalloc(&dC, n * sizeof(float));
    cudaMemcpy(dA, hostA, n * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(dB, hostB, n * sizeof(float), cudaMemcpyHostToDevice);
    vecAdd<<<(n + 255) / 256, 256>>>(dA, dB, dC, n);
    cudaDeviceSynchronize();
    cudaMemcpy(hostC, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolution(hostC, n);
    cudaFree(dA); cudaFree(dB); cudaFree(dC);
    free(hostA); free(hostB); free(hostC);
    return 0;
}
"#;

/// A fresh directory under the system temp dir, unique to this process
/// and `name`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcrun-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the dataset dir");
    dir
}

fn mcrun(source: &Path, datasets: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcrun"))
        .arg(source)
        .arg(datasets)
        .output()
        .expect("mcrun starts")
}

#[test]
fn vecadd_passes_and_a_corrupt_header_fails_cleanly() {
    let dir = fresh_dir("vecadd");
    let source = dir.join("vecadd.cu");
    std::fs::write(&source, VECADD).unwrap();
    std::fs::write(dir.join("input0.raw"), "vector 4\n1.0 2.0 3.0 4.0\n").unwrap();
    std::fs::write(dir.join("input1.raw"), "vector 4\n10.0 20.0 30.0 40.0\n").unwrap();
    std::fs::write(dir.join("expected.raw"), "vector 4\n11.0 22.0 33.0 44.0\n").unwrap();

    let ok = mcrun(&source, &dir);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "{}{}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );

    // A header whose size no body backs: an error naming the file, not
    // an allocation abort.
    std::fs::write(dir.join("input0.raw"), "vector 100000000000000\n1.0\n").unwrap();
    let bad = mcrun(&source, &dir);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "exit 1, not a signal: {:?}\n{stderr}",
        bad.status
    );
    assert!(stderr.contains("input0.raw"), "{stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
}
