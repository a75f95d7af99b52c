//! Pins what grading every catalog lab's reference solution produces,
//! at `Small` and at `Full`, through `wb_worker::execute`: a digest of
//! each `JobOutcome`'s `Debug` text (check reports, diagnostics, cost
//! counters, cycles, log and timing text). A change to how datasets are
//! built, held or handed to the worker must leave every digest as it
//! is; the failure prints the digests it got.

use minicuda::DeviceConfig;
use wb_labs::{definition, lab_ids, solution, LabScale};
use wb_worker::{execute, JobAction, JobRequest, RunCtx};

/// `(lab, Small digest, Full digest)`, in catalog order.
const PINNED: [(&str, u64, u64); 15] = [
    ("device-query", 0x1b23107dd4058e3e, 0x1b23107dd4058e3e),
    ("vecadd", 0x0a90cebc6c1f1308, 0x02794dbbdcd83948),
    ("matmul", 0x9e9530be3a5e9b28, 0x4ab428acf5cb387f),
    ("tiled-matmul", 0x9d2616eecdb68db6, 0xe26d7b55b8a0d4c4),
    ("conv2d", 0x00f613ca267c903c, 0xe8f2dc774ed0c649),
    ("scan", 0x1a785072807a6a27, 0x3fcc883232db6ece),
    ("equalization", 0xde7e5e7828ae2f0b, 0x41b82a77d53926ed),
    ("opencl-vecadd", 0x445620dd2e1220bc, 0xe892eef382188bb8),
    ("scatter-gather", 0x6825345c23f6985d, 0xe759812e2358072e),
    ("stencil", 0x69c06c5b6c8cfec5, 0x02f3d8f53b4f5f4e),
    ("sgemm", 0x282e7765144e4f3d, 0x9da808a936a6553a),
    ("spmv", 0x538a1398b3f67f6a, 0x1fd1a5a01861aee0),
    ("binning", 0xd2a7c0aa2d1d0eb8, 0x36ff25c64984dca7),
    ("bfs", 0x78fdad4154c373a5, 0x10f6dd23a318c6fb),
    ("mpi-stencil", 0x7f19601a3020b282, 0xdfb3c3670bf7b867),
];

/// FNV-1a of `text`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a full grade of `id`'s reference solution at `scale`.
fn graded(id: &str, scale: LabScale) -> u64 {
    let lab = definition(id, scale).expect("lab");
    let req = JobRequest {
        job_id: 1,
        user: "reference".into(),
        source: solution(id).expect("solution").to_string(),
        spec: lab.spec,
        datasets: lab.datasets,
        action: JobAction::FullGrade,
    };
    let out = execute(&req, &RunCtx::new(&DeviceConfig::test_small()));
    assert!(out.compiled(), "{id}: {:?}", out.compile_error);
    assert_eq!(out.passed_count(), out.datasets.len(), "{id} at {scale:?}");
    fnv(&format!("{out:?}"))
}

#[test]
fn every_reference_grade_is_pinned_at_both_scales() {
    let got: Vec<(&str, u64, u64)> = lab_ids()
        .iter()
        .map(|&id| (id, graded(id, LabScale::Small), graded(id, LabScale::Full)))
        .collect();
    if got != PINNED {
        let rows: String = got
            .iter()
            .map(|(id, s, f)| format!("    ({id:?}, {s:#018x}, {f:#018x}),\n"))
            .collect();
        panic!("reference grades moved; they now read:\n{rows}");
    }
}
