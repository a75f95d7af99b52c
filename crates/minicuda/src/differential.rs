//! The tree-walk oracle against the warp-batched executor.
//!
//! `simt`, the AST tree-walk, exists only in test builds, as the oracle
//! the one shipped kernel executor (`batch`) is checked against. A
//! program built by the front end alone carries no IR, and
//! `device::launch` runs its kernels on `simt`; in the product build
//! such a launch is a runtime diagnostic instead.
//!
//! Each case runs on the oracle and on the batched executor at `O0`
//! (the IR as lowered) and at `O2` (after the passes). Everything a
//! grader can see must match: solution, diagnostic (message, position,
//! block and lane), log, exit code, hostcalls, and every cost counter
//! except `warp_instructions` and `device_cycles`, which the batched
//! executor charges per executed IR instruction and the tree-walk per
//! AST node. The corpora are shared with the integration suites, which
//! compare `O0` with `O2` on the product build.

use crate::cost::CostSummary;
use crate::{
    compile_with, dialect, lexer, parser, preprocessor, sema, DeviceConfig, Dialect, OptLevel,
    Program, RunOptions, RunOutcome,
};
use libwb::Dataset;
use wb_labs::LabScale;

include!("../tests/corpus/buggy_kernels.rs");
include!("../tests/corpus/representation_edges.rs");
include!("../tests/corpus/straight_line.rs");

/// One source, compiled for the oracle and for the batched executor at
/// both levels.
struct Executors {
    oracle: Program,
    batched: [(OptLevel, Program); 2],
}

impl Executors {
    fn compile(src: &str, dialect: Dialect) -> Self {
        let front_end = || -> Result<Program, crate::Diag> {
            let pre = preprocessor::preprocess(src)?;
            let canonical = dialect::canonicalize(&pre, dialect);
            let tokens = lexer::lex(&canonical)?;
            sema::analyze(parser::parse(tokens)?, dialect)
        };
        let oracle = front_end().unwrap_or_else(|d| panic!("{d}"));
        assert!(oracle.ir().is_none(), "the oracle program carries no IR");
        let at = |opt| compile_with(src, dialect, opt).unwrap_or_else(|d| panic!("{d}"));
        Executors {
            oracle,
            batched: [OptLevel::O0, OptLevel::O2].map(|opt| (opt, at(opt))),
        }
    }

    /// Run `inputs` on all three, assert they agree, and return the
    /// oracle's outcome.
    fn run(&self, ctx: &str, inputs: &[Dataset], opts: &RunOptions) -> RunOutcome {
        let oracle = crate::run(&self.oracle, inputs, opts);
        for (opt, program) in &self.batched {
            let out = crate::run(program, inputs, opts);
            let ctx = format!("{ctx} @{opt}");
            assert_eq!(out.error, oracle.error, "{ctx}: diagnostic");
            assert_eq!(out.solution, oracle.solution, "{ctx}: solution");
            assert_eq!(out.log, oracle.log, "{ctx}: log");
            assert_eq!(out.exit_code, oracle.exit_code, "{ctx}: exit code");
            assert_eq!(out.hostcalls, oracle.hostcalls, "{ctx}: hostcalls");
            assert_eq!(
                counters(&out.cost),
                counters(&oracle.cost),
                "{ctx}: counters"
            );
        }
        oracle
    }
}

/// `cost` without the two counters the executors charge differently.
fn counters(cost: &CostSummary) -> CostSummary {
    CostSummary {
        warp_instructions: 0,
        device_cycles: 0,
        ..*cost
    }
}

/// Every lab's reference solution, on every dataset at `scale`, under
/// the lab's own limits.
fn lab_references_match_the_oracle(scale: LabScale) {
    for id in wb_labs::lab_ids() {
        let lab = wb_labs::definition(id, scale).expect("lab");
        let dialect = Dialect::parse(lab.spec.dialect.name()).expect("dialect");
        let limits = &lab.spec.limits;
        let opts = RunOptions {
            device: DeviceConfig::test_small(),
            max_warp_instructions: limits.max_warp_instructions,
            max_host_steps: limits.max_host_steps,
            max_log_bytes: limits.max_log_bytes,
            world_size: limits.world_size,
        };
        let executors = Executors::compile(wb_labs::solution(id).expect("solution"), dialect);
        for case in &lab.datasets {
            let out = executors.run(&format!("{id} {}", case.name), &case.inputs, &opts);
            assert!(out.ok(), "{id} {}: {:?}", case.name, out.error);
            assert!(out.solution.is_some(), "{id} {}: no solution", case.name);
        }
    }
}

#[test]
fn every_lab_reference_matches_the_oracle_at_small_scale() {
    lab_references_match_the_oracle(LabScale::Small);
}

/// The scale the ledger's `kernel_full` workload grades at: blocks 256
/// threads wide, grids with interior *and* edge blocks, and partial
/// last warps.
#[test]
fn every_lab_reference_matches_the_oracle_at_full_scale() {
    lab_references_match_the_oracle(LabScale::Full);
}

#[test]
fn buggy_kernels_fail_like_the_oracle() {
    for (i, (id, src)) in BUGGY_KERNELS.iter().enumerate() {
        let lab = wb_labs::definition(id, LabScale::Small).expect("lab");
        let executors = Executors::compile(src, Dialect::Cuda);
        let opts = RunOptions {
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        let failed = lab
            .datasets
            .iter()
            .map(|case| {
                executors.run(
                    &format!("buggy case {i} {}", case.name),
                    &case.inputs,
                    &opts,
                )
            })
            .filter(|out| out.error.is_some())
            .count();
        assert!(failed > 0, "buggy case {i} produces a runtime diagnostic");
    }
}

#[test]
fn representation_edges_match_the_oracle() {
    let opts = RunOptions {
        device: DeviceConfig::test_small(),
        ..Default::default()
    };
    for (name, case) in [
        ("INT_FLOAT_LANES_MIX", INT_FLOAT_LANES_MIX),
        ("TERNARY_BETWEEN_TWO_ARRAYS", TERNARY_BETWEEN_TWO_ARRAYS),
        ("PARTIAL_MASK_DEMOTES_UNIFORM", PARTIAL_MASK_DEMOTES_UNIFORM),
        ("DIV_ZERO_IN_ONE_LANE", DIV_ZERO_IN_ONE_LANE),
        ("SHARED_2D_OOB_IN_ONE_LANE", SHARED_2D_OOB_IN_ONE_LANE),
        ("BOOL_INT_ROUND_TRIP", BOOL_INT_ROUND_TRIP),
        ("DEVICE_FN_DIVERGENT_RETURNS", DEVICE_FN_DIVERGENT_RETURNS),
        ("KERNEL_SCOPES", KERNEL_SCOPES),
        ("KERNEL_CONSTANT_SHADOW", KERNEL_CONSTANT_SHADOW),
        ("KERNEL_DEVICE_HELPER", KERNEL_DEVICE_HELPER),
        ("DEAD_FMIN_OF_INTS_TRAPS", DEAD_FMIN_OF_INTS_TRAPS),
        (
            "FMAX_TRAP_IN_A_ZERO_TRIP_LOOP",
            FMAX_TRAP_IN_A_ZERO_TRIP_LOOP,
        ),
    ] {
        let src = representation_edge_program(case);
        Executors::compile(&src, Dialect::Cuda).run(name, &[], &opts);
    }
}

#[test]
fn straight_line_kernels_match_the_oracle() {
    wb_prop::check(STRAIGHT_LINE_CASES, |g| {
        let (src, input) = straight_line_case(g);
        let executors = Executors::compile(&src, Dialect::Cuda);
        executors.run(
            "straight-line",
            std::slice::from_ref(&input),
            &RunOptions::default(),
        );
    });
}
