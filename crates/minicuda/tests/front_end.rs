//! Pins what the front end produces, so a rewrite of the preprocessor,
//! the lexer, the parser or sema cannot change it unnoticed: the exact
//! diagnostic of every error path (`corpus/broken_sources.rs`), the
//! exact preprocessed text at its edges, and a digest of the lowered
//! IR, before and after the passes, of every lab solution and every
//! kernel corpus.

use minicuda::ir::IrProgram;
use minicuda::{compile, Dialect};
use std::cell::RefCell;

include!("corpus/broken_sources.rs");
include!("corpus/buggy_kernels.rs");
include!("corpus/representation_edges.rs");
include!("corpus/straight_line.rs");

#[test]
fn every_broken_source_reports_its_pinned_diagnostic() {
    for (name, src, want) in BROKEN_SOURCES {
        let got = match compile(src, Dialect::Cuda) {
            Ok(_) => "compiled".to_string(),
            Err(d) => d.to_string(),
        };
        assert_eq!(got, *want, "{name}");
    }
    for (name, src, want) in LEX_ONLY {
        let got = match minicuda::lexer::lex(src) {
            Ok(_) => "lexed".to_string(),
            Err(d) => d.to_string(),
        };
        assert_eq!(got, *want, "lexer alone: {name}");
    }
}

#[test]
fn preprocessed_text_is_pinned() {
    for (name, src, want) in PREPROCESSED {
        let got = minicuda::preprocessor::preprocess(src).unwrap_or_else(|d| panic!("{name}: {d}"));
        assert_eq!(got, *want, "{name}");
    }
    compile(CHAIN_15, Dialect::Cuda).expect("a 15-deep chain compiles");
}

/// FNV-1a over `text`, folded into `h`.
fn fnv(mut h: u64, text: &str) -> u64 {
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Each function's `Debug` text, in name order (the map's own order is
/// not stable).
fn ir_text(ir: &IrProgram) -> String {
    let mut names: Vec<&String> = ir.funcs.keys().collect();
    names.sort();
    names
        .into_iter()
        .map(|n| format!("{n}: {:?}\n", ir.funcs[n]))
        .collect()
}

/// Folds one source's IR, as lowered and after the passes, into the
/// running `[lowered, optimized]` digests.
fn fold_ir(digests: &mut [u64; 2], src: &str, dialect: Dialect) {
    let program = compile(src, dialect).unwrap_or_else(|d| panic!("{d}"));
    let mut ir = minicuda::lower::lower_program(&program);
    digests[0] = fnv(digests[0], &ir_text(&ir));
    minicuda::passes::optimize_program(&mut ir);
    digests[1] = fnv(digests[1], &ir_text(&ir));
}

#[test]
fn lowered_and_optimized_ir_digests_are_pinned() {
    let mut labs = [FNV_OFFSET; 2];
    let mut count = 0;
    for id in wb_labs::lab_ids() {
        let spec = wb_labs::definition(id, wb_labs::LabScale::Small)
            .expect("lab")
            .spec;
        fold_ir(
            &mut labs,
            wb_labs::solution(id).expect("solution"),
            spec.dialect,
        );
        count += 1;
    }
    assert_eq!(count, 15);

    let mut buggy = [FNV_OFFSET; 2];
    for (_, src) in BUGGY_KERNELS {
        fold_ir(&mut buggy, src, Dialect::Cuda);
    }

    let mut edges = [FNV_OFFSET; 2];
    for case in [
        INT_FLOAT_LANES_MIX,
        TERNARY_BETWEEN_TWO_ARRAYS,
        PARTIAL_MASK_DEMOTES_UNIFORM,
        DIV_ZERO_IN_ONE_LANE,
        SHARED_2D_OOB_IN_ONE_LANE,
        BOOL_INT_ROUND_TRIP,
        DEVICE_FN_DIVERGENT_RETURNS,
        KERNEL_SCOPES,
        KERNEL_CONSTANT_SHADOW,
        KERNEL_DEVICE_HELPER,
    ] {
        fold_ir(
            &mut edges,
            &representation_edge_program(case),
            Dialect::Cuda,
        );
    }

    // `check` draws case `i` from seed `i`, in order, so the fold is
    // deterministic.
    let straight = RefCell::new([FNV_OFFSET; 2]);
    wb_prop::check(STRAIGHT_LINE_CASES, |g| {
        let (src, _) = straight_line_case(g);
        fold_ir(&mut straight.borrow_mut(), &src, Dialect::Cuda);
    });

    let got = [labs, buggy, edges, straight.into_inner()];
    let got: Vec<String> = got
        .iter()
        .map(|[l, o]| format!("{l:016x}/{o:016x}"))
        .collect();
    assert_eq!(
        got,
        [
            "0698bdf26d561fdc/c07bb66f22a6d441",
            "da9b454ce2b747b2/225835499d62c2d1",
            "b8ba964fac7828a9/9eb63c20d6b1c45e",
            "51c48b99801f932a/66eb55ae94007d51",
        ],
        "labs, buggy, edges, straight-line"
    );
}
