//! An allocation gate for the compile path that holds on any box: heap
//! allocations are counted, not timed, so a one-core machine enforces
//! it as well as a CI host. `compile_analyzed` of the 15 lab solutions
//! must average at most [`MAX_ALLOCS_PER_SOURCE`] allocations per
//! source. Run with `--nocapture` to see the count of each phase.

use minicuda::{compile_analyzed, Dialect, OptLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The gate: the compile path made 887 per source before its tokens
/// borrowed the source and its tables stopped hashing with SipHash.
const MAX_ALLOCS_PER_SOURCE: u64 = 400;

/// The system allocator, counting each thread's allocations (and
/// reallocations, which may move) in a thread-local, so the test
/// harness's other threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Every lab's reference solution with its dialect.
fn lab_sources() -> Vec<(&'static str, &'static str, Dialect)> {
    wb_labs::lab_ids()
        .iter()
        .map(|id| {
            let spec = wb_labs::definition(id, wb_labs::LabScale::Small)
                .expect("lab")
                .spec;
            (*id, wb_labs::solution(id).expect("solution"), spec.dialect)
        })
        .collect()
}

#[test]
fn compile_analyzed_stays_under_the_allocation_budget() {
    let labs = lab_sources();
    assert_eq!(labs.len(), 15);
    let mut total = 0;
    // Phase by phase, through the public calls, for the printout.
    let mut phases = [0u64; 7];
    for (id, src, dialect) in &labs {
        let (all, out) = counted(|| compile_analyzed(src, *dialect, OptLevel::O2));
        out.unwrap_or_else(|d| panic!("{id}: {d}"));
        total += all;

        let (n, pre) = counted(|| minicuda::preprocessor::preprocess(src).expect("preprocesses"));
        phases[0] += n;
        let canonical = minicuda::dialect::canonicalize(&pre, *dialect);
        let (n, tokens) = counted(|| minicuda::lexer::lex(&canonical).expect("lexes"));
        phases[1] += n;
        let (n, unit) = counted(|| minicuda::parser::parse(tokens).expect("parses"));
        phases[2] += n;
        let (n, program) = counted(|| minicuda::sema::analyze(unit, *dialect).expect("checks"));
        phases[3] += n;
        let (lowering, mut ir) = counted(|| minicuda::lower::lower_program(&program));
        phases[4] += lowering;
        let (n, ()) = counted(|| minicuda::passes::optimize_program(&mut ir));
        phases[5] += n;
        // The verifier lowers for itself: count that lowering out.
        let (n, _) = counted(|| minicuda::analyze_program(&program));
        phases[6] += n.saturating_sub(lowering);
        println!("{id:>15}: {all:>5} allocations");
    }
    let per = |n: u64| n as f64 / labs.len() as f64;
    for (name, n) in [
        "preprocess",
        "lex",
        "parse",
        "sema",
        "lower",
        "passes",
        "analyze",
    ]
    .iter()
    .zip(phases)
    {
        println!("{name:>10}: {:>7.1} per source", per(n));
    }
    println!("compile_analyzed: {:.1} per source", per(total));
    assert!(
        total <= MAX_ALLOCS_PER_SOURCE * labs.len() as u64,
        "compile_analyzed made {:.1} allocations per source (budget {MAX_ALLOCS_PER_SOURCE})",
        per(total)
    );
}
