//! Allocation and live-bytes gates for the compile path that hold on
//! any box: heap allocations and bytes are counted, not timed, so a
//! one-core machine enforces them as well as a CI host.
//! `compile_analyzed` of the 15 lab solutions must average at most
//! [`MAX_ALLOCS_PER_SOURCE`] allocations per source, and the programs it
//! returns must together hold at most [`MAX_HELD_PER_SOURCE_BYTE`] heap
//! bytes per source byte, as `Program::heap_bytes` reports within 10 %.
//! Run with `--nocapture` to see the count of each phase and each lab's
//! ratio.

use minicuda::{compile_analyzed, Dialect, OptLevel, Program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocation gate: the compile path made 887 per source before its
/// tokens borrowed the source and its tables stopped hashing with
/// SipHash, and 380 before the AST moved into per-function arenas with
/// interned names (144 since).
const MAX_ALLOCS_PER_SOURCE: u64 = 200;

/// The live-bytes gate: the 15 programs held ×12.8 their source when
/// every AST node was boxed and every name a `String` (×4.7 since).
const MAX_HELD_PER_SOURCE_BYTE: i64 = 5;

/// The system allocator, counting each thread's allocations (and
/// reallocations, which may move) and its live bytes in thread-locals,
/// so the test harness's other threads do not disturb the counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation that changes this thread's live bytes by
/// `delta`.
fn bump(delta: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    grow(delta);
}

fn grow(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
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

/// The heap bytes `f`'s result holds on this thread once `f`'s own
/// scratch is freed, and the result.
fn live<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (LIVE.with(Cell::get) - before, out)
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

/// Every lab solution compiled (analyzed, at `O2`), with the heap
/// bytes its program holds once the compile's own scratch is freed, and
/// its source length.
fn lab_programs() -> Vec<(&'static str, i64, usize, Program)> {
    lab_sources()
        .into_iter()
        .map(|(id, src, dialect)| {
            let (bytes, program) = live(|| {
                let (program, _findings, _) = compile_analyzed(src, dialect, OptLevel::O2)
                    .unwrap_or_else(|d| panic!("{id}: {d}"));
                program
            });
            (id, bytes, src.len(), program)
        })
        .collect()
}

#[test]
fn compiled_programs_hold_a_few_times_their_source() {
    let labs = lab_programs();
    let (mut held, mut source) = (0, 0);
    for (id, bytes, len, _) in &labs {
        println!(
            "{id:>15}: {bytes:>6} bytes for {len:>5} source bytes, x{:.1}",
            *bytes as f64 / *len as f64
        );
        held += bytes;
        source += *len as i64;
    }
    let ratio = held as f64 / source as f64;
    println!("all labs: {held} bytes for {source} source bytes, x{ratio:.2}");
    assert!(
        held <= MAX_HELD_PER_SOURCE_BYTE * source,
        "compiled programs hold x{ratio:.2} their source (budget x{MAX_HELD_PER_SOURCE_BYTE})"
    );
}

/// The cache weighs an entry by `Program::heap_bytes`, so it must match
/// what the allocator says the program holds.
#[test]
fn heap_bytes_matches_the_counted_bytes() {
    for (id, bytes, _, program) in lab_programs() {
        let reported = program.heap_bytes() as i64;
        assert!(
            (reported - bytes).abs() * 10 <= bytes,
            "{id}: heap_bytes says {reported}, the allocator counted {bytes}"
        );
    }
}
