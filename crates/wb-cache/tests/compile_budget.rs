//! The compile tier's byte budget holds for real programs: an entry is
//! charged what its program keeps alive ([`Program::heap_bytes`] plus
//! its inline size), so the resident programs' summed footprint never
//! exceeds the budget, however many lab solutions pass through it.

use minicuda::{compile_with, OptLevel, Program};
use std::sync::Arc;
use wb_cache::{hash_bytes, CacheConfig, CompileKey, CompiledEntry, SubmissionCache};

fn cache(config: CacheConfig) -> SubmissionCache<Vec<u8>> {
    SubmissionCache::new(config, Vec::len)
}

fn entry(program: &Arc<Program>, source_bytes: usize) -> CompiledEntry {
    CompiledEntry {
        result: Ok(Arc::clone(program)),
        source_bytes,
        analysis: Vec::new(),
    }
}

/// What a program keeps alive.
fn footprint(program: &Program) -> usize {
    std::mem::size_of::<Program>() + program.heap_bytes()
}

/// The weight the tier charges `entry`: the resident bytes it adds to
/// an empty, roomy tier.
fn weight(entry: CompiledEntry) -> usize {
    let c = cache(CacheConfig::tiny(1 << 20));
    c.compile_or(CompileKey(hash_bytes(b"probe")), || entry);
    c.metrics().compile.resident_bytes as usize
}

fn lab_programs() -> Vec<(usize, Arc<Program>)> {
    wb_labs::lab_ids()
        .iter()
        .map(|id| {
            let spec = wb_labs::definition(id, wb_labs::LabScale::Small)
                .expect("lab")
                .spec;
            let src = wb_labs::solution(id).expect("solution");
            let program = compile_with(src, spec.dialect, OptLevel::O2).expect("compiles");
            (src.len(), Arc::new(program))
        })
        .collect()
}

#[test]
fn resident_programs_never_hold_more_than_the_budget() {
    let labs = lab_programs();
    for (source_bytes, program) in &labs {
        let charged = weight(entry(program, *source_bytes));
        assert_eq!(
            charged,
            footprint(program),
            "a lab program outweighs its source"
        );
        assert!(
            charged > 2 * source_bytes,
            "{charged} for {source_bytes} source bytes"
        );
    }
    // Room for about a third of the catalog at once, in two shards.
    let budget = labs.iter().map(|(_, p)| footprint(p)).sum::<usize>() / 3;
    let tier = cache(CacheConfig {
        compile_budget_bytes: budget,
        grade_budget_bytes: 1,
        shards: 2,
    });
    for round in 0..4u64 {
        for (k, (source_bytes, program)) in labs.iter().enumerate() {
            let key = CompileKey(hash_bytes(
                &[round, k as u64].map(u64::to_le_bytes).concat(),
            ));
            tier.compile_or(key, || entry(program, *source_bytes));
            let m = tier.metrics().compile;
            assert!(
                m.resident_bytes as usize <= budget,
                "{} resident bytes over a {budget}-byte budget",
                m.resident_bytes
            );
        }
    }
    let m = tier.metrics().compile;
    assert!(m.evictions > 0, "the budget binds");
    assert!(m.entries > 0, "and still keeps programs");
}

/// The ledger's cache replay builds 4 096 entries around one shared
/// trivial program, each stating the workload's mean source length, in
/// a 4 MiB tier of eight shards, and expects the newest 256 to stay
/// resident. Each entry weighs the shared program's footprint, under
/// 1 KiB, whatever source length it states.
#[test]
fn a_shared_trivial_program_keeps_the_ledger_replays_newest_entries() {
    let program = Arc::new(
        minicuda::compile("int main() { return 0; }", minicuda::Dialect::Cuda).expect("compiles"),
    );
    assert!(footprint(&program) < 1024, "{}", footprint(&program));
    let mean = wb_labs::lab_ids()
        .iter()
        .map(|id| wb_labs::solution(id).expect("solution").len())
        .sum::<usize>()
        / wb_labs::lab_ids().len();
    for source_bytes in [64, mean, 4096] {
        assert_eq!(weight(entry(&program, source_bytes)), footprint(&program));
    }

    let tier = cache(CacheConfig {
        compile_budget_bytes: 4 * 1024 * 1024,
        ..CacheConfig::default()
    });
    let keys: Vec<CompileKey> = (0..4096u64)
        .map(|i| CompileKey(hash_bytes(&i.to_le_bytes())))
        .collect();
    for key in &keys {
        tier.compile_or(*key, || entry(&program, mean));
    }
    for key in &keys[keys.len() - 256..] {
        tier.compile_or(*key, || unreachable!("resident key recomputed"));
    }
}
