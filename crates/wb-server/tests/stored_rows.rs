//! Live-bytes gates for the stored attempt rows that hold on any box:
//! heap bytes are counted, not timed, so a one-core machine enforces
//! them as well as a CI host. The attempts table must keep each
//! distinct source once: 10 000 attempts over 8 lab solutions retain at
//! most a [`MIN_SAVING`]th of the bytes the same rows hold with a
//! private copy of their source each, and 1 000 distinct sources cost
//! at most [`MAX_SET_BYTES_PER_TEXT`] per row beyond one copy each. Run
//! with `--nocapture` to see the bytes per row of both forms.

mod live_bytes;

use live_bytes::live;
use wb_db::Table;
use wb_server::state::{AttemptRec, ServerState};

/// How many times fewer bytes per row the shared sources must retain
/// than private copies (×6.6 when measured; ×1 when every attempt
/// kept its own `String`).
const MIN_SAVING: i64 = 4;

/// What a distinct text may cost per row beyond its one copy: its set
/// entry and `Arc` header, less what the kept form's exactly sized
/// strings save (7 bytes when measured).
const MAX_SET_BYTES_PER_TEXT: i64 = 128;

/// An attempt row as the server writes one after a compile.
fn attempt(i: usize, source: &str) -> AttemptRec {
    AttemptRec {
        user: format!("student{}", i % 64),
        lab: format!("lab{}", i % 15),
        dataset: None,
        at_ms: i as u64 * 1000,
        compiled: true,
        passed: false,
        summary: "Compilation successful.".to_string(),
        source: source.to_string(),
        share_token: None,
    }
}

/// Bytes per row that `rows` retain in the server's attempts table, and
/// in a table of the same rows that keeps each as given, with its own
/// copy of its source.
fn bytes_per_row(rows: &[AttemptRec]) -> (i64, i64) {
    let (kept, state) = live(|| {
        let state = ServerState::new();
        for row in rows {
            state.attempts.insert(row).unwrap();
        }
        state
    });
    let (private, table) = live(|| {
        let table: Table<AttemptRec> = Table::new();
        table.create_index("by_user_lab", |a: &AttemptRec| {
            format!("{}/{}", a.user, a.lab)
        });
        for row in rows {
            table.insert(row).unwrap();
        }
        table
    });
    assert_eq!(state.attempts.scan(), table.scan());
    let n = rows.len() as i64;
    (kept / n, private / n)
}

#[test]
fn attempts_over_a_few_sources_keep_each_source_once() {
    let sources: Vec<&str> = wb_labs::lab_ids()
        .iter()
        .take(8)
        .map(|id| wb_labs::solution(id).expect("solution"))
        .collect();
    let mean = sources.iter().map(|s| s.len()).sum::<usize>() / sources.len();
    let rows: Vec<AttemptRec> = (0..10_000)
        .map(|i| attempt(i, sources[i % sources.len()]))
        .collect();
    let (kept, private) = bytes_per_row(&rows);
    println!(
        "10 000 attempts over 8 sources of {mean} bytes on average: \
         {kept} bytes per row shared, {private} with a private copy each (x{:.1})",
        private as f64 / kept as f64
    );
    assert!(
        kept * MIN_SAVING <= private,
        "{kept} bytes per row shared against {private} private: under x{MIN_SAVING}"
    );
}

#[test]
fn distinct_sources_are_kept_once_each() {
    let rows: Vec<AttemptRec> = (0..1_000)
        .map(|i| {
            let lab = wb_labs::lab_ids()[i % 15];
            let source = format!(
                "// attempt {i}\n{}",
                wb_labs::solution(lab).expect("solution")
            );
            attempt(i, &source)
        })
        .collect();
    let (kept, private) = bytes_per_row(&rows);
    println!(
        "1 000 attempts over 1 000 sources: {kept} bytes per row shared, \
         {private} with a private copy each"
    );
    assert!(
        kept <= private + MAX_SET_BYTES_PER_TEXT,
        "{kept} bytes per row shared against {private} private: \
         more than one copy of each source"
    );
}
