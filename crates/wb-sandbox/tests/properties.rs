//! Property-based tests: blacklist scanning robustness and job-dir
//! confinement under arbitrary inputs.

use wb_sandbox::{Blacklist, JobDir, ScanMode, Violation};

/// The per-pattern scan the one-pass walk replaced, the reference for
/// the equivalence properties below.
#[path = "../src/blacklist/oracle.rs"]
mod oracle;

/// Source fragments for the equivalence properties: patterns and
/// near-miss identifiers, comment and string delimiters, escapes,
/// double-quote char literals, a lone apostrophe, backslash-newline
/// splices, and multi-byte UTF-8 glued to identifiers.
const PIECES: &[&str] = &[
    "asm",
    "__asm__",
    "system",
    "fork",
    "open",
    "fopen",
    "mmap",
    "goto",
    "x9",
    "asmx",
    "xasm",
    "_asm",
    "asm_",
    "9asm",
    "my_asm",
    " ",
    "  ",
    "\n",
    "\r\n",
    "(",
    ");",
    "{",
    "}",
    ",",
    "//",
    "/*",
    "*/",
    "\"",
    "\\",
    "\\\"",
    "\\\n",
    "'",
    "'\"'",
    "'\\\"'",
    "'a'",
    "don't",
    "#define ",
    "é",
    "日本",
    "\u{11366}",
    "é_asm",
    "asmé",
    "0",
    "_",
];

/// Patterns the equivalence properties draw custom blacklists from.
const PATTERN_POOL: &[&str] = &[
    "asm", "__asm__", "system", "fork", "open", "goto", "x9", "_", "9",
];

fn assert_matches_oracle(bl: &Blacklist, src: &str) {
    let got: Vec<Violation> = bl.scan(src);
    assert_eq!(
        got,
        oracle::scan(bl, src),
        "{:?} scan of {src:?}",
        bl.mode()
    );
}

/// The scanner never panics on arbitrary text, in either mode.
#[test]
fn scan_never_panics() {
    wb_prop::check(256, |g| {
        let src = g.text(0..401);
        let pre = Blacklist::standard().with_mode(ScanMode::Preprocessed);
        let _ = (Blacklist::standard().scan(&src), pre.scan(&src));
    });
}

/// Both scan properties on the one case an earlier run saved: a lone
/// supplementary-plane character, a four-byte UTF-8 sequence.
#[test]
fn scan_properties_hold_on_a_lone_astral_char() {
    let (src, raw) = ("\u{11366}", Blacklist::standard());
    let pre = Blacklist::standard().with_mode(ScanMode::Preprocessed);
    let _ = (raw.scan(src), pre.scan(src));
    assert!(pre.permits(src) || !raw.permits(src));
}

/// Whatever the surrounding text, a real bare `asm` token is
/// always caught by the raw scan.
#[test]
fn real_asm_is_always_caught() {
    const SOUP: &str = "abcdefghijklmnopqrstuvwxyz ;{}()\n";
    wb_prop::check(256, |g| {
        let (prefix, suffix) = (g.string(SOUP, 0..81), g.string(SOUP, 0..81));
        let src = format!("{prefix}\nasm(\"x\");\n{suffix}");
        assert!(!Blacklist::standard().permits(&src));
    });
}

/// Identifiers that merely *contain* a blacklisted word never trip
/// the scanner.
#[test]
fn superstring_identifiers_are_clean() {
    wb_prop::check(256, |g| {
        let word = g.string("abcdefghijklmnopqrstuvwxyz", 1..9);
        // e.g. `asmx`, `xasm`, `my_asm_var` are distinct identifiers.
        let src = format!("int {word}asm = 0; int asm{word} = 1; int a_{word}_asm_b = 2;");
        // Careful: `a_{word}_asm_b` has `asm` inside an identifier,
        // still clean because of the boundary rule.
        assert!(Blacklist::standard().permits(&src), "{src}");
    });
}

/// The preprocessed mode is never *more* suspicious than the raw
/// mode: everything it flags, the raw scan flags too.
#[test]
fn preprocessed_flags_subset_of_raw() {
    wb_prop::check(256, |g| {
        let src = g.text(0..301);
        let raw = Blacklist::standard();
        let pre = Blacklist::standard().with_mode(ScanMode::Preprocessed);
        if !pre.permits(&src) {
            assert!(!raw.permits(&src), "raw must also flag: {src:?}");
        }
    });
}

/// The one-pass scan returns exactly the per-pattern oracle's
/// violations, in both modes, on text stitched from fragments that
/// stress every state of the walk.
#[test]
fn one_pass_scan_equals_the_oracle() {
    wb_prop::check(512, |g| {
        let src: String = g.vec(0..60, |g| *g.pick(PIECES)).concat();
        let custom = g.vec(1..6, |g| g.pick(PATTERN_POOL).to_string());
        for mode in [ScanMode::RawText, ScanMode::Preprocessed] {
            assert_matches_oracle(&Blacklist::standard().with_mode(mode), &src);
            let bl = Blacklist::new(custom.clone(), mode).expect("pool patterns are identifiers");
            assert_matches_oracle(&bl, &src);
        }
    });
}

/// The same equivalence on arbitrary text, non-ASCII included.
#[test]
fn one_pass_scan_equals_the_oracle_on_arbitrary_text() {
    wb_prop::check(256, |g| {
        let src = g.text(0..301);
        for mode in [ScanMode::RawText, ScanMode::Preprocessed] {
            assert_matches_oracle(&Blacklist::standard().with_mode(mode), &src);
        }
    });
}

/// Every reference solution in the lab catalog scans identically
/// under the one-pass walk and the oracle, in both modes.
#[test]
fn one_pass_scan_equals_the_oracle_on_every_lab_solution() {
    let ids = wb_labs::lab_ids();
    assert_eq!(ids.len(), 15);
    for id in ids {
        let src = wb_labs::solution(id).expect("catalog lab has a solution");
        for mode in [ScanMode::RawText, ScanMode::Preprocessed] {
            assert_matches_oracle(&Blacklist::standard().with_mode(mode), src);
        }
    }
}

/// Job directories confine arbitrary path strings: after any write
/// attempt, reads of `/etc/passwd`-style paths still fail and the
/// quota is never exceeded.
#[test]
fn jobdir_confinement_and_quota() {
    let printable: String = (' '..='~').collect();
    wb_prop::check(256, |g| {
        let (paths, payload_len) = (g.vec(1..12, |g| g.string(&printable, 1..41)), g.int(0..256));
        let quota = 1024;
        let mut dir = JobDir::create(1, quota);
        let payload = vec![b'x'; payload_len];
        for p in &paths {
            let _ = dir.write(p, &payload);
            assert!(dir.used_bytes() <= quota, "quota respected");
            if p.contains("..") || (p.starts_with('/') && !p.starts_with(dir.prefix())) {
                assert!(dir.read(p).is_err(), "escape path readable: {p:?}");
            }
        }
        assert!(dir.read("/etc/passwd").is_err());
    });
}
