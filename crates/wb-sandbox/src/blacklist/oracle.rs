//! The per-pattern blacklist scan that [`Blacklist::scan`]'s one-pass
//! walk replaced: one walk over the text for every pattern, each match
//! confirmed on identifier boundaries. Kept only as the reference the
//! one-pass scan is tested against; the unit tests include it as a
//! module of `blacklist`, the property suite by path.

use super::{Blacklist, ScanMode, Violation};

/// What [`Blacklist::scan`] must return for `source`.
pub(crate) fn scan(bl: &Blacklist, source: &str) -> Vec<Violation> {
    let text = match bl.mode() {
        ScanMode::RawText => source.to_string(),
        ScanMode::Preprocessed => {
            minicuda::preprocessor::strip_comments(source).unwrap_or_else(|_| source.to_string())
        }
    };
    let mut out = Vec::new();
    for pat in bl.patterns() {
        if let Some(line) = find_identifier(&text, pat) {
            out.push(Violation {
                pattern: pat.clone(),
                line,
                message: format!("use of `{pat}` is not allowed in this lab (line {line})"),
            });
        }
    }
    out
}

/// Find `word` as a whole identifier outside string literals; returns
/// the 1-based line of the first occurrence.
fn find_identifier(text: &str, word: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let wlen = word.len();
    if wlen == 0 {
        return None;
    }
    let mut line = 1usize;
    let mut i = 0usize;
    let mut in_str = false;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            line += 1;
            in_str = false; // unterminated string: stop skipping
            i += 1;
            continue;
        }
        if in_str {
            if c == b'\\' {
                // A backslash-newline splices the line but is still a
                // line.
                if bytes.get(i + 1) == Some(&b'\n') {
                    line += 1;
                }
                i += 2;
                continue;
            }
            if c == b'"' {
                in_str = false;
            }
            i += 1;
            continue;
        }
        if c == b'"' {
            in_str = true;
            i += 1;
            continue;
        }
        // `'"'` and `'\"'` are char literals, not string openers.
        if bytes[i..].starts_with(b"'\"'") {
            i += 3;
            continue;
        }
        if bytes[i..].starts_with(b"'\\\"'") {
            i += 4;
            continue;
        }
        // Byte-level match: `i` may fall inside a multi-byte UTF-8
        // character in student source, where a str slice would panic.
        if bytes[i..].starts_with(word.as_bytes()) {
            let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
            let after_ok = i + wlen >= bytes.len() || !is_ident_byte(bytes[i + wlen]);
            if before_ok && after_ok {
                return Some(line);
            }
        }
        i += 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}
