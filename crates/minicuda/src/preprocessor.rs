//! A miniature C preprocessor.
//!
//! Supports exactly what the lab corpus needs: comment stripping
//! (line-position preserving), `#include` (ignored — `wb.h` is built
//! in), and object-like `#define NAME TOKENS` macros with recursive
//! expansion. Function-like macros are rejected with a student-readable
//! message rather than silently mis-expanding.
//!
//! The sandbox's blacklist scanner (see `wb-sandbox`) runs over the raw,
//! *unpreprocessed* text — the paper notes this rejects blacklisted
//! strings even inside comments and documents the false positives — so
//! this module deliberately plays no security role.

use crate::diag::{Diag, Phase, Pos};
use crate::fx::FxHashMap;

/// Expansion rounds a line may take: a macro met after this many
/// substitutions is taken for a cycle.
const MAX_EXPANSION_DEPTH: u32 = 16;

/// Bytes macro expansion may produce from one source, so a `#define`
/// that doubles at every level fails instead of filling memory.
const MAX_EXPANDED_BYTES: usize = 16 << 20;

/// Strip comments and expand `#define`s, preserving line structure so
/// later diagnostics still point at the student's original lines.
///
/// One pass over the source: each line is stripped of comments into
/// the output, then kept, expanded or replaced by its directive's empty
/// line in place. Text is copied in byte runs, so non-ASCII characters
/// pass through untouched. As if comments were stripped from the whole
/// source first, a comment or string error anywhere is reported before
/// any directive or expansion error.
pub fn preprocess(source: &str) -> Result<String, Diag> {
    let mut out = String::with_capacity(source.len() + 1);
    let mut strip = Stripper::new(source);
    let mut macros: FxHashMap<String, String> = FxHashMap::default();
    let mut scratch = String::new();
    // The first directive or expansion error: reported once the rest of
    // the source has stripped cleanly.
    let mut pending: Option<Diag> = None;
    let mut lineno = 0u32;
    loop {
        let start = out.len();
        let ended = strip.line(&mut out)?;
        if !ended && out.len() == start {
            break;
        }
        lineno += 1;
        if ended && out.ends_with('\r') {
            out.pop();
        }
        if pending.is_some() {
            out.truncate(start);
        } else if let Err(d) = finish_line(&mut out, start, lineno, &mut macros, &mut scratch) {
            pending = Some(d);
        }
        out.push('\n');
        if !ended {
            break;
        }
    }
    match pending {
        Some(d) => Err(d),
        None => Ok(out),
    }
}

/// Replace `//` and `/* */` comments with spaces (newlines inside block
/// comments are kept so line numbers stay aligned). String literals are
/// respected: comment markers inside them are untouched.
pub fn strip_comments(source: &str) -> Result<String, Diag> {
    let mut out = String::with_capacity(source.len());
    let mut strip = Stripper::new(source);
    while strip.line(&mut out)? {
        out.push('\n');
    }
    Ok(out)
}

/// Comment stripping, one source line at a time.
struct Stripper<'s> {
    src: &'s str,
    /// The next byte to read.
    at: usize,
    /// The line `at` is on.
    line: u32,
    /// Where a block comment still open at the end of the last line
    /// started.
    open_comment: Option<u32>,
}

impl<'s> Stripper<'s> {
    fn new(src: &'s str) -> Self {
        Stripper {
            src,
            at: 0,
            line: 1,
            open_comment: None,
        }
    }

    /// Append the next line to `out`, comments replaced, without its
    /// newline; true when a newline ended it, false at the end of the
    /// source.
    fn line(&mut self, out: &mut String) -> Result<bool, Diag> {
        let bytes = self.src.as_bytes();
        let mut i = self.at;
        if let Some(start_line) = self.open_comment {
            i = self.skip_comment(i, start_line)?;
            if self.open_comment.is_some() {
                self.at = i;
                return Ok(true);
            }
        }
        let mut run = i;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => {
                    i += 1;
                    loop {
                        match bytes.get(i) {
                            None | Some(b'\n') => return Err(self.unterminated_string()),
                            Some(b'"') => break,
                            Some(b'\\') if i + 1 < bytes.len() => {
                                if bytes[i + 1] == b'\n' {
                                    return Err(self.unterminated_string());
                                }
                                i += 2;
                            }
                            Some(_) => i += 1,
                        }
                    }
                    i += 1;
                }
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    out.push_str(&self.src[run..i]);
                    i += bytes[i..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .unwrap_or(bytes.len() - i);
                    run = i;
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    out.push_str(&self.src[run..i]);
                    out.push(' ');
                    i = self.skip_comment(i + 2, self.line)?;
                    if self.open_comment.is_some() {
                        self.at = i;
                        return Ok(true);
                    }
                    run = i;
                }
                b'\n' => {
                    out.push_str(&self.src[run..i]);
                    self.at = i + 1;
                    self.line += 1;
                    return Ok(true);
                }
                _ => i += 1,
            }
        }
        out.push_str(&self.src[run..]);
        self.at = i;
        Ok(false)
    }

    /// Skip a block comment body from `i` to just past its `*/`, or
    /// past a newline that comes first, leaving the comment open (in
    /// `open_comment`) for the next line; returns where it stopped.
    fn skip_comment(&mut self, mut i: usize, start_line: u32) -> Result<usize, Diag> {
        let bytes = self.src.as_bytes();
        loop {
            if i + 1 >= bytes.len() {
                return Err(Diag::new(
                    Phase::Preprocess,
                    Pos::new(start_line, 1),
                    "unterminated block comment",
                ));
            }
            match bytes[i] {
                b'*' if bytes[i + 1] == b'/' => {
                    self.open_comment = None;
                    return Ok(i + 2);
                }
                b'\n' => {
                    self.open_comment = Some(start_line);
                    self.line += 1;
                    return Ok(i + 1);
                }
                _ => i += 1,
            }
        }
    }

    fn unterminated_string(&self) -> Diag {
        Diag::new(
            Phase::Preprocess,
            Pos::new(self.line, 1),
            "unterminated string literal",
        )
    }
}

/// Finish the stripped line `out[start..]` (line `lineno`): run its
/// directive, leaving the line empty (or, for `#pragma`, as it is), or
/// expand the macros defined so far in it.
fn finish_line(
    out: &mut String,
    start: usize,
    lineno: u32,
    macros: &mut FxHashMap<String, String>,
    scratch: &mut String,
) -> Result<(), Diag> {
    let err = |message: String| Diag::new(Phase::Preprocess, Pos::new(lineno, 1), message);
    let Some(rest) = out[start..].trim_start().strip_prefix('#') else {
        if !macros.is_empty() {
            scratch.clear();
            scratch.push_str(&out[start..]);
            out.truncate(start);
            expand(scratch, macros, out, 0).map_err(err)?;
        }
        return Ok(());
    };
    let rest = rest.trim_start();
    if let Some(def) = rest.strip_prefix("define") {
        let def = def.trim_start();
        let name_end = def
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(def.len());
        let name = &def[..name_end];
        if name.is_empty() {
            return Err(err("#define requires a macro name".to_string()));
        }
        if def[name_end..].starts_with('(') {
            return Err(err(format!(
                "function-like macro {name:?} is not supported; use a __device__ function"
            )));
        }
        let body = def[name_end..].trim().to_string();
        macros.insert(name.to_string(), body);
        out.truncate(start); // keep line numbering
    } else if rest.starts_with("include") {
        // `#include "wb.h"` is a no-op.
        out.truncate(start);
    } else if !rest.starts_with("pragma") {
        // `#pragma` lines pass through for the OpenACC front end, marked
        // for the lexer.
        return Err(err(format!(
            "unsupported preprocessor directive: #{}",
            rest.split_whitespace().next().unwrap_or("")
        )));
    }
    Ok(())
}

/// Append `text` to `out` with its object macros expanded, token-ishly:
/// identifiers are matched whole and string literals are skipped. A
/// macro's body is expanded in turn, so macros may reference other
/// macros; one met `MAX_EXPANSION_DEPTH - 1` substitutions deep is
/// taken for a cycle.
fn expand(
    text: &str,
    macros: &FxHashMap<String, String>,
    out: &mut String,
    depth: u32,
) -> Result<(), String> {
    let bytes = text.as_bytes();
    let (mut i, mut run) = (0, 0);
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'"' {
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                i += if bytes[i] == b'\\' { 2 } else { 1 };
            }
            i = (i + 1).min(bytes.len());
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if let Some(body) = macros.get(&text[start..i]) {
                if depth + 1 == MAX_EXPANSION_DEPTH {
                    return Err("macro expansion did not terminate (recursive #define?)".into());
                }
                if out.len() + body.len() > MAX_EXPANDED_BYTES {
                    return Err(format!(
                        "macro expansion produces more than {} MiB",
                        MAX_EXPANDED_BYTES >> 20
                    ));
                }
                out.push_str(&text[run..start]);
                expand(body, macros, out, depth + 1)?;
                run = i;
            }
        } else {
            i += 1;
        }
    }
    out.push_str(&text[run..]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_removed() {
        let out = preprocess("int x; // remove me\nint y;\n").unwrap();
        assert!(out.contains("int x;"));
        assert!(!out.contains("remove"));
        assert!(out.contains("int y;"));
    }

    #[test]
    fn block_comments_preserve_lines() {
        let out = preprocess("a /* one\ntwo\nthree */ b\nc\n").unwrap();
        // 'b' still on line 3, 'c' on line 4.
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains('a'));
        assert!(lines[2].contains('b'));
        assert!(lines[3].contains('c'));
    }

    #[test]
    fn comment_markers_inside_strings_kept() {
        let out = preprocess("wbLog(TRACE, \"http://x // not comment\");\n").unwrap();
        assert!(out.contains("http://x // not comment"));
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(preprocess("int x; /* oops\n").is_err());
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(preprocess("char* s = \"oops\n").is_err());
    }

    #[test]
    fn object_macro_expands() {
        let out = preprocess("#define TILE 16\nint x = TILE * TILE;\n").unwrap();
        assert!(out.contains("int x = 16 * 16;"));
    }

    #[test]
    fn macro_does_not_expand_substrings() {
        let out = preprocess("#define N 8\nint NN = N;\n").unwrap();
        assert!(out.contains("int NN = 8;"));
    }

    #[test]
    fn macro_chains_expand() {
        let out = preprocess("#define A 4\n#define B A\nint x = B;\n").unwrap();
        assert!(out.contains("int x = 4;"));
    }

    #[test]
    fn recursive_macro_rejected() {
        // Real cpp leaves self-references unexpanded; we reject with a
        // clear message instead, which is kinder for students.
        let src = "#define A B\n#define B A\nint x = A;\n";
        assert!(preprocess(src).is_err());
    }

    #[test]
    fn function_like_macro_rejected() {
        let err = preprocess("#define SQ(x) ((x)*(x))\n").unwrap_err();
        assert!(err.message.contains("function-like"));
    }

    #[test]
    fn include_ignored() {
        let out = preprocess("#include \"wb.h\"\nint main() { return 0; }\n").unwrap();
        assert!(!out.contains("include"));
        assert!(out.contains("int main"));
    }

    #[test]
    fn pragma_passes_through() {
        let out = preprocess("#pragma acc parallel loop\nfor (;;) {}\n").unwrap();
        assert!(out.contains("#pragma acc parallel loop"));
    }

    #[test]
    fn unknown_directive_rejected() {
        assert!(preprocess("#ifdef FOO\n").is_err());
    }

    #[test]
    fn define_keeps_line_numbers() {
        let out = preprocess("#define X 1\nint a = X;\n").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "");
        assert!(lines[1].contains("int a = 1;"));
    }

    #[test]
    fn macro_not_expanded_in_string() {
        let out = preprocess("#define N 8\nwbLog(TRACE, \"N\");\n").unwrap();
        assert!(out.contains("\"N\""));
    }
}
