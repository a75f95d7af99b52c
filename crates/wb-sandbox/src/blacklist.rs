//! Compile-time blacklist scanner.
//!
//! From the paper: *"A textual scan on the unparsed code disallows
//! certain strings such as `asm();` which introduces inlined assembly
//! which may potentially escape any sandbox in place. This method
//! rejects code which contains the black listed functions even within
//! comments. If the black list search is run on the code after running
//! the preprocessor, we can avoid false negatives, but few users found
//! the false negatives a nuisance."*
//!
//! Both scan modes are implemented so the trade-off can be measured
//! (one of the ablations in DESIGN.md): [`ScanMode::RawText`] is the
//! production behaviour (comments included), [`ScanMode::Preprocessed`]
//! strips comments first.

use libwb::hash::{ContentHash, ContentHasher};
use std::sync::Arc;

/// How the scanner treats the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Scan the raw, unparsed text — the paper's production mode.
    /// Matches inside comments cause (documented) false positives.
    RawText,
    /// Strip comments first, eliminating comment-induced false
    /// positives at the cost of scanning slightly later in the pipeline.
    Preprocessed,
}

/// One blacklist hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The blacklisted pattern that matched.
    pub pattern: String,
    /// 1-based line of the first match.
    pub line: usize,
    /// Message shown to the student.
    pub message: String,
}

/// A pattern [`Blacklist::new`] refused: every pattern must be a
/// non-empty identifier (`[A-Za-z0-9_]+`), since the scan matches
/// whole identifiers only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// The rejected pattern.
    pub pattern: String,
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "blacklist pattern {:?} is not an identifier ([A-Za-z0-9_]+)",
            self.pattern
        )
    }
}

impl std::error::Error for PatternError {}

/// A set of forbidden identifiers, matched on identifier boundaries.
/// Clones share the pattern table and its digest; equality compares
/// contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Blacklist {
    table: Arc<Table>,
    mode: ScanMode,
}

/// The part of a blacklist its clones share.
#[derive(Debug, PartialEq, Eq)]
struct Table {
    patterns: Box<[String]>,
    /// Content digest of `patterns`, computed when the table is built.
    digest: ContentHash,
}

impl Table {
    fn new(patterns: Box<[String]>) -> Table {
        let mut h = ContentHasher::new();
        h.write_u64(patterns.len() as u64);
        for p in patterns.iter() {
            h.write_str(p);
        }
        let digest = h.finish();
        Table { patterns, digest }
    }
}

impl Blacklist {
    /// The default deny set used by the GPU labs: inline assembly,
    /// process control, raw I/O, and dynamic loading.
    pub fn standard() -> Self {
        let patterns = [
            "asm", "__asm__", "system", "popen", "fork", "execve", "execvp", "fopen", "open",
            "socket", "dlopen", "syscall", "mmap", "ptrace",
        ];
        Blacklist {
            table: Arc::new(Table::new(patterns.map(String::from).into())),
            mode: ScanMode::RawText,
        }
    }

    /// An empty blacklist (used by instructor reference runs).
    pub fn permissive() -> Self {
        Blacklist {
            table: Arc::new(Table::new(Box::new([]))),
            mode: ScanMode::RawText,
        }
    }

    /// Build a custom blacklist. Every pattern must be a non-empty
    /// identifier (`[A-Za-z0-9_]+`); the first one that is not is
    /// returned as the error.
    pub fn new(patterns: Vec<String>, mode: ScanMode) -> Result<Self, PatternError> {
        let is_identifier = |p: &&String| !p.is_empty() && p.bytes().all(is_ident_byte);
        if let Some(bad) = patterns.iter().find(|p| !is_identifier(p)) {
            let pattern = bad.clone();
            return Err(PatternError { pattern });
        }
        let table = Arc::new(Table::new(patterns.into()));
        Ok(Blacklist { table, mode })
    }

    /// Change the scan mode.
    pub fn with_mode(mut self, mode: ScanMode) -> Self {
        self.mode = mode;
        self
    }

    /// Patterns in the deny set.
    pub fn patterns(&self) -> &[String] {
        &self.table.patterns
    }

    /// Content digest of the pattern list (the scan mode is not in it),
    /// computed once when the list was built: what a cache key folds in
    /// for the list.
    pub fn digest(&self) -> ContentHash {
        self.table.digest
    }

    /// The active scan mode.
    pub fn mode(&self) -> ScanMode {
        self.mode
    }

    /// Scan `source`, returning every violation (empty = clean): one
    /// per pattern found, at the line of its first match, in pattern
    /// order.
    pub fn scan(&self, source: &str) -> Vec<Violation> {
        let first_lines = match self.mode {
            ScanMode::RawText => self.first_lines(source.as_bytes()),
            ScanMode::Preprocessed => self.first_lines(strip_comments_lossy(source).as_bytes()),
        };
        self.patterns()
            .iter()
            .zip(first_lines)
            .filter_map(|(pat, line)| line.map(|line| violation(pat, line)))
            .collect()
    }

    /// Convenience: true when the source is clean.
    pub fn permits(&self, source: &str) -> bool {
        self.scan(source).is_empty()
    }

    /// One walk over `text`: split out each maximal identifier run
    /// outside string literals and record, per pattern, the 1-based
    /// line of the first run equal to it. Stops early once every
    /// pattern has been seen.
    fn first_lines(&self, text: &[u8]) -> Vec<Option<usize>> {
        // Bit `n` (`n` capped at 63) is set when some pattern is `n`
        // bytes long: a run of any other length is no pattern.
        let len_bit = |len: usize| 1u64 << len.min(63);
        let patterns = self.patterns();
        let lens = patterns.iter().fold(0, |m, p| m | len_bit(p.len()));
        let mut first = vec![None; patterns.len()];
        let mut unseen = patterns.len();
        let (mut line, mut i, mut in_str) = (1usize, 0usize, false);
        while i < text.len() && unseen > 0 {
            let c = text[i];
            if c == b'\n' {
                line += 1;
                in_str = false; // unterminated string: stop skipping
                i += 1;
            } else if in_str {
                match c {
                    b'\\' => {
                        // A backslash-newline splices the line but is
                        // still a line.
                        if text.get(i + 1) == Some(&b'\n') {
                            line += 1;
                        }
                        i += 2;
                    }
                    b'"' => {
                        in_str = false;
                        i += 1;
                    }
                    _ => i += 1,
                }
            } else if c == b'"' {
                in_str = true;
                i += 1;
            } else if c == b'\'' {
                i += apostrophe_len(&text[i..]);
            } else if is_ident_byte(c) {
                let start = i;
                while i < text.len() && is_ident_byte(text[i]) {
                    i += 1;
                }
                let run = &text[start..i];
                if lens & len_bit(run.len()) == 0 {
                    continue;
                }
                for (p, pat) in patterns.iter().enumerate() {
                    if first[p].is_none() && pat.as_bytes() == run {
                        first[p] = Some(line);
                        unseen -= 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        first
    }
}

fn violation(pat: &str, line: usize) -> Violation {
    Violation {
        pattern: pat.to_string(),
        line,
        message: format!("use of `{pat}` is not allowed in this lab (line {line})"),
    }
}

/// How far to step at a `'`: over a whole double-quote char literal
/// (`'"'` or `'\"'`), whose quote must open no string, else over the
/// `'` alone. No other `'` delimits anything: raw mode scans comments,
/// where an apostrophe (`don't use asm`) must not hide what follows.
fn apostrophe_len(text: &[u8]) -> usize {
    if text.starts_with(b"'\"'") {
        3
    } else if text.starts_with(b"'\\\"'") {
        4
    } else {
        1
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Best-effort comment stripping for [`ScanMode::Preprocessed`] —
/// unlike the real preprocessor this never fails; malformed input is
/// passed through so the scan still sees it.
fn strip_comments_lossy(source: &str) -> String {
    minicuda::preprocessor::strip_comments(source).unwrap_or_else(|_| source.to_string())
}

/// The per-pattern scan the one-pass walk replaced, kept as the test
/// oracle (shared with the property suite).
#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_inline_asm() {
        let bl = Blacklist::standard();
        let v = bl.scan("int main() { asm(\"nop\"); return 0; }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pattern, "asm");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn raw_mode_flags_comments_false_positive() {
        // The paper documents this exact behaviour.
        let bl = Blacklist::standard();
        let src = "// do not use asm here\nint main() { return 0; }";
        assert!(!bl.permits(src), "raw scan flags the comment");
    }

    #[test]
    fn preprocessed_mode_ignores_comments() {
        let bl = Blacklist::standard().with_mode(ScanMode::Preprocessed);
        let src = "// do not use asm here\nint main() { return 0; }";
        assert!(bl.permits(src), "preprocessed scan skips the comment");
    }

    #[test]
    fn preprocessed_mode_still_catches_real_use() {
        let bl = Blacklist::standard().with_mode(ScanMode::Preprocessed);
        assert!(!bl.permits("int main() { system(\"ls\"); }"));
    }

    #[test]
    fn identifier_boundaries_respected() {
        let bl = Blacklist::standard();
        // `asmx` and `my_asm` are different identifiers.
        assert!(bl.permits("int asmx = 0; int my_asm = 1;"));
        // but a bare `asm` token matches even without parentheses.
        assert!(!bl.permits("int x = asm;"));
    }

    #[test]
    fn string_literals_do_not_match() {
        let bl = Blacklist::standard();
        assert!(bl.permits("int main() { wbLog(TRACE, \"asm is evil\"); return 0; }"));
    }

    #[test]
    fn reports_correct_line() {
        let bl = Blacklist::standard();
        let v = bl.scan("int main() {\n  int x = 0;\n  fork();\n}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn multiple_patterns_all_reported() {
        let bl = Blacklist::standard();
        let v = bl.scan("asm(); system(); fork();");
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn permissive_allows_everything() {
        assert!(Blacklist::permissive().permits("asm(); system(); execve();"));
    }

    #[test]
    fn custom_patterns() {
        let bl = Blacklist::new(vec!["goto".to_string()], ScanMode::RawText).unwrap();
        assert!(!bl.permits("goto fail;"));
        assert!(bl.permits("int gotoX;"));
        assert_eq!(bl.patterns(), &["goto".to_string()]);
    }

    #[test]
    fn clones_share_the_table_and_equality_compares_contents() {
        let bl = Blacklist::standard();
        let copy = bl.clone();
        assert!(std::ptr::eq(bl.patterns(), copy.patterns()), "one table");
        assert!(Arc::ptr_eq(&bl.table, &copy.table), "and one digest");
        assert_eq!(Arc::strong_count(&bl.table), 2);
        // Separately built, equal contents: equal, with equal digests.
        assert_eq!(bl, Blacklist::standard());
        let rebuilt = Blacklist::new(bl.patterns().to_vec(), ScanMode::RawText).unwrap();
        assert!(!Arc::ptr_eq(&bl.table, &rebuilt.table));
        assert_eq!(bl, rebuilt);
        assert_eq!(bl.digest(), rebuilt.digest());
        assert_ne!(bl, rebuilt.clone().with_mode(ScanMode::Preprocessed));
        assert_eq!(
            bl.digest(),
            rebuilt.with_mode(ScanMode::Preprocessed).digest()
        );
        assert_ne!(bl, Blacklist::permissive());
        assert_ne!(bl.digest(), Blacklist::permissive().digest());
        // The digest covers order and framing, like the scan's output.
        let ab = |a: &str, b: &str| {
            let pats = vec![a.to_string(), b.to_string()];
            Blacklist::new(pats, ScanMode::RawText).unwrap().digest()
        };
        assert_ne!(ab("asm", "fork"), ab("fork", "asm"));
        assert_ne!(ab("ab", "c"), ab("a", "bc"));
    }

    #[test]
    fn non_identifier_patterns_are_refused() {
        for bad in ["", "asm(", "a b", "é", "x-y"] {
            let pats = vec!["ok".to_string(), bad.to_string()];
            let err = Blacklist::new(pats, ScanMode::RawText).unwrap_err();
            assert_eq!(err.pattern, bad);
        }
        assert!(Blacklist::new(vec!["_9".to_string()], ScanMode::Preprocessed).is_ok());
    }

    #[test]
    fn duplicate_patterns_are_each_reported() {
        let bl = Blacklist::new(vec!["goto".into(), "goto".into()], ScanMode::RawText).unwrap();
        let v = bl.scan("goto fail;");
        assert_eq!(v, oracle::scan(&bl, "goto fail;"));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn quote_char_literal_opens_no_string() {
        let bl = Blacklist::standard();
        for src in [
            "int main() { char q = '\"'; asm(\"nop\"); return 0; }",
            "int main() { char q = '\\\"'; asm(\"nop\"); return 0; }",
        ] {
            let v = bl.scan(src);
            assert_eq!(v, oracle::scan(&bl, src), "{src}");
            assert_eq!((v.len(), v[0].pattern.as_str()), (1, "asm"), "{src}");
        }
    }

    #[test]
    fn apostrophes_in_comments_hide_nothing() {
        // Only the exact `'"'` / `'\"'` sequences are special: a general
        // char-literal rule would make this comment skip `asm`.
        let bl = Blacklist::standard();
        let src = "// don't use asm here\nint main() { return 0; }";
        assert_eq!(bl.scan(src), oracle::scan(&bl, src));
        assert!(!bl.permits(src));
    }

    #[test]
    fn backslash_newline_in_a_string_counts_the_line() {
        let bl = Blacklist::standard();
        let src = "const char* s = \"a\\\nb\";\nasm();\n";
        let v = bl.scan(src);
        assert_eq!(v, oracle::scan(&bl, src));
        assert_eq!(v[0].line, 3);
        // The splice continues the string: a pattern after it is text.
        assert!(bl.permits("const char* s = \"a\\\nasm\";\n"));
    }

    #[test]
    fn clean_lab_code_passes() {
        let bl = Blacklist::standard();
        let src = r#"
            __global__ void vecAdd(float* a, float* b, float* c, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { c[i] = a[i] + b[i]; }
            }
            int main() { return 0; }
        "#;
        assert!(bl.permits(src));
    }
}
