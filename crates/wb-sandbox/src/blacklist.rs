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

/// A set of forbidden substrings, matched on identifier boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Blacklist {
    patterns: Vec<String>,
    mode: ScanMode,
}

impl Blacklist {
    /// The default deny set used by the GPU labs: inline assembly,
    /// process control, raw I/O, and dynamic loading.
    pub fn standard() -> Self {
        Blacklist {
            patterns: [
                "asm", "__asm__", "system", "popen", "fork", "execve", "execvp", "fopen", "open",
                "socket", "dlopen", "syscall", "mmap", "ptrace",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            mode: ScanMode::RawText,
        }
    }

    /// An empty blacklist (used by instructor reference runs).
    pub fn permissive() -> Self {
        Blacklist {
            patterns: Vec::new(),
            mode: ScanMode::RawText,
        }
    }

    /// Build a custom blacklist.
    pub fn new(patterns: Vec<String>, mode: ScanMode) -> Self {
        Blacklist { patterns, mode }
    }

    /// Change the scan mode.
    pub fn with_mode(mut self, mode: ScanMode) -> Self {
        self.mode = mode;
        self
    }

    /// Patterns in the deny set.
    pub fn patterns(&self) -> &[String] {
        &self.patterns
    }

    /// The active scan mode.
    pub fn mode(&self) -> ScanMode {
        self.mode
    }

    /// Scan `source`, returning every violation (empty = clean).
    pub fn scan(&self, source: &str) -> Vec<Violation> {
        let text: String = match self.mode {
            ScanMode::RawText => source.to_string(),
            ScanMode::Preprocessed => strip_comments_lossy(source),
        };
        let mut out = Vec::new();
        for pat in &self.patterns {
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

    /// Convenience: true when the source is clean.
    pub fn permits(&self, source: &str) -> bool {
        self.scan(source).is_empty()
    }
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

/// Best-effort comment stripping for [`ScanMode::Preprocessed`] —
/// unlike the real preprocessor this never fails; malformed input is
/// passed through so the scan still sees it.
fn strip_comments_lossy(source: &str) -> String {
    minicuda::preprocessor::strip_comments(source).unwrap_or_else(|_| source.to_string())
}

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
        let bl = Blacklist::new(vec!["goto".to_string()], ScanMode::RawText);
        assert!(!bl.permits("goto fail;"));
        assert!(bl.permits("int gotoX;"));
        assert_eq!(bl.patterns(), &["goto".to_string()]);
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
