//! Diagnostics: the compile/runtime errors students see in the code view.

use std::fmt;

/// Which stage of the toolchain produced the diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Preprocessor (comments, `#define`).
    Preprocess,
    /// Tokenizer.
    Lex,
    /// Parser.
    Parse,
    /// Semantic analysis (types, declarations, kernel constraints).
    Sema,
    /// Static kernel analysis (races, barrier divergence, bounds).
    Analysis,
    /// Kernel or host execution.
    Runtime,
    /// A resource budget (cycles, steps, memory) was exhausted.
    Limit,
    /// The sandbox policy rejected an operation.
    Security,
}

impl Phase {
    /// Label used when rendering a diagnostic.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Preprocess => "preprocess error",
            Phase::Lex => "lex error",
            Phase::Parse => "syntax error",
            Phase::Sema => "semantic error",
            Phase::Analysis => "analysis warning",
            Phase::Runtime => "runtime error",
            Phase::Limit => "resource limit exceeded",
            Phase::Security => "security violation",
        }
    }
}

/// Source position (1-based line and column; 0 when unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Pos {
    /// Construct a position.
    pub fn new(line: u32, col: u32) -> Self {
        Pos { line, col }
    }

    /// Placeholder for diagnostics with no useful location.
    pub fn unknown() -> Self {
        Pos::default()
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "<unknown>")
        } else {
            write!(f, "{}:{}", self.line, self.col)
        }
    }
}

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diag {
    /// Producing stage.
    pub phase: Phase,
    /// Where in the student source.
    pub pos: Pos,
    /// Explanation, written for a student audience.
    pub message: String,
    /// For kernel runtime errors: `(block, thread)` coordinates of the
    /// first offending thread, which WebGPU surfaces in the attempt view.
    pub thread: Option<(u32, u32)>,
}

impl Diag {
    /// Construct a diagnostic.
    pub fn new(phase: Phase, pos: Pos, message: impl Into<String>) -> Self {
        Diag {
            phase,
            pos,
            message: message.into(),
            thread: None,
        }
    }

    /// Diagnostic with no source position.
    pub fn nowhere(phase: Phase, message: impl Into<String>) -> Self {
        Diag::new(phase, Pos::unknown(), message)
    }

    /// Attach kernel thread coordinates.
    pub fn with_thread(mut self, block: u32, thread: u32) -> Self {
        self.thread = Some((block, thread));
        self
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.pos, self.phase.label(), self.message)?;
        if let Some((b, t)) = self.thread {
            write!(f, " (block {b}, thread {t})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diag {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_position() {
        let d = Diag::new(Phase::Parse, Pos::new(3, 7), "expected ';'");
        assert_eq!(d.to_string(), "3:7: syntax error: expected ';'");
    }

    #[test]
    fn display_without_position() {
        let d = Diag::nowhere(Phase::Limit, "cycle budget exhausted");
        assert_eq!(
            d.to_string(),
            "<unknown>: resource limit exceeded: cycle budget exhausted"
        );
    }

    #[test]
    fn display_with_thread() {
        let d = Diag::new(Phase::Runtime, Pos::new(1, 1), "out of bounds").with_thread(4, 31);
        assert!(d.to_string().ends_with("(block 4, thread 31)"));
    }
}
