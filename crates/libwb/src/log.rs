//! `wbLog` — leveled logging captured per program run.
//!
//! Student programs call `wbLog(TRACE, ...)` and the captured lines are
//! echoed back in the attempt view. The logger is a plain buffer: the
//! sandbox caps its size so a runaway loop cannot exhaust worker memory.

/// Severity levels, mirroring `wbLogLevel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Finest-grained diagnostics.
    Trace,
    /// Debug detail.
    Debug,
    /// Normal progress messages.
    Info,
    /// Something suspicious but non-fatal.
    Warn,
    /// A failure the program noticed itself.
    Error,
}

impl LogLevel {
    /// Uppercase label as printed in attempt output.
    pub fn label(self) -> &'static str {
        match self {
            LogLevel::Trace => "TRACE",
            LogLevel::Debug => "DEBUG",
            LogLevel::Info => "INFO",
            LogLevel::Warn => "WARN",
            LogLevel::Error => "ERROR",
        }
    }

    /// Parse the label used in minicuda source (`wbLog(TRACE, ...)`).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "TRACE" => Some(LogLevel::Trace),
            "DEBUG" => Some(LogLevel::Debug),
            "INFO" => Some(LogLevel::Info),
            "WARN" => Some(LogLevel::Warn),
            "ERROR" => Some(LogLevel::Error),
            _ => None,
        }
    }
}

/// One captured log line.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLine {
    /// Severity.
    pub level: LogLevel,
    /// Rendered message.
    pub message: String,
}

/// Size-capped log buffer for one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct Logger {
    lines: Vec<LogLine>,
    bytes: usize,
    max_bytes: usize,
    truncated: bool,
}

impl Logger {
    /// Logger that stores at most `max_bytes` of message text.
    pub fn with_capacity(max_bytes: usize) -> Self {
        Logger {
            lines: Vec::new(),
            bytes: 0,
            max_bytes,
            truncated: false,
        }
    }

    /// Append a line; drops it (and marks truncation) past the cap.
    pub fn log(&mut self, level: LogLevel, message: impl Into<String>) {
        let message = message.into();
        if self.bytes + message.len() > self.max_bytes {
            self.truncated = true;
            return;
        }
        self.bytes += message.len();
        self.lines.push(LogLine { level, message });
    }

    /// Captured lines in order.
    pub fn lines(&self) -> &[LogLine] {
        &self.lines
    }

    /// True when output was dropped due to the size cap.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Render the buffer the way the attempt view shows it.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.bytes + self.lines.len() * 12);
        for line in &self.lines {
            out.push_str(&format!("[{}] {}\n", line.level.label(), line.message));
        }
        if self.truncated {
            out.push_str("[WARN] log output truncated\n");
        }
        out
    }
}

impl Default for Logger {
    /// Default 64 KiB cap, matching the worker's per-job output limit.
    fn default() -> Self {
        Logger::with_capacity(64 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order() {
        assert!(LogLevel::Trace < LogLevel::Error);
    }

    #[test]
    fn parse_roundtrip() {
        for l in [
            LogLevel::Trace,
            LogLevel::Debug,
            LogLevel::Info,
            LogLevel::Warn,
            LogLevel::Error,
        ] {
            assert_eq!(LogLevel::parse(l.label()), Some(l));
        }
        assert_eq!(LogLevel::parse("VERBOSE"), None);
    }

    #[test]
    fn capping_truncates() {
        let mut log = Logger::with_capacity(10);
        log.log(LogLevel::Info, "12345");
        log.log(LogLevel::Info, "123456"); // would exceed cap
        assert_eq!(log.lines().len(), 1);
        assert!(log.truncated());
        assert!(log.render().contains("truncated"));
    }

    #[test]
    fn render_includes_labels() {
        let mut log = Logger::default();
        log.log(LogLevel::Error, "boom");
        assert_eq!(log.render(), "[ERROR] boom\n");
    }
}
