//! `wbTime` — hierarchical timing used by lab skeletons.
//!
//! The original `wb.h` exposes `wbTime_start(tag, msg)` /
//! `wbTime_stop(tag, msg)` pairs whose output students read to see
//! where their program spends time (copy vs compute). In the simulated
//! toolchain "time" is virtual — the device cost model reports cycles —
//! so the timer accepts externally supplied tick counts rather than
//! reading a wall clock.

/// Category of a timed span, mirroring `wbTimeType`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Anything not covered below.
    Generic,
    /// Device allocation / free.
    Gpu,
    /// Host↔device copies.
    Copy,
    /// Kernel execution.
    Compute,
}

impl TimerKind {
    /// Display label matching the original library's output.
    pub fn label(self) -> &'static str {
        match self {
            TimerKind::Generic => "Generic",
            TimerKind::Gpu => "GPU",
            TimerKind::Copy => "Copy",
            TimerKind::Compute => "Compute",
        }
    }
}

/// A completed timed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span category.
    pub kind: TimerKind,
    /// Message passed at `start`.
    pub message: String,
    /// Virtual tick at which the span began.
    pub start: u64,
    /// Virtual tick at which the span ended.
    pub stop: u64,
}

impl Span {
    /// Span length in virtual ticks.
    pub fn elapsed(&self) -> u64 {
        self.stop - self.start
    }
}

/// Collects `wbTime` spans for one program run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Timer {
    open: Vec<(TimerKind, String, u64)>,
    spans: Vec<Span>,
}

impl Timer {
    /// Fresh timer with no spans.
    pub fn new() -> Self {
        Timer::default()
    }

    /// Begin a span at virtual tick `now`.
    pub fn start(&mut self, kind: TimerKind, message: impl Into<String>, now: u64) {
        self.open.push((kind, message.into(), now));
    }

    /// End the innermost open span with the same kind and message.
    ///
    /// Returns the completed span, or `None` when no matching `start`
    /// exists (the original library prints a warning in that case; the
    /// toolchain turns `None` into a student-visible diagnostic).
    pub fn stop(&mut self, kind: TimerKind, message: &str, now: u64) -> Option<Span> {
        let idx = self
            .open
            .iter()
            .rposition(|(k, m, _)| *k == kind && m == message)?;
        let (k, m, start) = self.open.remove(idx);
        let span = Span {
            kind: k,
            message: m,
            start,
            stop: now.max(start),
        };
        self.spans.push(span.clone());
        Some(span)
    }

    /// Completed spans in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans started but never stopped.
    pub fn unclosed(&self) -> usize {
        self.open.len()
    }

    /// Sum of elapsed ticks for one category.
    pub fn total(&self, kind: TimerKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::elapsed)
            .sum()
    }

    /// Render the report students see under their program output.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "[{}] elapsed {} ticks : {}\n",
                s.kind.label(),
                s.elapsed(),
                s.message
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_span() {
        let mut t = Timer::new();
        t.start(TimerKind::Compute, "kernel", 100);
        let s = t.stop(TimerKind::Compute, "kernel", 250).unwrap();
        assert_eq!(s.elapsed(), 150);
        assert_eq!(t.total(TimerKind::Compute), 150);
        assert_eq!(t.unclosed(), 0);
    }

    #[test]
    fn nested_spans_match_innermost() {
        let mut t = Timer::new();
        t.start(TimerKind::Generic, "outer", 0);
        t.start(TimerKind::Generic, "outer", 10);
        let inner = t.stop(TimerKind::Generic, "outer", 20).unwrap();
        assert_eq!(inner.start, 10);
        let outer = t.stop(TimerKind::Generic, "outer", 30).unwrap();
        assert_eq!(outer.start, 0);
    }

    #[test]
    fn stop_without_start_is_none() {
        let mut t = Timer::new();
        assert!(t.stop(TimerKind::Copy, "never", 5).is_none());
    }

    #[test]
    fn mismatched_kind_does_not_close() {
        let mut t = Timer::new();
        t.start(TimerKind::Copy, "x", 0);
        assert!(t.stop(TimerKind::Compute, "x", 5).is_none());
        assert_eq!(t.unclosed(), 1);
    }

    #[test]
    fn clock_going_backwards_clamps() {
        let mut t = Timer::new();
        t.start(TimerKind::Generic, "x", 100);
        let s = t.stop(TimerKind::Generic, "x", 50).unwrap();
        assert_eq!(s.elapsed(), 0);
    }

    #[test]
    fn report_lists_spans() {
        let mut t = Timer::new();
        t.start(TimerKind::Copy, "h2d", 0);
        t.stop(TimerKind::Copy, "h2d", 42);
        assert!(t.report().contains("[Copy] elapsed 42 ticks : h2d"));
    }

    #[test]
    fn totals_are_per_kind() {
        let mut t = Timer::new();
        t.start(TimerKind::Copy, "a", 0);
        t.stop(TimerKind::Copy, "a", 10);
        t.start(TimerKind::Compute, "b", 10);
        t.stop(TimerKind::Compute, "b", 40);
        assert_eq!(t.total(TimerKind::Copy), 10);
        assert_eq!(t.total(TimerKind::Compute), 30);
        assert_eq!(t.total(TimerKind::Gpu), 0);
    }
}
