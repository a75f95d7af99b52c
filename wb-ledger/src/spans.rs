//! The harness's own trace: spans around its calls into each layer, kept
//! in memory and written out when the run ends. Spans inside the product
//! are a later change; these sit at the boundary.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;
/// `trace.json` lists at most this many spans; the per-name table always
/// covers all of them.
const MAX_WRITTEN: usize = 50_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The submission this span belongs to, 0 for none.
    pub job: u64,
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part child spans cover.
    pub self_ns: u64,
}

pub struct Spans {
    origin: Instant,
    /// Off for untraced runs and for the untraced half of a traced run.
    pub enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied().unwrap_or(NO_PARENT),
            job,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Record an already-timed call as a closed child of the innermost
    /// open span (the hot path times itself once and reports here).
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            job,
        });
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Total duration of the spans named `child` whose parent is a span
    /// named `parent`.
    pub fn total_under(&self, parent: &str, child: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| {
                s.name == child
                    && s.parent != NO_PARENT
                    && self.spans[s.parent as usize].name == parent
            })
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The trace file: the per-name table and the spans themselves.
    pub fn to_json(&self) -> Json {
        let table = self.totals().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Int(t.count)),
                    ("total_us", Json::Num(t.total_ns as f64 / 1e3)),
                    ("self_us", Json::Num(t.self_ns as f64 / 1e3)),
                ]),
            )
        });
        let spans = self.spans.iter().take(MAX_WRITTEN).map(|s| {
            Json::Arr(vec![
                Json::str(s.name),
                Json::Int(s.start_ns),
                Json::Int(s.end_ns),
                if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::Int(u64::from(s.parent))
                },
                Json::Int(s.job),
            ])
        });
        Json::obj([
            ("columns", Json::str("name,start_ns,end_ns,parent,job")),
            ("spans_recorded", Json::Int(self.spans.len() as u64)),
            ("by_name", Json::obj(table)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.enter("unit", 0);
        let a = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = Instant::now();
        s.record("submit", 7, a, b);
        s.exit();
        let t = s.totals();
        assert_eq!(t["submit"].count, 1);
        assert!(t["unit"].total_ns >= t["submit"].total_ns);
        assert_eq!(t["unit"].self_ns, t["unit"].total_ns - t["submit"].total_ns);
        let mut off = Spans::new(false);
        off.enter("unit", 0);
        off.exit();
        assert!(off.totals().is_empty());
    }
}
