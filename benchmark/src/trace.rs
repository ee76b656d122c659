//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are held in memory and written when the run ends. A layer's self
//! time is its span's duration minus what its child spans cover. Nothing
//! here reaches into the crates: spans inside the program are a later
//! change (the "spine" item of ROADMAP.md).

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept per run; further spans are only counted (`dropped`).
const MAX_SPANS: usize = 400_000;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// The operation (compilation, call, request, stream run) it belongs to.
    op: u64,
}

/// The span recorder. Disabled, `enter`/`exit` cost one branch each.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

/// What `enter` hands back for `exit`.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }
}

impl Tracer {
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id.0 as usize].end_ns = end_ns;
        // Spans close innermost first; popping down to `id` also recovers
        // from an inner span that was dropped at the cap.
        while let Some(top) = self.stack.pop() {
            if top == id.0 {
                break;
            }
        }
    }

    /// Records a finished top-level span clocked elsewhere (a request timed
    /// on a client thread).
    pub fn add(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: NO_PARENT,
            op,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Records a child of `parent` whose duration is known but was not
    /// clocked here (a pass time from `Compiler::timings()`, a reply's own
    /// `execute_ns`). Children are laid end to end from `cursor_ns`, an
    /// offset from the parent's start, which is advanced past the new span.
    pub fn child(
        &mut self,
        parent: SpanId,
        name: &'static str,
        op: u64,
        cursor_ns: &mut u64,
        dur_ns: u64,
    ) {
        if parent.0 == NO_PARENT || !self.enabled {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let start_ns = self.spans[parent.0 as usize].start_ns + *cursor_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: parent.0,
            op,
        });
        *cursor_ns += dur_ns;
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// The trace as a JSON document: the per-name summary first, then every
    /// span as `[name, start_ns, end_ns, parent, op]` (`parent` is an index
    /// into the same array, or -1).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workload\": {},\n", json::quote(workload)));
        out.push_str(&format!("  \"seed\": {seed},\n"));
        out.push_str(&format!("  \"dropped_spans\": {},\n", self.dropped));
        out.push_str("  \"summary\": [\n");
        let totals = self.totals();
        for (i, (name, t)) in totals.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{}\n",
                json::quote(name),
                t.count,
                t.total_ns,
                t.self_ns,
                if i + 1 == totals.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            out.push_str(&format!(
                "    [{}, {}, {}, {parent}, {}]{}\n",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::default();
        t.set_enabled(true);
        let outer = t.enter("outer", 7);
        let mut cursor = 0;
        t.child(outer, "inner", 7, &mut cursor, 30);
        t.child(outer, "inner", 7, &mut cursor, 12);
        assert_eq!(cursor, 42);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.exit(outer);
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["inner"].total_ns, 42);
        let o = totals["outer"];
        assert_eq!(o.self_ns, o.total_ns - 42);
        let doc = crate::json::Json::parse(&t.to_json("w", 1)).unwrap();
        assert_eq!(doc.get("spans").unwrap().items().len(), 3);
        assert_eq!(
            doc.get("spans").unwrap().items()[1].items()[3].as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        let id = t.enter("x", 0);
        t.exit(id);
        assert!(t.totals().is_empty());
    }
}
