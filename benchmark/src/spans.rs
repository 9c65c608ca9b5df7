//! Span recording for the traced run: a preallocated buffer filled by the
//! benchmark's own files around each call into a layer, written out as
//! JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its buffer; `NO_PARENT` marks a root (one op).
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded interval. Times are nanoseconds since the buffer's epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one op share its id.
    pub op_id: u32,
    /// Calls folded into this span (1 for a plain span; the per-cell
    /// `core.assign` span sums thousands of calls and says how many).
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A fixed-capacity span store. Recording never allocates: once the buffer
/// is full further spans are counted in `dropped` and the run reports it.
pub struct SpanBuffer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuffer {
    pub fn with_capacity(epoch: Instant, capacity: usize) -> Self {
        SpanBuffer {
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`SpanBuffer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, op_id: u32) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
            calls: 1,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    /// Records a finished span (used for the summed per-cell policy spans).
    pub fn push(&mut self, span: Span) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends the spans as JSON lines. `scope` names the loop (and client)
    /// the buffer belongs to: span and op ids are unique within a scope.
    pub fn write_jsonl(&self, out: &mut impl Write, scope: &str) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"scope\":\"{scope}\",\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{},\"calls\":{}}}",
                i,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.op_id,
                s.calls
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of it covered by
/// its direct children. Children recorded as sums (the per-cell policy
/// spans) may overlap each other on the clock, so coverage is the plain sum
/// of child durations, clamped to the parent's duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(slot) = covered.get_mut(span.parent as usize) {
            *slot += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Sum of self times per span name (ns) over `spans`.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += self_ns;
                row.2 += u64::from(span.calls);
            }
            None => rows.push((span.name, self_ns, u64::from(span.calls))),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_and_nested_children_once() {
        // op 0..100
        //   a 10..40            (sibling 1)
        //     a1 15..25         (nested: counts against a, not against op)
        //   b 50..90            (sibling 2)
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a1", 15, 25, 1),
            span("b", 50, 90, 0),
        ];
        // op: 100 - 30 - 40 = 30; a: 30 - 10 = 20; a1: 10; b: 40.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn summed_children_never_drive_self_time_negative() {
        let spans = [span("sim", 0, 50, NO_PARENT), span("assign", 0, 60, 0)];
        assert_eq!(self_times_ns(&spans), vec![0, 60]);
    }

    #[test]
    fn by_name_groups_and_counts_calls() {
        let mut assign = span("assign", 0, 30, 0);
        assign.calls = 7;
        let spans = [
            span("op", 0, 100, NO_PARENT),
            assign,
            span("assign", 40, 50, 0),
        ];
        let rows = self_time_by_name(&spans);
        assert_eq!(rows, vec![("op", 60, 1), ("assign", 40, 8)]);
    }

    #[test]
    fn a_full_buffer_drops_and_counts_instead_of_growing() {
        let mut buf = SpanBuffer::with_capacity(Instant::now(), 1);
        let root = buf.open("op", NO_PARENT, 0);
        assert_eq!(buf.open("late", root, 0), NO_PARENT);
        buf.close(NO_PARENT); // closing a dropped span is a no-op
        buf.close(root);
        assert_eq!((buf.spans().len(), buf.dropped()), (1, 1));
        let mut out = Vec::new();
        buf.write_jsonl(&mut out, "sweep").unwrap();
        let line = String::from_utf8(out).unwrap();
        assert!(line.starts_with("{\"scope\":\"sweep\",\"id\":0,\"name\":\"op\""));
        assert!(line.contains("\"parent\":null"));
    }
}
