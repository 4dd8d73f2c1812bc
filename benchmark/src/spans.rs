//! In-memory spans recorded around calls into each layer.
//!
//! The benchmark — not the product — opens a span at every layer boundary it
//! crosses. Spans stay in memory until the traced phase is over and are only
//! then written out, one JSON object per line.

use std::io::Write;
use std::time::Instant;

use foss_repro::service::Json;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

/// One timed interval: which layer call, when, caused by which span, for
/// which request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic epoch.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it reads as zero-length until [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in µs.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns() as f64 / 1e3
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, request);
        let out = f();
        (out, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span in ns: its duration minus the part of its own
/// interval that its direct children cover. Overlapping children are counted
/// once, a child reaching outside its parent is clipped to it, and a span
/// whose `parent` names no recorded span is treated as a root. Grandchildren
/// count against their own parent only.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| spans.get(p).map(|s| (p, s))) {
            let (idx, p) = parent;
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[idx].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Write `spans` as JSON lines, tagging each with the pass it belongs to.
pub fn write_jsonl(out: &mut impl Write, pass: &str, spans: &[Span]) -> std::io::Result<()> {
    for (id, span) in spans.iter().enumerate() {
        let line = Json::obj(vec![
            ("pass", Json::str(pass)),
            ("id", Json::num(id as f64)),
            ("name", Json::str(span.name)),
            ("start_ns", Json::num(span.start_ns as f64)),
            ("end_ns", Json::num(span.end_ns as f64)),
            (
                "parent",
                span.parent.map_or(Json::Null, |p| Json::num(p as f64)),
            ),
            ("request", Json::num(f64::from(span.request))),
        ]);
        writeln!(out, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn childless_span_keeps_its_whole_duration() {
        assert_eq!(self_times_ns(&[span(10, 110, None)]), vec![100]);
    }

    #[test]
    fn nested_children_charge_only_their_direct_parent() {
        let spans = [
            span(0, 100, None),    // root
            span(10, 60, Some(0)), // child
            span(20, 50, Some(1)), // grandchild
            span(70, 90, Some(0)), // second child
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 20, 50 - 30, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 180, Some(0)), // overlaps the first by 10
            span(190, 260, Some(0)), // overhangs the parent by 60
            span(50, 90, Some(0)),   // entirely outside: covers nothing
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn missing_parent_is_a_root() {
        let spans = [span(0, 40, Some(9)), span(5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![30, 10]);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::with_capacity(2);
        let root = rec.begin("request", None, 3);
        let ((), us) = rec.time("core.infer", Some(root), 3, || ());
        rec.end(root);
        assert!(us >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "cold", spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let first = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("request"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        assert_eq!(first.get("request").and_then(Json::as_usize), Some(3));
        assert_eq!(text.lines().count(), 2);
    }
}
