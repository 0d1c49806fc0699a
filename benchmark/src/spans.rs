//! The benchmark's own span log: one span around each call into a layer,
//! kept in memory and written as Chrome trace-event JSON (loads in Perfetto
//! and `chrome://tracing`) when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed span. `id` is shared by every span of one work unit or one
/// mail message; `parent` is the index of the span that caused this one.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
    pub id: u64,
    pub parent: Option<usize>,
    /// Chrome-trace thread lane.
    pub tid: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `work` inside a span on lane 0 and returns its result together
    /// with the seconds it took.
    pub fn time<T>(
        &mut self,
        name: &str,
        id: u64,
        parent: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        let started = Instant::now();
        let value = work();
        let seconds = started.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: started.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: seconds * 1e6,
            id,
            parent,
            tid: 0,
        });
        (value, seconds)
    }

    /// Opens a span whose children are recorded before it closes; returns
    /// its index (the children's `parent`) and start time for [`Self::close`].
    pub fn open(&mut self, name: &str, id: u64) -> (usize, Instant) {
        let started = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: started.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: 0.0,
            id,
            parent: None,
            tid: 0,
        });
        (self.spans.len() - 1, started)
    }

    pub fn close(&mut self, (index, started): (usize, Instant)) {
        self.spans[index].dur_us = started.elapsed().as_secs_f64() * 1e6;
    }

    /// Adds a span measured elsewhere (the mail pipeline's stage spans).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the trace to `out/<workload>.trace.json`.
    pub fn write(&self, workload: &str) {
        let dir = crate::report::out_dir();
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::create_dir_all(&dir).expect("create the out directory");
        std::fs::write(&path, self.to_chrome_json()).expect("write the trace");
        eprintln!("{} spans written to {}", self.spans.len(), path.display());
    }

    /// The Chrome trace-event document: complete (`"ph":"X"`) events, `ts`
    /// and `dur` in microseconds, the shared id and the parent in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Span names are this crate's own literals and the program's
            // stage names: ASCII without quotes or backslashes.
            debug_assert!(span
                .name
                .chars()
                .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'));
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"scr-benchmark\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{},\"span\":{}",
                span.name, span.start_us, span.dur_us, span.tid, span.id, i
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalable_commutativity::obs::Json;

    #[test]
    fn children_point_at_their_unit_and_share_its_id() {
        let mut log = SpanLog::new();
        let unit = log.open("unit", 7);
        let (value, seconds) = log.time("core.analyzer", 7, Some(unit.0), || 41 + 1);
        log.close(unit);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].id), (Some(0), 7));
        assert!(
            spans[0].dur_us >= spans[1].dur_us,
            "the unit covers its child"
        );
        assert!(spans[1].start_us >= spans[0].start_us);
    }

    #[test]
    fn chrome_document_parses_and_carries_id_and_parent() {
        let mut log = SpanLog::new();
        let unit = log.open("unit", 3);
        log.time("core.testgen", 3, Some(unit.0), || ());
        log.close(unit);
        let doc = Json::parse(&log.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("event list");
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(
            child.get("name").and_then(Json::as_str),
            Some("core.testgen")
        );
        assert_eq!(child.get("ph").and_then(Json::as_str), Some("X"));
        let args = child.get("args").expect("args");
        assert_eq!(args.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert!(events[0]
            .get("args")
            .and_then(|a| a.get("parent"))
            .is_none());
    }
}
