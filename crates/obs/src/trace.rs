//! Span-based tracing with a Chrome trace-event exporter.
//!
//! Spans follow the same sharding discipline as the metrics: each core
//! appends finished spans to its own `CachePadded` buffer, so tracing the
//! mail pipeline does not serialize its stages on a shared log. Span names
//! are interned up front (registration takes a lock once); recording a span
//! is a push to the core-local buffer.
//!
//! [`TraceLog::to_chrome_json`] renders the buffers in the Chrome
//! trace-event format — complete (`"ph":"X"`) events with microsecond
//! timestamps, one `tid` per core — which loads directly into Perfetto or
//! `chrome://tracing`.

use crate::json::escape_into;
use crossbeam::utils::CachePadded;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An interned span name. Obtain with [`TraceLog::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(u32);

#[derive(Debug, Clone, Copy)]
struct SpanEvent {
    name: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// A per-core buffer of completed spans.
pub struct TraceLog {
    epoch: Instant,
    names: Mutex<Vec<String>>,
    cores: Box<[CachePadded<Mutex<Vec<SpanEvent>>>]>,
}

impl TraceLog {
    pub fn new(cores: usize) -> Arc<TraceLog> {
        Arc::new(TraceLog {
            epoch: Instant::now(),
            names: Mutex::new(Vec::new()),
            cores: (0..cores.max(1))
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
        })
    }

    /// Intern `name`, returning a copyable id for the record path. Interning
    /// the same string twice returns the same id.
    pub fn intern(&self, name: &str) -> SpanName {
        let mut names = self.names.lock().unwrap();
        if let Some(pos) = names.iter().position(|n| n == name) {
            return SpanName(pos as u32);
        }
        names.push(name.to_string());
        SpanName((names.len() - 1) as u32)
    }

    /// The log's epoch; span starts are measured from here.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record a completed span on `core` from `started` to `ended`.
    #[inline]
    pub fn record(&self, core: usize, name: SpanName, started: Instant, ended: Instant) {
        let start_ns = started.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = ended.saturating_duration_since(started).as_nanos() as u64;
        let slot = &self.cores[core % self.cores.len()];
        slot.lock().unwrap().push(SpanEvent {
            name: name.0,
            start_ns,
            dur_ns,
        });
    }

    /// Total spans recorded so far across all cores.
    pub fn len(&self) -> usize {
        self.cores
            .iter()
            .map(|slot| slot.lock().unwrap().len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of spans recorded under `name`.
    pub fn count_of(&self, name: SpanName) -> usize {
        self.cores
            .iter()
            .map(|slot| {
                slot.lock()
                    .unwrap()
                    .iter()
                    .filter(|event| event.name == name.0)
                    .count()
            })
            .sum()
    }

    /// Render the Chrome trace-event JSON document (`ts`/`dur` in µs,
    /// `tid` = core). Loads into Perfetto / `chrome://tracing` as-is.
    pub fn to_chrome_json(&self) -> String {
        let names = self.names.lock().unwrap();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (core, slot) in self.cores.iter().enumerate() {
            for event in slot.lock().unwrap().iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                let name = names
                    .get(event.name as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                out.push_str("{\"name\":");
                escape_into(name, &mut out);
                let _ = write!(
                    out,
                    ",\"cat\":\"scr\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":0,\"tid\":{}}}",
                    event.start_ns / 1_000,
                    event.start_ns % 1_000,
                    event.dur_ns / 1_000,
                    event.dur_ns % 1_000,
                    core
                );
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Write the Chrome trace to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_land_on_their_core_buffers() {
        let log = TraceLog::new(2);
        let deliver = log.intern("deliver");
        let enqueue = log.intern("enqueue");
        assert_eq!(log.intern("deliver"), deliver);
        let t0 = log.epoch();
        log.record(0, deliver, t0, t0 + Duration::from_micros(5));
        log.record(1, enqueue, t0, t0 + Duration::from_micros(2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.count_of(deliver), 1);
        let json = log.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"deliver\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.ends_with("}"));
    }
}
