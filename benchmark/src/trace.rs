//! In-memory spans around the calls into each layer, written out as JSONL
//! when the traced run ends. A layer's self time is its span minus its
//! children.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: usize,
    /// Measured on the lock-step twin, outside its parent's interval: the
    /// same work the parent did inside the program, timed where it can be
    /// reached from outside. Counts as the parent's child by duration.
    pub twin: bool,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span handle; `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Turns recording on or off; only between requests.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "no span is open");
        self.on = on;
    }

    /// The request the next spans belong to, without opening a root span.
    pub fn set_request(&mut self, request: usize) {
        self.request = request;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, twin: bool) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            request: self.request,
            twin,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens the root span of request `request`.
    pub fn begin_request(&mut self, request: usize) -> SpanId {
        self.set_request(request);
        self.enter("request")
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.push(name, self.open.last().copied(), false)?;
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end_us = self.now_us();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// A leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// A twin span around `f`, attributed to `parent`.
    pub fn time_twin<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.push(name, parent, true);
        let out = f();
        if let Some(id) = id {
            self.spans[id].end_us = self.now_us();
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and total self time per span name, in µs. Self time
    /// is taken over the name as a whole (all its spans minus all their
    /// children): a twin span is a second measurement of work its parent
    /// did, and on a single request it can come out longer than the parent.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = out.entry(span.name).or_default();
            entry.0 += span.duration_us();
            entry.1 += span.duration_us();
            if let Some(parent) = span.parent {
                out.entry(self.spans[parent].name).or_default().1 -= span.duration_us();
            }
        }
        for entry in out.values_mut() {
            entry.1 = entry.1.max(0.0);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(span.name.into())),
                ("start_us", Json::Num(span.start_us)),
                ("end_us", Json::Num(span.end_us)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("request", Json::Num(span.request as f64)),
                ("twin", Json::Bool(span.twin)),
            ]);
            writeln!(file, "{}", line.render())?;
        }
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let root = t.begin_request(7);
        let outer = t.enter("outer");
        t.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        t.time_twin("twin", outer, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(root);
        let totals = t.totals();
        let (outer_total, outer_self) = totals["outer"];
        let (leaf_total, leaf_self) = totals["leaf"];
        assert!(leaf_total >= 2000.0 && leaf_self == leaf_total);
        assert!(outer_total >= leaf_total);
        assert!(outer_self <= outer_total - leaf_total + 1.0);
        assert_eq!(t.spans()[3].parent, outer);
        assert!(t.spans().iter().all(|s| s.request == 7));

        let mut off = Tracer::new(false);
        let id = off.enter("x");
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
