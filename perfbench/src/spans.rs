//! The benchmark's own span recorder. It lives here, not in `res-obs`,
//! so the yardstick does not change with the code it measures.
//!
//! A span is a name (`<layer>.<call>`), a start and an end on one
//! monotonic clock, its parent span, and the request it served. Spans
//! are kept in memory and written out when the run ends. A layer's self
//! time is the time its spans cover minus the part their child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Handle to an open span, passed to calls made inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Records spans when enabled; when disabled every call runs its
/// closure and records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing (end-to-end runs).
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording tracer (the separate traced run).
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`, serving
    /// request `req`. `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: parent.map(|p| p.0),
                req,
            });
            spans.len() - 1
        };
        let out = f(Some(SpanId(id)));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock poisoned")[id].end_ns = end_ns;
        out
    }

    /// A root span with no request.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, None, 0, |_| f())
    }

    /// Durations in milliseconds of every span named `name`, in the
    /// order they started.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time in milliseconds per layer (the span name up to its
    /// first `.`), summed over every recorded span.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        self_ms_by_layer(&spans)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Union of the children's intervals, clipped to the parent.
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(layer_of(s.name).to_string()).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("serve.rtt", 0, 10_000_000, None),
            // Two overlapping children cover 2..7 ms: 5 ms.
            span("json.decode", 2_000_000, 5_000_000, Some(0)),
            span("json.encode", 4_000_000, 7_000_000, Some(0)),
            // A grandchild inside the first child.
            span("wire.frame", 3_000_000, 4_000_000, Some(1)),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert_eq!(by_layer["serve"], 5.0);
        // json: decode 3 ms − 1 ms grandchild, encode 3 ms.
        assert_eq!(by_layer["json"], 5.0);
        assert_eq!(by_layer["wire"], 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("engine.new", None, 1, |id| id), None);
        assert!(t.durations_ms("engine.new").is_empty());
        let t = Tracer::on();
        let id = t.span("engine.new", None, 1, |id| id);
        assert!(id.is_some());
        assert_eq!(t.durations_ms("engine.new").len(), 1);
    }
}
