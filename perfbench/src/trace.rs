//! Benchmark-side spans: one span around every call the benchmark makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! Spans are recorded per thread (no locking on the hot path). A span's
//! parent is the span open on the same thread when it began; spans of one
//! request share its request id. Per-layer self time is a span's duration
//! minus the time its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `serve.submit`.
    pub name: &'static str,
    /// The crate the call enters, e.g. `ta-serve`.
    pub layer: &'static str,
    /// Request id shared by one request's spans (0 outside requests).
    pub req: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The spans of one thread. When tracing is off every call is a no-op.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    /// Thread label written with every span.
    thread: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder for one thread; records only when `on`.
    pub fn new(on: bool, epoch: Instant, thread: impl Into<String>) -> Self {
        Spans {
            on,
            epoch,
            thread: thread.into(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, layer: &'static str, req: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            req,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, layer, req);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Mean duration (ms) of the spans named `name` across all threads; 0
/// when there are none.
pub fn mean_ms(threads: &[Spans], name: &str) -> f64 {
    let durations: Vec<f64> = threads
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect();
    crate::layers::ratio(durations.iter().sum(), durations.len() as f64)
}

/// Per-layer totals: (spans, total ms, self ms).
pub fn self_times(threads: &[Spans]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for t in threads {
        let mut child_ms = vec![0.0; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        for (s, children) in t.spans.iter().zip(child_ms) {
            let e = out.entry(s.layer).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - children;
        }
    }
    out
}

/// Renders every span as one JSON line, then one `self_time` line per
/// layer.
pub fn to_jsonl(env_json: &str, threads: &[Spans]) -> String {
    let mut out = format!("{{\"env\": {env_json}}}\n");
    for t in threads {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\": \"{}\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"layer\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                t.thread, s.name, s.layer, s.req, s.start_ns, s.end_ns
            );
        }
    }
    for (layer, (n, total, own)) in self_times(threads) {
        let _ = writeln!(
            out,
            "{{\"self_time\": \"{layer}\", \"spans\": {n}, \"total_ms\": {total}, \"self_ms\": {own}}}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true, Instant::now(), "t");
        let outer = s.begin("outer", "a", 1);
        s.time("inner", "b", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.end(outer);
        let totals = self_times(&[s]);
        let (_, total_a, self_a) = totals["a"];
        let (_, total_b, self_b) = totals["b"];
        assert!(total_a >= total_b && total_b >= 5.0);
        assert!((self_a - (total_a - total_b)).abs() < 1e-9);
        assert!((self_b - total_b).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false, Instant::now(), "t");
        let id = s.begin("x", "a", 0);
        s.end(id);
        assert!(s.spans().is_empty());
    }
}
