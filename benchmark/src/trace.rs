//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, category (the layer), request id, parent,
//! start and end. Spans stay in memory until the run ends, then the run
//! writes them as Chrome trace-event JSON (open it in Perfetto or
//! `chrome://tracing`). With tracing off, [`Tracer::span`] only runs the
//! closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: String,
    cat: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. Nesting follows the closure nesting of [`Tracer::span`].
pub struct Tracer {
    enabled: bool,
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Totals of one category over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses (`false`) or resumes span recording in a traced run, so a
    /// traced run can interleave untraced calls to measure tracing
    /// overhead. No effect when tracing is off.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of category `cat` for request
    /// `req`. Spans opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        cat: &'static str,
        name: &str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.recording {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            cat,
            req,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children of one span never overlap, since calls are
    /// sequential).
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Totals per category.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.cat).or_default();
            t.count += 1;
            t.total_ms += (s.end_ns - s.start_ns) as f64 / 1e6;
            t.self_ms += self_ns as f64 / 1e6;
        }
        out
    }

    /// Durations in ms of every span of category `cat`, in recording order.
    pub fn durations_ms(&self, cat: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.cat == cat)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per-request sums in ms of the spans whose category is in `cats`, in
    /// request order, for every request that has at least one such span.
    pub fn per_request_ms(&self, cats: &[&str]) -> Vec<f64> {
        let mut by_req: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| cats.contains(&s.cat)) {
            *by_req.entry(s.req).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        by_req.into_values().collect()
    }

    /// The spans as Chrome trace-event JSON ("X" complete events, times in
    /// microseconds). Each event carries its request id, parent index and
    /// self time in `args`.
    pub fn chrome_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"req\":{},\
                 \"parent\":{},\"self_us\":{:.3}}}}}",
                escape(&s.name),
                s.cat,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                s.req,
                parent,
                own as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Cost of recording one empty span, in microseconds, measured over
/// `n` spans on a throwaway tracer.
pub fn span_cost_us(n: usize) -> f64 {
    let mut t = Tracer::new(true);
    t.spans.reserve(n);
    let start = Instant::now();
    for i in 0..n {
        t.span("probe", "probe", i as u64, |_| ());
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", "outer", 1, |t| {
            t.span("inner", "a", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", "b", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.count, 2);
        assert!((outer.total_ms - outer.self_ms - inner.total_ms).abs() < 1e-6);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", "x", 0, |_| 7), 7);
        assert!(t.totals().is_empty());
    }
}
