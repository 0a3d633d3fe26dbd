//! In-memory spans around the benchmark's calls into each layer, their
//! self times, and a Chrome trace written once at the end.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Times are microseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `blas.gemm_mixed`.
    pub name: String,
    /// Start, µs.
    pub start: f64,
    /// End, µs (`NaN` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread. A disabled tracer records nothing,
/// so the untimed bookkeeping stays out of untraced runs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (inert when the tracer is disabled).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id].end = self.now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace (`chrome://tracing` / Perfetto) of every closed span,
    /// tagged with the run id.
    pub fn chrome_json(&self, run_id: &str) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end.is_finite())
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"run\":\"{run_id}\"}}}}",
                    s.name,
                    s.start,
                    s.end - s.start,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Self time per span name, seconds: each span's duration minus the part
/// of it its direct children cover, summed over spans of the same name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, mut kids) in spans.iter().zip(children) {
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = s.start;
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name.clone()).or_insert(0.0) += (s.end - s.start - covered) * 1e-6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100] ⊃ a [10,40] ⊃ c [20,30]; b [35,70] overlaps a.
        let spans = [
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("c", 20.0, 30.0, Some(1)),
            span("b", 35.0, 70.0, Some(0)),
        ];
        let st = self_times(&spans);
        // root's children cover [10,70] = 60 µs.
        assert!((st["root"] - 40e-6).abs() < 1e-12);
        assert!((st["a"] - 20e-6).abs() < 1e-12);
        assert!((st["c"] - 10e-6).abs() < 1e-12);
        assert!((st["b"] - 35e-6).abs() < 1e-12);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        for _ in 0..3 {
            t.time("blas.gemm", || {
                std::hint::black_box((0..1000).sum::<u64>());
            });
        }
        t.time("lcg.fill", || ());
        t.end(root);
        let st = self_times(t.spans());
        let root_dur = (t.spans()[0].end - t.spans()[0].start) * 1e-6;
        let sum: f64 = st.values().sum();
        assert!((sum - root_dur).abs() < 1e-9, "{sum} vs {root_dur}");
        assert_eq!(t.spans().iter().filter(|s| s.parent == Some(0)).count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
