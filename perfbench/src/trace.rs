//! The benchmark's own span recorder for the traced run.
//!
//! Spans wrap calls into a layer's public functions from outside: name,
//! start, end, parent span and request id.  They are kept in memory and
//! written out when the run ends.  A span's self time is its duration
//! minus the part of it that its child spans cover.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str, request: u64) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_us = self.now_us();
    }

    /// Close span `id` under a name chosen after the call returned (e.g. a
    /// cache hit or miss).
    pub fn end_as(&mut self, id: usize, name: &str) {
        self.spans[id].name = name.to_string();
        self.end(id);
    }

    /// Time `f` inside a span.
    pub fn span<R>(&mut self, name: &str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Add an already-measured span (e.g. one the program emitted into its
    /// own recorder) under `parent`.
    pub fn insert(&mut self, name: &str, start_us: f64, end_us: f64, parent: usize) {
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent: Some(parent),
            request,
        });
    }

    /// Move another thread's spans into this recorder (same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-name totals: `(count, total duration µs, total self time µs)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_us - s.start_us;
        // Union of the children's intervals, clipped to the parent.
        let mut iv: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_us.max(s.start_us),
                    spans[c].end_us.min(s.end_us),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
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
        let e = out.entry(s.name.clone()).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered;
    }
    out
}

/// Total duration of the root spans named `root` (the end-to-end time the
/// self times account for).
pub fn root_total_us(spans: &[Span], root: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| s.end_us - s.start_us)
        .sum()
}

/// The self-time breakdown of the spans under roots named `root`: per
/// layer name its share of the roots' total time.  The shares sum to 1 up
/// to rounding; the root's own self time is the named remainder.
pub fn accounting(spans: &[Span], root: &str) -> Vec<(String, f64)> {
    // Keep the trees under the selected roots only.
    let mut keep = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        keep[i] = match s.parent {
            None => s.name == root,
            Some(p) => keep[p],
        };
    }
    let index: Vec<usize> = (0..spans.len()).filter(|&i| keep[i]).collect();
    let mut remap = vec![usize::MAX; spans.len()];
    for (k, &i) in index.iter().enumerate() {
        remap[i] = k;
    }
    let sub: Vec<Span> = index
        .iter()
        .map(|&i| {
            let mut s = spans[i].clone();
            s.parent = s.parent.map(|p| remap[p]);
            s
        })
        .collect();
    let total = root_total_us(&sub, root);
    self_times(&sub)
        .into_iter()
        .map(|(name, (_, _, self_us))| (name, if total > 0.0 { self_us / total } else { 0.0 }))
        .collect()
}

/// JSON of every span, for the trace file.
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Seq(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Map(vec![
                    ("id".into(), Value::UInt(i as u64)),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_us".into(), Value::Float(s.start_us)),
                    ("end_us".into(), Value::Float(s.end_us)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("request".into(), Value::UInt(s.request)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us: a,
            end_us: b,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("b", 30.0, 50.0, Some(0)), // overlaps a
            span("c", 60.0, 70.0, Some(0)),
            span("leaf", 12.0, 20.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].2, 100.0 - 40.0 - 10.0);
        assert_eq!(t["a"].2, 30.0 - 8.0);
        assert_eq!(t["leaf"].2, 8.0);
        let acc = accounting(&spans, "root");
        // Overlapping siblings are each charged in full, so shares only sum
        // to 1 for properly nested spans; here a and b overlap by 10.
        let sum: f64 = acc.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.1).abs() < 1e-12, "{sum}");
    }

    #[test]
    fn nested_spans_account_for_the_root() {
        let mut t = Tracer::new(Instant::now());
        for r in 0..3 {
            let root = t.begin("req", r);
            t.span("x", r, || std::hint::black_box(0));
            let y = t.begin("y", r);
            t.span("z", r, || ());
            t.end(y);
            t.end(root);
        }
        let acc = accounting(&t.spans, "req");
        let sum: f64 = acc.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        assert!(t.spans.iter().all(|s| s.end_us >= s.start_us));
    }
}
