//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own files only, around the calls
//! it makes into each layer; nothing inside the program under test is
//! instrumented. A span is `name, start, end, parent, request id`. Spans
//! stay in memory while the run measures and are written out once, at exit.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open or closed span; `SpanId::NONE` when tracing is off or
/// the span has no parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request (a query, a replayed item) share this id.
    pub request: u64,
}

pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-name aggregate over recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameSummary {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval covered by child spans.
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off; spans opened while off are not recorded.
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes no other data, and a span straddling
        // the switch is either wholly recorded or wholly dropped.
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled.load(Ordering::Relaxed) {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no tracer user panics while recording");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        SpanId((spans.len() - 1) as u32)
    }

    pub fn end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no tracer user panics while recording");
        spans[id.0 as usize].end_ns = end_ns;
    }

    /// Records `body` as one span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        body: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = body(id);
        self.end(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no tracer user panics while recording")
            .clone()
    }
}

/// Aggregates spans per name. A span's self time is its duration minus the
/// union of its children's intervals (children of concurrent requests may
/// overlap; the union counts covered time once), clipped to the span.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != SpanId::NONE {
            let p = &spans[s.parent.0 as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent.0 as usize].push((lo, hi));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += total;
        e.self_ns += total - covered;
    }
    out
}

/// The trace file: every span plus the per-name summary.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let us = |ns: u64| Value::Num(ns as f64 / 1e3);
    let span_values = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::obj([
                ("id", Value::Int(i as u64)),
                ("name", Value::str(s.name)),
                ("start_us", us(s.start_ns)),
                ("end_us", us(s.end_ns)),
                (
                    "parent",
                    if s.parent == SpanId::NONE {
                        Value::Null
                    } else {
                        Value::Int(s.parent.0 as u64)
                    },
                ),
                ("request", Value::Int(s.request)),
            ])
        })
        .collect();
    let summary = summarize(spans)
        .into_iter()
        .map(|(name, s)| {
            (
                name,
                Value::obj([
                    ("count", Value::Int(s.count)),
                    ("total_us", us(s.total_ns)),
                    ("self_us", us(s.self_ns)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Int(seed)),
        ("summary", Value::obj(summary)),
        ("spans", Value::Arr(span_values)),
    ])
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("slice", 0, 100, SpanId::NONE),
            // Two overlapping in-flight queries: cover 10..70 once.
            span("query", 10, 50, SpanId(0)),
            span("query", 30, 70, SpanId(0)),
            // A grandchild only reduces its own parent.
            span("wait", 35, 65, SpanId(2)),
            // A child that outlives its parent is clipped to it.
            span("late", 90, 130, SpanId(0)),
        ];
        let sum = summarize(&spans);
        assert_eq!(
            sum["slice"],
            NameSummary {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 60 - 10
            }
        );
        assert_eq!(sum["query"].count, 2);
        assert_eq!(sum["query"].total_ns, 80);
        assert_eq!(sum["query"].self_ns, 40 + (40 - 30));
        assert_eq!(sum["wait"].self_ns, 30);
        assert_eq!(sum["late"].total_ns, 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        let id = t.begin("x", SpanId::NONE, 1);
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let depth = t.span("outer", SpanId::NONE, 7, |outer| {
            t.span("inner", outer, 7, |inner| {
                assert_ne!(inner, SpanId::NONE);
                2
            })
        });
        assert_eq!(depth, 2);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, SpanId(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        // Whole-valued microseconds re-parse as integers, so compare text.
        let text = to_json("w", 3, &spans).encode();
        assert_eq!(crate::json::parse(&text).unwrap().encode(), text);
    }
}
