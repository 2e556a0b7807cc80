//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and end on one host
//! clock, the span that caused it, a key naming the input it worked on
//! (an `app/machine` pair or a job id) and a work count (instructions,
//! blocks, micro-ops, jobs). Spans stay in memory and are written out
//! when the run ends; the per-layer table is computed from them.

use std::collections::BTreeMap;
use std::time::Instant;

use cdvm_stats::Metrics;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub key: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: f64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

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

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        key: impl Into<String>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            key: key.into(),
            start_ns,
            end_ns: start_ns,
            count: 0.0,
        });
        id
    }

    /// Closes span `id`, recording `count` units of work done in it.
    /// Returns its duration.
    pub fn end(&mut self, id: u32, count: f64) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.count = count;
        s.dur_ns()
    }

    /// Records an already-measured interval (service spans reported by
    /// the program, shifted onto this log's clock).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        key: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        count: f64,
    ) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            key: key.into(),
            start_ns,
            end_ns,
            count,
        });
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every `name` span, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64).collect()
    }

    /// For each key, the fastest `name` span on `clock` and its work
    /// count; returns `(sum of those durations in ns, sum of their
    /// counts)`.
    pub fn fastest_per_key(&self, name: &str, clock: &ContentionClock) -> (f64, f64) {
        let mut best: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for s in self.named(name) {
            let e = best.entry(s.key.as_str()).or_insert((f64::INFINITY, 0.0));
            let d = clock.dur(s);
            if d < e.0 {
                *e = (d, s.count);
            }
        }
        best.values()
            .fold((0.0, 0.0), |(t, c), &(d, n)| (t + d, c + n))
    }

    /// Per span name: spans, total and self time in ms (self time is the
    /// duration minus what the span's children cover).
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
        }
        by_name
            .into_iter()
            .map(|(n, (k, tot, own))| (n, k, tot as f64 / 1e6, own as f64 / 1e6))
            .collect()
    }

    pub fn to_metrics(&self) -> Metrics {
        let list: Vec<Metrics> = self
            .spans
            .iter()
            .map(|s| {
                let mut m = Metrics::new();
                m.set("id", u64::from(s.id))
                    .set("parent", s.parent.map_or(-1, i64::from))
                    .set("name", s.name)
                    .set("key", s.key.as_str())
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("count", s.count);
                m
            })
            .collect();
        let mut m = Metrics::new();
        m.set("spans", list);
        m
    }
}

/// A clock that ticks at the host's uncontended speed: its time runs
/// slower, by the contention factor the `probe` bursts measured, while
/// other tenants slow the host. The factor is a burst over the fastest
/// burst, interpolated linearly between bursts and held flat outside
/// them. An interval on this clock is what it would have taken at the
/// host's fastest.
pub struct ContentionClock {
    /// `(log time in ns, factor)` at each burst's midpoint.
    points: Vec<(f64, f64)>,
    /// Clock reading at each point.
    at_point: Vec<f64>,
}

impl ContentionClock {
    pub fn new(log: &SpanLog) -> ContentionClock {
        let bursts: Vec<&Span> = log.named("probe").collect();
        let fastest = bursts.iter().map(|b| b.count).fold(f64::INFINITY, f64::min);
        let points: Vec<(f64, f64)> = bursts
            .iter()
            .map(|b| {
                (
                    (b.start_ns + b.end_ns) as f64 / 2.0,
                    (b.count / fastest).max(1.0),
                )
            })
            .collect();
        let mut at_point = Vec::with_capacity(points.len());
        let mut t = points.first().map_or(0.0, |p| p.0 / p.1);
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                let q = points[i - 1];
                t += (p.0 - q.0) * (1.0 / q.1 + 1.0 / p.1) / 2.0;
            }
            at_point.push(t);
        }
        ContentionClock { points, at_point }
    }

    /// The reading at log time `t_ns`.
    pub fn at(&self, t_ns: f64) -> f64 {
        let i = self.points.partition_point(|p| p.0 <= t_ns);
        match (i.checked_sub(1), self.points.get(i)) {
            (None, None) => t_ns,
            (None, Some(&(t1, f1))) => self.at_point[0] - (t1 - t_ns) / f1,
            (Some(k), None) => {
                let (t0, f0) = self.points[k];
                self.at_point[k] + (t_ns - t0) / f0
            }
            (Some(k), Some(&(t1, f1))) => {
                let (t0, f0) = self.points[k];
                let f = f0 + (f1 - f0) * (t_ns - t0) / (t1 - t0);
                self.at_point[k] + (t_ns - t0) * (1.0 / f0 + 1.0 / f) / 2.0
            }
        }
    }

    /// Span `s`'s duration on this clock, in ns.
    pub fn dur(&self, s: &Span) -> f64 {
        self.at(s.end_ns as f64) - self.at(s.start_ns as f64)
    }
}
