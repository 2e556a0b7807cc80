//! Per-job span trees: the service-level half of the observability
//! plane.
//!
//! Every admitted job carries an ordered list of spans recording its
//! path through the service — `admission`, `queued` (one per attempt),
//! `stamp` (with the restore outcome attached), `run`, `retry_backoff`
//! and the `terminal` marker. Spans are recorded exclusively by the
//! single-writer job transitions in `service.rs`, always under the jobs
//! lock, so the exactly-once lifecycle accounting extends to the spans
//! unchanged; retention rides the same `terminal_retention` eviction
//! that bounds the job table.
//!
//! Timestamps are host nanoseconds since the service epoch
//! ([`Service::start`](crate::Service::start)), taken from the *same*
//! `Instant`s that produce the job's telemetry (`latency_ns`,
//! `queue_ns`), so span boundaries and telemetry agree exactly.
//! Rendering into [`ChromeTrace`] divides by 1000 (Perfetto reads
//! microseconds).

use cdvm_stats::{ChromeTrace, MetricValue, Metrics};

/// One span (or instantaneous marker) in a job's service timeline.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stable name: `admission`, `queued`, `stamp`, `run`,
    /// `retry_backoff` or `terminal`.
    pub name: &'static str,
    /// Host nanoseconds since the service epoch.
    pub start_ns: u64,
    /// Close time; `None` while the span is still open.
    pub end_ns: Option<u64>,
    /// Attributes (restore outcome, worker, attempt, cycles, ...).
    pub attrs: Metrics,
}

/// The ordered span record of one job.
#[derive(Debug, Clone, Default)]
pub struct JobSpans {
    spans: Vec<Span>,
}

impl JobSpans {
    /// Records an already-closed span.
    pub fn push_closed(&mut self, name: &'static str, start_ns: u64, end_ns: u64, attrs: Metrics) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: Some(end_ns.max(start_ns)),
            attrs,
        });
    }

    /// Opens a span; it stays open until [`JobSpans::close`] (or
    /// [`JobSpans::close_all`] at the terminal transition).
    pub fn open(&mut self, name: &'static str, start_ns: u64, attrs: Metrics) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            attrs,
        });
    }

    /// Closes the newest open span named `name`, merging `attrs` into
    /// it. Returns false when no such span is open (the caller's
    /// transition raced an eviction — never a second writer).
    pub fn close(&mut self, name: &'static str, end_ns: u64, attrs: Metrics) -> bool {
        for s in self.spans.iter_mut().rev() {
            if s.name == name && s.end_ns.is_none() {
                s.end_ns = Some(end_ns.max(s.start_ns));
                for (k, v) in attrs.iter() {
                    s.attrs.set(k, v.clone());
                }
                return true;
            }
        }
        false
    }

    /// Closes every still-open span at `end_ns` (terminal transition,
    /// retry, orphan requeue).
    pub fn close_all(&mut self, end_ns: u64) {
        for s in &mut self.spans {
            if s.end_ns.is_none() {
                s.end_ns = Some(end_ns.max(s.start_ns));
            }
        }
    }

    /// The spans recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the tree as a metrics document (`{"spans": [...]}` with
    /// `name`/`start_ns`/`end_ns`/`dur_ns`/attribute fields per span) —
    /// the body of `GET /jobs/<id>/spans`.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        let list: Vec<Metrics> = self
            .spans
            .iter()
            .map(|s| {
                let mut e = Metrics::new();
                e.set("name", s.name).set("start_ns", s.start_ns);
                if let Some(end) = s.end_ns {
                    e.set("end_ns", end).set("dur_ns", end - s.start_ns);
                } else {
                    e.set("open", true);
                }
                if s.attrs.iter().count() > 0 {
                    e.set("attrs", s.attrs.clone());
                }
                e
            })
            .collect();
        m.set("spans", list);
        m
    }

    /// Renders the service timeline into `ct` under process `pid`:
    /// lifecycle spans as duration events on tid 0, markers (`terminal`,
    /// breaker trips) as instants on tid 1, and any `inflight` /
    /// `queue_depth` / `delayed` attributes as counter samples — the
    /// service rows that stack above the VM flight-recorder tracks in
    /// the merged Perfetto document.
    pub fn render_chrome(&self, ct: &mut ChromeTrace, pid: u32, label: &str) {
        ct.process_name(pid, label);
        ct.thread_name(pid, 0, "lifecycle");
        ct.thread_name(pid, 1, "markers");
        for s in &self.spans {
            let ts = s.start_ns as f64 / 1000.0;
            match s.end_ns {
                Some(end) if s.name != "terminal" => {
                    ct.complete(pid, 0, s.name, "service", ts, (end - s.start_ns) as f64 / 1000.0);
                }
                _ => {}
            }
            if s.name == "terminal" || s.end_ns.is_none() {
                ct.instant_args(pid, 1, s.name, "service", ts, &s.attrs);
            }
            let warm = s.attrs.get("warm").and_then(MetricValue::as_str);
            if s.name == "stamp" && warm.is_some_and(|w| w != "warm") {
                ct.instant_args(pid, 1, "degraded_stamp", "breaker", ts, &s.attrs);
            }
            let series: Vec<(&str, f64)> = ["inflight", "queue_depth", "delayed"]
                .into_iter()
                .filter_map(|key| Some((key, s.attrs.get(key)?.as_u64()? as f64)))
                .collect();
            if !series.is_empty() {
                ct.counter(pid, "service_load", ts, &series);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn open_close_merge_and_ordering() {
        let mut js = JobSpans::default();
        let mut a = Metrics::new();
        a.set("inflight", 3u64);
        js.push_closed("admission", 10, 10, a);
        js.open("queued", 10, Metrics::new());
        let mut run_attrs = Metrics::new();
        run_attrs.set("cycles", 123u64);
        assert!(!js.close("run", 50, Metrics::new()), "no open run span yet");
        js.close("queued", 40, Metrics::new());
        js.open("run", 40, Metrics::new());
        js.close("run", 90, run_attrs);
        js.push_closed("terminal", 90, 90, Metrics::new());
        let s = js.spans();
        assert_eq!(
            s.iter().map(|x| x.name).collect::<Vec<_>>(),
            ["admission", "queued", "run", "terminal"]
        );
        assert_eq!(s[1].end_ns, Some(40));
        assert_eq!(s[2].attrs.get("cycles"), Some(&MetricValue::U64(123)));
    }

    #[test]
    fn close_all_closes_only_open_spans() {
        let mut js = JobSpans::default();
        js.push_closed("queued", 5, 9, Metrics::new());
        js.open("run", 9, Metrics::new());
        js.close_all(20);
        assert_eq!(js.spans()[0].end_ns, Some(9));
        assert_eq!(js.spans()[1].end_ns, Some(20));
    }

    #[test]
    fn end_never_precedes_start() {
        let mut js = JobSpans::default();
        js.push_closed("retry_backoff", 100, 40, Metrics::new());
        assert_eq!(js.spans()[0].end_ns, Some(100));
    }

    #[test]
    fn renders_spans_markers_and_counters() {
        let mut js = JobSpans::default();
        let mut a = Metrics::new();
        a.set("inflight", 2u64).set("queue_depth", 1u64);
        js.push_closed("admission", 0, 0, a);
        let mut st = Metrics::new();
        st.set("warm", "cold");
        js.push_closed("stamp", 1000, 2000, st);
        js.open("run", 2000, Metrics::new());
        let mut t = Metrics::new();
        t.set("state", "completed");
        js.push_closed("terminal", 9000, 9000, t);
        let mut ct = ChromeTrace::new();
        js.render_chrome(&mut ct, 7, "job 1");
        let j = ct.to_json();
        assert!(j.contains("\"name\":\"stamp\""), "{j}");
        assert!(j.contains("degraded_stamp"), "{j}");
        assert!(j.contains("\"name\":\"terminal\""), "{j}");
        assert!(j.contains("service_load"), "{j}");
        // The open run span renders as a marker, not a duration event.
        assert!(j.contains("\"ph\":\"i\",\"pid\":7,\"tid\":1,\"name\":\"run\""), "{j}");
    }
}
