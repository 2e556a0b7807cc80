//! Chrome `trace_event` JSON writer (Perfetto / `chrome://tracing`).
//!
//! Renders duration ("X"), instant ("i"), counter ("C") and metadata
//! ("M") events into the JSON-object trace format — the
//! `{"traceEvents": [...]}` envelope — which both Perfetto and the
//! legacy `chrome://tracing` viewer load directly. Timestamps are in
//! microseconds; the flight recorder maps one modeled cycle to one
//! microsecond so the timeline reads in cycles.
//!
//! Each event is a [`Metrics`] map written in the workspace codec's
//! compact layout, so escaping and number formatting match every other
//! JSON document the workspace emits.

use crate::metrics::Metrics;

/// Builder for a Chrome `trace_event` JSON document.
///
/// Events are rendered eagerly into compact one-line JSON objects, so a
/// `ChromeTrace` holds strings, not structures — memory stays
/// proportional to the final document.
///
/// # Example
///
/// ```
/// use cdvm_stats::ChromeTrace;
///
/// let mut ct = ChromeTrace::new();
/// ct.process_name(1, "vm-soft");
/// ct.thread_name(1, 0, "phases");
/// ct.complete(1, 0, "interp", "phase", 0.0, 150.0);
/// ct.instant(1, 0, "watchdog", "event", 75.0);
/// ct.counter(1, "ipc", 150.0, &[("x86", 0.42)]);
/// let json = ct.to_json();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.trim_end().ends_with("]}"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

/// Microsecond timestamps and durations must be finite and
/// non-negative; clamp rather than emit JSON the viewer rejects.
fn clean_us(ts: f64) -> f64 {
    if ts.is_finite() && ts >= 0.0 {
        ts
    } else {
        0.0
    }
}

impl ChromeTrace {
    /// Creates an empty trace document.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders one event: the common fields, then whatever `extra` adds
    /// (`dur`, `s`, `args`), in the codec's compact layout.
    fn push_event(
        &mut self,
        ph: &str,
        (pid, tid): (u32, u32),
        name: &str,
        cat: &str,
        ts: f64,
        extra: impl FnOnce(&mut Metrics),
    ) {
        let mut e = Metrics::new();
        e.set("ph", ph)
            .set("pid", u64::from(pid))
            .set("tid", u64::from(tid))
            .set("name", name);
        if !cat.is_empty() {
            e.set("cat", cat);
        }
        e.set("ts", clean_us(ts));
        extra(&mut e);
        self.events.push(e.to_json_compact());
    }

    /// Names the process (Perfetto track group) `pid`.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.metadata((pid, 0), "process_name", name);
    }

    /// Names thread (track) `tid` of process `pid`.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.metadata((pid, tid), "thread_name", name);
    }

    fn metadata(&mut self, track: (u32, u32), event: &str, name: &str) {
        let mut args = Metrics::new();
        args.set("name", name);
        self.push_event("M", track, event, "", 0.0, |e| {
            e.set("args", args);
        });
    }

    /// Adds a complete ("X") duration event spanning `[ts, ts + dur]`
    /// microseconds.
    pub fn complete(&mut self, pid: u32, tid: u32, name: &str, cat: &str, ts: f64, dur: f64) {
        self.push_event("X", (pid, tid), name, cat, ts, |e| {
            e.set("dur", clean_us(dur));
        });
    }

    /// Adds a thread-scoped instant ("i") event.
    pub fn instant(&mut self, pid: u32, tid: u32, name: &str, cat: &str, ts: f64) {
        self.push_event("i", (pid, tid), name, cat, ts, |e| {
            e.set("s", "t");
        });
    }

    /// Adds an instant event carrying an `args` payload (shown in the
    /// Perfetto detail pane).
    pub fn instant_args(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts: f64,
        args: &Metrics,
    ) {
        self.push_event("i", (pid, tid), name, cat, ts, |e| {
            e.set("s", "t").set("args", args.clone());
        });
    }

    /// Adds a counter ("C") sample. Each `(series, value)` pair becomes
    /// a line on the counter track `name`.
    pub fn counter(&mut self, pid: u32, name: &str, ts: f64, series: &[(&str, f64)]) {
        let mut args = Metrics::new();
        for (k, v) in series {
            args.set(k, *v);
        }
        self.push_event("C", (pid, 0), name, "counter", ts, |e| {
            e.set("args", args);
        });
    }

    /// Appends every event of `other` (cross-layer merge: e.g. service
    /// span rows plus a VM instance's flight-recorder tracks in one
    /// Perfetto document — events are self-contained one-line JSON
    /// objects, so concatenation is the whole merge).
    pub fn append(&mut self, other: &ChromeTrace) {
        self.events.extend(other.events.iter().cloned());
    }

    /// Serializes to the JSON-object trace format:
    /// `{"traceEvents": [...]}` with one event per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.events.iter().map(|e| e.len() + 2).sum::<usize>());
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_shapes() {
        let mut ct = ChromeTrace::new();
        ct.process_name(3, "run \"a\"");
        ct.thread_name(3, 1, "events");
        ct.complete(3, 0, "interp", "phase", 10.0, 5.5);
        ct.instant(3, 1, "flush", "cache", 12.0);
        let mut args = Metrics::new();
        args.set("entry", 0x1000u64);
        ct.instant_args(3, 1, "demoted", "tier", 13.0, &args);
        ct.counter(3, "occupancy", 14.0, &[("bbt", 0.25), ("sbt", 0.5)]);
        assert_eq!(ct.len(), 6);
        let j = ct.to_json();
        assert!(j.contains("\"ph\":\"M\""), "{j}");
        assert!(j.contains("\"name\":\"run \\\"a\\\"\""), "{j}");
        assert!(j.contains("\"ph\":\"X\",\"pid\":3,\"tid\":0,\"name\":\"interp\",\"cat\":\"phase\",\"ts\":10.0,\"dur\":5.5"), "{j}");
        assert!(j.contains("\"ph\":\"i\""), "{j}");
        assert!(j.contains("\"s\":\"t\""), "{j}");
        assert!(j.contains("\"args\":{\"entry\":4096}"), "{j}");
        assert!(j.contains("\"ph\":\"C\""), "{j}");
        assert!(j.contains("\"args\":{\"bbt\":0.25,\"sbt\":0.5}"), "{j}");
    }

    #[test]
    fn envelope_is_wellformed() {
        let ct = ChromeTrace::new();
        assert!(ct.is_empty());
        assert_eq!(ct.to_json(), "{\"traceEvents\":[\n]}\n");
        let mut ct = ChromeTrace::new();
        ct.instant(1, 0, "a", "c", 1.0);
        ct.instant(1, 0, "b", "c", 2.0);
        let j = ct.to_json();
        // Exactly one comma between the two events, none trailing.
        assert_eq!(j.matches("},\n{").count() + j.matches("},{").count(), 1, "{j}");
        assert!(!j.contains(",\n]"), "{j}");
    }

    #[test]
    fn hostile_strings_are_escaped_everywhere() {
        // Tenant names and poison signatures are client-chosen; every
        // string position must escape quotes, backslashes and control
        // characters into legal JSON.
        let nasty = "t\"x\\y\u{1}\nz\tq\r\u{7f}";
        let mut ct = ChromeTrace::new();
        ct.process_name(1, nasty);
        ct.thread_name(1, 0, nasty);
        ct.complete(1, 0, nasty, nasty, 0.0, 1.0);
        ct.instant(1, 0, nasty, nasty, 2.0);
        let mut args = Metrics::new();
        args.set(nasty, nasty);
        ct.instant_args(1, 0, nasty, nasty, 3.0, &args);
        ct.counter(1, nasty, 4.0, &[(nasty, 1.0)]);
        let j = ct.to_json();
        // One line per event plus the envelope header/footer: a leaked
        // raw '\n' inside a string would split an event across lines.
        assert_eq!(j.trim_end().lines().count(), ct.len() + 2, "{j}");
        assert!(j.contains("\\u0001"), "{j}");
        assert!(j.contains("t\\\"x\\\\y"), "{j}");
        for line in j.lines().filter(|l| l.starts_with("{\"ph\"")) {
            // Other control characters must be escaped within the line.
            for raw in ['\u{1}', '\t', '\r'] {
                assert!(!line.contains(raw), "raw control char {raw:?} leaked: {line}");
            }
            // Every quote is either structural or escaped: an unescaped
            // quote inside a string would leave an odd structural count.
            let structural = line
                .as_bytes()
                .iter()
                .enumerate()
                .filter(|(i, b)| **b == b'"' && (*i == 0 || line.as_bytes()[i - 1] != b'\\'))
                .count();
            assert_eq!(structural % 2, 0, "unbalanced quotes in {line}");
        }
    }

    #[test]
    fn append_merges_documents() {
        let mut a = ChromeTrace::new();
        a.instant(1, 0, "svc", "span", 1.0);
        let mut b = ChromeTrace::new();
        b.instant(2, 0, "vm", "phase", 2.0);
        a.append(&b);
        assert_eq!(a.len(), 2);
        let j = a.to_json();
        assert!(j.contains("\"pid\":1") && j.contains("\"pid\":2"), "{j}");
    }

    #[test]
    fn non_finite_values_are_sanitized() {
        let mut ct = ChromeTrace::new();
        ct.complete(1, 0, "x", "c", f64::NAN, f64::INFINITY);
        ct.counter(1, "c", -5.0, &[("v", f64::NAN)]);
        let j = ct.to_json();
        assert!(!j.contains("NaN") && !j.contains("inf"), "{j}");
        assert!(j.contains("\"ts\":0.0"), "{j}");
        assert!(j.contains("\"v\":null"), "{j}");
    }
}
