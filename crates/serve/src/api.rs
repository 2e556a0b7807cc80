//! A hand-rolled localhost HTTP/1.1 JSON API over [`Service`].
//!
//! The workspace takes no network or serialization dependency, so the
//! HTTP framing is hand-rolled here. JSON goes through the workspace's
//! one codec in `cdvm-stats`: request bodies are read by the strict
//! [`Metrics::from_json`] and then checked to be a flat object of
//! strings, unsigned integers and booleans ([`parse_body`]); responses
//! are built with [`Metrics::to_json`].
//!
//! | Method & path                     | Action                                     |
//! |-----------------------------------|--------------------------------------------|
//! | `POST /jobs`                      | submit `{tenant, app, machine, ...}`       |
//! | `GET /jobs/<id>[?wait_ms=N]`      | job status (result once completed)         |
//! | `POST /jobs/<id>/cancel`          | request cancellation                       |
//! | `GET /jobs/<id>/spans`            | the job's recorded span tree               |
//! | `GET /jobs/<id>/trace`            | merged Perfetto (Chrome trace) document    |
//! | `GET /tenants/<t>/metrics`        | tenant telemetry snapshot                  |
//! | `GET /tenants/<t>/events?after=N` | per-job summaries newer than seq `N`       |
//! | `GET /healthz`                    | service health, SLO and pool/breaker state |
//! | `GET /metrics`                    | Prometheus text exposition (format 0.0.4)  |
//! | `POST /poison/clear`              | un-poison `{signature}` (or all, no body)  |
//! | `POST /drain`                     | graceful drain (persists warm images)      |

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cdvm_stats::{MetricValue, Metrics};
use cdvm_uarch::MachineKind;

use crate::error::{OverloadScope, ServeError};
use crate::job::{JobSpec, JobState};
use crate::service::Service;

/// Parses the API's machine names (the paper's labels, case-insensitive;
/// `-` and `_` are accepted for `.`): `vm.soft`, `vm.be`, `vm.fe`,
/// `vm.interp`, `ref`.
pub fn parse_machine(s: &str) -> Option<MachineKind> {
    let norm: String = s
        .trim()
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c == '-' || c == '_' { '.' } else { c })
        .collect();
    match norm.as_str() {
        "vm.soft" | "vmsoft" => Some(MachineKind::VmSoft),
        "vm.be" | "vmbe" => Some(MachineKind::VmBe),
        "vm.fe" | "vmfe" => Some(MachineKind::VmFe),
        "vm.interp" | "vminterp" => Some(MachineKind::VmInterp),
        "ref" | "ref.superscalar" | "refsuperscalar" => Some(MachineKind::RefSuperscalar),
        _ => None,
    }
}

/// Parses a request body: a flat JSON object of strings, unsigned
/// integers and booleans (`{"k": "v", "n": 3}`), read strictly by
/// [`Metrics::from_json`]. Nested containers, floats, negative numbers
/// and `null` are rejected, since the API's request bodies never hold
/// them. Returns `None` on any syntax error.
pub fn parse_body(body: &str) -> Option<Metrics> {
    let fields = Metrics::from_json(body).ok()?;
    let flat = fields.iter().all(|(_, v)| {
        matches!(
            v,
            MetricValue::Str(_) | MetricValue::U64(_) | MetricValue::Bool(_)
        )
    });
    flat.then_some(fields)
}

fn str_field(fields: &Metrics, key: &str) -> Option<String> {
    fields
        .get(key)
        .and_then(MetricValue::as_str)
        .map(str::to_string)
}

/// An unsigned field; `true`/`false` read as 1/0.
fn num_field(fields: &Metrics, key: &str) -> Option<u64> {
    match fields.get(key)? {
        MetricValue::U64(n) => Some(*n),
        MetricValue::Bool(b) => Some(u64::from(*b)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------------

/// A running API server bound to a localhost port.
pub struct ApiServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Connections currently being handled (incremented before the
    /// connection thread spawns, decremented after its response is
    /// written). A host process draining to exit must wait for this to
    /// reach zero, or it races the `POST /drain` response write.
    active: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// Decrements the active-connection count when the connection thread
/// finishes (response written) — or panics.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ApiServer {
    /// Binds `127.0.0.1:port` (0 picks a free port) and serves `service`
    /// until [`ApiServer::stop`] or drop. `persist_dir` is where
    /// `POST /drain` saves the healthy warm images.
    ///
    /// # Errors
    ///
    /// Any socket bind error.
    pub fn bind(
        service: Arc<Service>,
        port: u16,
        persist_dir: Option<PathBuf>,
    ) -> std::io::Result<ApiServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let active = Arc::new(AtomicUsize::new(0));
        let active2 = Arc::clone(&active);
        let accept_thread = std::thread::Builder::new()
            .name("cdvm-serve-api".to_string())
            .spawn(move || {
                while !stop2.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let service = Arc::clone(&service);
                            let dir = persist_dir.clone();
                            active2.fetch_add(1, Ordering::SeqCst);
                            let guard = ConnGuard(Arc::clone(&active2));
                            // One thread per connection: a blocking wait
                            // (`?wait_ms=`, `/drain`) must not stall the
                            // accept loop or other clients.
                            // (A failed spawn drops the closure — and
                            // with it the guard — so the slot is
                            // released either way.)
                            let _ = std::thread::Builder::new()
                                .name("cdvm-serve-conn".to_string())
                                .spawn(move || {
                                    let _guard = guard;
                                    handle_conn(&service, stream, dir.as_deref());
                                });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?;
        Ok(ApiServer {
            addr,
            stop,
            active,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (use when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being handled. Zero (after
    /// [`Service::is_drained`] flips) means every response — including
    /// the drain's own — has been written.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Stops the accept loop (in-flight connections finish).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ApiServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_conn(service: &Service, stream: TcpStream, persist_dir: Option<&std::path::Path>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return,
    };
    // Headers: only Content-Length matters.
    let mut content_len = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h).is_err() || h == "\r\n" || h == "\n" || h.is_empty() {
            break;
        }
        if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
            content_len = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_len.min(1 << 20)];
    if content_len > 0 && reader.read_exact(&mut body).is_err() {
        return;
    }
    let body = String::from_utf8_lossy(&body).into_owned();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let resp = route(service, &method, path, query, &body, persist_dir);
    let _ = write_response(&stream, &resp);
}

/// A response: status, reason, content type, extra headers, body.
struct Resp {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    headers: Vec<(String, String)>,
    body: String,
}

impl Resp {
    fn json(status: u16, reason: &'static str, m: &Metrics) -> Resp {
        Resp::text(status, reason, "application/json", m.to_json())
    }

    /// A pre-rendered body: JSON documents, the Prometheus exposition
    /// and the raw Chrome trace document (one JSON event per line, so
    /// the file downloads straight into Perfetto).
    fn text(status: u16, reason: &'static str, content_type: &'static str, body: String) -> Resp {
        Resp {
            status,
            reason,
            content_type,
            headers: Vec::new(),
            body,
        }
    }

    fn error(status: u16, reason: &'static str, msg: &str) -> Resp {
        let mut m = Metrics::new();
        m.set("error", msg);
        Resp::json(status, reason, &m)
    }
}

fn write_response(mut stream: &TcpStream, r: &Resp) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        r.status,
        r.reason,
        r.content_type,
        r.body.len()
    );
    for (k, v) in &r.headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(&r.body);
    stream.write_all(out.as_bytes())
}

fn query_u64(query: &str, key: &str) -> Option<u64> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

fn route(
    service: &Service,
    method: &str,
    path: &str,
    query: &str,
    body: &str,
    persist_dir: Option<&std::path::Path>,
) -> Resp {
    let segs: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (method, segs.as_slice()) {
        ("POST", ["jobs"]) => post_job(service, body),
        ("GET", ["jobs", id]) => match id.parse::<u64>() {
            Ok(id) => get_job(service, id, query_u64(query, "wait_ms")),
            Err(_) => Resp::error(400, "Bad Request", "job id must be an integer"),
        },
        ("GET", ["jobs", id, "spans"]) => match id.parse::<u64>() {
            Ok(id) => match service.job_spans(id) {
                Some(m) => Resp::json(200, "OK", &m),
                None => Resp::error(404, "Not Found", "unknown job"),
            },
            Err(_) => Resp::error(400, "Bad Request", "job id must be an integer"),
        },
        ("GET", ["jobs", id, "trace"]) => match id.parse::<u64>() {
            Ok(id) => match service.job_trace(id) {
                Some(body) => Resp::text(200, "OK", "application/json", body),
                None => Resp::error(404, "Not Found", "unknown job"),
            },
            Err(_) => Resp::error(400, "Bad Request", "job id must be an integer"),
        },
        ("POST", ["jobs", id, "cancel"]) => match id.parse::<u64>() {
            Ok(id) => {
                let mut m = Metrics::new();
                m.set("job", id).set("cancelled", service.cancel(id));
                Resp::json(200, "OK", &m)
            }
            Err(_) => Resp::error(400, "Bad Request", "job id must be an integer"),
        },
        ("GET", ["tenants", t, "metrics"]) => match service.tenant_metrics(t) {
            Some(m) => Resp::json(200, "OK", &m),
            None => Resp::error(404, "Not Found", "unknown tenant"),
        },
        ("GET", ["tenants", t, "events"]) => {
            let after = query_u64(query, "after").unwrap_or(0);
            let (events, last) = service.tenant_events(t, after);
            let mut m = Metrics::new();
            // `next_after` is the cursor to pass back; `last` is kept
            // for clients written against the original field name.
            m.set("last", last).set("next_after", last).set("events", events);
            Resp::json(200, "OK", &m)
        }
        ("GET", ["healthz"]) => Resp::json(200, "OK", &service.health()),
        ("GET", ["metrics"]) => Resp::text(
            200,
            "OK",
            "text/plain; version=0.0.4",
            service.prometheus(),
        ),
        ("POST", ["poison", "clear"]) => {
            // `{"signature": "tenant/app/machine"}` clears one entry;
            // an empty body (or one without a signature) clears them all.
            let sig = if body.trim().is_empty() {
                None
            } else {
                match parse_body(body) {
                    Some(fields) => str_field(&fields, "signature"),
                    None => return Resp::error(400, "Bad Request", BAD_BODY),
                }
            };
            let mut m = Metrics::new();
            m.set("cleared", service.clear_poison(sig.as_deref()) as u64);
            Resp::json(200, "OK", &m)
        }
        ("POST", ["drain"]) => match service.drain(persist_dir) {
            Ok(paths) => {
                let mut m = Metrics::new();
                m.set("drained", true).set(
                    "persisted",
                    paths
                        .iter()
                        .map(|p| p.display().to_string())
                        .collect::<Vec<_>>(),
                );
                Resp::json(200, "OK", &m)
            }
            Err(e) => Resp::error(500, "Internal Server Error", &format!("persist failed: {e}")),
        },
        _ => Resp::error(404, "Not Found", "no such route"),
    }
}

const BAD_BODY: &str = "body is not a flat JSON object";

fn post_job(service: &Service, body: &str) -> Resp {
    let Some(fields) = parse_body(body) else {
        return Resp::error(400, "Bad Request", BAD_BODY);
    };
    let Some(app) = str_field(&fields, "app") else {
        return Resp::error(400, "Bad Request", "missing \"app\"");
    };
    let Some(machine) = str_field(&fields, "machine").as_deref().and_then(parse_machine) else {
        return Resp::error(
            400,
            "Bad Request",
            "missing or unknown \"machine\" (vm.soft, vm.be, vm.fe, vm.interp, ref)",
        );
    };
    let mut spec = JobSpec::new(
        &str_field(&fields, "tenant").unwrap_or_else(|| "default".to_string()),
        &app,
        machine,
    );
    spec.deadline_insts = num_field(&fields, "deadline_insts");
    spec.deadline_ms = num_field(&fields, "deadline_ms");
    match service.submit(spec) {
        Ok(id) => {
            let mut m = Metrics::new();
            m.set("job", id);
            Resp::json(202, "Accepted", &m)
        }
        Err(ServeError::Overloaded {
            scope,
            retry_after_ms,
        }) => {
            let mut m = Metrics::new();
            m.set(
                "error",
                match scope {
                    OverloadScope::Global => "overloaded: service",
                    OverloadScope::Tenant => "overloaded: tenant queue",
                },
            )
            .set("retry_after_ms", retry_after_ms);
            let mut r = Resp::json(429, "Too Many Requests", &m);
            r.headers.push((
                "retry-after".to_string(),
                format!("{}", retry_after_ms.div_ceil(1000).max(1)),
            ));
            r
        }
        Err(ServeError::Draining) => Resp::error(503, "Service Unavailable", "draining"),
        Err(ServeError::UnknownApp { app }) => {
            Resp::error(404, "Not Found", &format!("unknown (machine, app): {app}"))
        }
        Err(e) => Resp::error(400, "Bad Request", &e.to_string()),
    }
}

fn get_job(service: &Service, id: u64, wait_ms: Option<u64>) -> Resp {
    let state = match wait_ms {
        Some(ms) => service.wait(id, Duration::from_millis(ms.min(60_000))).ok(),
        None => service.status(id),
    };
    match state {
        None => Resp::error(404, "Not Found", "unknown job"),
        Some(state) => {
            let mut m = Metrics::new();
            m.set("job", id).set("state", state.name());
            match &state {
                JobState::Completed(out) => {
                    m.set("warm", out.warm.name())
                        .set("attempts", u64::from(out.attempts))
                        .set("cycles", out.cycles)
                        .set("x86_retired", out.x86_retired)
                        .set("arch_fnv", format!("{:016x}", out.arch_fnv))
                        .set("latency_ns", out.latency_ns)
                        .set("queue_ns", out.queue_ns)
                        .set("run_ns", out.run_ns);
                }
                JobState::Failed { message, attempts } => {
                    m.set("message", message.as_str())
                        .set("attempts", u64::from(*attempts));
                }
                JobState::Expired { attempts } => {
                    m.set("attempts", u64::from(*attempts));
                }
                _ => {}
            }
            Resp::json(200, "OK", &m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_round_trip() {
        let fields =
            parse_body(r#"{ "tenant": "acme", "app": "wordA", "deadline_ms": 250, "flag": true }"#)
                .expect("parses");
        assert_eq!(str_field(&fields, "tenant").as_deref(), Some("acme"));
        assert_eq!(str_field(&fields, "app").as_deref(), Some("wordA"));
        assert_eq!(num_field(&fields, "deadline_ms"), Some(250));
        assert_eq!(num_field(&fields, "flag"), Some(1));
    }

    #[test]
    fn flat_json_rejects_nesting_and_garbage() {
        assert!(parse_body("{\"a\": {\"b\": 1}}").is_none());
        assert!(parse_body("[1, 2]").is_none());
        assert!(parse_body("{\"a\": -1}").is_none());
        assert!(parse_body("{\"a\" 1}").is_none());
        assert!(parse_body("").is_none());
        assert_eq!(parse_body("{}"), Some(Metrics::new()));
    }

    #[test]
    fn adversarial_bodies_are_rejected_without_panicking() {
        let deep_lists = format!("{{\"a\":{}", "[".repeat(1 << 20));
        let deep_objects = format!(
            "{}1{}",
            "{\"a\":".repeat(cdvm_stats::MAX_JSON_DEPTH * 100),
            "}".repeat(cdvm_stats::MAX_JSON_DEPTH * 100)
        );
        let hostile = [
            "[".repeat(1 << 20),
            deep_lists,
            deep_objects,
            r#"{"app": "Word"} trailing"#.to_string(),
            r#"{"app": "Word"}{}"#.to_string(),
            r#"{"app": "Word", "app": "Excel"}"#.to_string(),
            r#"{"app": "Wo"#.to_string(),
            r#"{"app": "\u12x4"}"#.to_string(),
            r#"{"app": "\ud800"}"#.to_string(),
            "{\"app\": \"W\u{1}rd\"}".to_string(),
            r#"{"deadline_ms": 1.5}"#.to_string(),
            r#"{"deadline_ms": null}"#.to_string(),
            r#"{"deadline_ms": 18446744073709551616}"#.to_string(),
        ];
        for body in &hostile {
            assert!(
                parse_body(body).is_none(),
                "accepted {:?}",
                &body[..body.len().min(60)]
            );
        }
    }

    #[test]
    fn machine_names_parse() {
        assert_eq!(parse_machine("vm.soft"), Some(MachineKind::VmSoft));
        assert_eq!(parse_machine("VM-BE"), Some(MachineKind::VmBe));
        assert_eq!(parse_machine("vm_fe"), Some(MachineKind::VmFe));
        assert_eq!(parse_machine("ref"), Some(MachineKind::RefSuperscalar));
        assert_eq!(parse_machine("z80"), None);
    }
}
