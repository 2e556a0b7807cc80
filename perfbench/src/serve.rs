//! The serve leg of the traced `steady_state` run: seeded Poisson
//! arrivals, open loop, into `cdvm_serve::Service` through its library
//! API, for the serve layer's per-layer metrics.
//!
//! The pool is warm and `workers = nproc`; one generator thread submits
//! on schedule whether or not earlier jobs are done. Every completed job
//! must match a batch run of its catalog entry. The leg is traced only:
//! on a host shared with other tenants, open-loop job latency spread too
//! widely between runs to gate a change on.

use std::time::{Duration, Instant};

use cdvm_core::{Status, System};
use cdvm_mem::Rng64;
use cdvm_serve::{JobSpec, JobState, ServeConfig, ServeError, Service, WarmLevel};
use cdvm_stats::MetricValue;
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app_run, AppProfile};

use crate::batch::short;
use crate::common::{median, mix64, pick, run_plain, seeded_profiles, tail, Outcome, Report};
use crate::spans::SpanLog;

/// VM.fe stays in the catalog: its warm restore is known to cost more
/// modeled cycles than a cold boot, and the catalog must not hide that.
const MACHINES: [MachineKind; 3] = [MachineKind::VmSoft, MachineKind::VmBe, MachineKind::VmFe];
const APPS: [&str; 4] = ["Word", "Excel", "IE", "Project"];
const SCALE: f64 = 0.005;
/// Offered load, jobs per second: about a sixth of what two workers
/// serve at this scale on an idle host, so the queue stays short.
const RATE: f64 = 8.0;
/// Length of the arrival schedule.
const SECONDS: f64 = 10.0;
const TENANTS: usize = 4;

/// The batch reference for one catalog entry: cold and warm runs to the
/// architected end, outside the service.
struct Reference {
    cold: Outcome,
    warm: Outcome,
}

struct Arrival {
    due_s: f64,
    entry: usize,
}

/// One submitted job.
struct Job {
    entry: usize,
    id: Result<u64, ServeError>,
    lag_ns: u64,
    admission_ns: u64,
    /// This log's clock at the submit call, and the job's span.
    call_ns: u64,
    span: u32,
}

/// What a completed job reported.
struct Done {
    run_ns: u64,
    queue_ns: u64,
    warm: bool,
    attempts: u32,
}

/// Runs the serve leg and sets the `serve.*` and `loadgen.*` metrics.
pub fn layers(seed: u64, log: &mut SpanLog, rep: &mut Report) {
    let profiles = pick(&seeded_profiles(seed), &APPS);
    let catalog: Vec<(MachineKind, AppProfile)> = MACHINES
        .iter()
        .flat_map(|&m| profiles.iter().map(move |p| (m, p.clone())))
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sid = log.begin("serve.start", None, "");
    let svc = Service::start(ServeConfig {
        workers,
        scale: SCALE,
        catalog: catalog.clone(),
        warm_pool: true,
        prestamp: 1,
        global_queue_cap: 4096,
        tenant_queue_cap: 4096,
        spans: true,
        seed: mix64(seed),
        ..ServeConfig::default()
    });
    log.end(sid, catalog.len() as f64);

    let refs = references(&catalog, rep);
    let arrivals = schedule(seed, catalog.len());
    let jobs = drive(&svc, &catalog, &arrivals, log);
    let done = collect(&svc, &jobs, &catalog, &refs, log, rep);
    let _ = svc.drain(None);
    rep.note(format!(
        "serve leg: {} jobs at {RATE}/s over {SECONDS} s to {workers} workers (available parallelism), {} completed",
        jobs.len(),
        done.len()
    ));

    let adm: Vec<f64> = jobs.iter().map(|j| j.admission_ns as f64 / 1e3).collect();
    let queue: Vec<f64> = done.iter().map(|d| d.queue_ns as f64 / 1e6).collect();
    let run: Vec<f64> = done.iter().map(|d| d.run_ns as f64 / 1e6).collect();
    let stamp: Vec<f64> = log
        .durations("serve.stamp")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    rep.set("serve.admission_us_p50", median(&adm));
    rep.set("serve.queue_ms_p50", median(&queue));
    rep.set("serve.queue_ms_tail", tail(&queue).1);
    rep.set("serve.stamp_ms_p50", median(&stamp));
    rep.set("serve.run_ms_p50", median(&run));
    rep.set(
        "serve.warm_stamp_ratio",
        done.iter().filter(|d| d.warm).count() as f64 / done.len().max(1) as f64,
    );
    rep.set(
        "serve.retries",
        done.iter()
            .map(|d| f64::from(d.attempts.saturating_sub(1)))
            .sum(),
    );
    rep.set(
        "serve.sheds",
        jobs.iter()
            .filter(|j| matches!(j.id, Err(ServeError::Overloaded { .. })))
            .count() as f64,
    );
    rep.set(
        "loadgen.lag_ms_max",
        jobs.iter().map(|j| j.lag_ns).max().unwrap_or(0) as f64 / 1e6,
    );
}

/// Cold and warm batch runs of every catalog entry: the outputs every
/// served job must reproduce.
fn references(catalog: &[(MachineKind, AppProfile)], rep: &mut Report) -> Vec<Reference> {
    catalog
        .iter()
        .map(|(kind, p)| {
            let wl = build_app_run(p, SCALE, 1.0);
            let boot =
                || System::with_config(MachineConfig::preset(*kind), wl.mem.clone(), wl.entry);
            let mut sys = boot();
            let cold = run_plain(&mut sys);
            let image = sys.snapshot_bytes();
            let mut warm_sys = boot();
            let restored = warm_sys.restore_image_bytes(&image);
            let warm = run_plain(&mut warm_sys);
            rep.check(
                !restored.is_cold_boot()
                    && cold.status == Status::Halted
                    && warm.status == Status::Halted
                    && warm.retired == cold.retired
                    && warm.arch == cold.arch,
                || {
                    format!(
                        "{}/{}: warm reference {warm:?} does not match cold {cold:?}",
                        p.name,
                        short(*kind)
                    )
                },
            );
            Reference { cold, warm }
        })
        .collect()
}

/// `RATE × SECONDS` arrivals, each uniform on the schedule (a Poisson
/// process conditioned on its count). Every catalog entry gets the same
/// share of them, in seeded order, so a percentile never lands on a
/// different entry only because the draw favoured one.
fn schedule(seed: u64, entries: usize) -> Vec<Arrival> {
    let mut rng = Rng64::new(mix64(seed ^ 0x5e2e_0ae1));
    let n = (RATE * SECONDS).round() as usize;
    let mut mix: Vec<usize> = (0..n).map(|i| i % entries).collect();
    for i in (1..n).rev() {
        mix.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut due: Vec<f64> = (0..n).map(|_| rng.f64() * SECONDS).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .zip(mix)
        .map(|(due_s, entry)| Arrival { due_s, entry })
        .collect()
}

/// The generator: submits each arrival when it is due.
fn drive(
    svc: &Service,
    catalog: &[(MachineKind, AppProfile)],
    arrivals: &[Arrival],
    log: &mut SpanLog,
) -> Vec<Job> {
    let t0 = Instant::now();
    arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let due = t0 + Duration::from_secs_f64(a.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (kind, p) = &catalog[a.entry];
            let call = Instant::now();
            let lag_ns = call.saturating_duration_since(due).as_nanos() as u64;
            let span = log.begin("serve.job", None, "");
            let call_ns = log.now_ns();
            let sub = log.begin("serve.submit", Some(span), "");
            let id = svc.submit(JobSpec::new(
                &format!("tenant-{}", i % TENANTS),
                p.name,
                *kind,
            ));
            let admission_ns = log.end(sub, 1.0);
            Job {
                entry: a.entry,
                id,
                lag_ns,
                admission_ns,
                call_ns,
                span,
            }
        })
        .collect()
}

/// Waits for every job, checks its output against the batch reference
/// and copies the service's own spans of the job into the log under the
/// job's span.
fn collect(
    svc: &Service,
    jobs: &[Job],
    catalog: &[(MachineKind, AppProfile)],
    refs: &[Reference],
    log: &mut SpanLog,
    rep: &mut Report,
) -> Vec<Done> {
    let mut done = Vec::new();
    for job in jobs {
        let (kind, p) = &catalog[job.entry];
        let what = format!("{}/{}", p.name, short(*kind));
        let id = match &job.id {
            Ok(id) => *id,
            Err(e) => {
                rep.check(false, || format!("{what}: refused: {e}"));
                continue;
            }
        };
        let out = match svc.wait(id, Duration::from_secs(120)) {
            Ok(JobState::Completed(out)) => out,
            other => {
                rep.check(false, || format!("{what} job {id}: ended {other:?}"));
                continue;
            }
        };
        let r = &refs[job.entry];
        let warm = out.warm == WarmLevel::Warm;
        let expect = if warm { r.warm } else { r.cold };
        rep.check(
            out.x86_retired == r.cold.retired
                && out.arch_fnv == r.cold.arch
                && out.cycles == expect.cycles,
            || {
                format!(
                    "{what} job {id}: retired {} arch {:016x} cycles {} vs reference {expect:?}",
                    out.x86_retired, out.arch_fnv, out.cycles
                )
            },
        );
        copy_spans(svc, id, job, log);
        log.end(job.span, 1.0);
        done.push(Done {
            run_ns: out.run_ns,
            queue_ns: out.queue_ns,
            warm,
            attempts: out.attempts,
        });
    }
    done
}

/// Copies the service's `queued`, `stamp` and `run` spans of job `id`
/// onto this log's clock, aligned at the job's admission.
fn copy_spans(svc: &Service, id: u64, job: &Job, log: &mut SpanLog) {
    let Some(m) = svc.job_spans(id) else {
        return;
    };
    let Some(MetricValue::List(items)) = m.get("spans") else {
        return;
    };
    let field = |s: &cdvm_stats::Metrics, k: &str| match s.get(k) {
        Some(MetricValue::U64(v)) => Some(*v),
        _ => None,
    };
    let spans: Vec<(String, u64, u64)> = items
        .iter()
        .filter_map(|it| match it {
            MetricValue::Map(s) => {
                let name = match s.get("name") {
                    Some(MetricValue::Str(n)) => n.clone(),
                    _ => return None,
                };
                Some((name, field(s, "start_ns")?, field(s, "end_ns")?))
            }
            _ => None,
        })
        .collect();
    let Some(admitted) = spans.iter().find(|s| s.0 == "admission").map(|s| s.1) else {
        return;
    };
    for (name, start, end) in &spans {
        let name: &'static str = match name.as_str() {
            "queued" => "serve.queued",
            "stamp" => "serve.stamp",
            "run" => "serve.run",
            _ => continue,
        };
        let shift = |t: u64| (job.call_ns + t).saturating_sub(admitted);
        log.push(
            name,
            Some(job.span),
            id.to_string(),
            shift(*start),
            shift(*end),
            1.0,
        );
    }
}
