//! The two batch workloads: every chosen app on every machine, each run
//! from cold boot to `Halted`, repeated in rounds until time is up.
//!
//! One run is one job of a closed loop with one client: the next run
//! starts when the previous one ends, so a run's latency is its host
//! time. A run's host time is the median of its repetitions in this
//! process, each read on the contention clock (`spans::ContentionClock`),
//! which takes out the time other tenants of the host took.

use std::time::{Duration, Instant};

use cdvm_core::{Status, System, SystemStats, TraceEvent, NUM_PHASES};
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app_run, Workload};

use crate::common::{
    mean, median, peak_rss_mb, pick, run_plain, run_sliced, seeded_profiles, setup_done,
    setup_seconds, tail, Outcome, Probe, Report,
};
use crate::spans::{ContentionClock, Span, SpanLog};
use crate::Opts;
use crate::{replay, serve};

/// Event-trace ring for traced legs: large enough that no
/// `BlockTranslated` record of a run is overwritten.
const TRACE_EVENTS: usize = 1 << 20;

pub struct BatchSpec {
    pub apps: &'static [&'static str],
    pub scale: f64,
    pub length: f64,
    /// Jobs slower than this miss the goodput limit.
    pub latency_limit_ms: f64,
    /// The traced run also drives the serve layer (see `serve.rs`).
    pub serve_leg: bool,
}

const ALL_APPS: &[&str] = &[
    "Access",
    "Excel",
    "FrontPage",
    "IE",
    "Norton",
    "Outlook",
    "PowerPoint",
    "Project",
    "Winzip",
    "Word",
];

/// All ten apps, large footprint, short schedule: much static code runs
/// only a few times, the paper's startup case. In host time (2-vCPU
/// Xeon), cold minus warm is about a fifth of a VM.soft or VM.be run, and
/// BBT translation itself about 3% of such a run.
pub const COLD_START: BatchSpec = BatchSpec {
    apps: ALL_APPS,
    scale: 0.05,
    length: 0.2,
    latency_limit_ms: 1000.0,
    serve_leg: false,
};

/// All ten apps, small footprint, long schedule: the execution engine
/// dominates, and a translation-path change moves host time about a
/// third as much as on `COLD_START`. Every app, so the totals average
/// over ten generated programs per seed.
pub const STEADY_STATE: BatchSpec = BatchSpec {
    apps: ALL_APPS,
    scale: 0.01,
    length: 1.5,
    latency_limit_ms: 3000.0,
    serve_leg: true,
};

pub fn short(kind: MachineKind) -> &'static str {
    match kind {
        MachineKind::RefSuperscalar => "ref",
        MachineKind::VmSoft => "soft",
        MachineKind::VmBe => "be",
        MachineKind::VmFe => "fe",
        MachineKind::VmInterp => "interp",
    }
}

struct Pair {
    app: usize,
    kind: MachineKind,
    label: String,
    /// The round-0 run every later repetition must reproduce.
    first: Option<Outcome>,
    steady: u64,
}

/// What the round-0 traced leg of one pair recorded.
#[derive(Default)]
struct LegCounts {
    stats: SystemStats,
    bbt_blocks: u64,
    sbt_regions: u64,
    chains: u64,
    sbt_uops: u64,
    fused_uops: u64,
    flushes: u64,
    decodes: u64,
    decode_hits: u64,
    phases: [f64; NUM_PHASES],
    cycles: u64,
    retired: u64,
    warm_cycles: u64,
}

/// Runs a batch workload and reports its end-to-end metrics, from the
/// untraced legs, plus with `opts.trace` the per-layer ones.
pub fn run(spec: &BatchSpec, opts: &Opts, log: &mut SpanLog) -> Report {
    let mut rep = Report::default();
    let profiles = pick(&seeded_profiles(opts.seed), spec.apps);

    // Set-up: generate every app's guest program, several times.
    let probe = Probe::new();
    let mut wls: Vec<Workload> = Vec::new();
    while !setup_done(log) {
        probe.run(log);
        let sid = log.begin("setup", None, "");
        wls = profiles
            .iter()
            .map(|p| {
                let b = log.begin("workloads.build", Some(sid), p.name);
                let wl = build_app_run(p, spec.scale, spec.length);
                log.end(b, wl.static_insts as f64);
                wl
            })
            .collect();
        log.end(sid, wls.len() as f64);
    }

    let mut pairs: Vec<Pair> = (0..wls.len())
        .flat_map(|app| MachineKind::ALL.into_iter().map(move |kind| (app, kind)))
        .map(|(app, kind)| Pair {
            app,
            kind,
            label: format!("{}/{}", profiles[app].name, short(kind)),
            first: None,
            steady: 0,
        })
        .collect();
    let mut legs: Vec<LegCounts> = (0..pairs.len()).map(|_| LegCounts::default()).collect();

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let n = pairs.len();
    // Untraced runs need round 1 to check unsliced against sliced runs;
    // a traced run makes that check inside round 0.
    let min_rounds = if opts.trace { 1 } else { 2 };
    let mut round = 0usize;
    'rounds: loop {
        for j in 0..n {
            // Rotate the order so no pair always runs at the same point
            // of a round.
            let idx = (j + round * 7) % n;
            if round >= min_rounds && Instant::now() >= deadline {
                break 'rounds;
            }
            let traced_first = opts.trace && (round + j) % 2 == 1;
            probe.run(log);
            if traced_first {
                traced_leg(&mut pairs[idx], &mut legs[idx], &wls, round, log, &mut rep);
            }
            untraced_leg(&mut pairs[idx], &wls, round, log, &mut rep);
            if opts.trace && !traced_first {
                traced_leg(&mut pairs[idx], &mut legs[idx], &wls, round, log, &mut rep);
            }
        }
        round += 1;
    }
    probe.run(log);
    rep.note(format!("{round} rounds of {n} runs"));

    // Every machine retires the same guest instructions for one app.
    for (app, profile) in profiles.iter().enumerate() {
        let counts: Vec<u64> = pairs
            .iter()
            .filter(|p| p.app == app)
            .filter_map(|p| p.first.map(|o| o.retired))
            .collect();
        rep.check(counts.windows(2).all(|w| w[0] == w[1]), || {
            format!(
                "{}: machines retired different counts {counts:?}",
                profile.name
            )
        });
    }

    end_to_end(spec, &pairs, log, &mut rep);
    if opts.trace {
        layer_metrics(&pairs, &legs, log, &mut rep);
        if spec.serve_leg {
            serve::layers(opts.seed, log, &mut rep);
        }
    }
    rep
}

fn new_system(kind: MachineKind, wl: &Workload) -> System {
    System::with_config(MachineConfig::preset(kind), wl.mem.clone(), wl.entry)
}

/// Checks `out` against the pair's round-0 run (and records it there on
/// round 0).
fn check_repeat(pair: &mut Pair, out: Outcome, leg: &str, rep: &mut Report) {
    rep.check(out.status == Status::Halted, || {
        format!("{} {leg}: ended {:?}", pair.label, out.status)
    });
    match pair.first {
        None => pair.first = Some(out),
        Some(first) => rep.check(first == out, || {
            format!(
                "{} {leg}: {out:?} differs from its first run {first:?}",
                pair.label
            )
        }),
    }
}

/// The measured leg: tracing off. Round 0 samples the modeled clock in
/// slices for the steady-state lens; later rounds run unsliced, and
/// both must agree bit for bit.
fn untraced_leg(
    pair: &mut Pair,
    wls: &[Workload],
    round: usize,
    log: &mut SpanLog,
    rep: &mut Report,
) {
    let mut sys = new_system(pair.kind, &wls[pair.app]);
    let sid = log.begin("core.run", None, pair.label.as_str());
    let out = if round == 0 {
        let (out, steady) = run_sliced(&mut sys);
        pair.steady = steady;
        out
    } else {
        run_plain(&mut sys)
    };
    log.end(sid, out.retired as f64);
    check_repeat(pair, out, "run", rep);
}

/// The traced leg: the VM event trace armed, then (on VM machines) a
/// warm leg restored from this run's image. Round 0 also replays the
/// translation layers on the entries this run translated.
fn traced_leg(
    pair: &mut Pair,
    leg: &mut LegCounts,
    wls: &[Workload],
    round: usize,
    log: &mut SpanLog,
    rep: &mut Report,
) {
    let wl = &wls[pair.app];
    let mut sys = new_system(pair.kind, wl);
    sys.enable_trace(TRACE_EVENTS);
    let sid = log.begin("core.run_traced", None, pair.label.as_str());
    let out = run_plain(&mut sys);
    log.end(sid, out.retired as f64);
    check_repeat(pair, out, "traced run", rep);
    if pair.kind == MachineKind::RefSuperscalar {
        if round == 0 {
            count_leg(leg, &mut sys);
        }
        return;
    }

    let sid = log.begin("core.snapshot_save", None, pair.label.as_str());
    let image = sys.snapshot_bytes();
    log.end(sid, image.len() as f64);

    if round == 0 {
        count_leg(leg, &mut sys);
        let (blocks, superblocks, dropped) = translated_entries(&sys);
        rep.check(dropped == 0, || {
            format!("{}: trace ring dropped {dropped} events", pair.label)
        });
        let rid = log.begin("replay", None, pair.label.as_str());
        replay::sbt(&mut sys, &superblocks, &pair.label, rid, log);
        if matches!(pair.kind, MachineKind::VmSoft | MachineKind::VmBe) {
            replay::bbt_path(pair.kind, wl, &blocks, &pair.label, rid, log);
        }
        log.end(rid, 0.0);
    }
    drop(sys);

    // Warm leg: a fresh boot restored from the image must reach the
    // same architected end.
    let mut warm = new_system(pair.kind, wl);
    let sid = log.begin("core.restore", None, pair.label.as_str());
    let restored = warm.restore_image_bytes(&image);
    log.end(sid, image.len() as f64);
    rep.check(!restored.is_cold_boot() && !restored.is_degraded(), || {
        format!("{}: warm restore fell back ({restored:?})", pair.label)
    });
    let sid = log.begin("core.run_warm", None, pair.label.as_str());
    let w = run_plain(&mut warm);
    log.end(sid, w.retired as f64);
    rep.check(
        w.status == Status::Halted && w.retired == out.retired && w.arch == out.arch,
        || {
            format!(
                "{} warm leg: {w:?} does not match its cold run {out:?}",
                pair.label
            )
        },
    );
    if round == 0 {
        leg.warm_cycles = w.cycles;
    }
}

fn count_leg(leg: &mut LegCounts, sys: &mut System) {
    leg.stats = sys.stats;
    leg.cycles = sys.cycles();
    leg.retired = sys.x86_retired();
    leg.decodes = sys.interp.decoder.decodes();
    leg.decode_hits = sys.interp.decoder.cache_hits();
    let phases = sys.phase_snapshot();
    for (dst, c) in leg.phases.iter_mut().zip(phases) {
        *dst = c.to_f64();
    }
    if let Some(vm) = &sys.vm {
        leg.bbt_blocks = vm.stats.bbt_blocks;
        leg.sbt_regions = vm.stats.sbt_superblocks;
        leg.chains = vm.stats.chains_applied;
        leg.sbt_uops = vm.stats.sbt_uops;
        leg.fused_uops = vm.stats.sbt_fused_uops;
    }
    if let Some(t) = sys.trace() {
        leg.flushes = t
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::CacheFlush { .. }))
            .count() as u64;
    }
}

/// The BBT block and SBT superblock entries the run translated, in
/// order, and how many trace records the ring dropped.
fn translated_entries(sys: &System) -> (Vec<u32>, Vec<u32>, u64) {
    let Some(t) = sys.trace() else {
        return (Vec::new(), Vec::new(), 0);
    };
    let mut blocks = Vec::new();
    let mut superblocks = Vec::new();
    for r in t.iter() {
        match r.event {
            TraceEvent::BlockTranslated { entry, .. } => blocks.push(entry),
            TraceEvent::SuperblockFormed { entry, .. } => superblocks.push(entry),
            _ => {}
        }
    }
    (blocks, superblocks, t.dropped())
}

/// Each pair's host time for `name` spans, in ns: the median over its
/// repetitions of `dur` (NaN when the pair has no such span).
fn run_times<'a>(
    pairs: &'a [Pair],
    log: &SpanLog,
    name: &str,
    dur: &dyn Fn(&Span) -> f64,
) -> Vec<(&'a Pair, f64)> {
    pairs
        .iter()
        .map(|p| {
            let reps: Vec<f64> = log
                .named(name)
                .filter(|s| s.key == p.label)
                .map(dur)
                .collect();
            (
                p,
                if reps.is_empty() {
                    f64::NAN
                } else {
                    median(&reps)
                },
            )
        })
        .collect()
}

fn end_to_end(spec: &BatchSpec, pairs: &[Pair], log: &SpanLog, rep: &mut Report) {
    let clock = ContentionClock::new(log);
    let runs = run_times(pairs, log, "core.run", &|s| clock.dur(s));
    let ns: f64 = runs.iter().map(|(_, ns)| ns).sum();
    let insts: f64 = pairs
        .iter()
        .filter_map(|p| p.first.map(|o| o.retired as f64))
        .sum();
    let run_ms: Vec<f64> = runs.iter().map(|(_, ns)| ns / 1e6).collect();
    let (pct, run_tail) = tail(&run_ms);
    let within = run_ms
        .iter()
        .filter(|&&ms| ms <= spec.latency_limit_ms)
        .count();
    let total_s: f64 = run_ms.iter().sum::<f64>() / 1e3;
    let cycles: u64 = pairs.iter().filter_map(|p| p.first.map(|o| o.cycles)).sum();
    let steady: u64 = pairs.iter().map(|p| p.steady).sum();
    let wall_ns: f64 = run_times(pairs, log, "core.run", &|s| s.dur_ns() as f64)
        .iter()
        .map(|(_, ns)| ns)
        .sum();
    rep.note(format!(
        "run_ms_tail and job_latency_ms_tail are p{pct} of {} runs, each the median of its repetitions \
         on the contention clock; on the wall clock: {:.2} ns/inst",
        run_ms.len(),
        wall_ns / insts.max(1.0)
    ));
    rep.set("host_ns_per_inst", ns / insts.max(1.0));
    rep.set("run_ms_p50", median(&run_ms));
    rep.set("run_ms_tail", run_tail);
    rep.set("modeled_cycles", cycles as f64);
    rep.set("modeled_steady_cycles", steady as f64);
    rep.set("job_latency_ms_p50", median(&run_ms));
    rep.set("job_latency_ms_tail", run_tail);
    rep.set("goodput_jobs_per_s", within as f64 / total_s.max(1e-9));
    rep.set("ok_ratio", ok_ratio(rep));
    rep.set("setup_s", setup_seconds(log));
    rep.set("peak_rss_mb", peak_rss_mb());
}

fn ok_ratio(rep: &Report) -> f64 {
    (rep.attempted - rep.failed) as f64 / rep.attempted.max(1) as f64
}

fn layer_metrics(pairs: &[Pair], legs: &[LegCounts], log: &SpanLog, rep: &mut Report) {
    rep.set("workloads.build_ms", setup_seconds(log) * 1e3);

    let clock = ContentionClock::new(log);
    let on_clock = |s: &Span| clock.dur(s);
    let per = |name: &str, scale: f64| {
        let (ns, n) = log.fastest_per_key(name, &clock);
        if n > 0.0 {
            ns / n / scale
        } else {
            0.0
        }
    };
    rep.set("x86.decode_ns_per_inst", per("x86.decode", 1.0));
    rep.set("cracker.crack_ns_per_inst", per("cracker.crack", 1.0));
    rep.set("fisa.encode_ns_per_uop", per("fisa.encode", 1.0));
    rep.set("fisa.decode_ns_per_uop", per("fisa.decode", 1.0));
    rep.set(
        "core.bbt_translate_us_per_block",
        per("core.translate_bbt", 1e3),
    );
    rep.set(
        "core.sbt_translate_us_per_region",
        per("core.translate_sbt.interp", 1e3),
    );

    let untraced = run_times(pairs, log, "core.run", &on_clock);
    for kind in MachineKind::ALL {
        let (ns, insts) = untraced
            .iter()
            .filter(|(p, _)| p.kind == kind)
            .fold((0.0, 0.0), |(t, i), (p, ns)| {
                (t + ns, i + p.first.map_or(0.0, |o| o.retired as f64))
            });
        rep.set(
            format!("core.run_ns_per_inst.{}", short(kind)),
            ns / insts.max(1.0),
        );
    }

    // Startup gap: cold minus warm host time for the same guest, and the
    // part of it the replayed translators do not account for.
    let warm = run_times(pairs, log, "core.run_warm", &on_clock);
    let mut gaps = Vec::new();
    let mut unattributed = Vec::new();
    for ((p, cold_ns), (_, warm_ns)) in untraced.iter().zip(&warm) {
        if p.kind == MachineKind::RefSuperscalar || !warm_ns.is_finite() {
            continue;
        }
        let gap = (cold_ns - warm_ns) / 1e6;
        let xlate: f64 = [
            "core.translate_bbt",
            "core.translate_sbt",
            "core.translate_sbt.interp",
        ]
        .iter()
        .map(|name| {
            log.named(name)
                .filter(|s| s.key == p.label)
                .map(on_clock)
                .fold(f64::INFINITY, f64::min)
        })
        .filter(|v| v.is_finite())
        .sum::<f64>()
            / 1e6;
        gaps.push(gap);
        unattributed.push(gap - xlate);
    }
    rep.set("core.startup_gap_ms", mean(&gaps));
    rep.set("core.startup_unattributed_ms", mean(&unattributed));
    let mean_ms = |name: &str| {
        let v: Vec<f64> = run_times(pairs, log, name, &on_clock)
            .iter()
            .filter(|(_, ns)| ns.is_finite())
            .map(|(_, ns)| ns / 1e6)
            .collect();
        mean(&v)
    };
    rep.set("core.snapshot_save_ms", mean_ms("core.snapshot_save"));
    rep.set("core.restore_ms", mean_ms("core.restore"));
    let image_kb: Vec<f64> = log
        .named("core.restore")
        .map(|s| s.count / 1024.0)
        .collect();
    rep.set("core.image_kb", mean(&image_kb));
    for kind in [
        MachineKind::VmSoft,
        MachineKind::VmBe,
        MachineKind::VmFe,
        MachineKind::VmInterp,
    ] {
        let (w, c) = pairs
            .iter()
            .zip(legs)
            .filter(|(p, _)| p.kind == kind)
            .fold((0.0, 0.0), |(w, c), (_, l)| {
                (w + l.warm_cycles as f64, c + l.cycles as f64)
            });
        rep.set(
            format!("core.warm_over_cold_cycles.{}", short(kind)),
            w / c.max(1.0),
        );
    }

    let sum = |f: &dyn Fn(&LegCounts) -> u64| legs.iter().map(f).sum::<u64>() as f64;
    let retired = sum(&|l| l.retired);
    let cycles = sum(&|l| l.cycles);
    rep.set(
        "x86.decoder_hit_ratio",
        sum(&|l| l.decode_hits) / sum(&|l| l.decodes).max(1.0),
    );
    let (_, crack_insts) = log.fastest_per_key("cracker.crack", &clock);
    let (_, enc_uops) = log.fastest_per_key("fisa.encode", &clock);
    rep.set("cracker.uops_per_inst", enc_uops / crack_insts.max(1.0));
    rep.set(
        "cracker.uncrackable_insts",
        sum(&|l| l.stats.uncrackable_insts),
    );
    rep.set("core.bbt_blocks", sum(&|l| l.bbt_blocks));
    rep.set("core.sbt_regions", sum(&|l| l.sbt_regions));
    rep.set(
        "core.demotions",
        sum(&|l| l.stats.bbt_demotions + l.stats.sbt_demotions),
    );
    rep.set(
        "core.vm_exits_per_kinst",
        sum(&|l| l.stats.vm_exits) * 1e3 / retired.max(1.0),
    );
    rep.set("mem.cache_flushes", sum(&|l| l.flushes));
    rep.set("mem.chain_patches", sum(&|l| l.chains));
    rep.set(
        "fisa.fused_uop_ratio",
        sum(&|l| l.fused_uops) / sum(&|l| l.sbt_uops).max(1.0),
    );
    for (i, phase) in cdvm_core::Phase::ALL.into_iter().enumerate() {
        let c: f64 = legs.iter().map(|l| l.phases[i]).sum();
        rep.set(
            format!("uarch.phase_share.{}", phase.name()),
            c / cycles.max(1.0),
        );
    }
    rep.set("uarch.ipc", retired / cycles.max(1.0));

    let total = |name: &str| {
        run_times(pairs, log, name, &on_clock)
            .iter()
            .map(|(_, ns)| ns)
            .sum::<f64>()
    };
    rep.set(
        "trace.overhead_ratio",
        total("core.run_traced") / total("core.run").max(1.0),
    );
}
