//! Pieces every workload shares: seeding, run bookkeeping, statistics,
//! host measurements and the metric list the command prints.

use cdvm_core::{Status, System};
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app_run, winstone2004, AppProfile, Workload};

use crate::spans::SpanLog;

/// Guest instructions per `run_slice` call when sampling the modeled
/// clock for the steady-state lens.
pub const SLICE_INSTS: u64 = 10_000;

/// Windows per run for the steady-state lens: a window spans this share
/// of the run's instructions, so the lens does not depend on run length.
pub const STEADY_WINDOWS: usize = 10;

/// A window has reached steady state once its IPC is at least this
/// share of the run's final IPC.
pub const STEADY_SHARE: f64 = 0.9;

/// The set-up repeats until it has run at least this many times and
/// for at least [`SETUP_SECONDS`] in all; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
pub const SETUP_SECONDS: f64 = 2.0;

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The ten application profiles with the workload seed mixed into each
/// profile's generator seed: one seed, one set of guest programs.
pub fn seeded_profiles(seed: u64) -> Vec<AppProfile> {
    let mut profiles = winstone2004();
    for p in &mut profiles {
        p.seed = mix64(p.seed ^ mix64(seed));
    }
    profiles
}

/// The named profiles, in the order given.
pub fn pick(profiles: &[AppProfile], names: &[&str]) -> Vec<AppProfile> {
    names
        .iter()
        .map(|n| {
            profiles
                .iter()
                .find(|p| p.name == *n)
                .unwrap_or_else(|| panic!("no profile named {n}"))
                .clone()
        })
        .collect()
}

/// FNV-1a fingerprint of the final architected state (GPRs, EIP and
/// retired count), computed the way the serving layer reports it.
pub fn arch_fnv(sys: &System) -> u64 {
    let cpu = sys.cpu();
    let mut arch = Vec::with_capacity(8 * 4 + 4 + 8);
    for r in cpu.gpr {
        arch.extend_from_slice(&r.to_le_bytes());
    }
    arch.extend_from_slice(&cpu.eip.to_le_bytes());
    arch.extend_from_slice(&sys.x86_retired().to_le_bytes());
    cdvm_core::snapshot::fnv1a64(&arch)
}

/// What one run to the architected end produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Final status (`Halted` when the guest ran to completion).
    pub status: Status,
    /// Modeled cycles.
    pub cycles: u64,
    /// Retired guest x86 instructions.
    pub retired: u64,
    /// Architected-state fingerprint.
    pub arch: u64,
}

impl Outcome {
    pub fn of(sys: &System, status: Status) -> Outcome {
        Outcome {
            status,
            cycles: sys.cycles(),
            retired: sys.x86_retired(),
            arch: arch_fnv(sys),
        }
    }
}

/// Runs `sys` to its end with no sampling.
pub fn run_plain(sys: &mut System) -> Outcome {
    let st = sys.run_to_completion(u64::MAX);
    Outcome::of(sys, st)
}

/// Runs `sys` to its end in slices of [`SLICE_INSTS`], sampling the
/// modeled clock at every slice boundary, and returns the outcome plus
/// the steady-state cycle of [`steady_cycle`].
pub fn run_sliced(sys: &mut System) -> (Outcome, u64) {
    let mut samples = vec![(0u64, 0u64)];
    let st = loop {
        let st = sys.run_slice(SLICE_INSTS);
        samples.push((sys.cycles(), sys.x86_retired()));
        if st != Status::Running {
            break st;
        }
    };
    let out = Outcome::of(sys, st);
    (out, steady_cycle(&samples))
}

/// The modeled cycle at which a window first reaches [`STEADY_SHARE`] of
/// the run's final IPC: the end of that window. `samples` are cumulative
/// `(cycles, retired)` from the origin; a window spans a
/// [`STEADY_WINDOWS`]th of them and slides one sample at a time.
pub fn steady_cycle(samples: &[(u64, u64)]) -> u64 {
    let &(cycles, retired) = samples.last().expect("at least the origin sample");
    if cycles == 0 {
        return 0;
    }
    let target = STEADY_SHARE * retired as f64 / cycles as f64;
    let span = (samples.len() - 1).div_ceil(STEADY_WINDOWS).max(1);
    samples
        .iter()
        .zip(samples.iter().skip(span))
        .find(|(a, b)| {
            let dc = b.0.saturating_sub(a.0);
            let dr = b.1.saturating_sub(a.1);
            dc > 0 && dr as f64 / dc as f64 >= target
        })
        .map_or(cycles, |(_, b)| b.0)
}

/// A fixed tiny guest on the reference machine, run in short bursts
/// between measured work. A burst's fastest probe, in thread CPU time,
/// over the fastest burst of the whole process is how much other tenants
/// of the host slow the simulator at that moment; thread CPU time leaves
/// out time the thread waited for a core. The probe never changes with
/// the workload seed. See [`crate::spans::ContentionClock`].
pub struct Probe {
    wl: Workload,
}

/// Probe runs per burst: the burst's fastest filters out one-off
/// interruptions of a single probe.
const PROBE_BURST: usize = 3;

impl Probe {
    pub fn new() -> Probe {
        let word = winstone2004()
            .into_iter()
            .find(|p| p.name == "Word")
            .expect("Word profile");
        Probe {
            wl: build_app_run(&word, 0.002, 0.2),
        }
    }

    /// One burst, recorded as one `probe` span whose count is the
    /// fastest probe's CPU ns.
    pub fn run(&self, log: &mut SpanLog) {
        let s = log.begin("probe", None, "");
        let mut fastest = u64::MAX;
        for _ in 0..PROBE_BURST {
            let mut sys = System::with_config(
                MachineConfig::preset(MachineKind::RefSuperscalar),
                self.wl.mem.clone(),
                self.wl.entry,
            );
            let t = thread_cpu_ns();
            sys.run_to_completion(u64::MAX);
            fastest = fastest.min(thread_cpu_ns() - t);
        }
        log.end(s, fastest as f64);
    }
}

/// CPU time the calling thread has used, in ns.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and this clock id is defined on every Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// True once the `setup` spans meet [`SETUP_REPS`] and [`SETUP_SECONDS`].
pub fn setup_done(log: &SpanLog) -> bool {
    let reps: Vec<u64> = log.named("setup").map(|s| s.dur_ns()).collect();
    reps.len() >= SETUP_REPS && reps.iter().sum::<u64>() as f64 >= SETUP_SECONDS * 1e9
}

/// `setup_s`: the median `setup` span, in s, on the wall clock. The
/// contention clock would over-correct it: set-up is mostly allocation
/// and page faults, which contention that doubles the probe's time slows
/// by about a tenth.
pub fn setup_seconds(log: &SpanLog) -> f64 {
    let reps: Vec<f64> = log
        .named("setup")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    median(&reps)
}

/// Mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest whole percentile with at least ten samples beyond it,
/// for `n` samples (never below the median; `n` under 20 falls back to
/// the median).
pub fn tail_percentile(n: usize) -> u32 {
    if n < 20 {
        return 50;
    }
    let p = (100 * (n - 10)) / n;
    (p as u32).clamp(50, 99)
}

/// `(percentile, value)` of the tail of `v` by [`tail_percentile`].
pub fn tail(v: &[f64]) -> (u32, f64) {
    let p = tail_percentile(v.len());
    (p, quantile(v, f64::from(p) / 100.0))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One measured metric (its unit is in the catalogue, `layers.rs`).
pub struct Metric {
    pub name: String,
    pub value: f64,
}

/// The metrics one run reports plus its operation tally.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable notes (tail percentiles, sample counts, failures).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.metrics.push(Metric { name, value }),
        }
    }

    /// Counts one operation; `ok == false` also counts it failed and
    /// keeps `why` as a note.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 64 {
                self.notes.push(format!("FAIL: {}", why()));
            }
        }
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}
