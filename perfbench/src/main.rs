//! `perfbench`: the repository's one benchmark.
//!
//! ```text
//! perfbench --workload <cold_start|steady_state> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Generates the workload's guest programs from the seed, runs them for
//! about `--seconds`, checks every output, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). The full report and the spans go to `<out>` (default
//! `.bench_out` under the working directory); a traced run also writes
//! the per-layer table there.
//!
//! Exits 1 when any output check failed and 2 on a usage error.

mod batch;
mod common;
mod layers;
mod replay;
mod serve;
mod spans;

use std::path::PathBuf;

use cdvm_stats::Metrics;

use crate::common::Report;
use crate::layers::{END_TO_END, LAYERS};
use crate::spans::SpanLog;

pub const WORKLOADS: [&str; 2] = ["cold_start", "steady_state"];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            f => return Err(format!("unknown argument {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    // Resolved against the working directory at run time, so a run from a
    // copied tree writes into that copy.
    let out = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(out);
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut log = SpanLog::new();
    let spec = match opts.workload.as_str() {
        "cold_start" => &batch::COLD_START,
        _ => &batch::STEADY_STATE,
    };
    let rep = batch::run(spec, &opts, &mut log);
    let metrics = printed_metrics(&opts, &rep);
    if let Err(e) = write_outputs(&opts, &rep, &log) {
        eprintln!("perfbench: writing {}: {e}", opts.out.display());
        std::process::exit(2);
    }

    for n in &rep.notes {
        println!("# {n}");
    }
    for (name, value, unit) in &metrics {
        println!("# {name:<36} {value:>16.4} {unit}");
    }
    let correct = rep.failed == 0;
    let mut m = Metrics::new();
    for (name, value, unit) in &metrics {
        let mut v = Metrics::new();
        v.set("value", *value).set("unit", *unit);
        m.set(name, v);
    }
    let mut line = Metrics::new();
    line.set("correct", correct)
        .set("attempted", rep.attempted)
        .set("failed", rep.failed)
        .set("metrics", m);
    println!("{}", one_line(&line));
    if !correct {
        std::process::exit(1);
    }
}

/// The metrics this mode prints, in catalogue order, with their units.
/// A per-layer metric the workload does not exercise reads 0.
fn printed_metrics(opts: &Opts, rep: &Report) -> Vec<(String, f64, &'static str)> {
    let value = |name: &str| rep.metrics.iter().find(|m| m.name == name).map(|m| m.value);
    if opts.trace {
        LAYERS
            .iter()
            .map(|l| (l.name.to_string(), value(l.name).unwrap_or(0.0), l.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|e| {
                let v = value(e.name).unwrap_or_else(|| panic!("{} not measured", e.name));
                (e.name.to_string(), v, e.unit)
            })
            .collect()
    }
}

/// Pretty JSON folded onto one line (string values never span lines).
fn one_line(m: &Metrics) -> String {
    m.to_json().lines().map(str::trim).collect()
}

/// The full report (every metric measured, printed or not), the spans
/// and, when traced, the per-layer table.
fn write_outputs(opts: &Opts, rep: &Report, log: &SpanLog) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out)?;
    let stem = format!(
        "{}.seed{}.trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let mut doc = Metrics::new();
    doc.set("workload", opts.workload.as_str())
        .set("seed", opts.seed)
        .set("seconds", opts.seconds)
        .set("trace", opts.trace)
        .set("attempted", rep.attempted)
        .set("failed", rep.failed)
        .set("notes", rep.notes.clone());
    let mut m = Metrics::new();
    for metric in &rep.metrics {
        m.set(&metric.name, metric.value);
    }
    doc.set("metrics", m);
    std::fs::write(opts.out.join(format!("{stem}.json")), doc.to_json())?;
    std::fs::write(
        opts.out.join(format!("{stem}.spans.json")),
        log.to_metrics().to_json(),
    )?;
    if opts.trace {
        std::fs::write(
            opts.out.join(format!("{}.layers.md", opts.workload)),
            layer_table(opts, rep, log),
        )?;
    }
    Ok(())
}

/// The per-layer table: each metric, its value, and the end-to-end
/// metric it should move; then time per span name.
fn layer_table(opts: &Opts, rep: &Report, log: &SpanLog) -> String {
    let mut s = format!(
        "# Per-layer table: {} (seed {}, {} s, traced)\n\n| metric | value | unit | should move |\n|---|---:|---|---|\n",
        opts.workload, opts.seed, opts.seconds
    );
    for l in LAYERS {
        match rep.metrics.iter().find(|m| m.name == l.name) {
            Some(m) => s.push_str(&format!(
                "| {} | {:.4} | {} | {} |\n",
                l.name, m.value, l.unit, l.moves
            )),
            None => s.push_str(&format!(
                "| {} | n/a | {} | {} |\n",
                l.name, l.unit, l.moves
            )),
        }
    }
    s.push_str("\n| span | count | total ms | self ms |\n|---|---:|---:|---:|\n");
    for (name, n, total, own) in log.self_times() {
        s.push_str(&format!("| {name} | {n} | {total:.3} | {own:.3} |\n"));
    }
    s
}
