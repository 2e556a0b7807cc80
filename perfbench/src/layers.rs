//! The metric catalogue: every end-to-end and per-layer metric the
//! command prints, with its unit and, for a layer metric, the end-to-end
//! metric it should move and on which workload.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "host_ns_per_inst",
        unit: "ns",
    },
    EndToEnd {
        name: "run_ms_p50",
        unit: "ms",
    },
    EndToEnd {
        name: "run_ms_tail",
        unit: "ms",
    },
    EndToEnd {
        name: "modeled_cycles",
        unit: "cycles",
    },
    EndToEnd {
        name: "modeled_steady_cycles",
        unit: "cycles",
    },
    EndToEnd {
        name: "job_latency_ms_p50",
        unit: "ms",
    },
    EndToEnd {
        name: "job_latency_ms_tail",
        unit: "ms",
    },
    EndToEnd {
        name: "goodput_jobs_per_s",
        unit: "1/s",
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric this one should move, and where.
    pub moves: &'static str,
}

macro_rules! layer {
    ($name:expr, $unit:expr, $moves:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            moves: $moves,
        }
    };
}

const XLATE: &str =
    "host_ns_per_inst on cold_start (soft, be rows); about a third as much on steady_state";
const ENGINE: &str = "host_ns_per_inst on steady_state";
const MODELED: &str = "modeled_cycles, modeled_steady_cycles (modeled only)";
const SERVE: &str = "service job latency (serve leg of the steady_state trace; not gated)";

pub const LAYERS: &[Layer] = &[
    layer!("workloads.build_ms", "ms", "setup_s on every workload"),
    layer!("x86.decode_ns_per_inst", "ns", XLATE),
    layer!("cracker.crack_ns_per_inst", "ns", XLATE),
    layer!("fisa.encode_ns_per_uop", "ns", XLATE),
    layer!("fisa.decode_ns_per_uop", "ns", XLATE),
    layer!("core.bbt_translate_us_per_block", "us", XLATE),
    layer!(
        "core.sbt_translate_us_per_region",
        "us",
        "host_ns_per_inst on cold_start (interp row)"
    ),
    layer!("core.run_ns_per_inst.ref", "ns", ENGINE),
    layer!("core.run_ns_per_inst.interp", "ns", ENGINE),
    layer!("core.run_ns_per_inst.soft", "ns", ENGINE),
    layer!("core.run_ns_per_inst.be", "ns", ENGINE),
    layer!("core.run_ns_per_inst.fe", "ns", ENGINE),
    layer!("core.startup_gap_ms", "ms", "run_ms_p50 on cold_start"),
    layer!(
        "core.startup_unattributed_ms",
        "ms",
        "run_ms_p50 on cold_start"
    ),
    layer!(
        "core.snapshot_save_ms",
        "ms",
        "setup_s of a warm service; service job latency"
    ),
    layer!(
        "core.restore_ms",
        "ms",
        "setup_s of a warm service; service job latency"
    ),
    layer!(
        "core.image_kb",
        "KiB",
        "setup_s of a warm service; service job latency"
    ),
    layer!("core.warm_over_cold_cycles.soft", "ratio", MODELED),
    layer!("core.warm_over_cold_cycles.be", "ratio", MODELED),
    layer!("core.warm_over_cold_cycles.fe", "ratio", MODELED),
    layer!("core.warm_over_cold_cycles.interp", "ratio", MODELED),
    layer!("x86.decoder_hit_ratio", "ratio", XLATE),
    layer!("cracker.uops_per_inst", "ratio", XLATE),
    layer!("cracker.uncrackable_insts", "count", MODELED),
    layer!("core.bbt_blocks", "count", XLATE),
    layer!(
        "core.sbt_regions",
        "count",
        "host_ns_per_inst on cold_start (interp row)"
    ),
    layer!("core.demotions", "count", "host_ns_per_inst on cold_start"),
    layer!(
        "core.vm_exits_per_kinst",
        "1/kinst",
        "host_ns_per_inst on cold_start"
    ),
    layer!(
        "mem.cache_flushes",
        "count",
        "host_ns_per_inst on cold_start"
    ),
    layer!(
        "mem.chain_patches",
        "count",
        "host_ns_per_inst on cold_start"
    ),
    layer!("fisa.fused_uop_ratio", "ratio", MODELED),
    layer!("uarch.phase_share.x86_mode", "ratio", MODELED),
    layer!("uarch.phase_share.interp", "ratio", MODELED),
    layer!("uarch.phase_share.native", "ratio", MODELED),
    layer!("uarch.phase_share.bbt_xlate", "ratio", MODELED),
    layer!("uarch.phase_share.sbt_xlate", "ratio", MODELED),
    layer!("uarch.phase_share.xlt_assist", "ratio", MODELED),
    layer!("uarch.phase_share.fault_recovery", "ratio", MODELED),
    layer!("uarch.phase_share.vmm", "ratio", MODELED),
    layer!("uarch.ipc", "ratio", MODELED),
    layer!("serve.admission_us_p50", "us", SERVE),
    layer!("serve.queue_ms_p50", "ms", SERVE),
    layer!("serve.queue_ms_tail", "ms", SERVE),
    layer!("serve.stamp_ms_p50", "ms", SERVE),
    layer!("serve.run_ms_p50", "ms", SERVE),
    layer!("serve.warm_stamp_ratio", "ratio", SERVE),
    layer!("serve.retries", "count", SERVE),
    layer!("serve.sheds", "count", SERVE),
    layer!(
        "loadgen.lag_ms_max",
        "ms",
        "none: how late the generator submitted (generator health)"
    ),
    layer!(
        "trace.overhead_ratio",
        "ratio",
        "none: traced over untraced host time of this workload"
    ),
];
