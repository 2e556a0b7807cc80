//! The workload code generator.

use cdvm_mem::{GuestMem, Memory, Rng64};
use cdvm_x86::{AluOp, Asm, Cond, Gpr, MemRef, ShiftOp, Width};

use crate::AppProfile;

/// Guest code base address.
pub const CODE_BASE: u32 = 0x40_0000;
/// Guest data base (globals).
pub const DATA_BASE: u32 = 0x1000_0000;
/// Function-pointer table base.
const FTAB_BASE: u32 = 0x1800_0000;
/// Dispatcher schedule base.
const SCHED_BASE: u32 = 0x2000_0000;

/// A generated, ready-to-run guest program.
pub struct Workload {
    /// Application name.
    pub name: String,
    /// Memory image with code, globals, function table and schedule
    /// resident (the paper's memory-startup scenario).
    pub mem: GuestMem,
    /// Entry PC.
    pub entry: u32,
    /// Static x86 instructions generated.
    pub static_insts: usize,
    /// Dispatcher calls scheduled.
    pub scheduled_calls: usize,
    /// Rough a-priori dynamic instruction estimate.
    pub approx_dynamic: u64,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("static_insts", &self.static_insts)
            .field("scheduled_calls", &self.scheduled_calls)
            .finish()
    }
}

/// Counts instructions as they are emitted.
struct Emitter {
    asm: Asm,
    insts: usize,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter {
            asm: Asm::new(CODE_BASE),
            insts: 0,
        }
    }
}

macro_rules! emit {
    ($e:expr, $n:expr, $body:expr) => {{
        $e.insts += $n;
        $body
    }};
}

struct FuncSpec {
    addr: u32,
    /// Estimated dynamic instructions per call.
    per_call: u64,
}

/// Builds one application at `scale` (1.0 = the paper's 100M-instruction
/// reference length; footprint and schedule both scale so overhead
/// *ratios* are preserved).
pub fn build_app(profile: &AppProfile, scale: f64) -> Workload {
    build_app_run(profile, scale, 1.0)
}

/// Builds one application with an independent run-length multiplier:
/// `scale` sets the static footprint (the app), `length_mult` stretches
/// the dispatcher schedule (the trace length). The paper's 500M-
/// instruction runs are the 100M apps with `length_mult = 5` — execution
/// counts grow while the hot threshold stays fixed, which is what makes
/// hotspot coverage rise on longer traces.
pub fn build_app_run(profile: &AppProfile, scale: f64, length_mult: f64) -> Workload {
    let mut rng = Rng64::new(profile.seed);
    let nfuncs = ((profile.funcs as f64 * scale) as usize).max(32);
    let ncalls = ((profile.calls as f64 * scale * length_mult) as usize).max(200);

    let mut e = Emitter::new();
    let mut mem = GuestMem::new();

    // ---- driver ---------------------------------------------------------
    let entry = e.asm.pc();
    // ebp = function table, esi = schedule cursor, edi = schedule end.
    // Every generated function preserves EBP/ESI/EDI (callee-saved).
    e.insts += 3;
    e.asm.mov_ri(Gpr::Ebp, FTAB_BASE);
    e.asm.mov_ri(Gpr::Esi, SCHED_BASE);
    e.asm.mov_ri(Gpr::Edi, SCHED_BASE + 4 * ncalls as u32);
    let loop_top = e.asm.here();
    let done = e.asm.label();
    e.insts += 7;
    e.asm.alu_rr(AluOp::Cmp, Gpr::Esi, Gpr::Edi);
    e.asm.jcc(Cond::Ae, done);
    e.asm.mov_rm(Gpr::Eax, MemRef::base_disp(Gpr::Esi, 0));
    e.asm.alu_ri(AluOp::Add, Gpr::Esi, 4);
    e.asm
        .mov_rm(Gpr::Ebx, MemRef::base_index(Gpr::Ebp, Gpr::Eax, 4, 0));
    e.asm.call_r(Gpr::Ebx);
    e.asm.jmp(loop_top);
    e.asm.bind(done);
    e.insts += 1;
    e.asm.hlt();

    // NOTE: the dispatcher reads the function table via EBP (callee-saved
    // by every generated function), initialised below.

    // ---- shared utility functions ---------------------------------------
    let mut utils = Vec::new();
    for _ in 0..8 {
        let addr = e.asm.pc();
        gen_util(&mut e, &mut rng, profile);
        utils.push(addr);
    }

    // ---- leaf functions --------------------------------------------------
    let mut funcs: Vec<FuncSpec> = Vec::with_capacity(nfuncs);
    for i in 0..nfuncs {
        let addr = e.asm.pc();
        let hot_rank = i as f64 / (nfuncs as f64 / 8.0).max(1.0);
        let inner = 1 + (profile.inner_loop as f64 / (1.0 + hot_rank)) as u32;
        let per_call = gen_func(&mut e, &mut rng, profile, inner, &utils);
        funcs.push(FuncSpec { addr, per_call });
    }

    let code = e.asm.finish();
    mem.load(CODE_BASE, &code);

    // ---- data: globals, function table, schedule -------------------------
    for k in (0..profile.data_kb * 1024 / 4).step_by(7) {
        mem.write_u32(DATA_BASE + k * 4, k.wrapping_mul(0x9e37_79b9));
    }
    for (i, f) in funcs.iter().enumerate() {
        mem.write_u32(FTAB_BASE + 4 * i as u32, f.addr);
    }

    // Zipf weights with cumulative prefix sums per phase window.
    let weights: Vec<f64> = (0..nfuncs)
        .map(|i| 1.0 / ((i + 1) as f64).powf(profile.zipf_s))
        .collect();
    let mut prefix = Vec::with_capacity(nfuncs + 1);
    prefix.push(0.0);
    for w in &weights {
        prefix.push(prefix.last().copied().unwrap_or(0.0) + w);
    }

    let mut approx_dynamic = 0u64;
    let phases = profile.phases.max(1);
    // Calls arrive in batches (a drawn function repeats several times
    // consecutively): real call sites live in loops, making indirect
    // call targets mostly monomorphic over short windows.
    let mut c = 0usize;
    while c < ncalls {
        let phase = c * phases / ncalls;
        // Cumulative window: later phases can reach colder functions.
        let window = ((phase + 1) * nfuncs / phases).clamp(1, nfuncs);
        let total = prefix[window];
        let x: f64 = rng.f64() * total;
        let idx = match prefix[..=window]
            .binary_search_by(|p| p.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => i.min(window - 1),
            Err(i) => (i - 1).min(window - 1),
        };
        let batch = rng.range_usize(4, 16).min(ncalls - c);
        for _ in 0..batch {
            mem.write_u32(SCHED_BASE + 4 * c as u32, idx as u32);
            approx_dynamic += funcs[idx].per_call + 8;
            c += 1;
        }
    }

    Workload {
        name: profile.name.to_string(),
        mem,
        entry,
        static_insts: e.insts,
        scheduled_calls: ncalls,
        approx_dynamic,
    }
}

/// Entry shim: the driver expects `EBP == FTAB_BASE`; `System` starts
/// with zeroed registers, so workloads prepend this initialisation by
/// convention — `build_app` emits it as the first instruction.
fn gen_util(e: &mut Emitter, rng: &mut Rng64, profile: &AppProfile) {
    // Small straight-line helper: a few ALU ops on caller-saved regs.
    let n = rng.range_usize(3, 8);
    for _ in 0..n {
        gen_alu_op(e, rng, profile, &[Gpr::Eax, Gpr::Ecx, Gpr::Edx]);
    }
    emit!(e, 1, e.asm.ret());
}

/// One generated leaf function; returns its estimated per-call dynamic
/// instruction count.
fn gen_func(
    e: &mut Emitter,
    rng: &mut Rng64,
    profile: &AppProfile,
    inner: u32,
    utils: &[u32],
) -> u64 {
    let mut per_call = 0u64;
    // Globals this function touches.
    let g = |rng: &mut Rng64| {
        DATA_BASE + rng.range_u32(0, profile.data_kb * 1024 / 4) * 4
    };
    let g0 = g(rng);
    let g1 = g(rng);

    emit!(e, 2, {
        e.asm.push_r(Gpr::Ebp);
        e.asm.mov_rr(Gpr::Ebp, Gpr::Esp);
    });
    // Keep EBP live for locals but restore the dispatcher's table pointer
    // on exit; we therefore use EBP only via save/restore.
    per_call += 2;

    // A few straight-line blocks with a biased forward branch each.
    let nblocks = rng.range_usize(2, 5);
    for _ in 0..nblocks {
        let n = rng.range_usize(3, 7);
        for _ in 0..n {
            gen_body_op(e, rng, profile, g0, g1);
        }
        per_call += n as u64;
        // Alternating or biased conditional.
        if rng.bool(0.5) {
            // Alternating on a global counter (gshare food).
            emit!(e, 4, {
                e.asm.mov_rm(Gpr::Eax, MemRef::abs(g0));
                e.asm.inc_r(Gpr::Eax);
                e.asm.mov_mr(MemRef::abs(g0), Gpr::Eax);
                e.asm.alu_ri(AluOp::Test, Gpr::Eax, 1);
            });
            per_call += 4;
        } else {
            emit!(e, 2, {
                e.asm.mov_rm(Gpr::Eax, MemRef::abs(g1));
                e.asm.alu_ri(AluOp::Test, Gpr::Eax, 0x10);
            });
            per_call += 2;
        }
        let skip = e.asm.label();
        emit!(e, 1, e.asm.jcc(Cond::Ne, skip));
        let filler = rng.range_usize(1, 4);
        for _ in 0..filler {
            gen_alu_op(e, rng, profile, &[Gpr::Ecx, Gpr::Edx]);
        }
        e.asm.bind(skip);
        per_call += 1 + filler as u64 / 2;
    }

    // The hot inner loop.
    let loop_body = rng.range_usize(2, 5);
    emit!(e, 1, e.asm.mov_ri(Gpr::Ecx, inner));
    let top = e.asm.here();
    for _ in 0..loop_body {
        gen_body_op(e, rng, profile, g0, g1);
    }
    emit!(e, 2, {
        e.asm.dec_r(Gpr::Ecx);
        e.asm.jcc(Cond::Ne, top);
    });
    per_call += 1 + (loop_body as u64 + 2) * inner as u64;

    // Occasional REP MOVS block copy (complex path; Winzip-heavy).
    if rng.bool(profile.rep_prob) {
        let words = rng.range_u32(4, 16);
        emit!(e, 7, {
            e.asm.push_r(Gpr::Esi);
            e.asm.push_r(Gpr::Edi);
            e.asm.mov_ri(Gpr::Esi, g0 & !3);
            e.asm.mov_ri(Gpr::Edi, (g1 & !3) ^ 0x40);
            e.asm.mov_ri(Gpr::Ecx, words);
            e.asm.cld();
            e.asm.movs(Width::W32, true);
        });
        emit!(e, 2, {
            e.asm.pop_r(Gpr::Edi);
            e.asm.pop_r(Gpr::Esi);
        });
        per_call += 9 + words as u64;
    }

    // Occasional direct call into a shared utility (call depth 2).
    if rng.bool(0.35) {
        let u = utils[rng.range_usize(0, utils.len())];
        // Register-indirect call to the shared utility (the call/return
        // pairing still exercises the RAS).
        emit!(e, 2, {
            e.asm.mov_ri(Gpr::Edx, u);
            e.asm.call_r(Gpr::Edx);
        });
        per_call += 2 + 8;
    }

    emit!(e, 2, {
        e.asm.pop_r(Gpr::Ebp);
        e.asm.ret();
    });
    per_call += 2;
    per_call
}

/// One register-only ALU instruction.
fn gen_alu_op(e: &mut Emitter, rng: &mut Rng64, profile: &AppProfile, regs: &[Gpr]) {
    let chained = rng.bool(profile.chain_prob);
    let d = regs[rng.range_usize(0, regs.len())];
    let s = regs[rng.range_usize(0, regs.len())];
    let ops = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor];
    let op = ops[rng.range_usize(0, ops.len())];
    emit!(e, 1, {
        if chained && d != s {
            e.asm.alu_rr(op, d, s);
        } else if rng.bool(0.3) {
            e.asm.shift_ri(
                [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar][rng.range_usize(0, 3)],
                d,
                rng.range_u32(1, 8) as u8,
            );
        } else {
            e.asm.alu_ri(op, d, rng.range_i32(-64, 64));
        }
    });
}

/// One body operation: ALU or memory, per the profile's mix.
fn gen_body_op(e: &mut Emitter, rng: &mut Rng64, profile: &AppProfile, g0: u32, g1: u32) {
    if rng.bool(profile.mem_ratio) {
        let addr = if rng.bool(0.5) { g0 } else { g1 };
        let addr = addr.wrapping_add(rng.range_u32(0, 16) * 4) & !3;
        match rng.range_u32(0, 3) {
            0 => emit!(e, 1, e.asm.mov_rm(Gpr::Edx, MemRef::abs(addr))),
            1 => emit!(e, 1, e.asm.mov_mr(MemRef::abs(addr), Gpr::Eax)),
            _ => emit!(e, 1, e.asm.alu_rm(AluOp::Add, Gpr::Eax, MemRef::abs(addr))),
        }
    } else {
        gen_alu_op(e, rng, profile, &[Gpr::Eax, Gpr::Edx]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::winstone2004;

    /// The code, data, function-table and schedule regions of `wl`, read
    /// back from its image. The code region is read to a bound of 16
    /// bytes per instruction, so it ends in zero padding.
    fn regions(wl: &mut Workload, p: &AppProfile, scale: f64) -> [Vec<u8>; 4] {
        // As in `build_app_run`.
        let nfuncs = ((p.funcs as f64 * scale) as usize).max(32);
        let spans = [
            (CODE_BASE, wl.static_insts * 16),
            (DATA_BASE, p.data_kb as usize * 1024),
            (FTAB_BASE, nfuncs * 4),
            (SCHED_BASE, wl.scheduled_calls * 4),
        ];
        let out = spans.map(|(base, len)| {
            let mut buf = vec![0; len];
            wl.mem.read_bytes(base, &mut buf);
            buf
        });
        assert!(out[0].ends_with(&[0; 16]), "code overran its read bound");
        out
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn deterministic_generation() {
        let p = &winstone2004()[1];
        let mut a = build_app(p, 0.01);
        let mut b = build_app(p, 0.01);
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.static_insts, b.static_insts);
        assert_eq!(a.scheduled_calls, b.scheduled_calls);
        assert_eq!(a.approx_dynamic, b.approx_dynamic);
        assert_eq!(a.mem.resident_pages(), b.mem.resident_pages());
        let ra = regions(&mut a, p, 0.01);
        assert!(ra == regions(&mut b, p, 0.01), "images differ");

        // The data region: every seventh word is seeded, the rest is zero.
        for (k, w) in ra[1].chunks_exact(4).enumerate() {
            let k = k as u32;
            let want = if k.is_multiple_of(7) {
                k.wrapping_mul(0x9e37_79b9)
            } else {
                0
            };
            assert_eq!(
                u32::from_le_bytes([w[0], w[1], w[2], w[3]]),
                want,
                "data word {k}"
            );
        }
    }

    /// Pins every profile's image byte for byte at scale 0.005: the FNV-1a
    /// hash of each region (see `regions`) and `entry`, `static_insts`,
    /// `scheduled_calls`, `approx_dynamic` and `resident_pages()`. Host-side
    /// changes to the generator must leave these untouched.
    #[test]
    fn images_match_golden_fingerprints() {
        const SCALE: f64 = 0.005;
        #[rustfmt::skip]
        const GOLDEN: [(&str, [u64; 4], [u64; 5]); 10] = [
            ("Access", [0xdce6a3775822b902, 0x9d35042ece6a0092, 0xbb0649c0911c49c5, 0xfe5608f216bb7d79], [4194304, 1384, 6000, 824063, 521]),
            ("Excel", [0xe74171c8e93d0e38, 0x22c4a02e9ec56d8c, 0x099a1c0a435c1d54, 0x51350d465d3efb0c], [4194304, 1438, 6000, 990523, 265]),
            ("FrontPage", [0x47c18255cbe2409e, 0x22c4a02e9ec56d8c, 0xd66a7406004fc884, 0xaf2341f1f339d7b5], [4194304, 1407, 6000, 845158, 265]),
            ("IE", [0x70dda37022e61de9, 0x185471d167d6653c, 0xc1b9fe5452625430, 0x4cda523d1b27bcfb], [4194304, 1468, 6000, 788911, 777]),
            ("Norton", [0x7fb3b9db99f78c23, 0x22c4a02e9ec56d8c, 0x57de7b3d01579ad2, 0x033becae80c2ac3c], [4194304, 1417, 6000, 1011880, 265]),
            ("Outlook", [0xb747526b1ece7f76, 0x9d35042ece6a0092, 0x08b5361fe997302c, 0x183f12e5c30c7cd0], [4194304, 1452, 6000, 797597, 521]),
            ("PowerPoint", [0x8e13b9ccd399b5cc, 0x22c4a02e9ec56d8c, 0xe491ade75b0b17f0, 0x2baf485e810eacbe], [4194304, 1408, 6000, 816857, 265]),
            ("Project", [0x6ef4bdebe6e82373, 0x22c4a02e9ec56d8c, 0x4a10222ce0258d5f, 0x047d505565acafbc], [4194304, 1459, 6000, 795077, 265]),
            ("Winzip", [0x5f7cb641c9b5c6ac, 0x22c4a02e9ec56d8c, 0xb503af11848afb94, 0x1dd80f41f4cdd692], [4194304, 1315, 6000, 1244455, 265]),
            ("Word", [0xfc6eb978cb58c19c, 0x22c4a02e9ec56d8c, 0xedb49838d6bb216b, 0x22cae0f61de645e4], [4194304, 1427, 6000, 822639, 265]),
        ];
        let got: Vec<_> = winstone2004()
            .iter()
            .map(|p| {
                let mut wl = build_app(p, SCALE);
                let hashes = regions(&mut wl, p, SCALE).map(|r| fnv1a(&r));
                let scalars = [
                    u64::from(wl.entry),
                    wl.static_insts as u64,
                    wl.scheduled_calls as u64,
                    wl.approx_dynamic,
                    wl.mem.resident_pages() as u64,
                ];
                (p.name, hashes, scalars)
            })
            .collect();
        let rows: String = got
            .iter()
            .map(|(name, h, s)| {
                let h = h.map(|h| format!("{h:#018x}")).join(", ");
                let s = s.map(|s| s.to_string()).join(", ");
                format!("\n(\"{name}\", [{h}], [{s}]),")
            })
            .collect();
        assert!(
            got == GOLDEN,
            "generated images differ from GOLDEN; they are now:{rows}"
        );
    }

    #[test]
    fn footprint_scales() {
        let p = &winstone2004()[0];
        let small = build_app(p, 0.01);
        let big = build_app(p, 0.05);
        assert!(big.static_insts > small.static_insts * 3);
    }

    #[test]
    fn reference_scale_footprint_near_150k() {
        let p = &winstone2004()[9]; // Word
        let wl = build_app(p, 1.0);
        // ≈30 instructions per function × ~5200 functions.
        assert!(
            (100_000..260_000).contains(&wl.static_insts),
            "static footprint {} should be O(150K) at reference scale",
            wl.static_insts
        );
    }
}
