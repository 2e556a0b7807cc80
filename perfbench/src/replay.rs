//! Replays the translation layers on the exact entries a traced run
//! translated (its `TraceEvent::BlockTranslated` and
//! `TraceEvent::SuperblockFormed` records), one span per layer per pass.
//!
//! Each stage's input is prepared untimed, so a stage's span covers only
//! that layer's public call: `block::scan_block` (x86 decode),
//! `cracker::crack`, `fisa::encoding::encode`, `encoding::decode_all`
//! (the executor's re-decode), `Vm::translate_bbt` and `sbt::translate_sbt`.

use std::hint::black_box;

use cdvm_core::block::{scan_block, Block};
use cdvm_core::sbt::translate_sbt;
use cdvm_core::vm::Vm;
use cdvm_core::System;
use cdvm_cracker::crack;
use cdvm_fisa::{encoding, Uop};
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::Workload;
use cdvm_x86::Decoder;

use crate::spans::SpanLog;

/// Passes per stateless stage; the per-layer figure keeps the fastest.
const PASSES: usize = 3;

/// Decode, crack, encode, re-decode and BBT-translate the run's blocks.
pub fn bbt_path(
    kind: MachineKind,
    wl: &Workload,
    blocks: &[u32],
    key: &str,
    parent: u32,
    log: &mut SpanLog,
) {
    let mut mem = wl.mem.clone();
    let mut dec = Decoder::new();
    let decoded: Vec<Block> = blocks
        .iter()
        .filter_map(|&e| scan_block(&mut dec, &mut mem, e).ok())
        .collect();
    let insts: usize = decoded.iter().map(|b| b.insts.len()).sum();
    let cracked: Vec<Vec<Uop>> = decoded
        .iter()
        .map(|b| {
            b.insts
                .iter()
                .filter_map(|(pc, inst)| crack(inst, *pc).ok())
                .flat_map(|c| c.uops)
                .collect()
        })
        .collect();
    let uops: usize = cracked.iter().map(Vec::len).sum();
    let encoded: Vec<Vec<u8>> = cracked.iter().map(|u| encoding::encode(u)).collect();
    let cfg = MachineConfig::preset(kind);

    for _ in 0..PASSES {
        let mut mem = wl.mem.clone();
        let mut dec = Decoder::new();
        let s = log.begin("x86.decode", Some(parent), key);
        for &e in blocks {
            black_box(scan_block(&mut dec, &mut mem, e).ok());
        }
        log.end(s, insts as f64);

        let s = log.begin("cracker.crack", Some(parent), key);
        for b in &decoded {
            for (pc, inst) in &b.insts {
                black_box(crack(inst, *pc).ok());
            }
        }
        log.end(s, insts as f64);

        let s = log.begin("fisa.encode", Some(parent), key);
        for u in &cracked {
            black_box(encoding::encode(u));
        }
        log.end(s, uops as f64);

        let s = log.begin("fisa.decode", Some(parent), key);
        for bytes in &encoded {
            black_box(encoding::decode_all(bytes).ok());
        }
        log.end(s, uops as f64);

        let mut vm = Vm::new(
            cfg.bbt_cache_bytes,
            cfg.sbt_cache_bytes,
            cfg.hot_threshold,
            true,
        );
        let mut mem = wl.mem.clone();
        let mut dec = Decoder::new();
        let s = log.begin("core.translate_bbt", Some(parent), key);
        for &e in blocks {
            black_box(vm.translate_bbt(&mut dec, &mut mem, e).ok());
        }
        log.end(s, blocks.len() as f64);
    }
}

/// Re-forms the run's superblocks on its end-of-run VM (one pass: the
/// translations install into that VM's cache). VM.interp's passes are
/// kept under their own span name, the row the per-layer figure reads.
pub fn sbt(sys: &mut System, superblocks: &[u32], key: &str, parent: u32, log: &mut SpanLog) {
    let name = if sys.kind == MachineKind::VmInterp {
        "core.translate_sbt.interp"
    } else {
        "core.translate_sbt"
    };
    let Some(vm) = sys.vm.as_mut() else {
        return;
    };
    let s = log.begin(name, Some(parent), key);
    for &e in superblocks {
        black_box(translate_sbt(vm, &mut sys.interp.decoder, &mut sys.mem, e).ok());
    }
    log.end(s, superblocks.len() as f64);
}
