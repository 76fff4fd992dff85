//! Commit and abort release exactly the lines a transaction tagged, on
//! every core that holds one.
//!
//! Each run is single-stepped. Before every step the harness records
//! which `(core, block)` lines each transaction has tagged. When a
//! transaction ends, its lines are checked against that record: a commit
//! keeps every line in place with its coherence state and drops the tag.
//! An abort leaves no dirty line of the transaction behind, and no line
//! still carrying its tag.

use ptm_cache::CacheConfig;
use ptm_sim::{
    assert_serializable, check_invariants, run, Machine, MachineConfig, Op, SystemKind,
    ThreadProgram,
};
use ptm_types::{Granularity, PhysBlock, ProcessId, ThreadId, TxId, VirtAddr};
use std::collections::{BTreeMap, BTreeSet};

/// `(core, block, dirty)` for every line a transaction has tagged.
type Tagged = BTreeMap<TxId, Vec<(usize, PhysBlock, bool)>>;

fn tagged_lines(m: &Machine) -> Tagged {
    let mut out = Tagged::new();
    for (core, h) in m.caches().iter().enumerate() {
        for line in h.lines() {
            if let Some(meta) = line.tx_meta() {
                out.entry(meta.tx)
                    .or_default()
                    .push((core, line.block(), line.state().is_dirty()));
            }
        }
    }
    out
}

/// Transactions that ended with their lines on two or more cores.
#[derive(Debug, Default)]
struct Released {
    commits: usize,
    aborts: usize,
}

/// Single-steps `programs` to completion, checking every commit and
/// abort against the lines its transaction had tagged one step earlier.
/// The stepped run must match an uninterrupted one bit for bit.
fn step_and_check(cfg: MachineConfig, kind: SystemKind, programs: &[ThreadProgram]) -> Released {
    let mut m = Machine::new(cfg, kind, programs.to_vec());
    let mut seen = Released::default();
    let mut before = tagged_lines(&m);
    loop {
        let drained = m.run_steps(1);
        let after = tagged_lines(&m);
        let live = m
            .backend()
            .as_ptm()
            .expect("PTM")
            .tstate()
            .live_transactions();
        for (tx, lines) in &before {
            if live.contains(tx) {
                continue;
            }
            assert!(
                !after.contains_key(tx),
                "{tx} ended but still tags {:?}",
                after[tx]
            );
            let committed = m.stats().commit_log.iter().any(|c| c.tx == *tx);
            for &(core, block, dirty) in lines {
                let now = m.caches()[core].line(block);
                if committed {
                    let line = now.unwrap_or_else(|| panic!("{tx} commit dropped {block}"));
                    assert_eq!(line.state().is_dirty(), dirty, "{tx} commit: {line}");
                } else if dirty {
                    // The speculative data is gone; only the aborter's own
                    // refill may sit there now.
                    assert!(
                        now.is_none_or(|l| l.tx_meta().is_some_and(|meta| meta.tx != *tx)),
                        "{tx} abort kept dirty {block} on core {core}"
                    );
                }
            }
            if lines.iter().map(|l| l.0).collect::<BTreeSet<_>>().len() > 1 {
                if committed {
                    seen.commits += 1;
                } else {
                    seen.aborts += 1;
                }
            }
        }
        before = after;
        if drained {
            break;
        }
    }
    check_invariants(&m).unwrap_or_else(|e| panic!("{kind}: {e}"));
    assert_serializable(&m, programs);

    let whole = run(cfg, kind, programs.to_vec());
    assert_eq!(m.stats().cycles, whole.stats().cycles, "{kind}");
    assert_eq!(m.stats().commits, whole.stats().commits, "{kind}");
    assert_eq!(m.stats().aborts, whole.stats().aborts, "{kind}");
    assert_eq!(m.checksums(), whole.checksums(), "{kind}");
    seen
}

fn begin(lock: u64) -> Op {
    Op::Begin {
        ordered: None,
        lock: VirtAddr::new(lock),
    }
}

#[test]
fn migrated_transactions_release_their_lines_on_both_cores() {
    // A short switch interval with migration moves threads between cores
    // mid-transaction, so a transaction's lines sit on two cores. A thread
    // migrates only to an idle ring neighbour, so a third core runs nothing
    // and the two workers rotate through it. Thread 1 increments a shared
    // counter first and thread 0 last, so an older thread-0 transaction
    // aborts a younger thread-1 one after that has spread over both cores.
    let counter = VirtAddr::new(0x10_0000);
    let mut programs: Vec<ThreadProgram> = (0..2u64)
        .map(|t| {
            let base = 0x40_0000 + t * 0x1_0000;
            let mut ops = Vec::new();
            for i in 0..20u64 {
                ops.push(begin(0x20_0000));
                if t == 1 {
                    ops.push(Op::Rmw(counter, 1));
                }
                for b in 0..6u64 {
                    ops.push(Op::Write(VirtAddr::new(base + (i * 6 + b) * 64), 1));
                    ops.push(Op::Read(VirtAddr::new(base + 0x8000 + b * 64)));
                    ops.push(Op::Compute(60));
                }
                if t == 0 {
                    ops.push(Op::Rmw(counter, 1));
                }
                ops.push(Op::End);
            }
            ThreadProgram::new(ProcessId(0), ThreadId(t as u32), ops)
        })
        .collect();
    programs.push(ThreadProgram::new(
        ProcessId(0),
        ThreadId(2),
        vec![Op::Compute(1)],
    ));
    let cfg = MachineConfig {
        kernel: ptm_sim::KernelConfig {
            cs_interval: Some(700),
            migrate_on_cs: true,
            ..Default::default()
        },
        ..MachineConfig::default()
    };
    for kind in [
        SystemKind::SelectPtm(Granularity::Block),
        SystemKind::CopyPtm,
    ] {
        let seen = step_and_check(cfg, kind, &programs);
        assert!(
            seen.commits > 0,
            "{kind}: no commit spanned two cores: {seen:?}"
        );
        assert!(
            seen.aborts > 0,
            "{kind}: no abort spanned two cores: {seen:?}"
        );
    }
}

#[test]
fn a_line_evicted_and_refilled_in_one_transaction_is_released_once() {
    // One-line caches: the younger transaction's write to `b` evicts its
    // tagged `a`, and the write back to `a` refills and retags it, so `a`
    // is listed twice. The older transaction then writes `a` and aborts the
    // younger one; its retry commits.
    let (a, b) = (0x40_0000u64, 0x48_0000u64);
    let old = ThreadProgram::new(
        ProcessId(0),
        ThreadId(0),
        vec![
            begin(0x20_0000),
            Op::Compute(3_000),
            Op::Write(VirtAddr::new(a), 7),
            Op::End,
        ],
    );
    let young = ThreadProgram::new(
        ProcessId(0),
        ThreadId(1),
        vec![
            Op::Compute(100),
            begin(0x20_0000),
            Op::Write(VirtAddr::new(a), 1),
            Op::Write(VirtAddr::new(b), 2),
            Op::Write(VirtAddr::new(a), 3),
            Op::Compute(6_000),
            Op::End,
        ],
    );
    let cfg = MachineConfig {
        l1: CacheConfig::tiny(1, 1),
        l2: CacheConfig::tiny(1, 1),
        ..MachineConfig::default()
    };
    let kind = SystemKind::SelectPtm(Granularity::Block);
    let programs = vec![old, young];
    step_and_check(cfg, kind, &programs);

    let m = run(cfg, kind, programs);
    let ptm = m.backend().as_ptm().expect("PTM");
    assert!(ptm.stats().overflows() > 0, "a was evicted while tagged");
    assert!(m.stats().aborts > 0, "the younger transaction aborted");
    assert_eq!(m.stats().commits, 2);
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(a)), 3);
    assert_eq!(m.read_committed(ProcessId(0), VirtAddr::new(b)), 2);
}
