//! `recovery`: one `recover()` call on the journal image of a long
//! Zipfian stream, cut so the image holds committed blocks, a sealed but
//! uncommitted block and an unsealed tail.
//!
//! `run_stream_with_crash` writes the journal and crashes part-way
//! through a batch. Its engine seals, executes and commits a block with
//! no accept in between, so one cut never leaves a sealed block *and* a
//! tail behind it. The image is finished through the public `Journal`
//! API the way an ingest that keeps accepting while a block executes
//! would leave it: the surviving unsealed accepts are sealed, more
//! transactions are accepted after them, and the journal is forced.

use crate::probe::{self, Probe, Timed};
use crate::service::{self, set_pipeline_metrics, MAX_BATCH};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{timed_setup, Opts, Report};
use ptm_bench::service_chaos::oracle_check;
use ptm_service::{
    fold_deltas, recover, replay, run_block, run_stream_with_crash, BlockOutcome, CrashRun,
    Journal, RecoveryReport, ServiceConfig, ServiceCrashImage, ServiceCrashPlan,
};
use ptm_types::FastMap;
use ptm_workloads::ClientTx;
use std::time::Instant;

/// Workload size. [`Size::FULL`] is the benchmark; tests use a small one.
pub struct Size {
    /// Transactions in the stream the journal is written from.
    pub stream_txs: usize,
    /// Transactions accepted after the sealed block.
    pub tail_txs: usize,
    /// Accepts into the cut batch before the crash.
    pub cut_after: u64,
    /// Fewest `recover()` calls a run times.
    pub min_calls: usize,
}

impl Size {
    pub const FULL: Size = Size {
        stream_txs: 100_000,
        tail_txs: 100,
        cut_after: 100,
        min_calls: 5,
    };
}

/// Builds the crash image; returns the stream it was written from.
fn make_image(
    cfg: &ServiceConfig,
    seed: u64,
    size: &Size,
) -> Result<(Vec<ClientTx>, ServiceCrashImage), String> {
    let stream = service::stream(seed, 5, size.stream_txs);
    // A block costs `max_batch` accept steps plus seal, execute, commit
    // and fold. Cut into the second-to-last full batch, leaving stream
    // for the accepts after the sealed block.
    let blocks = (size.stream_txs / MAX_BATCH) as u64;
    if blocks < 3 {
        return Err("recovery stream too short".into());
    }
    let at_step = (blocks - 2) * (MAX_BATCH as u64 + 4) + size.cut_after;
    let crashed = match run_stream_with_crash(*cfg, &stream, Some(ServiceCrashPlan { at_step })) {
        CrashRun::Crashed(img) => img,
        CrashRun::Completed(_) => return Err("the crash plan did not fire".into()),
    };
    let rep = replay(&crashed.journal.bytes);
    if rep.tail.is_empty() {
        return Err("the cut left no unsealed accepts to seal".into());
    }
    let jcfg = cfg.journal.expect("journaled config");
    let mut journal = Journal::reopen(
        jcfg,
        crashed.journal.bytes[..rep.valid_len].to_vec(),
        rep.records,
    );
    journal.seal(rep.next_block_seq, rep.tail.len() as u32);
    let done = rep.blocks.iter().map(|b| b.txs.len()).sum::<usize>() + rep.tail.len();
    let end = (done + size.tail_txs).min(stream.len());
    for tx in &stream[done..end] {
        journal.accept(tx);
    }
    journal.force();
    let accepted = stream[..end].to_vec();
    let image = ServiceCrashImage {
        journal: journal.crash_image(),
        acked: accepted.iter().map(|t| t.id).collect(),
        accepted,
        ..crashed
    };
    Ok((stream, image))
}

/// `recover()` driven by hand in the same order, with spans around each
/// layer call. Returns the outcomes, sorted non-zero balances and the
/// reopened journal.
fn hand_recover(
    cfg: &ServiceConfig,
    bytes: &[u8],
    tr: &mut Tracer,
) -> (Vec<BlockOutcome>, Vec<(u64, u32)>, Journal) {
    let root = tr.open("recovery.recover", 0, None);
    let rep = tr.span("recovery.replay", 0, Some(root), || replay(bytes));
    let jcfg = cfg.journal.expect("journaled config");
    let mut journal = Journal::reopen(jcfg, bytes[..rep.valid_len].to_vec(), rep.records);
    let mut balances: FastMap<u64, u32> = FastMap::default();
    let mut outcomes = Vec::with_capacity(rep.blocks.len() + 1);
    let execute = |seq: u64, txs: &[ClientTx], balances: &FastMap<u64, u32>, tr: &mut Tracer| {
        let mut bcfg = *cfg;
        if let Some(chaos) = &mut bcfg.chaos {
            chaos.salt = seq;
        }
        let mut o = tr.span("service.run_block", seq, Some(root), || {
            run_block(&bcfg, txs, balances)
        });
        o.block_seq = seq;
        o
    };
    for block in &rep.blocks {
        let outcome = execute(block.seq, &block.txs, &balances, tr);
        match &block.deltas {
            Some(journaled) => tr.span("service.fold", block.seq, Some(root), || {
                fold_deltas(&mut balances, journaled)
            }),
            None => {
                tr.span("journal.commit", block.seq, Some(root), || {
                    journal.commit(block.seq, &outcome.deltas)
                });
                tr.span("service.fold", block.seq, Some(root), || {
                    fold_deltas(&mut balances, &outcome.deltas)
                });
            }
        }
        outcomes.push(outcome);
    }
    if !rep.tail.is_empty() {
        let seq = rep.next_block_seq;
        tr.span("journal.seal", seq, Some(root), || {
            journal.seal(seq, rep.tail.len() as u32)
        });
        let outcome = execute(seq, &rep.tail, &balances, tr);
        tr.span("journal.commit", seq, Some(root), || {
            journal.commit(seq, &outcome.deltas)
        });
        tr.span("service.fold", seq, Some(root), || {
            fold_deltas(&mut balances, &outcome.deltas)
        });
        outcomes.push(outcome);
    }
    tr.span("journal.force", 0, Some(root), || journal.force());
    tr.close(root);
    let mut b: Vec<(u64, u32)> = balances.into_iter().filter(|&(_, x)| x != 0).collect();
    b.sort_unstable();
    (outcomes, b, journal)
}

pub fn run_workload(opts: &Opts, size: &Size) -> Result<Report, String> {
    let probe = &mut Probe::new();
    let cfg = service::config();
    let (made, setup_s) = timed_setup(probe, |_| make_image(&cfg, opts.seed, size));
    let (stream, image) = made?;
    let bytes = &image.journal;
    let mut report = Report::new(setup_s);
    let mut failures = Vec::new();

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut first: Option<(RecoveryReport, Vec<(u64, u32)>)> = None;
    let mut hand = None;
    let start = Instant::now();
    while plain.len() < size.min_calls || start.elapsed().as_secs_f64() < opts.seconds {
        let probe_s = probe.time();
        let t = Instant::now();
        let rec = recover(&cfg, bytes);
        let wall_s = t.elapsed().as_secs_f64();
        plain.push(vec![Timed { wall_s, probe_s }]);
        report.attempted += 1;
        match &first {
            None => first = Some((rec.report, rec.balances.clone())),
            Some((r, b)) if *r != rec.report || *b != rec.balances => {
                report.failed += 1;
                failures.push("recover() is not deterministic on one image".into());
            }
            Some(_) => {}
        }
        drop(rec);
        if opts.trace {
            tracer = Tracer::new(true);
            let probe_s = probe.time();
            let t = Instant::now();
            let (outcomes, balances, journal) = hand_recover(&cfg, &bytes.bytes, &mut tracer);
            let wall_s = t.elapsed().as_secs_f64();
            traced.push(vec![Timed { wall_s, probe_s }]);
            let want = first.as_ref().expect("recovered once");
            if balances != want.1 {
                failures.push("hand-driven recovery: balances differ from recover()".into());
            }
            if traced.len() == 1 {
                let rec = recover(&cfg, bytes);
                let same = rec.outcomes.len() == outcomes.len()
                    && rec.outcomes.iter().zip(&outcomes).all(|(a, b)| {
                        a.block_seq == b.block_seq
                            && a.receipts == b.receipts
                            && a.deltas == b.deltas
                    });
                if !same || rec.crash_image().bytes != journal.crash_image().bytes {
                    failures.push(
                        "hand-driven recovery: outcomes or journal differ from recover()".into(),
                    );
                }
                hand = Some((outcomes, journal, rec.report.txs_recovered as usize));
            }
        }
    }
    let (rr, _) = first.expect("recovered once");

    // Correctness: the committed-prefix oracle, outside the timed region.
    let oracle = std::panic::catch_unwind(|| oracle_check(&cfg, &stream, &image));
    if oracle.is_err() {
        failures.push("committed-prefix oracle failed (message above)".into());
    }
    // Shape: the image must keep all three kinds of recovery work.
    if rr.blocks_replayed == 0 || rr.blocks_reexecuted == 0 || rr.tail_txs == 0 {
        failures.push(format!(
            "shape: blocks_replayed {} blocks_reexecuted {} tail_txs {}",
            rr.blocks_replayed, rr.blocks_reexecuted, rr.tail_txs
        ));
    }

    let walls: Vec<f64> = plain.iter().map(|c| c[0].wall_s).collect();
    let recovery_s = median(&walls).expect("recovered once");
    report.job_s = probe::job_s(&plain);
    report.line("recovery_s", recovery_s, "s");
    report.line("recovery_scaled_s", report.job_s, "s");
    report.line("recover_calls", plain.len() as f64, "count");

    if opts.trace {
        let l = &mut report.layers;
        let (outcomes, journal, txs) = hand.expect("traced once");
        set_pipeline_metrics(l, &outcomes, &journal, txs, &tracer);
        let replay_s = tracer.total_s("recovery.replay");
        l.set("recovery.replay_s", replay_s);
        l.set("recovery.reexec_s", recovery_s - replay_s);
        l.set("recovery.records_scanned", rr.records_scanned as f64);
        l.set("recovery.image_bytes", bytes.bytes.len() as f64);
        l.set("recovery.blocks_replayed", rr.blocks_replayed as f64);
        l.set("recovery.blocks_reexecuted", rr.blocks_reexecuted as f64);
        l.set("recovery.tail_txs", rr.tail_txs as f64);
        l.set("recovery.txs_recovered", rr.txs_recovered as f64);
        l.set("recovery.records_discarded", rr.records_discarded as f64);
        let (p, t) = (probe::job_s(&plain), probe::job_s(&traced));
        l.set("trace.overhead_frac", (t - p) / p);
        l.set("trace.spans", tracer.spans().len() as f64);
        report.trace = Some(tracer);
    }
    report.absorb_failures(&failures);
    Ok(report)
}
