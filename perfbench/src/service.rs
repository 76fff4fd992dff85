//! `service_zipf`: the threaded `Service` with a group-commit journal
//! over a Zipfian ledger stream, in three phases: a closed loop that
//! keeps the bounded queue full (capacity), then open loops at the fixed
//! rates [`Size::lo`] and [`Size::hi`].
//!
//! The traced run adds a hand-driven pass of the synchronous pipeline
//! (journal accept and seal, `run_block`, journal commit, fold, in the
//! order `Engine::flush` uses) with a span around each call, and checks
//! its receipts and journal bytes against the engine's.

use crate::layers::Metrics;
use crate::probe::{self, Probe, Timed};
use crate::stats::{median, percentile, ratio, sort};
use crate::trace::{layer_self_s, Tracer};
use crate::{timed_setup, Opts, Report};
use ptm_core::durability::ForcePolicy;
use ptm_mem::logdev::{LogDevConfig, LogFaultPlan};
use ptm_service::{
    fold_deltas, run_block, run_stream_with_crash, BlockOutcome, CrashRun, Engine, Journal,
    JournalConfig, Service, ServiceConfig, ServiceReport, SubmitError,
};
use ptm_types::FastMap;
use ptm_workloads::service::generate;
use ptm_workloads::{ClientTx, ServiceWorkloadConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const ACCOUNTS: u64 = 500_000;
const SHARDS: usize = 4;
const SKEW: f64 = 0.9;
const READ_ONLY_PCT: u8 = 20;
pub const MAX_BATCH: usize = 256;

/// Submit-queue bound: 400 ms of arrivals at the `hi` rate. With the
/// default 4,096, a 100 ms stall of the shared host shed requests at
/// `hi`; a host stall is not an overload of the service.
const QUEUE_DEPTH: usize = 16_384;

/// A run whose generator fell further behind its schedule than this is
/// invalid: its latencies would describe the generator, not the service.
pub const MAX_LAG_MS: f64 = 100.0;

/// The latency limit the `hi` rate must meet at p99.
pub const P99_LIMIT_MS: f64 = 20.0;

/// Workload size. [`Size::FULL`] is the benchmark; tests use a small one.
pub struct Size {
    /// Transactions per synchronous-pipeline or closed-loop pass.
    pub capacity_txs: usize,
    /// Fewest synchronous-pipeline passes per run.
    pub min_passes: usize,
    /// Transactions of the warm-up pass in set-up.
    pub warmup_txs: usize,
    /// Open-loop rates, transactions per second.
    pub lo: f64,
    pub hi: f64,
    /// Shares of `--seconds` for the synchronous-pipeline passes, the
    /// closed loop, and each open-loop phase.
    pub engine_share: f64,
    pub closed_share: f64,
    pub open_share: f64,
    /// Transactions of the traced hand-driven pipeline pass.
    pub pipeline_txs: usize,
}

impl Size {
    pub const FULL: Size = Size {
        capacity_txs: 100_000,
        min_passes: 3,
        warmup_txs: 20_000,
        // About a third and two thirds of the closed-loop capacity in the
        // host's slow periods (README.md, "Rates").
        lo: 20_000.0,
        hi: 40_000.0,
        engine_share: 0.3,
        closed_share: 0.2,
        open_share: 0.25,
        pipeline_txs: 50_000,
    };
}

pub fn config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(ACCOUNTS, SHARDS).with_journal(JournalConfig {
        policy: ForcePolicy::Group(4),
        dev: LogDevConfig::realistic(),
        faults: LogFaultPlan::none(),
    });
    cfg.max_batch = MAX_BATCH;
    cfg.queue_depth = QUEUE_DEPTH;
    cfg
}

/// A stream of `txs` transactions drawn from `seed` and a per-phase salt.
pub fn stream(seed: u64, salt: u64, txs: usize) -> Vec<ClientTx> {
    generate(&ServiceWorkloadConfig {
        accounts: ACCOUNTS,
        skew: SKEW,
        seed: seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
        txs,
        read_only_pct: READ_ONLY_PCT,
    })
}

/// The naive wrapping ledger fold of `txs`: sorted, non-zero balances.
pub fn ledger<'a>(txs: impl Iterator<Item = &'a ClientTx>) -> Vec<(u64, u32)> {
    let mut l: BTreeMap<u64, u32> = BTreeMap::new();
    for tx in txs.filter(|t| !t.read_only) {
        let e = l.entry(tx.from).or_insert(0);
        *e = e.wrapping_sub(tx.amount);
        let e = l.entry(tx.to).or_insert(0);
        *e = e.wrapping_add(tx.amount);
    }
    l.into_iter().filter(|&(_, b)| b != 0).collect()
}

/// Per-id receipt counts and the block-shape facts a phase observed.
#[derive(Default)]
struct Seen {
    receipts: Vec<u32>,
    cross_shard: u64,
    aborts: u64,
    all_shards_blocks: u64,
    block_ms: Vec<f64>,
    bad_ids: u64,
}

impl Seen {
    fn new(n: usize) -> Self {
        Seen {
            receipts: vec![0; n],
            ..Seen::default()
        }
    }

    fn absorb(&mut self, o: &BlockOutcome) {
        for r in &o.receipts {
            match self.receipts.get_mut(r.tx_id as usize) {
                Some(c) => *c += 1,
                None => self.bad_ids += 1,
            }
        }
        self.cross_shard += o.stats.cross_shard;
        self.aborts += o.stats.aborts;
        if o.stats.shard_txs.iter().all(|&t| t > 0) {
            self.all_shards_blocks += 1;
        }
        self.block_ms.push(o.stats.wall_ns as f64 / 1e6);
    }

    /// Checks exactly one receipt per accepted transaction and the final
    /// balances against the ledger fold of the accepted stream.
    fn check(
        &self,
        phase: &str,
        stream: &[ClientTx],
        accepted: &[bool],
        report: &ServiceReport,
        out: &mut Vec<String>,
    ) -> u64 {
        let mut missing = 0;
        let mut wrong = self.bad_ids;
        for (i, &c) in self.receipts.iter().enumerate() {
            match (accepted[i], c) {
                (true, 1) | (false, 0) => {}
                (true, 0) => missing += 1,
                _ => wrong += 1,
            }
        }
        if missing + wrong > 0 {
            out.push(format!(
                "{phase}: {missing} accepted transactions without a receipt, {wrong} extra receipts"
            ));
        }
        let want = ledger(
            stream
                .iter()
                .zip(accepted)
                .filter(|(_, &a)| a)
                .map(|(t, _)| t),
        );
        if report.balances != want {
            out.push(format!(
                "{phase}: final balances differ from the ledger fold"
            ));
        }
        missing
    }
}

/// Transactions per timed segment of a synchronous-pipeline pass.
const SEGMENT_TXS: usize = 10_240;

/// One closed-loop pass: keep the bounded queue full until every
/// transaction has a receipt. Returns the wall time to the last receipt.
fn closed_loop(
    cfg: ServiceConfig,
    stream: &[ClientTx],
    seen: &mut Seen,
) -> Result<(f64, ServiceReport), String> {
    let mut svc = Service::start(cfg);
    let start = Instant::now();
    let mut received = 0;
    let mut i = 0;
    let wait = |svc: &Service, seen: &mut Seen| -> Result<usize, String> {
        let o = svc
            .outcomes()
            .recv_timeout(Duration::from_secs(60))
            .map_err(|e| format!("closed loop: no block outcome: {e}"))?;
        seen.absorb(&o);
        Ok(o.receipts.len())
    };
    while i < stream.len() {
        match svc.submit(stream[i]) {
            Ok(()) => i += 1,
            Err(SubmitError::Busy { .. }) => received += wait(&svc, seen)?,
            Err(SubmitError::Closed) => return Err("closed loop: service closed".into()),
        }
    }
    while received < stream.len() {
        received += wait(&svc, seen)?;
    }
    let wall = start.elapsed().as_secs_f64();
    let report = svc.shutdown().map_err(|e| e.to_string())?;
    Ok((wall, report))
}

/// One pass of the synchronous pipeline, `Engine` driven as
/// `run_stream_with_crash` drives it, over `stream`. Returns the wall time
/// of each segment of [`SEGMENT_TXS`] transactions (the final flush and
/// force count in the last) and the engine's report.
fn engine_pass(
    cfg: ServiceConfig,
    stream: &[ClientTx],
) -> Result<(Vec<f64>, ServiceReport), String> {
    let crashed = |_| "the engine crashed without a crash plan".to_string();
    let mut engine = Engine::new(cfg, None);
    let mut segments = Vec::with_capacity(stream.len().div_ceil(SEGMENT_TXS));
    let mut mark = Instant::now();
    for chunk in stream.chunks(SEGMENT_TXS) {
        for tx in chunk {
            engine.accept(*tx).map_err(crashed)?;
        }
        let now = Instant::now();
        segments.push(now.duration_since(mark).as_secs_f64());
        mark = now;
    }
    let report = engine.finish().map_err(crashed)?;
    if let Some(last) = segments.last_mut() {
        *last += mark.elapsed().as_secs_f64();
    }
    Ok((segments, report))
}

/// One open-loop phase's measurements.
struct Open {
    /// Due-time to receipt latency per transaction; shed or missing ones
    /// are infinite.
    lat_ms: Vec<f64>,
    shed: u64,
    missing: u64,
    max_lag_ms: f64,
    submit_us: Vec<f64>,
    fill_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    seen: Seen,
}

/// Offers `stream` at `rate` transactions per second, each one due at a
/// fixed time whatever the service does, and times every receipt from
/// its due time.
fn open_loop(
    cfg: ServiceConfig,
    stream: &[ClientTx],
    rate: f64,
    time_submit: bool,
    failures: &mut Vec<String>,
) -> Result<Open, String> {
    let n = stream.len();
    let mut svc = Service::start(cfg);
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let mut o = Open {
        lat_ms: vec![f64::INFINITY; n],
        shed: 0,
        missing: 0,
        max_lag_ms: 0.0,
        submit_us: Vec::new(),
        fill_ms: Vec::new(),
        wait_ms: Vec::new(),
        seen: Seen::new(n),
    };
    let mut accepted = vec![false; n];
    let mut expected = 0usize;
    let mut received = 0usize;
    let stamp = |b: BlockOutcome, o: &mut Open| {
        let now = Instant::now();
        for r in &b.receipts {
            if let Some(l) = o.lat_ms.get_mut(r.tx_id as usize) {
                *l = now.duration_since(due(r.tx_id as usize)).as_secs_f64() * 1e3;
            }
        }
        if let (Some(first), Some(last)) = (b.receipts.first(), b.receipts.last()) {
            let (first, last) = (due(first.tx_id as usize), due(last.tx_id as usize));
            o.fill_ms
                .push(last.duration_since(first).as_secs_f64() * 1e3);
            let since_last = now.duration_since(last).as_secs_f64() * 1e3;
            o.wait_ms.push(since_last - b.stats.wall_ns as f64 / 1e6);
        }
        o.seen.absorb(&b);
        b.receipts.len()
    };
    let mut i = 0;
    while i < n {
        loop {
            let now = Instant::now();
            if i == n || due(i) > now {
                break;
            }
            o.max_lag_ms = o
                .max_lag_ms
                .max(now.duration_since(due(i)).as_secs_f64() * 1e3);
            let r = if time_submit {
                let t = Instant::now();
                let r = svc.submit(stream[i]);
                o.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                r
            } else {
                svc.submit(stream[i])
            };
            match r {
                Ok(()) => {
                    accepted[i] = true;
                    expected += 1;
                }
                Err(SubmitError::Busy { .. }) => o.shed += 1,
                Err(SubmitError::Closed) => return Err("open loop: service closed".into()),
            }
            i += 1;
        }
        while let Ok(b) = svc.outcomes().try_recv() {
            received += stamp(b, &mut o);
        }
        if i < n {
            let now = Instant::now();
            let next = due(i);
            if next > now {
                std::thread::sleep((next - now).max(Duration::from_micros(100)));
            }
        }
    }
    while received < expected {
        match svc.outcomes().recv_timeout(Duration::from_secs(10)) {
            Ok(b) => received += stamp(b, &mut o),
            Err(_) => break,
        }
    }
    let report = svc.shutdown().map_err(|e| e.to_string())?;
    o.missing = o.seen.check(
        &format!("open loop at {rate} tx/s"),
        stream,
        &accepted,
        &report,
        failures,
    );
    sort(&mut o.lat_ms);
    Ok(o)
}

/// The synchronous pipeline driven by hand, in `Engine::flush` order,
/// with a span around each layer call.
pub struct Hand {
    pub outcomes: Vec<BlockOutcome>,
    pub journal: Journal,
    pub balances: FastMap<u64, u32>,
    batch: Vec<ClientTx>,
}

impl Hand {
    fn flush(&mut self, cfg: &ServiceConfig, tr: &mut Tracer) {
        if self.batch.is_empty() {
            return;
        }
        let seq = self.outcomes.len() as u64;
        let root = tr.open("service.block", seq, None);
        let (journal, batch, balances) = (&mut self.journal, &self.batch, &mut self.balances);
        tr.span("journal.seal", seq, Some(root), || {
            journal.seal(seq, batch.len() as u32)
        });
        let mut bcfg = *cfg;
        if let Some(chaos) = &mut bcfg.chaos {
            chaos.salt = seq;
        }
        let mut outcome = tr.span("service.run_block", seq, Some(root), || {
            run_block(&bcfg, batch, balances)
        });
        outcome.block_seq = seq;
        tr.span("journal.commit", seq, Some(root), || {
            journal.commit(seq, &outcome.deltas)
        });
        tr.span("service.fold", seq, Some(root), || {
            fold_deltas(balances, &outcome.deltas)
        });
        tr.close(root);
        self.batch.clear();
        self.outcomes.push(outcome);
    }

    pub fn run(cfg: &ServiceConfig, stream: &[ClientTx], tr: &mut Tracer) -> Hand {
        let mut h = Hand {
            outcomes: Vec::new(),
            journal: Journal::new(cfg.journal.expect("journaled config")),
            balances: FastMap::default(),
            batch: Vec::with_capacity(cfg.max_batch),
        };
        for tx in stream {
            let seq = h.outcomes.len() as u64;
            let journal = &mut h.journal;
            tr.span("journal.accept", seq, None, || journal.accept(tx));
            h.batch.push(*tx);
            if h.batch.len() >= cfg.max_batch {
                h.flush(cfg, tr);
            }
        }
        h.flush(cfg, tr);
        let seq = h.outcomes.len() as u64;
        let journal = &mut h.journal;
        tr.span("journal.force", seq, None, || journal.force());
        h
    }
}

fn sorted_balances(b: &FastMap<u64, u32>) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = b
        .iter()
        .map(|(&a, &x)| (a, x))
        .filter(|&(_, x)| x != 0)
        .collect();
    v.sort_unstable();
    v
}

/// What the engine produces for a stream: delivered outcomes, journal
/// bytes, and the report of `run_stream_with_crash` without a crash plan.
struct Reference {
    delivered: Vec<BlockOutcome>,
    journal: Vec<u8>,
    report: ServiceReport,
}

fn reference(cfg: &ServiceConfig, stream: &[ClientTx]) -> Result<Reference, String> {
    let mut engine = Engine::new(*cfg, None);
    for tx in stream {
        engine
            .accept(*tx)
            .map_err(|_| "engine crashed without a plan")?;
    }
    engine
        .finish()
        .map_err(|_| "engine crashed without a plan")?;
    let image = engine.capture();
    match run_stream_with_crash(*cfg, stream, None) {
        CrashRun::Completed(report) => Ok(Reference {
            delivered: image.delivered,
            journal: image.journal.bytes,
            report,
        }),
        CrashRun::Crashed(_) => Err("run_stream_with_crash crashed without a plan".into()),
    }
}

/// Checks a hand-driven pass against the engine: receipts, deltas,
/// journal bytes, balances and journal counters must all be identical.
fn check_hand_pipeline(hand: &Hand, want: &Reference, failures: &mut Vec<String>) {
    let (outcomes, journal, balances) = (&hand.outcomes, &hand.journal, &hand.balances);
    let same_blocks = want.delivered.len() == outcomes.len()
        && want.delivered.iter().zip(outcomes).all(|(a, b)| {
            a.block_seq == b.block_seq && a.receipts == b.receipts && a.deltas == b.deltas
        });
    if !same_blocks {
        failures.push("hand-driven pipeline: receipts differ from the engine's".into());
    }
    if want.journal != journal.crash_image().bytes {
        failures.push("hand-driven pipeline: journal bytes differ from the engine's".into());
    }
    if want.report.balances != sorted_balances(balances)
        || want.report.journal.as_ref() != Some(journal.stats())
    {
        failures.push(
            "hand-driven pipeline: balances or journal counters differ from run_stream_with_crash"
                .into(),
        );
    }
}

struct Streams {
    warmup: Vec<ClientTx>,
    capacity: Vec<ClientTx>,
    lo: Vec<ClientTx>,
    hi: Vec<ClientTx>,
    pipeline: Vec<ClientTx>,
    gen_s: f64,
}

pub fn run_workload(opts: &Opts, size: &Size) -> Result<Report, String> {
    let probe = &mut Probe::new();
    let cfg = config();
    let open_txs = |rate: f64| ((rate * opts.seconds * size.open_share) as usize).max(1);
    let (streams, setup_s) = timed_setup(probe, |_| {
        let t = Instant::now();
        let s = Streams {
            warmup: stream(opts.seed, 0, size.warmup_txs),
            capacity: stream(opts.seed, 1, size.capacity_txs),
            lo: stream(opts.seed, 2, open_txs(size.lo)),
            hi: stream(opts.seed, 3, open_txs(size.hi)),
            pipeline: if opts.trace {
                stream(opts.seed, 4, size.pipeline_txs)
            } else {
                Vec::new()
            },
            gen_s: t.elapsed().as_secs_f64(),
        };
        // Warm the allocator, the worker thread path and the journal.
        let warm = closed_loop(cfg, &s.warmup, &mut Seen::new(s.warmup.len()));
        warm.map(|_| s)
    });
    let streams = streams?;
    let mut report = Report::new(setup_s);
    let mut failures = Vec::new();

    // The job: passes of the synchronous pipeline every ingest path runs
    // (block compile, shard machines, journal, fold), on one thread, so
    // the probe reads the core it runs on.
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < size.min_passes
        || start.elapsed().as_secs_f64() < opts.seconds * size.engine_share
    {
        let probe_s = probe.time();
        let (segments, engine_report) = engine_pass(cfg, &streams.capacity)?;
        if engine_report.txs != streams.capacity.len() as u64
            || engine_report.balances != ledger(streams.capacity.iter())
        {
            failures.push(
                "synchronous pipeline: receipts or balances differ from the ledger fold".into(),
            );
        }
        report.attempted += streams.capacity.len() as u64;
        passes.push(
            segments
                .into_iter()
                .map(|wall_s| Timed { wall_s, probe_s })
                .collect::<Vec<_>>(),
        );
    }
    let job_s = probe::job_s(&passes);
    let engine_walls: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|t| t.wall_s).sum())
        .collect();
    let engine_s = median(&engine_walls).expect("passes ran");

    // Capacity of the threaded service: closed-loop passes that keep the
    // bounded queue full.
    let mut walls = Vec::new();
    let start = Instant::now();
    let mut shape = Seen::default();
    while walls.is_empty() || start.elapsed().as_secs_f64() < opts.seconds * size.closed_share {
        let mut seen = Seen::new(streams.capacity.len());
        let (wall, svc_report) = closed_loop(cfg, &streams.capacity, &mut seen)?;
        let all = vec![true; streams.capacity.len()];
        seen.check(
            "closed loop",
            &streams.capacity,
            &all,
            &svc_report,
            &mut failures,
        );
        if svc_report.journal.map_or(0, |j| j.forces) == 0 {
            failures.push("shape: the journal never forced".into());
        }
        report.attempted += streams.capacity.len() as u64;
        walls.push(wall);
        shape = seen;
    }
    let capacity = streams.capacity.len() as f64 / median(&walls).expect("passes ran");

    let lo = open_loop(cfg, &streams.lo, size.lo, opts.trace, &mut failures)?;
    let hi = open_loop(cfg, &streams.hi, size.hi, opts.trace, &mut failures)?;
    let max_lag = lo.max_lag_ms.max(hi.max_lag_ms);
    if max_lag > MAX_LAG_MS {
        return Err(format!(
            "the load generator fell {max_lag:.1} ms behind schedule (bound {MAX_LAG_MS} ms)"
        ));
    }
    let offered = (streams.lo.len() + streams.hi.len()) as u64;
    let lost = lo.shed + lo.missing + hi.shed + hi.missing;
    report.attempted += offered;
    report.failed += lost;

    // Shape: the stream must keep crossing shards, aborting and filling
    // all four shards in some block.
    for s in [&shape, &lo.seen, &hi.seen] {
        if s.cross_shard == 0 || s.aborts == 0 || s.all_shards_blocks == 0 {
            failures.push(format!(
                "shape: cross_shard {} aborts {} blocks on all shards {}",
                s.cross_shard, s.aborts, s.all_shards_blocks
            ));
        }
    }

    let pct = |o: &Open, p: f64| percentile(&o.lat_ms, p).unwrap_or(f64::NAN);
    report.job_s = job_s;
    report.line("svc_capacity_tx_s", capacity, "tx/s");
    report.line("svc_pipeline_s", engine_s, "s");
    report.line("svc_pipeline_scaled_s", job_s, "s");
    report.line("svc_lo_rate_tx_s", size.lo, "tx/s");
    report.line("svc_lo_p50_ms", pct(&lo, 50.0), "ms");
    report.line("svc_lo_p99_ms", pct(&lo, 99.0), "ms");
    report.line("svc_hi_rate_tx_s", size.hi, "tx/s");
    report.line("svc_hi_p50_ms", pct(&hi, 50.0), "ms");
    report.line("svc_hi_p99_ms", pct(&hi, 99.0), "ms");
    report.line("svc_p99_limit_ms", P99_LIMIT_MS, "ms");
    report.line(
        "svc_failed_frac",
        ratio(lost as f64, offered as f64),
        "ratio",
    );
    report.line("loadgen_max_lag_ms", max_lag, "ms");

    if opts.trace {
        let l = &mut report.layers;
        l.set("workloads.svc_gen_s", streams.gen_s);
        l.set("loadgen.offered", offered as f64);
        l.set("loadgen.max_lag_ms", max_lag);
        l.set("loadgen.capacity_tx_s", capacity);
        l.set("loadgen.lo_p50_ms", pct(&lo, 50.0));
        l.set("loadgen.lo_p99_ms", pct(&lo, 99.0));
        l.set("loadgen.hi_p50_ms", pct(&hi, 50.0));
        l.set("loadgen.hi_p99_ms", pct(&hi, 99.0));
        l.set("loadgen.hi_p999_ms", pct(&hi, 99.9));
        l.set("loadgen.failed_frac", ratio(lost as f64, offered as f64));
        let both = |f: fn(&Open) -> &Vec<f64>| {
            let mut v: Vec<f64> = f(&lo).iter().chain(f(&hi)).copied().collect();
            sort(&mut v);
            v
        };
        l.set(
            "service.submit_us_p50",
            median(&both(|o| &o.submit_us)).unwrap_or(0.0),
        );
        l.set(
            "service.batch_fill_ms_p50",
            median(&both(|o| &o.fill_ms)).unwrap_or(0.0),
        );
        l.set(
            "service.wait_ms_p50",
            median(&both(|o| &o.wait_ms)).unwrap_or(0.0),
        );
        let blocks = both(|o| &o.seen.block_ms);
        l.set("service.block_ms_p50", median(&blocks).unwrap_or(0.0));
        l.set(
            "service.block_ms_p99",
            percentile(&blocks, 99.0).unwrap_or(f64::NAN),
        );

        // The layer split: hand-driven pipeline passes, untraced and
        // traced in turn, each checked against the engine.
        let want = reference(&cfg, &streams.pipeline)?;
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let mut tracer = Tracer::new(true);
        let mut hand = None;
        for _ in 0..2 {
            let t = Instant::now();
            let h = Hand::run(&cfg, &streams.pipeline, &mut Tracer::new(false));
            plain.push(t.elapsed().as_secs_f64());
            check_hand_pipeline(&h, &want, &mut failures);
            tracer = Tracer::new(true);
            let t = Instant::now();
            let h = Hand::run(&cfg, &streams.pipeline, &mut tracer);
            traced.push(t.elapsed().as_secs_f64());
            check_hand_pipeline(&h, &want, &mut failures);
            hand = Some(h);
        }
        let hand = hand.expect("two passes ran");
        set_pipeline_metrics(
            l,
            &hand.outcomes,
            &hand.journal,
            streams.pipeline.len(),
            &tracer,
        );
        let (p, t) = (median(&plain).expect("ran"), median(&traced).expect("ran"));
        l.set("trace.overhead_frac", (t - p) / p);
        l.set("trace.spans", tracer.spans().len() as f64);
        report.trace = Some(tracer);
    }
    report.absorb_failures(&failures);
    Ok(report)
}

/// Service, journal, log-device and simulator counters of a pipeline
/// pass.
pub fn set_pipeline_metrics(
    l: &mut Metrics,
    outcomes: &[BlockOutcome],
    journal: &Journal,
    txs: usize,
    tracer: &Tracer,
) {
    let sum = |f: fn(&BlockOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let commits = sum(|o| o.stats.commits);
    let aborts = sum(|o| o.stats.aborts);
    let selfs = layer_self_s(tracer.spans());
    l.set(
        "service.busy_s",
        selfs.get("service").copied().unwrap_or(0.0),
    );
    l.set(
        "journal.busy_s",
        selfs.get("journal").copied().unwrap_or(0.0),
    );
    l.set("service.blocks", outcomes.len() as f64);
    l.set(
        "service.machines_built",
        sum(|o| {
            o.stats.shard_txs.iter().filter(|&&t| t > 0).count() as u64 + o.stats.shard_retries
        }),
    );
    let skews: Vec<f64> = outcomes.iter().map(|o| o.stats.shard_skew).collect();
    l.set("service.shard_skew", median(&skews).unwrap_or(0.0));
    l.set("service.cross_shard", sum(|o| o.stats.cross_shard));
    l.set("service.read_only_hits", sum(|o| o.stats.read_only_hits));
    l.set("service.abort_frac", ratio(aborts, commits + aborts));
    l.set("sim.commits", commits);
    l.set("sim.aborts", aborts);
    l.set("sim.commit_frac", ratio(commits, commits + aborts));
    l.set("sim.shard_cycles", sum(|o| o.stats.max_shard_cycles));
    let j = journal.stats();
    l.set("journal.records", journal.records() as f64);
    l.set("journal.forces", j.forces as f64);
    l.set("journal.retries", j.retries as f64);
    l.set("journal.throttle_events", j.throttle_events as f64);
    l.set("journal.acked_txs", j.acked_txs as f64);
    let d = journal.dev_stats();
    l.set(
        "journal.bytes_per_tx",
        ratio(d.bytes_appended as f64, txs as f64),
    );
    l.set("logdev.appends", d.appends as f64);
    l.set("logdev.bytes_appended", d.bytes_appended as f64);
    l.set("logdev.backpressure_waits", d.backpressure_waits as f64);
}
