//! Receipt goldens: a fixed 20,000-transaction Zipfian stream must yield
//! the exact same receipts and ledger deltas forever, at 1 and 4 shards,
//! with and without shard chaos.
//!
//! Each digest hashes every receipt (client id, shard, full status with
//! the commit order `seq` and commit cycle `at`) and every block's net
//! deltas, in delivery order. The other receipt checks compare two runs
//! of the same build; these constants pin the schedule across builds, so
//! a change to the simulator's timing or the shard machines shows up
//! here. If a change moves them on purpose, update them in that change
//! and say why.

use ptm_service::{
    BlockOutcome, Engine, ReceiptStatus, ServiceConfig, ServiceReport, ShardChaosConfig,
};
use ptm_types::rng::Fnv1a64;
use ptm_workloads::service::generate;
use ptm_workloads::ServiceWorkloadConfig;

const ACCOUNTS: u64 = 500_000;

fn digest(cfg: ServiceConfig) -> (u64, ServiceReport) {
    let stream = generate(&ServiceWorkloadConfig {
        accounts: ACCOUNTS,
        skew: 0.9,
        seed: 13,
        txs: 20_000,
        read_only_pct: 20,
    });
    let mut engine = Engine::new(cfg, None);
    let mut h = Fnv1a64::new();
    let mut hash = |o: BlockOutcome| {
        h.write_u64(o.block_seq);
        for r in &o.receipts {
            h.write_u64(r.tx_id);
            h.write_u64(r.shard as u64);
            match r.status {
                ReceiptStatus::Committed { seq, at } => {
                    h.write_u64(0);
                    h.write_u64(seq);
                    h.write_u64(at);
                }
                ReceiptStatus::ReadOnly { balance } => {
                    h.write_u64(1);
                    h.write_u64(u64::from(balance));
                }
            }
        }
        for &(account, delta) in &o.deltas {
            h.write_u64(account);
            h.write_u64(u64::from(delta));
        }
    };
    for tx in stream {
        if let Some(o) = engine.accept(tx).expect("no crash plan") {
            hash(o);
        }
    }
    if let Some(o) = engine.flush().expect("no crash plan") {
        hash(o);
    }
    let report = engine.finish().expect("no crash plan");
    assert_eq!(report.txs, 20_000);
    (h.finish(), report)
}

/// Storms on every shard attempt, and a cycle budget tight enough that
/// one-shard blocks stall, retry and escalate to serial execution.
fn chaos() -> ShardChaosConfig {
    ShardChaosConfig {
        cycle_budget: 30_000,
        max_retries: 1,
        ..ShardChaosConfig::new(5)
    }
}

#[test]
fn receipts_match_the_golden_digests() {
    let cases = [
        (
            "1 shard",
            ServiceConfig::new(ACCOUNTS, 1),
            7_379_500_203_832_042_289,
        ),
        (
            "4 shards",
            ServiceConfig::new(ACCOUNTS, 4),
            15_749_594_996_561_209_607,
        ),
        (
            "1 shard, chaos",
            ServiceConfig::new(ACCOUNTS, 1).with_chaos(chaos()),
            4_416_215_787_410_077_980,
        ),
        (
            "4 shards, chaos",
            ServiceConfig::new(ACCOUNTS, 4).with_chaos(chaos()),
            10_803_249_496_707_945_727,
        ),
    ];
    let runs: Vec<(u64, ServiceReport)> = cases.iter().map(|(_, c, _)| digest(*c)).collect();
    let retries: u64 = runs.iter().map(|(_, r)| r.shard_retries).sum();
    let escalations: u64 = runs.iter().map(|(_, r)| r.shard_escalations).sum();
    assert!(
        retries > 0 && escalations > 0,
        "chaos must retry and escalate"
    );
    let got: Vec<(&str, u64)> = cases.iter().zip(&runs).map(|(c, r)| (c.0, r.0)).collect();
    let want: Vec<(&str, u64)> = cases.iter().map(|(n, _, g)| (*n, *g)).collect();
    assert_eq!(got, want, "receipt digests moved");
}
