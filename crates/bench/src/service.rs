//! The service sweep: sustained throughput of the PTM-as-a-service
//! frontend across Zipfian skew × shard count × execution strategy.
//!
//! Each `(skew, shards)` cell generates one client stream, chops it into
//! admission-sized blocks, and runs the block sequence under every
//! strategy, folding deltas forward between blocks exactly as the ingest
//! loop does. The Sequential pass's final balances must equal the naive
//! wrapping fold of the stream's transfers ([`ledger`]), and the
//! ValidateOnly pass must leave the ledger untouched.

use ptm_service::{fold_deltas, run_block, Receipt, ServiceConfig, Strategy};
use ptm_types::FastMap;
use ptm_workloads::service::{generate, ledger};
use ptm_workloads::{ClientTx, Scale, ServiceWorkloadConfig};
use std::time::Instant;

/// The sweep axes: a 3 × 3 grid of skews and shard counts, plus the
/// strategies.
pub const SKEWS: [f64; 3] = [0.6, 0.9, 1.2];
/// Shard counts swept per skew.
pub const SHARDS: [usize; 3] = [1, 2, 4];
/// Strategies swept per `(skew, shards)` cell.
pub const STRATEGIES: [Strategy; 2] = [Strategy::Sequential, Strategy::ValidateOnly];

/// One strategy's measurement within a cell.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// Strategy label.
    pub strategy: &'static str,
    /// Host wall time for the whole block sequence.
    pub wall_ns: u64,
    /// Sustained client transactions per second of host wall time.
    pub tx_per_sec: f64,
    /// Committed simulator transactions.
    pub commits: u64,
    /// Aborted-and-retried simulator transactions.
    pub aborts: u64,
    /// Aborts per attempt.
    pub abort_rate: f64,
    /// Simulated cycles of the slowest shard, summed over blocks.
    pub shard_cycles: u64,
    /// Receipts, one per client transaction.
    pub receipts: Vec<Receipt>,
    /// Final balances (sorted, non-zero), for the ledger oracle.
    pub balances: Vec<(u64, u32)>,
}

/// One `(skew, shards)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct ServiceCell {
    /// Zipfian exponent of the client stream.
    pub skew: f64,
    /// Shard machines.
    pub shards: usize,
    /// Client transactions served.
    pub txs: usize,
    /// Blocks the stream sealed into.
    pub blocks: usize,
    /// Cross-shard transfers in the stream.
    pub cross_shard: u64,
    /// Read-only probes served on the fast path.
    pub read_only_hits: u64,
    /// Worst block-level load imbalance observed (max shard load / mean).
    pub shard_skew: f64,
    /// Per-strategy measurements, in [`STRATEGIES`] order.
    pub strategies: Vec<StrategyResult>,
}

/// Workload size for a sweep scale.
pub fn stream_config(scale: Scale, skew: f64) -> ServiceWorkloadConfig {
    ServiceWorkloadConfig::scaled(scale, skew)
}

/// Runs one strategy over the block sequence of a stream.
fn run_strategy(
    cfg: &ServiceConfig,
    stream: &[ClientTx],
    max_batch: usize,
) -> (StrategyResult, f64, u64, u64, usize) {
    let t0 = Instant::now();
    let mut balances: FastMap<u64, u32> = FastMap::default();
    let mut receipts = Vec::with_capacity(stream.len());
    let (mut commits, mut aborts, mut shard_cycles) = (0u64, 0u64, 0u64);
    let (mut cross, mut ro_hits) = (0u64, 0u64);
    let mut worst_skew = 0.0f64;
    let mut blocks = 0usize;
    for block in stream.chunks(max_batch) {
        let out = run_block(cfg, block, &balances);
        fold_deltas(&mut balances, &out.deltas);
        commits += out.stats.commits;
        aborts += out.stats.aborts;
        shard_cycles += out.stats.max_shard_cycles;
        cross += out.stats.cross_shard;
        ro_hits += out.stats.read_only_hits;
        worst_skew = worst_skew.max(out.stats.shard_skew);
        blocks += 1;
        receipts.extend(out.receipts);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut balances: Vec<(u64, u32)> = balances.into_iter().filter(|&(_, b)| b != 0).collect();
    balances.sort_unstable();
    let attempts = commits + aborts;
    let result = StrategyResult {
        strategy: cfg.strategy.label(),
        wall_ns,
        tx_per_sec: stream.len() as f64 / (wall_ns as f64 / 1e9).max(1e-9),
        commits,
        aborts,
        abort_rate: if attempts == 0 {
            0.0
        } else {
            aborts as f64 / attempts as f64
        },
        shard_cycles,
        receipts,
        balances,
    };
    (result, worst_skew, cross, ro_hits, blocks)
}

/// Runs one `(skew, shards)` cell under every strategy and holds each to
/// the ledger oracle.
pub fn run_cell(scale: Scale, skew: f64, shards: usize, max_batch: usize) -> ServiceCell {
    let wcfg = stream_config(scale, skew);
    let stream = generate(&wcfg);
    let mut cell = ServiceCell {
        skew,
        shards,
        txs: stream.len(),
        blocks: 0,
        cross_shard: 0,
        read_only_hits: 0,
        shard_skew: 0.0,
        strategies: Vec::new(),
    };
    for strategy in STRATEGIES {
        let mut cfg = ServiceConfig::new(wcfg.accounts, shards).with_strategy(strategy);
        cfg.max_batch = max_batch;
        let (result, worst_skew, cross, ro_hits, blocks) = run_strategy(&cfg, &stream, max_batch);
        if strategy != Strategy::ValidateOnly {
            cell.blocks = blocks;
            cell.cross_shard = cross;
            cell.read_only_hits = ro_hits;
            cell.shard_skew = cell.shard_skew.max(worst_skew);
        }
        cell.strategies.push(result);
    }
    let seq = &cell.strategies[0];
    assert_eq!(
        seq.balances,
        ledger(&stream),
        "sequential balances diverged from the ledger fold at skew {skew}, {shards} shard(s)"
    );
    assert!(
        cell.strategies[1].balances.is_empty(),
        "validate-only changed the ledger at skew {skew}, {shards} shard(s)"
    );
    cell
}

/// The full sweep: every skew × shard-count cell.
pub fn run_sweep(scale: Scale, max_batch: usize) -> Vec<ServiceCell> {
    let mut cells = Vec::new();
    for &skew in &SKEWS {
        for &shards in &SHARDS {
            eprintln!("service: skew {skew}, {shards} shard(s)...");
            cells.push(run_cell(scale, skew, shards, max_batch));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cell_asserts_identity_and_counts_everything() {
        let cell = run_cell(Scale::Tiny, 0.9, 2, 128);
        assert_eq!(cell.strategies.len(), STRATEGIES.len());
        assert_eq!(cell.txs, stream_config(Scale::Tiny, 0.9).txs);
        assert!(cell.blocks >= cell.txs / 128);
        let seq = &cell.strategies[0];
        assert!(seq.commits > 0);
        assert_eq!(
            seq.receipts.len(),
            cell.txs,
            "every client tx gets a receipt"
        );
        assert!(cell.shard_skew >= 1.0, "skew {}", cell.shard_skew);
    }
}
