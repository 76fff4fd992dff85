//! The service sweep: sustained throughput of the PTM-as-a-service
//! frontend across Zipfian skew × shard count.
//!
//! Each `(skew, shards)` cell generates one client stream, chops it into
//! admission-sized blocks, and runs the block sequence, folding deltas
//! forward between blocks exactly as the ingest loop does. The final
//! balances must equal the naive wrapping fold of the stream's transfers
//! ([`ledger`]).

use ptm_service::{fold_deltas, run_block, Receipt, ServiceConfig};
use ptm_types::FastMap;
use ptm_workloads::service::{generate, ledger};
use ptm_workloads::{Scale, ServiceWorkloadConfig};
use std::time::Instant;

/// The sweep axes: a 3 × 3 grid of skews and shard counts.
pub const SKEWS: [f64; 3] = [0.6, 0.9, 1.2];
/// Shard counts swept per skew.
pub const SHARDS: [usize; 3] = [1, 2, 4];

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
}

/// Workload size for a sweep scale.
pub fn stream_config(scale: Scale, skew: f64) -> ServiceWorkloadConfig {
    ServiceWorkloadConfig::scaled(scale, skew)
}

/// Runs one `(skew, shards)` cell and holds it to the ledger oracle.
///
/// # Panics
///
/// Panics when the final balances diverge from the ledger fold.
pub fn run_cell(scale: Scale, skew: f64, shards: usize, max_batch: usize) -> ServiceCell {
    let wcfg = stream_config(scale, skew);
    let stream = generate(&wcfg);
    let mut cfg = ServiceConfig::new(wcfg.accounts, shards);
    cfg.max_batch = max_batch;
    let mut cell = ServiceCell {
        skew,
        shards,
        txs: stream.len(),
        blocks: 0,
        cross_shard: 0,
        read_only_hits: 0,
        shard_skew: 0.0,
        wall_ns: 0,
        tx_per_sec: 0.0,
        commits: 0,
        aborts: 0,
        abort_rate: 0.0,
        shard_cycles: 0,
        receipts: Vec::with_capacity(stream.len()),
    };
    let t0 = Instant::now();
    let mut balances: FastMap<u64, u32> = FastMap::default();
    for block in stream.chunks(max_batch) {
        let out = run_block(&cfg, block, &balances);
        fold_deltas(&mut balances, &out.deltas);
        cell.commits += out.stats.commits;
        cell.aborts += out.stats.aborts;
        cell.shard_cycles += out.stats.max_shard_cycles;
        cell.cross_shard += out.stats.cross_shard;
        cell.read_only_hits += out.stats.read_only_hits;
        cell.shard_skew = cell.shard_skew.max(out.stats.shard_skew);
        cell.blocks += 1;
        cell.receipts.extend(out.receipts);
    }
    cell.wall_ns = t0.elapsed().as_nanos() as u64;
    cell.tx_per_sec = stream.len() as f64 / (cell.wall_ns as f64 / 1e9).max(1e-9);
    let attempts = cell.commits + cell.aborts;
    if attempts > 0 {
        cell.abort_rate = cell.aborts as f64 / attempts as f64;
    }
    let mut balances: Vec<(u64, u32)> = balances.into_iter().filter(|&(_, b)| b != 0).collect();
    balances.sort_unstable();
    assert_eq!(
        balances,
        ledger(&stream),
        "balances diverged from the ledger fold at skew {skew}, {shards} shard(s)"
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
        assert_eq!(cell.txs, stream_config(Scale::Tiny, 0.9).txs);
        assert!(cell.blocks >= cell.txs / 128);
        assert!(cell.commits > 0);
        assert_eq!(
            cell.receipts.len(),
            cell.txs,
            "every client tx gets a receipt"
        );
        assert!(cell.shard_skew >= 1.0, "skew {}", cell.shard_skew);
    }
}
