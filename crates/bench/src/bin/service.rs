//! PTM-as-a-service throughput sweep: sustained tx/s across Zipfian skew
//! {0.6, 0.9, 1.2} × shards {1, 2, 4}, asserting on every cell that the
//! final balances equal the naive ledger fold of the stream. Emits
//! `BENCH_service.json` on the same history-trajectory scheme as the
//! other bench binaries (see `bench_gate`).
//!
//! ```text
//! cargo run -p ptm-bench --release --bin service
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin service
//! PTM_BENCH_OUT=/tmp/x.json cargo run -p ptm-bench --release --bin service
//! ```

use ptm_bench::report::{fixed, Report};
use ptm_bench::service::{run_sweep, SHARDS, SKEWS};
use ptm_bench::{row, scale_from_env, service::stream_config};

/// Admission batch size of the sweep.
const MAX_BATCH: usize = 256;

fn main() {
    let scale = scale_from_env();
    let mut report = Report::with_history("service", scale);
    let host_cores = ptm_bench::meta::host_cores();
    let wcfg = stream_config(scale, SKEWS[0]);
    eprintln!(
        "service: {} skews x {} shard counts at {scale:?} ({} accounts, {} txs/stream, batch {MAX_BATCH}), {host_cores} host core(s)",
        SKEWS.len(),
        SHARDS.len(),
        wcfg.accounts,
        wcfg.txs,
    );

    let cells = run_sweep(scale, MAX_BATCH);
    eprintln!(
        "service: balances match the ledger fold on all {} cells",
        cells.len()
    );

    let seq_wall: u64 = cells.iter().map(|c| c.wall_ns).sum();
    let txs: usize = cells.iter().map(|c| c.txs).sum();
    let rows: Vec<_> = cells
        .iter()
        .map(|c| {
            row!(c =>
                shards, txs, blocks, cross_shard;
                "skew": fixed(c.skew, 1), "read_only_fastpath_hits": c.read_only_hits,
                "shard_skew": fixed(c.shard_skew, 4), "ledger_matches": true,
                "strategies": vec![row!(c =>
                    wall_ns, commits, aborts, shard_cycles;
                    "strategy": "sequential", "tx_per_sec": fixed(c.tx_per_sec, 1),
                    "abort_rate": fixed(c.abort_rate, 4),
                )],
            )
        })
        .collect();
    report.meta(row!(wcfg =>
        accounts, read_only_pct; "txs_per_stream": wcfg.txs, "max_batch": MAX_BATCH,
    ));
    let sections = row! {
        "cells": rows,
        "totals": row! {
            "seq_wall_ns": seq_wall,
            "seq_tx_per_sec": fixed(txs as f64 / (seq_wall as f64 / 1e9).max(1e-9), 1),
        },
        "ledger_matches": true,
    };
    // The trajectory gates simulated cycles advanced per wall second of
    // the sweep, the same throughput metric as the hotpath trajectory.
    report.emit(
        sections,
        row! {
            "workers": 2usize,
            "cells": cells.len(),
            "total_cycles": cells.iter().map(|c| c.shard_cycles).sum::<u64>(),
            "seq_wall_ns": seq_wall,
        },
    );

    for c in &cells {
        eprintln!(
            "service: skew {:.1} x {} shard(s): {:>9.0} tx/s, \
             abort rate {:.3}, shard skew {:.2}, {} cross-shard, {} ro-fast-path",
            c.skew,
            c.shards,
            c.tx_per_sec,
            c.abort_rate,
            c.shard_skew,
            c.cross_shard,
            c.read_only_hits,
        );
    }
}
