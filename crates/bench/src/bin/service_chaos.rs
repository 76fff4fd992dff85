//! Service-chaos drill: crash-recovery sweep (force policies × log-fault
//! seed classes × every-K-steps, each point oracle-checked), shard-storm
//! degradation cells, and a bounded-queue backpressure flood. Emits
//! `BENCH_service_chaos.json` on the history-trajectory scheme with
//! `force_policy: "mixed"` (the sweep spans all policies, so `bench_gate`
//! compares it only with another chaos report).
//!
//! ```text
//! cargo run -p ptm-bench --release --bin service_chaos
//! PTM_SCALE=tiny PTM_CHAOS_K=23 cargo run -p ptm-bench --release --bin service_chaos
//! PTM_BENCH_OUT=/tmp/x.json cargo run -p ptm-bench --release --bin service_chaos
//! ```
//!
//! At `small` scale and the default stride the sweep exercises ≥ 200
//! crash points; the binary aborts if it does not.

use ptm_bench::report::Report;
use ptm_bench::service_chaos::{
    chaos_stream_config, run_backpressure, run_crash_sweep, run_degradation, FAULT_SEEDS,
    MAX_BATCH, POLICIES, SHARDS,
};
use ptm_bench::{row, scale_from_env};
use ptm_workloads::Scale;

/// Default crash-sweep stride (pipeline steps between crash points).
const DEFAULT_K: u64 = 12;

fn main() {
    let scale = scale_from_env();
    let every_k = match std::env::var("PTM_CHAOS_K") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("PTM_CHAOS_K must be a positive integer, got {v:?}")),
        Err(_) => DEFAULT_K,
    };
    let mut report = Report::with_history("service_chaos", scale);
    let host_cores = ptm_bench::meta::host_cores();
    let wcfg = chaos_stream_config(scale);
    eprintln!(
        "service_chaos: {} policies x {} fault seeds at {scale:?} \
         ({} accounts, {} txs/stream, batch {MAX_BATCH}, stride {every_k}), {host_cores} host core(s)",
        POLICIES.len(),
        FAULT_SEEDS.len(),
        wcfg.accounts,
        wcfg.txs,
    );

    let t0 = std::time::Instant::now();
    let cells = run_crash_sweep(scale, every_k);
    let points: u64 = cells.iter().map(|c| c.points).sum();
    eprintln!(
        "service_chaos: {points} crash points oracle-clean across {} cells",
        cells.len()
    );
    if scale != Scale::Tiny && every_k <= DEFAULT_K {
        assert!(
            points >= 200,
            "acceptance floor: {points} crash points < 200 at {scale:?}"
        );
    }

    let degradation = run_degradation(scale);
    eprintln!(
        "service_chaos: {} storm cells completed every tx (degraded, never wedged)",
        degradation.len()
    );
    let backpressure = run_backpressure(scale);
    eprintln!(
        "service_chaos: flood shed {}/{} with retry hints <= {} ms",
        backpressure.shed, backpressure.offered, backpressure.max_retry_after_ms
    );
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let crash_cells: Vec<_> = cells
        .iter()
        .map(|c| {
            row!(c =>
                policy, fault_seed, points, txs, blocks, min_recovered, reexecuted, tail_txs,
                append_retries, forces, clean_cycles, wall_ns
            )
        })
        .collect();
    let degradation_cells: Vec<_> = degradation
        .iter()
        .map(|d| {
            row!(d =>
                chaos_seed, blocks, txs, retries, stalls, escalations, degraded_blocks, wall_ns
            )
        })
        .collect();
    report.meta(row!(wcfg =>
        accounts; "txs_per_stream": wcfg.txs, "shards": SHARDS, "max_batch": MAX_BATCH,
        "crash_stride": every_k, "force_policy": "mixed",
    ));
    let sections = row! {
        "crash_cells": crash_cells,
        "degradation_cells": degradation_cells,
        "backpressure": row!(backpressure =>
            queue_depth, bursts, offered, admitted, shed, max_retry_after_ms
        ),
        "totals": row! {
            "crash_points": points,
            "phantom_receipts": 0u64,
            "lost_acked_txs": 0u64,
            "recovery_idempotent": true,
        },
        "oracle_clean": true,
    };
    // The trajectory's work metric: slowest-shard cycles of each cell's
    // clean pass, over the wall time of the whole drill. The entry takes
    // `force_policy: "mixed"` from the configuration: the sweep spans every
    // policy, so the gate refuses a comparison against any single-policy or
    // unjournaled report.
    report.emit(
        sections,
        row! {
            "workers": SHARDS,
            "cells": cells.len(),
            "total_cycles": cells.iter().map(|c| c.clean_cycles).sum::<u64>(),
            "seq_wall_ns": wall_ns,
        },
    );

    for c in &cells {
        eprintln!(
            "service_chaos: {:>6} x seed {}: {:>3} points, min recovered {:>3}/{}, \
             {} reexecuted, {} tail txs, {} append retries, {} forces",
            c.policy,
            c.fault_seed,
            c.points,
            c.min_recovered,
            c.txs,
            c.reexecuted,
            c.tail_txs,
            c.append_retries,
            c.forces,
        );
    }
    for d in &degradation {
        eprintln!(
            "service_chaos: storm seed {:>9}: {} blocks, {} retries, {} stalls, \
             {} escalations, {} degraded blocks",
            d.chaos_seed, d.blocks, d.retries, d.stalls, d.escalations, d.degraded_blocks,
        );
    }
}
