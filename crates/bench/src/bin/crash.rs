//! The crash-recovery harness: for every transactional system kind, crashes
//! each workload at every K-th scheduler step (clean and torn), recovers
//! the durable image, and asserts word-identical committed memory against
//! the committed-prefix serializability oracle — plus idempotence of the
//! recovery pass. Emits `BENCH_crash.json`.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin crash
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin crash
//! PTM_CRASH_K=500 PTM_CRASH_SEED=7 PTM_BENCH_OUT=/tmp/c.json \
//!     cargo run -p ptm-bench --release --bin crash
//! ```

use ptm_bench::crash::{crash_cells, sweep_cell, CrashCellReport};
use ptm_bench::report::{column_totals, Report, Value};
use ptm_bench::{row, scale_from_env};

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

fn main() {
    let scale = scale_from_env();
    let seed = env_u64("PTM_CRASH_SEED").unwrap_or(0xC1A54);
    // Explicit K overrides the per-cell default of total/16.
    let stride = env_u64("PTM_CRASH_K");
    let extra = env_u64("PTM_CRASH_EXTRA").unwrap_or(4);
    let cells = crash_cells(scale);
    eprintln!(
        "crash: {} cells at {scale:?}, seed {seed:#x}, K={}",
        cells.len(),
        stride.map_or("auto".to_string(), |k| k.to_string()),
    );

    let reports: Vec<CrashCellReport> = cells
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            // Decorrelate the per-cell random extras while keeping the whole
            // sweep a pure function of the one reported seed.
            let cell_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let r = sweep_cell(spec, stride, cell_seed, extra);
            eprintln!(
                "crash: {}/{} — {} points ({} torn), {} discarded, worst restore {} blocks",
                r.spec.workload.name(),
                r.spec.kind.label(),
                r.points,
                r.torn_points,
                r.transactions_discarded,
                r.worst_blocks_restored,
            );
            r
        })
        .collect();

    for r in &reports {
        let ctx = format!("{}/{}", r.spec.workload.name(), r.spec.kind.label());
        assert_eq!(
            r.mismatches, 0,
            "{ctx}: recovered memory diverged from the committed-prefix oracle"
        );
        assert_eq!(r.non_idempotent, 0, "{ctx}: recovery was not idempotent");
    }
    let discarded: u64 = reports.iter().map(|r| r.transactions_discarded).sum();
    let torn: u64 = reports.iter().map(|r| r.torn_points).sum();
    assert!(
        discarded > 0,
        "no crash point ever caught a live transaction — the sweep is too coarse to mean anything"
    );
    assert!(
        torn > 0,
        "no torn point ever applied — the sweep never crashed mid-overflow on a PTM kind"
    );
    let points: u64 = reports.iter().map(|r| r.points).sum();
    eprintln!(
        "crash: all {} cells clean — {points} crash points, {torn} torn, {discarded} live \
         transactions discarded and recovered",
        reports.len()
    );

    let rows: Vec<_> = reports
        .iter()
        .map(|r| {
            row!(r =>
                total_steps, stride, points, torn_points, non_idempotent, transactions_discarded,
                blocks_restored, worst_blocks_restored, torn_repaired, recovery_wall_ns,
                worst_recovery_wall_ns, plan_digest;
                "family": r.spec.family, "workload": r.spec.workload.name(),
                "system": r.spec.kind.label(), "oracle_mismatches": r.mismatches,
            )
        })
        .collect();
    let mut report = Report::new("crash", scale);
    report.meta(row! {
        "plan_seed": seed,
        "stride": stride.map_or(Value::from("auto"), Value::from),
        "extra_random_points": extra,
    });
    let mut totals = row! { "cells": reports.len() };
    totals.extend(column_totals(
        &rows,
        "points torn_points transactions_discarded blocks_restored worst_blocks_restored \
         torn_repaired worst_recovery_wall_ns oracle_mismatches non_idempotent",
    ));
    report.emit(row! { "cells": rows, "totals": totals });
}
