//! The durable-PTM crash sweep: attaches the write-behind log device to
//! every PTM cell, crosses crash-at-every-Kth-step (clean and torn) with
//! each log-force policy and each fault-plan seed, recovers, and asserts
//! the committed-prefix oracle, recovery idempotence and the log integrity
//! invariants (no phantom commits, no undo-replay mismatches, no missing
//! commit records under eager forcing, appends bounded by the retry
//! budget). Emits `BENCH_durable.json` with per-policy commit-latency
//! numbers, recovery-time-vs-log-size curves and the fault counters.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin durable
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin durable
//! PTM_FORCE_POLICY=group:8 PTM_LOG_FAULT_SEED=0x2a PTM_DURABLE_K=50 \
//!     cargo run -p ptm-bench --release --bin durable
//! ```

use ptm_bench::durable::{
    durable_cells, fault_seeds_from_env, force_policies_from_env, sweep_durable_cell,
    DurableCellReport,
};
use ptm_bench::report::{column_totals, fixed, sum, Report, Value};
use ptm_bench::{row, scale_from_env};
use ptm_core::durability::ForcePolicy;
use ptm_types::rng::SplitMix64;
use std::time::Instant;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

fn main() {
    let scale = scale_from_env();
    let mut report = Report::with_history("durable", scale);
    let stride = env_u64("PTM_DURABLE_K");
    let policies = force_policies_from_env();
    // Seed 0 (the fault-free device) always runs; the fault seeds cover
    // every injection kind by construction.
    let mut seeds = vec![0u64];
    seeds.extend(fault_seeds_from_env());
    let filtered =
        std::env::var("PTM_FORCE_POLICY").is_ok() || std::env::var("PTM_LOG_FAULT_SEED").is_ok();
    let cells = durable_cells(scale);
    eprintln!(
        "durable: {} cells x {} policies x {} seeds at {scale:?}, K={}",
        cells.len(),
        policies.len(),
        seeds.len(),
        stride.map_or("auto".to_string(), |k| k.to_string()),
    );

    let wall = Instant::now();
    let mut reports: Vec<DurableCellReport> = Vec::new();
    for spec in &cells {
        for &policy in &policies {
            for &seed in &seeds {
                let r = sweep_durable_cell(spec, policy, seed, stride);
                eprintln!(
                    "durable: {}/{} {} seed {:#x} — {} points ({} torn), \
                     {} commit records, avg commit latency {:.1} cyc, \
                     worst append attempts {}",
                    r.spec.workload.name(),
                    r.spec.kind.label(),
                    r.policy,
                    r.fault_seed,
                    r.points,
                    r.torn_points,
                    r.run_commit_records,
                    r.avg_commit_latency(),
                    r.max_append_attempts,
                );
                reports.push(r);
            }
        }
    }
    let seq_wall_ns = wall.elapsed().as_nanos() as u64;

    for r in &reports {
        let ctx = format!(
            "{}/{} {} seed {:#x}",
            r.spec.workload.name(),
            r.spec.kind.label(),
            r.policy,
            r.fault_seed
        );
        assert_eq!(
            r.mismatches, 0,
            "{ctx}: recovered memory diverged from the committed-prefix oracle"
        );
        assert_eq!(r.non_idempotent, 0, "{ctx}: recovery was not idempotent");
        assert_eq!(
            r.phantom_commits, 0,
            "{ctx}: the log holds commit records for transactions that never committed"
        );
        assert_eq!(
            r.replay_mismatches, 0,
            "{ctx}: a live transaction's undo pre-image contradicts recovered memory"
        );
        if r.policy == ForcePolicy::Eager {
            assert_eq!(
                r.commits_missing, 0,
                "{ctx}: eager forcing must persist every commit record"
            );
        }
    }

    // Coverage: with the default seed set, every fault kind must actually
    // fire somewhere and every torn-tail path must actually run. A
    // filtered run (single policy / single seed) exercises whatever the
    // knobs picked and skips the whole-matrix claims.
    if !filtered {
        let sum = |f: fn(&DurableCellReport) -> u64| reports.iter().map(f).sum::<u64>();
        assert!(
            sum(|r| r.run_transient_errors) > 0,
            "no transient append error ever fired across the sweep"
        );
        assert!(
            sum(|r| r.run_stall_events) > 0,
            "no full-device stall ever fired across the sweep"
        );
        assert!(
            sum(|r| r.run_throttle_events) > 0,
            "stalls never throttled a commit — the degradation path is untested"
        );
        assert!(
            sum(|r| r.run_reordered_completions) > 0,
            "no flush completion was ever reordered across the sweep"
        );
        assert!(
            sum(|r| r.torn_appends + r.lost_appends) > 0,
            "no in-flight append was ever torn or lost at a crash"
        );
        assert!(
            sum(|r| r.records_discarded) > 0,
            "the bounded tail scan never discarded a record — torn tails untested"
        );
        assert!(
            sum(|r| r.replay_verified) > 0,
            "no live transaction's undo pre-image was ever verified"
        );
    }
    let worst_attempts = reports
        .iter()
        .map(|r| r.max_append_attempts)
        .max()
        .unwrap_or(0);
    let points: u64 = reports.iter().map(|r| r.points).sum();
    eprintln!(
        "durable: all {} sweeps clean — {points} crash points, worst append attempts {worst_attempts}",
        reports.len()
    );

    let policy_label = match &policies[..] {
        [one] => one.label(),
        _ => "mixed".to_string(),
    };
    let rows: Vec<_> = reports
        .iter()
        .map(|r| {
            let curve: Vec<Value> = r
                .curve
                .iter()
                .map(|p| vec![p.step, p.log_bytes, p.records, p.recovery_ns].into())
                .collect();
            row!(r =>
                fault_seed, total_steps, stride, points, torn_points, non_idempotent,
                phantom_commits, replay_mismatches, replay_verified, commits_missing,
                records_discarded, checksum_mismatches, bytes_truncated, commit_records,
                abort_records, undo_records, redo_records, torn_appends, lost_appends,
                early_appends, run_commits, run_commit_records, run_ro_fastpath, run_forces,
                run_commit_latency_cycles, run_log_retries, run_backoff_cycles,
                run_throttle_events, run_throttle_cycles, max_append_attempts,
                run_transient_errors, run_stall_events, run_reordered_completions,
                run_bytes_appended, plan_digest, wall_ns;
                "family": r.spec.family, "workload": r.spec.workload.name(),
                "system": r.spec.kind.label(), "policy": r.policy.label(),
                "cycles": r.probe_cycles, "oracle_mismatches": r.mismatches,
                "avg_commit_latency": fixed(r.avg_commit_latency(), 2),
                "curve_step_logbytes_records_recns": curve,
            )
        })
        .collect();
    let classes: Vec<&str> = seeds
        .iter()
        .map(|&x| match x {
            0 => "none",
            _ => ["transient", "stall", "reorder", "torn"]
                [(SplitMix64::new(x).next_u64() % 4) as usize],
        })
        .collect();
    report.meta(row! {
        "force_policy": policy_label,
        "stride": stride.map_or(Value::from("auto"), Value::from),
        "fault_seeds": seeds.clone(),
        "fault_seed_classes": classes,
    });
    let mut totals = row! { "sweeps": reports.len() };
    totals.extend(column_totals(
        &rows,
        "points torn_points commit_records records_discarded checksum_mismatches \
         commits_missing replay_verified",
    ));
    totals.extend(row! {
        "transient_errors": sum(&rows, "run_transient_errors"),
        "stall_events": sum(&rows, "run_stall_events"),
        "throttle_events": sum(&rows, "run_throttle_events"),
        "reordered_completions": sum(&rows, "run_reordered_completions"),
        "torn_or_lost_appends": sum(&rows, "torn_appends") + sum(&rows, "lost_appends"),
    });
    totals.extend(column_totals(
        &rows,
        "max_append_attempts oracle_mismatches non_idempotent phantom_commits replay_mismatches",
    ));
    report.emit(
        row! { "cells": rows, "totals": totals },
        row! {
            "workers": 1usize,
            "cells": reports.len(),
            "total_cycles": reports.iter().map(|r| r.probe_cycles).sum::<u64>(),
            "seq_wall_ns": seq_wall_ns,
        },
    );
}
