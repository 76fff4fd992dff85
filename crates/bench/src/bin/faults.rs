//! The fault-injection harness: runs every benchmark cell three times —
//! plain, under an *empty* fault plan (must be bit-identical: same
//! checksums, same stats display), and under a seeded adversarial plan
//! (forced switches and migrations, hot-page swap-outs on a slow swap
//! device, abort storms, frame-pool and TAV-arena exhaustion) — asserting
//! that every injected run stays serializable, satisfies the stats
//! identities, and that the resource pressure actually fired somewhere.
//! Emits `BENCH_faults.json`.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin faults
//! PTM_SCALE=tiny cargo run -p ptm-bench --release --bin faults
//! PTM_FAULT_SEED=7 PTM_BENCH_OUT=/tmp/f.json cargo run -p ptm-bench --release --bin faults
//! ```

use ptm_bench::faults::{run_cell_plain, run_cell_under_plan, seeded_plan, FaultCellReport};
use ptm_bench::parallel::cells_from_env;
use ptm_bench::report::{column_totals, Report};
use ptm_bench::row;
use ptm_sim::FaultPlan;

fn main() {
    let (scale, specs) = cells_from_env();
    let seed = std::env::var("PTM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF4117);
    eprintln!(
        "faults: {} cells at {scale:?}, plan seed {seed:#x}",
        specs.len()
    );

    // Pass 1: plain runs — the bit-identity baseline.
    let plain: Vec<FaultCellReport> = specs.iter().map(run_cell_plain).collect();

    // Pass 2: empty plan. The harness is wired into the run loop
    // permanently, so an empty plan must change *nothing*.
    let empty_plan = FaultPlan::empty();
    let mut identical = 0usize;
    for (spec, base) in specs.iter().zip(&plain) {
        let e = run_cell_under_plan(spec, &empty_plan);
        let ctx = format!("{}/{}", spec.workload.name(), spec.kind.label());
        assert_eq!(
            base.checksums, e.checksums,
            "{ctx}: checksums diverged under an empty plan"
        );
        assert_eq!(
            base.stats, e.stats,
            "{ctx}: stats diverged under an empty plan"
        );
        identical += 1;
    }
    eprintln!("faults: empty plan bit-identical on all {identical} cells");

    // Pass 3: the seeded adversarial plan. Every run must finish (no
    // panics), pass the serializability oracle, and keep its accounting
    // identities; at least one cell must have taken the exhaustion path.
    let plan = seeded_plan(seed);
    let faulted: Vec<FaultCellReport> = specs
        .iter()
        .map(|s| run_cell_under_plan(s, &plan))
        .collect();
    for r in &faulted {
        let ctx = format!("{}/{}", r.spec.workload.name(), r.spec.kind.label());
        assert_eq!(
            r.mismatches, 0,
            "{ctx}: serializability oracle failed under the seeded plan"
        );
        assert_eq!(
            r.invariant_violation, None,
            "{ctx}: stats identity violated under the seeded plan"
        );
    }
    let exhausted = faulted
        .iter()
        .filter(|r| r.frame_exhaustions + r.tav_exhaustions > 0)
        .count();
    let swapped = faulted.iter().filter(|r| r.tx_swap_outs > 0).count();
    let recovery_aborts: u64 = faulted.iter().map(|r| r.exhaustion_aborts).sum();
    let recovery_retries: u64 = faulted.iter().map(|r| r.exhaustion_retries).sum();
    assert!(
        exhausted > 0,
        "the seeded plan never drove any cell into resource exhaustion"
    );
    eprintln!(
        "faults: seeded plan survived all {} cells — oracle clean, {exhausted} cell(s) \
         exhausted resources ({recovery_aborts} recovery aborts, {recovery_retries} retries), \
         {swapped} cell(s) swapped transactional pages",
        faulted.len()
    );

    let rows: Vec<_> = plain
        .iter()
        .zip(&faulted)
        .map(|(p, f)| {
            row!(f =>
                frame_exhaustions, tav_exhaustions, exhaustion_aborts, exhaustion_retries,
                tx_swap_outs, tx_swap_ins;
                "family": f.spec.family, "workload": f.spec.workload.name(),
                "system": f.spec.kind.label(), "plain_cycles": p.cycles,
                "faulted_cycles": f.cycles, "plain_commits": p.commits,
                "faulted_commits": f.commits, "plain_aborts": p.aborts,
                "faulted_aborts": f.aborts, "oracle_mismatches": f.mismatches,
            )
        })
        .collect();
    let mut report = Report::new("faults", scale);
    report.meta(row! {
        "plan_seed": seed,
        "plan_digest": plan.digest(),
        "plan_events": plan.events.len(),
        "empty_plan_bit_identical": true,
    });
    let mut totals = row! {
        "cells": faulted.len(),
        "cells_exhausted": exhausted,
        "cells_swapped_tx_pages": swapped,
    };
    totals.extend(column_totals(
        &rows,
        "frame_exhaustions tav_exhaustions exhaustion_aborts exhaustion_retries \
         tx_swap_outs tx_swap_ins",
    ));
    report.emit(row! { "cells": rows, "totals": totals });
}
