//! The hot-path harness: runs every independent `(workload, system)` cell
//! of the table1/fig4/fig5/ablation binaries twice — once sequentially,
//! once fanned across host threads — asserts the two passes produce
//! bit-identical simulated results, and emits `BENCH_hotpath.json` with
//! per-cell wall-clocks plus the TLB and conflict-filter counters the
//! hot-path work introduced.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin hotpath
//! PTM_SCALE=tiny PTM_WORKERS=4 cargo run -p ptm-bench --release --bin hotpath
//! PTM_BENCH_OUT=/tmp/x.json cargo run -p ptm-bench --release --bin hotpath
//! ```

use ptm_bench::parallel::{
    assert_cells_match, cells_from_env, run_cells_parallel, run_cells_sequential, workers_from_env,
};
use ptm_bench::report::{fixed, sum, Report};
use ptm_bench::row;
use std::time::Instant;

fn main() {
    let (scale, specs) = cells_from_env();
    let workers = workers_from_env();
    let mut report = Report::with_history("hotpath", scale);
    let host_cores = ptm_bench::meta::host_cores();
    eprintln!(
        "hotpath: {} cells at {scale:?}, {workers} worker(s), {host_cores} host core(s)",
        specs.len()
    );

    let t0 = Instant::now();
    let seq = run_cells_sequential(&specs);
    let seq_wall = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let par = run_cells_parallel(&specs, workers);
    let par_wall = t1.elapsed().as_nanos() as u64;

    assert_cells_match(&seq, &par);
    eprintln!(
        "hotpath: parallel pass matched sequential pass on all {} cells",
        seq.len()
    );

    let cells: Vec<_> = seq
        .iter()
        .zip(&par)
        .map(|(a, b)| {
            row!(a =>
                cycles, commits, aborts, tlb_hits, tlb_misses, tlb_shootdowns,
                conflict_checks_fast, conflict_checks_slow;
                "family": a.spec.family, "workload": a.spec.workload.name(),
                "system": a.spec.kind.label(), "wall_seq_ns": a.wall_ns, "wall_par_ns": b.wall_ns,
                "checksums_match": a.checksums == b.checksums,
            )
        })
        .collect();
    let speedup = seq_wall as f64 / par_wall.max(1) as f64;
    let (fast, slow) = (
        sum(&cells, "conflict_checks_fast"),
        sum(&cells, "conflict_checks_slow"),
    );
    let (hits, misses) = (sum(&cells, "tlb_hits"), sum(&cells, "tlb_misses"));
    let shootdowns = sum(&cells, "tlb_shootdowns");
    let fast_fraction = fast as f64 / (fast + slow).max(1) as f64;
    report.meta(row! { "workers": workers });
    let sections = row! {
        "cells": cells,
        "totals": row! {
            "seq_wall_ns": seq_wall,
            "par_wall_ns": par_wall,
            "measured_speedup": fixed(speedup, 3),
            "tlb_hits": hits,
            "tlb_misses": misses,
            "tlb_shootdowns": shootdowns,
            "conflict_checks_fast": fast,
            "conflict_checks_slow": slow,
            "conflict_fast_fraction": fixed(fast_fraction, 4),
        },
        "checksums_match": true,
    };
    // The trajectory gates the sequential cycle loop. The fan-out pass
    // only redistributes cells across host threads, so its wall time stays
    // in the report body and is not gated.
    report.emit(
        sections,
        row! {
            "workers": workers,
            "cells": seq.len(),
            "total_cycles": seq.iter().map(|c| c.cycles).sum::<u64>(),
            "seq_wall_ns": seq_wall,
        },
    );

    eprintln!(
        "hotpath: seq {:.2}s, par {:.2}s ({speedup:.2}x measured on {host_cores} core(s))",
        seq_wall as f64 / 1e9,
        par_wall as f64 / 1e9,
    );
    eprintln!(
        "hotpath: conflict checks {fast} fast / {slow} slow ({:.1}% summary-filtered), \
         core TLB {hits}/{misses} ({:.1}% hit)",
        100.0 * fast_fraction,
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );
}
