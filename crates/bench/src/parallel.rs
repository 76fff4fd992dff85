//! Parallel execution of independent benchmark cells.
//!
//! The regeneration binaries (`table1`, `fig4`, `fig5`, `ablation`) all
//! decompose into *cells*: one `(workload, system)` machine run whose
//! result depends on nothing but its own spec. Machines are deterministic,
//! so the cells can fan out across host threads and must produce
//! bit-identical simulated results (checksums, cycles, counters) to a
//! sequential pass — which [`assert_cells_match`] verifies. Only the host
//! wall-clock changes.
//!
//! The scheduler is a work-stealing index: workers grab the next unclaimed
//! cell until none remain, so a straggler cell (serial ocean) never idles
//! the other workers.

use crate::scale_from_env;
use ptm_sim::{run, serialize_programs, SystemKind};
use ptm_workloads::{by_name, synthetic, Scale, SyntheticConfig, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which workload a cell runs (rebuilt inside the worker — `Workload`
/// itself never crosses threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// One of the five Table 1 benchmarks, by name.
    Splash2(&'static str),
    /// The ablation binary's low-contention synthetic workload.
    SyntheticLow,
    /// `synthetic::overflowing(seed)`.
    SyntheticOverflowing(u64),
    /// `synthetic::contended(seed)`.
    SyntheticContended(u64),
}

impl CellWorkload {
    /// A stable display name.
    pub fn name(&self) -> String {
        match self {
            CellWorkload::Splash2(n) => (*n).to_string(),
            CellWorkload::SyntheticLow => "syn-low".to_string(),
            CellWorkload::SyntheticOverflowing(s) => format!("syn-overflow-{s}"),
            CellWorkload::SyntheticContended(s) => format!("syn-contended-{s}"),
        }
    }

    pub(crate) fn build(&self, scale: Scale) -> Workload {
        match self {
            CellWorkload::Splash2(n) => by_name(n, scale).expect("known benchmark"),
            CellWorkload::SyntheticLow => synthetic::workload(SyntheticConfig {
                shared_fraction: 0.05,
                ops_per_tx: 120,
                private_pages: 32,
                ..SyntheticConfig::default()
            }),
            CellWorkload::SyntheticOverflowing(s) => synthetic::overflowing(*s),
            CellWorkload::SyntheticContended(s) => synthetic::contended(*s),
        }
    }
}

/// One independent unit of harness work.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Which regeneration family the cell belongs to (`table1`, `fig4`,
    /// `fig5`, `ablation`, `serial`).
    pub family: &'static str,
    /// The workload to build.
    pub workload: CellWorkload,
    /// The system to run it under.
    pub kind: SystemKind,
    /// The problem scale.
    pub scale: Scale,
}

/// Everything a cell run produces: the simulated results that must be
/// schedule-invariant, plus the host wall-clock that must not be.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The spec that produced this result.
    pub spec: CellSpec,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Per-core read checksums — the divergence detector.
    pub checksums: Vec<u64>,
    /// Core-TLB hits.
    pub tlb_hits: u64,
    /// Core-TLB misses.
    pub tlb_misses: u64,
    /// Core-TLB shootdowns.
    pub tlb_shootdowns: u64,
    /// Conflict checks resolved by the summary-vector fast path (PTM runs).
    pub conflict_checks_fast: u64,
    /// Conflict checks that walked the TAV list (PTM runs).
    pub conflict_checks_slow: u64,
    /// Host wall-clock for this cell, nanoseconds.
    pub wall_ns: u64,
}

/// Runs one cell to completion.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    let w = spec.workload.build(spec.scale);
    let cfg = w.machine_config();
    let programs = if spec.kind == SystemKind::Serial {
        serialize_programs(&w.programs_for(SystemKind::Serial))
    } else {
        w.programs_for(spec.kind)
    };
    let start = Instant::now();
    let m = run(cfg, spec.kind, programs);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (fast, slow) = m
        .backend()
        .as_ptm()
        .map(|p| {
            (
                p.stats().conflict_checks_fast,
                p.stats().conflict_checks_slow,
            )
        })
        .unwrap_or((0, 0));
    CellResult {
        spec: *spec,
        cycles: m.stats().cycles,
        commits: m.stats().commits,
        aborts: m.stats().aborts,
        checksums: m.checksums(),
        tlb_hits: m.stats().tlb_hits,
        tlb_misses: m.stats().tlb_misses,
        tlb_shootdowns: m.stats().tlb_shootdowns,
        conflict_checks_fast: fast,
        conflict_checks_slow: slow,
        wall_ns,
    }
}

/// The full hot-path cell list: Table 1 / Figure 4 / Figure 5 cells for the
/// five benchmarks (deduplicated across families) plus the ablation's
/// synthetic grid.
pub fn default_cells(scale: Scale) -> Vec<CellSpec> {
    let mut cells: Vec<CellSpec> = Vec::new();
    let mut push = |family: &'static str, workload: CellWorkload, kind: SystemKind| {
        if !cells
            .iter()
            .any(|c| c.workload == workload && c.kind == kind)
        {
            cells.push(CellSpec {
                family,
                workload,
                kind,
                scale,
            });
        }
    };
    for app in ["fft", "lu", "radix", "ocean", "water"] {
        let w = CellWorkload::Splash2(app);
        push("table1", w, SystemKind::SelectPtm(Default::default()));
        push("serial", w, SystemKind::Serial);
        for kind in SystemKind::figure4() {
            push("fig4", w, kind);
        }
        for kind in SystemKind::figure5() {
            push("fig5", w, kind);
        }
    }
    for workload in [
        CellWorkload::SyntheticLow,
        CellWorkload::SyntheticOverflowing(7),
        CellWorkload::SyntheticContended(7),
    ] {
        for kind in [
            SystemKind::CopyPtm,
            SystemKind::SelectPtm(Default::default()),
            SystemKind::LogTm,
        ] {
            push("ablation", workload, kind);
        }
    }
    cells
}

/// Runs every cell on the calling thread, in order.
pub fn run_cells_sequential(specs: &[CellSpec]) -> Vec<CellResult> {
    specs.iter().map(run_cell).collect()
}

/// Fans the cells across `workers` host threads (work-stealing index);
/// results come back in spec order regardless of completion order.
pub fn run_cells_parallel(specs: &[CellSpec], workers: usize) -> Vec<CellResult> {
    let workers = workers.max(1).min(specs.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let result = run_cell(spec);
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("poisoned slot").expect("cell ran"))
        .collect()
}

/// Asserts the parallel pass reproduced the sequential pass bit-for-bit on
/// every simulated quantity (wall-clock is exempt — that is the point).
///
/// # Panics
///
/// Panics on the first diverging cell.
pub fn assert_cells_match(seq: &[CellResult], par: &[CellResult]) {
    assert_eq!(seq.len(), par.len(), "cell count mismatch");
    for (a, b) in seq.iter().zip(par) {
        let ctx = format!("{}/{}", a.spec.workload.name(), a.spec.kind.label());
        assert_eq!(a.checksums, b.checksums, "{ctx}: checksums diverged");
        assert_eq!(a.cycles, b.cycles, "{ctx}: cycles diverged");
        assert_eq!(a.commits, b.commits, "{ctx}: commits diverged");
        assert_eq!(a.aborts, b.aborts, "{ctx}: aborts diverged");
        assert_eq!(
            (a.conflict_checks_fast, a.conflict_checks_slow),
            (b.conflict_checks_fast, b.conflict_checks_slow),
            "{ctx}: conflict-filter counters diverged"
        );
    }
}

/// The worker count: `PTM_WORKERS` if set, else the host's parallelism.
pub fn workers_from_env() -> usize {
    std::env::var("PTM_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// The scale plus cell list the hotpath binary runs.
pub fn cells_from_env() -> (Scale, Vec<CellSpec>) {
    let scale = scale_from_env();
    (scale, default_cells(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cells() -> Vec<CellSpec> {
        vec![
            CellSpec {
                family: "test",
                workload: CellWorkload::SyntheticOverflowing(3),
                kind: SystemKind::SelectPtm(Default::default()),
                scale: Scale::Tiny,
            },
            CellSpec {
                family: "test",
                workload: CellWorkload::SyntheticContended(3),
                kind: SystemKind::CopyPtm,
                scale: Scale::Tiny,
            },
            CellSpec {
                family: "test",
                workload: CellWorkload::SyntheticContended(3),
                kind: SystemKind::Serial,
                scale: Scale::Tiny,
            },
        ]
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let specs = quick_cells();
        let seq = run_cells_sequential(&specs);
        let par = run_cells_parallel(&specs, 3);
        assert_cells_match(&seq, &par);
        assert!(
            seq.iter().any(|c| c.tlb_hits > 0),
            "TLB counters flow through"
        );
        assert!(
            seq.iter().any(|c| c.conflict_checks_fast > 0),
            "summary pre-filter counters flow through"
        );
    }

    #[test]
    fn default_cell_list_is_deduplicated() {
        let cells = default_cells(Scale::Tiny);
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert!(
                    !(a.workload == b.workload && a.kind == b.kind),
                    "duplicate cell {:?}/{:?}",
                    a.workload,
                    a.kind
                );
            }
        }
        // Every family is represented.
        for fam in ["table1", "serial", "fig4", "fig5", "ablation"] {
            assert!(cells.iter().any(|c| c.family == fam), "{fam} missing");
        }
    }
}
