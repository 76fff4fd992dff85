//! `paper_sweep`: the 49 deduplicated (workload, system) cells of Table 1,
//! Figures 4 and 5 and the ablation, at Small scale, one after another on
//! one thread.

use crate::probe::{self, Probe, Timed};
use crate::stats::{median, ratio};
use crate::trace::{layer_self_s, Tracer};
use crate::{timed_setup, Opts, Report};
use ptm_bench::parallel::{default_cells, CellSpec, CellWorkload};
use ptm_sim::{check_invariants, run, serialize_programs, Backend, Machine, SystemKind};
use ptm_workloads::{by_name, synthetic, Scale, SyntheticConfig, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// The seed the synthetic cells of `default_cells` use; the golden file
/// holds every cell at this seed.
pub const GOLDEN_SEED: u64 = 7;

const GOLDEN: &str = include_str!("../golden/paper_sweep_small.txt");

/// Fewest sweeps a run times, however short `--seconds` is.
const MIN_SWEEPS: usize = 3;

/// Everything a cell must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    pub cycles: u64,
    pub commits: u64,
    pub aborts: u64,
    pub checksums: Vec<u64>,
}

impl CellResult {
    fn line(&self, key: &str) -> String {
        let sums: Vec<String> = self.checksums.iter().map(u64::to_string).collect();
        format!(
            "{key} {} {} {} {}",
            self.cycles,
            self.commits,
            self.aborts,
            sums.join(",")
        )
    }
}

/// `<workload> <system>`, the golden-file key of a cell.
fn key(spec: &CellSpec) -> String {
    format!("{} {}", spec.workload.name(), spec.kind.label())
}

fn parse_golden(text: &str) -> Result<BTreeMap<String, CellResult>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("malformed golden line: {line}");
        if f.len() != 6 {
            return Err(bad());
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let checksums = f[5].split(',').map(num).collect::<Result<Vec<_>, _>>()?;
        let cell = CellResult {
            cycles: num(f[2])?,
            commits: num(f[3])?,
            aborts: num(f[4])?,
            checksums,
        };
        out.insert(format!("{} {}", f[0], f[1]), cell);
    }
    Ok(out)
}

/// The sweep's cells with the synthetic ones drawn from `seed`.
pub fn cells(scale: Scale, seed: u64) -> Vec<CellSpec> {
    default_cells(scale)
        .into_iter()
        .map(|mut c| {
            c.workload = match c.workload {
                CellWorkload::SyntheticOverflowing(_) => CellWorkload::SyntheticOverflowing(seed),
                CellWorkload::SyntheticContended(_) => CellWorkload::SyntheticContended(seed),
                w => w,
            };
            c
        })
        .collect()
}

fn build(w: CellWorkload, scale: Scale) -> Workload {
    match w {
        CellWorkload::Splash2(n) => by_name(n, scale).expect("a Table 1 benchmark"),
        CellWorkload::SyntheticLow => synthetic::workload(SyntheticConfig {
            shared_fraction: 0.05,
            ops_per_tx: 120,
            private_pages: 32,
            ..SyntheticConfig::default()
        }),
        CellWorkload::SyntheticOverflowing(s) => synthetic::overflowing(s),
        CellWorkload::SyntheticContended(s) => synthetic::contended(s),
    }
}

/// The `sim.run_s.<app>` bucket of a cell.
fn app(w: CellWorkload) -> &'static str {
    match w {
        CellWorkload::Splash2("fft") => "sim.run_s.fft",
        CellWorkload::Splash2("lu") => "sim.run_s.lu",
        CellWorkload::Splash2("radix") => "sim.run_s.radix",
        CellWorkload::Splash2("ocean") => "sim.run_s.ocean",
        CellWorkload::Splash2("water") => "sim.run_s.water",
        _ => "sim.run_s.synthetic",
    }
}

/// Counters of one sweep, summed over its cells.
#[derive(Debug, Default)]
struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_insert(0.0) += v as f64;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn absorb(&mut self, spec: &CellSpec, m: &Machine) {
        let s = m.stats();
        self.add("sim.cycles", s.cycles);
        self.add("sim.mem_ops", s.mem_ops);
        self.add("sim.commits", s.commits);
        self.add("sim.aborts", s.aborts);
        self.add("sim.stall_cycles", s.stall_cycles);
        self.add("sim.tlb_hits", s.tlb_hits);
        self.add("sim.tlb_misses", s.tlb_misses);
        let k = m.kernel_stats();
        self.add("kernel.tlb_misses", k.tlb_misses);
        self.add("kernel.minor_faults", k.minor_faults);
        self.add("kernel.swap_outs", k.swap_outs);
        self.add("kernel.context_switches", k.context_switches);
        let b = m.bus_stats();
        self.add("cache.onchip_transactions", b.onchip_transactions);
        self.add("cache.mem_accesses", b.mem_accesses);
        self.add("cache.bus_wait_cycles", b.bus_wait_cycles);
        self.add("cache.mem_wait_cycles", b.mem_wait_cycles);
        match m.backend() {
            Backend::Ptm(p) => {
                let p = p.stats();
                self.add("ptm.spt_cache_hits", p.spt_cache_hits);
                self.add("ptm.spt_cache_misses", p.spt_cache_misses);
                self.add("ptm.tav_cache_hits", p.tav_cache_hits);
                self.add("ptm.tav_cache_misses", p.tav_cache_misses);
                self.add("ptm.tav_walk_nodes", p.tav_walk_nodes);
                self.add("ptm.conflict_checks_fast", p.conflict_checks_fast);
                self.add("ptm.conflict_checks_slow", p.conflict_checks_slow);
                self.add("ptm.overflows", p.overflows());
                self.add("ptm.shadow_allocs", p.shadow_allocs);
                self.add("ptm.backup_copies", p.backup_copies);
                self.add("ptm.restore_copies", p.restore_copies);
                self.add("ptm.selection_toggles", p.selection_toggles);
                if spec.workload == CellWorkload::Splash2("ocean") {
                    self.add("ocean_ptm_overflows", p.overflows());
                }
            }
            Backend::Vtm(v) => {
                let v = v.stats();
                self.add("vtm.commit_copy_blocks", v.commit_copy_blocks);
                self.add("vtm.xadc_hits", v.xadc_hits);
                self.add("vtm.xadc_misses", v.xadc_misses);
                self.add("vtm.xf_false_positives", v.xf_false_positives);
            }
            _ => {}
        }
    }
}

/// One sweep's outcome.
struct Sweep {
    /// Each cell's timing, in cell order.
    cells: Vec<Timed>,
    counters: Counters,
    failures: Vec<String>,
    results: Vec<(String, CellResult)>,
}

fn run_sweep(
    cells: &[CellSpec],
    golden: &BTreeMap<String, CellResult>,
    tr: &mut Tracer,
    probe: &mut Probe,
) -> Sweep {
    let mut counters = Counters::default();
    let mut failures = Vec::new();
    let mut results = Vec::with_capacity(cells.len());
    let mut timed = Vec::with_capacity(cells.len());
    for (i, spec) in cells.iter().enumerate() {
        let probe_s = probe.time();
        let start = Instant::now();
        let group = i as u64;
        let cell = tr.open("bench.cell", group, None);
        let programs = tr.span("workloads.build", group, Some(cell), || {
            let w = build(spec.workload, spec.scale);
            let programs = if spec.kind == SystemKind::Serial {
                serialize_programs(&w.programs_for(SystemKind::Serial))
            } else {
                w.programs_for(spec.kind)
            };
            (w.machine_config(), programs)
        });
        let m = tr.span(app(spec.workload), group, Some(cell), || {
            run(programs.0, spec.kind, programs.1)
        });
        let k = key(spec);
        if let Err(e) = check_invariants(&m) {
            failures.push(format!("{k}: invariant violated: {e}"));
        }
        let got = CellResult {
            cycles: m.stats().cycles,
            commits: m.stats().commits,
            aborts: m.stats().aborts,
            checksums: m.checksums(),
        };
        if let Some(want) = golden.get(&k) {
            if *want != got {
                failures.push(format!(
                    "{k}: differs from the golden file\n  want {}\n  got  {}",
                    want.line(&k),
                    got.line(&k)
                ));
            }
        }
        counters.absorb(spec, &m);
        results.push((k, got));
        drop(m);
        tr.close(cell);
        let wall_s = start.elapsed().as_secs_f64();
        timed.push(Timed { wall_s, probe_s });
    }
    Sweep {
        cells: timed,
        counters,
        failures,
        results,
    }
}

/// Prints the golden file for the default seed to stdout.
pub fn write_golden() {
    let cells = cells(Scale::Small, GOLDEN_SEED);
    let sweep = run_sweep(
        &cells,
        &BTreeMap::new(),
        &mut Tracer::new(false),
        &mut Probe::new(),
    );
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    for (k, r) in &sweep.results {
        println!("{}", r.line(k));
    }
}

struct State {
    cells: Vec<CellSpec>,
    golden: BTreeMap<String, CellResult>,
}

pub fn run_workload(opts: &Opts, scale: Scale) -> Result<Report, String> {
    let probe = &mut Probe::new();
    let (state, setup_s) = timed_setup(probe, |probe| -> Result<State, String> {
        let golden = parse_golden(GOLDEN)?;
        // Warm the allocator and caches with the same cells at Tiny scale.
        let warm = cells(Scale::Tiny, opts.seed);
        let cells = cells(scale, opts.seed);
        let w = run_sweep(&warm, &BTreeMap::new(), &mut Tracer::new(false), probe);
        if !w.failures.is_empty() {
            return Err(w.failures.join("\n"));
        }
        Ok(State { cells, golden })
    });
    let state = state?;
    let mut report = Report::new(setup_s);

    // Every seed-independent cell must be in the golden file, so a
    // renamed cell cannot silently skip the comparison.
    if scale == Scale::Small {
        for c in &state.cells {
            let seeded = matches!(
                c.workload,
                CellWorkload::SyntheticOverflowing(_) | CellWorkload::SyntheticContended(_)
            );
            if (opts.seed == GOLDEN_SEED || !seeded) && !state.golden.contains_key(&key(c)) {
                report.fail(format!("{}: no golden entry", key(c)));
            }
        }
    }
    let golden = if scale == Scale::Small {
        state.golden
    } else {
        BTreeMap::new()
    };

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new(opts.trace);
    let mut last = None;
    let start = Instant::now();
    while plain.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() < opts.seconds {
        let s = run_sweep(&state.cells, &golden, &mut Tracer::new(false), probe);
        plain.push(s.cells.clone());
        report.attempted += state.cells.len() as u64;
        report.absorb_failures(&s.failures);
        if opts.trace {
            // Alternate traced and untraced sweeps so both see the same
            // host conditions; the difference is the tracing overhead.
            tracer = Tracer::new(true);
            let t = run_sweep(&state.cells, &golden, &mut tracer, probe);
            traced.push(t.cells.clone());
            report.attempted += state.cells.len() as u64;
            report.absorb_failures(&t.failures);
            last = Some(t);
        } else {
            last = Some(s);
        }
    }
    let last = last.expect("at least one sweep");
    let c = &last.counters;

    // Shape: the sweep must keep exercising the paths it exists for.
    if scale == Scale::Small {
        // `ptm.tav_walk_nodes` counts only walks made on a VTS lookup; no
        // cell makes one, so the TAV path is pinned by its cache misses
        // (commit and abort cursor walks) and the slow conflict checks.
        for name in ["ptm.tav_cache_misses", "ptm.conflict_checks_slow"] {
            if c.get(name) == 0.0 {
                report.fail(format!("shape: {name} is 0"));
            }
        }
        if c.get("ocean_ptm_overflows") == 0.0 {
            report.fail("shape: no PTM overflows on ocean".into());
        }
        if c.get("vtm.commit_copy_blocks") == 0.0 {
            report.fail("shape: vtm.commit_copy_blocks is 0".into());
        }
    }

    report.job_s = probe::job_s(&plain);
    let walls: Vec<f64> = plain
        .iter()
        .map(|s| s.iter().map(|c| c.wall_s).sum())
        .collect();
    report.line("sweep_s", median(&walls).expect("sweeps ran"), "s");
    report.line("sweep_scaled_s", report.job_s, "s");
    report.line("sweeps", plain.len() as f64, "count");

    if opts.trace {
        let l = &mut report.layers;
        for (name, v) in &c.0 {
            if !name.starts_with("ocean_") {
                l.set(name, *v);
            }
        }
        // Simulator spans have no children: their self time is all of it.
        let selfs = layer_self_s(tracer.spans());
        let sim_s = selfs.get("sim").copied().unwrap_or(0.0);
        l.set("bench.self_s", selfs.get("bench").copied().unwrap_or(0.0));
        l.set("workloads.build_s", tracer.total_s("workloads.build"));
        l.set("sim.run_s", sim_s);
        for name in [
            "sim.run_s.fft",
            "sim.run_s.lu",
            "sim.run_s.radix",
            "sim.run_s.ocean",
            "sim.run_s.water",
            "sim.run_s.synthetic",
        ] {
            l.set(name, tracer.total_s(name));
        }
        l.set(
            "sim.ns_per_mem_op",
            ratio(sim_s * 1e9, c.get("sim.mem_ops")),
        );
        let commits = c.get("sim.commits");
        l.set(
            "sim.commit_frac",
            ratio(commits, commits + c.get("sim.aborts")),
        );
        let fast = c.get("ptm.conflict_checks_fast");
        l.set(
            "ptm.conflict_fast_frac",
            ratio(fast, fast + c.get("ptm.conflict_checks_slow")),
        );
        let plain_s = probe::job_s(&plain);
        let traced_s = probe::job_s(&traced);
        l.set("trace.overhead_frac", (traced_s - plain_s) / plain_s);
        l.set("trace.spans", tracer.spans().len() as f64);
        report.trace = Some(tracer);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_file_parses_and_covers_every_cell() {
        let golden = parse_golden(GOLDEN).expect("golden parses");
        let cells = cells(Scale::Small, GOLDEN_SEED);
        assert_eq!(cells.len(), 49);
        for c in &cells {
            assert!(golden.contains_key(&key(c)), "{} missing", key(c));
        }
    }

    #[test]
    fn golden_lines_round_trip() {
        let r = CellResult {
            cycles: 10,
            commits: 2,
            aborts: 1,
            checksums: vec![3, 4],
        };
        let parsed = parse_golden(&r.line("fft Sel-PTM")).expect("parses");
        assert_eq!(parsed["fft Sel-PTM"], r);
    }
}
