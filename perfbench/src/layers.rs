//! The per-layer metrics the traced run prints, with the prediction each
//! one carries: which end-to-end metric it should move, on which
//! workload, and what it should do on the others.

use std::collections::BTreeMap;

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric a change to this number should move.
    pub moves: &'static str,
    /// The workload where it should move it.
    pub on: &'static str,
    /// The prediction for the other workloads.
    pub elsewhere: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
    elsewhere: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        on,
        elsewhere,
    }
}

const SWEEP: &str = "paper_sweep";
const SVC: &str = "service_zipf";
const REC: &str = "recovery";
const NONE: &str = "none";
const SIM_ELSEWHERE: &str = "small share of service_zipf";
const SVC_ELSEWHERE: &str = "recovery (recover calls run_block); none on paper_sweep";
const SVC_ONLY: &str = "none on paper_sweep";

/// Every per-layer metric, in print order. `BENCHMARK.json` lists the
/// same names and units; a test keeps the two in step.
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    m("bench.self_s", "s", "job_s", SWEEP, NONE),
    m("workloads.build_s", "s", "job_s", SWEEP, NONE),
    m("workloads.svc_gen_s", "s", "setup_s", SVC, "setup_s on recovery"),
    m("sim.run_s", "s", "job_s", SWEEP, SIM_ELSEWHERE),
    m("sim.run_s.fft", "s", "job_s", SWEEP, NONE),
    m("sim.run_s.lu", "s", "job_s", SWEEP, NONE),
    m("sim.run_s.radix", "s", "job_s", SWEEP, NONE),
    m("sim.run_s.ocean", "s", "job_s", SWEEP, NONE),
    m("sim.run_s.water", "s", "job_s", SWEEP, NONE),
    m("sim.run_s.synthetic", "s", "job_s", SWEEP, NONE),
    m("sim.cycles", "count", "job_s", SWEEP, NONE),
    m("sim.mem_ops", "count", "job_s", SWEEP, NONE),
    m("sim.ns_per_mem_op", "ns", "job_s", SWEEP, NONE),
    m("sim.commits", "count", "job_s", SWEEP, SIM_ELSEWHERE),
    m("sim.aborts", "count", "job_s", SWEEP, SIM_ELSEWHERE),
    m("sim.commit_frac", "ratio", "job_s", SWEEP, SIM_ELSEWHERE),
    m("sim.stall_cycles", "count", "job_s", SWEEP, NONE),
    m("sim.tlb_hits", "count", "job_s", SWEEP, NONE),
    m("sim.tlb_misses", "count", "job_s", SWEEP, NONE),
    m("sim.shard_cycles", "count", "job_s", SVC, "recovery"),
    m("kernel.tlb_misses", "count", "job_s", SWEEP, NONE),
    m("kernel.minor_faults", "count", "job_s", SWEEP, NONE),
    m("kernel.swap_outs", "count", "job_s", SWEEP, NONE),
    m("kernel.context_switches", "count", "job_s", SWEEP, NONE),
    m("cache.onchip_transactions", "count", "job_s", SWEEP, NONE),
    m("cache.mem_accesses", "count", "job_s", SWEEP, NONE),
    m("cache.bus_wait_cycles", "count", "job_s", SWEEP, NONE),
    m("cache.mem_wait_cycles", "count", "job_s", SWEEP, NONE),
    m("ptm.spt_cache_hits", "count", "job_s", SWEEP, NONE),
    m("ptm.spt_cache_misses", "count", "job_s", SWEEP, NONE),
    m("ptm.tav_cache_hits", "count", "job_s", SWEEP, NONE),
    m("ptm.tav_cache_misses", "count", "job_s", SWEEP, NONE),
    m("ptm.tav_walk_nodes", "count", "job_s", SWEEP, NONE),
    m("ptm.conflict_checks_fast", "count", "job_s", SWEEP, NONE),
    m("ptm.conflict_checks_slow", "count", "job_s", SWEEP, NONE),
    m("ptm.conflict_fast_frac", "ratio", "job_s", SWEEP, NONE),
    m("ptm.overflows", "count", "job_s", SWEEP, NONE),
    m("ptm.shadow_allocs", "count", "job_s", SWEEP, NONE),
    m("ptm.backup_copies", "count", "job_s", SWEEP, NONE),
    m("ptm.restore_copies", "count", "job_s", SWEEP, NONE),
    m("ptm.selection_toggles", "count", "job_s", SWEEP, NONE),
    m("vtm.commit_copy_blocks", "count", "job_s", SWEEP, NONE),
    m("vtm.xadc_hits", "count", "job_s", SWEEP, NONE),
    m("vtm.xadc_misses", "count", "job_s", SWEEP, NONE),
    m("vtm.xf_false_positives", "count", "job_s", SWEEP, NONE),
    m("service.submit_us_p50", "us", "svc_lo_p50_ms", SVC, SVC_ONLY),
    m("service.batch_fill_ms_p50", "ms", "svc_lo_p50_ms", SVC, SVC_ONLY),
    m("service.block_ms_p50", "ms", "job_s", SVC, SVC_ELSEWHERE),
    m("service.block_ms_p99", "ms", "svc_hi_p99_ms", SVC, SVC_ELSEWHERE),
    m("service.wait_ms_p50", "ms", "svc_hi_p50_ms", SVC, SVC_ONLY),
    m("service.busy_s", "s", "job_s", SVC, SVC_ELSEWHERE),
    m("service.blocks", "count", "job_s", SVC, SVC_ELSEWHERE),
    m("service.machines_built", "count", "job_s", SVC, SVC_ELSEWHERE),
    m("service.shard_skew", "ratio", "job_s", SVC, SVC_ELSEWHERE),
    m("service.cross_shard", "count", "job_s", SVC, SVC_ELSEWHERE),
    m("service.read_only_hits", "count", "job_s", SVC, SVC_ELSEWHERE),
    m("service.abort_frac", "ratio", "job_s", SVC, SVC_ELSEWHERE),
    m("journal.busy_s", "s", "svc_hi_p99_ms", SVC, "recovery; none on paper_sweep"),
    m("journal.records", "count", "svc_hi_p99_ms", SVC, SVC_ONLY),
    m("journal.forces", "count", "svc_hi_p99_ms", SVC, SVC_ONLY),
    m("journal.bytes_per_tx", "bytes", "svc_hi_p99_ms", SVC, SVC_ONLY),
    m("journal.retries", "count", "svc_hi_p99_ms", SVC, SVC_ONLY),
    m("journal.throttle_events", "count", "svc_hi_p99_ms", SVC, SVC_ONLY),
    m("journal.acked_txs", "count", "svc_hi_p99_ms", SVC, SVC_ONLY),
    m("logdev.appends", "count", "svc_hi_p99_ms", SVC, SVC_ONLY),
    m("logdev.bytes_appended", "bytes", "svc_hi_p99_ms", SVC, SVC_ONLY),
    m("logdev.backpressure_waits", "count", "svc_hi_p99_ms", SVC, SVC_ONLY),
    m("recovery.replay_s", "s", "job_s", REC, "none on service_zipf or paper_sweep"),
    m("recovery.reexec_s", "s", "job_s", REC, "none on service_zipf or paper_sweep"),
    m("recovery.records_scanned", "count", "job_s", REC, NONE),
    m("recovery.image_bytes", "bytes", "job_s", REC, NONE),
    m("recovery.blocks_replayed", "count", "job_s", REC, NONE),
    m("recovery.blocks_reexecuted", "count", "job_s", REC, NONE),
    m("recovery.tail_txs", "count", "job_s", REC, NONE),
    m("recovery.txs_recovered", "count", "job_s", REC, NONE),
    m("recovery.records_discarded", "count", "job_s", REC, NONE),
    m("loadgen.offered", "count", "svc_failed_frac", SVC, "n/a"),
    m("loadgen.max_lag_ms", "ms", "validity of svc_*", SVC, "n/a"),
    m("loadgen.capacity_tx_s", "tx/s", "job_s", SVC, "n/a"),
    m("loadgen.lo_p50_ms", "ms", "svc_lo_p50_ms", SVC, "n/a"),
    m("loadgen.lo_p99_ms", "ms", "svc_lo_p99_ms", SVC, "n/a"),
    m("loadgen.hi_p50_ms", "ms", "svc_hi_p50_ms", SVC, "n/a"),
    m("loadgen.hi_p99_ms", "ms", "svc_hi_p99_ms", SVC, "n/a"),
    m("loadgen.hi_p999_ms", "ms", "svc_hi_p99_ms", SVC, "n/a"),
    m("loadgen.failed_frac", "ratio", "svc_failed_frac", SVC, "n/a"),
    m("trace.spans", "count", "n/a", "all", "n/a"),
    m("trace.overhead_frac", "ratio", "n/a", "all", "n/a"),
];

pub fn lookup(name: &str) -> Option<&'static LayerMetric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Per-layer values a workload measured. Names outside [`PER_LAYER`] are
/// a bug in the benchmark and panic; a metric a workload does not reach
/// prints as 0.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The names this workload set.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    /// Every per-layer metric, in table order, with its unit.
    pub fn all(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.0.get(m.name).copied().unwrap_or(0.0), m.unit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn benchmark_json_section(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("field present");
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("string value") + 1;
                    let close = rest[open..].find('"').expect("closed string") + open;
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[i + 1..].iter().all(|b| b.name != a.name),
                "{} twice",
                a.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_per_layer_metrics() {
        let listed = benchmark_json_section("per_layer");
        let table: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn readme_prediction_table_covers_every_metric() {
        let readme = include_str!("../README.md");
        for m in PER_LAYER {
            let row = format!(
                "| `{}` | {} | {} | {} | {} |",
                m.name, m.unit, m.moves, m.on, m.elsewhere
            );
            assert!(readme.contains(&row), "README is missing the row\n{row}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown per-layer metric")]
    fn unknown_names_are_refused() {
        Metrics::default().set("sim.typo", 1.0);
    }
}
