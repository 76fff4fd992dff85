//! The repository's benchmark: three workloads, each checked for correct
//! output, each reporting its end-to-end metrics (untraced run) or its
//! per-layer metrics (traced run). See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 7 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod layers;
mod probe;
mod recovery;
mod service;
mod stats;
mod sweep;
mod trace;

use layers::Metrics;
use probe::{Probe, Timed};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_sweep|service_zipf|recovery> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-golden > perfbench/golden/paper_sweep_small.txt";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one workload run produced.
pub struct Report {
    pub setup_s: f64,
    /// Scaled time of the workload's job (see README.md and [`probe`]).
    pub job_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness and shape failures; any one fails the run.
    pub failures: Vec<String>,
    /// Named values printed for people, before the JSON line.
    pub lines: Vec<(&'static str, f64, &'static str)>,
    pub layers: Metrics,
    pub trace: Option<Tracer>,
}

impl Report {
    pub fn new(setup_s: f64) -> Self {
        Report {
            setup_s,
            job_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            lines: Vec::new(),
            layers: Metrics::default(),
            trace: None,
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Records failed operations, one message each.
    pub fn absorb_failures(&mut self, failures: &[String]) {
        self.failed += failures.len() as u64;
        self.failures.extend_from_slice(failures);
    }

    pub fn line(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.lines.push((name, value, unit));
    }
}

/// How many times a run sets its workload up; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Runs `f` [`SETUP_REPS`] times and returns the last result with the
/// median scaled duration (see [`probe`]).
pub fn timed_setup<T>(probe: &mut Probe, mut f: impl FnMut(&mut Probe) -> T) -> (T, f64) {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut out = None;
    for _ in 0..SETUP_REPS {
        let probe_s = probe.time();
        let t = Instant::now();
        out = Some(f(probe));
        let wall_s = t.elapsed().as_secs_f64();
        reps.push(vec![Timed { wall_s, probe_s }]);
    }
    (out.expect("SETUP_REPS > 0"), probe::job_s(&reps))
}

/// Peak resident memory of this process, in MiB, less the probe's
/// buffer.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok((kb * 1024.0 - probe::PROBE_BYTES as f64) / f64::from(1 << 20))
}

fn json_metrics(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { f64::MAX };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(opts: &Opts) -> Result<Report, String> {
    match opts.workload.as_str() {
        "paper_sweep" => sweep::run_workload(opts, ptm_workloads::Scale::Small),
        "service_zipf" => service::run_workload(opts, &service::Size::FULL),
        "recovery" => recovery::run_workload(opts, &recovery::Size::FULL),
        w => Err(format!("unknown workload {w}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--write-golden") {
        sweep::write_golden();
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            // An invalid run records no result.
            eprintln!("perfbench: invalid run: {e}");
            return ExitCode::from(3);
        }
    };
    let rss = match peak_rss_mb() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    for (name, value, unit) in &report.lines {
        println!("# {} {name} = {value} {unit}", opts.workload);
    }
    if opts.trace {
        for m in layers::PER_LAYER {
            let value = report.layers.get(m.name).unwrap_or(0.0);
            println!(
                "# {} {} = {value} {} (should move {} on {}; elsewhere: {})",
                opts.workload, m.name, m.unit, m.moves, m.on, m.elsewhere
            );
        }
    }
    for f in &report.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let metrics: Vec<(&str, f64, &str)> = if opts.trace {
        report.layers.all().collect()
    } else {
        vec![
            ("setup_s", report.setup_s, "s"),
            ("peak_rss_mb", rss, "MiB"),
            ("job_s", report.job_s, "s"),
        ]
    };
    if let Some(tracer) = &report.trace {
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("trace-{}.jsonl", opts.workload));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_are_checked() {
        let o = parse_args(&args("--workload recovery --seed 3 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("recovery", 3, 10.0, true)
        );
        assert!(parse_args(&args("--workload recovery --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
    }

    /// Small traced runs of all three workloads set only metrics from
    /// the prediction table, and between them set every one.
    #[test]
    fn traced_runs_print_exactly_the_table() {
        let opts = |workload: &str| Opts {
            workload: workload.into(),
            seed: sweep::GOLDEN_SEED,
            seconds: 0.5,
            trace: true,
        };
        let sweep = sweep::run_workload(&opts("paper_sweep"), ptm_workloads::Scale::Tiny);
        let service = service::run_workload(
            &opts("service_zipf"),
            &service::Size {
                capacity_txs: 3_000,
                min_passes: 1,
                warmup_txs: 500,
                lo: 4_000.0,
                hi: 8_000.0,
                engine_share: 0.3,
                closed_share: 0.2,
                open_share: 0.25,
                pipeline_txs: 1_000,
            },
        );
        let recovery = recovery::run_workload(
            &opts("recovery"),
            &recovery::Size {
                stream_txs: 3_000,
                tail_txs: 10,
                cut_after: 50,
                min_calls: 1,
            },
        );
        let mut seen = std::collections::BTreeSet::new();
        for r in [sweep, service, recovery] {
            let r = r.expect("a valid run");
            assert!(r.trace.is_some(), "a traced run keeps its spans");
            seen.extend(r.layers.names());
        }
        let table: std::collections::BTreeSet<&str> =
            layers::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(seen, table);
    }

    #[test]
    fn metrics_print_as_json_numbers() {
        let j = json_metrics(&[("job_s", 1.5, "s"), ("n", 3.0, "count")]);
        assert_eq!(
            j,
            "{\"job_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"n\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}
