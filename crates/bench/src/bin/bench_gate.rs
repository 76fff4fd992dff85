//! The bench-history regression gate.
//!
//! Compares the *last* history entries of two benchmark reports — typically
//! base and head builds run on the same CI machine — and exits non-zero when
//! head regressed by more than the allowed fraction.
//!
//! ```text
//! bench_gate <base.json> <head.json> [--max-regression 0.10]
//! ```
//!
//! Every trajectory (`BENCH_hotpath.json`, `BENCH_service.json`,
//! `BENCH_service_chaos.json`, `BENCH_durable.json`) gates the same metric,
//! simulated cycles per wall second, under one comparability rule: the two
//! points must agree on scale, cell count, host width, worker (shard) count
//! and force policy. Anything else is refused with exit 2 rather than
//! passed, because a ratio between different work or different machines is
//! noise, not a verdict. A report that cannot be read, or whose last
//! history entry is missing or malformed, is refused the same way.

use ptm_bench::report::{last_point, throughput, throughput_ratio};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (files, fraction) = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [base, head] => ([base, head], "0.10"),
        [base, head, "--max-regression", f] => ([base, head], f),
        _ => die("usage: bench_gate <base.json> <head.json> [--max-regression 0.10]"),
    };
    let max_regression: f64 = fraction
        .parse()
        .unwrap_or_else(|_| die("--max-regression needs a fraction, e.g. 0.10"));

    let base = last_point(files[0]).unwrap_or_else(|e| die(&e));
    let head = last_point(files[1]).unwrap_or_else(|e| die(&e));

    // A `-dirty` point was measured on a tree that no longer exists; the
    // comparison still runs (the wall-clocks are real), but its verdict
    // cannot be reproduced, so say so.
    let (base_rev, head_rev) = (base.text("git_rev"), head.text("git_rev"));
    for (file, rev) in [(files[0], base_rev), (files[1], head_rev)] {
        let rev = rev.unwrap_or_default();
        if rev.ends_with("-dirty") {
            eprintln!(
                "bench_gate: warning - {file} trajectory point {rev} was measured \
                 on a dirty working tree and cannot be rebuilt for comparison"
            );
        }
    }

    let ratio = throughput_ratio(&base, &head).unwrap_or_else(|e| die(&e));
    let floor = 1.0 - max_regression;
    println!(
        "bench_gate: base {} @ {} cyc/s, head {} @ {} cyc/s -> ratio {ratio:.3} (floor {floor:.3})",
        base_rev.unwrap_or_default(),
        throughput(&base),
        head_rev.unwrap_or_default(),
        throughput(&head),
    );
    if ratio < floor {
        eprintln!(
            "bench_gate: FAIL - throughput regressed {:.1}% (> {:.1}% allowed)",
            (1.0 - ratio) * 100.0,
            max_regression * 100.0
        );
        std::process::exit(1);
    }
    println!("bench_gate: ok");
}

fn die(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2);
}
