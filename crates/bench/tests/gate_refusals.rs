//! End-to-end refusal semantics of the `bench_gate` binary and of the
//! trajectory a bench binary appends to.
//!
//! The gate has three verdicts: ok (exit 0), regression (exit 1), and
//! *refusal* (exit 2) when the two trajectory points cannot be compared.
//! These tests pin the contract the CI jobs rely on: every committed report
//! gates against itself, entries from older trajectories that still carry
//! `parallel_wall_ns` keep gating on their sequential throughput, comparing
//! against a `-dirty` point warns on stderr without changing the verdict,
//! cross-policy and service-against-chaos comparisons are refused, and a
//! corrupt or mistyped trajectory is refused by name instead of being
//! replaced by an invented or an empty one.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn entry_json(git_rev: &str, parallel_wall: Option<u64>) -> String {
    let mut s = format!(
        "{{\"git_rev\": \"{git_rev}\", \"rustc\": \"rustc 1.95.0\", \
         \"host_cores\": 4, \"scale\": \"Tiny\", \"workers\": 2, \
         \"cells\": 49, \"total_cycles\": 1000000, \"seq_wall_ns\": 2000000000"
    );
    if let Some(wall) = parallel_wall {
        s.push_str(&format!(", \"parallel_wall_ns\": {wall}"));
    }
    s.push('}');
    s
}

fn report(entry: &str) -> String {
    format!("{{\n  \"history\": [\n    {entry}\n  ],\n  \"ok\": true\n}}\n")
}

fn run_gate(base: &str, head: &str, extra: &[&str]) -> Output {
    let files = [("base.json", base), ("head.json", head)];
    let dir = scratch(&format!("{:p}", base.as_ptr()), &files);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(dir.join("base.json"))
        .arg(dir.join("head.json"))
        .args(extra)
        .output()
        .expect("spawn bench_gate");
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn comparable_parallel_entries_still_pass() {
    // Legacy entries with a parallel point gate on sequential throughput,
    // in the default mode and against an entry without one.
    let base = report(&entry_json("aaaa11112222", Some(1_000_000_000)));
    let head = report(&entry_json("bbbb33334444", None));
    let out = run_gate(&base, &head, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn dirty_trajectory_point_warns_without_changing_the_verdict() {
    let base = report(&entry_json("aaaa11112222-dirty", Some(1_000_000_000)));
    let head = report(&entry_json("bbbb33334444", Some(1_000_000_000)));
    let out = run_gate(&base, &head, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("warning") && stderr.contains("aaaa11112222-dirty"),
        "a dirty comparison must warn and name the point: {stderr}"
    );

    // Clean comparisons stay silent on the dirty channel.
    let clean = run_gate(&head, &head, &[]);
    assert!(!String::from_utf8_lossy(&clean.stderr).contains("dirty"));
}

/// A committed report at the repository root.
fn committed(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"))
}

/// Runs `bin` on `args` with `env`, returning its exit code and stderr.
fn run(bin: &str, args: &[&Path], env: &[(&str, &Path)]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn gate(base: &Path, head: &Path) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_bench_gate"), &[base, head], &[])
}

/// Writes `files` into a fresh directory named after `tag`.
fn scratch(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptm-gate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
    dir
}

fn with_policy(entry: &str, policy: &str) -> String {
    format!(
        "{}, \"force_policy\": \"{policy}\"}}",
        entry.strip_suffix('}').unwrap()
    )
}

#[test]
fn committed_reports_gate_against_themselves() {
    for name in ["hotpath", "service", "service_chaos", "durable"] {
        let (code, stderr) = gate(&committed(name), &committed(name));
        assert_eq!(code, Some(0), "{name}: {stderr}");
    }
}

#[test]
fn cross_policy_and_service_against_chaos_are_refused() {
    let eager = report(&with_policy(&entry_json("aaaa11112222", None), "eager"));
    let group = report(&with_policy(&entry_json("bbbb33334444", None), "group4"));
    let chaos = report(&with_policy(&entry_json("bbbb33334444", None), "mixed"));
    let plain = report(&entry_json("aaaa11112222", None));
    for (base, head, shown) in [(&eager, &group, "\"group4\""), (&plain, &chaos, "none")] {
        let out = run_gate(base, head, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(
            stderr.contains("force_policy") && stderr.contains(shown),
            "{stderr}"
        );
    }
    assert_eq!(run_gate(&eager, &eager, &[]).status.code(), Some(0));
    let (code, stderr) = gate(&committed("service"), &committed("service_chaos"));
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn corrupt_or_missing_base_point_is_refused_not_invented() {
    // Corrupt the last history entry of the committed hotpath report.
    let text = std::fs::read_to_string(committed("hotpath")).unwrap();
    let history = &text[..text.find("\n  ],").unwrap()];
    let at = history.rfind("\"seq_wall_ns\": ").unwrap() + "\"seq_wall_ns\": ".len();
    let end = at + text[at..].find(',').unwrap();
    let corrupt = format!("{}\"garbage\"{}", &text[..at], &text[end..]);
    let entries = history.lines().filter(|l| l.starts_with("    {")).count();
    let last = format!("history entry {entries} of {entries}: seq_wall_ns");
    // A report without a trajectory has no base point to offer.
    let bare = "{\"scale\": \"Tiny\", \"totals\": {\"seq_wall_ns\": 700}}";
    let dir = scratch(
        "corrupt",
        &[("corrupt.json", &corrupt), ("bare.json", bare)],
    );
    for (file, needle) in [("corrupt.json", last.as_str()), ("bare.json", "history")] {
        let (code, stderr) = gate(&dir.join(file), &committed("hotpath"));
        assert_eq!(code, Some(2), "{stderr}");
        assert!(stderr.contains(file) && stderr.contains(needle), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mistyped_or_corrupt_prior_history_is_refused() {
    let original = std::fs::read_to_string(committed("service")).unwrap();
    let bad = report("{\"git_rev\": \"aaaa11112222\"}");
    let dir = scratch(
        "prior",
        &[("service.json", &original), ("bad_prior.json", &bad)],
    );
    let out = dir.join("service.json");
    for prior in [dir.join("no_such_history.json"), dir.join("bad_prior.json")] {
        let env = [
            ("PTM_SCALE", Path::new("tiny")),
            ("PTM_BENCH_ALLOW_DIRTY", Path::new("1")),
            ("PTM_BENCH_HISTORY", &prior),
            ("PTM_BENCH_OUT", &out),
        ];
        let (code, stderr) = run(env!("CARGO_BIN_EXE_service"), &[], &env);
        assert_eq!(code, Some(2), "{stderr}");
        let name = prior.file_name().unwrap().to_string_lossy();
        assert!(stderr.contains(&*name), "must name {name}: {stderr}");
        let kept = std::fs::read_to_string(&out).unwrap();
        assert_eq!(
            kept, original,
            "a refused run must not rewrite the trajectory"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
