//! One report type for every `BENCH_*.json`, one renderer, one gate rule.
//!
//! A [`Report`] is provenance, the bin's configuration and named result
//! sections, all made of [`Row`]s that bins build from their typed results
//! with [`row!`](crate::row); a [`Trajectory`] is a report that also appends
//! one point to a performance history. Column totals come from
//! [`column_totals`]. Both lay every report out the same way.
//!
//! Reports are read back for the prior trajectory a run appends to and for
//! both sides of `bench_gate`. A file that cannot be read, is not JSON, or
//! holds a malformed history entry is an error naming the file and the
//! entry: a trajectory is never silently shortened, and the gate never
//! invents a base point.

use crate::meta;
use ptm_workloads::Scale;
use std::path::Path;

/// The string and the unsigned-integer fields every history entry carries.
/// Entries also hold `throughput_cycles_per_s` and, for journaled sweeps,
/// a string `force_policy`.
const ENTRY_TEXT: [&str; 3] = ["git_rev", "rustc", "scale"];
const ENTRY_INTS: [&str; 5] = [
    "host_cores",
    "workers",
    "cells",
    "total_cycles",
    "seq_wall_ns",
];

/// The keys on which two trajectory points must agree before the gate
/// compares their throughput. Scale, cells, host width and workers (a
/// service sweep's shard count) change the work or the machine; the force
/// policy is the commit-latency trade-off itself, so a cross-policy ratio
/// would gate a configuration change as if it were a regression.
const COMPARABLE: [&str; 5] = ["scale", "cells", "host_cores", "workers", "force_policy"];

/// A JSON value. A number keeps its text: a bin fixes a float's precision
/// once ([`fixed`]), and a prior entry re-renders unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A number, `true` or `false`, as written.
    Lit(String),
    /// An array.
    List(Vec<Value>),
    /// An object.
    Obj(Row),
}

/// A JSON object whose keys keep their insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(pub Vec<(String, Value)>);

/// Builds a [`Row`] of `"key": value` pairs, each value converted with
/// `Value::from`. A leading `x => a, b;` first takes fields `a` and `b` of
/// `x` under their own names, like struct shorthand.
#[macro_export]
macro_rules! row {
    ($($from:ident => $($field:ident),+ $(;)?)? $($key:literal: $value:expr),* $(,)?) => {
        $crate::report::Row(vec![
            $($((stringify!($field).to_string(), $crate::report::Value::from($from.$field)),)+)?
            $(($key.to_string(), $crate::report::Value::from($value))),*
        ])
    };
}

macro_rules! value_from {
    ($($t:ty => $v:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                $v(x)
            }
        }
    )*};
}
value_from! {
    u8 => |n: u8| Value::Lit(n.to_string()),
    u32 => |n: u32| Value::Lit(n.to_string()),
    u64 => |n: u64| Value::Lit(n.to_string()),
    usize => |n: usize| Value::Lit(n.to_string()),
    bool => |b: bool| Value::Lit(b.to_string()),
    &str => |s: &str| Value::Str(s.to_string()),
    String => Value::Str,
    Row => Value::Obj,
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::List(items.into_iter().map(Into::into).collect())
    }
}

/// `x` with `digits` decimals.
pub fn fixed(x: f64, digits: usize) -> Value {
    Value::Lit(format!("{x:.digits$}"))
}

impl Row {
    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string under `key`.
    pub fn text(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The unsigned integer under `key`.
    pub fn int(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::Lit(n)) => n.parse().ok(),
            _ => None,
        }
    }

    /// Appends every field of `other`.
    pub fn extend(&mut self, other: Row) {
        self.0.extend(other.0);
    }
}

fn column<'a>(rows: &'a [Row], key: &'a str) -> impl Iterator<Item = u64> + 'a {
    let int = move |r: &Row| r.int(key).unwrap_or_else(|| panic!("no integer {key}"));
    rows.iter().map(int)
}

/// The sum of an integer column.
pub fn sum(rows: &[Row], key: &str) -> u64 {
    column(rows, key).sum()
}

/// A totals row over `rows` for the whitespace-separated `columns`: each
/// column's maximum if it is named `worst_*` or `max_*`, else its sum.
pub fn column_totals(rows: &[Row], columns: &str) -> Row {
    let total = |key: &str| match key.starts_with("worst_") || key.starts_with("max_") {
        true => column(rows, key).max().unwrap_or(0),
        false => sum(rows, key),
    };
    Row(columns
        .split_whitespace()
        .map(|k| (k.to_string(), total(k).into()))
        .collect())
}

impl Value {
    /// The value as JSON, laid out by one rule: a list or object that holds
    /// no list or object goes on one line; any other puts each element or
    /// field on a line of its own.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, 0);
        s
    }

    fn render(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Str(s) => return quote(out, s),
            Value::Lit(n) => return out.push_str(n),
            Value::List(v) => ('[', ']', v.iter().map(|x| (None, x)).collect()),
            Value::Obj(r) => ('{', '}', r.0.iter().map(|(k, v)| (Some(&**k), v)).collect()),
        };
        let inline = items
            .iter()
            .all(|(_, v)| matches!(v, Value::Str(_) | Value::Lit(_)));
        let (comma, newline) = match inline {
            true => (", ", String::new()),
            false => (",", format!("\n{}", "  ".repeat(depth))),
        };
        out.push(open);
        for (i, (key, v)) in items.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { comma });
            out.push_str(&newline);
            out.push_str(if inline { "" } else { "  " });
            if let Some(k) = key {
                quote(out, k);
                out.push_str(": ");
            }
            v.render(out, depth + 1);
        }
        if !items.is_empty() {
            out.push_str(&newline);
        }
        out.push(close);
    }
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses JSON text (except `null`, which no report writes).
fn parse(text: &str) -> Result<Value, String> {
    let mut rest = text;
    let v = value(&mut rest)?;
    match rest.trim_start() {
        "" => Ok(v),
        tail => Err(unexpected(tail)),
    }
}

fn unexpected(at: &str) -> String {
    match at.chars().next() {
        None => "unexpected end of text".into(),
        Some(_) => format!("unexpected {:?}", at.chars().take(24).collect::<String>()),
    }
}

fn value(s: &mut &str) -> Result<Value, String> {
    *s = s.trim_start();
    if let Some(close) = [('{', '}'), ('[', ']')]
        .into_iter()
        .find(|(o, _)| s.starts_with(*o))
    {
        let object = close.0 == '{';
        *s = &s[1..];
        let mut items = Vec::new();
        loop {
            *s = s.trim_start();
            if let Some(rest) = s.strip_prefix(close.1) {
                *s = rest;
                break;
            }
            if !items.is_empty() {
                *s = s.strip_prefix(',').ok_or_else(|| unexpected(s))?;
            }
            let key = if object { string(s)? } else { String::new() };
            if object {
                *s = s
                    .trim_start()
                    .strip_prefix(':')
                    .ok_or_else(|| unexpected(s))?;
            }
            items.push((key, value(s)?));
        }
        return Ok(match object {
            true => Value::Obj(Row(items)),
            false => Value::List(items.into_iter().map(|(_, v)| v).collect()),
        });
    }
    if s.starts_with('"') {
        return string(s).map(Value::Str);
    }
    let len = s
        .find(|c: char| !c.is_ascii_alphanumeric() && !"+-.".contains(c))
        .unwrap_or(s.len());
    let number = |t: &str| {
        t.trim_start_matches('-')
            .starts_with(|c: char| c.is_ascii_digit())
    };
    let v = match &s[..len] {
        t @ ("true" | "false") => Value::Lit(t.to_string()),
        t if number(t) && t.parse::<f64>().is_ok() => Value::Lit(t.to_string()),
        _ => return Err(unexpected(s)),
    };
    *s = &s[len..];
    Ok(v)
}

fn string(s: &mut &str) -> Result<String, String> {
    *s = s.trim_start();
    let body = s.strip_prefix('"').ok_or_else(|| unexpected(s))?;
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *s = &body[i + 1..];
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, c @ ('"' | '\\' | '/'))) => out.push(c),
                _ => return Err(unexpected(&body[i..])),
            },
            c => out.push(c),
        }
    }
    Err(unexpected(""))
}

/// Checks that a history element carries every entry field with its type.
fn check_entry(entry: &Value) -> Result<&Row, String> {
    let Value::Obj(row) = entry else {
        return Err(format!("not an object: {}", entry.to_json()));
    };
    let wrong = |key: &str, want: &str| {
        let got = row.get(key).map_or("nothing".into(), Value::to_json);
        format!("{key}: expected {want}, got {got}")
    };
    let policy = row.get("force_policy").map(|_| "force_policy");
    for key in ENTRY_TEXT.into_iter().chain(policy) {
        row.text(key).ok_or_else(|| wrong(key, "a string"))?;
    }
    for key in ENTRY_INTS {
        row.int(key)
            .ok_or_else(|| wrong(key, "an unsigned integer"))?;
    }
    Ok(row)
}

/// Cycle-loop throughput of a checked entry: simulated cycles advanced per
/// wall second.
pub fn throughput(entry: &Row) -> u64 {
    let cycles = u128::from(entry.int("total_cycles").unwrap_or(0));
    let wall = u128::from(entry.int("seq_wall_ns").unwrap_or(0).max(1));
    (cycles * 1_000_000_000 / wall) as u64
}

/// `Ok(head / base)` throughput when the two points agree on `scale`,
/// `cells`, `host_cores`, `workers` and `force_policy`, else an error
/// naming each disagreement.
pub fn throughput_ratio(base: &Row, head: &Row) -> Result<f64, String> {
    let shown = |r: &Row, key: &str| r.get(key).map_or("none".into(), Value::to_json);
    let diffs: Vec<String> = COMPARABLE
        .iter()
        .filter(|k| base.get(k) != head.get(k))
        .map(|k| format!("{k} {} vs {}", shown(base, k), shown(head, k)))
        .collect();
    match diffs.is_empty() {
        true => Ok(throughput(head) as f64 / throughput(base).max(1) as f64),
        false => Err(format!("incomparable runs: {}", diffs.join(", "))),
    }
}

/// The `"history"` entries of the report at `path`, each checked.
fn load_history(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: not JSON: {e}"))?;
    let history = match &doc {
        Value::Obj(top) => top.get("history"),
        _ => None,
    };
    let Some(Value::List(entries)) = history else {
        return Err(format!("{path}: no \"history\" array"));
    };
    for (i, e) in entries.iter().enumerate() {
        let n = entries.len();
        check_entry(e).map_err(|err| format!("{path}: history entry {} of {n}: {err}", i + 1))?;
    }
    Ok(entries.clone())
}

/// The last trajectory point of the report at `path`.
pub fn last_point(path: &str) -> Result<Row, String> {
    match load_history(path)?.pop() {
        Some(Value::Obj(row)) => Ok(row),
        _ => Err(format!("{path}: the history is empty")),
    }
}

/// Refuses a point that can never be rebuilt for comparison: a `-dirty`
/// revision has no checkout to re-measure, unless `allow_dirty`.
fn check_appendable(git_rev: &str, allow_dirty: bool) -> Result<(), String> {
    match git_rev.ends_with("-dirty") && !allow_dirty {
        true => Err(format!(
            "refusing to append history entry for {git_rev}: the working tree has \
             uncommitted changes, so this point can never be rebuilt for comparison - \
             commit first, or set PTM_BENCH_ALLOW_DIRTY=1 to record it anyway"
        )),
        false => Ok(()),
    }
}

/// A benchmark report on its way to `PTM_BENCH_OUT` (default
/// `BENCH_<name>.json`): provenance, the bin's configuration, then the
/// result sections [`Report::emit`] is given.
#[derive(Debug)]
pub struct Report {
    /// `git_rev`, `rustc`, `host_cores` and `scale`: the fields every
    /// history entry starts with.
    provenance: Row,
    /// The bin's configuration.
    config: Row,
    name: &'static str,
    out: String,
}

/// A [`Report`] that appends one point to a performance trajectory, which
/// it writes between the configuration and the result sections.
#[derive(Debug)]
pub struct Trajectory {
    report: Report,
    history: Vec<Value>,
}

impl Report {
    /// A report without a trajectory.
    pub fn new(name: &'static str, scale: Scale) -> Report {
        Report {
            provenance: row! {
                "git_rev": meta::git_rev(),
                "rustc": meta::rustc_version(),
                "host_cores": meta::host_cores(),
                "scale": format!("{scale:?}"),
            },
            config: Row::default(),
            name,
            out: std::env::var("PTM_BENCH_OUT").unwrap_or_else(|_| format!("BENCH_{name}.json")),
        }
    }

    /// A report that appends to a trajectory. The prior loads before the
    /// run: `PTM_BENCH_HISTORY` names a report, or `none` for a fresh
    /// start; unset, it is the output file if that exists, else the
    /// committed report if that exists. An unreadable or malformed prior,
    /// or a `-dirty` tree without `PTM_BENCH_ALLOW_DIRTY=1`, exits 2.
    pub fn with_history(name: &'static str, scale: Scale) -> Trajectory {
        let report = Report::new(name, scale);
        let committed = format!("BENCH_{name}.json");
        let prior = match std::env::var("PTM_BENCH_HISTORY").as_deref() {
            Ok("none") => Ok(Vec::new()),
            Ok(path) => load_history(path),
            Err(_) => [report.out.as_str(), &committed]
                .into_iter()
                .find(|p| Path::new(p).exists())
                .map_or(Ok(Vec::new()), load_history),
        };
        let git_rev = report.provenance.text("git_rev").unwrap_or_default();
        let allow_dirty = std::env::var("PTM_BENCH_ALLOW_DIRTY").is_ok_and(|v| v == "1");
        match check_appendable(git_rev, allow_dirty).and(prior) {
            Ok(history) => Trajectory { report, history },
            Err(e) => {
                eprintln!("{name}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Appends the bin's configuration fields.
    pub fn meta(&mut self, fields: Row) {
        self.config.extend(fields);
    }

    /// Writes the report with `sections` after the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn emit(self, sections: Row) {
        self.write(None, sections);
    }

    fn write(self, history: Option<Vec<Value>>, sections: Row) {
        let mut top = self.provenance;
        top.extend(self.config);
        if let Some(history) = history {
            top.extend(row! { "history": history });
        }
        top.extend(sections);
        std::fs::write(&self.out, Value::Obj(top).to_json() + "\n")
            .unwrap_or_else(|e| panic!("{}: cannot write {}: {e}", self.name, self.out));
        eprintln!("{}: wrote {}", self.name, self.out);
    }
}

impl Trajectory {
    /// Appends the bin's configuration fields.
    pub fn meta(&mut self, fields: Row) {
        self.report.meta(fields);
    }

    /// Appends this run's point to the trajectory and writes the report.
    /// The entry is the provenance, `point` (the run's `workers`, `cells`,
    /// `total_cycles` and `seq_wall_ns`), its `throughput_cycles_per_s`,
    /// and the configuration's `force_policy` if it has one.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn emit(mut self, sections: Row, point: Row) {
        let mut entry = self.report.provenance.clone();
        entry.extend(point);
        let throughput = throughput(&entry);
        entry.extend(row! { "throughput_cycles_per_s": throughput });
        if let Some(policy) = self.report.config.get("force_policy") {
            entry.0.push(("force_policy".into(), policy.clone()));
        }
        self.history.push(Value::Obj(entry));
        self.report.write(Some(self.history), sections);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cycles: u64, wall: u64, edit: Row) -> Row {
        let mut row = row! {
            "git_rev": "abc123def456", "rustc": "rustc 1.95.0", "host_cores": 4u64,
            "scale": "Tiny", "workers": 1u64, "cells": 49u64,
            "total_cycles": cycles, "seq_wall_ns": wall,
        };
        row.0.retain(|(k, _)| edit.get(k).is_none());
        row.extend(edit);
        row
    }

    #[test]
    fn layout_round_trips() {
        struct Cell {
            a: u64,
            ok: bool,
        }
        let cell = Cell { a: 1, ok: true };
        let report = row! {
            "seeds": vec![0u64, 6],
            "curve": vec![vec![1u64, 2]],
            "cells": vec![row!(cell => a, ok)],
            "totals": row!(cell => a; "skew": fixed(0.6, 1)),
        };
        let expected =
            "{\n  \"seeds\": [0, 6],\n  \"curve\": [\n    [1, 2]\n  ],\n  \"cells\": [\n    \
            {\"a\": 1, \"ok\": true}\n  ],\n  \"totals\": {\"a\": 1, \"skew\": 0.6}\n}";
        assert_eq!(Value::Obj(report).to_json(), expected);
        assert_eq!(parse(expected).unwrap().to_json(), expected);
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": 1} x",
            "nul",
            "\"open",
            "[1,]",
            "inf",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn emit_appends_one_entry_and_keeps_the_prior_text() {
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
        let dir = std::env::temp_dir().join(format!("ptm-report-emit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (prior, out) = (dir.join("prior.json"), dir.join("out.json"));
        std::fs::copy(committed, &prior).unwrap();
        let old = load_history(prior.to_str().unwrap()).unwrap();
        assert!(
            old.len() >= 2,
            "the committed trajectory has several points"
        );
        let mut report = Report::new("emit-test", Scale::Tiny);
        report.out = out.to_str().unwrap().into();
        let mut run = Trajectory {
            report,
            history: old.clone(),
        };
        run.meta(row! { "force_policy": "eager" });
        let point = row! {
            "workers": 2usize, "cells": 9usize, "total_cycles": 3000u64, "seq_wall_ns": 1500u64,
        };
        run.emit(row! { "ok": true }, point);

        let written = std::fs::read_to_string(&out).unwrap();
        let history = load_history(out.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let original = std::fs::read_to_string(committed).unwrap();
        assert_eq!(history.len(), old.len() + 1);
        for (before, after) in old.iter().zip(&history) {
            let text = after.to_json();
            assert!(before == after && original.contains(&text) && written.contains(&text));
        }
        let Some(Value::Obj(entry)) = history.last() else {
            panic!("no new entry");
        };
        let keys: Vec<&str> = entry.0.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "git_rev",
                "rustc",
                "host_cores",
                "scale",
                "workers",
                "cells",
                "total_cycles",
                "seq_wall_ns",
                "throughput_cycles_per_s",
                "force_policy",
            ]
        );
        assert_eq!(entry.text("scale"), Some("Tiny"));
        assert_eq!(entry.int("throughput_cycles_per_s"), Some(2_000_000_000));
        assert_eq!(entry.text("force_policy"), Some("eager"));
        assert!(written.ends_with("  \"ok\": true\n}\n"), "{written}");
    }

    #[test]
    fn legacy_parallel_entry_keeps_its_text_and_gates_sequentially() {
        // The oldest committed service entry carries the last two fields.
        let legacy = "{\"git_rev\": \"abc123def456\", \"rustc\": \"rustc 1.95.0\", \
            \"host_cores\": 4, \"scale\": \"Tiny\", \"workers\": 1, \"cells\": 49, \
            \"total_cycles\": 1000000, \"seq_wall_ns\": 2000000000, \
            \"throughput_cycles_per_s\": 500000, \"parallel_wall_ns\": 1000000000, \"speedup\": 2.0000}";
        let value = parse(legacy).unwrap();
        assert_eq!(value.to_json(), legacy);
        let row = check_entry(&value).unwrap();
        assert_eq!(throughput(row), 500_000);
        assert_eq!(
            throughput_ratio(row, &entry(1_000_000, 2_000_000_000, row! {})),
            Ok(1.0)
        );
    }

    #[test]
    fn malformed_entries_and_columns() {
        let corrupt = entry(1, 1, row! { "seq_wall_ns": "garbage" });
        let err = check_entry(&Value::Obj(corrupt)).unwrap_err();
        assert!(
            err.contains("seq_wall_ns") && err.contains("garbage"),
            "{err}"
        );
        let policy = entry(1, 1, row! { "force_policy": 4u64 });
        assert!(check_entry(&Value::Obj(policy))
            .unwrap_err()
            .contains("force_policy"));
        let rows = [
            row! { "n": 2u64, "max_n": 2u64 },
            row! { "n": 5u64, "max_n": 5u64 },
        ];
        let totals = row! { "n": 7u64, "max_n": 5u64 };
        assert_eq!(column_totals(&rows, "n max_n"), totals);
    }

    #[test]
    fn ratio_detects_regressions_and_refuses_apples_to_oranges() {
        let old = entry(1_000_000, 1_000_000_000, row! {});
        let r = throughput_ratio(&old, &entry(850_000, 1_000_000_000, row! {})).unwrap();
        assert!((r - 0.85).abs() < 1e-9);
        let refusals = [
            row! { "scale": "Full" },
            row! { "cells": 12u64 },
            row! { "host_cores": 64u64 },
            // A service sweep records its shard count as workers.
            row! { "workers": 8u64 },
            row! { "force_policy": "eager" },
        ];
        for (edit, key) in refusals.into_iter().zip(COMPARABLE) {
            let err = throughput_ratio(&old, &entry(1_000_000, 1_000_000_000, edit)).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn ratio_refuses_cross_policy_and_durable_against_non_durable() {
        let point =
            |cycles, policy: &str| entry(cycles, 1_000_000_000, row! { "force_policy": policy });
        let eager = point(1_000_000, "eager");
        assert!((throughput_ratio(&eager, &point(900_000, "eager")).unwrap() - 0.9).abs() < 1e-9);
        let err = throughput_ratio(&eager, &point(900_000, "lazy")).unwrap_err();
        assert!(err.contains("eager") && err.contains("lazy"), "{err}");
        // A journaled chaos point never gates an unjournaled one, and a
        // durable point never gates a non-durable one.
        let plain = entry(900_000, 1_000_000_000, row! {});
        let err = throughput_ratio(&point(900_000, "mixed"), &plain).unwrap_err();
        assert!(err.contains("mixed") && err.contains("none"), "{err}");
        assert!(throughput_ratio(&plain, &eager).is_err());
    }

    #[test]
    fn dirty_entries_are_refused_unless_allowed() {
        let err = check_appendable("abc123def456-dirty", false).unwrap_err();
        assert!(
            err.contains("abc123def456-dirty") && err.contains("PTM_BENCH_ALLOW_DIRTY"),
            "refusal must name the entry and the override: {err}"
        );
        check_appendable("abc123def456-dirty", true).unwrap();
        check_appendable("abc123def456", false).unwrap();
    }
}
