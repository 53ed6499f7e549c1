//! The perf-regression ledger CLI: record benchmark reports into
//! `BENCH_LEDGER.jsonl` and diff fresh reports against the recorded
//! baseline.
//!
//! ```text
//! cargo run --release -p inbox-bench --bin bench -- history [--note "full run"]
//! cargo run --release -p inbox-bench --bin bench -- compare [--threshold 3] [--strict]
//! ```
//!
//! `history` flattens every numeric leaf of the known `BENCH_*.json`
//! reports (see `--file` to add more) and appends one JSONL entry per
//! report, stamped with the current git revision. `compare` diffs the
//! working-tree reports against each benchmark's **latest** ledger entry,
//! direction-aware: throughput-like metrics regress when they drop,
//! latency-like metrics when they rise, everything else is informational.
//! `compare` always exits 0 unless `--strict` is passed — the CI job that
//! runs it is advisory, not a gate. `compare --json` renders the same
//! verdicts as one machine-readable JSON document on stdout (for dashboards
//! and scripted gates) instead of the human table.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use inbox_bench::ledger::{self, Comparison, Direction, LedgerEntry};

/// Reports the ledger tracks by default, as `(bench name, file name)`.
/// Serving is measured by the separate `servebench/` crate.
const DEFAULT_REPORTS: &[(&str, &str)] = &[("throughput", "BENCH_throughput.json")];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn git_rev(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(bench name, flattened metrics)` for every report file that exists.
fn load_reports(root: &Path, extra: &[String]) -> Vec<(String, BTreeMap<String, f64>)> {
    let mut files: Vec<(String, PathBuf)> = DEFAULT_REPORTS
        .iter()
        .map(|(bench, file)| (bench.to_string(), root.join(file)))
        .collect();
    for file in extra {
        let path = PathBuf::from(file);
        let bench = path
            .file_stem()
            .map(|s| s.to_string_lossy().trim_start_matches("BENCH_").to_string())
            .unwrap_or_else(|| file.clone());
        files.push((bench, path));
    }
    let mut out = Vec::new();
    for (bench, path) in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("bench: skipping {} (not readable)", path.display());
            continue;
        };
        match ledger::parse(&text) {
            Ok(json) => out.push((bench, ledger::flatten(&json))),
            Err(e) => eprintln!("bench: skipping {}: {e}", path.display()),
        }
    }
    out
}

fn history(args: &[String]) {
    let root = repo_root();
    let note = flag_value(args, "--note").unwrap_or_default();
    let ledger_path = flag_value(args, "--ledger")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("BENCH_LEDGER.jsonl"));
    let extra = flag_values(args, "--file");
    let reports = load_reports(&root, &extra);
    if reports.is_empty() {
        eprintln!("bench history: no reports found — run the benchmarks first");
        std::process::exit(1);
    }
    let rev = git_rev(&root);
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut lines = String::new();
    for (bench, metrics) in &reports {
        let entry = LedgerEntry {
            rev: rev.clone(),
            bench: bench.clone(),
            unix_secs,
            note: note.clone(),
            metrics: metrics.clone(),
        };
        lines.push_str(&ledger::format_entry(&entry));
        lines.push('\n');
        println!("recorded {bench}: {} metrics at rev {rev}", metrics.len());
    }
    let mut existing = std::fs::read_to_string(&ledger_path).unwrap_or_default();
    existing.push_str(&lines);
    std::fs::write(&ledger_path, existing).expect("append to ledger");
    println!("[written {}]", ledger_path.display());
}

/// The latest ledger entry per bench name.
fn baselines(ledger_path: &Path) -> BTreeMap<String, LedgerEntry> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(ledger_path) else {
        return out;
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match ledger::parse_entry(line) {
            Ok(entry) => {
                out.insert(entry.bench.clone(), entry);
            }
            Err(e) => eprintln!("bench: ledger line {}: {e}", lineno + 1),
        }
    }
    out
}

fn print_row(row: &Comparison) {
    let arrow = match row.direction {
        Direction::HigherBetter => "↑",
        Direction::LowerBetter => "↓",
        Direction::Informational => " ",
    };
    let flag = if row.regressed { "  << REGRESSION" } else { "" };
    println!(
        "  {arrow} {:<44} {:>14.4} -> {:>14.4}  {:>+8.2}%{flag}",
        row.metric, row.baseline, row.current, row.delta_pct
    );
}

/// Renders one comparison row as a JSON object (for `compare --json`).
fn json_row(row: &Comparison) -> String {
    let direction = match row.direction {
        Direction::HigherBetter => "higher_better",
        Direction::LowerBetter => "lower_better",
        Direction::Informational => "informational",
    };
    format!(
        "{{\"metric\":\"{}\",\"baseline\":{},\"current\":{},\"delta_pct\":{},\"direction\":\"{}\",\"regressed\":{}}}",
        row.metric, row.baseline, row.current, row.delta_pct, direction, row.regressed
    )
}

fn compare(args: &[String]) {
    let root = repo_root();
    let threshold: f64 = flag_value(args, "--threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    let strict = args.iter().any(|a| a == "--strict");
    let verbose = args.iter().any(|a| a == "--verbose");
    let json = args.iter().any(|a| a == "--json");
    let ledger_path = flag_value(args, "--ledger")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("BENCH_LEDGER.jsonl"));
    let extra = flag_values(args, "--file");

    let baselines = baselines(&ledger_path);
    if baselines.is_empty() {
        eprintln!(
            "bench compare: no baseline in {} — run `bench history` first",
            ledger_path.display()
        );
        std::process::exit(if strict { 1 } else { 0 });
    }
    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut json_benches: Vec<String> = Vec::new();
    for (bench, current) in load_reports(&root, &extra) {
        let Some(base) = baselines.get(&bench) else {
            if !json {
                println!("{bench}: no ledger baseline, skipping");
            }
            continue;
        };
        let rows = ledger::compare(&base.metrics, &current, threshold);
        let flagged: Vec<&Comparison> = rows.iter().filter(|r| r.regressed).collect();
        compared += rows.len();
        regressions += flagged.len();
        if json {
            // --json keeps every row: the consumer filters, not us.
            let rendered: Vec<String> = rows.iter().map(json_row).collect();
            json_benches.push(format!(
                "{{\"bench\":\"{bench}\",\"baseline_rev\":\"{}\",\"regressions\":{},\"rows\":[{}]}}",
                base.rev,
                flagged.len(),
                rendered.join(",")
            ));
            continue;
        }
        println!(
            "{bench}: {} metrics vs rev {} ({} regression(s) beyond ±{threshold}%)",
            rows.len(),
            base.rev,
            flagged.len()
        );
        for row in &rows {
            if row.regressed || verbose {
                print_row(row);
            }
        }
    }
    if json {
        println!(
            "{{\"threshold_pct\":{threshold},\"compared\":{compared},\"regressions\":{regressions},\"strict\":{strict},\"benches\":[{}]}}",
            json_benches.join(",")
        );
    } else {
        println!(
            "compare: {compared} metrics checked, {regressions} regression(s) beyond ±{threshold}%{}",
            if strict { "" } else { " (informational)" }
        );
    }
    if strict && regressions > 0 {
        std::process::exit(1);
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            if let Some(v) = it.next() {
                out.push(v.clone());
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("history") => history(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => {
            eprintln!(
                "usage: bench <history|compare> [--ledger FILE] [--file BENCH_x.json]...\n\
                 \x20 history: --note TEXT\n\
                 \x20 compare: --threshold PCT (default 3) --strict --verbose --json"
            );
            std::process::exit(2);
        }
    }
}
