//! Series inventory: every named obs series the `crates/*/src` sources
//! create must be listed in [`inbox_testkit::sites::SERIES`], every listed
//! series must still be created, and every listed consumer must really read
//! the series by name.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use inbox_testkit::sites::{self, Consumer};

/// Calls that create (or write) a named series; the name is the first
/// argument.
const CREATING_CALLS: &[&str] = &[
    "counter",
    "rate_counter",
    "record_value",
    "record_duration",
    "span",
    "time",
    "alloc_scope",
    "slo",
    "set_drift_stat",
    "ObsMutex::new",
    "ObsRwLock::new",
];

/// Calls that read a series back by name.
const READING_CALLS: &[&str] = &[
    "counter_value",
    "find_series",
    "value_snapshot",
    "span_snapshot",
    "in_window",
    "value_buckets",
];

/// Run-summary series must come from the trainer or the evaluator.
const TRAINER_EVAL_PREFIXES: &[&str] = &["box.", "eval.", "grad.", "sampler."];

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `crates/*/src` file.
fn source_files() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(workspace().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    files
}

/// The text above the file's `#[cfg(test)]`, without comment lines.
fn non_test_source(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let code = text.split("#[cfg(test)]").next().unwrap_or_default();
    code.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// `const NAME: &str = "value";` definitions.
fn string_consts(code: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for line in code.lines() {
        let Some(rest) = line.trim_start().split("const ").nth(1) else {
            continue;
        };
        let Some((ident, value)) = rest.split_once(": &str = \"") else {
            continue;
        };
        if let Some((value, _)) = value.split_once('"') {
            out.insert(ident.trim().to_string(), value.to_string());
        }
    }
    out
}

/// The first argument of every `call(` in `code` (a free call: not a
/// method, not a longer identifier, not the definition), as the string
/// literal or the `const` it names. `None` marks an argument that is
/// neither.
fn call_arguments(code: &str, call: &str) -> Vec<Option<String>> {
    let consts = string_consts(code);
    let needle = format!("{call}(");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find(&needle) {
        let start = from + at;
        from = start + needle.len();
        let before = code[..start].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.')
            || code[..start].ends_with("fn ")
        {
            continue;
        }
        let arg = code[from..].trim_start();
        if let Some(literal) = arg.strip_prefix('"') {
            out.push(Some(literal[..literal.find('"').unwrap()].to_string()));
        } else {
            let ident: String = arg
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            out.push(consts.get(&ident).cloned());
        }
    }
    out
}

/// Every series name the `crates/*/src` sources create. The obs crate
/// itself forwards its callers' names through variables; anywhere else a
/// name must be a literal or a `const`, so the scan sees it.
fn created_series() -> BTreeSet<String> {
    let obs_src = workspace().join("crates/obs/src");
    let mut names = BTreeSet::new();
    for path in source_files() {
        let code = non_test_source(&path);
        for call in CREATING_CALLS {
            for arg in call_arguments(&code, call) {
                match arg {
                    Some(name) => {
                        names.insert(name);
                    }
                    None => assert!(
                        path.starts_with(&obs_src),
                        "{}: `{call}(…)` must name its series with a literal or a const",
                        path.display()
                    ),
                }
            }
        }
    }
    names
}

/// Both directions: a series nobody lists has no known consumer; a listed
/// series nobody creates is a stale row.
#[test]
fn series_inventory_matches_sources() {
    let listed: BTreeSet<String> = sites::SERIES.iter().map(|(n, _)| n.to_string()).collect();
    let created = created_series();
    assert_eq!(
        created,
        listed,
        "series created in crates/*/src must match sites::SERIES exactly\n  unlisted: {:?}\n  stale:    {:?}",
        created.difference(&listed).collect::<Vec<_>>(),
        listed.difference(&created).collect::<Vec<_>>()
    );
}

/// Each consumer claim holds in the consumer's own source: the dashboard,
/// servebench and the named test mention the series by name, an input is
/// read back by name, and the run summary documents it in README.
#[test]
fn every_listed_consumer_reads_its_series_by_name() {
    let root = workspace();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
    let dashboard = non_test_source(&root.join("crates/cli/src/commands.rs"));
    let servebench = read("servebench/src/main.rs");
    let readme = read("README.md");
    let mut test_files = Vec::new();
    for dir in ["tests", "crates/serve/tests", "crates/testkit/tests"] {
        rust_files(&root.join(dir), &mut test_files);
    }
    let tests: Vec<String> = test_files
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    let mut read_by_name = BTreeSet::new();
    for path in source_files() {
        let code = non_test_source(&path);
        for call in READING_CALLS {
            read_by_name.extend(call_arguments(&code, call).into_iter().flatten());
        }
    }

    for &(name, consumer) in sites::SERIES {
        let quoted = format!("\"{name}\"");
        match consumer {
            Consumer::Dashboard(column) => assert!(
                dashboard.contains(&quoted) && dashboard.contains(column),
                "{name}: the dashboard's `{column}` column does not read it"
            ),
            Consumer::Bench(field) => assert!(
                servebench.contains(&quoted) && servebench.contains(&format!("\"{field}\"")),
                "{name}: servebench's `{field}` does not read it"
            ),
            Consumer::Input(figure) => assert!(
                read_by_name.contains(name),
                "{name}: nothing reads it by name for {figure}"
            ),
            Consumer::Test(test) => assert!(
                tests
                    .iter()
                    .any(|t| t.contains(&format!("fn {test}(")) && t.contains(&quoted)),
                "{name}: no test `{test}` reads it"
            ),
            Consumer::RunSummary => {
                assert!(
                    TRAINER_EVAL_PREFIXES.iter().any(|p| name.starts_with(p)),
                    "{name}: only trainer and eval series may rest on the run summary"
                );
                assert!(
                    readme.contains(&format!("`{name}`")),
                    "{name}: README does not document it in the run summary"
                );
            }
        }
    }
}
