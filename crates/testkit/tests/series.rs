//! Series inventory: every named obs series the `crates/*/src` sources
//! create, and every name the registry holds once a server has answered,
//! must be listed in [`inbox_testkit::sites::SERIES`]; every listed series
//! must still be created; and every listed consumer must really read the
//! series by name.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use inbox_serve::{HttpServer, IndexMode, ServeConfig, Service};
use inbox_testkit::harness;
use inbox_testkit::sites::{self, Consumer};

/// Calls that create (or write) a named series; the name is the first
/// argument.
const CREATING_CALLS: &[&str] = &[
    "counter",
    "rate_counter",
    "gauge",
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

/// Families of names the obs crate builds at run time from a created name
/// (a lock's, an SLO's) or a failpoint site; the source scan cannot see
/// them, the runtime check does.
const BUILT_AT_RUN_TIME: &[&str] = &["failpoint.", "lock.", "slo:"];

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
/// literal, the `const` it names, or the `format!` string that builds it
/// (`lock.{lock}.wait`). `None` marks an argument that is none of these.
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
        let arg = arg.strip_prefix("&format!(").unwrap_or(arg);
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

/// Whether the `format!` string `template` builds `name`, each `{…}`
/// standing for a string `spelled` accepts.
fn builds(template: &str, name: &str, spelled: &dyn Fn(&str) -> bool) -> bool {
    let Some((fixed, rest)) = template.split_once('{') else {
        return template == name;
    };
    let (Some(name), Some((_, tail))) = (name.strip_prefix(fixed), rest.split_once('}')) else {
        return false;
    };
    (1..=name.len())
        .filter(|&i| name.is_char_boundary(i))
        .any(|i| spelled(&name[..i]) && builds(tail, &name[i..], spelled))
}

/// Whether `code` reads `name` through a reading call: by its literal or
/// `const`, or by a `format!` string whose `{…}` parts are a row's `<…>`
/// placeholder, a listed name, or a string `code` quotes
/// (`span_snapshot(&format!("lock.{lock}.wait"))` beside `"engine.live"`).
fn read_by_call(code: &str, name: &str) -> bool {
    let spelled = |part: &str| {
        (part.starts_with('<') && part.ends_with('>'))
            || code.contains(&format!("\"{part}\""))
            || sites::SERIES.iter().any(|&(row, _)| row == part)
    };
    READING_CALLS.iter().any(|call| {
        call_arguments(code, call)
            .into_iter()
            .flatten()
            .any(|arg| builds(&arg, name, &spelled))
    })
}

/// Whether `code` picks `name` out of a listing by a quoted prefix and a
/// quoted suffix (`strip_prefix("lock.")` … `strip_suffix(".contended")`).
fn matches_family(code: &str, name: &str) -> bool {
    let quoted = |part: &str| code.contains(&format!("\"{part}\""));
    (1..name.len()).any(|i| {
        name.is_char_boundary(i)
            && quoted(&name[..i])
            && (i + 1..name.len()).any(|j| name.is_char_boundary(j) && quoted(&name[j..]))
    })
}

/// Both directions: a series nobody lists has no known consumer; a listed
/// series nobody creates is a stale row. Names built at run time are
/// checked against the running registry instead.
#[test]
fn series_inventory_matches_sources() {
    let listed: BTreeSet<String> = sites::SERIES
        .iter()
        .map(|(n, _)| n.to_string())
        .filter(|n| !BUILT_AT_RUN_TIME.iter().any(|f| n.starts_with(f)))
        .collect();
    let created = created_series();
    assert_eq!(
        created,
        listed,
        "series created in crates/*/src must match sites::SERIES exactly\n  unlisted: {:?}\n  stale:    {:?}",
        created.difference(&listed).collect::<Vec<_>>(),
        listed.difference(&created).collect::<Vec<_>>()
    );
}

/// One request over a fresh connection; the status line's code.
fn request(http: &HttpServer, method: &str, path: &str) -> u16 {
    let mut stream = TcpStream::connect(http.local_addr()).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply[9..12].parse().unwrap()
}

/// Every name the registry holds after full-sort and IVF serving (cache
/// misses and hits, an ingest, the audit worker) has a row in
/// `sites::SERIES`, whose consumer the test below checks; and every
/// run-time row but the failpoint ones was seen. Failpoint counters appear
/// only under the `failpoints` feature; the coverage suite arms every site
/// and checks their rows.
#[test]
fn every_runtime_series_is_listed() {
    inbox_obs::set_enabled(true);
    for index in [
        IndexMode::FullSort,
        IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        },
    ] {
        let cfg = ServeConfig {
            index,
            audit_sample: 1,
            ..ServeConfig::default()
        };
        let (_ds, _cfg, engine) = harness::engine(81, &cfg);
        let service = Arc::new(Service::start(engine, &cfg));
        let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        assert_eq!(request(&http, "GET", "/recommend?user=0&k=5"), 200);
        assert_eq!(request(&http, "GET", "/recommend?user=0&k=5"), 200);
        assert_eq!(request(&http, "POST", "/ingest?user=1&item=2"), 200);
        assert_eq!(request(&http, "GET", "/recommend?user=1&k=5"), 200);
        http.shutdown();
        service.shutdown();
    }
    let seen: BTreeSet<&str> = inbox_obs::series()
        .iter()
        .map(|s| s.name)
        .filter(|n| !n.starts_with("test.") && !n.starts_with("golden."))
        .collect();
    let unlisted: Vec<_> = seen
        .iter()
        .filter(|n| sites::consumer_of(n).is_none())
        .collect();
    assert!(
        unlisted.is_empty(),
        "series in the registry without a sites::SERIES row: {unlisted:?}"
    );
    let stale: Vec<_> = sites::SERIES
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| BUILT_AT_RUN_TIME.iter().any(|f| n.starts_with(f)) && !n.ends_with("<site>"))
        .filter(|n| !seen.contains(n))
        .collect();
    assert!(stale.is_empty(), "run-time rows never seen: {stale:?}");
}

/// Each consumer claim holds in the consumer's own source: the dashboard,
/// servebench and the named test mention the series by name (or, for a
/// name built at run time, build it or pick out its family), an input is
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
    let sources: Vec<String> = source_files().iter().map(|p| non_test_source(p)).collect();

    for &(name, consumer) in sites::SERIES {
        let quoted = format!("\"{name}\"");
        let mentions = |code: &str| code.contains(&quoted) || read_by_call(code, name);
        match consumer {
            Consumer::Dashboard(column) => assert!(
                (mentions(&dashboard) || matches_family(&dashboard, name))
                    && dashboard.contains(column),
                "{name}: the dashboard's `{column}` column does not read it"
            ),
            Consumer::Bench(field) => assert!(
                mentions(&servebench) && servebench.contains(&format!("\"{field}\"")),
                "{name}: servebench's `{field}` does not read it"
            ),
            Consumer::Input(figure) => assert!(
                sources.iter().any(|code| read_by_call(code, name)),
                "{name}: nothing reads it by name for {figure}"
            ),
            Consumer::Test(test) => assert!(
                tests
                    .iter()
                    .any(|t| t.contains(&format!("fn {test}(")) && mentions(t)),
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
