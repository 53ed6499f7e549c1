//! Subcommand implementations for the `inbox` CLI.

use std::error::Error;
use std::io::Write as _;
use std::sync::{Arc, OnceLock};

use inbox_core::interpret::{explain, format_explanation};
use inbox_core::{persist, InBoxConfig, IntersectionMode};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_eval::{beyond_accuracy, Scorer};
use inbox_kg::UserId;
use inbox_obs::{ConsoleSink, JsonlSink, Verbosity};
use inbox_serve::{Engine, HttpServer, ServeConfig, Service};

use crate::args::{ArgError, Parsed};

/// CLI usage text.
pub const USAGE: &str = "\
inbox — InBox interest-box recommendation (VLDB 2024 reproduction)

USAGE:
  inbox stats     (--preset P | --data DIR) [--seed N]
  inbox export    --preset P --out DIR [--seed N]
  inbox train     (--preset P | --data DIR) --out MODEL.json
                  [--dim 32] [--epochs1 40] [--epochs2 25] [--epochs3 40]
                  [--lr 0.02] [--seed 42] [--maxmin] [--quick]
  inbox evaluate  --model MODEL.json (--preset P | --data DIR) [--k 20]
  inbox recommend --model MODEL.json (--preset P | --data DIR) --user U
                  [--k 10] [--explain]
  inbox serve     --model MODEL.json (--preset P | --data DIR)
                  [--addr 127.0.0.1:7878] [--queue-cap 1024]
                  [--cache-cap 100000] [--threads NPROC]
                  [--slo-ms 50] [--trace-slow-ms 250] [--trace-sample 1]
                  [--index full|ivf] [--nlist 0] [--nprobe 0] (0 = auto)
                  [--smoke]
                  [--audit-sample 32] [--audit-queue-cap 256] [--audit-floor F]
                  (shadow-oracle audit: re-rank 1-in-N answers through the
                   exact full-sort oracle; 0 disables; --audit-floor arms the
                   degradation alert on windowed audit recall)
  inbox obs       [--addr 127.0.0.1:7878] [--interval-ms 1000] [--iters 0]
                  live dashboard over a running server's GET /metrics
                  (qps, p99, cache hit rate, queue depth, shed rate, SLO burn,
                  allocs/s, hottest contended lock, audit recall + drift PSI)

GLOBAL FLAGS:
  --log-level quiet|info|debug   console verbosity (default info); quiet
                                 suppresses all non-error output
  --metrics-out PATH             write telemetry (one JSON object per line:
                                 per-epoch records + final span summary)

Presets: tiny | small | lastfm | yelp | ifashion | amazon
Data dirs use the KGIN format: train.txt, test.txt, kg_final.txt";

type CmdResult = Result<(), Box<dyn Error>>;

/// Flags every subcommand accepts.
const GLOBAL_FLAGS: &str = "log-level metrics-out";

/// The flags `command` accepts besides [`GLOBAL_FLAGS`], space-separated;
/// `None` for an unknown subcommand.
fn flags_of(command: &str) -> Option<&'static str> {
    Some(match command {
        "stats" => "preset data seed",
        "export" => "preset out seed",
        "train" => "preset data seed out dim epochs1 epochs2 epochs3 lr gamma maxmin quick",
        "evaluate" => "model preset data seed k",
        "recommend" => "model preset data seed user k explain",
        "serve" => {
            "model preset data seed addr queue-cap cache-cap threads slo-ms trace-slow-ms \
             trace-sample index nlist nprobe smoke audit-sample audit-queue-cap audit-floor"
        }
        "obs" => "addr interval-ms iters",
        "help" | "--help" | "-h" => "",
        _ => return None,
    })
}

/// Rejects a flag the subcommand does not accept, so a misspelt or
/// retired flag fails instead of being silently ignored. An unknown
/// subcommand passes; the dispatcher rejects it.
pub fn check_flags(parsed: &Parsed) -> Result<(), ArgError> {
    match flags_of(&parsed.command) {
        Some(own) => parsed.reject_unknown(|f| {
            own.split_whitespace()
                .chain(GLOBAL_FLAGS.split_whitespace())
                .any(|known| known == f)
        }),
        None => Ok(()),
    }
}

/// The process exit code for a failed subcommand: `2` for input the CLI
/// cannot honour (an [`ArgError`]), `1` for everything else.
pub fn exit_code(e: &(dyn Error + 'static)) -> i32 {
    if e.is::<ArgError>() {
        2
    } else {
        1
    }
}

static VERBOSITY: OnceLock<Verbosity> = OnceLock::new();

/// Installs telemetry sinks from the global flags: a console sink at
/// `--log-level` (default `info`) and, when `--metrics-out PATH` is given, a
/// JSONL file sink receiving every epoch record and the final run summary.
pub fn init_observability(parsed: &Parsed) -> Result<Verbosity, Box<dyn Error>> {
    let level: Verbosity = parsed
        .get("log-level")
        .unwrap_or("info")
        .parse()
        .map_err(|e: String| -> Box<dyn Error> { e.into() })?;
    let _ = VERBOSITY.set(level);
    inbox_obs::add_sink(Arc::new(ConsoleSink::new(level)));
    if let Some(path) = parsed.get("metrics-out") {
        let sink = JsonlSink::create(std::path::Path::new(path))
            .map_err(|e| format!("cannot create --metrics-out {path}: {e}"))?;
        inbox_obs::add_sink(Arc::new(sink));
    }
    Ok(level)
}

/// The verbosity chosen at startup (`info` when running without
/// [`init_observability`], e.g. from unit tests).
fn verbosity() -> Verbosity {
    VERBOSITY.get().copied().unwrap_or(Verbosity::Info)
}

/// Whether non-error console output is allowed.
fn chatty() -> bool {
    verbosity() > Verbosity::Quiet
}

fn preset_by_name(name: &str) -> Result<SyntheticConfig, Box<dyn Error>> {
    Ok(match name {
        "tiny" => SyntheticConfig::tiny(),
        "small" => SyntheticConfig::small(),
        "lastfm" => SyntheticConfig::lastfm_like(),
        "yelp" => SyntheticConfig::yelp_like(),
        "ifashion" => SyntheticConfig::ifashion_like(),
        "amazon" => SyntheticConfig::amazon_like(),
        other => return Err(format!("unknown preset {other:?}").into()),
    })
}

/// Loads the dataset selected by `--preset` or `--data`.
pub fn load_dataset(parsed: &Parsed) -> Result<Dataset, Box<dyn Error>> {
    match (parsed.get("preset"), parsed.get("data")) {
        (Some(p), None) => {
            let seed = parsed.get_parsed("seed", 7u64)?;
            Ok(Dataset::synthetic(&preset_by_name(p)?, seed))
        }
        (None, Some(dir)) => Ok(Dataset::from_dir(dir, dir)?),
        _ => Err("exactly one of --preset or --data is required".into()),
    }
}

/// `inbox stats` — Table-1-style statistics.
pub fn stats(parsed: &Parsed) -> CmdResult {
    let ds = load_dataset(parsed)?;
    if chatty() {
        println!("dataset: {}", ds.name);
        println!("#Users        {:>10}", ds.n_users());
        println!(
            "#Interactions {:>10}",
            ds.train.n_interactions() + ds.test.n_interactions()
        );
        println!("{}", ds.kg_stats());
    }
    Ok(())
}

/// `inbox export` — write a synthetic dataset in KGIN format.
pub fn export(parsed: &Parsed) -> CmdResult {
    let preset = parsed.require("preset")?;
    let out = parsed.require("out")?;
    let seed = parsed.get_parsed("seed", 7u64)?;
    let ds = Dataset::synthetic(&preset_by_name(preset)?, seed);
    std::fs::create_dir_all(out)?;
    let dir = std::path::Path::new(out);

    let dump = |inter: &inbox_data::Interactions, path: &std::path::Path| -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for u in 0..inter.n_users() as u32 {
            let items = inter.items_of(UserId(u));
            if items.is_empty() {
                continue;
            }
            write!(f, "{u}")?;
            for i in items {
                write!(f, " {}", i.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    };
    dump(&ds.train, &dir.join("train.txt"))?;
    dump(&ds.test, &dir.join("test.txt"))?;

    let n_items = ds.kg.n_items() as u32;
    let mut f = std::io::BufWriter::new(std::fs::File::create(dir.join("kg_final.txt"))?);
    for t in ds.kg.iri_triples() {
        writeln!(f, "{} {} {}", t.head.0, t.relation.0, t.tail.0)?;
    }
    for t in ds.kg.trt_triples() {
        writeln!(
            f,
            "{} {} {}",
            n_items + t.head.0,
            t.relation.0,
            n_items + t.tail.0
        )?;
    }
    for t in ds.kg.irt_triples() {
        writeln!(f, "{} {} {}", t.head.0, t.relation.0, n_items + t.tail.0)?;
    }
    drop(f);
    if chatty() {
        println!(
            "exported {} ({} interactions, {} triples) to {}",
            ds.name,
            ds.train.n_interactions() + ds.test.n_interactions(),
            ds.kg_stats().n_triples(),
            out
        );
    }
    Ok(())
}

/// Builds the training configuration from flags.
pub fn config_from_flags(parsed: &Parsed) -> Result<InBoxConfig, Box<dyn Error>> {
    let dim = parsed.get_parsed("dim", 32usize)?;
    let mut cfg = InBoxConfig::for_dim(dim);
    cfg.epochs_stage1 = parsed.get_parsed("epochs1", cfg.epochs_stage1)?;
    cfg.epochs_stage2 = parsed.get_parsed("epochs2", cfg.epochs_stage2)?;
    cfg.epochs_stage3 = parsed.get_parsed("epochs3", cfg.epochs_stage3)?;
    cfg.lr = parsed.get_parsed("lr", cfg.lr)?;
    cfg.seed = parsed.get_parsed("seed", cfg.seed)?;
    cfg.gamma = parsed.get_parsed("gamma", cfg.gamma)?;
    if parsed.has("maxmin") {
        cfg.intersection = IntersectionMode::MaxMin;
    }
    if parsed.has("quick") {
        cfg.epochs_stage1 = (cfg.epochs_stage1 / 4).max(2);
        cfg.epochs_stage2 = (cfg.epochs_stage2 / 4).max(2);
        cfg.epochs_stage3 = (cfg.epochs_stage3 / 4).max(2);
    }
    Ok(cfg)
}

/// `inbox train` — train and checkpoint a model.
pub fn train(parsed: &Parsed) -> CmdResult {
    let out = parsed.require("out")?;
    let ds = load_dataset(parsed)?;
    let cfg = config_from_flags(parsed)?;
    if chatty() {
        eprintln!(
            "training on {} ({} users, {} items, {} triples) with d={} ...",
            ds.name,
            ds.n_users(),
            ds.n_items(),
            ds.kg_stats().n_triples(),
            cfg.dim
        );
    }
    let started = std::time::Instant::now();
    let trained = inbox_core::train(&ds, cfg);
    let train_time = started.elapsed();
    if chatty() {
        eprintln!(
            "trained in {:.1?} (early stop: {})",
            train_time, trained.report.early_stopped
        );
    }
    let metrics = trained.evaluate(&ds, 20);
    if chatty() {
        println!("test metrics: {metrics}");
    }
    persist::save(&trained, out)?;
    if chatty() {
        println!("model written to {out}");
    }
    // Final span/counter aggregation under the training run's id, so the
    // JSONL stream ends with a summary matching its epoch records.
    inbox_obs::emit_run_summary(trained.report.run_id);
    inbox_obs::flush_sinks();
    Ok(())
}

/// `inbox evaluate` — metrics for a checkpointed model.
pub fn evaluate(parsed: &Parsed) -> CmdResult {
    let model_path = parsed.require("model")?;
    let k = parsed.get_parsed("k", 20usize)?;
    let ds = load_dataset(parsed)?;
    let trained = persist::load(model_path)?;
    let metrics = inbox_eval::evaluate_with_threads(&trained, &ds.train, &ds.test, k, 1);
    if chatty() {
        println!(
            "recall@{k} {:.4}, ndcg@{k} {:.4} ({} users)",
            metrics.recall, metrics.ndcg, metrics.n_users_evaluated
        );
    }
    let beyond = beyond_accuracy(&trained, &ds.train, &ds.test, k);
    if chatty() {
        println!(
            "coverage {:.3}, exposure gini {:.3}, mean list length {:.1}",
            beyond.coverage, beyond.gini, beyond.mean_list_len
        );
    }
    Ok(())
}

/// `inbox recommend` — top-K for a user, optionally explained.
pub fn recommend(parsed: &Parsed) -> CmdResult {
    let model_path = parsed.require("model")?;
    let user: u32 = parsed
        .require("user")?
        .parse()
        .map_err(|e| format!("bad --user: {e}"))?;
    let k = parsed.get_parsed("k", 10usize)?;
    let ds = load_dataset(parsed)?;
    let trained = persist::load(model_path)?;
    let user = UserId(user);
    if user.index() >= ds.n_users() {
        return Err(format!(
            "user {} out of range (dataset has {})",
            user.0,
            ds.n_users()
        )
        .into());
    }
    let seen = ds.train.items_of(user);
    if chatty() {
        println!(
            "user {} has {} training interactions; top-{k}:",
            user.0,
            seen.len()
        );
    }
    let recs = trained.recommend(user, seen, k);
    if chatty() {
        for (rank, (item, score)) in recs.iter().enumerate() {
            let marker = if ds.test.contains(user, *item) {
                "  [test hit]"
            } else {
                ""
            };
            println!("{:>3}. {} score {score:.3}{marker}", rank + 1, item);
        }
    }
    if parsed.has("explain") {
        if let Some((top, _)) = recs.first() {
            if let Some(ex) = explain(&trained, &ds.kg, user, *top) {
                if chatty() {
                    println!("\nwhy {top}?\n{}", format_explanation(&ex, &ds.kg));
                }
            }
        }
    }
    let _ = trained.score_items(user); // exercise the Scorer path
    Ok(())
}

/// Builds the serving configuration from flags.
pub fn serve_config_from_flags(parsed: &Parsed) -> Result<ServeConfig, Box<dyn Error>> {
    let defaults = ServeConfig::default();
    // Candidate generation: `--index full` (default) scores every item;
    // `--index ivf` builds the IVF + box-pruning index, with `--nlist` /
    // `--nprobe` overriding the auto-derived knobs (0 = auto).
    let index = match parsed.get("index") {
        None => defaults.index,
        Some(name) => match inbox_serve::IndexMode::parse(name) {
            Some(inbox_serve::IndexMode::Ivf { .. }) => inbox_serve::IndexMode::Ivf {
                nlist: parsed.get_parsed("nlist", 0usize)?,
                nprobe: parsed.get_parsed("nprobe", 0usize)?,
            },
            Some(mode) => mode,
            None => {
                return Err(ArgError::BadValue {
                    flag: "index".into(),
                    message: format!("{name:?}: expected 'full' or 'ivf'"),
                }
                .into())
            }
        },
    };
    // Shadow-oracle auditing: `--audit-sample N` re-ranks 1-in-N answers
    // through the exact oracle in the background (0 disables), and
    // `--audit-floor F` arms the latched degradation alert on windowed
    // audit recall. The audit queue exists only while auditing is on.
    let audit_sample = parsed.get_parsed("audit-sample", defaults.audit_sample)?;
    let audit_queue_cap = if audit_sample > 0 {
        parsed.get_positive("audit-queue-cap", defaults.audit_queue_cap)?
    } else {
        parsed.get_parsed("audit-queue-cap", defaults.audit_queue_cap)?
    };
    let audit_floor = match parsed.get("audit-floor") {
        None => defaults.audit_floor,
        Some(_) => Some(parsed.get_parsed("audit-floor", 0.0)?),
    };
    Ok(ServeConfig {
        index,
        audit_sample,
        audit_queue_cap,
        audit_floor,
        queue_cap: parsed.get_positive("queue-cap", defaults.queue_cap)?,
        cache_cap: parsed.get_positive("cache-cap", defaults.cache_cap)?,
        threads: parsed.get_positive("threads", defaults.threads)?,
        slo_objective: std::time::Duration::from_millis(
            parsed.get_parsed("slo-ms", defaults.slo_objective.as_millis() as u64)?,
        ),
        trace_slow: std::time::Duration::from_millis(
            parsed.get_parsed("trace-slow-ms", defaults.trace_slow.as_millis() as u64)?,
        ),
        ..defaults
    })
}

/// One blocking HTTP GET against the local server (smoke checks).
fn self_request(addr: std::net::SocketAddr, path: &str) -> Result<String, Box<dyn Error>> {
    use std::io::Read as _;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: inbox\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    if !response.starts_with("HTTP/1.1 200") {
        return Err(format!("{path} answered: {}", response.lines().next().unwrap_or("")).into());
    }
    Ok(response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default())
}

/// `inbox serve` — load a checkpoint and serve recommendations over HTTP.
pub fn serve(parsed: &Parsed) -> CmdResult {
    let model_path = parsed.require("model")?;
    let addr = parsed.get("addr").unwrap_or("127.0.0.1:7878");
    let serve_cfg = serve_config_from_flags(parsed)?;
    // Trace 1-in-N requests (process-global knob; 0 disables tracing).
    inbox_obs::set_trace_sampling(parsed.get_parsed("trace-sample", 1u64)?);
    let ds = load_dataset(parsed)?;
    let trained = persist::load(model_path)?;
    if trained.boxes.len() != ds.n_users() {
        return Err(format!(
            "checkpoint was trained on {} users but the dataset has {} — \
             serve needs the same --preset/--data the model was trained on",
            trained.boxes.len(),
            ds.n_users()
        )
        .into());
    }
    let engine = Engine::from_trained(trained, ds.kg.clone(), &ds.train, &serve_cfg);
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), addr)
        .map_err(|e| format!("cannot bind --addr {addr}: {e}"))?;
    if chatty() {
        println!(
            "serving {} on http://{} (workers {}, queue {}, cache {}, index {})",
            ds.name,
            http.local_addr(),
            serve_cfg.threads,
            serve_cfg.queue_cap,
            serve_cfg.cache_cap,
            match service.engine().index_active() {
                Some((nlist, nprobe)) => format!("ivf(nlist={nlist},nprobe={nprobe})"),
                None => "full".to_string(),
            }
        );
        println!("routes: GET /health  GET /recommend?user=U&k=K  POST /ingest?user=U&item=I  GET /stats  GET /audit  GET /metrics  GET /traces");
    }
    if parsed.has("smoke") {
        // Prove the wire path end to end, then exit (used by CI).
        self_request(http.local_addr(), "/health")?;
        let body = self_request(http.local_addr(), "/recommend?user=0&k=5")?;
        if chatty() {
            println!("smoke recommend: {body}");
        }
        // The live observability surface must be well-formed too: /metrics
        // parses as Prometheus text with serving samples in it, and
        // /traces has recorded at least the recommend request above.
        let metrics = self_request(http.local_addr(), "/metrics")?;
        let samples = metrics
            .lines()
            .filter_map(inbox_obs::expo::parse_line)
            .count();
        if samples == 0 {
            return Err("smoke: /metrics rendered no parseable samples".into());
        }
        let traces = self_request(http.local_addr(), "/traces")?;
        let dump: inbox_obs::TraceDump = serde_json::from_str(&traces)
            .map_err(|e| format!("smoke: /traces is not valid JSON: {e}"))?;
        if dump.recent.is_empty() {
            return Err("smoke: /traces retained no request traces".into());
        }
        // The audit surface must be well-formed JSON carrying the
        // shadow-oracle series (the recommend above was the 1st answer, so
        // the 1-in-N sampler always picked it up when auditing is on).
        let audit = self_request(http.local_addr(), "/audit")?;
        let audit: serde_json::Value = serde_json::from_str(&audit)
            .map_err(|e| format!("smoke: /audit is not valid JSON: {e}"))?;
        let sampled = audit
            .as_object()
            .and_then(|o| o.get("audit"))
            .and_then(|a| a.as_object())
            .and_then(|a| a.get("sampled"))
            .and_then(|s| s.as_f64())
            .unwrap_or(0.0);
        if serve_cfg.audit_sample > 0 && sampled == 0.0 {
            return Err("smoke: /audit recorded no sampled answers".into());
        }
        let stats = service.stats();
        if chatty() {
            println!(
                "smoke ok: {} request(s), {} rebuild(s), {} cache hit(s), {} metric sample(s), {} trace(s)",
                stats.requests,
                stats.rebuilds,
                stats.cache_hits,
                samples,
                dump.recent.len()
            );
        }
        http.shutdown();
        service.shutdown();
        inbox_obs::emit_run_summary(inbox_obs::next_run_id());
        inbox_obs::flush_sinks();
        return Ok(());
    }
    // Serve until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Pulls one named sample out of a parsed `/metrics` scrape; every label
/// in `labels` must match.
fn sample(
    samples: &[inbox_obs::expo::ParsedSample],
    metric: &str,
    labels: &[(&str, &str)],
) -> Option<f64> {
    samples
        .iter()
        .find(|(m, ls, _)| {
            m == metric
                && labels
                    .iter()
                    .all(|(k, v)| ls.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|(_, _, v)| *v)
}

/// Renders one dashboard line from a raw `/metrics` scrape: last-10s QPS,
/// p99 latency, cache hit rate, queue depth, shed rate, the
/// `serve.recommend` SLO's 60s burn rate, the last-10s allocation rate,
/// the lock with the highest cumulative contention count, and the quality
/// columns — audited/sampled counts, audit queue backlog, last-minute
/// audit recall (flagged `DEGRADED` when the latch is tripped), and the
/// served-score drift PSI. Pure (testable without a server).
pub fn render_dashboard(metrics_text: &str) -> String {
    let samples: Vec<_> = metrics_text
        .lines()
        .filter_map(inbox_obs::expo::parse_line)
        .collect();
    let qps = sample(
        &samples,
        "inbox_span_window_rate",
        &[("name", "serve.request"), ("window", "10s")],
    )
    .unwrap_or(0.0);
    let p99_ms = sample(
        &samples,
        "inbox_span_window_seconds",
        &[
            ("name", "serve.request"),
            ("window", "10s"),
            ("quantile", "0.99"),
        ],
    )
    .unwrap_or(0.0)
        * 1e3;
    let requests = sample(
        &samples,
        "inbox_counter_window",
        &[("name", "serve.requests"), ("window", "10s")],
    )
    .unwrap_or(0.0);
    let hits = sample(
        &samples,
        "inbox_counter_window",
        &[("name", "serve.cache.hits"), ("window", "10s")],
    )
    .unwrap_or(0.0);
    let hit_pct = if requests > 0.0 {
        100.0 * hits / requests
    } else {
        0.0
    };
    let queue_p99 = sample(
        &samples,
        "inbox_value_window",
        &[
            ("name", "serve.queue.depth"),
            ("window", "10s"),
            ("quantile", "0.99"),
        ],
    )
    .unwrap_or(0.0);
    let shed_rate = sample(
        &samples,
        "inbox_counter_window",
        &[("name", "serve.shed"), ("window", "10s")],
    )
    .unwrap_or(0.0)
        / 10.0;
    let burn = sample(
        &samples,
        "inbox_slo_burn_rate",
        &[("name", "serve.recommend"), ("window", "60s")],
    )
    .unwrap_or(0.0);
    let alloc_rate =
        sample(&samples, "inbox_alloc_window", &[("window", "10s")]).unwrap_or(0.0) / 10.0;
    let hot_lock = samples
        .iter()
        .filter_map(|(m, ls, v)| {
            if m != "inbox_counter_total" {
                return None;
            }
            let name = ls
                .iter()
                .find(|(k, _)| k == "name")
                .map(|(_, v)| v.as_str())?;
            let lock = name.strip_prefix("lock.")?.strip_suffix(".contended")?;
            Some((lock.to_string(), *v))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1));
    let hot_lock = match hot_lock {
        Some((name, n)) if n > 0.0 => format!("{name}({n:.0})"),
        _ => "-".to_string(),
    };
    let audit_sampled = sample(&samples, "inbox_audit_sampled_total", &[]).unwrap_or(0.0);
    let audit_audited = sample(&samples, "inbox_audit_audited_total", &[]).unwrap_or(0.0);
    let audit_recall = sample(&samples, "inbox_audit_recall", &[("window", "60s")]).unwrap_or(1.0);
    let audit_degraded = sample(&samples, "inbox_audit_degraded", &[]).unwrap_or(0.0);
    let audit_backlog = sample(
        &samples,
        "inbox_value_window",
        &[
            ("name", "audit.queue.depth"),
            ("window", "10s"),
            ("quantile", "0.99"),
        ],
    )
    .unwrap_or(0.0);
    let audit_state = if audit_degraded > 0.0 {
        " DEGRADED"
    } else {
        ""
    };
    let psi = sample(&samples, "inbox_audit_drift", &[("stat", "psi.score")]).unwrap_or(0.0);
    format!(
        "qps {qps:8.1} | p99 {p99_ms:8.2} ms | cache hit {hit_pct:5.1}% | queue p99 {queue_p99:5.0} | shed/s {shed_rate:6.2} | burn60 {burn:5.2} | alloc/s {alloc_rate:8.1} | hot lock {hot_lock} | audit {audit_audited:.0}/{audit_sampled:.0} bl {audit_backlog:3.0} rec60 {audit_recall:4.2}{audit_state} | psi {psi:6.3}"
    )
}

/// `inbox obs` — poll a running server's `/metrics` and render a terminal
/// dashboard, one line per scrape.
pub fn obs(parsed: &Parsed) -> CmdResult {
    use std::net::ToSocketAddrs as _;
    let addr = parsed.get("addr").unwrap_or("127.0.0.1:7878");
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad --addr {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("--addr {addr} resolved to nothing"))?;
    let interval = std::time::Duration::from_millis(parsed.get_parsed("interval-ms", 1000u64)?);
    let iters = parsed.get_parsed("iters", 0u64)?; // 0 = run until killed
    let mut done = 0u64;
    loop {
        let metrics = self_request(sock, "/metrics")
            .map_err(|e| format!("scraping http://{addr}/metrics: {e}"))?;
        println!("{}", render_dashboard(&metrics));
        done += 1;
        if iters != 0 && done >= iters {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(tokens: &[&str]) -> Parsed {
        let v: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Parsed::parse(&v).unwrap()
    }

    #[test]
    fn preset_lookup() {
        assert!(preset_by_name("tiny").is_ok());
        assert!(preset_by_name("lastfm").is_ok());
        assert!(preset_by_name("nope").is_err());
    }

    #[test]
    fn dataset_requires_exactly_one_source() {
        let p = parsed(&["stats"]);
        assert!(load_dataset(&p).is_err());
        let p = parsed(&["stats", "--preset", "tiny", "--data", "/tmp"]);
        assert!(load_dataset(&p).is_err());
        let p = parsed(&["stats", "--preset", "tiny"]);
        assert!(load_dataset(&p).is_ok());
    }

    #[test]
    fn config_flags_respected() {
        let p = parsed(&[
            "train",
            "--dim",
            "16",
            "--lr",
            "0.01",
            "--epochs1",
            "5",
            "--maxmin",
            "--quick",
        ]);
        let cfg = config_from_flags(&p).unwrap();
        assert_eq!(cfg.dim, 16);
        assert_eq!(cfg.lr, 0.01);
        assert_eq!(cfg.intersection, IntersectionMode::MaxMin);
        // --quick divides epochs (after explicit --epochs1 5 -> 5/4 max 2).
        assert_eq!(cfg.epochs_stage1, 2);
        // gamma auto-scaled for dim 16 unless overridden.
        assert_eq!(cfg.gamma, InBoxConfig::auto_gamma(16));
    }

    #[test]
    fn full_cli_train_evaluate_recommend_cycle() {
        let dir = std::env::temp_dir().join(format!("inbox-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.json");
        let model_str = model.to_str().unwrap();

        // export
        let data_dir = dir.join("data");
        let p = parsed(&[
            "export",
            "--preset",
            "tiny",
            "--out",
            data_dir.to_str().unwrap(),
        ]);
        export(&p).unwrap();
        assert!(data_dir.join("kg_final.txt").exists());

        // stats from the exported dir
        let p = parsed(&["stats", "--data", data_dir.to_str().unwrap()]);
        stats(&p).unwrap();

        // train on the exported data (quick)
        let p = parsed(&[
            "train",
            "--data",
            data_dir.to_str().unwrap(),
            "--out",
            model_str,
            "--dim",
            "8",
            "--quick",
        ]);
        train(&p).unwrap();
        assert!(model.exists());

        // evaluate
        let p = parsed(&[
            "evaluate",
            "--model",
            model_str,
            "--data",
            data_dir.to_str().unwrap(),
        ]);
        evaluate(&p).unwrap();

        // recommend with explanation
        let p = parsed(&[
            "recommend",
            "--model",
            model_str,
            "--data",
            data_dir.to_str().unwrap(),
            "--user",
            "0",
            "--k",
            "5",
            "--explain",
        ]);
        recommend(&p).unwrap();

        // out-of-range user rejected
        let p = parsed(&[
            "recommend",
            "--model",
            model_str,
            "--data",
            data_dir.to_str().unwrap(),
            "--user",
            "99999",
        ]);
        assert!(recommend(&p).is_err());

        // serve --smoke: checkpoint up, HTTP round-trips, clean exit —
        // under the full sort and under IVF.
        for extra in [&[][..], &["--index", "ivf"]] {
            let mut tokens = vec![
                "serve",
                "--model",
                model_str,
                "--data",
                data_dir.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--smoke",
            ];
            tokens.extend_from_slice(extra);
            serve(&parsed(&tokens)).unwrap_or_else(|e| panic!("serve --smoke {extra:?}: {e}"));
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_config_flags_respected() {
        let p = parsed(&[
            "serve",
            "--queue-cap",
            "64",
            "--cache-cap",
            "1000",
            "--threads",
            "2",
            "--slo-ms",
            "20",
            "--trace-slow-ms",
            "100",
            "--index",
            "ivf",
            "--nlist",
            "64",
            "--nprobe",
            "8",
            "--audit-sample",
            "16",
            "--audit-queue-cap",
            "32",
            "--audit-floor",
            "0.97",
        ]);
        let cfg = serve_config_from_flags(&p).unwrap();
        assert_eq!(cfg.queue_cap, 64);
        assert_eq!(cfg.cache_cap, 1000);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.slo_objective, std::time::Duration::from_millis(20));
        assert_eq!(cfg.trace_slow, std::time::Duration::from_millis(100));
        assert_eq!(
            cfg.index,
            inbox_serve::IndexMode::Ivf {
                nlist: 64,
                nprobe: 8
            }
        );
        assert_eq!(cfg.audit_sample, 16);
        assert_eq!(cfg.audit_queue_cap, 32);
        assert_eq!(cfg.audit_floor, Some(0.97));
        // Defaults hold when flags are absent.
        let d = serve_config_from_flags(&parsed(&["serve"])).unwrap();
        assert_eq!(d.threads, inbox_serve::ServeConfig::default().threads);
        assert_eq!(
            d.slo_objective,
            inbox_serve::ServeConfig::default().slo_objective
        );
        assert_eq!(d.index, inbox_serve::IndexMode::FullSort);
        assert_eq!(d.audit_sample, 32, "auditing defaults on at 1-in-32");
        assert_eq!(d.audit_floor, None, "alerting defaults off");
        assert!(serve_config_from_flags(&parsed(&["serve", "--audit-floor", "high"])).is_err());
        // Bare `--index ivf` leaves both knobs on auto; junk is rejected.
        let auto = serve_config_from_flags(&parsed(&["serve", "--index", "ivf"])).unwrap();
        assert_eq!(
            auto.index,
            inbox_serve::IndexMode::Ivf {
                nlist: 0,
                nprobe: 0
            }
        );
        assert!(serve_config_from_flags(&parsed(&["serve", "--index", "rtree"])).is_err());
    }

    /// [`parsed`] over one whitespace-separated command line.
    fn line(s: &str) -> Parsed {
        parsed(&s.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn zero_sizes_are_rejected_as_usage_errors() {
        for flag in ["threads", "queue-cap", "cache-cap", "audit-queue-cap"] {
            let err = serve_config_from_flags(&line(&format!("serve --{flag} 0"))).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("bad value for --{flag}: must be at least 1")
            );
            assert_eq!(exit_code(err.as_ref()), 2, "{flag}");
        }
        // With auditing off there is no audit queue to size.
        let cfg = serve_config_from_flags(&line("serve --audit-sample 0 --audit-queue-cap 0"));
        let cfg = cfg.unwrap();
        assert_eq!((cfg.audit_sample, cfg.audit_queue_cap), (0, 0));
        // Unparseable values are usage errors too; a missing file is not.
        for bad in ["serve --index rtree", "serve --audit-floor high"] {
            let err = serve_config_from_flags(&line(bad)).unwrap_err();
            assert_eq!(exit_code(err.as_ref()), 2, "{bad}");
        }
        let missing = line("evaluate --model /nonexistent/m.json --preset tiny");
        assert_eq!(exit_code(evaluate(&missing).unwrap_err().as_ref()), 1);
    }

    #[test]
    fn unknown_flags_are_rejected_per_subcommand() {
        for (cmd, flag) in [
            ("serve --batch-max 8", "batch-max"),
            ("serve --threds 3 --smoke --cache 9", "cache"),
            ("train --out m.json --k 5", "k"),
            ("evaluate --model m.json --explain", "explain"),
            ("obs --preset tiny", "preset"),
            ("help --verbose", "verbose"),
        ] {
            let want = Err(ArgError::UnknownFlag(flag.into()));
            assert_eq!(check_flags(&line(cmd)), want, "{cmd}");
        }
        // Every flag a subcommand reads is on its list, and the global
        // flags pass everywhere.
        for cmd in [
            "serve --model m.json --preset tiny --smoke --log-level quiet",
            "train --preset tiny --out m.json --dim 8 --epochs1 1 --epochs2 1 --epochs3 1 \
             --lr 0.1 --seed 3 --gamma 2 --maxmin --quick --metrics-out x.jsonl",
        ] {
            assert_eq!(check_flags(&line(cmd)), Ok(()), "{cmd}");
        }
        // The dispatcher, not the flag check, rejects unknown subcommands.
        assert_eq!(check_flags(&line("fly --high")), Ok(()));
    }

    #[test]
    fn dashboard_renders_from_metrics_text() {
        let text = "\
# TYPE inbox_span_window_rate gauge
inbox_span_window_rate{name=\"serve.request\",window=\"10s\"} 123.5
inbox_span_window_seconds{name=\"serve.request\",window=\"10s\",quantile=\"0.99\"} 0.004
inbox_counter_window{name=\"serve.requests\",window=\"10s\"} 200
inbox_counter_window{name=\"serve.cache.hits\",window=\"10s\"} 150
inbox_counter_window{name=\"serve.shed\",window=\"10s\"} 20
inbox_value_window{name=\"serve.queue.depth\",window=\"10s\",quantile=\"0.99\"} 7
inbox_slo_burn_rate{name=\"serve.recommend\",window=\"60s\"} 1.25
inbox_alloc_window{window=\"10s\"} 420
inbox_counter_total{name=\"lock.engine.cache.contended\"} 3
inbox_counter_total{name=\"lock.engine.live.contended\"} 17
inbox_audit_sampled_total 9
inbox_audit_audited_total 8
inbox_audit_recall{window=\"60s\"} 0.95
inbox_audit_degraded 1
inbox_value_window{name=\"audit.queue.depth\",window=\"10s\",quantile=\"0.99\"} 2
inbox_audit_drift{stat=\"psi.score\"} 0.042
";
        let line = render_dashboard(text);
        assert!(line.contains("qps    123.5"), "{line}");
        assert!(line.contains("p99     4.00 ms"), "{line}");
        assert!(line.contains("cache hit  75.0%"), "{line}");
        assert!(line.contains("shed/s   2.00"), "{line}");
        assert!(line.contains("burn60  1.25"), "{line}");
        assert!(line.contains("alloc/s     42.0"), "{line}");
        assert!(line.contains("hot lock engine.live(17)"), "{line}");
        assert!(line.contains("audit 8/9"), "{line}");
        assert!(line.contains("bl   2"), "{line}");
        assert!(line.contains("rec60 0.95 DEGRADED"), "{line}");
        assert!(line.contains("psi  0.042"), "{line}");
    }

    #[test]
    fn dashboard_tolerates_empty_scrape() {
        let line = render_dashboard("# nothing here\n");
        assert!(line.contains("qps"), "{line}");
        assert!(line.contains("0.0"), "{line}");
        assert!(line.contains("hot lock -"), "{line}");
        // No audit traffic reads healthy, not alarming.
        assert!(line.contains("rec60 1.00"), "{line}");
        assert!(!line.contains("DEGRADED"), "{line}");
    }
}
