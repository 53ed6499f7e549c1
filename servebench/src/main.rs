//! Serving benchmark for the InBox reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload churn-small --seed 1 --seconds 22 --trace 0
//! ```
//!
//! Each run starts the real `HttpServer` over a `Service` over an `Engine`
//! built from generated inputs (the `small` twin at d=32, untrained
//! parameters with clustered item points, `ServeConfig::default()` but for
//! the workload's index) and drives it open-loop over loopback from this
//! process, with two sender threads and so at most two open connections.
//! The measured time is spent in rounds: light, nominal and overload
//! traffic, then a slice of the training section (epochs of stages 1–3 on
//! the `small` twin). A sample of answers is then checked against
//! `Engine::oracle`; a wrong answer fails the run. `--seed` drives only
//! the traffic: arrival times, users, ingested items, samples.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The traced run also replays a
//! sample of reads one at a time at every nested public entry point (see
//! `replay.rs`). Each run writes its full record, with provenance, to
//! `servebench/out/`. `--workload all` runs every workload in turn.

mod loadgen;
mod replay;
mod serving;
mod stats;
mod traffic;
mod training;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inbox_core::HistoryCache;
use inbox_serve::ServeStats;

use crate::loadgen::Status;
use crate::serving::{Inputs, Phase, K};
use crate::stats::{median, quantile};
use crate::traffic::{poisson_schedule, stream, Rng, UserDraw};
use crate::training::{TrainInputs, Training};
use crate::workloads::Workload;

/// Serving set-ups per run: at least `SETUPS_MIN`, more while they take
/// under `SETUP_BUDGET_S` in all, at most `SETUPS_MAX`; `setup_s` is their
/// median.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 60;
const SETUP_BUDGET_S: f64 = 1.0;
/// Rounds of light, nominal and overload traffic plus training per run.
const ROUNDS: usize = 4;
/// Verified answers per run.
const VERIFY: usize = 48;
/// Reads replayed one at a time in the traced run.
const REPLAY: usize = 48;
/// STREAM-triad array length (three f32 arrays of 64 MiB).
const TRIAD_LEN: usize = 1 << 24;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    wrong: Vec<String>,
    notes: Vec<(&'static str, String)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process, MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The git revision of the checkout, when it is a git repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds
/// (`crates/`, `vendor/`, `servebench/src`), so a result names the code that
/// produced it even outside a git checkout.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target" && n != "out") {
                    walk(&p, files);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for d in ["crates", "vendor", "servebench/src"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn ms(sorted_s: &[f64], q: f64) -> f64 {
    quantile(sorted_s, q) * 1e3
}

fn us(sorted_s: &[f64], q: f64) -> f64 {
    quantile(sorted_s, q) * 1e6
}

/// Serving section: set-up, warm-up, (replay), load rounds with `train`
/// slices between them, verification. Fills `r`; returns the serving
/// set-up median, seconds.
fn serve(
    w: &Workload,
    args: &Args,
    rng: &mut Rng,
    r: &mut Report,
    train: &mut dyn FnMut(f64) -> Result<(), String>,
) -> Result<f64, String> {
    let inputs = Inputs::new(w.items_scale, w.index);
    r.note("n_items", inputs.n_items());
    r.note("n_users", inputs.n_users());
    r.note("dim", inputs.cfg.dim);
    let s = &inputs.serve;
    r.note("index", s.index);
    r.note("quantize", s.quantize.as_str());
    r.note("max_batch", s.max_batch);
    r.note("batch_wait_us", s.batch_wait.as_micros());
    r.note("audit_sample", s.audit_sample);
    r.note("trace_sampling", "1-in-1");

    // Set-ups: the serving stack first, then throwaway stacks until
    // `SETUPS_MIN` are done, then more before every round while they fit the
    // round's share of `SETUP_BUDGET_S`, so the median samples the host
    // across the whole run. The training set-up is train-epoch's own.
    let (min, max) = if w.training_setup {
        (1, 1)
    } else {
        (SETUPS_MIN, SETUPS_MAX)
    };
    let (stack, first) = serving::start(&inputs)?;
    let mut times = vec![first];
    let more_setups = |times: &mut Vec<serving::SetupTimes>, budget_s: f64, cap: usize| {
        let started = Instant::now();
        while times.len() < cap.min(max)
            && (times.len() < min
                || started.elapsed().as_secs_f64() + median(times.iter().map(|t| t.total))
                    < budget_s)
        {
            let (s, t) = serving::start(&inputs)?;
            s.stop();
            times.push(t);
        }
        Ok::<(), String>(())
    };
    more_setups(&mut times, 0.0, min)?;
    if let Some((nlist, nprobe)) = stack.engine().index_active() {
        r.note("ivf_nlist", nlist);
        r.note("ivf_nprobe", nprobe);
    }
    serving::warm(&stack, inputs.n_users());
    let mut mirror = inputs.mirror();
    // One stream per purpose, forked up front, so a traced and an untraced
    // run of one seed send the same traffic.
    let (mut replay_rng, mut traffic, mut verify_rng) = (rng.fork(1), rng.fork(2), rng.fork(3));

    let replayed = if args.trace {
        let own = replay::Own::new(&inputs);
        if own.index_active() != stack.engine().index_active() {
            return Err(format!(
                "replay index {:?} differs from the engine's {:?}",
                own.index_active(),
                stack.engine().index_active()
            ));
        }
        let rep = replay::run(
            &stack,
            &inputs,
            &own,
            &mut mirror,
            &mut replay_rng,
            w.writes,
            REPLAY,
        )?;
        rep.check_layer_sum()?;
        Some((own.index_build_s, rep))
    } else {
        None
    };

    // Load: rounds of light, nominal, rung and overload traffic, each
    // followed by a slice of the training section, pooled per phase so slow
    // drifts of the host average out over the run.
    let serve_s = args.seconds * w.serve_share;
    let rounds = ROUNDS as f64;
    let draw = UserDraw::new(&mut traffic, inputs.n_users());
    let mut phase = |name: &str, rate: f64, secs: f64, mirror: &mut traffic::Mirror| -> Phase {
        let schedule = poisson_schedule(&mut traffic, rate, secs);
        let requests = stream(
            &mut traffic,
            &draw,
            mirror,
            &inputs.ds.kg,
            &inputs.cfg,
            schedule.len(),
            w.ingest_every,
            w.writes,
        );
        serving::run_phase(&stack, name, rate, requests, &schedule)
    };
    let (mut light, mut nominal, mut rung, mut overload) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut served = ServeStats::default();
    let audit_before = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    if args.trace {
        // The load-dependent histograms read below cover these rounds only.
        inbox_obs::reset();
    }
    let rounds_started = Instant::now();
    for round in 1..=ROUNDS {
        more_setups(
            &mut times,
            SETUP_BUDGET_S / rounds,
            min + (max - min) * round / ROUNDS,
        )?;
        let before = stack.engine().stats();
        light.push(phase(
            "light",
            w.light,
            0.15 * serve_s / rounds,
            &mut mirror,
        ));
        nominal.push(phase(
            "nominal",
            w.nominal,
            0.4 * serve_s / rounds,
            &mut mirror,
        ));
        let after = stack.engine().stats();
        served.requests += after.requests - before.requests;
        served.cache_hits += after.cache_hits - before.cache_hits;
        served.rebuilds += after.rebuilds - before.rebuilds;
        rung.push(phase("rung", w.rung, 0.2 * serve_s / rounds, &mut mirror));
        // Offered at several times capacity, so the round lasts several
        // times its schedule: budget a third of its share as schedule.
        overload.push(phase(
            "overload",
            w.overload,
            0.25 * serve_s / rounds / 3.0,
            &mut mirror,
        ));
        // The audit worker drains what the overload sampled before the
        // next measurement starts.
        let drain = Instant::now();
        while stack.service.audit_backlog() > 0 && drain.elapsed().as_secs_f64() < 2.0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        train(args.seconds * (1.0 - w.serve_share) / rounds)?;
    }
    let rounds_wall = rounds_started.elapsed().as_secs_f64();
    let setup_s = median(times.iter().map(|t| t.total));
    let spread = stats::sorted(times.iter().map(|t| t.total));
    r.note(
        "setup_s_min_median_max",
        format!("{} {setup_s} {}", spread[0], spread[spread.len() - 1]),
    );
    r.note("setups", times.len());
    let audit_after = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
    let value = |name: &str| inbox_obs::value_snapshot(name);
    let wait_us = |lock: &str| {
        inbox_obs::span_snapshot(&format!("lock.{lock}.wait")).map_or(0.0, |s| s.p99 as f64 / 1e3)
    };
    let batch_mean =
        value("serve.batch.size").map_or(0.0, |s| s.sum as f64 / s.count.max(1) as f64);
    let depth_p99 = value("serve.queue.depth").map_or(0.0, |s| s.p99 as f64);
    let cand_mean =
        value("engine.candidates.size").map_or(0.0, |s| s.sum as f64 / s.count.max(1) as f64);
    let (lock_queue, lock_live, lock_cache) = (
        wait_us("batcher.queue"),
        wait_us("engine.live"),
        wait_us("engine.cache"),
    );
    let overload_rps = median(overload.iter().map(Phase::ok_rate));
    let saturated = overload.iter().filter(|p| p.saturated()).count();
    r.note("overload_rounds_saturated", format!("{saturated}/{ROUNDS}"));
    let (light, nominal, rung, overload) = (
        Phase::pool(light),
        Phase::pool(nominal),
        Phase::pool(rung),
        Phase::pool(overload),
    );
    // Capacity: the answered rate of the highest ladder rung (light,
    // nominal, rung) that meets the limit with every request answered and
    // a generator that kept up. The rungs sit well clear of the knee, so
    // host speed drifts do not flip them; the overload shows the knee.
    let mut capacity = light.ok_rate();
    for p in [&nominal, &rung] {
        if !p.meets(w.p99_limit_ms / 1e3) {
            break;
        }
        capacity = p.ok_rate();
    }

    let verified = serving::verify(
        &stack,
        &inputs,
        &mut mirror,
        &mut verify_rng,
        w.writes,
        !matches!(w.index, inbox_serve::IndexMode::Ivf { .. }),
        VERIFY,
    );
    r.wrong.extend(verified.wrong.iter().cloned());
    stack.stop();

    // Accounting across every phase.
    let phases = [&light, &nominal, &rung, &overload];
    let count = |ps: &[&Phase], st: Status| ps.iter().map(|p| p.count(st)).sum::<usize>();
    let sent: usize = phases.iter().map(|p| p.samples.len()).sum();
    let not_ok = sent - count(&phases, Status::Ok);
    r.attempted += sent + VERIFY;
    r.failed += not_ok + verified.wrong.len();
    for p in &phases {
        r.note_phase(p);
    }

    let light_rec = light.recommend();
    let nom_rec = nominal.recommend();
    let nom_ing = nominal.ingest();
    r.note("nominal_recommend_samples", nom_rec.len());
    r.note("nominal_ingest_samples", nom_ing.len());
    r.note("light_recommend_samples", light_rec.len());
    r.note("verified_answers", verified.checked);
    r.note("p99_limit_ms", w.p99_limit_ms);

    // End-to-end.
    r.put("setup_s", setup_s, "s");
    r.put("recommend_p50_ms", ms(&nom_rec, 0.5), "ms");
    r.put("recommend_p99_ms", ms(&nom_rec, 0.99), "ms");
    r.put("recommend_light_p50_ms", ms(&light_rec, 0.5), "ms");
    r.put("ingest_p50_ms", ms(&nom_ing, 0.5), "ms");
    r.put("ingest_p99_ms", ms(&nom_ing, 0.99), "ms");
    r.put("capacity_rps", capacity, "req/s");
    r.put("loadgen.overload.ok_rps", overload_rps, "req/s");
    r.put("recall_at_20", verified.recall, "ratio");

    // Per-layer: load-dependent counters (cache counts over light and
    // nominal traffic; histograms over all serving rounds).
    let (d_hits, d_rebuilds, d_requests) =
        (served.cache_hits, served.rebuilds, served.requests.max(1));
    r.put("http.connect_us.p99", us(&nominal.connects(), 0.99), "us");
    r.put("batcher.batch_size.mean", batch_mean, "count");
    r.put("batcher.queue_depth.p99", depth_p99, "count");
    r.put("lock.batcher.queue.wait_us.p99", lock_queue, "us");
    r.put("lock.engine.live.wait_us.p99", lock_live, "us");
    r.put("lock.engine.cache.wait_us.p99", lock_cache, "us");
    r.put(
        "cache.hit_ratio",
        d_hits as f64 / (d_hits + d_rebuilds).max(1) as f64,
        "ratio",
    );
    r.put(
        "predict.rebuilds_per_request",
        d_rebuilds as f64 / d_requests as f64,
        "ratio",
    );
    r.put("index.candidates.mean", cand_mean, "count");
    r.put(
        "index.useful_frac",
        if cand_mean > 0.0 {
            K as f64 / cand_mean
        } else {
            0.0
        },
        "ratio",
    );
    let audited = audit_after.audited.saturating_sub(audit_before.audited);
    let sampled = audit_after.sampled.saturating_sub(audit_before.sampled);
    let shed = audit_after.shed.saturating_sub(audit_before.shed);
    r.put(
        "audit.shed_frac",
        shed as f64 / sampled.max(1) as f64,
        "ratio",
    );
    r.put("loadgen.lag_us.p99", us(&nominal.lags(), 0.99), "us");
    for ([s, o, f], p) in [
        (
            [
                "loadgen.light.sent",
                "loadgen.light.ok",
                "loadgen.light.failed",
            ],
            &light,
        ),
        (
            [
                "loadgen.nominal.sent",
                "loadgen.nominal.ok",
                "loadgen.nominal.failed",
            ],
            &nominal,
        ),
        (
            [
                "loadgen.rung.sent",
                "loadgen.rung.ok",
                "loadgen.rung.failed",
            ],
            &rung,
        ),
        (
            [
                "loadgen.overload.sent",
                "loadgen.overload.ok",
                "loadgen.overload.failed",
            ],
            &overload,
        ),
    ] {
        let ok = p.count(Status::Ok);
        r.put(s, p.samples.len() as f64, "count");
        r.put(o, ok as f64, "count");
        r.put(f, (p.samples.len() - ok) as f64, "count");
    }
    r.put("error_frac", not_ok as f64 / sent.max(1) as f64, "ratio");

    // Per-layer: the traced replay.
    if let Some((index_build_s, rep)) = &replayed {
        let all = |_: &replay::Layers| true;
        let http_self = rep.us(all, |l| l.http_self() as f64);
        let batcher_self = rep.us(all, |l| l.batcher_self() as f64);
        let now = rep.us(all, |l| l.now as f64);
        let rebuild = rep.us(|l| l.miss, |l| l.rebuild as f64);
        let score = rep.us(all, |l| l.score as f64);
        let topk = rep.us(all, |l| l.topk as f64);
        let probe = rep.us(all, |l| l.probe as f64);
        let rerank = rep.us(all, |l| l.rerank as f64);
        let residual = rep.us(all, |l| l.residual() as f64);
        let residual_frac = stats::sorted(
            rep.requests
                .iter()
                .map(|l| l.residual() as f64 / l.http.max(1) as f64),
        );
        let http = rep.us(all, |l| l.http as f64);
        let rep_http_p50_us = quantile(&http, 0.5);
        r.put("http.self_us.p50", quantile(&http_self, 0.5), "us");
        r.put("http.self_us.p99", quantile(&http_self, 0.99), "us");
        r.put("batcher.self_us.p50", quantile(&batcher_self, 0.5), "us");
        r.put("batcher.self_us.p99", quantile(&batcher_self, 0.99), "us");
        r.put(
            "batcher.queue_wait_us.p50",
            ms(&nom_rec, 0.5) * 1e3 - rep_http_p50_us,
            "us",
        );
        r.put("engine.recommend_now_us.p50", quantile(&now, 0.5), "us");
        r.put("engine.recommend_now_us.p99", quantile(&now, 0.99), "us");
        let ingest = stats::sorted(rep.ingest_s.iter().copied());
        r.put("engine.ingest_us.p50", us(&ingest, 0.5), "us");
        r.put("engine.ingest_us.p99", us(&ingest, 0.99), "us");
        r.put("predict.rebuild_us.p50", quantile(&rebuild, 0.5), "us");
        r.put("predict.rebuild_us.p99", quantile(&rebuild, 0.99), "us");
        let score_us = quantile(&score, 0.5);
        let full_scan = topk.last().is_some_and(|&t| t > 0.0);
        let items_per_s = if full_scan {
            inputs.n_items() as f64 / (score_us / 1e6)
        } else {
            0.0
        };
        // Computed, not measured: one f32 item-matrix read per scan.
        let gb_per_s = items_per_s * inputs.cfg.dim as f64 * 4.0 / 1e9;
        let stream = replay::stream_triad_gb_per_s(TRIAD_LEN, 5);
        r.put("predict.score_us.p50", score_us, "us");
        r.put("predict.items_scored_per_s", items_per_s, "items/s");
        r.put("predict.score_gb_per_s", gb_per_s, "GB/s");
        r.put("host.stream_gb_per_s", stream, "GB/s");
        r.put("predict.score_roofline_frac", gb_per_s / stream, "ratio");
        r.put("eval.topk_us.p50", quantile(&topk, 0.5), "us");
        r.put("index.probe_us.p50", quantile(&probe, 0.5), "us");
        r.put("index.rerank_us.p50", quantile(&rerank, 0.5), "us");
        r.put("index.build_s", *index_build_s, "s");
        let audit = stats::sorted(rep.audit_s.iter().copied());
        r.put("audit.rerank_us.p50", us(&audit, 0.5), "us");
        r.put(
            "audit.cpu_share",
            audited as f64 * quantile(&audit, 0.5) / rounds_wall,
            "ratio",
        );
        r.put(
            "obs.ns_per_request",
            median(rep.obs_ns.iter().copied()),
            "ns",
        );
        r.put("residual_us.p50", quantile(&residual, 0.5), "us");
        r.put("residual_frac", quantile(&residual_frac, 0.5), "ratio");
        r.put(
            "bench.trace_overhead_frac",
            rep_http_p50_us / (ms(&light_rec, 0.5) * 1e3) - 1.0,
            "ratio",
        );
        r.note("replayed_reads", rep.requests.len());
        r.note(
            "replayed_misses",
            rep.requests.iter().filter(|l| l.miss).count(),
        );
        r.note("stream_triad_bytes", 3 * 4 * TRIAD_LEN);
        write_out(
            &format!("{}-seed{}-spans.jsonl", w.name, args.seed),
            &rep.spans_jsonl(),
        );

        // Set-up breakdown.
        let history = median((0..SETUPS_MIN).map(|_| {
            let t = Instant::now();
            std::hint::black_box(HistoryCache::build(
                &inputs.ds.kg,
                &inputs.ds.train,
                &inputs.cfg,
            ));
            t.elapsed().as_secs_f64()
        }));
        r.put("setup.history_build_s", history, "s");
        r.put(
            "setup.engine_new_s",
            median(times.iter().map(|t| t.engine_new)),
            "s",
        );
        r.put(
            "setup.service_start_s",
            median(times.iter().map(|t| t.service_start)),
            "s",
        );
    }
    Ok(setup_s)
}

impl Report {
    fn note_phase(&mut self, p: &Phase) {
        let rec = p.recommend();
        self.notes.push((
            "phase",
            format!(
                "{} rate={} sent={} ok={} shed={} failed={} ok_rate={:.1} p50_ms={:.3} p90_ms={:.3} p95_ms={:.3} p99_ms={:.3} lag_p99_us={:.0}",
                p.name,
                p.rate,
                p.samples.len(),
                p.count(Status::Ok),
                p.count(Status::Shed),
                p.count(Status::Failed),
                p.ok_rate(),
                ms(&rec, 0.5),
                ms(&rec, 0.9),
                ms(&rec, 0.95),
                ms(&rec, 0.99),
                us(&p.lags(), 0.99),
            ),
        ));
    }
}

fn write_out(file: &str, text: &str) {
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(file), text);
    }
}

fn run(w: &Workload, args: &Args) -> Report {
    let mut r = Report::default();
    inbox_obs::set_enabled(true);
    inbox_obs::set_trace_sampling(1);
    let mut rng = Rng::new(args.seed);
    let train_inputs = TrainInputs::new();
    let mut training = Training::new();
    let mut train = |secs: f64| training.extend(&train_inputs, args.seed, secs);
    let serving_setup = match serve(w, args, &mut rng, &mut r, &mut train) {
        Ok(s) => s,
        Err(e) => {
            r.wrong.push(e);
            return r;
        }
    };
    r.attempted += training.epochs.len();
    r.note("train_epochs", training.epochs.len());
    r.note(
        "train_samples_per_epoch",
        training.epochs[0].total_samples(),
    );
    r.note("train_loss", training.epochs[0].loss);
    r.put("train_samples_per_s", training.samples_per_s(), "samples/s");
    if w.training_setup {
        // The training set-up is this workload's set-up.
        r.metrics.retain(|m| m.name != "setup_s");
        r.put("setup_s", training.setup_median_s(), "s");
        r.note("serving_setup_s", serving_setup);
    }
    r.put(
        "trainer.stage1_samples_per_s",
        training.stage_samples_per_s(0),
        "samples/s",
    );
    r.put(
        "trainer.stage2_samples_per_s",
        training.stage_samples_per_s(1),
        "samples/s",
    );
    r.put(
        "trainer.stage3_samples_per_s",
        training.stage_samples_per_s(2),
        "samples/s",
    );
    r.put("trainer.sample_epoch_s", training.sample_epoch_s(), "s");
    r.put(
        "autodiff.grad_batch_us.p50",
        training.grad_batch_us_p50(),
        "us",
    );
    r.put(
        "autodiff.adam_step_us.p50",
        training.adam_step_us_p50(),
        "us",
    );
    r.put("rss_peak_mb", rss_peak_mb(), "MB");
    r
}

/// The end-to-end metrics (the `--trace 0` output); every other metric is
/// per-layer. `capacity_rps`, `ingest_p50_ms`, the p99s and
/// `train_samples_per_s` are reported per-layer: under host CPU contention
/// on a 2-vCPU VM they moved by more than 25% between runs of the same
/// code, so no regression bound holds.
const END_TO_END: &[&str] = &[
    "setup_s",
    "rss_peak_mb",
    "recommend_p50_ms",
    "recommend_light_p50_ms",
    "recall_at_20",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                workloads::WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workloads::find(&args.workload) else {
        eprintln!("servebench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let started = Instant::now();
    let r = run(w, &args);
    let correct = r.wrong.is_empty();

    let provenance = format!(
        "{{\"git_rev\":{},\"source_hash\":{},\"nproc\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"wall_s\":{},{}}}",
        json_str(&git_rev()),
        json_str(&source_hash()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(w.name),
        args.seed,
        args.seconds,
        args.trace,
        json_num(started.elapsed().as_secs_f64()),
        r.notes
            .iter()
            .filter(|(k, _)| *k != "phase")
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(","),
    );
    for (k, v) in &r.notes {
        if *k == "phase" {
            eprintln!("phase {v}");
        }
    }
    for m in &r.metrics {
        eprintln!("{:<34} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    for e in &r.wrong {
        eprintln!("WRONG: {e}");
    }
    let wanted = |m: &&Metric| END_TO_END.contains(&m.name) != args.trace;
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .filter(wanted)
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let all: Vec<String> = r
        .metrics
        .iter()
        .map(|m| format!("{}:{}", json_str(m.name), json_num(m.value)))
        .collect();
    write_out(
        &format!("{}-seed{}-trace{}.json", w.name, args.seed, u8::from(args.trace)),
        &format!(
            "{{\"provenance\":{provenance},\"correct\":{correct},\"metrics\":{{{}}},\"phases\":[{}],\"wrong\":[{}]}}\n",
            all.join(","),
            r.notes
                .iter()
                .filter(|(k, _)| *k == "phase")
                .map(|(_, v)| json_str(v))
                .collect::<Vec<_>>()
                .join(","),
            r.wrong.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(","),
        ),
    );
    println!("{provenance}");
    if !correct {
        println!(
            "{{\"correct\":false,\"attempted\":{},\"failed\":{},\"metrics\":{{}}}}",
            r.attempted.max(1),
            r.failed.max(1)
        );
        return ExitCode::from(1);
    }
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

/// Runs every workload in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for w in workloads::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args([
                "--workload",
                w.name,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            code = ExitCode::from(1);
        }
    }
    code
}
