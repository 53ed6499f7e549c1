//! End-to-end hot-path throughput benchmark: gradient samples/sec for each
//! training stage and wall-clock for the inference path (`all_user_boxes`
//! plus a full ranking pass).
//!
//! Writes `BENCH_throughput.json` at the repo root; `bench history` records
//! it into `BENCH_LEDGER.jsonl`, which holds the perf trajectory, and
//! `bench compare` diffs a fresh report against the latest entry:
//!
//! ```text
//! cargo run --release -p inbox-bench --bin throughput
//! ```
//!
//! `--quick` runs a single repetition on the tiny dataset (CI smoke mode,
//! written to `--out` or discarded); `--threads N` overrides the worker
//! count (default 1 so numbers are comparable on any machine);
//! `--items-scale N` sets the catalog multiplier for the indexed and scan
//! stages (default 100, or 10 under `--quick`).
//!
//! The indexed stage runs at d = 32, 128 and 512 on tag-clustered item
//! points, plus once at d = 32 on uniform (untrained) points, where the
//! rectangle bound prunes nothing (`--quick`: the two d = 32 cases).
//!
//! The scan stage times `ItemScorer::score_box_into` alone on that catalog
//! twin at d = 32, 128 and 512 (d = 32 only under `--quick`), reporting
//! items/s, GB/s of item matrix read (`n · d · 4` bytes per scan) and the
//! lane backend the scan ran on.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use inbox_autodiff::Adam;
use inbox_core::model::{InBoxModel, UniverseSizes};
use inbox_core::predict::{all_user_boxes_with, user_interest_box, HistoryCache};
use inbox_core::sampler::{stage1_epoch, stage2_epoch, stage3_epoch, Stage1Stats};
use inbox_core::stages::{stage1_loss, stage2_loss, stage3_loss, BatchRunner};
use inbox_core::{BoxEmb, InBoxConfig, ItemScorer, ScoreScratch};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_eval::{evaluate_with_threads, top_k_masked_into, TopKScratch};
use inbox_index::{auto_nprobe, BoxQuery, IvfIndex, IvfParams, QueryScratch};
use inbox_kg::{ItemId, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One set of throughput measurements (higher is better except `*_ms`).
#[derive(Debug, Clone, Serialize)]
struct Numbers {
    stage1_samples_per_sec: f64,
    stage2_samples_per_sec: f64,
    stage3_samples_per_sec: f64,
    /// Wall-clock of one full `all_user_boxes` pass (best of reps).
    user_boxes_ms: f64,
    /// Wall-clock of one full ranking/evaluation pass (best of reps).
    rank_ms: f64,
    users_ranked_per_sec: f64,
}

/// The candidate-index stage at one shape: full-sort vs IVF top-20
/// ranking on the items-scaled catalog twin (`--items-scale`, default
/// 100x), the IVF side on a scorer whose rows are in partition order, as
/// the serving engine keeps them. `rank_speedup` is full-sort wall-clock
/// over IVF wall-clock for the same user set; `recall_at_20` is measured
/// against the exact full-sort top-20; `probe_ms` and `rerank_ms` are
/// `IvfIndex::select_probes` and `IvfIndex::rerank` alone over the same
/// users; `exact_frac` is the share of answers `rerank` proved exact.
#[derive(Debug, Clone, Serialize)]
struct IndexedStage {
    items_scale: usize,
    n_items: usize,
    n_users_ranked: usize,
    /// Item points tag-clustered (trained-like) or uniform (untrained).
    clustered: bool,
    nlist: usize,
    nprobe: usize,
    build_ms: f64,
    full_rank_ms: f64,
    ivf_rank_ms: f64,
    probe_ms: f64,
    rerank_ms: f64,
    rank_speedup: f64,
    recall_at_20: f64,
    exact_frac: f64,
    mean_candidates: f64,
    candidates_per_sec: f64,
}

/// One point of the scan stage's d sweep: the full scan
/// (`ItemScorer::score_box_into`) of the items-scaled catalog twin against
/// one interest box, best of reps, averaged over [`SCAN_BOXES`] boxes.
#[derive(Debug, Clone, Serialize)]
struct ScanPoint {
    n_items: usize,
    /// `"avx2"`, `"sse2"` or `"portable"` (`ItemScorer::backend`).
    backend: &'static str,
    scan_ms: f64,
    items_per_sec: f64,
    /// Item-matrix bytes read per second: `n · d · 4` per scan.
    gb_per_sec: f64,
}

/// Interest boxes scored per timed rep of the scan stage.
const SCAN_BOXES: usize = 8;

#[derive(Debug, Clone, Serialize)]
struct Report {
    dataset: String,
    dim: usize,
    threads: usize,
    batch_size: usize,
    reps: usize,
    current: Numbers,
    /// The indexed stage, keyed `d32`, `d128`, `d512` and `d32_uniform`.
    indexed: BTreeMap<String, IndexedStage>,
    /// The scan stage, keyed `d32`, `d128`, `d512`.
    scan: BTreeMap<String, ScanPoint>,
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("at least one rep"))
}

fn measure(ds: &Dataset, cfg: &InBoxConfig, reps: usize) -> Numbers {
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.n_users(),
    };
    let stats = Stage1Stats::new(&ds.kg);
    let mut rng = StdRng::seed_from_u64(99);
    let s1 = stage1_epoch(&ds.kg, &stats, cfg, &mut rng);
    let s2 = stage2_epoch(&ds.kg, cfg, &mut rng);
    let s3 = stage3_epoch(&ds.kg, &ds.train, cfg, &mut rng);
    // The persistent worker pool and reusable gradient buffer are created
    // once per training run, exactly as `train()` does, so the per-epoch
    // numbers below measure the steady-state hot path.
    let runner = BatchRunner::new(cfg.threads);
    let adam = Adam::with_lr(cfg.lr);

    // One full epoch of gradient batches + optimiser steps per stage,
    // repeated `reps` times on a fresh model each; best rep wins.
    let stage_rate = |samples_len: usize, run: &mut dyn FnMut(&mut InBoxModel)| -> f64 {
        let (secs, _) = best_of(reps, || {
            let mut model = InBoxModel::new(sizes, cfg);
            run(&mut model);
        });
        samples_len as f64 / secs
    };

    let stage1 = stage_rate(s1.len(), &mut |model| {
        let mut grads = inbox_autodiff::GradStore::new();
        for batch in s1.chunks(cfg.batch_size) {
            runner.grad_batch_into(
                model,
                batch,
                &|m, t, s| stage1_loss(m, t, s, cfg),
                &mut grads,
            );
            adam.step(&mut model.store, &grads);
        }
    });
    let stage2 = stage_rate(s2.len(), &mut |model| {
        let mut grads = inbox_autodiff::GradStore::new();
        for batch in s2.chunks(cfg.batch_size) {
            runner.grad_batch_into(
                model,
                batch,
                &|m, t, s| stage2_loss(m, t, s, cfg),
                &mut grads,
            );
            adam.step(&mut model.store, &grads);
        }
    });
    let stage3 = stage_rate(s3.len(), &mut |model| {
        let mut grads = inbox_autodiff::GradStore::new();
        for batch in s3.chunks(cfg.batch_size) {
            runner.grad_batch_into(
                model,
                batch,
                &|m, t, s| stage3_loss(m, t, s, cfg),
                &mut grads,
            );
            adam.step(&mut model.store, &grads);
        }
    });

    // Inference: the per-user history cache is built once per training run
    // (history and KG are immutable during training), so it is excluded from
    // the per-pass timing the same way the trainer amortises it.
    let model = InBoxModel::new(sizes, cfg);
    let cache = HistoryCache::build(&ds.kg, &ds.train, cfg);
    let (boxes_secs, boxes) = best_of(reps, || {
        all_user_boxes_with(&model, &cache, cfg, runner.pool())
    });

    let scorer = ItemScorer::new(&model, cfg, sizes.n_items);
    let score = |user: UserId| scorer.score_user(boxes[user.index()].as_ref());
    let (rank_secs, metrics) = best_of(reps, || {
        evaluate_with_threads(&score, &ds.train, &ds.test, 20, cfg.threads)
    });

    Numbers {
        stage1_samples_per_sec: stage1,
        stage2_samples_per_sec: stage2,
        stage3_samples_per_sec: stage3,
        user_boxes_ms: boxes_secs * 1e3,
        rank_ms: rank_secs * 1e3,
        users_ranked_per_sec: metrics.n_users_evaluated as f64 / rank_secs,
    }
}

/// The probe query of box `b`, whose bounds `scratch` holds.
fn query<'a>(scorer: &ItemScorer, b: &'a BoxEmb, scratch: &'a ScoreScratch) -> BoxQuery<'a> {
    BoxQuery {
        lo: scratch.lo(),
        hi: scratch.hi(),
        cen: &b.cen,
        inside_weight: scorer.inside_weight(),
        gamma: scorer.gamma(),
        bound_slack: 0.0,
    }
}

/// Mean per-user overlap fraction between two top-k rankings.
fn overlap(want: &[Vec<ItemId>], got: &[Vec<ItemId>]) -> f64 {
    let mut hits = 0u64;
    let mut total = 0u64;
    for (w, g) in want.iter().zip(got) {
        total += w.len() as u64;
        hits += w.iter().filter(|i| g.contains(i)).count() as u64;
    }
    hits as f64 / total.max(1) as f64
}

/// Measures the indexed stage at dimension `cfg.dim`: build an
/// items-scaled twin of `synth`, warm-start clustered item points when
/// `clustered` (the post-training regime the index serves in — see
/// `InBoxModel::set_item_points`), then time exact full-sort top-20
/// against IVF-probed top-20 over every user with a box.
fn measure_indexed(
    synth: &SyntheticConfig,
    cfg: &InBoxConfig,
    clustered: bool,
    reps: usize,
    scale: usize,
) -> IndexedStage {
    let big = synth.clone().with_items_scale(scale);
    let ds = Dataset::synthetic(&big, 7);
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.n_users(),
    };
    let mut model = InBoxModel::new(sizes, cfg);
    if clustered {
        // Tag-granular clusters: trained item points gather around the tag
        // boxes that contain them (Figure 5 colors the PCA projection by
        // genre), so the cluster count follows the tag vocabulary, not the
        // catalog size.
        inbox_testkit::harness::cluster_item_points(
            &mut model,
            ds.kg.n_tags().max(1),
            0.05,
            0x1db0,
        );
    }

    let runner = BatchRunner::new(cfg.threads);
    let cache = HistoryCache::build(&ds.kg, &ds.train, cfg);
    let boxes = all_user_boxes_with(&model, &cache, cfg, runner.pool());
    let mut scorer = ItemScorer::new(&model, cfg, ds.kg.n_items());
    let users: Vec<&BoxEmb> = boxes.iter().flatten().collect();
    let k = 20;

    let (build_secs, index) = best_of(reps, || {
        IvfIndex::build(scorer.items(), scorer.dim(), &IvfParams::default())
            .expect("index build on a well-shaped catalog")
    });
    let nlist = index.nlist();
    let nprobe = auto_nprobe(nlist);

    // Exact full sort through the production path (score_box_into +
    // top_k_masked_into) on rows in id order, unmasked on both sides.
    let mut scores = Vec::new();
    let mut score_scratch = ScoreScratch::default();
    let mut topk = TopKScratch::default();
    let mut top: Vec<ItemId> = Vec::new();
    let (full_secs, full_tops) = best_of(reps, || {
        let mut tops: Vec<Vec<ItemId>> = Vec::with_capacity(users.len());
        for b in &users {
            scorer.score_box_into(b, &mut score_scratch, &mut scores);
            top_k_masked_into(&scores, &[], k, &mut topk, &mut top);
            tops.push(top.clone());
        }
        tops
    });

    // IVF: probe selection + box-pruned exact re-rank, same users, rows in
    // partition order as `Engine::new` stores them.
    scorer.order_rows(index.member_order());
    let mut qscratch = QueryScratch::default();
    let mut ranked: Vec<(ItemId, f32)> = Vec::new();
    let (ivf_secs, (ivf_tops, candidates, exact)) = best_of(reps, || {
        let mut tops: Vec<Vec<ItemId>> = Vec::with_capacity(users.len());
        let (mut candidates, mut exact) = (0u64, 0usize);
        for b in &users {
            scorer.prepare_box_bounds(b, &mut score_scratch);
            let q = query(&scorer, b, &score_scratch);
            index.select_probes(&q, nprobe, &mut qscratch);
            let stats = index.rerank(
                &q,
                k,
                &[],
                |i| scorer.score_item_prepared(b, &score_scratch, i),
                &mut qscratch,
                &mut ranked,
            );
            candidates += stats.candidates as u64;
            exact += usize::from(stats.exact);
            tops.push(ranked.iter().map(|&(i, _)| i).collect());
        }
        (tops, candidates, exact)
    });

    // Probe selection alone, then the re-rank alone, summed per user.
    let (mut probe_secs, mut rerank_secs) = (f64::MAX, f64::MAX);
    for _ in 0..reps.max(1) {
        let (mut probe, mut rerank) = (0.0, 0.0);
        for b in &users {
            scorer.prepare_box_bounds(b, &mut score_scratch);
            let q = query(&scorer, b, &score_scratch);
            let t = Instant::now();
            index.select_probes(&q, nprobe, &mut qscratch);
            probe += t.elapsed().as_secs_f64();
            let t = Instant::now();
            index.rerank(
                &q,
                k,
                &[],
                |i| scorer.score_item_prepared(b, &score_scratch, i),
                &mut qscratch,
                &mut ranked,
            );
            rerank += t.elapsed().as_secs_f64();
        }
        probe_secs = probe_secs.min(probe);
        rerank_secs = rerank_secs.min(rerank);
    }

    let n_users = users.len().max(1) as f64;
    IndexedStage {
        items_scale: scale,
        n_items: ds.kg.n_items(),
        n_users_ranked: users.len(),
        clustered,
        nlist,
        nprobe,
        build_ms: build_secs * 1e3,
        full_rank_ms: full_secs * 1e3,
        ivf_rank_ms: ivf_secs * 1e3,
        probe_ms: probe_secs * 1e3,
        rerank_ms: rerank_secs * 1e3,
        rank_speedup: full_secs / ivf_secs,
        recall_at_20: overlap(&full_tops, &ivf_tops),
        exact_frac: exact as f64 / n_users,
        mean_candidates: candidates as f64 / n_users,
        candidates_per_sec: candidates as f64 / ivf_secs,
    }
}

/// Measures the scan stage at dimension `dim` on the items-scaled twin of
/// `synth` (the indexed stage's catalog), with untrained parameters: the
/// scan's cost does not depend on the values it reads.
fn measure_scan(synth: &SyntheticConfig, dim: usize, reps: usize, scale: usize) -> ScanPoint {
    let ds = Dataset::synthetic(&synth.clone().with_items_scale(scale), 7);
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.n_users(),
    };
    let cfg = InBoxConfig::for_dim(dim);
    let model = InBoxModel::new(sizes, &cfg);
    let boxes: Vec<_> = (0..ds.n_users() as u32)
        .filter_map(|u| user_interest_box(&model, &ds.kg, &ds.train, &cfg, UserId(u)))
        .take(SCAN_BOXES)
        .collect();
    let scorer = ItemScorer::new(&model, &cfg, sizes.n_items);
    let mut scratch = ScoreScratch::default();
    let mut scores = Vec::new();
    let (secs, ()) = best_of(reps, || {
        for b in &boxes {
            scorer.score_box_into(b, &mut scratch, &mut scores);
        }
    });
    let per_scan = secs / boxes.len().max(1) as f64;
    let n = sizes.n_items as f64;
    ScanPoint {
        n_items: sizes.n_items,
        backend: scorer.backend(),
        scan_ms: per_scan * 1e3,
        items_per_sec: n / per_scan,
        gb_per_sec: n * dim as f64 * 4.0 / per_scan / 1e9,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let items_scale = args
        .iter()
        .position(|a| a == "--items-scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 10 } else { 100 });
    let out_path: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json")
        });

    inbox_obs::set_enabled(true);
    let synth = if quick {
        SyntheticConfig::tiny()
    } else {
        SyntheticConfig::small()
    };
    let reps = if quick { 1 } else { 5 };
    let ds = Dataset::synthetic(&synth, 7);
    let cfg = InBoxConfig {
        threads,
        ..InBoxConfig::for_dim(32)
    };

    println!(
        "throughput bench: dataset {} ({} users, {} items, {} triples), dim {}, threads {}, {} rep(s)",
        synth.name,
        ds.n_users(),
        ds.n_items(),
        ds.kg.n_triples(),
        cfg.dim,
        threads,
        reps
    );

    let current = measure(&ds, &cfg, reps);
    let scan_dims: &[usize] = if quick { &[32] } else { &[32, 128, 512] };
    let shapes = scan_dims
        .iter()
        .map(|&d| (format!("d{d}"), d, true))
        .chain([("d32_uniform".to_string(), 32, false)]);
    let indexed = shapes
        .map(|(key, d, clustered)| {
            let cfg = InBoxConfig {
                threads,
                ..InBoxConfig::for_dim(d)
            };
            (
                key,
                measure_indexed(&synth, &cfg, clustered, reps, items_scale),
            )
        })
        .collect();
    let scan = scan_dims
        .iter()
        .map(|&d| (format!("d{d}"), measure_scan(&synth, d, reps, items_scale)))
        .collect();

    let report = Report {
        dataset: synth.name.clone(),
        dim: cfg.dim,
        threads,
        batch_size: cfg.batch_size,
        reps,
        current,
        indexed,
        scan,
    };

    println!(
        "stage1 {:>10.0} samples/s\nstage2 {:>10.0} samples/s\nstage3 {:>10.0} samples/s",
        report.current.stage1_samples_per_sec,
        report.current.stage2_samples_per_sec,
        report.current.stage3_samples_per_sec,
    );
    println!(
        "user boxes {:>8.1} ms   ranking {:>8.1} ms ({:.0} users/s)",
        report.current.user_boxes_ms, report.current.rank_ms, report.current.users_ranked_per_sec,
    );
    for (shape, ix) in &report.indexed {
        println!(
            "indexed {shape} @{}x catalog ({} items, {} users): nlist {} nprobe {} build {:.1} ms",
            ix.items_scale, ix.n_items, ix.n_users_ranked, ix.nlist, ix.nprobe, ix.build_ms,
        );
        println!(
            "  full sort {:>8.1} ms   ivf {:>8.1} ms (probe {:.1} ms, rerank {:.1} ms)   speedup {:.2}x   recall@20 {:.4}   exact {:.3}   {:.0} cand/user",
            ix.full_rank_ms,
            ix.ivf_rank_ms,
            ix.probe_ms,
            ix.rerank_ms,
            ix.rank_speedup,
            ix.recall_at_20,
            ix.exact_frac,
            ix.mean_candidates,
        );
    }

    for (d, p) in &report.scan {
        println!(
            "scan {d:>4} ({} items, {}): {:>8.3} ms   {:>6.1} M items/s   {:>6.2} GB/s",
            p.n_items,
            p.backend,
            p.scan_ms,
            p.items_per_sec / 1e6,
            p.gb_per_sec,
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("serialise throughput report");
    std::fs::write(&out_path, json).expect("write BENCH_throughput.json");
    println!("[written {}]", out_path.display());
}
