//! The traced run's replay: a seeded sample of a workload's reads, one at a
//! time, each timed at every nested public entry point from outside the
//! program:
//!
//! 1. the HTTP `GET /recommend` round trip (connect included);
//! 2. `Service::recommend` (the micro-batcher plus the engine);
//! 3. `Engine::recommend_now`;
//! 4. the inner steps: `user_box_from_history` when the request misses the
//!    box cache, then `ItemScorer::score_box_into` + `top_k_masked_into`,
//!    or `IvfIndex::select_probes` + `IvfIndex::rerank`.
//!
//! The engine's scorer and index are private, so the replay builds its own
//! from the same frozen model and checks that its answer equals the
//! engine's: the code it times is the code that serves. Each level is
//! called separately, so a span's children are the next level's calls, not
//! sub-intervals of it; a layer's self time is its span minus its child
//! spans, and the residual is what `recommend_now` spends beyond the inner
//! steps. Spans stay in memory and are written out when the run ends.

use std::time::Instant;

use inbox_autodiff::Tape;
use inbox_core::predict::user_box_from_history;
use inbox_core::{BoxEmb, InBoxModel, ItemScorer, ScoreScratch};
use inbox_eval::{top_k_masked_into, TopKScratch};
use inbox_index::{
    auto_nlist, auto_nprobe, BoxQuery, IndexMode, IvfIndex, IvfParams, QueryScratch,
};
use inbox_kg::{ItemId, UserId};

use crate::serving::{Inputs, Stack, K};
use crate::stats::{quantile, sorted};
use crate::traffic::{Mirror, Rng, UserDraw, Writes};

/// Repetitions of each timed call; the fastest is kept.
const REPS: usize = 5;
/// History headroom a user needs to be replayed as a miss: one ingest
/// before the HTTP call, one before `Service::recommend` and one before
/// each `recommend_now` rep (the engine caps histories).
const MISS_HEADROOM: usize = REPS + 2;

/// One recorded span.
pub struct Span {
    pub request: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The replay's own scoring pipeline, built from the same frozen inputs.
pub struct Own {
    model: InBoxModel,
    scorer: ItemScorer,
    index: Option<(IvfIndex, usize)>,
    /// Time of the replay's own `IvfIndex::build`, seconds.
    pub index_build_s: f64,
}

impl Own {
    /// `(nlist, nprobe)` of the replay's own index, as `Engine::index_active`.
    pub fn index_active(&self) -> Option<(usize, usize)> {
        self.index
            .as_ref()
            .map(|(ix, nprobe)| (ix.nlist(), *nprobe))
    }

    pub fn new(inputs: &Inputs) -> Self {
        let model = inputs.model();
        let scorer = ItemScorer::with_quantization(
            &model,
            &inputs.cfg,
            inputs.n_items(),
            inputs.serve.quantize,
        );
        let clock = Instant::now();
        let index = match inputs.serve.index {
            IndexMode::FullSort => None,
            IndexMode::Ivf { nlist, nprobe } => {
                let nlist = if nlist == 0 {
                    auto_nlist(inputs.n_items())
                } else {
                    nlist
                };
                let params = IvfParams {
                    nlist,
                    ..IvfParams::default()
                };
                let ix = IvfIndex::build(scorer.items(), scorer.dim(), &params)
                    .expect("index builds on a well-shaped catalog");
                let nprobe = if nprobe == 0 {
                    auto_nprobe(ix.nlist())
                } else {
                    nprobe
                };
                let nprobe = nprobe.clamp(1, nlist);
                Some((ix, nprobe))
            }
        };
        let index_build_s = if index.is_some() {
            clock.elapsed().as_secs_f64()
        } else {
            0.0
        };
        Own {
            model,
            scorer,
            index,
            index_build_s,
        }
    }
}

/// Per-request layer times, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub miss: bool,
    pub http: u64,
    pub service: u64,
    pub now: u64,
    pub rebuild: u64,
    pub score: u64,
    pub topk: u64,
    pub probe: u64,
    pub rerank: u64,
    /// Second-fastest minus fastest `recommend_now` rep: the timing noise
    /// of the call the residual is taken from.
    pub now_jitter: u64,
}

impl Layers {
    pub fn http_self(&self) -> i64 {
        self.http as i64 - self.service as i64
    }

    pub fn batcher_self(&self) -> i64 {
        self.service as i64 - self.now as i64
    }

    fn inner(&self) -> u64 {
        self.rebuild + self.score + self.topk + self.probe + self.rerank
    }

    /// What `recommend_now` spent beyond the timed inner steps.
    pub fn residual(&self) -> i64 {
        self.now as i64 - self.inner() as i64
    }
}

/// Everything the replay measured.
pub struct Replay {
    pub spans: Vec<Span>,
    pub requests: Vec<Layers>,
    /// `Engine::ingest` times, seconds.
    pub ingest_s: Vec<f64>,
    /// `Engine::audit_rerank` times, seconds.
    pub audit_s: Vec<f64>,
    /// `recommend_now` with telemetry on minus off, per request, ns.
    pub obs_ns: Vec<f64>,
}

struct Clock {
    origin: Instant,
}

impl Clock {
    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }
}

/// Slots of the interleaved timing loop.
const NOW: usize = 0;
const REBUILD: usize = 1;
const SCORE: usize = 2;
const TOPK: usize = 3;
const PROBE: usize = 4;
const RERANK: usize = 5;

/// Keeps `[start, now)` in `best` when it is the fastest so far.
fn keep(best: &mut Option<(Instant, Instant)>, start: Instant) {
    let end = Instant::now();
    if best.is_none_or(|(a, b)| end - start < b - a) {
        *best = Some((start, end));
    }
}

/// Runs `f` `reps` times; returns the fastest run's interval and result.
fn fastest<T>(reps: usize, mut f: impl FnMut() -> T) -> (Instant, Instant, T) {
    let mut best: Option<(Instant, Instant, T)> = None;
    for _ in 0..reps.max(1) {
        let a = Instant::now();
        let v = f();
        let b = Instant::now();
        if best.as_ref().is_none_or(|(x, y, _)| b - a < *y - *x) {
            best = Some((a, b, v));
        }
    }
    best.expect("at least one repetition")
}

/// Replays `n` seeded reads (users drawn like the workload's traffic).
/// Under churn every third read is replayed as a cache miss: before each of
/// its timed calls the replay ingests a fresh item in-process, so each call
/// rebuilds the box from a history one item longer than the last.
pub fn run(
    stack: &Stack,
    inputs: &Inputs,
    own: &Own,
    mirror: &mut Mirror,
    rng: &mut Rng,
    writes: Writes,
    n: usize,
) -> Result<Replay, String> {
    let engine = stack.engine();
    let addr = stack.addr();
    let clock = Clock {
        origin: Instant::now(),
    };
    let draw = UserDraw::new(rng, inputs.n_users());
    let mut out = Replay {
        spans: Vec::new(),
        requests: Vec::new(),
        ingest_s: Vec::new(),
        audit_s: Vec::new(),
        obs_ns: Vec::new(),
    };
    let mut tape = Tape::new();
    let mut score = ScoreScratch::default();
    let mut scores = Vec::new();
    let mut topk = TopKScratch::default();
    let mut top = Vec::new();
    let mut query = QueryScratch::default();
    let mut ranked = Vec::new();

    for r in 0..n as u32 {
        let user = draw.draw(rng);
        let uid = UserId(user);
        let miss = writes == Writes::Churn
            && r % 3 == 0
            && mirror.history.history(uid).len() + MISS_HEADROOM <= inputs.cfg.max_history_infer;
        let reps = if miss { 1 } else { REPS };
        let mut bump = |mirror: &mut Mirror, out: &mut Replay| {
            if miss {
                let item = mirror.fresh_item(rng, user, inputs.n_items());
                mirror.ingest(&inputs.ds.kg, &inputs.cfg, user, item);
                let t = Instant::now();
                engine
                    .ingest(uid, ItemId(item))
                    .expect("known user and item");
                out.ingest_s.push(t.elapsed().as_secs_f64());
            }
        };
        let mut layers = Layers {
            miss,
            ..Layers::default()
        };
        let path = format!("/recommend?user={user}&k={K}");

        bump(mirror, &mut out);
        let (h0, h1, got) = fastest(reps, || crate::loadgen::http(addr, "GET", &path).1);
        match got {
            Ok((200, _)) => {}
            other => return Err(format!("replay GET {path}: {other:?}")),
        }
        bump(mirror, &mut out);
        let (s0, s1, got) = fastest(reps, || stack.service.recommend(uid, K));
        got.map_err(|e| format!("replay Service::recommend user {user}: {e}"))?;
        let http_id = push(&mut out.spans, &clock, r, None, "http.recommend", h0, h1);
        let svc_id = push(
            &mut out.spans,
            &clock,
            r,
            Some(http_id),
            "service.recommend",
            s0,
            s1,
        );
        layers.http = (h1 - h0).as_nanos() as u64;
        layers.service = (s1 - s0).as_nanos() as u64;

        // `recommend_now` and the inner steps, interleaved rep by rep so
        // both see the same machine state; the fastest of each is kept. A
        // miss ingests before every rep, so every `recommend_now` rebuilds.
        let mut best: [Option<(Instant, Instant)>; 6] = [None; 6];
        let mut now_ns = Vec::with_capacity(REPS);
        let mut served = None;
        let mut answer: Vec<(ItemId, f32)> = Vec::new();
        for _ in 0..REPS {
            bump(mirror, &mut out);
            let t = Instant::now();
            let got = engine.recommend_now(uid, K);
            keep(&mut best[NOW], t);
            now_ns.push(t.elapsed().as_nanos() as u64);
            served = Some(got.map_err(|e| format!("replay recommend_now user {user}: {e}"))?);

            let t = Instant::now();
            let b = user_box_from_history(
                &own.model,
                &inputs.cfg,
                &mut tape,
                uid,
                mirror.history.history(uid),
            );
            if miss {
                keep(&mut best[REBUILD], t);
            }
            let b: BoxEmb = b.ok_or_else(|| format!("user {user} has no history"))?;
            let mask = &mirror.masks[user as usize];
            answer = match &own.index {
                None => {
                    let t = Instant::now();
                    own.scorer.score_box_into(&b, &mut score, &mut scores);
                    keep(&mut best[SCORE], t);
                    let t = Instant::now();
                    top_k_masked_into(&scores, mask, K, &mut topk, &mut top);
                    keep(&mut best[TOPK], t);
                    top.iter().map(|&i| (i, scores[i.index()])).collect()
                }
                Some((index, nprobe)) => {
                    let t = Instant::now();
                    own.scorer.prepare_box_bounds(&b, &mut score);
                    keep(&mut best[SCORE], t);
                    let q = BoxQuery {
                        lo: score.lo(),
                        hi: score.hi(),
                        cen: &b.cen,
                        inside_weight: own.scorer.inside_weight(),
                        gamma: own.scorer.gamma(),
                        bound_slack: own.scorer.bound_slack(),
                    };
                    let t = Instant::now();
                    index.select_probes(&q, *nprobe, &mut query);
                    keep(&mut best[PROBE], t);
                    let t = Instant::now();
                    index.rerank(
                        &q,
                        K,
                        mask,
                        |i| own.scorer.score_item_prepared(&b, &score, i),
                        &mut query,
                        &mut ranked,
                    );
                    keep(&mut best[RERANK], t);
                    ranked.clone()
                }
            };
        }
        let served = served.expect("at least one repetition");
        if served.version != mirror.history.version(uid) {
            return Err(format!(
                "user {user}: engine at version {}, replay mirror at {}",
                served.version,
                mirror.history.version(uid)
            ));
        }
        if answer != served.items {
            return Err(format!(
                "user {user}: the replay's own pipeline ranks {answer:?}, the engine served {:?}",
                served.items
            ));
        }
        now_ns.sort_unstable();
        layers.now_jitter = now_ns[1] - now_ns[0];
        let (n0, n1) = best[NOW].expect("timed every rep");
        layers.now = (n1 - n0).as_nanos() as u64;
        let now_id = push(
            &mut out.spans,
            &clock,
            r,
            Some(svc_id),
            "engine.recommend_now",
            n0,
            n1,
        );
        let inner: [(usize, &'static str, &mut u64); 5] = [
            (REBUILD, "core.user_box_from_history", &mut layers.rebuild),
            (
                SCORE,
                if own.index.is_some() {
                    "core.prepare_box_bounds"
                } else {
                    "core.score_box_into"
                },
                &mut layers.score,
            ),
            (TOPK, "eval.top_k_masked_into", &mut layers.topk),
            (PROBE, "index.select_probes", &mut layers.probe),
            (RERANK, "index.rerank", &mut layers.rerank),
        ];
        for (step, name, slot) in inner {
            if let Some((a, b)) = best[step] {
                *slot = (b - a).as_nanos() as u64;
                push(&mut out.spans, &clock, r, Some(now_id), name, a, b);
            }
        }
        out.requests.push(layers);

        // Side probes on hit requests: telemetry cost and the audit re-rank.
        if !miss && out.obs_ns.len() < 16 {
            let on = fastest(REPS, || engine.recommend_now(uid, K));
            inbox_obs::set_enabled(false);
            let off = fastest(REPS, || engine.recommend_now(uid, K));
            inbox_obs::set_enabled(true);
            out.obs_ns
                .push((on.1 - on.0).as_nanos() as f64 - (off.1 - off.0).as_nanos() as f64);
            let (a0, a1, audited) = fastest(1, || {
                engine.audit_rerank(uid, served.version, K, &served.items)
            });
            if !matches!(audited, Ok(Some(_))) {
                return Err(format!("audit re-rank of user {user} failed: {audited:?}"));
            }
            out.audit_s.push((a1 - a0).as_secs_f64());
        }
    }

    // Re-recording writes never change state; time them too, so every
    // workload reports the write path.
    if writes == Writes::Rerecord {
        for _ in 0..32 {
            let user = draw.draw(rng);
            let item = mirror.known_item(rng, user);
            let t = Instant::now();
            engine
                .ingest(UserId(user), ItemId(item))
                .expect("known user and item");
            out.ingest_s.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(out)
}

fn push(
    spans: &mut Vec<Span>,
    clock: &Clock,
    request: u32,
    parent: Option<u32>,
    name: &'static str,
    start: Instant,
    end: Instant,
) -> u32 {
    let id = spans.len() as u32;
    spans.push(Span {
        request,
        id,
        parent,
        name,
        start_ns: clock.ns(start),
        end_ns: clock.ns(end),
    });
    id
}

impl Replay {
    /// The layer-sum check: for every request, the layers' self times plus
    /// the residual give back the HTTP round trip, and the residual's median
    /// is not negative beyond the timing noise of `recommend_now` (its
    /// second-fastest rep minus its fastest) plus the copy allowance below.
    /// Returns the first violation.
    pub fn check_layer_sum(&self) -> Result<(), String> {
        for (i, l) in self.requests.iter().enumerate() {
            let sum = l.http_self() + l.batcher_self() + l.inner() as i64 + l.residual();
            if sum != l.http as i64 {
                return Err(format!(
                    "request {i}: layers sum to {sum} ns, round trip {} ns",
                    l.http
                ));
            }
        }
        let median =
            |f: &dyn Fn(&Layers) -> f64| quantile(&sorted(self.requests.iter().map(f)), 0.5);
        let residual = median(&|l| l.residual() as f64);
        // The inner steps run on the replay's own copy of the item matrix,
        // whose placement (page size, alignment) can make it a few percent
        // slower than the engine's: 5% of `recommend_now` is allowed on top
        // of its timing noise.
        let tolerance = median(&|l| l.now_jitter as f64) + 0.05 * median(&|l| l.now as f64);
        if residual < -tolerance {
            return Err(format!(
                "median residual is negative ({residual} ns, beyond the {tolerance} ns tolerance): \
                 the inner steps timed slower than the call that contains them"
            ));
        }
        Ok(())
    }

    /// Sorted values of `f` over the replayed requests (`filter`ed), µs.
    pub fn us(&self, filter: impl Fn(&Layers) -> bool, f: impl Fn(&Layers) -> f64) -> Vec<f64> {
        sorted(
            self.requests
                .iter()
                .filter(|l| filter(l))
                .map(|l| f(l) / 1e3),
        )
    }

    /// Spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"request\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.request, s.id, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// STREAM triad `a[i] = b[i] + s·c[i]` over three `n`-element f32 arrays;
/// best of `reps`, GB/s counting 3 × 4 bytes per element (two reads, one
/// write).
pub fn stream_triad_gb_per_s(n: usize, reps: usize) -> f64 {
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let mut best = f64::MAX;
    for rep in 0..reps {
        let s = 0.5 + rep as f32;
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3 * 4 * n) as f64 / best / 1e9
}
