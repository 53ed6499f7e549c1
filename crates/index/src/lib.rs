//! `inbox-index` — box-aware top-k candidate retrieval over a frozen item
//! matrix.
//!
//! Serving ranks a user by scoring their interest box against every item
//! point (`γ - D_PB(v, b)`, Eq. (29)) and taking the masked top-K — an
//! O(items) scan per request. This crate makes that cost sublinear in the
//! catalog with the classic candidate-generation-then-rerank split:
//!
//! 1. **IVF coarse partition** ([`IvfIndex::build`]): Lloyd's k-means over
//!    the item points under the **L1 metric** — the same metric family as
//!    the paper's `D_PB` distance (Eq. (7)–(9)) — yields `nlist`
//!    partitions, each with its centroid and the axis-aligned bounding
//!    rectangle of its member points.
//! 2. **Probe selection** ([`IvfIndex::select_probes`]): partitions are
//!    ordered by the best score any point of their bounding rectangle
//!    could reach (an `f64` upper bound, computed for every partition in
//!    one branch-free pass over dim-major rectangles), ties broken by the
//!    box-to-centroid distance from the item-scoring kernel, and the
//!    `nprobe` most promising are kept with their bounds, along with the
//!    bound of the best partition left out.
//! 3. **Box pruning + exact re-rank** ([`IvfIndex::rerank`]): probed
//!    partitions are visited best-bound-first. Once the running top-k is
//!    full, the first partition whose stored bound provably cannot beat
//!    the current k-th best score ends the search, since every later one
//!    has a bound no higher. Every visited partition's members are scored
//!    **exactly** through a caller-supplied scorer (production passes
//!    `ItemScorer::score_item_prepared`, the very arithmetic of the full
//!    sort, over rows the engine stores in partition order); a score that
//!    would enter [`inbox_eval::TopKScratch`], the masked top-k selector
//!    the full sort ranks with (score descending, then smaller item id),
//!    is then checked against the mask. [`RerankStats::candidates`]
//!    therefore counts every member scored, masked ones included.
//!
//! Because candidate scores and the selection comparator are bit-identical
//! to the full sort, the served answer is **byte-identical to the full
//! sort whenever the probed partitions contain the true top-k** — the
//! `nprobe = nlist` configuration recovers the full sort exactly (the
//! pruning bound is conservative), and smaller `nprobe` trades recall for
//! latency, a contract the testkit differential suite measures. Each
//! answer also says whether it is provably exact
//! ([`RerankStats::exact`]): the search ended on the bound, probed every
//! partition, or left out only partitions whose bounds fall below the
//! final k-th score.
//!
//! The rectangle bound is evaluated in `f64` with a small safety slack
//! ([`PRUNE_SLACK`]) so `f32` rounding in the exact per-item scores can
//! never make the pruning unsound (see DESIGN.md §12 for the derivation).

#![warn(missing_docs)]

use inbox_autodiff::simd::{d_pb_bounds_parts, F32x8};
use inbox_eval::TopKScratch;
use inbox_kg::ItemId;

/// How the serving engine generates ranking candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IndexMode {
    /// Score every item (the exact O(items) baseline).
    #[default]
    FullSort,
    /// IVF candidate generation with exact re-rank. `0` for either knob
    /// means "derive from the catalog size" ([`auto_nlist`] /
    /// [`auto_nprobe`]).
    Ivf {
        /// Number of coarse partitions (k-means cells).
        nlist: usize,
        /// Partitions probed per query, most promising first.
        nprobe: usize,
    },
}

impl IndexMode {
    /// Parses a CLI-style mode name: `full` / `fullsort` / `ivf`. The IVF
    /// knobs start at 0 (auto) — callers overlay `--nlist` / `--nprobe`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "full" | "fullsort" | "full-sort" => Some(IndexMode::FullSort),
            "ivf" => Some(IndexMode::Ivf {
                nlist: 0,
                nprobe: 0,
            }),
            _ => None,
        }
    }
}

impl std::fmt::Display for IndexMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexMode::FullSort => write!(f, "full"),
            IndexMode::Ivf { nlist, nprobe } => write!(f, "ivf(nlist={nlist},nprobe={nprobe})"),
        }
    }
}

/// Default partition count for a catalog: ~2·√n keeps mean partition size
/// at √n/2, balancing the O(nlist) centroid scan against per-partition
/// scan cost. Clamped so tiny catalogs still get a few partitions.
pub fn auto_nlist(n_items: usize) -> usize {
    (((n_items as f64).sqrt() * 2.0) as usize).clamp(1, n_items.max(1))
}

/// Default probe count for a partition count: an eighth of the partitions,
/// at least 4 — measured ≥0.95 recall@20 on the synthetic twins (the
/// testkit differential suite asserts exactly this contract).
pub fn auto_nprobe(nlist: usize) -> usize {
    (nlist / 8).max(4).min(nlist.max(1))
}

/// Construction error. The only failure mode is the injected chaos site
/// `index.build_partition` — k-means itself cannot fail — but builders
/// must treat any error as "serve without an index", never as fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The `index.build_partition` failpoint fired while finalising the
    /// given partition (chaos testing only).
    Injected(usize),
    /// The item matrix was empty or its length was not a multiple of the
    /// dimension.
    BadShape {
        /// Length of the flat item matrix.
        len: usize,
        /// Claimed embedding dimension.
        dim: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Injected(p) => {
                write!(f, "injected failure finalising partition {p}")
            }
            BuildError::BadShape { len, dim } => {
                write!(f, "item matrix of length {len} is not n×{dim}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// K-means construction knobs. Defaults are what the serving engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfParams {
    /// Number of partitions.
    pub nlist: usize,
    /// Lloyd iterations (assignment is deterministic, so few suffice).
    pub iters: usize,
    /// Seed stride for centroid initialisation (deterministic).
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            nlist: 0, // resolved against the catalog by `build`
            iters: 6,
            seed: 0x1db0,
        }
    }
}

/// One query's box geometry, borrowed from the caller's scratch: the
/// per-dimension bounds `lo = cen - relu(off)` / `hi = cen + relu(off)`
/// plus the scoring constants. The engine fills `lo`/`hi` through
/// `ItemScorer::prepare_box_bounds` so they are the exact values the
/// re-rank scorer uses.
#[derive(Debug, Clone, Copy)]
pub struct BoxQuery<'a> {
    /// Lower box corner per dimension.
    pub lo: &'a [f32],
    /// Upper box corner per dimension.
    pub hi: &'a [f32],
    /// Box center per dimension.
    pub cen: &'a [f32],
    /// Weight of the inside-distance term (`inside_weight` in Eq. (9)).
    pub inside_weight: f32,
    /// Score offset (`γ` in Eq. (29)); scores are `gamma - distance`.
    pub gamma: f32,
    /// Pinned for servebench; delete with the next benchmark change.
    /// Nothing reads it: every re-rank scores with the exact f32 kernel.
    pub bound_slack: f32,
}

/// Absolute slack subtracted from the k-th best score before a partition
/// is pruned. The rectangle bound is computed in `f64` (so it is a true
/// bound on the real-valued score), but the exact per-item scores are
/// `f32` arithmetic whose rounding can land a hair *above* the real
/// value; the slack absorbs that, keeping pruning conservative. Scores
/// live on the `gamma`-ish scale (units, not millionths), so 1e-3 costs
/// essentially no pruning power.
pub const PRUNE_SLACK: f64 = 1e-3;

/// Reusable per-thread buffers for [`IvfIndex::select_probes`] /
/// [`IvfIndex::rerank`]: after one warm query, the whole probe → prune →
/// re-rank pipeline is allocation-free.
#[derive(Default)]
pub struct QueryScratch {
    /// Per partition, the bound pass's outside sum, which ends holding
    /// the partition's score bound.
    d_out: Vec<f64>,
    /// Per partition, the bound pass's inside sum.
    d_in: Vec<f64>,
    /// `(rectangle score bound, centroid distance, partition)` of the
    /// partitions `select_probes` kept, most promising first. `rerank`
    /// prunes on the stored bound.
    probes: Vec<(f64, f32, u32)>,
    /// The bound of the best partition `select_probes` dropped, `None`
    /// when it kept every partition.
    dropped: Option<f64>,
    /// The masked top-k selector the re-rank feeds.
    topk: TopKScratch,
}

/// What one [`IvfIndex::rerank`] did, for telemetry and contracts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RerankStats {
    /// Probed partitions whose members were actually scored.
    pub scanned_partitions: usize,
    /// Probed partitions skipped whole by the bounding-rectangle test.
    pub pruned_partitions: usize,
    /// Items scored exactly: every member of every scanned partition.
    /// Masked members count too, since each is scored before the mask is
    /// consulted.
    pub candidates: usize,
    /// The answer is provably the full sort's: the search stopped on the
    /// bound, probed every partition, or every partition `select_probes`
    /// dropped has a bound below the final k-th score minus
    /// [`PRUNE_SLACK`].
    pub exact: bool,
}

/// An IVF coarse partition of a frozen item-point matrix, with per-
/// partition bounding rectangles for geometric pruning. Immutable after
/// construction; queries are `&self` and thread-safe.
pub struct IvfIndex {
    dim: usize,
    n_items: usize,
    /// Row-major `nlist × dim` partition centroids.
    centroids: Vec<f32>,
    /// Dim-major `dim × nlist` lower rectangle corners: `rect_lo[k *
    /// nlist + c]` is partition `c`'s corner on dimension `k`, so the bound
    /// pass reads one contiguous row per dimension.
    rect_lo: Vec<f32>,
    /// Dim-major `dim × nlist` upper rectangle corners.
    rect_hi: Vec<f32>,
    /// CSR offsets into `members`, length `nlist + 1`.
    offsets: Vec<u32>,
    /// Item ids grouped by partition.
    members: Vec<u32>,
}

impl IvfIndex {
    /// Builds the index over a row-major `n × dim` item matrix (the same
    /// layout `ItemScorer` snapshots). Deterministic in `params.seed`.
    ///
    /// The `index.build_partition` failpoint fires per finalised
    /// partition; a fired site aborts the build with
    /// [`BuildError::Injected`] — callers degrade to full-sort serving.
    pub fn build(items: &[f32], dim: usize, params: &IvfParams) -> Result<Self, BuildError> {
        if dim == 0 || items.is_empty() || !items.len().is_multiple_of(dim) {
            return Err(BuildError::BadShape {
                len: items.len(),
                dim,
            });
        }
        let n = items.len() / dim;
        let nlist = if params.nlist == 0 {
            auto_nlist(n)
        } else {
            params.nlist.clamp(1, n)
        };

        // Deterministic spread initialisation: a fixed odd stride derived
        // from the seed walks the catalog, so seeds land all over the
        // matrix regardless of item order.
        let stride = (params.seed | 1) as usize % n.max(1);
        let stride = if stride == 0 { 1 } else { stride };
        let mut centroids = vec![0.0f32; nlist * dim];
        let mut at = 0usize;
        let mut taken = std::collections::HashSet::new();
        for c in 0..nlist {
            while !taken.insert(at) {
                at = (at + 1) % n;
            }
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&items[at * dim..(at + 1) * dim]);
            at = (at + stride) % n;
        }

        // Lloyd iterations under L1 assignment with mean updates. Mean
        // (not median) updates are fine here: the index only needs a
        // *partition*, correctness never depends on centroid optimality.
        // Every pass after the first is bound-pruned from the previous
        // assignment; both kinds yield the plain scalar scan's answer.
        let mut assign = vec![0u32; n];
        let mut counts = vec![0u32; nlist];
        let mut sums = vec![0.0f64; nlist * dim];
        let mut assigner = Assigner::new(n, dim, nlist);
        for iter in 0..params.iters.max(1) {
            assigner.assign(items, &centroids, &mut assign, iter > 0);
            counts.fill(0);
            sums.fill(0.0);
            for (i, row) in items.chunks_exact(dim).enumerate() {
                let c = assign[i] as usize;
                counts[c] += 1;
                for (k, &v) in row.iter().enumerate() {
                    sums[c * dim + k] += v as f64;
                }
            }
            // Empty partitions steal the point farthest from its centroid
            // so every partition stays populated (and the CSR total).
            for c in 0..nlist {
                if counts[c] > 0 {
                    for k in 0..dim {
                        centroids[c * dim + k] = (sums[c * dim + k] / counts[c] as f64) as f32;
                    }
                } else {
                    let far = farthest_item(items, dim, &centroids, &assign);
                    centroids[c * dim..(c + 1) * dim]
                        .copy_from_slice(&items[far * dim..(far + 1) * dim]);
                }
            }
        }
        assigner.assign(items, &centroids, &mut assign, true);

        // Finalise: CSR member lists + bounding rectangles.
        counts.fill(0);
        for &a in &assign {
            counts[a as usize] += 1;
        }
        let mut offsets = vec![0u32; nlist + 1];
        for c in 0..nlist {
            offsets[c + 1] = offsets[c] + counts[c];
        }
        let mut cursor: Vec<u32> = offsets[..nlist].to_vec();
        let mut members = vec![0u32; n];
        for (i, &a) in assign.iter().enumerate() {
            members[cursor[a as usize] as usize] = i as u32;
            cursor[a as usize] += 1;
        }
        let mut rect_lo = vec![f32::MAX; dim * nlist];
        let mut rect_hi = vec![f32::MIN; dim * nlist];
        for c in 0..nlist {
            if inbox_obs::failpoint!("index.build_partition") {
                return Err(BuildError::Injected(c));
            }
            for &item in &members[offsets[c] as usize..offsets[c + 1] as usize] {
                let row = &items[item as usize * dim..(item as usize + 1) * dim];
                for (k, &v) in row.iter().enumerate() {
                    let lo = &mut rect_lo[k * nlist + c];
                    *lo = lo.min(v);
                    let hi = &mut rect_hi[k * nlist + c];
                    *hi = hi.max(v);
                }
            }
        }
        Ok(Self {
            dim,
            n_items: n,
            centroids,
            rect_lo,
            rect_hi,
            offsets,
            members,
        })
    }

    /// Number of partitions.
    pub fn nlist(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of indexed items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Item ids of one partition.
    pub fn members(&self, partition: usize) -> &[u32] {
        &self.members[self.offsets[partition] as usize..self.offsets[partition + 1] as usize]
    }

    /// Every item id once, grouped by partition (ascending ids within
    /// one): the order in which a re-rank that reads each visited
    /// partition's rows as one contiguous run wants the item matrix.
    pub fn member_order(&self) -> &[u32] {
        &self.members
    }

    /// Upper bound (in `f64`, conservative) on the score any point inside
    /// partition `c`'s bounding rectangle can achieve against the box:
    /// `gamma - min over the rectangle of (d_out + w·d_in)`. Per
    /// dimension the outside term's minimum is the rectangle-to-box gap
    /// and the inside term's minimum is the distance from the center to
    /// the clamped rectangle interval — see DESIGN.md §12. One partition
    /// at a time, branchy: the reference [`bound_pass`](Self::bound_pass)
    /// must match bit for bit.
    fn rect_score_bound(&self, q: &BoxQuery<'_>, c: usize) -> f64 {
        let nlist = self.nlist();
        let mut d_out = 0.0f64;
        let mut d_in = 0.0f64;
        for k in 0..self.dim {
            let rlo = self.rect_lo[k * nlist + c] as f64;
            let rhi = self.rect_hi[k * nlist + c] as f64;
            let blo = q.lo[k] as f64;
            let bhi = q.hi[k] as f64;
            let cen = q.cen[k] as f64;
            d_out += (rlo - bhi).max(0.0) + (blo - rhi).max(0.0);
            // The clamp of any rectangle point into the box spans
            // [clamp(rlo), clamp(rhi)]; the nearest such value to the
            // center bounds the inside term. `max`/`min` rather than
            // `clamp`, which panics on a NaN box.
            let a = rlo.max(blo).min(bhi);
            let b = rhi.max(blo).min(bhi);
            d_in += if cen < a {
                a - cen
            } else if cen > b {
                cen - b
            } else {
                0.0
            };
        }
        q.gamma as f64 - (d_out + q.inside_weight as f64 * d_in)
    }

    /// [`rect_score_bound`](Self::rect_score_bound) of every partition at
    /// once, into `d_out` (`d_in` is the pass's second accumulator).
    /// Dimensions run outside and partitions inside, over the dim-major
    /// rectangles: one partition per lane, branch-free, so the compiler
    /// vectorises the inner loop. Per partition the adds happen in the
    /// same order and on the same values as the scalar chain, so every
    /// bound has its bits:
    /// - `d_out` is the same expression.
    /// - The inside term is `max(a − cen, 0) + max(cen − b, 0)`. With
    ///   `a ≤ b` at most one side is positive, and it is the value the
    ///   scalar `if`/`else if` picks. Otherwise both sides are `±0`, or a
    ///   NaN that `max` turns into `0`, and adding a zero to a sum that
    ///   started at `+0.0` leaves its bits as they are.
    /// - `a > b` only on an empty partition, whose rectangle stays
    ///   `[f32::MAX, f32::MIN]`; for `cen < a` its second side is masked
    ///   off, as the scalar `else if` never reaches it.
    fn bound_pass(&self, q: &BoxQuery<'_>, d_out: &mut Vec<f64>, d_in: &mut Vec<f64>) {
        let nlist = self.nlist();
        d_out.clear();
        d_out.resize(nlist, 0.0);
        d_in.clear();
        d_in.resize(nlist, 0.0);
        let rects = self
            .rect_lo
            .chunks_exact(nlist)
            .zip(self.rect_hi.chunks_exact(nlist));
        for (k, (rlo, rhi)) in rects.enumerate() {
            let blo = q.lo[k] as f64;
            let bhi = q.hi[k] as f64;
            let cen = q.cen[k] as f64;
            let lanes = d_out
                .iter_mut()
                .zip(d_in.iter_mut())
                .zip(rlo.iter().zip(rhi));
            for ((out, inside), (&rlo, &rhi)) in lanes {
                let (rlo, rhi) = (rlo as f64, rhi as f64);
                *out += (rlo - bhi).max(0.0) + (blo - rhi).max(0.0);
                let a = rlo.max(blo).min(bhi);
                let b = rhi.max(blo).min(bhi);
                let above = if cen < a { 0.0 } else { (cen - b).max(0.0) };
                *inside += (a - cen).max(0.0) + above;
            }
        }
        let (gamma, w) = (q.gamma as f64, q.inside_weight as f64);
        for (out, &inside) in d_out.iter_mut().zip(d_in.iter()) {
            *out = gamma - (*out + w * inside);
        }
    }

    /// Stage 1 — candidate generation: ranks every partition by how close
    /// its geometry can possibly come to the box and keeps the `nprobe`
    /// most promising in `scratch`, with the bound of the best one it
    /// dropped. The primary key is the rectangle score bound, highest
    /// first (the MINDIST of R-tree best-first search: `gamma` minus the
    /// smallest `d_out + w·d_in` any member could achieve), computed for
    /// all partitions in one branch-free pass (see DESIGN.md §12). A NaN
    /// bound proves nothing and is keyed `+∞`, so it can never end a
    /// search. Rectangles that contain the box centre all tie at
    /// `gamma`, so the box-to-centroid distance breaks ties — Eq. (7)–(9)
    /// applied to the k-means centroid through the item-scoring kernel
    /// [`d_pb_bounds_parts`] — and then the partition id. Both floats
    /// compare by `total_cmp`. Only the kept entries are sorted.
    /// Allocation-free once `scratch` is warm.
    pub fn select_probes(&self, q: &BoxQuery<'_>, nprobe: usize, scratch: &mut QueryScratch) {
        let nlist = self.nlist();
        let QueryScratch {
            d_out,
            d_in,
            probes,
            dropped,
            ..
        } = scratch;
        self.bound_pass(q, d_out, d_in);
        debug_assert!(
            (0..nlist).all(|c| d_out[c].to_bits() == self.rect_score_bound(q, c).to_bits()),
            "the bound pass left the scalar bound's bits"
        );
        probes.clear();
        probes.reserve(nlist);
        for (c, (centroid, &bound)) in self
            .centroids
            .chunks_exact(self.dim)
            .zip(d_out.iter())
            .enumerate()
        {
            let (out, inside) = d_pb_bounds_parts(centroid, q.cen, q.lo, q.hi);
            let distance = out + q.inside_weight * inside;
            let key = if bound.is_nan() { f64::INFINITY } else { bound };
            probes.push((key, distance, c as u32));
        }
        let order = |a: &(f64, f32, u32), b: &(f64, f32, u32)| {
            b.0.total_cmp(&a.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
        };
        let keep = nprobe.clamp(1, nlist);
        *dropped = None;
        if keep < nlist {
            // The entry at `keep` is the best of those dropped.
            probes.select_nth_unstable_by(keep, order);
            *dropped = Some(probes[keep].0);
            probes.truncate(keep);
        }
        probes.sort_unstable_by(order);
    }

    /// Stage 2 — box pruning + exact re-rank over the probed partitions:
    /// visits `scratch`'s probe list in order and stops at the first
    /// partition whose stored rectangle bound is below the selector's
    /// k-th best score minus [`PRUNE_SLACK`]: the list is sorted by that
    /// bound and the k-th score only rises, so no later probe could pass.
    /// Every member of a visited partition is scored through `score`
    /// (exact, caller-supplied); a score that would enter the top-k is
    /// then checked against `mask`, which must be sorted ascending. The
    /// result lands in `out` best-first with the evaluation protocol's
    /// tie-breaking; the returned stats say what was scanned and whether
    /// the answer is provably exact.
    ///
    /// `_q` is the query `select_probes` ran with; the probe entries
    /// already carry every bound it implies.
    pub fn rerank(
        &self,
        _q: &BoxQuery<'_>,
        k: usize,
        mask: &[ItemId],
        mut score: impl FnMut(u32) -> f32,
        scratch: &mut QueryScratch,
        out: &mut Vec<(ItemId, f32)>,
    ) -> RerankStats {
        let mut stats = RerankStats::default();
        let QueryScratch {
            probes,
            dropped,
            topk,
            ..
        } = scratch;
        let below_kth = |topk: &TopKScratch, bound: f64| {
            topk.kth()
                .is_some_and(|kth| bound < kth as f64 - PRUNE_SLACK)
        };
        topk.reset(k);
        for (visited, &(bound, _, c)) in probes.iter().enumerate() {
            if below_kth(topk, bound) {
                stats.pruned_partitions = probes.len() - visited;
                stats.exact = true;
                break;
            }
            stats.scanned_partitions += 1;
            let members = self.members(c as usize);
            stats.candidates += members.len();
            for &item in members {
                let (item, s) = (ItemId(item), score(item));
                if topk.enters(item, s) && mask.binary_search(&item).is_err() {
                    topk.push(item, s);
                }
            }
        }
        stats.exact |= dropped.is_none_or(|bound| below_kth(topk, bound));
        out.clear();
        topk.finish(|item, s| out.push((item, s)));
        stats
    }
}

/// Centroids per lane block of the assignment kernel.
const LANES: usize = 8;

/// The f32 L1 distance exactly as the assignment step defines it: one
/// add chain over `k = 0..dim` of `|row[k] - cen[k]|`, starting at `0.0`.
/// Every lane of [`block_l1`] runs this same op sequence.
fn l1_f32(row: &[f32], cen: &[f32]) -> f32 {
    let mut d = 0.0f32;
    for (&x, &c) in row.iter().zip(cen) {
        d += (x - c).abs();
    }
    d
}

/// [`l1_f32`] from `row` to the 8 centroids of one lane block (dim-major:
/// `block[k * 8 + lane]`), one centroid per lane, so each lane's result
/// is bit-identical to the scalar chain.
#[inline(always)]
fn block_l1(row: &[f32], block: &[f32]) -> F32x8 {
    let mut acc = F32x8::zero();
    for (&x, cen) in row.iter().zip(block.chunks_exact(LANES)) {
        acc = acc.add(F32x8::splat(x).sub(F32x8::load(cen)).abs());
    }
    acc
}

/// Relative slack `δ` of the pruning test `cc(a, c') > 2u(1 + δ)`:
/// `2·γ_{dim+1}`, where `γ_m = m·2⁻²⁴ / (1 − m·2⁻²⁴)` bounds the relative
/// error of an f32 sum of `m` terms (DESIGN.md §12 derives why this covers
/// both the f32 distances and the f64 centroid distances). Infinite, so
/// nothing is pruned, at dimensions where the bound is no longer small.
fn prune_delta(dim: usize) -> f64 {
    let mu = (dim + 1) as f64 * (f32::EPSILON as f64 / 2.0);
    if mu < 0.25 {
        2.0 * mu / (1.0 - mu)
    } else {
        f64::INFINITY
    }
}

/// Scratch for the k-means assignment step. Each point goes to its
/// nearest centroid under [`l1_f32`], lowest index winning ties (strict
/// `<` from an `f32::MAX` sentinel, index 0 if nothing beats it): the
/// answer of a plain scan over every centroid, bit for bit.
///
/// Pruned passes start from a point's previous centroid `a` and its
/// exact distance `u`. By the L1 triangle inequality, any `c'` with
/// `cc(a, c') > 2u(1 + δ)` computes a distance strictly above `u`, so it
/// can neither beat `a` nor tie it; a lane block is skipped when all its
/// centroids pass that test, and the point keeps `a` outright when its
/// nearest other centroid does.
struct Assigner {
    dim: usize,
    nlist: usize,
    /// Centroids in blocks of [`LANES`], dim-major inside each block;
    /// lanes past `nlist` hold `+∞` and never win.
    lanes: Vec<f32>,
    /// Counting-sort cursors grouping points by previous assignment.
    starts: Vec<u32>,
    /// Point ids in group order.
    order: Vec<u32>,
    /// Per lane block, the smallest `cc(a, c')` over its centroids for
    /// the group being assigned.
    block_cc: Vec<f64>,
    delta: f64,
}

impl Assigner {
    fn new(n: usize, dim: usize, nlist: usize) -> Self {
        let blocks = nlist.div_ceil(LANES);
        Self {
            dim,
            nlist,
            lanes: vec![f32::INFINITY; blocks * dim * LANES],
            starts: vec![0; nlist + 1],
            order: vec![0; n],
            block_cc: vec![0.0; blocks],
            delta: prune_delta(dim),
        }
    }

    /// Assigns every row of `items` to its nearest centroid. With
    /// `pruned`, `assign` must hold the previous pass's assignment.
    fn assign(&mut self, items: &[f32], centroids: &[f32], assign: &mut [u32], pruned: bool) {
        let (dim, nlist) = (self.dim, self.nlist);
        for (c, cen) in centroids.chunks_exact(dim).enumerate() {
            let block = &mut self.lanes[c / LANES * dim * LANES..];
            for (k, &v) in cen.iter().enumerate() {
                block[k * LANES + c % LANES] = v;
            }
        }
        if !pruned {
            for (row, a) in items.chunks_exact(dim).zip(assign.iter_mut()) {
                *a = self.nearest(row, |_| false);
            }
            return;
        }

        // Group the points by previous assignment; afterwards `starts[a]`
        // is the end of group `a`.
        self.starts.fill(0);
        for &a in assign.iter() {
            self.starts[a as usize + 1] += 1;
        }
        for c in 0..nlist {
            self.starts[c + 1] += self.starts[c];
        }
        for (i, &a) in assign.iter().enumerate() {
            self.order[self.starts[a as usize] as usize] = i as u32;
            self.starts[a as usize] += 1;
        }

        let mut group_start = 0;
        for a in 0..nlist {
            let group = group_start..self.starts[a] as usize;
            group_start = group.end;
            if group.is_empty() {
                continue;
            }
            let cen_a = &centroids[a * dim..(a + 1) * dim];
            let mut nearest_other = f64::INFINITY;
            for (b, (min_cc, block)) in self
                .block_cc
                .iter_mut()
                .zip(self.lanes.chunks_exact(dim * LANES))
                .enumerate()
            {
                let mut cc = [0.0f64; LANES];
                for (&x, cen) in cen_a.iter().zip(block.chunks_exact(LANES)) {
                    for (s, &y) in cc.iter_mut().zip(cen) {
                        *s += (x as f64 - y as f64).abs();
                    }
                }
                *min_cc = f64::INFINITY;
                for (c, cc) in (b * LANES..nlist).zip(cc) {
                    // A NaN distance proves nothing, so it must not prune.
                    let cc = if cc.is_nan() { f64::NEG_INFINITY } else { cc };
                    *min_cc = min_cc.min(cc);
                    if c != a {
                        nearest_other = nearest_other.min(cc);
                    }
                }
            }
            for &i in &self.order[group] {
                let row = &items[i as usize * dim..(i as usize + 1) * dim];
                let u = l1_f32(row, cen_a);
                // Only a distance below the scan's sentinel makes `a` a
                // contender; anything else (NaN included) prunes nothing.
                let bound = if u < f32::MAX {
                    2.0 * u as f64 * (1.0 + self.delta)
                } else {
                    f64::INFINITY
                };
                if nearest_other > bound {
                    continue;
                }
                assign[i as usize] = self.nearest(row, |b| self.block_cc[b] > bound);
            }
        }
    }

    /// The scan's nearest centroid to `row` over the lane blocks, visited
    /// in index order, passing over those `skip` rules out.
    fn nearest(&self, row: &[f32], skip: impl Fn(usize) -> bool) -> u32 {
        let mut best = 0u32;
        let mut best_d = f32::MAX;
        for (b, block) in self.lanes.chunks_exact(self.dim * LANES).enumerate() {
            if skip(b) {
                continue;
            }
            for (lane, d) in block_l1(row, block).to_array().into_iter().enumerate() {
                if d < best_d {
                    best_d = d;
                    best = (b * LANES + lane) as u32;
                }
            }
        }
        best
    }
}

fn farthest_item(items: &[f32], dim: usize, centroids: &[f32], assign: &[u32]) -> usize {
    let mut far = 0usize;
    let mut far_d = f32::MIN;
    for (i, row) in items.chunks_exact(dim).enumerate() {
        let c = assign[i] as usize;
        let d = l1_f32(row, &centroids[c * dim..(c + 1) * dim]);
        if d > far_d {
            far_d = d;
            far = i;
        }
    }
    far
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    fn random_items(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    /// The exact per-item score the engine's full sort computes.
    fn exact_score(items: &[f32], dim: usize, item: u32, q: &BoxQuery<'_>) -> f32 {
        let row = &items[item as usize * dim..(item as usize + 1) * dim];
        let mut out = 0.0f32;
        let mut inside = 0.0f32;
        for (k, &p) in row.iter().enumerate() {
            out += (p - q.hi[k]).max(0.0) + (q.lo[k] - p).max(0.0);
            inside += (q.cen[k] - p.clamp(q.lo[k], q.hi[k])).abs();
        }
        q.gamma - (out + q.inside_weight * inside)
    }

    fn full_sort(
        items: &[f32],
        dim: usize,
        q: &BoxQuery<'_>,
        mask: &[ItemId],
        k: usize,
    ) -> Vec<(ItemId, f32)> {
        let n = items.len() / dim;
        let mut scored: Vec<(ItemId, f32)> = (0..n as u32)
            .filter(|i| mask.binary_search(&ItemId(*i)).is_err())
            .map(|i| (ItemId(i), exact_score(items, dim, i, q)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }

    fn box_of(cen: Vec<f32>, half: f32) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let lo = cen.iter().map(|c| c - half).collect();
        let hi = cen.iter().map(|c| c + half).collect();
        (lo, hi, cen)
    }

    /// The original scalar Lloyd build, kept verbatim as the oracle for
    /// [`IvfIndex::build`]'s byte-identity contract: one dependent f32
    /// add chain per (row, centroid), lowest index wins ties.
    fn reference_build(items: &[f32], dim: usize, params: &IvfParams) -> IvfIndex {
        fn nearest_centroid_l1(centroids: &[f32], dim: usize, row: &[f32]) -> u32 {
            let mut best = 0u32;
            let mut best_d = f32::MAX;
            for (c, cen) in centroids.chunks_exact(dim).enumerate() {
                let mut d = 0.0f32;
                for k in 0..dim {
                    d += (row[k] - cen[k]).abs();
                }
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            best
        }
        fn farthest_item(items: &[f32], dim: usize, centroids: &[f32], assign: &[u32]) -> usize {
            let mut far = 0usize;
            let mut far_d = f32::MIN;
            for (i, row) in items.chunks_exact(dim).enumerate() {
                let c = assign[i] as usize;
                let cen = &centroids[c * dim..(c + 1) * dim];
                let mut d = 0.0f32;
                for k in 0..dim {
                    d += (row[k] - cen[k]).abs();
                }
                if d > far_d {
                    far_d = d;
                    far = i;
                }
            }
            far
        }

        let n = items.len() / dim;
        let nlist = if params.nlist == 0 {
            auto_nlist(n)
        } else {
            params.nlist.clamp(1, n)
        };
        let stride = (params.seed | 1) as usize % n.max(1);
        let stride = if stride == 0 { 1 } else { stride };
        let mut centroids = vec![0.0f32; nlist * dim];
        let mut at = 0usize;
        let mut taken = std::collections::HashSet::new();
        for c in 0..nlist {
            while !taken.insert(at) {
                at = (at + 1) % n;
            }
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&items[at * dim..(at + 1) * dim]);
            at = (at + stride) % n;
        }
        let mut assign = vec![0u32; n];
        let mut counts = vec![0u32; nlist];
        let mut sums = vec![0.0f64; nlist * dim];
        for _ in 0..params.iters.max(1) {
            for (i, row) in items.chunks_exact(dim).enumerate() {
                assign[i] = nearest_centroid_l1(&centroids, dim, row);
            }
            counts.fill(0);
            sums.fill(0.0);
            for (i, row) in items.chunks_exact(dim).enumerate() {
                let c = assign[i] as usize;
                counts[c] += 1;
                for (k, &v) in row.iter().enumerate() {
                    sums[c * dim + k] += v as f64;
                }
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    for k in 0..dim {
                        centroids[c * dim + k] = (sums[c * dim + k] / counts[c] as f64) as f32;
                    }
                } else {
                    let far = farthest_item(items, dim, &centroids, &assign);
                    centroids[c * dim..(c + 1) * dim]
                        .copy_from_slice(&items[far * dim..(far + 1) * dim]);
                }
            }
        }
        for (i, row) in items.chunks_exact(dim).enumerate() {
            assign[i] = nearest_centroid_l1(&centroids, dim, row);
        }
        counts.fill(0);
        for &a in &assign {
            counts[a as usize] += 1;
        }
        let mut offsets = vec![0u32; nlist + 1];
        for c in 0..nlist {
            offsets[c + 1] = offsets[c] + counts[c];
        }
        let mut cursor: Vec<u32> = offsets[..nlist].to_vec();
        let mut members = vec![0u32; n];
        for (i, &a) in assign.iter().enumerate() {
            members[cursor[a as usize] as usize] = i as u32;
            cursor[a as usize] += 1;
        }
        let mut rect_lo = vec![f32::MAX; dim * nlist];
        let mut rect_hi = vec![f32::MIN; dim * nlist];
        for c in 0..nlist {
            for &item in &members[offsets[c] as usize..offsets[c + 1] as usize] {
                let row = &items[item as usize * dim..(item as usize + 1) * dim];
                for (k, &v) in row.iter().enumerate() {
                    let lo = &mut rect_lo[k * nlist + c];
                    *lo = lo.min(v);
                    let hi = &mut rect_hi[k * nlist + c];
                    *hi = hi.max(v);
                }
            }
        }
        IvfIndex {
            dim,
            n_items: n,
            centroids,
            rect_lo,
            rect_hi,
            offsets,
            members,
        }
    }

    fn assert_build_matches_reference(items: &[f32], dim: usize, nlist: usize, case: &str) {
        let p = IvfParams {
            nlist,
            ..Default::default()
        };
        let got = IvfIndex::build(items, dim, &p).expect("build");
        let want = reference_build(items, dim, &p);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.centroids),
            bits(&want.centroids),
            "{case}: centroids"
        );
        assert_eq!(bits(&got.rect_lo), bits(&want.rect_lo), "{case}: rect_lo");
        assert_eq!(bits(&got.rect_hi), bits(&want.rect_hi), "{case}: rect_hi");
        assert_eq!(got.offsets, want.offsets, "{case}: offsets");
        assert_eq!(got.members, want.members, "{case}: members");
    }

    /// `n` points around `tags` centers in `[-0.5, 0.5)^dim`, jittered by
    /// up to `jitter` per dimension; items take their tag round-robin, so
    /// clusters interleave in id order like a tagged catalog.
    fn tag_clustered_items(n: usize, dim: usize, tags: usize, jitter: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<f32> = (0..tags * dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let mut items = Vec::with_capacity(n * dim);
        for i in 0..n {
            let t = i % tags;
            for k in 0..dim {
                items.push(centers[t * dim + k] + rng.gen_range(-jitter..jitter));
            }
        }
        items
    }

    #[test]
    fn build_is_bit_identical_to_the_scalar_lloyd_reference() {
        for (dim, seed) in [(1, 2), (3, 3), (8, 5), (13, 7), (32, 11)] {
            let items = random_items(700, dim, seed);
            for nlist in [1, 13, 40, 0] {
                assert_build_matches_reference(
                    &items,
                    dim,
                    nlist,
                    &format!("d={dim} nlist={nlist}"),
                );
            }
        }

        // One partition per item: every point is its own centroid.
        let items = random_items(37, 5, 13);
        assert_build_matches_reference(&items, 5, 37, "nlist = n");

        // Exact ties everywhere: rows drawn from 6 distinct values, so
        // equal distances to distinct centroids are the common case and
        // the lowest index must win each one.
        let mut rng = StdRng::seed_from_u64(17);
        let distinct = random_items(6, 9, 19);
        let dups: Vec<f32> = (0..500)
            .flat_map(|_| {
                let r: usize = rng.gen_range(0..6);
                distinct[r * 9..(r + 1) * 9].to_vec()
            })
            .collect();
        assert_build_matches_reference(&dups, 9, 21, "duplicate-heavy");

        // Three distinct rows under 11 partitions: at most three seeds
        // differ, every tie goes to the lowest index, so the first pass
        // leaves at least eight partitions empty and the farthest-point
        // reseed runs.
        let three = random_items(3, 4, 23);
        let emptying: Vec<f32> = (0..60)
            .flat_map(|i| three[(i % 3) * 4..(i % 3 + 1) * 4].to_vec())
            .collect();
        assert_build_matches_reference(&emptying, 4, 11, "emptied partitions");

        // Large offsets: coordinates near 1e6 carry ~0.06 absolute f32
        // resolution, so distances sit on a coarse grid with many ties.
        let far: Vec<f32> = random_items(600, 6, 29).iter().map(|v| v + 1e6).collect();
        assert_build_matches_reference(&far, 6, 19, "offset 1e6");

        // The serving regime: tag-clustered points, d = 32, auto nlist.
        let clustered = tag_clustered_items(4000, 32, 40, 0.05, 31);
        assert_build_matches_reference(&clustered, 32, 0, "tag-clustered 4000x32");
    }

    #[test]
    fn pruned_assignment_matches_the_scan_from_any_start() {
        // The pruning lemma holds for any starting centroid, so random
        // starts must all land on the scan's answer. Exact copies of the
        // centroids, some duplicated across lane blocks, give `u = 0`
        // with a lower-index tie that only a strict test keeps.
        let (dim, nlist) = (3, 20);
        let mut centroids = random_items(nlist, dim, 47);
        for (dst, src) in [(17, 2), (9, 2), (12, 5)] {
            centroids.copy_within(src * dim..(src + 1) * dim, dst * dim);
        }
        let mut items = random_items(200, dim, 53);
        items.extend_from_slice(&centroids);
        let n = items.len() / dim;
        let want: Vec<u32> = items
            .chunks_exact(dim)
            .map(|row| {
                let mut best = (0, f32::MAX);
                for (c, cen) in centroids.chunks_exact(dim).enumerate() {
                    let d = l1_f32(row, cen);
                    if d < best.1 {
                        best = (c as u32, d);
                    }
                }
                best.0
            })
            .collect();
        let mut assigner = Assigner::new(n, dim, nlist);
        let mut got = vec![0u32; n];
        assigner.assign(&items, &centroids, &mut got, false);
        assert_eq!(got, want, "full scan");
        let mut rng = StdRng::seed_from_u64(59);
        for round in 0..20 {
            got.iter_mut()
                .for_each(|a| *a = rng.gen_range(0..nlist as u32));
            assigner.assign(&items, &centroids, &mut got, true);
            assert_eq!(got, want, "pruned, round {round}");
        }
    }

    #[test]
    fn prune_slack_keeps_a_tie_that_f32_rounding_hides() {
        // From x = 0: a = (2^24, 0.9) and c' = (-2^24, -0.9) both compute
        // 2^24 (the 0.9 rounds away), a tie that lower-index c' wins. Yet
        // cc(a, c') = 2^25 + 1.8 exceeds 2u = 2^25: without δ the test
        // would prune c'. Centroid 0 is c', 8 is a, 9 sits near a so the
        // block path runs, and the rest are far away.
        let big = 16_777_216.0f32;
        let mut centroids = vec![1e9f32; 10 * 2];
        centroids[..2].copy_from_slice(&[-big, -0.9]);
        centroids[16..20].copy_from_slice(&[big, 0.9, big, 100.0]);
        let items = [0.0f32, 0.0];
        let mut assigner = Assigner::new(1, 2, 10);
        let mut got = [8u32];
        assigner.assign(&items, &centroids, &mut got, true);
        assert_eq!(got, [0]);
        // Without the neighbour at 9, Hamerly's check decides alone.
        centroids[18..20].fill(1e9);
        let mut got = [8u32];
        assigner.assign(&items, &centroids, &mut got, true);
        assert_eq!(got, [0]);
    }

    #[test]
    fn non_finite_rows_build_like_the_reference() {
        // Infinite and NaN coordinates poison distances and centroids;
        // such values must never prune, so the answer stays the scan's.
        let dim = 5;
        let mut items = random_items(300, dim, 37);
        for (i, v) in [(7, f32::INFINITY), (40, f32::NEG_INFINITY), (123, f32::NAN)] {
            items[i * dim + i % dim] = v;
        }
        items[200 * dim..201 * dim].fill(f32::MAX);
        for nlist in [6, 17] {
            assert_build_matches_reference(
                &items,
                dim,
                nlist,
                &format!("non-finite nlist={nlist}"),
            );
        }
    }

    #[test]
    fn build_partitions_every_item_exactly_once() {
        let dim = 4;
        let items = random_items(300, dim, 1);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 12,
                ..Default::default()
            },
        )
        .expect("build");
        assert_eq!(ix.nlist(), 12);
        assert_eq!(ix.n_items(), 300);
        let mut seen = vec![false; 300];
        for c in 0..ix.nlist() {
            for &m in ix.members(c) {
                assert!(!seen[m as usize], "item {m} in two partitions");
                seen[m as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every item indexed");
    }

    #[test]
    fn build_is_deterministic() {
        let items = random_items(200, 3, 7);
        let p = IvfParams {
            nlist: 9,
            ..Default::default()
        };
        let a = IvfIndex::build(&items, 3, &p).unwrap();
        let b = IvfIndex::build(&items, 3, &p).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.members, b.members);
        assert_eq!(a.offsets, b.offsets);
    }

    #[test]
    fn rects_bound_their_members() {
        let dim = 5;
        let items = random_items(400, dim, 3);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 16,
                ..Default::default()
            },
        )
        .unwrap();
        for c in 0..ix.nlist() {
            for &m in ix.members(c) {
                let row = &items[m as usize * dim..(m as usize + 1) * dim];
                for (k, &v) in row.iter().enumerate() {
                    assert!(ix.rect_lo[k * ix.nlist() + c] <= v);
                    assert!(ix.rect_hi[k * ix.nlist() + c] >= v);
                }
            }
        }
    }

    #[test]
    fn bad_shapes_are_rejected() {
        assert!(matches!(
            IvfIndex::build(&[1.0, 2.0, 3.0], 2, &IvfParams::default()),
            Err(BuildError::BadShape { .. })
        ));
        assert!(matches!(
            IvfIndex::build(&[], 2, &IvfParams::default()),
            Err(BuildError::BadShape { .. })
        ));
        assert!(IvfIndex::build(&[1.0, 2.0], 0, &IvfParams::default()).is_err());
    }

    #[test]
    fn rect_bound_dominates_member_scores() {
        let dim = 6;
        let items = random_items(500, dim, 11);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 20,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let cen: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let (lo, hi, cen) = box_of(cen, rng.gen_range(0.0..1.0));
            let q = BoxQuery {
                lo: &lo,
                hi: &hi,
                cen: &cen,
                inside_weight: 0.5,
                gamma: 12.0,
                bound_slack: 0.0,
            };
            for c in 0..ix.nlist() {
                let bound = ix.rect_score_bound(&q, c);
                for &m in ix.members(c) {
                    let s = exact_score(&items, dim, m, &q) as f64;
                    assert!(
                        s <= bound + PRUNE_SLACK,
                        "partition {c} item {m}: score {s} above bound {bound}"
                    );
                }
            }
        }
    }

    /// The one bound pass equals the scalar `rect_score_bound` by bit
    /// pattern for every partition: boxes whose coordinates include ±0,
    /// NaN, ±∞ and mixed magnitudes (corners drawn independently, so
    /// some are inverted),
    /// over an index with non-finite rectangle corners and one with
    /// emptied partitions, at dims with and without remainder lanes.
    #[test]
    fn bound_pass_is_bit_identical_to_the_scalar_bound() {
        let specials = [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = StdRng::seed_from_u64(71);
        let (mut d_out, mut d_in) = (Vec::new(), Vec::new());
        let mut empty_seen = false;
        for dim in [1usize, 7, 8, 13, 32, 33] {
            let mut non_finite = random_items(300, dim, 73 + dim as u64);
            for (i, v) in [(5, f32::INFINITY), (90, f32::NEG_INFINITY), (150, f32::NAN)] {
                non_finite[i * dim + i % dim] = v;
            }
            let three = random_items(3, dim, 79);
            let emptying: Vec<f32> = (0..60)
                .flat_map(|i| three[(i % 3) * dim..(i % 3 + 1) * dim].to_vec())
                .collect();
            for (items, nlist) in [(non_finite, 17), (emptying, 11)] {
                let ix = IvfIndex::build(
                    &items,
                    dim,
                    &IvfParams {
                        nlist,
                        ..Default::default()
                    },
                )
                .unwrap();
                empty_seen |= (0..ix.nlist()).any(|c| ix.members(c).is_empty());
                for case in 0..40 {
                    // Magnitudes from 1e-20 to 1e20: f64 sums of f32
                    // terms of one scale are exact, so only mixed scales
                    // would show an add in another order.
                    let mut coord = || -> f32 {
                        if rng.gen_bool(0.2) {
                            specials[rng.gen_range(0..specials.len())]
                        } else {
                            rng.gen_range(-2.5f32..2.5) * 10f32.powi(rng.gen_range(-20..=20))
                        }
                    };
                    let lo: Vec<f32> = (0..dim).map(|_| coord()).collect();
                    let hi: Vec<f32> = (0..dim).map(|_| coord()).collect();
                    let cen: Vec<f32> = (0..dim).map(|_| coord()).collect();
                    let q = BoxQuery {
                        lo: &lo,
                        hi: &hi,
                        cen: &cen,
                        inside_weight: 0.5,
                        gamma: 12.0,
                        bound_slack: 0.0,
                    };
                    ix.bound_pass(&q, &mut d_out, &mut d_in);
                    for (c, got) in d_out.iter().enumerate() {
                        let want = ix.rect_score_bound(&q, c);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "d={dim} nlist={nlist} case {case} partition {c}: {got} vs {want}"
                        );
                    }
                }
            }
        }
        assert!(empty_seen, "no fixture left a partition empty");
    }

    #[test]
    fn probing_everything_matches_full_sort_bitwise() {
        let dim = 8;
        let items = random_items(600, dim, 23);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 24,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        for case in 0..40 {
            let cen: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let (lo, hi, cen) = box_of(cen, rng.gen_range(0.0..1.5));
            let q = BoxQuery {
                lo: &lo,
                hi: &hi,
                cen: &cen,
                inside_weight: 0.5,
                gamma: 12.0,
                bound_slack: 0.0,
            };
            // A sorted mask of ~5% of the catalog.
            let mask: Vec<ItemId> = (0..600u32)
                .filter(|_| rng.gen_bool(0.05))
                .map(ItemId)
                .collect();
            let k = 20;
            let expected = full_sort(&items, dim, &q, &mask, k);
            ix.select_probes(&q, ix.nlist(), &mut scratch);
            let stats = ix.rerank(
                &q,
                k,
                &mask,
                |i| exact_score(&items, dim, i, &q),
                &mut scratch,
                &mut out,
            );
            assert_eq!(out.len(), expected.len(), "case {case}");
            for (got, want) in out.iter().zip(&expected) {
                assert_eq!(got.0, want.0, "case {case}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "case {case}");
            }
            assert_eq!(
                stats.scanned_partitions + stats.pruned_partitions,
                ix.nlist(),
                "every probed partition is either scanned or pruned"
            );
        }
    }

    #[test]
    fn pruning_actually_skips_partitions() {
        // A tight box far from most of the catalog must prune partitions.
        let dim = 4;
        let items = random_items(800, dim, 41);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let (lo, hi, cen) = box_of(vec![1.8; dim], 0.05);
        let q = BoxQuery {
            lo: &lo,
            hi: &hi,
            cen: &cen,
            inside_weight: 0.5,
            gamma: 12.0,
            bound_slack: 0.0,
        };
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        ix.select_probes(&q, ix.nlist(), &mut scratch);
        let stats = ix.rerank(
            &q,
            5,
            &[],
            |i| exact_score(&items, dim, i, &q),
            &mut scratch,
            &mut out,
        );
        assert!(
            stats.pruned_partitions > 0,
            "corner box pruned nothing: {stats:?}"
        );
        assert!(stats.candidates < 800, "pruning reduced the scan");
    }

    #[test]
    fn centroid_distance_orders_partitions_whose_bounds_tie() {
        // Uniform points: every rectangle spans the box centre on every
        // dimension, so every bound is exactly `gamma` and the centroid
        // distance is the only signal the probe order has.
        let dim = 32;
        let items = random_items(2000, dim, 61);
        let ix = IvfIndex::build(
            &items,
            dim,
            &IvfParams {
                nlist: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(67);
        let mut scratch = QueryScratch::default();
        for case in 0..10 {
            let cen: Vec<f32> = (0..dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
            let (lo, hi, cen) = box_of(cen, rng.gen_range(0.1..0.8));
            let q = BoxQuery {
                lo: &lo,
                hi: &hi,
                cen: &cen,
                inside_weight: 0.5,
                gamma: 12.0,
                bound_slack: 0.0,
            };
            ix.select_probes(&q, ix.nlist(), &mut scratch);
            assert!(
                scratch.probes.iter().all(|p| p.0 == q.gamma as f64),
                "case {case}: some rectangle misses the box centre"
            );
            let all = scratch.probes.clone();
            assert!(
                all.windows(2).all(|w| w[0].1 <= w[1].1),
                "case {case}: probes out of centroid-distance order: {all:?}"
            );
            ix.select_probes(&q, 4, &mut scratch);
            assert_eq!(scratch.probes, all[..4], "case {case}: nprobe 4");
        }
    }

    #[test]
    fn non_finite_index_probes_every_partition_once() {
        // The `non_finite_rows_build_like_the_reference` fixture: one
        // centroid takes the NaN and infinite coordinates, so its centroid
        // distance is infinite; a NaN box centre makes every distance NaN.
        let dim = 5;
        let mut items = random_items(300, dim, 37);
        for (i, v) in [(7, f32::INFINITY), (40, f32::NEG_INFINITY), (123, f32::NAN)] {
            items[i * dim + i % dim] = v;
        }
        items[200 * dim..201 * dim].fill(f32::MAX);
        let key_bits = |s: &QueryScratch| {
            s.probes
                .iter()
                .map(|&(b, d, c)| (b.to_bits(), d.to_bits(), c))
                .collect::<Vec<_>>()
        };
        for nlist in [6, 17] {
            let ix = IvfIndex::build(
                &items,
                dim,
                &IvfParams {
                    nlist,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                ix.centroids.iter().any(|v| v.is_nan()),
                "nlist {nlist}: the fixture lost its NaN centroid"
            );
            for centre in [0.3, f32::NAN] {
                let (lo, hi, cen) = box_of(vec![centre; dim], 0.4);
                let q = BoxQuery {
                    lo: &lo,
                    hi: &hi,
                    cen: &cen,
                    inside_weight: 0.5,
                    gamma: 12.0,
                    bound_slack: 0.0,
                };
                let case = format!("nlist {nlist}, centre {centre}");
                let mut scratch = QueryScratch::default();
                ix.select_probes(&q, nlist, &mut scratch);
                assert!(
                    scratch.probes.iter().any(|p| !p.1.is_finite()),
                    "{case}: every key is finite"
                );
                let mut seen: Vec<u32> = scratch.probes.iter().map(|p| p.2).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..nlist as u32).collect::<Vec<_>>(), "{case}");
                let first = key_bits(&scratch);
                ix.select_probes(&q, nlist, &mut scratch);
                assert_eq!(key_bits(&scratch), first, "{case}: order changed");
                // Scored through the kernel: the scalar `exact_score`'s
                // `clamp` panics on a NaN box.
                let score = |i: u32| {
                    let row = &items[i as usize * dim..(i as usize + 1) * dim];
                    let (out, inside) = d_pb_bounds_parts(row, q.cen, q.lo, q.hi);
                    q.gamma - (out + q.inside_weight * inside)
                };
                let mut out = Vec::new();
                ix.rerank(&q, 20, &[], score, &mut scratch, &mut out);
                assert_eq!(out.len(), 20, "{case}");
            }
        }
    }

    #[test]
    fn mode_parsing_and_auto_params() {
        assert_eq!(IndexMode::parse("full"), Some(IndexMode::FullSort));
        assert_eq!(IndexMode::parse("FULL-SORT"), Some(IndexMode::FullSort));
        assert_eq!(
            IndexMode::parse("ivf"),
            Some(IndexMode::Ivf {
                nlist: 0,
                nprobe: 0
            })
        );
        assert_eq!(IndexMode::parse("rtree"), None);
        assert_eq!(IndexMode::default(), IndexMode::FullSort);

        let nlist = auto_nlist(40_000);
        assert_eq!(nlist, 400);
        assert_eq!(auto_nprobe(nlist), 50);
        assert_eq!(auto_nprobe(8), 4);
        assert_eq!(auto_nprobe(2), 2, "nprobe never exceeds nlist");
        assert!(auto_nlist(1) == 1);
    }

    #[test]
    fn small_catalogs_clamp_nlist() {
        let items = random_items(5, 2, 1);
        let ix = IvfIndex::build(
            &items,
            2,
            &IvfParams {
                nlist: 64,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ix.nlist(), 5);
        let ix = IvfIndex::build(
            &items,
            2,
            &IvfParams {
                nlist: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ix.nlist() >= 1 && ix.nlist() <= 5);
    }
}
