//! The all-ranking evaluation protocol of Section 4.1.2.
//!
//! For each target user, *every* item the user has not interacted with in
//! training is a candidate; the user's held-out test items are the positives.
//! Candidates are ranked by model score and `recall@K` / `ndcg@K` are
//! averaged over all users with a non-empty test set (K = 20 by default, as
//! in the paper).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use inbox_data::Interactions;
use inbox_kg::{ItemId, UserId};

/// A recommendation model that can score every item for a user.
///
/// `score_items` must return one score per item (higher = better). The
/// evaluation harness masks train items itself, so implementations can score
/// everything unconditionally.
pub trait Scorer: Sync {
    /// Scores all items for `user`; the returned vector has `n_items` entries.
    fn score_items(&self, user: UserId) -> Vec<f32>;
}

impl<F> Scorer for F
where
    F: Fn(UserId) -> Vec<f32> + Sync,
{
    fn score_items(&self, user: UserId) -> Vec<f32> {
        self(user)
    }
}

/// `recall@K` and `ndcg@K` averaged over evaluated users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingMetrics {
    /// Average recall at the configured cutoff.
    pub recall: f64,
    /// Average NDCG at the configured cutoff.
    pub ndcg: f64,
    /// Number of users that contributed (non-empty test set).
    pub n_users_evaluated: usize,
}

impl std::fmt::Display for RankingMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recall {:.4}, ndcg {:.4} ({} users)",
            self.recall, self.ndcg, self.n_users_evaluated
        )
    }
}

/// One held candidate. `Ord` is the ranking protocol: an entry is
/// *greater* when it ranks *worse* — lower score, ties toward the larger
/// item id — so the max-heap's root is the current k-th best and an
/// ascending sort lists candidates best-first.
#[derive(PartialEq)]
struct Ranked {
    score: f32,
    item: ItemId,
}

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.item.cmp(&other.item))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The masked top-k selector every ranking path shares: a bounded max-heap
/// of the `k` best `(item, score)` candidates offered since the last
/// [`reset`](Self::reset), ordered score descending, then item id
/// ascending. Item ids are distinct, so that order is total and the
/// answer does not depend on the order candidates arrive in.
///
/// The heap's backing storage survives between queries: once it has
/// warmed to capacity `k`, selecting allocates nothing.
#[derive(Default)]
pub struct TopKScratch {
    heap: BinaryHeap<Ranked>,
    k: usize,
}

impl TopKScratch {
    /// Empties the selector and sets how many candidates it keeps.
    pub fn reset(&mut self, k: usize) {
        self.heap.clear();
        self.heap.reserve(k);
        self.k = k;
    }

    /// Offers one candidate; it is kept while it ranks among the best `k`.
    pub fn push(&mut self, item: ItemId, score: f32) {
        let entry = Ranked { score, item };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if entry < *worst {
                *worst = entry;
            }
        }
    }

    /// Whether [`push`](Self::push) would keep this candidate now: the
    /// selector is not yet full, or the candidate ranks above the worst
    /// one held. A caller with a mask asks this first, so an item that
    /// cannot enter never looks at the mask.
    pub fn enters(&self, item: ItemId, score: f32) -> bool {
        let entry = Ranked { score, item };
        self.heap.len() < self.k || self.heap.peek().is_some_and(|worst| entry < *worst)
    }

    /// The k-th best score offered so far, once `k` candidates are held
    /// (never for `k = 0`): a candidate scoring below it can no longer
    /// enter the answer.
    pub fn kth(&self) -> Option<f32> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|e| e.score)
        } else {
            None
        }
    }

    /// Resets to `k` and offers every item of `scores` (item id = index)
    /// that is not in `mask`, which must be strictly ascending.
    ///
    /// The heap test comes first: most items cannot enter a warm heap, and
    /// those never look at the mask. An item that would enter is checked
    /// against the mask by a cursor that only moves forward, since items
    /// arrive in id order. The pushes are the ones [`push`](Self::push)
    /// would make for every unmasked item, so the answer is the same.
    pub fn select(&mut self, scores: &[f32], mask: &[ItemId], k: usize) {
        debug_assert!(
            mask.windows(2).all(|w| w[0] < w[1]),
            "the mask must be strictly ascending"
        );
        self.reset(k);
        let mut masked = mask.iter().peekable();
        for (idx, &score) in scores.iter().enumerate() {
            let item = ItemId(idx as u32);
            if !self.enters(item, score) {
                continue;
            }
            while masked.next_if(|&&m| m < item).is_some() {}
            if masked.peek() != Some(&&item) {
                self.push(item, score);
            }
        }
    }

    /// Hands the held candidates to `emit` best-first and empties the
    /// selector, keeping its storage.
    pub fn finish(&mut self, mut emit: impl FnMut(ItemId, f32)) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.sort_unstable();
        for e in &entries {
            emit(e.item, e.score);
        }
        entries.clear();
        self.heap = BinaryHeap::from(entries);
    }
}

/// Selects the top-`k` items by score among candidates not in `mask`,
/// ordered best-first. Ties are broken toward smaller item ids.
pub fn top_k_masked(scores: &[f32], mask: &[ItemId], k: usize) -> Vec<ItemId> {
    let mut scratch = TopKScratch::default();
    let mut out = Vec::new();
    top_k_masked_into(scores, mask, k, &mut scratch, &mut out);
    out
}

/// [`top_k_masked`] writing into caller-owned buffers: identical output,
/// but steady-state allocation-free once `scratch` and `out` have warmed
/// to capacity `k`.
pub fn top_k_masked_into(
    scores: &[f32],
    mask: &[ItemId],
    k: usize,
    scratch: &mut TopKScratch,
    out: &mut Vec<ItemId>,
) {
    scratch.select(scores, mask, k);
    out.clear();
    scratch.finish(|item, _| out.push(item));
}

/// Computes `recall@K` and `ndcg@K` for one user given the ranked top-K and
/// the (sorted) positive test items.
pub fn user_metrics(top_k: &[ItemId], test_items: &[ItemId]) -> (f64, f64) {
    if test_items.is_empty() {
        return (0.0, 0.0);
    }
    let mut hits = 0usize;
    let mut dcg = 0.0f64;
    for (rank, item) in top_k.iter().enumerate() {
        if test_items.binary_search(item).is_ok() {
            hits += 1;
            dcg += 1.0 / ((rank + 2) as f64).log2();
        }
    }
    let ideal = test_items.len().min(top_k.len());
    let idcg: f64 = (0..ideal).map(|r| 1.0 / ((r + 2) as f64).log2()).sum();
    let recall = hits as f64 / test_items.len() as f64;
    let ndcg = if idcg > 0.0 { dcg / idcg } else { 0.0 };
    (recall, ndcg)
}

/// Evaluates a scorer over all test users with the all-ranking protocol,
/// parallelised over users.
pub fn evaluate(
    scorer: &dyn Scorer,
    train: &Interactions,
    test: &Interactions,
    k: usize,
) -> RankingMetrics {
    evaluate_with_threads(scorer, train, test, k, default_threads())
}

/// Number of worker threads used by [`evaluate`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// [`evaluate`] with an explicit thread count (1 = sequential).
pub fn evaluate_with_threads(
    scorer: &dyn Scorer,
    train: &Interactions,
    test: &Interactions,
    k: usize,
    threads: usize,
) -> RankingMetrics {
    assert_eq!(
        train.n_users(),
        test.n_users(),
        "split user universes differ"
    );
    let users: Vec<UserId> = (0..test.n_users() as u32)
        .map(UserId)
        .filter(|u| !test.items_of(*u).is_empty())
        .collect();
    if users.is_empty() {
        return RankingMetrics {
            recall: 0.0,
            ndcg: 0.0,
            n_users_evaluated: 0,
        };
    }

    let eval_user = |u: UserId| -> (f64, f64) {
        let scores = scorer.score_items(u);
        debug_assert_eq!(scores.len(), train.n_items());
        let top = top_k_masked(&scores, train.items_of(u), k);
        user_metrics(&top, test.items_of(u))
    };

    // "eval.rank" measures the whole ranking pass; "eval.rank.worker" gets
    // one interval per worker thread (one for the whole pass when
    // sequential), so the span histogram exposes per-thread throughput and
    // straggler spread. The counter tracks total users ranked.
    let ranked = inbox_obs::counter("eval.users.ranked");
    let span = inbox_obs::span("eval.rank");
    let results: Vec<(f64, f64)> = if threads <= 1 || users.len() < 32 {
        let worker = inbox_obs::span("eval.rank.worker");
        let out: Vec<(f64, f64)> = users.iter().map(|&u| eval_user(u)).collect();
        worker.stop();
        ranked.add(users.len() as u64);
        out
    } else {
        let chunk = users.len().div_ceil(threads);
        let mut results = vec![(0.0, 0.0); users.len()];
        let ranked = &ranked;
        std::thread::scope(|s| {
            for (slice_users, slice_out) in users.chunks(chunk).zip(results.chunks_mut(chunk)) {
                s.spawn(move || {
                    let worker = inbox_obs::span("eval.rank.worker");
                    for (u, out) in slice_users.iter().zip(slice_out.iter_mut()) {
                        *out = eval_user(*u);
                    }
                    worker.stop();
                    ranked.add(slice_users.len() as u64);
                });
            }
        });
        results
    };
    span.stop();

    let n = results.len();
    let (recall_sum, ndcg_sum) = results
        .iter()
        .fold((0.0, 0.0), |(r, n2), &(ru, nu)| (r + ru, n2 + nu));
    RankingMetrics {
        recall: recall_sum / n as f64,
        ndcg: ndcg_sum / n as f64,
        n_users_evaluated: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_masks_and_orders() {
        let scores = vec![0.1, 0.9, 0.5, 0.7, 0.3];
        let mask = vec![ItemId(1)];
        let top = top_k_masked(&scores, &mask, 3);
        assert_eq!(top, vec![ItemId(3), ItemId(2), ItemId(4)]);
    }

    #[test]
    fn top_k_tie_break_is_by_item_id() {
        let scores = vec![0.5, 0.5, 0.5, 0.5];
        let top = top_k_masked(&scores, &[], 2);
        assert_eq!(top, vec![ItemId(0), ItemId(1)]);
    }

    #[test]
    fn top_k_into_matches_allocating_variant_and_reuses_capacity() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut scratch = TopKScratch::default();
        let mut out = Vec::new();
        for trial in 0..50 {
            let n = 1 + (trial * 7) % 200;
            let scores: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut mask: Vec<ItemId> = (0..n as u32)
                .filter(|_| rng.gen_bool(0.2))
                .map(ItemId)
                .collect();
            mask.sort_unstable();
            let k = 1 + trial % 25;
            let reference = top_k_masked(&scores, &mask, k);
            top_k_masked_into(&scores, &mask, k, &mut scratch, &mut out);
            assert_eq!(out, reference, "trial {trial} diverged");
        }
        // Ties too: identical scores must order by item id either way.
        let scores = vec![0.5f32; 40];
        let reference = top_k_masked(&scores, &[], 10);
        top_k_masked_into(&scores, &[], 10, &mut scratch, &mut out);
        assert_eq!(out, reference);
        // The scratch retains its backing capacity between calls.
        let cap = scratch.heap.capacity();
        top_k_masked_into(&scores, &[], 10, &mut scratch, &mut out);
        assert_eq!(scratch.heap.capacity(), cap);
    }

    #[test]
    fn top_k_handles_k_larger_than_candidates() {
        let scores = vec![0.2, 0.8];
        let top = top_k_masked(&scores, &[], 10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], ItemId(1));
    }

    #[test]
    fn user_metrics_perfect_ranking() {
        let test_items = vec![ItemId(1), ItemId(2)];
        let top = vec![ItemId(1), ItemId(2), ItemId(3)];
        let (recall, ndcg) = user_metrics(&top, &test_items);
        assert_eq!(recall, 1.0);
        assert!((ndcg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn user_metrics_partial_hit() {
        let test_items = vec![ItemId(1), ItemId(5)];
        let top = vec![ItemId(0), ItemId(1)]; // hit at rank 2
        let (recall, ndcg) = user_metrics(&top, &test_items);
        assert_eq!(recall, 0.5);
        // DCG = 1/log2(3); IDCG = 1/log2(2) + 1/log2(3)
        let dcg = 1.0 / 3f64.log2();
        let idcg = 1.0 + 1.0 / 3f64.log2();
        assert!((ndcg - dcg / idcg).abs() < 1e-12);
    }

    #[test]
    fn user_metrics_no_hits_or_empty() {
        let (r, n) = user_metrics(&[ItemId(0)], &[ItemId(9)]);
        assert_eq!((r, n), (0.0, 0.0));
        let (r, n) = user_metrics(&[ItemId(0)], &[]);
        assert_eq!((r, n), (0.0, 0.0));
    }

    fn toy_split() -> (Interactions, Interactions) {
        // 2 users, 4 items. User 0 trained on {0}, tests {1}. User 1 trained
        // on {2}, tests {3}.
        let train =
            Interactions::from_pairs(2, 4, vec![(UserId(0), ItemId(0)), (UserId(1), ItemId(2))])
                .unwrap();
        let test =
            Interactions::from_pairs(2, 4, vec![(UserId(0), ItemId(1)), (UserId(1), ItemId(3))])
                .unwrap();
        (train, test)
    }

    #[test]
    fn evaluate_oracle_scorer_is_perfect() {
        let (train, test) = toy_split();
        // Oracle: score the test item highest.
        let scorer = |u: UserId| -> Vec<f32> {
            let mut s = vec![0.0f32; 4];
            match u {
                UserId(0) => s[1] = 1.0,
                _ => s[3] = 1.0,
            }
            s
        };
        let m = evaluate(&scorer, &train, &test, 2);
        assert_eq!(m.n_users_evaluated, 2);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.ndcg, 1.0);
    }

    #[test]
    fn evaluate_adversarial_scorer_is_zero_at_k1() {
        let (train, test) = toy_split();
        // Anti-oracle: score the test item lowest. With k=1 nothing is found.
        let scorer = |u: UserId| -> Vec<f32> {
            let mut s = vec![1.0f32; 4];
            match u {
                UserId(0) => s[1] = 0.0,
                _ => s[3] = 0.0,
            }
            s
        };
        let m = evaluate(&scorer, &train, &test, 1);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.ndcg, 0.0);
    }

    #[test]
    fn evaluate_masks_train_items() {
        let (train, test) = toy_split();
        // Constant scorer: without masking, item 0 would occupy user 0's
        // rank 1; with masking, rank 1 is item 1 (the test item).
        let scorer = |_: UserId| vec![0.0f32; 4];
        let m = evaluate(&scorer, &train, &test, 1);
        assert_eq!(
            m.recall, 0.5,
            "user 0 hits via mask+tie-break, user 1 misses"
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n_users = 64;
        let n_items = 50;
        let mut train_pairs = Vec::new();
        let mut test_pairs = Vec::new();
        for u in 0..n_users {
            for _ in 0..5 {
                train_pairs.push((UserId(u), ItemId(rng.gen_range(0..n_items) as u32)));
            }
            test_pairs.push((UserId(u), ItemId(rng.gen_range(0..n_items) as u32)));
        }
        let train = Interactions::from_pairs(n_users as usize, n_items, train_pairs).unwrap();
        let test = Interactions::from_pairs(n_users as usize, n_items, test_pairs).unwrap();
        let scorer = |u: UserId| -> Vec<f32> {
            (0..n_items)
                .map(|i| ((u.0 as usize * 31 + i * 17) % 97) as f32)
                .collect()
        };
        let seq = evaluate_with_threads(&scorer, &train, &test, 20, 1);
        let par = evaluate_with_threads(&scorer, &train, &test, 20, 4);
        assert_eq!(seq, par);
    }
}
