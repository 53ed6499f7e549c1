//! Property test for the masked top-k selector (`TopKScratch`): for any
//! scores — with exact ties forced by a small palette of repeated values,
//! `0.0` and `-0.0` among them — any sorted mask and any `k` around the
//! candidate count, the selector's answer and its k-th score equal a
//! plain sort-and-truncate, bit for bit, whatever order the candidates
//! arrive in.

use inbox_eval::{top_k_masked_into, TopKScratch};
use inbox_kg::ItemId;
use proptest::prelude::*;

const MAX_ITEMS: usize = 60;

fn score() -> impl Strategy<Value = f32> {
    prop_oneof![
        -4.0f32..4.0,
        Just(1.5f32),
        Just(0.0f32),
        Just(-0.0f32),
        Just(-2.25f32),
    ]
}

/// Sort-and-truncate: every unmasked `(item, score)`, score descending,
/// then item id ascending, cut to `k`.
fn reference(scores: &[f32], mask: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
    let mut all: Vec<(ItemId, f32)> = (0..scores.len() as u32)
        .map(ItemId)
        .filter(|i| mask.binary_search(i).is_err())
        .map(|i| (i, scores[i.index()]))
        .collect();
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn bits(ranked: &[(ItemId, f32)]) -> Vec<(ItemId, u32)> {
    ranked.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

proptest! {
    #[test]
    fn selector_matches_sort_and_truncate_bit_for_bit(
        scores in prop::collection::vec(score(), 1..MAX_ITEMS),
        masked in prop::collection::vec(0u8..4, MAX_ITEMS),
        arrival in prop::collection::vec(0u32..1_000_000, MAX_ITEMS),
        which_k in 0usize..5,
    ) {
        let n = scores.len();
        // About a quarter of the items masked; ascending by construction.
        let mask: Vec<ItemId> = (0..n as u32)
            .filter(|&i| masked[i as usize] == 0)
            .map(ItemId)
            .collect();
        let k = [0, 1, n - 1, n, n + 3][which_k];
        let want = reference(&scores, &mask, k);
        let want_kth = (k > 0 && want.len() == k).then(|| want[k - 1].1.to_bits());

        // Item order, through `select`.
        let mut selector = TopKScratch::default();
        selector.select(&scores, &mask, k);
        prop_assert_eq!(selector.kth().map(f32::to_bits), want_kth);
        let mut got = Vec::new();
        selector.finish(|i, s| got.push((i, s)));
        prop_assert_eq!(bits(&got), bits(&want));

        // A shuffled arrival order, through `reset` + `push`, on the same
        // (now warm) selector.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| (arrival[i as usize], i));
        selector.reset(k);
        for &i in &order {
            if mask.binary_search(&ItemId(i)).is_err() {
                selector.push(ItemId(i), scores[i as usize]);
            }
        }
        prop_assert_eq!(selector.kth().map(f32::to_bits), want_kth);
        got.clear();
        selector.finish(|i, s| got.push((i, s)));
        prop_assert_eq!(bits(&got), bits(&want));

        // The item-only wrapper lists the same items.
        let mut items = Vec::new();
        top_k_masked_into(&scores, &mask, k, &mut selector, &mut items);
        let want_items: Vec<ItemId> = want.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(items, want_items);
    }
}
