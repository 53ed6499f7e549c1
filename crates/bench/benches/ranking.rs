//! Criterion microbenches for inference: interest-box construction and
//! full-catalogue scoring (Eq. (29)).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use inbox_core::model::{InBoxModel, UniverseSizes};
use inbox_core::predict::{all_user_boxes, user_interest_box};
use inbox_core::{InBoxConfig, ItemScorer};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_eval::top_k_masked;
use inbox_kg::UserId;

fn bench_ranking(c: &mut Criterion) {
    let ds = Dataset::synthetic(&SyntheticConfig::lastfm_like(), 5);
    let cfg = InBoxConfig::for_dim(32);
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.n_users(),
    };
    let model = InBoxModel::new(sizes, &cfg);
    let user = UserId(3);

    c.bench_function("interest_box_single_user", |b| {
        b.iter(|| user_interest_box(&model, &ds.kg, &ds.train, &cfg, black_box(user)))
    });

    let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
    let scorer = ItemScorer::new(&model, &cfg, ds.n_items());
    let user_box = boxes[user.index()].as_ref();
    c.bench_function("score_all_items_900", |b| {
        b.iter(|| scorer.score_user(black_box(user_box)))
    });

    let scores = scorer.score_user(user_box);
    let mask = ds.train.items_of(user);
    c.bench_function("top20_of_900", |b| {
        b.iter(|| top_k_masked(black_box(&scores), mask, 20))
    });
}

criterion_group!(benches, bench_ranking);
criterion_main!(benches);
