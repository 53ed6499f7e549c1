//! Extension experiment (not a numbered artifact in the paper): quantifies
//! the conclusion's claim that box representations yield more *diverse*
//! recommendations. Compares InBox against MF-BPR and KGIN-lite on
//! catalogue coverage, exposure Gini, and intra-list concept similarity
//! over the Last-FM twin.
//!
//! Run: `cargo run --release -p inbox-bench --bin diversity [--quick]`

use inbox_baselines::BaselineKind;
use inbox_bench::{run_baseline, run_inbox, write_json, write_run_metrics, HarnessConfig};
use inbox_core::Ablation;
use inbox_eval::{
    beyond_accuracy, evaluate_with_threads, intra_list_similarity, top_k_masked, Scorer,
};
use inbox_kg::{ItemId, UserId};
use serde::Serialize;

#[derive(Serialize)]
struct DiversityRow {
    model: String,
    recall: f64,
    coverage: f64,
    gini: f64,
    intra_list_similarity: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut harness = HarnessConfig::from_args(&args);
    if harness.dataset_filter.is_none() {
        harness.dataset_filter = Some("lastfm".to_string());
    }
    let datasets = harness.datasets();
    let ds = &datasets[0];

    let collect_lists = |scorer: &dyn Scorer| -> Vec<Vec<ItemId>> {
        (0..ds.n_users() as u32)
            .map(UserId)
            .filter(|u| !ds.test.items_of(*u).is_empty())
            .map(|u| top_k_masked(&scorer.score_items(u), ds.train.items_of(u), harness.k))
            .collect()
    };
    let concepts_of = |i: ItemId| -> Vec<(u32, u32)> {
        ds.kg
            .concepts_of(i)
            .iter()
            .map(|c| (c.relation.0, c.tag.0))
            .collect()
    };

    let mut rows = Vec::new();
    let mut measure = |label: &str, scorer: &dyn Scorer| {
        let m = evaluate_with_threads(scorer, &ds.train, &ds.test, harness.k, 1);
        let b = beyond_accuracy(scorer, &ds.train, &ds.test, harness.k);
        let ils = intra_list_similarity(&collect_lists(scorer), concepts_of);
        println!(
            "{label:<12} recall {:.4}  coverage {:.3}  gini {:.3}  ILS {:.3}",
            m.recall, b.coverage, b.gini, ils
        );
        rows.push(DiversityRow {
            model: label.to_string(),
            recall: m.recall,
            coverage: b.coverage,
            gini: b.gini,
            intra_list_similarity: ils,
        });
    };

    println!(
        "Beyond-accuracy comparison on {} (top-{}):\n",
        ds.name, harness.k
    );
    for kind in [BaselineKind::Mf, BaselineKind::KginLite] {
        eprintln!("[diversity] {} ...", kind.label());
        let epochs = 15;
        let model = kind.fit(ds, harness.dim, epochs, harness.seed);
        measure(kind.label(), model.as_ref());
    }
    eprintln!("[diversity] InBox ...");
    let (trained, _m, _t) = run_inbox(ds, &harness, Ablation::Base);
    measure("InBox", &trained);

    // Popularity as the worst-case concentration reference.
    let (_, _) = run_baseline(ds, &harness, BaselineKind::Popularity);
    let pop = BaselineKind::Popularity.fit(ds, harness.dim, 1, harness.seed);
    measure("Popularity", pop.as_ref());

    println!("\nInterpretation: lower gini and ILS with comparable recall = broader,");
    println!("more varied lists — the paper's 'diverse' claim, quantified.");
    write_json("diversity.json", &rows);
    write_run_metrics("diversity.metrics.json");
}
