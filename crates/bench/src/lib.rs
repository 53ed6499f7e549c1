//! `inbox-bench` — the benchmark harness that regenerates every table and
//! figure of the InBox paper's evaluation section.
//!
//! | Paper artifact | Binary | Output |
//! |---|---|---|
//! | Table 1 (dataset statistics) | `table1` | stdout + `results/table1.json` |
//! | Table 2 (overall performance) | `table2` | stdout + `results/table2.json` |
//! | Table 3 (ablations) | `table3` | stdout + `results/table3.json` |
//! | Figure 5 (concept clusters, PCA) | `figure5` | stdout + `results/figure5_*.csv` + `results/figure5.json` |
//!
//! Each binary accepts `--quick` for a reduced-epoch smoke run and
//! `--dataset <name-prefix>` to restrict the dataset suite. Criterion
//! microbenches for the geometric/training primitives live under
//! `benches/`.

#![warn(missing_docs)]

pub mod ledger;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use inbox_baselines::BaselineKind;
use inbox_core::{train, Ablation, InBoxConfig, TrainedInBox};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_eval::{evaluate_with_threads, RankingMetrics};
use serde::Serialize;

/// Harness-wide settings shared by the table binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Embedding dimension for every model.
    pub dim: usize,
    /// Seed for dataset generation and model init.
    pub seed: u64,
    /// Scale factor on all epoch counts (set < 1.0 by `--quick`).
    pub epoch_scale: f64,
    /// Restrict to datasets whose name starts with this prefix.
    pub dataset_filter: Option<String>,
    /// Cutoff K for recall/ndcg.
    pub k: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            seed: 7,
            epoch_scale: 1.0,
            dataset_filter: None,
            k: 20,
        }
    }
}

impl HarnessConfig {
    /// Parses the common CLI flags (`--quick`, `--dataset <prefix>`,
    /// `--seed <n>`).
    pub fn from_args(args: &[String]) -> Self {
        let mut cfg = Self::default();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => cfg.epoch_scale = 0.25,
                "--dataset" => {
                    cfg.dataset_filter = it.next().cloned();
                }
                "--seed" => {
                    if let Some(s) = it.next() {
                        cfg.seed = s.parse().unwrap_or(cfg.seed);
                    }
                }
                _ => {}
            }
        }
        cfg
    }

    fn scaled(&self, epochs: usize) -> usize {
        ((epochs as f64 * self.epoch_scale).round() as usize).max(2)
    }

    /// The InBox configuration used for all table experiments on this
    /// harness (CPU-scaled equivalents of the paper's settings; see
    /// DESIGN.md §1).
    pub fn inbox_config(&self) -> InBoxConfig {
        InBoxConfig {
            epochs_stage1: self.scaled(40),
            epochs_stage2: self.scaled(25),
            epochs_stage3: self.scaled(60),
            seed: self.seed,
            ..InBoxConfig::for_dim(self.dim)
        }
    }

    /// The four dataset twins, generated and filtered.
    pub fn datasets(&self) -> Vec<Dataset> {
        SyntheticConfig::paper_suite()
            .iter()
            .filter(|c| {
                self.dataset_filter
                    .as_deref()
                    .map(|f| c.name.starts_with(f))
                    .unwrap_or(true)
            })
            .map(|c| Dataset::synthetic(c, self.seed))
            .collect()
    }
}

/// One measured table cell: a model on a dataset.
#[derive(Debug, Clone, Serialize)]
pub struct MeasuredRow {
    /// Model label (paper row name).
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// recall@K.
    pub recall: f64,
    /// ndcg@K.
    pub ndcg: f64,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
}

/// Trains InBox under an ablation and evaluates it.
pub fn run_inbox(
    dataset: &Dataset,
    harness: &HarnessConfig,
    ablation: Ablation,
) -> (TrainedInBox, RankingMetrics, Duration) {
    let cfg = ablation.configure(harness.inbox_config());
    let started = Instant::now();
    let trained = train(dataset, cfg);
    let elapsed = started.elapsed();
    let metrics = trained.evaluate(dataset, harness.k);
    (trained, metrics, elapsed)
}

/// Trains a baseline and evaluates it.
pub fn run_baseline(
    dataset: &Dataset,
    harness: &HarnessConfig,
    kind: BaselineKind,
) -> (RankingMetrics, Duration) {
    let epochs = match kind {
        BaselineKind::Popularity => 1,
        BaselineKind::Mf => harness.scaled(40),
        BaselineKind::Cke => harness.scaled(15),
        BaselineKind::KgatLite => harness.scaled(12),
        BaselineKind::KginLite => harness.scaled(15),
    };
    let started = Instant::now();
    let model = kind.fit(dataset, harness.dim, epochs, harness.seed);
    let elapsed = started.elapsed();
    let metrics =
        evaluate_with_threads(model.as_ref(), &dataset.train, &dataset.test, harness.k, 1);
    (metrics, elapsed)
}

/// The `results/` directory (created on demand) next to the workspace root.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Serialises `value` as pretty JSON under `results/<name>`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("serialise results");
    std::fs::write(&path, json).expect("write results file");
    println!("\n[written {}]", path.display());
}

/// Formats a `recall / ndcg` cell.
pub fn cell(m: &RankingMetrics) -> String {
    format!("{:.4} / {:.4}", m.recall, m.ndcg)
}

/// Aggregates every span and counter recorded so far into a
/// [`inbox_obs::RunSummary`] and writes it as pretty JSON under
/// `results/<name>` — the instrumentation companion to each table's results
/// file (sampler/gradient/eval percentiles, training throughput counters).
pub fn write_run_metrics(name: &str) {
    let summary = inbox_obs::emit_run_summary(inbox_obs::next_run_id());
    write_json(name, &summary);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parsing() {
        let cfg = HarnessConfig::from_args(&[
            "--quick".into(),
            "--dataset".into(),
            "lastfm".into(),
            "--seed".into(),
            "11".into(),
        ]);
        assert_eq!(cfg.epoch_scale, 0.25);
        assert_eq!(cfg.dataset_filter.as_deref(), Some("lastfm"));
        assert_eq!(cfg.seed, 11);
        assert_eq!(cfg.scaled(40), 10);
    }

    #[test]
    fn dataset_filter_restricts_suite() {
        let cfg = HarnessConfig {
            dataset_filter: Some("yelp".into()),
            ..Default::default()
        };
        let ds = cfg.datasets();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].name, "yelp2018-like");
    }

    #[test]
    fn inbox_config_respects_scale() {
        let cfg = HarnessConfig {
            epoch_scale: 0.25,
            ..Default::default()
        };
        let ib = cfg.inbox_config();
        assert_eq!(ib.epochs_stage1, 10);
        assert_eq!(ib.epochs_stage2, 6);
        assert_eq!(ib.epochs_stage3, 15);
    }
}
