//! `inbox-core` — the primary contribution of *InBox: Recommendation with
//! Knowledge Graph using Interest Box Embedding* (VLDB 2024), reproduced in
//! pure Rust.
//!
//! The model embeds KG **items as points** and **tags/relations as boxes**
//! (Section 3.1), trains in three stages — basic pretraining over IRI/TRT/
//! IRT triples (Section 3.2), box intersection (Section 3.3), and
//! interest-box recommendation (Section 3.4) — and scores candidates with
//! the point-to-box distance of Eq. (29).
//!
//! # Quick start
//!
//! ```
//! use inbox_core::{train, InBoxConfig};
//! use inbox_data::{Dataset, SyntheticConfig};
//! use inbox_kg::UserId;
//!
//! let dataset = Dataset::synthetic(&SyntheticConfig::tiny(), 7);
//! let trained = train(&dataset, InBoxConfig::tiny_test());
//! let user = UserId(0);
//! let recs = trained.recommend(user, dataset.train.items_of(user), 5);
//! assert_eq!(recs.len(), 5);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod geometry;
pub mod interpret;
pub mod model;
pub mod persist;
pub mod pool;
pub mod predict;
pub mod sampler;
pub mod simd;
pub mod stages;
pub mod trainer;

pub use config::{Ablation, InBoxConfig, IntersectionMode, LossForm, UserBoxMode};
pub use geometry::BoxEmb;
pub use model::{InBoxModel, TapeBox, UniverseSizes};
pub use pool::WorkerPool;
pub use predict::{
    all_user_boxes, all_user_boxes_with, user_box_from_history, user_interest_box, HistoryCache,
    ItemScorer, ScoreScratch,
};
pub use trainer::{train, TrainReport, TrainedInBox};
