//! Saving and loading trained InBox models.
//!
//! A checkpoint stores the training configuration, the universe sizes, every
//! parameter tensor by name, and the precomputed user interest boxes, as a
//! single JSON document. Optimiser state is not persisted — a reloaded model
//! is ready for inference (and can be retrained from its weights).

use std::io::Write;
use std::path::Path;

use inbox_autodiff::Tensor;
use serde::{Deserialize, Serialize};

use crate::config::InBoxConfig;
use crate::geometry::BoxEmb;
use crate::model::{InBoxModel, UniverseSizes};
use crate::trainer::{TrainReport, TrainedInBox};

/// Errors raised while saving or loading a checkpoint.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file on disk is not a parseable checkpoint at all: empty,
    /// truncated mid-write, or filled with something that is not JSON.
    /// Distinct from [`PersistError::Format`], which covers documents that
    /// *are* valid JSON but do not match the checkpoint schema.
    Corrupt(String),
    /// (De)serialisation failure.
    Format(String),
    /// The checkpoint does not match the model it is loaded into.
    Mismatch(String),
    /// The checkpoint was written by a newer (or otherwise unknown) format
    /// version. Detected *before* field-level deserialisation, so a future
    /// format with incompatible fields surfaces as this typed error rather
    /// than an opaque parse failure.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Newest version this build can read.
        supported: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            PersistError::Format(e) => write!(f, "format error: {e}"),
            PersistError::Mismatch(e) => write!(f, "checkpoint mismatch: {e}"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads up to {supported})"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

#[derive(Serialize, Deserialize)]
struct SerializedBox {
    cen: Vec<f32>,
    off: Vec<f32>,
}

/// The on-disk checkpoint format (JSON).
#[derive(Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version for forwards compatibility.
    pub version: u32,
    /// The training configuration.
    pub config: InBoxConfig,
    /// Number of items.
    pub n_items: usize,
    /// Number of tags.
    pub n_tags: usize,
    /// Number of relations.
    pub n_relations: usize,
    /// Number of users.
    pub n_users: usize,
    params: Vec<(String, Tensor)>,
    boxes: Vec<Option<SerializedBox>>,
    /// Training history (losses, recalls, early-stop flag). Defaults to an
    /// empty report when loading checkpoints written before it existed, so
    /// the format version stays at 1.
    #[serde(default)]
    pub report: TrainReport,
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Serialises a trained model into a [`Checkpoint`].
pub fn to_checkpoint(trained: &TrainedInBox) -> Checkpoint {
    let sizes = trained.model.sizes();
    Checkpoint {
        version: CHECKPOINT_VERSION,
        config: trained.config.clone(),
        n_items: sizes.n_items,
        n_tags: sizes.n_tags,
        n_relations: sizes.n_relations,
        n_users: sizes.n_users,
        params: trained.model.store.export_values(),
        boxes: trained
            .boxes
            .iter()
            .map(|b| {
                b.as_ref().map(|b| SerializedBox {
                    cen: b.cen.clone(),
                    off: b.off.clone(),
                })
            })
            .collect(),
        report: trained.report.clone(),
    }
}

/// Reconstructs a trained model from a [`Checkpoint`].
pub fn from_checkpoint(ckpt: Checkpoint) -> Result<TrainedInBox, PersistError> {
    if ckpt.version != CHECKPOINT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: ckpt.version,
            supported: CHECKPOINT_VERSION,
        });
    }
    let sizes = UniverseSizes {
        n_items: ckpt.n_items,
        n_tags: ckpt.n_tags,
        n_relations: ckpt.n_relations,
        n_users: ckpt.n_users,
    };
    let mut model = InBoxModel::new(sizes, &ckpt.config);
    model
        .store
        .import_values(&ckpt.params)
        .map_err(PersistError::Mismatch)?;
    let boxes: Vec<Option<BoxEmb>> = ckpt
        .boxes
        .into_iter()
        .map(|b| b.map(|b| BoxEmb::new(b.cen, b.off)))
        .collect();
    if boxes.len() != ckpt.n_users {
        return Err(PersistError::Mismatch(format!(
            "checkpoint has {} user boxes for {} users",
            boxes.len(),
            ckpt.n_users
        )));
    }
    Ok(TrainedInBox::from_parts(
        model,
        ckpt.config,
        boxes,
        ckpt.report,
    ))
}

/// Saves a trained model as JSON at `path`, atomically: the document is
/// written to a temporary file in the same directory, synced, and renamed
/// over `path`, and the directory is synced. A crash or error before the
/// rename leaves the previous checkpoint at `path` untouched.
pub fn save(trained: &TrainedInBox, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let ckpt = to_checkpoint(trained);
    let mut json = serde_json::to_string(&ckpt).map_err(|e| PersistError::Format(e.to_string()))?;
    if inbox_obs::failpoint!("persist.save.truncate") {
        // Simulates a short write / crash mid-checkpoint: only the first
        // half of the document reaches disk.
        json.truncate(json.len() / 2);
    }
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".tmp-{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        if inbox_obs::failpoint!("persist.save.before_rename") {
            return Err(std::io::Error::other(
                "injected failpoint: persist.save.before_rename",
            ));
        }
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.map_err(PersistError::Io)
}

/// Loads a trained model from `path`.
///
/// The format version is checked on the raw JSON value **before** the
/// checkpoint struct is deserialised: a file written by a future format —
/// whose fields this build may not even be able to parse — fails with
/// [`PersistError::UnsupportedVersion`] instead of a misleading field-level
/// format error. Files that never parse as JSON at all (empty, truncated
/// mid-write, or plain garbage) fail earlier still with
/// [`PersistError::Corrupt`] — never a raw [`PersistError::Io`], which is
/// reserved for genuine filesystem failures.
pub fn load(path: impl AsRef<Path>) -> Result<TrainedInBox, PersistError> {
    if inbox_obs::failpoint!("persist.load.io") {
        return Err(PersistError::Io(std::io::Error::other(
            "injected failpoint: persist.load.io",
        )));
    }
    let mut json = std::fs::read_to_string(path)?;
    if inbox_obs::failpoint!("persist.load.truncate") {
        // Simulates a short read: the tail of the document is lost.
        json.truncate(json.len() / 2);
    }
    if json.trim().is_empty() {
        return Err(PersistError::Corrupt("checkpoint file is empty".into()));
    }
    let value: serde_json::Value = serde_json::from_str(&json)
        .map_err(|e| PersistError::Corrupt(format!("unparseable checkpoint JSON: {e}")))?;
    let found = value
        .as_object()
        .and_then(|o| o.get("version"))
        .and_then(|v| match v {
            serde::value::Value::Number(n) => n.as_u64(),
            _ => None,
        })
        .ok_or_else(|| PersistError::Format("checkpoint has no `version` field".into()))?;
    if found != u64::from(CHECKPOINT_VERSION) {
        return Err(PersistError::UnsupportedVersion {
            found: found.try_into().unwrap_or(u32::MAX),
            supported: CHECKPOINT_VERSION,
        });
    }
    let ckpt: Checkpoint =
        serde_json::from_value(&value).map_err(|e| PersistError::Format(e.to_string()))?;
    from_checkpoint(ckpt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train;
    use inbox_data::{Dataset, SyntheticConfig};
    use inbox_eval::Scorer;
    use inbox_kg::UserId;

    #[test]
    fn checkpoint_roundtrip_preserves_scores() {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 44);
        let trained = train(&ds, crate::config::InBoxConfig::tiny_test());
        let path = std::env::temp_dir().join(format!("inbox-ckpt-{}.json", std::process::id()));
        save(&trained, &path).unwrap();
        let reloaded = load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        for u in 0..3u32 {
            let a = trained.score_items(UserId(u));
            let b = reloaded.score_items(UserId(u));
            assert_eq!(a, b, "reloaded scores must be identical for user {u}");
        }
        // Recommendations agree too.
        let user = UserId(0);
        let mask = ds.train.items_of(user);
        assert_eq!(
            trained.recommend(user, mask, 5),
            reloaded.recommend(user, mask, 5)
        );
    }

    #[test]
    fn checkpoint_preserves_train_report() {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 46);
        let trained = train(&ds, crate::config::InBoxConfig::tiny_test());
        let path = std::env::temp_dir().join(format!("inbox-report-{}.json", std::process::id()));
        save(&trained, &path).unwrap();
        let reloaded = load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(reloaded.report.stage1_losses, trained.report.stage1_losses);
        assert_eq!(reloaded.report.stage2_losses, trained.report.stage2_losses);
        assert_eq!(reloaded.report.stage3_losses, trained.report.stage3_losses);
        assert_eq!(
            reloaded.report.stage3_recalls,
            trained.report.stage3_recalls
        );
        assert_eq!(reloaded.report.early_stopped, trained.report.early_stopped);
        assert_eq!(reloaded.report.run_id, trained.report.run_id);
    }

    #[test]
    fn checkpoint_without_report_field_still_loads() {
        // Checkpoints written before the report field existed must load with
        // an empty report (same format version, `#[serde(default)]`).
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 47);
        let trained = train(&ds, crate::config::InBoxConfig::tiny_test());
        let value = serde_json::to_value(&to_checkpoint(&trained)).unwrap();
        let obj = value.as_object().unwrap();
        let mut stripped = serde::value::Map::new();
        for (k, v) in obj.iter() {
            if k != "report" {
                stripped.insert(k.clone(), v.clone());
            }
        }
        let ckpt: Checkpoint =
            serde_json::from_value(&serde::value::Value::Object(stripped)).unwrap();
        let reloaded = from_checkpoint(ckpt).unwrap();
        assert!(reloaded.report.stage3_losses.is_empty());
        assert_eq!(reloaded.report.run_id, 0);
    }

    #[test]
    fn version_mismatch_rejected() {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 45);
        let trained = train(&ds, crate::config::InBoxConfig::tiny_test());
        let mut ckpt = to_checkpoint(&trained);
        ckpt.version = 99;
        let err = match from_checkpoint(ckpt) {
            Err(e) => e,
            Ok(_) => panic!("version mismatch must be rejected"),
        };
        assert!(matches!(
            err,
            PersistError::UnsupportedVersion {
                found: 99,
                supported: CHECKPOINT_VERSION
            }
        ));
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn future_version_with_unknown_fields_fails_typed_not_garbage() {
        // A checkpoint from a hypothetical future format: bumped version,
        // fields this build has never heard of, and a *missing* field the
        // current struct requires. Loading must fail with the typed
        // UnsupportedVersion error from the version sniff — never a panic or
        // a confusing field-level format error.
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 48);
        let trained = train(&ds, crate::config::InBoxConfig::tiny_test());
        let value = serde_json::to_value(&to_checkpoint(&trained)).unwrap();
        let obj = value.as_object().unwrap();
        let mut future = serde::value::Map::new();
        for (k, v) in obj.iter() {
            match k.as_str() {
                "version" => future.insert(
                    "version",
                    serde::value::Value::Number(serde::value::Number::U64(
                        u64::from(CHECKPOINT_VERSION) + 1,
                    )),
                ),
                // The future format renamed `params`; this build could not
                // deserialise the document even if it tried.
                "params" => future.insert("parameter_shards", v.clone()),
                _ => future.insert(k.clone(), v.clone()),
            }
        }
        future.insert(
            "quantization",
            serde::value::Value::String("int8-blockwise".into()),
        );
        let path = std::env::temp_dir().join(format!("inbox-future-{}.json", std::process::id()));
        std::fs::write(
            &path,
            serde_json::to_string(&serde::value::Value::Object(future)).unwrap(),
        )
        .unwrap();
        let err = match load(&path) {
            Err(e) => e,
            Ok(_) => panic!("future version must be rejected"),
        };
        std::fs::remove_file(&path).unwrap();
        match err {
            PersistError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, CHECKPOINT_VERSION + 1);
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn versionless_document_is_a_format_error() {
        let path =
            std::env::temp_dir().join(format!("inbox-versionless-{}.json", std::process::id()));
        std::fs::write(&path, "{\"config\":{}}").unwrap();
        let err = match load(&path) {
            Err(e) => e,
            Ok(_) => panic!("versionless document must be rejected"),
        };
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, PersistError::Format(_)));
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn load_rejects_garbage_file() {
        let path = std::env::temp_dir().join(format!("inbox-garbage-{}.json", std::process::id()));
        std::fs::write(&path, "not json at all").unwrap();
        let err = match load(&path) {
            Err(e) => e,
            Ok(_) => panic!("garbage must be rejected"),
        };
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, PersistError::Corrupt(_)));
    }

    #[test]
    fn load_rejects_empty_file_as_corrupt_not_io() {
        let path = std::env::temp_dir().join(format!("inbox-empty-{}.json", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let err = match load(&path) {
            Err(e) => e,
            Ok(_) => panic!("empty file must be rejected"),
        };
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn load_rejects_truncated_checkpoint_as_corrupt() {
        // A checkpoint cut off mid-write (e.g. a crash between `write` and
        // `fsync`) is detected as Corrupt, not surfaced as a raw I/O or
        // confusing schema error.
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 49);
        let trained = train(&ds, crate::config::InBoxConfig::tiny_test());
        let path = std::env::temp_dir().join(format!("inbox-trunc-{}.json", std::process::id()));
        save(&trained, &path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        let err = match load(&path) {
            Err(e) => e,
            Ok(_) => panic!("truncated checkpoint must be rejected"),
        };
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn missing_file_stays_a_real_io_error() {
        let path = std::env::temp_dir().join(format!("inbox-nofile-{}.json", std::process::id()));
        let err = match load(&path) {
            Err(e) => e,
            Ok(_) => panic!("missing file must be rejected"),
        };
        assert!(matches!(err, PersistError::Io(_)), "got {err:?}");
    }
}
