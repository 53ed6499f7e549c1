//! `inbox-serve` — online recommendation service for the InBox
//! reproduction.
//!
//! Takes a trained model offline training produced and turns it into a
//! long-running, concurrent service:
//!
//! - [`Engine`]: frozen parameters + live per-user state (capped concept
//!   histories with monotonic versions, full interaction masks) + a
//!   versioned LRU [`BoxCache`] of interest boxes. `recommend` is
//!   bit-identical to the single-threaded offline ranking at any fixed
//!   history version; `ingest` records an interaction and invalidates only
//!   that user's cached box.
//! - [`Batcher`]: bounded admission queue + flush thread that coalesces
//!   concurrent requests into micro-batches (flush on batch size or
//!   deadline) and fans them out over a shared worker pool. Over-capacity
//!   arrivals are shed with [`ServeError::Overloaded`].
//! - [`Service`]: the facade gluing engine and batcher together — the type
//!   embedders call.
//! - [`HttpServer`]: a std-only HTTP/1.1 front-end (`/health`,
//!   `/recommend`, `/ingest`, `/stats`).
//!
//! Cold users (no history) degrade to the popularity ranking rather than
//! erroring; every other degraded outcome is an explicit [`ServeError`].
//! Serving emits `serve.*` counters, the `serve.batch.size` value
//! histogram, and the `serve.request` latency span through `inbox-obs`, so
//! the existing telemetry sinks (`--metrics-out`) see serving traffic in
//! the same schema as training.

#![warn(missing_docs)]

mod audit;
mod batcher;
mod cache;
mod engine;
mod error;
mod http;

use std::sync::Arc;
use std::time::Duration;

use inbox_kg::{ItemId, UserId};

pub use audit::Auditor;
pub use batcher::Batcher;
pub use cache::BoxCache;
pub use engine::{Engine, Ingested, Recommendation, ServeStats};
pub use error::ServeError;
pub use http::HttpServer;
pub use inbox_core::Quantization;
pub use inbox_index::IndexMode;

/// Tuning knobs for the service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Most requests coalesced into one micro-batch.
    pub max_batch: usize,
    /// How long the flush thread waits past the first enqueued request for
    /// the batch to fill before flushing anyway.
    pub batch_wait: Duration,
    /// Admission bound: requests arriving while this many are already
    /// queued are shed with [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Box cache capacity (entries ≈ users resident at once).
    pub cache_cap: usize,
    /// Scoring threads for intra-batch fan-out (1 = no worker pool).
    pub threads: usize,
    /// Latency objective for the `serve.recommend` SLO: requests answered
    /// under this are "good"; the target good fraction is [`SLO_TARGET`].
    pub slo_objective: Duration,
    /// Requests slower than this end-to-end finish their trace as
    /// [`inbox_obs::TraceOutcome::Slow`] and are retained in the flight
    /// recorder's notable ring.
    pub trace_slow: Duration,
    /// How the engine generates ranking candidates: [`IndexMode::FullSort`]
    /// (score every item; the default) or [`IndexMode::Ivf`] (IVF coarse
    /// partitions + box pruning + exact re-rank). An index that fails to
    /// build degrades to full sort — never a startup failure.
    pub index: IndexMode,
    /// Item-matrix quantization for the full-sort scan.
    /// [`Quantization::None`] keeps the f32 matrix; [`Quantization::Int8`]
    /// scans through the dequantize-free int8 kernel and re-scores the
    /// items within `2·bound_slack` of the k-th int8 score in f32, so the
    /// answer stays byte-identical to offline ranking. The IVF re-rank
    /// scores in f32 under either setting, and cold users (popularity
    /// fallback) bypass quantization byte-identically.
    pub quantize: Quantization,
    /// Shadow-oracle audit sampling: 1-in-this-many answered requests are
    /// copied to the background audit worker and re-ranked through the
    /// exact FullSort f32 oracle. `0` disables auditing entirely (no
    /// worker, no per-answer tick).
    pub audit_sample: u64,
    /// Bound on samples awaiting their oracle re-rank; arrivals beyond it
    /// are shed (counted in `inbox_audit_shed_total`), never queued behind
    /// an unbounded backlog and never blocking the serving path.
    pub audit_queue_cap: usize,
    /// Windowed audit-recall floor for the degradation alerter: when the
    /// last-minute audited recall@k drops below this, the latched
    /// `inbox_audit_degraded` gauge trips (and burn counters tick) until a
    /// window of samples is back at or above it. `None` disables alerting.
    pub audit_floor: Option<f64>,
}

/// Required good fraction for the `serve.recommend` SLO.
pub const SLO_TARGET: f64 = 0.99;

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            batch_wait: Duration::from_micros(500),
            queue_cap: 1024,
            cache_cap: 100_000,
            threads: 1,
            slo_objective: Duration::from_millis(50),
            trace_slow: Duration::from_millis(250),
            index: IndexMode::FullSort,
            quantize: Quantization::None,
            audit_sample: 32,
            audit_queue_cap: 256,
            audit_floor: None,
        }
    }
}

/// The assembled service: an [`Engine`] behind a [`Batcher`]. This is the
/// type both the HTTP front-end and in-process embedders talk to.
pub struct Service {
    engine: Arc<Engine>,
    batcher: Batcher,
    auditor: Option<Arc<Auditor>>,
}

impl Service {
    /// Starts a service over `engine` with the batching knobs in `config`.
    /// Registers the `serve.recommend` SLO, arms the flight recorder's
    /// slow-trace threshold, and (unless `audit_sample` is 0) captures the
    /// drift references and starts the shadow-oracle audit worker.
    pub fn start(engine: Engine, config: &ServeConfig) -> Self {
        inbox_obs::set_slow_threshold(config.trace_slow);
        inbox_obs::set_audit_floor(config.audit_floor);
        let engine = Arc::new(engine);
        let auditor =
            (config.audit_sample > 0).then(|| Auditor::start(Arc::clone(&engine), config));
        let batcher = Batcher::start(Arc::clone(&engine), config, auditor.clone());
        Self {
            engine,
            batcher,
            auditor,
        }
    }

    /// The underlying engine (for stats, oracle comparisons, and direct
    /// unbatched access in tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Top-K recommendations for `user`, via the micro-batcher. Blocks
    /// until the request's batch is flushed; sheds with
    /// [`ServeError::Overloaded`] when the admission queue is full.
    pub fn recommend(&self, user: UserId, k: usize) -> Result<Recommendation, ServeError> {
        self.batcher.recommend(user, k, None)
    }

    /// [`recommend`](Service::recommend) with an active request trace:
    /// admission, queueing, flush, engine, and pool stages all record
    /// spans into `trace`'s tree. The caller owns the trace and finishes
    /// it (the HTTP front-end does both ends).
    pub fn recommend_traced(
        &self,
        user: UserId,
        k: usize,
        trace: &inbox_obs::ActiveTrace,
    ) -> Result<Recommendation, ServeError> {
        self.batcher.recommend(user, k, Some(trace.clone()))
    }

    /// Records a live interaction. Synchronous and never shed: ingest is a
    /// short critical section and skipping one would silently corrupt the
    /// user's history.
    pub fn ingest(&self, user: UserId, item: ItemId) -> Result<Ingested, ServeError> {
        self.engine.ingest(user, item)
    }

    /// Current serving statistics.
    pub fn stats(&self) -> ServeStats {
        self.engine.stats()
    }

    /// Number of requests currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.batcher.queued()
    }

    /// Number of sampled answers waiting for their shadow-oracle re-rank
    /// (0 when auditing is disabled).
    pub fn audit_backlog(&self) -> usize {
        self.auditor.as_ref().map_or(0, |a| a.backlog())
    }

    /// Stops the batcher (draining queued requests first), then the audit
    /// worker (draining sampled answers through the oracle). Idempotent;
    /// the engine stays usable for direct (unbatched) calls afterwards.
    pub fn shutdown(&self) {
        self.batcher.shutdown();
        if let Some(auditor) = &self.auditor {
            auditor.shutdown();
        }
    }
}
