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
//! - [`Service`]: the engine plus the per-request bookkeeping (the
//!   `serve.recommend` SLO, the shadow-oracle [`Auditor`]) — the type
//!   embedders call. A recommend runs inline on the calling thread.
//! - [`HttpServer`]: a std-only HTTP/1.1 front-end (`/health`,
//!   `/recommend`, `/ingest`, `/stats`, …) served by a fixed pool of
//!   connection workers behind one bounded accept queue. A connection
//!   arriving at a full queue is shed with `503`
//!   ([`ServeError::Overloaded`]).
//!
//! Cold users (no history) degrade to the popularity ranking rather than
//! erroring; every other degraded outcome is an explicit [`ServeError`].
//! Serving emits `serve.*` counters, the `serve.queue.depth` value
//! histogram, and the `serve.request` latency span through `inbox-obs`, so
//! the existing telemetry sinks (`--metrics-out`) see serving traffic in
//! the same schema as training.

#![warn(missing_docs)]

mod audit;
mod cache;
mod engine;
mod error;
mod http;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inbox_kg::{ItemId, UserId};

pub use audit::Auditor;
pub use cache::BoxCache;
pub use engine::{Engine, Ingested, Recommendation, ServeStats};
pub use error::ServeError;
pub use http::HttpServer;
pub use inbox_index::IndexMode;

/// Tuning knobs for the service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Pinned to `1`: requests are no longer batched. Kept only because
    /// the serving benchmark's provenance notes still read it;
    /// [`Service::start`] rejects any other value. Due for deletion with
    /// the next benchmark change.
    pub max_batch: usize,
    /// Pinned to [`Duration::ZERO`]: no request waits for a batch. Kept and
    /// checked like [`max_batch`](ServeConfig::max_batch), and due for
    /// deletion with it.
    pub batch_wait: Duration,
    /// Most HTTP connections waiting at once, for a worker or (a slow
    /// peer, see [`HttpServer`]) for the rest of their request: one
    /// accepted while this many wait is answered `503`
    /// ([`ServeError::Overloaded`]) at once.
    pub queue_cap: usize,
    /// Box cache capacity (entries ≈ users resident at once).
    pub cache_cap: usize,
    /// HTTP connection workers, started by [`HttpServer::bind`]; each
    /// parses a request, answers it inline and writes the reply. Defaults
    /// to the host's available parallelism.
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
    /// Pinned for servebench; delete with the next benchmark change. The
    /// engine always scores in f32; nothing reads this field.
    pub quantize: inbox_core::predict::Quantization,
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
            max_batch: 1,
            batch_wait: Duration::ZERO,
            queue_cap: 1024,
            cache_cap: 100_000,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            slo_objective: Duration::from_millis(50),
            trace_slow: Duration::from_millis(250),
            index: IndexMode::FullSort,
            quantize: Default::default(),
            audit_sample: 32,
            audit_queue_cap: 256,
            audit_floor: None,
        }
    }
}

/// The assembled service: an [`Engine`] plus the per-request bookkeeping
/// (SLO, audit sampling). This is the type both the HTTP front-end and
/// in-process embedders talk to; every call runs on the caller's thread.
pub struct Service {
    engine: Arc<Engine>,
    auditor: Option<Auditor>,
    /// `serve.recommend` SLO: answered latencies classified against the
    /// objective; sheds count as (infinitely) bad events.
    slo: inbox_obs::Slo,
    shed: inbox_obs::RateCounter,
    closed: AtomicBool,
    /// The HTTP front-end's worker count and accept-queue bound.
    threads: usize,
    queue_cap: usize,
}

impl Service {
    /// Starts a service over `engine` with the knobs in `config`.
    /// Registers the `serve.recommend` SLO, arms the flight recorder's
    /// slow-trace threshold, and (unless `audit_sample` is 0) captures the
    /// drift references and starts the shadow-oracle audit worker.
    pub fn start(engine: Engine, config: &ServeConfig) -> Self {
        assert!(
            config.max_batch == 1 && config.batch_wait.is_zero(),
            "requests are not batched: max_batch must be 1 and batch_wait zero"
        );
        assert!(config.threads >= 1, "threads must be at least 1");
        assert!(config.queue_cap >= 1, "queue_cap must be at least 1");
        inbox_obs::set_slow_threshold(config.trace_slow);
        inbox_obs::set_audit_floor(config.audit_floor);
        let engine = Arc::new(engine);
        let auditor =
            (config.audit_sample > 0).then(|| Auditor::start(Arc::clone(&engine), config));
        Self {
            engine,
            auditor,
            slo: inbox_obs::slo("serve.recommend", config.slo_objective, SLO_TARGET),
            shed: inbox_obs::rate_counter("serve.shed"),
            closed: AtomicBool::new(false),
            threads: config.threads,
            queue_cap: config.queue_cap,
        }
    }

    /// The underlying engine (for stats, oracle comparisons, and direct
    /// access in tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Top-K recommendations for `user`, answered on the calling thread.
    /// Returns [`ServeError::Closed`] after [`shutdown`](Service::shutdown).
    pub fn recommend(&self, user: UserId, k: usize) -> Result<Recommendation, ServeError> {
        self.answer(user, k, None)
    }

    /// [`recommend`](Service::recommend) with an active request trace: the
    /// engine stages record spans under `trace`'s root. The caller owns the
    /// trace and finishes it (the HTTP front-end does both ends).
    pub fn recommend_traced(
        &self,
        user: UserId,
        k: usize,
        trace: &inbox_obs::ActiveTrace,
    ) -> Result<Recommendation, ServeError> {
        self.answer(user, k, Some(trace))
    }

    fn answer(
        &self,
        user: UserId,
        k: usize,
        trace: Option<&inbox_obs::ActiveTrace>,
    ) -> Result<Recommendation, ServeError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(ServeError::Closed);
        }
        let started = Instant::now();
        let answer = match trace {
            Some(t) => inbox_obs::with_context(t, 0, || self.engine.recommend_now(user, k)),
            None => self.engine.recommend_now(user, k),
        };
        // Audit sampling sits outside the allocation-checked scope: the
        // 1-in-N winners clone their answer for the background oracle,
        // which is audit overhead, not serving overhead. It never blocks.
        if let (Some(auditor), Ok(rec)) = (&self.auditor, &answer) {
            auditor.maybe_sample(rec);
        }
        let _reply_alloc = inbox_obs::alloc_scope("serve.reply");
        let latency = started.elapsed();
        inbox_obs::record_duration("serve.request", latency);
        self.slo.observe(latency);
        answer
    }

    /// Books one shed request: counted in the engine's stats and
    /// `serve.shed`, and a bad event for the SLO.
    pub(crate) fn note_shed(&self) {
        self.engine.note_shed();
        self.shed.incr();
        // A shed is a user-visible failure: it burns SLO budget even
        // though it has no latency to classify.
        self.slo.observe(Duration::MAX);
    }

    /// The HTTP front-end's `(threads, queue_cap)`.
    pub(crate) fn pool_shape(&self) -> (usize, usize) {
        (self.threads, self.queue_cap)
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

    /// Number of sampled answers waiting for their shadow-oracle re-rank
    /// (0 when auditing is disabled).
    pub fn audit_backlog(&self) -> usize {
        self.auditor.as_ref().map_or(0, |a| a.backlog())
    }

    /// Refuses further recommends with [`ServeError::Closed`], then stops
    /// the audit worker (draining sampled answers through the oracle).
    /// Idempotent; the engine stays usable for direct calls afterwards.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        if let Some(auditor) = &self.auditor {
            auditor.shutdown();
        }
    }
}
