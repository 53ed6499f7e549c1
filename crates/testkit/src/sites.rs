//! The authoritative inventories of failpoint sites, request-trace span
//! names, allocation-scope labels, and named obs series compiled into the
//! workspace.
//!
//! The coverage suite (`tests/coverage.rs`) asserts two directions against
//! these lists: every site here fires at least once under the chaos tests,
//! and every `failpoint!` call site in the instrumented crates' sources
//! appears here — and likewise every trace-span name opened in
//! `inbox-serve` appears in [`TRACE_SPANS`], and every series a
//! `crates/*/src` file creates appears in [`SERIES`] with the consumer
//! that reads it (`tests/series.rs`). Adding a site to the code without
//! listing it (or vice versa) fails CI.

/// Every failpoint site in the workspace, sorted by name.
pub const ALL: &[&str] = &[
    // index::IvfIndex::build — abort index construction while finalising
    // a partition; serve must degrade to full-sort, never crash.
    "index.build_partition",
    // core::persist::load — fail the read with an injected I/O error
    // before the file is touched.
    "persist.load.io",
    // core::persist::load — drop the second half of the bytes read,
    // simulating a short read of a checkpoint.
    "persist.load.truncate",
    // core::persist::save — fail after the temporary file is written and
    // synced, before it is renamed over the checkpoint (a crash mid-save).
    "persist.save.before_rename",
    // core::persist::save — write only the first half of the document,
    // simulating a crash mid-write.
    "persist.save.truncate",
    // serve::audit::worker_loop — panic the audit worker thread before
    // it processes a dequeued sample; serving must be unaffected.
    "serve.audit.panic",
    // serve::audit::offer — report the audit queue as full regardless of
    // occupancy, forcing the sampler to shed the copy.
    "serve.audit.queue_full",
    // serve::audit::worker_loop — stall the audit worker (pure delay)
    // before each sample is re-ranked; backlog grows, serving does not.
    "serve.audit.stall",
    // serve::engine::resolve_box — skip caching a freshly built box,
    // simulating eviction racing the insert.
    "serve.cache.evict",
    // serve::http::accept_loop — fail `accept` (as `EMFILE` would) so the
    // acceptor takes its back-off path instead of spinning.
    "serve.http.accept_error",
    // serve::http::admit — report the accept queue as full regardless of
    // its occupancy, forcing a 503 shed.
    "serve.http.queue_full",
    // serve::http::respond — drop the connection after parsing, before
    // any response byte (client sees clean EOF).
    "serve.http.torn_response",
    // serve::http::respond — panic the connection worker after parsing,
    // before answering; only that connection is lost.
    "serve.http.worker_panic",
    // serve::http::respond — stall the connection worker (pure delay)
    // between parsing and answering.
    "serve.http.worker_stall",
];

/// Every span name that can appear in a request trace's tree, sorted by
/// name. The coverage suite source-scans `inbox-serve` for span-opening
/// calls and fails when either direction drifts.
pub const TRACE_SPANS: &[&str] = &[
    // Box cache hit marker (zero-duration leaf under resolve_box).
    "engine.cache_hit",
    // IVF candidate generation: probe selection over partition centroids.
    "engine.candidates",
    // Mask-and-top-K ranking.
    "engine.rank",
    // Interest-box forward pass on a cache miss.
    "engine.rebuild",
    // Whole engine answer for one request.
    "engine.recommend",
    // Box-pruned exact re-rank of the probed partitions' members.
    "engine.rerank",
    // Cache lookup + lazy rebuild.
    "engine.resolve_box",
    // Scoring every item against the resolved box.
    "engine.score",
    // Request-head parse on the connection worker.
    "http.parse",
    // Time in the accept queue: opened at accept, closed at worker pickup
    // (or at the shed).
    "http.queue",
    // Root span: one per accepted connection.
    "http.request",
    // Response serialisation + socket write.
    "http.write",
];

/// Every allocation-scope label registered by the instrumented crates
/// (`inbox_obs::alloc_scope` call sites in `inbox-core` and `inbox-serve`),
/// sorted by name. The audit suite (`tests/alloc_scopes.rs`) source-scans
/// both crates and checks the runtime registry so that a scope nobody
/// lists — or a listed scope nobody enters — fails CI. Each is
/// allocation-free at steady state, which `inbox-serve`'s
/// `tests/alloc_steady.rs` asserts.
pub const ALLOC_SCOPES: &[&str] = &[
    // serve::engine::recommend_now — IVF probe selection into per-thread
    // scratch.
    "engine.candidates",
    // serve::engine::recommend_now — mask-and-top-K ranking into per-
    // thread scratch.
    "engine.rank",
    // serve::engine::recommend_now — box-pruned exact re-rank into per-
    // thread scratch.
    "engine.rerank",
    // serve::engine::recommend_now — scoring every item against the
    // resolved box into per-thread scratch.
    "engine.score",
    // serve::Service::recommend — the reply bookkeeping (latency span,
    // SLO) on the connection worker or the embedding caller.
    "serve.reply",
];

/// Who reads a series by name. `tests/series.rs` checks every claim
/// against the reader's source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consumer {
    /// The `inbox obs` dashboard column of this label.
    Dashboard(&'static str),
    /// The servebench result field of this name.
    Bench(&'static str),
    /// An input of the audit, drift or SLO figure of this name.
    Input(&'static str),
    /// The named test, which asserts serving or training behaviour through
    /// the series.
    Test(&'static str),
    /// The `--metrics-out` run summary, as README documents it. Trainer and
    /// eval series only.
    RunSummary,
}

/// Every named series the `crates/*/src` sources create — through
/// `counter`, `rate_counter`, `record_value`, `record_duration`, `span`,
/// `time`, `alloc_scope`, `slo`, `set_drift_stat` and
/// `ObsMutex`/`ObsRwLock::new` — sorted by name, each with its consumer.
/// A series nobody reads is deleted, not listed.
pub const SERIES: &[(&str, Consumer)] = &[
    ("audit.queue.depth", Consumer::Dashboard("bl")),
    ("audit.score.top", Consumer::Input("psi.score")),
    ("audit:agree_items", Consumer::Input("audit.agreement")),
    ("audit:audited", Consumer::Input("audit.audited")),
    ("audit:burn", Consumer::Input("audit.burn")),
    (
        "audit:degraded_events",
        Consumer::Input("audit.degraded_events"),
    ),
    (
        "audit:displacement",
        Consumer::Input("audit.window_displacement_p99"),
    ),
    ("audit:hit_items", Consumer::Input("audit.recall")),
    ("audit:mismatched", Consumer::Input("audit.mismatched")),
    ("audit:sampled", Consumer::Input("audit.sampled")),
    ("audit:shed", Consumer::Input("audit.shed")),
    ("audit:stale", Consumer::Input("audit.stale")),
    ("audit:total_items", Consumer::Input("audit.recall")),
    ("box.intersections", Consumer::RunSummary),
    (
        "engine.cache",
        Consumer::Bench("lock.engine.cache.wait_us.p99"),
    ),
    (
        "engine.candidates",
        Consumer::Test("steady_state_serving_allocates_nothing_in_the_hot_scopes"),
    ),
    (
        "engine.candidates.size",
        Consumer::Bench("index.candidates.mean"),
    ),
    (
        "engine.live",
        Consumer::Bench("lock.engine.live.wait_us.p99"),
    ),
    (
        "engine.rank",
        Consumer::Test("steady_state_serving_allocates_nothing_in_the_hot_scopes"),
    ),
    (
        "engine.rerank",
        Consumer::Test("steady_state_serving_allocates_nothing_in_the_hot_scopes"),
    ),
    (
        "engine.score",
        Consumer::Test("steady_state_serving_allocates_nothing_in_the_hot_scopes"),
    ),
    ("eval.rank", Consumer::RunSummary),
    ("eval.rank.worker", Consumer::RunSummary),
    ("eval.users.ranked", Consumer::RunSummary),
    ("grad.batches", Consumer::RunSummary),
    ("grad.stage1", Consumer::RunSummary),
    ("grad.stage2", Consumer::RunSummary),
    ("grad.stage3", Consumer::RunSummary),
    (
        "ingest.untagged_fraction",
        Consumer::Test("drift_gauges_track_ingest_coverage_and_steady_candidates"),
    ),
    (
        "psi.candidates",
        Consumer::Test("drift_gauges_track_ingest_coverage_and_steady_candidates"),
    ),
    ("psi.score", Consumer::Dashboard("psi")),
    ("sampler.stage1", Consumer::RunSummary),
    ("sampler.stage1.samples", Consumer::RunSummary),
    ("sampler.stage2", Consumer::RunSummary),
    ("sampler.stage2.samples", Consumer::RunSummary),
    ("sampler.stage3", Consumer::RunSummary),
    ("sampler.stage3.samples", Consumer::RunSummary),
    (
        "serve.box.rebuilds",
        Consumer::Test("ingest_invalidates_only_the_touched_user"),
    ),
    ("serve.cache.hits", Consumer::Dashboard("cache hit")),
    (
        "serve.http.timeout",
        Consumer::Test("idle_connections_time_out_without_pinning_threads"),
    ),
    (
        "serve.index.build_failed",
        Consumer::Test("every_registered_site_is_exercised_and_listed"),
    ),
    ("serve.ingest", Consumer::Input("ingest.untagged_fraction")),
    (
        "serve.ingest.untagged",
        Consumer::Input("ingest.untagged_fraction"),
    ),
    ("serve.queue.depth", Consumer::Dashboard("queue p99")),
    ("serve.recommend", Consumer::Dashboard("burn60")),
    (
        "serve.reply",
        Consumer::Test("steady_state_serving_allocates_nothing_in_the_hot_scopes"),
    ),
    ("serve.request", Consumer::Dashboard("qps")),
    ("serve.requests", Consumer::Dashboard("cache hit")),
    ("serve.shed", Consumer::Dashboard("shed/s")),
];

#[cfg(test)]
mod tests {
    use super::{ALL, ALLOC_SCOPES, SERIES, TRACE_SPANS};

    #[test]
    fn inventory_is_sorted_and_unique() {
        for pair in ALL.windows(2) {
            assert!(pair[0] < pair[1], "{} >= {}", pair[0], pair[1]);
        }
        for pair in TRACE_SPANS.windows(2) {
            assert!(pair[0] < pair[1], "{} >= {}", pair[0], pair[1]);
        }
        for pair in ALLOC_SCOPES.windows(2) {
            assert!(pair[0] < pair[1], "{} >= {}", pair[0], pair[1]);
        }
        for pair in SERIES.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} >= {}", pair[0].0, pair[1].0);
        }
    }
}
