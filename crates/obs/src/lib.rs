//! `inbox-obs`: the workspace's instrumentation layer.
//!
//! Everything sits behind one global enable gate ([`set_enabled`]):
//!
//! - **Registry** ([`registry`]) — one table of series keyed by
//!   `(name, Kind)`: spans ([`span`], [`time`]) and value histograms
//!   ([`record_value`]), each cumulative and windowed; counters
//!   ([`counter`]) and rate counters ([`rate_counter`]); and gauges
//!   ([`set_drift_stat`] and the SLO and audit producers). [`series`]
//!   lists it, [`find_series`] reads one row, and every consumer below
//!   reads through those two.
//! - **Telemetry** ([`telemetry`]) — structured [`EpochRecord`] events
//!   written to one process-wide output ([`install`]): leveled stderr
//!   lines and an optional JSONL file.
//! - **Failpoints** ([`failpoints`]) — deterministic fault-injection sites
//!   for chaos testing, compiled to no-ops unless an instrumented crate is
//!   built with its `failpoints` feature.
//! - **Windows** ([`window`]) — the per-second rings behind every
//!   histogram and rate counter, so the registry answers "right now" as
//!   well as "since boot".
//! - **Traces** ([`trace`]) — request-scoped causal span trees retained in
//!   a flight recorder, propagated through thread boundaries explicitly or
//!   via a thread-local context ([`ctx_span`]).
//! - **SLOs** ([`slo`](mod@slo)) — per-endpoint good/total rate counters against a
//!   latency objective gauge, with burn rates computed on read.
//! - **Exposition** ([`expo`]) — the registry rendered as Prometheus text
//!   and flight-recorder JSON for live `GET /metrics` / `GET /traces`.
//! - **Allocation accounting** ([`alloc`]) — an opt-in instrumented
//!   global allocator attributing alloc count/bytes to labeled scopes
//!   ([`alloc_scope`]); test binaries install it to check the
//!   "allocation-free steady state" invariant.
//! - **Contention accounting** ([`lock`]) — [`ObsMutex`]/[`ObsRwLock`]
//!   wrappers recording a wait-time histogram and a contention counter per
//!   named lock.
//! - **Audit** ([`audit`]) — shadow-oracle ranking-quality series
//!   (recall@k / agreement@k / rank displacement, cumulative and windowed)
//!   with a latched degradation alert against a configured recall floor.
//! - **Drift** ([`drift`]) — the PSI divergence statistic and the drift
//!   gauges it publishes.
//!
//! Everything is process-global by design: instrumented crates call free
//! functions and never thread handles through their APIs, so adding or
//! removing a probe is a one-line change at the probe site.

#![warn(missing_docs)]

pub mod alloc;
pub mod audit;
pub mod drift;
pub mod expo;
pub mod failpoints;
pub mod histogram;
pub mod lock;
pub mod registry;
pub mod slo;
pub mod telemetry;
pub mod trace;
pub mod window;

pub use alloc::{
    all_alloc_scopes, alloc_scope, alloc_scope_stats, allocator_installed, reset_alloc_stats,
    set_alloc_tracking, AllocScopeGuard, InstrumentedAlloc, ScopeAllocStats, MAX_ALLOC_SCOPES,
};
pub use audit::{
    audit_degraded, audit_floor, audit_snapshot, note_audit_sampled, note_audit_shed,
    note_audit_stale, record_audit, set_audit_floor, AuditObservation, AuditSnapshot,
    ALERT_WINDOW_SECS, MIN_ALERT_SAMPLES,
};
pub use drift::{psi, set_drift_stat, PSI_EPS};
pub use expo::{prometheus_text, traces_json, TraceDump};
pub use histogram::{HistogramBuckets, HistogramSnapshot, LogHistogram};
pub use lock::{ObsMutex, ObsRwLock};
pub use registry::{
    counter, counter_value, enabled, find_series, rate_counter, record_duration, record_value,
    reset, series, set_enabled, span, span_snapshot, time, value_snapshot, Counter, Kind,
    RateCounter, Series, SpanGuard,
};
pub use slo::{slo, slo_snapshot, Slo, SloSnapshot};
pub use telemetry::{
    emit_epoch, emit_run_summary, emit_trace, install, next_run_id, verbosity, BoxHealth,
    CounterSummary, EpochRecord, RunSummary, SpanSummary, ValueSummary, Verbosity,
};
pub use trace::{
    clear_traces, ctx_span, force_trace, notable_traces, recent_traces, set_slow_threshold,
    set_trace_sampling, start_trace, with_context, ActiveTrace, CtxSpan, TraceId, TraceOutcome,
    TraceRecord, TraceSpan, TraceSpanGuard,
};
pub use window::{now_sec, Ring, WindowedCounter, WindowedHistogram, WindowedSnapshot};
