//! Shadow-oracle audit sampler: online ranking-quality verification.
//!
//! [`Service`](crate::Service) hands every answered recommend to
//! [`Auditor::maybe_sample`]; 1-in-N of them (by a global atomic tick) are
//! copied into a **bounded, shed-don't-block** queue drained by one
//! background worker. The worker re-ranks each sampled
//! `(user, history-version)` request through [`Engine::audit_rerank`] —
//! the exact FullSort f32 oracle — and records
//! the comparison into the process-global audit series
//! ([`inbox_obs::record_audit`]): recall@k, agreement@k, worst rank
//! displacement, and the latched degradation alert against the configured
//! recall floor. Mismatched samples additionally start a forced
//! flight-recorder trace finished as [`inbox_obs::TraceOutcome::Error`], so
//! `/traces` retains the evidence.
//!
//! The serving hot path is never touched: sampling is one relaxed atomic
//! increment plus (for the 1-in-N winners) one answer clone outside the
//! service's allocation-checked reply scope, and [`Auditor::offer`] drops
//! the sample ([`inbox_obs::note_audit_shed`]) instead of blocking when
//! the queue is at capacity. An audit worker that stalls or dies changes
//! nothing about served answers.
//!
//! The worker doubles as the **drift monitor**: a reference snapshot of the
//! served top-score distribution is captured at startup (oracle pass over a
//! deterministic user sample), candidate-set sizes are snapshotted from the
//! first observed traffic, and each periodic tick publishes PSI divergence
//! of the live windowed distributions against those references plus the
//! ingest-stream tag-coverage fraction (`inbox_audit_drift`). The
//! references are captured once per process, so later services (and
//! throwaway set-ups) skip the oracle pass.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use inbox_kg::{ItemId, UserId};
use inbox_obs::{AuditObservation, HistogramBuckets, Kind};

use crate::engine::{Engine, Recommendation};
use crate::ServeConfig;

/// How often the worker publishes drift statistics when no samples arrive
/// (and the wait granularity between samples).
const DRIFT_TICK: Duration = Duration::from_millis(250);

/// Users scanned through the oracle at startup to seed the served-score
/// reference distribution.
const REFERENCE_USERS: usize = 64;

/// List length used for the startup reference scan.
const REFERENCE_K: usize = 20;

/// Served top-score reference distribution, captured at the first start.
static SCORE_REFERENCE: OnceLock<HistogramBuckets> = OnceLock::new();

/// Candidate-set-size reference distribution, from the first traffic.
static CANDIDATES_REFERENCE: OnceLock<HistogramBuckets> = OnceLock::new();

/// One sampled answer awaiting its oracle re-rank.
struct AuditSample {
    user: UserId,
    version: u64,
    items: Vec<(ItemId, f32)>,
}

struct AuditQueue {
    pending: VecDeque<AuditSample>,
    closed: bool,
}

struct Shared {
    queue: Mutex<AuditQueue>,
    /// Woken on enqueue and shutdown; only the audit worker waits on it.
    nonempty: Condvar,
}

/// The background quality auditor. One per [`Service`](crate::Service)
/// (when `audit_sample > 0`).
pub struct Auditor {
    shared: Arc<Shared>,
    /// Sample 1-in-this-many answered requests.
    sample_every: u64,
    queue_cap: usize,
    tick: AtomicU64,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Auditor {
    /// Captures the startup drift references and starts the audit worker.
    pub(crate) fn start(engine: Arc<Engine>, config: &ServeConfig) -> Self {
        assert!(config.audit_sample >= 1, "audit_sample must be at least 1");
        assert!(
            config.audit_queue_cap >= 1,
            "audit_queue_cap must be at least 1"
        );
        capture_score_reference(&engine);
        let shared = Arc::new(Shared {
            queue: Mutex::new(AuditQueue {
                pending: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("inbox-serve-auditor".into())
                .spawn(move || worker_loop(&shared, &engine))
                .expect("spawn audit worker thread")
        };
        Self {
            shared,
            sample_every: config.audit_sample,
            queue_cap: config.audit_queue_cap,
            tick: AtomicU64::new(0),
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Called by the service for every answered request, *after* the
    /// answer is computed and outside its allocation-checked reply scope.
    /// Costs one relaxed atomic increment per answer; 1-in-N winners clone
    /// the answer and try-enqueue it (shedding, never blocking, at a full
    /// queue).
    pub(crate) fn maybe_sample(&self, rec: &Recommendation) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if !tick.is_multiple_of(self.sample_every) {
            return;
        }
        inbox_obs::note_audit_sampled();
        // The served top score feeds the drift monitor's live distribution.
        if let Some(&(_, top)) = rec.items.first() {
            inbox_obs::record_value("audit.score.top", score_key(top));
        }
        self.offer(AuditSample {
            user: rec.user,
            version: rec.version,
            items: rec.items.clone(),
        });
    }

    /// Try-enqueues a sample: at capacity (or under the injected
    /// `serve.audit.queue_full` fault) the sample is dropped and counted
    /// shed — audit backpressure must never reach the serving path.
    fn offer(&self, sample: AuditSample) {
        let mut queue = self.shared.queue.lock().unwrap();
        if queue.closed
            || queue.pending.len() >= self.queue_cap
            || inbox_obs::failpoint!("serve.audit.queue_full")
        {
            drop(queue);
            inbox_obs::note_audit_shed();
            return;
        }
        queue.pending.push_back(sample);
        inbox_obs::record_value("audit.queue.depth", queue.pending.len() as u64);
        drop(queue);
        self.shared.nonempty.notify_one();
    }

    /// Number of samples waiting for their oracle re-rank.
    pub fn backlog(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pending
            .len()
    }

    /// Stops sampling, drains the queued samples through the oracle, and
    /// joins the worker. Idempotent; a worker killed by an injected panic
    /// is reaped without propagating.
    pub fn shutdown(&self) {
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.closed = true;
        }
        self.shared.nonempty.notify_all();
        if let Some(worker) = self.worker.lock().unwrap().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Auditor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drains samples until closed *and* empty, publishing drift statistics on
/// a [`DRIFT_TICK`] cadence while idle and once more on the way out.
fn worker_loop(shared: &Shared, engine: &Engine) {
    loop {
        let sample = {
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(s) = queue.pending.pop_front() {
                    break Some(s);
                }
                if queue.closed {
                    break None;
                }
                let (q, timeout) = shared
                    .nonempty
                    .wait_timeout(queue, DRIFT_TICK)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                queue = q;
                if timeout.timed_out() {
                    drop(queue);
                    drift_tick();
                    queue = shared
                        .queue
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        };
        let Some(sample) = sample else {
            drift_tick();
            return;
        };
        // Chaos sites, holding no lock and no sample-queue capacity: a
        // stall here backs the *audit* queue up (shedding samples), and an
        // injected panic kills the worker outright — in both cases served
        // answers and `/recommend` latency must be untouched.
        let _ = inbox_obs::failpoint!("serve.audit.stall");
        if inbox_obs::failpoint!("serve.audit.panic") {
            panic!("injected failpoint: serve.audit.panic");
        }
        process(engine, &sample);
    }
}

/// Re-ranks one sample through the exact oracle and records the comparison.
fn process(engine: &Engine, sample: &AuditSample) {
    let k = sample.items.len();
    match engine.audit_rerank(sample.user, sample.version, k, &sample.items) {
        Ok(Some(oracle)) => {
            let obs = compare(&sample.items, &oracle);
            if inbox_obs::record_audit(&obs) {
                // Forced (sampling-independent) notable trace: the flight
                // recorder keeps the mismatched request's identity.
                if let Some(trace) = inbox_obs::force_trace("audit.mismatch") {
                    trace.finish(inbox_obs::TraceOutcome::Error);
                }
            }
        }
        // The user's live state moved past the served version (or the
        // engine no longer knows the user): the comparison would be against
        // different state than the answer was computed from.
        Ok(None) | Err(_) => inbox_obs::note_audit_stale(),
    }
}

/// Scores a served answer against the oracle's re-rank of the same state.
fn compare(served: &[(ItemId, f32)], oracle: &[(ItemId, f32)]) -> AuditObservation {
    let k = served.len();
    let mut matched = 0;
    let mut agreed = 0;
    let mut max_displacement = 0u64;
    for (pos, (item, _)) in served.iter().enumerate() {
        if oracle.get(pos).map(|(o, _)| o == item).unwrap_or(false) {
            agreed += 1;
        }
        match oracle.iter().position(|(o, _)| o == item) {
            Some(opos) => {
                matched += 1;
                max_displacement = max_displacement.max(pos.abs_diff(opos) as u64);
            }
            // Absent from the oracle top-k entirely: displaced by at
            // least the whole list.
            None => max_displacement = max_displacement.max(k as u64),
        }
    }
    AuditObservation {
        k,
        matched,
        agreed,
        max_displacement,
    }
}

/// Monotone map from an f32 score to a histogram-bucketable u64: orders
/// exactly like the float (negatives below positives), so bucket PSI over
/// the mapped values tracks shifts of the real score distribution.
fn score_key(score: f32) -> u64 {
    let bits = score.to_bits();
    if score.is_sign_negative() {
        !bits as u64
    } else {
        (bits | 0x8000_0000) as u64
    }
}

/// Startup reference for the served-score drift monitor: the oracle's
/// top-score distribution over a deterministic sample of users, captured
/// before any live traffic so later PSI measures movement *since boot*.
fn capture_score_reference(engine: &Engine) {
    if SCORE_REFERENCE.get().is_some() {
        return;
    }
    let n = engine.n_users().min(REFERENCE_USERS);
    let mut buckets = HistogramBuckets::new();
    for u in 0..n as u32 {
        let user = UserId(u);
        let Ok(version) = engine.version_of(user) else {
            continue;
        };
        if let Ok(Some(items)) = engine.audit_rerank(user, version, REFERENCE_K, &[]) {
            if let Some(&(_, top)) = items.first() {
                buckets.record(score_key(top));
            }
        }
    }
    if buckets.count() > 0 {
        let _ = SCORE_REFERENCE.set(buckets);
    }
}

/// Raw buckets of the named value histogram: since boot (`None`) or over
/// the alert window.
fn value_buckets(name: &str, window: Option<u64>) -> Option<HistogramBuckets> {
    inbox_obs::find_series(name, Kind::Value).map(|s| s.buckets(window))
}

/// Publishes the drift statistics: PSI of the live windowed served-score
/// and candidate-set-size distributions against their references, and the
/// untagged fraction of the ingest stream.
fn drift_tick() {
    let window = Some(inbox_obs::ALERT_WINDOW_SECS);
    if let (Some(reference), Some(live)) = (
        SCORE_REFERENCE.get(),
        value_buckets("audit.score.top", window),
    ) {
        inbox_obs::set_drift_stat("psi.score", inbox_obs::psi(reference, &live));
    }
    // Candidate-set sizes only exist under an IVF index, and no traffic has
    // produced any at startup — the reference is the first observed
    // distribution instead.
    if CANDIDATES_REFERENCE.get().is_none() {
        if let Some(b) = value_buckets("engine.candidates.size", None) {
            let _ = CANDIDATES_REFERENCE.set(b);
        }
    }
    if let (Some(reference), Some(live)) = (
        CANDIDATES_REFERENCE.get(),
        value_buckets("engine.candidates.size", window),
    ) {
        inbox_obs::set_drift_stat("psi.candidates", inbox_obs::psi(reference, &live));
    }
    let total = inbox_obs::counter_value("serve.ingest");
    if total > 0 {
        let untagged = inbox_obs::counter_value("serve.ingest.untagged");
        inbox_obs::set_drift_stat("ingest.untagged_fraction", untagged as f64 / total as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(ids: &[u32]) -> Vec<(ItemId, f32)> {
        ids.iter()
            .enumerate()
            .map(|(pos, &i)| (ItemId(i), 100.0 - pos as f32))
            .collect()
    }

    #[test]
    fn identical_lists_compare_perfect() {
        let a = list(&[5, 3, 9, 1]);
        let obs = compare(&a, &a.clone());
        assert_eq!(obs.k, 4);
        assert_eq!(obs.matched, 4);
        assert_eq!(obs.agreed, 4);
        assert_eq!(obs.max_displacement, 0);
        assert!(!obs.mismatched());
    }

    #[test]
    fn swapped_neighbours_keep_recall_but_not_agreement() {
        let served = list(&[5, 3, 9, 1]);
        let oracle = list(&[3, 5, 9, 1]);
        let obs = compare(&served, &oracle);
        assert_eq!(obs.matched, 4, "same set: recall numerator intact");
        assert_eq!(obs.agreed, 2, "two positions still line up");
        assert_eq!(obs.max_displacement, 1);
        assert!(obs.mismatched());
    }

    #[test]
    fn missing_item_is_displaced_by_k() {
        let served = list(&[5, 3, 9, 1]);
        let oracle = list(&[5, 3, 9, 7]);
        let obs = compare(&served, &oracle);
        assert_eq!(obs.matched, 3);
        assert_eq!(obs.agreed, 3);
        assert_eq!(obs.max_displacement, 4, "absent items count as k");
    }

    #[test]
    fn score_key_is_monotone_across_sign() {
        let samples = [-10.5f32, -1.0, -f32::MIN_POSITIVE, 0.0, 0.25, 1.0, 42.0];
        for w in samples.windows(2) {
            assert!(score_key(w[0]) < score_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }
}
