//! Request micro-batcher: a bounded admission queue drained by one flush
//! thread that coalesces concurrent recommend requests into batches.
//!
//! Callers block in [`Batcher::recommend`] on a rendezvous channel until
//! their answer is computed, so the batcher adds *coalescing*, not
//! asynchrony: under concurrent load, requests arriving within
//! [`ServeConfig::batch_wait`](crate::ServeConfig) of each other are scored
//! together and fanned out over the engine's [`WorkerPool`]
//! (when serving with more than one thread), amortising lock traffic and
//! keeping every core busy. A lone request still flushes after at most
//! `batch_wait` — the deadline starts at the *first* enqueue, so latency is
//! bounded even at low arrival rates.
//!
//! Admission control is strict: when `queue_cap` requests are already
//! waiting, new arrivals are shed immediately with
//! [`ServeError::Overloaded`] instead of queueing behind an unbounded
//! backlog. Shedding is the *only* load response — admitted requests are
//! always answered exactly, never approximated.
//!
//! [`WorkerPool`]: inbox_core::WorkerPool

use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inbox_kg::UserId;
use inbox_obs::{ActiveTrace, ObsMutex};

use crate::audit::Auditor;
use crate::engine::{Engine, Recommendation};
use crate::error::ServeError;
use crate::{ServeConfig, SLO_TARGET};

/// A served answer: the top-K ranking or a typed degradation.
type Answer = Result<Recommendation, ServeError>;

struct Pending {
    user: UserId,
    k: usize,
    enqueued: Instant,
    reply: SyncSender<Answer>,
    /// The request's trace and its open `batcher.queue` span, when the
    /// caller is tracing. The flush thread closes the span at dequeue.
    trace: Option<(ActiveTrace, u32)>,
}

struct Queue {
    pending: VecDeque<Pending>,
    closed: bool,
}

struct Shared {
    /// Instrumented: producer/flush-thread contention and hold times land
    /// in the `lock.batcher.queue.*` series.
    queue: ObsMutex<Queue>,
    /// Woken when a request is enqueued or the batcher is shut down. Only
    /// the flush thread waits on it; producers never block.
    nonempty: Condvar,
}

/// The micro-batching front door. Cloneable across threads via `Arc`
/// inside [`Service`](crate::Service).
pub struct Batcher {
    shared: Arc<Shared>,
    engine: Arc<Engine>,
    queue_cap: usize,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// `serve.recommend` SLO: answered latencies classified against the
    /// objective; sheds count as (infinitely) bad events.
    slo: inbox_obs::Slo,
    shed: inbox_obs::RateCounter,
}

impl Batcher {
    /// Starts the flush thread over `engine`. With an `auditor`, every
    /// answered request is offered to its 1-in-N sampler after the batch's
    /// answers are computed (and before replies are sent).
    pub fn start(engine: Arc<Engine>, config: &ServeConfig, auditor: Option<Arc<Auditor>>) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.queue_cap >= 1, "queue_cap must be at least 1");
        let slo = inbox_obs::slo("serve.recommend", config.slo_objective, SLO_TARGET);
        let shared = Arc::new(Shared {
            queue: ObsMutex::new(
                "batcher.queue",
                Queue {
                    pending: VecDeque::new(),
                    closed: false,
                },
            ),
            nonempty: Condvar::new(),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            let engine = Arc::clone(&engine);
            let max_batch = config.max_batch;
            let batch_wait = config.batch_wait;
            let slo = slo.clone();
            std::thread::Builder::new()
                .name("inbox-serve-batcher".into())
                .spawn(move || {
                    flush_loop(
                        &shared,
                        &engine,
                        max_batch,
                        batch_wait,
                        &slo,
                        auditor.as_deref(),
                    );
                })
                .expect("spawn batcher thread")
        };
        Self {
            shared,
            engine,
            queue_cap: config.queue_cap,
            worker: Mutex::new(Some(worker)),
            slo,
            shed: inbox_obs::rate_counter("serve.shed"),
        }
    }

    /// Number of requests currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().unwrap().pending.len()
    }

    /// Submits a recommend request and blocks until its batch is flushed.
    /// Sheds with [`ServeError::Overloaded`] when `queue_cap` requests are
    /// already waiting. With a `trace`, admission and queueing record
    /// spans under its root.
    pub fn recommend(
        &self,
        user: UserId,
        k: usize,
        trace: Option<ActiveTrace>,
    ) -> Result<Recommendation, ServeError> {
        let admit = trace.as_ref().map(|t| t.span("batcher.admit", Some(0)));
        let (reply, answer) = mpsc::sync_channel(1);
        {
            let mut queue = self.shared.queue.lock().unwrap();
            if queue.closed {
                return Err(ServeError::Closed);
            }
            if queue.pending.len() >= self.queue_cap
                || inbox_obs::failpoint!("serve.batcher.queue_full")
            {
                drop(queue);
                self.engine.note_shed();
                self.shed.incr();
                // A shed is a user-visible failure: it burns SLO budget
                // even though it has no latency to classify.
                self.slo.observe(Duration::MAX);
                return Err(ServeError::Overloaded);
            }
            let queue_span = trace
                .as_ref()
                .map(|t| t.open_span("batcher.queue", Some(0)));
            inbox_obs::record_value("serve.queue.depth", queue.pending.len() as u64 + 1);
            queue.pending.push_back(Pending {
                user,
                k,
                enqueued: Instant::now(),
                reply,
                trace: trace.zip(queue_span),
            });
        }
        drop(admit);
        self.shared.nonempty.notify_one();
        answer.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Stops accepting requests, drains what is already queued, and joins
    /// the flush thread. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.closed = true;
        }
        self.shared.nonempty.notify_all();
        if let Some(worker) = self.worker.lock().unwrap().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Closes the queue when the flush thread exits — normally *or by panic*.
///
/// Without this guard, a flush thread that dies with requests still queued
/// (or mid-batch) leaves producers blocked on reply channels that nobody
/// will ever serve, and later callers enqueueing into a queue nobody
/// drains. Dropping the guard marks the queue closed and clears any
/// stranded entries; dropping their reply senders disconnects the waiting
/// callers' `recv()`, which [`Batcher::recommend`] maps to a deterministic
/// [`ServeError::Closed`]. Requests already drained into the dying batch
/// are disconnected the same way when the batch itself unwinds.
struct CloseOnExit<'a>(&'a Shared);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        // Recover the lock even if the panic happened while it was held
        // elsewhere; the close-and-clear below is safe on any queue state.
        let mut queue = self
            .0
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        queue.closed = true;
        queue.pending.clear();
        drop(queue);
        self.0.nonempty.notify_all();
    }
}

/// Collects up to `max_batch` requests, waiting at most `batch_wait` past
/// the first enqueue, then answers them. Loops until closed *and* drained.
fn flush_loop(
    shared: &Shared,
    engine: &Engine,
    max_batch: usize,
    batch_wait: Duration,
    slo: &inbox_obs::Slo,
    auditor: Option<&Auditor>,
) {
    let _close_on_exit = CloseOnExit(shared);
    // Reused across flushes: with capacity for a full batch up front, the
    // drain below never grows it, keeping the dequeue path allocation-free
    // at steady state (checked against the `batcher.flush` scope).
    let mut batch: Vec<Pending> = Vec::with_capacity(max_batch);
    loop {
        {
            let mut queue = shared.queue.lock().unwrap();
            // Phase 1: sleep until there is at least one request (or we are
            // told to close with an empty queue, which means we are done).
            while queue.pending.is_empty() {
                if queue.closed {
                    return;
                }
                queue = shared.queue.wait(&shared.nonempty, queue).unwrap();
            }
            // Phase 2: the batch window is open. Wait for the deadline
            // measured from the oldest queued request, leaving early once
            // the batch is full or the service is closing.
            let deadline = queue.pending[0].enqueued + batch_wait;
            while queue.pending.len() < max_batch && !queue.closed {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let (q, timeout) = shared
                    .queue
                    .wait_timeout(&shared.nonempty, queue, remaining)
                    .unwrap();
                queue = q;
                if timeout.timed_out() {
                    break;
                }
            }
            let take = queue.pending.len().min(max_batch);
            let _flush_alloc = inbox_obs::alloc_scope("batcher.flush");
            batch.clear();
            batch.extend(queue.pending.drain(..take));
        }
        // Chaos sites, both outside the queue lock: a one-shot stall here
        // delays a whole batch without blocking producers, and an injected
        // panic kills the flush thread with a batch in hand — the worst
        // moment — which `CloseOnExit` must turn into clean `Closed` errors.
        let _ = inbox_obs::failpoint!("serve.batcher.flush_stall");
        if inbox_obs::failpoint!("serve.batcher.flush_panic") {
            panic!("injected failpoint: serve.batcher.flush_panic");
        }
        flush(engine, &mut batch, slo, auditor);
    }
}

/// Scores one request in its trace context (when it has one), so engine
/// spans — and, on the pool path, the `pool.score` span — attach to the
/// request's tree no matter which thread runs the scoring.
fn score_one(
    engine: &Engine,
    user: UserId,
    k: usize,
    trace: Option<&ActiveTrace>,
    in_pool: bool,
) -> Answer {
    match trace {
        Some(t) => inbox_obs::with_context(t, 0, || {
            let _pool_span = in_pool.then(|| inbox_obs::ctx_span("pool.score"));
            engine.recommend_now(user, k)
        }),
        None => engine.recommend_now(user, k),
    }
}

/// Answers one coalesced batch, fanning out over the engine's worker pool
/// when one is configured and the batch is big enough to split. Drains
/// `batch` so the caller's buffer (and its capacity) can be reused.
fn flush(
    engine: &Engine,
    batch: &mut Vec<Pending>,
    slo: &inbox_obs::Slo,
    auditor: Option<&Auditor>,
) {
    if batch.is_empty() {
        return;
    }
    {
        // Bookkeeping region of the flush scope: counters, size histogram,
        // and queue-span closing — none of it may allocate at steady state.
        // The per-request answer computation below is deliberately outside:
        // each answer owns a fresh `items` vector by contract.
        let _flush_alloc = inbox_obs::alloc_scope("batcher.flush");
        engine.note_batch();
        inbox_obs::record_value("serve.batch.size", batch.len() as u64);
        // The queue phase ends for the whole batch at dequeue.
        for p in batch.iter() {
            if let Some((trace, queue_span)) = &p.trace {
                trace.close_span(*queue_span);
            }
        }
    }
    let answers: Vec<Answer> = match engine.pool() {
        Some(pool) if batch.len() >= 2 => {
            let jobs: Vec<(UserId, usize, Option<&ActiveTrace>)> = batch
                .iter()
                .map(|p| (p.user, p.k, p.trace.as_ref().map(|(t, _)| t)))
                .collect();
            let workers = pool.workers();
            let chunk = jobs.len().div_ceil(workers);
            let slots: Vec<Mutex<Vec<(usize, Answer)>>> =
                (0..workers).map(|_| Mutex::new(Vec::new())).collect();
            pool.run(&|w| {
                let start = w * chunk;
                let end = jobs.len().min(start + chunk);
                let mut out = Vec::with_capacity(end.saturating_sub(start));
                for (i, &(user, k, trace)) in jobs.iter().enumerate().take(end).skip(start) {
                    out.push((i, score_one(engine, user, k, trace, true)));
                }
                *slots[w].lock().unwrap() = out;
            });
            let mut answers: Vec<Option<Answer>> = vec![None; jobs.len()];
            for slot in slots {
                for (i, r) in slot.into_inner().unwrap() {
                    answers[i] = Some(r);
                }
            }
            answers
                .into_iter()
                .map(|r| r.expect("every request is answered by exactly one worker"))
                .collect()
        }
        _ => batch
            .iter()
            .map(|p| score_one(engine, p.user, p.k, p.trace.as_ref().map(|(t, _)| t), false))
            .collect(),
    };
    // Audit sampling: after the answers exist, before replies go out, and
    // deliberately *outside* the allocation-checked flush scopes — the
    // 1-in-N winners clone their answer for the background oracle, which is
    // audit overhead, not serving overhead. `maybe_sample` never blocks
    // (full audit queues shed).
    if let Some(auditor) = auditor {
        for answer in answers.iter().flatten() {
            auditor.maybe_sample(answer);
        }
    }
    // Reply region of the flush scope: latency classification and the
    // rendezvous sends (the channel slot was allocated by the caller).
    let _flush_alloc = inbox_obs::alloc_scope("batcher.flush");
    for (pending, answer) in batch.drain(..).zip(answers) {
        let latency = pending.enqueued.elapsed();
        inbox_obs::record_duration("serve.request", latency);
        slo.observe(latency);
        // A receiver that hung up already got `Closed` from `recommend`;
        // nothing to do with the answer in that case.
        let _ = pending.reply.send(answer);
    }
}
