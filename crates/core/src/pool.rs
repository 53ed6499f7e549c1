//! Persistent worker pool for the training and inference hot paths.
//!
//! `grad_batch` used to spawn fresh scoped threads for every gradient batch;
//! at production batch sizes that is thousands of thread spawns per epoch.
//! A [`WorkerPool`] is created once per `train()` call and reused across all
//! batches and epochs of all three stages (and by `all_user_boxes` during
//! stage-3 evaluation), so thread creation drops out of the steady state.
//!
//! The pool deliberately has a tiny API: [`WorkerPool::run`] executes one
//! closure on every worker (each receives its worker index) and blocks until
//! all workers finish. Work distribution — chunking samples, per-worker
//! scratch buffers — belongs to the caller, which keeps this module free of
//! any knowledge about models or gradients.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A borrowed task with its lifetime erased. Only constructed inside
/// [`WorkerPool::run`], which blocks until every worker is done with it.
type Task = &'static (dyn Fn(usize) + Sync);

enum Msg {
    Run(Task),
    Exit,
}

#[derive(Default)]
struct RunState {
    done: usize,
    panicked: bool,
}

struct Shared {
    state: Mutex<RunState>,
    cv: Condvar,
}

/// A fixed set of named worker threads that execute one task at a time.
pub struct WorkerPool {
    senders: Vec<Sender<Msg>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl WorkerPool {
    /// Spawns `workers` threads (must be at least 1). The threads live until
    /// the pool is dropped.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "WorkerPool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(RunState::default()),
            cv: Condvar::new(),
        });
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Msg>();
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("inbox-worker-{w}"))
                .spawn(move || {
                    while let Ok(Msg::Run(task)) = rx.recv() {
                        // A panicking task must still count itself as done,
                        // otherwise `run` would deadlock waiting for it.
                        let result = catch_unwind(AssertUnwindSafe(|| task(w)));
                        let mut st = shared.state.lock().unwrap();
                        st.done += 1;
                        if result.is_err() {
                            st.panicked = true;
                        }
                        shared.cv.notify_all();
                    }
                })
                .expect("spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            senders,
            handles,
            shared,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Runs `task(worker_index)` on every worker and blocks until all
    /// workers have finished. Panics (after all workers are done) if any
    /// worker's task panicked.
    pub fn run(&self, task: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the erased reference is handed to worker threads, and this
        // function blocks below until every worker has reported completion,
        // so the borrow never outlives the call. `Sync` on the closure makes
        // the sharing across threads sound.
        let task: Task = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.done = 0;
            st.panicked = false;
        }
        for tx in &self.senders {
            tx.send(Msg::Run(task)).expect("pool worker thread died");
        }
        let mut st = self.shared.state.lock().unwrap();
        while st.done < self.senders.len() {
            st = self.shared.cv.wait(st).unwrap();
        }
        let panicked = st.panicked;
        drop(st);
        if panicked {
            panic!("a WorkerPool task panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Exit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_task_on_every_worker() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        let seen = Mutex::new(vec![false; 4]);
        pool.run(&|w| {
            hits.fetch_add(1, Ordering::SeqCst);
            seen.lock().unwrap()[w] = true;
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert!(seen.lock().unwrap().iter().all(|&s| s));
    }

    #[test]
    fn pool_is_reusable_across_many_runs() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(&|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn pool_chunked_sum_matches_sequential() {
        let data: Vec<u64> = (0..1000).collect();
        let pool = WorkerPool::new(4);
        let partials = Mutex::new(vec![0u64; 4]);
        let chunk = data.len().div_ceil(4);
        pool.run(&|w| {
            let lo = w * chunk;
            let hi = (lo + chunk).min(data.len());
            let s: u64 = data[lo..hi].iter().sum();
            partials.lock().unwrap()[w] = s;
        });
        let total: u64 = partials.lock().unwrap().iter().sum();
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn pool_propagates_worker_panic_and_survives() {
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool stays usable after a failed run.
        let ok = AtomicUsize::new(0);
        pool.run(&|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 2);
    }
}
