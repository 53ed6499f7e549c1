//! Allocation accounting: an instrumented [`GlobalAlloc`] wrapper that
//! attributes allocation count and bytes to labeled scopes.
//!
//! PR 2 made the training and serving hot paths "allocation-free in steady
//! state" by construction; this module makes that claim *runtime-checkable*.
//! A binary opts in by installing [`InstrumentedAlloc`] as its
//! `#[global_allocator]`; code marks regions with [`alloc_scope`]; every
//! allocation that happens while a scope is current on the calling thread
//! is charged to that scope's row in a fixed-size atomic table. The
//! library itself never installs the allocator — only specific test
//! binaries do — so ordinary builds pay nothing.
//!
//! # Interposition rules
//!
//! The accounting path runs *inside* `alloc`/`dealloc`, so it must never
//! allocate, lock, or call back into the registry:
//!
//! - all state is `static` fixed-size atomic arrays (no `HashMap`, no
//!   `Vec`, no `String`),
//! - the current scope is a `const`-initialised thread-local [`Cell`]
//!   (its TLS slot needs no lazy allocation) accessed via `try_with` so
//!   allocations during thread teardown degrade to "unscoped" instead of
//!   panicking,
//! - scope *registration* (name → slot id) takes a `Mutex`, but only ever
//!   from [`alloc_scope`] — never from the allocator hooks,
//! - the sliding-window ring is stamped with [`crate::window::now_sec`],
//!   which reads a monotonic clock and allocates nothing.
//!
//! When [`set_alloc_tracking`] is off (the default) every hook is a single
//! relaxed atomic load; the instrumented binary's throughput is otherwise
//! unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::window::{now_sec, MAX_WINDOW_SECS, WINDOW_SLOTS};

/// Maximum number of distinct allocation scopes (slot 0 is "unscoped").
pub const MAX_ALLOC_SCOPES: usize = 32;

/// Slot tag meaning "never written" in the window ring.
const EMPTY: u64 = u64::MAX;

static TRACK: AtomicBool = AtomicBool::new(false);

// Scope table: names are published len-then-ptr (Release) under REG and
// read ptr-then-len (Acquire), so a non-null pointer always pairs with its
// length. Counts are plain relaxed accumulators.
static NAMES_PTR: [AtomicPtr<u8>; MAX_ALLOC_SCOPES] =
    [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_ALLOC_SCOPES];
static NAMES_LEN: [AtomicUsize; MAX_ALLOC_SCOPES] =
    [const { AtomicUsize::new(0) }; MAX_ALLOC_SCOPES];
static ALLOCS: [AtomicU64; MAX_ALLOC_SCOPES] = [const { AtomicU64::new(0) }; MAX_ALLOC_SCOPES];
static ALLOC_BYTES: [AtomicU64; MAX_ALLOC_SCOPES] = [const { AtomicU64::new(0) }; MAX_ALLOC_SCOPES];
static DEALLOCS: [AtomicU64; MAX_ALLOC_SCOPES] = [const { AtomicU64::new(0) }; MAX_ALLOC_SCOPES];
static DEALLOC_BYTES: [AtomicU64; MAX_ALLOC_SCOPES] =
    [const { AtomicU64::new(0) }; MAX_ALLOC_SCOPES];

// Per-second ring for allocation rates, same rotation protocol as
// `window::WindowedCounter` but over statics so the allocator path never
// touches heap-backed structures.
static WIN_SECOND: [AtomicU64; WINDOW_SLOTS] = [const { AtomicU64::new(EMPTY) }; WINDOW_SLOTS];
static WIN_ALLOCS: [AtomicU64; WINDOW_SLOTS] = [const { AtomicU64::new(0) }; WINDOW_SLOTS];
static WIN_BYTES: [AtomicU64; WINDOW_SLOTS] = [const { AtomicU64::new(0) }; WINDOW_SLOTS];

/// Serialises scope registration (never taken from the allocator hooks).
static REG: Mutex<()> = Mutex::new(());

thread_local! {
    /// Scope id current on this thread (0 = unscoped). `const`-initialised
    /// so reading it from the allocator needs no lazy TLS setup.
    static CURRENT: Cell<u16> = const { Cell::new(0) };
    /// Allocations charged to this thread — the basis of [`count_allocs`].
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Turns scope-attributed allocation tracking on or off. Off (the default)
/// reduces every allocator hook to one relaxed atomic load.
pub fn set_alloc_tracking(on: bool) {
    TRACK.store(on, Ordering::SeqCst);
}

/// Whether allocation tracking is currently recording.
pub fn alloc_tracking() -> bool {
    TRACK.load(Ordering::Relaxed)
}

fn slot_name(i: usize) -> Option<&'static str> {
    if i == 0 {
        return Some("unscoped");
    }
    let ptr = NAMES_PTR[i].load(Ordering::Acquire);
    if ptr.is_null() {
        return None;
    }
    let len = NAMES_LEN[i].load(Ordering::Acquire);
    // SAFETY: ptr/len were published from a `&'static str` in
    // `register_scope` (len stored before the Release store of ptr, which
    // this Acquire load pairs with), so the slice lives forever and is
    // valid UTF-8.
    Some(unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) })
}

/// Name → slot id, registering on first use. Returns 0 (unscoped) when the
/// table is full — attribution degrades, nothing breaks.
fn register_scope(name: &'static str) -> u16 {
    // Fast path: the same call site passes the same `&'static str`, so a
    // pointer-equality scan without the mutex almost always hits.
    for i in 1..MAX_ALLOC_SCOPES {
        let ptr = NAMES_PTR[i].load(Ordering::Acquire);
        if ptr.is_null() {
            break;
        }
        if std::ptr::eq(ptr, name.as_ptr()) && NAMES_LEN[i].load(Ordering::Acquire) == name.len() {
            return i as u16;
        }
    }
    let _reg = REG
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for i in 1..MAX_ALLOC_SCOPES {
        match slot_name(i) {
            Some(existing) if existing == name => return i as u16,
            Some(_) => continue,
            None => {
                NAMES_LEN[i].store(name.len(), Ordering::Relaxed);
                NAMES_PTR[i].store(name.as_ptr() as *mut u8, Ordering::Release);
                return i as u16;
            }
        }
    }
    0
}

/// Marks the enclosing region as allocation scope `name` on this thread
/// until the returned guard drops. Nested scopes attribute to the
/// innermost; the guard restores the enclosing scope on drop.
///
/// The scope registers and becomes current even while tracking is off —
/// registration is the scope *inventory* (exposition and the testkit
/// audit list it), [`set_alloc_tracking`] gates only the per-allocation
/// counting. Entering a scope costs a short pointer scan plus two TLS
/// writes; with tracking off nothing else happens.
pub fn alloc_scope(name: &'static str) -> AllocScopeGuard {
    let id = register_scope(name);
    let prev = CURRENT
        .try_with(|c| {
            let prev = c.get();
            c.set(id);
            prev
        })
        .ok();
    AllocScopeGuard {
        prev,
        _not_send: PhantomData,
    }
}

/// Restores the enclosing allocation scope on drop. `!Send`: the scope is
/// a property of the thread that opened it.
#[must_use = "an alloc scope attributes until dropped; binding it to `_` drops immediately"]
pub struct AllocScopeGuard {
    prev: Option<u16>,
    _not_send: PhantomData<*mut ()>,
}

impl Drop for AllocScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            let _ = CURRENT.try_with(|c| c.set(prev));
        }
    }
}

#[inline]
fn on_alloc(size: usize) {
    if !TRACK.load(Ordering::Relaxed) {
        return;
    }
    let id = CURRENT.try_with(Cell::get).unwrap_or(0) as usize;
    let id = id.min(MAX_ALLOC_SCOPES - 1);
    ALLOCS[id].fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES[id].fetch_add(size as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    win_add(size as u64);
}

#[inline]
fn on_dealloc(size: usize) {
    if !TRACK.load(Ordering::Relaxed) {
        return;
    }
    let id = CURRENT.try_with(Cell::get).unwrap_or(0) as usize;
    let id = id.min(MAX_ALLOC_SCOPES - 1);
    DEALLOCS[id].fetch_add(1, Ordering::Relaxed);
    DEALLOC_BYTES[id].fetch_add(size as u64, Ordering::Relaxed);
}

#[inline]
fn win_add(bytes: u64) {
    let sec = now_sec();
    let at = (sec % WINDOW_SLOTS as u64) as usize;
    loop {
        let tagged = WIN_SECOND[at].load(Ordering::Acquire);
        if tagged == sec {
            break;
        }
        if WIN_SECOND[at]
            .compare_exchange(tagged, sec, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            WIN_ALLOCS[at].store(0, Ordering::Release);
            WIN_BYTES[at].store(0, Ordering::Release);
            break;
        }
    }
    WIN_ALLOCS[at].fetch_add(1, Ordering::Relaxed);
    WIN_BYTES[at].fetch_add(bytes, Ordering::Relaxed);
}

/// The instrumented allocator: [`System`] plus scope-attributed
/// accounting. Install per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: inbox_obs::InstrumentedAlloc = inbox_obs::InstrumentedAlloc;
/// ```
pub struct InstrumentedAlloc;

// SAFETY: delegates every operation to `System`; the accounting side
// touches only static atomics and const-initialised TLS, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for InstrumentedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Allocation counts attributed to one scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopeAllocStats {
    /// Allocations charged to the scope.
    pub allocs: u64,
    /// Bytes allocated in the scope.
    pub bytes: u64,
    /// Deallocations charged to the scope.
    pub deallocs: u64,
    /// Bytes freed in the scope.
    pub dealloc_bytes: u64,
}

fn slot_stats(i: usize) -> ScopeAllocStats {
    ScopeAllocStats {
        allocs: ALLOCS[i].load(Ordering::Relaxed),
        bytes: ALLOC_BYTES[i].load(Ordering::Relaxed),
        deallocs: DEALLOCS[i].load(Ordering::Relaxed),
        dealloc_bytes: DEALLOC_BYTES[i].load(Ordering::Relaxed),
    }
}

/// Stats for one scope by name (`"unscoped"` is slot 0), if registered.
pub fn alloc_scope_stats(name: &str) -> Option<ScopeAllocStats> {
    (0..MAX_ALLOC_SCOPES)
        .find(|&i| slot_name(i) == Some(name))
        .map(slot_stats)
}

/// Every registered scope (plus `"unscoped"`) with its stats, sorted by
/// name. Scopes stay listed after [`reset_alloc_stats`] — registration is
/// the inventory the testkit audits, counts are the measurement.
pub fn all_alloc_scopes() -> Vec<(String, ScopeAllocStats)> {
    let mut out: Vec<(String, ScopeAllocStats)> = (0..MAX_ALLOC_SCOPES)
        .filter_map(|i| slot_name(i).map(|n| (n.to_string(), slot_stats(i))))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Process-wide allocation totals (all scopes plus unscoped): every
/// allocation is charged to exactly one slot, so the slots sum to it.
pub fn alloc_totals() -> ScopeAllocStats {
    (0..MAX_ALLOC_SCOPES)
        .map(slot_stats)
        .fold(ScopeAllocStats::default(), |a, s| ScopeAllocStats {
            allocs: a.allocs + s.allocs,
            bytes: a.bytes + s.bytes,
            deallocs: a.deallocs + s.deallocs,
            dealloc_bytes: a.dealloc_bytes + s.dealloc_bytes,
        })
}

/// `(allocations, bytes)` recorded in the last `window` seconds.
pub fn alloc_window(window: u64) -> (u64, u64) {
    let window = window.clamp(1, MAX_WINDOW_SECS);
    let now = now_sec();
    let (mut allocs, mut bytes) = (0u64, 0u64);
    for at in 0..WINDOW_SLOTS {
        let tagged = WIN_SECOND[at].load(Ordering::Acquire);
        if tagged != EMPTY && tagged <= now && now - tagged < window {
            allocs += WIN_ALLOCS[at].load(Ordering::Relaxed);
            bytes += WIN_BYTES[at].load(Ordering::Relaxed);
        }
    }
    (allocs, bytes)
}

/// Zeroes every allocation counter and the rate ring. Registered scope
/// names survive (handles and inventories stay valid). Part of
/// [`crate::reset`].
pub fn reset_alloc_stats() {
    for i in 0..MAX_ALLOC_SCOPES {
        ALLOCS[i].store(0, Ordering::Relaxed);
        ALLOC_BYTES[i].store(0, Ordering::Relaxed);
        DEALLOCS[i].store(0, Ordering::Relaxed);
        DEALLOC_BYTES[i].store(0, Ordering::Relaxed);
    }
    for at in 0..WINDOW_SLOTS {
        WIN_SECOND[at].store(EMPTY, Ordering::Release);
        WIN_ALLOCS[at].store(0, Ordering::Release);
        WIN_BYTES[at].store(0, Ordering::Release);
    }
}

/// Whether this binary actually installed [`InstrumentedAlloc`]: probes by
/// boxing a value with tracking forced on and checking the global counter
/// moved. Zero-alloc assertions are vacuous (and say so) without it.
pub fn allocator_installed() -> bool {
    let was = TRACK.swap(true, Ordering::SeqCst);
    let before = THREAD_ALLOCS.with(Cell::get);
    let probe = std::hint::black_box(Box::new(0x5eedu64));
    drop(std::hint::black_box(probe));
    let after = THREAD_ALLOCS.with(Cell::get);
    TRACK.store(was, Ordering::SeqCst);
    after > before
}

/// Runs `f`, returning its result and the number of allocations the
/// *calling thread* performed inside it. Always 0 unless the binary
/// installed [`InstrumentedAlloc`] and tracking is on.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    let after = THREAD_ALLOCS.with(Cell::get);
    (out, after.saturating_sub(before))
}

/// Asserts `f` performs no allocations on the calling thread, with
/// tracking forced on for its duration. Vacuously passes (running `f`
/// normally) when the binary did not install the instrumented allocator,
/// so shared test helpers can call it unconditionally.
///
/// # Panics
///
/// Panics with `label` when `f` allocated and the allocator is installed.
pub fn assert_alloc_free<T>(label: &str, f: impl FnOnce() -> T) -> T {
    if !allocator_installed() {
        return f();
    }
    let was = alloc_tracking();
    set_alloc_tracking(true);
    let (out, n) = count_allocs(f);
    set_alloc_tracking(was);
    assert!(
        n == 0,
        "{label}: {n} allocation(s) in a region asserted allocation-free"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests cover registration, scoping, and accounting arithmetic;
    // the end-to-end allocator-installed behaviour lives in tests/alloc.rs
    // (its own binary, so `#[global_allocator]` stays out of the library
    // and the unit-test harness), and table overflow in
    // tests/alloc_overflow.rs (filling the process-global table would
    // poison every other test here).
    //
    // `TRACK` is process-global while tests run concurrently, so every
    // test that needs a particular tracking state holds this lock.
    static GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn scopes_register_once_and_dedupe_by_content() {
        let a = register_scope("test.alloc.reg");
        let b = register_scope("test.alloc.reg");
        assert_eq!(a, b);
        assert_ne!(a, 0);
        let names: Vec<String> = all_alloc_scopes().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"test.alloc.reg".to_string()));
        assert!(names.contains(&"unscoped".to_string()));
        assert_eq!(
            names.iter().filter(|n| *n == "test.alloc.reg").count(),
            1,
            "duplicate registration"
        );
    }

    #[test]
    fn scope_guard_nests_and_restores() {
        let _gate = gate();
        set_alloc_tracking(true);
        assert_eq!(CURRENT.with(Cell::get), 0);
        {
            let _outer = alloc_scope("test.alloc.outer");
            let outer_id = CURRENT.with(Cell::get);
            assert_ne!(outer_id, 0);
            {
                let _inner = alloc_scope("test.alloc.inner");
                assert_ne!(CURRENT.with(Cell::get), outer_id);
            }
            assert_eq!(CURRENT.with(Cell::get), outer_id);
        }
        assert_eq!(CURRENT.with(Cell::get), 0);
        set_alloc_tracking(false);
    }

    #[test]
    fn scope_registers_but_counts_nothing_while_tracking_is_off() {
        let _gate = gate();
        set_alloc_tracking(false);
        {
            let _g = alloc_scope("test.alloc.untracked");
            // The scope is current (inventory works untracked)…
            assert_ne!(CURRENT.with(Cell::get), 0);
            // …but the hooks drop samples.
            on_alloc(512);
        }
        assert_eq!(CURRENT.with(Cell::get), 0);
        assert_eq!(
            alloc_scope_stats("test.alloc.untracked"),
            Some(ScopeAllocStats::default())
        );
    }

    #[test]
    fn accounting_hooks_attribute_to_the_current_scope() {
        // Drive the hooks directly (the unit-test binary does not install
        // the allocator) and check attribution + totals arithmetic.
        let _gate = gate();
        set_alloc_tracking(true);
        let before = alloc_scope_stats("test.alloc.direct").unwrap_or_default();
        {
            let _g = alloc_scope("test.alloc.direct");
            on_alloc(128);
            on_alloc(64);
            on_dealloc(128);
        }
        let after = alloc_scope_stats("test.alloc.direct").unwrap();
        set_alloc_tracking(false);
        assert_eq!(after.allocs - before.allocs, 2);
        assert_eq!(after.bytes - before.bytes, 192);
        assert_eq!(after.deallocs - before.deallocs, 1);
        assert_eq!(after.dealloc_bytes - before.dealloc_bytes, 128);
        let (win_allocs, win_bytes) = alloc_window(60);
        assert!(win_allocs >= 2, "window missed samples: {win_allocs}");
        assert!(win_bytes >= 192, "window missed bytes: {win_bytes}");
    }

    #[test]
    fn tracking_off_drops_samples() {
        let _gate = gate();
        set_alloc_tracking(false);
        let before = alloc_totals();
        on_alloc(1024);
        assert_eq!(alloc_totals(), before);
    }

    #[test]
    fn assert_alloc_free_is_vacuous_without_the_allocator() {
        // This binary has no #[global_allocator]; the helper must not
        // false-positive on real allocations.
        let _gate = gate();
        let v = assert_alloc_free("vacuous", || vec![1u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(!allocator_installed());
    }
}
