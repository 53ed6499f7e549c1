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
//!   from [`alloc_scope`] — never from the allocator hooks.
//!
//! When [`set_alloc_tracking`] is off (the default) every hook is a single
//! relaxed atomic load; the instrumented binary's throughput is otherwise
//! unchanged. The counts are a test instrument: tests read them through
//! [`alloc_scope_stats`]; no exposition renders them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum number of distinct allocation scopes (slot 0 is "unscoped").
pub const MAX_ALLOC_SCOPES: usize = 32;

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

/// Serialises scope registration (never taken from the allocator hooks).
static REG: Mutex<()> = Mutex::new(());

thread_local! {
    /// Scope id current on this thread (0 = unscoped). `const`-initialised
    /// so reading it from the allocator needs no lazy TLS setup.
    static CURRENT: Cell<u16> = const { Cell::new(0) };
    /// Allocations charged to this thread — the basis of
    /// [`allocator_installed`].
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Turns scope-attributed allocation tracking on or off. Off (the default)
/// reduces every allocator hook to one relaxed atomic load.
pub fn set_alloc_tracking(on: bool) {
    TRACK.store(on, Ordering::SeqCst);
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
}

/// The instrumented allocator: [`System`] plus scope-attributed
/// allocation counts (frees are not counted). Install per binary:
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
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
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
}

fn slot_stats(i: usize) -> ScopeAllocStats {
    ScopeAllocStats {
        allocs: ALLOCS[i].load(Ordering::Relaxed),
        bytes: ALLOC_BYTES[i].load(Ordering::Relaxed),
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

/// Zeroes every allocation counter. Registered scope names survive
/// (handles and inventories stay valid). Part of [`crate::reset`].
pub fn reset_alloc_stats() {
    for i in 0..MAX_ALLOC_SCOPES {
        ALLOCS[i].store(0, Ordering::Relaxed);
        ALLOC_BYTES[i].store(0, Ordering::Relaxed);
    }
}

/// Whether this binary actually installed [`InstrumentedAlloc`]: probes by
/// boxing a value with tracking forced on and checking the global counter
/// moved. Zero-alloc assertions are vacuous without it.
pub fn allocator_installed() -> bool {
    let was = TRACK.swap(true, Ordering::SeqCst);
    let before = THREAD_ALLOCS.with(Cell::get);
    let probe = std::hint::black_box(Box::new(0x5eedu64));
    drop(std::hint::black_box(probe));
    let after = THREAD_ALLOCS.with(Cell::get);
    TRACK.store(was, Ordering::SeqCst);
    after > before
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
        // the allocator) and check attribution arithmetic.
        let _gate = gate();
        set_alloc_tracking(true);
        let before = alloc_scope_stats("test.alloc.direct").unwrap_or_default();
        {
            let _g = alloc_scope("test.alloc.direct");
            on_alloc(128);
            on_alloc(64);
        }
        let after = alloc_scope_stats("test.alloc.direct").unwrap();
        set_alloc_tracking(false);
        assert_eq!(after.allocs - before.allocs, 2);
        assert_eq!(after.bytes - before.bytes, 192);
    }

    #[test]
    fn probe_sees_no_allocator_in_this_binary() {
        // This binary has no #[global_allocator]; tests/alloc.rs checks
        // the probe's other answer.
        let _gate = gate();
        assert!(!allocator_installed());
    }
}
