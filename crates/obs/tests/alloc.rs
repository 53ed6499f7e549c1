//! End-to-end allocation accounting with [`inbox_obs::InstrumentedAlloc`]
//! actually installed as this binary's global allocator — the library
//! never installs it, so the real interposition path (attribution,
//! absence of recursion/deadlock) can only be exercised in a dedicated
//! test binary like this one.

use std::hint::black_box;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: inbox_obs::InstrumentedAlloc = inbox_obs::InstrumentedAlloc;

/// Tracking is process-global and the harness runs tests concurrently;
/// every test serialises on this.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn stats(scope: &str) -> inbox_obs::ScopeAllocStats {
    inbox_obs::alloc_scope_stats(scope).unwrap_or_default()
}

#[test]
fn probe_detects_the_installed_allocator() {
    let _gate = gate();
    assert!(inbox_obs::allocator_installed());
}

#[test]
fn nested_scopes_attribute_to_the_innermost() {
    let _gate = gate();
    inbox_obs::set_alloc_tracking(true);
    let outer_before = stats("test.e2e.outer");
    let inner_before = stats("test.e2e.inner");
    {
        let _outer = inbox_obs::alloc_scope("test.e2e.outer");
        let v = black_box(vec![0u8; 1024]);
        {
            let _inner = inbox_obs::alloc_scope("test.e2e.inner");
            let b = black_box(vec![0u8; 512]);
            drop(black_box(b));
        }
        drop(black_box(v));
    }
    inbox_obs::set_alloc_tracking(false);
    let outer = stats("test.e2e.outer");
    let inner = stats("test.e2e.inner");
    // The outer scope is charged exactly its own Vec — the inner scope's
    // 512 bytes must not leak outward, and vice versa.
    assert_eq!(outer.allocs - outer_before.allocs, 1);
    assert_eq!(outer.bytes - outer_before.bytes, 1024);
    assert_eq!(inner.allocs - inner_before.allocs, 1);
    assert_eq!(inner.bytes - inner_before.bytes, 512);
}

#[test]
fn accounting_survives_a_multithreaded_hammer() {
    // 8 threads × 10k allocations inside scopes: the accounting path must
    // neither recurse (it would overflow the stack instantly) nor
    // deadlock (the allocator takes no locks), and the totals must add up.
    let _gate = gate();
    inbox_obs::set_alloc_tracking(true);
    let before = stats("test.e2e.hammer");
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let _scope = inbox_obs::alloc_scope("test.e2e.hammer");
                for i in 0..10_000usize {
                    drop(black_box(vec![0u8; (i % 128) + 1]));
                }
            });
        }
    });
    inbox_obs::set_alloc_tracking(false);
    let after = stats("test.e2e.hammer");
    assert_eq!(after.allocs - before.allocs, 80_000);
    // Each thread allocates 1..=128 bytes in turn: 78 full cycles of
    // 8256 bytes, then 16 allocations of 1..=16.
    assert_eq!(after.bytes - before.bytes, 8 * (78 * 8256 + 136));
}

#[test]
fn reset_zeroes_counts_and_keeps_names() {
    let _gate = gate();
    inbox_obs::set_alloc_tracking(true);
    {
        let _scope = inbox_obs::alloc_scope("test.e2e.reset");
        drop(black_box(vec![0u8; 2048]));
    }
    inbox_obs::set_alloc_tracking(false);
    assert!(stats("test.e2e.reset").bytes >= 2048);

    inbox_obs::reset_alloc_stats();
    // Scope names survive the reset — the inventory outlives the counts.
    assert_eq!(
        inbox_obs::alloc_scope_stats("test.e2e.reset"),
        Some(inbox_obs::ScopeAllocStats::default())
    );
    assert!(inbox_obs::all_alloc_scopes()
        .iter()
        .any(|(n, _)| n == "unscoped"));
}
