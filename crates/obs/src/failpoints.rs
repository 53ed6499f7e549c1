//! Deterministic failpoint registry: named fault-injection sites with
//! seeded, schedule-driven triggers.
//!
//! Instrumented crates mark injection sites with the
//! [`failpoint!`](crate::failpoint!) macro:
//!
//! ```ignore
//! if inbox_obs::failpoint!("persist.save.truncate") {
//!     json.truncate(json.len() / 2);
//! }
//! ```
//!
//! The macro gates on the **expanding crate's** `failpoints` cargo feature:
//! with the feature off (the default, and the only configuration shipped in
//! release builds) every site compiles to a literal `false` and the
//! registry is never consulted — zero hot-path cost. With the feature on,
//! each evaluation consults this registry, which decides whether the fault
//! fires according to a per-site [`Trigger`] schedule.
//!
//! All schedules are deterministic: `Nth`/`From` count evaluations since
//! the trigger was configured, and `Prob` draws from a private xorshift
//! generator seeded explicitly, so a failing chaos test replays exactly.
//!
//! Every site additionally mirrors its evaluation and fire counts into the
//! observability counter registry under `failpoint.hit.<site>` /
//! `failpoint.fired.<site>`, which is what the CI chaos job's coverage
//! check reads to prove each registered site is exercised.
//!
//! This module is always compiled (the registry itself is off every hot
//! path); only the *call sites* in other crates are feature-gated. Keeping
//! it here rather than in `inbox-testkit` avoids a dependency cycle: the
//! instrumented crates (`inbox-core`, `inbox-serve`) already depend on
//! `inbox-obs`, while the testkit depends on them.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// When a configured failpoint fires, relative to the evaluations of its
/// site since [`configure`] was called.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Never fires (the state of every unconfigured site).
    Off,
    /// Fires on every evaluation.
    Always,
    /// Fires on exactly the n-th evaluation (1-based) after configuration.
    Nth(u64),
    /// Fires on every evaluation from the n-th (1-based) onward.
    From(u64),
    /// Fires independently with probability `p` per evaluation, driven by
    /// a private deterministic generator seeded with `seed`.
    Prob {
        /// Per-evaluation fire probability in `[0, 1]`.
        p: f64,
        /// Seed for the site's private xorshift generator.
        seed: u64,
    },
    /// Sleeps for the given duration on the next evaluation, then reverts
    /// to [`Trigger::Off`]. The evaluation that slept counts as fired, so
    /// point this at sites that ignore the returned flag (pure stall
    /// sites) unless the site's failure action is also wanted.
    DelayOnce(Duration),
}

struct SiteState {
    trigger: Trigger,
    /// Evaluations since the current trigger was configured.
    calls: u64,
    /// xorshift64* state for `Prob`.
    rng: u64,
    /// Lifetime evaluations (never reset by `configure`/`clear`).
    hits: u64,
    /// Lifetime fires (never reset by `configure`/`clear`).
    fired: u64,
    hits_counter: &'static str,
    fired_counter: &'static str,
}

impl SiteState {
    fn new(site: &str) -> Self {
        Self {
            trigger: Trigger::Off,
            calls: 0,
            rng: 0,
            hits: 0,
            fired: 0,
            hits_counter: crate::registry::intern(format!("failpoint.hit.{site}")),
            fired_counter: crate::registry::intern(format!("failpoint.fired.{site}")),
        }
    }
}

fn registry() -> &'static Mutex<HashMap<&'static str, SiteState>> {
    static SITES: OnceLock<Mutex<HashMap<&'static str, SiteState>>> = OnceLock::new();
    SITES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// One xorshift64* step; returns the new state.
fn xorshift(mut x: u64) -> u64 {
    // Zero is a fixed point of xorshift; nudge it off.
    if x == 0 {
        x = 0x9e37_79b9_7f4a_7c15;
    }
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// Maps a generator state to a uniform draw in `[0, 1)`.
fn uniform(x: u64) -> f64 {
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

/// Installs `trigger` on `site`, resetting the site's evaluation counter
/// (and, for [`Trigger::Prob`], reseeding its generator). Lifetime
/// hit/fire counts are preserved.
pub fn configure(site: &'static str, trigger: Trigger) {
    let mut sites = registry().lock().unwrap();
    let state = sites.entry(site).or_insert_with(|| SiteState::new(site));
    state.rng = match trigger {
        Trigger::Prob { seed, .. } => seed,
        _ => 0,
    };
    state.trigger = trigger;
    state.calls = 0;
}

/// Disarms `site` (equivalent to configuring [`Trigger::Off`]).
pub fn clear(site: &'static str) {
    configure(site, Trigger::Off);
}

/// Evaluates `site` against its trigger; returns whether the fault fires.
///
/// Called by the [`failpoint!`](crate::failpoint!) macro — instrumented code should not call
/// this directly. Every evaluation is counted even when the trigger is
/// off. A [`Trigger::DelayOnce`] sleep happens here, with the registry
/// lock released.
pub fn check(site: &'static str) -> bool {
    let (fires, delay) = {
        let mut sites = registry().lock().unwrap();
        let state = sites.entry(site).or_insert_with(|| SiteState::new(site));
        state.hits += 1;
        state.calls += 1;
        let mut delay = None;
        let fires = match state.trigger {
            Trigger::Off => false,
            Trigger::Always => true,
            Trigger::Nth(n) => state.calls == n,
            Trigger::From(n) => state.calls >= n,
            Trigger::Prob { p, .. } => {
                state.rng = xorshift(state.rng);
                uniform(state.rng) < p
            }
            Trigger::DelayOnce(d) => {
                delay = Some(d);
                state.trigger = Trigger::Off;
                true
            }
        };
        if fires {
            state.fired += 1;
        }
        let (hits_counter, fired_counter) = (state.hits_counter, state.fired_counter);
        drop(sites);
        crate::counter(hits_counter).incr();
        if fires {
            crate::counter(fired_counter).incr();
        }
        (fires, delay)
    };
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    fires
}

/// Zeroes every site's lifetime hit/fired counts (part of [`crate::reset`];
/// triggers and schedules are left armed). The `failpoint.hit.*` /
/// `failpoint.fired.*` mirrors live in the counter registry and are cleared
/// by the same reset; [`check`] re-fetches its mirror cells per evaluation,
/// so post-reset evaluations land in fresh counters.
pub fn reset_counts() {
    let mut sites = registry().lock().unwrap();
    for state in sites.values_mut() {
        state.hits = 0;
        state.fired = 0;
    }
}

/// Lifetime evaluation count of `site` (0 if never evaluated).
pub fn hits(site: &str) -> u64 {
    registry().lock().unwrap().get(site).map_or(0, |s| s.hits)
}

/// Lifetime fire count of `site` (0 if never fired).
pub fn fired(site: &str) -> u64 {
    registry().lock().unwrap().get(site).map_or(0, |s| s.fired)
}

/// Every site the registry has seen (configured or evaluated), sorted.
pub fn sites() -> Vec<&'static str> {
    let sites = registry().lock().unwrap();
    let mut names: Vec<&'static str> = sites.keys().copied().collect();
    names.sort_unstable();
    names
}

/// RAII trigger installation: configures `site` on construction and
/// disarms it on drop, so a panicking test cannot leave a trigger armed
/// for the rest of the process.
pub struct FailGuard {
    site: &'static str,
}

impl FailGuard {
    /// Configures `trigger` on `site` for the guard's lifetime.
    pub fn new(site: &'static str, trigger: Trigger) -> Self {
        configure(site, trigger);
        Self { site }
    }
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        clear(self.site);
    }
}

/// Marks a fault-injection site, yielding `true` when the fault should
/// fire.
///
/// Gated on the **expanding crate's** `failpoints` cargo feature: with the
/// feature off the macro expands to a literal `false` and the registry is
/// never touched.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {{
        #[cfg(feature = "failpoints")]
        let __failpoint_fired = $crate::failpoints::check($site);
        #[cfg(not(feature = "failpoints"))]
        let __failpoint_fired = false;
        __failpoint_fired
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconfigured_site_never_fires_but_counts_hits() {
        for _ in 0..3 {
            assert!(!check("test.fp.unconfigured"));
        }
        assert_eq!(hits("test.fp.unconfigured"), 3);
        assert_eq!(fired("test.fp.unconfigured"), 0);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _guard = FailGuard::new("test.fp.nth", Trigger::Nth(3));
        let fires: Vec<bool> = (0..5).map(|_| check("test.fp.nth")).collect();
        assert_eq!(fires, [false, false, true, false, false]);
        assert_eq!(fired("test.fp.nth"), 1);
    }

    #[test]
    fn from_fires_from_n_onward() {
        let _guard = FailGuard::new("test.fp.from", Trigger::From(2));
        let fires: Vec<bool> = (0..4).map(|_| check("test.fp.from")).collect();
        assert_eq!(fires, [false, true, true, true]);
    }

    #[test]
    fn configure_resets_the_schedule() {
        configure("test.fp.reset", Trigger::Nth(1));
        assert!(check("test.fp.reset"));
        assert!(!check("test.fp.reset"));
        configure("test.fp.reset", Trigger::Nth(1));
        assert!(check("test.fp.reset"), "counting restarts at configure");
        clear("test.fp.reset");
        assert!(!check("test.fp.reset"));
        assert_eq!(hits("test.fp.reset"), 4, "lifetime hits survive resets");
    }

    #[test]
    fn prob_is_deterministic_per_seed_and_roughly_calibrated() {
        let sequence = |seed: u64| -> Vec<bool> {
            configure("test.fp.prob", Trigger::Prob { p: 0.3, seed });
            (0..64).map(|_| check("test.fp.prob")).collect()
        };
        let a = sequence(7);
        let b = sequence(7);
        assert_eq!(a, b, "same seed replays the same fire schedule");
        let c = sequence(8);
        assert_ne!(a, c, "different seeds diverge");
        let rate = a.iter().filter(|&&f| f).count();
        assert!((5..=35).contains(&rate), "p=0.3 over 64 draws fired {rate}");
        clear("test.fp.prob");
    }

    #[test]
    fn delay_once_sleeps_then_disarms() {
        configure(
            "test.fp.delay",
            Trigger::DelayOnce(Duration::from_millis(30)),
        );
        let start = std::time::Instant::now();
        assert!(
            check("test.fp.delay"),
            "the delayed evaluation counts as fired"
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
        let start = std::time::Instant::now();
        assert!(
            !check("test.fp.delay"),
            "one-shot: second evaluation is off"
        );
        assert!(start.elapsed() < Duration::from_millis(25));
    }

    #[test]
    fn counters_mirror_into_obs_registry() {
        configure("test.fp.counters", Trigger::Always);
        check("test.fp.counters");
        check("test.fp.counters");
        clear("test.fp.counters");
        assert!(crate::counter_value("failpoint.hit.test.fp.counters") >= 2);
        assert!(crate::counter_value("failpoint.fired.test.fp.counters") >= 2);
        assert!(sites().contains(&"test.fp.counters"));
    }
}
