//! Deterministic failpoint registry: named fault-injection sites with
//! schedule-driven triggers.
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
//! All schedules are deterministic: `Nth` counts evaluations since the
//! trigger was configured, so a failing chaos test replays exactly.
//!
//! Every evaluation and every fire is counted once, in the observability
//! counter registry under `failpoint.hit.<site>` / `failpoint.fired.<site>`.
//! [`hits`] and [`fired`] read those counters, and the CI chaos job's
//! coverage check reads them to prove each registered site is exercised.
//! Like every counter they record only while the obs gate
//! ([`crate::set_enabled`]) is on, and [`crate::reset`] clears them.
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
    hits_counter: &'static str,
    fired_counter: &'static str,
}

impl SiteState {
    fn new(site: &str) -> Self {
        Self {
            trigger: Trigger::Off,
            calls: 0,
            hits_counter: crate::registry::intern(format!("failpoint.hit.{site}")),
            fired_counter: crate::registry::intern(format!("failpoint.fired.{site}")),
        }
    }
}

fn registry() -> &'static Mutex<HashMap<&'static str, SiteState>> {
    static SITES: OnceLock<Mutex<HashMap<&'static str, SiteState>>> = OnceLock::new();
    SITES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Installs `trigger` on `site`, resetting the site's evaluation counter.
/// The hit/fire counts are preserved.
pub fn configure(site: &'static str, trigger: Trigger) {
    let mut sites = registry().lock().unwrap();
    let state = sites.entry(site).or_insert_with(|| SiteState::new(site));
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
/// lock released. The counters are fetched by name on each evaluation, so
/// evaluations after a [`crate::reset`] land in fresh cells.
pub fn check(site: &'static str) -> bool {
    let (fires, delay, hits_counter, fired_counter) = {
        let mut sites = registry().lock().unwrap();
        let state = sites.entry(site).or_insert_with(|| SiteState::new(site));
        state.calls += 1;
        let mut delay = None;
        let fires = match state.trigger {
            Trigger::Off => false,
            Trigger::Always => true,
            Trigger::Nth(n) => state.calls == n,
            Trigger::DelayOnce(d) => {
                delay = Some(d);
                state.trigger = Trigger::Off;
                true
            }
        };
        (fires, delay, state.hits_counter, state.fired_counter)
    };
    crate::counter(hits_counter).incr();
    if fires {
        crate::counter(fired_counter).incr();
    }
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    fires
}

/// Evaluations of `site` counted in `failpoint.hit.<site>` (0 if never
/// evaluated).
pub fn hits(site: &str) -> u64 {
    crate::counter_value(&format!("failpoint.hit.{site}"))
}

/// Fires of `site` counted in `failpoint.fired.<site>` (0 if never fired).
pub fn fired(site: &str) -> u64 {
    crate::counter_value(&format!("failpoint.fired.{site}"))
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
    fn configure_resets_the_schedule() {
        configure("test.fp.reset", Trigger::Nth(1));
        assert!(check("test.fp.reset"));
        assert!(!check("test.fp.reset"));
        configure("test.fp.reset", Trigger::Nth(1));
        assert!(check("test.fp.reset"), "counting restarts at configure");
        clear("test.fp.reset");
        assert!(!check("test.fp.reset"));
        assert_eq!(
            hits("test.fp.reset"),
            4,
            "hit counts survive reconfiguration"
        );
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
