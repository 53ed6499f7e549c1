//! Seeded traffic: arrival schedules, user draws and request streams.
//!
//! Everything here is a pure function of the benchmark's `--seed`; the
//! program under test only ever sees the resulting requests.

use std::time::Duration;

use inbox_core::{HistoryCache, InBoxConfig};
use inbox_data::Interactions;
use inbox_kg::{ItemId, KnowledgeGraph, UserId};

/// SplitMix64: tiny, seedable and stable across platforms and releases.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5ab1_e5ee_d000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// An independent stream for one named purpose.
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng(self.next_u64() ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }
}

/// Poisson arrivals at `rate` per second over `secs`, conditioned on their
/// count: `round(rate × secs)` offsets drawn uniform over the phase and
/// sorted. Fixing the count keeps the sample size of every phase equal
/// across seeds while the gaps stay exponential.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, secs: f64) -> Vec<Duration> {
    let n = (rate * secs).round().max(1.0) as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.unit() * secs).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    Recommend { user: u32 },
    Ingest { user: u32, item: u32 },
}

/// Skewed user draws: Zipf with exponent 0.8 over a seed-permuted user
/// order, so a few users are hot and the rest form a long tail.
pub struct UserDraw {
    order: Vec<u32>,
    cdf: Vec<f64>,
}

impl UserDraw {
    pub fn new(rng: &mut Rng, n_users: usize) -> Self {
        let mut order: Vec<u32> = (0..n_users as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n_users)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(0.8);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        UserDraw { order, cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.order.len() - 1);
        self.order[rank]
    }
}

/// The benchmark's own copy of the live state the engine keeps: each
/// user's capped history and sorted interaction mask, updated with every
/// ingest the benchmark sends.
pub struct Mirror {
    pub history: HistoryCache,
    pub masks: Vec<Vec<ItemId>>,
}

impl Mirror {
    pub fn new(kg: &KnowledgeGraph, train: &Interactions, cfg: &InBoxConfig) -> Self {
        Mirror {
            history: HistoryCache::build(kg, train, cfg),
            masks: (0..train.n_users() as u32)
                .map(|u| train.items_of(UserId(u)).to_vec())
                .collect(),
        }
    }

    /// Applies one ingest exactly as `Engine::ingest` does.
    pub fn ingest(&mut self, kg: &KnowledgeGraph, cfg: &InBoxConfig, user: u32, item: u32) {
        let mask = &mut self.masks[user as usize];
        if let Err(pos) = mask.binary_search(&ItemId(item)) {
            mask.insert(pos, ItemId(item));
        }
        self.history.ingest(kg, cfg, UserId(user), ItemId(item));
    }

    /// An item `user` has never interacted with (so ingesting it bumps the
    /// user's history version while the history is below its cap), or a
    /// known one if the user has interacted with every item.
    pub fn fresh_item(&self, rng: &mut Rng, user: u32, n_items: usize) -> u32 {
        let mask = &self.masks[user as usize];
        if mask.len() >= n_items {
            return self.known_item(rng, user);
        }
        loop {
            let item = rng.below(n_items) as u32;
            if mask.binary_search(&ItemId(item)).is_err() {
                return item;
            }
        }
    }

    /// An item already in `user`'s history: ingesting it changes nothing
    /// but still takes the engine's write lock.
    pub fn known_item(&self, rng: &mut Rng, user: u32) -> u32 {
        let history = self.history.history(UserId(user));
        history[rng.below(history.len())].0 .0
    }
}

/// How a workload's writes treat the live state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writes {
    /// Every write records an item new to the user, bumping their version
    /// so their next read misses the box cache.
    Churn,
    /// Every write re-records an item the user already has: the write lock
    /// is taken, but no box is invalidated and no answer changes.
    Rerecord,
}

/// `n` requests: every `ingest_every`-th is an ingest, the rest are reads.
/// Readers are drawn from `draw` (skewed); writers uniformly, so no user's
/// history reaches the engine's cap within a run and every churn write
/// keeps invalidating a box. Churn ingests are applied to `mirror` as they
/// are generated, so later fresh items stay fresh.
#[allow(clippy::too_many_arguments)]
pub fn stream(
    rng: &mut Rng,
    draw: &UserDraw,
    mirror: &mut Mirror,
    kg: &KnowledgeGraph,
    cfg: &InBoxConfig,
    n: usize,
    ingest_every: usize,
    writes: Writes,
) -> Vec<Request> {
    (0..n)
        .map(|i| {
            if (i + 1) % ingest_every != 0 {
                return Request::Recommend {
                    user: draw.draw(rng),
                };
            }
            let user = rng.below(mirror.masks.len()) as u32;
            let item = match writes {
                Writes::Churn => {
                    let item = mirror.fresh_item(rng, user, kg.n_items());
                    mirror.ingest(kg, cfg, user, item);
                    item
                }
                Writes::Rerecord => mirror.known_item(rng, user),
            };
            Request::Ingest { user, item }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_alone_fixes_the_schedule() {
        let a = poisson_schedule(&mut Rng::new(11), 400.0, 0.5);
        let b = poisson_schedule(&mut Rng::new(11), 400.0, 0.5);
        let c = poisson_schedule(&mut Rng::new(12), 400.0, 0.5);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < Duration::from_secs_f64(0.5));
    }

    #[test]
    fn user_draws_are_skewed_and_cover_the_tail() {
        let mut rng = Rng::new(3);
        let draw = UserDraw::new(&mut rng, 120);
        let mut counts = vec![0usize; 120];
        for _ in 0..60_000 {
            counts[draw.draw(&mut rng) as usize] += 1;
        }
        counts.sort_unstable();
        assert!(counts[0] > 0, "every user is drawn");
        assert!(counts[119] > 10 * counts[0], "the head is hot");
    }
}
