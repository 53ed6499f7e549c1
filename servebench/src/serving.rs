//! The system under test: the real `HttpServer` over a `Service` over an
//! `Engine`, built from generated inputs, plus the load phases and the
//! correctness gate that drive it.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::UserId;
use inbox_serve::{Engine, HttpServer, IndexMode, Recommendation, ServeConfig, Service};

use crate::loadgen::{http, open_loop, Sample, Sent, Status};
use crate::stats::{quantile, sorted};
use crate::traffic::{Mirror, Request, Rng, Writes};

/// List length of every request: the paper's Recall@20 protocol.
pub const K: usize = 20;
/// Sender threads, and so the most connections open at once.
pub const SENDERS: usize = 2;
/// Seed of the synthetic dataset (fixed: the workload seed drives traffic
/// only, so every seed serves the same catalog).
const DATA_SEED: u64 = 7;
/// Seed of the clustered item geometry (as the throughput bench uses).
const GEOMETRY_SEED: u64 = 0x1db0;

/// Generated inputs of one serving stack: the `small` twin (optionally with
/// its catalog scaled), untrained d=32 parameters with clustered item
/// points, and the serving configuration.
pub struct Inputs {
    pub ds: Dataset,
    pub cfg: InBoxConfig,
    pub serve: ServeConfig,
    sizes: UniverseSizes,
}

impl Inputs {
    pub fn new(items_scale: usize, index: IndexMode) -> Self {
        let ds = Dataset::synthetic(
            &SyntheticConfig::small().with_items_scale(items_scale),
            DATA_SEED,
        );
        let sizes = UniverseSizes {
            n_items: ds.kg.n_items(),
            n_tags: ds.kg.n_tags(),
            n_relations: ds.kg.n_relations(),
            n_users: ds.n_users(),
        };
        Inputs {
            ds,
            cfg: InBoxConfig::for_dim(32),
            serve: ServeConfig {
                index,
                ..ServeConfig::default()
            },
            sizes,
        }
    }

    /// A fresh copy of the frozen model. Construction is deterministic, so
    /// every copy is bit-identical to the one the engine serves.
    pub fn model(&self) -> InBoxModel {
        let mut model = InBoxModel::new(self.sizes, &self.cfg);
        inbox_testkit::harness::cluster_item_points(
            &mut model,
            self.ds.kg.n_tags().max(1),
            0.05,
            GEOMETRY_SEED,
        );
        model
    }

    pub fn n_users(&self) -> usize {
        self.sizes.n_users
    }

    pub fn n_items(&self) -> usize {
        self.sizes.n_items
    }

    pub fn mirror(&self) -> Mirror {
        Mirror::new(&self.ds.kg, &self.ds.train, &self.cfg)
    }
}

/// A running stack.
pub struct Stack {
    pub service: Arc<Service>,
    pub http: HttpServer,
}

impl Stack {
    pub fn engine(&self) -> &Engine {
        self.service.engine()
    }

    pub fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    pub fn stop(&self) {
        self.http.shutdown();
        self.service.shutdown();
    }
}

/// Where one set-up spent its time, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub engine_new: f64,
    pub service_start: f64,
    pub total: f64,
}

/// Builds a stack from `inputs` and waits until `/health` answers 200.
/// Timed from generated inputs to ready: `Engine::new` (history build,
/// scorer, index build), `Service::start` (drift-reference oracle pass),
/// `HttpServer::bind` and the first healthy probe.
pub fn start(inputs: &Inputs) -> Result<(Stack, SetupTimes), String> {
    let model = inputs.model();
    let kg = inputs.ds.kg.clone();
    let t0 = Instant::now();
    let engine = Engine::new(
        model,
        inputs.cfg.clone(),
        kg,
        &inputs.ds.train,
        &inputs.serve,
    );
    let t1 = Instant::now();
    let service = Arc::new(Service::start(engine, &inputs.serve));
    let t2 = Instant::now();
    let http =
        HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = http.local_addr();
    loop {
        match crate::loadgen::http(addr, "GET", "/health").1 {
            Ok((200, _)) => break,
            _ if t2.elapsed() > Duration::from_secs(10) => {
                return Err("server never became healthy".into())
            }
            _ => std::thread::sleep(Duration::from_micros(100)),
        }
    }
    let t3 = Instant::now();
    let times = SetupTimes {
        engine_new: (t1 - t0).as_secs_f64(),
        service_start: (t2 - t1).as_secs_f64(),
        total: (t3 - t0).as_secs_f64(),
    };
    Ok((Stack { service, http }, times))
}

/// Caches every user's box at their current version, in-process.
pub fn warm(stack: &Stack, n_users: usize) {
    for u in 0..n_users as u32 {
        stack
            .engine()
            .recommend_now(UserId(u), K)
            .expect("every generated user is known");
    }
}

/// One load phase as the generator saw it (possibly pooled from several
/// rounds at the same rate).
pub struct Phase {
    pub name: String,
    pub rate: f64,
    pub requests: Vec<Request>,
    pub samples: Vec<Sample>,
    /// Seconds from the start of the (each) round to its last completion.
    span: f64,
    /// Whether the generator fell further behind as the (any) round went on.
    lag_grew: bool,
}

/// Latency charged to a failed or shed request, seconds: it counts as
/// missing any latency limit.
const FAIL_LATENCY_S: f64 = 1.0;
/// Growth of the generator's mean lag over a round, seconds, beyond which
/// the round counts as saturated (its backlog grew).
const LAG_GROWTH_S: f64 = 0.01;

impl Phase {
    fn latencies(&self, want_ingest: bool) -> Vec<f64> {
        sorted(
            self.requests
                .iter()
                .zip(&self.samples)
                .filter(|(r, _)| matches!(r, Request::Ingest { .. }) == want_ingest)
                .map(|(_, s)| match s.status {
                    Status::Ok => s.latency.as_secs_f64(),
                    _ => s.latency.as_secs_f64().max(FAIL_LATENCY_S),
                }),
        )
    }

    /// Sorted `/recommend` latencies, seconds, timed from due time.
    pub fn recommend(&self) -> Vec<f64> {
        self.latencies(false)
    }

    /// Sorted `POST /ingest` latencies, seconds, timed from due time.
    pub fn ingest(&self) -> Vec<f64> {
        self.latencies(true)
    }

    pub fn count(&self, status: Status) -> usize {
        self.samples.iter().filter(|s| s.status == status).count()
    }

    /// Answered requests per second, over the span from round start to the
    /// last completion.
    pub fn ok_rate(&self) -> f64 {
        self.count(Status::Ok) as f64 / self.span.max(1e-9)
    }

    /// Pools rounds run at the same rate into one phase.
    pub fn pool(rounds: Vec<Phase>) -> Phase {
        let mut it = rounds.into_iter();
        let mut p = it.next().expect("at least one round");
        for r in it {
            p.requests.extend(r.requests);
            p.samples.extend(r.samples);
            p.span += r.span;
            p.lag_grew |= r.lag_grew;
        }
        p
    }

    /// Sorted lags, seconds.
    pub fn lags(&self) -> Vec<f64> {
        sorted(self.samples.iter().map(|s| s.lag.as_secs_f64()))
    }

    /// Sorted connect times, seconds.
    pub fn connects(&self) -> Vec<f64> {
        sorted(self.samples.iter().map(|s| s.connect.as_secs_f64()))
    }

    /// Whether the generator fell further behind as a round went on: the
    /// stack did not keep up with the offered rate.
    pub fn saturated(&self) -> bool {
        self.lag_grew
    }

    /// Whether this phase passes as a capacity-ladder rung: `/recommend`
    /// p99 within `p99_limit` seconds, every request answered, and a
    /// generator that kept up.
    pub fn meets(&self, p99_limit: f64) -> bool {
        quantile(&self.recommend(), 0.99) <= p99_limit
            && self.count(Status::Ok) == self.samples.len()
            && !self.lag_grew
    }
}

fn issue(addr: SocketAddr, request: &Request) -> Sent {
    let (connect, result, ok) = match *request {
        Request::Recommend { user } => {
            let (c, r) = http(addr, "GET", &format!("/recommend?user={user}&k={K}"));
            let ok = |body: &str| {
                body.starts_with(&format!("{{\"user\":{user},"))
                    && body.matches("{\"item\":").count() == K
            };
            let ok = r.as_ref().is_ok_and(|(_, b)| ok(b));
            (c, r, ok)
        }
        Request::Ingest { user, item } => {
            let (c, r) = http(addr, "POST", &format!("/ingest?user={user}&item={item}"));
            let ok = r
                .as_ref()
                .is_ok_and(|(_, b)| b.starts_with(&format!("{{\"user\":{user},\"item\":{item},")));
            (c, r, ok)
        }
    };
    let status = match result {
        Ok((200, _)) if ok => Status::Ok,
        Ok((503, _)) => Status::Shed,
        _ => Status::Failed,
    };
    Sent { connect, status }
}

/// Whether the mean lag of the last quarter of sends exceeds that of the
/// first quarter by more than [`LAG_GROWTH_S`].
fn lag_grows(samples: &[Sample]) -> bool {
    let n = samples.len();
    let q = (n / 4).max(1).min(n);
    let mean =
        |s: &[Sample]| s.iter().map(|x| x.lag.as_secs_f64()).sum::<f64>() / s.len().max(1) as f64;
    mean(&samples[n - q..]) - mean(&samples[..q]) > LAG_GROWTH_S
}

/// Drives `requests` at `schedule` against the stack, open-loop.
pub fn run_phase(
    stack: &Stack,
    name: &str,
    rate: f64,
    requests: Vec<Request>,
    schedule: &[Duration],
) -> Phase {
    let addr = stack.addr();
    let samples = open_loop(schedule, SENDERS, |i| issue(addr, &requests[i]));
    let span = samples
        .iter()
        .map(|s| s.done)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let lag_grew = lag_grows(&samples);
    // Let connection threads from the phase's tail exit before the next.
    std::thread::sleep(Duration::from_millis(50));
    Phase {
        name: name.to_string(),
        rate,
        requests,
        samples,
        span,
        lag_grew,
    }
}

/// The answer body the server writes for `r`, byte for byte.
pub fn render(r: &Recommendation) -> String {
    let items: Vec<String> = r
        .items
        .iter()
        .map(|(item, score)| format!("{{\"item\":{},\"score\":{score}}}", item.0))
        .collect();
    format!(
        "{{\"user\":{},\"version\":{},\"fallback\":{},\"items\":[{}]}}",
        r.user.0,
        r.version,
        r.fallback,
        items.join(",")
    )
}

/// The unsigned integer after `"key":` in a flat JSON body.
fn field_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Item ids of an answer body, in order.
fn items_of(body: &str) -> Vec<u32> {
    body.split("{\"item\":")
        .skip(1)
        .filter_map(|s| s.split(',').next()?.parse().ok())
        .collect()
}

/// What the correctness gate found.
#[derive(Debug, Default)]
pub struct Verified {
    pub checked: usize,
    pub wrong: Vec<String>,
    /// Mean overlap of served and oracle top-K.
    pub recall: f64,
}

/// Sequential correctness gate over `n` seeded requests, unloaded. Under
/// churn every other check first ingests a fresh item over HTTP, so half
/// the verified answers come from a rebuilt box. Each `/recommend` answer
/// is compared with `Engine::oracle` at the version in its body: byte for
/// byte when `exact`, as top-K overlap otherwise.
pub fn verify(
    stack: &Stack,
    inputs: &Inputs,
    mirror: &mut Mirror,
    rng: &mut Rng,
    writes: Writes,
    exact: bool,
    n: usize,
) -> Verified {
    let mut out = Verified::default();
    let mut overlap = 0.0;
    let addr = stack.addr();
    for j in 0..n {
        let user = rng.below(inputs.n_users()) as u32;
        if writes == Writes::Churn && j % 2 == 0 {
            let item = mirror.fresh_item(rng, user, inputs.n_items());
            mirror.ingest(&inputs.ds.kg, &inputs.cfg, user, item);
            match http(addr, "POST", &format!("/ingest?user={user}&item={item}")).1 {
                Ok((200, _)) => {}
                other => {
                    out.wrong
                        .push(format!("ingest user {user} item {item}: {other:?}"));
                    continue;
                }
            }
        }
        let body = match http(addr, "GET", &format!("/recommend?user={user}&k={K}")).1 {
            Ok((200, body)) => body,
            other => {
                out.wrong.push(format!("recommend user {user}: {other:?}"));
                continue;
            }
        };
        let oracle = stack
            .engine()
            .oracle(UserId(user), K)
            .expect("every generated user is known");
        out.checked += 1;
        if field_u64(&body, "version") != Some(oracle.version) {
            out.wrong.push(format!(
                "user {user}: served version {:?}, oracle at {}",
                field_u64(&body, "version"),
                oracle.version
            ));
            continue;
        }
        let want: Vec<u32> = oracle.items.iter().map(|(i, _)| i.0).collect();
        let got = items_of(&body);
        overlap +=
            got.iter().filter(|i| want.contains(i)).count() as f64 / want.len().max(1) as f64;
        if exact && body != render(&oracle) {
            out.wrong.push(format!(
                "user {user} v{}: served {body} but the oracle gives {}",
                oracle.version,
                render(&oracle)
            ));
        }
    }
    out.recall = overlap / out.checked.max(1) as f64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_fields_parse() {
        let body = "{\"user\":3,\"version\":12,\"fallback\":false,\"items\":[{\"item\":7,\"score\":1.5},{\"item\":40,\"score\":-2}]}";
        assert_eq!(field_u64(body, "version"), Some(12));
        assert_eq!(field_u64(body, "user"), Some(3));
        assert_eq!(items_of(body), vec![7, 40]);
    }
}
