//! Open-loop load generator and a minimal HTTP/1.1 client.
//!
//! Requests are issued on a fixed schedule from a bounded set of sender
//! threads, each holding at most one connection. A request's latency is
//! timed from when it was *due*, not from when a sender got round to it, so
//! a stall is charged to every request scheduled behind it (no coordinated
//! omission); how late each send went out is recorded as its lag.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200 with a well-formed answer.
    Ok,
    /// 503: shed by admission control.
    Shed,
    /// Anything else: connection error, other status, malformed body.
    Failed,
}

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send time minus due time.
    pub lag: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
    /// Time spent in `connect()`.
    pub connect: Duration,
    /// Completion, as an offset from the phase start.
    pub done: Duration,
    pub status: Status,
}

/// What issuing one request reports back to the generator.
pub struct Sent {
    pub connect: Duration,
    pub status: Status,
}

/// Sleeps until `due`, spinning only for the last stretch so send times
/// are not rounded up to the scheduler's tick.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(120));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Issues request `i` at `schedule[i]` (offsets from the phase start) from
/// `senders` threads and returns one [`Sample`] per request, in schedule
/// order. A sender claims the next request before waiting for its due
/// time, so when every sender is busy the backlog shows up as lag.
pub fn open_loop<F>(schedule: &[Duration], senders: usize, issue: F) -> Vec<Sample>
where
    F: Fn(usize) -> Sent + Sync,
{
    let start = Instant::now() + Duration::from_millis(2);
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Sample>>> = Mutex::new(vec![None; schedule.len()]);
    std::thread::scope(|s| {
        for _ in 0..senders.max(1) {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= schedule.len() {
                        break;
                    }
                    let due = start + schedule[i];
                    wait_until(due);
                    let sent_at = Instant::now();
                    let sent = issue(i);
                    let done = Instant::now();
                    local.push((
                        i,
                        Sample {
                            lag: sent_at - due,
                            latency: done - due,
                            connect: sent.connect,
                            done: done - start,
                            status: sent.status,
                        },
                    ));
                }
                let mut out = out
                    .lock()
                    .expect("no sender panics while holding the results");
                for (i, s) in local {
                    out[i] = Some(s);
                }
            });
        }
    });
    out.into_inner()
        .expect("senders joined")
        .into_iter()
        .map(|s| s.expect("every scheduled request was issued"))
        .collect()
}

/// One blocking request on a fresh connection (`Connection: close`, as the
/// server answers). Returns the connect time and `(status, body)`.
pub fn http(
    addr: SocketAddr,
    method: &str,
    target: &str,
) -> (Duration, std::io::Result<(u16, String)>) {
    let t = Instant::now();
    let stream = TcpStream::connect(addr);
    let connect = t.elapsed();
    let result = stream.and_then(|mut stream| {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.write_all(
            format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )?;
        let mut raw = Vec::with_capacity(1024);
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8(raw)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let status = text
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        Ok((status, body))
    });
    (connect, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;
    use crate::traffic::{poisson_schedule, Rng};
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A one-thread HTTP stub that answers every connection at once, except
    /// that it stalls for `stall` before answering connection `stall_at`.
    fn stub_server(stall_at: usize, stall: Duration, total: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (i, conn) in listener.incoming().take(total).enumerate() {
                let mut conn = conn.unwrap();
                let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let _ = conn.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
        });
        addr
    }

    fn get(addr: SocketAddr) -> Sent {
        let (connect, r) = http(addr, "GET", "/health");
        Sent {
            connect,
            status: match r {
                Ok((200, body)) if body == "ok" => Status::Ok,
                _ => Status::Failed,
            },
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_behind_it() {
        let stall = Duration::from_millis(120);
        let schedule = poisson_schedule(&mut Rng::new(5), 500.0, 0.6);
        let n = schedule.len();
        let addr = stub_server(40, stall, n);
        let samples = open_loop(&schedule, 2, |_| get(addr));
        assert!(samples.iter().all(|s| s.status == Status::Ok));

        // Requests due during the stall could not be sent until it ended,
        // so each carries part of it: with 500 req/s over a 120 ms stall,
        // dozens are late, not just the one or two a closed loop would time.
        let slow = samples
            .iter()
            .filter(|s| s.latency >= Duration::from_millis(30))
            .count();
        assert!(
            slow >= 20,
            "only {slow} requests were charged for the stall"
        );
        // The lateness shows up in the generator's own lag, too.
        let mut lag: Vec<f64> = samples.iter().map(|s| s.lag.as_secs_f64()).collect();
        lag.sort_by(f64::total_cmp);
        assert!(
            quantile(&lag, 0.99) >= 0.05,
            "lag p99 {} s misses the stall",
            quantile(&lag, 0.99)
        );
        // Latency is at least lag: a request is never timed from its send.
        assert!(samples.iter().all(|s| s.latency >= s.lag));
    }

    #[test]
    fn without_a_stall_the_generator_keeps_its_schedule() {
        let schedule = poisson_schedule(&mut Rng::new(6), 300.0, 0.4);
        let n = schedule.len();
        let addr = stub_server(usize::MAX, Duration::ZERO, n);
        let samples = open_loop(&schedule, 2, |_| get(addr));
        let mut lag: Vec<f64> = samples.iter().map(|s| s.lag.as_secs_f64()).collect();
        lag.sort_by(f64::total_cmp);
        assert!(
            quantile(&lag, 0.5) < 0.005,
            "median lag {} s",
            quantile(&lag, 0.5)
        );
    }
}
