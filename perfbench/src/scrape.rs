//! A minimal HTTP/1.1 client and the open-loop scrape generator.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats::Schedule;

/// Bound on one request; a server that stalls longer counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Sends one request on a fresh connection and returns the status code
/// and body.
///
/// # Errors
///
/// Returns connection, I/O and malformed-response errors.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let response = String::from_utf8_lossy(&response);
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// What one open-loop scraper observed. Times are in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct ScrapeLog {
    /// `GET /metrics` latency from each request's due time.
    pub latency_ms: Vec<f64>,
    /// `GET /metrics` latency from the actual send.
    pub service_ms: Vec<f64>,
    /// `/metrics` body sizes in bytes.
    pub bytes: Vec<f64>,
    /// `GET /phases` latency from the due time.
    pub phases_ms: Vec<f64>,
    /// In-process render time, when a render hook was given.
    pub render_ms: Vec<f64>,
    /// How late each request was sent.
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or answered other than 200.
    pub failed: u64,
}

impl ScrapeLog {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: ScrapeLog) {
        self.latency_ms.extend(other.latency_ms);
        self.service_ms.extend(other.service_ms);
        self.bytes.extend(other.bytes);
        self.phases_ms.extend(other.phases_ms);
        self.render_ms.extend(other.render_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The open-loop scrape plan: one request every `interval`, every
/// `phases_every`-th of them `GET /phases` (0: never).
#[derive(Debug, Clone, Copy)]
pub struct ScrapePlan {
    /// Time between due times.
    pub interval: Duration,
    /// Every n-th request asks for `/phases` instead of `/metrics`.
    pub phases_every: u32,
}

/// Scrapes `addr` on `plan`'s fixed schedule until `stop` is set. Each
/// request is timed from its due time, so a slow answer also charges the
/// requests that were due while it ran. After each `/metrics` scrape,
/// `render` (when given) renders the same exposition in process, which
/// splits the latency into render and HTTP time.
pub fn open_loop(
    addr: SocketAddr,
    plan: ScrapePlan,
    stop: &AtomicBool,
    render: Option<&(dyn Fn() -> String + Sync)>,
) -> ScrapeLog {
    let schedule = Schedule::new(Instant::now(), plan.interval);
    let mut log = ScrapeLog::default();
    for k in 0u32.. {
        let due = schedule.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let sent = Instant::now();
        log.late_ms.push(ms(schedule.lateness(k, sent)));
        let phases = plan.phases_every > 0 && k % plan.phases_every == plan.phases_every - 1;
        let path = if phases { "/phases" } else { "/metrics" };
        let result = request(addr, "GET", path, "");
        let done = Instant::now();
        log.attempted += 1;
        let body = match result {
            Ok((200, body)) => body,
            _ => {
                log.failed += 1;
                continue;
            }
        };
        if phases {
            log.phases_ms.push(ms(schedule.latency(k, done)));
            continue;
        }
        log.latency_ms.push(ms(schedule.latency(k, done)));
        log.service_ms.push(ms(done - sent));
        log.bytes.push(body.len() as f64);
        if let Some(render) = render {
            let start = Instant::now();
            std::hint::black_box(render());
            log.render_ms.push(ms(start.elapsed()));
        }
    }
    log
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}
