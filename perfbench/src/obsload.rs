//! Reads of the program's own process-wide counters, the scrape target
//! of the batch workloads, and parsing of Prometheus text.

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tpupoint::obs::{Health, MetricsServer, ServeHooks};

use crate::ledger::{Layers, Ledger};
use crate::scrape::{open_loop, ScrapeLog, ScrapePlan};
use crate::stats::{median, quantile};

/// Time between scrapes of the process-wide registry.
const REGISTRY_SCRAPE_INTERVAL: Duration = Duration::from_millis(10);

/// Counters of the process-wide registry the ledger reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub par_tasks: u64,
    pub par_steals: u64,
    pub store_retries: u64,
    pub store_errors: u64,
    pub snapshot_publishes: u64,
    pub optimizer_trials: u64,
}

impl Counters {
    /// The current values.
    pub fn read() -> Counters {
        let snapshot = tpupoint::obs::metrics().snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        Counters {
            par_tasks: counter("par.tasks"),
            par_steals: counter("par.steals"),
            store_retries: counter("profiler.store_retries"),
            store_errors: counter("profiler.store_errors"),
            snapshot_publishes: counter("fleet.snapshot_publishes"),
            optimizer_trials: counter("optimizer.trials"),
        }
    }

    /// What was counted since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            par_tasks: self.par_tasks - earlier.par_tasks,
            par_steals: self.par_steals - earlier.par_steals,
            store_retries: self.store_retries - earlier.store_retries,
            store_errors: self.store_errors - earlier.store_errors,
            snapshot_publishes: self.snapshot_publishes - earlier.snapshot_publishes,
            optimizer_trials: self.optimizer_trials - earlier.optimizer_trials,
        }
    }
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|entry| entry.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

fn render_registry() -> String {
    tpupoint::obs::to_prometheus(&tpupoint::obs::metrics().snapshot())
}

/// Serves the process-wide registry over HTTP, the way a batch run
/// exposes its self-observability, so batch workloads have a scrape
/// target too.
pub struct RegistryScraper {
    server: MetricsServer,
}

impl RegistryScraper {
    /// Binds an ephemeral local port.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind() -> io::Result<RegistryScraper> {
        let server = MetricsServer::bind(
            "127.0.0.1:0",
            ServeHooks {
                metrics: Box::new(render_registry),
                health: Box::new(Health::healthy),
                status: Box::new(|| "{}\n".to_owned()),
                phases: Box::new(|| "{}\n".to_owned()),
                quit: Box::new(|| {}),
                route: None,
            },
        )?;
        Ok(RegistryScraper { server })
    }

    /// Starts scraping for one pass; a traced pass also times in-process
    /// renders.
    pub fn start(&self, traced: bool) -> RunningScrape {
        let stop = Arc::new(AtomicBool::new(false));
        let addr: SocketAddr = self.server.local_addr();
        let plan = ScrapePlan {
            interval: REGISTRY_SCRAPE_INTERVAL,
            phases_every: 0,
        };
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let render: &(dyn Fn() -> String + Sync) = &render_registry;
            open_loop(addr, plan, &thread_stop, traced.then_some(render))
        });
        RunningScrape { stop, handle }
    }
}

/// A scraper thread running for one pass.
pub struct RunningScrape {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ScrapeLog>,
}

impl RunningScrape {
    /// Stops the scraper and returns what it saw.
    pub fn finish(self) -> ScrapeLog {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("scraper thread panicked")
    }
}

/// Files a traced pass's scrapes as obs-layer metrics, and counts them.
pub fn obs_layers(log: &ScrapeLog, layers: &mut Layers, ledger: &mut Ledger) {
    ledger.attempted += log.attempted;
    ledger.failed += log.failed;
    let render = median(&log.render_ms);
    layers.insert("obs.render_ms", render);
    layers.insert("obs.http_ms", median(&log.service_ms) - render);
    layers.insert("obs.scrape_bytes", median(&log.bytes));
    layers.insert("obs.phases_ms", median(&log.phases_ms));
    layers.insert(
        "obs.generator_late_ms",
        quantile(&log.late_ms, 0.99).unwrap_or(0.0),
    );
}

/// One sample of a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<'a> {
    /// Series name.
    pub name: &'a str,
    /// The raw label block, without braces.
    pub labels: &'a str,
    /// Sample value.
    pub value: f64,
}

impl Sample<'_> {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.split(',').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then(|| v.trim_matches('"'))
        })
    }
}

/// The samples of an exposition (comments skipped).
pub fn samples(text: &str) -> Vec<Sample<'_>> {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let value = value.parse().ok()?;
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => (name, rest.strip_suffix('}')?),
                None => (series, ""),
            };
            Some(Sample {
                name,
                labels,
                value,
            })
        })
        .collect()
}

/// Families with more than one `# TYPE` header; empty for a valid
/// exposition.
pub fn duplicate_type_headers(text: &str) -> Vec<String> {
    let mut seen = std::collections::BTreeMap::<&str, usize>::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split_whitespace().next().unwrap_or("");
            *seen.entry(family).or_default() += 1;
        }
    }
    seen.into_iter()
        .filter(|&(_, n)| n > 1)
        .map(|(family, _)| family.to_owned())
        .collect()
}

/// The `q`-quantile of a histogram given as cumulative `(le, count)`
/// buckets with power-of-two bounds, interpolated linearly inside the
/// bucket that holds it (from the previous bound, or 0).
pub fn bucket_quantile(cumulative: &[(f64, f64)], q: f64) -> f64 {
    let Some(&(_, total)) = cumulative.last() else {
        return 0.0;
    };
    let target = q * total;
    let mut prev = (0.0, 0.0);
    for &(le, count) in cumulative {
        if count >= target && count > prev.1 {
            return prev.0 + (le - prev.0) * (target - prev.1) / (count - prev.1);
        }
        prev = (le, count);
    }
    prev.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPOSITION: &str = "# HELP tpupoint_x x\n# TYPE tpupoint_x counter\n\
        tpupoint_x 3\ntpupoint_x{job=\"a\",tenant=\"t\"} 5\n\
        # TYPE tpupoint_h histogram\ntpupoint_h_bucket{job=\"a\",le=\"1\"} 2\n";

    #[test]
    fn samples_parse_names_labels_and_values() {
        let parsed = samples(EXPOSITION);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].name, "tpupoint_x");
        assert_eq!(parsed[0].value, 3.0);
        assert_eq!(parsed[1].label("job"), Some("a"));
        assert_eq!(parsed[1].label("tenant"), Some("t"));
        assert_eq!(parsed[2].label("le"), Some("1"));
        assert_eq!(parsed[2].label("missing"), None);
    }

    #[test]
    fn duplicate_headers_are_found() {
        assert!(duplicate_type_headers(EXPOSITION).is_empty());
        let doubled = format!("{EXPOSITION}# TYPE tpupoint_x counter\n");
        assert_eq!(duplicate_type_headers(&doubled), vec!["tpupoint_x"]);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_a_bucket() {
        // 10 samples <= 1, 30 more <= 3, 60 more <= 7.
        let buckets = [(1.0, 10.0), (3.0, 40.0), (7.0, 100.0)];
        assert!((bucket_quantile(&buckets, 0.1) - 1.0).abs() < 1e-9);
        assert!((bucket_quantile(&buckets, 0.25) - 2.0).abs() < 1e-9);
        assert!((bucket_quantile(&buckets, 0.7) - 5.0).abs() < 1e-9);
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
    }
}
