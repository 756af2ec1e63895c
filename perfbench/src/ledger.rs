//! The measurement loop shared by every workload, and the result it
//! reports.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::scrape::ScrapeLog;
use crate::stats::{median, quantile, ratio, samples_beyond};

/// Every per-layer metric with its unit, in report order. A traced pass
/// reports the ones its workload exercises; a layer the workload never
/// calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simcore.run_s", "s"),
    ("simcore.events", "count"),
    ("simcore.events_per_s", "1/s"),
    ("profiler.sink_s", "s"),
    ("profiler.ns_per_event", "ns"),
    ("profiler.finish_s", "s"),
    ("profiler.overhead_x", "x"),
    ("profiler.audit_overlaps", "count"),
    ("store.write_s", "s"),
    ("store.flush_s", "s"),
    ("store.seal_s", "s"),
    ("store.ops", "count"),
    ("store.bytes", "B"),
    ("store.bytes_per_step", "B"),
    ("store.recover_s", "s"),
    ("store.recover_records_per_s", "1/s"),
    ("store.retries", "count"),
    ("store.errors", "count"),
    ("analyzer.features_s", "s"),
    ("analyzer.ols_s", "s"),
    ("analyzer.kmeans_s", "s"),
    ("analyzer.dbscan_s", "s"),
    ("stream.updates", "count"),
    ("stream.update_ms", "ms"),
    ("pipeline.seal_latency_p50_us", "us"),
    ("pipeline.backpressure_waits", "count"),
    ("pipeline.windows_sealed", "count"),
    ("fleet.admit_ms", "ms"),
    ("fleet.snapshot_publishes", "count"),
    ("fleet.solo_chain_s", "s"),
    ("fleet.vs_solo_x", "x"),
    ("obs.render_ms", "ms"),
    ("obs.http_ms", "ms"),
    ("obs.scrape_bytes", "B"),
    ("obs.phases_ms", "ms"),
    ("obs.generator_late_ms", "ms"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("optimizer.trials", "count"),
    ("optimizer.trial_ms", "ms"),
    ("optimizer.tune_s", "s"),
    ("optimizer.verify_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_x", "x"),
];

/// Per-layer values of one traced pass, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one benchmark invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to keep starting passes.
    pub seconds: f64,
    /// Whether this run reports the traced per-layer split.
    pub trace: bool,
    /// Scratch directory, inside the working directory.
    pub work: PathBuf,
}

/// Everything measured over one invocation.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Set-up time of each pass.
    pub setup_s: Vec<f64>,
    /// Untraced wall time of each pass.
    pub wall_s: Vec<f64>,
    /// Peak live heap of each untraced pass.
    pub heap_mib: Vec<f64>,
    /// Peak resident set of each untraced pass (reported in provenance).
    pub rss_mib: Vec<f64>,
    /// Traced wall time of each traced pass.
    pub traced_wall_s: Vec<f64>,
    /// Per-layer split of each traced pass.
    pub layers: Vec<Layers>,
    /// Per-layer values measured once per run; they override `layers`.
    pub run_layers: Layers,
    /// Scrapes of the untraced passes.
    pub scrapes: ScrapeLog,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed and output checks that did not hold.
    pub failed: u64,
    /// Digest of the first pass's outputs.
    pub digest: Option<String>,
}

impl Ledger {
    /// Counts one operation or output check; `what` names a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// Counts an operation that returned `result`.
    pub fn op<T>(&mut self, what: &str, result: io::Result<T>) -> Option<T> {
        match result {
            Ok(value) => {
                self.check(true, String::new);
                Some(value)
            }
            Err(err) => {
                self.check(false, || format!("{what}: {err}"));
                None
            }
        }
    }

    /// Checks a pass's output digest against the one recorded for this
    /// seed, or else against the first pass of this run.
    pub fn check_digest(&mut self, recorded: Option<&str>, pass_digest: String) {
        let first = self
            .digest
            .get_or_insert_with(|| pass_digest.clone())
            .clone();
        let want = recorded.map_or(first, str::to_owned);
        self.check(want == pass_digest, || {
            format!("output digest {pass_digest}, expected {want}")
        });
    }

    /// Records the memory peaks of an untraced pass.
    pub fn record_peaks(&mut self) {
        self.heap_mib.push(crate::heap::peak_mib());
        self.rss_mib.push(peak_rss_mib());
    }

    /// Counts an untraced pass's scrapes and keeps their latencies.
    pub fn add_scrapes(&mut self, log: ScrapeLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        self.scrapes.merge(log);
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("wall_s", median(&self.wall_s), "s"),
            ("peak_heap_mib", median(&self.heap_mib), "MiB"),
            ("scrape_p50_ms", median(&self.scrapes.latency_ms), "ms"),
        ]
    }

    /// The 99th percentile of the untraced scrape latencies, and how many
    /// samples lie beyond it. Reported in the provenance line only: on a
    /// shared 2-vCPU host it moved too much between runs to gate on.
    pub fn scrape_p99_ms(&self) -> (f64, usize) {
        let latency = &self.scrapes.latency_ms;
        (
            quantile(latency, 0.99).unwrap_or(0.0),
            samples_beyond(latency, 0.99),
        )
    }

    /// The per-layer metrics: each the median over traced passes.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match (name, self.run_layers.get(name)) {
                    (_, Some(&value)) => value,
                    ("trace.overhead_x", None) => {
                        ratio(median(&self.traced_wall_s), median(&self.wall_s))
                    }
                    _ => {
                        let values: Vec<f64> = self
                            .layers
                            .iter()
                            .map(|layers| layers.get(name).copied().unwrap_or(0.0))
                            .collect();
                        median(&values)
                    }
                };
                (name, value, unit)
            })
            .collect()
    }

    /// The result line: correctness, operation counts, and the metrics.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Runs passes until `ctx.seconds` have elapsed, at least `min_passes`
/// of them. Untraced runs make only untraced passes; traced runs
/// alternate untraced and traced ones, starting untraced. Each pass gets
/// a fresh directory under the work directory, removed afterwards.
///
/// # Errors
///
/// Returns an error when a pass directory cannot be created or removed.
pub fn run_passes(
    ctx: &Ctx,
    ledger: &mut Ledger,
    min_passes: usize,
    mut pass: impl FnMut(&Path, bool, &mut Ledger),
) -> io::Result<()> {
    let start = Instant::now();
    let mut n = 0usize;
    while n < min_passes || start.elapsed().as_secs_f64() < ctx.seconds {
        let dir = ctx.work.join(format!("pass-{n}"));
        std::fs::create_dir_all(&dir)?;
        let traced = ctx.trace && n % 2 == 1;
        pass(&dir, traced, ledger);
        std::fs::remove_dir_all(&dir)?;
        n += 1;
    }
    Ok(())
}

/// Starts the memory peaks of a pass.
pub fn reset_peaks() {
    crate::heap::reset_peak();
    reset_peak_rss();
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next reading covers only what follows. Best effort: without it the
/// reading is the process peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last reset, in MiB (0 where `/proc` is
/// unavailable).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
