//! Pass-through timing wrappers for the profiler's two extension points,
//! [`TraceSink`] and [`RecordStore`], and the batch profiling chain built
//! from them.
//!
//! The wrappers forward every call unchanged and only read the clock, so
//! a traced profile writes the same bytes as an untraced one (see the
//! tests). Store calls made from inside a sink callback are subtracted
//! from the sink's time, giving each layer its self time.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tpupoint::profiler::{
    JsonlStore, Profile, ProfilerOptions, ProfilerSink, RecordStore, RetryPolicy, RetryStore,
    StepRecord, WindowRecord,
};
use tpupoint::runtime::{JobConfig, RunReport, TrainingJob};
use tpupoint::sim::trace::{TraceEvent, TraceSink};
use tpupoint::sim::SimTime;

use crate::ledger::Layers;
use crate::stats::ratio;

/// Host-overhead charge `TpuPoint::profile` adds with default options.
const PROFILING_OVERHEAD_FRAC: f64 = 0.03;

/// Time and operation counts of one store, shared with the sink above it.
#[derive(Debug, Default)]
pub struct StoreClock {
    write_ns: AtomicU64,
    flush_ns: AtomicU64,
    seal_ns: AtomicU64,
    ops: AtomicU64,
    errors: AtomicU64,
}

impl StoreClock {
    fn charge(&self, slot: &AtomicU64, start: Instant, failed: bool) {
        slot.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn total_ns(&self) -> u64 {
        self.write_ns.load(Ordering::Relaxed)
            + self.flush_ns.load(Ordering::Relaxed)
            + self.seal_ns.load(Ordering::Relaxed)
    }

    /// Seconds spent in `put_step` and `put_window`.
    pub fn write_s(&self) -> f64 {
        secs(self.write_ns.load(Ordering::Relaxed))
    }

    /// Seconds spent in `flush`.
    pub fn flush_s(&self) -> f64 {
        secs(self.flush_ns.load(Ordering::Relaxed))
    }

    /// Seconds spent in `seal`.
    pub fn seal_s(&self) -> f64 {
        secs(self.seal_ns.load(Ordering::Relaxed))
    }

    /// Write, flush and seal calls made.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Calls that returned an error to the profiler.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// A [`RecordStore`] that times every call into `inner`.
pub struct TimingStore<S> {
    inner: S,
    clock: Arc<StoreClock>,
}

impl<S> TimingStore<S> {
    /// Wraps `inner`, charging its time to `clock`.
    pub fn new(inner: S, clock: Arc<StoreClock>) -> Self {
        TimingStore { inner, clock }
    }
}

impl<S: RecordStore> RecordStore for TimingStore<S> {
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.put_step(record);
        self.clock
            .charge(&self.clock.write_ns, start, result.is_err());
        result
    }

    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.put_window(record);
        self.clock
            .charge(&self.clock.write_ns, start, result.is_err());
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.flush();
        self.clock
            .charge(&self.clock.flush_ns, start, result.is_err());
        result
    }

    fn seal(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.seal();
        self.clock
            .charge(&self.clock.seal_ns, start, result.is_err());
        result
    }

    fn set_meta(&mut self, model: &str, dataset: &str) {
        self.inner.set_meta(model, dataset);
    }

    fn set_catalog(&mut self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
        self.inner.set_catalog(names, uses_mxu, on_host);
    }

    fn use_registry(&mut self, metrics: &tpupoint::obs::Metrics) {
        self.inner.use_registry(metrics);
    }
}

/// A [`TraceSink`] that times every callback into `inner`, minus the
/// store time nested inside it.
pub struct TimingSink<S> {
    inner: S,
    store: Arc<StoreClock>,
    callbacks_ns: u64,
    self_ns: u64,
}

impl<S> TimingSink<S> {
    /// Wraps `inner`; `store` is the clock of the store beneath it.
    pub fn new(inner: S, store: Arc<StoreClock>) -> Self {
        TimingSink {
            inner,
            store,
            callbacks_ns: 0,
            self_ns: 0,
        }
    }

    fn timed(&mut self, call: impl FnOnce(&mut S)) {
        let nested_before = self.store.total_ns();
        let start = Instant::now();
        call(&mut self.inner);
        let elapsed = start.elapsed().as_nanos() as u64;
        let nested = self.store.total_ns() - nested_before;
        self.callbacks_ns += elapsed;
        self.self_ns += elapsed.saturating_sub(nested);
    }
}

impl<S: TraceSink> TraceSink for TimingSink<S> {
    fn record(&mut self, event: &TraceEvent) {
        self.timed(|inner| inner.record(event));
    }

    fn on_step(&mut self, step: u64, at: SimTime) {
        self.timed(|inner| inner.on_step(step, at));
    }

    fn on_checkpoint(&mut self, step: u64, at: SimTime) {
        self.timed(|inner| inner.on_checkpoint(step, at));
    }
}

/// Counts the events of a simulation and discards them.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Events recorded so far.
    pub events: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, _event: &TraceEvent) {
        self.events += 1;
    }
}

/// Runs each config's simulation alone into a [`CountingSink`] and files
/// the simcore-layer metrics; returns the summed wall time and events.
pub fn simcore_layers<'a>(
    configs: impl IntoIterator<Item = &'a JobConfig>,
    layers: &mut Layers,
) -> (f64, u64) {
    let (mut sim_s, mut events) = (0.0, 0u64);
    for config in configs {
        let mut sink = CountingSink::default();
        let job = TrainingJob::new(config.clone());
        let start = Instant::now();
        job.run(&mut sink);
        sim_s += start.elapsed().as_secs_f64();
        events += sink.events;
    }
    layers.insert("simcore.run_s", sim_s);
    layers.insert("simcore.events", events as f64);
    layers.insert("simcore.events_per_s", ratio(events as f64, sim_s));
    (sim_s, events)
}

/// Per-layer times of one traced batch profile.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileTimes {
    /// `TrainingJob::run` wall, sink callbacks included.
    pub run_s: f64,
    /// Time inside sink callbacks, nested store calls included.
    pub callbacks_s: f64,
    /// Sink self time: callbacks minus the store calls nested in them.
    pub sink_s: f64,
    /// `ProfilerSink::finish` self time: the drain barrier, minus the
    /// store calls it makes.
    pub finish_s: f64,
}

/// Profiles `config` exactly as `TpuPoint::profile` does with default
/// options in analyzer mode — JSONL store under `records_dir`, retry
/// decorator, serial store lane — with timing wrappers around the sink
/// and the store.
///
/// # Errors
///
/// Returns an error when the record store cannot be created.
pub fn profile_traced(
    mut config: JobConfig,
    records_dir: &Path,
    clock: &Arc<StoreClock>,
) -> io::Result<(RunReport, Profile, ProfileTimes)> {
    config.host_overhead_frac += PROFILING_OVERHEAD_FRAC;
    let job = TrainingJob::new(config);
    let store = RetryStore::with_policy(
        JsonlStore::create(records_dir)?,
        RetryPolicy {
            sleep_backoff: false,
            ..RetryPolicy::default()
        },
    );
    let store = TimingStore::new(store, Arc::clone(clock));
    let mut sink = ProfilerSink::with_store(
        job.catalog().clone(),
        ProfilerOptions::default(),
        Box::new(store),
    );
    sink.set_source(&job.config().model, &job.config().dataset.name);
    let mut timed = TimingSink::new(sink, Arc::clone(clock));
    let start = Instant::now();
    let report = job.run(&mut timed);
    let run_s = start.elapsed().as_secs_f64();
    let store_before = clock.total_ns();
    let start = Instant::now();
    let profile = timed.inner.finish();
    let finish_ns = start.elapsed().as_nanos() as u64;
    let finish_store_ns = clock.total_ns() - store_before;
    let times = ProfileTimes {
        run_s,
        callbacks_s: secs(timed.callbacks_ns),
        sink_s: secs(timed.self_ns),
        finish_s: secs(finish_ns.saturating_sub(finish_store_ns)),
    };
    Ok((report, profile, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint::hw::TpuGeneration;
    use tpupoint::workloads::{build, BuildOptions, WorkloadId};
    use tpupoint::TpuPoint;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench-work")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn traced_chain_writes_the_same_records_and_profile_as_the_facade() {
        let dir = scratch("passthrough");
        for id in [WorkloadId::DcganMnist, WorkloadId::BertMrpc] {
            let config = build(
                id,
                TpuGeneration::V2,
                &BuildOptions {
                    scale: id.default_sim_scale() * 0.25,
                    seed: 7,
                    ..BuildOptions::default()
                },
            );
            let plain_dir = dir.join(format!("{id:?}-plain"));
            let plain = TpuPoint::builder()
                .analyzer(true)
                .output_dir(&plain_dir)
                .build()
                .profile(config.clone())
                .expect("facade profile");
            let clock = Arc::new(StoreClock::default());
            let traced_records = dir.join(format!("{id:?}-traced"));
            let (report, profile, times) =
                profile_traced(config, &traced_records, &clock).expect("traced profile");
            assert_eq!(report, plain.report);
            assert_eq!(profile, plain.profile);
            for file in ["steps.jsonl", "windows.jsonl", "manifest.json"] {
                let a = std::fs::read(plain_dir.join("records").join(file)).expect("plain file");
                let b = std::fs::read(traced_records.join(file)).expect("traced file");
                assert!(a == b, "{file} differs for {id:?}");
            }
            assert!(clock.ops() > 0 && clock.errors() == 0);
            assert!(times.sink_s > 0.0 && times.sink_s <= times.callbacks_s);
            assert!(times.callbacks_s <= times.run_s);
        }
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn timing_sink_forwards_every_event() {
        let config = build(
            WorkloadId::DcganMnist,
            TpuGeneration::V2,
            &BuildOptions {
                scale: 0.01,
                ..BuildOptions::default()
            },
        );
        let mut counter = CountingSink::default();
        let bare = TrainingJob::new(config.clone()).run(&mut counter);
        let mut timed = TimingSink::new(CountingSink::default(), Arc::default());
        let wrapped = TrainingJob::new(config).run(&mut timed);
        assert_eq!(bare, wrapped);
        assert_eq!(counter.events, timed.inner.events);
    }
}
