//! `characterize`: the paper's offline flow — profile in analyzer mode,
//! recover the records, then OLS, the k-means sweep and the DBSCAN sweep
//! — on all nine paper workloads on TPUv2.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tpupoint::analyzer::{Analyzer, AnalyzerOptions, PhaseSet};
use tpupoint::hw::TpuGeneration;
use tpupoint::profiler::{audit_windows, recover_records, Profile, RecoverySummary};
use tpupoint::runtime::JobConfig;
use tpupoint::sim::SimDuration;
use tpupoint::workloads::{build, BuildOptions, WorkloadId};
use tpupoint::TpuPoint;

use crate::digest::{self, Digest};
use crate::ledger::{reset_peaks, run_passes, since, Ctx, Layers, Ledger};
use crate::obsload::{self, Counters, RegistryScraper};
use crate::stats::ratio;
use crate::timing::{profile_traced, simcore_layers, StoreClock};

const OLS_THRESHOLD: f64 = 0.7;

/// One paper workload of a pass: its config and output directory.
struct Item {
    id: WorkloadId,
    config: JobConfig,
    dir: PathBuf,
}

/// What the analyzer produced for one workload.
struct Analysis {
    ols: PhaseSet,
    kmeans: Vec<(usize, f64)>,
    dbscan: Vec<(usize, f64, usize)>,
}

/// Runs the workload and fills `ledger`.
///
/// # Errors
///
/// Returns an error when the work directory cannot be managed.
pub fn run(ctx: &Ctx, ledger: &mut Ledger) -> std::io::Result<()> {
    let scraper = RegistryScraper::bind()?;
    let recorded = digest::recorded("characterize", ctx.seed);
    run_passes(ctx, ledger, 3, |dir, traced, ledger| {
        let start = Instant::now();
        let items = setup(ctx.seed, dir);
        ledger.setup_s.push(since(start));
        let Some(items) = items else {
            ledger.check(false, || "set-up".to_owned());
            return;
        };
        let pass_digest = if traced {
            traced_pass(&items, &scraper, ledger)
        } else {
            untraced_pass(&items, &scraper, ledger)
        };
        let pass_digest = pass_digest.hex();
        ledger.check_digest(recorded, pass_digest);
    })
}

fn setup(seed: u64, dir: &Path) -> Option<Vec<Item>> {
    WorkloadId::paper_nine()
        .into_iter()
        .map(|id| {
            let config = build(
                id,
                TpuGeneration::V2,
                &BuildOptions {
                    scale: id.default_sim_scale(),
                    seed,
                    ..BuildOptions::default()
                },
            );
            let dir = dir.join(id.label().to_ascii_lowercase());
            std::fs::create_dir_all(&dir).ok()?;
            Some(Item { id, config, dir })
        })
        .collect()
}

/// The `analyze --recover` path over a record directory.
fn recover(records: &Path, ledger: &mut Ledger) -> Option<RecoverySummary> {
    ledger.op("recover_records", recover_records(records))
}

fn analyze(profile: &Profile, ledger: &mut Ledger) -> Option<Analysis> {
    let analyzer = Analyzer::with_options(profile, AnalyzerOptions::default());
    let ols = analyzer.ols_phases(OLS_THRESHOLD);
    let kmeans = analyzer.kmeans_sweep(1..=15);
    let dbscan = ledger.op(
        "dbscan_sweep",
        analyzer.dbscan_sweep().map_err(std::io::Error::other),
    )?;
    Some(Analysis {
        ols,
        kmeans,
        dbscan,
    })
}

fn untraced_pass(items: &[Item], scraper: &RegistryScraper, ledger: &mut Ledger) -> Digest {
    let mut pass_digest = Digest::default();
    let scrape = scraper.start(false);
    reset_peaks();
    let start = Instant::now();
    let mut checking = 0.0;
    for item in items {
        let tp = TpuPoint::builder()
            .analyzer(true)
            .output_dir(&item.dir)
            .build();
        let Some(run) = ledger.op("profile", tp.profile(item.config.clone())) else {
            continue;
        };
        let records = item.dir.join("records");
        let Some(summary) = recover(&records, ledger) else {
            continue;
        };
        let profile = summary.to_profile();
        let analysis = analyze(&profile, ledger);
        let t = Instant::now();
        check_item(
            item,
            &run.profile,
            &summary,
            analysis.as_ref(),
            &mut pass_digest,
            ledger,
        );
        checking += since(t);
    }
    ledger.wall_s.push(since(start) - checking);
    ledger.record_peaks();
    ledger.add_scrapes(scrape.finish());
    pass_digest
}

fn traced_pass(items: &[Item], scraper: &RegistryScraper, ledger: &mut Ledger) -> Digest {
    let mut layers = Layers::new();
    // The simulator alone, outside the traced wall.
    let (sim_s, events) = simcore_layers(items.iter().map(|item| &item.config), &mut layers);

    let mut pass_digest = Digest::default();
    let scrape = scraper.start(true);
    let before = Counters::read();
    let clock = Arc::new(StoreClock::default());
    let (mut sim_in_run, mut sink_s, mut finish_s, mut recover_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut features_s, mut ols_s, mut kmeans_s, mut dbscan_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut overlaps, mut bytes, mut steps, mut recovered) = (0usize, 0u64, 0usize, 0usize);
    let mut checking = 0.0;
    let start = Instant::now();
    for item in items {
        let records = item.dir.join("records");
        let traced = profile_traced(item.config.clone(), &records, &clock);
        let Some((_, profile, times)) = ledger.op("profile", traced) else {
            continue;
        };
        sim_in_run += times.run_s - times.callbacks_s;
        sink_s += times.sink_s;
        finish_s += times.finish_s;

        let t = Instant::now();
        let summary = recover(&records, ledger);
        let recovered_profile = summary.as_ref().map(RecoverySummary::to_profile);
        recover_s += since(t);
        let (Some(summary), Some(recovered_profile)) = (summary, recovered_profile) else {
            continue;
        };

        let t = Instant::now();
        let analyzer = Analyzer::with_options(&recovered_profile, AnalyzerOptions::default());
        features_s += since(t);
        let t = Instant::now();
        let ols = analyzer.ols_phases(OLS_THRESHOLD);
        ols_s += since(t);
        let t = Instant::now();
        let kmeans = analyzer.kmeans_sweep(1..=15);
        kmeans_s += since(t);
        let t = Instant::now();
        let dbscan = analyzer.dbscan_sweep().map_err(std::io::Error::other);
        dbscan_s += since(t);
        let dbscan = ledger.op("dbscan_sweep", dbscan);

        let t = Instant::now();
        let analysis = dbscan.map(|dbscan| Analysis {
            ols,
            kmeans,
            dbscan,
        });
        check_item(
            item,
            &profile,
            &summary,
            analysis.as_ref(),
            &mut pass_digest,
            ledger,
        );
        overlaps += audit_windows(&profile.windows, SimDuration::from_millis(1))
            .overlaps
            .len();
        bytes += obsload::dir_bytes(&records);
        steps += summary.steps.len();
        recovered += summary.steps.len() + summary.windows.len();
        checking += since(t);
    }
    let wall = since(start) - checking;
    let delta = Counters::read().since(&before);
    let store_s = clock.write_s() + clock.flush_s() + clock.seal_s();
    let analyzer_s = features_s + ols_s + kmeans_s + dbscan_s;
    let attributed = sim_in_run + sink_s + store_s + finish_s + recover_s + analyzer_s;
    ledger.traced_wall_s.push(wall);

    layers.insert("profiler.sink_s", sink_s);
    layers.insert("profiler.ns_per_event", ratio(sink_s * 1e9, events as f64));
    layers.insert("profiler.finish_s", finish_s);
    layers.insert(
        "profiler.overhead_x",
        ratio(sim_s + sink_s + store_s + finish_s, sim_s),
    );
    layers.insert("profiler.audit_overlaps", overlaps as f64);
    layers.insert("store.write_s", clock.write_s());
    layers.insert("store.flush_s", clock.flush_s());
    layers.insert("store.seal_s", clock.seal_s());
    layers.insert("store.ops", clock.ops() as f64);
    layers.insert("store.bytes", bytes as f64);
    layers.insert("store.bytes_per_step", ratio(bytes as f64, steps as f64));
    layers.insert("store.recover_s", recover_s);
    layers.insert(
        "store.recover_records_per_s",
        ratio(recovered as f64, recover_s),
    );
    layers.insert("store.retries", delta.store_retries as f64);
    layers.insert("store.errors", (delta.store_errors + clock.errors()) as f64);
    layers.insert("analyzer.features_s", features_s);
    layers.insert("analyzer.ols_s", ols_s);
    layers.insert("analyzer.kmeans_s", kmeans_s);
    layers.insert("analyzer.dbscan_s", dbscan_s);
    layers.insert("par.tasks", delta.par_tasks as f64);
    layers.insert("par.steals", delta.par_steals as f64);
    layers.insert("unattributed_s", wall - attributed);
    obsload::obs_layers(&scrape.finish(), &mut layers, ledger);
    ledger.layers.push(layers);
    pass_digest
}

/// The output checks of one workload: the recovered records equal the
/// in-memory profile, no acknowledged record is missing, and the records
/// and phase boundaries fold into the pass digest.
fn check_item(
    item: &Item,
    profile: &Profile,
    summary: &RecoverySummary,
    analysis: Option<&Analysis>,
    pass_digest: &mut Digest,
    ledger: &mut Ledger,
) {
    let label = item.id.label();
    ledger.check(
        summary.steps == profile.steps && summary.windows == profile.windows,
        || format!("{label}: recovered records differ from the in-memory profile"),
    );
    let missing = summary.missing_acknowledged();
    ledger.check(missing == (0, 0), || {
        format!("{label}: {missing:?} acknowledged records missing")
    });
    let Some(analysis) = analysis else {
        return;
    };
    let records = ledger.op(
        "read records",
        digest::records(pass_digest, &item.dir.join("records")),
    );
    if records.is_none() {
        return;
    }
    for phase in &analysis.ols.phases {
        pass_digest
            .u64(phase.id as u64)
            .u64(phase.steps.first().copied().unwrap_or(u64::MAX))
            .u64(phase.steps.last().copied().unwrap_or(u64::MAX))
            .u64(phase.steps.len() as u64);
    }
    for &(k, sse) in &analysis.kmeans {
        pass_digest.u64(k as u64).f64(sse);
    }
    for &(min_samples, noise, clusters) in &analysis.dbscan {
        pass_digest
            .u64(min_samples as u64)
            .f64(noise)
            .u64(clusters as u64);
    }
}
