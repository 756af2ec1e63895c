//! `fleet`: live multi-tenant mode. A backlog of jobs goes in over
//! `POST /jobs`, one tenant each, while an open-loop client scrapes
//! `GET /metrics` (and every tenth request `GET /phases`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tpupoint::analyzer::{replay, StreamingConfig};
use tpupoint::hw::TpuGeneration;
use tpupoint::profiler::recover_records;
use tpupoint::runtime::{FleetLimits, JobConfig, JobPhase};
use tpupoint::workloads::{build, BuildOptions, WorkloadId};
use tpupoint::{FleetSession, TpuPoint};

use crate::digest::{self, Digest};
use crate::ledger::{reset_peaks, run_passes, since, Ctx, Layers, Ledger};
use crate::obsload::{bucket_quantile, duplicate_type_headers, obs_layers, samples, Counters};
use crate::scrape::{open_loop, request, ScrapePlan};
use crate::stats::{median, ratio};
use crate::timing::simcore_layers;

/// The backlog: three paper workloads at a quarter of their default
/// simulation scale, mixed so neighbouring jobs differ.
const JOBS: [WorkloadId; 8] = [
    WorkloadId::DcganMnist,
    WorkloadId::BertMrpc,
    WorkloadId::QanetSquad,
    WorkloadId::DcganMnist,
    WorkloadId::BertMrpc,
    WorkloadId::QanetSquad,
    WorkloadId::DcganMnist,
    WorkloadId::BertMrpc,
];
const SCALE_FACTOR: f64 = 0.25;

const PLAN: ScrapePlan = ScrapePlan {
    interval: Duration::from_millis(10),
    phases_every: 10,
};

/// One backlog job: what is posted, and the config the server builds
/// from it.
struct Job {
    id: String,
    body: String,
    config: JobConfig,
}

fn jobs(seed: u64) -> Vec<Job> {
    JOBS.iter()
        .enumerate()
        .map(|(i, &workload)| {
            let scale = workload.default_sim_scale() * SCALE_FACTOR;
            let seed = seed.wrapping_add(i as u64);
            let id = format!("job-{i}");
            let body = format!(
                "{{\"workload\": \"{}\", \"id\": \"{id}\", \"tenant\": \"tenant-{i}\", \
                 \"scale\": {scale}, \"seed\": {seed}}}",
                workload.label().to_ascii_lowercase()
            );
            let options = BuildOptions {
                scale,
                seed,
                ..BuildOptions::default()
            };
            let config = build(workload, TpuGeneration::V2, &options);
            Job { id, body, config }
        })
        .collect()
}

/// Jobs allowed to run at once: all cores but the one the load
/// generator and the scrape plane need.
fn running_limit() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .saturating_sub(1)
        .max(1)
}

/// Runs the workload and fills `ledger`.
///
/// # Errors
///
/// Returns an error when the work directory cannot be managed.
pub fn run(ctx: &Ctx, ledger: &mut Ledger) -> std::io::Result<()> {
    // Record digests of every job in every pass, checked against solo
    // profiles once the timed passes are over.
    let mut fleet_digests: Vec<Vec<Option<String>>> = Vec::new();
    run_passes(ctx, ledger, 2, |dir, traced, ledger| {
        let start = Instant::now();
        let jobs = jobs(ctx.seed);
        let root = dir.join("fleet");
        let session = TpuPoint::builder()
            .analyzer(true)
            .output_dir(&root)
            .serve("127.0.0.1:0")
            .serve_pace_us(0)
            .fleet_limits(FleetLimits {
                max_running: running_limit(),
                ..FleetLimits::default()
            })
            .build()
            .serve_fleet();
        ledger.setup_s.push(since(start));
        let Some(session) = ledger.op("serve_fleet", session) else {
            return;
        };
        fleet_digests.push(pass(session, &jobs, &root, traced, ledger));
    })?;

    let reference = ctx.work.join("solo");
    let configs: Vec<JobConfig> = jobs(ctx.seed).into_iter().map(|job| job.config).collect();
    let solo = if ctx.trace {
        // The same configs one after another through the batch facade on
        // the pipelined lane, the fleet's own store lane.
        let start = Instant::now();
        let solo = solo_chain(&configs, &reference, true);
        let solo_s = since(start);
        ledger.run_layers.insert("fleet.solo_chain_s", solo_s);
        ledger
            .run_layers
            .insert("fleet.vs_solo_x", ratio(median(&ledger.wall_s), solo_s));
        solo
    } else {
        solo_chain(&configs, &reference, false)
    };
    for digests in &fleet_digests {
        for (i, fleet) in digests.iter().enumerate() {
            let solo = solo.get(i).cloned().flatten();
            ledger.check(fleet.is_some() && *fleet == solo, || {
                format!("job-{i}: fleet records {fleet:?} differ from solo {solo:?}")
            });
        }
    }
    std::fs::remove_dir_all(&reference)
}

/// Profiles each config alone; returns the digest of each one's records.
fn solo_chain(configs: &[JobConfig], root: &Path, pipelined: bool) -> Vec<Option<String>> {
    configs
        .iter()
        .enumerate()
        .map(|(i, config)| {
            let dir = root.join(format!("job-{i}"));
            TpuPoint::builder()
                .analyzer(true)
                .output_dir(&dir)
                .pipeline_profiler(pipelined)
                .build()
                .profile(config.clone())
                .ok()?;
            records_digest(&dir.join("records"))
        })
        .collect()
}

fn records_digest(records: &Path) -> Option<String> {
    let mut digest = Digest::default();
    digest::records(&mut digest, records).ok()?;
    Some(digest.hex())
}

fn job_records(root: &Path, id: &str) -> PathBuf {
    root.join("jobs").join(id).join("records")
}

/// One pass over a bound session: submit the backlog, scrape until every
/// job settles, then shut down and check the outputs. Returns the digest
/// of each job's records.
fn pass(
    session: FleetSession,
    jobs: &[Job],
    root: &Path,
    traced: bool,
    ledger: &mut Ledger,
) -> Vec<Option<String>> {
    let mut layers = Layers::new();
    if traced {
        simcore_layers(jobs.iter().map(|job| &job.config), &mut layers);
    }
    let addr = session.addr();
    let stop = AtomicBool::new(false);
    let render = || session.scrape();
    let before = Counters::read();
    reset_peaks();
    let mut admit_ms = Vec::new();
    let (wall, wait_s, log) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let render: &(dyn Fn() -> String + Sync) = &render;
            open_loop(addr, PLAN, &stop, traced.then_some(render))
        });
        let start = Instant::now();
        for job in jobs {
            let t = Instant::now();
            let response = request(addr, "POST", "/jobs", &job.body);
            admit_ms.push(since(t) * 1e3);
            let status = ledger.op("POST /jobs", response).map(|(status, _)| status);
            ledger.check(status == Some(201), || {
                format!("{}: admission answered {status:?}", job.id)
            });
        }
        let t = Instant::now();
        session.wait_jobs_idle();
        let wait_s = since(t);
        let wall = since(start);
        stop.store(true, Ordering::SeqCst);
        (
            wall,
            wait_s,
            scraper.join().expect("scraper thread panicked"),
        )
    });
    let delta = Counters::read().since(&before);
    if traced {
        ledger.traced_wall_s.push(wall);
        let admit_s: f64 = admit_ms.iter().sum::<f64>() / 1e3;
        layers.insert("fleet.admit_ms", median(&admit_ms));
        layers.insert("fleet.snapshot_publishes", delta.snapshot_publishes as f64);
        layers.insert("par.tasks", delta.par_tasks as f64);
        layers.insert("par.steals", delta.par_steals as f64);
        // The benchmark thread spends the pass in two fleet calls:
        // admission, and the wait for the backlog to drain.
        layers.insert("unattributed_s", wall - admit_s - wait_s);
        obs_layers(&log, &mut layers, ledger);
    } else {
        ledger.wall_s.push(wall);
        ledger.record_peaks();
        ledger.add_scrapes(log);
    }

    session.request_quit();
    let statuses = ledger
        .op("fleet shutdown", session.wait())
        .unwrap_or_default();
    ledger.check(statuses.len() == jobs.len(), || {
        format!("{} of {} jobs listed", statuses.len(), jobs.len())
    });
    for status in &statuses {
        ledger.check(status.phase == JobPhase::Completed, || {
            format!("{} ended {:?}: {:?}", status.id, status.phase, status.error)
        });
    }
    let scrape = std::fs::read_to_string(root.join("metrics.prom"));
    if let Some(scrape) = ledger.op("final scrape", scrape) {
        let duplicates = duplicate_type_headers(&scrape);
        ledger.check(duplicates.is_empty(), || {
            format!("families with several # TYPE headers: {duplicates:?}")
        });
        if traced {
            pipeline_layers(&scrape, &mut layers);
        }
    }
    if traced {
        stream_layers(jobs, root, &mut layers);
        ledger.layers.push(layers);
    }
    jobs.iter()
        .map(|job| records_digest(&job_records(root, &job.id)))
        .collect()
}

/// Seal-pipeline figures of every job, from its series in the final
/// scrape (the `job="fleet"` aggregate and the unlabeled process series
/// are skipped).
fn pipeline_layers(scrape: &str, layers: &mut Layers) {
    let mut buckets = std::collections::BTreeMap::<u64, f64>::new();
    let (mut waits, mut sealed) = (0.0, 0.0);
    for sample in samples(scrape) {
        let Some(job) = sample.label("job") else {
            continue;
        };
        if job == "fleet" {
            continue;
        }
        match sample.name {
            "tpupoint_profiler_seal_latency_us_bucket" => {
                if let Some(le) = sample.label("le").and_then(|le| le.parse::<u64>().ok()) {
                    *buckets.entry(le).or_default() += sample.value;
                }
            }
            "tpupoint_profiler_seal_backpressure_waits" => waits += sample.value,
            "tpupoint_profiler_windows_sealed" => sealed += sample.value,
            _ => {}
        }
    }
    let cumulative: Vec<(f64, f64)> = buckets
        .into_iter()
        .map(|(le, count)| (le as f64, count))
        .collect();
    layers.insert(
        "pipeline.seal_latency_p50_us",
        bucket_quantile(&cumulative, 0.5),
    );
    layers.insert("pipeline.backpressure_waits", waits);
    layers.insert("pipeline.windows_sealed", sealed);
}

/// The streaming analyzer alone: each job's recorded profile replayed
/// through `analyzer::replay`.
fn stream_layers(jobs: &[Job], root: &Path, layers: &mut Layers) {
    let (mut updates, mut replay_s) = (0u64, 0.0);
    for job in jobs {
        let Ok(summary) = recover_records(&job_records(root, &job.id)) else {
            continue;
        };
        let profile = summary.to_profile();
        let start = Instant::now();
        let replayed = replay(&profile, StreamingConfig::default());
        replay_s += since(start);
        updates += replayed.chunks;
    }
    layers.insert("stream.updates", updates as f64);
    layers.insert("stream.update_ms", ratio(replay_s * 1e3, updates as f64));
}
