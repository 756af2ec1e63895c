//! `optimize`: TPUPoint-Optimizer on all nine paper workloads, each in
//! its naive and its tuned pipeline variant.

use std::time::Instant;

use tpupoint::hw::TpuGeneration;
use tpupoint::runtime::JobConfig;
use tpupoint::workloads::{build, BuildOptions, Variant, WorkloadId};
use tpupoint::TpuPoint;

use crate::digest::{self, Digest};
use crate::ledger::{reset_peaks, run_passes, since, Ctx, Layers, Ledger};
use crate::obsload::{obs_layers, Counters, RegistryScraper};
use crate::stats::ratio;
use crate::timing::simcore_layers;

fn configs(seed: u64) -> Vec<JobConfig> {
    WorkloadId::paper_nine()
        .into_iter()
        .flat_map(|id| {
            [Variant::Naive, Variant::Tuned].map(|variant| {
                build(
                    id,
                    TpuGeneration::V2,
                    &BuildOptions {
                        scale: id.default_sim_scale(),
                        seed,
                        variant,
                        ..BuildOptions::default()
                    },
                )
            })
        })
        .collect()
}

/// Runs the workload and fills `ledger`.
///
/// # Errors
///
/// Returns an error when the work directory cannot be managed.
pub fn run(ctx: &Ctx, ledger: &mut Ledger) -> std::io::Result<()> {
    let scraper = RegistryScraper::bind()?;
    let recorded = digest::recorded("optimize", ctx.seed);
    run_passes(ctx, ledger, 3, |_, traced, ledger| {
        let start = Instant::now();
        let configs = configs(ctx.seed);
        let tp = TpuPoint::builder().build();
        ledger.setup_s.push(since(start));

        let mut layers = Layers::new();
        if traced {
            simcore_layers(&configs, &mut layers);
            tpupoint::obs::tracer().drain();
            tpupoint::obs::tracer().enable();
        }
        let scrape = scraper.start(traced);
        let before = Counters::read();
        reset_peaks();
        let start = Instant::now();
        let mut optimize_s = 0.0;
        let mut reports = Vec::with_capacity(configs.len());
        for config in configs {
            let t = Instant::now();
            reports.push(tp.optimize(config));
            optimize_s += since(t);
        }
        let wall = since(start);

        if traced {
            let spans = tpupoint::obs::tracer().drain();
            tpupoint::obs::tracer().disable();
            let span_s = |name: &str| {
                let durations: Vec<u64> = spans
                    .iter()
                    .filter(|span| span.name == name)
                    .map(|span| span.dur_us)
                    .collect();
                (durations.len(), durations.iter().sum::<u64>() as f64 * 1e-6)
            };
            let (trials, trial_s) = span_s("optimizer.trial");
            let (_, tune_s) = span_s("optimizer.tune");
            let delta = Counters::read().since(&before);
            ledger.traced_wall_s.push(wall);
            layers.insert("optimizer.trials", delta.optimizer_trials as f64);
            layers.insert("optimizer.trial_ms", ratio(trial_s * 1e3, trials as f64));
            layers.insert("optimizer.tune_s", tune_s);
            layers.insert("optimizer.verify_s", optimize_s - tune_s);
            layers.insert("par.tasks", delta.par_tasks as f64);
            layers.insert("par.steals", delta.par_steals as f64);
            layers.insert("unattributed_s", wall - optimize_s);
            obs_layers(&scrape.finish(), &mut layers, ledger);
            ledger.layers.push(layers);
        } else {
            ledger.wall_s.push(wall);
            ledger.record_peaks();
            ledger.add_scrapes(scrape.finish());
        }

        let mut pass_digest = Digest::default();
        for report in &reports {
            ledger.check(report.output_preserved(), || {
                format!("{}: tuning changed the output", report.baseline.model)
            });
            pass_digest
                .u64(report.trials.len() as u64)
                .f64(report.throughput_speedup());
        }
        let pass_digest = pass_digest.hex();
        ledger.check_digest(recorded, pass_digest);
    })
}
