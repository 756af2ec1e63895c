//! The workload suite: every model×dataset pair of the paper's
//! evaluation, buildable as a runnable job config.

use crate::{datasets, models};
use tpupoint_graph::PipelineSpec;
use tpupoint_hw::{HostSpec, TpuChipSpec, TpuGeneration};
use tpupoint_runtime::{DatasetSpec, JobConfig};

/// Pipeline quality of the built job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// Google-engineer-tuned reference pipeline (the public TF TPU models).
    #[default]
    Tuned,
    /// The naive implementation of Section VII-C: single-threaded decode,
    /// minimal buffering, redundant transform passes.
    Naive,
}

/// Options shared by every workload build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildOptions {
    /// Fraction of the paper's training steps to simulate (1.0 = full
    /// length). Eval/checkpoint cadence scales along, so the phase
    /// structure is preserved.
    pub scale: f64,
    /// Pipeline variant.
    pub variant: Variant,
    /// Simulation seed.
    pub seed: u64,
    /// Extra host cost while profiling (see
    /// [`JobConfig::host_overhead_frac`]).
    pub host_overhead_frac: f64,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            scale: 1.0,
            variant: Variant::Tuned,
            seed: 42,
            host_overhead_frac: 0.0,
        }
    }
}

/// Every workload×dataset pair of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadId {
    /// BERT fine-tuning on MRPC.
    BertMrpc,
    /// BERT fine-tuning on SQuAD.
    BertSquad,
    /// BERT fine-tuning on CoLA.
    BertCola,
    /// BERT fine-tuning on MNLI.
    BertMnli,
    /// DCGAN on CIFAR-10.
    DcganCifar10,
    /// DCGAN on MNIST.
    DcganMnist,
    /// QANet on SQuAD.
    QanetSquad,
    /// RetinaNet on COCO.
    RetinanetCoco,
    /// ResNet-50 on ImageNet.
    ResnetImagenet,
    /// QANet on half of SQuAD (Figures 12–13).
    QanetSquadHalf,
    /// RetinaNet on half of COCO (Figures 12–13).
    RetinanetCocoHalf,
    /// ResNet-50 fed CIFAR-10 through the ImageNet pipeline
    /// (Figures 12–13).
    ResnetCifar10,
}

impl WorkloadId {
    /// The nine primary workload×dataset pairs of Table I.
    pub fn paper_nine() -> [WorkloadId; 9] {
        [
            WorkloadId::BertMrpc,
            WorkloadId::BertSquad,
            WorkloadId::BertCola,
            WorkloadId::BertMnli,
            WorkloadId::DcganCifar10,
            WorkloadId::DcganMnist,
            WorkloadId::QanetSquad,
            WorkloadId::RetinanetCoco,
            WorkloadId::ResnetImagenet,
        ]
    }

    /// Every workload, primary and reduced.
    pub fn all() -> [WorkloadId; 12] {
        [
            WorkloadId::BertMrpc,
            WorkloadId::BertSquad,
            WorkloadId::BertCola,
            WorkloadId::BertMnli,
            WorkloadId::DcganCifar10,
            WorkloadId::DcganMnist,
            WorkloadId::QanetSquad,
            WorkloadId::RetinanetCoco,
            WorkloadId::ResnetImagenet,
            WorkloadId::QanetSquadHalf,
            WorkloadId::RetinanetCocoHalf,
            WorkloadId::ResnetCifar10,
        ]
    }

    /// The reduced-dataset runs of Figures 12 and 13.
    pub fn reduced_three() -> [WorkloadId; 3] {
        [
            WorkloadId::QanetSquadHalf,
            WorkloadId::RetinanetCocoHalf,
            WorkloadId::ResnetCifar10,
        ]
    }

    /// Human-readable `Model-Dataset` label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadId::BertMrpc => "BERT-MRPC",
            WorkloadId::BertSquad => "BERT-SQuAD",
            WorkloadId::BertCola => "BERT-CoLA",
            WorkloadId::BertMnli => "BERT-MNLI",
            WorkloadId::DcganCifar10 => "DCGAN-CIFAR10",
            WorkloadId::DcganMnist => "DCGAN-MNIST",
            WorkloadId::QanetSquad => "QANet-SQuAD",
            WorkloadId::RetinanetCoco => "RetinaNet-COCO",
            WorkloadId::ResnetImagenet => "ResNet-ImageNet",
            WorkloadId::QanetSquadHalf => "QANet-SQuAD/2",
            WorkloadId::RetinanetCocoHalf => "RetinaNet-COCO/2",
            WorkloadId::ResnetCifar10 => "ResNet-CIFAR10",
        }
    }

    /// A simulation scale giving runs of roughly 300–1,300 profile steps —
    /// large enough for stable phase statistics, small enough to sweep the
    /// whole suite quickly. Full-length runs use `scale = 1.0`.
    pub fn default_sim_scale(self) -> f64 {
        match self {
            WorkloadId::BertMrpc | WorkloadId::BertCola => 1.0,
            WorkloadId::BertSquad => 0.1,
            WorkloadId::BertMnli => 0.025,
            WorkloadId::DcganCifar10 | WorkloadId::DcganMnist => 0.08,
            WorkloadId::QanetSquad | WorkloadId::QanetSquadHalf => 0.01,
            WorkloadId::RetinanetCoco | WorkloadId::RetinanetCocoHalf => 0.035,
            WorkloadId::ResnetImagenet | WorkloadId::ResnetCifar10 => 0.008,
        }
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Error for unknown workload names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError(String);

impl std::fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown workload `{}`; known: {}",
            self.0,
            WorkloadId::all()
                .iter()
                .map(|w| w.label().to_ascii_lowercase())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for ParseWorkloadError {}

impl std::str::FromStr for WorkloadId {
    type Err = ParseWorkloadError;

    /// Accepts the figure labels case-insensitively, e.g. `bert-mrpc`,
    /// `resnet-imagenet`, `qanet-squad/2`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let needle = s.to_ascii_lowercase();
        WorkloadId::all()
            .iter()
            .find(|w| w.label().to_ascii_lowercase() == needle)
            .copied()
            .ok_or_else(|| ParseWorkloadError(s.to_owned()))
    }
}

struct Schedule {
    train_steps: u64,
    iterations_per_loop: u64,
    steps_per_eval: Option<u64>,
    eval_steps: u64,
    checkpoint_every: u64,
    warmup_steps: u64,
    substitution_prob: f64,
    /// Calibration multiplier on host preparation cost (see DESIGN.md).
    host_cost_factor: f64,
    /// Fixed per-batch host pipeline work, single-thread microseconds.
    host_us_per_batch: f64,
    /// Achievable MXU efficiency for this workload's op shapes.
    mxu_efficiency: f64,
}

fn scaled(value: u64, scale: f64) -> u64 {
    ((value as f64 * scale).round() as u64).max(1)
}

/// Builds a runnable job config for a workload on a TPU generation.
pub fn build(id: WorkloadId, generation: TpuGeneration, opts: &BuildOptions) -> JobConfig {
    assert!(
        opts.scale > 0.0 && opts.scale <= 1.0,
        "scale must be in (0, 1]"
    );
    let (model_name, dataset, batch, train_graph, eval_graph, sched) = definition(id);
    let s = opts.scale;
    let pipeline = match opts.variant {
        Variant::Tuned => PipelineSpec::tuned_default(batch),
        Variant::Naive => PipelineSpec::naive(batch),
    };
    let mut chip = TpuChipSpec::for_generation(generation);
    chip.mxu_efficiency = sched.mxu_efficiency;
    // TPUv3 doubles the MXUs but the workloads keep their TPUv2 batch
    // sizes, so each MXU sees half the work and per-MXU efficiency drops;
    // the paper observes that "we did not observe performance gains ...
    // for TPUv3" (Section VII-C). A 0.55 derating yields the paper's
    // ~1.1x effective speedup and the halved MXU utilization of Fig. 11.
    if generation == TpuGeneration::V3 {
        chip.mxu_efficiency *= 0.55;
    }
    JobConfig {
        model: model_name,
        train_graph,
        eval_graph,
        pipeline,
        dataset,
        chip,
        host: HostSpec::skylake_n1(),
        train_steps: scaled(sched.train_steps, s),
        // The loop cadence scales with the run so scaled runs keep the
        // same *number* of loop boundaries (distinct step behaviour) as
        // full-length ones. At least two, even when a tiny scale leaves
        // fewer training steps than that.
        iterations_per_loop: scaled(sched.iterations_per_loop, s)
            .min(scaled(sched.train_steps, s))
            .max(2),
        steps_per_eval: sched.steps_per_eval.map(|v| scaled(v, s)),
        // Eval segments keep their full length: evaluation passes cost the
        // same regardless of how much training is simulated.
        eval_steps: sched.eval_steps.clamp(2, 400),
        checkpoint_every: scaled(sched.checkpoint_every, s),
        warmup_steps: sched.warmup_steps,
        seed: opts.seed,
        jitter_sigma: 0.03,
        substitution_prob: sched.substitution_prob,
        host_overhead_frac: opts.host_overhead_frac,
    }
}

#[allow(clippy::type_complexity)]
fn definition(
    id: WorkloadId,
) -> (
    String,
    DatasetSpec,
    u64,
    tpupoint_graph::Graph,
    tpupoint_graph::Graph,
    Schedule,
) {
    let bert = |dataset: DatasetSpec, host_us_per_batch: f64, mxu_efficiency: f64| {
        let epochs = 3;
        let batch = 32;
        let train_steps = dataset.num_examples * epochs / batch;
        (
            "BERT".to_owned(),
            dataset.clone(),
            batch,
            models::bert::train_graph(batch, 128),
            models::bert::eval_graph(batch, 128),
            Schedule {
                train_steps,
                iterations_per_loop: 100,
                steps_per_eval: None,
                eval_steps: (dataset.num_examples / 10 / batch).clamp(8, 400),
                checkpoint_every: 1_000,
                warmup_steps: 8,
                substitution_prob: 0.003,
                host_cost_factor: 1.0,
                host_us_per_batch,
                mxu_efficiency,
            },
        )
    };
    match id {
        WorkloadId::BertMrpc => bert(datasets::mrpc(), 289_270.0, 0.307),
        WorkloadId::BertSquad => bert(datasets::squad(), 271_330.0, 0.337),
        WorkloadId::BertCola => bert(datasets::cola(), 330_100.0, 0.300),
        WorkloadId::BertMnli => bert(datasets::mnli(), 272_170.0, 0.337),
        WorkloadId::DcganCifar10 | WorkloadId::DcganMnist => {
            let dataset = if id == WorkloadId::DcganCifar10 {
                datasets::cifar10()
            } else {
                datasets::mnist()
            };
            let (host_us_per_batch, dcgan_eff) = if id == WorkloadId::DcganCifar10 {
                (143_040.0, 0.249)
            } else {
                (201_700.0, 0.230)
            };
            let batch = 1024;
            (
                "DCGAN".to_owned(),
                dataset,
                batch,
                models::dcgan::train_graph(batch),
                models::dcgan::eval_graph(batch),
                Schedule {
                    train_steps: 10_000,
                    iterations_per_loop: 100,
                    steps_per_eval: Some(1_000),
                    eval_steps: 40,
                    checkpoint_every: 1_000,
                    warmup_steps: 8,
                    substitution_prob: 0.002,
                    host_cost_factor: 1.0,
                    host_us_per_batch,
                    mxu_efficiency: dcgan_eff,
                },
            )
        }
        WorkloadId::QanetSquad | WorkloadId::QanetSquadHalf => {
            let dataset = if id == WorkloadId::QanetSquad {
                datasets::squad()
            } else {
                datasets::squad().reduced(0.5)
            };
            let batch = 32;
            (
                "QANet".to_owned(),
                dataset,
                batch,
                models::qanet::train_graph(batch),
                models::qanet::eval_graph(batch),
                Schedule {
                    train_steps: 100_000,
                    iterations_per_loop: 100,
                    steps_per_eval: Some(20_000),
                    eval_steps: 200,
                    checkpoint_every: 5_000,
                    warmup_steps: 8,
                    substitution_prob: 0.0012,
                    host_cost_factor: 1.0,
                    host_us_per_batch: 32_320.0,
                    mxu_efficiency: 0.263,
                },
            )
        }
        WorkloadId::RetinanetCoco | WorkloadId::RetinanetCocoHalf => {
            let dataset = if id == WorkloadId::RetinanetCoco {
                datasets::coco()
            } else {
                datasets::coco().reduced(0.5)
            };
            let batch = 64;
            let steps_per_epoch = 120_000 / batch;
            (
                "RetinaNet".to_owned(),
                dataset,
                batch,
                models::retinanet::train_graph(batch, 640),
                models::retinanet::eval_graph(batch, 640),
                Schedule {
                    train_steps: steps_per_epoch * 15,
                    iterations_per_loop: 100,
                    steps_per_eval: Some(steps_per_epoch),
                    eval_steps: 60,
                    checkpoint_every: steps_per_epoch,
                    warmup_steps: 8,
                    substitution_prob: 0.03,
                    host_cost_factor: 1.2,
                    host_us_per_batch: 180_750.0,
                    mxu_efficiency: 0.807,
                },
            )
        }
        WorkloadId::ResnetImagenet | WorkloadId::ResnetCifar10 => {
            // CIFAR-10 flows through the same input methodology but its
            // 32x32 images shrink the per-step compute ~50x, so the host
            // becomes the bottleneck — the paper's "greatest change"
            // workload in Figures 12-13.
            let (dataset, image, host_us) = if id == WorkloadId::ResnetImagenet {
                (datasets::imagenet(), 224, 4_305_530.0)
            } else {
                // CIFAR-10 records are ~40x smaller, so per-batch parsing
                // is far cheaper even through the same methodology.
                (datasets::cifar10(), 32, 215_000.0)
            };
            let batch = 1024;
            (
                "ResNet-50".to_owned(),
                dataset,
                batch,
                models::resnet::train_graph(batch, image),
                models::resnet::eval_graph(batch, image),
                Schedule {
                    train_steps: 112_590,
                    iterations_per_loop: 100,
                    steps_per_eval: Some(6_255),
                    eval_steps: 48,
                    checkpoint_every: 6_255,
                    warmup_steps: 8,
                    substitution_prob: 0.02,
                    host_cost_factor: 0.9,
                    host_us_per_batch: host_us,
                    mxu_efficiency: 0.669,
                },
            )
        }
    }
    .into_with_factor()
}

/// Helper trait gluing the per-model closures' output with the dataset's
/// calibration factor.
trait IntoWithFactor {
    #[allow(clippy::type_complexity)]
    fn into_with_factor(
        self,
    ) -> (
        String,
        DatasetSpec,
        u64,
        tpupoint_graph::Graph,
        tpupoint_graph::Graph,
        Schedule,
    );
}

impl IntoWithFactor
    for (
        String,
        DatasetSpec,
        u64,
        tpupoint_graph::Graph,
        tpupoint_graph::Graph,
        Schedule,
    )
{
    fn into_with_factor(self) -> Self {
        let (name, mut dataset, batch, train, eval, sched) = self;
        dataset.host_cost_factor = sched.host_cost_factor;
        dataset.host_us_per_batch = sched.host_us_per_batch;
        (name, dataset, batch, train, eval, sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_on_both_generations() {
        let opts = BuildOptions {
            scale: 0.01,
            ..BuildOptions::default()
        };
        for id in WorkloadId::paper_nine()
            .into_iter()
            .chain(WorkloadId::reduced_three())
        {
            for generation in [TpuGeneration::V2, TpuGeneration::V3] {
                let cfg = build(id, generation, &opts);
                assert!(cfg.train_steps >= 1, "{id}");
                assert!(!cfg.step_plan().is_empty(), "{id}");
                assert!(cfg.train_graph.node_count() > 10, "{id}");
            }
        }
    }

    #[test]
    fn tiny_scales_build_a_runnable_plan() {
        // Small enough that every workload scales to a single train step.
        let opts = BuildOptions {
            scale: 1e-9,
            ..BuildOptions::default()
        };
        for id in WorkloadId::paper_nine() {
            let cfg = build(id, TpuGeneration::V2, &opts);
            assert_eq!(cfg.train_steps, 1, "{id}");
            assert_eq!(cfg.iterations_per_loop, 2, "{id}");
            assert!(!cfg.step_plan().is_empty(), "{id}");
        }
    }

    #[test]
    fn table_one_parameters_are_respected() {
        let opts = BuildOptions::default();
        let dcgan = build(WorkloadId::DcganCifar10, TpuGeneration::V2, &opts);
        assert_eq!(dcgan.pipeline.batch_size, 1024);
        assert_eq!(dcgan.train_steps, 10_000);
        assert_eq!(dcgan.steps_per_eval, Some(1_000));
        assert_eq!(dcgan.iterations_per_loop, 100);

        let resnet = build(WorkloadId::ResnetImagenet, TpuGeneration::V2, &opts);
        assert_eq!(resnet.train_steps, 112_590);
        assert_eq!(resnet.pipeline.batch_size, 1024);

        let bert = build(WorkloadId::BertMrpc, TpuGeneration::V2, &opts);
        assert_eq!(bert.pipeline.batch_size, 32);
        assert_eq!(bert.train_steps, 3_668 * 3 / 32);

        let retina = build(WorkloadId::RetinanetCoco, TpuGeneration::V2, &opts);
        assert_eq!(retina.pipeline.batch_size, 64);
        assert_eq!(retina.train_steps, 15 * 120_000 / 64);
    }

    #[test]
    fn scaling_preserves_cadence_structure() {
        let full = build(
            WorkloadId::DcganCifar10,
            TpuGeneration::V2,
            &BuildOptions::default(),
        );
        let small = build(
            WorkloadId::DcganCifar10,
            TpuGeneration::V2,
            &BuildOptions {
                scale: 0.1,
                ..BuildOptions::default()
            },
        );
        // Same number of eval segments either way.
        let segments = |c: &JobConfig| c.train_steps / c.steps_per_eval.unwrap();
        assert_eq!(segments(&full), segments(&small));
        assert_eq!(small.train_steps, 1_000);
    }

    #[test]
    fn default_sim_scales_give_tractable_runs() {
        for id in WorkloadId::paper_nine() {
            let cfg = build(
                id,
                TpuGeneration::V2,
                &BuildOptions {
                    scale: id.default_sim_scale(),
                    ..BuildOptions::default()
                },
            );
            let steps = cfg.step_plan().len();
            assert!((150..2_500).contains(&steps), "{id}: {steps} plan steps");
        }
    }

    #[test]
    fn naive_variant_swaps_the_pipeline() {
        let tuned = build(
            WorkloadId::QanetSquad,
            TpuGeneration::V2,
            &BuildOptions::default(),
        );
        let naive = build(
            WorkloadId::QanetSquad,
            TpuGeneration::V2,
            &BuildOptions {
                variant: Variant::Naive,
                ..BuildOptions::default()
            },
        );
        assert!(naive.pipeline.num_parallel_calls < tuned.pipeline.num_parallel_calls);
        assert_eq!(naive.train_steps, tuned.train_steps);
    }

    #[test]
    fn reduced_datasets_shrink_but_keep_record_size() {
        let full = build(
            WorkloadId::RetinanetCoco,
            TpuGeneration::V2,
            &BuildOptions::default(),
        );
        let half = build(
            WorkloadId::RetinanetCocoHalf,
            TpuGeneration::V2,
            &BuildOptions::default(),
        );
        let diff = (half.dataset.size_bytes * 2).abs_diff(full.dataset.size_bytes);
        assert!(diff <= 1, "halving should preserve total size, diff {diff}");
        let rb_full = full.dataset.record_bytes() as f64;
        let rb_half = half.dataset.record_bytes() as f64;
        assert!(
            (rb_half - rb_full).abs() / rb_full < 1e-3,
            "record size should be preserved: {rb_half} vs {rb_full}"
        );
    }

    #[test]
    fn workload_ids_parse_from_labels() {
        for id in WorkloadId::all() {
            let parsed: WorkloadId = id.label().to_ascii_lowercase().parse().unwrap();
            assert_eq!(parsed, id);
        }
        assert!("not-a-workload".parse::<WorkloadId>().is_err());
        let err = "nope".parse::<WorkloadId>().unwrap_err().to_string();
        assert!(err.contains("bert-mrpc"));
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        let _ = build(
            WorkloadId::BertMrpc,
            TpuGeneration::V2,
            &BuildOptions {
                scale: 0.0,
                ..BuildOptions::default()
            },
        );
    }
}
