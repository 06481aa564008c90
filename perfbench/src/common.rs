//! What every workload shares: the fixed model and serve settings, the
//! set-up measurement, metric records and the run context.

use crate::calib::HostSpeed;
use crate::gen;
use crate::stats::median;
use crate::trace::Tracer;
use aero_serve::{GenerateRequest, ServeConfig, ServeReply, ServeRuntime};
use aero_tensor::ParallelConfig;
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot};
use std::path::PathBuf;
use std::time::Instant;

/// Seed of the untimed training run that produces the benchmark model.
pub const MODEL_SEED: u64 = 2025;

/// The benchmark model: `PipelineConfig::small()`'s architecture (32×32
/// images, an 8×8 latent, UNet width 8, 10 DDIM steps, guidance 3.0)
/// with training cut to one epoch per stage. Timing does not depend on
/// weight quality; the fixed seed fixes the one weight-dependent cost,
/// the detector's ROI count.
pub fn model_config() -> PipelineConfig {
    let mut config = PipelineConfig::small();
    config.clip_epochs = 1;
    config.vae_epochs = 1;
    config.detector_epochs = 1;
    config.diffusion_epochs = 1;
    config
}

/// Trains and saves the benchmark model (untimed preparation).
pub fn prepare(dir: &std::path::Path) -> Result<(), String> {
    let config = model_config();
    let scenes = aero_scene::build_dataset(&aero_scene::DatasetConfig {
        n_scenes: 8,
        image_size: config.vision.image_size,
        seed: MODEL_SEED,
        generator: aero_scene::SceneGeneratorConfig::default(),
    });
    AeroDiffusionPipeline::fit(&scenes, config, MODEL_SEED)
        .save(dir)
        .map_err(|e| format!("saving the benchmark model to {}: {e}", dir.display()))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The pinned serve settings: one replica, one worker of one kernel
/// thread (set on the snapshot), micro-batches of up to 8. The queue is
/// deep enough that overload shows as latency, never as a rejection.
///
/// One worker, not one per core: end-to-end runs pin the whole process
/// to one CPU (see `perfbench/README.md`), where a second worker would
/// only time-share it. One worker still batches, so the `high` rate
/// exercises micro-batching.
pub fn serve_config(config: &PipelineConfig) -> ServeConfig {
    let mut serve = ServeConfig::for_pipeline(config);
    serve.replicas = 1;
    serve.workers = 1;
    serve.max_batch = 8;
    serve.queue_capacity = 1024;
    serve
}

pub fn serve_config_json(s: &ServeConfig) -> String {
    format!(
        r#"{{"replicas":{},"workers":{},"kernel_threads_per_worker":{KERNEL_THREADS},"max_batch":{},"queue_capacity":{},"batch_wait_ms":{},"cache_capacity":{},"steps":{},"guidance":{},"reference_seed":{},"max_worker_restarts":{},"admission":"{:?}","stream_previews":{}}}"#,
        s.replicas,
        s.workers,
        s.max_batch,
        s.queue_capacity,
        s.batch_wait.as_secs_f64() * 1e3,
        s.cache_capacity,
        s.steps,
        s.guidance_scale,
        s.reference_seed,
        s.max_worker_restarts,
        s.admission,
        s.stream_previews
    )
}

/// Kernel threads per pipeline replica, in every workload. On a shared
/// host, kernels fanned out over every core run at the pace of the most
/// contended one, which makes run-to-run numbers swing far more than
/// single-thread ones.
pub const KERNEL_THREADS: usize = 1;

/// Loads the saved model and snapshots it under [`KERNEL_THREADS`].
pub fn load_snapshot(ctx: &Ctx) -> PipelineSnapshot {
    AeroDiffusionPipeline::load(&ctx.model_dir, model_config())
        .expect("the prepared benchmark model loads")
        .snapshot()
        .with_parallel(ParallelConfig::with_threads(KERNEL_THREADS))
}

pub fn image_of(reply: ServeReply) -> Result<aero_serve::GeneratedImage, String> {
    match reply {
        ServeReply::Image(img) => Ok(img),
        ServeReply::Rejected { id, reason } => Err(format!("request {id} rejected: {reason}")),
        ServeReply::Preview(p) => Err(format!("unexpected preview for {}", p.id)),
    }
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
    Check { name, ok, detail: detail.into() }
}

/// What a workload hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub checks: Vec<Check>,
    /// One JSON object per phase: attempted, succeeded, failed, shed and
    /// each percentile with its sample count.
    pub phases: Vec<String>,
}

/// The run's fixed inputs.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub model_dir: PathBuf,
    pub out_dir: PathBuf,
    pub tracer: Tracer,
    /// Reference-work timings that scale timings to the reference speed.
    pub host: HostSpeed,
}

/// The set-up measurement shared by every workload: load the saved
/// pipeline, snapshot it, start serving and answer the first warm
/// request, `reps` times (the total at the reference host speed); plus
/// the layer split of that path, as measured.
pub struct Setup {
    pub setup_s: f64,
    pub load_ms: f64,
    pub hydrate_ms: f64,
    pub start_ms: f64,
}

pub fn measure_setup(ctx: &Ctx, reps: usize) -> Setup {
    let config = model_config();
    let prompt = gen::prompt(&mut gen::rng(ctx.seed, 90));
    let (mut total, mut load, mut hydrate, mut start) = (vec![], vec![], vec![], vec![]);
    for rep in 0..reps {
        ctx.host.sample();
        let t0 = Instant::now();
        let snapshot = load_snapshot(ctx);
        let t1 = Instant::now();
        let runtime = ServeRuntime::start(snapshot.clone(), serve_config(&config));
        let handle = runtime
            .submit(GenerateRequest::new(format!("setup-{rep}"), prompt.as_str(), rep as u64))
            .expect("set-up request admitted");
        image_of(handle.wait()).expect("set-up request served");
        let t2 = Instant::now();
        let _ = runtime.shutdown();
        let h0 = Instant::now();
        let _ = snapshot.hydrate().expect("snapshot hydrates");
        let h1 = Instant::now();
        ctx.host.sample();
        total.push((t2 - t0).as_secs_f64() * ctx.host.factor(ctx.host.secs(t0)));
        load.push((t1 - t0).as_secs_f64() * 1e3);
        start.push((t2 - t1).as_secs_f64() * 1e3);
        hydrate.push((h1 - h0).as_secs_f64() * 1e3);
        let root = ctx.tracer.record("setup", None, None, t0, t2);
        ctx.tracer.record("pipeline.load", Some(root), None, t0, t1);
        ctx.tracer.record("serve.start_first_reply", Some(root), None, t1, t2);
        ctx.tracer.record("snapshot.hydrate", None, None, h0, h1);
    }
    let med = |v: &[f64]| median(v).expect("at least one set-up");
    Setup {
        setup_s: med(&total),
        load_ms: med(&load),
        hydrate_ms: med(&hydrate),
        start_ms: med(&start),
    }
}

/// Resets this process's `VmHWM` to its current resident size (Linux
/// `clear_refs` value 5), so `peak_rss_mb` covers the measured loop,
/// not set-up or input generation; a no-op where that is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Values of the global `aero_obs` tensor counters.
pub fn tensor_counters() -> Vec<(&'static str, u64)> {
    let snap = aero_obs::global().snapshot();
    TENSOR_COUNTERS.iter().map(|&n| (n, snap.counter(n).unwrap_or(0))).collect()
}

pub const TENSOR_COUNTERS: [&str; 12] = [
    "tensor.matmul.calls",
    "tensor.matmul.elements",
    "tensor.bmm.calls",
    "tensor.bmm.elements",
    "tensor.conv_matmul.calls",
    "tensor.conv_matmul.elements",
    "tensor.elementwise.calls",
    "tensor.elementwise.elements",
    "tensor.im2col.calls",
    "tensor.im2col.elements",
    "tensor.dispatch.parallel",
    "tensor.dispatch.serial",
];

/// The share of kernel dispatches that fanned out over threads between
/// two counter readings (0 when nothing was dispatched).
pub fn dispatch_ratio(before: &[(&str, u64)], after: &[(&str, u64)]) -> f64 {
    let delta = |name: &str| counter_delta(before, after, name);
    let dispatched = delta("tensor.dispatch.parallel") + delta("tensor.dispatch.serial");
    if dispatched > 0.0 {
        delta("tensor.dispatch.parallel") / dispatched
    } else {
        0.0
    }
}

fn counter_delta(before: &[(&str, u64)], after: &[(&str, u64)], name: &str) -> f64 {
    let get = |v: &[(&str, u64)]| v.iter().find(|(n, _)| *n == name).map_or(0, |(_, c)| *c);
    get(after).saturating_sub(get(before)) as f64
}

/// Per-unit deltas of the tensor counters between two readings. The
/// bytes figure is computed, not measured: 4 bytes per f32 output
/// element the kernels report.
pub fn tensor_layer_metrics(
    before: &[(&str, u64)],
    after: &[(&str, u64)],
    units: u64,
) -> Vec<Metric> {
    let delta = |name: &str| counter_delta(before, after, name);
    let per = |v: f64| v / units.max(1) as f64;
    let elements = ["matmul", "bmm", "conv_matmul", "elementwise", "im2col"]
        .iter()
        .map(|k| delta(&format!("tensor.{k}.elements")))
        .sum::<f64>();
    vec![
        metric("tensor.matmul.calls", per(delta("tensor.matmul.calls")), "count"),
        metric("tensor.conv_matmul.calls", per(delta("tensor.conv_matmul.calls")), "count"),
        metric("tensor.elementwise.calls", per(delta("tensor.elementwise.calls")), "count"),
        metric("tensor.elementwise.elements", per(delta("tensor.elementwise.elements")), "count"),
        metric("tensor.im2col.elements", per(delta("tensor.im2col.elements")), "count"),
        metric("tensor.out_bytes_computed", per(elements * 4.0), "B"),
    ]
}
