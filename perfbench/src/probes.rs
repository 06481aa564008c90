//! Layer probes for the traced run: each layer's public functions timed
//! on this run's seeded inputs, each call in its own span. Together
//! with the workload's own spans they give the per-layer metrics.

use crate::common::{
    dispatch_ratio, load_snapshot, metric, nproc, tensor_counters, Ctx, Metric, Setup,
};
use crate::gen;
use crate::trace::{NameTimes, Tracer};
use crate::train::{batches, Trainee};
use aero_diffusion::{CondUnet, DdimSampler};
use aero_tensor::{ParallelConfig, Tensor};
use aerodiffusion::{AeroDiffusionPipeline, TaskSpec};
use std::collections::BTreeMap;

/// Runs every probe, recording spans into the context's tracer; returns
/// the probes' counter-based metrics.
pub fn run(ctx: &Ctx, p: &AeroDiffusionPipeline) -> Vec<Metric> {
    let t = &ctx.tracer;
    let config = *p.config();
    let size = config.vision.image_size;
    let [c, h, w] = p.latent_shape();
    let mut rng = gen::rng(ctx.seed, 60);
    let scenes = gen::scenes(gen::sub_seed(ctx.seed, 61), 8, size);

    // A standalone UNet of the pipeline's architecture, at its latent shape.
    let unet = CondUnet::new(aerodiffusion::lint::unet_config(&config), &mut rng);
    for (b, reps) in [(1, 16), (2, 12), (8, 6), (16, 4)] {
        let z = Tensor::randn(&[b, c, h, w], &mut rng);
        let cond = Tensor::randn(&[b, config.cond_dim()], &mut rng);
        let ts = vec![config.diffusion.timesteps / 2; b];
        for _ in 0..reps {
            t.time(&format!("unet.predict.b{b}"), None, || unet.predict(&z, &ts, Some(&cond)));
        }
    }

    let sampler = DdimSampler::new(config.diffusion.ddim_steps, config.diffusion.guidance_scale);
    let caption = p.caption_for(&scenes[0], &mut rng);
    let cond = p.encode_task(&TaskSpec::text(&scenes[0], &caption, &caption));
    for (b, reps) in [(1, 4), (8, 2)] {
        let rows = Tensor::concat(&vec![&cond; b], 0);
        for _ in 0..reps {
            let z0 = Tensor::randn(&[b, c, h, w], &mut rng);
            let z = t.time(&format!("pipeline.sample_latents.b{b}"), None, || {
                p.sample_latents(&sampler, z0, &rows)
            });
            t.time("pipeline.decode_latent", None, || {
                p.decode_latent(&z.narrow(0, 0, 1).reshape(&[c, h, w]))
            });
        }
    }

    // Every workload pins one kernel thread; this is the one place the
    // kernels' parallel dispatch runs: 8-row sampling at one kernel
    // thread per core.
    let wide = load_snapshot(ctx)
        .with_parallel(ParallelConfig::with_threads(nproc()))
        .hydrate()
        .expect("snapshot hydrates");
    let rows = Tensor::concat(&[&cond; 8], 0);
    let before = tensor_counters();
    for _ in 0..2 {
        let z0 = Tensor::randn(&[8, c, h, w], &mut rng);
        t.time("pipeline.sample_latents.b8_nproc", None, || {
            wide.sample_latents(&sampler, z0, &rows)
        });
    }
    let dispatch = dispatch_ratio(&before, &tensor_counters());

    for (i, scene) in scenes.iter().enumerate() {
        let image = &scene.rendered.image;
        t.time("detector.propose_rois", None, || p.propose_rois(image));
        t.time("vae.encode", None, || p.encode_image_latent(image));
        let caption = t.time("text.caption", None, || p.caption_for(scene, &mut rng));
        for _ in 0..20 {
            t.time("text.tokenize", None, || p.bundle().tokenizer.encode(&caption));
        }
        for kind in 0..4 {
            let task = gen::task(kind + i, scene, &mut rng);
            let prompt = gen::prompt(&mut rng);
            let spec = task.spec(&prompt, scene, &caption);
            let kind = task.kind();
            t.time(&format!("pipeline.condition_source.{kind}"), None, || {
                p.condition_source(&spec)
            });
            t.time(&format!("pipeline.encode_task.{kind}"), None, || p.encode_task(&spec));
            if kind == "inpaint" {
                let mut pin_rng = gen::rng(ctx.seed, 62);
                t.time("pipeline.task_pin", None, || p.task_pin(&spec, &mut pin_rng));
            }
        }
    }

    let mut trainee = Trainee::new(&config, &mut gen::rng(ctx.seed, 63));
    let data = batches(&config, &mut gen::rng(ctx.seed, 64), 6, config.diffusion_batch_size);
    let mut step_rng = gen::rng(ctx.seed, 65);
    for b in &data {
        trainee.step(b, &mut step_rng, t, "probe.train_step.b2");
    }
    vec![metric("tensor.dispatch.parallel", dispatch, "ratio")]
}

/// Median of a span name's durations (0 when the run has none).
fn med(names: &BTreeMap<String, NameTimes>, name: &str) -> f64 {
    names.get(name).and_then(|n| crate::stats::median(&n.total_ms)).unwrap_or(0.0)
}

/// The per-layer metrics derived from the spans and the set-up split.
pub fn layer_metrics(tracer: &Tracer, setup: &Setup, ddim_steps: usize) -> Vec<Metric> {
    let names = tracer.by_name();
    let m = |n: &str| med(&names, n);
    let mut out = Vec::new();
    for kind in ["text", "view", "inpaint", "superres"] {
        out.push(metric(
            format!("pipeline.condition_source_ms.{kind}"),
            m(&format!("pipeline.condition_source.{kind}")),
            "ms",
        ));
        out.push(metric(
            format!("pipeline.encode_task_ms.{kind}"),
            m(&format!("pipeline.encode_task.{kind}")),
            "ms",
        ));
    }
    let forwards = 2.0 * ddim_steps as f64; // classifier-free guidance: two per step
    out.extend([
        metric("pipeline.task_pin_ms", m("pipeline.task_pin"), "ms"),
        metric("pipeline.sample_latents_ms.b1", m("pipeline.sample_latents.b1"), "ms"),
        metric("pipeline.sample_latents_ms.b8", m("pipeline.sample_latents.b8"), "ms"),
        metric("pipeline.sample_latents_ms.b8_nproc", m("pipeline.sample_latents.b8_nproc"), "ms"),
        metric("pipeline.decode_latent_ms", m("pipeline.decode_latent"), "ms"),
        metric("pipeline.load_ms", setup.load_ms, "ms"),
        metric("snapshot.hydrate_ms", setup.hydrate_ms, "ms"),
        metric("serve.start_ms", setup.start_ms, "ms"),
        metric("unet.predict_ms.b1", m("unet.predict.b1"), "ms"),
        metric("unet.predict_ms.b2", m("unet.predict.b2"), "ms"),
        metric("unet.predict_ms.b8", m("unet.predict.b8"), "ms"),
        metric("unet.predict_ms.b16", m("unet.predict.b16"), "ms"),
        metric(
            "sampler.glue_ms",
            m("pipeline.sample_latents.b8") - forwards * m("unet.predict.b8"),
            "ms",
        ),
        metric("trainer.loss_ms", m("trainer.loss"), "ms"),
        metric("nn.backward_ms", m("nn.backward"), "ms"),
        metric("nn.adam_step_ms", m("nn.adam_step"), "ms"),
        metric("detector.propose_rois_ms", m("detector.propose_rois"), "ms"),
        metric("vae.encode_ms", m("vae.encode"), "ms"),
        metric("text.caption_ms", m("text.caption"), "ms"),
        metric("text.tokenize_us", m("text.tokenize") * 1e3, "us"),
    ]);
    out
}
