//! `synth_offline`: one caller synthesising augmentation data in a
//! closed loop. Each seeded scene gets a keypoint-aware caption, a
//! unique `encode_task`, one `sample_latents` over 8 rows and a
//! `decode_latent` per row; interleaved batch-1 `run_task` calls stand
//! in for the CLI `sample` command. No queue or wire is involved.

use crate::calib::HostSpeed;
use crate::common::{check, metric, Ctx, Outcome};
use crate::gen;
use crate::stats::{overhead_pct, phase_line, summarize, values};
use crate::trace::Tracer;
use aero_diffusion::{DdimSampler, StepSink};
use aero_scene::{DatasetItem, Image};
use aero_tensor::Tensor;
use aerodiffusion::{AeroDiffusionPipeline, TaskSpec};
use rand::{Rng, SeedableRng};
use std::time::Instant;

const ROWS: usize = 8;
const SCENES: usize = 48;

struct Loop {
    /// (seconds into the run, ms) per batch-1 sample and per scene.
    b1_ms: Vec<(f64, f64)>,
    scene_ms: Vec<(f64, f64)>,
    images: u64,
    /// (initial latents, condition, decoded rows) of the first scenes,
    /// for the batch-vs-solo check.
    kept: Vec<(Tensor, Tensor, Vec<Image>)>,
}

fn bits(image: &Image) -> Vec<u32> {
    image.to_tensor().as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The timed loop: per cycle two batch-1 samples, then one 8-row scene.
fn run_loop(
    p: &AeroDiffusionPipeline,
    scenes: &[DatasetItem],
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    host: &HostSpeed,
) -> Loop {
    let config = *p.config();
    let sampler = DdimSampler::new(config.diffusion.ddim_steps, config.diffusion.guidance_scale);
    let [c, h, w] = p.latent_shape();
    let mut rng = gen::rng(seed, 11);
    let mut out = Loop { b1_ms: vec![], scene_ms: vec![], images: 0, kept: vec![] };
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        let scene = &scenes[i % scenes.len()];
        host.sample();
        for _ in 0..2 {
            let prompt = format!("{} #{}", gen::prompt(&mut rng), out.b1_ms.len());
            let caption_g = p.caption_for(scene, &mut rng);
            let task = TaskSpec::text(scene, &caption_g, &prompt);
            let sample_seed = rng.gen::<u32>() as u64;
            let t0 = Instant::now();
            let at = host.secs(t0);
            if tracer.on() {
                // The calls `run_task` makes, each in its own span.
                let root = tracer.begin("synth.sample_b1", None, None);
                let cond =
                    tracer.time("pipeline.encode_task.text", Some(root), || p.encode_task(&task));
                let mut r = rand::rngs::StdRng::seed_from_u64(sample_seed);
                let z0 = Tensor::randn(&[1, c, h, w], &mut r);
                let z = tracer.time("pipeline.sample_latents.b1", Some(root), || {
                    p.sample_latents(&sampler, z0, &cond)
                });
                tracer.time("pipeline.decode_latent", Some(root), || {
                    p.decode_latent(&z.reshape(&[c, h, w]))
                });
                tracer.end(root);
            } else {
                std::hint::black_box(p.run_task(&task, &sampler, sample_seed, StepSink::none()));
            }
            out.b1_ms.push((at, t0.elapsed().as_secs_f64() * 1e3));
            out.images += 1;
        }
        let t0 = Instant::now();
        let at = host.secs(t0);
        let root = tracer.begin("synth.scene", None, None);
        let caption = tracer.time("text.caption", Some(root), || p.caption_for(scene, &mut rng));
        let task = TaskSpec::text(scene, &caption, &format!("{caption} #{i}"));
        let cond = tracer.time("pipeline.encode_task.text", Some(root), || p.encode_task(&task));
        let cond_rows = Tensor::concat(&[&cond; ROWS], 0);
        let z0 = Tensor::randn(&[ROWS, c, h, w], &mut rng);
        let keep = out.kept.len() < 2;
        let z0_kept = keep.then(|| z0.clone());
        let z = tracer.time("pipeline.sample_latents.b8", Some(root), || {
            p.sample_latents(&sampler, z0, &cond_rows)
        });
        let images: Vec<Image> = (0..ROWS)
            .map(|r| {
                tracer.time("pipeline.decode_latent", Some(root), || {
                    p.decode_latent(&z.narrow(0, r, 1).reshape(&[c, h, w]))
                })
            })
            .collect();
        tracer.end(root);
        out.scene_ms.push((at, t0.elapsed().as_secs_f64() * 1e3));
        out.images += ROWS as u64;
        if let Some(z0) = z0_kept {
            out.kept.push((z0, cond, images));
        }
        i += 1;
    }
    out
}

pub fn run(ctx: &Ctx, p: &AeroDiffusionPipeline, out: &mut Outcome) {
    let config = *p.config();
    let scenes = gen::scenes(ctx.seed, SCENES, config.vision.image_size);
    // Untimed warm-up: first-touch allocations and caches.
    let _ = run_loop(p, &scenes, ctx.seed ^ 1, 1e-3, &Tracer::new(false), &ctx.host);

    crate::common::reset_peak_rss();
    let lp = if ctx.trace {
        // Untraced first (the overhead baseline), then traced.
        let base =
            run_loop(p, &scenes, ctx.seed, ctx.seconds * 0.4, &Tracer::new(false), &ctx.host);
        let before = crate::common::tensor_counters();
        let traced = run_loop(p, &scenes, ctx.seed, ctx.seconds * 0.6, &ctx.tracer, &ctx.host);
        let after = crate::common::tensor_counters();
        let overhead = overhead_pct(
            &values(&ctx.host.normalize(&base.b1_ms)),
            &values(&ctx.host.normalize(&traced.b1_ms)),
        );
        out.layers.push(metric("obs.trace_overhead_pct", overhead, "%"));
        out.layers.extend(crate::common::tensor_layer_metrics(&before, &after, traced.images));
        traced
    } else {
        run_loop(p, &scenes, ctx.seed, ctx.seconds, &Tracer::new(false), &ctx.host)
    };

    let (b1_ref, scene_ref) = (ctx.host.normalize(&lp.b1_ms), ctx.host.normalize(&lp.scene_ms));
    let b1 = summarize(&values(&b1_ref)).expect("at least one batch-1 sample");
    let scene = summarize(&values(&scene_ref)).expect("at least one scene");
    let images_per_s = ROWS as f64 * 1e3 / scene.mean;
    out.attempted = lp.images;
    out.phases.push(phase_line("sample_b1", &lp.b1_ms, &b1_ref, ""));
    out.phases.push(phase_line(
        &format!("scene_b{ROWS}"),
        &lp.scene_ms,
        &scene_ref,
        &format!(
            r#","images":{},"reference_images_per_s":{images_per_s:.4}"#,
            lp.scene_ms.len() * ROWS
        ),
    ));
    out.e2e.extend([
        metric("low_p50_ms", b1.p50, "ms"),
        metric("high_p50_ms", scene.p50, "ms"),
        metric("throughput_per_s", images_per_s, "1/s"),
    ]);

    // Output check: every kept batch row equals the same row sampled
    // alone at batch 1.
    let sampler = DdimSampler::new(config.diffusion.ddim_steps, config.diffusion.guidance_scale);
    let [c, h, w] = p.latent_shape();
    let mut mismatches = 0;
    let mut compared = 0;
    for (z0, cond, images) in &lp.kept {
        for (r, image) in images.iter().enumerate() {
            let z = p.sample_latents(&sampler, z0.narrow(0, r, 1), cond);
            let solo = p.decode_latent(&z.reshape(&[c, h, w]));
            compared += 1;
            if bits(&solo) != bits(image) {
                mismatches += 1;
            }
        }
    }
    out.checks.push(check(
        "batch_rows_equal_batch_1",
        compared > 0 && mismatches == 0,
        format!("{compared} rows compared, {mismatches} differ"),
    ));
    let finite = lp.kept.iter().flat_map(|k| &k.2).all(|im| {
        im.width() == config.vision.image_size
            && im.to_tensor().as_slice().iter().all(|v| v.is_finite())
    });
    out.checks.push(check("images_finite_native_size", finite, ""));
}
