//! `train`: a closed loop of `DiffusionTrainer::train_step` on the
//! benchmark model's UNet architecture, at the config's diffusion batch
//! (2), with every fourth step at batch 8. This is the only workload
//! that runs aero_nn's backward tape and Adam.

use crate::calib::HostSpeed;
use crate::common::{check, metric, model_config, Ctx, Outcome};
use crate::gen;
use crate::stats::{overhead_pct, phase_line, summarize, values};
use crate::trace::Tracer;
use aero_diffusion::{CondUnet, DiffusionTrainer, TrainBatch};
use aero_nn::optim::Adam;
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use aerodiffusion::PipelineConfig;
use rand::rngs::StdRng;
use std::time::Instant;

/// The heavy steps' batch: `PipelineConfig::paper()`'s diffusion batch.
const HEAVY_BATCH: usize = 8;

pub struct Trainee {
    unet: CondUnet,
    trainer: DiffusionTrainer,
    opt: Adam,
}

impl Trainee {
    pub fn new(config: &PipelineConfig, rng: &mut StdRng) -> Self {
        let unet = CondUnet::new(aerodiffusion::lint::unet_config(config), rng);
        let opt = Adam::new(unet.params(), config.diffusion_lr).with_weight_decay(1e-5);
        Trainee { unet, trainer: DiffusionTrainer::new(config.diffusion), opt }
    }

    /// One optimizer step. Traced, it makes the calls `train_step`
    /// makes, each in its own span.
    pub fn step(
        &mut self,
        batch: &TrainBatch,
        rng: &mut StdRng,
        tracer: &Tracer,
        name: &str,
    ) -> f32 {
        if !tracer.on() {
            return self.trainer.train_step(&self.unet, &mut self.opt, batch, rng);
        }
        let root = tracer.begin(name, None, None);
        self.opt.zero_grad();
        let cond = batch.cond.as_ref().map(|c| Var::constant(c.clone()));
        let loss = tracer.time("trainer.loss", Some(root), || {
            self.trainer.loss(&self.unet, &batch.z0, cond.as_ref(), rng)
        });
        let value = loss.value().item();
        tracer.time("nn.backward", Some(root), || loss.backward());
        tracer.time("nn.adam_step", Some(root), || self.opt.step());
        tracer.end(root);
        value
    }
}

pub fn batches(
    config: &PipelineConfig,
    rng: &mut StdRng,
    n: usize,
    rows: usize,
) -> Vec<TrainBatch> {
    let side = config.vision.image_size / 4;
    let channels = aero_vision::vae::LATENT_CHANNELS;
    (0..n)
        .map(|_| TrainBatch {
            z0: Tensor::randn(&[rows, channels, side, side], rng),
            cond: Some(Tensor::randn(&[rows, config.cond_dim()], rng)),
        })
        .collect()
}

struct Loop {
    /// (seconds into the run, ms) per step at each batch size.
    light_ms: Vec<(f64, f64)>,
    heavy_ms: Vec<(f64, f64)>,
    losses: Vec<f32>,
}

fn run_loop(
    config: &PipelineConfig,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    host: &HostSpeed,
) -> Loop {
    let mut trainee = Trainee::new(config, &mut gen::rng(seed, 20));
    let mut data_rng = gen::rng(seed, 21);
    let light = batches(config, &mut data_rng, 16, config.diffusion_batch_size);
    let heavy = batches(config, &mut data_rng, 4, HEAVY_BATCH);
    let mut rng = gen::rng(seed, 22);
    let mut out = Loop { light_ms: vec![], heavy_ms: vec![], losses: vec![] };
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed().as_secs_f64() < seconds {
        host.sample();
        for k in 0..3 {
            let t0 = Instant::now();
            let at = host.secs(t0);
            out.losses.push(trainee.step(
                &light[(3 * i + k) % light.len()],
                &mut rng,
                tracer,
                "train.step.b2",
            ));
            out.light_ms.push((at, t0.elapsed().as_secs_f64() * 1e3));
        }
        let t0 = Instant::now();
        let at = host.secs(t0);
        out.losses.push(trainee.step(&heavy[i % heavy.len()], &mut rng, tracer, "train.step.b8"));
        out.heavy_ms.push((at, t0.elapsed().as_secs_f64() * 1e3));
        i += 1;
    }
    out
}

/// Losses of `steps` fresh steps from the seed.
fn losses(config: &PipelineConfig, seed: u64, steps: usize) -> Vec<f32> {
    let mut trainee = Trainee::new(config, &mut gen::rng(seed, 30));
    let data = batches(config, &mut gen::rng(seed, 31), steps, config.diffusion_batch_size);
    let mut rng = gen::rng(seed, 32);
    let off = Tracer::new(false);
    data.iter().map(|b| trainee.step(b, &mut rng, &off, "")).collect()
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let config = model_config();
    let _ = run_loop(&config, ctx.seed ^ 1, 1e-3, &Tracer::new(false), &ctx.host);
    crate::common::reset_peak_rss();
    let lp = if ctx.trace {
        let base = run_loop(&config, ctx.seed, ctx.seconds * 0.4, &Tracer::new(false), &ctx.host);
        let before = crate::common::tensor_counters();
        let traced = run_loop(&config, ctx.seed, ctx.seconds * 0.6, &ctx.tracer, &ctx.host);
        let after = crate::common::tensor_counters();
        let steps = (traced.light_ms.len() + traced.heavy_ms.len()) as u64;
        out.layers.push(metric(
            "obs.trace_overhead_pct",
            overhead_pct(
                &values(&ctx.host.normalize(&base.light_ms)),
                &values(&ctx.host.normalize(&traced.light_ms)),
            ),
            "%",
        ));
        out.layers.extend(crate::common::tensor_layer_metrics(&before, &after, steps));
        traced
    } else {
        run_loop(&config, ctx.seed, ctx.seconds, &Tracer::new(false), &ctx.host)
    };
    let (light_ref, heavy_ref) =
        (ctx.host.normalize(&lp.light_ms), ctx.host.normalize(&lp.heavy_ms));
    let light = summarize(&values(&light_ref)).expect("at least one step");
    let heavy = summarize(&values(&heavy_ref)).expect("at least one heavy step");
    let steps_per_s = 1e3 / light.mean;
    out.attempted = lp.losses.len() as u64;
    out.phases.push(phase_line("train_step_b2", &lp.light_ms, &light_ref, ""));
    out.phases.push(phase_line("train_step_b8", &lp.heavy_ms, &heavy_ref, ""));
    out.e2e.extend([
        metric("low_p50_ms", light.p50, "ms"),
        metric("high_p50_ms", heavy.p50, "ms"),
        metric("throughput_per_s", steps_per_s, "1/s"),
    ]);
    let nonfinite = lp.losses.iter().filter(|l| !l.is_finite()).count();
    out.failed = nonfinite as u64;
    out.checks.push(check(
        "losses_finite",
        nonfinite == 0,
        format!("{} losses, {nonfinite} non-finite", lp.losses.len()),
    ));
    let (a, b) = (losses(&config, ctx.seed, 6), losses(&config, ctx.seed, 6));
    let same = a.iter().map(|v| v.to_bits()).eq(b.iter().map(|v| v.to_bits()));
    out.checks.push(check(
        "losses_repeat_for_seed",
        same && a.iter().all(|v| v.is_finite()),
        format!("{a:?}"),
    ));
}
