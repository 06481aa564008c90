//! The repository benchmark. `perfbench/run.py` builds this binary,
//! prepares the model with `prepare`, and runs one workload with `run`;
//! see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench prepare --model DIR
//! perfbench reference
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 --model DIR --out DIR
//!               [--git SHA] [--rustc VERSION] [--source-digest HEX] [--cpu-affinity CPUS]
//! ```

mod b64;
mod calib;
mod common;
mod gen;
mod probes;
mod serve;
mod stats;
mod synth;
mod trace;
mod train;
mod wire;

use common::{measure_setup, metric, model_config, Ctx, Metric, Outcome};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

/// Every per-layer metric: name, unit, the end-to-end metric it should
/// move and the workload where it does.
const LAYERS: [(&str, &str, &str, &str); 48] = [
    ("serve.queue_p50_ms", "ms", "high_p50_ms", "serve_text"),
    ("serve.queue_p95_ms", "ms", "high_p50_ms", "serve_text"),
    ("serve.batch_rows_mean", "count", "throughput_per_s", "serve_text"),
    ("serve.cache_hit_ratio", "ratio", "low_p50_ms", "serve_text (~1), serve_tasks (~0)"),
    ("serve.encode_p50_ms", "ms", "low_p50_ms", "serve_text, serve_tasks"),
    ("serve.sample_p50_ms", "ms", "low_p50_ms", "serve_text, serve_tasks"),
    ("serve.decode_p50_ms", "ms", "low_p50_ms", "serve_text, serve_tasks"),
    ("serve.parse_us", "us", "low_p50_ms", "serve_tasks"),
    ("serve.render_us", "us", "low_p50_ms", "serve_text, serve_tasks"),
    ("serve.wire_hol_p95_ms", "ms", "high_p50_ms", "serve_text, serve_tasks"),
    ("serve.gen_lag_p95_ms", "ms", "validity of the run", "serve_text, serve_tasks"),
    ("serve.shed", "count", "throughput_per_s", "serve_text, serve_tasks"),
    ("serve.rejected", "count", "throughput_per_s", "serve_text, serve_tasks"),
    ("pipeline.condition_source_ms.text", "ms", "low_p50_ms", "serve_tasks"),
    ("pipeline.condition_source_ms.view", "ms", "low_p50_ms", "serve_tasks"),
    ("pipeline.condition_source_ms.inpaint", "ms", "low_p50_ms", "serve_tasks"),
    ("pipeline.condition_source_ms.superres", "ms", "low_p50_ms", "serve_tasks"),
    ("pipeline.encode_task_ms.text", "ms", "low_p50_ms", "serve_tasks"),
    ("pipeline.encode_task_ms.view", "ms", "low_p50_ms", "serve_tasks"),
    ("pipeline.encode_task_ms.inpaint", "ms", "low_p50_ms", "serve_tasks"),
    ("pipeline.encode_task_ms.superres", "ms", "low_p50_ms", "serve_tasks"),
    ("pipeline.task_pin_ms", "ms", "low_p50_ms", "serve_tasks"),
    ("pipeline.sample_latents_ms.b1", "ms", "low_p50_ms", "synth_offline"),
    ("pipeline.sample_latents_ms.b8", "ms", "throughput_per_s", "synth_offline"),
    (
        "pipeline.sample_latents_ms.b8_nproc",
        "ms",
        "none: every workload pins 1 kernel thread",
        "probe",
    ),
    ("pipeline.decode_latent_ms", "ms", "throughput_per_s", "synth_offline"),
    ("pipeline.load_ms", "ms", "setup_s", "all"),
    ("snapshot.hydrate_ms", "ms", "setup_s", "all"),
    ("serve.start_ms", "ms", "setup_s", "all"),
    ("unet.predict_ms.b1", "ms", "low_p50_ms", "synth_offline"),
    ("unet.predict_ms.b2", "ms", "low_p50_ms", "synth_offline"),
    ("unet.predict_ms.b8", "ms", "throughput_per_s", "synth_offline"),
    ("unet.predict_ms.b16", "ms", "throughput_per_s", "synth_offline"),
    ("sampler.glue_ms", "ms", "throughput_per_s", "synth_offline"),
    ("trainer.loss_ms", "ms", "throughput_per_s", "train"),
    ("nn.backward_ms", "ms", "throughput_per_s", "train"),
    ("nn.adam_step_ms", "ms", "throughput_per_s", "train"),
    ("tensor.matmul.calls", "count", "throughput_per_s", "synth_offline"),
    ("tensor.conv_matmul.calls", "count", "throughput_per_s", "synth_offline"),
    ("tensor.elementwise.calls", "count", "throughput_per_s", "synth_offline"),
    ("tensor.elementwise.elements", "count", "throughput_per_s", "synth_offline"),
    ("tensor.im2col.elements", "count", "throughput_per_s", "synth_offline"),
    ("tensor.dispatch.parallel", "ratio", "none: every workload pins 1 kernel thread", "probe"),
    ("tensor.out_bytes_computed", "B", "throughput_per_s", "synth_offline"),
    ("detector.propose_rois_ms", "ms", "low_p50_ms", "serve_tasks"),
    ("vae.encode_ms", "ms", "low_p50_ms", "serve_tasks"),
    ("text.caption_ms", "ms", "throughput_per_s", "synth_offline"),
    ("text.tokenize_us", "us", "throughput_per_s", "synth_offline"),
];

const OVERHEAD: (&str, &str, &str, &str) =
    ("obs.trace_overhead_pct", "%", "low_p50_ms (traced vs untraced)", "all");

const WORKLOADS: [&str; 4] = ["synth_offline", "serve_text", "serve_tasks", "train"];

fn arg<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench prepare --model DIR");
    eprintln!("       perfbench reference");
    eprintln!("       perfbench run --workload NAME --seed N --seconds S --trace 0|1 --model DIR --out DIR");
    std::process::exit(2);
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("prepare") => {
            let dir = arg(&args, "--model").unwrap_or_else(|| usage("prepare needs --model"));
            if let Err(e) = common::prepare(std::path::Path::new(dir)) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        Some("run") => run(&args),
        Some("reference") => {
            // The reference work's median time on this build and host.
            let ms: Vec<f64> = (0..401).map(|_| calib::reference_work()).collect();
            println!("{:.5}", stats::median(&ms).expect("timed"));
        }
        _ => usage("expected `prepare`, `reference` or `run`"),
    }
}

fn run(args: &[String]) {
    let need = |k: &str| arg(args, k).unwrap_or_else(|| usage(&format!("run needs {k}")));
    let workload = need("--workload").to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})"));
    }
    let parse = |k: &str| -> f64 {
        need(k).parse().unwrap_or_else(|_| usage(&format!("{k} must be a number")))
    };
    let trace = match need("--trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let ctx = Ctx {
        workload,
        seed: parse("--seed") as u64,
        seconds: parse("--seconds"),
        trace,
        model_dir: PathBuf::from(need("--model")),
        out_dir: PathBuf::from(need("--out")),
        tracer: Tracer::new(trace),
        host: calib::HostSpeed::new(),
    };
    let config = model_config();
    let nproc = common::nproc();

    let pipeline = common::load_snapshot(&ctx).hydrate().expect("snapshot hydrates");
    let mut out = Outcome::default();
    match ctx.workload.as_str() {
        "synth_offline" => synth::run(&ctx, &pipeline, &mut out),
        "serve_text" => serve::run(&ctx, serve::Mix::Text, &mut out),
        "serve_tasks" => serve::run(&ctx, serve::Mix::Tasks, &mut out),
        "train" => train::run(&ctx, &mut out),
        _ => unreachable!("workload validated above"),
    }
    let peak_rss = common::peak_rss_mb();
    // Set-up runs after the workload, so what its repetitions leave
    // allocated does not sit in the workload's peak.
    let setup = measure_setup(&ctx, 21);

    let serve_cfg = common::serve_config(&config);
    println!(
        r#"{{"provenance":{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":{nproc},"backend":"{}","kernel_threads":{},"serve_config":{},"model":{{"preset":"small","image_size":{},"latent_side":{},"unet_channels":{},"ddim_steps":{},"guidance":{},"diffusion_batch":{},"model_seed":{}}},"host":{{"reference_ms":{},"reference_work_median_ms":{:.4}}},"git":"{}","rustc":"{}","source_digest":"{}","cpu_affinity":"{}"}}}}"#,
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        aero_tensor::backend::active_backend().as_str(),
        common::KERNEL_THREADS,
        common::serve_config_json(&serve_cfg),
        config.vision.image_size,
        config.vision.image_size / 4,
        config.unet_channels,
        config.diffusion.ddim_steps,
        config.diffusion.guidance_scale,
        config.diffusion_batch_size,
        common::MODEL_SEED,
        calib::REFERENCE_MS,
        ctx.host.median_ms(),
        arg(args, "--git").unwrap_or("unknown"),
        arg(args, "--rustc").unwrap_or("unknown"),
        arg(args, "--source-digest").unwrap_or("unknown"),
        arg(args, "--cpu-affinity").unwrap_or("all"),
    );
    for phase in &out.phases {
        println!(r#"{{"phase_result":{phase}}}"#);
    }
    for c in &out.checks {
        println!(
            r#"{{"check":"{}","ok":{},"detail":"{}"}}"#,
            c.name,
            c.ok,
            c.detail.replace('"', "'")
        );
    }

    let metrics: Vec<Metric> = if ctx.trace {
        out.layers.extend(probes::run(&ctx, &pipeline));
        if !ctx.workload.starts_with("serve_") {
            out.layers.extend(serve::absent_layer_metrics());
        }
        out.layers.extend(probes::layer_metrics(&ctx.tracer, &setup, config.diffusion.ddim_steps));
        let path = ctx.out_dir.join(format!("trace-{}-{}.ndjson", ctx.workload, ctx.seed));
        match ctx.tracer.write_ndjson(&path) {
            Ok(n) => println!(r#"{{"trace_file":"{}","spans":{n}}}"#, path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        let by_name: BTreeMap<&str, &Metric> =
            out.layers.iter().map(|m| (m.name.as_str(), m)).collect();
        LAYERS
            .iter()
            .chain([&OVERHEAD])
            .map(|&(name, unit, moves, on)| {
                let value = by_name.get(name).map_or(f64::NAN, |m| m.value);
                println!(
                    r#"{{"layer_metric":"{name}","value":{},"unit":"{unit}","moves":"{moves}","on":"{on}"}}"#,
                    json_num(value)
                );
                metric(name, value, unit)
            })
            .collect()
    } else {
        let mut m =
            vec![metric("setup_s", setup.setup_s, "s"), metric("peak_rss_mb", peak_rss, "MB")];
        m.extend(out.e2e.iter().cloned());
        m
    };

    let all_present = metrics.iter().all(|m| m.value.is_finite());
    if !all_present {
        eprintln!("perfbench: a metric was not measured");
    }
    let correct = all_present && out.checks.iter().all(|c| c.ok);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!(r#""{}":{{"value":{},"unit":"{}"}}"#, m.name, json_num(m.value), m.unit))
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
}
