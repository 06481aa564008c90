//! `lint_config` is proved against the real modules, not against a model
//! of them. For a sweep of configurations on both sides of every rule, a
//! config must lint clean exactly when the VAE, CLIP, BLIP fusion and
//! the UNet build and run a batch-2 forward without panicking.
//!
//! The broken configs panic inside the modules on purpose, so this file
//! is its own test binary: it silences the panic hook while it sweeps.

use aero_diffusion::CondUnet;
use aero_tensor::Tensor;
use aero_vision::blip::BlipFusion;
use aero_vision::clip::ClipModel;
use aero_vision::vae::Vae;
use aero_vision::VisionConfig;
use aerodiffusion::lint::{lint_config, unet_config};
use aerodiffusion::PipelineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const VOCAB: usize = 16;
const BATCH: usize = 2;

/// Builds every module `config` wires together and runs it the way
/// training does: the VAE round trip against its input, CLIP image and
/// text embeddings, BLIP fusion, and a UNet prediction on the VAE latent
/// conditioned on the three concatenated embedding blocks.
fn run_real_modules(config: &PipelineConfig) {
    let mut rng = StdRng::seed_from_u64(0);
    let v = config.vision;
    let images = Tensor::randn(&[BATCH, 3, v.image_size, v.image_size], &mut rng);
    let tokens: Vec<Vec<usize>> =
        (0..BATCH).map(|b| (0..v.max_text_len).map(|i| (b + i) % VOCAB).collect()).collect();

    let vae = Vae::new(v, &mut rng);
    let latent = vae.encode_tensor(&images);
    let _reconstruction_error = vae.decode_tensor(&latent).sub(&images);

    let clip = ClipModel::new(VOCAB, v, &mut rng);
    let blip = BlipFusion::new(VOCAB, v, &mut rng);
    let fused = blip.fuse_tensors(&images, &tokens).to_tensor();
    let cond =
        Tensor::concat(&[&fused, &clip.encode_image(&images), &clip.encode_text(&tokens)], 1);

    let unet = CondUnet::new(unet_config(config), &mut rng);
    let _noise = unet.predict(&latent, &[1; BATCH], Some(&cond));
}

/// 320 configs: every pairing of the image sizes and embedding widths
/// below, each with five settings of the other three sizes. Image sizes
/// 8/16/24/32 pass the multiple-of-8 rule; 6/18 fail it, and 12/28 fail
/// it while still being multiples of 4. Widths below 8 get one attention
/// head and always pass; 8/12 split over two heads, 9/15 cannot.
fn sweep() -> Vec<PipelineConfig> {
    const IMAGE: [usize; 8] = [6, 8, 12, 16, 18, 24, 28, 32];
    const EMBED: [usize; 8] = [1, 3, 4, 7, 8, 9, 12, 15];
    const BASE: [usize; 3] = [1, 3, 4];
    const UNET: [usize; 4] = [1, 2, 3, 6];
    const TEXT: [usize; 5] = [1, 2, 5, 8, 12];
    let mut configs = Vec::new();
    for &image_size in &IMAGE {
        for &embed_dim in &EMBED {
            for &max_text_len in &TEXT {
                let n = configs.len();
                let mut config = PipelineConfig::smoke();
                config.vision = VisionConfig {
                    image_size,
                    embed_dim,
                    base_channels: BASE[n % BASE.len()],
                    max_text_len,
                };
                config.unet_channels = UNET[(n / BASE.len()) % UNET.len()];
                configs.push(config);
            }
        }
    }
    configs
}

#[test]
fn lint_config_is_clean_exactly_when_the_real_modules_run() {
    let configs = sweep();
    std::panic::set_hook(Box::new(|_| {}));
    let verdicts: Vec<(bool, bool)> = configs
        .iter()
        .map(|c| {
            let runs = std::panic::catch_unwind(|| run_real_modules(c)).is_ok();
            (lint_config(c).is_clean(), runs)
        })
        .collect();
    drop(std::panic::take_hook());

    let disagreements: Vec<String> = configs
        .iter()
        .zip(&verdicts)
        .filter(|(_, (clean, runs))| clean != runs)
        .map(|(c, (clean, runs))| {
            format!(
                "{:?} unet_channels {}: lint clean {clean}, runs {runs}",
                c.vision, c.unet_channels
            )
        })
        .collect();
    assert!(disagreements.is_empty(), "lint and model disagree:\n{}", disagreements.join("\n"));
    let clean = verdicts.iter().filter(|(clean, _)| *clean).count();
    assert!(
        clean > 0 && clean < verdicts.len(),
        "the sweep must cover both verdicts ({clean} of {} clean)",
        verdicts.len()
    );
}
