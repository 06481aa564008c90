//! Vision substrates for the AeroDiffusion reproduction.
//!
//! The paper leans on four pretrained vision systems that are not
//! available here, so this crate trains small equivalents from scratch on
//! the synthetic paired dataset:
//!
//! * [`clip::ClipModel`] — a CLIP-lite joint text–image embedding space,
//!   trained contrastively (InfoNCE) on (image, caption) pairs. It
//!   provides the `C_g = CLIP(G'_i)` conditioning branch and the CLIP
//!   score metric.
//! * [`blip::BlipFusion`] — a BLIP-lite deep fusion encoder: caption
//!   tokens cross-attend over image patch features, producing the
//!   `C_xg = BLIP(X_i, G_i)` branch.
//! * [`vae::Vae`] — the latent-space autoencoder (the paper uses the
//!   Stable Diffusion VAE) compressing `[3, s, s]` images to
//!   `[4, s/4, s/4]` latents.
//! * [`detector::YoloLite`] — a single-scale grid detector standing in
//!   for the YOLO model the paper trains on VisDrone, supplying the
//!   regions of interest for feature augmentation.
//!
//! All models share the [`VisionConfig`] geometry so the pipeline crate
//! can wire them together.

pub mod blip;
pub mod clip;
pub mod detector;
pub mod encoders;
pub mod eval;
pub mod vae;

/// Shared geometry for the vision substrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisionConfig {
    /// Square input image size (pixels).
    pub image_size: usize,
    /// Joint embedding dimensionality.
    pub embed_dim: usize,
    /// Base convolution width.
    pub base_channels: usize,
    /// Fixed token length for text inputs.
    pub max_text_len: usize,
}

impl Default for VisionConfig {
    fn default() -> Self {
        VisionConfig { image_size: 32, embed_dim: 32, base_channels: 8, max_text_len: 24 }
    }
}

impl VisionConfig {
    /// A minimal configuration for fast unit tests.
    pub fn tiny() -> Self {
        VisionConfig { image_size: 16, embed_dim: 16, base_channels: 4, max_text_len: 12 }
    }

    /// Head count of the text-encoder self-attention and the BLIP
    /// cross-attention: two once each head gets at least four channels,
    /// else one. `embed_dim` must be a multiple of it.
    #[must_use]
    pub fn attention_heads(&self) -> usize {
        2.min(self.embed_dim / 4).max(1)
    }
}
