//! Image and text encoders shared by CLIP-lite and BLIP-lite.

use crate::VisionConfig;
use aero_nn::layers::{Conv2d, Embedding, LayerNorm, Linear, MultiHeadAttention};
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use rand::Rng;

/// A small convolutional image encoder.
///
/// Two stride-2 convolutions (ViT-patchifier stand-in) produce a grid of
/// patch features; a projection head pools them into one embedding.
#[derive(Debug, Clone)]
pub struct ImageEncoder {
    conv1: Conv2d,
    conv2: Conv2d,
    proj: Linear,
    patch_proj: Linear,
    config: VisionConfig,
}

impl ImageEncoder {
    /// Creates an encoder for the configured geometry.
    pub fn new<R: Rng + ?Sized>(config: VisionConfig, rng: &mut R) -> Self {
        let c = config.base_channels;
        let grid = config.image_size / 4;
        ImageEncoder {
            conv1: Conv2d::new(3, c, 3, 2, 1, rng),
            conv2: Conv2d::new(c, 2 * c, 3, 2, 1, rng),
            proj: Linear::new(2 * c * grid * grid, config.embed_dim, rng),
            patch_proj: Linear::new(2 * c, config.embed_dim, rng),
            config,
        }
    }

    /// The feature-grid side length (`image_size / 4`).
    pub fn grid(&self) -> usize {
        self.config.image_size / 4
    }

    /// Global embedding of a batch: `[n, 3, s, s] → [n, d]`.
    ///
    /// # Panics
    ///
    /// Panics if the input geometry does not match the configuration.
    pub fn embed(&self, images: &Var) -> Var {
        let shape = images.shape();
        assert_eq!(shape[1], 3, "image encoder expects RGB input");
        assert_eq!(shape[2], self.config.image_size, "image size mismatch");
        let n = shape[0];
        let h = self.conv1.forward(images).silu();
        let h = self.conv2.forward(&h).silu();
        let grid = self.grid();
        let flat = h.reshape(&[n, 2 * self.config.base_channels * grid * grid]);
        self.proj.forward(&flat)
    }

    /// Patch-token features of a batch: `[n, 3, s, s] → [n, g², d]`.
    ///
    /// These play the role of ViT patch embeddings inside BLIP fusion and
    /// of the region features `f_{X_i,r}` in the augmentation module.
    ///
    /// # Panics
    ///
    /// Panics if the input geometry does not match the configuration.
    pub fn patch_tokens(&self, images: &Var) -> Var {
        let n = images.shape()[0];
        let h = self.conv1.forward(images).silu();
        let h = self.conv2.forward(&h).silu();
        let grid = self.grid();
        let c = 2 * self.config.base_channels;
        // [n, c, g, g] -> [n, g*g, c]
        let tokens = h.reshape(&[n, c, grid * grid]).permute(&[0, 2, 1]);
        let flat = tokens.reshape(&[n * grid * grid, c]);
        self.patch_proj.forward(&flat).reshape(&[n, grid * grid, self.config.embed_dim])
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &VisionConfig {
        &self.config
    }
}

impl Module for ImageEncoder {
    fn params(&self) -> Vec<Var> {
        let mut p = self.conv1.params();
        p.extend(self.conv2.params());
        p.extend(self.proj.params());
        p.extend(self.patch_proj.params());
        p
    }
}

/// A small transformer text encoder (BERT-lite / CLIP-text-lite).
#[derive(Debug, Clone)]
pub struct TextEncoder {
    embedding: Embedding,
    positional: Var,
    attn: MultiHeadAttention,
    norm1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    norm2: LayerNorm,
    proj: Linear,
    config: VisionConfig,
}

impl TextEncoder {
    /// Creates an encoder over a vocabulary of `vocab` entries.
    pub fn new<R: Rng + ?Sized>(vocab: usize, config: VisionConfig, rng: &mut R) -> Self {
        let d = config.embed_dim;
        TextEncoder {
            embedding: Embedding::new(vocab, d, rng),
            positional: Var::parameter(
                Tensor::randn(&[config.max_text_len, d], rng).mul_scalar(0.02),
            ),
            attn: MultiHeadAttention::new(d, config.attention_heads(), rng),
            norm1: LayerNorm::new(d),
            ff1: Linear::new(d, 2 * d, rng),
            ff2: Linear::new(2 * d, d, rng),
            norm2: LayerNorm::new(d),
            proj: Linear::new(d, d, rng),
            config,
        }
    }

    /// Token-level features: batch of id sequences → `[n, len, d]`.
    ///
    /// # Panics
    ///
    /// Panics if any sequence length differs from `max_text_len`.
    pub fn token_features(&self, batch: &[Vec<usize>]) -> Var {
        let len = self.config.max_text_len;
        let n = batch.len();
        let mut flat_ids = Vec::with_capacity(n * len);
        for seq in batch {
            assert_eq!(seq.len(), len, "sequence length must equal max_text_len");
            flat_ids.extend_from_slice(seq);
        }
        let d = self.config.embed_dim;
        let emb = self.embedding.forward(&flat_ids).reshape(&[n, len, d]);
        let x = emb.add(&self.positional);
        // Pre-norm transformer block.
        let normed = self.norm_tokens(&self.norm1, &x, n, len, d);
        let attended = x.add(&self.attn.forward(&normed, &normed));
        let normed2 = self.norm_tokens(&self.norm2, &attended, n, len, d);
        let ff = self
            .ff2
            .forward(&self.ff1.forward(&normed2.reshape(&[n * len, d])).gelu())
            .reshape(&[n, len, d]);
        attended.add(&ff)
    }

    fn norm_tokens(&self, norm: &LayerNorm, x: &Var, n: usize, len: usize, d: usize) -> Var {
        norm.forward(&x.reshape(&[n * len, d])).reshape(&[n, len, d])
    }

    /// Pooled sentence embedding: batch of id sequences → `[n, d]`.
    pub fn embed(&self, batch: &[Vec<usize>]) -> Var {
        let n = batch.len();
        let len = self.config.max_text_len;
        let d = self.config.embed_dim;
        let tokens = self.token_features(batch);
        let pooled = tokens.mean_axis_keepdim(1).reshape(&[n, d]);
        let _ = len;
        self.proj.forward(&pooled)
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &VisionConfig {
        &self.config
    }
}

impl Module for TextEncoder {
    fn params(&self) -> Vec<Var> {
        let mut p = self.embedding.params();
        p.push(self.positional.clone());
        p.extend(self.attn.params());
        p.extend(self.norm1.params());
        p.extend(self.ff1.params());
        p.extend(self.ff2.params());
        p.extend(self.norm2.params());
        p.extend(self.proj.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn image_embed_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = VisionConfig::tiny();
        let enc = ImageEncoder::new(cfg, &mut rng);
        let x = Var::constant(Tensor::randn(&[2, 3, 16, 16], &mut rng));
        assert_eq!(enc.embed(&x).shape(), vec![2, cfg.embed_dim]);
        assert_eq!(enc.patch_tokens(&x).shape(), vec![2, 16, cfg.embed_dim]);
    }

    #[test]
    fn text_embed_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = VisionConfig::tiny();
        let enc = TextEncoder::new(50, cfg, &mut rng);
        let batch = vec![vec![1usize; cfg.max_text_len], vec![2usize; cfg.max_text_len]];
        assert_eq!(enc.embed(&batch).shape(), vec![2, cfg.embed_dim]);
        assert_eq!(enc.token_features(&batch).shape(), vec![2, cfg.max_text_len, cfg.embed_dim]);
    }

    #[test]
    fn different_tokens_give_different_embeddings() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = VisionConfig::tiny();
        let enc = TextEncoder::new(50, cfg, &mut rng);
        let a = enc.embed(&[vec![5usize; cfg.max_text_len]]).to_tensor();
        let b = enc.embed(&[vec![9usize; cfg.max_text_len]]).to_tensor();
        assert!(a.sub(&b).abs().max() > 1e-6);
    }

    #[test]
    fn encoders_expose_all_params() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = VisionConfig::tiny();
        let img = ImageEncoder::new(cfg, &mut rng);
        let txt = TextEncoder::new(30, cfg, &mut rng);
        assert!(img.param_count() > 0);
        assert!(txt.param_count() > 0);
        // gradients reach every parameter
        let x = Var::constant(Tensor::randn(&[1, 3, 16, 16], &mut rng));
        // embed() exercises the global head, patch_tokens() the patch head;
        // together they must reach every parameter.
        img.embed(&x).sum().add(&img.patch_tokens(&x).sum()).backward();
        for p in img.params() {
            assert!(p.grad().is_some(), "image encoder param missing grad");
        }
        let loss = txt.embed(&[vec![1usize; cfg.max_text_len]]).sum();
        loss.backward();
        for p in txt.params() {
            assert!(p.grad().is_some(), "text encoder param missing grad");
        }
    }
}
