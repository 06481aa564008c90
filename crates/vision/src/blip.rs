//! BLIP-lite: deep multimodal fusion of an image and its caption.
//!
//! The paper forms `C_xg = BLIP(X_i, G_i)` by cross-attending BERT text
//! features over ViT image features. This module reproduces that wiring
//! at small scale: caption tokens (queries) attend over image patch
//! tokens (keys/values) through multi-head cross-attention, and the
//! attended sequence is pooled and projected into the condition space.
//! Its parameters are trained jointly with the diffusion model, exactly
//! as Eq. (6) prescribes for the condition-vector parameters. The
//! cross-attention stack runs on the sharded parallel kernel layer and
//! produces bit-identical fusions at every thread count.

use crate::encoders::{ImageEncoder, TextEncoder};
use crate::VisionConfig;
use aero_nn::layers::{LayerNorm, Linear, MultiHeadAttention};
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use rand::Rng;

/// BLIP-lite fusion encoder.
#[derive(Debug, Clone)]
pub struct BlipFusion {
    image_encoder: ImageEncoder,
    text_encoder: TextEncoder,
    cross_attn: MultiHeadAttention,
    norm: LayerNorm,
    proj: Linear,
    config: VisionConfig,
}

impl BlipFusion {
    /// Creates an untrained fusion encoder.
    pub fn new<R: Rng + ?Sized>(vocab: usize, config: VisionConfig, rng: &mut R) -> Self {
        let d = config.embed_dim;
        BlipFusion {
            image_encoder: ImageEncoder::new(config, rng),
            text_encoder: TextEncoder::new(vocab, config, rng),
            cross_attn: MultiHeadAttention::new(d, config.attention_heads(), rng),
            norm: LayerNorm::new(d),
            proj: Linear::new(d, d, rng),
            config,
        }
    }

    /// The fused representation `C_xg`: `([n, 3, s, s], tokens) → [n, d]`.
    ///
    /// # Panics
    ///
    /// Panics if batch sizes or geometries mismatch.
    pub fn fuse(&self, images: &Var, tokens: &[Vec<usize>]) -> Var {
        let n = images.shape()[0];
        assert_eq!(n, tokens.len(), "blip fusion batch mismatch");
        let d = self.config.embed_dim;
        let text = self.text_encoder.token_features(tokens); // [n, L, d]
        let patches = self.image_encoder.patch_tokens(images); // [n, g², d]
        let attended = text.add(&self.cross_attn.forward(&text, &patches));
        let len = self.config.max_text_len;
        let pooled = attended.mean_axis_keepdim(1).reshape(&[n, d]);
        let _ = len;
        self.proj.forward(&self.norm.forward(&pooled))
    }

    /// Convenience wrapper over constant (non-trainable) image input.
    pub fn fuse_tensors(&self, images: &Tensor, tokens: &[Vec<usize>]) -> Var {
        self.fuse(&Var::constant(images.clone()), tokens)
    }

    /// The configuration.
    pub fn config(&self) -> &VisionConfig {
        &self.config
    }
}

impl Module for BlipFusion {
    fn params(&self) -> Vec<Var> {
        let mut p = self.image_encoder.params();
        p.extend(self.text_encoder.params());
        p.extend(self.cross_attn.params());
        p.extend(self.norm.params());
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
    fn fusion_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = VisionConfig::tiny();
        let blip = BlipFusion::new(30, cfg, &mut rng);
        let imgs = Tensor::randn(&[2, 3, cfg.image_size, cfg.image_size], &mut rng);
        let toks = vec![vec![1; cfg.max_text_len], vec![2; cfg.max_text_len]];
        assert_eq!(blip.fuse_tensors(&imgs, &toks).shape(), vec![2, cfg.embed_dim]);
    }

    #[test]
    fn fusion_depends_on_both_modalities() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = VisionConfig::tiny();
        let blip = BlipFusion::new(30, cfg, &mut rng);
        let img_a = Tensor::randn(&[1, 3, cfg.image_size, cfg.image_size], &mut rng);
        let img_b = Tensor::randn(&[1, 3, cfg.image_size, cfg.image_size], &mut rng);
        let tok_a = vec![vec![3; cfg.max_text_len]];
        let tok_b = vec![vec![7; cfg.max_text_len]];
        let base = blip.fuse_tensors(&img_a, &tok_a).to_tensor();
        let image_changed = blip.fuse_tensors(&img_b, &tok_a).to_tensor();
        let text_changed = blip.fuse_tensors(&img_a, &tok_b).to_tensor();
        assert!(base.sub(&image_changed).abs().max() > 1e-6, "image must matter");
        assert!(base.sub(&text_changed).abs().max() > 1e-6, "text must matter");
    }

    #[test]
    fn fusion_is_trainable_end_to_end() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = VisionConfig::tiny();
        let blip = BlipFusion::new(30, cfg, &mut rng);
        let imgs = Tensor::randn(&[1, 3, cfg.image_size, cfg.image_size], &mut rng);
        blip.fuse_tensors(&imgs, &[vec![1; cfg.max_text_len]]).sum().backward();
        // fuse() routes images through the patch head and text through
        // token features, so the two unused pooled-projection heads (image
        // global proj + text sentence proj, 2 params each) are exempt.
        let with_grad = blip.params().iter().filter(|p| p.grad().is_some()).count();
        assert!(
            blip.params().len() - with_grad <= 4,
            "only the unused pooled heads may lack grads ({with_grad}/{})",
            blip.params().len()
        );
    }
}
