//! Pre-flight validation of a [`PipelineConfig`].
//!
//! [`lint_config`] checks the few arithmetic rules the real modules
//! impose on a configuration, so a misconfigured stack is reported with
//! stable `ADxxxx` diagnostics before anything trains. The rules are
//! proved against the modules themselves: the `config_lint_matches_model`
//! test builds the VAE, CLIP, BLIP and UNet for a sweep of configs and
//! requires that a config lints clean exactly when they run.

use crate::config::PipelineConfig;
use aero_analysis::{DiagCode, Report};

pub use aero_analysis::{lint_panicking_callsites, lint_source_all, Baseline, BaselineDiff};
use aero_diffusion::UnetConfig;
use aero_vision::vae::LATENT_CHANNELS;

/// The UNet configuration [`crate::pipeline::AeroDiffusionPipeline::fit`]
/// builds for `config` (kept in one place so the linter can never drift
/// from the constructor).
#[must_use]
pub fn unet_config(config: &PipelineConfig) -> UnetConfig {
    UnetConfig {
        in_channels: LATENT_CHANNELS,
        base_channels: config.unet_channels,
        cond_dim: config.cond_dim(),
        time_embed_dim: 32,
        cond_tokens: 3,
        spatial_cond_cells: (config.vision.image_size / 8) * (config.vision.image_size / 8),
    }
}

/// Validates `config`, returning the full diagnostic report:
///
/// - every vision size is positive (`AD0005` at `vision`);
/// - `image_size` is a multiple of 8, because the VAE's two stride-2
///   stages and the UNet's stride-2 downsample must round-trip through
///   upsampling (`AD0004` at `vision.image_size`);
/// - `embed_dim` is a multiple of [`aero_vision::VisionConfig::attention_heads`]
///   (`AD0004` at `vision.embed_dim`).
#[must_use]
pub fn lint_config(config: &PipelineConfig) -> Report {
    let mut report = Report::new();
    let v = &config.vision;
    if [v.image_size, v.base_channels, v.embed_dim, v.max_text_len].contains(&0) {
        report.push(
            DiagCode::InvalidConfig,
            "vision",
            format!(
                "image_size ({}), base_channels ({}), embed_dim ({}) and max_text_len ({}) \
                 must all be positive",
                v.image_size, v.base_channels, v.embed_dim, v.max_text_len
            ),
        );
    }
    if !v.image_size.is_multiple_of(8) {
        report.push(
            DiagCode::DivisibilityViolation,
            "vision.image_size",
            format!(
                "image_size ({}) must be a multiple of 8: two stride-2 VAE stages and the \
                 UNet's stride-2 downsample must round-trip through upsampling",
                v.image_size
            ),
        );
    }
    let heads = v.attention_heads();
    if !v.embed_dim.is_multiple_of(heads) {
        report.push(
            DiagCode::DivisibilityViolation,
            "vision.embed_dim",
            format!(
                "embed_dim ({}) must be a multiple of its {heads} attention heads",
                v.embed_dim
            ),
        );
    }
    report
}

/// Self-checks the persistence integrity machinery: the CRC32
/// implementation against the IEEE 802.3 check vector, an `.amdl`
/// round trip, and rejection of a truncated artifact and of an
/// unsupported format version. A build whose integrity primitives are
/// broken would silently accept corrupt checkpoints, so `lint --all`
/// verifies them up front.
#[must_use]
pub fn lint_checkpoint() -> Report {
    use aero_nn::amdl::{ArtifactBuilder, ModelArtifact, PersistError};
    use aero_nn::integrity::crc32;
    let mut report = Report::new();
    let mut require = |ok: bool, message: &str| {
        if !ok {
            report.push(DiagCode::InvalidConfig, "checkpoint", message);
        }
    };
    require(
        crc32(b"123456789") == 0xCBF4_3926,
        "crc32 must match the IEEE 802.3 check vector 0xCBF43926",
    );
    require(crc32(b"") == 0, "crc32 of empty input must be 0");
    let mut builder = ArtifactBuilder::new();
    builder.set("step", "42");
    builder.add_f32("param.0", &aero_tensor::Tensor::ones(&[3]));
    let bytes = builder.to_bytes();
    require(
        ModelArtifact::from_bytes(bytes.clone()).is_ok_and(|a| {
            a.value("step") == Some("42")
                && a.tensor("param.0").is_ok_and(|t| t.as_slice() == [1.0; 3])
        }),
        "an artifact must round-trip its metadata and tensors losslessly",
    );
    require(
        matches!(
            ModelArtifact::from_bytes(bytes[..bytes.len() - 1].to_vec()),
            Err(PersistError::Corrupt { .. })
        ),
        "a truncated artifact must be rejected as Corrupt",
    );
    let mut future = bytes;
    future[4..8].copy_from_slice(&999u32.to_le_bytes());
    let end = future.len() - 4;
    let crc = crc32(&future[..end]);
    future[end..].copy_from_slice(&crc.to_le_bytes());
    require(
        matches!(
            ModelArtifact::from_bytes(future),
            Err(PersistError::VersionMismatch { found: 999, .. })
        ),
        "unsupported format versions must be rejected as VersionMismatch",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_presets_lint_clean() {
        for (name, config) in [
            ("paper", PipelineConfig::paper()),
            ("small", PipelineConfig::small()),
            ("smoke", PipelineConfig::smoke()),
        ] {
            let report = lint_config(&config);
            assert!(report.is_clean(), "{name} preset:\n{}", report.render());
        }
    }

    #[test]
    fn checkpoint_integrity_machinery_lints_clean() {
        let report = lint_checkpoint();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn broken_vision_geometry_is_rejected() {
        let mut config = PipelineConfig::smoke();
        config.vision.image_size = 30; // not divisible by 4
        let report = lint_config(&config);
        assert!(!report.is_clean(), "expected diagnostics:\n{}", report.render());
    }

    /// The sites and codes of `report`'s diagnostics, in order.
    fn findings(report: &Report) -> Vec<(&'static str, &str)> {
        report.diagnostics().iter().map(|d| (d.code.code(), d.site.as_str())).collect()
    }

    #[test]
    fn each_rule_reports_its_own_site() {
        let mut config = PipelineConfig::smoke();
        config.vision.image_size = 36; // a multiple of 4 but not of 8
        assert_eq!(findings(&lint_config(&config)), [("AD0004", "vision.image_size")]);

        let mut config = PipelineConfig::smoke();
        config.vision.embed_dim = 9; // two heads cannot split 9 channels
        assert_eq!(findings(&lint_config(&config)), [("AD0004", "vision.embed_dim")]);

        let mut config = PipelineConfig::smoke();
        config.vision.image_size = 0;
        assert_eq!(findings(&lint_config(&config)), [("AD0005", "vision")]);
    }
}
