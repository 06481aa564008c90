//! Persistence of trained pipelines.
//!
//! A trained [`AeroDiffusionPipeline`] is written as one `.amdl`
//! artifact (see [`aero_nn::amdl`]), `<dir>/pipeline.amdl`. The
//! key/value section carries the exact configuration (bit-pattern
//! `key=value` codec), the metadata, the vocabulary and the thread
//! policy; every module's weights are tensors named `<module>.<index>`
//! in [`MODULE_NAMES`] order. The same layout, stored dense or q8, is
//! what `aero-model` exports and what a serving registry holds, so a
//! saved pipeline *is* an `f32` model artifact.
//!
//! The artifact is written atomically (tmp + rename) and its trailing
//! CRC32 is verified before anything is decoded, so a bit flip surfaces
//! as [`PersistError::Corrupt`] rather than as a garbage model.

use crate::ablation::AblationVariant;
use crate::config::PipelineConfig;
use crate::pipeline::AeroDiffusionPipeline;
use crate::snapshot::{PipelineSnapshot, MODULE_NAMES};
use aero_nn::amdl::{ArtifactBuilder, DType, ModelArtifact};
use aero_tensor::parallel::ParallelConfig;
use aero_tensor::{Q8Tensor, Tensor};
use aero_text::llm::LlmProvider;
use aero_text::tokenizer::Vocabulary;
use std::path::Path;

pub use aero_nn::amdl::PersistError;

/// The file a pipeline directory holds.
pub const PIPELINE_FILE: &str = "pipeline.amdl";

const KEY_QUANT: &str = "aero.quantization";
const KEY_CONFIG: &str = "aero.config";
const KEY_MAX_LEN: &str = "aero.meta.max_len";
const KEY_LATENT_SCALE: &str = "aero.meta.latent_scale";
const KEY_PROVIDER: &str = "aero.meta.provider";
const KEY_VARIANT: &str = "aero.meta.variant";
const KEY_THREADS: &str = "aero.parallel.threads";
const KEY_VOCAB: &str = "aero.vocab";

fn module_count_key(module: &str) -> String {
    format!("aero.module.{module}.count")
}

/// The dataset-independent state restored on load.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineMeta {
    /// Token sequence length.
    pub max_len: usize,
    /// VAE latent scale.
    pub latent_scale: f32,
    /// Caption provider.
    pub provider: LlmProvider,
    /// Ablation variant.
    pub variant: AblationVariant,
}

/// Rebuilds a [`Vocabulary`] with identical ids from its word list: the
/// non-special words are fed with descending artificial frequency so
/// `Vocabulary::build` preserves order.
pub(crate) fn vocab_from_words<S: AsRef<str>>(words: &[S]) -> Result<Vocabulary, PersistError> {
    if words.len() < 4 {
        return Err(PersistError::Meta("vocabulary too short".into()));
    }
    let mut corpus = String::new();
    let content = &words[4..];
    for (i, w) in content.iter().enumerate() {
        for _ in 0..(content.len() - i) {
            corpus.push_str(w.as_ref());
            corpus.push(' ');
        }
    }
    let vocab = Vocabulary::build([corpus.as_str()], 1);
    // sanity: ids must round-trip
    for (i, w) in words.iter().enumerate() {
        if vocab.word(i) != w.as_ref() {
            return Err(PersistError::Meta(format!(
                "vocabulary order not reproducible at id {i}: {:?} vs {:?}",
                w.as_ref(),
                vocab.word(i)
            )));
        }
    }
    Ok(vocab)
}

/// The stable on-disk tag for a caption provider.
#[must_use]
pub fn provider_tag(provider: LlmProvider) -> &'static str {
    match provider {
        LlmProvider::KeypointAware => "keypoint",
        LlmProvider::GeminiLike => "gemini",
        LlmProvider::Gpt4oLike => "gpt4o",
        LlmProvider::BlipCaption => "blip",
    }
}

/// Parses a [`provider_tag`] back to its provider.
///
/// # Errors
///
/// Returns [`PersistError::Meta`] on an unknown tag.
pub fn parse_provider_tag(tag: &str) -> Result<LlmProvider, PersistError> {
    match tag {
        "keypoint" => Ok(LlmProvider::KeypointAware),
        "gemini" => Ok(LlmProvider::GeminiLike),
        "gpt4o" => Ok(LlmProvider::Gpt4oLike),
        "blip" => Ok(LlmProvider::BlipCaption),
        other => Err(PersistError::Meta(format!("unknown provider {other}"))),
    }
}

/// The stable on-disk tag for an ablation variant.
#[must_use]
pub fn variant_tag(variant: AblationVariant) -> &'static str {
    match variant {
        AblationVariant::BaseSd => "base_sd",
        AblationVariant::WithBlip => "with_blip",
        AblationVariant::WithKeypointText => "with_keypoint_text",
        AblationVariant::Full => "full",
    }
}

/// Parses a [`variant_tag`] back to its variant.
///
/// # Errors
///
/// Returns [`PersistError::Meta`] on an unknown tag.
pub fn parse_variant_tag(tag: &str) -> Result<AblationVariant, PersistError> {
    match tag {
        "base_sd" => Ok(AblationVariant::BaseSd),
        "with_blip" => Ok(AblationVariant::WithBlip),
        "with_keypoint_text" => Ok(AblationVariant::WithKeypointText),
        "full" => Ok(AblationVariant::Full),
        other => Err(PersistError::Meta(format!("unknown variant {other}"))),
    }
}

/// A convenience: config hash so loads against a different geometry fail
/// fast with a clear message instead of a shape mismatch deep inside.
pub(crate) fn config_fingerprint(config: &PipelineConfig) -> String {
    format!(
        "s{}d{}c{}t{}u{}",
        config.vision.image_size,
        config.vision.embed_dim,
        config.vision.base_channels,
        config.vision.max_text_len,
        config.unet_channels
    )
}

fn parse_f32_bits(key: &str, value: &str) -> Result<f32, PersistError> {
    let hex = value
        .strip_prefix("0x")
        .ok_or_else(|| PersistError::Meta(format!("{key} is not a bit pattern: {value}")))?;
    u32::from_str_radix(hex, 16)
        .map(f32::from_bits)
        .map_err(|e| PersistError::Meta(format!("bad {key}: {e}")))
}

impl PipelineSnapshot {
    /// Lays the snapshot out as an artifact, every weight tensor stored
    /// as `dtype`. Deterministic: metadata keys are sorted, tensor order
    /// is the fixed module order and quantization is deterministic, so
    /// the same snapshot always renders the same bytes.
    #[must_use]
    pub fn to_artifact(&self, dtype: DType) -> ArtifactBuilder {
        let mut builder = ArtifactBuilder::new();
        builder.set(KEY_QUANT, dtype.tag());
        builder.set(KEY_CONFIG, &self.config().render_kv());
        let meta = self.meta();
        builder.set(KEY_MAX_LEN, &meta.max_len.to_string());
        builder.set(KEY_LATENT_SCALE, &format!("0x{:08x}", meta.latent_scale.to_bits()));
        builder.set(KEY_PROVIDER, provider_tag(meta.provider));
        builder.set(KEY_VARIANT, variant_tag(meta.variant));
        builder.set(KEY_THREADS, &self.parallel().threads().to_string());
        builder.set(KEY_VOCAB, &self.vocab_words().join("\n"));
        for (module, tensors) in self.module_tensors() {
            builder.set(&module_count_key(module), &tensors.len().to_string());
            for (i, t) in tensors.iter().enumerate() {
                let name = format!("{module}.{i}");
                match dtype {
                    DType::F32 => builder.add_f32(&name, t),
                    DType::Q8 => builder.add_q8(&name, &Q8Tensor::quantize(t)),
                }
            }
        }
        builder
    }

    /// Reassembles a snapshot from a verified artifact. For an `f32`
    /// artifact the snapshot is identical to the one written — replicas
    /// hydrated from it generate the same images. For a `q8` artifact
    /// the weights carry quantization error; everything else
    /// (config, vocabulary, metadata) is exact.
    ///
    /// # Errors
    ///
    /// [`PersistError::Meta`] on missing/malformed metadata,
    /// [`PersistError::Corrupt`] on undecodable tensor payloads.
    pub fn from_artifact(artifact: &ModelArtifact) -> Result<PipelineSnapshot, PersistError> {
        let config = PipelineConfig::parse_kv(artifact.require(KEY_CONFIG)?)
            .map_err(|e| PersistError::Meta(format!("config: {e}")))?;
        let meta = PipelineMeta {
            max_len: artifact.parse_value(KEY_MAX_LEN)?,
            latent_scale: parse_f32_bits(KEY_LATENT_SCALE, artifact.require(KEY_LATENT_SCALE)?)?,
            provider: parse_provider_tag(artifact.require(KEY_PROVIDER)?)?,
            variant: parse_variant_tag(artifact.require(KEY_VARIANT)?)?,
        };
        let threads: usize = artifact.parse_value(KEY_THREADS)?;
        let vocab = artifact.require(KEY_VOCAB)?.split('\n').map(str::to_string).collect();
        let mut modules: [Vec<Tensor>; 5] = Default::default();
        for (slot, module) in modules.iter_mut().zip(MODULE_NAMES) {
            let count = artifact.parse_value(&module_count_key(module))?;
            *slot = artifact.tensors(module, count)?;
        }
        Ok(PipelineSnapshot::from_parts(
            config,
            meta,
            ParallelConfig::with_threads(threads),
            vocab,
            modules,
        ))
    }
}

impl AeroDiffusionPipeline {
    /// Saves the trained pipeline as `dir/pipeline.amdl` (see
    /// [`crate::persist`] for the layout), creating `dir` if needed.
    /// Other files in `dir` are left alone.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save<P: AsRef<Path>>(&self, dir: P) -> Result<(), PersistError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        self.snapshot().to_artifact(DType::F32).write(&dir.join(PIPELINE_FILE))
    }

    /// Loads a pipeline saved by [`AeroDiffusionPipeline::save`]. The
    /// provided `config` must match the training configuration's
    /// geometry. Unlike [`PipelineSnapshot::hydrate`], loading leaves the
    /// calling thread's kernel policy alone.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a corrupt artifact, malformed metadata, a
    /// configuration fingerprint mismatch, or weight/shape mismatches.
    pub fn load<P: AsRef<Path>>(dir: P, config: PipelineConfig) -> Result<Self, PersistError> {
        let artifact = ModelArtifact::read(&dir.as_ref().join(PIPELINE_FILE))?;
        let snapshot = PipelineSnapshot::from_artifact(&artifact)?;
        let (saved, requested) =
            (config_fingerprint(snapshot.config()), config_fingerprint(&config));
        if saved != requested {
            return Err(PersistError::Meta(format!(
                "config fingerprint mismatch: saved {saved}, requested {requested}"
            )));
        }
        snapshot.build(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> PipelineMeta {
        PipelineMeta {
            max_len: 24,
            latent_scale: 1.25,
            provider: LlmProvider::GeminiLike,
            variant: AblationVariant::WithKeypointText,
        }
    }

    fn weightless_snapshot() -> PipelineSnapshot {
        let vocab = Vocabulary::build(["the car drives past the tree on the road"], 1);
        let words = (0..vocab.len()).map(|id| vocab.word(id).to_string()).collect();
        PipelineSnapshot::from_parts(
            PipelineConfig::smoke(),
            meta(),
            ParallelConfig::with_threads(3),
            words,
            Default::default(),
        )
    }

    #[test]
    fn meta_round_trip() {
        let snapshot = weightless_snapshot();
        let bytes = snapshot.to_artifact(DType::F32).to_bytes();
        let back = PipelineSnapshot::from_artifact(&ModelArtifact::from_bytes(bytes).unwrap());
        assert_eq!(back.unwrap(), snapshot);
    }

    #[test]
    fn vocab_round_trip() {
        let vocab = Vocabulary::build(["the car drives past the tree on the road"], 1);
        let words: Vec<&str> = (0..vocab.len()).map(|id| vocab.word(id)).collect();
        let rebuilt = vocab_from_words(&words).unwrap();
        for id in 0..vocab.len() {
            assert_eq!(rebuilt.word(id), vocab.word(id), "id {id}");
        }
    }

    #[test]
    fn meta_rejects_garbage() {
        let mut builder = weightless_snapshot().to_artifact(DType::F32);
        builder.set(KEY_PROVIDER, "alien");
        let artifact = ModelArtifact::from_bytes(builder.to_bytes()).unwrap();
        assert!(matches!(PipelineSnapshot::from_artifact(&artifact), Err(PersistError::Meta(_))));
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = config_fingerprint(&PipelineConfig::smoke());
        let b = config_fingerprint(&PipelineConfig::small());
        assert_ne!(a, b);
    }
}
