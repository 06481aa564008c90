//! Snapshot export with a quantization-error report.
//!
//! The artifact layout itself belongs to `aerodiffusion`
//! ([`PipelineSnapshot::to_artifact`]); a saved pipeline directory holds
//! exactly the `f32` form. This module adds what only exports need: a
//! [`QuantReport`] with per-layer max/mean absolute reconstruction error,
//! published to `aero_obs` gauges (`model.quant.*`), and
//! [`quality_delta`], an end-to-end comparison (FID and CLIP score of the
//! q8 pipeline against its f32 original over a synthetic eval split).

use aero_metrics::{fid, FeatureExtractor};
use aero_nn::amdl::{DType, ModelArtifact, PersistError};
use aero_scene::{build_dataset, DatasetConfig, SceneGeneratorConfig};
use aero_tensor::{Q8Tensor, Tensor};
use aerodiffusion::PipelineSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reconstruction error of one quantized layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerError {
    /// Tensor name (`<module>.<index>`).
    pub name: String,
    /// Element count of the layer.
    pub numel: usize,
    /// Worst-case absolute dequantization error.
    pub max_abs_error: f32,
    /// Mean absolute dequantization error.
    pub mean_abs_error: f32,
}

/// The export-time quantization report.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantReport {
    /// Storage mode of the export.
    pub quantization: DType,
    /// Per-layer reconstruction errors (empty for `f32` exports).
    pub layers: Vec<LayerError>,
    /// Bytes the weight data would occupy stored dense.
    pub f32_data_bytes: usize,
    /// Total artifact file size (header + metadata + data + CRC).
    pub artifact_bytes: usize,
    /// Worst per-element error across all layers.
    pub max_abs_error: f32,
    /// Element-weighted mean absolute error across all layers.
    pub mean_abs_error: f32,
}

impl QuantReport {
    /// Artifact size as a fraction of the dense (`f32`) data size.
    #[must_use]
    pub fn size_ratio(&self) -> f64 {
        if self.f32_data_bytes == 0 {
            0.0
        } else {
            self.artifact_bytes as f64 / self.f32_data_bytes as f64
        }
    }
}

/// Renders a snapshot to artifact bytes with every weight stored as
/// `dtype`, returning the bytes and the quantization report.
/// Deterministic: the same snapshot and mode always produce identical
/// bytes, and an `f32` export is byte-identical to the snapshot's saved
/// pipeline file.
#[must_use]
pub fn export_snapshot(snapshot: &PipelineSnapshot, dtype: DType) -> (Vec<u8>, QuantReport) {
    let bytes = snapshot.to_artifact(dtype).to_bytes();
    let mut layers = Vec::new();
    let mut max_abs = 0.0f32;
    let mut err_sum = 0.0f64;
    let mut total_elems = 0usize;
    if dtype == DType::Q8 {
        for (module, tensors) in snapshot.module_tensors() {
            for (i, t) in tensors.iter().enumerate() {
                let (layer_max, layer_mean) = Q8Tensor::quantize(t).reconstruction_error(t);
                max_abs = max_abs.max(layer_max);
                err_sum += f64::from(layer_mean) * t.numel() as f64;
                total_elems += t.numel();
                layers.push(LayerError {
                    name: format!("{module}.{i}"),
                    numel: t.numel(),
                    max_abs_error: layer_max,
                    mean_abs_error: layer_mean,
                });
            }
        }
    }
    let report = QuantReport {
        quantization: dtype,
        layers,
        f32_data_bytes: snapshot.weight_bytes(),
        artifact_bytes: bytes.len(),
        max_abs_error: max_abs,
        mean_abs_error: if total_elems == 0 { 0.0 } else { (err_sum / total_elems as f64) as f32 },
    };
    aero_obs::counter!("model.export.count").inc();
    aero_obs::gauge!("model.export.artifact_bytes").set(report.artifact_bytes as f64);
    if dtype == DType::Q8 {
        aero_obs::gauge!("model.quant.max_abs_error").set(f64::from(report.max_abs_error));
        aero_obs::gauge!("model.quant.mean_abs_error").set(f64::from(report.mean_abs_error));
        aero_obs::gauge!("model.quant.size_ratio").set(report.size_ratio());
    }
    (bytes, report)
}

/// Exports a snapshot to an artifact file, crash-safely.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_snapshot(
    snapshot: &PipelineSnapshot,
    dtype: DType,
    path: &std::path::Path,
) -> Result<QuantReport, PersistError> {
    let (bytes, report) = export_snapshot(snapshot, dtype);
    aero_nn::integrity::write_atomic(path, &bytes)?;
    Ok(report)
}

/// End-to-end quality cost of q8 quantization for one snapshot: FID and
/// CLIP score of the f32 pipeline vs its q8 round trip, over a
/// `scenes`-item synthetic eval split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityDelta {
    /// FID of the f32 pipeline's generations against the eval renders.
    pub fid_f32: f32,
    /// FID of the q8 pipeline's generations against the eval renders.
    pub fid_q8: f32,
    /// CLIP score of the f32 pipeline's generations.
    pub clip_f32: f32,
    /// CLIP score of the q8 pipeline's generations.
    pub clip_q8: f32,
}

impl QualityDelta {
    /// `fid_q8 - fid_f32` (positive = quantization hurt FID).
    #[must_use]
    pub fn fid_delta(&self) -> f32 {
        self.fid_q8 - self.fid_f32
    }

    /// `clip_q8 - clip_f32` (negative = quantization hurt CLIP score).
    #[must_use]
    pub fn clip_delta(&self) -> f32 {
        self.clip_q8 - self.clip_f32
    }
}

/// Measures the end-to-end FID/CLIP-score delta of a snapshot's q8
/// export against its f32 original. Expensive (hydrates two replicas
/// and generates `scenes` images with each); exports run it only when
/// asked.
///
/// Results are published to the `model.quant.fid_delta` and
/// `model.quant.clip_delta` gauges.
///
/// # Errors
///
/// Propagates hydration failures; FID numerical failures surface as
/// [`PersistError::Meta`].
///
/// # Panics
///
/// Panics if `scenes` is zero (FID needs a nonempty eval set).
pub fn quality_delta(
    snapshot: &PipelineSnapshot,
    scenes: usize,
    seed: u64,
) -> Result<QualityDelta, PersistError> {
    assert!(scenes > 0, "quality_delta needs at least one eval scene");
    let (bytes, _) = export_snapshot(snapshot, DType::Q8);
    let q8_snapshot = PipelineSnapshot::from_artifact(&ModelArtifact::from_bytes(bytes)?)?;

    let config = *snapshot.config();
    let ds = build_dataset(&DatasetConfig {
        n_scenes: scenes,
        image_size: config.vision.image_size,
        seed,
        generator: SceneGeneratorConfig::default(),
    });
    let real: Vec<Tensor> = ds.items.iter().map(|it| it.rendered.image.to_tensor()).collect();
    let extractor = FeatureExtractor::new(config.vision.base_channels.max(4));

    let run = |snap: &PipelineSnapshot| -> Result<(f32, f32), PersistError> {
        let pipeline = snap.hydrate()?;
        let images = pipeline.generate_eval(&ds, &mut StdRng::seed_from_u64(seed));
        let gen: Vec<Tensor> = images.iter().map(aero_scene::Image::to_tensor).collect();
        let fid_score = fid(&extractor, &real, &gen)
            .map_err(|e| PersistError::Meta(format!("fid failed: {e}")))?;
        let captions: Vec<String> = ds
            .items
            .iter()
            .map(|it| pipeline.caption_for(it, &mut StdRng::seed_from_u64(seed)))
            .collect();
        let clip = pipeline.clip_score(&images, &captions);
        Ok((fid_score, clip))
    };

    let (fid_f32, clip_f32) = run(snapshot)?;
    let (fid_q8, clip_q8) = run(&q8_snapshot)?;
    let delta = QualityDelta { fid_f32, fid_q8, clip_f32, clip_q8 };
    aero_obs::gauge!("model.quant.fid_delta").set(f64::from(delta.fid_delta()));
    aero_obs::gauge!("model.quant.clip_delta").set(f64::from(delta.clip_delta()));
    Ok(delta)
}
