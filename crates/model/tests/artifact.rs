//! End-to-end artifact tests over a real (smoke-trained) pipeline:
//! f32 round trips are byte-identical down to the sampled image, q8
//! artifacts hit the size budget, and corrupted files are rejected with
//! typed errors before any decode.

use aero_model::{write_snapshot, IntegrityState, ModelRegistry};
use aero_nn::amdl::{DType, ModelArtifact, PersistError};
use aero_scene::{build_dataset, AerialDataset, DatasetConfig, SceneGeneratorConfig};
use aerodiffusion::{AeroDiffusionPipeline, PipelineConfig, PipelineSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;

fn tiny_dataset() -> AerialDataset {
    build_dataset(&DatasetConfig {
        n_scenes: 3,
        image_size: PipelineConfig::smoke().vision.image_size,
        seed: 77,
        generator: SceneGeneratorConfig { min_objects: 4, max_objects: 6, night_probability: 0.0 },
    })
}

fn trained() -> (AerialDataset, AeroDiffusionPipeline, PipelineSnapshot) {
    let ds = tiny_dataset();
    let pipeline = AeroDiffusionPipeline::fit(&ds, PipelineConfig::smoke(), 23);
    let snapshot = pipeline.snapshot();
    (ds, pipeline, snapshot)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aero_model_e2e_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn f32_artifact_round_trip_samples_byte_identically() {
    let (ds, pipeline, snapshot) = trained();
    let dir = temp_dir("f32_round_trip");
    let path = dir.join("model.amdl");

    let report = write_snapshot(&snapshot, DType::F32, &path).unwrap();
    assert_eq!(report.max_abs_error, 0.0, "f32 export is lossless");

    // Export must be byte-stable: same snapshot, same bytes.
    let first = fs::read(&path).unwrap();
    write_snapshot(&snapshot, DType::F32, &path).unwrap();
    assert_eq!(first, fs::read(&path).unwrap(), "export must be deterministic");

    let artifact = ModelArtifact::read(&path).unwrap();
    assert!(artifact.is_mapped(), "file load should take the mmap path");
    let reloaded = PipelineSnapshot::from_artifact(&artifact).unwrap();

    // The reassembled snapshot carries the exact weights…
    for ((name_a, tensors_a), (name_b, tensors_b)) in
        snapshot.module_tensors().iter().zip(reloaded.module_tensors().iter())
    {
        assert_eq!(name_a, name_b);
        assert_eq!(tensors_a, tensors_b, "module {name_a} must round trip byte-identically");
    }

    // …so replicas hydrated from either source sample identically.
    let replica = reloaded.hydrate().unwrap();
    let a = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(11));
    let b = replica.generate(&ds.items[0], &mut StdRng::seed_from_u64(11));
    assert_eq!(a, b, "artifact round trip must not change sampling output");
}

#[test]
fn q8_artifact_meets_size_budget_and_hydrates() {
    let (ds, _pipeline, snapshot) = trained();
    let dir = temp_dir("q8_budget");
    let f32_path = dir.join("model-f32.amdl");
    let q8_path = dir.join("model-q8.amdl");

    write_snapshot(&snapshot, DType::F32, &f32_path).unwrap();
    let report = write_snapshot(&snapshot, DType::Q8, &q8_path).unwrap();

    // The smoke preset's layers are narrower than one q8 block (rows of
    // 4–8 elements), so per-block scale overhead dominates; the ≤30%
    // budget at realistic widths is asserted in
    // `q8_meets_size_budget_at_realistic_layer_widths` below. Here the
    // quantized artifact must still be a clear win.
    let f32_len = fs::metadata(&f32_path).unwrap().len();
    let q8_len = fs::metadata(&q8_path).unwrap().len();
    assert!(
        q8_len * 2 <= f32_len,
        "q8 artifact must be <= 50% of f32 even at smoke widths ({q8_len} vs {f32_len} bytes)"
    );

    assert!(!report.layers.is_empty(), "per-layer report must cover the tensors");
    assert!(report.max_abs_error.is_finite());
    assert!(report.mean_abs_error <= report.max_abs_error);

    // A q8 snapshot is lossy but must still hydrate and sample finitely.
    let artifact = ModelArtifact::read(&q8_path).unwrap();
    let replica = PipelineSnapshot::from_artifact(&artifact).unwrap().hydrate().unwrap();
    let img = replica.generate(&ds.items[0], &mut StdRng::seed_from_u64(3));
    let t = img.to_tensor();
    assert!(t.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn q8_meets_size_budget_at_realistic_layer_widths() {
    use aero_nn::amdl::ArtifactBuilder;
    use aero_tensor::{Q8Tensor, Tensor};
    use rand::Rng;

    let mut rng = StdRng::seed_from_u64(5);
    let shapes: [&[usize]; 4] = [&[128, 256], &[256, 64], &[32, 32, 32], &[512]];
    let tensors: Vec<Tensor> = shapes
        .iter()
        .map(|s| {
            let n: usize = s.iter().product();
            let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Tensor::from_vec(data, s)
        })
        .collect();

    let mut dense = ArtifactBuilder::new();
    let mut quantized = ArtifactBuilder::new();
    for (i, t) in tensors.iter().enumerate() {
        dense.add_f32(&format!("layer.{i}"), t);
        quantized.add_q8(&format!("layer.{i}"), &Q8Tensor::quantize(t));
    }
    let f32_len = dense.to_bytes().len();
    let q8_len = quantized.to_bytes().len();
    assert!(
        q8_len * 10 <= f32_len * 3,
        "q8 artifact must be <= 30% of f32 at block-sized widths ({q8_len} vs {f32_len} bytes)"
    );
}

#[test]
fn corrupted_artifacts_are_rejected_with_typed_errors() {
    let (_ds, _pipeline, snapshot) = trained();
    let dir = temp_dir("corruption");
    let path = dir.join("model.amdl");
    write_snapshot(&snapshot, DType::Q8, &path).unwrap();
    let good = fs::read(&path).unwrap();

    // Single bit flip anywhere (sampled positions) trips the CRC.
    for pos in (0..good.len()).step_by(good.len() / 23 + 1) {
        let mut bad = good.clone();
        bad[pos] ^= 0x04;
        match ModelArtifact::from_bytes(bad) {
            Err(PersistError::Corrupt { .. } | PersistError::VersionMismatch { .. }) => {}
            other => panic!("bit flip at {pos} must be rejected, got {other:?}"),
        }
    }

    // Truncation at any sampled length is rejected, never a panic.
    for len in (0..good.len()).step_by(good.len() / 17 + 1) {
        let err = ModelArtifact::from_bytes(good[..len].to_vec()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }), "truncated to {len}: {err:?}");
    }
}

#[test]
fn registry_publishes_and_serves_real_artifacts() {
    let (ds, pipeline, snapshot) = trained();
    let dir = temp_dir("registry");
    let registry = ModelRegistry::open(&dir).unwrap();

    let (bytes, _report) = aero_model::export_snapshot(&snapshot, DType::F32);
    let entry = registry.publish("smoke", &bytes).unwrap();
    assert_eq!((entry.name.as_str(), entry.version), ("smoke", 1));
    assert_eq!(registry.verify(&entry).unwrap(), IntegrityState::Verified);

    let resolved = registry.resolve("smoke", None).unwrap();
    let artifact = registry.open_artifact(&resolved).unwrap();
    let replica = PipelineSnapshot::from_artifact(&artifact).unwrap().hydrate().unwrap();
    let a = pipeline.generate(&ds.items[0], &mut StdRng::seed_from_u64(29));
    let b = replica.generate(&ds.items[0], &mut StdRng::seed_from_u64(29));
    assert_eq!(a, b, "registry-served model must sample like the original");
}
