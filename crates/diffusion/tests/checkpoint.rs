//! End-to-end checkpoint/resume contract tests.
//!
//! The claim under test: a training run killed at an arbitrary step and
//! restarted with the same arguments lands on a *bit-identical*
//! parameter trajectory — because checkpoints carry the optimizer
//! moments, the RNG state, and the in-epoch batch order alongside the
//! weights — and a corrupt checkpoint is skipped in favor of the newest
//! valid one rather than trusted.

use aero_diffusion::{
    list_checkpoints, train_resumable, CheckpointConfig, CondUnet, DiffusionConfig,
    DiffusionTrainer, TrainBatch, TrainRunOptions, UnetConfig,
};
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;

const INIT_SEED: u64 = 11;
const TRAIN_SEED: u64 = 23;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aero_ckpt_{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tiny_unet() -> CondUnet {
    let mut rng = StdRng::seed_from_u64(INIT_SEED);
    CondUnet::new(
        UnetConfig {
            in_channels: 1,
            base_channels: 2,
            cond_dim: 0,
            time_embed_dim: 4,
            cond_tokens: 0,
            spatial_cond_cells: 0,
        },
        &mut rng,
    )
}

fn dataset() -> Vec<TrainBatch> {
    let mut rng = StdRng::seed_from_u64(77);
    (0..3).map(|_| TrainBatch { z0: Tensor::randn(&[2, 1, 8, 8], &mut rng), cond: None }).collect()
}

fn options(max_steps: Option<u64>) -> TrainRunOptions {
    TrainRunOptions { epochs: 3, lr: 1e-3, weight_decay: 1e-5, seed: TRAIN_SEED, max_steps }
}

fn param_values(unet: &CondUnet) -> Vec<Vec<f32>> {
    unet.params().iter().map(|p: &Var| p.to_tensor().as_slice().to_vec()).collect()
}

#[test]
fn killed_run_resumes_bit_identically() {
    let trainer = DiffusionTrainer::new(DiffusionConfig::small());
    let data = dataset();

    // Reference: one uninterrupted run.
    let ref_unet = tiny_unet();
    let ref_ckpt = CheckpointConfig::new(fresh_dir("reference"), 2);
    let ref_run = train_resumable(&trainer, &ref_unet, &data, &options(None), &ref_ckpt).unwrap();
    assert!(ref_run.completed);
    assert_eq!(ref_run.steps, 9, "3 epochs x 3 batches");
    let reference = param_values(&ref_unet);

    // Interrupted: same arguments, killed at step 5 (between the
    // checkpoints at steps 4 and 6), then restarted as a new "process"
    // with a freshly initialized model.
    let dir = fresh_dir("interrupted");
    let ckpt = CheckpointConfig::new(dir.clone(), 2);
    let unet_a = tiny_unet();
    let killed = train_resumable(&trainer, &unet_a, &data, &options(Some(5)), &ckpt).unwrap();
    assert!(!killed.completed);
    assert_eq!(killed.steps, 5);

    let unet_b = tiny_unet();
    let resumed = train_resumable(&trainer, &unet_b, &data, &options(None), &ckpt).unwrap();
    assert_eq!(resumed.resumed_from, Some(4), "newest checkpoint before the kill is step 4");
    assert_eq!(resumed.skipped_corrupt, 0);
    assert!(resumed.completed);
    assert_eq!(resumed.steps, 9);

    assert_eq!(
        param_values(&unet_b),
        reference,
        "resumed trajectory must be bit-identical to the uninterrupted run"
    );
}

#[test]
fn corrupt_latest_checkpoint_falls_back_to_newest_valid() {
    let trainer = DiffusionTrainer::new(DiffusionConfig::small());
    let data = dataset();
    let dir = fresh_dir("corrupt_fallback");
    let ckpt = CheckpointConfig::new(dir.clone(), 2);

    let unet_a = tiny_unet();
    train_resumable(&trainer, &unet_a, &data, &options(Some(5)), &ckpt).unwrap();
    let ckpts = list_checkpoints(&dir).unwrap();
    assert_eq!(ckpts.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![2, 4]);

    // Flip one bit in the newest checkpoint file.
    let newest = &ckpts.last().unwrap().1;
    let mut blob = fs::read(newest).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 0x04;
    fs::write(newest, blob).unwrap();

    let unet_b = tiny_unet();
    let resumed = train_resumable(&trainer, &unet_b, &data, &options(None), &ckpt).unwrap();
    assert_eq!(resumed.skipped_corrupt, 1, "the corrupted step-4 checkpoint must be skipped");
    assert_eq!(resumed.resumed_from, Some(2), "fall back to the newest valid checkpoint");
    assert!(resumed.completed);
    assert!(resumed.last_loss.unwrap().is_finite());
}

#[test]
fn retention_prunes_old_checkpoints() {
    let trainer = DiffusionTrainer::new(DiffusionConfig::small());
    let data = dataset();
    let dir = fresh_dir("retention");
    let ckpt = CheckpointConfig { dir: dir.clone(), every: 1, keep: 2 };

    let unet = tiny_unet();
    let run = train_resumable(&trainer, &unet, &data, &options(None), &ckpt).unwrap();
    assert!(run.completed);
    let steps: Vec<u64> = list_checkpoints(&dir).unwrap().iter().map(|(s, _)| *s).collect();
    assert_eq!(steps, vec![8, 9], "only the newest `keep` checkpoints survive");
}

#[test]
fn rerunning_a_completed_run_does_no_extra_work() {
    let trainer = DiffusionTrainer::new(DiffusionConfig::small());
    let data = dataset();
    let dir = fresh_dir("completed_rerun");
    let ckpt = CheckpointConfig::new(dir.clone(), 4);

    let unet_a = tiny_unet();
    let first = train_resumable(&trainer, &unet_a, &data, &options(None), &ckpt).unwrap();
    assert!(first.completed);
    let after_first = param_values(&unet_a);

    let unet_b = tiny_unet();
    let second = train_resumable(&trainer, &unet_b, &data, &options(None), &ckpt).unwrap();
    assert!(second.completed);
    assert_eq!(second.resumed_from, Some(9), "resumes the final checkpoint");
    assert!(second.last_loss.is_none(), "no step should execute");
    assert_eq!(param_values(&unet_b), after_first, "weights restored, not retrained");
}
