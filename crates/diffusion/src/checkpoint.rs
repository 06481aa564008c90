//! Crash-safe training checkpoints with exact resume.
//!
//! Long diffusion runs die — OOM kills, preemptions, power loss — and
//! without checkpoints every death restarts training from scratch. This
//! module persists everything the training loop needs to continue
//! *bit-identically*:
//!
//! - the optimized parameter values,
//! - Adam's first/second moments and bias-correction step counter,
//! - the RNG state (noise draws, timestep sampling, condition dropout
//!   and epoch shuffles all consume the same generator),
//! - the training cursor: global step, epoch, position within the
//!   epoch, and the epoch's shuffled batch order.
//!
//! Each checkpoint is one `.amdl` artifact (see [`aero_nn::amdl`]),
//! `step-<n>.amdl`, written under a tmp name and atomically renamed into
//! place. Parameters and Adam's `m`/`v` moments are stored as tensors
//! (`param.<i>`, `adam.m.<i>`, `adam.v.<i>`); the cursor, the RNG words
//! and Adam's step counter are key/value entries. The container's
//! trailing CRC32 is verified before anything is decoded. On resume the
//! newest checkpoint that passes verification wins; corrupt or
//! half-written ones are skipped, not trusted. Only the last
//! [`CheckpointConfig::keep`] checkpoints are retained on disk.

use crate::trainer::{DiffusionTrainer, TrainBatch};
use crate::unet::CondUnet;
use aero_nn::amdl::{load_into_params, ArtifactBuilder, ModelArtifact, PersistError};
use aero_nn::optim::{Adam, AdamState};
use aero_nn::{Module, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

/// Where and how often to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the `step-<n>.amdl` checkpoint files.
    pub dir: PathBuf,
    /// Save every this many optimizer steps (0 disables periodic saves;
    /// a final checkpoint is still written when a run completes).
    pub every: u64,
    /// How many checkpoints to retain; older ones are pruned.
    pub keep: usize,
}

impl CheckpointConfig {
    /// A config saving every `every` steps into `dir`, keeping 3.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointConfig { dir: dir.into(), every, keep: 3 }
    }
}

/// The exact position of a training run, sufficient to continue it
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainCursor {
    /// Global optimizer steps completed.
    pub step: u64,
    /// The epoch in progress.
    pub epoch: usize,
    /// Index into [`TrainCursor::order`] of the next batch to train.
    pub batch: usize,
    /// The in-progress epoch's shuffled batch order.
    pub order: Vec<usize>,
    /// RNG state *after* the last completed step.
    pub rng: [u64; 4],
}

fn join<T: ToString>(items: &[T]) -> String {
    items.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
}

fn split<T: std::str::FromStr>(key: &str, value: &str) -> Result<Vec<T>, PersistError> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| PersistError::Meta(format!("malformed {key}: {value:?}")))
}

/// Saves one checkpoint atomically as `step-<n>.amdl`, then prunes
/// older checkpoints beyond [`CheckpointConfig::keep`].
///
/// # Errors
///
/// Propagates I/O failures; the previous checkpoints are untouched on
/// error.
pub fn save_checkpoint(
    config: &CheckpointConfig,
    cursor: &TrainCursor,
    params: &[Var],
    opt: &Adam,
) -> Result<PathBuf, PersistError> {
    fs::create_dir_all(&config.dir)?;
    let path = config.dir.join(format!("step-{:08}.amdl", cursor.step));
    let state = opt.export_state();
    let mut builder = ArtifactBuilder::new();
    builder.set("step", &cursor.step.to_string());
    builder.set("epoch", &cursor.epoch.to_string());
    builder.set("batch", &cursor.batch.to_string());
    builder.set("order", &join(&cursor.order));
    builder.set("rng", &join(&cursor.rng));
    builder.set("adam_step", &state.step.to_string());
    builder.add_params("param", params);
    for (i, (m, v)) in state.m.iter().zip(&state.v).enumerate() {
        builder.add_f32(&format!("adam.m.{i}"), m);
        builder.add_f32(&format!("adam.v.{i}"), v);
    }
    builder.write(&path)?;
    prune(config)?;
    aero_obs::counter!("train.checkpoint.saves").inc();
    Ok(path)
}

/// All complete checkpoints under `dir`, as `(step, path)` ascending.
///
/// # Errors
///
/// Propagates I/O failures listing an existing directory; a missing
/// directory is simply empty.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let step = name.to_str().and_then(|n| n.strip_prefix("step-")?.strip_suffix(".amdl"));
        let Some(step) = step else { continue };
        if let Ok(step) = step.parse::<u64>() {
            found.push((step, entry.path()));
        }
    }
    found.sort_by_key(|(step, _)| *step);
    Ok(found)
}

fn prune(config: &CheckpointConfig) -> Result<(), PersistError> {
    let ckpts = list_checkpoints(&config.dir)?;
    let keep = config.keep.max(1);
    if ckpts.len() > keep {
        for (_, path) in &ckpts[..ckpts.len() - keep] {
            fs::remove_file(path)?;
        }
    }
    Ok(())
}

/// Verifies and loads one checkpoint file into `params` and `opt`.
///
/// The container's CRC is checked first, so a bit flip anywhere fails
/// typed instead of loading a garbage model.
///
/// # Errors
///
/// [`PersistError::Corrupt`] / [`PersistError::VersionMismatch`] on
/// integrity failures, [`PersistError::Weights`] on count or shape
/// mismatches, [`PersistError::Meta`] on malformed cursor metadata.
pub fn load_checkpoint(
    path: &Path,
    params: &[Var],
    opt: &mut Adam,
) -> Result<TrainCursor, PersistError> {
    let artifact = ModelArtifact::read(path)?;
    let n = params.len();
    if artifact.tensor_infos().len() != 3 * n {
        return Err(PersistError::Weights(format!(
            "checkpoint holds {} tensors, expected {} for {n} parameters",
            artifact.tensor_infos().len(),
            3 * n
        )));
    }
    let rng: Vec<u64> = split("rng", artifact.require("rng")?)?;
    let rng: [u64; 4] =
        rng.try_into().map_err(|_| PersistError::Meta("rng must hold 4 words".into()))?;
    let cursor = TrainCursor {
        step: artifact.parse_value("step")?,
        epoch: artifact.parse_value("epoch")?,
        batch: artifact.parse_value("batch")?,
        order: split("order", artifact.require("order")?)?,
        rng,
    };
    let param_tensors = artifact.tensors("param", n)?;
    let adam_state = AdamState {
        step: artifact.parse_value("adam_step")?,
        m: artifact.tensors("adam.m", n)?,
        v: artifact.tensors("adam.v", n)?,
    };
    opt.restore_state(adam_state)?;
    load_into_params(params, &param_tensors)?;
    Ok(cursor)
}

/// The outcome of scanning a checkpoint directory for a resume point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeReport {
    /// The cursor restored from the newest valid checkpoint, if any.
    pub cursor: Option<TrainCursor>,
    /// Checkpoints that failed verification and were skipped (newest
    /// first were tried first).
    pub skipped_corrupt: usize,
}

/// Restores the newest checkpoint that verifies cleanly, skipping any
/// corrupt ones, and reports what happened. With no valid checkpoint the
/// caller starts fresh.
///
/// # Errors
///
/// Propagates I/O failures listing the directory; verification failures
/// of individual checkpoints are *not* errors — they are skipped and
/// counted.
pub fn resume_latest(
    dir: &Path,
    params: &[Var],
    opt: &mut Adam,
) -> Result<ResumeReport, PersistError> {
    let mut ckpts = list_checkpoints(dir)?;
    ckpts.reverse();
    let mut skipped_corrupt = 0;
    for (_, path) in ckpts {
        match load_checkpoint(&path, params, opt) {
            Ok(cursor) => {
                aero_obs::counter!("train.checkpoint.resumes").inc();
                return Ok(ResumeReport { cursor: Some(cursor), skipped_corrupt });
            }
            Err(_) => {
                skipped_corrupt += 1;
                aero_obs::counter!("train.checkpoint.corrupt_skipped").inc();
            }
        }
    }
    Ok(ResumeReport { cursor: None, skipped_corrupt })
}

/// Options for [`train_resumable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainRunOptions {
    /// Epochs over the dataset.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Decoupled weight decay (the paper uses `1e-5`).
    pub weight_decay: f32,
    /// Seed for the run's RNG (noise, timesteps, dropout, shuffles).
    pub seed: u64,
    /// Stop after this many global steps (simulates a mid-run kill in
    /// tests and bounds CI smoke runs); `None` runs to completion.
    pub max_steps: Option<u64>,
}

/// What a (possibly resumed, possibly truncated) training run did.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainRun {
    /// Global steps completed, including steps replayed before a resume.
    pub steps: u64,
    /// Whether all epochs finished (false when `max_steps` hit first).
    pub completed: bool,
    /// Loss of the last executed step, if any step ran.
    pub last_loss: Option<f32>,
    /// The checkpoint step training resumed from, if any.
    pub resumed_from: Option<u64>,
    /// Corrupt checkpoints skipped while searching for the resume point.
    pub skipped_corrupt: usize,
}

/// Trains like [`DiffusionTrainer::train`] but checkpointed and
/// resumable: a run killed at an arbitrary step and restarted with the
/// same arguments continues on a bit-identical parameter trajectory,
/// because the checkpoint carries the optimizer moments, the RNG state
/// and the in-epoch batch order alongside the weights.
///
/// # Errors
///
/// Propagates checkpoint save/scan failures.
///
/// # Panics
///
/// Panics on an empty dataset.
pub fn train_resumable(
    trainer: &DiffusionTrainer,
    unet: &CondUnet,
    data: &[TrainBatch],
    options: &TrainRunOptions,
    checkpoint: &CheckpointConfig,
) -> Result<TrainRun, PersistError> {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let params = unet.params();
    let mut opt = Adam::new(params.clone(), options.lr).with_weight_decay(options.weight_decay);
    let mut rng = StdRng::seed_from_u64(options.seed);
    let resume = resume_latest(&checkpoint.dir, &params, &mut opt)?;
    let skipped_corrupt = resume.skipped_corrupt;
    let mut resumed_from = None;
    let (start_epoch, mut batch_start, mut pending_order) = match resume.cursor {
        Some(cursor) => {
            rng = StdRng::from_state(cursor.rng);
            resumed_from = Some(cursor.step);
            (cursor.epoch, cursor.batch, Some((cursor.order, cursor.step)))
        }
        None => (0, 0, None),
    };
    let mut step = pending_order.as_ref().map_or(0, |(_, s)| *s);
    let mut last_loss = None;
    let mut completed = true;
    let mut last_saved = resumed_from;
    'epochs: for epoch in start_epoch..options.epochs {
        let order = match pending_order.take() {
            Some((order, _)) => order,
            None => {
                let mut order: Vec<usize> = (0..data.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                order
            }
        };
        for bi in batch_start..order.len() {
            let loss = trainer.train_step(unet, &mut opt, &data[order[bi]], &mut rng);
            step += 1;
            last_loss = Some(loss);
            if checkpoint.every > 0 && step % checkpoint.every == 0 {
                let cursor = TrainCursor {
                    step,
                    epoch,
                    batch: bi + 1,
                    order: order.clone(),
                    rng: rng.state(),
                };
                save_checkpoint(checkpoint, &cursor, &params, &opt)?;
                last_saved = Some(step);
            }
            if options.max_steps.is_some_and(|max| step >= max) {
                completed = false;
                break 'epochs;
            }
        }
        batch_start = 0;
    }
    // A final checkpoint marks the run complete so a re-invocation
    // resumes past the loop instead of repeating work.
    if completed && step > 0 && last_saved != Some(step) {
        let cursor = TrainCursor {
            step,
            epoch: options.epochs,
            batch: 0,
            order: Vec::new(),
            rng: rng.state(),
        };
        save_checkpoint(checkpoint, &cursor, &params, &opt)?;
    }
    Ok(TrainRun { steps: step, completed, last_loss, resumed_from, skipped_corrupt })
}
