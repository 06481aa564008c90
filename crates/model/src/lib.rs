//! Quantized model exports and a versioned model registry for
//! AeroDiffusion.
//!
//! The container itself is `aero_nn::amdl`, and the pipeline layout
//! inside it is `aerodiffusion`'s; a saved pipeline is already an `f32`
//! artifact. This crate adds the serving-scale pieces on top:
//!
//! - [`export`] stores a [`PipelineSnapshot`] dense (`f32`) or
//!   block-quantized (`q8`, ~28% of the dense size) with a per-layer
//!   [`QuantReport`], and measures the end-to-end [`quality_delta`] of
//!   q8 against f32;
//! - [`registry`] organises artifacts into named, versioned registries
//!   that the serving runtime hot-swaps between.
//!
//! An `f32` round trip is **byte-identical**: the artifact stores the
//! exact weight bits, so a replica hydrated from a reloaded artifact
//! generates the same images as one hydrated from the original
//! in-memory snapshot.
//!
//! [`PipelineSnapshot`]: aerodiffusion::PipelineSnapshot

pub mod export;
pub mod registry;

pub use export::{
    export_snapshot, quality_delta, write_snapshot, LayerError, QualityDelta, QuantReport,
};
pub use registry::{IntegrityState, ModelRegistry, RegistryEntry};
