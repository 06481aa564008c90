//! Static analysis for the AeroDiffusion reproduction.
//!
//! Training a misconfigured diffusion stack wastes minutes before the
//! first failure (or, worse, trains silently with a detached parameter).
//! This crate catches those failures with two kinds of pass:
//!
//! 1. **Autograd-graph linting** ([`lint_graph`]) — a walk over a built
//!    [`aero_nn::Var`] loss graph flagging detached parameters, severed
//!    gradient flow, NaN-prone numerics, and dead branches.
//! 2. **Token-level source passes** ([`lint_source_all`]) — scans of the
//!    workspace tree for panicking kernels on serving paths, lock-order
//!    cycles, unaudited relaxed atomics, nondeterminism in the
//!    bit-reproducible crates, and panics inside worker closures.
//!
//! Configuration geometry is not checked here: `aerodiffusion::lint`
//! validates a pipeline config with direct arithmetic rules that a
//! test proves against the real modules.
//!
//! Findings carry stable `ADxxxx` codes (see [`DiagCode`]) and render in a
//! rustc-like format via [`Report::render`].
//!
//! # Example
//!
//! ```
//! use aero_analysis::{lint_graph, DiagCode};
//! use aero_nn::Var;
//! use aero_tensor::Tensor;
//!
//! // A loss that uses its one parameter lints clean...
//! let w = Var::parameter(Tensor::from_vec(vec![2.0], &[1]));
//! let loss = w.mul(&w).sum();
//! assert!(lint_graph(&loss, &[w.clone()]).is_clean());
//!
//! // ...declaring a parameter the loss never reaches does not.
//! let orphan = Var::parameter(Tensor::from_vec(vec![1.0], &[1]));
//! let report = lint_graph(&loss, &[w, orphan]);
//! assert!(report.has_code(DiagCode::DetachedParameter));
//! ```

mod baseline;
mod diag;
mod graph_lint;
mod lockorder;
mod source_lint;
pub mod token;

pub use baseline::{Baseline, BaselineDiff};
pub use diag::{DiagCode, Diagnostic, Report, Severity};
pub use graph_lint::lint_graph;
pub use lockorder::lint_lock_order;
pub use source_lint::{
    lint_atomic_orderings, lint_nondeterminism, lint_panicking_callsites, lint_source_all,
    lint_worker_panics,
};
