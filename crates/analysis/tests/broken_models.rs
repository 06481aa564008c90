//! End-to-end acceptance tests for the graph linter: deliberately
//! broken losses must trip it with the right diagnostic codes, and the
//! real (healthy) UNet must lint clean.

use aero_analysis::{lint_graph, DiagCode};
use aero_diffusion::{CondUnet, UnetConfig};
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// AD0101 — a declared parameter the loss never touches.
#[test]
fn detached_parameter_fires_ad0101() {
    let mut rng = StdRng::seed_from_u64(11);
    let config = UnetConfig {
        in_channels: 4,
        base_channels: 8,
        cond_dim: 6,
        time_embed_dim: 16,
        cond_tokens: 3,
        spatial_cond_cells: 16,
    };
    let unet = CondUnet::new(config, &mut rng);
    let z = Var::constant(Tensor::randn(&[1, 4, 8, 8], &mut rng));
    let c = Var::constant(Tensor::randn(&[1, 6], &mut rng));
    let loss = unet.forward(&z, &[3], Some(&c)).sum();

    // The real UNet trains every parameter...
    let healthy = lint_graph(&loss, &unet.params());
    assert!(healthy.is_clean(), "{}", healthy.render());

    // ...but declaring an extra, never-used parameter is caught.
    let mut params = unet.params();
    params.push(Var::parameter(Tensor::zeros(&[4, 4])));
    let report = lint_graph(&loss, &params);
    assert!(report.has_code(DiagCode::DetachedParameter), "{}", report.render());
    assert!(!report.is_clean());
}

/// AD0103 — an `ln` whose input is not clamped away from zero.
#[test]
fn unclamped_ln_fires_ad0103() {
    let sigma = Var::parameter(Tensor::from_vec(vec![0.5, 0.0], &[2]));
    let nll = sigma.ln().sum(); // ln(0) = -inf
    let report = lint_graph(&nll, &[sigma]);
    assert!(report.has_code(DiagCode::UnclampedLn), "{}", report.render());
    assert!(!report.is_clean(), "ln of an exact zero must be an error");
}

/// Five distinct graph-lint codes, AD0101 to AD0105, in one place.
#[test]
fn five_distinct_codes_fire() {
    let w = Var::parameter(Tensor::from_vec(vec![0.0], &[1]));
    let orphan = Var::parameter(Tensor::from_vec(vec![1.0], &[1]));
    let tiny = Var::constant(Tensor::from_vec(vec![1e-9], &[1]));
    let gate = Var::constant(Tensor::zeros(&[1]));
    let loss = w.ln().add(&w.detach()).add(&w.div(&tiny)).add(&w.mul(&gate)).sum();
    let codes: std::collections::BTreeSet<&str> =
        lint_graph(&loss, &[w, orphan]).diagnostics().iter().map(|d| d.code.code()).collect();
    assert_eq!(
        codes.into_iter().collect::<Vec<_>>(),
        ["AD0101", "AD0102", "AD0103", "AD0104", "AD0105"],
        "expected every graph-lint code"
    );
}
