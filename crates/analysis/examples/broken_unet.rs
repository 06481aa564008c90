//! Demonstrates the graph linter on deliberately broken models: a
//! healthy UNet loss that declares one parameter it never uses, and a
//! loss with numerical training hazards.
//!
//! ```bash
//! cargo run --offline -p aero-analysis --example broken_unet
//! ```

use aero_analysis::lint_graph;
use aero_diffusion::{CondUnet, UnetConfig};
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A real UNet forward whose parameter list carries one orphan.
    let mut rng = StdRng::seed_from_u64(7);
    let unet = CondUnet::new(UnetConfig::latent(6), &mut rng);
    let z = Var::constant(Tensor::randn(&[1, 4, 8, 8], &mut rng));
    let c = Var::constant(Tensor::randn(&[1, 6], &mut rng));
    let loss = unet.forward(&z, &[3], Some(&c)).sum();
    let mut params = unet.params();
    params.push(Var::parameter(Tensor::zeros(&[4, 4])));
    println!("-- graph lint on a UNet with a detached parameter --");
    print!("{}", lint_graph(&loss, &params).render());

    // A loss that takes ln(0) and declares a parameter it never uses.
    let w = Var::parameter(Tensor::from_vec(vec![0.5, 0.0], &[2]));
    let orphan = Var::parameter(Tensor::from_vec(vec![1.0], &[1]));
    let loss = w.ln().sum();
    println!("-- graph lint on a hazardous loss --");
    print!("{}", lint_graph(&loss, &[w, orphan]).render());
}
