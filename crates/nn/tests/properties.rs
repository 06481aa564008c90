//! Property-based tests for autograd invariants, including the parallel
//! backward paths: the sharded tensor kernels run inside every layer's
//! forward *and* backward, so finite-difference checks under a multi-
//! thread policy validate the parallel gradients end to end.

use aero_nn::gradcheck::{check_gradient, check_gradient_with_threads};
use aero_nn::layers::{Conv2d, Linear, MultiHeadAttention};
use aero_nn::{optim::Adam, Module, Var};
use aero_tensor::parallel::with_threads;
use aero_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sum_gradient_is_ones(seed in 0u64..500, n in 1usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var::parameter(Tensor::randn(&[n], &mut rng));
        x.sum().backward();
        let g = x.grad().unwrap();
        prop_assert!(g.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn linearity_of_gradients(seed in 0u64..500, a in -3.0f32..3.0) {
        // d(a·sum(x))/dx = a
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var::parameter(Tensor::randn(&[4], &mut rng));
        x.sum().scale(a).backward();
        let g = x.grad().unwrap();
        prop_assert!(g.as_slice().iter().all(|&v| (v - a).abs() < 1e-5));
    }

    #[test]
    fn gradcheck_random_composites(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = Tensor::randn(&[2, 3], &mut rng);
        let report = check_gradient(
            |x| x.silu().mul(&x.sigmoid()).sum().add(&x.tanh().mean()),
            &x0,
            1e-3,
            6,
        );
        prop_assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn softmax_then_sum_has_zero_gradient(seed in 0u64..300) {
        // sum(softmax(x)) == rows, constant -> gradient must vanish
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var::parameter(Tensor::randn(&[2, 4], &mut rng));
        x.softmax_last_axis().sum().backward();
        let g = x.grad().unwrap();
        prop_assert!(g.abs().max() < 1e-5, "grad {:?}", g.as_slice());
    }

    #[test]
    fn adam_descends_on_convex_bowl(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Var::parameter(Tensor::randn(&[3], &mut rng).mul_scalar(3.0));
        let start = p.value().powf(2.0).sum();
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        for _ in 0..60 {
            opt.zero_grad();
            p.mul(&p).sum().backward();
            opt.step();
        }
        let end = p.value().powf(2.0).sum();
        prop_assert!(end < start, "{start} -> {end}");
    }

    #[test]
    fn detach_blocks_all_gradient(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var::parameter(Tensor::randn(&[4], &mut rng));
        x.detach().powf(2.0).sum().backward();
        prop_assert!(x.grad().is_none());
    }

    #[test]
    fn linear_parallel_backward_passes_gradcheck(seed in 0u64..100, threads in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::new(5, 4, &mut rng);
        let x0 = Tensor::randn(&[3, 5], &mut rng);
        let report = check_gradient_with_threads(
            |x| layer.forward(x).tanh().mean(),
            &x0,
            1e-3,
            8,
            threads,
        );
        prop_assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn conv2d_parallel_backward_passes_gradcheck(seed in 0u64..100, threads in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x0 = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let report = check_gradient_with_threads(
            |x| layer.forward(x).tanh().mean(),
            &x0,
            1e-3,
            8,
            threads,
        );
        prop_assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn attention_parallel_backward_passes_gradcheck(seed in 0u64..100, threads in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let attn = MultiHeadAttention::new(4, 2, &mut rng);
        let x0 = Tensor::randn(&[1, 3, 4], &mut rng);
        let report = check_gradient_with_threads(
            |x| attn.forward(x, x).mean(),
            &x0,
            1e-3,
            8,
            threads,
        );
        prop_assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn layer_gradients_are_bit_identical_across_thread_counts(seed in 0u64..100) {
        // Forward AND backward through Linear, Conv2d, and attention
        // must produce byte-for-byte identical gradients no matter how
        // wide the kernel pool fans out.
        let mut rng = StdRng::seed_from_u64(seed);
        let lin = Linear::new(6, 5, &mut rng);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let attn = MultiHeadAttention::new(4, 2, &mut rng);
        let x_lin = Tensor::randn(&[4, 6], &mut rng);
        let x_conv = Tensor::randn(&[2, 2, 6, 6], &mut rng);
        let x_attn = Tensor::randn(&[1, 4, 4], &mut rng);
        let collect = |x: &Var, params: &[Var], out: &mut Vec<Vec<u32>>| {
            let g = x.grad().expect("input grad");
            out.push(g.as_slice().iter().map(|v| v.to_bits()).collect());
            for p in params {
                let pg = p.grad().expect("param grad");
                out.push(pg.as_slice().iter().map(|v| v.to_bits()).collect());
                p.zero_grad();
            }
        };
        let grads = |threads: usize| -> Vec<Vec<u32>> {
            with_threads(threads, || {
                let mut out = Vec::new();
                let x = Var::parameter(x_lin.clone());
                lin.forward(&x).tanh().sum().backward();
                collect(&x, &lin.params(), &mut out);
                let x = Var::parameter(x_conv.clone());
                conv.forward(&x).tanh().sum().backward();
                collect(&x, &conv.params(), &mut out);
                let x = Var::parameter(x_attn.clone());
                attn.forward(&x, &x).tanh().sum().backward();
                collect(&x, &attn.params(), &mut out);
                out
            })
        };
        let reference = grads(1);
        for threads in [2, 4, 8] {
            prop_assert_eq!(&grads(threads), &reference, "grads diverged at {} threads", threads);
        }
    }

    #[test]
    fn serialization_round_trip_any_shapes(dims in prop::collection::vec(1usize..5, 1..4), seed in 0u64..300) {
        use aero_nn::amdl::{load_into_params, ArtifactBuilder, ModelArtifact};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Var::parameter(Tensor::randn(&dims, &mut rng));
        let mut builder = ArtifactBuilder::new();
        builder.add_params("p", std::slice::from_ref(&p));
        let stored = ModelArtifact::from_bytes(builder.to_bytes()).unwrap().tensors("p", 1).unwrap();
        let q = Var::parameter(Tensor::zeros(&dims));
        load_into_params(std::slice::from_ref(&q), &stored).unwrap();
        prop_assert_eq!(p.to_tensor(), q.to_tensor());
    }
}
