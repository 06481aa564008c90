//! Property-based tests for q8 block quantization: round-trip error
//! bounds over random tensors and determinism. The parallel/serial
//! bitwise contract of the quantized matmul is checked inside the crate,
//! where its test-only serial oracle lives.

use aero_tensor::{Q8Tensor, Tensor, Q8_BLOCK};
use proptest::prelude::*;

fn tensor_values() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1000.0f32..1000.0, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per block, dequantization error is at most half a quantization
    /// step: |x - scale * q| <= scale / 2 = block_max_abs / 254.
    #[test]
    fn round_trip_error_bounded_per_block(data in tensor_values()) {
        let n = data.len();
        let t = Tensor::from_vec(data.clone(), &[n]);
        let q = Q8Tensor::quantize(&t);
        let deq = q.dequantize();
        for (b, chunk) in t.as_slice().chunks(Q8_BLOCK).enumerate() {
            let max_abs = chunk.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let bound = max_abs / 254.0 + max_abs * 1e-6;
            for (i, (&x, &y)) in
                chunk.iter().zip(&deq.as_slice()[b * Q8_BLOCK..]).enumerate()
            {
                let err = (x - y).abs();
                prop_assert!(
                    err <= bound,
                    "block {b} elem {i}: |{x} - {y}| = {err} > {bound}"
                );
            }
        }
    }

    /// Quantizing twice (and re-quantizing the dequantized tensor's own
    /// dequantization) is stable — the fixed point is reached after one
    /// round trip.
    #[test]
    fn quantize_is_deterministic_and_idempotent_after_one_trip(data in tensor_values()) {
        let n = data.len();
        let t = Tensor::from_vec(data.clone(), &[n]);
        let q1 = Q8Tensor::quantize(&t);
        let q2 = Q8Tensor::quantize(&t);
        prop_assert_eq!(&q1, &q2);
        let deq = q1.dequantize();
        let q3 = Q8Tensor::quantize(&deq);
        prop_assert_eq!(q3.dequantize(), deq);
    }

    /// Blocks never cross row boundaries: quantizing a [rows, cols]
    /// tensor equals quantizing each row independently.
    #[test]
    fn rows_quantize_independently(
        rows in 1usize..5,
        cols in 1usize..70,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::randn(&[rows, cols], &mut rng).mul_scalar(50.0);
        let whole = Q8Tensor::quantize(&t).dequantize();
        for r in 0..rows {
            let row =
                Tensor::from_vec(t.as_slice()[r * cols..(r + 1) * cols].to_vec(), &[1, cols]);
            let row_deq = Q8Tensor::quantize(&row).dequantize();
            prop_assert_eq!(
                &whole.as_slice()[r * cols..(r + 1) * cols],
                row_deq.as_slice(),
                "row {} dequantized differently in the full tensor", r
            );
        }
    }

    /// Stored parts survive a round trip through from_parts — the path
    /// the artifact loader takes.
    #[test]
    fn parts_round_trip(data in tensor_values()) {
        let n = data.len();
        let q = Q8Tensor::quantize(&Tensor::from_vec(data.clone(), &[n]));
        let back = Q8Tensor::from_parts(
            q.shape(),
            q.scales().to_vec(),
            q.quants().to_vec(),
        ).unwrap();
        prop_assert_eq!(back, q);
    }
}
