//! Neural-network layers assembled from autograd primitives.
//!
//! Every layer owns its parameters as [`Var`]s and implements [`Module`]
//! so optimizers and the serializer can reach them in a stable order.

use crate::autograd::Var;
use crate::init;
use crate::Module;
use aero_tensor::Tensor;
use rand::Rng;

/// Fully connected layer: `y = x W + b` with `W: [in, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Var,
    bias: Var,
}

impl Linear {
    /// Creates a linear layer with He-normal weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Linear {
            weight: Var::parameter(init::he_normal(&[in_dim, out_dim], in_dim, rng)),
            bias: Var::parameter(Tensor::zeros(&[out_dim])),
        }
    }

    /// Creates a linear layer with small-std normal weights (for output
    /// projections and modulation heads that should start near zero).
    pub fn new_with_init<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        std: f32,
        rng: &mut R,
    ) -> Self {
        Linear {
            weight: Var::parameter(init::scaled_normal(&[in_dim, out_dim], std, rng)),
            bias: Var::parameter(Tensor::zeros(&[out_dim])),
        }
    }

    /// Applies the layer to `[n, in]` (or flattens a leading batch of any
    /// rank-2 input).
    ///
    /// # Panics
    ///
    /// Panics unless `x` is rank-2 with matching inner dimension.
    pub fn forward(&self, x: &Var) -> Var {
        x.matmul(&self.weight).add(&self.bias)
    }

    /// The weight parameter (`[in, out]`).
    pub fn weight(&self) -> &Var {
        &self.weight
    }

    /// The bias parameter (`[out]`).
    pub fn bias(&self) -> &Var {
        &self.bias
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// 2-D convolution layer.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Var,
    bias: Var,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates a conv layer with He-normal weights (`[cout, cin, k, k]`).
    pub fn new<R: Rng + ?Sized>(
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = cin * k * k;
        Conv2d {
            weight: Var::parameter(init::he_normal(&[cout, cin, k, k], fan_in, rng)),
            bias: Var::parameter(Tensor::zeros(&[cout])),
            stride,
            pad,
        }
    }

    /// Applies the convolution to `[n, cin, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics on channel mismatch.
    pub fn forward(&self, x: &Var) -> Var {
        x.conv2d(&self.weight, Some(&self.bias), self.stride, self.pad)
    }
}

impl Module for Conv2d {
    fn params(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// Transposed 2-D convolution layer (upsampling).
#[derive(Debug, Clone)]
pub struct ConvTranspose2d {
    weight: Var,
    bias: Var,
    stride: usize,
    pad: usize,
}

impl ConvTranspose2d {
    /// Creates a transposed-conv layer with weights `[cin, cout, k, k]`.
    pub fn new<R: Rng + ?Sized>(
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = cin * k * k;
        ConvTranspose2d {
            weight: Var::parameter(init::he_normal(&[cin, cout, k, k], fan_in, rng)),
            bias: Var::parameter(Tensor::zeros(&[cout])),
            stride,
            pad,
        }
    }

    /// Applies the transposed convolution to `[n, cin, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics on channel mismatch.
    pub fn forward(&self, x: &Var) -> Var {
        x.conv_transpose2d(&self.weight, Some(&self.bias), self.stride, self.pad)
    }
}

impl Module for ConvTranspose2d {
    fn params(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// Token embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: Var,
    dim: usize,
}

impl Embedding {
    /// Creates a `[vocab, dim]` embedding with N(0, 0.02) entries.
    pub fn new<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Embedding { table: Var::parameter(init::scaled_normal(&[vocab, dim], 0.02, rng)), dim }
    }

    /// Looks up token ids, producing `[len, dim]`.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of vocabulary.
    pub fn forward(&self, ids: &[usize]) -> Var {
        self.table.index_select0(ids)
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.shape()[0]
    }
}

impl Module for Embedding {
    fn params(&self) -> Vec<Var> {
        vec![self.table.clone()]
    }
}

/// Layer normalization over the last axis.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Var,
    beta: Var,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over a final axis of size `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Var::parameter(Tensor::ones(&[dim])),
            beta: Var::parameter(Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }

    /// Normalizes the last axis to zero mean / unit variance, then applies
    /// the learned affine transform.
    ///
    /// # Panics
    ///
    /// Panics if the last axis does not match the layer's dimension.
    pub fn forward(&self, x: &Var) -> Var {
        let last_axis = x.shape().len() - 1;
        assert_eq!(x.shape()[last_axis], self.gamma.shape()[0], "layer norm dimension mismatch");
        let mean = x.mean_axis_keepdim(last_axis);
        let centered = x.sub(&mean);
        let var = centered.mul(&centered).mean_axis_keepdim(last_axis);
        let norm = centered.div(&var.add_scalar(self.eps).sqrt());
        norm.mul(&self.gamma).add(&self.beta)
    }
}

impl Module for LayerNorm {
    fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Group normalization over `[n, c, h, w]` feature maps.
#[derive(Debug, Clone)]
pub struct GroupNorm {
    gamma: Var,
    beta: Var,
    groups: usize,
    eps: f32,
}

impl GroupNorm {
    /// Creates a group norm with `groups` groups over `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` divides `channels`.
    pub fn new(groups: usize, channels: usize) -> Self {
        assert!(channels.is_multiple_of(groups), "groups must divide channels");
        GroupNorm {
            gamma: Var::parameter(Tensor::ones(&[1, channels, 1, 1])),
            beta: Var::parameter(Tensor::zeros(&[1, channels, 1, 1])),
            groups,
            eps: 1e-5,
        }
    }

    /// Normalizes each group of channels per sample.
    ///
    /// # Panics
    ///
    /// Panics unless `x` is `[n, c, h, w]` with the configured channels.
    pub fn forward(&self, x: &Var) -> Var {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "group norm expects [n, c, h, w]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.gamma.shape()[1], "group norm channel mismatch");
        let g = self.groups;
        let grouped = x.reshape(&[n, g, (c / g) * h * w]);
        let mean = grouped.mean_axis_keepdim(2);
        let centered = grouped.sub(&mean);
        let var = centered.mul(&centered).mean_axis_keepdim(2);
        let norm = centered.div(&var.add_scalar(self.eps).sqrt());
        norm.reshape(&[n, c, h, w]).mul(&self.gamma).add(&self.beta)
    }
}

impl Module for GroupNorm {
    fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Multi-head attention over `[batch, tokens, dim]` sequences.
///
/// Implements Eq. (2)–(3) of the paper: Q, K, V are learned linear
/// projections of the inputs, attention is
/// `softmax(QKᵀ/√d_k)V` per head, and heads are concatenated through an
/// output projection. Pass the same tensor for `query` and `key_value`
/// for self-attention, different tensors for cross-attention.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block with `heads` heads over `dim` features.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides `dim`.
    pub fn new<R: Rng + ?Sized>(dim: usize, heads: usize, rng: &mut R) -> Self {
        assert!(dim.is_multiple_of(heads), "heads must divide dim");
        MultiHeadAttention {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            wo: Linear::new(dim, dim, rng),
            heads,
            dim,
        }
    }

    /// Attends `query` (`[b, tq, dim]`) over `key_value` (`[b, tk, dim]`).
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn forward(&self, query: &Var, key_value: &Var) -> Var {
        let qs = query.shape();
        let ks = key_value.shape();
        assert_eq!(qs.len(), 3, "attention expects [b, t, d] query");
        assert_eq!(ks.len(), 3, "attention expects [b, t, d] key/value");
        assert_eq!(qs[0], ks[0], "attention batch mismatch");
        assert_eq!(qs[2], self.dim, "attention dim mismatch");
        assert_eq!(ks[2], self.dim, "attention dim mismatch");
        let (b, tq, tk) = (qs[0], qs[1], ks[1]);
        let (h, dh) = (self.heads, self.dim / self.heads);

        let q = self.wq.forward(&query.reshape(&[b * tq, self.dim]));
        let k = self.wk.forward(&key_value.reshape(&[b * tk, self.dim]));
        let v = self.wv.forward(&key_value.reshape(&[b * tk, self.dim]));

        // [b, t, h, dh] -> [b, h, t, dh] -> [b*h, t, dh]
        let split = |x: &Var, t: usize| -> Var {
            x.reshape(&[b, t, h, dh]).permute(&[0, 2, 1, 3]).reshape(&[b * h, t, dh])
        };
        let qh = split(&q, tq);
        let kh = split(&k, tk);
        let vh = split(&v, tk);

        let scale = 1.0 / (dh as f32).sqrt();
        let scores = qh.bmm(&kh.permute(&[0, 2, 1])).scale(scale); // [b*h, tq, tk]
        let attn = scores.softmax_last_axis();
        let ctx = attn.bmm(&vh); // [b*h, tq, dh]
        let merged =
            ctx.reshape(&[b, h, tq, dh]).permute(&[0, 2, 1, 3]).reshape(&[b * tq, self.dim]);
        self.wo.forward(&merged).reshape(&[b, tq, self.dim])
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }
}

impl Module for MultiHeadAttention {
    fn params(&self) -> Vec<Var> {
        let mut p = self.wq.params();
        p.extend(self.wk.params());
        p.extend(self.wv.params());
        p.extend(self.wo.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_training_signal() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Var::constant(Tensor::randn(&[2, 4], &mut rng));
        let y = layer.forward(&x);
        assert_eq!(y.shape(), vec![2, 3]);
        y.sum().backward();
        assert!(layer.weight().grad().is_some());
        assert!(layer.bias().grad().is_some());
        assert_eq!(layer.param_count(), 4 * 3 + 3);
    }

    #[test]
    fn conv2d_layer_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 3, 8, 8], &mut rng));
        let y = layer.forward(&x);
        assert_eq!(y.shape(), vec![1, 8, 4, 4]);
    }

    #[test]
    fn conv_transpose_layer_upsamples() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = ConvTranspose2d::new(8, 4, 2, 2, 0, &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 8, 4, 4], &mut rng));
        assert_eq!(layer.forward(&x).shape(), vec![1, 4, 8, 8]);
    }

    #[test]
    fn embedding_lookup_and_grad() {
        let mut rng = StdRng::seed_from_u64(4);
        let emb = Embedding::new(10, 6, &mut rng);
        let out = emb.forward(&[1, 5, 1]);
        assert_eq!(out.shape(), vec![3, 6]);
        out.sum().backward();
        let g = emb.params()[0].grad().unwrap();
        // row 1 used twice, row 5 once, others zero
        assert_eq!(g.get(&[1, 0]), 2.0);
        assert_eq!(g.get(&[5, 0]), 1.0);
        assert_eq!(g.get(&[0, 0]), 0.0);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(5);
        let ln = LayerNorm::new(8);
        let x = Var::constant(Tensor::randn(&[4, 8], &mut rng).mul_scalar(5.0).add_scalar(3.0));
        let y = ln.forward(&x).to_tensor();
        for row in y.as_slice().chunks(8) {
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn group_norm_normalizes_groups() {
        let mut rng = StdRng::seed_from_u64(6);
        let gn = GroupNorm::new(2, 4);
        let x = Var::constant(Tensor::randn(&[2, 4, 3, 3], &mut rng).mul_scalar(7.0));
        let y = gn.forward(&x).to_tensor();
        // each (sample, group) block of 2*9=18 values should be normalized
        let data = y.as_slice();
        for s in 0..2 {
            for g in 0..2 {
                let mut vals = Vec::new();
                for c in 0..2 {
                    let ch = g * 2 + c;
                    for i in 0..9 {
                        vals.push(data[(s * 4 + ch) * 9 + i]);
                    }
                }
                let mean: f32 = vals.iter().sum::<f32>() / 18.0;
                let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 18.0;
                assert!(mean.abs() < 1e-4);
                assert!((var - 1.0).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn attention_output_shape_and_rowsum() {
        let mut rng = StdRng::seed_from_u64(7);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let q = Var::constant(Tensor::randn(&[2, 3, 8], &mut rng));
        let kv = Var::constant(Tensor::randn(&[2, 5, 8], &mut rng));
        let out = attn.forward(&q, &kv);
        assert_eq!(out.shape(), vec![2, 3, 8]);
    }

    #[test]
    fn self_attention_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(8);
        let attn = MultiHeadAttention::new(4, 2, &mut rng);
        let x = Var::parameter(Tensor::randn(&[1, 3, 4], &mut rng));
        attn.forward(&x, &x).sum().backward();
        assert!(x.grad().is_some());
        for p in attn.params() {
            assert!(p.grad().is_some(), "all attention params should receive grads");
        }
    }

    #[test]
    fn cross_attention_distinguishes_sources() {
        // With orthogonal key content, attending to a kv sequence whose
        // values differ must change the output.
        let mut rng = StdRng::seed_from_u64(9);
        let attn = MultiHeadAttention::new(4, 1, &mut rng);
        let q = Var::constant(Tensor::randn(&[1, 2, 4], &mut rng));
        let kv1 = Var::constant(Tensor::randn(&[1, 3, 4], &mut rng));
        let kv2 = Var::constant(Tensor::randn(&[1, 3, 4], &mut rng));
        let o1 = attn.forward(&q, &kv1).to_tensor();
        let o2 = attn.forward(&q, &kv2).to_tensor();
        assert!(o1.sub(&o2).abs().max() > 1e-6);
    }
}
