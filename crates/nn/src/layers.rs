//! The translator architecture of §III-B2: self-attention (Eq. 8),
//! feed-forward (Eq. 9), and the encoder stack (Eq. 10), with hand-derived
//! reverse-mode gradients.
//!
//! Shapes: the input is the embedding matrix `A ∈ R^{L×d}` of a sampled
//! path of fixed length `L = |λ|` with embedding dimension `d`. The
//! feed-forward weight `W` is `L×L` — it mixes *path positions*, exactly as
//! Eq. (9) writes it — and the bias `b` is `L×1`, broadcast across the `d`
//! columns.
//!
//! Two API tiers:
//!
//! * **Workspace tier** (the training hot path): `forward_ws` /
//!   `backward_ws` borrow cache storage and gradient temporaries from a
//!   caller-owned [`Workspace`] arena and return handle tokens instead of
//!   cache structs — zero heap allocations once the arena is sized. The
//!   raw `*_into` kernels underneath take every buffer explicitly.
//! * **Convenience tier** (tests, inference, small experiments):
//!   `forward` / `backward` keep the original allocate-per-call signatures,
//!   implemented on top of a workspace owned by the returned cache so both
//!   tiers run the identical arithmetic (bit-for-bit; see
//!   `tests/workspace_golden.rs`).

use crate::init;
use crate::kernels;
use crate::matrix::Matrix;
use crate::optim::AdamConfig;
use crate::param::Param;
use crate::workspace::{FfWsCache, TranslatorWsCache, Workspace};
use transn_rng::Rng;

/// The parameter-free self-attention layer of Eq. (8):
/// `S(A) = softmax_rows(A·Aᵀ/√d)·A`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfAttention;

/// Forward cache of one self-attention application (convenience tier).
#[derive(Clone, Debug)]
pub struct AttnCache {
    /// The layer input `A`.
    input: Matrix,
    /// Row-softmaxed attention matrix `P = ζ(A·Aᵀ/√d)`.
    probs: Matrix,
}

impl SelfAttention {
    /// Forward kernel: computes `P = ζ(A·Aᵀ/√d)` into `probs` (`L×L`) and
    /// `S(A) = P·A` into `out` (`L×d`). Both buffers are fully overwritten.
    pub fn forward_into(a: &Matrix, probs: &mut Matrix, out: &mut Matrix) {
        let d = a.cols();
        a.matmul_tb_into(a, probs);
        probs.scale(1.0 / (d as f32).sqrt());
        probs.softmax_rows_inplace();
        probs.matmul_into(a, out);
    }

    /// Backward kernel: writes the gradient w.r.t. the layer input into
    /// `d_in` (fully overwritten), given the forward operands and the
    /// gradient `d_out` w.r.t. the layer output.
    ///
    /// Derivation (with `s = 1/√d`, `P = ζ(Z)`, `Z = s·A·Aᵀ`, `Y = P·A`):
    /// `dP = dY·Aᵀ`, `dA ← Pᵀ·dY` (product rule on `P·A`),
    /// `dZ_r = P_r ⊙ (dP_r − ⟨dP_r, P_r⟩)` (row softmax Jacobian),
    /// `dA ← dA + s·(dZ·A + dZᵀ·A)` (product rule on `A·Aᵀ`).
    ///
    /// `d_p`, `d_z` (`L×L`) and `prod` (`L×d`) are scratch buffers; none of
    /// them may alias `d_out` or `d_in`.
    pub fn backward_into(
        a: &Matrix,
        probs: &Matrix,
        d_out: &Matrix,
        d_p: &mut Matrix,
        d_z: &mut Matrix,
        prod: &mut Matrix,
        d_in: &mut Matrix,
    ) {
        let s = 1.0 / (a.cols() as f32).sqrt();
        // dP = dY · Aᵀ
        d_out.matmul_tb_into(a, d_p);
        // dA (first term) = Pᵀ · dY
        probs.matmul_ta_into(d_out, d_in);
        // Row-wise softmax backward.
        let l = probs.rows();
        for r in 0..l {
            let p_row = probs.row(r);
            let dp_row = d_p.row(r);
            let dot = kernels::dot(p_row, dp_row);
            let dz_row = d_z.row_mut(r);
            for c in 0..l {
                dz_row[c] = p_row[c] * (dp_row[c] - dot);
            }
        }
        // dA += s · (dZ·A + dZᵀ·A)
        d_z.matmul_into(a, prod);
        d_in.add_scaled(prod, s);
        d_z.matmul_ta_into(a, prod);
        d_in.add_scaled(prod, s);
    }

    /// Forward pass (convenience tier); returns the output and the cache
    /// needed by [`SelfAttention::backward`].
    pub fn forward(a: &Matrix) -> (Matrix, AttnCache) {
        let mut probs = Matrix::zeros(a.rows(), a.rows());
        let mut out = Matrix::zeros(a.rows(), a.cols());
        Self::forward_into(a, &mut probs, &mut out);
        (
            out,
            AttnCache {
                input: a.clone(),
                probs,
            },
        )
    }

    /// Backward pass (convenience tier): gradient of the loss w.r.t. the
    /// layer input, given the gradient w.r.t. the layer output.
    #[must_use]
    pub fn backward(cache: &AttnCache, d_out: &Matrix) -> Matrix {
        let a = &cache.input;
        let l = a.rows();
        let mut d_p = Matrix::zeros(l, l);
        let mut d_z = Matrix::zeros(l, l);
        let mut prod = Matrix::zeros(l, a.cols());
        let mut d_in = Matrix::zeros(l, a.cols());
        Self::backward_into(
            a,
            &cache.probs,
            d_out,
            &mut d_p,
            &mut d_z,
            &mut prod,
            &mut d_in,
        );
        d_in
    }
}

#[cfg(test)]
impl AttnCache {
    /// Test-only view of the attention matrix.
    pub(crate) fn probs(&self) -> &Matrix {
        &self.probs
    }
}

/// The feed-forward layer of Eq. (9): `F(A) = relu(W·A + b·1ᵀ)`.
#[derive(Clone, Debug)]
pub struct FeedForward {
    /// `W ∈ R^{L×L}`.
    pub w: Param,
    /// `b ∈ R^{L×1}` broadcast across columns.
    pub b: Param,
}

/// Forward cache of one feed-forward application (convenience tier).
#[derive(Clone, Debug)]
pub struct FfCache {
    input: Matrix,
    /// Post-activation output (the ReLU mask is `out > 0`).
    output: Matrix,
}

impl FeedForward {
    /// Xavier-initialized layer for path length `len`.
    #[must_use]
    pub fn new(len: usize, rng: &mut Rng) -> Self {
        FeedForward {
            w: Param::new(init::xavier(len, len, rng)),
            b: Param::new(Matrix::zeros(len, 1)),
        }
    }

    /// Near-identity initialization: `W = I + 0.02·N`, `b = 0.1`.
    ///
    /// Starts the translator close to the identity map (modulo ReLU), so
    /// the reconstruction tasks R1/R2 are nearly satisfied at step 0 and
    /// training spends its budget on the translation tasks. The small
    /// positive bias keeps units from starting dead. See DESIGN.md §4.
    #[must_use]
    pub fn near_identity(len: usize, rng: &mut Rng) -> Self {
        let mut w = init::xavier(len, len, rng);
        w.scale(0.1);
        for i in 0..len {
            let v = w.get(i, i);
            w.set(i, i, v + 1.0);
        }
        let b = Matrix::from_fn(len, 1, |_, _| 0.1);
        FeedForward {
            w: Param::new(w),
            b: Param::new(b),
        }
    }

    /// Path length `|λ|` this layer is sized for.
    #[must_use]
    pub fn path_len(&self) -> usize {
        self.w.value().rows()
    }

    /// Forward kernel: `out ← relu(W·A + b·1ᵀ)` (fully overwritten).
    pub fn forward_into(&self, a: &Matrix, out: &mut Matrix) {
        self.w.value().matmul_into(a, out);
        let l = out.rows();
        for r in 0..l {
            let bias = self.b.value().get(r, 0);
            for v in out.row_mut(r) {
                *v += bias;
            }
        }
        out.relu_inplace();
    }

    /// Backward kernel: accumulates `dW`, `db` into the parameter
    /// gradients and writes the gradient w.r.t. the input into `d_in`
    /// (fully overwritten). `input`/`output` are the cached forward
    /// operands; `d_h` (`L×d`) is scratch for the ReLU-masked gradient and
    /// may not alias `d_out` or `d_in`.
    pub fn backward_into(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        d_out: &Matrix,
        d_h: &mut Matrix,
        d_in: &mut Matrix,
    ) {
        // dH = dY ⊙ 1[Y > 0]
        d_h.copy_from(d_out);
        for (g, &y) in d_h.data_mut().iter_mut().zip(output.data()) {
            if y <= 0.0 {
                *g = 0.0;
            }
        }
        // dW += dH · Aᵀ
        d_h.matmul_tb_acc_into(input, self.w.grad_mut());
        // db += rowsum(dH)
        let l = d_h.rows();
        for r in 0..l {
            let s: f32 = d_h.row(r).iter().sum();
            let cur = self.b.grad().get(r, 0);
            self.b.grad_mut().set(r, 0, cur + s);
        }
        // dA = Wᵀ · dH
        self.w.value().matmul_ta_into(d_h, d_in);
    }

    /// Workspace forward pass: caches the input and output in `ws` and
    /// returns the output (borrowed from the arena) plus the cache handle
    /// for [`FeedForward::backward_ws`]. Re-sizes the arena if its path
    /// length or dim key differs; allocation-free otherwise.
    pub fn forward_ws<'w>(&self, a: &Matrix, ws: &'w mut Workspace) -> (&'w Matrix, FfWsCache) {
        let (depth, _, _) = ws.key();
        ws.ensure(depth, self.path_len(), a.cols());
        let gen = ws.begin(1);
        ws.input.copy_from(a);
        self.forward_into(&ws.input, &mut ws.stages[0].out);
        (&ws.stages[0].out, FfWsCache { gen })
    }

    /// Workspace backward pass: accumulates `dW`, `db` into the parameter
    /// gradients and returns the gradient w.r.t. the input, borrowed from
    /// the arena (valid until the next forward pass on `ws`).
    pub fn backward_ws<'w>(
        &mut self,
        cache: &FfWsCache,
        d_out: &Matrix,
        ws: &'w mut Workspace,
    ) -> &'w Matrix {
        ws.check(cache.gen);
        let Workspace {
            input,
            stages,
            d_h,
            d_cur,
            ..
        } = ws;
        self.backward_into(input, &stages[0].out, d_out, d_h, d_cur);
        &ws.d_cur
    }

    /// Forward pass (convenience tier).
    pub fn forward(&self, a: &Matrix) -> (Matrix, FfCache) {
        let mut out = Matrix::zeros(a.rows(), a.cols());
        self.forward_into(a, &mut out);
        let cache = FfCache {
            input: a.clone(),
            output: out.clone(),
        };
        (out, cache)
    }

    /// Backward pass (convenience tier): accumulates `dW`, `db` into the
    /// parameter gradients and returns the gradient w.r.t. the input.
    #[must_use]
    pub fn backward(&mut self, cache: &FfCache, d_out: &Matrix) -> Matrix {
        let mut d_h = Matrix::zeros(d_out.rows(), d_out.cols());
        let mut d_in = Matrix::zeros(d_out.rows(), d_out.cols());
        self.backward_into(&cache.input, &cache.output, d_out, &mut d_h, &mut d_in);
        d_in
    }
}

/// One encoder: self-attention followed by feed-forward.
#[derive(Clone, Debug)]
pub struct Encoder {
    /// The trainable feed-forward half; the attention half is
    /// parameter-free.
    pub ff: FeedForward,
}

/// A translator `T` (Eq. 10): a stack of `H` encoders, `2H` layers total.
#[derive(Clone, Debug)]
pub struct Translator {
    encoders: Vec<Encoder>,
    len: usize,
}

/// Forward cache of a full translator application (convenience tier):
/// owns the workspace arena the activations live in.
#[derive(Clone, Debug)]
pub struct TranslatorCache {
    ws: Workspace,
    cache: TranslatorWsCache,
}

impl TranslatorCache {
    /// Number of encoder stages cached.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.cache.depth
    }
}

impl Translator {
    /// A translator with `h` encoders over paths of length `len`,
    /// Xavier-initialized.
    #[must_use]
    pub fn new(h: usize, len: usize, rng: &mut Rng) -> Self {
        assert!(h >= 1, "a translator needs at least one encoder");
        Translator {
            encoders: (0..h)
                .map(|_| Encoder {
                    ff: FeedForward::new(len, rng),
                })
                .collect(),
            len,
        }
    }

    /// A translator initialized near the identity map (default in the
    /// TransN training loop; see [`FeedForward::near_identity`]).
    #[must_use]
    pub fn near_identity(h: usize, len: usize, rng: &mut Rng) -> Self {
        assert!(h >= 1, "a translator needs at least one encoder");
        Translator {
            encoders: (0..h)
                .map(|_| Encoder {
                    ff: FeedForward::near_identity(len, rng),
                })
                .collect(),
            len,
        }
    }

    /// Number of encoders `H`.
    #[must_use]
    pub fn num_encoders(&self) -> usize {
        self.encoders.len()
    }

    /// The fixed path length `|λ|` the translator is sized for.
    #[must_use]
    pub fn path_len(&self) -> usize {
        self.len
    }

    /// Borrow encoder `h` (e.g. to inspect parameter gradients without
    /// cloning them).
    #[must_use]
    pub fn encoder(&self, h: usize) -> &Encoder {
        &self.encoders[h]
    }

    /// Borrow all encoders in stack order.
    #[must_use]
    pub fn encoders(&self) -> &[Encoder] {
        &self.encoders
    }

    /// Workspace forward pass over an `L×d` embedding matrix: caches every
    /// stage's activations in `ws` and returns the stack output (borrowed
    /// from the arena) plus the cache handle for
    /// [`Translator::backward_ws`]. Re-sizes the arena if its
    /// `(depth, len, dim)` key differs; allocation-free otherwise.
    ///
    /// # Panics
    /// Panics if `a.rows() != self.path_len()`.
    pub fn forward_ws<'w>(
        &self,
        a: &Matrix,
        ws: &'w mut Workspace,
    ) -> (&'w Matrix, TranslatorWsCache) {
        assert_eq!(a.rows(), self.len, "path length mismatch");
        let depth = self.encoders.len();
        ws.ensure(depth, self.len, a.cols());
        let gen = ws.begin(depth);
        ws.input.copy_from(a);
        for (i, enc) in self.encoders.iter().enumerate() {
            let (done, rest) = ws.stages.split_at_mut(i);
            let stage = &mut rest[0];
            let input: &Matrix = if i == 0 { &ws.input } else { &done[i - 1].out };
            SelfAttention::forward_into(input, &mut stage.probs, &mut stage.attn_out);
            enc.ff.forward_into(&stage.attn_out, &mut stage.out);
        }
        (&ws.stages[depth - 1].out, TranslatorWsCache { gen, depth })
    }

    /// Workspace backward pass: accumulates parameter gradients and
    /// returns the gradient w.r.t. the input matrix, borrowed from the
    /// arena (valid until the next forward pass on `ws`).
    pub fn backward_ws<'w>(
        &mut self,
        cache: &TranslatorWsCache,
        d_out: &Matrix,
        ws: &'w mut Workspace,
    ) -> &'w Matrix {
        ws.check(cache.gen);
        assert_eq!(cache.depth, self.encoders.len(), "stack depth mismatch");
        ws.d_cur.copy_from(d_out);
        for i in (0..cache.depth).rev() {
            let Workspace {
                input,
                stages,
                d_p,
                d_z,
                d_cur,
                d_h,
                tmp,
                ..
            } = &mut *ws;
            let (done, rest) = stages.split_at_mut(i);
            let stage = &rest[0];
            // Feed-forward backward: d_cur (stage output grad) → tmp
            // (attention output grad), with d_h as the ReLU-mask scratch.
            self.encoders[i]
                .ff
                .backward_into(&stage.attn_out, &stage.out, d_cur, d_h, tmp);
            // Attention backward: tmp → d_cur (stage input grad), with d_h
            // reused as the product scratch.
            let stage_in: &Matrix = if i == 0 { input } else { &done[i - 1].out };
            SelfAttention::backward_into(stage_in, &stage.probs, tmp, d_p, d_z, d_h, d_cur);
        }
        &ws.d_cur
    }

    /// Forward pass (convenience tier) over an `L×d` embedding matrix.
    /// Allocates a fresh workspace owned by the returned cache; the
    /// training hot path uses [`Translator::forward_ws`] instead.
    ///
    /// # Panics
    /// Panics if `a.rows() != self.path_len()`.
    pub fn forward(&self, a: &Matrix) -> (Matrix, TranslatorCache) {
        let mut ws = Workspace::new(self.encoders.len(), self.len, a.cols());
        let (_, cache) = self.forward_ws(a, &mut ws);
        let out = ws.output(&cache).clone();
        (out, TranslatorCache { ws, cache })
    }

    /// Backward pass (convenience tier); accumulates parameter gradients
    /// and returns the gradient w.r.t. the input matrix.
    #[must_use]
    pub fn backward(&mut self, cache: &mut TranslatorCache, d_out: &Matrix) -> Matrix {
        let TranslatorCache { ws, cache } = cache;
        self.backward_ws(cache, d_out, ws).clone()
    }

    /// Adam step over all encoder parameters, clearing gradients.
    pub fn step_adam(&mut self, cfg: &AdamConfig) {
        for enc in &mut self.encoders {
            enc.ff.w.step_adam(cfg);
            enc.ff.b.step_adam(cfg);
        }
    }

    /// Clear all parameter gradients without stepping.
    pub fn zero_grad(&mut self) {
        for enc in &mut self.encoders {
            enc.ff.w.zero_grad();
            enc.ff.b.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transn_rng::Rng;

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0f32..1.0))
    }

    /// Scalar loss used for gradient checking: weighted sum of outputs.
    fn weighted_sum(out: &Matrix, weights: &Matrix) -> f32 {
        out.hadamard(weights).sum()
    }

    #[test]
    fn attention_rows_still_convex_combinations() {
        let a = rand_matrix(5, 4, 1);
        let (out, cache) = SelfAttention::forward(&a);
        assert_eq!(out.rows(), 5);
        assert_eq!(out.cols(), 4);
        // Each P row sums to 1.
        for r in 0..5 {
            let s: f32 = cache.probs().row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_gradient_matches_finite_difference() {
        let a = rand_matrix(4, 3, 2);
        let wsum = rand_matrix(4, 3, 3);
        let (_, cache) = SelfAttention::forward(&a);
        let analytic = SelfAttention::backward(&cache, &wsum);

        let eps = 1e-3f32;
        for idx in 0..a.data().len() {
            let mut ap = a.clone();
            ap.data_mut()[idx] += eps;
            let mut am = a.clone();
            am.data_mut()[idx] -= eps;
            let (op, _) = SelfAttention::forward(&ap);
            let (om, _) = SelfAttention::forward(&am);
            let numeric = (weighted_sum(&op, &wsum) - weighted_sum(&om, &wsum)) / (2.0 * eps);
            let got = analytic.data()[idx];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    /// Feed-forward gradients (Eq. 9) through the workspace API: `dW`,
    /// `db`, and `dA` from `backward_ws` — read through the borrow-based
    /// gradient accessors, no clones — must match central finite
    /// differences of the scalar loss.
    #[test]
    fn feedforward_gradients_match_finite_difference() {
        let mut rng = Rng::seed_from_u64(4);
        let mut ff = FeedForward::new(4, &mut rng);
        let a = rand_matrix(4, 3, 5);
        let wsum = rand_matrix(4, 3, 6);

        let mut ws = Workspace::new(1, 4, 3);
        let (_, cache) = ff.forward_ws(&a, &mut ws);
        let d_in = ff.backward_ws(&cache, &wsum, &mut ws).clone();

        let eps = 1e-3f32;
        let mut fd_ws = Workspace::new(1, 4, 3);
        // Check dW.
        for idx in 0..ff.w.grad().data().len() {
            let orig = ff.w.value().data()[idx];
            ff.w.value_mut().data_mut()[idx] = orig + eps;
            let (op, _) = ff.forward_ws(&a, &mut fd_ws);
            let lp = weighted_sum(op, &wsum);
            ff.w.value_mut().data_mut()[idx] = orig - eps;
            let (om, _) = ff.forward_ws(&a, &mut fd_ws);
            let lm = weighted_sum(om, &wsum);
            ff.w.value_mut().data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = ff.w.grad().data()[idx];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dW[{idx}]: {numeric} vs {got}"
            );
        }
        // Check db.
        for idx in 0..ff.b.grad().data().len() {
            let orig = ff.b.value().data()[idx];
            ff.b.value_mut().data_mut()[idx] = orig + eps;
            let (op, _) = ff.forward_ws(&a, &mut fd_ws);
            let lp = weighted_sum(op, &wsum);
            ff.b.value_mut().data_mut()[idx] = orig - eps;
            let (om, _) = ff.forward_ws(&a, &mut fd_ws);
            let lm = weighted_sum(om, &wsum);
            ff.b.value_mut().data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = ff.b.grad().data()[idx];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "db[{idx}]: {numeric} vs {got}"
            );
        }
        // Check d_in.
        for idx in 0..a.data().len() {
            let mut ap = a.clone();
            ap.data_mut()[idx] += eps;
            let mut am = a.clone();
            am.data_mut()[idx] -= eps;
            let (op, _) = ff.forward_ws(&ap, &mut fd_ws);
            let lp = weighted_sum(op, &wsum);
            let (om, _) = ff.forward_ws(&am, &mut fd_ws);
            let lm = weighted_sum(om, &wsum);
            let numeric = (lp - lm) / (2.0 * eps);
            let got = d_in.data()[idx];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dA[{idx}]: {numeric} vs {got}"
            );
        }
    }

    /// Input gradient through a 2-encoder stack via the workspace API.
    #[test]
    fn translator_input_gradient_matches_finite_difference() {
        let mut rng = Rng::seed_from_u64(7);
        let mut t = Translator::near_identity(2, 4, &mut rng);
        let a = rand_matrix(4, 3, 8);
        let wsum = rand_matrix(4, 3, 9);

        let mut ws = Workspace::new(2, 4, 3);
        let (_, cache) = t.forward_ws(&a, &mut ws);
        let d_in = t.backward_ws(&cache, &wsum, &mut ws).clone();
        t.zero_grad();

        let eps = 1e-3f32;
        let mut fd_ws = Workspace::new(2, 4, 3);
        for idx in 0..a.data().len() {
            let mut ap = a.clone();
            ap.data_mut()[idx] += eps;
            let mut am = a.clone();
            am.data_mut()[idx] -= eps;
            let (op, _) = t.forward_ws(&ap, &mut fd_ws);
            let lp = weighted_sum(op, &wsum);
            let (om, _) = t.forward_ws(&am, &mut fd_ws);
            let lm = weighted_sum(om, &wsum);
            let numeric = (lp - lm) / (2.0 * eps);
            let got = d_in.data()[idx];
            assert!(
                (numeric - got).abs() < 5e-2 * (1.0 + numeric.abs()),
                "dA[{idx}]: {numeric} vs {got}"
            );
        }
    }

    /// Parameter gradients (Eqs. 8–10) through a *multi*-encoder stack:
    /// every encoder's `dW` and `db` must match central finite differences
    /// of the scalar loss. Deeper layers only see the input through two
    /// attention/FF compositions, so this exercises the full chain rule,
    /// not just the last layer. Gradients are read through the borrow-based
    /// [`Translator::encoder`] accessor — no gradient clones.
    #[test]
    fn translator_parameter_gradients_match_finite_difference() {
        let mut rng = Rng::seed_from_u64(13);
        let mut t = Translator::near_identity(3, 4, &mut rng);
        // Positive input keeps most ReLU units away from the kink, where
        // the subgradient and the finite difference legitimately disagree.
        let mut rng2 = Rng::seed_from_u64(14);
        let a = Matrix::from_fn(4, 3, |_, _| rng2.random_range(0.2f32..1.0));
        let wsum = rand_matrix(4, 3, 15);

        t.zero_grad();
        let mut ws = Workspace::new(3, 4, 3);
        let (_, cache) = t.forward_ws(&a, &mut ws);
        let _ = t.backward_ws(&cache, &wsum, &mut ws);

        fn value(t: &mut Translator, h: usize, param_is_w: bool, idx: usize) -> &mut f32 {
            let p = if param_is_w {
                &mut t.encoders[h].ff.w
            } else {
                &mut t.encoders[h].ff.b
            };
            &mut p.value_mut().data_mut()[idx]
        }

        let eps = 1e-3f32;
        let mut fd_ws = Workspace::new(3, 4, 3);
        for h in 0..t.num_encoders() {
            for param_is_w in [true, false] {
                let grad_len = if param_is_w {
                    t.encoder(h).ff.w.grad().data().len()
                } else {
                    t.encoder(h).ff.b.grad().data().len()
                };
                for idx in 0..grad_len {
                    let orig = *value(&mut t, h, param_is_w, idx);
                    *value(&mut t, h, param_is_w, idx) = orig + eps;
                    let (op, _) = t.forward_ws(&a, &mut fd_ws);
                    let lp = weighted_sum(op, &wsum);
                    *value(&mut t, h, param_is_w, idx) = orig - eps;
                    let (om, _) = t.forward_ws(&a, &mut fd_ws);
                    let lm = weighted_sum(om, &wsum);
                    *value(&mut t, h, param_is_w, idx) = orig;
                    let numeric = (lp - lm) / (2.0 * eps);
                    let got = if param_is_w {
                        t.encoder(h).ff.w.grad().data()[idx]
                    } else {
                        t.encoder(h).ff.b.grad().data()[idx]
                    };
                    let name = if param_is_w { "dW" } else { "db" };
                    assert!(
                        (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                        "encoder {h} {name}[{idx}]: numeric {numeric} vs analytic {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn translator_shapes_and_stack_depth() {
        let mut rng = Rng::seed_from_u64(1);
        let t = Translator::new(6, 8, &mut rng);
        assert_eq!(t.num_encoders(), 6);
        assert_eq!(t.path_len(), 8);
        let a = rand_matrix(8, 16, 2);
        let (out, cache) = t.forward(&a);
        assert_eq!(out.rows(), 8);
        assert_eq!(out.cols(), 16);
        assert_eq!(cache.depth(), 6);
    }

    #[test]
    #[should_panic(expected = "path length mismatch")]
    fn translator_rejects_wrong_length() {
        let mut rng = Rng::seed_from_u64(1);
        let t = Translator::new(1, 8, &mut rng);
        let a = rand_matrix(5, 16, 2);
        let _ = t.forward(&a);
    }

    #[test]
    fn near_identity_is_close_to_identity_on_positive_input() {
        let mut rng = Rng::seed_from_u64(11);
        let t = Translator::near_identity(1, 6, &mut rng);
        // Positive input so the ReLU is inactive.
        let mut rng2 = Rng::seed_from_u64(12);
        let a = Matrix::from_fn(6, 4, |_, _| rng2.random_range(0.5f32..1.0));
        let (out, _) = t.forward(&a);
        // Attention mixes rows, so allow generous tolerance: check the
        // output is correlated with the input, not that it's equal.
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut no = 0.0;
        for (x, y) in a.data().iter().zip(out.data()) {
            dot += x * y;
            na += x * x;
            no += y * y;
        }
        let cos = dot / (na.sqrt() * no.sqrt());
        assert!(cos > 0.8, "cosine {cos}");
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        // Sanity: can a 1-encoder translator learn to map a fixed input to
        // a fixed positive target? Runs entirely through the workspace API
        // with a single reused arena, like the cross-view trainer does.
        let mut rng = Rng::seed_from_u64(20);
        let mut t = Translator::near_identity(1, 4, &mut rng);
        let a = rand_matrix(4, 3, 21);
        let target = Matrix::from_fn(4, 3, |r, c| 0.3 + 0.1 * (r as f32) + 0.05 * (c as f32));
        let cfg = AdamConfig {
            lr: 0.02,
            ..Default::default()
        };
        let mut ws = Workspace::new(1, 4, 3);
        let mut d = Matrix::zeros(4, 3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..1000 {
            let (out, cache) = t.forward_ws(&a, &mut ws);
            // L = ½‖out − target‖²; dL/dout = out − target.
            d.copy_from(out);
            d.add_scaled(&target, -1.0);
            last = 0.5 * d.frobenius().powi(2);
            if first.is_none() {
                first = Some(last);
            }
            let _ = t.backward_ws(&cache, &d, &mut ws);
            t.step_adam(&cfg);
        }
        assert!(
            last < 0.25 * first.unwrap(),
            "loss {} -> {last}",
            first.unwrap()
        );
    }

    #[test]
    fn workspace_reuse_across_depths_rejected_without_resize() {
        // A translator self-sizes the arena, so mismatched workspaces are
        // resized rather than rejected; the handle still pins the depth.
        let mut rng = Rng::seed_from_u64(2);
        let t2 = Translator::near_identity(2, 4, &mut rng);
        let t3 = Translator::near_identity(3, 4, &mut rng);
        let a = rand_matrix(4, 5, 3);
        let mut ws = Workspace::new(2, 4, 5);
        let (_, c2) = t2.forward_ws(&a, &mut ws);
        assert_eq!(c2.depth, 2);
        let (_, c3) = t3.forward_ws(&a, &mut ws);
        assert_eq!(ws.key(), (3, 4, 5));
        assert_eq!(c3.depth, 3);
    }
}
