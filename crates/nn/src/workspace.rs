//! A reusable scratch arena for translator forward/backward passes.
//!
//! The cross-view translators run once per sampled segment, thousands of
//! times per training iteration. The original layer API cloned its input
//! into a fresh heap-allocated cache and returned new [`Matrix`] values on
//! every call; a [`Workspace`] instead owns all of that storage up front —
//! cached activations, attention probabilities, and gradient temporaries —
//! pre-sized for a shape key `(stack_depth, path_len, dim)`. The layer
//! `*_ws` entry points ([`crate::Translator::forward_ws`],
//! [`crate::FeedForward::forward_ws`], and their `backward_ws` duals)
//! borrow buffers from the arena, so after the first sizing the hot loop
//! performs **zero heap allocations**.
//!
//! Caches are not data structures anymore but **handles**
//! ([`TranslatorWsCache`], [`FfWsCache`]): small index tokens tied to the
//! workspace generation that produced them. A handle is valid until the
//! next forward pass reuses the arena; stale handles are rejected by a
//! generation check rather than silently reading overwritten buffers.
//!
//! Layout (all matrices pre-sized, `L = path_len`, `d = dim`):
//!
//! ```text
//! input            L×d   copy of the stack input A (stage 0's cache)
//! stages[h].probs  L×L   row-softmaxed attention matrix of encoder h
//! stages[h].attn_out L×d attention output = FF input of encoder h
//! stages[h].out    L×d   encoder h output (stage h+1's input)
//! d_p, d_z         L×L   attention-backward temporaries
//! d_cur, d_h, tmp  L×d   gradient flow / ReLU-mask / product temporaries
//! ```
//!
//! See DESIGN.md §8 for how the cross-view trainer owns one workspace per
//! view-pair and threads them through the parallel cross-view pass.

use crate::matrix::Matrix;

/// Per-encoder cached activations inside a [`Workspace`].
#[derive(Clone, Debug)]
pub(crate) struct StageBufs {
    /// Row-softmaxed attention matrix `P = ζ(A·Aᵀ/√d)` (`L×L`).
    pub(crate) probs: Matrix,
    /// Attention output `S(A) = P·A`, the feed-forward input (`L×d`).
    pub(crate) attn_out: Matrix,
    /// Encoder output `F(S(A))` (`L×d`), the next stage's input.
    pub(crate) out: Matrix,
}

/// Pre-sized scratch arena for one translator (or single feed-forward)
/// application at a time. See the module docs for the buffer layout.
#[derive(Clone, Debug)]
pub struct Workspace {
    depth: usize,
    len: usize,
    dim: usize,
    /// Bumped by every `forward_ws`; handles carry the generation they
    /// were minted at so stale handles fail loudly.
    gen: u64,
    pub(crate) input: Matrix,
    pub(crate) stages: Vec<StageBufs>,
    pub(crate) d_p: Matrix,
    pub(crate) d_z: Matrix,
    pub(crate) d_cur: Matrix,
    pub(crate) d_h: Matrix,
    pub(crate) tmp: Matrix,
}

/// Handle to the cached activations of the most recent
/// [`crate::Translator::forward_ws`] on a workspace. Consumed (by
/// reference) by [`crate::Translator::backward_ws`] and
/// [`Workspace::output`].
#[must_use = "the forward cache handle is required to run the backward pass"]
#[derive(Clone, Copy, Debug)]
pub struct TranslatorWsCache {
    pub(crate) gen: u64,
    pub(crate) depth: usize,
}

/// Handle to the cached activations of the most recent
/// [`crate::FeedForward::forward_ws`] on a workspace.
#[must_use = "the forward cache handle is required to run the backward pass"]
#[derive(Clone, Copy, Debug)]
pub struct FfWsCache {
    pub(crate) gen: u64,
}

impl Workspace {
    /// Allocate an arena sized for `depth` encoders over `len×dim` inputs.
    #[must_use]
    pub fn new(depth: usize, len: usize, dim: usize) -> Self {
        assert!(depth >= 1, "a workspace needs at least one stage");
        assert!(len >= 1 && dim >= 1, "workspace shape must be non-empty");
        Workspace {
            depth,
            len,
            dim,
            gen: 0,
            input: Matrix::zeros(len, dim),
            stages: (0..depth)
                .map(|_| StageBufs {
                    probs: Matrix::zeros(len, len),
                    attn_out: Matrix::zeros(len, dim),
                    out: Matrix::zeros(len, dim),
                })
                .collect(),
            d_p: Matrix::zeros(len, len),
            d_z: Matrix::zeros(len, len),
            d_cur: Matrix::zeros(len, dim),
            d_h: Matrix::zeros(len, dim),
            tmp: Matrix::zeros(len, dim),
        }
    }

    /// The shape key `(stack_depth, path_len, dim)` the arena is sized for.
    #[must_use]
    pub fn key(&self) -> (usize, usize, usize) {
        (self.depth, self.len, self.dim)
    }

    /// Re-size the arena if its key differs from `(depth, len, dim)`.
    /// A no-op (and allocation-free) when the key already matches — the
    /// common case in a warmed-up training loop.
    pub fn ensure(&mut self, depth: usize, len: usize, dim: usize) {
        if self.key() != (depth, len, dim) {
            *self = Workspace::new(depth, len, dim);
        }
    }

    /// Start a new forward pass using `depth` stages; returns the new
    /// generation.
    ///
    /// # Panics
    /// Panics if `depth` exceeds the arena's stage count.
    pub(crate) fn begin(&mut self, depth: usize) -> u64 {
        assert!(
            depth <= self.depth,
            "workspace sized for {} stages, forward needs {depth}",
            self.depth
        );
        self.gen += 1;
        self.gen
    }

    /// Validate that `gen` identifies the most recent forward pass.
    pub(crate) fn check(&self, gen: u64) {
        assert_eq!(
            gen, self.gen,
            "stale workspace cache handle: the arena was reused by a newer forward pass"
        );
    }

    /// The output matrix of the forward pass identified by `cache`.
    ///
    /// # Panics
    /// Panics if `cache` is not the workspace's most recent forward pass.
    #[must_use]
    pub fn output(&self, cache: &TranslatorWsCache) -> &Matrix {
        self.check(cache.gen);
        &self.stages[cache.depth - 1].out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trips() {
        let ws = Workspace::new(3, 8, 16);
        assert_eq!(ws.key(), (3, 8, 16));
    }

    #[test]
    fn ensure_is_noop_on_matching_key() {
        let mut ws = Workspace::new(2, 4, 8);
        ws.gen = 7;
        ws.ensure(2, 4, 8);
        assert_eq!(ws.gen, 7, "matching ensure must not reset the arena");
        ws.ensure(3, 4, 8);
        assert_eq!(ws.key(), (3, 4, 8));
        assert_eq!(ws.gen, 0, "resize starts a fresh arena");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_depth_rejected() {
        let _ = Workspace::new(0, 4, 8);
    }

    #[test]
    #[should_panic(expected = "stale workspace cache handle")]
    fn stale_handle_rejected() {
        let mut ws = Workspace::new(1, 4, 8);
        let gen = ws.begin(1);
        let cache = TranslatorWsCache { gen, depth: 1 };
        let _ = ws.begin(1);
        let _ = ws.output(&cache);
    }
}
