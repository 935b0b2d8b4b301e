//! Skip-gram with negative sampling (SGNS) over walk corpora.
//!
//! For each `(center, context)` pair the model maximizes
//! `log σ(u_ctx · v_center) + Σ_k log σ(−u_noise_k · v_center)`,
//! the standard estimator for the softmax of Eq. (3) \[27\]. Input vectors
//! `v` are the node embeddings delivered downstream; output vectors `u`
//! are the context table.

use crate::context::count_pairs;
use crate::negative::NoiseTable;
use crate::sigmoid::fast_sigmoid;
use crate::stream::{mean_loss, train_episode_stream};
use crate::sync::{Parallelism, RacyTable};
use transn_nn::kernels;
use transn_rng::Rng;
use transn_walks::{EpisodeConfig, WalkCorpus};

/// SGNS hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct SgnsConfig {
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Negative samples per positive pair (word2vec default 5).
    pub negatives: usize,
    /// Initial learning rate; the paper sets 0.025 (§IV-A3).
    pub lr0: f32,
    /// Linear-decay floor as a fraction of `lr0`.
    pub min_lr_frac: f32,
    /// Symmetric context window (Definition 6: 1 homo, 2 heter; baselines
    /// use larger windows).
    pub window: usize,
    /// Training seed (noise draws).
    pub seed: u64,
    /// Thread count and determinism policy for corpus training.
    pub parallelism: Parallelism,
    /// Episodic pipeline configuration ([`crate::stream`]); the default
    /// `episode_walks = 0` trains each epoch as one episode.
    pub episode: EpisodeConfig,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 128,
            negatives: 5,
            lr0: 0.025,
            min_lr_frac: 1e-4,
            window: 2,
            seed: 17,
            parallelism: Parallelism::default(),
            episode: EpisodeConfig::default(),
        }
    }
}

impl SgnsConfig {
    /// Validate the hyper-parameters (including the episodic pipeline
    /// settings); returns a human-readable message on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be at least 1".to_string());
        }
        if self.window == 0 {
            return Err("window must be at least 1".to_string());
        }
        self.episode.validate()
    }
}

/// An SGNS model over `n` nodes: input (embedding) and output (context)
/// tables, each `n × dim`, stored flat.
#[derive(Clone, Debug)]
pub struct SgnsModel {
    n: usize,
    dim: usize,
    input: Vec<f32>,
    output: Vec<f32>,
}

impl SgnsModel {
    /// Word2vec-style initialization: input `U(−0.5/d, 0.5/d)`, output
    /// zeros.
    pub fn new(n: usize, dim: usize, rng: &mut Rng) -> Self {
        let half = 0.5 / dim as f32;
        let input = (0..n * dim)
            .map(|_| rng.random_range(-half..half))
            .collect();
        SgnsModel {
            n,
            dim,
            input,
            output: vec![0.0; n * dim],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The input embedding of node `i`.
    #[inline]
    pub fn embedding(&self, i: u32) -> &[f32] {
        let i = i as usize;
        &self.input[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable input embedding (the cross-view algorithm writes gradient
    /// updates for common nodes here).
    #[inline]
    pub fn embedding_mut(&mut self, i: u32) -> &mut [f32] {
        let i = i as usize;
        &mut self.input[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole input table, flat row-major `n × dim`.
    pub fn input_table(&self) -> &[f32] {
        &self.input
    }

    /// Mutable whole input table, flat row-major `n × dim` (e.g. for
    /// wrapping in a [`crate::RacyTable`] shared view).
    pub fn input_table_mut(&mut self) -> &mut [f32] {
        &mut self.input
    }

    /// Both tables mutably at once (input, output) — the stream trainer
    /// updates them in place, or wraps each in a [`crate::RacyTable`] view
    /// for Hogwild workers.
    pub(crate) fn tables_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.input, &mut self.output)
    }

    /// Train one positive pair plus `negatives` noise pairs, updating the
    /// center's input vector and the contexts' output vectors in place.
    /// Returns the (approximate) pair loss for monitoring.
    #[inline]
    pub fn train_pair(
        &mut self,
        center: u32,
        ctx: u32,
        noise: &NoiseTable,
        negatives: usize,
        lr: f32,
        rng: &mut Rng,
    ) -> f32 {
        let dim = self.dim;
        let mut scratch = vec![0.0f32; 3 * dim];
        pair_update(
            &mut self.input[..],
            &mut self.output[..],
            dim,
            center,
            ctx,
            noise,
            negatives,
            lr,
            rng,
            &mut scratch,
        )
    }

    /// One pass over a resident corpus: a single stream-schedule episode
    /// starting at walk 0 and pair 0 ([`crate::stream`]), with the lr
    /// decaying linearly over the corpus's pair total. Returns the mean
    /// pair loss.
    ///
    /// `cfg.parallelism` decides how walks are applied: Strict (or one
    /// thread) applies them serially in corpus order, updating the tables
    /// in place, so fixed-seed runs are bit-identical at any thread count;
    /// Hogwild trains contiguous shards of the walks concurrently through
    /// lock-free [`RacyTable`] views. Hold `ws` across epochs: a warmed
    /// sequential epoch performs no heap allocation.
    pub fn train_corpus(
        &mut self,
        corpus: &WalkCorpus,
        noise: &NoiseTable,
        cfg: &SgnsConfig,
        ws: &mut TrainScratch,
    ) -> f32 {
        let total: u64 = (0..corpus.len())
            .map(|w| count_pairs(corpus.walk(w).len(), cfg.window) as u64)
            .sum();
        let (loss, done) = train_episode_stream(self, corpus, noise, cfg, 0, 0, total, ws);
        mean_loss(loss, done)
    }

    /// Copy the input table into per-node `Vec`s (for evaluation
    /// interfaces working with global tables).
    pub fn export_embeddings(&self) -> Vec<Vec<f32>> {
        (0..self.n as u32)
            .map(|i| self.embedding(i).to_vec())
            .collect()
    }
}

/// Reusable [`SgnsModel::train_corpus`] workspace: the per-walk global
/// pair-index starts that key the lr decay by corpus-wide pair position,
/// plus the `3·dim` per-pair gradient scratch used by sequential
/// execution. Hold one across epochs so warmed epochs perform zero heap
/// allocations.
#[derive(Clone, Debug, Default)]
pub struct TrainScratch {
    pub(crate) pair_scratch: Vec<f32>,
    pub(crate) pair_starts: Vec<u64>,
}

/// How the SGNS pair update reaches embedding rows. Plain `[f32]` tables
/// (sequential execution) are read and updated in place; shared
/// [`RacyTable`] views (Hogwild) go through gather/compute/scatter, so the
/// arithmetic always runs on plain slices. One pair body,
/// [`pair_update`], serves both.
pub(crate) trait Rows {
    /// The `buf.len()` slots from `start`: borrowed in place, or copied
    /// into `buf`.
    fn read<'s>(&'s self, start: usize, buf: &'s mut [f32]) -> &'s [f32];

    /// Run `f` on the `buf.len()` slots from `start`: in place, or on a
    /// copy in `buf` that is written back when `f` returns.
    fn update(&mut self, start: usize, buf: &mut [f32], f: impl FnOnce(&mut [f32]));

    /// `slots[start..start + src.len()] += s·src`.
    fn add_scaled(&mut self, start: usize, s: f32, src: &[f32]);
}

impl Rows for [f32] {
    #[inline(always)]
    fn read<'s>(&'s self, start: usize, buf: &'s mut [f32]) -> &'s [f32] {
        &self[start..start + buf.len()]
    }

    #[inline(always)]
    fn update(&mut self, start: usize, buf: &mut [f32], f: impl FnOnce(&mut [f32])) {
        f(&mut self[start..start + buf.len()]);
    }

    #[inline(always)]
    fn add_scaled(&mut self, start: usize, s: f32, src: &[f32]) {
        kernels::axpy(&mut self[start..start + src.len()], s, src);
    }
}

impl Rows for &RacyTable<'_> {
    #[inline(always)]
    fn read<'s>(&'s self, start: usize, buf: &'s mut [f32]) -> &'s [f32] {
        self.gather_into(start, buf);
        buf
    }

    #[inline(always)]
    fn update(&mut self, start: usize, buf: &mut [f32], f: impl FnOnce(&mut [f32])) {
        self.gather_into(start, buf);
        f(buf);
        self.scatter(start, buf);
    }

    #[inline(always)]
    fn add_scaled(&mut self, start: usize, s: f32, src: &[f32]) {
        RacyTable::add_scaled(self, start, s, src);
    }
}

/// Train one positive pair plus `negatives` noise pairs: the SGNS pair
/// body, written once over any [`Rows`]. For each of the positive and
/// `negatives` noise targets, the dot and both axpys run on the target's
/// output row, accumulating the center gradient against the pre-update
/// row; the center's input row takes `−grad` once, when the pair ends.
/// Returns the (approximate) pair loss.
///
/// `scratch` must be a caller-provided `3·dim`-length buffer
/// (center-gradient accumulator, center-row snapshot and context-row
/// staging, hoisted out so the hot loop does not allocate per pair). On
/// plain `[f32]` tables (sequential execution and
/// [`SgnsModel::train_pair`]) the kernels run on the rows in place and
/// only the accumulator is used. On shared [`RacyTable`] views (Hogwild)
/// each row is gathered into scratch once per pair/target, so the dot and
/// the rank-1 updates still run through the 8-lane slice kernels
/// ([`transn_nn::kernels`], DESIGN.md §9). Serially both compute exactly
/// the word2vec update (the center row is constant for the whole pair, so
/// the one-time snapshot is not an approximation); under Hogwild the
/// snapshot coarsens staleness from per-element to per-row, which the
/// scheme tolerates by design.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn pair_update<I: Rows + ?Sized, O: Rows + ?Sized>(
    input: &mut I,
    output: &mut O,
    dim: usize,
    center: u32,
    ctx: u32,
    noise: &NoiseTable,
    negatives: usize,
    lr: f32,
    rng: &mut Rng,
    scratch: &mut [f32],
) -> f32 {
    debug_assert_eq!(scratch.len(), 3 * dim);
    let c = center as usize * dim;
    let (grad_center, rest) = scratch.split_at_mut(dim);
    let (center_buf, row_buf) = rest.split_at_mut(dim);
    grad_center.fill(0.0);
    let v_center = input.read(c, center_buf);
    let mut loss = 0.0f32;

    // One positive + `negatives` noise targets.
    for k in 0..=negatives {
        let (target, label) = if k == 0 {
            (ctx, 1.0f32)
        } else {
            (noise.sample_excluding(ctx, rng), 0.0f32)
        };
        output.update(target as usize * dim, row_buf, |row| {
            let pred = fast_sigmoid(kernels::dot(v_center, row));
            loss -= if label > 0.5 {
                pred.max(1e-7).ln()
            } else {
                (1.0 - pred).max(1e-7).ln()
            };
            let g = (pred - label) * lr;
            // grad_center accumulates against the pre-update context row.
            kernels::axpy(grad_center, g, row);
            kernels::axpy(row, -g, v_center);
        });
    }
    input.add_scaled(c, -1.0, grad_center);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use transn_rng::Rng;

    /// Two 4-cliques joined by one edge; walks stay mostly inside a
    /// community, so SGNS should embed communities compactly.
    fn two_communities_corpus() -> (WalkCorpus, usize) {
        let n = 8usize;
        let mut rng = Rng::seed_from_u64(5);
        let mut walks = Vec::new();
        use transn_rng::Rng;
        for start in 0..n as u32 {
            for _ in 0..30 {
                let mut walk = vec![start];
                let mut cur = start;
                for _ in 0..9 {
                    let community = (cur / 4) * 4;
                    // 90% stay within community, 10% jump via the bridge
                    // (nodes 3 and 4).
                    let next = if rng.random::<f32>() < 0.9 || !(cur == 3 || cur == 4) {
                        let mut cand = community + rng.random_range(0..4u32);
                        while cand == cur {
                            cand = community + rng.random_range(0..4u32);
                        }
                        cand
                    } else if cur == 3 {
                        4
                    } else {
                        3
                    };
                    walk.push(next);
                    cur = next;
                }
                walks.push(walk);
            }
        }
        (WalkCorpus::from_walks(walks), n)
    }

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        dot / (na * nb).max(1e-12)
    }

    #[test]
    fn communities_become_separable() {
        let (corpus, n) = two_communities_corpus();
        let noise = NoiseTable::from_frequencies(&corpus.node_frequencies(n));
        let cfg = SgnsConfig {
            dim: 16,
            negatives: 5,
            lr0: 0.05,
            min_lr_frac: 1e-3,
            window: 2,
            seed: 9,
            parallelism: Parallelism::default(),
            episode: EpisodeConfig::default(),
        };
        let mut model = SgnsModel::new(n, cfg.dim, &mut Rng::seed_from_u64(1));
        for _ in 0..3 {
            model.train_corpus(&corpus, &noise, &cfg, &mut TrainScratch::default());
        }
        // Mean intra-community cosine must exceed inter-community cosine.
        let mut intra = 0.0f32;
        let mut inter = 0.0f32;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                let c = cosine(model.embedding(i), model.embedding(j));
                if i / 4 == j / 4 {
                    intra += c;
                    n_intra += 1;
                } else {
                    inter += c;
                    n_inter += 1;
                }
            }
        }
        intra /= n_intra as f32;
        inter /= n_inter as f32;
        assert!(
            intra > inter + 0.2,
            "intra {intra} should beat inter {inter}"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let (corpus, n) = two_communities_corpus();
        let noise = NoiseTable::from_frequencies(&corpus.node_frequencies(n));
        let cfg = SgnsConfig {
            dim: 16,
            lr0: 0.05,
            seed: 2,
            ..Default::default()
        };
        let mut model = SgnsModel::new(n, cfg.dim, &mut Rng::seed_from_u64(3));
        let mut ws = TrainScratch::default();
        let first = model.train_corpus(&corpus, &noise, &cfg, &mut ws);
        let mut last = first;
        for _ in 0..4 {
            last = model.train_corpus(&corpus, &noise, &cfg, &mut ws);
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn pair_update_moves_vectors_together() {
        let mut rng = Rng::seed_from_u64(4);
        let mut model = SgnsModel::new(4, 8, &mut rng);
        let noise = NoiseTable::from_frequencies(&[1, 1, 1, 1]);
        let before = {
            let v = model.embedding(0);
            let u = &model.output[8..16];
            v.iter().zip(u).map(|(a, b)| a * b).sum::<f32>()
        };
        for _ in 0..50 {
            model.train_pair(0, 1, &noise, 2, 0.1, &mut rng);
        }
        let after = {
            let v = model.embedding(0);
            let u = &model.output[8..16];
            v.iter().zip(u).map(|(a, b)| a * b).sum::<f32>()
        };
        assert!(after > before, "dot {before} -> {after}");
    }

    #[test]
    fn export_matches_rows() {
        let mut rng = Rng::seed_from_u64(6);
        let model = SgnsModel::new(3, 4, &mut rng);
        let ex = model.export_embeddings();
        assert_eq!(ex.len(), 3);
        assert_eq!(ex[2], model.embedding(2));
    }

    #[test]
    fn empty_corpus_is_a_noop() {
        let mut rng = Rng::seed_from_u64(7);
        let mut model = SgnsModel::new(3, 4, &mut rng);
        let noise = NoiseTable::from_frequencies(&[1, 1, 1]);
        let before = model.input_table().to_vec();
        let loss = model.train_corpus(
            &WalkCorpus::new(),
            &noise,
            &SgnsConfig::default(),
            &mut TrainScratch::default(),
        );
        assert_eq!(loss, 0.0);
        assert_eq!(model.input_table(), &before[..]);
    }

    /// Train the two-community corpus once under `par` and return the
    /// exact bit patterns of loss, input, and output tables.
    fn train_bits(par: Parallelism) -> (u32, Vec<u32>, Vec<u32>) {
        let (corpus, n) = two_communities_corpus();
        let noise = NoiseTable::from_frequencies(&corpus.node_frequencies(n));
        let cfg = SgnsConfig {
            dim: 16,
            lr0: 0.05,
            seed: 2,
            parallelism: par,
            ..Default::default()
        };
        let mut model = SgnsModel::new(n, cfg.dim, &mut Rng::seed_from_u64(3));
        let loss = model.train_corpus(&corpus, &noise, &cfg, &mut TrainScratch::default());
        (
            loss.to_bits(),
            model.input.iter().map(|v| v.to_bits()).collect(),
            model.output.iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn strict_training_is_bit_identical_across_thread_counts() {
        let base = train_bits(Parallelism::strict(1));
        for threads in [2usize, 4, 8] {
            assert_eq!(
                train_bits(Parallelism::strict(threads)),
                base,
                "Strict must be thread-count invariant (threads={threads})"
            );
        }
        // A single Hogwild thread runs the identical serial schedule.
        assert_eq!(train_bits(Parallelism::hogwild(1)), base);
    }

    #[test]
    fn hogwild_training_reduces_loss_with_many_threads() {
        let (corpus, n) = two_communities_corpus();
        let noise = NoiseTable::from_frequencies(&corpus.node_frequencies(n));
        let cfg = SgnsConfig {
            dim: 16,
            lr0: 0.05,
            seed: 2,
            parallelism: Parallelism::hogwild(4),
            ..Default::default()
        };
        let mut model = SgnsModel::new(n, cfg.dim, &mut Rng::seed_from_u64(3));
        let mut ws = TrainScratch::default();
        let first = model.train_corpus(&corpus, &noise, &cfg, &mut ws);
        let mut last = first;
        for _ in 0..4 {
            last = model.train_corpus(&corpus, &noise, &cfg, &mut ws);
        }
        assert!(last.is_finite() && first.is_finite());
        assert!(last < first, "hogwild loss {first} -> {last}");
    }

    /// Finite-difference check of the SGNS pair update: with distinct
    /// targets the in-place update equals `lr · ∇L` of the joint loss
    /// `Σ_k BCE(σ(v_c · u_k))` at the initial tables, so
    /// `(before − after) / lr` must match a central finite difference of
    /// that loss to ~1e-3 relative.
    #[test]
    fn train_pair_gradient_matches_finite_differences() {
        use transn_rng::Rng;
        let dim = 8usize;
        let n = 5usize;
        let noise = NoiseTable::from_frequencies(&[3, 1, 4, 1, 5]);
        let (center, ctx, negatives) = (0u32, 1u32, 3usize);

        // Deterministically pick the first seed whose replayed noise draws
        // give pairwise-distinct targets (required for the update to equal
        // the exact joint-loss gradient). The output table is randomized
        // too: with the word2vec zero init the input gradient is
        // identically zero and the check would be vacuous.
        let (mut model, mut rng, targets) = (11..64u64)
            .find_map(|s| {
                let mut rng = Rng::seed_from_u64(s);
                let mut model = SgnsModel::new(n, dim, &mut rng);
                for v in model.output.iter_mut() {
                    *v = rng.random_range(-0.5..0.5);
                }
                // Replay the RNG to learn which targets train_pair draws.
                let mut probe = rng.clone();
                let mut targets = vec![(ctx, 1.0f64)];
                for _ in 0..negatives {
                    targets.push((noise.sample_excluding(ctx, &mut probe), 0.0));
                }
                let mut uniq: Vec<u32> = targets.iter().map(|t| t.0).collect();
                uniq.sort_unstable();
                uniq.dedup();
                (uniq.len() == targets.len()).then_some((model, rng, targets))
            })
            .expect("some seed in 11..64 yields distinct targets");

        // Joint loss replicated in f64 (same clamp + sigmoid as training).
        let loss_fn = |input: &[f32], output: &[f32]| -> f64 {
            let c = center as usize * dim;
            let mut loss = 0.0f64;
            for &(t, label) in &targets {
                let o = t as usize * dim;
                let mut dot = 0.0f64;
                for j in 0..dim {
                    dot += input[c + j] as f64 * output[o + j] as f64;
                }
                let pred = 1.0 / (1.0 + (-dot.clamp(-6.0, 6.0)).exp());
                loss -= if label > 0.5 {
                    pred.max(1e-7).ln()
                } else {
                    (1.0 - pred).max(1e-7).ln()
                };
            }
            loss
        };

        let input0 = model.input.clone();
        let output0 = model.output.clone();
        let lr = 1.0f32;
        model.train_pair(center, ctx, &noise, negatives, lr, &mut rng);

        let h = 1e-3f32;
        let check = |idx: usize, analytic: f64, which: &str| {
            let (mut ip, mut op) = (input0.clone(), output0.clone());
            let (mut im, mut om) = (input0.clone(), output0.clone());
            if which == "input" {
                ip[idx] += h;
                im[idx] -= h;
            } else {
                op[idx] += h;
                om[idx] -= h;
            }
            let fd = (loss_fn(&ip, &op) - loss_fn(&im, &om)) / (2.0 * h as f64);
            let tol = 1e-4 + 1e-3 * fd.abs().max(analytic.abs());
            assert!(
                (fd - analytic).abs() <= tol,
                "{which}[{idx}]: fd {fd} vs analytic {analytic}"
            );
        };
        let c = center as usize * dim;
        for j in 0..dim {
            let analytic = (input0[c + j] - model.input[c + j]) as f64 / lr as f64;
            check(c + j, analytic, "input");
        }
        for &(t, _) in &targets {
            let o = t as usize * dim;
            for j in 0..dim {
                let analytic = (output0[o + j] - model.output[o + j]) as f64 / lr as f64;
                check(o + j, analytic, "output");
            }
        }
    }
}
