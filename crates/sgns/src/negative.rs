//! Negative-sampling noise distribution: unigram frequency raised to 3/4,
//! the word2vec convention \[27\] adopted by every walk-based method the
//! paper compares.

use crate::context::count_pairs;
use crate::sync::Parallelism;
use std::sync::atomic::{AtomicU64, Ordering};
use transn_graph::{par_chunks_mut, run_shards_build, AliasScratch, AliasTable};
use transn_rng::Rng;
use transn_walks::WalkCorpus;

/// Chunk count for the parallel 3/4-power weight fill — each element is
/// computed independently, so any chunking is bit-identical.
const POW_CHUNKS: usize = 64;

/// Reusable workspace for [`NoiseTable::rebuild_from_frequencies`]: the
/// 3/4-power weight buffer plus the alias-construction worklists, so a
/// noise table rebuilt once per episode allocates nothing once warmed.
#[derive(Clone, Debug, Default)]
pub struct NoiseScratch {
    weights: Vec<f32>,
    alias: AliasScratch,
}

/// Incremental frequency merge across walk episodes.
///
/// The episodic pipeline never holds the whole corpus, so the unigram
/// counts behind the noise distribution are **folded** episode by episode:
/// each episode's [`WalkCorpus::node_frequencies_into`] lands in a scratch
/// vector and is added (associative `u64` addition, so the fold order
/// cannot change the result) into the running totals. Walk and
/// center–context pair counts are accumulated alongside so the trainer
/// knows the exact learning-rate schedule denominator without a second
/// pass over the data.
#[derive(Clone, Debug, Default)]
pub struct NoiseAccumulator {
    freqs: Vec<u64>,
    episode_freqs: Vec<u64>,
    walks: u64,
    pairs: u64,
    tokens: u64,
}

impl NoiseAccumulator {
    /// Reset to all-zero counts over `num_nodes` ids. Keeps capacity.
    pub fn reset(&mut self, num_nodes: usize) {
        self.freqs.clear();
        self.freqs.resize(num_nodes, 0);
        self.walks = 0;
        self.pairs = 0;
        self.tokens = 0;
    }

    /// Fold one episode's counts into the running totals. `window` is the
    /// trainer's context window (for the exact pair count).
    pub fn fold(&mut self, corpus: &WalkCorpus, window: usize) {
        corpus.node_frequencies_into(self.freqs.len(), &mut self.episode_freqs);
        for (total, &ep) in self.freqs.iter_mut().zip(self.episode_freqs.iter()) {
            *total += ep;
        }
        self.walks += corpus.len() as u64;
        self.tokens += corpus.total_tokens() as u64;
        for w in 0..corpus.len() {
            self.pairs += count_pairs(corpus.walk(w).len(), window) as u64;
        }
    }

    /// Running per-node occurrence totals.
    pub fn frequencies(&self) -> &[u64] {
        &self.freqs
    }

    /// Walks folded so far.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Center–context pairs folded so far (exact, per the fold window).
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Token occurrences folded so far; zero means the frequency vector is
    /// all-zero and no noise table can be built yet.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }
}

/// Alias-sampled noise table over node ids.
#[derive(Clone, Debug)]
pub struct NoiseTable {
    table: AliasTable,
    /// Remember which ids have zero frequency (never returned).
    support: usize,
}

impl NoiseTable {
    /// Build from occurrence counts (e.g.
    /// [`transn_walks::WalkCorpus::node_frequencies`]), applying the 3/4
    /// power.
    ///
    /// # Panics
    /// Panics if all frequencies are zero.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        Self::from_frequencies_with(freqs, Parallelism::single())
    }

    /// [`from_frequencies`](NoiseTable::from_frequencies) with an explicit
    /// thread policy. The 3/4-power weight fill — the `powf`-dominated
    /// bulk of the build — runs over disjoint chunks (each element is
    /// independent, so the filled vector is bit-identical for every
    /// `par`); the Vose worklist pass stays serial (O(n) adds, no
    /// transcendental math). Bit-identical to the serial build.
    pub fn from_frequencies_with(freqs: &[u64], par: Parallelism) -> Self {
        let mut weights = vec![0.0f32; freqs.len()];
        par_chunks_mut(&mut weights, POW_CHUNKS, par, |_, start, chunk| {
            for (j, w) in chunk.iter_mut().enumerate() {
                *w = (freqs[start + j] as f32).powf(0.75);
            }
        });
        NoiseTable {
            table: AliasTable::new(&weights),
            support: freqs.len(),
        }
    }

    /// Build straight from a walk corpus: one linear pass over the flat
    /// token arena counts occurrences (exact `u64` counts, so the alias
    /// table is bit-identical to the
    /// [`from_frequencies`](NoiseTable::from_frequencies) +
    /// `node_frequencies` two-step), then the 3/4 power is applied.
    ///
    /// # Panics
    /// Panics if all frequencies are zero (e.g. an empty corpus).
    pub fn from_corpus(corpus: &WalkCorpus, num_nodes: usize) -> Self {
        Self::from_corpus_with(corpus, num_nodes, Parallelism::single())
    }

    /// [`from_corpus`](NoiseTable::from_corpus) with an explicit thread
    /// policy. Token counting folds disjoint chunks of the flat arena into
    /// a shared `AtomicU64` histogram — integer addition is associative
    /// and commutative, so the counts (and therefore the table) are
    /// bit-identical for every `par` — then the 3/4-power fill runs
    /// chunk-parallel
    /// ([`from_frequencies_with`](NoiseTable::from_frequencies_with)).
    pub fn from_corpus_with(corpus: &WalkCorpus, num_nodes: usize, par: Parallelism) -> Self {
        let tokens = corpus.tokens();
        let threads = par.build_threads(tokens.len());
        if threads <= 1 {
            let mut freqs = vec![0u64; num_nodes];
            for &t in tokens {
                freqs[t as usize] += 1;
            }
            return Self::from_frequencies_with(&freqs, par);
        }
        let counts: Vec<AtomicU64> = (0..num_nodes).map(|_| AtomicU64::new(0)).collect();
        let m = tokens.len();
        let chunks = (threads * 4).min(m);
        run_shards_build(chunks, par, |c| {
            let (s, e) = (c * m / chunks, (c + 1) * m / chunks);
            for &t in &tokens[s..e] {
                counts[t as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        let freqs: Vec<u64> = counts.into_iter().map(|c| c.into_inner()).collect();
        Self::from_frequencies_with(&freqs, par)
    }

    /// Rebuild this table in place from new occurrence counts, reusing the
    /// caller's [`NoiseScratch`]. Bit-identical to
    /// [`from_frequencies`](NoiseTable::from_frequencies) over the same
    /// counts, but allocation-free once the scratch and the table's own
    /// buffers have reached the support size — episodic training calls
    /// this once per epoch on a held [`crate::EpisodicState`].
    ///
    /// # Panics
    /// Panics if all frequencies are zero.
    pub fn rebuild_from_frequencies(&mut self, freqs: &[u64], scratch: &mut NoiseScratch) {
        scratch.weights.clear();
        scratch
            .weights
            .extend(freqs.iter().map(|&f| (f as f32).powf(0.75)));
        self.table.rebuild(&scratch.weights, &mut scratch.alias);
        self.support = freqs.len();
    }

    /// The underlying alias table (conformance signature emission).
    pub fn alias_table(&self) -> &AliasTable {
        &self.table
    }

    /// Number of ids covered (including zero-frequency ones).
    pub fn len(&self) -> usize {
        self.support
    }

    /// Whether the table covers no ids.
    pub fn is_empty(&self) -> bool {
        self.support == 0
    }

    /// Draw one noise node.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        self.table.sample(rng)
    }

    /// Draw a noise node different from `exclude`, retrying a bounded
    /// number of times (falls back to any sample if the distribution is
    /// too concentrated to avoid `exclude`).
    ///
    /// The bound is eight rejections and one last unchecked draw, so the
    /// result is still `exclude` with probability `q⁹`, where `q` is
    /// `exclude`'s share of the noise distribution: 2⁻⁹ on a table of two
    /// equally likely ids.
    #[inline]
    pub fn sample_excluding(&self, exclude: u32, rng: &mut Rng) -> u32 {
        for _ in 0..8 {
            let s = self.table.sample(rng);
            if s != exclude {
                return s;
            }
        }
        self.table.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transn_rng::Rng;

    #[test]
    fn three_quarter_power_flattens() {
        // freq 16 vs 1 → weight 8 vs 1 (not 16 vs 1).
        let t = NoiseTable::from_frequencies(&[16, 1]);
        let mut rng = Rng::seed_from_u64(0);
        let mut c0 = 0;
        let n = 90_000;
        for _ in 0..n {
            if t.sample(&mut rng) == 0 {
                c0 += 1;
            }
        }
        let frac = c0 as f64 / n as f64;
        assert!((frac - 8.0 / 9.0).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn from_corpus_matches_two_step_construction() {
        let corpus = WalkCorpus::from_walks(vec![vec![0u32, 1, 1, 2], vec![2, 0, 2]]);
        let fused = NoiseTable::from_corpus(&corpus, 4);
        let two_step = NoiseTable::from_frequencies(&corpus.node_frequencies(4));
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..500 {
            assert_eq!(fused.sample(&mut a), two_step.sample(&mut b));
        }
    }

    #[test]
    fn zero_frequency_never_sampled() {
        let t = NoiseTable::from_frequencies(&[5, 0, 5]);
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn exclusion_avoids_target_when_possible() {
        // The target has noise share 1/2, so it comes back with the
        // residual probability 2⁻⁹ (expected 195 of 100,000 draws); allow
        // twice that.
        let t = NoiseTable::from_frequencies(&[10, 10]);
        let mut rng = Rng::seed_from_u64(2);
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| t.sample_excluding(0, &mut rng) == 0)
            .count();
        assert!(
            hits as f64 / n as f64 <= 2.0 / 512.0,
            "target drawn {hits} times in {n}"
        );
    }

    #[test]
    fn exclusion_falls_back_on_singleton_support() {
        let t = NoiseTable::from_frequencies(&[10, 0]);
        let mut rng = Rng::seed_from_u64(3);
        // Only node 0 has mass; exclusion must give up and return it.
        assert_eq!(t.sample_excluding(0, &mut rng), 0);
    }

    #[test]
    fn accumulator_fold_matches_monolithic_counts() {
        let a = WalkCorpus::from_walks(vec![vec![0u32, 1, 1, 2], vec![2, 0, 2]]);
        let b = WalkCorpus::from_walks(vec![vec![3u32, 0], vec![1, 2, 3, 0, 1]]);
        let mut whole = WalkCorpus::new();
        whole.extend_from_arena(&a);
        whole.extend_from_arena(&b);

        let mut acc = NoiseAccumulator::default();
        acc.reset(4);
        acc.fold(&a, 2);
        acc.fold(&b, 2);
        assert_eq!(acc.frequencies(), whole.node_frequencies(4).as_slice());
        assert_eq!(acc.walks(), 4);
        let expect_pairs: u64 = (0..whole.len())
            .map(|w| count_pairs(whole.walk(w).len(), 2) as u64)
            .sum();
        assert_eq!(acc.pairs(), expect_pairs);
    }

    #[test]
    fn parallel_builds_are_bit_identical_across_thread_counts() {
        // A corpus large enough to exercise many count chunks.
        let walks: Vec<Vec<u32>> = (0..200)
            .map(|w| (0..50).map(|i| ((w * 37 + i * 11) % 300) as u32).collect())
            .collect();
        let corpus = WalkCorpus::from_walks(walks);
        let serial = NoiseTable::from_corpus(&corpus, 300);
        for par in [
            Parallelism::hogwild(2),
            Parallelism::strict(4),
            Parallelism::hogwild(8),
        ] {
            let t = NoiseTable::from_corpus_with(&corpus, 300, par);
            assert_eq!(
                t.alias_table()
                    .probs()
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<_>>(),
                serial
                    .alias_table()
                    .probs()
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<_>>(),
                "{par:?}"
            );
            assert_eq!(
                t.alias_table().aliases(),
                serial.alias_table().aliases(),
                "{par:?}"
            );
        }
    }

    #[test]
    fn rebuild_matches_fresh_table_bitwise() {
        let mut t = NoiseTable::from_frequencies(&[1, 1]);
        let mut scratch = NoiseScratch::default();
        for freqs in [vec![16u64, 1], vec![5, 0, 5], vec![3; 40]] {
            t.rebuild_from_frequencies(&freqs, &mut scratch);
            let fresh = NoiseTable::from_frequencies(&freqs);
            assert_eq!(t.len(), fresh.len());
            let mut a = Rng::seed_from_u64(9);
            let mut b = Rng::seed_from_u64(9);
            for _ in 0..500 {
                assert_eq!(t.sample(&mut a), fresh.sample(&mut b));
            }
        }
    }
}
