//! Exact top-k over a vector source: the blocked brute-force index and the
//! shared query vocabulary (metric, neighbor ordering, bounded heap) the
//! approximate index is conformance-tested against.
//!
//! # Determinism contract
//!
//! Scores are computed by [`transn_nn::kernels::gemm_tb`], whose every
//! output element is exactly one 8-lane [`transn_nn::kernels::dot`] — so
//! the blocked path is **bit-identical** to scoring each row with `dot`
//! individually. Combined with the total order on [`Neighbor`]
//! ([`neighbor_cmp`]: score descending with NaN last, id ascending), top-k
//! selection through
//! the bounded heap returns exactly the first k entries of the fully
//! sorted score list, and [`batch_top_k`] returns identical results at
//! every thread count.

use crate::store::EmbStore;
use transn_graph::run_shards_build;
use transn_nn::kernels;
use transn_sgns::Parallelism;

/// Read access to `len` vectors of dimension `dim` — the input both
/// indexes are built over. Implemented by the loaded store and the
/// in-memory embedding table.
pub trait VectorSource: Sync {
    /// Number of vectors.
    fn len(&self) -> usize;
    /// Whether the source holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Vector dimension.
    fn dim(&self) -> usize;
    /// All vectors as one contiguous row-major `len × dim` matrix (the
    /// input of the blocked-GEMM scoring path).
    fn rows(&self) -> &[f32];
    /// The `i`-th vector.
    fn vector(&self, i: usize) -> &[f32] {
        let d = self.dim();
        &self.rows()[i * d..(i + 1) * d]
    }
}

impl VectorSource for EmbStore {
    fn len(&self) -> usize {
        self.num_nodes()
    }
    fn dim(&self) -> usize {
        EmbStore::dim(self)
    }
    fn rows(&self) -> &[f32] {
        EmbStore::rows(self)
    }
}

impl VectorSource for transn_graph::NodeEmbeddings {
    fn len(&self) -> usize {
        self.num_nodes()
    }
    fn dim(&self) -> usize {
        transn_graph::NodeEmbeddings::dim(self)
    }
    fn rows(&self) -> &[f32] {
        self.data()
    }
}

/// Similarity used for scoring (higher is closer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Raw inner product — the link-prediction score of §IV-B2.
    Dot,
    /// Cosine similarity; zero vectors score 0 (never NaN), matching
    /// [`transn_graph::NodeEmbeddings::cosine`].
    Cosine,
}

impl Metric {
    /// Parse a metric name (CLI surface).
    pub fn parse(name: &str) -> Result<Metric, String> {
        match name {
            "dot" => Ok(Metric::Dot),
            "cosine" => Ok(Metric::Cosine),
            other => Err(format!("unknown metric {other:?}; one of dot, cosine")),
        }
    }
}

/// One scored result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Vector id within the source.
    pub id: u32,
    /// Metric score (higher is closer).
    pub score: f32,
}

/// The total order on results: score descending, then id ascending.
/// Scores compare as `f32::total_cmp`, except that every NaN score, of
/// either sign, ranks after all other scores (`-∞` included) and ties
/// with the other NaNs, so a row that scores NaN is never a top result.
#[inline]
pub fn neighbor_cmp(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    let by_score = match (a.score.is_nan(), b.score.is_nan()) {
        (false, false) => b.score.total_cmp(&a.score),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    };
    by_score.then(a.id.cmp(&b.id))
}

/// A bounded top-k accumulator: pushing n candidates costs O(n log k) and
/// [`TopK::into_sorted`] returns exactly `sort(candidates)[..k]` under
/// [`neighbor_cmp`].
pub struct TopK {
    k: usize,
    /// Min-heap on the *reversed* order: the root is the worst survivor.
    heap: std::collections::BinaryHeap<Worst>,
}

struct Worst(Neighbor);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        neighbor_cmp(&self.0, &other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // [`neighbor_cmp`] sorts best-first (best = Less), so under it the
        // max-heap's root is the Greatest element — the worst survivor.
        neighbor_cmp(&self.0, &other.0)
    }
}

impl TopK {
    /// An accumulator keeping the best `k` candidates.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer one candidate.
    #[inline]
    pub fn push(&mut self, cand: Neighbor) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Worst(cand));
        } else if let Some(worst) = self.heap.peek() {
            if neighbor_cmp(&cand, &worst.0) == std::cmp::Ordering::Less {
                self.heap.pop();
                self.heap.push(Worst(cand));
            }
        }
    }

    /// The current worst survivor (the bar a new candidate must beat),
    /// if the accumulator is already full.
    pub fn threshold(&self) -> Option<Neighbor> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|w| w.0)
        }
    }

    /// Survivors in final order (best first).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut out: Vec<Neighbor> = self.heap.into_iter().map(|w| w.0).collect();
        out.sort_by(neighbor_cmp);
        out
    }
}

/// How many source rows a blocked scoring pass covers per GEMM call.
const BLOCK_ROWS: usize = 256;

/// The exact index: scores every row, in `BLOCK_ROWS`-row blocks through
/// [`kernels::gemm_tb`], keeping the top k in a bounded heap.
pub struct BruteForceIndex<'a, S: VectorSource> {
    source: &'a S,
    metric: Metric,
    /// Per-row L2 norms (cosine only; empty for dot).
    norms: Vec<f32>,
}

/// L2 norm via the 8-lane kernel (fixed reduction order).
fn l2_norm(v: &[f32]) -> f32 {
    kernels::dot(v, v).sqrt()
}

/// Turn a raw inner product into the metric score. Shared verbatim by the
/// blocked path, the naive reference, and the HNSW index — the bitwise
/// conformance between them depends on this being the single definition.
#[inline]
pub(crate) fn metric_score(raw_dot: f32, metric: Metric, q_norm: f32, row_norm: f32) -> f32 {
    match metric {
        Metric::Dot => raw_dot,
        Metric::Cosine => {
            let denom = q_norm * row_norm;
            if denom == 0.0 {
                0.0
            } else {
                raw_dot / denom
            }
        }
    }
}

impl<'a, S: VectorSource> BruteForceIndex<'a, S> {
    /// Build over `source` (cosine precomputes per-row norms).
    pub fn new(source: &'a S, metric: Metric) -> Self {
        let norms = match metric {
            Metric::Dot => Vec::new(),
            Metric::Cosine => (0..source.len())
                .map(|i| l2_norm(source.vector(i)))
                .collect(),
        };
        BruteForceIndex {
            source,
            metric,
            norms,
        }
    }

    fn row_norm(&self, i: usize) -> f32 {
        match self.metric {
            Metric::Dot => 0.0,
            Metric::Cosine => self.norms[i],
        }
    }

    /// Metric score between a query vector and stored row `i`.
    pub fn score(&self, query: &[f32], i: usize) -> f32 {
        let q_norm = match self.metric {
            Metric::Dot => 0.0,
            Metric::Cosine => l2_norm(query),
        };
        metric_score(
            kernels::dot(query, self.source.vector(i)),
            self.metric,
            q_norm,
            self.row_norm(i),
        )
    }

    /// Metric score between stored rows `u` and `v` — the link-score
    /// query of the serving surface.
    pub fn link_score(&self, u: usize, v: usize) -> f32 {
        self.score(self.source.vector(u), v)
    }
}

/// The common index surface: exact and approximate backends answer the
/// same query. `exclude` drops one id (conventionally the query node
/// itself) from the result.
pub trait EmbeddingIndex: Sync {
    /// The best `k` neighbors of `query` (best first).
    fn top_k(&self, query: &[f32], k: usize, exclude: Option<u32>) -> Vec<Neighbor>;
    /// Answer several queries at once, in query order. `exclude` is
    /// empty or one entry per query. The default answers query by query;
    /// backends that can amortize work across the batch (the quantized
    /// index's blocked code-matrix pass) override it — results must stay
    /// bit-identical to per-query [`EmbeddingIndex::top_k`].
    fn top_k_batch(
        &self,
        queries: &[&[f32]],
        k: usize,
        exclude: &[Option<u32>],
    ) -> Vec<Vec<Neighbor>> {
        queries
            .iter()
            .enumerate()
            .map(|(q, query)| self.top_k(query, k, exclude.get(q).copied().flatten()))
            .collect()
    }
    /// Vector dimension this index serves.
    fn dim(&self) -> usize;
    /// Number of indexed vectors.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<S: VectorSource> EmbeddingIndex for BruteForceIndex<'_, S> {
    fn top_k(&self, query: &[f32], k: usize, exclude: Option<u32>) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.source.dim(), "query dimension mismatch");
        let n = self.source.len();
        let d = self.source.dim();
        let q_norm = match self.metric {
            Metric::Dot => 0.0,
            Metric::Cosine => l2_norm(query),
        };
        let data = self.source.rows();
        let mut top = TopK::new(k);
        let mut scores = vec![0.0f32; BLOCK_ROWS.min(n.max(1))];
        let mut start = 0usize;
        while start < n {
            let m = BLOCK_ROWS.min(n - start);
            // One GEMM per block: query (1×d) · blockᵀ (m×d) → scores
            // (1×m). Each element is one 8-lane dot — bit-identical to
            // scoring row by row.
            let block = &data[start * d..(start + m) * d];
            kernels::gemm_tb(query, block, &mut scores[..m], 1, d, m);
            for (off, &raw) in scores[..m].iter().enumerate() {
                let id = (start + off) as u32;
                if exclude == Some(id) {
                    continue;
                }
                top.push(Neighbor {
                    id,
                    score: metric_score(raw, self.metric, q_norm, self.row_norm(start + off)),
                });
            }
            start += m;
        }
        top.into_sorted()
    }

    fn dim(&self) -> usize {
        self.source.dim()
    }

    fn len(&self) -> usize {
        self.source.len()
    }
}

/// The naive O(n·d) reference the blocked index is conformance-tested
/// against: score every row with one [`kernels::dot`], sort the full list
/// under [`neighbor_cmp`], take `k`.
pub fn brute_force_reference<S: VectorSource>(
    source: &S,
    metric: Metric,
    query: &[f32],
    k: usize,
    exclude: Option<u32>,
) -> Vec<Neighbor> {
    let q_norm = match metric {
        Metric::Dot => 0.0,
        Metric::Cosine => l2_norm(query),
    };
    let mut all: Vec<Neighbor> = (0..source.len() as u32)
        .filter(|&i| exclude != Some(i))
        .map(|i| {
            let row = source.vector(i as usize);
            let row_norm = match metric {
                Metric::Dot => 0.0,
                Metric::Cosine => l2_norm(row),
            };
            Neighbor {
                id: i,
                score: metric_score(kernels::dot(query, row), metric, q_norm, row_norm),
            }
        })
        .collect();
    all.sort_by(neighbor_cmp);
    all.truncate(k);
    all
}

/// Answer a batch of queries on `par.threads` workers: queries are split
/// into one contiguous shard per worker, each shard goes through the
/// backend's [`EmbeddingIndex::top_k_batch`] engine, and the results are
/// reassembled in query order. Queries only read the index, so each
/// answer is independent of how the batch is blocked or sharded (the
/// trait's bit-identity contract): Strict and Hogwild both run the
/// shards in parallel through [`run_shards_build`], and the results are
/// identical at every thread count.
pub fn batch_top_k<I: EmbeddingIndex + ?Sized>(
    index: &I,
    queries: &[&[f32]],
    k: usize,
    exclude: &[Option<u32>],
    par: Parallelism,
) -> Vec<Vec<Neighbor>> {
    assert!(
        exclude.is_empty() || exclude.len() == queries.len(),
        "exclude list must be empty or one entry per query"
    );
    if queries.is_empty() {
        return Vec::new();
    }
    let shards = par.threads.max(1).min(queries.len());
    let per = queries.len().div_ceil(shards);
    let results = run_shards_build(shards, par, |s| {
        // A ragged tail can leave late shards empty: clamp both ends.
        let lo = (s * per).min(queries.len());
        let hi = ((s + 1) * per).min(queries.len());
        let ex = if exclude.is_empty() {
            &[]
        } else {
            &exclude[lo..hi]
        };
        index.top_k_batch(&queries[lo..hi], k, ex)
    });
    results.into_iter().flatten().collect()
}

/// Fraction of the exact top-k ids an approximate result recovered —
/// the recall@k acceptance metric of the serving layer.
pub fn recall_at_k(approx: &[Neighbor], exact: &[Neighbor]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = exact
        .iter()
        .filter(|e| approx.iter().any(|a| a.id == e.id))
        .count();
    hits as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use transn_graph::NodeEmbeddings;

    fn toy(n: usize, dim: usize) -> NodeEmbeddings {
        // Deterministic, irregular, sign-mixed values.
        let data: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 37 + 11) % 101) as f32 / 50.5 - 1.0)
            .collect();
        NodeEmbeddings::from_flat(n, dim, data)
    }

    #[test]
    fn blocked_top_k_matches_naive_bitwise() {
        // n crosses the 256-row block boundary; odd dims included.
        for (n, dim) in [(5usize, 3usize), (300, 8), (517, 5)] {
            let emb = toy(n, dim);
            for metric in [Metric::Dot, Metric::Cosine] {
                let index = BruteForceIndex::new(&emb, metric);
                for qid in [0usize, n / 2, n - 1] {
                    let q = emb.vector(qid).to_vec();
                    let fast = index.top_k(&q, 10, Some(qid as u32));
                    let slow = brute_force_reference(&emb, metric, &q, 10, Some(qid as u32));
                    assert_eq!(fast.len(), slow.len());
                    for (f, s) in fast.iter().zip(&slow) {
                        assert_eq!(f.id, s.id);
                        assert_eq!(f.score.to_bits(), s.score.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn nan_scores_rank_after_every_other_score() {
        let nb = |id, score| Neighbor { id, score };
        let cands = [
            nb(0, f32::NAN),
            nb(1, 0.5),
            nb(2, -f32::NAN),
            nb(3, f32::INFINITY),
            nb(4, f32::NEG_INFINITY),
            nb(5, -0.0),
            nb(6, 0.0),
            nb(7, 0.5),
        ];
        let mut sorted = cands.to_vec();
        sorted.sort_by(neighbor_cmp);
        let ids: Vec<u32> = sorted.iter().map(|n| n.id).collect();
        // Finite and infinite scores keep `total_cmp`'s descending order
        // (+0 before -0); both NaNs come last, tied, by id.
        assert_eq!(ids, [3, 1, 7, 6, 5, 4, 0, 2]);
        assert_eq!(
            neighbor_cmp(&nb(9, f32::NAN), &nb(9, -f32::NAN)),
            std::cmp::Ordering::Equal
        );
        for k in 0..=cands.len() {
            let mut top = TopK::new(k);
            for &c in &cands {
                top.push(c);
            }
            let got: Vec<u32> = top.into_sorted().iter().map(|n| n.id).collect();
            assert_eq!(got, ids[..k], "k={k}");
        }
    }

    #[test]
    fn self_match_tops_cosine_without_exclusion() {
        let emb = toy(50, 8);
        let index = BruteForceIndex::new(&emb, Metric::Cosine);
        let top = index.top_k(emb.vector(7), 1, None);
        assert_eq!(top[0].id, 7);
        assert!((top[0].score - 1.0).abs() < 1e-6);
    }

    #[test]
    fn top_k_handles_degenerate_k() {
        let emb = toy(10, 4);
        let index = BruteForceIndex::new(&emb, Metric::Dot);
        assert!(index.top_k(emb.vector(0), 0, None).is_empty());
        // k beyond n returns everything, still sorted.
        let all = index.top_k(emb.vector(0), 99, Some(0));
        assert_eq!(all.len(), 9);
        for w in all.windows(2) {
            assert!(neighbor_cmp(&w[0], &w[1]) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn zero_vector_cosine_is_zero_not_nan() {
        let mut emb = NodeEmbeddings::zeros(3, 4);
        emb.set(transn_graph::NodeId(1), &[1.0, 0.0, 0.0, 0.0]);
        let index = BruteForceIndex::new(&emb, Metric::Cosine);
        let res = index.top_k(emb.vector(0), 3, None);
        assert!(res.iter().all(|r| r.score == 0.0));
        assert_eq!(index.link_score(0, 1), 0.0);
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let emb = toy(120, 6);
        let index = BruteForceIndex::new(&emb, Metric::Cosine);
        let queries: Vec<&[f32]> = (0..17).map(|i| emb.vector(i * 7)).collect();
        let serial = batch_top_k(&index, &queries, 5, &[], Parallelism::strict(1));
        for threads in [2, 4, 8] {
            for par in [Parallelism::strict(threads), Parallelism::hogwild(threads)] {
                let out = batch_top_k(&index, &queries, 5, &[], par);
                assert_eq!(out, serial, "threads {threads}");
            }
        }
    }

    #[test]
    fn batch_runs_on_every_requested_worker_in_both_modes() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        /// Records which threads answered.
        struct Spy(Mutex<HashSet<ThreadId>>);
        impl EmbeddingIndex for Spy {
            fn top_k(&self, _: &[f32], _: usize, _: Option<u32>) -> Vec<Neighbor> {
                self.0.lock().unwrap().insert(std::thread::current().id());
                Vec::new()
            }
            fn dim(&self) -> usize {
                1
            }
            fn len(&self) -> usize {
                0
            }
        }
        let q = [0.0f32];
        let queries = vec![&q[..]; 16];
        for par in [Parallelism::strict(4), Parallelism::hogwild(4)] {
            let spy = Spy(Mutex::new(HashSet::new()));
            batch_top_k(&spy, &queries, 1, &[], par);
            assert_eq!(spy.0.lock().unwrap().len(), 4, "{par:?}");
        }
    }

    #[test]
    fn recall_counts_id_overlap() {
        let mk = |ids: &[u32]| -> Vec<Neighbor> {
            ids.iter().map(|&id| Neighbor { id, score: 0.0 }).collect()
        };
        assert_eq!(recall_at_k(&mk(&[1, 2, 3]), &mk(&[1, 2, 3])), 1.0);
        assert_eq!(recall_at_k(&mk(&[1, 9, 3]), &mk(&[1, 2, 3])), 2.0 / 3.0);
        assert_eq!(recall_at_k(&mk(&[]), &mk(&[])), 1.0);
    }
}
