//! The quantized brute-force index: scan i8 codes, then rescore the best
//! `rerank_k` candidates against the exact f32 rows (DESIGN.md §15).
//!
//! The scan is **symmetric integer**: the query is itself quantized to i8
//! once per query (`quantize_row_i8`), and every row is scored with
//! [`kernels::dot_i8_i8`] in exact i32 arithmetic; the two affines are
//! then expanded in one fixed f32 expression (`QuantQuery::raw` over
//! `i8_zterm`) using the per-row code sums precomputed at index build. Integer sums are
//! order-free, so the scan is bit-deterministic under any vectorization or
//! blocking (its throughput against the f32 `gemm_tb` scan is measured in
//! `BENCH_quant.json`), and [`QuantizedIndex::top_k_batch`] is
//! bit-identical to
//! [`QuantizedIndex::top_k`] per query, hence identical at every thread
//! count under `batch_top_k`.
//!
//! The rerank stage rescores candidates with the same `dot` +
//! `metric_score` the exact index uses, then sorts under
//! [`neighbor_cmp`]: on the reranked set the exact total order is
//! preserved, and with `rerank_k ≥ len` the result equals the exact
//! brute-force top-k bit for bit (the conformance case).

use crate::index::{metric_score, neighbor_cmp, EmbeddingIndex, Metric, Neighbor, TopK};
use crate::store::EmbStore;
use transn_nn::kernels;

/// How many source rows a scan block covers (matches the exact index).
const BLOCK_ROWS: usize = 256;
/// How many queries the batched engine blocks through one pass over the
/// code matrix: each cached code row is reused across the whole block.
const QUERY_BLOCK: usize = 16;

/// An i8-quantized query: the per-query constants of the symmetric
/// integer score (codes, affine params, code sum).
struct QuantQuery {
    codes: Vec<i8>,
    scale: f32,
    zero: f32,
    sum: i32,
}

impl QuantQuery {
    fn new(query: &[f32]) -> QuantQuery {
        let mut codes = vec![0i8; query.len()];
        let p = kernels::quantize_row_i8(query, &mut codes);
        let sum = kernels::sum_i8(&codes);
        QuantQuery {
            codes,
            scale: p.scale,
            zero: p.zero,
            sum,
        }
    }

    /// The raw approximate inner product of this query with a row, given
    /// their exact integer code dot and the row's [`i8_zterm`]. Expands
    /// the two dequantization affines `q ≈ qs·qc + qz`, `v ≈ s·c + z`
    /// into `qs·(s·S + z·Q) + qz·(s·R + z·d)` with `S = Σ qc·c` (the code
    /// dot), `Q = Σ qc`, `R = Σ c`, all exact i32 — one fixed f32
    /// expression, so every scan path produces identical bits.
    #[inline]
    fn raw(&self, p: kernels::QuantParams, zterm: f32, code_dot: i32) -> f32 {
        let qterm = p.scale * code_dot as f32 + p.zero * self.sum as f32;
        self.scale * qterm + self.zero * zterm
    }
}

/// The row-constant term of the symmetric i8 score expansion:
/// `zterm = s·R + z·d` with `R = Σ c` the row's code sum and `d` the
/// dimension. Shared by every query scoring that row.
#[inline]
fn i8_zterm(p: kernels::QuantParams, code_sum: i32, dim: usize) -> f32 {
    p.scale * code_sum as f32 + p.zero * dim as f32
}

/// Brute-force top-k over a v2 store's quantized section with exact
/// f32 reranking of the survivors.
pub struct QuantizedIndex<'a> {
    store: &'a EmbStore,
    metric: Metric,
    /// How many approximate-scan survivors get exact rescoring (clamped
    /// up to `k` per query; `≥ len` makes the index exact).
    rerank_k: usize,
    /// Exact per-row L2 norms (cosine only; empty for dot) — the rerank
    /// stage feeds these to `metric_score` so its scores agree bitwise
    /// with the exact index.
    norms: Vec<f32>,
    /// Per-row reciprocal norms (cosine only; `0.0` for zero-norm rows,
    /// mirroring `metric_score`'s zero-denominator guard). The
    /// approximate scan ranks with one multiply by these instead of the
    /// exact divide: the candidate *order* is what matters before the
    /// rerank, and a multiply is an order of magnitude cheaper than an
    /// fdiv in the per-row hot loop.
    inv_norms: Vec<f32>,
    /// Per-row i8 code sums (`Σ codesᵢ`, exact i32) — the row-constant
    /// term of the symmetric-score affine expansion.
    code_sums: Vec<i32>,
}

/// L2 norm via the 8-lane kernel (fixed reduction order).
fn l2_norm(v: &[f32]) -> f32 {
    kernels::dot(v, v).sqrt()
}

impl<'a> QuantizedIndex<'a> {
    /// Build over a v2 store (cosine precomputes exact per-row norms).
    ///
    /// # Panics
    /// Panics if the store carries no quantized section.
    pub fn new(store: &'a EmbStore, metric: Metric, rerank_k: usize) -> Self {
        assert!(
            store.quant_kind().is_some(),
            "QuantizedIndex needs a v2 store with a quantized section"
        );
        let norms: Vec<f32> = match metric {
            Metric::Dot => Vec::new(),
            Metric::Cosine => (0..store.num_nodes())
                .map(|i| l2_norm(store.row(i)))
                .collect(),
        };
        let inv_norms = norms
            .iter()
            .map(|&n| if n == 0.0 { 0.0 } else { 1.0 / n })
            .collect();
        let code_sums = (0..store.num_nodes())
            .map(|i| kernels::sum_i8(store.qrow_i8(i)))
            .collect();
        QuantizedIndex {
            store,
            metric,
            rerank_k,
            norms,
            inv_norms,
            code_sums,
        }
    }

    /// The configured rerank depth.
    pub fn rerank_k(&self) -> usize {
        self.rerank_k
    }

    fn row_norm(&self, i: usize) -> f32 {
        match self.metric {
            Metric::Dot => 0.0,
            Metric::Cosine => self.norms[i],
        }
    }

    fn q_norm(&self, query: &[f32]) -> f32 {
        match self.metric {
            Metric::Dot => 0.0,
            Metric::Cosine => l2_norm(query),
        }
    }

    /// Row `i`'s dequantization affine and its [`i8_zterm`] (from the
    /// code sum precomputed at build).
    #[inline]
    fn row_consts(&self, i: usize) -> (kernels::QuantParams, f32) {
        let p = self.store.qparams(i);
        (p, i8_zterm(p, self.code_sums[i], self.store.dim()))
    }

    /// The approximate-scan *ranking* score: the raw approximate inner
    /// product scaled into ranking position. For cosine this multiplies
    /// by the precomputed reciprocal row norm instead of dividing by
    /// `q_norm · row_norm` — the query-norm factor is constant per query
    /// (it never reorders that query's candidates) and the multiply keeps
    /// an fdiv out of the per-row hot loop. Candidates are ordered, not
    /// scored, by this value: every returned score comes from the exact
    /// [`metric_score`] in the rerank stage.
    #[inline]
    fn rank_score(&self, raw: f32, i: usize) -> f32 {
        match self.metric {
            Metric::Dot => raw,
            Metric::Cosine => raw * self.inv_norms[i],
        }
    }

    /// Exact rescore of the approximate survivors: recompute each score
    /// from the f32 row, restoring the exact total order on the set.
    fn rerank(&self, query: &[f32], q_norm: f32, survivors: TopK, k: usize) -> Vec<Neighbor> {
        let mut exact: Vec<Neighbor> = survivors
            .into_sorted()
            .into_iter()
            .map(|c| Neighbor {
                id: c.id,
                score: metric_score(
                    kernels::dot(query, self.store.row(c.id as usize)),
                    self.metric,
                    q_norm,
                    self.row_norm(c.id as usize),
                ),
            })
            .collect();
        exact.sort_by(neighbor_cmp);
        exact.truncate(k);
        exact
    }
}

impl EmbeddingIndex for QuantizedIndex<'_> {
    fn top_k(&self, query: &[f32], k: usize, exclude: Option<u32>) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.store.dim(), "query dimension mismatch");
        let q_norm = self.q_norm(query);
        let qq = QuantQuery::new(query);
        let mut top = TopK::new(self.rerank_k.max(k));
        // Admission bar: once the accumulator is full, a candidate whose
        // score is *strictly below* the worst survivor's cannot displace
        // anything (`neighbor_cmp` orders by score first), so the heap
        // call is skipped entirely. `<` is NaN-safe — a NaN score never
        // satisfies it and falls through to the push, where `neighbor_cmp`
        // ranks it after every other score.
        let mut bar = f32::NEG_INFINITY;
        for i in 0..self.store.num_nodes() {
            let id = i as u32;
            if exclude == Some(id) {
                continue;
            }
            let (p, zterm) = self.row_consts(i);
            let raw = qq.raw(
                p,
                zterm,
                kernels::dot_i8_i8(&qq.codes, self.store.qrow_i8(i)),
            );
            let score = self.rank_score(raw, i);
            if score < bar {
                continue;
            }
            top.push(Neighbor { id, score });
            if let Some(worst) = top.threshold() {
                bar = worst.score;
            }
        }
        self.rerank(query, q_norm, top, k)
    }

    /// The batched engine: queries are blocked through one pass over the
    /// code matrix in `BLOCK_ROWS`-row blocks. Per block the per-row
    /// affine constants are computed once and shared by every query, and
    /// each query's integer dots run over the block in a tight rows-inner
    /// loop (the query codes stay register/L1-resident) into an i32
    /// buffer before the scoring pass. Integer arithmetic makes the
    /// result bit-identical to [`QuantizedIndex::top_k`] per query.
    fn top_k_batch(
        &self,
        queries: &[&[f32]],
        k: usize,
        exclude: &[Option<u32>],
    ) -> Vec<Vec<Neighbor>> {
        let n = self.store.num_nodes();
        let mut out = Vec::with_capacity(queries.len());
        let mut ps = vec![
            kernels::QuantParams {
                scale: 0.0,
                zero: 0.0
            };
            BLOCK_ROWS
        ];
        let mut zterms = vec![0.0f32; BLOCK_ROWS];
        let mut code_dots = vec![0i32; BLOCK_ROWS];
        for (q0, qchunk) in queries.chunks(QUERY_BLOCK).enumerate() {
            let qb = qchunk.len();
            for q in qchunk {
                assert_eq!(q.len(), self.store.dim(), "query dimension mismatch");
            }
            let qqs: Vec<QuantQuery> = qchunk.iter().map(|q| QuantQuery::new(q)).collect();
            let q_norms: Vec<f32> = qchunk.iter().map(|q| self.q_norm(q)).collect();
            let exs: Vec<Option<u32>> = (0..qb)
                .map(|r| exclude.get(q0 * QUERY_BLOCK + r).copied().flatten())
                .collect();
            let mut tops: Vec<TopK> = (0..qb).map(|_| TopK::new(self.rerank_k.max(k))).collect();
            // Per-query admission bars (see `top_k` for the NaN-safety
            // argument); a below-bar candidate skips the heap entirely.
            let mut bars = vec![f32::NEG_INFINITY; qb];
            let mut start = 0usize;
            while start < n {
                let m = BLOCK_ROWS.min(n - start);
                for off in 0..m {
                    let (p, zterm) = self.row_consts(start + off);
                    ps[off] = p;
                    zterms[off] = zterm;
                }
                for (r, qq) in qqs.iter().enumerate() {
                    for (off, cd) in code_dots[..m].iter_mut().enumerate() {
                        *cd = kernels::dot_i8_i8(&qq.codes, self.store.qrow_i8(start + off));
                    }
                    let top = &mut tops[r];
                    for off in 0..m {
                        let id = (start + off) as u32;
                        if exs[r] == Some(id) {
                            continue;
                        }
                        let raw = qq.raw(ps[off], zterms[off], code_dots[off]);
                        let score = self.rank_score(raw, start + off);
                        if score < bars[r] {
                            continue;
                        }
                        top.push(Neighbor { id, score });
                        if let Some(worst) = top.threshold() {
                            bars[r] = worst.score;
                        }
                    }
                }
                start += m;
            }
            for ((top, q), &q_norm) in tops.into_iter().zip(qchunk).zip(&q_norms) {
                out.push(self.rerank(q, q_norm, top, k));
            }
        }
        out
    }

    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn len(&self) -> usize {
        self.store.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{
        batch_top_k, brute_force_reference, recall_at_k, BruteForceIndex, VectorSource,
    };
    use crate::store::QuantKind;
    use transn_graph::{NodeEmbeddings, NodeId};
    use transn_sgns::Parallelism;

    fn toy(n: usize, dim: usize) -> NodeEmbeddings {
        let data: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 37 + 11) % 101) as f32 / 50.5 - 1.0)
            .collect();
        NodeEmbeddings::from_flat(n, dim, data)
    }

    fn quant_store(emb: &NodeEmbeddings, name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("transn-quant-{name}-{}", std::process::id()));
        EmbStore::write_quant_file(emb, None, QuantKind::I8, &path).unwrap();
        path
    }

    #[test]
    fn full_rerank_equals_exact_top_k_bitwise() {
        for (n, dim) in [(60usize, 8usize), (300, 17)] {
            let emb = toy(n, dim);
            let path = quant_store(&emb, "exact");
            let store = EmbStore::open(&path).unwrap();
            for metric in [Metric::Dot, Metric::Cosine] {
                // rerank_k ≥ n: every row is rescored exactly.
                let index = QuantizedIndex::new(&store, metric, n);
                for qid in [0usize, n / 2, n - 1] {
                    let q = emb.get(NodeId(qid as u32)).to_vec();
                    let fast = index.top_k(&q, 10, Some(qid as u32));
                    let slow = brute_force_reference(&emb, metric, &q, 10, Some(qid as u32));
                    assert_eq!(fast.len(), slow.len());
                    for (f, s) in fast.iter().zip(&slow) {
                        assert_eq!(f.id, s.id, "{metric:?} q{qid}");
                        assert_eq!(f.score.to_bits(), s.score.to_bits());
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn batched_engine_matches_single_query_bitwise() {
        let emb = toy(517, 12);
        let path = quant_store(&emb, "batch");
        let store = EmbStore::open(&path).unwrap();
        for metric in [Metric::Dot, Metric::Cosine] {
            let index = QuantizedIndex::new(&store, metric, 40);
            let queries: Vec<&[f32]> = (0..37).map(|i| emb.vector(i * 13)).collect();
            let exclude: Vec<Option<u32>> = (0..37).map(|i| Some((i * 13) as u32)).collect();
            let batched = index.top_k_batch(&queries, 10, &exclude);
            for (i, got) in batched.iter().enumerate() {
                let single = index.top_k(queries[i], 10, exclude[i]);
                assert_eq!(got, &single, "{metric:?} query {i}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let emb = toy(300, 8);
        let path = quant_store(&emb, "threads");
        let store = EmbStore::open(&path).unwrap();
        let index = QuantizedIndex::new(&store, Metric::Cosine, 30);
        let queries: Vec<&[f32]> = (0..23).map(|i| emb.vector(i * 11)).collect();
        let serial = batch_top_k(&index, &queries, 5, &[], Parallelism::strict(1));
        for threads in [2, 4, 8] {
            let out = batch_top_k(&index, &queries, 5, &[], Parallelism::strict(threads));
            assert_eq!(out, serial, "threads {threads}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn modest_rerank_recovers_exact_top_k_on_real_scores() {
        // On this toy data a 4·k rerank pool recovers the exact set.
        let emb = toy(400, 16);
        let path = quant_store(&emb, "recall");
        let store = EmbStore::open(&path).unwrap();
        let exact_index = BruteForceIndex::new(&store, Metric::Dot);
        let index = QuantizedIndex::new(&store, Metric::Dot, 40);
        let mut recall = 0.0;
        for q in 0..20 {
            let qid = q * 19;
            let approx = index.top_k(store.row(qid), 10, Some(qid as u32));
            let exact = exact_index.top_k(store.row(qid), 10, Some(qid as u32));
            recall += recall_at_k(&approx, &exact);
        }
        recall /= 20.0;
        assert!(recall >= 0.95, "recall {recall}");
    }
}
