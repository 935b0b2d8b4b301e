//! Embedding serving layer for the TransN reproduction (DESIGN.md §12).
//!
//! Training produces a `|V| × d` table; everything downstream — neighbor
//! queries, link scoring, the evaluation stack's kNN consumers — reads it.
//! This crate is that read path:
//!
//! - [`store`]: a versioned little-endian binary format ([`EmbStore`])
//!   written once and loaded by `mmap` with **zero-copy** row access — no
//!   parsing, no per-row allocation. Corrupt or truncated files surface as
//!   typed [`ServeError`]s, exercised by the testkit's store faults.
//! - [`index`]: the exact top-k backend ([`BruteForceIndex`]) — blocked
//!   [`transn_nn::kernels::gemm_tb`] scoring plus a bounded heap —
//!   bit-identical to its naive one-`dot`-per-row reference by
//!   construction.
//! - [`hnsw`]: the approximate backend ([`HnswIndex`]), an HNSW-style
//!   layered graph with hash-deterministic layer assignment,
//!   conformance-tested against brute force at recall@10 ≥ 0.95.
//! - [`quant`]: the quantized fast path (DESIGN.md §15) — v2 stores
//!   carry per-row i8 codes, scanned with exact integer code dots against
//!   an i8-quantized query by [`QuantizedIndex`], with exact f32
//!   reranking of the survivors.
//! - [`batch_top_k`]: batched queries parallelized under the workspace's
//!   [`transn_sgns::Parallelism`] model — results identical at every
//!   thread count; the quantized backend streams each code row once per
//!   query block.
//! - [`neighbor_lists`]: the bridge into `transn-eval`'s approximate-
//!   neighbor fast paths (t-SNE, silhouette): ANN candidates re-scored
//!   with exact Euclidean distances.

#![warn(missing_docs)]

pub mod error;
pub mod hnsw;
pub mod index;
pub mod quant;
pub mod store;

pub use error::ServeError;
pub use hnsw::{HnswConfig, HnswIndex};
pub use index::{
    batch_top_k, brute_force_reference, neighbor_cmp, recall_at_k, BruteForceIndex, EmbeddingIndex,
    Metric, Neighbor, TopK, VectorSource,
};
pub use quant::QuantizedIndex;
pub use store::{
    EmbStore, QuantExt, QuantKind, StoreHeader, HEADER_LEN, MAGIC, VERSION, VERSION_QUANT,
};

use transn_eval::NeighborLists;
use transn_sgns::Parallelism;

/// Build per-point k-nearest-neighbor lists for the evaluation stack's
/// fast paths: the index proposes candidates (any metric), which are then
/// re-scored with **exact Euclidean distances** so downstream consumers
/// (t-SNE affinities, silhouette means) see true distances regardless of
/// the index's internal metric.
pub fn neighbor_lists<I, S>(index: &I, source: &S, k: usize, par: Parallelism) -> NeighborLists
where
    I: EmbeddingIndex + ?Sized,
    S: VectorSource,
{
    let n = source.len();
    let queries: Vec<&[f32]> = (0..n).map(|i| source.vector(i)).collect();
    let exclude: Vec<Option<u32>> = (0..n as u32).map(Some).collect();
    let results = batch_top_k(index, &queries, k, &exclude, par);
    let lists = results
        .into_iter()
        .enumerate()
        .map(|(i, cands)| {
            let mut ids: Vec<u32> = cands.into_iter().map(|c| c.id).collect();
            ids.sort_unstable();
            ids.iter()
                .map(|&j| {
                    let d =
                        (transn_nn::kernels::sqdist(source.vector(i), source.vector(j as usize))
                            as f64)
                            .sqrt();
                    (j, d)
                })
                .collect()
        })
        .collect();
    NeighborLists::new(lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transn_graph::NodeEmbeddings;

    #[test]
    fn bridge_with_full_k_matches_exact_knn() {
        let n = 30;
        let data: Vec<f32> = (0..n * 4).map(|i| ((i * 17) % 29) as f32 / 7.0).collect();
        let emb = NodeEmbeddings::from_flat(n, 4, data);
        let index = BruteForceIndex::new(&emb, Metric::Cosine);
        let bridged = neighbor_lists(&index, &emb, n - 1, Parallelism::strict(2));
        let rows: Vec<&[f32]> = (0..n).map(|i| emb.vector(i)).collect();
        let exact = transn_eval::exact_knn(&rows, n - 1);
        for i in 0..n {
            // Same ids; distances computed by the same sqdist-then-sqrt.
            let b: Vec<u32> = bridged.ids(i).to_vec();
            let e: Vec<u32> = exact.ids(i).to_vec();
            assert_eq!(b, e, "point {i}");
        }
    }
}
