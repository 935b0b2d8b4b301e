//! Cross-crate integration of the serving layer (DESIGN.md §12): train a
//! small TransN model, persist the table through the binary store, index it,
//! and feed ANN neighbor lists into the evaluation fast paths.

use transn::{TransN, TransNConfig};
use transn_eval::{exact_knn, silhouette_score_with_neighbors, tsne_with_neighbors, TsneConfig};
use transn_graph::NodeId;
use transn_serve::{
    batch_top_k, neighbor_lists, BruteForceIndex, EmbStore, EmbeddingIndex, HnswConfig, HnswIndex,
    Metric,
};
use transn_sgns::Parallelism;
use transn_tests::small_academic;

fn trained_embeddings() -> transn_graph::NodeEmbeddings {
    let ds = small_academic();
    TransN::new(
        &ds.net,
        TransNConfig {
            dim: 16,
            iterations: 2,
            ..TransNConfig::default()
        },
    )
    .train()
}

#[test]
fn train_store_query_evaluate_pipeline() {
    let emb = trained_embeddings();
    let n = emb.num_nodes();

    // Persist through the binary store and load it back.
    let path = std::env::temp_dir().join(format!("transn-serving-it-{}.bin", std::process::id()));
    EmbStore::write_file(&emb, None, &path).unwrap();
    let store = EmbStore::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(store.num_nodes(), n);
    for i in 0..n {
        assert_eq!(store.row(i), emb.get(NodeId(i as u32)), "row {i} drifted");
    }

    // Index the loaded store directly; spot-check HNSW against brute
    // force on a handful of queries.
    let brute = BruteForceIndex::new(&store, Metric::Cosine);
    let hnsw = HnswIndex::build(&store, Metric::Cosine, HnswConfig::default());
    let mut recall = 0.0;
    let queries = 10;
    for q in 0..queries {
        let qid = (q * 29) % n;
        let exact = brute.top_k(store.row(qid), 10, Some(qid as u32));
        let approx = hnsw.top_k(store.row(qid), 10, Some(qid as u32));
        recall += transn_serve::recall_at_k(&approx, &exact);
    }
    recall /= queries as f64;
    assert!(recall >= 0.9, "trained-embedding recall@10 {recall}");

    // Batched queries answer identically at different thread counts.
    let ids: Vec<u32> = (0..n as u32).step_by(7).collect();
    let qs: Vec<&[f32]> = ids.iter().map(|&i| store.row(i as usize)).collect();
    let ex: Vec<Option<u32>> = ids.iter().map(|&i| Some(i)).collect();
    let serial = batch_top_k(&brute, &qs, 5, &ex, Parallelism::strict(1));
    let threaded = batch_top_k(&brute, &qs, 5, &ex, Parallelism::strict(4));
    assert_eq!(serial, threaded);
}

#[test]
fn ann_neighbor_lists_drive_eval_fast_paths() {
    let emb = trained_embeddings();
    let ds = small_academic();
    let n = emb.num_nodes();

    // Labels are sparse: evaluate over the labeled subset only.
    let labeled: Vec<usize> = (0..n)
        .filter(|&i| ds.labels.get(NodeId(i as u32)).is_some())
        .collect();
    let rows: Vec<&[f32]> = labeled.iter().map(|&i| emb.get(NodeId(i as u32))).collect();
    let labels: Vec<usize> = labeled
        .iter()
        .map(|&i| ds.labels.get(NodeId(i as u32)).unwrap() as usize)
        .collect();
    let m = rows.len();
    assert!(m >= 20, "fixture should label a few dozen nodes, got {m}");

    // Full-k exact lists reproduce the dense metrics bit-for-bit.
    let full = exact_knn(&rows, m - 1);
    let fast = silhouette_score_with_neighbors(&rows, &labels, &full);
    let exact = transn_eval::silhouette_score(&rows, &labels);
    assert_eq!(fast.to_bits(), exact.to_bits());

    // ANN lists from the serving index approximate the dense metrics.
    let flat: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
    let sub = transn_graph::NodeEmbeddings::from_flat(m, emb.dim(), flat);
    let index = HnswIndex::build(&sub, Metric::Cosine, HnswConfig::default());
    let nbrs = neighbor_lists(&index, &sub, 30.min(m - 1), Parallelism::strict(2));
    let approx_sil = silhouette_score_with_neighbors(&rows, &labels, &nbrs);
    assert!(
        (approx_sil - exact).abs() < 0.15,
        "ANN silhouette {approx_sil} vs dense {exact}"
    );

    // The t-SNE fast path runs on ANN lists and stays finite; keep the
    // subset small so the test stays quick.
    let subset: Vec<&[f32]> = rows.iter().take(40).copied().collect();
    let sub_nbrs = exact_knn(&subset, 15);
    let y = tsne_with_neighbors(
        &subset,
        &sub_nbrs,
        &TsneConfig {
            iterations: 50,
            ..Default::default()
        },
    );
    assert_eq!(y.len(), 40);
    assert!(y.iter().all(|v| v[0].is_finite() && v[1].is_finite()));
}
