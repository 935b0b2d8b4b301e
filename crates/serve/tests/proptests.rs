//! Property tests for the serving layer: the bounded top-k accumulator,
//! HNSW insert-order tolerance, store-header roundtrips, and the
//! quantized scan-then-rerank pipeline against the full-sort oracle.

use transn_graph::NodeEmbeddings;
use transn_rng::{check, splitmix64};
use transn_serve::store::row_stride;
use transn_serve::{
    brute_force_reference, neighbor_cmp, recall_at_k, BruteForceIndex, EmbStore, EmbeddingIndex,
    HnswConfig, HnswIndex, Metric, Neighbor, QuantKind, QuantizedIndex, StoreHeader, TopK,
    HEADER_LEN, VERSION,
};

/// Well-separated clustered points with hash jitter (RNG-free).
fn clustered(n: usize, dim: usize, clusters: usize) -> NodeEmbeddings {
    let mut data = vec![0.0f32; n * dim];
    for i in 0..n {
        let c = i % clusters;
        for j in 0..dim {
            let center = if j % clusters == c { 10.0 } else { 0.0 };
            let h = splitmix64(((i as u64) << 32) | j as u64);
            let jitter = (h % 2000) as f32 / 1000.0 - 1.0;
            data[i * dim + j] = center + jitter;
        }
    }
    NodeEmbeddings::from_flat(n, dim, data)
}

/// The bounded heap returns exactly `sort(candidates)[..k]` for any
/// candidate stream, any k (the NaN order is pinned by
/// `nan_scores_rank_after_every_other_score`).
#[test]
fn top_k_matches_full_sort() {
    check(|rng| {
        let scores = (0..rng.random_range(0..200))
            .map(|_| rng.random_range(-100.0f32..100.0))
            .collect::<Vec<_>>();
        let k = rng.random_range(0usize..20);
        let cands: Vec<Neighbor> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| Neighbor {
                id: i as u32,
                score: s,
            })
            .collect();
        let mut top = TopK::new(k);
        for &c in &cands {
            top.push(c);
        }
        let fast = top.into_sorted();
        let mut slow = cands;
        slow.sort_by(neighbor_cmp);
        slow.truncate(k);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.id, s.id);
            assert_eq!(f.score.to_bits(), s.score.to_bits());
        }
    });
}

/// Blocked brute-force top-k equals the naive sorted reference on
/// random tables of arbitrary shape — bit for bit.
#[test]
fn brute_force_matches_reference_on_random_shapes() {
    check(|rng| {
        let n = rng.random_range(1usize..80);
        let dim = rng.random_range(1usize..12);
        let k = rng.random_range(1usize..15);
        let seed = rng.random_range(0u64..1000);
        let data: Vec<f32> = (0..n * dim)
            .map(|i| {
                let h = splitmix64(seed ^ i as u64);
                (h % 4000) as f32 / 1000.0 - 2.0
            })
            .collect();
        let emb = NodeEmbeddings::from_flat(n, dim, data);
        for metric in [Metric::Dot, Metric::Cosine] {
            let index = BruteForceIndex::new(&emb, metric);
            let qid = (seed % n as u64) as usize;
            let q = emb.get(transn_graph::NodeId(qid as u32)).to_vec();
            let fast = index.top_k(&q, k, Some(qid as u32));
            let slow = brute_force_reference(&emb, metric, &q, k, Some(qid as u32));
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.id, s.id);
                assert_eq!(f.score.to_bits(), s.score.to_bits());
            }
        }
    });
}

/// Insert order perturbs HNSW's edges but not its layer assignment:
/// recall@10 of a permuted build stays within tolerance of the
/// id-order build, and both stay above the acceptance floor.
#[test]
fn hnsw_insert_order_changes_recall_only_within_tolerance() {
    check(|rng| {
        let shuffle_seed = rng.random_range(0u64..100);
        let n = 300;
        let emb = clustered(n, 16, 4);
        let id_order: Vec<u32> = (0..n as u32).collect();
        let mut permuted = id_order.clone();
        for i in (1..n).rev() {
            let j = (splitmix64(shuffle_seed ^ i as u64) % (i as u64 + 1)) as usize;
            permuted.swap(i, j);
        }
        let cfg = HnswConfig::default();
        let a = HnswIndex::build_with_order(&emb, Metric::Cosine, cfg, &id_order);
        let b = HnswIndex::build_with_order(&emb, Metric::Cosine, cfg, &permuted);
        let queries = 20;
        let (mut ra, mut rb) = (0.0, 0.0);
        for q in 0..queries {
            let qid = (q * 13) % n;
            let query = emb.get(transn_graph::NodeId(qid as u32));
            let exact = brute_force_reference(&emb, Metric::Cosine, query, 10, Some(qid as u32));
            ra += recall_at_k(&a.top_k(query, 10, Some(qid as u32)), &exact);
            rb += recall_at_k(&b.top_k(query, 10, Some(qid as u32)), &exact);
        }
        ra /= queries as f64;
        rb /= queries as f64;
        assert!(ra >= 0.95, "id-order recall {ra}");
        assert!(rb >= 0.95, "permuted recall {rb}");
        assert!((ra - rb).abs() <= 0.05, "recall drifted: {ra} vs {rb}");
    });
}

/// Header encode/decode roundtrips over arbitrary coherent fields.
#[test]
fn header_roundtrip_over_valid_fields() {
    check(|rng| {
        let dim = rng.random_range(1u32..256);
        let count = rng.random_range(0u64..10_000);
        let with_types = rng.random_range(0u8..2);
        let checksum_seed = rng.random_range(0u64..1_000_000);
        let stride = row_stride(dim as usize) as u64;
        let header = StoreHeader {
            version: VERSION,
            dim,
            count,
            payload_off: HEADER_LEN as u64,
            type_table_off: HEADER_LEN as u64 + count * stride,
            type_table_len: if with_types == 1 { 4 * count } else { 0 },
            checksum: splitmix64(checksum_seed),
        };
        let decoded = StoreHeader::decode(&header.encode()).expect("valid header must decode");
        assert_eq!(decoded, header);
    });
}

/// Quantized scan → TopK(rerank_k) → exact rerank, with `rerank_k`
/// covering the whole table, equals the full-sort f32 oracle bit for
/// bit on random shapes and both metrics. With a
/// smaller `rerank_k` the result must still be a prefix-consistent
/// exact rescoring: every returned score matches the oracle's score
/// for that id bitwise.
#[test]
fn quantized_rerank_matches_full_sort_oracle() {
    check(|rng| {
        let n = rng.random_range(1usize..60);
        let dim = rng.random_range(1usize..12);
        let k = rng.random_range(1usize..15);
        let seed = rng.random_range(0u64..1000);
        let data: Vec<f32> = (0..n * dim)
            .map(|i| {
                let h = splitmix64(seed ^ (i as u64) << 1);
                (h % 4000) as f32 / 1000.0 - 2.0
            })
            .collect();
        let emb = NodeEmbeddings::from_flat(n, dim, data);
        let path = std::env::temp_dir().join(format!(
            "transn-serve-prop-rerank-{seed}-{n}-{dim}-{}",
            std::process::id()
        ));
        EmbStore::write_quant_file(&emb, None, QuantKind::I8, &path).expect("write quant store");
        let store = EmbStore::open(&path).expect("open quant store");
        std::fs::remove_file(&path).ok();
        let qid = (seed % n as u64) as usize;
        let q = emb.get(transn_graph::NodeId(qid as u32)).to_vec();
        for metric in [Metric::Dot, Metric::Cosine] {
            let oracle = brute_force_reference(&emb, metric, &q, n, Some(qid as u32));
            // Full rerank: bitwise equal to the oracle's top k.
            let full = QuantizedIndex::new(&store, metric, n);
            let fast = full.top_k(&q, k, Some(qid as u32));
            assert_eq!(fast.len(), oracle.len().min(k));
            for (f, s) in fast.iter().zip(&oracle) {
                assert_eq!(f.id, s.id);
                assert_eq!(f.score.to_bits(), s.score.to_bits());
            }
            // Partial rerank: scores are still the exact f32 scores.
            let partial = QuantizedIndex::new(&store, metric, k + 2);
            for f in partial.top_k(&q, k, Some(qid as u32)) {
                let s = oracle.iter().find(|s| s.id == f.id).expect("id in table");
                assert_eq!(f.score.to_bits(), s.score.to_bits());
            }
        }
    });
}
