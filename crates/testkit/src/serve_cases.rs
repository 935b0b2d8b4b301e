//! Conformance cases for the serving layer (DESIGN.md §12, §15): the
//! store's write→load roundtrip, the blocked brute-force index against its
//! naive reference, the HNSW index against brute force, thread-count
//! invariance of batched queries, link scoring against a from-scratch
//! metric reimplementation, and the quantized path — the i8 scan's
//! integer kernels against their sequential references, quantize→
//! dequantize error against an f64 reference, full-rerank top-k against
//! the exact f32 oracle, and thread-count invariance of the batched
//! quantized engine.
//!
//! All cases are [`Match::Bitwise`]: the serving layer's determinism
//! contract is exact, not approximate — even the HNSW case emits hard 0/1
//! recall flags rather than a tolerance-smeared score.

use crate::conformance::{Conformance, Ctx, Match};
use transn_graph::NodeEmbeddings;
use transn_nn::kernels;
use transn_serve::{
    batch_top_k, brute_force_reference, recall_at_k, BruteForceIndex, EmbStore, EmbeddingIndex,
    HnswConfig, HnswIndex, Metric, Neighbor, QuantKind, QuantizedIndex,
};
use transn_sgns::Parallelism;

/// The serving-layer conformance cases, in registry order.
pub(crate) fn cases() -> Vec<Box<dyn Conformance>> {
    vec![
        Box::new(StoreRoundtrip),
        Box::new(BruteVsNaive),
        Box::new(HnswRecall),
        Box::new(QueryThreads),
        Box::new(LinkScores),
        Box::new(QuantKernels),
        Box::new(QuantRoundtrip),
        Box::new(QuantRerankExact),
        Box::new(QuantBatchThreads),
    ]
}

/// A random embedding table: irregular values; odd dims exercise the
/// on-disk row padding.
fn random_table(ctx: &mut Ctx, n: usize, dim: usize) -> NodeEmbeddings {
    let data: Vec<f32> = (0..n * dim)
        .map(|_| ctx.rng().random_range(-1.0..1.0f32))
        .collect();
    NodeEmbeddings::from_flat(n, dim, data)
}

/// `(n, dim)` pairs a case runs at: below/above the 256-row scoring block,
/// odd and even dims.
fn table_shapes(ctx: &Ctx) -> [(usize, usize); 2] {
    [(ctx.scaled(40), 5), (ctx.scaled(300), 8)]
}

fn emit_neighbors(ctx: &mut Ctx, results: &[Neighbor]) {
    ctx.emit_len(results.len());
    for r in results {
        ctx.emit_bits(r.id);
        ctx.emit(r.score);
    }
}

/// Write→load roundtrip: a table serialized to the v1 format and loaded
/// back must reproduce every row and type id
/// bit-for-bit. The reference emits the in-memory table directly.
struct StoreRoundtrip;
impl Conformance for StoreRoundtrip {
    fn name(&self) -> &'static str {
        "serve-store-roundtrip"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for (shape, (n, dim)) in table_shapes(ctx).into_iter().enumerate() {
            let emb = random_table(ctx, n, dim);
            let types: Vec<u32> = (0..n as u32).map(|i| i % 4).collect();
            let path = std::env::temp_dir().join(format!(
                "transn-testkit-roundtrip-{}-{}-{shape}-{}",
                ctx.seed(),
                ctx.scale(),
                std::process::id()
            ));
            EmbStore::write_file(&emb, Some(&types), &path).expect("write store");
            let store = EmbStore::open(&path).expect("open store");
            std::fs::remove_file(&path).ok();
            ctx.emit_len(store.num_nodes());
            ctx.emit_len(store.dim());
            for i in 0..store.num_nodes() {
                ctx.emit_all(store.row(i));
                ctx.emit_bits(store.node_type(i).expect("type table present"));
            }
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for (n, dim) in table_shapes(ctx) {
            let emb = random_table(ctx, n, dim);
            ctx.emit_len(n);
            ctx.emit_len(dim);
            for i in 0..n {
                ctx.emit_all(emb.get(transn_graph::NodeId(i as u32)));
                ctx.emit_bits(i as u32 % 4);
            }
        }
    }
}

/// The blocked GEMM top-k against the one-dot-per-row sorted reference,
/// both metrics, k = 10, query node excluded.
struct BruteVsNaive;
impl Conformance for BruteVsNaive {
    fn name(&self) -> &'static str {
        "serve-brute-vs-naive"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for (n, dim) in table_shapes(ctx) {
            let emb = random_table(ctx, n, dim);
            for metric in [Metric::Dot, Metric::Cosine] {
                let index = BruteForceIndex::new(&emb, metric);
                for qid in [0usize, n / 2, n - 1] {
                    let q = emb.get(transn_graph::NodeId(qid as u32)).to_vec();
                    emit_neighbors(ctx, &index.top_k(&q, 10, Some(qid as u32)));
                }
            }
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for (n, dim) in table_shapes(ctx) {
            let emb = random_table(ctx, n, dim);
            for metric in [Metric::Dot, Metric::Cosine] {
                for qid in [0usize, n / 2, n - 1] {
                    let q = emb.get(transn_graph::NodeId(qid as u32)).to_vec();
                    emit_neighbors(
                        ctx,
                        &brute_force_reference(&emb, metric, &q, 10, Some(qid as u32)),
                    );
                }
            }
        }
    }
}

/// Clustered points for the recall case: `clusters` well-separated
/// centers, per-coordinate noise from the case RNG.
fn clustered(ctx: &mut Ctx, n: usize, dim: usize, clusters: usize) -> NodeEmbeddings {
    let mut data = vec![0.0f32; n * dim];
    for i in 0..n {
        let c = i % clusters;
        for j in 0..dim {
            let center = if j % clusters == c { 10.0 } else { 0.0 };
            data[i * dim + j] = center + ctx.rng().random_range(-1.0..1.0f32);
        }
    }
    NodeEmbeddings::from_flat(n, dim, data)
}

/// HNSW vs exact brute force: mean recall@10 over 25 queries must reach
/// the acceptance floor 0.95 on seeded clustered data, for both metrics.
/// Emitted as hard 0/1 flags so the case stays `Bitwise`.
struct HnswRecall;
impl Conformance for HnswRecall {
    fn name(&self) -> &'static str {
        "serve-hnsw-recall"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let n = ctx.scaled(300);
        for metric in [Metric::Dot, Metric::Cosine] {
            let emb = clustered(ctx, n, 16, 4);
            let index = HnswIndex::build(&emb, metric, HnswConfig::default());
            let queries = 25;
            let mut recall = 0.0;
            for q in 0..queries {
                let qid = (q * 13) % n;
                let query = emb.get(transn_graph::NodeId(qid as u32));
                let approx = index.top_k(query, 10, Some(qid as u32));
                let exact = brute_force_reference(&emb, metric, query, 10, Some(qid as u32));
                recall += recall_at_k(&approx, &exact);
            }
            recall /= queries as f64;
            ctx.emit(if recall >= 0.95 { 1.0 } else { 0.0 });
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        // Consume the same RNG stream, then assert the flags.
        let n = ctx.scaled(300);
        for _ in [Metric::Dot, Metric::Cosine] {
            let _ = clustered(ctx, n, 16, 4);
            ctx.emit(1.0);
        }
    }
}

/// Batched queries at thread counts {2, 4, 8}, strict and hogwild, must
/// be byte-identical to the serial answer: sharding only partitions work.
struct QueryThreads;
impl Conformance for QueryThreads {
    fn name(&self) -> &'static str {
        "serve-query-threads"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        self.run(ctx, &[2, 4, 8]);
    }
    fn reference(&self, ctx: &mut Ctx) {
        self.run(ctx, &[1, 1, 1]);
    }
}

impl QueryThreads {
    fn run(&self, ctx: &mut Ctx, thread_plan: &[usize]) {
        let (n, dim) = (ctx.scaled(120), 6);
        let emb = random_table(ctx, n, dim);
        let index = BruteForceIndex::new(&emb, Metric::Cosine);
        let ids: Vec<u32> = (0..17).map(|i| (i * 7) % n as u32).collect();
        let queries: Vec<&[f32]> = ids
            .iter()
            .map(|&i| emb.get(transn_graph::NodeId(i)))
            .collect();
        let exclude: Vec<Option<u32>> = ids.iter().map(|&i| Some(i)).collect();
        for &threads in thread_plan {
            for par in [Parallelism::strict(threads), Parallelism::hogwild(threads)] {
                for result in batch_top_k(&index, &queries, 5, &exclude, par) {
                    emit_neighbors(ctx, &result);
                }
            }
        }
    }
}

/// Link scoring through the index vs a from-scratch reimplementation of
/// the metric formulas (dot; cosine with zero-vector → 0) on raw kernel
/// dots — the definition the serving layer must match bit-for-bit.
struct LinkScores;
impl Conformance for LinkScores {
    fn name(&self) -> &'static str {
        "serve-link-scores"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (n, dim) = (ctx.scaled(50), 7);
        let emb = random_table(ctx, n, dim);
        let pairs: Vec<(usize, usize)> = (0..20)
            .map(|_| (ctx.rng().random_range(0..n), ctx.rng().random_range(0..n)))
            .collect();
        for metric in [Metric::Dot, Metric::Cosine] {
            let index = BruteForceIndex::new(&emb, metric);
            for &(u, v) in &pairs {
                ctx.emit(index.link_score(u, v));
            }
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (n, dim) = (ctx.scaled(50), 7);
        let emb = random_table(ctx, n, dim);
        let pairs: Vec<(usize, usize)> = (0..20)
            .map(|_| (ctx.rng().random_range(0..n), ctx.rng().random_range(0..n)))
            .collect();
        let row = |i: usize| emb.get(transn_graph::NodeId(i as u32));
        for metric in [Metric::Dot, Metric::Cosine] {
            for &(u, v) in &pairs {
                let raw = kernels::dot(row(u), row(v));
                let score = match metric {
                    Metric::Dot => raw,
                    Metric::Cosine => {
                        let denom = kernels::dot(row(u), row(u)).sqrt()
                            * kernels::dot(row(v), row(v)).sqrt();
                        if denom == 0.0 {
                            0.0
                        } else {
                            raw / denom
                        }
                    }
                };
                ctx.emit(score);
            }
        }
    }
}

/// Dimensions the quant-kernel case runs at: the lane width itself, two
/// multi-block lengths, and three ragged tails straddling the 8-lane
/// stripe.
const QUANT_KERNEL_DIMS: [usize; 6] = [8, 64, 128, 5, 13, 67];

/// Draw a query and a row from the case RNG and quantize both to i8
/// codes, as the scan does — the shared fixture for [`QuantKernels`].
fn quant_kernel_fixture(ctx: &mut Ctx, dim: usize) -> (Vec<i8>, Vec<i8>) {
    let mut codes = || {
        let v: Vec<f32> = (0..dim)
            .map(|_| ctx.rng().random_range(-1.0..1.0f32))
            .collect();
        let mut c = vec![0i8; dim];
        kernels::quantize_row_i8(&v, &mut c);
        c
    };
    (codes(), codes())
}

/// Record an `i64` bit-exactly (two 32-bit halves).
fn emit_i64(ctx: &mut Ctx, x: i64) {
    ctx.emit_bits(x as u32);
    ctx.emit_bits((x >> 32) as u32);
}

/// The i8 scan's integer kernels at d ∈ {8, 64, 128} plus ragged tails:
/// [`kernels::dot_i8_i8`] against [`kernels::dot_i8_i8_ref`], and
/// [`kernels::sum_i8`] against a from-scratch i64 sum. Integer sums are
/// order-free, so the lane-blocked kernels must match bit-for-bit.
struct QuantKernels;
impl Conformance for QuantKernels {
    fn name(&self) -> &'static str {
        "quant-kernels"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for dim in QUANT_KERNEL_DIMS {
            let (q, row) = quant_kernel_fixture(ctx, dim);
            emit_i64(ctx, kernels::dot_i8_i8(&q, &row) as i64);
            emit_i64(ctx, kernels::sum_i8(&q) as i64);
            emit_i64(ctx, kernels::sum_i8(&row) as i64);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for dim in QUANT_KERNEL_DIMS {
            let (q, row) = quant_kernel_fixture(ctx, dim);
            emit_i64(ctx, kernels::dot_i8_i8_ref(&q, &row) as i64);
            emit_i64(ctx, q.iter().map(|&c| c as i64).sum());
            emit_i64(ctx, row.iter().map(|&c| c as i64).sum());
        }
    }
}

/// quantize→dequantize round-trip error against an f64 reference: the
/// f32 affine parameters must sit within relative 1e-3 of the f64-derived
/// scale, and every dequantized coordinate within half a quantization
/// step (plus f32 slack) of the original. Emitted as hard 0/1 flags per
/// row.
struct QuantRoundtrip;
impl Conformance for QuantRoundtrip {
    fn name(&self) -> &'static str {
        "quant-roundtrip"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for (n, dim) in table_shapes(ctx) {
            let emb = random_table(ctx, n, dim);
            let mut codes = vec![0i8; dim];
            let mut back = vec![0.0f32; dim];
            for i in 0..n {
                let row = emb.get(transn_graph::NodeId(i as u32));
                let params = kernels::quantize_row_i8(row, &mut codes);
                kernels::dequantize_row_i8(&codes, params, &mut back);
                // f64 oracle for the affine parameters.
                let lo = row.iter().fold(f64::INFINITY, |a, &v| a.min(v as f64));
                let hi = row.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v as f64));
                let scale64 = (hi - lo) / 254.0;
                let scale_ok = (params.scale as f64 - scale64).abs() <= 1e-3 * scale64 + 1e-12;
                let bound = 0.5 * scale64 * 1.001 + 1e-6;
                let round_ok = row
                    .iter()
                    .zip(&back)
                    .all(|(&v, &b)| ((v - b) as f64).abs() <= bound);
                ctx.emit(if scale_ok && round_ok { 1.0 } else { 0.0 });
            }
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        // Consume the same RNG stream, then assert the flags.
        for (n, dim) in table_shapes(ctx) {
            let _ = random_table(ctx, n, dim);
            for _ in 0..n {
                ctx.emit(1.0);
            }
        }
    }
}

/// Write an i8-quantized store for `emb` to a temp file and open it.
fn quant_store(ctx: &Ctx, tag: &str, emb: &NodeEmbeddings) -> EmbStore {
    let path = std::env::temp_dir().join(format!(
        "transn-testkit-{tag}-{}-{}-{}",
        ctx.seed(),
        ctx.scale(),
        std::process::id()
    ));
    EmbStore::write_quant_file(emb, None, QuantKind::I8, &path).expect("write quant store");
    let store = EmbStore::open(&path).expect("open quant store");
    std::fs::remove_file(&path).ok();
    store
}

/// Quantized brute top-k with **full** rerank (`rerank_k = n`) against
/// the exact f32 oracle: every scanned candidate is rescored with the
/// same exact kernels the oracle uses, so the approximate scan only
/// permutes work and the final top-k must match bit-for-bit — both
/// metrics.
struct QuantRerankExact;
impl Conformance for QuantRerankExact {
    fn name(&self) -> &'static str {
        "quant-rerank-exact"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for (n, dim) in table_shapes(ctx) {
            let emb = random_table(ctx, n, dim);
            let store = quant_store(ctx, "rerank", &emb);
            for metric in [Metric::Dot, Metric::Cosine] {
                let index = QuantizedIndex::new(&store, metric, n);
                for qid in [0usize, n / 2, n - 1] {
                    let q = emb.get(transn_graph::NodeId(qid as u32)).to_vec();
                    emit_neighbors(ctx, &index.top_k(&q, 10, Some(qid as u32)));
                }
            }
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for (n, dim) in table_shapes(ctx) {
            let emb = random_table(ctx, n, dim);
            for metric in [Metric::Dot, Metric::Cosine] {
                for qid in [0usize, n / 2, n - 1] {
                    let q = emb.get(transn_graph::NodeId(qid as u32)).to_vec();
                    emit_neighbors(
                        ctx,
                        &brute_force_reference(&emb, metric, &q, 10, Some(qid as u32)),
                    );
                }
            }
        }
    }
}

/// The batched quantized engine at thread counts {2, 4, 8}, strict and
/// hogwild, must be byte-identical to the serial answer — sharding and
/// query blocking only partition work. Runs with a *partial* rerank so
/// the approximate scan order itself is under test, not just the exact
/// rescore.
struct QuantBatchThreads;
impl Conformance for QuantBatchThreads {
    fn name(&self) -> &'static str {
        "quant-batch-threads"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        self.run(ctx, &[2, 4, 8]);
    }
    fn reference(&self, ctx: &mut Ctx) {
        self.run(ctx, &[1, 1, 1]);
    }
}

impl QuantBatchThreads {
    fn run(&self, ctx: &mut Ctx, thread_plan: &[usize]) {
        let (n, dim) = (ctx.scaled(120), 6);
        let emb = random_table(ctx, n, dim);
        let store = quant_store(ctx, "batch", &emb);
        let index = QuantizedIndex::new(&store, Metric::Cosine, 20);
        let ids: Vec<u32> = (0..17).map(|i| (i * 7) % n as u32).collect();
        let queries: Vec<&[f32]> = ids
            .iter()
            .map(|&i| emb.get(transn_graph::NodeId(i)))
            .collect();
        let exclude: Vec<Option<u32>> = ids.iter().map(|&i| Some(i)).collect();
        for &threads in thread_plan {
            for par in [Parallelism::strict(threads), Parallelism::hogwild(threads)] {
                for result in batch_top_k(&index, &queries, 5, &exclude, par) {
                    emit_neighbors(ctx, &result);
                }
            }
        }
    }
}
