//! The conformance case registry: every fast path in the workspace paired
//! with its slow reference.
//!
//! | group   | cases                                   | tolerance      |
//! |---------|-----------------------------------------|----------------|
//! | kernels | dot, sqdist, gemm-tb                    | `Rel(1e-5)`    |
//! | kernels | axpy, scale-add, gemm, gemm-ta, tb-acc  | `Bitwise`      |
//! | nn      | softmax-simplex                         | `Rel(1e-5)`    |
//! | nn      | ws-feedforward, ws-translator-{f,b}     | `Bitwise`      |
//! | nn      | loss-eval-into                          | `Bitwise`      |
//! | walks   | corpus-flat-vs-nested, parallel-generate| `Bitwise`      |
//! | walks   | corpus-episode-extend                   | `Bitwise`      |
//! | sgns    | noise-from-corpus, strict-threads {1,2,4,8}, hogwild1 | `Bitwise` |
//! | sgns    | sgns-episodic-vs-monolithic             | `Bitwise`      |
//! | sgns    | hs-vs-sgns-trend                        | `Bitwise` flags|
//! | core    | core-strict-threads, core-hogwild-split, core-episodic-strict | `Bitwise` |
//! | graph   | csr-build-threads, alias-build-threads, noise-build-threads (each vs the serial path, threads {1,2,4,8}) | `Bitwise` |
//! | eval    | logreg-gemm-fit                         | `Rel(1e-3)`    |
//! | eval    | logreg-batch-predict                    | `Bitwise`      |
//! | serve   | serve-store-roundtrip, serve-brute-vs-naive, serve-query-threads, serve-link-scores | `Bitwise` |
//! | serve   | serve-hnsw-recall                       | `Bitwise` flags|
//! | serve   | quant-kernels, quant-rerank-exact, quant-batch-threads | `Bitwise` |
//! | serve   | quant-roundtrip                         | `Bitwise` flags|
//! | stream  | stream-compact-threads (overlay compact vs from-scratch build, threads {1,2,4,8}), stream-overlay-merge (merged-view iteration vs naive edge list), stream-refresh-empty (empty-delta refresh vs previous table) | `Bitwise` |

use crate::conformance::{Conformance, Ctx, Match};
use crate::fixture;
use crate::invariants::{check_corpus_offsets, check_finite, check_prob_simplex};
use std::ops::Range;
use transn::{refresh, Parallelism, RefreshPlan, TransN, TransNConfig};
use transn_eval::{LogRegConfig, LogisticRegression};
use transn_graph::{
    build_batch_with, AliasTable, Csr, DeltaBatch, DeltaOp, DeltaOverlay, EdgeTypeId, HetNet,
    HetNetBuilder, NodeId, NodeTypeId,
};
use transn_nn::kernels;
use transn_nn::{FeedForward, LossKind, Matrix, Translator, Workspace};
use transn_rng::Rng;
use transn_sgns::{
    train_epoch_episodic, EpisodicState, NoiseTable, SgnsConfig, SgnsModel, TrainScratch,
};
use transn_walks::{parallel_generate, parallel_generate_offset_into, EpisodeConfig, WalkCorpus};

/// All registered conformance cases, in registry order.
pub fn registry() -> Vec<Box<dyn Conformance>> {
    let mut cases: Vec<Box<dyn Conformance>> = vec![
        Box::new(KernelDot),
        Box::new(KernelSqdist),
        Box::new(KernelAxpy),
        Box::new(KernelScaleAdd),
        Box::new(KernelGemm),
        Box::new(KernelGemmTa),
        Box::new(KernelGemmTb),
        Box::new(KernelGemmTbAcc),
        Box::new(SoftmaxSimplex),
        Box::new(WsFeedForward),
        Box::new(WsTranslatorForward),
        Box::new(WsTranslatorBackward),
        Box::new(LossEvalInto),
        Box::new(CorpusFlatVsNested),
        Box::new(CorpusParallelGenerate),
        Box::new(CorpusEpisodeExtend),
        Box::new(NoiseFromCorpus),
        Box::new(SgnsStrictThreads),
        Box::new(SgnsHogwild1VsStrict),
        Box::new(SgnsEpisodicVsMonolithic),
        Box::new(HsVsSgnsTrend),
        Box::new(CoreStrictThreads),
        Box::new(CoreHogwildSplit),
        Box::new(CoreEpisodicStrict),
        Box::new(CsrBuildThreads),
        Box::new(AliasBuildThreads),
        Box::new(NoiseBuildThreads),
        Box::new(LogregGemmFit),
        Box::new(LogregBatchPredict),
        Box::new(StreamCompactThreads),
        Box::new(StreamOverlayMerge),
        Box::new(StreamRefreshEmpty),
    ];
    cases.extend(crate::serve_cases::cases());
    cases
}

/// Vector lengths exercised by the 1-D kernel cases: below, at, and past
/// the 8-lane block, plus a scaled tail-heavy length.
fn kernel_lens(ctx: &Ctx) -> [usize; 6] {
    [1, 3, 8, 9, 17, ctx.scaled(21)]
}

fn random_vec(ctx: &mut Ctx, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| ctx.rng().random_range(-1.0..1.0f32))
        .collect()
}

struct KernelDot;
impl Conformance for KernelDot {
    fn name(&self) -> &'static str {
        "kernel-dot"
    }
    fn tolerance(&self) -> Match {
        // The 8-lane tree reduction reorders sums vs the sequential ref.
        Match::Rel(1e-5)
    }
    fn fast(&self, ctx: &mut Ctx) {
        for len in kernel_lens(ctx) {
            let a = random_vec(ctx, len);
            let b = random_vec(ctx, len);
            ctx.emit(kernels::dot(&a, &b));
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for len in kernel_lens(ctx) {
            let a = random_vec(ctx, len);
            let b = random_vec(ctx, len);
            ctx.emit(kernels::dot_ref(&a, &b));
        }
    }
}

struct KernelSqdist;
impl Conformance for KernelSqdist {
    fn name(&self) -> &'static str {
        "kernel-sqdist"
    }
    fn tolerance(&self) -> Match {
        Match::Rel(1e-5)
    }
    fn fast(&self, ctx: &mut Ctx) {
        for len in kernel_lens(ctx) {
            let a = random_vec(ctx, len);
            let b = random_vec(ctx, len);
            ctx.emit(kernels::sqdist(&a, &b));
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for len in kernel_lens(ctx) {
            let a = random_vec(ctx, len);
            let b = random_vec(ctx, len);
            ctx.emit(kernels::sqdist_ref(&a, &b));
        }
    }
}

struct KernelAxpy;
impl Conformance for KernelAxpy {
    fn name(&self) -> &'static str {
        "kernel-axpy"
    }
    fn tolerance(&self) -> Match {
        // Element-wise: no reduction, so fast and ref are bit-identical.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for len in kernel_lens(ctx) {
            let mut y = random_vec(ctx, len);
            let x = random_vec(ctx, len);
            let a: f32 = ctx.rng().random_range(-2.0..2.0);
            kernels::axpy(&mut y, a, &x);
            ctx.emit_all(&y);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for len in kernel_lens(ctx) {
            let mut y = random_vec(ctx, len);
            let x = random_vec(ctx, len);
            let a: f32 = ctx.rng().random_range(-2.0..2.0);
            kernels::axpy_ref(&mut y, a, &x);
            ctx.emit_all(&y);
        }
    }
}

struct KernelScaleAdd;
impl Conformance for KernelScaleAdd {
    fn name(&self) -> &'static str {
        "kernel-scale-add"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for len in kernel_lens(ctx) {
            let mut out = vec![0.0f32; len];
            let x = random_vec(ctx, len);
            let y = random_vec(ctx, len);
            let (a, b): (f32, f32) = (
                ctx.rng().random_range(-2.0..2.0),
                ctx.rng().random_range(-2.0..2.0),
            );
            kernels::scale_add(&mut out, a, &x, b, &y);
            ctx.emit_all(&out);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for len in kernel_lens(ctx) {
            let mut out = vec![0.0f32; len];
            let x = random_vec(ctx, len);
            let y = random_vec(ctx, len);
            let (a, b): (f32, f32) = (
                ctx.rng().random_range(-2.0..2.0),
                ctx.rng().random_range(-2.0..2.0),
            );
            kernels::scale_add_ref(&mut out, a, &x, b, &y);
            ctx.emit_all(&out);
        }
    }
}

/// GEMM shapes for the current scale: deliberately non-multiples of the
/// kernel block sizes so every tail path runs.
fn gemm_dims(ctx: &Ctx) -> (usize, usize, usize) {
    (ctx.scaled(3), ctx.scaled(5) + 1, ctx.scaled(2) + 2)
}

struct KernelGemm;
impl Conformance for KernelGemm {
    fn name(&self) -> &'static str {
        "kernel-gemm"
    }
    fn tolerance(&self) -> Match {
        // The blocked gemm preserves the textbook accumulation order.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (n, k, m) = gemm_dims(ctx);
        let a = random_vec(ctx, n * k);
        let b = random_vec(ctx, k * m);
        let mut out = vec![0.0f32; n * m];
        kernels::gemm(&a, &b, &mut out, n, k, m);
        ctx.emit_all(&out);
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (n, k, m) = gemm_dims(ctx);
        let a = random_vec(ctx, n * k);
        let b = random_vec(ctx, k * m);
        let mut out = vec![0.0f32; n * m];
        kernels::gemm_ref(&a, &b, &mut out, n, k, m);
        ctx.emit_all(&out);
    }
}

struct KernelGemmTa;
impl Conformance for KernelGemmTa {
    fn name(&self) -> &'static str {
        "kernel-gemm-ta"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (n, k, m) = gemm_dims(ctx);
        let a = random_vec(ctx, k * n);
        let b = random_vec(ctx, k * m);
        let mut out = vec![0.0f32; n * m];
        kernels::gemm_ta(&a, &b, &mut out, k, n, m);
        ctx.emit_all(&out);
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (n, k, m) = gemm_dims(ctx);
        let a = random_vec(ctx, k * n);
        let b = random_vec(ctx, k * m);
        let mut out = vec![0.0f32; n * m];
        kernels::gemm_ta_ref(&a, &b, &mut out, k, n, m);
        ctx.emit_all(&out);
    }
}

struct KernelGemmTb;
impl Conformance for KernelGemmTb {
    fn name(&self) -> &'static str {
        "kernel-gemm-tb"
    }
    fn tolerance(&self) -> Match {
        // Row-dot reduction runs in the 8-lane tree order.
        Match::Rel(1e-5)
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (n, d, m) = gemm_dims(ctx);
        let a = random_vec(ctx, n * d);
        let b = random_vec(ctx, m * d);
        let mut out = vec![0.0f32; n * m];
        kernels::gemm_tb(&a, &b, &mut out, n, d, m);
        ctx.emit_all(&out);
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (n, d, m) = gemm_dims(ctx);
        let a = random_vec(ctx, n * d);
        let b = random_vec(ctx, m * d);
        let mut out = vec![0.0f32; n * m];
        kernels::gemm_tb_ref(&a, &b, &mut out, n, d, m);
        ctx.emit_all(&out);
    }
}

struct KernelGemmTbAcc;
impl Conformance for KernelGemmTbAcc {
    fn name(&self) -> &'static str {
        "kernel-gemm-tb-acc"
    }
    fn tolerance(&self) -> Match {
        // Same per-element dot order as gemm_tb, added to `out` once.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (n, d, m) = gemm_dims(ctx);
        let a = random_vec(ctx, n * d);
        let b = random_vec(ctx, m * d);
        let mut out = random_vec(ctx, n * m);
        kernels::gemm_tb_acc(&a, &b, &mut out, n, d, m);
        ctx.emit_all(&out);
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (n, d, m) = gemm_dims(ctx);
        let a = random_vec(ctx, n * d);
        let b = random_vec(ctx, m * d);
        let mut out = random_vec(ctx, n * m);
        let mut tmp = vec![0.0f32; n * m];
        kernels::gemm_tb(&a, &b, &mut tmp, n, d, m);
        for (o, t) in out.iter_mut().zip(&tmp) {
            *o += t;
        }
        ctx.emit_all(&out);
    }
}

struct SoftmaxSimplex;
impl Conformance for SoftmaxSimplex {
    fn name(&self) -> &'static str {
        "softmax-simplex"
    }
    fn tolerance(&self) -> Match {
        Match::Rel(1e-5)
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (rows, cols) = (ctx.scaled(3), ctx.scaled(4) + 1);
        let mut m = Matrix::from_fn(rows, cols, |_, _| ctx.rng().random_range(-3.0..3.0));
        m.softmax_rows_inplace();
        for r in 0..rows {
            check_prob_simplex("softmax row", m.row(r), 1e-4).unwrap();
        }
        ctx.emit_all(m.data());
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (rows, cols) = (ctx.scaled(3), ctx.scaled(4) + 1);
        let m = Matrix::from_fn(rows, cols, |_, _| ctx.rng().random_range(-3.0..3.0));
        // Textbook max-subtracted softmax in f64.
        for r in 0..rows {
            let row = m.row(r);
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
            let exps: Vec<f64> = row.iter().map(|&v| ((v as f64) - mx).exp()).collect();
            let sum: f64 = exps.iter().sum();
            for e in exps {
                ctx.emit((e / sum) as f32);
            }
        }
    }
}

struct WsFeedForward;
impl Conformance for WsFeedForward {
    fn name(&self) -> &'static str {
        "ws-feedforward"
    }
    fn tolerance(&self) -> Match {
        // The convenience tier wraps the same `_into` kernels.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (len, dim) = (ctx.scaled(4), ctx.scaled(3) + 2);
        let mut ff = FeedForward::new(len, ctx.rng());
        let a = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
        let d_out = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
        let mut ws = Workspace::new(1, len, dim);
        let (out, cache) = ff.forward_ws(&a, &mut ws);
        check_finite("ff ws output", out.data()).unwrap();
        let out = out.data().to_vec();
        ctx.emit_all(&out);
        let d_in = ff.backward_ws(&cache, &d_out, &mut ws);
        let d_in = d_in.data().to_vec();
        ctx.emit_all(&d_in);
        ctx.emit_all(ff.w.grad().data());
        ctx.emit_all(ff.b.grad().data());
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (len, dim) = (ctx.scaled(4), ctx.scaled(3) + 2);
        let mut ff = FeedForward::new(len, ctx.rng());
        let a = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
        let d_out = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
        let (out, cache) = ff.forward(&a);
        ctx.emit_all(out.data());
        let d_in = ff.backward(&cache, &d_out);
        ctx.emit_all(d_in.data());
        ctx.emit_all(ff.w.grad().data());
        ctx.emit_all(ff.b.grad().data());
    }
}

fn translator_setup(ctx: &mut Ctx) -> (Translator, Matrix, Matrix) {
    let (h, len, dim) = (1 + ctx.scale() as usize, ctx.scaled(4), ctx.scaled(3) + 2);
    let t = Translator::new(h, len, ctx.rng());
    let a = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
    let d_out = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
    (t, a, d_out)
}

struct WsTranslatorForward;
impl Conformance for WsTranslatorForward {
    fn name(&self) -> &'static str {
        "ws-translator-forward"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (t, a, _) = translator_setup(ctx);
        let mut ws = Workspace::new(t.num_encoders(), t.path_len(), a.cols());
        let (out, _) = t.forward_ws(&a, &mut ws);
        check_finite("translator ws output", out.data()).unwrap();
        let out = out.data().to_vec();
        ctx.emit_all(&out);
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (t, a, _) = translator_setup(ctx);
        let (out, _) = t.forward(&a);
        ctx.emit_all(out.data());
    }
}

struct WsTranslatorBackward;
impl Conformance for WsTranslatorBackward {
    fn name(&self) -> &'static str {
        "ws-translator-backward"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (mut t, a, d_out) = translator_setup(ctx);
        let mut ws = Workspace::new(t.num_encoders(), t.path_len(), a.cols());
        let (_, cache) = t.forward_ws(&a, &mut ws);
        let d_in = t.backward_ws(&cache, &d_out, &mut ws);
        let d_in = d_in.data().to_vec();
        ctx.emit_all(&d_in);
        for enc in t.encoders() {
            ctx.emit_all(enc.ff.w.grad().data());
            ctx.emit_all(enc.ff.b.grad().data());
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (mut t, a, d_out) = translator_setup(ctx);
        let (_, mut cache) = t.forward(&a);
        let d_in = t.backward(&mut cache, &d_out);
        ctx.emit_all(d_in.data());
        for enc in t.encoders() {
            ctx.emit_all(enc.ff.w.grad().data());
            ctx.emit_all(enc.ff.b.grad().data());
        }
    }
}

struct LossEvalInto;
impl Conformance for LossEvalInto {
    fn name(&self) -> &'static str {
        "loss-eval-into"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (len, dim) = (ctx.scaled(3), ctx.scaled(4) + 1);
        for kind in [LossKind::NegDot, LossKind::Cosine, LossKind::Mse] {
            let x = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
            let t = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
            let mut d_x = Matrix::zeros(len, dim);
            let mut d_t = Matrix::zeros(len, dim);
            let value = kind.eval_into(&x, &t, &mut d_x, &mut d_t);
            ctx.emit(value);
            ctx.emit_all(d_x.data());
            ctx.emit_all(d_t.data());
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (len, dim) = (ctx.scaled(3), ctx.scaled(4) + 1);
        for kind in [LossKind::NegDot, LossKind::Cosine, LossKind::Mse] {
            let x = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
            let t = Matrix::from_fn(len, dim, |_, _| ctx.rng().random_range(-1.0..1.0));
            let loss = kind.eval(&x, &t);
            ctx.emit(loss.value);
            ctx.emit_all(loss.d_x.data());
            ctx.emit_all(loss.d_t.data());
        }
    }
}

fn emit_corpus(ctx: &mut Ctx, corpus: &WalkCorpus, num_nodes: u32) {
    ctx.emit_len(corpus.len());
    for w in 0..corpus.len() {
        ctx.emit_len(corpus.walk(w).len());
    }
    for &t in corpus.tokens() {
        ctx.emit_bits(t);
    }
    for f in corpus.node_frequencies(num_nodes as usize) {
        ctx.emit_bits(f as u32);
    }
}

struct CorpusFlatVsNested;
impl Conformance for CorpusFlatVsNested {
    fn name(&self) -> &'static str {
        "corpus-flat-vs-nested"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let nodes = 16u32;
        let walks = fixture::random_walks(
            nodes,
            ctx.scaled(8),
            3 + ctx.scale() as usize * 4,
            ctx.seed(),
        );
        let mut corpus = WalkCorpus::new();
        for w in &walks {
            corpus.push(w);
        }
        check_corpus_offsets("pushed corpus", &corpus).unwrap();
        emit_corpus(ctx, &corpus, nodes);
    }
    fn reference(&self, ctx: &mut Ctx) {
        let nodes = 16u32;
        let walks = fixture::random_walks(
            nodes,
            ctx.scaled(8),
            3 + ctx.scale() as usize * 4,
            ctx.seed(),
        );
        let corpus = WalkCorpus::from_walks(walks);
        check_corpus_offsets("nested corpus", &corpus).unwrap();
        emit_corpus(ctx, &corpus, nodes);
    }
}

/// The walk generator for [`CorpusParallelGenerate`]: each task emits two
/// RNG-dependent walks, so shard interleaving errors would change tokens.
fn generate_tasks(corpus: &mut WalkCorpus, tasks: usize, threads: usize, seed: u64) {
    let task_ids: Vec<u32> = (0..tasks as u32).collect();
    let generated = parallel_generate(&task_ids, threads, seed, |&t, rng, out| {
        for _ in 0..2 {
            out.push_with(|walk| {
                let len = rng.random_range(2..=6);
                for _ in 0..len {
                    walk.push(t * 31 + rng.random_range(0..16u32));
                }
            });
        }
    });
    corpus.extend(&generated);
}

struct CorpusParallelGenerate;
impl Conformance for CorpusParallelGenerate {
    fn name(&self) -> &'static str {
        "corpus-parallel-generate"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let tasks = ctx.scaled(13);
        for threads in [2, 4, 8] {
            let mut corpus = WalkCorpus::new();
            generate_tasks(&mut corpus, tasks, threads, ctx.seed());
            check_corpus_offsets("parallel corpus", &corpus).unwrap();
            emit_corpus(ctx, &corpus, tasks as u32 * 31 + 16);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let tasks = ctx.scaled(13);
        let mut corpus = WalkCorpus::new();
        generate_tasks(&mut corpus, tasks, 1, ctx.seed());
        for _ in [2, 4, 8] {
            emit_corpus(ctx, &corpus, tasks as u32 * 31 + 16);
        }
    }
}

/// The episode generator for [`CorpusEpisodeExtend`] and
/// [`SgnsEpisodicVsMonolithic`]: task `i` of the full list emits one
/// RNG-dependent walk, seeded by its global index.
fn generate_episode(
    tasks: &[u32],
    range: Range<usize>,
    threads: usize,
    seed: u64,
    nodes: u32,
    out: &mut WalkCorpus,
) {
    parallel_generate_offset_into(out, &tasks[range.clone()], range.start, threads, seed, {
        |&t, rng, out| {
            out.push_with(|walk| {
                let len = rng.random_range(2..=7);
                walk.push(t % nodes);
                for _ in 1..len {
                    walk.push(rng.random_range(0..nodes));
                }
            });
        }
    });
}

struct CorpusEpisodeExtend;
impl Conformance for CorpusEpisodeExtend {
    fn name(&self) -> &'static str {
        "corpus-episode-extend"
    }
    fn tolerance(&self) -> Match {
        // Episode slices seeded by global task index, stitched with
        // `extend_from_arena`, are the monolithic generation bit for bit.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let nodes = 16u32;
        let tasks: Vec<u32> = (0..ctx.scaled(37) as u32).collect();
        for (chunk, threads) in [(1usize, 1usize), (5, 2), (16, 4), (64, 8)] {
            let mut stitched = WalkCorpus::new();
            let mut arena = WalkCorpus::new();
            let mut base = 0usize;
            while base < tasks.len() {
                let hi = (base + chunk).min(tasks.len());
                generate_episode(&tasks, base..hi, threads, ctx.seed(), nodes, &mut arena);
                stitched.extend_from_arena(&arena);
                base = hi;
            }
            check_corpus_offsets("stitched episodic corpus", &stitched).unwrap();
            emit_corpus(ctx, &stitched, nodes);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let nodes = 16u32;
        let tasks: Vec<u32> = (0..ctx.scaled(37) as u32).collect();
        let mut mono = WalkCorpus::new();
        generate_episode(&tasks, 0..tasks.len(), 1, ctx.seed(), nodes, &mut mono);
        for _ in 0..4 {
            emit_corpus(ctx, &mono, nodes);
        }
    }
}

struct NoiseFromCorpus;
impl Conformance for NoiseFromCorpus {
    fn name(&self) -> &'static str {
        "noise-from-corpus"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let nodes = 24u32;
        let corpus = fixture::random_corpus(nodes, ctx.scaled(10), 8, ctx.seed());
        let noise = NoiseTable::from_corpus(&corpus, nodes as usize);
        let mut rng = Rng::seed_from_u64(ctx.seed() ^ 0xD1CE);
        for _ in 0..256 {
            ctx.emit_bits(noise.sample(&mut rng));
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let nodes = 24u32;
        let corpus = fixture::random_corpus(nodes, ctx.scaled(10), 8, ctx.seed());
        let noise = NoiseTable::from_frequencies(&corpus.node_frequencies(nodes as usize));
        let mut rng = Rng::seed_from_u64(ctx.seed() ^ 0xD1CE);
        for _ in 0..256 {
            ctx.emit_bits(noise.sample(&mut rng));
        }
    }
}

/// Shared setup for the strict-determinism SGNS cases.
fn sgns_setup(ctx: &mut Ctx) -> (SgnsModel, WalkCorpus, NoiseTable, SgnsConfig) {
    let nodes = 30u32;
    let dim = 8 + 4 * ctx.scale() as usize;
    // More walks than the 64 Hogwild shards at every scale.
    let corpus = fixture::random_corpus(nodes, 70 + ctx.scaled(10), 8, ctx.seed());
    let noise = NoiseTable::from_corpus(&corpus, nodes as usize);
    let model = SgnsModel::new(nodes as usize, dim, ctx.rng());
    let cfg = SgnsConfig {
        dim,
        negatives: 3,
        window: 2,
        seed: ctx.seed() ^ 0x5EED,
        ..SgnsConfig::default()
    };
    (model, corpus, noise, cfg)
}

fn train_and_emit(
    ctx: &mut Ctx,
    model: &SgnsModel,
    corpus: &WalkCorpus,
    noise: &NoiseTable,
    cfg: &SgnsConfig,
) {
    let mut m = model.clone();
    let loss = m.train_corpus(corpus, noise, cfg, &mut TrainScratch::default());
    check_finite("sgns input table", m.input_table()).unwrap();
    ctx.emit(loss);
    ctx.emit_all(m.input_table());
}

struct SgnsStrictThreads;
impl Conformance for SgnsStrictThreads {
    fn name(&self) -> &'static str {
        "sgns-strict-threads"
    }
    fn tolerance(&self) -> Match {
        // Strict mode applies walks serially in corpus order at any
        // thread count.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (model, corpus, noise, cfg) = sgns_setup(ctx);
        for threads in [2, 4, 8] {
            let cfg = SgnsConfig {
                parallelism: Parallelism::strict(threads),
                ..cfg
            };
            train_and_emit(ctx, &model, &corpus, &noise, &cfg);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (model, corpus, noise, cfg) = sgns_setup(ctx);
        let cfg = SgnsConfig {
            parallelism: Parallelism::strict(1),
            ..cfg
        };
        for _ in [2, 4, 8] {
            train_and_emit(ctx, &model, &corpus, &noise, &cfg);
        }
    }
}

struct SgnsHogwild1VsStrict;
impl Conformance for SgnsHogwild1VsStrict {
    fn name(&self) -> &'static str {
        "sgns-hogwild1-vs-strict"
    }
    fn tolerance(&self) -> Match {
        // One Hogwild thread runs the identical sequential schedule.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (model, corpus, noise, cfg) = sgns_setup(ctx);
        let cfg = SgnsConfig {
            parallelism: Parallelism::hogwild(1),
            ..cfg
        };
        train_and_emit(ctx, &model, &corpus, &noise, &cfg);
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (model, corpus, noise, cfg) = sgns_setup(ctx);
        let cfg = SgnsConfig {
            parallelism: Parallelism::strict(1),
            ..cfg
        };
        train_and_emit(ctx, &model, &corpus, &noise, &cfg);
    }
}

/// Run one episodic epoch for [`SgnsEpisodicVsMonolithic`] and emit the
/// loss plus the resulting input table.
fn episodic_train_emit(ctx: &mut Ctx, episode_walks: usize, in_flight: usize, threads: usize) {
    let nodes = 24u32;
    let tasks: Vec<u32> = (0..70 + ctx.scaled(10) as u32).collect();
    let dim = 8 + 4 * ctx.scale() as usize;
    let cfg = SgnsConfig {
        dim,
        negatives: 3,
        window: 2,
        seed: ctx.seed() ^ 0xE915,
        parallelism: Parallelism::strict(threads),
        episode: EpisodeConfig {
            episode_walks,
            episodes_in_flight: in_flight,
        },
        ..SgnsConfig::default()
    };
    let mut model = SgnsModel::new(nodes as usize, dim, ctx.rng());
    let mut state = EpisodicState::new(in_flight);
    let seed = ctx.seed();
    let loss = train_epoch_episodic(
        &mut model,
        nodes as usize,
        tasks.len(),
        |_| 1,
        |range, arena| generate_episode(&tasks, range, threads, seed, nodes, arena),
        &cfg,
        &mut state,
    );
    check_finite("episodic sgns input table", model.input_table()).unwrap();
    ctx.emit(loss);
    ctx.emit_all(model.input_table());
}

struct SgnsEpisodicVsMonolithic;
impl Conformance for SgnsEpisodicVsMonolithic {
    fn name(&self) -> &'static str {
        "sgns-episodic-vs-monolithic"
    }
    fn tolerance(&self) -> Match {
        // The stream schedule is episode-decomposable: Strict episodic
        // training is bit-identical to the one-episode default run at any
        // episode size, arenas in flight, and thread count (DESIGN.md §13).
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for (episode_walks, in_flight, threads) in [(1, 1, 1), (7, 2, 2), (16, 2, 4), (32, 3, 8)] {
            episodic_train_emit(ctx, episode_walks, in_flight, threads);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        // episode_walks = 0: one episode spanning the whole task list.
        for _ in 0..4 {
            episodic_train_emit(ctx, 0, 1, 1);
        }
    }
}

/// A structured ring corpus: co-occurrence actually predicts adjacency,
/// so both softmax estimators must drive their loss down.
fn ring_corpus(nodes: u32, walks: usize, len: usize) -> WalkCorpus {
    let mut corpus = WalkCorpus::new();
    let mut walk = Vec::new();
    for w in 0..walks {
        walk.clear();
        let start = (w as u32 * 7) % nodes;
        for i in 0..len as u32 {
            walk.push((start + i) % nodes);
        }
        corpus.push(&walk);
    }
    corpus
}

struct HsVsSgnsTrend;
impl Conformance for HsVsSgnsTrend {
    fn name(&self) -> &'static str {
        "hs-vs-sgns-trend"
    }
    fn tolerance(&self) -> Match {
        // The signature is a vector of 0/1 sanity flags.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        use transn_sgns::hsoftmax::HsModel;
        let nodes = 20u32;
        let dim = 8 + 4 * ctx.scale() as usize;
        let corpus = ring_corpus(nodes, 40, 10);
        let epochs = 4;

        // Hierarchical softmax: the exact-softmax reference estimator.
        let freqs = corpus.node_frequencies(nodes as usize);
        let mut hs = HsModel::new(&freqs, dim, ctx.rng());
        let mut hs_losses = Vec::new();
        for _ in 0..epochs {
            hs_losses.push(hs.train_corpus(&corpus, 2, 0.05));
        }

        // Negative sampling: the fast estimator of the same objective.
        let noise = NoiseTable::from_corpus(&corpus, nodes as usize);
        let mut sg = SgnsModel::new(nodes as usize, dim, ctx.rng());
        let cfg = SgnsConfig {
            dim,
            negatives: 3,
            seed: ctx.seed() ^ 0x7E4D,
            ..SgnsConfig::default()
        };
        let mut sg_losses = Vec::new();
        let mut ws = TrainScratch::default();
        for _ in 0..epochs {
            sg_losses.push(sg.train_corpus(&corpus, &noise, &cfg, &mut ws));
        }

        let decreasing = |l: &[f32]| l.last().unwrap() < l.first().unwrap();
        ctx.emit(f32::from(hs_losses.iter().all(|l| l.is_finite())));
        ctx.emit(f32::from(decreasing(&hs_losses)));
        ctx.emit(f32::from(sg_losses.iter().all(|l| l.is_finite())));
        ctx.emit(f32::from(decreasing(&sg_losses)));
        ctx.emit(f32::from(
            check_finite("hs table", sg.input_table()).is_ok(),
        ));
    }
    fn reference(&self, ctx: &mut Ctx) {
        // The sanity flags a healthy run must produce.
        for _ in 0..5 {
            ctx.emit(1.0);
        }
    }
}

struct CoreStrictThreads;
impl Conformance for CoreStrictThreads {
    fn name(&self) -> &'static str {
        "core-strict-threads"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for threads in [2, 4] {
            core_train_emit(ctx, |_| Parallelism::strict(threads));
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for _ in [2, 4] {
            core_train_emit(ctx, |_| Parallelism::strict(1));
        }
    }
}

struct CoreHogwildSplit;
impl Conformance for CoreHogwildSplit {
    fn name(&self) -> &'static str {
        "core-hogwild-split"
    }
    fn tolerance(&self) -> Match {
        // With no more threads than views every view gets one SGNS worker
        // and trains on the sequential in-place path, so Hogwild is the
        // Strict result bit for bit.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        core_train_emit(ctx, |_| Parallelism::hogwild(2));
        core_train_emit(ctx, Parallelism::hogwild);
    }
    fn reference(&self, ctx: &mut Ctx) {
        for _ in 0..2 {
            core_train_emit(ctx, |_| Parallelism::strict(1));
        }
    }
}

struct CoreEpisodicStrict;
impl Conformance for CoreEpisodicStrict {
    fn name(&self) -> &'static str {
        "core-episodic-strict"
    }
    fn tolerance(&self) -> Match {
        // End-to-end TransN under the episodic pipeline: Strict runs are
        // bit-identical to the single-episode reference at any episode
        // size and thread count.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        for (episode_walks, in_flight, threads) in [(3, 2, 2), (8, 2, 4)] {
            core_episodic_emit(ctx, episode_walks, in_flight, threads);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        for _ in 0..2 {
            // The default, serial: one episode per iteration.
            core_episodic_emit(ctx, 0, 2, 1);
        }
    }
}

fn core_episodic_emit(ctx: &mut Ctx, episode_walks: usize, in_flight: usize, threads: usize) {
    let net = fixture::two_type_net(8, 5, ctx.seed());
    let mut cfg = TransNConfig {
        dim: 8,
        iterations: 1,
        encoders: 1,
        cross_len: 4,
        cross_paths: 10,
        parallelism: Parallelism::strict(threads),
        episode: EpisodeConfig {
            episode_walks,
            episodes_in_flight: in_flight,
        },
        ..TransNConfig::default()
    }
    .with_seed(ctx.seed());
    cfg.walk.length = 10;
    cfg.walk.min_walks_per_node = 2;
    cfg.walk.max_walks_per_node = 4;
    cfg.walk.threads = threads;
    let emb = TransN::new(&net, cfg).train();
    for n in 0..emb.num_nodes() {
        let row = emb.get(transn_graph::NodeId(n as u32));
        check_finite("transn episodic embedding row", row).unwrap();
        ctx.emit_all(row);
    }
}

/// Two inputs: the two-view fixture for one iteration, and the four-view
/// AMiner-shaped fixture for two, whose pairs train in three cross-view
/// levels and whose views start their second iteration at different
/// release points. `par(views)` is the policy for a net with `views` views.
fn core_train_emit(ctx: &mut Ctx, par: impl Fn(usize) -> Parallelism) {
    let inputs = [
        (fixture::two_type_net(8, 5, ctx.seed()), 1),
        (fixture::four_view_net(10, 14, 3, ctx.seed()), 2),
    ];
    for (net, iterations) in inputs {
        let parallelism = par(net.schema().num_edge_types());
        let mut cfg = TransNConfig {
            dim: 8,
            iterations,
            encoders: 1,
            cross_len: 4,
            cross_paths: 10,
            parallelism,
            ..TransNConfig::default()
        }
        .with_seed(ctx.seed());
        cfg.walk.length = 10;
        cfg.walk.min_walks_per_node = 2;
        cfg.walk.max_walks_per_node = 4;
        cfg.walk.threads = parallelism.threads;
        let emb = TransN::new(&net, cfg).train();
        for n in 0..emb.num_nodes() {
            let row = emb.get(transn_graph::NodeId(n as u32));
            check_finite("transn embedding row", row).unwrap();
            ctx.emit_all(row);
        }
    }
}

// ───────────────── parallel preprocessing (ISSUE 8) ─────────────────

/// Thread counts the parallel-build cases sweep. `1` is included because
/// `strict(1)` must also reproduce the serial reference exactly.
const BUILD_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Shared random directed-arc fixture for the graph build cases.
fn build_arcs(ctx: &mut Ctx) -> (usize, Vec<(u32, u32, f32)>) {
    let n = 120usize;
    let m = ctx.scaled(700);
    let arcs = (0..m)
        .map(|_| {
            let src = ctx.rng().random_range(0..n as u32);
            let dst = ctx.rng().random_range(0..n as u32);
            let w = ctx.rng().random_range(0.1..2.0f32);
            (src, dst, w)
        })
        .collect();
    (n, arcs)
}

fn emit_csr(ctx: &mut Ctx, csr: &Csr) {
    for i in 0..csr.num_nodes() {
        ctx.emit_len(csr.degree(i));
        for &j in csr.neighbors(i) {
            ctx.emit(j as f32);
        }
        ctx.emit_all(csr.weights(i));
        ctx.emit(csr.weight_sum(i));
    }
}

struct CsrBuildThreads;
impl Conformance for CsrBuildThreads {
    fn name(&self) -> &'static str {
        "csr-build-threads"
    }
    fn tolerance(&self) -> Match {
        // The sharded counting build is defined to equal one stable sort
        // by `(src, dst)` for every thread count — no float reductions.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (n, arcs) = build_arcs(ctx);
        for t in BUILD_THREADS {
            let csr = Csr::from_directed_pairs_with(n, arcs.clone(), Parallelism::strict(t));
            emit_csr(ctx, &csr);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (n, arcs) = build_arcs(ctx);
        let csr = Csr::from_directed_pairs(n, arcs);
        for _ in BUILD_THREADS {
            emit_csr(ctx, &csr);
        }
    }
}

/// Shared random weight-row fixture for the alias batch case.
fn alias_rows(ctx: &mut Ctx) -> Vec<Vec<f32>> {
    (0..ctx.scaled(80))
        .map(|_| {
            let deg = ctx.rng().random_range(1..=16usize);
            (0..deg)
                .map(|_| ctx.rng().random_range(0.1..4.0f32))
                .collect()
        })
        .collect()
}

fn emit_alias(ctx: &mut Ctx, probs: &[f32], aliases: &[u32]) {
    ctx.emit_all(probs);
    for &a in aliases {
        ctx.emit(a as f32);
    }
}

struct AliasBuildThreads;
impl Conformance for AliasBuildThreads {
    fn name(&self) -> &'static str {
        "alias-build-threads"
    }
    fn tolerance(&self) -> Match {
        // Each table's construction is independent; sharding only changes
        // who builds it, never the arithmetic.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let rows = alias_rows(ctx);
        for t in BUILD_THREADS {
            let batch = build_batch_with(rows.len(), |i| &rows[i], Parallelism::strict(t));
            for table in &batch {
                emit_alias(ctx, table.probs(), table.aliases());
            }
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let rows = alias_rows(ctx);
        let serial: Vec<AliasTable> = rows.iter().map(|w| AliasTable::new(w)).collect();
        for _ in BUILD_THREADS {
            for table in &serial {
                emit_alias(ctx, table.probs(), table.aliases());
            }
        }
    }
}

/// Shared random unigram-frequency fixture for the noise build case.
fn noise_freqs(ctx: &mut Ctx) -> Vec<u64> {
    let mut freqs: Vec<u64> = (0..ctx.scaled(300))
        .map(|_| ctx.rng().random_range(0..50u64))
        .collect();
    // Guarantee a non-zero total (a rare all-zero draw would panic).
    freqs[0] = freqs[0].max(1);
    freqs
}

struct NoiseBuildThreads;
impl Conformance for NoiseBuildThreads {
    fn name(&self) -> &'static str {
        "noise-build-threads"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let freqs = noise_freqs(ctx);
        for t in BUILD_THREADS {
            let noise = NoiseTable::from_frequencies_with(&freqs, Parallelism::strict(t));
            emit_alias(
                ctx,
                noise.alias_table().probs(),
                noise.alias_table().aliases(),
            );
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let freqs = noise_freqs(ctx);
        let noise = NoiseTable::from_frequencies(&freqs);
        for _ in BUILD_THREADS {
            emit_alias(
                ctx,
                noise.alias_table().probs(),
                noise.alias_table().aliases(),
            );
        }
    }
}

// ───────────────────── batched logreg (ISSUE 8) ─────────────────────

/// Linearly-separable 3-class blobs in 6-d, shared by the logreg cases.
fn logreg_data(ctx: &mut Ctx) -> (Vec<Vec<f32>>, Vec<u32>) {
    let per = ctx.scaled(25);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for c in 0..3u32 {
        for _ in 0..per {
            let mut row = vec![0.0f32; 6];
            for (j, v) in row.iter_mut().enumerate() {
                let center = if j % 3 == c as usize { 2.0 } else { -1.0 };
                *v = center + ctx.rng().random_range(-0.5..0.5f32);
            }
            xs.push(row);
            ys.push(c);
        }
    }
    (xs, ys)
}

struct LogregGemmFit;
impl Conformance for LogregGemmFit {
    fn name(&self) -> &'static str {
        "logreg-gemm-fit"
    }
    fn tolerance(&self) -> Match {
        // Chunked GEMM gradients differ from the per-sample fold only in
        // float association; 40 Adam iterations stay within 1e-3 relative.
        Match::Rel(1e-3)
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (xs, ys) = logreg_data(ctx);
        let rows: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let cfg = LogRegConfig {
            iterations: 40,
            batch: 16,
            par: Parallelism::strict(4),
            seed: ctx.seed(),
            ..Default::default()
        };
        let model = LogisticRegression::fit(&rows, &ys, 3, &cfg);
        ctx.emit_all(model.weights());
        ctx.emit_all(model.biases());
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (xs, ys) = logreg_data(ctx);
        let rows: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let cfg = LogRegConfig {
            iterations: 40,
            batch: 16,
            seed: ctx.seed(),
            ..Default::default()
        };
        let model = LogisticRegression::fit_scalar(&rows, &ys, 3, &cfg);
        ctx.emit_all(model.weights());
        ctx.emit_all(model.biases());
    }
}

struct LogregBatchPredict;
impl Conformance for LogregBatchPredict {
    fn name(&self) -> &'static str {
        "logreg-batch-predict"
    }
    fn tolerance(&self) -> Match {
        // The batched GEMM eval is defined to be bit-identical to the
        // per-row predict paths.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (xs, ys) = logreg_data(ctx);
        let rows: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let cfg = LogRegConfig {
            iterations: 30,
            seed: ctx.seed(),
            ..Default::default()
        };
        let model = LogisticRegression::fit(&rows, &ys, 3, &cfg);
        for p in model.predict_batch(&rows) {
            ctx.emit(p as f32);
        }
        ctx.emit_all(&model.predict_proba_batch(&rows));
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (xs, ys) = logreg_data(ctx);
        let rows: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let cfg = LogRegConfig {
            iterations: 30,
            seed: ctx.seed(),
            ..Default::default()
        };
        let model = LogisticRegression::fit(&rows, &ys, 3, &cfg);
        for row in &rows {
            ctx.emit(model.predict(row) as f32);
        }
        for row in &rows {
            ctx.emit_all(&model.predict_proba(row));
        }
    }
}

// ───────────────── streaming deltas (ISSUE 10) ─────────────────

/// Deterministic streaming fixture shared by the stream cases: a small
/// two-type base network plus a few valid delta batches (node additions,
/// edge inserts including parallel duplicates, removals of live edges)
/// generated from the ctx rng via a mirror of the live state.
fn stream_fixture(ctx: &mut Ctx) -> (HetNet, Vec<DeltaBatch>) {
    let (users, items) = (8usize, 5usize);
    let net = fixture::two_type_net(users, items, ctx.seed());
    let mut user_ids: Vec<u32> = (0..users as u32).collect();
    let mut item_ids: Vec<u32> = (users as u32..(users + items) as u32).collect();
    let mut live: Vec<(u32, u32, u32)> = net
        .edges()
        .iter()
        .map(|e| (e.u.0, e.v.0, e.etype.0))
        .collect();
    let mut batches = Vec::new();
    for t in 0..2 + ctx.scaled(2) {
        let mut b = DeltaBatch::new(t as u64);
        // One new node per round, alternating type. The AddNode op comes
        // first, so later inserts in the same batch may reference it.
        let new_id = (users + items + t) as u32;
        if t % 2 == 0 {
            b.add_node(NodeTypeId(0));
            user_ids.push(new_id);
        } else {
            b.add_node(NodeTypeId(1));
            item_ids.push(new_id);
        }
        for _ in 0..ctx.scaled(6) {
            if ctx.rng().random_range(0..2) == 0 {
                let a = user_ids[ctx.rng().random_range(0..user_ids.len())];
                let c = user_ids[ctx.rng().random_range(0..user_ids.len())];
                if a == c {
                    continue; // no self-loops; skip this draw
                }
                let w = 1.0 + ctx.rng().random_range(0.0..1.0f32);
                b.add_edge(NodeId(a), NodeId(c), EdgeTypeId(0), w);
                live.push((a, c, 0));
            } else {
                let a = user_ids[ctx.rng().random_range(0..user_ids.len())];
                let i = item_ids[ctx.rng().random_range(0..item_ids.len())];
                let w = 1.0 + ctx.rng().random_range(0.0..1.0f32);
                b.add_edge(NodeId(a), NodeId(i), EdgeTypeId(1), w);
                live.push((a, i, 1));
            }
        }
        for _ in 0..ctx.scaled(2) {
            if live.len() <= 1 {
                break;
            }
            let k = ctx.rng().random_range(0..live.len());
            let (u, v, e) = live.swap_remove(k);
            b.remove_edge(NodeId(u), NodeId(v), EdgeTypeId(e));
        }
        batches.push(b);
    }
    (net, batches)
}

fn emit_net(ctx: &mut Ctx, net: &HetNet) {
    ctx.emit_len(net.num_nodes());
    ctx.emit_len(net.num_edges());
    for e in net.edges() {
        ctx.emit_bits(e.u.0);
        ctx.emit_bits(e.v.0);
        ctx.emit_bits(e.etype.0);
        ctx.emit_bits(e.weight.to_bits());
    }
    emit_csr(ctx, net.global_adj());
}

struct StreamCompactThreads;
impl Conformance for StreamCompactThreads {
    fn name(&self) -> &'static str {
        "stream-compact-threads"
    }
    fn tolerance(&self) -> Match {
        // Compaction routes the merged edge list through the sharded
        // counting build, which equals one stable sort by `(src, dst)` at
        // every thread count — identical to a from-scratch serial build.
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (net, batches) = stream_fixture(ctx);
        let mut ov = DeltaOverlay::new(net);
        for b in &batches {
            ov.apply(b).unwrap();
        }
        for t in BUILD_THREADS {
            let c = ov.compact(Parallelism::strict(t)).unwrap();
            emit_net(ctx, &c);
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (net, batches) = stream_fixture(ctx);
        let mut ov = DeltaOverlay::new(net.clone());
        for b in &batches {
            ov.apply(b).unwrap();
        }
        // From-scratch serial build over the canonical merged edge order.
        let mut b = HetNetBuilder::with_schema(net.schema().clone());
        for n in 0..ov.num_nodes() {
            b.add_node(ov.node_type(NodeId(n as u32)));
        }
        for e in ov.live_edges() {
            b.add_edge(e.u, e.v, e.etype, e.weight).unwrap();
        }
        let direct = b.build().unwrap();
        for _ in BUILD_THREADS {
            emit_net(ctx, &direct);
        }
    }
}

struct StreamOverlayMerge;
impl Conformance for StreamOverlayMerge {
    fn name(&self) -> &'static str {
        "stream-overlay-merge"
    }
    fn tolerance(&self) -> Match {
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (net, batches) = stream_fixture(ctx);
        let num_types = net.schema().num_edge_types();
        let mut ov = DeltaOverlay::new(net);
        for b in &batches {
            ov.apply(b).unwrap();
            ctx.emit_len(ov.num_live_edges());
            ctx.emit_len(ov.num_nodes());
            for t in 0..num_types {
                for e in ov.live_edges_of_type(EdgeTypeId(t as u32)) {
                    ctx.emit_bits(e.u.0);
                    ctx.emit_bits(e.v.0);
                    ctx.emit_bits(e.weight.to_bits());
                }
            }
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (net, batches) = stream_fixture(ctx);
        let num_types = net.schema().num_edge_types();
        // Naive reference: a flat edge vector applying overlay semantics
        // directly — inserts append, a removal deletes the most recently
        // inserted live match (the overlay's LIFO contract).
        let mut edges: Vec<(u32, u32, u32, u32)> = net
            .edges()
            .iter()
            .map(|e| (e.u.0, e.v.0, e.etype.0, e.weight.to_bits()))
            .collect();
        let mut nodes = net.num_nodes();
        for b in &batches {
            for op in &b.ops {
                match *op {
                    DeltaOp::AddNode { .. } => nodes += 1,
                    DeltaOp::AddEdge {
                        u,
                        v,
                        etype,
                        weight,
                    } => edges.push((u.0, v.0, etype.0, weight.to_bits())),
                    DeltaOp::RemoveEdge { u, v, etype } => {
                        let key = (u.0.min(v.0), u.0.max(v.0), etype.0);
                        let i = edges
                            .iter()
                            .rposition(|&(a, c, t, _)| (a.min(c), a.max(c), t) == key)
                            .expect("fixture removals target live edges");
                        edges.remove(i);
                    }
                }
            }
            ctx.emit_len(edges.len());
            ctx.emit_len(nodes);
            for t in 0..num_types {
                for &(u, v, _, w) in edges.iter().filter(|&&(_, _, et, _)| et == t as u32) {
                    ctx.emit_bits(u);
                    ctx.emit_bits(v);
                    ctx.emit_bits(w);
                }
            }
        }
    }
}

/// Shared setup for [`StreamRefreshEmpty`]: a trained embedding table over
/// the fixture network plus the config that produced it.
fn refresh_fixture(ctx: &mut Ctx) -> (HetNet, TransNConfig, transn_graph::NodeEmbeddings) {
    let net = fixture::two_type_net(6, 4, ctx.seed());
    let mut cfg = TransNConfig {
        dim: 8,
        iterations: 1,
        encoders: 1,
        cross_len: 4,
        cross_paths: 8,
        ..TransNConfig::default()
    }
    .with_seed(ctx.seed());
    cfg.walk.length = 8;
    cfg.walk.min_walks_per_node = 2;
    cfg.walk.max_walks_per_node = 3;
    let prev = TransN::new(&net, cfg).train();
    (net, cfg, prev)
}

struct StreamRefreshEmpty;
impl Conformance for StreamRefreshEmpty {
    fn name(&self) -> &'static str {
        "stream-refresh-empty"
    }
    fn tolerance(&self) -> Match {
        // Refresh with an empty dirty set must return the previous table
        // bitwise unchanged (DESIGN.md §16 no-op contract).
        Match::Bitwise
    }
    fn fast(&self, ctx: &mut Ctx) {
        let (net, cfg, prev) = refresh_fixture(ctx);
        let plan = RefreshPlan::from_batches(&[DeltaBatch::new(0)], net.schema().num_edge_types());
        let out = refresh(&net, &prev, &plan, &cfg);
        for n in 0..out.num_nodes() {
            ctx.emit_all(out.get(NodeId(n as u32)));
        }
    }
    fn reference(&self, ctx: &mut Ctx) {
        let (_, _, prev) = refresh_fixture(ctx);
        for n in 0..prev.num_nodes() {
            ctx.emit_all(prev.get(NodeId(n as u32)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::run_case;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|c| c.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate case names");
        assert!(total >= 15, "registry shrank to {total} cases");
    }

    #[test]
    fn every_case_passes_at_seed_zero_scale_zero() {
        for case in registry() {
            run_case(case.as_ref(), 0, 0)
                .unwrap_or_else(|m| panic!("case `{}` failed at seed 0 scale 0: {m}", case.name()));
        }
    }
}
