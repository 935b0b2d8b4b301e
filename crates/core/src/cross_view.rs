//! The cross-view algorithm (§III-B): translating the embeddings of common
//! nodes between the two views of a view-pair with dual-learning
//! translation (T1/T2) and reconstruction (R1/R2) tasks.

use crate::config::TransNConfig;
use crate::single_view::SingleView;
use transn_graph::{PairedSubview, ViewPair};
use transn_nn::workspace::{FfWsCache, TranslatorWsCache, Workspace};
use transn_nn::{AdamConfig, FeedForward, Matrix, Translator, TranslatorCache};
use transn_rng::Rng;
use transn_sgns::RacyTable;
use transn_walks::{CorrelatedWalker, WalkConfig};

/// A shared, dimension-aware view of one view's input embedding table.
///
/// Wraps the table in a [`RacyTable`] so one cross-view level can hand the
/// *same* view table to several view-pairs at once without locks. The
/// schedule only puts pairs that touch disjoint rows in one level, so no
/// two threads ever access the same slot; `gather_into`/`scatter` go
/// through relaxed atomic bit-cast loads/stores, which compile to plain
/// moves and are bit-identical to direct slice access.
pub struct EmbSlot<'a> {
    table: RacyTable<'a>,
    dim: usize,
}

impl<'a> EmbSlot<'a> {
    /// Wrap a flat row-major `n × dim` embedding table.
    ///
    /// # Panics
    /// Panics if the table length is not a multiple of `dim`.
    pub fn new(table: &'a mut [f32], dim: usize) -> Self {
        assert!(dim > 0 && table.len() % dim == 0, "table/dim mismatch");
        EmbSlot {
            table: RacyTable::new(table),
            dim,
        }
    }

    /// Copy the embeddings of `locals` into `out` (`locals.len() × dim`,
    /// fully overwritten). Allocation-free.
    pub fn gather_into(&self, locals: &[u32], out: &mut Matrix) {
        assert_eq!(
            (out.rows(), out.cols()),
            (locals.len(), self.dim),
            "gather buffer shape mismatch"
        );
        for (r, &l) in locals.iter().enumerate() {
            self.table
                .gather_into(l as usize * self.dim, out.row_mut(r));
        }
    }

    /// SGD row update: `emb[l] ← emb[l] + (−lr) · grad_row`, the same bits
    /// as `emb[l] − lr · grad_row`. Repeated nodes in a segment accumulate
    /// naturally. Allocation-free.
    pub fn scatter(&self, locals: &[u32], grad: &Matrix, lr: f32) {
        assert_eq!(
            (grad.rows(), grad.cols()),
            (locals.len(), self.dim),
            "scatter gradient shape mismatch"
        );
        for (r, &l) in locals.iter().enumerate() {
            self.table
                .add_scaled(l as usize * self.dim, -lr, grad.row(r));
        }
    }
}

/// A translator `T` or its Table-V ablation (`TransN-With-Simple-Translator`
/// replaces the encoder stack with a single feed-forward layer).
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // two long-lived values per view-pair
pub enum CrossModel {
    /// The full stack of `H` encoders (Eq. 10).
    Stack(Translator),
    /// A single feed-forward layer (ablation).
    SingleFf(FeedForward),
}

/// Forward cache matching [`CrossModel`] (convenience tier; the training
/// hot path uses workspace handles instead).
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // short-lived, one per inference call
pub enum CrossCache {
    /// Cache of the encoder stack.
    Stack(TranslatorCache),
    /// Cache of the single feed-forward layer.
    SingleFf(transn_nn::layers::FfCache),
}

/// Workspace cache handle matching [`CrossModel`].
#[derive(Clone, Copy, Debug)]
enum CrossWsCache {
    Stack(TranslatorWsCache),
    SingleFf(FfWsCache),
}

impl CrossModel {
    fn new(cfg: &TransNConfig, rng: &mut Rng) -> Self {
        if cfg.variant.uses_full_translator() {
            CrossModel::Stack(Translator::near_identity(cfg.encoders, cfg.cross_len, rng))
        } else {
            CrossModel::SingleFf(FeedForward::near_identity(cfg.cross_len, rng))
        }
    }

    /// Encoder-stack depth (1 for the single-feed-forward ablation); sizes
    /// the per-pair workspaces.
    fn depth(&self) -> usize {
        match self {
            CrossModel::Stack(t) => t.num_encoders(),
            CrossModel::SingleFf(_) => 1,
        }
    }

    /// Forward pass over an `L×d` matrix (convenience tier; allocates).
    pub fn forward(&self, a: &Matrix) -> (Matrix, CrossCache) {
        match self {
            CrossModel::Stack(t) => {
                let (out, cache) = t.forward(a);
                (out, CrossCache::Stack(cache))
            }
            CrossModel::SingleFf(ff) => {
                let (out, cache) = ff.forward(a);
                (out, CrossCache::SingleFf(cache))
            }
        }
    }

    /// Backward pass; accumulates parameter gradients and returns `∂L/∂A`.
    pub fn backward(&mut self, cache: &mut CrossCache, d_out: &Matrix) -> Matrix {
        match (self, cache) {
            (CrossModel::Stack(t), CrossCache::Stack(c)) => t.backward(c, d_out),
            (CrossModel::SingleFf(ff), CrossCache::SingleFf(c)) => ff.backward(c, d_out),
            _ => unreachable!("cache kind mismatch"),
        }
    }

    /// Workspace forward pass: activations cached in `ws`, output borrowed
    /// from the arena. Allocation-free once `ws` is sized.
    fn forward_ws<'w>(&self, a: &Matrix, ws: &'w mut Workspace) -> (&'w Matrix, CrossWsCache) {
        match self {
            CrossModel::Stack(t) => {
                let (out, cache) = t.forward_ws(a, ws);
                (out, CrossWsCache::Stack(cache))
            }
            CrossModel::SingleFf(ff) => {
                let (out, cache) = ff.forward_ws(a, ws);
                (out, CrossWsCache::SingleFf(cache))
            }
        }
    }

    /// Workspace backward pass; returns `∂L/∂A` borrowed from the arena.
    fn backward_ws<'w>(
        &mut self,
        cache: &CrossWsCache,
        d_out: &Matrix,
        ws: &'w mut Workspace,
    ) -> &'w Matrix {
        match (self, cache) {
            (CrossModel::Stack(t), CrossWsCache::Stack(c)) => t.backward_ws(c, d_out, ws),
            (CrossModel::SingleFf(ff), CrossWsCache::SingleFf(c)) => ff.backward_ws(c, d_out, ws),
            _ => unreachable!("cache kind mismatch"),
        }
    }

    /// Adam step over all parameters, clearing gradients.
    pub fn step(&mut self, cfg: &AdamConfig) {
        match self {
            CrossModel::Stack(t) => t.step_adam(cfg),
            CrossModel::SingleFf(ff) => {
                ff.w.step_adam(cfg);
                ff.b.step_adam(cfg);
            }
        }
    }
}

/// All scratch storage one [`CrossPair`] needs to train a segment without
/// heap allocation: one workspace per translator direction (the forward
/// stack's caches must survive the backward stack's forward/backward in
/// between) plus the `L×d` gather/gradient staging buffers.
#[derive(Debug)]
struct CrossWorkspace {
    /// Arena for whichever translator runs the T1/T2 (forward) direction.
    ws_fwd: Workspace,
    /// Arena for the reconstruction (backward) direction.
    ws_bwd: Workspace,
    /// Gathered source embeddings `A`.
    a: Matrix,
    /// Gathered target embeddings.
    target: Matrix,
    /// Accumulated gradient w.r.t. the translated matrix `X₁`.
    d_x1: Matrix,
    /// Accumulated gradient w.r.t. the source embeddings `A`.
    d_a: Matrix,
    /// Loss gradient w.r.t. its first operand.
    d_lx: Matrix,
    /// Loss gradient w.r.t. its second operand.
    d_lt: Matrix,
}

impl CrossWorkspace {
    fn new(depth: usize, len: usize, dim: usize) -> Self {
        CrossWorkspace {
            ws_fwd: Workspace::new(depth, len, dim),
            ws_bwd: Workspace::new(depth, len, dim),
            a: Matrix::zeros(len, dim),
            target: Matrix::zeros(len, dim),
            d_x1: Matrix::zeros(len, dim),
            d_a: Matrix::zeros(len, dim),
            d_lx: Matrix::zeros(len, dim),
            d_lt: Matrix::zeros(len, dim),
        }
    }
}

/// A training segment: a run of exactly `cross_len` common nodes from a
/// filtered path, resolved to local indices in both views.
#[derive(Clone, Debug)]
struct Segment {
    /// Local indices in the *source* view of the direction being trained.
    src: Vec<u32>,
    /// Local indices in the *target* view.
    dst: Vec<u32>,
}

/// All state attached to one view-pair `η_{i,j}`: the paired-subviews, the
/// two translators, and index maps from subview-local common nodes to each
/// view's local ids.
#[derive(Debug)]
pub struct CrossPair {
    /// Index of view `φ_i` in the trainer's view list.
    pub i: usize,
    /// Index of view `φ_j`.
    pub j: usize,
    sub_i: PairedSubview,
    sub_j: PairedSubview,
    t_ij: CrossModel,
    t_ji: CrossModel,
    /// Pre-sized scratch for allocation-free segment training.
    scratch: CrossWorkspace,
    /// For subview `φ'_i`, per sub-local node: `(view_i local, view_j
    /// local)` when the node is common, sentinel otherwise.
    map_i: Vec<(u32, u32)>,
    /// Same for subview `φ'_j` (still ordered `(view_i local, view_j
    /// local)`).
    map_j: Vec<(u32, u32)>,
    /// Sub-local ids of common nodes (walk start points).
    starts_i: Vec<u32>,
    starts_j: Vec<u32>,
    /// Segments the last iteration trained, `[i→j, j→i]`.
    last_segments: [usize; 2],
}

const NONE: u32 = u32::MAX;

impl CrossPair {
    /// Build the cross-view state for a view-pair.
    pub fn new(pair: &ViewPair<'_>, i: usize, j: usize, cfg: &TransNConfig) -> Self {
        let (sub_i, sub_j) = PairedSubview::from_pair(pair);
        let mut rng =
            Rng::seed_from_u64(cfg.seed ^ ((i as u64) << 40) ^ ((j as u64) << 20) ^ 0xC0FFEE);
        let t_ij = CrossModel::new(cfg, &mut rng);
        let t_ji = CrossModel::new(cfg, &mut rng);

        let build_map = |sub: &PairedSubview| -> (Vec<(u32, u32)>, Vec<u32>) {
            let mut map = Vec::with_capacity(sub.view().num_nodes());
            let mut starts = Vec::new();
            for l in 0..sub.view().num_nodes() as u32 {
                if sub.is_common(l) {
                    let g = sub.view().global(l);
                    let vi = pair.vi.local(g).expect("common node in view i");
                    let vj = pair.vj.local(g).expect("common node in view j");
                    map.push((vi, vj));
                    starts.push(l);
                } else {
                    map.push((NONE, NONE));
                }
            }
            (map, starts)
        };
        let (map_i, starts_i) = build_map(&sub_i);
        let (map_j, starts_j) = build_map(&sub_j);
        let scratch = CrossWorkspace::new(t_ij.depth(), cfg.cross_len, cfg.dim);

        CrossPair {
            i,
            j,
            sub_i,
            sub_j,
            t_ij,
            t_ji,
            scratch,
            map_i,
            map_j,
            starts_i,
            starts_j,
            last_segments: [0; 2],
        }
    }

    /// Number of common nodes between the pair's views.
    pub fn num_common(&self) -> usize {
        self.starts_i.len()
    }

    /// Segments the last [`CrossPair::train_iteration_slots`] call trained,
    /// `[i→j, j→i]` (paths from `φ'_i`, paths from `φ'_j`).
    pub fn last_segments(&self) -> [usize; 2] {
        self.last_segments
    }

    /// One iteration of the cross-view algorithm for this pair
    /// (Algorithm 1 lines 8–12), taking the two views directly. Convenience
    /// wrapper over [`CrossPair::train_iteration_slots`].
    pub fn train_iteration(
        &mut self,
        view_i: &mut SingleView,
        view_j: &mut SingleView,
        cfg: &TransNConfig,
        iteration: usize,
    ) -> f32 {
        let emb_i = EmbSlot::new(view_i.model.input_table_mut(), cfg.dim);
        let emb_j = EmbSlot::new(view_j.model.input_table_mut(), cfg.dim);
        self.train_iteration_slots(&emb_i, &emb_j, cfg, iteration)
    }

    /// One iteration of the cross-view algorithm for this pair
    /// (Algorithm 1 lines 8–12), against shared embedding-table views —
    /// the entry point the trainer's cross-view levels use, since pairs of
    /// one level share view tables (on disjoint rows). Returns the mean
    /// segment loss, or 0 when the pair yields no trainable segments;
    /// [`CrossPair::last_segments`] reports how many segments trained.
    ///
    /// After the first call everything past walk sampling — gather,
    /// translator forward/backward, loss, scatter, Adam — is
    /// allocation-free (see `crates/bench/tests/alloc_free.rs`).
    pub fn train_iteration_slots(
        &mut self,
        emb_i: &EmbSlot<'_>,
        emb_j: &EmbSlot<'_>,
        cfg: &TransNConfig,
        iteration: usize,
    ) -> f32 {
        let mut rng = Rng::seed_from_u64(
            cfg.seed ^ ((self.i as u64) << 48) ^ ((self.j as u64) << 32) ^ (iteration as u64),
        );
        let walk_cfg = WalkConfig {
            seed: rng.random(),
            ..cfg.walk
        };
        let want = cfg.cross_paths;
        let segs_i = sample_segments(
            &self.sub_i,
            &self.map_i,
            &self.starts_i,
            &walk_cfg,
            cfg,
            want,
            &mut rng,
            false,
        );
        let segs_j = sample_segments(
            &self.sub_j,
            &self.map_j,
            &self.starts_j,
            &walk_cfg,
            cfg,
            want,
            &mut rng,
            true,
        );
        self.last_segments = [segs_i.len(), segs_j.len()];

        let adam = AdamConfig {
            lr: cfg.lr_cross,
            weight_decay: cfg.weight_decay,
            ..AdamConfig::default()
        };
        let mut total = 0.0f64;
        let mut count = 0usize;
        for seg in &segs_i {
            total += self.train_segment(seg, true, emb_i, emb_j, cfg, &adam) as f64;
            count += 1;
        }
        for seg in &segs_j {
            total += self.train_segment(seg, false, emb_j, emb_i, cfg, &adam) as f64;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            (total / count as f64) as f32
        }
    }

    /// Train one segment in one direction, entirely inside the pair's
    /// scratch workspace.
    ///
    /// `forward_is_ij = true` trains tasks T1 + R1 on a path from `φ'_i`
    /// (`src_emb` = view i's table, translator `t_ij` forward, `t_ji`
    /// back); `false` trains T2 + R2 symmetrically.
    fn train_segment(
        &mut self,
        seg: &Segment,
        forward_is_ij: bool,
        src_emb: &EmbSlot<'_>,
        dst_emb: &EmbSlot<'_>,
        cfg: &TransNConfig,
        adam: &AdamConfig,
    ) -> f32 {
        let CrossPair {
            t_ij,
            t_ji,
            scratch: cw,
            ..
        } = self;
        src_emb.gather_into(&seg.src, &mut cw.a);
        dst_emb.gather_into(&seg.dst, &mut cw.target);

        let (fwd, bwd) = if forward_is_ij {
            (&mut *t_ij, &mut *t_ji)
        } else {
            (&mut *t_ji, &mut *t_ij)
        };

        let (x1, c1) = fwd.forward_ws(&cw.a, &mut cw.ws_fwd);
        cw.d_x1.fill_zero();
        cw.d_a.fill_zero();
        let mut loss = 0.0f32;

        // Translation task (Eq. 11/12): T(A) should match the target
        // view's embeddings of the same nodes.
        if cfg.variant.uses_translation_tasks() {
            loss += cfg
                .loss
                .eval_into(x1, &cw.target, &mut cw.d_lx, &mut cw.d_lt);
            cw.d_x1.add_assign(&cw.d_lx);
            dst_emb.scatter(&seg.dst, &cw.d_lt, cfg.lr_cross_emb);
        }

        // Reconstruction task (Eq. 13/14): translating back must recover A.
        if cfg.variant.uses_reconstruction_tasks() {
            let (x2, c2) = bwd.forward_ws(x1, &mut cw.ws_bwd);
            loss += cfg.loss.eval_into(x2, &cw.a, &mut cw.d_lx, &mut cw.d_lt);
            let d_back = bwd.backward_ws(&c2, &cw.d_lx, &mut cw.ws_bwd);
            cw.d_x1.add_assign(d_back);
            cw.d_a.add_assign(&cw.d_lt);
        }

        let d_from_fwd = fwd.backward_ws(&c1, &cw.d_x1, &mut cw.ws_fwd);
        cw.d_a.add_assign(d_from_fwd);
        src_emb.scatter(&seg.src, &cw.d_a, cfg.lr_cross_emb);

        fwd.step(adam);
        bwd.step(adam);
        loss
    }
}

/// Sample walks on a paired-subview, filter them to common nodes
/// (§III-B1), and chunk the result into segments of exactly
/// `cfg.cross_len`, resolved to `(src, dst)` view-local index lists.
#[allow(clippy::too_many_arguments)]
fn sample_segments(
    sub: &PairedSubview,
    map: &[(u32, u32)],
    starts: &[u32],
    walk_cfg: &WalkConfig,
    cfg: &TransNConfig,
    want: usize,
    rng: &mut Rng,
    // When the subview belongs to φ'_j the *source* view is j, i.e. the
    // second entry of the map.
    src_is_second: bool,
) -> Vec<Segment> {
    let mut segments = Vec::new();
    if starts.is_empty() {
        return segments;
    }
    let walker = CorrelatedWalker::new(sub.view(), *walk_cfg);
    let max_walks = want * 3;
    let mut walks_done = 0usize;
    while segments.len() < want && walks_done < max_walks {
        let start = starts[rng.random_range(0..starts.len())];
        let walk = walker.walk_from(start, rng);
        walks_done += 1;
        let common = sub.filter_to_common(&walk);
        for chunk in common.chunks_exact(cfg.cross_len) {
            let mut src = Vec::with_capacity(cfg.cross_len);
            let mut dst = Vec::with_capacity(cfg.cross_len);
            for &l in chunk {
                let (vi, vj) = map[l as usize];
                debug_assert!(vi != NONE && vj != NONE);
                if src_is_second {
                    src.push(vj);
                    dst.push(vi);
                } else {
                    src.push(vi);
                    dst.push(vj);
                }
            }
            segments.push(Segment { src, dst });
            if segments.len() >= want {
                break;
            }
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::Variant;
    use transn_graph::{HetNet, HetNetBuilder, NodeId};
    use transn_sgns::SgnsModel;

    /// Copy the embeddings of `locals` into an `L×d` matrix.
    fn gather(model: &SgnsModel, locals: &[u32], dim: usize) -> Matrix {
        let mut m = Matrix::zeros(locals.len(), dim);
        for (r, &l) in locals.iter().enumerate() {
            m.row_mut(r).copy_from_slice(model.embedding(l));
        }
        m
    }

    /// Two views over a shared set of "user" nodes: a friendship homo-view
    /// and a user–keyword heter-view, with correlated cluster structure.
    fn two_view_net() -> HetNet {
        let mut b = HetNetBuilder::new();
        let user = b.add_node_type("user");
        let kw = b.add_node_type("keyword");
        let uu = b.add_edge_type("friend", user, user);
        let uk = b.add_edge_type("uses", user, kw);
        let users: Vec<_> = (0..8).map(|_| b.add_node(user)).collect();
        let kws: Vec<_> = (0..4).map(|_| b.add_node(kw)).collect();
        // Two friend cliques: users 0–3, users 4–7.
        for c in 0..2 {
            for x in 0..4 {
                for y in (x + 1)..4 {
                    b.add_edge(users[c * 4 + x], users[c * 4 + y], uu, 1.0)
                        .unwrap();
                }
            }
        }
        // Bridge to keep things connected.
        b.add_edge(users[3], users[4], uu, 1.0).unwrap();
        // Cluster 1 uses keywords 0–1, cluster 2 uses keywords 2–3.
        for c in 0..2usize {
            for x in 0..4 {
                b.add_edge(users[c * 4 + x], kws[c * 2], uk, 2.0).unwrap();
                b.add_edge(users[c * 4 + x], kws[c * 2 + 1], uk, 1.0)
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    fn build_pair(net: &HetNet, cfg: &TransNConfig) -> (SingleView, SingleView, CrossPair) {
        let views = net.views();
        let pairs = net.view_pairs(&views);
        assert_eq!(pairs.len(), 1);
        let cp = CrossPair::new(&pairs[0], 0, 1, cfg);
        let sv0 = SingleView::new(views[0].clone(), cfg, 0);
        let sv1 = SingleView::new(views[1].clone(), cfg, 1);
        (sv0, sv1, cp)
    }

    #[test]
    fn common_nodes_are_the_users() {
        let net = two_view_net();
        let cfg = TransNConfig::for_tests();
        let (_, _, cp) = build_pair(&net, &cfg);
        assert_eq!(cp.num_common(), 8);
    }

    #[test]
    fn training_produces_finite_loss_and_updates_embeddings() {
        let net = two_view_net();
        let mut cfg = TransNConfig::for_tests();
        cfg.cross_len = 4;
        cfg.cross_paths = 30;
        let (mut sv0, mut sv1, mut cp) = build_pair(&net, &cfg);
        // Pre-train single views a little so embeddings are meaningful.
        for it in 0..2 {
            sv0.train_iteration(&cfg, it);
            sv1.train_iteration(&cfg, it);
        }
        let before0 = sv0.model.input_table().to_vec();
        let loss = cp.train_iteration(&mut sv0, &mut sv1, &cfg, 0);
        assert!(loss.is_finite(), "loss {loss}");
        assert!(
            cp.last_segments().iter().all(|&n| n > 0),
            "{:?}",
            cp.last_segments()
        );
        assert_ne!(
            sv0.model.input_table(),
            &before0[..],
            "cross-view must update view-specific embeddings"
        );
    }

    #[test]
    fn cross_training_reduces_cross_loss() {
        let net = two_view_net();
        let mut cfg = TransNConfig::for_tests();
        cfg.cross_len = 4;
        cfg.cross_paths = 40;
        cfg.lr_cross = 0.02;
        let (mut sv0, mut sv1, mut cp) = build_pair(&net, &cfg);
        for it in 0..2 {
            sv0.train_iteration(&cfg, it);
            sv1.train_iteration(&cfg, it);
        }
        let first = cp.train_iteration(&mut sv0, &mut sv1, &cfg, 0);
        let mut last = first;
        for it in 1..8 {
            last = cp.train_iteration(&mut sv0, &mut sv1, &cfg, it);
        }
        assert!(last < first, "cross loss should fall: {first} -> {last}");
    }

    #[test]
    fn translation_aligns_views() {
        // After joint training, translating a user's view-0 embedding into
        // view 1 should be closer (cosine) to that user's own view-1
        // embedding than to a random other user's, on average.
        let net = two_view_net();
        let mut cfg = TransNConfig::for_tests();
        cfg.cross_len = 4;
        cfg.cross_paths = 60;
        cfg.dim = 12;
        let (mut sv0, mut sv1, mut cp) = build_pair(&net, &cfg);
        for it in 0..10 {
            sv0.train_iteration(&cfg, it);
            sv1.train_iteration(&cfg, it);
            cp.train_iteration(&mut sv0, &mut sv1, &cfg, it);
        }
        // Build one segment of 4 distinct users and translate it.
        let users: Vec<u32> = (0..4u32).collect();
        let v0 = &sv0.view;
        let v1 = &sv1.view;
        let src: Vec<u32> = users
            .iter()
            .map(|&u| v0.local(NodeId(u)).unwrap())
            .collect();
        let dst: Vec<u32> = users
            .iter()
            .map(|&u| v1.local(NodeId(u)).unwrap())
            .collect();
        let a = gather(&sv0.model, &src, cfg.dim);
        let translated = cp.t_ij.forward(&a).0;
        let target = gather(&sv1.model, &dst, cfg.dim);

        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-9)
        };
        let mut own = 0.0;
        for r in 0..4 {
            own += cos(translated.row(r), target.row(r));
        }
        own /= 4.0;
        assert!(own.is_finite());
        // Weak but meaningful check: alignment above zero on average.
        assert!(own > 0.0, "mean translated-vs-own cosine {own}");
    }

    #[test]
    fn ablation_variants_train_without_panicking() {
        let net = two_view_net();
        for variant in [
            Variant::SimpleTranslator,
            Variant::WithoutTranslationTasks,
            Variant::WithoutReconstructionTasks,
        ] {
            let mut cfg = TransNConfig::for_tests();
            cfg.variant = variant;
            cfg.cross_len = 4;
            cfg.cross_paths = 10;
            let (mut sv0, mut sv1, mut cp) = build_pair(&net, &cfg);
            let loss = cp.train_iteration(&mut sv0, &mut sv1, &cfg, 0);
            assert!(loss.is_finite(), "{variant:?}: {loss}");
        }
    }

    #[test]
    fn pair_with_too_few_common_occurrences_yields_zero_loss() {
        // One shared node only, and a cross_len longer than the number of
        // times a test-length walk can revisit it: no segment can form.
        let mut b = HetNetBuilder::new();
        let t = b.add_node_type("t");
        let s = b.add_node_type("s");
        let e1 = b.add_edge_type("tt", t, t);
        let e2 = b.add_edge_type("ts", t, s);
        let c = b.add_node(t);
        let x = b.add_node(t);
        let y = b.add_node(s);
        b.add_edge(c, x, e1, 1.0).unwrap();
        b.add_edge(c, y, e2, 1.0).unwrap();
        let net = b.build().unwrap();
        let views = net.views();
        let pairs = net.view_pairs(&views);
        let mut cfg = TransNConfig::for_tests();
        // Walk length 12 alternating c-x-c-x… yields at most 6 common
        // occurrences; demand 8 so no chunk fills.
        cfg.cross_len = 8;
        let mut cp = CrossPair::new(&pairs[0], 0, 1, &cfg);
        let mut sv0 = SingleView::new(views[0].clone(), &cfg, 0);
        let mut sv1 = SingleView::new(views[1].clone(), &cfg, 1);
        let loss = cp.train_iteration(&mut sv0, &mut sv1, &cfg, 0);
        assert_eq!(loss, 0.0);
        assert_eq!(cp.last_segments(), [0, 0]);
    }
}
