//! The TransN training loop — Algorithm 1 of the paper.

use crate::config::TransNConfig;
use crate::cross_view::CrossPair;
use crate::fusion::fuse;
use crate::schedule::Schedule;
use crate::single_view::SingleView;
use transn_graph::{HetNet, NodeEmbeddings};

/// Per-iteration loss traces, for monitoring and tests.
#[derive(Clone, Debug, Default)]
pub struct TrainStats {
    /// `single_losses[iter][view]`: mean skip-gram loss.
    pub single_losses: Vec<Vec<f32>>,
    /// `cross_losses[iter][pair]`: mean translation+reconstruction loss.
    pub cross_losses: Vec<Vec<f32>>,
    /// `cross_segments[iter][pair]`: segments trained `[i→j, j→i]`. A
    /// direction that stays at 0 never trains its translation task.
    pub cross_segments: Vec<Vec<[usize; 2]>>,
    /// Highest resident walk-corpus bytes held by any single view over the
    /// whole run — the episodic bounded-memory metric (DESIGN.md §13).
    /// Under the pipeline this stays at ~`episodes_in_flight` episode
    /// arenas per view no matter how large the walk corpus is.
    pub peak_corpus_bytes: usize,
}

/// The TransN trainer: owns the views, their embedding models, the
/// per-view-pair translators, and the schedule that orders them.
///
/// Construction separates the network into views (Definition 2), pairs up
/// views sharing nodes (Definition 3), and reduces each pair to its
/// paired-subviews (Definition 5). [`TransN::train`] then runs Algorithm 1:
/// per iteration, one single-view iteration per view (lines 3–7) and one
/// cross-view iteration per view-pair (lines 8–12), finishing with
/// view-average fusion (lines 13–14). Pairs writing disjoint rows train
/// together and a view starts its next iteration once its last pair is
/// done, with the serial loop's bits at any thread count (DESIGN.md §8).
pub struct TransN<'a> {
    net: &'a HetNet,
    cfg: TransNConfig,
    views: Vec<SingleView>,
    pairs: Vec<CrossPair>,
    schedule: Schedule,
}

/// Views, the view-pairs `keep(i, j)` accepts (none when the variant has
/// no cross-view step), and their schedule.
pub(crate) fn setup(
    net: &HetNet,
    cfg: &TransNConfig,
    keep: impl Fn(usize, usize) -> bool,
) -> (Vec<SingleView>, Vec<CrossPair>, Schedule) {
    let raw_views = net.views();
    let mut view_pairs = net.view_pairs(&raw_views);
    view_pairs.retain(|p| {
        cfg.variant.uses_cross_view() && keep(p.vi.etype().index(), p.vj.etype().index())
    });
    let pairs = view_pairs
        .iter()
        .map(|p| CrossPair::new(p, p.vi.etype().index(), p.vj.etype().index(), cfg))
        .collect();
    let schedule = Schedule::new(&view_pairs, raw_views.len());
    let views = raw_views
        .into_iter()
        .enumerate()
        .map(|(i, v)| SingleView::new(v, cfg, i))
        .collect();
    (views, pairs, schedule)
}

impl<'a> TransN<'a> {
    /// Set up views, view-pairs, models, translators, and their schedule.
    ///
    /// # Panics
    /// Panics if the configuration is invalid
    /// (see [`TransNConfig::validate`]).
    pub fn new(net: &'a HetNet, cfg: TransNConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid TransN configuration: {e}");
        }
        let (views, pairs, schedule) = setup(net, &cfg, |_, _| true);
        TransN {
            net,
            cfg,
            views,
            pairs,
            schedule,
        }
    }

    /// Number of (possibly empty) views, `z = |C_E|`.
    pub fn num_views(&self) -> usize {
        self.views.len()
    }

    /// Number of view-pairs, `z'`.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The `(i, j)` view (= edge-type) indices of every view-pair, in the
    /// order of [`TrainStats`]' per-pair traces.
    pub fn pair_views(&self) -> Vec<(usize, usize)> {
        self.pairs.iter().map(|p| (p.i, p.j)).collect()
    }

    /// The configuration in use.
    pub fn config(&self) -> &TransNConfig {
        &self.cfg
    }

    /// Run Algorithm 1 and return the fused embeddings.
    ///
    /// With `cfg.episode.episode_walks > 0` each single-view iteration
    /// streams its walk epoch through the double-buffered episodic pipeline
    /// (DESIGN.md §13): the view trains episode `N` while a producer thread
    /// generates episode `N + 1`, so resident corpus memory stays at
    /// ~`episodes_in_flight` episode arenas per view instead of the full
    /// corpus. The cross-view step stays per-iteration — it samples paths
    /// from the *network* (not the walk corpus), so episodes don't apply.
    ///
    /// Each view trains on its own thread, and `cfg.parallelism.threads`
    /// is split evenly across the views, at least one SGNS worker each
    /// (`threads / views`, the remainder to the lowest-indexed views). A
    /// view with one worker updates its rows in place in corpus order, so
    /// at `threads ≤ views` Hogwild training is reproducible and equals
    /// Strict bit for bit. Each cross-view level uses all `threads`;
    /// `Determinism` governs only SGNS.
    pub fn train(self) -> NodeEmbeddings {
        self.train_with_stats().0
    }

    /// Run Algorithm 1, also returning per-iteration loss traces, segment
    /// counts and the peak resident corpus footprint.
    pub fn train_with_stats(mut self) -> (NodeEmbeddings, TrainStats) {
        let train = vec![true; self.views.len()];
        let mut stats = self
            .schedule
            .run(&mut self.views, &mut self.pairs, &train, &self.cfg);
        stats.peak_corpus_bytes = self
            .views
            .iter()
            .map(SingleView::peak_corpus_bytes)
            .max()
            .unwrap_or(0);
        let emb = fuse(self.net, &self.views, self.cfg.dim);
        (emb, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::Variant;
    use transn_graph::{HetNetBuilder, NodeId};

    /// Two-cluster network with three edge types (friend UU, uses UK,
    /// related KK), BLOG-shaped.
    fn blog_like_toy() -> transn_graph::HetNet {
        let mut b = HetNetBuilder::new();
        let user = b.add_node_type("user");
        let kw = b.add_node_type("keyword");
        let uu = b.add_edge_type("friend", user, user);
        let uk = b.add_edge_type("uses", user, kw);
        let kk = b.add_edge_type("related", kw, kw);
        let users: Vec<_> = (0..10).map(|_| b.add_node(user)).collect();
        let kws: Vec<_> = (0..6).map(|_| b.add_node(kw)).collect();
        for c in 0..2 {
            let base = c * 5;
            for x in 0..5 {
                for y in (x + 1)..5 {
                    if (x + y) % 2 == 0 {
                        b.add_edge(users[base + x], users[base + y], uu, 1.0)
                            .unwrap();
                    }
                }
                for k in 0..3 {
                    b.add_edge(users[base + x], kws[c * 3 + k], uk, 1.0 + k as f32)
                        .unwrap();
                }
            }
        }
        b.add_edge(users[4], users[5], uu, 1.0).unwrap();
        b.add_edge(kws[0], kws[1], kk, 1.0).unwrap();
        b.add_edge(kws[2], kws[3], kk, 1.0).unwrap();
        b.add_edge(kws[4], kws[5], kk, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn setup_counts_views_and_pairs() {
        let net = blog_like_toy();
        let t = TransN::new(&net, TransNConfig::for_tests());
        assert_eq!(t.num_views(), 3);
        // friend∩uses share users; uses∩related share keywords;
        // friend∩related share nothing.
        assert_eq!(t.num_pairs(), 2);
    }

    #[test]
    fn training_returns_full_embedding_table() {
        let net = blog_like_toy();
        let emb = TransN::new(&net, TransNConfig::for_tests()).train();
        assert_eq!(emb.num_nodes(), net.num_nodes());
        assert_eq!(emb.dim(), TransNConfig::for_tests().dim);
        // Every node participates in some view → non-zero embedding.
        for n in net.nodes() {
            let norm: f32 = emb.get(n).iter().map(|x| x * x).sum();
            assert!(norm > 0.0, "node {n} has a zero embedding");
        }
    }

    #[test]
    fn stats_have_expected_shape() {
        let net = blog_like_toy();
        let cfg = TransNConfig::for_tests();
        let (_, stats) = TransN::new(&net, cfg).train_with_stats();
        assert_eq!(stats.single_losses.len(), cfg.iterations);
        assert_eq!(stats.cross_losses.len(), cfg.iterations);
        assert_eq!(stats.single_losses[0].len(), 3);
        assert_eq!(stats.cross_losses[0].len(), 2);
        assert_eq!(stats.cross_segments.len(), cfg.iterations);
        assert_eq!(stats.cross_segments[0].len(), 2);
        for row in &stats.single_losses {
            for &l in row {
                assert!(l.is_finite());
            }
        }
    }

    #[test]
    fn without_cross_view_skips_pairs() {
        let net = blog_like_toy();
        let cfg = TransNConfig::for_tests().with_variant(Variant::WithoutCrossView);
        let t = TransN::new(&net, cfg);
        assert_eq!(t.num_pairs(), 0);
        let (_, stats) = t.train_with_stats();
        assert!(stats.cross_losses.iter().all(Vec::is_empty));
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let net = blog_like_toy();
        let cfg = TransNConfig::for_tests();
        let a = TransN::new(&net, cfg).train();
        let b = TransN::new(&net, cfg).train();
        assert_eq!(a, b);
    }

    #[test]
    fn strict_training_is_bit_identical_across_thread_counts() {
        use transn_sgns::Parallelism;
        let net = blog_like_toy();
        let run = |par: Parallelism| {
            let mut cfg = TransNConfig::for_tests();
            cfg.parallelism = par;
            TransN::new(&net, cfg).train()
        };
        let base = run(Parallelism::strict(1));
        for threads in [2usize, 4, 8] {
            assert_eq!(
                run(Parallelism::strict(threads)),
                base,
                "Strict must give identical embeddings at threads={threads}"
            );
        }
        // One Hogwild worker runs the same sequential schedule.
        assert_eq!(run(Parallelism::hogwild(1)), base);
    }

    #[test]
    fn hogwild_multithreaded_cross_view_trains_sane_embeddings() {
        use transn_sgns::Parallelism;
        let net = blog_like_toy();
        let mut cfg = TransNConfig::for_tests();
        cfg.parallelism = Parallelism::hogwild(4);
        let (emb, stats) = TransN::new(&net, cfg).train_with_stats();
        assert_eq!(emb.num_nodes(), net.num_nodes());
        for n in net.nodes() {
            for v in emb.get(n) {
                assert!(v.is_finite(), "node {n} has a non-finite embedding");
            }
        }
        for row in &stats.cross_losses {
            assert_eq!(row.len(), 2, "both pairs must report a loss");
            for &l in row {
                assert!(l.is_finite());
            }
        }
    }

    #[test]
    fn episodic_strict_is_invariant_to_episode_size_and_threads() {
        use transn_sgns::Parallelism;
        let net = blog_like_toy();
        let run = |episode_walks: usize, in_flight: usize, threads: usize| {
            let mut cfg = TransNConfig::for_tests();
            cfg.episode.episode_walks = episode_walks;
            cfg.episode.episodes_in_flight = in_flight;
            cfg.parallelism = Parallelism::strict(threads);
            TransN::new(&net, cfg).train()
        };
        // The default: one episode per iteration, every walk resident.
        let reference = run(0, 2, 1);
        for (episode_walks, in_flight, threads) in [(1, 1, 1), (3, 2, 2), (8, 2, 4), (16, 3, 8)] {
            assert_eq!(
                run(episode_walks, in_flight, threads),
                reference,
                "episode_walks={episode_walks} in_flight={in_flight} threads={threads}"
            );
        }
    }

    #[test]
    fn episodic_hogwild_trains_sane_embeddings_and_reports_peak_memory() {
        use transn_sgns::Parallelism;
        let net = blog_like_toy();
        let mut cfg = TransNConfig::for_tests();
        cfg.episode.episode_walks = 4;
        cfg.episode.episodes_in_flight = 2;
        cfg.parallelism = Parallelism::hogwild(4);
        let (emb, stats) = TransN::new(&net, cfg).train_with_stats();
        assert_eq!(emb.num_nodes(), net.num_nodes());
        for n in net.nodes() {
            let norm: f32 = emb.get(n).iter().map(|x| x * x).sum();
            assert!(norm > 0.0, "node {n} has a zero embedding");
        }
        assert!(stats.peak_corpus_bytes > 0);
        for row in &stats.single_losses {
            for &l in row {
                assert!(l.is_finite());
            }
        }
    }

    #[test]
    fn monolithic_stats_report_corpus_footprint() {
        let net = blog_like_toy();
        let (_, stats) = TransN::new(&net, TransNConfig::for_tests()).train_with_stats();
        assert!(stats.peak_corpus_bytes > 0);
    }

    #[test]
    fn different_seeds_give_different_embeddings() {
        let net = blog_like_toy();
        let a = TransN::new(&net, TransNConfig::for_tests().with_seed(1)).train();
        let b = TransN::new(&net, TransNConfig::for_tests().with_seed(2)).train();
        assert_ne!(a, b);
    }

    #[test]
    fn cluster_structure_survives_fusion() {
        let net = blog_like_toy();
        let mut cfg = TransNConfig::for_tests();
        cfg.iterations = 4;
        cfg.dim = 16;
        let emb = TransN::new(&net, cfg).train();
        // Same-cluster users closer than cross-cluster on average.
        let mut intra = 0.0;
        let mut inter = 0.0;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for x in 0..10u32 {
            for y in (x + 1)..10u32 {
                let c = emb.cosine(NodeId(x), NodeId(y));
                if (x < 5) == (y < 5) {
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
            intra > inter,
            "intra-cluster cosine {intra} must beat inter {inter}"
        );
    }

    #[test]
    fn all_variants_train_end_to_end() {
        let net = blog_like_toy();
        for variant in Variant::all() {
            let cfg = TransNConfig::for_tests().with_variant(variant);
            let emb = TransN::new(&net, cfg).train();
            assert_eq!(emb.num_nodes(), net.num_nodes(), "{variant:?}");
            for v in emb.get(NodeId(0)) {
                assert!(v.is_finite(), "{variant:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid TransN configuration")]
    fn invalid_config_panics() {
        let net = blog_like_toy();
        let mut cfg = TransNConfig::for_tests();
        cfg.dim = 0;
        let _ = TransN::new(&net, cfg);
    }
}
