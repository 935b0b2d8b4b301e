//! The single-view algorithm (§III-A): per-view skip-gram training over
//! biased correlated random walks, with Definition-6 context windows.

use crate::config::TransNConfig;
use transn_graph::View;
use transn_rng::Rng;
use transn_sgns::{train_epoch_episodic, window_for_view, EpisodicState, SgnsConfig, SgnsModel};
use transn_walks::{CorrelatedWalker, SimpleWalker, WalkConfig};

/// One view of the network together with its view-specific embedding model
/// (`n̄_i` for every node `n ∈ V_i`).
#[derive(Clone, Debug)]
pub struct SingleView {
    /// The view `φ_i` (owns its node set and local adjacency).
    pub view: View,
    /// The skip-gram model holding the view-specific embeddings.
    pub model: SgnsModel,
    /// Definition-6 window: 1 on homo-views, 2 on heter-views.
    window: usize,
    /// Persistent training state reused across iterations (episode plan,
    /// walk arenas, noise accumulator, SGNS scratch).
    episodic: EpisodicState,
    /// Cached correlated-walk task list `(start, walks)`; built lazily,
    /// reused across iterations (it depends only on view degrees).
    biased_tasks: Vec<(u32, usize)>,
    /// Cached simple-walk task list (one task per walk of the budget).
    simple_tasks: Vec<u32>,
}

impl SingleView {
    /// Initialize the view-specific model.
    pub fn new(view: View, cfg: &TransNConfig, view_index: usize) -> Self {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ (view_index as u64) << 32);
        let model = SgnsModel::new(view.num_nodes(), cfg.dim, &mut rng);
        let window = window_for_view(view.kind());
        SingleView {
            view,
            model,
            window,
            episodic: EpisodicState::new(cfg.episode.episodes_in_flight),
            biased_tasks: Vec::new(),
            simple_tasks: Vec::new(),
        }
    }

    /// The Definition-6 context window of this view.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Highest resident walk-corpus bytes this view has held (DESIGN.md
    /// §13): the whole corpus with one episode per iteration, about
    /// `episodes_in_flight` episode arenas otherwise.
    pub fn peak_corpus_bytes(&self) -> usize {
        self.episodic.peak_corpus_bytes()
    }

    /// One iteration of the single-view algorithm (Algorithm 1 lines 3–7):
    /// sample a fresh corpus and run one SGNS pass over it, cut into
    /// `cfg.episode` episodes (DESIGN.md §13). The noise distribution and
    /// lr schedule are exact corpus-wide values, so Strict runs are
    /// bit-identical for any episode size. Returns the mean skip-gram pair
    /// loss.
    pub fn train_iteration(&mut self, cfg: &TransNConfig, iteration: usize) -> f32 {
        if self.view.num_edges() == 0 {
            return 0.0;
        }
        let walk_cfg = WalkConfig {
            // Fresh randomness every iteration, still deterministic.
            seed: cfg.walk.seed ^ ((iteration as u64 + 1) * 0x9E37_79B9),
            ..cfg.walk
        };
        let sgns_cfg = SgnsConfig {
            dim: cfg.dim,
            negatives: cfg.negatives,
            lr0: cfg.lr_single,
            min_lr_frac: 1e-3,
            window: self.window,
            seed: cfg.seed ^ (iteration as u64 + 99),
            parallelism: cfg.parallelism,
            episode: cfg.episode,
        };
        let num_nodes = self.view.num_nodes();
        if cfg.variant.uses_biased_walks() {
            let walker = CorrelatedWalker::new(&self.view, walk_cfg);
            if self.biased_tasks.is_empty() {
                self.biased_tasks = walker.degree_tasks();
            }
            let tasks = &self.biased_tasks;
            train_epoch_episodic(
                &mut self.model,
                num_nodes,
                tasks.len(),
                |i| tasks[i].1,
                |range, arena| walker.generate_task_range_into(tasks, range, arena),
                &sgns_cfg,
                &mut self.episodic,
            )
        } else {
            // Table V ablation: uniform walks, random starts
            // (`TransN-With-Simple-Walk`).
            let walker = SimpleWalker::new(&self.view, walk_cfg);
            if self.simple_tasks.is_empty() {
                self.simple_tasks = walker.walk_tasks();
            }
            let tasks = &self.simple_tasks;
            train_epoch_episodic(
                &mut self.model,
                num_nodes,
                tasks.len(),
                |_| 1,
                |range, arena| walker.generate_task_range_into(tasks, range, arena),
                &sgns_cfg,
                &mut self.episodic,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::Variant;
    use transn_graph::{HetNetBuilder, ViewKind};

    fn ratings_net() -> transn_graph::HetNet {
        let mut b = HetNetBuilder::new();
        let r = b.add_node_type("reader");
        let bk = b.add_node_type("book");
        let e = b.add_edge_type("rates", r, bk);
        let readers: Vec<_> = (0..6).map(|_| b.add_node(r)).collect();
        let books: Vec<_> = (0..4).map(|_| b.add_node(bk)).collect();
        // Two clusters: readers 0–2 like books 0–1, readers 3–5 like 2–3.
        for (ri, &reader) in readers.iter().enumerate() {
            let base = if ri < 3 { 0 } else { 2 };
            b.add_edge(reader, books[base], e, 5.0).unwrap();
            b.add_edge(reader, books[base + 1], e, 4.0).unwrap();
            // Weak cross-cluster link to keep the view connected.
            if ri == 2 {
                b.add_edge(reader, books[2], e, 1.0).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn heter_view_gets_window_two() {
        let net = ratings_net();
        let views = net.views();
        let cfg = TransNConfig::for_tests();
        let sv = SingleView::new(views[0].clone(), &cfg, 0);
        assert_eq!(sv.view.kind(), ViewKind::Heter);
        assert_eq!(sv.window(), 2);
    }

    #[test]
    fn training_reduces_loss_across_iterations() {
        let net = ratings_net();
        let views = net.views();
        let mut cfg = TransNConfig::for_tests();
        cfg.dim = 12;
        let mut sv = SingleView::new(views[0].clone(), &cfg, 0);
        let first = sv.train_iteration(&cfg, 0);
        let mut last = first;
        for it in 1..6 {
            last = sv.train_iteration(&cfg, it);
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn clusters_separate_in_embedding_space() {
        let net = ratings_net();
        let views = net.views();
        let mut cfg = TransNConfig::for_tests();
        cfg.dim = 12;
        let mut sv = SingleView::new(views[0].clone(), &cfg, 0);
        for it in 0..8 {
            sv.train_iteration(&cfg, it);
        }
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-9)
        };
        // Readers 0,1 same cluster; readers 0,4 different clusters.
        let v = &sv.view;
        let e0 = sv
            .model
            .embedding(v.local(transn_graph::NodeId(0)).unwrap());
        let e1 = sv
            .model
            .embedding(v.local(transn_graph::NodeId(1)).unwrap());
        let e4 = sv
            .model
            .embedding(v.local(transn_graph::NodeId(4)).unwrap());
        assert!(
            cos(e0, e1) > cos(e0, e4),
            "intra {} vs inter {}",
            cos(e0, e1),
            cos(e0, e4)
        );
    }

    #[test]
    fn episodic_pass_is_invariant_to_episode_size() {
        let net = ratings_net();
        let views = net.views();
        let run = |episode_walks: usize, in_flight: usize, threads: usize| {
            let mut cfg = TransNConfig::for_tests();
            cfg.episode.episode_walks = episode_walks;
            cfg.episode.episodes_in_flight = in_flight;
            cfg.parallelism = transn_sgns::Parallelism::strict(threads);
            let mut sv = SingleView::new(views[0].clone(), &cfg, 0);
            for it in 0..3 {
                let loss = sv.train_iteration(&cfg, it);
                assert!(loss.is_finite());
            }
            assert!(sv.peak_corpus_bytes() > 0);
            sv.model
                .input_table()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        // The default: one episode per iteration, trained in place.
        let reference = run(0, 2, 1);
        for (episode_walks, in_flight, threads) in [(1, 1, 1), (4, 2, 2), (9, 3, 4), (0, 1, 4)] {
            assert_eq!(
                run(episode_walks, in_flight, threads),
                reference,
                "episode_walks={episode_walks} in_flight={in_flight} threads={threads}"
            );
        }
    }

    #[test]
    fn simple_walk_variant_also_trains() {
        let net = ratings_net();
        let views = net.views();
        let mut cfg = TransNConfig::for_tests();
        cfg.variant = Variant::SimpleWalk;
        let mut sv = SingleView::new(views[0].clone(), &cfg, 0);
        let loss = sv.train_iteration(&cfg, 0);
        assert!(loss > 0.0 && loss.is_finite());
    }
}
