//! MVE \[34\], unsupervised variant: view-specific skip-gram embeddings
//! regularized toward a shared center embedding, views weighted equally
//! (the paper's comparison uses the unsupervised variant "which assigns
//! equal weights for views when fusing view-specific embeddings").
//!
//! Views are the same edge-type views TransN uses. Each epoch trains every
//! view's SGNS model on weight-proportional walks, then pulls the
//! view-specific embeddings toward the equal-weight center and recomputes
//! the center — the co-regularization of the original method without its
//! attention mechanism.

use crate::method::EmbeddingMethod;
use transn_graph::{HetNet, NodeEmbeddings};
use transn_rng::Rng;
use transn_sgns::{train_epoch_episodic, EpisodicState, Parallelism, SgnsConfig, SgnsModel};
use transn_walks::{EpisodeConfig, Node2VecWalker, WalkConfig};

/// MVE configuration.
#[derive(Clone, Copy, Debug)]
pub struct Mve {
    /// Embedding dimension.
    pub dim: usize,
    /// Walks per node per view.
    pub walks_per_node: usize,
    /// Walk length.
    pub walk_length: usize,
    /// SGNS window.
    pub window: usize,
    /// Outer epochs (SGNS pass + co-regularization).
    pub epochs: usize,
    /// Strength of the pull toward the center per epoch, in `[0, 1]`.
    pub reg: f32,
    /// Negatives per pair.
    pub negatives: usize,
    /// Thread count and determinism policy for the per-view SGNS passes.
    pub parallelism: Parallelism,
    /// Episodic pipeline (DESIGN.md §13) for the per-view SGNS passes; the
    /// default trains each pass as one episode.
    pub episode: EpisodeConfig,
}

impl Default for Mve {
    fn default() -> Self {
        Mve {
            dim: 64,
            walks_per_node: 8,
            walk_length: 40,
            window: 5,
            epochs: 3,
            reg: 0.5,
            negatives: 5,
            parallelism: Parallelism::default(),
            episode: EpisodeConfig::default(),
        }
    }
}

impl EmbeddingMethod for Mve {
    fn name(&self) -> &'static str {
        "MVE"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, net: &HetNet, seed: u64) -> NodeEmbeddings {
        let n = net.num_nodes();
        let dim = self.dim;
        let views = net.views();
        let mut models: Vec<(usize, SgnsModel)> = Vec::new(); // (view index, model)
        let mut rng = Rng::seed_from_u64(seed);
        for (i, v) in views.iter().enumerate() {
            if v.num_edges() > 0 {
                models.push((i, SgnsModel::new(v.num_nodes(), dim, &mut rng)));
            }
        }

        let mut center = NodeEmbeddings::zeros(n, dim);
        // One training state (walk arenas, noise table, SGNS scratch)
        // reused across all epochs and views.
        let mut episodic = EpisodicState::new(self.episode.episodes_in_flight);
        for epoch in 0..self.epochs {
            // 1. One SGNS pass per view on weight-proportional walks.
            for (vi, model) in models.iter_mut() {
                let view = &views[*vi];
                let walk_cfg = WalkConfig {
                    length: self.walk_length,
                    seed: seed ^ ((*vi as u64) << 8) ^ (epoch as u64),
                    threads: 4,
                    ..WalkConfig::default()
                };
                let walker = Node2VecWalker::deepwalk(view.adj(), walk_cfg);
                let cfg = SgnsConfig {
                    dim,
                    negatives: self.negatives,
                    lr0: 0.025,
                    min_lr_frac: 1e-3,
                    window: self.window,
                    seed: seed ^ (epoch as u64 + 7),
                    parallelism: self.parallelism,
                    episode: self.episode,
                };
                let tasks = walker.walk_tasks();
                train_epoch_episodic(
                    model,
                    view.num_nodes(),
                    tasks.len(),
                    |_| self.walks_per_node,
                    |range, arena| {
                        walker.generate_task_range_into(&tasks, range, self.walks_per_node, arena)
                    },
                    &cfg,
                    &mut episodic,
                );
            }

            // 2. Center = equal-weight mean of view-specific embeddings.
            center = NodeEmbeddings::zeros(n, dim);
            let mut counts = vec![0u32; n];
            for (vi, model) in &models {
                let view = &views[*vi];
                for l in 0..view.num_nodes() as u32 {
                    let g = view.global(l);
                    let row = center.get_mut(g);
                    for (c, &e) in row.iter_mut().zip(model.embedding(l)) {
                        *c += e;
                    }
                    counts[g.index()] += 1;
                }
            }
            for (i, &c) in counts.iter().enumerate() {
                if c > 1 {
                    let row = center.get_mut(transn_graph::NodeId::from_index(i));
                    let inv = 1.0 / c as f32;
                    for v in row.iter_mut() {
                        *v *= inv;
                    }
                }
            }

            // 3. Co-regularization: pull view embeddings toward the center.
            for (vi, model) in models.iter_mut() {
                let view = &views[*vi];
                for l in 0..view.num_nodes() as u32 {
                    let g = view.global(l);
                    let target = center.get(g).to_vec();
                    let row = model.embedding_mut(l);
                    for (v, t) in row.iter_mut().zip(target) {
                        *v += self.reg * (t - *v);
                    }
                }
            }
        }
        center
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transn_graph::{HetNetBuilder, NodeId};

    /// Two views over shared users, cluster-aligned.
    fn two_views() -> HetNet {
        let mut b = HetNetBuilder::new();
        let u = b.add_node_type("user");
        let k = b.add_node_type("kw");
        let uu = b.add_edge_type("UU", u, u);
        let uk = b.add_edge_type("UK", u, k);
        let users = b.add_nodes(u, 8);
        let kws = b.add_nodes(k, 4);
        for c in 0..2usize {
            for x in 0..4 {
                for y in (x + 1)..4 {
                    b.add_edge(users[c * 4 + x], users[c * 4 + y], uu, 1.0)
                        .unwrap();
                }
                b.add_edge(users[c * 4 + x], kws[c * 2], uk, 1.0).unwrap();
                b.add_edge(users[c * 4 + x], kws[c * 2 + 1], uk, 1.0)
                    .unwrap();
            }
        }
        b.add_edge(users[0], users[4], uu, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn clusters_separate_in_center_embedding() {
        let net = two_views();
        let mve = Mve {
            dim: 16,
            walks_per_node: 12,
            walk_length: 20,
            epochs: 3,
            ..Default::default()
        };
        let emb = mve.embed(&net, 21);
        let groups: Vec<(NodeId, usize)> =
            (0..8u32).map(|i| (NodeId(i), (i / 4) as usize)).collect();
        let (intra, inter) = crate::method::intra_inter_cosine(&emb, &groups);
        assert!(intra > inter, "intra {intra} inter {inter}");
    }

    #[test]
    fn all_nodes_covered() {
        let net = two_views();
        let emb = Mve::default().embed(&net, 2);
        assert_eq!(emb.num_nodes(), net.num_nodes());
        for node in net.nodes() {
            let norm: f32 = emb.get(node).iter().map(|x| x * x).sum();
            assert!(norm > 0.0, "node {node}");
        }
    }

    #[test]
    fn episodic_strict_invariant_to_episode_size() {
        let net = two_views();
        let run = |episode_walks: usize| {
            let mve = Mve {
                walks_per_node: 3,
                walk_length: 8,
                epochs: 2,
                parallelism: Parallelism::strict(2),
                episode: EpisodeConfig {
                    episode_walks,
                    episodes_in_flight: 2,
                },
                ..Default::default()
            };
            mve.embed(&net, 9)
        };
        let reference = run(0);
        assert_eq!(run(5), reference);
        assert_eq!(run(1), reference);
    }

    #[test]
    fn deterministic_in_seed() {
        let net = two_views();
        let mve = Mve {
            walks_per_node: 2,
            walk_length: 8,
            epochs: 1,
            ..Default::default()
        };
        assert_eq!(mve.embed(&net, 4), mve.embed(&net, 4));
    }
}
