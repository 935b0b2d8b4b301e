//! Node2Vec \[13\]: p/q-biased second-order walks over the type-blind
//! network + SGNS. `p = q = 1` recovers DeepWalk \[33\].

use crate::method::EmbeddingMethod;
use transn_graph::{HetNet, NodeEmbeddings};
use transn_rng::Rng;
use transn_sgns::{train_epoch_episodic, EpisodicState, Parallelism, SgnsConfig, SgnsModel};
use transn_walks::{EpisodeConfig, Node2VecWalker, WalkConfig};

/// Node2Vec configuration.
#[derive(Clone, Copy, Debug)]
pub struct Node2Vec {
    /// Embedding dimension.
    pub dim: usize,
    /// Return parameter `p`.
    pub p: f32,
    /// In-out parameter `q`.
    pub q: f32,
    /// Walks per node.
    pub walks_per_node: usize,
    /// Walk length.
    pub walk_length: usize,
    /// SGNS context window.
    pub window: usize,
    /// SGNS epochs over the corpus.
    pub epochs: usize,
    /// Negative samples.
    pub negatives: usize,
    /// Thread count and determinism policy for the SGNS pass.
    pub parallelism: Parallelism,
    /// Episodic pipeline (DESIGN.md §13); the default trains each epoch as
    /// one episode.
    pub episode: EpisodeConfig,
}

impl Default for Node2Vec {
    fn default() -> Self {
        Node2Vec {
            dim: 64,
            p: 1.0,
            q: 1.0,
            walks_per_node: 10,
            walk_length: 40,
            window: 5,
            epochs: 2,
            negatives: 5,
            parallelism: Parallelism::default(),
            episode: EpisodeConfig::default(),
        }
    }
}

impl Node2Vec {
    /// The DeepWalk special case.
    pub fn deepwalk() -> Self {
        Node2Vec {
            p: 1.0,
            q: 1.0,
            ..Default::default()
        }
    }
}

impl EmbeddingMethod for Node2Vec {
    fn name(&self) -> &'static str {
        "Node2Vec"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, net: &HetNet, seed: u64) -> NodeEmbeddings {
        let n = net.num_nodes();
        let walk_cfg = WalkConfig {
            length: self.walk_length,
            seed,
            threads: 4,
            ..WalkConfig::default()
        };
        let walker = Node2VecWalker::new(net.global_adj(), self.p, self.q, walk_cfg);
        let mut rng = Rng::seed_from_u64(seed ^ 0xA5A5);
        let mut model = SgnsModel::new(n, self.dim, &mut rng);
        let sgns_cfg = |epoch: u64| SgnsConfig {
            dim: self.dim,
            negatives: self.negatives,
            lr0: 0.025,
            min_lr_frac: 1e-3,
            window: self.window,
            seed: seed ^ (epoch + 1),
            parallelism: self.parallelism,
            episode: self.episode,
        };
        // The walker seed is fixed per run, so every epoch regenerates the
        // same walks.
        let tasks = walker.walk_tasks();
        let mut state = EpisodicState::new(self.episode.episodes_in_flight);
        for epoch in 0..self.epochs {
            train_epoch_episodic(
                &mut model,
                n,
                tasks.len(),
                |_| self.walks_per_node,
                |range, arena| {
                    walker.generate_task_range_into(&tasks, range, self.walks_per_node, arena)
                },
                &sgns_cfg(epoch as u64),
                &mut state,
            );
        }
        NodeEmbeddings::from_flat(n, self.dim, model.input_table().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::intra_inter_cosine;
    use transn_graph::{HetNetBuilder, NodeId};

    fn two_cliques() -> HetNet {
        let mut b = HetNetBuilder::new();
        let t = b.add_node_type("t");
        let e = b.add_edge_type("tt", t, t);
        let nodes = b.add_nodes(t, 10);
        for c in 0..2 {
            for x in 0..5 {
                for y in (x + 1)..5 {
                    b.add_edge(nodes[c * 5 + x], nodes[c * 5 + y], e, 1.0)
                        .unwrap();
                }
            }
        }
        b.add_edge(nodes[4], nodes[5], e, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn communities_separate() {
        let net = two_cliques();
        let n2v = Node2Vec {
            dim: 16,
            walks_per_node: 20,
            walk_length: 20,
            epochs: 3,
            ..Default::default()
        };
        let emb = n2v.embed(&net, 11);
        let groups: Vec<(NodeId, usize)> =
            (0..10u32).map(|i| (NodeId(i), (i / 5) as usize)).collect();
        let (intra, inter) = intra_inter_cosine(&emb, &groups);
        assert!(intra > inter + 0.1, "intra {intra} inter {inter}");
    }

    #[test]
    fn deepwalk_is_unit_pq() {
        let d = Node2Vec::deepwalk();
        assert_eq!(d.p, 1.0);
        assert_eq!(d.q, 1.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let net = two_cliques();
        let n2v = Node2Vec {
            walks_per_node: 3,
            walk_length: 10,
            epochs: 1,
            ..Default::default()
        };
        assert_eq!(n2v.embed(&net, 5), n2v.embed(&net, 5));
    }

    #[test]
    fn episodic_strict_invariant_to_episode_size() {
        let net = two_cliques();
        let run = |episode_walks: usize| {
            let n2v = Node2Vec {
                walks_per_node: 3,
                walk_length: 10,
                epochs: 2,
                parallelism: Parallelism::strict(2),
                episode: EpisodeConfig {
                    episode_walks,
                    episodes_in_flight: 2,
                },
                ..Default::default()
            };
            n2v.embed(&net, 5)
        };
        // The default: one episode per epoch.
        let reference = run(0);
        assert_eq!(run(4), reference);
        assert_eq!(run(1), reference);
    }

    #[test]
    fn embeds_all_nodes_including_isolated() {
        let mut b = HetNetBuilder::new();
        let t = b.add_node_type("t");
        let e = b.add_edge_type("tt", t, t);
        let nodes = b.add_nodes(t, 4);
        b.add_edge(nodes[0], nodes[1], e, 1.0).unwrap();
        let net = b.build().unwrap();
        let emb = Node2Vec::default().embed(&net, 0);
        assert_eq!(emb.num_nodes(), 4);
    }
}
