//! Metapath2Vec \[8\]: meta-path-constrained walks + SGNS.
//!
//! The meta-path is user-specified per dataset (§IV-A3 of the TransN
//! paper: "APVPA" on AMiner, "UTU" on BLOG, "UAKAU" on the App networks).

use crate::method::EmbeddingMethod;
use transn_graph::{HetNet, NodeEmbeddings};
use transn_rng::Rng;
use transn_sgns::{train_epoch_episodic, EpisodicState, Parallelism, SgnsConfig, SgnsModel};
use transn_walks::{EpisodeConfig, MetapathWalker, WalkConfig};

/// Metapath2Vec configuration.
#[derive(Clone, Debug)]
pub struct Metapath2Vec {
    /// Embedding dimension.
    pub dim: usize,
    /// The cyclic meta-path as node-type names.
    pub metapath: Vec<&'static str>,
    /// Walks per head-type node.
    pub walks_per_node: usize,
    /// Walk length.
    pub walk_length: usize,
    /// SGNS window.
    pub window: usize,
    /// SGNS epochs.
    pub epochs: usize,
    /// Negatives per pair.
    pub negatives: usize,
    /// Thread count and determinism policy for the SGNS pass.
    pub parallelism: Parallelism,
    /// Episodic pipeline (DESIGN.md §13); the default trains each epoch as
    /// one episode.
    pub episode: EpisodeConfig,
}

impl Metapath2Vec {
    /// Defaults with the given meta-path.
    pub fn with_metapath(metapath: Vec<&'static str>) -> Self {
        Metapath2Vec {
            dim: 64,
            metapath,
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

impl EmbeddingMethod for Metapath2Vec {
    fn name(&self) -> &'static str {
        "Metapath2Vec"
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
        let walker = MetapathWalker::from_names(net, &self.metapath, walk_cfg);
        let mut rng = Rng::seed_from_u64(seed ^ 0x3417);
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
    use transn_graph::{HetNetBuilder, NodeId};

    /// Authors–papers–venues with two planted topic communities.
    fn academic() -> HetNet {
        let mut b = HetNetBuilder::new();
        let a = b.add_node_type("author");
        let p = b.add_node_type("paper");
        let v = b.add_node_type("venue");
        let ap = b.add_edge_type("AP", a, p);
        let pv = b.add_edge_type("PV", p, v);
        let authors = b.add_nodes(a, 8);
        let papers = b.add_nodes(p, 8);
        let venues = b.add_nodes(v, 2);
        for c in 0..2usize {
            for i in 0..4 {
                let author = authors[c * 4 + i];
                b.add_edge(author, papers[c * 4 + i], ap, 1.0).unwrap();
                b.add_edge(author, papers[c * 4 + (i + 1) % 4], ap, 1.0)
                    .unwrap();
                b.add_edge(papers[c * 4 + i], venues[c], pv, 1.0).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn apvpa_walks_separate_communities() {
        let net = academic();
        let m2v = Metapath2Vec {
            dim: 16,
            walks_per_node: 20,
            walk_length: 21,
            epochs: 4,
            ..Metapath2Vec::with_metapath(vec!["author", "paper", "venue", "paper", "author"])
        };
        let emb = m2v.embed(&net, 13);
        let groups: Vec<(NodeId, usize)> =
            (0..8u32).map(|i| (NodeId(i), (i / 4) as usize)).collect();
        let (intra, inter) = crate::method::intra_inter_cosine(&emb, &groups);
        assert!(intra > inter, "intra {intra} inter {inter}");
    }

    #[test]
    fn deterministic_in_seed() {
        let net = academic();
        let m2v = Metapath2Vec {
            walks_per_node: 2,
            walk_length: 9,
            epochs: 1,
            ..Metapath2Vec::with_metapath(vec!["author", "paper", "author"])
        };
        assert_eq!(m2v.embed(&net, 1), m2v.embed(&net, 1));
    }

    #[test]
    fn episodic_strict_invariant_to_episode_size() {
        let net = academic();
        let run = |episode_walks: usize| {
            let m2v = Metapath2Vec {
                walks_per_node: 3,
                walk_length: 9,
                epochs: 2,
                parallelism: Parallelism::strict(2),
                episode: EpisodeConfig {
                    episode_walks,
                    episodes_in_flight: 2,
                },
                ..Metapath2Vec::with_metapath(vec!["author", "paper", "author"])
            };
            m2v.embed(&net, 3)
        };
        let reference = run(0);
        assert_eq!(run(4), reference);
        assert_eq!(run(1), reference);
    }

    #[test]
    fn name_reports_correctly() {
        let m = Metapath2Vec::with_metapath(vec!["author", "paper", "author"]);
        assert_eq!(m.name(), "Metapath2Vec");
    }
}
