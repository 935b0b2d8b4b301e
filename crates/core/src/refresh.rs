//! Incremental embedding refresh after streaming deltas (DESIGN.md §16).
//!
//! TransN's structure makes refresh scopable: views are per-edge-type
//! (Definition 2), so a delta batch invalidates exactly the views whose
//! edge type it inserts into or removes from, plus every view-pair with a
//! dirty member (the translator's common-node anchors may have moved).
//! [`RefreshPlan`] derives that dirty set; [`refresh`] then runs a
//! warm-start retrain on the compacted network:
//!
//! - **Frozen shards**: views untouched by the delta do not regenerate
//!   walks and take no single-view gradient steps — their per-view tables
//!   are seeded from the previous fused embeddings and only move if an
//!   affected view-pair's cross-view pass updates a shared node.
//! - **Warm start**: dirty views also seed from the previous fused rows
//!   (nodes new to this epoch keep their seeded random init), so the
//!   retrain starts near the old optimum and needs fewer iterations than
//!   training from scratch.
//! - **Dirty-region walks**: each dirty view regenerates its walk corpus
//!   through the same episodic pipeline as full training — but only dirty
//!   views walk at all.
//!
//! Contract pinned by the testkit (`stream-refresh-empty`): refreshing
//! with an empty dirty set returns the previous embedding table bitwise
//! unchanged. Refresh runs the trainer's schedule (DESIGN.md §8) with the
//! dirty mask as the set of views to train: affected pairs train in
//! conflict-free levels and each dirty view on its own thread, with
//! `threads` split across the dirty views as in training (DESIGN.md §7).
//! Under `Determinism::Strict`, or with no more threads than dirty views
//! (each then trains on one SGNS worker, in place), it is therefore a pure
//! function of `(net, prev, plan, cfg)`, bit-identical at every thread
//! count (`refresh_is_bit_identical_across_strict_thread_counts`). A dirty
//! view given more than one Hogwild worker races on its table, so those
//! results vary run to run.

use crate::config::TransNConfig;
use crate::fusion::fuse;
use crate::trainer::setup;
use transn_graph::{DeltaBatch, HetNet, NodeEmbeddings};

/// The affected-view set derived from one or more delta batches.
#[derive(Clone, Debug, PartialEq)]
pub struct RefreshPlan {
    /// `dirty[e]` is true iff edge type (= view index) `e` was touched.
    pub dirty: Vec<bool>,
}

impl RefreshPlan {
    /// Derive the dirty set from delta batches: a view is dirty iff some
    /// batch inserts or removes an edge of its type. Node-only additions
    /// dirty no view (an edgeless node joins no view, Definition 2).
    pub fn from_batches(batches: &[DeltaBatch], num_edge_types: usize) -> RefreshPlan {
        let mut dirty = vec![false; num_edge_types];
        for b in batches {
            for (e, touched) in b.touched_edge_types(num_edge_types).into_iter().enumerate() {
                dirty[e] = dirty[e] || touched;
            }
        }
        RefreshPlan { dirty }
    }

    /// Number of dirty views.
    pub fn num_dirty(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// True when no view is dirty — refresh is a no-op.
    pub fn is_clean(&self) -> bool {
        self.num_dirty() == 0
    }

    /// Whether the view-pair `(i, j)` needs its cross-view pass re-run.
    pub fn pair_affected(&self, i: usize, j: usize) -> bool {
        self.dirty.get(i).copied().unwrap_or(false) || self.dirty.get(j).copied().unwrap_or(false)
    }
}

/// Warm-start retrain of `net` (the compacted post-delta network) scoped
/// to `plan`'s dirty views, starting from the previous fused embeddings
/// `prev`.
///
/// Returns the new fused embedding table over all of `net`'s nodes. With
/// an empty plan this is `prev.clone()` — bitwise identical. The dirty
/// views share `cfg.parallelism.threads` as in [`TransN::train`](crate::TransN::train):
/// an even share each, at least one SGNS worker, so at
/// `threads ≤ dirty views` Hogwild refresh is reproducible. Use a `cfg`
/// with fewer `iterations` than full training: the warm start is the
/// point (see `drift_snapshot`, which runs at half the full-retrain
/// iteration budget).
///
/// # Panics
/// Panics if `cfg` is invalid or `prev.dim() != cfg.dim`.
pub fn refresh(
    net: &HetNet,
    prev: &NodeEmbeddings,
    plan: &RefreshPlan,
    cfg: &TransNConfig,
) -> NodeEmbeddings {
    if let Err(e) = cfg.validate() {
        panic!("invalid TransN configuration: {e}");
    }
    assert_eq!(
        prev.dim(),
        cfg.dim,
        "previous embeddings have dim {}, config wants {}",
        prev.dim(),
        cfg.dim
    );
    if plan.is_clean() {
        return prev.clone();
    }

    let (mut views, mut pairs, schedule) = setup(net, cfg, |i, j| plan.pair_affected(i, j));

    // Warm start every view (dirty and frozen alike) from the previous
    // fused rows; nodes the stream added after `prev` was trained keep
    // their seeded random init.
    for sv in &mut views {
        for l in 0..sv.view.num_nodes() as u32 {
            let g = sv.view.global(l);
            if g.index() < prev.num_nodes() {
                sv.model.embedding_mut(l).copy_from_slice(prev.get(g));
            }
        }
    }

    schedule.run(&mut views, &mut pairs, &plan.dirty, cfg);
    fuse(net, &views, cfg.dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::TransN;
    use transn_graph::{DeltaOverlay, EdgeTypeId, HetNetBuilder, NodeId, NodeTypeId, Parallelism};

    fn toy_net() -> HetNet {
        let mut b = HetNetBuilder::new();
        let user = b.add_node_type("user");
        let kw = b.add_node_type("keyword");
        let uu = b.add_edge_type("friend", user, user);
        let uk = b.add_edge_type("uses", user, kw);
        let kk = b.add_edge_type("related", kw, kw);
        let users: Vec<_> = (0..8).map(|_| b.add_node(user)).collect();
        let kws: Vec<_> = (0..4).map(|_| b.add_node(kw)).collect();
        for i in 0..8 {
            b.add_edge(users[i], users[(i + 1) % 8], uu, 1.0).unwrap();
        }
        for i in 0..8 {
            b.add_edge(users[i], kws[i % 4], uk, 1.0 + (i % 3) as f32)
                .unwrap();
        }
        b.add_edge(kws[0], kws[1], kk, 1.0).unwrap();
        b.add_edge(kws[2], kws[3], kk, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn empty_plan_is_bitwise_noop() {
        let net = toy_net();
        let cfg = TransNConfig::for_tests();
        let prev = TransN::new(&net, cfg).train();
        let plan = RefreshPlan::from_batches(&[DeltaBatch::new(0)], 3);
        assert!(plan.is_clean());
        let out = refresh(&net, &prev, &plan, &cfg);
        assert_eq!(out, prev);
    }

    #[test]
    fn plan_derivation_tracks_touched_types() {
        let mut b = DeltaBatch::new(1);
        b.add_node(NodeTypeId(0));
        b.add_edge(NodeId(0), NodeId(2), EdgeTypeId(1), 1.0);
        let plan = RefreshPlan::from_batches(&[b], 3);
        assert_eq!(plan.dirty, vec![false, true, false]);
        assert_eq!(plan.num_dirty(), 1);
        assert!(plan.pair_affected(0, 1));
        assert!(plan.pair_affected(1, 2));
        assert!(!plan.pair_affected(0, 2));
    }

    #[test]
    fn refresh_after_delta_trains_new_nodes() {
        let net = toy_net();
        let mut cfg = TransNConfig::for_tests();
        cfg.iterations = 2;
        let prev = TransN::new(&net, cfg).train();

        let mut ov = DeltaOverlay::new(net);
        let mut batch = DeltaBatch::new(1);
        batch.add_node(NodeTypeId(0)); // user id 12
        batch.add_edge(NodeId(12), NodeId(0), EdgeTypeId(0), 1.0);
        batch.add_edge(NodeId(12), NodeId(1), EdgeTypeId(0), 1.0);
        ov.apply(&batch).unwrap();
        let new_net = ov.compact(Parallelism::single()).unwrap();

        let plan = RefreshPlan::from_batches(&[batch], 3);
        assert_eq!(plan.dirty, vec![true, false, false]);
        let out = refresh(&new_net, &prev, &plan, &cfg);
        assert_eq!(out.num_nodes(), 13);
        let norm: f32 = out.get(NodeId(12)).iter().map(|x| x * x).sum();
        assert!(norm > 0.0, "new node must be embedded");
        // Keyword-only nodes sit in the frozen `related` view and the
        // affected `uses` pair — finite either way.
        for n in new_net.nodes() {
            for v in out.get(n) {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn refresh_is_deterministic() {
        let net = toy_net();
        let cfg = TransNConfig::for_tests();
        let prev = TransN::new(&net, cfg).train();
        let plan = RefreshPlan {
            dirty: vec![true, false, false],
        };
        let a = refresh(&net, &prev, &plan, &cfg);
        let b = refresh(&net, &prev, &plan, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn refresh_is_bit_identical_across_strict_thread_counts() {
        // The `uses` view is dirty, so both pairs are affected; they share
        // that view on disjoint rows (users vs keywords) and train in one
        // level, on as many threads as the policy allows.
        let net = toy_net();
        let mut cfg = TransNConfig::for_tests();
        cfg.iterations = 2;
        let prev = TransN::new(&net, cfg).train();
        let plan = RefreshPlan {
            dirty: vec![false, true, false],
        };
        let run = |threads: usize| {
            let mut cfg = cfg;
            cfg.parallelism = Parallelism::strict(threads);
            refresh(&net, &prev, &plan, &cfg)
        };
        let base = run(1);
        assert_ne!(base, prev, "refresh must move the affected rows");
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn hogwild_refresh_with_one_worker_per_dirty_view_equals_strict() {
        // Two dirty views and two threads: each view trains on one SGNS
        // worker, in place, so Hogwild gives Strict's bits.
        let net = toy_net();
        let mut cfg = TransNConfig::for_tests();
        cfg.iterations = 2;
        let prev = TransN::new(&net, cfg).train();
        let plan = RefreshPlan {
            dirty: vec![true, true, false],
        };
        let run = |par: Parallelism| {
            let mut cfg = cfg;
            cfg.parallelism = par;
            refresh(&net, &prev, &plan, &cfg)
        };
        assert_eq!(run(Parallelism::hogwild(2)), run(Parallelism::strict(1)));
    }

    #[test]
    fn frozen_only_nodes_keep_embeddings_close() {
        // Nodes that appear only in frozen views should stay near their
        // previous embedding (exact up to fusion averaging over copies).
        let net = toy_net();
        let mut cfg = TransNConfig::for_tests();
        cfg.iterations = 1;
        let prev = TransN::new(&net, cfg).train();
        let plan = RefreshPlan {
            dirty: vec![true, false, false], // friend view only
        };
        let out = refresh(&net, &prev, &plan, &cfg);
        // Keywords are in `uses` (affected via pair) and `related`
        // (frozen); with the friend view dirty, the uses pair is affected,
        // so keywords may move — but users 2..8 moved too. Sanity: table
        // shape and finiteness.
        assert_eq!(out.num_nodes(), prev.num_nodes());
        for n in net.nodes() {
            for v in out.get(n) {
                assert!(v.is_finite());
            }
        }
    }
}
