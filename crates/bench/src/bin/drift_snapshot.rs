//! Drift-evaluation snapshot for the streaming subsystem (ISSUE 10):
//! replays the synthetic timestamped edge stream round by round, produces
//! embeddings with both arms — a from-scratch full retrain and the
//! warm-start incremental [`refresh()`] — and scores each on **temporal link
//! prediction**: at round `k`, both arms embed the round-`k` network, and
//! positives are the edges round `k+1` will insert (the true future),
//! against an equal number of sampled compatible non-edges. Like the other
//! snapshot bins: plain `Instant` timing and hand-assembled JSON, written
//! to `BENCH_drift.json`.
//!
//! Acceptance (recorded in the JSON, gated in CI's `stream` job):
//! after K delta rounds the incremental arm's mean AUC must be ≥ 0.97× the
//! full-retrain arm's (within 3% relative), at < 0.5× the full retrain's
//! per-round wall-clock. The stream keeps the keyword–keyword view
//! untouched, so every round's dirty set is {UU, UK} and the incremental
//! arm never regenerates walks for the frozen KK shard; its remaining
//! advantage is the warm start, which needs `INC_ITERS` instead of
//! `FULL_ITERS` iterations. `cpus` is recorded for context: on a 1-core
//! host the speedup is purely algorithmic (fewer iterations, fewer views
//! walked), not concurrency. Each round times each arm once, so the
//! per-round means carry `reps` = K and the `[min, max]` spread over the
//! rounds; the base training is one rep.

use std::collections::HashSet;
use std::time::Instant;
use transn::{refresh, RefreshPlan, TransN, TransNConfig};
use transn_graph::{DeltaOp, DeltaOverlay, HetNet, NodeEmbeddings, NodeId, Parallelism};
use transn_rng::Rng;
use transn_synth::stream::{STREAM_KEYWORD, STREAM_UK, STREAM_USER, STREAM_UU};
use transn_synth::{edge_stream, StreamConfig};
use transn_walks::WalkConfig;

const SEED: u64 = 23;
const FULL_ITERS: usize = 5;
const INC_ITERS: usize = 2;

fn transn_cfg(iterations: usize) -> TransNConfig {
    TransNConfig {
        dim: 16,
        iterations,
        encoders: 1,
        cross_len: 6,
        cross_paths: 30,
        walk: WalkConfig {
            length: 10,
            min_walks_per_node: 2,
            max_walks_per_node: 4,
            seed: SEED,
            threads: 1,
        },
        parallelism: Parallelism::single(),
        ..TransNConfig::default()
    }
    .with_seed(SEED)
}

/// Positive examples for round `k`: the edges round `k + 1` inserts whose
/// endpoints already exist at round `k` (brand-new nodes have no round-`k`
/// embedding to score).
fn future_positives(next: &[DeltaOp], num_nodes: usize) -> Vec<(u32, u32)> {
    next.iter()
        .filter_map(|op| match *op {
            DeltaOp::AddEdge { u, v, .. } if u.index() < num_nodes && v.index() < num_nodes => {
                Some((u.0, v.0))
            }
            _ => None,
        })
        .collect()
}

/// Sample `count` compatible non-edges of the round-`k` network: pairs
/// with a valid (user,user) or (user,keyword) signature that are not live
/// and not among the positives.
fn sample_negatives(
    net: &HetNet,
    taken: &HashSet<(u32, u32)>,
    count: usize,
    rng: &mut Rng,
) -> Vec<(u32, u32)> {
    let mut users = Vec::new();
    let mut kws = Vec::new();
    for n in 0..net.num_nodes() as u32 {
        if net.node_type(NodeId(n)) == STREAM_USER {
            users.push(n);
        } else if net.node_type(NodeId(n)) == STREAM_KEYWORD {
            kws.push(n);
        }
    }
    let mut live: HashSet<(u32, u32)> = HashSet::new();
    for e in net.edges() {
        if e.etype == STREAM_UU || e.etype == STREAM_UK {
            live.insert((e.u.0.min(e.v.0), e.u.0.max(e.v.0)));
        }
    }
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (u, v) = if rng.random_range(0..2) == 0 {
            (
                users[rng.random_range(0..users.len())],
                users[rng.random_range(0..users.len())],
            )
        } else {
            (
                users[rng.random_range(0..users.len())],
                kws[rng.random_range(0..kws.len())],
            )
        };
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if live.contains(&key) || taken.contains(&key) {
            continue;
        }
        out.push((u, v));
    }
    out
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// Rank-based AUC of `pos` scores over `neg` scores.
fn auc(pos: &[f64], neg: &[f64]) -> f64 {
    let mut wins = 0.0f64;
    for &p in pos {
        for &n in neg {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (pos.len() as f64 * neg.len() as f64)
}

fn temporal_auc(emb: &NodeEmbeddings, pos: &[(u32, u32)], neg: &[(u32, u32)]) -> f64 {
    let score = |pairs: &[(u32, u32)]| -> Vec<f64> {
        pairs
            .iter()
            .map(|&(u, v)| dot(emb.get(NodeId(u)), emb.get(NodeId(v))))
            .collect()
    };
    auc(&score(pos), &score(neg))
}

struct Round {
    t: u64,
    nodes: usize,
    edges: usize,
    full_ns: f64,
    inc_ns: f64,
    dirty_views: usize,
    auc_full: Option<f64>,
    auc_inc: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dev = args.iter().any(|a| a == "--dev");
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_drift.json".into());
    let scfg = if dev {
        StreamConfig::tiny()
    } else {
        StreamConfig::dev()
    };
    let stream = edge_stream(&scfg, SEED);
    let num_etypes = stream.base.schema().num_edge_types();
    let full_cfg = transn_cfg(FULL_ITERS);
    let inc_cfg = transn_cfg(INC_ITERS);
    let par = Parallelism::single();

    eprintln!(
        "[drift] base {} nodes / {} edges, {} rounds",
        stream.base.num_nodes(),
        stream.base.num_edges(),
        stream.batches.len()
    );
    let t = Instant::now();
    let mut inc_emb = TransN::new(&stream.base, full_cfg).train();
    let base_train_ns = t.elapsed().as_nanos() as f64;
    eprintln!("[drift] base training {:.1}s", base_train_ns / 1e9);

    let mut ov = DeltaOverlay::new(stream.base.clone());
    let mut rounds: Vec<Round> = Vec::new();
    for (k, batch) in stream.batches.iter().enumerate() {
        ov.apply(batch).expect("stream batches are valid");
        let net_k = ov.compact(par).expect("compaction of a valid overlay");

        // Incremental arm: derive the dirty set from this round's batch
        // and warm-start refresh from the previous round's table.
        let t = Instant::now();
        let plan = RefreshPlan::from_batches(std::slice::from_ref(batch), num_etypes);
        inc_emb = refresh(&net_k, &inc_emb, &plan, &inc_cfg);
        let inc_ns = t.elapsed().as_nanos() as f64;

        // Full arm: retrain from scratch on the same round-k network.
        let t = Instant::now();
        let full_emb = TransN::new(&net_k, full_cfg).train();
        let full_ns = t.elapsed().as_nanos() as f64;

        // Temporal link prediction against round k+1's insertions.
        let (auc_full, auc_inc) = if let Some(next) = stream.batches.get(k + 1) {
            let pos = future_positives(&next.ops, net_k.num_nodes());
            let taken: HashSet<(u32, u32)> =
                pos.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
            let mut rng = Rng::seed_from_u64(SEED ^ (k as u64) << 16);
            let neg = sample_negatives(&net_k, &taken, pos.len(), &mut rng);
            (
                Some(temporal_auc(&full_emb, &pos, &neg)),
                Some(temporal_auc(&inc_emb, &pos, &neg)),
            )
        } else {
            (None, None)
        };
        eprintln!(
            "[drift] round {} ({} nodes): full {:.1}s, inc {:.1}s ({:.2}x), auc full {:?} inc {:?}",
            batch.t,
            net_k.num_nodes(),
            full_ns / 1e9,
            inc_ns / 1e9,
            inc_ns / full_ns,
            auc_full,
            auc_inc
        );
        rounds.push(Round {
            t: batch.t,
            nodes: net_k.num_nodes(),
            edges: net_k.num_edges(),
            full_ns,
            inc_ns,
            dirty_views: plan.num_dirty(),
            auc_full,
            auc_inc,
        });
    }

    let evaluated: Vec<&Round> = rounds.iter().filter(|r| r.auc_full.is_some()).collect();
    let mean = |f: &dyn Fn(&Round) -> f64, rs: &[&Round]| -> f64 {
        rs.iter().map(|r| f(r)).sum::<f64>() / rs.len() as f64
    };
    let mean_auc_full = mean(&|r| r.auc_full.unwrap(), &evaluated);
    let mean_auc_inc = mean(&|r| r.auc_inc.unwrap(), &evaluated);
    let auc_ratio = mean_auc_inc / mean_auc_full;
    let all: Vec<&Round> = rounds.iter().collect();
    let mean_full_ns = mean(&|r| r.full_ns, &all);
    let mean_inc_ns = mean(&|r| r.inc_ns, &all);
    let spread = |f: &dyn Fn(&Round) -> f64| -> String {
        let (lo, hi) = rounds
            .iter()
            .map(f)
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), x| {
                (lo.min(x), hi.max(x))
            });
        format!("[{lo:.0}, {hi:.0}]")
    };
    let time_ratio = mean_inc_ns / mean_full_ns;
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "[drift] K={} rounds: auc inc/full = {:.4}/{:.4} (ratio {:.4}, target >= 0.97), \
         per-round secs inc/full = {:.1}/{:.1} (ratio {:.3}, target < 0.5)",
        rounds.len(),
        mean_auc_inc,
        mean_auc_full,
        auc_ratio,
        mean_inc_ns / 1e9,
        mean_full_ns / 1e9,
        time_ratio
    );

    let round_json: Vec<String> = rounds
        .iter()
        .map(|r| {
            let aucs = match (r.auc_full, r.auc_inc) {
                (Some(f), Some(i)) => {
                    format!(", \"auc_full\": {f:.4}, \"auc_incremental\": {i:.4}")
                }
                _ => String::new(),
            };
            format!(
                "    {{\"t\": {}, \"nodes\": {}, \"edges\": {}, \"dirty_views\": {}, \
                 \"full_retrain_ns\": {:.0}, \"incremental_ns\": {:.0}{aucs}}}",
                r.t, r.nodes, r.edges, r.dirty_views, r.full_ns, r.inc_ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"transn-bench-drift-v1\",\n  \
         \"dev\": {dev}, \"cpus\": {cpus}, \"seed\": {SEED},\n  \
         \"protocol\": \"temporal link prediction: round-k embeddings score round-(k+1) \
         insertions vs sampled compatible non-edges; KK view is never touched by the stream, \
         so each round's dirty set is {{UU, UK}}\",\n  \
         \"full_iterations\": {FULL_ITERS}, \"incremental_iterations\": {INC_ITERS},\n  \
         \"base\": {{\"nodes\": {}, \"edges\": {}, \"train_ns\": {base_train_ns:.0}, \"reps\": 1}},\n  \
         \"rounds\": [\n{}\n  ],\n  \
         \"acceptance\": {{\n    \
         \"k_rounds\": {}, \"mean_auc_full\": {mean_auc_full:.4}, \
         \"mean_auc_incremental\": {mean_auc_inc:.4},\n    \
         \"auc_ratio\": {auc_ratio:.4}, \"auc_ratio_target\": 0.97, \"auc_pass\": {},\n    \
         \"mean_full_retrain_ns\": {mean_full_ns:.0}, \"full_retrain_ns_spread\": {}, \
         \"mean_incremental_ns\": {mean_inc_ns:.0}, \"incremental_ns_spread\": {}, \
         \"reps\": {},\n    \
         \"time_ratio\": {time_ratio:.4}, \"time_ratio_target\": 0.5, \"time_pass\": {}\n  }}\n}}\n",
        stream.base.num_nodes(),
        stream.base.num_edges(),
        round_json.join(",\n"),
        rounds.len(),
        auc_ratio >= 0.97,
        spread(&|r| r.full_ns),
        spread(&|r| r.inc_ns),
        rounds.len(),
        time_ratio < 0.5,
    );
    std::fs::write(&out, &json).expect("write BENCH_drift.json");
    eprintln!("wrote {out}");
}
