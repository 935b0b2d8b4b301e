//! A pure-Rust HNSW-style layered proximity graph (Malkov & Yashunin,
//! "Efficient and robust approximate nearest neighbor search using
//! Hierarchical Navigable Small World graphs").
//!
//! Differences from the paper's reference implementation, chosen for this
//! workspace's determinism contract:
//!
//! - **Per-node layer assignment is a hash of `(seed, id)`**, not a draw
//!   from a shared RNG stream. A node lands on the same layers no matter
//!   when it is inserted, so insert order perturbs only the *edges* — the
//!   basis of the insert-order-tolerance property test.
//! - Candidate ordering uses the same total order as the exact index
//!   ([`neighbor_cmp`]: score descending, id ascending), so builds and
//!   searches are fully deterministic for a fixed `(source, config)`.
//! - Neighbor selection is the paper's *heuristic* selection (Algorithm 4)
//!   with backfill: a candidate is linked only if it is closer to the
//!   anchor than to every link already kept, then the best rejected
//!   candidates top the list back up to the degree cap. Plain top-M links
//!   saturate inside one cluster on clustered data and strand late
//!   inserts with zero in-degree — unreachable at any beam width.
//!   Scores come through the same `metric_score` the exact index uses.
//! - **Insertion is batch-synchronous** (after ParlayANN, Manohar et al.,
//!   PPoPP 2024): batch members search, in parallel, the graph as it stood
//!   before their batch, and each over-full node is pruned once per batch
//!   (`HnswIndex::insert_batch`). The graph depends on `(source, metric,
//!   config, order)` alone, never on the worker count. Up to 50 vectors
//!   every batch holds one id, which is serial insertion.

use crate::index::{
    metric_score, neighbor_cmp, EmbeddingIndex, Metric, Neighbor, TopK, VectorSource,
};
use std::collections::BTreeMap;
use transn_graph::{run_shards_build, Parallelism};
use transn_nn::kernels;
use transn_rng::splitmix64;

/// A batch holds at most `⌈n / BATCH_DIVISOR⌉` ids.
const BATCH_DIVISOR: usize = 50;

/// Shards per parallel phase, fixed so the split ignores the worker count.
const SHARDS: usize = 64;

/// HNSW build/search parameters.
#[derive(Clone, Copy, Debug)]
pub struct HnswConfig {
    /// Max out-degree on layers above 0 (layer 0 allows `2·m`).
    pub m: usize,
    /// Beam width while inserting.
    pub ef_construction: usize,
    /// Default beam width while searching (raise for recall, lower for
    /// speed; must be ≥ k for meaningful top-k).
    pub ef_search: usize,
    /// Keys the per-node layer assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 0x485E_5751,
        }
    }
}

/// The layered graph: per node, one adjacency list per layer it occupies.
pub struct HnswIndex {
    /// `links[node][layer]` = neighbor ids on that layer.
    links: Vec<Vec<Vec<u32>>>,
    /// Copied vectors, row-major (owning them keeps search cache-friendly
    /// and frees the index from the source's lifetime).
    data: Vec<f32>,
    dim: usize,
    /// Per-row norms (cosine only).
    norms: Vec<f32>,
    metric: Metric,
    entry: u32,
    max_layer: usize,
    cfg: HnswConfig,
}

impl HnswIndex {
    /// Build over `source`, inserting nodes in id order.
    pub fn build<S: VectorSource>(source: &S, metric: Metric, cfg: HnswConfig) -> HnswIndex {
        let order: Vec<u32> = (0..source.len() as u32).collect();
        Self::build_with_order(source, metric, cfg, &order)
    }

    /// Build inserting nodes in the given order (every id exactly once).
    /// Exposed so tests can show recall is insert-order tolerant.
    ///
    /// The build runs on every available core; the graph does not depend
    /// on how many there are.
    ///
    /// # Panics
    /// Panics if `order.len()` differs from `source.len()`, or if `order`
    /// is not a permutation of `0..source.len()` (an id out of range or
    /// repeated).
    pub fn build_with_order<S: VectorSource>(
        source: &S,
        metric: Metric,
        cfg: HnswConfig,
        order: &[u32],
    ) -> HnswIndex {
        let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
        Self::build_on(source, metric, cfg, order, workers)
    }

    /// [`HnswIndex::build_with_order`] on `workers` threads.
    fn build_on<S: VectorSource>(
        source: &S,
        metric: Metric,
        cfg: HnswConfig,
        order: &[u32],
        workers: usize,
    ) -> HnswIndex {
        let n = source.len();
        assert_eq!(order.len(), n, "order must cover every node exactly once");
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert!(
            sorted.iter().enumerate().all(|(i, &id)| id as usize == i),
            "order must be a permutation of 0..{n}: an id is out of range or repeated"
        );
        let dim = source.dim();
        let data = source.rows().to_vec();
        let norms = match metric {
            Metric::Dot => Vec::new(),
            Metric::Cosine => (0..n)
                .map(|i| {
                    kernels::dot(&data[i * dim..(i + 1) * dim], &data[i * dim..(i + 1) * dim])
                        .sqrt()
                })
                .collect(),
        };
        let mut index = HnswIndex {
            links: (0..n)
                .map(|id| vec![Vec::new(); index_level(cfg.seed, id as u32, cfg.m) + 1])
                .collect(),
            data,
            dim,
            norms,
            metric,
            entry: 0,
            max_layer: 0,
            cfg,
        };
        let Some((&first, mut rest)) = order.split_first() else {
            return index;
        };
        index.entry = first;
        index.max_layer = index.level(first);
        let par = Parallelism::strict(workers);
        let max_batch = n.div_ceil(BATCH_DIVISOR);
        let mut inserted = 1;
        while !rest.is_empty() {
            let (batch, tail) = rest.split_at(inserted.min(max_batch).min(rest.len()));
            index.insert_batch(batch, par);
            inserted += batch.len();
            rest = tail;
        }
        index
    }

    #[inline]
    fn row(&self, id: u32) -> &[f32] {
        &self.data[id as usize * self.dim..(id as usize + 1) * self.dim]
    }

    #[inline]
    fn row_norm(&self, id: u32) -> f32 {
        match self.metric {
            Metric::Dot => 0.0,
            Metric::Cosine => self.norms[id as usize],
        }
    }

    #[inline]
    fn score(&self, query: &[f32], q_norm: f32, id: u32) -> f32 {
        metric_score(
            kernels::dot(query, self.row(id)),
            self.metric,
            q_norm,
            self.row_norm(id),
        )
    }

    fn q_norm(&self, query: &[f32]) -> f32 {
        match self.metric {
            Metric::Dot => 0.0,
            Metric::Cosine => kernels::dot(query, query).sqrt(),
        }
    }

    /// Node's topmost layer.
    fn level(&self, id: u32) -> usize {
        self.links[id as usize].len() - 1
    }

    fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            2 * self.cfg.m
        } else {
            self.cfg.m
        }
    }

    /// Greedy single-step descent on one layer: repeatedly hop to the best
    /// neighbor until no neighbor improves the score.
    fn greedy(&self, query: &[f32], q_norm: f32, mut cur: u32, layer: usize) -> u32 {
        let mut cur_score = self.score(query, q_norm, cur);
        loop {
            let mut improved = false;
            for &nb in &self.links[cur as usize][layer] {
                let s = self.score(query, q_norm, nb);
                if neighbor_cmp(
                    &Neighbor { id: nb, score: s },
                    &Neighbor {
                        id: cur,
                        score: cur_score,
                    },
                ) == std::cmp::Ordering::Less
                {
                    cur = nb;
                    cur_score = s;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search on one layer from `entries`, returning up to `ef`
    /// best-first candidates.
    fn search_layer(
        &self,
        query: &[f32],
        q_norm: f32,
        entries: &[u32],
        ef: usize,
        layer: usize,
    ) -> Vec<Neighbor> {
        let mut visited = vec![false; self.links.len()];
        // Frontier ordered best-first via sorted Vec used as a stack of
        // the best unexpanded candidate (binary-heap order on Reverse of
        // neighbor_cmp); n is bounded by ef·degree so this stays cheap.
        let mut frontier: std::collections::BinaryHeap<FrontierEntry> =
            std::collections::BinaryHeap::new();
        let mut best = TopK::new(ef);
        for &e in entries {
            if visited[e as usize] {
                continue;
            }
            visited[e as usize] = true;
            let s = self.score(query, q_norm, e);
            let nb = Neighbor { id: e, score: s };
            frontier.push(FrontierEntry(nb));
            best.push(nb);
        }
        while let Some(FrontierEntry(cand)) = frontier.pop() {
            if let Some(bar) = best.threshold() {
                // Best unexpanded is already worse than the worst kept
                // result: the beam has converged.
                if neighbor_cmp(&cand, &bar) == std::cmp::Ordering::Greater {
                    break;
                }
            }
            for &nb in &self.links[cand.id as usize][layer] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let s = self.score(query, q_norm, nb);
                let cand = Neighbor { id: nb, score: s };
                let keep = match best.threshold() {
                    None => true,
                    Some(bar) => neighbor_cmp(&cand, &bar) == std::cmp::Ordering::Less,
                };
                if keep {
                    frontier.push(FrontierEntry(cand));
                    best.push(cand);
                }
            }
        }
        best.into_sorted()
    }

    /// Insert `batch` (ids not yet in the graph) in three phases:
    ///
    /// 1. in parallel, each member plans its links against the graph as it
    ///    stood before the batch ([`HnswIndex::plan_links`]);
    /// 2. in batch order, the forward links are written and the reverse
    ///    links grouped by `(target, layer)`; a target that stays within
    ///    its degree cap appends its group;
    /// 3. in parallel over targets, every other target is re-selected
    ///    once over its old links plus its whole group.
    ///
    /// Each phase reads only the state before it, so the result does not
    /// depend on the worker count. A one-id batch is serial insertion.
    fn insert_batch(&mut self, batch: &[u32], par: Parallelism) {
        let plans = run_sharded(batch, par, |&id| self.plan_links(id));
        let mut groups: BTreeMap<(u32, usize), Vec<u32>> = BTreeMap::new();
        for (&id, plan) in batch.iter().zip(plans) {
            for (layer, chosen) in plan.into_iter().enumerate() {
                for &nb in &chosen {
                    groups.entry((nb, layer)).or_default().push(id);
                }
                // Copies, not moves, here and below: sized to the list and
                // allocated on this thread, they keep peak RSS near the
                // serial build's (the workers' buffers are cap-sized).
                self.links[id as usize][layer].clone_from(&chosen);
            }
        }
        let mut full = Vec::new();
        for ((target, layer), news) in groups {
            if self.links[target as usize][layer].len() + news.len() <= self.max_degree(layer) {
                self.links[target as usize][layer].extend(news);
            } else {
                full.push((target, layer, news));
            }
        }
        let pruned = run_sharded(&full, par, |(target, layer, news)| {
            self.pruned_links(*target, *layer, news)
        });
        for ((target, layer, _), list) in full.iter().zip(pruned) {
            self.links[*target as usize][*layer].clone_from(&list);
        }
        for &id in batch {
            if self.level(id) > self.max_layer {
                self.max_layer = self.level(id);
                self.entry = id;
            }
        }
    }

    /// The links `id` gets on each layer it shares with the graph: greedy
    /// descent from the entry point, then per layer a beam search and
    /// [`HnswIndex::select_diverse`]. Reads the graph only.
    fn plan_links(&self, id: u32) -> Vec<Vec<u32>> {
        let query = self.row(id);
        let q_norm = self.row_norm(id);
        let node_level = self.level(id);
        let mut cur = self.entry;
        for layer in ((node_level + 1)..=self.max_layer).rev() {
            cur = self.greedy(query, q_norm, cur, layer);
        }
        let top = node_level.min(self.max_layer);
        let mut plan = vec![Vec::new(); top + 1];
        let mut entries = vec![cur];
        for layer in (0..=top).rev() {
            let found = self.search_layer(query, q_norm, &entries, self.cfg.ef_construction, layer);
            plan[layer] = self.select_diverse(&found, self.cfg.m);
            entries = found.iter().map(|c| c.id).collect();
            if entries.is_empty() {
                entries = vec![cur];
            }
        }
        plan
    }

    /// Re-select an over-full node's links on one layer: score its old
    /// links and `news` against it, sort, and keep
    /// [`HnswIndex::select_diverse`]'s pick up to the degree cap.
    fn pruned_links(&self, id: u32, layer: usize, news: &[u32]) -> Vec<u32> {
        let query = self.row(id);
        let q_norm = self.row_norm(id);
        let mut scored: Vec<Neighbor> = self.links[id as usize][layer]
            .iter()
            .chain(news)
            .map(|&nb| Neighbor {
                id: nb,
                score: self.score(query, q_norm, nb),
            })
            .collect();
        scored.sort_by(neighbor_cmp);
        self.select_diverse(&scored, self.max_degree(layer))
    }

    /// Heuristic neighbor selection (paper Algorithm 4): walk `candidates`
    /// best-first (scores are relative to the anchor they will link to)
    /// and keep one only if it scores better against the anchor than
    /// against every neighbor kept so far, then backfill with the best
    /// rejected candidates so the degree cap is still met.
    fn select_diverse(&self, candidates: &[Neighbor], cap: usize) -> Vec<u32> {
        let mut kept: Vec<u32> = Vec::with_capacity(cap);
        let mut rejected: Vec<u32> = Vec::new();
        for c in candidates {
            if kept.len() == cap {
                break;
            }
            let c_row = self.row(c.id);
            let c_norm = self.row_norm(c.id);
            let covered = kept.iter().any(|&s| {
                let s_to_c = metric_score(
                    kernels::dot(c_row, self.row(s)),
                    self.metric,
                    c_norm,
                    self.row_norm(s),
                );
                s_to_c > c.score
            });
            if covered {
                rejected.push(c.id);
            } else {
                kept.push(c.id);
            }
        }
        kept.extend(rejected.into_iter().take(cap - kept.len()));
        kept
    }
}

/// Frontier ordering: pops the *best* candidate first (max-heap on the
/// reversed [`neighbor_cmp`]).
struct FrontierEntry(Neighbor);

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        neighbor_cmp(&self.0, &other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for FrontierEntry {}
impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        neighbor_cmp(&other.0, &self.0)
    }
}

impl EmbeddingIndex for HnswIndex {
    /// Greedy descent through the upper layers, then a beam of
    /// `max(ef_search, k + 1)` on layer 0.
    fn top_k(&self, query: &[f32], k: usize, exclude: Option<u32>) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if self.links.is_empty() || k == 0 {
            return Vec::new();
        }
        let q_norm = self.q_norm(query);
        let mut cur = self.entry;
        for layer in (1..=self.max_layer).rev() {
            cur = self.greedy(query, q_norm, cur, layer);
        }
        // Over-fetch by one so an excluded id cannot shrink the result.
        let ef = self.cfg.ef_search.max(k + 1);
        let mut found = self.search_layer(query, q_norm, &[cur], ef, 0);
        if let Some(ex) = exclude {
            found.retain(|c| c.id != ex);
        }
        found.truncate(k);
        found
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.links.len()
    }
}

/// `items.iter().map(f)` on [`SHARDS`] contiguous shards, in item order.
fn run_sharded<I: Sync, T: Send>(
    items: &[I],
    par: Parallelism,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let shards = SHARDS.min(items.len());
    run_shards_build(shards, par, |s| {
        let range = s * items.len() / shards..(s + 1) * items.len() / shards;
        items[range].iter().map(&f).collect::<Vec<T>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Deterministic per-node top layer: geometric with ratio `1/m`, drawn
/// from `splitmix64(seed ^ id)` — insert-order independent by design.
fn index_level(seed: u64, id: u32, m: usize) -> usize {
    let h = splitmix64(seed ^ ((id as u64) << 1 | 1));
    // Map to (0, 1]; ln(u)/ln(1/m) gives the geometric layer draw.
    let u = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let mult = 1.0 / (m.max(2) as f64).ln();
    ((-u.ln() * mult) as usize).min(24)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{brute_force_reference, recall_at_k};
    use transn_graph::NodeEmbeddings;

    /// Deterministic clustered points: `clusters` centers far apart, hash
    /// jitter around each. RNG-free so the test never depends on any
    /// random stream's exact behaviour.
    pub(crate) fn clustered(n: usize, dim: usize, clusters: usize) -> NodeEmbeddings {
        let mut data = vec![0.0f32; n * dim];
        for i in 0..n {
            let c = i % clusters;
            for j in 0..dim {
                let center = if j % clusters == c { 10.0 } else { 0.0 };
                let h = splitmix64((i as u64) << 32 | j as u64);
                let jitter = (h % 2000) as f32 / 1000.0 - 1.0;
                data[i * dim + j] = center + jitter;
            }
        }
        NodeEmbeddings::from_flat(n, dim, data)
    }

    #[test]
    fn levels_are_mostly_zero_and_bounded() {
        let mut zero = 0;
        for id in 0..1000u32 {
            let l = index_level(7, id, 16);
            assert!(l <= 24);
            if l == 0 {
                zero += 1;
            }
        }
        // Geometric with ratio 1/16: ~93.75% at layer 0.
        assert!(zero > 850, "{zero}");
    }

    #[test]
    fn build_is_deterministic() {
        let emb = clustered(200, 8, 4);
        let cfg = HnswConfig::default();
        let a = HnswIndex::build(&emb, Metric::Cosine, cfg);
        let b = HnswIndex::build(&emb, Metric::Cosine, cfg);
        for q in [0usize, 50, 199] {
            assert_eq!(
                a.top_k(emb.vector(q), 10, Some(q as u32)),
                b.top_k(emb.vector(q), 10, Some(q as u32))
            );
        }
    }

    #[test]
    fn recall_on_clustered_points_is_high() {
        let emb = clustered(600, 16, 4);
        for metric in [Metric::Cosine, Metric::Dot] {
            let index = HnswIndex::build(&emb, metric, HnswConfig::default());
            let mut recall = 0.0;
            let queries = 40;
            for q in 0..queries {
                let qid = (q * 13) % 600;
                let approx = index.top_k(emb.vector(qid), 10, Some(qid as u32));
                let exact =
                    brute_force_reference(&emb, metric, emb.vector(qid), 10, Some(qid as u32));
                recall += recall_at_k(&approx, &exact);
            }
            recall /= queries as f64;
            assert!(recall >= 0.95, "{metric:?} recall {recall}");
        }
    }

    #[test]
    fn singleton_and_tiny_indexes_answer() {
        let emb = clustered(3, 4, 2);
        let index = HnswIndex::build(&emb, Metric::Dot, HnswConfig::default());
        let res = index.top_k(emb.vector(0), 5, Some(0));
        assert_eq!(res.len(), 2);
        let one = clustered(1, 4, 1);
        let index = HnswIndex::build(&one, Metric::Dot, HnswConfig::default());
        assert_eq!(index.top_k(one.vector(0), 5, Some(0)).len(), 0);
        let empty = clustered(0, 4, 1);
        let index = HnswIndex::build(&empty, Metric::Dot, HnswConfig::default());
        assert_eq!(index.top_k(&[1.0; 4], 5, None), Vec::new());
    }

    #[test]
    fn build_is_identical_at_every_worker_count() {
        // 2000 vectors: batches grow to ⌈2000/50⌉ = 40 ids.
        let emb = clustered(2000, 16, 4);
        let order: Vec<u32> = (0..2000).collect();
        let cfg = HnswConfig::default();
        let one = HnswIndex::build_on(&emb, Metric::Cosine, cfg, &order, 1);
        for workers in [2, 3, 8] {
            let other = HnswIndex::build_on(&emb, Metric::Cosine, cfg, &order, workers);
            assert!(
                one.links == other.links,
                "links differ at {workers} workers"
            );
            assert_eq!(
                (one.entry, one.max_layer),
                (other.entry, other.max_layer),
                "{workers} workers"
            );
        }
    }

    /// Up to 50 vectors every batch holds one id, so the build must be
    /// serial insertion: these ids were pinned from the serial build. The
    /// small `m` and beam keep the answers sensitive to every link.
    #[test]
    fn one_id_batches_reproduce_serial_insertion() {
        const GOLDEN: [[u32; 10]; 40] = [
            [36, 20, 12, 26, 28, 18, 16, 10, 4, 22],
            [27, 13, 37, 11, 17, 39, 19, 31, 29, 21],
            [24, 12, 4, 26, 32, 38, 36, 18, 14, 8],
            [33, 5, 11, 25, 23, 35, 31, 39, 1, 13],
            [2, 18, 24, 12, 26, 14, 38, 32, 36, 0],
            [3, 39, 33, 19, 11, 21, 35, 1, 17, 23],
            [12, 32, 22, 18, 36, 30, 14, 28, 34, 2],
            [29, 23, 31, 11, 15, 35, 27, 17, 3, 13],
            [24, 2, 26, 38, 12, 36, 10, 18, 14, 22],
            [21, 11, 39, 19, 37, 35, 31, 23, 17, 27],
            [34, 14, 0, 36, 26, 28, 22, 16, 8, 12],
            [25, 37, 31, 33, 27, 1, 13, 21, 23, 35],
            [18, 2, 32, 36, 22, 24, 6, 38, 4, 30],
            [27, 31, 37, 1, 11, 25, 15, 17, 19, 33],
            [32, 34, 30, 2, 36, 26, 4, 12, 24, 10],
            [31, 23, 37, 25, 11, 27, 13, 35, 33, 19],
            [28, 36, 0, 22, 26, 12, 10, 38, 2, 14],
            [29, 1, 11, 19, 27, 39, 13, 5, 21, 9],
            [12, 38, 4, 2, 24, 36, 0, 6, 32, 22],
            [5, 11, 21, 17, 33, 1, 37, 9, 39, 27],
            [22, 0, 12, 32, 24, 2, 30, 36, 26, 4],
            [11, 39, 19, 9, 35, 5, 33, 37, 1, 17],
            [36, 28, 12, 32, 26, 20, 6, 2, 0, 16],
            [15, 33, 11, 25, 31, 35, 7, 3, 37, 39],
            [2, 12, 4, 32, 8, 30, 26, 18, 14, 36],
            [11, 31, 33, 37, 13, 27, 23, 15, 3, 35],
            [36, 2, 22, 32, 4, 14, 24, 12, 0, 38],
            [13, 37, 1, 31, 11, 25, 15, 17, 19, 29],
            [22, 36, 16, 0, 12, 6, 10, 26, 38, 34],
            [17, 11, 7, 1, 39, 27, 3, 25, 13, 23],
            [32, 14, 12, 24, 34, 2, 6, 22, 20, 36],
            [25, 37, 13, 27, 11, 15, 23, 35, 33, 1],
            [30, 14, 12, 22, 2, 36, 6, 24, 26, 20],
            [11, 3, 25, 23, 5, 35, 19, 31, 21, 37],
            [10, 14, 30, 12, 32, 0, 24, 6, 2, 18],
            [11, 33, 37, 23, 31, 39, 21, 5, 25, 3],
            [26, 22, 12, 28, 38, 32, 2, 14, 0, 16],
            [27, 31, 11, 13, 1, 25, 15, 35, 39, 19],
            [18, 12, 36, 2, 4, 26, 0, 24, 8, 14],
            [5, 21, 11, 1, 35, 37, 9, 29, 19, 17],
        ];
        let emb = clustered(40, 8, 2);
        let cfg = HnswConfig {
            m: 3,
            ef_construction: 12,
            ef_search: 10,
            ..HnswConfig::default()
        };
        let index = HnswIndex::build(&emb, Metric::Cosine, cfg);
        for (i, want) in GOLDEN.iter().enumerate() {
            let got: Vec<u32> = index
                .top_k(emb.vector(i), 10, Some(i as u32))
                .iter()
                .map(|c| c.id)
                .collect();
            assert_eq!(got, want, "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn order_with_a_repeated_id_is_rejected() {
        let emb = clustered(4, 4, 2);
        HnswIndex::build_with_order(&emb, Metric::Dot, HnswConfig::default(), &[0, 0, 2, 3]);
    }
}
