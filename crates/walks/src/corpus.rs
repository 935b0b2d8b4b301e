//! Walk corpora and deterministic parallel generation.
//!
//! The corpus is a **CSR-style flat arena** (DESIGN.md §10): one `tokens`
//! vector holding every walk back to back and one `offsets` vector such
//! that walk `w` is `tokens[offsets[w]..offsets[w + 1]]`. Compared to the
//! nested `Vec<Vec<u32>>` it replaces, the arena
//!
//! * costs zero heap allocations per walk (one allocation amortized over
//!   the whole corpus instead of one `malloc` + `Vec` header per walk —
//!   roughly a 2–4× resident-memory cut on short Def.-6 walks), and
//! * iterates cache-linearly: an SGNS epoch is a single sequential scan
//!   over `tokens` instead of a pointer chase onto a fresh heap block per
//!   walk, for every view, every baseline, every epoch.

use transn_rng::Rng;

/// Fixed logical shard count for parallel generation. Tasks are split into
/// `min(LOGICAL_SHARDS, tasks)` contiguous ranges; workers fill one flat
/// arena per shard and the shards concatenate in shard order — which *is*
/// task order, so the corpus is bit-identical for any thread count.
const LOGICAL_SHARDS: usize = 64;

/// Per-task seed mixing constant (2⁶⁴/φ, splitmix-style odd multiplier);
/// `transn_sgns` uses the same constant for its shard streams.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A collection of sampled paths over *local* node indices of whatever
/// structure produced them (a view, a paired-subview, or the global
/// network), stored as a flat token arena.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkCorpus {
    /// Every walk's nodes, back to back.
    tokens: Vec<u32>,
    /// CSR offsets: walk `w` is `tokens[offsets[w]..offsets[w + 1]]`.
    /// Either empty (no walks) or `len() + 1` entries starting at 0.
    offsets: Vec<u32>,
}

impl WalkCorpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty corpus with room for `tokens` node occurrences across
    /// `walks` walks (no reallocation until either bound is exceeded).
    pub fn with_capacity(tokens: usize, walks: usize) -> Self {
        WalkCorpus {
            tokens: Vec::with_capacity(tokens),
            offsets: Vec::with_capacity(walks + 1),
        }
    }

    /// Flatten existing nested walks. Walks are kept verbatim (including
    /// degenerate ones shorter than 2 nodes), matching the pre-arena
    /// constructor, so tests and golden fixtures stay source-compatible.
    pub fn from_walks(walks: Vec<Vec<u32>>) -> Self {
        let total: usize = walks.iter().map(Vec::len).sum();
        let mut c = WalkCorpus::with_capacity(total, walks.len());
        for w in &walks {
            c.force_push(w);
        }
        c
    }

    /// Append a walk verbatim, bypassing the length filter.
    fn force_push(&mut self, walk: &[u32]) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.tokens.extend_from_slice(walk);
        self.offsets.push(self.tokens.len() as u32);
    }

    /// Append a walk. Walks of length < 2 carry no skip-gram signal
    /// (Definition 6 yields no context pairs) and are silently dropped —
    /// the **walk-length<2 drop rule** every generation path funnels
    /// through.
    pub fn push(&mut self, walk: &[u32]) {
        if walk.len() >= 2 {
            self.force_push(walk);
        }
    }

    /// Append a walk produced in place by `fill`, which appends the walk's
    /// tokens to the supplied buffer — the tail of the token arena itself,
    /// so a warmed corpus takes **zero** heap allocations per walk. The
    /// walk-length<2 drop rule applies: too-short walks are rolled back.
    pub fn push_with<F: FnOnce(&mut Vec<u32>)>(&mut self, fill: F) {
        let start = self.tokens.len();
        fill(&mut self.tokens);
        if self.tokens.len() - start >= 2 {
            if self.offsets.is_empty() {
                self.offsets.push(0);
            }
            self.offsets.push(self.tokens.len() as u32);
        } else {
            self.tokens.truncate(start);
        }
    }

    /// Number of stored walks (O(1)).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Walk `w` as a token slice.
    #[inline]
    pub fn walk(&self, w: usize) -> &[u32] {
        &self.tokens[self.offsets[w] as usize..self.offsets[w + 1] as usize]
    }

    /// Iterate the walks in order, each as a token slice.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone + '_ {
        self.offsets
            .windows(2)
            .map(move |pair| &self.tokens[pair[0] as usize..pair[1] as usize])
    }

    /// The flat token arena (every walk back to back).
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Total number of node occurrences (O(1)).
    pub fn total_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Heap bytes currently reserved by the arena (tokens + offsets
    /// capacity) — the corpus's resident memory.
    pub fn heap_bytes(&self) -> usize {
        self.tokens.capacity() * std::mem::size_of::<u32>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
    }

    /// Remove all walks, keeping the reserved capacity (so a regenerated
    /// corpus of similar size allocates nothing).
    pub fn clear(&mut self) {
        self.tokens.clear();
        self.offsets.clear();
    }

    /// Occurrence count per node id (length = `num_nodes`), the unigram
    /// statistics used by negative-sampling tables — a single linear pass
    /// over the token arena.
    pub fn node_frequencies(&self, num_nodes: usize) -> Vec<u64> {
        let mut freq = vec![0u64; num_nodes];
        self.node_frequencies_into(num_nodes, &mut freq);
        freq
    }

    /// [`WalkCorpus::node_frequencies`] into a caller-provided buffer
    /// (cleared and resized to `num_nodes`); allocation-free once the
    /// buffer is warmed.
    pub fn node_frequencies_into(&self, num_nodes: usize, freq: &mut Vec<u64>) {
        freq.clear();
        freq.resize(num_nodes, 0);
        for &t in &self.tokens {
            freq[t as usize] += 1;
        }
    }

    /// Merge another corpus into this one (walks keep their order:
    /// `self`'s walks first, then `other`'s).
    pub fn extend(&mut self, other: &WalkCorpus) {
        self.extend_from_arena(other);
    }

    /// Bulk arena merge: one `memcpy` of `other`'s token arena plus a
    /// rebased copy of its offsets — never re-derives per-walk slices.
    /// This is the episode handoff path: concatenating episode arenas in
    /// episode order replays the exact walk order of a monolithic
    /// generation.
    pub fn extend_from_arena(&mut self, other: &WalkCorpus) {
        let base = self.tokens.len() as u32;
        self.tokens.extend_from_slice(&other.tokens);
        if let Some((_, rest)) = other.offsets.split_first() {
            if self.offsets.is_empty() {
                self.offsets.push(0);
            }
            self.offsets.extend(rest.iter().map(|&o| base + o));
        }
    }
}

/// Generate a corpus by fanning `tasks` out over `threads` workers, each
/// task running `gen(task, rng, out)` with an RNG seeded as
/// `seed ⊕ task-index · φ64` — deterministic for a fixed seed regardless
/// of thread count or scheduling. The closure appends whole walks to `out`
/// (typically via [`WalkCorpus::push_with`] around an engine's
/// `walk_into`), so the per-walk path never touches the allocator.
///
/// `tasks` are typically `(start_node, n_walks)` pairs.
pub fn parallel_generate<T, F>(tasks: &[T], threads: usize, seed: u64, gen: F) -> WalkCorpus
where
    T: Sync,
    F: Fn(&T, &mut Rng, &mut WalkCorpus) + Sync,
{
    let mut corpus = WalkCorpus::new();
    parallel_generate_into(&mut corpus, tasks, threads, seed, gen);
    corpus
}

/// [`parallel_generate`] into a caller-owned corpus (cleared first,
/// capacity retained). Single-threaded generation into a warmed corpus is
/// allocation-free; multi-threaded generation fills one flat arena per
/// logical shard (a contiguous task range) and concatenates the shards in
/// shard order, so the result is bit-identical to the serial task-order
/// pass for any thread count.
pub fn parallel_generate_into<T, F>(
    out: &mut WalkCorpus,
    tasks: &[T],
    threads: usize,
    seed: u64,
    gen: F,
) where
    T: Sync,
    F: Fn(&T, &mut Rng, &mut WalkCorpus) + Sync,
{
    parallel_generate_offset_into(out, tasks, 0, threads, seed, gen);
}

/// [`parallel_generate_into`] over an episode slice of a larger task list:
/// `tasks` are positions `base_idx..base_idx + tasks.len()` of the full
/// list, and each task's RNG is seeded by its **global** index
/// (`seed ⊕ (base_idx + i) · φ64`). Generating contiguous episode slices
/// and concatenating the arenas in episode order is therefore bit-identical
/// to one monolithic [`parallel_generate_into`] over the full task list —
/// for any thread count *and* any episode size.
pub fn parallel_generate_offset_into<T, F>(
    out: &mut WalkCorpus,
    tasks: &[T],
    base_idx: usize,
    threads: usize,
    seed: u64,
    gen: F,
) where
    T: Sync,
    F: Fn(&T, &mut Rng, &mut WalkCorpus) + Sync,
{
    out.clear();
    let threads = threads.max(1);
    if tasks.is_empty() {
        return;
    }

    // Per-task RNG stream keyed by global task index, identical in every
    // execution mode and for every episode decomposition.
    let task_rng =
        |idx: usize| Rng::seed_from_u64(seed ^ ((base_idx + idx) as u64).wrapping_mul(SEED_MIX));

    if threads == 1 || tasks.len() == 1 {
        for (idx, task) in tasks.iter().enumerate() {
            gen(task, &mut task_rng(idx), out);
        }
        return;
    }

    // Contiguous shard ranges: shard s owns tasks
    // [s·n/S, (s+1)·n/S). Concatenating shards 0..S in order replays
    // exact task order, so the decomposition only affects which worker
    // fills which arena — never the result.
    let num_shards = LOGICAL_SHARDS.min(tasks.len());
    let shard_range = |s: usize| {
        let lo = s * tasks.len() / num_shards;
        let hi = (s + 1) * tasks.len() / num_shards;
        lo..hi
    };

    let mut shards: Vec<(usize, WalkCorpus)> = std::thread::scope(|scope| {
        let gen = &gen;
        let handles: Vec<_> = (0..threads.min(num_shards))
            .map(|t| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, WalkCorpus)> = Vec::new();
                    let mut s = t;
                    while s < num_shards {
                        let mut arena = WalkCorpus::new();
                        for idx in shard_range(s) {
                            gen(&tasks[idx], &mut task_rng(idx), &mut arena);
                        }
                        local.push((s, arena));
                        s += threads;
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("walk worker panicked"))
            .collect()
    });
    shards.sort_by_key(|&(s, _)| s);

    // Exact final reservation: the concatenated arena never over-allocates.
    let total_tokens: usize = shards.iter().map(|(_, a)| a.total_tokens()).sum();
    let total_walks: usize = shards.iter().map(|(_, a)| a.len()).sum();
    out.tokens.reserve_exact(total_tokens);
    out.offsets.reserve_exact(total_walks + 1);
    for (_, arena) in &shards {
        out.extend(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_drops_trivial_walks() {
        let mut c = WalkCorpus::new();
        c.push(&[1]);
        c.push(&[]);
        c.push(&[1, 2]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_tokens(), 2);
        assert_eq!(c.walk(0), &[1, 2]);
    }

    #[test]
    fn push_with_rolls_back_trivial_walks() {
        let mut c = WalkCorpus::new();
        c.push_with(|buf| buf.push(7));
        assert!(c.is_empty());
        assert_eq!(c.total_tokens(), 0);
        c.push_with(|buf| buf.extend_from_slice(&[3, 4, 5]));
        c.push_with(|_| {});
        assert_eq!(c.len(), 1);
        assert_eq!(c.walk(0), &[3, 4, 5]);
    }

    #[test]
    fn from_walks_keeps_degenerate_walks() {
        let c = WalkCorpus::from_walks(vec![vec![9], vec![0, 1], vec![]]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.walk(0), &[9]);
        assert_eq!(c.walk(1), &[0, 1]);
        assert_eq!(c.walk(2), &[] as &[u32]);
    }

    #[test]
    fn node_frequencies_count_occurrences() {
        let c = WalkCorpus::from_walks(vec![vec![0, 1, 0], vec![2, 0]]);
        let f = c.node_frequencies(4);
        assert_eq!(f, vec![3, 1, 1, 0]);
    }

    #[test]
    fn iter_yields_walk_slices_in_order() {
        let c = WalkCorpus::from_walks(vec![vec![0, 1, 0], vec![2, 0]]);
        let walks: Vec<&[u32]> = c.iter().collect();
        assert_eq!(walks, vec![&[0, 1, 0][..], &[2, 0][..]]);
        assert_eq!(c.iter().len(), 2);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut c = WalkCorpus::from_walks(vec![vec![0, 1, 2, 3], vec![4, 5]]);
        let bytes = c.heap_bytes();
        assert!(bytes >= 6 * 4);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.total_tokens(), 0);
        assert_eq!(c.heap_bytes(), bytes);
    }

    #[test]
    fn parallel_generation_is_deterministic_across_thread_counts() {
        let tasks: Vec<u32> = (0..37).collect();
        let make = |threads: usize| {
            parallel_generate(&tasks, threads, 123, |&t, rng, out| {
                out.push(&[t, rng.random_range(0..100u32)]);
            })
        };
        let a = make(1);
        let b = make(4);
        let c = make(7);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.len(), 37);
        // Task order: walk i starts at task i's id.
        for (i, w) in a.iter().enumerate() {
            assert_eq!(w[0], i as u32);
        }
    }

    #[test]
    fn parallel_generation_empty_tasks() {
        let tasks: Vec<u32> = vec![];
        let c = parallel_generate(&tasks, 4, 0, |_, _, out| out.push(&[0, 1]));
        assert!(c.is_empty());
    }

    #[test]
    fn generate_into_reuses_capacity() {
        let tasks: Vec<u32> = (0..50).collect();
        let mut c = WalkCorpus::new();
        parallel_generate_into(&mut c, &tasks, 1, 9, |&t, _, out| {
            out.push(&[t, t + 1, t + 2])
        });
        let bytes = c.heap_bytes();
        assert_eq!(c.len(), 50);
        parallel_generate_into(&mut c, &tasks, 1, 9, |&t, _, out| {
            out.push(&[t, t + 1, t + 2])
        });
        assert_eq!(c.len(), 50);
        assert_eq!(
            c.heap_bytes(),
            bytes,
            "regeneration must not grow the arena"
        );
    }

    #[test]
    fn extend_from_arena_equals_walk_by_walk_push() {
        let a = WalkCorpus::from_walks(vec![vec![0, 1], vec![2, 3, 4]]);
        let b = WalkCorpus::from_walks(vec![vec![5, 6, 7], vec![8, 9]]);
        // Bulk path.
        let mut bulk = a.clone();
        bulk.extend_from_arena(&b);
        // Reference: re-derive every walk slice and push it.
        let mut slow = a.clone();
        for w in b.iter() {
            slow.push(w);
        }
        assert_eq!(bulk, slow);
        // Into an empty corpus too.
        let mut bulk = WalkCorpus::new();
        bulk.extend_from_arena(&b);
        assert_eq!(bulk, b);
    }

    #[test]
    fn clear_keeps_high_water() {
        // A "giant episode" fills the arena...
        let mut c = WalkCorpus::new();
        for i in 0..1000u32 {
            c.push(&[i, i + 1, i + 2, i + 3]);
        }
        let high_water = c.heap_bytes();
        // ...and clear keeps the peak capacity pinned (steady-state contract).
        c.clear();
        assert_eq!(c.heap_bytes(), high_water);
    }

    #[test]
    fn offset_generation_concatenates_to_monolithic() {
        use transn_rng::Rng;
        let tasks: Vec<u32> = (0..53).collect();
        let gen = |&t: &u32, rng: &mut Rng, out: &mut WalkCorpus| {
            let len = rng.random_range(2..6usize);
            out.push_with(|buf| {
                buf.push(t);
                for _ in 1..len {
                    buf.push(rng.random_range(0..100u32));
                }
            });
        };
        let monolithic = parallel_generate(&tasks, 4, 77, gen);
        // Uneven episode slices, varying thread counts per episode.
        for chunk in [1usize, 7, 20, 53] {
            let mut episodic = WalkCorpus::new();
            let mut arena = WalkCorpus::new();
            let mut base = 0;
            let mut threads = 1;
            while base < tasks.len() {
                let hi = (base + chunk).min(tasks.len());
                parallel_generate_offset_into(&mut arena, &tasks[base..hi], base, threads, 77, gen);
                episodic.extend_from_arena(&arena);
                base = hi;
                threads = threads % 4 + 1;
            }
            assert_eq!(episodic, monolithic, "chunk {chunk}");
        }
    }

    #[test]
    fn extend_merges() {
        let mut a = WalkCorpus::from_walks(vec![vec![0, 1]]);
        let b = WalkCorpus::from_walks(vec![vec![2, 3], vec![4, 5, 6]]);
        a.extend(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.walk(1), &[2, 3]);
        assert_eq!(a.walk(2), &[4, 5, 6]);
        assert_eq!(a.total_tokens(), 7);
        // Extending from empty works too.
        let mut e = WalkCorpus::new();
        e.extend(&a);
        assert_eq!(e, a);
        e.extend(&WalkCorpus::new());
        assert_eq!(e, a);
    }
}
