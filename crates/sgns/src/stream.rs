//! The stream schedule: the one SGNS epoch schedule, trained as a
//! sequence of walk episodes (DESIGN.md §13).
//!
//! An epoch is cut into contiguous episodes of ≈ `episode_walks` walks;
//! `episode_walks = 0` makes the whole epoch one episode. The schedule is
//! episode-decomposable by construction:
//!
//! * walks are applied in **global corpus order** (Strict / sequential
//!   execution), so a run cut into episodes applies the identical update
//!   sequence as one giant episode;
//! * every walk `g` (global index across episodes) draws noise from its own
//!   RNG, seeded `seed ⊕ g · φ64` — no stream crosses an episode boundary;
//! * the linear lr decay is keyed by the **global pair index** over the
//!   exact corpus-wide pair total, so the schedule is independent of how
//!   the corpus is cut.
//!
//! Under Strict determinism the result is therefore bit-identical for any
//! episode size, any `episodes_in_flight`, and any thread count. Hogwild
//! execution cuts each episode's walks into contiguous shards with the
//! same per-walk seeds and lr positions — identical *work*, racy update
//! interleaving. [`SgnsModel::train_corpus`] is the same schedule over one
//! resident corpus.
//!
//! The noise distribution and the lr pair total are exact corpus-wide
//! values: every episode is generated once up front (walks are cheap to
//! replay — they are a pure function of the seed) and folded into a
//! [`NoiseAccumulator`], so Strict results do not depend on the episode
//! size, bit for bit. When the plan has one episode, that pre-pass arena
//! already holds the whole epoch and is trained in place — one generation
//! pass, no producer thread.

use crate::context::{context_pairs, count_pairs};
use crate::negative::{NoiseAccumulator, NoiseScratch, NoiseTable};
use crate::sgns::{pair_update, Rows, SgnsConfig, SgnsModel, TrainScratch};
use crate::sync::{run_shards, RacyTable};
use std::ops::Range;
use transn_rng::Rng;
use transn_walks::{plan_episodes_into, EpisodeBuffer, WalkCorpus};

/// Fixed logical shard count for Hogwild execution: of an episode's `n`
/// walks, shard `s` owns the contiguous block `[s·n/S, (s+1)·n/S)`, with
/// `S = min(LOGICAL_SHARDS, n)`. A worker trains its shards `t, t + T, …`
/// in order, so it meets its walks in corpus order and its learning rate
/// decays once over the episode. Sequential execution ignores it.
const LOGICAL_SHARDS: usize = 64;

/// Per-walk seed mixing constant (2⁶⁴/φ, the same splitmix-style odd
/// multiplier `transn_walks::parallel_generate` uses for per-task seeds).
const WALK_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Persistent state for [`train_epoch_episodic`]: the episode plan, the
/// arena pool, the frequency accumulator, the in-place-rebuilt noise table,
/// and the training scratch. Hold one across epochs — after the first
/// epoch warms every buffer, a steady-state epoch at
/// `episodes_in_flight == 1`, or with a one-episode plan, performs no heap
/// allocation.
#[derive(Clone, Debug)]
pub struct EpisodicState {
    episodes: Vec<Range<usize>>,
    buffer: EpisodeBuffer,
    prepass: WalkCorpus,
    prepass_peak: usize,
    acc: NoiseAccumulator,
    noise_scratch: NoiseScratch,
    noise: Option<NoiseTable>,
    scratch: TrainScratch,
}

impl EpisodicState {
    /// Fresh state with `episodes_in_flight` arenas (clamped to ≥ 1).
    pub fn new(episodes_in_flight: usize) -> Self {
        EpisodicState {
            episodes: Vec::new(),
            buffer: EpisodeBuffer::new(episodes_in_flight.max(1)),
            prepass: WalkCorpus::new(),
            prepass_peak: 0,
            acc: NoiseAccumulator::default(),
            noise_scratch: NoiseScratch::default(),
            noise: None,
            scratch: TrainScratch::default(),
        }
    }

    /// Highest resident corpus bytes observed: the arena pool's high-water
    /// sum plus the pre-pass arena. This is the number the
    /// bounded-memory claim is about — it stays at ~`episodes_in_flight`
    /// episode arenas no matter how large the full corpus is. With one
    /// episode per epoch the pre-pass arena holds the whole corpus.
    pub fn peak_corpus_bytes(&self) -> usize {
        self.buffer.peak_heap_bytes() + self.prepass_peak.max(self.prepass.heap_bytes())
    }
}

/// One epoch of episodic SGNS over a task list.
///
/// `walks_per_task(i)` sizes task `i` for episode planning;
/// `generate(range, arena)` must fill `arena` with exactly the walks of
/// tasks `range` of the full list, clearing it first and seeding per-task
/// RNGs by **global** task index (i.e. delegate to
/// [`transn_walks::parallel_generate_offset_into`] with
/// `base_idx = range.start`). Episodes are planned with
/// `cfg.episode.episode_walks` (0 = one episode spanning everything) and
/// pipelined through the state's [`EpisodeBuffer`]: with two or more arenas
/// in flight a producer thread generates episode N+1 while the caller
/// trains episode N. A one-episode plan skips the buffer and trains the
/// pre-pass arena in place through [`SgnsModel::train_corpus`].
///
/// Returns the mean pair loss.
pub fn train_epoch_episodic<G>(
    model: &mut SgnsModel,
    num_nodes: usize,
    num_tasks: usize,
    walks_per_task: impl Fn(usize) -> usize,
    generate: G,
    cfg: &SgnsConfig,
    state: &mut EpisodicState,
) -> f32
where
    G: Fn(Range<usize>, &mut WalkCorpus) + Sync,
{
    plan_episodes_into(
        &mut state.episodes,
        num_tasks,
        &walks_per_task,
        cfg.episode.episode_walks,
    );
    if state.episodes.is_empty() {
        return 0.0;
    }
    state.acc.reset(num_nodes);

    // Replay generation once up front for exact corpus-wide frequencies
    // and the exact lr pair total.
    for r in &state.episodes {
        generate(r.clone(), &mut state.prepass);
        state.acc.fold(&state.prepass, cfg.window);
    }
    state.prepass_peak = state.prepass_peak.max(state.prepass.heap_bytes());
    if state.acc.tokens() == 0 {
        return 0.0;
    }
    rebuild_noise(&mut state.noise, &state.acc, &mut state.noise_scratch);
    let noise = state.noise.as_ref().expect("noise table just built");
    if state.episodes.len() == 1 {
        // The pre-pass arena holds the whole epoch: train it in place.
        return model.train_corpus(&state.prepass, noise, cfg, &mut state.scratch);
    }
    let total_pairs = state.acc.pairs();

    let mut loss_sum = 0.0f64;
    let mut pairs_done = 0u64;
    let mut walks_done = 0u64;
    let scratch = &mut state.scratch;
    let episodes: &[Range<usize>] = &state.episodes;
    let generate = &generate;
    state.buffer.run(
        episodes.len(),
        |e, arena| generate(episodes[e].clone(), arena),
        |_, arena| {
            let (l, d) = train_episode_stream(
                model,
                arena,
                noise,
                cfg,
                walks_done,
                pairs_done,
                total_pairs,
                scratch,
            );
            loss_sum += l;
            pairs_done += d;
            walks_done += arena.len() as u64;
        },
    );
    mean_loss(loss_sum, pairs_done)
}

/// Mean pair loss of a pass, 0 when no pair was trained.
pub(crate) fn mean_loss(loss_sum: f64, pairs: u64) -> f32 {
    if pairs == 0 {
        0.0
    } else {
        (loss_sum / pairs as f64) as f32
    }
}

/// Build or in-place rebuild the noise table from the accumulated counts.
fn rebuild_noise(noise: &mut Option<NoiseTable>, acc: &NoiseAccumulator, ws: &mut NoiseScratch) {
    match noise {
        Some(t) => t.rebuild_from_frequencies(acc.frequencies(), ws),
        None => *noise = Some(NoiseTable::from_frequencies(acc.frequencies())),
    }
}

/// Train one episode under the stream schedule. `first_walk` / `first_pair`
/// are the global walk and pair indices of the episode's first walk (the
/// running totals across previously-trained episodes of this epoch), and
/// `total_pairs` is the corpus-wide lr denominator. Returns
/// `(loss_sum, pairs_done)`.
///
/// Sequential execution ([`crate::Parallelism::is_sequential`]) applies
/// walks in global corpus order — the episode-size-invariant schedule —
/// updating the model's tables in place. Hogwild trains contiguous shards
/// of the episode's walks on the configured workers, sharing the
/// tables through [`RacyTable`] views; per-walk seeds and lr positions are
/// unchanged, so only update interleaving differs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_episode_stream(
    model: &mut SgnsModel,
    corpus: &WalkCorpus,
    noise: &NoiseTable,
    cfg: &SgnsConfig,
    first_walk: u64,
    first_pair: u64,
    total_pairs: u64,
    ws: &mut TrainScratch,
) -> (f64, u64) {
    if corpus.is_empty() {
        return (0.0, 0);
    }
    let dim = model.dim();
    // Per-walk global pair starts: walk w's first pair index, so lr decay
    // is positionally exact under any execution order.
    ws.pair_starts.clear();
    let mut p = first_pair;
    for w in 0..corpus.len() {
        ws.pair_starts.push(p);
        p += count_pairs(corpus.walk(w).len(), cfg.window) as u64;
    }
    let pair_starts = &ws.pair_starts;
    let num_shards = LOGICAL_SHARDS.min(corpus.len());
    let (input, output) = model.tables_mut();
    if cfg.parallelism.is_sequential(num_shards) {
        ws.pair_scratch.resize(3 * dim, 0.0);
        let scratch = &mut ws.pair_scratch;
        let mut acc = (0.0f64, 0u64);
        // `w` indexes the corpus, the pair-start table, and the global
        // walk counter in lockstep — a range loop is the clear spelling.
        #[allow(clippy::needless_range_loop)]
        for w in 0..corpus.len() {
            let (l, d) = train_walk_stream(
                input,
                output,
                dim,
                corpus.walk(w),
                noise,
                cfg,
                first_walk + w as u64,
                pair_starts[w],
                total_pairs,
                scratch,
            );
            acc.0 += l;
            acc.1 += d;
        }
        acc
    } else {
        let (input, output) = (RacyTable::new(input), RacyTable::new(output));
        let n = corpus.len();
        let per_shard = run_shards(num_shards, cfg.parallelism, |s| {
            let (mut input, mut output) = (&input, &output);
            let mut scratch = vec![0.0f32; 3 * dim];
            let mut acc = (0.0f64, 0u64);
            // As in the sequential branch, `w` indexes the corpus, the
            // pair-start table and the global walk counter in lockstep.
            #[allow(clippy::needless_range_loop)]
            for w in s * n / num_shards..(s + 1) * n / num_shards {
                let (l, d) = train_walk_stream(
                    &mut input,
                    &mut output,
                    dim,
                    corpus.walk(w),
                    noise,
                    cfg,
                    first_walk + w as u64,
                    pair_starts[w],
                    total_pairs,
                    &mut scratch,
                );
                acc.0 += l;
                acc.1 += d;
            }
            acc
        });
        per_shard
            .into_iter()
            .fold((0.0f64, 0u64), |(l, d), (ls, ds)| (l + ls, d + ds))
    }
}

/// Apply one walk's pairs: RNG seeded by the walk's global index, lr by
/// global pair position over `total_pairs`.
#[allow(clippy::too_many_arguments)]
fn train_walk_stream<I: Rows + ?Sized, O: Rows + ?Sized>(
    input: &mut I,
    output: &mut O,
    dim: usize,
    walk: &[u32],
    noise: &NoiseTable,
    cfg: &SgnsConfig,
    global_walk: u64,
    first_pair: u64,
    total_pairs: u64,
    scratch: &mut [f32],
) -> (f64, u64) {
    let mut rng = Rng::seed_from_u64(cfg.seed ^ global_walk.wrapping_mul(WALK_SEED_MIX));
    let mut pair = first_pair;
    let mut loss_sum = 0.0f64;
    context_pairs(walk, cfg.window, |center, ctx| {
        let frac = 1.0 - pair as f32 / total_pairs.max(1) as f32;
        let lr = cfg.lr0 * frac.max(cfg.min_lr_frac);
        loss_sum += pair_update(
            input,
            output,
            dim,
            center,
            ctx,
            noise,
            cfg.negatives,
            lr,
            &mut rng,
            scratch,
        ) as f64;
        pair += 1;
    });
    (loss_sum, pair - first_pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Parallelism;
    use transn_rng::Rng;
    use transn_walks::{parallel_generate_offset_into, EpisodeConfig};

    fn random_corpus(walks: usize, nodes: u32, seed: u64) -> WalkCorpus {
        let mut rng = Rng::seed_from_u64(seed);
        let mut c = WalkCorpus::new();
        for _ in 0..walks {
            let len = rng.random_range(2..8usize);
            c.push_with(|buf| {
                for _ in 0..len {
                    buf.push(rng.random_range(0..nodes));
                }
            });
        }
        c
    }

    fn table_bits(model: &SgnsModel) -> Vec<u32> {
        model.input_table().iter().map(|v| v.to_bits()).collect()
    }

    /// Chopping a corpus into episodes and streaming them through
    /// `train_episode_stream` with running offsets reproduces the single
    /// giant episode bit for bit (sequential execution).
    #[test]
    fn episodic_stream_matches_single_episode_bitwise() {
        let n = 30u32;
        let corpus = random_corpus(200, n, 3);
        let noise = NoiseTable::from_frequencies(&corpus.node_frequencies(n as usize));
        for par in [Parallelism::single(), Parallelism::strict(4)] {
            let cfg = SgnsConfig {
                dim: 8,
                negatives: 3,
                seed: 21,
                parallelism: par,
                ..Default::default()
            };
            let mut mono = SgnsModel::new(n as usize, cfg.dim, &mut Rng::seed_from_u64(5));
            let mut ws = TrainScratch::default();
            let mono_loss = mono.train_corpus(&corpus, &noise, &cfg, &mut ws);

            for chunk in [1usize, 17, 64, 500] {
                let mut model = SgnsModel::new(n as usize, cfg.dim, &mut Rng::seed_from_u64(5));
                let total: u64 = (0..corpus.len())
                    .map(|w| count_pairs(corpus.walk(w).len(), cfg.window) as u64)
                    .sum();
                let mut walks_done = 0u64;
                let mut pairs_done = 0u64;
                let mut loss = (0.0f64, 0u64);
                let mut base = 0usize;
                while base < corpus.len() {
                    let hi = (base + chunk).min(corpus.len());
                    let mut episode = WalkCorpus::new();
                    for w in base..hi {
                        episode.push(corpus.walk(w));
                    }
                    let (l, d) = train_episode_stream(
                        &mut model, &episode, &noise, &cfg, walks_done, pairs_done, total, &mut ws,
                    );
                    loss.0 += l;
                    loss.1 += d;
                    walks_done += episode.len() as u64;
                    pairs_done += d;
                    base = hi;
                }
                assert_eq!(
                    table_bits(&model),
                    table_bits(&mono),
                    "chunk {chunk} {par:?}"
                );
                let mean = (loss.0 / loss.1 as f64) as f32;
                assert_eq!(mean.to_bits(), mono_loss.to_bits(), "chunk {chunk}");
            }
        }
    }

    /// The two instantiations of the pair body cannot drift: a loop of the
    /// racy one (`&RacyTable` rows) over the stream schedule's walks,
    /// per-walk seeds and lr positions reproduces a Strict `train_corpus`,
    /// which updates the tables in place, bit for bit. `dim = 19` covers
    /// both the 8-lane body and the tail of the kernels.
    #[test]
    fn in_place_pass_equals_the_racy_pair_body() {
        let n = 30u32;
        let corpus = random_corpus(200, n, 4);
        let noise = NoiseTable::from_frequencies(&corpus.node_frequencies(n as usize));
        let cfg = SgnsConfig {
            dim: 19,
            negatives: 3,
            seed: 8,
            parallelism: Parallelism::strict(4),
            ..Default::default()
        };
        let mut in_place = SgnsModel::new(n as usize, cfg.dim, &mut Rng::seed_from_u64(5));
        let loss = in_place.train_corpus(&corpus, &noise, &cfg, &mut TrainScratch::default());

        let mut racy = SgnsModel::new(n as usize, cfg.dim, &mut Rng::seed_from_u64(5));
        let total: u64 = (0..corpus.len())
            .map(|w| count_pairs(corpus.walk(w).len(), cfg.window) as u64)
            .sum();
        let (mut pair, mut loss_sum) = (0u64, 0.0f64);
        {
            let (input, output) = racy.tables_mut();
            let (input, output) = (RacyTable::new(input), RacyTable::new(output));
            let (mut input, mut output) = (&input, &output);
            let mut scratch = vec![0.0f32; 3 * cfg.dim];
            for w in 0..corpus.len() {
                let mut rng = Rng::seed_from_u64(cfg.seed ^ (w as u64).wrapping_mul(WALK_SEED_MIX));
                context_pairs(corpus.walk(w), cfg.window, |center, ctx| {
                    let frac = 1.0 - pair as f32 / total as f32;
                    let lr = cfg.lr0 * frac.max(cfg.min_lr_frac);
                    loss_sum += pair_update(
                        &mut input,
                        &mut output,
                        cfg.dim,
                        center,
                        ctx,
                        &noise,
                        cfg.negatives,
                        lr,
                        &mut rng,
                        &mut scratch,
                    ) as f64;
                    pair += 1;
                });
            }
        }
        let bits = |m: &mut SgnsModel| {
            let (i, o) = m.tables_mut();
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (bits(i), bits(o))
        };
        assert_eq!(bits(&mut in_place), bits(&mut racy));
        assert_eq!(loss.to_bits(), mean_loss(loss_sum, pair).to_bits());
    }

    /// End-to-end `train_epoch_episodic`: episode size,
    /// arenas in flight, and thread count never change the Strict result.
    #[test]
    fn epoch_episodic_invariant_to_decomposition() {
        let n = 40usize;
        let tasks: Vec<u32> = (0..60).collect();
        let generate = |r: Range<usize>, arena: &mut WalkCorpus| {
            parallel_generate_offset_into(
                arena,
                &tasks[r.clone()],
                r.start,
                2,
                77,
                |&t, rng, out| {
                    let len = rng.random_range(2..7usize);
                    out.push_with(|buf| {
                        buf.push(t % n as u32);
                        for _ in 1..len {
                            buf.push(rng.random_range(0..n as u32));
                        }
                    });
                },
            );
        };
        let run = |episode_walks: usize, in_flight: usize, threads: usize| {
            let cfg = SgnsConfig {
                dim: 8,
                negatives: 3,
                seed: 13,
                parallelism: Parallelism::strict(threads),
                episode: EpisodeConfig {
                    episode_walks,
                    episodes_in_flight: in_flight,
                },
                ..Default::default()
            };
            let mut model = SgnsModel::new(n, cfg.dim, &mut Rng::seed_from_u64(2));
            let mut state = EpisodicState::new(in_flight);
            let loss = train_epoch_episodic(
                &mut model,
                n,
                tasks.len(),
                |_| 1,
                generate,
                &cfg,
                &mut state,
            );
            assert!(state.peak_corpus_bytes() > 0);
            (loss.to_bits(), table_bits(&model))
        };
        let reference = run(0, 1, 1); // one episode, trained in place
        for (episode_walks, in_flight, threads) in [
            (0, 2, 4),
            (7, 1, 1),
            (7, 2, 2),
            (16, 2, 4),
            (16, 3, 8),
            (1, 2, 1),
        ] {
            assert_eq!(
                run(episode_walks, in_flight, threads),
                reference,
                "episode_walks={episode_walks} in_flight={in_flight} threads={threads}"
            );
        }
    }

    /// Hogwild workers meet their walks in corpus order, so each sees the
    /// learning rate decay once and a first pass lands within 1.1× of
    /// Strict's loss.
    #[test]
    fn hogwild_first_pass_loss_tracks_strict() {
        // 2,000 walks of 20 nodes, each inside one of 20 communities of
        // 10 nodes: structure the model can learn within one pass.
        let (n, per) = (200u32, 10u32);
        let mut rng = Rng::seed_from_u64(9);
        let mut corpus = WalkCorpus::new();
        for _ in 0..2000 {
            let c = rng.random_range(0..n / per) * per;
            corpus.push_with(|buf| {
                for _ in 0..20 {
                    buf.push(c + rng.random_range(0..per));
                }
            });
        }
        let noise = NoiseTable::from_frequencies(&corpus.node_frequencies(n as usize));
        let first_pass = |parallelism| {
            let cfg = SgnsConfig {
                dim: 16,
                seed: 3,
                parallelism,
                ..Default::default()
            };
            let mut model = SgnsModel::new(n as usize, cfg.dim, &mut Rng::seed_from_u64(5));
            model.train_corpus(&corpus, &noise, &cfg, &mut TrainScratch::default())
        };
        let strict = first_pass(Parallelism::strict(2));
        let hogwild = first_pass(Parallelism::hogwild(2));
        assert!(
            hogwild < 1.1 * strict,
            "Hogwild(2) first-pass loss {hogwild} vs Strict {strict}"
        );
    }

    #[test]
    fn empty_task_list_is_a_noop() {
        let cfg = SgnsConfig {
            dim: 4,
            ..Default::default()
        };
        let mut model = SgnsModel::new(3, cfg.dim, &mut Rng::seed_from_u64(1));
        let before = model.input_table().to_vec();
        let mut state = EpisodicState::new(2);
        let loss = train_epoch_episodic(
            &mut model,
            3,
            0,
            |_| 1,
            |_, arena: &mut WalkCorpus| arena.clear(),
            &cfg,
            &mut state,
        );
        assert_eq!(loss, 0.0);
        assert_eq!(model.input_table(), &before[..]);
    }
}
