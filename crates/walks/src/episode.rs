//! Episodic walk generation: bounded-memory double buffering.
//!
//! Out-of-core training (DESIGN.md §13) never materializes a monolithic
//! walk corpus. Instead the task list is cut into contiguous **episodes**
//! of ≈ `episode_walks` walks each ([`plan_episodes_into`]), and an
//! [`EpisodeBuffer`] circulates a fixed set of reusable [`WalkCorpus`]
//! arenas between a producer (walk generation via
//! [`crate::corpus::parallel_generate_offset_into`]) and a consumer
//! (SGNS / cross-view training):
//!
//! ```text
//!              free arenas                    full arenas
//!   consumer ──────────────▶ producer ──────────────────▶ consumer
//!      ▲   (bounded channel)    │      (bounded channel)      │
//!      └────────────────────────┴──────── trains episode N ───┘
//!                 while the producer generates episode N+1
//! ```
//!
//! Resident corpus memory is capped at `episodes_in_flight` arenas (two,
//! by default — a classic double buffer) regardless of graph size. Because
//! every task's RNG is seeded by its *global* task index (the same φ64
//! mixing as `parallel_generate`), the concatenation of episode arenas is
//! bit-identical to one monolithic generation for any thread count, any
//! episode size, and any `episodes_in_flight`.

use crate::corpus::WalkCorpus;
use std::ops::Range;
use std::sync::mpsc;

/// How a training run is cut into episodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpisodeConfig {
    /// Target walks per episode. `0` (the default) makes the whole epoch
    /// one episode: the corpus is generated once and trained in place,
    /// with no producer thread.
    pub episode_walks: usize,
    /// Number of episode arenas circulating between producer and
    /// consumer. `1` runs generation and training strictly alternately
    /// (no overlap, single resident arena); `2` is the double buffer.
    pub episodes_in_flight: usize,
}

impl Default for EpisodeConfig {
    fn default() -> Self {
        EpisodeConfig {
            episode_walks: 0,
            episodes_in_flight: 2,
        }
    }
}

impl EpisodeConfig {
    /// Validate the configuration (used by `SgnsConfig`/`TransNConfig`
    /// validation).
    pub fn validate(&self) -> Result<(), String> {
        if self.episodes_in_flight == 0 {
            return Err("episodes_in_flight must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Cut `num_tasks` tasks into contiguous episode ranges, each covering at
/// least `episode_walks` walks (`walks_per_task(i)` walks for task `i`)
/// except possibly the last. `episode_walks == 0` yields a single episode
/// spanning everything (one episode per epoch). The plan vector is
/// cleared first and reused across epochs (allocation-free once warmed).
pub fn plan_episodes_into(
    plan: &mut Vec<Range<usize>>,
    num_tasks: usize,
    walks_per_task: impl Fn(usize) -> usize,
    episode_walks: usize,
) {
    plan.clear();
    if num_tasks == 0 {
        return;
    }
    if episode_walks == 0 {
        plan.push(0..num_tasks);
        return;
    }
    let mut start = 0;
    let mut walks = 0;
    for i in 0..num_tasks {
        walks += walks_per_task(i);
        if walks >= episode_walks {
            plan.push(start..i + 1);
            start = i + 1;
            walks = 0;
        }
    }
    if start < num_tasks {
        plan.push(start..num_tasks);
    }
}

/// A fixed pool of reusable walk arenas circulating between one producer
/// (generation) and one consumer (training). See the module docs for the
/// lifecycle diagram.
#[derive(Clone, Debug)]
pub struct EpisodeBuffer {
    arenas: Vec<WalkCorpus>,
    peak_heap_bytes: usize,
}

impl EpisodeBuffer {
    /// A buffer of `episodes_in_flight` empty arenas.
    ///
    /// # Panics
    /// Panics if `episodes_in_flight` is 0.
    pub fn new(episodes_in_flight: usize) -> Self {
        assert!(episodes_in_flight >= 1, "episodes_in_flight must be >= 1");
        EpisodeBuffer {
            arenas: (0..episodes_in_flight).map(|_| WalkCorpus::new()).collect(),
            peak_heap_bytes: 0,
        }
    }

    /// Number of arenas in the pool.
    pub fn in_flight(&self) -> usize {
        self.arenas.len()
    }

    /// Current resident corpus bytes: the summed heap reservation of every
    /// arena in the pool.
    pub fn heap_bytes(&self) -> usize {
        self.arenas.iter().map(WalkCorpus::heap_bytes).sum()
    }

    /// Highest resident corpus bytes observed across all [`run`] calls
    /// (sum of each arena's high-water reservation).
    ///
    /// [`run`]: EpisodeBuffer::run
    pub fn peak_heap_bytes(&self) -> usize {
        self.peak_heap_bytes
    }

    /// Drive `episodes` through the pipeline: `generate(e, arena)` fills
    /// an arena with episode `e` (it must clear the arena first, as
    /// `parallel_generate_offset_into` does), then `consume(e, arena)`
    /// trains on it. Episodes are always consumed in order `0..episodes`.
    ///
    /// With one arena in flight this is a strict generate→train
    /// alternation on the calling thread — allocation-free once the arena
    /// is warmed. With two or more, a producer thread generates episode
    /// N+1 while the caller consumes episode N, handing arenas over a
    /// bounded channel.
    pub fn run<G, C>(&mut self, episodes: usize, generate: G, mut consume: C)
    where
        G: Fn(usize, &mut WalkCorpus) + Sync,
        C: FnMut(usize, &WalkCorpus),
    {
        if episodes == 0 {
            return;
        }
        if self.arenas.len() == 1 {
            let mut arena = std::mem::take(&mut self.arenas[0]);
            let mut peak = 0;
            for e in 0..episodes {
                generate(e, &mut arena);
                consume(e, &arena);
                peak = peak.max(arena.heap_bytes());
            }
            self.arenas[0] = arena;
            self.peak_heap_bytes = self.peak_heap_bytes.max(peak);
            return;
        }

        let in_flight = self.arenas.len();
        let (free_tx, free_rx) = mpsc::sync_channel::<(usize, WalkCorpus)>(in_flight);
        let (full_tx, full_rx) = mpsc::sync_channel::<(usize, usize, WalkCorpus)>(in_flight);
        for (i, arena) in self.arenas.drain(..).enumerate() {
            free_tx.send((i, arena)).expect("free channel has capacity");
        }
        let mut peaks = vec![0usize; in_flight];
        let free_rx = std::thread::scope(|scope| {
            let generate = &generate;
            // The producer owns `free_rx` and `full_tx` and hands `free_rx`
            // back through `join` so the pool can be recovered.
            let producer = scope.spawn(move || {
                for e in 0..episodes {
                    let Ok((i, mut arena)) = free_rx.recv() else {
                        break;
                    };
                    generate(e, &mut arena);
                    if full_tx.send((e, i, arena)).is_err() {
                        break;
                    }
                }
                free_rx
            });
            // This closure owns `full_rx` and `free_tx`: if `consume`
            // panics, unwinding drops both, the blocked producer sees a
            // disconnect and exits, and the scope can join it.
            let (full_rx, free_tx) = (full_rx, free_tx);
            for expected in 0..episodes {
                let Ok((e, i, arena)) = full_rx.recv() else {
                    break; // the producer panicked; `join` re-raises it
                };
                debug_assert_eq!(e, expected, "episodes must arrive in order");
                consume(e, &arena);
                peaks[i] = peaks[i].max(arena.heap_bytes());
                free_tx.send((i, arena)).expect("free channel has capacity");
            }
            producer
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });

        // Recover the pool (every arena is back on the free channel).
        let mut recovered: Vec<(usize, WalkCorpus)> = free_rx.try_iter().collect();
        recovered.sort_by_key(|&(i, _)| i);
        debug_assert_eq!(recovered.len(), in_flight);
        for (i, arena) in recovered {
            peaks[i] = peaks[i].max(arena.heap_bytes());
            self.arenas.push(arena);
        }
        self.peak_heap_bytes = self.peak_heap_bytes.max(peaks.iter().sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{parallel_generate, parallel_generate_offset_into};

    #[test]
    fn config_default_is_one_episode_double_buffer() {
        let cfg = EpisodeConfig::default();
        assert_eq!(cfg.episode_walks, 0);
        assert_eq!(cfg.episodes_in_flight, 2);
        assert!(cfg.validate().is_ok());
        assert!(EpisodeConfig {
            episode_walks: 10,
            episodes_in_flight: 0,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn plan_covers_all_tasks_in_order() {
        let mut plan = Vec::new();
        // Tasks with 1..=3 walks each.
        let walks = |i: usize| i % 3 + 1;
        plan_episodes_into(&mut plan, 10, walks, 4);
        let mut covered = Vec::new();
        let mut prev_end = 0;
        for r in &plan {
            assert_eq!(r.start, prev_end, "episodes must be contiguous");
            prev_end = r.end;
            covered.extend(r.clone());
        }
        assert_eq!(covered, (0..10).collect::<Vec<_>>());
        // All but the last episode reach the walk target.
        for r in &plan[..plan.len() - 1] {
            let w: usize = r.clone().map(walks).sum();
            assert!(w >= 4, "episode {r:?} has {w} walks");
        }
        // Monolithic plan: one episode.
        plan_episodes_into(&mut plan, 10, walks, 0);
        assert_eq!(plan, vec![0..10]);
        plan_episodes_into(&mut plan, 0, walks, 4);
        assert!(plan.is_empty());
    }

    /// The pipeline (any in-flight count) consumes every episode in order
    /// with exactly the monolithic corpus content.
    #[test]
    fn pipeline_matches_monolithic_for_any_in_flight() {
        let tasks: Vec<u32> = (0..40).collect();
        let gen = |&t: &u32, rng: &mut transn_rng::Rng, out: &mut WalkCorpus| {
            out.push(&[t, rng.random_range(0..100u32), t + 1]);
        };
        let monolithic = parallel_generate(&tasks, 3, 5, gen);
        let mut plan = Vec::new();
        plan_episodes_into(&mut plan, tasks.len(), |_| 1, 7);
        for in_flight in [1usize, 2, 3] {
            let mut buffer = EpisodeBuffer::new(in_flight);
            let mut rebuilt = WalkCorpus::new();
            let mut seen = 0;
            buffer.run(
                plan.len(),
                |e, arena| {
                    let r = plan[e].clone();
                    parallel_generate_offset_into(arena, &tasks[r.clone()], r.start, 2, 5, gen);
                },
                |e, arena| {
                    assert_eq!(e, seen, "in-order consumption");
                    seen += 1;
                    rebuilt.extend_from_arena(arena);
                },
            );
            assert_eq!(seen, plan.len());
            assert_eq!(rebuilt, monolithic, "in_flight {in_flight}");
            assert_eq!(buffer.in_flight(), in_flight);
            assert!(buffer.peak_heap_bytes() >= buffer.heap_bytes() / in_flight.max(1));
        }
    }

    /// A panic in `consume` with several arenas in flight must reach the
    /// caller instead of leaving the producer blocked on a channel forever.
    #[test]
    fn consumer_panic_propagates_with_arenas_in_flight() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let mut buffer = EpisodeBuffer::new(2);
                buffer.run(
                    6,
                    |e, arena| {
                        arena.clear();
                        arena.push(&[e as u32, e as u32 + 1]);
                    },
                    |e, _| assert_ne!(e, 0, "consumer fails on episode 0"),
                );
            });
            let _ = done_tx.send(outcome.is_err());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(panicked) => assert!(panicked, "the consumer panic was swallowed"),
            Err(_) => panic!("EpisodeBuffer::run hung after a consumer panic"),
        }
    }

    #[test]
    fn warmed_serial_buffer_keeps_capacity() {
        let tasks: Vec<u32> = (0..64).collect();
        let mut buffer = EpisodeBuffer::new(1);
        let run = |buffer: &mut EpisodeBuffer| {
            buffer.run(
                4,
                |e, arena| {
                    let lo = e * 16;
                    parallel_generate_offset_into(
                        arena,
                        &tasks[lo..lo + 16],
                        lo,
                        1,
                        9,
                        |&t, _, out| out.push(&[t, t, t, t]),
                    );
                },
                |_, _| {},
            );
        };
        run(&mut buffer);
        let warmed = buffer.heap_bytes();
        run(&mut buffer);
        assert_eq!(buffer.heap_bytes(), warmed, "steady state must not grow");
        assert_eq!(buffer.peak_heap_bytes(), warmed);
    }
}
