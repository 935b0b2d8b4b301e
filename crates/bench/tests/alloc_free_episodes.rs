//! Zero-allocation assertion for the warmed **episodic** training loop.
//!
//! ISSUE 7's satellite: once the episodic state is warmed — the episode
//! plan, the arena pool, the pre-pass arena, the frequency
//! accumulator, the in-place-rebuilt noise table, and the pair scratch —
//! a full epoch of `train_epoch_episodic` performs **zero** heap
//! allocations, including the per-epoch noise-table rebuild. This is what
//! makes the bounded-memory pipeline steady-state: episode arenas recycle
//! instead of reallocating.
//!
//! Two modes are asserted, both with serial generation and sequential walk
//! execution: many episodes with a single arena in flight, and the default
//! one-episode plan with two arenas configured, which trains the pre-pass
//! arena in place and never starts the pipeline. The overlapped
//! multi-episode variant spawns a producer thread per epoch (and
//! channels), which allocates by design.
//!
//! This file contains a single test on purpose: the harness runs tests in
//! one process, and any concurrently-running test would pollute the global
//! allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use transn_rng::Rng;
use transn_sgns::{train_epoch_episodic, EpisodicState, Parallelism, SgnsConfig, SgnsModel};
use transn_synth::{blog_like, BlogConfig};
use transn_walks::{CorrelatedWalker, EpisodeConfig, WalkConfig};

/// `System` wrapper that counts allocations (not frees — the warmed loop
/// must not even *touch* the allocator).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// Count only allocations made by the measured thread, and only inside the
// measured window. The libtest harness's main thread lazily allocates its
// blocking-recv context the first time it parks waiting for a test result,
// and on a busy single-core host that initialization can land anywhere —
// including inside the measured phase — charging the hot loop with phantom
// allocations it never made.
std::thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warmed_episodic_epoch_is_allocation_free() {
    let ds = blog_like(&BlogConfig::tiny(), 5);
    let views = ds.net.views();
    let uk = &views[1]; // heter-view → π₂ correlated steps active
    let walk_cfg = WalkConfig {
        length: 12,
        min_walks_per_node: 2,
        max_walks_per_node: 4,
        seed: 17,
        threads: 1, // serial episode generation (the zero-alloc mode)
    };
    let walker = CorrelatedWalker::new(uk, walk_cfg);

    // (episode_walks, episodes_in_flight): many episodes alternating on one
    // arena, and the default one-episode plan.
    for (episode_walks, in_flight) in [(16, 1), (0, 2)] {
        let allocs = warmed_epoch_allocs(&walker, uk.num_nodes(), episode_walks, in_flight);
        assert_eq!(
            allocs, 0,
            "warmed episodic epoch loop allocated {allocs} times \
             (episode_walks={episode_walks}, in_flight={in_flight})"
        );
    }
}

/// Warm an episodic state for one configuration, then count the heap
/// allocations of three further epochs.
fn warmed_epoch_allocs(
    walker: &CorrelatedWalker<'_>,
    num_nodes: usize,
    episode_walks: usize,
    in_flight: usize,
) -> usize {
    const DIM: usize = 32;

    // Built once, outside the epoch loop: the task list, the episodic
    // state (episode plan + arena pool + accumulator + noise table), and
    // the SGNS model. A fixed walk seed regenerates identical episodes
    // every epoch, so every warmed capacity is exact from epoch two on.
    let tasks = walker.degree_tasks();
    let mut rng = Rng::seed_from_u64(3);
    let mut model = SgnsModel::new(num_nodes, DIM, &mut rng);
    let mut state = EpisodicState::new(in_flight);

    let sgns_cfg = SgnsConfig {
        dim: DIM,
        negatives: 5,
        lr0: 0.025,
        min_lr_frac: 1e-3,
        window: 4,
        seed: 29,
        parallelism: Parallelism::single(), // sequential walks (zero-alloc)
        episode: EpisodeConfig {
            episode_walks,
            episodes_in_flight: in_flight,
        },
    };

    let run_epoch = |model: &mut SgnsModel, state: &mut EpisodicState| {
        train_epoch_episodic(
            model,
            num_nodes,
            tasks.len(),
            |i| tasks[i].1,
            |range, arena| walker.generate_task_range_into(&tasks, range, arena),
            &sgns_cfg,
            state,
        )
    };

    // Warmup epochs: the first sizes the plan, the arenas (pre-pass +
    // pool), the accumulator, and the pair scratch, and builds the noise
    // table from scratch; the second takes the in-place rebuild path for
    // the first time, warming the `NoiseScratch` weight and alias
    // worklists. From then on every buffer is at steady-state capacity.
    for _ in 0..2 {
        let warm_loss = run_epoch(&mut model, &mut state);
        assert!(warm_loss.is_finite() && warm_loss > 0.0);
    }
    assert!(state.peak_corpus_bytes() > 0);

    // Measured phase: full episodic epochs — replay generation for the
    // noise pre-pass, rebuild the noise table in place, then generate and
    // train every episode — must never call the allocator.
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let mut loss = 0.0f32;
    for _ in 0..3 {
        loss += run_epoch(&mut model, &mut state);
    }
    COUNTING.with(|c| c.set(false));
    let after = ALLOCS.load(Ordering::SeqCst);
    assert!(loss.is_finite());
    transn_testkit::check_finite(
        "sgns input table after episodic epochs",
        model.input_table(),
    )
    .unwrap();
    after - before
}
