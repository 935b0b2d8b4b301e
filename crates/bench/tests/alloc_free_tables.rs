//! Zero-allocation assertion for the warmed table-rebuild loops.
//!
//! ISSUE 8's scratch-reuse satellite: once an [`AliasTable`] (with its
//! [`AliasScratch`]) and a [`NoiseTable`] (with its [`NoiseScratch`]) have
//! been warmed to their support size, rebuilding them — the operation the
//! sharded batch builders run per table and episodic training runs per
//! epoch — must perform **zero** heap allocations.
//!
//! This file contains a single test on purpose: the harness runs tests in
//! one process, and any concurrently-running test would pollute the global
//! allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use transn_graph::{AliasScratch, AliasTable};
use transn_sgns::{NoiseScratch, NoiseTable};

/// `System` wrapper that counts allocations (not frees — the warmed loop
/// must not even *touch* the allocator).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// Count only allocations made by the measured thread, and only inside the
// measured window, so harness-thread activity cannot charge the loop with
// phantom allocations (see alloc_free.rs for the full rationale).
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
fn warmed_table_rebuild_loops_are_allocation_free() {
    const SUPPORT: usize = 1024;

    // Weight families of varying skew, all at the same support size the
    // warmup reaches (rebuilds only shrink-or-match after warming).
    let weight_sets: Vec<Vec<f32>> = (0..8)
        .map(|s| {
            (0..SUPPORT)
                .map(|i| ((i * 31 + s * 7) % 97 + 1) as f32 * 0.25)
                .collect()
        })
        .collect();
    let freq_sets: Vec<Vec<u64>> = (0..8)
        .map(|s| {
            (0..SUPPORT)
                .map(|i| ((i * 13 + s * 5) % 50 + 1) as u64)
                .collect()
        })
        .collect();

    // Warmup: size every buffer (table + scratch) to the support.
    let mut alias = AliasTable::new(&weight_sets[0]);
    let mut alias_scratch = AliasScratch::default();
    for w in &weight_sets {
        alias.rebuild(w, &mut alias_scratch);
    }
    let mut noise = NoiseTable::from_frequencies(&freq_sets[0]);
    let mut noise_scratch = NoiseScratch::default();
    for f in &freq_sets {
        noise.rebuild_from_frequencies(f, &mut noise_scratch);
    }

    // Measured phase: the warmed rebuild loops must never allocate.
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    for _ in 0..5 {
        for w in &weight_sets {
            alias.rebuild(w, &mut alias_scratch);
        }
        for f in &freq_sets {
            noise.rebuild_from_frequencies(f, &mut noise_scratch);
        }
    }
    COUNTING.with(|c| c.set(false));
    let after = ALLOCS.load(Ordering::SeqCst);
    assert!(alias.len() == SUPPORT && noise.len() == SUPPORT);
    assert_eq!(
        after - before,
        0,
        "warmed table rebuild loop allocated {} times",
        after - before
    );
}
