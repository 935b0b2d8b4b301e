//! Sharded-parallel execution primitives shared by the whole workspace.
//!
//! A workload is partitioned into a **fixed number of logical shards**,
//! independent of the thread count: shard `s` owns tasks `s`,
//! `s + num_shards`, … — the same `task i % threads` ownership convention
//! as `transn_walks::parallel_generate` — and draws any randomness from
//! its own seeded RNG stream. Because the shard decomposition and the
//! per-shard streams never depend on `threads`, the *work* is identical at
//! any thread count; only the interleaving of shared-table updates varies.
//!
//! Two execution modes interpret that decomposition:
//!
//! * [`Determinism::Hogwild`] runs shards concurrently with lock-free
//!   updates to shared tables ([`RacyTable`]), the classic Hogwild
//!   scheme: sparse-ish SGD tolerates racy read-modify-write updates and
//!   converges to statistically equivalent solutions. Results are
//!   **bit-nondeterministic** for `threads > 1` (update interleaving is
//!   scheduler-dependent) but deterministic for `threads == 1`.
//! * [`Determinism::Strict`] applies shards serially in shard order, so a
//!   fixed seed gives **bit-identical** results regardless of the
//!   configured thread count — and identical to Hogwild at `threads == 1`,
//!   which runs the very same serial loop.
//!
//! Build-time parallelism (CSR construction, alias/noise tables) uses the
//! shard decomposition differently: each shard produces an **owned,
//! disjoint** piece of output that is concatenated in shard order, so even
//! Hogwild-policy builds are bit-identical across thread counts — there is
//! no shared mutable table to race on. Those paths run the thread pool in
//! both modes and reserve [`Determinism::Strict`] for the trainers' update
//! schedules. TransN's cross-view levels use the pool the same way: the
//! pairs of one level write disjoint rows of shared tables.
//!
//! This module lives at the bottom of the workspace dependency graph so
//! graph construction (`csr`, `alias`) can shard itself; `transn_sgns::sync`
//! re-exports everything for API compatibility.

use std::sync::atomic::{AtomicU32, Ordering};

/// How sharded training applies its updates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Determinism {
    /// Lock-free concurrent shard training (Hogwild). Fastest; results
    /// depend on thread interleaving when `threads > 1`.
    #[default]
    Hogwild,
    /// Serialize SGNS shard application in shard order: fixed-seed runs
    /// are bit-identical no matter how many threads are configured (the
    /// shards do not use the thread pool). Opt-in reproducibility at the
    /// cost of parallel SGNS speedup. Conflict-free schedules, whose
    /// results do not depend on the thread count — the build paths
    /// ([`run_shards_build`]) and TransN's cross-view levels — still use
    /// the pool in this mode.
    Strict,
}

/// Thread-count and determinism policy threaded through every walk-based
/// trainer and build-time sharded construction path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads for Hogwild shard training (ignored by SGNS under
    /// [`Determinism::Strict`]) and for conflict-free schedules in both
    /// modes. Clamped to at least 1. TransN splits the budget evenly
    /// across the views it trains, at least one SGNS worker each, so at
    /// `threads ≤ views` every view trains sequentially and Hogwild runs
    /// are reproducible; its cross-view levels use all `threads`.
    pub threads: usize,
    /// Update-application policy.
    pub determinism: Determinism,
}

impl Default for Parallelism {
    /// Single-threaded, Hogwild policy — bit-deterministic (one thread
    /// runs the sequential schedule, exactly as Strict does).
    fn default() -> Self {
        Parallelism {
            threads: 1,
            determinism: Determinism::Hogwild,
        }
    }
}

impl Parallelism {
    /// Single-threaded (the default).
    pub fn single() -> Self {
        Parallelism::default()
    }

    /// Hogwild over `threads` workers.
    pub fn hogwild(threads: usize) -> Self {
        Parallelism {
            threads,
            determinism: Determinism::Hogwild,
        }
    }

    /// Strict determinism (serial SGNS shard application; `threads` still
    /// sizes conflict-free schedules).
    pub fn strict(threads: usize) -> Self {
        Parallelism {
            threads,
            determinism: Determinism::Strict,
        }
    }

    /// True when shard execution is serial in shard order — Strict mode,
    /// one thread, or at most one shard — and results are therefore
    /// bit-deterministic.
    pub fn is_sequential(&self, num_shards: usize) -> bool {
        self.determinism == Determinism::Strict || self.threads <= 1 || num_shards <= 1
    }

    /// Worker threads for build paths whose shards write disjoint owned
    /// output (bit-identical at any thread count, so Strict can use the
    /// pool too): `min(threads, num_shards)`, at least 1.
    pub fn build_threads(&self, num_shards: usize) -> usize {
        self.threads.max(1).min(num_shards.max(1))
    }
}

/// A lock-free shared view of an `f32` table for Hogwild updates.
///
/// Reinterprets `&mut [f32]` as `&[AtomicU32]` (identical size, alignment,
/// and bit validity) and performs all access as `Relaxed` bit-cast
/// loads/stores. Concurrent read-modify-write sequences may lose updates —
/// that is the *intended* Hogwild semantics — but, unlike racing on plain
/// `f32`s, every access is an atomic operation, so there is no undefined
/// behavior and every read observes some previously-stored bit pattern.
/// On x86-64 and aarch64 a `Relaxed` 32-bit load/store compiles to a plain
/// `mov`/`ldr`, but the compiler never vectorises atomics, so a row moves
/// one scalar slot at a time; sequential trainers update plain slices
/// instead.
pub struct RacyTable<'a> {
    words: &'a [AtomicU32],
}

impl<'a> RacyTable<'a> {
    /// Wrap a mutable table. The exclusive borrow guarantees no plain
    /// `&[f32]`/`&mut [f32]` access can race with the atomic accesses for
    /// the lifetime of the view.
    pub fn new(data: &'a mut [f32]) -> Self {
        // SAFETY: f32 and AtomicU32 both have size 4 and alignment 4, and
        // any 32-bit pattern is valid for both. The source is an exclusive
        // borrow, so reinterpreting it as a slice of atomics cannot alias
        // non-atomic accesses.
        let words = unsafe {
            std::slice::from_raw_parts(data.as_mut_ptr() as *const AtomicU32, data.len())
        };
        RacyTable { words }
    }

    /// Number of `f32` slots.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Read slot `i`.
    #[inline(always)]
    pub fn load(&self, i: usize) -> f32 {
        f32::from_bits(self.words[i].load(Ordering::Relaxed))
    }

    /// Write slot `i`.
    #[inline(always)]
    pub fn store(&self, i: usize, v: f32) {
        self.words[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// `slot[i] += delta` as a racy load-modify-store (not a CAS loop:
    /// lost updates are acceptable under Hogwild).
    #[inline(always)]
    pub fn add(&self, i: usize, delta: f32) {
        self.store(i, self.load(i) + delta);
    }

    /// Copy `dst.len()` consecutive slots starting at `start` into `dst`.
    ///
    /// Row-granularity companion to [`RacyTable::load`]: the Hogwild
    /// trainers gather an embedding row into plain scratch once per pair
    /// so the arithmetic can run through the slice kernels in
    /// `transn_nn::kernels` (DESIGN.md §9). Under Hogwild this snapshots
    /// the row — concurrent writes landing mid-gather are simply not
    /// observed, which is the same staleness Hogwild already tolerates per
    /// element. The row ops check bounds once per row, not per slot.
    #[inline]
    pub fn gather_into(&self, start: usize, dst: &mut [f32]) {
        let row = &self.words[start..start + dst.len()];
        for (d, w) in dst.iter_mut().zip(row) {
            *d = f32::from_bits(w.load(Ordering::Relaxed));
        }
    }

    /// Write `src` into consecutive slots starting at `start`.
    #[inline]
    pub fn scatter(&self, start: usize, src: &[f32]) {
        let row = &self.words[start..start + src.len()];
        for (w, &v) in row.iter().zip(src) {
            w.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// `slots[start..start+src.len()] += s·src` as racy element-wise
    /// read-modify-write (lost updates acceptable under Hogwild).
    #[inline]
    pub fn add_scaled(&self, start: usize, s: f32, src: &[f32]) {
        let row = &self.words[start..start + src.len()];
        for (w, &v) in row.iter().zip(src) {
            let sum = f32::from_bits(w.load(Ordering::Relaxed)) + s * v;
            w.store(sum.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Run `worker(shard)` for every shard in `0..num_shards`, returning the
/// per-shard results **in shard order**.
///
/// Sequential cases ([`Parallelism::is_sequential`]) run the plain ordered
/// loop. Otherwise thread `t` of `min(threads, num_shards)` workers owns
/// shards `t, t + threads, …` (the `parallel_generate` convention) and the
/// results are re-sorted by shard index afterwards, so the *returned
/// values* are ordered identically in every mode — only table-update
/// interleaving differs.
pub fn run_shards<T, F>(num_shards: usize, par: Parallelism, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if par.is_sequential(num_shards) {
        return (0..num_shards).map(worker).collect();
    }
    run_shards_pooled(num_shards, par.threads, worker)
}

/// [`run_shards`] that always uses the thread pool when `threads > 1`,
/// regardless of the determinism policy.
///
/// For build paths whose shards produce owned disjoint output the result
/// is bit-identical in every mode, so Strict does not have to forfeit the
/// parallel speedup the way the racy trainers do. Sequential fallback when
/// one thread or one shard.
pub fn run_shards_build<T, F>(num_shards: usize, par: Parallelism, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = par.build_threads(num_shards);
    if threads <= 1 || num_shards <= 1 {
        return (0..num_shards).map(worker).collect();
    }
    run_shards_pooled(num_shards, threads, worker)
}

/// Split `data` into `num_chunks` contiguous ranges and run
/// `f(chunk_index, start_offset, chunk)` over them, in parallel when `par`
/// allows. Every element belongs to exactly one chunk and `f` writes each
/// element independently of the split, so the filled slice is bit-identical
/// for any chunk/thread count — this is the fill primitive behind the
/// parallel 3/4-power noise weights and the synth generators' prefix
/// tables.
pub fn par_chunks_mut<T, F>(data: &mut [T], num_chunks: usize, par: Parallelism, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let num_chunks = num_chunks.clamp(1, n);
    let base = data.as_mut_ptr() as usize;
    run_shards_build(num_chunks, par, |c| {
        let (s, e) = (c * n / num_chunks, (c + 1) * n / num_chunks);
        // SAFETY: chunk ranges [s, e) partition 0..n disjointly, so no two
        // workers alias; `base` outlives the scope because `data` is
        // mutably borrowed for the whole call.
        let chunk = unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(s), e - s) };
        f(c, s, chunk);
    });
}

fn run_shards_pooled<T, F>(num_shards: usize, threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(num_shards);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let worker = &worker;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut s = t;
                    while s < num_shards {
                        out.push((s, worker(s)));
                        s += threads;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|&(s, _)| s);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racy_table_round_trips_through_bits() {
        let mut data = vec![0.0f32; 8];
        {
            let view = RacyTable::new(&mut data);
            view.store(3, -1.25);
            view.add(3, 0.25);
            assert_eq!(view.load(3), -1.0);
            assert_eq!(view.len(), 8);
        }
        assert_eq!(data[3], -1.0);
    }

    #[test]
    fn run_shards_returns_results_in_shard_order() {
        for par in [
            Parallelism::single(),
            Parallelism::hogwild(4),
            Parallelism::strict(4),
        ] {
            let out = run_shards(17, par, |s| s * 10);
            assert_eq!(out, (0..17).map(|s| s * 10).collect::<Vec<_>>(), "{par:?}");
        }
    }

    #[test]
    fn run_shards_build_uses_pool_under_strict() {
        // Same ordered results in every mode; Strict still fans out.
        for par in [
            Parallelism::single(),
            Parallelism::hogwild(4),
            Parallelism::strict(4),
        ] {
            let out = run_shards_build(17, par, |s| s * 3);
            assert_eq!(out, (0..17).map(|s| s * 3).collect::<Vec<_>>(), "{par:?}");
        }
    }

    #[test]
    fn par_chunks_mut_fills_every_slot_once() {
        for par in [
            Parallelism::single(),
            Parallelism::hogwild(4),
            Parallelism::strict(4),
        ] {
            let mut data = vec![0u32; 1000];
            par_chunks_mut(&mut data, 64, par, |_, start, chunk| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = (start + j) as u32 * 3;
                }
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i as u32 * 3),
                "{par:?}"
            );
        }
    }

    #[test]
    fn hogwild_threads_share_a_table() {
        let mut data = vec![0.0f32; 64];
        let view = RacyTable::new(&mut data);
        // Disjoint slots per shard → no races, exact expected result.
        run_shards(64, Parallelism::hogwild(4), |s| view.store(s, s as f32));
        for (i, w) in (0..64).enumerate() {
            assert_eq!(view.load(i), w as f32);
        }
    }

    #[test]
    fn sequential_modes_detected() {
        assert!(Parallelism::single().is_sequential(100));
        assert!(Parallelism::strict(8).is_sequential(100));
        assert!(Parallelism::hogwild(8).is_sequential(1));
        assert!(!Parallelism::hogwild(8).is_sequential(100));
        assert_eq!(Parallelism::strict(8).build_threads(100), 8);
        assert_eq!(Parallelism::strict(8).build_threads(3), 3);
        assert_eq!(Parallelism::single().build_threads(100), 1);
    }
}
