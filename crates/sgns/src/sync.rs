//! Sharded-parallel execution primitives for the trainers.
//!
//! The core types ([`Parallelism`], [`Determinism`], [`RacyTable`],
//! [`run_shards`]) now live in [`transn_graph::par`] so the graph layer's
//! own build paths (parallel CSR construction, batch alias-table builds)
//! can shard themselves without inverting the workspace dependency graph.
//! This module re-exports them unchanged — every existing
//! `transn_sgns::{Parallelism, …}` import keeps working — and remains the
//! documented home of the *trainer-side* contract:
//!
//! Every walk draws its noise samples from its own RNG, seeded by its
//! global corpus index ([`crate::stream`]), so the work does not depend on
//! the thread count. [`Determinism::Hogwild`] trains a fixed number of
//! logical shards (shard `s` owns the `s`-th contiguous block of walks)
//! concurrently with lock-free [`RacyTable`] updates
//! (bit-nondeterministic for `threads > 1`); [`Determinism::Strict`]
//! applies walks serially in corpus order, so a fixed seed gives
//! bit-identical results regardless of the configured thread count.

pub use transn_graph::par::{run_shards, run_shards_build, Determinism, Parallelism, RacyTable};
