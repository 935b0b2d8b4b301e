//! Skip-gram trainers for walk corpora.
//!
//! TransN's single-view loss (Eq. 3) is the skip-gram softmax of \[13\],
//! \[27\], \[33\]. Like those references we train it with **negative sampling**
//! ([`SgnsModel`], the default) and also provide **hierarchical softmax**
//! ([`hsoftmax::HsModel`]) — the `log₂ μ` optimization cost that the proof
//! of Theorem 1 cites.
//!
//! The same trainers drive the walk-based baselines (DeepWalk, Node2Vec,
//! Metapath2Vec, MVE), so context extraction is parameterized by window
//! size: Definition 6 of the paper is the special case `window = 1` on
//! homo-views and `window = 2` on heter-views.

//! Corpus training follows one schedule, the **stream schedule**
//! ([`stream`]): every walk draws noise from its own RNG seeded by its
//! global corpus index, and the lr decays over the global pair position.
//! An epoch may be cut into walk episodes without changing the result:
//! a generation pre-pass makes the noise table and the lr pair total
//! exact corpus-wide values before the first episode trains.
//! Walks are applied either serially in corpus order, updating the tables
//! in place, for bit-identical fixed-seed runs at any thread count
//! ([`sync::Determinism::Strict`], or one worker) or in concurrent shards
//! with Hogwild-style lock-free updates ([`sync::Determinism::Hogwild`]).
//! The TransN training loop additionally parallelizes *across views* (each
//! view owns an independent model) and splits its thread budget across
//! them.

#![warn(missing_docs)]

pub mod context;
pub mod hsoftmax;
pub mod negative;
pub mod sgns;
pub mod sigmoid;
pub mod stream;
pub mod sync;

pub use context::{context_pairs, window_for_view};
pub use hsoftmax::HsModel;
pub use negative::{NoiseAccumulator, NoiseScratch, NoiseTable};
pub use sgns::{SgnsConfig, SgnsModel, TrainScratch};
pub use sigmoid::fast_sigmoid;
pub use stream::{train_epoch_episodic, EpisodicState};
pub use sync::{run_shards, Determinism, Parallelism, RacyTable};
