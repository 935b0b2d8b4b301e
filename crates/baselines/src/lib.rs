//! From-scratch implementations of the seven comparison methods of the
//! TransN paper (§IV-A2):
//!
//! | Method | Kind | Module |
//! |---|---|---|
//! | LINE (2nd order) \[41\] | homogeneous, edge sampling | [`mod@line`] |
//! | Node2Vec \[13\] (DeepWalk \[33\] at `p=q=1`) | homogeneous, walks | [`node2vec`] |
//! | Metapath2Vec \[8\] | heterogeneous, meta-path walks | [`metapath2vec`] |
//! | HIN2Vec \[10\] | heterogeneous, relation-aware pairs | [`hin2vec`] |
//! | MVE \[34\] (unsupervised variant) | multi-view | [`mve`] |
//! | R-GCN \[37\] | knowledge-graph GNN autoencoder | [`rgcn`] |
//! | SimplE \[17\] | knowledge-graph bilinear | [`simple_e`] |
//!
//! Every method implements [`EmbeddingMethod`], producing a
//! [`transn_graph::NodeEmbeddings`] table over the global node ids, so the
//! evaluation protocols treat all methods (and TransN itself) uniformly.
//!
//! Per §IV-A2 of the paper: LINE and Node2Vec see the network with node
//! and edge types erased (they operate on the merged global adjacency);
//! R-GCN and SimplE see types but **unit edge weights** ("since methods
//! R-GCN and SimplE do not utilize the weight of edges").

#![warn(missing_docs)]

pub mod hin2vec;
pub mod line;
pub mod metapath2vec;
pub mod method;
pub mod mve;
pub mod node2vec;
pub mod rgcn;
pub mod simple_e;

pub use hin2vec::Hin2Vec;
pub use line::Line;
pub use metapath2vec::Metapath2Vec;
pub use method::EmbeddingMethod;
pub use mve::Mve;
pub use node2vec::Node2Vec;
pub use rgcn::Rgcn;
pub use simple_e::SimplE;
