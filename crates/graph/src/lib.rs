//! Heterogeneous network substrate for the TransN reproduction.
//!
//! This crate implements the data model of Section II of the paper
//! *"TransN: Heterogeneous Network Representation Learning by Translating
//! Node Embeddings"* (ICDE 2020):
//!
//! - [`HetNet`]: an undirected heterogeneous network `G = {V, E, C_V, C_E}`
//!   with typed nodes, typed weighted edges, and a [`Schema`] recording the
//!   endpoint-type signature of every edge type (Definition 1).
//! - [`View`]: the subnetwork induced by a single edge type (Definition 2),
//!   classified as a homo-view or heter-view (Definition 4), with a local
//!   CSR adjacency ready for random walks.
//! - [`ViewPair`]: a pair of views sharing at least one node (Definition 3).
//! - [`PairedSubview`]: the reduction of a view to the common nodes of a
//!   view-pair plus their neighbours (Definition 5).
//! - [`alias::AliasTable`]: O(1) weighted sampling used by the walk engines.
//!
//! The crate is dependency-light on purpose: it is the bottom of the
//! workspace dependency graph and every other crate builds on it.
//!
//! # Example
//!
//! ```
//! use transn_graph::{HetNetBuilder, ViewKind};
//!
//! let mut b = HetNetBuilder::new();
//! let author = b.add_node_type("author");
//! let paper = b.add_node_type("paper");
//! let writes = b.add_edge_type("writes", author, paper);
//! let cites = b.add_edge_type("cites", paper, paper);
//!
//! let a0 = b.add_node(author);
//! let p0 = b.add_node(paper);
//! let p1 = b.add_node(paper);
//! b.add_edge(a0, p0, writes, 1.0).unwrap();
//! b.add_edge(p0, p1, cites, 1.0).unwrap();
//!
//! let net = b.build().unwrap();
//! let views = net.views();
//! assert_eq!(views.len(), 2);
//! assert_eq!(views[writes.index()].kind(), ViewKind::Heter);
//! assert_eq!(views[cites.index()].kind(), ViewKind::Homo);
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod builder;
pub mod csr;
pub mod delta;
pub mod embedding;
pub mod error;
pub mod fnv;
pub mod ids;
pub mod io;
pub mod labels;
pub mod network;
pub mod par;
pub mod schema;
pub mod stats;
pub mod subview;
pub mod view;

pub use alias::{build_batch_with, AliasScratch, AliasTable};
pub use builder::HetNetBuilder;
pub use csr::Csr;
pub use delta::{
    read_delta_log, replay_delta_log, write_delta_log, DeltaBatch, DeltaOp, DeltaOverlay,
    LoggedBatch,
};
pub use embedding::NodeEmbeddings;
pub use error::GraphError;
pub use fnv::{fnv1a64, Fnv1a64};
pub use ids::{EdgeTypeId, NodeId, NodeTypeId};
pub use io::{read_edge_list, read_labels, write_edge_list, write_labels};
pub use labels::Labels;
pub use network::{Edge, HetNet};
pub use par::{par_chunks_mut, run_shards, run_shards_build, Determinism, Parallelism, RacyTable};
pub use schema::Schema;
pub use stats::NetworkStats;
pub use subview::PairedSubview;
pub use view::{View, ViewKind, ViewPair};
