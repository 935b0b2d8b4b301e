//! Streaming deltas over an immutable network: a log-structured overlay,
//! batch application, and a checksummed delta-log file format.
//!
//! The engines in this workspace all consume a frozen [`HetNet`] whose
//! adjacency is built once ([`crate::Csr::from_directed_pairs_with`]). Production
//! traffic mutates the network continuously, so this module layers a
//! [`DeltaOverlay`] over the immutable base: edge/node inserts and edge
//! removals accumulate in insertion-ordered logs, merged-view iteration
//! ([`DeltaOverlay::live_edges_of_type`]) exposes the current edge set per
//! view without rebuilding anything, and an epoch-boundary
//! [`DeltaOverlay::compact`] rebuilds a full network through the same
//! sharded counting sort as a from-scratch build — bit-identical to
//! constructing the merged edge list directly, at every thread count.
//!
//! Persistence: [`write_delta_log`] / [`read_delta_log`] serialize batches
//! to a line-oriented text log guarded by an FNV-1a64 checksum trailer, so
//! a snapshot (network TSV + `EmbStore` embedding file) plus the delta log
//! replays to the exact same state. All failure modes are typed
//! [`GraphError`]s with 1-based line context (see DESIGN.md §16).

use crate::builder::HetNetBuilder;
use crate::error::GraphError;
use crate::ids::{EdgeTypeId, NodeId, NodeTypeId};
use crate::network::{Edge, HetNet};
use crate::par::Parallelism;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};

/// One mutation of the network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaOp {
    /// Append a node of an already-declared type; it receives the next
    /// dense id.
    AddNode {
        /// Type of the new node (must exist in the base schema).
        ntype: NodeTypeId,
    },
    /// Insert an undirected edge (same validation as
    /// [`HetNetBuilder::add_edge`]).
    AddEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// Edge type (must exist in the base schema).
        etype: EdgeTypeId,
        /// Edge weight (finite, > 0).
        weight: f32,
    },
    /// Remove one live `(u, v)` edge of the given type. With parallel
    /// edges, the most recently inserted live match is removed (the
    /// overlay is log-structured, so removal unwinds insertions LIFO).
    RemoveEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// Edge type.
        etype: EdgeTypeId,
    },
}

/// A timestamped batch of [`DeltaOp`]s, applied atomically at an epoch
/// boundary of the stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaBatch {
    /// Logical timestamp (stream round); informational, recorded in the
    /// delta log.
    pub t: u64,
    /// The mutations, in application order.
    pub ops: Vec<DeltaOp>,
}

impl DeltaBatch {
    /// An empty batch at timestamp `t`.
    pub fn new(t: u64) -> DeltaBatch {
        DeltaBatch { t, ops: Vec::new() }
    }

    /// Queue a node insertion.
    pub fn add_node(&mut self, ntype: NodeTypeId) {
        self.ops.push(DeltaOp::AddNode { ntype });
    }

    /// Queue an edge insertion.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, etype: EdgeTypeId, weight: f32) {
        self.ops.push(DeltaOp::AddEdge {
            u,
            v,
            etype,
            weight,
        });
    }

    /// Queue an edge removal.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId, etype: EdgeTypeId) {
        self.ops.push(DeltaOp::RemoveEdge { u, v, etype });
    }

    /// Whether the batch carries no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Which edge types (views) this batch touches: `touched[e]` is true
    /// iff some insert or remove names edge type `e`. Node-only batches
    /// touch no view — a node with no edges joins no view (Definition 2).
    pub fn touched_edge_types(&self, num_edge_types: usize) -> Vec<bool> {
        let mut touched = vec![false; num_edge_types];
        for op in &self.ops {
            let etype = match op {
                DeltaOp::AddEdge { etype, .. } | DeltaOp::RemoveEdge { etype, .. } => *etype,
                DeltaOp::AddNode { .. } => continue,
            };
            if etype.index() < num_edge_types {
                touched[etype.index()] = true;
            }
        }
        touched
    }
}

/// A batch parsed from a delta log, with the 1-based source line of every
/// op so application errors can carry file context.
#[derive(Clone, Debug, PartialEq)]
pub struct LoggedBatch {
    /// The parsed batch.
    pub batch: DeltaBatch,
    /// `lines[i]` is the 1-based line number `batch.ops[i]` came from.
    pub lines: Vec<usize>,
}

/// Where a live edge resides in the overlay.
#[derive(Clone, Copy, Debug)]
enum EdgeSlot {
    /// Index into the base network's edge list.
    Base(usize),
    /// Index into the overlay's insertion log.
    Inserted(usize),
}

/// Unordered-pair key for the live-edge index.
fn edge_key(u: NodeId, v: NodeId, etype: EdgeTypeId) -> (u32, u32, u32) {
    (u.0.min(v.0), u.0.max(v.0), etype.0)
}

/// A log-structured mutation layer over an immutable [`HetNet`].
///
/// Inserted nodes get dense ids following the base nodes, inserted edges
/// append to an insertion log, and removals mark edges (base or inserted)
/// dead without moving anything — iteration and application stay O(1)
/// amortized per op via an unordered-pair hash index of live edges.
///
/// The canonical merged edge order — live base edges in base order, then
/// live inserted edges in insertion order — is the contract
/// [`DeltaOverlay::compact`] and the testkit conformance cases pin:
/// compacting equals building a [`HetNet`] from that edge sequence
/// directly, bitwise, at every thread count.
#[derive(Clone, Debug)]
pub struct DeltaOverlay {
    base: HetNet,
    added_types: Vec<NodeTypeId>,
    base_live: Vec<bool>,
    inserted: Vec<Edge>,
    inserted_live: Vec<bool>,
    /// Live slots per unordered edge key, most recent last; a key is
    /// present only while it has a live slot.
    live_index: HashMap<(u32, u32, u32), Vec<EdgeSlot>>,
    num_live: usize,
}

impl DeltaOverlay {
    /// Wrap a base network; all its edges start live.
    pub fn new(base: HetNet) -> DeltaOverlay {
        let mut live_index: HashMap<(u32, u32, u32), Vec<EdgeSlot>> = HashMap::new();
        for (i, e) in base.edges().iter().enumerate() {
            live_index
                .entry(edge_key(e.u, e.v, e.etype))
                .or_default()
                .push(EdgeSlot::Base(i));
        }
        let num_live = base.num_edges();
        let base_live = vec![true; num_live];
        DeltaOverlay {
            base,
            added_types: Vec::new(),
            base_live,
            inserted: Vec::new(),
            inserted_live: Vec::new(),
            live_index,
            num_live,
        }
    }

    /// The immutable base network.
    pub fn base(&self) -> &HetNet {
        &self.base
    }

    /// Total nodes: base nodes plus overlay-added nodes.
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes() + self.added_types.len()
    }

    /// Number of live edges (base minus removed, plus inserted minus
    /// removed).
    pub fn num_live_edges(&self) -> usize {
        self.num_live
    }

    /// Type of node `n`, whether it lives in the base or the overlay.
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    pub fn node_type(&self, n: NodeId) -> NodeTypeId {
        let base_n = self.base.num_nodes();
        if n.index() < base_n {
            self.base.node_type(n)
        } else {
            self.added_types[n.index() - base_n]
        }
    }

    /// Apply one batch, validating every op against the current merged
    /// state (same rules as [`HetNetBuilder::add_edge`], plus
    /// [`GraphError::MissingEdge`] for removals of dead or never-present
    /// edges and [`GraphError::UnknownNodeType`] for node inserts naming
    /// an undeclared type).
    ///
    /// On error, ops preceding the failing one remain applied — discard
    /// the overlay if the batch must be atomic.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<(), GraphError> {
        for op in &batch.ops {
            self.apply_op(op)?;
        }
        Ok(())
    }

    /// Apply a batch parsed from a delta log, attaching each failing op's
    /// source line to the error ([`GraphError::at_line`]).
    pub fn apply_logged(&mut self, logged: &LoggedBatch) -> Result<(), GraphError> {
        for (op, &line) in logged.batch.ops.iter().zip(&logged.lines) {
            self.apply_op(op).map_err(|e| e.at_line(line))?;
        }
        Ok(())
    }

    fn apply_op(&mut self, op: &DeltaOp) -> Result<(), GraphError> {
        match *op {
            DeltaOp::AddNode { ntype } => {
                if ntype.index() >= self.base.schema().num_node_types() {
                    return Err(GraphError::UnknownNodeType(ntype));
                }
                self.added_types.push(ntype);
                Ok(())
            }
            DeltaOp::AddEdge {
                u,
                v,
                etype,
                weight,
            } => {
                let n = self.num_nodes();
                if u.index() >= n {
                    return Err(GraphError::UnknownNode(u));
                }
                if v.index() >= n {
                    return Err(GraphError::UnknownNode(v));
                }
                if etype.index() >= self.base.schema().num_edge_types() {
                    return Err(GraphError::UnknownEdgeType(etype));
                }
                if u == v {
                    return Err(GraphError::SelfLoop(u));
                }
                if !weight.is_finite() || weight <= 0.0 {
                    return Err(GraphError::BadWeight { weight });
                }
                let (tu, tv) = (self.node_type(u), self.node_type(v));
                if !self.base.schema().matches(etype, tu, tv) {
                    return Err(GraphError::SignatureMismatch {
                        edge_type: etype,
                        expected: self.base.schema().signature(etype),
                        found: (tu, tv),
                    });
                }
                let idx = self.inserted.len();
                self.inserted.push(Edge {
                    u,
                    v,
                    etype,
                    weight,
                });
                self.inserted_live.push(true);
                self.live_index
                    .entry(edge_key(u, v, etype))
                    .or_default()
                    .push(EdgeSlot::Inserted(idx));
                self.num_live += 1;
                Ok(())
            }
            DeltaOp::RemoveEdge { u, v, etype } => {
                let n = self.num_nodes();
                if u.index() >= n {
                    return Err(GraphError::UnknownNode(u));
                }
                if v.index() >= n {
                    return Err(GraphError::UnknownNode(v));
                }
                if etype.index() >= self.base.schema().num_edge_types() {
                    return Err(GraphError::UnknownEdgeType(etype));
                }
                // A key leaves the index with its last live slot, so the
                // index holds only live edges however long the stream runs.
                let Entry::Occupied(mut slots) = self.live_index.entry(edge_key(u, v, etype))
                else {
                    return Err(GraphError::MissingEdge { u, v, etype });
                };
                let slot = slots
                    .get_mut()
                    .pop()
                    .expect("indexed keys have a live slot");
                if slots.get().is_empty() {
                    slots.remove();
                }
                match slot {
                    EdgeSlot::Base(i) => self.base_live[i] = false,
                    EdgeSlot::Inserted(i) => self.inserted_live[i] = false,
                }
                self.num_live -= 1;
                Ok(())
            }
        }
    }

    /// Live edges in canonical merged order: base edges (skipping removed
    /// ones) in base order, then inserted edges in insertion order.
    pub fn live_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let base = self
            .base
            .edges()
            .iter()
            .zip(&self.base_live)
            .filter(|&(_, &live)| live)
            .map(|(e, _)| *e);
        let inserted = self
            .inserted
            .iter()
            .zip(&self.inserted_live)
            .filter(|&(_, &live)| live)
            .map(|(e, _)| *e);
        base.chain(inserted)
    }

    /// Merged-view iteration: the live edges of one view (edge type), in
    /// canonical merged order, without compacting.
    pub fn live_edges_of_type(&self, t: EdgeTypeId) -> impl Iterator<Item = Edge> + '_ {
        self.live_edges().filter(move |e| e.etype == t)
    }

    /// Epoch-boundary rebuild: construct a full [`HetNet`] from the merged
    /// state through [`HetNetBuilder::build_with`]'s sharded counting sort.
    ///
    /// Bit-identical to building a network from the canonical merged edge
    /// order directly, at every thread count (the counting sort is defined
    /// to equal one stable sort by `(src, dst)` regardless of `par`); the
    /// testkit case `stream-compact-threads` pins this.
    pub fn compact(&self, par: Parallelism) -> Result<HetNet, GraphError> {
        let mut b = HetNetBuilder::with_schema(self.base.schema().clone());
        for n in 0..self.base.num_nodes() {
            b.add_node(self.base.node_type(NodeId::from_index(n)));
        }
        for &t in &self.added_types {
            b.add_node(t);
        }
        for e in self.live_edges() {
            b.add_edge(e.u, e.v, e.etype, e.weight)?;
        }
        b.build_with(par)
    }
}

/// FNV-1a 64-bit (same parameters as the serving store's checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Magic first line of the delta-log format.
pub const DELTA_LOG_HEADER: &str = "# transn delta log v1";

/// Serialize batches to the line-oriented delta-log format:
///
/// ```text
/// # transn delta log v1
/// batch\t<t>
/// node\t<ntype>
/// edge\t<u>\t<v>\t<etype>\t<weight>
/// rm\t<u>\t<v>\t<etype>
/// checksum\t<fnv1a64 of all preceding bytes, 16 hex digits>
/// ```
///
/// Weights round-trip exactly: they are written as the f32 bit pattern in
/// hex alongside a human-readable decimal.
pub fn write_delta_log<W: Write>(batches: &[DeltaBatch], mut out: W) -> Result<(), GraphError> {
    let mut body = String::new();
    body.push_str(DELTA_LOG_HEADER);
    body.push('\n');
    for b in batches {
        body.push_str(&format!("batch\t{}\n", b.t));
        for op in &b.ops {
            match *op {
                DeltaOp::AddNode { ntype } => body.push_str(&format!("node\t{ntype}\n")),
                DeltaOp::AddEdge {
                    u,
                    v,
                    etype,
                    weight,
                } => body.push_str(&format!(
                    "edge\t{u}\t{v}\t{etype}\t{:08x}\t# w={weight}\n",
                    weight.to_bits()
                )),
                DeltaOp::RemoveEdge { u, v, etype } => {
                    body.push_str(&format!("rm\t{u}\t{v}\t{etype}\n"))
                }
            }
        }
    }
    let sum = fnv1a64(body.as_bytes());
    out.write_all(body.as_bytes())?;
    writeln!(out, "checksum\t{sum:016x}")?;
    Ok(())
}

fn parse_num<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T, GraphError> {
    s.parse::<T>().map_err(|_| GraphError::Parse {
        line,
        msg: format!("invalid {what}: {s:?}"),
    })
}

/// Parse a delta log, verifying the checksum trailer.
///
/// Errors are typed and carry line context: a malformed record is
/// [`GraphError::Parse`] at its line, a log with no (or a non-final)
/// `checksum` trailer is [`GraphError::Parse`] naming the truncation, and
/// a trailer that does not hash-match the content is
/// [`GraphError::ChecksumMismatch`]. Semantic validity (do the nodes and
/// types exist? are the removed edges live?) is checked when the batches
/// are applied — see [`DeltaOverlay::apply_logged`].
pub fn read_delta_log<R: Read>(input: R) -> Result<Vec<LoggedBatch>, GraphError> {
    let reader = BufReader::new(input);
    let mut batches: Vec<LoggedBatch> = Vec::new();
    let mut hashed = 0u64; // running FNV over content lines
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let update = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut lineno = 0usize;
    let mut saw_checksum = false;
    for line in reader.lines() {
        let line = line?;
        lineno += 1;
        if saw_checksum {
            return Err(GraphError::Parse {
                line: lineno,
                msg: "content after checksum trailer".into(),
            });
        }
        if lineno == 1 {
            if line.trim() != DELTA_LOG_HEADER {
                return Err(GraphError::Parse {
                    line: 1,
                    msg: format!("expected {DELTA_LOG_HEADER:?} header, got {line:?}"),
                });
            }
            update(&mut h, line.as_bytes());
            update(&mut h, b"\n");
            hashed += 1;
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "checksum" => {
                if fields.len() != 2 {
                    return Err(GraphError::Parse {
                        line: lineno,
                        msg: "checksum trailer needs exactly one field".into(),
                    });
                }
                let stored =
                    u64::from_str_radix(fields[1].trim(), 16).map_err(|_| GraphError::Parse {
                        line: lineno,
                        msg: format!("invalid checksum hex: {:?}", fields[1]),
                    })?;
                if stored != h {
                    return Err(GraphError::ChecksumMismatch {
                        line: lineno,
                        stored,
                        computed: h,
                    });
                }
                saw_checksum = true;
                continue;
            }
            "batch" => {
                if fields.len() != 2 {
                    return Err(GraphError::Parse {
                        line: lineno,
                        msg: "batch record needs exactly one timestamp field".into(),
                    });
                }
                let t: u64 = parse_num(fields[1], lineno, "batch timestamp")?;
                batches.push(LoggedBatch {
                    batch: DeltaBatch::new(t),
                    lines: Vec::new(),
                });
            }
            kind @ ("node" | "edge" | "rm") => {
                let cur = batches.last_mut().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    msg: format!("{kind:?} record before any batch header"),
                })?;
                let op = match kind {
                    "node" => {
                        if fields.len() != 2 {
                            return Err(GraphError::Parse {
                                line: lineno,
                                msg: "node record needs exactly one type field".into(),
                            });
                        }
                        DeltaOp::AddNode {
                            ntype: NodeTypeId(parse_num(fields[1], lineno, "node type id")?),
                        }
                    }
                    "edge" => {
                        if fields.len() < 5 {
                            return Err(GraphError::Parse {
                                line: lineno,
                                msg: "edge record needs u, v, etype, weight fields".into(),
                            });
                        }
                        let bits = u32::from_str_radix(fields[4].trim(), 16).map_err(|_| {
                            GraphError::Parse {
                                line: lineno,
                                msg: format!("invalid weight bits: {:?}", fields[4]),
                            }
                        })?;
                        DeltaOp::AddEdge {
                            u: NodeId(parse_num(fields[1], lineno, "node id")?),
                            v: NodeId(parse_num(fields[2], lineno, "node id")?),
                            etype: EdgeTypeId(parse_num(fields[3], lineno, "edge type id")?),
                            weight: f32::from_bits(bits),
                        }
                    }
                    _ => {
                        if fields.len() != 4 {
                            return Err(GraphError::Parse {
                                line: lineno,
                                msg: "rm record needs u, v, etype fields".into(),
                            });
                        }
                        DeltaOp::RemoveEdge {
                            u: NodeId(parse_num(fields[1], lineno, "node id")?),
                            v: NodeId(parse_num(fields[2], lineno, "node id")?),
                            etype: EdgeTypeId(parse_num(fields[3], lineno, "edge type id")?),
                        }
                    }
                };
                cur.batch.ops.push(op);
                cur.lines.push(lineno);
            }
            other => {
                return Err(GraphError::Parse {
                    line: lineno,
                    msg: format!("unknown record kind {other:?}"),
                });
            }
        }
        update(&mut h, line.as_bytes());
        update(&mut h, b"\n");
        hashed += 1;
    }
    if lineno == 0 {
        return Err(GraphError::Parse {
            line: 1,
            msg: format!("empty delta log: expected {DELTA_LOG_HEADER:?} header"),
        });
    }
    if !saw_checksum {
        return Err(GraphError::Parse {
            line: lineno + 1,
            msg: format!(
                "truncated delta log: missing checksum trailer after {hashed} content lines"
            ),
        });
    }
    Ok(batches)
}

/// Replay a parsed delta log onto an overlay, attaching source lines to
/// any application error.
pub fn replay_delta_log(
    overlay: &mut DeltaOverlay,
    batches: &[LoggedBatch],
) -> Result<(), GraphError> {
    for b in batches {
        overlay.apply_logged(b)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// users 0..4, items 4..6; follows(UU) ring + two rates(UI) edges.
    fn toy_net() -> HetNet {
        let mut b = HetNetBuilder::new();
        let ut = b.add_node_type("user");
        let it = b.add_node_type("item");
        let follows = b.add_edge_type("follows", ut, ut);
        let rates = b.add_edge_type("rates", ut, it);
        let users = b.add_nodes(ut, 4);
        let items = b.add_nodes(it, 2);
        for i in 0..4 {
            b.add_edge(users[i], users[(i + 1) % 4], follows, 1.0)
                .unwrap();
        }
        b.add_edge(users[0], items[0], rates, 2.0).unwrap();
        b.add_edge(users[1], items[1], rates, 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn insert_remove_and_iterate() {
        let net = toy_net();
        let mut ov = DeltaOverlay::new(net);
        assert_eq!(ov.num_live_edges(), 6);
        let mut batch = DeltaBatch::new(1);
        batch.add_edge(NodeId(2), NodeId(4), EdgeTypeId(1), 1.5);
        batch.remove_edge(NodeId(0), NodeId(1), EdgeTypeId(0));
        ov.apply(&batch).unwrap();
        assert_eq!(ov.num_live_edges(), 6);
        let rates: Vec<Edge> = ov.live_edges_of_type(EdgeTypeId(1)).collect();
        assert_eq!(rates.len(), 3);
        assert_eq!(rates[2].u, NodeId(2));
        let follows: Vec<Edge> = ov.live_edges_of_type(EdgeTypeId(0)).collect();
        assert_eq!(follows.len(), 3);
        assert!(follows
            .iter()
            .all(|e| !(e.u == NodeId(0) && e.v == NodeId(1))));
    }

    #[test]
    fn added_nodes_extend_id_space() {
        let mut ov = DeltaOverlay::new(toy_net());
        let mut batch = DeltaBatch::new(1);
        batch.add_node(NodeTypeId(1)); // item id 6
        batch.add_edge(NodeId(3), NodeId(6), EdgeTypeId(1), 1.0);
        ov.apply(&batch).unwrap();
        assert_eq!(ov.num_nodes(), 7);
        assert_eq!(ov.node_type(NodeId(6)), NodeTypeId(1));
        let net = ov.compact(Parallelism::single()).unwrap();
        assert_eq!(net.num_nodes(), 7);
        assert_eq!(net.degree(NodeId(6)), 1);
    }

    #[test]
    fn remove_missing_edge_is_typed() {
        let mut ov = DeltaOverlay::new(toy_net());
        let mut batch = DeltaBatch::new(1);
        batch.remove_edge(NodeId(0), NodeId(2), EdgeTypeId(0));
        let err = ov.apply(&batch).unwrap_err();
        assert!(matches!(err, GraphError::MissingEdge { .. }), "{err}");
        // Removing the same live edge twice: second is missing.
        let mut twice = DeltaBatch::new(2);
        twice.remove_edge(NodeId(0), NodeId(1), EdgeTypeId(0));
        twice.remove_edge(NodeId(1), NodeId(0), EdgeTypeId(0));
        let err = ov.apply(&twice).unwrap_err();
        assert!(matches!(err, GraphError::MissingEdge { .. }), "{err}");
    }

    #[test]
    fn undeclared_node_type_is_typed() {
        let mut ov = DeltaOverlay::new(toy_net());
        let mut batch = DeltaBatch::new(1);
        batch.add_node(NodeTypeId(9));
        let err = ov.apply(&batch).unwrap_err();
        assert!(matches!(err, GraphError::UnknownNodeType(NodeTypeId(9))));
    }

    #[test]
    fn parallel_edges_remove_lifo() {
        let mut ov = DeltaOverlay::new(toy_net());
        let mut batch = DeltaBatch::new(1);
        batch.add_edge(NodeId(0), NodeId(1), EdgeTypeId(0), 5.0);
        batch.remove_edge(NodeId(0), NodeId(1), EdgeTypeId(0));
        ov.apply(&batch).unwrap();
        // The overlay insert (w=5.0) was the last live match, so the base
        // ring edge (w=1.0) survives.
        let w: Vec<f32> = ov
            .live_edges_of_type(EdgeTypeId(0))
            .filter(|e| {
                edge_key(e.u, e.v, e.etype) == edge_key(NodeId(0), NodeId(1), EdgeTypeId(0))
            })
            .map(|e| e.weight)
            .collect();
        assert_eq!(w, vec![1.0]);
    }

    #[test]
    fn removals_drop_dead_keys_from_the_index() {
        let mut ov = DeltaOverlay::new(toy_net());
        for t in 0..6u32 {
            let mut ins = DeltaBatch::new(2 * t as u64);
            ins.add_edge(NodeId(2), NodeId(5), EdgeTypeId(1), 1.0);
            ins.add_edge(NodeId(3), NodeId(4), EdgeTypeId(1), 1.0);
            ins.add_edge(NodeId(3), NodeId(4), EdgeTypeId(1), 2.0);
            ov.apply(&ins).unwrap();
            let mut rm = DeltaBatch::new(2 * t as u64 + 1);
            rm.remove_edge(NodeId(5), NodeId(2), EdgeTypeId(1));
            rm.remove_edge(NodeId(3), NodeId(4), EdgeTypeId(1));
            rm.remove_edge(NodeId(4), NodeId(3), EdgeTypeId(1));
            // A base edge: its key leaves the index for good.
            if t == 0 {
                rm.remove_edge(NodeId(0), NodeId(1), EdgeTypeId(0));
            }
            ov.apply(&rm).unwrap();
            assert!(ov.live_index.values().all(|slots| !slots.is_empty()));
            assert!(ov.live_index.len() <= ov.num_live_edges());
        }
        assert_eq!(ov.num_live_edges(), 5);
        // A dead key still reports the typed error, and reinserting it works.
        let mut again = DeltaBatch::new(20);
        again.remove_edge(NodeId(0), NodeId(1), EdgeTypeId(0));
        let err = ov.apply(&again).unwrap_err();
        assert!(matches!(err, GraphError::MissingEdge { .. }), "{err}");
        let mut back = DeltaBatch::new(21);
        back.add_edge(NodeId(1), NodeId(0), EdgeTypeId(0), 1.0);
        back.remove_edge(NodeId(0), NodeId(1), EdgeTypeId(0));
        ov.apply(&back).unwrap();
        assert_eq!(ov.num_live_edges(), 5);
    }

    #[test]
    fn compact_equals_direct_build() {
        let net = toy_net();
        let mut ov = DeltaOverlay::new(net.clone());
        let mut batch = DeltaBatch::new(1);
        batch.add_edge(NodeId(0), NodeId(2), EdgeTypeId(0), 2.5);
        batch.remove_edge(NodeId(1), NodeId(2), EdgeTypeId(0));
        ov.apply(&batch).unwrap();

        let mut b = HetNetBuilder::with_schema(net.schema().clone());
        for n in net.nodes() {
            b.add_node(net.node_type(n));
        }
        for e in ov.live_edges() {
            b.add_edge(e.u, e.v, e.etype, e.weight).unwrap();
        }
        let direct = b.build().unwrap();

        for t in [1usize, 2, 4, 8] {
            let c = ov.compact(Parallelism::strict(t)).unwrap();
            assert_eq!(c.edges(), direct.edges(), "threads={t}");
            for n in 0..c.num_nodes() {
                assert_eq!(
                    c.global_adj().neighbors(n),
                    direct.global_adj().neighbors(n)
                );
                let a: Vec<u32> = c
                    .global_adj()
                    .weights(n)
                    .iter()
                    .map(|w| w.to_bits())
                    .collect();
                let b: Vec<u32> = direct
                    .global_adj()
                    .weights(n)
                    .iter()
                    .map(|w| w.to_bits())
                    .collect();
                assert_eq!(a, b, "threads={t} node={n}");
            }
        }
    }

    #[test]
    fn log_roundtrip_is_exact() {
        let mut batches = vec![DeltaBatch::new(3), DeltaBatch::new(4)];
        batches[0].add_node(NodeTypeId(1));
        batches[0].add_edge(NodeId(0), NodeId(6), EdgeTypeId(1), 1.25e-3);
        batches[1].remove_edge(NodeId(2), NodeId(3), EdgeTypeId(0));
        let mut buf = Vec::new();
        write_delta_log(&batches, &mut buf).unwrap();
        let logged = read_delta_log(&buf[..]).unwrap();
        let parsed: Vec<DeltaBatch> = logged.into_iter().map(|l| l.batch).collect();
        assert_eq!(parsed, batches);
    }

    #[test]
    fn truncated_log_is_typed_parse_error() {
        let mut batches = vec![DeltaBatch::new(1)];
        batches[0].remove_edge(NodeId(0), NodeId(1), EdgeTypeId(0));
        let mut buf = Vec::new();
        write_delta_log(&batches, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let cut = s.find("checksum").unwrap(); // drop the checksum trailer
        let err = read_delta_log(&s.as_bytes()[..cut]).unwrap_err();
        match err {
            GraphError::Parse { msg, .. } => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn corrupted_log_fails_checksum() {
        let mut batches = vec![DeltaBatch::new(1)];
        batches[0].add_node(NodeTypeId(0));
        let mut buf = Vec::new();
        write_delta_log(&batches, &mut buf).unwrap();
        let s = String::from_utf8(buf)
            .unwrap()
            .replace("batch\t1", "batch\t2");
        let err = read_delta_log(s.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn logged_apply_carries_line_context() {
        let net = toy_net();
        let mut batches = vec![DeltaBatch::new(1)];
        batches[0].remove_edge(NodeId(0), NodeId(2), EdgeTypeId(0)); // not an edge
        let mut buf = Vec::new();
        write_delta_log(&batches, &mut buf).unwrap();
        let logged = read_delta_log(&buf[..]).unwrap();
        let mut ov = DeltaOverlay::new(net);
        let err = replay_delta_log(&mut ov, &logged).unwrap_err();
        match &err {
            GraphError::AtLine { line, .. } => assert_eq!(*line, 3),
            other => panic!("expected AtLine, got {other}"),
        }
        assert!(matches!(err.root_cause(), GraphError::MissingEdge { .. }));
    }

    #[test]
    fn empty_delta_touches_nothing() {
        let b = DeltaBatch::new(0);
        assert!(b.is_empty());
        assert_eq!(b.touched_edge_types(3), vec![false; 3]);
    }
}
