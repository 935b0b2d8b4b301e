//! Views (Definition 2), homo/heter classification (Definition 4), and
//! view-pairs (Definition 3).

use crate::csr::Csr;
use crate::ids::{EdgeTypeId, NodeId, NodeTypeId};
use crate::network::HetNet;
use crate::par::Parallelism;

/// Whether a view contains one node type or two (Definition 4).
///
/// Definition 6 and Equation (4) treat the two kinds differently: heter-views
/// get a ±2 context window and the correlated `π₂` step; homo-views get a ±1
/// window and `π₁` only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewKind {
    /// A single node type and a single edge type.
    Homo,
    /// Two node types and a single edge type (e.g. author–paper).
    Heter,
}

/// The view `φ_i = {V_i, E_i}` of a heterogeneous network: the subnetwork
/// induced by the edges of one type (Definition 2).
///
/// Nodes are re-indexed locally (`0..num_nodes()`); [`View::global`] and
/// [`View::local`] convert between local indices and global [`NodeId`]s.
/// By construction a view has no isolated nodes — `V_i` is defined as the
/// end-nodes of `E_i` — which is precisely the property Figure 2(c) of the
/// paper highlights over node-type-partitioned multi-view methods.
#[derive(Clone, Debug)]
pub struct View {
    etype: EdgeTypeId,
    kind: ViewKind,
    /// Sorted global ids of the view's nodes; position = local index.
    globals: Vec<NodeId>,
    /// Node type of each local node.
    node_types: Vec<NodeTypeId>,
    /// Local adjacency (both directions of each undirected edge).
    adj: Csr,
    num_edges: usize,
}

impl View {
    /// Extract the view of edge type `etype` from `net` (Definition 2),
    /// with an explicit thread policy for the local CSR construction
    /// (bit-identical output for every `par`).
    pub fn from_network_with(net: &HetNet, etype: EdgeTypeId, par: Parallelism) -> Self {
        let mut globals: Vec<NodeId> = Vec::new();
        for e in net.edges().iter().filter(|e| e.etype == etype) {
            globals.push(e.u);
            globals.push(e.v);
        }
        globals.sort_unstable();
        globals.dedup();

        let local_of =
            |g: NodeId| -> u32 { globals.binary_search(&g).expect("endpoint in node set") as u32 };
        let mut edges = Vec::new();
        for e in net.edges().iter().filter(|e| e.etype == etype) {
            edges.push((local_of(e.u), local_of(e.v), e.weight));
        }
        let num_edges = edges.len();
        let adj = Csr::from_undirected_with(globals.len(), edges, par);
        let node_types: Vec<NodeTypeId> = globals.iter().map(|&g| net.node_type(g)).collect();
        let kind = if net.schema().is_homo(etype) {
            ViewKind::Homo
        } else {
            ViewKind::Heter
        };
        View {
            etype,
            kind,
            globals,
            node_types,
            adj,
            num_edges,
        }
    }

    /// Build a view directly from parts (used by [`crate::PairedSubview`]).
    pub(crate) fn from_parts(
        etype: EdgeTypeId,
        kind: ViewKind,
        globals: Vec<NodeId>,
        node_types: Vec<NodeTypeId>,
        adj: Csr,
        num_edges: usize,
    ) -> Self {
        View {
            etype,
            kind,
            globals,
            node_types,
            adj,
            num_edges,
        }
    }

    /// The edge type that induced this view. Views are canonically indexed
    /// by this id: `net.views()[v.etype().index()]` is `v`.
    pub fn etype(&self) -> EdgeTypeId {
        self.etype
    }

    /// Homo-view or heter-view (Definition 4).
    pub fn kind(&self) -> ViewKind {
        self.kind
    }

    /// `|V_i|`, the number of nodes in the view.
    pub fn num_nodes(&self) -> usize {
        self.globals.len()
    }

    /// `|E_i|`, the number of undirected edges in the view.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The global node id of local index `l`.
    #[inline]
    pub fn global(&self, l: u32) -> NodeId {
        self.globals[l as usize]
    }

    /// The local index of global node `g`, if it is in the view.
    #[inline]
    pub fn local(&self, g: NodeId) -> Option<u32> {
        self.globals.binary_search(&g).ok().map(|i| i as u32)
    }

    /// Sorted global ids of the view's nodes.
    pub fn global_nodes(&self) -> &[NodeId] {
        &self.globals
    }

    /// Node type of local node `l`.
    #[inline]
    pub fn node_type(&self, l: u32) -> NodeTypeId {
        self.node_types[l as usize]
    }

    /// Local adjacency.
    pub fn adj(&self) -> &Csr {
        &self.adj
    }

    /// Degree of local node `l` inside this view.
    #[inline]
    pub fn degree(&self, l: u32) -> usize {
        self.adj.degree(l as usize)
    }
}

/// A view-pair `η_{i,j}`: two views whose node sets intersect
/// (Definition 3). Holds borrowed views plus the sorted list of common
/// global node ids.
#[derive(Debug)]
pub struct ViewPair<'a> {
    /// The first view `φ_i` (lower edge-type id).
    pub vi: &'a View,
    /// The second view `φ_j`.
    pub vj: &'a View,
    /// `M_{ij}`: sorted global ids of nodes present in both views.
    common: Vec<NodeId>,
}

impl<'a> ViewPair<'a> {
    /// Form the view-pair if the node sets intersect; `None` otherwise
    /// (Definition 3 requires `V_i ∩ V_j ≠ ∅`).
    pub fn new(vi: &'a View, vj: &'a View) -> Option<Self> {
        let common = intersect_sorted(vi.global_nodes(), vj.global_nodes());
        if common.is_empty() {
            None
        } else {
            Some(ViewPair { vi, vj, common })
        }
    }

    /// `M_{ij}`: the common nodes, sorted by global id.
    pub fn common_nodes(&self) -> &[NodeId] {
        &self.common
    }

    /// Whether a global node is common to both views (binary search).
    pub fn is_common(&self, g: NodeId) -> bool {
        self.common.binary_search(&g).is_ok()
    }
}

/// Intersect two sorted slices of node ids.
fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HetNetBuilder;

    fn academic() -> HetNet {
        let mut b = HetNetBuilder::new();
        let author = b.add_node_type("author");
        let paper = b.add_node_type("paper");
        let coauth = b.add_edge_type("coauthor", author, author);
        let writes = b.add_edge_type("writes", author, paper);
        let a0 = b.add_node(author);
        let a1 = b.add_node(author);
        let a2 = b.add_node(author);
        let p0 = b.add_node(paper);
        b.add_edge(a0, a1, coauth, 1.0).unwrap();
        b.add_edge(a1, p0, writes, 2.0).unwrap();
        b.add_edge(a2, p0, writes, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn view_kinds() {
        let g = academic();
        let views = g.views();
        assert_eq!(views[0].kind(), ViewKind::Homo);
        assert_eq!(views[1].kind(), ViewKind::Heter);
    }

    #[test]
    fn views_have_no_isolated_nodes() {
        let g = academic();
        for v in g.views() {
            for l in 0..v.num_nodes() as u32 {
                assert!(v.degree(l) > 0, "isolated node in view {:?}", v.etype());
            }
        }
    }

    #[test]
    fn local_global_roundtrip() {
        let g = academic();
        let views = g.views();
        let w = &views[1];
        for l in 0..w.num_nodes() as u32 {
            assert_eq!(w.local(w.global(l)), Some(l));
        }
        // a0 is not in the writes view.
        assert_eq!(w.local(NodeId(0)), None);
    }

    #[test]
    fn node_types_follow_globals() {
        let g = academic();
        let views = g.views();
        let w = &views[1];
        let author = g.schema().node_type_by_name("author").unwrap();
        let paper = g.schema().node_type_by_name("paper").unwrap();
        let mut seen = std::collections::HashSet::new();
        for l in 0..w.num_nodes() as u32 {
            seen.insert(w.node_type(l));
        }
        assert!(seen.contains(&author) && seen.contains(&paper));
    }

    #[test]
    fn view_pair_common_nodes() {
        let g = academic();
        let views = g.views();
        let pair = ViewPair::new(&views[0], &views[1]).unwrap();
        // Only a1 is in both the coauthor and writes views.
        assert_eq!(pair.common_nodes(), &[NodeId(1)]);
        assert!(pair.is_common(NodeId(1)));
        assert!(!pair.is_common(NodeId(0)));
    }

    #[test]
    fn disjoint_views_form_no_pair() {
        let mut b = HetNetBuilder::new();
        let t = b.add_node_type("t");
        let e1 = b.add_edge_type("e1", t, t);
        let e2 = b.add_edge_type("e2", t, t);
        let n: Vec<_> = (0..4).map(|_| b.add_node(t)).collect();
        b.add_edge(n[0], n[1], e1, 1.0).unwrap();
        b.add_edge(n[2], n[3], e2, 1.0).unwrap();
        let g = b.build().unwrap();
        let views = g.views();
        assert!(ViewPair::new(&views[0], &views[1]).is_none());
        assert!(g.view_pairs(&views).is_empty());
    }

    #[test]
    fn weighted_adjacency_survives_projection() {
        let g = academic();
        let views = g.views();
        let w = &views[1];
        let a1 = w.local(NodeId(1)).unwrap();
        let p0 = w.local(NodeId(3)).unwrap();
        assert_eq!(w.adj().weight_of(a1 as usize, p0), Some(2.0));
    }
}
