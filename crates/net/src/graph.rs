//! The overlay topology graph.
//!
//! An overlay is an undirected graph of broker nodes. Every link carries a
//! propagation delay (the paper draws them uniformly from 10–50 ms, modeled
//! on AT&T backbone measurements). Links are symmetric: the same delay and
//! failure state applies in both directions, matching the paper's model.

use std::fmt;

use dcrd_sim::SimDuration;

/// Identifier of a broker node within one [`Topology`] (dense, `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node, usable to index per-node arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected overlay link within one [`Topology`]
/// (dense, `0..m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// The dense index of this edge, usable to index per-edge arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One undirected overlay link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    a: NodeId,
    b: NodeId,
    delay: SimDuration,
}

/// Fallback for out-of-range edge lookups: a zero-delay self-loop on node
/// 0, an edge no routing logic will ever traverse. Reachable only through
/// a bogus `EdgeId` (a caller bug); returning it keeps the accessors
/// panic-free on the hot path.
const DEGENERATE_EDGE: Edge = Edge {
    a: NodeId(0),
    b: NodeId(0),
    delay: SimDuration::ZERO,
};

impl Edge {
    /// One endpoint.
    #[must_use]
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// The other endpoint.
    #[must_use]
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// One-way propagation delay of the link.
    #[must_use]
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this edge.
    #[must_use]
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("{from} is not an endpoint of edge {self:?}")
        }
    }
}

/// An immutable overlay topology: broker nodes plus undirected delay-weighted
/// links.
///
/// Built through [`TopologyBuilder`] or the generators in
/// [`topology`](crate::topology). Node and edge ids are dense indices so
/// per-node/per-edge state can live in plain vectors.
///
/// Adjacency is stored in compressed-sparse-row (CSR) form: one flat
/// `(neighbor, edge)` array plus per-node offsets into it. A neighbor scan
/// is a contiguous slice read — no per-node `Vec` headers, no pointer
/// chasing — which is what Dijkstra and table repair spend their time on at
/// 1k-broker scale.
///
/// # Example
///
/// ```
/// use dcrd_net::graph::TopologyBuilder;
/// use dcrd_sim::SimDuration;
///
/// let mut b = TopologyBuilder::new(3);
/// let n = b.nodes();
/// b.link(n[0], n[1], SimDuration::from_millis(10));
/// b.link(n[1], n[2], SimDuration::from_millis(20));
/// let topo = b.build();
/// assert_eq!(topo.num_nodes(), 3);
/// assert_eq!(topo.num_edges(), 2);
/// assert!(topo.is_connected());
/// assert_eq!(topo.degree(n[1]), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    edges: Vec<Edge>,
    /// CSR row offsets: node `v`'s neighbors live at
    /// `csr_pairs[csr_offsets[v] .. csr_offsets[v + 1]]`. Length is
    /// `num_nodes + 1`; the final entry equals `csr_pairs.len()`.
    csr_offsets: Vec<u32>,
    /// Flat `(neighbor, edge)` pairs, each node's segment sorted by
    /// neighbor id. Length is `2 * num_edges`.
    csr_pairs: Vec<(NodeId, EdgeId)>,
}

/// Builds the CSR arrays from an edge list: degree count, prefix-sum
/// offsets, scatter, then an in-segment sort by neighbor id (the invariant
/// [`Topology::edge_between`]'s binary search relies on).
fn build_csr(num_nodes: usize, edges: &[Edge]) -> (Vec<u32>, Vec<(NodeId, EdgeId)>) {
    let mut offsets = vec![0u32; num_nodes + 1];
    for e in edges {
        offsets[e.a.index() + 1] += 1;
        offsets[e.b.index() + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut pairs = vec![(NodeId(0), EdgeId(0)); edges.len() * 2];
    let mut cursor: Vec<u32> = offsets[..num_nodes].to_vec();
    for (i, e) in edges.iter().enumerate() {
        let id = EdgeId(i as u32);
        let slot_a = cursor[e.a.index()];
        pairs[slot_a as usize] = (e.b, id);
        cursor[e.a.index()] = slot_a + 1;
        let slot_b = cursor[e.b.index()];
        pairs[slot_b as usize] = (e.a, id);
        cursor[e.b.index()] = slot_b + 1;
    }
    for v in 0..num_nodes {
        pairs[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable_by_key(|&(n, _)| n);
    }
    (offsets, pairs)
}

impl Topology {
    /// Number of broker nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.csr_offsets.len() - 1
    }

    /// Number of undirected links.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node with dense index `index`. An out-of-range index is a
    /// caller bug; it yields an id no adjacency lookup will resolve
    /// (debug builds assert).
    #[must_use]
    pub fn node(&self, index: usize) -> NodeId {
        debug_assert!(index < self.num_nodes(), "node index {index} out of range");
        NodeId(index as u32)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// The edge with the given id. A bogus id resolves to a degenerate
    /// edge (a zero-delay self-loop on node 0) rather than panicking: the
    /// hot path treats it as an edge nothing traverses.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        self.edges.get(id.index()).unwrap_or(&DEGENERATE_EDGE)
    }

    /// One-way propagation delay of the given link (zero for a bogus id).
    #[must_use]
    pub fn delay(&self, id: EdgeId) -> SimDuration {
        self.edges
            .get(id.index())
            .map_or(SimDuration::ZERO, |e| e.delay)
    }

    /// Neighbors of `node` as `(neighbor, connecting edge)` pairs, sorted by
    /// neighbor id (empty for an unknown node).
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, EdgeId)] {
        let v = node.index();
        let (Some(&lo), Some(&hi)) = (self.csr_offsets.get(v), self.csr_offsets.get(v + 1)) else {
            return &[];
        };
        self.csr_pairs.get(lo as usize..hi as usize).unwrap_or(&[])
    }

    /// Number of links incident to `node`.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// The edge connecting `a` and `b`, if one exists.
    #[must_use]
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        let adj = self.neighbors(a);
        let i = adj.binary_search_by_key(&b, |&(n, _)| n).ok()?;
        adj.get(i).map(|&(_, e)| e)
    }

    /// Whether every node can reach every other node.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(node) = stack.pop() {
            for &(next, _) in self.neighbors(node) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == n
    }

    /// Average node degree.
    #[must_use]
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        2.0 * self.num_edges() as f64 / self.num_nodes() as f64
    }
}

/// Orders an undirected endpoint pair canonically for set membership.
fn normalized(a: NodeId, b: NodeId) -> (u32, u32) {
    let (x, y) = (a.index() as u32, b.index() as u32);
    (x.min(y), x.max(y))
}

/// Incremental builder for [`Topology`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    num_nodes: usize,
    edges: Vec<Edge>,
    /// Normalized `(min, max)` endpoint pairs of every added link, so the
    /// `has_link` queries random generators issue per candidate edge are a
    /// set lookup instead of an `O(E)` scan.
    pairs: std::collections::BTreeSet<(u32, u32)>,
    /// Per-node link count, maintained incrementally.
    degrees: Vec<u32>,
}

impl TopologyBuilder {
    /// Starts a topology with `num_nodes` nodes and no links.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero or exceeds `u32::MAX`.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "topology needs at least one node");
        assert!(num_nodes <= u32::MAX as usize, "too many nodes");
        TopologyBuilder {
            num_nodes,
            edges: Vec::new(),
            pairs: std::collections::BTreeSet::new(),
            degrees: vec![0; num_nodes],
        }
    }

    /// All node ids of the topology being built.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes as u32).map(NodeId).collect()
    }

    /// Whether a link between `a` and `b` has already been added.
    #[must_use]
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.pairs.contains(&normalized(a, b))
    }

    /// Current number of links incident to `node`.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.degrees.get(node.index()).copied().unwrap_or(0) as usize
    }

    /// Adds an undirected link between `a` and `b` with one-way delay
    /// `delay`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, on duplicate links, or if either endpoint is
    /// out of range.
    pub fn link(&mut self, a: NodeId, b: NodeId, delay: SimDuration) -> EdgeId {
        assert!(a != b, "self-loop on {a}");
        assert!(
            a.index() < self.num_nodes && b.index() < self.num_nodes,
            "endpoint out of range"
        );
        assert!(!self.has_link(a, b), "duplicate link {a}-{b}");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { a, b, delay });
        self.pairs.insert(normalized(a, b));
        self.degrees[a.index()] += 1;
        self.degrees[b.index()] += 1;
        id
    }

    /// Finalizes the topology.
    #[must_use]
    pub fn build(self) -> Topology {
        let (csr_offsets, csr_pairs) = build_csr(self.num_nodes, &self.edges);
        Topology {
            edges: self.edges,
            csr_offsets,
            csr_pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new(3);
        let n = b.nodes();
        b.link(n[0], n[1], SimDuration::from_millis(10));
        b.link(n[1], n[2], SimDuration::from_millis(20));
        b.link(n[0], n[2], SimDuration::from_millis(30));
        b.build()
    }

    #[test]
    fn builder_and_accessors() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.degree(t.node(0)), 2);
        assert!((t.average_degree() - 2.0).abs() < 1e-12);
        let e = t.edge_between(t.node(0), t.node(2)).unwrap();
        assert_eq!(t.delay(e), SimDuration::from_millis(30));
        assert_eq!(t.edge(e).other(t.node(0)), t.node(2));
        assert_eq!(t.edge(e).other(t.node(2)), t.node(0));
    }

    #[test]
    fn edge_between_is_symmetric() {
        let t = triangle();
        for a in t.nodes() {
            for b in t.nodes() {
                assert_eq!(t.edge_between(a, b), t.edge_between(b, a));
            }
        }
        assert_eq!(t.edge_between(t.node(0), t.node(0)), None);
    }

    #[test]
    fn neighbors_sorted_by_id() {
        let t = triangle();
        for node in t.nodes() {
            let ns = t.neighbors(node);
            for w in ns.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn connectivity_detection() {
        let t = triangle();
        assert!(t.is_connected());

        let mut b = TopologyBuilder::new(4);
        let n = b.nodes();
        b.link(n[0], n[1], SimDuration::from_millis(1));
        // node 2, 3 isolated except one link between them
        b.link(n[2], n[3], SimDuration::from_millis(1));
        assert!(!b.build().is_connected());

        let single = TopologyBuilder::new(1).build();
        assert!(single.is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new(2);
        let n = b.nodes();
        b.link(n[0], n[0], SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_rejected() {
        let mut b = TopologyBuilder::new(2);
        let n = b.nodes();
        b.link(n[0], n[1], SimDuration::from_millis(1));
        b.link(n[1], n[0], SimDuration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_rejects_non_endpoint() {
        let t = triangle();
        let e = t.edge_between(t.node(0), t.node(1)).unwrap();
        let _ = t.edge(e).other(t.node(2));
    }

    #[test]
    fn csr_layout_matches_edge_list() {
        let t = triangle();
        // Offsets are a proper prefix sum over degrees and the pair array
        // holds both directions of every edge.
        assert_eq!(t.csr_offsets.len(), t.num_nodes() + 1);
        assert_eq!(t.csr_pairs.len(), 2 * t.num_edges());
        assert_eq!(*t.csr_offsets.last().unwrap() as usize, t.csr_pairs.len());
        for node in t.nodes() {
            for &(next, e) in t.neighbors(node) {
                assert_eq!(t.edge(e).other(node), next);
            }
        }
        // Unknown nodes resolve to an empty segment, not a panic.
        assert!(t.neighbors(NodeId::new(99)).is_empty());
        assert_eq!(t.degree(NodeId::new(99)), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(4).to_string(), "n4");
        assert_eq!(EdgeId::new(2).to_string(), "e2");
    }
}
