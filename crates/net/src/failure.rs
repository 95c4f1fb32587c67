//! Failure models.
//!
//! The paper injects failures by re-rolling the network condition **once per
//! second**: in each 1-second epoch a randomly chosen set of links fails and
//! drops every packet for that second. We model this exactly: per epoch,
//! each link independently fails with probability `Pf`.
//!
//! The implementation is *stateless*: whether link `e` is failed during
//! epoch `k` is a pure hash of `(seed, e, k)`, so any component can query
//! the failure state at any time with no shared mutable state, and a run is
//! reproducible from its seed alone. A caller that asks on every event
//! (the runtime, at each send and arrival) keeps a [`FailureView`]: the same
//! answers, computed once per epoch by these functions and then read back.
//! Its [`FailureState::fate`] is the transport's one rule for what becomes
//! of a transmission: blocked, lost (with its [`Cause`]) or arrived.
//!
//! The paper's conclusion sketches **node failures** as future work; the
//! [`NodeFailureModel`] extension implements fail-stop node outages the same
//! way (a failed node silently drops everything addressed to it, which takes
//! down all of its incident links at once — exactly the "simultaneous link
//! failures" scenario the paper worries about).

use dcrd_sim::rng::{splitmix64, unit, SmallRng};
use dcrd_sim::{SimDuration, SimTime};

use crate::chaos::ChaosModel;
use crate::graph::{EdgeId, NodeId, Topology};
use crate::loss::LossModel;

/// The paper's epoch length: network conditions change once per second.
pub const DEFAULT_EPOCH: SimDuration = SimDuration::from_secs(1);

/// Epoch-based Bernoulli link failures (the paper's model).
///
/// # Example
///
/// ```
/// use dcrd_net::failure::LinkFailureModel;
/// use dcrd_net::graph::EdgeId;
/// use dcrd_sim::SimTime;
///
/// let always_up = LinkFailureModel::new(0.0, 7);
/// assert!(!always_up.is_failed(EdgeId::new(0), SimTime::from_secs(3)));
/// let always_down = LinkFailureModel::new(1.0, 7);
/// assert!(always_down.is_failed(EdgeId::new(0), SimTime::from_secs(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFailureModel {
    pf: f64,
    seed: u64,
    epoch: SimDuration,
}

impl LinkFailureModel {
    /// Creates a model with failure probability `pf` per link per epoch,
    /// using the paper's 1-second epoch.
    ///
    /// # Panics
    ///
    /// Panics if `pf` is outside `[0, 1]`.
    #[must_use]
    pub fn new(pf: f64, seed: u64) -> Self {
        Self::with_epoch(pf, seed, DEFAULT_EPOCH)
    }

    /// Creates a model with a custom epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `pf` is outside `[0, 1]` or the epoch is zero.
    #[must_use]
    pub fn with_epoch(pf: f64, seed: u64, epoch: SimDuration) -> Self {
        assert!(
            (0.0..=1.0).contains(&pf),
            "failure probability out of range: {pf}"
        );
        assert!(epoch > SimDuration::ZERO, "epoch must be positive");
        LinkFailureModel { pf, seed, epoch }
    }

    /// The per-epoch failure probability.
    #[must_use]
    pub fn pf(&self) -> f64 {
        self.pf
    }

    /// The epoch length.
    #[must_use]
    pub fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// The epoch index containing instant `at`.
    #[must_use]
    pub fn epoch_index(&self, at: SimTime) -> u64 {
        at.as_micros() / self.epoch.as_micros()
    }

    /// Whether `edge` is failed during the epoch containing `at`.
    #[must_use]
    pub fn is_failed(&self, edge: EdgeId, at: SimTime) -> bool {
        if self.pf <= 0.0 {
            return false;
        }
        if self.pf >= 1.0 {
            return true;
        }
        let h = splitmix64(
            self.seed ^ splitmix64(edge.index() as u64) ^ splitmix64(self.epoch_index(at) ^ 0xA5A5),
        );
        unit(h) < self.pf
    }
}

/// Bursty link outages (extension): failures that persist for several
/// consecutive epochs.
///
/// The paper's model re-rolls every link each second, so outages last
/// exactly one second; its §III discussion of **persistent failures** (the
/// case motivating the persistency mode) never appears in its evaluation.
/// This model adds it: each epoch a link *starts* a burst with a small
/// probability, and burst lengths are geometric with a configurable mean.
/// The model stays stateless — burst starts and lengths are pure hashes of
/// `(seed, link, epoch)` — so queries remain O(max burst length) with no
/// shared mutable state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstFailureModel {
    start_prob: f64,
    mean_len: f64,
    max_len: u64,
    seed: u64,
    epoch: SimDuration,
}

impl BurstFailureModel {
    /// Creates a burst model targeting a marginal per-epoch failure rate of
    /// about `pf`, with bursts of `mean_burst_epochs` epochs on average.
    ///
    /// The burst-start probability is set to `pf / mean_burst_epochs`
    /// (burst overlap makes the realized marginal rate slightly lower; the
    /// tests pin it within ±20% of the target for the paper's regimes).
    ///
    /// # Panics
    ///
    /// Panics if `pf` is outside `[0, 1]` or `mean_burst_epochs < 1`.
    #[must_use]
    pub fn new(pf: f64, mean_burst_epochs: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&pf),
            "failure probability out of range: {pf}"
        );
        assert!(
            mean_burst_epochs >= 1.0,
            "mean burst length must be ≥ 1 epoch"
        );
        BurstFailureModel {
            start_prob: (pf / mean_burst_epochs).min(1.0),
            mean_len: mean_burst_epochs,
            max_len: (mean_burst_epochs * 8.0).ceil() as u64,
            seed,
            epoch: DEFAULT_EPOCH,
        }
    }

    /// The mean burst length in epochs.
    #[must_use]
    pub fn mean_burst_epochs(&self) -> f64 {
        self.mean_len
    }

    /// The per-epoch burst-start probability.
    #[must_use]
    pub fn start_prob(&self) -> f64 {
        self.start_prob
    }

    /// The epoch index containing `at`.
    #[must_use]
    pub fn epoch_index(&self, at: SimTime) -> u64 {
        at.as_micros() / self.epoch.as_micros()
    }

    /// Length in epochs of the burst starting at `(edge, epoch)`, if one
    /// starts there.
    fn burst_len(&self, edge: EdgeId, epoch: u64) -> Option<u64> {
        if self.start_prob <= 0.0 {
            return None;
        }
        let h = splitmix64(
            self.seed ^ splitmix64(edge.index() as u64 ^ 0xB0B0) ^ splitmix64(epoch ^ 0x1D1D),
        );
        if unit(h) >= self.start_prob {
            return None;
        }
        if self.mean_len <= 1.0 {
            return Some(1);
        }
        // Geometric with mean `mean_len`: P(L > k) = (1 - 1/mean)^k.
        let u = unit(splitmix64(h ^ 0xC0FF_EE00));
        let q = 1.0 - 1.0 / self.mean_len;
        let len = 1 + (u.max(1e-12).ln() / q.ln()).floor() as u64;
        Some(len.min(self.max_len))
    }

    /// Whether `edge` is inside a failure burst during the epoch
    /// containing `at`.
    #[must_use]
    pub fn is_failed(&self, edge: EdgeId, at: SimTime) -> bool {
        let now = self.epoch_index(at);
        let lookback = now.min(self.max_len.saturating_sub(1));
        (0..=lookback).any(|back| {
            self.burst_len(edge, now - back)
                .is_some_and(|len| len > back)
        })
    }
}

/// Fail-stop node failures (extension beyond the paper's evaluation).
///
/// A failed node drops every packet and ACK addressed to it for the whole
/// epoch, which is equivalent to all of its incident links failing at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailureModel {
    pn: f64,
    seed: u64,
    epoch: SimDuration,
}

impl NodeFailureModel {
    /// Creates a model with failure probability `pn` per node per 1-second
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `pn` is outside `[0, 1]`.
    #[must_use]
    pub fn new(pn: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&pn),
            "failure probability out of range: {pn}"
        );
        NodeFailureModel {
            pn,
            seed,
            epoch: DEFAULT_EPOCH,
        }
    }

    /// The per-epoch node failure probability.
    #[must_use]
    pub fn pn(&self) -> f64 {
        self.pn
    }

    /// Whether `node` is failed during the epoch containing `at`.
    #[must_use]
    pub fn is_failed(&self, node: NodeId, at: SimTime) -> bool {
        if self.pn <= 0.0 {
            return false;
        }
        if self.pn >= 1.0 {
            return true;
        }
        let epoch = at.as_micros() / self.epoch.as_micros();
        let h = splitmix64(
            self.seed ^ splitmix64(node.index() as u64 ^ 0x0DD0) ^ splitmix64(epoch ^ 0x5A5A),
        );
        unit(h) < self.pn
    }
}

/// Either link-outage process: the paper's independent per-epoch model or
/// the bursty extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkOutageModel {
    /// Independent per-epoch failures (the paper's evaluation model).
    Epoch(LinkFailureModel),
    /// Multi-epoch bursts (persistent failures).
    Burst(BurstFailureModel),
}

impl LinkOutageModel {
    /// Whether `edge` is failed during the epoch containing `at`.
    #[must_use]
    pub fn is_failed(&self, edge: EdgeId, at: SimTime) -> bool {
        match self {
            LinkOutageModel::Epoch(m) => m.is_failed(edge, at),
            LinkOutageModel::Burst(m) => m.is_failed(edge, at),
        }
    }

    /// The epoch index containing `at`.
    #[must_use]
    pub fn epoch_index(&self, at: SimTime) -> u64 {
        match self {
            LinkOutageModel::Epoch(m) => m.epoch_index(at),
            LinkOutageModel::Burst(m) => m.epoch_index(at),
        }
    }

    /// The epoch length.
    fn epoch(&self) -> SimDuration {
        match self {
            LinkOutageModel::Epoch(m) => m.epoch,
            LinkOutageModel::Burst(m) => m.epoch,
        }
    }

    /// The long-run fraction of (link, epoch) pairs that are failed — what
    /// monitoring converges to.
    #[must_use]
    pub fn marginal_rate(&self) -> f64 {
        match self {
            LinkOutageModel::Epoch(m) => m.pf(),
            // Burst-start probability × mean length, ignoring the small
            // overlap correction.
            LinkOutageModel::Burst(m) => (m.start_prob() * m.mean_burst_epochs()).min(1.0),
        }
    }
}

/// Combined failure view over a topology: a link transmission succeeds only
/// if the link itself is up *and* both endpoints are up, and no configured
/// chaos injector (partition cut, crash-down endpoint) blocks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    links: LinkOutageModel,
    nodes: Option<NodeFailureModel>,
    chaos: Option<ChaosModel>,
}

impl FailureModel {
    /// Link failures only (the paper's evaluation setup).
    #[must_use]
    pub fn links_only(links: LinkFailureModel) -> Self {
        FailureModel {
            links: LinkOutageModel::Epoch(links),
            nodes: None,
            chaos: None,
        }
    }

    /// Any link-outage process combined with optional node failures.
    #[must_use]
    pub fn new(links: LinkOutageModel, nodes: Option<NodeFailureModel>) -> Self {
        FailureModel {
            links,
            nodes,
            chaos: None,
        }
    }

    /// Adds a chaos injector (partitions, crash-restart brokers, gray
    /// links) on top of the base failure processes. An empty injector is
    /// normalized away.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosModel) -> Self {
        self.chaos = if chaos.is_empty() { None } else { Some(chaos) };
        self
    }

    /// The link-outage component.
    #[must_use]
    pub fn link_model(&self) -> &LinkOutageModel {
        &self.links
    }

    /// The node-failure component, if enabled.
    #[must_use]
    pub fn node_model(&self) -> Option<&NodeFailureModel> {
        self.nodes.as_ref()
    }

    /// The chaos injector, if enabled.
    #[must_use]
    pub fn chaos(&self) -> Option<&ChaosModel> {
        self.chaos.as_ref()
    }

    /// Whether `node` is unable to process traffic at `at`: epoch-failed
    /// (node model) or crash-down (chaos). A down node loses packets that
    /// *arrive* during the outage, not just new transmissions.
    #[must_use]
    pub fn node_down(&self, node: NodeId, at: SimTime) -> bool {
        if self.nodes.is_some_and(|m| m.is_failed(node, at)) {
            return true;
        }
        self.chaos.is_some_and(|c| c.node_down(node, at))
    }

    /// Whether a transmission over `edge` at `at` is blocked by a failure
    /// (of the link, of either endpoint, or by chaos).
    #[must_use]
    pub fn edge_blocked(&self, topo: &Topology, edge: EdgeId, at: SimTime) -> bool {
        if self.links.is_failed(edge, at) {
            return true;
        }
        if let Some(nodes) = &self.nodes {
            let e = topo.edge(edge);
            if nodes.is_failed(e.a(), at) || nodes.is_failed(e.b(), at) {
                return true;
            }
        }
        if let Some(chaos) = &self.chaos {
            if chaos.edge_blocked(topo, edge, at) {
                return true;
            }
        }
        false
    }
}

/// The half-open µs interval `[lo, hi)` over which one memo table holds.
#[derive(Debug, Clone, Copy)]
struct Window {
    lo: u64,
    hi: u64,
}

impl Window {
    /// Covers no instant, so the first query fills the table.
    const NONE: Window = Window { lo: 0, hi: 0 };

    /// The epoch (or cycle) of length `len` µs containing `at`.
    fn around(at: u64, len: u64) -> Window {
        let lo = at - at.checked_rem(len).unwrap_or(0);
        Window {
            lo,
            hi: lo.saturating_add(len),
        }
    }

    #[inline]
    fn covers(self, at: u64) -> bool {
        self.lo <= at && at < self.hi
    }

    /// The span both windows cover.
    fn meet(self, other: Window) -> Window {
        Window {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }
}

/// Per-node bit: epoch-failed under the [`NodeFailureModel`].
const NODE_FAILED: u8 = 1;
/// Per-node bit: crash-down under the chaos crash-restart model.
const CRASHED: u8 = 2;
/// Per-node bit: out of the overlay under the chaos churn schedule.
const ABSENT: u8 = 4;

/// A memo of a [`FailureModel`] for a caller that asks on every event.
///
/// Every failure process is constant over an epoch (the paper's 1 s
/// re-roll) or a partition cycle, so the view keeps one table per process:
/// link outages per edge; node failures, crash-down state and churn
/// absence as bits per node; the partition's isolated set per node. A
/// table is refilled, by calling the model's own functions for every edge
/// or node, when a query falls outside the epoch or cycle it was filled
/// for, forward or backward in time; otherwise a query is a load. The
/// partition window is µs-granular, so whether the cut is active is still
/// asked per instant. The tables are sized by [`FailureView::new`] and never
/// grow.
///
/// # Example
///
/// ```
/// use dcrd_net::failure::{FailureModel, FailureView, LinkFailureModel};
/// use dcrd_net::topology::{full_mesh, DelayRange};
/// use dcrd_sim::rng::rng_for;
/// use dcrd_sim::SimTime;
///
/// let topo = full_mesh(4, DelayRange::PAPER, &mut rng_for(1, "doc"));
/// let model = FailureModel::links_only(LinkFailureModel::new(0.5, 7));
/// let mut view = FailureView::new(model, &topo);
/// let t = SimTime::from_secs(3);
/// let now = view.at(t);
/// for e in topo.edge_ids() {
///     assert_eq!(now.blocked(&topo, e).is_some(), model.edge_blocked(&topo, e, t));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FailureView {
    model: FailureModel,
    /// Link outages by edge index, for the link model's epoch `links_for`.
    links: Vec<bool>,
    links_for: Window,
    /// `NODE_FAILED | CRASHED | ABSENT` by node index; each bit holds for
    /// its own model's window below.
    node_bits: Vec<u8>,
    failed_for: Window,
    crashed_for: Window,
    absent_for: Window,
    /// The partition's isolated set by node index, for the cycle
    /// `isolated_for`.
    isolated: Vec<bool>,
    isolated_for: Window,
    /// Where every window above holds: a query inside it refills nothing.
    fresh: Window,
    /// Whether any per-node process (node failures, crashes, churn, a
    /// partition) is configured; without one, an edge's own outage table
    /// decides whether it is blocked.
    per_node: bool,
}

impl FailureView {
    /// Creates a view of `model` over `topo`, sized for its edges and
    /// nodes.
    #[must_use]
    pub fn new(model: FailureModel, topo: &Topology) -> Self {
        let has_partition = model.chaos.is_some_and(|c| c.partition().is_some());
        let per_node = model.nodes.is_some()
            || model
                .chaos
                .is_some_and(|c| c.crashes().is_some() || c.churn().is_some() || has_partition);
        FailureView {
            model,
            links: vec![false; topo.num_edges()],
            links_for: Window::NONE,
            node_bits: vec![0; topo.num_nodes()],
            failed_for: Window::NONE,
            crashed_for: Window::NONE,
            absent_for: Window::NONE,
            isolated: vec![false; if has_partition { topo.num_nodes() } else { 0 }],
            isolated_for: Window::NONE,
            fresh: Window::NONE,
            per_node,
        }
    }

    /// The failure state at `at`, refilling any table whose epoch or cycle
    /// does not contain `at`.
    #[inline]
    pub fn at(&mut self, at: SimTime) -> FailureState<'_> {
        if !self.fresh.covers(at.as_micros()) {
            self.refill(at);
        }
        let cut = self
            .model
            .chaos
            .as_ref()
            .and_then(ChaosModel::partition)
            .is_some_and(|p| p.active(at));
        FailureState {
            view: self,
            cut,
            now: at,
        }
    }

    /// Refills every table whose window misses `at`, and narrows `fresh` to
    /// the span over which none needs refilling.
    fn refill(&mut self, at: SimTime) {
        let t = at.as_micros();
        let FailureView {
            model,
            links,
            links_for,
            node_bits,
            failed_for,
            crashed_for,
            absent_for,
            isolated,
            isolated_for,
            fresh,
            ..
        } = self;
        if !links_for.covers(t) {
            *links_for = Window::around(t, model.links.epoch().as_micros());
            for (i, failed) in links.iter_mut().enumerate() {
                *failed = model.links.is_failed(EdgeId::new(i as u32), at);
            }
        }
        *fresh = *links_for;
        if let Some(m) = &model.nodes {
            if !failed_for.covers(t) {
                *failed_for = Window::around(t, m.epoch.as_micros());
                fill_bit(node_bits, NODE_FAILED, |n| m.is_failed(n, at));
            }
            *fresh = fresh.meet(*failed_for);
        }
        let chaos = model.chaos.as_ref();
        if let Some(c) = chaos.and_then(ChaosModel::crashes) {
            if !crashed_for.covers(t) {
                *crashed_for = Window::around(t, c.epoch().as_micros());
                fill_bit(node_bits, CRASHED, |n| c.is_down(n, at));
            }
            *fresh = fresh.meet(*crashed_for);
        }
        if let Some(ch) = chaos.and_then(ChaosModel::churn) {
            if !absent_for.covers(t) {
                *absent_for = Window::around(t, DEFAULT_EPOCH.as_micros());
                fill_bit(node_bits, ABSENT, |n| ch.absent_at(n, at));
            }
            *fresh = fresh.meet(*absent_for);
        }
        if let Some(p) = chaos.and_then(ChaosModel::partition) {
            if !isolated_for.covers(t) {
                *isolated_for = Window::around(t, p.period().as_micros());
                // A cycle's isolated set is read at the cycle's start,
                // which its window always covers.
                let start = SimTime::from_micros(isolated_for.lo);
                let n = isolated.len();
                for (i, iso) in isolated.iter_mut().enumerate() {
                    *iso = p.is_isolated(NodeId::new(i as u32), start, n);
                }
            }
            *fresh = fresh.meet(*isolated_for);
        }
    }
}

/// Sets `bit` in each node's entry exactly where `on` holds.
fn fill_bit(bits: &mut [u8], bit: u8, on: impl Fn(NodeId) -> bool) {
    for (i, b) in bits.iter_mut().enumerate() {
        if on(NodeId::new(i as u32)) {
            *b |= bit;
        } else {
            *b &= !bit;
        }
    }
}

/// Why a transmission did not arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The link is in a failed epoch (or burst).
    LinkDown,
    /// An endpoint is down: epoch-failed, crash-down or churn-absent.
    NodeDown,
    /// An active partition separates the endpoints.
    Partition,
    /// Random per-transmission loss (`Pl`).
    Loss,
    /// A gray link's extra loss in its degraded direction.
    Gray,
}

/// What happens to one link transmission ([`FailureState::fate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Reaches the receiver at `at`.
    Arrived {
        /// The arrival instant: send time plus the (gray-scaled) link delay.
        at: SimTime,
    },
    /// Never leaves: the link or an endpoint is failed, or a partition
    /// separates the endpoints.
    Blocked(Cause),
    /// Leaves but is dropped on the way ([`Cause::Loss`] or
    /// [`Cause::Gray`]).
    Lost(Cause),
}

/// The failure state at one instant, read from a [`FailureView`]. Each
/// query answers what the named [`FailureModel`] or chaos function would
/// at that instant.
#[derive(Debug, Clone, Copy)]
pub struct FailureState<'a> {
    view: &'a FailureView,
    /// Whether a partition window is active at this instant.
    cut: bool,
    /// The instant this state describes.
    now: SimTime,
}

impl FailureState<'_> {
    #[inline]
    fn bits(&self, node: NodeId) -> u8 {
        self.view.node_bits.get(node.index()).copied().unwrap_or(0)
    }

    /// Why a transmission over `edge` is blocked, or `None` if it is not.
    /// [`FailureModel::edge_blocked`]'s answer, clause by clause: the link
    /// is out ([`Cause::LinkDown`]), else either endpoint is down
    /// ([`Cause::NodeDown`]), else the active partition separates them
    /// ([`Cause::Partition`]).
    #[inline]
    #[must_use]
    pub fn blocked(&self, topo: &Topology, edge: EdgeId) -> Option<Cause> {
        if self.view.links.get(edge.index()).copied().unwrap_or(false) {
            return Some(Cause::LinkDown);
        }
        if !self.view.per_node {
            return None;
        }
        let e = topo.edge(edge);
        if self.node_down(e.a()) || self.node_down(e.b()) {
            Some(Cause::NodeDown)
        } else if self.isolated(e.a()) != self.isolated(e.b()) {
            Some(Cause::Partition)
        } else {
            None
        }
    }

    /// The fate of one transmission `from` sends over `edge` at this
    /// instant: the transport rule every data send, hop ACK and link probe
    /// obeys.
    ///
    /// 1. A [`blocked`](Self::blocked) edge carries nothing and draws
    ///    nothing from `rng`.
    /// 2. Otherwise one `loss` draw loses it ([`Cause::Loss`]).
    /// 3. If it survives and a gray link degrades `edge` in `from`'s
    ///    direction, one more draw loses it with the gray extra loss
    ///    ([`Cause::Gray`]), and a survivor's delay is scaled by the gray
    ///    delay factor.
    /// 4. It arrives after the link's propagation delay.
    ///
    /// So a transmission takes zero, one or two draws, in that order.
    #[inline]
    pub fn fate(
        &self,
        topo: &Topology,
        edge: EdgeId,
        from: NodeId,
        loss: &LossModel,
        rng: &mut SmallRng,
    ) -> Fate {
        if let Some(cause) = self.blocked(topo, edge) {
            return Fate::Blocked(cause);
        }
        if loss.drops(rng) {
            return Fate::Lost(Cause::Loss);
        }
        let mut delay = topo.delay(edge);
        let gray = self.view.model.chaos.as_ref().and_then(ChaosModel::gray);
        if let Some(g) = gray.filter(|g| g.degrades(topo, edge, from)) {
            if g.loss().drops(rng) {
                return Fate::Lost(Cause::Gray);
            }
            delay = delay.mul_f64(g.delay_factor());
        }
        Fate::Arrived {
            at: self.now + delay,
        }
    }

    /// [`FailureModel::node_down`]: epoch-failed, crash-down or absent.
    #[inline]
    #[must_use]
    pub fn node_down(&self, node: NodeId) -> bool {
        self.bits(node) != 0
    }

    /// [`ChaosModel::node_down`]: crash-down or absent. Unlike
    /// [`node_down`](Self::node_down) this leaves out the epoch node model,
    /// which blocks transmissions but does not eat arrivals.
    #[inline]
    #[must_use]
    pub fn chaos_down(&self, node: NodeId) -> bool {
        self.bits(node) & (CRASHED | ABSENT) != 0
    }

    /// Whether the churn schedule has `node` out of the overlay
    /// ([`BrokerChurnModel::absent_at`](crate::membership::BrokerChurnModel::absent_at)).
    #[inline]
    #[must_use]
    pub fn absent(&self, node: NodeId) -> bool {
        self.bits(node) & ABSENT != 0
    }

    /// [`PartitionModel::is_isolated`](crate::chaos::PartitionModel::is_isolated):
    /// inside the isolated region of an active partition window.
    #[inline]
    #[must_use]
    pub fn isolated(&self, node: NodeId) -> bool {
        self.cut
            && self
                .view
                .isolated
                .get(node.index())
                .copied()
                .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{full_mesh, DelayRange};
    use dcrd_sim::rng::rng_for;

    #[test]
    fn epoch_indexing() {
        let m = LinkFailureModel::new(0.5, 1);
        assert_eq!(m.epoch_index(SimTime::ZERO), 0);
        assert_eq!(m.epoch_index(SimTime::from_millis(999)), 0);
        assert_eq!(m.epoch_index(SimTime::from_secs(1)), 1);
    }

    #[test]
    fn failure_state_constant_within_epoch() {
        let m = LinkFailureModel::new(0.5, 42);
        let e = EdgeId::new(3);
        let base = m.is_failed(e, SimTime::from_secs(5));
        for ms in 0..1000u64 {
            assert_eq!(
                m.is_failed(e, SimTime::from_secs(5) + SimDuration::from_millis(ms)),
                base
            );
        }
    }

    #[test]
    fn marginal_failure_rate_approximates_pf() {
        let m = LinkFailureModel::new(0.06, 7);
        let mut failed = 0u64;
        let total = 200 * 100;
        for epoch in 0..200u64 {
            for edge in 0..100u32 {
                if m.is_failed(EdgeId::new(edge), SimTime::from_secs(epoch)) {
                    failed += 1;
                }
            }
        }
        let rate = failed as f64 / total as f64;
        assert!((rate - 0.06).abs() < 0.01, "empirical failure rate {rate}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = LinkFailureModel::new(0.5, 1);
        let b = LinkFailureModel::new(0.5, 2);
        let mut differs = false;
        for epoch in 0..64u64 {
            let t = SimTime::from_secs(epoch);
            if a.is_failed(EdgeId::new(0), t) != b.is_failed(EdgeId::new(0), t) {
                differs = true;
                break;
            }
        }
        assert!(differs);
    }

    #[test]
    fn edges_fail_independently() {
        let m = LinkFailureModel::new(0.5, 9);
        let t = SimTime::from_secs(3);
        let states: Vec<bool> = (0..64).map(|i| m.is_failed(EdgeId::new(i), t)).collect();
        assert!(states.iter().any(|&s| s));
        assert!(states.iter().any(|&s| !s));
    }

    #[test]
    fn extreme_probabilities() {
        let up = LinkFailureModel::new(0.0, 1);
        let down = LinkFailureModel::new(1.0, 1);
        for epoch in 0..10u64 {
            let t = SimTime::from_secs(epoch);
            assert!(!up.is_failed(EdgeId::new(0), t));
            assert!(down.is_failed(EdgeId::new(0), t));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_probability() {
        let _ = LinkFailureModel::new(1.5, 0);
    }

    #[test]
    fn node_failures_block_incident_edges() {
        let mut rng = rng_for(0, "nf");
        let topo = full_mesh(4, DelayRange::PAPER, &mut rng);
        let links = LinkFailureModel::new(0.0, 1);
        let nodes = NodeFailureModel::new(1.0, 1); // every node always failed
        let fm = FailureModel::new(LinkOutageModel::Epoch(links), Some(nodes));
        for e in topo.edge_ids() {
            assert!(fm.edge_blocked(&topo, e, SimTime::ZERO));
        }
        let fm2 = FailureModel::links_only(links);
        for e in topo.edge_ids() {
            assert!(!fm2.edge_blocked(&topo, e, SimTime::ZERO));
        }
    }

    #[test]
    fn node_marginal_rate() {
        let m = NodeFailureModel::new(0.1, 11);
        let mut failed = 0u64;
        for epoch in 0..500u64 {
            for node in 0..20u32 {
                if m.is_failed(NodeId::new(node), SimTime::from_secs(epoch)) {
                    failed += 1;
                }
            }
        }
        let rate = failed as f64 / (500.0 * 20.0);
        assert!(
            (rate - 0.1).abs() < 0.02,
            "empirical node failure rate {rate}"
        );
        assert!((m.pn() - 0.1).abs() < f64::EPSILON);
    }

    #[test]
    fn burst_marginal_rate_close_to_target() {
        for (pf, mean) in [(0.06, 4.0), (0.1, 2.0), (0.04, 8.0)] {
            let m = BurstFailureModel::new(pf, mean, 17);
            let mut failed = 0u64;
            let total = 2000u64 * 40;
            for epoch in 0..2000u64 {
                for edge in 0..40u32 {
                    if m.is_failed(EdgeId::new(edge), SimTime::from_secs(epoch)) {
                        failed += 1;
                    }
                }
            }
            let rate = failed as f64 / total as f64;
            assert!(
                (rate - pf).abs() < 0.25 * pf,
                "target pf={pf} mean={mean}: empirical rate {rate}"
            );
        }
    }

    #[test]
    fn bursts_are_temporally_correlated() {
        // P(failed at t+1 | failed at t) must be far above the marginal
        // rate — the whole point of bursts.
        let m = BurstFailureModel::new(0.06, 6.0, 23);
        let mut failed_now = 0u64;
        let mut failed_both = 0u64;
        for epoch in 0..5000u64 {
            for edge in 0..20u32 {
                let e = EdgeId::new(edge);
                if m.is_failed(e, SimTime::from_secs(epoch)) {
                    failed_now += 1;
                    if m.is_failed(e, SimTime::from_secs(epoch + 1)) {
                        failed_both += 1;
                    }
                }
            }
        }
        let conditional = failed_both as f64 / failed_now as f64;
        assert!(
            conditional > 0.5,
            "bursty conditional persistence {conditional} too low"
        );

        // The paper's per-epoch model has no such correlation.
        let iid = LinkFailureModel::new(0.06, 23);
        let mut now = 0u64;
        let mut both = 0u64;
        for epoch in 0..5000u64 {
            for edge in 0..20u32 {
                let e = EdgeId::new(edge);
                if iid.is_failed(e, SimTime::from_secs(epoch)) {
                    now += 1;
                    if iid.is_failed(e, SimTime::from_secs(epoch + 1)) {
                        both += 1;
                    }
                }
            }
        }
        let iid_conditional = both as f64 / now as f64;
        assert!(
            iid_conditional < 0.15,
            "iid model should not persist: {iid_conditional}"
        );
    }

    #[test]
    fn burst_state_constant_within_epoch() {
        let m = BurstFailureModel::new(0.3, 3.0, 5);
        let e = EdgeId::new(1);
        for epoch in 0..50u64 {
            let base = m.is_failed(e, SimTime::from_secs(epoch));
            for ms in [1u64, 250, 999] {
                assert_eq!(
                    m.is_failed(e, SimTime::from_secs(epoch) + SimDuration::from_millis(ms)),
                    base
                );
            }
        }
    }

    #[test]
    fn burst_zero_rate_never_fails() {
        let m = BurstFailureModel::new(0.0, 4.0, 1);
        for epoch in 0..100 {
            assert!(!m.is_failed(EdgeId::new(0), SimTime::from_secs(epoch)));
        }
        assert_eq!(LinkOutageModel::Burst(m).marginal_rate(), 0.0);
    }

    #[test]
    fn node_outage_blocks_incident_links_both_directions_until_epoch_boundary() {
        // A failed node takes down every incident link for the whole epoch
        // — traffic *to* it and *from* it alike (edge_blocked is queried
        // for both directions of a link) — and recovery is exactly at the
        // next epoch boundary.
        let mut rng = rng_for(1, "nf-recovery");
        let topo = full_mesh(5, DelayRange::PAPER, &mut rng);
        let links = LinkFailureModel::new(0.0, 1);
        let nodes = NodeFailureModel::new(0.5, 77);
        let fm = FailureModel::new(LinkOutageModel::Epoch(links), Some(nodes));
        let victim = topo.node(2);
        // Find an epoch where the victim is down and the next is up.
        let (down_epoch, up_epoch) = (0..200u64)
            .find_map(|e| {
                let down = nodes.is_failed(victim, SimTime::from_secs(e));
                let up = !nodes.is_failed(victim, SimTime::from_secs(e + 1));
                (down && up).then_some((e, e + 1))
            })
            .expect("pn = 0.5 must yield a down→up transition");
        for e in topo.edge_ids() {
            let edge = topo.edge(e);
            let incident = edge.a() == victim || edge.b() == victim;
            if !incident {
                continue;
            }
            // Blocked throughout the outage epoch, regardless of which
            // endpoint is transmitting...
            for ms in [0u64, 500, 999] {
                let t = SimTime::from_secs(down_epoch) + SimDuration::from_millis(ms);
                assert!(fm.edge_blocked(&topo, e, t), "outage must block {e:?}");
            }
            // ...and restored at the epoch boundary (unless the peer node
            // happens to be failed itself in the recovery epoch).
            let t = SimTime::from_secs(up_epoch);
            let peer = if edge.a() == victim {
                edge.b()
            } else {
                edge.a()
            };
            if !nodes.is_failed(peer, t) {
                assert!(!fm.edge_blocked(&topo, e, t), "recovery must unblock {e:?}");
            }
        }
        assert!(fm.node_down(victim, SimTime::from_secs(down_epoch)));
        assert!(!fm.node_down(victim, SimTime::from_secs(up_epoch)));
    }

    #[test]
    fn burst_with_unit_mean_degenerates_to_single_epochs() {
        // mean = 1 epoch: every burst is exactly one epoch long, so the
        // model reduces to the paper's per-epoch process with rate pf.
        let m = BurstFailureModel::new(0.3, 1.0, 31);
        assert!((m.start_prob() - 0.3).abs() < 1e-12);
        let mut failed = 0u64;
        let total = 2000u64 * 20;
        for epoch in 0..2000u64 {
            for edge in 0..20u32 {
                if m.is_failed(EdgeId::new(edge), SimTime::from_secs(epoch)) {
                    failed += 1;
                }
            }
        }
        let rate = failed as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.03, "unit-mean burst rate {rate}");
    }

    #[test]
    fn burst_with_certain_failure_is_always_down() {
        // Pf = 1.0, mean = 1.0: a burst starts every epoch, so the link is
        // permanently failed.
        let m = BurstFailureModel::new(1.0, 1.0, 3);
        for epoch in 0..100u64 {
            assert!(m.is_failed(EdgeId::new(0), SimTime::from_secs(epoch)));
        }
    }

    #[test]
    fn burst_spanning_simulation_end_stays_queryable() {
        // A burst that starts near the end of a run keeps answering
        // consistently for queries past the horizon: the failure state is a
        // pure function of the epoch, with no dependence on run length.
        let m = BurstFailureModel::new(0.1, 6.0, 41);
        let horizon = 100u64;
        let e = EdgeId::new(2);
        // Locate a burst in progress at the horizon.
        let spanning = (0..horizon).rev().find(|&epoch| {
            m.is_failed(e, SimTime::from_secs(epoch)) && m.is_failed(e, SimTime::from_secs(horizon))
        });
        // Whether or not one spans this particular horizon, queries beyond
        // it are well-defined and epoch-constant.
        for epoch in horizon..horizon + 20 {
            let base = m.is_failed(e, SimTime::from_secs(epoch));
            assert_eq!(
                m.is_failed(e, SimTime::from_secs(epoch) + SimDuration::from_millis(999)),
                base
            );
        }
        // And the spanning burst (if found) agrees before and after.
        if let Some(epoch) = spanning {
            assert!(m.is_failed(e, SimTime::from_secs(epoch)));
        }
    }

    #[test]
    fn chaos_injector_composes_with_link_model() {
        use crate::chaos::{ChaosModel, CrashRestartModel, PartitionModel};
        let mut rng = rng_for(2, "chaos-fm");
        let topo = full_mesh(8, DelayRange::PAPER, &mut rng);
        let base = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let chaos = ChaosModel::none().with_partition(PartitionModel::new(
            0.25,
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
            5,
        ));
        let fm = base.with_chaos(chaos);
        assert!(fm.chaos().is_some());
        let t = SimTime::from_secs(3);
        let cut = topo
            .edge_ids()
            .filter(|&e| fm.edge_blocked(&topo, e, t))
            .count();
        // 2 isolated of 8 in a mesh → 2 × 6 crossing edges, all blocked.
        assert_eq!(cut, 12);
        // Outside the window the base (loss-free) model is back.
        let healed = SimTime::from_secs(15);
        assert!(topo.edge_ids().all(|e| !fm.edge_blocked(&topo, e, healed)));
        // Crash-down nodes surface through node_down.
        let crashing =
            base.with_chaos(ChaosModel::none().with_crashes(CrashRestartModel::new(1.0, 1.0, 2)));
        assert!(crashing.node_down(topo.node(0), SimTime::ZERO));
        // Empty injectors normalize away.
        assert!(base.with_chaos(ChaosModel::none()).chaos().is_none());
    }

    #[test]
    fn outage_model_dispatch() {
        let epoch_model = LinkOutageModel::Epoch(LinkFailureModel::new(0.08, 2));
        assert!((epoch_model.marginal_rate() - 0.08).abs() < 1e-12);
        assert_eq!(epoch_model.epoch_index(SimTime::from_secs(3)), 3);
        let burst = LinkOutageModel::Burst(BurstFailureModel::new(0.08, 4.0, 2));
        assert!((burst.marginal_rate() - 0.08).abs() < 1e-12);
        assert_eq!(burst.epoch_index(SimTime::from_secs(3)), 3);
    }
}
