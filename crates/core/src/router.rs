//! The DCRD dynamic routing scheme (Algorithm 2 of the paper).
//!
//! Every broker forwards each packet toward each of its destinations by
//! trying the destination's sending list in order:
//!
//! 1. send to the first listed neighbor that has not been on the packet's
//!    routing path and has not already been tried for this destination;
//! 2. wait `ack_timeout_factor × α` for the hop-by-hop ACK; retransmit up
//!    to `m` times;
//! 3. on failure, move to the next listed neighbor;
//! 4. when the list is exhausted, reroute the packet **upstream** (read
//!    from the packet's routing path — no per-packet state is needed at
//!    other brokers);
//! 5. the publisher with an exhausted list drops the packet (or parks and
//!    retries it with the persistence extension enabled).
//!
//! Destinations whose current next hop coincides are merged into a single
//! transmission (Algorithm 2 lines 13–19).

use std::collections::BTreeMap;

use dcrd_net::estimate::LinkEstimates;
use dcrd_net::membership::MembershipDelta;
use dcrd_net::paths::ShortestPaths;
use dcrd_net::{NodeId, NodeList, NodeSet, Topology};
use dcrd_pubsub::hotstate::{NodeMap, PacketNodeMap, PacketNodeSet};
use dcrd_pubsub::packet::{Packet, PacketId, PacketKind};
use dcrd_pubsub::recovery::SequenceTracker;
use dcrd_pubsub::strategy::{
    ack_timeout, Actions, RoutingStrategy, RunParams, SetupContext, TimerKey, ACK_TIMEOUT_SLACK,
};
use dcrd_pubsub::topic::{Subscription, TopicId};
use dcrd_pubsub::workload::Workload;
use dcrd_sim::{par, SimDuration, SimTime};

use crate::config::{DcrdConfig, DurabilityMode, PersistenceMode, RepairMode, TimeoutPolicy};
use crate::journal::{InFlightJournal, JournalEntry};
use crate::propagation::{
    compute_tables_snapshot_ws, link_transmission_stats, AdjacencySnapshot, SubscriberTables,
    TableWorkspace,
};

/// Tag space reserved for persistence-retry timers (top bit set).
const PERSIST_TAG_BASE: u64 = 1 << 63;

/// Tag space reserved for journal write-completion timers (below the
/// persistence space, above every sequential send tag).
const JOURNAL_TAG_BASE: u64 = 1 << 62;

/// Packet-id space for NACKs, minted by subscribers. The runtime's data
/// packet ids count up from zero, so the spaces never collide.
const NACK_ID_BASE: u64 = 1 << 63;

/// Most `(packet, broker)` pairs remembered by the upstream bounce ledger
/// before the oldest entries are evicted. The ledger only has to outlive
/// the handful of packets still in flight at once; the cap is a safety
/// valve against unbounded growth on very long runs.
const BOUNCED_LEDGER_CAP: usize = 4096;

/// ACK-timeout α used if a timeout is computed for a link the strategy
/// has no estimate for (a bug caught by debug assertions; release builds
/// degrade to this conservative paper-regime upper bound instead).
const FALLBACK_ALPHA: SimDuration = SimDuration::from_millis(50);

/// Table work, in `pairs × live brokers`, that earns one worker of the
/// table-build fan-out ([`DcrdStrategy`]'s `build_pairs`): a job smaller
/// than twice this runs inline on the calling thread.
///
/// One pair costs ≈ 1.7 µs per live broker on the reference host (≈ 15
/// rounds × ≈ 108 ns per node-step), so this is ≈ 110 ms of kernel time per
/// worker. The floor exists because a second worker is not free: it is a
/// thread spawn plus waking a vCPU that has been idle for the whole event
/// loop, which on 64-broker setups (≈ 20–30 ms, ≈ 30 k pair-nodes) cost
/// more than the split saved. A 256-broker setup (≈ 400 k) is far on the
/// parallel side.
pub const PAIR_NODES_PER_WORKER: usize = 1 << 16;

/// One `(publisher, subscriber)` fixed point to (re)compute.
#[derive(Debug, Clone, Copy)]
struct PairJob {
    topic: TopicId,
    publisher: NodeId,
    subscriber: NodeId,
    deadline_us: f64,
}

impl PairJob {
    fn new(topic: TopicId, publisher: NodeId, sub: &Subscription) -> Self {
        PairJob {
            topic,
            publisher,
            subscriber: sub.subscriber,
            deadline_us: sub.deadline.as_micros() as f64,
        }
    }
}

/// One outstanding transmission awaiting its hop-by-hop ACK.
#[derive(Debug, Clone)]
struct Pending {
    to: NodeId,
    /// The exact copy on the wire (resent verbatim on retransmission).
    packet: Packet,
    /// Transmissions already made (1 after the first send).
    sends: u32,
    /// True when this send reroutes to the upstream node rather than down a
    /// sending list.
    is_upstream: bool,
    /// When the most recent transmission went out (RTT sampling).
    sent_at: SimTime,
    /// Whether any retransmission happened — Karn's rule: an ACK for a
    /// retransmitted packet is ambiguous and must not feed the estimator.
    retransmitted: bool,
    /// The timeout armed for the most recent transmission (doubled by the
    /// adaptive policy's backoff on each retransmission).
    timeout: SimDuration,
}

/// A broker's outstanding sends for one packet, oldest first. Tags are
/// issued from one monotone counter, so appending keeps the list in tag
/// order; a broker rarely has more than a few sends of one packet in
/// flight, so lookups scan.
#[derive(Debug, Default)]
struct PendingSends(Vec<(u64, Pending)>);

impl PendingSends {
    fn push(&mut self, tag: u64, pending: Pending) {
        debug_assert!(self.0.last().is_none_or(|&(last, _)| last < tag));
        self.0.push((tag, pending));
    }

    fn get_mut(&mut self, tag: u64) -> Option<&mut Pending> {
        self.0.iter_mut().find(|(t, _)| *t == tag).map(|(_, p)| p)
    }

    fn remove(&mut self, tag: u64) -> Option<Pending> {
        let at = self.0.iter().position(|(t, _)| *t == tag)?;
        Some(self.0.remove(at).1)
    }

    fn iter(&self) -> impl Iterator<Item = &Pending> {
        self.0.iter().map(|(_, p)| p)
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Jacobson-style smoothed round-trip state for one directed link, in
/// microseconds (gains 1/8 for SRTT, 1/4 for RTTVAR).
#[derive(Debug, Clone, Copy)]
struct RttEstimate {
    srtt: f64,
    rttvar: f64,
}

impl RttEstimate {
    fn first(sample: f64) -> Self {
        RttEstimate {
            srtt: sample,
            rttvar: sample / 2.0,
        }
    }

    fn update(&mut self, sample: f64) {
        self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - sample).abs();
        self.srtt = 0.875 * self.srtt + 0.125 * sample;
    }
}

/// Circuit-breaker bookkeeping for one directed `(node, neighbor)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct Suspicion {
    /// Consecutive `m`-exhausted timeouts without an intervening ACK.
    consecutive: u32,
    /// Demotions served so far (doubles the cooldown each time).
    demotions: u32,
    /// While set and in the future, the neighbor is skipped by
    /// `choose_next_hop`.
    demoted_until: Option<SimTime>,
}

/// Per-(message, broker) forwarding state. Created when a broker takes
/// responsibility for a packet, deleted as soon as every destination is
/// acknowledged downstream (the paper's "aggressively deletes a copy ...
/// once it receives an ACK").
#[derive(Debug)]
struct NodeState {
    packet: Packet,
    /// The neighbor this broker first received the packet from (`None` at
    /// the publisher) — the paper's upstream node ("the upstream node from
    /// which it received this packet", §III).
    upstream: Option<NodeId>,
    /// Destinations fully handled at this broker (acked downstream,
    /// delivered locally, or given up). A bitset: membership is the hot
    /// per-destination skip check.
    done: NodeSet,
    /// Per-destination neighbors already tried and failed from here.
    tried: BTreeMap<NodeId, NodeSet>,
    /// Outstanding sends, by tag.
    pending: PendingSends,
    /// Transmissions spent by this broker on this packet.
    attempts: u32,
    /// Persistence retries consumed (publisher only).
    persist_retries: u32,
    /// Destinations parked for a persistence retry.
    parked: Vec<NodeId>,
}

impl NodeState {
    fn new(packet: Packet, upstream: Option<NodeId>) -> Self {
        NodeState {
            packet,
            upstream,
            done: NodeSet::new(),
            tried: BTreeMap::new(),
            pending: PendingSends::default(),
            attempts: 0,
            persist_retries: 0,
            parked: Vec::new(),
        }
    }

    fn finished(&self) -> bool {
        self.pending.is_empty()
            && self.parked.is_empty()
            && self
                .packet
                .destinations
                .iter()
                .all(|&d| self.done.contains(d))
    }
}

/// The DCRD routing strategy (the paper's contribution), implementing
/// [`RoutingStrategy`] for the overlay runtime.
///
/// # Example
///
/// ```
/// use dcrd_core::{DcrdConfig, DcrdStrategy};
///
/// let strategy = DcrdStrategy::new(DcrdConfig::default());
/// assert_eq!(strategy.config().max_attempts_per_node, 64);
/// ```
#[derive(Debug)]
pub struct DcrdStrategy {
    config: DcrdConfig,
    params: RunParams,
    topology: Option<Topology>,
    estimates: Option<LinkEstimates>,
    workload: Option<Workload>,
    /// Routing tables per subscription `(topic, publisher, subscriber)` —
    /// publisher-qualified so one topic may have several publishers
    /// (many-to-many pub/sub), each with its own deadline geometry.
    tables: BTreeMap<(TopicId, NodeId, NodeId), SubscriberTables>,
    inflight: PacketNodeMap<NodeState>,
    /// Measured ACK round trips per directed link (adaptive timeouts only).
    rtt: BTreeMap<(NodeId, NodeId), RttEstimate>,
    /// Circuit-breaker state per directed link (breaker enabled only).
    suspicion: BTreeMap<(NodeId, NodeId), Suspicion>,
    /// `(message, subscriber)` pairs already handed to the application —
    /// the durable subscriber-side delivery log that makes local delivery
    /// idempotent even when duplicate copies converge (lost ACKs, crash
    /// recovery).
    delivered: PacketNodeSet,
    /// Write-ahead custody journal ([`DurabilityMode::Durable`] only;
    /// stays empty when volatile). Like `delivered`, it models per-broker
    /// durable storage, so it survives `on_restart` wipes.
    journal: InFlightJournal,
    /// Per-(topic, publisher, subscriber) sequencing state: the bounded
    /// dedup window plus gap bookkeeping (recovery mode only).
    trackers: BTreeMap<(TopicId, NodeId, NodeId), SequenceTracker>,
    /// NACKs already issued per (topic, publisher, subscriber, seq) —
    /// bounds recovery traffic for genuinely unrecoverable gaps.
    nack_counts: BTreeMap<(TopicId, NodeId, NodeId, u64), u32>,
    /// Next hop from each node toward each publisher (shortest delay
    /// path), rebuilt with the routing tables: how NACKs travel upstream.
    toward_publisher: BTreeMap<(NodeId, NodeId), NodeId>,
    /// Brokers the membership layer currently believes are gone (confirmed
    /// dead or gracefully departed). Every table computation masks them.
    absent: NodeSet,
    /// The per-publisher shortest-path trees the current tables were built
    /// from — the incremental repair path diffs fresh masked trees against
    /// these to scope recomputation to affected subscriptions.
    dist_cache: NodeMap<ShortestPaths>,
    /// Custody entries seized from a dead broker, queued under their new
    /// custodian until that broker's next tick flushes them (handoff).
    pending_handoff: BTreeMap<NodeId, Vec<(PacketId, JournalEntry)>>,
    /// Upstream reroutes taken per `(packet, broker)` — the reroute
    /// hysteresis ledger. An upstream bounce usually *succeeds* hop-by-hop
    /// (the unreachability is beyond the pair), so the counter must track
    /// reroutes taken, not timeouts; and it lives on the strategy, not the
    /// per-packet [`NodeState`], because every successful bounce concludes
    /// the sender's state and the returning copy resurrects a fresh one
    /// with zeroed counters — two brokers at an unreachability boundary
    /// would otherwise ping-pong the packet forever. Bounded by
    /// [`BOUNCED_LEDGER_CAP`] (oldest packets evicted first).
    upstream_reroutes: BTreeMap<PacketId, BTreeMap<NodeId, u32>>,
    /// From-scratch `rebuild_tables` passes taken after setup. The initial
    /// construction in `setup` is not counted — it is table construction,
    /// not a repair — so a run that heals purely through incremental
    /// repair and gossip reports zero.
    global_rebuilds: u64,
    /// Incremental membership-repair passes taken instead of a rebuild.
    incremental_repairs: u64,
    /// Monotone control-plane version stamped onto every recomputed
    /// [`SubscriberTables`] entry: bumped once per rebuild or repair pass.
    table_version: u64,
    next_tag: u64,
    next_persist_tag: u64,
    next_journal_tag: u64,
    next_nack_id: u64,
    /// The (empty) pending lists of concluded states, handed to the next
    /// states opened: a state lives for a few events, so without reuse
    /// every hop would allocate one.
    spare_pending: Vec<PendingSends>,
    /// Reusable buffers for the per-event fan-out in `process` — the hot
    /// loop borrows these instead of allocating fresh vectors every call.
    scratch: ScratchArena,
}

/// Scratch buffers recycled across [`DcrdStrategy::process`] calls. The
/// fan-out runs once per arrival, ACK timeout and tick; without reuse each
/// call allocates (and immediately frees) four vectors plus a membership
/// probe per destination.
#[derive(Debug, Default)]
struct ScratchArena {
    /// `(next hop, destinations, is_upstream)` assignments under
    /// construction. The destination lists move into the forwarded
    /// packets.
    assignments: Vec<(NodeId, NodeList, bool)>,
    /// Destinations this broker abandons this pass.
    give_ups: Vec<NodeId>,
    /// Destinations parked for a persistence retry this pass.
    park: Vec<NodeId>,
    /// Sends armed this pass, staged before the state re-borrow.
    new_pendings: Vec<(u64, Pending, SimTime)>,
    /// Destinations already handled (done ∪ pending ∪ parked), rebuilt
    /// each pass for O(1) skip checks.
    covered: NodeSet,
}

impl ScratchArena {
    /// Empties every buffer, keeping capacity for the next pass.
    fn reset(&mut self) {
        self.assignments.clear();
        self.give_ups.clear();
        self.park.clear();
        self.new_pendings.clear();
        self.covered.clear();
    }
}

impl DcrdStrategy {
    /// Creates a DCRD strategy with the given configuration. `setup` (run
    /// by the runtime) computes the routing tables.
    #[must_use]
    pub fn new(config: DcrdConfig) -> Self {
        DcrdStrategy {
            config,
            params: RunParams::default(),
            topology: None,
            estimates: None,
            workload: None,
            tables: BTreeMap::new(),
            inflight: PacketNodeMap::new(),
            rtt: BTreeMap::new(),
            suspicion: BTreeMap::new(),
            delivered: PacketNodeSet::new(),
            journal: InFlightJournal::new(),
            trackers: BTreeMap::new(),
            nack_counts: BTreeMap::new(),
            toward_publisher: BTreeMap::new(),
            absent: NodeSet::new(),
            dist_cache: NodeMap::new(),
            pending_handoff: BTreeMap::new(),
            upstream_reroutes: BTreeMap::new(),
            global_rebuilds: 0,
            incremental_repairs: 0,
            table_version: 0,
            next_tag: 0,
            next_persist_tag: PERSIST_TAG_BASE,
            next_journal_tag: JOURNAL_TAG_BASE,
            next_nack_id: NACK_ID_BASE,
            spare_pending: Vec::new(),
            scratch: ScratchArena::default(),
        }
    }

    /// The configuration this strategy runs with.
    #[must_use]
    pub fn config(&self) -> &DcrdConfig {
        &self.config
    }

    /// The routing tables of one subscription, once `setup` has run.
    #[must_use]
    pub fn tables_for(
        &self,
        topic: TopicId,
        publisher: NodeId,
        subscriber: NodeId,
    ) -> Option<&SubscriberTables> {
        self.tables.get(&(topic, publisher, subscriber))
    }

    /// Number of in-flight per-broker packet states (diagnostic).
    #[must_use]
    pub fn inflight_states(&self) -> usize {
        self.inflight.len()
    }

    /// The custody journal (populated in [`DurabilityMode::Durable`] only).
    #[must_use]
    pub fn journal(&self) -> &InFlightJournal {
        &self.journal
    }

    /// One subscriber's sequencing state for a stream, if it exists yet
    /// (recovery mode only).
    #[must_use]
    pub fn sequence_tracker(
        &self,
        topic: TopicId,
        publisher: NodeId,
        subscriber: NodeId,
    ) -> Option<&SequenceTracker> {
        self.trackers.get(&(topic, publisher, subscriber))
    }

    /// Whether brokers journal custody before it takes effect.
    fn durable(&self) -> bool {
        matches!(self.config.durability, DurabilityMode::Durable { .. })
    }

    /// How many from-scratch [`rebuild_tables`](Self::on_monitor) passes
    /// have run after setup. The initial table construction in `setup` is
    /// not counted, so this is exactly the number of times the strategy
    /// fell back to a global rebuild instead of healing incrementally.
    #[must_use]
    pub fn global_rebuilds(&self) -> u64 {
        self.global_rebuilds
    }

    /// The monotone control-plane version the most recent table
    /// recomputation was stamped with (zero until `setup` runs).
    #[must_use]
    pub fn table_version(&self) -> u64 {
        self.table_version
    }

    /// How many incremental membership-repair passes have run instead of a
    /// global rebuild.
    #[must_use]
    pub fn incremental_repairs(&self) -> u64 {
        self.incremental_repairs
    }

    /// Brokers currently masked out of every table computation.
    #[must_use]
    pub fn absent_brokers(&self) -> &NodeSet {
        &self.absent
    }

    /// From-scratch table construction: one masked shortest-path tree and
    /// NACK climb tree per publisher, then every subscription's fixed point
    /// through [`build_pairs`](Self::build_pairs).
    fn rebuild_tables(&mut self) {
        debug_assert!(
            self.topology.is_some() && self.workload.is_some() && self.estimates.is_some(),
            "rebuild_tables before setup"
        );
        let (Some(topo), Some(workload), Some(_)) = (
            self.topology.as_ref(),
            self.workload.as_ref(),
            self.estimates.as_ref(),
        ) else {
            return;
        };
        self.global_rebuilds += 1;
        self.table_version += 1;
        self.tables.clear();
        self.toward_publisher.clear();
        self.dist_cache.clear();
        let mut jobs = Vec::with_capacity(workload.num_subscriptions());
        for spec in workload.topics() {
            // Topics sharing a publisher share its shortest-path tree.
            let dist = self.dist_cache.get_or_insert_with(spec.publisher, || {
                dcrd_net::paths::dijkstra_masked(
                    topo,
                    spec.publisher,
                    dcrd_net::paths::Metric::Delay,
                    &self.absent,
                )
            });
            // NACKs climb the shortest-delay tree rooted at the publisher:
            // each node's predecessor is its next hop toward the root.
            for i in 0..topo.num_nodes() {
                let n = topo.node(i);
                if let Some((parent, _)) = dist.predecessor(n) {
                    self.toward_publisher.insert((spec.publisher, n), parent);
                }
            }
            jobs.extend(
                spec.subscriptions
                    .iter()
                    .map(|sub| PairJob::new(spec.topic, spec.publisher, sub)),
            );
        }
        self.build_pairs(jobs);
    }

    /// Incremental membership repair: re-derives each publisher's masked
    /// shortest-path tree, diffs it against the cached one, and recomputes
    /// only the subscriptions a delta node can actually influence — those
    /// whose tree changed over live brokers, whose endpoints are delta
    /// nodes, whose live sending lists mention a delta node, or whose
    /// publisher can now reach a joined node. Everything else keeps its
    /// tables byte-for-byte (the skip is sound because requirements,
    /// candidate sets and link stats are then all unchanged, so the frozen
    /// fixed point would replay identically).
    fn repair_incremental(&mut self, changed: &[NodeId]) {
        let (Some(topo), Some(workload), Some(_)) = (
            self.topology.as_ref(),
            self.workload.as_ref(),
            self.estimates.as_ref(),
        ) else {
            return;
        };
        self.incremental_repairs += 1;
        self.table_version += 1;
        let mut jobs = Vec::with_capacity(workload.num_subscriptions());
        for spec in workload.topics() {
            let fresh = dcrd_net::paths::dijkstra_masked(
                topo,
                spec.publisher,
                dcrd_net::paths::Metric::Delay,
                &self.absent,
            );
            // The tree "changed" when any live broker's cost or parent
            // moved; delta nodes themselves are expected to move and do not
            // count (their rows are masked, not routed through).
            let old = self.dist_cache.get(spec.publisher);
            let tree_changed = old.is_none()
                || (0..topo.num_nodes()).any(|i| {
                    let n = topo.node(i);
                    !self.absent.contains(n)
                        && old.is_some_and(|o| {
                            o.cost_to(n) != fresh.cost_to(n)
                                || o.predecessor(n).map(|(p, _)| p)
                                    != fresh.predecessor(n).map(|(p, _)| p)
                        })
                });
            let join_reaches = changed
                .iter()
                .any(|&n| !self.absent.contains(n) && fresh.cost_to(n).is_some());
            for sub in &spec.subscriptions {
                let key = (spec.topic, spec.publisher, sub.subscriber);
                let affected = tree_changed
                    || join_reaches
                    || changed.contains(&spec.publisher)
                    || changed.contains(&sub.subscriber)
                    || self.tables.get(&key).is_none_or(|t| {
                        (0..topo.num_nodes()).any(|i| {
                            let n = topo.node(i);
                            !self.absent.contains(n)
                                && t.sending_list(n)
                                    .iter()
                                    .any(|c| changed.contains(&c.neighbor))
                        })
                    });
                if affected {
                    jobs.push(PairJob::new(spec.topic, spec.publisher, sub));
                }
            }
            // Patch the NACK climb tree for this publisher from the fresh
            // predecessors (absent brokers lose their entry).
            for i in 0..topo.num_nodes() {
                let n = topo.node(i);
                match fresh.predecessor(n) {
                    Some((parent, _)) if !self.absent.contains(n) => {
                        self.toward_publisher.insert((spec.publisher, n), parent);
                    }
                    _ => {
                        self.toward_publisher.remove(&(spec.publisher, n));
                    }
                }
            }
            self.dist_cache.insert(spec.publisher, fresh);
        }
        self.build_pairs(jobs);
    }

    /// Computes the `<d, r>` fixed point of every job against the current
    /// `dist_cache` trees, link estimates and absent mask, and installs the
    /// results in job order, stamped with the current table version.
    ///
    /// In a deployment every broker iterates on its own, per subscription
    /// (§III-B), so nothing couples one pair to another: the pairs fan out
    /// over [`par::map_init`] workers, one per [`PAIR_NODES_PER_WORKER`] of
    /// `pairs × live brokers`, capped by the host's parallelism.
    fn build_pairs(&mut self, jobs: Vec<PairJob>) {
        let live = self
            .topology
            .as_ref()
            .map_or(0, Topology::num_nodes)
            .saturating_sub(self.absent.len());
        let earned = jobs.len().saturating_mul(live) / PAIR_NODES_PER_WORKER;
        self.build_pairs_with(jobs, earned.min(par::available_workers()));
    }

    /// [`build_pairs`](Self::build_pairs) with an explicit worker count.
    /// The tables are bit-identical for every count: each pair is the same
    /// kernel call over the same read-only inputs, and a worker's
    /// [`TableWorkspace`] carries no value from one pair into the next.
    fn build_pairs_with(&mut self, jobs: Vec<PairJob>, workers: usize) {
        if jobs.is_empty() {
            return;
        }
        let (Some(topo), Some(estimates)) = (self.topology.as_ref(), self.estimates.as_ref())
        else {
            return;
        };
        // Serial prelude, shared read-only by every worker: one snapshot of
        // per-edge m-transmission stats, one masked adjacency snapshot, and
        // one subscriber-rooted α-distance bound per distinct subscriber (a
        // subscriber listening on several topics shares one Dijkstra pass).
        // Absent brokers are masked out of the trees, the adjacency, and
        // the `<d, r>` fixed point.
        let link_stats = link_transmission_stats(topo, estimates, self.params.m);
        let snapshot = AdjacencySnapshot::build(topo, &link_stats, &self.absent);
        let mut spd_bounds: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
        for job in &jobs {
            spd_bounds.entry(job.subscriber).or_insert_with(|| {
                let spd = snapshot.alpha_distances_from(job.subscriber);
                snapshot.neighbor_min(&spd)
            });
        }
        let (dist_cache, config, absent) = (&self.dist_cache, &self.config, &self.absent);
        let version = self.table_version;
        let built = par::map_init(jobs, workers, TableWorkspace::default, |ws, job| {
            // Both lookups were filled by the preludes; a miss would be a
            // bug, and the degraded path leaves that pair without tables.
            let (Some(dist), Some(spd_bound)) = (
                dist_cache.get(job.publisher),
                spd_bounds.get(&job.subscriber),
            ) else {
                debug_assert!(false, "pair job without its prelude inputs");
                return None;
            };
            let mut tables = compute_tables_snapshot_ws(
                &snapshot,
                job.publisher,
                dist,
                job.subscriber,
                spd_bound,
                job.deadline_us,
                config,
                absent,
                ws,
            );
            tables.set_version(version);
            Some(((job.topic, job.publisher, job.subscriber), tables))
        });
        self.tables.extend(built.into_iter().flatten());
    }

    /// Counts one upstream reroute of packet `id` taken at `node` in the
    /// durable hysteresis ledger; evicts the oldest packets past the
    /// ledger cap.
    fn note_upstream_reroute(&mut self, id: PacketId, node: NodeId) {
        *self
            .upstream_reroutes
            .entry(id)
            .or_default()
            .entry(node)
            .or_insert(0) += 1;
        while self.upstream_reroutes.len() > BOUNCED_LEDGER_CAP {
            self.upstream_reroutes.pop_first();
        }
    }

    /// Upstream reroutes packet `id` has already taken at `node`.
    fn upstream_reroutes_taken(&self, id: PacketId, node: NodeId) -> u32 {
        self.upstream_reroutes
            .get(&id)
            .and_then(|m| m.get(&node))
            .copied()
            .unwrap_or(0)
    }

    /// Seizes every custody entry held by a confirmed-dead or departed
    /// broker and queues each under its new custodian — the dead broker's
    /// recorded upstream when it has one, the packet's publisher otherwise
    /// (the custody chain's guaranteed terminus). The queue drains on the
    /// new custodian's next tick.
    fn handoff_custody(&mut self, dead: NodeId) {
        for (id, entry) in self.journal.take_for(dead) {
            let custodian = entry.upstream.unwrap_or(entry.packet.publisher);
            if custodian == dead {
                continue;
            }
            self.pending_handoff
                .entry(custodian)
                .or_default()
                .push((id, entry));
        }
    }

    /// Flushes custody entries handed to `node`, re-entering each packet's
    /// unsettled, still-in-budget destinations into the sending-list
    /// machinery — the same delay-cognizant filter restart replay uses.
    fn flush_handoffs(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        let Some(entries) = self.pending_handoff.remove(&node) else {
            return;
        };
        let Some(workload) = self.workload.clone() else {
            return;
        };
        for (id, entry) in entries {
            let mut packet = entry.packet.clone();
            packet.path.clear();
            packet.tag = 0;
            let spec = workload
                .topics()
                .iter()
                .find(|s| s.topic == packet.topic && s.publisher == packet.publisher);
            let live: NodeList = packet
                .destinations
                .iter()
                .copied()
                .filter(|&dest| {
                    !entry.done.contains(&dest)
                        && !self.absent.contains(dest)
                        && spec
                            .and_then(|s| s.deadline_of(dest))
                            .is_some_and(|dl| now.saturating_since(packet.published_at) < dl)
                })
                .collect();
            if live.is_empty() {
                continue;
            }
            packet.destinations = live;
            if self.durable() {
                self.journal.record(node, &packet, None);
            }
            match self.inflight.get_mut(&(id, node)) {
                Some(state) => {
                    for &dest in &packet.destinations {
                        if !state.packet.destinations.contains(&dest) {
                            state.packet.destinations.push(dest);
                        }
                        state.done.remove(dest);
                        state.tried.remove(&dest);
                    }
                }
                None => self.open_state(node, packet, None),
            }
            self.process(node, id, now, out);
        }
    }

    /// Applies a batch of membership deltas: updates the absent mask, wipes
    /// the dead brokers' volatile state, seizes their custody (when handoff
    /// is enabled) and repairs the routing tables per the configured
    /// [`RepairMode`].
    fn apply_membership(&mut self, deltas: &[MembershipDelta]) {
        let mut changed: Vec<NodeId> = Vec::new();
        for delta in deltas {
            match delta {
                MembershipDelta::Join { node } => {
                    if self.absent.contains(*node) {
                        self.absent.remove(*node);
                        changed.push(*node);
                    }
                }
                MembershipDelta::Leave { node } | MembershipDelta::ConfirmDead { node } => {
                    if !self.absent.contains(*node) {
                        self.absent.insert(*node);
                        changed.push(*node);
                    }
                }
                MembershipDelta::Refute { .. } => {}
            }
        }
        for delta in deltas {
            if !delta.removes() {
                continue;
            }
            let dead = delta.node();
            // The broker is gone for good: reclaim its volatile state the
            // way a crash wipe would.
            self.inflight.retain(|holder, _| holder != dead);
            self.rtt.retain(|&(from, _), _| from != dead);
            self.suspicion.retain(|&(from, _), _| from != dead);
            if self.config.membership.handoff {
                self.handoff_custody(dead);
            }
        }
        if changed.is_empty() {
            return;
        }
        match self.config.membership.repair {
            RepairMode::None => {}
            RepairMode::GlobalRebuild => self.rebuild_tables(),
            RepairMode::Incremental => self.repair_incremental(&changed),
        }
    }

    fn alpha(&self, a: NodeId, b: NodeId) -> SimDuration {
        let edge = self
            .topology
            .as_ref()
            .and_then(|topo| topo.edge_between(a, b));
        debug_assert!(edge.is_some(), "no link {a}-{b}");
        match (edge, self.estimates.as_ref()) {
            (Some(e), Some(est)) => est.get(e).alpha,
            // Unreachable once setup ran and the caller picked a genuine
            // neighbor; a conservative fallback keeps release builds alive.
            _ => FALLBACK_ALPHA,
        }
    }

    /// The ACK timeout for a fresh transmission `node → to`. Fixed policy:
    /// the paper's `factor × α + slack`. Adaptive policy: `SRTT +
    /// max(4 × RTTVAR, min_rto) + slack`, clamped to `[min_rto, max_rto]`,
    /// falling back to the fixed formula until the first sample arrives.
    fn rto(&self, node: NodeId, to: NodeId) -> SimDuration {
        match self.config.timeout_policy {
            TimeoutPolicy::Fixed => ack_timeout(self.alpha(node, to), &self.params),
            TimeoutPolicy::Adaptive(cfg) => {
                let min = SimDuration::from_millis(cfg.min_rto_ms);
                let max = SimDuration::from_millis(cfg.max_rto_ms);
                match self.rtt.get(&(node, to)) {
                    Some(e) => {
                        let var = SimDuration::from_micros((4.0 * e.rttvar).round() as u64);
                        let rto = SimDuration::from_micros(e.srtt.round() as u64) + var.max(min);
                        (rto + ACK_TIMEOUT_SLACK).clamp(min, max)
                    }
                    None => ack_timeout(self.alpha(node, to), &self.params).clamp(min, max),
                }
            }
        }
    }

    /// The timeout for a retransmission whose previous timer was
    /// `previous`: the adaptive policy doubles it (capped at `max_rto`),
    /// the fixed policy re-arms the same fixed timer.
    fn backoff_timeout(&self, node: NodeId, to: NodeId, previous: SimDuration) -> SimDuration {
        match self.config.timeout_policy {
            TimeoutPolicy::Fixed => ack_timeout(self.alpha(node, to), &self.params),
            TimeoutPolicy::Adaptive(cfg) => {
                (previous + previous).min(SimDuration::from_millis(cfg.max_rto_ms))
            }
        }
    }

    /// Feeds an ACK for a transmission `node → to` back into the RTT
    /// estimator (Karn's rule: never from a retransmitted send) and clears
    /// the neighbor's suspicion record.
    fn record_ack_feedback(
        &mut self,
        node: NodeId,
        to: NodeId,
        sent_at: SimTime,
        retransmitted: bool,
        now: SimTime,
    ) {
        if matches!(self.config.timeout_policy, TimeoutPolicy::Adaptive(_)) && !retransmitted {
            let sample = now.saturating_since(sent_at).as_micros() as f64;
            match self.rtt.get_mut(&(node, to)) {
                Some(e) => e.update(sample),
                None => {
                    self.rtt.insert((node, to), RttEstimate::first(sample));
                }
            }
        }
        if self.config.breaker.is_some() {
            self.suspicion.remove(&(node, to));
        }
    }

    /// Counts one `m`-exhausted timeout on `node → to` and demotes the
    /// neighbor once the threshold of consecutive exhaustions is reached.
    /// The cooldown doubles with every repeated demotion, capped.
    fn record_exhaustion(&mut self, node: NodeId, to: NodeId, now: SimTime) {
        let Some(cfg) = self.config.breaker else {
            return;
        };
        let s = self.suspicion.entry((node, to)).or_default();
        s.consecutive += 1;
        if s.consecutive >= cfg.threshold {
            let factor = 1u64 << s.demotions.min(16);
            let cooldown = cfg
                .cooldown_ms
                .saturating_mul(factor)
                .min(cfg.max_cooldown_ms);
            s.demoted_until = Some(now + SimDuration::from_millis(cooldown));
            s.demotions += 1;
            s.consecutive = 0;
        }
    }

    /// Whether the breaker currently holds `neighbor` out of `node`'s
    /// sending lists.
    fn is_demoted(&self, node: NodeId, neighbor: NodeId, now: SimTime) -> bool {
        self.config.breaker.is_some()
            && self
                .suspicion
                .get(&(node, neighbor))
                .and_then(|s| s.demoted_until)
                .is_some_and(|until| now < until)
    }

    /// Picks the next hop for `dest` at `node`, honoring the sending list,
    /// the packet's routing path, the per-destination tried set, the
    /// circuit breaker, and the upstream fallback. `None` means "give up /
    /// park". The upstream hop is exempt from the breaker — it is the only
    /// way back.
    fn choose_next_hop(
        &self,
        node: NodeId,
        state: &NodeState,
        dest: NodeId,
        now: SimTime,
    ) -> Option<(NodeId, bool)> {
        let tables = self
            .tables
            .get(&(state.packet.topic, state.packet.publisher, dest))?;
        let tried = state.tried.get(&dest);
        let candidate = tables.sending_list(node).iter().find(|c| {
            c.neighbor != node
                && !state.packet.visited(c.neighbor)
                && !tried.is_some_and(|t| t.contains(c.neighbor))
                && !self.is_demoted(node, c.neighbor, now)
        });
        if let Some(c) = candidate {
            return Some((c.neighbor, false));
        }
        if !self.config.reroute_upstream {
            return None;
        }
        // Reroute hysteresis: an upstream bounce is ACKed hop-by-hop even
        // when the destination is unreachable beyond the pair, so each
        // bounce concludes this broker's state and the returning copy
        // resurrects a fresh one — without a durable budget two brokers at
        // an unreachability boundary ping-pong the packet until the run
        // ends. Stop offering the upstream once this broker has spent its
        // reroute budget for this packet, across all state incarnations.
        if self.upstream_reroutes_taken(state.packet.id, node) >= self.config.upstream_retry_cap {
            return None;
        }
        state.upstream.map(|up| (up, true))
    }

    /// Algorithm 2's main loop: assign every unhandled destination a next
    /// hop, merging destinations that share one. Borrows the strategy's
    /// [`ScratchArena`] for the pass so the hot loop stays allocation-free.
    fn process(&mut self, node: NodeId, id: PacketId, now: SimTime, out: &mut Actions) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.process_with(node, id, now, out, &mut scratch);
        scratch.reset();
        self.scratch = scratch;
    }

    fn process_with(
        &mut self,
        node: NodeId,
        id: PacketId,
        now: SimTime,
        out: &mut Actions,
        scratch: &mut ScratchArena,
    ) {
        // Collect assignments first (immutable pass), then mutate.
        let Some(state) = self.inflight.get(&(id, node)) else {
            return;
        };
        let Some(num_nodes) = self.topology.as_ref().map(Topology::num_nodes) else {
            return;
        };
        let path_budget = self.config.max_path_factor as usize * num_nodes;
        let over_cap = state.attempts >= self.config.max_attempts_per_node
            || state.packet.path.len() >= path_budget;

        // One O(pending destinations) sweep replaces a per-destination scan
        // over every pending send.
        scratch.covered.union_with(&state.done);
        for p in state.pending.iter() {
            for &d in &p.packet.destinations {
                scratch.covered.insert(d);
            }
        }
        for &d in &state.parked {
            scratch.covered.insert(d);
        }

        for &dest in &state.packet.destinations {
            if scratch.covered.contains(dest) {
                continue;
            }
            // Park instead of giving up when the persistence extension has
            // retries left — both for an exhausted publisher and for any
            // broker that burned through its attempts cap.
            let can_park = matches!(
                self.config.persistence,
                PersistenceMode::Retry { max_retries, .. }
                    if state.persist_retries < max_retries
            );
            if over_cap {
                if can_park {
                    scratch.park.push(dest);
                } else {
                    scratch.give_ups.push(dest);
                }
                continue;
            }
            match self.choose_next_hop(node, state, dest, now) {
                Some((hop, is_upstream)) => {
                    if let Some(entry) = scratch
                        .assignments
                        .iter_mut()
                        .find(|(h, _, up)| *h == hop && *up == is_upstream)
                    {
                        entry.1.push(dest);
                    } else {
                        scratch
                            .assignments
                            .push((hop, NodeList::from_slice(&[dest]), is_upstream));
                    }
                }
                None => {
                    if can_park {
                        scratch.park.push(dest);
                    } else {
                        scratch.give_ups.push(dest);
                    }
                }
            }
        }

        // Mutate phase. The timeout needs `&self` while the state is
        // borrowed mutably, so compute it before re-borrowing the state.
        // The destination lists move out of the scratch into the
        // forwarded packets (they live on as `packet.destinations`).
        for slot in 0..scratch.assignments.len() {
            let Some(entry) = scratch.assignments.get_mut(slot) else {
                continue;
            };
            let (hop, is_upstream) = (entry.0, entry.2);
            let dests = std::mem::take(&mut entry.1);
            let tag = self.next_tag;
            self.next_tag += 1;
            let timeout = self.rto(node, hop);
            if is_upstream {
                // Every upstream send spends reroute budget the moment it
                // is armed: bounces are ACKed (so no timeout ever fires for
                // them) and conclude this state, which makes this the only
                // point that survives to see every incarnation.
                self.note_upstream_reroute(id, node);
            }
            let Some(state) = self.inflight.get_mut(&(id, node)) else {
                return;
            };
            let forwarded = state.packet.forward(node, dests, tag);
            state.attempts += 1;
            scratch.new_pendings.push((
                tag,
                Pending {
                    to: hop,
                    packet: forwarded,
                    sends: 1,
                    is_upstream,
                    sent_at: now,
                    retransmitted: false,
                    timeout,
                },
                now + timeout,
            ));
        }
        let Some(state) = self.inflight.get_mut(&(id, node)) else {
            return;
        };
        for (tag, pending, deadline) in scratch.new_pendings.drain(..) {
            out.send(pending.to, pending.packet.clone());
            out.set_timer(deadline, TimerKey { packet: id, tag });
            state.pending.push(tag, pending);
        }
        for dest in scratch.give_ups.drain(..) {
            state.done.insert(dest);
            self.journal.note_done(node, id, dest);
            out.give_up(id, dest);
        }
        if !scratch.park.is_empty() {
            state.parked.append(&mut scratch.park);
            state.persist_retries += 1;
            if let PersistenceMode::Retry { retry_after_ms, .. } = self.config.persistence {
                let tag = self.next_persist_tag;
                self.next_persist_tag += 1;
                out.set_timer(
                    now + SimDuration::from_millis(retry_after_ms),
                    TimerKey { packet: id, tag },
                );
            }
        }
        if state.finished() {
            self.conclude(node, id);
        }
    }

    /// Drops a finished in-flight state and retires its custody entry —
    /// unless the holder is the packet's publisher. The publisher keeps
    /// custody for the whole run so a NACK climbing toward it is always
    /// guaranteed a custodian at the top.
    fn conclude(&mut self, node: NodeId, id: PacketId) {
        let Some(state) = self.inflight.remove(&(id, node)) else {
            return;
        };
        if node != state.packet.publisher {
            self.journal.retire(node, id);
        }
        debug_assert!(state.pending.is_empty(), "concluded with sends outstanding");
        self.spare_pending.push(state.pending);
    }

    /// Opens the per-packet forwarding state of broker `node`, replacing
    /// any state it already holds for the packet.
    fn open_state(&mut self, node: NodeId, packet: Packet, upstream: Option<NodeId>) {
        let mut state = NodeState::new(packet, upstream);
        if let Some(spare) = self.spare_pending.pop() {
            state.pending = spare;
        }
        self.inflight.insert((state.packet.id, node), state);
    }

    /// Journals `holder`'s custody of `packet` before it takes effect (the
    /// write-ahead discipline). With a nonzero write cost the forwarding
    /// work is deferred by that cost via a timer in the journal tag space;
    /// returns whether such a timer was armed. No-op returning `false`
    /// when volatile.
    fn take_custody(
        &mut self,
        node: NodeId,
        packet: &Packet,
        upstream: Option<NodeId>,
        now: SimTime,
        out: &mut Actions,
    ) -> bool {
        let Some(cost) = self.config.durability.write_cost_ms() else {
            return false;
        };
        self.journal.record(node, packet, upstream);
        if cost == 0 {
            return false;
        }
        let tag = self.next_journal_tag;
        self.next_journal_tag += 1;
        out.set_timer(
            now + SimDuration::from_millis(cost),
            TimerKey {
                packet: packet.id,
                tag,
            },
        );
        true
    }

    /// Handles local delivery (at most once per `(message, subscriber)`
    /// pair — duplicate copies born from lost ACKs or crash recovery are
    /// absorbed here) and strips this node from the destinations still
    /// needing routing.
    ///
    /// In recovery mode the per-stream [`SequenceTracker`] sits in front:
    /// its bounded dedup window replaces the silent drop with an explicit
    /// [`Suppress`](dcrd_pubsub::strategy::Action::Suppress), so the
    /// auditor can tell benign replay duplicates from protocol bugs.
    fn deliver_locally(&mut self, node: NodeId, packet: &mut Packet, out: &mut Actions) {
        if let Some(pos) = packet.destinations.iter().position(|&d| d == node) {
            let fresh_id = self.delivered.insert((packet.id, node));
            match self.config.recovery {
                Some(rc) => {
                    let tracker = self
                        .trackers
                        .entry((packet.topic, packet.publisher, node))
                        .or_insert_with(|| SequenceTracker::new(rc.dedup_window as usize));
                    let fresh_seq = tracker.observe(packet.seq);
                    if fresh_id && fresh_seq {
                        out.deliver(packet.id);
                    } else {
                        out.suppress(packet.id);
                    }
                }
                None => {
                    if fresh_id {
                        out.deliver(packet.id);
                    }
                }
            }
            packet.destinations.swap_remove(pos);
        }
    }

    /// Re-derives the upstream hop of a broker whose per-packet state was
    /// already reclaimed (the packet returned after we ACKed it away).
    ///
    /// The natural answer is the paper's "node before my first occurrence
    /// on the routing path", but when duplicate copies converged somewhere
    /// the recorded path is a merge of several physical paths and that
    /// entry may not be a neighbor. Fall back along progressively weaker
    /// candidates, requiring each to be an actual neighbor; the sender of
    /// the returning copy always is.
    fn derive_upstream(&self, node: NodeId, packet: &Packet, from: NodeId) -> Option<NodeId> {
        let topo = self.topology.as_ref()?;
        let path = packet.path.as_slice();
        let first = path.iter().position(|&n| n == node);
        let last = path.iter().rposition(|&n| n == node);
        let candidates = [
            first.and_then(|i| i.checked_sub(1)).map(|i| path[i]),
            last.and_then(|i| i.checked_sub(1)).map(|i| path[i]),
            Some(from),
        ];
        candidates
            .into_iter()
            .flatten()
            .find(|&c| c != node && topo.edge_between(node, c).is_some())
    }

    /// Handles an incoming NACK at this broker. Every missing sequence
    /// number the broker has eligible custody for is re-served to the
    /// requesting subscriber through the normal sending-list machinery;
    /// the rest are relayed onward toward the publisher, whose permanent
    /// custody makes it the guaranteed terminus. A NACK reaching the
    /// publisher for something it never journalled simply dies.
    fn handle_nack(&mut self, node: NodeId, packet: Packet, now: SimTime, out: &mut Actions) {
        let PacketKind::Nack {
            subscriber,
            ref missing,
        } = packet.kind
        else {
            return;
        };
        let mut unresolved: Vec<u64> = Vec::new();
        let mut serve: Vec<(PacketId, Packet)> = Vec::new();
        for &seq in missing {
            match self
                .journal
                .find_custody(node, packet.topic, packet.publisher, seq)
            {
                // Serve only subscribers this custody ever covered —
                // otherwise a NACK could conjure deliveries the protocol
                // never owed (e.g. to a subscriber that joined late).
                Some((id, entry))
                    if entry.packet.destinations.contains(&subscriber)
                        || entry.done.contains(&subscriber) =>
                {
                    let mut copy = entry.packet.clone();
                    copy.destinations = NodeList::from_slice(&[subscriber]);
                    copy.path.clear();
                    copy.tag = 0;
                    serve.push((id, copy));
                }
                _ => unresolved.push(seq),
            }
        }
        for (id, copy) in serve {
            self.journal.note_undone(node, id, subscriber);
            match self.inflight.get_mut(&(id, node)) {
                Some(state) => {
                    if !state.packet.destinations.contains(&subscriber) {
                        state.packet.destinations.push(subscriber);
                    }
                    state.done.remove(subscriber);
                    state.tried.remove(&subscriber);
                    state.parked.retain(|&d| d != subscriber);
                    // Re-open the send budget: a state worn down by earlier
                    // speculative retries would otherwise give up on the
                    // spot, wedging this pair forever. Demand-driven repair
                    // is bounded by the NACK-per-seq budget instead.
                    state.attempts = 0;
                    state.persist_retries = 0;
                }
                None => self.open_state(node, copy, None),
            }
            self.process(node, id, now, out);
        }
        if !unresolved.is_empty() && node != packet.publisher {
            if let Some(&hop) = self.toward_publisher.get(&(packet.publisher, node)) {
                let mut fwd = packet.forward(node, vec![packet.publisher], 0);
                fwd.kind = PacketKind::Nack {
                    subscriber,
                    missing: unresolved,
                };
                out.send(hop, fwd);
            }
        }
    }
}

impl RoutingStrategy for DcrdStrategy {
    fn name(&self) -> &'static str {
        "DCRD"
    }

    fn setup(&mut self, ctx: &SetupContext<'_>) {
        self.params = ctx.params;
        self.topology = Some(ctx.topology.clone());
        self.estimates = Some(ctx.estimates.clone());
        self.workload = Some(ctx.workload.clone());
        self.rebuild_tables();
        // Setup is table *construction*, not a repair: the rebuild counter
        // only measures from-scratch passes the control plane fell back to
        // after the run started.
        self.global_rebuilds = 0;
    }

    fn on_publish(&mut self, node: NodeId, mut packet: Packet, now: SimTime, out: &mut Actions) {
        self.deliver_locally(node, &mut packet, out);
        if packet.destinations.is_empty() {
            return;
        }
        let id = packet.id;
        let deferred = self.take_custody(node, &packet, None, now, out);
        self.open_state(node, packet, None);
        if !deferred {
            self.process(node, id, now, out);
        }
    }

    fn on_packet(
        &mut self,
        node: NodeId,
        from: NodeId,
        mut packet: Packet,
        now: SimTime,
        out: &mut Actions,
    ) {
        if packet.is_nack() {
            self.handle_nack(node, packet, now, out);
            return;
        }
        self.deliver_locally(node, &mut packet, out);
        if packet.destinations.is_empty() {
            return;
        }
        let id = packet.id;
        let durable = self.durable();
        let mut deferred = false;
        match self.inflight.get_mut(&(id, node)) {
            Some(state) => {
                // A second copy: either a RETURNED packet (we are on its
                // path — a downstream broker failed and sent it back) or a
                // converging DUPLICATE (born upstream when an ACK was lost
                // and both the timeout path and the original copy went on).
                let returned = packet.visited(node);
                state.packet.path.merge(&packet.path);
                for &dest in &packet.destinations {
                    if !state.packet.destinations.contains(&dest) {
                        state.packet.destinations.push(dest);
                    }
                    // Only a returned packet invalidates earlier handling:
                    // its destinations genuinely failed downstream. A mere
                    // duplicate must NOT resurrect destinations we already
                    // forwarded — that would amplify every duplicate.
                    if returned {
                        state.done.remove(dest);
                        self.journal.note_undone(node, id, dest);
                    }
                }
                // A widened destination set widens the custody too. The
                // entry is already journalled, so the rewrite carries no
                // second write cost.
                if durable {
                    let snapshot = state.packet.clone();
                    let upstream = state.upstream;
                    self.journal.record(node, &snapshot, upstream);
                }
            }
            None => {
                // The upstream is only meaningful when the packet came from
                // a broker that has NOT seen it bounce through us before —
                // a returning packet (we are on its path) must not be sent
                // back to the downstream neighbor that returned it.
                let upstream = if packet.visited(node) {
                    self.derive_upstream(node, &packet, from)
                } else {
                    Some(from)
                };
                deferred = self.take_custody(node, &packet, upstream, now, out);
                self.open_state(node, packet, upstream);
            }
        }
        if !deferred {
            self.process(node, id, now, out);
        }
    }

    fn on_ack(
        &mut self,
        node: NodeId,
        _to: NodeId,
        packet: &Packet,
        now: SimTime,
        out: &mut Actions,
    ) {
        let _ = out;
        let Some(state) = self.inflight.get_mut(&(packet.id, node)) else {
            return;
        };
        if let Some(p) = state.pending.remove(packet.tag) {
            for dest in &p.packet.destinations {
                state.done.insert(*dest);
                self.journal.note_done(node, packet.id, *dest);
            }
            if state.finished() {
                self.conclude(node, packet.id);
            }
            self.record_ack_feedback(node, p.to, p.sent_at, p.retransmitted, now);
        }
    }

    fn on_timer(&mut self, node: NodeId, key: TimerKey, now: SimTime, out: &mut Actions) {
        let id = key.packet;
        if key.tag >= PERSIST_TAG_BASE {
            // Persistence retry: unpark every parked destination and restart
            // the exploration with cleared per-destination history. The
            // retry is semantically a fresh send, so the routing-path record
            // (loop avoidance + path budget) starts over too.
            if let Some(state) = self.inflight.get_mut(&(id, node)) {
                let parked = std::mem::take(&mut state.parked);
                for dest in &parked {
                    state.tried.remove(dest);
                }
                state.attempts = 0;
                state.packet.path.clear();
            }
            self.process(node, id, now, out);
            return;
        }
        if key.tag >= JOURNAL_TAG_BASE {
            // The journal write completed; custody is effective and the
            // packet may now be forwarded. If the broker crashed while the
            // write was in flight, the state is gone and the entry waits
            // for restart replay instead.
            self.process(node, id, now, out);
            return;
        }
        let Some(state) = self.inflight.get_mut(&(id, node)) else {
            return;
        };
        let Some(p) = state.pending.get_mut(key.tag) else {
            return; // ACK already arrived; stale timer.
        };
        if p.sends < self.params.m {
            // Retransmit on the same link (Eq. 1's m), backing the timer
            // off under the adaptive policy.
            let packet = p.packet.clone();
            let to = p.to;
            let previous = p.timeout;
            let timeout = self.backoff_timeout(node, to, previous);
            let Some(state) = self.inflight.get_mut(&(id, node)) else {
                return;
            };
            let Some(p) = state.pending.get_mut(key.tag) else {
                return;
            };
            p.sends += 1;
            p.retransmitted = true;
            p.sent_at = now;
            p.timeout = timeout;
            state.attempts += 1;
            out.send(to, packet);
            out.set_timer(now + timeout, key);
            return;
        }
        // Neighbor failed after m transmissions: mark tried and move on.
        // Upstream hops are exempt from the tried set — the upstream link is
        // the only way back, so it is retried (bounded by the attempts cap)
        // rather than written off.
        let Some(p) = state.pending.remove(key.tag) else {
            return;
        };
        if !p.is_upstream {
            for dest in &p.packet.destinations {
                state.tried.entry(*dest).or_default().insert(p.to);
            }
            self.record_exhaustion(node, p.to, now);
        }
        self.process(node, id, now, out);
    }

    fn on_monitor(&mut self, estimates: &LinkEstimates, _now: SimTime) {
        self.estimates = Some(estimates.clone());
        self.rebuild_tables();
    }

    fn on_membership(&mut self, deltas: &[MembershipDelta], _now: SimTime) {
        self.apply_membership(deltas);
    }

    fn on_gossip(&mut self, deltas: &[MembershipDelta], _now: SimTime) {
        // Gossip-disseminated deltas mean exactly what detector-broadcast
        // ones do; only their arrival time differs (post-convergence). The
        // same incremental-repair machinery applies them.
        self.apply_membership(deltas);
    }

    fn on_restart(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        // With `repair_on_restart`, a broker the membership layer had
        // written off rejoins through the same repair path a detector-
        // observed join takes, instead of waiting for the next probe
        // round. A broker that was never masked repairs nothing, so the
        // PR 3 recovery semantics are untouched.
        if self.config.membership.repair_on_restart && self.absent.contains(node) {
            self.apply_membership(&[MembershipDelta::Join { node }]);
        }
        // A crash wipes the broker's volatile state: in-flight per-packet
        // forwarding state, RTT estimates and breaker bookkeeping. Stale
        // timers for the dropped state fire into the void (on_timer finds
        // nothing and returns). The subscriber delivery log (`delivered`)
        // and the routing tables are durable and survive.
        self.inflight.retain(|holder, _| holder != node);
        self.rtt.retain(|&(from, _), _| from != node);
        self.suspicion.retain(|&(from, _), _| from != node);
        if !self.durable() {
            return;
        }
        // Replay the surviving custody entries, delay-cognizantly: only
        // destinations that are unsettled AND still inside their delay
        // budget re-enter the sending-list machinery. Expired destinations
        // are not replayed — completeness for them is the NACK path's job,
        // which serves from the (kept) journal entry regardless of budget.
        let Some(workload) = self.workload.clone() else {
            return;
        };
        for (id, entry) in self.journal.replay_for(node) {
            let mut packet = entry.packet.clone();
            packet.path.clear();
            packet.tag = 0;
            let spec = workload
                .topics()
                .iter()
                .find(|s| s.topic == packet.topic && s.publisher == packet.publisher);
            let live: NodeList = packet
                .destinations
                .iter()
                .copied()
                .filter(|&dest| {
                    !entry.done.contains(&dest)
                        && spec
                            .and_then(|s| s.deadline_of(dest))
                            .is_some_and(|dl| now.saturating_since(packet.published_at) < dl)
                })
                .collect();
            if live.is_empty() {
                continue;
            }
            packet.destinations = live;
            self.open_state(node, packet, entry.upstream);
            self.process(node, id, now, out);
        }
    }

    fn on_tick(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        self.flush_handoffs(node, now, out);
        let Some(rc) = self.config.recovery else {
            return;
        };
        let Some(workload) = self.workload.clone() else {
            return;
        };
        let grace = SimDuration::from_secs(rc.grace_epochs);
        let horizon = self.params.horizon;
        for spec in workload.topics() {
            if spec.publisher == node || !spec.subscriptions.iter().any(|s| s.subscriber == node) {
                continue;
            }
            let tracker = self
                .trackers
                .entry((spec.topic, spec.publisher, node))
                .or_insert_with(|| SequenceTracker::new(rc.dedup_window as usize));
            // The newest sequence number that was actually published
            // (inside the horizon) and has been overdue for at least the
            // grace period — everything below it should have arrived.
            let mut expected_hi: Option<u64> = None;
            let mut k = tracker.low();
            loop {
                let t = spec.publish_time(k);
                if t > now
                    || t.saturating_since(SimTime::ZERO) > horizon
                    || now.saturating_since(t) < grace
                {
                    break;
                }
                expected_hi = Some(k);
                k += 1;
            }
            let Some(hi) = expected_hi else {
                continue;
            };
            let missing = tracker.missing_through(hi);
            let mut wanted: Vec<u64> = Vec::new();
            for seq in missing {
                let sent = self
                    .nack_counts
                    .entry((spec.topic, spec.publisher, node, seq))
                    .or_insert(0);
                if *sent < rc.max_nacks_per_seq {
                    *sent += 1;
                    wanted.push(seq);
                }
            }
            if wanted.is_empty() {
                continue;
            }
            let Some(&hop) = self.toward_publisher.get(&(spec.publisher, node)) else {
                continue;
            };
            // Fresh id per sweep: the NACK is fire-and-forget (no ACK
            // timer guards it), so a lost one is simply re-minted — and
            // re-used ids would trip the auditor's edge-budget check.
            let id = PacketId::new(self.next_nack_id);
            self.next_nack_id += 1;
            let nack = Packet::nack(id, spec.topic, spec.publisher, now, node, wanted);
            out.send(hop, nack.forward(node, vec![spec.publisher], 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_net::failure::{FailureModel, LinkFailureModel};
    use dcrd_net::loss::LossModel;
    use dcrd_net::topology::{full_mesh, line, ring, DelayRange};
    use dcrd_pubsub::runtime::{OverlayRuntime, RuntimeConfig};
    use dcrd_pubsub::topic::Subscription;
    use dcrd_pubsub::workload::{TopicSpec, Workload, WorkloadConfig};
    use dcrd_sim::rng::rng_for;

    fn one_topic_workload(
        topo: &Topology,
        publisher: usize,
        subscribers: &[usize],
        deadline: SimDuration,
    ) -> Workload {
        Workload::from_topics(vec![TopicSpec {
            topic: TopicId::new(0),
            publisher: topo.node(publisher),
            interval: SimDuration::from_secs(1),
            offset: SimDuration::ZERO,
            subscriptions: subscribers
                .iter()
                .map(|&s| Subscription::new(topo.node(s), deadline))
                .collect(),
            burst: None,
        }])
    }

    fn run(
        topo: &Topology,
        wl: &Workload,
        pf: f64,
        pl: f64,
        secs: u64,
        seed: u64,
        config: DcrdConfig,
    ) -> dcrd_pubsub::runtime::DeliveryLog {
        let failure = FailureModel::links_only(LinkFailureModel::new(pf, seed ^ 0xFA11));
        let rt_config = RuntimeConfig::paper(SimDuration::from_secs(secs), seed);
        let rt = OverlayRuntime::new(topo, wl, failure, LossModel::new(pl), rt_config);
        rt.run(&mut DcrdStrategy::new(config))
    }

    #[test]
    fn lossless_line_delivers_on_time() {
        let topo = line(4, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[3], SimDuration::from_millis(90));
        let log = run(&topo, &wl, 0.0, 0.0, 20, 1, DcrdConfig::default());
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((log.qos_delivery_ratio() - 1.0).abs() < 1e-12);
        // Exactly 3 hops per message, no retries.
        assert!((log.packets_per_subscriber() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_subscribers_are_merged_where_paths_share_hops() {
        // Line 0-1-2-3: subscribers 2 and 3. Hop 0→1→2 is shared, so the
        // merged packet costs 2 sends up to node 2 plus 1 send to 3.
        let topo = line(4, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[2, 3], SimDuration::from_millis(200));
        let log = run(&topo, &wl, 0.0, 0.0, 10, 2, DcrdConfig::default());
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
        // 3 transmissions per message for 2 (msg, sub) pairs → 1.5.
        assert!(
            (log.packets_per_subscriber() - 1.5).abs() < 1e-9,
            "merging broken: {}",
            log.packets_per_subscriber()
        );
    }

    #[test]
    fn reroutes_around_permanently_failed_link() {
        // Ring of 4: direct route 0→1, detour 0→3→2→1. Kill link 0-1 by
        // giving it pf=1? Per-link failure control isn't exposed, so use a
        // custom topology where the "direct" link is dead via node pair
        // distance: instead simulate pf high and rely on rerouting to lift
        // delivery above the single-path baseline.
        let topo = ring(4, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[1], SimDuration::from_millis(400));
        let log = run(&topo, &wl, 0.3, 0.0, 120, 3, DcrdConfig::default());
        // A fixed single path delivers ≈70% (direct link up). The oracle
        // ceiling is P(any path up) = 1−0.3·(1−0.7³) ≈ 80%. DCRD must land
        // well above the fixed path and near the ceiling.
        assert!(
            log.delivery_ratio() > 0.75,
            "delivery ratio {} too low for DCRD",
            log.delivery_ratio()
        );
        assert!(log.delivery_ratio() <= 0.85);
    }

    #[test]
    fn mesh_under_paper_conditions_is_near_perfect() {
        let mut rng = rng_for(4, "router");
        let topo = full_mesh(10, DelayRange::PAPER, &mut rng);
        let wl = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
        let log = run(&topo, &wl, 0.04, 1e-4, 60, 4, DcrdConfig::default());
        assert!(
            log.delivery_ratio() > 0.995,
            "delivery ratio {}",
            log.delivery_ratio()
        );
        assert!(
            log.qos_delivery_ratio() > 0.97,
            "QoS ratio {}",
            log.qos_delivery_ratio()
        );
    }

    #[test]
    fn no_reroute_ablation_gives_up_earlier() {
        let topo = ring(4, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[2], SimDuration::from_millis(400));
        let with = run(&topo, &wl, 0.25, 0.0, 120, 5, DcrdConfig::default());
        let without = run(
            &topo,
            &wl,
            0.25,
            0.0,
            120,
            5,
            DcrdConfig {
                reroute_upstream: false,
                ..DcrdConfig::default()
            },
        );
        assert!(
            with.delivery_ratio() >= without.delivery_ratio(),
            "reroute {} < no-reroute {}",
            with.delivery_ratio(),
            without.delivery_ratio()
        );
    }

    #[test]
    fn persistence_mode_recovers_parked_packets() {
        // Two nodes, one link: when the link's epoch fails, the publisher
        // has no alternative and (without persistence) gives up; with
        // persistence it retries next epoch and delivers late.
        let topo = line(2, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[1], SimDuration::from_millis(100));
        let base = run(&topo, &wl, 0.4, 0.0, 120, 6, DcrdConfig::default());
        let persist = run(
            &topo,
            &wl,
            0.4,
            0.0,
            120,
            6,
            DcrdConfig {
                persistence: PersistenceMode::Retry {
                    max_retries: 10,
                    retry_after_ms: 1000,
                },
                ..DcrdConfig::default()
            },
        );
        assert!(
            persist.delivery_ratio() > base.delivery_ratio() + 0.1,
            "persistence {} vs base {}",
            persist.delivery_ratio(),
            base.delivery_ratio()
        );
        // Late deliveries don't help QoS much, but delivery must be ~1.
        assert!(persist.delivery_ratio() > 0.95);
    }

    #[test]
    fn retransmission_m2_sends_more() {
        let topo = line(2, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[1], SimDuration::from_millis(100));
        let mut m2 = DcrdConfig::default();
        let _ = &mut m2;
        // m comes from RunParams; craft runtimes directly.
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 77));
        let mut cfg1 = RuntimeConfig::paper(SimDuration::from_secs(60), 7);
        cfg1.params.m = 1;
        let mut cfg2 = cfg1;
        cfg2.params.m = 2;
        // Heavy random loss so retransmissions matter.
        let log1 = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.3), cfg1)
            .run(&mut DcrdStrategy::new(DcrdConfig::default()));
        let log2 = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.3), cfg2)
            .run(&mut DcrdStrategy::new(DcrdConfig::default()));
        assert!(
            log2.delivery_ratio() > log1.delivery_ratio(),
            "m=2 {} should beat m=1 {} under pure loss on a single path",
            log2.delivery_ratio(),
            log1.delivery_ratio()
        );
    }

    #[test]
    fn inflight_state_is_cleaned_up() {
        let topo = line(3, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[2], SimDuration::from_millis(100));
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let rt_config = RuntimeConfig::paper(SimDuration::from_secs(10), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), rt_config);
        let mut strategy = DcrdStrategy::new(DcrdConfig::default());
        let log = rt.run(&mut strategy);
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(
            strategy.inflight_states(),
            0,
            "all per-packet state must be reclaimed after ACKs"
        );
    }

    #[test]
    fn chaos_hardened_matches_default_on_healthy_network() {
        // With no chaos, no loss and no failures, the adaptive timers never
        // fire and the breaker never trips: behavior is byte-identical to
        // the paper's configuration.
        let topo = line(4, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[3], SimDuration::from_millis(90));
        let log = run(&topo, &wl, 0.0, 0.0, 20, 1, DcrdConfig::chaos_hardened());
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((log.qos_delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((log.packets_per_subscriber() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn adaptive_timeouts_survive_paper_conditions() {
        let mut rng = rng_for(4, "router");
        let topo = full_mesh(10, DelayRange::PAPER, &mut rng);
        let wl = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
        let log = run(&topo, &wl, 0.04, 1e-4, 60, 4, DcrdConfig::chaos_hardened());
        assert!(
            log.delivery_ratio() > 0.99,
            "delivery ratio {}",
            log.delivery_ratio()
        );
    }

    #[test]
    fn rtt_estimator_follows_samples_and_honors_karn() {
        let mut s = DcrdStrategy::new(DcrdConfig::chaos_hardened());
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        // First sample: srtt = s, rttvar = s/2 →
        // RTO = 30ms + max(4 × 15ms → capped…, min) — here 30 + 60 + slack,
        // clamped to max_rto = 500ms.
        s.record_ack_feedback(a, b, SimTime::ZERO, false, SimTime::from_millis(30));
        let rto1 = s.rto(a, b);
        assert_eq!(rto1, SimDuration::from_millis(91));
        // A retransmitted send must not perturb the estimate (Karn).
        s.record_ack_feedback(a, b, SimTime::ZERO, true, SimTime::from_secs(9));
        assert_eq!(s.rto(a, b), rto1);
        // Repeated identical samples shrink RTTVAR toward zero, so the RTO
        // tightens toward srtt + min_rto + slack.
        for _ in 0..200 {
            s.record_ack_feedback(a, b, SimTime::ZERO, false, SimTime::from_millis(30));
        }
        let rto2 = s.rto(a, b);
        assert!(rto2 < rto1);
        assert_eq!(rto2, SimDuration::from_millis(33));
        // Backoff doubles and caps at max_rto.
        let doubled = s.backoff_timeout(a, b, rto2);
        assert_eq!(doubled, SimDuration::from_millis(66));
        let capped = s.backoff_timeout(a, b, SimDuration::from_millis(400));
        assert_eq!(capped, SimDuration::from_millis(500));
    }

    #[test]
    fn breaker_demotes_and_probes_back_in() {
        let mut s = DcrdStrategy::new(DcrdConfig::chaos_hardened());
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t = SimTime::from_secs(10);
        // Below the threshold: still usable.
        s.record_exhaustion(a, b, t);
        s.record_exhaustion(a, b, t);
        assert!(!s.is_demoted(a, b, t));
        // Third consecutive exhaustion trips the breaker for 1000ms.
        s.record_exhaustion(a, b, t);
        assert!(s.is_demoted(a, b, t));
        assert!(s.is_demoted(a, b, t + SimDuration::from_millis(999)));
        assert!(!s.is_demoted(a, b, t + SimDuration::from_millis(1000)));
        // A second demotion doubles the cooldown.
        let t2 = t + SimDuration::from_secs(5);
        for _ in 0..3 {
            s.record_exhaustion(a, b, t2);
        }
        assert!(s.is_demoted(a, b, t2 + SimDuration::from_millis(1999)));
        assert!(!s.is_demoted(a, b, t2 + SimDuration::from_millis(2000)));
        // An ACK clears everything, including the doubling history.
        s.record_ack_feedback(a, b, SimTime::ZERO, false, t2);
        assert!(!s.is_demoted(a, b, t2));
        for _ in 0..3 {
            s.record_exhaustion(a, b, t2);
        }
        assert!(!s.is_demoted(a, b, t2 + SimDuration::from_millis(1000)));
    }

    #[test]
    fn breaker_disabled_never_demotes() {
        let mut s = DcrdStrategy::new(DcrdConfig::default());
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for _ in 0..10 {
            s.record_exhaustion(a, b, SimTime::ZERO);
        }
        assert!(!s.is_demoted(a, b, SimTime::ZERO));
    }

    #[test]
    fn local_delivery_is_idempotent() {
        use dcrd_pubsub::strategy::Action;

        let mut s = DcrdStrategy::new(DcrdConfig::default());
        let node = NodeId::new(2);
        let mut first = Packet::new(
            PacketId::new(7),
            TopicId::new(0),
            NodeId::new(0),
            SimTime::ZERO,
            vec![node],
        );
        let mut dup = first.clone();
        let mut out = Actions::new();
        s.deliver_locally(node, &mut first, &mut out);
        s.deliver_locally(node, &mut dup, &mut out);
        let delivers = out
            .drain()
            .filter(|a| matches!(a, Action::Deliver { .. }))
            .count();
        assert_eq!(delivers, 1, "duplicate copy must not deliver twice");
        assert!(first.destinations.is_empty());
        assert!(dup.destinations.is_empty());
    }

    #[test]
    fn restart_drops_volatile_state_keeps_delivery_log() {
        let mut s = DcrdStrategy::new(DcrdConfig::chaos_hardened());
        let crashed = NodeId::new(1);
        let healthy = NodeId::new(2);
        let mk = |n: u32| {
            Packet::new(
                PacketId::new(u64::from(n)),
                TopicId::new(0),
                NodeId::new(0),
                SimTime::ZERO,
                vec![NodeId::new(5)],
            )
        };
        s.inflight
            .insert((PacketId::new(1), crashed), NodeState::new(mk(1), None));
        s.inflight
            .insert((PacketId::new(2), healthy), NodeState::new(mk(2), None));
        s.record_ack_feedback(
            crashed,
            healthy,
            SimTime::ZERO,
            false,
            SimTime::from_millis(5),
        );
        s.record_ack_feedback(
            healthy,
            crashed,
            SimTime::ZERO,
            false,
            SimTime::from_millis(5),
        );
        s.delivered.insert((PacketId::new(1), crashed));
        let mut out = Actions::new();
        s.on_restart(crashed, SimTime::from_secs(3), &mut out);
        assert_eq!(
            s.inflight_states(),
            1,
            "only the crashed broker's state goes"
        );
        assert!(s.inflight.contains_key(&(PacketId::new(2), healthy)));
        assert!(!s.rtt.contains_key(&(crashed, healthy)));
        assert!(s.rtt.contains_key(&(healthy, crashed)));
        assert!(
            s.delivered.contains(&(PacketId::new(1), crashed)),
            "the subscriber delivery log is durable across restarts"
        );
        assert!(out.is_empty());
    }

    #[test]
    fn tables_do_not_depend_on_the_worker_count() {
        use dcrd_net::estimate::analytic_estimates;
        use dcrd_net::topology::random_connected;

        let mut rng = rng_for(13, "table-workers");
        let topo = random_connected(96, 6, DelayRange::PAPER, &mut rng);
        let wl = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
        let estimates = analytic_estimates(&topo, 0.05, 0.01);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let mut strategy = DcrdStrategy::new(DcrdConfig::default());
        strategy.setup(&SetupContext {
            topology: &topo,
            estimates: &estimates,
            workload: &wl,
            failure_oracle: &failure,
            params: RunParams::default(),
        });
        // A non-empty mask: the rebuild derives the masked trees every
        // explicit-count build below reads.
        for gone in [5, 40, 77] {
            strategy.absent.insert(topo.node(gone));
        }
        strategy.rebuild_tables();
        let rebuilt = std::mem::take(&mut strategy.tables);

        let jobs: Vec<PairJob> = wl
            .topics()
            .iter()
            .flat_map(|spec| {
                spec.subscriptions
                    .iter()
                    .map(|sub| PairJob::new(spec.topic, spec.publisher, sub))
            })
            .collect();
        assert!(jobs.len() > 200, "only {} pairs", jobs.len());
        strategy.build_pairs_with(jobs.clone(), 1);
        let serial = std::mem::take(&mut strategy.tables);
        assert_eq!(serial.len(), jobs.len());
        assert!(serial.values().any(|t| t.rounds_used() > 10));
        // The derived `PartialEq`: params, requirements, lists, rounds
        // used, convergence flag and version, bit for bit.
        assert!(rebuilt == serial, "the sized path differs from one worker");
        for workers in [2, 3, 7] {
            strategy.build_pairs_with(jobs.clone(), workers);
            let fanned = std::mem::take(&mut strategy.tables);
            assert!(fanned == serial, "{workers} workers differ from one");
        }
    }

    #[test]
    fn tables_are_exposed_after_setup() {
        let topo = line(3, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[2], SimDuration::from_millis(100));
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let rt_config = RuntimeConfig::paper(SimDuration::from_secs(1), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), rt_config);
        let mut strategy = DcrdStrategy::new(DcrdConfig::default());
        let _ = rt.run(&mut strategy);
        let tables = strategy
            .tables_for(TopicId::new(0), topo.node(0), topo.node(2))
            .expect("tables computed in setup");
        assert!(tables.converged());
        assert_eq!(tables.subscriber(), topo.node(2));
        assert!(strategy
            .tables_for(TopicId::new(9), topo.node(0), topo.node(2))
            .is_none());
        assert_eq!(strategy.name(), "DCRD");
    }
}
