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
use dcrd_net::{NodeId, NodeList, NodeSet, Topology};
use dcrd_pubsub::hotstate::{PacketNodeMap, PacketNodeSet};
use dcrd_pubsub::packet::{Packet, PacketId, PacketKind};
use dcrd_pubsub::recovery::SequenceTracker;
use dcrd_pubsub::strategy::{
    ack_timeout, Actions, RoutingStrategy, RunParams, SetupContext, TimerKey,
};
use dcrd_pubsub::topic::TopicId;
use dcrd_pubsub::workload::Workload;
use dcrd_sim::{SimDuration, SimTime};

use crate::config::{DcrdConfig, DurabilityMode, PersistenceMode, RepairMode};
use crate::journal::{InFlightJournal, JournalEntry};
use crate::propagation::{PairJob, SubscriberTables, TableBuilder};

/// Tag space reserved for persistence-retry timers (top bit set).
const PERSIST_TAG_BASE: u64 = 1 << 63;

/// Tag space reserved for journal write-completion timers (below the
/// persistence space, above every sequential send tag).
const JOURNAL_TAG_BASE: u64 = 1 << 62;

/// Simulated latency of a durable custody write
/// ([`DurabilityMode::Durable`]): the broker ACKs and delivers at once
/// (the entry is already journaled) but defers *forwarding* by this much —
/// the price of the fsync before the packet re-enters the sending lists.
pub const JOURNAL_WRITE_COST: SimDuration = SimDuration::from_millis(1);

/// Packet-id space for NACKs, minted by subscribers. The runtime's data
/// packet ids count up from zero, so the spaces never collide.
const NACK_ID_BASE: u64 = 1 << 63;

/// Dedup-window capacity per (publisher, subscriber) stream in durable
/// mode. Sized to cover `publish_rate × max_recovery_latency` sequence
/// numbers.
const DEDUP_WINDOW: usize = 1024;

/// How many times one missing sequence number may be NACKed before the
/// subscriber stops asking: bounds recovery traffic, comfortably under the
/// auditor's per-edge budget.
pub const MAX_NACKS_PER_SEQ: u32 = 50;

/// How long a sequence number must be overdue before it is NACKed (two
/// failure epochs): absorbs path-diversity reordering and in-flight copies
/// so the sweep does not NACK packets that are merely slow.
const NACK_GRACE: SimDuration = SimDuration::from_secs(2);

/// Reroute hysteresis: how many times the upstream hop may exhaust its `m`
/// transmissions for one packet at one broker before that broker stops
/// offering the upstream for it (durably — the verdict survives state
/// resurrection). The upstream link is exempt from the per-destination
/// tried set, so without this damping two brokers at a
/// sustained-unreachability boundary ping-pong a packet until the attempts
/// cap burns out.
const UPSTREAM_RETRY_CAP: u32 = 2;

/// Safety cap on transmissions one broker spends on one packet; beyond it
/// the broker gives up on the remaining destinations. Prevents livelock
/// when the overlay is partitioned for a long time.
const MAX_ATTEMPTS_PER_NODE: u32 = 64;

/// Cap on a packet's routing-path length as a multiple of the overlay
/// size. Per-broker state is deleted on every downstream ACK (the paper's
/// aggressive cleanup), so a packet whose destination is unreachable can
/// otherwise bounce between brokers indefinitely — the path record is the
/// one budget that travels with the packet.
pub const MAX_PATH_FACTOR: usize = 4;

/// Most packets whose [`PacketHistory`] is remembered before the oldest are
/// evicted. The histories only have to outlive the handful of packets
/// still in flight at once; the cap is a safety valve against unbounded
/// growth on very long runs.
const HISTORY_CAP: usize = 4096;

/// ACK-timeout α used if a timeout is computed for a link the strategy
/// has no estimate for (a bug caught by debug assertions; release builds
/// degrade to this conservative paper-regime upper bound instead).
const FALLBACK_ALPHA: SimDuration = SimDuration::from_millis(50);

/// Every subscription's routing tables in one dense array.
///
/// Streams — `(topic, publisher)` pairs, publisher-qualified so one topic
/// may have several publishers (many-to-many pub/sub), each with its own
/// deadline geometry — are numbered from the workload at setup, in
/// first-appearance order. The tables of stream `s` toward subscriber `v`
/// sit at `s × num_nodes + v`, so the forwarding path resolves a packet's
/// stream once and then reaches each destination's tables by index.
#[derive(Debug, Default)]
struct TableStore {
    num_nodes: usize,
    /// Each topic's `(publisher, stream)` pairs, by topic index.
    streams: Vec<Vec<(NodeId, u32)>>,
    tables: Vec<Option<SubscriberTables>>,
}

impl TableStore {
    /// An empty store with one row of `num_nodes` seats per stream of
    /// `workload`.
    fn new(num_nodes: usize, workload: &Workload) -> Self {
        let mut streams: Vec<Vec<(NodeId, u32)>> = Vec::new();
        let mut count = 0;
        for spec in workload.topics() {
            let topic = spec.topic.index();
            if streams.len() <= topic {
                streams.resize_with(topic + 1, Vec::new);
            }
            let Some(row) = streams.get_mut(topic) else {
                continue;
            };
            if row
                .iter()
                .all(|&(publisher, _)| publisher != spec.publisher)
            {
                row.push((spec.publisher, count));
                count += 1;
            }
        }
        let mut tables = Vec::new();
        tables.resize_with(count as usize * num_nodes, || None);
        TableStore {
            num_nodes,
            streams,
            tables,
        }
    }

    /// The stream number of `(topic, publisher)`.
    #[inline]
    fn stream(&self, topic: TopicId, publisher: NodeId) -> Option<u32> {
        self.streams
            .get(topic.index())?
            .iter()
            .find(|&&(p, _)| p == publisher)
            .map(|&(_, stream)| stream)
    }

    /// The seat of `(stream, subscriber)`; `None` for a subscriber outside
    /// the topology, which would otherwise alias the next stream's row.
    #[inline]
    fn seat(&self, stream: u32, subscriber: NodeId) -> Option<usize> {
        (subscriber.index() < self.num_nodes)
            .then(|| stream as usize * self.num_nodes + subscriber.index())
    }

    /// The tables of `stream` toward `subscriber`.
    #[inline]
    fn get(&self, stream: u32, subscriber: NodeId) -> Option<&SubscriberTables> {
        self.tables.get(self.seat(stream, subscriber)?)?.as_ref()
    }

    /// The tables of one subscription.
    fn lookup(
        &self,
        topic: TopicId,
        publisher: NodeId,
        subscriber: NodeId,
    ) -> Option<&SubscriberTables> {
        self.get(self.stream(topic, publisher)?, subscriber)
    }

    /// Removes and returns the tables of the job's subscription, leaving
    /// its seat empty (a build refills their buffers).
    fn take(&mut self, job: &PairJob) -> Option<SubscriberTables> {
        let seat = self
            .stream(job.topic, job.publisher)
            .and_then(|stream| self.seat(stream, job.subscriber))?;
        self.tables.get_mut(seat)?.take()
    }

    /// Installs (or replaces) the tables of the job's subscription.
    fn insert(&mut self, job: &PairJob, tables: SubscriberTables) {
        let seat = self
            .stream(job.topic, job.publisher)
            .and_then(|stream| self.seat(stream, job.subscriber));
        debug_assert!(seat.is_some(), "pair job outside the workload's streams");
        if let Some(slot) = seat.and_then(|i| self.tables.get_mut(i)) {
            *slot = Some(tables);
        }
    }

    /// Drops every table, keeping the stream numbering and the seats.
    fn clear(&mut self) {
        self.tables.iter_mut().for_each(|slot| *slot = None);
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

/// Per-destination neighbors already tried and failed from one broker, as
/// a flat `(destination, tried)` list. It is only ever looked up, inserted
/// into and removed from by destination, so its order is unobservable,
/// and a state exhausts few destinations' next hops: a scan beats a tree
/// whose first insert allocates a node.
#[derive(Debug, Default)]
struct TriedSets(Vec<(NodeId, NodeSet)>);

impl TriedSets {
    fn get(&self, dest: NodeId) -> Option<&NodeSet> {
        self.0.iter().find(|(d, _)| *d == dest).map(|(_, set)| set)
    }

    fn insert(&mut self, dest: NodeId, neighbor: NodeId) {
        match self.0.iter_mut().find(|(d, _)| *d == dest) {
            Some((_, set)) => {
                set.insert(neighbor);
            }
            None => {
                let mut set = NodeSet::new();
                set.insert(neighbor);
                self.0.push((dest, set));
            }
        }
    }

    fn remove(&mut self, dest: NodeId) {
        if let Some(at) = self.0.iter().position(|(d, _)| *d == dest) {
            self.0.swap_remove(at);
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// What one broker remembers of one packet across the incarnations of its
/// [`NodeState`]: an ACK concludes a state, and a persistence retry, a NACK
/// serve, a restart replay or a custody handoff clears the packet's path,
/// so a copy can come back as if new. These budgets bound how often one
/// packet crosses one link while its destinations are out of reach.
#[derive(Debug, Default)]
struct PacketHistory {
    /// Upstream reroutes taken, capped by [`UPSTREAM_RETRY_CAP`]. A bounce
    /// is usually ACKed hop-by-hop, so this counts reroutes, not timeouts.
    upstream_reroutes: u32,
    /// Parks for a persistence retry, capped by `max_retries`.
    parks: u32,
    /// Listed neighbours a send of the packet exhausted its `m`
    /// transmissions into, passed over while they stay silent
    /// ([`DcrdStrategy::written_off`]).
    exhausted: NodeSet,
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
    tried: TriedSets,
    /// Outstanding sends, by tag.
    pending: PendingSends,
    /// Transmissions spent by this broker on this packet.
    attempts: u32,
    /// Destinations parked for a persistence retry.
    parked: NodeList,
}

impl NodeState {
    fn new(packet: Packet, upstream: Option<NodeId>) -> Self {
        NodeState {
            packet,
            upstream,
            done: NodeSet::new(),
            tried: TriedSets::default(),
            pending: PendingSends::default(),
            attempts: 0,
            parked: NodeList::new(),
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
/// assert!(strategy.config().reroute_upstream);
/// ```
#[derive(Debug)]
pub struct DcrdStrategy {
    config: DcrdConfig,
    params: RunParams,
    topology: Option<Topology>,
    estimates: Option<LinkEstimates>,
    workload: Option<Workload>,
    /// Routing tables per subscription `(topic, publisher, subscriber)`.
    tables: TableStore,
    inflight: PacketNodeMap<NodeState>,
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
    /// dedup window plus gap bookkeeping (durable mode only).
    trackers: BTreeMap<(TopicId, NodeId, NodeId), SequenceTracker>,
    /// NACKs already issued per (topic, publisher, subscriber, seq) —
    /// bounds recovery traffic for genuinely unrecoverable gaps.
    nack_counts: BTreeMap<(TopicId, NodeId, NodeId, u64), u32>,
    /// Brokers the membership layer currently believes are gone (confirmed
    /// dead or gracefully departed). Every table computation masks them.
    absent: NodeSet,
    /// Builds every table and keeps what one build can hand to the next,
    /// among it the per-publisher masked shortest-path trees the current
    /// tables were built from. The incremental repair path diffs fresh
    /// trees against these to scope recomputation to affected
    /// subscriptions, and NACKs climb them: a node's predecessor is its
    /// next hop toward the publisher.
    builder: TableBuilder,
    /// Custody entries seized from a dead broker, queued under their new
    /// custodian until that broker's next tick flushes them (handoff).
    pending_handoff: BTreeMap<NodeId, Vec<(PacketId, JournalEntry)>>,
    /// Each broker's [`PacketHistory`] of each packet, by packet. Bounded
    /// by [`HISTORY_CAP`] (oldest packets evicted first).
    history: BTreeMap<PacketId, BTreeMap<NodeId, PacketHistory>>,
    /// Per broker (by index), the neighbours it exhausted a send into and
    /// has not heard from since (no ACK, packet or membership change).
    /// Kept only under durable custody, whose NACK serves, replays and
    /// handoffs resend copies with no budget of their own; a persistence
    /// retry is budgeted by its parks and may need a neighbour that was
    /// only cut off for a while.
    silent: Vec<NodeSet>,
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
    /// The (empty) pending lists and tried sets of concluded states,
    /// handed to the next states opened: a state lives for a few events,
    /// so without reuse every hop would allocate its lists.
    spare_lists: Vec<(PendingSends, TriedSets)>,
    /// Reusable buffers for the per-event fan-out in `process` — the hot
    /// loop borrows these instead of allocating fresh vectors every call.
    scratch: ScratchArena,
}

/// Scratch buffers recycled across [`DcrdStrategy::process`] calls. The
/// fan-out runs once per arrival, ACK timeout and tick; without reuse each
/// call allocates (and immediately frees) three vectors plus a membership
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
    /// Destinations already handled (done ∪ pending ∪ parked), rebuilt
    /// each pass for O(1) skip checks.
    covered: NodeSet,
    /// A NACK's sequence numbers this broker cannot serve, and the copies
    /// it serves. `handle_nack` takes both out for its pass (serving
    /// re-enters `process`) and returns them empty, so `reset` leaves them
    /// alone.
    nack_unresolved: Vec<u64>,
    nack_serve: Vec<(PacketId, Packet)>,
}

impl ScratchArena {
    /// Empties every buffer, keeping capacity for the next pass.
    fn reset(&mut self) {
        self.assignments.clear();
        self.give_ups.clear();
        self.park.clear();
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
            tables: TableStore::default(),
            inflight: PacketNodeMap::new(),
            delivered: PacketNodeSet::new(),
            journal: InFlightJournal::new(),
            trackers: BTreeMap::new(),
            nack_counts: BTreeMap::new(),
            absent: NodeSet::new(),
            builder: TableBuilder::new(),
            pending_handoff: BTreeMap::new(),
            history: BTreeMap::new(),
            silent: Vec::new(),
            global_rebuilds: 0,
            incremental_repairs: 0,
            table_version: 0,
            next_tag: 0,
            next_persist_tag: PERSIST_TAG_BASE,
            next_journal_tag: JOURNAL_TAG_BASE,
            next_nack_id: NACK_ID_BASE,
            spare_lists: Vec::new(),
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
        self.tables.lookup(topic, publisher, subscriber)
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
    /// (durable mode only).
    #[must_use]
    pub fn sequence_tracker(
        &self,
        topic: TopicId,
        publisher: NodeId,
        subscriber: NodeId,
    ) -> Option<&SequenceTracker> {
        self.trackers.get(&(topic, publisher, subscriber))
    }

    /// Whether brokers journal custody before it takes effect and
    /// subscribers recover gaps by NACK.
    fn durable(&self) -> bool {
        self.config.durability == DurabilityMode::Durable
    }

    /// Whether membership deltas repair the tables, hand off the custody of
    /// dead brokers, and repair a removed broker's restart.
    fn repairs(&self) -> bool {
        self.config.repair != RepairMode::None
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

    /// From-scratch table construction: every subscription's fixed point
    /// over freshly computed masked shortest-path trees.
    fn rebuild_tables(&mut self) {
        debug_assert!(
            self.topology.is_some() && self.workload.is_some() && self.estimates.is_some(),
            "rebuild_tables before setup"
        );
        let (Some(topo), Some(workload), Some(estimates)) = (
            self.topology.as_ref(),
            self.workload.as_ref(),
            self.estimates.as_ref(),
        ) else {
            return;
        };
        self.global_rebuilds += 1;
        self.table_version += 1;
        self.builder.forget_trees();
        // Every table is replaced; each job refills the buffers of the
        // table it replaces.
        let jobs: Vec<_> = PairJob::all(workload)
            .into_iter()
            .map(|job| (job, self.tables.take(&job)))
            .collect();
        self.tables.clear();
        let built = self.builder.build(
            topo,
            estimates,
            self.params.m,
            &self.config,
            &self.absent,
            jobs,
        );
        self.install(built);
    }

    /// Incremental membership repair: re-derives each publisher's masked
    /// shortest-path tree once, diffs it against the tree the pass started
    /// from, and recomputes only the subscriptions a delta node can
    /// actually influence — those whose tree changed over live brokers,
    /// whose endpoints are delta nodes, whose deadline ellipse holds a
    /// delta node (a positive requirement in the old table), or whose
    /// publisher can now reach a joined node. Everything else keeps its
    /// tables byte-for-byte. The skip is sound because a broker with
    /// requirement ≤ 0 is pruned from the fixed point (its α-distance bound
    /// to the subscriber is ≥ 0), so it is `UNREACHABLE` in every round,
    /// early and frozen ones included, and masking it changes no input.
    /// Checking only final sending lists is not enough: a removed broker
    /// inside the ellipse can shape early-round or frozen lists, and so the
    /// fixed point, without appearing in any final list.
    fn repair_incremental(&mut self, changed: &[NodeId]) {
        let (Some(topo), Some(workload), Some(estimates)) = (
            self.topology.as_ref(),
            self.workload.as_ref(),
            self.estimates.as_ref(),
        ) else {
            return;
        };
        self.incremental_repairs += 1;
        self.table_version += 1;
        let mut jobs = Vec::with_capacity(workload.num_subscriptions());
        let topics = workload.topics();
        let absent = &self.absent;
        for (first, spec) in topics.iter().enumerate() {
            // A publisher's topics are scanned together, at its first one,
            // so every one of them is diffed against the tree the pass
            // started from rather than the one refreshed for a sibling.
            let publisher = spec.publisher;
            if topics[..first].iter().any(|s| s.publisher == publisher) {
                continue;
            }
            let (tree_changed, join_reaches) =
                self.builder
                    .refresh_tree(topo, publisher, absent, |old, fresh| {
                        // The tree "changed" when any live broker's cost or
                        // parent moved; delta nodes themselves are expected
                        // to move and do not count (their rows are masked,
                        // not routed through).
                        let tree_changed = old.is_none_or(|o| {
                            (0..topo.num_nodes()).any(|i| {
                                let n = topo.node(i);
                                !absent.contains(n)
                                    && (o.cost_to(n) != fresh.cost_to(n)
                                        || o.predecessor(n).map(|(p, _)| p)
                                            != fresh.predecessor(n).map(|(p, _)| p))
                            })
                        });
                        let join_reaches = changed
                            .iter()
                            .any(|&n| !absent.contains(n) && fresh.cost_to(n).is_some());
                        (tree_changed, join_reaches)
                    });
            for spec in topics[first..].iter().filter(|s| s.publisher == publisher) {
                let stream = self.tables.stream(spec.topic, publisher);
                for sub in &spec.subscriptions {
                    let affected = tree_changed
                        || join_reaches
                        || changed.contains(&publisher)
                        || changed.contains(&sub.subscriber)
                        || stream
                            .and_then(|s| self.tables.get(s, sub.subscriber))
                            .is_none_or(|t| changed.iter().any(|&c| t.requirement(c) > 0.0));
                    if affected {
                        jobs.push(PairJob::new(spec.topic, publisher, sub));
                    }
                }
            }
        }
        // Each affected seat's tables move into its job, which refills
        // their buffers.
        let jobs: Vec<_> = jobs
            .into_iter()
            .map(|job| (job, self.tables.take(&job)))
            .collect();
        let built = self.builder.build(
            topo,
            estimates,
            self.params.m,
            &self.config,
            &self.absent,
            jobs,
        );
        self.install(built);
    }

    /// Installs freshly built tables in job order, stamped with the current
    /// table version.
    fn install(&mut self, built: Vec<(PairJob, SubscriberTables)>) {
        for (job, mut tables) in built {
            tables.set_version(self.table_version);
            self.tables.insert(&job, tables);
        }
    }

    /// Updates `node`'s history of packet `id`, evicting the oldest packets
    /// past [`HISTORY_CAP`].
    fn note(&mut self, id: PacketId, node: NodeId, update: impl FnOnce(&mut PacketHistory)) {
        update(self.history.entry(id).or_default().entry(node).or_default());
        while self.history.len() > HISTORY_CAP {
            self.history.pop_first();
        }
    }

    /// `node`'s history of packet `id`, if it has one.
    fn history(&self, id: PacketId, node: NodeId) -> Option<&PacketHistory> {
        self.history.get(&id).and_then(|m| m.get(&node))
    }

    /// An ACK or a packet from `neighbor` reached `node`.
    fn heard_from(&mut self, node: NodeId, neighbor: NodeId) {
        if let Some(silent) = self.silent.get_mut(node.index()) {
            silent.remove(neighbor);
        }
    }

    /// Whether `node` already spent `m` sends of packet `id` on `neighbor`
    /// and has not heard from it since.
    fn written_off(&self, id: PacketId, node: NodeId, neighbor: NodeId) -> bool {
        self.silent
            .get(node.index())
            .is_some_and(|s| s.contains(neighbor))
            && self
                .history(id, node)
                .is_some_and(|h| h.exhausted.contains(neighbor))
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

    /// The copy of custody `entry` that re-enters the sending-list
    /// machinery at `now`: routing path and tag cleared, destinations cut
    /// to those the entry has not settled and that are still inside their
    /// delay budget — the delay-cognizant filter of restart replay and
    /// custody handoff. The list may come back empty.
    fn replay_copy(&self, entry: JournalEntry, now: SimTime) -> Packet {
        let JournalEntry {
            mut packet, done, ..
        } = entry;
        packet.path.clear();
        packet.tag = 0;
        let spec = self.workload.as_ref().and_then(|w| {
            w.topics()
                .iter()
                .find(|s| s.topic == packet.topic && s.publisher == packet.publisher)
        });
        let age = now.saturating_since(packet.published_at);
        let live: NodeList = packet
            .destinations
            .iter()
            .copied()
            .filter(|&dest| {
                !done.contains(dest)
                    && spec
                        .and_then(|s| s.deadline_of(dest))
                        .is_some_and(|dl| age < dl)
            })
            .collect();
        packet.destinations = live;
        packet
    }

    /// Flushes custody entries handed to `node`, re-entering each packet's
    /// unsettled, still-in-budget destinations that are not absent into the
    /// sending-list machinery.
    fn flush_handoffs(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        let Some(entries) = self.pending_handoff.remove(&node) else {
            return;
        };
        for (id, entry) in entries {
            let mut packet = self.replay_copy(entry, now);
            let present: NodeList = packet
                .destinations
                .iter()
                .copied()
                .filter(|&dest| !self.absent.contains(dest))
                .collect();
            if present.is_empty() {
                continue;
            }
            packet.destinations = present;
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
                        state.tried.remove(dest);
                    }
                }
                None => self.open_state(node, packet, None),
            }
            self.process(node, id, now, out);
        }
    }

    /// Applies a batch of membership deltas: updates the absent mask, wipes
    /// the dead brokers' volatile state, and — unless the [`RepairMode`] is
    /// `None` — seizes their custody and repairs the routing tables.
    fn apply_membership(&mut self, deltas: &[MembershipDelta]) {
        let mut changed = NodeList::new();
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
            if let Some(silent) = self.silent.get_mut(dead.index()) {
                silent.clear();
            }
            if self.repairs() {
                self.handoff_custody(dead);
            }
        }
        if changed.is_empty() {
            return;
        }
        // A broker that joined is worth trying again, and one that left
        // drops out of the tables.
        for silent in &mut self.silent {
            for &n in &changed {
                silent.remove(n);
            }
        }
        match self.config.repair {
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

    /// The ACK timeout for a transmission `node → to`: the paper's
    /// `factor × α + slack`, the same for every send on the link.
    fn rto(&self, node: NodeId, to: NodeId) -> SimDuration {
        ack_timeout(self.alpha(node, to), &self.params)
    }

    /// Picks the next hop for `dest` at `node`, honoring the sending list
    /// of the packet's `stream`, the packet's routing path, the
    /// per-destination tried set, the neighbours written off for this
    /// packet, and the upstream fallback. `None` means "give up / park".
    fn choose_next_hop(
        &self,
        node: NodeId,
        state: &NodeState,
        stream: u32,
        dest: NodeId,
    ) -> Option<(NodeId, bool)> {
        let tables = self.tables.get(stream, dest)?;
        let tried = state.tried.get(dest);
        let candidate = tables.sending_list(node).iter().find(|c| {
            c.neighbor != node
                && !state.packet.visited(c.neighbor)
                && !tried.is_some_and(|t| t.contains(c.neighbor))
                && !self.written_off(state.packet.id, node, c.neighbor)
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
        if self
            .history(state.packet.id, node)
            .is_some_and(|h| h.upstream_reroutes >= UPSTREAM_RETRY_CAP)
        {
            return None;
        }
        state.upstream.map(|up| (up, true))
    }

    /// Algorithm 2's main loop: assign every unhandled destination a next
    /// hop, merging destinations that share one. Works in the strategy's
    /// [`ScratchArena`], borrowed in place, so the hot loop stays
    /// allocation-free; the arena is emptied for the next pass however the
    /// pass ends.
    fn process(&mut self, node: NodeId, id: PacketId, now: SimTime, out: &mut Actions) {
        self.process_in_scratch(node, id, now, out);
        self.scratch.reset();
    }

    fn process_in_scratch(&mut self, node: NodeId, id: PacketId, now: SimTime, out: &mut Actions) {
        // Collect assignments first (immutable pass), then mutate.
        let Some(state) = self.inflight.get(&(id, node)) else {
            return;
        };
        let Some(num_nodes) = self.topology.as_ref().map(Topology::num_nodes) else {
            return;
        };
        let path_budget = MAX_PATH_FACTOR * num_nodes;
        let over_cap =
            state.attempts >= MAX_ATTEMPTS_PER_NODE || state.packet.path.len() >= path_budget;
        // Every destination of the packet shares its stream's tables row.
        let stream = self
            .tables
            .stream(state.packet.topic, state.packet.publisher);
        let scratch = &mut self.scratch;

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
            if self.scratch.covered.contains(dest) {
                continue;
            }
            // Park instead of giving up when the persistence extension has
            // retries left — both for an exhausted publisher and for any
            // broker that burned through its attempts cap.
            let can_park = matches!(
                self.config.persistence,
                PersistenceMode::Retry { max_retries, .. }
                    if self.history(id, node).map_or(0, |h| h.parks) < max_retries
            );
            let hop = if over_cap {
                None
            } else {
                stream.and_then(|s| self.choose_next_hop(node, state, s, dest))
            };
            let scratch = &mut self.scratch;
            match hop {
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
                None if can_park => scratch.park.push(dest),
                None => scratch.give_ups.push(dest),
            }
        }

        // Mutate phase: arm one send per assignment. The timeout needs
        // `&self` while the state is borrowed mutably, so it is computed
        // before re-borrowing the state. The destination lists move out of
        // the scratch into the forwarded packets (they live on as
        // `packet.destinations`).
        for slot in 0..self.scratch.assignments.len() {
            let Some(entry) = self.scratch.assignments.get_mut(slot) else {
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
                self.note(id, node, |h| h.upstream_reroutes += 1);
            }
            let Some(state) = self.inflight.get_mut(&(id, node)) else {
                return;
            };
            let forwarded = state.packet.forward(node, dests, tag);
            state.attempts += 1;
            out.send(hop, forwarded.clone());
            out.set_timer(now + timeout, TimerKey { packet: id, tag });
            state.pending.push(
                tag,
                Pending {
                    to: hop,
                    packet: forwarded,
                    sends: 1,
                    is_upstream,
                },
            );
        }
        if !self.scratch.park.is_empty() {
            self.note(id, node, |h| h.parks += 1);
        }
        let Some(state) = self.inflight.get_mut(&(id, node)) else {
            return;
        };
        for dest in self.scratch.give_ups.drain(..) {
            state.done.insert(dest);
            self.journal.note_done(node, id, dest);
            out.give_up(id, dest);
        }
        if !self.scratch.park.is_empty() {
            state.parked.extend_from_slice(&self.scratch.park);
            self.scratch.park.clear();
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
        let NodeState {
            pending, mut tried, ..
        } = state;
        tried.clear();
        self.spare_lists.push((pending, tried));
    }

    /// Opens the per-packet forwarding state of broker `node`, replacing
    /// any state it already holds for the packet.
    fn open_state(&mut self, node: NodeId, packet: Packet, upstream: Option<NodeId>) {
        let mut state = NodeState::new(packet, upstream);
        if let Some((pending, tried)) = self.spare_lists.pop() {
            state.pending = pending;
            state.tried = tried;
        }
        self.inflight.insert((state.packet.id, node), state);
    }

    /// Journals `holder`'s custody of `packet` before it takes effect (the
    /// write-ahead discipline) and defers the forwarding work by
    /// [`JOURNAL_WRITE_COST`] via a timer in the journal tag space. No-op
    /// when volatile.
    fn take_custody(
        &mut self,
        node: NodeId,
        packet: &Packet,
        upstream: Option<NodeId>,
        now: SimTime,
        out: &mut Actions,
    ) {
        if !self.durable() {
            return;
        }
        self.journal.record(node, packet, upstream);
        let tag = self.next_journal_tag;
        self.next_journal_tag += 1;
        out.set_timer(
            now + JOURNAL_WRITE_COST,
            TimerKey {
                packet: packet.id,
                tag,
            },
        );
    }

    /// Handles local delivery (at most once per `(message, subscriber)`
    /// pair — duplicate copies born from lost ACKs or crash recovery are
    /// absorbed here) and strips this node from the destinations still
    /// needing routing.
    ///
    /// In durable mode the per-stream [`SequenceTracker`] sits in front:
    /// its bounded dedup window replaces the silent drop with an explicit
    /// [`Suppress`](dcrd_pubsub::strategy::Action::Suppress), so the
    /// auditor can tell benign replay duplicates from protocol bugs.
    fn deliver_locally(&mut self, node: NodeId, packet: &mut Packet, out: &mut Actions) {
        if let Some(pos) = packet.destinations.iter().position(|&d| d == node) {
            let fresh_id = self.delivered.insert((packet.id, node));
            if self.durable() {
                let tracker = self
                    .trackers
                    .entry((packet.topic, packet.publisher, node))
                    .or_insert_with(|| SequenceTracker::new(DEDUP_WINDOW));
                let fresh_seq = tracker.observe(packet.seq);
                if fresh_id && fresh_seq {
                    out.deliver(packet.id);
                } else {
                    out.suppress(packet.id);
                }
            } else if fresh_id {
                out.deliver(packet.id);
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
        let path = &packet.path;
        let first = path.iter().position(|&n| n == node);
        let last = path
            .iter()
            .rev()
            .position(|&n| n == node)
            .map(|back| path.len() - 1 - back);
        let before = |i: usize| i.checked_sub(1).and_then(|j| path.get(j));
        let candidates = [first.and_then(before), last.and_then(before), Some(from)];
        candidates
            .into_iter()
            .flatten()
            .find(|&c| self.is_neighbor(node, c))
    }

    /// Whether `c` is another broker linked to `node`: the only kind of
    /// broker an upstream hop can be. A wire packet may claim any sender.
    fn is_neighbor(&self, node: NodeId, c: NodeId) -> bool {
        c != node
            && self
                .topology
                .as_ref()
                .is_some_and(|topo| topo.edge_between(node, c).is_some())
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
        // Borrowed out of the arena for the pass: serving re-enters
        // `process`, which works in the arena too.
        let mut unresolved = std::mem::take(&mut self.scratch.nack_unresolved);
        let mut serve = std::mem::take(&mut self.scratch.nack_serve);
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
                        || entry.done.contains(subscriber) =>
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
        for (id, copy) in serve.drain(..) {
            self.journal.note_undone(node, id, subscriber);
            match self.inflight.get_mut(&(id, node)) {
                Some(state) => {
                    if !state.packet.destinations.contains(&subscriber) {
                        state.packet.destinations.push(subscriber);
                    }
                    state.done.remove(subscriber);
                    state.tried.remove(subscriber);
                    state.parked.retain(|d| d != subscriber);
                    // Re-open the send budget: a state worn down by earlier
                    // speculative retries would otherwise give up on the
                    // spot, wedging this pair forever. Demand-driven repair
                    // is bounded by the NACK-per-seq budget instead.
                    state.attempts = 0;
                }
                None => self.open_state(node, copy, None),
            }
            self.process(node, id, now, out);
        }
        if !unresolved.is_empty() && node != packet.publisher {
            // NACKs climb the publisher's shortest-delay tree: a node's
            // predecessor is its next hop toward the root.
            let climb = self
                .builder
                .tree(packet.publisher)
                .and_then(|tree| tree.predecessor(node));
            if let Some((hop, _)) = climb {
                let mut fwd = packet.forward(node, NodeList::from_slice(&[packet.publisher]), 0);
                // Nothing served here: the relay asks for exactly what it
                // was asked, so it keeps sharing the body it arrived with.
                if unresolved.len() < missing.len() {
                    fwd = fwd.with_kind(PacketKind::Nack {
                        subscriber,
                        missing: unresolved.clone(),
                    });
                }
                out.send(hop, fwd);
            }
        }
        unresolved.clear();
        self.scratch.nack_unresolved = unresolved;
        self.scratch.nack_serve = serve;
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
        self.tables = TableStore::new(ctx.topology.num_nodes(), ctx.workload);
        if self.durable() {
            self.silent = vec![NodeSet::new(); ctx.topology.num_nodes()];
        }
        self.builder.estimates_changed();
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
        self.take_custody(node, &packet, None, now, out);
        self.open_state(node, packet, None);
        // Durable custody defers the forwarding to the journal timer.
        if !self.durable() {
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
        self.heard_from(node, from);
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
                    self.journal.record(node, &state.packet, state.upstream);
                }
            }
            None => {
                // The upstream is only meaningful when the packet came from
                // a broker that has NOT seen it bounce through us before —
                // a returning packet (we are on its path) must not be sent
                // back to the downstream neighbor that returned it. A
                // claimed sender that is no neighbor is no upstream either.
                let upstream = if packet.visited(node) {
                    self.derive_upstream(node, &packet, from)
                } else {
                    Some(from).filter(|&f| self.is_neighbor(node, f))
                };
                self.take_custody(node, &packet, upstream, now, out);
                self.open_state(node, packet, upstream);
                deferred = durable;
            }
        }
        if !deferred {
            self.process(node, id, now, out);
        }
    }

    fn on_ack(
        &mut self,
        node: NodeId,
        to: NodeId,
        packet: &Packet,
        _now: SimTime,
        out: &mut Actions,
    ) {
        let _ = out;
        self.heard_from(node, to);
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
                for &dest in &parked {
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
            // Retransmit on the same link (Eq. 1's m) under the same
            // timer as the first send.
            p.sends += 1;
            state.attempts += 1;
            let to = p.to;
            out.send(to, p.packet.clone());
            out.set_timer(now + self.rto(node, to), key);
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
            for &dest in &p.packet.destinations {
                state.tried.insert(dest, p.to);
            }
            if let Some(silent) = self.silent.get_mut(node.index()) {
                silent.insert(p.to);
                self.note(id, node, |h| _ = h.exhausted.insert(p.to));
            }
        }
        self.process(node, id, now, out);
    }

    fn on_monitor(&mut self, estimates: &LinkEstimates, _now: SimTime) {
        self.estimates = Some(estimates.clone());
        self.builder.estimates_changed();
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
        // Under a repair mode, a broker the membership layer had written
        // off rejoins through the same repair path a detector-observed join
        // takes, instead of waiting for the next probe round. A broker that
        // was never masked repairs nothing, so crash-restart recovery is
        // untouched.
        if self.repairs() && self.absent.contains(node) {
            self.apply_membership(&[MembershipDelta::Join { node }]);
        }
        // A crash wipes the broker's volatile state: its in-flight
        // per-packet forwarding state and which neighbours were silent.
        // Stale timers for the dropped state fire into the void (on_timer
        // finds nothing and returns). The subscriber delivery log
        // (`delivered`) and the routing tables are durable and survive.
        self.inflight.retain(|holder, _| holder != node);
        if let Some(silent) = self.silent.get_mut(node.index()) {
            silent.clear();
        }
        if !self.durable() {
            return;
        }
        // Replay the surviving custody entries, delay-cognizantly: only
        // destinations that are unsettled AND still inside their delay
        // budget re-enter the sending-list machinery. Expired destinations
        // are not replayed — completeness for them is the NACK path's job,
        // which serves from the (kept) journal entry regardless of budget.
        for (id, entry) in self.journal.replay_for(node) {
            let upstream = entry.upstream;
            let packet = self.replay_copy(entry, now);
            if packet.destinations.is_empty() {
                continue;
            }
            self.open_state(node, packet, upstream);
            self.process(node, id, now, out);
        }
    }

    fn on_tick(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        self.flush_handoffs(node, now, out);
        if !self.durable() {
            return;
        }
        // A borrow of one field: the loop below writes only other fields
        // (trackers, NACK counts, the id counter).
        let Some(workload) = self.workload.as_ref() else {
            return;
        };
        let horizon = self.params.horizon;
        for spec in workload.topics() {
            if spec.publisher == node || !spec.subscriptions.iter().any(|s| s.subscriber == node) {
                continue;
            }
            let tracker = self
                .trackers
                .entry((spec.topic, spec.publisher, node))
                .or_insert_with(|| SequenceTracker::new(DEDUP_WINDOW));
            // The newest sequence number that was actually published
            // (inside the horizon) and has been overdue for at least the
            // grace period — everything below it should have arrived.
            let mut expected_hi: Option<u64> = None;
            let mut k = tracker.low();
            loop {
                let t = spec.publish_time(k);
                if t > now
                    || t.saturating_since(SimTime::ZERO) > horizon
                    || now.saturating_since(t) < NACK_GRACE
                {
                    break;
                }
                expected_hi = Some(k);
                k += 1;
            }
            let Some(hi) = expected_hi else {
                continue;
            };
            // The gaps go through the NACK budget straight into the one
            // list the NACK carries.
            let mut wanted: Vec<u64> = Vec::new();
            for seq in tracker.missing_through(hi) {
                let sent = self
                    .nack_counts
                    .entry((spec.topic, spec.publisher, node, seq))
                    .or_insert(0);
                if *sent < MAX_NACKS_PER_SEQ {
                    *sent += 1;
                    wanted.push(seq);
                }
            }
            if wanted.is_empty() {
                continue;
            }
            let climb = self
                .builder
                .tree(spec.publisher)
                .and_then(|tree| tree.predecessor(node));
            let Some((hop, _)) = climb else {
                continue;
            };
            // Fresh id per sweep: the NACK is fire-and-forget (no ACK
            // timer guards it), so a lost one is simply re-minted — and
            // re-used ids would trip the auditor's edge-budget check.
            let id = PacketId::new(self.next_nack_id);
            self.next_nack_id += 1;
            let nack = Packet::nack(id, spec.topic, spec.publisher, now, node, wanted);
            out.send(
                hop,
                nack.forward(node, NodeList::from_slice(&[spec.publisher]), 0),
            );
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
        let mut s = DcrdStrategy::new(DcrdConfig::default());
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
        s.delivered.insert((PacketId::new(1), crashed));
        let mut out = Actions::new();
        s.on_restart(crashed, SimTime::from_secs(3), &mut out);
        assert_eq!(
            s.inflight_states(),
            1,
            "only the crashed broker's state goes"
        );
        assert!(s.inflight.contains_key(&(PacketId::new(2), healthy)));
        assert!(
            s.delivered.contains(&(PacketId::new(1), crashed)),
            "the subscriber delivery log is durable across restarts"
        );
        assert!(out.is_empty());
    }

    /// What a from-scratch build of `jobs` against `strategy`'s current
    /// mask and estimates gives, stamped with its current table version.
    fn build_now(strategy: &DcrdStrategy, jobs: Vec<PairJob>) -> Vec<(PairJob, SubscriberTables)> {
        let (Some(topo), Some(estimates)) = (&strategy.topology, &strategy.estimates) else {
            panic!("build_now before setup");
        };
        let mut built = crate::propagation::compute_tables(
            topo,
            estimates,
            strategy.params.m,
            &strategy.config,
            &strategy.absent,
            jobs,
        );
        for (_, tables) in &mut built {
            tables.set_version(strategy.table_version);
        }
        built
    }

    /// The dense store holds exactly what a `BTreeMap` keyed by
    /// `(topic, publisher, subscriber)` would hold for the same pair jobs —
    /// with two publishers on one topic (two streams whose subscribers
    /// overlap), and again after an incremental repair under a non-empty
    /// absent mask, which replaces some tables and keeps the rest.
    #[test]
    fn dense_store_matches_a_map_of_the_same_pair_jobs() {
        use dcrd_net::estimate::analytic_estimates;
        use dcrd_net::topology::random_connected;

        let mut rng = rng_for(29, "table-store");
        let topo = random_connected(40, 5, DelayRange::PAPER, &mut rng);
        // Deadlines 20 % above the shortest delay keep the sending lists
        // short, so one broker's departure touches some tables only.
        let subs = |publisher: usize, ids: &[usize]| -> Vec<Subscription> {
            let tree = dcrd_net::paths::dijkstra(
                &topo,
                topo.node(publisher),
                dcrd_net::paths::Metric::Delay,
            );
            ids.iter()
                .map(|&i| {
                    let us = tree.cost_to(topo.node(i)).expect("connected");
                    Subscription::new(topo.node(i), SimDuration::from_micros(us * 6 / 5))
                })
                .collect()
        };
        let spec = |topic: u32, publisher: usize, subscriptions: Vec<Subscription>| TopicSpec {
            topic: TopicId::new(topic),
            publisher: topo.node(publisher),
            interval: SimDuration::from_secs(1),
            offset: SimDuration::ZERO,
            subscriptions,
            burst: None,
        };
        let shared = [3, 9, 17, 22, 30, 35];
        let wl = Workload::from_topics(vec![
            spec(0, 1, subs(1, &shared)),
            spec(2, 5, subs(5, &[2, 9, 26, 39])),
            spec(0, 38, subs(38, &shared)),
        ]);
        let estimates = analytic_estimates(&topo, 0.05, 0.01);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let set_up = || {
            let mut strategy = DcrdStrategy::new(DcrdConfig {
                repair: RepairMode::Incremental,
                ..DcrdConfig::default()
            });
            strategy.setup(&SetupContext {
                topology: &topo,
                estimates: &estimates,
                workload: &wl,
                failure_oracle: &failure,
                params: RunParams::default(),
            });
            strategy
        };
        let mut strategy = set_up();

        let jobs = PairJob::all(&wl);
        let mut reference: BTreeMap<(TopicId, NodeId, NodeId), SubscriberTables> =
            build_now(&strategy, jobs.clone())
                .into_iter()
                .map(|(job, t)| ((job.topic, job.publisher, job.subscriber), t))
                .collect();
        assert_eq!(reference.len(), jobs.len());
        let store_matches =
            |strategy: &DcrdStrategy,
             reference: &BTreeMap<(TopicId, NodeId, NodeId), SubscriberTables>| {
                for (&(topic, publisher, subscriber), tables) in reference {
                    let held = strategy.tables_for(topic, publisher, subscriber);
                    assert!(held == Some(tables), "{topic:?} {publisher} → {subscriber}");
                }
                let seated = strategy.tables.tables.iter().flatten().count();
                assert_eq!(seated, reference.len(), "the store holds extra tables");
            };
        store_matches(&strategy, &reference);
        // The two publishers of topic 0 are two streams, not one.
        let (a, b) = (topo.node(1), topo.node(38));
        assert_ne!(
            strategy.tables.stream(TopicId::new(0), a),
            strategy.tables.stream(TopicId::new(0), b)
        );
        assert!(shared.iter().all(|&v| {
            let v = topo.node(v);
            strategy.tables_for(TopicId::new(0), a, v) != strategy.tables_for(TopicId::new(0), b, v)
        }));
        assert!(strategy
            .tables_for(TopicId::new(1), a, topo.node(3))
            .is_none());
        assert!(strategy
            .tables_for(TopicId::new(0), topo.node(2), topo.node(3))
            .is_none());

        // A broker leaves whose departure changes some tables and not
        // others: the repair recomputes the pairs it can influence and
        // keeps every other table as it was.
        let before = strategy.table_version();
        let splits_the_repair = |n: NodeId| {
            let mut trial = set_up();
            trial.apply_membership(&[MembershipDelta::Leave { node: n }]);
            let kept = jobs.iter().filter(|j| {
                trial
                    .tables_for(j.topic, j.publisher, j.subscriber)
                    .is_some_and(|t| t.version() == before)
            });
            (1..jobs.len()).contains(&kept.count())
        };
        let gone = (0..topo.num_nodes())
            .map(|i| topo.node(i))
            .filter(|&n| !jobs.iter().any(|j| j.publisher == n || j.subscriber == n))
            .find(|&n| splits_the_repair(n))
            .expect("a broker whose departure repairs some pairs and not others");
        strategy.apply_membership(&[MembershipDelta::Leave { node: gone }]);
        assert_eq!(strategy.absent_brokers().len(), 1);
        assert_eq!(strategy.table_version(), before + 1);
        let (mut repaired, mut kept) = (0, 0);
        for job in &jobs {
            let key = (job.topic, job.publisher, job.subscriber);
            let Some(held) = strategy.tables_for(key.0, key.1, key.2) else {
                panic!("{key:?} lost its tables in the repair");
            };
            if held.version() == before {
                kept += 1;
            } else {
                repaired += 1;
                let fresh = build_now(&strategy, vec![*job]);
                reference.insert(key, fresh.into_iter().next().expect("one pair").1);
            }
        }
        assert!(repaired > 0 && kept > 0, "{repaired} repaired, {kept} kept");
        store_matches(&strategy, &reference);
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
