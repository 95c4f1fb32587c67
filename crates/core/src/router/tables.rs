//! The control plane: the run's environment, the absent mask, and every
//! subscription's routing tables.

use std::borrow::Cow;

use dcrd_net::estimate::LinkEstimates;
use dcrd_net::membership::MembershipDelta;
use dcrd_net::{NodeId, NodeList, NodeSet, Topology};
use dcrd_pubsub::strategy::{RunParams, SetupContext};
use dcrd_pubsub::topic::TopicId;
use dcrd_pubsub::workload::Workload;
use dcrd_sim::SimDuration;

use crate::config::{DcrdConfig, RepairMode};
use crate::propagation::{PairJob, SubscriberTables, TableBuilder};

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
///
/// A seat is *stale* from the pass that invalidates it until the first
/// read settles it ([`Tables::settled`]): its tables are then primed for
/// that pass — endpoints, requirements and version current — and the rest
/// of their buffers wait to be refilled.
#[derive(Debug, Default)]
pub(super) struct TableStore {
    num_nodes: usize,
    /// Each topic's `(publisher, stream)` pairs, by topic index.
    streams: Vec<Vec<(NodeId, u32)>>,
    pub(super) seats: Vec<Seat>,
}

/// One `(stream, subscriber)` seat of a [`TableStore`].
#[derive(Debug, Default)]
pub(super) struct Seat {
    /// The subscription's tables; `None` for a seat no subscription fills.
    pub(super) tables: Option<SubscriberTables>,
    /// Whether a pass invalidated the tables and no read settled them yet.
    stale: bool,
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
        let mut seats = Vec::new();
        seats.resize_with(count as usize * num_nodes, Seat::default);
        TableStore {
            num_nodes,
            streams,
            seats,
        }
    }

    /// The stream number of `(topic, publisher)`.
    #[inline]
    pub(super) fn stream(&self, topic: TopicId, publisher: NodeId) -> Option<u32> {
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

    /// The tables held at `(stream, subscriber)`, settled or not: only
    /// their endpoints, requirements and version are sure to be current.
    fn primed(&self, stream: u32, subscriber: NodeId) -> Option<&SubscriberTables> {
        self.seats
            .get(self.seat(stream, subscriber)?)?
            .tables
            .as_ref()
    }

    /// Installs (or replaces) the settled tables of the job's subscription.
    fn insert(&mut self, job: &PairJob, tables: SubscriberTables) {
        let seat = self
            .stream(job.topic, job.publisher)
            .and_then(|stream| self.seat(stream, job.subscriber));
        debug_assert!(seat.is_some(), "pair job outside the workload's streams");
        if let Some(slot) = seat.and_then(|at| self.seats.get_mut(at)) {
            *slot = Seat {
                tables: Some(tables),
                stale: false,
            };
        }
    }

    /// Invalidates the job's seat for the pass stamped `version`: primes
    /// its tables over `builder`'s current tree of the publisher, keeping
    /// their buffers for the settle, and marks the seat stale.
    fn invalidate(
        &mut self,
        builder: &mut TableBuilder,
        topo: &Topology,
        absent: &NodeSet,
        job: &PairJob,
        version: u64,
    ) {
        let seat = self
            .stream(job.topic, job.publisher)
            .and_then(|stream| self.seat(stream, job.subscriber));
        let Some(Seat {
            tables: Some(tables),
            stale,
        }) = seat.and_then(|at| self.seats.get_mut(at))
        else {
            debug_assert!(false, "pair job without a seated table");
            return;
        };
        builder.prime(topo, job, absent, tables);
        tables.set_version(version);
        *stale = true;
    }
}

/// Settles a stale seat in place. Kept out of line: most reads find their
/// seat settled, and the forwarding path stays as small as it was.
#[cold]
#[inline(never)]
fn settle_seat(builder: &mut TableBuilder, config: &DcrdConfig, seat: &mut Seat) {
    if let Some(tables) = seat.tables.as_mut() {
        builder.settle(config, tables);
    }
    seat.stale = false;
}

/// The control plane both router layers read: what `setup` hands the
/// strategy, the tables built over it, and the brokers masked out of them.
#[derive(Debug, Default)]
pub(super) struct Tables {
    pub(super) config: DcrdConfig,
    pub(super) params: RunParams,
    pub(super) topology: Option<Topology>,
    pub(super) estimates: Option<LinkEstimates>,
    pub(super) workload: Option<Workload>,
    /// Routing tables per subscription `(topic, publisher, subscriber)`.
    pub(super) store: TableStore,
    /// Brokers the membership layer currently believes are gone (confirmed
    /// dead or gracefully departed). Every table computation masks them.
    pub(super) absent: NodeSet,
    /// Builds every table and keeps what one build can hand to the next,
    /// among it the per-publisher masked shortest-path trees the current
    /// tables were primed from. The incremental repair path diffs fresh
    /// trees against these to scope invalidation to affected
    /// subscriptions, and NACKs climb them: a node's predecessor is its
    /// next hop toward the publisher.
    pub(super) builder: TableBuilder,
    /// From-scratch `rebuild_tables` passes taken after setup. The initial
    /// construction in `setup` is not counted — it is table construction,
    /// not a repair — so a run that heals purely through incremental
    /// repair and gossip reports zero.
    pub(super) global_rebuilds: u64,
    /// Incremental membership-repair passes taken instead of a rebuild.
    pub(super) incremental_repairs: u64,
    /// Monotone control-plane version stamped onto every invalidated
    /// [`SubscriberTables`] entry: bumped once per rebuild or repair pass.
    pub(super) table_version: u64,
    /// Stale seats settled by a read since setup.
    pub(super) table_builds: u64,
    /// Kernel node-steps of every table built: setup's batch and each
    /// settle ([`SubscriberTables::node_steps`]).
    pub(super) table_node_steps: u64,
}

impl Tables {
    /// Takes the run's environment and builds every table: one batch,
    /// fanned out over the host's cores.
    pub(super) fn setup(&mut self, ctx: &SetupContext<'_>) {
        self.params = ctx.params;
        self.topology = Some(ctx.topology.clone());
        self.workload = Some(ctx.workload.clone());
        self.estimates = Some(ctx.estimates.clone());
        self.store = TableStore::new(ctx.topology.num_nodes(), ctx.workload);
        self.builder.estimates_changed();
        self.builder.forget_trees();
        // Setup is table *construction*, not a repair: the rebuild counter
        // only measures from-scratch passes the control plane fell back to
        // after the run started.
        self.global_rebuilds = 0;
        self.table_version += 1;
        let built = self.builder.build(
            ctx.topology,
            ctx.estimates,
            self.params.m,
            &self.config,
            &self.absent,
            PairJob::all(ctx.workload),
        );
        for (job, mut tables) in built {
            self.table_node_steps += tables.node_steps();
            tables.set_version(self.table_version);
            self.store.insert(&job, tables);
        }
    }

    /// Invalidates every table over fresh link estimates.
    pub(super) fn on_monitor(&mut self, estimates: &LinkEstimates) {
        self.estimates = Some(estimates.clone());
        self.builder.estimates_changed();
        self.rebuild_tables();
    }

    /// From-scratch invalidation: refreshes every publisher's masked
    /// shortest-path tree and marks every table stale, to be settled at its
    /// next read.
    pub(super) fn rebuild_tables(&mut self) {
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
        self.builder
            .prepare(topo, estimates, self.params.m, &self.absent);
        self.builder.forget_trees();
        for spec in workload.topics() {
            for sub in &spec.subscriptions {
                let job = PairJob::new(spec.topic, spec.publisher, sub);
                let version = self.table_version;
                self.store
                    .invalidate(&mut self.builder, topo, &self.absent, &job, version);
            }
        }
    }

    /// Incremental membership repair: re-derives each publisher's masked
    /// shortest-path tree once, diffs it against the tree the pass started
    /// from, and invalidates only the subscriptions a delta node can
    /// actually influence — those whose tree changed over live brokers,
    /// whose endpoints are delta nodes, whose deadline ellipse holds a
    /// delta node (a positive requirement in the old table), or whose
    /// publisher can now reach a joined node. Everything else keeps its
    /// tables byte-for-byte, settled or not. The skip is sound because a
    /// broker with requirement ≤ 0 is pruned from the fixed point (its
    /// α-distance bound to the subscriber is ≥ 0), so it is `UNREACHABLE`
    /// in every round, early and frozen ones included, and masking it
    /// changes no input. Checking only final sending lists is not enough: a
    /// removed broker inside the ellipse can shape early-round or frozen
    /// lists, and so the fixed point, without appearing in any final list.
    ///
    /// The same soundness lets an invalidated table wait: a pass that
    /// skips it leaves every input of its fixed point where the pass that
    /// primed it left them, so settling it later gives what settling it
    /// then would have.
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
        let version = self.table_version;
        let absent = &self.absent;
        self.builder.prepare(topo, estimates, self.params.m, absent);
        let topics = workload.topics();
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
                let stream = self.store.stream(spec.topic, publisher);
                for sub in &spec.subscriptions {
                    let affected = tree_changed
                        || join_reaches
                        || changed.contains(&publisher)
                        || changed.contains(&sub.subscriber)
                        || stream
                            .and_then(|s| self.store.primed(s, sub.subscriber))
                            .is_none_or(|t| changed.iter().any(|&c| t.requirement(c) > 0.0));
                    if affected {
                        let job = PairJob::new(spec.topic, publisher, sub);
                        self.store
                            .invalidate(&mut self.builder, topo, absent, &job, version);
                    }
                }
            }
        }
    }

    /// The tables of `stream` toward `subscriber`, settled first if a pass
    /// left them stale: the one way routing reads a seat.
    #[inline]
    pub(super) fn settled(&mut self, stream: u32, subscriber: NodeId) -> Option<&SubscriberTables> {
        let at = self.store.seat(stream, subscriber)?;
        let seat = self.store.seats.get_mut(at)?;
        if seat.stale {
            settle_seat(&mut self.builder, &self.config, seat);
            self.table_builds += 1;
            self.table_node_steps += seat.tables.as_ref().map_or(0, SubscriberTables::node_steps);
        }
        seat.tables.as_ref()
    }

    /// What [`settled`](Self::settled) would return, leaving a stale seat
    /// stale: its tables settled into a copy.
    pub(super) fn view(
        &self,
        stream: u32,
        subscriber: NodeId,
    ) -> Option<Cow<'_, SubscriberTables>> {
        let seat = self.store.seats.get(self.store.seat(stream, subscriber)?)?;
        let tables = seat.tables.as_ref()?;
        Some(if seat.stale {
            Cow::Owned(self.builder.settled(&self.config, tables))
        } else {
            Cow::Borrowed(tables)
        })
    }

    /// Applies a batch of membership deltas to the absent mask, repairs the
    /// tables as the [`RepairMode`] says, and returns the brokers whose
    /// presence changed.
    pub(super) fn apply(&mut self, deltas: &[MembershipDelta]) -> NodeList {
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
        match self.config.repair {
            RepairMode::GlobalRebuild if !changed.is_empty() => self.rebuild_tables(),
            RepairMode::Incremental if !changed.is_empty() => self.repair_incremental(&changed),
            _ => {}
        }
        changed
    }

    /// The estimated one-transmission delay α of the link `a`–`b`.
    pub(super) fn alpha(&self, a: NodeId, b: NodeId) -> SimDuration {
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

    /// Whether `c` is another broker linked to `node`: the only kind of
    /// broker an upstream hop can be. A wire packet may claim any sender.
    pub(super) fn is_neighbor(&self, node: NodeId, c: NodeId) -> bool {
        c != node
            && self
                .topology
                .as_ref()
                .is_some_and(|topo| topo.edge_between(node, c).is_some())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use dcrd_net::failure::{FailureModel, LinkFailureModel};
    use dcrd_net::topology::DelayRange;
    use dcrd_pubsub::strategy::RoutingStrategy;
    use dcrd_pubsub::topic::Subscription;
    use dcrd_pubsub::workload::TopicSpec;
    use dcrd_sim::rng::rng_for;

    use super::*;
    use crate::router::DcrdStrategy;

    /// What a from-scratch build of `jobs` against `strategy`'s current
    /// mask and estimates gives, stamped with its current table version.
    fn build_now(strategy: &DcrdStrategy, jobs: Vec<PairJob>) -> Vec<(PairJob, SubscriberTables)> {
        let (Some(topo), Some(estimates)) = (&strategy.tables.topology, &strategy.tables.estimates)
        else {
            panic!("build_now before setup");
        };
        let mut built = crate::propagation::compute_tables(
            topo,
            estimates,
            strategy.tables.params.m,
            &strategy.tables.config,
            &strategy.tables.absent,
            jobs,
        );
        for (_, tables) in &mut built {
            tables.set_version(strategy.table_version());
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
                    assert!(
                        held.as_deref() == Some(tables),
                        "{topic:?} {publisher} → {subscriber}"
                    );
                }
                let seated = strategy
                    .tables
                    .store
                    .seats
                    .iter()
                    .filter(|seat| seat.tables.is_some())
                    .count();
                assert_eq!(seated, reference.len(), "the store holds extra tables");
            };
        store_matches(&strategy, &reference);
        // The two publishers of topic 0 are two streams, not one.
        let (a, b) = (topo.node(1), topo.node(38));
        assert_ne!(
            strategy.tables.store.stream(TopicId::new(0), a),
            strategy.tables.store.stream(TopicId::new(0), b)
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

    /// Settling a table at its first read gives what settling every
    /// invalidated table at the end of its pass gives. Seeded scripts of
    /// one to three leaves and joins a pass, publishers included, run under
    /// incremental repair and under global rebuild, with fresh link
    /// estimates midway. A lazy strategy reads a seeded third of its seats
    /// after each pass; the reference settles every stale seat. After
    /// every pass each seat of the two is `==`, version included — the
    /// lazy side's unread seats compared through the copy `tables_for`
    /// settles, its read ones in place.
    #[test]
    fn lazy_tables_match_settling_every_pass() {
        use dcrd_net::estimate::analytic_estimates;
        use dcrd_net::topology::random_connected;
        use dcrd_pubsub::workload::WorkloadConfig;

        let mut rng = rng_for(47, "lazy-tables");
        let topo = random_connected(24, 4, DelayRange::PAPER, &mut rng);
        let wl = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
        let estimates = analytic_estimates(&topo, 0.05, 0.01);
        let drifted = analytic_estimates(&topo, 0.08, 0.02);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let set_up = |repair: RepairMode| {
            let mut strategy = DcrdStrategy::new(DcrdConfig {
                repair,
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
        let seats: Vec<(u32, NodeId)> = {
            let strategy = set_up(RepairMode::Incremental);
            wl.topics()
                .iter()
                .flat_map(|t| {
                    let stream = strategy.tables.store.stream(t.topic, t.publisher);
                    t.subscriptions
                        .iter()
                        .map(move |s| (stream.expect("a stream"), s.subscriber))
                })
                .collect()
        };
        for repair in [RepairMode::Incremental, RepairMode::GlobalRebuild] {
            for script in 0..3 {
                let mut lazy = set_up(repair);
                let mut eager = set_up(repair);
                for pass in 0..24 {
                    if pass == 12 {
                        lazy.tables.on_monitor(&drifted);
                        eager.tables.on_monitor(&drifted);
                    }
                    let deltas: Vec<MembershipDelta> = (0..rng.gen_range(1..=3))
                        .map(|_| {
                            let node = topo.node(rng.gen_range(0..topo.num_nodes()));
                            if lazy.absent_brokers().contains(node) {
                                MembershipDelta::Join { node }
                            } else {
                                MembershipDelta::Leave { node }
                            }
                        })
                        .collect();
                    lazy.apply_membership(&deltas);
                    eager.apply_membership(&deltas);
                    for &(stream, subscriber) in &seats {
                        eager.tables.settled(stream, subscriber);
                        if rng.gen_bool(1.0 / 3.0) {
                            lazy.tables.settled(stream, subscriber);
                        }
                    }
                    for &(stream, subscriber) in &seats {
                        let want = eager.tables.view(stream, subscriber);
                        assert!(
                            lazy.tables.view(stream, subscriber) == want,
                            "{repair:?} script {script} pass {pass}: stream {stream} → {subscriber}"
                        );
                    }
                    // What this pass invalidated is what a fresh build over
                    // its mask and estimates gives.
                    let redone: Vec<PairJob> = PairJob::all(&wl)
                        .into_iter()
                        .filter(|j| {
                            eager
                                .tables_for(j.topic, j.publisher, j.subscriber)
                                .is_some_and(|t| t.version() == eager.table_version())
                        })
                        .collect();
                    for (job, fresh) in build_now(&eager, redone) {
                        let held = eager.tables_for(job.topic, job.publisher, job.subscriber);
                        assert!(
                            held.as_deref() == Some(&fresh),
                            "{repair:?} pass {pass}: {job:?}"
                        );
                    }
                }
                assert_eq!(lazy.table_version(), eager.table_version());
                assert!(
                    lazy.table_builds() < eager.table_builds(),
                    "{repair:?}: {} lazy builds, {} eager",
                    lazy.table_builds(),
                    eager.table_builds()
                );
            }
        }
    }
}
