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

use crate::config::DcrdConfig;
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
/// A seat is *stale* while it was built at an older table version than
/// the current one: a pass moved the version since, and the first read
/// settles the seat ([`Tables::settled`]), refilling its tables' buffers.
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
    /// The [`Tables::table_version`] the tables were built at.
    built_at: u64,
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

    /// Installs (or replaces) the job's tables, built at `version`.
    fn insert(&mut self, job: &PairJob, tables: SubscriberTables, version: u64) {
        let seat = self
            .stream(job.topic, job.publisher)
            .and_then(|stream| self.seat(stream, job.subscriber));
        debug_assert!(seat.is_some(), "pair job outside the workload's streams");
        if let Some(slot) = seat.and_then(|at| self.seats.get_mut(at)) {
            *slot = Seat {
                tables: Some(tables),
                built_at: version,
            };
        }
    }
}

/// Settles a stale seat in place. Kept out of line: most reads find their
/// seat settled, and the forwarding path stays as small as it was.
#[cold]
#[inline(never)]
fn settle_seat(builder: &mut TableBuilder, config: &DcrdConfig, tables: &mut SubscriberTables) {
    builder.settle(config, tables);
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
    /// among it the per-publisher shortest-path trees masked by the last
    /// pass's absent set, which every table is built from. NACKs climb
    /// them: a node's predecessor is its next hop toward the publisher.
    pub(super) builder: TableBuilder,
    /// [`on_monitor`](Self::on_monitor) passes taken after setup. The
    /// initial construction in `setup` is not counted — it is table
    /// construction, not a repair.
    pub(super) global_rebuilds: u64,
    /// Membership passes: batches of deltas that changed the absent set
    /// and so invalidated every table.
    pub(super) incremental_repairs: u64,
    /// The staleness epoch: bumped once by setup and once per pass, so a
    /// seat built at an older version is stale and every pass invalidates
    /// every table.
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
        self.builder = TableBuilder::new();
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
        for (job, tables) in built {
            self.table_node_steps += tables.node_steps();
            self.store.insert(&job, tables, self.table_version);
        }
    }

    /// Invalidates every table over fresh link estimates.
    pub(super) fn on_monitor(&mut self, estimates: &LinkEstimates) {
        self.estimates = Some(estimates.clone());
        self.builder.estimates_changed();
        if self.invalidate_all() {
            self.global_rebuilds += 1;
        }
    }

    /// The one repair rule, for fresh estimates and membership changes
    /// alike: moves the table version, which leaves every seat stale, and
    /// brings the builder's snapshot and publisher trees up to the current
    /// absent set, over which each seat is settled at its next read
    /// ([`settled`](Self::settled)). A stale table costs nothing until a
    /// packet reads it, so no pass scopes itself to the tables a change can
    /// affect. Returns whether there were tables to invalidate (not before
    /// setup).
    fn invalidate_all(&mut self) -> bool {
        let (Some(topo), Some(estimates)) = (self.topology.as_ref(), self.estimates.as_ref())
        else {
            return false;
        };
        self.table_version += 1;
        self.builder
            .prepare(topo, estimates, self.params.m, &self.absent);
        true
    }

    /// The tables of `stream` toward `subscriber`, settled first if a pass
    /// left them stale: the one way routing reads a seat. A stale seat
    /// settles over the builder's snapshot and trees, which hold the mask
    /// of the last pass, not the live [`absent`](Self::absent): without
    /// [`DcrdConfig::repair`] a membership change moves the mask and runs
    /// no pass.
    #[inline]
    pub(super) fn settled(&mut self, stream: u32, subscriber: NodeId) -> Option<&SubscriberTables> {
        let at = self.store.seat(stream, subscriber)?;
        let Seat { tables, built_at } = self.store.seats.get_mut(at)?;
        let tables = tables.as_mut()?;
        if *built_at != self.table_version {
            settle_seat(&mut self.builder, &self.config, tables);
            *built_at = self.table_version;
            self.table_builds += 1;
            self.table_node_steps += tables.node_steps();
        }
        Some(tables)
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
        Some(if seat.built_at != self.table_version {
            Cow::Owned(self.builder.settled(&self.config, tables))
        } else {
            Cow::Borrowed(tables)
        })
    }

    /// Applies a batch of membership deltas to the absent mask, invalidates
    /// every table if any broker's presence changed under
    /// [`DcrdConfig::repair`], and returns the brokers whose presence
    /// changed.
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
        if self.config.repair && !changed.is_empty() && self.invalidate_all() {
            self.incremental_repairs += 1;
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
    /// mask and estimates gives.
    fn build_now(strategy: &DcrdStrategy, jobs: Vec<PairJob>) -> Vec<(PairJob, SubscriberTables)> {
        let (Some(topo), Some(estimates)) = (&strategy.tables.topology, &strategy.tables.estimates)
        else {
            panic!("build_now before setup");
        };
        crate::propagation::compute_tables(
            topo,
            estimates,
            strategy.tables.params.m,
            &strategy.tables.config,
            &strategy.tables.absent,
            jobs,
        )
    }

    /// The dense store holds exactly what a `BTreeMap` keyed by
    /// `(topic, publisher, subscriber)` would hold for the same pair jobs —
    /// with two publishers on one topic (two streams whose subscribers
    /// overlap), and again after a repair under a non-empty absent mask
    /// that changes some of the tables.
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
                repair: true,
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

        // A broker that neither publishes nor subscribes leaves, and its
        // departure changes some tables: the store holds a fresh build over
        // the new mask, every table of it.
        let before = strategy.table_version();
        let moves_a_table = |n: NodeId| {
            let mut trial = set_up();
            trial.tables.absent.insert(n);
            build_now(&trial, jobs.clone())
                .iter()
                .any(|(j, t)| reference.get(&(j.topic, j.publisher, j.subscriber)) != Some(t))
        };
        let gone = (0..topo.num_nodes())
            .map(|i| topo.node(i))
            .filter(|&n| !jobs.iter().any(|j| j.publisher == n || j.subscriber == n))
            .find(|&n| moves_a_table(n))
            .expect("a broker whose departure changes some table");
        strategy.apply_membership(&[MembershipDelta::Leave { node: gone }]);
        assert_eq!(strategy.absent_brokers().len(), 1);
        assert_eq!(strategy.table_version(), before + 1);
        assert_eq!(strategy.incremental_repairs(), 1);
        reference = build_now(&strategy, jobs)
            .into_iter()
            .map(|(job, t)| ((job.topic, job.publisher, job.subscriber), t))
            .collect();
        store_matches(&strategy, &reference);
    }

    /// Without [`DcrdConfig::repair`] a membership change moves the absent
    /// mask and runs no pass. Here one leave does so before fresh estimates
    /// run a pass, and a second leave after it: every seat read afterwards
    /// — copied by `tables_for` while stale, then settled in place — and
    /// every publisher's tree equal a build over the drifted estimates and
    /// the mask of the estimates' pass, not the live mask.
    #[test]
    fn stale_seats_settle_over_the_mask_of_their_pass() {
        use dcrd_net::estimate::analytic_estimates;
        use dcrd_net::paths::{dijkstra_masked, Metric};
        use dcrd_net::topology::random_connected;
        use dcrd_pubsub::workload::WorkloadConfig;

        let mut rng = rng_for(53, "pass-mask");
        let topo = random_connected(24, 4, DelayRange::PAPER, &mut rng);
        let wl = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
        let estimates = analytic_estimates(&topo, 0.05, 0.01);
        let drifted = analytic_estimates(&topo, 0.08, 0.02);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let mut strategy = DcrdStrategy::new(DcrdConfig {
            repair: false,
            ..DcrdConfig::default()
        });
        strategy.setup(&SetupContext {
            topology: &topo,
            estimates: &estimates,
            workload: &wl,
            failure_oracle: &failure,
            params: RunParams::default(),
        });
        let jobs = PairJob::all(&wl);
        let mut others = topo
            .nodes()
            .filter(|&n| !jobs.iter().any(|j| j.publisher == n));
        let (before, after) = (
            others.next().expect("a broker that publishes nothing"),
            others.next().expect("a second one"),
        );
        strategy.apply_membership(&[MembershipDelta::Leave { node: before }]);
        strategy.tables.on_monitor(&drifted);
        strategy.apply_membership(&[MembershipDelta::Leave { node: after }]);
        assert_eq!(strategy.absent_brokers().len(), 2);
        assert_eq!(strategy.table_version(), 2);
        assert_eq!(strategy.incremental_repairs(), 0);

        let pass_mask: NodeSet = [before].into_iter().collect();
        let config = strategy.tables.config;
        let m = strategy.tables.params.m;
        let want = crate::propagation::compute_tables(
            &topo,
            &drifted,
            m,
            &config,
            &pass_mask,
            jobs.clone(),
        );
        let live = crate::propagation::compute_tables(
            &topo,
            &drifted,
            m,
            &config,
            strategy.absent_brokers(),
            jobs,
        );
        assert!(
            want.iter().zip(&live).any(|((_, a), (_, b))| a != b),
            "the second leave moves no table"
        );
        for (job, fresh) in &want {
            let copy = strategy.tables_for(job.topic, job.publisher, job.subscriber);
            assert!(copy.as_deref() == Some(fresh), "copy of {job:?}");
            let settled = strategy.settled_tables_for(job.topic, job.publisher, job.subscriber);
            assert!(settled == Some(fresh), "settled {job:?}");
        }
        for publisher in wl.topics().iter().map(|t| t.publisher) {
            let tree = strategy.tables.builder.tree(publisher).expect("a tree");
            let fresh = dijkstra_masked(&topo, publisher, Metric::Delay, &pass_mask);
            for node in topo.nodes() {
                assert_eq!(
                    tree.cost_to(node),
                    fresh.cost_to(node),
                    "{publisher} → {node}"
                );
                assert_eq!(
                    tree.predecessor(node),
                    fresh.predecessor(node),
                    "{publisher} → {node}"
                );
            }
        }
    }

    /// Settling a table at its first read gives what settling every
    /// invalidated table at the end of its pass gives. Seeded scripts of
    /// one to three leaves and joins a pass, publishers included, with
    /// fresh link estimates midway. A lazy strategy reads a seeded third of
    /// its seats after each pass; the reference settles every stale seat.
    /// After every pass each seat of the two is `==` — the lazy side's
    /// unread seats compared through the copy `tables_for` settles, its
    /// read ones in place — and the reference's tables are a fresh build
    /// over the pass's mask and estimates.
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
        let set_up = || {
            let mut strategy = DcrdStrategy::new(DcrdConfig {
                repair: true,
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
            let strategy = set_up();
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
        for script in 0..3 {
            let mut lazy = set_up();
            let mut eager = set_up();
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
                // Every pass invalidates every seat, so settling them all
                // builds each once.
                let builds = eager.table_builds();
                for &(stream, subscriber) in &seats {
                    eager.tables.settled(stream, subscriber);
                    if rng.gen_bool(1.0 / 3.0) {
                        lazy.tables.settled(stream, subscriber);
                    }
                }
                assert_eq!(
                    eager.table_builds() - builds,
                    seats.len() as u64,
                    "script {script} pass {pass}"
                );
                for &(stream, subscriber) in &seats {
                    let want = eager.tables.view(stream, subscriber);
                    assert!(
                        lazy.tables.view(stream, subscriber) == want,
                        "script {script} pass {pass}: stream {stream} → {subscriber}"
                    );
                }
                for (job, fresh) in build_now(&eager, PairJob::all(&wl)) {
                    let held = eager.tables_for(job.topic, job.publisher, job.subscriber);
                    assert!(
                        held.as_deref() == Some(&fresh),
                        "script {script} pass {pass}: {job:?}"
                    );
                }
            }
            assert_eq!(lazy.table_version(), eager.table_version());
            assert!(
                lazy.table_builds() < eager.table_builds(),
                "{} lazy builds, {} eager",
                lazy.table_builds(),
                eager.table_builds()
            );
        }
    }
}
