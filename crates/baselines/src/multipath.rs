//! The Multipath baseline.
//!
//! §IV-B: "publishers send duplicate packets for every subscriber ... a
//! single packet to a single subscriber is sent through two paths: one
//! shortest delay path and another path selected from the top 5 shortest
//! delay paths that has the fewest overlapping links with the shortest
//! delay path." Redundancy buys reliability at roughly double the traffic,
//! but both paths are fixed — a failure on both (or on the single shared
//! prefix) still loses the packet.

use std::collections::BTreeMap;

use dcrd_net::disjoint::edge_disjoint_pair;
use dcrd_net::paths::{multipath_pair, Metric};
use dcrd_net::{NodeId, NodeList};
use dcrd_pubsub::packet::Packet;
use dcrd_pubsub::strategy::SetupContext;
use dcrd_sim::SimTime;

use crate::common::{FailureResponse, HopByHopStrategy, NextHopPolicy};

/// How the second path of each pair is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultipathSelection {
    /// The paper's heuristic: among the top-5 shortest-delay paths, the one
    /// sharing the fewest links with the shortest path.
    #[default]
    TopFiveOverlap,
    /// Bhandari's minimum-total-delay edge-disjoint pair (ablation: what
    /// the heuristic leaves on the table).
    EdgeDisjoint,
}

/// Multipath next-hop policy: two pinned source routes per
/// `(publisher, subscriber)` pair.
#[derive(Debug, Default)]
pub struct MultipathPolicy {
    selection: MultipathSelection,
    /// `(publisher, subscriber) → up to two node routes`.
    routes: BTreeMap<(NodeId, NodeId), Vec<Vec<NodeId>>>,
}

impl MultipathPolicy {
    /// Creates the policy with the paper's selection heuristic; routes are
    /// computed in `setup`.
    #[must_use]
    pub fn new() -> Self {
        MultipathPolicy::default()
    }

    /// Creates the policy with an explicit selection mode.
    #[must_use]
    pub fn with_selection(selection: MultipathSelection) -> Self {
        MultipathPolicy {
            selection,
            routes: BTreeMap::new(),
        }
    }

    /// The configured selection mode.
    #[must_use]
    pub fn selection(&self) -> MultipathSelection {
        self.selection
    }

    /// The pinned routes for one `(publisher, subscriber)` pair.
    #[must_use]
    pub fn routes_for(&self, publisher: NodeId, subscriber: NodeId) -> Option<&[Vec<NodeId>]> {
        self.routes.get(&(publisher, subscriber)).map(Vec::as_slice)
    }
}

impl NextHopPolicy for MultipathPolicy {
    fn name(&self) -> &'static str {
        "Multipath"
    }

    fn setup(&mut self, ctx: &SetupContext<'_>) {
        self.routes.clear();
        for spec in ctx.workload.topics() {
            for sub in &spec.subscriptions {
                let key = (spec.publisher, sub.subscriber);
                if self.routes.contains_key(&key) {
                    continue;
                }
                let pair = match self.selection {
                    MultipathSelection::TopFiveOverlap => {
                        multipath_pair(ctx.topology, spec.publisher, sub.subscriber)
                    }
                    MultipathSelection::EdgeDisjoint => edge_disjoint_pair(
                        ctx.topology,
                        spec.publisher,
                        sub.subscriber,
                        Metric::Delay,
                    )
                    .map(|p| (p.primary, p.secondary)),
                };
                let Some((primary, secondary)) = pair else {
                    continue;
                };
                let mut routes = vec![primary.nodes().to_vec()];
                if let Some(s) = secondary {
                    routes.push(s.nodes().to_vec());
                }
                self.routes.insert(key, routes);
            }
        }
    }

    fn initial_copies(&mut self, node: NodeId, packet: Packet) -> Vec<Packet> {
        // One copy per (destination, route): the paper duplicates per
        // subscriber rather than sharing tree edges.
        let mut copies = Vec::new();
        for &dest in &packet.destinations {
            let Some(routes) = self.routes.get(&(node, dest)) else {
                continue;
            };
            for route in routes {
                let mut copy = packet.clone();
                copy.destinations = NodeList::from_slice(&[dest]);
                copy.route = Some(route.clone());
                copies.push(copy);
            }
        }
        copies
    }

    fn next_hop(
        &mut self,
        node: NodeId,
        packet: &Packet,
        _dest: NodeId,
        _now: SimTime,
    ) -> Option<NodeId> {
        let route = packet.route.as_ref()?;
        let pos = route.iter().position(|&n| n == node)?;
        route.get(pos + 1).copied()
    }

    fn on_failure(&self) -> FailureResponse {
        FailureResponse::GiveUp
    }
}

/// The paper's Multipath baseline strategy.
pub type MultipathStrategy = HopByHopStrategy<MultipathPolicy>;

/// Creates the Multipath baseline with the paper's selection heuristic.
#[must_use]
pub fn multipath() -> MultipathStrategy {
    HopByHopStrategy::new(MultipathPolicy::new())
}

/// Creates the Multipath variant using Bhandari edge-disjoint pairs.
#[must_use]
pub fn multipath_disjoint() -> MultipathStrategy {
    HopByHopStrategy::new(MultipathPolicy::with_selection(
        MultipathSelection::EdgeDisjoint,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::d_tree;
    use dcrd_net::failure::{FailureModel, LinkFailureModel};
    use dcrd_net::loss::LossModel;
    use dcrd_net::topology::{full_mesh, DelayRange};
    use dcrd_pubsub::runtime::{OverlayRuntime, RuntimeConfig};
    use dcrd_pubsub::workload::{Workload, WorkloadConfig};
    use dcrd_sim::rng::rng_for;
    use dcrd_sim::SimDuration;

    fn mesh_workload(seed: u64) -> (dcrd_net::Topology, Workload) {
        let mut rng = rng_for(seed, "mp-test");
        let topo = full_mesh(12, DelayRange::PAPER, &mut rng);
        let wl = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
        (topo, wl)
    }

    #[test]
    fn sends_roughly_double_the_tree_traffic() {
        let (topo, wl) = mesh_workload(1);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let cfg = RuntimeConfig::paper(SimDuration::from_secs(30), 1);
        let mp = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), cfg)
            .run(&mut multipath());
        let dt =
            OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), cfg).run(&mut d_tree());
        assert!((mp.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!(
            mp.packets_per_subscriber() > 1.7 * dt.packets_per_subscriber(),
            "multipath traffic {} should dwarf D-Tree {}",
            mp.packets_per_subscriber(),
            dt.packets_per_subscriber()
        );
    }

    #[test]
    fn redundancy_beats_single_path_under_failures() {
        let (topo, wl) = mesh_workload(2);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.08, 9));
        let cfg = RuntimeConfig::paper(SimDuration::from_secs(120), 2);
        let mp = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(1e-4), cfg)
            .run(&mut multipath());
        let dt =
            OverlayRuntime::new(&topo, &wl, failure, LossModel::new(1e-4), cfg).run(&mut d_tree());
        assert!(
            mp.delivery_ratio() > dt.delivery_ratio(),
            "multipath {} must beat D-Tree {} under failures",
            mp.delivery_ratio(),
            dt.delivery_ratio()
        );
        // But it cannot reach the rerouting ceiling: some pairs lose both
        // paths in the same epoch.
        assert!(mp.delivery_ratio() < 1.0);
    }

    #[test]
    fn duplicate_deliveries_count_once() {
        let (topo, wl) = mesh_workload(3);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let cfg = RuntimeConfig::paper(SimDuration::from_secs(10), 3);
        let log = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), cfg)
            .run(&mut multipath());
        // Both copies arrive; the ratio must still be exactly 1.0, not 2.0,
        // and the second copies show up in the duplicate counter.
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((log.qos_delivery_ratio() - 1.0).abs() < 1e-12);
        assert!(
            log.duplicate_deliveries > 0,
            "multipath's second copies must be counted as duplicates"
        );
    }

    #[test]
    fn disjoint_selection_is_fully_disjoint_and_competitive() {
        let (topo, wl) = mesh_workload(5);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.08, 21));
        let cfg = RuntimeConfig::paper(SimDuration::from_secs(60), 5);
        let mut paper = multipath();
        let mut disjoint = multipath_disjoint();
        assert_eq!(
            disjoint.policy().selection(),
            MultipathSelection::EdgeDisjoint
        );
        let lp =
            OverlayRuntime::new(&topo, &wl, failure, LossModel::new(1e-4), cfg).run(&mut paper);
        let ld =
            OverlayRuntime::new(&topo, &wl, failure, LossModel::new(1e-4), cfg).run(&mut disjoint);
        // Every disjoint pair shares zero links, so its delivery ratio must
        // at least match the heuristic's (up to sampling noise).
        assert!(
            ld.delivery_ratio() >= lp.delivery_ratio() - 0.01,
            "disjoint {} vs paper heuristic {}",
            ld.delivery_ratio(),
            lp.delivery_ratio()
        );
        // Routes really are disjoint.
        for spec in wl.topics() {
            for sub in &spec.subscriptions {
                if let Some(routes) = disjoint.policy().routes_for(spec.publisher, sub.subscriber) {
                    if routes.len() == 2 {
                        let shared: Vec<_> = routes[0]
                            .windows(2)
                            .filter(|w| {
                                routes[1]
                                    .windows(2)
                                    .any(|v| v == *w || (v[0] == w[1] && v[1] == w[0]))
                            })
                            .collect();
                        assert!(shared.is_empty(), "disjoint routes share {shared:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn routes_are_precomputed_per_pair() {
        let (topo, wl) = mesh_workload(4);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let cfg = RuntimeConfig::paper(SimDuration::from_secs(1), 4);
        let mut s = multipath();
        let _ = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), cfg).run(&mut s);
        let spec = &wl.topics()[0];
        let sub = spec.subscriptions[0].subscriber;
        let routes = s.policy().routes_for(spec.publisher, sub).expect("routes");
        assert!(!routes.is_empty() && routes.len() <= 2);
        for r in routes {
            assert_eq!(r.first(), Some(&spec.publisher));
            assert_eq!(r.last(), Some(&sub));
        }
        // In a full mesh the two routes are link-disjoint.
        if routes.len() == 2 {
            assert_ne!(routes[0], routes[1]);
        }
    }
}
