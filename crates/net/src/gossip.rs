//! Deterministic epidemic dissemination of membership state.
//!
//! The churn layer (PR 6) detects membership changes; this module is the
//! *dissemination* half of that control plane. Instead of assuming every
//! broker learns each [`MembershipDelta`] instantly and losslessly (the
//! "oracle" model the runtime used so far), deltas become **rumors** that
//! spread epidemically over a lossy, partitionable control plane:
//!
//! * **Bounded partial views** (HyParView-style): every broker gossips
//!   with a small deterministic partner set — its two ring neighbors
//!   (which keep the view graph connected while every broker is present)
//!   plus hash-picked shortcuts up to [`GossipConfig::view_size`].
//! * **Eager push** (Plumtree-style): each round, every broker that knows
//!   a live rumor pushes it to [`GossipConfig::fanout`] view partners.
//!   Pushes are individually lossy ([`GossipConfig::loss`]) and blocked
//!   across partitions.
//! * **Anti-entropy**: every [`GossipConfig::anti_entropy_interval`]
//!   rounds, each present broker and its ring successor among the
//!   present brokers exchange FNV digests of their known rumor sets and
//!   transfer whatever the other side is missing. Absent brokers are
//!   skipped, so a broker whose ring neighbours are both absent is still
//!   reconciled. This is the lazy-pull backstop that reconciles
//!   divergence after partitions heal, and the transfer count surfaces
//!   as *stale-entry reconciliations*.
//!
//! The simulation keeps one logical routing-table store, so a rumor is
//! handed to the router only once **every present broker** has learned it
//! (convergence gating): a partition stalls application, heal plus a few
//! anti-entropy rounds completes it. A rumor that remains unconverged for
//! more than [`GossipConfig::staleness_rounds`] rounds *while the control
//! plane is connected* is a protocol failure — the overlay reports the
//! still-ignorant brokers so the runtime's auditor can indict them
//! (`StaleRouteAfterConvergence`).
//!
//! Everything is pure and hash-driven (no ambient RNG): same seed, same
//! submissions, same tick sequence → bit-identical spread, counters and
//! digest.

use std::collections::BTreeMap;

use dcrd_sim::rng::{splitmix64, unit};

use crate::membership::MembershipDelta;
use crate::{NodeId, NodeSet};

/// Tuning knobs of the gossip overlay. `Default` matches the experiment
/// presets: view 4, fanout 2, anti-entropy every 2 rounds, staleness
/// indictment after 16 connected-but-unconverged rounds, lossless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Partial-view size per broker (ring neighbors always included, so
    /// effective minimum is 2).
    pub view_size: usize,
    /// Eager-push targets drawn from the view per broker per round.
    pub fanout: usize,
    /// Rounds between anti-entropy digest exchanges; `0` disables
    /// anti-entropy entirely (eager push only — for ablations).
    pub anti_entropy_interval: u64,
    /// Rounds a rumor may stay unconverged while the control plane is
    /// connected before the ignorant brokers are reported stale.
    pub staleness_rounds: u64,
    /// Per-push loss probability of the control plane (anti-entropy
    /// exchanges model a reliable request/response and bypass it).
    pub loss: f64,
    /// Seed for every hash draw (partner choice, loss).
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            view_size: 4,
            fanout: 2,
            anti_entropy_interval: 2,
            staleness_rounds: 16,
            loss: 0.0,
            seed: 0,
        }
    }
}

/// One broker still routing on pre-rumor state `rounds` rounds after the
/// control plane (re)connected — a bounded-staleness violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleReport {
    /// The broker that has not learned the rumor.
    pub node: NodeId,
    /// Connected-but-unconverged rounds the rumor has accumulated.
    pub rounds: u64,
}

/// The outcome of one gossip round.
#[derive(Debug, Clone, Default)]
pub struct GossipTick {
    /// Deltas that reached every present broker this round, in submission
    /// order — ready to apply to the routing tables.
    pub converged: Vec<MembershipDelta>,
    /// Brokers caught past the staleness bound (each rumor indicts once).
    pub stale: Vec<StaleReport>,
}

/// Spread state of one membership delta.
#[derive(Debug, Clone)]
struct RumorState {
    delta: MembershipDelta,
    /// Brokers that have learned the rumor.
    infected: NodeSet,
    /// Consecutive rounds the rumor was fully spreadable (control plane
    /// connected over present brokers) yet unconverged.
    connected_rounds: u64,
    /// Whether the staleness indictment already fired for this rumor.
    flagged: bool,
}

/// FNV-1a over a byte stream (same constants as the trace digest).
#[inline]
fn fnv(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = acc;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The epidemic dissemination overlay: rumor spread state plus counters
/// for every broker in an `n`-node overlay.
///
/// # Example
///
/// ```
/// use dcrd_net::gossip::{GossipConfig, GossipOverlay};
/// use dcrd_net::membership::MembershipDelta;
/// use dcrd_net::NodeId;
///
/// let mut overlay = GossipOverlay::new(6, GossipConfig::default());
/// overlay.submit(
///     MembershipDelta::ConfirmDead { node: NodeId::new(3) },
///     NodeId::new(0),
///     0,
/// );
/// // Fully connected, lossless: the rumor converges within a few rounds.
/// let mut applied = Vec::new();
/// for epoch in 0..8 {
///     let tick = overlay.tick(epoch, |_, _| true, |n| n != NodeId::new(3));
///     applied.extend(tick.converged);
/// }
/// assert_eq!(applied.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GossipOverlay {
    config: GossipConfig,
    num_nodes: usize,
    /// Live rumors keyed by submission index (BTreeMap: deterministic
    /// iteration = submission order).
    rumors: BTreeMap<u64, RumorState>,
    next_rumor: u64,
    rumors_sent: u64,
    anti_entropy_rounds: u64,
    deltas_converged: u64,
    reconciliations: u64,
}

impl GossipOverlay {
    /// Creates an overlay for `num_nodes` brokers.
    #[must_use]
    pub fn new(num_nodes: usize, config: GossipConfig) -> Self {
        GossipOverlay {
            config,
            num_nodes,
            rumors: BTreeMap::new(),
            next_rumor: 0,
            rumors_sent: 0,
            anti_entropy_rounds: 0,
            deltas_converged: 0,
            reconciliations: 0,
        }
    }

    /// The configuration this overlay runs with.
    #[must_use]
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Eager pushes attempted so far (lost and blocked ones included —
    /// the sender cannot tell).
    #[must_use]
    pub fn rumors_sent(&self) -> u64 {
        self.rumors_sent
    }

    /// Anti-entropy digest-exchange rounds completed.
    #[must_use]
    pub fn anti_entropy_rounds(&self) -> u64 {
        self.anti_entropy_rounds
    }

    /// Rumors that reached every present broker and were handed over for
    /// application.
    #[must_use]
    pub fn deltas_converged(&self) -> u64 {
        self.deltas_converged
    }

    /// Stale entries transferred by anti-entropy (rumors one side of an
    /// exchange knew and the other did not).
    #[must_use]
    pub fn stale_reconciliations(&self) -> u64 {
        self.reconciliations
    }

    /// FNV digest of the full spread state (rumor ids, infected sets,
    /// counters) — the reconciliation summary brokers would exchange, and
    /// the determinism witness tests compare.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for (&id, r) in &self.rumors {
            h = fnv(h, &id.to_le_bytes());
            h = fnv(h, &r.connected_rounds.to_le_bytes());
            for i in 0..self.num_nodes {
                h = fnv(h, &[u8::from(r.infected.contains(NodeId::new(i as u32)))]);
            }
        }
        h = fnv(h, &self.rumors_sent.to_le_bytes());
        h = fnv(h, &self.anti_entropy_rounds.to_le_bytes());
        h = fnv(h, &self.deltas_converged.to_le_bytes());
        h = fnv(h, &self.reconciliations.to_le_bytes());
        h
    }

    /// The bounded partial view of `node`: both ring neighbors (which
    /// keep the view graph connected only while every broker is present)
    /// plus hash-picked shortcuts up to `view_size`, self and duplicates
    /// excluded.
    #[must_use]
    pub fn view(&self, node: NodeId) -> Vec<NodeId> {
        let n = self.num_nodes as u32;
        if n < 2 {
            return Vec::new();
        }
        let me = node.index() as u32;
        let mut view: Vec<NodeId> = vec![NodeId::new((me + n - 1) % n), NodeId::new((me + 1) % n)];
        view.dedup();
        let mut salt = 0u64;
        while view.len() < self.config.view_size.min(self.num_nodes - 1) {
            let pick =
                splitmix64(self.config.seed ^ splitmix64(u64::from(me)) ^ salt) % u64::from(n);
            salt += 1;
            let candidate = NodeId::new(pick as u32);
            if candidate != node && !view.contains(&candidate) {
                view.push(candidate);
            }
            if salt > 8 * u64::from(n) {
                break; // tiny overlays: view saturated
            }
        }
        view
    }

    /// Injects a freshly detected delta as a rumor known only to
    /// `witness` (the broker that observed the change) as of `epoch`.
    pub fn submit(&mut self, delta: MembershipDelta, witness: NodeId, _epoch: u64) {
        let id = self.next_rumor;
        self.next_rumor = self.next_rumor.saturating_add(1);
        let mut infected = NodeSet::new();
        infected.insert(witness);
        self.rumors.insert(
            id,
            RumorState {
                delta,
                infected,
                connected_rounds: 0,
                flagged: false,
            },
        );
    }

    /// Runs one gossip round at `epoch`: eager push, periodic
    /// anti-entropy, convergence and staleness checks. `reachable(a, b)`
    /// is the control-plane connectivity oracle (partitions and crashed
    /// endpoints block), `present(n)` says whether broker `n` is a
    /// current overlay member that must learn each rumor.
    pub fn tick(
        &mut self,
        epoch: u64,
        reachable: impl Fn(NodeId, NodeId) -> bool,
        present: impl Fn(NodeId) -> bool,
    ) -> GossipTick {
        let mut out = GossipTick::default();
        let n = self.num_nodes;
        let mut present_set = NodeSet::new();
        for i in 0..n {
            let node = NodeId::new(i as u32);
            if present(node) {
                present_set.insert(node);
            }
        }

        // Eager push: every present infected broker pushes each live
        // rumor to `fanout` view partners, rotated by (epoch, rumor).
        let ids: Vec<u64> = self.rumors.keys().copied().collect();
        for id in &ids {
            let snapshot = match self.rumors.get(id) {
                Some(r) => r.infected.clone(),
                None => continue,
            };
            let mut newly = NodeSet::new();
            for i in 0..n {
                let u = NodeId::new(i as u32);
                if !snapshot.contains(u) || !present_set.contains(u) {
                    continue;
                }
                let view = self.view(u);
                if view.is_empty() {
                    continue;
                }
                let start = splitmix64(
                    self.config.seed
                        ^ splitmix64(*id)
                        ^ splitmix64(epoch)
                        ^ u64::from(u.index() as u32),
                ) as usize
                    % view.len();
                for k in 0..self.config.fanout.min(view.len()) {
                    let Some(&v) = view.get((start + k) % view.len()) else {
                        continue;
                    };
                    self.rumors_sent = self.rumors_sent.saturating_add(1);
                    if !reachable(u, v) || !present_set.contains(v) {
                        continue;
                    }
                    let draw = unit(splitmix64(
                        self.config.seed
                            ^ splitmix64(*id)
                            ^ splitmix64(epoch.wrapping_mul(0x9E37))
                            ^ splitmix64(
                                u64::from(u.index() as u32) << 32 | u64::from(v.index() as u32),
                            ),
                    ));
                    if draw < self.config.loss {
                        continue;
                    }
                    newly.insert(v);
                }
            }
            if let Some(r) = self.rumors.get_mut(id) {
                r.infected.union_with(&newly);
            }
        }

        // Anti-entropy: each present broker exchanges digests with the
        // next present broker on the ring and they transfer every rumor
        // exactly one side knows. Skipping absent brokers keeps the
        // pairing a single cycle over whoever is present. Modeled as a
        // reliable request/response (no loss draw) but still blocked by
        // partitions.
        let interval = self.config.anti_entropy_interval;
        if interval > 0 && epoch.is_multiple_of(interval) && n >= 2 {
            self.anti_entropy_rounds = self.anti_entropy_rounds.saturating_add(1);
            let ring: Vec<NodeId> = (0..n)
                .map(|i| NodeId::new(i as u32))
                .filter(|&u| present_set.contains(u))
                .collect();
            for (k, &u) in ring.iter().enumerate() {
                let Some(&v) = ring.get((k + 1) % ring.len()) else {
                    continue;
                };
                if u == v || !reachable(u, v) {
                    continue;
                }
                for r in self.rumors.values_mut() {
                    let (at_u, at_v) = (r.infected.contains(u), r.infected.contains(v));
                    if at_u != at_v {
                        r.infected.insert(if at_u { v } else { u });
                        self.reconciliations = self.reconciliations.saturating_add(1);
                    }
                }
            }
        }

        // Convergence: a rumor known to every present broker is done —
        // hand the delta over (in submission order) and retire it.
        let mut done: Vec<u64> = Vec::new();
        for (&id, r) in &self.rumors {
            let converged = (0..n).all(|i| {
                let node = NodeId::new(i as u32);
                !present_set.contains(node) || r.infected.contains(node)
            });
            if converged {
                out.converged.push(r.delta);
                done.push(id);
            }
        }
        for id in &done {
            self.rumors.remove(id);
            self.deltas_converged = self.deltas_converged.saturating_add(1);
        }

        // Staleness: a surviving rumor whose infected set can reach every
        // present broker over the control plane (i.e. any partition has
        // healed) accumulates connected rounds; past the bound, the
        // still-ignorant brokers are reported once.
        if self.rumors.is_empty() {
            return out;
        }
        let adjacency = self.adjacency(&present_set, &reachable);
        for r in self.rumors.values_mut() {
            let coverable = Self::reach_closure(n, &r.infected, &present_set, &adjacency);
            let connected = (0..n).all(|i| {
                let node = NodeId::new(i as u32);
                !present_set.contains(node) || coverable.contains(node)
            });
            if !connected {
                r.connected_rounds = 0;
                continue;
            }
            r.connected_rounds = r.connected_rounds.saturating_add(1);
            if r.connected_rounds > self.config.staleness_rounds && !r.flagged {
                r.flagged = true;
                for i in 0..n {
                    let node = NodeId::new(i as u32);
                    if present_set.contains(node) && !r.infected.contains(node) {
                        out.stale.push(StaleReport {
                            node,
                            rounds: r.connected_rounds,
                        });
                    }
                }
            }
        }
        out
    }

    /// Pairwise control-plane adjacency over present brokers (the gossip
    /// substrate is logically any-to-any; views only bound who talks
    /// routinely, not who *could*).
    fn adjacency(
        &self,
        present: &NodeSet,
        reachable: &impl Fn(NodeId, NodeId) -> bool,
    ) -> Vec<NodeSet> {
        let n = self.num_nodes;
        let mut adj = vec![NodeSet::new(); n];
        for i in 0..n {
            let a = NodeId::new(i as u32);
            if !present.contains(a) {
                continue;
            }
            for j in (i + 1)..n {
                let b = NodeId::new(j as u32);
                if present.contains(b) && reachable(a, b) {
                    if let Some(row) = adj.get_mut(i) {
                        row.insert(b);
                    }
                    if let Some(row) = adj.get_mut(j) {
                        row.insert(a);
                    }
                }
            }
        }
        adj
    }

    /// Present brokers reachable from the infected seed set over `adj`.
    fn reach_closure(n: usize, seed: &NodeSet, present: &NodeSet, adj: &[NodeSet]) -> NodeSet {
        let mut seen = NodeSet::new();
        let mut frontier: Vec<NodeId> = Vec::new();
        for i in 0..n {
            let node = NodeId::new(i as u32);
            if seed.contains(node) && present.contains(node) {
                seen.insert(node);
                frontier.push(node);
            }
        }
        while let Some(u) = frontier.pop() {
            for j in 0..n {
                let v = NodeId::new(j as u32);
                if adj.get(u.index()).is_some_and(|s| s.contains(v)) && seen.insert(v) {
                    frontier.push(v);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead(node: u32) -> MembershipDelta {
        MembershipDelta::ConfirmDead {
            node: NodeId::new(node),
        }
    }

    /// Drives `overlay` for up to `rounds` ticks, collecting converged
    /// deltas and stale reports.
    fn drive(
        overlay: &mut GossipOverlay,
        from: u64,
        rounds: u64,
        reachable: impl Fn(NodeId, NodeId) -> bool + Copy,
        present: impl Fn(NodeId) -> bool + Copy,
    ) -> (Vec<MembershipDelta>, Vec<StaleReport>) {
        let (mut converged, mut stale) = (Vec::new(), Vec::new());
        for epoch in from..from + rounds {
            let tick = overlay.tick(epoch, reachable, present);
            converged.extend(tick.converged);
            stale.extend(tick.stale);
        }
        (converged, stale)
    }

    #[test]
    fn views_are_bounded_connected_and_self_free() {
        let overlay = GossipOverlay::new(9, GossipConfig::default());
        for i in 0..9u32 {
            let node = NodeId::new(i);
            let view = overlay.view(node);
            assert!(view.len() <= 4, "view of {node} too big: {view:?}");
            assert!(!view.contains(&node), "self in view of {node}");
            // Ring neighbors guarantee connectivity.
            assert!(view.contains(&NodeId::new((i + 1) % 9)));
            assert!(view.contains(&NodeId::new((i + 9 - 1) % 9)));
            let mut dedup = view.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), view.len(), "duplicate in view of {node}");
        }
    }

    #[test]
    fn rumor_converges_on_connected_overlay_within_bound() {
        let mut overlay = GossipOverlay::new(10, GossipConfig::default());
        overlay.submit(dead(7), NodeId::new(0), 0);
        let (converged, stale) = drive(&mut overlay, 0, 16, |_, _| true, |n| n != NodeId::new(7));
        assert_eq!(converged, vec![dead(7)]);
        assert!(stale.is_empty(), "healthy spread reported stale: {stale:?}");
        assert_eq!(overlay.deltas_converged(), 1);
        assert_eq!(overlay.rumors.len(), 0);
        assert!(overlay.rumors_sent() > 0);
        assert!(overlay.anti_entropy_rounds() > 0);
    }

    #[test]
    fn lossy_control_plane_still_converges_via_anti_entropy() {
        let config = GossipConfig {
            loss: 0.9,
            ..GossipConfig::default()
        };
        let mut overlay = GossipOverlay::new(8, config);
        overlay.submit(dead(5), NodeId::new(2), 0);
        let (converged, stale) = drive(&mut overlay, 0, 16, |_, _| true, |_| true);
        assert_eq!(converged.len(), 1, "anti-entropy failed to reconcile");
        assert!(stale.is_empty());
        assert!(
            overlay.stale_reconciliations() > 0,
            "reconciliation counter never moved under 90% push loss"
        );
    }

    #[test]
    fn partition_stalls_convergence_and_heal_completes_it() {
        // Nodes 0..4 vs 4..8; rumor born on the small side.
        let cut = |a: NodeId, b: NodeId| (a.index() < 4) == (b.index() < 4);
        let mut overlay = GossipOverlay::new(8, GossipConfig::default());
        overlay.submit(dead(6), NodeId::new(1), 0);
        let (converged, stale) = drive(&mut overlay, 0, 30, cut, |_| true);
        assert!(
            converged.is_empty(),
            "rumor crossed a partition it cannot cross"
        );
        assert!(
            stale.is_empty(),
            "staleness must not be charged while partitioned: {stale:?}"
        );
        assert_eq!(overlay.rumors.len(), 1);
        // Heal: convergence completes well inside the staleness bound.
        let (converged, stale) = drive(&mut overlay, 30, 16, |_, _| true, |_| true);
        assert_eq!(converged, vec![dead(6)]);
        assert!(
            stale.is_empty(),
            "post-heal spread reported stale: {stale:?}"
        );
    }

    #[test]
    fn broken_dissemination_is_indicted_as_stale() {
        // Total push loss and no anti-entropy: the rumor can never spread
        // even though the control plane is connected.
        let config = GossipConfig {
            loss: 1.0,
            anti_entropy_interval: 0,
            staleness_rounds: 5,
            ..GossipConfig::default()
        };
        let mut overlay = GossipOverlay::new(6, config);
        overlay.submit(dead(4), NodeId::new(0), 0);
        let (converged, stale) = drive(&mut overlay, 0, 12, |_, _| true, |_| true);
        assert!(converged.is_empty());
        // Every broker but the witness is indicted, exactly once.
        assert_eq!(stale.len(), 5, "one report per ignorant broker: {stale:?}");
        assert!(stale.iter().all(|s| s.rounds > 5));
        assert!(stale.iter().all(|s| s.node != NodeId::new(0)));
    }

    #[test]
    fn absent_brokers_do_not_gate_convergence() {
        let mut overlay = GossipOverlay::new(6, GossipConfig::default());
        overlay.submit(dead(3), NodeId::new(0), 0);
        // Broker 3 is dead (the rumor's own subject) and broker 5 has
        // churned out: neither must be waited for.
        let present = |n: NodeId| n != NodeId::new(3) && n != NodeId::new(5);
        let (converged, _) = drive(&mut overlay, 0, 12, |_, _| true, present);
        assert_eq!(converged, vec![dead(3)]);
    }

    #[test]
    fn anti_entropy_pairs_across_absent_ring_neighbours() {
        // A view of two holds only the ring neighbours, so no push ever
        // targets broker 5 once 4 and 6 are absent: only anti-entropy
        // with the next present brokers (3 and 7) can reach it.
        let config = GossipConfig {
            view_size: 2,
            ..GossipConfig::default()
        };
        let mut overlay = GossipOverlay::new(16, config);
        overlay.submit(dead(4), NodeId::new(0), 0);
        let present = |n: NodeId| n != NodeId::new(4) && n != NodeId::new(6);
        let bound = config.staleness_rounds;
        let (converged, stale) = drive(&mut overlay, 0, bound, |_, _| true, present);
        assert_eq!(converged, vec![dead(4)], "broker 5 never learned the rumor");
        let (_, later) = drive(&mut overlay, bound, bound + 1, |_, _| true, present);
        assert!(stale.is_empty() && later.is_empty(), "{stale:?} {later:?}");
    }

    #[test]
    fn same_seed_same_schedule_is_bit_identical() {
        let run = || {
            let config = GossipConfig {
                loss: 0.4,
                seed: 0x5EED,
                ..GossipConfig::default()
            };
            let mut overlay = GossipOverlay::new(9, config);
            overlay.submit(dead(2), NodeId::new(7), 0);
            overlay.submit(dead(8), NodeId::new(1), 1);
            let cut = |a: NodeId, b: NodeId| (a.index() < 3) == (b.index() < 3);
            let _ = drive(&mut overlay, 0, 10, cut, |_| true);
            let _ = drive(&mut overlay, 10, 10, |_, _| true, |_| true);
            overlay.digest()
        };
        assert_eq!(run(), run(), "gossip spread is not deterministic");
    }

    #[test]
    fn different_seeds_spread_differently() {
        let digest = |seed: u64| {
            let config = GossipConfig {
                loss: 0.5,
                seed,
                ..GossipConfig::default()
            };
            let mut overlay = GossipOverlay::new(12, config);
            overlay.submit(dead(4), NodeId::new(0), 0);
            let _ = overlay.tick(1, |_, _| true, |_| true);
            overlay.digest()
        };
        assert_ne!(digest(1), digest(2), "seed does not reach the loss draws");
    }
}
