//! SWIM-style broker membership: a deterministic failure detector, an
//! order-insensitive membership view, and a seeded broker-churn schedule.
//!
//! The paper assumes a fixed broker set; its conclusion names membership
//! churn as the open threat model. This module supplies the three pieces a
//! churn-hardened control plane needs:
//!
//! * [`SwimDetector`] — a probe / indirect-probe / suspect / confirm state
//!   machine in the style of SWIM (Das et al., DSN 2002), driven once per
//!   simulation epoch instead of by wall-clock gossip. Probe loss is a pure
//!   hash of `(seed, node, epoch, probe index)`, so a detector run is
//!   reproducible from its seed alone and never perturbs the runtime's RNG
//!   stream. False suspicions are refuted with **incarnation numbers**: a
//!   suspected-but-alive broker bumps its incarnation, which dominates the
//!   stale suspicion in every view.
//! * [`MembershipView`] — the lattice the detector (and any router mirror)
//!   converges on. Records are ordered by `(incarnation, status precedence)`
//!   with `Alive < Suspect < Dead < Left`, so merging is commutative,
//!   associative and idempotent: any delivery order of the same updates
//!   yields the same view.
//! * [`BrokerChurnModel`] — a seeded schedule of membership transitions
//!   (late joins, graceful leaves, crash deaths) for churn experiments,
//!   in the same pure-hash style as [`chaos`](crate::chaos).
//!
//! The detector reports changes as [`MembershipDelta`]s; routing strategies
//! consume them to repair their tables over the new membership.

use std::collections::BTreeMap;

use dcrd_sim::rng::{splitmix64, unit};
use dcrd_sim::SimTime;

use crate::failure::DEFAULT_EPOCH;
use crate::graph::NodeId;
use crate::nodeset::NodeSet;

/// What a probe of a broker would actually find — the ground truth the
/// simulation feeds the detector each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundTruth {
    /// The broker is running and answers probes (subject to probe loss).
    Up,
    /// The broker is crashed or dead: no probe can be answered.
    Down,
    /// The broker left gracefully and announced its departure.
    Departed,
}

/// A broker's lifecycle status in a [`MembershipView`].
///
/// The ordering is the lattice precedence used to break ties between
/// records with equal incarnation: `Alive < Suspect < Dead < Left`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemberStatus {
    /// Believed up; probed every epoch.
    Alive,
    /// Missed a direct probe and all indirect probes; will be confirmed
    /// dead unless it refutes within the suspicion window. Still routable.
    Suspect,
    /// Confirmed dead: the suspicion window expired without refutation.
    Dead,
    /// Departed gracefully (announced leave).
    Left,
}

impl MemberStatus {
    /// Whether a broker with this status is still part of the overlay for
    /// routing purposes (suspects are innocent until confirmed).
    #[must_use]
    pub fn is_present(self) -> bool {
        matches!(self, MemberStatus::Alive | MemberStatus::Suspect)
    }
}

/// One broker's record in a [`MembershipView`]: its incarnation number and
/// lifecycle status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberRecord {
    /// Monotone refutation counter; bumped each time the broker disputes a
    /// suspicion or rejoins after departure.
    pub incarnation: u64,
    /// Lifecycle status at this incarnation.
    pub status: MemberStatus,
}

impl MemberRecord {
    /// The lattice key: records with a higher key dominate. Higher
    /// incarnations always win; within one incarnation the more severe
    /// status wins.
    #[must_use]
    fn key(self) -> (u64, MemberStatus) {
        (self.incarnation, self.status)
    }
}

/// A membership change reported by the [`SwimDetector`].
///
/// Deltas are the control-plane currency: routing strategies receive them
/// via `on_membership` and repair their tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipDelta {
    /// A broker joined (late join, or rejoin after a confirmed death).
    Join {
        /// The joining broker.
        node: NodeId,
    },
    /// A broker left gracefully (announced departure).
    Leave {
        /// The departing broker.
        node: NodeId,
    },
    /// A suspected broker's suspicion window expired: it is now confirmed
    /// dead and must be routed around.
    ConfirmDead {
        /// The confirmed-dead broker.
        node: NodeId,
    },
    /// A falsely suspected broker disputed the suspicion by bumping its
    /// incarnation; it stays a member.
    Refute {
        /// The refuting broker.
        node: NodeId,
        /// Its new (bumped) incarnation number.
        incarnation: u64,
    },
}

impl MembershipDelta {
    /// The broker this delta is about.
    #[must_use]
    pub fn node(&self) -> NodeId {
        match *self {
            MembershipDelta::Join { node }
            | MembershipDelta::Leave { node }
            | MembershipDelta::ConfirmDead { node }
            | MembershipDelta::Refute { node, .. } => node,
        }
    }

    /// Whether this delta removes the broker from the routable overlay.
    #[must_use]
    pub fn removes(&self) -> bool {
        matches!(
            self,
            MembershipDelta::Leave { .. } | MembershipDelta::ConfirmDead { .. }
        )
    }
}

/// The membership lattice: each broker's highest-known
/// `(incarnation, status)` record.
///
/// [`apply`](MembershipView::apply) keeps the per-broker maximum under the
/// lattice order, so applying any permutation (or duplication) of the same
/// record set converges to the same view — the property churned gossip
/// needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipView {
    records: BTreeMap<NodeId, MemberRecord>,
}

impl MembershipView {
    /// Creates an empty view.
    #[must_use]
    pub fn new() -> Self {
        MembershipView::default()
    }

    /// Applies one record, keeping the lattice maximum. Returns `true` if
    /// the view changed.
    pub fn apply(&mut self, node: NodeId, record: MemberRecord) -> bool {
        match self.records.get_mut(&node) {
            Some(existing) => {
                if record.key() > existing.key() {
                    *existing = record;
                    true
                } else {
                    false
                }
            }
            None => {
                self.records.insert(node, record);
                true
            }
        }
    }

    /// Merges every record of `other` into `self`.
    pub fn merge(&mut self, other: &MembershipView) {
        for (&node, &record) in &other.records {
            self.apply(node, record);
        }
    }

    /// The record for `node`, if any.
    #[must_use]
    pub fn record(&self, node: NodeId) -> Option<MemberRecord> {
        self.records.get(&node).copied()
    }

    /// Whether `node` is currently part of the routable overlay (unknown
    /// brokers are not).
    #[must_use]
    pub fn is_present(&self, node: NodeId) -> bool {
        self.records
            .get(&node)
            .is_some_and(|r| r.status.is_present())
    }

    /// The set of brokers that are confirmed gone (`Dead` or `Left`).
    #[must_use]
    pub fn absent_set(&self) -> NodeSet {
        self.records
            .iter()
            .filter(|(_, r)| !r.status.is_present())
            .map(|(&n, _)| n)
            .collect()
    }

    /// Iterates over all `(node, record)` pairs in node order.
    pub fn records(&self) -> impl Iterator<Item = (NodeId, MemberRecord)> + '_ {
        self.records.iter().map(|(&n, &r)| (n, r))
    }
}

/// Tuning knobs for the [`SwimDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwimConfig {
    /// Probability that any single probe (direct or indirect) is lost even
    /// though the target is up — the source of false suspicions.
    pub probe_loss: f64,
    /// Number of indirect probers asked to confirm a missed direct probe
    /// (SWIM's `k`).
    pub indirect_probes: u32,
    /// Epochs a suspect has to refute before it is confirmed dead.
    pub suspicion_epochs: u64,
    /// Seed for the detector's deterministic probe-loss draws.
    pub seed: u64,
}

impl Default for SwimConfig {
    fn default() -> Self {
        SwimConfig {
            probe_loss: 0.15,
            indirect_probes: 3,
            suspicion_epochs: 3,
            seed: 0,
        }
    }
}

/// Deterministic SWIM-style failure detector.
///
/// Once per epoch, [`tick`](SwimDetector::tick) probes every member against
/// the simulation's ground truth and advances the
/// probe → indirect-probe → suspect → confirm state machine:
///
/// * An **alive** broker whose direct probe and all `k` indirect probes
///   fail (lost, or the broker is down) becomes a **suspect** with a
///   refutation deadline.
/// * A **suspect** that answers any probe before its deadline **refutes**
///   the suspicion, bumping its incarnation ([`MembershipDelta::Refute`]).
/// * A suspect still unreachable at its deadline is **confirmed dead**
///   ([`MembershipDelta::ConfirmDead`]).
/// * A broker that announces departure leaves immediately
///   ([`MembershipDelta::Leave`]) — no suspicion needed.
/// * A dead or departed broker that answers probes again **joins** with a
///   bumped incarnation ([`MembershipDelta::Join`]).
///
/// All probe-loss draws are pure hashes of `(seed, node, epoch, probe)`:
/// two detectors with the same seed observing the same ground truth emit
/// identical delta sequences.
#[derive(Debug, Clone)]
pub struct SwimDetector {
    config: SwimConfig,
    view: MembershipView,
    /// Refutation deadline (epoch) per current suspect.
    deadlines: BTreeMap<NodeId, u64>,
}

impl SwimDetector {
    /// Creates a detector over brokers `0..num_nodes`; `present` marks the
    /// brokers that are up at epoch 0 (the rest start as departed and join
    /// when they first answer probes).
    #[must_use]
    pub fn new(num_nodes: usize, present: impl Fn(NodeId) -> bool, config: SwimConfig) -> Self {
        let mut view = MembershipView::new();
        for i in 0..num_nodes {
            let node = NodeId::new(i as u32);
            let status = if present(node) {
                MemberStatus::Alive
            } else {
                MemberStatus::Left
            };
            view.apply(
                node,
                MemberRecord {
                    incarnation: 0,
                    status,
                },
            );
        }
        SwimDetector {
            config,
            view,
            deadlines: BTreeMap::new(),
        }
    }

    /// The detector's current membership view.
    #[must_use]
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// Whether probe number `probe` (0 = direct, 1..=k = indirect) of
    /// `node` in `epoch` is lost in transit.
    fn probe_lost(&self, node: NodeId, epoch: u64, probe: u32) -> bool {
        if self.config.probe_loss <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.config.seed
                ^ splitmix64(u64::from(node.index() as u32) ^ 0x51A7)
                ^ splitmix64(epoch ^ 0xBEEF)
                ^ splitmix64(u64::from(probe) ^ 0x1D1D),
        );
        unit(h) < self.config.probe_loss
    }

    /// Whether any probe of `node` gets through this epoch: the direct
    /// probe, or one of the `k` indirect probes. A down or departed broker
    /// never answers.
    fn probe_answers(&self, node: NodeId, epoch: u64, truth: GroundTruth) -> bool {
        if truth != GroundTruth::Up {
            return false;
        }
        (0..=self.config.indirect_probes).any(|probe| !self.probe_lost(node, epoch, probe))
    }

    /// Runs one epoch of probing against `truth` and returns the membership
    /// deltas, in node order.
    pub fn tick(
        &mut self,
        epoch: u64,
        truth: impl Fn(NodeId) -> GroundTruth,
    ) -> Vec<MembershipDelta> {
        let mut deltas = Vec::new();
        let nodes: Vec<(NodeId, MemberRecord)> = self.view.records().collect();
        for (node, record) in nodes {
            let t = truth(node);
            match record.status {
                MemberStatus::Alive => match t {
                    GroundTruth::Departed => {
                        self.view.apply(
                            node,
                            MemberRecord {
                                incarnation: record.incarnation,
                                status: MemberStatus::Left,
                            },
                        );
                        deltas.push(MembershipDelta::Leave { node });
                    }
                    GroundTruth::Up | GroundTruth::Down => {
                        if !self.probe_answers(node, epoch, t) {
                            self.view.apply(
                                node,
                                MemberRecord {
                                    incarnation: record.incarnation,
                                    status: MemberStatus::Suspect,
                                },
                            );
                            self.deadlines
                                .insert(node, epoch + self.config.suspicion_epochs);
                        }
                    }
                },
                MemberStatus::Suspect => match t {
                    GroundTruth::Departed => {
                        self.deadlines.remove(&node);
                        self.view.apply(
                            node,
                            MemberRecord {
                                incarnation: record.incarnation,
                                status: MemberStatus::Left,
                            },
                        );
                        deltas.push(MembershipDelta::Leave { node });
                    }
                    GroundTruth::Up | GroundTruth::Down => {
                        if self.probe_answers(node, epoch, t) {
                            // Refutation: the suspect disputes with a higher
                            // incarnation, which dominates the suspicion.
                            let incarnation = record.incarnation + 1;
                            self.deadlines.remove(&node);
                            self.view.apply(
                                node,
                                MemberRecord {
                                    incarnation,
                                    status: MemberStatus::Alive,
                                },
                            );
                            deltas.push(MembershipDelta::Refute { node, incarnation });
                        } else {
                            let expired = self
                                .deadlines
                                .get(&node)
                                .is_none_or(|&deadline| epoch >= deadline);
                            if expired {
                                self.deadlines.remove(&node);
                                self.view.apply(
                                    node,
                                    MemberRecord {
                                        incarnation: record.incarnation,
                                        status: MemberStatus::Dead,
                                    },
                                );
                                deltas.push(MembershipDelta::ConfirmDead { node });
                            }
                        }
                    }
                },
                MemberStatus::Dead | MemberStatus::Left => {
                    if self.probe_answers(node, epoch, t) {
                        // Rejoin (or late join): a fresh incarnation
                        // dominates the dead/left record everywhere.
                        let incarnation = record.incarnation + 1;
                        self.view.apply(
                            node,
                            MemberRecord {
                                incarnation,
                                status: MemberStatus::Alive,
                            },
                        );
                        deltas.push(MembershipDelta::Join { node });
                    }
                }
            }
        }
        deltas
    }
}

/// The kind and epoch of a broker's single scheduled churn transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The broker is absent from the start and joins at this epoch.
    Join(u64),
    /// The broker leaves gracefully (announced) at this epoch.
    Leave(u64),
    /// The broker crash-dies (unannounced, custody lost) at this epoch.
    Death(u64),
}

/// A seeded schedule of broker membership churn.
///
/// Each non-protected broker is a *churner* with probability `rate`; every
/// churner gets exactly one transition, hash-assigned uniformly among late
/// join, graceful leave and crash death. Joins land in the first third of
/// the run, departures in the middle third — the final third measures
/// recovery. Protected brokers (publishers, anchor subscribers) never
/// churn.
///
/// Every query is a pure hash of `(seed, node)`; the model is `Copy` and
/// carries a 256-broker protection bitmask inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerChurnModel {
    rate: f64,
    horizon_epochs: u64,
    seed: u64,
    /// Bitmask of protected node indices (up to 256 brokers).
    protected: [u64; 4],
}

impl BrokerChurnModel {
    /// Creates a churn schedule over a run of `horizon_epochs` epochs where
    /// each broker churns with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or the horizon is shorter than
    /// 6 epochs (too short to fit join, departure and recovery windows).
    #[must_use]
    pub fn new(rate: f64, horizon_epochs: u64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "churn rate out of range: {rate}"
        );
        assert!(horizon_epochs >= 6, "churn horizon must be ≥ 6 epochs");
        BrokerChurnModel {
            rate,
            horizon_epochs,
            seed,
            protected: [0; 4],
        }
    }

    /// Marks `node` as protected (never churns). Supports node indices up
    /// to 255.
    ///
    /// # Panics
    ///
    /// Panics if the node index is ≥ 256.
    #[must_use]
    pub fn protect(mut self, node: NodeId) -> Self {
        let idx = node.index();
        assert!(idx < 256, "protection bitmask covers node indices < 256");
        self.protected[idx / 64] |= 1u64 << (idx % 64);
        self
    }

    /// Whether `node` is protected from churn.
    #[must_use]
    pub fn is_protected(&self, node: NodeId) -> bool {
        let idx = node.index();
        self.protected
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// The per-broker churn probability.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The run length the schedule was drawn for, in epochs.
    #[must_use]
    pub fn horizon_epochs(&self) -> u64 {
        self.horizon_epochs
    }

    /// Whether the schedule can never produce a transition.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rate <= 0.0
    }

    /// Draws an epoch uniformly from `[lo, hi)` (hash-deterministic).
    fn draw_epoch(&self, node: u64, salt: u64, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        let h = splitmix64(self.seed ^ splitmix64(node ^ salt));
        lo + h % (hi - lo)
    }

    /// The scheduled transition for `node`, if it is a churner.
    #[must_use]
    pub fn event(&self, node: NodeId) -> Option<ChurnEvent> {
        if self.rate <= 0.0 || self.is_protected(node) {
            return None;
        }
        let me = u64::from(node.index() as u32);
        if unit(splitmix64(self.seed ^ splitmix64(me ^ 0xC0A3))) >= self.rate {
            return None;
        }
        let third = (self.horizon_epochs / 3).max(2);
        let kind = splitmix64(self.seed ^ splitmix64(me ^ 0x7E57)) % 3;
        Some(match kind {
            0 => ChurnEvent::Join(self.draw_epoch(me, 0x10CA, 1, third)),
            1 => ChurnEvent::Leave(self.draw_epoch(me, 0x1EAF, third, 2 * third)),
            _ => ChurnEvent::Death(self.draw_epoch(me, 0xDEAD, third, 2 * third)),
        })
    }

    /// Whether `node` is part of the overlay during `epoch`.
    #[must_use]
    pub fn present_in_epoch(&self, node: NodeId, epoch: u64) -> bool {
        match self.event(node) {
            None => true,
            Some(ChurnEvent::Join(e)) => epoch >= e,
            Some(ChurnEvent::Leave(e)) | Some(ChurnEvent::Death(e)) => epoch < e,
        }
    }

    /// Whether `node` left gracefully at or before `epoch`.
    #[must_use]
    pub fn departed_in_epoch(&self, node: NodeId, epoch: u64) -> bool {
        matches!(self.event(node), Some(ChurnEvent::Leave(e)) if epoch >= e)
    }

    /// The epoch index containing `at` (1-second epochs, matching the other
    /// chaos models).
    #[must_use]
    pub fn epoch_index(at: SimTime) -> u64 {
        at.as_micros() / DEFAULT_EPOCH.as_micros()
    }

    /// Whether `node` is part of the overlay at instant `at`.
    #[must_use]
    pub fn present_at(&self, node: NodeId, at: SimTime) -> bool {
        self.present_in_epoch(node, Self::epoch_index(at))
    }

    /// Whether `node` is absent (not yet joined, left, or dead) at `at`.
    #[must_use]
    pub fn absent_at(&self, node: NodeId, at: SimTime) -> bool {
        !self.present_at(node, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn rec(incarnation: u64, status: MemberStatus) -> MemberRecord {
        MemberRecord {
            incarnation,
            status,
        }
    }

    #[test]
    fn lattice_prefers_higher_incarnation_then_severity() {
        let mut v = MembershipView::new();
        assert!(v.apply(n(0), rec(0, MemberStatus::Alive)));
        assert!(v.apply(n(0), rec(0, MemberStatus::Suspect)));
        // Same incarnation, lower severity: rejected.
        assert!(!v.apply(n(0), rec(0, MemberStatus::Alive)));
        // Higher incarnation beats any status.
        assert!(v.apply(n(0), rec(1, MemberStatus::Alive)));
        assert_eq!(v.record(n(0)), Some(rec(1, MemberStatus::Alive)));
        // Stale dead record at the old incarnation: rejected.
        assert!(!v.apply(n(0), rec(0, MemberStatus::Dead)));
        assert!(v.is_present(n(0)));
    }

    #[test]
    fn merge_is_order_insensitive() {
        let updates = [
            (n(0), rec(0, MemberStatus::Suspect)),
            (n(0), rec(1, MemberStatus::Alive)),
            (n(1), rec(0, MemberStatus::Dead)),
            (n(1), rec(0, MemberStatus::Suspect)),
            (n(2), rec(2, MemberStatus::Left)),
            (n(2), rec(3, MemberStatus::Alive)),
        ];
        let mut forward = MembershipView::new();
        for &(node, r) in &updates {
            forward.apply(node, r);
        }
        let mut backward = MembershipView::new();
        for &(node, r) in updates.iter().rev() {
            backward.apply(node, r);
        }
        assert_eq!(forward, backward);
        // Merging a view into itself is idempotent.
        let snapshot = forward.clone();
        forward.merge(&snapshot);
        assert_eq!(forward, snapshot);
    }

    #[test]
    fn absent_set_tracks_dead_and_left() {
        let mut v = MembershipView::new();
        v.apply(n(0), rec(0, MemberStatus::Alive));
        v.apply(n(1), rec(0, MemberStatus::Dead));
        v.apply(n(2), rec(0, MemberStatus::Left));
        v.apply(n(3), rec(0, MemberStatus::Suspect));
        let absent = v.absent_set();
        assert!(!absent.contains(n(0)));
        assert!(absent.contains(n(1)));
        assert!(absent.contains(n(2)));
        assert!(!absent.contains(n(3)), "suspects stay routable");
        assert_eq!(absent.len(), 2);
    }

    #[test]
    fn detector_confirms_a_dead_broker_after_the_window() {
        let config = SwimConfig {
            probe_loss: 0.0,
            suspicion_epochs: 3,
            ..SwimConfig::default()
        };
        let mut det = SwimDetector::new(4, |_| true, config);
        let dead = n(2);
        let truth = |node: NodeId| {
            if node == dead {
                GroundTruth::Down
            } else {
                GroundTruth::Up
            }
        };
        // Epoch 1: direct + indirect probes all fail → suspect, no delta.
        assert!(det.tick(1, truth).is_empty());
        assert_eq!(
            det.view().record(dead).map(|r| r.status),
            Some(MemberStatus::Suspect)
        );
        assert!(det.view().is_present(dead), "suspects are still members");
        // Epochs 2–3: still within the window.
        assert!(det.tick(2, truth).is_empty());
        assert!(det.tick(3, truth).is_empty());
        // Epoch 4: deadline (1 + 3) reached → confirmed.
        assert_eq!(
            det.tick(4, truth),
            vec![MembershipDelta::ConfirmDead { node: dead }]
        );
        assert!(!det.view().is_present(dead));
        assert!(det.view().absent_set().contains(dead));
    }

    #[test]
    fn false_suspicion_is_refuted_with_incarnation_bump() {
        // Find an epoch where node 1's direct and all indirect probes are
        // lost even though it is up, then let it refute next epoch.
        let config = SwimConfig {
            probe_loss: 0.6,
            indirect_probes: 2,
            suspicion_epochs: 5,
            seed: 77,
        };
        let mut det = SwimDetector::new(2, |_| true, config);
        let target = n(1);
        let mut suspected_at = None;
        for epoch in 1..400u64 {
            let deltas = det.tick(epoch, |_| GroundTruth::Up);
            let status = det.view().record(target).map(|r| r.status);
            if suspected_at.is_none() {
                if status == Some(MemberStatus::Suspect) {
                    suspected_at = Some(epoch);
                }
            } else if let Some(d) = deltas.iter().find(|d| d.node() == target) {
                match d {
                    MembershipDelta::Refute { incarnation, .. } => {
                        assert!(*incarnation >= 1, "refutation must bump incarnation");
                        assert!(det.view().is_present(target));
                        return;
                    }
                    MembershipDelta::ConfirmDead { .. } => {
                        // Possible but wildly unlikely at these parameters
                        // (requires ~15 consecutive all-lost epochs).
                        panic!("up broker confirmed dead before refuting");
                    }
                    _ => {}
                }
            }
        }
        panic!("no suspicion of an up broker in 400 epochs at 60% probe loss");
    }

    #[test]
    fn graceful_leave_and_rejoin_emit_leave_then_join() {
        let config = SwimConfig {
            probe_loss: 0.0,
            ..SwimConfig::default()
        };
        let mut det = SwimDetector::new(3, |_| true, config);
        let mover = n(1);
        let gone = |node: NodeId| {
            if node == mover {
                GroundTruth::Departed
            } else {
                GroundTruth::Up
            }
        };
        assert_eq!(
            det.tick(1, gone),
            vec![MembershipDelta::Leave { node: mover }]
        );
        assert!(!det.view().is_present(mover));
        // Still gone: no repeated delta.
        assert!(det.tick(2, gone).is_empty());
        // Comes back: join with bumped incarnation.
        assert_eq!(
            det.tick(3, |_| GroundTruth::Up),
            vec![MembershipDelta::Join { node: mover }]
        );
        assert!(det.view().is_present(mover));
        assert!(det.view().record(mover).map(|r| r.incarnation) >= Some(1));
    }

    #[test]
    fn late_member_joins_when_it_first_answers() {
        let config = SwimConfig {
            probe_loss: 0.0,
            ..SwimConfig::default()
        };
        let late = n(2);
        let mut det = SwimDetector::new(3, |node| node != late, config);
        assert!(!det.view().is_present(late));
        let absent = |node: NodeId| {
            if node == late {
                GroundTruth::Down
            } else {
                GroundTruth::Up
            }
        };
        assert!(det.tick(1, absent).is_empty());
        assert_eq!(
            det.tick(2, |_| GroundTruth::Up),
            vec![MembershipDelta::Join { node: late }]
        );
        assert!(det.view().is_present(late));
    }

    #[test]
    fn detector_is_deterministic() {
        let config = SwimConfig {
            probe_loss: 0.3,
            seed: 9,
            ..SwimConfig::default()
        };
        let run = || {
            let mut det = SwimDetector::new(6, |_| true, config);
            let mut all = Vec::new();
            for epoch in 1..50u64 {
                let truth = |node: NodeId| {
                    if node.index() == 3 && (10..20).contains(&epoch) {
                        GroundTruth::Down
                    } else {
                        GroundTruth::Up
                    }
                };
                all.extend(det.tick(epoch, truth));
            }
            all
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn churn_schedule_is_consistent() {
        let m = BrokerChurnModel::new(0.5, 60, 42).protect(n(0));
        assert!(m.event(n(0)).is_none(), "protected brokers never churn");
        assert!(m.is_protected(n(0)));
        let mut churners = 0;
        for i in 0..32u32 {
            let node = n(i);
            match m.event(node) {
                None => {
                    for epoch in 0..60 {
                        assert!(m.present_in_epoch(node, epoch));
                        assert!(!m.departed_in_epoch(node, epoch));
                    }
                }
                Some(ChurnEvent::Join(e)) => {
                    churners += 1;
                    assert!((1..20).contains(&e), "join epoch {e} outside first third");
                    assert!(!m.present_in_epoch(node, e - 1));
                    assert!(m.present_in_epoch(node, e));
                    assert!(!m.departed_in_epoch(node, 59));
                }
                Some(ChurnEvent::Leave(e)) => {
                    churners += 1;
                    assert!(
                        (20..40).contains(&e),
                        "leave epoch {e} outside middle third"
                    );
                    assert!(m.present_in_epoch(node, e - 1));
                    assert!(!m.present_in_epoch(node, e));
                    assert!(!m.departed_in_epoch(node, e - 1));
                    assert!(m.departed_in_epoch(node, e));
                }
                Some(ChurnEvent::Death(e)) => {
                    churners += 1;
                    assert!(
                        (20..40).contains(&e),
                        "death epoch {e} outside middle third"
                    );
                    assert!(!m.present_in_epoch(node, e));
                    assert!(
                        !m.departed_in_epoch(node, e),
                        "a death is no graceful leave"
                    );
                }
            }
        }
        assert!(
            (8..=24).contains(&churners),
            "about half of 32 brokers should churn, got {churners}"
        );
    }

    #[test]
    fn churn_zero_rate_is_empty() {
        let m = BrokerChurnModel::new(0.0, 30, 7);
        assert!(m.is_empty());
        for i in 0..16u32 {
            assert!(m.event(n(i)).is_none());
        }
        assert!(!BrokerChurnModel::new(0.4, 30, 7).is_empty());
    }

    #[test]
    fn churn_instant_queries_match_epoch_queries() {
        let m = BrokerChurnModel::new(0.6, 40, 3);
        for i in 0..16u32 {
            for epoch in 0..40u64 {
                let mid = SimTime::from_secs(epoch) + dcrd_sim::SimDuration::from_millis(500);
                assert_eq!(m.present_at(n(i), mid), m.present_in_epoch(n(i), epoch));
                assert_eq!(m.absent_at(n(i), mid), !m.present_in_epoch(n(i), epoch));
            }
        }
    }
}
