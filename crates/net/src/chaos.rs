//! Correlated chaos failure models (partitions, crash-restart brokers,
//! gray links).
//!
//! The paper's evaluation stresses DCRD with *independent* per-epoch link
//! failures only; its conclusion names node failures and correlated outages
//! as the open threat model. This module supplies those scenarios as
//! deterministic, seed-reproducible fault injectors:
//!
//! * [`PartitionModel`] — seeded graph cuts that isolate a fixed fraction of
//!   brokers for a configurable window, recurring each period. The isolated
//!   set is chosen by hash rank, so the requested fraction is hit *exactly*
//!   (not just in expectation) every cycle.
//! * [`CrashRestartModel`] — fail-stop broker crashes with geometric
//!   downtime. Unlike [`NodeFailureModel`](crate::failure::NodeFailureModel)
//!   (which only blocks traffic), a crash is expected to also wipe the
//!   broker's in-flight router state: the runtime queries
//!   [`CrashRestartModel::restarted_at_epoch`] at epoch boundaries and
//!   notifies the routing strategy.
//! * [`GrayLinkModel`] — links that are degraded in **one direction only**
//!   (extra loss and delay inflation), the classic "gray failure" that
//!   symmetric models cannot express.
//!
//! Like the epoch model in [`failure`](crate::failure), every query is a
//! pure hash of `(seed, entity, epoch/cycle)` — O(n) worst case for
//! partition rank, O(max downtime) for crashes — with no shared mutable
//! state, so a chaos run is reproducible from its seed alone. A run that
//! asks per event goes through [`FailureView`](crate::failure::FailureView),
//! which memoizes these answers per epoch and cycle.

use dcrd_sim::rng::{splitmix64, unit};
use dcrd_sim::{SimDuration, SimTime};

use crate::failure::DEFAULT_EPOCH;
use crate::graph::{EdgeId, NodeId, Topology};
use crate::loss::LossModel;
use crate::membership::BrokerChurnModel;

/// Recurring network partitions: every `period`, a hash-selected region of
/// `fraction` of the brokers is cut off from the rest for `window`.
///
/// During an active window, every edge with **exactly one** endpoint inside
/// the isolated region is blocked in both directions; edges internal to
/// either side keep working. The isolated set is re-drawn each cycle, so
/// consecutive partitions hit different regions.
///
/// # Example
///
/// ```
/// use dcrd_net::chaos::PartitionModel;
/// use dcrd_sim::{SimDuration, SimTime};
///
/// let p = PartitionModel::new(
///     0.3,
///     SimDuration::from_secs(30),
///     SimDuration::from_secs(60),
///     7,
/// );
/// assert!(p.active(SimTime::from_secs(10)));   // inside the window
/// assert!(!p.active(SimTime::from_secs(45)));  // healed
/// assert_eq!(p.isolated_count(20), 6);         // exactly ceil(0.3 × 20)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionModel {
    fraction: f64,
    window: SimDuration,
    period: SimDuration,
    seed: u64,
}

impl PartitionModel {
    /// Creates a partition model isolating `fraction` of the brokers for
    /// `window` out of every `period`, starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1)`, the window is zero, or the
    /// window exceeds the period.
    #[must_use]
    pub fn new(fraction: f64, window: SimDuration, period: SimDuration, seed: u64) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "partition fraction out of range: {fraction}"
        );
        assert!(
            window > SimDuration::ZERO,
            "partition window must be positive"
        );
        assert!(
            window <= period,
            "partition window must not exceed the period"
        );
        PartitionModel {
            fraction,
            window,
            period,
            seed,
        }
    }

    /// The fraction of brokers isolated per cycle.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// The length of each partition window.
    #[must_use]
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// The cycle length (window + healed gap).
    #[must_use]
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The partition cycle containing `at`.
    #[must_use]
    pub fn cycle_index(&self, at: SimTime) -> u64 {
        at.as_micros() / self.period.as_micros()
    }

    /// Whether a partition window is active at `at`.
    #[must_use]
    pub fn active(&self, at: SimTime) -> bool {
        at.as_micros() % self.period.as_micros() < self.window.as_micros()
    }

    /// The number of brokers isolated per active window in an `n`-broker
    /// overlay: `ceil(fraction × n)`, clamped to `[1, n − 1]` so both sides
    /// of the cut are always non-empty.
    #[must_use]
    pub fn isolated_count(&self, n: usize) -> usize {
        if n < 2 {
            return 0;
        }
        let k = (self.fraction * n as f64).ceil() as usize;
        k.clamp(1, n - 1)
    }

    /// The hash ranking key of `node` for the cycle containing `at`. Lower
    /// keys are isolated first; ties break by node id.
    fn rank_key(&self, node: u64, cycle: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(node ^ 0x9A97) ^ splitmix64(cycle ^ 0x7171))
    }

    /// Whether `node` is inside the isolated region at `at` (always `false`
    /// outside an active window). `n` is the overlay's broker count.
    #[must_use]
    pub fn is_isolated(&self, node: NodeId, at: SimTime, n: usize) -> bool {
        if !self.active(at) {
            return false;
        }
        let k = self.isolated_count(n);
        if k == 0 {
            return false;
        }
        let cycle = self.cycle_index(at);
        let me = node.index() as u64;
        let mine = self.rank_key(me, cycle);
        // `node` is isolated iff its key ranks among the k smallest.
        let rank = (0..n as u64)
            .filter(|&other| {
                let key = self.rank_key(other, cycle);
                key < mine || (key == mine && other < me)
            })
            .count();
        rank < k
    }

    /// Whether the active partition (if any) cuts `edge`: exactly one
    /// endpoint is inside the isolated region.
    #[must_use]
    pub fn cuts(&self, topo: &Topology, edge: EdgeId, at: SimTime) -> bool {
        if !self.active(at) {
            return false;
        }
        let n = topo.num_nodes();
        let e = topo.edge(edge);
        self.is_isolated(e.a(), at, n) != self.is_isolated(e.b(), at, n)
    }
}

/// Fail-stop broker crashes with restart: each epoch a broker crashes with
/// probability `pc`, stays down for a geometric number of epochs, then
/// restarts **with all in-flight router state lost**.
///
/// While down, the broker drops every packet and ACK addressed to it (the
/// same observable behavior as
/// [`NodeFailureModel`](crate::failure::NodeFailureModel)); the difference
/// is the restart: the runtime detects up-transitions via
/// [`restarted_at_epoch`](CrashRestartModel::restarted_at_epoch) and tells
/// the routing strategy to discard that broker's volatile state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashRestartModel {
    pc: f64,
    mean_down: f64,
    max_down: u64,
    seed: u64,
    epoch: SimDuration,
}

impl CrashRestartModel {
    /// Creates a model where each broker crashes with probability `pc` per
    /// 1-second epoch and stays down `mean_down_epochs` epochs on average
    /// (geometric, capped at 8× the mean).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is outside `[0, 1]` or `mean_down_epochs < 1`.
    #[must_use]
    pub fn new(pc: f64, mean_down_epochs: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&pc),
            "crash probability out of range: {pc}"
        );
        assert!(mean_down_epochs >= 1.0, "mean downtime must be ≥ 1 epoch");
        CrashRestartModel {
            pc,
            mean_down: mean_down_epochs,
            max_down: (mean_down_epochs * 8.0).ceil() as u64,
            seed,
            epoch: DEFAULT_EPOCH,
        }
    }

    /// The per-epoch crash probability.
    #[must_use]
    pub fn pc(&self) -> f64 {
        self.pc
    }

    /// The mean downtime in epochs.
    #[must_use]
    pub fn mean_down_epochs(&self) -> f64 {
        self.mean_down
    }

    /// The epoch index containing `at`.
    #[must_use]
    pub fn epoch_index(&self, at: SimTime) -> u64 {
        at.as_micros() / self.epoch.as_micros()
    }

    /// The epoch length.
    pub(crate) fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// Downtime in epochs of the crash starting at `(node, epoch)`, if one
    /// starts there.
    fn crash_len(&self, node: u64, epoch: u64) -> Option<u64> {
        if self.pc <= 0.0 {
            return None;
        }
        let h = splitmix64(self.seed ^ splitmix64(node ^ 0xC4A5) ^ splitmix64(epoch ^ 0x3E3E));
        if unit(h) >= self.pc {
            return None;
        }
        if self.mean_down <= 1.0 {
            return Some(1);
        }
        // Geometric with mean `mean_down`: P(L > k) = (1 - 1/mean)^k.
        let u = unit(splitmix64(h ^ 0xD0D0_CAFE));
        let q = 1.0 - 1.0 / self.mean_down;
        let len = 1 + (u.max(1e-12).ln() / q.ln()).floor() as u64;
        Some(len.min(self.max_down))
    }

    /// Whether `node` is down during epoch `epoch`.
    #[must_use]
    pub fn is_down_in_epoch(&self, node: NodeId, epoch: u64) -> bool {
        let me = node.index() as u64;
        let lookback = epoch.min(self.max_down.saturating_sub(1));
        (0..=lookback).any(|back| {
            self.crash_len(me, epoch - back)
                .is_some_and(|len| len > back)
        })
    }

    /// Whether `node` is down at instant `at`.
    #[must_use]
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.is_down_in_epoch(node, self.epoch_index(at))
    }

    /// Whether `node` restarts at the *start* of epoch `epoch`: it was down
    /// in the previous epoch and is up in this one. The runtime calls this
    /// at each epoch boundary to trigger state-loss notifications.
    #[must_use]
    pub fn restarted_at_epoch(&self, node: NodeId, epoch: u64) -> bool {
        epoch > 0 && self.is_down_in_epoch(node, epoch - 1) && !self.is_down_in_epoch(node, epoch)
    }
}

/// Gray links: a static, hash-selected subset of edges is degraded in one
/// direction only — extra loss and inflated delay for transmissions going
/// the "bad way", perfect service the other way.
///
/// Gray membership and direction are fixed for the whole run (gray failures
/// are long-lived in practice); which edges are gray depends only on the
/// seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayLinkModel {
    fraction: f64,
    extra_loss: LossModel,
    delay_factor: f64,
    seed: u64,
}

impl GrayLinkModel {
    /// Creates a model graying `fraction` of the edges, adding `extra_loss`
    /// drop probability and multiplying delay by `delay_factor` in the
    /// degraded direction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` or `extra_loss` is outside `[0, 1]`, or
    /// `delay_factor < 1`.
    #[must_use]
    pub fn new(fraction: f64, extra_loss: f64, delay_factor: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "gray fraction out of range: {fraction}"
        );
        assert!(
            (0.0..=1.0).contains(&extra_loss),
            "gray extra loss out of range: {extra_loss}"
        );
        assert!(delay_factor >= 1.0, "gray delay factor must be ≥ 1");
        GrayLinkModel {
            fraction,
            extra_loss: LossModel::new(extra_loss),
            delay_factor,
            seed,
        }
    }

    /// The fraction of edges that are gray.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Additional per-transmission drop probability in the degraded
    /// direction.
    #[must_use]
    pub fn extra_loss(&self) -> f64 {
        self.extra_loss.pl()
    }

    /// The extra loss as the model that draws it.
    pub(crate) fn loss(&self) -> &LossModel {
        &self.extra_loss
    }

    /// Delay multiplier in the degraded direction.
    #[must_use]
    pub fn delay_factor(&self) -> f64 {
        self.delay_factor
    }

    /// Whether `edge` is gray (static for the run).
    #[must_use]
    pub fn is_gray(&self, edge: EdgeId) -> bool {
        if self.fraction <= 0.0 {
            return false;
        }
        if self.fraction >= 1.0 {
            return true;
        }
        unit(splitmix64(
            self.seed ^ splitmix64(edge.index() as u64 ^ 0x6A6A),
        )) < self.fraction
    }

    /// Whether a transmission over `edge` sent by `from` travels in the
    /// degraded direction. At most one direction of a gray edge degrades;
    /// non-gray edges never do.
    #[must_use]
    pub fn degrades(&self, topo: &Topology, edge: EdgeId, from: NodeId) -> bool {
        if !self.is_gray(edge) {
            return false;
        }
        let e = topo.edge(edge);
        let a_to_b = splitmix64(self.seed ^ splitmix64(edge.index() as u64 ^ 0x0D1F)) & 1 == 0;
        if a_to_b {
            from == e.a()
        } else {
            from == e.b()
        }
    }
}

/// The combined chaos injector: any subset of partition, crash-restart,
/// gray-link, and broker-churn models, queried together.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosModel {
    partition: Option<PartitionModel>,
    crashes: Option<CrashRestartModel>,
    gray: Option<GrayLinkModel>,
    churn: Option<BrokerChurnModel>,
}

impl ChaosModel {
    /// An empty injector (no chaos).
    #[must_use]
    pub fn none() -> Self {
        ChaosModel::default()
    }

    /// Adds recurring partitions.
    #[must_use]
    pub fn with_partition(mut self, partition: PartitionModel) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Adds crash-restart broker failures.
    #[must_use]
    pub fn with_crashes(mut self, crashes: CrashRestartModel) -> Self {
        self.crashes = Some(crashes);
        self
    }

    /// Adds gray links.
    #[must_use]
    pub fn with_gray(mut self, gray: GrayLinkModel) -> Self {
        self.gray = Some(gray);
        self
    }

    /// Adds broker membership churn (late joins, graceful leaves, crash
    /// deaths). An empty schedule (rate 0) is normalized away.
    #[must_use]
    pub fn with_churn(mut self, churn: BrokerChurnModel) -> Self {
        self.churn = (!churn.is_empty()).then_some(churn);
        self
    }

    /// Whether no chaos component is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.partition.is_none()
            && self.crashes.is_none()
            && self.gray.is_none()
            && self.churn.is_none()
    }

    /// The partition component, if configured.
    #[must_use]
    pub fn partition(&self) -> Option<&PartitionModel> {
        self.partition.as_ref()
    }

    /// The crash-restart component, if configured.
    #[must_use]
    pub fn crashes(&self) -> Option<&CrashRestartModel> {
        self.crashes.as_ref()
    }

    /// The gray-link component, if configured.
    #[must_use]
    pub fn gray(&self) -> Option<&GrayLinkModel> {
        self.gray.as_ref()
    }

    /// The broker-churn component, if configured.
    #[must_use]
    pub fn churn(&self) -> Option<&BrokerChurnModel> {
        self.churn.as_ref()
    }

    /// Whether a transmission over `edge` at `at` is blocked by chaos: the
    /// partition cuts it, either endpoint is crash-down, or either endpoint
    /// has churned out of the overlay.
    #[must_use]
    pub fn edge_blocked(&self, topo: &Topology, edge: EdgeId, at: SimTime) -> bool {
        if let Some(p) = &self.partition {
            if p.cuts(topo, edge, at) {
                return true;
            }
        }
        if let Some(c) = &self.crashes {
            let e = topo.edge(edge);
            if c.is_down(e.a(), at) || c.is_down(e.b(), at) {
                return true;
            }
        }
        if let Some(ch) = &self.churn {
            let e = topo.edge(edge);
            if ch.absent_at(e.a(), at) || ch.absent_at(e.b(), at) {
                return true;
            }
        }
        false
    }

    /// Whether `node` is not operating at `at`: crash-down, or absent under
    /// the churn schedule (not yet joined, left, or dead). Partitioned
    /// nodes are *not* down — they are alive but unreachable.
    #[must_use]
    pub fn node_down(&self, node: NodeId, at: SimTime) -> bool {
        self.crashes.is_some_and(|c| c.is_down(node, at))
            || self.churn.is_some_and(|ch| ch.absent_at(node, at))
    }

    /// Whether `node` restarts at the start of epoch `epoch` (losing its
    /// volatile router state).
    #[must_use]
    pub fn restarted_at_epoch(&self, node: NodeId, epoch: u64) -> bool {
        self.crashes
            .is_some_and(|c| c.restarted_at_epoch(node, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{full_mesh, DelayRange};
    use dcrd_sim::rng::rng_for;

    fn partition() -> PartitionModel {
        PartitionModel::new(
            0.3,
            SimDuration::from_secs(30),
            SimDuration::from_secs(60),
            7,
        )
    }

    #[test]
    fn partition_window_schedule() {
        let p = partition();
        assert!(p.active(SimTime::ZERO));
        assert!(p.active(SimTime::from_millis(29_999)));
        assert!(!p.active(SimTime::from_secs(30)));
        assert!(!p.active(SimTime::from_millis(59_999)));
        assert!(p.active(SimTime::from_secs(60)));
        assert_eq!(p.cycle_index(SimTime::from_secs(59)), 0);
        assert_eq!(p.cycle_index(SimTime::from_secs(60)), 1);
    }

    #[test]
    fn partition_isolates_exact_count() {
        let p = partition();
        assert_eq!(p.isolated_count(20), 6);
        assert_eq!(p.isolated_count(15), 5);
        assert_eq!(p.isolated_count(1), 0);
        // Never isolates everyone.
        let all = PartitionModel::new(
            0.99,
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            1,
        );
        assert_eq!(all.isolated_count(10), 9);
        for n in [2usize, 5, 20, 50] {
            let t = SimTime::from_secs(5);
            let isolated = (0..n)
                .filter(|&i| p.is_isolated(NodeId::new(i as u32), t, n))
                .count();
            assert_eq!(isolated, p.isolated_count(n), "n = {n}");
        }
    }

    #[test]
    fn partition_heals_outside_window() {
        let p = partition();
        let t = SimTime::from_secs(45);
        for i in 0..20u32 {
            assert!(!p.is_isolated(NodeId::new(i), t, 20));
        }
    }

    #[test]
    fn partition_redraws_each_cycle() {
        let p = partition();
        let first: Vec<bool> = (0..20u32)
            .map(|i| p.is_isolated(NodeId::new(i), SimTime::from_secs(5), 20))
            .collect();
        let mut differs = false;
        for cycle in 1..16u64 {
            let t = SimTime::from_secs(cycle * 60 + 5);
            let set: Vec<bool> = (0..20u32)
                .map(|i| p.is_isolated(NodeId::new(i), t, 20))
                .collect();
            if set != first {
                differs = true;
                break;
            }
        }
        assert!(differs, "isolated set never changed across cycles");
    }

    #[test]
    fn partition_cuts_only_crossing_edges() {
        let mut rng = rng_for(3, "chaos-topo");
        let topo = full_mesh(10, DelayRange::PAPER, &mut rng);
        let p = partition();
        let t = SimTime::from_secs(2);
        let mut cut = 0;
        for e in topo.edge_ids() {
            let edge = topo.edge(e);
            let a = p.is_isolated(edge.a(), t, topo.num_nodes());
            let b = p.is_isolated(edge.b(), t, topo.num_nodes());
            assert_eq!(p.cuts(&topo, e, t), a != b);
            if a != b {
                cut += 1;
            }
        }
        // ceil(0.3 × 10) = 3 isolated; in a full mesh that cuts 3 × 7 edges.
        assert_eq!(cut, 21);
        // Healed: nothing cut.
        for e in topo.edge_ids() {
            assert!(!p.cuts(&topo, e, SimTime::from_secs(40)));
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let a = partition();
        let b = partition();
        for s in 0..120u64 {
            let t = SimTime::from_secs(s);
            for i in 0..20u32 {
                assert_eq!(
                    a.is_isolated(NodeId::new(i), t, 20),
                    b.is_isolated(NodeId::new(i), t, 20)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn partition_rejects_bad_fraction() {
        let _ = PartitionModel::new(1.0, SimDuration::from_secs(1), SimDuration::from_secs(2), 0);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn partition_rejects_window_longer_than_period() {
        let _ = PartitionModel::new(0.5, SimDuration::from_secs(3), SimDuration::from_secs(2), 0);
    }

    #[test]
    fn crash_restart_downtime_and_recovery() {
        let m = CrashRestartModel::new(0.2, 3.0, 11);
        let node = NodeId::new(4);
        // Find a crash and check the down → up transition is flagged once.
        let mut restarts = 0u64;
        let mut down_epochs = 0u64;
        for epoch in 1..2000u64 {
            if m.is_down_in_epoch(node, epoch) {
                down_epochs += 1;
            }
            if m.restarted_at_epoch(node, epoch) {
                restarts += 1;
                assert!(m.is_down_in_epoch(node, epoch - 1));
                assert!(!m.is_down_in_epoch(node, epoch));
            }
        }
        assert!(restarts > 0, "no restart observed in 2000 epochs");
        assert!(
            down_epochs > restarts,
            "downtime should span multiple epochs"
        );
        // Downtime fraction ≈ pc × mean (minus overlap), so well above pc.
        let rate = down_epochs as f64 / 2000.0;
        assert!(rate > 0.2, "downtime fraction {rate} too low");
    }

    #[test]
    fn crash_restart_is_down_matches_epoch_query() {
        let m = CrashRestartModel::new(0.3, 2.0, 5);
        for epoch in 0..100u64 {
            let mid = SimTime::from_secs(epoch) + SimDuration::from_millis(500);
            assert_eq!(
                m.is_down(NodeId::new(1), mid),
                m.is_down_in_epoch(NodeId::new(1), epoch)
            );
        }
    }

    #[test]
    fn crash_restart_zero_rate_never_crashes() {
        let m = CrashRestartModel::new(0.0, 4.0, 9);
        for epoch in 0..200u64 {
            assert!(!m.is_down_in_epoch(NodeId::new(0), epoch));
            assert!(!m.restarted_at_epoch(NodeId::new(0), epoch));
        }
    }

    #[test]
    fn gray_links_are_static_and_one_directional() {
        let mut rng = rng_for(5, "gray-topo");
        let topo = full_mesh(8, DelayRange::PAPER, &mut rng);
        let g = GrayLinkModel::new(0.4, 0.3, 3.0, 13);
        let mut gray_edges = 0;
        for e in topo.edge_ids() {
            let edge = topo.edge(e);
            let forward = g.degrades(&topo, e, edge.a());
            let backward = g.degrades(&topo, e, edge.b());
            if g.is_gray(e) {
                gray_edges += 1;
                // Exactly one direction is degraded.
                assert!(forward != backward, "gray edge must degrade one way");
            } else {
                assert!(!forward && !backward);
            }
        }
        assert!(gray_edges > 0, "no gray edges at fraction 0.4");
        assert!(
            gray_edges < topo.num_edges(),
            "every edge gray at fraction 0.4"
        );
    }

    #[test]
    fn gray_extremes() {
        let none = GrayLinkModel::new(0.0, 0.5, 2.0, 1);
        let all = GrayLinkModel::new(1.0, 0.5, 2.0, 1);
        for i in 0..50u32 {
            assert!(!none.is_gray(EdgeId::new(i)));
            assert!(all.is_gray(EdgeId::new(i)));
        }
        assert!((all.extra_loss() - 0.5).abs() < 1e-12);
        assert!((all.delay_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn chaos_combinator_blocks_cuts_and_crashes() {
        let mut rng = rng_for(9, "combi-topo");
        let topo = full_mesh(6, DelayRange::PAPER, &mut rng);
        let chaos = ChaosModel::none()
            .with_partition(PartitionModel::new(
                0.34,
                SimDuration::from_secs(10),
                SimDuration::from_secs(20),
                3,
            ))
            .with_crashes(CrashRestartModel::new(0.1, 2.0, 3));
        assert!(!chaos.is_empty());
        assert!(ChaosModel::none().is_empty());
        let t = SimTime::from_secs(2);
        for e in topo.edge_ids() {
            let edge = topo.edge(e);
            let expect = chaos.partition().unwrap().cuts(&topo, e, t)
                || chaos.node_down(edge.a(), t)
                || chaos.node_down(edge.b(), t);
            assert_eq!(chaos.edge_blocked(&topo, e, t), expect);
        }
        // At least one edge must be cut during the window in a 6-node mesh
        // (2 isolated × 4 others = 8 crossing edges).
        assert!(topo.edge_ids().any(|e| chaos.edge_blocked(&topo, e, t)));
    }
}
