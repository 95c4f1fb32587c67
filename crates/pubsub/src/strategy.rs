//! The routing-strategy interface.
//!
//! A [`RoutingStrategy`] implements the forwarding logic of every broker in
//! the overlay. The runtime drives it through event callbacks; the strategy
//! responds with [`Action`]s. The callbacks expose only information a real
//! broker would have locally (the packet it received, its own timers, ACKs
//! from its neighbors) — except that the [`SetupContext`] also hands over a
//! global failure oracle, which **only** the ORACLE baseline is allowed to
//! consult.

use dcrd_net::estimate::LinkEstimates;
use dcrd_net::failure::FailureModel;
use dcrd_net::membership::MembershipDelta;
use dcrd_net::{NodeId, Topology};
use dcrd_sim::{SimDuration, SimTime};

use crate::packet::{Packet, PacketId};
use crate::workload::Workload;

/// Per-run parameters shared by all strategies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Number of transmissions a broker attempts on one link before giving
    /// up on that neighbor (the paper's `m`; default 1).
    pub m: u32,
    /// ACK timeout as a multiple of the link's expected one-way delay `α`.
    /// The paper waits "α" (§III-D), which matches the runtime's default
    /// instant-ACK transit model; use ≥ 2.0 with the round-trip ACK model.
    pub ack_timeout_factor: f64,
    /// The publish horizon: no message is published at or after this time
    /// (the runtime injects its configured duration here). Recovery sweeps
    /// use it to avoid NACKing sequence numbers that were never published
    /// because the run ended. Static workload knowledge, so strategies may
    /// consult it without breaking honest locality.
    pub horizon: SimDuration,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            m: 1,
            ack_timeout_factor: 1.0,
            horizon: SimDuration::MAX,
        }
    }
}

/// Everything a strategy may precompute from before the run starts.
#[derive(Debug, Clone, Copy)]
pub struct SetupContext<'a> {
    /// The overlay topology.
    pub topology: &'a Topology,
    /// Long-run link quality estimates `⟨α, γ⟩` (what monitoring reports).
    pub estimates: &'a LinkEstimates,
    /// The static workload (topics, publishers, subscriptions, deadlines).
    pub workload: &'a Workload,
    /// Global failure oracle. **Only the ORACLE baseline may use this**;
    /// every other strategy must route from `estimates` and runtime
    /// feedback alone.
    pub failure_oracle: &'a FailureModel,
    /// Shared per-run parameters.
    pub params: RunParams,
}

/// A timer handle: `(message, strategy-chosen tag)`. Strategies typically
/// put a send sequence number in the tag and ignore stale firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerKey {
    /// The message the timer belongs to.
    pub packet: PacketId,
    /// Strategy-private discriminator.
    pub tag: u64,
}

/// One instruction from a strategy back to the runtime.
#[derive(Debug, Clone)]
pub enum Action {
    /// Transmit `packet` to the neighboring broker `to`. The runtime
    /// simulates the link (failure epoch, random loss, propagation delay)
    /// and the hop-by-hop ACK, then calls `on_packet` at the receiver /
    /// `on_ack` at the sender as appropriate.
    Send {
        /// The neighbor to transmit to (must share a link with the acting
        /// node).
        to: NodeId,
        /// The packet copy to put on the wire.
        packet: Packet,
    },
    /// Deliver the message to the local subscriber on the acting node. The
    /// runtime records the delivery time against the subscription deadline.
    Deliver {
        /// The message being delivered.
        packet: PacketId,
    },
    /// Arrange for `on_timer` to fire at `at` with `key`.
    SetTimer {
        /// Absolute firing time.
        at: SimTime,
        /// Echoed back to `on_timer`.
        key: TimerKey,
    },
    /// Give up on reaching `destination` with this message (accounting
    /// only — helps distinguish "gave up" from "still in flight").
    GiveUp {
        /// The message being abandoned.
        packet: PacketId,
        /// The subscriber that will not be reached.
        destination: NodeId,
    },
    /// A duplicate copy reached the local subscriber and was absorbed by the
    /// dedup window instead of being delivered again (recovery mode only:
    /// crash replay and NACK re-sends legitimately produce extra copies).
    /// Accounting only — the auditor counts these as benign.
    Suppress {
        /// The message whose duplicate copy was suppressed.
        packet: PacketId,
    },
}

/// Action sink handed to every callback; actions execute in push order.
#[derive(Debug, Default)]
pub struct Actions {
    items: Vec<Action>,
}

impl Actions {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Actions::default()
    }

    /// Queues a transmission to a neighbor.
    pub fn send(&mut self, to: NodeId, packet: Packet) {
        self.items.push(Action::Send { to, packet });
    }

    /// Queues a local delivery.
    pub fn deliver(&mut self, packet: PacketId) {
        self.items.push(Action::Deliver { packet });
    }

    /// Queues a timer.
    pub fn set_timer(&mut self, at: SimTime, key: TimerKey) {
        self.items.push(Action::SetTimer { at, key });
    }

    /// Queues a give-up notice.
    pub fn give_up(&mut self, packet: PacketId, destination: NodeId) {
        self.items.push(Action::GiveUp {
            packet,
            destination,
        });
    }

    /// Queues a duplicate-suppression notice.
    pub fn suppress(&mut self, packet: PacketId) {
        self.items.push(Action::Suppress { packet });
    }

    /// Drains the queued actions (runtime-side).
    pub fn drain(&mut self) -> impl Iterator<Item = Action> + '_ {
        self.items.drain(..)
    }

    /// Number of queued actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no actions are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Forwarding logic for every broker in the overlay.
///
/// One strategy value serves all nodes; each callback names the acting node
/// and must only use that node's local knowledge (plus whatever the strategy
/// legitimately precomputed in [`setup`](RoutingStrategy::setup)).
pub trait RoutingStrategy {
    /// Short human-readable name (used in reports).
    fn name(&self) -> &'static str;

    /// Called once before the run starts.
    fn setup(&mut self, ctx: &SetupContext<'_>);

    /// The broker `node` publishes a fresh message, already wrapped in a
    /// packet whose `destinations` are the topic's subscribers.
    fn on_publish(&mut self, node: NodeId, packet: Packet, now: SimTime, out: &mut Actions);

    /// A data packet arrived at `node` from neighbor `from` (the runtime has
    /// already returned the hop-by-hop ACK to `from`).
    fn on_packet(
        &mut self,
        node: NodeId,
        from: NodeId,
        packet: Packet,
        now: SimTime,
        out: &mut Actions,
    );

    /// The hop-by-hop ACK for a packet `node` earlier sent to `to` arrived.
    /// `packet` is the [`Packet::ack_view`] of the copy that was sent: its
    /// message identity (`id` and the rest of the shared body) and its
    /// `tag`. An ACK echoes no routing header, so `kind` reads
    /// [`PacketKind::Data`](crate::packet::PacketKind::Data) and the
    /// destinations, path and route are empty; a strategy that needs them
    /// looks its own send up by `tag`.
    fn on_ack(
        &mut self,
        node: NodeId,
        to: NodeId,
        packet: &Packet,
        now: SimTime,
        out: &mut Actions,
    );

    /// A timer set earlier by `node` fired.
    fn on_timer(&mut self, node: NodeId, key: TimerKey, now: SimTime, out: &mut Actions);

    /// Fresh monitoring estimates arrived (every monitoring interval —
    /// 5 minutes in the paper). Default: ignore.
    fn on_monitor(&mut self, estimates: &LinkEstimates, now: SimTime) {
        let _ = (estimates, now);
    }

    /// A batch of membership deltas from the runtime's failure detector
    /// (broker churn only): joins, announced leaves, confirmed deaths and
    /// refuted suspicions, in detection order. Membership-aware strategies
    /// repair their routing state here; everyone else ignores it. Default:
    /// ignore.
    fn on_membership(&mut self, deltas: &[MembershipDelta], now: SimTime) {
        let _ = (deltas, now);
    }

    /// A batch of membership deltas whose rumors finished their epidemic
    /// spread: with gossip dissemination armed, the runtime routes
    /// detector output through the gossip overlay and delivers it here
    /// only once every present broker has learned it (convergence
    /// gating), in rumor-submission order. Strategies apply them exactly
    /// like [`on_membership`](Self::on_membership) deltas — the
    /// difference is *when* they arrive, not what they mean. Default:
    /// ignore.
    fn on_gossip(&mut self, deltas: &[MembershipDelta], now: SimTime) {
        let _ = (deltas, now);
    }

    /// Periodic housekeeping tick for broker `node` (driven by the chaos
    /// epoch clock, once per epoch per live node). Recovery-capable
    /// strategies run their gap-detection sweep here; everyone else ignores
    /// it. Default: ignore.
    fn on_tick(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        let _ = (node, now, out);
    }

    /// Broker `node` restarted after a crash (chaos crash-restart model):
    /// all of its volatile, in-flight router state is gone. Strategies
    /// holding per-broker packet state must discard `node`'s share of it;
    /// durable state (routing tables, subscriber delivery records) survives.
    /// Default: ignore (stateless strategies have nothing to lose).
    fn on_restart(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        let _ = (node, now, out);
    }
}

/// Processing slack added to every ACK timeout so that an ACK arriving at
/// exactly the round-trip time is not raced by its own timer (and to absorb
/// small under-estimates of `α` from online monitoring).
pub const ACK_TIMEOUT_SLACK: SimDuration = SimDuration::from_millis(1);

/// Helper: the ACK timeout for a link with expected one-way delay `alpha`:
/// `factor × α` plus [`ACK_TIMEOUT_SLACK`].
#[must_use]
pub fn ack_timeout(alpha: SimDuration, params: &RunParams) -> SimDuration {
    alpha.mul_f64(params.ack_timeout_factor) + ACK_TIMEOUT_SLACK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicId;

    #[test]
    fn actions_preserve_push_order() {
        let mut a = Actions::new();
        assert!(a.is_empty());
        let pkt = Packet::new(
            PacketId::new(1),
            TopicId::new(0),
            NodeId::new(0),
            SimTime::ZERO,
            vec![NodeId::new(1)],
        );
        a.deliver(pkt.id);
        a.send(NodeId::new(1), pkt.clone());
        a.set_timer(
            SimTime::from_millis(5),
            TimerKey {
                packet: pkt.id,
                tag: 9,
            },
        );
        a.give_up(pkt.id, NodeId::new(1));
        a.suppress(pkt.id);
        assert_eq!(a.len(), 5);
        let kinds: Vec<&'static str> = a
            .drain()
            .map(|act| match act {
                Action::Deliver { .. } => "deliver",
                Action::Send { .. } => "send",
                Action::SetTimer { .. } => "timer",
                Action::GiveUp { .. } => "giveup",
                Action::Suppress { .. } => "suppress",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["deliver", "send", "timer", "giveup", "suppress"]
        );
        assert!(a.is_empty());
    }

    #[test]
    fn default_params_match_paper() {
        let p = RunParams::default();
        assert_eq!(p.m, 1);
        assert!((p.ack_timeout_factor - 1.0).abs() < f64::EPSILON);
        assert_eq!(p.horizon, SimDuration::MAX);
    }

    #[test]
    fn ack_timeout_scales_alpha_plus_slack() {
        let p = RunParams {
            m: 1,
            ack_timeout_factor: 2.0,
            horizon: SimDuration::MAX,
        };
        assert_eq!(
            ack_timeout(SimDuration::from_millis(30), &p),
            SimDuration::from_millis(61)
        );
        assert_eq!(
            ack_timeout(SimDuration::from_millis(30), &RunParams::default()),
            SimDuration::from_millis(31)
        );
    }
}
