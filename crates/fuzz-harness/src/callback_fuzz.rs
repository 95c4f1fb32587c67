//! Direct callback-storm fuzzing of the router.
//!
//! [`script_fuzz`](crate::script_fuzz) drives the router through the
//! runtime, which only ever produces *causally consistent* event
//! sequences. A real broker gets no such courtesy: the network can hand it
//! the same datagram twice, deliver packets out of order, replay stale
//! copies minutes later, surface ACKs for transmissions it forgot, and
//! interleave membership churn with all of it. This module synthesizes
//! exactly those sequences — well-formed packets in hostile orders — and
//! feeds them straight into the [`RoutingStrategy`] callbacks.
//!
//! The oracle: the router must never panic and must never emit an
//! unbounded burst of actions from a single callback. (Semantic
//! correctness under causally *valid* histories is the script fuzzer's
//! job; here the input histories are deliberately impossible, so only
//! safety properties apply.)

use dcrd_core::{DcrdConfig, DcrdStrategy};
use dcrd_net::estimate::analytic_estimates;
use dcrd_net::failure::{FailureModel, LinkFailureModel};
use dcrd_net::membership::MembershipDelta;
use dcrd_net::topology::{full_mesh, DelayRange};
use dcrd_net::NodeId;
use dcrd_pubsub::packet::Packet;
use dcrd_pubsub::strategy::{Action, Actions, RoutingStrategy, RunParams, SetupContext, TimerKey};
use dcrd_pubsub::workload::{Workload, WorkloadConfig};
use dcrd_pubsub::{PacketId, TopicId};
use dcrd_sim::rng::{rng_for_indexed, SmallRng};
use dcrd_sim::{SimDuration, SimTime};
use std::fmt;

/// Hard per-callback action bound: a single event making the router emit
/// this many actions is runaway amplification regardless of config.
const MAX_ACTIONS_PER_CALLBACK: usize = 10_000;

/// Pool cap so a long storm cannot grow memory without bound.
const MAX_POOL: usize = 256;

/// Tally of one callback-storm run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallbackFuzzReport {
    /// Storm scripts executed.
    pub scripts: u64,
    /// Callbacks invoked across all scripts.
    pub events: u64,
    /// Actions the router emitted in response.
    pub actions: u64,
    /// Send actions among them.
    pub sends: u64,
    /// Deliver actions among them.
    pub delivers: u64,
    /// Largest single-callback action burst observed.
    pub max_burst: usize,
}

impl fmt::Display for CallbackFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scripts, {} callbacks -> {} actions ({} sends, {} delivers, max burst {})",
            self.scripts, self.events, self.actions, self.sends, self.delivers, self.max_burst
        )
    }
}

/// One storm: a fresh router on a small overlay, bombarded with `events`
/// hostile-but-well-formed callbacks.
fn run_storm(seed: u64, index: u64, events: u32, report: &mut CallbackFuzzReport) {
    let mut rng: SmallRng = rng_for_indexed(seed, "callback-fuzz", index);
    let n = rng.gen_range(4..=8usize);
    let topo = full_mesh(n, DelayRange::PAPER, &mut rng);
    let workload = Workload::generate(
        &topo,
        &WorkloadConfig {
            num_topics: rng.gen_range(1..=3),
            ..WorkloadConfig::PAPER
        },
        &mut rng,
    );
    let estimates = analytic_estimates(&topo, 0.01, 0.001);
    let oracle = FailureModel::links_only(LinkFailureModel::new(0.0, seed));
    let params = RunParams {
        m: rng.gen_range(1..=2),
        ack_timeout_factor: 1.0,
        horizon: SimDuration::from_secs(600),
    };
    let config = *rng
        .choose(&[
            DcrdConfig::default(),
            DcrdConfig::recovery_hardened(),
            DcrdConfig::churn_hardened(),
        ])
        .expect("nonempty");
    let mut strategy = DcrdStrategy::new(config);
    strategy.setup(&SetupContext {
        topology: &topo,
        estimates: &estimates,
        workload: &workload,
        failure_oracle: &oracle,
        params,
    });

    let nodes: Vec<NodeId> = topo.nodes().collect();
    let mut now = SimTime::ZERO;
    let mut next_id: u64 = 0;
    let mut seqs = vec![0u64; workload.topics().len()];
    // Send actions the router emitted: (from, to, packet). Replayed as
    // arrivals and ACKs — in order, out of order, or more than once.
    let mut wire: Vec<(NodeId, NodeId, Packet)> = Vec::new();
    // Timers the router set: (node unknown — the runtime tracks it, we
    // replay at a random node to model a confused host).
    let mut timers: Vec<TimerKey> = Vec::new();
    let mut published: Vec<Packet> = Vec::new();
    let mut out = Actions::new();

    for _ in 0..events {
        now += SimDuration::from_micros(rng.gen_range(1..50_000));
        let acting = *rng.choose(&nodes).expect("nonempty");
        match rng.gen_range(0..10u32) {
            // A fresh, valid publish from its real publisher.
            0 | 1 => {
                let ti = rng.gen_range(0..workload.topics().len());
                let spec = &workload.topics()[ti];
                let destinations: Vec<NodeId> =
                    spec.subscriptions.iter().map(|s| s.subscriber).collect();
                let packet = Packet::new(
                    PacketId::new(next_id),
                    TopicId::new(ti as u32),
                    spec.publisher,
                    now,
                    destinations,
                )
                .with_seq(seqs[ti]);
                next_id += 1;
                seqs[ti] += 1;
                published.push(packet.clone());
                strategy.on_publish(spec.publisher, packet, now, &mut out);
            }
            // Deliver a wire packet to its addressee (in or out of order —
            // the pool is sampled, not popped front).
            2 | 3 => {
                if let Some(i) = (!wire.is_empty()).then(|| rng.gen_range(0..wire.len())) {
                    let (from, to, packet) = if rng.gen_bool(0.5) {
                        wire.remove(i)
                    } else {
                        // Duplicate: leave the copy behind for a replay.
                        wire[i].clone()
                    };
                    strategy.on_packet(to, from, packet, now, &mut out);
                }
            }
            // Stale replay: an old *published* packet arrives over a
            // random link long after its routing state is gone.
            4 => {
                if let Some(packet) = rng.choose(&published) {
                    let from = *rng.choose(&nodes).expect("nonempty");
                    if from != acting {
                        strategy.on_packet(acting, from, packet.clone(), now, &mut out);
                    }
                }
            }
            // ACK for a wire transmission (possibly repeated).
            5 => {
                if let Some((from, to, packet)) = rng.choose(&wire) {
                    strategy.on_ack(*from, *to, packet, now, &mut out);
                }
            }
            // Fabricated NACK from a random subscriber.
            6 => {
                if let Some(packet) = rng.choose(&published) {
                    let missing: Vec<u64> = (0..rng.gen_range(0..4u64))
                        .map(|_| rng.gen_range(0..20))
                        .collect();
                    let nack = Packet::nack(
                        packet.id,
                        packet.topic,
                        packet.publisher,
                        now,
                        acting,
                        missing,
                    );
                    let from = *rng.choose(&nodes).expect("nonempty");
                    strategy.on_packet(packet.publisher, from, nack, now, &mut out);
                }
            }
            // Timer firing: real key at a random node, or a fully
            // fabricated one.
            7 => {
                let key = if !timers.is_empty() && rng.gen_bool(0.7) {
                    timers[rng.gen_range(0..timers.len())]
                } else {
                    TimerKey {
                        packet: PacketId::new(rng.gen_range(0..next_id.max(1))),
                        tag: rng.gen(),
                    }
                };
                strategy.on_timer(acting, key, now, &mut out);
            }
            // Membership delta batch (joins, leaves, deaths, refutations in
            // arbitrary order, including contradictory ones).
            8 => {
                let deltas: Vec<MembershipDelta> = (0..rng.gen_range(1..4usize))
                    .map(|_| {
                        let node = *rng.choose(&nodes).expect("nonempty");
                        match rng.gen_range(0..4u32) {
                            0 => MembershipDelta::Join { node },
                            1 => MembershipDelta::Leave { node },
                            2 => MembershipDelta::ConfirmDead { node },
                            _ => MembershipDelta::Refute {
                                node,
                                incarnation: rng.gen_range(0..10),
                            },
                        }
                    })
                    .collect();
                strategy.on_membership(&deltas, now);
            }
            // Housekeeping tick or crash-restart wipe.
            _ => {
                if rng.gen_bool(0.5) {
                    strategy.on_tick(acting, now, &mut out);
                } else {
                    strategy.on_restart(acting, now, &mut out);
                }
            }
        }
        report.events += 1;

        let burst = out.len();
        assert!(
            burst <= MAX_ACTIONS_PER_CALLBACK,
            "router emitted {burst} actions from one callback"
        );
        report.max_burst = report.max_burst.max(burst);
        for action in out.drain() {
            report.actions += 1;
            match action {
                Action::Send { to, packet } => {
                    report.sends += 1;
                    // `acting` is a best-effort sender attribution; for
                    // replay purposes only the (from, to, packet) shape
                    // matters, and a wrong `from` is just one more kind of
                    // hostile input.
                    if wire.len() < MAX_POOL {
                        wire.push((acting, to, packet));
                    }
                }
                Action::Deliver { .. } => report.delivers += 1,
                Action::SetTimer { key, .. } => {
                    if timers.len() < MAX_POOL {
                        timers.push(key);
                    }
                }
                Action::GiveUp { .. } | Action::Suppress { .. } => {}
            }
        }
        if published.len() > MAX_POOL {
            published.drain(..MAX_POOL / 2);
        }
    }
}

/// Runs `scripts` callback storms of `events_per_script` events each.
///
/// # Panics
///
/// Panics on the first router panic or action-bound breach, naming the
/// `(seed, index)` pair that regenerates the offending storm.
#[must_use]
pub fn run_callback_fuzz(seed: u64, scripts: u64, events_per_script: u32) -> CallbackFuzzReport {
    let mut report = CallbackFuzzReport::default();
    for i in 0..scripts {
        let before = report;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut r = before;
            run_storm(seed, i, events_per_script, &mut r);
            r
        }));
        match outcome {
            Ok(r) => report = r,
            Err(cause) => {
                let msg = cause
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| cause.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                panic!("callback-fuzz failure at seed={seed} index={i}: {msg}");
            }
        }
        report.scripts += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_survives_1k_callback_storms() {
        let seed = 1;
        let report = run_callback_fuzz(seed, 1_000, 128);
        println!("callback-fuzz seed={seed}: {report}");
        assert_eq!(report.scripts, 1_000);
        assert_eq!(report.events, 128_000);
        // The storms must actually provoke the router, not tickle it.
        assert!(report.sends > 10_000, "storms too quiet: {report}");
        assert!(report.delivers > 1_000, "storms too quiet: {report}");
    }

    #[test]
    fn callback_fuzz_is_deterministic() {
        assert_eq!(run_callback_fuzz(3, 50, 64), run_callback_fuzz(3, 50, 64));
    }
}
