//! `FailureView` equivalence: the runtime's per-epoch memo answers every
//! failure query exactly as the models it memoizes, for every combination
//! of link, node and chaos process, at instants that walk forward across
//! epoch, cycle and partition-window boundaries and at instants that jump
//! backward. The fate of a transmission (`FailureState::fate`) is checked
//! the same way: blocked exactly when the models block the edge, for a
//! cause they confirm and with no draw, and otherwise the loss and gray
//! draws of the transport rule, in order.

use dcrd::net::chaos::{ChaosModel, CrashRestartModel, GrayLinkModel, PartitionModel};
use dcrd::net::failure::{
    BurstFailureModel, Cause, FailureModel, FailureView, Fate, LinkFailureModel, LinkOutageModel,
    NodeFailureModel,
};
use dcrd::net::loss::LossModel;
use dcrd::net::membership::BrokerChurnModel;
use dcrd::net::topology::{random_connected, DelayRange};
use dcrd::net::{EdgeId, NodeId, Topology};
use dcrd::sim::rng::{derive_seed_indexed, rng_for, rng_for_indexed, SmallRng};
use dcrd::sim::{SimDuration, SimTime};

/// Every model combination: two link processes (the second with an epoch
/// that is not the nodes' 1 s) × node failures on/off × each subset of
/// partition, crashes, churn and gray links.
fn models() -> Vec<FailureModel> {
    let mut out = Vec::new();
    for burst in [false, true] {
        let links = if burst {
            LinkOutageModel::Burst(BurstFailureModel::new(0.2, 3.0, 11))
        } else {
            LinkOutageModel::Epoch(LinkFailureModel::with_epoch(
                0.2,
                11,
                SimDuration::from_millis(700),
            ))
        };
        for nodes in [None, Some(NodeFailureModel::new(0.1, 12))] {
            for mask in 0..16u32 {
                let mut chaos = ChaosModel::none();
                if mask & 1 != 0 {
                    chaos = chaos.with_partition(PartitionModel::new(
                        0.3,
                        SimDuration::from_millis(4_500),
                        SimDuration::from_secs(10),
                        13,
                    ));
                }
                if mask & 2 != 0 {
                    chaos = chaos.with_crashes(CrashRestartModel::new(0.15, 2.0, 14));
                }
                if mask & 4 != 0 {
                    chaos = chaos.with_churn(BrokerChurnModel::new(0.5, 30, 15));
                }
                if mask & 8 != 0 {
                    chaos = chaos.with_gray(GrayLinkModel::new(0.3, 0.2, 2.0, 16));
                }
                out.push(FailureModel::new(links, nodes).with_chaos(chaos));
            }
        }
    }
    out
}

/// Instants that mostly move forward by up to 0.7 s, each run of them
/// followed by exact epoch and window edges, then arbitrary backward jumps.
fn instants(case: u64) -> Vec<SimTime> {
    let mut out = Vec::new();
    let mut t = 0u64;
    for i in 0..80 {
        t += derive_seed_indexed(case, "step", i) % 700_000;
        out.push(t);
    }
    for s in [1u64, 4, 10, 14, 20, 29] {
        out.extend([s * 1_000_000 - 1, s * 1_000_000, s * 1_000_000 + 1]);
        out.push(s * 1_000_000 + 500_000);
    }
    for i in 0..40 {
        out.push(derive_seed_indexed(case, "jump", i) % 40_000_000);
    }
    out.into_iter().map(SimTime::from_micros).collect()
}

/// The cause the models give for a blocked edge, clause by clause in
/// `FailureModel::edge_blocked`'s order.
fn model_cause(topo: &Topology, model: FailureModel, e: EdgeId, at: SimTime) -> Cause {
    let (a, b) = (topo.edge(e).a(), topo.edge(e).b());
    let n = topo.num_nodes();
    let isolated = |v: NodeId| {
        model
            .chaos()
            .and_then(|c| c.partition())
            .is_some_and(|p| p.is_isolated(v, at, n))
    };
    if model.link_model().is_failed(e, at) {
        Cause::LinkDown
    } else if model.node_down(a, at) || model.node_down(b, at) {
        Cause::NodeDown
    } else {
        assert_ne!(
            isolated(a),
            isolated(b),
            "edge {e:?} blocked at {at} for no cause"
        );
        Cause::Partition
    }
}

/// The transport rule for an unblocked edge, drawn from `rng` in order: one
/// loss draw, then a gray draw only in a gray link's degraded direction.
fn reference_fate(
    topo: &Topology,
    model: FailureModel,
    (e, from, at): (EdgeId, NodeId, SimTime),
    loss: &LossModel,
    rng: &mut SmallRng,
) -> Fate {
    if loss.drops(rng) {
        return Fate::Lost(Cause::Loss);
    }
    let delay = topo.delay(e);
    match model.chaos().and_then(|c| c.gray()) {
        Some(g) if g.degrades(topo, e, from) => {
            if LossModel::new(g.extra_loss()).drops(rng) {
                Fate::Lost(Cause::Gray)
            } else {
                Fate::Arrived {
                    at: at + delay.mul_f64(g.delay_factor()),
                }
            }
        }
        _ => Fate::Arrived { at: at + delay },
    }
}

/// Checks `model`'s view against the models at every instant; returns the
/// fates it saw.
fn assert_view_matches(topo: &Topology, model: FailureModel, case: u64) -> Vec<Fate> {
    let mut view = FailureView::new(model, topo);
    let chaos = model.chaos().copied().unwrap_or_default();
    let n = topo.num_nodes();
    let loss = LossModel::new(0.3);
    let mut rng = rng_for_indexed(5, "fate", case);
    let mut fates = Vec::new();
    for at in instants(case) {
        let state = view.at(at);
        for e in topo.edge_ids() {
            let ctx = format!("case {case}, edge {e:?} at {at}");
            let blocked = model.edge_blocked(topo, e, at);
            let cause = state.blocked(topo, e);
            assert_eq!(cause.is_some(), blocked, "{ctx}");
            // Both directions: gray links degrade only one of them.
            for from in [topo.edge(e).a(), topo.edge(e).b()] {
                let before = rng.clone();
                let fate = state.fate(topo, e, from, &loss, &mut rng);
                if blocked {
                    assert_eq!(
                        fate,
                        Fate::Blocked(model_cause(topo, model, e, at)),
                        "{ctx}"
                    );
                    assert_eq!(cause, Some(model_cause(topo, model, e, at)), "{ctx}");
                    assert_eq!(rng, before, "{ctx}: a blocked fate drew");
                } else {
                    let mut reference = before;
                    let want = reference_fate(topo, model, (e, from, at), &loss, &mut reference);
                    assert_eq!(fate, want, "{ctx}, from {from:?}");
                    assert_eq!(rng, reference, "{ctx}: draws differ");
                }
                fates.push(fate);
            }
        }
        for node in topo.nodes() {
            let ctx = format!("case {case}, node {node:?} at {at}");
            assert_eq!(state.node_down(node), model.node_down(node, at), "{ctx}");
            assert_eq!(state.chaos_down(node), chaos.node_down(node, at), "{ctx}");
            assert_eq!(
                state.absent(node),
                chaos.churn().is_some_and(|ch| ch.absent_at(node, at)),
                "{ctx}"
            );
            assert_eq!(
                state.isolated(node),
                chaos
                    .partition()
                    .is_some_and(|p| p.is_isolated(node, at, n)),
                "{ctx}"
            );
        }
    }
    fates
}

#[test]
fn failure_view_answers_what_the_models_answer() {
    let topo = random_connected(14, 4, DelayRange::PAPER, &mut rng_for(3, "view-topo"));
    let models = models();
    assert_eq!(models.len(), 64);
    let mut fates = Vec::new();
    for (case, model) in models.into_iter().enumerate() {
        fates.extend(assert_view_matches(&topo, model, case as u64));
    }
    // Every cause, and a gray-slowed arrival, occurs somewhere, so the
    // fate equivalence is not vacuous.
    for cause in [Cause::LinkDown, Cause::NodeDown, Cause::Partition] {
        assert!(fates.contains(&Fate::Blocked(cause)), "no {cause:?} block");
    }
    for cause in [Cause::Loss, Cause::Gray] {
        assert!(fates.contains(&Fate::Lost(cause)), "no {cause:?} loss");
    }
    assert!(fates.iter().any(|f| matches!(f, Fate::Arrived { .. })));
}

/// The probabilities above leave every process visibly active at some
/// queried instant, so the equivalence is not vacuous.
#[test]
fn every_memoized_process_fires_somewhere() {
    let topo = random_connected(14, 4, DelayRange::PAPER, &mut rng_for(3, "view-topo"));
    let all = *models().last().expect("models");
    let chaos = *all.chaos().expect("chaos");
    let times = instants(63);
    let fires = |f: &dyn Fn(SimTime) -> bool| times.iter().any(|&t| f(t));
    let nodes: Vec<_> = topo.nodes().collect();
    assert!(fires(&|t| topo
        .edge_ids()
        .any(|e| all.link_model().is_failed(e, t))));
    assert!(fires(&|t| nodes
        .iter()
        .any(|&v| all.node_model().is_some_and(|m| m.is_failed(v, t)))));
    assert!(fires(&|t| nodes
        .iter()
        .any(|&v| chaos.crashes().is_some_and(|c| c.is_down(v, t)))));
    assert!(fires(&|t| nodes
        .iter()
        .any(|&v| chaos.churn().is_some_and(|ch| ch.absent_at(v, t)))));
    assert!(fires(&|t| nodes.iter().any(|&v| chaos
        .partition()
        .is_some_and(|p| p.is_isolated(v, t, nodes.len())))));
}
