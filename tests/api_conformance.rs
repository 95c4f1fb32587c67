//! API-guideline conformance (C-SEND-SYNC, C-COMMON-TRAITS): the types a
//! multithreaded experiment runner shares across threads must stay `Send`
//! and `Sync`, and core value types must keep their common traits. These
//! are compile-time checks — regressions fail to build.

use dcrd::core::propagation::SubscriberTables;
use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::metrics::{AggregateMetrics, RunMetrics};
use dcrd::net::estimate::{LinkEstimate, LinkEstimates};
use dcrd::net::failure::{BurstFailureModel, FailureModel, LinkFailureModel};
use dcrd::net::{EdgeId, NodeId, Topology};
use dcrd::pubsub::packet::{Packet, PacketId};
use dcrd::pubsub::runtime::DeliveryLog;
use dcrd::pubsub::topic::TopicId;
use dcrd::pubsub::trace::Trace;
use dcrd::pubsub::workload::Workload;
use dcrd::sim::stats::{Histogram, Ratio, Welford};
use dcrd::sim::{SimDuration, SimTime};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_types_are_send_and_sync() {
    assert_send_sync::<Topology>();
    assert_send_sync::<LinkEstimates>();
    assert_send_sync::<FailureModel>();
    assert_send_sync::<Workload>();
    assert_send_sync::<Packet>();
    assert_send_sync::<DeliveryLog>();
    assert_send_sync::<Trace>();
    assert_send_sync::<RunMetrics>();
    assert_send_sync::<AggregateMetrics>();
    assert_send_sync::<SubscriberTables>();
    assert_send_sync::<DcrdStrategy>();
    assert_send_sync::<dcrd::experiments::Scenario>();
}

#[test]
fn value_types_have_common_traits() {
    // Copy + Ord ids usable as map keys.
    fn assert_ord_key<T: Copy + Ord + std::hash::Hash + std::fmt::Debug>() {}
    assert_ord_key::<NodeId>();
    assert_ord_key::<EdgeId>();
    assert_ord_key::<TopicId>();
    assert_ord_key::<PacketId>();
    assert_ord_key::<SimTime>();
    assert_ord_key::<SimDuration>();

    // Display on user-facing ids and durations.
    assert_eq!(format!("{}", NodeId::new(1)), "n1");
    assert_eq!(format!("{}", TopicId::new(2)), "topic2");
    assert_eq!(format!("{}", PacketId::new(3)), "pkt3");
    assert!(!format!("{}", SimDuration::from_millis(10)).is_empty());

    // Default on accumulators and configs.
    let _ = Welford::default();
    let _ = Ratio::default();
    let _ = DcrdConfig::default();
    let _ = LinkEstimate::new(SimDuration::ZERO, 1.0);
    let _ = Histogram::new(0.0, 1.0, 4);
    let _ = BurstFailureModel::new(0.1, 2.0, 1);
    let _ = LinkFailureModel::new(0.1, 1);
}
