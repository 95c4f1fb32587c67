//! `Timed<S, TRACE>`: the benchmark's view into the router, from outside.
//!
//! The wrapper forwards every [`RoutingStrategy`] callback to the inner
//! strategy. With `TRACE = false` it times only `setup` (one `Instant`
//! pair per run, nothing per event), which is how the end-to-end pass
//! separates table construction from the event loop. With `TRACE = true`
//! it also times every per-event callback and aggregates the spans per
//! callback name into count, total, maximum and a log₂ histogram — tens
//! of millions of spans are never stored one by one.

use std::time::Instant;

use dcrd_net::estimate::LinkEstimates;
use dcrd_net::membership::MembershipDelta;
use dcrd_net::NodeId;
use dcrd_pubsub::packet::Packet;
use dcrd_pubsub::strategy::{Actions, RoutingStrategy, SetupContext, TimerKey};
use dcrd_sim::SimTime;

use crate::alloc::allocs;
use crate::stats::SpanStats;

/// The per-event callbacks the traced pass attributes time to. `Repair`
/// pools `on_membership`, `on_gossip` and `on_monitor`: the three ways the
/// table layer is re-entered after setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    Publish,
    Packet,
    Ack,
    Timer,
    Tick,
    Restart,
    Repair,
}

impl Callback {
    pub const ALL: [Callback; 7] = [
        Callback::Publish,
        Callback::Packet,
        Callback::Ack,
        Callback::Timer,
        Callback::Tick,
        Callback::Restart,
        Callback::Repair,
    ];

    /// The span name in the trace file.
    pub fn span_name(self) -> &'static str {
        match self {
            Callback::Publish => "core.on_publish",
            Callback::Packet => "core.on_packet",
            Callback::Ack => "core.on_ack",
            Callback::Timer => "core.on_timer",
            Callback::Tick => "core.on_tick",
            Callback::Restart => "core.on_restart",
            Callback::Repair => "core.repair",
        }
    }

    /// The per-layer metric holding the time spent inside this callback.
    pub fn seconds_metric(self) -> &'static str {
        match self {
            Callback::Publish => "core.on_publish_s",
            Callback::Packet => "core.on_packet_s",
            Callback::Ack => "core.on_ack_s",
            Callback::Timer => "core.on_timer_s",
            Callback::Tick => "core.on_tick_s",
            Callback::Restart => "core.on_restart_s",
            Callback::Repair => "core.repair_s",
        }
    }

    /// The per-layer metric holding how often this callback ran.
    pub fn calls_metric(self) -> &'static str {
        match self {
            Callback::Publish => "core.on_publish_calls",
            Callback::Packet => "core.on_packet_calls",
            Callback::Ack => "core.on_ack_calls",
            Callback::Timer => "core.on_timer_calls",
            Callback::Tick => "core.on_tick_calls",
            Callback::Restart => "core.on_restart_calls",
            Callback::Repair => "core.repair_calls",
        }
    }
}

/// What `Timed` measured during one `OverlayRuntime::run`.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// When the inner `setup` was entered.
    pub setup_start: Option<Instant>,
    /// Host nanoseconds inside the inner `setup`.
    pub setup_ns: u64,
    /// Allocations inside the inner `setup`.
    pub setup_allocs: u64,
    /// Process allocation count when `setup` returned: the event loop's
    /// allocations are the count at the end of `run` minus this.
    pub allocs_after_setup: u64,
    /// Per-callback spans (traced pass only; empty otherwise), indexed by
    /// `Callback as usize`.
    pub callbacks: [SpanStats; 7],
    /// Actions the callbacks pushed (traced pass only).
    pub actions: u64,
}

/// See the module docs.
pub struct Timed<S, const TRACE: bool> {
    inner: S,
    observed: Observed,
}

impl<S, const TRACE: bool> Timed<S, TRACE> {
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            observed: Observed::default(),
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn observed(&self) -> &Observed {
        &self.observed
    }

    /// Runs one per-event callback, timing it when `TRACE` is on. The
    /// branch is on a const, so the untraced instantiation is the bare
    /// forwarded call.
    #[inline(always)]
    fn event(&mut self, which: Callback, out: &mut Actions, f: impl FnOnce(&mut S, &mut Actions)) {
        if TRACE {
            let before = out.len();
            let start = Instant::now();
            f(&mut self.inner, out);
            self.observed.callbacks[which as usize].record(start.elapsed().as_nanos() as u64);
            self.observed.actions += out.len().saturating_sub(before) as u64;
        } else {
            f(&mut self.inner, out);
        }
    }

    /// Same for the control-plane callbacks, which push no actions.
    #[inline(always)]
    fn repair(&mut self, f: impl FnOnce(&mut S)) {
        if TRACE {
            let start = Instant::now();
            f(&mut self.inner);
            self.observed.callbacks[Callback::Repair as usize]
                .record(start.elapsed().as_nanos() as u64);
        } else {
            f(&mut self.inner);
        }
    }
}

impl<S: RoutingStrategy, const TRACE: bool> RoutingStrategy for Timed<S, TRACE> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setup(&mut self, ctx: &SetupContext<'_>) {
        let allocs_before = allocs();
        let start = Instant::now();
        self.inner.setup(ctx);
        self.observed.setup_ns = start.elapsed().as_nanos() as u64;
        self.observed.setup_start = Some(start);
        self.observed.allocs_after_setup = allocs();
        self.observed.setup_allocs = self.observed.allocs_after_setup - allocs_before;
    }

    fn on_publish(&mut self, node: NodeId, packet: Packet, now: SimTime, out: &mut Actions) {
        self.event(Callback::Publish, out, |s, out| {
            s.on_publish(node, packet, now, out)
        });
    }

    fn on_packet(
        &mut self,
        node: NodeId,
        from: NodeId,
        packet: Packet,
        now: SimTime,
        out: &mut Actions,
    ) {
        self.event(Callback::Packet, out, |s, out| {
            s.on_packet(node, from, packet, now, out)
        });
    }

    fn on_ack(
        &mut self,
        node: NodeId,
        to: NodeId,
        packet: &Packet,
        now: SimTime,
        out: &mut Actions,
    ) {
        self.event(Callback::Ack, out, |s, out| {
            s.on_ack(node, to, packet, now, out)
        });
    }

    fn on_timer(&mut self, node: NodeId, key: TimerKey, now: SimTime, out: &mut Actions) {
        self.event(Callback::Timer, out, |s, out| {
            s.on_timer(node, key, now, out)
        });
    }

    fn on_monitor(&mut self, estimates: &LinkEstimates, now: SimTime) {
        self.repair(|s| s.on_monitor(estimates, now));
    }

    fn on_membership(&mut self, deltas: &[MembershipDelta], now: SimTime) {
        self.repair(|s| s.on_membership(deltas, now));
    }

    fn on_gossip(&mut self, deltas: &[MembershipDelta], now: SimTime) {
        self.repair(|s| s.on_gossip(deltas, now));
    }

    fn on_tick(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        self.event(Callback::Tick, out, |s, out| s.on_tick(node, now, out));
    }

    fn on_restart(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        self.event(Callback::Restart, out, |s, out| {
            s.on_restart(node, now, out)
        });
    }
}
