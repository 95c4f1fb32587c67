//! The distributed recursive computation of `⟨d, r⟩` (§III-B).
//!
//! In a deployment every broker recomputes its parameters whenever a
//! neighbor shares fresh ones, starting from the subscriber announcing
//! `⟨0, 1⟩`, so the announcement spreads outward. We model this as
//! **in-place sweeps** (a Gauss–Seidel iteration): each sweep visits every
//! live broker that can meet its deadline at all, nearest the subscriber
//! first, and rebuilds its sending list and `⟨d, r⟩` from its neighbors'
//! current values, including those updated earlier in the same sweep.
//! Nothing is skipped within a sweep, so a table's work is exactly its
//! sweeps times its active brokers ([`SubscriberTables::node_steps`]). Most
//! pairs stop within tolerance in about 10 sweeps on the benchmark
//! overlays. The deadline filter can also trap the iteration in an exact
//! limit cycle, which the freeze after a 50-sweep warm-up ends; the sweep
//! cap bounds the rest.
//!
//! Because the per-node delay requirement is `D_XS = D_PS − shortest
//! delay(P → X)`, the tables are specific to a *(publisher, subscriber)*
//! pair, i.e. to one subscription. A [`TableBuilder`] builds the tables of
//! any list of subscriptions ([`PairJob`]s) and is the only way to build
//! them; [`compute_tables`] is a fresh builder's single build.
//!
//! A build is one kernel call per table: it fills the table's per-node
//! delay requirements from the publisher's masked tree and runs the
//! `⟨d, r⟩` fixed point over them. A broker recomputes its tables whenever
//! its neighbourhood changes (§III-B): a membership change or fresh
//! estimates move the router's table version and bring the builder's
//! snapshot and trees up to the new mask ([`TableBuilder::prepare`]), and
//! the first packet routed on a table a version behind settles it
//! ([`TableBuilder::settle`]). The builder keeps everything one build can
//! hand to the next: the per-edge link stats until the estimates change;
//! the masked adjacency snapshot, the per-subscriber distance bounds and
//! the publishers' masked shortest-path trees, refilled in place when the
//! absent set changes; one scratch workspace per worker. A settle refills
//! the buffers of the table it settles. No input of the kernel depends on
//! what a buffer held before, so a recycled build is bit-identical to a
//! fresh one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dcrd_net::estimate::LinkEstimates;
use dcrd_net::paths::{dijkstra_masked, dijkstra_masked_into, Metric, ShortestPaths};
use dcrd_net::{NodeId, NodeSet, Topology};
use dcrd_pubsub::hotstate::NodeMap;
use dcrd_pubsub::topic::TopicId;
use dcrd_pubsub::workload::Workload;
use dcrd_sim::{par, SimDuration};

use crate::config::DcrdConfig;
use crate::ordering::OrderingPolicy;
use crate::params::{combine, Candidate, DrPair};
use crate::reliability::{m_transmission_stats, LinkStats};
use crate::sending_list::build_sending_list_from_row;

/// Degree bound for the fused stack-buffer node step; wider rows take the
/// general list-building path.
const FUSED_STACK: usize = 16;

/// Most sweeps one `⟨d, r⟩` computation runs.
const MAX_ROUNDS: u32 = 100;

/// Convergence tolerance on `d`, in µs.
const TOLERANCE_D: f64 = 1.0;

/// Convergence tolerance on `r`.
const TOLERANCE_R: f64 = 1e-9;

/// Fused live-sweep step for one broker under `RatioOptimal` ordering:
/// Algorithm 1's filter, Theorem 1's sort, and Eq. 3's fold, entirely on
/// stack buffers. This produces the same result as
/// `build_sending_list_from_row` + `combine` — same candidate set,
/// same `d = α + dᵢ` / `r = γ·rᵢ`, the sort's unique permutation
/// (`total_cmp` on `d/r`, ties by neighbor id, here as sign-folded bit
/// keys), and the same sequential Eq. 3 fold — so the returned `⟨d, r⟩`
/// is bit-identical while the candidate list itself is never
/// materialized.
///
/// `order` is this node's persistent visit permutation over `row`'s
/// slots, carried across sweeps: candidates are gathered in last
/// sweep's sorted order, so the insertion sort sees nearly-sorted input
/// and its inner loop stays branch-predictable (`⟨d, r⟩` drifts a little
/// every sweep, but ranks rarely swap). This is *exact*: the gathered
/// multiset is visit-order-independent, the comparator is a strict total
/// order (distinct neighbor ids break every tie), and insertion sort
/// from any starting arrangement yields the unique sorted permutation.
/// On return `order` holds the new sorted member slots followed by the
/// filtered-out slots.
struct FusedRow {
    ids: [u32; FUSED_STACK],
    ds: [f64; FUSED_STACK],
    rs: [f64; FUSED_STACK],
    len: usize,
}

/// `at[i]`, or the default for an `i` past the stack buffer.
#[inline(always)]
fn load<T: Copy + Default>(at: &[T; FUSED_STACK], i: usize) -> T {
    at.get(i).copied().unwrap_or_default()
}

/// Moves `at[i - 1]` up to `at[i]`, for `0 < i < FUSED_STACK`.
#[inline(always)]
fn shift_up<T: Copy + Default>(at: &mut [T; FUSED_STACK], i: usize) {
    let below = load(at, i.wrapping_sub(1));
    store(at, i, below);
}

/// Stores `value` at `at[i]`; an `i` past the stack buffer stores nothing.
#[inline(always)]
fn store<T>(at: &mut [T; FUSED_STACK], i: usize, value: T) {
    if let Some(slot) = at.get_mut(i) {
        *slot = value;
    }
}

/// The shared gather + filter + sort half of the fused step: member
/// candidates land in `ids`/`ds`/`rs` `[0, len)` in ascending `(d/r, id)`
/// order, and `order` is rewritten for the next sweep. `order` holds at
/// most [`FUSED_STACK`] slots of `row`.
#[inline(always)]
fn gather_sorted(
    row: &[(NodeId, LinkStats)],
    params: &[DrPair],
    requirement: f64,
    order: &mut [u8],
) -> FusedRow {
    let mut keys = [0u64; FUSED_STACK];
    let mut ids = [0u32; FUSED_STACK];
    let mut ds = [0.0f64; FUSED_STACK];
    let mut rs = [0.0f64; FUSED_STACK];
    let mut slots = [0u8; FUSED_STACK];
    let mut rejects = [0u8; FUSED_STACK];
    let mut len = 0usize;
    let mut rejected = 0usize;
    for &slot in order.iter().take(FUSED_STACK) {
        let (nb, link) = row.get(slot as usize).copied().unwrap_or((
            NodeId::new(0),
            LinkStats {
                alpha: f64::INFINITY,
                gamma: 0.0,
            },
        ));
        let p = params
            .get(nb.index())
            .copied()
            .unwrap_or(DrPair::UNREACHABLE);
        // Branchless filter: compute and store unconditionally (harmless
        // for failing slots — `∞` arithmetic is well-defined and the slot
        // is overwritten or ignored), advance `len` by the filter bit.
        // Membership flips between sweeps would otherwise mispredict.
        let d = link.alpha + p.d;
        let r = link.gamma * p.r;
        let ratio = if r <= 0.0 { f64::INFINITY } else { d / r };
        let bits = ratio.to_bits() as i64;
        store(
            &mut keys,
            len,
            (bits ^ ((((bits >> 63) as u64) >> 1) as i64)) as u64 ^ 0x8000_0000_0000_0000,
        );
        store(&mut ids, len, nb.index() as u32);
        store(&mut ds, len, d);
        store(&mut rs, len, r);
        store(&mut slots, len, slot);
        store(&mut rejects, rejected, slot);
        let pass = p.d < requirement;
        len += pass as usize;
        rejected += !pass as usize;
    }
    for i in 1..len.min(FUSED_STACK) {
        let (key, id, d, r, s) = (
            load(&keys, i),
            load(&ids, i),
            load(&ds, i),
            load(&rs, i),
            load(&slots, i),
        );
        let mut j = i;
        while j > 0 && (load(&keys, j - 1), load(&ids, j - 1)) > (key, id) {
            shift_up(&mut keys, j);
            shift_up(&mut ids, j);
            shift_up(&mut ds, j);
            shift_up(&mut rs, j);
            shift_up(&mut slots, j);
            j -= 1;
        }
        store(&mut keys, j, key);
        store(&mut ids, j, id);
        store(&mut ds, j, d);
        store(&mut rs, j, r);
        store(&mut slots, j, s);
    }
    // Every visited slot was either a member or a reject, so the two
    // halves fill `order` exactly.
    if let (Some((members, others)), Some(sorted), Some(rest)) = (
        order.split_at_mut_checked(len),
        slots.get(..len),
        rejects.get(..rejected),
    ) {
        if others.len() == rest.len() {
            members.copy_from_slice(sorted);
            others.copy_from_slice(rest);
        }
    }
    FusedRow { ids, ds, rs, len }
}

#[inline]
fn node_step_ratio(
    row: &[(NodeId, LinkStats)],
    params: &[DrPair],
    requirement: f64,
    order: &mut [u8],
) -> DrPair {
    let FusedRow { ds, rs, len, .. } = gather_sorted(row, params, requirement, order);
    let mut numerator = 0.0;
    let mut prefix_delay = 0.0;
    let mut fail_all = 1.0;
    for (&d, &r) in ds.iter().zip(&rs).take(len) {
        if d.is_infinite() {
            debug_assert!(r <= 0.0, "finite-r candidate with infinite d");
            continue;
        }
        prefix_delay += d;
        numerator += prefix_delay * (r * fail_all);
        fail_all *= 1.0 - r;
    }
    let r = 1.0 - fail_all;
    if r <= 0.0 {
        DrPair::UNREACHABLE
    } else {
        DrPair {
            d: numerator / r,
            r,
        }
    }
}

/// The final-pass variant: materializes the sorted sending list itself,
/// appended to `out`. Identical candidates in the identical order to
/// `build_sending_list_from_row` under `RatioOptimal`.
#[inline]
fn extend_sorted_candidates(
    row: &[(NodeId, LinkStats)],
    params: &[DrPair],
    requirement: f64,
    order: &mut [u8],
    out: &mut Vec<Candidate>,
) {
    let FusedRow { ids, ds, rs, len } = gather_sorted(row, params, requirement, order);
    out.extend(
        ids.iter()
            .zip(&ds)
            .zip(&rs)
            .take(len)
            .map(|((&id, &d), &r)| Candidate {
                neighbor: NodeId::new(id),
                d,
                r,
            }),
    );
}

/// The converged routing state of every broker toward one subscription.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriberTables {
    /// The subscription the tables route: its endpoints and deadline.
    job: PairJob,
    /// Per-node delay requirement `D_XS` in µs (may be ≤ 0 for brokers too
    /// far from the publisher).
    requirements: Vec<f64>,
    /// Per-node sorted sending lists in CSR form: node `v`'s list is
    /// `list_cands[list_offsets[v] .. list_offsets[v + 1]]`, one flat
    /// allocation per table instead of one `Vec` per broker.
    list_offsets: Vec<u32>,
    list_cands: Vec<Candidate>,
    /// Per-node `⟨d, r⟩`.
    params: Vec<DrPair>,
    rounds_used: u32,
    node_steps: u64,
    converged: bool,
}

impl SubscriberTables {
    /// `job`'s tables with no buffers yet, for [`pair_fixed_point`] to fill.
    fn unfilled(job: PairJob) -> Self {
        SubscriberTables {
            job,
            requirements: Vec::new(),
            list_offsets: Vec::new(),
            list_cands: Vec::new(),
            params: Vec::new(),
            rounds_used: 0,
            node_steps: 0,
            converged: false,
        }
    }

    /// The subscriber these tables route toward.
    #[must_use]
    pub fn subscriber(&self) -> NodeId {
        self.job.subscriber
    }

    /// The publisher whose deadline anchors the requirements.
    #[must_use]
    pub fn publisher(&self) -> NodeId {
        self.job.publisher
    }

    /// The sorted sending list of `node` (empty for an unknown node).
    #[must_use]
    pub fn sending_list(&self, node: NodeId) -> &[Candidate] {
        let i = node.index();
        let (Some(&lo), Some(&hi)) = (self.list_offsets.get(i), self.list_offsets.get(i + 1))
        else {
            return &[];
        };
        self.list_cands.get(lo as usize..hi as usize).unwrap_or(&[])
    }

    /// The `⟨d, r⟩` parameters of `node` ([`DrPair::UNREACHABLE`] for an
    /// unknown node, like [`sending_list`](Self::sending_list)'s empty
    /// list).
    #[must_use]
    pub fn params(&self, node: NodeId) -> DrPair {
        self.params
            .get(node.index())
            .copied()
            .unwrap_or(DrPair::UNREACHABLE)
    }

    /// The per-node delay requirement `D_XS` in µs (`-∞` for an unknown
    /// node: no budget can be met there).
    #[must_use]
    pub fn requirement(&self, node: NodeId) -> f64 {
        self.requirements
            .get(node.index())
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Sweeps executed before convergence (or the cap).
    #[must_use]
    pub fn rounds_used(&self) -> u32 {
        self.rounds_used
    }

    /// Node-steps the fixed point ran: one per broker per sweep it
    /// recomputed. The kernel prunes the absent brokers, the subscriber
    /// and every broker outside the deadline ellipse, and steps each other
    /// (*active*) broker in every sweep, so this is exactly
    /// `rounds_used × active brokers`: the table's kernel work, exact and
    /// independent of the host.
    #[must_use]
    pub fn node_steps(&self) -> u64 {
        self.node_steps
    }

    /// Whether the computation converged within the sweep cap.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }
}

fn delta(a: DrPair, b: DrPair) -> (f64, f64) {
    let dd = match (a.d.is_finite(), b.d.is_finite()) {
        (true, true) => (a.d - b.d).abs(),
        (false, false) => 0.0,
        _ => f64::INFINITY,
    };
    (dd, (a.r - b.r).abs())
}

/// Table work, in `pairs × live brokers`, that earns one worker of a
/// batch build's fan-out ([`TableBuilder::build`], which the router's setup
/// and [`compute_tables`] run): a build smaller than twice this runs
/// inline on the calling thread. A settle builds one table and never fans
/// out.
///
/// The floor weighs a worker's start-up against the kernel work it takes
/// over, both measured on a 2-vCPU x86-64 host:
///
/// * a scoped spawn + join that wakes a vCPU idle for 2 ms costs
///   ≈ 0.05 ms (median; p99 ≈ 0.15 ms);
/// * the kernel costs ≈ 1.3 µs per pair-node: ≈ 9.4 node-steps of
///   ≈ 135 ns each (at `build-256`, 11.07 sweeps per pair).
///
/// At `1 << 12` the smallest fan-out splits ≈ 8 k pair-nodes, and its
/// second worker takes over ≈ 5 ms of kernel time for a start-up of a
/// thirtieth of that even at p99. Every 64- and 256-broker setup (≈ 19 k
/// pair-nodes and up) fans out; a 32-broker setup of ≈ 140 pairs
/// (≈ 4.5 k pair-nodes) runs inline.
pub const PAIR_NODES_PER_WORKER: usize = 1 << 12;

/// One `(publisher, subscriber)` fixed point to compute: a subscription of
/// the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairJob {
    /// The subscription's topic.
    pub topic: TopicId,
    /// The publishing broker, whose deadline anchors the requirements.
    pub publisher: NodeId,
    /// The subscribing broker the tables route toward.
    pub subscriber: NodeId,
    /// The end-to-end delay requirement.
    pub deadline: SimDuration,
}

impl PairJob {
    /// Every subscription of `workload`, in topic order and, within a
    /// topic, in subscription order.
    #[must_use]
    pub fn all(workload: &Workload) -> Vec<PairJob> {
        let mut jobs = Vec::with_capacity(workload.num_subscriptions());
        for spec in workload.topics() {
            jobs.extend(spec.subscriptions.iter().map(|sub| PairJob {
                topic: spec.topic,
                publisher: spec.publisher,
                subscriber: sub.subscriber,
                deadline: sub.deadline,
            }));
        }
        jobs
    }
}

/// Computes the tables of every job over the overlay minus the `absent`
/// brokers (departed or confirmed dead), with `m` transmissions per link
/// attempt, and returns them in job order: a fresh [`TableBuilder`]'s
/// single build, for callers that build once (analysis, figures, tests).
#[must_use]
pub fn compute_tables(
    topo: &Topology,
    estimates: &LinkEstimates,
    m: u32,
    config: &DcrdConfig,
    absent: &NodeSet,
    jobs: Vec<PairJob>,
) -> Vec<(PairJob, SubscriberTables)> {
    TableBuilder::new().build(topo, estimates, m, config, absent, jobs)
}

/// The one table builder, and what one build keeps for the next.
///
/// In a deployment every broker iterates on its own, per subscription
/// (§III-B), so nothing couples one pair to another. A batch
/// [`build`](Self::build) fans its pairs out over [`par::map_init`]
/// workers, one per [`PAIR_NODES_PER_WORKER`] of `pairs × live brokers`,
/// capped by the host's parallelism; the tables are bit-identical for every
/// worker count. [`settle`](Self::settle) rebuilds one table in place
/// instead, for a caller that builds each table when it is next read, and
/// [`settled`](Self::settled) builds one into a copy. All three make the
/// same kernel call.
///
/// Between builds the builder keeps, each until its input changes:
///
/// | kept | rebuilt when |
/// |---|---|
/// | per-edge `m`-transmission link stats | the estimates change ([`estimates_changed`](Self::estimates_changed)) or `m` does |
/// | masked adjacency snapshot | the absent set or the link stats change ([`prepare`](Self::prepare)) |
/// | per-subscriber α-distance bounds and sweep orders | the snapshot is rebuilt; each is refilled by the first build toward its subscriber |
/// | each publisher's masked shortest-path tree | the snapshot is rebuilt, over its mask; a build fills the tree of a job publisher it holds none for |
/// | one scratch workspace per worker | never; refitted whenever the snapshot is rebuilt |
///
/// What is rebuilt is refilled in place, and a settle refills the buffers
/// of the table it settles, so a settle whose overlay, mask sizes and list
/// lengths stay within what earlier builds saw allocates nothing.
#[derive(Debug)]
pub struct TableBuilder {
    /// Fan-out cap: the host's parallelism, read when the builder is made,
    /// so no build pays for the read.
    max_workers: usize,
    /// Per-edge `m`-transmission stats, indexed by edge id, for
    /// `stats_m`'s `m`; `None` when stale.
    link_stats: Vec<LinkStats>,
    stats_m: Option<u32>,
    /// The adjacency snapshot over the link stats, masked by
    /// `snapshot_mask`; stale unless `snapshot_valid`.
    snapshot: AdjacencySnapshot,
    snapshot_mask: NodeSet,
    snapshot_valid: bool,
    /// Per-subscriber pruning bounds over the snapshot, each with the sweep
    /// order it gives, indexed by subscriber; only `bounded`'s are current.
    bounds: Vec<(Vec<f64>, Vec<u32>)>,
    bounded: NodeSet,
    /// Scratch of the bounds' α-distance searches.
    alpha_distances: Vec<f64>,
    frontier: BinaryHeap<Reverse<(u64, u32)>>,
    /// Each publisher's shortest-delay tree, masked by `snapshot_mask`.
    /// NACKs climb them too: a node's predecessor is its next hop toward
    /// the publisher.
    trees: NodeMap<ShortestPaths>,
    /// One scratch workspace per worker, lent to [`par::map_init`]; a
    /// settle runs on the first.
    workspaces: Vec<TableWorkspace>,
}

impl Default for TableBuilder {
    fn default() -> Self {
        TableBuilder::new()
    }
}

impl TableBuilder {
    /// A builder that has built nothing yet.
    #[must_use]
    pub fn new() -> Self {
        TableBuilder {
            max_workers: par::available_workers(),
            link_stats: Vec::new(),
            stats_m: None,
            snapshot: AdjacencySnapshot::default(),
            snapshot_mask: NodeSet::new(),
            snapshot_valid: false,
            bounds: Vec::new(),
            bounded: NodeSet::new(),
            alpha_distances: Vec::new(),
            frontier: BinaryHeap::new(),
            trees: NodeMap::new(),
            workspaces: Vec::new(),
        }
    }

    /// Forgets everything the link estimates shaped — the link stats, the
    /// snapshot and the bounds — keeping their buffers. Call it whenever
    /// the estimates (or the overlay) the next build is handed differ from
    /// the last build's.
    pub fn estimates_changed(&mut self) {
        self.stats_m = None;
        self.snapshot_valid = false;
    }

    /// The tree `publisher`'s tables are built from: its shortest-delay
    /// tree masked by the absent set of the last [`prepare`](Self::prepare).
    #[must_use]
    pub fn tree(&self, publisher: NodeId) -> Option<&ShortestPaths> {
        self.trees.get(publisher)
    }

    /// Brings what every table of one pass shares up to date for `absent`
    /// and `m`: the link stats, the masked snapshot over them, the
    /// workspaces fitted to it and every held tree, refilled over the
    /// snapshot's mask. Costs a mask comparison when nothing changed.
    pub fn prepare(
        &mut self,
        topo: &Topology,
        estimates: &LinkEstimates,
        m: u32,
        absent: &NodeSet,
    ) {
        if self.stats_m != Some(m) {
            fill_link_stats(topo, estimates, m, &mut self.link_stats);
            self.stats_m = Some(m);
            self.snapshot_valid = false;
        }
        if self.snapshot_valid && self.snapshot_mask == *absent {
            return;
        }
        self.snapshot.rebuild(topo, &self.link_stats, absent);
        self.snapshot_mask.clear();
        self.snapshot_mask.union_with(absent);
        self.snapshot_valid = true;
        self.bounded.clear();
        let n = self.snapshot.num_nodes();
        if self.bounds.len() < n {
            self.bounds.resize_with(n, Default::default);
        }
        for tree in self.trees.values_mut() {
            dijkstra_masked_into(topo, tree.source(), Metric::Delay, absent, tree);
        }
        for ws in &mut self.workspaces {
            ws.fit(&self.snapshot);
        }
    }

    /// Fills `subscriber`'s pruning bound over the snapshot and its sweep
    /// order unless they are current: the α-distance from the subscriber to
    /// every node, minimised over each node's live neighbours.
    fn keep_bound(&mut self, subscriber: NodeId) {
        if self.bounded.contains(subscriber) {
            return;
        }
        let Some((bound, order)) = self.bounds.get_mut(subscriber.index()) else {
            return;
        };
        let (dist, heap) = (&mut self.alpha_distances, &mut self.frontier);
        self.snapshot.bound_into(subscriber, dist, heap, bound);
        sweep_order_into(bound, order);
        self.bounded.insert(subscriber);
    }

    /// The current pruning bound and sweep order of `subscriber`, if it has
    /// them.
    fn bound(&self, subscriber: NodeId) -> Option<&(Vec<f64>, Vec<u32>)> {
        self.bounds
            .get(subscriber.index())
            .filter(|_| self.bounded.contains(subscriber))
    }

    /// Builds the tables of every job over the overlay minus the `absent`
    /// brokers, with `m` transmissions per link attempt, and returns them
    /// in job order.
    pub fn build(
        &mut self,
        topo: &Topology,
        estimates: &LinkEstimates,
        m: u32,
        config: &DcrdConfig,
        absent: &NodeSet,
        jobs: Vec<PairJob>,
    ) -> Vec<(PairJob, SubscriberTables)> {
        let live = topo.num_nodes().saturating_sub(absent.len());
        let earned = jobs.len().saturating_mul(live) / PAIR_NODES_PER_WORKER;
        let workers = earned.min(self.max_workers);
        self.build_on(workers, topo, estimates, m, config, absent, jobs)
    }

    /// [`build`](Self::build) on exactly `workers` workers. Each pair is
    /// the same kernel call over the same read-only inputs, and no
    /// worker's [`TableWorkspace`] carries a value into the pair it serves.
    #[allow(clippy::too_many_arguments)] // build's inputs plus the worker count
    fn build_on(
        &mut self,
        workers: usize,
        topo: &Topology,
        estimates: &LinkEstimates,
        m: u32,
        config: &DcrdConfig,
        absent: &NodeSet,
        jobs: Vec<PairJob>,
    ) -> Vec<(PairJob, SubscriberTables)> {
        if jobs.is_empty() {
            return Vec::new();
        }
        // Serial prelude, shared read-only by every worker: the per-edge
        // m-transmission stats, the masked adjacency snapshot over them and
        // the trees held over the same mask, the tree of each job publisher
        // not held yet, and one subscriber-rooted α-distance bound per
        // distinct subscriber (a subscriber listening on several topics
        // shares one Dijkstra pass) — each kept from the last build while
        // its inputs hold.
        self.prepare(topo, estimates, m, absent);
        for job in &jobs {
            if self.trees.get(job.publisher).is_none() {
                let tree = dijkstra_masked(topo, job.publisher, Metric::Delay, absent);
                self.trees.insert(job.publisher, tree);
            }
            self.keep_bound(job.subscriber);
        }

        let mut workspaces = std::mem::take(&mut self.workspaces);
        let this = &*self;
        let new_workspace = || TableWorkspace::new(&this.snapshot);
        let built = par::map_init(jobs, workers, &mut workspaces, new_workspace, |ws, job| {
            // Both lookups were filled by the prelude; a miss would be a
            // bug, and the degraded path leaves that pair without tables.
            let (Some(tree), Some((bound, order))) =
                (this.trees.get(job.publisher), this.bound(job.subscriber))
            else {
                debug_assert!(false, "pair job without its prelude inputs");
                return None;
            };
            let mut tables = SubscriberTables::unfilled(job);
            ws.set_sweep_order(job.subscriber, order);
            pair_fixed_point(&this.snapshot, bound, tree, config, absent, ws, &mut tables);
            Some((job, tables))
        });
        self.workspaces = workspaces;
        let mut tables = Vec::with_capacity(built.len());
        tables.extend(built.into_iter().flatten());
        tables
    }

    /// Rebuilds `tables` for their job in place over the snapshot, mask and
    /// trees of the last [`prepare`](Self::prepare), inline on the
    /// builder's first workspace: the kernel call a [`build`](Self::build)
    /// of the job makes, refilling the tables' buffers. No job list, no
    /// fan-out, no per-pass work, and no allocation once earlier builds
    /// sized the builder's buffers and the table's.
    pub fn settle(&mut self, config: &DcrdConfig, tables: &mut SubscriberTables) {
        debug_assert!(self.snapshot_valid, "settle before prepare");
        let subscriber = tables.subscriber();
        self.keep_bound(subscriber);
        if self.workspaces.is_empty() {
            self.workspaces.push(TableWorkspace::new(&self.snapshot));
        }
        let mut workspaces = std::mem::take(&mut self.workspaces);
        let (kept, tree) = (self.bound(subscriber), self.trees.get(tables.publisher()));
        if let (Some((bound, order)), Some(tree), Some(ws)) = (kept, tree, workspaces.first_mut()) {
            ws.set_sweep_order(subscriber, order);
            let (snapshot, absent) = (&self.snapshot, &self.snapshot_mask);
            pair_fixed_point(snapshot, bound, tree, config, absent, ws, tables);
        } else {
            debug_assert!(false, "settle without a bound, a tree or a workspace");
        }
        self.workspaces = workspaces;
    }

    /// What [`settle`](Self::settle) would make of `tables`, for a reader
    /// that holds the builder shared: the same kernel call into a copy, on
    /// a workspace and a bound of its own.
    #[must_use]
    pub fn settled(&self, config: &DcrdConfig, tables: &SubscriberTables) -> SubscriberTables {
        debug_assert!(self.snapshot_valid, "settled before prepare");
        let mut out = SubscriberTables::unfilled(tables.job);
        let Some(tree) = self.trees.get(out.publisher()) else {
            debug_assert!(false, "settled without a tree");
            return tables.clone();
        };
        let subscriber = out.subscriber();
        let mut own = Vec::new();
        let bound = match self.bound(subscriber) {
            Some((bound, _)) => bound,
            None => {
                self.snapshot.bound_into(
                    subscriber,
                    &mut Vec::new(),
                    &mut BinaryHeap::new(),
                    &mut own,
                );
                &own
            }
        };
        let mut ws = TableWorkspace::new(&self.snapshot);
        pair_fixed_point(
            &self.snapshot,
            bound,
            tree,
            config,
            &self.snapshot_mask,
            &mut ws,
            &mut out,
        );
        out
    }
}

/// Per-edge `m`-transmission statistics for the whole topology, indexed by
/// edge id, into `out`. Depends only on `(estimates, m)`, so one snapshot
/// serves every subscription of a table build.
fn fill_link_stats(topo: &Topology, estimates: &LinkEstimates, m: u32, out: &mut Vec<LinkStats>) {
    out.clear();
    out.extend(topo.edge_ids().map(|e| {
        let est = estimates.get(e);
        m_transmission_stats(est.alpha.as_micros() as f64, est.gamma, m)
    }));
}

/// Per-node `(neighbor, link stats)` adjacency minus the absent brokers, in
/// CSR form: one flat pair array plus per-node offsets.
///
/// The snapshot depends only on `(topology, link stats, absent set)` — none
/// of which vary across the subscriptions of one table rebuild — so build
/// it **once per rebuild pass** and share it across every
/// `(publisher, subscriber)` pair.
#[derive(Debug, Clone, Default)]
struct AdjacencySnapshot {
    /// Node `v`'s row lives at `pairs[offsets[v] .. offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// Flat `(neighbor, link stats)` pairs in topology neighbor order, which
    /// fixes the float operation order of every `⟨d, r⟩`.
    pairs: Vec<(NodeId, LinkStats)>,
}

impl AdjacencySnapshot {
    /// Refills the snapshot in place for one rebuild pass.
    fn rebuild(&mut self, topo: &Topology, link_stats: &[LinkStats], absent: &NodeSet) {
        let n = topo.num_nodes();
        let AdjacencySnapshot { offsets, pairs } = self;
        offsets.clear();
        offsets.reserve_exact(n + 1);
        pairs.clear();
        pairs.reserve_exact(2 * topo.num_edges());
        offsets.push(0);
        for i in 0..n {
            pairs.extend(
                topo.neighbors(NodeId::new(i as u32))
                    .iter()
                    .filter(|&&(nb, _)| !absent.contains(nb))
                    .filter_map(|&(nb, edge)| Some((nb, *link_stats.get(edge.index())?))),
            );
            offsets.push(pairs.len() as u32);
        }
    }

    /// Number of nodes the snapshot covers.
    fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The live `(neighbor, link stats)` row of node `i` (empty for a node
    /// outside the snapshot).
    fn row(&self, i: usize) -> &[(NodeId, LinkStats)] {
        csr_row(&self.offsets, &self.pairs, i)
    }

    /// Shortest α-distance in µs from `source` to every node over the live
    /// rows, into `dist` — the cheapest conditional delay any `⟨d, r⟩`
    /// value can ever reach, since Eq. 2 adds a full link α per hop and
    /// Eq. 3's expectation never undercuts its fastest candidate. `heap`
    /// is scratch, empty on return.
    ///
    /// A [`TableBuilder`] computes this once per subscriber (it depends
    /// only on the snapshot and the source) and feeds it to the kernel as
    /// the pruning bound.
    fn alpha_distances_into(
        &self,
        source: NodeId,
        dist: &mut Vec<f64>,
        heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
    ) {
        let n = self.num_nodes();
        dist.clear();
        dist.resize(n, f64::INFINITY);
        heap.clear();
        // Non-negative finite f64 bit patterns order like the values, so
        // the heap can key on raw bits without a float wrapper type.
        if let Some(at_source) = dist.get_mut(source.index()) {
            *at_source = 0.0;
            heap.push(Reverse((0, source.index() as u32)));
        }
        while let Some(Reverse((dbits, u))) = heap.pop() {
            let d = f64::from_bits(dbits);
            if dist.get(u as usize).is_none_or(|&best| d > best) {
                continue;
            }
            for &(nb, stats) in self.row(u as usize) {
                if !stats.alpha.is_finite() {
                    continue;
                }
                let nd = d + stats.alpha;
                if let Some(best) = dist.get_mut(nb.index()).filter(|best| nd < **best) {
                    *best = nd;
                    heap.push(Reverse((nd.to_bits(), nb.index() as u32)));
                }
            }
        }
    }

    /// For every node, the minimum of `values` over its live neighbors
    /// (`∞` for isolated nodes), into `out`. One O(E) pass over
    /// [`alpha_distances_into`](Self::alpha_distances_into)`(subscriber)`
    /// turns the per-pair "does any neighbor beat the requirement?"
    /// ellipse scan into an O(1) lookup per node — the builder keeps the
    /// result per subscriber and hands it to the kernel as the pruning
    /// bound.
    fn neighbor_min_into(&self, values: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.num_nodes()).map(|i| {
            self.row(i)
                .iter()
                .filter_map(|&(nb, _)| values.get(nb.index()))
                .fold(f64::INFINITY, |m, &v| m.min(v))
        }));
    }

    /// `subscriber`'s pruning bound, into `out`: its α-distances
    /// ([`alpha_distances_into`](Self::alpha_distances_into), into the
    /// scratch `dist` and `heap`) minimised over each node's live
    /// neighbours ([`neighbor_min_into`](Self::neighbor_min_into)).
    fn bound_into(
        &self,
        subscriber: NodeId,
        dist: &mut Vec<f64>,
        heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
        out: &mut Vec<f64>,
    ) {
        self.alpha_distances_into(subscriber, dist, heap);
        self.neighbor_min_into(dist, out);
    }
}

/// Reusable scratch buffers for [`pair_fixed_point`] against one
/// [`AdjacencySnapshot`]: a list buffer, the active brokers, the sweep
/// order, the frozen lists, the final lists, and the fused step's visit
/// permutations. One workspace serves every pair its worker builds, and a
/// [`TableBuilder`] keeps its workspaces from one build to the next.
///
/// Every buffer is sized for the snapshot's worst case when the workspace
/// is fitted to it — `n` per node, the snapshot's `2E` row entries for
/// anything gathered from rows (no broker's list outgrows its row), the
/// widest row for one list — so no pair ever grows one. A pair's
/// allocations are therefore its own, whichever worker's workspace it
/// lands in and whatever that workspace served before.
#[derive(Debug, Default)]
struct TableWorkspace {
    list_buf: Vec<Candidate>,
    active: Vec<bool>,
    /// The sweep order of `sweep_for`'s pairs ([`sweep_order_into`]).
    sweep_order: Vec<u32>,
    sweep_for: Option<NodeId>,
    frozen_offsets: Vec<u32>,
    frozen_flat: Vec<(NodeId, LinkStats)>,
    /// The final sending lists of the pair in progress, copied out once
    /// complete.
    cands: Vec<Candidate>,
    /// Per-node persistent visit permutations for the fused step, in CSR
    /// form (`order[order_offsets[i] .. order_offsets[i + 1]]`, row slots
    /// capped at [`FUSED_STACK`]). Any permutation is a valid starting
    /// arrangement, so the buffers survive across pairs — and a prior
    /// pair's converged order is itself a good warm start.
    order: Vec<u8>,
    order_offsets: Vec<u32>,
}

impl TableWorkspace {
    /// A workspace for pairs over `snapshot`, with the identity visit
    /// permutation on every row.
    fn new(snapshot: &AdjacencySnapshot) -> Self {
        let mut ws = TableWorkspace::default();
        ws.fit(snapshot);
        ws
    }

    /// Fits the workspace to `snapshot`: reserves the snapshot's worst
    /// case in every buffer (allocating only where an earlier snapshot was
    /// smaller) and resets every row's visit permutation to the identity.
    fn fit(&mut self, snapshot: &AdjacencySnapshot) {
        let n = snapshot.num_nodes();
        let entries = snapshot.pairs.len();
        let widest = (0..n).map(|i| snapshot.row(i).len()).max().unwrap_or(0);
        fn room<T>(buf: &mut Vec<T>, size: usize) {
            buf.clear();
            buf.reserve_exact(size);
        }
        room(&mut self.list_buf, widest);
        room(&mut self.active, n);
        room(&mut self.sweep_order, n);
        self.sweep_for = None;
        room(&mut self.frozen_offsets, n + 1);
        room(&mut self.frozen_flat, entries);
        room(&mut self.cands, entries);
        room(&mut self.order, entries);
        room(&mut self.order_offsets, n + 1);
        self.order_offsets.push(0);
        for i in 0..n {
            self.order
                .extend(0..snapshot.row(i).len().min(FUSED_STACK) as u8);
            self.order_offsets.push(self.order.len() as u32);
        }
    }

    /// Lends the kernel `subscriber`'s sweep order, as a builder keeps it.
    fn set_sweep_order(&mut self, subscriber: NodeId, order: &[u32]) {
        self.sweep_order.clear();
        self.sweep_order.extend_from_slice(order);
        self.sweep_for = Some(subscriber);
    }
}

/// Every node of `bound`'s snapshot in ascending (pruning bound, index)
/// order, into `out`: the sweep order of every pair toward its subscriber.
fn sweep_order_into(bound: &[f64], out: &mut Vec<u32>) {
    let bound_of = |i: u32| bound.get(i as usize).copied().unwrap_or(f64::INFINITY);
    out.clear();
    out.extend(0..bound.len() as u32);
    out.sort_unstable_by(|&a, &b| bound_of(a).total_cmp(&bound_of(b)).then(a.cmp(&b)));
}

/// The kernel: one subscription's `⟨d, r⟩` fixed point against a prebuilt
/// [`AdjacencySnapshot`] and caller-owned scratch. The absent brokers
/// contribute no candidates, get no sending lists, and carry `−∞`
/// requirements; an empty mask *is* the unmasked computation — one float
/// operation order, one freeze schedule — which is what lets a repaired
/// table be checked against a fresh build byte for byte.
///
/// The call first fills `out`'s per-node delay requirements for its job
/// from `dist_from_publisher`, the publisher's shortest-delay tree masked
/// by the same absent set, so they reflect detours around the missing
/// brokers. `spd_bound_from_subscriber` must be
/// [`neighbor_min_into`](AdjacencySnapshot::neighbor_min_into) over
/// [`alpha_distances_into`](AdjacencySnapshot::alpha_distances_into)`(subscriber)`
/// on the same snapshot, and `ws` must have been fitted to it.
///
/// The tables land in `out`, whose buffers are cleared and refilled (a
/// settle hands in the tables it replaces). The result depends neither on
/// what `out` held beyond its job nor on what `ws` was used for before:
/// every buffer is cleared per call, the visit permutations `ws` keeps
/// only change the order an exact sort *starts* from, and the sweep order
/// it keeps for one subscriber is the one that subscriber's bound gives
/// over the snapshot `ws` was last fitted to. Inputs of the wrong
/// length read as unreachable brokers instead of panicking (debug builds
/// assert).
fn pair_fixed_point(
    snapshot: &AdjacencySnapshot,
    spd_bound_from_subscriber: &[f64],
    dist_from_publisher: &ShortestPaths,
    config: &DcrdConfig,
    absent: &NodeSet,
    ws: &mut TableWorkspace,
    out: &mut SubscriberTables,
) {
    let n = snapshot.num_nodes();
    let SubscriberTables {
        job,
        requirements,
        list_offsets,
        list_cands,
        params,
        rounds_used: out_rounds_used,
        node_steps: out_node_steps,
        converged: out_converged,
    } = out;
    let subscriber = job.subscriber;
    // `D_XS = D_PS − shortest delay(P → X)`, and no budget at a broker the
    // masked tree does not reach.
    let deadline_us = job.deadline.as_micros() as f64;
    requirements.clear();
    requirements.extend((0..n).map(|i| {
        let node = NodeId::new(i as u32);
        match dist_from_publisher.cost_to(node) {
            Some(c) if !absent.contains(node) => deadline_us - c as f64,
            _ => f64::NEG_INFINITY,
        }
    }));
    let requirements: &[f64] = requirements;
    debug_assert!(
        requirements.len() == n && spd_bound_from_subscriber.len() == n,
        "requirements or distance bound of another snapshot"
    );
    debug_assert_eq!(
        ws.order_offsets.len(),
        n + 1,
        "workspace of another snapshot"
    );

    // The sweeps below only vary in the neighbors' `⟨d, r⟩`, so the sweep
    // loop rebuilds one reusable candidate buffer straight from the static
    // snapshot rows instead of walking the topology per node per sweep.
    // Absent neighbors were dropped at snapshot build time, so no sweep
    // ever considers them as candidates.
    let TableWorkspace {
        list_buf,
        active,
        sweep_order,
        sweep_for,
        frozen_offsets,
        frozen_flat,
        cands,
        order,
        order_offsets,
    } = ws;
    list_buf.clear();

    // An absent subscriber never anchors `⟨0, 1⟩`: every broker (correctly)
    // converges to unreachable and all lists come out empty.
    let subscriber_active = !absent.contains(subscriber);
    params.clear();
    params.resize(n, DrPair::UNREACHABLE);
    if let Some(anchor) = params
        .get_mut(subscriber.index())
        .filter(|_| subscriber_active)
    {
        *anchor = DrPair::SUBSCRIBER;
    }

    // Ellipse pruning: a neighbor's `⟨d, r⟩` can never report a `d` below
    // its shortest α-distance to the subscriber, so a broker whose
    // requirement undercuts that bound for *every* neighbor provably holds
    // an empty sending list in every sweep and stays `UNREACHABLE` — the
    // exact values the full iteration would produce. The survivors form the
    // deadline ellipse around the publisher→subscriber axis
    // (`dist(P→X) + spd(X→S) ≲ deadline`), which shrinks sharply for
    // close pairs and tight deadlines.
    active.clear();
    active.resize(n, false);
    let nodes = active
        .iter_mut()
        .zip(spd_bound_from_subscriber)
        .zip(requirements)
        .enumerate();
    for (i, ((is_active, &bound), &requirement)) in nodes {
        *is_active = bound < requirement && !(i == subscriber.index() && subscriber_active);
    }
    // Sweep order: nearest the subscriber first, so one sweep carries the
    // subscriber's announcement outward as far as its values have settled,
    // as §III-B's gossip does. Inactive brokers stay `UNREACHABLE` under
    // any schedule, so only the active brokers' order matters.
    if *sweep_for != Some(subscriber) {
        sweep_order_into(spd_bound_from_subscriber, sweep_order);
        *sweep_for = Some(subscriber);
    }
    let mut rounds_used = 0;
    let mut node_steps = 0u64;
    let mut converged = false;
    // The deadline filter and the value-dependent sort make the iteration a
    // *discrete* dynamical system: a neighbor whose `d` sits near a
    // requirement boundary can flap in and out of sending lists (and lists
    // can keep re-ordering), sustaining a limit cycle — a case the paper,
    // which assumes the distributed computation settles, never addresses.
    // Remedy: run the exact iteration for a warm-up; if it has not settled,
    // freeze every list's membership *and order* and keep iterating only
    // the `⟨d, r⟩` values, which then converge like an absorption-time
    // system.
    let warmup = (MAX_ROUNDS / 2).max(8);
    // Frozen list membership and order, in CSR form (node `i`'s order is
    // `frozen_flat[frozen_offsets[i] .. frozen_offsets[i + 1]]`): two flat
    // buffers instead of one `Vec` per broker. Each entry carries its
    // link's static stats so frozen sweeps recompute Eq. 2 without
    // re-searching the row.
    let mut have_frozen = false;
    frozen_offsets.clear();
    frozen_flat.clear();
    let fused = config.ordering == OrderingPolicy::RatioOptimal;
    // Node `i`'s visit permutation, when the fused step serves its row.
    let visit_order = |i: usize, row_len: usize| {
        let off = *order_offsets
            .get(i)
            .filter(|_| fused && row_len <= FUSED_STACK)? as usize;
        Some(off..off + row_len)
    };
    for sweep in 1..=MAX_ROUNDS {
        rounds_used = sweep;
        if sweep > warmup && !have_frozen {
            frozen_offsets.push(0);
            for (i, (&is_active, &requirement)) in active.iter().zip(requirements).enumerate() {
                if is_active {
                    let row = snapshot.row(i);
                    build_sending_list_from_row(
                        row,
                        params,
                        requirement,
                        config.ordering,
                        list_buf,
                    );
                    // Every candidate was gathered from `row`, so the find
                    // always succeeds; a miss would mean a corrupted list,
                    // and the degraded path drops that entry.
                    frozen_flat.extend(
                        list_buf
                            .iter()
                            .filter_map(|c| row.iter().find(|&&(nb, _)| nb == c.neighbor).copied()),
                    );
                }
                frozen_offsets.push(frozen_flat.len() as u32);
            }
            have_frozen = true;
        }
        let mut max_dd = 0.0f64;
        let mut max_dr = 0.0f64;
        for &iu in sweep_order
            .iter()
            .filter(|&&i| active.get(i as usize) == Some(&true))
        {
            let i = iu as usize;
            let (Some(&old), Some(&requirement)) = (params.get(i), requirements.get(i)) else {
                continue;
            };
            node_steps += 1;
            let p = if !have_frozen {
                let row = snapshot.row(i);
                let visit = visit_order(i, row.len()).and_then(|at| order.get_mut(at));
                match visit {
                    Some(visit) => node_step_ratio(row, params, requirement, visit),
                    None => {
                        build_sending_list_from_row(
                            row,
                            params,
                            requirement,
                            config.ordering,
                            list_buf,
                        );
                        combine(list_buf)
                    }
                }
            } else {
                frozen_list_from_entries(csr_row(frozen_offsets, frozen_flat, i), params, list_buf);
                combine(list_buf)
            };
            let (dd, dr) = delta(p, old);
            max_dd = max_dd.max(dd);
            max_dr = max_dr.max(dr);
            // In place: every broker later in this sweep reads the new value.
            if let Some(slot) = params.get_mut(i) {
                *slot = p;
            }
        }
        if max_dd <= TOLERANCE_D && max_dr <= TOLERANCE_R {
            converged = true;
            break;
        }
    }

    // Final lists from the converged parameters (honoring the freeze, so
    // the returned lists are consistent with the returned values), built
    // into the workspace and copied out once complete: at most one
    // allocation per table (none when a recycled one has the room),
    // whatever pair the workspace built last. Fused-eligible rows reuse the
    // persistent visit order exactly like the sweep step, keeping the
    // final sort nearly-sorted too.
    list_offsets.clear();
    list_offsets.reserve_exact(n + 1);
    cands.clear();
    list_offsets.push(0);
    for (i, (&is_active, &requirement)) in active.iter().zip(requirements).enumerate() {
        if is_active {
            if !have_frozen {
                let row = snapshot.row(i);
                let visit = visit_order(i, row.len()).and_then(|at| order.get_mut(at));
                match visit {
                    Some(visit) => {
                        extend_sorted_candidates(row, params, requirement, visit, cands);
                    }
                    None => {
                        build_sending_list_from_row(
                            row,
                            params,
                            requirement,
                            config.ordering,
                            list_buf,
                        );
                        cands.extend_from_slice(list_buf);
                    }
                }
            } else {
                frozen_list_from_entries(csr_row(frozen_offsets, frozen_flat, i), params, list_buf);
                cands.extend_from_slice(list_buf);
            }
        }
        list_offsets.push(cands.len() as u32);
    }

    list_cands.clear();
    list_cands.extend_from_slice(cands);
    *out_rounds_used = rounds_used;
    *out_node_steps = node_steps;
    *out_converged = converged;
}

/// Row `i` of a CSR table: `items[offsets[i] .. offsets[i + 1]]`, empty
/// for a row the offsets do not bound.
fn csr_row<'a, T>(offsets: &[u32], items: &'a [T], i: usize) -> &'a [T] {
    let (Some(&lo), Some(&hi)) = (offsets.get(i), offsets.get(i + 1)) else {
        return &[];
    };
    items.get(lo as usize..hi as usize).unwrap_or(&[])
}

/// Rebuilds a sending list with *fixed* membership and order, refreshing
/// only the Eq. 2 values from the current params. The entries carry the
/// link stats captured at freeze time, so this is a straight map with no
/// per-entry row search.
fn frozen_list_from_entries(
    entries: &[(NodeId, LinkStats)],
    params: &[DrPair],
    out: &mut Vec<Candidate>,
) {
    out.clear();
    out.extend(entries.iter().map(|&(nb, stats)| {
        let p = params
            .get(nb.index())
            .copied()
            .unwrap_or(DrPair::UNREACHABLE);
        Candidate::from_link(nb, stats.alpha, stats.gamma, p)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_net::estimate::analytic_estimates;
    use dcrd_net::paths::dijkstra;
    use dcrd_net::topology::{full_mesh, line, random_connected, ring, DelayRange};
    use dcrd_pubsub::workload::WorkloadConfig;
    use dcrd_sim::rng::rng_for;

    const MS: f64 = 1_000.0; // µs per ms

    impl AdjacencySnapshot {
        /// Builds the snapshot for one rebuild pass.
        fn build(topo: &Topology, link_stats: &[LinkStats], absent: &NodeSet) -> Self {
            let mut snapshot = AdjacencySnapshot::default();
            snapshot.rebuild(topo, link_stats, absent);
            snapshot
        }
    }

    fn cfg() -> DcrdConfig {
        DcrdConfig::default()
    }

    /// The tables of the one subscription `publisher → subscriber` with a
    /// deadline of `deadline_us`, over the overlay minus `absent`.
    fn pair_masked(
        topo: &Topology,
        estimates: &LinkEstimates,
        m: u32,
        publisher: NodeId,
        subscriber: NodeId,
        deadline_us: f64,
        absent: &NodeSet,
    ) -> SubscriberTables {
        let job = PairJob {
            topic: TopicId::new(0),
            publisher,
            subscriber,
            deadline: SimDuration::from_micros(deadline_us as u64),
        };
        let built = compute_tables(topo, estimates, m, &cfg(), absent, vec![job]);
        built.into_iter().next().expect("one pair").1
    }

    /// [`pair_masked`] over the whole overlay.
    fn pair(
        topo: &Topology,
        estimates: &LinkEstimates,
        m: u32,
        publisher: NodeId,
        subscriber: NodeId,
        deadline_us: f64,
    ) -> SubscriberTables {
        pair_masked(
            topo,
            estimates,
            m,
            publisher,
            subscriber,
            deadline_us,
            &NodeSet::new(),
        )
    }

    #[test]
    fn line_topology_hand_computed() {
        // 0 -10ms- 1 -10ms- 2 ; subscriber 2, publisher 0, lossless.
        let topo = line(3, SimDuration::from_millis(10));
        let est = analytic_estimates(&topo, 0.0, 0.0);
        let t = pair(&topo, &est, 1, topo.node(0), topo.node(2), 100.0 * MS);
        assert!(t.converged());
        assert_eq!(t.params(topo.node(2)), DrPair::SUBSCRIBER);
        let p1 = t.params(topo.node(1));
        assert!((p1.d - 10.0 * MS).abs() < 1.0);
        assert!((p1.r - 1.0).abs() < 1e-9);
        let p0 = t.params(topo.node(0));
        assert!((p0.d - 20.0 * MS).abs() < 1.0);
        assert!((p0.r - 1.0).abs() < 1e-9);
        // Node 0's list contains only node 1.
        let l0 = t.sending_list(topo.node(0));
        assert_eq!(l0.len(), 1);
        assert_eq!(l0[0].neighbor, topo.node(1));
        // Requirements decay along the path.
        assert!((t.requirement(topo.node(0)) - 100.0 * MS).abs() < 1.0);
        assert!((t.requirement(topo.node(1)) - 90.0 * MS).abs() < 1.0);
    }

    #[test]
    fn lossy_links_reduce_r_and_grow_lists() {
        let topo = ring(4, SimDuration::from_millis(10));
        let est = analytic_estimates(&topo, 0.1, 0.0);
        let t = pair(&topo, &est, 1, topo.node(0), topo.node(2), 200.0 * MS);
        assert!(t.converged());
        let p0 = t.params(topo.node(0));
        // Two disjoint 2-hop routes, each with per-link γ=0.9; with
        // neighbor feedback r must be at least 1−(1−0.81)² and below 1.
        assert!(p0.r > 0.95, "r0 = {}", p0.r);
        assert!(p0.r < 1.0);
        // Node 0 can go either way around the ring.
        assert_eq!(t.sending_list(topo.node(0)).len(), 2);
    }

    #[test]
    fn requirement_filter_prunes_long_detours() {
        // Tight deadline: only the direct neighbor qualifies.
        let topo = ring(6, SimDuration::from_millis(10));
        let est = analytic_estimates(&topo, 0.0, 0.0);
        // subscriber = node 1 (10ms away clockwise, 50ms the other way).
        // Deadline 15ms: the counter-clockwise route (d=50ms) must be
        // filtered everywhere it would exceed the budget.
        let t = pair(&topo, &est, 1, topo.node(0), topo.node(1), 15.0 * MS);
        let l0 = t.sending_list(topo.node(0));
        assert_eq!(l0.len(), 1, "only the direct neighbor meets 15ms");
        assert_eq!(l0[0].neighbor, topo.node(1));
    }

    #[test]
    fn subscriber_itself_has_empty_list_and_identity_params() {
        let mut rng = rng_for(1, "prop");
        let topo = full_mesh(6, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.02, 1e-4);
        let t = pair(&topo, &est, 1, topo.node(0), topo.node(3), 500.0 * MS);
        assert!(t.sending_list(topo.node(3)).is_empty());
        assert_eq!(t.params(topo.node(3)), DrPair::SUBSCRIBER);
        assert_eq!(t.subscriber(), topo.node(3));
        assert_eq!(t.publisher(), topo.node(0));
    }

    /// Regression: `params` and `requirement` indexed directly and panicked
    /// on a node id outside the table, where `sending_list` already
    /// degraded to an empty list.
    #[test]
    fn unknown_nodes_read_as_unreachable_instead_of_panicking() {
        let topo = line(3, SimDuration::from_millis(10));
        let est = analytic_estimates(&topo, 0.0, 0.0);
        let t = pair(&topo, &est, 1, topo.node(0), topo.node(2), 100.0 * MS);
        for outside in [NodeId::new(3), NodeId::new(u32::MAX)] {
            assert_eq!(t.params(outside), DrPair::UNREACHABLE);
            assert_eq!(t.requirement(outside), f64::NEG_INFINITY);
            assert!(t.sending_list(outside).is_empty());
        }
    }

    #[test]
    fn mesh_lists_sorted_by_ratio() {
        let mut rng = rng_for(2, "prop");
        let topo = full_mesh(8, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.06, 1e-4);
        let t = pair(&topo, &est, 1, topo.node(0), topo.node(5), 400.0 * MS);
        assert!(t.converged());
        for node in topo.nodes() {
            let list = t.sending_list(node);
            for w in list.windows(2) {
                assert!(
                    w[0].ratio() <= w[1].ratio() + 1e-9,
                    "list of {node} not sorted by d/r"
                );
            }
        }
        // The subscriber's direct link should top every neighbor's list:
        // d/r of the direct hop is hard to beat in a mesh.
        let l0 = t.sending_list(topo.node(0));
        assert!(!l0.is_empty());
    }

    #[test]
    fn unreachable_subscriber_leaves_everything_unreachable() {
        // Disconnected pair: build a line 0-1 and an isolated node 2 via a
        // 3-node line where we only use nodes 0,1 — instead use line(2) plus
        // extra node through builder.
        use dcrd_net::graph::TopologyBuilder;
        let mut b = TopologyBuilder::new(3);
        let nodes = b.nodes();
        b.link(nodes[0], nodes[1], SimDuration::from_millis(10));
        let topo = b.build(); // node 2 isolated
        let est = analytic_estimates(&topo, 0.0, 0.0);
        let t = pair(&topo, &est, 1, topo.node(0), topo.node(2), 100.0 * MS);
        assert!(!t.params(topo.node(0)).reachable());
        assert!(!t.params(topo.node(1)).reachable());
        assert!(t.sending_list(topo.node(0)).is_empty());
        // Nodes unreachable from the publisher have -inf requirement.
        assert_eq!(t.requirement(topo.node(2)), f64::NEG_INFINITY);
    }

    #[test]
    fn convergence_on_random_graphs() {
        for seed in 0..5u64 {
            let mut rng = rng_for(seed, "prop-rand");
            let topo = random_connected(20, 5, DelayRange::PAPER, &mut rng);
            let est = analytic_estimates(&topo, 0.04, 1e-4);
            let t = pair(&topo, &est, 1, topo.node(0), topo.node(10), 600.0 * MS);
            assert!(t.converged(), "seed {seed} did not converge");
            assert!(
                t.rounds_used() < 60,
                "seed {seed} used {} rounds",
                t.rounds_used()
            );
            // Publisher must be able to reach the subscriber.
            assert!(t.params(topo.node(0)).reachable());
        }
    }

    #[test]
    fn m2_increases_r_of_publisher() {
        let mut rng = rng_for(7, "prop-m");
        let topo = random_connected(10, 3, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.2, 0.0);
        let t1 = pair(&topo, &est, 1, topo.node(0), topo.node(5), 1e9);
        let t2 = pair(&topo, &est, 2, topo.node(0), topo.node(5), 1e9);
        // Per-link γ grows with m, so every per-candidate r grows.
        assert!(
            t2.params(topo.node(0)).r >= t1.params(topo.node(0)).r - 1e-9,
            "m=2 r {} < m=1 r {}",
            t2.params(topo.node(0)).r,
            t1.params(topo.node(0)).r
        );
    }

    #[test]
    fn large_overlays_always_converge() {
        // Regression: the deadline filter can flap neighbors in and out of
        // sending lists and orbit forever; the freeze-after-warm-up phase
        // must terminate every subscription on large overlays.
        let mut rng = rng_for(0xC0, "prop-large");
        let topo = random_connected(120, 8, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.06, 1e-4);
        let dist = dijkstra(&topo, topo.node(0), Metric::Delay);
        let jobs: Vec<PairJob> = (1..40)
            .map(|sub| PairJob {
                topic: TopicId::new(0),
                publisher: topo.node(0),
                subscriber: topo.node(sub),
                deadline: SimDuration::from_micros(
                    3 * dist.cost_to(topo.node(sub)).expect("connected"),
                ),
            })
            .collect();
        let built = compute_tables(&topo, &est, 1, &cfg(), &NodeSet::new(), jobs);
        assert_eq!(built.len(), 39);
        for (job, t) in built {
            let sub = job.subscriber;
            assert!(t.converged(), "subscription to node {sub} did not converge");
            assert!(t.params(topo.node(0)).reachable());
        }
    }

    #[test]
    fn workspace_history_never_shows_in_the_tables() {
        // The table-build fan-out hands each worker one workspace and a
        // timing-dependent subset of the pairs, and a builder keeps its
        // workspaces and hands a repair the tables it replaces, so a
        // pair's tables must depend neither on which pairs its workspace
        // served before — on the leftover buffers or the warm visit
        // permutations — nor on what the table it refills held. The
        // history includes an absent subscriber (every broker
        // unreachable, all lists empty) and a workspace fitted to a
        // larger snapshot first.
        let mut rng = rng_for(11, "prop-mask");
        let topo = random_connected(40, 5, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.05, 1e-4);
        let mut stats = Vec::new();
        fill_link_stats(&topo, &est, 1, &mut stats);
        let mut absent = NodeSet::new();
        absent.insert(topo.node(17));
        let whole = AdjacencySnapshot::build(&topo, &stats, &NodeSet::new());
        let snapshot = AdjacencySnapshot::build(&topo, &stats, &absent);
        let config = cfg();
        let build = |publisher: usize,
                     subscriber: usize,
                     ws: &mut TableWorkspace,
                     out: &mut SubscriberTables| {
            let dist = dijkstra_masked(&topo, topo.node(publisher), Metric::Delay, &absent);
            let mut bound = Vec::new();
            let (spd, heap) = (&mut Vec::new(), &mut BinaryHeap::new());
            snapshot.bound_into(topo.node(subscriber), spd, heap, &mut bound);
            let deadline_us = dist
                .cost_to(topo.node(subscriber))
                .map_or(500.0 * MS, |c| 3.0 * c as f64);
            let job = PairJob {
                topic: TopicId::new(0),
                publisher: topo.node(publisher),
                subscriber: topo.node(subscriber),
                deadline: SimDuration::from_micros(deadline_us as u64),
            };
            out.job = job;
            pair_fixed_point(&snapshot, &bound, &dist, &config, &absent, ws, out);
        };
        // Each build below sets the job of the tables it fills.
        let unfilled = || {
            SubscriberTables::unfilled(PairJob {
                topic: TopicId::new(0),
                publisher: topo.node(0),
                subscriber: topo.node(0),
                deadline: SimDuration::ZERO,
            })
        };
        let mut fresh = unfilled();
        build(0, 9, &mut TableWorkspace::new(&snapshot), &mut fresh);
        assert!(fresh.params(topo.node(0)).reachable());
        let mut used = TableWorkspace::new(&whole);
        used.fit(&snapshot);
        let mut recycled = unfilled();
        for (publisher, subscriber) in [(3, 30), (9, 0), (25, 4), (0, 17)] {
            build(publisher, subscriber, &mut used, &mut recycled);
        }
        build(0, 9, &mut used, &mut recycled);
        assert_eq!(recycled, fresh);
    }

    #[test]
    fn masked_computation_routes_around_absent_broker() {
        // Ring 0-1-2-3-0, subscriber 2, publisher 0. With node 1 absent the
        // only route is 0→3→2.
        let topo = ring(4, SimDuration::from_millis(10));
        let est = analytic_estimates(&topo, 0.0, 0.0);
        let absent: NodeSet = [topo.node(1)].into_iter().collect();
        let t = pair_masked(
            &topo,
            &est,
            1,
            topo.node(0),
            topo.node(2),
            200.0 * MS,
            &absent,
        );
        assert!(t.converged());
        // The dead broker is no candidate anywhere and has no list.
        let l0 = t.sending_list(topo.node(0));
        assert_eq!(l0.len(), 1);
        assert_eq!(l0[0].neighbor, topo.node(3));
        assert!(t.sending_list(topo.node(1)).is_empty());
        assert_eq!(t.requirement(topo.node(1)), f64::NEG_INFINITY);
        assert!(!t.params(topo.node(1)).reachable());
        // Detour delay shows up in the requirement decay: 0 is 20ms from 2
        // the surviving way.
        assert!((t.requirement(topo.node(3)) - 190.0 * MS).abs() < 1.0);
        assert!((t.params(topo.node(0)).d - 20.0 * MS).abs() < 1.0);
    }

    #[test]
    fn masked_absent_subscriber_is_unreachable_everywhere() {
        let topo = line(3, SimDuration::from_millis(10));
        let est = analytic_estimates(&topo, 0.0, 0.0);
        let absent: NodeSet = [topo.node(2)].into_iter().collect();
        let t = pair_masked(
            &topo,
            &est,
            1,
            topo.node(0),
            topo.node(2),
            100.0 * MS,
            &absent,
        );
        for i in 0..3 {
            assert!(t.sending_list(topo.node(i)).is_empty());
            assert!(!t.params(topo.node(i)).reachable());
        }
    }

    #[test]
    fn deterministic_output() {
        let mut rng = rng_for(3, "prop-det");
        let topo = random_connected(12, 4, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.05, 1e-4);
        let a = pair(&topo, &est, 1, topo.node(1), topo.node(8), 500.0 * MS);
        let b = pair(&topo, &est, 1, topo.node(1), topo.node(8), 500.0 * MS);
        assert_eq!(a, b);
    }

    #[test]
    fn tables_do_not_depend_on_the_worker_count() {
        let mut rng = rng_for(13, "table-workers");
        let topo = random_connected(96, 6, DelayRange::PAPER, &mut rng);
        let wl = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
        let estimates = analytic_estimates(&topo, 0.05, 0.01);
        // A non-empty mask: the builder fills the masked trees every
        // explicit-count build below reads.
        let absent: NodeSet = [5, 40, 77].into_iter().map(|i| topo.node(i)).collect();
        let config = cfg();
        // One builder for every build below, so its workspaces carry each
        // build's history into the next.
        let mut builder = TableBuilder::new();
        let mut on_jobs = |workers: usize, jobs: Vec<PairJob>| {
            builder.build_on(workers, &topo, &estimates, 1, &config, &absent, jobs)
        };

        let jobs = PairJob::all(&wl);
        assert!(jobs.len() > 200, "only {} pairs", jobs.len());
        let sized = compute_tables(&topo, &estimates, 1, &config, &absent, jobs.clone());
        let serial = on_jobs(1, jobs.clone());
        assert_eq!(serial.len(), jobs.len());
        assert!(serial.iter().any(|(_, t)| t.rounds_used() > 10));
        // The derived `PartialEq`: params, requirements, lists, rounds
        // used, node-steps and convergence flag, bit for bit.
        assert_eq!(sized.len(), serial.len());
        for ((job, tables), (serial_job, serial_tables)) in sized.iter().zip(&serial) {
            assert_eq!(job, serial_job);
            assert!(
                tables == serial_tables,
                "the sized path differs from one worker"
            );
        }
        for workers in [2, 3, 7] {
            let fanned = on_jobs(workers, jobs.clone());
            assert!(
                fanned
                    .iter()
                    .map(|(_, t)| t)
                    .eq(serial.iter().map(|(_, t)| t)),
                "{workers} workers differ from one"
            );
        }
        // Reversed, every workspace serves a different history before each
        // pair, and workers claim different pairs: each job's tables must
        // still be the ones it gets serially in forward order.
        for workers in [1, 2, 3, 1] {
            let reversed = on_jobs(workers, jobs.iter().rev().copied().collect());
            assert_eq!(reversed.len(), serial.len());
            for ((job, tables), (serial_job, serial_tables)) in
                reversed.iter().zip(serial.iter().rev())
            {
                assert_eq!(job, serial_job);
                assert!(
                    tables == serial_tables,
                    "{workers} workers: reversed job list changes the tables of {job:?}"
                );
            }
        }
        // One table at a time, each job settling the tables of the job
        // mirrored to it in place, on the same builder: the batch build's
        // tables again.
        let mut recycled: Vec<SubscriberTables> =
            serial.iter().rev().map(|(_, t)| t.clone()).collect();
        builder.prepare(&topo, &estimates, 1, &absent);
        for ((job, want), tables) in serial.iter().zip(&mut recycled) {
            tables.job = *job;
            builder.settle(&config, tables);
            assert!(
                tables == want,
                "a settled recycled table differs for {job:?}"
            );
        }
    }

    /// The fused node step and its final-pass variant return bit for bit
    /// what the general path returns — `build_sending_list_from_row` under
    /// `RatioOptimal`, then `combine` — over seeded rows of 0 to
    /// `FUSED_STACK` neighbors: unreachable, subscriber and random
    /// `⟨d, r⟩` values drawn from small pools (so `d/r` ties are common),
    /// γ = 0 links, requirements ≤ 0 up to far beyond any `d`, and a
    /// random starting visit order.
    #[test]
    fn fused_step_matches_the_general_path() {
        const NODES: u32 = 24;
        let mut rng = rng_for(0xF05E, "fused-step");
        let mut general = Vec::new();
        let mut fused = Vec::new();
        let mut ties = 0;
        for _ in 0..12_000 {
            let params: Vec<DrPair> = (0..NODES)
                .map(|_| match rng.gen_range(0..6) {
                    0 => DrPair::UNREACHABLE,
                    1 => DrPair::SUBSCRIBER,
                    2 => DrPair { d: 1_000.0, r: 1.0 },
                    3 => DrPair { d: 2_000.0, r: 0.5 },
                    _ => DrPair {
                        d: rng.gen::<f64>() * 50_000.0,
                        r: rng.gen_range(1..=1_000) as f64 / 1_000.0,
                    },
                })
                .collect();
            // Distinct neighbors in random order: a partial Fisher-Yates.
            let len = rng.gen_range(0..=FUSED_STACK);
            let mut ids: Vec<u32> = (0..NODES).collect();
            for i in 0..len {
                ids.swap(i, rng.gen_range(i..NODES as usize));
            }
            let row: Vec<(NodeId, LinkStats)> = ids[..len]
                .iter()
                .map(|&id| {
                    let link = match rng.gen_range(0..5) {
                        0 => m_transmission_stats(1_000.0, 0.0, 1),
                        1 => LinkStats {
                            alpha: 1_000.0,
                            gamma: 1.0,
                        },
                        2 => LinkStats {
                            alpha: 0.0,
                            gamma: 0.5,
                        },
                        _ => m_transmission_stats(
                            rng.gen::<f64>() * 20_000.0,
                            rng.gen::<f64>(),
                            rng.gen_range(1..=3),
                        ),
                    };
                    (NodeId::new(id), link)
                })
                .collect();
            let requirement = match rng.gen_range(0..4) {
                0 => -rng.gen::<f64>() * 10_000.0,
                1 => 0.0,
                2 => rng.gen::<f64>() * 60_000.0,
                _ => 1e12,
            };
            let mut order: Vec<u8> = (0..len as u8).collect();
            for i in (1..len).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut final_order = order.clone();

            build_sending_list_from_row(
                &row,
                &params,
                requirement,
                OrderingPolicy::RatioOptimal,
                &mut general,
            );
            let want = combine(&general);
            let got = node_step_ratio(&row, &params, requirement, &mut order);
            assert_eq!(got.d.to_bits(), want.d.to_bits(), "d of {row:?}");
            assert_eq!(got.r.to_bits(), want.r.to_bits(), "r of {row:?}");

            fused.clear();
            extend_sorted_candidates(&row, &params, requirement, &mut final_order, &mut fused);
            assert_eq!(fused.len(), general.len(), "list of {row:?}");
            for (f, g) in fused.iter().zip(&general) {
                assert_eq!(f.neighbor, g.neighbor, "list of {row:?}");
                assert_eq!(f.d.to_bits(), g.d.to_bits(), "list of {row:?}");
                assert_eq!(f.r.to_bits(), g.r.to_bits(), "list of {row:?}");
            }
            ties += general
                .windows(2)
                .filter(|w| w[0].ratio() == w[1].ratio())
                .count();

            for visit in [&order, &final_order] {
                let mut slots = visit.clone();
                slots.sort_unstable();
                assert!(
                    slots.iter().copied().eq(0..len as u8),
                    "{visit:?} is no permutation of the row's slots"
                );
            }
        }
        assert!(ties > 1_000, "only {ties} tied ratios drawn");
    }

    /// `node_steps` is `rounds_used × active brokers`: the kernel steps
    /// every broker inside the deadline ellipse but the subscriber in every
    /// round, frozen rounds included, and never an absent one. Checked on
    /// every pair from one publisher, unmasked (where some pair runs into
    /// the freeze) and masked.
    #[test]
    fn node_steps_are_rounds_times_active_brokers() {
        let mut rng = rng_for(0x57E9, "node-steps");
        let topo = random_connected(60, 6, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.06, 1e-4);
        let mut stats = Vec::new();
        fill_link_stats(&topo, &est, 1, &mut stats);
        let publisher = topo.node(0);
        let dist = dijkstra(&topo, publisher, Metric::Delay);
        let jobs: Vec<PairJob> = (1..topo.num_nodes())
            .map(|sub| PairJob {
                topic: TopicId::new(0),
                publisher,
                subscriber: topo.node(sub),
                deadline: SimDuration::from_micros(
                    2 * dist.cost_to(topo.node(sub)).expect("connected"),
                ),
            })
            .collect();
        let masked: NodeSet = [7, 21, 40].into_iter().map(|i| topo.node(i)).collect();
        let mut frozen = 0;
        for absent in [NodeSet::new(), masked] {
            let snapshot = AdjacencySnapshot::build(&topo, &stats, &absent);
            let built = compute_tables(&topo, &est, 1, &cfg(), &absent, jobs.clone());
            for (job, t) in &built {
                let mut bound = Vec::new();
                let (spd, heap) = (&mut Vec::new(), &mut BinaryHeap::new());
                snapshot.bound_into(job.subscriber, spd, heap, &mut bound);
                let active = topo
                    .nodes()
                    .filter(|&v| v != job.subscriber && bound[v.index()] < t.requirement(v))
                    .count() as u64;
                assert_eq!(
                    t.node_steps(),
                    u64::from(t.rounds_used()) * active,
                    "{job:?} under {absent:?}"
                );
                frozen += usize::from(t.rounds_used() > 50 && absent.is_empty());
            }
            assert!(built.iter().any(|(_, t)| t.node_steps() > 0));
        }
        assert!(frozen > 0, "no unmasked pair reached the freeze");
    }

    /// The order in which the reference model recomputes its brokers.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Schedule {
        /// In place, nearest the subscriber first: the kernel's schedule.
        Sweep,
        /// Every broker from the previous round's values, for the work
        /// comparison only.
        Jacobi,
    }

    /// What a naive iteration makes of one subscription: the kernel's
    /// rules written out again without any of its speed-ups.
    struct Reference {
        requirements: Vec<f64>,
        params: Vec<DrPair>,
        lists: Vec<Vec<Candidate>>,
        rounds_used: u32,
        converged: bool,
    }

    /// The reference model of the kernel. Every broker outside `absent`
    /// but the subscriber recomputes its sending list
    /// (`build_sending_list_from_row`) and `⟨d, r⟩` (`combine`), for up to
    /// 100 rounds, until no value moves by more than 1 µs in `d` and 1e-9
    /// in `r`. Under [`Schedule::Sweep`] a round visits the brokers in
    /// ascending (bound, index) order — the bound being each broker's
    /// fewest α-µs to the subscriber over the live links (Bellman–Ford),
    /// minimised over its live neighbours — and each new value replaces
    /// the old at once; under [`Schedule::Jacobi`] every broker reads the
    /// previous round's values. Past a warm-up of 50 rounds, every list
    /// keeps the membership and order it had then, and only the
    /// candidates' values are refreshed. No ellipse pruning, no fused
    /// step, no visit permutations, no workspace, no snapshot.
    fn reference(
        topo: &Topology,
        estimates: &LinkEstimates,
        m: u32,
        ordering: OrderingPolicy,
        absent: &NodeSet,
        job: &PairJob,
        schedule: Schedule,
    ) -> Reference {
        let n = topo.num_nodes();
        let deadline_us = job.deadline.as_micros() as f64;
        let tree = dijkstra_masked(topo, job.publisher, Metric::Delay, absent);
        let requirement = |node: NodeId| match tree.cost_to(node) {
            Some(c) if !absent.contains(node) => deadline_us - c as f64,
            _ => f64::NEG_INFINITY,
        };
        let row = |node: NodeId| -> Vec<(NodeId, LinkStats)> {
            topo.neighbors(node)
                .iter()
                .filter(|&&(nb, _)| !absent.contains(nb))
                .map(|&(nb, edge)| {
                    let est = estimates.get(edge);
                    let stats = m_transmission_stats(est.alpha.as_micros() as f64, est.gamma, m);
                    (nb, stats)
                })
                .collect()
        };
        let steps = |node: NodeId| node != job.subscriber && !absent.contains(node);
        let mut to_subscriber = vec![f64::INFINITY; n];
        to_subscriber[job.subscriber.index()] = 0.0;
        let mut relaxed = true;
        while relaxed {
            relaxed = false;
            for u in topo.nodes() {
                for (nb, link) in row(u) {
                    let via = to_subscriber[u.index()] + link.alpha;
                    if link.alpha.is_finite() && via < to_subscriber[nb.index()] {
                        to_subscriber[nb.index()] = via;
                        relaxed = true;
                    }
                }
            }
        }
        let bound = |node: NodeId| {
            row(node)
                .iter()
                .map(|&(nb, _)| to_subscriber[nb.index()])
                .fold(f64::INFINITY, f64::min)
        };
        let mut order: Vec<NodeId> = topo.nodes().filter(|&v| steps(v)).collect();
        if schedule == Schedule::Sweep {
            order.sort_by(|&a, &b| bound(a).total_cmp(&bound(b)).then(a.cmp(&b)));
        }
        let mut params = vec![DrPair::UNREACHABLE; n];
        if !absent.contains(job.subscriber) {
            params[job.subscriber.index()] = DrPair::SUBSCRIBER;
        }
        let list = |node: NodeId,
                    params: &[DrPair],
                    frozen: &Option<Vec<Vec<(NodeId, LinkStats)>>>|
         -> Vec<Candidate> {
            let mut out = Vec::new();
            if !steps(node) {
                return out;
            }
            match frozen {
                Some(frozen) => out.extend(frozen[node.index()].iter().map(|&(nb, link)| {
                    Candidate::from_link(nb, link.alpha, link.gamma, params[nb.index()])
                })),
                None => {
                    build_sending_list_from_row(
                        &row(node),
                        params,
                        requirement(node),
                        ordering,
                        &mut out,
                    );
                }
            }
            out
        };
        let mut frozen: Option<Vec<Vec<(NodeId, LinkStats)>>> = None;
        let (mut rounds_used, mut converged) = (0, false);
        for round in 1..=100 {
            rounds_used = round;
            if round > 50 && frozen.is_none() {
                frozen = Some(
                    topo.nodes()
                        .map(|node| {
                            let links = row(node);
                            list(node, &params, &None)
                                .iter()
                                .map(|c| *links.iter().find(|l| l.0 == c.neighbor).unwrap())
                                .collect()
                        })
                        .collect(),
                );
            }
            let read = params.clone();
            let (mut max_dd, mut max_dr) = (0.0f64, 0.0f64);
            for &node in &order {
                let new = match schedule {
                    Schedule::Sweep => combine(&list(node, &params, &frozen)),
                    Schedule::Jacobi => combine(&list(node, &read, &frozen)),
                };
                let old = params[node.index()];
                let dd = match (new.d.is_finite(), old.d.is_finite()) {
                    (true, true) => (new.d - old.d).abs(),
                    (false, false) => 0.0,
                    _ => f64::INFINITY,
                };
                max_dd = max_dd.max(dd);
                max_dr = max_dr.max((new.r - old.r).abs());
                params[node.index()] = new;
            }
            if max_dd <= 1.0 && max_dr <= 1e-9 {
                converged = true;
                break;
            }
        }
        let lists = topo.nodes().map(|v| list(v, &params, &frozen)).collect();
        Reference {
            requirements: topo.nodes().map(requirement).collect(),
            params,
            lists,
            rounds_used,
            converged,
        }
    }

    /// `⟨d, r⟩` as raw bits, so `==` tells `-0.0` from `0.0`.
    fn bits(p: DrPair) -> (u64, u64) {
        (p.d.to_bits(), p.r.to_bits())
    }

    /// The kernel's tables are the reference model's sweep, bit for bit:
    /// params, sending lists, rounds used and convergence, over seeded 8–40-broker
    /// overlays of degree 3–8 with random masks, deadlines of 1.5–4× the
    /// shortest delay, `m` ∈ {1, 2} and every ordering policy, frozen
    /// pairs among them. On a third of the overlays the links are lossless,
    /// so every `d` and requirement is a whole number of µs, and the
    /// deadline is the delay of a path `P → X – Y ⇝ S` (shortest legs, one
    /// link): there `d` of `Y` can tie the requirement of `X`, the deadline
    /// filter's boundary. The same cases under the reference's Jacobi
    /// schedule must take more rounds in total than the sweep.
    #[test]
    fn kernel_matches_a_naive_sweep_reference() {
        const ORDERINGS: [OrderingPolicy; 4] = [
            OrderingPolicy::RatioOptimal,
            OrderingPolicy::ByDelay,
            OrderingPolicy::ByReliability,
            OrderingPolicy::Unsorted,
        ];
        let mut rng = rng_for(0x7AB1E, "kernel-reference");
        let (mut cases, mut frozen, mut ties) = (0, 0, 0);
        let (mut sweeps, mut jacobi_rounds) = (0u64, 0u64);
        for case in 0..240 {
            let n = rng.gen_range(8..=40);
            let degree = rng.gen_range(3..=8).min(n - 1);
            let topo = random_connected(n, degree, DelayRange::PAPER, &mut rng);
            let lossless = rng.gen_bool(1.0 / 3.0);
            let estimates = match lossless {
                true => analytic_estimates(&topo, 0.0, 0.0),
                false => analytic_estimates(&topo, rng.gen::<f64>() * 0.2, rng.gen::<f64>() * 0.01),
            };
            let m = rng.gen_range(1..=2);
            let config = DcrdConfig {
                ordering: ORDERINGS[case % ORDERINGS.len()],
                ..cfg()
            };
            let absent: NodeSet = topo.nodes().filter(|_| rng.gen_bool(0.1)).collect();
            let publisher = topo.node(rng.gen_range(0..n));
            let subscriber = topo.node(rng.gen_range(0..n));
            let from_publisher = dijkstra(&topo, publisher, Metric::Delay);
            let to_subscriber = dijkstra(&topo, subscriber, Metric::Delay);
            let shortest = from_publisher
                .cost_to(subscriber)
                .expect("connected")
                .max(1_000);
            let factor = 1.5 + 2.5 * rng.gen::<f64>();
            let mut deadline_us = (factor * shortest as f64) as u64;
            if lossless {
                let ties: Vec<u64> = topo
                    .nodes()
                    .flat_map(|x| topo.neighbors(x).iter().map(move |&(y, _)| (x, y)))
                    .filter_map(|(x, y)| {
                        Some(from_publisher.cost_to(x)? + to_subscriber.cost_to(y)?)
                    })
                    .filter(|&us| (3 * shortest / 2..=4 * shortest).contains(&us))
                    .collect();
                if !ties.is_empty() {
                    deadline_us = ties[rng.gen_range(0..ties.len())];
                }
            }
            let job = PairJob {
                topic: TopicId::new(0),
                publisher,
                subscriber,
                deadline: SimDuration::from_micros(deadline_us),
            };
            let built = compute_tables(&topo, &estimates, m, &config, &absent, vec![job]);
            let got = &built[0].1;
            let model = |schedule| {
                reference(
                    &topo,
                    &estimates,
                    m,
                    config.ordering,
                    &absent,
                    &job,
                    schedule,
                )
            };
            let want = model(Schedule::Sweep);
            sweeps += u64::from(want.rounds_used);
            jacobi_rounds += u64::from(model(Schedule::Jacobi).rounds_used);
            let at = format!("case {case}: {job:?}, {:?}", config.ordering);
            assert_eq!(got.rounds_used(), want.rounds_used, "{at}");
            assert_eq!(got.converged(), want.converged, "{at}");
            for node in topo.nodes() {
                let want_list = &want.lists[node.index()];
                assert_eq!(
                    bits(got.params(node)),
                    bits(want.params[node.index()]),
                    "{at}: params of {node}"
                );
                let got_list = got.sending_list(node);
                assert_eq!(got_list.len(), want_list.len(), "{at}: list of {node}");
                for (g, w) in got_list.iter().zip(want_list) {
                    assert_eq!(g.neighbor, w.neighbor, "{at}: list of {node}");
                    assert_eq!(
                        (g.d.to_bits(), g.r.to_bits()),
                        (w.d.to_bits(), w.r.to_bits()),
                        "{at}: list of {node}"
                    );
                }
            }
            cases += 1;
            frozen += usize::from(got.rounds_used() > 50);
            ties += topo
                .nodes()
                .filter(|&x| x != subscriber && !absent.contains(x))
                .flat_map(|x| topo.neighbors(x).iter().map(move |&(y, _)| (x, y)))
                .filter(|&(x, y)| want.params[y.index()].d == want.requirements[x.index()])
                .count();
        }
        println!("{sweeps} sweeps against {jacobi_rounds} Jacobi rounds over {cases} cases");
        assert!(cases >= 200);
        assert!(sweeps < jacobi_rounds, "the sweep saves no rounds");
        assert!(frozen >= 1, "no pair reached the freeze");
        assert!(ties >= 1, "no neighbour's d tied a requirement");
    }
}
