//! The distributed recursive computation of `⟨d, r⟩` (§III-B).
//!
//! In a deployment every broker recomputes its parameters whenever a
//! neighbor shares fresh ones, starting from the subscriber announcing
//! `⟨0, 1⟩`. We model this as **synchronous gossip rounds**: each round,
//! every broker rebuilds its sending list and `⟨d, r⟩` from the previous
//! round's neighbor values. The computation reaches a fixed point (values
//! stop changing within tolerance) in a handful of rounds on the paper's
//! topologies; the round cap guards against pathological oscillation.
//!
//! Because the per-node delay requirement is `D_XS = D_PS − shortest
//! delay(P → X)`, the tables are specific to a *(publisher, subscriber)*
//! pair, i.e. to one subscription.

use dcrd_net::estimate::LinkEstimates;
use dcrd_net::paths::{dijkstra, Metric, ShortestPaths};
use dcrd_net::{NodeId, NodeSet, Topology};
use serde::{Deserialize, Serialize};

use crate::config::{DcrdConfig, PropagationConfig};
use crate::ordering::OrderingPolicy;
use crate::params::{Candidate, DrPair};
use crate::reliability::{m_transmission_stats, LinkStats};
use crate::sending_list::{build_sending_list_from_row, node_params};

/// Degree bound for the fused stack-buffer node step; wider rows take the
/// general list-building path.
const FUSED_STACK: usize = 16;

/// Fused live-round step for one broker under `RatioOptimal` ordering:
/// Algorithm 1's filter, Theorem 1's sort, and Eq. 3's fold, entirely on
/// stack buffers. This produces the same result as
/// `build_sending_list_from_row` + `node_params` — same candidate set,
/// same `d = α + dᵢ` / `r = γ·rᵢ`, the sort's unique permutation
/// (`total_cmp` on `d/r`, ties by neighbor id, here as sign-folded bit
/// keys), and the same sequential Eq. 3 fold — so the returned `⟨d, r⟩`
/// is bit-identical while the candidate list itself is never
/// materialized.
///
/// `order` is this node's persistent visit permutation over `row`'s
/// slots, carried across gossip rounds: candidates are gathered in last
/// round's sorted order, so the insertion sort sees nearly-sorted input
/// and its inner loop stays branch-predictable (`⟨d, r⟩` drifts a little
/// every round, but ranks rarely swap). This is *exact*: the gathered
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

/// The shared gather + filter + sort half of the fused step: member
/// candidates land in `ids`/`ds`/`rs` `[0, len)` in ascending `(d/r, id)`
/// order, and `order` is rewritten for the next round.
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
    for &slot in order.iter() {
        let (nb, link) = row[slot as usize];
        let p = params[nb.index()];
        // Branchless filter: compute and store unconditionally (harmless
        // for failing slots — `∞` arithmetic is well-defined and the slot
        // is overwritten or ignored), advance `len` by the filter bit.
        // Membership flips between rounds would otherwise mispredict.
        let d = link.alpha + p.d;
        let r = link.gamma * p.r;
        let ratio = if r <= 0.0 { f64::INFINITY } else { d / r };
        let bits = ratio.to_bits() as i64;
        keys[len] = (bits ^ ((((bits >> 63) as u64) >> 1) as i64)) as u64 ^ 0x8000_0000_0000_0000;
        ids[len] = nb.index() as u32;
        ds[len] = d;
        rs[len] = r;
        slots[len] = slot;
        rejects[rejected] = slot;
        let pass = p.d < requirement;
        len += pass as usize;
        rejected += !pass as usize;
    }
    for i in 1..len {
        let (key, id, d, r, s) = (keys[i], ids[i], ds[i], rs[i], slots[i]);
        let mut j = i;
        while j > 0 && (keys[j - 1], ids[j - 1]) > (key, id) {
            keys[j] = keys[j - 1];
            ids[j] = ids[j - 1];
            ds[j] = ds[j - 1];
            rs[j] = rs[j - 1];
            slots[j] = slots[j - 1];
            j -= 1;
        }
        keys[j] = key;
        ids[j] = id;
        ds[j] = d;
        rs[j] = r;
        slots[j] = s;
    }
    order[..len].copy_from_slice(&slots[..len]);
    order[len..].copy_from_slice(&rejects[..rejected]);
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
    for k in 0..len {
        if ds[k].is_infinite() {
            debug_assert!(rs[k] <= 0.0, "finite-r candidate with infinite d");
            continue;
        }
        prefix_delay += ds[k];
        numerator += prefix_delay * (rs[k] * fail_all);
        fail_all *= 1.0 - rs[k];
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
    out.extend((0..len).map(|k| Candidate {
        neighbor: NodeId::new(ids[k]),
        d: ds[k],
        r: rs[k],
    }));
}

/// The converged routing state of every broker toward one subscription.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubscriberTables {
    subscriber: NodeId,
    publisher: NodeId,
    /// Per-node delay requirement `D_XS` in µs (may be ≤ 0 for brokers too
    /// far from the publisher).
    requirements: Vec<f64>,
    /// Per-node sorted sending lists in CSR form: node `v`'s list is
    /// `list_cands[list_offsets[v] .. list_offsets[v + 1]]`. One flat
    /// allocation per table instead of one `Vec` per broker — at 1k
    /// brokers the nested form put millions of small allocations on every
    /// rebuild pass.
    list_offsets: Vec<u32>,
    list_cands: Vec<Candidate>,
    /// Per-node `⟨d, r⟩`.
    params: Vec<DrPair>,
    rounds_used: u32,
    converged: bool,
    /// Monotone control-plane version of this entry: bumped by the owning
    /// strategy on every recomputation so the gossip layer can summarize
    /// and reconcile divergent table state by `(subscription, version)`
    /// digests instead of comparing full tables.
    #[serde(default)]
    version: u64,
}

impl SubscriberTables {
    /// The subscriber these tables route toward.
    #[must_use]
    pub fn subscriber(&self) -> NodeId {
        self.subscriber
    }

    /// The publisher whose deadline anchors the requirements.
    #[must_use]
    pub fn publisher(&self) -> NodeId {
        self.publisher
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

    /// The `⟨d, r⟩` parameters of `node`.
    #[must_use]
    pub fn params(&self, node: NodeId) -> DrPair {
        self.params[node.index()]
    }

    /// The per-node delay requirement `D_XS` in µs.
    #[must_use]
    pub fn requirement(&self, node: NodeId) -> f64 {
        self.requirements[node.index()]
    }

    /// Gossip rounds executed before convergence (or the cap).
    #[must_use]
    pub fn rounds_used(&self) -> u32 {
        self.rounds_used
    }

    /// Whether the computation converged within the round cap.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The control-plane version of this entry (0 until the owning
    /// strategy stamps its first recomputation).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stamps the control-plane version (set by the owning strategy on
    /// every build or repair of this entry).
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
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

/// Computes the tables for the subscription `(publisher → subscriber)` with
/// end-to-end deadline `deadline_us`, reusing a precomputed shortest-path
/// tree from the publisher.
///
/// # Panics
///
/// Panics if `dist_from_publisher` was not computed from `publisher`, or if
/// `m == 0`.
#[must_use]
#[allow(clippy::too_many_arguments)] // one value per paper parameter; a struct would obscure them
pub fn compute_tables_with_distances(
    topo: &Topology,
    estimates: &LinkEstimates,
    m: u32,
    publisher: NodeId,
    dist_from_publisher: &ShortestPaths,
    subscriber: NodeId,
    deadline_us: f64,
    config: &DcrdConfig,
) -> SubscriberTables {
    let link_stats = link_transmission_stats(topo, estimates, m);
    compute_tables_prepared_masked(
        topo,
        &link_stats,
        publisher,
        dist_from_publisher,
        subscriber,
        deadline_us,
        config,
        &NodeSet::new(),
    )
}

/// Per-edge `m`-transmission statistics for the whole topology, indexed by
/// edge id. Depends only on `(estimates, m)`, so one snapshot serves every
/// subscription of a table rebuild — hoist it out of per-subscription loops.
#[must_use]
pub fn link_transmission_stats(
    topo: &Topology,
    estimates: &LinkEstimates,
    m: u32,
) -> Vec<LinkStats> {
    topo.edge_ids()
        .map(|e| {
            let est = estimates.get(e);
            m_transmission_stats(est.alpha.as_micros() as f64, est.gamma, m)
        })
        .collect()
}

/// Per-node `(neighbor, link stats)` adjacency minus the absent brokers, in
/// CSR form: one flat pair array plus per-node offsets.
///
/// The snapshot depends only on `(topology, link stats, absent set)` — none
/// of which vary across the subscriptions of one table rebuild — so build
/// it **once per rebuild pass** and share it across every
/// `(publisher, subscriber)` pair. At 1k brokers the per-call construction
/// it replaces dominated rebuild time: thousands of subscription passes
/// each allocating a thousand per-node vectors.
#[derive(Debug, Clone)]
pub struct AdjacencySnapshot {
    /// Node `v`'s row lives at `pairs[offsets[v] .. offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// Flat `(neighbor, link stats)` pairs in topology neighbor order —
    /// the same order the per-call construction produced, which keeps the
    /// `⟨d, r⟩` float operation sequence byte-identical.
    pairs: Vec<(NodeId, LinkStats)>,
}

impl AdjacencySnapshot {
    /// Builds the snapshot for one rebuild pass.
    #[must_use]
    pub fn build(topo: &Topology, link_stats: &[LinkStats], absent: &NodeSet) -> Self {
        let n = topo.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut pairs = Vec::with_capacity(2 * topo.num_edges());
        offsets.push(0);
        for i in 0..n {
            pairs.extend(
                topo.neighbors(NodeId::new(i as u32))
                    .iter()
                    .filter(|&&(nb, _)| !absent.contains(nb))
                    .map(|&(nb, edge)| (nb, link_stats[edge.index()])),
            );
            offsets.push(pairs.len() as u32);
        }
        AdjacencySnapshot { offsets, pairs }
    }

    /// Number of nodes the snapshot covers.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The live `(neighbor, link stats)` row of node `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[(NodeId, LinkStats)] {
        &self.pairs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total number of live `(neighbor, link stats)` pairs.
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Shortest α-distance in µs from `source` to every node over the live
    /// rows — the cheapest conditional delay any `⟨d, r⟩` value can ever
    /// reach, since Eq. 2 adds a full link α per hop and Eq. 3's expectation
    /// never undercuts its fastest candidate.
    ///
    /// Rebuild loops compute this once per subscriber (it depends only on
    /// the snapshot and the source) and feed it to
    /// [`compute_tables_snapshot_ws`] as the pruning bound.
    #[must_use]
    pub fn alpha_distances_from(&self, source: NodeId) -> Vec<f64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        // Non-negative finite f64 bit patterns order like the values, so
        // the heap can key on raw bits without a float wrapper type.
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        if source.index() < n {
            dist[source.index()] = 0.0;
            heap.push(Reverse((0, source.index() as u32)));
        }
        while let Some(Reverse((dbits, u))) = heap.pop() {
            let d = f64::from_bits(dbits);
            if d > dist[u as usize] {
                continue;
            }
            for &(nb, stats) in self.row(u as usize) {
                if !stats.alpha.is_finite() {
                    continue;
                }
                let nd = d + stats.alpha;
                if nd < dist[nb.index()] {
                    dist[nb.index()] = nd;
                    heap.push(Reverse((nd.to_bits(), nb.index() as u32)));
                }
            }
        }
        dist
    }

    /// For every node, the minimum of `values` over its live neighbors
    /// (`∞` for isolated nodes). One O(E) pass over
    /// [`alpha_distances_from`](Self::alpha_distances_from)`(subscriber)`
    /// turns the per-pair "does any neighbor beat the requirement?"
    /// ellipse scan into an O(1) lookup per node — rebuild loops cache
    /// the result per subscriber and hand it to
    /// [`compute_tables_snapshot_ws`] as the pruning bound.
    #[must_use]
    pub fn neighbor_min(&self, values: &[f64]) -> Vec<f64> {
        (0..self.num_nodes())
            .map(|i| {
                self.row(i)
                    .iter()
                    .fold(f64::INFINITY, |m, &(nb, _)| m.min(values[nb.index()]))
            })
            .collect()
    }
}

/// [`compute_tables_with_distances`] with the per-edge link statistics
/// precomputed by [`link_transmission_stats`], over the overlay minus the
/// `absent` brokers (departed or confirmed dead): absent nodes contribute
/// no candidates, get no sending lists, and carry `−∞` requirements. An
/// empty mask *is* the unmasked computation — one kernel, one float
/// operation order, one freeze schedule — which is what lets incremental
/// repair be oracle-checked against a from-scratch rebuild byte for byte.
///
/// Builds a throwaway [`AdjacencySnapshot`] and [`TableWorkspace`]; rebuild
/// loops that recompute many subscriptions against one absent set should
/// build the snapshot once and call [`compute_tables_snapshot_ws`] instead.
///
/// `dist_from_publisher` should be computed with
/// [`dijkstra_masked`](dcrd_net::paths::dijkstra_masked) over the same
/// absent set so requirements reflect detours around the missing brokers.
///
/// # Panics
///
/// Panics if `dist_from_publisher` was not computed from `publisher`.
#[must_use]
#[allow(clippy::too_many_arguments)] // one value per paper parameter plus the mask
pub fn compute_tables_prepared_masked(
    topo: &Topology,
    link_stats: &[LinkStats],
    publisher: NodeId,
    dist_from_publisher: &ShortestPaths,
    subscriber: NodeId,
    deadline_us: f64,
    config: &DcrdConfig,
    absent: &NodeSet,
) -> SubscriberTables {
    let snapshot = AdjacencySnapshot::build(topo, link_stats, absent);
    let spd = snapshot.alpha_distances_from(subscriber);
    let spd_bound = snapshot.neighbor_min(&spd);
    compute_tables_snapshot_ws(
        &snapshot,
        publisher,
        dist_from_publisher,
        subscriber,
        &spd_bound,
        deadline_us,
        config,
        absent,
        &mut TableWorkspace::default(),
    )
}

/// Reusable scratch buffers for [`compute_tables_snapshot_ws`]. A rebuild
/// pass computes tables for thousands of (topic, subscriber) pairs against
/// one snapshot; sharing one workspace across those calls replaces ~10
/// allocations (some past the allocator's mmap threshold) per pair with
/// `clear`/`resize` on already-warm buffers.
#[derive(Debug, Default)]
pub struct TableWorkspace {
    list_buf: Vec<Candidate>,
    scratch: Vec<DrPair>,
    stamp: Vec<u32>,
    active: Vec<bool>,
    actives: Vec<u32>,
    frozen_offsets: Vec<u32>,
    frozen_flat: Vec<(NodeId, LinkStats)>,
    /// Total sending-list entries produced by the previous call — the
    /// capacity hint for the next table's candidate buffer.
    cands_estimate: usize,
    /// Per-node persistent visit permutations for the fused step, in CSR
    /// form (`order[order_offsets[i] .. order_offsets[i + 1]]`, row slots
    /// capped at [`FUSED_STACK`]). Any permutation is a valid starting
    /// arrangement, so the buffers survive across pairs — and a prior
    /// pair's converged order is itself a good warm start.
    order: Vec<u8>,
    order_offsets: Vec<u32>,
}

/// [`compute_tables_prepared_masked`] against a prebuilt
/// [`AdjacencySnapshot`] and caller-owned scratch — the kernel every other
/// entry point ends in, and the one table rebuild loops call directly.
///
/// `spd_bound_from_subscriber` must be
/// [`neighbor_min`](AdjacencySnapshot::neighbor_min) over
/// [`alpha_distances_from`](AdjacencySnapshot::alpha_distances_from)`(subscriber)`
/// on the same snapshot; rebuild loops cache it per subscriber. The result
/// does not depend on what `ws` was used for before: its buffers are
/// cleared or rebuilt per call, and the visit permutations it keeps only
/// change the order an exact sort *starts* from.
///
/// # Panics
///
/// Panics if `dist_from_publisher` was not computed from `publisher`, or
/// if `spd_bound_from_subscriber` does not cover every node.
#[must_use]
#[allow(clippy::too_many_arguments)] // one value per paper parameter plus the mask
pub fn compute_tables_snapshot_ws(
    snapshot: &AdjacencySnapshot,
    publisher: NodeId,
    dist_from_publisher: &ShortestPaths,
    subscriber: NodeId,
    spd_bound_from_subscriber: &[f64],
    deadline_us: f64,
    config: &DcrdConfig,
    absent: &NodeSet,
    ws: &mut TableWorkspace,
) -> SubscriberTables {
    assert_eq!(
        dist_from_publisher.source(),
        publisher,
        "distance tree must be rooted at the publisher"
    );
    assert_eq!(
        spd_bound_from_subscriber.len(),
        snapshot.num_nodes(),
        "subscriber distance bound must cover every node"
    );
    let n = snapshot.num_nodes();
    let requirements: Vec<f64> = (0..n)
        .map(|i| {
            let node = NodeId::new(i as u32);
            if absent.contains(node) {
                return f64::NEG_INFINITY;
            }
            match dist_from_publisher.cost_to(node) {
                Some(c) => deadline_us - c as f64,
                None => f64::NEG_INFINITY,
            }
        })
        .collect();

    // The gossip rounds below only vary in the neighbors' `⟨d, r⟩`, so the
    // round loop rebuilds one reusable candidate buffer straight from the
    // static snapshot rows instead of walking the topology per node per
    // round. Absent neighbors were dropped at snapshot build time, so no
    // round ever considers them as candidates.
    let TableWorkspace {
        list_buf,
        scratch,
        stamp,
        active,
        actives,
        frozen_offsets,
        frozen_flat,
        cands_estimate,
        order,
        order_offsets,
    } = ws;
    list_buf.clear();

    // (Re)shape the persistent visit permutations when the snapshot's row
    // structure differs from what the workspace holds. Matching shapes keep
    // their contents: every entry is a permutation of its row's slots, which
    // is all the fused step requires.
    let shape_ok = order_offsets.len() == n + 1
        && (0..n).all(|i| {
            (order_offsets[i + 1] - order_offsets[i]) as usize
                == snapshot.row(i).len().min(FUSED_STACK)
        });
    if !shape_ok {
        order.clear();
        order_offsets.clear();
        let mut off = 0u32;
        for i in 0..n {
            order_offsets.push(off);
            let len = snapshot.row(i).len().min(FUSED_STACK);
            for s in 0..len {
                order.push(s as u8);
            }
            off += len as u32;
        }
        order_offsets.push(off);
    }

    let mut params: Vec<DrPair> = vec![DrPair::UNREACHABLE; n];
    if !absent.contains(subscriber) {
        params[subscriber.index()] = DrPair::SUBSCRIBER;
    }

    let prop = config.propagation;
    // An absent subscriber never anchors `⟨0, 1⟩`: every broker (correctly)
    // converges to unreachable and all lists come out empty.
    let subscriber_active = !absent.contains(subscriber);

    // Ellipse pruning: a neighbor's `⟨d, r⟩` can never report a `d` below
    // its shortest α-distance to the subscriber, so a broker whose
    // requirement undercuts that bound for *every* neighbor provably holds
    // an empty sending list in every round and stays `UNREACHABLE` — the
    // exact values the full iteration would produce. The survivors form the
    // deadline ellipse around the publisher→subscriber axis
    // (`dist(P→X) + spd(X→S) ≲ deadline`), which shrinks sharply for
    // close pairs and tight deadlines.
    active.clear();
    active.resize(n, false);
    actives.clear();
    for i in 0..n {
        let node = NodeId::new(i as u32);
        if node == subscriber && subscriber_active {
            continue;
        }
        if spd_bound_from_subscriber[i] < requirements[i] {
            active[i] = true;
            actives.push(i as u32);
        }
    }
    let mut rounds_used = 0;
    let mut converged = false;
    scratch.clear();
    scratch.extend_from_slice(&params);
    // The deadline filter and the value-dependent sort make the iteration a
    // *discrete* dynamical system: a neighbor whose `d` sits near a
    // requirement boundary can flap in and out of sending lists (and lists
    // can keep re-ordering), sustaining a limit cycle — a case the paper,
    // which assumes the distributed computation settles, never addresses.
    // Remedy: run the exact iteration for a warm-up; if it has not settled,
    // freeze every list's membership *and order* and keep iterating only
    // the `⟨d, r⟩` values, which then converge like an absorption-time
    // system.
    let warmup = (prop.max_rounds / 2).max(8);
    // Frozen list membership and order, in CSR form (node `i`'s order is
    // `frozen_flat[frozen_offsets[i] .. frozen_offsets[i + 1]]`): two flat
    // buffers instead of one `Vec` per broker. Each entry carries its
    // link's static stats so frozen rounds recompute Eq. 2 without
    // re-searching the row.
    let mut have_frozen = false;
    frozen_offsets.clear();
    frozen_flat.clear();
    // Frontier tracking: a node's update reads only its *neighbors'*
    // `⟨d, r⟩` — the requirement and link stats are static — so a node
    // whose neighbors all held bit-identical values last round would
    // recompute exactly the value it already has. Skipping it leaves every
    // computed value (and the convergence maxima) bit-for-bit unchanged
    // while collapsing each round to the active wavefront around the
    // subscriber. `stamp[i] >= round` means "recompute `i` this round";
    // stamps only grow, so no per-round clearing pass is needed.
    stamp.clear();
    stamp.resize(n, 1);
    let fused = config.ordering == OrderingPolicy::RatioOptimal;
    for round in 1..=prop.max_rounds {
        rounds_used = round;
        let mut freeze_round = false;
        if round > warmup && !have_frozen {
            freeze_round = true;
            frozen_offsets.push(0);
            for i in 0..n {
                if active[i] {
                    let row = snapshot.row(i);
                    build_sending_list_from_row(
                        row,
                        &params,
                        requirements[i],
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
        for &iu in actives.iter() {
            let i = iu as usize;
            // The freeze transition switches every node to the frozen
            // evaluation path; run it as a full round so the skip only
            // ever compares like against like.
            if stamp[i] < round && !freeze_round {
                scratch[i] = params[i];
                continue;
            }
            let p = if !have_frozen {
                let row = snapshot.row(i);
                if fused && row.len() <= FUSED_STACK {
                    let off = order_offsets[i] as usize;
                    node_step_ratio(
                        row,
                        &params,
                        requirements[i],
                        &mut order[off..off + row.len()],
                    )
                } else {
                    build_sending_list_from_row(
                        row,
                        &params,
                        requirements[i],
                        config.ordering,
                        list_buf,
                    );
                    node_params(list_buf)
                }
            } else {
                frozen_list_from_entries(
                    &frozen_flat[frozen_offsets[i] as usize..frozen_offsets[i + 1] as usize],
                    &params,
                    list_buf,
                );
                node_params(list_buf)
            };
            let (dd, dr) = delta(p, params[i]);
            max_dd = max_dd.max(dd);
            max_dr = max_dr.max(dr);
            if p.d.to_bits() != params[i].d.to_bits() || p.r.to_bits() != params[i].r.to_bits() {
                // A changed `⟨d, r⟩` at `i` only perturbs a neighbor whose
                // sending list can actually see `i`. Live rounds re-filter
                // membership by `d < requirement`, so if `i` fails the
                // neighbor's filter both before and after the change, that
                // neighbor's candidate set and every input to it are
                // untouched — leaving it asleep is exact. Frozen rounds pin
                // membership from freeze time (a member's `d` may since
                // have drifted past the requirement), so they wake every
                // neighbor.
                let old_d = params[i].d;
                if !have_frozen {
                    for &(nb, _) in snapshot.row(i) {
                        let t = nb.index();
                        if p.d < requirements[t] || old_d < requirements[t] {
                            stamp[t] = round + 1;
                        }
                    }
                } else {
                    for &(nb, _) in snapshot.row(i) {
                        stamp[nb.index()] = round + 1;
                    }
                }
            }
            scratch[i] = p;
        }
        std::mem::swap(&mut params, scratch);
        if max_dd <= prop.tolerance_d && max_dr <= prop.tolerance_r {
            converged = true;
            break;
        }
    }

    // Final lists from the converged parameters (honoring the freeze, so
    // the returned lists are consistent with the returned values), built
    // directly into the table's own CSR buffers — sized from the previous
    // pair's total, so the common case is one allocation and no copy.
    // Fused-eligible rows reuse the persistent visit order exactly like
    // the round step, keeping the final sort nearly-sorted too.
    let mut list_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut list_cands: Vec<Candidate> = Vec::with_capacity(*cands_estimate);
    list_offsets.push(0);
    for i in 0..n {
        if active[i] {
            if !have_frozen {
                let row = snapshot.row(i);
                if fused && row.len() <= FUSED_STACK {
                    let off = order_offsets[i] as usize;
                    extend_sorted_candidates(
                        row,
                        &params,
                        requirements[i],
                        &mut order[off..off + row.len()],
                        &mut list_cands,
                    );
                } else {
                    build_sending_list_from_row(
                        row,
                        &params,
                        requirements[i],
                        config.ordering,
                        list_buf,
                    );
                    list_cands.extend_from_slice(list_buf);
                }
            } else {
                frozen_list_from_entries(
                    &frozen_flat[frozen_offsets[i] as usize..frozen_offsets[i + 1] as usize],
                    &params,
                    list_buf,
                );
                list_cands.extend_from_slice(list_buf);
            }
        }
        list_offsets.push(list_cands.len() as u32);
    }
    *cands_estimate = list_cands.len();

    SubscriberTables {
        subscriber,
        publisher,
        requirements,
        list_offsets,
        list_cands,
        params,
        rounds_used,
        converged,
        version: 0,
    }
}

/// Convenience wrapper computing the publisher's distance tree internally.
#[must_use]
pub fn compute_tables(
    topo: &Topology,
    estimates: &LinkEstimates,
    m: u32,
    publisher: NodeId,
    subscriber: NodeId,
    deadline_us: f64,
    config: &DcrdConfig,
) -> SubscriberTables {
    let dist = dijkstra(topo, publisher, Metric::Delay);
    compute_tables_with_distances(
        topo,
        estimates,
        m,
        publisher,
        &dist,
        subscriber,
        deadline_us,
        config,
    )
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
        Candidate::from_link(nb, stats.alpha, stats.gamma, params[nb.index()])
    }));
}

/// Sanity helper for tests/benches: the default propagation settings.
#[must_use]
pub fn default_propagation() -> PropagationConfig {
    PropagationConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_net::estimate::analytic_estimates;
    use dcrd_net::topology::{full_mesh, line, random_connected, ring, DelayRange};
    use dcrd_sim::rng::rng_for;
    use dcrd_sim::SimDuration;

    const MS: f64 = 1_000.0; // µs per ms

    fn cfg() -> DcrdConfig {
        DcrdConfig::default()
    }

    #[test]
    fn line_topology_hand_computed() {
        // 0 -10ms- 1 -10ms- 2 ; subscriber 2, publisher 0, lossless.
        let topo = line(3, SimDuration::from_millis(10));
        let est = analytic_estimates(&topo, 0.0, 0.0);
        let t = compute_tables(
            &topo,
            &est,
            1,
            topo.node(0),
            topo.node(2),
            100.0 * MS,
            &cfg(),
        );
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
        let t = compute_tables(
            &topo,
            &est,
            1,
            topo.node(0),
            topo.node(2),
            200.0 * MS,
            &cfg(),
        );
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
        let t = compute_tables(
            &topo,
            &est,
            1,
            topo.node(0),
            topo.node(1),
            15.0 * MS,
            &cfg(),
        );
        let l0 = t.sending_list(topo.node(0));
        assert_eq!(l0.len(), 1, "only the direct neighbor meets 15ms");
        assert_eq!(l0[0].neighbor, topo.node(1));
    }

    #[test]
    fn subscriber_itself_has_empty_list_and_identity_params() {
        let mut rng = rng_for(1, "prop");
        let topo = full_mesh(6, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.02, 1e-4);
        let t = compute_tables(
            &topo,
            &est,
            1,
            topo.node(0),
            topo.node(3),
            500.0 * MS,
            &cfg(),
        );
        assert!(t.sending_list(topo.node(3)).is_empty());
        assert_eq!(t.params(topo.node(3)), DrPair::SUBSCRIBER);
        assert_eq!(t.subscriber(), topo.node(3));
        assert_eq!(t.publisher(), topo.node(0));
    }

    #[test]
    fn mesh_lists_sorted_by_ratio() {
        let mut rng = rng_for(2, "prop");
        let topo = full_mesh(8, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.06, 1e-4);
        let t = compute_tables(
            &topo,
            &est,
            1,
            topo.node(0),
            topo.node(5),
            400.0 * MS,
            &cfg(),
        );
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
        let t = compute_tables(
            &topo,
            &est,
            1,
            topo.node(0),
            topo.node(2),
            100.0 * MS,
            &cfg(),
        );
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
            let t = compute_tables(
                &topo,
                &est,
                1,
                topo.node(0),
                topo.node(10),
                600.0 * MS,
                &cfg(),
            );
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
        let t1 = compute_tables(&topo, &est, 1, topo.node(0), topo.node(5), 1e9, &cfg());
        let t2 = compute_tables(&topo, &est, 2, topo.node(0), topo.node(5), 1e9, &cfg());
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
        let dist = dcrd_net::paths::dijkstra(&topo, topo.node(0), dcrd_net::paths::Metric::Delay);
        for sub in 1..40 {
            let deadline = 3.0 * dist.cost_to(topo.node(sub)).expect("connected") as f64;
            let t = compute_tables_with_distances(
                &topo,
                &est,
                1,
                topo.node(0),
                &dist,
                topo.node(sub),
                deadline,
                &cfg(),
            );
            assert!(t.converged(), "subscription to node {sub} did not converge");
            assert!(t.params(topo.node(0)).reachable());
        }
    }

    #[test]
    fn workspace_history_never_shows_in_the_tables() {
        // The table-build fan-out hands each worker one workspace and a
        // worker-count-dependent subset of the pairs, so a pair's tables
        // must not depend on which pairs its workspace served before — on
        // the leftover buffers, the capacity hint, or the warm visit
        // permutations. The history includes an absent subscriber (every
        // broker unreachable, all lists empty).
        let mut rng = rng_for(11, "prop-mask");
        let topo = random_connected(40, 5, DelayRange::PAPER, &mut rng);
        let est = analytic_estimates(&topo, 0.05, 1e-4);
        let stats = link_transmission_stats(&topo, &est, 1);
        let mut absent = NodeSet::new();
        absent.insert(topo.node(17));
        let snapshot = AdjacencySnapshot::build(&topo, &stats, &absent);
        let config = cfg();
        let build = |publisher: usize, subscriber: usize, ws: &mut TableWorkspace| {
            let dist = dcrd_net::paths::dijkstra_masked(
                &topo,
                topo.node(publisher),
                Metric::Delay,
                &absent,
            );
            let spd = snapshot.alpha_distances_from(topo.node(subscriber));
            let deadline_us = dist
                .cost_to(topo.node(subscriber))
                .map_or(500.0 * MS, |c| 3.0 * c as f64);
            compute_tables_snapshot_ws(
                &snapshot,
                topo.node(publisher),
                &dist,
                topo.node(subscriber),
                &snapshot.neighbor_min(&spd),
                deadline_us,
                &config,
                &absent,
                ws,
            )
        };
        let fresh = build(0, 9, &mut TableWorkspace::default());
        assert!(fresh.params(topo.node(0)).reachable());
        let mut used = TableWorkspace::default();
        for (publisher, subscriber) in [(3, 30), (9, 0), (25, 4), (0, 17)] {
            let _ = build(publisher, subscriber, &mut used);
        }
        assert_eq!(build(0, 9, &mut used), fresh);
    }

    #[test]
    fn masked_computation_routes_around_absent_broker() {
        use dcrd_net::paths::dijkstra_masked;
        // Ring 0-1-2-3-0, subscriber 2, publisher 0. With node 1 absent the
        // only route is 0→3→2.
        let topo = ring(4, SimDuration::from_millis(10));
        let est = analytic_estimates(&topo, 0.0, 0.0);
        let stats = link_transmission_stats(&topo, &est, 1);
        let absent: NodeSet = [topo.node(1)].into_iter().collect();
        let dist = dijkstra_masked(&topo, topo.node(0), Metric::Delay, &absent);
        let t = compute_tables_prepared_masked(
            &topo,
            &stats,
            topo.node(0),
            &dist,
            topo.node(2),
            200.0 * MS,
            &cfg(),
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
        let stats = link_transmission_stats(&topo, &est, 1);
        let absent: NodeSet = [topo.node(2)].into_iter().collect();
        let dist = dijkstra(&topo, topo.node(0), Metric::Delay);
        let t = compute_tables_prepared_masked(
            &topo,
            &stats,
            topo.node(0),
            &dist,
            topo.node(2),
            100.0 * MS,
            &cfg(),
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
        let a = compute_tables(
            &topo,
            &est,
            1,
            topo.node(1),
            topo.node(8),
            500.0 * MS,
            &cfg(),
        );
        let b = compute_tables(
            &topo,
            &est,
            1,
            topo.node(1),
            topo.node(8),
            500.0 * MS,
            &cfg(),
        );
        assert_eq!(a, b);
    }
}
