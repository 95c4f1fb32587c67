//! Topology generators.
//!
//! The paper's evaluation uses two topology families: a 20-node **full
//! mesh**, and random overlays with a fixed **node degree** (3–10) at sizes
//! from 10 to 160 nodes. Link delays are drawn uniformly from 10–50 ms
//! (AT&T backbone measurements). This module generates both families plus a
//! few deterministic shapes used heavily in tests.

use dcrd_sim::rng::SmallRng;
use dcrd_sim::SimDuration;

use crate::graph::{NodeId, Topology, TopologyBuilder};

/// Inclusive range of one-way link delays assigned by the generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayRange {
    /// Minimum link delay.
    pub min: SimDuration,
    /// Maximum link delay.
    pub max: SimDuration,
}

impl DelayRange {
    /// The paper's 10–50 ms range.
    pub const PAPER: DelayRange = DelayRange {
        min: SimDuration::from_millis(10),
        max: SimDuration::from_millis(50),
    };

    /// A degenerate range producing a fixed delay (useful in tests).
    #[must_use]
    pub const fn fixed(delay: SimDuration) -> Self {
        DelayRange {
            min: delay,
            max: delay,
        }
    }

    /// Draws one delay uniformly from the range (microsecond granularity).
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn sample(&self, rng: &mut SmallRng) -> SimDuration {
        assert!(self.min <= self.max, "invalid delay range");
        if self.min == self.max {
            return self.min;
        }
        SimDuration::from_micros(rng.gen_range(self.min.as_micros()..=self.max.as_micros()))
    }
}

impl Default for DelayRange {
    fn default() -> Self {
        DelayRange::PAPER
    }
}

/// Generates a full mesh of `n` nodes (every pair directly linked), with
/// delays drawn from `delays`. This is the paper's Fig. 2 topology.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn full_mesh(n: usize, delays: DelayRange, rng: &mut SmallRng) -> Topology {
    let mut b = TopologyBuilder::new(n);
    let nodes = b.nodes();
    for i in 0..n {
        for j in (i + 1)..n {
            b.link(nodes[i], nodes[j], delays.sample(rng));
        }
    }
    b.build()
}

/// Generates a connected random overlay in which every node has degree as
/// close as possible to `degree` — the paper's "mesh with reduced
/// connectivity" family (Figs. 3–8).
///
/// Construction: a random Hamiltonian ring guarantees connectivity and gives
/// every node degree 2; random extra links are then added between the
/// least-connected nodes until every node reaches the target degree or no
/// legal pair remains (a pair is legal if unlinked and both below target).
/// For even moderately sized graphs this yields degrees within ±1 of the
/// target, matching the paper's "randomly choose the neighboring nodes for a
/// given link degree".
///
/// # Panics
///
/// Panics if `n < 3` or `degree < 2` or `degree >= n`.
#[must_use]
pub fn random_connected(
    n: usize,
    degree: usize,
    delays: DelayRange,
    rng: &mut SmallRng,
) -> Topology {
    assert!(n >= 3, "random overlay needs at least 3 nodes");
    assert!(degree >= 2, "degree must be at least 2 for connectivity");
    assert!(degree < n, "degree must be below the node count");

    let mut b = TopologyBuilder::new(n);
    let mut order: Vec<NodeId> = b.nodes();
    rng.shuffle(&mut order);
    // Random ring: connected, degree 2 everywhere.
    for i in 0..n {
        let a = order[i];
        let c = order[(i + 1) % n];
        b.link(a, c, delays.sample(rng));
    }

    let mut deg = vec![2usize; n];
    // Greedily add links between random under-target pairs.
    let mut attempts_left = 50 * n * degree;
    while attempts_left > 0 {
        attempts_left -= 1;
        let below: Vec<u32> = (0..n as u32)
            .filter(|&i| deg[i as usize] < degree)
            .collect();
        if below.len() < 2 {
            break;
        }
        let a = NodeId::new(*rng.choose(&below).expect("nonempty"));
        let candidates: Vec<u32> = below
            .iter()
            .copied()
            .filter(|&i| {
                let node = NodeId::new(i);
                node != a && !b.has_link(a, node)
            })
            .collect();
        let Some(&pick) = rng.choose(&candidates) else {
            // `a` is saturated against every other below-target node; if this
            // holds for all of them no legal pair remains.
            let stuck = below.iter().all(|&i| {
                let node = NodeId::new(i);
                below
                    .iter()
                    .all(|&j| j == i || b.has_link(node, NodeId::new(j)))
            });
            if stuck {
                break;
            }
            continue;
        };
        let c = NodeId::new(pick);
        b.link(a, c, delays.sample(rng));
        deg[a.index()] += 1;
        deg[c.index()] += 1;
    }

    let topo = b.build();
    debug_assert!(topo.is_connected());
    topo
}

/// Generates a ring of `n` nodes with fixed `delay` per link.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn ring(n: usize, delay: SimDuration) -> Topology {
    assert!(n >= 3, "ring needs at least 3 nodes");
    let mut b = TopologyBuilder::new(n);
    let nodes = b.nodes();
    for i in 0..n {
        b.link(nodes[i], nodes[(i + 1) % n], delay);
    }
    b.build()
}

/// Generates a line (path graph) of `n` nodes with fixed `delay` per link.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn line(n: usize, delay: SimDuration) -> Topology {
    assert!(n >= 2, "line needs at least 2 nodes");
    let mut b = TopologyBuilder::new(n);
    let nodes = b.nodes();
    for i in 0..n - 1 {
        b.link(nodes[i], nodes[i + 1], delay);
    }
    b.build()
}

/// Generates a geo-tiered overlay: `regions` regional full meshes of
/// `per_region` brokers each with fast `intra` delays, joined through a
/// full mesh of per-region gateways (node 0 of each region) with slow
/// `inter` delays. The resulting link-delay distribution is bimodal —
/// most links are fast, but every cross-region path pays at least one
/// slow hop — which is exactly the regime where delay-cognizant routing
/// and deadline pricing diverge from hop-count routing.
///
/// Node indexing: region `r` owns the contiguous block
/// `[r × per_region, (r + 1) × per_region)`; the region's gateway is the
/// first node of the block.
///
/// # Panics
///
/// Panics if `regions < 2` or `per_region < 2`.
#[must_use]
pub fn geo_tiered(
    regions: usize,
    per_region: usize,
    intra: DelayRange,
    inter: DelayRange,
    rng: &mut SmallRng,
) -> Topology {
    assert!(regions >= 2, "geo-tiered needs at least 2 regions");
    assert!(
        per_region >= 2,
        "geo-tiered needs at least 2 brokers per region"
    );
    let n = regions * per_region;
    let mut b = TopologyBuilder::new(n);
    let nodes = b.nodes();
    for r in 0..regions {
        let base = r * per_region;
        for i in 0..per_region {
            for j in (i + 1)..per_region {
                b.link(nodes[base + i], nodes[base + j], intra.sample(rng));
            }
        }
    }
    for r in 0..regions {
        for s in (r + 1)..regions {
            b.link(
                nodes[r * per_region],
                nodes[s * per_region],
                inter.sample(rng),
            );
        }
    }
    let topo = b.build();
    debug_assert!(topo.is_connected());
    topo
}

/// Generates a star: node 0 is the hub, linked to every other node with
/// fixed `delay`.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn star(n: usize, delay: SimDuration) -> Topology {
    assert!(n >= 2, "star needs at least 2 nodes");
    let mut b = TopologyBuilder::new(n);
    let nodes = b.nodes();
    for i in 1..n {
        b.link(nodes[0], nodes[i], delay);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_sim::rng::rng_for;

    #[test]
    fn full_mesh_shape() {
        let mut rng = rng_for(1, "mesh");
        let t = full_mesh(20, DelayRange::PAPER, &mut rng);
        assert_eq!(t.num_nodes(), 20);
        assert_eq!(t.num_edges(), 20 * 19 / 2);
        assert!(t.is_connected());
        for node in t.nodes() {
            assert_eq!(t.degree(node), 19);
        }
    }

    #[test]
    fn delays_within_range() {
        let mut rng = rng_for(2, "mesh");
        let t = full_mesh(10, DelayRange::PAPER, &mut rng);
        for e in t.edge_ids() {
            let d = t.delay(e);
            assert!(d >= SimDuration::from_millis(10), "delay too small: {d}");
            assert!(d <= SimDuration::from_millis(50), "delay too large: {d}");
        }
    }

    #[test]
    fn fixed_delay_range() {
        let mut rng = rng_for(3, "mesh");
        let d = SimDuration::from_millis(25);
        let t = full_mesh(4, DelayRange::fixed(d), &mut rng);
        for e in t.edge_ids() {
            assert_eq!(t.delay(e), d);
        }
    }

    #[test]
    fn random_connected_hits_target_degree() {
        for seed in 0..10u64 {
            let mut rng = rng_for(seed, "deg");
            for degree in [3usize, 5, 8] {
                let t = random_connected(20, degree, DelayRange::PAPER, &mut rng);
                assert!(t.is_connected(), "seed {seed} degree {degree}");
                let avg = t.average_degree();
                assert!(
                    (avg - degree as f64).abs() < 1.0,
                    "seed {seed}: average degree {avg} far from target {degree}"
                );
                for node in t.nodes() {
                    assert!(t.degree(node) >= 2);
                    // Never exceeds target by more than the ring allowance.
                    assert!(t.degree(node) <= degree.max(2) + 1);
                }
            }
        }
    }

    #[test]
    fn random_connected_various_sizes() {
        for &n in &[10usize, 40, 80, 160] {
            let mut rng = rng_for(n as u64, "size");
            let t = random_connected(n, 8, DelayRange::PAPER, &mut rng);
            assert_eq!(t.num_nodes(), n);
            assert!(t.is_connected());
        }
    }

    #[test]
    fn bigger_networks_have_bigger_diameters_at_fixed_degree() {
        // The paper's Fig. 5 argument: fixed degree + more nodes ⇒ larger
        // diameter ⇒ more hops per delivery.
        use crate::paths::{all_pairs_costs, Metric};
        // (mean, max) over every ordered pair of distinct brokers.
        let hops = |t: &Topology| {
            let costs: Vec<u64> = all_pairs_costs(t, Metric::Hops)
                .into_iter()
                .flatten()
                .map(|c| c.expect("generated overlays are connected"))
                .filter(|&c| c > 0)
                .collect();
            let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
            (mean, costs.into_iter().max().unwrap_or(0))
        };
        let mut rng = rng_for(2, "diag");
        let small = random_connected(20, 8, DelayRange::PAPER, &mut rng);
        let large = random_connected(160, 8, DelayRange::PAPER, &mut rng);
        let (small_mean, small_diameter) = hops(&small);
        let (large_mean, large_diameter) = hops(&large);
        assert!(
            large_mean > small_mean,
            "mean hops must grow with size: {large_mean} vs {small_mean}"
        );
        assert!(large_diameter >= small_diameter);
    }

    #[test]
    fn random_connected_is_deterministic_per_seed() {
        let a = random_connected(15, 4, DelayRange::PAPER, &mut rng_for(7, "t"));
        let b = random_connected(15, 4, DelayRange::PAPER, &mut rng_for(7, "t"));
        assert_eq!(a, b);
        let c = random_connected(15, 4, DelayRange::PAPER, &mut rng_for(8, "t"));
        assert_ne!(a, c);
    }

    #[test]
    fn deterministic_shapes() {
        let d = SimDuration::from_millis(10);
        let r = ring(5, d);
        assert_eq!(r.num_edges(), 5);
        assert!(r.nodes().all(|n| r.degree(n) == 2));

        let l = line(5, d);
        assert_eq!(l.num_edges(), 4);
        assert_eq!(l.degree(l.node(0)), 1);
        assert_eq!(l.degree(l.node(2)), 2);

        let s = star(5, d);
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.degree(s.node(0)), 4);
        assert_eq!(s.degree(s.node(3)), 1);
        assert!(s.is_connected());
    }

    #[test]
    fn geo_tiered_shape_and_bimodal_delays() {
        let mut rng = rng_for(4, "geo");
        let intra = DelayRange {
            min: SimDuration::from_millis(2),
            max: SimDuration::from_millis(8),
        };
        let inter = DelayRange {
            min: SimDuration::from_millis(60),
            max: SimDuration::from_millis(120),
        };
        let regions = 4;
        let per = 5;
        let t = geo_tiered(regions, per, intra, inter, &mut rng);
        assert_eq!(t.num_nodes(), regions * per);
        assert!(t.is_connected());
        // 4 regional meshes of C(5,2) links plus a C(4,2) gateway mesh.
        let intra_edges = regions * per * (per - 1) / 2;
        let inter_edges = regions * (regions - 1) / 2;
        assert_eq!(t.num_edges(), intra_edges + inter_edges);
        // Delays are bimodal: every link is either fast-intra or slow-inter,
        // with nothing in the gap between the two modes.
        let mut fast = 0usize;
        let mut slow = 0usize;
        for e in t.edge_ids() {
            let d = t.delay(e);
            if d <= intra.max {
                assert!(d >= intra.min);
                fast += 1;
            } else {
                assert!(d >= inter.min, "link delay {d} falls between modes");
                assert!(d <= inter.max);
                slow += 1;
            }
        }
        assert_eq!(fast, intra_edges);
        assert_eq!(slow, inter_edges);
        // Gateways (first node of each block) carry the inter-region links:
        // degree per-region mesh (per-1) plus gateway mesh (regions-1).
        for r in 0..regions {
            let gw = t.node(r * per);
            assert_eq!(t.degree(gw), (per - 1) + (regions - 1));
        }
        // Non-gateway brokers only see their own region.
        assert_eq!(t.degree(t.node(1)), per - 1);
    }

    #[test]
    fn geo_tiered_is_deterministic_per_seed() {
        let intra = DelayRange::fixed(SimDuration::from_millis(5));
        let inter = DelayRange {
            min: SimDuration::from_millis(60),
            max: SimDuration::from_millis(120),
        };
        let a = geo_tiered(3, 4, intra, inter, &mut rng_for(9, "geo"));
        let b = geo_tiered(3, 4, intra, inter, &mut rng_for(9, "geo"));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least 2 regions")]
    fn geo_tiered_rejects_single_region() {
        let mut rng = rng_for(0, "geo");
        let _ = geo_tiered(1, 4, DelayRange::PAPER, DelayRange::PAPER, &mut rng);
    }

    #[test]
    #[should_panic(expected = "degree must be below")]
    fn random_connected_rejects_degree_too_high() {
        let mut rng = rng_for(0, "bad");
        let _ = random_connected(5, 5, DelayRange::PAPER, &mut rng);
    }
}
