//! Sending-list construction (Algorithm 1 of the paper).
//!
//! For broker `X` and subscriber `S` with per-node delay requirement
//! `D_XS`, the sending list contains every neighbor `i` whose own expected
//! delay satisfies `dᵢ < D_XS` (Algorithm 1 line 4), with Eq. 2 applied to
//! fold in the link statistics, sorted by the configured ordering policy
//! (Theorem 1 by default).

use dcrd_net::NodeId;

use crate::ordering::OrderingPolicy;
use crate::params::{Candidate, DrPair};
use crate::reliability::LinkStats;

/// Builds the sending list of a broker toward one subscriber into `out`
/// (cleared first), from the broker's adjacency row and the round's
/// per-node `⟨d, r⟩` array (Algorithm 1 lines 1–9): keep every neighbor
/// `i` with `dᵢ < requirement` (µs), apply Eq. 2, sort by `policy`.
/// Algorithm 1 lines 10–11 — the broker's own `⟨d_X, r_X⟩` — are
/// [`combine`](crate::params::combine) over the result.
pub fn build_sending_list_from_row(
    row: &[(NodeId, LinkStats)],
    params: &[DrPair],
    requirement: f64,
    policy: OrderingPolicy,
    out: &mut Vec<Candidate>,
) {
    out.clear();
    out.extend(row.iter().filter_map(|&(nb, link)| {
        let p = *params.get(nb.index())?;
        (p.d < requirement).then(|| Candidate::from_link(nb, link.alpha, link.gamma, p))
    }));
    policy.sort(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::combine;

    /// One neighbor: its id, the link's `⟨α, γ⟩` and its own `⟨d, r⟩`.
    type Neighbor = (u32, f64, f64, f64, f64);

    fn info(id: u32, alpha: f64, gamma: f64, d: f64, r: f64) -> Neighbor {
        (id, alpha, gamma, d, r)
    }

    /// The sorted sending list of a broker with these neighbors.
    fn build(neighbors: &[Neighbor], requirement: f64) -> Vec<Candidate> {
        let row: Vec<(NodeId, LinkStats)> = neighbors
            .iter()
            .map(|&(id, alpha, gamma, _, _)| (NodeId::new(id), LinkStats { alpha, gamma }))
            .collect();
        let nodes = neighbors
            .iter()
            .map(|n| n.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut params = vec![DrPair::UNREACHABLE; nodes];
        for &(id, _, _, d, r) in neighbors {
            params[id as usize] = DrPair { d, r };
        }
        let mut list = Vec::new();
        build_sending_list_from_row(
            &row,
            &params,
            requirement,
            OrderingPolicy::RatioOptimal,
            &mut list,
        );
        list
    }

    #[test]
    fn filters_by_requirement() {
        let neighbors = vec![
            info(0, 10.0, 1.0, 50.0, 1.0),  // d=50 < 100 → kept
            info(1, 10.0, 1.0, 100.0, 1.0), // d=100 not < 100 → dropped
            info(2, 10.0, 1.0, 150.0, 1.0), // dropped
        ];
        let list = build(&neighbors, 100.0);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].neighbor, NodeId::new(0));
        // Eq. 2 applied: d = α + dᵢ.
        assert!((list[0].d - 60.0).abs() < 1e-9);
    }

    #[test]
    fn unreachable_neighbors_filtered_by_infinite_d() {
        let neighbors = vec![
            info(0, 10.0, 0.9, f64::INFINITY, 0.0),
            info(1, 10.0, 0.9, 20.0, 0.8),
        ];
        let list = build(&neighbors, 1000.0);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].neighbor, NodeId::new(1));
    }

    #[test]
    fn sorted_by_theorem1() {
        let neighbors = vec![
            info(0, 50.0, 0.5, 0.0, 1.0), // d/r = 100
            info(1, 40.0, 0.8, 0.0, 1.0), // d/r = 50
        ];
        let list = build(&neighbors, 1000.0);
        assert_eq!(list[0].neighbor, NodeId::new(1));
        assert_eq!(list[1].neighbor, NodeId::new(0));
    }

    #[test]
    fn own_params_from_list() {
        let neighbors = vec![info(0, 10.0, 0.5, 0.0, 1.0), info(1, 20.0, 0.5, 0.0, 1.0)];
        let list = build(&neighbors, 1000.0);
        let p = combine(&list);
        assert!((p.r - 0.75).abs() < 1e-12);
        assert!((p.d - 12.5 / 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_everything() {
        let list = build(&[], 100.0);
        assert!(list.is_empty());
        assert_eq!(combine(&list), DrPair::UNREACHABLE);
    }

    #[test]
    fn zero_requirement_blocks_all() {
        let neighbors = vec![info(0, 10.0, 1.0, 0.0, 1.0)];
        // Even the subscriber itself (d=0) fails `d < 0`.
        let list = build(&neighbors, 0.0);
        assert!(list.is_empty());
    }
}
