//! Theorem 1: the optimal sending-list order.
//!
//! The ordering of candidates does not change `r_X` (Eq. 3's product is
//! commutative) but it changes `d_X`. Theorem 1 proves that sorting
//! ascending by `d_X^i / r_X^i` is both necessary and sufficient to
//! minimize `d_X`. The alternative policies here exist for the ablation
//! experiments in `DESIGN.md` §5.

use crate::params::Candidate;

/// Sending-list ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingPolicy {
    /// Theorem 1: ascending `d/r` (optimal; the paper's DCRD).
    #[default]
    RatioOptimal,
    /// Ablation: ascending expected delay `d` (greedy "fastest first").
    ByDelay,
    /// Ablation: descending delivery ratio `r` ("most reliable first").
    ByReliability,
    /// Ablation: whatever order the candidates were produced in
    /// (deterministic but uninformed).
    Unsorted,
}

impl OrderingPolicy {
    /// Sorts `candidates` in place according to the policy. All policies
    /// break ties by neighbor id so runs are deterministic, and all
    /// comparisons use [`f64::total_cmp`] so a NaN estimate (a link-model
    /// bug) degrades to "sorts last" instead of a panic or an
    /// inconsistent comparator.
    pub fn sort(self, candidates: &mut [Candidate]) {
        match self {
            OrderingPolicy::RatioOptimal => {
                // `ratio()` divides, and `sort_by` re-evaluates it on every
                // comparison. Sending lists are degree-sized, so for short
                // slices precompute each ratio as a sort key — `total_cmp`
                // is by definition a signed compare of sign-folded IEEE
                // bits, so after flipping the top bit the key orders as a
                // plain u64 — and run an insertion sort over (key, id)
                // pairs. The comparator is a strict total order (distinct
                // neighbor ids break every tie), so the sorted permutation
                // is unique and the fast path returns exactly what
                // `sort_by` would.
                const STACK: usize = 16;
                let len = candidates.len();
                if len <= STACK {
                    let mut keys = [0u64; STACK];
                    for (k, c) in keys.iter_mut().zip(candidates.iter()) {
                        let bits = c.ratio().to_bits() as i64;
                        *k = (bits ^ ((((bits >> 63) as u64) >> 1) as i64)) as u64
                            ^ 0x8000_0000_0000_0000;
                    }
                    for i in 1..len {
                        let (Some(&key), Some(&cand)) = (keys.get(i), candidates.get(i)) else {
                            break;
                        };
                        let mut j = i;
                        while let Some(k) = j.checked_sub(1) {
                            let (Some(&prev_key), Some(&prev)) = (keys.get(k), candidates.get(k))
                            else {
                                break;
                            };
                            if (prev_key, prev.neighbor) <= (key, cand.neighbor) {
                                break;
                            }
                            if let (Some(kj), Some(cj)) = (keys.get_mut(j), candidates.get_mut(j)) {
                                *kj = prev_key;
                                *cj = prev;
                            }
                            j = k;
                        }
                        if let (Some(kj), Some(cj)) = (keys.get_mut(j), candidates.get_mut(j)) {
                            *kj = key;
                            *cj = cand;
                        }
                    }
                } else {
                    candidates.sort_by(|a, b| {
                        a.ratio()
                            .total_cmp(&b.ratio())
                            .then_with(|| a.neighbor.cmp(&b.neighbor))
                    });
                }
            }
            OrderingPolicy::ByDelay => candidates.sort_by(|a, b| {
                a.d.total_cmp(&b.d)
                    .then_with(|| a.neighbor.cmp(&b.neighbor))
            }),
            // Descending `r`, but positive NaN is the largest value under
            // `total_cmp`, so NaN is ranked apart to keep it last.
            OrderingPolicy::ByReliability => candidates.sort_by(|a, b| {
                a.r.is_nan()
                    .cmp(&b.r.is_nan())
                    .then_with(|| b.r.total_cmp(&a.r))
                    .then_with(|| a.neighbor.cmp(&b.neighbor))
            }),
            OrderingPolicy::Unsorted => {}
        }
    }
}

/// Sorts candidates by Theorem 1 (ascending `d/r`).
pub fn optimal_order(candidates: &mut [Candidate]) {
    OrderingPolicy::RatioOptimal.sort(candidates);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::combine;
    use dcrd_net::NodeId;
    use dcrd_sim::rng::cases;

    fn cand(id: u32, d: f64, r: f64) -> Candidate {
        Candidate {
            neighbor: NodeId::new(id),
            d,
            r,
        }
    }

    #[test]
    fn sorts_by_ratio() {
        let mut cs = vec![cand(0, 100.0, 0.5), cand(1, 90.0, 0.9), cand(2, 30.0, 0.2)];
        // ratios: 200, 100, 150 → order 1, 2, 0
        optimal_order(&mut cs);
        let ids: Vec<u32> = cs.iter().map(|c| c.neighbor.index() as u32).collect();
        assert_eq!(ids, vec![1, 2, 0]);
    }

    #[test]
    fn dead_candidates_sort_last() {
        let mut cs = vec![cand(0, 10.0, 0.0), cand(1, 1000.0, 0.1)];
        optimal_order(&mut cs);
        assert_eq!(cs[0].neighbor, NodeId::new(1));
    }

    #[test]
    fn ties_break_by_neighbor_id() {
        let mut cs = vec![cand(5, 10.0, 0.5), cand(2, 10.0, 0.5), cand(9, 10.0, 0.5)];
        optimal_order(&mut cs);
        let ids: Vec<u32> = cs.iter().map(|c| c.neighbor.index() as u32).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn equal_ratios_with_different_components_break_by_neighbor_id() {
        // 20/0.4 == 50/1.0 == 5/0.1 == 50: same d/r through different
        // (d, r) pairs must still order by neighbor id.
        let mut cs = vec![cand(7, 20.0, 0.4), cand(3, 50.0, 1.0), cand(5, 5.0, 0.1)];
        optimal_order(&mut cs);
        let ids: Vec<u32> = cs.iter().map(|c| c.neighbor.index() as u32).collect();
        assert_eq!(ids, vec![3, 5, 7]);
    }

    #[test]
    fn nan_estimates_sort_last_without_panicking() {
        // A NaN delay (link-model bug) must not panic the sort and must
        // lose to every finite candidate, under every policy.
        let mut cs = vec![
            cand(0, f64::NAN, 0.5),
            cand(1, 10.0, 0.9),
            cand(2, 20.0, f64::NAN),
        ];
        optimal_order(&mut cs);
        assert_eq!(cs[0].neighbor, NodeId::new(1));
        for policy in [OrderingPolicy::ByDelay, OrderingPolicy::ByReliability] {
            let mut cs = vec![cand(0, f64::NAN, f64::NAN), cand(1, 10.0, 0.9)];
            policy.sort(&mut cs);
            assert_eq!(cs[0].neighbor, NodeId::new(1), "{policy:?}");
        }
    }

    #[test]
    fn zero_reliability_neighbors_sort_after_all_live_ones() {
        // r = 0 makes the Theorem-1 ratio infinite: dead neighbors go
        // last (deterministically, by id), never ahead of a live one.
        let mut cs = vec![cand(9, 1.0, 0.0), cand(1, 9999.0, 0.01), cand(4, 2.0, 0.0)];
        optimal_order(&mut cs);
        let ids: Vec<u32> = cs.iter().map(|c| c.neighbor.index() as u32).collect();
        assert_eq!(ids, vec![1, 4, 9]);
    }

    #[test]
    fn policy_by_delay() {
        let mut cs = vec![cand(0, 50.0, 0.9), cand(1, 10.0, 0.1)];
        OrderingPolicy::ByDelay.sort(&mut cs);
        assert_eq!(cs[0].neighbor, NodeId::new(1));
    }

    #[test]
    fn policy_by_reliability() {
        let mut cs = vec![cand(0, 50.0, 0.5), cand(1, 10.0, 0.9)];
        OrderingPolicy::ByReliability.sort(&mut cs);
        assert_eq!(cs[0].neighbor, NodeId::new(1));
    }

    #[test]
    fn policy_unsorted_preserves_order() {
        let cs0 = vec![cand(3, 50.0, 0.5), cand(1, 10.0, 0.9)];
        let mut cs = cs0.clone();
        OrderingPolicy::Unsorted.sort(&mut cs);
        assert_eq!(cs, cs0);
    }

    #[test]
    fn default_policy_is_optimal() {
        assert_eq!(OrderingPolicy::default(), OrderingPolicy::RatioOptimal);
    }

    /// Exhaustive check of Theorem 1: on every permutation of a small
    /// candidate set, the ratio-sorted order yields the minimal Eq. 3 `d`.
    fn assert_theorem1(cs: &[Candidate]) {
        let mut sorted = cs.to_vec();
        optimal_order(&mut sorted);
        let best = combine(&sorted);
        // Enumerate permutations (Heap's algorithm over indices).
        let mut indices: Vec<usize> = (0..cs.len()).collect();
        let mut stack = vec![0usize; cs.len()];
        let check = |idx: &[usize]| {
            let perm: Vec<Candidate> = idx.iter().map(|&i| cs[i]).collect();
            let out = combine(&perm);
            assert!(
                best.d <= out.d + 1e-6 * out.d.abs().max(1.0),
                "theorem 1 violated: sorted d={} > permuted d={} (perm {idx:?})",
                best.d,
                out.d
            );
            assert!((best.r - out.r).abs() < 1e-9, "r must be order-invariant");
        };
        check(&indices);
        let n = cs.len();
        let mut i = 1;
        while i < n {
            if stack[i] < i {
                if i % 2 == 0 {
                    indices.swap(0, i);
                } else {
                    indices.swap(stack[i], i);
                }
                check(&indices);
                stack[i] += 1;
                i = 1;
            } else {
                stack[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn theorem1_on_fixed_sets() {
        assert_theorem1(&[cand(0, 100.0, 0.5), cand(1, 90.0, 0.9), cand(2, 30.0, 0.2)]);
        assert_theorem1(&[
            cand(0, 10.0, 0.99),
            cand(1, 10.0, 0.01),
            cand(2, 500.0, 0.8),
            cand(3, 50.0, 0.5),
        ]);
    }

    /// Draws `2..max_len` candidates with the property ranges: `d` in
    /// `[1, 1e5)`, `r` in `[0.05, 1)`.
    fn random_candidates(rng: &mut dcrd_sim::rng::SmallRng, max_len: usize) -> Vec<Candidate> {
        let ds: Vec<f64> = (0..rng.gen_range(2..max_len))
            .map(|_| rng.gen_range(1.0..1e5))
            .collect();
        let rs: Vec<f64> = (0..rng.gen_range(2..max_len))
            .map(|_| rng.gen_range(0.05..1.0))
            .collect();
        ds.iter()
            .zip(&rs)
            .enumerate()
            .map(|(i, (&d, &r))| cand(i as u32, d, r))
            .collect()
    }

    /// Theorem 1, property-based: over random candidate sets of size ≤ 6,
    /// no permutation beats the d/r sort.
    #[test]
    fn theorem1_holds() {
        cases("theorem1_holds", 256, |rng| {
            assert_theorem1(&random_candidates(rng, 6));
        });
    }

    /// The optimal order never does worse than the ablation policies.
    #[test]
    fn optimal_beats_ablations() {
        cases("optimal_beats_ablations", 256, |rng| {
            let cs = random_candidates(rng, 7);
            let mut opt = cs.clone();
            optimal_order(&mut opt);
            let d_opt = combine(&opt).d;
            for policy in [
                OrderingPolicy::ByDelay,
                OrderingPolicy::ByReliability,
                OrderingPolicy::Unsorted,
            ] {
                let mut other = cs.clone();
                policy.sort(&mut other);
                let d_other = combine(&other).d;
                assert!(
                    d_opt <= d_other + 1e-6 * d_other.abs().max(1.0),
                    "{policy:?} beat the optimal order: {d_other} < {d_opt}"
                );
            }
        });
    }
}
