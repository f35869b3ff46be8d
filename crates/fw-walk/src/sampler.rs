//! Neighbor sampling: unbiased, and biased via Inverse Transform Sampling.

use std::ops::Range;

use fw_graph::{Csr, VertexId};
use fw_sim::Xoshiro256pp;

use crate::workload::Bias;

/// Operations the chip-level walk updater performs per unbiased step:
/// fetch walk, random number, out-degree calc, edge fetch, state update —
/// "the walk updater performs 5 operations to process a walk" (§IV-A).
pub const UNBIASED_UPDATER_OPS: u32 = 5;

/// Operations charged when the walk's vertex has no out-edges: the walk
/// fetch and the degree check, then stop. The updater bails *before*
/// drawing a random number or touching the cumulative list, so both
/// samplers charge the same two ops on a dead end — biased walks pay for
/// the CL fetch and binary search only when there is something to search.
pub const DEAD_END_OPS: u32 = 2;

/// The ITS binary search shared by the biased samplers: smallest
/// `idx ∈ [lo, hi)` with `cl[idx] > r` (or `hi` when none), plus the
/// probe count the hardware models charge — one op per iteration, the
/// paper's "more cycles for the binary search" (§III-B). Callers clamp
/// the index for the `r == total` edge case themselves.
pub fn its_search(cl: &[f32], lo: usize, hi: usize, r: f32) -> (usize, u32) {
    let (mut lo, mut hi) = (lo, hi);
    let mut probes = 0u32;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if cl[mid] > r {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo, probes)
}

/// Result of attempting one hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The walk moves to this vertex.
    Moved(VertexId),
    /// The current vertex has no out-edges — the walk dies here.
    DeadEnd,
}

/// The edge draw of [`crate::Workload::pick`] over `edges`, a non-empty
/// range of indices into `v`'s out-list: the picked index and the updater
/// operation count.
///
/// # Panics
/// Panics if `bias` is weighted and the graph carries no weights.
#[inline]
pub(crate) fn pick_edge(
    csr: &Csr,
    v: VertexId,
    bias: Bias,
    edges: Range<usize>,
    rng: &mut Xoshiro256pp,
) -> (usize, u32) {
    debug_assert!(!edges.is_empty(), "pick_edge over an empty range");
    match bias {
        Bias::Unbiased => {
            let idx = rng.next_below(edges.len() as u64) as usize;
            (edges.start + idx, UNBIASED_UPDATER_OPS)
        }
        Bias::Weighted => {
            let cl = csr.cumulative(v);
            let lo_w = if edges.start == 0 {
                0.0
            } else {
                cl[edges.start - 1]
            };
            let hi_w = cl[edges.end - 1];
            let r = lo_w + (rng.next_f64() as f32) * (hi_w - lo_w);
            let (idx, probes) = its_search(cl, edges.start, edges.end, r);
            // Guard the r == hi_w edge case.
            (idx.min(edges.end - 1), UNBIASED_UPDATER_OPS + probes)
        }
    }
}

/// Sample an out-neighbor of `v` under `bias`: a dead end costs
/// [`DEAD_END_OPS`] and draws nothing, otherwise [`pick_edge`] over the
/// whole list.
fn sample(csr: &Csr, v: VertexId, bias: Bias, rng: &mut Xoshiro256pp) -> (StepOutcome, u32) {
    let nbrs = csr.neighbors(v);
    if nbrs.is_empty() {
        return (StepOutcome::DeadEnd, DEAD_END_OPS);
    }
    let (idx, ops) = pick_edge(csr, v, bias, 0..nbrs.len(), rng);
    (StepOutcome::Moved(nbrs[idx]), ops)
}

/// Uniformly sample an out-neighbor of `v`: draw `rnd1 ∈ [0, outDegree)`
/// and index the edge list, as [`crate::Workload::pick`] does without its
/// stop-probability draw.
pub fn sample_unbiased(csr: &Csr, v: VertexId, rng: &mut Xoshiro256pp) -> (StepOutcome, u32) {
    sample(csr, v, Bias::Unbiased, rng)
}

/// Sample an out-neighbor of `v` proportionally to edge weight by ITS,
/// as [`crate::Workload::pick`] does without its stop-probability draw.
///
/// # Panics
/// Panics if the graph carries no weights.
pub fn sample_biased(csr: &Csr, v: VertexId, rng: &mut Xoshiro256pp) -> (StepOutcome, u32) {
    sample(csr, v, Bias::Weighted, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph() -> Csr {
        Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    fn fan(weighted: bool) -> Csr {
        // 0 -> {1, 2, 3, 4}
        let c = Csr::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        if weighted {
            c.with_random_weights(5)
        } else {
            c
        }
    }

    #[test]
    fn unbiased_moves_to_a_neighbor() {
        let g = fan(false);
        let mut rng = Xoshiro256pp::new(1);
        for _ in 0..100 {
            match sample_unbiased(&g, 0, &mut rng) {
                (StepOutcome::Moved(v), ops) => {
                    assert!((1..=4).contains(&v));
                    assert_eq!(ops, UNBIASED_UPDATER_OPS);
                }
                (StepOutcome::DeadEnd, _) => panic!("fan center is not a dead end"),
            }
        }
    }

    #[test]
    fn dead_end_detected() {
        let g = line_graph();
        let mut rng = Xoshiro256pp::new(1);
        assert_eq!(sample_unbiased(&g, 3, &mut rng).0, StepOutcome::DeadEnd);
    }

    #[test]
    fn dead_end_charges_two_ops_and_draws_no_random_number() {
        // The op-count contract both samplers share: a dead end costs
        // DEAD_END_OPS (fetch + degree check) and bails before the RNG —
        // in the biased case, before the cumulative-list fetch too.
        let g = line_graph().with_random_weights(7);
        for sampler in [sample_unbiased, sample_biased] {
            let mut rng = Xoshiro256pp::new(3);
            let probe = Xoshiro256pp::new(3).next_u64();
            assert_eq!(
                sampler(&g, 3, &mut rng),
                (StepOutcome::DeadEnd, DEAD_END_OPS)
            );
            assert_eq!(rng.next_u64(), probe, "dead end must not consume the RNG");
        }
    }

    #[test]
    fn its_search_finds_first_exceeding_index_and_counts_probes() {
        let cl = [1.0f32, 3.0, 3.0, 7.0, 10.0];
        // First cl[idx] > r over the full range.
        assert_eq!(its_search(&cl, 0, cl.len(), 0.5).0, 0);
        assert_eq!(its_search(&cl, 0, cl.len(), 1.0).0, 1);
        assert_eq!(its_search(&cl, 0, cl.len(), 3.0).0, 3); // skips the tie
        assert_eq!(its_search(&cl, 0, cl.len(), 9.9).0, 4);
        assert_eq!(its_search(&cl, 0, cl.len(), 10.0).0, 5); // r == total → hi
                                                             // Restricted window (the dense-slice case).
        assert_eq!(its_search(&cl, 2, 4, 2.0).0, 2);
        assert_eq!(its_search(&cl, 2, 4, 8.0).0, 4);
        // Probe count is the binary-search iteration count: ceil(log2)
        // bounded, ≥ 1 on non-empty ranges, 0 on empty ones.
        let (_, probes) = its_search(&cl, 0, cl.len(), 5.0);
        assert!((1..=3).contains(&probes), "len 5 needs ≤3 probes: {probes}");
        assert_eq!(its_search(&cl, 2, 2, 0.0), (2, 0));
    }

    #[test]
    fn unbiased_is_roughly_uniform() {
        let g = fan(false);
        let mut rng = Xoshiro256pp::new(2);
        let mut counts = [0u32; 5];
        let n = 40_000;
        for _ in 0..n {
            if let (StepOutcome::Moved(v), _) = sample_unbiased(&g, 0, &mut rng) {
                counts[v as usize] += 1;
            }
        }
        for &c in &counts[1..] {
            let expect = n as f64 / 4.0;
            assert!((c as f64 - expect).abs() < expect * 0.05, "{counts:?}");
        }
    }

    #[test]
    fn biased_respects_weights() {
        // Hand-built weights: edge to 1 carries ~90% of the mass.
        let mut edges = vec![(0u32, 1u32)];
        for _ in 0..9 {
            edges.push((0, 2));
        }
        // 10 parallel edges total: one to v1, nine to v2; unweighted
        // multigraph sampling already biases 90/10 — use that as the
        // reference for the weighted sampler with uniform weights.
        let g = Csr::from_edges(3, &edges).with_random_weights(3);
        let mut rng = Xoshiro256pp::new(4);
        let mut to2 = 0u32;
        let n = 20_000;
        for _ in 0..n {
            if let (StepOutcome::Moved(2), _) = sample_biased(&g, 0, &mut rng) {
                to2 += 1;
            }
        }
        // With random weights in (0,1], nine edges to v2 should win the
        // large majority of samples.
        assert!(to2 as f64 > n as f64 * 0.6, "to2={to2}");
    }

    #[test]
    fn biased_costs_more_ops_than_unbiased() {
        let g = fan(true);
        let mut rng = Xoshiro256pp::new(6);
        let (_, ops) = sample_biased(&g, 0, &mut rng);
        assert!(
            ops > UNBIASED_UPDATER_OPS,
            "binary search adds probes: {ops}"
        );
        assert!(ops <= UNBIASED_UPDATER_OPS + 3, "log2(4)+1 bound: {ops}");
    }

    // Deterministic seed sweep standing in for the former proptest
    // property: every seed in the range replays identically.
    #[test]
    fn prop_biased_always_returns_valid_neighbor() {
        let g = fan(true);
        for seed in 0u64..500 {
            let mut rng = Xoshiro256pp::new(seed);
            match sample_biased(&g, 0, &mut rng) {
                (StepOutcome::Moved(v), _) => {
                    assert!(g.neighbors(0).contains(&v), "seed {seed}: bad neighbor {v}")
                }
                (StepOutcome::DeadEnd, _) => panic!("seed {seed}: fan center never dead-ends"),
            }
        }
    }
}
