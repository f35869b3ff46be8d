//! Random-walk workload descriptions and the shared stepping logic.
//!
//! A [`Workload`] fixes everything §II-A leaves to the algorithm: how many
//! walks start where, the neighbor-sampling distribution (unbiased or
//! weight-biased), and the termination rule (fixed hop count, or a
//! per-hop stop probability as in personalized PageRank). Both engines
//! execute workloads through [`Workload::init_walks`] and
//! [`Workload::step`], so algorithmic behaviour is identical by
//! construction and only the *system* differs.

use fw_graph::{Csr, VertexId};
use fw_sim::Xoshiro256pp;

use std::ops::Range;

use crate::sampler::{pick_edge, DEAD_END_OPS};
use crate::walk::Walk;

/// Neighbor-sampling distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bias {
    /// "The algorithm is unbiased if the next hop of a walk is uniformly
    /// sampled from its neighbors."
    Unbiased,
    /// Edge-weight-biased via Inverse Transform Sampling (§III-B).
    Weighted,
}

/// Walk termination rule (§II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// "A walk terminates after it has completed a specified number of
    /// hops." The paper fixes 6 in all experiments.
    FixedHops(u16),
    /// "A walk terminates according to some probability" — checked before
    /// each hop, with a hop cap so state stays bounded (PPR-style).
    StopProb {
        /// Per-hop termination probability.
        prob: f64,
        /// Hard hop cap.
        max_hops: u16,
    },
}

/// Where walks start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartDist {
    /// Walk `i` starts at vertex `i mod |V|` — every vertex gets walks,
    /// the DeepWalk/GraphWalker "walks from massive vertices" pattern.
    RoundRobin,
    /// Uniformly random start vertices.
    UniformRandom,
    /// All walks start at one vertex (personalized PageRank).
    Single(VertexId),
}

/// One complete workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Number of walks to run.
    pub num_walks: u64,
    /// Start distribution.
    pub start: StartDist,
    /// Sampling bias.
    pub bias: Bias,
    /// Termination rule.
    pub termination: Termination,
}

/// Outcome of stepping a walk once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkEvent {
    /// The walk moved; here is its updated state.
    Moved(Walk),
    /// The walk finished (hop budget, stop probability, or dead end).
    Completed(Walk),
}

impl WalkEvent {
    /// The event of a hop whose draws picked `next`: the walk advances to
    /// it, or with `None` ends where it is.
    #[inline]
    pub fn of_hop(mut walk: Walk, next: Option<VertexId>) -> WalkEvent {
        match next {
            Some(v) => {
                walk.advance(v);
                if walk.is_done() {
                    WalkEvent::Completed(walk)
                } else {
                    WalkEvent::Moved(walk)
                }
            }
            None => {
                walk.hop = 0;
                WalkEvent::Completed(walk)
            }
        }
    }
}

impl Workload {
    /// The paper's default: unbiased, fixed length 6, walks spread over
    /// all vertices ("The walk length is fixed as 6 in all experiments").
    pub fn paper_default(num_walks: u64) -> Workload {
        Workload {
            num_walks,
            start: StartDist::RoundRobin,
            bias: Bias::Unbiased,
            termination: Termination::FixedHops(6),
        }
    }

    /// DeepWalk-style corpus sampling: unbiased, fixed length.
    pub fn deepwalk(num_walks: u64, len: u16) -> Workload {
        Workload {
            num_walks,
            start: StartDist::RoundRobin,
            bias: Bias::Unbiased,
            termination: Termination::FixedHops(len),
        }
    }

    /// Personalized PageRank from `source` with restart probability
    /// `alpha`.
    pub fn ppr(num_walks: u64, source: VertexId, alpha: f64, max_hops: u16) -> Workload {
        Workload {
            num_walks,
            start: StartDist::Single(source),
            bias: Bias::Unbiased,
            termination: Termination::StopProb {
                prob: alpha,
                max_hops,
            },
        }
    }

    /// A Node2Vec-flavoured biased walk: static edge weights sampled via
    /// ITS stand in for the 2nd-order transition weights (the paper's
    /// FlashWalker supports static biased walks through ITS; fully dynamic
    /// 2nd-order sampling is out of scope for the accelerator too).
    pub fn node2vec_biased(num_walks: u64, len: u16) -> Workload {
        Workload {
            num_walks,
            start: StartDist::RoundRobin,
            bias: Bias::Weighted,
            termination: Termination::FixedHops(len),
        }
    }

    /// A k-hop neighborhood probe from one source: `num_walks` unbiased
    /// walks of exactly `k` hops, all starting at `source`. The endpoint
    /// multiset estimates the k-hop neighborhood distribution — the
    /// online query shape `fw-serve` batches alongside PPR.
    pub fn khop(num_walks: u64, source: VertexId, k: u16) -> Workload {
        Workload {
            num_walks,
            start: StartDist::Single(source),
            bias: Bias::Unbiased,
            termination: Termination::FixedHops(k),
        }
    }

    /// Initial hop budget of a walk.
    pub fn initial_hops(&self) -> u16 {
        match self.termination {
            Termination::FixedHops(h) => h,
            Termination::StopProb { max_hops, .. } => max_hops,
        }
    }

    /// The initial walk population in id order. A lazy iterator: engines
    /// place each walk as it is drawn, so the whole population is never
    /// held twice.
    pub fn init_walks(&self, csr: &Csr, seed: u64) -> impl Iterator<Item = Walk> {
        let mut rng = Xoshiro256pp::new(seed);
        let n = csr.num_vertices();
        let hops = self.initial_hops();
        let start_dist = self.start;
        (0..self.num_walks).map(move |i| {
            let start = match start_dist {
                StartDist::RoundRobin => (i % n as u64) as VertexId,
                StartDist::UniformRandom => rng.next_below(n as u64) as VertexId,
                StartDist::Single(v) => v,
            };
            let mut w = Walk::new(start, hops);
            w.id = i as u32;
            w
        })
    }

    /// One hop's draws for a walk at `v` that samples among `edges`, a
    /// range of indices into `v`'s out-list (all of it, or a dense
    /// vertex's slice). Stop-probability termination is drawn first; an
    /// empty range is a dead end and draws nothing more. Otherwise one
    /// edge is drawn: unbiased, `rnd1 ∈ [0, |edges|)` indexes the range
    /// (§III-B steps ③–⑤); weighted, Inverse Transform Sampling draws in
    /// the range's interval of the cumulative list `CL` and binary-searches
    /// the range for the smallest index with `rnd < CL[idx]`. Returns the
    /// picked index (`None`: the walk ends here) and the updater operation
    /// count: 5 for a pick, plus one per ITS probe — "the biased random
    /// walk requires … more cycles for the binary search". Every sampling
    /// site of every engine draws through this one function.
    #[inline]
    pub fn pick(
        &self,
        csr: &Csr,
        v: VertexId,
        edges: Range<usize>,
        rng: &mut Xoshiro256pp,
    ) -> (Option<usize>, u32) {
        if let Termination::StopProb { prob, .. } = self.termination {
            if rng.next_f64() < prob {
                return (None, 2);
            }
        }
        if edges.is_empty() {
            return (None, DEAD_END_OPS);
        }
        let (idx, ops) = pick_edge(csr, v, self.bias, edges, rng);
        (Some(idx), ops)
    }

    /// Step a walk once over its vertex's whole out-list. Returns the
    /// event plus the updater operation count for timing.
    pub fn step(&self, csr: &Csr, walk: Walk, rng: &mut Xoshiro256pp) -> (WalkEvent, u32) {
        debug_assert!(!walk.is_done());
        let nbrs = csr.neighbors(walk.cur);
        let (pick, ops) = self.pick(csr, walk.cur, 0..nbrs.len(), rng);
        (WalkEvent::of_hop(walk, pick.map(|i| nbrs[i])), ops)
    }

    /// Run a walk to completion in place (reference executor used by
    /// tests and the quickstart example — no system model, just the
    /// algorithm). Returns the completed walk and total hops taken.
    pub fn run_to_completion(&self, csr: &Csr, start: Walk, rng: &mut Xoshiro256pp) -> (Walk, u32) {
        let mut w = start;
        let mut hops = 0;
        while !w.is_done() {
            match self.step(csr, w, rng).0 {
                WalkEvent::Moved(next) => {
                    w = next;
                    hops += 1;
                }
                WalkEvent::Completed(done) => {
                    if done.cur != w.cur {
                        hops += 1;
                    }
                    w = done;
                }
            }
        }
        (w, hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_graph::rmat::{generate_csr, RmatParams};

    fn graph() -> Csr {
        generate_csr(RmatParams::graph500(), 256, 4096, 7)
    }

    #[test]
    fn init_round_robin_covers_vertices() {
        let g = graph();
        let wl = Workload::paper_default(512);
        let walks: Vec<Walk> = wl.init_walks(&g, 1).collect();
        assert_eq!(walks.len(), 512);
        assert_eq!(walks[0].cur, 0);
        assert_eq!(walks[256].cur, 0, "wraps around");
        assert_eq!(walks[255].cur, 255);
        assert!(walks.iter().all(|w| w.hop == 6));
    }

    #[test]
    fn init_uniform_random_spreads_starts() {
        let g = graph();
        let wl = Workload {
            start: StartDist::UniformRandom,
            ..Workload::paper_default(4_000)
        };
        let walks: Vec<Walk> = wl.init_walks(&g, 3).collect();
        let distinct: std::collections::HashSet<u32> = walks.iter().map(|w| w.cur).collect();
        // 4000 uniform draws over 256 vertices hit nearly all of them.
        assert!(
            distinct.len() > 240,
            "only {} distinct starts",
            distinct.len()
        );
        assert!(walks.iter().all(|w| w.cur < g.num_vertices()));
    }

    #[test]
    fn init_single_source() {
        let g = graph();
        let wl = Workload::ppr(100, 42, 0.15, 32);
        assert!(wl.init_walks(&g, 1).all(|w| w.cur == 42 && w.hop == 32));
    }

    #[test]
    fn khop_walks_start_at_source_and_walk_exactly_k_hops() {
        let g = graph();
        let wl = Workload::khop(50, 7, 3);
        let mut rng = Xoshiro256pp::new(5);
        for start in wl.init_walks(&g, 2) {
            assert_eq!(start.cur, 7);
            assert_eq!(start.hop, 3);
            let (done, hops) = wl.run_to_completion(&g, start, &mut rng);
            assert!(done.is_done());
            assert!(hops <= 3, "k-hop probes never exceed k hops: {hops}");
            assert_eq!(done.src, 7);
        }
    }

    #[test]
    fn fixed_hops_walks_terminate_at_length() {
        let g = graph();
        let wl = Workload::paper_default(1);
        let mut rng = Xoshiro256pp::new(3);
        for start in wl.init_walks(&g, 2) {
            let (done, hops) = wl.run_to_completion(&g, start, &mut rng);
            assert!(done.is_done());
            assert!(hops <= 6);
            assert_eq!(done.src, start.src, "src is preserved");
        }
    }

    #[test]
    fn stop_prob_walks_have_geometric_lengths() {
        let g = graph();
        let wl = Workload::ppr(2000, 0, 0.5, 64);
        let mut rng = Xoshiro256pp::new(9);
        let mut total_hops = 0u64;
        for start in wl.init_walks(&g, 4) {
            let (_, hops) = wl.run_to_completion(&g, start, &mut rng);
            total_hops += hops as u64;
        }
        // E[hops] for stop prob 0.5 is ~1 (0.5 chance of 0 hops, etc.);
        // allow dead-ends to shorten it further.
        let mean = total_hops as f64 / 2000.0;
        assert!(mean > 0.3 && mean < 2.5, "mean hops {mean}");
    }

    #[test]
    fn weighted_workload_requires_weights() {
        let g = graph().with_random_weights(8);
        let wl = Workload::node2vec_biased(10, 4);
        let mut rng = Xoshiro256pp::new(5);
        for start in wl.init_walks(&g, 6) {
            let (done, _) = wl.run_to_completion(&g, start, &mut rng);
            assert!(done.is_done());
        }
    }

    #[test]
    fn stepping_is_deterministic_per_seed() {
        let g = graph();
        let wl = Workload::paper_default(64);
        let run = |seed| {
            let mut rng = Xoshiro256pp::new(seed);
            wl.init_walks(&g, 1)
                .map(|w| wl.run_to_completion(&g, w, &mut rng).0.cur)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(10), run(10));
        assert_ne!(run(10), run(11));
    }
}
