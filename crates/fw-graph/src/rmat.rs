//! Recursive-matrix (RMAT) graph generation — the PaRMAT stand-in used to
//! synthesize R2B/R8B and the scaled versions of the real-world graphs.
//!
//! Each edge is generated by recursively descending the adjacency matrix
//! quadrants with probabilities `(a, b, c, d)`; skewed parameters produce
//! the power-law degree distributions the paper's hot-subgraph and
//! dense-vertex machinery depends on. Endpoints are drawn in the next
//! power-of-two domain and rejected if they fall outside `[0, n)`, the
//! same strategy PaRMAT uses for non-power-of-two vertex counts.

use fw_sim::{Xoshiro256pp, XoshiroJump, XoshiroLanes};

use crate::csr::{Csr, VertexId};

/// RMAT quadrant probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant (the "rich get richer" mass).
    pub a: f64,
    /// Top-right quadrant.
    pub b: f64,
    /// Bottom-left quadrant.
    pub c: f64,
    /// Bottom-right quadrant.
    pub d: f64,
    /// Per-level probability perturbation, as in the original RMAT paper,
    /// to avoid exactly self-similar artifacts.
    pub noise: f64,
}

impl RmatParams {
    /// Graph500-style skew: a strongly power-law graph (social networks).
    pub fn graph500() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            noise: 0.05,
        }
    }

    /// Milder skew used for the synthetic R2B/R8B graphs (PaRMAT's
    /// default quadrant weights).
    pub fn parmat_default() -> Self {
        RmatParams {
            a: 0.45,
            b: 0.22,
            c: 0.22,
            d: 0.11,
            noise: 0.05,
        }
    }

    /// Extreme skew approximating a web crawl's degree distribution
    /// (ClueWeb): sparse overall with a heavy head.
    pub fn web() -> Self {
        RmatParams {
            a: 0.65,
            b: 0.17,
            c: 0.13,
            d: 0.05,
            noise: 0.05,
        }
    }

    /// Sanity: probabilities sum to ~1.
    pub fn is_normalized(&self) -> bool {
        (self.a + self.b + self.c + self.d - 1.0).abs() < 1e-9
    }
}

/// Candidates per lane per round of the lane kernel: sixteen lanes buffer
/// 128 KiB of edges, and the per-round jumps cost well under 1% of a
/// round's draws.
const CHUNK: usize = 1024;

/// Lanes of the AVX-512 instance: each xoshiro state word fills two
/// 512-bit registers of eight `u64`s, two dependency chains with nothing
/// between them, so one chain's latency hides the other's. On the TT and
/// CW stand-ins 8 lanes took twice as long, and 24 or 32 lanes longer
/// than 8 (DESIGN.md §9).
const AVX512_LANES: usize = 16;

/// Smallest graph the AVX-512 instance generates. Its jump matrices take
/// about 1 ms to build, as long as sixteen lanes save near 8,192 edges.
/// Over 41 paired runs each at 4,096 and 2^17 vertices, the lanes won
/// 2–39 of 41 at 8,192 edges and 40–41 at 16,384, where they took
/// 1.1–1.7 ms against the serial 2.0–4.3 ms.
const AVX512_MIN_EDGES: u64 = 1 << 14;

/// Generate `num_edges` RMAT edges over `[0, num_vertices)`.
///
/// Self-loops survive generation (the CSR builder drops them); duplicate
/// edges are kept, like PaRMAT's default non-deduplicating mode.
///
/// The edge list is a pure function of the arguments. On a CPU with
/// AVX-512 a graph of at least [`AVX512_MIN_EDGES`] runs [`AVX512_LANES`]
/// lanes of the seed stream at once ([`lane_kernel`]); the output is the
/// same.
pub fn generate_edges(
    params: RmatParams,
    num_vertices: u32,
    num_edges: u64,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    assert!(num_vertices >= 2, "need at least two vertices");
    assert!(params.is_normalized(), "RMAT params must sum to 1");
    if num_edges >= AVX512_MIN_EDGES {
        if let Some(edges) = avx512_edges(&params, num_vertices, num_edges, seed) {
            return edges;
        }
    }
    lane_kernel::<1>(&params, num_vertices, num_edges, seed)
}

/// [`lane_kernel`] at [`AVX512_LANES`] lanes compiled for AVX-512, or
/// `None` where the CPU lacks it.
fn avx512_edges(
    p: &RmatParams,
    num_vertices: u32,
    num_edges: u64,
    seed: u64,
) -> Option<Vec<(VertexId, VertexId)>> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
        #[target_feature(enable = "avx512f,avx512dq")]
        fn avx512(p: &RmatParams, nv: u32, ne: u64, seed: u64) -> Vec<(VertexId, VertexId)> {
            lane_kernel::<AVX512_LANES>(p, nv, ne, seed)
        }
        // SAFETY: both target features of `avx512` were detected on this
        // CPU just above.
        return Some(unsafe { avx512(p, num_vertices, num_edges, seed) });
    }
    None
}

/// Generate a full CSR graph in one call.
pub fn generate_csr(params: RmatParams, num_vertices: u32, num_edges: u64, seed: u64) -> Csr {
    let edges = generate_edges(params, num_vertices, num_edges, seed);
    Csr::from_edges(num_vertices, &edges)
}

/// The RMAT generator over `L` lanes of the one seed stream.
///
/// A candidate edge takes, per level, four jittered quadrant weights
/// (drawn in the order a, b, c, d) and one uniform pick: exactly
/// `5 · scale` draws, accepted or not. So candidate `i` starts at a known
/// offset of the stream, and lane `l` can generate chunk `l` of every
/// round of `L` chunks of [`CHUNK`] candidates. Each round appends the
/// accepted edges lane by lane, in chunk order, and then jumps every lane
/// `(L − 1) · CHUNK` candidates to its chunk of the next round. At `L = 1`
/// this is the plain serial loop.
///
/// Branch-free: the quadrant becomes the bit pair (u, v) = 00, 01, 10, 11
/// through comparisons instead of a data-dependent four-way branch. Every
/// float operation is the one the textbook form
/// `base · (1 − noise + 2·noise·x)` followed by `r < a`, `r < a + b`,
/// `r < a + b + c` performs, in the same association, so the edges are
/// bit-for-bit those of that form at every `L`.
///
/// Always inlined, so that the AVX-512 instance is compiled with its
/// caller's target features.
#[inline(always)]
fn lane_kernel<const L: usize>(
    p: &RmatParams,
    num_vertices: u32,
    num_edges: u64,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let scale = 32 - (num_vertices - 1).leading_zeros(); // ceil(log2 n)
    let k0 = 1.0 - p.noise;
    let k1 = 2.0 * p.noise;
    // Lane l starts at chunk l, and after each round skips the L − 1
    // chunks the other lanes generated.
    let chunk = (L > 1).then(|| XoshiroJump::new(5 * scale as u64 * CHUNK as u64));
    let mut next = Xoshiro256pp::new(seed);
    let mut lanes = XoshiroLanes::<L>::new(std::array::from_fn(|_| {
        let start = next.clone();
        if let Some(chunk) = &chunk {
            chunk.apply(&mut next);
        }
        start
    }));
    let skip = chunk.map(|chunk| chunk.pow(L as u64 - 1));
    let num_edges = num_edges as usize;
    let mut out = Vec::with_capacity(num_edges);
    // Lane l's accepted edges of this round: buf[l * CHUNK..][..fill[l]].
    let mut buf = vec![(0, 0); L * CHUNK];
    while out.len() < num_edges {
        let mut fill = [0usize; L];
        for _ in 0..CHUNK {
            let mut u = [0u32; L];
            let mut v = [0u32; L];
            for _ in 0..scale {
                let xa = lanes.next_f64();
                let xb = lanes.next_f64();
                let xc = lanes.next_f64();
                let xd = lanes.next_f64();
                let xr = lanes.next_f64();
                for l in 0..L {
                    let a = p.a * (k0 + k1 * xa[l]);
                    let b = p.b * (k0 + k1 * xb[l]);
                    let c = p.c * (k0 + k1 * xc[l]);
                    let d = p.d * (k0 + k1 * xd[l]);
                    let ab = a + b;
                    let abc = ab + c;
                    let r = xr[l] * (abc + d);
                    let ub = r >= ab;
                    let vb = (r >= a) ^ ub ^ (r >= abc);
                    u[l] = (u[l] << 1) | ub as u32;
                    v[l] = (v[l] << 1) | vb as u32;
                }
            }
            for l in 0..L {
                buf[l * CHUNK + fill[l]] = (u[l], v[l]);
                fill[l] += (u[l] < num_vertices && v[l] < num_vertices) as usize;
            }
            // Lane 0's chunk comes first: once it alone completes the
            // list, every later candidate is cut off anyway.
            if out.len() + fill[0] >= num_edges {
                break;
            }
        }
        for (l, &n) in fill.iter().enumerate() {
            let take = n.min(num_edges - out.len());
            out.extend_from_slice(&buf[l * CHUNK..][..take]);
        }
        if let Some(skip) = &skip {
            lanes.jump(skip);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original scalar generator, branchy recursion and all: the
    /// reference the kernel must reproduce exactly.
    fn reference_edges(
        p: RmatParams,
        num_vertices: u32,
        num_edges: u64,
        seed: u64,
    ) -> Vec<(VertexId, VertexId)> {
        let scale = 32 - (num_vertices - 1).leading_zeros();
        let mut rng = Xoshiro256pp::new(seed);
        let mut out = Vec::new();
        while (out.len() as u64) < num_edges {
            let mut u = 0u32;
            let mut v = 0u32;
            for _ in 0..scale {
                u <<= 1;
                v <<= 1;
                let mut jitter =
                    |base: f64| base * (1.0 - p.noise + 2.0 * p.noise * rng.next_f64());
                let a = jitter(p.a);
                let b = jitter(p.b);
                let c = jitter(p.c);
                let d = jitter(p.d);
                let total = a + b + c + d;
                let r = rng.next_f64() * total;
                if r < a {
                } else if r < a + b {
                    v |= 1;
                } else if r < a + b + c {
                    u |= 1;
                } else {
                    u |= 1;
                    v |= 1;
                }
            }
            if u < num_vertices && v < num_vertices {
                out.push((u, v));
            }
        }
        out
    }

    /// Every instance of the lane kernel this CPU can run, by name, on
    /// one argument set: the generic ones at L = 1, 2, 8 and 16, compiled
    /// without target features, and the AVX-512 one where detected.
    fn instances(
        p: &RmatParams,
        nv: u32,
        m: u64,
        seed: u64,
    ) -> Vec<(String, Vec<(VertexId, VertexId)>)> {
        let mut runs = vec![
            ("L=1".to_string(), lane_kernel::<1>(p, nv, m, seed)),
            ("L=2".to_string(), lane_kernel::<2>(p, nv, m, seed)),
            ("L=8".to_string(), lane_kernel::<8>(p, nv, m, seed)),
            ("L=16".to_string(), lane_kernel::<16>(p, nv, m, seed)),
        ];
        if let Some(edges) = avx512_edges(p, nv, m, seed) {
            runs.push((format!("avx512 L={AVX512_LANES}"), edges));
        }
        runs
    }

    /// Every lane-kernel instance equals the reference on `p`, over
    /// vertex and edge counts drawn from `sweep_seed`.
    fn matches_the_scalar_reference(p: RmatParams, sweep_seed: u64) {
        let mut rng = Xoshiro256pp::new(sweep_seed);
        let mut ran = Vec::new();
        let mut check = |nv: u32, m: u64, seed: u64| {
            let want = reference_edges(p, nv, m, seed);
            for (name, got) in instances(&p, nv, m, seed) {
                assert!(got == want, "{name}: {p:?}, n {nv}, m {m}, seed {seed}");
                if !ran.contains(&name) {
                    ran.push(name);
                }
            }
        };
        // Two vertices (one level, nothing rejected), a power of two, and
        // a random count up to 300k (rejections).
        for nv in [2, 1 << 17, 2 + rng.next_below(300_000 - 1) as u32] {
            for m in [0, 1, 1_000, 100_000] {
                check(nv, m, rng.next_u64());
            }
        }
        // With no rejections (n a power of two) edges are candidates, so
        // these counts end mid-chunk, on a chunk boundary, mid-round, and
        // on and just past a round boundary of every multi-lane instance.
        let c = CHUNK as u64;
        let mut counts = vec![c / 2, c, c + 3, 2 * c + c / 2];
        for lanes in [2, 8, 16, AVX512_LANES as u64] {
            counts.extend([lanes * c, lanes * c + 1]);
        }
        counts.sort_unstable();
        counts.dedup();
        for m in counts {
            check(2, m, rng.next_u64());
        }
        println!("lane kernel instances checked: {}", ran.join(", "));
    }

    #[test]
    fn graph500_matches_the_scalar_reference() {
        matches_the_scalar_reference(RmatParams::graph500(), 0x7a7);
    }

    #[test]
    fn parmat_matches_the_scalar_reference() {
        matches_the_scalar_reference(RmatParams::parmat_default(), 0x7a8);
    }

    #[test]
    fn web_matches_the_scalar_reference() {
        matches_the_scalar_reference(RmatParams::web(), 0x7a9);
    }

    #[test]
    fn generates_requested_count_in_range() {
        let edges = generate_edges(RmatParams::graph500(), 1000, 5000, 1);
        assert_eq!(edges.len(), 5000);
        assert!(edges.iter().all(|&(u, v)| u < 1000 && v < 1000));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_edges(RmatParams::graph500(), 512, 1000, 7);
        let b = generate_edges(RmatParams::graph500(), 512, 1000, 7);
        let c = generate_edges(RmatParams::graph500(), 512, 1000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skewed_params_give_power_law_head() {
        // With graph500 skew, the top 1% of vertices should own a large
        // multiple of their "fair share" of out-edges.
        let g = generate_csr(RmatParams::graph500(), 4096, 65536, 3);
        let mut degs: Vec<u64> = (0..g.num_vertices()).map(|v| g.out_degree(v)).collect();
        degs.sort_unstable_by(|x, y| y.cmp(x));
        let top1pct: u64 = degs.iter().take(41).sum();
        let share = top1pct as f64 / g.num_edges() as f64;
        assert!(share > 0.10, "top-1% share {share:.3} too flat for RMAT");
    }

    #[test]
    fn milder_params_are_flatter() {
        let skew = generate_csr(RmatParams::graph500(), 4096, 65536, 3);
        let flat = generate_csr(RmatParams::parmat_default(), 4096, 65536, 3);
        let head = |g: &Csr| {
            let mut d: Vec<u64> = (0..g.num_vertices()).map(|v| g.out_degree(v)).collect();
            d.sort_unstable_by(|x, y| y.cmp(x));
            d.iter().take(41).sum::<u64>() as f64 / g.num_edges() as f64
        };
        assert!(head(&skew) > head(&flat));
    }

    #[test]
    fn non_power_of_two_vertex_counts_work() {
        let g = generate_csr(RmatParams::parmat_default(), 1000, 4000, 5);
        assert_eq!(g.num_vertices(), 1000);
        assert_eq!(
            g.num_edges() + /* dropped self-loops */ (4000 - g.num_edges()),
            4000
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_unnormalized_params() {
        let bad = RmatParams {
            a: 0.9,
            b: 0.9,
            c: 0.0,
            d: 0.0,
            noise: 0.0,
        };
        generate_edges(bad, 16, 10, 0);
    }
}
