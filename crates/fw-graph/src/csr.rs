//! Compressed sparse row graph storage, optionally weighted.
//!
//! A subgraph "is stored in CSR format, which contains an offsets array
//! and an edges array" (§III-B). For biased random walks the offsets array
//! additionally carries per-vertex cumulative weight lists so the walk
//! updater can run Inverse Transform Sampling with a binary search.

/// Vertex identifier. The in-memory representation is always `u32`; the
/// *modeled* on-flash width (4 B, or 8 B for ClueWeb) is a property of the
/// dataset and only affects byte accounting.
pub type VertexId = u32;

/// Most edges a [`Csr`] holds: its offsets are `u32`.
pub const MAX_EDGES: u64 = u32::MAX as u64;

/// A directed graph in CSR form, with fewer than 2^32 edges.
#[derive(Debug, Clone)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `edges` with v's out-edges.
    /// `u32` because the graph has fewer than 2^32 edges; the accessors
    /// widen to `u64`.
    offsets: Vec<u32>,
    /// Flattened destination lists.
    edges: Vec<VertexId>,
    /// Optional per-edge weights (parallel to `edges`).
    weights: Option<Vec<f32>>,
    /// Optional per-edge cumulative weights within each vertex's list —
    /// the pre-computed `CL` function of §III-B used by ITS.
    cum_weights: Option<Vec<f32>>,
}

impl Csr {
    /// Build from an edge list. Edges are bucketed per source in
    /// edge-list order; duplicate edges are kept (they simply weight the
    /// destination implicitly), self-loops are dropped.
    ///
    /// # Panics
    /// Panics if the list holds 2^32 edges or more.
    pub fn from_edges(num_vertices: u32, edge_list: &[(VertexId, VertexId)]) -> Csr {
        assert!(
            edge_list.len() as u64 <= MAX_EDGES,
            "{} edges do not fit u32 offsets",
            edge_list.len()
        );
        let n = num_vertices as usize;
        // `offsets[u]` counts u's edges, then (inclusive prefix sum) holds
        // the end of u's range; the back-to-front scatter moves each end
        // down to its start, keeping edge-list order within every source.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edge_list {
            debug_assert!((u as usize) < n && (v as usize) < n, "edge out of range");
            if u != v {
                offsets[u as usize] += 1;
            }
        }
        let mut acc = 0u32;
        for o in &mut offsets {
            acc += *o;
            *o = acc;
        }
        let mut edges = vec![0 as VertexId; acc as usize];
        for &(u, v) in edge_list.iter().rev() {
            if u != v {
                let c = &mut offsets[u as usize];
                *c -= 1;
                edges[*c as usize] = v;
            }
        }
        Csr {
            offsets,
            edges,
            weights: None,
            cum_weights: None,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u64 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u64
    }

    /// The out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.edges[s..e]
    }

    /// Flat index of the first edge of `v` (for partitioning).
    #[inline]
    pub fn edge_start(&self, v: VertexId) -> u64 {
        self.offsets[v as usize] as u64
    }

    /// The flattened edge array.
    pub fn edge_slice(&self) -> &[VertexId] {
        &self.edges
    }

    /// Attach deterministic pseudo-random edge weights in `(0, 1]` and
    /// precompute the per-vertex cumulative lists used by ITS.
    pub fn with_random_weights(mut self, seed: u64) -> Csr {
        let mut rng = fw_sim::Xoshiro256pp::new(seed);
        let w: Vec<f32> = (0..self.edges.len())
            .map(|_| (rng.next_f64() as f32).max(1e-6))
            .collect();
        let mut cum = vec![0.0f32; w.len()];
        for v in 0..self.num_vertices() {
            let s = self.offsets[v as usize] as usize;
            let e = self.offsets[v as usize + 1] as usize;
            let mut acc = 0.0f32;
            for i in s..e {
                acc += w[i];
                cum[i] = acc;
            }
        }
        self.weights = Some(w);
        self.cum_weights = Some(cum);
        self
    }

    /// True if the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Cumulative weight list of `v` (panics if unweighted).
    #[inline]
    pub fn cumulative(&self, v: VertexId) -> &[f32] {
        let cum = self
            .cum_weights
            .as_ref()
            .expect("cumulative() on unweighted graph");
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &cum[s..e]
    }

    /// The transposed graph (every edge reversed). SimRank-style
    /// algorithms walk the transpose; it is also handy for checking
    /// in-neighborhoods.
    pub fn transpose(&self) -> Csr {
        let mut rev: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.edges.len());
        for u in 0..self.num_vertices() {
            for &v in self.neighbors(u) {
                rev.push((v, u));
            }
        }
        Csr::from_edges(self.num_vertices(), &rev)
    }

    /// In-degree of every vertex (one pass over the edge array). Used to
    /// rank subgraphs for hot-subgraph placement.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut indeg = vec![0u32; self.num_vertices() as usize];
        for &dst in &self.edges {
            indeg[dst as usize] += 1;
        }
        indeg
    }

    /// Maximum out-degree and its vertex.
    pub fn max_out_degree(&self) -> (VertexId, u64) {
        (0..self.num_vertices())
            .map(|v| (v, self.out_degree(v)))
            .max_by_key(|&(_, d)| d)
            .unwrap_or((0, 0))
    }

    /// Modeled CSR size in bytes at the given on-flash vertex-id width:
    /// one offset entry per vertex plus one id per edge.
    pub fn modeled_bytes(&self, id_bytes: u32) -> u64 {
        (self.num_vertices() as u64 + self.num_edges()) * id_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_sim::Xoshiro256pp;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0 and a self-loop 2 -> 2.
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0), (2, 2)])
    }

    #[test]
    fn builds_and_indexes() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5, "self-loop dropped");
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.edge_start(1), 2);
    }

    #[test]
    fn duplicate_edges_are_kept() {
        let g = Csr::from_edges(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.neighbors(0), &[1, 1, 1]);
    }

    #[test]
    fn in_degrees_count_arrivals() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![1, 1, 1, 2]);
    }

    #[test]
    fn weights_cumulative_monotone() {
        let g = diamond().with_random_weights(11);
        assert!(g.is_weighted());
        for v in 0..g.num_vertices() {
            let c = g.cumulative(v);
            for w in c.windows(2) {
                assert!(w[1] > w[0], "strictly increasing: {c:?}");
            }
        }
    }

    #[test]
    fn modeled_bytes_uses_id_width() {
        let g = diamond();
        assert_eq!(g.modeled_bytes(4), (4 + 5) * 4);
        assert_eq!(g.modeled_bytes(8), (4 + 5) * 8);
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for u in 0..g.num_vertices() {
            for &v in g.neighbors(u) {
                assert!(t.neighbors(v).contains(&u), "{u}->{v} missing reversed");
            }
        }
        // Double transpose is the identity (as multisets per vertex).
        let tt = t.transpose();
        for v in 0..g.num_vertices() {
            let mut a = g.neighbors(v).to_vec();
            let mut b = tt.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn max_out_degree_finds_hub() {
        let mut edges = vec![];
        for v in 1..100u32 {
            edges.push((0, v));
        }
        edges.push((5, 0));
        let g = Csr::from_edges(100, &edges);
        assert_eq!(g.max_out_degree(), (0, 99));
    }

    /// Seeded random edge list over `nv` vertices, up to `max_edges` long.
    fn random_edges(rng: &mut Xoshiro256pp, nv: u32, max_edges: u64) -> Vec<(u32, u32)> {
        let n = rng.next_below(max_edges + 1);
        (0..n)
            .map(|_| {
                (
                    rng.next_below(nv as u64) as u32,
                    rng.next_below(nv as u64) as u32,
                )
            })
            .collect()
    }

    // Deterministic generator sweeps standing in for the former proptest
    // properties: a seeded PRNG draws the cases, so failures replay.
    #[test]
    fn prop_degree_sums_match_edge_count() {
        let mut rng = Xoshiro256pp::new(0xc5a1);
        for _ in 0..64 {
            let edges = random_edges(&mut rng, 50, 400);
            let g = Csr::from_edges(50, &edges);
            let total: u64 = (0..50).map(|v| g.out_degree(v)).sum();
            assert_eq!(total, g.num_edges());
            let expected = edges.iter().filter(|(u, v)| u != v).count() as u64;
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn prop_neighbors_preserve_multiset() {
        let mut rng = Xoshiro256pp::new(0xc5a2);
        for _ in 0..64 {
            let edges = random_edges(&mut rng, 20, 200);
            let g = Csr::from_edges(20, &edges);
            let mut expect: Vec<Vec<u32>> = vec![vec![]; 20];
            for &(u, v) in &edges {
                if u != v {
                    expect[u as usize].push(v);
                }
            }
            for v in 0..20u32 {
                let mut got = g.neighbors(v).to_vec();
                got.sort_unstable();
                expect[v as usize].sort_unstable();
                assert_eq!(got, expect[v as usize]);
            }
        }
    }

    /// Walks index neighbor lists by position, so a reorder inside a list
    /// changes every walk even though the multisets above still match.
    #[test]
    fn prop_neighbors_keep_edge_list_order() {
        let mut rng = Xoshiro256pp::new(0xc5a3);
        for _ in 0..64 {
            let edges = random_edges(&mut rng, 20, 200);
            let g = Csr::from_edges(20, &edges);
            for v in 0..20u32 {
                let expect: Vec<u32> = edges
                    .iter()
                    .filter(|&&(u, w)| u == v && u != w)
                    .map(|&(_, w)| w)
                    .collect();
                assert_eq!(g.neighbors(v), &expect[..], "vertex {v}");
            }
        }
    }
}
