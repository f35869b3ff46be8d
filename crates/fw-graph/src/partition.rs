//! Graph-block partitioning with dense-vertex splitting (§III-D).
//!
//! Vertices are packed in ID order into fixed-size graph blocks; each
//! block's contents form one *subgraph* covering a contiguous vertex range
//! `[low, high]`. A vertex whose out-edge list cannot fit in one block is
//! *dense*: its edges are split across several dedicated blocks ("we
//! distribute a dense vertex's outgoing edges into several subgraphs so
//! that each one of them can be loaded by the accelerator"), described by
//! a [`DenseVertexMeta`] entry — the amount of graph blocks, the ID of the
//! first block, and the out-degree of the last block, exactly the metadata
//! the paper's dense vertices mapping table stores.
//!
//! Subgraph IDs are dense and ordered by vertex range, so *graph
//! partitions* are simply consecutive runs of subgraph IDs.
//!
//! [`GraphBlocks`] is the packing alone, with nothing per vertex; it
//! locates a vertex by binary search. [`PartitionedGraph`], FlashWalker's
//! view, adds each subgraph's in-degree and a per-vertex location table
//! for O(1) lookups.

use crate::csr::{Csr, VertexId};

/// Partitioning parameters.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Graph-block capacity in bytes (paper: 256 KB, 512 KB for ClueWeb;
    /// scaled: 16 KB / 32 KB).
    pub subgraph_bytes: u64,
    /// Modeled on-flash vertex-id width (4, or 8 for ClueWeb).
    pub id_bytes: u32,
    /// Subgraphs per graph partition ("we divide a graph into graph
    /// partitions, each of which consists of the same number of
    /// subgraphs, except for the last partition").
    pub subgraphs_per_partition: u32,
}

impl PartitionConfig {
    /// Graph-block capacity in *entries* (ids): edges plus one offset
    /// entry per resident vertex.
    pub fn capacity_entries(&self) -> u64 {
        self.subgraph_bytes / self.id_bytes as u64
    }

    /// Edge capacity of one dense-vertex slice block: one entry is spent
    /// on the vertex's offset record.
    pub fn dense_slice_edges(&self) -> u64 {
        self.capacity_entries() - 1
    }
}

/// One slice of a dense vertex's edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseSlice {
    /// The dense vertex.
    pub vertex: VertexId,
    /// Which slice this is (0-based).
    pub slice_index: u32,
    /// Offset of the slice's first edge within the vertex's edge list.
    pub first_edge_in_vertex: u64,
    /// Edges in this slice.
    pub num_edges: u64,
}

/// One subgraph = the contents of one graph block.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// Dense sequential subgraph ID (also the graph-block ID).
    pub id: u32,
    /// Lowest vertex stored in the block.
    pub low: VertexId,
    /// Highest vertex stored in the block (== `low` for dense slices).
    pub high: VertexId,
    /// Index of the block's first edge in the parent CSR edge array.
    pub edge_start: u64,
    /// Edges stored in the block.
    pub num_edges: u64,
    /// Present iff this block is a slice of a dense vertex.
    pub dense: Option<DenseSlice>,
}

impl Subgraph {
    /// Number of vertices resident in the block.
    pub fn num_vertices(&self) -> u32 {
        self.high - self.low + 1
    }

    /// Modeled size in bytes (offset entries + edges).
    pub fn bytes(&self, id_bytes: u32) -> u64 {
        (self.num_vertices() as u64 + self.num_edges) * id_bytes as u64
    }

    /// True if this block holds a dense-vertex slice.
    pub fn is_dense(&self) -> bool {
        self.dense.is_some()
    }
}

/// Dense vertices mapping table *contents* (the bloom-filter/hash-table
/// hardware that serves it lives in the `flashwalker` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseVertexMeta {
    /// The dense vertex.
    pub vertex: VertexId,
    /// Subgraph ID of its first slice ("the ID of the first graph block").
    pub first_subgraph: u32,
    /// Number of slices ("the amount of graph blocks").
    pub num_blocks: u32,
    /// Edges in the final slice ("the out-degree of its last graph block").
    pub last_block_degree: u64,
    /// Total out-degree of the vertex.
    pub total_degree: u64,
}

/// Tag bit in a location code ([`PartitionedGraph::vloc`],
/// [`GraphBlocks::loc`]) marking a dense vertex; the low bits then index
/// `dense` instead of `subgraphs`.
pub const DENSE_BIT: u32 = 1 << 31;

/// A graph packed into graph blocks: subgraphs in vertex order plus dense
/// metadata, and nothing per vertex. GraphWalker's host engines use it as
/// is; [`PartitionedGraph`] adds FlashWalker's per-subgraph in-degrees and
/// per-vertex location table.
#[derive(Debug, Clone)]
pub struct GraphBlocks {
    /// All subgraphs, ID order == vertex order.
    pub subgraphs: Vec<Subgraph>,
    /// Dense vertices, sorted by vertex ID.
    pub dense: Vec<DenseVertexMeta>,
    /// Partitioning parameters used.
    pub config: PartitionConfig,
}

impl GraphBlocks {
    /// Pack a CSR graph into graph blocks in vertex order.
    ///
    /// # Panics
    /// Panics if the block capacity is smaller than two entries.
    pub fn pack(csr: &Csr, config: PartitionConfig) -> GraphBlocks {
        assert!(config.capacity_entries() >= 2, "graph block too small");
        assert!(config.subgraphs_per_partition >= 1);
        let cap = config.capacity_entries();

        let mut subgraphs: Vec<Subgraph> = Vec::new();
        let mut dense: Vec<DenseVertexMeta> = Vec::new();

        // Open (non-dense) block state.
        let mut open: Option<Subgraph> = None;
        let mut open_entries = 0u64;

        for v in 0..csr.num_vertices() {
            let deg = csr.out_degree(v);
            let cost = deg + 1; // edges + offset entry
            if cost > cap {
                // Dense vertex: close the open block, emit dedicated slices.
                if let Some(sg) = open.take() {
                    subgraphs.push(sg);
                    open_entries = 0;
                }
                let slice_cap = config.dense_slice_edges();
                let num_blocks = deg.div_ceil(slice_cap) as u32;
                let first_subgraph = subgraphs.len() as u32;
                let mut remaining = deg;
                let mut first_edge_in_vertex = 0u64;
                for s in 0..num_blocks {
                    let take = remaining.min(slice_cap);
                    subgraphs.push(Subgraph {
                        id: subgraphs.len() as u32,
                        low: v,
                        high: v,
                        edge_start: csr.edge_start(v) + first_edge_in_vertex,
                        num_edges: take,
                        dense: Some(DenseSlice {
                            vertex: v,
                            slice_index: s,
                            first_edge_in_vertex,
                            num_edges: take,
                        }),
                    });
                    first_edge_in_vertex += take;
                    remaining -= take;
                }
                dense.push(DenseVertexMeta {
                    vertex: v,
                    first_subgraph,
                    num_blocks,
                    last_block_degree: deg - (num_blocks as u64 - 1) * slice_cap,
                    total_degree: deg,
                });
                continue;
            }

            // Regular vertex: open a new block if needed or if full.
            if open.is_some() && open_entries + cost > cap {
                subgraphs.push(open.take().unwrap());
                open_entries = 0;
            }
            match &mut open {
                Some(sg) => {
                    sg.high = v;
                    sg.num_edges += deg;
                    open_entries += cost;
                }
                None => {
                    open = Some(Subgraph {
                        id: subgraphs.len() as u32,
                        low: v,
                        high: v,
                        edge_start: csr.edge_start(v),
                        num_edges: deg,
                        dense: None,
                    });
                    open_entries = cost;
                }
            }
            // IDs assigned when pushed; fix up on close below.
        }
        if let Some(sg) = open.take() {
            subgraphs.push(sg);
        }
        // Re-number ids to match final positions (dense emission above may
        // have interleaved pushes with an open block's provisional id).
        for (i, sg) in subgraphs.iter_mut().enumerate() {
            sg.id = i as u32;
        }
        // Dense metas recorded provisional first_subgraph values that are
        // correct because the open block is always flushed before slices
        // are pushed. Assert it.
        debug_assert!(dense
            .iter()
            .all(
                |d| subgraphs[d.first_subgraph as usize].dense.map(|s| s.vertex) == Some(d.vertex)
            ));
        // Location codes must keep subgraph ids clear of the dense tag bit.
        assert!(subgraphs.len() < DENSE_BIT as usize, "too many subgraphs");
        GraphBlocks {
            subgraphs,
            dense,
            config,
        }
    }

    /// Number of subgraphs (graph blocks).
    pub fn num_subgraphs(&self) -> u32 {
        self.subgraphs.len() as u32
    }

    /// `v`'s location code, as [`PartitionedGraph::vloc`] gives it, found
    /// by binary search over the blocks' low vertices and, for a dense
    /// vertex, over `dense`. `None` if `v` is not a vertex of the graph.
    pub fn loc(&self, v: VertexId) -> Option<u32> {
        let i = self.subgraphs.partition_point(|sg| sg.low <= v);
        let sg = &self.subgraphs[i.checked_sub(1)?];
        if v > sg.high {
            return None;
        }
        if sg.dense.is_none() {
            return Some(sg.id);
        }
        let d = self
            .dense
            .binary_search_by_key(&v, |d| d.vertex)
            .expect("a dense slice's vertex has dense metadata");
        Some(DENSE_BIT | d as u32)
    }
}

/// The partitioned graph FlashWalker runs on: subgraphs in vertex order
/// plus dense metadata, each subgraph's in-degree, and a per-vertex
/// location table.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    /// All subgraphs, ID order == vertex order.
    pub subgraphs: Vec<Subgraph>,
    /// Dense vertices, sorted by vertex ID.
    pub dense: Vec<DenseVertexMeta>,
    /// Partitioning parameters used.
    pub config: PartitionConfig,
    /// `in_degree[sg]`: sum of in-degrees of subgraph `sg`'s vertices,
    /// the hot-subgraph ranking key ("subgraphs whose in-degree are top
    /// K"). A dense vertex's in-degree counts once, on its first slice.
    in_degree: Vec<u64>,
    /// Flat per-vertex location table: `vloc[v]` is the owning subgraph
    /// ID, or `DENSE_BIT | i` when `v` is `dense[i]`. Built once here so
    /// the per-hop lookups ([`Self::subgraph_of`], [`Self::find_dense`],
    /// [`Self::regular_owner`]) are O(1) instead of binary searches —
    /// this is untimed host bookkeeping, the *timed* lookup hardware
    /// stays in [`crate::mapping`].
    vloc: Vec<u32>,
}

impl PartitionedGraph {
    /// Partition a CSR graph into graph blocks ([`GraphBlocks::pack`]),
    /// then count in-degrees and build the location table in one
    /// per-vertex buffer. Holds no per-vertex array beyond the table.
    ///
    /// # Panics
    /// Panics if the block capacity is smaller than two entries.
    pub fn build(csr: &Csr, config: PartitionConfig) -> PartitionedGraph {
        let GraphBlocks {
            subgraphs,
            dense,
            config,
        } = GraphBlocks::pack(csr, config);

        // The location table's buffer first counts each vertex's
        // in-degree in one pass over the edge array (a count is at most
        // |E|, so it fits a `u32`). Counting through location codes
        // instead makes every increment wait on a random table read,
        // about 40% slower on CW. Blocks cover 0..num_vertices in order,
        // each regular vertex in one block and each dense vertex in a run
        // of slices, so one pass over the blocks then sums each block's
        // counts and overwrites them with its location codes.
        let mut vloc = vec![0u32; csr.num_vertices() as usize];
        for &dst in csr.edge_slice() {
            vloc[dst as usize] += 1;
        }
        let mut in_degree = Vec::with_capacity(subgraphs.len());
        let (mut next_vertex, mut next_dense) = (0, 0);
        for sg in &subgraphs {
            let first_slice = sg.dense.is_none_or(|slice| slice.slice_index == 0);
            if !first_slice {
                in_degree.push(0);
                continue;
            }
            debug_assert_eq!(sg.low, next_vertex, "blocks leave a gap");
            let span = &mut vloc[sg.low as usize..=sg.high as usize];
            in_degree.push(span.iter().map(|&d| d as u64).sum());
            if sg.is_dense() {
                span[0] = DENSE_BIT | next_dense;
                next_dense += 1;
            } else {
                span.fill(sg.id);
            }
            next_vertex = sg.high + 1;
        }
        assert_eq!(next_vertex, csr.num_vertices(), "unplaced vertex");

        PartitionedGraph {
            subgraphs,
            dense,
            config,
            in_degree,
            vloc,
        }
    }

    /// Number of subgraphs (graph blocks).
    pub fn num_subgraphs(&self) -> u32 {
        self.subgraphs.len() as u32
    }

    /// Number of graph partitions.
    pub fn num_partitions(&self) -> u32 {
        (self.num_subgraphs()).div_ceil(self.config.subgraphs_per_partition)
    }

    /// Which partition a subgraph belongs to.
    pub fn partition_of(&self, sg_id: u32) -> u32 {
        sg_id / self.config.subgraphs_per_partition
    }

    /// Subgraph-ID range of partition `p`.
    pub fn partition_range(&self, p: u32) -> std::ops::Range<u32> {
        let k = self.config.subgraphs_per_partition;
        let start = p * k;
        let end = ((p + 1) * k).min(self.num_subgraphs());
        start..end
    }

    /// Sum of in-degrees of subgraph `sg`'s vertices — the hot-subgraph
    /// ranking key. A dense vertex's in-degree counts on its first slice
    /// only, so ranking sees it once.
    ///
    /// # Panics
    /// Panics if `sg` is not a subgraph id.
    pub fn in_degree(&self, sg: u32) -> u64 {
        self.in_degree[sg as usize]
    }

    /// `v`'s location code: its owning subgraph id, or [`DENSE_BIT`]` | i`
    /// when `v` is `dense[i]`. Subgraph ids stay below [`DENSE_BIT`], so a
    /// dense code never equals a subgraph id.
    ///
    /// # Panics
    /// Panics if `v` is not a vertex of the graph.
    pub fn vloc(&self, v: VertexId) -> u32 {
        self.vloc[v as usize]
    }

    /// Dense metadata for `v`, if dense. O(1) via the flat `vloc` table.
    pub fn find_dense(&self, v: VertexId) -> Option<&DenseVertexMeta> {
        let &code = self.vloc.get(v as usize)?;
        if code & DENSE_BIT != 0 {
            Some(&self.dense[(code & !DENSE_BIT) as usize])
        } else {
            None
        }
    }

    /// Locate the subgraph containing `v` (data-level ground truth; the
    /// timed binary search lives in [`crate::mapping`]). For dense
    /// vertices this returns the first slice. O(1) via the flat `vloc`
    /// table; [`GraphBlocks::loc`] is the reference search.
    pub fn subgraph_of(&self, v: VertexId) -> Option<u32> {
        let &code = self.vloc.get(v as usize)?;
        if code & DENSE_BIT != 0 {
            Some(self.dense[(code & !DENSE_BIT) as usize].first_subgraph)
        } else {
            Some(code)
        }
    }

    /// The regular (non-dense) subgraph holding `v`, or `None` when `v`
    /// is dense or out of range. O(1).
    pub fn regular_owner(&self, v: VertexId) -> Option<u32> {
        let &code = self.vloc.get(v as usize)?;
        (code & DENSE_BIT == 0).then_some(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::{generate_csr, RmatParams};
    use fw_sim::Xoshiro256pp;

    fn cfg(bytes: u64) -> PartitionConfig {
        PartitionConfig {
            subgraph_bytes: bytes,
            id_bytes: 4,
            subgraphs_per_partition: 4,
        }
    }

    fn star(n: u32) -> Csr {
        // vertex 0 points to everyone; everyone points back to 0.
        let mut e = vec![];
        for v in 1..n {
            e.push((0u32, v));
            e.push((v, 0u32));
        }
        Csr::from_edges(n, &e)
    }

    #[test]
    fn packs_regular_vertices_contiguously() {
        // 16 vertices, 1 edge each; capacity 8 entries -> 4 vertices/block.
        let edges: Vec<(u32, u32)> = (0..16u32).map(|v| (v, (v + 1) % 16)).collect();
        let g = Csr::from_edges(16, &edges);
        let p = PartitionedGraph::build(&g, cfg(32)); // 8 entries
        assert_eq!(p.num_subgraphs(), 4);
        for (i, sg) in p.subgraphs.iter().enumerate() {
            assert_eq!(sg.low, i as u32 * 4);
            assert_eq!(sg.high, i as u32 * 4 + 3);
            assert_eq!(sg.num_edges, 4);
            assert!(!sg.is_dense());
        }
        assert!(p.dense.is_empty());
    }

    #[test]
    fn dense_vertex_splits_into_slices() {
        let g = star(100); // vertex 0 has out-degree 99
        let p = PartitionedGraph::build(&g, cfg(64)); // 16 entries, 15-edge slices
        let meta = p.find_dense(0).expect("vertex 0 dense");
        assert_eq!(meta.total_degree, 99);
        assert_eq!(meta.num_blocks, 99u64.div_ceil(15) as u32); // 7
        assert_eq!(meta.last_block_degree, 99 - 6 * 15); // 9
                                                         // Slice edges sum to the degree and are contiguous.
        let slices: Vec<&Subgraph> = p.subgraphs.iter().filter(|s| s.is_dense()).collect();
        assert_eq!(slices.len(), meta.num_blocks as usize);
        let total: u64 = slices.iter().map(|s| s.num_edges).sum();
        assert_eq!(total, 99);
        let mut expect_off = 0;
        for s in &slices {
            let d = s.dense.unwrap();
            assert_eq!(d.first_edge_in_vertex, expect_off);
            expect_off += d.num_edges;
        }
        // Non-dense vertices 1..100 still land in subgraphs.
        for v in 1..100u32 {
            let sg = p.subgraph_of(v).unwrap();
            let s = &p.subgraphs[sg as usize];
            assert!(s.low <= v && v <= s.high);
            assert!(!s.is_dense());
        }
    }

    #[test]
    fn subgraph_of_dense_returns_first_slice() {
        let g = star(100);
        let p = PartitionedGraph::build(&g, cfg(64));
        let meta = *p.find_dense(0).unwrap();
        assert_eq!(p.subgraph_of(0), Some(meta.first_subgraph));
    }

    #[test]
    fn every_block_fits_capacity() {
        let g = generate_csr(RmatParams::graph500(), 2000, 40_000, 9);
        let c = cfg(256); // 64 entries
        let p = PartitionedGraph::build(&g, c);
        for sg in &p.subgraphs {
            if sg.is_dense() {
                assert!(sg.num_edges <= c.dense_slice_edges());
            } else {
                assert!(
                    sg.num_edges + sg.num_vertices() as u64 <= c.capacity_entries(),
                    "block {} overflows: {} edges, {} vertices",
                    sg.id,
                    sg.num_edges,
                    sg.num_vertices()
                );
            }
        }
    }

    #[test]
    fn partitions_cover_all_subgraphs() {
        let g = generate_csr(RmatParams::parmat_default(), 500, 5_000, 2);
        let p = PartitionedGraph::build(&g, cfg(256));
        let mut covered = 0;
        for part in 0..p.num_partitions() {
            let r = p.partition_range(part);
            covered += r.len();
            for sg in r {
                assert_eq!(p.partition_of(sg), part);
            }
        }
        assert_eq!(covered as u32, p.num_subgraphs());
    }

    #[test]
    fn in_degree_totals_match_edge_count() {
        let g = generate_csr(RmatParams::graph500(), 1000, 20_000, 4);
        let p = PartitionedGraph::build(&g, cfg(512));
        let total: u64 = (0..p.num_subgraphs()).map(|sg| p.in_degree(sg)).sum();
        assert_eq!(total, g.num_edges());
    }

    /// Star graphs and small RMAT graphs, several with dense vertices.
    fn graphs_with_dense_vertices() -> Vec<Csr> {
        let mut rng = Xoshiro256pp::new(0x1A7);
        (0..16)
            .map(|case| {
                if case % 4 == 0 {
                    star(50 + case as u32 * 20) // guaranteed dense vertex 0
                } else {
                    let nv = 10 + rng.next_below(290) as u32;
                    let ne = 1 + rng.next_below(2999);
                    generate_csr(RmatParams::graph500(), nv, ne, rng.next_below(1000))
                }
            })
            .collect()
    }

    /// Block sizes from 64 B (15-edge dense slices) to 4 KB.
    const BLOCK_BYTES: [u64; 4] = [64, 256, 1024, 4096];

    /// Each subgraph's in-degree, counted from the location table, equals
    /// the sum of `Csr::in_degrees` over its vertices; a dense vertex's
    /// goes to its first slice only.
    #[test]
    fn in_degree_equals_csr_in_degrees_over_each_subgraph() {
        let mut dense_seen = 0;
        for (case, g) in graphs_with_dense_vertices().iter().enumerate() {
            let indeg = g.in_degrees();
            for bytes in BLOCK_BYTES {
                let p = PartitionedGraph::build(g, cfg(bytes));
                dense_seen += p.dense.len();
                for sg in &p.subgraphs {
                    let expect: u64 = match sg.dense {
                        Some(slice) if slice.slice_index > 0 => 0,
                        _ => (sg.low..=sg.high).map(|v| indeg[v as usize] as u64).sum(),
                    };
                    assert_eq!(
                        p.in_degree(sg.id),
                        expect,
                        "case {case}, {bytes} B blocks, subgraph {}",
                        sg.id
                    );
                }
            }
        }
        assert!(dense_seen > 0, "no graph had a dense vertex");
    }

    /// The flat `vloc` table must answer exactly like the binary search
    /// of [`GraphBlocks::loc`] for every vertex (and out-of-range
    /// queries), on graphs with and without dense vertices.
    #[test]
    fn flat_lookup_matches_reference_search() {
        for (case, g) in graphs_with_dense_vertices().iter().enumerate() {
            for bytes in BLOCK_BYTES {
                let p = PartitionedGraph::build(g, cfg(bytes));
                let blocks = GraphBlocks::pack(g, cfg(bytes));
                assert_eq!(blocks.dense, p.dense);
                for v in 0..g.num_vertices() + 3 {
                    let code = (v < g.num_vertices()).then(|| p.vloc(v));
                    assert_eq!(blocks.loc(v), code, "case {case} vertex {v}");
                    let dense_ref = p
                        .dense
                        .binary_search_by_key(&v, |d| d.vertex)
                        .ok()
                        .map(|i| p.dense[i]);
                    assert_eq!(
                        p.find_dense(v).copied(),
                        dense_ref,
                        "case {case} vertex {v}"
                    );
                    // regular_owner: Some iff non-dense and in range, and then
                    // it is the owning block.
                    match p.regular_owner(v) {
                        Some(sg) => {
                            assert!(dense_ref.is_none());
                            assert_eq!(p.subgraph_of(v), Some(sg));
                            assert!(!p.subgraphs[sg as usize].is_dense());
                        }
                        None => assert!(dense_ref.is_some() || v >= g.num_vertices()),
                    }
                }
            }
        }
    }

    // Deterministic generator sweep standing in for the former proptest
    // property (32 cases, seeded, so failures replay).
    #[test]
    fn prop_every_vertex_locatable_and_edges_partition() {
        let mut rng = Xoshiro256pp::new(0x9a47);
        for _ in 0..32 {
            let seed = rng.next_below(1000);
            let nv = 10 + rng.next_below(290) as u32;
            let ne = 1 + rng.next_below(2999);
            let g = generate_csr(RmatParams::graph500(), nv, ne, seed);
            let p = PartitionedGraph::build(&g, cfg(128)); // 32 entries
                                                           // Every vertex with any edges lands in exactly one subgraph
                                                           // (dense vertices in their first slice).
            for v in 0..nv {
                assert!(p.subgraph_of(v).is_some(), "vertex {v} unplaced");
            }
            // Total edges across blocks == graph edges.
            let total: u64 = p.subgraphs.iter().map(|s| s.num_edges).sum();
            assert_eq!(total, g.num_edges());
            // Vertex ranges are non-overlapping & sorted (dense share low).
            for w in p.subgraphs.windows(2) {
                assert!(w[0].high <= w[1].low);
            }
        }
    }
}
