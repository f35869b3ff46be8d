//! GraphWalker's graph blocks, shared by both host engines: the graph
//! packed into blocks in vertex order ([`GraphBlocks::pack`]), laid out
//! on the SSD as ordinary host files, and the vertex→block lookup. The
//! lookup binary-searches the blocks' low vertices, so the engines hold
//! nothing per vertex.

use fw_graph::partition::PartitionConfig;
use fw_graph::{Csr, GraphBlocks, VertexId, DENSE_BIT};
use fw_nand::layout::GraphBlockPlacement;
use fw_nand::{GraphLayout, SsdConfig};
use fw_sim::Xoshiro256pp;

use crate::config::GwConfig;

/// Pack `csr` into blocks of `cfg.block_bytes` and lay them out on an SSD
/// of `ssd_cfg`. Returns the blocks, each block's pages, and the static
/// flash blocks per plane the layout reserves (for [`fw_nand::Ssd::new`]).
pub(crate) fn lay_out(
    csr: &Csr,
    id_bytes: u32,
    cfg: &GwConfig,
    ssd_cfg: &SsdConfig,
) -> (GraphBlocks, Vec<GraphBlockPlacement>, u32) {
    let blocks = GraphBlocks::pack(
        csr,
        PartitionConfig {
            subgraph_bytes: cfg.block_bytes,
            id_bytes,
            subgraphs_per_partition: u32::MAX,
        },
    );
    let geometry = ssd_cfg.geometry;
    let pages_per_block = (cfg.block_bytes / geometry.page_bytes).max(1) as u32;
    let total_pages = blocks.num_subgraphs() as u64 * pages_per_block as u64;
    let per_plane = total_pages.div_ceil(geometry.num_planes() as u64);
    let static_blocks = (per_plane.div_ceil(geometry.pages_per_block as u64) as u32 + 1)
        .min(geometry.blocks_per_plane - 4);
    let mut layout = GraphLayout::new(geometry, static_blocks);
    // Pages sized by the block's actual bytes so a small final block
    // doesn't read a full-size extent. Unlike FlashWalker's chip-local
    // graph blocks, GraphWalker's blocks are ordinary host files: the FTL
    // stripes them page by page across every chip, so a block load
    // engages the whole device.
    let placements = blocks
        .subgraphs
        .iter()
        .map(|sg| {
            let bytes = sg.bytes(id_bytes).max(geometry.page_bytes);
            let pages = bytes.div_ceil(geometry.page_bytes) as u32;
            let mut placement = layout.place_block(0);
            for _ in 0..pages {
                placement.pages.extend(layout.place_block(1).pages);
            }
            placement
        })
        .collect();
    (blocks, placements, static_blocks)
}

/// The block holding vertex `v`. A dense vertex's slice is drawn from
/// `rng`, in proportion to the slices' edges: FlashWalker's pre-walk
/// arithmetic, done on the host.
pub(crate) fn block_of(blocks: &GraphBlocks, v: VertexId, rng: &mut Xoshiro256pp) -> u32 {
    let code = blocks.loc(v).expect("vertex outside all blocks");
    if code & DENSE_BIT == 0 {
        return code;
    }
    // Dense vertices are rare at 2 MB blocks.
    let meta = &blocks.dense[(code & !DENSE_BIT) as usize];
    let cap = blocks.config.dense_slice_edges();
    let rnd = rng.next_below(meta.total_degree);
    let idx = ((rnd / cap) as u32).min(meta.num_blocks - 1);
    meta.first_subgraph + idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_graph::rmat::{generate_csr, RmatParams};
    use fw_graph::PartitionedGraph;

    /// The lookup both engines used before they dropped the per-vertex
    /// table: `vloc`-backed, on a [`PartitionedGraph`].
    fn block_of_vloc(pg: &PartitionedGraph, v: VertexId, rng: &mut Xoshiro256pp) -> u32 {
        match pg.find_dense(v) {
            Some(meta) => {
                let meta = *meta;
                let cap = pg.config.dense_slice_edges();
                let rnd = rng.next_below(meta.total_degree);
                let idx = ((rnd / cap) as u32).min(meta.num_blocks - 1);
                meta.first_subgraph + idx
            }
            None => pg.subgraph_of(v).expect("vertex outside all blocks"),
        }
    }

    /// Vertex 0 points to everyone; everyone points back to 0.
    fn star(n: u32) -> Csr {
        let edges: Vec<(u32, u32)> = (1..n).flat_map(|v| [(0, v), (v, 0)]).collect();
        Csr::from_edges(n, &edges)
    }

    /// For every vertex, several draws each: the search-based lookup
    /// answers like the `vloc`-based one and leaves the RNG in the same
    /// state, so walks pre-walk dense vertices onto the same slices.
    #[test]
    fn search_lookup_matches_the_location_table() {
        let mut graphs = vec![star(100), star(700)];
        for seed in 0..6 {
            graphs.push(generate_csr(RmatParams::graph500(), 300, 6_000, seed));
        }
        let mut dense_lookups = 0;
        for (case, g) in graphs.iter().enumerate() {
            for bytes in [64, 256, 1024, 4096] {
                let config = PartitionConfig {
                    subgraph_bytes: bytes,
                    id_bytes: 4,
                    subgraphs_per_partition: u32::MAX,
                };
                let pg = PartitionedGraph::build(g, config);
                let blocks = GraphBlocks::pack(g, config);
                let mut want_rng = Xoshiro256pp::new(case as u64 ^ bytes);
                let mut got_rng = want_rng.clone();
                for v in 0..g.num_vertices() {
                    dense_lookups += 3 * usize::from(pg.find_dense(v).is_some());
                    for _ in 0..3 {
                        assert_eq!(
                            block_of(&blocks, v, &mut got_rng),
                            block_of_vloc(&pg, v, &mut want_rng),
                            "case {case}, {bytes} B blocks, vertex {v}"
                        );
                    }
                }
                assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "case {case}");
            }
        }
        assert!(dense_lookups > 100, "only {dense_lookups} dense lookups");
    }
}
