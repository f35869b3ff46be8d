//! Walk stepping inside accelerators: dense-slice sampling, the
//! pre-walking slice choice and local guiding. A hop in a regular
//! subgraph is [`fw_walk::Workload::step`]; chip batches stage their hops
//! themselves (`routing`).

use fw_graph::DenseVertexMeta;
#[cfg(test)]
use fw_graph::{Csr, PartitionedGraph};
use fw_sim::Xoshiro256pp;
#[cfg(test)]
use fw_walk::{Walk, WalkEvent, Workload};

use super::state::SgId;

/// Step a dense walk whose chosen slice block is loaded: sample an edge
/// *within the slice* ([`Workload::pick`] over the slice's range of the
/// vertex's out-list). Together with the slice having been chosen
/// proportionally to its edge count (see [`prewalk_slice`]), this equals a
/// uniform draw over the dense vertex's full edge list — the paper's
/// pre-walking argument. Weighted workloads sample within the slice by
/// ITS over the global cumulative list restricted to the slice.
///
/// Chip batches read a dense walk's slice range in their first stage, so
/// this single hop is the reference they and the pre-walking tests use.
#[cfg(test)]
pub fn hop_dense_slice(
    wl: &Workload,
    csr: &Csr,
    pg: &PartitionedGraph,
    slice_sg: SgId,
    walk: Walk,
    rng: &mut Xoshiro256pp,
) -> (WalkEvent, u32) {
    let slice = pg.subgraphs[slice_sg as usize]
        .dense
        .expect("hop_dense_slice on non-dense subgraph");
    debug_assert_eq!(slice.vertex, walk.cur, "walk not at this dense vertex");
    debug_assert!(slice.num_edges > 0);
    let start = slice.first_edge_in_vertex as usize;
    let edges = start..start + slice.num_edges as usize;
    let (pick, ops) = wl.pick(csr, walk.cur, edges, rng);
    let next = pick.map(|i| csr.neighbors(walk.cur)[i]);
    (WalkEvent::of_hop(walk, next), ops)
}

/// Pre-walking (§III-D): choose the graph block `gb_next` in which a dense
/// walk's next stop lands, *before* determining the stop itself: draw
/// `rnd ∈ [0, outDegree)` and take the `rnd / size(gb)`-th block. Returns
/// the chosen slice subgraph and the guider operation count.
pub fn prewalk_slice(
    meta: &DenseVertexMeta,
    slice_cap: u64,
    rng: &mut Xoshiro256pp,
) -> (SgId, u32) {
    let rnd = rng.next_below(meta.total_degree);
    let idx = ((rnd / slice_cap) as u32).min(meta.num_blocks - 1);
    (meta.first_subgraph + idx, 2)
}

/// A guider's membership test: is the vertex with location code `code`
/// ([`fw_graph::PartitionedGraph::vloc`]) inside any of the `loaded` subgraphs?
/// Returns the answer and the comparison-op count: one per subgraph
/// probed, as the guider "compar[es] w.cur with two end vertices of each
/// loaded subgraph". A regular vertex lies in exactly the subgraph its
/// code names. A dense vertex's code never equals a subgraph id, so it
/// never hits: choosing among its slices needs the dense table, which
/// chips and channels don't have.
pub fn guide_local(loaded: &[SgId], code: u32) -> (bool, u32) {
    match loaded.iter().position(|&sg| sg == code) {
        Some(i) => (true, i as u32 + 1),
        None => (false, (loaded.len() as u32).max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_graph::partition::PartitionConfig;
    use fw_graph::Csr;

    fn star_pg(weighted: bool) -> (Csr, PartitionedGraph) {
        let mut e = vec![];
        for v in 1..200u32 {
            e.push((0, v));
            e.push((v, 0));
        }
        let mut g = Csr::from_edges(200, &e);
        if weighted {
            g = g.with_random_weights(3);
        }
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig {
                subgraph_bytes: 64, // 16 entries -> 15-edge slices
                id_bytes: 4,
                subgraphs_per_partition: 64,
            },
        );
        (g, pg)
    }

    #[test]
    fn prewalk_distributes_proportionally_to_slice_size() {
        let (_, pg) = star_pg(false);
        let meta = *pg.find_dense(0).unwrap();
        let cap = pg.config.dense_slice_edges();
        let mut rng = Xoshiro256pp::new(5);
        let mut counts = vec![0u64; meta.num_blocks as usize];
        let n = 50_000;
        for _ in 0..n {
            let (sg, ops) = prewalk_slice(&meta, cap, &mut rng);
            assert!(sg >= meta.first_subgraph && sg < meta.first_subgraph + meta.num_blocks);
            assert_eq!(ops, 2);
            counts[(sg - meta.first_subgraph) as usize] += 1;
        }
        // Full slices hold `cap` edges; expect counts proportional.
        for (i, &c) in counts.iter().enumerate() {
            let slice_edges = if i as u32 == meta.num_blocks - 1 {
                meta.last_block_degree
            } else {
                cap
            };
            let expect = n as f64 * slice_edges as f64 / meta.total_degree as f64;
            assert!(
                (c as f64 - expect).abs() < expect * 0.15 + 10.0,
                "slice {i}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn prewalk_plus_slice_hop_is_uniform_over_neighbors() {
        let (g, pg) = star_pg(false);
        let meta = *pg.find_dense(0).unwrap();
        let cap = pg.config.dense_slice_edges();
        let wl = Workload::paper_default(1);
        let mut rng = Xoshiro256pp::new(9);
        let mut counts = vec![0u32; 200];
        let n = 100_000;
        for _ in 0..n {
            let (sg, _) = prewalk_slice(&meta, cap, &mut rng);
            let w = Walk::new(0, 6);
            match hop_dense_slice(&wl, &g, &pg, sg, w, &mut rng).0 {
                WalkEvent::Moved(w2) => counts[w2.cur as usize] += 1,
                WalkEvent::Completed(_) => panic!("6-hop walk can't finish in one hop"),
            }
        }
        // All 199 leaves should be hit roughly uniformly.
        let expect = n as f64 / 199.0;
        for (v, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64 - expect).abs() < expect * 0.35 + 10.0,
                "vertex {v}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn weighted_dense_slice_hop_is_valid() {
        let (g, pg) = star_pg(true);
        let meta = *pg.find_dense(0).unwrap();
        let cap = pg.config.dense_slice_edges();
        let wl = Workload::node2vec_biased(1, 6);
        let mut rng = Xoshiro256pp::new(11);
        for _ in 0..2000 {
            let (sg, _) = prewalk_slice(&meta, cap, &mut rng);
            match hop_dense_slice(&wl, &g, &pg, sg, Walk::new(0, 6), &mut rng).0 {
                WalkEvent::Moved(w) => {
                    // Must land on a neighbor within the chosen slice.
                    let slice = pg.subgraphs[sg as usize].dense.unwrap();
                    let s = slice.first_edge_in_vertex as usize;
                    let nbrs = &g.neighbors(0)[s..s + slice.num_edges as usize];
                    assert!(nbrs.contains(&w.cur));
                }
                WalkEvent::Completed(_) => panic!("fixed-6 can't complete"),
            }
        }
    }

    #[test]
    fn guide_local_matches_ranges_and_skips_dense() {
        let (_, pg) = star_pg(false);
        let meta = *pg.find_dense(0).unwrap();
        // Loaded: the dense first slice and one regular subgraph.
        let regular = pg.subgraph_of(50).unwrap();
        let loaded = vec![meta.first_subgraph, regular];
        assert_eq!(guide_local(&loaded, pg.vloc(50)), (true, 2));
        // The dense vertex itself is NOT guided locally, even with its
        // first slice loaded.
        assert_eq!(guide_local(&loaded, pg.vloc(0)), (false, 2));
        // A vertex in no loaded subgraph roves.
        let far = (1..200)
            .find(|&v| pg.subgraph_of(v) != Some(regular))
            .unwrap();
        assert_eq!(guide_local(&loaded, pg.vloc(far)), (false, 2));
        assert_eq!(guide_local(&[], pg.vloc(far)), (false, 1));
    }
}
