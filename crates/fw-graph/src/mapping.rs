//! The subgraph mapping table and the subgraph range mapping table.
//!
//! "To determine a subgraph for a vertex, we set up the subgraph mapping
//! table whose entry has: two end vertices in the subgraph, a flash memory
//! address for the subgraph, and the sum of out-degree of the subgraph. …
//! we perform the binary search for the subgraph mapping table whose
//! entries are sorted with the ID of the low-end vertex" (§III-D).
//!
//! Lookups report the number of binary-search *steps* (probed entries) so
//! the accelerator models can charge guider cycles and table-access
//! contention per probe — the cost that motivates the walk query cache and
//! the approximate walk search.
//!
//! The range table ("if a subgraph range has 256 subgraphs, the subgraph
//! range mapping table can be reduced by 256×") is the channel-level
//! structure behind the approximate search: it maps a vertex to a *range*
//! of consecutive mapping-table entries, which the board later searches.

use crate::csr::VertexId;
use crate::partition::PartitionedGraph;

/// One subgraph mapping table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapEntry {
    /// Low-end vertex of the subgraph (sort key).
    pub low: VertexId,
    /// High-end vertex of the subgraph.
    pub high: VertexId,
    /// The subgraph (graph block) ID — stands in for the flash address.
    pub sg_id: u32,
    /// Sum of out-degrees stored in the subgraph.
    pub degree_sum: u64,
}

/// The board-level subgraph mapping table.
#[derive(Debug, Clone)]
pub struct SubgraphMappingTable {
    entries: Vec<MapEntry>,
}

/// Result of a timed lookup: the hit (if any) plus probes performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// The matching subgraph, if the vertex is covered.
    pub sg_id: Option<u32>,
    /// Number of table entries probed by the binary search.
    pub steps: u32,
}

impl SubgraphMappingTable {
    /// Build the table from a partitioned graph. Dense vertices appear
    /// once (their first slice); later slices are reached through the
    /// dense vertices mapping table instead.
    pub fn build(pg: &PartitionedGraph) -> Self {
        let mut entries = Vec::new();
        for sg in &pg.subgraphs {
            if let Some(d) = sg.dense {
                if d.slice_index != 0 {
                    continue;
                }
            }
            entries.push(MapEntry {
                low: sg.low,
                high: sg.high,
                sg_id: sg.id,
                degree_sum: sg.num_edges,
            });
        }
        debug_assert!(entries.windows(2).all(|w| w[0].low < w[1].low));
        SubgraphMappingTable { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table is empty (empty graph).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, sorted by `low`.
    pub fn entries(&self) -> &[MapEntry] {
        &self.entries
    }

    /// Modeled table size in bytes (paper entry: two end vertices, flash
    /// address, degree sum).
    pub fn modeled_bytes(&self, id_bytes: u32) -> u64 {
        // two vertex ids + 4-byte flash address + 4-byte degree sum
        self.entries.len() as u64 * (2 * id_bytes as u64 + 8)
    }

    /// Binary-search the whole table.
    pub fn lookup(&self, v: VertexId) -> Lookup {
        self.lookup_in(v, 0, self.entries.len())
    }

    /// Binary-search entries `[start, end)` — the board-side completion of
    /// an approximate (range-tagged) walk query.
    pub fn lookup_in(&self, v: VertexId, start: usize, end: usize) -> Lookup {
        let mut lo = start;
        let mut hi = end;
        let mut steps = 0;
        let mut hit = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            steps += 1;
            let e = &self.entries[mid];
            if v < e.low {
                hi = mid;
            } else if v > e.high {
                lo = mid + 1;
            } else {
                hit = Some(e.sg_id);
                break;
            }
        }
        Lookup { sg_id: hit, steps }
    }
}

/// One subgraph range: `range_size` consecutive mapping-table entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeEntry {
    /// Lowest vertex covered by the range.
    pub low: VertexId,
    /// Highest vertex covered by the range.
    pub high: VertexId,
    /// First mapping-table entry index in the range.
    pub first_entry: u32,
    /// One past the last mapping-table entry index.
    pub end_entry: u32,
}

/// The channel-level subgraph range mapping table.
#[derive(Debug, Clone)]
pub struct RangeTable {
    ranges: Vec<RangeEntry>,
    range_size: u32,
}

/// Result of an approximate walk query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeLookup {
    /// The matching range index (the "tag" attached to the walk), if any.
    pub range_id: Option<u32>,
    /// Probes performed on the range table.
    pub steps: u32,
}

impl RangeTable {
    /// Group the mapping table's entries into ranges of `range_size`.
    ///
    /// # Panics
    /// Panics if `range_size == 0`.
    pub fn build(table: &SubgraphMappingTable, range_size: u32) -> Self {
        assert!(range_size > 0);
        let entries = table.entries();
        let mut ranges = Vec::new();
        let mut i = 0usize;
        while i < entries.len() {
            let end = (i + range_size as usize).min(entries.len());
            ranges.push(RangeEntry {
                low: entries[i].low,
                high: entries[end - 1].high,
                first_entry: i as u32,
                end_entry: end as u32,
            });
            i = end;
        }
        RangeTable { ranges, range_size }
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Configured subgraphs per range.
    pub fn range_size(&self) -> u32 {
        self.range_size
    }

    /// The range entries.
    pub fn ranges(&self) -> &[RangeEntry] {
        &self.ranges
    }

    /// Approximate walk query: find the range containing `v`.
    pub fn lookup(&self, v: VertexId) -> RangeLookup {
        let mut lo = 0usize;
        let mut hi = self.ranges.len();
        let mut steps = 0;
        let mut hit = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            steps += 1;
            let r = &self.ranges[mid];
            if v < r.low {
                hi = mid;
            } else if v > r.high {
                lo = mid + 1;
            } else {
                hit = Some(mid as u32);
                break;
            }
        }
        RangeLookup {
            range_id: hit,
            steps,
        }
    }

    /// The entry window `[first, end)` of a range (for the board's
    /// narrowed binary search).
    pub fn entry_window(&self, range_id: u32) -> (usize, usize) {
        let r = &self.ranges[range_id as usize];
        (r.first_entry as usize, r.end_entry as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::partition::PartitionConfig;
    use crate::rmat::{generate_csr, RmatParams};
    use fw_sim::Xoshiro256pp;

    fn pg(nv: u32, ne: u64, seed: u64) -> PartitionedGraph {
        let g = generate_csr(RmatParams::graph500(), nv, ne, seed);
        PartitionedGraph::build(
            &g,
            PartitionConfig {
                subgraph_bytes: 128,
                id_bytes: 4,
                subgraphs_per_partition: 8,
            },
        )
    }

    #[test]
    fn lookup_agrees_with_ground_truth() {
        let p = pg(500, 4000, 1);
        let t = SubgraphMappingTable::build(&p);
        for v in 0..500u32 {
            let l = t.lookup(v);
            assert_eq!(l.sg_id, p.subgraph_of(v), "vertex {v}");
            assert!(l.steps >= 1);
            assert!(l.steps as usize <= usize::BITS as usize); // log bound
        }
    }

    #[test]
    fn steps_are_logarithmic() {
        let p = pg(2000, 20_000, 2);
        let t = SubgraphMappingTable::build(&p);
        let bound = (t.len() as f64).log2().ceil() as u32 + 1;
        for v in (0..2000u32).step_by(17) {
            assert!(t.lookup(v).steps <= bound);
        }
    }

    #[test]
    fn narrowed_search_uses_fewer_steps() {
        let p = pg(2000, 20_000, 3);
        let t = SubgraphMappingTable::build(&p);
        let rt = RangeTable::build(&t, 8);
        let mut narrowed_total = 0u32;
        let mut full_total = 0u32;
        for v in (0..2000u32).step_by(13) {
            let full = t.lookup(v);
            let r = rt.lookup(v);
            if let Some(rid) = r.range_id {
                let (s, e) = rt.entry_window(rid);
                let narrow = t.lookup_in(v, s, e);
                assert_eq!(narrow.sg_id, full.sg_id);
                narrowed_total += narrow.steps;
                full_total += full.steps;
            }
        }
        assert!(
            narrowed_total < full_total,
            "narrowed {narrowed_total} >= full {full_total}"
        );
    }

    #[test]
    fn range_table_shrinks_by_range_size() {
        let p = pg(2000, 20_000, 4);
        let t = SubgraphMappingTable::build(&p);
        let rt = RangeTable::build(&t, 16);
        assert_eq!(rt.len(), t.len().div_ceil(16));
        assert_eq!(rt.range_size(), 16);
    }

    #[test]
    fn dense_vertices_appear_once() {
        // A star graph has one dense vertex with many slices.
        let mut e = vec![];
        for v in 1..200u32 {
            e.push((0, v));
            e.push((v, 0));
        }
        let g = Csr::from_edges(200, &e);
        let p = PartitionedGraph::build(
            &g,
            PartitionConfig {
                subgraph_bytes: 64,
                id_bytes: 4,
                subgraphs_per_partition: 8,
            },
        );
        let t = SubgraphMappingTable::build(&p);
        let zero_entries = t
            .entries()
            .iter()
            .filter(|en| en.low == 0 && en.high == 0)
            .count();
        assert_eq!(zero_entries, 1, "dense vertex appears once in the table");
        // And it resolves to the first slice.
        let meta = p.find_dense(0).unwrap();
        assert_eq!(t.lookup(0).sg_id, Some(meta.first_subgraph));
    }

    #[test]
    fn out_of_range_vertex_misses() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let p = PartitionedGraph::build(
            &g,
            PartitionConfig {
                subgraph_bytes: 1024,
                id_bytes: 4,
                subgraphs_per_partition: 1,
            },
        );
        let t = SubgraphMappingTable::build(&p);
        assert_eq!(t.lookup(3).sg_id, Some(0));
        assert_eq!(t.lookup(1000).sg_id, None);
    }

    // Deterministic generator sweep standing in for the former proptest
    // property (24 cases, seeded, so failures replay).
    #[test]
    fn prop_range_then_narrow_equals_full() {
        let mut rng = Xoshiro256pp::new(0x3a99);
        for _ in 0..24 {
            let seed = rng.next_below(500);
            let nv = 20 + rng.next_below(380) as u32;
            let ne = 10 + rng.next_below(3990);
            let rs = 1 + rng.next_below(11) as u32;
            let p = pg(nv, ne, seed);
            let t = SubgraphMappingTable::build(&p);
            let rt = RangeTable::build(&t, rs);
            for v in 0..nv {
                let full = t.lookup(v);
                let r = rt.lookup(v);
                match r.range_id {
                    Some(rid) => {
                        let (s, e) = rt.entry_window(rid);
                        assert_eq!(t.lookup_in(v, s, e).sg_id, full.sg_id);
                    }
                    None => assert_eq!(full.sg_id, None),
                }
            }
        }
    }
}
