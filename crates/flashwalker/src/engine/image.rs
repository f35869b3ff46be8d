//! The flash image: everything about a FlashWalker device that is fixed
//! once the partitioned graph has been preprocessed into flash.
//!
//! In the paper the graph is partitioned and written into the SSD once;
//! every walk batch then runs against that resident layout. A
//! [`FlashImage`] is that layout plus the tables and per-partition
//! selections derived from it: graph block placements, the subgraph
//! mapping and range tables with their precomputed search step counts,
//! each partition's mapping-table window, per-chip scheduler candidates
//! and hot sets. It is a pure function of
//! `(pg, AccelConfig, SsdConfig)` and is never mutated by a run, so one
//! image can back any number of [`super::FlashWalkerSim`] runs (the
//! serving loop builds one per service) while each run owns only its
//! mutable device state.

use fw_graph::{PartitionedGraph, RangeTable, SubgraphMappingTable, VertexId, DENSE_BIT};
use fw_nand::layout::GraphBlockPlacement;
use fw_nand::{GraphLayout, SsdConfig};

use crate::config::AccelConfig;

use super::state::SgId;

/// The preprocessed, read-only device image of one partitioned graph.
#[derive(Debug)]
pub struct FlashImage {
    pub(super) cfg: AccelConfig,
    pub(super) ssd_cfg: SsdConfig,
    /// Blocks per plane reserved for the graph region; the FTL manages
    /// the rest.
    pub(super) static_blocks: u32,
    /// Where each subgraph's graph block lives, indexed by subgraph id.
    pub(super) placements: Vec<GraphBlockPlacement>,
    pub(super) table: SubgraphMappingTable,
    pub(super) ranges: RangeTable,
    /// Mapping-table entry window per partition.
    pub(super) part_windows: Vec<(usize, usize)>,
    search: SearchSteps,
    /// Per-partition scheduler candidates and hot sets.
    pub(super) parts: Vec<PartitionImage>,
}

/// What a partition setup selects, precomputed: the partition walk
/// buffer's entries grouped by chip, and the hot subgraphs of the board
/// and of every channel.
#[derive(Debug)]
pub(super) struct PartitionImage {
    /// Chip `c`'s PWB entry indices are
    /// `chip_pwb[chip_pwb_start[c]..chip_pwb_start[c + 1]]`, ascending.
    chip_pwb_start: Vec<u32>,
    chip_pwb: Vec<u32>,
    /// Global top in-degree subgraphs (board-resident).
    board_hot: Vec<SgId>,
    /// The partition's first subgraph, and one bit per subgraph of the
    /// partition from it: set for the board-hot ones.
    first_sg: SgId,
    board_hot_bits: Vec<u64>,
    /// Channel `ch`'s hot subgraphs are
    /// `chan_hot[chan_hot_start[ch]..chan_hot_start[ch + 1]]`.
    chan_hot_start: Vec<u32>,
    chan_hot: Vec<SgId>,
}

impl PartitionImage {
    /// PWB entry indices (ascending) of the subgraphs stored on `chip`:
    /// the scheduler's candidate scan walks only these.
    pub(super) fn chip_candidates(&self, chip: u32) -> &[u32] {
        let c = chip as usize;
        &self.chip_pwb[self.chip_pwb_start[c] as usize..self.chip_pwb_start[c + 1] as usize]
    }

    /// Whether `sg`, a subgraph of this partition, is one of the board's
    /// hot subgraphs (never a dense slice).
    pub(super) fn is_board_hot(&self, sg: SgId) -> bool {
        let i = (sg - self.first_sg) as usize;
        self.board_hot_bits[i / 64] >> (i % 64) & 1 != 0
    }

    /// Channel `ch`'s hot subgraphs.
    pub(super) fn chan_hot(&self, ch: u32) -> &[SgId] {
        let c = ch as usize;
        &self.chan_hot[self.chan_hot_start[c] as usize..self.chan_hot_start[c + 1] as usize]
    }

    /// Every hot subgraph the partition setup loads: the board's, then
    /// each channel's in channel order.
    pub(super) fn hot_loads(&self) -> impl Iterator<Item = SgId> + '_ {
        self.board_hot.iter().chain(&self.chan_hot).copied()
    }
}

impl FlashImage {
    /// Preprocess `pg` into a device image: lay the graph out in the
    /// static region of an `ssd_cfg` device and build the board tables and
    /// per-partition selections `cfg` calls for.
    ///
    /// # Panics
    /// Panics if the graph does not fit the static region, or if the
    /// partition size exceeds the mapping-table capacity.
    pub fn new(pg: &PartitionedGraph, cfg: AccelConfig, ssd_cfg: SsdConfig) -> Self {
        assert!(
            pg.config.subgraphs_per_partition <= cfg.mapping_table_entries(),
            "partition ({}) exceeds mapping table capacity ({})",
            pg.config.subgraphs_per_partition,
            cfg.mapping_table_entries()
        );
        // Lay the graph out in the static region, leaving the rest to the
        // FTL for walk spills.
        let g = ssd_cfg.geometry;
        let pages_per_sg = (pg.config.subgraph_bytes / g.page_bytes).max(1) as u32;
        let total_pages = pg.num_subgraphs() as u64 * pages_per_sg as u64;
        let per_plane_pages = total_pages.div_ceil(g.num_planes() as u64);
        let static_blocks = (per_plane_pages.div_ceil(g.pages_per_block as u64) as u32 + 1)
            .min(g.blocks_per_plane - 4);
        let mut layout = GraphLayout::new(g, static_blocks);
        let placements: Vec<GraphBlockPlacement> = (0..pg.num_subgraphs())
            .map(|_| layout.place_block(pages_per_sg))
            .collect();

        let table = SubgraphMappingTable::build(pg);
        let ranges = RangeTable::build(&table, cfg.range_size);

        // Per-partition entry windows.
        let mut part_windows = vec![(usize::MAX, 0usize); pg.num_partitions() as usize];
        for (i, e) in table.entries().iter().enumerate() {
            let p = pg.partition_of(e.sg_id) as usize;
            let w = &mut part_windows[p];
            w.0 = w.0.min(i);
            w.1 = w.1.max(i + 1);
        }
        for w in &mut part_windows {
            if w.0 == usize::MAX {
                *w = (0, 0);
            }
        }

        let search = SearchSteps::new(pg, &table, &ranges, &part_windows);
        let parts = (0..pg.num_partitions())
            .map(|p| PartitionImage::new(pg, &cfg, &ssd_cfg, &placements, p))
            .collect();
        FlashImage {
            cfg,
            ssd_cfg,
            static_blocks,
            placements,
            table,
            ranges,
            part_windows,
            search,
            parts,
        }
    }

    /// Range-table steps of the channel's approximate walk search for a
    /// vertex with location code `code` ([`PartitionedGraph::vloc`]).
    pub(super) fn range_steps(&self, pg: &PartitionedGraph, code: u32) -> u32 {
        let k = self.search.entry_of_code(pg, code);
        self.search.range[k / self.ranges.range_size() as usize] as u32
    }

    /// The board's mapping-table search for regular vertex `v`, whose
    /// location code is subgraph `sg`, while partition `part` is set up:
    /// whether it hits, and its binary-search steps. A `narrowed` search
    /// covers the walk's range ∩ the partition's entry window, otherwise
    /// the partition's window. A hit's steps are precomputed; a vertex of
    /// another partition takes the plain search, which misses.
    pub(super) fn map_search(
        &self,
        v: VertexId,
        sg: SgId,
        part: u32,
        narrowed: bool,
    ) -> (bool, u32) {
        let (pstart, pend) = self.part_windows[part as usize];
        let k = self.search.entry_of[sg as usize] as usize;
        if (pstart..pend).contains(&k) {
            let [in_range, in_part] = self.search.entry[k];
            return (true, if narrowed { in_range } else { in_part } as u32);
        }
        let (s, e) = if narrowed {
            let (rs, re) = self
                .ranges
                .entry_window(k as u32 / self.ranges.range_size());
            (rs.max(pstart), re.min(pend))
        } else {
            (pstart, pend)
        };
        let l = self.table.lookup_in(v, s, e.max(s));
        debug_assert!(l.sg_id.is_none(), "vertex {v} found outside its partition");
        (false, l.steps)
    }
}

/// The step counts of the channel's and board's timed binary searches,
/// precomputed. A search's probe path depends only on which entry holds
/// the probed vertex, so every vertex of one entry costs the same steps.
#[derive(Debug)]
struct SearchSteps {
    /// Mapping-table entry index per subgraph (`u32::MAX` for the dense
    /// slices after the first, which the table leaves out).
    entry_of: Vec<u32>,
    /// Range-table steps per range.
    range: Vec<u8>,
    /// Mapping-table steps per entry: within its range ∩ its partition's
    /// window, and within its partition's window.
    entry: Vec<[u8; 2]>,
}

impl SearchSteps {
    fn new(
        pg: &PartitionedGraph,
        table: &SubgraphMappingTable,
        ranges: &RangeTable,
        part_windows: &[(usize, usize)],
    ) -> Self {
        let entries = table.entries();
        let mut entry_of = vec![u32::MAX; pg.num_subgraphs() as usize];
        for (k, e) in entries.iter().enumerate() {
            entry_of[e.sg_id as usize] = k as u32;
        }
        // Binary searches over u32-indexed tables take at most 33 steps.
        let range = ranges
            .ranges()
            .iter()
            .map(|r| ranges.lookup(r.low).steps as u8)
            .collect();
        let entry = entries
            .iter()
            .enumerate()
            .map(|(k, e)| {
                let (ps, pe) = part_windows[pg.partition_of(e.sg_id) as usize];
                let (rs, re) = ranges.entry_window(k as u32 / ranges.range_size());
                let (s, end) = (rs.max(ps), re.min(pe));
                [
                    table.lookup_in(e.low, s, end.max(s)).steps as u8,
                    table.lookup_in(e.low, ps, pe).steps as u8,
                ]
            })
            .collect();
        SearchSteps {
            entry_of,
            range,
            entry,
        }
    }

    /// The mapping-table entry that resolves location code `code`: the
    /// owning subgraph's, or a dense vertex's first slice's.
    fn entry_of_code(&self, pg: &PartitionedGraph, code: u32) -> usize {
        let sg = if code & DENSE_BIT != 0 {
            pg.dense[(code & !DENSE_BIT) as usize].first_subgraph
        } else {
            code
        };
        self.entry_of[sg as usize] as usize
    }
}

impl PartitionImage {
    fn new(
        pg: &PartitionedGraph,
        cfg: &AccelConfig,
        ssd_cfg: &SsdConfig,
        placements: &[GraphBlockPlacement],
        p: u32,
    ) -> Self {
        let g = ssd_cfg.geometry;
        let range = pg.partition_range(p);
        let first_sg = range.start;
        // Group the partition's PWB entries by their (static) chip,
        // ascending within each chip: a counting sort over chips.
        let mut chip_pwb_start = vec![0u32; g.num_chips() as usize + 1];
        for sg in range.clone() {
            chip_pwb_start[placements[sg as usize].chip as usize + 1] += 1;
        }
        for c in 0..g.num_chips() as usize {
            chip_pwb_start[c + 1] += chip_pwb_start[c];
        }
        let mut fill = chip_pwb_start.clone();
        let mut chip_pwb = vec![0u32; range.len()];
        for (idx, sg) in range.clone().enumerate() {
            let slot = &mut fill[placements[sg as usize].chip as usize];
            chip_pwb[*slot as usize] = idx as u32;
            *slot += 1;
        }

        // Hot-subgraph selection: "K subgraphs whose in-degree are top K"
        // per channel, and the global top set on the board. Dense slices
        // are excluded (they need the dense table to route into).
        let mut board_hot = Vec::new();
        let mut per_chan: Vec<Vec<SgId>> = vec![Vec::new(); g.channels as usize];
        if cfg.opts.hot_subgraphs {
            let sgb = pg.config.subgraph_bytes;
            let board_k = cfg.board_hot_slots(sgb) as usize;
            let chan_k = cfg.chan_hot_slots(sgb) as usize;
            let mut by_indeg: Vec<SgId> = range
                .filter(|&sg| !pg.subgraphs[sg as usize].is_dense())
                .collect();
            by_indeg.sort_by_key(|&sg| std::cmp::Reverse(pg.in_degree(sg)));
            board_hot = by_indeg.iter().copied().take(board_k).collect();
            for &sg in &by_indeg {
                let hot = &mut per_chan[placements[sg as usize].channel as usize];
                if hot.len() < chan_k {
                    hot.push(sg);
                }
            }
        }
        // One PWB entry per subgraph of the partition.
        let mut board_hot_bits = vec![0u64; chip_pwb.len().div_ceil(64)];
        for &sg in &board_hot {
            let i = (sg - first_sg) as usize;
            board_hot_bits[i / 64] |= 1 << (i % 64);
        }
        let mut chan_hot_start = Vec::with_capacity(per_chan.len() + 1);
        chan_hot_start.push(0);
        for hot in &per_chan {
            chan_hot_start.push(chan_hot_start.last().copied().unwrap_or(0) + hot.len() as u32);
        }
        PartitionImage {
            chip_pwb_start,
            chip_pwb,
            board_hot,
            first_sg,
            board_hot_bits,
            chan_hot_start,
            chan_hot: per_chan.concat(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_graph::partition::PartitionConfig;
    use fw_graph::rmat::{generate_csr, RmatParams};

    #[test]
    fn board_hot_bits_match_the_hot_list() {
        let csr = generate_csr(RmatParams::graph500(), 4000, 60_000, 5);
        let pg = PartitionedGraph::build(
            &csr,
            PartitionConfig {
                subgraph_bytes: 1 << 10,
                id_bytes: 4,
                subgraphs_per_partition: 150,
            },
        );
        // 40 board slots of 1-KiB subgraphs: partitions of 150 subgraphs
        // (three bit words) hold hot and cold ones.
        let mut cfg = AccelConfig::scaled();
        cfg.board_subgraph_buf = 40 << 10;
        let image = FlashImage::new(&pg, cfg, SsdConfig::tiny());
        assert!(pg.num_partitions() > 1 && !pg.dense.is_empty());
        let mut hot = 0;
        for p in 0..pg.num_partitions() {
            let part = &image.parts[p as usize];
            assert!(!part.board_hot.is_empty() && part.board_hot.len() <= 40);
            for sg in pg.partition_range(p) {
                assert_eq!(
                    part.is_board_hot(sg),
                    part.board_hot.contains(&sg),
                    "subgraph {sg}"
                );
                hot += part.is_board_hot(sg) as u32;
            }
        }
        assert_eq!(
            hot as usize,
            image.parts.iter().map(|p| p.board_hot.len()).sum::<usize>()
        );
    }

    /// The precomputed steps equal the searches they stand for — the
    /// range table's and the mapping table's `lookup_in` over the range ∩
    /// partition window or the partition window — for every vertex of a
    /// multi-partition RMAT graph with dense vertices, with every
    /// partition set up (so vertices of other partitions take the plain
    /// search), for ranges that fit inside partitions and ranges that
    /// straddle them.
    #[test]
    fn precomputed_search_steps_match_the_reference_searches() {
        let csr = generate_csr(RmatParams::graph500(), 2000, 20_000, 11);
        let pg = PartitionedGraph::build(
            &csr,
            PartitionConfig {
                subgraph_bytes: 1 << 10,
                id_bytes: 4,
                subgraphs_per_partition: 16,
            },
        );
        assert!(pg.num_partitions() > 2 && !pg.dense.is_empty());
        for range_size in [1, 3, 16, 1000] {
            let mut cfg = AccelConfig::scaled();
            cfg.range_size = range_size;
            let image = FlashImage::new(&pg, cfg, SsdConfig::tiny());
            let (table, ranges) = (&image.table, &image.ranges);
            let (mut hits, mut misses) = (0, 0);
            for v in 0..csr.num_vertices() {
                let code = pg.vloc(v);
                let rl = ranges.lookup(v);
                let range_id = rl.range_id.expect("ranges cover every vertex");
                assert_eq!(image.range_steps(&pg, code), rl.steps, "vertex {v}");
                if code & DENSE_BIT != 0 {
                    continue; // the board never searches for a dense vertex
                }
                for part in 0..pg.num_partitions() {
                    let (ps, pe) = image.part_windows[part as usize];
                    let (rs, re) = ranges.entry_window(range_id);
                    let (s, e) = (rs.max(ps), re.min(pe));
                    for (narrowed, (s, e)) in [(true, (s, e.max(s))), (false, (ps, pe))] {
                        let l = table.lookup_in(v, s, e);
                        let want = (l.sg_id.is_some(), l.steps);
                        assert_eq!(
                            image.map_search(v, code, part, narrowed),
                            want,
                            "range size {range_size}, vertex {v}, partition {part}, narrowed {narrowed}"
                        );
                        assert!(l.sg_id.is_none_or(|sg| sg == code));
                        if want.0 {
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                }
            }
            assert!(hits > 0 && misses > hits, "{hits} hits, {misses} misses");
        }
    }
}
