//! The five evaluation datasets (Table IV), at experiment scale.
//!
//! The paper's graphs are 23–138 GB on disk; downloading and partitioning
//! them is out of scope for a simulator run, so each dataset is replaced
//! by a synthetic stand-in with the same |V| : |E| ratio, the same vertex
//! ID width, and a degree skew appropriate to its origin (social network,
//! web crawl, RMAT), all scaled by the graph-scale factor **Sg = 1/500**
//! (see DESIGN.md §5). R2B and R8B were synthetic in the paper already and
//! are regenerated with PaRMAT-default parameters.

use crate::csr::Csr;
use crate::partition::{PartitionConfig, PartitionedGraph};
use crate::rmat::{generate_csr, RmatParams};

/// Graph-scale factor: dataset sizes, walk counts and host memory are all
/// 1/500 of the paper's (DESIGN.md §5).
pub const GRAPH_SCALE: u64 = 500;

/// Structure-scale factor: graph-block size and accelerator buffer
/// capacities are 1/16 of the paper's, preserving every
/// capacity-to-capacity ratio (subgraphs per buffer, walks per queue).
pub const STRUCT_SCALE: u64 = 16;

/// The five Table IV datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Twitter follower graph (TT).
    Twitter,
    /// Friendster social network (FS).
    Friendster,
    /// ClueWeb 2009 web crawl (CW) — 8-byte vertex IDs.
    ClueWeb,
    /// RMAT synthetic, 2 B edges at paper scale (R2B).
    Rmat2B,
    /// RMAT synthetic, 8 B edges at paper scale (R8B).
    Rmat8B,
}

impl DatasetId {
    /// All five, in the paper's order.
    pub const ALL: [DatasetId; 5] = [
        DatasetId::Twitter,
        DatasetId::Friendster,
        DatasetId::ClueWeb,
        DatasetId::Rmat2B,
        DatasetId::Rmat8B,
    ];

    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            DatasetId::Twitter => "TT",
            DatasetId::Friendster => "FS",
            DatasetId::ClueWeb => "CW",
            DatasetId::Rmat2B => "R2B",
            DatasetId::Rmat8B => "R8B",
        }
    }

    /// The dataset whose [`Self::abbrev`] is `s` (case-sensitive), `None`
    /// for anything else — the one parser every CLI shares.
    pub fn from_abbrev(s: &str) -> Option<DatasetId> {
        DatasetId::ALL.into_iter().find(|d| d.abbrev() == s)
    }

    /// `(vertices, edges)` at experiment scale (paper values / 500).
    pub fn scaled_size(self) -> (u32, u64) {
        match self {
            DatasetId::Twitter => (83_200, 2_920_000),
            DatasetId::Friendster => (131_200, 7_220_000),
            DatasetId::ClueWeb => (9_560_000, 15_880_000),
            DatasetId::Rmat2B => (125_000, 4_000_000),
            DatasetId::Rmat8B => (500_000, 16_000_000),
        }
    }

    /// `(vertices, edges)` as reported in Table IV.
    pub fn paper_size(self) -> (u64, u64) {
        match self {
            DatasetId::Twitter => (41_600_000, 1_460_000_000),
            DatasetId::Friendster => (65_600_000, 3_610_000_000),
            DatasetId::ClueWeb => (4_780_000_000, 7_940_000_000),
            DatasetId::Rmat2B => (62_500_000, 2_000_000_000),
            DatasetId::Rmat8B => (250_000_000, 8_000_000_000),
        }
    }

    /// Modeled on-flash vertex-id width: 8 bytes for ClueWeb ("the total
    /// number of its vertices exceeds the 4-byte representation range"),
    /// 4 bytes otherwise.
    pub fn id_bytes(self) -> u32 {
        match self {
            DatasetId::ClueWeb => 8,
            _ => 4,
        }
    }

    /// Graph-block (subgraph) size at experiment scale: the paper's
    /// 256 KB (512 KB for CW) divided by [`STRUCT_SCALE`].
    pub fn subgraph_bytes(self) -> u64 {
        match self {
            DatasetId::ClueWeb => (512 << 10) / STRUCT_SCALE,
            _ => (256 << 10) / STRUCT_SCALE,
        }
    }

    /// Degree-distribution generator parameters for the stand-in graph.
    pub fn rmat_params(self) -> RmatParams {
        match self {
            DatasetId::Twitter | DatasetId::Friendster => RmatParams::graph500(),
            DatasetId::ClueWeb => RmatParams::web(),
            DatasetId::Rmat2B | DatasetId::Rmat8B => RmatParams::parmat_default(),
        }
    }

    /// Default number of walks at experiment scale: the paper sets 10⁹
    /// walks for CW and 4×10⁸ for the rest (§IV-B); divided by 500.
    pub fn default_walks(self) -> u64 {
        match self {
            DatasetId::ClueWeb => 1_000_000_000 / GRAPH_SCALE,
            _ => 400_000_000 / GRAPH_SCALE,
        }
    }
}

/// A generated dataset: the graph plus its identity.
pub struct Dataset {
    /// Which Table IV entry this stands in for.
    pub id: DatasetId,
    /// The graph.
    pub csr: Csr,
}

impl Dataset {
    /// Generate the scaled stand-in graph for `id` with `seed`.
    pub fn generate(id: DatasetId, seed: u64) -> Dataset {
        let (nv, ne) = id.scaled_size();
        let csr = generate_csr(id.rmat_params(), nv, ne, seed ^ hash_id(id));
        Dataset { id, csr }
    }

    /// Partition with the dataset's own block size and id width.
    pub fn partition(&self, subgraphs_per_partition: u32) -> PartitionedGraph {
        PartitionedGraph::build(
            &self.csr,
            PartitionConfig {
                subgraph_bytes: self.id.subgraph_bytes(),
                id_bytes: self.id.id_bytes(),
                subgraphs_per_partition,
            },
        )
    }

    /// Modeled CSR size in bytes (what Table IV calls "CSR Size", scaled).
    pub fn modeled_csr_bytes(&self) -> u64 {
        self.csr.modeled_bytes(self.id.id_bytes())
    }
}

fn hash_id(id: DatasetId) -> u64 {
    match id {
        DatasetId::Twitter => 0x7474,
        DatasetId::Friendster => 0x6673,
        DatasetId::ClueWeb => 0x6377,
        DatasetId::Rmat2B => 0x7232,
        DatasetId::Rmat8B => 0x7238,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_abbrev_inverts_abbrev_and_rejects_the_rest() {
        for id in DatasetId::ALL {
            assert_eq!(DatasetId::from_abbrev(id.abbrev()), Some(id));
        }
        assert_eq!(DatasetId::from_abbrev("tt"), None, "case-sensitive");
    }

    #[test]
    fn scaled_sizes_track_paper_ratios() {
        for id in DatasetId::ALL {
            let (pv, pe) = id.paper_size();
            let (sv, se) = id.scaled_size();
            let rv = pv as f64 / GRAPH_SCALE as f64 / sv as f64;
            let re = pe as f64 / GRAPH_SCALE as f64 / se as f64;
            assert!((0.95..1.05).contains(&rv), "{id:?} vertex scale off: {rv}");
            assert!((0.95..1.05).contains(&re), "{id:?} edge scale off: {re}");
        }
    }

    #[test]
    fn clueweb_uses_wide_ids_and_big_blocks() {
        assert_eq!(DatasetId::ClueWeb.id_bytes(), 8);
        assert_eq!(DatasetId::ClueWeb.subgraph_bytes(), 32 << 10);
        assert_eq!(DatasetId::Twitter.subgraph_bytes(), 16 << 10);
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let a = Dataset::generate(DatasetId::Twitter, 42);
        let b = Dataset::generate(DatasetId::Twitter, 42);
        assert_eq!(a.csr.num_vertices(), 83_200);
        assert_eq!(a.csr.num_edges(), b.csr.num_edges());
        // Different datasets differ even at the same seed.
        let c = Dataset::generate(DatasetId::Rmat2B, 42);
        assert_ne!(a.csr.num_edges(), c.csr.num_edges());
    }

    #[test]
    fn twitter_standin_has_dense_vertices_at_block_scale() {
        // The Twitter graph's famous property: some vertices exceed a
        // graph block (paper: 1.2 M out-edges, 19 blocks). The stand-in
        // must preserve "dense vertices exist".
        let d = Dataset::generate(DatasetId::Twitter, 1);
        let p = d.partition(64);
        assert!(
            !p.dense.is_empty(),
            "Twitter stand-in lost its dense vertices (max degree {})",
            d.csr.max_out_degree().1
        );
        // And they span multiple blocks.
        assert!(p.dense.iter().any(|m| m.num_blocks >= 2));
    }

    #[test]
    fn walk_counts_match_paper_scaled() {
        assert_eq!(DatasetId::ClueWeb.default_walks(), 2_000_000);
        assert_eq!(DatasetId::Twitter.default_walks(), 800_000);
    }
}
