#![warn(missing_docs)]

//! `fw-graph` — the graph substrate: CSR storage, RMAT generation,
//! graph-block partitioning with dense-vertex splitting, the subgraph
//! mapping tables, and the five evaluation datasets.
//!
//! The paper's preprocessing pipeline (§III-D) divides a graph into
//! fixed-size *graph blocks*; each block holds one subgraph (a contiguous
//! vertex range in CSR form) except for *dense vertices*, whose out-edge
//! lists exceed one block and are split across several blocks (e.g. the
//! Twitter vertex with 1,213,787 out-edges spanning 19 blocks). Subgraphs
//! are located through the **subgraph mapping table** (binary-searchable,
//! sorted by low-end vertex), dense vertices through the **dense vertices
//! mapping table**, and channel-level accelerators use the coarse
//! **subgraph range mapping table** for approximate walk search.
//!
//! This crate owns the *data* side of all of those structures; the
//! hardware-timing side (query caches, bloom filter probes, search-cycle
//! accounting) lives in the `flashwalker` crate.

pub mod csr;
pub mod datasets;
pub mod io;
pub mod mapping;
pub mod partition;
pub mod rmat;

pub use csr::{Csr, VertexId};
pub use datasets::{Dataset, DatasetId};
pub use mapping::{RangeTable, SubgraphMappingTable};
pub use partition::{
    DenseVertexMeta, GraphBlocks, PartitionConfig, PartitionedGraph, Subgraph, DENSE_BIT,
};
pub use rmat::RmatParams;
