//! Hardware lookup structures of the board-level accelerator: the walk
//! query cache, and the dense vertices mapping table (bloom filter + hash
//! table) that drives pre-walking.

use std::collections::HashMap;

use fw_graph::{DenseVertexMeta, PartitionedGraph, VertexId};

/// A small LRU cache of subgraph-mapping entries ("the walk query cache
/// that stores a very small [set of] frequently accessed subgraph mapping
/// entries", §III-D). One cache is shared by a group of four guiders.
///
/// Caching works because (a) binary searches repeatedly touch the top of
/// the search tree and (b) power-law graphs route many walks through a few
/// hot subgraphs — both give strong temporal locality on entries.
#[derive(Debug, Clone)]
pub struct WalkQueryCache {
    /// Entry bounds and payloads in parallel arrays (struct-of-arrays so
    /// the miss-dominated probe scan streams two dense `u32` slices the
    /// compiler can vectorize), unordered; recency lives in `ticks`.
    ///
    /// Subgraph vertex ranges are disjoint, so at most one entry can
    /// contain a probed vertex — scan order is irrelevant, which lets a
    /// hit bump a recency stamp instead of physically moving the entry
    /// to the front (the move-to-front variant memmoved ~capacity
    /// entries on every hit and install).
    lows: Vec<VertexId>,
    highs: Vec<VertexId>,
    sgs: Vec<u32>,
    /// Last-touch stamp per entry (parallel to the arrays); stamps are
    /// unique and monotone, so min-stamp is exactly the LRU entry.
    ticks: Vec<u64>,
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl WalkQueryCache {
    /// A cache holding `capacity` mapping entries. Its arrays are sized on
    /// the first install, so a cache that is never filled never allocates.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity query cache");
        WalkQueryCache {
            lows: Vec::new(),
            highs: Vec::new(),
            sgs: Vec::new(),
            ticks: Vec::new(),
            tick: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Probe the cache for the subgraph containing `v`.
    pub fn probe(&mut self, v: VertexId) -> Option<u32> {
        // Branchless single-match scan (no early exit) so the bound
        // checks vectorize; disjoint ranges guarantee at most one hit.
        let mut found = usize::MAX;
        for i in 0..self.lows.len() {
            if self.lows[i] <= v && v <= self.highs[i] {
                found = i;
            }
        }
        if found != usize::MAX {
            self.hits += 1;
            self.tick += 1;
            self.ticks[found] = self.tick;
            Some(self.sgs[found])
        } else {
            self.misses += 1;
            None
        }
    }

    /// Install an entry after a mapping-table lookup, evicting the
    /// least-recently-touched entry when full. (Duplicates are
    /// impossible: `install` only follows a `probe` miss, and the
    /// installed range contains the probed vertex.)
    pub fn install(&mut self, low: VertexId, high: VertexId, sg_id: u32) {
        self.tick += 1;
        if self.lows.len() == self.capacity {
            let lru = self
                .ticks
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            self.lows[lru] = low;
            self.highs[lru] = high;
            self.sgs[lru] = sg_id;
            self.ticks[lru] = self.tick;
        } else {
            if self.lows.is_empty() {
                self.lows.reserve_exact(self.capacity);
                self.highs.reserve_exact(self.capacity);
                self.sgs.reserve_exact(self.capacity);
                self.ticks.reserve_exact(self.capacity);
            }
            self.lows.push(low);
            self.highs.push(high);
            self.sgs.push(sg_id);
            self.ticks.push(self.tick);
        }
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A blocked bloom filter over dense vertex IDs. False positives are
/// harmless: "such a false positive response makes the hash table fail to
/// find the graph block list for this vertex. Hence, the proposed dense
/// vertices mapping can work correctly" (§III-D).
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    k: u32,
}

impl BloomFilter {
    /// A filter with ~`bits_pow2` bits (rounded up to a power of two) and
    /// `k` hash probes.
    pub fn new(min_bits: u64, k: u32) -> Self {
        let nbits = min_bits.next_power_of_two().max(64);
        BloomFilter {
            bits: vec![0; (nbits / 64) as usize],
            mask: nbits - 1,
            k: k.max(1),
        }
    }

    fn hash(v: VertexId, i: u32) -> u64 {
        // Two independent 64-bit mixes combined Kirsch–Mitzenmacher style.
        let mut x = (v as u64).wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        let h1 = x ^ (x >> 31);
        let mut y = (v as u64).wrapping_mul(0xD6E8FEB86659FD93) ^ 0xCA5A826395121157;
        y ^= y >> 32;
        h1.wrapping_add((i as u64).wrapping_mul(y | 1))
    }

    /// Set membership for `v`.
    pub fn insert(&mut self, v: VertexId) {
        for i in 0..self.k {
            let b = Self::hash(v, i) & self.mask;
            self.bits[(b / 64) as usize] |= 1 << (b % 64);
        }
    }

    /// Possibly-member test (no false negatives).
    pub fn contains(&self, v: VertexId) -> bool {
        (0..self.k).all(|i| {
            let b = Self::hash(v, i) & self.mask;
            self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
        })
    }
}

/// The dense vertices mapping table: bloom filter front, hash table back.
/// The guider consults it *before* the subgraph mapping table; the serial
/// lookup is cheap "due to the bloom filter and a smaller number of dense
/// vertices".
#[derive(Debug, Clone)]
pub struct DenseTable {
    bloom: BloomFilter,
    map: HashMap<VertexId, DenseVertexMeta>,
}

impl DenseTable {
    /// Build from the partitioner's dense metadata, sizing the bloom
    /// filter at ~16 bits per dense vertex (≈0.1% false-positive rate
    /// with 4 probes).
    pub fn build(pg: &PartitionedGraph) -> Self {
        let n = pg.dense.len().max(1) as u64;
        let mut bloom = BloomFilter::new(n * 16, 4);
        let mut map = HashMap::with_capacity(pg.dense.len());
        for m in &pg.dense {
            bloom.insert(m.vertex);
            map.insert(m.vertex, *m);
        }
        DenseTable { bloom, map }
    }

    /// Look up `v`. Returns the dense metadata if `v` is dense, `None`
    /// otherwise (including bloom false positives that miss the hash
    /// table).
    pub fn lookup(&self, v: VertexId) -> Option<DenseVertexMeta> {
        if !self.bloom.contains(v) {
            return None;
        }
        self.map.get(&v).copied()
    }

    /// Number of dense vertices stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the graph has no dense vertices.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_graph::partition::PartitionConfig;
    use fw_graph::Csr;

    #[test]
    fn cache_hits_after_install() {
        let mut c = WalkQueryCache::new(4);
        assert_eq!(c.probe(10), None);
        c.install(8, 15, 3);
        assert_eq!(c.probe(10), Some(3));
        assert_eq!(c.probe(15), Some(3));
        assert_eq!(c.probe(16), None);
        assert_eq!(c.stats(), (2, 2));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_evicts_lru() {
        let mut c = WalkQueryCache::new(2);
        c.install(0, 0, 0);
        c.install(1, 1, 1);
        assert_eq!(c.probe(0), Some(0)); // 0 becomes MRU
        c.install(2, 2, 2); // evicts 1
        assert_eq!(c.probe(1), None);
        assert_eq!(c.probe(0), Some(0));
        assert_eq!(c.probe(2), Some(2));
    }

    #[test]
    fn bloom_has_no_false_negatives_and_few_false_positives() {
        let mut b = BloomFilter::new(16 * 1000, 4);
        for v in 0..1000u32 {
            b.insert(v * 7);
        }
        for v in 0..1000u32 {
            assert!(b.contains(v * 7), "false negative at {v}");
        }
        let fps = (0..10_000u32)
            .map(|v| 100_000 + v)
            .filter(|&v| b.contains(v))
            .count();
        assert!(fps < 50, "false positive rate too high: {fps}/10000");
    }

    fn star_pg() -> PartitionedGraph {
        let mut e = vec![];
        for v in 1..300u32 {
            e.push((0, v));
            e.push((v, 0));
        }
        let g = Csr::from_edges(300, &e);
        PartitionedGraph::build(
            &g,
            PartitionConfig {
                subgraph_bytes: 128,
                id_bytes: 4,
                subgraphs_per_partition: 16,
            },
        )
    }

    #[test]
    fn dense_table_finds_only_dense_vertices() {
        let pg = star_pg();
        let t = DenseTable::build(&pg);
        assert_eq!(t.len(), pg.dense.len());
        let meta = t.lookup(0).expect("hub is dense");
        assert_eq!(meta.total_degree, 299);
        for v in 1..300u32 {
            assert!(t.lookup(v).is_none(), "vertex {v} is not dense");
        }
        // The bloom filter short-circuits almost every non-dense probe.
        let rejected = (1..300u32).filter(|&v| !t.bloom.contains(v)).count();
        assert!(rejected > 269, "bloom rejected only {rejected}/299");
    }

    #[test]
    fn dense_table_on_dense_free_graph() {
        let g = Csr::from_edges(8, &[(0, 1), (1, 2), (2, 3)]);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig {
                subgraph_bytes: 1024,
                id_bytes: 4,
                subgraphs_per_partition: 4,
            },
        );
        let t = DenseTable::build(&pg);
        assert!(t.is_empty());
        assert!(t.lookup(0).is_none());
    }
}
