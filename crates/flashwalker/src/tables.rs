//! The walk query cache of the board-level accelerator.
//!
//! The other board lookup structure, the dense vertices mapping table
//! (bloom filter + hash table, §III-D), needs no host model: a roving
//! walk carries its vertex's location code ([`fw_graph::PartitionedGraph::vloc`]),
//! whose dense bit is that table's answer, and the board charges the
//! table's probe as one guider operation.

/// A small LRU cache of subgraph-mapping entries ("the walk query cache
/// that stores a very small [set of] frequently accessed subgraph mapping
/// entries", §III-D). One cache is shared by a group of four guiders.
///
/// Caching works because (a) binary searches repeatedly touch the top of
/// the search tree and (b) power-law graphs route many walks through a few
/// hot subgraphs — both give strong temporal locality on entries.
///
/// Entries are keyed by subgraph id. A cached entry holds one subgraph's
/// vertex range, and those ranges are disjoint, so "the entry containing
/// `v`" is exactly "the entry of `v`'s subgraph": the hits, misses and
/// victims are those of a cache that compares `v` against each entry's
/// end vertices.
#[derive(Debug, Clone)]
pub struct WalkQueryCache {
    /// The cached entries' subgraph ids, most recently touched first: the
    /// last one is the LRU victim. Holds at most `capacity` ids.
    recency: Vec<u32>,
    capacity: usize,
}

impl WalkQueryCache {
    /// A cache holding `capacity` mapping entries. Its array is sized on
    /// the first install, so a cache that installs nothing never
    /// allocates.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity query cache");
        WalkQueryCache {
            recency: Vec::new(),
            capacity,
        }
    }

    /// Drop every entry, keeping the array's allocation.
    pub fn clear(&mut self) {
        self.recency.clear();
    }

    /// Probe the cache for subgraph `sg`'s entry; a hit makes it the most
    /// recently touched.
    pub fn probe(&mut self, sg: u32) -> bool {
        match self.recency.iter().position(|&s| s == sg) {
            Some(i) => {
                self.recency[..=i].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// Install `sg`'s entry after a mapping-table lookup, evicting the
    /// least recently touched entry when full; returns the evicted
    /// subgraph. (`install` only follows a `probe` miss, so `sg` is never
    /// cached already.)
    pub fn install(&mut self, sg: u32) -> Option<u32> {
        debug_assert!(!self.recency.contains(&sg), "subgraph {sg} cached twice");
        let victim = if self.recency.len() == self.capacity {
            self.recency.pop()
        } else {
            if self.recency.is_empty() {
                self.recency.reserve_exact(self.capacity);
            }
            None
        };
        self.recency.insert(0, sg);
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_graph::VertexId;
    use fw_sim::Xoshiro256pp;

    /// The range-keyed cache the subgraph-keyed one replaced: it compares
    /// a vertex against every entry's end vertices and keeps LRU order in
    /// per-entry recency stamps. Kept as the reference for
    /// [`subgraph_keyed_cache_matches_the_range_keyed_reference`].
    struct RangeKeyedCache {
        lows: Vec<VertexId>,
        highs: Vec<VertexId>,
        sgs: Vec<u32>,
        ticks: Vec<u64>,
        tick: u64,
        capacity: usize,
    }

    impl RangeKeyedCache {
        fn new(capacity: usize) -> Self {
            RangeKeyedCache {
                lows: Vec::new(),
                highs: Vec::new(),
                sgs: Vec::new(),
                ticks: Vec::new(),
                tick: 0,
                capacity,
            }
        }

        fn probe(&mut self, v: VertexId) -> Option<u32> {
            let i = (0..self.lows.len()).find(|&i| self.lows[i] <= v && v <= self.highs[i])?;
            self.tick += 1;
            self.ticks[i] = self.tick;
            Some(self.sgs[i])
        }

        fn install(&mut self, low: VertexId, high: VertexId, sg: u32) -> Option<u32> {
            self.tick += 1;
            if self.lows.len() < self.capacity {
                self.lows.push(low);
                self.highs.push(high);
                self.sgs.push(sg);
                self.ticks.push(self.tick);
                return None;
            }
            let lru = (0..self.ticks.len()).min_by_key(|&i| self.ticks[i])?;
            let victim = self.sgs[lru];
            (self.lows[lru], self.highs[lru], self.sgs[lru]) = (low, high, sg);
            self.ticks[lru] = self.tick;
            Some(victim)
        }
    }

    #[test]
    fn cache_hits_after_install() {
        let mut c = WalkQueryCache::new(4);
        assert!(!c.probe(3));
        assert_eq!(c.install(3), None);
        assert!(c.probe(3));
        assert!(!c.probe(4));
    }

    #[test]
    fn cache_evicts_lru() {
        let mut c = WalkQueryCache::new(2);
        c.install(0);
        c.install(1);
        assert!(c.probe(0)); // 0 becomes MRU
        assert_eq!(c.install(2), Some(1));
        assert!(!c.probe(1));
        assert!(c.probe(0));
        assert!(c.probe(2));
    }

    /// A seeded probe/install trace over subgraphs of uneven vertex
    /// ranges, skewed toward a few hot subgraphs as walks on a power-law
    /// graph are: both caches see the same hits, misses and victims.
    #[test]
    fn subgraph_keyed_cache_matches_the_range_keyed_reference() {
        let mut rng = Xoshiro256pp::new(0x9c);
        // Subgraph i covers vertices bounds[i]..bounds[i + 1].
        let mut bounds = vec![0u32];
        for _ in 0..300 {
            let last = *bounds.last().unwrap();
            bounds.push(last + 1 + rng.next_below(40) as u32);
        }
        let nv = *bounds.last().unwrap();
        let sg_of = |v: VertexId| (bounds.partition_point(|&b| b <= v) - 1) as u32;
        for capacity in [1, 2, 10, 170] {
            let mut cache = WalkQueryCache::new(capacity);
            let mut reference = RangeKeyedCache::new(capacity);
            let (mut hits, mut victims) = (0, 0);
            for step in 0..20_000 {
                let v = if rng.next_below(4) == 0 {
                    rng.next_below(nv as u64) as u32
                } else {
                    rng.next_below(bounds[16] as u64) as u32
                };
                let sg = sg_of(v);
                let hit = cache.probe(sg);
                assert_eq!(
                    reference.probe(v).is_some(),
                    hit,
                    "capacity {capacity}, step {step}"
                );
                if hit {
                    hits += 1;
                    continue;
                }
                let (low, high) = (bounds[sg as usize], bounds[sg as usize + 1] - 1);
                let victim = cache.install(sg);
                assert_eq!(
                    reference.install(low, high, sg),
                    victim,
                    "capacity {capacity}, step {step}"
                );
                victims += victim.is_some() as u32;
            }
            assert!(
                hits > 500 && victims > 500,
                "capacity {capacity}: {hits} hits, {victims} victims"
            );
        }
    }
}
