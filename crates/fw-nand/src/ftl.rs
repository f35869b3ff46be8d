//! A page-mapped flash translation layer with greedy garbage collection.
//!
//! The FTL manages the *dynamic* region of the device — everything the
//! engines write at run time: spilled walk-buffer entries, foreigner
//! walks, completed walks. The graph itself is preconditioned into a
//! reserved static region by [`crate::layout::GraphLayout`] and never
//! remapped, mirroring how both the paper's FlashWalker and GraphWalker
//! treat the partitioned graph as a read-only input.
//!
//! Out-of-place updates work the usual way: a write allocates the next
//! free page from the plane cursor (round-robin across planes for write
//! striping), invalidates any previous mapping, and when a plane runs low
//! on free blocks a greedy collector migrates the fewest-valid-pages
//! victim and erases it. The FTL is purely *logical*: it returns the list
//! of physical operations ([`GcOp`]) and the [`crate::ssd::Ssd`] charges
//! their timing against the plane/channel resources.

use std::collections::HashMap;

use crate::address::{Geometry, Ppa};

/// A logical page number in the dynamic region.
pub type Lpn = u64;

/// A physical operation the device must perform on behalf of the FTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcOp {
    /// Copy a still-valid page out of a victim block (read + program).
    Migrate {
        /// Source physical page.
        from: Ppa,
        /// Destination physical page.
        to: Ppa,
    },
    /// Erase the now-empty victim block (any page address inside it).
    Erase {
        /// A PPA identifying the victim block (page field is zero).
        block: Ppa,
    },
}

/// Outcome of an FTL write.
#[derive(Debug, Clone)]
pub struct WriteOutcome {
    /// Where the new data lands.
    pub ppa: Ppa,
    /// Garbage-collection work the device must perform (possibly empty).
    pub gc: Vec<GcOp>,
}

/// Per-plane allocation head.
#[derive(Debug, Clone, Copy)]
struct PlaneHead {
    /// The block currently being filled and its next free page.
    open: Option<(u32, u32)>,
    /// Length of the plane's free list.
    free_len: u32,
}

/// Page-mapped FTL over the dynamic block region.
///
/// Per-plane state lives in flat arrays (a few allocations however many
/// planes the device has): block-indexed arrays are indexed
/// `plane * blocks_per_plane + block`, and plane `p`'s free list is
/// `free[p * stride..p * stride + free_len]`, front first, where `stride`
/// is the number of dynamic blocks per plane. The arrays are laid out on
/// the first write, so a device that never writes (a short walk batch)
/// never pays for them.
pub struct Ftl {
    geometry: Geometry,
    /// First block index (per plane) the FTL may use; blocks below this
    /// belong to the static graph region.
    first_block: u32,
    /// A threshold of >= 2 guarantees the collector always has at least
    /// one whole free block to migrate victims into.
    gc_threshold: u32,
    map: HashMap<Lpn, u64>,
    rmap: HashMap<u64, Lpn>,
    /// Empty until the first write.
    planes: Vec<PlaneHead>,
    /// Blocks with no valid data, ready to become open blocks.
    free: Vec<u32>,
    /// Valid-page count per block.
    valid: Vec<u16>,
    /// Erase count per block (wear).
    erases: Vec<u32>,
    cursor: usize,
    host_pages_written: u64,
    nand_pages_written: u64,
    gc_migrations: u64,
    gc_erases: u64,
}

impl Ftl {
    /// Build an FTL managing blocks `[first_block, blocks_per_plane)` of
    /// every plane.
    ///
    /// # Panics
    /// Panics if the dynamic region is empty or too small to collect
    /// (fewer than 2 blocks per plane).
    pub fn new(geometry: Geometry, first_block: u32, gc_threshold: u32) -> Self {
        assert!(
            first_block + 2 <= geometry.blocks_per_plane,
            "dynamic region needs >= 2 blocks per plane ({} of {})",
            first_block,
            geometry.blocks_per_plane
        );
        let mut ftl = Ftl {
            geometry,
            first_block,
            gc_threshold: gc_threshold.max(2),
            map: HashMap::new(),
            rmap: HashMap::new(),
            planes: Vec::new(),
            free: Vec::new(),
            valid: Vec::new(),
            erases: Vec::new(),
            cursor: 0,
            host_pages_written: 0,
            nand_pages_written: 0,
            gc_migrations: 0,
            gc_erases: 0,
        };
        ftl.reset();
        ftl
    }

    /// Unmap every page and forget all wear and counters: the FTL
    /// [`Self::new`] builds, keeping every allocation. The per-plane
    /// arrays are laid out again on the next write.
    pub fn reset(&mut self) {
        self.map.clear();
        self.rmap.clear();
        self.planes.clear();
        self.free.clear();
        self.valid.clear();
        self.erases.clear();
        self.cursor = 0;
        self.host_pages_written = 0;
        self.nand_pages_written = 0;
        self.gc_migrations = 0;
        self.gc_erases = 0;
    }

    /// Lay out the per-plane arrays: every block unwritten and unworn,
    /// every plane's free list all of its dynamic blocks, highest first.
    /// The arrays are empty here, so this refills whatever capacity they
    /// kept through [`Self::reset`].
    fn init_planes(&mut self) {
        let g = self.geometry;
        let planes = g.num_planes() as usize;
        let blocks = planes * g.blocks_per_plane as usize;
        let plane_free = (self.first_block..g.blocks_per_plane).rev();
        let head = PlaneHead {
            open: None,
            free_len: plane_free.len() as u32,
        };
        self.planes.resize(planes, head);
        self.free.reserve_exact(planes * plane_free.len());
        for _ in 0..planes {
            self.free.extend(plane_free.clone());
        }
        self.valid.resize(blocks, 0);
        self.erases.resize(blocks, 0);
    }

    /// Index of `(plane, block)` in the block-indexed arrays.
    fn block_at(&self, plane: usize, block: u32) -> usize {
        plane * self.geometry.blocks_per_plane as usize + block as usize
    }

    /// Block-array index of the block holding linear page `ppn`.
    fn block_of_ppn(&self, ppn: u64) -> usize {
        let ppa = Ppa::from_linear(&self.geometry, ppn);
        self.block_at(ppa.plane_index(&self.geometry), ppa.block)
    }

    /// Start of plane `plane`'s free list in `free`.
    fn free_base(&self, plane: usize) -> usize {
        plane * (self.geometry.blocks_per_plane - self.first_block) as usize
    }

    /// Plane `plane`'s free list, front first.
    fn free_list(&self, plane: usize) -> &[u32] {
        let base = self.free_base(plane);
        &self.free[base..base + self.planes[plane].free_len as usize]
    }

    /// Translate a logical page, if mapped.
    pub fn translate(&self, lpn: Lpn) -> Option<Ppa> {
        self.map
            .get(&lpn)
            .map(|&ppn| Ppa::from_linear(&self.geometry, ppn))
    }

    /// Write (or overwrite) a logical page. Returns the physical placement
    /// and any GC work that the write triggered.
    pub fn write(&mut self, lpn: Lpn) -> WriteOutcome {
        if self.planes.is_empty() {
            self.init_planes();
        }
        self.host_pages_written += 1;
        // Invalidate previous version.
        if let Some(old) = self.map.remove(&lpn) {
            self.rmap.remove(&old);
            let b = self.block_of_ppn(old);
            self.valid[b] -= 1;
        }

        let plane_idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.planes.len();

        let ppa = self.alloc_page(plane_idx);
        let ppn = ppa.to_linear(&self.geometry);
        self.map.insert(lpn, ppn);
        self.rmap.insert(ppn, lpn);
        self.nand_pages_written += 1;

        let gc = self.maybe_collect(plane_idx);
        WriteOutcome { ppa, gc }
    }

    /// Drop a logical page (e.g. spilled walks that have been read back
    /// and will never be needed again).
    pub fn trim(&mut self, lpn: Lpn) {
        if let Some(ppn) = self.map.remove(&lpn) {
            self.rmap.remove(&ppn);
            let b = self.block_of_ppn(ppn);
            self.valid[b] -= 1;
        }
    }

    /// `(host pages written, nand pages written incl. GC migrations)` —
    /// their ratio is the write amplification factor.
    pub fn write_amplification(&self) -> (u64, u64) {
        (self.host_pages_written, self.nand_pages_written)
    }

    /// Number of GC block erases so far.
    pub fn gc_erases(&self) -> u64 {
        self.gc_erases
    }

    /// Number of GC page migrations so far.
    pub fn gc_migrations(&self) -> u64 {
        self.gc_migrations
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Wear statistics over the dynamic region: `(min, max, mean)` erase
    /// counts per block. A wear-leveled device keeps max − min small.
    pub fn wear_stats(&self) -> (u32, u32, f64) {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut n = 0u64;
        for plane in 0..self.planes.len() {
            for b in self.first_block..self.geometry.blocks_per_plane {
                let e = self.erases[self.block_at(plane, b)];
                min = min.min(e);
                max = max.max(e);
                sum += e as u64;
                n += 1;
            }
        }
        if n == 0 {
            // Nothing written yet: no plane arrays, no wear.
            (0, 0, 0.0)
        } else {
            (min, max, sum as f64 / n as f64)
        }
    }

    fn plane_ppa(&self, plane_idx: usize, block: u32, page: u32) -> Ppa {
        let g = &self.geometry;
        let per_chip = g.planes_per_chip() as usize;
        let chip_global = plane_idx / per_chip;
        let within = (plane_idx % per_chip) as u32;
        Ppa {
            channel: (chip_global / g.chips_per_channel as usize) as u32,
            chip: (chip_global % g.chips_per_channel as usize) as u32,
            die: within / g.planes_per_die,
            plane: within % g.planes_per_die,
            block,
            page,
        }
    }

    fn alloc_page(&mut self, plane_idx: usize) -> Ppa {
        let g = self.geometry;
        let (block, page) = match self.planes[plane_idx].open {
            Some((b, p)) if p < g.pages_per_block => (b, p),
            _ => {
                // Wear-aware allocation: open the least-erased free block
                // so erase wear levels across the dynamic region.
                let (pos, _) = self
                    .free_list(plane_idx)
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &b)| {
                        (
                            self.erases[self.block_at(plane_idx, b)],
                            std::cmp::Reverse(i),
                        )
                    })
                    .expect("plane out of free blocks — GC threshold too low for workload");
                let base = self.free_base(plane_idx);
                let len = self.planes[plane_idx].free_len as usize;
                let b = self.free[base + pos];
                self.free
                    .copy_within(base + pos + 1..base + len, base + pos);
                self.planes[plane_idx].free_len -= 1;
                (b, 0)
            }
        };
        let next = page + 1;
        self.planes[plane_idx].open = if next < g.pages_per_block {
            Some((block, next))
        } else {
            None
        };
        let b = self.block_at(plane_idx, block);
        self.valid[b] += 1;
        self.plane_ppa(plane_idx, block, page)
    }

    fn maybe_collect(&mut self, plane_idx: usize) -> Vec<GcOp> {
        let mut ops = Vec::new();
        while self.planes[plane_idx].free_len < self.gc_threshold {
            match self.collect_one(plane_idx) {
                Some(mut o) => ops.append(&mut o),
                None => break,
            }
        }
        ops
    }

    /// Greedy victim selection: the closed block with the fewest valid
    /// pages in this plane. Returns `None` if no victim exists.
    fn collect_one(&mut self, plane_idx: usize) -> Option<Vec<GcOp>> {
        let g = self.geometry;
        let open_block = self.planes[plane_idx].open.map(|(b, _)| b);
        let victim = {
            let free = self.free_list(plane_idx);
            (self.first_block..g.blocks_per_plane)
                .filter(|&b| Some(b) != open_block && !free.contains(&b))
                .min_by_key(|&b| self.valid[self.block_at(plane_idx, b)])?
        };
        let vb = self.block_at(plane_idx, victim);
        // A victim full of valid pages cannot reclaim space; collecting it
        // would loop forever.
        if self.valid[vb] as u32 == g.pages_per_block {
            return None;
        }

        let mut ops = Vec::new();
        // Migrate every valid page of the victim.
        for page in 0..g.pages_per_block {
            let from = self.plane_ppa(plane_idx, victim, page);
            let from_ppn = from.to_linear(&g);
            let Some(&lpn) = self.rmap.get(&from_ppn) else {
                continue;
            };
            let to = self.alloc_page(plane_idx);
            let to_ppn = to.to_linear(&g);
            self.rmap.remove(&from_ppn);
            self.valid[vb] -= 1;
            self.map.insert(lpn, to_ppn);
            self.rmap.insert(to_ppn, lpn);
            self.nand_pages_written += 1;
            self.gc_migrations += 1;
            ops.push(GcOp::Migrate { from, to });
        }
        debug_assert_eq!(self.valid[vb], 0);
        ops.push(GcOp::Erase {
            block: self.plane_ppa(plane_idx, victim, 0),
        });
        // The victim goes to the front of the free list.
        let base = self.free_base(plane_idx);
        let len = self.planes[plane_idx].free_len as usize;
        self.free.copy_within(base..base + len, base + 1);
        self.free[base] = victim;
        self.planes[plane_idx].free_len += 1;
        self.erases[vb] += 1;
        self.gc_erases += 1;
        Some(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;

    fn ftl() -> Ftl {
        let cfg = SsdConfig::tiny();
        Ftl::new(cfg.geometry, 0, cfg.gc_threshold_blocks)
    }

    #[test]
    fn write_then_translate_roundtrips() {
        let mut f = ftl();
        let out = f.write(42);
        assert_eq!(f.translate(42), Some(out.ppa));
        assert_eq!(f.translate(43), None);
        assert_eq!(f.mapped_pages(), 1);
    }

    #[test]
    fn writes_stripe_across_planes() {
        let mut f = ftl();
        let a = f.write(0).ppa;
        let b = f.write(1).ppa;
        let g = SsdConfig::tiny().geometry;
        assert_ne!(a.plane_index(&g), b.plane_index(&g), "round-robin striping");
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let mut f = ftl();
        let first = f.write(7).ppa;
        let second = f.write(7).ppa;
        assert_ne!(first, second, "out-of-place update");
        assert_eq!(f.translate(7), Some(second));
        assert_eq!(f.mapped_pages(), 1);
    }

    #[test]
    fn trim_unmaps() {
        let mut f = ftl();
        f.write(9);
        f.trim(9);
        assert_eq!(f.translate(9), None);
        assert_eq!(f.mapped_pages(), 0);
        // Trimming an unmapped page is a no-op.
        f.trim(9);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_not_exhaustion() {
        let mut f = ftl();
        let g = SsdConfig::tiny().geometry;
        // Live set = 25% of capacity, overwritten 8 times over: forces GC.
        let live = g.num_pages() / 4;
        let mut gc_ops = 0usize;
        for round in 0..8 {
            for lpn in 0..live {
                let out = f.write(lpn);
                gc_ops += out.gc.len();
                let _ = round;
            }
        }
        assert!(f.gc_erases() > 0, "GC must have run");
        assert!(gc_ops > 0);
        let (host, nand) = f.write_amplification();
        assert_eq!(host, live * 8);
        assert!(nand >= host, "WA >= 1");
        // Every LPN still translates after collection.
        for lpn in 0..live {
            assert!(f.translate(lpn).is_some(), "lpn {lpn} lost by GC");
        }
    }

    #[test]
    fn gc_preserves_distinct_mappings() {
        let mut f = ftl();
        let g = SsdConfig::tiny().geometry;
        let live = g.num_pages() / 4;
        for _ in 0..6 {
            for lpn in 0..live {
                f.write(lpn);
            }
        }
        // All mapped PPAs must be distinct.
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..live {
            let ppa = f.translate(lpn).unwrap();
            assert!(seen.insert(ppa.to_linear(&g)), "duplicate ppa for {lpn}");
        }
    }

    #[test]
    fn wear_levels_across_blocks() {
        let mut f = ftl();
        let g = SsdConfig::tiny().geometry;
        // Hammer a small live set so GC erases repeatedly.
        let live = g.num_pages() / 8;
        for _ in 0..40 {
            for lpn in 0..live {
                f.write(lpn);
            }
        }
        let (min, max, mean) = f.wear_stats();
        assert!(f.gc_erases() > 0);
        assert!(mean > 0.0);
        // Wear-aware allocation keeps the spread bounded: no block should
        // carry more than ~3x the mean wear plus slack.
        assert!(
            (max as f64) < mean * 3.0 + 4.0,
            "wear spread too high: min {min} max {max} mean {mean:.1}"
        );
    }

    #[test]
    fn interleaved_trims_keep_mappings_coherent() {
        let mut f = ftl();
        let g = SsdConfig::tiny().geometry;
        let space = g.num_pages() / 2;
        // Alternating write/trim churn with a shifting window.
        for round in 0..12u64 {
            for i in 0..space / 2 {
                f.write((round * 37 + i) % space);
            }
            for i in 0..space / 4 {
                f.trim((round * 53 + i * 2) % space);
            }
        }
        // Every remaining mapping must resolve to a unique physical page.
        let mut seen = std::collections::HashSet::new();
        let mut found = 0;
        for lpn in 0..space {
            if let Some(ppa) = f.translate(lpn) {
                assert!(
                    seen.insert(ppa.to_linear(&g)),
                    "duplicate ppa for lpn {lpn}"
                );
                found += 1;
            }
        }
        assert_eq!(found, f.mapped_pages());
    }

    /// FNV-1a digest over a long seeded write/overwrite/trim mix that
    /// forces GC: every `WriteOutcome` (the PPA plus its `GcOp`s), sampled
    /// `translate` results, write amplification, erases and wear. Pins
    /// block allocation, victim choice and wear order op for op.
    fn churn_digest(first_block: u32, lpn_space: u64, ops: u32, seed: u64) -> u64 {
        let cfg = SsdConfig::tiny();
        let g = cfg.geometry;
        let mut f = Ftl::new(g, first_block, cfg.gc_threshold_blocks);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let put = |h: &mut u64, v: u64| {
            for b in v.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut state = seed;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let hot = lpn_space / 8;
        for i in 0..ops {
            let r = next();
            let lpn = next() % lpn_space;
            if r % 20 < 3 {
                f.trim(lpn);
                put(&mut h, 1);
            } else {
                // Seven in twenty writes overwrite a small hot set.
                let out = f.write(if r % 20 < 10 { lpn % hot } else { lpn });
                put(&mut h, out.ppa.to_linear(&g));
                for op in out.gc {
                    match op {
                        GcOp::Migrate { from, to } => {
                            put(&mut h, 2);
                            put(&mut h, from.to_linear(&g));
                            put(&mut h, to.to_linear(&g));
                        }
                        GcOp::Erase { block } => {
                            put(&mut h, 3);
                            put(&mut h, block.to_linear(&g));
                        }
                    }
                }
            }
            if i % 97 == 0 {
                for k in 0..8 {
                    let q = (lpn + k * 13) % lpn_space;
                    put(&mut h, f.translate(q).map_or(u64::MAX, |p| p.to_linear(&g)));
                }
            }
        }
        for lpn in 0..lpn_space {
            put(
                &mut h,
                f.translate(lpn).map_or(u64::MAX, |p| p.to_linear(&g)),
            );
        }
        let (host, nand) = f.write_amplification();
        let (min, max, mean) = f.wear_stats();
        assert!(f.gc_erases() > 100, "mix must force GC");
        for v in [
            host,
            nand,
            f.gc_erases(),
            f.gc_migrations(),
            f.mapped_pages() as u64,
        ] {
            put(&mut h, v);
        }
        for v in [min as u64, max as u64, mean.to_bits()] {
            put(&mut h, v);
        }
        h
    }

    #[test]
    fn churn_digest_is_pinned_op_for_op() {
        // Digests taken from the per-plane `Vec` FTL this file replaced;
        // the flat FTL must reproduce them exactly.
        let a = churn_digest(0, 448, 40_000, 42);
        let b = churn_digest(3, 256, 30_000, 7);
        assert_eq!(a, 0xa907_242c_b01b_0135, "{a:016x}");
        assert_eq!(b, 0x3bd6_acb7_1ba2_053b, "{b:016x}");
    }

    #[test]
    fn static_region_is_never_allocated() {
        let cfg = SsdConfig::tiny();
        let mut f = Ftl::new(cfg.geometry, 4, cfg.gc_threshold_blocks);
        for lpn in 0..64 {
            let out = f.write(lpn);
            assert!(
                out.ppa.block >= 4,
                "allocated into static region: {:?}",
                out.ppa
            );
            for op in out.gc {
                if let GcOp::Erase { block } = op {
                    assert!(block.block >= 4);
                }
            }
        }
    }
}
