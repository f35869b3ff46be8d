//! Walk routing through the three-level hierarchy: chip update batches,
//! channel batches (hot subgraphs + approximate walk search), board
//! batches (destination resolution and delivery fan-out).

use std::sync::Arc;

use fw_dram::DramOp;
use fw_graph::DENSE_BIT;
use fw_sim::JourneyEventKind::{Complete, Hop, SampleStep};
use fw_sim::{Duration, SimTime, Xoshiro256pp};
use fw_walk::{WalkEvent, WALK_BYTES};

use super::events::Ev;
use super::state::{DeliveryBuckets, SgId, Slot, TWalk};
#[cfg(test)]
use super::step::hop_dense_slice;
use super::step::{guide_local, prewalk_slice};
use super::{page_walks, FlashWalkerSim};

impl FlashWalkerSim<'_> {
    // ------------------------------------------------------------------
    // Chip level
    // ------------------------------------------------------------------

    pub(super) fn try_start_chip(&mut self, chip: u32, now: SimTime) {
        if self.chips[chip as usize].busy || self.slots.queued_walks(chip) == 0 {
            return;
        }
        self.chips[chip as usize].busy = true;
        self.run_chip_batch(chip, now);
    }

    fn run_chip_batch(&mut self, chip: u32, now: SimTime) {
        let hops_before = self.stats.chip_hops;
        self.probe
            .gauge("chip.queue", now, || self.slots.queued_walks(chip));
        // Snapshot loaded subgraphs and drain their queues into the
        // reusable scratch buffers (batch bodies never nest, so taking
        // them is safe; both go back before this function returns).
        let mut work = std::mem::take(&mut self.scratch);
        let mut loaded = std::mem::take(&mut self.loaded_scratch);
        debug_assert!(work.is_empty() && loaded.is_empty());
        let cap = self.cfg.chip_batch_cap;
        for slot in self.slots.of_mut(chip) {
            if let Slot::Loaded { sg, queue, fresh } = slot {
                loaded.push(*sg);
                let take = queue.len().min(cap.saturating_sub(work.len()));
                if take > 0 {
                    work.extend(queue.drain(..take));
                    // A slot stays `fresh` (eviction-exempt) until it has
                    // actually contributed walks to a batch — its walk
                    // stream may still be in flight.
                    *fresh = false;
                }
            }
        }
        let mut batch = ChipBatch {
            chip,
            loaded,
            outbox: self.pools.take_walks(),
            upd_ops: 0,
            guid_ops: 0,
            completed: 0,
        };
        // The walk RNG for the whole batch (moved out of `self`; same
        // object, same draw order).
        let mut wrng = self.take_walk_rng();
        self.update_chip_walks(&mut batch, &work, &mut wrng);
        let ChipBatch {
            mut loaded,
            outbox,
            upd_ops,
            guid_ops,
            completed: completed_now,
            ..
        } = batch;
        work.clear();
        self.put_walk_rng(wrng);
        self.scratch = work;
        loaded.clear();
        self.loaded_scratch = loaded;

        // Completed-walk buffer: flush page-sized groups chip-locally.
        self.completed += completed_now;
        let pw = page_walks(&self.ssd);
        self.chips[chip as usize].completed_buf += completed_now;
        while self.chips[chip as usize].completed_buf >= pw {
            self.chips[chip as usize].completed_buf -= pw;
            let lpn = self.alloc_lpn();
            self.ssd.local_write_page(now, lpn);
            self.stats.completed_pages += 1;
        }
        if completed_now > 0 {
            self.progress.add(now, completed_now as f64);
        }

        let cyc = self.cfg.chip_cycle;
        let upd_time = cyc * upd_ops.div_ceil(self.cfg.chip_updaters as u64);
        let gui_time = cyc * guid_ops.div_ceil(self.cfg.chip_guiders as u64);
        let busy = upd_time.max(gui_time).max(cyc);
        self.stats.chip_busy_ns += busy.as_nanos();
        self.stats.chip_batches += 1;
        let batch_hops = self.stats.chip_hops - hops_before;
        if let Some(per_hop) = busy.as_nanos().checked_div(batch_hops) {
            self.probe.record("walk.step_ns", per_hop);
        }
        let id = self
            .events
            .schedule_at(now + busy, Ev::ChipBatchDone { chip, outbox });
        self.probe.work(id, "chip.batch", chip, now, now + busy);
    }

    /// Update every walk of `work` in `b`'s loaded subgraphs, drawing on
    /// `rng`, in one staged pass (DESIGN §9 "Staged chip batches"): every
    /// walk's edge range, then every walk's draws in walk order, then
    /// every next vertex, then every location code, then a walk-order
    /// commit. Which walk gets which draw depends only on the ranges, so
    /// the lookups of different walks overlap and every draw goes where
    /// the walk-at-a-time loop puts it. A walk that stays on the chip
    /// takes its later hops one by one from the RNG state after its first
    /// draws, and the stages restart at the walk after it, so their draws
    /// are made again.
    fn update_chip_walks(&mut self, b: &mut ChipBatch, work: &[TWalk], rng: &mut Xoshiro256pp) {
        let mut st = std::mem::take(&mut self.chip_stages);
        // Stage 1: every walk's edge range, its vertex's out-list or its
        // dense slice. No draw depends on a later stage's lookup.
        st.clear();
        st.extend(work.iter().map(|tw| {
            let v = tw.walk.cur;
            let (lo, len) = match self.pg.subgraphs[tw.tag as usize].dense {
                Some(slice) => {
                    debug_assert_eq!(slice.vertex, v, "walk {} not at its slice", tw.walk.id);
                    (slice.first_edge_in_vertex as u32, slice.num_edges as u32)
                }
                None => (0, self.csr.out_degree(v) as u32),
            };
            StagedHop {
                base: self.csr.edge_start(v) as u32,
                lo,
                len,
                ..StagedHop::default()
            }
        }));
        let mut i = 0;
        while i < work.len() {
            // Stage 2: every walk's draws, in walk order on the one walk
            // RNG.
            let drawn_from = rng.clone();
            for (tw, h) in work[i..].iter().zip(&mut st[i..]) {
                let (pick, ops) = self.wl.pick(self.csr, tw.walk.cur, h.edges(), rng);
                h.pick = pick.map(|e| e as u32);
                h.ops = ops;
            }
            // Stage 3: every next vertex.
            let edges = self.csr.edge_slice();
            for h in &mut st[i..] {
                h.next = h.pick.map(|e| edges[(h.base + e) as usize]);
            }
            // Stage 4: the location code of every walk that moves on.
            for (tw, h) in work[i..].iter().zip(&mut st[i..]) {
                if let Some(next) = h.next.filter(|_| tw.walk.hop > 1) {
                    h.code = self.pg.vloc(next);
                }
            }
            // Commit, in walk order.
            let start = i;
            i = work.len();
            for (j, (&tw, h)) in work.iter().zip(&st).enumerate().skip(start) {
                let mut tw = tw;
                self.probe.walk(tw.walk.id, SampleStep, b.chip);
                let hop = (WalkEvent::of_hop(tw.walk, h.next), h.ops);
                if self.commit_chip_hop(b, &mut tw, hop, h.code) {
                    // It stays on the chip: rewind the RNG to just after
                    // this walk's draws (replaying the stage's draws up to
                    // it) and finish it hop by hop. Local guiding never
                    // hits a dense vertex's code, so every later hop is in
                    // a regular subgraph.
                    *rng = drawn_from;
                    for (tw, h) in work[start..=j].iter().zip(&st[start..=j]) {
                        self.wl.pick(self.csr, tw.walk.cur, h.edges(), rng);
                    }
                    loop {
                        debug_assert!(!self.pg.subgraphs[tw.tag as usize].is_dense());
                        let hop = self.wl.step(self.csr, tw.walk, rng);
                        let code = match hop.0 {
                            WalkEvent::Moved(w) => self.pg.vloc(w.cur),
                            WalkEvent::Completed(_) => 0,
                        };
                        if !self.commit_chip_hop(b, &mut tw, hop, code) {
                            break;
                        }
                    }
                    i = j + 1;
                    break;
                }
            }
        }
        self.chip_stages = st;
    }

    /// Commit one chip hop of `tw`: count it, then complete the walk, or
    /// retag it with `code`, its new vertex's location code, and guide it.
    /// Returns whether the walk stays on the chip; a roving walk goes to
    /// the batch outbox.
    fn commit_chip_hop(
        &mut self,
        b: &mut ChipBatch,
        tw: &mut TWalk,
        (ev, ops): (WalkEvent, u32),
        code: u32,
    ) -> bool {
        b.upd_ops += ops as u64;
        self.stats.hops += 1;
        self.stats.chip_hops += 1;
        match ev {
            WalkEvent::Completed(w) => {
                b.completed += 1;
                self.probe.mark(w.id, Complete, b.chip);
                self.log_completed(w);
                false
            }
            WalkEvent::Moved(w) => {
                // The hop's one location lookup: the code is the next
                // subgraph when the walk stays on the chip (asynchronous
                // updating: keep hopping), and rides along to the channel
                // and board when it roves.
                let (local, gops) = guide_local(&b.loaded, code);
                b.guid_ops += gops as u64;
                tw.walk = w;
                tw.tag = code;
                if !local {
                    b.outbox.push(*tw);
                }
                local
            }
        }
    }

    /// Today's walk-at-a-time chip loop, kept as the reference the staged
    /// pass is tested against.
    #[cfg(test)]
    fn update_chip_walks_reference(
        &mut self,
        b: &mut ChipBatch,
        work: &[TWalk],
        rng: &mut Xoshiro256pp,
    ) {
        for &tw in work {
            let mut tw = tw;
            self.probe.walk(tw.walk.id, SampleStep, b.chip);
            loop {
                let sg = tw.tag;
                let (res, ops) = if self.pg.subgraphs[sg as usize].is_dense() {
                    hop_dense_slice(&self.wl, self.csr, self.pg, sg, tw.walk, rng)
                } else {
                    self.wl.step(self.csr, tw.walk, rng)
                };
                b.upd_ops += ops as u64;
                self.stats.hops += 1;
                self.stats.chip_hops += 1;
                match res {
                    WalkEvent::Completed(w) => {
                        b.completed += 1;
                        self.probe.mark(w.id, Complete, b.chip);
                        self.log_completed(w);
                        break;
                    }
                    WalkEvent::Moved(w) => {
                        let code = self.pg.vloc(w.cur);
                        let (local, gops) = guide_local(&b.loaded, code);
                        b.guid_ops += gops as u64;
                        tw.walk = w;
                        tw.tag = code;
                        if !local {
                            b.outbox.push(tw);
                            break;
                        }
                    }
                }
            }
        }
    }

    pub(super) fn on_chip_batch_done(&mut self, chip: u32, mut outbox: Vec<TWalk>, now: SimTime) {
        self.chips[chip as usize].busy = false;
        // "When a walk queue for a loaded subgraph becomes empty … the
        // subgraph scheduler is informed to decide a subgraph." We also
        // evict slots whose queue has dwindled below a small threshold:
        // a trickle of in-flight deliveries would otherwise pin a slot
        // forever and starve the chip's other subgraphs (convoying).
        // Stragglers return through the normal roving path, paying the
        // channel-bus cost of their trip back to the board.
        for slot in self.slots.of_mut(chip) {
            if let Slot::Loaded { queue, fresh, .. } = slot {
                if !*fresh && queue.len() < self.cfg.evict_below as usize {
                    for mut tw in queue.drain(..) {
                        tw.tag = self.pg.vloc(tw.walk.cur);
                        outbox.push(tw);
                    }
                    if let Slot::Loaded { queue, .. } = std::mem::replace(slot, Slot::Empty) {
                        self.pools.put_walks(queue);
                    }
                }
            }
        }
        // Roving walks (and evicted stragglers) cross the channel bus to
        // the channel accelerator.
        if !outbox.is_empty() {
            self.stats.roving += outbox.len() as u64;
            let ch = self.channel_of_chip(chip);
            let res = self
                .ssd
                .channel_transfer(now, ch, outbox.len() as u64 * WALK_BYTES);
            let ids = outbox.iter().map(|tw| tw.walk.id);
            self.probe.walks(ids, Hop, ch);
            let id = self
                .events
                .schedule_at(res.end, Ev::ChanArrive { ch, walks: outbox });
            self.probe.node(id, "chan.bus", ch, now, res.end);
        } else {
            self.pools.put_walks(outbox);
        }
        self.maybe_fill_chip(chip, now);
        self.try_start_chip(chip, now);
    }

    /// The load landed: the slot's walk set (PWB-fetched walks, then
    /// walks delivered during the load in arrival order) becomes its queue.
    pub(super) fn on_chip_loaded(&mut self, chip: u32, sg: SgId, now: SimTime) {
        for slot in self.slots.of_mut(chip) {
            if let Slot::Loading { sg: s, walks } = slot {
                if *s == sg {
                    let queue = std::mem::take(walks);
                    *slot = Slot::Loaded {
                        sg,
                        queue,
                        fresh: true,
                    };
                    break;
                }
            }
        }
        self.try_start_chip(chip, now);
    }

    pub(super) fn on_chip_deliver(&mut self, chip: u32, mut walks: Vec<TWalk>, now: SimTime) {
        for tw in walks.drain(..) {
            let sg = tw.tag;
            debug_assert!(
                self.tag_holds_walk(&tw) && self.chip_of_sg(sg) == chip,
                "walk {} delivered to chip {chip} with tag {sg}",
                tw.walk.id
            );
            // A walk for a still-loading subgraph waits in that slot and
            // joins its queue when the load lands.
            let slot_queue = self.slots.of_mut(chip).iter_mut().find_map(|s| match s {
                Slot::Loaded { sg: x, queue, .. }
                | Slot::Loading {
                    sg: x,
                    walks: queue,
                } if *x == sg => Some(queue),
                _ => None,
            });
            match slot_queue {
                Some(queue) => queue.push(tw),
                // Evicted while the walk was in flight: back to the
                // partition walk buffer.
                None => {
                    self.pwb_insert(tw, now, true);
                }
            }
        }
        self.pools.put_walks(walks);
        self.maybe_fill_chip(chip, now);
        self.try_start_chip(chip, now);
    }

    // ------------------------------------------------------------------
    // Channel level
    // ------------------------------------------------------------------

    pub(super) fn try_start_channel(&mut self, ch: u32, now: SimTime) {
        let c = &mut self.channels[ch as usize];
        if c.busy || c.inbox.is_empty() {
            return;
        }
        c.busy = true;
        self.run_channel_batch(ch, now);
    }

    fn run_channel_batch(&mut self, ch: u32, now: SimTime) {
        let depth = self.channels[ch as usize].inbox.len() as u64;
        self.probe.gauge("chan.queue", now, || depth);
        let mut inbox = std::mem::take(&mut self.scratch);
        debug_assert!(inbox.is_empty());
        let inbox_all = &mut self.channels[ch as usize].inbox;
        let take = inbox_all.len().min(self.cfg.chan_batch_cap);
        inbox.extend(inbox_all.drain(..take));
        // Hot sets are part of the read-only image; a shared handle lets
        // the batch borrow them alongside `&mut self`.
        let image = Arc::clone(&self.image);
        let hot = image.parts[self.current_partition as usize].chan_hot(ch);
        let mut guid_ops: u64 = 0;
        let mut upd_ops: u64 = 0;
        let mut to_board = self.pools.take_walks();
        let mut completed_now: u64 = 0;
        let mut wrng = self.take_walk_rng();

        for mut tw in inbox.drain(..) {
            debug_assert_eq!(tw.tag, self.pg.vloc(tw.walk.cur), "walk {}", tw.walk.id);
            self.probe.walk(tw.walk.id, SampleStep, ch);
            // Hot-subgraph updating at the channel (HS).
            let mut done = false;
            if self.cfg.opts.hot_subgraphs {
                loop {
                    let (hit, gops) = guide_local(hot, tw.tag);
                    guid_ops += gops as u64;
                    if !hit {
                        break;
                    }
                    let (res, ops) = self.wl.step(self.csr, tw.walk, &mut wrng);
                    upd_ops += ops as u64;
                    self.stats.hops += 1;
                    self.stats.chan_hops += 1;
                    match res {
                        WalkEvent::Completed(w) => {
                            completed_now += 1;
                            self.probe.mark(w.id, Complete, ch);
                            self.log_completed(w);
                            done = true;
                            break;
                        }
                        WalkEvent::Moved(w) => {
                            tw.walk = w;
                            tw.tag = self.pg.vloc(w.cur);
                        }
                    }
                }
            }
            if done {
                continue;
            }
            // Approximate walk search (WQ): charge the range-table search;
            // the board derives the walk's range from its code.
            if self.cfg.opts.walk_query {
                guid_ops += image.range_steps(self.pg, tw.tag) as u64;
            } else {
                guid_ops += 1;
            }
            to_board.push(tw);
        }
        self.put_walk_rng(wrng);
        self.scratch = inbox;

        self.completed += completed_now;
        self.board.completed_buf += completed_now;
        if completed_now > 0 {
            self.progress.add(now, completed_now as f64);
        }

        let cyc = self.cfg.chan_cycle;
        let busy = (cyc * guid_ops.div_ceil(self.cfg.chan_guiders as u64))
            .max(cyc * upd_ops.div_ceil(self.cfg.chan_updaters as u64))
            .max(cyc);
        self.stats.chan_busy_ns += busy.as_nanos();
        self.stats.chan_batches += 1;
        let id = self
            .events
            .schedule_at(now + busy, Ev::ChanBatchDone { ch, to_board });
        self.probe.work(id, "chan.batch", ch, now, now + busy);
    }

    pub(super) fn on_chan_batch_done(&mut self, ch: u32, mut to_board: Vec<TWalk>, now: SimTime) {
        self.channels[ch as usize].busy = false;
        // Channel→board traffic is controller-internal (the board fetches
        // roving walks from channel accelerators over the controller
        // interconnect, not the ONFI bus).
        let any = !to_board.is_empty();
        self.board.inbox.extend(to_board.drain(..));
        self.pools.put_walks(to_board);
        if any {
            self.try_start_board(now);
        }
        self.try_start_channel(ch, now);
    }

    // ------------------------------------------------------------------
    // Board level
    // ------------------------------------------------------------------

    pub(super) fn try_start_board(&mut self, now: SimTime) {
        if self.board.busy || self.board.inbox.is_empty() {
            return;
        }
        self.board.busy = true;
        self.run_board_batch(now);
    }

    /// Resolve a walk's destination with the timed structures, drawing
    /// any dense-slice pre-walk from `rng` (the caller's walk RNG). The
    /// walk's tag holds its location code. A `narrowed` mapping-table
    /// search covers the range the channel's approximate walk search
    /// found; otherwise the current partition's window. Returns
    /// `(dest, guider_ops, map_probes)`; `None` dest means foreigner.
    pub(super) fn resolve_dest(
        &mut self,
        tw: &TWalk,
        narrowed: bool,
        cache_idx: usize,
        rng: &mut fw_sim::Xoshiro256pp,
    ) -> (Option<SgId>, u64, u64) {
        let code = tw.tag;
        // Dense vertices mapping table first (§III-D): one guider op for
        // its probe, which the code's dense bit answers.
        let mut gops: u64 = 1;
        if code & DENSE_BIT != 0 {
            let meta = &self.pg.dense[(code & !DENSE_BIT) as usize];
            let (sg, ops) = prewalk_slice(meta, self.pg.config.dense_slice_edges(), rng);
            gops += ops as u64;
            let dest = (self.pg.partition_of(sg) == self.current_partition).then_some(sg);
            return (dest, gops, 0);
        }
        let sg = code;
        let image = &*self.image;
        if !self.cfg.opts.walk_query {
            let (hit, steps) = image.map_search(tw.walk.cur, sg, self.current_partition, false);
            let steps = steps as u64;
            return (hit.then_some(sg), gops + steps, steps);
        }
        // Walk query cache probe. A hit may name a subgraph of another
        // partition (cached entries are graph-wide) — such walks are
        // foreigners.
        gops += 1;
        if self.caches[cache_idx].probe(sg) {
            self.stats.cache_hits += 1;
            let dest = (self.pg.partition_of(sg) == self.current_partition).then_some(sg);
            return (dest, gops, 0);
        }
        self.stats.cache_misses += 1;
        let (hit, steps) = image.map_search(tw.walk.cur, sg, self.current_partition, narrowed);
        // "A binary search always touches common nodes in the upper
        // level of the binary search tree, and therefore these nodes
        // exhibit strong temporal locality" (§III-D): the top
        // ~log2(cache entries) tree levels stay cached, so only the
        // deeper probes hit the mapping-table SRAM.
        let tree_levels = (self.cfg.query_cache_entries() as u64 + 1).ilog2() as u64;
        let charged = (steps as u64).saturating_sub(tree_levels).max(1);
        if hit {
            self.caches[cache_idx].install(sg);
        }
        (hit.then_some(sg), gops + charged, charged)
    }

    fn run_board_batch(&mut self, now: SimTime) {
        let depth = self.board.inbox.len() as u64;
        self.probe.gauge("board.queue", now, || depth);
        let mut inbox = std::mem::take(&mut self.scratch);
        debug_assert!(inbox.is_empty());
        let take = self.board.inbox.len().min(self.cfg.board_batch_cap);
        inbox.extend(self.board.inbox.drain(..take));
        // Shared image handle, as in run_channel_batch.
        let image = Arc::clone(&self.image);
        let part = &image.parts[self.current_partition as usize];
        let mut guid_ops: u64 = 0;
        let mut upd_ops: u64 = 0;
        let mut map_probes: u64 = 0;
        let mut dram_write_bytes: u64 = 0;
        let mut deliveries = DeliveryBuckets {
            buckets: self.pools.take_deliveries(),
        };
        let mut dirty_chips = self.pools.take_chip_ids();
        let mut dirty_mask: u128 = 0;
        let mut completed_now: u64 = 0;
        let mut wrng = self.take_walk_rng();

        for (walk_i, mut tw) in inbox.drain(..).enumerate() {
            debug_assert_eq!(tw.tag, self.pg.vloc(tw.walk.cur), "walk {}", tw.walk.id);
            self.probe.walk(tw.walk.id, SampleStep, u32::MAX);
            // Walk query caches are shared: each group of four guiders
            // owns one; batches stripe walks across groups.
            let cache_idx = walk_i % self.caches.len();
            // With WQ on, every walk arrives with its range searched.
            let mut narrowed = self.cfg.opts.walk_query;
            let route = loop {
                let (dest, gops, probes) = self.resolve_dest(&tw, narrowed, cache_idx, &mut wrng);
                guid_ops += gops;
                map_probes += probes;
                self.stats.map_probes += probes;
                match dest {
                    None => break None, // foreigner
                    Some(sg) => {
                        // Board-hot updating (HS). The hot set holds no
                        // dense slice.
                        if self.cfg.opts.hot_subgraphs && part.is_board_hot(sg) {
                            let (res, ops) = self.wl.step(self.csr, tw.walk, &mut wrng);
                            upd_ops += ops as u64;
                            self.stats.hops += 1;
                            self.stats.board_hops += 1;
                            match res {
                                WalkEvent::Completed(w) => {
                                    completed_now += 1;
                                    self.probe.mark(w.id, Complete, u32::MAX);
                                    self.log_completed(w);
                                    break Some(None); // consumed
                                }
                                WalkEvent::Moved(w) => {
                                    tw.walk = w;
                                    tw.tag = self.pg.vloc(w.cur);
                                    narrowed = false;
                                    continue; // re-resolve
                                }
                            }
                        }
                        break Some(Some(sg));
                    }
                }
            };
            match route {
                Some(None) => {} // completed in board-hot loop
                Some(Some(sg)) => {
                    tw.tag = sg;
                    let chip = self.chip_of_sg(sg);
                    if self.slots.slot_of(chip, sg).is_some() {
                        // Deliver straight to the loaded slot.
                        self.stats.deliveries += 1;
                        deliveries.push_pooled(chip, tw, &mut self.pools);
                    } else {
                        dram_write_bytes += self.pwb_insert(tw, now, true);
                        mark_dirty(&mut dirty_mask, &mut dirty_chips, chip);
                    }
                }
                None => {
                    // Foreigner: resolve the true destination for storage
                    // (untimed — the walk is simply parked) and buffer it.
                    tw.tag = Self::dest_of(self.pg, tw.tag, &mut wrng);
                    self.board.foreigner_buf.push(tw);
                }
            }
        }
        self.put_walk_rng(wrng);
        self.scratch = inbox;

        // Flush foreigner pages if the buffer overflowed.
        let pw = page_walks(&self.ssd) as usize;
        while self.board.foreigner_buf.len() >= pw {
            let rest = self.board.foreigner_buf.split_off(pw);
            let page_walks_vec = std::mem::replace(&mut self.board.foreigner_buf, rest);
            self.flush_foreign_page(page_walks_vec, now, true);
        }
        // Flush completed pages.
        self.completed += completed_now;
        if completed_now > 0 {
            self.progress.add(now, completed_now as f64);
        }
        self.board.completed_buf += completed_now;
        while self.board.completed_buf >= pw as u64 {
            self.board.completed_buf -= pw as u64;
            let lpn = self.alloc_lpn();
            self.ssd.ftl_write_page(now, lpn);
            self.stats.completed_pages += 1;
        }

        // Timing: guiders, updaters, mapping-table ports, DRAM.
        let cyc = self.cfg.board_cycle;
        let gui = cyc * guid_ops.div_ceil(self.cfg.board_guiders as u64);
        let upd = cyc * upd_ops.div_ceil(self.cfg.board_updaters as u64);
        let map = cyc * map_probes.div_ceil(self.cfg.mapping_table_ports as u64);
        let dram = if dram_write_bytes > 0 {
            let d = self
                .dram
                .access(now, 0, dram_write_bytes as u32, DramOp::Write);
            d.done - now
        } else {
            Duration::ZERO
        };
        let busy = gui.max(upd).max(map).max(dram).max(cyc);
        self.stats.board_busy_ns += busy.as_nanos();
        self.stats.board_batches += 1;
        self.stats.board_dram_ns += dram.as_nanos();
        self.stats.board_map_ns += map.as_nanos();
        let done = Ev::BoardBatchDone {
            deliveries: deliveries.buckets,
            dirty_chips,
        };
        let id = self.events.schedule_at(now + busy, done);
        self.probe.work(id, "board.batch", 0, now, now + busy);
    }

    pub(super) fn on_board_batch_done(
        &mut self,
        mut deliveries: Vec<(u32, Vec<TWalk>)>,
        mut dirty_chips: Vec<u32>,
        now: SimTime,
    ) {
        self.board.busy = false;
        for (chip, walks) in deliveries.drain(..) {
            let ch = self.channel_of_chip(chip);
            let res = self
                .ssd
                .channel_transfer(now, ch, walks.len() as u64 * WALK_BYTES);
            let ids = walks.iter().map(|tw| tw.walk.id);
            self.probe.walks(ids, Hop, ch);
            let id = self
                .events
                .schedule_at(res.end, Ev::ChipDeliver { chip, walks });
            self.probe.node(id, "chan.bus", ch, now, res.end);
        }
        self.pools.put_deliveries(deliveries);
        for chip in dirty_chips.drain(..) {
            self.maybe_fill_chip(chip, now);
        }
        self.pools.put_chip_ids(dirty_chips);
        self.try_start_board(now);
    }
}

/// A chip batch in progress: the chip, its loaded subgraphs, the walks
/// roving off it, and the batch's op and completion counts.
struct ChipBatch {
    chip: u32,
    loaded: Vec<SgId>,
    outbox: Vec<TWalk>,
    upd_ops: u64,
    guid_ops: u64,
    completed: u64,
}

/// One walk's hop through the stages of a chip batch. The engine keeps
/// one reusable vector of them, as it keeps `scratch`.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct StagedHop {
    /// Flat index of the first edge of the walk's vertex.
    base: u32,
    /// The walk's edge range in its vertex's out-list: `lo..lo + len`.
    lo: u32,
    len: u32,
    /// The picked index in the out-list (`None`: the walk ends here) and
    /// the updater op count of the draws.
    pick: Option<u32>,
    ops: u32,
    /// The picked vertex, and its location code when the walk moves on.
    next: Option<u32>,
    code: u32,
}

impl StagedHop {
    /// The walk's edge range in its vertex's out-list.
    fn edges(&self) -> std::ops::Range<usize> {
        self.lo as usize..(self.lo + self.len) as usize
    }
}

/// Record `chip` as dirty, deduplicating while preserving first-touch
/// push order (which fixes the later `maybe_fill_chip` call order).
/// Chips below 128 use the bitmask fast path; larger ids — possible on
/// scaled-up geometries — fall back to a linear membership scan of the
/// (short) dirty list.
pub(super) fn mark_dirty(dirty_mask: &mut u128, dirty_chips: &mut Vec<u32>, chip: u32) {
    let seen = if (chip as usize) < 128 {
        let bit = 1u128 << chip;
        let s = *dirty_mask & bit != 0;
        *dirty_mask |= bit;
        s
    } else {
        dirty_chips.contains(&chip)
    };
    if !seen {
        dirty_chips.push(chip);
    }
}

#[cfg(test)]
mod tests {
    use super::super::state::{SgId, Slot, TWalk};
    use super::super::step::prewalk_slice;
    use super::super::FlashWalkerSim;
    use super::ChipBatch;
    use crate::config::AccelConfig;
    use fw_graph::partition::PartitionConfig;
    use fw_graph::rmat::{generate_csr, RmatParams};
    use fw_graph::{Csr, PartitionedGraph};
    use fw_nand::SsdConfig;
    use fw_sim::{SimTime, Xoshiro256pp};
    use fw_walk::{Walk, Workload};

    fn multi_partition_setup() -> (Csr, PartitionedGraph) {
        let csr = generate_csr(RmatParams::graph500(), 2000, 20_000, 11);
        let pg = PartitionedGraph::build(
            &csr,
            PartitionConfig {
                subgraph_bytes: 4 << 10,
                id_bytes: 4,
                subgraphs_per_partition: 8,
            },
        );
        (csr, pg)
    }

    /// A roving walk at `v`, tagged with its location code.
    fn roving(pg: &PartitionedGraph, v: u32) -> TWalk {
        TWalk {
            walk: Walk::new(v, 6),
            tag: pg.vloc(v),
        }
    }

    /// A regular (non-dense) vertex whose subgraph is in partition `p`.
    fn regular_vertex_in(csr: &Csr, pg: &PartitionedGraph, p: u32) -> u32 {
        (0..csr.num_vertices())
            .find(|&v| {
                pg.regular_owner(v)
                    .is_some_and(|sg| pg.partition_of(sg) == p)
            })
            .unwrap_or_else(|| panic!("a regular vertex in partition {p}"))
    }

    /// A walk bound for `sg`, tagged with `id` so queue order is visible.
    fn bound_for(pg: &PartitionedGraph, sg: u32, id: u32) -> TWalk {
        let mut walk = Walk::new(pg.subgraphs[sg as usize].low, 6);
        walk.id = id;
        TWalk { walk, tag: sg }
    }

    /// The staged chip pass and the walk-at-a-time reference, run on the
    /// same batches from the same RNG, leave the same outbox (order and
    /// tags), walk log, op counts, hop counters and RNG state. The graph
    /// has dense vertices and dead ends; the batches mix walks at dense
    /// slices, walks at dead ends, walks on their last hop and walks
    /// that stay on the chip for several hops (every other subgraph, or
    /// all of them, loaded), under DeepWalk, PPR and a weighted walk.
    #[test]
    fn staged_chip_pass_matches_the_walk_at_a_time_loop() {
        let csr = generate_csr(RmatParams::graph500(), 2000, 20_000, 11).with_random_weights(3);
        let pg = PartitionedGraph::build(
            &csr,
            PartitionConfig {
                subgraph_bytes: 1 << 10,
                id_bytes: 4,
                subgraphs_per_partition: 16,
            },
        );
        assert!(pg.num_partitions() > 1);
        assert!(pg.dense.iter().any(|m| m.num_blocks > 1));
        let dead_ends = (0..csr.num_vertices())
            .filter(|&v| csr.out_degree(v) == 0)
            .count();
        assert!(dead_ends > 0);
        // Every fifth walk starts at a dense vertex, the others at vertex
        // `i * 7 mod |V|`, with 1 to 6 hops left, tagged with their
        // destination: the owning subgraph, or one of the dense vertex's
        // slices.
        let work: Vec<TWalk> = (0..640u32)
            .map(|i| {
                let v = match i % 5 {
                    0 => pg.dense[(i / 5) as usize % pg.dense.len()].vertex,
                    _ => i * 7 % csr.num_vertices(),
                };
                let mut walk = Walk::new(v, 1 + (i % 6) as u16);
                walk.id = i;
                let tag = match pg.find_dense(v) {
                    Some(m) => m.first_subgraph + i % m.num_blocks,
                    None => pg.vloc(v),
                };
                TWalk { walk, tag }
            })
            .collect();
        let at_dense = work
            .iter()
            .filter(|tw| pg.subgraphs[tw.tag as usize].is_dense())
            .count();
        let at_dead_end = work
            .iter()
            .filter(|tw| csr.out_degree(tw.walk.cur) == 0)
            .count();
        assert!(
            at_dense > 10 && at_dead_end > 10,
            "{at_dense} dense, {at_dead_end} dead ends"
        );
        let workloads = [
            Workload::deepwalk(640, 6),
            Workload::ppr(640, 0, 0.15, 6),
            Workload::node2vec_biased(640, 6),
        ];
        let every_other: Vec<SgId> = (0..pg.num_subgraphs()).step_by(2).collect();
        let all: Vec<SgId> = (0..pg.num_subgraphs()).collect();
        let mut max_chip_hops = 0;
        for wl in workloads {
            for loaded in [&every_other, &all] {
                // Batches of up to 64 walks, as `chip_batch_cap` cuts them.
                let run = |staged: bool| {
                    let mut sim =
                        FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1)
                            .with_walk_log();
                    sim.wl = wl;
                    let mut rng = Xoshiro256pp::new(7);
                    let mut out = Vec::new();
                    for chunk in work.chunks(64) {
                        let mut b = ChipBatch {
                            chip: 0,
                            loaded: loaded.clone(),
                            outbox: Vec::new(),
                            upd_ops: 0,
                            guid_ops: 0,
                            completed: 0,
                        };
                        if staged {
                            sim.update_chip_walks(&mut b, chunk, &mut rng);
                        } else {
                            sim.update_chip_walks_reference(&mut b, chunk, &mut rng);
                        }
                        let outbox: Vec<_> = b.outbox.iter().map(|tw| (tw.walk, tw.tag)).collect();
                        out.push((outbox, b.upd_ops, b.guid_ops, b.completed));
                    }
                    let counters = (sim.stats.hops, sim.stats.chip_hops);
                    (out, sim.walk_log.take().unwrap(), counters, rng)
                };
                let (want, want_log, want_hops, want_rng) = run(false);
                let (got, got_log, got_hops, got_rng) = run(true);
                let case = format!("{:?} / {} loaded", wl, loaded.len());
                assert_eq!(got, want, "{case}");
                assert_eq!(got_log, want_log, "{case}");
                assert_eq!(got_hops, want_hops, "{case}");
                assert_eq!(got_rng, want_rng, "{case}");
                // Some walk took three hops or more: it stayed on the chip
                // twice before it roved or finished.
                let roved_after = want
                    .iter()
                    .flat_map(|(outbox, ..)| outbox)
                    .map(|(w, _)| work[w.id as usize].walk.hop - w.hop)
                    .max()
                    .unwrap_or(0);
                max_chip_hops = max_chip_hops.max(roved_after);
                assert!(!want_log.is_empty(), "{case}");
            }
        }
        assert!(max_chip_hops >= 3, "no walk stayed on the chip twice");
    }

    #[test]
    fn deliveries_to_a_loading_slot_wait_in_it_until_the_load_lands() {
        let (csr, pg) = multi_partition_setup();
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        let sg = pg.partition_range(0).next().unwrap();
        let chip = sim.chip_of_sg(sg);
        let other = pg
            .partition_range(0)
            .find(|&o| o != sg && sim.chip_of_sg(o) == chip)
            .expect("a second subgraph of partition 0 on the same chip");
        let fetched = sim.cfg.min_load_walks as u32;
        for id in 0..fetched {
            sim.pwb_insert(bound_for(&pg, sg, id), SimTime::ZERO, false);
        }
        sim.maybe_fill_chip(chip, SimTime::ZERO);
        assert_eq!(sim.stats.sg_loads, 1);
        let pending = sim.events.len();

        // Mid-load deliveries park in the slot: no event, nothing queued.
        let parked = [900, 901, 902];
        let walks = parked.iter().map(|&id| bound_for(&pg, sg, id)).collect();
        sim.on_chip_deliver(chip, walks, SimTime(1_000));
        assert_eq!(sim.events.len(), pending, "a parked walk schedules nothing");
        assert_eq!(sim.slots.queued_walks(chip), 0);

        // A walk whose subgraph is neither loading nor loaded goes back to
        // the partition walk buffer.
        sim.on_chip_deliver(chip, vec![bound_for(&pg, other, 950)], SimTime(1_000));
        let idx = sim.pwb.index_of(other).unwrap();
        assert_eq!(sim.pwb.entries[idx].total_walks(), 1);

        // The load lands: PWB-fetched walks first, then the parked ones in
        // arrival order. A busy chip keeps the queue from being drained.
        sim.chips[chip as usize].busy = true;
        sim.on_chip_loaded(chip, sg, SimTime(2_000));
        let slot = sim.slots.slot_of(chip, sg).expect("loaded");
        let Slot::Loaded { queue, .. } = &sim.slots.of(chip)[slot] else {
            unreachable!("slot_of only finds loaded slots");
        };
        let ids: Vec<u32> = queue.iter().map(|tw| tw.walk.id).collect();
        let want: Vec<u32> = (0..fetched).chain(parked).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn board_batches_take_walks_in_arrival_order() {
        // 2.5 batches' worth of walks for one subgraph, queued with known
        // ids: each batch routes the oldest walks first, so the PWB entry
        // (spill pages, then DRAM) holds them in arrival order.
        let (csr, pg) = multi_partition_setup();
        let mut cfg = AccelConfig::scaled();
        cfg.opts = crate::OptToggles::none();
        let mut sim = FlashWalkerSim::new(&csr, &pg, cfg, SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        let sg = pg
            .partition_range(0)
            .find(|&sg| pg.find_dense(pg.subgraphs[sg as usize].low).is_none())
            .expect("a regular subgraph in partition 0");
        let cap = sim.cfg.board_batch_cap;
        let n = cap as u32 * 5 / 2;
        for id in 0..n {
            // A regular subgraph's id is its vertices' location code.
            sim.board.inbox.push_back(bound_for(&pg, sg, id));
        }
        let mut batches = 0;
        while !sim.board.inbox.is_empty() {
            let left = sim.board.inbox.len();
            let front = sim.board.inbox.front().unwrap().walk.id;
            assert_eq!(front as usize, n as usize - left, "batch {batches}");
            sim.board.busy = false;
            sim.try_start_board(SimTime::ZERO);
            assert_eq!(sim.board.inbox.len(), left - left.min(cap));
            batches += 1;
        }
        assert_eq!(batches, 3);
        let entry = &sim.pwb.entries[sim.pwb.index_of(sg).unwrap()];
        let ids: Vec<u32> = entry
            .spilled
            .iter()
            .flat_map(|p| &p.walks)
            .chain(&entry.walks)
            .map(|tw| tw.walk.id)
            .collect();
        assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_dest_finds_current_partition_subgraph() {
        let (csr, pg) = multi_partition_setup();
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        let v = regular_vertex_in(&csr, &pg, 0);
        let sg = pg.subgraph_of(v).unwrap();
        for narrowed in [true, false] {
            sim.caches[0] = crate::WalkQueryCache::new(sim.cfg.query_cache_entries());
            let (dest, gops, probes) =
                sim.resolve_dest(&roving(&pg, v), narrowed, 0, &mut Xoshiro256pp::new(1));
            assert_eq!(dest, Some(sg), "narrowed {narrowed}");
            assert!(probes >= 1, "a cache miss searches the mapping table");
            assert_eq!(gops, 2 + probes, "dense probe + cache probe + search");
        }
    }

    #[test]
    fn resolve_dest_marks_other_partition_as_foreigner() {
        let (csr, pg) = multi_partition_setup();
        assert!(pg.num_partitions() > 1);
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        let v = regular_vertex_in(&csr, &pg, 1);
        for narrowed in [true, false] {
            let (dest, _gops, _probes) =
                sim.resolve_dest(&roving(&pg, v), narrowed, 0, &mut Xoshiro256pp::new(1));
            assert_eq!(dest, None, "foreigner for vertex {v}, narrowed {narrowed}");
        }
        assert_eq!(
            sim.stats.cache_hits, 0,
            "a foreigner's miss installs nothing"
        );
    }

    #[test]
    fn query_cache_hit_skips_map_probes() {
        let (csr, pg) = multi_partition_setup();
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        let v = regular_vertex_in(&csr, &pg, 0);
        let mut rng = Xoshiro256pp::new(1);
        let (_, _, probes_miss) = sim.resolve_dest(&roving(&pg, v), true, 0, &mut rng);
        assert_eq!((sim.stats.cache_hits, sim.stats.cache_misses), (0, 1));
        let (dest, gops, probes_hit) = sim.resolve_dest(&roving(&pg, v), true, 0, &mut rng);
        assert_eq!(dest, Some(pg.subgraph_of(v).unwrap()));
        assert_eq!((sim.stats.cache_hits, sim.stats.cache_misses), (1, 1));
        assert!(probes_miss >= 1);
        assert_eq!((gops, probes_hit), (2, 0), "a hit skips the search");
    }

    #[test]
    fn resolve_dest_prewalks_dense_vertices() {
        // 1-KiB subgraphs give the RMAT hubs dense slice lists.
        let csr = generate_csr(RmatParams::graph500(), 2000, 20_000, 11);
        let pg = PartitionedGraph::build(
            &csr,
            PartitionConfig {
                subgraph_bytes: 1 << 10,
                id_bytes: 4,
                subgraphs_per_partition: 16,
            },
        );
        let mut sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        sim.setup_partition(0, SimTime::ZERO, false);
        let meta = *pg
            .dense
            .iter()
            .find(|m| pg.partition_of(m.first_subgraph) == 0 && m.num_blocks > 1)
            .expect("a multi-slice dense vertex in partition 0");
        let cap = pg.config.dense_slice_edges();
        for seed in 0..32 {
            let (want, _) = prewalk_slice(&meta, cap, &mut Xoshiro256pp::new(seed));
            let (dest, gops, probes) = sim.resolve_dest(
                &roving(&pg, meta.vertex),
                true,
                0,
                &mut Xoshiro256pp::new(seed),
            );
            let here = pg.partition_of(want) == 0;
            assert_eq!(dest, here.then_some(want), "seed {seed}");
            assert_eq!((gops, probes), (3, 0), "dense probe + pre-walk, no search");
        }
        assert_eq!((sim.stats.cache_hits, sim.stats.cache_misses), (0, 0));
    }

    #[test]
    fn chip_channel_mapping_is_consistent() {
        let (csr, pg) = multi_partition_setup();
        let sim = FlashWalkerSim::new(&csr, &pg, AccelConfig::scaled(), SsdConfig::tiny(), 1);
        let per = sim.ssd.config().geometry.chips_per_channel;
        for chip in 0..sim.num_chips() {
            assert_eq!(sim.channel_of_chip(chip), chip / per);
        }
        // Every subgraph's chip is a valid chip id.
        for sg in 0..pg.num_subgraphs() {
            assert!(sim.chip_of_sg(sg) < sim.num_chips());
        }
    }

    #[test]
    fn mark_dirty_dedups_and_keeps_first_touch_order_across_the_boundary() {
        // Ids below 128 take the bitmask fast path, ids at/above it the
        // linear-scan fallback; interleaving them must not disturb the
        // first-touch push order on either side.
        let mut mask = 0u128;
        let mut chips = Vec::new();
        for &c in &[5, 200, 127, 128, 5, 200, 300, 128, 127, 0, 300, 131] {
            super::mark_dirty(&mut mask, &mut chips, c);
        }
        assert_eq!(chips, vec![5, 200, 127, 128, 300, 0, 131]);
    }

    #[test]
    fn geometry_beyond_the_dirty_bitmask_completes() {
        // 33 channels × 4 chips = 132 chips: round-robin placement puts
        // subgraphs on chips ≥ 128, exercising the dirty-list fallback
        // end to end.
        let csr = generate_csr(RmatParams::graph500(), 20_000, 200_000, 11);
        let pg = PartitionedGraph::build(
            &csr,
            PartitionConfig {
                subgraph_bytes: 4 << 10,
                id_bytes: 4,
                subgraphs_per_partition: 5_000,
            },
        );
        assert!(pg.num_subgraphs() > 128, "need placements past chip 127");
        let ssd = SsdConfig {
            geometry: fw_nand::Geometry {
                channels: 33,
                chips_per_channel: 4,
                dies_per_chip: 1,
                planes_per_die: 1,
                blocks_per_plane: 8,
                pages_per_block: 8,
                page_bytes: 4096,
            },
            op_blocks_per_plane: 2,
            gc_threshold_blocks: 1,
            ..SsdConfig::paper()
        };
        let mut cfg = AccelConfig::scaled();
        cfg.opts = crate::OptToggles::all();
        let mut sim = FlashWalkerSim::new(&csr, &pg, cfg, ssd, 1);
        assert_eq!(sim.num_chips(), 132);
        assert!(
            (0..pg.num_subgraphs()).any(|sg| sim.chip_of_sg(sg) >= 128),
            "placement must reach chips beyond the bitmask"
        );
        let r = sim.run_detailed(fw_walk::Workload::paper_default(2_000));
        assert_eq!(r.walks, 2_000);
        assert!(r.stats.sg_loads > 0);
    }
}
