//! Set-associative caches, MOESI snoopy coherence and bus/memory timing.
//!
//! This crate models the on-chip memory system of the paper's evaluation
//! platform (§6.1): per-core private L1 (16 KiB direct-mapped, 1 cycle) and
//! L2 (256 KiB 4-way, 6 cycles) caches with 64-byte blocks, a snoopy MOESI
//! protocol maintained at the L2, a high-speed on-chip bus (20-cycle minimum
//! round trip) and a main-memory interface (200-cycle minimum latency, up to
//! three requests pipelined).
//!
//! Cache lines carry the transactional augmentation the paper describes
//! (§4.1): a transaction ID plus read/write bits — and, for the
//! word-granularity study of Figure 5, per-word access masks.
//!
//! Lines are *metadata only*: the functional data lives in `ptm-mem`'s
//! physical memory and in per-transaction speculative buffers owned by the
//! simulator. This keeps the coherence model small while the system as a
//! whole stays functional.
//!
//! # Examples
//!
//! ```
//! use ptm_cache::Hierarchy;
//! use ptm_types::{BlockIdx, FrameId, PhysBlock};
//!
//! let h = Hierarchy::with_default_config();
//! let b = PhysBlock::new(FrameId(1), BlockIdx(0));
//! assert!(h.probe(b).is_miss());
//! ```

pub mod array;
pub mod bus;
pub mod coherence;
pub mod config;
pub mod line;
pub mod stats;

use array::Slot;
pub use array::{CacheArray, Eviction};
pub use bus::{BusTimings, SystemBus};
pub use coherence::{
    abort_tx_line, commit_tx_line, flush_non_tx_lines, peek_remote_tx_use, supply, DataSource,
    RemoteTxUse, SupplyOutcome,
};
pub use config::CacheConfig;
pub use line::{CacheLine, Hit, Moesi, ProbeResult, TxLineMeta};
pub use stats::CacheStats;

/// Where a cached block sits in a [`Hierarchy`]: its L2 slot, plus its L1
/// slot when it hits there. [`Hierarchy::locate`] returns one. It names the
/// line only until the hierarchy is next changed: an insert, invalidation
/// or drain may move lines within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Located {
    block: ptm_types::PhysBlock,
    l1: Option<Slot>,
    l2: Slot,
}

impl Located {
    /// The block found.
    #[inline]
    pub fn block(&self) -> ptm_types::PhysBlock {
        self.block
    }

    /// The level the access hits in.
    #[inline]
    pub fn hit(&self) -> Hit {
        if self.l1.is_some() {
            Hit::L1
        } else {
            Hit::L2
        }
    }
}

/// A core's private L1+L2 pair, kept inclusive (everything in L1 is in L2).
///
/// The L1 is a presence filter for timing; all coherence and transactional
/// state lives in the L2, matching the paper's platform where "coherency is
/// maintained at the L2 cache".
#[derive(Debug)]
pub struct Hierarchy {
    l1: CacheArray,
    l2: CacheArray,
    /// L1 access latency in cycles.
    pub l1_latency: u64,
    /// L2 access latency in cycles.
    pub l2_latency: u64,
}

impl Hierarchy {
    /// Builds a hierarchy with the paper's cache parameters.
    pub fn with_default_config() -> Self {
        Hierarchy::new(CacheConfig::l1_default(), CacheConfig::l2_default())
    }

    /// Builds a hierarchy from explicit configurations.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        Hierarchy {
            l1_latency: l1.latency,
            l2_latency: l2.latency,
            l1: CacheArray::new(l1),
            l2: CacheArray::new(l2),
        }
    }

    /// Finds `block` in both levels without changing state: one scan of
    /// its L2 set, plus one of its L1 set when the L2 holds it. The result
    /// serves the hit path's reads ([`Hierarchy::line_at`]) and its update
    /// ([`Hierarchy::touch`]) with no further scans.
    #[inline]
    pub fn locate(&self, block: ptm_types::PhysBlock) -> Option<Located> {
        let Some(l2) = self.l2.find(block) else {
            debug_assert!(!self.l1.contains(block), "L1 must be inclusive in L2");
            return None;
        };
        Some(Located {
            block,
            l1: self.l1.find(block),
            l2,
        })
    }

    /// Probes both levels without changing state, classifying the access.
    pub fn probe(&self, block: ptm_types::PhysBlock) -> ProbeResult {
        match self.locate(block) {
            Some(at) => ProbeResult::Hit(at.hit()),
            None => ProbeResult::Miss,
        }
    }

    /// The L2 line [`Hierarchy::locate`] found.
    #[inline]
    pub fn line_at(&self, at: Located) -> &CacheLine {
        let line = self.l2.at(at.l2);
        debug_assert_eq!(line.block(), at.block, "stale location");
        line
    }

    /// [`Hierarchy::touch_mut`] of a block [`Hierarchy::locate`] found:
    /// refills or refreshes its L1 copy and refreshes its L2 LRU position,
    /// advancing both LRU clocks exactly as `touch_mut` does.
    #[inline]
    pub fn touch(&mut self, at: Located) -> &mut CacheLine {
        let presence = CacheLine::presence(at.block);
        match at.l1 {
            Some(slot) => self.l1.replace_at(slot, presence),
            // Refill L1; its victim needs no action (inclusive, data in L2).
            None => {
                let _ = self.l1.insert_absent(presence);
            }
        }
        let line = self.l2.touch_at(at.l2);
        debug_assert_eq!(line.block(), at.block, "stale location");
        line
    }

    /// Latency of a hit at the given level.
    pub fn hit_latency(&self, hit: Hit) -> u64 {
        match hit {
            Hit::L1 => self.l1_latency,
            Hit::L2 => self.l1_latency + self.l2_latency,
        }
    }

    /// Read-only view of the L2 line for `block`.
    pub fn line(&self, block: ptm_types::PhysBlock) -> Option<&CacheLine> {
        self.l2.get(block)
    }

    /// Mutable view of the L2 line for `block`; promotes into L1 so that a
    /// subsequent probe is an L1 hit (models the refill on an L1 miss /
    /// L2 hit).
    pub fn touch_mut(&mut self, block: ptm_types::PhysBlock) -> Option<&mut CacheLine> {
        let at = self.locate(block)?;
        Some(self.touch(at))
    }

    /// Inserts a freshly fetched line into L2 (and L1), returning the L2
    /// victim, if any. The caller turns transactional victims into PTM/VTM
    /// overflows.
    pub fn fill(&mut self, line: CacheLine) -> Option<Eviction> {
        let block = line.block();
        let victim = self.l2.insert(line);
        if let Some(ev) = &victim {
            // Inclusion: anything leaving L2 leaves L1 too.
            self.l1.invalidate(ev.line.block());
        }
        let _ = self.l1.insert(CacheLine::presence(block));
        victim
    }

    /// Removes a block from both levels, returning the L2 line.
    pub fn invalidate(&mut self, block: ptm_types::PhysBlock) -> Option<CacheLine> {
        self.l1.invalidate(block);
        self.l2.invalidate(block).map(|e| e.line)
    }

    /// The L2 cache statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Mutable access to the L2 statistics (the simulator records hit/miss
    /// classifications it derives from `probe`).
    pub fn l2_stats_mut(&mut self) -> &mut CacheStats {
        self.l2.stats_mut()
    }

    /// Iterates over all valid L2 lines.
    pub fn lines(&self) -> impl Iterator<Item = &CacheLine> {
        self.l2.lines()
    }

    /// Mutable view of the L2 line for `block` that neither promotes into
    /// L1 nor refreshes LRU.
    pub fn line_mut(&mut self, block: ptm_types::PhysBlock) -> Option<&mut CacheLine> {
        self.l2.find_mut(block)
    }

    /// The L1 array (context-switch pollution needs to clear it).
    pub fn l1_mut(&mut self) -> &mut CacheArray {
        &mut self.l1
    }

    /// The L2 array (for coherence operations that need set access).
    pub fn l2_mut(&mut self) -> &mut CacheArray {
        &mut self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_types::{BlockIdx, FrameId, PhysBlock, TxId, WordIdx};

    fn blk(frame: u32, idx: u8) -> PhysBlock {
        PhysBlock::new(FrameId(frame), BlockIdx(idx))
    }

    #[test]
    fn probe_miss_then_hit_after_fill() {
        let mut h = Hierarchy::with_default_config();
        let b = blk(3, 7);
        assert!(h.probe(b).is_miss());
        h.fill(CacheLine::new(b, Moesi::Exclusive));
        assert_eq!(h.probe(b), ProbeResult::Hit(Hit::L1));
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        // L1 is 16KB direct mapped = 256 sets; two blocks 256 blocks apart
        // in block-address space collide in L1 but not in 4-way L2.
        let mut h = Hierarchy::with_default_config();
        let a = blk(0, 0);
        let c = blk(4, 0); // 4 frames * 64 blocks = 256 blocks apart
        h.fill(CacheLine::new(a, Moesi::Exclusive));
        h.fill(CacheLine::new(c, Moesi::Exclusive));
        assert_eq!(h.probe(c), ProbeResult::Hit(Hit::L1));
        assert_eq!(
            h.probe(a),
            ProbeResult::Hit(Hit::L2),
            "a displaced from L1 only"
        );
    }

    #[test]
    fn touch_mut_promotes_to_l1() {
        let mut h = Hierarchy::with_default_config();
        let a = blk(0, 0);
        let c = blk(4, 0);
        h.fill(CacheLine::new(a, Moesi::Exclusive));
        h.fill(CacheLine::new(c, Moesi::Exclusive));
        assert_eq!(h.probe(a), ProbeResult::Hit(Hit::L2));
        h.touch_mut(a).unwrap();
        assert_eq!(h.probe(a), ProbeResult::Hit(Hit::L1));
    }

    #[test]
    fn inclusion_holds_after_l2_eviction() {
        let mut h = Hierarchy::with_default_config();
        // L2 has 1024 sets, so blocks 1024 apart collide: frames 16 apart.
        let blocks: Vec<_> = (0..5).map(|i| blk(16 * i, 0)).collect();
        for &b in &blocks {
            h.fill(CacheLine::new(b, Moesi::Exclusive));
        }
        let evicted: Vec<_> = blocks.iter().filter(|b| h.probe(**b).is_miss()).collect();
        assert_eq!(evicted.len(), 1, "exactly one block evicted from L2");
    }

    #[test]
    fn invalidate_clears_both_levels() {
        let mut h = Hierarchy::with_default_config();
        let b = blk(1, 1);
        h.fill(CacheLine::new(b, Moesi::Modified));
        let line = h.invalidate(b).unwrap();
        assert_eq!(line.state(), Moesi::Modified);
        assert!(h.probe(b).is_miss());
    }

    /// One access as the hit path made it before [`Hierarchy::locate`]:
    /// classify with a `contains` scan per level, read the line, then
    /// `touch_mut` as `contains` + L1 `insert` + L2 `get_mut`. A miss
    /// fills. Returns the class, the state read on a hit and the victim.
    fn scanning_access(
        h: &mut Hierarchy,
        b: PhysBlock,
        write: bool,
    ) -> (ProbeResult, Option<Moesi>, Option<Eviction>) {
        let class = if h.l1.contains(b) {
            ProbeResult::Hit(Hit::L1)
        } else if h.l2.contains(b) {
            ProbeResult::Hit(Hit::L2)
        } else {
            ProbeResult::Miss
        };
        if class.is_miss() {
            let ev = h.fill(CacheLine::new(b, Moesi::Exclusive));
            return (class, None, ev);
        }
        let state = h.line(b).expect("hit").state();
        assert!(h.l2.contains(b));
        let _ = h.l1.insert(CacheLine::presence(b));
        let line = h.l2.get_mut(b).expect("hit");
        if write {
            line.set_state(Moesi::Modified);
        }
        (class, Some(state), None)
    }

    /// The same access through one [`Hierarchy::locate`].
    fn located_access(
        h: &mut Hierarchy,
        b: PhysBlock,
        write: bool,
    ) -> (ProbeResult, Option<Moesi>, Option<Eviction>) {
        let Some(at) = h.locate(b) else {
            let ev = h.fill(CacheLine::new(b, Moesi::Exclusive));
            return (ProbeResult::Miss, None, ev);
        };
        let state = h.line_at(at).state();
        let line = h.touch(at);
        if write {
            line.set_state(Moesi::Modified);
        }
        (ProbeResult::Hit(at.hit()), Some(state), None)
    }

    #[test]
    fn one_lookup_hit_path_matches_the_scanning_path() {
        // Associative L1 (2 sets x 2 ways) under a 4 x 2 L2, over 24
        // blocks: most accesses hit, and fills keep evicting from both
        // levels. Occasional invalidations and transaction tags make sets
        // reorder (swap_remove) and lines differ in more than their block.
        let cfg = (CacheConfig::tiny(2, 2), CacheConfig::tiny(4, 2));
        let mut old = Hierarchy::new(cfg.0, cfg.1);
        let mut new = Hierarchy::new(cfg.0, cfg.1);
        let mut rng = ptm_types::rng::SplitMix64::new(0x5eed_cafe);
        let (mut hits, mut victims) = ([0u32; 2], 0u32);
        for step in 0..20_000 {
            let r = rng.next_u64();
            let b = blk((r % 6) as u32, ((r >> 8) % 4) as u8);
            match (r >> 16) % 16 {
                0 => assert_eq!(old.invalidate(b), new.invalidate(b), "step {step}"),
                1 => {
                    let tx = TxId((r >> 24) % 3 + 1);
                    for h in [&mut old, &mut new] {
                        match h.line_mut(b) {
                            Some(line) if line.is_transactional() => line.clear_tx(),
                            Some(line) => line.tx_meta_for(tx).record_read(WordIdx(0)),
                            None => {}
                        }
                    }
                }
                k => {
                    let write = k % 2 == 0;
                    let want = scanning_access(&mut old, b, write);
                    let got = located_access(&mut new, b, write);
                    assert_eq!(got, want, "step {step}: {b:?}");
                    match want {
                        (ProbeResult::Hit(Hit::L1), ..) => hits[0] += 1,
                        (ProbeResult::Hit(Hit::L2), ..) => hits[1] += 1,
                        (_, _, Some(_)) => victims += 1,
                        _ => {}
                    }
                }
            }
            // Same contents in the same ways with the same LRU stamps.
            let l1: Vec<_> = old.l1.lines().copied().collect();
            assert_eq!(
                l1,
                new.l1.lines().copied().collect::<Vec<_>>(),
                "step {step}"
            );
            let l2: Vec<_> = old.lines().copied().collect();
            assert_eq!(l2, new.lines().copied().collect::<Vec<_>>(), "step {step}");
            assert_eq!(old.l1.stats(), new.l1.stats());
            assert_eq!(old.l2_stats(), new.l2_stats());
        }
        // The stream exercised every path it is meant to compare.
        assert!(hits.iter().all(|&n| n > 1_000), "{hits:?}");
        assert!(victims > 1_000, "{victims}");
        assert!(old.l1.stats().evictions > 1_000);
    }

    #[test]
    fn hit_latencies_follow_config() {
        let h = Hierarchy::with_default_config();
        assert_eq!(h.hit_latency(Hit::L1), 1);
        assert_eq!(h.hit_latency(Hit::L2), 7, "L1 lookup + L2 access");
    }
}
