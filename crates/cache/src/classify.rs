//! The fully-associative shadow cache used to classify misses.
//!
//! Conflict misses are defined *relative to* a fully-associative cache of
//! the same capacity: if the shadow would have hit where the real mapping
//! missed, the miss is the mapping's fault (a conflict); if the shadow
//! misses too, the working set simply does not fit (capacity), unless the
//! line was never seen at all (compulsory).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::LineAddr;

/// Outcome of consulting the shadow for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShadowVerdict {
    /// Shadow holds the line.
    Hit,
    /// Line seen before but evicted by capacity in the shadow too.
    CapacityMiss,
    /// First-ever touch.
    ColdMiss,
}

/// End marker of the recency list.
const NIL: u32 = u32::MAX;

/// Multiplicative hash for line addresses: one 64×64→128-bit multiply by
/// an odd constant, high half folded into the low half. Without the fold
/// a power-of-two stride would leave the low (bucket-selecting) bits of
/// every product zero and pile its lines into a few buckets. Keys are
/// simulated line addresses from this program's generators or its local
/// user, never from a remote client, so SipHash's resistance to crafted
/// collisions buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One resident line and its neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: LineAddr,
    /// Next more recently used slot, or [`NIL`].
    newer: u32,
    /// Next less recently used slot, or [`NIL`].
    older: u32,
}

/// The resident lines: at most `capacity` slots, doubly linked from most
/// to least recently used.
#[derive(Debug, Clone)]
struct Recency {
    capacity: usize,
    slots: Vec<Slot>,
    mru: u32,
    lru: u32,
}

impl Recency {
    /// True if `slot` exists and holds `line`.
    fn holds(&self, slot: u32, line: LineAddr) -> bool {
        self.slots
            .get(slot as usize)
            .is_some_and(|s| s.line == line)
    }

    /// Puts `line` in a free slot, or in the least recently used one when
    /// all are taken, as the most recently used; returns the slot.
    fn install(&mut self, line: LineAddr) -> u32 {
        if self.slots.len() < self.capacity {
            // Below `capacity`, which is at most `NIL`: a valid index.
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                line,
                newer: NIL,
                older: NIL,
            });
            self.push_front(slot);
            slot
        } else {
            let slot = self.lru;
            self.slots[slot as usize].line = line;
            self.promote(slot);
            slot
        }
    }

    /// Makes `slot` the most recently used.
    fn promote(&mut self, slot: u32) {
        if slot == self.mru {
            return;
        }
        let Slot { newer, older, .. } = self.slots[slot as usize];
        // `slot` is not the MRU, so it has a newer neighbour.
        self.slots[newer as usize].older = older;
        if older == NIL {
            self.lru = newer;
        } else {
            self.slots[older as usize].newer = newer;
        }
        self.push_front(slot);
    }

    /// Links an unlinked `slot` in as the most recently used.
    fn push_front(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.newer = NIL;
        s.older = self.mru;
        if self.mru == NIL {
            self.lru = slot;
        } else {
            self.slots[self.mru as usize].newer = slot;
        }
        self.mru = slot;
    }
}

/// A fully-associative LRU cache tracking only presence, used as the
/// classification reference. Exposed publicly because it doubles as the
/// "fully associative" end point in associativity ablations.
///
/// One map answers both questions a miss asks. It holds every line ever
/// touched, valued with the slot the line last occupied; the line is
/// resident exactly when that slot still holds it, so pushing a line out
/// never touches the map. The slots form an intrusive doubly-linked
/// recency list: a hit relinks one slot, and a miss in a full shadow
/// reuses the least-recently-used one. Every touch is one map probe.
#[derive(Debug, Clone)]
pub struct ShadowCache {
    lines: HashMap<LineAddr, u32, BuildHasherDefault<LineHasher>>,
    recency: Recency,
}

impl ShadowCache {
    /// Creates a shadow with room for `capacity` lines. Slots are
    /// numbered by `u32`, so a capacity beyond `u32::MAX` lines is clamped
    /// to it; such a shadow could not be filled in memory anyway.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "shadow cache capacity must be positive");
        Self {
            lines: HashMap::default(),
            recency: Recency {
                capacity: capacity.min(u64::from(NIL)) as usize,
                slots: Vec::new(),
                mru: NIL,
                lru: NIL,
            },
        }
    }

    /// Touches `line`; returns the verdict *before* installing it.
    pub(crate) fn touch(&mut self, line: LineAddr) -> ShadowVerdict {
        match self.lines.entry(line) {
            Entry::Occupied(mut seen) => {
                let slot = *seen.get();
                if self.recency.holds(slot, line) {
                    self.recency.promote(slot);
                    ShadowVerdict::Hit
                } else {
                    seen.insert(self.recency.install(line));
                    ShadowVerdict::CapacityMiss
                }
            }
            Entry::Vacant(first) => {
                first.insert(self.recency.install(line));
                ShadowVerdict::ColdMiss
            }
        }
    }

    /// True if the shadow currently holds `line`.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines
            .get(&line)
            .is_some_and(|&slot| self.recency.holds(slot, line))
    }

    /// Lines currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.recency.slots.len()
    }

    /// True when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.recency.slots.is_empty()
    }

    /// Forgets every line, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.lines.clear();
        self.recency.slots.clear();
        self.recency.mru = NIL;
        self.recency.lru = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u64) -> LineAddr {
        LineAddr::new(x)
    }

    #[test]
    fn cold_then_hit() {
        let mut s = ShadowCache::new(2);
        assert_eq!(s.touch(l(1)), ShadowVerdict::ColdMiss);
        assert_eq!(s.touch(l(1)), ShadowVerdict::Hit);
        assert!(s.contains(l(1)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn lru_eviction_and_capacity_miss() {
        let mut s = ShadowCache::new(2);
        s.touch(l(1));
        s.touch(l(2));
        s.touch(l(3)); // evicts 1 (LRU)
        assert!(!s.contains(l(1)));
        assert!(s.contains(l(2)));
        assert!(s.contains(l(3)));
        assert_eq!(s.touch(l(1)), ShadowVerdict::CapacityMiss);
    }

    #[test]
    fn retouching_refreshes_recency() {
        let mut s = ShadowCache::new(2);
        s.touch(l(1));
        s.touch(l(2));
        s.touch(l(1)); // 1 is now most recent
        s.touch(l(3)); // must evict 2, not 1
        assert!(s.contains(l(1)));
        assert!(!s.contains(l(2)));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut s = ShadowCache::new(4);
        for i in 0..100 {
            s.touch(l(i % 7));
            assert!(s.len() <= 4, "at i={i}");
        }
    }

    #[test]
    fn capacity_one_holds_only_the_last_line() {
        let mut s = ShadowCache::new(1);
        assert_eq!(s.touch(l(1)), ShadowVerdict::ColdMiss);
        assert_eq!(s.touch(l(1)), ShadowVerdict::Hit);
        assert_eq!(s.touch(l(2)), ShadowVerdict::ColdMiss);
        assert_eq!(s.touch(l(1)), ShadowVerdict::CapacityMiss);
        assert!(s.contains(l(1)));
        assert!(!s.contains(l(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clear_forgets_residency_and_history() {
        let mut s = ShadowCache::new(2);
        s.touch(l(1));
        s.touch(l(2));
        s.touch(l(3));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(l(2)));
        assert_eq!(s.touch(l(1)), ShadowVerdict::ColdMiss);
    }

    #[test]
    fn verdicts_match_a_naive_lru_list() {
        // A Vec kept in recency order (front = LRU) plus a seen-set is the
        // textbook fully-associative LRU; the linked slots must agree with
        // it on every touch, including power-of-two strided lines.
        for capacity in [1u64, 3, 8] {
            let mut shadow = ShadowCache::new(capacity);
            let mut order: Vec<LineAddr> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            let mut x = 7u64;
            for _ in 0..2000 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let line = l((x >> 60) << 12);
                let expected = if let Some(i) = order.iter().position(|&o| o == line) {
                    order.remove(i);
                    ShadowVerdict::Hit
                } else if seen.insert(line) {
                    ShadowVerdict::ColdMiss
                } else {
                    ShadowVerdict::CapacityMiss
                };
                order.push(line);
                if order.len() > capacity as usize {
                    order.remove(0);
                }
                assert_eq!(shadow.touch(line), expected, "capacity {capacity}");
                assert_eq!(shadow.len(), order.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ShadowCache::new(0);
    }
}
