//! The previous simulator, kept only as a test oracle.
//!
//! [`CacheSim`] and [`ShadowCache`] here are the per-set `Vec` simulator
//! and the `HashMap` + `HashSet` + `VecDeque` shadow that the flat
//! simulator replaced, with their behaviour copied unchanged. Left out
//! are the constructors' validation (the differential test builds both
//! simulators from the same validated geometry), the traced and
//! streaming wrappers (which only call `access`) and most comments; the
//! old `ReplacementPolicy::victim` is the free function [`victim`]. The
//! property test at the bottom replays random traces through both and
//! demands identical answers on every access.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::{Geometry, LineAddr, WordAddr};
use crate::classify::ShadowVerdict;
use crate::mapper::{IndexMapper, Mapper};
use crate::replacement::ReplacementPolicy;
use crate::sim::{AccessResult, StreamId};
use crate::stats::{CacheStats, MissKind};

/// The old `ReplacementPolicy::victim`: way indices sorted by use and by
/// fill, one of them picked.
fn victim(
    policy: ReplacementPolicy,
    use_order: &[usize],
    fill_order: &[usize],
    rng: &mut StdRng,
) -> usize {
    match policy {
        ReplacementPolicy::Lru => use_order[0],
        ReplacementPolicy::Fifo => fill_order[0],
        ReplacementPolicy::Random => use_order[rng.random_range(0..use_order.len())],
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ShadowCache {
    capacity: usize,
    // LRU queue of (line, touch generation); front = least recent. Entries
    // whose generation no longer matches `resident` are stale duplicates
    // left behind by re-touches and are discarded lazily.
    queue: VecDeque<(LineAddr, u64)>,
    resident: HashMap<LineAddr, u64>, // line -> generation of its latest touch
    ever_seen: HashSet<LineAddr>,
    generation: u64,
}

impl ShadowCache {
    pub(crate) fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "shadow cache capacity must be positive");
        Self {
            capacity: capacity as usize,
            queue: VecDeque::new(),
            resident: HashMap::new(),
            ever_seen: HashSet::new(),
            generation: 0,
        }
    }

    pub(crate) fn touch(&mut self, line: LineAddr) -> ShadowVerdict {
        self.generation += 1;
        let verdict = if self.resident.contains_key(&line) {
            ShadowVerdict::Hit
        } else if self.ever_seen.contains(&line) {
            ShadowVerdict::CapacityMiss
        } else {
            ShadowVerdict::ColdMiss
        };
        self.ever_seen.insert(line);
        self.resident.insert(line, self.generation);
        self.queue.push_back((line, self.generation));
        self.evict_lru();
        verdict
    }

    fn evict_lru(&mut self) {
        while self.resident.len() > self.capacity {
            let Some((line, gen)) = self.queue.pop_front() else {
                break;
            };
            if self.resident.get(&line) == Some(&gen) {
                self.resident.remove(&line);
            }
        }
        if self.queue.len() > self.capacity.saturating_mul(2) + 16 {
            let resident = &self.resident;
            self.queue.retain(|(l, g)| resident.get(l) == Some(g));
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: LineAddr,
    stream: StreamId,
    last_use: u64,
    filled_at: u64,
}

#[derive(Debug)]
pub(crate) struct CacheSim {
    geometry: Geometry,
    mapper: Mapper,
    policy: ReplacementPolicy,
    sets: Vec<Vec<Entry>>,
    shadow: ShadowCache,
    stats: CacheStats,
    clock: u64,
    rng: StdRng,
}

impl CacheSim {
    pub(crate) fn build(geometry: Geometry, mapper: Mapper, policy: ReplacementPolicy) -> Self {
        let sets = vec![Vec::new(); geometry.sets() as usize];
        Self {
            geometry,
            mapper,
            policy,
            sets,
            shadow: ShadowCache::new(geometry.total_lines()),
            stats: CacheStats::default(),
            clock: 0,
            rng: StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    pub(crate) fn contains(&self, word: WordAddr) -> bool {
        let line = word.line(self.geometry.line_words());
        let set = self.mapper.index(line) as usize;
        self.sets[set].iter().any(|e| e.line == line)
    }

    pub(crate) fn access(&mut self, word: WordAddr, stream: StreamId) -> AccessResult {
        self.clock += 1;
        let line = word.line(self.geometry.line_words());
        let set_idx = self.mapper.index(line);
        let verdict = self.shadow.touch(line);
        let set = &mut self.sets[set_idx as usize];

        if let Some(entry) = set.iter_mut().find(|e| e.line == line) {
            entry.last_use = self.clock;
            entry.stream = stream;
            self.stats.record_hit();
            return AccessResult {
                line,
                set: set_idx,
                miss: None,
                evicted: None,
            };
        }

        // Miss: pick a victim if the set is full.
        let evicted = if (set.len() as u64) < self.geometry.ways() {
            None
        } else {
            let mut use_order: Vec<usize> = (0..set.len()).collect();
            use_order.sort_by_key(|&i| set[i].last_use);
            let mut fill_order: Vec<usize> = (0..set.len()).collect();
            fill_order.sort_by_key(|&i| set[i].filled_at);
            let victim = victim(self.policy, &use_order, &fill_order, &mut self.rng);
            Some(set.swap_remove(victim))
        };

        set.push(Entry {
            line,
            stream,
            last_use: self.clock,
            filled_at: self.clock,
        });

        let kind = match verdict {
            ShadowVerdict::ColdMiss => MissKind::Compulsory,
            ShadowVerdict::CapacityMiss => MissKind::Capacity,
            ShadowVerdict::Hit => match evicted {
                Some(e) if e.stream != stream => MissKind::ConflictCross,
                _ => MissKind::ConflictSelf,
            },
        };
        self.stats.record_miss(kind);

        AccessResult {
            line,
            set: set_idx,
            miss: Some(kind),
            evicted: evicted.map(|e| e.line),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::CacheSim as Reference;
    use crate::addr::{Geometry, WordAddr};
    use crate::mapper::{Mapper, Pow2Mapper, PrimeMapper};
    use crate::replacement::ReplacementPolicy;
    use crate::sim::{CacheSim, StreamId};

    const POLICIES: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ];

    /// Every constructor at small sizes (so sets fill and evict often),
    /// paired with a reference built from the same geometry and mapper.
    fn organizations(
        policy: ReplacementPolicy,
        line_words: u64,
    ) -> Vec<(String, CacheSim, Reference)> {
        let pow2 = |sets, ways, policy| {
            Reference::build(
                Geometry::new(sets, ways, line_words),
                Mapper::Pow2(Pow2Mapper::new(sets)),
                policy,
            )
        };
        let prime = |exponent: u32, ways, policy| {
            let mapper = PrimeMapper::new(exponent).unwrap();
            Reference::build(
                Geometry::new((1 << exponent) - 1, ways, line_words),
                Mapper::Prime(mapper),
                policy,
            )
        };
        let lru = ReplacementPolicy::Lru;
        let mut orgs = Vec::new();
        for lines in [1u64, 4, 16] {
            orgs.push((
                format!("direct:{lines}"),
                CacheSim::direct_mapped(lines, line_words).unwrap(),
                pow2(lines, 1, lru),
            ));
            orgs.push((
                format!("full:{lines}"),
                CacheSim::fully_associative(lines, line_words, policy).unwrap(),
                pow2(1, lines, policy),
            ));
        }
        for (sets, ways) in [(1u64, 2u64), (4, 2), (4, 4), (2, 3)] {
            orgs.push((
                format!("assoc:{sets}x{ways}"),
                CacheSim::set_associative(sets * ways, ways, line_words, policy).unwrap(),
                pow2(sets, ways, policy),
            ));
        }
        for exponent in [2u32, 3, 5] {
            orgs.push((
                format!("prime:{exponent}"),
                CacheSim::prime_mapped(exponent, line_words).unwrap(),
                prime(exponent, 1, lru),
            ));
        }
        for (exponent, ways) in [(2u32, 2u64), (3, 4)] {
            orgs.push((
                format!("prime-assoc:{exponent}x{ways}"),
                CacheSim::prime_mapped_associative(exponent, ways, line_words, policy).unwrap(),
                prime(exponent, ways, policy),
            ));
        }
        orgs
    }

    /// A trace of strided runs over a small address range, tagged with up
    /// to `streams` streams and swept `sweeps` times so lines recur.
    fn trace(segments: &[(u64, u64, u64, u32)], streams: u32, sweeps: u64) -> Vec<(u64, u32)> {
        let once: Vec<(u64, u32)> = segments
            .iter()
            .flat_map(|&(base, stride, len, stream)| {
                (0..len).map(move |i| (base + i * stride, stream % streams))
            })
            .collect();
        (0..sweeps).flat_map(|_| once.iter().copied()).collect()
    }

    proptest! {
        #[test]
        fn flat_simulator_matches_reference(
            segments in prop::collection::vec(
                (
                    0u64..192,
                    prop::sample::select(vec![0u64, 1, 2, 3, 4, 7, 8, 16, 31, 64]),
                    1u64..24,
                    0u32..3,
                ),
                1..8,
            ),
            streams in 1u32..4,
            sweeps in 1u64..4,
        ) {
            let words = trace(&segments, streams, sweeps);
            for policy in POLICIES {
                for line_words in [1u64, 2, 4] {
                    for (name, mut sim, mut reference) in organizations(policy, line_words) {
                        let case = format!("{name} {policy} line_words={line_words}");
                        for (i, &(word, stream)) in words.iter().enumerate() {
                            let (word, stream) = (WordAddr::new(word), StreamId::new(stream));
                            let got = sim.access(word, stream);
                            let want = reference.access(word, stream);
                            prop_assert_eq!(got, want, "{} access {}", case, i);
                        }
                        prop_assert_eq!(sim.stats(), reference.stats(), "{}", case);
                        for &(word, _) in &words {
                            let word = WordAddr::new(word);
                            prop_assert_eq!(sim.contains(word), reference.contains(word), "{}", case);
                        }
                        // A reset cache must replay exactly like a fresh one.
                        sim.reset();
                        let mut fresh = organizations(policy, line_words)
                            .into_iter()
                            .find(|(n, _, _)| *n == name)
                            .map(|(_, _, r)| r)
                            .unwrap();
                        for (i, &(word, stream)) in words.iter().enumerate() {
                            let (word, stream) = (WordAddr::new(word), StreamId::new(stream));
                            let got = sim.access(word, stream);
                            let want = fresh.access(word, stream);
                            prop_assert_eq!(got, want, "{} after reset, access {}", case, i);
                        }
                        prop_assert_eq!(sim.stats(), fresh.stats(), "{} after reset", case);
                    }
                }
            }
        }
    }
}
