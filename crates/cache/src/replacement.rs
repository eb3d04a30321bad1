//! Replacement policies for set-associative organizations.
//!
//! The paper (§2.1) notes that serial vector access "dictates against LRU"
//! — with a vector longer than the set, LRU evicts exactly the line about
//! to be reused. Having multiple policies lets the ablation benchmarks
//! test that remark.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which line of a full set is evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used line.
    #[default]
    Lru,
    /// Evict the line resident longest, ignoring reuse.
    Fifo,
    /// Evict a uniformly random line (deterministic seeded RNG).
    Random,
}

impl ReplacementPolicy {
    /// Picks the victim way of a full set.
    ///
    /// `stamps` yields each occupied way's `(last_use, filled_at)` clock
    /// stamps in way order; stamps are unique within a set, so the choice
    /// never depends on where a line sits. LRU takes the smallest
    /// `last_use`, FIFO the smallest `filled_at`. Random draws a rank in
    /// `0..ways` and takes the way with that rank in `last_use` order,
    /// selecting in `scratch` so that no eviction allocates once
    /// `scratch` has room for a set.
    pub(crate) fn victim<I>(&self, stamps: I, rng: &mut StdRng, scratch: &mut Vec<u64>) -> usize
    where
        I: ExactSizeIterator<Item = (u64, u64)> + Clone,
    {
        let oldest = |key: fn((u64, u64)) -> u64| {
            stamps
                .clone()
                .enumerate()
                .min_by_key(|&(_, s)| key(s))
                .map_or(0, |(way, _)| way)
        };
        match self {
            Self::Lru => oldest(|(used, _)| used),
            Self::Fifo => oldest(|(_, filled)| filled),
            Self::Random => {
                let rank = rng.random_range(0..stamps.len());
                scratch.clear();
                scratch.extend(stamps.clone().map(|(used, _)| used));
                let (_, &mut pick, _) = scratch.select_nth_unstable(rank);
                stamps
                    .clone()
                    .position(|(used, _)| used == pick)
                    .unwrap_or(0)
            }
        }
    }
}

impl core::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Lru => f.write_str("LRU"),
            Self::Fifo => f.write_str("FIFO"),
            Self::Random => f.write_str("random"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Three ways; way 2 was used longest ago, way 1 filled first.
    const STAMPS: [(u64, u64); 3] = [(9, 4), (7, 1), (5, 5)];

    fn pick(policy: ReplacementPolicy, rng: &mut StdRng) -> usize {
        policy.victim(STAMPS.iter().copied(), rng, &mut Vec::new())
    }

    #[test]
    fn lru_picks_least_recently_used() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(pick(ReplacementPolicy::Lru, &mut rng), 2);
    }

    #[test]
    fn fifo_picks_oldest_fill() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(pick(ReplacementPolicy::Fifo, &mut rng), 1);
    }

    #[test]
    fn random_is_deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..32 {
            assert_eq!(
                pick(ReplacementPolicy::Random, &mut a),
                pick(ReplacementPolicy::Random, &mut b)
            );
        }
    }

    #[test]
    fn random_evicts_the_way_of_the_drawn_use_rank() {
        // Ranks in last_use order: way 2 (5), way 1 (7), way 0 (9).
        let by_rank = [2, 1, 0];
        let mut rng = StdRng::seed_from_u64(7);
        let mut twin = StdRng::seed_from_u64(7);
        let mut scratch = Vec::new();
        for _ in 0..32 {
            let rank = twin.random_range(0..STAMPS.len());
            let way =
                ReplacementPolicy::Random.victim(STAMPS.iter().copied(), &mut rng, &mut scratch);
            assert_eq!(way, by_rank[rank]);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "LRU");
        assert_eq!(ReplacementPolicy::Fifo.to_string(), "FIFO");
        assert_eq!(ReplacementPolicy::Random.to_string(), "random");
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }
}
