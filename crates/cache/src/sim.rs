//! The cache organization simulator.

use core::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vcache_trace::{TraceEvent, TraceSink};

use crate::addr::{Geometry, LineAddr, WordAddr};
use crate::classify::{ShadowCache, ShadowVerdict};
use crate::mapper::{IndexMapper, Mapper, Pow2Mapper, PrimeMapper};
use crate::replacement::ReplacementPolicy;
use crate::stats::{CacheStats, MissKind};

/// Identifies which vector access stream an access belongs to, so conflict
/// misses can be attributed to self- vs cross-interference (§1 of the
/// paper: "two or more elements of the same vector … or elements from two
/// different vectors").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct StreamId(u32);

impl StreamId {
    /// Creates a stream tag.
    #[must_use]
    pub fn new(id: u32) -> Self {
        Self(id)
    }

    /// The raw tag.
    #[must_use]
    pub fn value(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// Errors constructing a [`CacheSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Line count (or set count) must be a power of two for pow2 mapping.
    LinesNotPowerOfTwo {
        /// Offending line count.
        lines: u64,
    },
    /// Associativity must divide the line count.
    WaysDoNotDivideLines {
        /// Total lines requested.
        lines: u64,
        /// Ways requested.
        ways: u64,
    },
    /// Line size in words must be a nonzero power of two.
    BadLineWords {
        /// Offending line size.
        line_words: u64,
    },
    /// The Mersenne exponent is not in the supported prime table.
    BadMersenneExponent {
        /// Offending exponent.
        exponent: u32,
    },
    /// Zero lines/ways requested.
    ZeroSize,
    /// More sets than the simulator will allocate (the Mersenne exponent
    /// table reaches 2^61 − 1, far beyond simulatable sizes).
    TooManySets {
        /// Requested set count.
        sets: u64,
    },
    /// More lines than the simulator will allocate: every line of every
    /// set is allocated up front.
    TooManyLines {
        /// Requested set count.
        sets: u64,
        /// Requested ways per set.
        ways: u64,
    },
}

/// Largest line count, and so largest set count, the simulator will
/// allocate (2^28 lines ≈ gigabytes of backing store — already beyond any
/// experiment in this repository).
pub(crate) const MAX_SIMULATED_LINES: u64 = 1 << 28;

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LinesNotPowerOfTwo { lines } => {
                write!(
                    f,
                    "{lines} lines: pow2 mapping requires a power-of-two count"
                )
            }
            Self::WaysDoNotDivideLines { lines, ways } => {
                write!(f, "{ways} ways do not evenly divide {lines} lines")
            }
            Self::BadLineWords { line_words } => {
                write!(
                    f,
                    "line size of {line_words} words is not a nonzero power of two"
                )
            }
            Self::BadMersenneExponent { exponent } => {
                write!(f, "2^{exponent} - 1 is not a supported Mersenne prime")
            }
            Self::ZeroSize => f.write_str("cache must have at least one line"),
            Self::TooManySets { sets } => {
                write!(
                    f,
                    "{sets} sets exceed the simulator's allocation bound of {MAX_SIMULATED_LINES}"
                )
            }
            Self::TooManyLines { sets, ways } => {
                write!(
                    f,
                    "{sets} sets of {ways} ways exceed the simulator's allocation bound of \
                     {MAX_SIMULATED_LINES} lines"
                )
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The line accessed.
    pub line: LineAddr,
    /// The set it mapped to.
    pub set: u64,
    /// `None` on a hit; the miss class otherwise.
    pub miss: Option<MissKind>,
    /// Line displaced to make room, if any.
    pub evicted: Option<LineAddr>,
}

impl AccessResult {
    /// True if the access hit.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        self.miss.is_none()
    }
}

/// One resident line: its address, owning stream and clock stamps.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    line: LineAddr,
    stream: StreamId,
    last_use: u64,
    filled_at: u64,
}

/// A trace-driven cache simulator.
///
/// Construct with [`CacheSim::direct_mapped`], [`CacheSim::set_associative`],
/// [`CacheSim::fully_associative`], or [`CacheSim::prime_mapped`]
/// (optionally [`CacheSim::prime_mapped_associative`]), then feed word
/// addresses through [`CacheSim::access`].
///
/// # Example
///
/// ```
/// use vcache_cache::{CacheSim, StreamId, WordAddr};
///
/// let mut cache = CacheSim::set_associative(1024, 4, 2, Default::default())?;
/// let r = cache.access(WordAddr::new(0x1234), StreamId::new(0));
/// assert!(!r.is_hit()); // cold cache
/// let r = cache.access(WordAddr::new(0x1235), StreamId::new(0));
/// assert!(r.is_hit()); // same 2-word line
/// # Ok::<(), vcache_cache::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct CacheSim {
    geometry: Geometry,
    mapper: Mapper,
    policy: ReplacementPolicy,
    /// `log2(line_words)`: a word's line is one shift away.
    line_shift: u32,
    ways: usize,
    /// Every way of every set, set-major: set `s` owns
    /// `entries[s * ways..][..ways]`, of which the first `filled[s]` hold
    /// lines.
    entries: Vec<Entry>,
    filled: Vec<usize>,
    /// Random replacement's rank-select buffer, sized for one set.
    ranks: Vec<u64>,
    shadow: ShadowCache,
    stats: CacheStats,
    clock: u64,
    rng: StdRng,
}

/// Seed of the Random policy's generator, fixed so runs repeat.
const RNG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl CacheSim {
    /// A direct-mapped cache of `lines` (power of two) lines.
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn direct_mapped(lines: u64, line_words: u64) -> Result<Self, CacheConfigError> {
        Self::set_associative(lines, 1, line_words, ReplacementPolicy::Lru)
    }

    /// A set-associative cache of `lines` total lines in `ways`-way sets.
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn set_associative(
        lines: u64,
        ways: u64,
        line_words: u64,
        policy: ReplacementPolicy,
    ) -> Result<Self, CacheConfigError> {
        if lines == 0 || ways == 0 {
            return Err(CacheConfigError::ZeroSize);
        }
        if !line_words.is_power_of_two() {
            return Err(CacheConfigError::BadLineWords { line_words });
        }
        if !lines.is_multiple_of(ways) {
            return Err(CacheConfigError::WaysDoNotDivideLines { lines, ways });
        }
        let sets = lines / ways;
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::LinesNotPowerOfTwo { lines: sets });
        }
        if sets > MAX_SIMULATED_LINES {
            return Err(CacheConfigError::TooManySets { sets });
        }
        Self::build(
            Geometry::new(sets, ways, line_words),
            Mapper::Pow2(Pow2Mapper::new(sets)),
            policy,
        )
    }

    /// A fully-associative cache of `lines` lines.
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn fully_associative(
        lines: u64,
        line_words: u64,
        policy: ReplacementPolicy,
    ) -> Result<Self, CacheConfigError> {
        if lines == 0 {
            return Err(CacheConfigError::ZeroSize);
        }
        if !line_words.is_power_of_two() {
            return Err(CacheConfigError::BadLineWords { line_words });
        }
        Self::build(
            Geometry::new(1, lines, line_words),
            Mapper::Pow2(Pow2Mapper::new(1)),
            policy,
        )
    }

    /// The paper's prime-mapped cache: `2^c − 1` direct-mapped lines.
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn prime_mapped(exponent: u32, line_words: u64) -> Result<Self, CacheConfigError> {
        Self::prime_mapped_associative(exponent, 1, line_words, ReplacementPolicy::Lru)
    }

    /// A prime-mapped cache with `2^c − 1` sets of `ways` lines — an
    /// extension the paper leaves open (its design is direct-mapped).
    ///
    /// # Errors
    ///
    /// See [`CacheConfigError`].
    pub fn prime_mapped_associative(
        exponent: u32,
        ways: u64,
        line_words: u64,
        policy: ReplacementPolicy,
    ) -> Result<Self, CacheConfigError> {
        if ways == 0 {
            return Err(CacheConfigError::ZeroSize);
        }
        if !line_words.is_power_of_two() {
            return Err(CacheConfigError::BadLineWords { line_words });
        }
        let mapper =
            PrimeMapper::new(exponent).map_err(|e| CacheConfigError::BadMersenneExponent {
                exponent: e.exponent(),
            })?;
        let sets = mapper.num_sets();
        if sets > MAX_SIMULATED_LINES {
            return Err(CacheConfigError::TooManySets { sets });
        }
        Self::build(
            Geometry::new(sets, ways, line_words),
            Mapper::Prime(mapper),
            policy,
        )
    }

    fn build(
        geometry: Geometry,
        mapper: Mapper,
        policy: ReplacementPolicy,
    ) -> Result<Self, CacheConfigError> {
        let (sets, ways) = (geometry.sets(), geometry.ways());
        let lines = sets
            .checked_mul(ways)
            .filter(|&lines| lines <= MAX_SIMULATED_LINES)
            .ok_or(CacheConfigError::TooManyLines { sets, ways })?;
        let ways = ways as usize;
        Ok(Self {
            geometry,
            mapper,
            policy,
            line_shift: geometry.line_words().trailing_zeros(),
            ways,
            entries: vec![Entry::default(); lines as usize],
            filled: vec![0; sets as usize],
            ranks: Vec::with_capacity(if policy == ReplacementPolicy::Random {
                ways
            } else {
                0
            }),
            shadow: ShadowCache::new(lines),
            stats: CacheStats::default(),
            clock: 0,
            rng: StdRng::seed_from_u64(RNG_SEED),
        })
    }

    /// The line containing `word`.
    fn line_of(&self, word: WordAddr) -> LineAddr {
        LineAddr::new(word.value() >> self.line_shift)
    }

    /// The geometry in effect.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The mapping scheme name (`"pow2"` or `"prime"`).
    #[must_use]
    pub fn scheme_name(&self) -> &'static str {
        self.mapper.scheme_name()
    }

    /// The replacement policy in effect.
    #[must_use]
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set index the mapper assigns to `word`.
    #[must_use]
    pub fn set_of(&self, word: WordAddr) -> u64 {
        self.mapper.index(self.line_of(word))
    }

    /// True if the line containing `word` is resident.
    #[must_use]
    pub fn contains(&self, word: WordAddr) -> bool {
        let line = self.line_of(word);
        let set = self.mapper.index(line) as usize;
        let start = set * self.ways;
        self.entries[start..start + self.filled[set]]
            .iter()
            .any(|e| e.line == line)
    }

    /// Accesses `word` on behalf of `stream`, updating residency, the
    /// classification shadow, and counters.
    pub fn access(&mut self, word: WordAddr, stream: StreamId) -> AccessResult {
        self.clock += 1;
        let line = self.line_of(word);
        let set_idx = self.mapper.index(line);
        let verdict = self.shadow.touch(line);
        let start = set_idx as usize * self.ways;
        let set = &mut self.entries[start..start + self.ways];
        let filled = &mut self.filled[set_idx as usize];

        if let Some(entry) = set[..*filled].iter_mut().find(|e| e.line == line) {
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

        // Miss: fill a free way, or replace a victim if the set is full.
        let fresh = Entry {
            line,
            stream,
            last_use: self.clock,
            filled_at: self.clock,
        };
        let evicted = if *filled < self.ways {
            set[*filled] = fresh;
            *filled += 1;
            None
        } else {
            let stamps = set.iter().map(|e| (e.last_use, e.filled_at));
            let victim = self.policy.victim(stamps, &mut self.rng, &mut self.ranks);
            Some(std::mem::replace(&mut set[victim], fresh))
        };

        let kind = match verdict {
            ShadowVerdict::ColdMiss => MissKind::Compulsory,
            ShadowVerdict::CapacityMiss => MissKind::Capacity,
            ShadowVerdict::Hit => {
                // The mapping is at fault. Attribute by the displaced line's
                // stream; a miss with no eviction but a shadow hit means the
                // line was previously displaced by some earlier conflict —
                // attribute by the stream of whatever displaced it; lacking
                // that history, fall back on the incoming stream (self).
                match evicted {
                    Some(e) if e.stream != stream => MissKind::ConflictCross,
                    _ => MissKind::ConflictSelf,
                }
            }
        };
        self.stats.record_miss(kind);

        AccessResult {
            line,
            set: set_idx,
            miss: Some(kind),
            evicted: evicted.map(|e| e.line),
        }
    }

    /// Accesses `word` exactly like [`CacheSim::access`], additionally
    /// emitting a [`TraceEvent::CacheAccess`] into `sink`.
    ///
    /// The untraced path stays untouched: this wrapper synthesizes the
    /// event from the returned [`AccessResult`], so code that never
    /// attaches a sink pays nothing.
    pub fn access_traced(
        &mut self,
        word: WordAddr,
        stream: StreamId,
        sink: &mut dyn TraceSink,
    ) -> AccessResult {
        let result = self.access(word, stream);
        sink.record(&TraceEvent::CacheAccess {
            seq: self.clock,
            word: word.value(),
            stream: stream.value(),
            set: result.set,
            miss: result.miss.map(MissKind::trace_class),
            evicted: result.evicted.map(|l| l.value()),
        });
        result
    }

    /// Runs a strided vector through the cache like
    /// [`CacheSim::access_stream`], emitting one event per access.
    /// Returns the number of misses.
    pub fn access_stream_traced(
        &mut self,
        base: WordAddr,
        stride: u64,
        length: u64,
        stream: StreamId,
        sink: &mut dyn TraceSink,
    ) -> u64 {
        let mut misses = 0;
        for i in 0..length {
            if !self
                .access_traced(base.offset(i, stride), stream, sink)
                .is_hit()
            {
                misses += 1;
            }
        }
        misses
    }

    /// Runs a strided vector through the cache: `length` words starting at
    /// `base`, `stride` words apart, all tagged with `stream`. Returns the
    /// number of misses.
    pub fn access_stream(
        &mut self,
        base: WordAddr,
        stride: u64,
        length: u64,
        stream: StreamId,
    ) -> u64 {
        let mut misses = 0;
        for i in 0..length {
            if !self.access(base.offset(i, stride), stream).is_hit() {
                misses += 1;
            }
        }
        misses
    }

    /// Replays a tagged word sequence `sweeps` times and returns the
    /// accumulated conflict-miss count (classified by the shadow cache).
    ///
    /// This is the differential-validation hook for the static analyzer:
    /// a conflict-freedom verdict or certificate is checked by replaying
    /// the footprint twice — the second sweep can only miss on index
    /// collisions (or capacity), so within capacity zero conflict misses
    /// here is the ground truth for `ConflictFree`.
    pub fn replay_sweeps<I>(&mut self, words: I, sweeps: u64) -> u64
    where
        I: IntoIterator<Item = (u64, u32)>,
        I::IntoIter: Clone,
    {
        let it = words.into_iter();
        for _ in 0..sweeps {
            for (word, stream) in it.clone() {
                self.access(WordAddr::new(word), StreamId::new(stream));
            }
        }
        self.stats().conflict_misses()
    }

    /// Empties the cache, clears counters and reseeds the Random policy,
    /// so a reset cache behaves exactly like a freshly built one.
    pub fn reset(&mut self) {
        self.filled.fill(0);
        self.shadow.clear();
        self.stats = CacheStats::default();
        self.clock = 0;
        self.rng = StdRng::seed_from_u64(RNG_SEED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s0() -> StreamId {
        StreamId::new(0)
    }

    #[test]
    fn constructor_validation() {
        assert!(CacheSim::direct_mapped(8, 1).is_ok());
        assert!(matches!(
            CacheSim::direct_mapped(6, 1),
            Err(CacheConfigError::LinesNotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheSim::direct_mapped(0, 1),
            Err(CacheConfigError::ZeroSize)
        ));
        assert!(matches!(
            CacheSim::direct_mapped(8, 3),
            Err(CacheConfigError::BadLineWords { line_words: 3 })
        ));
        assert!(matches!(
            CacheSim::set_associative(8, 3, 1, ReplacementPolicy::Lru),
            Err(CacheConfigError::WaysDoNotDivideLines { .. })
        ));
        assert!(matches!(
            CacheSim::prime_mapped(11, 1),
            Err(CacheConfigError::BadMersenneExponent { exponent: 11 })
        ));
        assert!(CacheSim::prime_mapped(13, 1).is_ok());
        // 2^61 - 1 is a valid Mersenne prime but not a simulatable size.
        assert!(matches!(
            CacheSim::prime_mapped(61, 1),
            Err(CacheConfigError::TooManySets { .. })
        ));
        assert!(matches!(
            CacheSim::direct_mapped(1 << 40, 1),
            Err(CacheConfigError::TooManySets { .. })
        ));
        assert!(CacheSim::fully_associative(16, 1, ReplacementPolicy::Lru).is_ok());
        assert!(matches!(
            CacheSim::fully_associative(0, 1, ReplacementPolicy::Lru),
            Err(CacheConfigError::ZeroSize)
        ));
    }

    #[test]
    fn error_messages() {
        for e in [
            CacheConfigError::LinesNotPowerOfTwo { lines: 6 },
            CacheConfigError::WaysDoNotDivideLines { lines: 8, ways: 3 },
            CacheConfigError::BadLineWords { line_words: 3 },
            CacheConfigError::BadMersenneExponent { exponent: 11 },
            CacheConfigError::ZeroSize,
            CacheConfigError::TooManySets { sets: 1 << 61 },
            CacheConfigError::TooManyLines {
                sets: 1,
                ways: 1 << 40,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = CacheSim::direct_mapped(8, 1).unwrap();
        let r = c.access(WordAddr::new(5), s0());
        assert_eq!(r.miss, Some(MissKind::Compulsory));
        assert_eq!(r.set, 5);
        let r = c.access(WordAddr::new(5), s0());
        assert!(r.is_hit());
        assert!(c.contains(WordAddr::new(5)));
    }

    #[test]
    fn direct_mapped_conflict_same_set() {
        let mut c = CacheSim::direct_mapped(8, 1).unwrap();
        c.access(WordAddr::new(0), s0());
        let r = c.access(WordAddr::new(8), s0()); // same set 0
        assert_eq!(r.miss, Some(MissKind::Compulsory)); // first touch of line 8
        assert_eq!(r.evicted, Some(LineAddr::new(0)));
        // Re-touch line 0: shadow (8 lines, only 2 touched) still holds it →
        // conflict, displaced by same stream → self-interference.
        let r = c.access(WordAddr::new(0), s0());
        assert_eq!(r.miss, Some(MissKind::ConflictSelf));
    }

    #[test]
    fn cross_interference_attributed_to_other_stream() {
        let mut c = CacheSim::direct_mapped(8, 1).unwrap();
        let (a, b) = (StreamId::new(1), StreamId::new(2));
        c.access(WordAddr::new(0), a);
        c.access(WordAddr::new(8), b); // b evicts a's line
        let r = c.access(WordAddr::new(0), a); // a misses; victim (line 8) is b's
        assert_eq!(r.miss, Some(MissKind::ConflictCross));
        assert_eq!(c.stats().cross_interference_misses, 1);
    }

    #[test]
    fn capacity_miss_when_working_set_exceeds_cache() {
        let mut c = CacheSim::direct_mapped(4, 1).unwrap();
        // Touch 8 distinct lines twice: second pass misses are capacity
        // (the 4-line fully-associative shadow cannot hold 8 lines either).
        for pass in 0..2 {
            for i in 0..8u64 {
                let r = c.access(WordAddr::new(i * 4), s0()); // all map to set 0? no: i*4 mod 4
                let _ = (pass, r);
            }
        }
        // 8 lines with stride 4 on 4 sets: lines 0,4,8,..28 → sets 0,..;
        // line addr = word addr (1 word/line): sets = addr mod 4 = 0.
        // All in set 0 → direct cache thrashes; shadow holds last 4 lines.
        let s = c.stats();
        assert_eq!(s.accesses, 16);
        assert_eq!(s.hits, 0);
        assert_eq!(s.compulsory_misses, 8);
        // Second pass: line i was evicted from the shadow (8 > 4) → capacity.
        assert_eq!(s.capacity_misses, 8);
    }

    #[test]
    fn set_associative_absorbs_pow2_stride_conflicts_up_to_ways() {
        // 4 lines mapping to one set: 4-way associativity holds them all.
        let mut c = CacheSim::set_associative(32, 4, 1, ReplacementPolicy::Lru).unwrap();
        for _ in 0..2 {
            for i in 0..4u64 {
                c.access(WordAddr::new(i * 8), s0()); // set = (i*8) mod 8 = 0
            }
        }
        assert_eq!(c.stats().hits, 4);
        assert_eq!(c.stats().conflict_misses(), 0);
    }

    #[test]
    fn lru_replacement_in_set() {
        let mut c = CacheSim::set_associative(4, 2, 1, ReplacementPolicy::Lru).unwrap();
        // Set 0 gets lines 0, 2, touch 0, then 4 evicts LRU (=2).
        c.access(WordAddr::new(0), s0());
        c.access(WordAddr::new(2), s0());
        c.access(WordAddr::new(0), s0());
        let r = c.access(WordAddr::new(4), s0());
        assert_eq!(r.evicted, Some(LineAddr::new(2)));
        assert!(c.contains(WordAddr::new(0)));
    }

    #[test]
    fn fifo_replacement_ignores_reuse() {
        let mut c = CacheSim::set_associative(4, 2, 1, ReplacementPolicy::Fifo).unwrap();
        c.access(WordAddr::new(0), s0());
        c.access(WordAddr::new(2), s0());
        c.access(WordAddr::new(0), s0()); // reuse does not save line 0 under FIFO
        let r = c.access(WordAddr::new(4), s0());
        assert_eq!(r.evicted, Some(LineAddr::new(0)));
    }

    #[test]
    fn prime_mapped_pow2_stride_is_conflict_free() {
        // The paper's headline behaviour, at paper scale: C = 8191 lines,
        // stride 512 (a 2-power), vector of 8191 elements → every line maps
        // to a distinct set; a second pass hits every time.
        let mut c = CacheSim::prime_mapped(13, 1).unwrap();
        let misses1 = c.access_stream(WordAddr::new(0), 512, 8191, s0());
        let misses2 = c.access_stream(WordAddr::new(0), 512, 8191, s0());
        assert_eq!(misses1, 8191); // all compulsory
        assert_eq!(misses2, 0);
        assert_eq!(c.stats().conflict_misses(), 0);
    }

    #[test]
    fn direct_mapped_pow2_stride_thrashes() {
        // Contrast case: same experiment on the 8192-line direct cache.
        // Stride 512 touches 8192/gcd(8192,512) = 16 sets only.
        let mut c = CacheSim::direct_mapped(8192, 1).unwrap();
        let n = 8191;
        c.access_stream(WordAddr::new(0), 512, n, s0());
        let misses2 = c.access_stream(WordAddr::new(0), 512, n, s0());
        assert_eq!(misses2, n); // zero reuse
        assert!(c.stats().conflict_misses() > 0);
    }

    #[test]
    fn fully_associative_no_conflicts_by_construction() {
        let mut c = CacheSim::fully_associative(8, 1, ReplacementPolicy::Lru).unwrap();
        for i in 0..64u64 {
            c.access(WordAddr::new(i % 16), s0());
        }
        assert_eq!(c.stats().conflict_misses(), 0);
    }

    #[test]
    fn line_size_exploits_spatial_locality() {
        let mut c = CacheSim::direct_mapped(8, 4).unwrap();
        c.access(WordAddr::new(0), s0());
        for w in 1..4u64 {
            assert!(c.access(WordAddr::new(w), s0()).is_hit(), "word {w}");
        }
        assert!(!c.access(WordAddr::new(4), s0()).is_hit());
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = CacheSim::prime_mapped(5, 1).unwrap();
        c.access(WordAddr::new(1), s0());
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.contains(WordAddr::new(1)));
    }

    #[test]
    fn reset_replays_random_replacement_like_a_fresh_cache() {
        // Eight lines cycling through one 4-way set: every miss past the
        // fourth draws a Random victim, so the replay only matches if
        // reset() restores the generator's seed.
        let trace: Vec<u64> = (0..200u64).map(|i| (i * 5 % 8) * 16).collect();
        let run = |c: &mut CacheSim| -> Vec<AccessResult> {
            trace
                .iter()
                .map(|&w| c.access(WordAddr::new(w), s0()))
                .collect()
        };
        let build = || CacheSim::set_associative(16, 4, 1, ReplacementPolicy::Random).unwrap();
        let mut used = build();
        let first = run(&mut used);
        used.reset();
        assert_eq!(run(&mut used), first);
        assert_eq!(run(&mut build()), first);
        assert!(first.iter().any(|r| r.evicted.is_some()));
    }

    #[test]
    fn line_allocation_is_bounded() {
        assert!(matches!(
            CacheSim::fully_associative(1 << 40, 1, ReplacementPolicy::Lru),
            Err(CacheConfigError::TooManyLines { sets: 1, .. })
        ));
        assert!(matches!(
            CacheSim::set_associative(1 << 40, 1 << 30, 1, ReplacementPolicy::Lru),
            Err(CacheConfigError::TooManyLines { sets: 1024, .. })
        ));
    }

    #[test]
    fn replay_sweeps_matches_manual_double_sweep() {
        // 8 lines all mapping to set 0 of a 16-line direct cache: the
        // second sweep misses on every one and the shadow classifies the
        // repeats as conflicts.
        let colliding: Vec<(u64, u32)> = (0..8u64).map(|i| (i * 16, 0)).collect();
        let mut c = CacheSim::direct_mapped(16, 1).unwrap();
        let conflicts = c.replay_sweeps(colliding.iter().copied(), 2);
        assert!(conflicts > 0);
        assert_eq!(conflicts, c.stats().conflict_misses());
        // A unit-stride footprint that fits is conflict-free.
        let mut c = CacheSim::direct_mapped(16, 1).unwrap();
        assert_eq!(c.replay_sweeps((0..8u64).map(|w| (w, 0)), 2), 0);
    }

    #[test]
    fn accessors() {
        let c = CacheSim::prime_mapped(5, 1).unwrap();
        assert_eq!(c.geometry().total_lines(), 31);
        assert_eq!(c.scheme_name(), "prime");
        assert_eq!(c.policy(), ReplacementPolicy::Lru);
        assert_eq!(c.set_of(WordAddr::new(32)), 1);
        assert_eq!(StreamId::new(3).to_string(), "stream3");
        assert_eq!(StreamId::new(3).value(), 3);
    }
}
