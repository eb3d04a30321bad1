//! `sim`: trace-driven simulation. A seeded mix of the paper's access
//! families (random multistride VCM, sub-block row/column with leading
//! dimension P, blocked FFT, plus single-stride vectors) is replayed
//! through three cache organizations and the MM/CC machines. Working
//! sets lie on both sides of the 8K-line capacity, so some replays are
//! dominated by hits and others by evictions and miss classification.
//! No static analysis or serving code runs in the timed loop.

use std::hint::black_box;
use std::time::{Duration, Instant};

use vcache_cache::{CacheConfigError, CacheSim, ReplacementPolicy, StreamId, WordAddr};
use vcache_check::{analyze_program, Geometry};
use vcache_machine::{CacheSpec, CcMachine, ExecutionReport, MachineConfig, MmMachine};
use vcache_mersenne::MersenneModulus;
use vcache_workloads::{
    fft_two_dim_trace, generate_program, subblock_trace, FftLayout, Program, Vcm, VectorAccess,
};

use crate::stats::{median, ratio};
use crate::trace::{by_label, Tracer};
use crate::{cpu_seconds, peak_rss_mb, Config, RunResult, Setups};

/// Lines in every simulated cache (8191 for the prime organization).
const LINES: u64 = 8192;
const EXPONENT: u32 = 13;
/// Memory access time of the machines, in cycles.
const T_M: u64 = 32;
/// Passes whose sub-block and single-stride programs are also checked
/// against Layer 2 (each check is a full static analysis, so not all).
const LAYER2_PASSES: u64 = 4;

/// A deterministic xorshift64* stream for choosing program parameters.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // Spread small seeds over the state space; never zero.
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next() % items.len() as u64) as usize]
    }
}

/// One program of the mix.
struct Item {
    /// What the machines execute and the caches replay.
    program: Program,
    /// `program` materialized as (word, stream) pairs.
    words: Vec<(u64, u32)>,
    /// For sub-block and single-stride programs: one sweep of the
    /// footprint, which Layer 2 analyzes. `program` is two sweeps of it,
    /// so its conflict misses are the double-sweep oracle.
    footprint: Option<Program>,
}

fn twice(p: &Program) -> Program {
    let mut accesses = p.accesses.clone();
    accesses.extend(p.accesses.iter().cloned());
    Program::new(format!("2x {}", p.name), accesses)
}

/// The seeded program mix of one pass. Each family contributes the
/// same classes in every mix (for instance, one power-of-two and one
/// other leading dimension per sub-block shape), and sizes depend only on
/// the family parameters, so every seed and pass does a like amount of
/// work; the seed moves strides, leading dimensions and bases within
/// each class.
fn mix(seed: u64, pass: u64) -> Vec<Item> {
    let mut rng = Rng::new(seed.wrapping_mul(0x1_0000_0001).wrapping_add(pass));
    let mut programs: Vec<(Program, Option<Program>)> = Vec::new();
    // Random multistride VCM, blocking factor below and above capacity.
    for b in [1024, 2048, 4096, 12_288, 16_384] {
        let vcm = Vcm::random_multistride(b, 3, 0.25, LINES);
        programs.push((generate_program(&vcm, 24_576, rng.next()), None));
    }
    // Row/column access: a unit-stride column and a stride-P row, with
    // a power-of-two and another leading dimension P.
    for b in [4096, 12_288] {
        for p in [1024 << rng.range(0, 3), rng.range(1000, 9000)] {
            let vcm = Vcm::row_column(p, b, 3, 0.5);
            programs.push((generate_program(&vcm, 12_288, rng.next()), None));
        }
    }
    // Blocked FFT: the one-dimensional model and the 2-D blocked form.
    for b in [4096, 16_384] {
        programs.push((generate_program(&Vcm::blocked_fft(b), b, rng.next()), None));
    }
    for (b1, b2) in [(64, 64), (128, 64)] {
        programs.push((fft_two_dim_trace(FftLayout { b1, b2 }), None));
    }
    // Sub-blocks of a P-row column-major matrix, within and past capacity.
    for (b1, b2) in [(64, 64), (96, 64), (128, 96), (128, 128)] {
        for p in [2048 << rng.range(0, 3), rng.range(b1, 20_000)] {
            let base = rng.range(0, 1 << 20);
            let block = subblock_trace(base, p, b2, (0, 0), (b1, b2), 0);
            programs.push((twice(&block), Some(block)));
        }
    }
    // Single-stride vectors: unit, small, power-of-two (the direct-mapped
    // worst case), a multiple of 8191 (the prime worst case) and other.
    let strides = [
        1,
        rng.range(2, 16),
        1 << rng.range(10, 14),
        8191 * rng.range(1, 2),
        rng.range(17, 20_000) | 1,
    ];
    for stride in strides {
        for length in [4000, 10_000] {
            let base = rng.range(1 << 20, 1 << 24);
            let single = Program::new(
                format!("single[stride={stride}, n={length}]"),
                vec![VectorAccess::single(base, stride as i64, length, 0)],
            );
            programs.push((twice(&single), Some(single)));
        }
    }
    programs
        .into_iter()
        .map(|(program, footprint)| Item {
            words: program.words().collect(),
            program,
            footprint,
        })
        .collect()
}

/// Where a program is replayed.
enum Target {
    Org(&'static str, Box<CacheSim>),
    Mm(MmMachine),
    Cc(&'static str, MachineConfig),
}

impl Target {
    fn label(&self) -> &'static str {
        match self {
            Self::Org(label, _) | Self::Cc(label, _) => label,
            Self::Mm(_) => "machine.mm",
        }
    }
}

fn targets() -> Result<Vec<Target>, String> {
    let org = |label, sim: Result<CacheSim, CacheConfigError>| {
        sim.map(|sim| Target::Org(label, Box::new(sim)))
            .map_err(|e| e.to_string())
    };
    let base = MachineConfig::paper_default(T_M);
    Ok(vec![
        org("cache.direct", CacheSim::direct_mapped(LINES, 1))?,
        org("cache.prime", CacheSim::prime_mapped(EXPONENT, 1))?,
        org(
            "cache.assoc4",
            CacheSim::set_associative(LINES, 4, 1, ReplacementPolicy::Lru),
        )?,
        Target::Mm(MmMachine::new(base.clone()).map_err(|e| e.to_string())?),
        Target::Cc(
            "machine.cc_direct",
            base.with_cache(CacheSpec::direct(LINES)),
        ),
        Target::Cc(
            "machine.cc_prime",
            base.with_cache(CacheSpec::prime(EXPONENT)),
        ),
    ])
}

/// Simulated outcome of one replay. Equal inputs must give equal values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Sim {
    accesses: u64,
    hits: u64,
    conflicts: u64,
    cycles: f64,
    results: u64,
    cache_stalls: u64,
    memory_stalls: u64,
}

/// Replays one item on one target from an empty cache. `Err` when the
/// simulator's own counts disagree with what it answered.
fn replay(target: &mut Target, item: &Item) -> Result<Sim, String> {
    match target {
        Target::Org(label, sim) => {
            sim.reset();
            let (mut hits, mut misses) = (0u64, 0u64);
            for &(word, stream) in &item.words {
                if sim
                    .access(WordAddr::new(word), StreamId::new(stream))
                    .is_hit()
                {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            let s = sim.stats();
            let classified = s.compulsory_misses
                + s.capacity_misses
                + s.self_interference_misses
                + s.cross_interference_misses;
            if s.hits != hits || classified != misses || s.accesses != hits + misses {
                return Err(format!(
                    "{label} on {}: {hits} hits + {misses} misses answered, counters say {s:?}",
                    item.program.name
                ));
            }
            Ok(Sim {
                accesses: s.accesses,
                hits: s.hits,
                conflicts: s.conflict_misses(),
                ..Sim::default()
            })
        }
        Target::Mm(machine) => Ok(from_report(&machine.execute(&item.program))),
        Target::Cc(_, config) => {
            let mut machine = CcMachine::new(config.clone()).map_err(|e| e.to_string())?;
            Ok(from_report(&machine.execute(&item.program)))
        }
    }
}

fn from_report(r: &ExecutionReport) -> Sim {
    let stats = r.cache_stats.unwrap_or_default();
    Sim {
        accesses: r.elements,
        hits: stats.hits,
        conflicts: stats.conflict_misses(),
        cycles: r.cycles,
        results: r.results,
        cache_stalls: r.cache_stall_cycles,
        memory_stalls: r.memory_stall_cycles,
    }
}

/// One run of the timed loop.
#[derive(Default)]
struct Phase {
    accesses: u64,
    /// Time spent replaying (mix generation excluded).
    busy: Duration,
    /// CPU time spent replaying.
    cpu_s: f64,
    /// Simulated accesses per second of each pass.
    pass_rates: Vec<f64>,
    /// Wall milliseconds per 1000 simulated accesses of each pass.
    pass_ms_per_kaccess: Vec<f64>,
    replays: u64,
    failed: u64,
    /// Per pass, per (item, target): the simulated outcome.
    sims: Vec<Vec<Vec<Sim>>>,
    /// Layer-2 verdicts checked against replays, and disagreements.
    layer2: (u64, u64),
}

/// Replays whole passes until `window` of replay time has passed. Pass
/// `k` replays the seeded mix `k` (`first` is mix 0, built in set-up),
/// so every program carries the same weight and a run covers many
/// independent draws of each class. `between` runs before each later
/// pass, given the share of `window` done, outside the timed replay.
fn timed_passes(
    seed: u64,
    first: &[Item],
    targets: &mut [Target],
    window: Duration,
    tracer: &mut Tracer,
    between: &mut dyn FnMut(f64) -> Result<(), String>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut pass = 0u64;
    while pass == 0 || phase.busy < window {
        if pass > 0 {
            between(phase.busy.as_secs_f64() / window.as_secs_f64())?;
        }
        let generated;
        let items = if pass == 0 {
            first
        } else {
            generated = mix(seed, pass);
            &generated
        };
        let start = Instant::now();
        let cpu_start = cpu_seconds(None)?;
        let mut accesses = 0;
        let mut rows = Vec::with_capacity(items.len());
        for item in items {
            let mut row = Vec::with_capacity(targets.len());
            for target in targets.iter_mut() {
                tracer.begin(target.label());
                let outcome = replay(target, item);
                let sim = outcome.unwrap_or_else(|e| {
                    eprintln!("sim: {e}");
                    phase.failed += 1;
                    Sim::default()
                });
                tracer.end(sim.accesses);
                accesses += sim.accesses;
                phase.replays += 1;
                row.push(sim);
            }
            rows.push(row);
        }
        let took = start.elapsed();
        phase.cpu_s += cpu_seconds(None)? - cpu_start;
        phase.busy += took;
        phase.accesses += accesses;
        phase.pass_rates.push(accesses as f64 / took.as_secs_f64());
        phase
            .pass_ms_per_kaccess
            .push(took.as_secs_f64() * 1e6 / accesses as f64);
        if pass < LAYER2_PASSES {
            let (checked, wrong) = layer2_agreement(items, &rows)?;
            phase.layer2.0 += checked;
            phase.layer2.1 += wrong;
        }
        phase.sims.push(rows);
        pass += 1;
    }
    Ok(phase)
}

/// Layer 2's static verdict must agree with the simulator: conflict-free
/// iff zero conflict misses over two sweeps, when the footprint fits
/// (conflict-free implies zero conflict misses even past capacity).
/// Returns (checked, disagreements).
fn layer2_agreement(items: &[Item], rows: &[Vec<Sim>]) -> Result<(u64, u64), String> {
    let geometries = [
        (0, Geometry::pow2(LINES, 1).map_err(|e| e.to_string())?),
        (1, Geometry::prime(EXPONENT, 1).map_err(|e| e.to_string())?),
    ];
    let (mut checked, mut wrong) = (0, 0);
    for (item, row) in items.iter().zip(rows) {
        let Some(footprint) = &item.footprint else {
            continue;
        };
        for (slot, geometry) in &geometries {
            let analysis = analyze_program(footprint, geometry).map_err(|e| e.to_string())?;
            let free = analysis.verdict.is_conflict_free();
            let conflicts = row[*slot].conflicts;
            checked += 1;
            if (free && conflicts != 0) || (!free && !analysis.exceeds_capacity && conflicts == 0) {
                eprintln!(
                    "sim: {} on {geometry}: Layer 2 says {} but the simulator saw {conflicts} conflict misses",
                    footprint.name,
                    analysis.verdict.label()
                );
                wrong += 1;
            }
        }
    }
    Ok((checked, wrong))
}

/// Median over seven sweeps of the time `index` takes per element.
fn per_element_ns(lines: &[u64], index: impl Fn(u64) -> u64) -> f64 {
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for &x in lines {
                acc = acc.wrapping_add(index(black_box(x)));
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e9 / lines.len() as f64
        })
        .collect();
    median(&samples)
}

/// Per-element cost of the Mersenne index reduction against the
/// power-of-two mask, over the line addresses the prime cache sees.
fn mersenne_probe(items: &[Item], result: &mut RunResult) -> Result<(), String> {
    let m = MersenneModulus::new(EXPONENT).map_err(|e| e.to_string())?;
    let lines: Vec<u64> = items
        .iter()
        .flat_map(|i| i.words.iter().map(|&(w, _)| w))
        .take(1 << 21)
        .collect();
    let mask = LINES - 1;
    let reduce = per_element_ns(&lines, |x| m.reduce(x));
    let masked = per_element_ns(&lines, |x| x & mask);
    result.set("mersenne.reduce_ns", reduce);
    result.set("mersenne.mask_ns", masked);
    result.set("mersenne.reduce_over_mask", ratio(reduce, masked));
    Ok(())
}

pub fn run(config: &Config) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mut generate = Vec::new();
    let ((items, mut targets), mut setups) = Setups::start(|| {
        let t = Instant::now();
        let items = mix(config.seed, 0);
        generate.push(t.elapsed().as_secs_f64());
        Ok((items, targets()?))
    })?;
    let accesses_per_pass: u64 = items.iter().map(|i| i.words.len() as u64).sum();
    result.note(format!(
        "sim: seed {}, {} programs and {accesses_per_pass} accesses per target in each pass's mix, {} targets; every replay starts from an empty cache",
        config.seed,
        items.len(),
        targets.len()
    ));

    let window = Duration::from_secs_f64(if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    });
    let plain = timed_passes(
        config.seed,
        &items,
        &mut targets,
        window,
        &mut Tracer::off(),
        &mut |progress| setups.due(progress),
    )?;
    let setup_s = setups.median()?;
    let (checked, wrong) = plain.layer2;
    result.note(format!(
        "sim: Layer-2 verdicts checked against double-sweep replays: {checked}, disagreeing: {wrong}"
    ));
    result.attempted = plain.replays + checked;
    result.failed = plain.failed + wrong;
    result.set("setup_s", setup_s);
    result.set("peak_rss_mb", peak_rss_mb(None)?);
    result.set("ops_per_cpu_s", ratio(plain.accesses as f64, plain.cpu_s));
    result.set("ops_per_s", median(&plain.pass_rates));
    // Each pass replays a like mix on every target, so the per-pass
    // figures have one peak; single replays (4K to 24K accesses, on six
    // targets) would not.
    result.set_latency(
        "sim replay time per 1000 simulated accesses, one sample per pass",
        &plain.pass_ms_per_kaccess,
    );
    result.note(format!(
        "sim: {} passes, {} replays, {} simulated accesses in {:.3} s ({:.2} CPU-s) of replay",
        plain.pass_rates.len(),
        plain.replays,
        plain.accesses,
        plain.busy.as_secs_f64(),
        plain.cpu_s
    ));
    if !config.trace {
        return Ok(result);
    }

    let mut tracer = Tracer::on(Instant::now());
    let traced = timed_passes(
        config.seed,
        &items,
        &mut targets,
        window,
        &mut tracer,
        &mut |_| Ok(()),
    )?;
    result.attempted += traced.replays + traced.layer2.0;
    result.failed += traced.failed + traced.layer2.1;
    // The same mixes must simulate the same results, traced or not.
    let differing = plain
        .sims
        .iter()
        .zip(&traced.sims)
        .filter(|(a, b)| a != b)
        .count();
    if differing > 0 {
        eprintln!("sim: {differing} passes simulated differently when traced");
    }
    result.failed += differing as u64;
    let path = config
        .out_dir
        .join(format!("sim-{}.spans.jsonl", config.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    result.note(format!("sim: spans written to {}", path.display()));

    let per_access = |p: &Phase| p.busy.as_secs_f64() / p.accesses as f64;
    result.set(
        "trace.overhead_ratio",
        per_access(&traced) / per_access(&plain),
    );
    result.set("workloads.generate_s", median(&generate));

    let spans = by_label(tracer.spans());
    for (label, metric) in [
        ("cache.direct", "cache.direct.access_ns"),
        ("cache.prime", "cache.prime.access_ns"),
        ("cache.assoc4", "cache.assoc4.access_ns"),
    ] {
        if let Some(s) = spans.get(label) {
            result.set(metric, ratio(s.self_total_us() * 1e3, s.work as f64));
        }
    }
    for (label, metric) in [
        ("machine.mm", "machine.mm.execute_s"),
        ("machine.cc_direct", "machine.cc_direct.execute_s"),
        ("machine.cc_prime", "machine.cc_prime.execute_s"),
    ] {
        if let Some(s) = spans.get(label) {
            // Seconds per pass over the whole mix.
            result.set(metric, s.self_total_us() / 1e6 / traced.sims.len() as f64);
        }
    }

    // Simulated statistics of the first pass: exact, seed-determined.
    let column = |slot: usize| -> Sim {
        plain.sims[0].iter().fold(Sim::default(), |mut acc, row| {
            let s = row[slot];
            acc.accesses += s.accesses;
            acc.hits += s.hits;
            acc.conflicts += s.conflicts;
            acc.cycles += s.cycles;
            acc.results += s.results;
            acc.cache_stalls += s.cache_stalls;
            acc.memory_stalls += s.memory_stalls;
            acc
        })
    };
    let (direct, prime, assoc4) = (column(0), column(1), column(2));
    let (mm, cc_direct, cc_prime) = (column(3), column(4), column(5));
    result.set(
        "cache.direct.hit_ratio",
        ratio(direct.hits as f64, direct.accesses as f64),
    );
    result.set(
        "cache.prime.hit_ratio",
        ratio(prime.hits as f64, prime.accesses as f64),
    );
    result.set(
        "cache.assoc4.hit_ratio",
        ratio(assoc4.hits as f64, assoc4.accesses as f64),
    );
    result.set("cache.direct.conflict_misses", direct.conflicts as f64);
    result.set("cache.prime.conflict_misses", prime.conflicts as f64);
    let cpr = |s: &Sim| ratio(s.cycles, s.results as f64);
    result.set("machine.mm.cycles_per_result", cpr(&mm));
    result.set("machine.cc_direct.cycles_per_result", cpr(&cc_direct));
    result.set("machine.cc_prime.cycles_per_result", cpr(&cc_prime));
    result.set(
        "machine.cc_prime.cache_stall_cycles",
        cc_prime.cache_stalls as f64,
    );
    result.set("machine.mm.memory_stall_cycles", mm.memory_stalls as f64);
    mersenne_probe(&items, &mut result)?;
    Ok(result)
}
