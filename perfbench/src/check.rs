//! `check`: the static-analysis gate users run in CI, in process
//! (`run_check_observed`, every layer except the source lints, with
//! `prescribe`), followed by a seeded population: battery-style random
//! nests under pow2 and prime geometries, the planner on every
//! interfering one, seeded VCM programs through Layer 2, lattice nests
//! at trips 2^8 and 2^12 through the relational domain, and seeded
//! non-affine profiles through Layer 4. The cache simulator runs only
//! inside Monte-Carlo validation; nothing is served.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vcache_cache::CacheSim;
use vcache_check::relational::{decide_pair, decide_within};
use vcache_check::{
    analyze_nest, analyze_profile, analyze_program, battery, monte_carlo, plan, run_check_observed,
    AccessProfile, AffineRef, CheckOptions, Geometry, LoopNest, NestAnalysis, Plan, Report, Term,
    DEFAULT_MAX_PAD,
};
use vcache_workloads::{generate_program, Program, Vcm};

use crate::sim::Rng;
use crate::stats::{median, ratio, Summary};
use crate::trace::{by_label, Tracer};
use crate::{cpu_seconds, peak_rss_mb, Config, RunResult, Setups};

/// Distinct round populations generated in set-up; later rounds reuse
/// them in turn.
const POPULATIONS: u64 = 16;
/// Random nests per round (each analyzed under both mappers).
const NESTS: usize = 400;
/// Nests of each round replayed through the simulator.
const REPLAY_SAMPLE: usize = 8;
/// Largest lowered nest the replay sample accepts.
const REPLAY_CAP: u64 = 1 << 16;
/// Monte-Carlo sweeps per seeded profile.
const MC_SWEEPS: u64 = 8;
/// Accesses per Monte-Carlo sweep.
const MC_ACCESSES: u64 = 2048;
const LATTICE_TRIPS: [u64; 2] = [1 << 8, 1 << 12];

fn geometry_pair(exponent: u32, line_words: u64) -> Result<[Geometry; 2], String> {
    Ok([
        Geometry::pow2(1 << exponent, line_words).map_err(|e| e.to_string())?,
        Geometry::prime(exponent, line_words).map_err(|e| e.to_string())?,
    ])
}

/// The seeded inputs of one run.
struct Population {
    nests: Vec<(LoopNest, Geometry)>,
    programs: Vec<(Program, Geometry)>,
    /// (trip, two-reference lattice nest); the relational domain decides
    /// within the first reference and between the two.
    lattices: Vec<(u64, LoopNest)>,
    lattice_geometry: Geometry,
    profiles: Vec<(AccessProfile, Geometry)>,
}

/// The seeded inputs of one round. Rounds cycle through several
/// populations, so a run covers many independent draws.
fn population(seed: u64, round: u64) -> Result<Population, String> {
    let seed = seed.wrapping_mul(0x1_0000_0001).wrapping_add(round);
    let mut rng = Rng::new(seed);
    let mut nests = Vec::new();
    for case in battery::cases(seed, NESTS) {
        for geometry in geometry_pair(case.exponent, case.line_words)? {
            nests.push((case.nest.clone(), geometry));
        }
    }
    let mut programs = Vec::new();
    for b in [512, 2048, 1024, 4096] {
        let vcm = Vcm::random_multistride(b, 2, 0.25, 8191);
        let program = generate_program(&vcm, 4096, rng.next());
        for geometry in geometry_pair(13, 1)? {
            programs.push((program.clone(), geometry));
        }
    }
    // The benchmark lattice shape (an unaligned leading dimension 8196
    // over 8-word lines) and seeded neighbours of it.
    let mut lattices = Vec::new();
    let mut leading = vec![8196i64];
    leading.extend((0..3).map(|_| 8192 + 4 * rng.range(1, 15) as i64));
    for trip in LATTICE_TRIPS {
        for &ld in &leading {
            let shape = |base| {
                let terms = vec![Term { coeff: ld, trip }, Term { coeff: 1, trip: 32 }];
                AffineRef::new(base, terms, 0)
            };
            let second = rng.range(1 << 24, 1 << 26);
            lattices.push((
                trip,
                LoopNest::new(
                    format!("lattice[ld={ld}, trip={trip}]"),
                    vec![shape(0), shape(second)],
                ),
            ));
        }
    }
    let mut profiles = Vec::new();
    let base = rng.range(0, 1 << 20);
    for profile in [
        AccessProfile::UniformSpan {
            base,
            span: rng.range(4096, 65_536),
        },
        AccessProfile::UniformStrided {
            base,
            stride: rng.pick(&[8192, 4096, 8191, 1000]),
            count: rng.range(64, 512),
        },
        AccessProfile::Zipf {
            base,
            bins: rng.range(256, 1024),
            bin_words: rng.range(8, 64),
        },
    ] {
        for geometry in geometry_pair(13, 1)? {
            profiles.push((profile, geometry));
        }
    }
    Ok(Population {
        nests,
        programs,
        lattices,
        lattice_geometry: Geometry::pow2(8192, 8).map_err(|e| e.to_string())?,
        profiles,
    })
}

/// What one round produced.
#[derive(Default)]
struct Round {
    verdicts: u64,
    /// Every verdict as a label, in order: rounds must agree.
    labels: Vec<String>,
    analyses: Vec<NestAnalysis>,
    plans: Vec<Plan>,
    plan_ms: Vec<f64>,
    gate: Option<Report>,
    errors: u64,
}

fn gate_options() -> CheckOptions {
    CheckOptions {
        root: PathBuf::from("."),
        src: false,
        programs: true,
        nests: true,
        prescribe: true,
        workloads: true,
        probabilistic: true,
    }
}

fn gate_verdicts(report: &Report) -> u64 {
    let battery: u64 = report.battery.iter().map(|b| b.nests).sum();
    (report.suite.len() + report.nests.len() + report.workloads.len() + report.probabilistic.len())
        as u64
        + battery
}

/// One round: the gate, then the population.
fn round(pop: &Population, tracer: &RefCell<Tracer>) -> Round {
    let mut r = Round::default();
    let options = gate_options();
    tracer.borrow_mut().begin("staticcheck.gate");
    let observer = |phase: &'static str, begin: bool| {
        let mut t = tracer.borrow_mut();
        if begin {
            t.begin(&format!("staticcheck.gate.{phase}"));
        } else {
            t.end(0);
        }
    };
    let gate = run_check_observed(&options, &observer);
    tracer.borrow_mut().end(1);
    match gate {
        Ok(report) => {
            r.verdicts += gate_verdicts(&report);
            r.labels.push(format!("gate clean={}", report.is_clean()));
            if !report.is_clean() {
                eprintln!("check: the gate reported failing findings");
                r.errors += 1;
            }
            r.gate = Some(report);
        }
        Err(e) => {
            eprintln!("check: gate failed: {e}");
            r.errors += 1;
        }
    }

    for (nest, geometry) in &pop.nests {
        let analysis =
            tracer
                .borrow_mut()
                .span("staticcheck.absint", || analyze_nest(nest, geometry), |_| 1);
        let analysis = match analysis {
            Ok(a) => a,
            Err(e) => {
                eprintln!("check: {} on {geometry}: {e}", nest.name);
                r.errors += 1;
                continue;
            }
        };
        r.verdicts += 1;
        r.labels.push(analysis.verdict.label().to_string());
        if !analysis.verdict.is_conflict_free() {
            let t = Instant::now();
            let planned = tracer.borrow_mut().span(
                "staticcheck.plan",
                || plan(nest, geometry, DEFAULT_MAX_PAD),
                |p| p.as_ref().map_or(0, |p| p.candidates),
            );
            r.plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match planned {
                Some(p) => {
                    r.labels
                        .push(format!("plan {} of {}", p.ranked.len(), p.candidates));
                    r.plans.push(p);
                }
                None => {
                    eprintln!("check: planning {} on {geometry} failed", nest.name);
                    r.errors += 1;
                }
            }
        }
        r.analyses.push(analysis);
    }

    for (program, geometry) in &pop.programs {
        let analysis = tracer.borrow_mut().span(
            "staticcheck.conflict",
            || analyze_program(program, geometry),
            |_| 1,
        );
        match analysis {
            Ok(a) => {
                r.verdicts += 1;
                r.labels.push(a.verdict.label().to_string());
            }
            Err(e) => {
                eprintln!("check: {} on {geometry}: {e}", program.name);
                r.errors += 1;
            }
        }
    }

    for (trip, nest) in &pop.lattices {
        let label = format!("staticcheck.relational.trip{trip}");
        let (a, b) = (&nest.refs[0], &nest.refs[1]);
        let geometry = &pop.lattice_geometry;
        let (within, pair) = tracer.borrow_mut().span(
            &label,
            || (decide_within(a, geometry), decide_pair(a, b, geometry)),
            |_| 1,
        );
        r.verdicts += 2;
        r.labels.push(format!("{within:?} {pair:?}"));
    }

    for (profile, geometry) in &pop.profiles {
        let verdict = tracer.borrow_mut().span(
            "staticcheck.probabilistic.analyze_profile",
            || analyze_profile(profile, MC_ACCESSES, geometry),
            |_| 1,
        );
        let mc = tracer.borrow_mut().span(
            "staticcheck.probabilistic.monte_carlo",
            || monte_carlo(profile, MC_ACCESSES, geometry, MC_SWEEPS, 0x5eed),
            |_| 1,
        );
        r.verdicts += 1;
        r.labels
            .push(format!("{:?} {mc:?}", verdict.expected_misses()));
    }
    r
}

/// Builds the simulator matching a static geometry.
fn sim_for(geometry: &Geometry) -> Result<CacheSim, String> {
    match geometry {
        Geometry::Pow2 { sets, line_words } => CacheSim::direct_mapped(*sets, *line_words),
        Geometry::Prime {
            modulus,
            line_words,
        } => CacheSim::prime_mapped(modulus.exponent(), *line_words),
    }
    .map_err(|e| e.to_string())
}

/// Checks a round's answers: every ranked certificate (the gate's and
/// the population's) re-verifies, and a seeded sample of verdicts agrees
/// with a double-sweep replay. Returns (checked, failed).
fn verify_round(pop: &Population, round: &Round) -> Result<(u64, u64), String> {
    let (mut checked, mut failed) = (0u64, 0u64);
    let gate_certs = round
        .gate
        .iter()
        .flat_map(|g| g.certificates.iter().chain(&g.alternatives));
    let plan_certs = round.plans.iter().flat_map(|p| &p.ranked);
    for cert in gate_certs.chain(plan_certs) {
        checked += 1;
        if !cert.verify() {
            eprintln!("check: certificate for {} does not verify", cert.nest);
            failed += 1;
        }
    }
    let mut rng = Rng::new(pop.nests.len() as u64 ^ round.verdicts);
    let mut sampled = 0;
    let mut attempts = 0;
    while sampled < REPLAY_SAMPLE && attempts < 20 * REPLAY_SAMPLE {
        attempts += 1;
        let i = rng.range(0, pop.nests.len() as u64 - 1) as usize;
        let (nest, geometry) = &pop.nests[i];
        let Some(program) = nest.to_program(REPLAY_CAP) else {
            continue;
        };
        sampled += 1;
        let analysis = analyze_nest(nest, geometry).map_err(|e| e.to_string())?;
        let words: Vec<(u64, u32)> = program.words().collect();
        let lines: BTreeSet<u64> = words
            .iter()
            .map(|(w, _)| w / geometry.line_words())
            .collect();
        let conflicts = sim_for(geometry)?.replay_sweeps(words.iter().copied(), 2);
        let free = analysis.verdict.is_conflict_free();
        let fits = lines.len() as u64 <= geometry.sets();
        checked += 1;
        if (free && conflicts != 0) || (!free && fits && conflicts == 0) {
            eprintln!(
                "check: {} on {geometry}: verdict {} but the simulator saw {conflicts} conflict misses",
                nest.name,
                analysis.verdict.label()
            );
            failed += 1;
        }
    }
    Ok((checked, failed))
}

#[derive(Default)]
struct Phase {
    /// Verdict labels of each round, for comparing runs of one seed.
    labels: Vec<Vec<String>>,
    /// Verdicts per second of each round.
    round_rates: Vec<f64>,
    busy: Duration,
    /// CPU time spent in rounds.
    cpu_s: f64,
    verdicts: u64,
    plan_ms: Vec<f64>,
    /// Operations attempted and failed (verdicts, plans, checks).
    attempted: u64,
    failed: u64,
    /// The first round, kept for the per-layer counts.
    first: Round,
}

/// Runs rounds until `window` of round time has passed; round `k`
/// analyzes population `k` (modulo their number). Checking a round's
/// answers is not timed, nor is `between`, which runs before each later
/// round, given the share of `window` done.
fn timed_rounds(
    pops: &[Population],
    window: Duration,
    tracer: &RefCell<Tracer>,
    between: &mut dyn FnMut(f64) -> Result<(), String>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut k = 0usize;
    while k == 0 || phase.busy < window {
        if k > 0 {
            between(phase.busy.as_secs_f64() / window.as_secs_f64())?;
        }
        let pop = &pops[k % pops.len()];
        let start = Instant::now();
        let cpu_start = cpu_seconds(None)?;
        let r = round(pop, tracer);
        let took = start.elapsed();
        phase.cpu_s += cpu_seconds(None)? - cpu_start;
        phase.busy += took;
        phase
            .round_rates
            .push(r.verdicts as f64 / took.as_secs_f64());
        phase.verdicts += r.verdicts;
        phase.plan_ms.extend(&r.plan_ms);
        let (checked, wrong) = verify_round(pop, &r)?;
        phase.attempted += r.verdicts + r.plan_ms.len() as u64 + checked;
        phase.failed += r.errors + wrong;
        phase.labels.push(r.labels.clone());
        if k == 0 {
            phase.first = r;
        }
        k += 1;
    }
    Ok(phase)
}

pub fn run(config: &Config) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let (pops, mut setups) = Setups::start(|| {
        (0..POPULATIONS)
            .map(|k| population(config.seed, k))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let pop = &pops[0];
    result.note(format!(
        "check: seed {}, each round runs the gate then one of {POPULATIONS} seeded populations of {} nest verdicts, {} programs, {} lattice nests, {} profiles; Monte-Carlo simulators start empty",
        config.seed,
        pop.nests.len(),
        pop.programs.len(),
        pop.lattices.len(),
        pop.profiles.len()
    ));
    let window = Duration::from_secs_f64(if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    });

    let plain = timed_rounds(
        &pops,
        window,
        &RefCell::new(Tracer::off()),
        &mut |progress| setups.due(progress),
    )?;
    let setup_s = setups.median()?;
    result.attempted = plain.attempted;
    result.failed = plain.failed;
    result.note(format!(
        "check: {} rounds, {} verdicts, {} plans in {:.3} s ({:.2} CPU-s)",
        plain.round_rates.len(),
        plain.verdicts,
        plain.plan_ms.len(),
        plain.busy.as_secs_f64(),
        plain.cpu_s
    ));
    result.set("setup_s", setup_s);
    result.set("peak_rss_mb", peak_rss_mb(None)?);
    result.set("ops_per_cpu_s", ratio(plain.verdicts as f64, plain.cpu_s));
    result.set("ops_per_s", median(&plain.round_rates));
    result.set_latency("plan() per interfering nest", &plain.plan_ms);
    if !config.trace {
        return Ok(result);
    }

    let tracer = RefCell::new(Tracer::on(Instant::now()));
    let traced = timed_rounds(&pops, window, &tracer, &mut |_| Ok(()))?;
    let tracer = tracer.into_inner();
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    // The same populations must get the same verdicts, traced or not.
    let differing = plain
        .labels
        .iter()
        .zip(&traced.labels)
        .filter(|(a, b)| a != b)
        .count();
    if differing > 0 {
        eprintln!("check: {differing} rounds reached different verdicts when traced");
    }
    result.failed += differing as u64;
    let path = config
        .out_dir
        .join(format!("check-{}.spans.jsonl", config.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    result.note(format!("check: spans written to {}", path.display()));

    let per_verdict = |p: &Phase| p.busy.as_secs_f64() / p.verdicts as f64;
    result.set(
        "trace.overhead_ratio",
        per_verdict(&traced) / per_verdict(&plain),
    );

    let spans = by_label(tracer.spans());
    let gates = spans.get("staticcheck.gate").map_or(0, |s| s.dur_us.len()) as f64;
    for phase in ["orbits", "absint", "workloads", "probabilistic"] {
        let name = format!("staticcheck.gate.{phase}");
        if let Some(s) = spans.get(&name) {
            let metric = PHASE_METRICS
                .iter()
                .find(|(p, _)| *p == phase)
                .map(|(_, m)| *m)
                .expect("every gate phase has a metric");
            // Seconds per gate run.
            result.set(metric, ratio(s.dur_us.iter().sum::<f64>() / 1e6, gates));
        }
    }
    if let Some(s) = spans
        .get("staticcheck.absint")
        .and_then(|s| Summary::of(&s.self_us))
    {
        result.set("staticcheck.absint.analyze_us_p50", s.p50);
        result.set("staticcheck.absint.analyze_us_p99", s.p99);
    }
    let first = &plain.first;
    let fallbacks = first
        .analyses
        .iter()
        .filter(|a| !a.fallback_reasons.is_empty())
        .count();
    result.set(
        "staticcheck.absint.fallback_ratio",
        ratio(fallbacks as f64, first.analyses.len() as f64),
    );
    let enumerated: u64 = first.analyses.iter().map(|a| a.enumerated_lines).sum();
    result.set("staticcheck.absint.enumerated_lines", enumerated as f64);
    let decide = |trip: u64| {
        spans
            .get(&format!("staticcheck.relational.trip{trip}"))
            .map_or(0.0, |s| median(&s.self_us))
    };
    let (d256, d4096) = (decide(LATTICE_TRIPS[0]), decide(LATTICE_TRIPS[1]));
    result.set("staticcheck.relational.decide_us.trip256", d256);
    result.set("staticcheck.relational.decide_us.trip4096", d4096);
    result.set(
        "staticcheck.relational.trip256_over_trip4096",
        ratio(d256, d4096),
    );
    if let Some(s) = spans.get("staticcheck.conflict") {
        result.set(
            "staticcheck.conflict.analyze_program_us",
            median(&s.self_us),
        );
    }
    let candidates: u64 = first.plans.iter().map(|p| p.candidates).sum();
    let ranked: usize = first.plans.iter().map(|p| p.ranked.len()).sum();
    result.set(
        "staticcheck.plan.candidates",
        ratio(candidates as f64, first.plans.len() as f64),
    );
    result.set(
        "staticcheck.plan.ranked_ratio",
        ratio(ranked as f64, candidates as f64),
    );
    if let Some(s) = spans.get("staticcheck.plan") {
        result.set(
            "staticcheck.plan.candidate_us",
            ratio(s.self_total_us(), s.work as f64),
        );
    }
    if let Some(s) = spans.get("staticcheck.probabilistic.analyze_profile") {
        result.set(
            "staticcheck.probabilistic.analyze_profile_us",
            median(&s.self_us),
        );
    }
    if let Some(s) = spans.get("staticcheck.probabilistic.monte_carlo") {
        result.set(
            "staticcheck.probabilistic.monte_carlo_ms",
            median(&s.self_us) / 1e3,
        );
    }
    Ok(result)
}

const PHASE_METRICS: [(&str, &str); 4] = [
    ("orbits", "staticcheck.gate.orbits_s"),
    ("absint", "staticcheck.gate.absint_s"),
    ("workloads", "staticcheck.gate.workloads_s"),
    ("probabilistic", "staticcheck.gate.probabilistic_s"),
];
