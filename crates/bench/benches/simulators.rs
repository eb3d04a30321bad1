//! Criterion throughput benchmarks for the simulation substrates: cache
//! access rates per organization and memory stream simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use vcache_cache::{CacheSim, ReplacementPolicy, StreamId, WordAddr};
use vcache_mem::{
    simulate_single_stream, simulate_single_stream_traced, BankingScheme, MemoryConfig,
};
use vcache_trace::{NullSink, RingSink};

const ACCESSES: u64 = 8192;

/// Lines in the warm footprint: 1.5x the 8K-line caches, so the second
/// sweep mixes hits (lines 4096..8192 of a direct cache survive), full-set
/// evictions, conflicts and shadow capacity misses.
const WARM_LINES: u64 = 12_288;

/// Cold traffic: `ACCESSES` distinct lines, every access a compulsory miss.
fn drive(cache: &mut CacheSim) -> u64 {
    drive_sweeps(cache, ACCESSES, 1)
}

/// `sweeps` passes over `lines` lines, 769 words apart.
fn drive_sweeps(cache: &mut CacheSim, lines: u64, sweeps: u64) -> u64 {
    let mut misses = 0;
    for _ in 0..sweeps {
        for i in 0..lines {
            let addr = WordAddr::new(i.wrapping_mul(769));
            if !cache.access(black_box(addr), StreamId::new(0)).is_hit() {
                misses += 1;
            }
        }
    }
    misses
}

fn bench_cache_orgs(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access_throughput");
    group.throughput(Throughput::Elements(ACCESSES));
    group.bench_function("direct_8192", |b| {
        b.iter_batched(
            || CacheSim::direct_mapped(8192, 1).expect("valid"),
            |mut cache| drive(&mut cache),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("prime_8191", |b| {
        b.iter_batched(
            || CacheSim::prime_mapped(13, 1).expect("valid"),
            |mut cache| drive(&mut cache),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("assoc4_lru_8192", |b| {
        b.iter_batched(
            || CacheSim::set_associative(8192, 4, 1, ReplacementPolicy::Lru).expect("valid"),
            |mut cache| drive(&mut cache),
            BatchSize::LargeInput,
        )
    });
    // Warm rows: two sweeps of the 12K-line footprint from an empty cache.
    group.throughput(Throughput::Elements(2 * WARM_LINES));
    group.bench_function("direct_8192_warm", |b| {
        b.iter_batched(
            || CacheSim::direct_mapped(8192, 1).expect("valid"),
            |mut cache| drive_sweeps(&mut cache, WARM_LINES, 2),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("prime_8191_warm", |b| {
        b.iter_batched(
            || CacheSim::prime_mapped(13, 1).expect("valid"),
            |mut cache| drive_sweeps(&mut cache, WARM_LINES, 2),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("assoc4_lru_8192_warm", |b| {
        b.iter_batched(
            || CacheSim::set_associative(8192, 4, 1, ReplacementPolicy::Lru).expect("valid"),
            |mut cache| drive_sweeps(&mut cache, WARM_LINES, 2),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_memory_streams(c: &mut Criterion) {
    let cfg = MemoryConfig::new(64, 32, BankingScheme::LowOrderInterleave).expect("valid");
    let mut group = c.benchmark_group("memory_stream");
    group.throughput(Throughput::Elements(ACCESSES));
    group.bench_function("single_stream_64banks", |b| {
        b.iter(|| simulate_single_stream(black_box(&cfg), 0, 7, ACCESSES))
    });
    group.finish();
}

/// Tracing overhead: the untraced paths above are the baselines; these
/// measure the traced wrappers with a `NullSink` (the no-sink
/// configuration every default code path uses) and with a bounded
/// `RingSink` (the cheapest real sink). README's "Observability" section
/// quotes the expectation: NullSink must be indistinguishable from the
/// untraced baseline.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    group.throughput(Throughput::Elements(ACCESSES));
    group.bench_function("cache_prime_8191_nullsink", |b| {
        b.iter_batched(
            || CacheSim::prime_mapped(13, 1).expect("valid"),
            |mut cache| {
                let mut sink = NullSink;
                let mut misses = 0;
                for i in 0..ACCESSES {
                    let addr = WordAddr::new(i.wrapping_mul(769));
                    if !cache
                        .access_traced(black_box(addr), StreamId::new(0), &mut sink)
                        .is_hit()
                    {
                        misses += 1;
                    }
                }
                misses
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("cache_prime_8191_ringsink", |b| {
        b.iter_batched(
            || {
                (
                    CacheSim::prime_mapped(13, 1).expect("valid"),
                    RingSink::new(1024),
                )
            },
            |(mut cache, mut sink)| {
                let mut misses = 0;
                for i in 0..ACCESSES {
                    let addr = WordAddr::new(i.wrapping_mul(769));
                    if !cache
                        .access_traced(black_box(addr), StreamId::new(0), &mut sink)
                        .is_hit()
                    {
                        misses += 1;
                    }
                }
                misses
            },
            BatchSize::LargeInput,
        )
    });
    let cfg = MemoryConfig::new(64, 32, BankingScheme::LowOrderInterleave).expect("valid");
    group.bench_function("single_stream_64banks_nullsink", |b| {
        b.iter(|| simulate_single_stream_traced(black_box(&cfg), 0, 7, ACCESSES, &mut NullSink))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_orgs,
    bench_memory_streams,
    bench_trace_overhead
);
criterion_main!(benches);
