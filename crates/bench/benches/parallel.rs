//! The parallelism ablations from DESIGN.md:
//!
//! 1. within-round rayon vs sequential proposal generation (pays off only
//!    for large `n` — this bench shows where the crossover sits),
//! 2. trial-level parallelism, the workhorse of every experiment sweep,
//! 3. the persistent pool on a propose-like kernel, asserting that
//!    steady-state calls spawn no threads, and
//! 4. an imbalanced batch — one heavy item among many light ones — that
//!    dynamic chunk claiming lets idle executors drain.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use gossip_core::{
    convergence_rounds, ComponentwiseComplete, Engine, Parallelism, Push, TrialConfig,
};
use gossip_graph::generators;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Propose-shaped kernel: per index, derive a counter-based RNG stream and
/// store one draw into a pre-sized slot — the same work pattern as the
/// engine's parallel propose phase, minus the graph.
fn propose_like_kernel(slots: &[AtomicU64], i: usize) {
    let mut rng = gossip_core::rng::stream_rng(0xA5, 0, i as u64);
    slots[i].store(rng.random::<u64>(), Ordering::Relaxed);
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_parallelism");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(15);
    for n in [4096usize, 65536] {
        let mut rng = gossip_core::rng::stream_rng(5, 0, n as u64);
        let g = generators::tree_plus_random_edges(n, 4 * n as u64, &mut rng);
        for (label, par) in [
            ("seq", Parallelism::Sequential),
            ("pool", Parallelism::Parallel),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &g, |b, g| {
                b.iter_batched(
                    || Engine::new(g.clone(), Push, 7).with_parallelism(par),
                    |mut engine| {
                        for _ in 0..4 {
                            std::hint::black_box(engine.step());
                        }
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();

    // Pool (persistent workers, dynamic chunk claiming) on the propose-like
    // kernel. Saved baselines are keyed by the group name, so it stays.
    let mut group = c.benchmark_group("pool_vs_spawn");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(15);
    let threads = rayon::current_num_threads();
    for n in [1024usize, 4096, 16384, 65536] {
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("pool", n), &slots, |b, slots| {
            b.iter(|| rayon::fan_out(slots.len(), |i| propose_like_kernel(slots, i)))
        });
    }
    group.finish();
    // Steady state reached: the pool must not have spawned per call.
    assert!(
        rayon::global_pool_threads_started() <= threads.saturating_sub(1),
        "pool spawned threads during benchmarking"
    );

    // Imbalanced batch: item 0 costs ~64x the rest (a heavy-tailed Monte
    // Carlo trial): chunk claiming lets idle executors drain the light items
    // instead of stranding the heavy item's neighbors behind it.
    let mut group = c.benchmark_group("imbalanced_batch");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(15);
    let items = 16usize;
    let spin = |i: usize| {
        let iters = if i == 0 { 1 << 18 } else { 1 << 12 };
        let mut rng = gossip_core::rng::stream_rng(9, 1, i as u64);
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(rng.random::<u64>());
        }
        std::hint::black_box(acc);
    };
    group.bench_function(BenchmarkId::new("pool", "1_heavy_15_light"), |b| {
        b.iter(|| rayon::fan_out(items, spin))
    });
    group.finish();

    let mut group = c.benchmark_group("trial_parallelism");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let g = generators::star(128);
    for (label, parallel) in [("seq", false), ("pool", true)] {
        group.bench_function(BenchmarkId::new(label, "16_trials_star128"), |b| {
            b.iter(|| {
                let cfg = TrialConfig {
                    trials: 16,
                    base_seed: 1,
                    max_rounds: 100_000_000,
                    parallel,
                };
                std::hint::black_box(convergence_rounds(
                    &g,
                    Push,
                    ComponentwiseComplete::for_graph,
                    &cfg,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
