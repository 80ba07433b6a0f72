//! Per-round cost of the processes — the number that decides how large an
//! `n` the experiment battery can sweep. One round is Θ(n) proposals plus
//! one row-ordered merge, so rounds/sec should scale as 1/n sequentially.
//! Sequential against pool-parallel rows live in `parallel.rs`
//! (`round_parallelism`); the pool must still have spawned no thread per
//! round by the end of this bench (asserted).

use criterion::{
    criterion_group, criterion_main, BatchSize, Bencher, BenchmarkId, Criterion, Throughput,
};
use gossip_core::{
    run_engine_listened, Engine, GossipGraph, NullListener, Parallelism, ProposalRule, Pull, Push,
};
use gossip_graph::{generators, ShardedArenaGraph};
use gossip_shard::ShardedEngine;
use std::time::Duration;

/// Eight sequential engine rounds per iteration from a fresh engine clone.
fn eight_rounds<G: GossipGraph, R: ProposalRule<G> + Clone>(b: &mut Bencher, g: &G, rule: R) {
    b.iter_batched(
        || Engine::new(g.clone(), rule.clone(), 7).with_parallelism(Parallelism::Sequential),
        |mut engine| {
            for _ in 0..8 {
                std::hint::black_box(engine.step());
            }
        },
        BatchSize::LargeInput,
    )
}

fn bench_rounds(c: &mut Criterion) {
    // One end-to-end sequential row per process and size; the n = 4096
    // rows are watched by the CI perf ratchet.
    let mut group = c.benchmark_group("round_arena");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for n in [4096usize, 65536] {
        let mut rng = gossip_core::rng::stream_rng(1, 0, n as u64);
        let g = generators::tree_plus_random_edges(n, 4 * n as u64, &mut rng);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("push_seq", n), &g, |b, g| {
            eight_rounds(b, g, Push)
        });
        group.bench_with_input(BenchmarkId::new("pull_seq", n), &g, |b, g| {
            eight_rounds(b, g, Pull)
        });
    }
    group.finish();

    // The sharded engine end-to-end at the same sizes (S = 8): mailbox
    // routing + shard-parallel apply against the single-arena rows above.
    // The n = 4096 rows join the CI perf ratchet via its existing filter.
    let mut group = c.benchmark_group("round_sharded");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for n in [4096usize, 65536] {
        let mut rng = gossip_core::rng::stream_rng(1, 0, n as u64);
        let g = ShardedArenaGraph::from_arena(
            &generators::tree_plus_random_edges(n, 4 * n as u64, &mut rng),
            8,
        );
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("push_s8", n), &g, |b, g| {
            b.iter_batched(
                || ShardedEngine::new(g.clone(), Push, 7),
                |mut engine| {
                    for _ in 0..8 {
                        std::hint::black_box(engine.step());
                    }
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("pull_s8", n), &g, |b, g| {
            b.iter_batched(
                || ShardedEngine::new(g.clone(), Pull, 7),
                |mut engine| {
                    for _ in 0..8 {
                        std::hint::black_box(engine.step());
                    }
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    // The listener seam with no listeners registered against the raw step
    // loop, same engine and graph: these two rows must stay within noise of
    // each other — the seam's per-round cost is one no-op dynamic call. The
    // n = 4096 IDs put both rows under the CI perf ratchet.
    let mut group = c.benchmark_group("round_listened");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    {
        let n = 4096usize;
        let mut rng = gossip_core::rng::stream_rng(1, 0, n as u64);
        let g = generators::tree_plus_random_edges(n, 4 * n as u64, &mut rng);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("pull_direct", n), &g, |b, g| {
            eight_rounds(b, g, Pull)
        });
        group.bench_with_input(BenchmarkId::new("pull_seam_null", n), &g, |b, g| {
            b.iter_batched(
                || Engine::new(g.clone(), Pull, 7),
                |mut engine| {
                    std::hint::black_box(run_engine_listened(&mut engine, &mut NullListener, 8));
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    // Thousands of pool-parallel rounds just ran: the pool's worker count
    // must still be bounded by its size (zero spawns per round).
    assert!(
        rayon::global_pool_threads_started() <= rayon::current_num_threads().saturating_sub(1),
        "pool spawned threads per round"
    );

    // Full convergence at a small n: end-to-end sanity number.
    let mut group = c.benchmark_group("full_convergence");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let g = generators::star(256);
    group.bench_function("push_star_256", |b| {
        b.iter_batched(
            || {
                (
                    gossip_core::ComponentwiseComplete::for_graph(&g),
                    Engine::new(g.clone(), Push, 11),
                )
            },
            |(mut check, mut engine)| {
                let out = engine.run_until(&mut check, 100_000_000);
                assert!(out.converged);
                out.rounds
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_rounds);
criterion_main!(benches);
