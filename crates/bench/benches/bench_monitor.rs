//! E5 (criterion leg) — monitor-only analysis cost (no TLS inspection)
//! on a fixed mid-size capture: one engine vs one shard worker per
//! rayon thread, the measured core of the paper's "unsustainable
//! performance overhead" lesson.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ja_monitor::engine::{Monitor, MonitorConfig};
use std::hint::black_box;

fn bench_monitor(c: &mut Criterion) {
    let trace = ja_bench::scaled_trace(8, 2, 42);
    let segments = trace.summary().segments;
    let monitor = Monitor::new(MonitorConfig::default());
    let mut group = c.benchmark_group("e5_overhead");
    group.sample_size(20);
    group.throughput(Throughput::Elements(segments));
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(ja_bench::monitor_only(&monitor, black_box(&trace), 1)))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(ja_bench::monitor_only(
                &monitor,
                black_box(&trace),
                rayon::current_num_threads(),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_monitor);
criterion_main!(benches);
