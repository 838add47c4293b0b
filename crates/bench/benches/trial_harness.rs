//! Trial-harness bench: the same experiment batch through the serial and
//! the parallel path. The parallel path must produce identical rows (the
//! determinism tests assert that); this bench shows what the fan-out buys
//! in wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tsuru_core::experiments::{e1_slowdown_with, e2_collapse_with};
use tsuru_core::TrialHarness;
use tsuru_sim::SimDuration;

fn bench_e2_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("trial_harness/e2_batch");
    group.sample_size(10);
    let auto = TrialHarness::auto().threads();
    for (label, harness) in [
        ("serial".to_string(), TrialHarness::serial()),
        (format!("parallel-{auto}"), TrialHarness::auto()),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(&label),
            &harness,
            |b, harness| {
                b.iter(|| {
                    let set =
                        e2_collapse_with(harness, 1000, 8, SimDuration::from_millis(2));
                    criterion::black_box(set.rows.len())
                });
            },
        );
    }
    group.finish();
}

fn bench_e1_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("trial_harness/e1_batch");
    group.sample_size(10);
    let auto = TrialHarness::auto().threads();
    for (label, harness) in [
        ("serial".to_string(), TrialHarness::serial()),
        (format!("parallel-{auto}"), TrialHarness::auto()),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(&label),
            &harness,
            |b, harness| {
                b.iter(|| {
                    let set = e1_slowdown_with(
                        harness,
                        42,
                        8,
                        &[1, 10, 25],
                        SimDuration::from_millis(100),
                    );
                    criterion::black_box(set.rows.len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_e2_batch, bench_e1_batch);
criterion_main!(benches);
