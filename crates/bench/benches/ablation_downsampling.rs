//! Ablation: effect of the 4× downsampling (360 Hz → 90 Hz) the paper applies
//! in the WBSN version. Reports the NDR at the ARR target for factors 1, 2
//! and 4 and measures the corresponding per-beat classification cost and
//! projection-matrix size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hbc_bench::bench_config;
use hbc_core::pipeline::{calibrate_wbsn_alpha, TrainedSystem};
use hbc_core::Engine;

fn bench_downsampling(c: &mut Criterion) {
    let base = bench_config();

    println!("\nAblation — downsampling factor (NDR at ARR >= 97 % on the test split)");
    println!(
        "{:<10} {:>10} {:>14} {:>18}",
        "factor", "window", "NDR-WBSN (%)", "matrix bytes"
    );
    let mut systems = Vec::new();
    for &factor in &[1usize, 2, 4] {
        let mut config = base;
        config.downsample = factor;
        let system = TrainedSystem::train(&config).expect("training succeeds");
        let (_, report) = calibrate_wbsn_alpha(
            &Engine::default(),
            &system.wbsn,
            &system.dataset.test,
            config.target_arr,
        )
        .expect("calibration");
        println!(
            "{:<10} {:>10} {:>14.2} {:>18}",
            factor,
            200usize.div_ceil(factor),
            100.0 * report.ndr(),
            system.wbsn.projection.size_bytes()
        );
        systems.push((factor, system));
    }

    let mut group = c.benchmark_group("ablation_downsampling");
    group.sample_size(20);
    for (factor, system) in &systems {
        let beat = system.dataset.test[0].clone();
        group.bench_with_input(
            BenchmarkId::new("wbsn_classify_per_beat", factor),
            factor,
            |b, _| {
                b.iter(|| {
                    system
                        .wbsn
                        .classify_window(&beat.samples)
                        .expect("window matches")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_downsampling);
criterion_main!(benches);
