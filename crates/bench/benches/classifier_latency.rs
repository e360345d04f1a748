//! Micro-benchmark: per-beat latency of the floating-point Gaussian NFC
//! versus the integer linearised/triangular NFC — the speed side of the
//! accuracy comparison in Table II and Figure 5.

use criterion::{criterion_group, criterion_main, Criterion};
use hbc_bench::bench_system;
use hbc_embedded::MembershipKind;

fn bench_classifier(c: &mut Criterion) {
    let system = bench_system();
    let beat = &system.dataset.test[0];
    let alpha_q = system.wbsn.alpha;
    let alpha_f = system.pc.alpha_train;

    // Pre-compute the inputs each classifier consumes.
    let pc_coeffs = system.pc.projection.project(&beat.samples);
    let downsampled = beat.downsample(system.config.downsample);
    let quantized = system.wbsn.adc.quantize_samples(&downsampled.samples);
    let wbsn_coeffs = system
        .wbsn
        .projection
        .project_i32(&quantized)
        .expect("dims");
    let triangular = system
        .wbsn_with_kind(MembershipKind::Triangular)
        .expect("triangular variant");

    let mut group = c.benchmark_group("classifier_per_beat");
    group.bench_function("float_gaussian_nfc", |b| {
        b.iter(|| {
            system
                .pc
                .classifier
                .classify(&pc_coeffs, alpha_f)
                .expect("dims")
        })
    });
    group.bench_function("integer_linearized_nfc", |b| {
        b.iter(|| {
            system
                .wbsn
                .classifier
                .classify(&wbsn_coeffs, alpha_q)
                .expect("dims")
        })
    });
    group.bench_function("integer_triangular_nfc", |b| {
        b.iter(|| {
            triangular
                .classifier
                .classify(&wbsn_coeffs, alpha_q)
                .expect("dims")
        })
    });
    group.bench_function("end_to_end_wbsn_beat", |b| {
        b.iter(|| {
            system
                .wbsn
                .classify_window(&beat.samples)
                .expect("window matches")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_classifier);
criterion_main!(benches);
