//! Section 9: the paper's proposed mitigations, implemented and evaluated.

use criterion::{criterion_group, criterion_main, Criterion};
use gpgpu_covert::bits::Message;
use gpgpu_covert::mitigations::evaluate_against_family;
use gpgpu_covert::whitespace::discover_and_transmit;
use gpgpu_spec::presets;
use gpgpu_spec::{DefenseSpec, Family};

fn bench(c: &mut Criterion) {
    let spec = presets::tesla_k40c();
    let msg = Message::pseudo_random(16, 0xA1);

    for defense in ["partition=2", "fuzz=4096"] {
        let defense = DefenseSpec::from_spec(defense).unwrap();
        let r = evaluate_against_family(&spec, Family::L1, &defense, &msg, None).unwrap();
        println!(
            "sec9 {defense}: baseline BER {:.1}% -> mitigated BER {:.1}%",
            r.baseline.ber * 100.0,
            r.mitigated.ber * 100.0
        );
        assert!(r.is_effective(0.2), "{defense} should break the L1 channel");
    }
    let defense = DefenseSpec::from_spec("randsched=0xd1ce").unwrap();
    let r = evaluate_against_family(&spec, Family::ParallelSfu, &defense, &msg, None).unwrap();
    println!(
        "sec9 {defense}: baseline BER {:.1}% -> mitigated BER {:.1}%",
        r.baseline.ber * 100.0,
        r.mitigated.ber * 100.0
    );
    assert!(r.baseline.is_error_free() && r.mitigated.ber > 0.1);

    // Whitespace discovery (the Section-8 noise-avoidance alternative).
    let w = discover_and_transmit(&spec, &msg, &[0, 1, 2], 20).unwrap();
    println!(
        "sec8 whitespace: trojan chose {:?}, spy chose {:?}, BER {:.1}%",
        w.trojan_choice,
        w.spy_choice,
        w.outcome.as_ref().map(|o| o.ber * 100.0).unwrap_or(100.0)
    );
    assert_eq!(w.trojan_choice, w.spy_choice);
    assert!(w.outcome.unwrap().is_error_free());

    let partition = DefenseSpec::from_spec("partition=2").unwrap();
    c.bench_function("sec9_partitioning_eval_16bits", |b| {
        b.iter(|| evaluate_against_family(&spec, Family::L1, &partition, &msg, None).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
