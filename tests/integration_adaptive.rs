//! End-to-end tests for the adaptive link layer: online calibration,
//! link-quality-driven escalation, channel-family fallback, and the
//! harness's per-trial fault isolation.
//!
//! The acceptance scenario mirrors the paper's Section-8 interference
//! setup at its worst: the PR-3 calibrated phantom-eviction storm *plus* a
//! constant-cache-hog co-runner. Static thresholds lose the channel
//! outright; the adaptive ladder must get every bit across with no manual
//! retuning, and its diagnostic must say how.

use gpgpu_covert::bits::Message;
use gpgpu_covert::cache_channel::L1Channel;
use gpgpu_covert::calibrate::CalibrationSource;
use gpgpu_covert::fu_channel::SfuChannel;
use gpgpu_covert::harness::{TrialError, TrialRunner};
use gpgpu_covert::linkmon::{AdaptiveLink, ChannelFamily, LadderStage, LinkEnvironment};
use gpgpu_covert::noise::{noise_kernel, NoiseKind};
use gpgpu_covert::sync_channel::SyncChannel;
use gpgpu_covert::CovertError;
use gpgpu_sim::{FaultKinds, FaultPlan};
use gpgpu_spec::presets;

/// The PR-3 calibrated cache-fault storm: full-intensity eviction bursts +
/// phantom-workload storms on the sync channel's first data set, with the
/// burst period sized so raw sync BER lands well above 10%.
fn storm_plan() -> FaultPlan {
    FaultPlan::new(0xFA_0175)
        .with_intensity(1.0)
        .with_period(900_000)
        .with_burst(280_000)
        .with_target_set(2)
        .with_kinds(FaultKinds::cache())
}

fn hostile_env(bits: usize) -> LinkEnvironment {
    LinkEnvironment::clean()
        .with_faults(storm_plan())
        .with_noise(vec![NoiseKind::ConstantCacheHog], 40 + 30 * bits as u64)
}

/// Co-runners that stomp every on-chip family at once: the cache hog kills
/// both L1 channels, the atomic hammer saturates the atomic units, and four
/// SFU-bound kernels (one is two warps — too few to cross the decode
/// midpoint) saturate the special function units.
fn total_noise() -> Vec<NoiseKind> {
    vec![
        NoiseKind::ConstantCacheHog,
        NoiseKind::AtomicHammer,
        NoiseKind::FuBound,
        NoiseKind::FuBound,
        NoiseKind::FuBound,
        NoiseKind::FuBound,
    ]
}

// ---------------------------------------------------------------- calibration

#[test]
fn pilot_calibration_converges_on_a_quiet_device() {
    let spec = presets::tesla_k40c();
    // The synchronized channel's pilot fit must separate cleanly and agree
    // with the static rule bit for bit.
    let ch = SyncChannel::new(spec.clone());
    let cal = ch.calibrate(12).expect("pilot handshake runs");
    assert!(cal.converged(), "quiet-device pilot must converge: {cal:?}");
    assert!(cal.margin > 0, "positive separation margin, got {}", cal.margin);
    assert_eq!(cal.source, CalibrationSource::Pilot { pilot_bits: 12 });
    let msg = Message::pseudo_random(24, 0xCAB);
    let static_out = ch.transmit(&msg).expect("static transmit");
    let fitted_out =
        SyncChannel::new(spec.clone()).with_calibration(cal).transmit(&msg).expect("fitted");
    assert_eq!(static_out.received, fitted_out.received, "fitted rule agrees with static");
    assert_eq!(fitted_out.received, msg);

    // The SFU channel's pilot converges too (different family, same API).
    let cal = SfuChannel::new(spec).calibrate(8).expect("sfu pilot runs");
    assert!(cal.converged(), "{cal:?}");
}

#[test]
fn calibration_under_a_full_cache_hog_reports_inseparable() {
    // When a co-runner stomps every L1 set, there is no threshold to fit —
    // the pilot must say so (the ladder treats this as an escalate signal)
    // rather than hand back a garbage rule.
    let spec = presets::tesla_k40c();
    let noise = vec![noise_kernel(&spec, NoiseKind::ConstantCacheHog, 400)];
    let err = SyncChannel::new(spec).calibrate_with_noise(12, noise).unwrap_err();
    match err {
        CovertError::Config { reason } => {
            assert!(reason.contains("inseparable"), "{reason}")
        }
        other => panic!("expected Config(inseparable), got {other:?}"),
    }
}

// -------------------------------------------------------- adaptive vs static

#[test]
fn adaptive_never_does_worse_than_static_under_any_noise_kind() {
    let spec = presets::tesla_k40c();
    let msg = Message::pseudo_random(24, 0x0152);
    for kind in NoiseKind::ALL {
        let env = LinkEnvironment::clean().with_noise(vec![kind], 40 + 30 * msg.len() as u64);
        let link = AdaptiveLink::new(spec.clone()).with_env(env);
        let s = link.transmit_static(&msg).expect("static arm runs");
        let a = link.transmit(&msg).expect("adaptive runs");
        assert!(
            a.diagnostic.ber <= s.diagnostic.ber,
            "{kind:?}: adaptive BER {} > static BER {}",
            a.diagnostic.ber,
            s.diagnostic.ber
        );
        assert!(a.diagnostic.delivered, "{kind:?}: adaptive must deliver; {}", a.diagnostic);
        assert_eq!(a.received, msg, "{kind:?}");
    }
}

#[test]
fn adaptive_never_does_worse_than_static_under_the_calibrated_storm() {
    let spec = presets::tesla_k40c();
    let msg = Message::pseudo_random(24, 0x0153);
    let env = LinkEnvironment::clean().with_faults(storm_plan());
    let link = AdaptiveLink::new(spec).with_env(env);
    let s = link.transmit_static(&msg).expect("static arm runs");
    let a = link.transmit(&msg).expect("adaptive runs");
    assert!(a.diagnostic.ber <= s.diagnostic.ber);
    assert!(a.diagnostic.delivered, "{}", a.diagnostic);
    assert_eq!(a.received, msg);
}

#[test]
fn acceptance_storm_plus_hog_static_fails_adaptive_recovers_bit_exact() {
    let spec = presets::tesla_k40c();
    let msg = Message::pseudo_random(32, 0xACCE);
    let link = AdaptiveLink::new(spec).with_env(hostile_env(msg.len()));

    // Static decoding loses the channel outright.
    let s = link.transmit_static(&msg).expect("static arm runs");
    assert!(!s.diagnostic.delivered, "static must fail under storm + hog: {}", s.diagnostic);
    assert!(s.diagnostic.ber > 0.0, "static BER must be > 0, got {}", s.diagnostic.ber);

    // The adaptive ladder recovers BER 0 with no manual retuning.
    let a = link.transmit(&msg).expect("adaptive runs");
    assert!(a.diagnostic.delivered, "{}", a.diagnostic);
    assert_eq!(a.diagnostic.ber, 0.0, "{}", a.diagnostic);
    assert_eq!(a.received, msg, "bit-exact recovery");

    // The diagnostic records which stages fired: the stomped L1 family's
    // static rung failed, a fallback happened, and the final family is not
    // the stomped one.
    let stages = &a.diagnostic.stages;
    assert!(
        stages.iter().any(|e| e.stage == LadderStage::Static
            && e.family == ChannelFamily::CacheL1Sync
            && !e.recovered),
        "trace must show the l1-sync static rung failing: {}",
        a.diagnostic
    );
    assert!(
        stages.iter().any(|e| e.stage == LadderStage::Fallback),
        "trace must show the family fallback: {}",
        a.diagnostic
    );
    assert_ne!(a.diagnostic.final_family, ChannelFamily::CacheL1Sync, "{}", a.diagnostic);
    let rendered = a.diagnostic.to_string();
    assert!(rendered.contains("fallback") && rendered.contains("delivered"), "{rendered}");
}

#[test]
fn exhausted_ladder_records_every_stage_in_order_then_aborts() {
    // Stomp every family at once: a constant-cache hog kills both L1
    // channels, an atomic hammer saturates the atomic units, SFU-bound
    // co-runners saturate the special function units, always-on launch-skew
    // faults destroy the trojan/spy overlap every per-bit on-chip channel
    // needs (no threshold fit can repair a missed window), and an always-on
    // link-congestion storm saturates the NVLink fabric the topology
    // provides. No rung on any family can recover; the diagnostic must
    // record the complete ladder — Static/Recalibrate/Stretch per family,
    // a Fallback marker at each family switch, and the final Abort — in
    // exact order.
    let spec = presets::tesla_k40c();
    let msg = Message::pseudo_random(16, 0xABD1);
    let plan = FaultPlan::new(0xDEAD_11AC)
        .with_intensity(1.0)
        .with_period(200_000)
        .with_burst(200_000) // burst == period: the storm never lets up
        .with_target_set(2)
        .with_kinds(FaultKinds { link: true, skew: true, ..FaultKinds::cache() });
    let env = LinkEnvironment::clean()
        .with_faults(plan)
        .with_noise(total_noise(), 40 + 30 * msg.len() as u64)
        .with_topology(gpgpu_spec::TopologySpec::dual("kepler").unwrap());
    let link = AdaptiveLink::new(spec).with_env(env);

    let out = link.transmit(&msg).expect("exhaustion is an outcome, not an Err");
    let d = &out.diagnostic;
    assert!(!d.delivered, "no family may deliver under total interference: {d}");
    assert!(d.ber > 0.0, "best-effort message must be damaged, got BER {}", d.ber);
    assert!(d.reason.contains("exhausted"), "{}", d.reason);

    // The full ladder, in order: three rungs per family, a fallback marker
    // before each family after the first, then the abort.
    use ChannelFamily::{Atomic, CacheL1Sync, Nvlink, Sfu};
    use LadderStage::{Abort, Fallback, Recalibrate, Static, Stretch};
    let got: Vec<(LadderStage, ChannelFamily)> =
        d.stages.iter().map(|e| (e.stage, e.family)).collect();
    let want = vec![
        (Static, CacheL1Sync),
        (Recalibrate, CacheL1Sync),
        (Stretch, CacheL1Sync),
        (Fallback, Atomic),
        (Static, Atomic),
        (Recalibrate, Atomic),
        (Stretch, Atomic),
        (Fallback, Sfu),
        (Static, Sfu),
        (Recalibrate, Sfu),
        (Stretch, Sfu),
        (Fallback, Nvlink),
        (Static, Nvlink),
        (Recalibrate, Nvlink),
        (Stretch, Nvlink),
    ];
    assert_eq!(&got[..want.len()], &want[..], "ladder order diverged: {d}");
    assert_eq!(got.len(), want.len() + 1, "exactly one event past the last rung: {d}");
    assert_eq!(d.stages.last().unwrap().stage, Abort, "{d}");
    assert!(d.stages.iter().all(|e| !e.recovered), "no rung may recover: {d}");

    // The NVLink rungs must have died to the typed saturation error — the
    // congestion storm exceeding the channel's queue budget — not by
    // decoding garbage.
    let nvlink_attempts: Vec<_> = d
        .stages
        .iter()
        .filter(|e| e.family == Nvlink && e.stage != Fallback && e.stage != Abort)
        .collect();
    assert_eq!(nvlink_attempts.len(), 3, "{d}");
    for e in nvlink_attempts {
        assert!(
            e.detail.contains("transport error") && e.detail.contains("saturated"),
            "nvlink rung should record link saturation, got: {}",
            e.detail
        );
    }
}

#[test]
fn exhausted_ladder_on_ampere_walks_the_same_rungs_in_order() {
    // The sub-core arch runs the identical ladder: total interference must
    // walk Static/Recalibrate/Stretch per family with a Fallback marker at
    // each family switch and a final Abort, exactly as on the paper trio.
    // This pins the adaptive layer's arch-independence through the sub-core
    // decomposition (issue partitions and the sectored L1 change latencies,
    // not the escalation policy).
    let spec = presets::rtx_a4000();
    let msg = Message::pseudo_random(16, 0xABD1);
    let plan = FaultPlan::new(0xDEAD_11AC)
        .with_intensity(1.0)
        .with_period(200_000)
        .with_burst(200_000)
        .with_target_set(2)
        .with_kinds(FaultKinds { link: true, skew: true, ..FaultKinds::cache() });
    let env = LinkEnvironment::clean()
        .with_faults(plan)
        .with_noise(total_noise(), 40 + 30 * msg.len() as u64)
        .with_topology(gpgpu_spec::TopologySpec::dual("ampere").unwrap());
    let link = AdaptiveLink::new(spec).with_env(env);

    let out = link.transmit(&msg).expect("exhaustion is an outcome, not an Err");
    let d = &out.diagnostic;
    assert!(!d.delivered, "no family may deliver under total interference: {d}");
    assert!(d.reason.contains("exhausted"), "{}", d.reason);

    use ChannelFamily::{Atomic, CacheL1Sync, Nvlink, Sfu};
    use LadderStage::{Abort, Fallback, Recalibrate, Static, Stretch};
    let got: Vec<(LadderStage, ChannelFamily)> =
        d.stages.iter().map(|e| (e.stage, e.family)).collect();
    let want = vec![
        (Static, CacheL1Sync),
        (Recalibrate, CacheL1Sync),
        (Stretch, CacheL1Sync),
        (Fallback, Atomic),
        (Static, Atomic),
        (Recalibrate, Atomic),
        (Stretch, Atomic),
        (Fallback, Sfu),
        (Static, Sfu),
        (Recalibrate, Sfu),
        (Stretch, Sfu),
        (Fallback, Nvlink),
        (Static, Nvlink),
        (Recalibrate, Nvlink),
        (Stretch, Nvlink),
    ];
    assert_eq!(&got[..want.len()], &want[..], "ampere ladder order diverged: {d}");
    assert_eq!(d.stages.last().unwrap().stage, Abort, "{d}");
    assert!(d.stages.iter().all(|e| !e.recovered), "no rung may recover: {d}");
}

#[test]
fn ampere_adaptive_delivers_bit_exact_on_a_clean_device() {
    let link = AdaptiveLink::new(presets::rtx_a4000());
    let msg = Message::pseudo_random(32, 0xA4_000);
    let a = link.transmit(&msg).expect("adaptive");
    assert!(a.diagnostic.delivered, "{}", a.diagnostic);
    assert_eq!(a.received, msg);
    assert_eq!(a.diagnostic.stages.len(), 1, "no escalation on a clean device");
}

#[test]
fn exhausted_ladder_without_a_topology_reports_the_nvlink_config_error() {
    // Same total interference, but no multi-GPU topology in the
    // environment: the NVLink rungs cannot even construct a channel and
    // must record the typed configuration error instead of panicking.
    let spec = presets::tesla_k40c();
    let msg = Message::pseudo_random(16, 0xABD2);
    let plan = FaultPlan::new(0xDEAD_11AC)
        .with_intensity(1.0)
        .with_period(200_000)
        .with_burst(200_000)
        .with_target_set(2)
        .with_kinds(FaultKinds { skew: true, ..FaultKinds::cache() });
    let env = LinkEnvironment::clean()
        .with_faults(plan)
        .with_noise(total_noise(), 40 + 30 * msg.len() as u64);
    let out = AdaptiveLink::new(spec).with_env(env).transmit(&msg).expect("outcome, not Err");
    let d = &out.diagnostic;
    assert!(!d.delivered, "{d}");
    assert_eq!(d.stages.last().unwrap().stage, LadderStage::Abort, "{d}");
    let nvlink_rungs: Vec<_> =
        d.stages.iter().filter(|e| e.family == ChannelFamily::Nvlink).collect();
    assert!(!nvlink_rungs.is_empty(), "nvlink family must still be attempted: {d}");
    assert!(
        nvlink_rungs
            .iter()
            .filter(|e| e.stage != LadderStage::Fallback)
            .all(|e| e.detail.contains("requires a multi-GPU topology")),
        "{d}"
    );
}

#[test]
fn clean_device_adaptive_is_bit_identical_to_static() {
    let link = AdaptiveLink::new(presets::tesla_k40c());
    let msg = Message::pseudo_random(48, 0x1DE1);
    let a = link.transmit(&msg).expect("adaptive");
    let s = link.transmit_static(&msg).expect("static");
    assert_eq!(a.received, s.received);
    assert_eq!(a.report, s.report, "same rounds, frames, and simulated cycles");
    assert_eq!(a.diagnostic.stages.len(), 1, "no escalation on a clean device");
}

// ------------------------------------------------------- harness robustness

#[test]
fn panicking_and_deadline_trials_are_isolated_per_slot() {
    let spec = presets::tesla_k40c();
    let runner = TrialRunner::sequential().with_workers(4).with_deadline(1_000);
    let batch = |r: &TrialRunner| {
        r.run_caught(5, |t| {
            match t.index {
                // A hung-handshake stand-in: the sync channel cannot finish
                // inside the trial deadline, surfacing CycleLimitExceeded.
                1 => {
                    let ch = SyncChannel::new(spec.clone())
                        .with_cycle_budget(t.deadline.expect("runner sets a deadline"));
                    ch.transmit(&Message::pseudo_random(8, t.seed)).map(|o| o.received)
                }
                // A crashing trial.
                3 => panic!("trial {} crashed", t.index),
                // Healthy neighbors: a real transmission each.
                _ => L1Channel::new(spec.clone())
                    .transmit(&Message::pseudo_random(8, 0xF00D ^ t.index as u64))
                    .map(|o| o.received),
            }
        })
    };
    let out = batch(&runner);
    assert_eq!(out.len(), 5);
    assert_eq!(out[1], Err(TrialError::DeadlineExceeded { budget: 1_000 }));
    assert_eq!(out[3], Err(TrialError::Panicked { message: "trial 3 crashed".into() }));
    for i in [0, 2, 4] {
        let received = out[i].as_ref().unwrap_or_else(|e| panic!("trial {i} failed: {e}"));
        assert_eq!(*received, Message::pseudo_random(8, 0xF00D ^ i as u64), "trial {i}");
    }
    // The whole batch — including which slots erred and why — is identical
    // for every worker count.
    let seq = batch(&TrialRunner::sequential().with_deadline(1_000));
    assert_eq!(out, seq, "per-trial verdicts are worker-count independent");
}
