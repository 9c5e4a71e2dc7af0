//! Property tests for the analytical fast path and the calibration
//! thresholds it leans on.
//!
//! Two families of properties:
//!
//! * **model shape** — for any family model the characterizer could emit,
//!   the closed form is monotone in symbol time (more iterations: more
//!   cycles, lower failure probability) and never leaves [0, err_sat];
//! * **simulator agreement** — against the live characterized model, the
//!   predictor never flips a verdict the cycle engine is confident about
//!   (simulated BER ≤ 0.05 or ≥ 0.35), for arbitrary grid points and
//!   messages;
//! * **calibration regression guard** — `core::calibrate` thresholds stay
//!   valid (`min_hot >= 1`, the PR-4 `InvalidThreshold` bug class) and
//!   monotone as noise pushes the hot population upward.

use gpgpu_covert::analytic::{simulator_confident, AnalyticalModel, ChannelVerdict};
use gpgpu_covert::bits::Message;
use gpgpu_covert::cache_channel::L1Channel;
use gpgpu_covert::calibrate::{pilot_pattern, Calibration};
use gpgpu_sim::FamilyModel;
use gpgpu_spec::{presets, Family};
use proptest::prelude::*;
use std::sync::OnceLock;

fn l1_model() -> &'static AnalyticalModel {
    static MODEL: OnceLock<AnalyticalModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        AnalyticalModel::characterize_families(&presets::tesla_k40c(), &[Family::L1])
            .expect("l1 characterization runs")
    })
}

/// Any affine-cost family model the characterizer could plausibly emit.
/// The vendored proptest only samples integer ranges, so parameters are
/// drawn in fixed-point (1/16 resolution) and scaled down.
fn arb_family_model() -> impl Strategy<Value = FamilyModel> {
    (
        0u64..80_000,   // fixed, sixteenths
        16u64..160_000, // base, sixteenths
        0u64..80_000,   // slope, sixteenths
        0u64..=16,      // err_sat, sixteenths
        0u64..256,      // err_knee, sixteenths
    )
        .prop_map(|(fixed, base, slope, err_sat, err_knee)| FamilyModel {
            family: Family::L1,
            knob: "iterations".into(),
            fixed: fixed as f64 / 16.0,
            base: base as f64 / 16.0,
            slope: slope as f64 / 16.0,
            knob_lo: 1.0,
            knob_hi: 32.0,
            err_sat: err_sat as f64 / 16.0,
            err_knee: err_knee as f64 / 16.0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// More symbol time never hurts: cycles are non-decreasing and the
    /// 1-bit failure probability is non-increasing in the knob.
    #[test]
    fn closed_form_is_monotone_in_symbol_time(
        model in arb_family_model(),
        bits in 1usize..128,
        knob_a in 16u64..1_024,
        knob_b in 16u64..1_024,
    ) {
        let (knob_a, knob_b) = (knob_a as f64 / 16.0, knob_b as f64 / 16.0);
        let (lo, hi) = if knob_a <= knob_b { (knob_a, knob_b) } else { (knob_b, knob_a) };
        prop_assert!(model.cycles(bits, lo) <= model.cycles(bits, hi));
        prop_assert!(model.one_bit_failure(lo) >= model.one_bit_failure(hi));
        let p = model.one_bit_failure(lo);
        prop_assert!((0.0..=model.err_sat.max(0.0)).contains(&p));
    }

    /// Longer messages never cost fewer cycles.
    #[test]
    fn closed_form_is_monotone_in_message_length(
        model in arb_family_model(),
        bits in 1usize..256,
        knob in 16u64..1_024,
    ) {
        let knob = knob as f64 / 16.0;
        prop_assert!(model.cycles(bits, knob) <= model.cycles(bits + 1, knob));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The live characterized L1 model never flips a verdict the simulator
    /// is confident about, for arbitrary iteration counts and messages.
    #[test]
    fn predictor_never_flips_a_confident_l1_verdict(
        iterations in 1u64..=24,
        bits in proptest::collection::vec(any::<bool>(), 16..48),
    ) {
        let msg = Message::from_bits(bits);
        let sim = L1Channel::new(presets::tesla_k40c())
            .with_iterations(iterations)
            .transmit(&msg)
            .expect("l1 transmits");
        // Inside the transition band the simulator's own verdict is not
        // confident and the model is allowed to disagree (vendored proptest
        // has no prop_assume; an early return discards the case).
        if simulator_confident(sim.ber) {
            let pred =
                l1_model().predict(Family::L1, iterations as f64, &msg).expect("l1 characterized");
            prop_assert_eq!(
                pred.verdict,
                ChannelVerdict::from_ber(sim.ber),
                "model flipped a confident verdict at {} iterations (sim BER {}, predicted {})",
                iterations, sim.ber, pred.ber
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Calibration thresholds fitted from increasingly noisy hot samples
    /// move monotonically upward and never degenerate to `min_hot == 0` —
    /// the PR-4 `InvalidThreshold` regression class.
    #[test]
    fn calibration_threshold_is_monotone_under_noise_and_min_hot_stays_valid(
        idle in 1u64..200,
        gap in 8u64..400,
        noise_step in 1u64..50,
        pilot_len in 4usize..16,
        samples_per_bit in 1usize..4,
    ) {
        let pilot = pilot_pattern(pilot_len);
        let mut last_threshold = None;
        for noise in 0..4u64 {
            // Hot latencies ride `noise` steps above the clean separation
            // point; idle latencies stay put. A hotter contended population
            // can only push the fitted threshold up.
            let samples: Vec<Vec<u64>> = pilot
                .iter()
                .map(|&b| {
                    let v = if b { idle + gap + noise * noise_step } else { idle };
                    vec![v; samples_per_bit]
                })
                .collect();
            let cal = Calibration::fit(&pilot, &samples).expect("separable pilot fits");
            prop_assert!(cal.min_hot >= 1, "min_hot degenerated to 0");
            if let Some(last) = last_threshold {
                prop_assert!(
                    cal.threshold >= last,
                    "threshold regressed under added noise: {} < {}",
                    cal.threshold,
                    last
                );
            }
            last_threshold = Some(cal.threshold);
        }
    }

    /// `from_spec` clamps any persisted `min_hot` back to a decodable value.
    #[test]
    fn calibration_from_spec_never_yields_zero_min_hot(
        threshold in 1u64..10_000,
        min_hot in 0usize..64,
    ) {
        let cal = Calibration::from_spec(threshold, min_hot);
        prop_assert!(cal.min_hot >= 1);
    }
}
