//! Three-way differential tests: Dense / EventDriven / Analytical.
//!
//! The two cycle engines must stay bit-identical (the
//! `integration_engines` contract); the analytical fast path is a
//! closed-form model *characterized from* the cycle engine, so it is held
//! to explicit per-family tolerances instead
//! ([`gpgpu_covert::analytic::tolerance`], policy in DESIGN.md §8):
//! predicted BER within the stated band of simulated BER across the
//! Figure-5-style sweep grids, predicted bandwidth within the stated
//! relative band, and **exact** works/dead verdict agreement wherever the
//! simulator is confident (simulated BER ≤ 0.05 or ≥ 0.35).

use gpgpu_covert::analytic::{
    simulator_confident, tolerance, AnalyticalModel, AnalyticalPrediction, ChannelVerdict,
};
use gpgpu_covert::atomic_channel::{AtomicChannel, AtomicScenario};
use gpgpu_covert::bits::Message;
use gpgpu_covert::cache_channel::{L1Channel, L2Channel};
use gpgpu_covert::fu_channel::SfuChannel;
use gpgpu_covert::harness::{assert_engines_agree_within, TrialRunner};
use gpgpu_covert::nvlink_channel::NvlinkChannel;
use gpgpu_covert::sync_channel::SyncChannel;
use gpgpu_covert::ChannelOutcome;
use gpgpu_sim::{DeviceTuning, EngineMode, LatencyTable};
use gpgpu_spec::{presets, Family, TopologySpec};
use std::sync::OnceLock;

/// The characterized Kepler model, extracted once and shared by every test
/// (characterization itself runs cycle-engine probes).
fn kepler_model() -> &'static AnalyticalModel {
    static MODEL: OnceLock<AnalyticalModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut m = AnalyticalModel::characterize(&presets::tesla_k40c())
            .expect("characterization suite runs");
        m.characterize_nvlink(&TopologySpec::dual("kepler").expect("dual topology"))
            .expect("nvlink characterization runs");
        m
    })
}

/// The characterized Ampere model: the analytical layer is arch-generic, so
/// the same extraction suite must fit the sub-core device (single-issue
/// partitions, fixed-latency dependence management, sectored L1) without any
/// model-side special casing.
fn ampere_model() -> &'static AnalyticalModel {
    static MODEL: OnceLock<AnalyticalModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut m = AnalyticalModel::characterize(&presets::rtx_a4000())
            .expect("ampere characterization suite runs");
        m.characterize_nvlink(&TopologySpec::dual("ampere").expect("dual topology"))
            .expect("ampere nvlink characterization runs");
        m
    })
}

fn tuning(mode: EngineMode) -> DeviceTuning {
    DeviceTuning { engine: mode, ..DeviceTuning::none() }
}

/// Recasts a simulated outcome in the analytical prediction's shape so the
/// three-way helper can compare like with like. Dense-vs-EventDriven
/// equality on this struct is still exact (`PartialEq` on the raw floats).
fn observed(family: Family, knob: f64, o: &ChannelOutcome) -> AnalyticalPrediction {
    AnalyticalPrediction {
        family,
        knob,
        bits: o.sent.len(),
        cycles: o.cycles,
        bandwidth_kbps: o.bandwidth_kbps,
        ber: o.ber,
        verdict: ChannelVerdict::from_ber(o.ber),
    }
}

/// Runs one sweep cell three ways against `model` and asserts the family's
/// tolerance. Returns the simulated cell for further checks.
fn three_way_cell_on<F>(
    model: &AnalyticalModel,
    family: Family,
    knob: f64,
    msg: &Message,
    transmit: F,
) -> AnalyticalPrediction
where
    F: Fn(EngineMode) -> ChannelOutcome,
{
    let pred = model.predict(family, knob, msg).expect("family is characterized");
    let what = format!("{family} channel at knob {knob}");
    assert_engines_agree_within(
        &what,
        |mode| observed(family, knob, &transmit(mode)),
        &pred,
        |sim, pred| tolerance(family).check(sim.ber, sim.bandwidth_kbps, pred),
    )
}

/// [`three_way_cell_on`] against the Kepler model (the paper's device).
fn three_way_cell<F>(family: Family, knob: f64, msg: &Message, transmit: F) -> AnalyticalPrediction
where
    F: Fn(EngineMode) -> ChannelOutcome,
{
    three_way_cell_on(kepler_model(), family, knob, msg, transmit)
}

/// The Figure-5 message: pseudo-random (about half ones), like the paper's
/// payloads.
fn fig5_message() -> Message {
    Message::pseudo_random(48, 0xF165)
}

#[test]
fn l1_three_way_agreement_on_fig5_grid() {
    let msg = fig5_message();
    let mut confident_cells = 0;
    for &iterations in &[20u64, 12, 8, 4, 2, 1] {
        let sim = three_way_cell(Family::L1, iterations as f64, &msg, |mode| {
            L1Channel::new(presets::tesla_k40c())
                .with_tuning(tuning(mode))
                .with_iterations(iterations)
                .transmit(&msg)
                .expect("l1 transmits")
        });
        if simulator_confident(sim.ber) {
            confident_cells += 1;
        }
    }
    assert!(confident_cells >= 2, "the fig5 grid must exercise the confident region");
}

#[test]
fn l2_three_way_agreement_on_iteration_grid() {
    let msg = fig5_message();
    for &iterations in &[16u64, 4, 2, 1] {
        three_way_cell(Family::L2, iterations as f64, &msg, |mode| {
            L2Channel::new(presets::tesla_k40c())
                .with_tuning(tuning(mode))
                .with_iterations(iterations)
                .transmit(&msg)
                .expect("l2 transmits")
        });
    }
}

#[test]
fn sfu_three_way_agreement_on_iteration_grid() {
    let msg = Message::pseudo_random(24, 0x5F0);
    for &iterations in &[10u64, 6, 3] {
        three_way_cell(Family::Sfu, iterations as f64, &msg, |mode| {
            SfuChannel::new(presets::tesla_k40c())
                .with_tuning(tuning(mode))
                .with_iterations(iterations)
                .transmit(&msg)
                .expect("sfu transmits")
        });
    }
}

#[test]
fn atomic_three_way_agreement_on_iteration_grid() {
    let msg = Message::pseudo_random(24, 0xA70);
    for &iterations in &[12u64, 6, 3] {
        three_way_cell(Family::Atomic, iterations as f64, &msg, |mode| {
            AtomicChannel::new(presets::tesla_k40c(), AtomicScenario::OneAddress)
                .with_tuning(tuning(mode))
                .with_iterations(iterations)
                .transmit(&msg)
                .expect("atomic transmits")
        });
    }
}

#[test]
fn sync_three_way_agreement() {
    // The synchronized channel has no symbol-time knob; the model's check is
    // that its fitted fixed+per-bit cost extrapolates from the 8/24-bit
    // probe messages to an unseen length.
    let msg = Message::pseudo_random(16, 0x57AC);
    three_way_cell(Family::Sync, 0.0, &msg, |mode| {
        SyncChannel::new(presets::tesla_k40c())
            .with_tuning(tuning(mode))
            .transmit(&msg)
            .expect("sync transmits")
    });
}

#[test]
fn nvlink_three_way_agreement_on_window_grid() {
    let msg = Message::pseudo_random(16, 0x12);
    for &window in &[2_048u64, 4_096, 8_192] {
        three_way_cell(Family::Nvlink, window as f64, &msg, |mode| {
            NvlinkChannel::new(TopologySpec::dual("kepler").expect("dual topology"))
                .expect("channel builds")
                .with_tuning(tuning(mode))
                .with_window(window)
                .transmit(&msg)
                .expect("nvlink transmits")
        });
    }
}

/// The Ampere three-way grid: every single-device family holds its
/// documented tolerance band on the sub-core arch too. Smaller knob grids
/// than the Kepler suites — the point is per-family coverage of the modern
/// core, not a second full Figure-5 sweep.
#[test]
fn ampere_three_way_agreement_per_family() {
    let model = ampere_model();
    let spec = presets::rtx_a4000();

    let msg = fig5_message();
    for &iterations in &[20u64, 8, 2] {
        three_way_cell_on(model, Family::L1, iterations as f64, &msg, |mode| {
            L1Channel::new(spec.clone())
                .with_tuning(tuning(mode))
                .with_iterations(iterations)
                .transmit(&msg)
                .expect("l1 transmits")
        });
    }

    let msg = Message::pseudo_random(24, 0x5F0);
    for &iterations in &[10u64, 3] {
        three_way_cell_on(model, Family::Sfu, iterations as f64, &msg, |mode| {
            SfuChannel::new(spec.clone())
                .with_tuning(tuning(mode))
                .with_iterations(iterations)
                .transmit(&msg)
                .expect("sfu transmits")
        });
    }

    // Balanced seed (12/24 ones): the model is characterized from half-ones
    // probes, and Ampere's wider idle/contended atomic gap makes predictions
    // for ones-poor payloads overshoot the bandwidth band.
    let msg = Message::pseudo_random(24, 0xF165);
    for &iterations in &[12u64, 3] {
        three_way_cell_on(model, Family::Atomic, iterations as f64, &msg, |mode| {
            AtomicChannel::new(spec.clone(), AtomicScenario::OneAddress)
                .with_tuning(tuning(mode))
                .with_iterations(iterations)
                .transmit(&msg)
                .expect("atomic transmits")
        });
    }

    let msg = Message::pseudo_random(16, 0x57AC);
    three_way_cell_on(model, Family::Sync, 0.0, &msg, |mode| {
        SyncChannel::new(spec.clone())
            .with_tuning(tuning(mode))
            .transmit(&msg)
            .expect("sync transmits")
    });

    let msg = Message::pseudo_random(16, 0x12);
    for &window in &[2_048u64, 8_192] {
        three_way_cell_on(model, Family::Nvlink, window as f64, &msg, |mode| {
            NvlinkChannel::new(TopologySpec::dual("ampere").expect("dual topology"))
                .expect("channel builds")
                .with_tuning(tuning(mode))
                .with_window(window)
                .transmit(&msg)
                .expect("nvlink transmits")
        });
    }
}

#[test]
fn ampere_characterized_table_round_trips_through_spec() {
    let model = ampere_model();
    let spec = model.table().to_spec();
    let parsed = LatencyTable::from_spec(&spec).expect("ampere table parses back");
    assert_eq!(
        &parsed,
        model.table(),
        "to_spec/from_spec must round-trip the ampere table exactly"
    );
    for family in
        [Family::L1, Family::L2, Family::Sfu, Family::Atomic, Family::Sync, Family::Nvlink]
    {
        assert!(parsed.family(family).is_some(), "family {family} missing from the ampere table");
    }
}

#[test]
fn characterized_table_round_trips_through_spec() {
    let model = kepler_model();
    let spec = model.table().to_spec();
    let parsed = LatencyTable::from_spec(&spec).expect("characterized table parses back");
    assert_eq!(
        &parsed,
        model.table(),
        "to_spec/from_spec must round-trip the extracted table exactly"
    );
    // The table carries all six families once nvlink is characterized.
    for family in
        [Family::L1, Family::L2, Family::Sfu, Family::Atomic, Family::Sync, Family::Nvlink]
    {
        assert!(parsed.family(family).is_some(), "family {family} missing from the table");
    }
}

#[test]
fn pruned_fig5_sweep_reproduces_unpruned_curve() {
    let model = kepler_model();
    let msg = fig5_message();
    let grid = [20u64, 12, 8, 4, 2, 1];
    let runner = TrialRunner::new();
    let channel = L1Channel::new(presets::tesla_k40c());

    let unpruned = channel.error_rate_sweep_on(&runner, &msg, &grid).expect("unpruned sweep runs");
    let (pruned, mask) = model
        .pruned_error_rate_sweep(&runner, &channel, Family::L1, &msg, &grid)
        .expect("pruned sweep runs");

    let simulated = mask.iter().filter(|&&keep| keep).count();
    assert!(simulated < grid.len(), "the model must prune at least one cell");
    assert!(simulated > 0, "the fig5 grid crosses the transition band");

    for (i, (&keep, (up, pp))) in mask.iter().zip(unpruned.iter().zip(&pruned)).enumerate() {
        if keep {
            // Simulated cells are the same trials the unpruned sweep ran —
            // bit-identical, not just close.
            assert_eq!(up, pp, "simulated cell {i} diverged from the unpruned sweep");
        } else {
            // Filled cells come from the closed form: curve agreement is the
            // documented tolerance plus verdict agreement on confident cells.
            let tol = tolerance(Family::L1);
            assert!(
                (up.1 - pp.1).abs() <= tol.ber_abs,
                "filled cell {i}: BER {:.3} vs simulated {:.3} exceeds ±{:.3}",
                pp.1,
                up.1,
                tol.ber_abs
            );
            assert!(
                (up.0 - pp.0).abs() / up.0 <= tol.bandwidth_rel,
                "filled cell {i}: bandwidth {:.2} vs simulated {:.2} exceeds ±{:.0}%",
                pp.0,
                up.0,
                tol.bandwidth_rel * 100.0
            );
            if simulator_confident(up.1) {
                assert_eq!(
                    ChannelVerdict::from_ber(pp.1),
                    ChannelVerdict::from_ber(up.1),
                    "filled cell {i} flipped a confident verdict"
                );
            }
        }
    }
}

#[test]
fn targeted_characterization_matches_full_suite() {
    let full = kepler_model();
    let only_l1 = AnalyticalModel::characterize_families(&presets::tesla_k40c(), &[Family::L1])
        .expect("targeted characterization runs");
    assert_eq!(
        only_l1.table().family(Family::L1),
        full.table().family(Family::L1),
        "the targeted suite must extract the same l1 model as the full suite"
    );
    assert!(only_l1.table().family(Family::Sfu).is_none());
}
