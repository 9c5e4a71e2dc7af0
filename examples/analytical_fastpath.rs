//! The analytical fast path side by side with the cycle engine: extract
//! the latency table from the simulator, then compare the closed-form
//! prediction against a simulated run for one representative sweep cell
//! per channel family (the same cells `tests/integration_analytic.rs`
//! holds to the documented tolerances).
//!
//! ```sh
//! cargo run --release --example analytical_fastpath
//! ```

use gpgpu_covert::analytic::{tolerance, AnalyticalModel};
use gpgpu_covert::atomic_channel::{AtomicChannel, AtomicScenario};
use gpgpu_covert::bits::Message;
use gpgpu_covert::cache_channel::{L1Channel, L2Channel};
use gpgpu_covert::fu_channel::SfuChannel;
use gpgpu_covert::nvlink_channel::NvlinkChannel;
use gpgpu_covert::sync_channel::SyncChannel;
use gpgpu_covert::ChannelOutcome;
use gpgpu_spec::{presets, Family, TopologySpec};

fn main() {
    let spec = presets::tesla_k40c();
    let topology = TopologySpec::dual("kepler").expect("dual topology");
    let mut model = AnalyticalModel::characterize(&spec).expect("characterization suite runs");
    model.characterize_nvlink(&topology).expect("nvlink characterization runs");
    println!(
        "characterized {} from the cycle engine: {} op classes, {} families\n",
        spec.name,
        model.table().ops().count(),
        model.table().families().count()
    );
    println!(
        "{:<8} {:>6} {:>6}  {:>10} {:>10} {:>6}  {:>8} {:>8} {:>6}  {:9}",
        "family",
        "knob",
        "bits",
        "sim kb/s",
        "pred kb/s",
        "err%",
        "sim BER",
        "pred BER",
        "dBER",
        "band"
    );

    let fig5 = Message::pseudo_random(48, 0xF165);
    let short = |seed: u64| Message::pseudo_random(24, seed);
    let cells: Vec<(Family, f64, Message, ChannelOutcome)> = vec![
        (Family::L1, 8.0, fig5.clone(), {
            L1Channel::new(spec.clone()).with_iterations(8).transmit(&fig5).expect("l1")
        }),
        (Family::L2, 2.0, fig5.clone(), {
            L2Channel::new(spec.clone()).with_iterations(2).transmit(&fig5).expect("l2")
        }),
        (Family::Sfu, 6.0, short(0x5F0), {
            SfuChannel::new(spec.clone()).with_iterations(6).transmit(&short(0x5F0)).expect("sfu")
        }),
        (Family::Atomic, 6.0, short(0xA70), {
            AtomicChannel::new(spec.clone(), AtomicScenario::OneAddress)
                .with_iterations(6)
                .transmit(&short(0xA70))
                .expect("atomic")
        }),
        (Family::Sync, 0.0, Message::pseudo_random(16, 0x57AC), {
            SyncChannel::new(spec.clone())
                .transmit(&Message::pseudo_random(16, 0x57AC))
                .expect("sync")
        }),
        (Family::Nvlink, 4096.0, Message::pseudo_random(16, 0x12), {
            NvlinkChannel::new(topology.clone())
                .expect("channel builds")
                .with_window(4096)
                .transmit(&Message::pseudo_random(16, 0x12))
                .expect("nvlink")
        }),
    ];

    for (family, knob, msg, sim) in cells {
        let pred = model.predict(family, knob, &msg).expect("family is characterized");
        let tol = tolerance(family);
        let bw_err = 100.0 * (pred.bandwidth_kbps - sim.bandwidth_kbps).abs() / sim.bandwidth_kbps;
        println!(
            "{:<8} {:>6} {:>6}  {:>10.2} {:>10.2} {:>5.1}%  {:>8.4} {:>8.4} {:>6.4}  \
             ±{:.2}/±{:.0}%",
            family,
            knob,
            msg.len(),
            sim.bandwidth_kbps,
            pred.bandwidth_kbps,
            bw_err,
            sim.ber,
            pred.ber,
            (pred.ber - sim.ber).abs(),
            tol.ber_abs,
            tol.bandwidth_rel * 100.0,
        );
        tol.check(sim.ber, sim.bandwidth_kbps, &pred).expect("within the documented band");
    }
    println!("\nevery cell within its documented tolerance band (see DESIGN.md §8)");
}
