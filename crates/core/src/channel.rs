//! Common channel plumbing: transmission outcomes, decode helpers, and the
//! one family→channel constructor.
//!
//! [`build_channel`] is the only place that turns a [`Family`] into a
//! configured channel; the family-generic layers build through it and drive
//! the result as a [`CovertChannel`].

use crate::atomic_channel::{AtomicChannel, AtomicScenario};
use crate::bits::Message;
use crate::cache_channel::{CacheChannel, CacheLevel, L1Channel, L2Channel};
use crate::calibrate::Calibration;
use crate::fu_channel::SfuChannel;
use crate::noise::{noise_kernel, NoiseKind};
use crate::nvlink_channel::NvlinkChannel;
use crate::parallel::ParallelSfuChannel;
use crate::sync_channel::SyncChannel;
use crate::CovertError;
use gpgpu_sim::{DeviceTuning, FaultPlan, KernelSpec, SimStats};
use gpgpu_spec::{DeviceSpec, Family, TopologySpec};

/// Noise-kernel inner iterations used when a co-runner rides along a
/// *per-bit* channel (each bit is its own launch window, so the co-runner
/// only needs to cover one window, not the whole message).
const PER_BIT_NOISE_ITERS: u64 = 48;

/// Result of transmitting a message over a covert channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelOutcome {
    /// The message the trojan encoded.
    pub sent: Message,
    /// The message the spy decoded.
    pub received: Message,
    /// Device cycles consumed end to end (including kernel launches).
    pub cycles: u64,
    /// Achieved bandwidth in kilobits per second on the device's clock.
    pub bandwidth_kbps: f64,
    /// Bit error rate between sent and received.
    pub ber: f64,
    /// Cycle-engine counters of the device(s) that ran the transmission
    /// (zeroed for channels that do not surface them).
    pub stats: SimStats,
}

impl ChannelOutcome {
    /// Builds an outcome, deriving bandwidth and BER.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero: bandwidth is derived via
    /// [`DeviceSpec::bandwidth_kbps`], whose underlying
    /// `DeviceSpec::bandwidth_bps` asserts "bandwidth over zero cycles is
    /// undefined". Channel code returns
    /// [`crate::CovertError::ZeroCycleTransmission`] before reaching this.
    pub fn from_run(spec: &DeviceSpec, sent: Message, received: Message, cycles: u64) -> Self {
        let bandwidth_kbps = spec.bandwidth_kbps(sent.len() as u64, cycles);
        let ber = sent.bit_error_rate(&received);
        ChannelOutcome { sent, received, cycles, bandwidth_kbps, ber, stats: SimStats::default() }
    }

    /// Attaches engine counters from the device that ran the transmission.
    pub fn with_stats(mut self, stats: SimStats) -> Self {
        self.stats = stats;
        self
    }

    /// Whether the transfer was error-free.
    pub fn is_error_free(&self) -> bool {
        self.ber == 0.0
    }
}

/// Decodes one bit from per-iteration miss counts pushed by a spy probe
/// loop: the bit is 1 if at least `min_hot` iterations observed at least one
/// miss (the trojan's prime evicted the spy's lines).
///
/// # Errors
///
/// Returns [`crate::CovertError::InvalidThreshold`] when `min_hot == 0`:
/// with no evidence required, every bit decodes as 1 and a dead channel
/// masquerades as a perfect one.
pub fn decode_from_miss_counts(
    miss_counts: &[u64],
    min_hot: usize,
) -> Result<bool, crate::CovertError> {
    if min_hot == 0 {
        return Err(crate::CovertError::InvalidThreshold {
            what: "min_hot == 0 decodes every bit as 1".into(),
        });
    }
    Ok(miss_counts.iter().filter(|&&m| m > 0).count() >= min_hot)
}

/// Decodes one bit from per-iteration latency samples against a threshold:
/// the bit is 1 if at least `min_hot` samples exceed `threshold`.
///
/// # Errors
///
/// Returns [`crate::CovertError::InvalidThreshold`] when `min_hot == 0`,
/// under which every bit would decode as 1 regardless of the samples.
pub fn decode_from_latencies(
    samples: &[u64],
    threshold: u64,
    min_hot: usize,
) -> Result<bool, crate::CovertError> {
    if min_hot == 0 {
        return Err(crate::CovertError::InvalidThreshold {
            what: "min_hot == 0 decodes every bit as 1".into(),
        });
    }
    Ok(samples.iter().filter(|&&l| l > threshold).count() >= min_hot)
}

/// A recorded event trace retrieved after a traced transmission: the
/// events plus the kernel-id -> name table the exporters need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCapture {
    /// The recorded events (ring-buffered; check
    /// [`gpgpu_sim::EventTrace::dropped`] for overflow).
    pub events: gpgpu_sim::EventTrace,
    /// Diagnostic kernel names, indexed by kernel id.
    pub kernel_names: Vec<String>,
}

impl TraceCapture {
    /// The capture as Chrome trace-event JSON (`chrome://tracing`).
    pub fn chrome_trace_json(&self) -> String {
        gpgpu_sim::chrome_trace_json(&self.records(), &self.kernel_names)
    }

    /// The held records in chronological order (cloned out of the ring;
    /// iterate [`gpgpu_sim::EventTrace::iter`] on `events` to borrow).
    pub fn records(&self) -> Vec<gpgpu_sim::TraceRecord> {
        self.events.iter().cloned().collect()
    }
}

/// Runs a per-bit-relaunch channel: for every message bit, launches a fresh
/// trojan/spy kernel pair on two streams, waits for both, and decodes the
/// bit from the spy's block-0/warp-0 result buffer.
///
/// When `trace` is `Some`, the sink is installed on the device for the whole
/// transmission and can be retrieved afterwards via
/// [`gpgpu_sim::Device::take_trace_sink`] on the returned lease.
///
/// The device comes from the thread-local [`crate::pool`], so sweeps that
/// transmit repeatedly reuse one device's allocations (restored to pristine
/// state per transmission) instead of rebuilding the simulator per trial.
///
/// This is the structure of all the paper's *baseline* channels (Sections
/// 4-6): "we launch two kernels to communicate each bit of the message.
/// Clearly, this incurs some overhead to launch the kernels, but it
/// simplifies synchronization by leveraging the stream operations."
#[allow(clippy::too_many_arguments)] // one call-site bundle per channel family
pub(crate) fn transmit_per_bit(
    spec: &DeviceSpec,
    tuning: gpgpu_sim::DeviceTuning,
    jitter: Option<(u64, u64)>,
    faults: Option<gpgpu_sim::FaultPlan>,
    noise: &[gpgpu_sim::KernelSpec],
    msg: &Message,
    trojan_program: &dyn Fn(bool) -> gpgpu_isa::Program,
    spy_program: &dyn Fn() -> gpgpu_isa::Program,
    launches: (gpgpu_spec::LaunchConfig, gpgpu_spec::LaunchConfig),
    alloc_const_bytes: (u64, u64),
    decode: &dyn Fn(&[u64]) -> Result<bool, crate::CovertError>,
    cycles_per_bit_budget: u64,
    trace: Option<Box<dyn gpgpu_sim::TraceSink>>,
) -> Result<(ChannelOutcome, crate::pool::DeviceLease), crate::CovertError> {
    let mut dev = crate::pool::acquire(spec, tuning);
    if let Some((max, seed)) = jitter {
        dev.set_launch_jitter(max, seed);
    }
    if let Some(plan) = faults {
        dev.set_fault_injector(gpgpu_sim::FaultInjector::new(plan));
    }
    if let Some(sink) = trace {
        dev.set_trace_sink(sink);
    }
    // Allocations are performed once; the same arrays are reused by every
    // per-bit kernel pair, exactly as a real attacker reuses
    // `__constant__` symbols across launches.
    let _spy_base = dev.alloc_constant(alloc_const_bytes.0);
    let _trojan_base = dev.alloc_constant(alloc_const_bytes.1);
    let mut received = Vec::with_capacity(msg.len());
    for &bit in msg.bits() {
        let spy = dev.launch(0, gpgpu_sim::KernelSpec::new("spy", spy_program(), launches.0))?;
        let _trojan =
            dev.launch(1, gpgpu_sim::KernelSpec::new("trojan", trojan_program(bit), launches.1))?;
        // Noise co-runners ride on dedicated streams so each bit's kernel
        // pair contends with the same background workload — the per-bit
        // analogue of the paper's §8 concurrently-launched Rodinia apps.
        for (i, co) in noise.iter().enumerate() {
            dev.launch(2 + i as u32, co.clone())?;
        }
        dev.run_until_idle(cycles_per_bit_budget)?;
        // Borrowed read on the per-bit hot path: no clone of the kernel's
        // block records just to look at one warp's sample buffer.
        let samples = dev
            .block_records(spy)?
            .iter()
            .find(|b| b.block_id == 0)
            .and_then(|b| b.warp_results.first())
            .map(Vec::as_slice)
            .ok_or_else(|| crate::CovertError::MissingWarpResults {
                kernel: dev.kernel_name(spy).unwrap_or("spy").to_string(),
                block: 0,
                warp: 0,
            })?;
        received.push(decode(samples)?);
    }
    let cycles = dev.now();
    if cycles == 0 {
        // An empty message (or a device that never advanced) has no defined
        // bandwidth; previously this was masked by clamping to one cycle.
        return Err(crate::CovertError::ZeroCycleTransmission);
    }
    let outcome = ChannelOutcome::from_run(spec, msg.clone(), Message::from_bits(received), cycles)
        .with_stats(*dev.stats());
    Ok((outcome, dev))
}

/// A covert channel of any family, as the family-generic layers drive it.
/// Built by [`build_channel`]; each channel struct keeps its own, richer
/// inherent API.
pub trait CovertChannel {
    /// The family this channel belongs to.
    fn family(&self) -> Family;

    /// Transmits `msg` under the channel's configuration.
    ///
    /// # Errors
    ///
    /// Propagates the channel's transmission failures.
    fn transmit(&self, msg: &Message) -> Result<ChannelOutcome, CovertError>;

    /// Runs the family's pilot handshake over `pilot_bits` known bits under
    /// the channel's configuration and fits a decode rule.
    ///
    /// # Errors
    ///
    /// Propagates transmission failures; [`CovertError::Config`] when the
    /// pilot distributions are inseparable or the family has no pilot.
    fn calibrate(&self, pilot_bits: usize) -> Result<Calibration, CovertError>;
}

/// The settings [`build_channel`] applies to a family's canonical channel.
/// A family ignores the settings it has no use for: the synchronized and
/// parallel-SFU channels have no per-bit iteration knob, only nvlink reads
/// the topology, nvlink ignores on-chip noise, and the atomic and
/// parallel-SFU channels take no calibration.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Device the on-chip families run on.
    pub spec: DeviceSpec,
    /// Multi-GPU topology; required by [`Family::Nvlink`].
    pub topology: Option<TopologySpec>,
    /// Device tuning (a lowered defense) on every device the channel uses.
    pub tuning: DeviceTuning,
    /// Per-bit symbol time (iterations / probes per bit); `None` keeps the
    /// family default.
    pub iterations: Option<u64>,
    /// Multiplier on the symbol time — per-bit iterations, or per-round
    /// redundancy for the synchronized family (the ladder's stretch rung).
    pub stretch: u32,
    /// Deterministic fault plan installed for the run.
    pub faults: Option<FaultPlan>,
    /// Noise co-runner kinds launched beside the channel kernels.
    pub noise: Vec<NoiseKind>,
    /// Noise-kernel inner iterations per launch: the synchronized family's
    /// single launch uses them all; per-bit families cap them at one bit's
    /// window.
    pub noise_iters: u64,
    /// Fitted decode rule replacing the family's static one.
    pub calibration: Option<Calibration>,
}

impl ChannelConfig {
    /// Family defaults on `spec`: untuned, default symbol time, no
    /// topology, faults, noise or calibration.
    pub fn new(spec: DeviceSpec) -> Self {
        ChannelConfig {
            spec,
            topology: None,
            tuning: DeviceTuning::none(),
            iterations: None,
            stretch: 1,
            faults: None,
            noise: Vec::new(),
            noise_iters: 0,
            calibration: None,
        }
    }

    fn symbol_time(&self, default: u64) -> u64 {
        self.iterations.unwrap_or(default) * u64::from(self.stretch.max(1))
    }

    fn noise_kernels(&self, per_bit: bool) -> Vec<KernelSpec> {
        let iters = if per_bit {
            PER_BIT_NOISE_ITERS.min(self.noise_iters.max(1))
        } else {
            self.noise_iters.max(1)
        };
        self.noise.iter().map(|&k| noise_kernel(&self.spec, k, iters)).collect()
    }
}

/// Builds `family`'s canonical channel under `cfg`.
///
/// # Errors
///
/// [`CovertError::Config`] for nvlink without a topology (or over an
/// invalid one) and for parallel-SFU with a fault plan, which that channel
/// cannot install.
pub fn build_channel(
    family: Family,
    cfg: &ChannelConfig,
) -> Result<Box<dyn CovertChannel>, CovertError> {
    let spec = cfg.spec.clone();
    Ok(match family {
        Family::L1 | Family::L2 => {
            let (ch, default) = if family == Family::L1 {
                (L1Channel::new(spec), crate::cache_channel::DEFAULT_L1_ITERATIONS)
            } else {
                (L2Channel::new(spec), crate::cache_channel::DEFAULT_L2_ITERATIONS)
            };
            let mut ch = ch
                .with_tuning(cfg.tuning)
                .with_iterations(cfg.symbol_time(default))
                .with_noise(cfg.noise_kernels(true));
            ch.fault_plan = cfg.faults;
            ch.calibration = cfg.calibration.clone();
            Box::new(ch)
        }
        Family::Sync => {
            let mut ch = SyncChannel::new(spec)
                .with_tuning(cfg.tuning)
                .with_redundancy(crate::sync_channel::DEFAULT_REDUNDANCY * cfg.stretch.max(1));
            ch.fault_plan = cfg.faults;
            ch.noise = cfg.noise_kernels(false);
            ch.calibration = cfg.calibration.clone();
            Box::new(ch)
        }
        Family::ParallelSfu => {
            if cfg.faults.is_some() {
                return Err(CovertError::Config {
                    reason: "the parallel-sfu family does not support fault injection (drop the \
                             fault axis for it)"
                        .into(),
                });
            }
            Box::new(ParallelSfuChannel::new(spec).with_tuning(cfg.tuning))
        }
        Family::Sfu => {
            let mut ch = SfuChannel::new(spec)
                .with_tuning(cfg.tuning)
                .with_iterations(cfg.symbol_time(crate::fu_channel::DEFAULT_ITERATIONS))
                .with_noise(cfg.noise_kernels(true));
            ch.fault_plan = cfg.faults;
            ch.calibration = cfg.calibration.clone();
            Box::new(ch)
        }
        Family::Atomic => {
            let mut ch = AtomicChannel::new(spec, AtomicScenario::OneAddress)
                .with_tuning(cfg.tuning)
                .with_iterations(cfg.symbol_time(crate::atomic_channel::DEFAULT_ITERATIONS))
                .with_noise(cfg.noise_kernels(true));
            ch.fault_plan = cfg.faults;
            Box::new(ch)
        }
        Family::Nvlink => {
            let topology = cfg.topology.clone().ok_or_else(|| CovertError::Config {
                reason: "the nvlink family requires a multi-GPU topology and none was given".into(),
            })?;
            // On-chip noise co-runners cannot reach the inter-device link;
            // the pressure this family feels is the fault plan's
            // link-congestion kind.
            let mut ch = NvlinkChannel::new(topology)?
                .with_tuning(cfg.tuning)
                .with_iterations(cfg.symbol_time(crate::nvlink_channel::DEFAULT_ITERATIONS));
            ch.fault_plan = cfg.faults;
            ch.calibration = cfg.calibration.clone();
            Box::new(ch)
        }
    })
}

/// The pilot fit of the families that re-measure their contention
/// threshold on every transmission (atomic, nvlink): the measured
/// threshold, with a quarter of the per-bit probes as the hot quorum.
fn threshold_calibration(threshold: u64, iterations: u64) -> Calibration {
    let iterations = iterations as usize;
    Calibration::from_spec(threshold + 1, (iterations / 4).max(2).min(iterations))
}

/// Implements [`CovertChannel`] for a channel struct from its family
/// (`|channel| ...`), its inherent `transmit`, and its pilot handshake
/// (`|channel, pilot_bits| ...`).
macro_rules! covert_channel {
    ($ty:ty, $family:expr, $pilot:expr) => {
        impl CovertChannel for $ty {
            fn family(&self) -> Family {
                ($family)(self)
            }
            fn transmit(&self, msg: &Message) -> Result<ChannelOutcome, CovertError> {
                <$ty>::transmit(self, msg)
            }
            fn calibrate(&self, pilot_bits: usize) -> Result<Calibration, CovertError> {
                ($pilot)(self, pilot_bits)
            }
        }
    };
}

covert_channel!(
    CacheChannel,
    |ch: &CacheChannel| match ch.level {
        CacheLevel::L1 => Family::L1,
        CacheLevel::L2 => Family::L2,
    },
    CacheChannel::calibrate
);
covert_channel!(SyncChannel, |_| Family::Sync, SyncChannel::calibrate);
covert_channel!(SfuChannel, |_| Family::Sfu, SfuChannel::calibrate);
covert_channel!(ParallelSfuChannel, |_| Family::ParallelSfu, |_, _| Err(CovertError::Config {
    reason: "the parallel-sfu family has no pilot handshake".into()
}));
covert_channel!(AtomicChannel, |_| Family::Atomic, |ch: &AtomicChannel, _| Ok(
    threshold_calibration(ch.calibrate_threshold()?, ch.iterations)
));
covert_channel!(NvlinkChannel, |_| Family::Nvlink, |ch: &NvlinkChannel, _| Ok(
    threshold_calibration(ch.calibrate_threshold()?, ch.iterations)
));

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_spec::presets;

    #[test]
    fn outcome_derives_bandwidth_and_ber() {
        let spec = presets::tesla_k40c();
        let sent = Message::from_bits([true, false, true, false]);
        let received = Message::from_bits([true, false, false, false]);
        let o = ChannelOutcome::from_run(&spec, sent, received, 745_000);
        assert!((o.bandwidth_kbps - 4.0).abs() < 1e-9);
        assert!((o.ber - 0.25).abs() < 1e-12);
        assert!(!o.is_error_free());
    }

    #[test]
    fn miss_count_decode() {
        assert!(decode_from_miss_counts(&[0, 1, 2, 1, 0], 2).unwrap());
        assert!(!decode_from_miss_counts(&[0, 1, 0, 0, 0], 2).unwrap());
        assert!(!decode_from_miss_counts(&[], 1).unwrap());
    }

    #[test]
    fn latency_decode() {
        assert!(decode_from_latencies(&[100, 500, 500], 300, 2).unwrap());
        assert!(!decode_from_latencies(&[100, 500, 100], 300, 2).unwrap());
    }

    #[test]
    fn zero_min_hot_is_rejected_not_decoded_as_all_ones() {
        // A silent channel must not decode as a perfect one: with
        // `min_hot == 0` every bit trivially satisfies "at least 0 hot
        // samples", so the decoders refuse the threshold outright.
        let e = decode_from_latencies(&[0, 0, 0], 300, 0).unwrap_err();
        assert!(matches!(e, crate::CovertError::InvalidThreshold { .. }), "{e:?}");
        let e = decode_from_miss_counts(&[0, 0, 0], 0).unwrap_err();
        assert!(matches!(e, crate::CovertError::InvalidThreshold { .. }), "{e:?}");
        // Non-degenerate thresholds still decode.
        assert!(!decode_from_latencies(&[0, 0, 0], 300, 1).unwrap());
    }

    #[test]
    fn every_family_builds_a_channel_of_that_family() {
        let cfg = ChannelConfig {
            topology: Some(TopologySpec::dual("kepler").unwrap()),
            ..ChannelConfig::new(presets::tesla_k40c())
        };
        for family in Family::ALL {
            assert_eq!(build_channel(family, &cfg).unwrap().family(), family);
        }
        let err = build_channel(Family::Nvlink, &ChannelConfig::new(presets::tesla_k40c()))
            .err()
            .expect("nvlink needs a topology");
        assert!(err.to_string().contains("requires a multi-GPU topology"), "{err}");
    }
}
