//! Baseline cache covert channels (paper Section 4).
//!
//! The trojan transmits a 1 by filling one set of a constant cache with its
//! own lines (evicting the spy's), and a 0 by doing nothing; the spy times
//! repeated probes of its own lines in that set. Each bit uses a fresh
//! kernel-pair launch ("to simplify synchronization ... leveraging the
//! stream operations"), which caps the bandwidth at tens of Kbps — the
//! synchronized channel of [`crate::sync_channel`] removes that overhead.
//!
//! Two variants:
//!
//! * [`L1Channel`] — both kernels launch `num_sms` blocks so every SM hosts
//!   one block of each (the Section 3.1 co-residency recipe); contention is
//!   on the per-SM constant L1 (2 KB on Kepler/Maxwell, 4 KB on Fermi).
//! * [`L2Channel`] — one block each, so the kernels land on *different* SMs
//!   and communicate through the shared 32 KB constant L2 (the cross-SM
//!   channel of Section 4.3).

use crate::bits::Message;
use crate::calibrate::{pilot_pattern, Calibration};
use crate::channel::{transmit_per_bit, ChannelOutcome, TraceCapture};
use crate::harness::TrialRunner;
use crate::kernels::{emit_fill, emit_idle_spin, emit_probe_count_misses, miss_threshold, SetRef};
use crate::CovertError;
use gpgpu_isa::{ProgramBuilder, Reg};
use gpgpu_spec::{DeviceSpec, LaunchConfig};

/// Default prime+probe iterations per bit for the L1 channel (the paper's
/// error-free operating point on Kepler: "20 times for L1 channel").
pub const DEFAULT_L1_ITERATIONS: u64 = 20;

/// Default iterations per bit for the L2 channel. The paper quotes 2 as the
/// minimum on Kepler; the error-free default is higher because the L2 probe
/// is ~3x slower per iteration.
pub const DEFAULT_L2_ITERATIONS: u64 = 8;

/// Default launch jitter (cycles) modelling host-side scheduling noise.
pub const DEFAULT_JITTER: u64 = 3_000;

/// Which constant-cache level a [`CacheChannel`] contends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    /// Per-SM constant L1 (requires SM co-residency).
    L1,
    /// Shared constant L2 (works across SMs).
    L2,
}

/// A baseline (per-bit relaunch) constant-cache covert channel.
#[derive(Debug, Clone)]
pub struct CacheChannel {
    spec: DeviceSpec,
    pub(crate) level: CacheLevel,
    /// Prime/probe iterations per bit. Reducing this raises bandwidth and,
    /// eventually, the error rate (Figure 5).
    pub iterations: u64,
    /// The cache set used for communication.
    pub target_set: u64,
    /// Launch jitter `(max_cycles, seed)`; `None` disables it.
    pub jitter: Option<(u64, u64)>,
    /// Device tuning (placement policy + Section-9 mitigation knobs), for
    /// mitigation-effectiveness experiments.
    pub tuning: gpgpu_sim::DeviceTuning,
    /// Deterministic fault plan installed on the device for the run
    /// (`None` leaves the fault hooks disabled — the common case).
    pub fault_plan: Option<gpgpu_sim::FaultPlan>,
    /// Noise co-runner kernels launched alongside every bit's trojan/spy
    /// pair (see [`crate::noise::noise_kernel`]); empty means a quiet device.
    pub noise: Vec<gpgpu_sim::KernelSpec>,
    /// Fitted decode rule from a pilot handshake; `None` falls back to the
    /// static spec-derived rule (see [`CacheChannel::static_calibration`]).
    pub calibration: Option<Calibration>,
    /// Override of the per-bit simulated-cycle budget (watchdog deadline);
    /// `None` uses the channel default.
    pub bit_budget: Option<u64>,
}

/// Convenience alias-constructors for the two levels.
#[derive(Debug, Clone)]
pub struct L1Channel;

#[derive(Debug, Clone)]
/// Convenience constructor for the cross-SM L2 variant.
pub struct L2Channel;

impl L1Channel {
    /// A Section-4.2 L1 channel with the paper's default parameters.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(spec: DeviceSpec) -> CacheChannel {
        CacheChannel {
            spec,
            level: CacheLevel::L1,
            iterations: DEFAULT_L1_ITERATIONS,
            target_set: 0,
            jitter: Some((DEFAULT_JITTER, 0x5EED)),
            tuning: gpgpu_sim::DeviceTuning::none(),
            fault_plan: None,
            noise: Vec::new(),
            calibration: None,
            bit_budget: None,
        }
    }
}

impl L2Channel {
    /// A Section-4.3 L2 channel with the paper's default parameters.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(spec: DeviceSpec) -> CacheChannel {
        CacheChannel {
            spec,
            level: CacheLevel::L2,
            iterations: DEFAULT_L2_ITERATIONS,
            target_set: 0,
            jitter: Some((DEFAULT_JITTER, 0x5EED)),
            tuning: gpgpu_sim::DeviceTuning::none(),
            fault_plan: None,
            noise: Vec::new(),
            calibration: None,
            bit_budget: None,
        }
    }
}

impl CacheChannel {
    /// Sets the per-bit iteration count (the Figure-5 bandwidth knob).
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations.max(1);
        self
    }

    /// Sets or disables launch jitter.
    pub fn with_jitter(mut self, jitter: Option<(u64, u64)>) -> Self {
        self.jitter = jitter;
        self
    }

    /// Selects the contended cache set.
    pub fn with_target_set(mut self, set: u64) -> Self {
        self.target_set = set;
        self
    }

    /// Applies device tuning (mitigations / placement policy).
    pub fn with_tuning(mut self, tuning: gpgpu_sim::DeviceTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Installs a deterministic fault plan for every transmission run on
    /// this channel (fault-sweep robustness experiments).
    pub fn with_faults(mut self, plan: gpgpu_sim::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Launches these noise co-runner kernels alongside every bit.
    pub fn with_noise(mut self, noise: Vec<gpgpu_sim::KernelSpec>) -> Self {
        self.noise = noise;
        self
    }

    /// Decodes with a fitted calibration instead of the static rule.
    pub fn with_calibration(mut self, cal: Calibration) -> Self {
        self.calibration = Some(cal);
        self
    }

    /// Overrides the per-bit simulated-cycle watchdog budget.
    pub fn with_bit_budget(mut self, budget: u64) -> Self {
        self.bit_budget = Some(budget);
        self
    }

    /// The device this channel targets.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn cache_geometry(&self) -> gpgpu_spec::CacheGeometry {
        match self.level {
            CacheLevel::L1 => self.spec.const_l1.geometry,
            CacheLevel::L2 => self.spec.const_l2.geometry,
        }
    }

    fn threshold(&self) -> u64 {
        match self.level {
            CacheLevel::L1 => {
                miss_threshold(self.spec.const_l1.hit_latency, self.spec.const_l2.hit_latency)
            }
            CacheLevel::L2 => {
                miss_threshold(self.spec.const_l2.hit_latency, self.spec.mem.const_mem_latency)
            }
        }
    }

    fn launch_config(&self) -> LaunchConfig {
        match self.level {
            // Co-residency on every SM (Section 3.1 recipe).
            CacheLevel::L1 => LaunchConfig::new(self.spec.num_sms, 32),
            // One block each => distinct SMs, communicate through L2.
            CacheLevel::L2 => LaunchConfig::new(1, 32),
        }
    }

    /// Spy and trojan array footprints in constant memory.
    fn array_bytes(&self) -> u64 {
        self.cache_geometry().size_bytes()
    }

    /// Minimum per-bit iterations observing a miss for the bit to decode
    /// as 1: a quarter of the iterations, at least 2.
    fn min_hot(&self) -> usize {
        ((self.iterations as usize) / 4).max(2).min(self.iterations as usize)
    }

    /// The static spec-derived decode rule (the initial guess a pilot
    /// refines): a bit is 1 when at least [`CacheChannel::min_hot`]
    /// iterations saw at least one probe miss.
    pub fn static_calibration(&self) -> Calibration {
        Calibration::from_spec(1, self.min_hot())
    }

    /// Runs the pilot handshake: transmits the known [`pilot_pattern`] and
    /// fits a decode rule from the per-iteration miss counts the spy
    /// observed, under this channel's full environment (tuning, jitter,
    /// faults, noise co-runners). The in-kernel probe latency threshold
    /// stays spec-derived — what drifts under contention is the *eviction*
    /// evidence, which is exactly what the fit re-learns.
    ///
    /// # Errors
    ///
    /// Propagates transmission failures; [`CovertError::Config`] when the
    /// pilot distributions are inseparable (the set is being stomped by a
    /// co-runner), which callers treat as a signal to escalate.
    pub fn calibrate(&self, pilot_bits: usize) -> Result<Calibration, CovertError> {
        let pilot = pilot_pattern(pilot_bits);
        let msg = Message::from_bits(pilot.clone());
        let stash = std::cell::RefCell::new(Vec::with_capacity(pilot.len()));
        let decode = |samples: &[u64]| {
            stash.borrow_mut().push(samples.to_vec());
            Ok(false)
        };
        self.transmit_raw(&msg, &decode, None)?;
        let per_bit = stash.into_inner();
        Calibration::fit(&pilot, &per_bit)
    }

    /// Transmits `msg`, returning the outcome (bandwidth, BER, received
    /// bits).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures ([`CovertError::Sim`]); a protocol
    /// desync is impossible in this per-bit-relaunch design.
    pub fn transmit(&self, msg: &Message) -> Result<ChannelOutcome, CovertError> {
        let (outcome, _dev) = self.transmit_impl(msg, None)?;
        Ok(outcome)
    }

    /// As [`CacheChannel::transmit`], recording a cycle-level event trace
    /// of the whole transmission into a ring buffer of `trace_capacity`
    /// records (see [`gpgpu_sim::EventTrace`]); the newest events win when
    /// the buffer overflows.
    ///
    /// # Errors
    ///
    /// As [`CacheChannel::transmit`].
    ///
    /// # Panics
    ///
    /// Panics only if the installed sink is lost or replaced mid-run,
    /// which the channel never does.
    pub fn transmit_traced(
        &self,
        msg: &Message,
        trace_capacity: usize,
    ) -> Result<(ChannelOutcome, TraceCapture), CovertError> {
        let sink = gpgpu_sim::EventTrace::with_capacity(trace_capacity);
        let (outcome, mut dev) = self.transmit_impl(msg, Some(Box::new(sink)))?;
        let kernel_names = dev.kernel_names();
        let events = *dev
            .take_trace_sink()
            .expect("the sink installed before the run is still present")
            .into_any()
            .downcast::<gpgpu_sim::EventTrace>()
            .expect("the sink is the EventTrace we installed");
        Ok((outcome, TraceCapture { events, kernel_names }))
    }

    fn transmit_impl(
        &self,
        msg: &Message,
        trace: Option<Box<dyn gpgpu_sim::TraceSink>>,
    ) -> Result<(ChannelOutcome, crate::pool::DeviceLease), CovertError> {
        let cal = self.calibration.clone().unwrap_or_else(|| self.static_calibration());
        let decode = move |samples: &[u64]| cal.decode(samples);
        self.transmit_raw(msg, &decode, trace)
    }

    fn transmit_raw(
        &self,
        msg: &Message,
        decode: &dyn Fn(&[u64]) -> Result<bool, CovertError>,
        trace: Option<Box<dyn gpgpu_sim::TraceSink>>,
    ) -> Result<(ChannelOutcome, crate::pool::DeviceLease), CovertError> {
        let geom = self.cache_geometry();
        let spy_base = 0u64;
        let trojan_base = geom.same_set_stride() * geom.ways();
        let spy_set = SetRef::new(&geom, spy_base, self.target_set);
        let trojan_set = SetRef::new(&geom, trojan_base, self.target_set);
        let threshold = self.threshold();
        let iterations = self.iterations;

        let spy_program = move || {
            let mut b = ProgramBuilder::new();
            // Warm: establish the spy's lines so a 0-bit shows zero misses.
            emit_fill(&mut b, &spy_set);
            b.repeat(Reg(20), iterations, |b| {
                emit_probe_count_misses(b, &spy_set, threshold, Reg(21));
                b.push_result(Reg(21));
            });
            b.build().expect("spy program assembles")
        };
        let trojan_program = move |bit: bool| {
            let mut b = ProgramBuilder::new();
            if bit {
                b.repeat(Reg(20), iterations, |b| {
                    emit_fill(b, &trojan_set);
                });
            } else {
                // Keep the kernel alive a comparable time without touching
                // the cache.
                emit_idle_spin(&mut b, iterations * 64, Reg(20));
            }
            b.build().expect("trojan program assembles")
        };

        transmit_per_bit(
            &self.spec,
            self.tuning,
            self.jitter,
            self.fault_plan,
            &self.noise,
            msg,
            &trojan_program,
            &spy_program,
            (self.launch_config(), self.launch_config()),
            (self.array_bytes(), self.array_bytes()),
            decode,
            self.bit_budget.unwrap_or(60_000_000),
            trace,
        )
    }

    /// Sweeps the iteration count downwards, reporting `(bandwidth_kbps,
    /// bit_error_rate)` pairs — the data behind the paper's Figure 5.
    ///
    /// Runs on the default [`TrialRunner`] (one worker per core); each sweep
    /// point is an independent transmission on its own device, so the output
    /// is bit-identical to a sequential sweep.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed transmission failure.
    pub fn error_rate_sweep(
        &self,
        msg: &Message,
        iteration_counts: &[u64],
    ) -> Result<Vec<(f64, f64)>, CovertError> {
        self.error_rate_sweep_on(&TrialRunner::new(), msg, iteration_counts)
    }

    /// [`CacheChannel::error_rate_sweep`] on an explicit [`TrialRunner`]
    /// (e.g. [`TrialRunner::sequential`] for the determinism baseline).
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed transmission failure.
    pub fn error_rate_sweep_on(
        &self,
        runner: &TrialRunner,
        msg: &Message,
        iteration_counts: &[u64],
    ) -> Result<Vec<(f64, f64)>, CovertError> {
        runner.try_map(iteration_counts, |_, &iters| {
            let ch = self.clone().with_iterations(iters);
            let o = ch.transmit(msg)?;
            Ok((o.bandwidth_kbps, o.ber))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_spec::presets;

    #[test]
    fn l1_channel_is_error_free_at_default_iterations() {
        let ch = L1Channel::new(presets::tesla_k40c());
        let msg = Message::from_bits([true, false, true, true, false, false, true, false]);
        let o = ch.transmit(&msg).unwrap();
        assert_eq!(o.received, msg, "received {} != sent {}", o.received, o.sent);
        assert!(o.is_error_free());
        assert!(o.bandwidth_kbps > 5.0, "bandwidth {}", o.bandwidth_kbps);
    }

    #[test]
    fn l2_channel_crosses_sms_error_free() {
        let ch = L2Channel::new(presets::tesla_k40c());
        let msg = Message::from_bits([true, false, false, true]);
        let o = ch.transmit(&msg).unwrap();
        assert_eq!(o.received, msg);
    }

    #[test]
    fn starving_iterations_causes_errors_on_ones() {
        // With 1 iteration and jitter, overlap fails often: 1-bits decode
        // as 0 (the Figure-5 mechanism).
        let ch = L1Channel::new(presets::tesla_k40c()).with_iterations(1);
        let msg = Message::from_bits(vec![true; 12]);
        let o = ch.transmit(&msg).unwrap();
        assert!(o.ber > 0.0, "expected errors at 1 iteration, ber={}", o.ber);
    }

    #[test]
    fn empty_message_reports_zero_cycle_transmission() {
        // No bits => no launches => the device never advances. Previously
        // the elapsed cycles were clamped to 1, yielding a 0-bit "success"
        // with an absurd implied bandwidth.
        let ch = L1Channel::new(presets::tesla_k40c());
        let msg = Message::from_bits(Vec::<bool>::new());
        assert_eq!(ch.transmit(&msg), Err(CovertError::ZeroCycleTransmission));
    }

    #[test]
    fn traced_transmit_matches_untraced_and_captures_events() {
        use gpgpu_sim::TraceEvent;
        let ch = L1Channel::new(presets::tesla_k40c()).with_iterations(2);
        let msg = Message::from_bits([true, false, true]);
        let plain = ch.transmit(&msg).unwrap();
        let (traced, capture) = ch.transmit_traced(&msg, 1 << 16).unwrap();
        // Engine counters are excluded from the comparison: installing a
        // sink disables pure-ALU batching, so the traced engine legitimately
        // *visits* the SMs more often — while computing the identical run.
        let observable = |o: &ChannelOutcome| {
            (o.sent.clone(), o.received.clone(), o.cycles, o.bandwidth_kbps, o.ber)
        };
        assert_eq!(
            observable(&plain),
            observable(&traced),
            "observing the run must not perturb it"
        );
        let records = capture.records();
        assert!(!records.is_empty());
        assert_eq!(capture.events.dropped(), 0, "capacity should hold the whole run");
        // One spy + one trojan launch per bit.
        let launches =
            records.iter().filter(|r| matches!(r.event, TraceEvent::KernelLaunch { .. })).count();
        assert_eq!(launches, 2 * msg.len());
        assert!(capture.kernel_names.iter().any(|n| n == "spy"));
        assert!(capture.kernel_names.iter().any(|n| n == "trojan"));
        // A 1-bit requires trojan evictions of the spy's set; the trace
        // must have seen them.
        assert!(records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::CacheEviction { sm: Some(_), .. })));
        let json = capture.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with("]}\n"), "chrome JSON envelope");
    }

    #[test]
    fn zero_bits_never_misread_without_noise() {
        let ch = L1Channel::new(presets::tesla_k40c()).with_iterations(2);
        let msg = Message::from_bits(vec![false; 8]);
        let o = ch.transmit(&msg).unwrap();
        assert!(o.is_error_free(), "0-bits are jitter-immune, got ber={}", o.ber);
    }
}
