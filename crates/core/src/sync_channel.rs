//! The synchronized covert channel (paper Section 7.1, Figure 11).
//!
//! Instead of relaunching a kernel pair per bit, the spy and trojan are
//! launched **once** and keep themselves aligned with a three-way handshake
//! carried over two dedicated cache sets:
//!
//! * **RTS** (set 0): the trojan signals *ready-to-send* by filling it;
//! * **RTR** (set 1): the spy signals *ready-to-receive* / *received*;
//! * **data** (sets 2..): one bit per set per round.
//!
//! A party "signals" by filling the set with its own lines (evicting the
//! listener's), and "listens" by probing its own lines until a miss shows
//! up. Waits are bounded; on timeout a party repeats the step prior to the
//! wait, exactly the paper's deadlock-recovery rule.
//!
//! Parallelism (Table 2):
//! * **multi-bit** — one warp per data set fills/probes concurrently,
//!   synchronized with block barriers (`M = sets - 2` bits per round);
//! * **multi-SM** — every SM carries an independent spy/trojan block pair,
//!   each transmitting its own chunk of the message.

use crate::bits::Message;
use crate::cache_channel::CacheLevel;
use crate::calibrate::{pilot_pattern, Calibration};
use crate::channel::ChannelOutcome;
use crate::kernels::{
    emit_block_dispatch, emit_fill, emit_probe_count_misses, emit_spin_wait, miss_threshold, SetRef,
};
use crate::CovertError;
use gpgpu_isa::{Cond, Operand, ProgramBuilder, Reg, Special};
use gpgpu_sim::KernelSpec;
use gpgpu_spec::{DeviceSpec, LaunchConfig};

/// Maps a message bit index and its redundancy window of probe miss counts
/// to a decoded bit (or stashes the raw window, for calibration pilots).
type WindowDecoder<'a> = &'a dyn Fn(usize, &[u64]) -> Result<bool, CovertError>;

/// Default data-set fill/probe repetitions per round (robustness knob; the
/// paper's synchronized channels keep per-bit redundancy against noise).
/// Calibrated so the single-bit synchronized channel lands near the paper's
/// 75 Kbps on the K40C.
pub const DEFAULT_REDUNDANCY: u32 = 16;

/// Default bound on wait-loop probes before timeout recovery.
pub const DEFAULT_TIMEOUT_ITERS: u64 = 300;

/// Default bound on timeout-recovery retries per wait.
pub const DEFAULT_RETRIES: u64 = 12;

// Register allocation (outside the kernels' scratch range r0-r3):
const R_ROUND: Reg = Reg(27); // control/data round counter
const R_WAIT: Reg = Reg(24); // spin-wait probe counter
const R_GOT: Reg = Reg(25); // spin-wait result flag
const R_RETRY: Reg = Reg(26); // timeout retry counter
const R_MISS: Reg = Reg(21); // probe miss count
const R_WID: Reg = Reg(29); // warp id

/// The synchronized constant-cache channel (L1 by default; the paper also
/// synchronizes the cross-SM L2 variant — use [`SyncChannel::new_l2`]).
#[derive(Debug, Clone)]
pub struct SyncChannel {
    spec: DeviceSpec,
    /// Which constant-cache level carries the channel.
    level: CacheLevel,
    /// Bits transmitted per round per SM (1 ..= L1 sets - 2).
    pub data_sets: u32,
    /// SMs carrying independent channel instances (1 ..= num_sms).
    pub parallel_sms: u32,
    /// Data fill/probe repetitions per round.
    pub redundancy: u32,
    /// Wait-loop probe bound before timeout recovery.
    pub timeout_iters: u64,
    /// Timeout-recovery retries per wait.
    pub retries: u64,
    /// Section-8 exclusive co-location: the spy's blocks claim the maximum
    /// per-block shared memory and the trojan's blocks claim all remaining
    /// threads (and, on Maxwell, the remaining shared memory), so no other
    /// kernel can place a block on any SM while the channel runs.
    pub exclusive: bool,
    /// Device tuning (placement policy + Section-9 mitigation knobs).
    pub tuning: gpgpu_sim::DeviceTuning,
    /// Deterministic fault plan installed on the device for the run
    /// (`None` leaves the fault hooks disabled — the common case).
    pub fault_plan: Option<gpgpu_sim::FaultPlan>,
    /// Noise co-runner kernels [`SyncChannel::transmit`] and
    /// [`SyncChannel::calibrate`] launch beside the channel's kernel pair;
    /// empty means a quiet device.
    pub noise: Vec<KernelSpec>,
    /// Fitted decode rule from a pilot handshake; `None` uses the static
    /// rule (any redundancy window probe with >= 2 misses).
    pub calibration: Option<Calibration>,
    /// Override of the whole-transmission simulated-cycle budget (watchdog
    /// deadline); `None` uses the schedule-derived default.
    pub cycle_budget: Option<u64>,
}

impl SyncChannel {
    /// A single-bit, single-SM synchronized channel (Table 2, column 2).
    pub fn new(spec: DeviceSpec) -> Self {
        SyncChannel {
            spec,
            level: CacheLevel::L1,
            data_sets: 1,
            parallel_sms: 1,
            redundancy: DEFAULT_REDUNDANCY,
            timeout_iters: DEFAULT_TIMEOUT_ITERS,
            retries: DEFAULT_RETRIES,
            exclusive: false,
            tuning: gpgpu_sim::DeviceTuning::none(),
            fault_plan: None,
            noise: Vec::new(),
            calibration: None,
            cycle_budget: None,
        }
    }

    /// Decodes with a fitted calibration instead of the static rule.
    pub fn with_calibration(mut self, cal: Calibration) -> Self {
        self.calibration = Some(cal);
        self
    }

    /// Overrides the whole-transmission simulated-cycle watchdog budget.
    pub fn with_cycle_budget(mut self, budget: u64) -> Self {
        self.cycle_budget = Some(budget);
        self
    }

    /// Applies device tuning (mitigations / placement policy).
    pub fn with_tuning(mut self, tuning: gpgpu_sim::DeviceTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Installs a deterministic fault plan for every transmission run on
    /// this channel (Section-7 robustness experiments).
    pub fn with_faults(mut self, plan: gpgpu_sim::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// A synchronized channel over the *shared L2* constant cache: the spy
    /// and trojan run on different SMs (one block each) and communicate
    /// through the 16-set L2, two sets signalling and up to 14 carrying
    /// data. The paper observes ~8x (not 16x) best-case scaling here "due
    /// to cache port contention and cache bank collisions", which the L2
    /// port model reproduces.
    pub fn new_l2(spec: DeviceSpec) -> Self {
        let mut ch = Self::new(spec);
        ch.level = CacheLevel::L2;
        ch
    }

    /// The cache level this channel uses.
    pub fn level(&self) -> CacheLevel {
        self.level
    }

    /// Enables exclusive co-location (see the `exclusive` field).
    pub fn with_exclusive(mut self) -> Self {
        self.exclusive = true;
        self
    }

    /// Enables multi-bit transmission over `data_sets` cache sets
    /// (Table 2, column 3: 6 sets on the 8-set Kepler/Maxwell L1).
    ///
    /// # Errors
    ///
    /// [`CovertError::Config`] if the cache does not have `data_sets + 2`
    /// sets.
    pub fn with_data_sets(mut self, data_sets: u32) -> Result<Self, CovertError> {
        let sets = self.geometry().num_sets();
        if data_sets == 0 || u64::from(data_sets) + 2 > sets {
            return Err(CovertError::Config {
                reason: format!(
                    "the cache has {sets} sets; 2 are reserved for signalling, so 1..={} data sets",
                    sets - 2
                ),
            });
        }
        self.data_sets = data_sets;
        Ok(self)
    }

    /// Enables multi-SM parallelism over `sms` SMs (Table 2, column 4).
    ///
    /// # Errors
    ///
    /// [`CovertError::Config`] if the device has fewer than `sms` SMs.
    pub fn with_parallel_sms(mut self, sms: u32) -> Result<Self, CovertError> {
        if self.level == CacheLevel::L2 && sms > 1 {
            return Err(CovertError::Config {
                reason: "the L2 is device-wide; it carries a single channel instance".to_string(),
            });
        }
        if sms == 0 || sms > self.spec.num_sms {
            return Err(CovertError::Config {
                reason: format!(
                    "device has {} SMs; 1..={} supported",
                    self.spec.num_sms, self.spec.num_sms
                ),
            });
        }
        self.parallel_sms = sms;
        Ok(self)
    }

    /// Sets the per-round redundancy.
    pub fn with_redundancy(mut self, redundancy: u32) -> Self {
        self.redundancy = redundancy.max(1);
        self
    }

    /// The device this channel targets.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn geometry(&self) -> gpgpu_spec::CacheGeometry {
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

    fn spy_base(&self) -> u64 {
        0
    }

    fn trojan_base(&self) -> u64 {
        let g = self.geometry();
        g.same_set_stride() * g.ways()
    }

    fn set_ref(&self, base: u64, set: u64) -> SetRef {
        SetRef::new(&self.geometry(), base, set)
    }

    /// Emits a bounded wait with timeout recovery: spin on `listen`; on
    /// timeout, re-fill `resignal` and retry (bounded), then proceed anyway.
    fn emit_wait_with_recovery(&self, b: &mut ProgramBuilder, listen: &SetRef, resignal: &SetRef) {
        let thr = self.threshold();
        b.mov_imm(R_RETRY, self.retries.max(1));
        let retry_top = b.label();
        let done = b.label();
        b.bind(retry_top);
        emit_spin_wait(b, listen, thr, self.timeout_iters, R_WAIT, R_GOT);
        b.branch(Cond::Ne, R_GOT, Operand::Imm(0), done);
        emit_fill(b, resignal);
        b.add_imm(R_RETRY, R_RETRY, u64::MAX);
        b.branch(Cond::Ne, R_RETRY, Operand::Imm(0), retry_top);
        b.bind(done);
    }

    /// Rounds needed per SM chunk for a message of `len` bits.
    fn geometry_of(&self, len: usize) -> (usize, usize) {
        let chunk = len.div_ceil(self.parallel_sms as usize);
        let rounds = chunk.div_ceil(self.data_sets as usize).max(1);
        (chunk, rounds)
    }

    /// Builds the spy program (uniform across blocks and message content).
    fn build_spy_program(&self, rounds: usize) -> gpgpu_isa::Program {
        let m = self.data_sets;
        let rts_spy = self.set_ref(self.spy_base(), 0);
        let rtr_spy = self.set_ref(self.spy_base(), 1);
        let thr = self.threshold();
        let mut b = ProgramBuilder::new();
        // Blocks beyond the parallel set exit immediately.
        b.read_special(R_WID, Special::BlockId);
        let active = b.label();
        b.branch(Cond::Lt, R_WID, Operand::Imm(u64::from(self.parallel_sms)), active);
        b.halt();
        b.bind(active);
        b.read_special(R_WID, Special::WarpIdInBlock);
        // Dispatch: warp 0 = control; warps 1..=M = data.
        let control = b.label();
        b.branch(Cond::Eq, R_WID, Operand::Imm(0), control);
        let data_labels: Vec<_> = (1..=m).map(|_| b.label()).collect();
        for (i, &l) in data_labels.iter().enumerate() {
            b.branch(Cond::Eq, R_WID, Operand::Imm(i as u64 + 1), l);
        }
        b.halt(); // surplus warps (none by construction)

        // ---- control warp ----
        b.bind(control);
        emit_fill(&mut b, &rts_spy); // prime the listening set
        b.bar_sync(); // hello: data warps have warmed their sets
        emit_fill(&mut b, &rtr_spy); // hello: tell the trojan we are ready
        b.repeat(R_ROUND, rounds as u64, |b| {
            self.emit_wait_with_recovery(b, &rts_spy, &rtr_spy);
            b.bar_sync(); // A: release data warps to probe
            b.bar_sync(); // B: data warps done
            emit_fill(b, &rtr_spy); // acknowledge
        });
        b.halt();

        // ---- data warps ----
        for (i, l) in data_labels.into_iter().enumerate() {
            b.bind(l);
            let set = self.set_ref(self.spy_base(), 2 + i as u64);
            emit_fill(&mut b, &set); // warm so round 0 zero-bits read clean
            b.bar_sync(); // hello
            b.repeat(R_ROUND, rounds as u64, |b| {
                b.bar_sync(); // A
                for _ in 0..self.redundancy {
                    emit_probe_count_misses(b, &set, thr, R_MISS);
                    b.push_result(R_MISS);
                }
                b.bar_sync(); // B
            });
            b.halt();
        }
        b.build().expect("spy program assembles")
    }

    /// Builds the trojan program: per-block, per-warp unrolled schedule of
    /// the chunk bits.
    fn build_trojan_program(&self, chunks: &[Vec<bool>], rounds: usize) -> gpgpu_isa::Program {
        let m = self.data_sets as usize;
        let rts_trojan = self.set_ref(self.trojan_base(), 0);
        let rtr_trojan = self.set_ref(self.trojan_base(), 1);
        let mut b = ProgramBuilder::new();
        let block_labels = emit_block_dispatch(&mut b, self.spec.num_sms);
        for (blk, l) in block_labels.into_iter().enumerate() {
            b.bind(l);
            if blk >= chunks.len() {
                b.halt();
                continue;
            }
            b.read_special(R_WID, Special::WarpIdInBlock);
            let control = b.label();
            b.branch(Cond::Eq, R_WID, Operand::Imm(0), control);
            let data_labels: Vec<_> = (0..m).map(|_| b.label()).collect();
            for (i, &dl) in data_labels.iter().enumerate() {
                b.branch(Cond::Eq, R_WID, Operand::Imm(i as u64 + 1), dl);
            }
            b.halt();

            // ---- control warp ----
            b.bind(control);
            emit_fill(&mut b, &rtr_trojan); // prime the listening set
                                            // hello: wait for the spy's ready signal before any data fill,
                                            // so the spy's warm-up cannot race round 0's transmission.
            self.emit_wait_with_recovery(&mut b, &rtr_trojan, &rts_trojan);
            b.bar_sync(); // hello: release data warps
            b.repeat(R_ROUND, rounds as u64, |b| {
                b.bar_sync(); // A: data warps have filled (or not)
                emit_fill(b, &rts_trojan); // ready-to-send
                self.emit_wait_with_recovery(b, &rtr_trojan, &rts_trojan);
                b.bar_sync(); // B: round complete
            });
            b.halt();

            // ---- data warps (bit schedule unrolled) ----
            for (i, dl) in data_labels.into_iter().enumerate() {
                b.bind(dl);
                let set = self.set_ref(self.trojan_base(), 2 + i as u64);
                b.bar_sync(); // hello
                for r in 0..rounds {
                    let bit = chunks[blk].get(r * m + i).copied().unwrap_or(false);
                    if bit {
                        for _ in 0..self.redundancy {
                            emit_fill(&mut b, &set);
                        }
                    }
                    b.bar_sync(); // A
                    b.bar_sync(); // B
                }
                b.halt();
            }
        }
        b.build().expect("trojan program assembles")
    }

    /// The spy/trojan launch configurations, honoring `exclusive`.
    pub fn launch_configs(&self) -> (LaunchConfig, LaunchConfig) {
        let warps = 1 + self.data_sets;
        let spy_threads = warps * 32;
        if self.exclusive {
            let spy = LaunchConfig::new(self.spec.num_sms, spy_threads)
                .with_shared_mem(self.spec.sm.max_shared_mem_per_block);
            let trojan =
                LaunchConfig::new(self.spec.num_sms, self.spec.sm.max_threads - spy_threads)
                    .with_shared_mem(
                        self.spec.sm.shared_mem_bytes - self.spec.sm.max_shared_mem_per_block,
                    )
                    .with_registers_per_thread(8);
            (spy, trojan)
        } else {
            let cfg = LaunchConfig::new(self.spec.num_sms, spy_threads);
            (cfg, cfg)
        }
    }

    /// Transmits `msg` beside the channel's [`SyncChannel::noise`]
    /// co-runners, returning the outcome.
    ///
    /// # Errors
    ///
    /// * [`CovertError::Sim`] on simulator failure (including handshake
    ///   deadlock beyond the cycle budget).
    /// * [`CovertError::ProtocolDesync`] if the spy recovered fewer samples
    ///   than the schedule requires.
    pub fn transmit(&self, msg: &Message) -> Result<ChannelOutcome, CovertError> {
        Ok(self.transmit_with_noise(msg, self.noise.clone())?.outcome)
    }

    /// Transmits `msg` while `noise` kernels are launched on a third stream
    /// immediately after the channel's kernel pair (the Section-8
    /// interference experiment). Returns the outcome plus the results of
    /// each noise kernel, so callers can check whether the noise ran
    /// concurrently or was locked out until the channel finished.
    ///
    /// # Errors
    ///
    /// As [`SyncChannel::transmit`].
    pub fn transmit_with_noise(
        &self,
        msg: &Message,
        noise: Vec<KernelSpec>,
    ) -> Result<SyncRun, CovertError> {
        let cal = self.calibration.clone().unwrap_or_else(|| self.static_calibration());
        self.run_protocol(msg, noise, &|_, window| cal.decode(window))
    }

    /// The static spec-derived decode rule (the initial guess a pilot
    /// refines): a bit is 1 when any probe in its redundancy window saw at
    /// least 2 misses (a full trojan fill evicts all `ways` lines; >= 2
    /// filters the single-miss churn of signal-set interleaving).
    pub fn static_calibration(&self) -> Calibration {
        Calibration::from_spec(2, 1)
    }

    /// Runs the pilot handshake over this channel's full environment
    /// (tuning, faults, the given noise co-runners): transmits the known
    /// [`pilot_pattern`] and fits a decode rule from the raw per-window
    /// probe miss counts.
    ///
    /// # Errors
    ///
    /// Propagates transmission failures; [`CovertError::Config`] when the
    /// pilot distributions are inseparable (e.g. a co-runner stomps every
    /// set), which the link layer treats as a signal to escalate.
    pub fn calibrate_with_noise(
        &self,
        pilot_bits: usize,
        noise: Vec<KernelSpec>,
    ) -> Result<Calibration, CovertError> {
        let pilot = pilot_pattern(pilot_bits);
        let msg = Message::from_bits(pilot.clone());
        let stash = std::cell::RefCell::new(vec![Vec::new(); pilot.len()]);
        let decode = |idx: usize, window: &[u64]| {
            stash.borrow_mut()[idx] = window.to_vec();
            Ok(false)
        };
        self.run_protocol(&msg, noise, &decode)?;
        let per_bit = stash.into_inner();
        Calibration::fit(&pilot, &per_bit)
    }

    /// [`SyncChannel::calibrate_with_noise`] beside the channel's own
    /// [`SyncChannel::noise`] co-runners.
    ///
    /// # Errors
    ///
    /// As [`SyncChannel::calibrate_with_noise`].
    pub fn calibrate(&self, pilot_bits: usize) -> Result<Calibration, CovertError> {
        self.calibrate_with_noise(pilot_bits, self.noise.clone())
    }

    /// Runs the Figure-11 protocol end to end; `decode` maps each in-range
    /// message bit index and its redundancy window of probe miss counts to
    /// a bit value (or stashes the raw window, for calibration pilots).
    fn run_protocol(
        &self,
        msg: &Message,
        noise: Vec<KernelSpec>,
        decode: WindowDecoder<'_>,
    ) -> Result<SyncRun, CovertError> {
        if msg.is_empty() {
            let o = ChannelOutcome::from_run(&self.spec, msg.clone(), msg.clone(), 1);
            return Ok(SyncRun {
                outcome: o,
                channel_completed_at: 0,
                active_sms: Vec::new(),
                eviction_alternations: 0,
                noise: Vec::new(),
            });
        }
        let s = self.parallel_sms as usize;
        let m = self.data_sets as usize;
        let (chunk, rounds) = self.geometry_of(msg.len());
        let padded = rounds * m;
        let chunks: Vec<Vec<bool>> = (0..s)
            .map(|b| {
                let mut c: Vec<bool> =
                    msg.bits().iter().skip(b * chunk).take(chunk).copied().collect();
                c.resize(padded, false);
                c
            })
            .collect();

        let mut dev = crate::pool::acquire(&self.spec, self.tuning);
        if let Some(plan) = self.fault_plan {
            dev.set_fault_injector(gpgpu_sim::FaultInjector::new(plan));
        }
        let g = self.geometry();
        dev.alloc_constant(g.size_bytes()); // spy array
        dev.alloc_constant(g.size_bytes()); // trojan array
        let (spy_launch, trojan_launch) = self.launch_configs();
        let spy =
            dev.launch(0, KernelSpec::new("spy", self.build_spy_program(rounds), spy_launch))?;
        let trojan = dev.launch(
            1,
            KernelSpec::new("trojan", self.build_trojan_program(&chunks, rounds), trojan_launch),
        )?;
        let mut noise_ids = Vec::with_capacity(noise.len());
        for (i, n) in noise.into_iter().enumerate() {
            noise_ids.push(dev.launch(2 + i as u32, n)?);
        }
        // Budget: generous per-round allowance to absorb timeout recovery,
        // plus room for noise workloads to drain. An explicit
        // `cycle_budget` (the harness watchdog deadline) takes precedence.
        let budget = self.cycle_budget.unwrap_or_else(|| {
            ((rounds as u64 + 4)
                * (self.timeout_iters * self.retries / 4 + 4_000)
                * u64::from(self.data_sets.max(1))
                + 10 * self.spec.launch_overhead_cycles)
                .max(50_000_000)
        });
        dev.run_until_idle(budget)?;
        let results = dev.results(spy)?;
        let noise_results: Vec<gpgpu_sim::KernelResults> =
            noise_ids.into_iter().map(|id| dev.results(id)).collect::<Result<_, _>>()?;

        // Decode: each bit's evidence is its round's redundancy window of
        // probe miss counts, handed to the decode rule (static or fitted).
        let r_per_round = self.redundancy as usize;
        let mut received = vec![false; msg.len()];
        for (blk, chunk_bits) in chunks.iter().enumerate() {
            let _ = chunk_bits;
            for dm in 0..m {
                let samples = results.warp_results(blk as u32, dm as u32 + 1).ok_or(
                    CovertError::ProtocolDesync { expected: rounds * r_per_round, got: 0 },
                )?;
                if samples.len() < rounds * r_per_round {
                    return Err(CovertError::ProtocolDesync {
                        expected: rounds * r_per_round,
                        got: samples.len(),
                    });
                }
                for r in 0..rounds {
                    let window = &samples[r * r_per_round..(r + 1) * r_per_round];
                    let idx = blk * chunk + r * m + dm;
                    if r * m + dm < chunk && idx < msg.len() {
                        received[idx] = decode(idx, window)?;
                    }
                }
            }
        }
        // Bandwidth is measured over the channel's own lifetime, not the
        // noise kernels' drain time. The exclusion window ends when either
        // channel kernel completes (the first completion releases resources
        // that queued kernels can claim).
        let channel_completed_at = results.completed_at.min(dev.results(trojan)?.completed_at);
        let cycles = results.completed_at.max(1);
        // SMs actually carrying the channel (blocks beyond `parallel_sms`
        // exit immediately and do not need protecting).
        let mut active_sms: Vec<u32> = results
            .blocks
            .iter()
            .filter(|b| b.block_id < self.parallel_sms)
            .map(|b| b.sm_id)
            .collect();
        active_sms.sort_unstable();
        active_sms.dedup();
        let outcome =
            ChannelOutcome::from_run(&self.spec, msg.clone(), Message::from_bits(received), cycles)
                .with_stats(*dev.stats());
        let (_, eviction_alternations) = dev.cache_contention_counters();
        Ok(SyncRun {
            outcome,
            channel_completed_at,
            active_sms,
            eviction_alternations,
            noise: noise_results,
        })
    }
}

/// Result of [`SyncChannel::transmit_with_noise`].
#[derive(Debug, Clone, PartialEq)]
pub struct SyncRun {
    /// The channel outcome (bandwidth measured over the channel's lifetime).
    pub outcome: ChannelOutcome,
    /// Cycle at which the first of the two channel kernels completed (the
    /// end of the exclusion window).
    pub channel_completed_at: u64,
    /// SMs carrying active channel blocks.
    pub active_sms: Vec<u32>,
    /// Cross-domain eviction alternations accumulated in the constant
    /// caches over the run — the CC-Hunter-style detection signal
    /// (Section 9); huge for a covert channel, near zero for benign mixes.
    pub eviction_alternations: u64,
    /// Completion records of the noise kernels, in launch order.
    pub noise: Vec<gpgpu_sim::KernelResults>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_spec::presets;

    #[test]
    fn single_bit_sync_channel_error_free() {
        let ch = SyncChannel::new(presets::tesla_k40c());
        let msg = Message::from_bits([true, false, true, true, false, false, true, false]);
        let o = ch.transmit(&msg).unwrap();
        assert_eq!(o.received, msg, "got {} want {}", o.received, o.sent);
        assert!(o.is_error_free());
    }

    #[test]
    fn sync_beats_baseline_bandwidth() {
        let spec = presets::tesla_k40c();
        let msg = Message::pseudo_random(16, 9);
        let sync = SyncChannel::new(spec.clone()).transmit(&msg).unwrap();
        let baseline = crate::cache_channel::L1Channel::new(spec).transmit(&msg).unwrap();
        assert!(
            sync.bandwidth_kbps > baseline.bandwidth_kbps,
            "sync {} <= baseline {}",
            sync.bandwidth_kbps,
            baseline.bandwidth_kbps
        );
    }

    #[test]
    fn multi_bit_channel_transmits_correctly() {
        let ch = SyncChannel::new(presets::tesla_k40c()).with_data_sets(6).unwrap();
        let msg = Message::pseudo_random(36, 5);
        let o = ch.transmit(&msg).unwrap();
        assert_eq!(o.received, msg, "got {} want {}", o.received, o.sent);
    }

    #[test]
    fn multi_sm_channel_transmits_correctly() {
        let ch = SyncChannel::new(presets::tesla_k40c())
            .with_data_sets(6)
            .unwrap()
            .with_parallel_sms(15)
            .unwrap();
        let msg = Message::pseudo_random(180, 11);
        let o = ch.transmit(&msg).unwrap();
        assert_eq!(o.received, msg, "BER {}", o.ber);
    }

    #[test]
    fn config_validation() {
        let spec = presets::tesla_k40c();
        assert!(SyncChannel::new(spec.clone()).with_data_sets(7).is_err()); // 8 sets - 2
        assert!(SyncChannel::new(spec.clone()).with_data_sets(6).is_ok());
        assert!(SyncChannel::new(spec.clone()).with_parallel_sms(16).is_err());
        assert!(SyncChannel::new(spec).with_parallel_sms(15).is_ok());
    }

    #[test]
    fn empty_message_is_trivially_transmitted() {
        let o = SyncChannel::new(presets::tesla_k40c()).transmit(&Message::default()).unwrap();
        assert!(o.is_error_free());
    }
}

#[cfg(test)]
mod l2_tests {
    use super::*;
    use gpgpu_spec::presets;

    #[test]
    fn l2_sync_channel_is_error_free() {
        let ch = SyncChannel::new_l2(presets::tesla_k40c());
        let msg = Message::pseudo_random(12, 0x61);
        let o = ch.transmit(&msg).unwrap();
        assert_eq!(o.received, msg, "got {} want {}", o.received, o.sent);
    }

    #[test]
    fn l2_sync_multibit_uses_up_to_14_sets() {
        let spec = presets::tesla_k40c();
        assert!(SyncChannel::new_l2(spec.clone()).with_data_sets(15).is_err());
        let ch = SyncChannel::new_l2(spec).with_data_sets(14).unwrap();
        let msg = Message::pseudo_random(28, 0x62);
        let o = ch.transmit(&msg).unwrap();
        assert_eq!(o.received, msg);
    }

    #[test]
    fn l2_multibit_scaling_is_port_limited() {
        // Paper: "In theory, this should enable the trojan to send 16 bits
        // simultaneously. However, we observe only an 8x improvement in the
        // best case, which we conjecture is due to cache port contention."
        let spec = presets::tesla_k40c();
        let msg = Message::pseudo_random(56, 0x63);
        let single = SyncChannel::new_l2(spec.clone()).transmit(&msg).unwrap();
        let multi = SyncChannel::new_l2(spec).with_data_sets(14).unwrap().transmit(&msg).unwrap();
        assert!(multi.is_error_free() && single.is_error_free());
        let scaling = multi.bandwidth_kbps / single.bandwidth_kbps;
        assert!(
            (2.0..14.0).contains(&scaling),
            "L2 multi-bit scaling should be clearly sublinear in 14 sets: {scaling:.1}x"
        );
    }

    #[test]
    fn l2_sync_rejects_multi_sm_parallelism() {
        assert!(SyncChannel::new_l2(presets::tesla_k40c()).with_parallel_sms(2).is_err());
    }

    #[test]
    fn l1_sync_is_faster_than_l2_sync() {
        let spec = presets::tesla_k40c();
        let msg = Message::pseudo_random(12, 0x64);
        let l1 = SyncChannel::new(spec.clone()).transmit(&msg).unwrap();
        let l2 = SyncChannel::new_l2(spec).transmit(&msg).unwrap();
        assert!(
            l1.bandwidth_kbps > l2.bandwidth_kbps,
            "{} vs {}",
            l1.bandwidth_kbps,
            l2.bandwidth_kbps
        );
    }
}
