//! Link-quality monitoring and graceful degradation under noise and faults.
//!
//! The framing layer ([`crate::framing`]) detects corruption frame by frame
//! (CRC-8) and repairs it by retransmission, but it has no notion of *why*
//! frames keep dying — and against a co-runner that has stomped the whole
//! constant cache, retransmitting over the same dead medium forever is the
//! wrong move. This module closes that loop:
//!
//! * [`LinkMonitor`] turns the per-frame CRC verdicts reported by
//!   [`crate::framing::arq_transmit_observed`] into a running frame-failure
//!   estimate (EWMA + lifetime counts);
//! * [`AdaptiveLink`] drives a degradation ladder per channel family —
//!   **static thresholds → re-calibrate ([`crate::calibrate`]) → stretch
//!   symbol time + raise ARQ effort → fall back to the next channel family**
//!   ([`FallbackPolicy`], default L1-sync → atomic → SFU → NVLink) — and,
//!   when every rung fails, aborts with a structured [`LinkDiagnostic`]
//!   recording which stages fired and why;
//! * [`FamilyPipe`] adapts each channel family to the
//!   [`BitPipe`](crate::framing::BitPipe) transport under one shared
//!   [`LinkEnvironment`] (fault plan + noise co-runners), so escalation
//!   compares families under the *same* adversarial conditions. It builds
//!   every channel through [`build_channel`]; the ladder's rungs are named
//!   by [`ChannelFamily`], a label layer over [`Family`].
//!
//! The fallback order exploits resource disjointness: a constant-cache hog
//! (the paper's Heart-Wall-like co-runner) kills both cache channels but
//! leaves the global-atomic units and the SFUs untouched, so hopping
//! families restores the link without any manual retuning. When a
//! [`LinkEnvironment`] carries a multi-GPU [`TopologySpec`], the ladder can
//! even hop *off the die* entirely — the [`ChannelFamily::Nvlink`] family
//! signals through inter-device link contention, which no on-chip co-runner
//! touches.

use crate::bits::Message;
use crate::calibrate::Calibration;
use crate::channel::{build_channel, ChannelConfig, CovertChannel};
use crate::framing::{arq_transmit_observed, ArqConfig, ArqReport, BitPipe, PipeRun};
use crate::noise::NoiseKind;
use crate::CovertError;
use gpgpu_sim::DeviceTuning;
use gpgpu_spec::{DefenseSpec, DeviceSpec, Family, TopologySpec};
use std::fmt;

/// Fault-plan round key reserved for calibration pilots, far outside the
/// ARQ round space so a pilot never reuses a data round's fault phase.
const PILOT_ROUND_KEY: u64 = 0xCA11_0000_0000_0000;

/// A running estimate of link quality, fed by per-frame CRC verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkMonitor {
    ewma: f64,
    alpha: f64,
    frames: usize,
    failures: usize,
}

impl Default for LinkMonitor {
    fn default() -> Self {
        LinkMonitor::new()
    }
}

impl LinkMonitor {
    /// A fresh monitor (EWMA smoothing factor 0.25, no history).
    pub fn new() -> Self {
        LinkMonitor { ewma: 0.0, alpha: 0.25, frames: 0, failures: 0 }
    }

    /// Records one frame's CRC verdict (`true` = validated).
    pub fn record_frame(&mut self, ok: bool) {
        self.frames += 1;
        if !ok {
            self.failures += 1;
        }
        let x = if ok { 0.0 } else { 1.0 };
        self.ewma = self.alpha * x + (1.0 - self.alpha) * self.ewma;
    }

    /// Exponentially-weighted recent frame-failure rate in `[0, 1]`.
    pub fn failure_rate(&self) -> f64 {
        self.ewma
    }

    /// Lifetime frame-failure fraction (0 when nothing was recorded).
    pub fn lifetime_failure_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.failures as f64 / self.frames as f64
        }
    }

    /// Frames observed so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Frames whose CRC failed so far.
    pub fn failures(&self) -> usize {
        self.failures
    }
}

/// The ladder's rung names: the channel families the link layer can hop
/// between. Ordered by bandwidth on a quiet device; resource-disjoint under
/// attack (a cache hog does not touch the atomic units or the SFUs).
///
/// This is a naming layer over [`Family`], not a second family type: it
/// carries no per-family logic, and [`ChannelFamily::family`] is how every
/// rung reaches its channel. It stays only for its labels: the sync rung is
/// `l1-sync` in escalation traces (`BENCH_arena.json`) and in the
/// `perfbench` ladder digest, while sweep keys, arena rows and the
/// `perfbench` sweep digest spell [`Family::Sync`] as `sync`; and
/// `perfbench` names the `Atomic` and `Sfu` rungs directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelFamily {
    /// The synchronized constant-L1 prime+probe channel (fastest).
    CacheL1Sync,
    /// The per-bit global-memory atomic-contention channel.
    Atomic,
    /// The per-bit SFU issue-contention channel.
    Sfu,
    /// The cross-GPU NVLink lane-contention channel; needs a multi-device
    /// [`TopologySpec`] in the [`LinkEnvironment`] (slowest, but immune to
    /// every on-chip co-runner).
    Nvlink,
}

impl ChannelFamily {
    /// Short label for traces and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ChannelFamily::CacheL1Sync => "l1-sync",
            rung => rung.family().label(),
        }
    }

    /// The channel family this rung runs.
    pub fn family(self) -> Family {
        match self {
            ChannelFamily::CacheL1Sync => Family::Sync,
            ChannelFamily::Atomic => Family::Atomic,
            ChannelFamily::Sfu => Family::Sfu,
            ChannelFamily::Nvlink => Family::Nvlink,
        }
    }
}

/// The order in which [`AdaptiveLink`] tries channel families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackPolicy {
    /// Families in preference order; the ladder runs fully on each before
    /// moving to the next.
    pub order: Vec<ChannelFamily>,
}

impl Default for FallbackPolicy {
    fn default() -> Self {
        FallbackPolicy {
            order: vec![
                ChannelFamily::CacheL1Sync,
                ChannelFamily::Atomic,
                ChannelFamily::Sfu,
                ChannelFamily::Nvlink,
            ],
        }
    }
}

impl FallbackPolicy {
    /// A policy pinned to a single family (disables fallback).
    pub fn only(family: ChannelFamily) -> Self {
        FallbackPolicy { order: vec![family] }
    }
}

/// The adversarial conditions every attempt runs under: a deterministic
/// fault plan (reseeded per ARQ round, as [`crate::framing::SyncPipe`]
/// does) plus noise co-runner kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkEnvironment {
    /// Base fault plan; `None` leaves the fault hooks disabled.
    pub faults: Option<gpgpu_sim::FaultPlan>,
    /// Noise co-runner kinds launched beside the channel kernels.
    pub noise: Vec<NoiseKind>,
    /// Noise-kernel inner iterations per launch for the synchronized
    /// family (whose single launch must span a whole ARQ round).
    pub noise_iters: u64,
    /// Multi-GPU topology, when one exists; enables the
    /// [`ChannelFamily::Nvlink`] fallback rungs (which otherwise record a
    /// transport error and the ladder moves on).
    pub topology: Option<TopologySpec>,
    /// Device tuning active on every device the link touches — how a
    /// deployed defense ([`DefenseSpec`]) reaches the adaptive attacker.
    pub tuning: DeviceTuning,
}

impl Default for LinkEnvironment {
    fn default() -> Self {
        LinkEnvironment::clean()
    }
}

impl LinkEnvironment {
    /// A quiet device: no faults, no noise.
    pub fn clean() -> Self {
        LinkEnvironment {
            faults: None,
            noise: Vec::new(),
            noise_iters: 0,
            topology: None,
            tuning: DeviceTuning::none(),
        }
    }

    /// Installs a base fault plan.
    pub fn with_faults(mut self, plan: gpgpu_sim::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Adds noise co-runners of the given kinds at the given intensity
    /// (inner iterations per launch for the synchronized family).
    pub fn with_noise(mut self, kinds: Vec<NoiseKind>, noise_iters: u64) -> Self {
        self.noise = kinds;
        self.noise_iters = noise_iters;
        self
    }

    /// Makes a multi-GPU topology available to the NVLink family.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Deploys a (possibly composed) defense on every device the link
    /// touches, lowered through [`DeviceTuning::from_defense`].
    pub fn with_defense(self, defense: &DefenseSpec) -> Self {
        self.with_tuning(DeviceTuning::from_defense(defense))
    }

    /// Sets the raw device tuning directly.
    pub fn with_tuning(mut self, tuning: DeviceTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Whether the environment perturbs the device at all.
    pub fn is_clean(&self) -> bool {
        self.faults.is_none() && self.noise.is_empty() && self.tuning == DeviceTuning::none()
    }
}

/// Adapts one [`ChannelFamily`] to the [`BitPipe`] transport under a shared
/// [`LinkEnvironment`]. Fault plans are reseeded per round (and per backoff
/// level) so retransmissions see a different burst phase; noise co-runners
/// are launched fresh every round/bit so the interference is persistent.
#[derive(Debug, Clone)]
pub struct FamilyPipe {
    family: ChannelFamily,
    /// Every round's channel settings, before the per-round fault reseed.
    config: ChannelConfig,
    backoff_level: u64,
}

impl FamilyPipe {
    /// A pipe for `family` over `env` with static thresholds and no
    /// symbol-time stretch.
    pub fn new(spec: DeviceSpec, family: ChannelFamily, env: LinkEnvironment) -> Self {
        let config = ChannelConfig {
            topology: env.topology,
            tuning: env.tuning,
            faults: env.faults,
            noise: env.noise,
            noise_iters: env.noise_iters,
            ..ChannelConfig::new(spec)
        };
        FamilyPipe { family, config, backoff_level: 0 }
    }

    /// Decodes with a fitted calibration instead of the static rule.
    pub fn with_calibration(mut self, cal: Calibration) -> Self {
        self.config.calibration = Some(cal);
        self
    }

    /// Multiplies symbol time (per-round redundancy for the synchronized
    /// family, per-bit iterations for the others) — the "stretch" rung of
    /// the degradation ladder.
    pub fn with_stretch(mut self, stretch: u32) -> Self {
        self.config.stretch = stretch.max(1);
        self
    }

    /// The family this pipe carries.
    pub fn family(&self) -> ChannelFamily {
        self.family
    }

    /// The family's channel for one round, its fault plan reseeded per
    /// round and per backoff level.
    fn channel(&self, round_key: u64) -> Result<Box<dyn CovertChannel>, CovertError> {
        let faults = self.config.faults.map(|p| p.reseeded(round_key ^ (self.backoff_level << 32)));
        build_channel(self.family.family(), &ChannelConfig { faults, ..self.config.clone() })
    }

    /// Runs the family's pilot handshake under the pipe's environment and
    /// stretch, fitting a fresh decode rule.
    ///
    /// # Errors
    ///
    /// Propagates transmission failures; [`CovertError::Config`] when the
    /// pilot distributions are inseparable. The atomic and nvlink families
    /// re-measure their contention threshold on every transmission
    /// already, so their pilot just wraps that measurement.
    pub fn calibrate(&self, pilot_bits: usize) -> Result<Calibration, CovertError> {
        self.channel(PILOT_ROUND_KEY)?.calibrate(pilot_bits)
    }
}

impl BitPipe for FamilyPipe {
    fn send(&mut self, round: usize, bits: &Message) -> Result<PipeRun, CovertError> {
        let outcome = self.channel(round as u64)?.transmit(bits)?;
        Ok(PipeRun { received: outcome.received, cycles: outcome.cycles })
    }

    fn backoff(&mut self) {
        self.backoff_level += 1;
    }
}

/// One rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderStage {
    /// Transmission with the family's static spec-derived thresholds.
    Static,
    /// Pilot handshake + retransmission with the fitted thresholds.
    Recalibrate,
    /// Symbol time doubled, ARQ round budget raised, thresholds re-fitted.
    Stretch,
    /// Channel family switched per the [`FallbackPolicy`].
    Fallback,
    /// Every rung on every family failed.
    Abort,
}

impl LadderStage {
    /// Short label for traces and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            LadderStage::Static => "static",
            LadderStage::Recalibrate => "recalibrate",
            LadderStage::Stretch => "stretch",
            LadderStage::Fallback => "fallback",
            LadderStage::Abort => "abort",
        }
    }
}

/// One recorded escalation event: which rung fired, on which family, and
/// what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationEvent {
    /// The ladder rung.
    pub stage: LadderStage,
    /// The channel family the rung ran on (for [`LadderStage::Fallback`],
    /// the family being switched *to*).
    pub family: ChannelFamily,
    /// Whether the rung's transmission attempt recovered the message.
    pub recovered: bool,
    /// Human-readable account of the rung (rounds, failure rates, fit
    /// diagnostics, or the error that ended it).
    pub detail: String,
}

/// Structured explanation of an adaptive transmission: whether it
/// delivered, through which family, and the full escalation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDiagnostic {
    /// Whether every frame was CRC-validated end to end.
    pub delivered: bool,
    /// Bit error rate of the delivered (or best-effort) message.
    pub ber: f64,
    /// The family the final attempt ran on.
    pub final_family: ChannelFamily,
    /// Recent (EWMA) frame-failure rate when the link settled.
    pub frame_failure_rate: f64,
    /// Every ladder rung that fired, in order.
    pub stages: Vec<EscalationEvent>,
    /// One-line summary of why the link settled where it did.
    pub reason: String,
}

impl fmt::Display for LinkDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "link {} via {} (ber {:.4}, recent frame-failure {:.2}): {}",
            if self.delivered { "delivered" } else { "ABORTED" },
            self.final_family.label(),
            self.ber,
            self.frame_failure_rate,
            self.reason
        )?;
        for (i, ev) in self.stages.iter().enumerate() {
            // Fallback/abort rows are ladder markers, not attempts — a
            // recovered/failed verdict would be misleading there.
            let verdict = match ev.stage {
                LadderStage::Fallback | LadderStage::Abort => "",
                _ if ev.recovered => " recovered —",
                _ => " failed —",
            };
            writeln!(
                f,
                "  {}. {:<11} [{:<7}]{verdict} {}",
                i + 1,
                ev.stage.label(),
                ev.family.label(),
                ev.detail
            )?;
        }
        Ok(())
    }
}

/// Result of [`AdaptiveLink::transmit`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// The recovered message (zero-filled for frames never validated).
    pub received: Message,
    /// The ARQ report of the attempt the link settled on.
    pub report: ArqReport,
    /// The escalation trace and final link verdict.
    pub diagnostic: LinkDiagnostic,
}

/// The adaptive link layer: framing + ARQ + online calibration + the
/// degradation ladder, over one [`LinkEnvironment`].
#[derive(Debug, Clone)]
pub struct AdaptiveLink {
    spec: DeviceSpec,
    /// Pilot-sequence length for recalibration rungs.
    pub pilot_bits: usize,
    /// Family preference order.
    pub policy: FallbackPolicy,
    /// Base ARQ configuration (the stretch rung raises `max_rounds` by
    /// half again).
    pub arq: ArqConfig,
    /// The adversarial conditions every attempt runs under.
    pub env: LinkEnvironment,
}

impl AdaptiveLink {
    /// An adaptive link on a quiet device with the default policy, a
    /// 12-bit pilot, and a dead-round-bounded ARQ (a stomped family stops
    /// burning rounds after 2 consecutive zero-progress rounds).
    pub fn new(spec: DeviceSpec) -> Self {
        AdaptiveLink {
            spec,
            pilot_bits: 12,
            policy: FallbackPolicy::default(),
            arq: ArqConfig { max_rounds: 12, max_dead_rounds: Some(2), ..ArqConfig::default() },
            env: LinkEnvironment::clean(),
        }
    }

    /// Sets the adversarial environment.
    pub fn with_env(mut self, env: LinkEnvironment) -> Self {
        self.env = env;
        self
    }

    /// Sets the fallback policy.
    pub fn with_policy(mut self, policy: FallbackPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The first family of the policy, or a typed error for a policy with
    /// no families at all (a user-constructible degenerate [`FallbackPolicy`]
    /// the ladder could otherwise only panic on).
    fn checked_first_family(&self) -> Result<ChannelFamily, CovertError> {
        self.policy.order.first().copied().ok_or_else(|| CovertError::Config {
            reason: "fallback policy has no channel families".into(),
        })
    }

    /// Sets the pilot-sequence length.
    pub fn with_pilot_bits(mut self, bits: usize) -> Self {
        self.pilot_bits = bits;
        self
    }

    /// The device this link targets.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn run_attempt(
        &self,
        family: ChannelFamily,
        msg: &Message,
        calibration: Option<Calibration>,
        stretch: u32,
        arq: &ArqConfig,
        monitor: &mut LinkMonitor,
    ) -> Result<(Message, ArqReport), CovertError> {
        let mut pipe =
            FamilyPipe::new(self.spec.clone(), family, self.env.clone()).with_stretch(stretch);
        if let Some(cal) = calibration {
            pipe = pipe.with_calibration(cal);
        }
        arq_transmit_observed(&mut pipe, msg, arq, &mut |_, ok| monitor.record_frame(ok))
    }

    /// Runs one ladder rung, recording an [`EscalationEvent`]; `Some` result
    /// carries the attempt's outcome (recovered or not), `None` means the
    /// attempt itself errored and the ladder must move on.
    #[allow(clippy::too_many_arguments)] // one bundle per rung, internal
    fn try_rung(
        &self,
        stage: LadderStage,
        family: ChannelFamily,
        msg: &Message,
        calibration: Option<Calibration>,
        cal_note: &str,
        stretch: u32,
        arq: &ArqConfig,
        monitor: &mut LinkMonitor,
        stages: &mut Vec<EscalationEvent>,
    ) -> Option<(Message, ArqReport)> {
        match self.run_attempt(family, msg, calibration, stretch, arq, monitor) {
            Ok((received, report)) => {
                let detail = format!(
                    "{cal_note}{} rounds, {} frames, {} retransmissions, {} backoffs",
                    report.rounds, report.frames_total, report.retransmissions, report.backoffs
                );
                stages.push(EscalationEvent { stage, family, recovered: report.recovered, detail });
                Some((received, report))
            }
            Err(e) => {
                stages.push(EscalationEvent {
                    stage,
                    family,
                    recovered: false,
                    detail: format!("{cal_note}transport error: {e}"),
                });
                None
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // bundles one rung's full verdict into a diagnostic
    fn finish(
        &self,
        received: Message,
        report: ArqReport,
        msg: &Message,
        family: ChannelFamily,
        monitor: &LinkMonitor,
        stages: Vec<EscalationEvent>,
        reason: String,
    ) -> AdaptiveOutcome {
        AdaptiveOutcome {
            diagnostic: LinkDiagnostic {
                delivered: report.recovered,
                ber: msg.bit_error_rate(&received),
                final_family: family,
                frame_failure_rate: monitor.failure_rate(),
                stages,
                reason,
            },
            received,
            report,
        }
    }

    /// Transmits `msg` with the full degradation ladder. Always returns
    /// `Ok` for link-level failures — an exhausted ladder yields an outcome
    /// with `diagnostic.delivered == false` and an [`LadderStage::Abort`]
    /// event explaining each rung — reserving `Err` for configuration
    /// errors that no escalation can fix (e.g. an oversized message).
    ///
    /// # Errors
    ///
    /// [`CovertError::Config`] for messages exceeding the framing sequence
    /// space.
    pub fn transmit(&self, msg: &Message) -> Result<AdaptiveOutcome, CovertError> {
        crate::framing::frames_needed_checked(msg)?;
        self.checked_first_family()?;
        let mut monitor = LinkMonitor::new();
        let mut stages: Vec<EscalationEvent> = Vec::new();
        let mut last: Option<(Message, ArqReport, ChannelFamily)> = None;
        let stretch_arq =
            ArqConfig { max_rounds: self.arq.max_rounds + self.arq.max_rounds / 2, ..self.arq };

        for (fi, &family) in self.policy.order.iter().enumerate() {
            if fi > 0 {
                stages.push(EscalationEvent {
                    stage: LadderStage::Fallback,
                    family,
                    recovered: false,
                    detail: format!(
                        "switching family {} -> {}",
                        self.policy.order[fi - 1].label(),
                        family.label()
                    ),
                });
            }

            // Rung 1: static spec-derived thresholds.
            if let Some((received, report)) = self.try_rung(
                LadderStage::Static,
                family,
                msg,
                None,
                "",
                1,
                &self.arq,
                &mut monitor,
                &mut stages,
            ) {
                if report.recovered {
                    let reason = if fi == 0 {
                        "static thresholds sufficed".to_string()
                    } else {
                        format!("recovered after falling back to the {} family", family.label())
                    };
                    return Ok(self.finish(received, report, msg, family, &monitor, stages, reason));
                }
                last = Some((received, report, family));
            }

            // Rung 2: re-calibrate online and retry with fitted thresholds.
            let base_pipe = FamilyPipe::new(self.spec.clone(), family, self.env.clone());
            match base_pipe.calibrate(self.pilot_bits) {
                Ok(cal) => {
                    let note = format!(
                        "pilot fit threshold={} min_hot={} margin={}; ",
                        cal.threshold, cal.min_hot, cal.margin
                    );
                    if let Some((received, report)) = self.try_rung(
                        LadderStage::Recalibrate,
                        family,
                        msg,
                        Some(cal),
                        &note,
                        1,
                        &self.arq,
                        &mut monitor,
                        &mut stages,
                    ) {
                        if report.recovered {
                            return Ok(self.finish(
                                received,
                                report,
                                msg,
                                family,
                                &monitor,
                                stages,
                                "online re-calibration recovered the link".into(),
                            ));
                        }
                        last = Some((received, report, family));
                    }
                }
                Err(e) => {
                    stages.push(EscalationEvent {
                        stage: LadderStage::Recalibrate,
                        family,
                        recovered: false,
                        detail: format!("pilot fit failed: {e}"),
                    });
                }
            }

            // Rung 3: stretch symbol time, raise ARQ effort, re-fit at the
            // stretched operating point (fall back to static thresholds if
            // even the stretched pilot cannot separate).
            let stretched =
                FamilyPipe::new(self.spec.clone(), family, self.env.clone()).with_stretch(2);
            let (cal2, note) = match stretched.calibrate(self.pilot_bits) {
                Ok(c) => {
                    let n = format!(
                        "2x symbol time, re-fit threshold={} min_hot={}; ",
                        c.threshold, c.min_hot
                    );
                    (Some(c), n)
                }
                Err(e) => (None, format!("2x symbol time, stretched pilot failed ({e}); ")),
            };
            if let Some((received, report)) = self.try_rung(
                LadderStage::Stretch,
                family,
                msg,
                cal2,
                &note,
                2,
                &stretch_arq,
                &mut monitor,
                &mut stages,
            ) {
                if report.recovered {
                    return Ok(self.finish(
                        received,
                        report,
                        msg,
                        family,
                        &monitor,
                        stages,
                        "stretched symbol time recovered the link".into(),
                    ));
                }
                last = Some((received, report, family));
            }
        }

        let final_family =
            last.as_ref().map_or(*self.policy.order.last().expect("non-empty policy"), |l| l.2);
        stages.push(EscalationEvent {
            stage: LadderStage::Abort,
            family: final_family,
            recovered: false,
            detail: format!(
                "every rung failed on {} famil{}; lifetime frame-failure {:.2}",
                self.policy.order.len(),
                if self.policy.order.len() == 1 { "y" } else { "ies" },
                monitor.lifetime_failure_rate()
            ),
        });
        let (received, report, family) = last.unwrap_or_else(|| {
            (Message::from_bits(vec![false; msg.len()]), ArqReport::default(), final_family)
        });
        Ok(self.finish(
            received,
            report,
            msg,
            family,
            &monitor,
            stages,
            "escalation ladder exhausted".into(),
        ))
    }

    /// Transmits with thresholds pinned to the static spec-derived rule and
    /// the ladder disabled: exactly the first rung of [`AdaptiveLink::
    /// transmit`], which makes it the control arm for adaptive-vs-static
    /// comparisons (on a clean device the two are bit- and cycle-identical).
    ///
    /// # Errors
    ///
    /// As [`AdaptiveLink::transmit`].
    pub fn transmit_static(&self, msg: &Message) -> Result<AdaptiveOutcome, CovertError> {
        crate::framing::frames_needed_checked(msg)?;
        let family = self.checked_first_family()?;
        let mut monitor = LinkMonitor::new();
        let mut stages = Vec::new();
        let result = self.try_rung(
            LadderStage::Static,
            family,
            msg,
            None,
            "",
            1,
            &self.arq,
            &mut monitor,
            &mut stages,
        );
        let (received, report) = result
            .unwrap_or_else(|| (Message::from_bits(vec![false; msg.len()]), ArqReport::default()));
        let reason = if report.recovered {
            "static thresholds sufficed".to_string()
        } else {
            "static thresholds failed (ladder disabled)".to_string()
        };
        Ok(self.finish(received, report, msg, family, &monitor, stages, reason))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_spec::presets;

    #[test]
    fn empty_fallback_policy_is_a_typed_error_not_a_panic() {
        let link = AdaptiveLink::new(presets::tesla_k40c())
            .with_policy(FallbackPolicy { order: Vec::new() });
        let msg = Message::from_bits([true, false]);
        for r in [link.transmit(&msg), link.transmit_static(&msg)] {
            match r {
                Err(CovertError::Config { reason }) => {
                    assert!(reason.contains("no channel families"), "{reason}");
                }
                other => panic!("expected a Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn monitor_tracks_failures() {
        let mut m = LinkMonitor::new();
        assert_eq!(m.failure_rate(), 0.0);
        assert_eq!(m.lifetime_failure_rate(), 0.0);
        for _ in 0..3 {
            m.record_frame(true);
        }
        m.record_frame(false);
        assert_eq!((m.frames(), m.failures()), (4, 1));
        assert!(m.failure_rate() > 0.0 && m.failure_rate() < 1.0);
        assert!((m.lifetime_failure_rate() - 0.25).abs() < 1e-12);
        // Sustained failures push the EWMA toward 1.
        for _ in 0..32 {
            m.record_frame(false);
        }
        assert!(m.failure_rate() > 0.9);
    }

    #[test]
    fn default_policy_orders_families_by_bandwidth() {
        let p = FallbackPolicy::default();
        assert_eq!(
            p.order,
            vec![
                ChannelFamily::CacheL1Sync,
                ChannelFamily::Atomic,
                ChannelFamily::Sfu,
                ChannelFamily::Nvlink,
            ]
        );
        assert_eq!(FallbackPolicy::only(ChannelFamily::Sfu).order.len(), 1);
    }

    #[test]
    fn clean_device_settles_on_the_first_static_rung() {
        let link = AdaptiveLink::new(presets::tesla_k40c());
        let msg = Message::pseudo_random(32, 0xAD);
        let out = link.transmit(&msg).unwrap();
        assert!(out.diagnostic.delivered);
        assert_eq!(out.received, msg);
        assert_eq!(out.diagnostic.ber, 0.0);
        assert_eq!(out.diagnostic.stages.len(), 1);
        assert_eq!(out.diagnostic.stages[0].stage, LadderStage::Static);
        assert!(out.diagnostic.stages[0].recovered);
        assert_eq!(out.diagnostic.final_family, ChannelFamily::CacheL1Sync);
    }

    #[test]
    fn static_arm_matches_adaptive_on_a_clean_device() {
        let link = AdaptiveLink::new(presets::tesla_k40c());
        let msg = Message::pseudo_random(48, 0x1CE);
        let adaptive = link.transmit(&msg).unwrap();
        let pinned = link.transmit_static(&msg).unwrap();
        assert_eq!(adaptive.received, pinned.received, "bit-identical on a clean device");
        assert_eq!(adaptive.report.cycles, pinned.report.cycles, "cycle-identical too");
        assert!(pinned.diagnostic.delivered);
    }

    #[test]
    fn diagnostic_display_is_a_readable_trace() {
        let d = LinkDiagnostic {
            delivered: false,
            ber: 0.25,
            final_family: ChannelFamily::Atomic,
            frame_failure_rate: 0.8,
            stages: vec![EscalationEvent {
                stage: LadderStage::Recalibrate,
                family: ChannelFamily::CacheL1Sync,
                recovered: false,
                detail: "pilot fit failed: x".into(),
            }],
            reason: "escalation ladder exhausted".into(),
        };
        let s = d.to_string();
        assert!(s.contains("ABORTED"), "{s}");
        assert!(s.contains("recalibrate"), "{s}");
        assert!(s.contains("l1-sync"), "{s}");
    }
}
