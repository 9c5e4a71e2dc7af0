//! Analytical fast path: closed-form bandwidth/BER prediction for every
//! channel family, cross-validated against the cycle engine.
//!
//! The cycle engine answers "what bandwidth and error rate does this channel
//! reach at this operating point?" by simulating every warp issue. For sweep
//! grids (Figures 5, 10, 13) most cells are far from any behavioural
//! transition, and a closed-form model answers them orders of magnitude
//! faster. [`EngineMode::Analytical`] selects that path.
//!
//! The model is **derived from the cycle engine, not hand-tuned against
//! it**: [`AnalyticalModel::characterize`] runs a short probe suite — the
//! same methodology as the Wong-style microbench that recovers cache
//! geometry (`crate::microbench`) — and records two kinds of facts in a
//! [`gpgpu_sim::LatencyTable`]:
//!
//! * **per-op latencies** ([`gpgpu_sim::OpClass`]): L1/L2 hit latency from a
//!   strided-walk probe, SFU idle/contended issue latency from the
//!   warp-count sweep, atomic service latency idle/contended;
//! * **per-family cost and error models** ([`gpgpu_sim::FamilyModel`]):
//!   total cycles as `fixed + bits * (base + slope * knob)` fitted from two
//!   probe transmissions, and the 1-bit failure curve
//!   `err_sat * min(1, (err_knee/knob)^2)` fitted from starved-knob probes.
//!   The quadratic falloff is mechanistic, not a curve fit: both colluding
//!   kernels draw independent uniform launch jitter, so the "missed
//!   overlap" region is the corner of a square in the jitter plane.
//!
//! Every entry point names a channel by [`Family`]; the relaunch families'
//! probes build their channels through the one family→channel constructor,
//! [`build_channel`].
//!
//! Cross-validation is a first-class test asset: see
//! `tests/integration_analytic.rs` for the three-way
//! Dense/EventDriven/Analytical comparison with the per-family
//! [`tolerance`] bands, and DESIGN.md §8 for the tolerance policy.

use crate::atomic_channel::{AtomicChannel, AtomicScenario};
use crate::bits::Message;
use crate::cache_channel::CacheChannel;
use crate::channel::{build_channel, ChannelConfig};
use crate::harness::TrialRunner;
use crate::microbench;
use crate::nvlink_channel::NvlinkChannel;
use crate::sync_channel::SyncChannel;
use crate::CovertError;
use gpgpu_sim::EngineMode;
use gpgpu_sim::{FamilyModel, LatencyTable, OpClass};
use gpgpu_spec::{DeviceSpec, Family, FuOpKind, TopologySpec};

/// BER at or above which a channel is considered **dead** — the same bar the
/// mitigation arena uses for an effective defense (`min_ber` 0.2 in
/// `BENCH_arena.json`).
pub const DEAD_BER: f64 = 0.2;

/// Simulated BER at or below which the simulator's *works* verdict is
/// confident (the analytical verdict must agree; see
/// [`simulator_confident`]).
pub const CONFIDENT_WORKS_BER: f64 = 0.05;

/// Simulated BER at or above which the simulator's *dead* verdict is
/// confident.
pub const CONFIDENT_DEAD_BER: f64 = 0.35;

/// Whether a simulated BER is far enough from the [`DEAD_BER`] boundary that
/// its verdict is confident — the region where the analytical predictor is
/// never allowed to flip the verdict.
pub fn simulator_confident(ber: f64) -> bool {
    ber <= CONFIDENT_WORKS_BER || ber >= CONFIDENT_DEAD_BER
}

/// The binary outcome the analytical model must get exactly right on
/// confident cells: does the channel deliver, or is it dead?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelVerdict {
    /// BER below [`DEAD_BER`]: the channel delivers.
    Works,
    /// BER at or above [`DEAD_BER`]: the channel is dead.
    Dead,
}

impl ChannelVerdict {
    /// The verdict for a bit-error rate.
    pub fn from_ber(ber: f64) -> Self {
        if ber < DEAD_BER {
            ChannelVerdict::Works
        } else {
            ChannelVerdict::Dead
        }
    }

    /// Human-readable label (`works` / `dead`).
    pub fn label(self) -> &'static str {
        match self {
            ChannelVerdict::Works => "works",
            ChannelVerdict::Dead => "dead",
        }
    }
}

/// One closed-form answer from the analytical model.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticalPrediction {
    /// Family the prediction is for.
    pub family: Family,
    /// Knob value (iterations / pacing window) the prediction is at.
    pub knob: f64,
    /// Message length in bits.
    pub bits: usize,
    /// Predicted total transmission cycles.
    pub cycles: u64,
    /// Predicted raw bandwidth at the device clock.
    pub bandwidth_kbps: f64,
    /// Predicted bit-error rate for the given message.
    pub ber: f64,
    /// Predicted works/dead verdict.
    pub verdict: ChannelVerdict,
}

/// Per-family cross-validation tolerance: how far the analytical prediction
/// may sit from the simulated value before the differential harness fails.
/// The policy (and the measured errors behind these numbers) is documented
/// in DESIGN.md §8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Maximum absolute BER difference.
    pub ber_abs: f64,
    /// Maximum relative bandwidth difference.
    pub bandwidth_rel: f64,
}

impl Tolerance {
    /// Checks a simulated `(ber, bandwidth_kbps)` pair against a prediction:
    /// BER within [`Tolerance::ber_abs`], bandwidth within
    /// [`Tolerance::bandwidth_rel`], and — whenever the simulated BER is
    /// confident ([`simulator_confident`]) — exact verdict agreement.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated bound.
    pub fn check(
        &self,
        sim_ber: f64,
        sim_kbps: f64,
        pred: &AnalyticalPrediction,
    ) -> Result<(), String> {
        if simulator_confident(sim_ber) && pred.verdict != ChannelVerdict::from_ber(sim_ber) {
            return Err(format!(
                "verdict flip: simulator is confident ({}, BER {sim_ber:.3}) but the model \
                 predicts {} (BER {:.3})",
                ChannelVerdict::from_ber(sim_ber).label(),
                pred.verdict.label(),
                pred.ber
            ));
        }
        let ber_err = (pred.ber - sim_ber).abs();
        if ber_err > self.ber_abs {
            return Err(format!(
                "BER error {ber_err:.3} exceeds the ±{:.3} band (simulated {sim_ber:.3}, \
                 predicted {:.3})",
                self.ber_abs, pred.ber
            ));
        }
        if sim_kbps > 0.0 {
            let rel = (pred.bandwidth_kbps - sim_kbps).abs() / sim_kbps;
            if rel > self.bandwidth_rel {
                return Err(format!(
                    "bandwidth error {:.1}% exceeds the ±{:.1}% band (simulated {sim_kbps:.2} \
                     kbps, predicted {:.2} kbps)",
                    rel * 100.0,
                    self.bandwidth_rel * 100.0,
                    pred.bandwidth_kbps
                ));
            }
        }
        Ok(())
    }
}

/// The documented cross-validation tolerance for a family. Families with
/// launch jitter (the cache channels) get a wider BER band — their
/// simulated BER is one seeded realization of the jitter ensemble the model
/// predicts the mean of.
pub fn tolerance(family: Family) -> Tolerance {
    match family {
        Family::L1 | Family::L2 => Tolerance { ber_abs: 0.12, bandwidth_rel: 0.15 },
        Family::Sync => Tolerance { ber_abs: 0.05, bandwidth_rel: 0.15 },
        Family::ParallelSfu | Family::Sfu | Family::Atomic | Family::Nvlink => {
            Tolerance { ber_abs: 0.05, bandwidth_rel: 0.10 }
        }
    }
}

/// Least-squares affine fit `y = base + slope * x` (exact for two points).
fn fit_affine(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (points.first().map_or(0.0, |p| p.1), 0.0);
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    (my - slope * mx, slope)
}

/// Fits the 1-bit failure curve `err_sat * min(1, (err_knee/knob)^2)` from
/// starved-knob probe BERs measured on all-ones messages (where BER equals
/// the failure probability directly). `probes` pairs `(knob, failure)`.
fn fit_error_curve(probes: &[(f64, f64)]) -> (f64, f64) {
    let err_sat = probes.iter().map(|p| p.1).fold(0.0, f64::max);
    if err_sat <= 0.0 {
        return (0.0, 0.0);
    }
    // Each probe with a nonzero failure rate lower-bounds the knee at
    // knob * sqrt(p / sat); the largest bound is the fitted knee.
    let err_knee = probes
        .iter()
        .filter(|p| p.1 > 0.0)
        .map(|p| p.0 * (p.1 / err_sat).sqrt())
        .fold(0.0, f64::max);
    (err_sat, err_knee)
}

/// Knob values the characterizer probes for the affine cycles fit.
const CYCLE_PROBES: [u64; 2] = [2, 16];
/// Knob values the characterizer starves for the error-curve fit.
const ERROR_PROBES: [u64; 3] = [1, 2, 6];
/// Pacing windows probed for the NVLink family.
const NVLINK_PROBES: [u64; 2] = [2_048, 8_192];

/// Bits of the balanced cycles-probe message (half ones, like the sweep
/// payloads the model will be asked about).
fn probe_message() -> Message {
    Message::from_bits([true, false, true, false, true, false, true, false])
}

/// All-ones error-probe message: 0-bits cannot err, so its BER *is* the
/// 1-bit failure probability.
fn ones_message() -> Message {
    Message::from_bits(vec![true; 16])
}

/// The analytical predictor: a characterized [`LatencyTable`] plus the
/// device spec whose clock converts predicted cycles into bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticalModel {
    spec: DeviceSpec,
    table: LatencyTable,
}

impl AnalyticalModel {
    /// Wraps an already-extracted table (e.g. loaded from a `characterize`
    /// dump) for the given device.
    pub fn from_table(spec: DeviceSpec, table: LatencyTable) -> Self {
        AnalyticalModel { spec, table }
    }

    /// Characterizes every single-GPU family (`l1`, `l2`, `sfu`, `atomic`,
    /// `sync`) plus the per-op latency rows by running cycle-engine probes
    /// on `spec`. Cross-GPU families are added by
    /// [`AnalyticalModel::characterize_nvlink`].
    ///
    /// Probes fan out over the default [`TrialRunner`]; results are
    /// bit-identical to a sequential characterization.
    ///
    /// # Errors
    ///
    /// Propagates the first probe failure.
    pub fn characterize(spec: &DeviceSpec) -> Result<Self, CovertError> {
        let families = [Family::L1, Family::L2, Family::Sfu, Family::Atomic, Family::Sync];
        let mut model = Self::characterize_families(spec, &families)?;
        model.extract_op_rows()?;
        Ok(model)
    }

    /// Targeted characterization: only the named single-GPU families (any
    /// of `l1`, `l2`, `sfu`, `atomic`, `sync`) — what a sweep pre-pruner
    /// runs when it only needs one family's model and cannot afford the
    /// full suite.
    ///
    /// # Errors
    ///
    /// Propagates the first probe failure; [`CovertError::Config`] for
    /// nvlink (characterized over a topology by
    /// [`AnalyticalModel::characterize_nvlink`]) and parallel-sfu (which
    /// has no analytical model).
    pub fn characterize_families(
        spec: &DeviceSpec,
        families: &[Family],
    ) -> Result<Self, CovertError> {
        let mut model =
            AnalyticalModel { spec: spec.clone(), table: LatencyTable::new(spec.name.clone()) };
        for &family in families {
            let fitted = match family {
                Family::Sync => model.extract_sync_family()?,
                Family::L1 | Family::L2 | Family::Sfu | Family::Atomic => {
                    model.extract_relaunch_family(family)?
                }
                Family::Nvlink => {
                    return Err(CovertError::Config {
                        reason: "the nvlink family is characterized over a topology: use \
                                 characterize_nvlink"
                            .into(),
                    })
                }
                Family::ParallelSfu => {
                    return Err(CovertError::Config {
                        reason: "the parallel-sfu family has no analytical model".into(),
                    })
                }
            };
            model.table.set_family(fitted);
        }
        Ok(model)
    }

    /// Adds the `nvlink` family model by probing a cross-GPU channel over
    /// `topology`: two message lengths at the low pacing window separate
    /// the fixed per-message overhead from the per-bit cost, and a third
    /// probe at the high window fits the per-bit slope in the window.
    ///
    /// # Errors
    ///
    /// Propagates channel construction and probe failures.
    pub fn characterize_nvlink(&mut self, topology: &TopologySpec) -> Result<(), CovertError> {
        let short = probe_message();
        let long = Message::pseudo_random(24, 0x5EED);
        let (w_lo, w_hi) = (NVLINK_PROBES[0], NVLINK_PROBES[1]);
        // (window, message) probe schedule.
        let probes: [(u64, &Message); 3] = [(w_lo, &short), (w_lo, &long), (w_hi, &short)];
        let results = TrialRunner::new().try_map(&probes, |_, &(window, msg)| {
            let ch = NvlinkChannel::new(topology.clone())?.with_window(window);
            let o = ch.transmit(msg)?;
            Ok::<(f64, f64), CovertError>((o.cycles as f64, o.ber))
        })?;
        let (short_bits, long_bits) = (short.len() as f64, long.len() as f64);
        let per_bit_lo = (results[1].0 - results[0].0) / (long_bits - short_bits);
        let fixed = (results[0].0 - short_bits * per_bit_lo).max(0.0);
        let per_bit_hi = (results[2].0 - fixed) / short_bits;
        let slope = (per_bit_hi - per_bit_lo) / (w_hi as f64 - w_lo as f64);
        let base = per_bit_lo - slope * w_lo as f64;
        let (err_sat, err_knee) = fit_error_curve(&[
            (w_lo as f64, results[0].1.max(results[1].1)),
            (w_hi as f64, results[2].1),
        ]);
        self.table.set_family(FamilyModel {
            family: Family::Nvlink,
            knob: "window".into(),
            fixed,
            base,
            slope,
            knob_lo: w_lo as f64,
            knob_hi: w_hi as f64,
            err_sat,
            err_knee,
        });
        Ok(())
    }

    /// The Wong-style per-op rows: strided-walk cache hit latencies, the
    /// SFU warp-count sweep endpoints, and the atomic service latencies.
    fn extract_op_rows(&mut self) -> Result<(), CovertError> {
        // L1 hit: a walk that fits every preset's L1 (1 KB); L2 hit: a walk
        // that spills every preset's L1 but fits its L2 (16 KB).
        let l1 = microbench::cache_sweep(&self.spec, 64, &[1_024])?;
        self.table.set_op(OpClass::L1Hit, l1[0].latency);
        let l2 = microbench::cache_sweep(&self.spec, 256, &[16_384])?;
        self.table.set_op(OpClass::L2Hit, l2[0].latency);
        let fu = microbench::fu_latency_sweep(&self.spec, FuOpKind::SpSinf, &[1, 32])?;
        self.table.set_op(OpClass::SfuIdle, fu[0].latency);
        self.table.set_op(OpClass::SfuContended, fu[1].latency);
        let (idle, contended) = AtomicChannel::new(self.spec.clone(), AtomicScenario::OneAddress)
            .measure_service_latencies()?;
        self.table.set_op(OpClass::AtomicIdle, idle as f64);
        self.table.set_op(OpClass::AtomicContended, contended as f64);
        Ok(())
    }

    /// One per-bit-relaunch family (`l1`, `l2`, `sfu`, `atomic`): fits the
    /// affine cycles model from [`CYCLE_PROBES`] and the error curve from
    /// all-ones transmissions at the starved [`ERROR_PROBES`] knobs.
    fn extract_relaunch_family(&self, family: Family) -> Result<FamilyModel, CovertError> {
        let transmit = |iterations: u64, msg: &Message| -> Result<(u64, f64), CovertError> {
            let cfg = ChannelConfig {
                iterations: Some(iterations),
                ..ChannelConfig::new(self.spec.clone())
            };
            let o = build_channel(family, &cfg)?.transmit(msg)?;
            Ok((o.cycles, o.ber))
        };
        let cycle_msg = probe_message();
        let ones = ones_message();
        // One probe schedule, fanned over the trial harness: first the
        // cycles probes (balanced message), then the starved error probes
        // (all-ones message).
        let probes: Vec<(u64, bool)> = CYCLE_PROBES
            .iter()
            .map(|&n| (n, false))
            .chain(ERROR_PROBES.iter().map(|&n| (n, true)))
            .collect();
        let results = TrialRunner::new().try_map(&probes, |_, &(n, starved)| {
            transmit(n, if starved { &ones } else { &cycle_msg })
        })?;
        let cycle_points: Vec<(f64, f64)> = probes
            .iter()
            .zip(&results)
            .filter(|((_, starved), _)| !starved)
            .map(|((n, _), (cycles, _))| (*n as f64, *cycles as f64 / cycle_msg.len() as f64))
            .collect();
        let error_points: Vec<(f64, f64)> = probes
            .iter()
            .zip(&results)
            .filter(|((_, starved), _)| *starved)
            .map(|((n, _), (_, ber))| (*n as f64, *ber))
            .collect();
        let (base, slope) = fit_affine(&cycle_points);
        let (err_sat, err_knee) = fit_error_curve(&error_points);
        Ok(FamilyModel {
            family,
            knob: "iterations".into(),
            fixed: 0.0,
            base,
            slope,
            knob_lo: CYCLE_PROBES[0] as f64,
            knob_hi: CYCLE_PROBES[1] as f64,
            err_sat,
            err_knee,
        })
    }

    /// The synchronized channel has no symbol-time knob: its cost model is
    /// `fixed + base * bits`, fitted from two message lengths.
    fn extract_sync_family(&self) -> Result<FamilyModel, CovertError> {
        let lengths = [8usize, 24];
        let points = TrialRunner::new().try_map(&lengths, |_, &bits| {
            let msg = Message::pseudo_random(bits, 0x5EED);
            let o = SyncChannel::new(self.spec.clone()).transmit(&msg)?;
            Ok::<(f64, f64, f64), CovertError>((bits as f64, o.cycles as f64, o.ber))
        })?;
        let (fixed, base) = fit_affine(&points.iter().map(|&(b, c, _)| (b, c)).collect::<Vec<_>>());
        let worst_ber = points.iter().map(|p| p.2).fold(0.0, f64::max);
        Ok(FamilyModel {
            family: Family::Sync,
            knob: "none".into(),
            fixed,
            base,
            slope: 0.0,
            knob_lo: 0.0,
            knob_hi: 0.0,
            err_sat: worst_ber,
            err_knee: if worst_ber > 0.0 { 1.0 } else { 0.0 },
        })
    }

    /// The extracted table (dump it with
    /// [`gpgpu_sim::LatencyTable::to_spec`]).
    pub fn table(&self) -> &LatencyTable {
        &self.table
    }

    /// The device spec whose clock converts cycles to bandwidth.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Predicts bandwidth, BER and verdict for `family` at knob value
    /// `knob`, for the given message — **no cycle loop runs**.
    ///
    /// # Errors
    ///
    /// [`CovertError::Config`] when `family` has not been characterized.
    pub fn predict(
        &self,
        family: Family,
        knob: f64,
        msg: &Message,
    ) -> Result<AnalyticalPrediction, CovertError> {
        let m = self.table.family(family).ok_or_else(|| CovertError::Config {
            reason: format!("family `{family}` is not in the characterized table"),
        })?;
        let bits = msg.len();
        let cycles = m.cycles(bits, knob).round().max(1.0) as u64;
        let ones = msg.bits().iter().filter(|&&b| b).count();
        let ber = if bits == 0 { 0.0 } else { m.one_bit_failure(knob) * ones as f64 / bits as f64 };
        Ok(AnalyticalPrediction {
            family,
            knob,
            bits,
            cycles,
            bandwidth_kbps: self.spec.bandwidth_kbps(bits as u64, cycles),
            ber,
            verdict: ChannelVerdict::from_ber(ber),
        })
    }

    /// Whether a sweep cell needs simulation: the model flags a cell as
    /// *interesting* when its predicted BER falls inside the open
    /// transition band ([`CONFIDENT_WORKS_BER`], [`CONFIDENT_DEAD_BER`]) —
    /// outside it, the closed form is trusted to reproduce the curve and
    /// the verdict without running the cycle loop.
    ///
    /// # Errors
    ///
    /// As [`AnalyticalModel::predict`].
    pub fn interesting(
        &self,
        family: Family,
        knob: f64,
        msg: &Message,
    ) -> Result<bool, CovertError> {
        let p = self.predict(family, knob, msg)?;
        Ok(p.ber > CONFIDENT_WORKS_BER && p.ber < CONFIDENT_DEAD_BER)
    }

    /// Flags every knob in a sweep grid: `true` means "simulate this cell",
    /// `false` means "fill it from the closed form".
    ///
    /// # Errors
    ///
    /// As [`AnalyticalModel::predict`].
    pub fn prune_grid(
        &self,
        family: Family,
        knobs: &[f64],
        msg: &Message,
    ) -> Result<Vec<bool>, CovertError> {
        knobs.iter().map(|&k| self.interesting(family, k, msg)).collect()
    }

    /// A Figure-5 sweep with analytical pre-pruning: cells the model flags
    /// as interesting are simulated on `runner` (bit-identical to the same
    /// cells of an unpruned sweep); the rest are filled from the closed
    /// form. Returns the `(bandwidth_kbps, ber)` points plus the
    /// simulated-cell mask.
    ///
    /// # Errors
    ///
    /// Propagates prediction and simulation failures.
    pub fn pruned_error_rate_sweep(
        &self,
        runner: &TrialRunner,
        channel: &CacheChannel,
        family: Family,
        msg: &Message,
        iteration_counts: &[u64],
    ) -> Result<PrunedSweep, CovertError> {
        let knobs: Vec<f64> = iteration_counts.iter().map(|&n| n as f64).collect();
        let mask = self.prune_grid(family, &knobs, msg)?;
        let simulate: Vec<u64> =
            iteration_counts.iter().zip(&mask).filter(|(_, &keep)| keep).map(|(&n, _)| n).collect();
        let simulated = channel.error_rate_sweep_on(runner, msg, &simulate)?;
        let mut sim_iter = simulated.into_iter();
        let points = iteration_counts
            .iter()
            .zip(&mask)
            .map(|(&n, &keep)| {
                if keep {
                    Ok(sim_iter.next().expect("one simulated point per flagged cell"))
                } else {
                    let p = self.predict(family, n as f64, msg)?;
                    Ok((p.bandwidth_kbps, p.ber))
                }
            })
            .collect::<Result<Vec<_>, CovertError>>()?;
        Ok((points, mask))
    }
}

/// A pruned sweep's result: the `(bandwidth_kbps, ber)` point per grid
/// cell plus the mask of cells that were simulated (`true`) rather than
/// filled from the closed form.
pub type PrunedSweep = (Vec<(f64, f64)>, Vec<bool>);

/// Resolves the engine mode a channel run should use when the caller did
/// not pass `--engine`: the `GPGPU_ENGINE` environment variable if set and
/// valid, else the default ([`EngineMode::EventDriven`]). An unparseable
/// value falls back to the default with a one-time warning to stderr — the
/// same contract as `GPGPU_TRIAL_WORKERS` (see
/// [`crate::harness::TrialRunner::new`]).
pub fn default_engine_mode() -> EngineMode {
    crate::env::env_knob(
        "GPGPU_ENGINE",
        &format!("dense, event or analytical; using {}", EngineMode::default().label()),
        EngineMode::default(),
        EngineMode::default(),
        |v| v.parse().ok(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_fit_is_exact_on_two_points() {
        let (base, slope) = fit_affine(&[(2.0, 10.0), (6.0, 22.0)]);
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((base - 4.0).abs() < 1e-12);
        assert_eq!(fit_affine(&[(5.0, 7.0)]), (7.0, 0.0));
        // Degenerate x-spread: slope 0, base = mean.
        let (b, s) = fit_affine(&[(3.0, 4.0), (3.0, 8.0)]);
        assert_eq!((b, s), (6.0, 0.0));
    }

    #[test]
    fn error_curve_fit_recovers_sat_and_knee() {
        // Saturated at 1 and 2, quarter at 7 => knee 3.5 from the 7-probe.
        let (sat, knee) = fit_error_curve(&[(1.0, 0.6), (2.0, 0.6), (7.0, 0.15)]);
        assert!((sat - 0.6).abs() < 1e-12);
        assert!((knee - 3.5).abs() < 1e-12, "knee {knee}");
        // Error-free probes => error-free model.
        assert_eq!(fit_error_curve(&[(1.0, 0.0), (6.0, 0.0)]), (0.0, 0.0));
    }

    #[test]
    fn verdicts_and_confidence_bands() {
        assert_eq!(ChannelVerdict::from_ber(0.0), ChannelVerdict::Works);
        assert_eq!(ChannelVerdict::from_ber(0.19), ChannelVerdict::Works);
        assert_eq!(ChannelVerdict::from_ber(0.2), ChannelVerdict::Dead);
        assert!(simulator_confident(0.0));
        assert!(simulator_confident(0.5));
        assert!(!simulator_confident(0.2));
        assert_eq!(ChannelVerdict::Works.label(), "works");
    }

    #[test]
    fn tolerance_check_reports_each_bound() {
        let pred = AnalyticalPrediction {
            family: Family::L1,
            knob: 4.0,
            bits: 8,
            cycles: 1000,
            bandwidth_kbps: 50.0,
            ber: 0.0,
            verdict: ChannelVerdict::Works,
        };
        let tol = Tolerance { ber_abs: 0.1, bandwidth_rel: 0.1 };
        assert!(tol.check(0.05, 50.0, &pred).is_ok());
        assert!(tol.check(0.15, 50.0, &pred).unwrap_err().contains("BER error"));
        assert!(tol.check(0.0, 60.0, &pred).unwrap_err().contains("bandwidth error"));
        // A confident dead simulation must not be predicted as works.
        let e = tol.check(0.5, 0.0, &pred).unwrap_err();
        assert!(e.contains("verdict flip"), "{e}");
    }

    #[test]
    fn engine_resolution_honors_valid_and_rejects_invalid_values() {
        use std::env::VarError;
        let resolve_engine = |raw| {
            let d = EngineMode::default();
            crate::env::resolve_knob(raw, d, d, |v| v.parse().ok())
        };
        assert_eq!(resolve_engine(Ok("dense".into())), (EngineMode::Dense, None));
        assert_eq!(resolve_engine(Ok("analytical".into())), (EngineMode::Analytical, None));
        assert_eq!(resolve_engine(Err(VarError::NotPresent)), (EngineMode::EventDriven, None));
        assert_eq!(
            resolve_engine(Ok("warp9".into())),
            (EngineMode::EventDriven, Some("`warp9`".into()))
        );
        let (m, rejected) =
            resolve_engine(Err(VarError::NotUnicode(std::ffi::OsString::from("x"))));
        assert_eq!((m, rejected.as_deref()), (EngineMode::EventDriven, Some("<non-unicode>")));
    }

    #[test]
    fn characterize_families_names_what_it_cannot_model() {
        let spec = gpgpu_spec::presets::tesla_k40c();
        let nvlink = AnalyticalModel::characterize_families(&spec, &[Family::Nvlink]).unwrap_err();
        assert!(nvlink.to_string().contains("characterize_nvlink"), "{nvlink}");
        let psfu = AnalyticalModel::characterize_families(&spec, &[Family::ParallelSfu]);
        assert!(psfu.unwrap_err().to_string().contains("no analytical model"));
    }

    #[test]
    fn predict_requires_a_characterized_family() {
        let model = AnalyticalModel::from_table(
            gpgpu_spec::presets::tesla_k40c(),
            LatencyTable::new("kepler"),
        );
        let e = model.predict(Family::L1, 20.0, &probe_message()).unwrap_err();
        assert!(e.to_string().contains("not in the characterized table"), "{e}");
    }
}
