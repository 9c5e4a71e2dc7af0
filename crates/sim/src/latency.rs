//! Extracted per-op latency tables and per-family contention models — the
//! data the analytical fast path ([`crate::tuning::EngineMode::Analytical`])
//! predicts from.
//!
//! A [`LatencyTable`] is *measured, not authored*: the characterization
//! suite in `gpgpu-covert::analytic` runs short cycle-engine probes (the
//! same way the Wong-style microbench recovers cache geometry) and records
//! two kinds of facts here:
//!
//! * **per-op latencies** ([`OpClass`]): steady-state cycles for one
//!   contention-sensitive operation, idle and contended variants as
//!   separate classes (`sfu_idle` / `sfu_contended`, ...);
//! * **per-family affine cost models** ([`FamilyModel`]): for each covert
//!   channel family, total transmission cycles as
//!   `fixed + bits * (base + slope * knob)` where `knob` is the family's
//!   symbol-time control (prime+probe iterations, pacing window, ...),
//!   fitted from probe transmissions at the recorded `knob_lo..knob_hi`
//!   range.
//!
//! The textual form round-trips exactly ([`LatencyTable::to_spec`] /
//! [`LatencyTable::from_spec`]) — floats are printed in Rust's
//! shortest-round-trip representation — so a table dumped by the CLI's
//! `characterize` subcommand reloads bit-identically.

use gpgpu_spec::Family;
use std::collections::BTreeMap;
use std::fmt;

/// One contention-sensitive operation class with a measured steady-state
/// latency. Idle and contended variants are distinct classes so a table row
/// is always a single number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// Constant load hitting the per-SM L1 constant cache.
    L1Hit,
    /// Constant load missing L1 and hitting the shared L2 constant cache.
    L2Hit,
    /// SFU op issued with no co-resident contender on the warp scheduler.
    SfuIdle,
    /// SFU op under saturating same-scheduler contention.
    SfuContended,
    /// Atomic read-modify-write round trip with no contender.
    AtomicIdle,
    /// Atomic read-modify-write under same-address contention.
    AtomicContended,
}

impl OpClass {
    /// Every operation class, in table order.
    pub const ALL: [OpClass; 6] = [
        OpClass::L1Hit,
        OpClass::L2Hit,
        OpClass::SfuIdle,
        OpClass::SfuContended,
        OpClass::AtomicIdle,
        OpClass::AtomicContended,
    ];

    /// The spec label of this class (`l1_hit`, `sfu_contended`, ...).
    pub fn label(self) -> &'static str {
        match self {
            OpClass::L1Hit => "l1_hit",
            OpClass::L2Hit => "l2_hit",
            OpClass::SfuIdle => "sfu_idle",
            OpClass::SfuContended => "sfu_contended",
            OpClass::AtomicIdle => "atomic_idle",
            OpClass::AtomicContended => "atomic_contended",
        }
    }

    /// Parses a spec label back into its class.
    pub fn from_label(label: &str) -> Option<OpClass> {
        OpClass::ALL.into_iter().find(|c| c.label() == label)
    }
}

/// Affine transmission-cost model for one covert channel family:
/// `cycles(bits, knob) = fixed + bits * (base + slope * knob)`.
///
/// The knob is whatever the family uses to trade symbol time for error
/// rate — prime+probe iterations for the cache/SFU/atomic families, the
/// pacing window for NVLink, nothing (slope 0) for the synchronized
/// channel. `knob_lo`/`knob_hi` record the range the fit observed, so a
/// consumer can tell interpolation from extrapolation.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyModel {
    /// The channel family this model predicts.
    pub family: Family,
    /// Name of the symbol-time knob the slope applies to.
    pub knob: String,
    /// Per-message fixed cycles (handshake, calibration, final drain).
    pub fixed: f64,
    /// Per-bit cycles at knob = 0 (launch overhead, decode, epilogue).
    pub base: f64,
    /// Per-bit cycles added per knob unit.
    pub slope: f64,
    /// Smallest knob value the fit observed.
    pub knob_lo: f64,
    /// Largest knob value the fit observed.
    pub knob_hi: f64,
    /// Saturation probability of a 1-bit decode failure as the knob
    /// starves (0 for jitter-free families — they never miss the overlap).
    pub err_sat: f64,
    /// Knob value below which 1-bit failures saturate at [`err_sat`]: the
    /// failure probability falls off as `(err_knee / knob)^2` above it —
    /// quadratic because *both* colluding launches draw independent uniform
    /// jitter, so the miss region is the corner of a square.
    ///
    /// [`err_sat`]: FamilyModel::err_sat
    pub err_knee: f64,
}

impl FamilyModel {
    /// Predicted total transmission cycles for `bits` message bits at the
    /// given knob setting.
    pub fn cycles(&self, bits: usize, knob: f64) -> f64 {
        self.fixed + bits as f64 * self.cycles_per_bit(knob)
    }

    /// Predicted cycles per bit at the given knob setting.
    pub fn cycles_per_bit(&self, knob: f64) -> f64 {
        self.base + self.slope * knob
    }

    /// Predicted probability that a transmitted 1-bit decodes as 0 at the
    /// given knob setting (0-bits never err: an idle resource cannot fake
    /// contention). Monotone non-increasing in the knob.
    pub fn one_bit_failure(&self, knob: f64) -> f64 {
        if self.err_sat <= 0.0 || self.err_knee <= 0.0 {
            return 0.0;
        }
        if knob <= self.err_knee {
            return self.err_sat;
        }
        self.err_sat * (self.err_knee / knob).powi(2)
    }
}

/// Why a [`LatencyTable::from_spec`] parse failed, pointing at the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyTableError {
    /// 1-based line number of the offending line (0 for a missing header).
    pub line: usize,
    /// Human-readable description of the problem.
    pub reason: String,
}

impl fmt::Display for LatencyTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "latency table line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for LatencyTableError {}

const HEADER: &str = "gpgpu-latency-table v1";

/// A characterized device: per-op latencies plus per-family cost models,
/// with an exactly round-tripping textual form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyTable {
    /// Device preset label the table was extracted from.
    pub device: String,
    ops: BTreeMap<OpClass, f64>,
    /// Keyed by [`Family::label`], so rows serialize in label order.
    families: BTreeMap<&'static str, FamilyModel>,
}

impl LatencyTable {
    /// An empty table for the named device preset.
    pub fn new(device: impl Into<String>) -> Self {
        LatencyTable { device: device.into(), ops: BTreeMap::new(), families: BTreeMap::new() }
    }

    /// Records (or overwrites) a per-op latency.
    pub fn set_op(&mut self, class: OpClass, cycles: f64) {
        self.ops.insert(class, cycles);
    }

    /// The recorded latency for `class`, if characterized.
    pub fn op(&self, class: OpClass) -> Option<f64> {
        self.ops.get(&class).copied()
    }

    /// Records (or overwrites) a family model, keyed by its family.
    pub fn set_family(&mut self, model: FamilyModel) {
        self.families.insert(model.family.label(), model);
    }

    /// The recorded model for `family`, if characterized.
    pub fn family(&self, family: Family) -> Option<&FamilyModel> {
        self.families.get(family.label())
    }

    /// All recorded `(class, cycles)` rows, in table order.
    pub fn ops(&self) -> impl Iterator<Item = (OpClass, f64)> + '_ {
        self.ops.iter().map(|(&c, &v)| (c, v))
    }

    /// All recorded family models, in label order.
    pub fn families(&self) -> impl Iterator<Item = &FamilyModel> {
        self.families.values()
    }

    /// Serializes the table. Floats use Rust's shortest round-trip
    /// representation, so `from_spec(to_spec(t)) == t` exactly.
    pub fn to_spec(&self) -> String {
        let mut out = format!("{HEADER} device={}\n", self.device);
        for (class, cycles) in self.ops() {
            out.push_str(&format!("op {} {cycles}\n", class.label()));
        }
        for m in self.families() {
            out.push_str(&format!(
                "family {} knob={} fixed={} base={} slope={} lo={} hi={} esat={} eknee={}\n",
                m.family,
                m.knob,
                m.fixed,
                m.base,
                m.slope,
                m.knob_lo,
                m.knob_hi,
                m.err_sat,
                m.err_knee
            ));
        }
        out
    }

    /// Parses a table serialized by [`LatencyTable::to_spec`].
    ///
    /// # Errors
    ///
    /// [`LatencyTableError`] naming the offending line: bad header, unknown
    /// op class or family, malformed number, or an unrecognized row kind.
    pub fn from_spec(text: &str) -> Result<Self, LatencyTableError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or(LatencyTableError { line: 0, reason: "empty input (missing header)".into() })?;
        let device = header
            .strip_prefix(HEADER)
            .and_then(|r| r.trim().strip_prefix("device="))
            .ok_or_else(|| LatencyTableError {
                line: 1,
                reason: format!("expected `{HEADER} device=<name>`, found `{header}`"),
            })?;
        let mut table = LatencyTable::new(device);
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let err = |reason: String| LatencyTableError { line: line_no, reason };
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("op") => {
                    let label = parts.next().ok_or_else(|| err("op row missing class".into()))?;
                    let class = OpClass::from_label(label)
                        .ok_or_else(|| err(format!("unknown op class `{label}`")))?;
                    let value = parts.next().ok_or_else(|| err("op row missing value".into()))?;
                    let cycles = value
                        .parse::<f64>()
                        .map_err(|_| err(format!("bad op latency `{value}`")))?;
                    table.set_op(class, cycles);
                }
                Some("family") => {
                    let label =
                        parts.next().ok_or_else(|| err("family row missing label".into()))?;
                    let family = label.parse::<Family>().map_err(|e| err(e.to_string()))?;
                    let mut model = FamilyModel {
                        family,
                        knob: String::new(),
                        fixed: 0.0,
                        base: 0.0,
                        slope: 0.0,
                        knob_lo: 0.0,
                        knob_hi: 0.0,
                        err_sat: 0.0,
                        err_knee: 0.0,
                    };
                    for field in parts {
                        let (key, value) = field
                            .split_once('=')
                            .ok_or_else(|| err(format!("bad family field `{field}`")))?;
                        if key == "knob" {
                            model.knob = value.to_string();
                            continue;
                        }
                        let v = value
                            .parse::<f64>()
                            .map_err(|_| err(format!("bad family value `{field}`")))?;
                        match key {
                            "fixed" => model.fixed = v,
                            "base" => model.base = v,
                            "slope" => model.slope = v,
                            "lo" => model.knob_lo = v,
                            "hi" => model.knob_hi = v,
                            "esat" => model.err_sat = v,
                            "eknee" => model.err_knee = v,
                            other => return Err(err(format!("unknown family field `{other}`"))),
                        }
                    }
                    table.set_family(model);
                }
                Some(other) => return Err(err(format!("unknown row kind `{other}`"))),
                None => {}
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> LatencyTable {
        let mut t = LatencyTable::new("kepler");
        t.set_op(OpClass::L1Hit, 49.0);
        t.set_op(OpClass::SfuContended, 30.25);
        t.set_family(FamilyModel {
            family: Family::L1,
            knob: "iterations".into(),
            fixed: 0.0,
            base: 8437.5,
            slope: 1568.0625,
            knob_lo: 2.0,
            knob_hi: 16.0,
            err_sat: 0.625,
            err_knee: 3.5,
        });
        t
    }

    #[test]
    fn spec_round_trips_exactly() {
        let t = sample_table();
        let text = t.to_spec();
        assert_eq!(LatencyTable::from_spec(&text).unwrap(), t);
        // Shortest-round-trip floats survive a second trip too.
        assert_eq!(
            LatencyTable::from_spec(&LatencyTable::from_spec(&text).unwrap().to_spec()),
            Ok(t)
        );
    }

    #[test]
    fn op_labels_round_trip() {
        for class in OpClass::ALL {
            assert_eq!(OpClass::from_label(class.label()), Some(class));
        }
        assert_eq!(OpClass::from_label("warp9"), None);
    }

    #[test]
    fn family_model_is_affine() {
        let m = sample_table().family(Family::L1).unwrap().clone();
        let cpb = m.cycles_per_bit(4.0);
        assert!((cpb - (8437.5 + 4.0 * 1568.0625)).abs() < 1e-9);
        assert!((m.cycles(8, 4.0) - 8.0 * cpb).abs() < 1e-9);
    }

    #[test]
    fn one_bit_failure_saturates_then_falls_quadratically() {
        let m = sample_table().family(Family::L1).unwrap().clone();
        assert_eq!(m.one_bit_failure(1.0), 0.625, "below the knee: saturated");
        assert_eq!(m.one_bit_failure(3.5), 0.625, "at the knee: saturated");
        let p7 = m.one_bit_failure(7.0);
        assert!((p7 - 0.625 * 0.25).abs() < 1e-12, "double the knee: quarter, got {p7}");
        // Monotone non-increasing in the knob.
        let probes: Vec<f64> = (1..40).map(|n| m.one_bit_failure(n as f64)).collect();
        assert!(probes.windows(2).all(|w| w[1] <= w[0] + 1e-15));
        // Jitter-free families never fail.
        let clean = FamilyModel { err_sat: 0.0, err_knee: 0.0, ..m };
        assert_eq!(clean.one_bit_failure(1.0), 0.0);
    }

    #[test]
    fn parse_errors_point_at_the_line() {
        let e = LatencyTable::from_spec("nonsense").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("expected"), "{e}");
        let text = format!("{HEADER} device=kepler\nop warp9 12\n");
        let e = LatencyTable::from_spec(&text).unwrap_err();
        assert_eq!((e.line, e.reason.contains("unknown op class")), (2, true));
        let text = format!("{HEADER} device=kepler\nfamily l1 base=x\n");
        assert!(LatencyTable::from_spec(&text).unwrap_err().reason.contains("bad family value"));
        let text = format!("{HEADER} device=kepler\nop l1_hit 49\nfamily l3 knob=iterations\n");
        let e = LatencyTable::from_spec(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.reason.contains("unknown channel family `l3`"), "{e}");
        let text = format!("{HEADER} device=kepler\nrow l1\n");
        assert!(LatencyTable::from_spec(&text).unwrap_err().reason.contains("unknown row kind"));
        assert_eq!(LatencyTable::from_spec("").unwrap_err().line, 0);
    }

    #[test]
    fn missing_rows_read_as_none() {
        let t = LatencyTable::new("kepler");
        assert_eq!(t.op(OpClass::L1Hit), None);
        assert!(t.family(Family::L1).is_none());
        assert_eq!(t.ops().count(), 0);
    }
}
