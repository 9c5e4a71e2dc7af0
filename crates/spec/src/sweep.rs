//! Sweep-request specifications: a whole characterization grid as one
//! validated, serializable spec object.
//!
//! The paper's methodology is built on repeated sweeps — Figure-5 error-rate
//! grids, Table-2/3 characterizations — and every axis of those sweeps
//! already has a canonical textual grammar in this workspace (`--defense`
//! specs, `--topology` specs, fault-plan specs). A [`SweepRequest`] names
//! the *cross product*: channel family × device × fault plan × defense ×
//! symbol time, plus the message shape, as one string the sweep service
//! (`gpgpu-serve`) can shard into cells and memoize. Like the other
//! grammars it round-trips exactly:
//!
//! ```text
//! device=kepler;family=l1+atomic;iters=1+4+20;bits=16;seed=0x5eed;faults=none;defense=none|partition=2;topology=none
//! ```
//!
//! Top-level fields are `;`-separated because axis *values* (defense,
//! topology and fault sub-specs) contain commas; multi-valued axes whose
//! values are comma-free (`device`, `family`, `iters`) separate values with
//! `+`, and the sub-spec axes (`faults`, `defense`) separate values with
//! `|`. Every field is optional and defaults to the smallest sensible
//! sweep; `none` denotes the empty fault plan / defense / topology.
//!
//! The family axis takes the five [`Family::MATRIX`] rows, nothing else.
//!
//! Fault sub-specs are carried *opaquely* at this layer (their parser lives
//! above, in `gpgpu-sim`); defense and topology sub-specs are validated and
//! canonicalized here. The service layer canonicalizes fault strings when
//! it builds cache keys, so two spellings of the same plan still dedupe.
//!
//! # Example
//!
//! ```
//! use gpgpu_spec::sweep::SweepRequest;
//!
//! let r = SweepRequest::from_spec("family=l1+atomic;iters=4+1").unwrap();
//! assert_eq!(SweepRequest::from_spec(&r.to_spec()).unwrap(), r);
//! assert_eq!(r.cells().len(), 4); // 2 families x 2 symbol times
//! ```

use crate::codec;
use crate::defense::DefenseSpec;
use crate::error::SpecError;
use crate::family::Family;
use crate::presets;
use crate::topology::TopologySpec;
use std::fmt;

/// A validated sweep grid: the cross product of devices × families × fault
/// plans × defenses × symbol times, over one pseudo-random message shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Device aliases (canonicalized through [`presets::by_name`]), the
    /// architecture axis. At least one; duplicates rejected.
    pub devices: Vec<String>,
    /// Channel families, each one of [`Family::MATRIX`]. At least one;
    /// duplicates rejected.
    pub families: Vec<Family>,
    /// Per-bit iteration counts — the Figure-5 symbol-time axis. At least
    /// one; all positive; duplicates rejected.
    pub iterations: Vec<u64>,
    /// Message length in bits (one pseudo-random message per request).
    pub bits: u32,
    /// Seed for the pseudo-random message.
    pub seed: u64,
    /// Fault-plan sub-specs, the noise axis; `"none"` is the clean run.
    /// Opaque at this layer (validated by the service against the
    /// `gpgpu-sim` fault grammar). Duplicates rejected.
    pub faults: Vec<String>,
    /// Defense sub-specs, canonicalized through [`DefenseSpec`]; `"none"`
    /// is the undefended baseline. Duplicates (after canonicalization)
    /// rejected.
    pub defenses: Vec<String>,
    /// Topology sub-spec for nvlink cells, canonicalized through
    /// [`TopologySpec`]; `"none"` means single-GPU (nvlink cells then fail
    /// with a typed per-cell error rather than aborting the sweep).
    pub topology: String,
}

/// One point of a [`SweepRequest`] grid, in enumeration order. The cell
/// carries fully-resolved axis values; [`SweepCell::key`] renders the
/// canonical identity string the result cache is addressed by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Canonical device alias.
    pub device: String,
    /// Channel family.
    pub family: Family,
    /// Per-bit iteration count (symbol-time knob).
    pub iterations: u64,
    /// Message length in bits.
    pub bits: u32,
    /// Message seed.
    pub seed: u64,
    /// Fault-plan sub-spec (`"none"` = clean).
    pub faults: String,
    /// Canonical defense sub-spec (`"none"` = baseline).
    pub defense: String,
    /// Canonical topology sub-spec (`"none"` = single GPU).
    pub topology: String,
}

impl SweepCell {
    /// The canonical identity string of this cell: every axis value in
    /// fixed order. Distinct cells render distinct keys because each
    /// component grammar round-trips exactly (the `prop_serve` injectivity
    /// property), which is what makes the string safe to content-address.
    pub fn key(&self) -> String {
        format!(
            "device={};family={};iters={};bits={};seed={:#x};faults={};defense={};topology={}",
            self.device,
            self.family,
            self.iterations,
            self.bits,
            self.seed,
            self.faults,
            self.defense,
            self.topology,
        )
    }
}

impl fmt::Display for SweepCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

/// Default symbol-time axis (the paper's error-free operating point).
const DEFAULT_ITERATIONS: u64 = 20;
/// Default message length.
const DEFAULT_BITS: u32 = 16;
/// Default message seed (matches the harness's seed prefix).
const DEFAULT_SEED: u64 = 0x5EED;

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            devices: vec!["kepler".to_string()],
            families: vec![Family::L1],
            iterations: vec![DEFAULT_ITERATIONS],
            bits: DEFAULT_BITS,
            seed: DEFAULT_SEED,
            faults: vec!["none".to_string()],
            defenses: vec!["none".to_string()],
            topology: "none".to_string(),
        }
    }
}

impl SweepRequest {
    /// Validates axis contents: non-empty axes, known device aliases and
    /// family labels, positive iteration counts and bits, parseable defense
    /// and topology sub-specs, and no duplicate axis values (a doubled axis
    /// value is a typo, not intent — and it would alias cache cells).
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidSweep`] naming the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let invalid = |reason: String| Err(SpecError::InvalidSweep { reason });
        if self.devices.is_empty() {
            return invalid("device axis is empty".into());
        }
        if self.families.is_empty() {
            return invalid("family axis is empty".into());
        }
        if self.iterations.is_empty() {
            return invalid("iters axis is empty".into());
        }
        if self.faults.is_empty() {
            return invalid("faults axis is empty".into());
        }
        if self.defenses.is_empty() {
            return invalid("defense axis is empty".into());
        }
        if self.bits == 0 {
            return invalid("bits must be positive".into());
        }
        for d in &self.devices {
            if presets::by_name(d).is_none() {
                return invalid(format!("unknown device alias `{d}`"));
            }
        }
        if let Some(f) = self.families.iter().find(|f| !Family::MATRIX.contains(f)) {
            return Err(unknown_family(f.label()));
        }
        for &it in &self.iterations {
            if it == 0 {
                return invalid("iters values must be positive".into());
            }
        }
        for f in &self.faults {
            if f.trim().is_empty() {
                return invalid("empty fault sub-spec (use `none`)".into());
            }
        }
        for d in &self.defenses {
            if d != "none" {
                DefenseSpec::from_spec(d).map_err(|e| SpecError::InvalidSweep {
                    reason: format!("defense axis: {e}"),
                })?;
            }
        }
        if self.topology != "none" {
            TopologySpec::from_spec(&self.topology)
                .map_err(|e| SpecError::InvalidSweep { reason: format!("topology: {e}") })?;
        }
        for (name, dup) in [
            ("device", duplicate(&self.devices).cloned()),
            ("family", duplicate(&self.families).map(Family::to_string)),
            ("faults", duplicate(&self.faults).cloned()),
            ("defense", duplicate(&self.defenses).cloned()),
            ("iters", duplicate(&self.iterations).map(u64::to_string)),
        ] {
            if let Some(v) = dup {
                return invalid(format!("duplicate {name} axis value `{v}`"));
            }
        }
        Ok(())
    }

    /// Parses the textual grammar (the CLI's `--request` argument):
    /// `;`-separated `key=value` fields, every field optional. See the
    /// module docs for the axis-value separators.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidSweep`] for syntax errors, unknown keys,
    /// duplicate fields, and any [`SweepRequest::validate`] failure.
    pub fn from_spec(spec: &str) -> Result<Self, SpecError> {
        let invalid = |reason: String| SpecError::InvalidSweep { reason };
        let trimmed = spec.trim();
        if trimmed.is_empty() {
            return Err(invalid("empty sweep spec (the default grid is `default`)".into()));
        }
        let mut out = SweepRequest::default();
        if trimmed == "default" {
            return Ok(out);
        }
        for (key, value) in codec::pairs(trimmed.split(';'), &[]).map_err(invalid)? {
            match key {
                "device" => {
                    out.devices = value
                        .split('+')
                        .map(|d| canonical_device(d.trim()))
                        .collect::<Result<_, _>>()?;
                }
                "family" => {
                    out.families = value
                        .split('+')
                        .map(|f| f.trim().parse().map_err(|_| unknown_family(f.trim())))
                        .collect::<Result<_, _>>()?;
                }
                "iters" => {
                    out.iterations = value
                        .split('+')
                        .map(|v| codec::field(key, v.trim()).map_err(invalid))
                        .collect::<Result<_, _>>()?;
                }
                "bits" => out.bits = codec::field(key, value).map_err(invalid)?,
                "seed" => out.seed = codec::u64_field(key, value).map_err(invalid)?,
                "faults" => {
                    out.faults = value.split('|').map(|f| f.trim().to_string()).collect();
                }
                "defense" => {
                    out.defenses = value
                        .split('|')
                        .map(|d| canonical_defense(d.trim()))
                        .collect::<Result<_, _>>()?;
                }
                "topology" => {
                    out.topology = if value == "none" {
                        "none".to_string()
                    } else {
                        TopologySpec::from_spec(value)
                            .map_err(|e| invalid(format!("topology: {e}")))?
                            .to_spec()
                    };
                }
                other => return Err(invalid(format!("unknown sweep field `{other}`"))),
            }
        }
        out.validate()?;
        Ok(out)
    }

    /// Renders the canonical spec string: every field, fixed order, axis
    /// values in the declared order. `from_spec(to_spec(r)) == r` exactly.
    pub fn to_spec(&self) -> String {
        format!(
            "device={};family={};iters={};bits={};seed={:#x};faults={};defense={};topology={}",
            self.devices.join("+"),
            self.families.iter().map(|f| f.label()).collect::<Vec<_>>().join("+"),
            self.iterations.iter().map(u64::to_string).collect::<Vec<_>>().join("+"),
            self.bits,
            self.seed,
            self.faults.join("|"),
            self.defenses.join("|"),
            self.topology,
        )
    }

    /// Enumerates the grid in deterministic order (device-major, then
    /// family, fault plan, defense, symbol time). Distinct requests whose
    /// grids overlap enumerate the shared cells with identical
    /// [`SweepCell::key`]s — that overlap is exactly what the service's
    /// content-addressed cache dedupes.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut out = Vec::with_capacity(
            self.devices.len()
                * self.families.len()
                * self.faults.len()
                * self.defenses.len()
                * self.iterations.len(),
        );
        for device in &self.devices {
            for family in &self.families {
                for faults in &self.faults {
                    for defense in &self.defenses {
                        for &iterations in &self.iterations {
                            out.push(SweepCell {
                                device: device.clone(),
                                family: *family,
                                iterations,
                                bits: self.bits,
                                seed: self.seed,
                                faults: faults.clone(),
                                defense: defense.clone(),
                                topology: self.topology.clone(),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for SweepRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_spec())
    }
}

/// The one rejection for a family outside the sweep vocabulary
/// ([`Family::MATRIX`]), whether its label parses or not.
fn unknown_family(label: &str) -> SpecError {
    let labels: Vec<&str> = Family::MATRIX.iter().map(|f| f.label()).collect();
    SpecError::InvalidSweep {
        reason: format!("unknown family `{label}` (choose from {})", labels.join(", ")),
    }
}

/// The first value that repeats an earlier one.
fn duplicate<T: PartialEq>(values: &[T]) -> Option<&T> {
    values.iter().enumerate().find(|(i, v)| values[..*i].contains(v)).map(|(_, v)| v)
}

/// Canonicalizes a device alias: any alias [`presets::by_name`] accepts maps
/// to its primary short name, so `K40C` and `kepler` address the same cells.
fn canonical_device(alias: &str) -> Result<String, SpecError> {
    let spec = presets::by_name(alias).ok_or_else(|| SpecError::InvalidSweep {
        reason: format!("unknown device alias `{alias}`"),
    })?;
    // Map back through the spec's architecture to the canonical short alias.
    Ok(spec.architecture.label().to_string())
}

/// Canonicalizes a defense sub-spec through [`DefenseSpec`].
fn canonical_defense(spec: &str) -> Result<String, SpecError> {
    if spec == "none" {
        return Ok("none".to_string());
    }
    let d = DefenseSpec::from_spec(spec)
        .map_err(|e| SpecError::InvalidSweep { reason: format!("defense axis: {e}") })?;
    if d.is_none() {
        return Ok("none".to_string());
    }
    Ok(d.to_spec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips() {
        let r = SweepRequest::default();
        assert_eq!(SweepRequest::from_spec(&r.to_spec()).unwrap(), r);
        assert_eq!(SweepRequest::from_spec("default").unwrap(), r);
    }

    #[test]
    fn full_grid_round_trips_and_enumerates() {
        let r = SweepRequest::from_spec(
            "device=kepler+fermi;family=l1+atomic;iters=1+4+20;bits=24;seed=0x7;\
             faults=none|seed=7,intensity=0.5;defense=none|partition=2",
        )
        .unwrap();
        assert_eq!(SweepRequest::from_spec(&r.to_spec()).unwrap(), r);
        // 2 devices x 2 families x 2 faults x 2 defenses x 3 symbol times.
        assert_eq!(r.cells().len(), 48);
        let keys: std::collections::HashSet<String> =
            r.cells().iter().map(SweepCell::key).collect();
        assert_eq!(keys.len(), 48, "grid keys must be pairwise distinct");
    }

    #[test]
    fn device_aliases_canonicalize() {
        let a = SweepRequest::from_spec("device=K40C").unwrap();
        let b = SweepRequest::from_spec("device=kepler").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cells()[0].device, "kepler");
    }

    #[test]
    fn defense_axis_canonicalizes() {
        let r = SweepRequest::from_spec("defense=fuzz=4096,partition=2").unwrap();
        assert_eq!(r.defenses, vec!["partition=2,fuzz=4096".to_string()]);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "device=",
            "device=tpu",
            "family=l3",
            "iters=0",
            "iters=1+1",
            "bits=0",
            "defense=partition=1",
            "device=kepler;device=fermi",
            "family=l1+l1",
            "what=ever",
            "seed",
        ] {
            let err = SweepRequest::from_spec(bad).unwrap_err();
            assert!(
                matches!(err, SpecError::InvalidSweep { .. }),
                "`{bad}` must fail with InvalidSweep, got {err:?}"
            );
        }
    }

    #[test]
    fn families_outside_the_sweep_vocabulary_are_rejected() {
        // `sfu` is a family label, but not a sweep row: the vocabulary stays
        // the five matrix families, with one wording for every rejection.
        for (bad, label) in [("family=sfu", "sfu"), ("family=l1+l3", "l3")] {
            let err = SweepRequest::from_spec(bad).unwrap_err();
            assert_eq!(
                err,
                SpecError::InvalidSweep {
                    reason: format!(
                        "unknown family `{label}` (choose from l1, sync, parallel-sfu, atomic, \
                         nvlink)"
                    )
                }
            );
        }
        let typed = SweepRequest { families: vec![Family::Sfu], ..SweepRequest::default() };
        assert!(typed.validate().unwrap_err().to_string().contains("unknown family `sfu`"));
    }

    #[test]
    fn nvlink_needs_no_topology_at_parse_time() {
        // The service degrades nvlink cells without a topology into typed
        // per-cell errors; the request itself stays valid.
        let r = SweepRequest::from_spec("family=nvlink").unwrap();
        assert_eq!(r.topology, "none");
        let t = SweepRequest::from_spec("family=nvlink;topology=devices=kepler+kepler,link=0-1")
            .unwrap();
        assert_ne!(t.topology, "none");
        assert_eq!(SweepRequest::from_spec(&t.to_spec()).unwrap(), t);
    }
}
