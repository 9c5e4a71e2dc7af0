//! Composable defense specifications: the paper's Section-9 mitigations as
//! first-class, serializable spec objects.
//!
//! The mitigation layer historically modelled one defense at a time (an enum
//! lowered straight onto one `DeviceTuning`), which made two things
//! impossible: *stacking* defenses (partitioning **and** clock fuzzing) and
//! naming a defense on the command line the way `--topology` names a fabric.
//! A [`DefenseSpec`] fixes both. It is a validated, canonically-ordered set
//! of [`DefenseComponent`]s with a compact textual grammar (the CLI's
//! `--defense` argument) that round-trips exactly:
//!
//! ```text
//! partition=2,randsched=0xd1ce,fuzz=4096
//! ```
//!
//! Each key names one component; `none` denotes the empty (baseline)
//! defense. At most one component of each kind may appear — two different
//! partition counts in one defense is a configuration contradiction, not a
//! composition — and [`DefenseSpec::compose`] enforces the same rule when
//! combining whole specs, so "partitioning + fuzzing" composes while
//! "2-way partitioning + 4-way partitioning" is a typed error.
//!
//! Lowering onto the simulator's `DeviceTuning` lives in `gpgpu-sim`
//! (`DeviceTuning::from_defense`), which merges the per-component tunings
//! with the same conflict checking.
//!
//! # Example
//!
//! ```
//! use gpgpu_spec::defense::{DefenseComponent, DefenseSpec};
//!
//! let d = DefenseSpec::from_spec("fuzz=4096,partition=2").unwrap();
//! assert_eq!(d.to_spec(), "partition=2,fuzz=4096"); // canonical order
//! assert_eq!(DefenseSpec::from_spec(&d.to_spec()).unwrap(), d);
//! assert_eq!(d.components().len(), 2);
//! assert!(DefenseSpec::none().is_none());
//! ```

use crate::codec;
use crate::error::SpecError;
use std::fmt;

/// One configurable defense mechanism, parameterized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseComponent {
    /// Static cache partitioning into `partitions` per-kernel set regions
    /// (spatial isolation; `partitions >= 2` to have any effect).
    CachePartitioning {
        /// Number of per-kernel cache regions.
        partitions: u32,
    },
    /// Keyed-hash warp -> scheduler assignment (scheduler entropy).
    RandomizedWarpScheduling {
        /// Hash seed (rotates per boot on a real implementation).
        seed: u64,
    },
    /// Quantized `clock()` reads (TimeWarp-style measurement entropy);
    /// `granularity >= 2`, since a 1-cycle quantum is an exact clock.
    ClockFuzzing {
        /// Quantum in cycles.
        granularity: u64,
    },
}

impl DefenseComponent {
    /// The grammar key this component serializes under.
    pub fn key(self) -> &'static str {
        match self {
            DefenseComponent::CachePartitioning { .. } => "partition",
            DefenseComponent::RandomizedWarpScheduling { .. } => "randsched",
            DefenseComponent::ClockFuzzing { .. } => "fuzz",
        }
    }

    /// Canonical ordering index (the order components render in).
    fn rank(self) -> u8 {
        match self {
            DefenseComponent::CachePartitioning { .. } => 0,
            DefenseComponent::RandomizedWarpScheduling { .. } => 1,
            DefenseComponent::ClockFuzzing { .. } => 2,
        }
    }

    /// Whether `other` is the same *kind* of defense (regardless of its
    /// parameter) — the unit of the duplicate/conflict rule.
    pub fn same_kind(self, other: DefenseComponent) -> bool {
        self.rank() == other.rank()
    }

    fn validate(self) -> Result<(), SpecError> {
        let invalid = |reason: String| Err(SpecError::InvalidDefense { reason });
        match self {
            DefenseComponent::CachePartitioning { partitions } if partitions < 2 => {
                invalid(format!("partition={partitions} is a no-op; need at least 2 regions"))
            }
            DefenseComponent::ClockFuzzing { granularity } if granularity < 2 => invalid(format!(
                "fuzz={granularity} is an exact clock; need a quantum of at least 2"
            )),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for DefenseComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseComponent::CachePartitioning { partitions } => {
                write!(f, "partition={partitions}")
            }
            DefenseComponent::RandomizedWarpScheduling { seed } => {
                write!(f, "randsched={seed:#x}")
            }
            DefenseComponent::ClockFuzzing { granularity } => write!(f, "fuzz={granularity}"),
        }
    }
}

/// A validated, canonically-ordered combination of defenses. The empty spec
/// ([`DefenseSpec::none`]) is the undefended baseline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DefenseSpec {
    /// The components, sorted canonically, at most one per kind.
    components: Vec<DefenseComponent>,
}

impl Default for DefenseSpec {
    fn default() -> Self {
        DefenseSpec::none()
    }
}

impl DefenseSpec {
    /// The empty defense (undefended baseline; spec string `none`).
    pub fn none() -> Self {
        DefenseSpec { components: Vec::new() }
    }

    /// Builds and validates a defense from components: each component's
    /// parameter range is checked and duplicate kinds are rejected.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidDefense`] for an out-of-range parameter or two
    /// components of the same kind.
    pub fn new(components: impl IntoIterator<Item = DefenseComponent>) -> Result<Self, SpecError> {
        let mut spec = DefenseSpec::none();
        for c in components {
            spec = spec.with_component(c)?;
        }
        Ok(spec)
    }

    /// A single-component defense.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidDefense`] for an out-of-range parameter.
    pub fn single(component: DefenseComponent) -> Result<Self, SpecError> {
        DefenseSpec::new([component])
    }

    /// Adds one component, keeping canonical order.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidDefense`] for an out-of-range parameter, or when
    /// a component of the same kind is already present with a *different*
    /// parameter (identical components dedupe silently).
    pub fn with_component(mut self, component: DefenseComponent) -> Result<Self, SpecError> {
        component.validate()?;
        if let Some(existing) = self.components.iter().find(|c| c.same_kind(component)) {
            if *existing == component {
                return Ok(self);
            }
            return Err(SpecError::InvalidDefense {
                reason: format!(
                    "conflicting `{}` components: `{existing}` vs `{component}`",
                    component.key()
                ),
            });
        }
        self.components.push(component);
        self.components.sort_by_key(|c| c.rank());
        Ok(self)
    }

    /// Composes two defenses into one (set union with conflict checking):
    /// the formal model of "deploy both".
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidDefense`] when the two specs configure the same
    /// kind of defense with different parameters.
    pub fn compose(&self, other: &DefenseSpec) -> Result<DefenseSpec, SpecError> {
        let mut out = self.clone();
        for &c in &other.components {
            out = out.with_component(c)?;
        }
        Ok(out)
    }

    /// The components in canonical order.
    pub fn components(&self) -> &[DefenseComponent] {
        &self.components
    }

    /// Whether this is the empty (baseline) defense.
    pub fn is_none(&self) -> bool {
        self.components.is_empty()
    }

    /// Parses the textual grammar (the CLI's `--defense` argument):
    /// comma-separated `partition=<n>` / `randsched=<seed>` / `fuzz=<n>`
    /// keys (seed accepts `0x` hex or decimal), or the literal `none`.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidDefense`] for syntax errors, unknown keys,
    /// unparsable values, out-of-range parameters, and duplicate kinds.
    pub fn from_spec(spec: &str) -> Result<Self, SpecError> {
        let invalid = |reason: String| SpecError::InvalidDefense { reason };
        let trimmed = spec.trim();
        if trimmed == "none" {
            return Ok(DefenseSpec::none());
        }
        if trimmed.is_empty() {
            return Err(invalid("empty defense spec (use `none` for no defense)".into()));
        }
        let mut out = DefenseSpec::none();
        for (key, value) in codec::pairs(trimmed.split(','), &[]).map_err(invalid)? {
            let component = match key {
                "partition" => DefenseComponent::CachePartitioning {
                    partitions: codec::field(key, value).map_err(invalid)?,
                },
                "randsched" => DefenseComponent::RandomizedWarpScheduling {
                    seed: codec::u64_field(key, value).map_err(invalid)?,
                },
                "fuzz" => DefenseComponent::ClockFuzzing {
                    granularity: codec::field(key, value).map_err(invalid)?,
                },
                other => return Err(invalid(format!("unknown defense key `{other}`"))),
            };
            out = out.with_component(component)?;
        }
        Ok(out)
    }

    /// Renders the defense in the [`DefenseSpec::from_spec`] grammar in
    /// canonical order; `from_spec(&d.to_spec())` round-trips exactly.
    pub fn to_spec(&self) -> String {
        if self.components.is_empty() {
            return "none".to_string();
        }
        self.components.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
    }
}

impl fmt::Display for DefenseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_round_trips() {
        let d = DefenseSpec::none();
        assert!(d.is_none());
        assert_eq!(d.to_spec(), "none");
        assert_eq!(DefenseSpec::from_spec("none").unwrap(), d);
        assert_eq!(DefenseSpec::default(), d);
    }

    #[test]
    fn canonical_order_is_independent_of_input_order() {
        let a = DefenseSpec::from_spec("fuzz=4096,partition=2,randsched=0xd1ce").unwrap();
        let b = DefenseSpec::from_spec("partition=2,randsched=53710,fuzz=4096").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_spec(), "partition=2,randsched=0xd1ce,fuzz=4096");
        assert_eq!(DefenseSpec::from_spec(&a.to_spec()).unwrap(), a);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "partition",
            "partition=",
            "partition=one",
            "partition=1", // a 1-region "partition" is a no-op
            "partition=0",
            "fuzz=1", // an exact clock is no defense
            "fuzz=0",
            "randsched=0xzz",
            "shield=9",
            "partition=2,partition=2", // doubled key, even if identical
            "partition=2,partition=4",
            "nonefuzz=2",
        ] {
            assert!(DefenseSpec::from_spec(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn compose_unions_and_conflicts() {
        let p = DefenseSpec::from_spec("partition=2").unwrap();
        let f = DefenseSpec::from_spec("fuzz=4096").unwrap();
        let both = p.compose(&f).unwrap();
        assert_eq!(both.to_spec(), "partition=2,fuzz=4096");
        // Identical components dedupe; conflicting parameters error.
        assert_eq!(both.compose(&p).unwrap(), both);
        let p4 = DefenseSpec::from_spec("partition=4").unwrap();
        let e = both.compose(&p4).unwrap_err();
        assert!(matches!(e, SpecError::InvalidDefense { .. }), "{e:?}");
        assert!(e.to_string().contains("partition"), "{e}");
    }

    #[test]
    fn seed_accepts_hex_and_decimal() {
        let hex = DefenseSpec::from_spec("randsched=0xD1CE").unwrap();
        let dec = DefenseSpec::from_spec("randsched=53710").unwrap();
        assert_eq!(hex, dec);
        assert_eq!(hex.to_spec(), "randsched=0xd1ce");
    }

    #[test]
    fn component_accessors() {
        let d = DefenseSpec::from_spec("partition=3,fuzz=512").unwrap();
        assert_eq!(d.components().len(), 2);
        assert_eq!(d.components()[0].key(), "partition");
        assert!(!d.is_none());
        assert!(d.components()[0].same_kind(DefenseComponent::CachePartitioning { partitions: 9 }));
        assert!(!d.components()[0].same_kind(DefenseComponent::ClockFuzzing { granularity: 9 }));
    }
}
