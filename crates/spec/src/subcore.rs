//! Sub-core (issue-partition) descriptors.
//!
//! "Analyzing Modern NVIDIA GPU cores" documents the post-Volta SM
//! organization: each SM is split into *sub-cores*, each owning a private
//! register-file slice, a single issue slot and a private slice of the
//! functional units, with instruction dependences managed by
//! compiler-scheduled fixed-latency hints (control words) instead of a pure
//! hardware scoreboard. The three paper-era generations are the degenerate
//! case of the same decomposition: every warp scheduler is a "sub-core"
//! whose ports partition the SM pools (quadrants on Maxwell, soft-shared on
//! Fermi/Kepler) and whose dependences are scoreboarded.
//!
//! [`SubCoreSpec`] carries the per-device configuration; [`ArchDescriptor`]
//! is the per-*generation* canonical descriptor with a round-tripping
//! textual grammar (used as a content-addressable spec key, like the
//! topology/defense/sweep grammars).

use crate::arch::Architecture;
use crate::codec;
use crate::error::SpecError;
use crate::sm::SmSpec;
use std::fmt;

/// How a warp's next instruction waits for the previous one's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependenceMode {
    /// Hardware scoreboard: the warp stalls until the full pipeline depth
    /// has drained (Fermi through Maxwell).
    Scoreboard,
    /// Compiler-scheduled fixed-latency hints (Volta and later): the
    /// compiler pads dependent consumers at schedule time, so the warp's
    /// *issue* stream is serialized only by unit occupancy while the
    /// pipeline depth stays hidden behind the hints.
    FixedLatency,
}

impl DependenceMode {
    fn grammar_token(self) -> &'static str {
        match self {
            DependenceMode::Scoreboard => "scoreboard",
            DependenceMode::FixedLatency => "fixed",
        }
    }

    fn from_grammar_token(tok: &str) -> Option<Self> {
        match tok {
            "scoreboard" => Some(DependenceMode::Scoreboard),
            "fixed" => Some(DependenceMode::FixedLatency),
            _ => None,
        }
    }
}

impl fmt::Display for DependenceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.grammar_token())
    }
}

/// Per-device sub-core configuration, carried on
/// [`crate::DeviceSpec::sub_core`].
///
/// The sub-core count and issue slots mirror the scheduler fields of
/// [`SmSpec`] (one sub-core per warp scheduler); the register-file slice is
/// an equal partition of the SM file. [`SubCoreSpec::validate_against`]
/// enforces the mirror so the engine can index ports by scheduler id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubCoreSpec {
    /// Issue partitions per SM — one per warp scheduler.
    pub sub_cores: u32,
    /// Instruction issue slots per sub-core per cycle.
    pub issue_slots: u32,
    /// 32-bit registers in this sub-core's private register-file slice.
    pub registers_per_subcore: u32,
    /// Dependence-management style.
    pub dependence: DependenceMode,
}

impl SubCoreSpec {
    /// The degenerate legacy configuration for `sm`: one scoreboarded
    /// sub-core per warp scheduler, register file equally partitioned.
    /// Fermi/Kepler/Maxwell devices are all constructed through this, which
    /// is what keeps them bit-identical to the pre-sub-core engine.
    pub fn shared_issue(sm: &SmSpec) -> SubCoreSpec {
        SubCoreSpec {
            sub_cores: sm.num_warp_schedulers,
            issue_slots: sm.dispatch_per_scheduler(),
            registers_per_subcore: sm.registers / sm.num_warp_schedulers.max(1),
            dependence: DependenceMode::Scoreboard,
        }
    }

    /// Checks the sub-core decomposition mirrors `sm`'s scheduler fields.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidSubCore`] when the sub-core count differs from
    /// the warp-scheduler count, the issue slots differ from the dispatch
    /// width, or the register slices don't tile the SM register file.
    pub fn validate_against(&self, sm: &SmSpec) -> Result<(), SpecError> {
        let fail = |reason: String| Err(SpecError::InvalidSubCore { reason });
        if self.sub_cores != sm.num_warp_schedulers {
            return fail(format!(
                "sub-core count ({}) must equal the warp-scheduler count ({})",
                self.sub_cores, sm.num_warp_schedulers
            ));
        }
        if self.issue_slots != sm.dispatch_per_scheduler() {
            return fail(format!(
                "issue slots per sub-core ({}) must equal the dispatch width ({})",
                self.issue_slots,
                sm.dispatch_per_scheduler()
            ));
        }
        if self.sub_cores * self.registers_per_subcore != sm.registers {
            return fail(format!(
                "register slices ({} x {}) must tile the SM register file ({})",
                self.sub_cores, self.registers_per_subcore, sm.registers
            ));
        }
        Ok(())
    }
}

/// Canonical per-generation descriptor: the sub-core decomposition plus the
/// sectored-L1 geometry, with a round-tripping textual grammar.
///
/// # Example
///
/// ```
/// use gpgpu_spec::{ArchDescriptor, Architecture};
///
/// let d = Architecture::Ampere.descriptor();
/// assert_eq!(d.to_spec(), "arch=ampere;subcores=4;issue=1;regs=16384;dep=fixed;sector=32x4");
/// assert_eq!(ArchDescriptor::parse(&d.to_spec()).unwrap(), d);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchDescriptor {
    /// The generation this descriptor describes.
    pub arch: Architecture,
    /// Sub-core decomposition (see [`SubCoreSpec`]).
    pub sub_core: SubCoreSpec,
    /// L1 sectoring as `(sector_bytes, sectors_per_line)`; `None` when
    /// fills are whole-line (the legacy generations).
    pub l1_sector: Option<(u64, u64)>,
}

impl ArchDescriptor {
    /// Renders the canonical spec string, e.g.
    /// `arch=ampere;subcores=4;issue=1;regs=16384;dep=fixed;sector=32x4`.
    pub fn to_spec(&self) -> String {
        let sector = match self.l1_sector {
            None => "none".to_string(),
            Some((bytes, per_line)) => format!("{bytes}x{per_line}"),
        };
        format!(
            "arch={};subcores={};issue={};regs={};dep={};sector={}",
            self.arch.label(),
            self.sub_core.sub_cores,
            self.sub_core.issue_slots,
            self.sub_core.registers_per_subcore,
            self.sub_core.dependence,
            sector
        )
    }

    /// Parses a spec string produced by [`ArchDescriptor::to_spec`].
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidSubCore`] on unknown keys, missing fields,
    /// malformed numbers, or an unknown architecture label.
    pub fn parse(spec: &str) -> Result<ArchDescriptor, SpecError> {
        let invalid = |reason: String| SpecError::InvalidSubCore { reason };
        let mut arch = None;
        let mut sub_cores = None;
        let mut issue = None;
        let mut regs = None;
        let mut dep = None;
        let mut sector = None;
        for (key, value) in codec::pairs(spec.split(';'), &[]).map_err(invalid)? {
            match key {
                "arch" => {
                    arch = Some(
                        Architecture::from_label(value)
                            .ok_or_else(|| invalid(format!("unknown architecture `{value}`")))?,
                    );
                }
                "subcores" => sub_cores = Some(codec::field(key, value).map_err(invalid)?),
                "issue" => issue = Some(codec::field(key, value).map_err(invalid)?),
                "regs" => regs = Some(codec::field(key, value).map_err(invalid)?),
                "dep" => {
                    dep =
                        Some(DependenceMode::from_grammar_token(value).ok_or_else(|| {
                            invalid(format!("unknown dependence mode `{value}`"))
                        })?);
                }
                "sector" if value == "none" => sector = Some(None),
                "sector" => {
                    let (bytes, per_line) = value.split_once('x').ok_or_else(|| {
                        invalid(format!("sector `{value}` is not BYTESxCOUNT or none"))
                    })?;
                    let count = |v: &str| codec::field("sector component", v).map_err(invalid);
                    sector = Some(Some((count(bytes)?, count(per_line)?)));
                }
                _ => return Err(invalid(format!("unknown key `{key}`"))),
            }
        }
        let missing = |name: &str| invalid(format!("missing required field `{name}`"));
        Ok(ArchDescriptor {
            arch: arch.ok_or_else(|| missing("arch"))?,
            sub_core: SubCoreSpec {
                sub_cores: sub_cores.ok_or_else(|| missing("subcores"))?,
                issue_slots: issue.ok_or_else(|| missing("issue"))?,
                registers_per_subcore: regs.ok_or_else(|| missing("regs"))?,
                dependence: dep.ok_or_else(|| missing("dep"))?,
            },
            l1_sector: sector.ok_or_else(|| missing("sector"))?,
        })
    }
}

impl Architecture {
    /// The canonical sub-core descriptor of this generation, matching the
    /// [`crate::presets`] device of the same generation (asserted by a
    /// preset test).
    pub fn descriptor(self) -> ArchDescriptor {
        let (sub_cores, issue_slots, registers_per_subcore, dependence, l1_sector) = match self {
            // Fermi: 2 schedulers sharing one 32 K register file.
            Architecture::Fermi => (2, 1, 16 * 1024, DependenceMode::Scoreboard, None),
            // Kepler: 4 schedulers, dual-issue, 64 K registers.
            Architecture::Kepler => (4, 2, 16 * 1024, DependenceMode::Scoreboard, None),
            // Maxwell: 4 quadrants, dual-issue, 64 K registers.
            Architecture::Maxwell => (4, 2, 16 * 1024, DependenceMode::Scoreboard, None),
            // Ampere: 4 single-issue sub-cores with private 16 K register
            // slices, fixed-latency dependence hints, 32 B sectors in
            // 128 B L1 lines.
            Architecture::Ampere => (4, 1, 16 * 1024, DependenceMode::FixedLatency, Some((32, 4))),
        };
        ArchDescriptor {
            arch: self,
            sub_core: SubCoreSpec { sub_cores, issue_slots, registers_per_subcore, dependence },
            l1_sector,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_every_generation() {
        for arch in Architecture::ALL {
            let d = arch.descriptor();
            assert_eq!(ArchDescriptor::parse(&d.to_spec()).unwrap(), d, "{arch}");
        }
    }

    #[test]
    fn specs_are_injective_across_generations() {
        let specs: Vec<String> =
            Architecture::ALL.iter().map(|a| a.descriptor().to_spec()).collect();
        for (i, a) in specs.iter().enumerate() {
            for b in specs.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn only_ampere_departs_from_the_legacy_decomposition() {
        for arch in [Architecture::Fermi, Architecture::Kepler, Architecture::Maxwell] {
            let d = arch.descriptor();
            assert_eq!(d.sub_core.dependence, DependenceMode::Scoreboard, "{arch}");
            assert_eq!(d.l1_sector, None, "{arch}");
        }
        let a = Architecture::Ampere.descriptor();
        assert_eq!(a.sub_core.dependence, DependenceMode::FixedLatency);
        assert_eq!(a.l1_sector, Some((32, 4)));
        assert_eq!(a.sub_core.issue_slots, 1, "Ampere sub-cores are single-issue");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(ArchDescriptor::parse("").is_err());
        assert!(ArchDescriptor::parse(
            "arch=volta;subcores=4;issue=1;regs=1;dep=fixed;sector=none"
        )
        .is_err());
        assert!(
            ArchDescriptor::parse("arch=ampere;subcores=4;issue=1;regs=16384;dep=fixed").is_err(),
            "missing sector field"
        );
        assert!(ArchDescriptor::parse(
            "arch=ampere;subcores=4;issue=1;regs=16384;dep=fixed;sector=32"
        )
        .is_err());
        assert!(ArchDescriptor::parse(
            "arch=ampere;subcores=4;issue=1;regs=16384;dep=eager;sector=none"
        )
        .is_err());
        assert!(
            ArchDescriptor::parse(
                "arch=kepler;arch=ampere;subcores=4;issue=1;regs=16384;dep=fixed;sector=32x4"
            )
            .is_err(),
            "repeated key"
        );
    }

    #[test]
    fn validate_against_enforces_the_scheduler_mirror() {
        let sm = SmSpec {
            num_warp_schedulers: 4,
            dispatch_units: 4,
            pools: crate::FuPools { sp: 128, dpu: 0, sfu: 16, ldst: 16 },
            max_threads: 1536,
            max_blocks: 16,
            shared_mem_bytes: 96 * 1024,
            max_shared_mem_per_block: 48 * 1024,
            registers: 64 * 1024,
        };
        let good = SubCoreSpec {
            sub_cores: 4,
            issue_slots: 1,
            registers_per_subcore: 16 * 1024,
            dependence: DependenceMode::FixedLatency,
        };
        assert!(good.validate_against(&sm).is_ok());
        assert!(SubCoreSpec { sub_cores: 2, ..good }.validate_against(&sm).is_err());
        assert!(SubCoreSpec { issue_slots: 2, ..good }.validate_against(&sm).is_err());
        assert!(SubCoreSpec { registers_per_subcore: 8 * 1024, ..good }
            .validate_against(&sm)
            .is_err());
    }

    #[test]
    fn shared_issue_matches_legacy_descriptors() {
        let sm = SmSpec {
            num_warp_schedulers: 4,
            dispatch_units: 8,
            pools: crate::FuPools { sp: 192, dpu: 64, sfu: 32, ldst: 32 },
            max_threads: 2048,
            max_blocks: 16,
            shared_mem_bytes: 48 * 1024,
            max_shared_mem_per_block: 48 * 1024,
            registers: 64 * 1024,
        };
        let sc = SubCoreSpec::shared_issue(&sm);
        assert_eq!(sc, Architecture::Kepler.descriptor().sub_core);
        assert!(sc.validate_against(&sm).is_ok());
    }
}
