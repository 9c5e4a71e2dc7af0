//! Multi-GPU topology specifications: N devices joined by NVLink-style
//! point-to-point links.
//!
//! The paper's channels all live inside one GPU, but the same
//! contention-measurement methodology extends to inter-GPU interconnects
//! (NVBleed builds covert channels on NVLink between peer GPUs). This module
//! describes *what the fabric looks like* — which devices exist and how they
//! are wired — while `gpgpu-sim`'s `Topology` executes transfers against it.
//!
//! A topology is serializable to a compact spec string (the CLI's
//! `--topology` argument):
//!
//! ```text
//! devices=kepler+kepler,link=0-1:lat=40:slot=4:lanes=2
//! ```
//!
//! `devices` lists preset aliases (resolved via [`crate::presets::by_name`]
//! and stored canonically as `fermi`/`kepler`/`maxwell`); each `link` key
//! adds one bidirectional link `A-B` with optional per-link timing fields.
//! [`TopologySpec::from_spec`] and [`TopologySpec::to_spec`] round-trip
//! exactly.
//!
//! # Example
//!
//! ```
//! use gpgpu_spec::topology::TopologySpec;
//!
//! let t = TopologySpec::dual("kepler").unwrap();
//! assert_eq!(t.devices.len(), 2);
//! assert_eq!(TopologySpec::from_spec(&t.to_spec()).unwrap(), t);
//! ```

use crate::codec;
use crate::device::DeviceSpec;
use crate::error::SpecError;
use crate::presets;

/// Default one-way link propagation latency in device cycles.
pub const DEFAULT_LINK_LATENCY: u64 = 40;

/// Default cycles one flit occupies a lane slot.
pub const DEFAULT_SLOT_CYCLES: u64 = 4;

/// Default parallel lanes (sub-links) per link.
pub const DEFAULT_LINK_LANES: u32 = 2;

/// Bytes carried per link flit (one lane slot moves one flit).
pub const FLIT_BYTES: u64 = 32;

/// One bidirectional NVLink-style link joining two devices.
///
/// Timing model: a transfer of `n` flits waits for a free lane (round-robin
/// slot arbitration in `gpgpu-sim`), occupies it for `n * slot_cycles`
/// cycles, and is delivered `latency_cycles` after its last slot (twice that
/// for request/response round trips such as remote atomics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// First endpoint (device index into [`TopologySpec::devices`]).
    pub a: u32,
    /// Second endpoint (device index).
    pub b: u32,
    /// One-way propagation latency in cycles (>= 1).
    pub latency_cycles: u64,
    /// Cycles per flit slot (>= 1) — the reciprocal link bandwidth.
    pub slot_cycles: u64,
    /// Parallel slot lanes (>= 1) — peak concurrency of the link.
    pub lanes: u32,
}

impl LinkSpec {
    /// A link between devices `a` and `b` with default timing.
    pub fn between(a: u32, b: u32) -> Self {
        LinkSpec {
            a,
            b,
            latency_cycles: DEFAULT_LINK_LATENCY,
            slot_cycles: DEFAULT_SLOT_CYCLES,
            lanes: DEFAULT_LINK_LANES,
        }
    }

    /// Sets the one-way propagation latency.
    pub fn with_latency(mut self, cycles: u64) -> Self {
        self.latency_cycles = cycles;
        self
    }

    /// Sets the cycles-per-flit slot time.
    pub fn with_slot_cycles(mut self, cycles: u64) -> Self {
        self.slot_cycles = cycles;
        self
    }

    /// Sets the lane count.
    pub fn with_lanes(mut self, lanes: u32) -> Self {
        self.lanes = lanes;
        self
    }

    /// Whether `device` is one of this link's endpoints.
    pub fn connects(&self, device: u32) -> bool {
        self.a == device || self.b == device
    }

    /// The opposite endpoint of `device`, if `device` is an endpoint.
    pub fn peer_of(&self, device: u32) -> Option<u32> {
        if device == self.a {
            Some(self.b)
        } else if device == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    fn validate(&self, index: usize, num_devices: usize) -> Result<(), SpecError> {
        let invalid = |reason: String| Err(SpecError::InvalidTopology { reason });
        if self.a as usize >= num_devices || self.b as usize >= num_devices {
            return invalid(format!(
                "link {index} joins {}-{} but only {num_devices} device(s) exist",
                self.a, self.b
            ));
        }
        if self.a == self.b {
            return invalid(format!("link {index} joins device {} to itself", self.a));
        }
        if self.latency_cycles == 0 {
            return invalid(format!("link {index} has zero latency"));
        }
        if self.slot_cycles == 0 {
            return invalid(format!("link {index} has zero slot cycles"));
        }
        if self.lanes == 0 {
            return invalid(format!("link {index} has zero lanes"));
        }
        Ok(())
    }
}

/// The canonical alias a device name is stored under (one of the
/// [`crate::arch::Architecture::label`] values), or `None` for names
/// [`presets::by_name`] cannot resolve.
pub fn canonical_alias(name: &str) -> Option<&'static str> {
    presets::by_name(name).map(|spec| spec.architecture.label())
}

/// A validated multi-GPU topology: device preset names plus the links that
/// join them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySpec {
    /// Device preset aliases in canonical form (`fermi`/`kepler`/`maxwell`),
    /// indexed by device id.
    pub devices: Vec<String>,
    /// The links joining them.
    pub links: Vec<LinkSpec>,
}

impl TopologySpec {
    /// Builds and validates a topology from device names (any alias
    /// [`presets::by_name`] accepts) and links.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidTopology`] for an empty device list, an unknown
    /// device name, a link endpoint out of range, a self-link, or a zero
    /// timing field.
    pub fn new<S: AsRef<str>>(devices: &[S], links: Vec<LinkSpec>) -> Result<Self, SpecError> {
        let canonical = devices
            .iter()
            .map(|name| {
                canonical_alias(name.as_ref()).map(str::to_string).ok_or_else(|| {
                    SpecError::InvalidTopology {
                        reason: format!("unknown device `{}`", name.as_ref()),
                    }
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let spec = TopologySpec { devices: canonical, links };
        spec.validate()?;
        Ok(spec)
    }

    /// The canonical two-GPU topology: two identical devices joined by one
    /// default-timed link — the NVBleed-style peer-to-peer setup.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidTopology`] for an unknown device name.
    pub fn dual(name: &str) -> Result<Self, SpecError> {
        TopologySpec::new(&[name, name], vec![LinkSpec::between(0, 1)])
    }

    /// Re-checks every structural constraint (useful after mutating the
    /// public fields directly).
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidTopology`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.devices.is_empty() {
            return Err(SpecError::InvalidTopology {
                reason: "a topology needs at least one device".into(),
            });
        }
        for name in &self.devices {
            if canonical_alias(name) != Some(name.as_str()) {
                return Err(SpecError::InvalidTopology {
                    reason: format!("unknown or non-canonical device `{name}`"),
                });
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            link.validate(i, self.devices.len())?;
        }
        Ok(())
    }

    /// Resolves every device alias to its full [`DeviceSpec`].
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidTopology`] if a name no longer resolves (possible
    /// only after direct field mutation).
    pub fn device_specs(&self) -> Result<Vec<DeviceSpec>, SpecError> {
        self.devices
            .iter()
            .map(|name| {
                presets::by_name(name).ok_or_else(|| SpecError::InvalidTopology {
                    reason: format!("unknown device `{name}`"),
                })
            })
            .collect()
    }

    /// The links that have `device` as an endpoint.
    pub fn links_of(&self, device: u32) -> Vec<(usize, LinkSpec)> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.connects(device))
            .map(|(i, l)| (i, *l))
            .collect()
    }

    /// Parses the textual spec grammar (the CLI's `--topology` argument):
    /// comma-separated keys `devices=<alias>+<alias>+...` and, per link,
    /// `link=<a>-<b>[:lat=<n>][:slot=<n>][:lanes=<n>]`. Omitted link fields
    /// keep the [`LinkSpec::between`] defaults.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidTopology`] for syntax errors and every structural
    /// violation [`TopologySpec::new`] rejects.
    pub fn from_spec(spec: &str) -> Result<Self, SpecError> {
        let invalid = |reason: String| SpecError::InvalidTopology { reason };
        let mut devices: Vec<String> = Vec::new();
        let mut links: Vec<LinkSpec> = Vec::new();
        for (key, value) in codec::pairs(spec.split(','), &["link"]).map_err(invalid)? {
            match key {
                "devices" => devices = value.split('+').map(|d| d.trim().to_string()).collect(),
                "link" => {
                    let (endpoints, fields) = value.split_once(':').unwrap_or((value, ""));
                    let (a, b) = endpoints
                        .split_once('-')
                        .ok_or_else(|| invalid(format!("expected `a-b`, got `{endpoints}`")))?;
                    let endpoint =
                        |v: &str| codec::field("link endpoint", v.trim()).map_err(invalid);
                    let mut link = LinkSpec::between(endpoint(a)?, endpoint(b)?);
                    for (key, value) in codec::pairs(fields.split(':'), &[]).map_err(invalid)? {
                        match key {
                            "lat" => {
                                link.latency_cycles = codec::field(key, value).map_err(invalid)?
                            }
                            "slot" => {
                                link.slot_cycles = codec::field(key, value).map_err(invalid)?
                            }
                            "lanes" => link.lanes = codec::field(key, value).map_err(invalid)?,
                            other => return Err(invalid(format!("unknown link field `{other}`"))),
                        }
                    }
                    links.push(link);
                }
                other => return Err(invalid(format!("unknown topology key `{other}`"))),
            }
        }
        TopologySpec::new(&devices, links)
    }

    /// Renders the topology in the [`TopologySpec::from_spec`] grammar with
    /// every field explicit; `from_spec(&t.to_spec())` round-trips exactly.
    pub fn to_spec(&self) -> String {
        let mut out = format!("devices={}", self.devices.join("+"));
        for l in &self.links {
            out.push_str(&format!(
                ",link={}-{}:lat={}:slot={}:lanes={}",
                l.a, l.b, l.latency_cycles, l.slot_cycles, l.lanes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_builds_and_round_trips() {
        let t = TopologySpec::dual("kepler").unwrap();
        assert_eq!(t.devices, vec!["kepler", "kepler"]);
        assert_eq!(t.links.len(), 1);
        assert_eq!(TopologySpec::from_spec(&t.to_spec()).unwrap(), t);
    }

    #[test]
    fn aliases_canonicalize() {
        let t = TopologySpec::new(&["Tesla K40C", "fermi", "m4000"], vec![]).unwrap();
        assert_eq!(t.devices, vec!["kepler", "fermi", "maxwell"]);
        assert_eq!(t.device_specs().unwrap()[0].name, "Tesla K40C");
    }

    #[test]
    fn from_spec_parses_fields_and_defaults() {
        let t = TopologySpec::from_spec("devices=kepler+maxwell,link=0-1:lat=100:lanes=4").unwrap();
        assert_eq!(t.links[0].latency_cycles, 100);
        assert_eq!(t.links[0].lanes, 4);
        assert_eq!(t.links[0].slot_cycles, DEFAULT_SLOT_CYCLES, "omitted field keeps default");
        assert_eq!(TopologySpec::from_spec(&t.to_spec()).unwrap(), t);
        // `link` is the one key that repeats.
        let chain = TopologySpec::from_spec("devices=kepler+kepler+kepler,link=0-1,link=1-2");
        assert_eq!(chain.unwrap().links.len(), 2);
    }

    #[test]
    fn spec_rejects_malformed_input() {
        for bad in [
            "devices=",
            "devices=voodoo2",
            "devices=kepler,link=0-1",        // endpoint out of range
            "devices=kepler+kepler,link=0-0", // self link
            "devices=kepler+kepler,link=0-1:lat=0",
            "devices=kepler+kepler,link=0-1:slot=0",
            "devices=kepler+kepler,link=0-1:lanes=0",
            "devices=kepler+kepler,link=0:1",
            "devices=kepler+kepler,link=0-1:warp=9",
            "devices=kepler+kepler,bridge=0-1",
            "devices=kepler,devices=fermi", // repeated key
            "devices=kepler+kepler,link=0-1:lat=2:lat=3",
            "kepler",
            "",
        ] {
            assert!(TopologySpec::from_spec(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn error_names_the_violation() {
        let e = TopologySpec::from_spec("devices=kepler+kepler,link=0-7").unwrap_err();
        assert!(e.to_string().contains("invalid topology"), "{e}");
        assert!(e.to_string().contains("0-7"), "{e}");
    }

    #[test]
    fn link_helpers() {
        let l = LinkSpec::between(2, 5).with_latency(9).with_slot_cycles(3).with_lanes(7);
        assert!(l.connects(2) && l.connects(5) && !l.connects(3));
        assert_eq!(l.peer_of(2), Some(5));
        assert_eq!(l.peer_of(5), Some(2));
        assert_eq!(l.peer_of(4), None);
        assert_eq!((l.latency_cycles, l.slot_cycles, l.lanes), (9, 3, 7));
    }

    #[test]
    fn links_of_filters_by_endpoint() {
        let t = TopologySpec::new(
            &["kepler", "kepler", "kepler"],
            vec![LinkSpec::between(0, 1), LinkSpec::between(1, 2)],
        )
        .unwrap();
        assert_eq!(t.links_of(0).len(), 1);
        assert_eq!(t.links_of(1).len(), 2);
        let (idx, link) = t.links_of(2)[0];
        assert_eq!((idx, link.a, link.b), (1, 1, 2));
    }
}
