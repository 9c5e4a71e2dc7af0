//! Covert-channel families: the one vocabulary every layer names a channel
//! by — sweep requests, latency tables, the analytical model, the
//! mitigation arena and the channel constructor in `gpgpu-covert`. Labels
//! round-trip exactly through [`Family::label`] and [`str::parse`].

use crate::error::SpecError;
use std::fmt;
use std::str::FromStr;

/// One covert-channel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Unsynchronized L1 constant-cache prime+probe, one launch per bit.
    L1,
    /// Cross-SM L2 constant-cache prime+probe, one launch per bit.
    L2,
    /// Synchronized (handshaked) L1 constant-cache channel.
    Sync,
    /// Per-warp-scheduler parallel SFU contention lanes.
    ParallelSfu,
    /// SFU issue contention, one launch per bit.
    Sfu,
    /// Global-memory atomic-unit contention, one launch per bit.
    Atomic,
    /// Cross-device NVLink congestion (needs a multi-GPU topology).
    Nvlink,
}

impl Family {
    /// Every family.
    pub const ALL: [Family; 7] = [
        Family::L1,
        Family::L2,
        Family::Sync,
        Family::ParallelSfu,
        Family::Sfu,
        Family::Atomic,
        Family::Nvlink,
    ];

    /// The five families of the Section-9 arena matrix and the sweep
    /// service's family axis, in matrix-row order.
    pub const MATRIX: [Family; 5] =
        [Family::L1, Family::Sync, Family::ParallelSfu, Family::Atomic, Family::Nvlink];

    /// The stable label (`l1`, `parallel-sfu`, ...) used in specs, report
    /// rows, cache keys and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            Family::L1 => "l1",
            Family::L2 => "l2",
            Family::Sync => "sync",
            Family::ParallelSfu => "parallel-sfu",
            Family::Sfu => "sfu",
            Family::Atomic => "atomic",
            Family::Nvlink => "nvlink",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.label())
    }
}

impl FromStr for Family {
    type Err = SpecError;

    /// Parses an exact [`Family::label`].
    fn from_str(s: &str) -> Result<Self, SpecError> {
        Family::ALL
            .into_iter()
            .find(|f| f.label() == s)
            .ok_or_else(|| SpecError::UnknownFamily { label: s.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_are_distinct_and_reject_near_misses() {
        for family in Family::ALL {
            assert_eq!(family.label().parse::<Family>(), Ok(family));
            assert_eq!(family.to_string(), family.label());
        }
        let mut labels: Vec<&str> = Family::ALL.iter().map(|f| f.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Family::ALL.len(), "labels must be distinct");
        assert!(Family::MATRIX.iter().all(|f| Family::ALL.contains(f)));
        for bad in ["", "L1", "l3", "sfu+"] {
            assert_eq!(
                bad.parse::<Family>(),
                Err(SpecError::UnknownFamily { label: bad.to_string() }),
                "`{bad}`"
            );
        }
    }
}
