//! Device specifications for the `gpgpu-covert` GPGPU simulator.
//!
//! This crate is the bottom layer of the workspace: it describes *what the
//! hardware looks like* — streaming-multiprocessor (SM) resources, functional
//! unit pools and their timing, cache geometries, memory-system parameters,
//! and whole-device presets for the three GPUs evaluated in the paper
//! (Naghibijouybari et al., *Constructing and Characterizing Covert Channels
//! on GPGPUs*, MICRO-50 2017) plus a modern sub-core device for forward
//! projection:
//!
//! * NVIDIA **Tesla C2075** (Fermi)
//! * NVIDIA **Tesla K40C** (Kepler)
//! * NVIDIA **Quadro M4000** (Maxwell)
//! * NVIDIA **RTX A4000** (Ampere — sub-core issue partitions, fixed-latency
//!   dependence hints, sectored L1; see [`subcore`])
//!
//! The per-SM resource counts come straight from the paper's Table 1; the
//! functional-unit pipeline depths are calibrated so that the contention
//! model in `gpgpu-sim` reproduces the latency plots of Figures 6 and 7 and
//! the channel latencies quoted in Section 5.2 (e.g. Kepler `__sinf`:
//! 18 cycles idle → 24 cycles under trojan contention).
//!
//! # Example
//!
//! ```
//! use gpgpu_spec::presets;
//!
//! let k40c = presets::tesla_k40c();
//! assert_eq!(k40c.num_sms, 15);
//! assert_eq!(k40c.sm.num_warp_schedulers, 4);
//! assert_eq!(k40c.const_l1.geometry.num_sets(), 8);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod arch;
pub mod cache;
pub mod codec;
pub mod defense;
pub mod device;
pub mod error;
pub mod family;
pub mod fu;
pub mod launch;
pub mod mem;
pub mod presets;
pub mod sm;
pub mod subcore;
pub mod sweep;
pub mod topology;

pub use arch::{Architecture, FuOpKind, FuUnit};
pub use cache::{CacheGeometry, CacheSpec};
pub use defense::{DefenseComponent, DefenseSpec};
pub use device::DeviceSpec;
pub use error::SpecError;
pub use family::Family;
pub use fu::{FuPools, FuTiming};
pub use launch::{BlockResources, LaunchConfig};
pub use mem::MemorySpec;
pub use sm::SmSpec;
pub use subcore::{ArchDescriptor, DependenceMode, SubCoreSpec};
pub use sweep::{SweepCell, SweepRequest};
pub use topology::{LinkSpec, TopologySpec};

/// Number of threads in a warp. Constant across every NVIDIA architecture
/// the paper evaluates (and every CUDA GPU shipped to date).
pub const WARP_SIZE: u32 = 32;
