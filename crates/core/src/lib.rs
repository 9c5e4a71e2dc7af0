//! # gpgpu-covert — covert channels on GPGPUs
//!
//! A full reproduction of **"Constructing and Characterizing Covert Channels
//! on GPGPUs"** (Naghibijouybari, Khasawneh, Abu-Ghazaleh — MICRO-50, 2017)
//! on top of the pure-Rust cycle-level simulator in [`gpgpu_sim`].
//!
//! The paper builds covert channels between two concurrently-running GPU
//! kernels (a *trojan* that knows a secret and a *spy* that receives it)
//! through contention on shared hardware: the constant caches, the special
//! function units, and the global-memory atomic units. This crate implements
//! every step of the attack:
//!
//! | Module | Paper section | What it does |
//! |---|---|---|
//! | [`colocation`] | §3, §8 | reverse engineer the block/warp schedulers; force (exclusive) co-location |
//! | [`microbench`]  | §4.1, §5.1 | recover cache geometry (Figs 2-3) and FU latency curves (Figs 6-7) |
//! | [`cache_channel`] | §4 | baseline L1/L2 prime+probe channels with per-bit kernel relaunch (Fig 4-5) |
//! | [`fu_channel`] | §5 | SFU (`__sinf`) contention channel |
//! | [`atomic_channel`] | §6 | global-memory atomic channels, scenarios 1-3 (Fig 10) |
//! | [`sync_channel`] | §7.1 | synchronized channel with the Figure-11 handshake; multi-bit and multi-SM parallel variants (Table 2) |
//! | [`nvlink_channel`] | — | cross-GPU channel over contended NVLink-style links (NVBleed-class, see `PAPERS.md`) |
//! | [`parallel`] | §7 | per-warp-scheduler and per-SM SFU parallelism (Table 3); combined L1+SFU channel |
//! | [`side_channel`] | §10 | the negative results: coalescing and bank-conflict self-timing artifacts do not transfer to competing kernels |
//! | [`noise`] | §8 | Rodinia-like interfering workloads and exclusive co-location |
//! | [`whitespace`] | §8 | dynamic idle-set discovery ("whitespace communication") |
//! | [`mitigations`] | §9 | composable defenses (cache partitioning, scheduler randomization, clock fuzzing) evaluated against every channel family |
//! | [`arena`] | §9 | attack/defense tournament: every family plus the adaptive ladder vs every defense combination, as a residual-bandwidth matrix |
//! | [`bits`] | §5, §8 | messages, bit-error rate, Hamming(7,4) error correction |
//! | [`framing`] | §7.1 | CRC-8 frames with preamble resynchronization and selective-repeat ARQ over faulted channels |
//! | [`calibrate`] | §8 | pilot-symbol handshake fitting decode thresholds online |
//! | [`linkmon`] | §8 | link-quality monitor + degradation ladder (re-calibrate, stretch, channel-family fallback) |
//! | [`analytic`] | — | closed-form bandwidth/BER predictor characterized from the cycle engine; sweep pre-pruner |
//! | [`harness`] | — | deterministic multi-threaded trial runner powering every sweep |
//! | [`pool`] | — | thread-local device pool: per-trial runs reuse warmed allocations behind pristine snapshots |
//! | [`env`](mod@env) | — | the one resolver for the `GPGPU_*` environment knobs |
//!
//! # Quickstart
//!
//! ```
//! use gpgpu_covert::cache_channel::L1Channel;
//! use gpgpu_covert::bits::Message;
//! use gpgpu_spec::presets;
//!
//! let channel = L1Channel::new(presets::tesla_k40c());
//! let message = Message::from_bytes(b"hi");
//! let outcome = channel.transmit(&message)?;
//! assert_eq!(outcome.received, message);      // error-free
//! assert!(outcome.bandwidth_kbps > 1.0);      // tens of Kbps on the K40C
//! # Ok::<(), gpgpu_covert::CovertError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod analytic;
pub mod arena;
pub mod atomic_channel;
pub mod bits;
pub mod cache_channel;
pub mod calibrate;
pub mod channel;
pub mod colocation;
pub mod env;
mod error;
pub mod framing;
pub mod fu_channel;
pub mod harness;
pub mod kernels;
pub mod linkmon;
pub mod microbench;
pub mod mitigations;
pub mod noise;
pub mod nvlink_channel;
pub mod parallel;
pub mod pool;
pub mod side_channel;
pub mod sync_channel;
pub mod whitespace;

pub use channel::{ChannelOutcome, TraceCapture};
pub use error::CovertError;
