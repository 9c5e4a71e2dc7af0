//! Thread-local device pooling for per-trial channel runs.
//!
//! Every baseline channel builds a fresh [`Device`] per transmission (and
//! the paper's sweeps run thousands of transmissions). Construction is not
//! free: caches, port horizons and result tables are all heap-backed, and a
//! figure sweep rebuilds them for every trial. The pool keeps finished
//! devices around per thread, keyed by `(DeviceSpec, DeviceTuning)`, and
//! hands them back out after restoring their *pristine* (just-built)
//! [`DeviceSnapshot`] — so a reused device is observably identical to a
//! fresh one, but its allocations (SoA warp tables, record arenas, cache
//! arrays) stay warm across trials. After the first trial of a sweep cell,
//! acquiring a device performs no heap allocation.
//!
//! Bit-identity is the contract: the seed-determinism and
//! engine-equivalence suites run over pooled devices, and
//! [`acquire`]-reuse must be indistinguishable from construction. Set the
//! `GPGPU_POOL_DISABLE` environment variable (or call [`set_disabled`]) to
//! force the per-trial-construction seed behavior, e.g. for the ablation
//! benchmarks' baseline arm.

use gpgpu_sim::{Device, DeviceSnapshot, DeviceTuning};
use gpgpu_spec::DeviceSpec;
use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};

/// Upper bound on retained devices per thread; acquisitions beyond this
/// still work, the surplus devices are simply dropped on lease release.
const MAX_POOLED: usize = 8;

struct PoolEntry {
    spec: DeviceSpec,
    tuning: DeviceTuning,
    dev: Device,
    /// The device's state straight out of `Device::with_tuning`, captured
    /// once; restored on every reuse so leases always start cold.
    pristine: DeviceSnapshot,
}

thread_local! {
    static POOL: RefCell<Vec<PoolEntry>> = const { RefCell::new(Vec::new()) };
    /// `None` = not yet resolved from the environment.
    static DISABLED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// The recognized `GPGPU_POOL_DISABLE` spellings (empty, `0`, `1`).
/// Unrecognized values keep their legacy meaning — pooling disabled — so a
/// typo degrades performance, never determinism.
fn parse_pool_disable(v: &str) -> Option<bool> {
    match v {
        "" | "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn pooling_disabled() -> bool {
    DISABLED.with(|d| match d.get() {
        Some(v) => v,
        None => {
            let v = crate::env::env_knob(
                "GPGPU_POOL_DISABLE",
                "0 or 1; treating it as 1 and disabling the device pool",
                false,
                true,
                parse_pool_disable,
            );
            d.set(Some(v));
            v
        }
    })
}

/// Overrides pooling for the current thread: `true` makes every
/// [`acquire`] build (and drop) a fresh device, the seed per-trial
/// behavior; `false` re-enables reuse. Takes precedence over the
/// `GPGPU_POOL_DISABLE` environment variable.
pub fn set_disabled(disabled: bool) {
    DISABLED.with(|d| d.set(Some(disabled)));
}

/// Drops every device retained by the current thread's pool.
pub fn clear() {
    POOL.with(|p| p.borrow_mut().clear());
}

/// Number of idle devices retained by the current thread's pool.
pub fn retained() -> usize {
    POOL.with(|p| p.borrow().len())
}

/// An exclusively held device checked out of the thread-local pool.
///
/// Dereferences to [`Device`]; dropping the lease returns the device to the
/// pool (unless pooling was disabled when it was acquired, in which case
/// the device is simply dropped).
#[derive(Debug)]
pub struct DeviceLease {
    dev: Option<Device>,
    /// Present only for pooled leases: the key and pristine state needed to
    /// re-shelve the device on drop.
    retain: Option<(DeviceSpec, DeviceTuning, DeviceSnapshot)>,
}

/// Checks a device matching `(spec, tuning)` out of the current thread's
/// pool, restoring its pristine just-built state; builds one if the pool
/// has no match (or pooling is disabled). The returned device is always
/// observably identical to `Device::with_tuning(spec.clone(), tuning)`.
pub fn acquire(spec: &DeviceSpec, tuning: DeviceTuning) -> DeviceLease {
    if pooling_disabled() {
        return DeviceLease { dev: Some(Device::with_tuning(spec.clone(), tuning)), retain: None };
    }
    let hit = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.iter().position(|e| e.tuning == tuning && e.spec == *spec).map(|i| pool.swap_remove(i))
    });
    if let Some(mut entry) = hit {
        entry.dev.restore(&entry.pristine).expect("a pooled snapshot matches its own device");
        let PoolEntry { spec, tuning, dev, pristine } = entry;
        return DeviceLease { dev: Some(dev), retain: Some((spec, tuning, pristine)) };
    }
    let dev = Device::with_tuning(spec.clone(), tuning);
    let pristine = dev.snapshot().expect("a freshly built device is idle");
    DeviceLease { dev: Some(dev), retain: Some((spec.clone(), tuning, pristine)) }
}

impl Deref for DeviceLease {
    type Target = Device;
    fn deref(&self) -> &Device {
        self.dev.as_ref().expect("the device is present until drop")
    }
}

impl DerefMut for DeviceLease {
    fn deref_mut(&mut self) -> &mut Device {
        self.dev.as_mut().expect("the device is present until drop")
    }
}

impl Drop for DeviceLease {
    fn drop(&mut self) {
        if let (Some(dev), Some((spec, tuning, pristine))) = (self.dev.take(), self.retain.take()) {
            POOL.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < MAX_POOLED {
                    pool.push(PoolEntry { spec, tuning, dev, pristine });
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Message;
    use crate::cache_channel::L1Channel;
    use gpgpu_spec::presets;

    #[test]
    fn leases_start_cold_even_after_dirty_reuse() {
        clear();
        set_disabled(false);
        let spec = presets::tesla_k40c();
        {
            let mut dev = acquire(&spec, DeviceTuning::none());
            let mut b = gpgpu_isa::ProgramBuilder::new();
            b.mov_imm(gpgpu_isa::Reg(0), 7);
            b.push_result(gpgpu_isa::Reg(0));
            dev.alloc_constant(4096);
            dev.launch(
                0,
                gpgpu_sim::KernelSpec::new(
                    "dirty",
                    b.build().unwrap(),
                    gpgpu_spec::LaunchConfig::new(4, 64),
                ),
            )
            .unwrap();
            dev.run_until_idle(1_000_000).unwrap();
            assert!(dev.now() > 0);
        }
        assert_eq!(retained(), 1, "the dropped lease returned to the pool");
        let dev = acquire(&spec, DeviceTuning::none());
        assert_eq!(dev.now(), 0, "a reused device starts at cycle zero");
        assert!(dev.kernel_names().is_empty(), "no kernel history leaks across leases");
        drop(dev);
        clear();
    }

    #[test]
    fn mismatched_specs_do_not_share_devices() {
        clear();
        set_disabled(false);
        drop(acquire(&presets::tesla_k40c(), DeviceTuning::none()));
        assert_eq!(retained(), 1);
        // A different spec misses the pooled Kepler and builds its own.
        let m = acquire(&presets::quadro_m4000(), DeviceTuning::none());
        assert_eq!(retained(), 1, "the Kepler stays shelved; the Maxwell was built fresh");
        assert_eq!(m.spec().name, "Quadro M4000");
        drop(m);
        assert_eq!(retained(), 2, "both devices shelved once the Maxwell lease drops");
        clear();
    }

    #[test]
    fn disabled_pooling_never_retains() {
        clear();
        set_disabled(true);
        drop(acquire(&presets::tesla_k40c(), DeviceTuning::none()));
        assert_eq!(retained(), 0, "disabled leases are dropped, not shelved");
        set_disabled(false);
        clear();
    }

    #[test]
    fn pooled_transmissions_are_bit_identical_to_fresh_ones() {
        clear();
        set_disabled(false);
        let msg = Message::pseudo_random(24, 0x77);
        let ch = L1Channel::new(presets::tesla_k40c());
        // First transmit builds devices; the second reuses them from the
        // pool. The outcome (cycles, bandwidth, received bits, engine
        // counters) must not change at all.
        let first = ch.transmit(&msg).unwrap();
        assert!(retained() > 0, "the transmit's device returned to the pool");
        let second = ch.transmit(&msg).unwrap();
        assert_eq!(first, second, "device reuse must be observably invisible");
        // And identical to a run with pooling off entirely.
        set_disabled(true);
        let fresh = ch.transmit(&msg).unwrap();
        assert_eq!(first, fresh, "pooling must not perturb the seed behavior");
        set_disabled(false);
        clear();
    }

    #[test]
    fn pool_disable_env_resolution_is_typed() {
        use std::env::VarError;
        let resolve_pool_disable =
            |raw| crate::env::resolve_knob(raw, false, true, parse_pool_disable);
        assert_eq!(resolve_pool_disable(Err(VarError::NotPresent)), (false, None));
        assert_eq!(resolve_pool_disable(Ok(String::new())), (false, None));
        assert_eq!(resolve_pool_disable(Ok("0".into())), (false, None));
        assert_eq!(resolve_pool_disable(Ok("1".into())), (true, None));
        // Legacy semantics preserved (any other non-empty value disables),
        // but now flagged for the one-time warning.
        assert_eq!(resolve_pool_disable(Ok("yes".into())), (true, Some("`yes`".to_string())));
    }
}
