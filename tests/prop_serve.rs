//! Property tests for the `gpgpu-serve` sweep service:
//!
//! * **cache-key injectivity** — distinct sweep cells render distinct
//!   canonical keys (and identical cells render identical keys), the
//!   property that makes the key safe to content-address;
//! * **cache-hit bit-identity** — any representable [`CellResult`] survives
//!   the store → load round trip with its exact `f64` bit patterns;
//! * **grammar round trips** — sweep requests and chaos plans re-parse to
//!   themselves;
//! * **corruption fuzz** — a byte flipped (or a file truncated) at an
//!   *arbitrary* offset of a cache entry or run journal yields a typed
//!   error or a shorter trusted prefix — never a panic and never
//!   silently-wrong data.

use gpgpu_serve::{CellResult, ChaosPlan, Journal, JournalError, ResultCache};
use gpgpu_spec::{Family, SweepCell, SweepRequest};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-case scratch location that never collides across cases or parallel
/// test binaries.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gpgpu-prop-serve-{}-{tag}-{n}", std::process::id()))
}

const DEVICES: [&str; 3] = ["fermi", "kepler", "maxwell"];
const FAULT_AXES: [&str; 3] =
    ["none", "seed=7,intensity=0.5,kinds=evict+storm", "seed=9,intensity=0.25,kinds=jitter"];
const DEFENSE_AXES: [&str; 2] = ["none", "partition=2"];

/// A sweep cell drawn from realistic axis vocabularies. Components are
/// sampled by index so equality of the tuple is decidable in the test.
fn arb_cell() -> impl Strategy<Value = SweepCell> {
    (0usize..3, 0usize..5, 1u64..40, 1u32..32, 0u64..1024, 0usize..3, 0usize..2).prop_map(
        |(d, f, iters, bits, seed, fault, defense)| SweepCell {
            device: DEVICES[d].to_string(),
            family: Family::MATRIX[f],
            iterations: iters,
            bits,
            seed,
            faults: FAULT_AXES[fault].to_string(),
            defense: DEFENSE_AXES[defense].to_string(),
            topology: "none".to_string(),
        },
    )
}

/// Any representable result, including messy float bit patterns.
fn arb_result() -> impl Strategy<Value = CellResult> {
    (0usize..64, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), 0usize..48).prop_map(
        |(sent, cycles, bw_bits, ber_bits, rx_bits, rx_len)| CellResult {
            sent,
            received: (0..rx_len).map(|i| (rx_bits >> (i % 64)) & 1 == 1).collect(),
            cycles,
            bandwidth_kbps: f64::from_bits(bw_bits),
            ber: f64::from_bits(ber_bits),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Injectivity: two cells share a key iff they are the same cell.
    #[test]
    fn cache_keys_are_injective(a in arb_cell(), b in arb_cell()) {
        if a == b {
            prop_assert_eq!(a.key(), b.key());
        } else {
            prop_assert!(a.key() != b.key(), "distinct cells collided: {}", a.key());
        }
    }

    /// A cache hit returns exactly the stored result, bit for bit.
    #[test]
    fn cache_hits_are_bit_identical(r in arb_result(), cell in arb_cell()) {
        let cache = ResultCache::open(scratch("hit")).unwrap();
        let key = cell.key();
        cache.store(&key, &r).unwrap();
        let back = cache.load(&key).unwrap();
        prop_assert_eq!(back.bandwidth_kbps.to_bits(), r.bandwidth_kbps.to_bits());
        prop_assert_eq!(back.ber.to_bits(), r.ber.to_bits());
        prop_assert_eq!(back, r);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// The chaos grammar round-trips every representable plan.
    #[test]
    fn chaos_plans_round_trip(seed in any::<u64>(), kills in 0u32..8, stalls in 0u32..8, corrupt in 0u64..16) {
        let plan = ChaosPlan { seed, kills, stalls, corrupt };
        prop_assert_eq!(ChaosPlan::from_spec(&plan.to_spec()).unwrap(), plan);
    }

    /// The sweep-request grammar round-trips arbitrary multi-valued grids.
    #[test]
    fn sweep_requests_round_trip(
        d in 0usize..3, extra_d in 0usize..3, f in 0usize..5, extra_f in 0usize..5,
        iters in 1u64..40, bits in 1u32..32, seed in any::<u64>(),
        fault in 0usize..3, defense in 0usize..2,
    ) {
        let mut devices = vec![DEVICES[d].to_string()];
        if extra_d != d {
            devices.push(DEVICES[extra_d].to_string());
        }
        let mut families = vec![Family::MATRIX[f]];
        if extra_f != f {
            families.push(Family::MATRIX[extra_f]);
        }
        let request = SweepRequest {
            devices,
            families,
            iterations: vec![iters, iters + 1],
            bits,
            seed,
            faults: vec![FAULT_AXES[fault].to_string()],
            defenses: vec![DEFENSE_AXES[defense].to_string()],
            topology: "none".to_string(),
        };
        request.validate().unwrap();
        prop_assert_eq!(SweepRequest::from_spec(&request.to_spec()).unwrap(), request);
    }

    /// Flipping any single byte of a cache entry can never serve wrong
    /// data: the load either fails with a typed non-miss error or (never
    /// observed, but the only other safe outcome) returns the original.
    #[test]
    fn cache_survives_arbitrary_byte_flips(r in arb_result(), offset in any::<u64>(), mask in 1u8..=255) {
        let cache = ResultCache::open(scratch("flip")).unwrap();
        let key = "device=kepler;family=l1;iters=20;bits=8;seed=0x5eed;faults=none;defense=none;topology=none";
        cache.store(key, &r).unwrap();
        let path = cache.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = (offset % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        std::fs::write(&path, bytes).unwrap();
        match cache.load(key) {
            Ok(back) => prop_assert_eq!(back, r, "a flip at {} must not alter a served result", at),
            Err(e) => prop_assert!(!e.is_miss(), "corruption must be typed, not a silent miss"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Truncating a cache entry anywhere strictly short of its full length
    /// is a typed error, never a panic or a wrong result.
    #[test]
    fn cache_survives_arbitrary_truncation(r in arb_result(), cut in any::<u64>()) {
        let cache = ResultCache::open(scratch("cut")).unwrap();
        let key = "device=maxwell;family=atomic;iters=4;bits=4;seed=0x1;faults=none;defense=none;topology=none";
        cache.store(key, &r).unwrap();
        let path = cache.entry_path(key);
        let bytes = std::fs::read(&path).unwrap();
        let keep = (cut % bytes.len() as u64) as usize; // always strictly truncates
        std::fs::write(&path, &bytes[..keep]).unwrap();
        match cache.load(key) {
            // Losing only the trailing newline leaves the entry intact —
            // the one truncation that may still serve, and it must serve
            // the exact original.
            Ok(back) => {
                prop_assert_eq!(keep, bytes.len() - 1);
                prop_assert_eq!(back, r);
            }
            Err(e) => prop_assert!(!e.is_miss(), "truncation must be typed, not a silent miss"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Flipping any single byte of a journal's header is a typed refusal;
    /// flipping one anywhere after it (even into invalid UTF-8) recovers a
    /// prefix that is element-wise equal to a prefix of what was written —
    /// never reordered, never altered, and never an I/O refusal.
    #[test]
    fn journal_survives_arbitrary_byte_flips(
        results in proptest::collection::vec(arb_result(), 1..6),
        offset in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let path = scratch("journal").with_extension("log");
        let journal = Journal::create(&path, 0xFEED, results.len()).unwrap();
        for (i, r) in results.iter().enumerate() {
            journal.append(i, r).unwrap();
        }
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let at = (offset % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        std::fs::write(&path, bytes).unwrap();
        match Journal::resume(&path, 0xFEED, results.len()) {
            Err(JournalError::HeaderMismatch { .. }) => {
                prop_assert!(at < header_len, "a flip at {} after the header refused resume", at);
            }
            Err(other) => prop_assert!(false, "unexpected resume error: {other}"),
            Ok((_, recovery)) => {
                prop_assert!(at >= header_len, "a flip at {} in the header was resumed", at);
                prop_assert!(recovery.entries.len() <= results.len());
                for (slot, (index, got)) in recovery.entries.iter().enumerate() {
                    prop_assert_eq!(*index, slot, "completion order preserved");
                    prop_assert_eq!(got, &results[slot], "recovered entries are exact");
                }
                if recovery.entries.len() < results.len() {
                    prop_assert!(recovery.damage.is_some(), "a lost entry is reported");
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
