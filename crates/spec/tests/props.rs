//! Property tests for the specification layer.

use gpgpu_spec::{codec, BlockResources, CacheGeometry, FuPools, FuUnit, LaunchConfig, WARP_SIZE};
use proptest::prelude::*;

/// Strategy over valid power-of-two cache geometries.
fn geometries() -> impl Strategy<Value = CacheGeometry> {
    (0u32..4, 5u32..9, 0u32..3).prop_map(|(sets_log, line_log, ways_log)| {
        let sets = 1u64 << (sets_log + 1);
        let line = 1u64 << line_log;
        let ways = 1u64 << ways_log;
        CacheGeometry::new(sets * line * ways, line, ways).expect("constructed geometry is valid")
    })
}

proptest! {
    #[test]
    fn set_index_is_always_in_range(geom in geometries(), addr in any::<u64>() ) {
        prop_assert!(geom.set_of_addr(addr) < geom.num_sets());
    }

    #[test]
    fn line_address_is_aligned_and_covers(geom in geometries(), addr in any::<u64>()) {
        let line = geom.line_of_addr(addr);
        prop_assert_eq!(line % geom.line_bytes(), 0);
        prop_assert!(line <= addr && addr < line + geom.line_bytes());
    }

    #[test]
    fn same_set_stride_preserves_set(geom in geometries(), addr in 0u64..1_000_000, k in 0u64..64) {
        let a = addr + k * geom.same_set_stride();
        prop_assert_eq!(geom.set_of_addr(a), geom.set_of_addr(addr % geom.same_set_stride() + (addr / geom.same_set_stride()) * geom.same_set_stride()));
        prop_assert_eq!(geom.set_of_addr(a), geom.set_of_addr(addr));
    }

    #[test]
    fn geometry_identity(geom in geometries()) {
        prop_assert_eq!(
            geom.num_sets() * geom.line_bytes() * geom.ways(),
            geom.size_bytes()
        );
    }

    #[test]
    fn scheduler_shares_partition_the_pool(
        sp in 0u32..512, dpu in 0u32..128, sfu in 0u32..64, ldst in 0u32..64,
        nsched in 1u32..8,
    ) {
        let pools = FuPools { sp, dpu, sfu, ldst };
        for unit in FuUnit::ALL {
            let share = pools.scheduler_share(unit, nsched);
            prop_assert!(share * nsched <= pools.count(unit));
            // Occupancy is within [1, 32].
            let occ = pools.issue_occupancy(unit, nsched);
            prop_assert!((1..=WARP_SIZE).contains(&occ));
            prop_assert!(pools.scheduler_ports(unit, nsched) >= 1);
        }
    }

    #[test]
    fn block_resources_warps_round_up(threads in 1u32..4096) {
        let r = BlockResources { threads, shared_mem_bytes: 0, registers_per_thread: 0 };
        prop_assert!(r.warps() * WARP_SIZE >= threads);
        prop_assert!((r.warps() - 1) * WARP_SIZE < threads);
    }

    #[test]
    fn launch_validation_never_panics(
        blocks in 0u32..64, threads in 0u32..8192,
        shared in 0u64..256*1024, regs in 0u32..256,
    ) {
        let cfg = LaunchConfig::new(blocks, threads)
            .with_shared_mem(shared)
            .with_registers_per_thread(regs);
        let spec = gpgpu_spec::presets::tesla_k40c();
        let _ = cfg.validate(&spec.sm); // any result is fine; no panic
    }
}

/// Grammar keys: a lowercase word (`seed`, `link`, `subcores`, `eknee`).
const KEY_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";

/// The `key=value` separators of the seven grammars, each with the value
/// alphabet that grammar can put next to it (never the separator itself).
const SEPARATORS: [(char, &[u8]); 4] = [
    // fault, chaos, defense, topology: `kinds=evict+storm`, `link=0-1:lat=40`
    (',', b"abcdefghijklmnopqrstuvwxyz0123456789+-.:=x"),
    // sweep, arch descriptor, cache payload: nested `,` and `|` sub-specs
    (';', b"abcdefghijklmnopqrstuvwxyz0123456789+-.:=,|x"),
    // topology link fields
    (':', b"0123456789"),
    // latency-table family rows
    (' ', b"abcdefghijklmnopqrstuvwxyz0123456789+-.e_"),
];

fn word(alphabet: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..alphabet.len(), len)
        .prop_map(move |ix| ix.into_iter().map(|i| char::from(alphabet[i])).collect())
}

/// A key/value list with distinct keys over one separator's alphabet.
fn kv_list(values: &'static [u8]) -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((word(KEY_ALPHABET, 1..8), word(values, 0..12)), 0..6).prop_map(
        |drawn| {
            let mut out: Vec<(String, String)> = Vec::new();
            for (k, v) in drawn {
                if !out.iter().any(|(seen, _)| *seen == k) {
                    out.push((k, v));
                }
            }
            out
        },
    )
}

fn render(list: &[(String, String)], sep: char) -> String {
    list.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(&sep.to_string())
}

fn tokenize(spec: &str, sep: char) -> Vec<(String, String)> {
    let pairs = if sep == ' ' {
        codec::pairs(spec.split_whitespace(), &[])
    } else {
        codec::pairs(spec.split(sep), &[])
    };
    pairs.unwrap().into_iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every separator's key/value lists tokenize back exactly, and two
    /// distinct lists never render the same text.
    #[test]
    fn codec_round_trips_and_renders_injectively(
        a in kv_list(SEPARATORS[0].1), b in kv_list(SEPARATORS[0].1),
        c in kv_list(SEPARATORS[1].1), d in kv_list(SEPARATORS[1].1),
        e in kv_list(SEPARATORS[2].1), f in kv_list(SEPARATORS[2].1),
        g in kv_list(SEPARATORS[3].1), h in kv_list(SEPARATORS[3].1),
    ) {
        for (i, (x, y)) in [(a, b), (c, d), (e, f), (g, h)].into_iter().enumerate() {
            let sep = SEPARATORS[i].0;
            prop_assert_eq!(tokenize(&render(&x, sep), sep), x.clone());
            prop_assert_eq!(tokenize(&render(&y, sep), sep), y.clone());
            prop_assert_eq!(x == y, render(&x, sep) == render(&y, sep));
        }
    }
}
