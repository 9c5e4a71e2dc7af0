//! Section 9, evaluated as a tournament: the full attack/defense arena.
//!
//! Runs `gpgpu_covert::arena::run_arena` — every channel family plus the
//! adaptive degradation-ladder attacker against every deployed defense and
//! defense combination — on the paper's Kepler and on the sub-core Ampere
//! device, asserts the headline results (cache partitioning zeroes the
//! static L1 row but the adaptive attacker escapes it by hopping families,
//! on both generations), and writes the residual-bandwidth matrices to
//! `BENCH_arena.json` at the workspace root for CI to archive (the Kepler
//! matrix at the top level, the Ampere matrix under the `ampere` key).
//!
//! `GPGPU_BENCH_QUICK=1` shrinks the message so the smoke run finishes in
//! seconds; the assertions are identical in both modes.

use gpgpu_covert::arena::{run_arena, ArenaConfig, ArenaReport, Attacker};
use gpgpu_covert::mitigations::MitigationVerdict;
use gpgpu_spec::{presets, DeviceSpec, Family};
use std::time::Instant;

use gpgpu_bench::quick;

/// Runs the tournament on one device and asserts the headline cells that
/// hold on every modelled generation.
fn tournament(spec: DeviceSpec, bits: usize) -> ArenaReport {
    let device = spec.name.clone();
    let config = ArenaConfig::new(spec).with_bits(bits);
    let start = Instant::now();
    let report = run_arena(&config).expect("default arena config is runnable");
    let elapsed = start.elapsed().as_secs_f64();
    println!("{}", report.render());
    println!(
        "arena[{device}]: {} rows x {} defenses, {bits}-bit message, {elapsed:.2}s",
        report.rows.len(),
        report.defenses.len()
    );

    // Undefended, every static on-chip family delivers.
    for family in Family::MATRIX {
        let cell = report.cell(Attacker::Static(family), "none").expect("baseline column");
        assert!(
            cell.delivered && cell.residual_bandwidth_kbps > 0.0,
            "{device}: {family} must deliver undefended: {cell:?}"
        );
    }

    // Cache partitioning zeroes the static L1 row...
    let l1 = report.cell(Attacker::Static(Family::L1), "partition=2").unwrap();
    assert_eq!(l1.verdict, Some(MitigationVerdict::Effective), "{device}: {l1:?}");
    assert_eq!(l1.residual_bandwidth_kbps, 0.0, "{device}: {l1:?}");

    // ...but the adaptive attacker escapes it via family fallback, keeping
    // residual bandwidth — the arena's central claim.
    let escapes = report.fallback_escapes();
    assert!(
        !escapes.is_empty(),
        "{device}: the adaptive attacker must escape at least one defense"
    );
    for cell in &escapes {
        println!(
            "escape[{device}]: `{}` -> {} at {:.2} kb/s residual",
            cell.defense.to_spec(),
            cell.final_family.as_deref().unwrap_or("?"),
            cell.residual_bandwidth_kbps
        );
    }
    assert!(
        escapes.iter().any(|c| c.defense.components().len() == 1),
        "{device}: at least one *single* mitigation must be escaped"
    );
    report
}

fn main() {
    let bits = if quick() { 8 } else { 16 };
    let kepler = tournament(presets::tesla_k40c(), bits);
    let ampere = tournament(presets::rtx_a4000(), bits);

    // One artifact, two matrices: the paper device stays at the top level
    // (existing consumers keep working); the modern sub-core device rides
    // under the `ampere` key.
    let base = kepler.to_json();
    let merged = format!(
        "{},\n  \"ampere\": {}\n}}\n",
        base.trim_end().strip_suffix('}').expect("arena json is an object").trim_end(),
        ampere.to_json().trim_end(),
    );
    // Anchor at the workspace root regardless of the bench's cwd (cargo
    // runs benches from the package directory).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_arena.json");
    std::fs::write(out, merged).expect("BENCH_arena.json is writable");
    println!("wrote {out}");
}
