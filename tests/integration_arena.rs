//! End-to-end tests for the attack/defense arena: the full tournament is
//! deterministic, covers every attacker row and defense column (composed
//! defenses included), degrades per-cell on missing prerequisites instead
//! of aborting, and — the paper-level claim — the adaptive ladder attacker
//! escapes single-resource mitigations by hopping channel families.

use gpgpu_covert::arena::{run_arena, ArenaConfig, Attacker};
use gpgpu_sim::{DeviceTuning, SimError};
use gpgpu_spec::{presets, DefenseSpec, Family};

/// An 8-bit tournament over the default defense set: big enough that every
/// family transmits real payloads, small enough for the test profile.
fn small_config() -> ArenaConfig {
    ArenaConfig::new(presets::tesla_k40c()).with_bits(8)
}

#[test]
fn full_tournament_is_deterministic_and_fully_populated() {
    let config = small_config();
    let report = run_arena(&config).unwrap();
    assert_eq!(report.rows.len(), Attacker::ALL.len(), "one row per attacker");
    // Baseline column plus the four default defenses, one of them composed.
    assert_eq!(report.defenses.len(), 5);
    assert_eq!(report.defenses[0], DefenseSpec::none());
    assert!(report.defenses.iter().any(|d| d.components().len() >= 2));
    for row in &report.rows {
        assert_eq!(row.cells.len(), report.defenses.len(), "{:?}", row.attacker);
        for cell in &row.cells {
            assert!(cell.error.is_none(), "{:?}/{}: {:?}", row.attacker, cell.defense, cell.error);
        }
    }
    // Undefended, every attacker delivers with real bandwidth.
    for &attacker in &Attacker::ALL {
        let cell = report.cell(attacker, "none").unwrap();
        assert!(cell.delivered, "{attacker:?} must deliver undefended");
        assert!(cell.residual_bandwidth_kbps > 0.0, "{attacker:?}");
    }
    // Same config, same matrix — bit for bit.
    assert_eq!(run_arena(&config).unwrap(), report);
    // Rendering mentions every row and column.
    let text = report.render();
    for &attacker in &Attacker::ALL {
        assert!(text.contains(attacker.label()), "{text}");
    }
    for defense in &report.defenses {
        assert!(text.contains(&defense.to_spec()), "{text}");
    }
}

#[test]
fn adaptive_attacker_escapes_a_single_mitigation_via_family_fallback() {
    let report = run_arena(&small_config()).unwrap();
    // Cache partitioning kills the static cache rows outright...
    let l1 = report.cell(Attacker::Static(Family::L1), "partition=2").unwrap();
    assert_eq!(l1.residual_bandwidth_kbps, 0.0, "{l1:?}");
    // ...but the ladder walks off the defended resource and still delivers.
    let escapes = report.fallback_escapes();
    assert!(
        escapes.iter().any(|c| c.defense.components().len() == 1),
        "the adaptive attacker must escape at least one single mitigation: {escapes:?}"
    );
    for cell in escapes {
        assert!(cell.delivered && cell.residual_bandwidth_kbps > 0.0, "{cell:?}");
        let family = cell.final_family.as_deref().unwrap();
        assert_ne!(family, "l1-sync", "an escape means the ladder left its home family");
        assert!(
            cell.escalation.iter().any(|line| line.starts_with("fallback")),
            "the escalation trace must record the hop: {:?}",
            cell.escalation
        );
    }
}

#[test]
fn missing_topology_degrades_to_typed_cells_not_an_abort() {
    let config = small_config()
        .without_topology()
        .with_defenses(vec![DefenseSpec::from_spec("partition=2").unwrap()]);
    let report = run_arena(&config).unwrap();
    for defense in ["none", "partition=2"] {
        let cell = report.cell(Attacker::Static(Family::Nvlink), defense).unwrap();
        let err = cell.error.as_deref().expect("nvlink without a topology is not evaluable");
        assert!(err.contains("topology"), "{err}");
        assert_eq!(cell.residual_bandwidth_kbps, 0.0);
        assert!(!cell.delivered);
    }
    // The on-chip rows are untouched by the missing fabric.
    let l1 = report.cell(Attacker::Static(Family::L1), "none").unwrap();
    assert!(l1.error.is_none() && l1.delivered);
    // And the matrix is rendered with the not-evaluable marker.
    assert!(report.render().contains('x'));
}

#[test]
fn conflicting_defense_tunings_stay_typed_errors() {
    // The spec layer refuses the conflicting composition...
    let p2 = DefenseSpec::from_spec("partition=2").unwrap();
    let p4 = DefenseSpec::from_spec("partition=4").unwrap();
    assert!(p2.compose(&p4).is_err());
    // ...and so does the tuning layer, with the conflicting field named.
    let e = DeviceTuning::from_defense(&p2).merge(DeviceTuning::from_defense(&p4)).unwrap_err();
    assert!(matches!(e, SimError::TuningConflict { field: "cache_partitions", .. }), "{e:?}");
}
