//! End-to-end tests of the resilient sweep service: chaos convergence,
//! hard-kill resume, cache quarantine, and typed per-cell degradation.
//!
//! The central claim under test is the determinism contract: a sweep's
//! *results* are a pure function of its request, so a chaos-ridden run
//! (worker kills, stalls, cache rot), a warm-cache run and a journal-resumed
//! run must all produce a matrix **bit-identical** to a clean first run —
//! only the per-cell provenance (computed / cached / resumed / recovered)
//! may differ. The chaos schedule makes that assertion sound rather than
//! probabilistic: each cell suffers a bounded number of injected failures
//! ([`ChaosPlan::attempts_to_converge`]), so a sufficient attempt budget
//! *guarantees* convergence.

use gpgpu_covert::harness::{TrialError, TrialRunner};
use gpgpu_serve::{CellStatus, ChaosPlan, ResultCache, ServeError, SweepService};
use gpgpu_spec::{Family, SweepRequest, TopologySpec};
use std::path::PathBuf;

/// Fresh scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpgpu-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but multi-axis grid: 2 families × 2 symbol times × 2 fault
/// plans = 8 cells, mixing clean and noisy operating points.
fn grid() -> SweepRequest {
    SweepRequest::from_spec(
        "device=kepler;family=l1+atomic;iters=4+8;bits=8;seed=0x5eed;\
         faults=none|seed=7,intensity=0.5,kinds=evict+storm",
    )
    .unwrap()
}

#[test]
fn a_chaos_ridden_sweep_is_bit_identical_to_a_clean_run() {
    let dir = scratch("chaos");
    let clean = SweepService::new(grid()).unwrap().run().unwrap();
    assert!(clean.is_complete());
    assert_eq!(clean.outcomes.len(), 8);
    assert_eq!(clean.stats.computed, 8);

    let chaos = ChaosPlan::from_spec("seed=0xC4A05,kills=2,stalls=1,corrupt=2").unwrap();
    let stormy = SweepService::new(grid())
        .unwrap()
        .with_cache_dir(&dir)
        .unwrap()
        .with_chaos(chaos)
        .with_max_attempts(chaos.attempts_to_converge())
        .with_backoff_base_ms(0)
        .run()
        .unwrap();
    assert!(stormy.is_complete(), "every injected failure must be recovered");
    assert!(stormy.stats.retries > 0, "this chaos seed injects at least one failure");
    assert_eq!(stormy.digest(), clean.digest(), "chaos must not change a single bit");
    for (a, b) in clean.outcomes.iter().zip(&stormy.outcomes) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.status.result(), b.status.result(), "cell {} diverged", a.key);
    }
    for o in &stormy.outcomes {
        if let CellStatus::Recovered { attempts, last_error, .. } = &o.status {
            assert!(*attempts > 1);
            assert!(last_error.is_transient(), "only transient errors are retried: {last_error}");
        }
    }

    // Warm re-run over the same cache: everything served from disk,
    // still bit-identical.
    let warm = SweepService::new(grid()).unwrap().with_cache_dir(&dir).unwrap().run().unwrap();
    assert_eq!(warm.stats.cached, 8, "{:?}", warm.stats);
    assert_eq!(warm.digest(), clean.digest());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_exhausted_attempt_budget_is_a_typed_outcome_not_an_abort() {
    let chaos = ChaosPlan::from_spec("seed=0xC4A05,kills=2,stalls=1").unwrap();
    let matrix = SweepService::new(grid())
        .unwrap()
        .with_chaos(chaos)
        .with_max_attempts(1) // far below attempts_to_converge() == 4
        .with_backoff_base_ms(0)
        .run()
        .unwrap();
    assert_eq!(matrix.outcomes.len(), 8, "a failing cell never aborts the sweep");
    assert!(matrix.stats.failed > 0, "this seed kills at least one cell's only attempt");
    for o in &matrix.outcomes {
        if let CellStatus::Failed { error, attempts } = &o.status {
            assert_eq!(*attempts, 1);
            assert!(error.is_transient(), "budget exhaustion ends on the injected error");
        }
    }
}

#[test]
fn journal_resume_completes_a_hard_killed_run_bit_identically() {
    let dir = scratch("resume");
    let journal = dir.join("journal.log");
    let full = SweepService::new(grid()).unwrap().with_journal(&journal, false).run().unwrap();
    assert!(full.is_complete());

    // Simulate `kill -9` mid-run: keep the header and the first 3
    // journaled cells, tear the 4th line in half.
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 9, "header + 8 cells");
    let mut torn: Vec<String> = lines[..4].iter().map(|l| l.to_string()).collect();
    torn.push(lines[4][..lines[4].len() / 2].to_string());
    std::fs::write(&journal, torn.join("\n") + "\n").unwrap();

    let resumed = SweepService::new(grid()).unwrap().with_journal(&journal, true).run().unwrap();
    assert_eq!(resumed.stats.resumed, 3, "{:?}", resumed.stats);
    assert_eq!(resumed.stats.computed, 5);
    assert!(resumed.recovery_note.is_some(), "the torn line is reported, not hidden");
    assert_eq!(resumed.digest(), full.digest(), "resume must be bit-identical");

    // A finished journal recomputes nothing.
    let again = SweepService::new(grid()).unwrap().with_journal(&journal, true).run().unwrap();
    assert_eq!((again.stats.computed, again.stats.resumed), (0, 8), "{:?}", again.stats);
    assert!(again.recovery_note.is_none());
    assert_eq!(again.digest(), full.digest());

    // A journal from a *different* request refuses to resume outright.
    let other = SweepRequest::from_spec("device=kepler;family=l1;iters=4;bits=8").unwrap();
    let err = SweepService::new(other).unwrap().with_journal(&journal, true).run().unwrap_err();
    assert!(matches!(err, ServeError::Journal(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_are_quarantined_and_recomputed() {
    let dir = scratch("quarantine");
    let service = SweepService::new(grid()).unwrap().with_cache_dir(&dir).unwrap();
    let keys = service.keys();
    let first = service.run().unwrap();
    assert_eq!(first.stats.computed, 8);

    // Rot one entry at rest: flip a byte in the middle of the file.
    let cache = ResultCache::open(&dir).unwrap();
    let victim = cache.entry_path(&keys[2]);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&victim, bytes).unwrap();

    let second = SweepService::new(grid()).unwrap().with_cache_dir(&dir).unwrap().run().unwrap();
    assert_eq!(second.stats.cached, 7, "{:?}", second.stats);
    assert_eq!(second.stats.computed, 1, "the rotted cell is recomputed");
    assert_eq!(second.stats.quarantined, 1);
    assert_eq!(second.digest(), first.digest(), "recomputation restores the exact bits");
    let poisoned = &second.outcomes[2];
    assert!(poisoned.quarantined.is_some());
    assert!(!poisoned.quarantined.as_ref().unwrap().is_miss());
    let quarantined: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().to_string_lossy().ends_with(".quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "the corpse is kept for post-mortem");

    // Third run: the recomputed entry is served from cache again.
    let third = SweepService::new(grid()).unwrap().with_cache_dir(&dir).unwrap().run().unwrap();
    assert_eq!(third.stats.cached, 8);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn impossible_cells_fail_fast_with_typed_errors_and_spare_their_neighbors() {
    // nvlink without a topology and parallel-sfu with a fault plan are
    // *deterministically* impossible: they must fail on attempt 1 with a
    // precise error while the rest of the grid completes.
    let request = SweepRequest::from_spec(
        "device=kepler;family=l1+parallel-sfu+nvlink;iters=4;bits=8;\
         faults=none|seed=7,intensity=0.5,kinds=evict+storm",
    )
    .unwrap();
    let matrix = SweepService::new(request).unwrap().run().unwrap();
    assert_eq!(matrix.outcomes.len(), 6);
    assert_eq!(matrix.stats.failed, 3, "{}", matrix.render());
    assert_eq!(matrix.stats.retries, 0, "deterministic failures are never retried");
    for o in &matrix.outcomes {
        let impossible = o.cell.family == Family::Nvlink
            || (o.cell.family == Family::ParallelSfu && o.cell.faults != "none");
        match &o.status {
            CellStatus::Failed { error, attempts } => {
                assert!(impossible, "unexpected failure on {}: {error}", o.key);
                assert_eq!(*attempts, 1, "fail fast, not retry-until-budget");
                assert!(
                    matches!(error, TrialError::Misconfigured { .. }),
                    "precise error class for {}: {error}",
                    o.key
                );
            }
            _ => assert!(!impossible, "{} should be impossible", o.key),
        }
    }

    // With a topology supplied, the same nvlink cell computes.
    let topo = TopologySpec::dual("kepler").unwrap().to_spec();
    let request = SweepRequest::from_spec(&format!(
        "device=kepler;family=nvlink;iters=4;bits=8;topology={topo}"
    ))
    .unwrap();
    let matrix = SweepService::new(request).unwrap().run().unwrap();
    assert!(matrix.is_complete(), "{}", matrix.render());
}

#[test]
fn bad_requests_and_bad_fault_axes_are_run_level_errors() {
    // `sfu` is a family, but not one of the sweep's matrix rows.
    let unknown_family = SweepRequest { families: vec![Family::Sfu], ..SweepRequest::default() };
    assert!(matches!(SweepService::new(unknown_family), Err(ServeError::Request(_))));

    let bad_fault = SweepRequest { faults: vec!["seed=banana".into()], ..SweepRequest::default() };
    match SweepService::new(bad_fault) {
        Err(ServeError::InvalidFaults { spec, .. }) => assert_eq!(spec, "seed=banana"),
        other => panic!("expected InvalidFaults, got {other:?}"),
    }
}

#[test]
fn equivalent_fault_spellings_share_cache_cells() {
    // The fault axis canonicalizes through FaultPlan's round trip, so a
    // spelling variant (spaces, different key order) addresses the same
    // cache entry instead of recomputing it.
    let dir = scratch("canonical");
    let a = SweepRequest::from_spec(
        "device=kepler;family=l1;iters=4;bits=8;faults=seed=7,intensity=0.5,kinds=evict+storm",
    )
    .unwrap();
    let b = SweepRequest::from_spec(
        "device=kepler;family=l1;iters=4;bits=8;faults=intensity=0.5, kinds=evict+storm, seed=7",
    )
    .unwrap();
    let first = SweepService::new(a).unwrap().with_cache_dir(&dir).unwrap().run().unwrap();
    assert_eq!(first.stats.computed, 1);
    let second = SweepService::new(b).unwrap().with_cache_dir(&dir).unwrap().run().unwrap();
    assert_eq!(second.stats.cached, 1, "spelling variants must hit, not miss");
    assert_eq!(first.digest(), second.digest());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_count_does_not_change_the_matrix() {
    let sequential =
        SweepService::new(grid()).unwrap().with_runner(TrialRunner::sequential()).run().unwrap();
    let wide = SweepService::new(grid())
        .unwrap()
        .with_runner(TrialRunner::new().with_workers(8))
        .run()
        .unwrap();
    assert_eq!(sequential.digest(), wide.digest());
}

#[test]
fn backoff_is_seeded_exponential_and_reproducible() {
    let service = SweepService::new(grid()).unwrap().with_backoff_base_ms(4);
    let d1 = service.backoff_delay_ms(0xABCD, 1);
    let d2 = service.backoff_delay_ms(0xABCD, 2);
    let d3 = service.backoff_delay_ms(0xABCD, 3);
    // Windows double: delay_n lies in [base * 2^(n-1), 2 * base * 2^(n-1)].
    assert!((4..=8).contains(&d1), "{d1}");
    assert!((8..=16).contains(&d2), "{d2}");
    assert!((16..=32).contains(&d3), "{d3}");
    assert_eq!(d1, service.backoff_delay_ms(0xABCD, 1), "pure function of (cell, retry)");
    assert!(service.backoff_delay_ms(0x1234, 1) <= 8);
    let disabled = SweepService::new(grid()).unwrap().with_backoff_base_ms(0);
    assert_eq!(disabled.backoff_delay_ms(0xABCD, 3), 0);
}

#[test]
fn the_rendered_matrix_carries_the_digest_line_and_json_is_well_formed() {
    let request = SweepRequest::from_spec("device=kepler;family=l1;iters=4;bits=8").unwrap();
    let matrix = SweepService::new(request).unwrap().run().unwrap();
    let text = matrix.render();
    let digest_line = format!("matrix digest {:#018x}", matrix.digest());
    assert!(text.contains(&digest_line), "{text}");
    assert!(text.contains("cells=1 computed=1"), "{text}");
    let json = matrix.to_json();
    assert!(json.contains("\"digest\""), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
}
