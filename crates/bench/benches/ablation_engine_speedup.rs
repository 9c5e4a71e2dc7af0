//! Engine ablation: the event-driven cycle engine and the threaded trial
//! harness against their baselines, on the workloads the paper's evaluation
//! actually runs.
//!
//! 1. **Dense vs event-driven engine** on the Figure-5 iteration sweep:
//!    identical `(bandwidth, BER)` points (the engine may only skip work
//!    that cannot change architectural state) and a single-thread speedup.
//! 2. **TrialRunner scaling** on a 64-trial seeded BER sweep: 1 worker vs 4
//!    workers. The near-linear-scaling assertion only fires on machines
//!    with at least 4 cores; elsewhere the measured ratio is printed.
//! 3. **Tracing overhead** of the `TraceSink` hook: an untraced transmit
//!    against the same transmit with an `EventTrace` installed. The
//!    disabled path is one `Option` check per event site, so it must stay
//!    within 2% of the traced run's floor (in practice it is *faster*; the
//!    assertion guards against the hook growing disabled-path work).
//! 4. **Fault-hook overhead**: the same bound for the `FaultInjector`
//!    hooks — a transmit with no injector installed must stay within 2%
//!    of the same transmit with a zero-intensity fault plan installed.
//!    At intensity 0 no fault ever fires, so the simulated run is
//!    bit-identical, but every hook site still evaluates its window
//!    arithmetic: the comparison isolates exactly the disabled-path cost.
//! 5. **Data-oriented core vs seed path** on the Figure-5 sweep: the seed
//!    configuration (dense engine, device pool disabled — a fresh device
//!    built per transmission) against the optimized stack (event-driven
//!    engine over the SoA warp tables, pooled devices restored from
//!    pristine snapshots). Identical sweep points, wall-clock speedup
//!    asserted, and the numbers are written to `BENCH_sweep.json` for the
//!    CI regression gate — together with the pruned-sweep numbers of the
//!    next section.
//! 6. **Analytical grid pre-pruning** on the same sweep: an
//!    [`AnalyticalModel`] characterized from the cycle engine flags which
//!    grid cells sit in the BER transition band; only those are simulated,
//!    the rest are filled from the closed form. Simulated cells must be
//!    bit-identical to the unpruned sweep, filled cells within the
//!    analytical BER band, and the pruned sweep must not be slower. The
//!    same contract is then replayed on the sub-core Ampere device and
//!    recorded under the `ampere` key of `BENCH_sweep.json` (model fit +
//!    verdict agreement on the modern core).
//! 7. **Zero-alloc trials**: a counting global allocator proves that after
//!    the first (warmup) trial, a `reset_for_trial` + launch +
//!    `run_until_idle` + borrowed-records readback loop performs zero heap
//!    allocations per trial — the arena/pooling contract of the
//!    data-oriented core.

use criterion::{criterion_group, criterion_main, Criterion};
use gpgpu_covert::analytic::AnalyticalModel;
use gpgpu_covert::bits::Message;
use gpgpu_covert::cache_channel::L1Channel;
use gpgpu_covert::harness::{Trial, TrialRunner};
use gpgpu_sim::{DeviceTuning, EngineMode};
use gpgpu_spec::{presets, Family};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts every allocation (and
/// reallocation), so the zero-alloc-per-trial section can assert on the
/// exact number of heap hits in a code region.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counter is a relaxed
// atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

use gpgpu_bench::quick;

/// The Figure-5 sweep on a sequential runner with an explicit engine mode.
fn fig5_sweep(engine: EngineMode) -> Vec<(f64, f64)> {
    let tuning = DeviceTuning { engine, ..DeviceTuning::none() };
    let msg = Message::pseudo_random(64, 3);
    L1Channel::new(presets::tesla_k40c())
        .with_tuning(tuning)
        .error_rate_sweep_on(&TrialRunner::sequential(), &msg, &[20, 12, 8, 4, 2, 1])
        .expect("sweep transmits")
}

/// One seeded BER trial of the 64-trial scaling workload.
fn ber_trial(t: Trial) -> f64 {
    let msg = Message::pseudo_random(8, 0xABBA ^ t.index as u64);
    L1Channel::new(presets::tesla_k40c())
        .with_iterations(4)
        .with_jitter(Some((3_000, t.seed)))
        .transmit(&msg)
        .expect("transmits")
        .ber
}

fn bench(c: &mut Criterion) {
    // --- 1. Dense vs event-driven: identical results, measured speedup. ---
    // The arms are interleaved round-robin and each keeps its best round:
    // machine-speed drift (noisy neighbours, frequency scaling) then hits
    // both arms alike instead of skewing whichever ran later.
    let reps = if quick() { 1 } else { 5 };
    let mut dense_s = f64::INFINITY;
    let mut event_s = f64::INFINITY;
    let (mut dense_pts, mut event_pts) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let start = Instant::now();
        dense_pts = fig5_sweep(EngineMode::Dense);
        dense_s = dense_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        event_pts = fig5_sweep(EngineMode::EventDriven);
        event_s = event_s.min(start.elapsed().as_secs_f64());
    }
    for engine in [EngineMode::Dense, EngineMode::EventDriven] {
        let o = L1Channel::new(presets::tesla_k40c())
            .with_tuning(DeviceTuning { engine, ..DeviceTuning::none() })
            .transmit(&Message::pseudo_random(16, 3))
            .expect("transmits");
        println!("ablation: {engine:?} engine counters: {}", o.stats);
    }
    assert_eq!(dense_pts, event_pts, "event-driven engine changed the Figure-5 series");
    let speedup = dense_s / event_s;
    println!(
        "ablation: fig5 sweep dense {dense_s:.3}s, event-driven {event_s:.3}s -> {speedup:.2}x"
    );
    // Quick mode (CI smoke) runs one repetition: keep the equality check
    // but skip the timing assertion, which needs best-of-3 stability.
    if !quick() {
        assert!(
            speedup >= 1.5,
            "event-driven engine must be >= 1.5x on the Fig 5 sweep, got {speedup:.2}x"
        );
    }

    // --- 2. TrialRunner scaling on a 64-trial BER sweep. ---
    let trials = if quick() { 8 } else { 64 };
    let time_workers = |workers: usize| -> (Vec<f64>, f64) {
        let start = Instant::now();
        let out = TrialRunner::sequential().with_workers(workers).run(trials, ber_trial);
        (out, start.elapsed().as_secs_f64())
    };
    let (seq_out, seq_s) = time_workers(1);
    let (par_out, par_s) = time_workers(4);
    assert_eq!(seq_out, par_out, "worker count changed BER results");
    let scaling = seq_s / par_s;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "ablation: {trials}-trial BER sweep 1 worker {seq_s:.3}s, 4 workers {par_s:.3}s \
         -> {scaling:.2}x ({cores} cores available)"
    );
    if cores >= 4 && !quick() {
        assert!(
            scaling >= 3.0,
            "TrialRunner must scale >= 3x on 4 workers with {cores} cores, got {scaling:.2}x"
        );
    } else {
        println!("ablation: scaling assertion skipped ({cores} cores, quick={})", quick());
    }

    // --- 3. Tracing overhead: disabled hook vs live EventTrace sink. ---
    let trace_reps = if quick() { 1 } else { 5 };
    let msg = Message::pseudo_random(32, 7);
    let ch = L1Channel::new(presets::tesla_k40c());
    let best_of = |f: &dyn Fn()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..trace_reps {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let disabled_s = best_of(&|| {
        ch.transmit(&msg).expect("transmits");
    });
    let traced_s = best_of(&|| {
        ch.transmit_traced(&msg, 4096).expect("transmits");
    });
    println!(
        "ablation: 32-bit L1 transmit untraced {disabled_s:.3}s, traced {traced_s:.3}s \
         -> disabled/traced = {:.3}",
        disabled_s / traced_s
    );
    if !quick() {
        // The traced run does strictly more work (it records every event),
        // so the disabled path staying within 2% of it bounds the hook's
        // disabled-path cost well under the 2% budget.
        assert!(
            disabled_s <= traced_s * 1.02,
            "tracing-disabled path must be within 2% of the traced run, \
             got disabled {disabled_s:.3}s vs traced {traced_s:.3}s"
        );
    }

    // --- 4. Fault-hook overhead: no injector vs a zero-intensity plan. ---
    let sync_msg = Message::pseudo_random(24, 11);
    let sync_ch = gpgpu_covert::sync_channel::SyncChannel::new(presets::tesla_k40c());
    let quiet_plan = gpgpu_sim::FaultPlan::new(0xAB1A)
        .with_intensity(0.0)
        .with_kinds(gpgpu_sim::FaultKinds::all());
    let bare = sync_ch.clone().transmit(&sync_msg).expect("transmits");
    let quiet = sync_ch.clone().with_faults(quiet_plan).transmit(&sync_msg).expect("transmits");
    assert_eq!(
        (bare.cycles, &bare.received),
        (quiet.cycles, &quiet.received),
        "a zero-intensity fault plan must not perturb the run"
    );
    let fault_free_s = best_of(&|| {
        sync_ch.clone().transmit(&sync_msg).expect("transmits");
    });
    let hooked_s = best_of(&|| {
        sync_ch.clone().with_faults(quiet_plan).transmit(&sync_msg).expect("transmits");
    });
    println!(
        "ablation: 24-bit sync transmit no-injector {fault_free_s:.3}s, quiet-injector \
         {hooked_s:.3}s -> disabled/hooked = {:.3}",
        fault_free_s / hooked_s
    );
    if !quick() {
        // The quiet-injector run simulates the identical protocol but pays
        // the window arithmetic at every hook site, so the no-injector path
        // staying within 2% of it bounds the disabled-hook cost.
        assert!(
            fault_free_s <= hooked_s * 1.02,
            "fault-disabled path must be within 2% of the quiet-injector run, \
             got disabled {fault_free_s:.3}s vs hooked {hooked_s:.3}s"
        );
    }

    // --- 5. Data-oriented core vs the seed path, with a JSON artifact. ---
    // Seed configuration: dense engine, pooling off — every transmission
    // builds its device from scratch, as the seed code did. Optimized:
    // event-driven engine over the SoA core, devices pooled and restored
    // from pristine snapshots between trials.
    // Interleaved like section 1, for the same drift immunity.
    let run_arm = |engine: EngineMode, pooled: bool| -> (Vec<(f64, f64)>, f64) {
        gpgpu_covert::pool::set_disabled(!pooled);
        gpgpu_covert::pool::clear();
        let start = Instant::now();
        let pts = fig5_sweep(engine);
        (pts, start.elapsed().as_secs_f64())
    };
    let mut seed_s = f64::INFINITY;
    let mut opt_s = f64::INFINITY;
    let (mut seed_pts, mut opt_pts) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (pts, t) = run_arm(EngineMode::Dense, false);
        seed_pts = pts;
        seed_s = seed_s.min(t);
        let (pts, t) = run_arm(EngineMode::EventDriven, true);
        opt_pts = pts;
        opt_s = opt_s.min(t);
    }
    gpgpu_covert::pool::set_disabled(false);
    assert_eq!(seed_pts, opt_pts, "the data-oriented stack changed the Figure-5 series");
    let core_speedup = seed_s / opt_s;
    println!(
        "ablation: fig5 sweep seed path {seed_s:.3}s, data-oriented {opt_s:.3}s \
         -> {core_speedup:.2}x"
    );
    if !quick() {
        assert!(
            core_speedup >= 2.0,
            "the data-oriented core must be >= 2x the seed path on the Fig 5 sweep, \
             got {core_speedup:.2}x"
        );
    }

    // --- 6. Analytical pre-pruning of the same Figure-5 sweep. ---
    // The closed-form model is characterized once from the cycle engine (a
    // one-time cost, timed and printed separately — it amortizes across
    // every sweep that reuses the table). At sweep time it flags which grid
    // cells fall in the BER transition band: only those are simulated, the
    // rest come from the closed form. The contract: simulated cells are
    // bit-identical to the unpruned sweep, filled cells stay within the
    // analytical BER band, and skipping the settled cells cuts wall clock.
    let grid: [u64; 6] = [20, 12, 8, 4, 2, 1];
    let sweep_msg = Message::pseudo_random(64, 3);
    let char_start = Instant::now();
    let model = AnalyticalModel::characterize_families(&presets::tesla_k40c(), &[Family::L1])
        .expect("l1 characterization succeeds");
    let char_s = char_start.elapsed().as_secs_f64();
    let channel = L1Channel::new(presets::tesla_k40c())
        .with_tuning(DeviceTuning { engine: EngineMode::EventDriven, ..DeviceTuning::none() });
    let runner = TrialRunner::sequential();
    let mut unpruned_s = f64::INFINITY;
    let mut pruned_s = f64::INFINITY;
    let (mut unpruned_pts, mut pruned_pts) = (Vec::new(), Vec::new());
    let mut mask = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        unpruned_pts =
            channel.error_rate_sweep_on(&runner, &sweep_msg, &grid).expect("unpruned sweep runs");
        unpruned_s = unpruned_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let (pts, m) = model
            .pruned_error_rate_sweep(&runner, &channel, Family::L1, &sweep_msg, &grid)
            .expect("pruned sweep runs");
        pruned_s = pruned_s.min(start.elapsed().as_secs_f64());
        pruned_pts = pts;
        mask = m;
    }
    let cells_simulated = mask.iter().filter(|&&keep| keep).count();
    assert!(
        cells_simulated > 0 && cells_simulated < grid.len(),
        "the model must prune some cells but not all (simulated {cells_simulated}/{})",
        grid.len()
    );
    let mut max_ber_err: f64 = 0.0;
    for (i, &keep) in mask.iter().enumerate() {
        if keep {
            assert_eq!(
                unpruned_pts[i], pruned_pts[i],
                "a simulated cell must be bit-identical to the unpruned sweep"
            );
        } else {
            max_ber_err = max_ber_err.max((unpruned_pts[i].1 - pruned_pts[i].1).abs());
        }
    }
    assert!(
        max_ber_err <= 0.12,
        "a model-filled cell left the analytical BER band: max error {max_ber_err:.4}"
    );
    let pruned_speedup = unpruned_s / pruned_s;
    println!(
        "ablation: fig5 sweep unpruned {unpruned_s:.3}s, pruned {pruned_s:.3}s \
         ({cells_simulated}/{} cells simulated; one-time characterization {char_s:.3}s) \
         -> {pruned_speedup:.2}x, max filled-cell BER error {max_ber_err:.4}",
        grid.len()
    );
    if !quick() {
        assert!(
            pruned_speedup >= 1.0,
            "the pruned sweep must not be slower than the unpruned one, got {pruned_speedup:.2}x"
        );
    }

    // --- 6b. The same pruned-sweep contract on the sub-core Ampere device:
    // the arch-generic characterization must fit the modern core well enough
    // that filled cells stay in the BER band and no confident verdict flips.
    let ampere_model = AnalyticalModel::characterize_families(&presets::rtx_a4000(), &[Family::L1])
        .expect("ampere l1 characterization succeeds");
    let ampere_channel = L1Channel::new(presets::rtx_a4000())
        .with_tuning(DeviceTuning { engine: EngineMode::EventDriven, ..DeviceTuning::none() });
    let ampere_unpruned =
        ampere_channel.error_rate_sweep_on(&runner, &sweep_msg, &grid).expect("ampere sweep runs");
    let (ampere_pruned, ampere_mask) = ampere_model
        .pruned_error_rate_sweep(&runner, &ampere_channel, Family::L1, &sweep_msg, &grid)
        .expect("ampere pruned sweep runs");
    let ampere_simulated = ampere_mask.iter().filter(|&&keep| keep).count();
    let mut ampere_max_ber_err: f64 = 0.0;
    let mut ampere_verdicts_agree = true;
    for (i, &keep) in ampere_mask.iter().enumerate() {
        if keep {
            assert_eq!(
                ampere_unpruned[i], ampere_pruned[i],
                "an ampere simulated cell must be bit-identical to the unpruned sweep"
            );
        } else {
            ampere_max_ber_err =
                ampere_max_ber_err.max((ampere_unpruned[i].1 - ampere_pruned[i].1).abs());
            let confident = ampere_unpruned[i].1 <= 0.05 || ampere_unpruned[i].1 >= 0.35;
            if confident && ((ampere_unpruned[i].1 > 0.2) != (ampere_pruned[i].1 > 0.2)) {
                ampere_verdicts_agree = false;
            }
        }
    }
    assert!(
        ampere_max_ber_err <= 0.12,
        "an ampere model-filled cell left the analytical BER band: {ampere_max_ber_err:.4}"
    );
    assert!(ampere_verdicts_agree, "an ampere filled cell flipped a confident verdict");
    println!(
        "ablation: ampere fig5 sweep {ampere_simulated}/{} cells simulated, \
         max filled-cell BER error {ampere_max_ber_err:.4}, verdict agreement: yes",
        grid.len()
    );

    let json = format!(
        "{{\n  \"workload\": \"fig5_l1_iteration_sweep\",\n  \"seed_path_s\": {seed_s:.6},\n  \
         \"optimized_s\": {opt_s:.6},\n  \"speedup\": {core_speedup:.4},\n  \
         \"points\": {},\n  \"quick\": {},\n  \"pruned\": {{\n    \"cells_total\": {},\n    \
         \"cells_simulated\": {cells_simulated},\n    \"unpruned_s\": {unpruned_s:.6},\n    \
         \"pruned_s\": {pruned_s:.6},\n    \"speedup\": {pruned_speedup:.4},\n    \
         \"max_ber_err\": {max_ber_err:.6}\n  }},\n  \"ampere\": {{\n    \"device\": \"RTX A4000\",\n    \
         \"cells_total\": {},\n    \"cells_simulated\": {ampere_simulated},\n    \
         \"max_ber_err\": {ampere_max_ber_err:.6},\n    \
         \"verdicts_agree\": {ampere_verdicts_agree}\n  }}\n}}\n",
        seed_pts.len(),
        quick(),
        grid.len(),
        grid.len()
    );
    // Anchor at the workspace root regardless of the bench's cwd (cargo
    // runs benches from the package directory).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(out, json).expect("BENCH_sweep.json is writable");

    // --- 7. Zero heap allocations per trial after warmup. ---
    // The trial loop a sweep cell runs: reset the device in place, launch a
    // prebuilt kernel (Arc-backed spec, so clone is a refcount bump), run
    // to idle and read the results through the borrowed accessor. After
    // the warmup trial has sized every arena, the loop must not touch the
    // heap at all.
    {
        let spec = presets::tesla_k40c();
        let mut dev = gpgpu_sim::Device::new(spec.clone());
        let mut b = gpgpu_isa::ProgramBuilder::new();
        b.repeat(gpgpu_isa::Reg(20), 32, |b| {
            b.mov_imm(gpgpu_isa::Reg(0), 64);
            b.const_load(gpgpu_isa::Reg(0));
            b.add_imm(gpgpu_isa::Reg(1), gpgpu_isa::Reg(1), 1);
        });
        b.push_result(gpgpu_isa::Reg(1));
        let kernel = gpgpu_sim::KernelSpec::new(
            "trial",
            b.build().expect("assembles"),
            gpgpu_spec::LaunchConfig::new(spec.num_sms, 64),
        );
        let trials = if quick() { 8 } else { 32 };
        let mut max_delta = 0u64;
        let mut checksum = 0u64;
        for trial in 0..trials {
            let before = allocations();
            dev.reset_for_trial();
            let k = dev.launch(0, kernel.clone()).expect("launches");
            dev.run_until_idle(10_000_000).expect("completes");
            let sum: u64 = dev
                .block_records(k)
                .expect("complete")
                .iter()
                .flat_map(|blk| blk.warp_results.iter().flatten())
                .sum();
            let delta = allocations() - before;
            // Trials 0 and 1 may size arenas (cold tables, first recycle);
            // from the second reuse on the loop must be allocation-free.
            if trial >= 2 {
                max_delta = max_delta.max(delta);
            }
            checksum = checksum.wrapping_add(sum);
            assert!(sum > 0, "the trial kernel pushed results");
        }
        println!(
            "ablation: {trials} reset_for_trial trials, max allocations/trial after warmup: \
             {max_delta} (checksum {checksum})"
        );
        assert_eq!(
            max_delta, 0,
            "a warmed-up reset_for_trial loop must perform zero heap allocations per trial"
        );
    }

    c.bench_function("engine_event_driven_fig5_sweep", |b| {
        b.iter(|| fig5_sweep(EngineMode::EventDriven))
    });
    c.bench_function("engine_dense_fig5_sweep", |b| b.iter(|| fig5_sweep(EngineMode::Dense)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
