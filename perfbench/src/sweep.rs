//! `sweep`: a `SweepService` run over the `sweep_service` bench grid
//! (Kepler+Maxwell x l1/sync/atomic x 2 iteration counts x 2 fault plans =
//! 24 cells).
//!
//! Each pass runs cold into a fresh cache directory with a journal, which
//! computes and writes every cell; then warm replays serve every cell from
//! the cache with no simulation; then a resumed run recovers every cell
//! from the journal. The cold pass writes and the warm replays read the
//! same cache layer, so a gain for one use that costs the other shows.
//! The service's default `TrialRunner` runs the cells on up to `nproc`
//! workers.

use crate::inputs::{digest, Rng};
use crate::{guarded, probe_pool, spec_layer, Ctx, Outcome};
use gpgpu_covert::bits::Message;
use gpgpu_serve::{
    fnv1a64, CellResult, Journal, ResultCache, ServiceStats, SweepMatrix, SweepService,
};
use gpgpu_sim::DeviceTuning;
use gpgpu_spec::{presets, SweepRequest};
use std::path::Path;
use std::time::Instant;

/// Warm replays per pass.
const WARM_REPLAYS: usize = 50;

/// Message length of every cell.
const BITS: usize = 24;

fn request_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed ^ 0x53EE);
    // The service derives every cell's payload from the request's message
    // seed; take the first seeded candidate whose payload is half ones, so
    // the seed changes the inputs without changing how much work there is
    // (as the balanced messages of the other workloads do).
    let message_seed = std::iter::repeat_with(|| rng.next_u64() >> 16)
        .find(|&s| {
            Message::pseudo_random(BITS, s).bits().iter().filter(|&&b| b).count() == BITS / 2
        })
        .expect("the seeded candidates include balanced payloads");
    format!(
        "device=kepler+maxwell;family=l1+sync+atomic;iters=16+32;bits={BITS};seed={message_seed:#x};\
         faults=none|seed={},intensity=0.5,kinds=evict+storm",
        rng.below(1 << 16)
    )
}

fn service(
    request: &SweepRequest,
    cache: Option<&Path>,
    journal: Option<(&Path, bool)>,
) -> Result<SweepService, String> {
    let mut s = SweepService::new(request.clone()).map_err(|e| e.to_string())?;
    if let Some(dir) = cache {
        s = s.with_cache_dir(dir).map_err(|e| e.to_string())?;
    }
    if let Some((path, resume)) = journal {
        s = s.with_journal(path, resume);
    }
    Ok(s)
}

fn run_service(s: &SweepService) -> Result<SweepMatrix, String> {
    guarded(|| s.run().map_err(|e| e.to_string()))
}

fn setup(ctx: &mut Ctx, text: &str, rep: &mut usize) -> SweepRequest {
    let request = ctx
        .tracer
        .span("spec.sweep", |_| SweepRequest::from_spec(text))
        .expect("sweep spec parses");
    *rep += 1;
    let dir = ctx.scratch.join(format!("setup-{rep}"));
    let built = ctx
        .tracer
        .span("spec.resolve", |_| SweepService::new(request.clone()))
        .expect("grid resolves");
    ctx.tracer
        .span("serve.cache_dir", |_| built.with_cache_dir(&dir))
        .expect("scratch cache dir opens");
    request
}

/// Per-cell accounting of one service run: every cell is an operation;
/// a failed cell, a cell served from the wrong source or a digest that
/// differs from the cold run's fails it.
fn account(
    ctx: &mut Ctx,
    what: &str,
    m: &SweepMatrix,
    source_ok: impl Fn(&SweepMatrix) -> bool,
    want: u64,
) {
    let cells = m.outcomes.len();
    let all_ok = m.is_complete() && m.stats.failed == 0 && source_ok(m) && m.digest() == want;
    for o in &m.outcomes {
        let ok = all_ok && o.status.result().is_some();
        ctx.ops.check(ok, || {
            format!(
                "sweep {what} cell {}: {} ({cells} cells, stats {:?}, digest {:#018x} want {want:#018x})",
                o.key,
                o.status.label(),
                m.stats,
                m.digest()
            )
        });
    }
}

/// Calls the cache and journal directly on the cold run's keys and
/// results, in the benchmark's own directory, to time each I/O call.
fn probe_serve(ctx: &mut Ctx, dir: &Path, cold: &SweepMatrix) {
    let entries: Vec<(String, CellResult)> = cold
        .outcomes
        .iter()
        .filter_map(|o| o.status.result().map(|r| (o.key.clone(), r.clone())))
        .collect();
    let t = &mut ctx.tracer;
    let cache = ResultCache::open(dir.join("probe-cache")).expect("probe cache dir opens");
    let mut ok = true;
    for (key, result) in &entries {
        ok &= t.span("serve.cache_store", |_| cache.store(key, result)).is_ok();
    }
    for (key, result) in &entries {
        ok &= t.span("serve.cache_load", |_| cache.load(key)).is_ok_and(|r| r == *result);
    }
    let path = dir.join("probe-journal");
    let hash = fnv1a64(cold.request.to_spec().as_bytes());
    match t.span("serve.journal_create", |_| Journal::create(&path, hash, entries.len())) {
        Ok(journal) => {
            for (i, (_, result)) in entries.iter().enumerate() {
                ok &= t.span("serve.journal_append", |_| journal.append(i, result)).is_ok();
            }
        }
        Err(_) => ok = false,
    }
    let resumed = t.span("serve.journal_resume", |_| Journal::resume(&path, hash, entries.len()));
    ok &= resumed.is_ok_and(|(_, rec)| rec.entries.len() == entries.len() && rec.damage.is_none());
    ctx.ops.check(ok, || "serve I/O probe: a store, load, append or resume failed".into());
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let text = request_spec(ctx.seed);
    eprintln!("perfbench: sweep request {text}");
    let mut rep = 0;
    let mut reference: Option<u64> = None;
    // Host seconds of every cold run and every warm replay, and the
    // cells and simulated cycles of one run (identical in every pass).
    let mut cold_runs: Vec<f64> = Vec::new();
    let mut warm_replays: Vec<f64> = Vec::new();
    let (mut cells, mut cycles) = (0usize, 0u64);
    let mut first_stats: Option<(ServiceStats, ServiceStats)> = None;
    let run = ctx.run(
        2,
        |ctx| setup(ctx, &text, &mut rep),
        |ctx, plan, request| {
            let dir = ctx.scratch.join(format!("pass-{}", plan.index));
            let journal = dir.join("journal");
            let built = service(request, Some(&dir), Some((&journal, false)))
                .and_then(|cold| Ok((cold, service(request, Some(&dir), None)?)))
                .and_then(|(cold, warm)| {
                    Ok((cold, warm, service(request, None, Some((&journal, true)))?))
                });
            let (cold_service, warm_service, resume_service) = match built {
                Ok(services) => services,
                Err(e) => {
                    ctx.ops.check(false, || format!("sweep service set-up: {e}"));
                    return 0.0;
                }
            };

            let t = Instant::now();
            let cold = ctx.tracer.span("service.cold", |_| run_service(&cold_service));
            let cold_s = t.elapsed().as_secs_f64();
            let cold = match cold {
                Ok(m) => m,
                Err(e) => {
                    ctx.ops.check(false, || format!("sweep cold run: {e}"));
                    let _ = std::fs::remove_dir_all(&dir);
                    return 0.0;
                }
            };
            let want = *reference.get_or_insert(cold.digest());
            account(ctx, "cold", &cold, |m| m.stats.computed == m.outcomes.len(), want);
            cold_runs.push(cold_s);
            cells = cold.outcomes.len();
            cycles = cold.outcomes.iter().filter_map(|o| o.status.result()).map(|r| r.cycles).sum();

            let mut warm_stats = ServiceStats::default();
            let mut batch = Vec::with_capacity(WARM_REPLAYS);
            for _ in 0..WARM_REPLAYS {
                let t = Instant::now();
                let warm = ctx.tracer.span("service.warm", |_| run_service(&warm_service));
                warm_replays.push(t.elapsed().as_secs_f64());
                batch.push(warm);
            }
            for warm in batch {
                match warm {
                    Ok(m) => {
                        account(ctx, "warm", &m, |m| m.stats.cached == m.outcomes.len(), want);
                        warm_stats = m.stats;
                    }
                    Err(e) => {
                        ctx.ops.check(false, || format!("sweep warm replay: {e}"));
                    }
                }
            }
            first_stats.get_or_insert((cold.stats, warm_stats));

            match ctx.tracer.span("service.resume", |_| run_service(&resume_service)) {
                Ok(m) => account(ctx, "resumed", &m, |m| m.stats.resumed == m.outcomes.len(), want),
                Err(e) => {
                    ctx.ops.check(false, || format!("sweep resumed run: {e}"));
                }
            }
            let mut probe_s = 0.0;
            if plan.traced {
                let t = Instant::now();
                let span = ctx.tracer.begin("bench.probe");
                probe_serve(ctx, &dir, &cold);
                ctx.tracer.end(span);
                probe_s = t.elapsed().as_secs_f64();
            }
            let _ = std::fs::remove_dir_all(&dir);
            probe_s
        },
    );
    let records = run.records;
    let mut out = Outcome { setup_s: run.setup_s, ..Outcome::default() };
    out.digest = digest(&[format!("{:#018x}", reference.unwrap_or(0))]);

    // As for the per-transmission workloads, the fastest run is the
    // steadiest estimate of a deterministic run's cost on a shared host.
    let fastest = |v: &[f64]| v.iter().copied().reduce(f64::min).unwrap_or(0.0);
    let per_s = |work: f64, s: f64| if s > 0.0 { work / s } else { 0.0 };
    out.cold_cells_per_s = per_s(cells as f64, fastest(&cold_runs));
    out.warm_cells_per_s = per_s(cells as f64, fastest(&warm_replays));
    out.tx_per_s = out.cold_cells_per_s;
    out.sim_cycles_per_s = per_s(cycles as f64, fastest(&cold_runs));
    eprintln!("perfbench: sweep cold_run_s {}", crate::stats::summary(&cold_runs));
    eprintln!("perfbench: sweep warm_replay_s {}", crate::stats::summary(&warm_replays));

    if ctx.traced {
        let devices: Vec<_> = ["kepler", "maxwell"]
            .iter()
            .map(|d| {
                (
                    presets::by_name(d).expect("sweep devices are preset aliases"),
                    DeviceTuning::none(),
                )
            })
            .collect();
        let (build, restore) = probe_pool(ctx, &devices);
        spec_layer(ctx, out.setup_s.len(), &mut out.layers);
        out.layers.insert("pool.build_us", build);
        out.layers.insert("pool.restore_us", restore);
        let us = |name: &str| {
            let v: Vec<f64> = ctx.tracer.durations_ns(name).iter().map(|n| n / 1e3).collect();
            crate::stats::median(&v).unwrap_or(0.0)
        };
        let (load, store, append) =
            (us("serve.cache_load"), us("serve.cache_store"), us("serve.journal_append"));
        let resume_ms = us("serve.journal_resume") / 1e3;
        let l = &mut out.layers;
        l.insert("serve.cache_load_us", load);
        l.insert("serve.cache_store_us", store);
        l.insert("serve.journal_append_us", append);
        l.insert("serve.journal_resume_ms", resume_ms);
        let warm_us = crate::stats::median(&warm_replays).unwrap_or(0.0) * 1e6;
        let cells = cells as f64;
        l.insert(
            "serve.warm_overhead_share",
            if warm_us > 0.0 { (1.0 - cells * load / warm_us).max(0.0) } else { 0.0 },
        );
        if let Some((cold, warm)) = first_stats {
            l.insert(
                "serve.warm_hit_ratio",
                if cells > 0.0 { warm.cached as f64 / cells } else { 0.0 },
            );
            l.insert("serve.computed", (cold.computed + warm.computed) as f64);
            l.insert("serve.cached", (cold.cached + warm.cached) as f64);
            l.insert("serve.failed", (cold.failed + warm.failed) as f64);
            l.insert("serve.retries", (cold.retries + warm.retries) as f64);
        }
        l.insert("trace.overhead_ratio", crate::overhead_ratio(&records));
    }
    out
}
