//! Layered host-performance benchmark for the gpgpu-covert workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5|ladder|sweep [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run drives one workload as a closed loop (the next call is issued
//! when the previous one returns) for `--seconds`, checks every simulated
//! output, and prints one JSON object as the last line of standard output.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! around every call into the workspace crates and reports the per-layer
//! metrics instead. See `perfbench/README.md` for the metric map.

mod fig5;
mod inputs;
mod ladder;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Environment variables that change what the workspace computes or how
/// it schedules it. A run refuses to start with any of them set, so a
/// stray variable cannot change what is measured.
const FORBIDDEN_ENV: [&str; 3] = ["GPGPU_ENGINE", "GPGPU_POOL_DISABLE", "GPGPU_TRIAL_WORKERS"];

/// Digests of every workload's simulated outputs on [`inputs::DEFAULT_SEED`].
/// A speed-only change to the workspace must leave them unchanged.
const RECORDED_DIGESTS: [(&str, u64); 3] = [
    ("fig5", 0xa951_c3c7_f872_f8c3),
    ("ladder", 0x47ba_ee53_d10f_0acb),
    ("sweep", 0x0845_f08f_4ff5_c84e),
];

/// Set-ups timed before every pass; `setup_s` is the median over the run.
pub const SETUP_BATCH: usize = 10;

/// End-to-end metrics, reported by `--trace 0` runs.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("tx_per_s", "1/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("cold_cells_per_s", "cells/s"),
    ("warm_cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by `--trace 1` runs. A layer a workload
/// does not exercise, or that cannot be seen from outside the crates on
/// that workload, reads 0 there (see the README).
const PER_LAYER: [(&str, &str); 50] = [
    ("spec.parse_us", "us"),
    ("spec.parse_calls", "count"),
    ("pool.build_us", "us"),
    ("pool.restore_us", "us"),
    ("sim.cycles_stepped", "cycles"),
    ("sim.cycles_fast_forwarded", "cycles"),
    ("sim.sm_steps", "count"),
    ("sim.sm_steps_skipped", "count"),
    ("sim.placement_runs", "count"),
    ("sim.kernels_launched", "count"),
    ("sim.ff_ratio", "ratio"),
    ("sim.sm_skip_ratio", "ratio"),
    ("sim.kepler.ns_per_stepped_cycle", "ns"),
    ("sim.kepler.ns_per_sm_step", "ns"),
    ("sim.ampere.ns_per_stepped_cycle", "ns"),
    ("sim.ampere.ns_per_sm_step", "ns"),
    ("channel.l1.kepler.tx_ms", "ms"),
    ("channel.l1.ampere.tx_ms", "ms"),
    ("ladder.storm.tx_s", "s"),
    ("ladder.partition.tx_s", "s"),
    ("ladder.fuzz.tx_s", "s"),
    ("ladder.rungs", "count"),
    ("ladder.recalibrations", "count"),
    ("ladder.stretches", "count"),
    ("ladder.fallbacks", "count"),
    ("ladder.rung_success_ratio", "ratio"),
    ("ladder.arq_rounds", "count"),
    ("ladder.retransmissions", "count"),
    ("ladder.settled_cycles", "cycles"),
    ("ladder.ns_per_settled_cycle", "ns"),
    ("serve.cache_load_us", "us"),
    ("serve.cache_store_us", "us"),
    ("serve.journal_append_us", "us"),
    ("serve.journal_resume_ms", "ms"),
    ("serve.warm_overhead_share", "ratio"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.computed", "count"),
    ("serve.cached", "count"),
    ("serve.failed", "count"),
    ("serve.retries", "count"),
    ("self.bench.share", "ratio"),
    ("self.spec.share", "ratio"),
    ("self.pool.share", "ratio"),
    ("self.channel.share", "ratio"),
    ("self.ladder.share", "ratio"),
    ("self.service.share", "ratio"),
    ("self.serve.share", "ratio"),
    ("ops.attempted", "count"),
    ("ops.fail_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Failure accounting: every operation the workload issues is attempted
/// once; typed errors, panics, undelivered links, failed cells and output
/// mismatches count as failed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; reports it on standard error when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }

    /// Counts a failed operation when a cell's rendered output differs from
    /// the first pass's: simulated outputs must repeat exactly.
    pub fn check_repeat(&mut self, first: Option<&Vec<String>>, cell: usize, text: &str) {
        if let Some(reference) = first.map(|r| &r[cell]).filter(|r| *r != text) {
            self.check(false, || {
                format!("pass output differs from the first pass:\n  {reference}\n  {text}")
            });
        }
    }
}

/// Runs `f`, turning a panic into an error so one failed operation does
/// not end the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-text panic".into());
        Err(format!("panic: {text}"))
    })
}

/// State shared by the workloads for one run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Whether this is a traced (`--trace 1`) run.
    pub traced: bool,
    pub tracer: Tracer,
    pub ops: Ops,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Runs a workload: a batch of `SETUP_BATCH` timed set-ups, then the
    /// closed loop of passes until `seconds` have elapsed and at least
    /// `min_passes` ran, with another batch of set-ups before each pass so
    /// the set-up times sample the whole run rather than its first
    /// milliseconds. Each pass uses the state of the latest set-up.
    ///
    /// `pass` returns the seconds it spent on traced-only probes, which
    /// are left out of the pass time. Traced runs trace every set-up and
    /// every even pass; the odd passes run the same work untraced, for
    /// `trace.overhead_ratio`.
    pub fn run<S>(
        &mut self,
        min_passes: usize,
        mut setup: impl FnMut(&mut Ctx) -> S,
        mut pass: impl FnMut(&mut Ctx, &Plan, &S) -> f64,
    ) -> Run<S> {
        let mut setup_s = Vec::new();
        let mut run_id = 0u64;
        let mut batch = |ctx: &mut Ctx, setup_s: &mut Vec<f64>, run_id: &mut u64| {
            ctx.tracer.set_enabled(ctx.traced);
            let mut state = None;
            for _ in 0..SETUP_BATCH {
                ctx.tracer.set_run(*run_id);
                *run_id += 1;
                let t = Instant::now();
                let span = ctx.tracer.begin("bench.setup");
                state = Some(setup(ctx));
                ctx.tracer.end(span);
                setup_s.push(t.elapsed().as_secs_f64());
            }
            state.expect("SETUP_BATCH > 0")
        };
        let mut state = batch(self, &mut setup_s, &mut run_id);
        let start = Instant::now();
        let mut records = Vec::new();
        while records.len() < min_passes || start.elapsed().as_secs_f64() < self.seconds {
            if !records.is_empty() {
                state = batch(self, &mut setup_s, &mut run_id);
            }
            let plan = Plan { index: records.len(), traced: self.traced && records.len() % 2 == 0 };
            self.tracer.set_enabled(plan.traced);
            self.tracer.set_run(run_id);
            run_id += 1;
            let t = Instant::now();
            let span = self.tracer.begin("bench.pass");
            let excluded_s = pass(self, &plan, &state);
            self.tracer.end(span);
            records.push(PassRecord { plan, seconds: t.elapsed().as_secs_f64() - excluded_s });
        }
        self.tracer.set_enabled(self.traced);
        Run { setup_s, records, state }
    }

    /// Whether cell `cell` of pass `plan` runs with the device pool
    /// disabled: untraced runs alternate warm and cold cells, shifted by
    /// one every pass, so each cell is measured both ways; traced runs
    /// keep the pool warm.
    pub fn pool_cold(&self, plan: &Plan, cell: usize) -> bool {
        !self.traced && (plan.index + cell) % 2 == 1
    }
}

/// Runs `f` with the calling thread's device pool disabled when `cold`
/// (every `pool::acquire` builds a fresh device).
pub fn with_pool<T>(cold: bool, f: impl FnOnce() -> T) -> T {
    gpgpu_covert::pool::set_disabled(cold);
    let out = f();
    gpgpu_covert::pool::set_disabled(false);
    out
}

/// How one pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub index: usize,
    /// Spans recorded during this pass.
    pub traced: bool,
}

/// What [`Ctx::run`] measured.
#[derive(Debug)]
pub struct Run<S> {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    pub records: Vec<PassRecord>,
    /// The latest set-up's state.
    pub state: S,
}

#[derive(Debug, Clone, Copy)]
pub struct PassRecord {
    pub plan: Plan,
    /// Host seconds of the pass, less traced-only probes.
    pub seconds: f64,
}

/// Median traced pass time over median untraced pass time.
pub fn overhead_ratio(records: &[PassRecord]) -> f64 {
    let median = |traced: bool| {
        let v: Vec<f64> =
            records.iter().filter(|r| r.plan.traced == traced).map(|r| r.seconds).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let plain = median(false);
    if plain > 0.0 {
        median(true) / plain
    } else {
        0.0
    }
}

/// Host times of each cell (one transmission) of a workload's fixed input
/// set over all passes, split by device-pool mode.
///
/// The simulation is deterministic, so host noise on a shared machine only
/// adds time to a cell: the fastest observation of each cell is the
/// steadiest estimate of its cost. A rate is the number of cells over the
/// sum of their fastest times.
#[derive(Debug, Default)]
pub struct CellTimes {
    cells: Vec<CellSamples>,
}

#[derive(Debug, Default, Clone)]
struct CellSamples {
    cold: Vec<f64>,
    warm: Vec<f64>,
    cycles: u64,
}

/// Which samples a rate is computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pool {
    Any,
    Cold,
    Warm,
}

impl CellTimes {
    pub fn add(&mut self, cell: usize, seconds: f64, cold: bool, cycles: u64) {
        if self.cells.len() <= cell {
            self.cells.resize(cell + 1, CellSamples::default());
        }
        let c = &mut self.cells[cell];
        if cold { &mut c.cold } else { &mut c.warm }.push(seconds);
        c.cycles = cycles;
    }

    /// Sum over cells of the fastest time among the `pool` samples; `None`
    /// when some cell has no such sample.
    fn fastest_pass(&self, pool: Pool) -> Option<f64> {
        self.cells
            .iter()
            .map(|c| {
                let cold = c.cold.iter().filter(|_| pool != Pool::Warm);
                let warm = c.warm.iter().filter(|_| pool != Pool::Cold);
                cold.chain(warm).copied().reduce(f64::min)
            })
            .sum()
    }

    /// Cells per second at each cell's fastest `pool` time.
    pub fn cells_per_s(&self, pool: Pool) -> f64 {
        self.fastest_pass(pool).map_or(0.0, |s| self.cells.len() as f64 / s)
    }

    /// Simulated cycles per host second at each cell's fastest time.
    pub fn cycles_per_s(&self) -> f64 {
        let cycles: u64 = self.cells.iter().map(|c| c.cycles).sum();
        self.fastest_pass(Pool::Any).map_or(0.0, |s| cycles as f64 / s)
    }

    /// Samples per cell and the spread of the pass time they add up to.
    pub fn summary(&self) -> String {
        let n = self.cells.iter().map(|c| c.cold.len() + c.warm.len()).min().unwrap_or(0);
        let fastest = self.fastest_pass(Pool::Any).unwrap_or(0.0);
        format!("{} cells, >= {n} samples each, fastest-cell pass {fastest:.4} s", self.cells.len())
    }
}

/// What a workload reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    pub tx_per_s: f64,
    pub sim_cycles_per_s: f64,
    pub cold_cells_per_s: f64,
    pub warm_cells_per_s: f64,
    /// Per-layer metrics the workload measured (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Digest of the simulated outputs of the workload's fixed input set.
    pub digest: u64,
}

/// The pool probes shared by the workloads: median `Device::with_tuning`
/// build and warm `pool::acquire` restore times per device, averaged over
/// the devices the workload uses.
pub fn probe_pool(
    ctx: &mut Ctx,
    devices: &[(gpgpu_spec::DeviceSpec, gpgpu_sim::DeviceTuning)],
) -> (f64, f64) {
    const REPS: usize = 25;
    let (mut build, mut restore) = (Vec::new(), Vec::new());
    for (spec, tuning) in devices {
        let before = ctx.tracer.spans().len();
        for _ in 0..REPS {
            ctx.tracer.span("pool.build", |_| {
                std::hint::black_box(gpgpu_sim::Device::with_tuning(spec.clone(), *tuning));
            });
        }
        drop(gpgpu_covert::pool::acquire(spec, *tuning));
        for _ in 0..REPS {
            ctx.tracer.span("pool.restore", |_| {
                drop(std::hint::black_box(gpgpu_covert::pool::acquire(spec, *tuning)));
            });
        }
        let spans = &ctx.tracer.spans()[before..];
        let us = |name: &str| {
            let v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e3)
                .collect();
            stats::median(&v).unwrap_or(0.0)
        };
        build.push(us("pool.build"));
        restore.push(us("pool.restore"));
    }
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    (mean(&build), mean(&restore))
}

/// Spec-layer metrics from the `spec.*` spans of the set-ups: median call
/// time and calls per set-up.
pub fn spec_layer(ctx: &Ctx, setups: usize, layers: &mut BTreeMap<&'static str, f64>) {
    let v: Vec<f64> = ctx
        .tracer
        .spans()
        .iter()
        .filter(|s| s.layer() == "spec")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    layers.insert("spec.parse_us", stats::median(&v).unwrap_or(0.0));
    layers
        .insert("spec.parse_calls", if setups > 0 { v.len() as f64 / setups as f64 } else { 0.0 });
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: inputs::DEFAULT_SEED, seconds: 25.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = parse_u64(&value).ok_or_else(|| format!("bad --seed `{value}`"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !["fig5", "ladder", "sweep"].contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown --workload `{}` (expected fig5, ladder or sweep)",
            args.workload
        ));
    }
    Ok(args)
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let set: Vec<&str> =
        FORBIDDEN_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {} set; unset it so the measured configuration is the default one", set.join(", "));
        std::process::exit(2);
    }
    let scratch =
        PathBuf::from(".bench_scratch").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (default seed {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::DEFAULT_SEED
    );
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        tracer: Tracer::new(args.trace),
        ops: Ops::default(),
        scratch: scratch.clone(),
    };
    let outcome = match args.workload.as_str() {
        "fig5" => fig5::run(&mut ctx),
        "ladder" => ladder::run(&mut ctx),
        _ => sweep::run(&mut ctx),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_scratch");

    eprintln!("perfbench: {} output digest {:#018x}", args.workload, outcome.digest);
    if args.seed == inputs::DEFAULT_SEED {
        let recorded =
            RECORDED_DIGESTS.iter().find(|(w, _)| *w == args.workload).map_or(0, |(_, d)| *d);
        ctx.ops.check(outcome.digest == recorded, || {
            format!("digest {:#018x} differs from the recorded {recorded:#018x}", outcome.digest)
        });
    }
    eprintln!("perfbench: setup_s {}", stats::summary(&outcome.setup_s));

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut layers = outcome.layers;
        let spans = ctx.tracer.spans();
        let root = trace::root_ns(spans) as f64;
        for (layer, own) in trace::layer_self_ns(spans) {
            if let Some((name, _)) =
                PER_LAYER.iter().find(|(n, _)| *n == format!("self.{layer}.share"))
            {
                layers.insert(name, if root > 0.0 { own as f64 / root } else { 0.0 });
            }
        }
        layers.insert("ops.attempted", ctx.ops.attempted as f64);
        layers.insert(
            "ops.fail_ratio",
            if ctx.ops.attempted > 0 {
                ctx.ops.failed as f64 / ctx.ops.attempted as f64
            } else {
                0.0
            },
        );
        let out = PathBuf::from(".bench_out");
        let path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_jsonl()))
        {
            Ok(()) => eprintln!("perfbench: {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let values = [
            stats::median(&outcome.setup_s).unwrap_or(0.0),
            outcome.tx_per_s,
            outcome.sim_cycles_per_s,
            outcome.cold_cells_per_s,
            outcome.warm_cells_per_s,
            peak_rss_mb(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        eprintln!("perfbench: {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.ops.failed == 0 && ctx.ops.attempted > 0,
        ctx.ops.attempted.max(1),
        ctx.ops.failed,
        body.join(", ")
    );
}
