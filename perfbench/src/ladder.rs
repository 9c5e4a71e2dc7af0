//! `ladder`: `AdaptiveLink::transmit` on Kepler in three hostile
//! scenarios, one at a time.
//!
//! - `storm`: the fault storm plus constant-cache hog of the CLI
//!   `robust --adaptive` smoke; the ladder escapes to the atomic family.
//! - `partition`: `partition=2` cache partitioning; escapes to atomic.
//! - `fuzz`: `fuzz=4096` clock fuzzing; escapes to SFU after eight failed
//!   rungs and two fallbacks.
//!
//! Calibration, ARQ and escalation do the work; most simulated time goes
//! to failed rungs that step the SFU and atomic channels densely. These
//! adaptive cells are the wall time of the arena matrix and of the
//! `integration_adaptive` and `integration_arena` tests.

use crate::inputs::{bit_string, digest, Rng};
use crate::{guarded, probe_pool, spec_layer, with_pool, CellTimes, Ctx, Outcome, Plan, Pool};
use gpgpu_covert::bits::Message;
use gpgpu_covert::linkmon::{
    AdaptiveLink, AdaptiveOutcome, ChannelFamily, LadderStage, LinkEnvironment,
};
use gpgpu_covert::noise::NoiseKind;
use gpgpu_sim::{DeviceTuning, FaultPlan};
use gpgpu_spec::{presets, DefenseSpec, DeviceSpec};
use std::time::Instant;

const BITS: usize = 16;

struct Scenario {
    name: &'static str,
    link: AdaptiveLink,
    /// The family the ladder documents as this scenario's escape route.
    escape: ChannelFamily,
    span: String,
}

const PARTITION: &str = "partition=2";
const FUZZ: &str = "fuzz=4096";

/// The storm's fault spec: the CI smoke's calibrated shape, with its
/// schedule seed derived from the benchmark seed.
fn storm_spec(seed: u64) -> String {
    format!(
        "seed={},intensity=1,period=900000,burst=280000,set=2,kinds=evict+storm",
        Rng::new(seed ^ 0x5707).below(1 << 24)
    )
}

fn setup(ctx: &mut Ctx, storm: &str) -> Vec<Scenario> {
    gpgpu_covert::pool::clear();
    let t = &mut ctx.tracer;
    let plan = t.span("spec.fault", |_| FaultPlan::from_spec(storm)).expect("storm spec parses");
    let mut defended = |text: &str| {
        let defense =
            t.span("spec.defense", |_| DefenseSpec::from_spec(text)).expect("defense spec parses");
        t.span("spec.lower", |_| DeviceTuning::from_defense(&defense))
    };
    let partition = defended(PARTITION);
    let fuzz = defended(FUZZ);
    let spec: DeviceSpec =
        t.span("spec.preset", |_| presets::by_name("kepler")).expect("kepler preset");
    for tuning in [DeviceTuning::none(), partition, fuzz] {
        t.span("pool.fill", |_| drop(gpgpu_covert::pool::acquire(&spec, tuning)));
    }
    let storm_env = LinkEnvironment::clean()
        .with_faults(plan)
        .with_noise(vec![NoiseKind::ConstantCacheHog], 40 + 30 * BITS as u64);
    let scenario = |name: &'static str, env: LinkEnvironment, escape| Scenario {
        name,
        link: AdaptiveLink::new(spec.clone()).with_env(env),
        escape,
        span: format!("ladder.{name}.transmit"),
    };
    vec![
        scenario("storm", storm_env, ChannelFamily::Atomic),
        scenario(
            "partition",
            LinkEnvironment::clean().with_tuning(partition),
            ChannelFamily::Atomic,
        ),
        scenario("fuzz", LinkEnvironment::clean().with_tuning(fuzz), ChannelFamily::Sfu),
    ]
}

/// Canonical rendering of one adaptive transmission's outputs.
fn render(name: &str, o: &AdaptiveOutcome) -> String {
    let stages: Vec<String> = o
        .diagnostic
        .stages
        .iter()
        .map(|e| format!("{}/{}/{}", e.stage.label(), e.family.label(), u8::from(e.recovered)))
        .collect();
    format!(
        "{name} rx={} cycles={} rounds={} retx={} family={} stages={}",
        bit_string(&o.received),
        o.report.cycles,
        o.report.rounds,
        o.report.retransmissions,
        o.diagnostic.final_family.label(),
        stages.join(",")
    )
}

/// Ladder counters of one pass.
#[derive(Default, Clone, Copy)]
struct Counts {
    rungs: u64,
    recovered_rungs: u64,
    recalibrations: u64,
    stretches: u64,
    fallbacks: u64,
    arq_rounds: u64,
    retransmissions: u64,
    settled_cycles: u64,
}

fn count(c: &mut Counts, o: &AdaptiveOutcome) {
    for e in &o.diagnostic.stages {
        match e.stage {
            LadderStage::Static | LadderStage::Recalibrate | LadderStage::Stretch => {
                c.rungs += 1;
                c.recovered_rungs += u64::from(e.recovered);
                c.recalibrations += u64::from(e.stage == LadderStage::Recalibrate);
                c.stretches += u64::from(e.stage == LadderStage::Stretch);
            }
            LadderStage::Fallback => c.fallbacks += 1,
            LadderStage::Abort => {}
        }
    }
    c.arq_rounds += o.report.rounds as u64;
    c.retransmissions += o.report.retransmissions as u64;
    c.settled_cycles += o.report.cycles;
}

fn pass(
    ctx: &mut Ctx,
    plan: &Plan,
    scenarios: &[Scenario],
    msg: &Message,
    times: &mut CellTimes,
    first: &mut Option<Vec<String>>,
) -> Counts {
    let mut counts = Counts::default();
    let mut rendered = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        let cold = ctx.pool_cold(plan, i);
        let start = Instant::now();
        let result = ctx.tracer.span(&s.span, |_| {
            with_pool(cold, || guarded(|| s.link.transmit(msg).map_err(|e| e.to_string())))
        });
        let seconds = start.elapsed().as_secs_f64();
        let text = match result {
            Ok(o) => {
                count(&mut counts, &o);
                times.add(i, seconds, cold, o.report.cycles);
                let d = &o.diagnostic;
                let ok =
                    d.delivered && d.ber == 0.0 && o.received == *msg && d.final_family == s.escape;
                ctx.ops.check(ok, || {
                    format!(
                        "ladder {}: must deliver at BER 0 via {}, got delivered={} BER {} via {}\n{d}",
                        s.name,
                        s.escape.label(),
                        d.delivered,
                        d.ber,
                        d.final_family.label()
                    )
                });
                render(s.name, &o)
            }
            Err(e) => {
                ctx.ops.check(false, || format!("ladder {}: {e}", s.name));
                format!("{} error", s.name)
            }
        };
        ctx.ops.check_repeat(first.as_ref(), i, &text);
        rendered.push(text);
    }
    first.get_or_insert(rendered);
    counts
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let msg = Rng::new(ctx.seed).balanced_message(BITS);
    let storm = storm_spec(ctx.seed);
    eprintln!("perfbench: ladder storm faults {storm}");
    let mut first = None;
    let mut times = CellTimes::default();
    let mut first_counts = None;
    // Four passes, so each scenario is timed twice with the pool warm and
    // twice with it disabled; one pass is too long to repeat more often.
    let run = ctx.run(
        4,
        |ctx| setup(ctx, &storm),
        |ctx, plan, scenarios| {
            let counts = pass(ctx, plan, scenarios, &msg, &mut times, &mut first);
            first_counts.get_or_insert(counts);
            0.0
        },
    );
    let (scenarios, records) = (run.state, run.records);
    let mut out = Outcome { setup_s: run.setup_s, ..Outcome::default() };
    for line in first.iter().flatten() {
        eprintln!("perfbench: ladder {line}");
    }
    out.digest = digest(first.as_deref().unwrap_or_default());

    out.tx_per_s = times.cells_per_s(Pool::Any);
    out.sim_cycles_per_s = times.cycles_per_s();
    out.cold_cells_per_s = times.cells_per_s(Pool::Cold);
    out.warm_cells_per_s = times.cells_per_s(Pool::Warm);
    let pass_s: Vec<f64> = records.iter().map(|r| r.seconds).collect();
    eprintln!("perfbench: ladder pass_s {}; {}", crate::stats::summary(&pass_s), times.summary());

    if ctx.traced {
        let devices: Vec<_> =
            scenarios.iter().map(|s| (s.link.spec().clone(), s.link.env.tuning)).collect();
        let (build, restore) = probe_pool(ctx, &devices);
        spec_layer(ctx, out.setup_s.len(), &mut out.layers);
        let l = &mut out.layers;
        l.insert("pool.build_us", build);
        l.insert("pool.restore_us", restore);
        let c = first_counts.unwrap_or_default();
        l.insert("ladder.rungs", c.rungs as f64);
        l.insert("ladder.recalibrations", c.recalibrations as f64);
        l.insert("ladder.stretches", c.stretches as f64);
        l.insert("ladder.fallbacks", c.fallbacks as f64);
        l.insert(
            "ladder.rung_success_ratio",
            if c.rungs > 0 { c.recovered_rungs as f64 / c.rungs as f64 } else { 0.0 },
        );
        l.insert("ladder.arq_rounds", c.arq_rounds as f64);
        l.insert("ladder.retransmissions", c.retransmissions as f64);
        l.insert("ladder.settled_cycles", c.settled_cycles as f64);
        let mut traced_ns = 0.0;
        for s in &scenarios {
            let ns = ctx.tracer.durations_ns(&s.span);
            traced_ns += ns.iter().sum::<f64>();
            let name = match s.name {
                "storm" => "ladder.storm.tx_s",
                "partition" => "ladder.partition.tx_s",
                _ => "ladder.fuzz.tx_s",
            };
            let secs: Vec<f64> = ns.iter().map(|n| n / 1e9).collect();
            l.insert(name, crate::stats::median(&secs).unwrap_or(0.0));
        }
        // Outputs repeat exactly every pass, so every traced pass settled
        // the same cycles as the first.
        let traced_cycles =
            c.settled_cycles * records.iter().filter(|r| r.plan.traced).count() as u64;
        l.insert(
            "ladder.ns_per_settled_cycle",
            if traced_cycles > 0 { traced_ns / traced_cycles as f64 } else { 0.0 },
        );
        l.insert("trace.overhead_ratio", crate::overhead_ratio(&records));
    }
    out
}
