//! `fig5`: the Figure-5 L1 iteration sweep on Kepler and Ampere.
//!
//! Static L1 prime+probe transmissions relaunch their kernels per bit and
//! fast-forward most cycles, so this workload is heavy in the memory
//! hierarchy, the fast-forward path and device-pool restores, and light in
//! the dense issue scan. Kepler takes the shared-issue path, Ampere the
//! sub-core issue path.
//!
//! Checks that hold on any seed: no transmission turns a sent 0 into a
//! received 1 (launch jitter can only make the trojan's fills miss the
//! spy's probes, the Figure-5 mechanism); Kepler is error-free at 20
//! iterations (the paper's operating point); and at 20 iterations each
//! arch decodes exactly the sent bits that its all-ones reference
//! transmission decodes. The last check is what holds on Ampere, where 20
//! iterations is not error-free under the default launch jitter: bit 37 of
//! the jitter schedule misses its window, so a 1 sent there reads 0.

use crate::inputs::{bit_string, digest, Rng};
use crate::{guarded, probe_pool, spec_layer, with_pool, CellTimes, Ctx, Outcome, Plan, Pool};
use gpgpu_covert::bits::Message;
use gpgpu_covert::cache_channel::{CacheChannel, L1Channel};
use gpgpu_covert::harness::TrialRunner;
use gpgpu_covert::ChannelOutcome;
use gpgpu_sim::{DeviceTuning, SimStats};
use gpgpu_spec::presets;
use std::time::Instant;

/// The paper's Figure-5 iteration counts, highest (error-free on Kepler) first.
const ITERATIONS: [u64; 6] = [20, 12, 8, 4, 2, 1];
const ARCHS: [&str; 2] = ["kepler", "ampere"];
/// The arch on which the paper reports 20 iterations as error-free.
const PAPER_ARCH: &str = "kepler";
const BITS: usize = 64;

/// One arch's channel, built by the set-up.
struct Arch {
    name: &'static str,
    channel: CacheChannel,
    span: String,
}

fn setup(ctx: &mut Ctx) -> Vec<Arch> {
    gpgpu_covert::pool::clear();
    ARCHS
        .iter()
        .map(|&name| {
            let spec = ctx
                .tracer
                .span("spec.preset", |_| presets::by_name(name))
                .expect("fig5 archs are preset aliases");
            ctx.tracer.span("pool.fill", |_| {
                drop(gpgpu_covert::pool::acquire(&spec, DeviceTuning::none()))
            });
            Arch {
                name,
                channel: L1Channel::new(spec),
                span: format!("channel.l1.{name}.transmit"),
            }
        })
        .collect()
}

/// Per arch, which bit positions decode as 1 when every bit sent at 20
/// iterations is 1. Bits decode independently at 20 iterations, so a
/// message's expected output there is the message masked by this.
fn references(ctx: &mut Ctx) -> Vec<Vec<bool>> {
    let ones = Message::from_bits(vec![true; BITS]);
    ARCHS
        .iter()
        .map(|&name| {
            let result = guarded(|| {
                let spec = presets::by_name(name).ok_or("not a preset")?;
                L1Channel::new(spec)
                    .with_iterations(ITERATIONS[0])
                    .transmit(&ones)
                    .map_err(|e| e.to_string())
            });
            let received = match &result {
                Ok(o) => o.received.bits().to_vec(),
                Err(_) => Vec::new(),
            };
            let ok = received.len() == BITS && (name != PAPER_ARCH || received.iter().all(|&b| b));
            ctx.ops.check(ok, || match &result {
                Ok(o) => format!(
                    "{name} all-ones reference at 20 iterations decoded {}",
                    bit_string(&o.received)
                ),
                Err(e) => format!("{name} all-ones reference: {e}"),
            });
            received
        })
        .collect()
}

/// Why one transmission's received bits are wrong, if they are.
fn mismatch(
    msg: &Message,
    o: &ChannelOutcome,
    iterations: u64,
    reference: &[bool],
) -> Option<String> {
    let (sent, got) = (msg.bits(), o.received.bits());
    if got.len() != sent.len() {
        return Some(format!("received {} bits of {}", got.len(), sent.len()));
    }
    if let Some(i) = (0..sent.len()).find(|&i| got[i] && !sent[i]) {
        return Some(format!("bit {i} sent as 0 was received as 1"));
    }
    if iterations == ITERATIONS[0] {
        let want: Vec<bool> = sent.iter().zip(reference).map(|(&s, &r)| s && r).collect();
        if got != want.as_slice() {
            return Some(format!(
                "received {} but the all-ones reference predicts {}",
                bit_string(&o.received),
                bit_string(&Message::from_bits(want))
            ));
        }
    }
    None
}

/// Canonical rendering of one transmission's simulated outputs.
fn render(arch: &str, iterations: u64, o: &ChannelOutcome) -> String {
    format!(
        "{arch} it={iterations} rx={} cycles={} bw={:#018x} ber={:#018x}",
        bit_string(&o.received),
        o.cycles,
        o.bandwidth_kbps.to_bits(),
        o.ber.to_bits()
    )
}

/// Per-arch host time and engine counters of one pass.
#[derive(Default, Clone, Copy)]
struct ArchWork {
    wall_ns: f64,
    stats: SimStats,
}

fn pass(
    ctx: &mut Ctx,
    plan: &Plan,
    archs: &[Arch],
    refs: &[Vec<bool>],
    msg: &Message,
    times: &mut CellTimes,
    first: &mut Option<Vec<String>>,
) -> Vec<ArchWork> {
    let runner = TrialRunner::sequential();
    let mut per_arch = Vec::new();
    let mut rendered = Vec::new();
    for (arch, reference) in archs.iter().zip(refs) {
        let mut aw = ArchWork::default();
        let base = rendered.len();
        let cold: Vec<bool> =
            (0..ITERATIONS.len()).map(|i| ctx.pool_cold(plan, base + i)).collect();
        let span = ctx.tracer.begin("bench.sweep");
        let results = runner.map(&ITERATIONS, |trial, &iterations| {
            let start = Instant::now();
            let r = with_pool(cold[trial.index], || {
                guarded(|| {
                    arch.channel
                        .clone()
                        .with_iterations(iterations)
                        .transmit(msg)
                        .map_err(|e| e.to_string())
                })
            });
            (start, Instant::now(), r)
        });
        for (i, ((start, end, result), &iterations)) in
            results.into_iter().zip(&ITERATIONS).enumerate()
        {
            ctx.tracer.record(&arch.span, start, end);
            let cell = base + i;
            let text = match result {
                Ok(o) => {
                    let ns = end.duration_since(start).as_nanos() as f64;
                    aw.wall_ns += ns;
                    aw.stats.merge(&o.stats);
                    times.add(cell, ns / 1e9, cold[i], o.cycles);
                    let wrong = mismatch(msg, &o, iterations, reference);
                    ctx.ops.check(wrong.is_none(), || {
                        format!(
                            "{} at {iterations} iterations: {}",
                            arch.name,
                            wrong.unwrap_or_default()
                        )
                    });
                    render(arch.name, iterations, &o)
                }
                Err(e) => {
                    ctx.ops
                        .check(false, || format!("{} at {iterations} iterations: {e}", arch.name));
                    format!("{} it={iterations} error", arch.name)
                }
            };
            ctx.ops.check_repeat(first.as_ref(), cell, &text);
            rendered.push(text);
        }
        ctx.tracer.end(span);
        per_arch.push(aw);
    }
    first.get_or_insert(rendered);
    per_arch
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let msg = Rng::new(ctx.seed).balanced_message(BITS);
    let refs = references(ctx);
    let mut first = None;
    let mut times = CellTimes::default();
    let mut traced_arch = vec![ArchWork::default(); ARCHS.len()];
    let mut first_stats = SimStats::default();
    let run = ctx.run(2, setup, |ctx, plan, archs| {
        let per_arch = pass(ctx, plan, archs, &refs, &msg, &mut times, &mut first);
        if plan.index == 0 {
            per_arch.iter().for_each(|a| first_stats.merge(&a.stats));
        }
        if plan.traced {
            for (total, a) in traced_arch.iter_mut().zip(&per_arch) {
                total.wall_ns += a.wall_ns;
                total.stats.merge(&a.stats);
            }
        }
        0.0
    });
    let (archs, records) = (run.state, run.records);
    let mut out = Outcome { setup_s: run.setup_s, ..Outcome::default() };
    out.digest = digest(first.as_deref().unwrap_or_default());

    out.tx_per_s = times.cells_per_s(Pool::Any);
    out.sim_cycles_per_s = times.cycles_per_s();
    out.cold_cells_per_s = times.cells_per_s(Pool::Cold);
    out.warm_cells_per_s = times.cells_per_s(Pool::Warm);
    let pass_s: Vec<f64> = records.iter().map(|r| r.seconds).collect();
    eprintln!("perfbench: fig5 pass_s {}; {}", crate::stats::summary(&pass_s), times.summary());

    if ctx.traced {
        let devices: Vec<_> =
            archs.iter().map(|a| (a.channel.spec().clone(), DeviceTuning::none())).collect();
        let (build, restore) = probe_pool(ctx, &devices);
        spec_layer(ctx, out.setup_s.len(), &mut out.layers);
        let l = &mut out.layers;
        l.insert("pool.build_us", build);
        l.insert("pool.restore_us", restore);
        let s = first_stats;
        l.insert("sim.cycles_stepped", s.cycles_stepped as f64);
        l.insert("sim.cycles_fast_forwarded", s.cycles_fast_forwarded as f64);
        l.insert("sim.sm_steps", s.sm_steps as f64);
        l.insert("sim.sm_steps_skipped", s.sm_steps_skipped as f64);
        l.insert("sim.placement_runs", s.placement_runs as f64);
        l.insert("sim.kernels_launched", s.kernels_launched as f64);
        l.insert("sim.ff_ratio", s.fast_forward_ratio());
        l.insert("sim.sm_skip_ratio", s.sm_skip_ratio());
        for (arch, total) in archs.iter().zip(&traced_arch) {
            let per = |count: u64| if count > 0 { total.wall_ns / count as f64 } else { 0.0 };
            let (stepped, sm_step, tx_ms) = match arch.name {
                "kepler" => (
                    "sim.kepler.ns_per_stepped_cycle",
                    "sim.kepler.ns_per_sm_step",
                    "channel.l1.kepler.tx_ms",
                ),
                _ => (
                    "sim.ampere.ns_per_stepped_cycle",
                    "sim.ampere.ns_per_sm_step",
                    "channel.l1.ampere.tx_ms",
                ),
            };
            l.insert(stepped, per(total.stats.cycles_stepped));
            l.insert(sm_step, per(total.stats.sm_steps));
            let ms: Vec<f64> =
                ctx.tracer.durations_ns(&arch.span).iter().map(|ns| ns / 1e6).collect();
            l.insert(tx_ms, crate::stats::median(&ms).unwrap_or(0.0));
        }
        l.insert("trace.overhead_ratio", crate::overhead_ratio(&records));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(sent: &[bool], received: &[bool]) -> (Message, ChannelOutcome) {
        let sent = Message::from_bits(sent.to_vec());
        let o = ChannelOutcome::from_run(
            &presets::tesla_k40c(),
            sent.clone(),
            Message::from_bits(received.to_vec()),
            1_000,
        );
        (sent, o)
    }

    #[test]
    fn reference_masks_the_expected_output_at_20_iterations() {
        let reference = [true, false, true, true];
        let (msg, dropped) = outcome(&[true, true, false, true], &[true, false, false, true]);
        assert_eq!(mismatch(&msg, &dropped, 20, &reference), None);
        let (msg, exact) = outcome(&[true, true, false, true], &[true, true, false, true]);
        assert!(mismatch(&msg, &exact, 20, &reference).is_some(), "a weak bit must read 0");
        let (msg, lost) = outcome(&[true, true, false, true], &[false, false, false, true]);
        assert!(mismatch(&msg, &lost, 20, &reference).is_some());
        assert_eq!(mismatch(&msg, &lost, 12, &reference), None, "below 20 any 1 may drop");
    }

    #[test]
    fn a_received_one_where_zero_was_sent_is_wrong_at_any_iterations() {
        let (msg, o) = outcome(&[true, false], &[true, true]);
        for iterations in ITERATIONS {
            assert!(mismatch(&msg, &o, iterations, &[true, true]).is_some());
        }
        let (msg, short) = outcome(&[true, false], &[true]);
        assert!(mismatch(&msg, &short, 1, &[true, true]).is_some());
    }
}
