//! Library backing the `gpgpu-covert` command-line tool: argument parsing
//! and subcommand execution, kept in a library so the logic is testable.

#![deny(missing_docs)]

use gpgpu_covert::analytic::{default_engine_mode, AnalyticalModel, ChannelVerdict};
use gpgpu_covert::arena::{run_arena, ArenaConfig};
use gpgpu_covert::atomic_channel::{AtomicChannel, AtomicScenario};
use gpgpu_covert::bits::Message;
use gpgpu_covert::cache_channel::{L1Channel, L2Channel};
use gpgpu_covert::colocation::{reverse_engineer_block_scheduler, reverse_engineer_warp_scheduler};
use gpgpu_covert::fu_channel::SfuChannel;
use gpgpu_covert::linkmon::{AdaptiveLink, LinkEnvironment};
use gpgpu_covert::mitigations::{contention_detection_margin, evaluate_against_family};
use gpgpu_covert::noise::{run_sync_with_noise, NoiseKind};
use gpgpu_covert::nvlink_channel::NvlinkChannel;
use gpgpu_covert::parallel::ParallelSfuChannel;
use gpgpu_covert::sync_channel::SyncChannel;
use gpgpu_sim::{DeviceTuning, EngineMode, LatencyTable};
use gpgpu_spec::{presets, DefenseSpec, DeviceSpec, Family, TopologySpec};
use std::fmt::Write as _;

/// Usage text printed on argument errors and `help`.
pub const USAGE: &str = "\
usage: gpgpu-covert <command> [options]

commands:
  devices                     list the simulated GPU presets
  chat <message>              exfiltrate an ASCII message over the fastest channel
  zoo                         run every channel family once and summarize
  l1                          run the baseline L1 channel with event tracing
  recon                       reverse engineer the schedulers and caches
  noise                       run the channel under Rodinia-like interference
  mitigations                 evaluate the Section-9 defenses against every
                              channel family (three-state verdict per cell)
  faults                      sweep fault intensity: raw vs FEC vs ARQ framing
  robust                      transmit under a fault storm + cache-hog noise,
                              printing the link diagnostic / escalation trace
  nvlink                      run the cross-GPU NVLink channel over a topology
  arena                       attack/defense tournament: every channel family
                              plus the adaptive ladder vs every --defense
                              column, as a residual-bandwidth matrix
  characterize                extract the per-op latency table and per-family
                              analytical models from the cycle engine
                              (--out dumps the table; --table verifies a dump)
  sweep                       run a --request grid through the supervised sweep
                              service: content-addressed result cache, crash-safe
                              journal resume, typed per-cell outcome matrix

options:
  --device <fermi|kepler|maxwell|ampere>   target preset (default kepler)
  --bits <n>                        message length in bits (default 24)
  --exclusive                       enable exclusive co-location (noise command)
  --stats                           print cycle-engine counters after the run
  --trace-out <path>                write a Chrome-trace JSON of the run (l1 only)
  --profile                         print the contention profile (l1 only)
  --faults <spec>                   deterministic fault plan (faults/l1/robust/nvlink),
                                    e.g. seed=7,intensity=1,period=900000,burst=280000,set=2,kinds=evict+storm
  --adaptive                        enable the adaptive link layer (robust only):
                                    online calibration + degradation ladder
  --topology <spec>                 multi-GPU topology (nvlink/robust/arena/mitigations),
                                    e.g. devices=kepler+kepler,link=0-1:lat=40:slot=4:lanes=2
                                    (default: two of --device joined by one link)
  --defense <spec>                  deploy a defense wherever --faults is accepted, plus
                                    arena, e.g. partition=2,fuzz=4096 or none; repeatable
                                    (l1/robust/nvlink/faults compose repeated flags into
                                    one stacked defense; arena adds one matrix column each)
  --engine <dense|event|analytical> cycle engine for the l1 command, or the closed-form
                                    analytical fast path with a simulated cross-check
                                    (default: GPGPU_ENGINE, else event)
  --out <path>                      write the characterized latency table here
                                    (characterize only; default: stdout)
  --table <path>                    load a characterization dump, verify it round-trips
                                    (characterize only)
  --request <spec>                  sweep grid (sweep only; default `default`), e.g.
                                    device=kepler+fermi;family=l1+atomic;iters=4+20;bits=8
  --cache-dir <path>                content-addressed result cache directory (sweep only);
                                    also holds the run journal at <path>/journal.log
  --resume                          resume the journal in --cache-dir after an
                                    interrupted sweep (sweep only; requires --cache-dir)
  --chaos <spec>                    seeded chaos schedule for resilience drills
                                    (sweep only), e.g. seed=7,kills=2,stalls=1,corrupt=3
";

/// Which subcommand to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// List device presets.
    Devices,
    /// Send an ASCII message over the full-parallel synchronized channel.
    Chat(String),
    /// One-line summary of every channel family.
    Zoo,
    /// Baseline L1 channel with cycle-level event tracing.
    L1,
    /// Scheduler/cache reverse engineering.
    Recon,
    /// Interference experiment.
    Noise,
    /// Mitigation evaluation.
    Mitigations,
    /// Fault-intensity sweep: raw vs FEC vs CRC/ARQ framing.
    Faults,
    /// Adaptive-link robustness demo: transmit under a fault storm plus a
    /// constant-cache-hog co-runner and print the escalation trace.
    Robust,
    /// Cross-GPU NVLink channel over a (default or `--topology`) topology.
    Nvlink,
    /// Attack/defense tournament: every channel family plus the adaptive
    /// ladder against every `--defense` column, as a residual-bandwidth
    /// matrix.
    Arena,
    /// Extract (or verify) the analytical model's latency table from the
    /// cycle engine.
    Characterize,
    /// Supervised sweep service: run a grid request through the resilient
    /// job engine with caching, journaling and chaos drills.
    Sweep,
    /// Print usage.
    Help,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand.
    pub command: Command,
    /// Target device preset.
    pub device: String,
    /// Message bits for `zoo`.
    pub bits: usize,
    /// Exclusive co-location for `noise`.
    pub exclusive: bool,
    /// Print cycle-engine counters (`SimStats`) after the run.
    pub stats: bool,
    /// Write the run's Chrome-trace JSON here (`l1` only).
    pub trace_out: Option<String>,
    /// Print the per-SM/per-scheduler/per-set contention profile
    /// (`l1` only).
    pub profile: bool,
    /// Fault-plan spec string (`faults`/`l1`/`robust`), validated at parse
    /// time against [`gpgpu_sim::FaultPlan::from_spec`].
    pub faults: Option<String>,
    /// Run the adaptive link layer instead of the pinned static
    /// thresholds (`robust` only).
    pub adaptive: bool,
    /// Multi-GPU topology spec string (`nvlink`/`robust`/`arena`/
    /// `mitigations`), validated at parse time against
    /// [`gpgpu_spec::TopologySpec::from_spec`].
    pub topology: Option<String>,
    /// Defense spec strings (repeatable), validated at parse time against
    /// [`DefenseSpec::from_spec`]. Single-channel commands compose them
    /// into one stacked defense; `arena` turns each into a matrix column.
    pub defense: Vec<String>,
    /// Engine selection for `l1`, validated at parse time against
    /// [`EngineMode::from_str`]. `None` defers to the `GPGPU_ENGINE`
    /// environment variable (with a one-time warning on unknown values),
    /// then the event-driven default.
    pub engine: Option<EngineMode>,
    /// Output path for the `characterize` dump (stdout when absent).
    pub out: Option<String>,
    /// Characterization dump to load and round-trip-verify
    /// (`characterize` only).
    pub table: Option<String>,
    /// Sweep grid spec (`sweep` only), validated at parse time against
    /// [`gpgpu_spec::SweepRequest::from_spec`]; `None` means `default`.
    pub request: Option<String>,
    /// Result-cache directory (`sweep` only); also hosts the run journal.
    pub cache_dir: Option<String>,
    /// Resume the journal in `--cache-dir` (`sweep` only).
    pub resume: bool,
    /// Chaos schedule spec (`sweep` only), validated at parse time against
    /// [`gpgpu_serve::ChaosPlan::from_spec`].
    pub chaos: Option<String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown commands, unknown
    /// options, or missing option values.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            command: Command::Help,
            device: "kepler".to_string(),
            bits: 24,
            exclusive: false,
            stats: false,
            trace_out: None,
            profile: false,
            faults: None,
            adaptive: false,
            topology: None,
            defense: Vec::new(),
            engine: None,
            out: None,
            table: None,
            request: None,
            cache_dir: None,
            resume: false,
            chaos: None,
        };
        let mut it = argv.iter().peekable();
        let cmd = it.next().ok_or("missing command")?;
        let mut positional: Vec<String> = Vec::new();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--device" => {
                    args.device = it.next().ok_or("--device needs a value")?.clone();
                }
                "--bits" => {
                    let v = it.next().ok_or("--bits needs a value")?;
                    args.bits = v.parse().map_err(|_| format!("invalid --bits value {v:?}"))?;
                }
                "--exclusive" => args.exclusive = true,
                "--stats" => args.stats = true,
                "--trace-out" => {
                    args.trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
                }
                "--profile" => args.profile = true,
                "--adaptive" => args.adaptive = true,
                "--faults" => {
                    let v = it.next().ok_or("--faults needs a spec")?;
                    gpgpu_sim::FaultPlan::from_spec(v)
                        .map_err(|e| format!("invalid --faults spec: {e}"))?;
                    args.faults = Some(v.clone());
                }
                "--topology" => {
                    let v = it.next().ok_or("--topology needs a spec")?;
                    TopologySpec::from_spec(v)
                        .map_err(|e| format!("invalid --topology spec: {e}"))?;
                    args.topology = Some(v.clone());
                }
                "--defense" => {
                    let v = it.next().ok_or("--defense needs a spec")?;
                    DefenseSpec::from_spec(v)
                        .map_err(|e| format!("invalid --defense spec: {e}"))?;
                    args.defense.push(v.clone());
                }
                "--engine" => {
                    let v = it.next().ok_or("--engine needs a value")?;
                    args.engine =
                        Some(v.parse().map_err(|e| format!("invalid --engine value: {e}"))?);
                }
                "--out" => {
                    args.out = Some(it.next().ok_or("--out needs a path")?.clone());
                }
                "--table" => {
                    args.table = Some(it.next().ok_or("--table needs a path")?.clone());
                }
                "--request" => {
                    let v = it.next().ok_or("--request needs a spec")?;
                    gpgpu_spec::SweepRequest::from_spec(v)
                        .map_err(|e| format!("invalid --request spec: {e}"))?;
                    args.request = Some(v.clone());
                }
                "--cache-dir" => {
                    args.cache_dir = Some(it.next().ok_or("--cache-dir needs a path")?.clone());
                }
                "--resume" => args.resume = true,
                "--chaos" => {
                    let v = it.next().ok_or("--chaos needs a spec")?;
                    gpgpu_serve::ChaosPlan::from_spec(v)
                        .map_err(|e| format!("invalid --chaos spec: {e}"))?;
                    args.chaos = Some(v.clone());
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown option {other:?}"));
                }
                other => positional.push(other.to_string()),
            }
        }
        args.command = match cmd.as_str() {
            "devices" => Command::Devices,
            "chat" => {
                let msg = positional.first().ok_or("chat needs a message argument")?;
                Command::Chat(msg.clone())
            }
            "zoo" => Command::Zoo,
            "l1" => Command::L1,
            "recon" => Command::Recon,
            "noise" => Command::Noise,
            "mitigations" => Command::Mitigations,
            "faults" => Command::Faults,
            "robust" => Command::Robust,
            "nvlink" => Command::Nvlink,
            "arena" => Command::Arena,
            "characterize" => Command::Characterize,
            "sweep" => Command::Sweep,
            "help" | "--help" | "-h" => Command::Help,
            other => return Err(format!("unknown command {other:?}")),
        };
        if args.bits == 0 {
            return Err("--bits must be positive".to_string());
        }
        if args.command != Command::L1 && (args.trace_out.is_some() || args.profile) {
            return Err("--trace-out/--profile only apply to the l1 command".to_string());
        }
        if !matches!(
            args.command,
            Command::Faults | Command::L1 | Command::Robust | Command::Nvlink
        ) && args.faults.is_some()
        {
            return Err(
                "--faults only applies to the faults, l1, robust, and nvlink commands".to_string()
            );
        }
        if args.command != Command::Robust && args.adaptive {
            return Err("--adaptive only applies to the robust command".to_string());
        }
        if !matches!(
            args.command,
            Command::Nvlink | Command::Robust | Command::Arena | Command::Mitigations
        ) && args.topology.is_some()
        {
            return Err(
                "--topology only applies to the nvlink, robust, arena, and mitigations commands"
                    .to_string(),
            );
        }
        if !matches!(
            args.command,
            Command::Faults | Command::L1 | Command::Robust | Command::Nvlink | Command::Arena
        ) && !args.defense.is_empty()
        {
            return Err(
                "--defense only applies to the faults, l1, robust, nvlink, and arena commands"
                    .to_string(),
            );
        }
        if args.command != Command::L1 && args.engine.is_some() {
            return Err("--engine only applies to the l1 command".to_string());
        }
        if args.command != Command::Characterize && (args.out.is_some() || args.table.is_some()) {
            return Err("--out/--table only apply to the characterize command".to_string());
        }
        if args.out.is_some() && args.table.is_some() {
            return Err("--out and --table are mutually exclusive".to_string());
        }
        if args.command != Command::Sweep
            && (args.request.is_some()
                || args.cache_dir.is_some()
                || args.resume
                || args.chaos.is_some())
        {
            return Err("--request/--cache-dir/--resume/--chaos only apply to the sweep command"
                .to_string());
        }
        if args.resume && args.cache_dir.is_none() {
            return Err("--resume needs --cache-dir (the journal lives there)".to_string());
        }
        Ok(args)
    }

    /// Resolves the device preset through the shared alias table.
    ///
    /// # Errors
    ///
    /// Unknown device names.
    pub fn spec(&self) -> Result<DeviceSpec, String> {
        presets::by_name(&self.device).ok_or_else(|| {
            format!("unknown device {:?} (fermi|kepler|maxwell|ampere)", self.device)
        })
    }

    /// Resolves the multi-GPU topology: the `--topology` spec when given,
    /// otherwise two copies of `--device` joined by one default link.
    ///
    /// # Errors
    ///
    /// Unknown device names (the spec string itself was validated at parse
    /// time).
    pub fn topology_spec(&self) -> Result<TopologySpec, String> {
        match &self.topology {
            Some(s) => TopologySpec::from_spec(s).map_err(|e| e.to_string()),
            None => TopologySpec::dual(&self.device).map_err(|e| e.to_string()),
        }
    }

    /// Composes every `--defense` flag into one stacked defense (the
    /// semantics for the single-channel commands). No flags means no
    /// defense.
    ///
    /// # Errors
    ///
    /// Two flags setting the same knob to different parameters (the spec
    /// strings themselves were validated at parse time).
    pub fn defense_spec(&self) -> Result<DefenseSpec, String> {
        self.defense.iter().try_fold(DefenseSpec::none(), |acc, s| {
            let d = DefenseSpec::from_spec(s).map_err(|e| e.to_string())?;
            acc.compose(&d).map_err(|e| format!("conflicting --defense flags: {e}"))
        })
    }

    /// Each `--defense` flag as its own defense (the matrix columns of the
    /// `arena` command).
    ///
    /// # Errors
    ///
    /// Propagates spec errors (cannot normally happen: flags were validated
    /// at parse time).
    pub fn defense_columns(&self) -> Result<Vec<DefenseSpec>, String> {
        self.defense.iter().map(|s| DefenseSpec::from_spec(s).map_err(|e| e.to_string())).collect()
    }
}

/// Executes the parsed command, returning the report text.
///
/// # Errors
///
/// Propagates channel/simulator failures as strings.
pub fn run(args: &Args) -> Result<String, String> {
    let mut out = String::new();
    // Cycle-engine counters accumulated across every transmission the
    // command performs; printed as a footer under `--stats`.
    let mut engine = gpgpu_sim::SimStats::default();
    match &args.command {
        Command::Help => out.push_str(USAGE),
        Command::Devices => {
            for d in presets::all() {
                let _ = writeln!(
                    out,
                    "{:<14} {:?}: {} SMs x {} schedulers, {} MHz, L1 {} B / L2 {} B",
                    d.name,
                    d.architecture,
                    d.num_sms,
                    d.sm.num_warp_schedulers,
                    d.clock_hz / 1_000_000,
                    d.const_l1.geometry.size_bytes(),
                    d.const_l2.geometry.size_bytes(),
                );
            }
        }
        Command::Chat(text) => {
            let spec = args.spec()?;
            let msg = Message::from_bytes(text.as_bytes());
            let data_sets = (spec.const_l1.geometry.num_sets() - 2).min(6) as u32;
            let ch = SyncChannel::new(spec.clone())
                .with_data_sets(data_sets)
                .map_err(|e| e.to_string())?
                .with_parallel_sms(spec.num_sms)
                .map_err(|e| e.to_string())?;
            let o = ch.transmit(&msg).map_err(|e| e.to_string())?;
            engine.merge(&o.stats);
            let _ = writeln!(
                out,
                "sent {} bits over {} ({} data sets x {} SMs)",
                msg.len(),
                spec.name,
                data_sets,
                spec.num_sms
            );
            let _ =
                writeln!(out, "received: {:?}", String::from_utf8_lossy(&o.received.to_bytes()));
            let _ =
                writeln!(out, "bandwidth: {:.0} Kbps, BER {:.2}%", o.bandwidth_kbps, o.ber * 100.0);
        }
        Command::Zoo => {
            let spec = args.spec()?;
            let msg = Message::pseudo_random(args.bits, 0xC11);
            let mut row = |name: &str, o: gpgpu_covert::ChannelOutcome| {
                engine.merge(&o.stats);
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>9.1} Kbps   BER {:>5.1}%",
                    o.bandwidth_kbps,
                    o.ber * 100.0
                );
            };
            row(
                "L1 cache (baseline)",
                L1Channel::new(spec.clone()).transmit(&msg).map_err(|e| e.to_string())?,
            );
            row(
                "L2 cache (cross-SM)",
                L2Channel::new(spec.clone()).transmit(&msg).map_err(|e| e.to_string())?,
            );
            row(
                "SFU __sinf",
                SfuChannel::new(spec.clone()).transmit(&msg).map_err(|e| e.to_string())?,
            );
            for s in AtomicScenario::ALL {
                row(
                    &format!("atomic: {}", s.label()),
                    AtomicChannel::new(spec.clone(), s)
                        .transmit(&msg)
                        .map_err(|e| e.to_string())?,
                );
            }
            row(
                "L1 synchronized",
                SyncChannel::new(spec.clone()).transmit(&msg).map_err(|e| e.to_string())?,
            );
            row(
                "L2 synchronized",
                SyncChannel::new_l2(spec.clone()).transmit(&msg).map_err(|e| e.to_string())?,
            );
            row(
                "SFU parallel (sched x SMs)",
                ParallelSfuChannel::new(spec.clone())
                    .with_parallel_sms(spec.num_sms)
                    .map_err(|e| e.to_string())?
                    .transmit(&msg)
                    .map_err(|e| e.to_string())?,
            );
        }
        Command::L1 => {
            let spec = args.spec()?;
            let msg = Message::pseudo_random(args.bits, 0xC14);
            let plan = args.faults.as_deref().map(gpgpu_sim::FaultPlan::from_spec).transpose()?;
            let defense = args.defense_spec()?;
            let engine_mode = args.engine.unwrap_or_else(default_engine_mode);
            if engine_mode == EngineMode::Analytical {
                if plan.is_some() || !defense.is_none() || args.trace_out.is_some() || args.profile
                {
                    return Err("the analytical engine predicts the clean channel only; \
                                --faults/--defense/--trace-out/--profile need a cycle engine"
                        .to_string());
                }
                return run_l1_analytical(&spec, &msg);
            }
            let mut tuning = DeviceTuning::from_defense(&defense);
            tuning.engine = engine_mode;
            let mut ch = L1Channel::new(spec.clone()).with_tuning(tuning);
            if let Some(p) = plan {
                ch = ch.with_faults(p);
            }
            let (o, capture) = ch
                .transmit_traced(&msg, gpgpu_sim::DEFAULT_TRACE_CAPACITY)
                .map_err(|e| e.to_string())?;
            engine.merge(&o.stats);
            let _ = writeln!(
                out,
                "L1 channel on {}: {} bits, {:.1} Kbps, BER {:.1}%",
                spec.name,
                msg.len(),
                o.bandwidth_kbps,
                o.ber * 100.0
            );
            if let Some(p) = plan {
                let _ = writeln!(out, "faults: {}", p.to_spec());
            }
            if !defense.is_none() {
                let _ = writeln!(out, "defense: {}", defense.to_spec());
            }
            let _ = writeln!(
                out,
                "trace: {} events recorded, {} dropped (ring capacity {})",
                capture.events.len(),
                capture.events.dropped(),
                capture.events.capacity()
            );
            if let Some(path) = &args.trace_out {
                let json = capture.chrome_trace_json();
                std::fs::write(path, &json)
                    .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
                let _ = writeln!(out, "wrote Chrome trace ({} bytes) to {path}", json.len());
            }
            if args.profile {
                out.push_str(&gpgpu_bench::report::render_contention_profile(
                    &capture.records(),
                    &capture.kernel_names,
                ));
            }
        }
        Command::Recon => {
            let spec = args.spec()?;
            let b = reverse_engineer_block_scheduler(&spec).map_err(|e| e.to_string())?;
            let w = reverse_engineer_warp_scheduler(&spec).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "device: {}", spec.name);
            let _ = writeln!(out, "block scheduler: leftover policy = {}", b.is_leftover_policy());
            let _ = writeln!(
                out,
                "  round robin {}, leftover co-location {}, queues when full {}",
                b.round_robin, b.leftover_colocation, b.queues_when_full
            );
            let _ = writeln!(out, "warp scheduler: assignment {:?}", w.assignment);
            let _ = writeln!(
                out,
                "  schedulers inferred from latency steps: {}",
                w.inferred_num_schedulers
            );
        }
        Command::Noise => {
            let spec = args.spec()?;
            let msg = Message::pseudo_random(args.bits, 0xC12);
            let exp =
                run_sync_with_noise(&spec, &msg, &[NoiseKind::ConstantCacheHog], args.exclusive)
                    .map_err(|e| e.to_string())?;
            engine.merge(&exp.outcome.stats);
            let _ = writeln!(
                out,
                "constant-cache noise, exclusive co-location = {}: noise co-located = {}, BER = {:.1}%",
                args.exclusive,
                exp.noise_overlapped,
                exp.outcome.ber * 100.0
            );
        }
        Command::Faults => {
            // The sweep is pinned to the calibrated K40C sync channel; the
            // spec only overrides the fault plan, not the device.
            let base = match &args.faults {
                Some(s) => gpgpu_sim::FaultPlan::from_spec(s)?,
                None => gpgpu_bench::data::fault_sweep_plan(1.0),
            };
            let defense = args.defense_spec()?;
            let intensities = [0.0, 0.5, 1.0];
            let pts = gpgpu_bench::data::fault_sweep_defended(
                args.bits,
                &intensities,
                base,
                DeviceTuning::from_defense(&defense),
            );
            let _ = writeln!(
                out,
                "fault sweep: {} bits over the synchronized L1 channel, plan {}",
                args.bits,
                base.to_spec()
            );
            if !defense.is_none() {
                let _ = writeln!(out, "defense: {}", defense.to_spec());
            }
            let _ = writeln!(
                out,
                "{:>9}  {:>8} {:>8} {:>8}  {:>12} {:>12} {:>12}",
                "intensity", "raw BER", "FEC BER", "ARQ BER", "raw Kbps", "FEC Kbps", "ARQ Kbps"
            );
            for p in &pts {
                let _ = writeln!(
                    out,
                    "{:>9.2}  {:>7.1}% {:>7.1}% {:>7.1}%  {:>12.1} {:>12.1} {:>12.1}",
                    p.intensity,
                    p.raw_ber * 100.0,
                    p.fec_ber * 100.0,
                    p.arq_ber * 100.0,
                    p.raw_goodput_kbps,
                    p.fec_goodput_kbps,
                    p.arq_goodput_kbps,
                );
            }
            out.push_str(
                "note: fault bursts flip multiple bits per Hamming codeword, so FEC can\n\
                 trail the raw channel under heavy storms; ARQ retransmits instead.\n",
            );
        }
        Command::Robust => {
            let spec = args.spec()?;
            let msg = Message::pseudo_random(args.bits, 0xC15);
            let plan = match &args.faults {
                Some(s) => gpgpu_sim::FaultPlan::from_spec(s)?,
                None => gpgpu_bench::data::fault_sweep_plan(1.0),
            };
            let defense = args.defense_spec()?;
            let mut env = LinkEnvironment::clean()
                .with_faults(plan)
                .with_noise(vec![NoiseKind::ConstantCacheHog], 40 + 30 * args.bits as u64)
                .with_defense(&defense);
            if let Some(s) = &args.topology {
                // Arms the ladder's terminal nvlink rung.
                env = env.with_topology(TopologySpec::from_spec(s).map_err(|e| e.to_string())?);
            }
            let link = AdaptiveLink::new(spec.clone()).with_env(env);
            let mode = if args.adaptive { "adaptive" } else { "static" };
            let _ = writeln!(
                out,
                "{mode} link on {}: {} bits under fault storm {} + constant-cache hog",
                spec.name,
                args.bits,
                plan.to_spec()
            );
            if !defense.is_none() {
                let _ = writeln!(out, "defense: {}", defense.to_spec());
            }
            let o = if args.adaptive {
                link.transmit(&msg).map_err(|e| e.to_string())?
            } else {
                link.transmit_static(&msg).map_err(|e| e.to_string())?
            };
            out.push_str(&o.diagnostic.to_string());
            let _ = writeln!(out, "{mode} BER {:.2}%", o.diagnostic.ber * 100.0);
        }
        Command::Nvlink => {
            let topo = args.topology_spec()?;
            let msg = Message::pseudo_random(args.bits, 0xC16);
            let defense = args.defense_spec()?;
            let mut ch = NvlinkChannel::new(topo)
                .map_err(|e| e.to_string())?
                .with_tuning(DeviceTuning::from_defense(&defense));
            if let Some(s) = &args.faults {
                ch = ch.with_faults(gpgpu_sim::FaultPlan::from_spec(s)?);
            }
            if !defense.is_none() {
                let _ = writeln!(out, "defense: {}", defense.to_spec());
            }
            let (spy, trojan) = ch.endpoints();
            let link = ch.topology().links[0];
            let _ = writeln!(out, "topology: {}", ch.topology().to_spec());
            let _ = writeln!(
                out,
                "link 0: spy on device {spy}, trojan on device {trojan} \
                 (latency {} cycles, slot {}, {} lanes)",
                link.latency_cycles, link.slot_cycles, link.lanes
            );
            let (o, trace) = ch.transmit_traced(&msg).map_err(|e| e.to_string())?;
            engine.merge(&o.stats);
            let _ = writeln!(
                out,
                "nvlink channel: {} bits, {:.1} Kbps, BER {:.2}%",
                msg.len(),
                o.bandwidth_kbps,
                o.ber * 100.0
            );
            let _ = writeln!(out, "trace: {} link transfers recorded", trace.len());
        }
        Command::Mitigations => {
            let spec = args.spec()?;
            let msg = Message::pseudo_random(args.bits, 0xC13);
            let topology = args.topology_spec()?;
            let min_ber = 0.2;
            let _ = writeln!(
                out,
                "defense evaluation on {}: {}-bit message, effective at BER >= {:.0}%",
                spec.name,
                args.bits,
                min_ber * 100.0
            );
            for d in
                ["partition=2", "randsched=0xd1ce", "fuzz=4096", "partition=2,randsched=0xd1ce"]
            {
                let defense = DefenseSpec::from_spec(d).map_err(|e| e.to_string())?;
                let _ = writeln!(out, "{defense}:");
                for family in Family::MATRIX {
                    let r = evaluate_against_family(&spec, family, &defense, &msg, Some(&topology))
                        .map_err(|e| e.to_string())?;
                    engine.merge(&r.baseline.stats);
                    engine.merge(&r.mitigated.stats);
                    let _ = writeln!(
                        out,
                        "  {:<12} BER {:>5.1}% -> {:>5.1}%  [{}]",
                        family.label(),
                        r.baseline.ber * 100.0,
                        r.mitigated.ber * 100.0,
                        r.verdict(min_ber)
                    );
                }
            }
            let (chan, benign) =
                contention_detection_margin(&spec, &msg).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "contention detector: channel score {chan} vs benign {benign}");
        }
        Command::Arena => {
            let spec = args.spec()?;
            let mut config =
                ArenaConfig::new(spec).with_bits(args.bits).with_topology(args.topology_spec()?);
            if !args.defense.is_empty() {
                config = config.with_defenses(args.defense_columns()?);
            }
            let report = run_arena(&config).map_err(|e| e.to_string())?;
            out.push_str(&report.render());
            let escapes = report.fallback_escapes();
            if escapes.is_empty() {
                out.push_str("no defense column was escaped via family fallback\n");
            }
            for cell in escapes {
                let _ = writeln!(
                    out,
                    "adaptive attacker escaped `{}` via fallback to {} \
                     ({:.2} kb/s residual, BER {:.1}%)",
                    cell.defense.to_spec(),
                    cell.final_family.as_deref().unwrap_or("?"),
                    cell.residual_bandwidth_kbps,
                    cell.ber * 100.0
                );
            }
        }
        Command::Characterize => match &args.table {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read table {path}: {e}"))?;
                let table = LatencyTable::from_spec(&text).map_err(|e| e.to_string())?;
                let reparsed =
                    LatencyTable::from_spec(&table.to_spec()).map_err(|e| e.to_string())?;
                if reparsed != table {
                    return Err(format!("table {path} does not round-trip through to_spec"));
                }
                let _ = writeln!(
                    out,
                    "loaded latency table for {}: {} op classes, {} families",
                    table.device,
                    table.ops().count(),
                    table.families().count()
                );
                out.push_str("round trip: ok\n");
            }
            None => {
                let spec = args.spec()?;
                let mut model = AnalyticalModel::characterize(&spec).map_err(|e| e.to_string())?;
                model.characterize_nvlink(&args.topology_spec()?).map_err(|e| e.to_string())?;
                let table = model.table();
                let _ = writeln!(
                    out,
                    "characterized {} from the cycle engine: {} op classes, {} families",
                    table.device,
                    table.ops().count(),
                    table.families().count()
                );
                let text = table.to_spec();
                match &args.out {
                    Some(path) => {
                        std::fs::write(path, &text)
                            .map_err(|e| format!("cannot write table to {path}: {e}"))?;
                        let _ =
                            writeln!(out, "wrote latency table ({} bytes) to {path}", text.len());
                    }
                    None => out.push_str(&text),
                }
            }
        },
        Command::Sweep => {
            let request =
                gpgpu_spec::SweepRequest::from_spec(args.request.as_deref().unwrap_or("default"))
                    .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "sweep request: {}", request.to_spec());
            let mut service = gpgpu_serve::SweepService::new(request).map_err(|e| e.to_string())?;
            if let Some(dir) = &args.cache_dir {
                service = service.with_cache_dir(dir).map_err(|e| e.to_string())?;
                let journal = std::path::Path::new(dir).join("journal.log");
                service = service.with_journal(journal, args.resume);
                let _ = writeln!(
                    out,
                    "cache: {dir} (journal {})",
                    if args.resume { "resumed" } else { "fresh" }
                );
            }
            if let Some(spec) = &args.chaos {
                let chaos = gpgpu_serve::ChaosPlan::from_spec(spec)?;
                service = service
                    .with_chaos(chaos)
                    .with_max_attempts(chaos.attempts_to_converge())
                    .with_backoff_base_ms(0);
                let _ = writeln!(
                    out,
                    "chaos: {} (attempt budget {})",
                    chaos,
                    chaos.attempts_to_converge()
                );
            }
            let matrix = service.run().map_err(|e| e.to_string())?;
            out.push_str(&matrix.render());
        }
    }
    if args.stats {
        let _ = writeln!(out, "engine: {engine}");
    }
    Ok(out)
}

/// The `l1 --engine analytical` path: characterize the L1 family from the
/// cycle engine, predict the transmission in closed form, then run one
/// simulated cross-check and report whether the works/dead verdicts agree
/// (the line CI greps for).
fn run_l1_analytical(spec: &DeviceSpec, msg: &Message) -> Result<String, String> {
    let mut out = String::new();
    let model =
        AnalyticalModel::characterize_families(spec, &[Family::L1]).map_err(|e| e.to_string())?;
    let ch = L1Channel::new(spec.clone());
    let knob = ch.iterations as f64;
    let pred = model.predict(Family::L1, knob, msg).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "L1 channel on {} (analytical): {} bits at {} iterations/bit, \
         predicted {:.1} Kbps, BER {:.1}% [{}]",
        spec.name,
        msg.len(),
        ch.iterations,
        pred.bandwidth_kbps,
        pred.ber * 100.0,
        pred.verdict.label()
    );
    let table = model.table();
    let _ = writeln!(
        out,
        "model: cycles/bit = {:.1} + {:.1} x iterations (extracted, no cycle loop at predict \
         time)",
        table.family(Family::L1).map_or(0.0, |m| m.base),
        table.family(Family::L1).map_or(0.0, |m| m.slope)
    );
    let sim = ch.transmit(msg).map_err(|e| e.to_string())?;
    let sim_verdict = ChannelVerdict::from_ber(sim.ber);
    let _ = writeln!(
        out,
        "simulated cross-check (event engine): {:.1} Kbps, BER {:.1}% [{}]",
        sim.bandwidth_kbps,
        sim.ber * 100.0,
        sim_verdict.label()
    );
    let _ = writeln!(
        out,
        "verdict agreement: {}",
        if pred.verdict == sim_verdict { "yes" } else { "NO" }
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_commands_and_options() {
        let a = Args::parse(&argv("zoo --device fermi --bits 8")).unwrap();
        assert_eq!(a.command, Command::Zoo);
        assert_eq!(a.device, "fermi");
        assert_eq!(a.bits, 8);

        let a = Args::parse(&argv("chat hello --device maxwell")).unwrap();
        assert_eq!(a.command, Command::Chat("hello".to_string()));

        let a = Args::parse(&argv("noise --exclusive")).unwrap();
        assert!(a.exclusive);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(&[]).is_err());
        assert!(Args::parse(&argv("frobnicate")).is_err());
        assert!(Args::parse(&argv("zoo --bits")).is_err());
        assert!(Args::parse(&argv("zoo --bits zero")).is_err());
        assert!(Args::parse(&argv("zoo --bits 0")).is_err());
        assert!(Args::parse(&argv("zoo --wat")).is_err());
        assert!(Args::parse(&argv("chat")).is_err());
        // Tracing flags are l1-only.
        assert!(Args::parse(&argv("l1 --trace-out")).is_err());
        assert!(Args::parse(&argv("zoo --trace-out t.json")).is_err());
        assert!(Args::parse(&argv("chat hi --profile")).is_err());
    }

    #[test]
    fn parses_l1_tracing_flags() {
        let a = Args::parse(&argv("l1 --trace-out t.json --profile --bits 4")).unwrap();
        assert_eq!(a.command, Command::L1);
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
        assert!(a.profile);
        assert_eq!(a.bits, 4);
        // Tracing is optional; a bare l1 run is fine.
        let a = Args::parse(&argv("l1")).unwrap();
        assert_eq!(a.trace_out, None);
        assert!(!a.profile);
    }

    #[test]
    fn l1_writes_chrome_trace_and_profile() {
        let path = std::env::temp_dir().join("gpgpu_cli_l1_trace_test.json");
        let path_s = path.to_str().unwrap().to_string();
        let mut a = Args::parse(&argv("l1 --profile --bits 4")).unwrap();
        a.trace_out = Some(path_s.clone());
        let out = run(&a).unwrap();
        assert!(out.contains("L1 channel"), "{out}");
        assert!(out.contains("events recorded"), "{out}");
        assert!(out.contains("wrote Chrome trace"), "{out}");
        assert!(out.contains("contention profile"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.starts_with("{\"displayTimeUnit\""), "{}", &json[..60.min(json.len())]);
        assert!(json.ends_with("]}\n"));
        assert!(json.contains("\"ph\":\"b\"") && json.contains("\"ph\":\"e\""), "block spans");
    }

    #[test]
    fn faults_flag_accept_reject_matrix() {
        const SPEC: &str = "seed=7,intensity=1,period=900000,burst=280000,set=2,kinds=evict+storm";
        // Accepted on the commands that run a faultable channel.
        for cmd in ["faults", "l1", "nvlink"] {
            let a = Args::parse(&argv(&format!("{cmd} --faults {SPEC}"))).unwrap();
            assert_eq!(a.faults.as_deref(), Some(SPEC), "{cmd}");
        }
        // A bare faults command falls back to the calibrated built-in plan.
        let a = Args::parse(&argv("faults")).unwrap();
        assert_eq!(a.command, Command::Faults);
        assert_eq!(a.faults, None);
        // Accepted on robust too (the adaptive-link demo).
        let a = Args::parse(&argv(&format!("robust --faults {SPEC}"))).unwrap();
        assert_eq!(a.faults.as_deref(), Some(SPEC));
        // Rejected everywhere else, mirroring the tracing-flag validation.
        for cmd in ["devices", "zoo", "recon", "noise", "mitigations", "help", "chat hi"] {
            let err = Args::parse(&argv(&format!("{cmd} --faults {SPEC}"))).unwrap_err();
            assert!(err.contains("--faults only applies"), "{cmd}: {err}");
        }
        // Missing value and malformed specs fail at parse time.
        assert!(Args::parse(&argv("faults --faults")).is_err());
        let err = Args::parse(&argv("faults --faults seed=banana")).unwrap_err();
        assert!(err.contains("invalid --faults spec"), "{err}");
        assert!(Args::parse(&argv("l1 --faults kinds=frobnicate")).is_err());
        assert!(Args::parse(&argv("faults --faults intensity=2.0")).is_err());
    }

    #[test]
    fn faults_command_reports_the_sweep() {
        let a = Args::parse(&argv("faults --bits 48")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("fault sweep: 48 bits"), "{out}");
        assert!(out.contains("intensity"), "{out}");
        // Header + one row per intensity point.
        assert_eq!(out.matches("Kbps").count(), 3, "{out}");
        assert_eq!(out.lines().filter(|l| l.trim_start().starts_with('0')).count(), 2, "{out}");
        assert!(out.contains("ARQ retransmits instead"), "{out}");
    }

    #[test]
    fn faults_command_honors_a_custom_plan() {
        let a =
            Args::parse(&argv("faults --bits 16 --faults seed=9,intensity=1,kinds=evict")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("plan seed=9"), "{out}");
        assert!(out.contains("kinds=evict"), "{out}");
    }

    #[test]
    fn l1_accepts_a_fault_plan_and_echoes_it() {
        let a = Args::parse(&argv("l1 --bits 8 --faults seed=5,intensity=0,kinds=all")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("L1 channel"), "{out}");
        // Intensity 0 installs the hooks without firing a fault: the run
        // must stay error-free and still echo the normalized plan.
        assert!(out.contains("BER 0.0%"), "{out}");
        assert!(out.contains("faults: seed=5"), "{out}");
    }

    #[test]
    fn adaptive_flag_accept_reject_matrix() {
        let a = Args::parse(&argv("robust --adaptive")).unwrap();
        assert_eq!(a.command, Command::Robust);
        assert!(a.adaptive);
        // A bare robust run is the static control arm.
        let a = Args::parse(&argv("robust --bits 16")).unwrap();
        assert!(!a.adaptive);
        // --adaptive is robust-only.
        for cmd in ["devices", "zoo", "l1", "faults", "noise", "chat hi"] {
            let err = Args::parse(&argv(&format!("{cmd} --adaptive"))).unwrap_err();
            assert!(err.contains("--adaptive only applies"), "{cmd}: {err}");
        }
    }

    #[test]
    fn robust_static_arm_fails_under_the_cache_hog_and_says_so() {
        // Even with fault intensity 0, the constant-cache-hog co-runner
        // corrupts the static-threshold channel; the control arm must
        // report the failure honestly with a one-stage trace (the adaptive
        // arm's recovery is exercised by `integration_adaptive` and CI).
        let a =
            Args::parse(&argv("robust --bits 16 --faults seed=5,intensity=0,kinds=all")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("static link"), "{out}");
        assert!(out.contains("ABORTED"), "{out}");
        assert!(out.contains("static      [l1-sync] failed"), "escalation trace row: {out}");
        assert!(!out.contains("static BER 0.00%"), "{out}");
    }

    #[test]
    fn topology_flag_accept_reject_matrix() {
        const SPEC: &str = "devices=kepler+maxwell,link=0-1:lat=80:slot=8:lanes=4";
        // Accepted on every command that can drive a multi-GPU fabric.
        for cmd in ["nvlink", "robust", "arena", "mitigations"] {
            let a = Args::parse(&argv(&format!("{cmd} --topology {SPEC}"))).unwrap();
            assert_eq!(a.topology.as_deref(), Some(SPEC), "{cmd}");
        }
        // A bare nvlink run falls back to the dual-device default.
        let a = Args::parse(&argv("nvlink")).unwrap();
        assert_eq!(a.command, Command::Nvlink);
        assert_eq!(a.topology, None);
        assert_eq!(
            a.topology_spec().unwrap().to_spec(),
            "devices=kepler+kepler,link=0-1:lat=40:slot=4:lanes=2"
        );
        // The default respects --device aliases through the shared table.
        let a = Args::parse(&argv("nvlink --device M4000")).unwrap();
        assert!(
            a.topology_spec().unwrap().to_spec().starts_with("devices=maxwell+maxwell"),
            "{a:?}"
        );
        // Rejected everywhere else, mirroring the other flag validations.
        for cmd in ["devices", "zoo", "l1", "faults", "recon", "noise", "chat hi"] {
            let err = Args::parse(&argv(&format!("{cmd} --topology {SPEC}"))).unwrap_err();
            assert!(err.contains("--topology only applies"), "{cmd}: {err}");
        }
        // Missing value and malformed specs fail at parse time.
        assert!(Args::parse(&argv("nvlink --topology")).is_err());
        for bad in [
            "devices=voodoo2+voodoo2,link=0-1",
            "devices=kepler+kepler,link=0-7",
            "devices=kepler+kepler,link=0-0",
            "link=0-1",
        ] {
            let err = Args::parse(&argv(&format!("nvlink --topology {bad}"))).unwrap_err();
            assert!(err.contains("invalid --topology spec"), "{bad}: {err}");
        }
        // A link-less topology parses but cannot host the channel: the
        // failure is a typed run-time error, not a panic.
        let a = Args::parse(&argv("nvlink --topology devices=kepler")).unwrap();
        let err = run(&a).unwrap_err();
        assert!(err.contains("the topology has 0"), "{err}");
    }

    #[test]
    fn defense_flag_accept_reject_matrix() {
        const SPEC: &str = "partition=2,fuzz=4096";
        // Accepted anywhere --faults is, plus arena.
        for cmd in ["faults", "l1", "robust", "nvlink", "arena"] {
            let a = Args::parse(&argv(&format!("{cmd} --defense {SPEC}"))).unwrap();
            assert_eq!(a.defense, vec![SPEC.to_string()], "{cmd}");
        }
        // A bare command deploys no defense.
        let a = Args::parse(&argv("l1")).unwrap();
        assert!(a.defense.is_empty());
        assert!(a.defense_spec().unwrap().is_none());
        // Repeatable: single-channel commands compose the flags into one
        // stacked defense (canonical component order), arena keeps columns.
        let a = Args::parse(&argv("l1 --defense fuzz=4096 --defense partition=2")).unwrap();
        assert_eq!(a.defense_spec().unwrap().to_spec(), "partition=2,fuzz=4096");
        let a = Args::parse(&argv("arena --defense partition=2 --defense fuzz=4096")).unwrap();
        assert_eq!(a.defense_columns().unwrap().len(), 2);
        // Same knob, different parameters: a typed composition error.
        let a = Args::parse(&argv("l1 --defense partition=2 --defense partition=4")).unwrap();
        let err = a.defense_spec().unwrap_err();
        assert!(err.contains("conflicting --defense flags"), "{err}");
        // Rejected everywhere else, mirroring the other flag validations.
        for cmd in ["devices", "zoo", "recon", "noise", "mitigations", "chat hi"] {
            let err = Args::parse(&argv(&format!("{cmd} --defense {SPEC}"))).unwrap_err();
            assert!(err.contains("--defense only applies"), "{cmd}: {err}");
        }
        // Missing value and malformed specs fail at parse time.
        assert!(Args::parse(&argv("l1 --defense")).is_err());
        for bad in ["partition=1", "fuzz=banana", "wat=3", "partition=2,partition=2"] {
            let err = Args::parse(&argv(&format!("l1 --defense {bad}"))).unwrap_err();
            assert!(err.contains("invalid --defense spec"), "{bad}: {err}");
        }
    }

    #[test]
    fn l1_defense_corrupts_the_channel_and_echoes_the_spec() {
        let a = Args::parse(&argv("l1 --bits 8 --defense partition=2")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("defense: partition=2"), "{out}");
        assert!(!out.contains("BER 0.0%"), "partitioning must corrupt the L1 channel: {out}");
        // No defense, no echo line.
        let a = Args::parse(&argv("l1 --bits 8")).unwrap();
        assert!(!run(&a).unwrap().contains("defense:"));
    }

    #[test]
    fn mitigations_matrix_covers_all_families_with_verdicts() {
        let a = Args::parse(&argv("mitigations --bits 8")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("defense evaluation"), "{out}");
        assert!(out.contains("8-bit message"), "--bits must be honored: {out}");
        // Every family appears once per defense block (4 defenses).
        for fam in ["l1", "sync", "parallel-sfu", "atomic", "nvlink"] {
            assert_eq!(
                out.lines().filter(|l| l.trim_start().starts_with(fam)).count(),
                4,
                "{fam}: {out}"
            );
        }
        // The three-state verdict distinguishes working defenses from
        // defenses that merely faced an already-broken channel.
        assert!(out.contains("[effective]"), "{out}");
        assert!(out.contains("[ineffective]"), "{out}");
        assert!(out.contains("partition=2,randsched=0xd1ce"), "composed defense: {out}");
        assert!(out.contains("contention detector"), "{out}");
    }

    #[test]
    fn arena_reports_the_matrix_and_the_fallback_escape() {
        let a = Args::parse(&argv("arena --bits 8 --defense partition=2")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("residual bandwidth"), "{out}");
        for row in ["l1", "sync", "parallel-sfu", "atomic", "nvlink", "adaptive"] {
            assert!(out.lines().any(|l| l.starts_with(row)), "{row}: {out}");
        }
        // Partitioning alone cannot contain the adaptive attacker: it hops
        // to an unprotected family and the arena says so.
        assert!(out.contains("escaped `partition=2` via fallback to"), "{out}");
    }

    #[test]
    fn nvlink_command_round_trips_a_known_payload() {
        let a = Args::parse(&argv("nvlink --bits 16 --stats")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("topology: devices=kepler+kepler"), "{out}");
        assert!(out.contains("spy on device 0, trojan on device 1"), "{out}");
        assert!(out.contains("16 bits"), "{out}");
        assert!(out.contains("BER 0.00%"), "{out}");
        assert!(out.contains("link transfers recorded"), "{out}");
        assert!(out.contains("engine:"), "{out}");
    }

    #[test]
    fn nvlink_honors_an_explicit_topology() {
        let a = Args::parse(&argv(
            "nvlink --bits 8 --topology devices=maxwell+maxwell,link=0-1:lat=120:lanes=4",
        ))
        .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("devices=maxwell+maxwell"), "{out}");
        assert!(out.contains("latency 120 cycles"), "{out}");
        assert!(out.contains("4 lanes"), "{out}");
        assert!(out.contains("BER 0.00%"), "{out}");
    }

    #[test]
    fn nvlink_reports_saturation_as_a_typed_error() {
        let a = Args::parse(&argv(
            "nvlink --bits 8 --faults seed=2989,intensity=1,period=30000,burst=30000,kinds=link",
        ))
        .unwrap();
        let err = run(&a).unwrap_err();
        assert!(err.contains("saturated"), "{err}");
    }

    #[test]
    fn engine_flag_accept_reject_matrix() {
        let a = Args::parse(&argv("l1 --engine analytical")).unwrap();
        assert_eq!(a.engine, Some(EngineMode::Analytical));
        let a = Args::parse(&argv("l1 --engine dense")).unwrap();
        assert_eq!(a.engine, Some(EngineMode::Dense));
        let a = Args::parse(&argv("l1 --engine event")).unwrap();
        assert_eq!(a.engine, Some(EngineMode::EventDriven));
        // Absent flag defers to the environment/default at run time.
        let a = Args::parse(&argv("l1")).unwrap();
        assert_eq!(a.engine, None);
        // Unknown engines and misplaced flags fail at parse time.
        let err = Args::parse(&argv("l1 --engine warp9")).unwrap_err();
        assert!(err.contains("invalid --engine value"), "{err}");
        assert!(Args::parse(&argv("l1 --engine")).is_err());
        for cmd in ["zoo", "nvlink", "arena", "characterize", "chat hi"] {
            let err = Args::parse(&argv(&format!("{cmd} --engine dense"))).unwrap_err();
            assert!(err.contains("--engine only applies"), "{cmd}: {err}");
        }
    }

    #[test]
    fn l1_analytical_predicts_and_cross_checks() {
        let a = Args::parse(&argv("l1 --engine analytical --bits 16")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("(analytical)"), "{out}");
        assert!(out.contains("predicted"), "{out}");
        assert!(out.contains("simulated cross-check"), "{out}");
        assert!(out.contains("verdict agreement: yes"), "{out}");
        // The closed form cannot model faults, defenses or traces.
        for flags in ["--faults seed=1,intensity=0", "--defense partition=2", "--profile"] {
            let a = Args::parse(&argv(&format!("l1 --engine analytical {flags}"))).unwrap();
            let err = run(&a).unwrap_err();
            assert!(err.contains("need a cycle engine"), "{flags}: {err}");
        }
    }

    #[test]
    fn l1_dense_engine_matches_the_default_event_engine() {
        let event = run(&Args::parse(&argv("l1 --engine event --bits 8")).unwrap()).unwrap();
        let dense = run(&Args::parse(&argv("l1 --engine dense --bits 8")).unwrap()).unwrap();
        assert_eq!(event, dense, "engine choice must not change the report");
    }

    #[test]
    fn characterize_dumps_and_verifies_a_round_tripping_table() {
        let path = std::env::temp_dir().join("gpgpu_cli_latency_table_test.txt");
        let path_s = path.to_str().unwrap().to_string();
        let mut a = Args::parse(&argv("characterize")).unwrap();
        a.out = Some(path_s.clone());
        let out = run(&a).unwrap();
        assert!(out.contains("characterized Tesla K40C"), "{out}");
        assert!(out.contains("6 op classes, 6 families"), "{out}");
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.starts_with("gpgpu-latency-table v1"), "{dump}");
        for family in ["l1", "l2", "sfu", "atomic", "sync", "nvlink"] {
            assert!(dump.contains(&format!("family {family} ")), "{family}: {dump}");
        }
        // Loading the dump verifies the round trip.
        let mut a = Args::parse(&argv("characterize")).unwrap();
        a.table = Some(path_s);
        let out = run(&a).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("round trip: ok"), "{out}");
        // A garbled dump is a typed error naming the bad line.
        let bad = std::env::temp_dir().join("gpgpu_cli_latency_table_bad.txt");
        std::fs::write(&bad, "gpgpu-latency-table v1 device=x\nop wat 1\n").unwrap();
        let mut a = Args::parse(&argv("characterize")).unwrap();
        a.table = Some(bad.to_str().unwrap().to_string());
        let err = run(&a).unwrap_err();
        std::fs::remove_file(&bad).ok();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn characterize_flag_accept_reject_matrix() {
        assert!(Args::parse(&argv("characterize")).is_ok());
        assert!(Args::parse(&argv("characterize --out t.txt")).is_ok());
        assert!(Args::parse(&argv("characterize --table t.txt")).is_ok());
        let err = Args::parse(&argv("characterize --out a --table b")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        for cmd in ["zoo", "l1", "arena"] {
            let err = Args::parse(&argv(&format!("{cmd} --out t.txt"))).unwrap_err();
            assert!(err.contains("--out/--table only apply"), "{cmd}: {err}");
        }
        assert!(Args::parse(&argv("characterize --out")).is_err());
        assert!(Args::parse(&argv("characterize --table")).is_err());
    }

    #[test]
    fn sweep_flag_accept_reject_matrix() {
        assert!(Args::parse(&argv("sweep")).is_ok());
        assert!(Args::parse(&argv("sweep --request device=kepler;family=l1;iters=4")).is_ok());
        assert!(Args::parse(&argv("sweep --cache-dir /tmp/c")).is_ok());
        assert!(Args::parse(&argv("sweep --cache-dir /tmp/c --resume")).is_ok());
        assert!(Args::parse(&argv("sweep --chaos seed=7,kills=2")).is_ok());
        // Bad sub-specs fail at parse time with the grammar's reason.
        let err = Args::parse(&argv("sweep --request family=l3")).unwrap_err();
        assert!(err.contains("invalid --request spec"), "{err}");
        let err = Args::parse(&argv("sweep --chaos kills=banana")).unwrap_err();
        assert!(err.contains("invalid --chaos spec"), "{err}");
        // --resume without a cache directory has no journal to resume.
        let err = Args::parse(&argv("sweep --resume")).unwrap_err();
        assert!(err.contains("--resume needs --cache-dir"), "{err}");
        // Sweep flags are rejected everywhere else.
        for cmd in ["zoo", "l1", "arena"] {
            let err = Args::parse(&argv(&format!("{cmd} --cache-dir /tmp/c"))).unwrap_err();
            assert!(err.contains("only apply to the sweep command"), "{cmd}: {err}");
        }
        assert!(Args::parse(&argv("sweep --request")).is_err());
        assert!(Args::parse(&argv("sweep --cache-dir")).is_err());
        assert!(Args::parse(&argv("sweep --chaos")).is_err());
    }

    #[test]
    fn sweep_command_prints_the_matrix_and_digest() {
        let a = Args::parse(&argv("sweep --request device=kepler;family=l1+atomic;iters=4;bits=8"))
            .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("sweep request: device=kepler;family=l1+atomic"), "{out}");
        assert!(out.contains("cells=2 computed=2"), "{out}");
        assert!(out.contains("matrix digest 0x"), "{out}");
    }

    #[test]
    fn sweep_warm_cache_and_chaos_reproduce_the_digest() {
        let dir = std::env::temp_dir().join(format!("gpgpu-cli-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let request = "--request device=kepler;family=l1;iters=4+8;bits=8";
        let digest_of = |out: &str| {
            out.lines()
                .find_map(|l| l.strip_prefix("matrix digest "))
                .map(str::to_string)
                .expect("digest line")
        };
        let cold =
            run(&Args::parse(&argv(&format!("sweep {request} --cache-dir {}", dir.display())))
                .unwrap())
            .unwrap();
        assert!(cold.contains("computed=2"), "{cold}");
        let warm = run(&Args::parse(&argv(&format!(
            "sweep {request} --cache-dir {} --resume",
            dir.display()
        )))
        .unwrap())
        .unwrap();
        assert!(warm.contains("resumed=2"), "the journal resumes the finished run: {warm}");
        let chaotic =
            run(&Args::parse(&argv(&format!("sweep {request} --chaos seed=3,kills=2,stalls=1")))
                .unwrap())
            .unwrap();
        assert_eq!(digest_of(&cold), digest_of(&warm));
        assert_eq!(digest_of(&cold), digest_of(&chaotic), "{chaotic}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn device_aliases_resolve() {
        for (alias, name) in
            [("fermi", "Tesla C2075"), ("K40C", "Tesla K40C"), ("quadro-m4000", "Quadro M4000")]
        {
            let mut a = Args::parse(&argv("devices")).unwrap();
            a.device = alias.to_string();
            assert_eq!(a.spec().unwrap().name, name);
        }
        let mut a = Args::parse(&argv("devices")).unwrap();
        a.device = "voodoo2".to_string();
        assert!(a.spec().is_err());
    }

    #[test]
    fn devices_and_help_reports() {
        let a = Args::parse(&argv("devices")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("Tesla K40C"));
        let a = Args::parse(&argv("help")).unwrap();
        assert!(run(&a).unwrap().contains("usage"));
    }

    #[test]
    fn recon_runs_end_to_end() {
        let a = Args::parse(&argv("recon --device kepler")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("leftover policy = true"), "{out}");
        assert!(out.contains("latency steps: 4"), "{out}");
    }

    #[test]
    fn chat_round_trips() {
        let a = Args::parse(&argv("chat hi")).unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("\"hi\""), "{out}");
        assert!(out.contains("BER 0.00%"), "{out}");
        assert!(!out.contains("engine:"), "no counters without --stats: {out}");
    }

    #[test]
    fn stats_flag_appends_engine_counters() {
        let a = Args::parse(&argv("chat hi --stats")).unwrap();
        assert!(a.stats);
        let out = run(&a).unwrap();
        assert!(out.contains("engine: cycles:"), "{out}");
        assert!(out.contains("SM-steps:"), "{out}");
    }
}
