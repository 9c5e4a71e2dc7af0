//! Multi-threaded trial harness for channel sweeps.
//!
//! Every experiment in the paper's evaluation is a set of *independent*
//! trials: one transmission per iteration count (Figure 5), one device per
//! sweep point (Figures 2/3/6/7), one seeded run per BER sample. Each trial
//! builds its own [`gpgpu_sim::Device`], so trials share no mutable state
//! and can run on any thread in any order without changing a single bit of
//! output.
//!
//! [`TrialRunner`] exploits that: it fans trials across scoped OS threads
//! (`std::thread::scope` — no external thread-pool dependency), hands each
//! trial a deterministic per-index seed, and collects results back in index
//! order. The same seeds through [`TrialRunner::sequential`] and through an
//! N-worker runner produce bit-identical results; the integration test
//! `integration_harness_determinism` enforces this.
//!
//! Worker count resolution order: explicit [`TrialRunner::with_workers`],
//! then the `GPGPU_TRIAL_WORKERS` environment variable, then
//! `std::thread::available_parallelism()`.

use crate::CovertError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `build` once per [`gpgpu_sim::EngineMode`] and asserts the two
/// engines produced identical results, returning the (shared) value.
///
/// The event-driven engine's correctness contract is that it only skips
/// work that provably cannot change architectural state, so *any*
/// observable divergence from the dense engine is a bug. This helper is the
/// reusable form of that check: hand it a closure that runs a whole channel
/// transmission (or any other simulation) under the given engine mode and
/// returns the architectural results — received bits, cycles, latency
/// samples. Compare values derived from simulation *results*, not
/// [`gpgpu_sim::SimStats`] engine counters (cycle/SM-visit counts
/// legitimately differ between engines — skipping work is the whole point).
///
/// Floating-point fields (`ber`, `bandwidth_kbps`) should be compared via
/// [`f64::to_bits`] so the check stays exact.
///
/// # Panics
///
/// Panics (via `assert_eq!`) when the engines disagree, naming `what`.
pub fn assert_engines_agree<T, F>(what: &str, build: F) -> T
where
    T: PartialEq + fmt::Debug,
    F: Fn(gpgpu_sim::EngineMode) -> T,
{
    let dense = build(gpgpu_sim::EngineMode::Dense);
    let event = build(gpgpu_sim::EngineMode::EventDriven);
    assert_eq!(dense, event, "engine divergence in {what} (Dense vs EventDriven)");
    event
}

/// The three-way form of [`assert_engines_agree`]: Dense and EventDriven
/// must still be bit-identical, while the `analytical` value — a closed-form
/// prediction, not another cycle engine — is held to the caller's `within`
/// comparator (typically [`crate::analytic::Tolerance::check`] wrapped over
/// the simulated outcome).
///
/// Returns the simulated value, like [`assert_engines_agree`].
///
/// # Panics
///
/// Panics when the cycle engines disagree, or when `within` reports the
/// analytical value outside tolerance — the panic message names `what` and
/// repeats the comparator's explanation.
pub fn assert_engines_agree_within<T, F, W>(what: &str, build: F, analytical: &T, within: W) -> T
where
    T: PartialEq + fmt::Debug,
    F: Fn(gpgpu_sim::EngineMode) -> T,
    W: FnOnce(&T, &T) -> Result<(), String>,
{
    let simulated = assert_engines_agree(what, build);
    if let Err(reason) = within(&simulated, analytical) {
        panic!(
            "analytical divergence in {what}: {reason}\n simulated: {simulated:?}\n \
             analytical: {analytical:?}"
        );
    }
    simulated
}

/// One independent unit of work handed to a trial closure: its position in
/// the batch, a deterministic seed derived from the runner's base seed, and
/// the runner's per-trial cycle deadline (if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Index of this trial in `0..trials`.
    pub index: usize,
    /// Seed for this trial, derived from the runner's base seed and the
    /// index by a splitmix-style mix — identical for every worker count.
    pub seed: u64,
    /// Device-cycle budget the trial should impose on its own simulation
    /// (e.g. via a channel's `with_bit_budget` / `with_cycle_budget`).
    /// Exceeding it surfaces as [`TrialError::DeadlineExceeded`] through
    /// [`TrialRunner::run_caught`]. `None` leaves the channels' defaults.
    pub deadline: Option<u64>,
}

impl Trial {
    /// A [`StdRng`] seeded with this trial's seed.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// Why one trial in a [`TrialRunner::run_caught`] batch produced no result.
/// The rest of the batch is unaffected — trials share no mutable state, so
/// one trial's death says nothing about its neighbors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialError {
    /// The trial closure panicked; the payload's message is preserved.
    Panicked {
        /// The panic payload, stringified (`<non-string panic>` otherwise).
        message: String,
    },
    /// The trial's simulation blew through its cycle deadline
    /// ([`gpgpu_sim::SimError::CycleLimitExceeded`] — typically a hung
    /// handshake or a deadline from [`TrialRunner::with_deadline`]).
    DeadlineExceeded {
        /// The cycle budget that was exhausted.
        budget: u64,
    },
    /// A multi-GPU link's transfer queue exceeded its limit
    /// ([`gpgpu_sim::SimError::LinkSaturated`] — a congestion storm or an
    /// over-aggressive trojan, deterministic for a given cell).
    LinkSaturated {
        /// The saturated link index.
        link: usize,
        /// The queue delay that exceeded the limit.
        queue_cycles: u64,
    },
    /// Two defense components lowered conflicting values onto one tuning
    /// knob ([`gpgpu_sim::SimError::TuningConflict`]).
    TuningConflict {
        /// The contested tuning knob.
        field: &'static str,
    },
    /// The trial was configured in a way the channel cannot run (a
    /// [`CovertError::Config`] — e.g. an nvlink cell without a topology, or
    /// an analytical-model probe on an unsupported family).
    Misconfigured {
        /// Human-readable description of the configuration problem.
        reason: String,
    },
    /// Any other [`CovertError`], stringified.
    Failed(String),
}

impl TrialError {
    /// Classifies a [`CovertError`] from a trial into the most precise
    /// variant available: cycle-limit overruns become
    /// [`TrialError::DeadlineExceeded`], link saturation and tuning
    /// conflicts keep their typed payloads, configuration problems become
    /// [`TrialError::Misconfigured`], and only genuinely unclassified
    /// errors fall through to [`TrialError::Failed`].
    pub fn from_covert(e: &CovertError) -> Self {
        match e {
            CovertError::Sim(gpgpu_sim::SimError::CycleLimitExceeded { limit }) => {
                TrialError::DeadlineExceeded { budget: *limit }
            }
            CovertError::Sim(gpgpu_sim::SimError::LinkSaturated { link, queue_cycles }) => {
                TrialError::LinkSaturated { link: *link, queue_cycles: *queue_cycles }
            }
            CovertError::Sim(gpgpu_sim::SimError::TuningConflict { field, .. }) => {
                TrialError::TuningConflict { field }
            }
            CovertError::Config { reason } => TrialError::Misconfigured { reason: reason.clone() },
            other => TrialError::Failed(other.to_string()),
        }
    }

    /// Whether a supervisor should retry a trial that died with this error.
    /// Panics and deadline overruns are *transient* (a crashed or stalled
    /// worker says nothing about the cell itself); everything else is a
    /// deterministic property of the cell and will fail identically on
    /// every attempt, so retrying only burns the attempt budget.
    pub fn is_transient(&self) -> bool {
        matches!(self, TrialError::Panicked { .. } | TrialError::DeadlineExceeded { .. })
    }
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialError::Panicked { message } => write!(f, "trial panicked: {message}"),
            TrialError::DeadlineExceeded { budget } => {
                write!(f, "trial exceeded its {budget}-cycle deadline")
            }
            TrialError::LinkSaturated { link, queue_cycles } => {
                write!(f, "trial saturated link {link} (transfer queued {queue_cycles} cycles)")
            }
            TrialError::TuningConflict { field } => {
                write!(f, "trial tuning conflict on `{field}`")
            }
            TrialError::Misconfigured { reason } => write!(f, "trial misconfigured: {reason}"),
            TrialError::Failed(msg) => write!(f, "trial failed: {msg}"),
        }
    }
}

impl std::error::Error for TrialError {}

/// Stringifies a panic payload (the `&str` / `String` payloads `panic!`
/// produces; anything else becomes a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Fans independent seeded trials across scoped worker threads.
///
/// ```
/// use gpgpu_covert::harness::TrialRunner;
///
/// let runner = TrialRunner::new().with_base_seed(7);
/// let squares = runner.run(8, |t| (t.index * t.index, t.seed));
/// assert_eq!(squares[3].0, 9);
/// // Seeds are a pure function of (base_seed, index):
/// assert_eq!(squares, TrialRunner::sequential().with_base_seed(7).run(8, |t| (t.index * t.index, t.seed)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRunner {
    workers: usize,
    base_seed: u64,
    deadline: Option<u64>,
}

impl Default for TrialRunner {
    fn default() -> Self {
        Self::new()
    }
}

/// Default base seed (shared with the channels' default jitter seed family).
const DEFAULT_BASE_SEED: u64 = 0x5EED_0000_0000_0000;

fn mix_seed(base: u64, index: u64) -> u64 {
    // SplitMix64 over (base ^ golden-ratio-scaled index): uncorrelated
    // per-trial streams, stable across platforms and worker counts.
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The accepted `GPGPU_TRIAL_WORKERS` values: positive integers.
fn parse_workers(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&w| w >= 1)
}

impl TrialRunner {
    /// A runner sized to the machine: `GPGPU_TRIAL_WORKERS` if set, else
    /// `available_parallelism()`, else 1.
    ///
    /// A set-but-unusable `GPGPU_TRIAL_WORKERS` (not a positive integer,
    /// or not valid Unicode) falls back to the autodetected count and
    /// prints a one-time warning to stderr naming the rejected value —
    /// previously such values were silently ignored, which made a typo'd
    /// `GPGPU_TRIAL_WORKERS=O1` indistinguishable from an honored one.
    pub fn new() -> Self {
        let default = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = crate::env::env_knob(
            "GPGPU_TRIAL_WORKERS",
            &format!("a positive integer; using {default} worker(s)"),
            default,
            default,
            parse_workers,
        );
        TrialRunner { workers, base_seed: DEFAULT_BASE_SEED, deadline: None }
    }

    /// A single-threaded runner — the reference path for determinism checks.
    pub fn sequential() -> Self {
        TrialRunner { workers: 1, base_seed: DEFAULT_BASE_SEED, deadline: None }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the base seed all per-trial seeds derive from.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets a per-trial device-cycle deadline, handed to every trial as
    /// [`Trial::deadline`]. The trial closure is responsible for imposing
    /// it on its simulation (channels expose `with_bit_budget` /
    /// `with_cycle_budget` for exactly this); an overrun then surfaces as
    /// [`TrialError::DeadlineExceeded`] through [`TrialRunner::run_caught`]
    /// instead of hanging the whole sweep on one stuck handshake.
    pub fn with_deadline(mut self, cycles: u64) -> Self {
        self.deadline = Some(cycles);
        self
    }

    /// The per-trial cycle deadline, if one is set.
    pub fn deadline(&self) -> Option<u64> {
        self.deadline
    }

    /// The resolved worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The seed trial `index` will receive — a pure function of
    /// `(base_seed, index)`, independent of worker count and schedule.
    pub fn seed_for(&self, index: usize) -> u64 {
        mix_seed(self.base_seed, index as u64)
    }

    fn trial(&self, index: usize) -> Trial {
        Trial { index, seed: self.seed_for(index), deadline: self.deadline }
    }

    /// The panic-isolating core: every trial runs under `catch_unwind`, so
    /// one panicking trial cannot poison a result slot or tear down the
    /// scope while other workers hold unfinished trials. Returns each
    /// trial's value or its panic payload, in index order.
    fn run_raw<T, F>(&self, trials: usize, f: &F) -> Vec<Result<T, Box<dyn std::any::Any + Send>>>
    where
        T: Send,
        F: Fn(Trial) -> T + Sync,
    {
        let effective = self.workers.min(trials.max(1));
        if effective <= 1 {
            return (0..trials)
                .map(|i| catch_unwind(AssertUnwindSafe(|| f(self.trial(i)))))
                .collect();
        }
        let next = AtomicUsize::new(0);
        type Slot<T> = Mutex<Option<Result<T, Box<dyn std::any::Any + Send>>>>;
        let slots: Vec<Slot<T>> = (0..trials).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..effective {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= trials {
                        break;
                    }
                    let value = catch_unwind(AssertUnwindSafe(|| f(self.trial(i))));
                    *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                        Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every trial index was claimed exactly once")
            })
            .collect()
    }

    /// Runs `trials` independent trials of `f`, returning results in trial
    /// order. Work is claimed from a shared atomic counter, so threads never
    /// idle while trials remain; results are written back by index, so the
    /// output order (and content, for deterministic `f`) is identical for
    /// every worker count.
    ///
    /// # Panics
    ///
    /// Re-raises a panicking trial's payload — but only after every other
    /// trial in the batch has completed, and always the *lowest-indexed*
    /// panic, so the observable behavior is identical for every worker
    /// count (previously a panic on one worker could poison result slots
    /// and abort unrelated trials non-deterministically). Use
    /// [`TrialRunner::run_caught`] to receive per-trial errors instead.
    pub fn run<T, F>(&self, trials: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Trial) -> T + Sync,
    {
        let mut results = Vec::with_capacity(trials);
        let mut first_panic = None;
        for outcome in self.run_raw(trials, &f) {
            match outcome {
                Ok(v) => results.push(v),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        results
    }

    /// As [`TrialRunner::run`] for fallible trials, with full per-trial
    /// fault isolation: a trial that returns an error, panics, or blows
    /// through its cycle deadline yields an `Err(`[`TrialError`]`)` in its
    /// slot while the rest of the batch completes normally — one hung or
    /// crashed configuration no longer costs the whole sweep.
    pub fn run_caught<T, F>(&self, trials: usize, f: F) -> Vec<Result<T, TrialError>>
    where
        T: Send,
        F: Fn(Trial) -> Result<T, CovertError> + Sync,
    {
        self.run_raw(trials, &f)
            .into_iter()
            .map(|outcome| match outcome {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(e)) => Err(TrialError::from_covert(&e)),
                Err(payload) => Err(TrialError::Panicked { message: panic_message(&*payload) }),
            })
            .collect()
    }

    /// Maps `f` over `items` in parallel, preserving item order — the sweep
    /// form of [`TrialRunner::run`] (one trial per sweep point).
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(Trial, &I) -> T + Sync,
    {
        self.run(items.len(), |t| f(t, &items[t.index]))
    }

    /// Like [`TrialRunner::map`] but for fallible trials: returns the
    /// first error by item order (deterministic even when a later item
    /// fails first in wall-clock time).
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing trial.
    pub fn try_map<I, T, E, F>(&self, items: &[I], f: F) -> Result<Vec<T>, E>
    where
        I: Sync,
        T: Send,
        E: Send,
        F: Fn(Trial, &I) -> Result<T, E> + Sync,
    {
        self.run(items.len(), |t| f(t, &items[t.index])).into_iter().collect()
    }

    /// Mean of per-trial bit-error rates over `trials` seeded trials — the
    /// multi-trial form of [`crate::bits::Message::bit_error_rate`]. Each
    /// trial receives its own deterministic seed (e.g. for launch jitter)
    /// and returns one BER sample; the mean is order-independent.
    pub fn mean_ber<F>(&self, trials: usize, f: F) -> f64
    where
        F: Fn(Trial) -> f64 + Sync,
    {
        if trials == 0 {
            return 0.0;
        }
        let samples = self.run(trials, f);
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn engines_agree_returns_the_shared_value() {
        let v = assert_engines_agree("constant workload", |mode| {
            // Mode-independent computation: both arms produce 42.
            let _ = mode;
            42u64
        });
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "engine divergence in rigged workload")]
    fn engines_agree_panics_on_divergence() {
        assert_engines_agree("rigged workload", |mode| mode == gpgpu_sim::EngineMode::Dense);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let r = TrialRunner::sequential().with_base_seed(42);
        let seeds: Vec<u64> = (0..64).map(|i| r.seed_for(i)).collect();
        assert_eq!(seeds, (0..64).map(|i| r.seed_for(i)).collect::<Vec<_>>());
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "seed collision");
        // Different base seed => different stream.
        assert_ne!(seeds[0], TrialRunner::sequential().with_base_seed(43).seed_for(0));
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let work = |t: Trial| -> (usize, u64, u64) {
            let mut rng = t.rng();
            (t.index, t.seed, rng.gen_range(0..u64::MAX))
        };
        let seq = TrialRunner::sequential().run(33, work);
        for workers in [2, 3, 8] {
            let par = TrialRunner::sequential().with_workers(workers).run(33, work);
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn map_preserves_item_order() {
        let items = [10u64, 20, 30, 40, 50];
        let r = TrialRunner::new().with_workers(4);
        let out = r.map(&items, |t, &x| x + t.index as u64);
        assert_eq!(out, vec![10, 21, 32, 43, 54]);
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        let items = [1u32, 2, 3, 4];
        let r = TrialRunner::new().with_workers(4);
        let res: Result<Vec<u32>, String> =
            r.try_map(&items, |_, &x| if x % 2 == 0 { Err(format!("bad {x}")) } else { Ok(x) });
        assert_eq!(res.unwrap_err(), "bad 2");
    }

    #[test]
    fn mean_ber_averages_and_handles_zero_trials() {
        let r = TrialRunner::new();
        assert_eq!(r.mean_ber(0, |_| 1.0), 0.0);
        let mean = r.mean_ber(10, |t| if t.index < 5 { 0.0 } else { 1.0 });
        assert!((mean - 0.5).abs() < 1e-12);
    }

    #[test]
    fn worker_resolution_honors_valid_and_rejects_invalid_values() {
        use crate::env::resolve_knob;
        use std::env::VarError;
        let resolve_workers = |raw, default| resolve_knob(raw, default, default, parse_workers);
        // Honored.
        assert_eq!(resolve_workers(Ok("4".into()), 8), (4, None));
        // Absent: default, no warning.
        assert_eq!(resolve_workers(Err(VarError::NotPresent), 8), (8, None));
        // Present but unusable: default, warning names the rejected value.
        assert_eq!(resolve_workers(Ok("0".into()), 8), (8, Some("`0`".into())));
        assert_eq!(resolve_workers(Ok("O1".into()), 8), (8, Some("`O1`".into())));
        assert_eq!(resolve_workers(Ok("-3".into()), 2), (2, Some("`-3`".into())));
        let (w, rejected) =
            resolve_workers(Err(VarError::NotUnicode(std::ffi::OsString::from("x"))), 8);
        assert_eq!((w, rejected.as_deref()), (8, Some("<non-unicode>")));
    }

    #[test]
    fn zero_trials_and_single_trial_work() {
        let r = TrialRunner::new().with_workers(8);
        assert!(r.run(0, |t| t.index).is_empty());
        assert_eq!(r.run(1, |t| t.index), vec![0]);
    }

    #[test]
    fn a_panicking_trial_does_not_poison_the_batch() {
        // Regression: a panic on one worker used to poison its result-slot
        // Mutex and abort unrelated trials with "result slot poisoned". Now
        // the batch drains, then the panic is re-raised with its payload.
        for workers in [1usize, 4] {
            let completed = AtomicUsize::new(0);
            let r = TrialRunner::sequential().with_workers(workers);
            let err = catch_unwind(AssertUnwindSafe(|| {
                r.run(16, |t| {
                    if t.index == 5 {
                        panic!("trial 5 exploded");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    t.index
                })
            }))
            .unwrap_err();
            assert_eq!(panic_message(&*err), "trial 5 exploded", "workers={workers}");
            assert_eq!(
                completed.load(Ordering::Relaxed),
                15,
                "all other trials completed (workers={workers})"
            );
        }
    }

    #[test]
    fn multiple_panics_reraise_the_lowest_index_deterministically() {
        let r = TrialRunner::sequential().with_workers(8);
        let err = catch_unwind(AssertUnwindSafe(|| {
            r.run(32, |t| {
                if t.index % 7 == 3 {
                    panic!("boom at {}", t.index);
                }
                t.index
            })
        }))
        .unwrap_err();
        assert_eq!(panic_message(&*err), "boom at 3");
    }

    #[test]
    fn run_caught_isolates_panics_errors_and_deadlines() {
        let r = TrialRunner::sequential().with_workers(4).with_deadline(1_000);
        let out = r.run_caught(6, |t| {
            assert_eq!(t.deadline, Some(1_000));
            match t.index {
                1 => panic!("kaboom"),
                2 => Err(CovertError::Sim(gpgpu_sim::SimError::CycleLimitExceeded {
                    limit: t.deadline.unwrap(),
                })),
                3 => Err(CovertError::ZeroCycleTransmission),
                _ => Ok(t.index),
            }
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[1], Err(TrialError::Panicked { message: "kaboom".into() }));
        assert_eq!(out[2], Err(TrialError::DeadlineExceeded { budget: 1_000 }));
        assert!(matches!(&out[3], Err(TrialError::Failed(m)) if m.contains("zero cycles")));
        assert_eq!(out[4], Ok(4));
        assert_eq!(out[5], Ok(5));
        // The error type prints something a human can act on.
        assert!(out[2].as_ref().unwrap_err().to_string().contains("1000-cycle deadline"));
    }

    #[test]
    fn from_covert_keeps_typed_payloads() {
        use gpgpu_sim::SimError;
        let e = TrialError::from_covert(&CovertError::Sim(SimError::LinkSaturated {
            link: 2,
            queue_cycles: 77,
        }));
        assert_eq!(e, TrialError::LinkSaturated { link: 2, queue_cycles: 77 });
        let e = TrialError::from_covert(&CovertError::Sim(SimError::TuningConflict {
            field: "partitions",
            ours: "2".into(),
            theirs: "4".into(),
        }));
        assert_eq!(e, TrialError::TuningConflict { field: "partitions" });
        let e = TrialError::from_covert(&CovertError::Config { reason: "no topology".into() });
        assert_eq!(e, TrialError::Misconfigured { reason: "no topology".into() });
        // Unclassified errors still fall through to the stringly variant.
        let e = TrialError::from_covert(&CovertError::ProtocolDesync { expected: 4, got: 2 });
        assert!(matches!(e, TrialError::Failed(_)));
    }

    #[test]
    fn only_crashes_and_stalls_are_transient() {
        assert!(TrialError::Panicked { message: "boom".into() }.is_transient());
        assert!(TrialError::DeadlineExceeded { budget: 1 }.is_transient());
        assert!(!TrialError::LinkSaturated { link: 0, queue_cycles: 1 }.is_transient());
        assert!(!TrialError::TuningConflict { field: "x" }.is_transient());
        assert!(!TrialError::Misconfigured { reason: "y".into() }.is_transient());
        assert!(!TrialError::Failed("z".into()).is_transient());
    }
}
