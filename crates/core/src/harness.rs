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

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over `bytes`.
///
/// The shared integrity primitive for the workspace's crash-safe file
/// formats: [`TrialRunner::run_checkpointed`] lines and the `gpgpu-serve`
/// result-cache entries both carry one, so a flipped byte anywhere in a
/// stored payload is *detected* (typed error, recompute) instead of being
/// resumed as silently-wrong data. Bitwise (no table): these files are
/// small and cold, clarity wins.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

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

    /// As [`TrialRunner::run`], checkpointing results to `path` so an
    /// interrupted sweep resumes instead of recomputing: completed trials
    /// are appended to the file (header + one `encode`d line per trial, in
    /// index order, flushed as the contiguous done-prefix grows), and on
    /// the next call with the same `path` the contiguous prefix of intact
    /// lines is trusted and only the remainder is run. The header pins the
    /// base seed and trial count, so a checkpoint can never silently resume
    /// a *different* sweep; each result line is prefixed with its
    /// [`crc32`], so a torn tail (crash mid-write) *and* a byte flipped at
    /// rest (disk rot, hostile edit) both end the trusted prefix instead of
    /// being resumed as silently-wrong data — `decode` alone could accept a
    /// corrupted-but-parseable number.
    ///
    /// `encode` must produce a single line (no `\n`).
    ///
    /// # Errors
    ///
    /// I/O failures reading or writing `path`, and
    /// [`std::io::ErrorKind::InvalidData`] when the file's header does not
    /// match this runner's base seed and `trials`.
    ///
    /// # Panics
    ///
    /// As [`TrialRunner::run`] — a panicking trial is re-raised after the
    /// batch drains, with every completed trial up to the panic already
    /// flushed to the checkpoint.
    pub fn run_checkpointed<T, F, Enc, Dec>(
        &self,
        trials: usize,
        path: &std::path::Path,
        encode: Enc,
        decode: Dec,
        f: F,
    ) -> std::io::Result<Vec<T>>
    where
        T: Send,
        F: Fn(Trial) -> T + Sync,
        Enc: Fn(&T) -> String + Sync,
        Dec: Fn(&str) -> Option<T>,
    {
        use std::io::Write;
        let header =
            format!("gpgpu-sweep-checkpoint v2 base_seed={:#018x} trials={trials}", self.base_seed);
        // A stored line is `<crc32 hex> <payload>`; only payloads whose
        // checksum verifies are offered to `decode`.
        let armor = |payload: &str| format!("{:08x} {payload}", crc32(payload.as_bytes()));
        let disarm = |line: &str| -> Option<String> {
            let (crc_hex, payload) = line.split_once(' ')?;
            let stored = u32::from_str_radix(crc_hex, 16).ok()?;
            (crc_hex.len() == 8 && stored == crc32(payload.as_bytes())).then(|| payload.to_string())
        };
        let mut done: Vec<T> = Vec::new();
        // Read lossily: corruption that breaks UTF-8 should end the trusted
        // prefix at that line (its CRC cannot verify), not fail the resume.
        match std::fs::read(path) {
            Ok(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                let mut lines = text.lines();
                match lines.next() {
                    Some(h) if h == header => {
                        for line in lines {
                            if done.len() >= trials {
                                break;
                            }
                            match disarm(line).and_then(|payload| decode(&payload)) {
                                Some(v) => done.push(v),
                                None => break,
                            }
                        }
                    }
                    Some(h) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("checkpoint header mismatch: expected `{header}`, found `{h}`"),
                        ));
                    }
                    None => {}
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        // Rewrite header + trusted prefix, dropping any undecodable tail.
        let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(writer, "{header}")?;
        for v in &done {
            writeln!(writer, "{}", armor(&encode(v)))?;
        }
        writer.flush()?;
        let resumed_at = done.len();
        if resumed_at >= trials {
            return Ok(done);
        }

        type Slot<T> = Mutex<Option<Result<T, Box<dyn std::any::Any + Send>>>>;
        let pending: Vec<Slot<T>> = (resumed_at..trials).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(resumed_at);
        // (writer, next index to flush, first write error). Lock order is
        // always sink → slot; slot writers never hold a slot lock while
        // waiting on the sink.
        let sink = Mutex::new((writer, resumed_at, None::<std::io::Error>));
        let effective = self.workers.min(trials - resumed_at).max(1);
        std::thread::scope(|scope| {
            for _ in 0..effective {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= trials {
                        break;
                    }
                    let value = catch_unwind(AssertUnwindSafe(|| f(self.trial(i))));
                    *pending[i - resumed_at]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(value);
                    let mut guard = sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    let (writer, flushed, err) = &mut *guard;
                    while *flushed < trials {
                        let slot = pending[*flushed - resumed_at]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        match slot.as_ref() {
                            Some(Ok(v)) => {
                                if err.is_none() {
                                    let line = armor(&encode(v));
                                    if let Err(e) =
                                        writeln!(writer, "{line}").and_then(|()| writer.flush())
                                    {
                                        *err = Some(e);
                                    }
                                }
                            }
                            // A panicked trial (or one still running) stops
                            // the contiguous flush; resume recomputes from
                            // here.
                            Some(Err(_)) | None => break,
                        }
                        *flushed += 1;
                    }
                });
            }
        });
        let (mut writer, _, err) =
            sink.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        writer.flush()?;
        if let Some(e) = err {
            return Err(e);
        }
        let mut first_panic = None;
        for slot in pending {
            match slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every trial index was claimed exactly once")
            {
                Ok(v) => done.push(v),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        Ok(done)
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
    fn checkpoint_resumes_without_recomputing_the_done_prefix() {
        let dir = std::env::temp_dir().join(format!("gpgpu-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt");
        let _ = std::fs::remove_file(&path);
        let r = TrialRunner::sequential().with_workers(3).with_base_seed(99);
        let enc = |v: &u64| v.to_string();
        let dec = |s: &str| s.parse::<u64>().ok();
        let computed = AtomicUsize::new(0);
        let work = |t: Trial| {
            computed.fetch_add(1, Ordering::Relaxed);
            t.seed ^ t.index as u64
        };
        let full = r.run_checkpointed(12, &path, enc, dec, work).unwrap();
        assert_eq!(computed.load(Ordering::Relaxed), 12);
        assert_eq!(full, r.run(12, |t| t.seed ^ t.index as u64));

        // Truncate the checkpoint to 7 results + a torn partial line.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(8).collect();
        std::fs::write(&path, format!("{}\ngarbage-tail", keep.join("\n"))).unwrap();
        computed.store(0, Ordering::Relaxed);
        let resumed = r.run_checkpointed(12, &path, enc, dec, work).unwrap();
        assert_eq!(resumed, full, "resume reproduces the identical batch");
        assert_eq!(computed.load(Ordering::Relaxed), 5, "only the missing tail was recomputed");

        // A finished checkpoint recomputes nothing.
        computed.store(0, Ordering::Relaxed);
        assert_eq!(r.run_checkpointed(12, &path, enc, dec, work).unwrap(), full);
        assert_eq!(computed.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_rejects_a_mismatched_sweep() {
        let dir = std::env::temp_dir().join(format!("gpgpu-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.ckpt");
        let _ = std::fs::remove_file(&path);
        let enc = |v: &u64| v.to_string();
        let dec = |s: &str| s.parse::<u64>().ok();
        let a = TrialRunner::sequential().with_base_seed(1);
        a.run_checkpointed(4, &path, enc, dec, |t| t.seed).unwrap();
        // Different base seed => different sweep => refuse to resume.
        let b = TrialRunner::sequential().with_base_seed(2);
        let err = b.run_checkpointed(4, &path, enc, dec, |t| t.seed).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Different trial count is a different sweep too.
        let err = a.run_checkpointed(8, &path, enc, dec, |t| t.seed).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn checkpoint_rejects_a_flipped_byte_not_just_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("gpgpu-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flip.ckpt");
        let _ = std::fs::remove_file(&path);
        let r = TrialRunner::sequential().with_workers(2).with_base_seed(3);
        let enc = |v: &u64| v.to_string();
        let dec = |s: &str| s.parse::<u64>().ok();
        let full = r.run_checkpointed(6, &path, enc, dec, |t| t.seed).unwrap();

        // Flip one digit inside the *third* stored payload. The corrupted
        // line still parses as a number, so a CRC-less resume would have
        // accepted a silently-wrong value; the armor must end the trusted
        // prefix there instead.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut bytes = lines[3].clone().into_bytes();
        let last = bytes.len() - 1;
        bytes[last] = if bytes[last] == b'0' { b'1' } else { b'0' };
        lines[3] = String::from_utf8(bytes).unwrap();
        std::fs::write(&path, lines.join("\n")).unwrap();

        let computed = AtomicUsize::new(0);
        let resumed = r
            .run_checkpointed(6, &path, enc, dec, |t| {
                computed.fetch_add(1, Ordering::Relaxed);
                t.seed
            })
            .unwrap();
        assert_eq!(resumed, full, "resume reproduces the uncorrupted batch");
        assert_eq!(
            computed.load(Ordering::Relaxed),
            4,
            "the intact 2-line prefix is trusted, the corrupt line and after recompute"
        );
        let _ = std::fs::remove_file(&path);
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
