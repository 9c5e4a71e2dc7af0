//! Deterministic fault injection: seeded, schedulable perturbations of the
//! simulated device, for stressing covert channels the way real co-running
//! workloads, driver scheduling noise and cache interference do — but
//! reproducibly.
//!
//! A [`FaultPlan`] is a small, serializable schedule (see
//! [`FaultPlan::from_spec`] for the textual grammar); a [`FaultInjector`]
//! executes it. The injector is installed on a [`crate::Device`] exactly
//! like a [`crate::TraceSink`]: a single `Option` check per hook site, zero
//! cost when absent, and identical behaviour in both engine modes.
//!
//! Six fault kinds are modelled, each anchored at an *event site* both
//! engines execute identically (never per-cycle polling, which the
//! event-driven engine would skip):
//!
//! * **evict** — transient invalidation bursts of one L1 set across every
//!   SM, applied lazily at the first constant access of a burst window;
//! * **storm** — a phantom workload's eviction storm: every constant access
//!   inside a burst window first refills the target set with synthetic
//!   lines, as a co-resident cache hog would;
//! * **jitter** — warp-issue jitter: issued instructions stall a few extra
//!   cycles at their scheduler;
//! * **skew** — trojan/spy launch skew: kernel arrivals are delayed by a
//!   seeded offset, breaking launch alignment;
//! * **clock** — `clock()` perturbation: timing reads observe a small
//!   seeded offset;
//! * **link** — inter-device link congestion: transfers crossing a
//!   [`crate::Topology`] link during a burst window queue behind seeded
//!   phantom traffic, as a bandwidth-hogging co-tenant's peer-to-peer
//!   copies would.
//!
//! All decisions are pure functions of `(seed, cycle, site)` via splitmix64,
//! so a plan's effect is bit-reproducible across engine modes, worker
//! threads and processes.

use crate::tuning::splitmix64;
use gpgpu_mem::ConstHierarchy;
use gpgpu_spec::codec;

/// Per-kind salts decorrelating the six fault streams drawn from one seed.
const SALT_EVICT: u64 = 0xE51C_7B01;
const SALT_JITTER: u64 = 0x117E_5202;
const SALT_SKEW: u64 = 0x5EE3_AA03;
const SALT_CLOCK: u64 = 0xC10C_0F04;
const SALT_STORM: u64 = 0x5702_4D05;
const SALT_LINK: u64 = 0x11AC_C906;

/// Weyl constant spreading window indices before gating (same constant as
/// the splitmix64 increment).
const WINDOW_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which fault kinds a plan enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultKinds {
    /// Transient L1-set invalidation bursts.
    pub evict: bool,
    /// Warp-issue jitter at the schedulers.
    pub jitter: bool,
    /// Kernel launch skew.
    pub skew: bool,
    /// `clock()` read perturbation.
    pub clock: bool,
    /// Phantom-workload eviction storms.
    pub storm: bool,
    /// Inter-device link congestion bursts (topology layer).
    pub link: bool,
}

impl FaultKinds {
    /// Every kind enabled.
    pub fn all() -> Self {
        FaultKinds { evict: true, jitter: true, skew: true, clock: true, storm: true, link: true }
    }

    /// No kind enabled (a plan with no kinds is a no-op).
    pub fn none() -> Self {
        FaultKinds::default()
    }

    /// The cache-contention kinds (evict + storm) — the pair that attacks
    /// the prime+probe channels directly.
    pub fn cache() -> Self {
        FaultKinds { evict: true, storm: true, ..FaultKinds::none() }
    }
}

/// A seeded, serializable fault schedule.
///
/// Time is divided into windows of `period` cycles, phase-shifted per fault
/// kind by a seed-derived offset; the first `burst` cycles of each window
/// are *active*. An active window actually fires with probability
/// `intensity` (seeded, per window), so intensity scales fault pressure
/// continuously from 0 (never) to 1 (every window).
///
/// # Example
///
/// ```
/// use gpgpu_sim::FaultPlan;
///
/// let plan = FaultPlan::from_spec("seed=7,intensity=0.5,kinds=evict+storm").unwrap();
/// assert_eq!(FaultPlan::from_spec(&plan.to_spec()).unwrap(), plan);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Root seed; all per-window and per-site decisions derive from it.
    pub seed: u64,
    /// Fraction of windows that fire, in `[0, 1]`.
    pub intensity: f64,
    /// Window length in cycles (>= 1).
    pub period: u64,
    /// Active cycles at the start of each window (<= `period`).
    pub burst: u64,
    /// L1 set targeted by evict/storm faults (taken modulo the geometry's
    /// set count at the hook site).
    pub target_set: u64,
    /// Enabled fault kinds.
    pub kinds: FaultKinds,
}

impl FaultPlan {
    /// A cache-fault plan (evict + storm) with default timing: windows of
    /// 50 000 cycles, 12 500-cycle bursts, full intensity, targeting set 2
    /// (the §7.1 sync channel's first data set).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            intensity: 1.0,
            period: 50_000,
            burst: 12_500,
            target_set: 2,
            kinds: FaultKinds::cache(),
        }
    }

    /// Sets the firing probability per window (clamped to `[0, 1]`).
    pub fn with_intensity(mut self, intensity: f64) -> Self {
        self.intensity = intensity.clamp(0.0, 1.0);
        self
    }

    /// Sets the window period in cycles (clamped to >= 1); the burst is
    /// clamped down to the new period if needed.
    pub fn with_period(mut self, period: u64) -> Self {
        self.period = period.max(1);
        self.burst = self.burst.min(self.period);
        self
    }

    /// Sets the burst length in cycles (clamped to the period).
    pub fn with_burst(mut self, burst: u64) -> Self {
        self.burst = burst.min(self.period);
        self
    }

    /// Sets the L1 set targeted by evict/storm faults.
    pub fn with_target_set(mut self, set: u64) -> Self {
        self.target_set = set;
        self
    }

    /// Sets the enabled fault kinds.
    pub fn with_kinds(mut self, kinds: FaultKinds) -> Self {
        self.kinds = kinds;
        self
    }

    /// Derives an independent plan for retransmission round `round_key`:
    /// same schedule shape, decorrelated seed — so an ARQ retry faces
    /// different burst phases, the way real interference decorrelates
    /// between attempts.
    pub fn reseeded(&self, round_key: u64) -> Self {
        FaultPlan { seed: splitmix64(self.seed ^ round_key), ..*self }
    }

    /// Parses the textual spec grammar (the CLI's `--faults` argument):
    /// comma-separated `key=value` pairs with keys `seed`, `intensity`,
    /// `period`, `burst`, `set` and `kinds` (a `+`-separated subset of
    /// `evict`, `jitter`, `skew`, `clock`, `storm`, `link`, or
    /// `all`/`none`). The seed accepts decimal or `0x` hex. Omitted keys
    /// keep the [`FaultPlan::new`] defaults (seed 0).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown or repeated keys,
    /// unknown kinds, malformed numbers, `period=0`, `burst > period` or
    /// intensity outside `[0, 1]`.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new(0);
        for (key, value) in codec::pairs(spec.split(','), &[])? {
            match key {
                "seed" => plan.seed = codec::u64_field(key, value)?,
                "intensity" => {
                    let i: f64 = codec::field(key, value)?;
                    if !(0.0..=1.0).contains(&i) {
                        return Err(format!("intensity {i} outside [0, 1]"));
                    }
                    plan.intensity = i;
                }
                "period" => {
                    plan.period = codec::field(key, value)?;
                    if plan.period == 0 {
                        return Err("period must be >= 1".to_string());
                    }
                }
                "burst" => plan.burst = codec::field(key, value)?,
                "set" => plan.target_set = codec::field(key, value)?,
                "kinds" => {
                    let mut kinds = FaultKinds::none();
                    for kind in value.split('+').map(str::trim) {
                        match kind {
                            "evict" => kinds.evict = true,
                            "jitter" => kinds.jitter = true,
                            "skew" => kinds.skew = true,
                            "clock" => kinds.clock = true,
                            "storm" => kinds.storm = true,
                            "link" => kinds.link = true,
                            "all" => kinds = FaultKinds::all(),
                            "none" => kinds = FaultKinds::none(),
                            other => return Err(format!("unknown fault kind `{other}`")),
                        }
                    }
                    plan.kinds = kinds;
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        if plan.burst > plan.period {
            return Err(format!("burst {} exceeds period {}", plan.burst, plan.period));
        }
        Ok(plan)
    }

    /// Renders the plan in the [`FaultPlan::from_spec`] grammar;
    /// `from_spec(&plan.to_spec())` round-trips exactly.
    pub fn to_spec(&self) -> String {
        let mut kinds = Vec::new();
        if self.kinds.evict {
            kinds.push("evict");
        }
        if self.kinds.jitter {
            kinds.push("jitter");
        }
        if self.kinds.skew {
            kinds.push("skew");
        }
        if self.kinds.clock {
            kinds.push("clock");
        }
        if self.kinds.storm {
            kinds.push("storm");
        }
        if self.kinds.link {
            kinds.push("link");
        }
        let kinds = if kinds.is_empty() { "none".to_string() } else { kinds.join("+") };
        format!(
            "seed={},intensity={},period={},burst={},set={},kinds={kinds}",
            self.seed, self.intensity, self.period, self.burst, self.target_set
        )
    }

    /// Seed-derived phase offset of `salt`'s window grid.
    fn phase(&self, salt: u64) -> u64 {
        splitmix64(self.seed ^ salt) % self.period.max(1)
    }

    /// Window index of cycle `now` on `salt`'s phase-shifted grid.
    fn window(&self, now: u64, salt: u64) -> u64 {
        (now + self.phase(salt)) / self.period.max(1)
    }

    /// Whether `now` lies in the active burst of its window.
    fn in_burst(&self, now: u64, salt: u64) -> bool {
        (now + self.phase(salt)) % self.period.max(1) < self.burst
    }

    /// Whether window `window` of `salt`'s stream fires (seeded Bernoulli
    /// with probability `intensity`).
    fn fires(&self, salt: u64, window: u64) -> bool {
        let p = (self.intensity.clamp(0.0, 1.0) * 1_000_000.0) as u64;
        splitmix64(self.seed ^ salt ^ window.wrapping_mul(WINDOW_SPREAD)) % 1_000_000 < p
    }

    /// Whether `now` lies in a burst that fires, and if so in which window.
    fn active_window(&self, now: u64, salt: u64) -> Option<u64> {
        if !self.in_burst(now, salt) {
            return None;
        }
        let w = self.window(now, salt);
        self.fires(salt, w).then_some(w)
    }
}

/// Counters of the faults an injector actually delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Invalidation bursts applied (one per firing evict window).
    pub invalidation_bursts: u64,
    /// L1 lines dropped by invalidation bursts.
    pub lines_invalidated: u64,
    /// Synthetic lines inserted by eviction storms.
    pub storm_fills: u64,
    /// Warp issues that received extra stall cycles.
    pub jittered_issues: u64,
    /// Total extra stall cycles injected.
    pub jitter_cycles: u64,
    /// Kernel launches whose arrival was skewed.
    pub skewed_launches: u64,
    /// Total skew cycles injected.
    pub skew_cycles: u64,
    /// `clock()` reads that observed a perturbed value.
    pub perturbed_clocks: u64,
    /// Link transfers that queued behind injected congestion.
    pub congested_transfers: u64,
    /// Phantom flits injected ahead of congested transfers.
    pub congestion_flits: u64,
}

impl FaultStats {
    /// Total delivered fault events across every kind.
    pub fn total_events(&self) -> u64 {
        self.invalidation_bursts
            + self.storm_fills
            + self.jittered_issues
            + self.skewed_launches
            + self.perturbed_clocks
            + self.congested_transfers
    }
}

/// Executes a [`FaultPlan`] against a running device. Installed via
/// [`crate::Device::set_fault_injector`]; every hook site is a single
/// `Option` check when no injector is present.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    stats: FaultStats,
    /// Evict bursts are one-shot per window, applied lazily at the first
    /// constant access inside the window — an event site both engine modes
    /// reach identically.
    last_evict_window: Option<u64>,
}

impl FaultInjector {
    /// Builds an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, stats: FaultStats::default(), last_evict_window: None }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters of faults delivered so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Extra arrival delay for kernel `kernel` (launch-skew faults).
    /// Keyed by kernel id alone so the skew of a given launch is identical
    /// in both engine modes and across worker threads.
    pub(crate) fn launch_skew(&mut self, kernel: u32) -> u64 {
        if !self.plan.kinds.skew || !self.plan.fires(SALT_SKEW, u64::from(kernel)) {
            return 0;
        }
        let span = (self.plan.intensity.clamp(0.0, 1.0) * self.plan.burst as f64) as u64;
        if span == 0 {
            return 0;
        }
        let skew = 1 + splitmix64(self.plan.seed ^ SALT_SKEW ^ (u64::from(kernel) << 32)) % span;
        self.stats.skewed_launches += 1;
        self.stats.skew_cycles += skew;
        skew
    }

    /// Extra stall cycles for an instruction issued at `now` by scheduler
    /// `sched` of SM `sm` (warp-issue jitter). Always >= 0 and added to a
    /// wake time that is already `> now`, so the engine invariant that an
    /// executed warp can never become ready this cycle is preserved.
    pub(crate) fn issue_jitter(&mut self, now: u64, sm: u32, sched: u32) -> u64 {
        if !self.plan.kinds.jitter || self.plan.active_window(now, SALT_JITTER).is_none() {
            return 0;
        }
        let span = 1 + (self.plan.intensity.clamp(0.0, 1.0) * 31.0) as u64;
        let key = self.plan.seed
            ^ SALT_JITTER
            ^ now.wrapping_mul(WINDOW_SPREAD)
            ^ (u64::from(sm) << 48)
            ^ (u64::from(sched) << 40);
        let jitter = 1 + splitmix64(key) % span;
        self.stats.jittered_issues += 1;
        self.stats.jitter_cycles += jitter;
        jitter
    }

    /// Cache faults applied immediately before a constant access by SM `sm`
    /// at cycle `now`: a one-shot set invalidation when an evict window
    /// first becomes active, and a phantom refill of the target set on every
    /// access inside a storm window. Both engines execute the same constant
    /// access stream, so the fault stream is identical too.
    pub(crate) fn before_const_access(
        &mut self,
        now: u64,
        sm: u32,
        const_mem: &mut ConstHierarchy,
    ) {
        let plan = self.plan;
        let num_sets = const_mem.l1(sm as usize).geometry().num_sets();
        let set = plan.target_set % num_sets.max(1);
        if plan.kinds.evict && plan.in_burst(now, SALT_EVICT) {
            let w = plan.window(now, SALT_EVICT);
            if self.last_evict_window != Some(w) {
                self.last_evict_window = Some(w);
                if plan.fires(SALT_EVICT, w) {
                    self.stats.lines_invalidated += const_mem.invalidate_l1_set(set);
                    self.stats.invalidation_bursts += 1;
                }
            }
        }
        if plan.kinds.storm {
            if let Some(w) = plan.active_window(now, SALT_STORM) {
                let ways = const_mem.l1(sm as usize).geometry().ways();
                let salt = plan.seed ^ w ^ (u64::from(sm) << 32);
                const_mem.phantom_fill_l1_set(sm as usize, set, ways, u32::MAX, salt);
                self.stats.storm_fills += ways;
            }
        }
    }

    /// Phantom congestion flits to enqueue ahead of a link transfer
    /// requested at `now` on link `link` (link-congestion faults). The
    /// count is a pure function of `(seed, window, link)`, so every
    /// transfer inside one firing burst window queues behind the same
    /// phantom workload — mirroring how a real co-tenant's bulk copy
    /// occupies the link for a stretch, not per-request noise.
    pub(crate) fn link_congestion(&mut self, now: u64, link: u32) -> u64 {
        if !self.plan.kinds.link {
            return 0;
        }
        let Some(w) = self.plan.active_window(now, SALT_LINK) else {
            return 0;
        };
        // Scale phantom depth with intensity *and* window length: a longer
        // storm window means the co-tenant had proportionally longer to
        // enqueue its bulk copy, so slow storms can exceed a topology's
        // queue budget and surface as `LinkSaturated` instead of jitter.
        let span = 1 + (self.plan.intensity.clamp(0.0, 1.0) * self.plan.period as f64) as u64;
        let key =
            self.plan.seed ^ SALT_LINK ^ w.wrapping_mul(WINDOW_SPREAD) ^ (u64::from(link) << 48);
        let flits = 1 + splitmix64(key) % span;
        self.stats.congested_transfers += 1;
        self.stats.congestion_flits += flits;
        flits
    }

    /// Offset added to a `clock()` read at `now` on SM `sm` (clock
    /// perturbation faults).
    pub(crate) fn clock_perturbation(&mut self, now: u64, sm: u32) -> u64 {
        if !self.plan.kinds.clock || self.plan.active_window(now, SALT_CLOCK).is_none() {
            return 0;
        }
        let span = 1 + (self.plan.intensity.clamp(0.0, 1.0) * 63.0) as u64;
        let key =
            self.plan.seed ^ SALT_CLOCK ^ now.wrapping_mul(WINDOW_SPREAD) ^ (u64::from(sm) << 48);
        let offset = splitmix64(key) % span;
        if offset > 0 {
            self.stats.perturbed_clocks += 1;
        }
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_spec::presets;

    fn hierarchy() -> ConstHierarchy {
        let d = presets::tesla_k40c();
        ConstHierarchy::new(d.num_sms, &d.const_l1, &d.const_l2, &d.mem)
    }

    #[test]
    fn spec_round_trips_and_defaults_hold() {
        let plan = FaultPlan::new(7)
            .with_intensity(0.25)
            .with_period(8_000)
            .with_burst(1_500)
            .with_target_set(3)
            .with_kinds(FaultKinds::all());
        assert_eq!(FaultPlan::from_spec(&plan.to_spec()).unwrap(), plan);
        // Omitted keys keep defaults.
        let sparse = FaultPlan::from_spec("seed=9").unwrap();
        assert_eq!(sparse, FaultPlan::new(9));
        // The seed takes hex like every other seed.
        assert_eq!(FaultPlan::from_spec("seed=0x10"), FaultPlan::from_spec("seed=16"));
        // Empty spec is the all-default plan.
        assert_eq!(FaultPlan::from_spec("").unwrap(), FaultPlan::new(0));
        // kinds=none round-trips.
        let none = FaultPlan::new(1).with_kinds(FaultKinds::none());
        assert_eq!(FaultPlan::from_spec(&none.to_spec()).unwrap(), none);
    }

    #[test]
    fn spec_rejects_malformed_input() {
        for bad in [
            "seed",
            "seed=x",
            "intensity=1.5",
            "intensity=-0.1",
            "period=0",
            "period=1000,burst=2000",
            "kinds=evict+meteor",
            "frequency=3",
            "seed=1,seed=2",
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn reseeding_is_deterministic_and_decorrelating() {
        let plan = FaultPlan::new(42);
        assert_eq!(plan.reseeded(1), plan.reseeded(1));
        assert_ne!(plan.reseeded(1).seed, plan.reseeded(2).seed);
        assert_ne!(plan.reseeded(1).seed, plan.seed);
        // Only the seed changes.
        assert_eq!(plan.reseeded(5).period, plan.period);
    }

    #[test]
    fn intensity_scales_firing_rate() {
        let rate = |intensity: f64| -> usize {
            let plan = FaultPlan::new(11).with_intensity(intensity);
            (0..1_000).filter(|&w| plan.fires(SALT_EVICT, w)).count()
        };
        assert_eq!(rate(0.0), 0);
        assert_eq!(rate(1.0), 1_000);
        let half = rate(0.5);
        assert!((350..=650).contains(&half), "half-intensity fired {half}/1000");
    }

    #[test]
    fn evict_bursts_are_one_shot_per_window() {
        let plan = FaultPlan::new(3)
            .with_period(1_000)
            .with_burst(1_000)
            .with_kinds(FaultKinds { evict: true, ..FaultKinds::none() });
        let mut inj = FaultInjector::new(plan);
        let mut mem = hierarchy();
        // Warm the target set (set 2: line 2 of the 64 B-line geometry) on
        // SM 0.
        mem.access(0, 2 * 64, 0, 0);
        // Accessing every cycle over 3 periods crosses 3 or 4 window
        // boundaries (the grid is phase-shifted), and each window fires
        // exactly one burst regardless of how many accesses fall in it.
        for t in 0..3_000 {
            inj.before_const_access(t, 0, &mut mem);
        }
        let bursts = inj.stats().invalidation_bursts;
        assert!((3..=4).contains(&bursts), "expected one burst per window, got {bursts}");
        // The line was only resident for the first burst; invalidation does
        // not refill.
        assert_eq!(inj.stats().lines_invalidated, 1);
    }

    #[test]
    fn storms_evict_resident_lines() {
        let plan = FaultPlan::new(5)
            .with_period(1_000)
            .with_burst(1_000)
            .with_kinds(FaultKinds { storm: true, ..FaultKinds::none() });
        let mut inj = FaultInjector::new(plan);
        let mut mem = hierarchy();
        let addr = 2 * 64; // set 2, the plan's target
        mem.access(0, addr, 0, 0);
        assert!(mem.l1(0).probe(addr));
        inj.before_const_access(100, 0, &mut mem);
        assert!(!mem.l1(0).probe(addr), "storm should evict the resident line");
        assert!(inj.stats().storm_fills > 0);
    }

    #[test]
    fn hooks_are_deterministic_per_seed() {
        let sequence = |seed: u64| -> Vec<u64> {
            let plan =
                FaultPlan::new(seed).with_period(100).with_burst(100).with_kinds(FaultKinds::all());
            let mut inj = FaultInjector::new(plan);
            (0..200)
                .map(|t| inj.issue_jitter(t, 0, 1) ^ (inj.clock_perturbation(t, 2) << 16))
                .collect()
        };
        assert_eq!(sequence(1), sequence(1));
        assert_ne!(sequence(1), sequence(2));
    }

    #[test]
    fn disabled_kinds_deliver_nothing() {
        let plan = FaultPlan::new(9).with_kinds(FaultKinds::none());
        let mut inj = FaultInjector::new(plan);
        let mut mem = hierarchy();
        mem.access(0, 2 * 64, 0, 0);
        for t in 0..1_000 {
            assert_eq!(inj.issue_jitter(t, 0, 0), 0);
            assert_eq!(inj.clock_perturbation(t, 0), 0);
            inj.before_const_access(t, 0, &mut mem);
        }
        assert_eq!(inj.launch_skew(0), 0);
        assert_eq!(inj.stats(), &FaultStats::default());
        assert!(mem.l1(0).probe(2 * 64));
    }

    #[test]
    fn link_congestion_is_window_stable_and_deterministic() {
        let plan = FaultPlan::new(21)
            .with_period(1_000)
            .with_burst(1_000)
            .with_kinds(FaultKinds { link: true, ..FaultKinds::none() });
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        // Inside one window every transfer sees the same phantom depth.
        let first = a.link_congestion(100, 0);
        assert!(first > 0, "full-intensity burst must fire");
        assert_eq!(a.link_congestion(400, 0), first, "stable within a window");
        assert_eq!(b.link_congestion(100, 0), first, "pure function of (seed, window, link)");
        // Different links draw decorrelated depths.
        assert_ne!(a.link_congestion(100, 1), first);
        assert!(a.stats().congested_transfers >= 3);
        assert!(a.stats().congestion_flits > 0);
        assert!(a.stats().total_events() >= 3);
        // Disabled kind injects nothing.
        let mut off = FaultInjector::new(plan.with_kinds(FaultKinds::none()));
        assert_eq!(off.link_congestion(100, 0), 0);
        assert_eq!(off.stats(), &FaultStats::default());
    }

    #[test]
    fn link_kind_round_trips_through_the_spec_grammar() {
        let plan = FaultPlan::new(4).with_kinds(FaultKinds { link: true, ..FaultKinds::none() });
        let spec = plan.to_spec();
        assert!(spec.contains("kinds=link"), "{spec}");
        assert_eq!(FaultPlan::from_spec(&spec).unwrap(), plan);
        assert!(FaultPlan::from_spec("kinds=all").unwrap().kinds.link);
    }

    #[test]
    fn launch_skew_is_per_kernel_and_bounded() {
        let plan = FaultPlan::new(13).with_kinds(FaultKinds { skew: true, ..FaultKinds::none() });
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for k in 0..8 {
            let s = a.launch_skew(k);
            assert_eq!(s, b.launch_skew(k), "skew must be a pure function of (seed, kernel)");
            assert!(s <= plan.burst, "skew {s} exceeds burst bound");
        }
    }
}
