//! Chaos harness: a seeded, serializable schedule of worker kills,
//! injected stalls and cache-file corruption.
//!
//! This mirrors the `gpgpu-sim` fault-plan idiom: a [`ChaosPlan`] is a
//! small value with a round-tripping textual grammar, and every decision it
//! makes is a pure function of `(plan seed, cell identity, attempt)` via a
//! splitmix64 mix — so a chaos run is exactly reproducible, shardable
//! across any worker count, and *provably convergent*: a cell suffers at
//! most `kills` kill events followed by at most `stalls` stall events, so
//! any attempt budget larger than `kills + stalls` reaches the clean
//! attempt. That structural bound is what lets the chaos test assert the
//! final matrix is bit-identical to a clean run rather than merely "usually
//! recovers".
//!
//! Grammar (the CLI's `--chaos` argument):
//!
//! ```text
//! seed=0x7,kills=2,stalls=1,corrupt=3
//! ```
//!
//! `kills`/`stalls` bound the per-cell event counts (each cell draws its
//! own count in `0..=bound`, seeded); `corrupt=k` corrupts the cache entry
//! of roughly every `k`-th cell (seeded selection, `0` disables); `none`
//! is the empty plan.

use gpgpu_spec::codec;
use std::fmt;

/// Per-decision salts so the kill, stall, corruption and site draws are
/// independent streams even for the same cell.
const SALT_KILL: u64 = 0x4B11_AA01_0000_0001;
const SALT_STALL: u64 = 0x57A1_1000_0000_0002;
const SALT_CORRUPT: u64 = 0xC0DE_0FF0_0000_0003;
const SALT_SITE: u64 = 0x0FF5_E701_0000_0004;
const SALT_BACKOFF: u64 = 0xBAC0_0FF0_0000_0005;

/// splitmix64 — the same finalizer the trial harness and fault injector
/// use for seed derivation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded jitter stream for the engine's retry backoff: a pure function of
/// `(cell identity, retry number)`, independent of every chaos stream.
pub(crate) fn mix_for_backoff(cell_hash: u64, retry: u32) -> u64 {
    mix(cell_hash ^ SALT_BACKOFF ^ u64::from(retry))
}

/// What the chaos schedule injects into one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// The worker dies mid-cell (an injected panic the supervisor catches).
    Kill,
    /// The worker wedges and is reaped at its deadline
    /// (surfaces as `TrialError::DeadlineExceeded`).
    Stall,
}

/// A seeded, serializable chaos schedule. The empty plan
/// ([`ChaosPlan::none`]) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Upper bound on kill events per cell (each cell draws `0..=kills`).
    pub kills: u32,
    /// Upper bound on stall events per cell (each cell draws `0..=stalls`).
    pub stalls: u32,
    /// Corrupt the cache entry of every ~`corrupt`-th cell (0 = never).
    pub corrupt: u64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::none()
    }
}

impl ChaosPlan {
    /// The empty plan (spec string `none`): no kills, stalls or corruption.
    pub fn none() -> Self {
        ChaosPlan { seed: 0, kills: 0, stalls: 0, corrupt: 0 }
    }

    /// Whether this plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.kills == 0 && self.stalls == 0 && self.corrupt == 0
    }

    /// The smallest attempt budget guaranteed to converge every cell under
    /// this plan: worst-case kills, then worst-case stalls, then one clean
    /// attempt.
    pub fn attempts_to_converge(&self) -> u32 {
        self.kills + self.stalls + 1
    }

    /// How many kill events cell `cell_hash` suffers (seeded, `0..=kills`).
    pub fn kills_for(&self, cell_hash: u64) -> u32 {
        if self.kills == 0 {
            return 0;
        }
        (mix(self.seed ^ SALT_KILL ^ cell_hash) % u64::from(self.kills + 1)) as u32
    }

    /// How many stall events cell `cell_hash` suffers (seeded, `0..=stalls`).
    pub fn stalls_for(&self, cell_hash: u64) -> u32 {
        if self.stalls == 0 {
            return 0;
        }
        (mix(self.seed ^ SALT_STALL ^ cell_hash) % u64::from(self.stalls + 1)) as u32
    }

    /// The event (if any) this schedule injects into attempt `attempt`
    /// (0-based) of cell `cell_hash`: first the cell's kills, then its
    /// stalls, then clean attempts forever after.
    pub fn injection_for(&self, cell_hash: u64, attempt: u32) -> Option<ChaosEvent> {
        let kills = self.kills_for(cell_hash);
        if attempt < kills {
            return Some(ChaosEvent::Kill);
        }
        if attempt < kills + self.stalls_for(cell_hash) {
            return Some(ChaosEvent::Stall);
        }
        None
    }

    /// Whether this schedule corrupts cell `cell_hash`'s cache entry
    /// (before the cell is served from cache, modelling rot at rest).
    pub fn corrupts(&self, cell_hash: u64) -> bool {
        self.corrupt != 0 && mix(self.seed ^ SALT_CORRUPT ^ cell_hash).is_multiple_of(self.corrupt)
    }

    /// Seeded corruption site for a `len`-byte file: `(offset, xor mask)`
    /// with a guaranteed-nonzero mask, so the strike always changes a byte.
    pub fn corruption_site(&self, cell_hash: u64, len: usize) -> (usize, u8) {
        let r = mix(self.seed ^ SALT_SITE ^ cell_hash);
        let offset = if len == 0 { 0 } else { (r % len as u64) as usize };
        let mask = ((r >> 32) as u8) | 1;
        (offset, mask)
    }

    /// Parses the textual grammar: comma-separated
    /// `seed=<n>` / `kills=<n>` / `stalls=<n>` / `corrupt=<n>` keys (seed
    /// accepts `0x` hex), or the literal `none`. Omitted keys default to 0.
    ///
    /// # Errors
    ///
    /// A human-readable reason, for the CLI to wrap.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let trimmed = spec.trim();
        if trimmed == "none" {
            return Ok(ChaosPlan::none());
        }
        if trimmed.is_empty() {
            return Err("empty chaos spec (use `none` for no chaos)".to_string());
        }
        let mut out = ChaosPlan::none();
        for (key, value) in codec::pairs(trimmed.split(','), &[])? {
            match key {
                "seed" => out.seed = codec::u64_field(key, value)?,
                "kills" => out.kills = codec::field(key, value)?,
                "stalls" => out.stalls = codec::field(key, value)?,
                "corrupt" => out.corrupt = codec::field(key, value)?,
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        Ok(out)
    }

    /// Renders the canonical spec string; `from_spec(to_spec(p)) == p`.
    pub fn to_spec(&self) -> String {
        if *self == ChaosPlan::none() {
            return "none".to_string();
        }
        format!(
            "seed={:#x},kills={},stalls={},corrupt={}",
            self.seed, self.kills, self.stalls, self.corrupt
        )
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        for spec in
            ["none", "seed=0x7,kills=2,stalls=1,corrupt=3", "seed=0x0,kills=1,stalls=0,corrupt=0"]
        {
            let p = ChaosPlan::from_spec(spec).unwrap();
            assert_eq!(ChaosPlan::from_spec(&p.to_spec()).unwrap(), p, "{spec}");
        }
        assert_eq!(ChaosPlan::from_spec("kills=2").unwrap().kills, 2);
        for bad in ["", "seed", "kills=x", "what=1", "kills=1,kills=2"] {
            assert!(ChaosPlan::from_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn schedule_is_deterministic_and_converges() {
        let p = ChaosPlan { seed: 7, kills: 2, stalls: 1, corrupt: 2 };
        for cell in 0..64u64 {
            let hash = mix(cell);
            let kills = p.kills_for(hash);
            let stalls = p.stalls_for(hash);
            assert!(kills <= 2 && stalls <= 1);
            for attempt in 0..p.attempts_to_converge() {
                let e = p.injection_for(hash, attempt);
                assert_eq!(e, p.injection_for(hash, attempt), "pure function of inputs");
                if attempt >= kills + stalls {
                    assert_eq!(e, None, "attempt past the event budget is clean");
                }
            }
            assert_eq!(p.injection_for(hash, p.attempts_to_converge() - 1), None);
        }
    }

    #[test]
    fn some_cells_are_hit_and_some_are_spared() {
        let p = ChaosPlan { seed: 3, kills: 1, stalls: 0, corrupt: 2 };
        let hashes: Vec<u64> = (0..64u64).map(mix).collect();
        let killed = hashes.iter().filter(|&&h| p.kills_for(h) > 0).count();
        let corrupted = hashes.iter().filter(|&&h| p.corrupts(h)).count();
        assert!(killed > 0 && killed < 64, "kills split the population: {killed}");
        assert!(corrupted > 0 && corrupted < 64, "corruption splits the population: {corrupted}");
    }

    #[test]
    fn corruption_site_always_changes_a_byte() {
        let p = ChaosPlan { seed: 9, kills: 0, stalls: 0, corrupt: 1 };
        for cell in 0..32u64 {
            let (offset, mask) = p.corruption_site(mix(cell), 100);
            assert!(offset < 100);
            assert_ne!(mask, 0);
        }
    }
}
