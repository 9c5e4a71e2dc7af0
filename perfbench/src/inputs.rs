//! Seeded input generation and output digests.
//!
//! Every message and every seed inside a spec string comes from the
//! benchmark's `--seed`, so one seed always gives one input set.

use gpgpu_covert::bits::Message;

/// The seed used when `--seed` is not given; the recorded digests in
/// `main.rs` are for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A message of `bits` bits, half of them ones, in seeded order. A
    /// fixed number of ones keeps the simulated work of a transmission
    /// close to the same on every seed, so the seed changes the inputs
    /// without changing how much there is to do.
    pub fn balanced_message(&mut self, bits: usize) -> Message {
        let mut v: Vec<bool> = (0..bits).map(|i| i % 2 == 0).collect();
        for i in (1..bits).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        Message::from_bits(v)
    }
}

/// `0`/`1` rendering of a message, for digests and mismatch reports.
pub fn bit_string(msg: &Message) -> String {
    msg.bits().iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// FNV-1a digest of a workload's rendered outputs.
pub fn digest(parts: &[String]) -> u64 {
    gpgpu_serve::fnv1a64(parts.join("\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_message_is_seeded_and_half_ones() {
        let a = Rng::new(7).balanced_message(64);
        let b = Rng::new(7).balanced_message(64);
        let c = Rng::new(8).balanced_message(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.bits().iter().filter(|&&x| x).count(), 32);
        assert_eq!(bit_string(&a).len(), 64);
    }
}
