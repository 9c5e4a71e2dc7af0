//! Crash-safe content-addressed result cache.
//!
//! Every result in this workspace is a pure function of its cell key — the
//! canonical spec string naming `(device, family, symbol time, message,
//! fault plan, defense, topology)` — so a sweep cell computed once never
//! needs computing again, on *any* future request whose grid overlaps.
//! This module stores one [`CellResult`] per key, addressed by the FNV-1a
//! hash of the key, with the crash-consistency discipline the rest of the
//! workspace's file formats use:
//!
//! * **atomic visibility** — entries are written to a temp file in the same
//!   directory and `rename`d into place, so a reader never observes a
//!   half-written entry, even across a `kill -9` mid-store;
//! * **end-to-end integrity** — each entry carries the [`crc32`] of its
//!   payload and echoes its full key, so a flipped byte anywhere (payload,
//!   checksum, key, header) is a typed [`CacheError`], never silently-wrong
//!   data, and a hash collision can never serve the wrong cell;
//! * **self-healing** — corrupt entries are [quarantined][ResultCache::quarantine]
//!   (moved aside for post-mortem, never re-read) and the cell recomputed.

use gpgpu_covert::channel::ChannelOutcome;
use gpgpu_spec::codec;
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic first line of every cache entry; bump the version when the entry
/// format changes so stale caches read as typed errors, not garbage.
const ENTRY_HEADER: &str = "gpgpu-serve-cache v1";

/// FNV-1a 64-bit hash — the content address. Stable across platforms and
/// releases (it is a file-name contract, not an in-memory detail).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over `bytes`.
///
/// The integrity primitive of this crate's crash-safe file formats: cache
/// entries and [`crate::journal`] lines both carry one, so a flipped byte
/// anywhere in a stored payload is *detected* (typed error, recompute)
/// instead of being resumed as silently-wrong data. Bitwise (no table):
/// these files are small and cold, clarity wins.
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

/// The memoized observable outcome of one sweep cell: everything a client
/// needs from a transmission, encoded *exactly* (bandwidth and BER as f64
/// bit patterns) so a cache hit is bit-identical to fresh computation.
///
/// Equality is bit-exact on the floating-point fields — two results are
/// equal iff their encodings are byte-identical.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Number of bits the trojan sent.
    pub sent: usize,
    /// The bits the spy decoded, in order.
    pub received: Vec<bool>,
    /// Device cycles consumed end to end.
    pub cycles: u64,
    /// Achieved bandwidth in Kbps (exact bit pattern preserved).
    pub bandwidth_kbps: f64,
    /// Bit error rate (exact bit pattern preserved).
    pub ber: f64,
}

impl PartialEq for CellResult {
    fn eq(&self, other: &Self) -> bool {
        self.sent == other.sent
            && self.received == other.received
            && self.cycles == other.cycles
            && self.bandwidth_kbps.to_bits() == other.bandwidth_kbps.to_bits()
            && self.ber.to_bits() == other.ber.to_bits()
    }
}

impl Eq for CellResult {}

impl CellResult {
    /// Extracts the cacheable fields of a channel outcome.
    pub fn from_outcome(o: &ChannelOutcome) -> Self {
        CellResult {
            sent: o.sent.len(),
            received: o.received.bits().to_vec(),
            cycles: o.cycles,
            bandwidth_kbps: o.bandwidth_kbps,
            ber: o.ber,
        }
    }

    /// Renders the single-line payload format:
    /// `cycles=<n>;bw=<f64 bits hex>;ber=<f64 bits hex>;sent=<n>;rx=<bits>`.
    /// [`CellResult::decode`] inverts it exactly.
    pub fn encode(&self) -> String {
        let rx: String = self.received.iter().map(|&b| if b { '1' } else { '0' }).collect();
        format!(
            "cycles={};bw={:#018x};ber={:#018x};sent={};rx={rx}",
            self.cycles,
            self.bandwidth_kbps.to_bits(),
            self.ber.to_bits(),
            self.sent,
        )
    }

    /// Parses [`CellResult::encode`]'s format; `None` for anything else.
    pub fn decode(line: &str) -> Option<Self> {
        let pairs = codec::pairs(line.split(';'), &[]).ok()?;
        let [("cycles", cycles), ("bw", bw), ("ber", ber), ("sent", sent), ("rx", rx)] = pairs[..]
        else {
            return None;
        };
        let bit = |c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        };
        Some(CellResult {
            sent: codec::field("sent", sent).ok()?,
            received: rx.chars().map(bit).collect::<Option<_>>()?,
            cycles: codec::field("cycles", cycles).ok()?,
            bandwidth_kbps: f64::from_bits(codec::u64_field("bw", bw).ok()?),
            ber: f64::from_bits(codec::u64_field("ber", ber).ok()?),
        })
    }
}

/// Why a cache entry could not be served, tied to the file involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheError {
    /// The entry file.
    pub path: PathBuf,
    /// What went wrong.
    pub kind: CacheErrorKind,
}

/// Classification of a cache-entry failure. [`CacheErrorKind::Missing`] is
/// an ordinary miss; every other kind means the bytes on disk are not
/// trustworthy and the entry must be quarantined and recomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheErrorKind {
    /// No entry stored under this key (a plain cache miss).
    Missing,
    /// The entry's structure is wrong (bad header, missing field, or an
    /// undecodable payload) — truncation or corruption.
    Malformed {
        /// What was malformed.
        reason: String,
    },
    /// The payload's CRC-32 does not match the stored checksum: at least
    /// one byte of payload or checksum flipped at rest.
    ChecksumMismatch {
        /// The checksum the entry claims.
        stored: u32,
        /// The checksum the payload actually has.
        computed: u32,
    },
    /// The entry's echoed key is not the requested key — an FNV collision
    /// or a corrupted key line. Either way the payload belongs to some
    /// other cell and must not be served.
    KeyMismatch {
        /// The key found in the entry.
        found: String,
    },
    /// The underlying I/O failed (permissions, disk errors), stringified.
    Io {
        /// The I/O error text.
        error: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = self.path.display();
        match &self.kind {
            CacheErrorKind::Missing => write!(f, "cache miss: no entry at {path}"),
            CacheErrorKind::Malformed { reason } => {
                write!(f, "corrupt cache entry {path}: {reason}")
            }
            CacheErrorKind::ChecksumMismatch { stored, computed } => write!(
                f,
                "corrupt cache entry {path}: payload crc {computed:#010x} != stored {stored:#010x}"
            ),
            CacheErrorKind::KeyMismatch { found } => {
                write!(f, "cache entry {path} holds a different cell (`{found}`)")
            }
            CacheErrorKind::Io { error } => write!(f, "cache i/o error at {path}: {error}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl CacheError {
    /// Whether this is an ordinary miss (vs. untrustworthy bytes).
    pub fn is_miss(&self) -> bool {
        matches!(self.kind, CacheErrorKind::Missing)
    }
}

/// A directory of content-addressed [`CellResult`] entries, one file per
/// cell key, named `<fnv1a64(key) hex>.cell`.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file a key is addressed to.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.cell", fnv1a64(key.as_bytes())))
    }

    /// Loads the entry stored under `key`, verifying structure, checksum
    /// and key echo before trusting a single byte of payload.
    ///
    /// # Errors
    ///
    /// [`CacheErrorKind::Missing`] on a plain miss; any other
    /// [`CacheErrorKind`] means the entry is untrustworthy (quarantine it).
    pub fn load(&self, key: &str) -> Result<CellResult, CacheError> {
        let path = self.entry_path(key);
        let fail = |kind| Err(CacheError { path: path.clone(), kind });
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return fail(CacheErrorKind::Missing);
            }
            Err(e) => return fail(CacheErrorKind::Io { error: e.to_string() }),
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(ENTRY_HEADER) => {}
            other => {
                return fail(CacheErrorKind::Malformed {
                    reason: format!("bad header {:?}", other.unwrap_or("<empty>")),
                });
            }
        }
        let mut field = |name: &str| -> Result<String, CacheError> {
            match lines.next().and_then(|l| l.split_once('=')) {
                Some((k, v)) if k == name => Ok(v.to_string()),
                _ => Err(CacheError {
                    path: path.clone(),
                    kind: CacheErrorKind::Malformed { reason: format!("missing `{name}` line") },
                }),
            }
        };
        let found_key = field("key")?;
        let crc_text = field("crc")?;
        let payload = field("payload")?;
        let stored = u32::from_str_radix(&crc_text, 16).map_err(|_| CacheError {
            path: path.clone(),
            kind: CacheErrorKind::Malformed { reason: format!("bad crc field `{crc_text}`") },
        })?;
        let computed = crc32(payload.as_bytes());
        if stored != computed {
            return fail(CacheErrorKind::ChecksumMismatch { stored, computed });
        }
        if found_key != key {
            return fail(CacheErrorKind::KeyMismatch { found: found_key });
        }
        match CellResult::decode(&payload) {
            Some(result) => Ok(result),
            None => fail(CacheErrorKind::Malformed { reason: "undecodable payload".to_string() }),
        }
    }

    /// Stores `result` under `key`: temp file in the cache directory, then
    /// an atomic rename, so concurrent readers and hard kills never see a
    /// partial entry.
    ///
    /// # Errors
    ///
    /// [`CacheErrorKind::Io`] on filesystem failures.
    pub fn store(&self, key: &str, result: &CellResult) -> Result<(), CacheError> {
        let path = self.entry_path(key);
        let io_err = |e: std::io::Error| CacheError {
            path: path.clone(),
            kind: CacheErrorKind::Io { error: e.to_string() },
        };
        let payload = result.encode();
        let entry = format!(
            "{ENTRY_HEADER}\nkey={key}\ncrc={:08x}\npayload={payload}\n",
            crc32(payload.as_bytes())
        );
        let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
        std::fs::write(&tmp, entry).map_err(io_err)?;
        std::fs::rename(&tmp, &path).map_err(io_err)
    }

    /// Moves the (presumed corrupt) entry for `key` aside to
    /// `<name>.cell.quarantined` so it is never read again but remains
    /// available for post-mortem. Returns the quarantine path, or `None`
    /// when there was nothing to move (already quarantined, or the
    /// filesystem refused — in which case it is removed outright).
    pub fn quarantine(&self, key: &str) -> Option<PathBuf> {
        let path = self.entry_path(key);
        let target = path.with_extension("cell.quarantined");
        match std::fs::rename(&path, &target) {
            Ok(()) => Some(target),
            Err(_) => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Number of valid-named entry files currently stored (diagnostics).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "cell"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gpgpu-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> CellResult {
        CellResult {
            sent: 4,
            received: vec![true, false, true, true],
            cycles: 123_456,
            bandwidth_kbps: 74.25,
            ber: 0.25,
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn encode_decode_is_exact() {
        let r = sample();
        assert_eq!(CellResult::decode(&r.encode()).unwrap(), r);
        // Odd bit patterns survive exactly.
        let odd = CellResult { ber: f64::from_bits(0x7ff8_0000_0000_0001), ..sample() };
        let back = CellResult::decode(&odd.encode()).unwrap();
        assert_eq!(back.ber.to_bits(), 0x7ff8_0000_0000_0001);
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = ResultCache::open(tmpdir("roundtrip")).unwrap();
        let key = "device=kepler;family=l1;iters=4";
        assert!(cache.load(key).unwrap_err().is_miss());
        cache.store(key, &sample()).unwrap();
        assert_eq!(cache.load(key).unwrap(), sample());
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn flipped_byte_is_a_checksum_error_and_quarantines() {
        let cache = ResultCache::open(tmpdir("flip")).unwrap();
        let key = "device=kepler;family=l1;iters=20";
        cache.store(key, &sample()).unwrap();
        let path = cache.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let off = bytes.len() - 3; // inside the payload line
        bytes[off] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();
        let err = cache.load(key).unwrap_err();
        assert!(
            matches!(
                err.kind,
                CacheErrorKind::ChecksumMismatch { .. } | CacheErrorKind::Malformed { .. }
            ),
            "{err}"
        );
        let q = cache.quarantine(key).unwrap();
        assert!(q.exists());
        assert!(cache.load(key).unwrap_err().is_miss(), "quarantined entries are never re-read");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn wrong_key_in_the_addressed_file_is_typed() {
        let cache = ResultCache::open(tmpdir("keymismatch")).unwrap();
        let key = "device=kepler;family=sync;iters=1";
        cache.store(key, &sample()).unwrap();
        // Simulate a collision: another key's entry lands in this file.
        let other = "device=fermi;family=atomic;iters=9";
        let payload = sample().encode();
        std::fs::write(
            cache.entry_path(key),
            format!(
                "{ENTRY_HEADER}\nkey={other}\ncrc={:08x}\npayload={payload}\n",
                crc32(payload.as_bytes())
            ),
        )
        .unwrap();
        let err = cache.load(key).unwrap_err();
        assert!(matches!(err.kind, CacheErrorKind::KeyMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
