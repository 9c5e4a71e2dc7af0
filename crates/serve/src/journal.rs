//! Append-only run journal: hard-kill resume for a single sweep run.
//!
//! The content-addressed cache already survives crashes (entries are
//! atomic), but a run may be configured *without* a cache, and even with
//! one a resume should not have to re-hash every cell against the cache
//! directory. The journal is the workspace's one resume format: a header
//! that pins exactly which request (and grid size) the file belongs to,
//! then one CRC-armored line per completed cell in completion order,
//! flushed as written. After a `kill -9`, [`Journal::resume`] trusts the
//! contiguous prefix of intact lines — a torn tail or a byte flipped at
//! rest (even one that breaks UTF-8) ends the prefix with a typed
//! [`JournalError`], never a panic and never silently-wrong data.

use crate::cache::{crc32, CellResult};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic header prefix; the full header also pins the request hash and
/// cell count, so a journal can never resume a *different* sweep.
const HEADER_PREFIX: &str = "gpgpu-serve-journal v1";

/// Why a journal could not be used (the run falls back to recomputing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file's header names a different request or grid size.
    HeaderMismatch {
        /// The header this run expected.
        expected: String,
        /// The header found on disk.
        found: String,
    },
    /// A line failed its CRC or did not parse: the trusted prefix ends at
    /// the previous line (torn write or corruption at rest).
    TornLine {
        /// 1-based line number of the first untrusted line.
        line: usize,
    },
    /// Underlying I/O failure, stringified.
    Io {
        /// The I/O error text.
        error: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::HeaderMismatch { expected, found } => {
                write!(f, "journal header mismatch: expected `{expected}`, found `{found}`")
            }
            JournalError::TornLine { line } => {
                write!(f, "journal line {line} failed integrity checks; prefix before it kept")
            }
            JournalError::Io { error } => write!(f, "journal i/o error: {error}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// What [`Journal::resume`] salvaged: the trusted prefix of completed
/// cells, plus the typed reason the prefix ended early (if it did).
#[derive(Debug)]
pub struct JournalRecovery {
    /// `(cell index, result)` pairs, in the order they were journaled.
    pub entries: Vec<(usize, CellResult)>,
    /// `Some` when a torn/corrupt line was discarded — surfaced so callers
    /// can report *that* recovery happened, not just that it succeeded.
    pub damage: Option<JournalError>,
}

/// An open, append-mode run journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    sink: Mutex<std::fs::File>,
}

impl Journal {
    /// The exact header for a `(request_hash, cells)` run.
    fn header(request_hash: u64, cells: usize) -> String {
        format!("{HEADER_PREFIX} request={request_hash:#018x} cells={cells}")
    }

    /// Starts a fresh journal at `path` (truncating any previous file).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures.
    pub fn create(path: &Path, request_hash: u64, cells: usize) -> Result<Journal, JournalError> {
        let io_err = |e: std::io::Error| JournalError::Io { error: e.to_string() };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io_err)?;
            }
        }
        let mut file = std::fs::File::create(path).map_err(io_err)?;
        writeln!(file, "{}", Journal::header(request_hash, cells)).map_err(io_err)?;
        file.flush().map_err(io_err)?;
        Ok(Journal { path: path.to_path_buf(), sink: Mutex::new(file) })
    }

    /// Resumes from `path`: validates the header against this run's
    /// identity, recovers the contiguous prefix of intact lines, rewrites
    /// the file to exactly that prefix (dropping any torn tail), and
    /// reopens it for appends. A missing file is simply a fresh start.
    ///
    /// # Errors
    ///
    /// [`JournalError::HeaderMismatch`] when the file belongs to a
    /// different request — resuming it would mix sweeps, so that is a
    /// refusal, not a recovery. [`JournalError::Io`] on I/O failures.
    /// Torn or corrupt *lines* are not errors: they end the trusted prefix
    /// and are reported via [`JournalRecovery::damage`].
    pub fn resume(
        path: &Path,
        request_hash: u64,
        cells: usize,
    ) -> Result<(Journal, JournalRecovery), JournalError> {
        let io_err = |e: std::io::Error| JournalError::Io { error: e.to_string() };
        let expected = Journal::header(request_hash, cells);
        // Read lossily: a flipped byte that breaks UTF-8 must end the
        // trusted prefix at its line (the CRC cannot verify), not refuse the
        // whole journal.
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let journal = Journal::create(path, request_hash, cells)?;
                return Ok((journal, JournalRecovery { entries: Vec::new(), damage: None }));
            }
            Err(e) => return Err(io_err(e)),
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == expected => {}
            other => {
                return Err(JournalError::HeaderMismatch {
                    expected,
                    found: other.unwrap_or("<empty>").to_string(),
                });
            }
        }
        let mut entries: Vec<(usize, CellResult)> = Vec::new();
        let mut damage = None;
        for (n, line) in lines.enumerate() {
            match Journal::disarm(line, cells) {
                Some(entry) => entries.push(entry),
                None => {
                    damage = Some(JournalError::TornLine { line: n + 2 });
                    break;
                }
            }
        }
        // Rewrite header + trusted prefix so the tail cannot resurface.
        let mut file = std::fs::File::create(path).map_err(io_err)?;
        writeln!(file, "{expected}").map_err(io_err)?;
        for (index, result) in &entries {
            writeln!(file, "{}", Journal::armor(*index, result)).map_err(io_err)?;
        }
        file.flush().map_err(io_err)?;
        let journal = Journal { path: path.to_path_buf(), sink: Mutex::new(file) };
        Ok((journal, JournalRecovery { entries, damage }))
    }

    /// Renders one journal line: `<crc32 hex> <index> <payload>`, with the
    /// CRC covering `<index> <payload>` so a flipped index digit is caught
    /// exactly like a flipped payload byte.
    fn armor(index: usize, result: &CellResult) -> String {
        let body = format!("{index} {}", result.encode());
        format!("{:08x} {body}", crc32(body.as_bytes()))
    }

    /// Inverts [`Journal::armor`]; `None` for any line that fails the CRC,
    /// does not parse, or names an out-of-range cell index.
    fn disarm(line: &str, cells: usize) -> Option<(usize, CellResult)> {
        let (crc_hex, body) = line.split_once(' ')?;
        if crc_hex.len() != 8 || u32::from_str_radix(crc_hex, 16).ok()? != crc32(body.as_bytes()) {
            return None;
        }
        let (index_text, payload) = body.split_once(' ')?;
        let index: usize = index_text.parse().ok()?;
        if index >= cells {
            return None;
        }
        Some((index, CellResult::decode(payload)?))
    }

    /// Appends one completed cell and flushes, so the line survives a hard
    /// kill the instant this returns.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write failures.
    pub fn append(&self, index: usize, result: &CellResult) -> Result<(), JournalError> {
        let mut file = self.sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(file, "{}", Journal::armor(index, result))
            .and_then(|()| file.flush())
            .map_err(|e| JournalError::Io { error: e.to_string() })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpgpu-serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.journal"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn result(i: usize) -> CellResult {
        CellResult {
            sent: i,
            received: vec![i.is_multiple_of(2); 3],
            cycles: 1000 + i as u64,
            bandwidth_kbps: 10.5 * i as f64,
            ber: 0.0,
        }
    }

    #[test]
    fn append_then_resume_recovers_everything() {
        let path = tmpfile("clean");
        let j = Journal::create(&path, 0xABCD, 8).unwrap();
        for i in [3usize, 0, 5] {
            j.append(i, &result(i)).unwrap();
        }
        drop(j);
        let (_, recovery) = Journal::resume(&path, 0xABCD, 8).unwrap();
        assert!(recovery.damage.is_none());
        assert_eq!(
            recovery.entries,
            vec![(3, result(3)), (0, result(0)), (5, result(5))],
            "completion order preserved"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_keeps_the_prefix_with_a_typed_reason() {
        let path = tmpfile("torn");
        let j = Journal::create(&path, 0x1, 4).unwrap();
        j.append(0, &result(0)).unwrap();
        j.append(1, &result(1)).unwrap();
        drop(j);
        // Simulate a kill -9 mid-write: half a line at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("deadbeef 2 cycles=10");
        std::fs::write(&path, &text).unwrap();
        let (_, recovery) = Journal::resume(&path, 0x1, 4).unwrap();
        assert_eq!(recovery.entries.len(), 2);
        assert_eq!(recovery.damage, Some(JournalError::TornLine { line: 4 }));
        // The rewrite dropped the torn tail for good.
        let (_, again) = Journal::resume(&path, 0x1, 4).unwrap();
        assert_eq!(again.entries.len(), 2);
        assert!(again.damage.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_different_request_refuses_to_resume() {
        let path = tmpfile("mismatch");
        let j = Journal::create(&path, 0x2, 4).unwrap();
        j.append(0, &result(0)).unwrap();
        drop(j);
        let err = Journal::resume(&path, 0x3, 4).unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }));
        let err = Journal::resume(&path, 0x2, 5).unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_payload_digit_is_caught_not_resumed() {
        let path = tmpfile("flip");
        let j = Journal::create(&path, 0x4, 4).unwrap();
        j.append(0, &result(0)).unwrap();
        j.append(1, &result(1)).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Flip a digit in the *first* entry's cycles field: without the CRC
        // this would still parse and silently resume a wrong result.
        lines[1] = lines[1].replace("cycles=1000", "cycles=9000");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let (_, recovery) = Journal::resume(&path, 0x4, 4).unwrap();
        assert_eq!(recovery.entries.len(), 0, "prefix ends at the corrupt first entry");
        assert_eq!(recovery.damage, Some(JournalError::TornLine { line: 2 }));
        let _ = std::fs::remove_file(&path);
    }
}
