//! The campaign journal: one JSONL line per completed injection, and the
//! one writer both JSONL journals (campaign and daemon queue) append
//! through.
//!
//! The journal is the campaign's crash-consistency mechanism. Every
//! classified injection appends one self-contained line recording the
//! sample index `k`, the planned site, and the outcome; a resumed campaign
//! replays completed lines into the tally and executes only the missing
//! `k`s. Because the `k`-th site is a pure function of `(seed, k)` (see
//! `rar_core::FaultInjector`), the journal never needs to checkpoint
//! generator state — the set of completed `k`s IS the checkpoint.
//!
//! [`JournalWriter`] writes each line at once, checks its length and cuts
//! a failed append back off, and pushes lines to stable storage with
//! `sync_data` every `fsync_every` lines, bounding loss on a crash to the
//! unsynced tail. A process killed mid-append can leave a torn (partial)
//! final line; [`replay`] skips exactly that case, while corruption
//! anywhere else in the file is reported as an error rather than silently
//! dropped, and [`JournalWriter::resume`] cuts the torn line off before the
//! next append. The daemon's queue journal replays and appends through the
//! same two.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use rar_chaos::sites;
use rar_core::{FaultTarget, PlannedFault};
use rar_trace::jsonv;

use crate::outcome::Outcome;

/// One completed injection, as journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Sample index within the campaign.
    pub k: u64,
    /// The injected site.
    pub fault: PlannedFault,
    /// Classified outcome.
    pub outcome: Outcome,
}

impl JournalRecord {
    /// Renders the record as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "{{\"k\":{},\"cycle\":{},\"target\":\"{}\",\"entry\":{},\"bit\":{},\"outcome\":\"{}\"}}",
            self.k,
            self.fault.cycle,
            self.fault.target.name(),
            self.fault.entry,
            self.fault.bit,
            self.outcome.name()
        )
    }

    /// Parses one journal line; `None` on any malformation (the caller
    /// decides whether that is a tolerable torn tail or corruption).
    #[must_use]
    pub fn parse_line(line: &str) -> Option<JournalRecord> {
        let doc = jsonv::parse(line).ok()?;
        let u64_at = |key: &str| doc.get(key)?.as_u64();
        let str_at = |key: &str| doc.get(key)?.as_str();
        Some(JournalRecord {
            k: u64_at("k")?,
            fault: PlannedFault {
                cycle: u64_at("cycle")?,
                target: FaultTarget::parse(str_at("target")?)?,
                entry: u64_at("entry")?,
                bit: u64_at("bit")?,
            },
            outcome: Outcome::parse(str_at("outcome")?)?,
        })
    }
}

/// Why a proposed journal path cannot be used — diagnosed *before* a
/// campaign starts, so a bad `--journal` argument is a clear typed error
/// up front rather than a panic (or a wasted campaign) later.
#[derive(Debug)]
pub enum JournalPathError {
    /// The path names an existing directory; the journal must be a file.
    IsDirectory(PathBuf),
    /// The path cannot be opened for appending (missing parent that
    /// cannot be created, a parent that is a file, permissions, ...).
    Unwritable {
        /// The rejected journal path.
        path: PathBuf,
        /// The underlying I/O failure.
        source: io::Error,
    },
}

impl fmt::Display for JournalPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalPathError::IsDirectory(path) => {
                write!(
                    f,
                    "journal path {} is a directory; pass a file path",
                    path.display()
                )
            }
            JournalPathError::Unwritable { path, source } => {
                write!(
                    f,
                    "journal path {} is not writable: {source}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for JournalPathError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalPathError::IsDirectory(_) => None,
            JournalPathError::Unwritable { source, .. } => Some(source),
        }
    }
}

/// Checks that `path` can actually serve as a journal, by probing it the
/// same way [`JournalWriter::resume`] will (parents created, file opened
/// for append). On success an empty journal file exists at `path`, which
/// [`load_journal`] treats as a fresh start.
///
/// # Errors
///
/// [`JournalPathError::IsDirectory`] when `path` is an existing
/// directory; [`JournalPathError::Unwritable`] when the append-mode open
/// (or parent creation) fails.
pub fn validate_journal_path(path: &Path) -> Result<(), JournalPathError> {
    if path.is_dir() {
        return Err(JournalPathError::IsDirectory(path.to_path_buf()));
    }
    match open_append(path) {
        Ok(_) => Ok(()),
        Err(source) => Err(JournalPathError::Unwritable {
            path: path.to_path_buf(),
            source,
        }),
    }
}

/// The one append-only writer of both JSONL journals (campaign and
/// daemon queue).
///
/// Each line is written at once and its length checked. A torn write
/// (an error after a prefix landed), a short write (a prefix landed and
/// the write reported success) or a failed sync is cut back to the file's
/// length before the line, so an append that returns an error leaves no
/// part of its line behind and a retry can never fuse two lines. The
/// chaos fabric's `journal.torn`, `journal.short` and `journal.fsync`
/// fail-points live in this path.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    pending: usize,
    fsync_every: usize,
}

impl JournalWriter {
    /// Replays the journal at `path` (see [`replay`], which parses each
    /// line with `parse` and names the `what` journal in a corruption
    /// error) and reopens it for appending; returns the records and the
    /// writer, which syncs every `fsync_every` lines.
    ///
    /// # Errors
    ///
    /// I/O failures, or corruption before the final line.
    pub fn resume<T>(
        path: &Path,
        what: &str,
        parse: impl FnMut(&str) -> Option<T>,
        fsync_every: usize,
    ) -> io::Result<(Vec<T>, JournalWriter)> {
        let (records, durable_len) = replay(path, what, parse)?;
        // Cut a torn final line off and restore a newline a crash tore
        // off the last record, so the next append starts a line of its
        // own instead of fusing onto the partial one.
        let mut file = open_append(path)?;
        let len = file.metadata()?.len();
        if len > durable_len {
            file.set_len(durable_len)?;
        } else if len < durable_len {
            file.write_all(b"\n")?;
        }
        let writer = JournalWriter {
            file,
            pending: 0,
            fsync_every: fsync_every.max(1),
        };
        Ok((records, writer))
    }

    /// Appends `line` and a newline, syncing once `fsync_every` lines are
    /// pending; returns whether this append synced.
    ///
    /// # Errors
    ///
    /// A failed or short write, or a failed sync; the line is cut back off.
    pub fn append(&mut self, line: &str) -> io::Result<bool> {
        let sync = self.pending + 1 >= self.fsync_every;
        self.write(line, sync)?;
        Ok(sync)
    }

    /// Appends `line` and a newline and syncs at once.
    ///
    /// # Errors
    ///
    /// A failed or short write, or a failed sync; the line is cut back off.
    pub fn append_durable(&mut self, line: &str) -> io::Result<()> {
        self.write(line, true)
    }

    /// Pushes every pending line to stable storage.
    ///
    /// # Errors
    ///
    /// A failed sync.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.pending > 0 {
            rar_chaos::maybe_io_err(sites::JOURNAL_FSYNC)?;
            self.file.sync_data()?;
            self.pending = 0;
        }
        Ok(())
    }

    /// Writes `line` and a newline at the end of the file and syncs when
    /// `sync`; on any failure cuts the file back to its length before.
    fn write(&mut self, line: &str, sync: bool) -> io::Result<()> {
        let start = self.file.metadata()?.len();
        self.pending += 1;
        let written = self
            .write_checked(format!("{line}\n").as_bytes(), start)
            .and_then(|()| if sync { self.sync() } else { Ok(()) });
        if written.is_err() {
            self.pending -= 1;
            let _ = self.file.set_len(start);
        }
        written
    }

    /// Writes `bytes` and checks that the file grew from `start` by
    /// exactly their length.
    fn write_checked(&mut self, bytes: &[u8], start: u64) -> io::Result<()> {
        if let Some(hit) = rar_chaos::fire(sites::JOURNAL_TORN) {
            // Torn write: a strict prefix lands, then the write errors.
            let cut = 1 + (hit.roll as usize) % (bytes.len() - 1);
            self.file.write_all(&bytes[..cut])?;
            return Err(io::Error::other("chaos: torn journal append"));
        }
        if let Some(hit) = rar_chaos::fire(sites::JOURNAL_SHORT) {
            // Silent short write: a prefix lands and the write "succeeds";
            // only the length check below catches it.
            let cut = 1 + (hit.roll as usize) % (bytes.len() - 1);
            self.file.write_all(&bytes[..cut])?;
        } else {
            self.file.write_all(bytes)?;
        }
        let end = self.file.metadata()?.len();
        let want = start + bytes.len() as u64;
        if end != want {
            return Err(io::Error::other(format!(
                "short journal append: file at {end}, expected {want}"
            )));
        }
        Ok(())
    }
}

/// Loads every intact record from a journal file (see [`replay`]).
///
/// # Errors
///
/// I/O failures, or corruption before the final line.
pub fn load_journal(path: &Path) -> io::Result<Vec<JournalRecord>> {
    replay(path, "journal", JournalRecord::parse_line).map(|(records, _)| records)
}

/// Replays the JSONL journal at `path`, parsing each non-blank line with
/// `parse`. A missing file is empty. A malformed final line is a torn
/// append from a crash and is skipped; a malformed line anywhere else is
/// corruption (`InvalidData`, naming the `what` journal and the line).
/// Returns the records and the durable length: the bytes through the last
/// intact line, counting a newline the crash tore off it.
///
/// # Errors
///
/// I/O failures, or corruption before the final line.
pub fn replay<T>(
    path: &Path,
    what: &str,
    mut parse: impl FnMut(&str) -> Option<T>,
) -> io::Result<(Vec<T>, u64)> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let (mut records, mut durable, mut end) = (Vec::new(), 0, 0);
    for (i, raw) in text.split_inclusive('\n').enumerate() {
        end += raw.len();
        let line = raw.trim();
        if !line.is_empty() {
            match parse(line) {
                Some(record) => records.push(record),
                None if end == text.len() => break,
                None => {
                    let msg = format!("corrupt {what} line {}: {line}", i + 1);
                    return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
                }
            }
        }
        durable = end + usize::from(!raw.ends_with('\n'));
    }
    Ok((records, durable as u64))
}

/// Opens `path` for appending, creating it and its missing parent
/// directories.
fn open_append(path: &Path) -> io::Result<File> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    OpenOptions::new().create(true).append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_journal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "rar-inject-journal-{tag}-{}-{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn resume(path: &Path, fsync_every: usize) -> JournalWriter {
        let (_, w) = JournalWriter::resume(path, "journal", JournalRecord::parse_line, fsync_every)
            .expect("open");
        w
    }

    fn record(k: u64) -> JournalRecord {
        JournalRecord {
            k,
            fault: PlannedFault {
                cycle: 100 + k,
                target: FaultTarget::ALL[(k % 10) as usize],
                entry: k % 7,
                bit: k % 5,
            },
            outcome: match k % 4 {
                0 => Outcome::Masked,
                1 => Outcome::Sdc,
                2 => Outcome::DueHang,
                _ => Outcome::Vacant,
            },
        }
    }

    #[test]
    fn records_round_trip_through_lines() {
        for k in 0..40 {
            let r = record(k);
            assert_eq!(JournalRecord::parse_line(&r.to_line()), Some(r));
        }
    }

    #[test]
    fn write_then_load_recovers_everything() {
        let path = tmp_journal("roundtrip");
        let mut w = resume(&path, 4);
        for k in 0..10 {
            w.append(&record(k).to_line()).expect("append");
        }
        w.sync().expect("sync");
        let got = load_journal(&path).expect("load");
        assert_eq!(got, (0..10).map(record).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_skipped_on_resume() {
        let path = tmp_journal("torn");
        let mut text = String::new();
        for k in 0..5 {
            text.push_str(&record(k).to_line());
            text.push('\n');
        }
        // A crash mid-append leaves a partial line with no newline.
        text.push_str("{\"k\":5,\"cycle\":99,\"tar");
        std::fs::write(&path, text).expect("write");
        let got = load_journal(&path).expect("load");
        assert_eq!(got.len(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_before_the_tail_is_an_error() {
        let path = tmp_journal("corrupt");
        let text = format!(
            "{}\ngarbage\n{}\n",
            record(0).to_line(),
            record(1).to_line()
        );
        std::fs::write(&path, text).expect("write");
        let err = load_journal(&path).expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_a_fresh_start() {
        let path = tmp_journal("missing");
        assert!(load_journal(&path).expect("load").is_empty());
    }

    #[test]
    fn directory_journal_paths_are_typed_errors() {
        let dir = std::env::temp_dir();
        match validate_journal_path(&dir) {
            Err(JournalPathError::IsDirectory(p)) => assert_eq!(p, dir),
            other => panic!("expected IsDirectory, got {other:?}"),
        }
        let msg = validate_journal_path(&dir).unwrap_err().to_string();
        assert!(msg.contains("is a directory"), "{msg}");
    }

    #[test]
    fn unwritable_journal_paths_are_typed_errors() {
        // A parent that is a regular *file* is unwritable for any user —
        // including root, which ignores permission bits (so a chmod-based
        // probe would be flaky across environments).
        let blocker = tmp_journal("blocker");
        std::fs::write(&blocker, b"not a directory").expect("write");
        let path = blocker.join("campaign.jsonl");
        match validate_journal_path(&path) {
            Err(JournalPathError::Unwritable { path: p, source }) => {
                assert_eq!(p, path);
                let msg = format!("{}", JournalPathError::Unwritable { path: p, source });
                assert!(msg.contains("not writable"), "{msg}");
            }
            other => panic!("expected Unwritable, got {other:?}"),
        }
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn valid_journal_paths_probe_clean_and_stay_resumable() {
        let path = tmp_journal("valid");
        validate_journal_path(&path).expect("fresh temp path is writable");
        // The probe leaves an empty journal: still a fresh start.
        assert!(load_journal(&path).expect("load").is_empty());
        // Validation of an existing journal does not disturb its records.
        let mut w = resume(&path, 1);
        w.append(&record(3).to_line()).expect("append");
        w.sync().expect("sync");
        validate_journal_path(&path).expect("existing journal is writable");
        assert_eq!(load_journal(&path).expect("load"), vec![record(3)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_batches_report_flush_boundaries() {
        let path = tmp_journal("batch");
        let mut w = resume(&path, 3);
        let flushed: Vec<bool> = (0..7)
            .map(|k| w.append(&record(k).to_line()).expect("append"))
            .collect();
        assert_eq!(flushed, [false, false, true, false, false, true, false]);
        // Every line is in the file at once; a sync only makes it durable.
        assert_eq!(load_journal(&path).expect("load").len(), 7);
        w.sync().expect("sync");
        std::fs::remove_file(&path).ok();
    }
}
