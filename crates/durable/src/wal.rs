//! Per-shard write-ahead log: length-prefixed, CRC-guarded records
//! appended sequentially and `fdatasync`'d in group-commit batches.
//!
//! Record layout (all little-endian):
//!
//! ```text
//! len: u32 | crc32(payload): u32 | payload: len bytes
//! ```
//!
//! The payload is opaque to this layer — `tagnn-serve` stores the exact
//! `binwire` infer frame it admitted, so replay re-enters the normal
//! ingestion path. On open, the tail of the file is scanned: the first
//! record whose header is short, whose length exceeds
//! [`MAX_WAL_RECORD`], whose payload is cut off, or whose CRC mismatches
//! marks the end of the valid prefix; everything after it (a torn write
//! from a crash) is truncated away and reported, never panicked on.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::codec::crc32;
use crate::crash;

/// Hard bound on a single record's payload; a corrupt length prefix can
/// never demand more than this in one allocation. Matches the serve wire
/// frame bound.
pub const MAX_WAL_RECORD: usize = 64 << 20;

const RECORD_HEADER: usize = 8; // len:u32 + crc:u32

/// One valid record recovered from the log.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The opaque payload as appended.
    pub payload: Vec<u8>,
    /// File offset of the first byte *after* this record. A checkpoint
    /// covering `offset` covers every record with `end_offset <= offset`.
    pub end_offset: u64,
}

/// Outcome of the open-time scan.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Every valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix; the file is truncated to this.
    pub valid_len: u64,
    /// Bytes dropped from a torn/corrupt tail (0 for a clean log).
    pub truncated_bytes: u64,
}

/// Append-side handle. Records are buffered by the OS; [`WalWriter::append`]
/// triggers an `fdatasync` every `group_commit` records, and
/// [`WalWriter::sync`] forces one (checkpoint cuts and shutdown).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    len: u64,
    pending: u32,
    group_commit: u32,
}

impl WalWriter {
    /// Open (creating if absent) the log at `path`, scan and truncate any
    /// torn tail, and return the writer positioned at the valid end plus
    /// everything recovered. `group_commit` is clamped to at least 1.
    pub fn open(path: &Path, group_commit: usize) -> io::Result<(WalWriter, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // Reopened logs keep their records; only a torn tail is cut.
            .truncate(false)
            .open(path)?;
        let recovery = scan_and_truncate(&mut file)?;
        file.seek(SeekFrom::Start(recovery.valid_len))?;
        let writer = WalWriter {
            file,
            len: recovery.valid_len,
            pending: 0,
            group_commit: group_commit.max(1) as u32,
        };
        Ok((writer, recovery))
    }

    /// Current logical end of the log (start offset of the next record).
    /// Note this includes appended-but-unsynced records; call
    /// [`WalWriter::sync`] before trusting it as a checkpoint cover.
    pub fn offset(&self) -> u64 {
        self.len
    }

    /// Append one record. Returns the fsync duration if this append
    /// completed a group commit, `None` if the record is still pending.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<Option<Duration>> {
        assert!(
            payload.len() <= MAX_WAL_RECORD,
            "WAL record exceeds MAX_WAL_RECORD"
        );
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);

        if crash::hit("wal_torn") {
            // Model a crash mid-write: half the record reaches the disk.
            let cut = record.len() / 2;
            let _ = self.file.write_all(&record[..cut]);
            let _ = self.file.sync_data();
            std::process::abort();
        }

        self.file.write_all(&record)?;
        self.len += record.len() as u64;
        self.pending += 1;
        if self.pending >= self.group_commit {
            self.sync()
        } else {
            Ok(None)
        }
    }

    /// Force an `fdatasync` if any records are pending; returns how long
    /// it took, or `None` if the log was already durable.
    pub fn sync(&mut self) -> io::Result<Option<Duration>> {
        if self.pending == 0 {
            return Ok(None);
        }
        crash::abort_if("wal_fsync");
        let start = Instant::now();
        self.file.sync_data()?;
        self.pending = 0;
        Ok(Some(start.elapsed()))
    }
}

fn scan_and_truncate(file: &mut File) -> io::Result<WalRecovery> {
    let mut bytes = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut bytes)?;
    let total = bytes.len() as u64;

    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if bytes.len() - pos < RECORD_HEADER {
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_WAL_RECORD {
            break; // corrupt length prefix — treat as tail
        }
        let body_start = pos + RECORD_HEADER;
        if bytes.len() - body_start < len {
            break; // payload cut off
        }
        let payload = &bytes[body_start..body_start + len];
        if crc32(payload) != crc {
            break; // torn or bit-flipped record
        }
        pos = body_start + len;
        records.push(WalRecord {
            payload: payload.to_vec(),
            end_offset: pos as u64,
        });
    }

    let valid_len = pos as u64;
    let truncated_bytes = total - valid_len;
    if truncated_bytes > 0 {
        file.set_len(valid_len)?;
        file.sync_data()?;
    }
    Ok(WalRecovery {
        records,
        valid_len,
        truncated_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tagnn-wal-{tag}-{}-{n}.log", std::process::id()))
    }

    #[test]
    fn append_sync_recover_round_trip() {
        let path = temp_path("rt");
        {
            let (mut w, rec) = WalWriter::open(&path, 2).unwrap();
            assert_eq!(rec.records.len(), 0);
            assert_eq!(rec.truncated_bytes, 0);
            assert!(w.append(b"alpha").unwrap().is_none()); // pending
            assert!(w.append(b"beta").unwrap().is_some()); // group commit of 2
            w.append(b"gamma").unwrap();
            w.sync().unwrap();
            // Second sync is a no-op.
            assert!(w.sync().unwrap().is_none());
        }
        let (w, rec) = WalWriter::open(&path, 1).unwrap();
        let payloads: Vec<&[u8]> = rec.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"alpha".as_slice(), b"beta", b"gamma"]);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(w.offset(), rec.valid_len);
        // end_offsets are strictly increasing and final equals valid_len.
        assert!(rec
            .records
            .windows(2)
            .all(|p| p[0].end_offset < p[1].end_offset));
        assert_eq!(rec.records.last().unwrap().end_offset, rec.valid_len);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_path("torn");
        {
            let (mut w, _) = WalWriter::open(&path, 1).unwrap();
            w.append(b"keep-me").unwrap();
            w.append(b"also-keep").unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let mut bytes = fs::read(&path).unwrap();
        let mut torn = Vec::new();
        torn.extend_from_slice(&(100u32).to_le_bytes());
        torn.extend_from_slice(&0xAAAA_AAAAu32.to_le_bytes());
        torn.extend_from_slice(&[0x55; 10]); // far fewer than 100 payload bytes
        let torn_len = torn.len() as u64;
        bytes.extend_from_slice(&torn);
        fs::write(&path, &bytes).unwrap();

        let (mut w, rec) = WalWriter::open(&path, 1).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.truncated_bytes, torn_len);
        assert_eq!(fs::metadata(&path).unwrap().len(), rec.valid_len);
        // The log is usable for appends after truncation.
        w.append(b"post-recovery").unwrap();
        let (_, rec2) = WalWriter::open(&path, 1).unwrap();
        assert_eq!(rec2.records.len(), 3);
        assert_eq!(rec2.records[2].payload, b"post-recovery");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_cuts_the_tail_there() {
        let path = temp_path("crc");
        {
            let (mut w, _) = WalWriter::open(&path, 1).unwrap();
            w.append(b"first").unwrap();
            w.append(b"second").unwrap();
            w.append(b"third").unwrap();
        }
        // Flip one payload byte of the second record.
        let mut bytes = fs::read(&path).unwrap();
        let second_payload_start = (RECORD_HEADER + 5) + RECORD_HEADER;
        bytes[second_payload_start] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (_, rec) = WalWriter::open(&path, 1).unwrap();
        // Only the prefix before the corrupt record survives; the valid
        // third record after it is unreachable (no resync points) and is
        // dropped with the tail — exactly the safe choice.
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"first");
        assert!(rec.truncated_bytes > 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_prefix_is_a_tail_not_an_allocation() {
        let path = temp_path("huge");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let (_, rec) = WalWriter::open(&path, 1).unwrap();
        assert_eq!(rec.records.len(), 0);
        assert_eq!(rec.truncated_bytes, 8);
        assert_eq!(rec.valid_len, 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_payload_records_round_trip() {
        let path = temp_path("empty");
        {
            let (mut w, _) = WalWriter::open(&path, 1).unwrap();
            w.append(b"").unwrap();
            w.append(b"x").unwrap();
        }
        let (_, rec) = WalWriter::open(&path, 1).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0].payload, b"");
        fs::remove_file(&path).ok();
    }
}
