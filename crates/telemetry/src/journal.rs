//! Crash-safe append-only binary journal (`GPSJRNL1`).
//!
//! The positioning service journals every epoch it processes so that a
//! killed process can rebuild its per-receiver session state by
//! replaying the log. The format follows the flight recorder's packing
//! discipline (little-endian `u64` words, fixed framing, no
//! variable-length text), but where the recorder is a lossy ring, the
//! journal is a durable stream with explicit torn-write recovery:
//!
//! ```text
//! file   := magic            8 bytes  b"GPSJRNL1"
//!           record*
//! record := len              u64   payload length in words
//!           seq              u64   record sequence number (0-based)
//!           payload          len × u64
//!           checksum         u64   FNV-1a over len, seq and payload
//! ```
//!
//! * **Append-only, fsync-batched.** [`JournalWriter::append`] writes
//!   the framed record immediately (so an OS-level crash loses at most
//!   the page cache) and issues `sync_data` every `fsync_every`
//!   records, amortizing durability cost across the batch.
//! * **Torn writes cannot poison a replay.** [`JournalReader`] streams
//!   the frames one at a time from a buffered file (one record in
//!   memory, however long the journal) and stops cleanly at the first
//!   incomplete or checksum-corrupt record — a process killed
//!   mid-`append` costs the tail record, never a panic and never a
//!   misparse of the bytes that follow.
//! * **Self-verifying.** The sequence word must increase by exactly one
//!   per record, so a seek into the middle of an unrelated file cannot
//!   masquerade as a valid journal suffix.
//!
//! ```
//! use gps_telemetry::journal::{JournalReader, JournalWriter};
//!
//! let path = std::env::temp_dir().join(format!("jrnl_doc_{}.bin", std::process::id()));
//! let mut w = JournalWriter::create(&path, 8).unwrap();
//! w.append(&[1, 2, 3]).unwrap();
//! w.append(&[4]).unwrap();
//! drop(w);
//! let mut read = JournalReader::open(&path).unwrap();
//! assert_eq!(read.next_record().unwrap(), Some(&[1, 2, 3][..]));
//! assert_eq!(read.next_record().unwrap(), Some(&[4][..]));
//! assert_eq!(read.next_record().unwrap(), None);
//! assert_eq!(read.records_read(), 2);
//! assert!(!read.truncated());
//! std::fs::remove_file(&path).ok();
//! ```

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// File magic of a version-1 journal.
pub const JOURNAL_MAGIC: &[u8; 8] = b"GPSJRNL1";

/// Largest accepted payload, in words — a plausibility bound so a
/// corrupt length word cannot make the reader attempt a giant slice.
const MAX_RECORD_WORDS: u64 = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a word stream; the journal's frame checksum and the
/// digest primitive service sessions chain their outcomes with.
#[must_use]
pub fn fnv1a_words(seed: u64, words: &[u64]) -> u64 {
    let mut hash = if seed == 0 { FNV_OFFSET } else { seed };
    for w in words {
        for shift in (0..64).step_by(8) {
            hash ^= (w >> shift) & 0xff;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

fn frame_checksum(len: u64, seq: u64, payload: &[u64]) -> u64 {
    fnv1a_words(fnv1a_words(0, &[len, seq]), payload)
}

/// Appends framed records to a journal file with batched fsync.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    fsync_every: usize,
    unsynced: usize,
    bytes_written: u64,
    scratch: Vec<u8>,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path`, writing the magic
    /// header. `fsync_every` is the durability batch: a `sync_data`
    /// is issued after every that-many appended records (clamped ≥ 1).
    ///
    /// # Errors
    ///
    /// Propagates file creation / header write errors.
    pub fn create(path: &Path, fsync_every: usize) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(JOURNAL_MAGIC)?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            seq: 0,
            fsync_every: fsync_every.max(1),
            unsynced: 0,
            bytes_written: JOURNAL_MAGIC.len() as u64,
            scratch: Vec::new(),
        })
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.seq
    }

    /// Bytes written so far (header included).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Appends one record. The frame (length, sequence, payload,
    /// checksum) reaches the OS before this returns; it reaches the
    /// disk at the next fsync batch boundary or [`JournalWriter::sync`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying write / sync error; the journal is
    /// unusable for further appends after an error (the tail may be
    /// torn, which the reader tolerates).
    // lint: wire_format
    pub fn append(&mut self, payload: &[u64]) -> io::Result<()> {
        let len = payload.len() as u64;
        let seq = self.seq;
        let checksum = frame_checksum(len, seq, payload);
        self.scratch.clear();
        self.scratch
            .reserve(payload.len().saturating_add(3).saturating_mul(8));
        self.scratch.extend_from_slice(&len.to_le_bytes());
        self.scratch.extend_from_slice(&seq.to_le_bytes());
        for w in payload {
            self.scratch.extend_from_slice(&w.to_le_bytes());
        }
        self.scratch.extend_from_slice(&checksum.to_le_bytes());
        self.file.write_all(&self.scratch)?;
        self.bytes_written += self.scratch.len() as u64;
        self.seq += 1;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Forces the outstanding batch to disk.
    ///
    /// # Errors
    ///
    /// Propagates the `sync_data` error.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

/// Streams the records of a journal, one frame at a time, from any
/// byte source — a buffered file in production, a slice in tests.
///
/// Only the record being decoded is held in memory, so replaying a
/// journal costs one record's words however long the journal is.
#[derive(Debug)]
pub struct JournalReader<R = BufReader<File>> {
    source: R,
    expect_seq: u64,
    truncated: bool,
    done: bool,
    /// Raw bytes of the current frame's payload and checksum.
    frame: Vec<u8>,
    /// Decoded words of the current record.
    payload: Vec<u64>,
}

impl JournalReader {
    /// Opens a journal file for streaming; see [`JournalReader::new`].
    ///
    /// # Errors
    ///
    /// Returns an error for IO failures or a missing/forged magic
    /// header; tail corruption is *not* an error.
    pub fn open(path: &Path) -> io::Result<Self> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> JournalReader<R> {
    /// Checks the magic header of `source` and positions the reader at
    /// the first record.
    ///
    /// Decoding stops cleanly at the first incomplete frame, checksum
    /// mismatch or out-of-order sequence number — every record before
    /// that point is returned and [`JournalReader::truncated`] reports
    /// that a tail was dropped. A torn write therefore costs exactly
    /// the records it tore, never the journal.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the magic header is absent, or the
    /// underlying read error.
    pub fn new(mut source: R) -> io::Result<Self> {
        let mut magic = [0u8; JOURNAL_MAGIC.len()];
        if read_full(&mut source, &mut magic)? != magic.len() || &magic != JOURNAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a GPSJRNL1 journal (bad magic)",
            ));
        }
        Ok(JournalReader {
            source,
            expect_seq: 0,
            truncated: false,
            done: false,
            frame: Vec::new(),
            payload: Vec::new(),
        })
    }

    /// The next complete record, or `None` at the end of the journal
    /// or at a torn tail (which also sets
    /// [`JournalReader::truncated`]). The slice is valid until the
    /// next call.
    ///
    /// # Errors
    ///
    /// Propagates read errors other than a short read; a short read
    /// is a torn tail.
    pub fn next_record(&mut self) -> io::Result<Option<&[u64]>> {
        if self.done {
            return Ok(None);
        }
        if self.read_frame()? {
            self.expect_seq += 1;
            Ok(Some(&self.payload))
        } else {
            self.done = true;
            Ok(None)
        }
    }

    /// Complete records returned so far.
    #[must_use]
    pub fn records_read(&self) -> u64 {
        self.expect_seq
    }

    /// Whether a torn/corrupt tail was dropped during decoding.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Decodes one frame into `payload`. `Ok(false)` ends the stream:
    /// at a clean frame boundary, or at a torn or corrupt frame (then
    /// `truncated` is set rather than guessing at resynchronization).
    // lint: wire_format
    fn read_frame(&mut self) -> io::Result<bool> {
        let mut header = [0u8; 16];
        let got = read_full(&mut self.source, &mut header)?;
        if got == 0 {
            return Ok(false); // clean end on a frame boundary
        }
        let (len_bytes, seq_bytes) = header.split_at(8);
        let len = le_word(len_bytes);
        let seq = le_word(seq_bytes);
        // The payload plus the trailing checksum word, in bytes; a
        // hostile length is bounded before any arithmetic on it.
        let frame_bytes =
            (got == header.len() && len <= MAX_RECORD_WORDS && seq == self.expect_seq)
                .then(|| len.checked_add(1)?.checked_mul(8))
                .flatten();
        let Some(frame_bytes) = frame_bytes else {
            self.truncated = true;
            return Ok(false);
        };
        self.frame.clear();
        (&mut self.source)
            .take(frame_bytes)
            .read_to_end(&mut self.frame)?;
        self.payload.clear();
        self.payload.extend(self.frame.chunks_exact(8).map(le_word));
        let checksum = self.payload.pop();
        let intact = u64::try_from(self.frame.len()).is_ok_and(|n| n == frame_bytes)
            && checksum == Some(frame_checksum(len, seq, &self.payload));
        if !intact {
            self.truncated = true;
        }
        Ok(intact)
    }
}

/// Reads until `buf` is full or the source ends; returns the bytes
/// read (short only at end of input).
fn read_full(source: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        let Some(rest) = buf.get_mut(filled..) else {
            break;
        };
        match source.read(rest) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// One little-endian word from an 8-byte chunk (0 for any other size,
/// which callers never pass).
fn le_word(bytes: &[u8]) -> u64 {
    <[u8; 8]>::try_from(bytes).map_or(0, u64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gps_journal_{name}_{}.bin", std::process::id()))
    }

    /// Every record of a journal image, and whether its tail was torn.
    fn decode(bytes: &[u8]) -> io::Result<(Vec<Vec<u64>>, bool)> {
        read_all(JournalReader::new(bytes)?)
    }

    fn read_all<R: Read>(mut reader: JournalReader<R>) -> io::Result<(Vec<Vec<u64>>, bool)> {
        let mut records = Vec::new();
        while let Some(words) = reader.next_record()? {
            records.push(words.to_vec());
        }
        assert_eq!(reader.records_read(), records.len() as u64);
        Ok((records, reader.truncated()))
    }

    fn write_sample(path: &Path, records: usize) -> u64 {
        let mut w = JournalWriter::create(path, 4).expect("create");
        for i in 0..records {
            let i = i as u64;
            w.append(&[i, i * 10, i * 100]).expect("append");
        }
        w.sync().expect("sync");
        w.bytes_written()
    }

    #[test]
    fn round_trips_records_in_order() {
        let path = temp("roundtrip");
        write_sample(&path, 17);
        let (records, truncated) =
            read_all(JournalReader::open(&path).expect("open")).expect("read");
        assert_eq!(records.len(), 17);
        assert!(!truncated);
        for (i, rec) in records.iter().enumerate() {
            let i = i as u64;
            assert_eq!(rec, &vec![i, i * 10, i * 100]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_journal_is_valid() {
        let path = temp("empty");
        drop(JournalWriter::create(&path, 1).expect("create"));
        let (records, truncated) =
            read_all(JournalReader::open(&path).expect("open")).expect("read");
        assert!(records.is_empty());
        assert!(!truncated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_an_error() {
        assert!(JournalReader::new(&b"NOTAJRNL...."[..]).is_err());
        assert!(JournalReader::new(&b""[..]).is_err());
    }

    #[test]
    fn truncation_at_every_byte_boundary_stops_cleanly() {
        // The torn-write contract, exhaustively: chop the file after
        // every possible byte count; decoding must never error, never
        // panic, and must return only records whose frames are intact.
        let path = temp("torn");
        let total = write_sample(&path, 6);
        let full = std::fs::read(&path).expect("read");
        assert_eq!(full.len() as u64, total);
        let (intact, _) = decode(&full).expect("full decode");
        assert_eq!(intact.len(), 6);
        for cut in 0..full.len() {
            let Ok((records, truncated)) = decode(&full[..cut]) else {
                // Only header-less prefixes may error.
                assert!(cut < JOURNAL_MAGIC.len(), "cut {cut} errored past magic");
                continue;
            };
            assert!(records.len() <= 6);
            for (i, rec) in records.iter().enumerate() {
                assert_eq!(rec, &intact[i], "cut {cut} record {i}");
            }
            // A cut exactly on a frame boundary yields a valid shorter
            // journal; anywhere else the torn tail must be reported.
            let frame_boundary = cut >= 8 && (cut - 8) % 48 == 0;
            if records.len() < 6 && !frame_boundary {
                assert!(truncated, "cut {cut}: dropped tail not reported");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_byte_drops_the_tail() {
        let path = temp("corrupt");
        write_sample(&path, 5);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip one byte inside record 2's payload (file header 8 + two
        // full 48-byte frames + frame header 16 + 3 bytes in).
        let offset = 8 + 2 * 48 + 16 + 3;
        bytes[offset] ^= 0xff;
        let (records, truncated) = decode(&bytes).expect("decode");
        assert_eq!(records.len(), 2, "records before the corruption");
        assert!(truncated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequence_discontinuity_is_rejected() {
        // Splice record 0's frame after itself: duplicated seq 0 must
        // terminate decoding rather than double-count.
        let path = temp("seq");
        write_sample(&path, 2);
        let bytes = std::fs::read(&path).expect("read");
        let frame0 = bytes[8..56].to_vec();
        let mut spliced = bytes[..56].to_vec();
        spliced.extend_from_slice(&frame0);
        let (records, truncated) = decode(&spliced).expect("decode");
        assert_eq!(records.len(), 1);
        assert!(truncated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        let a = fnv1a_words(0, &[1, 2, 3]);
        let b = fnv1a_words(0, &[3, 2, 1]);
        assert_ne!(a, b);
        // Chaining equals one-shot over the concatenation.
        let chained = fnv1a_words(fnv1a_words(0, &[1, 2]), &[3]);
        assert_eq!(chained, a);
    }

    #[test]
    fn writer_reports_byte_and_record_counts() {
        let path = temp("counts");
        let mut w = JournalWriter::create(&path, 100).expect("create");
        assert_eq!(w.records(), 0);
        w.append(&[7; 4]).expect("append");
        assert_eq!(w.records(), 1);
        // 8 magic + (8 len + 8 seq + 32 payload + 8 checksum).
        assert_eq!(w.bytes_written(), 8 + 56);
        w.sync().expect("sync");
        std::fs::remove_file(&path).ok();
    }
}
