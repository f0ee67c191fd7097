//! The disk cache tier: an append-only file of `{key, body}` records so a
//! restarted daemon serves previously computed answers as warm hits.
//!
//! A record is one byte frame: the tag `0x00 'B' '3'`, the key as 8 LE
//! bytes, the body length as 4 LE bytes, the response body verbatim, then
//! `\n`. Bodies are stored exactly as the cache replays them, so a disk
//! hit is bit-identical to the response that was computed. The tag doubles
//! as the key-scheme version: files written by older builds (JSONL lines,
//! or `\0B2` records keyed by an earlier scheme) have no valid record
//! prefix, so the open-time repair below truncates them to empty — their
//! keys could never hit again anyway.
//!
//! On open the file is scanned once to build a key → record-span index
//! (last record per key wins); bodies stay on disk and are read on
//! demand, so the tier's memory cost is the index, not the payloads. A
//! torn tail — the daemon was killed mid-append — is truncated back to
//! the last whole record, so the next append starts clean; the repair logs
//! the path and the number of bytes it discarded. Writes go through an
//! append handle and are flushed per record, so a crash loses at most the
//! record being written. [`DiskTier::compact`] rewrites the file with
//! exactly one record per live key (temp file + atomic rename); the
//! service runs it on graceful shutdown so restarts load a dense file.
//!
//! Responses are pure functions of the canonical key, so a key that is
//! already present is never re-appended — the file grows with *distinct*
//! requests, not with traffic.

use crate::faults::{FaultPlane, FaultSite};
use crate::wire::key_hex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// When appended records are fsynced to stable storage. Flushing (which
/// every `put` does) hands the bytes to the OS; only an fsync survives a
/// power loss. `Always` pays one `fdatasync` per new record, `EveryN`
/// amortises it, `Never` trusts the OS page cache (the pre-existing
/// behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync on `put`; an OS crash can lose every record since boot.
    Never,
    /// Fsync after every `n` appended records (must be ≥ 1).
    EveryN(u32),
    /// Fsync after each appended record.
    Always,
}

impl Default for FsyncPolicy {
    /// Fsync every 8 records: bounded loss without a per-record fsync.
    fn default() -> Self {
        FsyncPolicy::EveryN(8)
    }
}

/// First bytes of every record: a NUL, then a human-greppable marker that
/// names the key scheme. Changing the key scheme changes the tag.
const TAG: [u8; 3] = [0x00, b'B', b'3'];

/// Fixed header: 3-byte tag + 8-byte key + 4-byte body length.
const HEADER_LEN: u64 = 15;

/// Byte span of one whole record within the cache file.
#[derive(Debug, Clone, Copy)]
struct Span {
    offset: u64,
    len: u64,
}

/// The persistent result-cache tier behind the in-memory shards.
#[derive(Debug)]
pub struct DiskTier {
    path: PathBuf,
    /// Append handle; all writes are whole flushed records.
    writer: BufWriter<File>,
    /// Independent read handle for on-demand body loads.
    reader: File,
    /// key → span of the latest record for it.
    index: HashMap<u64, Span>,
    /// Where the next append lands (== current file length).
    end: u64,
    /// When appended records are fsynced.
    fsync: FsyncPolicy,
    /// Appends since the last fsync (drives [`FsyncPolicy::EveryN`]).
    unsynced: u32,
    /// Injection probes for chaos tests; disarmed in production.
    faults: FaultPlane,
}

impl DiskTier {
    /// Opens (creating if absent) the cache file at `path` and indexes its
    /// records, with the default fsync policy and a disarmed fault plane.
    /// Everything past the last whole record is truncated, not fatal — a
    /// crash mid-append must not brick the tier.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures (unreachable path, permissions).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<DiskTier> {
        Self::open_with(path, FsyncPolicy::default(), FaultPlane::disarmed())
    }

    /// Opens the tier with an explicit fsync policy and fault plane.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures (unreachable path, permissions).
    pub fn open_with(
        path: impl Into<PathBuf>,
        fsync: FsyncPolicy,
        faults: FaultPlane,
    ) -> io::Result<DiskTier> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let reader = File::open(&path)?;
        let (index, valid_end, file_end) = index_file(&path)?;
        // Repair a torn tail (crash mid-append) or a file from an older
        // build: truncate back to the last whole record so the next append
        // starts a clean one. The repair is fsynced unconditionally — it
        // happens once per boot and losing it would re-tear the tail on
        // the next crash.
        if file_end > valid_end {
            faults.disk_gate(FaultSite::DiskWrite, "torn-tail-repair")?;
            file.set_len(valid_end)?;
            file.sync_data()?;
            eprintln!(
                "batsched-service: disk-cache {}: discarded {} bytes past the last whole record",
                path.display(),
                file_end - valid_end
            );
        }
        Ok(DiskTier {
            path,
            writer: BufWriter::new(file),
            reader,
            index,
            end: valid_end,
            fsync,
            unsynced: 0,
            faults,
        })
    }

    /// The file this tier persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct keys on disk.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Reads the body stored for `key`, if any. A record that no longer
    /// frames (torn by an unclean shutdown mid-compaction) is dropped from
    /// the index and reported as a miss — only real I/O failures are
    /// errors, so the caller's breaker can tell "the disk is sick" apart
    /// from "we never stored that".
    ///
    /// # Errors
    ///
    /// Propagates read failures (and injected [`FaultSite::DiskRead`]
    /// faults).
    pub fn get(&mut self, key: u64) -> io::Result<Option<String>> {
        let Some(span) = self.index.get(&key).copied() else {
            return Ok(None);
        };
        self.faults.disk_gate(FaultSite::DiskRead, &key_hex(key))?;
        match self.read_span(span)? {
            Some((stored, body)) if stored == key => Ok(Some(body)),
            _ => {
                self.index.remove(&key);
                Ok(None)
            }
        }
    }

    /// Persists `body` under `key`. Already-present keys are skipped:
    /// responses are pure functions of the canonical key, so the first
    /// record is as good as any later one.
    ///
    /// # Errors
    ///
    /// Propagates write failures (and injected [`FaultSite::DiskAppend`]
    /// faults), and refuses a body longer than `u32::MAX` bytes; the index
    /// is only updated after the record is flushed.
    pub fn put(&mut self, key: u64, body: &str) -> io::Result<()> {
        if self.index.contains_key(&key) {
            return Ok(());
        }
        self.faults
            .disk_gate(FaultSite::DiskAppend, &key_hex(key))?;
        let record = encode_record(key, body)?;
        self.writer.write_all(&record)?;
        self.writer.flush()?;
        match self.fsync {
            FsyncPolicy::Never => {}
            FsyncPolicy::Always => self.writer.get_ref().sync_data()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.writer.get_ref().sync_data()?;
                    self.unsynced = 0;
                }
            }
        }
        let len = record.len() as u64;
        self.index.insert(
            key,
            Span {
                offset: self.end,
                len,
            },
        );
        self.end += len;
        Ok(())
    }

    /// Rewrites the file with exactly one record per live key, dropping
    /// duplicates and torn records. Writes a sibling temp file first and
    /// renames it over the original, so a crash mid-compaction leaves
    /// either the old file or the new one — never a half file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the original file is untouched.
    pub fn compact(&mut self) -> io::Result<()> {
        self.faults.disk_gate(FaultSite::DiskWrite, "compact")?;
        self.writer.flush()?;
        let tmp_path = self.path.with_extension("compact-tmp");
        let mut new_index = HashMap::with_capacity(self.index.len());
        let mut offset = 0u64;
        {
            let mut tmp = BufWriter::new(File::create(&tmp_path)?);
            let mut keys: Vec<u64> = self.index.keys().copied().collect();
            keys.sort_unstable(); // deterministic file layout
            for key in keys {
                let span = self.index[&key];
                let Some((stored, body)) = self.read_span(span)? else {
                    continue; // torn record: drop it
                };
                if stored != key {
                    continue;
                }
                let record = encode_record(key, &body)?;
                tmp.write_all(&record)?;
                new_index.insert(
                    key,
                    Span {
                        offset,
                        len: record.len() as u64,
                    },
                );
                offset += record.len() as u64;
            }
            tmp.flush()?;
            // Make the data durable before the rename becomes visible:
            // without this, a power loss can persist the directory entry
            // while the new file's blocks are still in the page cache.
            tmp.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen both handles: the rename replaced the inode they pointed at.
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        self.reader = File::open(&self.path)?;
        self.index = new_index;
        self.end = offset;
        self.unsynced = 0;
        Ok(())
    }

    /// Reads one record. I/O failures are errors; a record that no longer
    /// frames is `Ok(None)` (stale index entry, not a sick disk).
    fn read_span(&mut self, span: Span) -> io::Result<Option<(u64, String)>> {
        self.reader.seek(SeekFrom::Start(span.offset))?;
        let mut raw = vec![0u8; span.len as usize];
        if let Err(e) = self.reader.read_exact(&mut raw) {
            // A span past EOF means the file shrank under us (external
            // truncation / torn compaction): a stale entry, not a sick disk.
            return if e.kind() == io::ErrorKind::UnexpectedEof {
                Ok(None)
            } else {
                Err(e)
            };
        }
        Ok(parse_record(&raw))
    }
}

/// Frames one record around `body`, verbatim.
fn encode_record(key: u64, body: &str) -> io::Result<Vec<u8>> {
    let len = u32::try_from(body.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "response body too large for a disk record",
        )
    })?;
    let mut out = Vec::with_capacity(HEADER_LEN as usize + body.len() + 1);
    out.extend_from_slice(&TAG);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(body.as_bytes());
    out.push(b'\n');
    Ok(out)
}

/// Splits a record header into `(key, body length)`; `None` when the tag
/// does not match. All access is checked — disk bytes are untrusted input
/// and must never panic the reading thread.
fn parse_header(header: &[u8]) -> Option<(u64, u32)> {
    if !header.starts_with(&TAG) {
        return None;
    }
    let key = u64::from_le_bytes(header.get(3..11)?.try_into().ok()?);
    let len = u32::from_le_bytes(header.get(11..15)?.try_into().ok()?);
    Some((key, len))
}

/// Parses one whole record, returning its key and body. `None` unless the
/// bytes frame exactly one record holding a UTF-8 body.
fn parse_record(raw: &[u8]) -> Option<(u64, String)> {
    let (key, len) = parse_header(raw)?;
    let body = raw.get(HEADER_LEN as usize..)?.strip_suffix(b"\n")?;
    if body.len() != len as usize {
        return None;
    }
    Some((key, String::from_utf8(body.to_vec()).ok()?))
}

/// Scans the whole file once, returning the last-wins span index, the end
/// of the last whole record (where appends continue once everything past
/// it is truncated), and the file's current length.
///
/// Records are framed by their declared length: a bad tag, an incomplete
/// header or body, or a record that does not end in `\n` stops the scan
/// there, and everything past that point is discarded at open.
fn index_file(path: &Path) -> io::Result<(HashMap<u64, Span>, u64, u64)> {
    let file = File::open(path)?;
    let file_end = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut index = HashMap::new();
    let mut offset = 0u64;
    let mut header = [0u8; HEADER_LEN as usize];
    while offset < file_end {
        if reader.read_exact(&mut header).is_err() {
            break;
        }
        let Some((key, body_len)) = parse_header(&header) else {
            break;
        };
        let span = Span {
            offset,
            len: HEADER_LEN + u64::from(body_len) + 1,
        };
        if span.len > file_end - offset {
            break;
        }
        // Skip the body unread and check only its closing newline; `get`
        // re-frames the whole record on demand.
        reader.seek_relative(i64::from(body_len))?;
        let mut newline = [0u8; 1];
        if reader.read_exact(&mut newline).is_err() || newline != [b'\n'] {
            break;
        }
        index.insert(key, span);
        offset += span.len;
    }
    Ok((index, offset, file_end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("batsched_disk_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let p = dir.join(format!("{name}_{}.records", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// A response body shaped like the ones the service stores.
    const RESPONSE_JSON: &str = r#"{"v":1,"key":"00aabbccddeeff11","model":"rv","order":[0,2,1],"assignment":[1,0,3],"sigma":1234.5678,"makespan":74.9,"deadline":75,"direct_charge":1111.25,"model_cost":1300.0625,"survives":true,"lifetime":null,"iterations":12}"#;

    #[test]
    fn put_get_and_reload_round_trip() {
        let path = tmp_path("round_trip");
        let mut t = DiskTier::open(&path).unwrap();
        assert!(t.is_empty());
        t.put(1, "{\"answer\":42}").unwrap();
        t.put(2, "two\nlines \"quoted\" é").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1).unwrap().as_deref(), Some("{\"answer\":42}"));
        assert_eq!(
            t.get(2).unwrap().as_deref(),
            Some("two\nlines \"quoted\" é")
        );
        assert_eq!(t.get(3).unwrap(), None);
        drop(t);

        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.get(2).unwrap().as_deref(),
            Some("two\nlines \"quoted\" é")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn existing_keys_are_not_reappended() {
        let path = tmp_path("no_reappend");
        let mut t = DiskTier::open(&path).unwrap();
        t.put(7, "first").unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        t.put(7, "second").unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        assert_eq!(t.get(7).unwrap().as_deref(), Some("first"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_truncated_and_earlier_records_survive() {
        let path = tmp_path("torn");
        let mut t = DiskTier::open(&path).unwrap();
        t.put(1, "one").unwrap();
        t.put(2, "two").unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        drop(t);
        // Simulate a crash mid-append: half a record, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"key\":\"00000000000000").unwrap();
        }
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.len(), 2, "torn line dropped");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail truncated back to the last whole record"
        );
        assert_eq!(t.get(1).unwrap().as_deref(), Some("one"));
        // New appends land where the torn bytes were and still read back.
        t.put(3, "three").unwrap();
        assert_eq!(t.get(3).unwrap().as_deref(), Some("three"));
        drop(t);
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(3).unwrap().as_deref(), Some("three"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_record_is_truncated_at_every_cut() {
        let path = tmp_path("torn_record");
        let mut t = DiskTier::open(&path).unwrap();
        t.put(1, "plain body").unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let record = encode_record(2, RESPONSE_JSON).unwrap();
        drop(t);
        // Append every strict prefix of a record and confirm open()
        // truncates back to the clean boundary instead of mis-framing.
        for cut in 1..record.len() {
            {
                let mut f = OpenOptions::new().append(true).open(&path).unwrap();
                f.write_all(&record[..cut]).unwrap();
            }
            let mut t = DiskTier::open(&path).unwrap();
            assert_eq!(t.len(), 1, "cut {cut}: torn record dropped");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                clean_len,
                "cut {cut}: truncated"
            );
            assert_eq!(t.get(1).unwrap().as_deref(), Some("plain body"));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_dedups_and_drops_dead_bytes() {
        let path = tmp_path("compact");
        let mut t = DiskTier::open(&path).unwrap();
        for k in 0..8u64 {
            t.put(k, &format!("body-{k}")).unwrap();
        }
        // Dead bytes from a torn append.
        t.writer.get_mut().write_all(b"garbage no newline").unwrap();
        t.writer.get_mut().flush().unwrap();
        t.end += "garbage no newline".len() as u64;
        t.compact().unwrap();
        assert_eq!(t.len(), 8);
        for k in 0..8u64 {
            assert_eq!(
                t.get(k).unwrap().as_deref(),
                Some(format!("body-{k}").as_str())
            );
        }
        // Appending after compaction still works and reloads.
        t.put(99, "after").unwrap();
        drop(t);
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.len(), 9);
        assert_eq!(t.get(99).unwrap().as_deref(), Some("after"));
        assert_eq!(t.get(0).unwrap().as_deref(), Some("body-0"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_replay_bit_identically_and_reload() {
        let path = tmp_path("replay");
        let mut t = DiskTier::open(&path).unwrap();
        t.put(5, RESPONSE_JSON).unwrap();
        // The file holds exactly one frame: header, the body verbatim, `\n`.
        let mut expected = TAG.to_vec();
        expected.extend_from_slice(&5u64.to_le_bytes());
        expected.extend_from_slice(&(RESPONSE_JSON.len() as u32).to_le_bytes());
        expected.extend_from_slice(RESPONSE_JSON.as_bytes());
        expected.push(b'\n');
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!(t.get(5).unwrap().as_deref(), Some(RESPONSE_JSON));
        drop(t);
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.get(5).unwrap().as_deref(), Some(RESPONSE_JSON));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hostile_bodies_round_trip_verbatim() {
        let path = tmp_path("hostile");
        let mut t = DiskTier::open(&path).unwrap();
        // A body that itself looks like a record tag plus newlines.
        let hostile = "\u{0}B3 not json \n weird";
        t.put(9, hostile).unwrap();
        assert_eq!(t.get(9).unwrap().as_deref(), Some(hostile));
        drop(t);
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.get(9).unwrap().as_deref(), Some(hostile));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_file_from_an_older_build_is_discarded_at_open() {
        let path = tmp_path("older_build");
        // A JSONL line followed by a `\0B2` record, both keyed by an
        // earlier key scheme.
        let mut old = b"{\"key\":\"0000000000000001\",\"body\":\"free-form\"}\n".to_vec();
        old.extend_from_slice(&[0x00, b'B', b'2']);
        old.extend_from_slice(&2u64.to_le_bytes());
        old.extend_from_slice(&4u32.to_le_bytes());
        old.extend_from_slice(b"blob\n");
        std::fs::write(&path, &old).unwrap();
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.len(), 0, "no record of an older scheme is indexed");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "truncated");
        t.put(3, RESPONSE_JSON).unwrap();
        drop(t);
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(3).unwrap().as_deref(), Some(RESPONSE_JSON));
        std::fs::remove_file(&path).unwrap();
    }
}
