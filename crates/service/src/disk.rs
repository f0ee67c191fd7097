//! The disk cache tier: an append-only file of `{key, body}` records so a
//! restarted daemon serves previously computed answers as warm hits.
//!
//! Two record formats coexist in one file, distinguished by the first
//! byte of each record:
//!
//! * **v2** (binary, what `put` writes): `0x00 'B' '2'` tag, key as 8 LE
//!   bytes, blob length as 4 LE bytes, then the [`crate::wire_bin`]
//!   response encoding, terminated by `\n`. v2 records are materially
//!   smaller and index without parsing any JSON, shrinking both the file
//!   and the load-on-start scan;
//! * **v1** (JSONL): one line per record,
//!   `{"key":"<16-hex>","body":"<response>"}` — always starts with `{`.
//!   Files from releases that wrote only v1 still load, and bodies that
//!   cannot be stored as v2 are written this way. A raw `0x00` can never
//!   open a valid v1 line (JSON escapes control bytes), so the dispatch is
//!   unambiguous.
//!
//! On open the file is scanned once to build a key → record-span index
//! (last record per key wins); bodies stay on disk and are read on
//! demand, so the tier's memory cost is the index, not the payloads. A
//! torn tail — the daemon was killed mid-append — is truncated back to
//! the last whole record, so the next append starts clean. Writes go
//! through an append handle and are flushed per record, so a crash loses
//! at most the record being written. [`DiskTier::compact`] rewrites the
//! file with exactly one record per live key (temp file + atomic rename)
//! the way `put` writes them, so compaction upgrades v1 response records
//! to v2; the service runs it on graceful shutdown so restarts load a
//! dense file.
//!
//! A v2 record only stores bodies that survive a decode→re-render
//! bit-identity check (the cache contract is bit-identical replay);
//! anything else — hostile or free-form bodies included — falls back to a
//! v1 line, which stores arbitrary strings.
//!
//! Responses are pure functions of the canonical key, so a key that is
//! already present is never re-appended — the file grows with *distinct*
//! requests, not with traffic.

use crate::faults::{FaultPlane, FaultSite};
use crate::wire::{key_hex, ScheduleResponse};
use crate::wire_bin;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
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

/// First bytes of a v2 record: a byte no valid JSON line can start with,
/// then a human-greppable format marker.
const V2_TAG: [u8; 3] = [0x00, b'B', b'2'];

/// v2 fixed header: 3-byte tag + 8-byte key + 4-byte blob length.
const V2_HEADER_LEN: usize = 15;

/// One persisted cache record (a single JSONL line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DiskRecord {
    /// Canonical content hash, 16 hex digits (the response `key` format).
    key: String,
    /// The complete serialised response body, replayed bit-identically.
    body: String,
}

/// Byte span of one record line within the cache file.
#[derive(Debug, Clone, Copy)]
struct Span {
    offset: u64,
    len: u32,
}

/// The persistent result-cache tier behind the in-memory shards.
#[derive(Debug)]
pub struct DiskTier {
    path: PathBuf,
    /// Append handle; all writes are whole flushed lines.
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
    /// Malformed or truncated records are skipped, not fatal — a crash
    /// mid-append must not brick the tier.
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
        // Repair a torn tail (crash mid-append): truncate back to the last
        // whole record so the next append starts a clean one. The repair
        // is fsynced unconditionally — it happens once per boot and losing
        // it would re-tear the tail on the next crash.
        if file_end > valid_end {
            faults.disk_gate(FaultSite::DiskWrite, "torn-tail-repair")?;
            file.set_len(valid_end)?;
            file.sync_data()?;
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
    /// parses (torn by an unclean shutdown mid-compaction) is dropped from
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
    /// faults); the index is only updated after the record is flushed.
    pub fn put(&mut self, key: u64, body: &str) -> io::Result<()> {
        if self.index.contains_key(&key) {
            return Ok(());
        }
        self.faults
            .disk_gate(FaultSite::DiskAppend, &key_hex(key))?;
        let record = encode_record(key, body);
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
        self.index.insert(
            key,
            Span {
                offset: self.end,
                len: record.len() as u32,
            },
        );
        self.end += record.len() as u64;
        Ok(())
    }

    /// Rewrites the file with exactly one record per live key, dropping
    /// duplicates and torn records, each re-encoded the way `put` writes
    /// it — so compaction upgrades v1 response lines to v2 in place.
    /// Writes a sibling temp file first and renames it over the original,
    /// so a crash mid-compaction leaves either the old file or the new
    /// one — never a half file.
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
                let record = encode_record(key, &body);
                tmp.write_all(&record)?;
                new_index.insert(
                    key,
                    Span {
                        offset,
                        len: record.len() as u32,
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

    /// Reads one record (either format). I/O failures are errors; a record
    /// that no longer parses is `Ok(None)` (stale index entry, not a sick
    /// disk).
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

/// Renders one record. V2 only stores bodies that replay bit-identically
/// through the binary response codec (decode→re-render must reproduce
/// `body` exactly); anything else falls back to a v1 line, which can hold
/// an arbitrary string.
fn encode_record(key: u64, body: &str) -> Vec<u8> {
    if let Ok(resp) = serde_json::from_str::<ScheduleResponse>(body) {
        if serde_json::to_string(&resp).as_deref() == Ok(body) {
            let blob = wire_bin::encode_response(&resp);
            let mut out = Vec::with_capacity(V2_HEADER_LEN + blob.len() + 1);
            out.extend_from_slice(&V2_TAG);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            out.extend_from_slice(&blob);
            out.push(b'\n');
            return out;
        }
    }
    v1_line(key, body)
}

/// Renders one v1 (JSONL) record line.
fn v1_line(key: u64, body: &str) -> Vec<u8> {
    let rec = DiskRecord {
        key: key_hex(key),
        body: body.to_string(),
    };
    // lint:allow(panic-path): serialising DiskRecord (two owned strings) cannot
    // fail; this runs before the bytes ever reach the append path.
    let mut line = serde_json::to_string(&rec).expect("records serialise");
    line.push('\n');
    line.into_bytes()
}

/// Splits a v2 record header into `(key, blob length)`; `None` when the
/// tag does not match. All access is checked — disk bytes are untrusted
/// input and must never panic the reading thread.
fn parse_v2_header(header: &[u8]) -> Option<(u64, u64)> {
    if !header.starts_with(&V2_TAG) {
        return None;
    }
    let key = u64::from_le_bytes(header.get(3..11)?.try_into().ok()?);
    let len = u64::from(u32::from_le_bytes(header.get(11..15)?.try_into().ok()?));
    Some((key, len))
}

/// Parses one whole record in either format, returning its key and the
/// body as the canonical JSON string the cache replays.
fn parse_record(raw: &[u8]) -> Option<(u64, String)> {
    if raw.first() == Some(&0u8) {
        if raw.len() < V2_HEADER_LEN + 1 || raw.last() != Some(&b'\n') {
            return None;
        }
        let (key, len) = parse_v2_header(raw.get(..V2_HEADER_LEN)?)?;
        let len = len as usize;
        if raw.len() != V2_HEADER_LEN + len + 1 {
            return None;
        }
        let resp = wire_bin::decode_response(raw.get(V2_HEADER_LEN..V2_HEADER_LEN + len)?).ok()?;
        Some((key, serde_json::to_string(&resp).ok()?))
    } else {
        let line = std::str::from_utf8(raw).ok()?;
        let rec: DiskRecord = serde_json::from_str(line.trim_end()).ok()?;
        Some((u64::from_str_radix(&rec.key, 16).ok()?, rec.body))
    }
}

/// Scans the whole file once, returning the last-wins span index, the end
/// of the last whole record (where appends continue after the torn tail,
/// if any, is truncated), and the file's current length.
///
/// v1 lines are framed by `\n`; a malformed-but-terminated line mid-file
/// is skipped and scanning continues. v2 records are framed by their
/// declared length; an incomplete header/blob or a record that does not
/// end in `\n` (torn append) stops the scan there, as does a v1 tail with
/// no `\n` — everything past that point is the torn tail.
fn index_file(path: &Path) -> io::Result<(HashMap<u64, Span>, u64, u64)> {
    let file = File::open(path)?;
    let file_end = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut index = HashMap::new();
    let mut offset = 0u64;
    let mut raw = Vec::new();
    loop {
        let first = {
            let buf = reader.fill_buf()?;
            match buf.first() {
                Some(&b) => b,
                None => break,
            }
        };
        if first == 0x00 {
            // v2: fixed header, then a length-framed blob + newline. Any
            // framing shortfall is a torn tail — stop scanning here.
            let mut header = [0u8; V2_HEADER_LEN];
            if reader.read_exact(&mut header).is_err() {
                break;
            }
            let Some((key, len)) = parse_v2_header(&header) else {
                break;
            };
            let remaining = file_end - offset - V2_HEADER_LEN as u64;
            if len + 1 > remaining {
                break;
            }
            raw.resize(len as usize + 1, 0);
            if reader.read_exact(&mut raw).is_err() || raw.last() != Some(&b'\n') {
                break;
            }
            let total = V2_HEADER_LEN as u64 + len + 1;
            index.insert(
                key,
                Span {
                    offset,
                    len: total as u32,
                },
            );
            offset += total;
        } else {
            raw.clear();
            let n = reader.read_until(b'\n', &mut raw)?;
            if n == 0 || raw.last() != Some(&b'\n') {
                break;
            }
            if let Some(key) = parse_line_key(&raw) {
                index.insert(
                    key,
                    Span {
                        offset,
                        len: n as u32,
                    },
                );
            }
            offset += n as u64;
        }
    }
    Ok((index, offset, file_end))
}

/// Parses just the key out of a v1 record line (the body is left on disk).
fn parse_line_key(raw: &[u8]) -> Option<u64> {
    let line = std::str::from_utf8(raw).ok()?;
    let rec: DiskRecord = serde_json::from_str(line.trim_end()).ok()?;
    u64::from_str_radix(&rec.key, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("batsched_disk_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let p = dir.join(format!("{name}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// A canonical response body: round-trips bit-identically through
    /// serde, so `put` stores it as a binary record.
    fn sample_response_json() -> String {
        let resp = ScheduleResponse {
            v: 1,
            key: "00aabbccddeeff11".into(),
            model: "rv".into(),
            order: vec![0, 2, 1],
            assignment: vec![1, 0, 3],
            sigma: 1234.5678,
            makespan: 74.9,
            deadline: 75.0,
            direct_charge: 1111.25,
            model_cost: 1300.0625,
            survives: Some(true),
            lifetime: None,
            iterations: 12,
        };
        serde_json::to_string(&resp).unwrap()
    }

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
    fn torn_v2_record_is_truncated_at_every_cut() {
        let path = tmp_path("torn_v2");
        let resp_json = sample_response_json();
        let mut t = DiskTier::open(&path).unwrap();
        t.put(1, "plain v1 body").unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let record = encode_record(2, &resp_json);
        assert_eq!(record[..3], V2_TAG, "fixture must be a real v2 record");
        drop(t);
        // Append every strict prefix of a v2 record and confirm open()
        // truncates back to the clean boundary instead of mis-framing.
        for cut in 1..record.len() {
            {
                let mut f = OpenOptions::new().append(true).open(&path).unwrap();
                f.write_all(&record[..cut]).unwrap();
            }
            let mut t = DiskTier::open(&path).unwrap();
            assert_eq!(t.len(), 1, "cut {cut}: torn v2 record dropped");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                clean_len,
                "cut {cut}: truncated"
            );
            assert_eq!(t.get(1).unwrap().as_deref(), Some("plain v1 body"));
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
    fn v2_records_replay_bit_identically_and_reload() {
        let path = tmp_path("v2_round_trip");
        let body = sample_response_json();
        let mut t = DiskTier::open(&path).unwrap();
        t.put(5, &body).unwrap();
        // The record on disk really is binary, and smaller than the JSONL
        // line the v1 format would have written.
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(raw[..3], V2_TAG);
        assert!(raw.len() < v1_line(5, &body).len());
        assert_eq!(t.get(5).unwrap().as_deref(), Some(body.as_str()));
        drop(t);
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.get(5).unwrap().as_deref(), Some(body.as_str()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_put_falls_back_to_v1_for_non_response_bodies() {
        let path = tmp_path("v2_fallback");
        let mut t = DiskTier::open(&path).unwrap();
        // Not a ScheduleResponse — must still round-trip exactly via v1.
        let hostile = "\u{0}B2 not json \n weird";
        t.put(9, hostile).unwrap();
        assert_eq!(t.get(9).unwrap().as_deref(), Some(hostile));
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(raw[0], b'{', "fallback record is a v1 JSONL line");
        drop(t);
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.get(9).unwrap().as_deref(), Some(hostile));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mixed_v1_v2_file_loads_and_compaction_upgrades_bit_identically() {
        let path = tmp_path("v1_upgrade");
        let body = sample_response_json();
        // Write a v1 response line and a free-form v1 body by hand, the
        // way a release that wrote only v1 would have left the file.
        let mut legacy = v1_line(1, &body);
        legacy.extend(v1_line(2, "free-form"));
        std::fs::write(&path, &legacy).unwrap();
        let mut t = DiskTier::open(&path).unwrap();
        t.put(3, &body).unwrap(); // lands as v2 in the same file
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(1).unwrap().as_deref(), Some(body.as_str()));
        assert_eq!(t.get(2).unwrap().as_deref(), Some("free-form"));
        assert_eq!(t.get(3).unwrap().as_deref(), Some(body.as_str()));
        let before = std::fs::metadata(&path).unwrap().len();
        // Compaction upgrades the v1 response record; bodies replay
        // bit-identically afterwards and the file shrinks.
        t.compact().unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        assert_eq!(t.get(1).unwrap().as_deref(), Some(body.as_str()));
        assert_eq!(t.get(2).unwrap().as_deref(), Some("free-form"));
        assert_eq!(t.get(3).unwrap().as_deref(), Some(body.as_str()));
        drop(t);
        let mut t = DiskTier::open(&path).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(1).unwrap().as_deref(), Some(body.as_str()));
        assert_eq!(t.get(2).unwrap().as_deref(), Some("free-form"));
        std::fs::remove_file(&path).unwrap();
    }
}
