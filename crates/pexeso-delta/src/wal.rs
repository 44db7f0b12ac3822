//! The write-ahead delta log of a deployed lake.
//!
//! A deployment directory built by `build_lake_index` is immutable between
//! re-indexes: `part_*.pex` files plus a versioned `manifest.txt`. The
//! delta log (`delta.log`) is the one append-only file that grows between
//! builds. It records every change since the base build — new columns with
//! their embedded vectors, and drop-table tombstones — so that
//!
//! * an ingest is one cheap append instead of a full re-embed/re-partition,
//! * a [`crate::DeltaLake`] (or a serving daemon) can replay the log into
//!   an in-memory overlay and answer queries exactly as a full rebuild
//!   would, and
//! * compaction can fold the log into fresh base partitions and discard it.
//!
//! ## Format
//!
//! Everything is little-endian, in the primitives of
//! [`pexeso_core::codec`]. The file opens with a checksummed header
//! binding the log to one specific base build:
//!
//! ```text
//! magic "PXDELTA1" · u32 format version · str metric (≤ 64 bytes) ·
//! u32 dim · u64 base_index_version · u64 fnv64(header bytes)
//! ```
//!
//! followed by zero or more length-prefixed, individually checksummed
//! records of at most `MAX_RECORD_BYTES`:
//!
//! ```text
//! u32 payload_len · payload · u64 fnv64(payload)
//! payload = u8 1 · str table · str column · u64 external_id ·
//!             u32 float count · f32s                        (AddColumn)
//!         | u8 2 · str table                                (DropTable)
//! ```
//!
//! Names are at most [`MAX_NAME_BYTES`] long.
//!
//! Per-record checksums make the failure mode of a torn append precise: a
//! truncated or bit-flipped tail fails with a typed
//! [`PexesoError::Corrupt`] naming the record, never a panic.
//!
//! `base_index_version` is the crash-safety hinge of compaction: the
//! manifest version bump and the log deletion cannot be atomic together,
//! so compaction bumps the manifest *first*. A log whose header names an
//! older `index_version` than the manifest has therefore already been
//! folded into the base and is stale — readers ignore (and may delete)
//! it instead of double-applying its records.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use pexeso_core::codec::{fnv64, read_len_prefix, Dec, Enc, MAX_NAME_BYTES};
use pexeso_core::column::ColumnSet;
use pexeso_core::error::{PexesoError, Result};
use pexeso_core::fault;
use pexeso_core::hist;
use pexeso_core::outofcore::LakeManifest;

const MAGIC: &[u8; 8] = b"PXDELTA1";
const FORMAT_VERSION: u32 = 1;
/// Longest metric name a header may carry.
const MAX_METRIC_BYTES: u32 = 64;

const REC_ADD_COLUMN: u8 = 1;
const REC_DROP_TABLE: u8 = 2;

/// Location of the delta log inside a deployment directory.
pub fn delta_log_path(dir: &Path) -> PathBuf {
    dir.join("delta.log")
}

/// One entry of the delta log.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaRecord {
    /// A new column (one table's key column in the standard pipeline),
    /// already embedded: ingest pays the embedding once, every replayer
    /// gets the exact same `f32` bits a full rebuild would have produced.
    AddColumn {
        table_name: String,
        column_name: String,
        /// Caller-stable global id; must not collide with any base or
        /// previously-logged column (ingest allocates from the manifest's
        /// `next_external_id` high-water mark).
        external_id: u64,
        /// Row-major embedded vectors, `len = n · dim` with the header's
        /// dim.
        vectors: Vec<f32>,
    },
    /// Tombstone: every column of this table — in the base build and in
    /// any *earlier* log record — is dead. A later `AddColumn` for the
    /// same table name starts a fresh life (the base stays tombstoned;
    /// only the re-added delta column is live).
    DropTable { table_name: String },
}

/// The header binding a log to one base build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHeader {
    pub format_version: u32,
    /// Metric name of the base build; delta vectors are only meaningful
    /// under the same metric.
    pub metric: String,
    /// Embedding dimensionality of every `AddColumn` record.
    pub dim: u32,
    /// `index_version` of the manifest this log applies on top of.
    pub base_index_version: u64,
}

/// A fully-read delta log: header plus records in append order.
#[derive(Debug, Clone, PartialEq)]
pub struct LogContents {
    pub header: LogHeader,
    pub records: Vec<DeltaRecord>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_header(h: &LogHeader) -> Vec<u8> {
    let mut w = Enc::new();
    w.bytes(MAGIC);
    w.u32(h.format_version);
    w.str(&h.metric);
    w.u32(h.dim);
    w.u64(h.base_index_version);
    let checksum = fnv64(w.as_bytes());
    w.u64(checksum);
    w.into_bytes()
}

/// Exact payload size [`encode_record`] will produce — computed without
/// materializing the frame, so the write-side cap check costs nothing.
fn record_payload_len(rec: &DeltaRecord) -> usize {
    match rec {
        DeltaRecord::AddColumn {
            table_name,
            column_name,
            vectors,
            ..
        } => 1 + (4 + table_name.len()) + (4 + column_name.len()) + 8 + 4 + vectors.len() * 4,
        DeltaRecord::DropTable { table_name } => 1 + 4 + table_name.len(),
    }
}

/// One framed record: `u32` payload length, payload, `fnv64(payload)`.
fn encode_record(rec: &DeltaRecord) -> Vec<u8> {
    let len = record_payload_len(rec);
    let mut w = Enc::with_capacity(4 + len + 8);
    w.u32(len as u32);
    match rec {
        DeltaRecord::AddColumn {
            table_name,
            column_name,
            external_id,
            vectors,
        } => {
            w.u8(REC_ADD_COLUMN);
            w.str(table_name);
            w.str(column_name);
            w.u64(*external_id);
            w.u32(vectors.len() as u32);
            w.f32s(vectors);
        }
        DeltaRecord::DropTable { table_name } => {
            w.u8(REC_DROP_TABLE);
            w.str(table_name);
        }
    }
    let payload = &w.as_bytes()[4..];
    debug_assert_eq!(payload.len(), len);
    let checksum = fnv64(payload);
    w.u64(checksum);
    w.into_bytes()
}

fn decode_record(payload: &[u8], dim: u32) -> Result<DeltaRecord> {
    let mut r = Dec::new(payload);
    let rec = match r.u8()? {
        REC_ADD_COLUMN => {
            let table_name = r.str(MAX_NAME_BYTES)?;
            let column_name = r.str(MAX_NAME_BYTES)?;
            let external_id = r.u64()?;
            let n_floats = r.u32()? as usize;
            if dim == 0 || !n_floats.is_multiple_of(dim as usize) {
                return Err(PexesoError::Corrupt(format!(
                    "delta record vector length {n_floats} is not a multiple of dim {dim}"
                )));
            }
            DeltaRecord::AddColumn {
                table_name,
                column_name,
                external_id,
                vectors: r.f32_vec(n_floats)?,
            }
        }
        REC_DROP_TABLE => DeltaRecord::DropTable {
            table_name: r.str(MAX_NAME_BYTES)?,
        },
        t => {
            return Err(PexesoError::Corrupt(format!(
                "unknown delta record tag {t}"
            )))
        }
    };
    r.finish()?;
    Ok(rec)
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Hard cap on one record, enforced on **both** sides: readers treat a
/// larger length prefix as garbage framing, and [`append_records`]
/// refuses to write a record it knows every reader would reject — an
/// oversized ingest must fail the one request, not permanently brick
/// the log behind an acknowledged append.
pub(crate) const MAX_RECORD_BYTES: u32 = 256 << 20;

fn read_exact_or(src: &mut impl Read, buf: &mut [u8], what: &str) -> Result<()> {
    src.read_exact(buf)
        .map_err(|e| PexesoError::Corrupt(format!("truncated delta log ({what}): {e}")))
}

/// Read exactly the header's bytes: the fixed part up to the metric
/// length first, then the rest that length sizes.
fn read_header(src: &mut impl Read) -> Result<LogHeader> {
    const FIXED: usize = 8 + 4 + 4;
    let mut buf = vec![0u8; FIXED];
    read_exact_or(src, &mut buf, "header")?;
    let mut r = Dec::new(&buf);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(PexesoError::Corrupt("bad delta log magic".into()));
    }
    let format_version = r.u32()?;
    if format_version != FORMAT_VERSION {
        return Err(PexesoError::Corrupt(format!(
            "unsupported delta log format version {format_version}"
        )));
    }
    let metric_len = r.u32()?;
    if metric_len > MAX_METRIC_BYTES {
        return Err(PexesoError::Corrupt(format!(
            "delta log metric name of {metric_len} bytes"
        )));
    }
    buf.resize(FIXED + metric_len as usize + 4 + 8 + 8, 0);
    read_exact_or(src, &mut buf[FIXED..], "header")?;
    let mut r = Dec::new(&buf[FIXED - 4..]); // from the metric's length on
    let metric = r.str(MAX_METRIC_BYTES)?;
    let dim = r.u32()?;
    let base_index_version = r.u64()?;
    if r.u64()? != fnv64(&buf[..buf.len() - 8]) {
        return Err(PexesoError::Corrupt(
            "delta log header checksum mismatch".into(),
        ));
    }
    if dim == 0 {
        return Err(PexesoError::Corrupt(
            "delta log dim must be positive".into(),
        ));
    }
    Ok(LogHeader {
        format_version,
        metric,
        dim,
        base_index_version,
    })
}

/// Read framed records up to a clean end of log; the first damaged record
/// is the error.
fn read_records(src: &mut impl Read, dim: u32) -> Result<Vec<DeltaRecord>> {
    let mut records = Vec::new();
    while let Some(rec) = read_record(src, dim, records.len())? {
        records.push(rec);
    }
    Ok(records)
}

fn read_record(src: &mut impl Read, dim: u32, i: usize) -> Result<Option<DeltaRecord>> {
    let Some(len) = read_len_prefix::<PexesoError>(src)? else {
        return Ok(None); // clean end of log
    };
    if len > MAX_RECORD_BYTES {
        return Err(PexesoError::Corrupt(format!(
            "delta record {i} of {len} bytes exceeds cap {MAX_RECORD_BYTES}"
        )));
    }
    let mut frame = vec![0u8; len as usize + 8];
    read_exact_or(src, &mut frame, &format!("record {i}"))?;
    let mut r = Dec::new(&frame);
    let payload = r.bytes(len as usize)?;
    if r.u64()? != fnv64(payload) {
        return Err(PexesoError::Corrupt(format!(
            "delta record {i} checksum mismatch"
        )));
    }
    decode_record(payload, dim).map(Some)
}

/// Open `dir`'s delta log and read its header; `Ok(None)` when no log
/// exists.
fn open_log(dir: &Path) -> Result<Option<(LogHeader, BufReader<File>)>> {
    let file = match File::open(delta_log_path(dir)) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PexesoError::Io(e)),
    };
    let mut src = BufReader::new(file);
    Ok(Some((read_header(&mut src)?, src)))
}

/// Read only `dir`'s delta log header — cheap (a few dozen bytes) no
/// matter how large the log has grown. `Ok(None)` when no log exists.
/// This is the validation [`append_records`] runs, so repeated ingests
/// stay O(records appended), not O(log size).
pub(crate) fn read_log_header(dir: &Path) -> Result<Option<LogHeader>> {
    Ok(open_log(dir)?.map(|(header, _)| header))
}

/// Read `dir`'s delta log in full. `Ok(None)` when no log exists; a log
/// that exists but is damaged anywhere — header or any record — is a
/// typed [`PexesoError::Corrupt`] (strict mode: replayers must not
/// silently serve a partial view of an ingest they cannot prove complete).
pub fn read_log(dir: &Path) -> Result<Option<LogContents>> {
    fault::check("wal.read.open")?;
    let Some((header, mut src)) = open_log(dir)? else {
        return Ok(None);
    };
    let records = read_records(&mut src, header.dim)?;
    Ok(Some(LogContents { header, records }))
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Validate that an existing log belongs to `manifest`'s build. A log
/// whose `base_index_version` is *older* than the manifest has been
/// compacted into the base already (the crash window between the manifest
/// bump and the log deletion): the caller should treat it as absent. A
/// *newer* version — or a metric/dim mismatch — means directories were
/// mixed up, which is corruption, not staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogStatus {
    /// Header matches the manifest; records apply.
    Current,
    /// Log predates the manifest's build: already folded in, ignore it.
    Stale,
}

pub fn check_header(header: &LogHeader, manifest: &LakeManifest) -> Result<LogStatus> {
    if header.metric != manifest.metric {
        return Err(PexesoError::Corrupt(format!(
            "delta log metric '{}' does not match manifest metric '{}'",
            header.metric, manifest.metric
        )));
    }
    if header.dim as usize != manifest.dim {
        return Err(PexesoError::Corrupt(format!(
            "delta log dim {} does not match manifest dim {}",
            header.dim, manifest.dim
        )));
    }
    match header.base_index_version.cmp(&manifest.index_version) {
        std::cmp::Ordering::Equal => Ok(LogStatus::Current),
        std::cmp::Ordering::Less => Ok(LogStatus::Stale),
        std::cmp::Ordering::Greater => Err(PexesoError::Corrupt(format!(
            "delta log names base build {} but the manifest is at {} — \
             the log belongs to a different deployment",
            header.base_index_version, manifest.index_version
        ))),
    }
}

/// Append `records` to `dir`'s delta log, creating the log (with a header
/// stamped from `manifest`) when none exists. An existing log's *header*
/// is validated first (cheap — the body is the reader's job, and the
/// ingest path strict-reads it under the same maintenance lock anyway):
/// appending to a stale or foreign log is refused, and so is any record
/// larger than `MAX_RECORD_BYTES` or carrying a name longer than
/// [`MAX_NAME_BYTES`] — acknowledging a record every reader would reject
/// would brick the log. Appends are flushed and fsynced before returning
/// — an acknowledged ingest survives a crash.
pub fn append_records(dir: &Path, manifest: &LakeManifest, records: &[DeltaRecord]) -> Result<()> {
    let path = delta_log_path(dir);
    let existing = match read_log_header(dir)? {
        Some(header) => match check_header(&header, manifest)? {
            LogStatus::Current => true,
            LogStatus::Stale => {
                return Err(PexesoError::InvalidParameter(format!(
                    "delta log is stale (base build {} vs manifest {}); \
                     remove it or re-open the lake before ingesting",
                    header.base_index_version, manifest.index_version
                )))
            }
        },
        None => false,
    };
    for (i, rec) in records.iter().enumerate() {
        let longest_name = match rec {
            DeltaRecord::AddColumn {
                table_name,
                column_name,
                ..
            } => table_name.len().max(column_name.len()),
            DeltaRecord::DropTable { table_name } => table_name.len(),
        };
        if longest_name > MAX_NAME_BYTES as usize {
            return Err(PexesoError::InvalidParameter(format!(
                "delta record {i} carries a name of {longest_name} bytes, over \
                 the {MAX_NAME_BYTES}-byte name limit"
            )));
        }
        let payload_len = record_payload_len(rec);
        if payload_len > MAX_RECORD_BYTES as usize {
            return Err(PexesoError::InvalidParameter(format!(
                "delta record {i} is {payload_len} bytes, over the \
                 {MAX_RECORD_BYTES}-byte record cap; ingest smaller batches \
                 (or rebuild the deployment for bulk loads)"
            )));
        }
    }
    let encoded: Vec<Vec<u8>> = records.iter().map(encode_record).collect();
    let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
    if !existing {
        // A fresh log: the file may still hold garbage from a failed
        // previous creation (read_log_header above would have errored and
        // we would not be here) — truncate defensively before the header.
        file.set_len(0)?;
        file.seek(SeekFrom::End(0))?;
        fault::write_all(
            &mut file,
            &encode_header(&LogHeader {
                format_version: FORMAT_VERSION,
                metric: manifest.metric.clone(),
                dim: manifest.dim as u32,
                base_index_version: manifest.index_version,
            }),
            "wal.append.header",
        )?;
    }
    let append_start = Instant::now();
    let mut w = BufWriter::new(&mut file);
    for frame in &encoded {
        fault::write_all(&mut w, frame, "wal.append.record")?;
    }
    w.flush()?;
    drop(w);
    hist::global::WAL_APPEND.record_duration(append_start.elapsed());
    fault::check("wal.append.fsync")?;
    let fsync_start = Instant::now();
    file.sync_all()?;
    hist::global::WAL_FSYNC.record_duration(fsync_start.elapsed());
    Ok(())
}

/// Delete `dir`'s delta log (the final step of compaction). Missing log
/// is fine — deletion is idempotent.
pub fn remove_log(dir: &Path) -> Result<()> {
    match std::fs::remove_file(delta_log_path(dir)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(PexesoError::Io(e)),
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// One live delta column after replay.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaColumn {
    pub table_name: String,
    pub column_name: String,
    pub external_id: u64,
    pub vectors: Vec<f32>,
}

/// The net effect of a delta log: replaying the records in order is a
/// pure function of the log, so replaying twice (or re-reading the file)
/// always lands on the same state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaState {
    /// Columns added and not subsequently dropped, in first-add order.
    pub live: Vec<DeltaColumn>,
    /// Every table name ever dropped. The base build's columns under
    /// these names are dead; delta columns re-added *after* the drop are
    /// live (they sit in `live`).
    pub dropped_tables: HashSet<String>,
    /// Records replayed (for operator counters).
    pub n_records: usize,
}

impl DeltaState {
    /// Replay records in order. A `DropTable` kills every earlier
    /// `AddColumn` of that table and tombstones the base; a later re-add
    /// of the same table name is live again.
    pub fn replay(records: &[DeltaRecord]) -> Self {
        let mut state = DeltaState {
            n_records: records.len(),
            ..Default::default()
        };
        for rec in records {
            match rec {
                DeltaRecord::AddColumn {
                    table_name,
                    column_name,
                    external_id,
                    vectors,
                } => state.live.push(DeltaColumn {
                    table_name: table_name.clone(),
                    column_name: column_name.clone(),
                    external_id: *external_id,
                    vectors: vectors.clone(),
                }),
                DeltaRecord::DropTable { table_name } => {
                    state.live.retain(|c| &c.table_name != table_name);
                    state.dropped_tables.insert(table_name.clone());
                }
            }
        }
        state
    }

    /// Highest external id any record (live or since dropped) ever used,
    /// plus one — combined with the manifest's `next_external_id` this is
    /// the allocation high-water mark for the next ingest. Dropped
    /// records still count: their ids must never be reused while the
    /// tombstone lives in the log.
    pub fn next_external_id_after(records: &[DeltaRecord], base_next: u64) -> u64 {
        records
            .iter()
            .filter_map(|r| match r {
                DeltaRecord::AddColumn { external_id, .. } => Some(external_id + 1),
                DeltaRecord::DropTable { .. } => None,
            })
            .fold(base_next, u64::max)
    }

    /// The live delta columns as a [`ColumnSet`] ready for an in-memory
    /// index build; `None` when no delta column is live.
    pub fn to_column_set(&self, dim: usize) -> Result<Option<ColumnSet>> {
        if self.live.is_empty() {
            return Ok(None);
        }
        let mut columns = ColumnSet::new(dim);
        for col in &self.live {
            if dim == 0 || col.vectors.len() % dim != 0 {
                return Err(PexesoError::Corrupt(format!(
                    "delta column '{}' holds {} floats, not a multiple of dim {dim}",
                    col.table_name,
                    col.vectors.len()
                )));
            }
            columns.add_column(
                &col.table_name,
                &col.column_name,
                col.external_id,
                col.vectors.chunks_exact(dim),
            )?;
        }
        Ok(Some(columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(version: u64) -> LakeManifest {
        let mut m = LakeManifest::new("hash", 4);
        m.index_version = version;
        m.next_external_id = 10;
        m
    }

    fn add(table: &str, id: u64) -> DeltaRecord {
        DeltaRecord::AddColumn {
            table_name: table.to_string(),
            column_name: "key".to_string(),
            external_id: id,
            vectors: vec![0.5, 0.5, 0.5, 0.5, 0.1, 0.2, 0.3, 0.4],
        }
    }

    fn drop_t(table: &str) -> DeltaRecord {
        DeltaRecord::DropTable {
            table_name: table.to_string(),
        }
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pexeso_wal_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_and_append_accumulate() {
        let dir = tempdir("roundtrip");
        let m = manifest(1);
        assert!(read_log(&dir).unwrap().is_none());
        append_records(&dir, &m, &[add("t1", 10), add("t2", 11)]).unwrap();
        append_records(&dir, &m, &[drop_t("t1")]).unwrap();
        let log = read_log(&dir).unwrap().unwrap();
        assert_eq!(log.header.base_index_version, 1);
        assert_eq!(log.header.dim, 4);
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.records[2], drop_t("t1"));
        // Replaying is a pure function: twice gives the same state.
        let s1 = DeltaState::replay(&log.records);
        let s2 = DeltaState::replay(&log.records);
        assert_eq!(s1, s2);
        assert_eq!(s1.live.len(), 1);
        assert_eq!(s1.live[0].table_name, "t2");
        assert!(s1.dropped_tables.contains("t1"));
        assert_eq!(DeltaState::next_external_id_after(&log.records, 10), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A header, one `AddColumn` and one `DropTable`, byte for byte: a
    /// layout change that keeps [`FORMAT_VERSION`] fails here.
    #[test]
    fn golden_log_file() {
        let dir = tempdir("golden");
        append_records(&dir, &manifest(1), &[add("t1", 10), drop_t("t1")]).unwrap();
        let bytes = std::fs::read(delta_log_path(&dir)).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let golden = "505844454c544131 01000000 09000000 6575636c696465616e 04000000
                0100000000000000 856ff97b18779d9b
            3a000000  01 02000000 7431 03000000 6b6579 0a00000000000000 08000000
                0000003f 0000003f 0000003f 0000003f cdcccc3d cdcc4c3e 9a99993e cdcccc3e
                8f8655de1fc8002b
            07000000  02 02000000 7431  385c35368fb085bb";
        assert_eq!(hex, golden.split_whitespace().collect::<String>());
        let log = read_log(&dir).unwrap().unwrap();
        assert_eq!(log.records, vec![add("t1", 10), drop_t("t1")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_then_readd_revives_only_the_new_column() {
        let recs = vec![add("t", 10), drop_t("t"), add("t", 11)];
        let s = DeltaState::replay(&recs);
        assert_eq!(s.live.len(), 1);
        assert_eq!(s.live[0].external_id, 11);
        assert!(s.dropped_tables.contains("t"));
    }

    #[test]
    fn truncated_tail_fails_typed() {
        let dir = tempdir("trunc");
        let m = manifest(1);
        append_records(&dir, &m, &[add("t1", 10), add("t2", 11)]).unwrap();
        let clean = std::fs::read(delta_log_path(&dir)).unwrap();
        for cut in [1usize, 8, 20, clean.len() - 1] {
            std::fs::write(delta_log_path(&dir), &clean[..clean.len() - cut]).unwrap();
            match read_log(&dir) {
                Err(PexesoError::Corrupt(_)) => {}
                other => panic!("cut {cut}: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_fail_typed_everywhere() {
        let dir = tempdir("flip");
        let m = manifest(1);
        append_records(&dir, &m, &[add("t1", 10), drop_t("t1")]).unwrap();
        let clean = std::fs::read(delta_log_path(&dir)).unwrap();
        for pos in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            std::fs::write(delta_log_path(&dir), &bytes).unwrap();
            match read_log(&dir) {
                Err(PexesoError::Corrupt(_)) => {}
                Err(other) => panic!("byte {pos}: untyped error {other:?}"),
                Ok(_) => panic!("byte {pos}: corrupted log read back cleanly"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_and_foreign_logs_detected() {
        let dir = tempdir("stale");
        append_records(&dir, &manifest(1), &[add("t1", 10)]).unwrap();
        let log = read_log(&dir).unwrap().unwrap();
        // Same build: current. Newer manifest: stale. Older manifest:
        // corruption (a log from the future).
        assert_eq!(
            check_header(&log.header, &manifest(1)).unwrap(),
            LogStatus::Current
        );
        assert_eq!(
            check_header(&log.header, &manifest(2)).unwrap(),
            LogStatus::Stale
        );
        assert!(check_header(&log.header, &{
            let mut m = manifest(1);
            m.index_version = 0;
            m
        })
        .is_err());
        // Metric / dim mismatches are corruption, not staleness.
        let mut m = manifest(1);
        m.metric = "manhattan".into();
        assert!(check_header(&log.header, &m).is_err());
        let mut m = manifest(1);
        m.dim = 8;
        assert!(check_header(&log.header, &m).is_err());
        // Appending to a stale log is refused.
        assert!(append_records(&dir, &manifest(2), &[add("t2", 11)]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_log_is_idempotent() {
        let dir = tempdir("rm");
        remove_log(&dir).unwrap();
        append_records(&dir, &manifest(1), &[add("t", 10)]).unwrap();
        remove_log(&dir).unwrap();
        assert!(read_log(&dir).unwrap().is_none());
        remove_log(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_only_read_matches_full_read() {
        let dir = tempdir("hdr");
        assert!(read_log_header(&dir).unwrap().is_none());
        append_records(&dir, &manifest(3), &[add("t", 10)]).unwrap();
        let header = read_log_header(&dir).unwrap().unwrap();
        assert_eq!(header, read_log(&dir).unwrap().unwrap().header);
        assert_eq!(header.base_index_version, 3);
        // A damaged header fails typed from the cheap reader too.
        let clean = std::fs::read(delta_log_path(&dir)).unwrap();
        let mut bad = clean.clone();
        bad[10] ^= 0x10;
        std::fs::write(delta_log_path(&dir), &bad).unwrap();
        assert!(matches!(
            read_log_header(&dir),
            Err(PexesoError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_records_are_refused_before_the_write() {
        let dir = tempdir("cap");
        let m = manifest(1);
        append_records(&dir, &m, &[add("ok", 10)]).unwrap();
        // One float over the cap: (cap payload − framing) / 4 floats,
        // rounded up past the boundary, in multiples of dim.
        let floats = (MAX_RECORD_BYTES as usize / 4 + 4) / 4 * 4;
        let giant = DeltaRecord::AddColumn {
            table_name: "giant".into(),
            column_name: "key".into(),
            external_id: 11,
            vectors: vec![0.1f32; floats],
        };
        match append_records(&dir, &m, &[giant]) {
            Err(PexesoError::InvalidParameter(msg)) => {
                assert!(msg.contains("record cap"), "{msg}")
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
        // The refused append must not have touched the log: the earlier
        // record still reads back cleanly.
        let log = read_log(&dir).unwrap().unwrap();
        assert_eq!(log.records, vec![add("ok", 10)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
