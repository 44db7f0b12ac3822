//! Compact binary persistence for PEXESO indexes.
//!
//! Out-of-core search (Section IV) stores one index per partition on disk
//! and loads them one at a time. The format keeps the expensive artefacts —
//! raw vectors, pivots, and mapped vectors — and rebuilds the inverted
//! index, `HG_RV` included, deterministically on load: one leaf key per
//! vector, a sort of the vectors into cell-major rows and, for a Euclidean
//! index, each row's apex — arithmetic on |P| coordinates per vector, far
//! cheaper than re-mapping (|P| distances in the full dimension).
//!
//! The file holds vectors and mapped vectors in id order, column by
//! column; an index holds its vectors in row order. A save writes each
//! vector at its id, and a load reads the mapped vectors first, lays out
//! the rows, then decodes the vectors straight into row order — one pass,
//! one copy. Files do not depend on the order an index holds.
//!
//! Layout ([`crate::codec`] primitives, little-endian):
//!
//! ```text
//! magic "PEXIDX02" · metric: str ·
//! options: num_pivots u32 · levels u32 (0 = auto) · selection u8 · seed u64 ·
//! grid: pivots u32 · levels u32 · span f32 ·
//! pivots: count u32 · dim u32 · count × dim × f32 ·
//! columns: count u32 · (table str · column str · external id u64 · start u32 · len u32)* ·
//! raw vectors: count u64 · count × dim × f32 ·
//! mapped vectors: pivots u32 · count u64 · count × pivots × f32 ·
//! crc32c of every byte before it: u32
//! ```
//!
//! Nothing may follow the checksum ([`crate::codec::crc32c`]). Format 1
//! (`PEXIDX01`) had the same layout closed by an FNV-1a `u64`; it is
//! refused with a typed error that says to rebuild, not read by a second
//! reader.

use std::path::Path;

use crate::codec::{crc32c, f32_rows, Dec, Enc, MAX_NAME_BYTES};
use crate::column::ColumnMeta;
use crate::config::{IndexOptions, PivotSelection};
use crate::error::{PexesoError, Result};
use crate::grid::GridParams;
use crate::mapping::MappedVectors;
use crate::metric::Metric;
use crate::search::PexesoIndex;
use crate::vector::VectorStore;

const MAGIC: &[u8; 8] = b"PEXIDX02";
/// Format 1, which no longer loads.
const MAGIC_V1: &[u8; 8] = b"PEXIDX01";

fn selection_tag(s: PivotSelection) -> u8 {
    match s {
        PivotSelection::Pca => 0,
        PivotSelection::Random => 1,
        PivotSelection::FarthestFirst => 2,
    }
}

fn selection_from_tag(t: u8) -> Result<PivotSelection> {
    match t {
        0 => Ok(PivotSelection::Pca),
        1 => Ok(PivotSelection::Random),
        2 => Ok(PivotSelection::FarthestFirst),
        _ => Err(PexesoError::Corrupt(format!(
            "unknown pivot selection tag {t}"
        ))),
    }
}

/// Serialise an index to `path` crash-safely: the bytes are written to a
/// sibling `.tmp` file and published with an atomic rename, so a torn
/// write can never replace a valid partition file with a half-written
/// one — readers see the old index or the new one, never a fragment.
pub fn save_index<M: Metric>(index: &PexesoIndex<M>, path: &Path) -> Result<()> {
    let tmp = path.with_extension("pex.tmp");
    std::fs::write(&tmp, encode_index(index)?)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn encode_index<M: Metric>(index: &PexesoIndex<M>) -> Result<Vec<u8>> {
    let store = index.columns().store();
    // Rows that hold apexes keep no pivot coordinates: map afresh — the
    // same bits the build mapped.
    let mapped = index.row_mapping(index.options().exec)?;
    // Vectors and coordinates are written in id order.
    let positions = index.columns().positions();
    let num_pivots = index.pivots().len();
    let floats = store.raw_data().len() + mapped.raw_data().len();
    let mut w = Enc::with_capacity(4 * floats + 4096);
    w.bytes(MAGIC);
    w.str(index.metric().name());

    let opts = index.options();
    w.u32(opts.num_pivots as u32);
    w.u32(opts.levels.unwrap_or(0) as u32);
    w.u8(selection_tag(opts.pivot_selection));
    w.u64(opts.seed);

    let gp = index.grid_params();
    w.u32(gp.num_pivots as u32);
    w.u32(gp.levels as u32);
    w.f32(gp.span);

    let pivots = index.pivots();
    w.u32(pivots.len() as u32);
    w.u32(index.columns().dim() as u32);
    for p in pivots {
        w.f32s(p);
    }

    let cols = index.columns().columns();
    w.u32(cols.len() as u32);
    for c in cols {
        w.str(&c.table_name);
        w.str(&c.column_name);
        w.u64(c.external_id);
        w.u32(c.start);
        w.u32(c.len);
    }

    w.u64(store.len() as u64);
    for &p in &positions {
        w.f32s(store.get_raw(p as usize));
    }

    w.u32(num_pivots as u32);
    w.u64(store.len() as u64);
    for &p in &positions {
        w.f32s(mapped.get(p as usize));
    }

    let checksum = crc32c(w.as_bytes());
    w.u32(checksum);
    Ok(w.into_bytes())
}

/// Load an index from `path`, validating magic, metric, structure, and
/// checksum. The grid and inverted index are rebuilt deterministically.
pub fn load_index<M: Metric>(path: &Path, metric: M) -> Result<PexesoIndex<M>> {
    let bytes = std::fs::read(path)?;
    let mut r = Dec::new(&bytes);

    match r.bytes(MAGIC.len())? {
        m if m == MAGIC => {}
        m if m == MAGIC_V1 => {
            return Err(PexesoError::Corrupt(
                "index format 1 (PEXIDX01, FNV-1a checksum) is no longer read; \
                 rebuild the deployment with `pexeso index`"
                    .into(),
            ))
        }
        _ => return Err(PexesoError::Corrupt("bad magic".into())),
    }
    let metric_name = r.str(64)?;
    if metric_name != metric.name() {
        return Err(PexesoError::Corrupt(format!(
            "index built with metric '{metric_name}' but loaded with '{}'",
            metric.name()
        )));
    }

    let num_pivots = r.u32()? as usize;
    let levels_raw = r.u32()? as usize;
    let selection = selection_from_tag(r.u8()?)?;
    let seed = r.u64()?;
    // The execution policy is a runtime throughput knob, not part of the
    // persisted index identity; loaded indexes start sequential.
    let options = IndexOptions {
        num_pivots,
        levels: if levels_raw == 0 {
            None
        } else {
            Some(levels_raw)
        },
        pivot_selection: selection,
        seed,
        ..Default::default()
    };

    let gp_pivots = r.u32()? as usize;
    let gp_levels = r.u32()? as usize;
    let gp_span = r.f32()?;
    let grid_params = GridParams::new(gp_pivots, gp_levels, gp_span)?;

    let k = r.u32()? as usize;
    let dim = r.u32()? as usize;
    if dim == 0 || dim > 1 << 20 {
        return Err(PexesoError::Corrupt(format!(
            "implausible dimensionality {dim}"
        )));
    }
    if k > crate::config::MAX_PIVOTS {
        return Err(PexesoError::Corrupt(format!("implausible pivot count {k}")));
    }
    let mut pivots = Vec::with_capacity(k);
    for _ in 0..k {
        pivots.push(r.f32_vec(dim)?);
    }

    let n_cols = r.u32()? as usize;
    let mut metas = Vec::with_capacity(n_cols.min(1 << 16));
    for _ in 0..n_cols {
        metas.push(ColumnMeta {
            table_name: r.str(MAX_NAME_BYTES)?,
            column_name: r.str(MAX_NAME_BYTES)?,
            external_id: r.u64()?,
            start: r.u32()?,
            len: r.u32()?,
        });
    }

    let n_vecs = r.u64()? as usize;
    let n_bytes = n_vecs
        .checked_mul(dim)
        .and_then(|floats| floats.checked_mul(4))
        .ok_or_else(|| {
            PexesoError::Corrupt(format!("vector count {n_vecs} x dim {dim} overflows"))
        })?;
    // Decoded once the rows are laid out, straight into row order.
    let vectors = r.bytes(n_bytes)?;

    let mk = r.u32()? as usize;
    let mn = r.u64()? as usize;
    if mk != gp_pivots || mn != n_vecs {
        return Err(PexesoError::Corrupt(format!(
            "mapped shape {mn}x{mk} inconsistent with {n_vecs}x{gp_pivots}"
        )));
    }
    let m_floats = mn
        .checked_mul(mk)
        .ok_or_else(|| PexesoError::Corrupt(format!("mapped shape {mn}x{mk} overflows")))?;
    let rv_mapped = MappedVectors::from_raw(mk, r.f32_vec(m_floats)?)?;

    let body = r.consumed();
    let checksum = r.u32()?;
    // The checksum must be the last bytes of the file: trailing garbage
    // means the writer and reader disagree about the layout (or the file
    // was concatenated/overwritten), which a checksum-only validation
    // would silently accept.
    r.finish()
        .map_err(|e| PexesoError::Corrupt(format!("{e} after checksum")))?;
    if checksum != crc32c(body) {
        return Err(PexesoError::Corrupt("checksum mismatch".into()));
    }

    PexesoIndex::from_saved_parts(
        metas,
        |order| VectorStore::from_raw(dim, f32_rows(vectors, dim, order)),
        pivots,
        rv_mapped,
        options,
        grid_params,
        metric,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnSet;
    use crate::config::{JoinThreshold, Tau};
    use crate::metric::{Euclidean, Manhattan};
    use crate::query::{Query, Queryable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build_small(seed: u64) -> (PexesoIndex<Euclidean>, VectorStore) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 8;
        let mut columns = ColumnSet::new(dim);
        for c in 0..6 {
            let mut vecs = Vec::new();
            for _ in 0..12 {
                let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                v.iter_mut().for_each(|x| *x /= n);
                vecs.push(v);
            }
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns
                .add_column("tab", &format!("col{c}"), 100 + c as u64, refs)
                .unwrap();
        }
        let mut query = VectorStore::new(dim);
        for _ in 0..5 {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= n);
            query.push(&v).unwrap();
        }
        let index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
        (index, query)
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pexeso_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_preserves_search_results() {
        let (index, query) = build_small(1);
        let path = tmpfile("roundtrip.pex");
        save_index(&index, &path).unwrap();
        let loaded = load_index(&path, Euclidean).unwrap();

        let tau = Tau::Ratio(0.2);
        let t = JoinThreshold::Ratio(0.4);
        let q = Query::threshold(tau, t);
        let a = index.execute(&q, &query).unwrap();
        let b = loaded.execute(&q, &query).unwrap();
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.stats.distance_computations, b.stats.distance_computations);
        assert_eq!(index.columns().columns(), loaded.columns().columns());
        // The load lays out the same cell-major rows and apex boxes, and
        // saving it again writes the same bytes (mapped coordinates in
        // vector-id order).
        assert_eq!(index.inverted_index(), loaded.inverted_index());
        assert!(loaded.inverted_index().apex().is_some());
        assert_eq!(
            encode_index(&loaded).unwrap(),
            std::fs::read(&path).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    /// An index holds its vectors in row order, a file holds them by id:
    /// a save writes each column's vectors in id order, a load lays them
    /// out in row order again — the same order, the same vectors — and
    /// saving the loaded index writes the bytes it was loaded from.
    #[test]
    fn a_row_ordered_index_saves_the_bytes_it_loaded() {
        let (index, _) = build_small(9);
        let ids = index.columns().vector_ids().expect("held in row order");
        assert!(
            ids.windows(2).any(|w| w[0] > w[1]),
            "the fixture's rows must not be in id order"
        );
        let path = tmpfile("row_order.pex");
        save_index(&index, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let by_id = index.columns().id_ordered();
        let mut vectors = Enc::new();
        vectors.f32s(by_id.store().raw_data());
        let vectors = vectors.into_bytes();
        assert!(
            bytes.windows(vectors.len()).any(|w| w == vectors),
            "the file holds the vectors in id order"
        );
        let loaded = load_index(&path, Euclidean).unwrap();
        assert_eq!(loaded.columns(), index.columns());
        assert_eq!(encode_index(&loaded).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }

    /// A name of exactly `MAX_NAME_BYTES` persists and loads back; one
    /// byte more never enters a column set, so no index file can hold a
    /// name its load would refuse.
    #[test]
    fn names_up_to_the_limit_roundtrip_and_longer_ones_are_refused() {
        let longest = "n".repeat(MAX_NAME_BYTES as usize);
        let mut columns = ColumnSet::new(2);
        columns
            .add_column(&longest, &longest, 7, vec![&[1.0, 0.0][..], &[0.0, 1.0]])
            .unwrap();
        let index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
        let path = tmpfile("longest_name.pex");
        save_index(&index, &path).unwrap();
        let loaded = load_index(&path, Euclidean).unwrap();
        assert_eq!(loaded.columns().columns(), index.columns().columns());
        std::fs::remove_file(&path).ok();

        let over = format!("{longest}n");
        let mut columns = ColumnSet::new(2);
        for (table, column) in [(over.as_str(), "c"), ("t", over.as_str())] {
            let err = columns
                .add_column(table, column, 0, vec![&[1.0, 0.0][..]])
                .unwrap_err();
            assert!(
                matches!(&err, PexesoError::InvalidParameter(m) if m.contains("65536-byte name limit")),
                "{err}"
            );
        }
        assert_eq!((columns.n_columns(), columns.n_vectors()), (0, 0));
    }

    #[test]
    fn wrong_metric_rejected() {
        let (index, _) = build_small(2);
        let path = tmpfile("metric.pex");
        save_index(&index, &path).unwrap();
        let err = load_index(&path, Manhattan);
        assert!(matches!(err, Err(PexesoError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmpfile("magic.pex");
        std::fs::write(&path, b"NOTANIDXfollowed by junk").unwrap();
        assert!(matches!(
            load_index(&path, Euclidean),
            Err(PexesoError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let (index, _) = build_small(3);
        let path = tmpfile("trunc.pex");
        save_index(&index, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            load_index(&path, Euclidean),
            Err(PexesoError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let (index, _) = build_small(4);
        let path = tmpfile("flip.pex");
        save_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            load_index(&path, Euclidean).is_err(),
            "flipped byte must fail checksum or structure validation"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_index(Path::new("/nonexistent/pexeso.idx"), Euclidean);
        assert!(matches!(err, Err(PexesoError::Io(_))));
    }

    #[test]
    fn trailing_bytes_after_checksum_rejected() {
        let (index, _) = build_small(5);
        let path = tmpfile("trailing.pex");
        save_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // A single appended byte — e.g. a concatenated partial write —
        // leaves the checksummed prefix intact but must still be rejected.
        bytes.push(0u8);
        std::fs::write(&path, &bytes).unwrap();
        match load_index(&path, Euclidean) {
            Err(PexesoError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected Corrupt(trailing bytes), got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_bit_at_every_byte_yields_typed_error() {
        let (index, query) = build_small(6);
        let path = tmpfile("flip_all.pex");
        save_index(&index, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // One flipped bit at every byte of the file, the bit cycling with
        // the position: CRC32C detects every 1-bit error, so no position
        // may load. Which typed error surfaces depends on the field hit
        // (structure checks fire before the checksum); the invariant is a
        // typed error — never a panic, an allocation abort, or a load.
        let probe = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(1));
        let baseline = index.execute(&probe, &query).unwrap();
        for pos in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 1 << (pos % 8);
            std::fs::write(&path, &bytes).unwrap();
            match load_index(&path, Euclidean) {
                Err(PexesoError::Io(e)) => panic!("byte {pos}: untyped io error {e}"),
                Err(_) => {}
                Ok(loaded) => {
                    let got = loaded.execute(&probe, &query).unwrap();
                    panic!(
                        "byte {pos}: corrupted file loaded (results equal: {})",
                        got.hits == baseline.hits
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A format 1 file names its format and the command that rebuilds it.
    #[test]
    fn format_1_file_is_refused_with_a_rebuild_hint() {
        let (index, _) = build_small(8);
        let path = tmpfile("format1.pex");
        save_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"PEXIDX01");
        std::fs::write(&path, &bytes).unwrap();
        match load_index(&path, Euclidean) {
            Err(PexesoError::Corrupt(msg)) => {
                assert!(msg.contains("PEXIDX01"), "{msg}");
                assert!(
                    msg.contains("rebuild the deployment with `pexeso index`"),
                    "{msg}"
                );
            }
            other => panic!("expected Corrupt(format 1), got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// A hand-built index — fixed pivots, two columns, `dim` 2, so no
    /// floating-point pivot choice is involved — byte for byte, one
    /// section per line: a layout change that keeps the magic fails here.
    #[test]
    fn golden_index_file() {
        let mut columns = ColumnSet::new(2);
        columns
            .add_column("t", "a", 7, [&[1.0f32, 0.0][..], &[0.0, 1.0]])
            .unwrap();
        columns
            .add_column("u", "b", 9, [&[0.5f32, 0.5][..]])
            .unwrap();
        let index = PexesoIndex::from_parts(
            columns,
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            MappedVectors::from_raw(2, vec![0.0, 1.5, 1.5, 0.0, 0.75, 0.75]).unwrap(),
            IndexOptions {
                num_pivots: 2,
                levels: Some(2),
                pivot_selection: PivotSelection::FarthestFirst,
                seed: 42,
                ..Default::default()
            },
            GridParams::new(2, 2, 2.0).unwrap(),
            Euclidean,
        )
        .unwrap();
        let path = tmpfile("golden.pex");
        save_index(&index, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let golden = "5045584944583032  09000000 6575636c696465616e
            02000000 02000000 02 2a00000000000000
            02000000 02000000 00000040
            02000000 02000000 0000803f 00000000 00000000 0000803f
            02000000  01000000 74 01000000 61 0700000000000000 00000000 02000000
                      01000000 75 01000000 62 0900000000000000 02000000 01000000
            0300000000000000 0000803f 00000000 00000000 0000803f 0000003f 0000003f
            02000000 0300000000000000 00000000 0000c03f 0000c03f 00000000 0000403f 0000403f
            4b69c615";
        assert_eq!(hex, golden.split_whitespace().collect::<String>());
        let loaded = load_index(&path, Euclidean).unwrap();
        assert_eq!(loaded.columns().columns(), index.columns().columns());
        assert_eq!(loaded.pivots(), index.pivots());
        assert_eq!(
            loaded.options().pivot_selection,
            PivotSelection::FarthestFirst
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_section_yields_typed_error() {
        let (index, _) = build_small(7);
        let path = tmpfile("trunc_all.pex");
        save_index(&index, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Truncating mid-section (including mid-checksum: the last 4
        // bytes) must always produce a typed Corrupt error, never a panic
        // or a partial load.
        for keep in (0..clean.len()).step_by(61).chain([clean.len() - 1]) {
            std::fs::write(&path, &clean[..keep]).unwrap();
            match load_index(&path, Euclidean) {
                Err(PexesoError::Corrupt(_)) => {}
                other => panic!("truncated at {keep}: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
