//! Crash-recovery chaos suite: kill the maintenance operations at
//! **every fault point they cross** and prove recovery is never silently
//! wrong.
//!
//! Method, per operation (ingest into a fresh log, ingest into an
//! existing log, drop, compact):
//!
//! 1. *Trace*: run the operation once in fault-trace mode to enumerate
//!    every `(fault point, hit count)` pair it crosses — the sweep is
//!    exhaustive by construction, not by a hand-maintained list.
//! 2. *Replay*: for every `(point, ordinal)` and every crash shape
//!    (clean I/O error, torn write), copy the pristine pre-state
//!    directory, arm exactly one one-shot fault, run the operation
//!    (which must fail), disarm, and re-open the lake like a restarted
//!    process would.
//! 3. *Judge*: the re-opened lake must answer the query battery
//!    byte-identically to the **pre-state** (the crash lost the
//!    operation), the **post-state** (the crash happened after the
//!    durability point), or a **committed prefix** of the batch (WAL
//!    atomicity is per *record*, not per batch: a crash mid-append may
//!    leave the first k records complete and checksummed — the same
//!    state a power loss leaves — while the operation reports failure) —
//!    or the open must fail with a **typed** error (`Corrupt`/`Io`).
//!    Anything else — an answer set matching no rebuild of surviving
//!    records, an untyped failure — is the silent corruption this suite
//!    exists to catch.
//!
//! The pre/post reference answers are themselves pinned byte-identical
//! to full rebuilds by `tests/delta_differential.rs`, so "pre or post"
//! here really means "some rebuild of the surviving records".

use std::path::{Path, PathBuf};

use pexeso_core::fault::{self, FaultAction, FaultRule};
use pexeso_core::prelude::*;
use pexeso_delta::{compact_lake, drop_tables, ingest_columns, DeltaLake, IngestColumn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;

fn unit(rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

fn column_floats(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).flat_map(|_| unit(rng)).collect()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pexeso_chaos_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copy a deployment directory (flat: partitions, manifest, delta log).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

/// A small deployment: four base columns, manifest written.
fn deploy(dir: &Path, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut columns = ColumnSet::new(DIM);
    for c in 0..4u64 {
        let floats = column_floats(&mut rng, 8);
        columns
            .add_column(&format!("b{c}"), "key", c, floats.chunks_exact(DIM))
            .unwrap();
    }
    PartitionedLake::build(
        &columns,
        Euclidean,
        &PartitionConfig {
            k: 2,
            ..Default::default()
        },
        &IndexOptions {
            num_pivots: 3,
            levels: Some(3),
            pivot_selection: PivotSelection::Pca,
            seed: 7,
            ..Default::default()
        },
        dir,
    )
    .unwrap();
    let mut manifest = LakeManifest::new("hash", DIM);
    manifest.next_external_id = 4;
    manifest.write(dir).unwrap();
}

fn ingest_batch(seed: u64, tables: &[&str]) -> Vec<IngestColumn> {
    let mut rng = StdRng::seed_from_u64(seed);
    tables
        .iter()
        .map(|t| IngestColumn {
            table_name: t.to_string(),
            column_name: "key".into(),
            vectors: column_floats(&mut rng, 5),
        })
        .collect()
}

fn query_store(seed: u64, n: usize) -> VectorStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = VectorStore::new(DIM);
    for _ in 0..n {
        q.push(&unit(&mut rng)).unwrap();
    }
    q
}

/// The query battery: every judged state answers these. (Cross-policy
/// equivalence is delta_differential's job; one policy suffices here.)
fn answers(dir: &Path, q: &VectorStore) -> Result<Vec<Vec<GlobalHit>>> {
    let lake = DeltaLake::open(dir)?;
    let mut out = Vec::new();
    for query in [
        Query::threshold(Tau::Ratio(0.25), JoinThreshold::Count(1)),
        Query::threshold(Tau::Ratio(0.4), JoinThreshold::Ratio(0.3)),
        Query::topk(Tau::Ratio(0.25), 3),
        Query::topk(Tau::Ratio(0.4), 100),
    ] {
        out.push(lake.execute(&query, q)?.hits);
    }
    Ok(out)
}

/// A maintenance operation (or a prefix of one) run against a directory.
type OpFn<'a> = &'a dyn Fn(&Path) -> Result<()>;

/// One maintenance operation under sweep.
struct Op<'a> {
    name: &'a str,
    /// Fault points this op is expected to cross (sanity check that the
    /// hooks did not silently fall out of the code paths).
    must_cross: &'a [&'a str],
    run: OpFn<'a>,
    /// Proper prefixes of the operation that a mid-batch crash may leave
    /// committed (per-record WAL atomicity). Empty for single-publish
    /// operations like compaction.
    partial_runs: &'a [OpFn<'a>],
}

/// Sweep one operation: trace its fault points, then crash it at every
/// (point, ordinal, shape) and judge the recovered state.
fn sweep(op: &Op, pre: &Path, scratch_tag: &str) {
    let q = query_store(0x9e37, 5);
    fault::disarm_all();

    // Reference answer sets a recovered lake may legitimately serve:
    // the pre-state, every committed prefix, and the full post-state.
    let mut references = vec![answers(pre, &q).expect("pre-state must open cleanly")];
    let post = tempdir(&format!("{scratch_tag}_post"));
    for partial in op.partial_runs {
        copy_dir(pre, &post);
        partial(&post).expect("partial run must succeed");
        references.push(answers(&post, &q).expect("partial state must open cleanly"));
    }
    copy_dir(pre, &post);
    (op.run)(&post).expect("clean run must succeed");
    references.push(answers(&post, &q).expect("post-state must open cleanly"));

    // Trace: enumerate every fault point the op crosses.
    let trace = tempdir(&format!("{scratch_tag}_trace"));
    copy_dir(pre, &trace);
    fault::begin_trace();
    (op.run)(&trace).expect("trace run must succeed");
    let points = fault::traced_points();
    fault::disarm_all();
    for expected in op.must_cross {
        assert!(
            points.iter().any(|(p, _)| p == expected),
            "{}: expected fault point '{expected}' not crossed; traced: {points:?}",
            op.name
        );
    }

    // Replay: crash at every (point, ordinal) with every crash shape.
    let work = tempdir(&format!("{scratch_tag}_work"));
    for (point, hit_count) in &points {
        for ordinal in 0..*hit_count {
            for action in [FaultAction::Error, FaultAction::Tear { keep: 5 }] {
                let tag = format!("{}: {point}#{ordinal} {action:?}", op.name);
                copy_dir(pre, &work);
                fault::arm(point, FaultRule::nth(ordinal, action));
                let crashed = (op.run)(&work);
                fault::disarm_all();
                assert!(crashed.is_err(), "{tag}: armed op must fail");

                // Re-open like a restarted process and judge.
                match answers(&work, &q) {
                    Ok(got) => assert!(
                        references.contains(&got),
                        "{tag}: recovered answers match no rebuild of \
                         surviving records — silent corruption"
                    ),
                    Err(PexesoError::Corrupt(_)) | Err(PexesoError::Io(_)) => {
                        // Typed refusal to serve: honest, allowed.
                    }
                    Err(other) => panic!("{tag}: untyped recovery failure: {other:?}"),
                }
            }
        }
    }
    for d in [&post, &trace, &work] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn crash_sweep_ingest_into_fresh_log() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    let pre = tempdir("ingest_fresh_pre");
    deploy(&pre, 21);
    sweep(
        &Op {
            name: "ingest(fresh log)",
            must_cross: &["wal.append.header", "wal.append.record", "wal.append.fsync"],
            run: &|dir| ingest_columns(dir, &ingest_batch(31, &["d0", "d1"])).map(|_| ()),
            partial_runs: &[&|dir: &Path| {
                ingest_columns(dir, &ingest_batch(31, &["d0", "d1"])[..1]).map(|_| ())
            }],
        },
        &pre,
        "ingest_fresh",
    );
    std::fs::remove_dir_all(&pre).ok();
}

#[test]
fn crash_sweep_ingest_into_existing_log() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    let pre = tempdir("ingest_existing_pre");
    deploy(&pre, 22);
    ingest_columns(&pre, &ingest_batch(32, &["d0"])).unwrap();
    sweep(
        &Op {
            name: "ingest(existing log)",
            // The header already exists: appends must not rewrite it.
            must_cross: &["wal.read.open", "wal.append.record", "wal.append.fsync"],
            run: &|dir| ingest_columns(dir, &ingest_batch(33, &["d1", "d2"])).map(|_| ()),
            partial_runs: &[&|dir: &Path| {
                ingest_columns(dir, &ingest_batch(33, &["d1", "d2"])[..1]).map(|_| ())
            }],
        },
        &pre,
        "ingest_existing",
    );
    std::fs::remove_dir_all(&pre).ok();
}

#[test]
fn crash_sweep_drop_tables() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    let pre = tempdir("drop_pre");
    deploy(&pre, 23);
    ingest_columns(&pre, &ingest_batch(34, &["d0", "d1"])).unwrap();
    sweep(
        &Op {
            name: "drop",
            must_cross: &["wal.append.record", "wal.append.fsync"],
            run: &|dir| drop_tables(dir, &["b1".into(), "d0".into()]).map(|_| ()),
            partial_runs: &[&|dir: &Path| drop_tables(dir, &["b1".into()]).map(|_| ())],
        },
        &pre,
        "drop",
    );
    std::fs::remove_dir_all(&pre).ok();
}

#[test]
fn crash_sweep_compaction() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    let pre = tempdir("compact_pre");
    deploy(&pre, 24);
    ingest_columns(&pre, &ingest_batch(35, &["d0", "d1"])).unwrap();
    drop_tables(&pre, &["b2".into()]).unwrap();
    sweep(
        &Op {
            name: "compact",
            must_cross: &[
                "lake.compact.marker",
                "lake.compact.build",
                "lake.compact.sync",
                "lake.compact.manifest",
                "manifest.write.tmp",
                "manifest.rename",
                "lake.compact.clear_marker",
                "lake.compact.remove_log",
            ],
            run: &|dir| compact_lake(dir, None, ExecPolicy::Sequential).map(|_| ()),
            // Compaction publishes atomically: no committed prefix exists.
            partial_runs: &[],
        },
        &pre,
        "compact",
    );
    std::fs::remove_dir_all(&pre).ok();
}
