//! Robustness and failure-injection tests: degenerate inputs, extreme
//! thresholds, unicode, and corrupted persistence must produce typed
//! errors or correct results — never panics or wrong answers.

use pexeso::pipeline::{embed_query, EmbeddedLakeBuilder};
use pexeso::prelude::*;

fn unit_vec(dim: usize, seed: u64) -> Vec<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

#[test]
fn single_vector_columns_and_queries() {
    let dim = 6;
    let mut columns = ColumnSet::new(dim);
    for c in 0..4u64 {
        let v = unit_vec(dim, c);
        columns
            .add_column("t", &format!("c{c}"), c, vec![v.as_slice()])
            .unwrap();
    }
    let index = PexesoIndex::build(columns.clone(), Euclidean, IndexOptions::default()).unwrap();
    let mut q = VectorStore::new(dim);
    q.push(&unit_vec(dim, 0)).unwrap();
    let r = index
        .execute(
            &Query::threshold(Tau::Ratio(0.01), JoinThreshold::Ratio(1.0)),
            &q,
        )
        .unwrap();
    assert_eq!(r.hits.len(), 1);
    assert_eq!(r.hits[0].external_id, 0);
}

#[test]
fn extreme_thresholds() {
    let dim = 6;
    let mut columns = ColumnSet::new(dim);
    let vecs: Vec<Vec<f32>> = (0..10).map(|i| unit_vec(dim, i)).collect();
    let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
    columns.add_column("t", "c", 0, refs).unwrap();
    let index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
    let mut q = VectorStore::new(dim);
    q.push(&unit_vec(dim, 3)).unwrap();

    // tau = 0: only exact duplicates match.
    let r = index
        .execute(
            &Query::threshold(Tau::Absolute(0.0), JoinThreshold::Count(1)),
            &q,
        )
        .unwrap();
    assert_eq!(r.hits.len(), 1);
    // tau = max distance: everything matches.
    let r = index
        .execute(
            &Query::threshold(Tau::Ratio(1.0), JoinThreshold::Ratio(1.0)),
            &q,
        )
        .unwrap();
    assert_eq!(r.hits.len(), 1);
    // Unsatisfiable T (count beyond |Q|) finds nothing but must not panic.
    let r = index
        .execute(
            &Query::threshold(Tau::Ratio(1.0), JoinThreshold::Count(5)),
            &q,
        )
        .unwrap();
    assert!(r.hits.is_empty());
}

#[test]
fn pipeline_handles_pathological_strings() {
    let e = HashEmbedder::new(48);
    let weird = vec![
        "".to_string(),
        "   ".to_string(),
        "🦀🦀🦀".to_string(),
        "a".repeat(10_000),
        "Łódź — Göteborg — 北京".to_string(),
        "comma,quote\"newline\n".to_string(),
        "\u{0}\u{1}\u{2}".to_string(),
    ];
    // Builder must skip unusable cells (emoji and control characters have
    // no alphanumeric tokens) and keep the rest.
    let lake = EmbeddedLakeBuilder::new(&e)
        .add_column("t", "weird", &weird)
        .build()
        .unwrap();
    assert_eq!(
        lake.columns.n_vectors(),
        3,
        "exactly the three tokenisable strings embed"
    );
    let index = PexesoIndex::build(lake.columns, Euclidean, IndexOptions::default()).unwrap();
    let q = embed_query(&e, &["Łódź — Göteborg — 北京".to_string()]);
    let probe = Query::threshold(Tau::Ratio(0.01), JoinThreshold::Count(1));
    let r = index.execute(&probe, q.store()).unwrap();
    assert_eq!(r.hits.len(), 1, "the unicode string must find itself");
    // A query with no embeddable content must error cleanly, not panic.
    let crab = embed_query(&e, &["🦀🦀🦀".to_string()]);
    assert!(index.execute(&probe, crab.store()).is_err());
}

#[test]
fn non_finite_vectors_detected_before_indexing() {
    let mut store = VectorStore::new(4);
    store.push(&[0.5, 0.5, 0.5, 0.5]).unwrap();
    store.push(&[f32::NAN, 0.0, 0.0, 0.0]).unwrap();
    assert!(store.has_non_finite());
}

#[test]
fn corrupted_partition_file_yields_typed_error() {
    let dim = 6;
    let mut columns = ColumnSet::new(dim);
    for c in 0..6u64 {
        let vecs: Vec<Vec<f32>> = (0..5).map(|i| unit_vec(dim, c * 10 + i)).collect();
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns.add_column("t", &format!("c{c}"), c, refs).unwrap();
    }
    let dir = std::env::temp_dir().join(format!("pexeso_rob_corrupt_{}", std::process::id()));
    let lake = PartitionedLake::build(
        &columns,
        Euclidean,
        &PartitionConfig {
            k: 2,
            ..Default::default()
        },
        &IndexOptions::default(),
        &dir,
    )
    .unwrap();

    // Flip bytes in the middle of the first partition file.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pex"))
        .collect();
    files.sort();
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let mid = bytes.len() / 2;
    let end = (mid + 32).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b ^= 0xa5;
    }
    std::fs::write(&files[0], &bytes).unwrap();

    let mut q = VectorStore::new(dim);
    q.push(&unit_vec(dim, 3)).unwrap();
    let err = lake.execute(
        &Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1)),
        &q,
    );
    assert!(
        err.is_err(),
        "corruption must surface as an error, not wrong results"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_heavy_columns() {
    // The paper keeps duplicate query values as independent records; a
    // column of one repeated vector must count every query duplicate.
    let dim = 4;
    let v = unit_vec(dim, 9);
    let mut columns = ColumnSet::new(dim);
    columns
        .add_column("t", "dups", 0, std::iter::repeat_n(v.as_slice(), 20))
        .unwrap();
    let index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
    let mut q = VectorStore::new(dim);
    for _ in 0..5 {
        q.push(&v).unwrap();
    }
    let r = index
        .execute(
            &Query::threshold(Tau::Absolute(0.0), JoinThreshold::Ratio(1.0)),
            &q,
        )
        .unwrap();
    assert_eq!(r.hits.len(), 1);
    assert_eq!(
        r.hits[0].match_count, 5,
        "every duplicate query record counts"
    );
}

#[test]
fn csv_reader_rejects_garbage_gracefully() {
    use pexeso_lake::csv;
    // Binary noise: must error or parse, never panic.
    let noise: String = (0u8..=255).map(|b| b as char).collect();
    let _ = csv::parse(&noise);
    // Deeply quoted but unterminated.
    assert!(csv::parse("\"\"\"\"\"").is_err());
}

#[test]
fn partitioning_single_column_lake() {
    let dim = 4;
    let mut columns = ColumnSet::new(dim);
    let vecs: Vec<Vec<f32>> = (0..8).map(|i| unit_vec(dim, i)).collect();
    let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
    columns.add_column("t", "only", 0, refs).unwrap();
    // k far exceeds the column count; must clamp, not crash.
    let p = pexeso_core::partition::partition_columns(
        &columns,
        &PartitionConfig {
            k: 64,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(p.assignments.len(), 1);
}

#[test]
fn cli_refuses_embedding_dimensions_below_four() {
    use std::process::Command;
    let dir = std::env::temp_dir().join(format!("pexeso_rob_dim_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let lake = dir.join("lake");
    std::fs::create_dir_all(&lake).unwrap();
    let mut csv = String::from("City,Pop\n");
    for city in [
        "New York", "Chicago", "Houston", "Phoenix", "Seattle", "Denver",
    ] {
        csv.push_str(&format!("{city},1\n"));
    }
    std::fs::write(lake.join("a.csv"), csv).unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_pexeso"))
            .args(args)
            .output()
            .expect("spawn pexeso");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let lake = lake.to_str().unwrap();
    let idx = dir.join("idx");
    let idx = idx.to_str().unwrap();

    let (code, stderr) = run(&["index", "--lake", lake, "--out", idx, "--dim", "2"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--dim"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // A deployment whose manifest says dim=2 is refused the same way by
    // the verbs that embed against it.
    std::fs::create_dir_all(idx).unwrap();
    std::fs::write(dir.join("idx").join("manifest.txt"), "version=1\ndim=2\n").unwrap();
    let (code, stderr) = run(&["ingest", "--index", idx, "--lake", lake]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("dim=2"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon queue that would turn every connection away is a bad setting,
/// reported as one before anything is loaded: on an index or a shard map
/// that does not exist, `serve` and `router` print `invalid parameter:`,
/// not an I/O error from the load.
#[test]
fn a_refused_daemon_queue_is_an_invalid_parameter_before_any_load() {
    use std::process::Command;
    let missing = std::env::temp_dir().join(format!("pexeso_rob_queue_{}", std::process::id()));
    let missing = missing.to_str().unwrap();
    for args in [
        vec!["serve", "--index", missing, "--queue", "0"],
        vec![
            "serve",
            "--index",
            missing,
            "--queue",
            "8",
            "--soft-queue",
            "8",
        ],
        vec!["router", "--map", missing, "--queue", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pexeso"))
            .args(&args)
            .args(["--addr", "127.0.0.1:0"])
            .output()
            .expect("spawn pexeso");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("invalid parameter: "), "{args:?}: {stderr}");
        assert!(stderr.contains("is out of range"), "{args:?}: {stderr}");
    }
}
