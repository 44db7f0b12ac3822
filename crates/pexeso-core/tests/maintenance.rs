//! Index maintenance (Section III-E) and top-k search: appending a column
//! must be indistinguishable from a fresh build. Dropping columns is the
//! delta overlay's job, covered by `tests/delta_differential.rs`.

use pexeso_core::prelude::*;

fn unit_vec(dim: usize, seed: u64) -> Vec<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

fn column_vecs(dim: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..len)
        .map(|i| unit_vec(dim, seed * 1000 + i as u64))
        .collect()
}

fn make_columns(dim: usize, n_cols: usize, len: usize, seed: u64) -> ColumnSet {
    let mut cs = ColumnSet::new(dim);
    for c in 0..n_cols {
        let vecs = column_vecs(dim, len, seed + c as u64);
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        cs.add_column("t", &format!("c{c}"), c as u64, refs)
            .unwrap();
    }
    cs
}

fn query(dim: usize, n: usize, seed: u64) -> VectorStore {
    let mut q = VectorStore::new(dim);
    for i in 0..n {
        q.push(&unit_vec(dim, seed * 77 + i as u64)).unwrap();
    }
    q
}

/// External ids equal insertion order in these fixtures, so the unified
/// external-id ordering matches the oracle's column-id ordering.
fn ids(hits: &[GlobalHit]) -> Vec<u32> {
    hits.iter().map(|h| h.external_id as u32).collect()
}

#[test]
fn append_equals_fresh_build() {
    let dim = 10;
    // Index built over 8 columns, then 4 appended online.
    let base = make_columns(dim, 8, 15, 100);
    let mut index = PexesoIndex::build(base, Euclidean, IndexOptions::default()).unwrap();
    let mut full = make_columns(dim, 8, 15, 100);
    for c in 8..12u64 {
        let vecs = column_vecs(dim, 15, 100 + c);
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        index
            .append_column("t", &format!("c{c}"), c, refs.clone())
            .unwrap();
        full.add_column("t", &format!("c{c}"), c, refs).unwrap();
    }
    let q = query(dim, 8, 5);
    for tau in [Tau::Ratio(0.05), Tau::Ratio(0.2)] {
        for t in [JoinThreshold::Ratio(0.3), JoinThreshold::Count(1)] {
            let (expected, _) = naive_search(&full, &Euclidean, &q, tau, t, false).unwrap();
            let got = index.execute(&Query::threshold(tau, t), &q).unwrap();
            assert_eq!(
                ids(&got.hits),
                expected.iter().map(|h| h.column.0).collect::<Vec<_>>(),
                "tau={tau:?} t={t:?}"
            );
        }
    }
}

#[test]
fn append_then_topk_sees_new_column() {
    let dim = 8;
    let base = make_columns(dim, 4, 10, 7);
    let mut index = PexesoIndex::build(base, Euclidean, IndexOptions::default()).unwrap();
    // Append a column identical to the query: must rank first in top-k.
    let q = query(dim, 6, 9);
    let q_vecs: Vec<&[f32]> = (0..q.len()).map(|i| q.get_raw(i)).collect();
    let new_col = index.append_column("t", "mirror", 99, q_vecs).unwrap();
    assert_eq!(new_col, ColumnId(4));
    let result = index
        .execute(&Query::topk(Tau::Ratio(0.02), 3), &q)
        .unwrap();
    assert_eq!(result.hits[0].external_id, 99);
    assert_eq!(result.hits[0].match_count as usize, q.len());
}

#[test]
fn topk_matches_naive_ranking() {
    let dim = 10;
    let columns = make_columns(dim, 12, 14, 11);
    let index = PexesoIndex::build(columns.clone(), Euclidean, IndexOptions::default()).unwrap();
    let q = query(dim, 8, 13);
    let tau = Tau::Ratio(0.25);
    let tau_abs = tau.resolve(&Euclidean, dim).unwrap();

    // Naive exact counts.
    let mut counts: Vec<(u32, u32)> = columns
        .columns()
        .iter()
        .enumerate()
        .map(|(c, meta)| {
            let count = (0..q.len())
                .filter(|&qi| {
                    meta.vector_range().any(|v| {
                        Euclidean.dist(q.get_raw(qi), columns.store().get_raw(v as usize))
                            <= tau_abs
                    })
                })
                .count() as u32;
            (c as u32, count)
        })
        .filter(|&(_, count)| count > 0)
        .collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    for k in [1usize, 3, 5, 100] {
        let result = index.execute(&Query::topk(tau, k), &q).unwrap();
        let expected: Vec<(u32, u32)> = counts.iter().copied().take(k).collect();
        let got: Vec<(u32, u32)> = result
            .hits
            .iter()
            .map(|h| (h.external_id as u32, h.match_count))
            .collect();
        assert_eq!(got, expected, "k={k}");
    }
}

#[test]
fn topk_edge_inputs() {
    let columns = make_columns(8, 3, 5, 1);
    let index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
    let q = query(8, 3, 2);
    // k = 0 is a valid request for an empty ranking, not an error.
    let r = index.execute(&Query::topk(Tau::Ratio(0.1), 0), &q).unwrap();
    assert!(r.hits.is_empty() && r.exact());
    let empty = VectorStore::new(8);
    assert!(index
        .execute(&Query::topk(Tau::Ratio(0.1), 3), &empty)
        .is_err());
}

#[test]
fn angular_metric_end_to_end() {
    use pexeso_core::metric::Angular;
    let dim = 10;
    let columns = make_columns(dim, 8, 10, 21);
    let q = query(dim, 5, 22);
    let tau = Tau::Ratio(0.05); // 5 % of π
    let t = JoinThreshold::Count(1);
    let (expected, _) = naive_search(&columns, &Angular, &q, tau, t, false).unwrap();
    let index = PexesoIndex::build(columns, Angular, IndexOptions::default()).unwrap();
    let got = index.execute(&Query::threshold(tau, t), &q).unwrap();
    assert_eq!(
        ids(&got.hits),
        expected.iter().map(|h| h.column.0).collect::<Vec<_>>()
    );
}

/// Appending keeps the inverted index's cell-major rows consistent: they
/// equal the rows an inverted index built over the grown lake with the
/// same pivots lays out, apex boxes included, and every row holds its own
/// vector's column and pivot coordinates.
#[test]
fn append_keeps_the_cell_major_rows_consistent() {
    use pexeso_core::invindex::{InvertedIndex, SimplexBase};
    use pexeso_core::mapping::MappedVectors;
    let dim = 10;
    let mut index = PexesoIndex::build(
        make_columns(dim, 6, 12, 40),
        Euclidean,
        IndexOptions::default(),
    )
    .unwrap();
    for c in 6..9u64 {
        let vecs = column_vecs(dim, 9, 40 + c);
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        index.append_column("t", &format!("c{c}"), c, refs).unwrap();
    }
    let columns = index.columns();
    let pivots = index.pivots();
    let by_id = MappedVectors::build(columns.store(), pivots, &Euclidean, None).unwrap();
    let rebuilt = InvertedIndex::build(
        index.grid_params(),
        &by_id,
        &columns.vector_to_column(),
        SimplexBase::of(pivots, &Euclidean),
    )
    .unwrap();
    let inv = index.inverted_index();
    assert_eq!(inv, &rebuilt);
    assert!(inv.apex().is_some());
    let rows = inv.rows();
    let vec_col = columns.vector_to_column();
    for (r, &v) in rows.vid.iter().enumerate() {
        assert_eq!(rows.col[r], vec_col[v as usize]);
        assert_eq!(index.rv_mapped().get(r), by_id.get(v as usize));
    }
    assert_eq!(rows.vid.len(), columns.n_vectors());
}
