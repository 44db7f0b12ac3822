//! Blocking: Algorithm 1 as one flat pass over `HG_RV`'s leaves, plus
//! quick browsing.
//!
//! For each query vector `q`, the pass tests every leaf of `HG_RV` once,
//! in ascending ordinal order: if Lemma 5 holds the pair is a *matching
//! pair* (no verification needed), else if Lemma 3 holds it is filtered,
//! else it is a *candidate pair* for [`crate::verify`]. The pair quick
//! browsing emitted (`q`'s own leaf) is a candidate, untested.
//!
//! The paper descends `HG_Q` and `HG_RV` in lockstep so that the
//! cell-cell Lemmas 4 and 6 prune or accept whole subtrees. They decide
//! nothing the vector-cell lemmas would not. Take a leaf `ℓ` under a cell
//! `c` and a query vector `q` in a cell `cq`: if Lemma 4 prunes ⟨cq, c⟩,
//! then on the separating pivot `ℓ.lower ≥ c.lower > cq.upper + τ + EPS ≥
//! q + τ + EPS` (or the mirror image below), so Lemma 3 prunes ⟨q, ℓ⟩;
//! if Lemma 6 accepts ⟨cq, c⟩, then on its pivot `ℓ.upper ≤ c.upper ≤
//! τ − cq.upper − EPS ≤ τ − q − EPS`, so Lemma 5 accepts ⟨q, ℓ⟩. The
//! interior levels only save tests, and a lake's few non-empty leaves lie
//! close together: on the benchmark's lake (|P| = 3, m = 4, 120–170 of
//! 4,096 leaves a partition) the descent took about as many steps as the
//! pass, each dearer.
//!
//! ## Cost
//!
//! |Q| · leaves · |P| comparisons, as table lookups. Per query vector the
//! pass tabulates, for each pivot and each of its `2^m` cell indices,
//! whether Lemma 5 or Lemma 3 holds on that pivot; a leaf is then |P|
//! lookups by the cell indices [`HierarchicalGrid`] keeps beside its key.
//! The leaf edges are [`GridParams::bounds`]' `f32` expressions and the
//! query's side is the lemmas' own, so each verdict is bit-identical to
//! the lemmas over `GridParams::bounds(leaf, m)`. Every pair is counted
//! once: the candidate (quick browsing's included), matching and
//! filtered pairs add up to |Q| · leaves.
//!
//! The output names `HG_RV`'s leaves by **ordinal**, the inverted index's
//! cell ordinal, ascending per query vector — the order of their rows.
//!
//! ## Parallel blocking
//!
//! [`block_with`] shards the query vectors across an [`ExecPolicy`]'s
//! threads, a shard only where it holds `MIN_PAIRS_PER_SHARD` pairs. The
//! shards fill disjoint lists and concatenate in order, so the output is
//! byte-identical to the sequential pass.

use std::ops::Range;

use crate::config::{ExecPolicy, LemmaFlags};
use crate::exec;
use crate::grid::{by_pivots, GridParams, HierarchicalGrid};
use crate::invindex::InvertedIndex;
use crate::lemmas::EPS;
use crate::mapping::MappedVectors;
use crate::stats::SearchStats;
use crate::util::FastMap;

/// Blocking output: per query vector, the leaf cells of `HG_RV` it surely
/// matches and the leaf cells it must be verified against, as leaf
/// ordinals, ascending. Sorted by query vector id; a vector with no cell
/// is left out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockOutput {
    pub matching: Vec<(u32, Vec<u32>)>,
    pub candidates: Vec<(u32, Vec<u32>)>,
    /// Leaf count of the `HG_RV` the ordinals index: verification refuses
    /// the output against an inverted index with another.
    pub rv_leaves: usize,
}

/// What [`quick_browse`] returns: it emitted every ⟨query vector, leaf⟩
/// pair whose two leaves share a key, and [`block`] given it takes them
/// as candidates without testing them.
#[derive(Debug, Clone, Copy)]
pub struct QuickBrowsed;

/// ⟨query vector, leaf⟩ pairs a shard of the pass must hold before a
/// thread is spawned for it: a pair costs a few ns, so this is about a
/// millisecond of work, the break-even [`exec`] assumes.
const MIN_PAIRS_PER_SHARD: usize = 1 << 18;

/// Verdict bits of a table entry: Lemma 5 holds on the pivot.
const MATCH: u8 = 1;
/// Lemma 3 holds on the pivot.
const FILTER: u8 = 2;

/// Quick browsing (Section III-C): every leaf cell of `HG_Q` that also
/// exists in `HG_RV` refers to the same space region, so its query vectors
/// and the target cell can never be separated by Lemma 3 — emit them as
/// candidates immediately and let the pass skip the identical-key pair.
/// One merge walk over the two sorted leaf arrays, the index's side
/// advanced by binary search.
pub fn quick_browse(
    hgq: &HierarchicalGrid,
    inv: &InvertedIndex,
    candidates: &mut FastMap<u32, Vec<u32>>,
    stats: &mut SearchStats,
) -> QuickBrowsed {
    let rv = inv.grid().leaves();
    let mut j = 0;
    for (i, key) in hgq.leaves().iter().enumerate() {
        j += rv[j..].partition_point(|k| k < key);
        if rv.get(j) == Some(key) {
            for &q in hgq.leaf_vectors(i as u32) {
                candidates.entry(q).or_default().push(j as u32);
                stats.quick_browse_pairs += 1;
            }
        }
    }
    QuickBrowsed
}

/// Run Algorithm 1 single-threaded. `quick_browsed` says [`quick_browse`]
/// ran (pass `None` when it did not); its candidate pairs are supplied via
/// `seed_candidates`.
#[allow(clippy::too_many_arguments)]
pub fn block(
    hgq: &HierarchicalGrid,
    hgrv: &HierarchicalGrid,
    query_mapped: &MappedVectors,
    tau: f32,
    flags: LemmaFlags,
    quick_browsed: Option<&QuickBrowsed>,
    seed_candidates: FastMap<u32, Vec<u32>>,
    stats: &mut SearchStats,
) -> BlockOutput {
    block_with(
        hgq,
        hgrv,
        query_mapped,
        tau,
        flags,
        quick_browsed,
        seed_candidates,
        stats,
        ExecPolicy::Sequential,
    )
}

/// [`block`] with explicit parallelism over the query vectors. Output is
/// identical for every policy. `hgq` is `query_mapped`'s grid; the pass
/// reads the query vectors' coordinates, and `HG_Q` only through the
/// pairs quick browsing took from it.
#[allow(clippy::too_many_arguments)]
pub fn block_with(
    hgq: &HierarchicalGrid,
    hgrv: &HierarchicalGrid,
    query_mapped: &MappedVectors,
    tau: f32,
    flags: LemmaFlags,
    quick_browsed: Option<&QuickBrowsed>,
    seed_candidates: FastMap<u32, Vec<u32>>,
    stats: &mut SearchStats,
    policy: ExecPolicy,
) -> BlockOutput {
    debug_assert_eq!(hgq.params(), hgrv.params(), "grids must share params");
    debug_assert!(
        quick_browsed.is_some() || seed_candidates.is_empty(),
        "seed candidates come from quick browsing"
    );
    let n_q = query_mapped.len();
    let n_leaves = hgrv.leaves().len();
    let mut seeds = vec![Vec::new(); n_q];
    for (q, mut cells) in seed_candidates {
        cells.sort_unstable();
        seeds[q as usize] = cells;
    }
    let pass = Pass {
        params: hgrv.params(),
        indices: hgrv.leaf_indices(),
        n_leaves: n_leaves as u32,
        query_mapped,
        tau,
        flags,
        seeds: &seeds,
    };
    let min_q = MIN_PAIRS_PER_SHARD.div_ceil(n_leaves.max(1));
    let shards = exec::map_ranges_min(policy, n_q, min_q, |range| {
        by_pivots!(pass.params.num_pivots, run_pass(&pass, range))
    });

    let mut out = BlockOutput {
        rv_leaves: n_leaves,
        ..BlockOutput::default()
    };
    for (matching, candidates, shard_stats) in shards {
        stats.merge(&shard_stats);
        out.matching.extend(matching);
        out.candidates.extend(candidates);
    }
    out
}

/// What every shard of the pass reads.
struct Pass<'a> {
    params: &'a GridParams,
    indices: &'a [u8],
    n_leaves: u32,
    query_mapped: &'a MappedVectors,
    tau: f32,
    flags: LemmaFlags,
    /// Per query vector, the leaves quick browsing emitted, ascending.
    seeds: &'a [Vec<u32>],
}

/// Each query vector's matching and candidate lists (non-empty ones only)
/// and the shard's counters.
type ShardOut = (Vec<(u32, Vec<u32>)>, Vec<(u32, Vec<u32>)>, SearchStats);

/// The pass over the query vectors `range`, with `N` = |P| pivots.
fn run_pass<const N: usize>(pass: &Pass<'_>, range: Range<usize>) -> ShardOut {
    let (mut matching, mut candidates, mut stats) = (Vec::new(), Vec::new(), SearchStats::new());
    let mut table = [[0u8; 256]; N];
    let n_leaves = pass.n_leaves as usize;
    let mut lists = Lists {
        matching: vec![0; n_leaves],
        candidates: vec![0; n_leaves],
        n_matching: 0,
        n_candidates: 0,
    };
    for q in range {
        tabulate(pass, pass.query_mapped.get(q), &mut table);
        (lists.n_matching, lists.n_candidates) = (0, 0);
        let mut from = 0;
        for &seed in pass.seeds[q].iter().chain([&pass.n_leaves]) {
            classify(&table, pass.indices, from..seed, &mut lists);
            if seed < pass.n_leaves {
                lists.candidates[lists.n_candidates] = seed;
                lists.n_candidates += 1;
            }
            from = seed + 1;
        }
        let m = &lists.matching[..lists.n_matching];
        let c = &lists.candidates[..lists.n_candidates];
        stats.cell_pairs_matched += m.len() as u64;
        stats.cell_pairs_filtered += (n_leaves - m.len() - c.len()) as u64;
        stats.matching_pairs += m.len() as u64;
        stats.candidate_pairs += c.len() as u64;
        if !m.is_empty() {
            matching.push((q as u32, m.to_vec()));
        }
        if !c.is_empty() {
            candidates.push((q as u32, c.to_vec()));
        }
    }
    (matching, candidates, stats)
}

/// One query vector's matching and candidate leaves, the first `n_*` of
/// each buffer (one slot per leaf, so every leaf is written without a
/// branch).
struct Lists {
    matching: Vec<u32>,
    candidates: Vec<u32>,
    n_matching: usize,
    n_candidates: usize,
}

/// Fill `table[i][x]` with the verdict bits for query coordinates `qm`
/// and the leaves whose cell index on pivot `i` is `x`: [`MATCH`] when the
/// leaf's upper edge lies within `τ − q − EPS` (Lemma 5), [`FILTER`] when
/// the leaf lies outside `[q − τ − EPS, q + τ + EPS]` (Lemma 3). A lemma
/// the flags turn off sets no bit.
fn tabulate<const N: usize>(pass: &Pass<'_>, qm: &[f32], table: &mut [[u8; 256]; N]) {
    let (m, tau, flags) = (pass.params.levels, pass.tau, pass.flags);
    for (row, &q) in table.iter_mut().zip(qm) {
        let edge = tau - q;
        let (below, above) = (q - tau - EPS, q + tau + EPS);
        for (x, verdict) in row[..1 << m].iter_mut().enumerate() {
            let (lower, upper) = pass.params.axis_bounds(x as u8, m);
            let matches = flags.lemma56_cell_match && edge > 0.0 && upper <= edge - EPS;
            let filters = flags.lemma34_cell_filter && (lower > above || upper < below);
            *verdict = (u8::from(matches) * MATCH) | (u8::from(filters) * FILTER);
        }
    }
}

/// Classify the leaves `leaves` by `table`: Lemma 5 on any pivot makes a
/// matching pair, else Lemma 3 on any pivot filters the pair, else it is
/// a candidate. Each leaf is written to both lists and kept by the one
/// its verdict names.
fn classify<const N: usize>(
    table: &[[u8; 256]; N],
    indices: &[u8],
    leaves: Range<u32>,
    lists: &mut Lists,
) {
    let cells = indices[leaves.start as usize * N..leaves.end as usize * N].chunks_exact(N);
    for (c, idx) in leaves.zip(cells) {
        let verdict = (0..N).fold(0, |v, i| v | table[i][idx[i] as usize]);
        let matches = verdict & MATCH != 0;
        lists.matching[lists.n_matching] = c;
        lists.n_matching += usize::from(matches);
        lists.candidates[lists.n_candidates] = c;
        lists.n_candidates += usize::from(verdict == 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lemmas;
    use crate::metric::{Euclidean, Metric};
    use crate::vector::VectorStore;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// Build stores + grids for a random instance; return everything needed
    /// to cross-check blocking coverage against brute force.
    struct Setup {
        query: VectorStore,
        targets: VectorStore,
        qmapped: MappedVectors,
        tmapped: MappedVectors,
        hgq: HierarchicalGrid,
        hgrv: HierarchicalGrid,
        params: GridParams,
    }

    fn setup(seed: u64, nq: usize, nt: usize, m: usize) -> Setup {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 12;
        let unit = |rng: &mut StdRng| {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= n);
            v
        };
        let mut query = VectorStore::new(dim);
        for _ in 0..nq {
            let v = unit(&mut rng);
            query.push(&v).unwrap();
        }
        let mut targets = VectorStore::new(dim);
        for _ in 0..nt {
            let v = unit(&mut rng);
            targets.push(&v).unwrap();
        }
        let pivots: Vec<Vec<f32>> = (0..3).map(|i| targets.get_raw(i * 3).to_vec()).collect();
        let qmapped = MappedVectors::build(&query, &pivots, &Euclidean, None).unwrap();
        let tmapped = MappedVectors::build(&targets, &pivots, &Euclidean, None).unwrap();
        let params = GridParams::new(3, m, 2.0 + 1e-4).unwrap();
        let hgq = HierarchicalGrid::build(params.clone(), &qmapped).unwrap();
        let hgrv = HierarchicalGrid::build(params.clone(), &tmapped).unwrap();
        Setup {
            query,
            targets,
            qmapped,
            tmapped,
            hgq,
            hgrv,
            params,
        }
    }

    impl Setup {
        /// The `HG_RV` leaf ordinal of target `ti`.
        fn leaf_of(&self, ti: usize) -> u32 {
            let key = self.params.leaf_key(self.tmapped.get(ti));
            self.hgrv.leaves().binary_search(&key).unwrap() as u32
        }
    }

    /// Coverage invariant: every true match (d(q,x) ≤ τ) appears either in
    /// a matching pair or in a candidate pair of q covering x's leaf cell.
    fn check_coverage(s: &Setup, out: &BlockOutput, tau: f32) {
        use std::collections::HashMap as Map;
        let matching: Map<u32, HashSet<u32>> = out
            .matching
            .iter()
            .map(|(q, c)| (*q, c.iter().copied().collect()))
            .collect();
        let candidates: Map<u32, HashSet<u32>> = out
            .candidates
            .iter()
            .map(|(q, c)| (*q, c.iter().copied().collect()))
            .collect();
        for qi in 0..s.query.len() {
            for ti in 0..s.targets.len() {
                let d = Euclidean.dist(s.query.get_raw(qi), s.targets.get_raw(ti));
                if d <= tau {
                    let leaf = s.leaf_of(ti);
                    let in_match = matching
                        .get(&(qi as u32))
                        .is_some_and(|c| c.contains(&leaf));
                    let in_cand = candidates
                        .get(&(qi as u32))
                        .is_some_and(|c| c.contains(&leaf));
                    assert!(
                        in_match || in_cand,
                        "true match q{qi} x{ti} (d={d}) not covered by blocking"
                    );
                }
            }
        }
        // Each vector's cells ascend: the order of their rows.
        for (_, cells) in out.matching.iter().chain(&out.candidates) {
            assert!(cells.windows(2).all(|w| w[0] < w[1]), "{cells:?}");
        }
    }

    /// Matching-pair soundness: every vector in a matched cell really is
    /// within τ of the query vector.
    fn check_matching_sound(s: &Setup, out: &BlockOutput, tau: f32) {
        let mut by_leaf = vec![Vec::new(); s.hgrv.leaves().len()];
        for ti in 0..s.targets.len() {
            by_leaf[s.leaf_of(ti) as usize].push(ti);
        }
        for (q, cells) in &out.matching {
            for &cell in cells {
                for &ti in &by_leaf[cell as usize] {
                    let d = Euclidean.dist(s.query.get_raw(*q as usize), s.targets.get_raw(ti));
                    assert!(d <= tau + 1e-4, "matching pair contains non-match (d={d})");
                }
            }
        }
    }

    #[test]
    fn coverage_and_soundness_small() {
        let s = setup(1, 12, 80, 3);
        let tau = 0.35;
        let mut stats = SearchStats::new();
        let out = block(
            &s.hgq,
            &s.hgrv,
            &s.qmapped,
            tau,
            LemmaFlags::all(),
            None,
            FastMap::default(),
            &mut stats,
        );
        check_coverage(&s, &out, tau);
        check_matching_sound(&s, &out, tau);
    }

    #[test]
    fn coverage_across_depths_and_taus() {
        for m in [1, 2, 4, 6] {
            for tau in [0.1f32, 0.5, 1.2] {
                let s = setup(m as u64 * 100 + 7, 8, 60, m);
                let mut stats = SearchStats::new();
                let out = block(
                    &s.hgq,
                    &s.hgrv,
                    &s.qmapped,
                    tau,
                    LemmaFlags::all(),
                    None,
                    FastMap::default(),
                    &mut stats,
                );
                check_coverage(&s, &out, tau);
                check_matching_sound(&s, &out, tau);
            }
        }
    }

    #[test]
    fn disabling_lemmas_only_grows_candidates() {
        let s = setup(3, 10, 100, 4);
        let tau = 0.4;
        let count = |flags: LemmaFlags| -> (u64, u64) {
            let mut stats = SearchStats::new();
            let out = block(
                &s.hgq,
                &s.hgrv,
                &s.qmapped,
                tau,
                flags,
                None,
                FastMap::default(),
                &mut stats,
            );
            check_coverage(&s, &out, tau);
            (stats.candidate_pairs, stats.matching_pairs)
        };
        let (cand_all, _) = count(LemmaFlags::all());
        let (cand_no34, _) = count(LemmaFlags::without_lemma34());
        let (cand_no56, match_no56) = count(LemmaFlags::without_lemma56());
        assert!(
            cand_no34 >= cand_all,
            "dropping filters cannot shrink candidates"
        );
        assert!(
            cand_no56 >= cand_all,
            "dropping matches moves pairs to candidates"
        );
        assert_eq!(match_no56, 0, "no matching pairs without lemma 5/6");
    }

    #[test]
    fn quick_browse_emits_shared_leaves_and_block_skips_them() {
        let s = setup(4, 10, 100, 3);
        let tau = 0.4;
        let vec_col: Vec<u32> = (0..s.targets.len() as u32).collect(); // 1 col per vector
        let (inv, _) = InvertedIndex::build(&s.params, &s.tmapped, &vec_col, None).unwrap();

        let mut stats = SearchStats::new();
        let mut seeded = FastMap::default();
        let handled = quick_browse(&s.hgq, &inv, &mut seeded, &mut stats);
        let out = block(
            &s.hgq,
            &s.hgrv,
            &s.qmapped,
            tau,
            LemmaFlags::all(),
            Some(&handled),
            seeded,
            &mut stats,
        );
        check_coverage(&s, &out, tau);
        // No (q, cell) pair may be duplicated.
        for (_, cells) in &out.candidates {
            let set: HashSet<_> = cells.iter().collect();
            assert_eq!(set.len(), cells.len(), "duplicate candidate pair");
        }
        // One pair per query vector whose leaf `HG_RV` also has.
        let shared = (0..s.query.len())
            .filter(|&q| {
                let key = s.params.leaf_key(s.qmapped.get(q));
                s.hgrv.leaves().binary_search(&key).is_ok()
            })
            .count();
        assert_eq!(stats.quick_browse_pairs, shared as u64);
        assert!(shared > 0, "the instance shares a leaf");
    }

    #[test]
    fn parallel_block_is_byte_identical() {
        for m in [1usize, 3, 5] {
            let s = setup(m as u64 * 13 + 2, 11, 90, m);
            for tau in [0.15f32, 0.45, 1.0] {
                let run = |policy: ExecPolicy| {
                    let mut stats = SearchStats::new();
                    let out = block_with(
                        &s.hgq,
                        &s.hgrv,
                        &s.qmapped,
                        tau,
                        LemmaFlags::all(),
                        None,
                        FastMap::default(),
                        &mut stats,
                        policy,
                    );
                    (out, stats.candidate_pairs, stats.matching_pairs)
                };
                let (seq, seq_cand, seq_match) = run(ExecPolicy::Sequential);
                for threads in [2usize, 4, 16] {
                    // `Fixed` bypasses the adaptive clamp: real fan-out
                    // even on single-core hosts.
                    for policy in [
                        ExecPolicy::Parallel { threads },
                        ExecPolicy::Fixed { threads },
                    ] {
                        let (par, par_cand, par_match) = run(policy);
                        assert_eq!(
                            seq.matching, par.matching,
                            "m={m} tau={tau} threads={threads}"
                        );
                        assert_eq!(
                            seq.candidates, par.candidates,
                            "m={m} tau={tau} threads={threads}"
                        );
                        assert_eq!(seq_cand, par_cand);
                        assert_eq!(seq_match, par_match);
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_block_preserves_quick_browse_seed_order() {
        let s = setup(9, 14, 120, 3);
        let tau = 0.4;
        let vec_col: Vec<u32> = (0..s.targets.len() as u32).collect();
        let (inv, _) = InvertedIndex::build(&s.params, &s.tmapped, &vec_col, None).unwrap();
        let run = |policy: ExecPolicy| {
            let mut stats = SearchStats::new();
            let mut seeded = FastMap::default();
            let handled = quick_browse(&s.hgq, &inv, &mut seeded, &mut stats);
            block_with(
                &s.hgq,
                &s.hgrv,
                &s.qmapped,
                tau,
                LemmaFlags::all(),
                Some(&handled),
                seeded,
                &mut stats,
                policy,
            )
        };
        let seq = run(ExecPolicy::Sequential);
        for policy in [
            ExecPolicy::Parallel { threads: 5 },
            ExecPolicy::Fixed { threads: 5 },
        ] {
            let par = run(policy);
            assert_eq!(seq.matching, par.matching, "{policy:?}");
            assert_eq!(seq.candidates, par.candidates, "{policy:?}");
        }
    }

    #[test]
    fn deterministic_output() {
        let s = setup(5, 6, 50, 3);
        let run = || {
            let mut stats = SearchStats::new();
            block(
                &s.hgq,
                &s.hgrv,
                &s.qmapped,
                0.3,
                LemmaFlags::all(),
                None,
                FastMap::default(),
                &mut stats,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.candidates, b.candidates);
    }

    /// A coordinate on the pivot axis near the cell boundary `k·w`: on
    /// it, `EPS` or half of it to either side, or anywhere in the span.
    fn near_boundary(rng: &mut StdRng, w: f32, cells: u32, span: f32) -> f32 {
        let offsets = [0.0, EPS, -EPS, EPS / 2.0, -EPS / 2.0, 2.0 * EPS, -2.0 * EPS];
        if rng.gen_range(0u32..5) == 0 {
            return rng.gen_range(0.0..span);
        }
        let k = rng.gen_range(0..=cells) as f32;
        (k * w + offsets[rng.gen_range(0..offsets.len())]).clamp(0.0, span)
    }

    /// The flags of bit pattern `bits`: all sixteen combinations.
    fn flags_of(bits: u8) -> LemmaFlags {
        LemmaFlags {
            lemma1_vector_filter: bits & 1 != 0,
            lemma2_vector_match: bits & 2 != 0,
            lemma34_cell_filter: bits & 4 != 0,
            lemma56_cell_match: bits & 8 != 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The pass classifies every ⟨query vector, leaf⟩ pair as Lemma 5
        /// then Lemma 3 over `GridParams::bounds(leaf, m)` do, the
        /// quick-browsed pair aside; its counters add up to |Q| · leaves;
        /// and three threads give what one does. Query coordinates and τ
        /// sit on cell boundaries and `EPS` off them, where a comparison
        /// that drops `EPS` decides otherwise.
        #[test]
        fn flat_pass_equals_brute_force_classification(
            n in 1usize..=4,
            m in 1usize..=6,
            nt in 1usize..160,
            nq in 1usize..12,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let span = 2.0f32;
            let params = GridParams::new(n, m, span).unwrap();
            let (w, cells) = (params.cell_width(m), 1u32 << m);
            let coords = |count: usize, rng: &mut StdRng| {
                let flat = (0..count * n).map(|_| near_boundary(rng, w, cells, span)).collect();
                MappedVectors::from_raw(n, flat).unwrap()
            };
            let tmapped = coords(nt, &mut rng);
            let qmapped = coords(nq, &mut rng);
            let tau = if rng.gen_range(0u32..3) == 0 {
                rng.gen_range(0.0..span / 2.0)
            } else {
                let offsets = [0.0, EPS / 2.0, -EPS / 2.0, 1.5 * EPS, -1.5 * EPS];
                (rng.gen_range(0..4u32) as f32 * w + offsets[rng.gen_range(0..offsets.len())]).max(0.0)
            };
            let vec_col: Vec<u32> = (0..nt as u32).collect();
            let (inv, _) = InvertedIndex::build(&params, &tmapped, &vec_col, None).unwrap();
            let hgq = HierarchicalGrid::build(params.clone(), &qmapped).unwrap();
            let leaves = inv.grid().leaves();
            for bits in 0..16u8 {
                let flags = flags_of(bits);
                for quick in [false, true] {
                    let run = |policy: ExecPolicy| {
                        let mut stats = SearchStats::new();
                        let mut seeded = FastMap::default();
                        let handled = quick.then(|| quick_browse(&hgq, &inv, &mut seeded, &mut stats));
                        let out = block_with(
                            &hgq, inv.grid(), &qmapped, tau, flags, handled.as_ref(), seeded,
                            &mut stats, policy,
                        );
                        (out, stats)
                    };
                    let (out, stats) = run(ExecPolicy::Sequential);
                    let (mut matching, mut candidates) = (Vec::new(), Vec::new());
                    for q in 0..nq {
                        let qm = qmapped.get(q);
                        let own = params.leaf_key(qm);
                        let (mut mq, mut cq) = (Vec::new(), Vec::new());
                        for (c, &key) in leaves.iter().enumerate() {
                            let b = params.bounds(key, m);
                            if quick && key == own {
                                cq.push(c as u32);
                            } else if flags.lemma56_cell_match
                                && lemmas::lemma5_vector_cell_match(qm, &b, tau)
                            {
                                mq.push(c as u32);
                            } else if !(flags.lemma34_cell_filter
                                && lemmas::lemma3_vector_cell_filter(qm, &b, tau))
                            {
                                cq.push(c as u32);
                            }
                        }
                        if !mq.is_empty() {
                            matching.push((q as u32, mq));
                        }
                        if !cq.is_empty() {
                            candidates.push((q as u32, cq));
                        }
                    }
                    let case = format!("flags {bits:04b} quick {quick} tau {tau}");
                    prop_assert_eq!(&out.matching, &matching, "{}", case);
                    prop_assert_eq!(&out.candidates, &candidates, "{}", case);
                    prop_assert_eq!(out.rv_leaves, leaves.len());
                    prop_assert_eq!(
                        stats.candidate_pairs + stats.matching_pairs + stats.cell_pairs_filtered,
                        (nq * leaves.len()) as u64,
                        "{}", case
                    );
                    prop_assert_eq!(stats.cell_pairs_matched, stats.matching_pairs);
                    let (par, par_stats) = run(ExecPolicy::Fixed { threads: 3 });
                    prop_assert_eq!(&par, &out, "{}", case);
                    prop_assert_eq!(&par_stats, &stats, "{}", case);
                }
            }
        }
    }
}
