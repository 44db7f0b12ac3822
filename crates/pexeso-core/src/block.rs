//! Blocking: the dual-grid traversal of Algorithm 1, plus quick browsing.
//!
//! `HG_Q` and `HG_RV` are built with the same number of levels; the
//! traversal descends both in lockstep, pruning pairs with Lemma 4,
//! accepting whole subtrees with Lemma 6, and classifying
//! ⟨query vector, leaf cell⟩ pairs at the leaves with Lemmas 3 and 5.
//! The output is the paper's two pair sets: *matching pairs* (no
//! verification needed) and *candidate pairs* (verified by
//! [`crate::verify`]).
//!
//! Every cell of a grid is a range of its sorted leaves ([`crate::grid`]),
//! so the output names `HG_RV`'s leaves by **ordinal**, which is the
//! inverted index's cell ordinal: a subtree Lemma 6 accepts is one range
//! of them, and verification needs no lookup. `HG_RV` is walked in
//! ascending order, so each query vector's matching cells, and its
//! candidate cells, come out in ascending ordinal order — the order of
//! their rows in memory.

//! ## Parallel blocking
//!
//! Every query vector lies in exactly one leaf of `HG_Q`, hence under
//! exactly one level-1 root child. [`block_with`] shards the root children
//! across an [`ExecPolicy`]'s threads; the per-shard accumulators are
//! therefore disjoint in query vectors and merge without conflicts,
//! keeping the output byte-identical to the sequential traversal.

use crate::config::{ExecPolicy, LemmaFlags};
use crate::exec;
use crate::grid::{Cell, HierarchicalGrid};
use crate::invindex::InvertedIndex;
use crate::lemmas;
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
/// pair whose two leaves share a key, and [`block`] given it skips them.
#[derive(Debug, Clone, Copy)]
pub struct QuickBrowsed;

/// Per-shard accumulators of the traversal, one list per query vector,
/// and per level a buffer for a cell's `HG_RV` children, which are made
/// once and paired with each `HG_Q` child.
struct Acc {
    matching: Vec<Vec<u32>>,
    candidates: Vec<Vec<u32>>,
    t_children: Vec<Vec<Cell>>,
}

struct Cfg<'a> {
    hgq: &'a HierarchicalGrid,
    hgrv: &'a HierarchicalGrid,
    query_mapped: &'a MappedVectors,
    tau: f32,
    flags: LemmaFlags,
    quick_browsed: bool,
}

/// Quick browsing (Section III-C): every leaf cell of `HG_Q` that also
/// exists in `HG_RV` refers to the same space region, so its query vectors
/// and the target cell can never be separated by Lemma 3/4 — emit them as
/// candidates immediately and let the traversal skip the identical-key
/// pair. One merge walk over the two sorted leaf arrays, the index's
/// side advanced by binary search.
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

/// Run Algorithm 1 over the two grids single-threaded. `quick_browsed`
/// says [`quick_browse`] ran (pass `None` to disable skipping); its
/// candidate pairs are supplied via `seed_candidates`.
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

/// [`block`] with explicit parallelism over the `HG_Q` root children.
/// Output is identical for every policy.
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
    debug_assert_eq!(
        hgq.params().levels,
        hgrv.params().levels,
        "grids must share m"
    );
    let cfg = Cfg {
        hgq,
        hgrv,
        query_mapped,
        tau,
        flags,
        quick_browsed: quick_browsed.is_some(),
    };
    let q_roots: Vec<Cell> = hgq.children(&hgq.root(), 0).collect();
    let t_roots: Vec<Cell> = hgrv.children(&hgrv.root(), 0).collect();

    // Traverse shards of root children; each query vector lives under one
    // root child, so shards fill disjoint lists.
    let n_q = query_mapped.len();
    let shards = exec::map_ranges_min(policy, q_roots.len(), 2, |range| {
        let mut acc = Acc {
            matching: vec![Vec::new(); n_q],
            candidates: vec![Vec::new(); n_q],
            t_children: vec![Vec::new(); hgq.params().levels],
        };
        let mut shard_stats = SearchStats::new();
        for q_child in &q_roots[range] {
            for t_child in &t_roots {
                descend(&cfg, &mut acc, q_child, t_child, 1, &mut shard_stats);
            }
        }
        (acc, shard_stats)
    });

    let (mut matching, mut candidates) = (vec![Vec::new(); n_q], vec![Vec::new(); n_q]);
    for (mut acc, shard_stats) in shards {
        stats.merge(&shard_stats);
        for q in 0..n_q {
            matching[q].append(&mut acc.matching[q]);
            candidates[q].append(&mut acc.candidates[q]);
        }
    }
    // The traversal skipped the quick-browsed leaf of each vector: put it
    // in its place.
    for (q, cells) in seed_candidates {
        let list = &mut candidates[q as usize];
        for c in cells {
            list.insert(list.partition_point(|&x| x < c), c);
        }
    }

    let pairs = |lists: &[Vec<u32>]| lists.iter().map(|c| c.len() as u64).sum::<u64>();
    stats.matching_pairs += pairs(&matching);
    stats.candidate_pairs += pairs(&candidates);
    let finalize = |lists: Vec<Vec<u32>>| -> Vec<(u32, Vec<u32>)> {
        let nonempty = lists.into_iter().enumerate().filter(|(_, c)| !c.is_empty());
        nonempty.map(|(q, c)| (q as u32, c)).collect()
    };
    BlockOutput {
        matching: finalize(matching),
        candidates: finalize(candidates),
        rv_leaves: hgrv.leaves().len(),
    }
}

fn descend(
    cfg: &Cfg<'_>,
    acc: &mut Acc,
    q_cell: &Cell,
    t_cell: &Cell,
    level: usize,
    stats: &mut SearchStats,
) {
    let m = cfg.hgq.params().levels;
    if level == m {
        leaf_pair(cfg, acc, q_cell, t_cell, stats);
        return;
    }
    let q_bounds = cfg.hgq.bounds(q_cell, level);
    let t_bounds = cfg.hgrv.bounds(t_cell, level);

    if cfg.flags.lemma56_cell_match && lemmas::lemma6_cell_cell_match(&q_bounds, &t_bounds, cfg.tau)
    {
        stats.cell_pairs_matched += 1;
        // Every query vector under q_cell matches every leaf under t_cell.
        for &q in cfg.hgq.vectors(q_cell.leaves.clone()) {
            acc.matching[q as usize].extend(t_cell.leaves.clone());
        }
        return;
    }
    if cfg.flags.lemma34_cell_filter
        && lemmas::lemma4_cell_cell_filter(&q_bounds, &t_bounds, cfg.tau)
    {
        stats.cell_pairs_filtered += 1;
        return;
    }
    // Children are expanded on both grids simultaneously (block nested
    // loop style, each grid scanned once).
    let mut t_children = std::mem::take(&mut acc.t_children[level]);
    t_children.clear();
    t_children.extend(cfg.hgrv.children(t_cell, level));
    for qc in cfg.hgq.children(q_cell, level) {
        for tc in &t_children {
            descend(cfg, acc, &qc, tc, level + 1, stats);
        }
    }
    acc.t_children[level] = t_children;
}

fn leaf_pair(cfg: &Cfg<'_>, acc: &mut Acc, q_cell: &Cell, t_cell: &Cell, stats: &mut SearchStats) {
    let (q_leaf, t_leaf) = (q_cell.leaves.start, t_cell.leaves.start);
    if cfg.quick_browsed && cfg.hgq.leaves()[q_leaf as usize] == cfg.hgrv.leaves()[t_leaf as usize]
    {
        return; // already emitted as candidates by quick browsing
    }
    let t_bounds = cfg.hgrv.bounds(t_cell, cfg.hgrv.params().levels);
    for &q in cfg.hgq.vectors(q_cell.leaves.clone()) {
        let qm = cfg.query_mapped.get(q as usize);
        if cfg.flags.lemma56_cell_match && lemmas::lemma5_vector_cell_match(qm, &t_bounds, cfg.tau)
        {
            stats.cell_pairs_matched += 1;
            acc.matching[q as usize].push(t_leaf);
        } else if cfg.flags.lemma34_cell_filter
            && lemmas::lemma3_vector_cell_filter(qm, &t_bounds, cfg.tau)
        {
            stats.cell_pairs_filtered += 1;
        } else {
            acc.candidates[q as usize].push(t_leaf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridParams;
    use crate::metric::{Euclidean, Metric};
    use crate::vector::VectorStore;
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
}
