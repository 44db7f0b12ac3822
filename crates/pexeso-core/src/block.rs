//! Blocking: the dual-grid traversal of Algorithm 1, plus quick browsing.
//!
//! `HG_Q` and `HG_RV` are built with the same number of levels; the
//! traversal descends both in lockstep, pruning pairs with Lemma 4,
//! accepting whole subtrees with Lemma 6, and classifying
//! ⟨query vector, leaf cell⟩ pairs at the leaves with Lemmas 3 and 5.
//! The output is the paper's two pair sets: *matching pairs* (no
//! verification needed) and *candidate pairs* (verified by
//! [`crate::verify`]).

//! ## Parallel blocking
//!
//! Every query vector lies in exactly one leaf of `HG_Q`, hence under
//! exactly one level-1 root child. [`block_with`] shards the root children
//! across an [`ExecPolicy`]'s threads; the per-shard accumulators are
//! therefore disjoint in query-vector keys and merge without conflicts,
//! keeping the output byte-identical to the sequential traversal.

use crate::config::{ExecPolicy, LemmaFlags};
use crate::exec;
use crate::grid::{CellKey, HierarchicalGrid};
use crate::invindex::InvertedIndex;
use crate::lemmas;
use crate::mapping::MappedVectors;
use crate::stats::SearchStats;
use crate::util::{FastMap, FastSet};

/// Blocking output: per query vector, the leaf cells it surely matches and
/// the leaf cells it must be verified against. Sorted by query vector id.
#[derive(Debug, Clone, Default)]
pub struct BlockOutput {
    pub matching: Vec<(u32, Vec<CellKey>)>,
    pub candidates: Vec<(u32, Vec<CellKey>)>,
}

/// Mutable accumulators of the traversal (kept separate from the grids so
/// the recursion can borrow children slices without cloning them).
struct Acc {
    matching: FastMap<u32, Vec<CellKey>>,
    candidates: FastMap<u32, Vec<CellKey>>,
    scratch_leaves: Vec<CellKey>,
    scratch_vectors: Vec<u32>,
}

struct Cfg<'a> {
    hgq: &'a HierarchicalGrid,
    hgrv: &'a HierarchicalGrid,
    query_mapped: &'a MappedVectors,
    tau: f32,
    flags: LemmaFlags,
    quick_browsed: Option<&'a FastSet<CellKey>>,
}

/// Quick browsing (Section III-C): every leaf cell of `HG_Q` that also
/// exists in `HG_RV` refers to the same space region, so its query vectors
/// and the target cell can never be separated by Lemma 3/4 — emit them as
/// candidates immediately and let the traversal skip the identical-key pair.
/// Returns the set of handled query-leaf keys.
pub fn quick_browse(
    hgq: &HierarchicalGrid,
    inv: &InvertedIndex,
    candidates: &mut FastMap<u32, Vec<CellKey>>,
    stats: &mut SearchStats,
) -> FastSet<CellKey> {
    let mut handled = FastSet::default();
    for key in hgq.leaf_keys() {
        if inv.contains(key) {
            handled.insert(key);
            for &q in hgq.leaf_vectors(key) {
                candidates.entry(q).or_default().push(key);
                stats.quick_browse_pairs += 1;
            }
        }
    }
    handled
}

/// Run Algorithm 1 over the two grids single-threaded. `quick_browsed` carries the keys
/// already handled by [`quick_browse`] (pass `None` to disable skipping).
/// Pre-seeded candidate pairs may be supplied via `seed_candidates`.
#[allow(clippy::too_many_arguments)]
pub fn block(
    hgq: &HierarchicalGrid,
    hgrv: &HierarchicalGrid,
    query_mapped: &MappedVectors,
    tau: f32,
    flags: LemmaFlags,
    quick_browsed: Option<&FastSet<CellKey>>,
    seed_candidates: FastMap<u32, Vec<CellKey>>,
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
    quick_browsed: Option<&FastSet<CellKey>>,
    mut seed_candidates: FastMap<u32, Vec<CellKey>>,
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
        quick_browsed,
    };
    let roots = hgq.root_children();

    // Traverse shards of root children; each query vector lives under one
    // root child, so shard accumulators have disjoint query keys.
    let shards = exec::map_ranges_min(policy, roots.len(), 2, |range| {
        let mut acc = Acc {
            matching: FastMap::default(),
            candidates: FastMap::default(),
            scratch_leaves: Vec::new(),
            scratch_vectors: Vec::new(),
        };
        let mut shard_stats = SearchStats::new();
        for &q_child in &roots[range] {
            for &t_child in hgrv.root_children() {
                descend(&cfg, &mut acc, q_child, t_child, 1, &mut shard_stats);
            }
        }
        (acc, shard_stats)
    });

    let mut matching: FastMap<u32, Vec<CellKey>> = FastMap::default();
    let mut traversed: FastMap<u32, Vec<CellKey>> = FastMap::default();
    for (acc, shard_stats) in shards {
        stats.merge(&shard_stats);
        for (q, cells) in acc.matching {
            debug_assert!(
                !matching.contains_key(&q),
                "query vector split across shards"
            );
            matching.insert(q, cells);
        }
        for (q, cells) in acc.candidates {
            debug_assert!(
                !traversed.contains_key(&q),
                "query vector split across shards"
            );
            traversed.insert(q, cells);
        }
    }
    // Per query vector: quick-browse seeds first, then traversal output —
    // the order the sequential algorithm produced when it started from the
    // seeded map.
    for (q, cells) in traversed {
        seed_candidates.entry(q).or_default().extend(cells);
    }

    let finalize = |map: FastMap<u32, Vec<CellKey>>| -> Vec<(u32, Vec<CellKey>)> {
        let mut v: Vec<(u32, Vec<CellKey>)> = map.into_iter().collect();
        v.sort_unstable_by_key(|(q, _)| *q);
        v
    };
    let out = BlockOutput {
        matching: finalize(matching),
        candidates: finalize(seed_candidates),
    };
    stats.matching_pairs += out
        .matching
        .iter()
        .map(|(_, c)| c.len() as u64)
        .sum::<u64>();
    stats.candidate_pairs += out
        .candidates
        .iter()
        .map(|(_, c)| c.len() as u64)
        .sum::<u64>();
    out
}

fn descend(
    cfg: &Cfg<'_>,
    acc: &mut Acc,
    q_key: CellKey,
    t_key: CellKey,
    level: usize,
    stats: &mut SearchStats,
) {
    let m = cfg.hgq.params().levels;
    if level == m {
        leaf_pair(cfg, acc, q_key, t_key, stats);
        return;
    }
    let q_bounds = cfg.hgq.params().bounds(q_key, level);
    let t_bounds = cfg.hgrv.params().bounds(t_key, level);

    if cfg.flags.lemma56_cell_match && lemmas::lemma6_cell_cell_match(&q_bounds, &t_bounds, cfg.tau)
    {
        stats.cell_pairs_matched += 1;
        // Every query vector under q_key matches every leaf under t_key.
        acc.scratch_leaves.clear();
        cfg.hgrv
            .collect_leaves(t_key, level, &mut acc.scratch_leaves);
        acc.scratch_vectors.clear();
        cfg.hgq
            .collect_vectors(q_key, level, &mut acc.scratch_vectors);
        for &q in &acc.scratch_vectors {
            acc.matching
                .entry(q)
                .or_default()
                .extend_from_slice(&acc.scratch_leaves);
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
    for &qc in cfg.hgq.children_of(q_key, level) {
        for &tc in cfg.hgrv.children_of(t_key, level) {
            descend(cfg, acc, qc, tc, level + 1, stats);
        }
    }
}

fn leaf_pair(
    cfg: &Cfg<'_>,
    acc: &mut Acc,
    q_key: CellKey,
    t_key: CellKey,
    stats: &mut SearchStats,
) {
    if q_key == t_key {
        if let Some(handled) = cfg.quick_browsed {
            if handled.contains(&q_key) {
                return; // already emitted as candidates by quick browsing
            }
        }
    }
    let t_bounds = cfg.hgrv.params().bounds(t_key, cfg.hgrv.params().levels);
    for &q in cfg.hgq.leaf_vectors(q_key) {
        let qm = cfg.query_mapped.get(q as usize);
        if cfg.flags.lemma56_cell_match && lemmas::lemma5_vector_cell_match(qm, &t_bounds, cfg.tau)
        {
            stats.cell_pairs_matched += 1;
            acc.matching.entry(q).or_default().push(t_key);
        } else if cfg.flags.lemma34_cell_filter
            && lemmas::lemma3_vector_cell_filter(qm, &t_bounds, cfg.tau)
        {
            stats.cell_pairs_filtered += 1;
        } else {
            acc.candidates.entry(q).or_default().push(t_key);
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

    /// Coverage invariant: every true match (d(q,x) ≤ τ) appears either in
    /// a matching pair or in a candidate pair of q covering x's leaf cell.
    fn check_coverage(s: &Setup, out: &BlockOutput, tau: f32) {
        use std::collections::HashMap as Map;
        let matching: Map<u32, HashSet<CellKey>> = out
            .matching
            .iter()
            .map(|(q, c)| (*q, c.iter().copied().collect()))
            .collect();
        let candidates: Map<u32, HashSet<CellKey>> = out
            .candidates
            .iter()
            .map(|(q, c)| (*q, c.iter().copied().collect()))
            .collect();
        for qi in 0..s.query.len() {
            for ti in 0..s.targets.len() {
                let d = Euclidean.dist(s.query.get_raw(qi), s.targets.get_raw(ti));
                if d <= tau {
                    let leaf = s.params.leaf_key(s.tmapped.get(ti));
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
    }

    /// Matching-pair soundness: every vector in a matched cell really is
    /// within τ of the query vector.
    fn check_matching_sound(s: &Setup, out: &BlockOutput, tau: f32) {
        let mut by_leaf: FastMap<CellKey, Vec<usize>> = FastMap::default();
        for ti in 0..s.targets.len() {
            by_leaf
                .entry(s.params.leaf_key(s.tmapped.get(ti)))
                .or_default()
                .push(ti);
        }
        for (q, cells) in &out.matching {
            for cell in cells {
                for &ti in by_leaf.get(cell).into_iter().flatten() {
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
        let inv = InvertedIndex::build(&s.params, &s.tmapped, &vec_col, None).unwrap();

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
        if !handled.is_empty() {
            assert!(stats.quick_browse_pairs > 0);
        }
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
        let inv = InvertedIndex::build(&s.params, &s.tmapped, &vec_col, None).unwrap();
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
