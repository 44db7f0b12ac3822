//! Cost model and optimal-m selection (Section III-E).
//!
//! The expected verification cost of a query workload is
//! `E = Σ_{q ∈ C} N(SQR(q', τ))` (Eq. 1), where `C` is the multiset of
//! query-vector occurrences in candidate pairs. `N` is upper-bounded via
//! per-dimension PDFs of the mapped vectors (Eq. 2):
//! `N̂ = min_i ∫ PDFᵢ over [q'ᵢ − τ − w/2, q'ᵢ + τ + w/2]`, with `w` the
//! leaf-cell width — the minimum over dimensions because a vector survives
//! only if *no* dimension filters it.
//!
//! Blocking is cheap (Table VI shows it is negligible), so candidate sets
//! are obtained by actually blocking a sampled workload per candidate `m`;
//! only verification is estimated. The paper optimises fractional `m` by
//! gradient descent and ceils; we evaluate the (small, discrete) range
//! exhaustively and refine with a parabola fit, which is equivalent here
//! and deterministic.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::block::{block, BlockOutput};
use crate::config::{ExecPolicy, LemmaFlags, MAX_LEVELS};
use crate::error::Result;
use crate::exec;
use crate::grid::{GridParams, HierarchicalGrid};
use crate::invindex::InvertedIndex;
use crate::mapping::MappedVectors;
use crate::pdf::Pdf;
use crate::stats::SearchStats;
use crate::util::FastMap;

/// Vectors sampled from the repository as the query workload.
const WORKLOAD_SAMPLE: usize = 256;
/// Repository vectors sampled for blocking-based candidate counting.
const RV_SAMPLE: usize = 20_000;
/// Histogram bins per pivot dimension.
const PDF_BINS: usize = 64;
/// τ values of the synthetic workload, as fractions of the span
/// (the paper suggests 0–10 % of the maximum distance).
const WORKLOAD_TAUS: [f32; 3] = [0.02, 0.05, 0.08];

/// Per-dimension PDFs of the mapped repository vectors.
pub(crate) struct PivotSpacePdfs {
    pub dims: Vec<Pdf>,
    pub n_vectors: usize,
}

impl PivotSpacePdfs {
    pub fn build(mapped: &MappedVectors, span: f32) -> Self {
        let k = mapped.num_pivots();
        let dims = (0..k)
            .map(|i| Pdf::from_values(mapped.iter().map(|mv| mv[i]), 0.0, span, PDF_BINS))
            .collect();
        Self {
            dims,
            n_vectors: mapped.len(),
        }
    }

    /// Eq. 2: upper bound on the vectors inside `SQR(q', τ)` when the leaf
    /// cell width is `w`.
    pub(crate) fn n_max(&self, q_mapped: &[f32], tau: f32, cell_width: f32) -> f64 {
        let half = cell_width / 2.0;
        let frac = q_mapped
            .iter()
            .zip(self.dims.iter())
            .map(|(&q, h)| h.mass_in(q - tau - half, q + tau + half))
            .fold(f64::INFINITY, f64::min);
        frac * self.n_vectors as f64
    }
}

/// Expected verification cost (Eq. 1) of a sampled workload at grid depth
/// `m`, using real blocking for `C` and Eq. 2 for `N`.
fn expected_cost(
    m: usize,
    span: f32,
    workload: &MappedVectors,
    rv_sample: &MappedVectors,
    pdfs: &PivotSpacePdfs,
    taus: &[f32],
) -> Result<f64> {
    let params = GridParams::new(workload.num_pivots(), m, span)?;
    let hgq = HierarchicalGrid::build(params.clone(), workload)?;
    let hgrv = HierarchicalGrid::build_keys_only(params.clone(), rv_sample)?;
    let cell_width = params.cell_width(m);
    let mut total = 0.0f64;
    for &tau_frac in taus {
        let tau = tau_frac * span;
        let mut stats = SearchStats::new();
        let out = block(
            &hgq,
            &hgrv,
            workload,
            tau,
            LemmaFlags::all(),
            None,
            FastMap::default(),
            &mut stats,
        );
        for (q, cells) in &out.candidates {
            let nmax = pdfs.n_max(workload.get(*q as usize), tau, cell_width);
            total += nmax * cells.len() as f64;
        }
    }
    Ok(total)
}

/// Fit a parabola through three points around the discrete argmin and
/// return the fractional minimiser, mimicking the paper's gradient-descent
/// + ceiling step. Falls back to the discrete argmin at the range edges.
fn parabola_refine(costs: &[f64], argmin: usize) -> f64 {
    if argmin == 0 || argmin + 1 >= costs.len() {
        return (argmin + 1) as f64; // m is 1-based
    }
    let (y0, y1, y2) = (costs[argmin - 1], costs[argmin], costs[argmin + 1]);
    let denom = y0 - 2.0 * y1 + y2;
    if denom.abs() < 1e-12 {
        return (argmin + 1) as f64;
    }
    let offset = 0.5 * (y0 - y2) / denom;
    (argmin + 1) as f64 + offset.clamp(-1.0, 1.0)
}

/// Result of the optimal-m analysis, exposed for the Table VI companion
/// experiment ("optimal m obtained by analysis").
#[derive(Debug, Clone)]
pub struct LevelChoice {
    /// Expected cost per m (index 0 = m 1).
    pub costs: Vec<f64>,
    /// Fractional minimiser after parabola refinement.
    pub fractional_m: f64,
    /// Final integer choice: ceil(fractional), clamped to the legal range.
    pub chosen_m: usize,
}

/// Analyse the expected cost across m = 1..=MAX_LEVELS.
pub fn analyze_levels(rv_mapped: &MappedVectors, span: f32, seed: u64) -> Result<LevelChoice> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0571e5);

    // Workload: sampled repository vectors re-used as queries (option 1 in
    // Section III-E: "sample a subset of R as query workload").
    let n = rv_mapped.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    let workload_idx = &idx[..WORKLOAD_SAMPLE.min(n)];
    let k = rv_mapped.num_pivots();
    let mut wl_data = Vec::with_capacity(workload_idx.len() * k);
    for &i in workload_idx {
        wl_data.extend_from_slice(rv_mapped.get(i));
    }
    let workload = MappedVectors::from_raw(k, wl_data)?;

    // Sampled repository for blocking.
    let rv_idx = &idx[..RV_SAMPLE.min(n)];
    let mut rv_data = Vec::with_capacity(rv_idx.len() * k);
    for &i in rv_idx {
        rv_data.extend_from_slice(rv_mapped.get(i));
    }
    let rv_sample = MappedVectors::from_raw(k, rv_data)?;

    let pdfs = PivotSpacePdfs::build(rv_mapped, span);

    let mut costs = Vec::with_capacity(MAX_LEVELS);
    for m in 1..=MAX_LEVELS {
        costs.push(expected_cost(
            m,
            span,
            &workload,
            &rv_sample,
            &pdfs,
            &WORKLOAD_TAUS,
        )?);
    }
    let argmin = costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let fractional = parabola_refine(&costs, argmin);
    let chosen = (fractional.ceil() as usize).clamp(1, MAX_LEVELS);
    Ok(LevelChoice {
        costs,
        fractional_m: fractional,
        chosen_m: chosen,
    })
}

/// Cheap per-column lower bounds on the number of matching query
/// records, derived from the blocking output alone (no exact distances):
/// `lower[S]` counts query vectors whose *matching* cells (Lemma 5)
/// contain column `S` — each is a definite match, so the exact count is at
/// least `lower[S]`. [`topk_seed`] turns them into the threshold a top-k
/// scan starts from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMatchBounds {
    /// Definite matches per column (exact count is ≥ this).
    pub lower: Vec<u32>,
}

/// Compute [`ColumnMatchBounds`] with one walk over the matching cells'
/// rows. Deleted columns get 0. The column space is sharded across the
/// policy's threads exactly like verification, so the result is identical
/// for every policy. `_n_q` is not read; the parameter stays for the
/// benchmark ladder's call.
pub fn column_match_bounds(
    blocked: &BlockOutput,
    inv: &InvertedIndex,
    n_cols: usize,
    _n_q: usize,
    deleted: Option<&[bool]>,
    policy: ExecPolicy,
) -> ColumnMatchBounds {
    let shards = exec::map_ranges_min(policy, n_cols, 2, |cols| {
        bounds_range(blocked, inv, cols, deleted)
    });
    ColumnMatchBounds {
        lower: shards.into_iter().flatten().collect(),
    }
}

/// The bounds walk restricted to columns in `cols` (shard-local state).
fn bounds_range(
    blocked: &BlockOutput,
    inv: &InvertedIndex,
    cols: std::ops::Range<usize>,
    deleted: Option<&[bool]>,
) -> Vec<u32> {
    let (lo, hi) = (cols.start, cols.end);
    let mut lower = vec![0u32; hi - lo];
    // Generation stamps, one per query vector (gen = q + 1): a column with
    // several rows in one vector's matching cells counts once.
    let mut stamp = vec![0u32; hi - lo];
    let skip = |col: u32| -> bool { deleted.is_some_and(|d| d[col as usize]) };
    let row_col = inv.rows().col;
    for (q, cells) in &blocked.matching {
        let gen = q + 1;
        for &cell in cells {
            for &col in &row_col[inv.cell(cell)] {
                let c = col as usize;
                if c < lo || c >= hi || skip(col) {
                    continue;
                }
                if stamp[c - lo] != gen {
                    stamp[c - lo] = gen;
                    lower[c - lo] += 1;
                }
            }
        }
    }
    lower
}

/// Seed for the top-k threshold: the k-th best `(lower bound, column id)`
/// entry under the documented tie-break (count descending, then id
/// ascending). Because at least k columns reach their lower bounds exactly
/// or better, the final k-th best *exact* entry can never rank below this
/// seed — so [`crate::verify::verify_topk`] prunes any column that can no
/// longer reach the seed's count.
///
/// Returns `None` when fewer than `k` columns have a positive lower
/// bound (no sound seed exists; the scan then counts every column out).
pub fn topk_seed(bounds: &ColumnMatchBounds, k: usize) -> Option<(u32, u32)> {
    if k == 0 {
        return None;
    }
    let mut entries: Vec<(u32, u32)> = bounds
        .lower
        .iter()
        .enumerate()
        .filter(|&(_, &lb)| lb > 0)
        .map(|(c, &lb)| (lb, c as u32))
        .collect();
    if entries.len() < k {
        return None;
    }
    // Only the k-th best entry (descending beat order: higher count
    // first, then lower id) is needed — select, don't sort.
    let (_, kth, _) =
        entries.select_nth_unstable_by(k - 1, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    Some(*kth)
}

/// Choose the grid depth for index construction.
pub fn choose_levels(rv_mapped: &MappedVectors, span: f32, seed: u64) -> Result<usize> {
    Ok(analyze_levels(rv_mapped, span, seed)?.chosen_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnSet;
    use crate::metric::Euclidean;
    use rand::Rng;

    fn random_columns(seed: u64, n_cols: usize, col_len: usize) -> ColumnSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 12;
        let mut columns = ColumnSet::new(dim);
        for c in 0..n_cols {
            let mut vecs = Vec::new();
            for _ in 0..col_len {
                let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                v.iter_mut().for_each(|x| *x /= n);
                vecs.push(v);
            }
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns
                .add_column("t", &format!("c{c}"), c as u64, refs)
                .unwrap();
        }
        columns
    }

    fn setup(seed: u64) -> (MappedVectors, f32) {
        let columns = random_columns(seed, 20, 40);
        let pivots: Vec<Vec<f32>> = (0..3)
            .map(|i| columns.store().get_raw(i * 11).to_vec())
            .collect();
        let mapped = MappedVectors::build(columns.store(), &pivots, &Euclidean, None).unwrap();
        let span = 2.0f32.max(mapped.max_coord()) + 1e-4;
        (mapped, span)
    }

    #[test]
    fn pdfs_nmax_bounds_actual_counts() {
        let (mapped, span) = setup(1);
        let pdfs = PivotSpacePdfs::build(&mapped, span);
        let tau = 0.1 * span;
        // For a sample of query points, N̂ must upper-bound the true number
        // of vectors inside SQR (no dimension filters them).
        for qi in (0..mapped.len()).step_by(97) {
            let q = mapped.get(qi);
            let est = pdfs.n_max(q, tau, span / 16.0);
            let actual = (0..mapped.len())
                .filter(|&x| {
                    let xm = mapped.get(x);
                    q.iter().zip(xm.iter()).all(|(a, b)| (a - b).abs() <= tau)
                })
                .count() as f64;
            assert!(
                est + 1e-9 >= actual,
                "Eq.2 bound violated at q{qi}: est {est} < actual {actual}"
            );
        }
    }

    #[test]
    fn analyze_levels_returns_legal_choice() {
        let (mapped, span) = setup(2);
        let choice = analyze_levels(&mapped, span, 7).unwrap();
        assert_eq!(choice.costs.len(), MAX_LEVELS);
        assert!((1..=MAX_LEVELS).contains(&choice.chosen_m));
        assert!(choice.fractional_m > 0.0);
        assert!(choice.costs.iter().all(|&c| c.is_finite() && c >= 0.0));
    }

    #[test]
    fn choice_is_deterministic() {
        let (mapped, span) = setup(3);
        let a = choose_levels(&mapped, span, 9).unwrap();
        let b = choose_levels(&mapped, span, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn topk_seed_picks_kth_best_lower_bound() {
        let bounds = ColumnMatchBounds {
            lower: vec![0, 5, 3, 5, 1],
        };
        // Beat order over positive lower bounds: (5,1), (5,3), (3,2), (1,4).
        assert_eq!(topk_seed(&bounds, 1), Some((5, 1)));
        assert_eq!(topk_seed(&bounds, 2), Some((5, 3)));
        assert_eq!(topk_seed(&bounds, 3), Some((3, 2)));
        assert_eq!(topk_seed(&bounds, 4), Some((1, 4)));
        // Fewer than k columns with a positive lower bound: no sound seed.
        assert_eq!(topk_seed(&bounds, 5), None);
        assert_eq!(topk_seed(&bounds, 0), None);
    }

    #[test]
    fn parabola_refine_interior_and_edges() {
        // Symmetric parabola around index 2 (m = 3).
        let costs = vec![9.0, 4.0, 1.0, 4.0, 9.0];
        let frac = parabola_refine(&costs, 2);
        assert!((frac - 3.0).abs() < 1e-9);
        // Edge argmin falls back to the discrete value.
        assert_eq!(parabola_refine(&costs, 0), 1.0);
        assert_eq!(parabola_refine(&costs, 4), 5.0);
        // Skewed: vertex shifts toward the cheaper neighbour (m=3 side).
        let skew = vec![5.0, 1.0, 2.0, 8.0];
        let f = parabola_refine(&skew, 1);
        assert!(f > 2.0 && f < 3.0, "frac {f}");
    }
}
