//! Deterministic parallel execution layer.
//!
//! Every hot stage of the PEXESO pipeline — pivot mapping, grid and
//! inverted-index construction, blocking, verification, multi-query and
//! out-of-core search — is expressed as *independent work over contiguous
//! index ranges* and funnelled through the helpers here. The helpers shard
//! the range across the threads of an [`ExecPolicy`] with
//! `std::thread::scope` and merge shard results in range order, so the
//! output is byte-identical to a sequential run (there are no
//! order-sensitive floating-point reductions across shards). That property
//! is what lets `ExecPolicy` be a pure throughput knob: the differential
//! tests in `tests/exactness.rs` pin `Sequential ≡ Parallel` exactly.
//!
//! No external runtime (rayon et al.) is used: the registry-less build
//! environment bakes in only the standard library, and scoped threads are
//! all these fork-join shapes need.
//!
//! ## Adaptive parallelism
//!
//! [`ExecPolicy::Parallel`]'s thread count is a *ceiling*, not a command:
//! every helper clamps it to the machine's available cores and to a
//! per-shard work break-even before spawning anything, so a parallel
//! policy degenerates to the sequential path whenever threads cannot pay
//! for themselves (an 8-thread request on a 1-core box, or a shard that
//! would carry less work than one spawn+join costs). The break-even floor
//! is calibrated once per process against the actual measured spawn cost.
//! [`ExecPolicy::Fixed`] bypasses the clamp and shards exactly as asked —
//! it keeps the sharded merge code exercised by differential tests on
//! machines where the adaptive policy would (correctly) never shard.
//! That clamp is what lets a query default to [`ExecPolicy::auto`]: it
//! costs nothing where it cannot help.
//!
//! ## The unit loop
//!
//! A deployment's partitions are not a contiguous range of equal items
//! but a handful of *units* of very uneven cost, so they get their own
//! loop, [`try_map_units`] — the only one. Each unit carries a weight;
//! the loop hands units out heaviest first from one atomic cursor (with
//! the largest partition started last, one thread ends up holding most
//! of the query), the calling thread claims units alongside the
//! `threads − 1` helpers it spawns, and the fan-out is capped at
//! `total weight / (MIN_PARALLEL_ITEMS × spawn cost)` threads — the
//! break-even of every other stage, in the unit's currency. Results
//! come back in unit order and an error is the lowest-indexed one,
//! whatever the claim order was.

use std::ops::Range;
use std::sync::OnceLock;

use crate::config::ExecPolicy;

/// Below this many work items the thread-spawn overhead dominates and the
/// helpers fall back to the sequential path regardless of policy. Spawning
/// and joining a thread costs on the order of tens of microseconds, so a
/// shard needs roughly a millisecond of work to pay for itself; stages
/// with very cheap per-item cost pass a larger `min_items` of their own.
pub(crate) const MIN_PARALLEL_ITEMS: usize = 2048;

/// Spawn+join cost (ns) the `min_items` floors are written against. The
/// calibration below scales the floors up when the machine is slower.
const BASELINE_SPAWN_NS: u64 = 25_000;

/// The machine's available parallelism, resolved once.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// One-time spawn-cost calibration: how many times more expensive a
/// scoped spawn+join is on this machine than the [`BASELINE_SPAWN_NS`]
/// the `min_items` floors assume. The minimum of a few trials filters
/// scheduler noise; capped at 8× so one pathological measurement cannot
/// effectively disable parallelism.
fn spawn_cost_factor() -> usize {
    static FACTOR: OnceLock<usize> = OnceLock::new();
    *FACTOR.get_or_init(|| {
        let mut best = u64::MAX;
        for _ in 0..4 {
            let start = std::time::Instant::now();
            std::thread::scope(|scope| {
                scope.spawn(|| {});
            });
            best = best.min(start.elapsed().as_nanos() as u64);
        }
        (best / BASELINE_SPAWN_NS).clamp(1, 8) as usize
    })
}

/// Resolve how many shards a compute-bound stage may use for `n` items:
/// the policy's requested ceiling, clamped to the machine's cores and to
/// the number of shards that each still carry at least `min_items` items
/// (scaled by the calibrated spawn cost). [`ExecPolicy::Fixed`] is exempt
/// from the clamp. The result is a thread *count* only — sharding stays
/// deterministic, so the clamp can never change results.
fn plan_threads(policy: ExecPolicy, n: usize, min_items: usize) -> usize {
    match policy {
        ExecPolicy::Sequential => 1,
        ExecPolicy::Fixed { threads } => threads.max(1),
        ExecPolicy::Parallel { .. } => {
            let requested = policy.effective_threads();
            if requested <= 1 {
                return 1;
            }
            let floor = min_items.max(1).saturating_mul(spawn_cost_factor());
            requested.min(hardware_threads()).min((n / floor).max(1))
        }
    }
}

/// Thread count for the *coarse* unit loop ([`try_map_units`]), one
/// entry of `weights` per unit. `Parallel` is clamped to the unit count,
/// to twice the core count — a unit that loads its partition from disk
/// waits on I/O, and a waiting thread costs nothing while another unit's
/// read is in flight, so overlap pays even on a single core — and to the
/// same break-even every other stage uses: no more threads than
/// `total weight / (MIN_PARALLEL_ITEMS × spawn cost)`, so a smoke-sized
/// lake never pays a spawn for microseconds of work. The weight is
/// vectors for resident units; a disk-backed unit's is its file bytes,
/// which clears the floor for any file worth overlapping. `Fixed` is
/// clamped to the unit count only.
fn plan_unit_threads(policy: ExecPolicy, weights: &[u64]) -> usize {
    let n = weights.len().max(1);
    match policy {
        ExecPolicy::Sequential => 1,
        ExecPolicy::Fixed { threads } => threads.max(1).min(n),
        ExecPolicy::Parallel { .. } => {
            let requested = policy.effective_threads().min(n);
            if requested <= 1 {
                return 1;
            }
            let floor = MIN_PARALLEL_ITEMS.saturating_mul(spawn_cost_factor()) as u64;
            let total = weights.iter().fold(0u64, |a, &w| a.saturating_add(w));
            let paid_for = usize::try_from(total / floor).unwrap_or(usize::MAX);
            requested.min(hardware_threads() * 2).min(paid_for.max(1))
        }
    }
}

/// Split `0..n` into at most `threads` contiguous, non-empty ranges.
fn shards(n: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.clamp(1, n.max(1));
    let chunk = n.div_ceil(threads);
    (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Run `f` over contiguous shards of `0..n`, returning one result per shard
/// in range order. Sequential policies (or small `n`) run a single shard on
/// the calling thread.
pub fn map_ranges<T, F>(policy: ExecPolicy, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    map_ranges_min(policy, n, MIN_PARALLEL_ITEMS, f)
}

/// [`map_ranges`] with an explicit parallelism cut-off, for stages whose
/// per-item cost is large (e.g. one column or one whole query per item).
pub fn map_ranges_min<T, F>(policy: ExecPolicy, n: usize, min_items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let threads = plan_threads(policy, n, min_items);
    if threads <= 1 || n < 2 {
        return vec![f(0..n)];
    }
    let ranges = shards(n, threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let f = &f;
                scope.spawn(move || f(r))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pexeso worker thread panicked"))
            .collect()
    })
}

/// Fill `out` (viewed as `n = out.len() / width` logical slots of `width`
/// elements) by handing each shard of slots its disjoint `&mut` window.
/// `f(slot_range, window)` writes `window[(i - slot_range.start) * width ..]`
/// for each slot `i`. Deterministic: slot values never depend on sharding.
pub fn fill_slots<T, F>(policy: ExecPolicy, out: &mut [T], width: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    fill_slots_min(policy, out, width, MIN_PARALLEL_ITEMS, f)
}

/// [`fill_slots`] with an explicit parallelism cut-off, for stages whose
/// per-slot cost is far from the default assumption (e.g. leaf-key packing
/// at a few ns per slot needs far more slots to amortise a spawn).
pub fn fill_slots_min<T, F>(policy: ExecPolicy, out: &mut [T], width: usize, min_items: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(width > 0, "slot width must be positive");
    debug_assert_eq!(out.len() % width, 0);
    let n = out.len() / width;
    let threads = plan_threads(policy, n, min_items);
    if threads <= 1 || n < 2 {
        f(0..n, out);
        return;
    }
    let ranges = shards(n, threads);
    std::thread::scope(|scope| {
        let mut rest = out;
        for r in ranges {
            let (window, tail) = rest.split_at_mut((r.end - r.start) * width);
            rest = tail;
            let f = &f;
            scope.spawn(move || f(r, window));
        }
    });
}

/// The order [`try_map_units`] hands units out in: heaviest first, equal
/// weights in index order.
fn claim_order(weights: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    order
}

/// The one loop for *coarse* units of uneven cost (one partition of a
/// deployment per unit, `weights[i]` an estimate of unit `i`'s cost).
/// `f(i)` runs at most once per unit and the results come back in unit
/// order, so a caller merging them cannot tell the policy.
///
/// Units are claimed from one atomic cursor in descending
/// `(weight, then index)` order — largest first, so the biggest unit
/// starts at time zero instead of landing on whichever thread happens to
/// reach its index last (the longest-processing-time rule; assignment of
/// units to threads is dynamic, which is safe exactly because each
/// unit's result is independent of every other). The calling thread
/// claims units like any helper: `threads − 1` helpers are spawned, and
/// a plan of one thread runs `f` inline in index order.
///
/// Failure is a sequential `?` loop's: the error returned is the
/// lowest-indexed failing unit's. Once a unit has failed, units above it
/// are no longer started (units in flight run to completion and are
/// discarded); units below it still run, because one of them failing is
/// what a sequential loop would have reported. A panic inside `f` — on a
/// helper or on the calling thread — is that unit failing with
/// `on_panic()`, so a long-running server answers one error instead of
/// dying.
pub fn try_map_units<T, E, F>(
    policy: ExecPolicy,
    weights: &[u64],
    on_panic: impl Fn() -> E + Sync,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let n = weights.len();
    let threads = plan_unit_threads(policy, weights);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let order = claim_order(weights);
    let next = AtomicUsize::new(0);
    // Lowest failed unit so far. Relaxed: it publishes nothing (results
    // travel through the mutex), and a stale read only starts a unit
    // whose result is then discarded.
    let first_err = AtomicUsize::new(usize::MAX);
    let mut out: Vec<Option<Result<T, E>>> = (0..n).map(|_| None).collect();
    let slots = std::sync::Mutex::new(&mut out);
    let claim = || {
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            if i > first_err.load(Ordering::Relaxed) {
                continue;
            }
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)))
                .unwrap_or_else(|_| Err(on_panic()));
            if r.is_err() {
                first_err.fetch_min(i, Ordering::Relaxed);
            }
            slots.lock().expect("result lock poisoned")[i] = Some(r);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(claim);
        }
        claim();
    });
    // A unit is skipped only above a failed one, so in unit order the
    // error comes first and `collect` stops there.
    out.into_iter()
        .map(|slot| slot.expect("a unit is skipped only after a lower one failed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_range_without_overlap() {
        for n in [0usize, 1, 7, 100, 2048, 10_001] {
            for t in [1usize, 2, 3, 8, 64] {
                let s = shards(n, t);
                let mut covered = 0;
                let mut expected_start = 0;
                for r in &s {
                    assert_eq!(r.start, expected_start);
                    assert!(!r.is_empty());
                    covered += r.len();
                    expected_start = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn map_ranges_parallel_equals_sequential() {
        let n = 50_000;
        let work = |r: Range<usize>| -> u64 { r.map(|i| (i as u64).wrapping_mul(31)).sum() };
        let seq: u64 = map_ranges(ExecPolicy::Sequential, n, work)
            .into_iter()
            .sum();
        // Fixed bypasses the adaptive clamp, so the sharded merge genuinely
        // runs even on a single-core machine; Parallel may legitimately
        // degrade to one shard there but must still agree.
        for policy in [
            ExecPolicy::Fixed { threads: 7 },
            ExecPolicy::Parallel { threads: 7 },
        ] {
            let par: u64 = map_ranges(policy, n, work).into_iter().sum();
            assert_eq!(seq, par, "{policy:?}");
        }
    }

    #[test]
    fn fill_slots_parallel_equals_sequential() {
        let n = 10_000;
        let width = 3;
        let f = |slots: Range<usize>, window: &mut [u32]| {
            for (k, i) in slots.enumerate() {
                for w in 0..width {
                    window[k * width + w] = (i * width + w) as u32;
                }
            }
        };
        let mut seq = vec![0u32; n * width];
        fill_slots(ExecPolicy::Sequential, &mut seq, width, f);
        for policy in [
            ExecPolicy::Fixed { threads: 5 },
            ExecPolicy::Parallel { threads: 5 },
        ] {
            let mut par = vec![0u32; n * width];
            fill_slots(policy, &mut par, width, f);
            assert_eq!(seq, par, "{policy:?}");
        }
        assert_eq!(seq[7], 7);
    }

    #[test]
    fn adaptive_clamp_bounds_parallel_but_not_fixed() {
        let hw = hardware_threads();
        assert!(hw >= 1);
        // Parallel: never above the core count, never sharding work below
        // the spawn break-even, and never zero.
        for (n, min_items) in [(0usize, 2048usize), (100, 2048), (1 << 20, 2048), (12, 2)] {
            let t = plan_threads(ExecPolicy::Parallel { threads: 64 }, n, min_items);
            assert!(t >= 1 && t <= hw, "n={n} -> {t}");
            if t > 1 {
                assert!(n / t >= min_items, "shard below break-even: n={n} t={t}");
            }
        }
        // Too little total work is always one shard, whatever the ceiling.
        assert_eq!(
            plan_threads(ExecPolicy::Parallel { threads: 64 }, 100, 2048),
            1
        );
        // Fixed is exempt from every clamp.
        assert_eq!(
            plan_threads(ExecPolicy::Fixed { threads: 64 }, 100, 2048),
            64
        );
        assert_eq!(plan_threads(ExecPolicy::Sequential, 1 << 20, 1), 1);
    }

    #[test]
    fn unit_planning_clamps_parallel_to_cores_and_weight_but_not_fixed() {
        let hw = hardware_threads();
        let heavy = [u64::MAX / 64; 64];
        let par = ExecPolicy::Parallel { threads: 64 };
        // Within 2× cores and the unit count for Parallel, exact for Fixed.
        let t = plan_unit_threads(par, &heavy);
        assert!(t >= 1 && t <= hw * 2, "{t}");
        assert!(plan_unit_threads(par, &heavy[..3]) <= 3);
        assert_eq!(
            plan_unit_threads(ExecPolicy::Fixed { threads: 6 }, &heavy),
            6
        );
        assert_eq!(
            plan_unit_threads(ExecPolicy::Fixed { threads: 6 }, &heavy[..3]),
            3
        );
        assert_eq!(plan_unit_threads(ExecPolicy::Sequential, &heavy), 1);
        // Below the weight floor a Parallel fan-out is one thread however
        // many units and cores there are; two floors' worth pays for at
        // most two. Fixed ignores the weights.
        let floor = (MIN_PARALLEL_ITEMS * spawn_cost_factor()) as u64;
        let light = [floor / 8; 4];
        assert_eq!(plan_unit_threads(par, &light), 1);
        assert_eq!(plan_unit_threads(ExecPolicy::auto(), &light), 1);
        assert!(plan_unit_threads(par, &[floor / 2; 4]) <= 2);
        assert_eq!(plan_unit_threads(par, &[0; 4]), 1);
        assert_eq!(
            plan_unit_threads(ExecPolicy::Fixed { threads: 3 }, &light),
            3
        );
        assert_eq!(plan_unit_threads(ExecPolicy::Fixed { threads: 3 }, &[]), 1);
    }

    /// Weights far above any calibrated floor, so `Parallel` fans out
    /// wherever there is a second core.
    const HEAVY: u64 = 1 << 40;

    #[test]
    fn try_map_units_claims_largest_first_and_returns_unit_order() {
        use std::sync::atomic::{AtomicBool, Ordering};
        assert_eq!(claim_order(&[1, 1, 1, 10]), vec![3, 0, 1, 2]);
        assert_eq!(claim_order(&[5, 7, 5, 7]), vec![1, 3, 0, 2]);
        for threads in [2, 3] {
            // The first claim is unit 3's; every other unit waits for it
            // to be recorded, so the record shows the claim order however
            // the threads are scheduled (and a loop that claimed in index
            // order would run into the timeout and fail the assert).
            let heavy_started = AtomicBool::new(false);
            let started = std::sync::Mutex::new(Vec::new());
            let out = try_map_units(
                ExecPolicy::Fixed { threads },
                &[1, 1, 1, 10],
                || "panic",
                |i| {
                    let waiting = std::time::Instant::now();
                    while i != 3
                        && !heavy_started.load(Ordering::SeqCst)
                        && waiting.elapsed() < std::time::Duration::from_secs(2)
                    {
                        std::thread::yield_now();
                    }
                    started.lock().unwrap().push(i);
                    heavy_started.store(true, Ordering::SeqCst);
                    Ok::<_, &str>(i * 2)
                },
            );
            assert_eq!(out.unwrap(), vec![0, 2, 4, 6], "results in unit order");
            let mut started = started.into_inner().unwrap();
            assert_eq!(started[0], 3, "the heaviest unit is claimed first");
            started.sort_unstable();
            assert_eq!(started, vec![0, 1, 2, 3], "every unit ran exactly once");
        }
        // One thread is the plain loop: index order, whatever the weights.
        let order = std::sync::Mutex::new(Vec::new());
        try_map_units(
            ExecPolicy::Sequential,
            &[1, 1, 1, 10],
            || (),
            |i| {
                order.lock().unwrap().push(i);
                Ok::<_, ()>(())
            },
        )
        .unwrap();
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_map_units_reports_lowest_error() {
        for policy in [
            ExecPolicy::Sequential,
            ExecPolicy::Parallel { threads: 4 },
            ExecPolicy::Fixed { threads: 3 },
        ] {
            let ok = try_map_units(policy, &[HEAVY; 10], || "panic", |i| Ok::<_, &str>(i * 2));
            assert_eq!(ok.unwrap(), (0..10).map(|i| i * 2).collect::<Vec<_>>());

            // Whether the failing units are claimed before every unit
            // below them (ascending weights) or after (descending), the
            // answer is the lowest-indexed failure, like a sequential `?`
            // loop's.
            let ascending: Vec<u64> = (0..10).map(|i| HEAVY + i).collect();
            let descending: Vec<u64> = (0..10).map(|i| HEAVY - i).collect();
            for weights in [&ascending, &descending] {
                let err = try_map_units(
                    policy,
                    weights,
                    || "panic".to_string(),
                    |i| {
                        if i == 3 || i >= 6 {
                            Err(format!("unit {i} failed"))
                        } else {
                            Ok(i)
                        }
                    },
                );
                assert_eq!(err.unwrap_err(), "unit 3 failed", "{policy:?}");
            }
        }
    }

    #[test]
    fn try_map_units_converts_panics_on_helper_and_caller_to_errors() {
        // Fixed{2} over two units: the caller and the one helper each
        // claim exactly one (the barrier holds the first claimer inside
        // its unit until the other thread has claimed the second), so
        // with both units panicking one panic is on the calling thread
        // and one on the helper.
        let caller = std::thread::current().id();
        let on_caller = std::sync::Mutex::new(Vec::new());
        let gate = std::sync::Barrier::new(2);
        let err = try_map_units(
            ExecPolicy::Fixed { threads: 2 },
            &[2, 1],
            || "worker panicked",
            |i| -> Result<usize, &str> {
                on_caller
                    .lock()
                    .unwrap()
                    .push(std::thread::current().id() == caller);
                gate.wait();
                panic!("boom in unit {i}");
            },
        );
        assert_eq!(err.unwrap_err(), "worker panicked");
        let mut on_caller = on_caller.into_inner().unwrap();
        on_caller.sort_unstable();
        assert_eq!(on_caller, vec![false, true]);

        // And one panicking unit among healthy ones (2× cores keeps
        // `Parallel` at two threads or more on any machine).
        for policy in [
            ExecPolicy::Parallel { threads: 3 },
            ExecPolicy::Fixed { threads: 3 },
        ] {
            let err = try_map_units(
                policy,
                &[HEAVY; 6],
                || "worker panicked",
                |i| {
                    if i == 2 {
                        panic!("boom");
                    }
                    Ok::<_, &str>(i)
                },
            );
            assert_eq!(err.unwrap_err(), "worker panicked", "{policy:?}");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let none = try_map_units(ExecPolicy::auto(), &[], || (), Ok::<usize, ()>);
        assert_eq!(none.unwrap().len(), 0);
        let v = map_ranges(ExecPolicy::auto(), 0, |r| r.len());
        assert_eq!(v.into_iter().sum::<usize>(), 0);
        let mut empty: [u8; 0] = [];
        fill_slots(ExecPolicy::auto(), &mut empty, 4, |_, _| {});
    }
}
