//! Property tests for the serve frame encoding of the unified query API:
//! any [`Query`] the builder can express survives the trip through
//! [`wire_request`] → `encode_request` → `decode_request` unchanged, a
//! cut or corrupted frame decodes canonically or not at all, and the
//! daemon's [`admit_query`] changes a decoded query only where it means
//! to — the `Query` a backend executes behind a daemon is the `Query` the
//! caller built. An explained `HITS` reply, whatever its funnel counters
//! and seeds, survives the trip back unchanged, and no cut of it decodes.

use std::time::Duration;

use pexeso_core::config::{ExecPolicy, JoinThreshold, LemmaFlags, Tau};
use pexeso_core::explain::FunnelCounters;
use pexeso_core::query::{Exceeded, Query, QueryOutcome};
use pexeso_core::trace::TraceLevel;
use pexeso_core::vector::VectorStore;
use pexeso_serve::conn::{admit_query, clamp_policy, MAX_REQUEST_THREADS};
use pexeso_serve::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, HitsExt, HitsReply, Reply, Request,
    WireHit,
};
use pexeso_serve::wire_request;
use proptest::prelude::*;

/// Deterministically build a `Query` from primitive proptest inputs,
/// covering both modes, both τ/T forms, all four policy shapes (thread
/// counts of zero included), all lemma toggles, every budget combination
/// and a metric that is absent, a real name, or longer than any real one.
#[allow(clippy::too_many_arguments)]
fn make_query(
    topk: bool,
    tau_ratio: bool,
    tau: f32,
    t_count: bool,
    t: f64,
    k: usize,
    policy: u8,
    threads: usize,
    lemma_mask: u8,
    quick_browse: bool,
    max_dist: u64,
    deadline_ms: u64,
    metric: u8,
    long_metric: usize,
) -> Query {
    let tau = if tau_ratio {
        Tau::Ratio(tau.clamp(0.0, 1.0))
    } else {
        Tau::Absolute(tau.abs())
    };
    let mut q = if topk {
        Query::topk(tau, k)
    } else if t_count {
        Query::threshold(tau, JoinThreshold::Count(t as usize))
    } else {
        Query::threshold(tau, JoinThreshold::Ratio(t.clamp(0.01, 1.0)))
    };
    q = q
        .with_flags(LemmaFlags {
            lemma1_vector_filter: lemma_mask & 1 != 0,
            lemma2_vector_match: lemma_mask & 2 != 0,
            lemma34_cell_filter: lemma_mask & 4 != 0,
            lemma56_cell_match: lemma_mask & 8 != 0,
        })
        .quick_browse(quick_browse)
        .with_policy(match policy {
            0 => ExecPolicy::Sequential,
            1 => ExecPolicy::auto(),
            2 => ExecPolicy::Parallel { threads },
            _ => ExecPolicy::Fixed { threads },
        });
    match metric {
        0 => {}
        1 => q = q.expect_metric("euclidean"),
        _ => q = q.expect_metric(&"m".repeat(long_metric)),
    }
    if max_dist > 0 {
        q = q.with_max_distance_computations(max_dist);
    }
    if deadline_ms > 0 {
        q = q.with_deadline(Duration::from_millis(deadline_ms));
    }
    q
}

fn sample_store(dim: usize, n: usize) -> VectorStore {
    let mut store = VectorStore::new(dim);
    for i in 0..n {
        let v: Vec<f32> = (0..dim).map(|d| ((i * dim + d) as f32).sin()).collect();
        store.push(&v).unwrap();
    }
    store
}

fn trace_level(i: u8) -> TraceLevel {
    [TraceLevel::Off, TraceLevel::Phases, TraceLevel::Detail][i as usize]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Query builder → wire request → frame bytes → request: the very
    /// query and column come back.
    #[test]
    fn query_roundtrips_through_frame_encoding(
        topk in 0u8..2,
        tau_ratio in 0u8..2,
        tau in 0.0f32..1.0,
        t_count in 0u8..2,
        t in 0.0f64..1.0,
        k in 0usize..100,
        policy in 0u8..4,
        threads in 0usize..40,
        lemma_mask in 0u8..16,
        quick_browse in 0u8..2,
        max_dist in 0u64..1_000_000,
        deadline_ms in 0u64..10_000,
        metric in 0u8..3,
        long_metric in 65usize..300,
        trace in 0u8..3,
        rid in 0u64..3,
        explain in 0u8..2,
        dim in 1usize..8,
        n in 1usize..5,
    ) {
        let mut query = make_query(
            topk != 0,
            tau_ratio != 0,
            tau,
            t_count != 0,
            t * 100.0,
            k,
            policy,
            threads,
            lemma_mask,
            quick_browse != 0,
            max_dist,
            deadline_ms,
            metric,
            long_metric,
        )
        .with_trace(trace_level(trace))
        .with_explain(explain != 0);
        if rid > 0 {
            query = query.with_request_id(rid);
        }
        let vectors = sample_store(dim, n);
        let decoded = decode_request(&encode_request(&wire_request(&query, &vectors))).unwrap();
        prop_assert_eq!(decoded, Request::Query { query, vectors });
    }

    /// `admit_query` on a decoded `wire_request(q, v)` gives `q` back but
    /// for what the daemon changes on purpose: the policy is clamped to
    /// its thread ceiling, the deadline is the client's (ceiled to whole
    /// milliseconds) minus the queue wait.
    #[test]
    fn admit_query_changes_only_policy_and_deadline(
        topk in 0u8..2,
        tau_ratio in 0u8..2,
        tau in 0.0f32..1.0,
        t_count in 0u8..2,
        t in 0.0f64..1.0,
        k in 0usize..100,
        policy in 0u8..4,
        threads in 0usize..40,
        lemma_mask in 0u8..16,
        quick_browse in 0u8..2,
        max_dist in 0u64..1_000_000,
        deadline_us in 0u64..10_000_000,
        metric in 0u8..3,
        trace in 0u8..3,
        explain in 0u8..2,
        rid in 0u64..3,
        queue_wait_ms in 0u64..20,
        dim in 1usize..8,
        n in 1usize..5,
    ) {
        let mut query = make_query(
            topk != 0,
            tau_ratio != 0,
            tau,
            t_count != 0,
            t * 100.0,
            k,
            policy,
            threads,
            lemma_mask,
            quick_browse != 0,
            max_dist,
            0,
            metric,
            65,
        )
        .with_trace(trace_level(trace))
        .with_explain(explain != 0);
        if deadline_us > 0 {
            // Sub-millisecond deadlines exercise the encoder's ceil.
            query = query.with_deadline(Duration::from_micros(deadline_us));
        }
        if rid > 0 {
            query = query.with_request_id(rid);
        }
        let queue_wait = (queue_wait_ms > 0).then(|| Duration::from_millis(queue_wait_ms));
        let mut expected = query
            .clone()
            .with_policy(clamp_policy(query.policy, MAX_REQUEST_THREADS));
        expected.budget.deadline = query.budget.deadline.map(|d| {
            let ceiled = Duration::from_millis(d.as_nanos().div_ceil(1_000_000) as u64);
            ceiled.saturating_sub(queue_wait.unwrap_or_default())
        });

        let store = sample_store(dim, n);
        let decoded = decode_request(&encode_request(&wire_request(&query, &store))).unwrap();
        let Request::Query { query: mut got, vectors } = decoded else {
            panic!("a query request decodes as a query");
        };
        admit_query(&mut got, queue_wait);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(vectors, store);
    }

    /// Cut anywhere, a query frame never decodes (nothing is inferred
    /// from "bytes remain"); with any one byte changed, it decodes — if
    /// at all — to a request that encodes back to exactly those bytes.
    #[test]
    fn cut_or_corrupted_frames_decode_canonically_or_not_at_all(
        topk in 0u8..2,
        policy in 0u8..4,
        threads in 0usize..16,
        lemma_mask in 0u8..16,
        max_dist in 0u64..1_000_000,
        deadline_ms in 0u64..10_000,
        metric in 0u8..3,
        trace in 0u8..3,
        rid in 0u64..3,
        dim in 1usize..8,
        n in 1usize..5,
        at in 0usize..4096,
        value in 0u8..=255,
    ) {
        let mut query = make_query(
            topk != 0, true, 0.06, true, 3.0, 5, policy, threads, lemma_mask, true, max_dist,
            deadline_ms, metric, 65,
        )
        .with_trace(trace_level(trace));
        if rid > 0 {
            query = query.with_request_id(rid);
        }
        let store = sample_store(dim, n);
        let mut bytes = encode_request(&wire_request(&query, &store));
        let at = at % bytes.len();
        prop_assert!(decode_request(&bytes[..at]).is_err(), "a {}-byte prefix decoded", at);
        bytes[at] = value;
        if let Ok(decoded) = decode_request(&bytes) {
            prop_assert_eq!(encode_request(&decoded), bytes);
        }
    }

    /// HITS reply with the explain slot filled → frame bytes → reply:
    /// the very counters, seeds, hits and outcome come back, and every
    /// cut of the frame is refused.
    #[test]
    fn explained_hits_reply_roundtrips(
        counts in collection::vec(0u64..u64::MAX, FunnelCounters::COUNTS),
        seeds in collection::vec((0u8..2, 0u32..u32::MAX), 0usize..40),
        n_hits in 0u64..4,
        outcome in 0u8..3,
        distance_computations in 0u64..1_000_000,
        generation in 0u64..u64::MAX,
    ) {
        let funnel = FunnelCounters::from_counts(
            counts.try_into().unwrap(),
            seeds.into_iter().map(|(some, n)| (some != 0).then_some(n)).collect(),
        );
        let reply = Reply::Hits(HitsReply {
            generation,
            cached: false,
            hits: (0..n_hits)
                .map(|i| WireHit {
                    external_id: i,
                    table_name: format!("t{i}"),
                    column_name: "key".into(),
                    match_count: i as u32,
                })
                .collect(),
            ext: Some(HitsExt {
                outcome: [
                    QueryOutcome::Exact,
                    QueryOutcome::Exceeded(Exceeded::DistanceComputations),
                    QueryOutcome::Exceeded(Exceeded::Deadline),
                ][outcome as usize],
                distance_computations,
            }),
            trace: None,
            explain: Some(Box::new(funnel)),
        });
        let bytes = encode_reply(&reply);
        prop_assert_eq!(decode_reply(&bytes).unwrap(), reply);
        for cut in 0..bytes.len() {
            prop_assert!(decode_reply(&bytes[..cut]).is_err(), "a {}-byte prefix decoded", cut);
        }
    }
}
