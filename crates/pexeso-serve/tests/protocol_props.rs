//! Property tests for the serve frame encoding of the unified query API:
//! any [`Query`] the builder can express survives the trip through
//! [`wire_request`] → `encode_request` → `decode_request` with every
//! criterion intact, a cut or corrupted frame decodes canonically or not
//! at all, and the daemon-side [`query_from_wire`] inverts
//! [`wire_request`] — the `Query` a backend executes behind a daemon is
//! the `Query` the caller built.

use std::time::Duration;

use pexeso_core::config::{ExecPolicy, JoinThreshold, LemmaFlags, Tau};
use pexeso_core::query::{Query, QueryBudget, QueryMode};
use pexeso_core::trace::TraceLevel;
use pexeso_core::vector::VectorStore;
use pexeso_serve::protocol::{decode_request, encode_request, QueryExt, QueryPayload, Request};
use pexeso_serve::server::{clamp_policy, MAX_REQUEST_THREADS};
use pexeso_serve::{query_from_wire, wire_request};
use proptest::prelude::*;

/// Deterministically build a `Query` from primitive proptest inputs,
/// covering both modes, both τ/T forms, every policy shape, all lemma
/// toggles, and every budget combination.
#[allow(clippy::too_many_arguments)]
fn make_query(
    topk: bool,
    tau_ratio: bool,
    tau: f32,
    t_count: bool,
    t: f64,
    k: usize,
    par: bool,
    threads: usize,
    lemma_mask: u8,
    quick_browse: bool,
    max_dist: u64,
    deadline_ms: u64,
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
        .with_policy(if par {
            ExecPolicy::Parallel { threads }
        } else {
            ExecPolicy::Sequential
        })
        .expect_metric("euclidean");
    if max_dist > 0 {
        q = q.with_max_distance_computations(max_dist);
    }
    if deadline_ms > 0 {
        q = q.with_deadline(Duration::from_millis(deadline_ms));
    }
    q
}

/// The exact bit pattern of a column's vectors.
fn bits(store: &VectorStore) -> Vec<u32> {
    store.raw_data().iter().map(|v| v.to_bits()).collect()
}

fn sample_store(dim: usize, n: usize) -> VectorStore {
    let mut store = VectorStore::new(dim);
    for i in 0..n {
        let v: Vec<f32> = (0..dim).map(|d| ((i * dim + d) as f32).sin()).collect();
        store.push(&v).unwrap();
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Query builder → wire request → frame bytes → request: lossless.
    #[test]
    fn query_roundtrips_through_frame_encoding(
        topk in 0u8..2,
        tau_ratio in 0u8..2,
        tau in 0.0f32..1.0,
        t_count in 0u8..2,
        t in 0.0f64..1.0,
        k in 0usize..100,
        par in 0u8..2,
        threads in 0usize..16,
        lemma_mask in 0u8..16,
        quick_browse in 0u8..2,
        max_dist in 0u64..1_000_000,
        deadline_ms in 0u64..10_000,
        dim in 1usize..8,
        n in 1usize..5,
    ) {
        let query = make_query(
            topk != 0,
            tau_ratio != 0,
            tau,
            t_count != 0,
            t * 100.0,
            k,
            par != 0,
            threads,
            lemma_mask,
            quick_browse != 0,
            max_dist,
            deadline_ms,
        );
        let store = sample_store(dim, n);
        let request = wire_request(&query, &store);
        let decoded = decode_request(&encode_request(&request)).unwrap();
        prop_assert_eq!(&decoded, &request);

        // Every builder criterion survives into the decoded frame.
        let (payload, decoded_mode) = match &decoded {
            Request::Search { query, t } => (query, QueryMode::Threshold(*t)),
            Request::Topk { query, k } => (query, QueryMode::Topk(*k as usize)),
            other => panic!("query verbs only, got {other:?}"),
        };
        prop_assert_eq!(decoded_mode, query.mode);
        let criteria = &payload.criteria;
        prop_assert_eq!(criteria.tau, query.tau);
        prop_assert_eq!(criteria.policy, query.policy);
        prop_assert_eq!(criteria.metric.as_str(), "euclidean");
        prop_assert_eq!(criteria.dim as usize, store.dim());
        prop_assert_eq!(payload.vectors.len(), store.raw_data().len());
        let ext = &criteria.ext;
        prop_assert_eq!(ext.flags, query.options.flags);
        prop_assert_eq!(ext.quick_browse, query.options.quick_browse);
        prop_assert_eq!(
            ext.max_distance_computations,
            query.budget.max_distance_computations
        );
        prop_assert_eq!(
            ext.deadline_ms,
            query.budget.deadline.map(|d| d.as_millis() as u64)
        );
        // And the budget maps back exactly.
        let budget = QueryBudget {
            max_distance_computations: ext.max_distance_computations,
            deadline: ext.deadline_ms.map(Duration::from_millis),
        };
        prop_assert_eq!(budget, query.budget);
    }

    /// `query_from_wire(wire_request(q, v))` reproduces `q` and `v`: the
    /// only differences are the ones the daemon applies on purpose — the
    /// policy is clamped to its thread ceiling, the deadline is the
    /// client's (ceiled to whole milliseconds) minus the queue wait.
    #[test]
    fn query_from_wire_inverts_wire_request(
        topk in 0u8..2,
        tau_ratio in 0u8..2,
        tau in 0.0f32..1.0,
        t_count in 0u8..2,
        t in 0.0f64..1.0,
        k in 0usize..100,
        par in 0u8..2,
        threads in 0usize..40,
        lemma_mask in 0u8..16,
        quick_browse in 0u8..2,
        max_dist in 0u64..1_000_000,
        deadline_us in 0u64..10_000_000,
        expect_metric in 0u8..2,
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
            par != 0,
            threads,
            lemma_mask,
            quick_browse != 0,
            max_dist,
            0,
        )
        .with_trace([TraceLevel::Off, TraceLevel::Phases, TraceLevel::Detail][trace as usize])
        .with_explain(explain != 0);
        if expect_metric == 0 {
            query.metric = None;
        }
        if deadline_us > 0 {
            // Sub-millisecond deadlines exercise the client's ceil.
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
        let invert = |request: &Request| {
            let decoded = decode_request(&encode_request(request)).unwrap();
            let (payload, mode): (&QueryPayload, QueryMode) = match &decoded {
                Request::Search { query, t } => (query, QueryMode::Threshold(*t)),
                Request::Topk { query, k } => (query, QueryMode::Topk(*k as usize)),
                other => panic!("query verbs only, got {other:?}"),
            };
            query_from_wire(payload, mode, queue_wait).unwrap()
        };

        let store = sample_store(dim, n);
        let (got, vectors) = invert(&wire_request(&query, &store));
        prop_assert_eq!(got, expected);
        prop_assert_eq!(vectors.dim(), store.dim());
        prop_assert_eq!(bits(&vectors), bits(&store));
    }

    /// Cut anywhere, a query frame never decodes (nothing is inferred
    /// from "bytes remain"); with any one byte changed, it decodes — if
    /// at all — to a request that encodes back to exactly those bytes.
    #[test]
    fn cut_or_corrupted_frames_decode_canonically_or_not_at_all(
        topk in 0u8..2,
        par in 0u8..2,
        threads in 0usize..16,
        lemma_mask in 0u8..16,
        max_dist in 0u64..1_000_000,
        deadline_ms in 0u64..10_000,
        trace in 0u8..3,
        rid in 0u64..3,
        dim in 1usize..8,
        n in 1usize..5,
        at in 0usize..4096,
        value in 0u8..=255,
    ) {
        let mut query = make_query(
            topk != 0, true, 0.06, true, 3.0, 5, par != 0, threads, lemma_mask, true, max_dist,
            deadline_ms,
        )
        .with_trace([TraceLevel::Off, TraceLevel::Phases, TraceLevel::Detail][trace as usize]);
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
}

/// The default extension spells "no overrides": all lemmas on, quick
/// browsing on, unlimited budget — exactly what a fresh `Query` carries.
#[test]
fn default_ext_matches_default_query() {
    let q = Query::threshold(Tau::Ratio(0.06), JoinThreshold::Ratio(0.5));
    let store = sample_store(4, 1);
    match wire_request(&q, &store) {
        Request::Search { query, .. } => {
            assert_eq!(query.criteria.ext, QueryExt::default());
        }
        other => panic!("expected SEARCH, got {other:?}"),
    }
}
