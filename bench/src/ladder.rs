//! The traced run: a fixed number of the workload's operations, each
//! followed by the same embedded query timed at every layer of the stack,
//! innermost first, with harness-side spans. Every per-layer metric
//! comes from here; end-to-end metrics never do.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pexeso_core::block::{block_with, quick_browse, BlockOutput};
use pexeso_core::config::{ExecPolicy, JoinThreshold, LemmaFlags};
use pexeso_core::cost::{column_match_bounds, topk_seed};
use pexeso_core::grid::HierarchicalGrid;
use pexeso_core::mapping::MappedVectors;
use pexeso_core::metric::{Euclidean, Metric};
use pexeso_core::outofcore::{GlobalHit, PartitionedLake, ResidentPartitions};
use pexeso_core::query::{Query, QueryOutcome, Queryable};
use pexeso_core::search::PexesoIndex;
use pexeso_core::stats::SearchStats;
use pexeso_core::util::FastMap;
use pexeso_core::vector::VectorStore;
use pexeso_core::verify::{verify_topk, verify_with, VerifyContext};
use pexeso_delta::{compact_lake, delta_log_path, ingest_columns, DeltaLake, IngestColumn};
use pexeso_router::{Router, RouterConfig, ShardMap};
use pexeso_serve::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, HitsExt, HitsReply, Reply, WireHit,
};
use pexeso_serve::{wire_request, ClientError, ServeClient, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::Reference;
use crate::deploy::{Deployment, ScratchDir, Tiers};
use crate::inputs::{schedule, Inputs, OpKind, QueryId, Stream};
use crate::json::Json;
use crate::run::{
    check_logs, query_once, ClientLog, InputFacts, Metric as Reported, OpRecord, RunConfig, Visible,
};
use crate::span::Recorder;
use crate::spec::{Hop, Mode, PER_LAYER, TAU, TOPK_K, TRACE_WRITES, T_RATIO};
use crate::stats::median;
use crate::Res;

/// Repository vectors each query vector is paired with in the `kernel`
/// rung.
const KERNEL_SAMPLE: usize = 512;
/// Loads behind `snapshot.load_s` and `delta.open_ms` (their median).
const LOAD_REPS: usize = 3;

/// What the harness rebuilds per partition to call `block` and `verify`
/// from outside: `HG_RV` and the vector → column map are private to
/// `PexesoIndex` but deterministic functions of its public parts.
struct PartitionRig {
    hgrv: HierarchicalGrid,
    vec_col: Vec<u32>,
}

/// One partition's state as the inner rungs hand it up the ladder.
struct Mapped {
    query_mapped: MappedVectors,
    hgq: HierarchicalGrid,
}

fn global_hit(index: &PexesoIndex<Euclidean>, column: u32, count: u32) -> GlobalHit {
    let meta = &index.columns().columns()[column as usize];
    GlobalHit {
        external_id: meta.external_id,
        table_name: meta.table_name.clone(),
        column_name: meta.column_name.clone(),
        match_count: count,
    }
}

/// The unified final ranking over per-unit hits.
fn merge_hits(mode: Mode, mut hits: Vec<GlobalHit>) -> Vec<GlobalHit> {
    match mode {
        Mode::Threshold => hits.sort_by_key(|h| h.external_id),
        Mode::Topk => {
            hits.sort_by(|a, b| {
                b.match_count
                    .cmp(&a.match_count)
                    .then(a.external_id.cmp(&b.external_id))
            });
            hits.truncate(TOPK_K);
        }
    }
    hits
}

/// One traced operation's query on its way up the ladder.
struct Climber<'a> {
    /// The operation's number (the span's `op`).
    n: usize,
    store: &'a VectorStore,
    /// The hits the operation's reply carried; every rung must equal them.
    want: &'a [GlobalHit],
    mapped: Vec<Mapped>,
    blocked: Vec<BlockOutput>,
    /// Counters of the mapping, block and verify rungs.
    stats: SearchStats,
}

/// Per-operation milliseconds of every rung climbed so far.
#[derive(Default)]
struct Rungs {
    samples: Vec<(&'static str, Vec<f64>)>,
    mismatches: Vec<String>,
}

impl Rungs {
    /// Run `rung` once per climber inside a span each (children of one
    /// span over the whole pass) and record the durations. A rung that
    /// returns hits must return exactly the hits of the operation's reply.
    fn climb<'a>(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        climbers: &mut [Climber<'a>],
        mut rung: impl FnMut(&mut Climber<'a>) -> Res<Option<Vec<GlobalHit>>>,
    ) -> Res<()> {
        let pass = rec.begin(name, None, None);
        let mut ms = Vec::with_capacity(climbers.len());
        for c in climbers.iter_mut() {
            let span = rec.begin(name, Some(pass), Some(c.n));
            let hits = rung(c);
            ms.push(rec.end(span));
            if hits?.is_some_and(|h| h != c.want) {
                self.mismatches.push(format!(
                    "op {}: rung '{name}' hits differ from the reply",
                    c.n
                ));
            }
        }
        rec.end(pass);
        self.samples.push((name, ms));
        Ok(())
    }

    fn ms(&self, name: &str) -> &[f64] {
        let rung = self.samples.iter().find(|(n, _)| *n == name);
        &rung.expect("a climbed rung").1
    }

    fn p50(&self, name: &str) -> f64 {
        median(self.ms(name))
    }
}

/// Run `work` and return its value with its duration in seconds.
fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = work();
    (value, started.elapsed().as_secs_f64())
}

fn mean(total: u64, ops: usize) -> f64 {
    total as f64 / ops.max(1) as f64
}

/// Bump a daemon's generation so its result cache cannot answer the next
/// request: `APPLY` republishes the same resident base under a new
/// generation, and cache keys carry the generation.
fn invalidate(client: &ServeClient) -> Res<()> {
    client
        .apply_delta()
        .map(|_| ())
        .map_err(|e| format!("APPLY (cache invalidation): {e}"))
}

struct Burst {
    qps: f64,
    refused: usize,
}

/// Closed-loop read-only burst of `clients` clients for `length`.
fn burst(
    inputs: &Inputs,
    cfg: &RunConfig,
    dep: &Deployment,
    clients: usize,
    first_client: usize,
    length: Duration,
) -> Res<Burst> {
    let addr = dep.outer_addr(Hop::Daemon);
    let query = cfg.spec.mode.query();
    let barrier = Barrier::new(clients);
    let results: Vec<Res<(usize, usize, Instant, Instant)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, query) = (&barrier, &query);
                s.spawn(move || {
                    let client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"));
                    barrier.wait();
                    let client = client?;
                    let started = Instant::now();
                    let (mut done, mut refused) = (0usize, 0usize);
                    let mut index = 0usize;
                    while started.elapsed() < length {
                        let table = inputs.query_table(QueryId {
                            stream: Stream::Burst,
                            client: first_client + c,
                            index,
                        });
                        index += 1;
                        let embedded = inputs.embed(&table);
                        match client.execute_detailed(query, embedded.store()) {
                            Ok(_) => done += 1,
                            Err(ClientError::Busy | ClientError::Shed) => refused += 1,
                            Err(e) => return Err(format!("burst query: {e}")),
                        }
                    }
                    Ok((done, refused, started, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst thread panicked"))
            .collect()
    });
    let results = results.into_iter().collect::<Res<Vec<_>>>()?;
    let start = results
        .iter()
        .map(|r| r.2)
        .min()
        .expect("at least one client");
    let end = results
        .iter()
        .map(|r| r.3)
        .max()
        .expect("at least one client");
    Ok(Burst {
        qps: results.iter().map(|r| r.0).sum::<usize>() as f64
            / end.duration_since(start).as_secs_f64(),
        refused: results.iter().map(|r| r.1).sum(),
    })
}

pub struct TraceReport {
    pub metrics: Vec<Reported>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub failures: Vec<String>,
    pub inputs: InputFacts,
    pub traced_ops: usize,
    pub traced_p50_ms: f64,
    pub untraced_p50_ms: f64,
    pub op_self_p50_us: f64,
    pub verify_share: f64,
    pub spans: Json,
}

pub fn run_traced(cfg: &RunConfig) -> Res<TraceReport> {
    let spec = cfg.spec;
    let mode = spec.mode;
    let inputs = Inputs::generate(spec.profile, cfg.scale, cfg.seed);
    let facts = InputFacts::of(&inputs, cfg)?;
    let scratch = ScratchDir::create(&cfg.out_dir, &format!("{}-trace", spec.name))?;
    let mut dep = Deployment::build(&inputs, &scratch.0.join("serve"), Tiers::LADDER, cfg.nproc)?;
    let err = |what: &str| {
        let what = what.to_string();
        move |e: pexeso_core::error::PexesoError| format!("{what}: {e}")
    };

    // ---- the layers, opened from the same deployment directory ----
    let lake = PartitionedLake::open(&dep.lake_dir).map_err(err("open lake"))?;
    let resident = ResidentPartitions::load(&lake, Euclidean).map_err(err("load resident"))?;
    let n_parts = resident.num_partitions();
    let mut snapshot_loads = Vec::new();
    let mut snapshot = None;
    for _ in 0..LOAD_REPS {
        let (loaded, seconds) = timed(|| Snapshot::load(&dep.lake_dir, 1));
        snapshot = Some(loaded.map_err(err("Snapshot::load"))?);
        snapshot_loads.push(seconds);
    }
    let snapshot = snapshot.expect("LOAD_REPS > 0");
    let mut index_build_s = 0.0;
    let mut rigs = Vec::with_capacity(n_parts);
    for p in 0..n_parts {
        let ix = resident.partition(p);
        let columns = ix.columns().clone();
        let (rebuilt, seconds) =
            timed(|| PexesoIndex::build(columns, Euclidean, inputs.profile.index_options()));
        rebuilt.map_err(err("PexesoIndex::build"))?;
        index_build_s += seconds;
        rigs.push(PartitionRig {
            hgrv: HierarchicalGrid::build_keys_only(ix.grid_params().clone(), ix.rv_mapped())
                .map_err(err("HG_RV"))?,
            vec_col: ix.columns().vector_to_column(),
        });
    }
    let connect = |addr| ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
    let daemon_client = connect(dep.outer_addr(Hop::Daemon))?;
    let routerd_client = connect(dep.outer_addr(Hop::Router))?;
    let shard_clients = dep
        .shards
        .iter()
        .map(|s| connect(s.addr()))
        .collect::<Res<Vec<_>>>()?;
    let router = Router::new(
        ShardMap::new(dep.shard_specs.clone()).map_err(err("shard map"))?,
        RouterConfig::default(),
    )
    .map_err(err("Router::new"))?;
    let outer_client = match spec.hop {
        Hop::Daemon => &daemon_client,
        Hop::Router => &routerd_client,
    };

    let query: Query = mode.query();
    let tau_abs = TAU
        .resolve(&Euclidean, inputs.profile.dim())
        .map_err(err("tau"))?;
    let flags = LemmaFlags::all();
    let seq = ExecPolicy::Sequential;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6b65_726e);
    let kernel_rows: Vec<usize> = (0..KERNEL_SAMPLE)
        .map(|_| rng.gen_range(0..inputs.n_vectors()))
        .collect();

    // ---- the workload's read operations, traced and untraced twins ----
    // Write slots are skipped here: the ladder compares every rung with
    // the same base lake, and the write phase below runs on its own.
    let kinds: Vec<(usize, OpKind)> = schedule(spec, cfg.seed, 0, spec.round_ops)
        .into_iter()
        .enumerate()
        .filter(|(_, k)| !matches!(k, OpKind::Write { .. }))
        .take(spec.trace_ops)
        .collect();
    let mut rec = Recorder::new();
    let mut traced = ClientLog::new();
    let mut twins = ClientLog::new();
    let mut embed_ms = Vec::new();
    let mut op_ms = Vec::new();
    let mut op_spans = Vec::new();
    let mut recent: Vec<usize> = Vec::new();
    let mut resent: Vec<usize> = Vec::new();
    for (n, &(slot, kind)) in kinds.iter().enumerate() {
        let twin_table = inputs.query_table(QueryId {
            stream: Stream::Twin,
            client: 0,
            index: slot,
        });
        twins
            .ops
            .push(query_once(&inputs, outer_client, &query, twin_table));
        let table = match kind {
            OpKind::Resend { pick } if !recent.is_empty() => {
                resent.push(n);
                traced.ops[recent[pick as usize % recent.len()]]
                    .table
                    .clone()
            }
            _ => inputs.query_table(QueryId::timed(0, slot)),
        };
        let op = rec.begin("op", None, Some(n));
        let (embedded, ms) = rec.time("embed", Some(op), Some(n), || inputs.embed(&table));
        embed_ms.push(ms);
        let (reply, _) = rec.time("rpc", Some(op), Some(n), || {
            outer_client.execute_detailed(&query, embedded.store())
        });
        op_ms.push(rec.end(op));
        op_spans.push(op);
        recent.push(traced.ops.len());
        traced.ops.push(OpRecord {
            table,
            query: embedded,
            latency_ms: *op_ms.last().expect("just pushed"),
            reply: reply
                .map(|(resp, meta)| (resp.hits, meta))
                .map_err(|e| e.to_string()),
        });
    }
    let cache_hits = traced
        .ops
        .iter()
        .filter(|o| matches!(&o.reply, Ok((_, m)) if m.cached))
        .count();

    // ---- the ladder: the same queries at every layer, innermost first ----
    // Rung by rung, not operation by operation: between two visits of a
    // query every other query has run, as in the workload itself. Climbing
    // one query through all rungs back to back would hand each rung the
    // cache lines the rung below just loaded.
    let mut failures: Vec<String> = Vec::new();
    let mut climbers: Vec<Climber<'_>> = traced
        .ops
        .iter()
        .enumerate()
        .filter_map(|(n, op)| {
            // A failed operation has no reply to compare the rungs with,
            // and a re-sent query would hit the caches the rungs need cold.
            let (want, _) = op.reply.as_ref().ok().filter(|_| !resent.contains(&n))?;
            Some(Climber {
                n,
                store: op.query.store(),
                want,
                mapped: Vec::new(),
                blocked: Vec::new(),
                stats: SearchStats::new(),
            })
        })
        .collect();
    let laddered = climbers.len();
    if laddered == 0 {
        return Err("no traced operation got a reply to climb the ladder with".into());
    }
    let mut rungs = Rungs::default();

    // kernel: a fixed sample of ⟨query, repository⟩ pairs at τ.
    let (mut kernel_le_ns, mut kernel_dist_ns, mut kernel_pairs) = (0.0f64, 0.0f64, 0u64);
    rungs.climb(&mut rec, "kernel", &mut climbers, |c| {
        let started = Instant::now();
        let mut within = 0usize;
        for q in c.store.iter() {
            for &row in &kernel_rows {
                let r = inputs.columns.store().get_raw(row);
                within += usize::from(Euclidean.dist_le(black_box(q), r, tau_abs));
            }
        }
        black_box(within);
        kernel_le_ns += started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        let mut total = 0.0f32;
        for q in c.store.iter() {
            for &row in &kernel_rows {
                total += Euclidean.dist(black_box(q), inputs.columns.store().get_raw(row));
            }
        }
        black_box(total);
        kernel_dist_ns += started.elapsed().as_nanos() as f64;
        kernel_pairs += (c.store.len() * KERNEL_SAMPLE) as u64;
        Ok(None)
    })?;

    // mapping: pivot-map the query and build HG_Q, per partition.
    rungs.climb(&mut rec, "mapping", &mut climbers, |c| {
        c.mapped = (0..n_parts)
            .map(|p| {
                let ix = resident.partition(p);
                let query_mapped = MappedVectors::build(
                    c.store,
                    ix.pivots(),
                    &Euclidean,
                    Some(&mut c.stats.mapping_distances),
                )?;
                let hgq = HierarchicalGrid::build(ix.grid_params().clone(), &query_mapped)?;
                Ok(Mapped { query_mapped, hgq })
            })
            .collect::<pexeso_core::error::Result<Vec<Mapped>>>()
            .map_err(err("mapping rung"))?;
        Ok(None)
    })?;

    // block: quick browsing + the dual-grid traversal.
    rungs.climb(&mut rec, "block", &mut climbers, |c| {
        c.blocked = (0..n_parts)
            .map(|p| {
                let ix = resident.partition(p);
                let m = &c.mapped[p];
                let mut seeded = FastMap::default();
                let handled = quick_browse(&m.hgq, ix.inverted_index(), &mut seeded, &mut c.stats);
                block_with(
                    &m.hgq,
                    &rigs[p].hgrv,
                    &m.query_mapped,
                    tau_abs,
                    flags,
                    Some(&handled),
                    seeded,
                    &mut c.stats,
                    seq,
                )
            })
            .collect();
        Ok(None)
    })?;

    // verify: Algorithm 2, or the best-first top-k loop around it.
    let mut hits_total = 0u64;
    rungs.climb(&mut rec, "verify", &mut climbers, |c| {
        let t_abs = JoinThreshold::Ratio(T_RATIO)
            .resolve(c.store.len())
            .map_err(err("T"))?;
        let mut hits = Vec::new();
        for (p, rig) in rigs.iter().enumerate() {
            let ix = resident.partition(p);
            let ctx = VerifyContext {
                columns: ix.columns(),
                vec_col: &rig.vec_col,
                rv_mapped: ix.rv_mapped(),
                inv: ix.inverted_index(),
                metric: &Euclidean,
                query: c.store,
                query_mapped: &c.mapped[p].query_mapped,
                tau: tau_abs,
                t_abs: match mode {
                    Mode::Threshold => t_abs,
                    Mode::Topk => c.store.len() + 1,
                },
                flags,
                deleted: None,
            };
            match mode {
                Mode::Threshold => {
                    let outcome = verify_with(&ctx, &c.blocked[p], &mut c.stats, seq);
                    hits.extend(
                        outcome
                            .joinable
                            .iter()
                            .map(|col| global_hit(ix, col.0, outcome.match_counts[col.0 as usize])),
                    );
                }
                Mode::Topk => {
                    let n_cols = ix.columns().n_columns();
                    let bounds = column_match_bounds(
                        &c.blocked[p],
                        ix.inverted_index(),
                        n_cols,
                        c.store.len(),
                        None,
                        seq,
                    );
                    // Tie-inclusive like the product: ask for one more,
                    // and double while the boundary count still reaches
                    // past the cut.
                    let mut kk = TOPK_K + 1;
                    let ranked = loop {
                        let seed = topk_seed(&bounds, kk);
                        let ranked =
                            verify_topk(&ctx, &c.blocked[p], &bounds, seed, kk, &mut c.stats, seq);
                        let tied = ranked.len() == kk
                            && kk < n_cols
                            && ranked.last().map(|r| r.0) == ranked.get(TOPK_K - 1).map(|r| r.0);
                        if !tied {
                            break ranked;
                        }
                        kk *= 2;
                    };
                    hits.extend(
                        ranked
                            .iter()
                            .map(|&(count, col)| global_hit(ix, col.0, count)),
                    );
                }
            }
        }
        let hits = merge_hits(mode, hits);
        hits_total += hits.len() as u64;
        Ok(Some(hits))
    })?;

    // index: one `PexesoIndex::execute` per partition, merged here.
    rungs.climb(&mut rec, "index", &mut climbers, |c| {
        let mut hits = Vec::new();
        for p in 0..n_parts {
            let resp = resident.partition(p).execute(&query, c.store);
            hits.extend(resp.map_err(err("index rung"))?.hits);
        }
        Ok(Some(merge_hits(mode, hits)))
    })?;

    let backends: [(&'static str, &dyn Queryable); 3] = [
        ("resident", &resident),
        ("partitioned", &lake),
        ("snapshot", &snapshot),
    ];
    for (name, backend) in backends {
        rungs.climb(&mut rec, name, &mut climbers, |c| {
            Ok(Some(
                backend.execute(&query, c.store).map_err(err(name))?.hits,
            ))
        })?;
    }

    // protocol: both directions of the codec, no socket.
    let (mut request_bytes, mut reply_bytes) = (0u64, 0u64);
    rungs.climb(&mut rec, "protocol", &mut climbers, |c| {
        let request = encode_request(&wire_request(&query, c.store));
        let decoded = decode_request(&request).map_err(|e| format!("decode_request: {e}"))?;
        let reply = encode_reply(&Reply::Hits(HitsReply {
            generation: 1,
            cached: false,
            hits: c.want.iter().map(WireHit::from).collect(),
            ext: Some(HitsExt {
                outcome: QueryOutcome::Exact,
                distance_computations: c.stats.distance_computations,
            }),
            trace: None,
            explain: None,
        }));
        let replied = decode_reply(&reply).map_err(|e| format!("decode_reply: {e}"))?;
        black_box((decoded, replied));
        request_bytes += request.len() as u64;
        reply_bytes += reply.len() as u64;
        Ok(None)
    })?;

    // daemon: the same queries over loopback with the result cache cold,
    // then once more, answered by the cache.
    let remote = |client: &ServeClient, c: &Climber<'_>, want_cached: Option<bool>| {
        let (resp, meta) = client
            .execute_detailed(&query, c.store)
            .map_err(|e| format!("remote rung: {e}"))?;
        match want_cached {
            Some(want) if want != meta.cached => Err(format!(
                "op {}: expected cached={want}, the daemon said cached={}",
                c.n, meta.cached
            )),
            _ => Ok(Some(resp.hits)),
        }
    };
    invalidate(&daemon_client)?;
    rungs.climb(&mut rec, "daemon", &mut climbers, |c| {
        remote(&daemon_client, c, Some(false))
    })?;
    rungs.climb(&mut rec, "cache", &mut climbers, |c| {
        remote(&daemon_client, c, Some(true))
    })?;

    // shards, asked directly: the slowest one bounds the router. A shard
    // holds part of the lake, so its hits are not compared.
    let mut shard_p50s = Vec::new();
    for client in &shard_clients {
        invalidate(client)?;
        let mut shard = Rungs::default();
        shard.climb(&mut rec, "shard", &mut climbers, |c| {
            remote(client, c, Some(false)).map(|_| None)
        })?;
        shard_p50s.push(shard.p50("shard"));
    }
    // router in-process, then through the router daemon.
    for client in &shard_clients {
        invalidate(client)?;
    }
    rungs.climb(&mut rec, "router", &mut climbers, |c| {
        Ok(Some(
            router
                .execute(&query, c.store)
                .map_err(err("router rung"))?
                .hits,
        ))
    })?;
    for client in &shard_clients {
        invalidate(client)?;
    }
    rungs.climb(&mut rec, "routerd", &mut climbers, |c| {
        remote(&routerd_client, c, None)
    })?;
    failures.append(&mut rungs.mismatches);

    let mut funnel = SearchStats::new();
    for c in &climbers {
        funnel.merge(&c.stats);
    }
    let index_self_ms: Vec<f64> = (0..laddered)
        .map(|i| {
            rungs.ms("index")[i]
                - rungs.ms("mapping")[i]
                - rungs.ms("block")[i]
                - rungs.ms("verify")[i]
        })
        .collect();
    let verify_ns: f64 = rungs.ms("verify").iter().sum::<f64>() * 1e6;

    // ---- daemon.scaling: read-only bursts, 1 client then nproc ----
    let burst_len = Duration::from_secs_f64((cfg.seconds / 8.0).clamp(0.2, 1.5));
    let solo = burst(&inputs, cfg, &dep, 1, 0, burst_len)?;
    let crowd = burst(&inputs, cfg, &dep, cfg.nproc, 1, burst_len)?;

    // ---- the write phase: ingest + APPLY, then the delta rung ----
    let columns: Vec<IngestColumn> = (0..TRACE_WRITES).map(|w| inputs.ingest_column(w)).collect();
    let mut ingest_ms = Vec::new();
    let mut apply_ms = Vec::new();
    for (w, column) in columns.iter().enumerate() {
        let span = rec.begin("write", None, Some(w));
        let (report, ms) = rec.time("ingest", Some(span), Some(w), || {
            ingest_columns(&dep.lake_dir, std::slice::from_ref(column))
        });
        report.map_err(err("ingest_columns"))?;
        ingest_ms.push(ms);
        let (applied, ms) = rec.time("apply", Some(span), Some(w), || daemon_client.apply_delta());
        applied.map_err(|e| format!("APPLY: {e}"))?;
        apply_ms.push(ms);
        rec.end(span);
    }
    let log_bytes = std::fs::metadata(delta_log_path(&dep.lake_dir))
        .map_err(|e| format!("delta log: {e}"))?
        .len();
    let vector_bytes: usize = columns.iter().map(|c| c.vectors.len() * 4).sum();
    let mut open_ms = Vec::new();
    let mut delta = None;
    for _ in 0..LOAD_REPS {
        let (opened, seconds) = timed(|| DeltaLake::open(&dep.lake_dir));
        delta = Some(opened.map_err(err("DeltaLake::open"))?);
        open_ms.push(seconds * 1e3);
    }
    let delta = delta.expect("LOAD_REPS > 0");
    // The overlay changes the answers, so this rung is not compared with
    // the reply: it is checked below against the oracle over base +
    // ingested tables, and here against the daemon serving the same log.
    let mut overlaid_hits = Vec::new();
    rungs.climb(&mut rec, "delta", &mut climbers, |c| {
        let resp = delta.execute(&query, c.store).map_err(err("delta rung"))?;
        overlaid_hits.push(resp.hits);
        Ok(None)
    })?;
    let mut delta_log = ClientLog::new();
    for (c, hits) in climbers.iter().zip(overlaid_hits) {
        let (served, meta) = daemon_client
            .execute_detailed(&query, c.store)
            .map_err(|e| format!("daemon over the overlay: {e}"))?;
        if hits != served.hits {
            failures.push(format!(
                "op {}: DeltaLake and the daemon disagree over the overlay",
                c.n
            ));
        }
        let op = &traced.ops[c.n];
        delta_log.ops.push(OpRecord {
            table: op.table.clone(),
            query: op.query.clone(),
            latency_ms: 0.0,
            reply: Ok((hits, meta)),
        });
    }
    drop(climbers);
    drop(delta);
    let (compacted, compact_s) = timed(|| compact_lake(&dep.lake_dir, None, seq));
    compacted.map_err(err("compact_lake"))?;

    let (split_s, partitioned_build_s) = (dep.split_s, dep.partitioned_build_s);
    drop((daemon_client, routerd_client, shard_clients, router));
    dep.shutdown();

    // ---- the correctness gate ----
    let base = Reference::new(&inputs, &[]);
    let overlaid = Reference::new(&inputs, &columns);
    let mut attempted = 0usize;
    let mut failed = 0usize;
    for (label, log, reference, visible) in [
        ("traced", &traced, &base, Visible::None),
        ("twin", &twins, &base, Visible::None),
        ("delta", &delta_log, &overlaid, Visible::All),
    ] {
        attempted += log.ops.len();
        for (_, i, r) in check_logs(
            reference,
            mode,
            visible,
            std::slice::from_ref(log),
            cfg.nproc,
        ) {
            failed += 1;
            failures.push(format!("{label} op {i}: {r}"));
        }
    }

    // ---- the per-layer metrics ----
    let p50 = |name: &str| rungs.p50(name);
    let slowest_shard = shard_p50s.iter().copied().fold(f64::MIN, f64::max);
    let fastest_shard = shard_p50s.iter().copied().fold(f64::MAX, f64::min);
    let traced_p50_ms = median(&op_ms);
    let untraced_p50_ms = median(&twins.ops.iter().map(|o| o.latency_ms).collect::<Vec<_>>());
    let dc = funnel.distance_computations;
    let values: Vec<(&str, f64)> = vec![
        ("embed.query_ms", median(&embed_ms)),
        ("embed.lake_s", inputs.embed_lake_s),
        (
            "embed.values_per_s",
            inputs.lake.total_key_cells() as f64 / inputs.embed_lake_s,
        ),
        ("kernel.dist_le_ns", kernel_le_ns / kernel_pairs as f64),
        ("kernel.dist_ns", kernel_dist_ns / kernel_pairs as f64),
        ("kernel.pairs", mean(kernel_pairs, laddered)),
        ("mapping.query_ms", p50("mapping")),
        (
            "mapping.distances",
            mean(funnel.mapping_distances, laddered),
        ),
        ("block.ms", p50("block")),
        (
            "block.candidate_pairs",
            mean(funnel.candidate_pairs, laddered),
        ),
        (
            "block.matching_pairs",
            mean(funnel.matching_pairs, laddered),
        ),
        (
            "block.cell_pairs_filtered",
            mean(funnel.cell_pairs_filtered, laddered),
        ),
        (
            "block.cell_pairs_matched",
            mean(funnel.cell_pairs_matched, laddered),
        ),
        (
            "block.quick_browse_pairs",
            mean(funnel.quick_browse_pairs, laddered),
        ),
        ("verify.ms", p50("verify")),
        ("verify.ns_per_dc", verify_ns / dc.max(1) as f64),
        ("verify.distance_computations", mean(dc, laddered)),
        (
            "verify.lemma1_filtered",
            mean(funnel.lemma1_filtered, laddered),
        ),
        (
            "verify.lemma2_matched",
            mean(funnel.lemma2_matched, laddered),
        ),
        (
            "verify.early_joinable",
            mean(funnel.early_joinable, laddered),
        ),
        ("verify.lemma7_pruned", mean(funnel.lemma7_pruned, laddered)),
        ("verify.topk_pruned", mean(funnel.topk_pruned, laddered)),
        ("verify.topk_aborted", mean(funnel.topk_aborted, laddered)),
        ("verify.batches", mean(funnel.verify_batches, laddered)),
        ("verify.dc_per_hit", dc as f64 / hits_total.max(1) as f64),
        ("index.build_s", index_build_s),
        ("index.query_p50_ms", p50("index")),
        ("index.self_ms", median(&index_self_ms)),
        ("partitioned.build_s", partitioned_build_s),
        ("partitioned.query_p50_ms", p50("partitioned")),
        ("resident.query_p50_ms", p50("resident")),
        ("resident.added_ms", p50("resident") - p50("index")),
        ("delta.ingest_ms", median(&ingest_ms)),
        ("delta.apply_ms", median(&apply_ms)),
        ("delta.open_ms", median(&open_ms)),
        ("delta.query_p50_ms", p50("delta")),
        ("delta.added_ms", p50("delta") - p50("partitioned")),
        ("delta.compact_s", compact_s),
        (
            "delta.log_bytes_per_vector_byte",
            log_bytes as f64 / vector_bytes as f64,
        ),
        ("snapshot.load_s", median(&snapshot_loads)),
        ("snapshot.query_p50_ms", p50("snapshot")),
        ("snapshot.added_ms", p50("snapshot") - p50("resident")),
        ("protocol.codec_us", p50("protocol") * 1e3),
        ("protocol.request_bytes", mean(request_bytes, laddered)),
        ("protocol.reply_bytes", mean(reply_bytes, laddered)),
        (
            "cache.hit_ratio",
            cache_hits as f64 / traced.ops.len().max(1) as f64,
        ),
        ("cache.hit_p50_us", p50("cache") * 1e3),
        ("cache.miss_p50_ms", p50("daemon")),
        ("daemon.query_p50_ms", p50("daemon")),
        ("daemon.added_ms", p50("daemon") - p50("snapshot")),
        ("daemon.scaling", crowd.qps / solo.qps),
        ("daemon.refused", (solo.refused + crowd.refused) as f64),
        ("router.query_p50_ms", p50("router")),
        ("router.added_ms", p50("router") - slowest_shard),
        ("routerd.added_ms", p50("routerd") - p50("router")),
        ("router.shard_skew", slowest_shard / fastest_shard),
        ("split.s", split_s),
        (
            "trace_overhead_pct",
            (traced_p50_ms / untraced_p50_ms - 1.0) * 100.0,
        ),
    ];
    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            let value = values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .unwrap_or_else(|| panic!("per-layer metric {} not measured", spec.name))
                .1;
            Reported {
                name: spec.name,
                value,
                unit: spec.unit,
            }
        })
        .collect();

    let selfs = crate::span::self_times_us(rec.spans());
    let op_selfs: Vec<f64> = op_spans.iter().map(|&id| selfs[id]).collect();
    let search_ms = p50("mapping") + p50("block") + p50("verify");
    Ok(TraceReport {
        metrics,
        attempted,
        failed,
        correct: failures.is_empty(),
        failures,
        inputs: facts,
        traced_ops: traced.ops.len(),
        traced_p50_ms,
        untraced_p50_ms,
        op_self_p50_us: median(&op_selfs),
        verify_share: p50("verify") / search_ms,
        spans: rec.to_json(),
    })
}
