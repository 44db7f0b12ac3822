//! The untraced run: rounds of set up, warm up and one pass of the
//! workload's closed-loop clients until `--seconds` have passed, then
//! every reply checked against the oracle. Every end-to-end metric comes
//! from here.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pexeso::pipeline::EmbeddedQuery;
use pexeso_core::config::JoinThreshold;
use pexeso_core::outofcore::GlobalHit;
use pexeso_core::query::{Query, QueryOutcome};
use pexeso_core::vector::VectorStore;
use pexeso_delta::{ingest_columns, IngestColumn};
use pexeso_lake::GenTable;
use pexeso_serve::{RemoteMeta, ServeClient};

use crate::check::Reference;
use crate::deploy::{footprint, Deployment, ScratchDir, Tiers};
use crate::inputs::{fingerprint, schedule, verify_fingerprint, Inputs, OpKind, QueryId, Stream};
use crate::spec::{
    end_to_end, Hop, Mode, WorkloadSpec, PROBE_GAP, PROBE_WRITES, SETUP_REPS, SHARDS, TAU, T_RATIO,
};
use crate::stats::{median, percentile, samples_beyond};
use crate::Res;

pub struct RunConfig {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub nproc: usize,
    pub out_dir: PathBuf,
    pub process_start: Instant,
}

/// One query operation as a client saw it.
pub struct OpRecord {
    pub table: GenTable,
    pub query: EmbeddedQuery,
    pub latency_ms: f64,
    pub reply: Result<(Vec<GlobalHit>, RemoteMeta), String>,
}

/// One write: `ingest_columns` call → `APPLY` reply.
pub struct WriteRecord {
    pub table: usize,
    pub visible_ms: f64,
    pub result: Result<(), String>,
}

/// What one client did between `start` and `end`.
pub struct ClientLog {
    pub ops: Vec<OpRecord>,
    pub writes: Vec<WriteRecord>,
    pub start: Instant,
    pub end: Instant,
}

impl ClientLog {
    pub fn new() -> Self {
        let now = Instant::now();
        Self {
            ops: Vec::new(),
            writes: Vec::new(),
            start: now,
            end: now,
        }
    }
}

/// Where a client's writes go: the deployment directory to ingest into
/// and, behind a router, the shard whose daemons must apply the log.
pub struct WriteTarget {
    pub dir: PathBuf,
    pub shard: Option<u32>,
}

impl WriteTarget {
    /// New tables get ids above every base id, which the last shard owns.
    pub fn of(dep: &Deployment, hop: Hop) -> Self {
        match hop {
            Hop::Daemon => Self {
                dir: dep.lake_dir.clone(),
                shard: None,
            },
            Hop::Router => Self {
                dir: dep.shard_dirs[SHARDS - 1].clone(),
                shard: Some(SHARDS as u32 - 1),
            },
        }
    }
}

/// Ingest table `table` and make it searchable, timing from the
/// `ingest_columns` call to the `APPLY` reply.
pub fn write_once(
    inputs: &Inputs,
    client: &ServeClient,
    target: &WriteTarget,
    table: usize,
) -> WriteRecord {
    let column = &inputs.ingest_column(table);
    let expect_id = (inputs.columns.n_columns() + table) as u64;
    let started = Instant::now();
    let result = ingest_columns(&target.dir, std::slice::from_ref(column))
        .map_err(|e| format!("ingest_columns: {e}"))
        .and_then(|report| {
            if report.first_external_id == expect_id {
                Ok(())
            } else {
                Err(format!(
                    "ingest assigned id {}, expected {expect_id}",
                    report.first_external_id
                ))
            }
        })
        .and_then(|()| {
            client
                .apply_delta_shard(target.shard)
                .map(|_| ())
                .map_err(|e| format!("APPLY: {e}"))
        });
    WriteRecord {
        table,
        visible_ms: started.elapsed().as_secs_f64() * 1e3,
        result,
    }
}

/// One closed-loop operation: embed the table's key values, send one
/// request, wait for the reply.
pub fn query_once(
    inputs: &Inputs,
    client: &ServeClient,
    query: &Query,
    table: GenTable,
) -> OpRecord {
    let started = Instant::now();
    let embedded = inputs.embed(&table);
    let reply = client
        .execute_detailed(query, embedded.store())
        .map_err(|e| e.to_string())
        .and_then(|(resp, meta)| match resp.outcome {
            QueryOutcome::Exact => Ok((resp.hits, meta)),
            QueryOutcome::Exceeded(e) => Err(format!("inexact reply: {e}")),
        });
    OpRecord {
        latency_ms: started.elapsed().as_secs_f64() * 1e3,
        table,
        query: embedded,
        reply,
    }
}

/// Run one client's schedule, one operation after the other.
pub fn client_loop(
    inputs: &Inputs,
    spec: &WorkloadSpec,
    addr: SocketAddr,
    client_idx: usize,
    stream: Stream,
    ops: &[OpKind],
    target: &WriteTarget,
) -> ClientLog {
    let client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"));
    let query = spec.mode.query();
    // Operations issued since the last generation change this client saw.
    let mut recent: Vec<usize> = Vec::new();
    let mut last_generation = 0u64;
    let mut log = ClientLog::new();
    for (i, &op) in ops.iter().enumerate() {
        let slot_table = || {
            inputs.query_table(QueryId {
                stream,
                client: client_idx,
                index: i,
            })
        };
        let conn = match &client {
            Ok(c) => c,
            Err(e) => {
                // Unreachable daemon: the operation failed.
                let table = slot_table();
                log.ops.push(OpRecord {
                    query: inputs.embed(&table),
                    table,
                    latency_ms: 0.0,
                    reply: Err(e.clone()),
                });
                continue;
            }
        };
        match op {
            OpKind::Write { table } => {
                log.writes.push(write_once(inputs, conn, target, table));
                recent.clear();
            }
            OpKind::Fresh | OpKind::Resend { .. } => {
                let table = match op {
                    OpKind::Resend { pick } if !recent.is_empty() => {
                        log.ops[recent[pick as usize % recent.len()]].table.clone()
                    }
                    _ => slot_table(),
                };
                let record = query_once(inputs, conn, &query, table);
                if let Ok((_, meta)) = &record.reply {
                    if meta.generation != last_generation {
                        last_generation = meta.generation;
                        recent.clear();
                    }
                    recent.push(log.ops.len());
                }
                log.ops.push(record);
            }
        }
    }
    log.end = Instant::now();
    log
}

/// Which of the reference's ingested tables a reply could see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visible {
    None,
    All,
    /// Each APPLY bumps the daemon's generation by one and tables are
    /// ingested in order: generation g serves the first g − 1 of them.
    ByGeneration,
}

/// Check every record of `logs` against the oracle on `threads` threads.
/// Returns the failed operations as (client, operation, reason).
pub fn check_logs(
    reference: &Reference<'_>,
    mode: Mode,
    visible: Visible,
    logs: &[ClientLog],
    threads: usize,
) -> Vec<(usize, usize, String)> {
    let jobs: Vec<(usize, usize)> = logs
        .iter()
        .enumerate()
        .flat_map(|(c, log)| (0..log.ops.len()).map(move |i| (c, i)))
        .collect();
    let check = |&(c, i): &(usize, usize)| -> Option<(usize, usize, String)> {
        let op = &logs[c].ops[i];
        let reason = match &op.reply {
            Err(e) => Some(e.clone()),
            Ok((hits, meta)) => {
                let visible = match visible {
                    Visible::None => 0,
                    Visible::All => reference.n_ingested(),
                    Visible::ByGeneration => {
                        (meta.generation.saturating_sub(1) as usize).min(reference.n_ingested())
                    }
                };
                reference.check(mode, op.query.store(), visible, hits).err()
            }
        };
        reason.map(|r| (c, i, r))
    };
    let chunk = jobs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = jobs
            .chunks(chunk)
            .map(|jobs| s.spawn(move || jobs.iter().filter_map(check).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("checker thread panicked"))
            .collect()
    })
}

/// After a run's writes: each written table must be searchable. A table
/// joins itself (every vector matches at distance 0), so a threshold
/// query made of its own vectors must name it.
pub fn verify_visible(
    inputs: &Inputs,
    client: &ServeClient,
    tables: impl IntoIterator<Item = usize>,
) -> Vec<String> {
    let n_base = inputs.columns.n_columns() as u64;
    let query = Query::threshold(TAU, JoinThreshold::Ratio(T_RATIO));
    let mut failures = Vec::new();
    for w in tables {
        let column = inputs.ingest_column(w);
        let verdict = VectorStore::from_raw(inputs.profile.dim(), column.vectors)
            .map_err(|e| e.to_string())
            .and_then(|store| {
                client
                    .execute_detailed(&query, &store)
                    .map_err(|e| e.to_string())
            })
            .and_then(|(resp, _)| {
                if resp.hits.iter().any(|h| h.external_id == n_base + w as u64) {
                    Ok(())
                } else {
                    Err("not among the hits of its own vectors".to_string())
                }
            });
        if let Err(e) = verdict {
            failures.push(format!("ingested table {w} not searchable: {e}"));
        }
    }
    failures
}

/// What a run measured on: the generated inputs' identity and size.
pub struct InputFacts {
    pub fingerprint: String,
    /// The fingerprint equals the committed one for this seed.
    pub pinned: bool,
    pub n_columns: usize,
    pub n_vectors: usize,
}

impl InputFacts {
    /// Fingerprint `inputs` and hold the result against the committed
    /// one; a mismatch on a pinned seed is an error.
    pub fn of(inputs: &Inputs, cfg: &RunConfig) -> Res<Self> {
        let fingerprint = fingerprint(inputs, cfg.spec);
        Ok(Self {
            pinned: verify_fingerprint(cfg.spec, cfg.seed, cfg.scale, &fingerprint)?,
            fingerprint,
            n_columns: inputs.columns.n_columns(),
            n_vectors: inputs.n_vectors(),
        })
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one round measured, as the clock read.
pub struct RoundStats {
    /// Process start (first round) or round start → first correct answer;
    /// only the rounds that set up from nothing have one.
    pub setup_s: Option<f64>,
    pub build_s: f64,
    pub query_p50_ms: f64,
    pub query_p90_ms: f64,
    pub qps: f64,
    pub ingest_visible_p50_ms: f64,
    pub timed_wall_s: f64,
}

/// Everything one untraced run produced.
pub struct RunReport {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub failures: Vec<String>,
    pub inputs: InputFacts,
    pub clients: usize,
    pub rounds: Vec<RoundStats>,
    /// Per round: query latencies, those beyond its p90, writes.
    pub round_query_samples: usize,
    pub round_beyond_p90: usize,
    pub round_write_samples: usize,
    pub warmup_ops: usize,
    /// `query_p50_ms` as every other round alone would have given it;
    /// `stable` when that is within the metric's bound of the reported one.
    pub half_rounds_p50_ms: f64,
    pub stable: bool,
    pub cache_hits: usize,
}

fn metric(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit: end_to_end(name).expect("a named end-to-end metric").unit,
    }
}

/// Run `clients` closed-loop clients side by side over `kinds(client)`.
fn run_group(
    inputs: &Inputs,
    spec: &WorkloadSpec,
    addr: SocketAddr,
    clients: std::ops::Range<usize>,
    stream: Stream,
    kinds: &(dyn Fn(usize) -> Vec<OpKind> + Sync),
    target: &WriteTarget,
) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .map(|c| s.spawn(move || client_loop(inputs, spec, addr, c, stream, &kinds(c), target)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// What one round left behind for the correctness gate and the metrics.
struct Round {
    setup_s: Option<f64>,
    build_s: f64,
    warm_logs: Vec<ClientLog>,
    logs: Vec<ClientLog>,
    probe_writes: Vec<WriteRecord>,
    /// Written tables that were not searchable afterwards.
    invisible: Vec<String>,
    /// (resident bytes, disk bytes) of the served deployment, where asked.
    footprint: Option<(u64, u64)>,
}

/// One round: build and start a fresh deployment, warm it up with
/// queries of its own, run every client's schedule once, and shut it
/// down. Every round of a run does the same operations on the same
/// inputs, so rounds differ only by what the host did meanwhile.
///
/// `first_answer_since`: the round set up from nothing at that instant,
/// and `setup_s` runs until the outermost hop gave a first correct answer.
fn one_round(
    cfg: &RunConfig,
    inputs: &Inputs,
    root: &Path,
    first_answer_since: Option<Instant>,
    want_footprint: bool,
) -> Res<Round> {
    let spec = cfg.spec;
    let mut dep = Deployment::build(inputs, root, Tiers::of(spec.hop), cfg.nproc)?;
    let addr = dep.outer_addr(spec.hop);
    let target = WriteTarget::of(&dep, spec.hop);
    let clients = if spec.concurrent_rw { cfg.nproc } else { 1 };

    let mut setup_s = None;
    if let Some(since) = first_answer_since {
        // Asked under a client number no real client has.
        let first = run_group(
            inputs,
            spec,
            addr,
            clients..clients + 1,
            Stream::Warmup,
            &|_| vec![OpKind::Fresh],
            &target,
        );
        let reference = Reference::new(inputs, &[]);
        if let Some((_, _, reason)) =
            check_logs(&reference, spec.mode, Visible::None, &first, 1).first()
        {
            return Err(format!(
                "first answer from the outermost hop is wrong: {reason}"
            ));
        }
        setup_s = Some(since.elapsed().as_secs_f64());
    }

    // Discarded warm-up (queries the timed pass does not send), then the
    // timed pass.
    let warmup_ops = spec.warmup_ops();
    let warm_logs = run_group(
        inputs,
        spec,
        addr,
        0..clients,
        Stream::Warmup,
        &|_| vec![OpKind::Fresh; warmup_ops],
        &target,
    );
    let logs = run_group(
        inputs,
        spec,
        addr,
        0..clients,
        Stream::Timed,
        &|c| schedule(spec, inputs.seed, c, spec.round_ops),
        &target,
    );

    // Writes: in the timed pass on the read/write workload. The contract
    // line carries every end-to-end metric on every workload, so the
    // read-only ones measure `ingest_visible_p50_ms` with a few writes
    // against the idle deployment after the pass. Either way each written
    // table must then be searchable.
    let admin = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let probe_writes: Vec<WriteRecord> = if spec.concurrent_rw {
        Vec::new()
    } else {
        (0..PROBE_WRITES)
            .map(|w| {
                std::thread::sleep(PROBE_GAP);
                write_once(inputs, &admin, &target, w)
            })
            .collect()
    };
    let written = logs
        .iter()
        .flat_map(|l| &l.writes)
        .chain(&probe_writes)
        .filter(|w| w.result.is_ok())
        .map(|w| w.table);
    let invisible = verify_visible(inputs, &admin, written);
    drop(admin);

    let footprint = want_footprint
        .then(|| footprint(&dep.served_dirs(spec.hop)))
        .transpose()?;
    let build_s = dep.build_s;
    dep.shutdown();
    drop(dep);
    std::fs::remove_dir_all(root).map_err(|e| format!("remove {root:?}: {e}"))?;
    Ok(Round {
        setup_s,
        build_s,
        warm_logs,
        logs,
        probe_writes,
        invisible,
        footprint,
    })
}

/// Each operation's best time over the rounds that repeated it; an
/// operation that failed gives that round no time.
struct BestTimes {
    /// Per client and query slot, in ms.
    queries: Vec<Vec<f64>>,
    /// Per client and write slot of the timed pass, in ms.
    writes: Vec<Vec<f64>>,
    /// Per write of the idle-daemon probe, in ms.
    probes: Vec<f64>,
}

/// Element-wise minimum; a slot only some rows have keeps their minimum.
fn lowest(rows: impl IntoIterator<Item = Vec<f64>>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for row in rows {
        if row.len() > best.len() {
            best.resize(row.len(), f64::INFINITY);
        }
        for (b, v) in best.iter_mut().zip(row) {
            *b = b.min(v);
        }
    }
    best
}

fn write_times(writes: &[WriteRecord]) -> Vec<f64> {
    writes
        .iter()
        .map(|w| match w.result {
            Ok(()) => w.visible_ms,
            Err(_) => f64::INFINITY,
        })
        .collect()
}

impl BestTimes {
    fn of(rounds: &[&Round]) -> Self {
        let clients = rounds.first().map_or(0, |r| r.logs.len());
        let per_client = |times: &dyn Fn(&ClientLog) -> Vec<f64>| -> Vec<Vec<f64>> {
            (0..clients)
                .map(|c| lowest(rounds.iter().map(|r| times(&r.logs[c]))))
                .collect()
        };
        Self {
            queries: per_client(&|log| {
                log.ops
                    .iter()
                    .map(|o| match o.reply {
                        Ok(_) => o.latency_ms,
                        Err(_) => f64::INFINITY,
                    })
                    .collect()
            }),
            writes: per_client(&|log| write_times(&log.writes)),
            probes: lowest(rounds.iter().map(|r| write_times(&r.probe_writes))),
        }
    }

    fn query_percentile(&self, p: f64) -> f64 {
        percentile(&self.queries.concat(), p)
    }

    fn write_p50(&self) -> f64 {
        let mut all = self.writes.concat();
        all.extend(&self.probes);
        median(&all)
    }

    /// Operations ÷ the time the slowest client's closed loop takes with
    /// every operation at its best.
    fn qps(&self) -> f64 {
        let ops: usize = self.queries.iter().chain(&self.writes).map(Vec::len).sum();
        let slowest_s = self
            .queries
            .iter()
            .zip(&self.writes)
            .map(|(q, w)| q.iter().chain(w).sum::<f64>() / 1e3)
            .fold(0.0, f64::max);
        ops as f64 / slowest_s
    }
}

pub fn run(cfg: &RunConfig) -> Res<RunReport> {
    let spec = cfg.spec;
    let scratch = ScratchDir::create(&cfg.out_dir, spec.name)?;
    // Rounds until `--seconds` have passed since the process started, at
    // least `SETUP_REPS`. The first `SETUP_REPS` set up from nothing.
    let mut inputs: Option<Inputs> = None;
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < SETUP_REPS || cfg.process_start.elapsed().as_secs_f64() < cfg.seconds {
        let r = rounds.len();
        let started = if r == 0 {
            cfg.process_start
        } else {
            Instant::now()
        };
        let from_nothing = r < SETUP_REPS;
        if from_nothing {
            inputs = Some(Inputs::generate(spec.profile, cfg.scale, cfg.seed));
        }
        let inputs = inputs.as_ref().expect("the first round generates");
        rounds.push(one_round(
            cfg,
            inputs,
            &scratch.0.join(format!("round{r}")),
            from_nothing.then_some(started),
            r == 0,
        )?);
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    let facts = InputFacts::of(&inputs, cfg)?;
    let clients = if spec.concurrent_rw { cfg.nproc } else { 1 };

    // The correctness gate, outside every timed region. Round 0 pays for
    // the oracle; the later rounds repeat its queries.
    let n_writes = rounds[0].logs[0].writes.len();
    let ingested: Vec<IngestColumn> = if spec.concurrent_rw {
        (0..n_writes).map(|w| inputs.ingest_column(w)).collect()
    } else {
        Vec::new()
    };
    let reference = Reference::new(&inputs, &ingested);
    let visible = if spec.concurrent_rw {
        Visible::ByGeneration
    } else {
        Visible::None
    };
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut stats: Vec<RoundStats> = Vec::new();
    for (r, round) in rounds.iter().enumerate() {
        for (c, i, why) in check_logs(
            &reference,
            spec.mode,
            Visible::None,
            &round.warm_logs,
            cfg.nproc,
        ) {
            failures.push(format!("round {r} warm-up client {c} op {i}: {why}"));
        }
        let wrong = check_logs(&reference, spec.mode, visible, &round.logs, cfg.nproc);
        let timed_writes = || round.logs.iter().flat_map(|l| &l.writes);
        let round_attempted =
            round.logs.iter().map(|l| l.ops.len()).sum::<usize>() + timed_writes().count();
        let round_failed = wrong.len() + timed_writes().filter(|w| w.result.is_err()).count();
        attempted += round_attempted;
        failed += round_failed;
        for (c, i, why) in wrong {
            failures.push(format!("round {r} client {c} query {i}: {why}"));
        }
        for w in timed_writes().chain(&round.probe_writes) {
            if let Err(e) = &w.result {
                failures.push(format!("round {r} write {}: {e}", w.table));
            }
        }
        failures.extend(round.invisible.iter().map(|f| format!("round {r}: {f}")));

        let latencies: Vec<f64> = round
            .logs
            .iter()
            .flat_map(|l| l.ops.iter().map(|o| o.latency_ms))
            .collect();
        let visible_ms: Vec<f64> = timed_writes()
            .chain(&round.probe_writes)
            .filter(|w| w.result.is_ok())
            .map(|w| w.visible_ms)
            .collect();
        if latencies.is_empty() {
            return Err(format!("round {r} completed no operation"));
        }
        if visible_ms.is_empty() {
            return Err(format!(
                "round {r}: no write completed, ingest_visible_p50_ms is undefined"
            ));
        }
        let start = round.logs.iter().map(|l| l.start).min().expect("a client");
        let end = round.logs.iter().map(|l| l.end).max().expect("a client");
        let wall_s = end.duration_since(start).as_secs_f64();
        stats.push(RoundStats {
            setup_s: round.setup_s,
            build_s: round.build_s,
            query_p50_ms: median(&latencies),
            query_p90_ms: percentile(&latencies, 0.9),
            qps: (round_attempted - round_failed) as f64 / wall_s,
            ingest_visible_p50_ms: median(&visible_ms),
            timed_wall_s: wall_s,
        });
    }

    // Every round ran the same operations, and what the host's other
    // tenants do only ever adds time: an operation's time is the best of
    // its repetitions, percentiles are taken over the operations, and
    // `setup_s` is the median of the set-ups from nothing (see README,
    // "Rounds").
    let all: Vec<&Round> = rounds.iter().collect();
    let every_other: Vec<&Round> = rounds.iter().step_by(2).collect();
    let timed = BestTimes::of(&all);
    let query_p50_ms = timed.query_percentile(0.5);
    let half_rounds_p50_ms = BestTimes::of(&every_other).query_percentile(0.5);
    if !query_p50_ms.is_finite() || !timed.write_p50().is_finite() {
        return Err("an operation never succeeded, its best time is undefined".into());
    }
    let setups: Vec<f64> = stats.iter().filter_map(|s| s.setup_s).collect();
    let (resident_bytes, disk_bytes) = rounds[0].footprint.expect("asked of round 0");
    let n_vectors = inputs.n_vectors() as f64;
    let metrics = vec![
        metric("setup_s", median(&setups)),
        metric(
            "build_s",
            stats.iter().map(|s| s.build_s).fold(f64::MAX, f64::min),
        ),
        metric("query_p50_ms", query_p50_ms),
        metric("query_p90_ms", timed.query_percentile(0.9)),
        metric("qps", timed.qps()),
        metric("ingest_visible_p50_ms", timed.write_p50()),
        metric(
            "resident_bytes_per_vector",
            resident_bytes as f64 / n_vectors,
        ),
        metric("disk_bytes_per_vector", disk_bytes as f64 / n_vectors),
    ];
    let p50_bound = end_to_end("query_p50_ms").expect("named metric").bound;
    let round0: Vec<f64> = rounds[0]
        .logs
        .iter()
        .flat_map(|l| l.ops.iter().map(|o| o.latency_ms))
        .collect();
    let cache_hits = rounds
        .iter()
        .flat_map(|round| &round.logs)
        .flat_map(|l| &l.ops)
        .filter(|o| matches!(&o.reply, Ok((_, meta)) if meta.cached))
        .count();
    Ok(RunReport {
        metrics,
        attempted,
        failed,
        correct: failures.is_empty(),
        failures,
        inputs: facts,
        clients,
        round_query_samples: round0.len(),
        round_beyond_p90: samples_beyond(&round0, 0.9),
        round_write_samples: rounds[0].logs.iter().map(|l| l.writes.len()).sum::<usize>()
            + rounds[0].probe_writes.len(),
        warmup_ops: spec.warmup_ops(),
        half_rounds_p50_ms,
        stable: half_rounds_p50_ms <= query_p50_ms * (1.0 + p50_bound),
        cache_hits,
        rounds: stats,
    })
}

/// `bench/out`, next to this package's manifest.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_operations_time_is_the_best_of_its_repetitions() {
        let best = lowest([
            vec![5.0, 9.0, f64::INFINITY],
            vec![6.0, 7.0, f64::INFINITY, 4.0],
            vec![8.0, 8.0],
        ]);
        // A failed repetition gives no time; a slot only one round has keeps it.
        assert_eq!(best, vec![5.0, 7.0, f64::INFINITY, 4.0]);
        assert!(lowest(Vec::<Vec<f64>>::new()).is_empty());
        let failed = WriteRecord {
            table: 0,
            visible_ms: 0.1,
            result: Err("refused".into()),
        };
        let done = WriteRecord {
            table: 1,
            visible_ms: 2.5,
            result: Ok(()),
        };
        assert_eq!(write_times(&[failed, done]), vec![f64::INFINITY, 2.5]);
    }

    #[test]
    fn percentiles_and_qps_are_taken_over_the_operations() {
        let timed = BestTimes {
            // Client 0: 3 queries and a write, 40 ms in all; client 1: 30 ms.
            queries: vec![vec![10.0, 10.0, 15.0], vec![10.0, 20.0]],
            writes: vec![vec![5.0], vec![]],
            probes: vec![7.0],
        };
        assert_eq!(timed.query_percentile(0.5), 10.0);
        assert_eq!(timed.query_percentile(1.0), 20.0);
        assert_eq!(timed.write_p50(), 6.0);
        // 6 operations, the slower client's loop takes 40 ms.
        assert!((timed.qps() - 150.0).abs() < 1e-9);
    }
}
