//! `pexeso` — command-line joinable-table discovery over CSV data lakes.
//!
//! ```text
//! pexeso index   --lake <dir-of-csvs> --out <index-dir> [--dim 64] [--partitions 4] [--policy seq|par|par:N]
//! pexeso ingest  --index <index-dir> --lake <dir-of-csvs> [--addr <host:port>]
//! pexeso drop    --index <index-dir> --table <name> [--addr <host:port>]
//! pexeso compact --index <index-dir> [--partitions N] [--policy seq|par|par:N]
//! pexeso serve   --index <index-dir> [--addr 127.0.0.1:7878 | --port <p>] [--workers 4] [--queue 64] [--soft-queue <n>] [--cache 4096] [--metrics-sample-rate 0.01] [--slow-log 8] [--log <level>] [--fault-profile <spec>]
//! pexeso query   (--index <index-dir> | --addr <host:port>[,<host:port>...]) --query <csv> [--column <name>] [--tau 0.06] [--t 0.5 | --k <k>] [--policy ...] [--budget <n>] [--deadline-ms <ms>] [--trace] [--explain]
//! pexeso query   --addr <host:port> --metrics | --slow | --health | --drain <replica> | --undrain <replica> | --reload [--reload-dir <dir>] | --apply [--shard N] | --shutdown
//! pexeso shard-plan  --index <index-dir> --shards <n>
//! pexeso shard-split --index <index-dir> --shards <n> --out <dir>
//! pexeso router  --map <shardmap.txt> [--addr 127.0.0.1:7900 | --port <p>] [--workers 4] [--queue 64] [--log <level>]
//! ```
//!
//! The offline step detects each table's key column, embeds it with the
//! deterministic character-level embedder, JSD-partitions the columns, and
//! persists one PEXESO index per partition plus a versioned manifest.
//! `query` embeds the query column with the same embedder and asks one
//! [`Queryable`]: the deployment itself (`--index`, delta log included),
//! a resident `pexeso serve` daemon or router (`--addr`), which keeps the
//! partitions hot, caches results, and supports zero-downtime re-index via
//! `--reload`, or a replica list of them. `--t` asks a threshold search,
//! `--k` a top-k ranking; every backend checks the query against its own
//! manifest's metric. Between full builds the lake stays maintainable online:
//! `ingest` appends new tables to the deployment's write-ahead delta log
//! in seconds (and, with `--addr`, tells a live daemon to publish them
//! without reloading its base snapshot), `drop` tombstones tables, and
//! `compact` folds the log into fresh base partitions.
//!
//! `--policy` defaults to `seq` for the builds (`index`, `compact`) and
//! to `par` for a query — machine-sized on the host that executes it: the
//! daemon resolves it for `query --addr`, this process for `query --index`.
//!
//! `query` accepts a comma-separated replica list in `--addr`: queries
//! then go through the retrying, failover-capable client, and the reply
//! is byte-identical whichever replica answered. `serve --fault-profile`
//! arms the deterministic fault-injection registry (dev/chaos-testing
//! only — never in production).
//!
//! Beyond one machine, `shard-split` cuts a built deployment into N
//! shard deployments by external-id range (`shard-plan` previews the
//! cut), each served by ordinary `pexeso serve` daemons, and `router`
//! runs the scatter-gather tier over the resulting shard map. The router
//! speaks the same protocol, so `pexeso query` works against it
//! unchanged — including `--apply --shard N` for routed live ingest
//! addressed at one shard's replicas.
//!
//! Observability: `query --trace` prints the per-phase span
//! tree (`map → block → verify → merge`, plus per-partition children);
//! against a daemon the server-side trace is requested over the wire and
//! merged with the client's attempt timeline. `query --metrics` scrapes
//! every counter of a daemon or router as Prometheus text (p50/p99
//! gauges included; a daemon adds its index shape per partition),
//! `query --slow` dumps the slow-query log,
//! and `serve --metrics-sample-rate` self-samples traces into that log.
//! `query --explain` runs the query with the plan plane on and prints the
//! candidate funnel; `query --health`
//! reports readiness (a router rolls its shards into one fleet answer,
//! steerable with `--drain`/`--undrain`). `serve --log`/`router --log`
//! turn on JSON-lines structured logging on stderr; traced and explained
//! remote queries print the minted request id that correlates the client
//! with every log line the request produced on the way down.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pexeso::pipeline::{build_lake_index, embed_query};
use pexeso::prelude::*;
use std::time::Duration;

/// Shadow the crate's `Result` alias: CLI errors are plain strings.
type CliResult<T> = std::result::Result<T, String>;
use pexeso_delta::DeltaLake;
use pexeso_lake::csv::read_table_file;
use pexeso_lake::keycol::KeyColumnConfig;
use pexeso_serve::{
    ResilientClient, ResilientConfig, RetryStats, ServeClient, ServeConfig, Server,
};

/// One legal flag of a subcommand.
struct FlagSpec {
    name: &'static str,
    /// `--flag value` when true, a bare `--flag` switch when false.
    takes_value: bool,
}

const fn val(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
    }
}

const fn switch(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
    }
}

const INDEX_FLAGS: &[FlagSpec] = &[
    val("lake"),
    val("out"),
    val("dim"),
    val("partitions"),
    val("policy"),
    switch("help"),
];
const INGEST_FLAGS: &[FlagSpec] = &[val("index"), val("lake"), val("addr"), switch("help")];
const DROP_FLAGS: &[FlagSpec] = &[val("index"), val("table"), val("addr"), switch("help")];
const COMPACT_FLAGS: &[FlagSpec] = &[
    val("index"),
    val("partitions"),
    val("policy"),
    switch("help"),
];
const SERVE_FLAGS: &[FlagSpec] = &[
    val("index"),
    val("addr"),
    val("port"),
    val("workers"),
    val("queue"),
    val("soft-queue"),
    val("cache"),
    val("metrics-sample-rate"),
    val("slow-log"),
    val("log"),
    val("fault-profile"),
    switch("help"),
];
const QUERY_FLAGS: &[FlagSpec] = &[
    val("index"),
    val("addr"),
    val("query"),
    val("column"),
    val("tau"),
    val("t"),
    val("k"),
    val("policy"),
    val("budget"),
    val("deadline-ms"),
    val("reload-dir"),
    val("shard"),
    val("drain"),
    val("undrain"),
    switch("trace"),
    switch("explain"),
    switch("metrics"),
    switch("slow"),
    switch("health"),
    switch("reload"),
    switch("apply"),
    switch("shutdown"),
    switch("help"),
];
const SHARD_PLAN_FLAGS: &[FlagSpec] = &[val("index"), val("shards"), switch("help")];
const SHARD_SPLIT_FLAGS: &[FlagSpec] = &[val("index"), val("shards"), val("out"), switch("help")];
const ROUTER_FLAGS: &[FlagSpec] = &[
    val("map"),
    val("addr"),
    val("port"),
    val("workers"),
    val("queue"),
    val("slow-log"),
    val("log"),
    switch("help"),
];

fn usage_text(cmd: &str) -> &'static str {
    match cmd {
        "index" => {
            "pexeso index --lake <dir-of-csvs> --out <index-dir> [--dim 64] [--partitions 4] [--policy seq|par|par:N]"
        }
        "ingest" => {
            "pexeso ingest --index <index-dir> --lake <dir-of-csvs> [--addr <host:port>]"
        }
        "drop" => "pexeso drop --index <index-dir> --table <name> [--addr <host:port>]",
        "compact" => {
            "pexeso compact --index <index-dir> [--partitions N] [--policy seq|par|par:N]"
        }
        "serve" => {
            "pexeso serve --index <index-dir> [--addr 127.0.0.1:7878 | --port <p>] [--workers 4] [--queue 64] [--soft-queue <n>] [--cache 4096] [--metrics-sample-rate <0..=1>] [--slow-log <n>] [--log error|warn|info|debug] [--fault-profile <point:after:action[:param],...>]"
        }
        "query" => {
            "pexeso query (--index <index-dir> | --addr <host:port>[,<host:port>...]) --query <csv> [--column <name>] [--tau 0.06] [--t 0.5 | --k <k>] [--policy seq|par|par:N] [--budget <max-distances>] [--deadline-ms <ms>] [--trace] [--explain]\n\
             pexeso query --addr <host:port> --metrics | --slow | --health | --drain <replica> | --undrain <replica> | --reload [--reload-dir <dir>] | --apply [--shard N] | --shutdown"
        }
        "shard-plan" => "pexeso shard-plan --index <index-dir> --shards <n>",
        "shard-split" => "pexeso shard-split --index <index-dir> --shards <n> --out <dir>",
        "router" => {
            "pexeso router --map <shardmap.txt> [--addr 127.0.0.1:7900 | --port <p>] [--workers 4] [--queue 64] [--slow-log 8] [--log error|warn|info|debug]"
        }
        _ => "",
    }
}

/// Every subcommand, in the order `usage` lists them.
const SUBCOMMANDS: [&str; 9] = [
    "index",
    "ingest",
    "drop",
    "compact",
    "serve",
    "query",
    "shard-plan",
    "shard-split",
    "router",
];

fn usage() -> ExitCode {
    eprintln!("usage:");
    for cmd in SUBCOMMANDS {
        eprintln!("  {}", usage_text(cmd).replace('\n', "\n  "));
    }
    ExitCode::from(2)
}

/// Spec-driven `--flag [value]` parser: rejects unknown flags (naming the
/// subcommand), rejects duplicates instead of silently keeping the last
/// occurrence, and supports value-less switches like `--help`. Switches
/// are stored with an empty value.
fn parse_flags(
    cmd: &str,
    specs: &[FlagSpec],
    args: &[String],
) -> CliResult<HashMap<String, String>> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        let spec = specs.iter().find(|s| s.name == key).ok_or_else(|| {
            format!("unknown flag --{key} for subcommand '{cmd}' (see '{cmd} --help')")
        })?;
        if map.contains_key(key) {
            return Err(format!("duplicate flag --{key}"));
        }
        if spec.takes_value {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
            i += 2;
        } else {
            map.insert(key.to_string(), String::new());
            i += 1;
        }
    }
    Ok(map)
}

fn parse_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> CliResult<T>
where
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad --{key} '{v}': {e}")),
    }
}

/// The `--policy seq|par|par:N` flag shared by every subcommand. Absent,
/// the subcommand's own default applies: `seq` for the builds
/// (`index`, `compact`), the [`Query`] default (`par`) for a query.
fn parse_policy(flags: &HashMap<String, String>) -> CliResult<Option<ExecPolicy>> {
    flags
        .get("policy")
        .map(|v| ExecPolicy::parse(v).map_err(|e| e.to_string()))
        .transpose()
}

/// The optional `--budget <max-distances>` / `--deadline-ms <ms>` pair
/// shared by every online subcommand.
fn parse_budget(flags: &HashMap<String, String>) -> CliResult<QueryBudget> {
    let max: Option<u64> = match flags.get("budget") {
        None => None,
        Some(v) => Some(v.parse().map_err(|e| format!("bad --budget '{v}': {e}"))?),
    };
    let deadline: Option<u64> = match flags.get("deadline-ms") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|e| format!("bad --deadline-ms '{v}': {e}"))?,
        ),
    };
    Ok(QueryBudget {
        max_distance_computations: max,
        deadline: deadline.map(Duration::from_millis),
    })
}

/// The `--trace` switch: per-partition detail locally, because it is
/// free to render; the same level remotely so server and local traces
/// line up.
fn parse_trace(flags: &HashMap<String, String>) -> TraceLevel {
    if flags.contains_key("trace") {
        TraceLevel::Detail
    } else {
        TraceLevel::Off
    }
}

/// The [`Query`] that `--tau`, `--t` | `--k`, `--policy`, `--budget`,
/// `--deadline-ms`, `--trace` and `--explain` spell, plus τ and T as
/// given (the result header prints them). It ranks when `--k` is present;
/// otherwise it is a threshold search. It names no metric: every backend
/// checks it against its own manifest's.
fn query_from_flags(flags: &HashMap<String, String>) -> CliResult<(Query, f32, f64)> {
    if flags.contains_key("t") && flags.contains_key("k") {
        return Err("--t (threshold search) and --k (top-k) are mutually exclusive".into());
    }
    let tau: f32 = parse_or(flags, "tau", 0.06)?;
    let t: f64 = parse_or(flags, "t", 0.5)?;
    let mut q = match flags.get("k") {
        Some(k) => Query::topk(
            Tau::Ratio(tau),
            k.parse().map_err(|e| format!("bad --k '{k}': {e}"))?,
        ),
        None => Query::threshold(Tau::Ratio(tau), JoinThreshold::Ratio(t)),
    }
    .with_budget(parse_budget(flags)?)
    .with_trace(parse_trace(flags))
    .with_explain(flags.contains_key("explain"));
    if let Some(policy) = parse_policy(flags)? {
        q = q.with_policy(policy);
    }
    Ok((q, tau, t))
}

/// Write `print`'s output through one locked stdout. A reader that
/// stopped reading (`pexeso query … | head`) ends the output quietly; any
/// other write error fails the command.
fn write_stdout(print: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> CliResult<()> {
    let mut out = io::stdout().lock();
    match print(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(e.to_string()),
        _ => Ok(()),
    }
}

/// Print one query's answer: a header naming the query and `source` (what
/// answered), the hits, the candidate funnel when the query was explained,
/// and the span tree when it was traced. A budget-limited partial answer
/// says so in the header, so it is never mistaken for the exact one.
fn print_answer(
    out: &mut dyn Write,
    q: &Query,
    tau: f32,
    t: f64,
    source: &str,
    resp: &QueryResponse,
) -> io::Result<()> {
    let partial = match resp.outcome {
        QueryOutcome::Exact => "",
        QueryOutcome::Exceeded(Exceeded::DistanceComputations) => {
            ", PARTIAL: distance budget exceeded"
        }
        QueryOutcome::Exceeded(Exceeded::Deadline) => ", PARTIAL: deadline exceeded",
    };
    match q.mode {
        QueryMode::Topk(k) => writeln!(
            out,
            "\ntop-{k} joinable columns (tau={tau}, {source}{partial}):"
        )?,
        QueryMode::Threshold(_) => writeln!(
            out,
            "\n{} joinable columns (tau={tau}, T={t}, {source}{partial}):",
            resp.hits.len()
        )?,
    }
    for h in &resp.hits {
        writeln!(
            out,
            "  {} . {}  ({} records matched)",
            h.table_name, h.column_name, h.match_count
        )?;
    }
    if q.explain {
        let report = resp
            .explain
            .as_ref()
            .ok_or_else(|| io::Error::other("the answer carries no explain report"))?;
        write!(out, "\nquery plan:\n{}", report.render())?;
    }
    if let Some(trace) = &resp.trace {
        write!(
            out,
            "\ntrace (offsets/durations in us):\n{}",
            trace.render()
        )?;
    }
    Ok(())
}

/// Read every CSV under `lake_dir` (sorted, unreadable files skipped with
/// a warning) — shared by `index` and `ingest`.
fn load_csv_tables(lake_dir: &str) -> CliResult<Vec<pexeso_lake::table::Table>> {
    let mut tables = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(lake_dir)
        .map_err(|e| format!("cannot read {lake_dir}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    entries.sort();
    for path in &entries {
        match read_table_file(path) {
            Ok(t) => tables.push(t),
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    if tables.is_empty() {
        return Err(format!("no readable CSV tables under {lake_dir}"));
    }
    Ok(tables)
}

/// The smallest embedding dimensionality [`HashEmbedder::new`] accepts.
const MIN_DIM: usize = 4;

/// The query/ingest embedder of a deployment, refusing a manifest whose
/// dimensionality no embedder can produce instead of panicking on it.
fn deployment_embedder(dim: usize) -> CliResult<HashEmbedder> {
    if dim < MIN_DIM {
        return Err(format!(
            "the deployment's manifest says dim={dim}; embeddings need at least {MIN_DIM} dimensions"
        ));
    }
    Ok(HashEmbedder::new(dim))
}

fn cmd_index(flags: &HashMap<String, String>) -> CliResult<()> {
    let lake_dir = flags.get("lake").ok_or("--lake is required")?;
    let out_dir = PathBuf::from(flags.get("out").ok_or("--out is required")?);
    let dim: usize = parse_or(flags, "dim", 64)?;
    if dim < MIN_DIM {
        return Err(format!("bad --dim '{dim}': must be at least {MIN_DIM}"));
    }
    let partitions: usize = parse_or(flags, "partitions", 4)?;
    let policy = parse_policy(flags)?.unwrap_or_default();

    let tables = load_csv_tables(lake_dir)?;
    println!("loaded {} tables from {lake_dir}", tables.len());

    let embedder = HashEmbedder::new(dim);
    let deployed = build_lake_index(
        &tables,
        &embedder,
        "hash",
        &KeyColumnConfig::default(),
        &out_dir,
        partitions,
        policy,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "embedded {} key columns / {} values",
        deployed.n_columns, deployed.n_vectors
    );
    println!(
        "indexed into {} partitions ({:.1} MB) at {} (index_version={})",
        deployed.lake.num_partitions(),
        deployed.lake.disk_bytes().map_err(|e| e.to_string())? as f64 / 1e6,
        out_dir.display(),
        deployed.manifest.index_version,
    );
    Ok(())
}

/// Notify a live daemon that the delta log changed: one APPLY round-trip.
fn notify_daemon(addr: &str) -> CliResult<()> {
    let client =
        ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let (generation, delta_columns, tombstones) =
        client.apply_delta().map_err(|e| e.to_string())?;
    println!(
        "daemon at {addr} published generation {generation} \
         ({delta_columns} delta columns, {tombstones} tombstoned tables)"
    );
    Ok(())
}

fn cmd_ingest(flags: &HashMap<String, String>) -> CliResult<()> {
    let index_dir = PathBuf::from(flags.get("index").ok_or("--index is required")?);
    let lake_dir = flags.get("lake").ok_or("--lake is required")?;
    let tables = load_csv_tables(lake_dir)?;
    let manifest = pexeso_core::outofcore::LakeManifest::read(&index_dir)
        .map_err(|e| format!("cannot read manifest in {}: {e}", index_dir.display()))?;
    let embedder = deployment_embedder(manifest.dim)?;
    let report = pexeso::pipeline::ingest_tables(
        &index_dir,
        &tables,
        &embedder,
        &KeyColumnConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "ingested {} columns / {} values into the delta log \
         (external ids {}..{}, {} records total)",
        report.columns_added,
        report.vectors_added,
        report.first_external_id,
        report.next_external_id,
        report.log_records,
    );
    if let Some(addr) = flags.get("addr") {
        notify_daemon(addr)?;
    }
    Ok(())
}

fn cmd_drop(flags: &HashMap<String, String>) -> CliResult<()> {
    let index_dir = PathBuf::from(flags.get("index").ok_or("--index is required")?);
    let table = flags.get("table").ok_or("--table is required")?;
    let n = pexeso_delta::drop_tables(&index_dir, std::slice::from_ref(table))
        .map_err(|e| e.to_string())?;
    println!("tombstoned {n} table(s); space reclaimed at the next compact");
    if let Some(addr) = flags.get("addr") {
        notify_daemon(addr)?;
    }
    Ok(())
}

fn cmd_compact(flags: &HashMap<String, String>) -> CliResult<()> {
    let index_dir = PathBuf::from(flags.get("index").ok_or("--index is required")?);
    let partitions: Option<usize> = match flags.get("partitions") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|e| format!("bad --partitions '{v}': {e}"))?,
        ),
    };
    let policy = parse_policy(flags)?.unwrap_or_default();
    let report =
        pexeso_delta::compact_lake(&index_dir, partitions, policy).map_err(|e| e.to_string())?;
    println!(
        "compacted {} records into {} partitions: {} columns / {} vectors live \
         ({} dropped), index_version={}",
        report.records_folded,
        report.n_partitions,
        report.n_columns,
        report.n_vectors,
        report.columns_dropped,
        report.index_version,
    );
    println!("serving daemons pick the new base up via --reload (or --apply)");
    Ok(())
}

fn load_query(
    flags: &HashMap<String, String>,
    dim: usize,
) -> CliResult<(Vec<String>, HashEmbedder)> {
    let embedder = deployment_embedder(dim)?;
    let query_path = flags.get("query").ok_or("--query is required")?;
    let table = read_table_file(Path::new(query_path)).map_err(|e| e.to_string())?;
    let col = match flags.get("column") {
        Some(name) => table
            .column_index(name)
            .ok_or_else(|| format!("column '{name}' not in {query_path}"))?,
        None => {
            // Query tables may be tiny; don't apply the lake's minimum-rows gate.
            let cfg = KeyColumnConfig {
                min_rows: 1,
                ..Default::default()
            };
            pexeso_lake::keycol::detect_key_column(&table, &cfg)
                .ok_or("no key column detected; pass --column")?
        }
    };
    write_stdout(|out| {
        writeln!(
            out,
            "query: {} rows of {}.{}",
            table.n_rows(),
            table.name(),
            table.headers()[col]
        )
    })?;
    Ok((table.column(col).to_vec(), embedder))
}

/// Arm the process-wide structured logger from a `--log <level>` flag
/// (no flag and `--log off` leave it disabled: one relaxed load per
/// would-be call site).
fn init_logging(flags: &HashMap<String, String>) -> CliResult<()> {
    if let Some(spec) = flags.get("log") {
        match pexeso_core::log::LogLevel::parse(spec) {
            Some(Some(level)) => {
                pexeso_core::log::init_stderr(level);
            }
            Some(None) => {}
            None => return Err(format!("bad --log '{spec}' (error|warn|info|debug|off)")),
        }
    }
    Ok(())
}

/// The address a daemon listens on: `--addr`, or `--port` on loopback,
/// or loopback on `default_port`.
fn listen_addr(flags: &HashMap<String, String>, default_port: u16) -> CliResult<String> {
    match (flags.get("addr"), flags.get("port")) {
        (Some(_), Some(_)) => Err("--addr and --port are mutually exclusive".into()),
        (Some(addr), None) => Ok(addr.clone()),
        (None, Some(port)) => Ok(format!("127.0.0.1:{port}")),
        (None, None) => Ok(format!("127.0.0.1:{default_port}")),
    }
}

fn cmd_serve(flags: &HashMap<String, String>) -> CliResult<()> {
    let index_dir = PathBuf::from(flags.get("index").ok_or("--index is required")?);
    let addr = listen_addr(flags, 7878)?;
    let soft_watermark: Option<usize> = match flags.get("soft-queue") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|e| format!("bad --soft-queue '{v}': {e}"))?,
        ),
    };
    let default = ServeConfig::default();
    let config = ServeConfig {
        workers: parse_or(flags, "workers", 4)?,
        queue_capacity: parse_or(flags, "queue", 64)?,
        queue_soft_watermark: soft_watermark,
        cache_capacity: parse_or(flags, "cache", 4096)?,
        metrics_sample_rate: parse_or(flags, "metrics-sample-rate", default.metrics_sample_rate)?,
        slow_log_capacity: parse_or(flags, "slow-log", default.slow_log_capacity)?,
        ..default
    };
    let workers = config.workers;
    // Dev-only: arm deterministic faults in this process before the
    // daemon starts, so chaos tests can crash it at a chosen point.
    if let Some(profile) = flags.get("fault-profile") {
        pexeso_core::fault::arm_profile(profile).map_err(|e| format!("--fault-profile: {e}"))?;
        eprintln!("pexeso serve: FAULT INJECTION ARMED ({profile}) — dev/chaos use only");
    }
    init_logging(flags)?;
    let handle = Server::start(&index_dir, addr.as_str(), config).map_err(|e| e.to_string())?;
    println!(
        "pexeso serve: listening on {} ({} workers, index {})",
        handle.addr(),
        workers,
        index_dir.display()
    );
    // Runs until a client sends SHUTDOWN (`pexeso query --addr ... --shutdown`).
    handle.join();
    pexeso_core::log::flush();
    println!("pexeso serve: shut down");
    Ok(())
}

/// Preview how `shard-split` would cut the deployment: print the shard
/// map (with `-` replica placeholders) without writing anything.
fn cmd_shard_plan(flags: &HashMap<String, String>) -> CliResult<()> {
    let index_dir = PathBuf::from(flags.get("index").ok_or("--index is required")?);
    let shards: usize = parse_or(flags, "shards", 2)?;
    let map = pexeso_router::plan_shards(&index_dir, shards).map_err(|e| e.to_string())?;
    print!("{}", map.render());
    Ok(())
}

/// Cut a built deployment into per-shard deployment directories plus a
/// `shardmap.txt` the operator fills replica addresses into.
fn cmd_shard_split(flags: &HashMap<String, String>) -> CliResult<()> {
    let index_dir = PathBuf::from(flags.get("index").ok_or("--index is required")?);
    let out_dir = PathBuf::from(flags.get("out").ok_or("--out is required")?);
    let shards: usize = parse_or(flags, "shards", 2)?;
    let map = pexeso_router::split_lake(&index_dir, shards, &out_dir).map_err(|e| e.to_string())?;
    println!(
        "split {} into {} shard deployments under {}:",
        index_dir.display(),
        map.len(),
        out_dir.display()
    );
    print!("{}", map.render());
    println!(
        "fill in replica addresses in {} and start `pexeso serve` per shard directory, \
         then `pexeso router --map {}`",
        out_dir.join(pexeso_router::SHARD_MAP_FILE).display(),
        out_dir.join(pexeso_router::SHARD_MAP_FILE).display()
    );
    Ok(())
}

/// Run the scatter-gather router daemon over a shard map.
fn cmd_router(flags: &HashMap<String, String>) -> CliResult<()> {
    let map_path = PathBuf::from(flags.get("map").ok_or("--map is required")?);
    let addr = listen_addr(flags, 7900)?;
    let default = pexeso_router::RouterServeConfig::default();
    let config = pexeso_router::RouterServeConfig {
        workers: parse_or(flags, "workers", default.workers)?,
        queue_capacity: parse_or(flags, "queue", default.queue_capacity)?,
        slow_log_capacity: parse_or(flags, "slow-log", default.slow_log_capacity)?,
        ..default
    };
    let workers = config.workers;
    init_logging(flags)?;
    let handle = pexeso_router::RouterServer::start(&map_path, addr.as_str(), config)
        .map_err(|e| e.to_string())?;
    println!(
        "pexeso router: listening on {} ({} workers, {} shards, map {})",
        handle.addr(),
        workers,
        handle.router().shard_count(),
        map_path.display()
    );
    // Runs until a client sends SHUTDOWN (`pexeso query --addr ... --shutdown`).
    handle.join();
    pexeso_core::log::flush();
    println!("pexeso router: shut down");
    Ok(())
}

/// Connect to the first reachable replica and fetch the lake facts the
/// query embedding needs (the dimension). Replicas serve one deployment,
/// so any of them is authoritative.
fn probe_info(addrs: &[String]) -> CliResult<pexeso_serve::InfoReply> {
    let mut last = String::from("no address given");
    for addr in addrs {
        match ServeClient::connect(addr.as_str())
            .map_err(|e| e.to_string())
            .and_then(|c| c.info().map_err(|e| e.to_string()))
        {
            Ok(info) => return Ok(info),
            Err(e) => last = format!("{addr}: {e}"),
        }
    }
    Err(format!("no replica reachable ({last})"))
}

/// What answers a `query`: the deployment itself, one daemon or router
/// (which also reports its snapshot generation and whether the answer
/// came from its result cache), or a replica set behind the retrying,
/// failover-capable client.
enum Backend {
    Local(DeltaLake),
    Daemon(ServeClient),
    Replicas(ResilientClient),
}

impl Backend {
    /// Run `q` and name what answered, for the answer's header.
    fn execute(&self, q: &Query, vectors: &VectorStore) -> CliResult<(QueryResponse, String)> {
        let (queryable, source): (&dyn Queryable, String) = match self {
            Backend::Daemon(client) => {
                let (resp, meta) = client
                    .execute_detailed(q, vectors)
                    .map_err(|e| e.to_string())?;
                let cached = if meta.cached { ", cached" } else { "" };
                let source = format!("snapshot generation {}{cached}", meta.generation);
                return Ok((resp, source));
            }
            Backend::Local(lake) => (lake, "local".into()),
            Backend::Replicas(replicas) => {
                (replicas, format!("{} replicas", replicas.addrs().len()))
            }
        };
        let resp = queryable.execute(q, vectors).map_err(|e| e.to_string())?;
        Ok((resp, source))
    }
}

fn cmd_query(flags: &HashMap<String, String>) -> CliResult<()> {
    // `--addr` takes a comma-separated replica list; queries fail over
    // between them, admin verbs address exactly one daemon.
    let addrs: Vec<String> = flags
        .get("addr")
        .into_iter()
        .flat_map(|list| list.split(','))
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    match (flags.get("index"), flags.get("addr")) {
        (Some(_), Some(_)) => return Err("--index and --addr are mutually exclusive".into()),
        (None, None) => {
            return Err("pass --index <dir> (local) or --addr <host:port> (daemon/router)".into())
        }
        (None, Some(_)) if addrs.is_empty() => {
            return Err("--addr needs at least one host:port".into())
        }
        _ => {}
    }
    // Exactly one mode: at most one admin verb, no silently-ignored flags.
    let admin_verbs: Vec<&str> = [
        "metrics",
        "slow",
        "health",
        "drain",
        "undrain",
        "shutdown",
        "reload",
        "reload-dir",
        "apply",
    ]
    .into_iter()
    .filter(|v| flags.contains_key(*v))
    .collect();
    if admin_verbs.len() > 1 && admin_verbs != ["reload", "reload-dir"] {
        return Err(format!(
            "--{} and --{} are mutually exclusive",
            admin_verbs[0], admin_verbs[1]
        ));
    }
    if flags.contains_key("shard") && !flags.contains_key("apply") {
        return Err("--shard only addresses routed ingest; combine it with --apply".into());
    }
    if let Some(verb) = admin_verbs.first() {
        for q in [
            "query",
            "column",
            "tau",
            "t",
            "k",
            "policy",
            "budget",
            "deadline-ms",
            "trace",
            "explain",
        ] {
            if flags.contains_key(q) {
                return Err(format!("--{q} cannot be combined with --{verb}"));
            }
        }
        if flags.contains_key("index") {
            return Err(format!(
                "--{verb} addresses a daemon or router; pass --addr"
            ));
        }
        if addrs.len() > 1 {
            return Err(format!(
                "--{verb} addresses one daemon; pass a single --addr"
            ));
        }
        let addr = &addrs[0];
        let client = ServeClient::connect(addr.as_str())
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        return run_admin_verb(flags, addr, &client);
    }

    let (q, tau, t) = query_from_flags(flags)?;
    let (backend, dim) = match flags.get("index") {
        Some(dir) => {
            // Delta-aware open: tables ingested since the last build are
            // part of the answer, tombstoned ones are not.
            let lake = DeltaLake::open(Path::new(dir)).map_err(|e| e.to_string())?;
            let dim = lake.manifest().dim;
            (Backend::Local(lake), dim)
        }
        None => {
            let dim = probe_info(&addrs)?.dim as usize;
            let backend = match addrs.as_slice() {
                [addr] => Backend::Daemon(
                    ServeClient::connect(addr.as_str())
                        .map_err(|e| format!("cannot connect to {addr}: {e}"))?,
                ),
                // The resilient client retries with jittered backoff and
                // never past the deadline. Exactness makes the failover
                // invisible: every replica serves the same deployment, so
                // the reply is byte-identical whichever one answered.
                _ => Backend::Replicas(
                    ResilientClient::new(&addrs, ResilientConfig::default())
                        .map_err(|e| e.to_string())?,
                ),
            };
            (backend, dim)
        }
    };
    let (values, embedder) = load_query(flags, dim)?;
    let query = embed_query(&embedder, &values);

    // A traced or explained remote query is someone debugging: mint the
    // correlation id at the outermost hop and print it, so the operator
    // can grep the same rid out of the router log, every shard log, and
    // the SLOW entry.
    let remote = !matches!(backend, Backend::Local(_));
    let q = if remote && (q.trace.enabled() || q.explain) {
        let rid = pexeso_core::log::mint_request_id();
        write_stdout(|out| writeln!(out, "request id: {}", pexeso_core::log::fmt_request_id(rid)))?;
        q.with_request_id(rid)
    } else {
        q
    };

    let (resp, source) = backend.execute(&q, query.store())?;
    write_stdout(|out| {
        print_answer(out, &q, tau, t, &source, &resp)?;
        if let Backend::Replicas(resilient) = &backend {
            let s = resilient.stats();
            if s != RetryStats::default() {
                writeln!(
                    out,
                    "client resilience: retries={} failovers={} busy={} shed={} \
                     desyncs={} deadline_stops={} circuit_opens={}",
                    s.retries,
                    s.failovers,
                    s.busy,
                    s.shed,
                    s.desyncs,
                    s.deadline_stops,
                    s.circuit_opens
                )?;
            }
        }
        Ok(())
    })
}

/// Dispatch one admin verb (`--metrics`, `--shutdown`, `--reload`,
/// `--apply`, …) on a connected daemon and print its answer.
fn run_admin_verb(
    flags: &HashMap<String, String>,
    addr: &str,
    client: &ServeClient,
) -> CliResult<()> {
    let text = if flags.contains_key("metrics") {
        client.metrics_text().map_err(|e| e.to_string())?
    } else if flags.contains_key("slow") {
        let text = client.slow_log_text().map_err(|e| e.to_string())?;
        if text.is_empty() {
            "slow-query log is empty (traced or sampled queries feed it; \
             see serve --metrics-sample-rate)\n"
                .to_string()
        } else {
            text
        }
    } else if flags.contains_key("health") {
        client.health_text().map_err(|e| e.to_string())?
    } else if let Some(replica) = flags.get("drain") {
        client.drain(replica, true).map_err(|e| e.to_string())?
    } else if let Some(replica) = flags.get("undrain") {
        client.drain(replica, false).map_err(|e| e.to_string())?
    } else if flags.contains_key("shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        format!("server at {addr} is shutting down\n")
    } else if flags.contains_key("reload") || flags.contains_key("reload-dir") {
        let dir = flags.get("reload-dir").map(PathBuf::from);
        let (generation, partitions) = client.reload(dir.as_deref()).map_err(|e| e.to_string())?;
        format!("reloaded: generation {generation}, {partitions} partitions\n")
    } else if flags.contains_key("apply") {
        // Against a router `--shard N` names the shard whose replicas
        // should apply their delta log; a shard daemon ignores it.
        let shard: Option<u32> = match flags.get("shard") {
            None => None,
            Some(v) => Some(v.parse().map_err(|e| format!("bad --shard '{v}': {e}"))?),
        };
        let (generation, delta_columns, tombstones) =
            client.apply_delta_shard(shard).map_err(|e| e.to_string())?;
        format!(
            "applied delta log: generation {generation}, \
             {delta_columns} delta columns, {tombstones} tombstoned tables\n"
        )
    } else {
        unreachable!("caller dispatches here only with an admin verb present")
    };
    write_stdout(|out| out.write_all(text.as_bytes()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    type Run = fn(&HashMap<String, String>) -> CliResult<()>;
    let (specs, run): (&[FlagSpec], Run) = match cmd.as_str() {
        "index" => (INDEX_FLAGS, cmd_index),
        "ingest" => (INGEST_FLAGS, cmd_ingest),
        "drop" => (DROP_FLAGS, cmd_drop),
        "compact" => (COMPACT_FLAGS, cmd_compact),
        "serve" => (SERVE_FLAGS, cmd_serve),
        "query" => (QUERY_FLAGS, cmd_query),
        "shard-plan" => (SHARD_PLAN_FLAGS, cmd_shard_plan),
        "shard-split" => (SHARD_SPLIT_FLAGS, cmd_shard_split),
        "router" => (ROUTER_FLAGS, cmd_router),
        _ => return usage(),
    };
    let flags = match parse_flags(cmd, specs, &args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if flags.contains_key("help") {
        println!("usage: {}", usage_text(cmd));
        return ExitCode::SUCCESS;
    }
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
