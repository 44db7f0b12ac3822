//! What a run prints: every metric by name with its unit, a provenance
//! row appended to the results file, and — last — the one-line JSON
//! object the benchmark contract asks for.

use std::io::Write as _;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::ladder::TraceReport;
use crate::run::{InputFacts, Metric, RunConfig, RunReport};
use crate::spec::{end_to_end, Hop, Mode, PARTITIONS, PER_LAYER, SHARDS, TOPK_K, T_RATIO};
use crate::Res;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and on what a row was measured. The driver's checkout is not a
/// git repository; the commit then reads `unknown`.
pub fn provenance(cfg: &RunConfig) -> Json {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    let rustc = command_line("rustc", &["--version"]);
    Json::obj([
        ("host", Json::str(host)),
        ("nproc", Json::from(cfg.nproc)),
        (
            "kernel_tier",
            Json::from(pexeso_core::kernel::tier().name()),
        ),
        (
            "git_commit",
            Json::str(commit.unwrap_or_else(|| "unknown".into())),
        ),
        (
            "rustc",
            Json::str(rustc.unwrap_or_else(|| "unknown".into())),
        ),
    ])
}

fn parameters(cfg: &RunConfig) -> Json {
    let spec = cfg.spec;
    let profile = spec.profile;
    let options = profile.index_options();
    Json::obj([
        (
            "lake",
            Json::str(format!(
                "{}({}, seed)",
                profile.name(),
                profile.base_scale() * cfg.scale
            )),
        ),
        ("scale", Json::Num(cfg.scale)),
        ("dim", Json::from(profile.dim())),
        ("query_rows", Json::from(profile.query_rows())),
        ("metric", Json::from("euclidean")),
        ("tau_ratio", Json::Num(0.06)),
        (
            "mode",
            match spec.mode {
                Mode::Threshold => Json::str(format!("threshold T={T_RATIO}")),
                Mode::Topk => Json::str(format!("topk k={TOPK_K}")),
            },
        ),
        ("num_pivots", Json::from(options.num_pivots)),
        ("levels", options.levels.map_or(Json::Null, Json::from)),
        ("pivot_selection", Json::from("pca")),
        ("index_seed", Json::from(options.seed)),
        ("partitions", Json::from(PARTITIONS)),
        (
            "hop",
            match spec.hop {
                Hop::Daemon => Json::from("ServeClient -> daemon"),
                Hop::Router => Json::str(format!(
                    "ServeClient -> RouterServer -> {SHARDS} shard daemons"
                )),
            },
        ),
        ("round_ops_per_client", Json::from(spec.round_ops)),
        ("trace_ops", Json::from(spec.trace_ops)),
        ("run_seconds", Json::Num(cfg.seconds)),
        ("loop", Json::from("closed")),
    ])
}

fn metrics_json(metrics: &[Metric], with_bounds: bool) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::from(m.unit))];
        if with_bounds {
            let spec = end_to_end(m.name).expect("a named end-to-end metric");
            fields.push(("better", Json::from(spec.better.name())));
            fields.push(("bound", Json::Num(spec.bound)));
        } else if let Some(spec) = PER_LAYER.iter().find(|p| p.name == m.name) {
            fields.push(("better", Json::from(spec.better.name())));
        }
        (m.name, Json::obj(fields))
    }))
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (name → value and unit).
fn contract_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
        )
    }));
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
    .render()
}

fn append_row(path: &Path, row: &Json) -> Res<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {parent:?}: {e}"))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {path:?}: {e}"))?;
    writeln!(file, "{}", row.render()).map_err(|e| format!("write {path:?}: {e}"))
}

fn print_failures(failures: &[String]) {
    for f in failures.iter().take(10) {
        println!("  FAILED: {f}");
    }
    if failures.len() > 10 {
        println!("  … and {} more", failures.len() - 10);
    }
}

fn header(cfg: &RunConfig, trace: bool, prov: &Json, inputs: &InputFacts) {
    let get = |k: &str| prov.get(k).map(Json::render).unwrap_or_default();
    println!(
        "workload {} seed {} trace {} scale {} run_seconds {}",
        cfg.spec.name,
        cfg.seed,
        u8::from(trace),
        cfg.scale,
        cfg.seconds
    );
    println!("  why: {}", cfg.spec.why);
    if !cfg.spec.contract {
        println!("  not among the workloads of BENCHMARK.json (see README, \"Workloads\")");
    }
    println!(
        "  host {} nproc {} kernel_tier {} commit {} rustc {}",
        get("host"),
        get("nproc"),
        get("kernel_tier"),
        get("git_commit"),
        get("rustc")
    );
    println!(
        "  inputs {} ({})",
        inputs.fingerprint,
        if inputs.pinned {
            "matches the committed fingerprint"
        } else {
            "seed or scale not pinned"
        }
    );
}

/// What every row starts with: what was run, where, and on which inputs.
fn row_head(
    cfg: &RunConfig,
    trace: usize,
    prov: Json,
    inputs: &InputFacts,
) -> Vec<(&'static str, Json)> {
    vec![
        ("schema", Json::from(1usize)),
        ("workload", Json::from(cfg.spec.name)),
        ("trace", Json::from(trace)),
        ("seed", Json::from(cfg.seed)),
        ("provenance", prov),
        ("parameters", parameters(cfg)),
        (
            "inputs",
            Json::obj([
                ("fingerprint", Json::str(inputs.fingerprint.clone())),
                ("pinned", Json::Bool(inputs.pinned)),
                ("columns", Json::from(inputs.n_columns)),
                ("vectors", Json::from(inputs.n_vectors)),
            ]),
        ),
    ]
}

/// Print an untraced run and append its row; returns the contract line.
pub fn emit_run(cfg: &RunConfig, results: &Path, r: &RunReport) -> Res<String> {
    let prov = provenance(cfg);
    header(cfg, false, &prov, &r.inputs);
    println!(
        "  lake: {} columns, {} vectors; {} client(s), closed loop; warm-up {} ops per client and round (discarded)",
        r.inputs.n_columns, r.inputs.n_vectors, r.clients, r.warmup_ops
    );
    print_metrics(&r.metrics);
    println!(
        "  {} rounds of the same operations, each on a fresh deployment; per round {} query latencies ({} beyond p90), {} writes; {} cache hits in all",
        r.rounds.len(), r.round_query_samples, r.round_beyond_p90, r.round_write_samples, r.cache_hits
    );
    println!(
        "  round  setup_s  build_s  query_p50_ms  query_p90_ms       qps  ingest_visible_p50_ms"
    );
    for (i, s) in r.rounds.iter().enumerate() {
        println!(
            "  {i:>5}  {:>7}  {:>7.4}  {:>12.4}  {:>12.4}  {:>8.3}  {:>21.4}",
            s.setup_s.map_or("-".to_string(), |v| format!("{v:.3}")),
            s.build_s,
            s.query_p50_ms,
            s.query_p90_ms,
            s.qps,
            s.ingest_visible_p50_ms
        );
    }
    println!(
        "  query_p50_ms from every other round alone: {:.4} \u{2192} {}",
        r.half_rounds_p50_ms,
        if r.stable { "stable" } else { "unstable" }
    );
    println!(
        "  failed_share {} ({} failed of {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    print_failures(&r.failures);
    let mut row = row_head(cfg, 0, prov, &r.inputs);
    row.extend([
        (
            "samples",
            Json::obj([
                ("clients", Json::from(r.clients)),
                ("rounds", Json::from(r.rounds.len())),
                ("round_query_latencies", Json::from(r.round_query_samples)),
                ("round_beyond_p90", Json::from(r.round_beyond_p90)),
                ("round_writes", Json::from(r.round_write_samples)),
                ("warmup_ops_per_client", Json::from(r.warmup_ops)),
                ("cache_hits", Json::from(r.cache_hits)),
            ]),
        ),
        (
            "rounds",
            Json::Arr(
                r.rounds
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("setup_s", s.setup_s.map_or(Json::Null, Json::Num)),
                            ("build_s", Json::Num(s.build_s)),
                            ("query_p50_ms", Json::Num(s.query_p50_ms)),
                            ("query_p90_ms", Json::Num(s.query_p90_ms)),
                            ("qps", Json::Num(s.qps)),
                            ("ingest_visible_p50_ms", Json::Num(s.ingest_visible_p50_ms)),
                            ("timed_wall_s", Json::Num(s.timed_wall_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "stability",
            Json::obj([
                ("half_rounds_query_p50_ms", Json::Num(r.half_rounds_p50_ms)),
                ("stable", Json::Bool(r.stable)),
            ]),
        ),
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        (
            "failed_share",
            Json::Num(r.failed as f64 / r.attempted.max(1) as f64),
        ),
        ("metrics", metrics_json(&r.metrics, true)),
    ]);
    append_row(results, &Json::obj(row))?;
    Ok(contract_line(r.correct, r.attempted, r.failed, &r.metrics))
}

/// Print a traced run, write its spans and append its row; returns the
/// contract line.
pub fn emit_trace(cfg: &RunConfig, results: &Path, r: &TraceReport) -> Res<String> {
    let prov = provenance(cfg);
    header(cfg, true, &prov, &r.inputs);
    println!(
        "  lake: {} columns, {} vectors; {} traced operations, each climbed through every layer",
        r.inputs.n_columns, r.inputs.n_vectors, r.traced_ops
    );
    print_metrics(&r.metrics);
    println!(
        "  op p50: traced {:.4} ms, untraced twin {:.4} ms; harness self time per op {:.1} us",
        r.traced_p50_ms, r.untraced_p50_ms, r.op_self_p50_us
    );
    println!(
        "  verify share of mapping+block+verify: {:.1} %",
        r.verify_share * 100.0
    );
    print_failures(&r.failures);
    let trace_path = cfg.out_dir.join(format!("trace-{}.json", cfg.spec.name));
    let trace_doc = Json::obj([
        ("workload", Json::from(cfg.spec.name)),
        ("seed", Json::from(cfg.seed)),
        ("provenance", prov.clone()),
        ("parameters", parameters(cfg)),
        ("spans", r.spans.clone()),
    ]);
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("create {:?}: {e}", cfg.out_dir))?;
    std::fs::write(&trace_path, trace_doc.render())
        .map_err(|e| format!("write {trace_path:?}: {e}"))?;
    println!("  spans written to {}", trace_path.display());
    let mut row = row_head(cfg, 1, prov, &r.inputs);
    row.extend([
        (
            "samples",
            Json::obj([
                ("traced_ops", Json::from(r.traced_ops)),
                ("traced_p50_ms", Json::Num(r.traced_p50_ms)),
                ("untraced_p50_ms", Json::Num(r.untraced_p50_ms)),
                ("verify_share", Json::Num(r.verify_share)),
            ]),
        ),
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        ("metrics", metrics_json(&r.metrics, false)),
    ]);
    append_row(results, &Json::obj(row))?;
    Ok(contract_line(r.correct, r.attempted, r.failed, &r.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_parses_with_exactly_the_contract_keys() {
        let metrics = [
            Metric {
                name: "query_p50_ms",
                value: 9.456_789_012_345,
                unit: "ms",
            },
            Metric {
                name: "qps",
                value: 103.0,
                unit: "1/s",
            },
        ];
        let line = contract_line(true, 500, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(500.0));
        let p50 = doc.get("metrics").unwrap().get("query_p50_ms").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(9.456_789_012_345));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(p50.as_object().unwrap().len(), 2);
    }

    #[test]
    fn rows_carry_bounds_and_directions() {
        let metrics = [Metric {
            name: "qps",
            value: 1.0,
            unit: "1/s",
        }];
        let with = metrics_json(&metrics, true);
        let qps = with.get("qps").unwrap();
        assert_eq!(qps.get("better").unwrap().as_str(), Some("higher"));
        assert!(qps.get("bound").unwrap().as_f64().unwrap() > 0.0);
        let layer = [Metric {
            name: "verify.ms",
            value: 1.0,
            unit: "ms",
        }];
        let without = metrics_json(&layer, false);
        assert!(without.get("verify.ms").unwrap().get("bound").is_none());
        assert_eq!(
            without
                .get("verify.ms")
                .unwrap()
                .get("better")
                .unwrap()
                .as_str(),
            Some("lower")
        );
    }
}
