//! Server instrumentation: lock-free counters, latency histograms, and
//! their one exposition format.
//!
//! Every hot-path record is a handful of relaxed atomic adds into a
//! [`pexeso_core::hist::AtomicHistogram`] — no mutex, no sampling ring,
//! no lost samples under contention (pinned by the hammer test below).
//! [`ServerMetrics::render_prometheus`] renders them as Prometheus text
//! exposition (`# TYPE`/`# HELP`, `_bucket`/`_sum`/`_count` series and
//! p50/p99 gauges) behind the `METRICS` verb — the one counter plane of
//! both daemon tiers, written through [`PromText`] and scrapeable by a
//! stock Prometheus. A shard daemon's scrape also carries its index
//! shape ([`render_inspection_prometheus`]: one labelled sample per
//! partition, no second text rendering). The in-repo
//! [`validate_prometheus`] checker keeps the format honest without a new
//! dependency; [`stat_value`] reads one sample back.
//!
//! The daemon also keeps a [`SlowQueryLog`]: a small slowest-N ring of
//! traced requests (fed by the `--metrics-sample-rate` sampler) dumped by
//! the `SLOW` verb, so a p99 spike comes with the phase tree that caused
//! it.

use std::borrow::Borrow;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pexeso_core::hist::{self, bucket_upper_bound, AtomicHistogram, HistSnapshot, NUM_BUCKETS};
use pexeso_core::inspect::{IndexInspection, PartitionInspection};

use crate::cache::CacheStats;
use crate::conn::{lock_unpoisoned, ConnCounters};
use crate::snapshot::Snapshot;

/// One endpoint's counters + latency histogram. Recording is atomics-only
/// — safe to call from every worker without serialising them.
#[derive(Default)]
pub struct EndpointMetrics {
    pub requests: AtomicU64,
    pub errors: AtomicU64,
    latency: AtomicHistogram,
}

impl EndpointMetrics {
    /// Count one served request and record its handling latency.
    /// Wait-free: four relaxed atomic adds, no lock anywhere.
    pub fn record(&self, latency: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.latency.record_duration(latency);
    }

    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the latency histogram (for exposition / merging).
    pub fn latency_snapshot(&self) -> HistSnapshot {
        self.latency.snapshot()
    }
}

/// All shard-daemon metrics, grouped per endpoint plus daemon-wide
/// counters and histograms. The backpressure counters and the queue-wait
/// histogram live in the connection core ([`ConnCounters`]); the
/// renderers read them from there.
#[derive(Default)]
pub struct ServerMetrics {
    pub search: EndpointMetrics,
    pub topk: EndpointMetrics,
    pub info: EndpointMetrics,
    /// METRICS/SLOW/HEALTH.
    pub admin: EndpointMetrics,
    pub reload: EndpointMetrics,
    /// Delta APPLY latency (ingest → published snapshot) rides on this
    /// endpoint's histogram.
    pub apply: EndpointMetrics,
    /// Result-cache lookup time, split by outcome — a hit that costs as
    /// much as a miss is a sharding problem.
    pub cache_hit_lookup: AtomicHistogram,
    pub cache_miss_lookup: AtomicHistogram,
    /// Per-phase search timings (Table VI's breakdown, as served).
    pub phase_map: AtomicHistogram,
    pub phase_block: AtomicHistogram,
    pub phase_verify: AtomicHistogram,
    /// Completed hot swaps.
    pub swaps: AtomicU64,
    /// Completed delta applies (live-ingest publishes).
    pub applies: AtomicU64,
    /// Cumulative exact distance computations spent in the verify stage
    /// across all served (uncached) queries — flat between repeats of a
    /// cached query, which is how the tests prove a cache hit skipped the
    /// search entirely.
    pub distance_computations: AtomicU64,
}

impl ServerMetrics {
    fn endpoints(&self) -> [(&'static str, &EndpointMetrics); 6] {
        [
            ("search", &self.search),
            ("topk", &self.topk),
            ("info", &self.info),
            ("admin", &self.admin),
            ("reload", &self.reload),
            ("apply", &self.apply),
        ]
    }

    /// Record the per-phase timings of one executed (uncached) search.
    pub fn record_phases(&self, stats: &pexeso_core::stats::SearchStats) {
        self.phase_map.record_duration(stats.mapping_time);
        self.phase_block.record_duration(stats.block_time);
        self.phase_verify.record_duration(stats.verify_time);
    }

    /// Render the Prometheus text exposition (the `METRICS` reply body).
    ///
    /// Histogram families render cumulative `_bucket{le=…}` series at
    /// every octave boundary of the log-bucketed layout (24 bounds +
    /// `+Inf`), which keeps the scrape small; the p50/p99 gauges of
    /// `pexeso_latency_quantile_microseconds` read the same snapshots at
    /// full bucket resolution. Output passes [`validate_prometheus`],
    /// which the CI smoke job asserts against a live daemon.
    pub fn render_prometheus(
        &self,
        uptime: Duration,
        conn: &ConnCounters,
        cache: &CacheStats,
        snap: &Snapshot,
    ) -> String {
        let latencies = self
            .endpoints()
            .map(|(name, ep)| (name, ep.latency_snapshot()));
        let queue_wait = conn.queue_wait.snapshot();
        let mut out = PromText::with_capacity(8192);
        out.gauge(
            "pexeso_uptime_seconds",
            "Seconds since the daemon started.",
            uptime.as_secs_f64(),
        );
        out.gauge(
            "pexeso_snapshot_generation",
            "Generation of the served snapshot.",
            snap.generation() as f64,
        );
        out.gauge(
            "pexeso_snapshot_index_version",
            "Build generation (manifest index_version) of the served base.",
            snap.lake().manifest().index_version as f64,
        );
        out.gauge(
            "pexeso_snapshot_partitions",
            "Partitions in the served snapshot.",
            snap.num_partitions() as f64,
        );
        out.gauge(
            "pexeso_delta_columns",
            "Live delta columns ingested since the base build.",
            snap.lake().overlay().n_delta_columns() as f64,
        );
        out.gauge(
            "pexeso_delta_tombstones",
            "Tables tombstoned since the base build.",
            snap.lake().overlay().n_tombstones() as f64,
        );
        out.gauge(
            "pexeso_cache_len",
            "Entries in the result cache.",
            cache.len as f64,
        );
        out.gauge(
            "pexeso_cache_capacity",
            "Result-cache entry budget across all shards.",
            cache.capacity as f64,
        );

        out.labelled(
            "pexeso_requests_total",
            "Requests served, per endpoint.",
            "counter",
            "endpoint",
            self.endpoints()
                .map(|(name, ep)| (name, ep.requests.load(Ordering::Relaxed))),
        );
        out.labelled(
            "pexeso_errors_total",
            "Request errors, per endpoint.",
            "counter",
            "endpoint",
            self.endpoints()
                .map(|(name, ep)| (name, ep.errors.load(Ordering::Relaxed))),
        );
        out.labelled(
            "pexeso_rejected_total",
            "Requests rejected before execution, by reason.",
            "counter",
            "reason",
            [
                ("busy", conn.busy_rejections.load(Ordering::Relaxed)),
                ("shed", conn.shed.load(Ordering::Relaxed)),
                ("expired", conn.expired.load(Ordering::Relaxed)),
            ],
        );
        out.counter(
            "pexeso_swaps_total",
            "Completed hot snapshot swaps.",
            self.swaps.load(Ordering::Relaxed),
        );
        out.counter(
            "pexeso_applies_total",
            "Completed delta applies.",
            self.applies.load(Ordering::Relaxed),
        );
        out.counter(
            "pexeso_distance_computations_total",
            "Exact distance computations across all served searches.",
            self.distance_computations.load(Ordering::Relaxed),
        );
        out.labelled(
            "pexeso_cache_ops_total",
            "Result-cache operations, by kind.",
            "counter",
            "op",
            [
                ("hit", cache.hits),
                ("miss", cache.misses),
                ("insert", cache.insertions),
                ("evict", cache.evictions),
            ],
        );
        out.labelled_histograms(
            "pexeso_request_latency_microseconds",
            "Request handling latency, per endpoint.",
            "endpoint",
            latencies.iter().map(|(name, s)| (*name, s)),
        );
        out.labelled_histograms(
            "pexeso_phase_microseconds",
            "Per-phase search time (Table VI breakdown).",
            "phase",
            [
                ("map", self.phase_map.snapshot()),
                ("block", self.phase_block.snapshot()),
                ("verify", self.phase_verify.snapshot()),
            ],
        );
        out.labelled_histograms(
            "pexeso_cache_lookup_microseconds",
            "Result-cache lookup time, by outcome.",
            "result",
            [
                ("hit", self.cache_hit_lookup.snapshot()),
                ("miss", self.cache_miss_lookup.snapshot()),
            ],
        );
        out.histogram(
            "pexeso_queue_wait_microseconds",
            "Time requests waited in the accept queue.",
            &queue_wait,
        );
        out.quantiles(
            "pexeso_latency_quantile_microseconds",
            "Request latency per endpoint and accept-queue wait, at full bucket resolution.",
            latencies
                .iter()
                .map(|(name, s)| (*name, s))
                .chain([("queue_wait", &queue_wait)]),
        );
        out.histogram(
            "pexeso_wal_append_microseconds",
            "Delta WAL record append latency (write + flush).",
            &hist::global::WAL_APPEND.snapshot(),
        );
        out.histogram(
            "pexeso_wal_fsync_microseconds",
            "Delta WAL fsync latency.",
            &hist::global::WAL_FSYNC.snapshot(),
        );
        out.finish()
    }
}

/// A Prometheus text-exposition writer: the one place the `# HELP` /
/// `# TYPE` header and sample-line syntax is spelled, shared by the shard
/// daemon's `METRICS` planes and the router tier's so every scrape
/// renders the same layout. Output passes [`validate_prometheus`].
pub struct PromText(String);

impl PromText {
    pub fn with_capacity(capacity: usize) -> Self {
        Self(String::with_capacity(capacity))
    }

    pub fn finish(self) -> String {
        self.0
    }

    /// Open a metric family: its `# HELP` and `# TYPE` lines (`kind` is
    /// `gauge`, `counter` or `histogram`). The family's samples follow.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.0, "# HELP {name} {help}");
        let _ = writeln!(self.0, "# TYPE {name} {kind}");
    }

    /// One sample line, `name{key="value",…} value`. Every label value of
    /// every scrape is written here, escaped (`\` → `\\`, `"` → `\"`,
    /// newline → `\n`), so any text — a replica address read from a
    /// shard-map file — stays one well-formed label. Without labels the
    /// braces are omitted (`name{}` is not universally accepted by
    /// Prometheus text parsers).
    pub fn sample(&mut self, name: &str, labels: &[(&str, &dyn Display)], value: impl Display) {
        self.0.push_str(name);
        for (i, (key, label)) in labels.iter().enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            let _ = write!(self.0, "{open}{key}=\"");
            for c in label.to_string().chars() {
                match c {
                    '\\' => self.0.push_str("\\\\"),
                    '"' => self.0.push_str("\\\""),
                    '\n' => self.0.push_str("\\n"),
                    c => self.0.push(c),
                }
            }
            self.0.push('"');
        }
        if !labels.is_empty() {
            self.0.push('}');
        }
        let _ = writeln!(self.0, " {value}");
    }

    /// A family whose samples differ in one label: the header plus one
    /// `name{key="label"} value` line per item.
    pub fn labelled<L: Display, V: Display>(
        &mut self,
        name: &str,
        help: &str,
        kind: &str,
        key: &str,
        samples: impl IntoIterator<Item = (L, V)>,
    ) {
        self.family(name, help, kind);
        for (label, value) in samples {
            self.sample(name, &[(key, &label)], value);
        }
    }

    /// A histogram family with one series per value of one label.
    fn labelled_histograms<L: Display, S: Borrow<HistSnapshot>>(
        &mut self,
        name: &str,
        help: &str,
        key: &str,
        series: impl IntoIterator<Item = (L, S)>,
    ) {
        self.family(name, help, "histogram");
        for (label, s) in series {
            self.histogram_series(name, &[(key, &label)], s.borrow());
        }
    }

    /// A gauge family of each series' p50 and p99,
    /// `name{series="…",quantile="0.5"|"0.99"}`, from
    /// [`HistSnapshot::quantile`] at full bucket resolution: the upper
    /// bound of the bucket holding the rank, at most one bucket width
    /// (~12.5%) above the true quantile, and 0 for an empty series.
    pub fn quantiles<L: Display, S: Borrow<HistSnapshot>>(
        &mut self,
        name: &str,
        help: &str,
        series: impl IntoIterator<Item = (L, S)>,
    ) {
        self.family(name, help, "gauge");
        for (label, s) in series {
            for q in [0.5, 0.99] {
                let value = s.borrow().quantile(q);
                self.sample(name, &[("series", &label), ("quantile", &q)], value);
            }
        }
    }

    /// A label-free gauge family with its one sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.family(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// A label-free counter family with its one sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.family(name, help, "counter");
        self.sample(name, &[], value);
    }

    /// A label-free histogram family with its one series.
    pub fn histogram(&mut self, name: &str, help: &str, s: &HistSnapshot) {
        self.family(name, help, "histogram");
        self.histogram_series(name, &[], s);
    }

    /// One labelled histogram series (`_bucket`s, `_sum`, `_count`) of an
    /// already-opened family, sampled at octave boundaries; `le` is
    /// appended to `labels`.
    fn histogram_series(&mut self, name: &str, labels: &[(&str, &dyn Display)], s: &HistSnapshot) {
        let bucket_name = format!("{name}_bucket");
        let bucket = |out: &mut Self, le: &dyn Display, cumulative: u64| {
            let mut with_le = labels.to_vec();
            with_le.push(("le", le));
            out.sample(&bucket_name, &with_le, cumulative);
        };
        let mut cumulative = 0u64;
        let mut next_bound = 0usize;
        for (i, &c) in s.buckets.iter().enumerate() {
            cumulative += c;
            // Emit at every octave boundary (every 8th bucket ends an octave).
            if i == next_bound {
                bucket(self, &bucket_upper_bound(i), cumulative);
                next_bound += 8;
            }
        }
        debug_assert_eq!(next_bound, NUM_BUCKETS);
        bucket(self, &"+Inf", s.count);
        self.sample(&format!("{name}_sum"), labels, s.sum);
        self.sample(&format!("{name}_count"), labels, s.count);
    }
}

/// The index-shape families of the `METRICS` scrape: per partition
/// (label `partition="i"`) the structural gauges and the pivot-spread
/// width, and over every partition the two cell-shape histograms and the
/// delta overlay's depth. A whole-deployment total is their `sum()`.
/// Appended by the shard daemon per generation (the underlying walk is
/// memoised snapshot-side). Passes [`validate_prometheus`].
pub fn render_inspection_prometheus(insp: &IndexInspection) -> String {
    type Pick = fn(&PartitionInspection) -> u64;
    let mut out = PromText::with_capacity(2048);
    for (name, help, pick) in [
        (
            "pexeso_index_columns",
            "Columns indexed, per partition (tombstoned included).",
            (|p| p.columns) as Pick,
        ),
        (
            "pexeso_index_deleted_columns",
            "Tombstoned columns awaiting compaction, per partition.",
            |p| p.deleted_columns,
        ),
        (
            "pexeso_index_vectors",
            "Repository vectors indexed, per partition.",
            |p| p.vectors,
        ),
        (
            "pexeso_index_cells",
            "Non-empty leaf cells of the repository grid, per partition.",
            |p| p.cells,
        ),
        (
            "pexeso_index_postings",
            "Inverted-index postings entries, per partition.",
            |p| p.postings,
        ),
    ] {
        let samples = insp.partitions.iter().map(pick).enumerate();
        out.labelled(name, help, "gauge", "partition", samples);
    }
    let spread = "pexeso_index_pivot_spread";
    out.family(
        spread,
        "Narrowest, widest and mean pivot coordinate width, per partition.",
        "gauge",
    );
    for (i, p) in insp.partitions.iter().enumerate() {
        if let Some(w) = p.pivot_width() {
            for (stat, value) in [("min", w.min), ("max", w.max), ("mean", w.mean)] {
                out.sample(
                    spread,
                    &[("partition", &i), ("stat", &stat)],
                    f64::from(value),
                );
            }
        }
    }
    out.gauge(
        "pexeso_index_delta_vectors",
        "Vectors living in the delta overlay (unindexed by the base).",
        insp.delta_vectors as f64,
    );
    out.gauge(
        "pexeso_index_delta_records",
        "Delta-log records replayed into the overlay.",
        insp.delta_records as f64,
    );
    out.histogram(
        "pexeso_index_postings_length",
        "Distinct columns per non-empty leaf cell.",
        &insp.postings_len(),
    );
    out.histogram(
        "pexeso_index_cell_occupancy",
        "Vectors per non-empty leaf cell.",
        &insp.cell_occupancy(),
    );
    out.finish()
}

/// Split a `name="value",…` label body into pairs, validating Prometheus
/// label syntax: names match `[a-zA-Z_][a-zA-Z0-9_]*`, values are
/// double-quoted with only `\\`, `\"`, and `\n` escapes.
fn parse_labels(labels: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = labels;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {labels:?}"))?;
        let name = &rest[..eq];
        let legal_name = !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !legal_name {
            return Err(format!("illegal label name {name:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label {name} value not quoted"))?;
        // Scan the quoted value, honouring escapes.
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let close = loop {
            let Some((i, c)) = chars.next() else {
                return Err(format!("label {name} value missing closing quote"));
            };
            match c {
                '"' => break i,
                '\\' => match chars.next() {
                    Some((_, e @ ('\\' | '"'))) => value.push(e),
                    Some((_, 'n')) => value.push('\n'),
                    other => {
                        return Err(format!(
                            "label {name} value has illegal escape \\{:?}",
                            other.map(|(_, c)| c)
                        ))
                    }
                },
                c => value.push(c),
            }
        };
        pairs.push((name.to_string(), value));
        rest = &rest[close + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err(format!("labels not comma-separated in {labels:?}"));
        }
    }
    Ok(pairs)
}

/// Minimal Prometheus text-format checker — enough for the tests and the
/// CI smoke job to assert a scrape is well-formed without pulling a
/// parser dependency. Checks:
///
/// * every sample line parses as `name[{labels}] value` with a legal
///   metric name and a float value;
/// * label names and values use legal Prometheus syntax;
/// * `# HELP`/`# TYPE` lines are well-formed, each family is declared
///   exactly once with a known type, and `HELP` precedes `TYPE`;
/// * every sample belongs to a family declared by a preceding `# TYPE`
///   (histogram samples may use the `_bucket`/`_sum`/`_count` suffixes);
/// * within each histogram series (same labels modulo `le`), bucket
///   counts are cumulative-monotone, `le` bounds increase, and the
///   series ends with `le="+Inf"` matching its `_count`.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::{HashMap, HashSet};
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashSet<String> = HashSet::new();
    // (family, labels-without-le) -> (last le, last cumulative, inf seen, count sample)
    #[derive(Default)]
    struct Series {
        last_le: Option<f64>,
        last_cumulative: Option<u64>,
        inf: Option<u64>,
        count: Option<u64>,
    }
    let mut series: HashMap<(String, String), Series> = HashMap::new();

    fn split_sample(line: &str) -> Option<(String, String, f64)> {
        let (name_labels, value) = line.rsplit_once(' ')?;
        let value: f64 = value.parse().ok()?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => (n, rest.strip_suffix('}')?),
            None => (name_labels, ""),
        };
        let legal = !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit());
        if !legal {
            return None;
        }
        Some((name.to_string(), labels.to_string(), value))
    }

    for (n, line) in text.lines().enumerate() {
        let lineno = n + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let Some((name, doc)) = rest.split_once(' ') else {
                return Err(format!("line {lineno}: malformed HELP line"));
            };
            if doc.trim().is_empty() {
                return Err(format!("line {lineno}: HELP {name} has no text"));
            }
            if !helps.insert(name.to_string()) {
                return Err(format!("line {lineno}: duplicate HELP for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(ty)) = (it.next(), it.next()) else {
                return Err(format!("line {lineno}: malformed TYPE line"));
            };
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown metric type {ty}"));
            }
            if !helps.contains(name) {
                return Err(format!("line {lineno}: TYPE {name} without preceding HELP"));
            }
            if types.insert(name.to_string(), ty.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((name, labels, value)) = split_sample(line) else {
            return Err(format!("line {lineno}: unparseable sample: {line}"));
        };
        parse_labels(&labels).map_err(|e| format!("line {lineno}: {e}"))?;
        // Resolve the family: exact name, or histogram suffix.
        let family = if types.contains_key(&name) {
            name.clone()
        } else {
            let stripped = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .map(str::to_string);
            match stripped {
                Some(f) if types.get(&f).map(String::as_str) == Some("histogram") => f,
                _ => return Err(format!("line {lineno}: sample {name} has no # TYPE")),
            }
        };
        if types.get(&family).map(String::as_str) != Some("histogram") {
            continue;
        }
        // Histogram bookkeeping.
        let base_labels: String = labels
            .split(',')
            .filter(|l| !l.is_empty() && !l.starts_with("le="))
            .collect::<Vec<_>>()
            .join(",");
        let entry = series.entry((family.clone(), base_labels)).or_default();
        if name.ends_with("_bucket") {
            let le = labels
                .split(',')
                .find_map(|l| l.strip_prefix("le=\"")?.strip_suffix('"'))
                .ok_or_else(|| format!("line {lineno}: bucket without le label"))?;
            let cumulative = value as u64;
            if let Some(prev) = entry.last_cumulative {
                if cumulative < prev {
                    return Err(format!(
                        "line {lineno}: non-monotone histogram bucket ({cumulative} < {prev})"
                    ));
                }
            }
            entry.last_cumulative = Some(cumulative);
            if le == "+Inf" {
                entry.inf = Some(cumulative);
            } else {
                let le: f64 = le
                    .parse()
                    .map_err(|_| format!("line {lineno}: unparseable le bound {le}"))?;
                if let Some(prev) = entry.last_le {
                    if le <= prev {
                        return Err(format!("line {lineno}: le bounds not increasing"));
                    }
                }
                entry.last_le = Some(le);
            }
        } else if name.ends_with("_count") {
            entry.count = Some(value as u64);
        }
    }
    for ((family, labels), s) in &series {
        let Some(inf) = s.inf else {
            return Err(format!(
                "histogram {family}{{{labels}}} missing le=\"+Inf\""
            ));
        };
        if let Some(count) = s.count {
            if inf != count {
                return Err(format!(
                    "histogram {family}{{{labels}}}: +Inf bucket {inf} != _count {count}"
                ));
            }
        }
    }
    Ok(())
}

/// The value of one sample of a `METRICS` scrape, looked up exactly:
/// `series` is `name` or `name{labels}` as rendered, e.g.
/// `pexeso_cache_ops_total{op="hit"}`. `None` when no line carries it.
pub fn stat_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.rsplit_once(' ').filter(|(s, _)| *s == series))
        .and_then(|(_, v)| v.parse().ok())
}

/// One entry of the slow-query log: the request's latency and its
/// rendered phase tree.
#[derive(Debug, Clone)]
pub(crate) struct SlowQuery {
    pub verb: &'static str,
    pub latency_us: u64,
    /// The rendered [`pexeso_core::trace::QueryTrace`] of the request.
    pub trace: String,
    /// The request id the frame carried, if any — lets one grep connect
    /// a SLOW entry to the structured log lines for the same request.
    pub request_id: Option<u64>,
    /// The shard that dominated the latency (router tier only): the
    /// scatter leg the merged trace charges the most wall time to.
    pub shard: Option<u32>,
}

/// A slowest-N ring of traced requests. Insertion takes a mutex, but only
/// sampled requests (see `--metrics-sample-rate`) ever reach it — the
/// unsampled hot path never touches this structure. Every entry is whole
/// before it enters the ring, so a panic under the lock cannot leave a
/// torn one and a poisoned lock is simply taken again.
pub struct SlowQueryLog {
    capacity: usize,
    entries: Mutex<Vec<SlowQuery>>,
}

impl SlowQueryLog {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offer a traced request. Kept if the log has room or the request is
    /// slower than the current fastest entry (which it evicts). The entry
    /// carries the wire request id (if the frame carried one) and, on the
    /// router tier, the shard the latency is attributed to.
    pub fn offer_correlated(
        &self,
        verb: &'static str,
        latency: Duration,
        trace: String,
        request_id: Option<u64>,
        shard: Option<u32>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let latency_us = latency.as_micros() as u64;
        let entry = SlowQuery {
            verb,
            latency_us,
            trace,
            request_id,
            shard,
        };
        let mut entries = lock_unpoisoned(&self.entries);
        if entries.len() < self.capacity {
            entries.push(entry);
            return;
        }
        let (idx, fastest) = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.latency_us)
            .map(|(i, e)| (i, e.latency_us))
            .expect("capacity > 0");
        if latency_us > fastest {
            entries[idx] = entry;
        }
    }

    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.entries).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The log as text, slowest first: a `slow_query verb=… latency_us=…`
    /// header line per entry followed by its indented phase tree.
    pub fn render(&self) -> String {
        let mut entries = lock_unpoisoned(&self.entries).clone();
        entries.sort_by_key(|e| std::cmp::Reverse(e.latency_us));
        let mut out = String::new();
        for e in &entries {
            let _ = write!(
                out,
                "slow_query verb={} latency_us={}",
                e.verb, e.latency_us
            );
            if let Some(rid) = e.request_id {
                let _ = write!(out, " rid={}", pexeso_core::log::fmt_request_id(rid));
            }
            if let Some(shard) = e.shard {
                let _ = write!(out, " shard={shard}");
            }
            let _ = writeln!(out);
            for line in e.trace.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot served as generation 2 of a base built as index version
    /// 5, with four ingested delta columns and one dropped base table, in
    /// a fresh directory named after `tag`.
    fn served_snapshot(tag: &str) -> (std::path::PathBuf, Snapshot) {
        use pexeso_core::prelude::*;
        use pexeso_delta::{drop_tables, ingest_columns, IngestColumn};
        let dir = std::env::temp_dir().join(format!("pexeso_metrics_{tag}_{}", std::process::id()));
        let mut columns = ColumnSet::new(2);
        for c in 0..4u64 {
            let v = [1.0, c as f32];
            columns
                .add_column(&format!("t{c}"), "c", c, vec![&v[..]])
                .unwrap();
        }
        PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig::default(),
            &IndexOptions::default(),
            &dir,
        )
        .unwrap();
        let mut manifest = LakeManifest::new("test", 2);
        manifest.index_version = 5;
        manifest.write(&dir).unwrap();
        let fresh: Vec<IngestColumn> = (0..4)
            .map(|c| IngestColumn {
                table_name: format!("fresh{c}"),
                column_name: "c".into(),
                vectors: vec![0.5, c as f32],
            })
            .collect();
        ingest_columns(&dir, &fresh).unwrap();
        drop_tables(&dir, &["t0".into()]).unwrap();
        let snap = Snapshot::load(&dir, 2).unwrap();
        (dir, snap)
    }

    #[test]
    fn concurrent_recording_loses_no_samples() {
        // The regression the old mutex ring could not make: N threads
        // hammering one endpoint must account for every sample exactly —
        // the only imprecision allowed is bucket granularity, never loss.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 20_000;
        let ep = std::sync::Arc::new(EndpointMetrics::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ep = ep.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        ep.record(Duration::from_micros(t * 100 + i % 1009));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = THREADS * PER_THREAD;
        assert_eq!(ep.requests.load(Ordering::Relaxed), total);
        let s = ep.latency_snapshot();
        assert_eq!(s.count, total, "histogram lost samples");
        assert_eq!(s.buckets.iter().sum::<u64>(), total, "bucket mass lost");
    }

    #[test]
    fn render_and_parse_roundtrip() {
        let (dir, snap) = served_snapshot("roundtrip");
        let m = ServerMetrics::default();
        let conn = ConnCounters::default();
        m.search.record(Duration::from_micros(250));
        conn.busy_rejections.fetch_add(3, Ordering::Relaxed);
        let cache = CacheStats {
            hits: 7,
            misses: 2,
            capacity: 100,
            ..Default::default()
        };
        let mut text = m.render_prometheus(Duration::from_secs(1), &conn, &cache, &snap);
        text.push_str(&render_inspection_prometheus(&snap.inspect()));
        validate_prometheus(&text).unwrap();
        for (series, value) in [
            ("pexeso_snapshot_generation", 2.0),
            ("pexeso_snapshot_index_version", 5.0),
            ("pexeso_snapshot_partitions", snap.num_partitions() as f64),
            ("pexeso_delta_columns", 4.0),
            ("pexeso_delta_tombstones", 1.0),
            (
                "pexeso_index_delta_records",
                snap.lake().overlay().n_records() as f64,
            ),
            ("pexeso_applies_total", 0.0),
            ("pexeso_cache_capacity", 100.0),
            ("pexeso_cache_ops_total{op=\"hit\"}", 7.0),
            ("pexeso_rejected_total{reason=\"busy\"}", 3.0),
            ("pexeso_rejected_total{reason=\"shed\"}", 0.0),
            ("pexeso_rejected_total{reason=\"expired\"}", 0.0),
            ("pexeso_requests_total{endpoint=\"search\"}", 1.0),
        ] {
            assert_eq!(stat_value(&text, series), Some(value), "{series}");
        }
        let p99 = "pexeso_latency_quantile_microseconds{series=\"search\",quantile=\"0.99\"}";
        assert!(stat_value(&text, p99).unwrap() >= 250.0);
        assert_eq!(stat_value(&text, "pexeso_no_such_series"), None);
        // Exact: a name alone never matches its labelled samples.
        assert_eq!(stat_value(&text, "pexeso_requests_total"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prometheus_output_is_valid() {
        let (dir, snap) = served_snapshot("valid");
        let m = ServerMetrics::default();
        m.search.record(Duration::from_micros(250));
        m.topk.record(Duration::from_micros(42));
        let conn = ConnCounters::default();
        conn.queue_wait.record(20);
        m.cache_hit_lookup.record(3);
        m.record_phases(&pexeso_core::stats::SearchStats {
            mapping_time: Duration::from_micros(10),
            block_time: Duration::from_micros(20),
            verify_time: Duration::from_micros(30),
            ..Default::default()
        });
        let text = m.render_prometheus(Duration::ZERO, &conn, &CacheStats::default(), &snap);
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# TYPE pexeso_request_latency_microseconds histogram"));
        assert!(text.contains("pexeso_requests_total{endpoint=\"search\"} 1"));
        assert!(text.contains("le=\"+Inf\""));
        // The gauges keep full bucket resolution, finer than the octave
        // boundaries the `_bucket` lines sample.
        let qw = "pexeso_latency_quantile_microseconds{series=\"queue_wait\",quantile=\"0.5\"}";
        let p50 = hist::bucket_upper_bound(hist::bucket_index(20));
        assert_eq!(stat_value(&text, qw), Some(p50 as f64));
        assert!(!text.contains(&format!("le=\"{p50}\"")), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = PromText::with_capacity(128);
        out.labelled("h", "doc", "gauge", "replica", [("a\"b\\c\nd", 1)]);
        let text = out.finish();
        validate_prometheus(&text).unwrap();
        assert_eq!(stat_value(&text, r#"h{replica="a\"b\\c\nd"}"#), Some(1.0));
    }

    #[test]
    fn validator_rejects_broken_expositions() {
        // Sample without a TYPE declaration.
        assert!(validate_prometheus("nope_total 3\n").is_err());
        // Non-monotone buckets.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\n\
                   h_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\n\
                   h_sum 9\nh_count 5\n";
        assert!(validate_prometheus(bad).is_err());
        // Missing +Inf.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_prometheus(bad).is_err());
        // +Inf disagreeing with _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n";
        assert!(validate_prometheus(bad).is_err());
        // A good one passes.
        let good = "# HELP h a histogram\n\
                    # TYPE h histogram\n\
                    h_bucket{le=\"1\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 9\nh_count 5\n";
        validate_prometheus(good).unwrap();
    }

    #[test]
    fn validator_enforces_help_type_and_label_syntax() {
        // TYPE without a preceding HELP.
        assert!(validate_prometheus("# TYPE h gauge\nh 1\n").is_err());
        // Unknown TYPE.
        let bad = "# HELP h doc\n# TYPE h speedometer\nh 1\n";
        assert!(validate_prometheus(bad).is_err());
        // HELP with no documentation text.
        assert!(validate_prometheus("# HELP h\n").is_err());
        // Duplicate HELP / duplicate TYPE for one family.
        let bad = "# HELP h doc\n# HELP h doc again\n# TYPE h gauge\nh 1\n";
        assert!(validate_prometheus(bad).is_err());
        let bad = "# HELP h doc\n# TYPE h gauge\n# TYPE h gauge\nh 1\n";
        assert!(validate_prometheus(bad).is_err());
        // Label names must be [a-zA-Z_][a-zA-Z0-9_]*.
        let bad = "# HELP h doc\n# TYPE h gauge\nh{0bad=\"x\"} 1\n";
        assert!(validate_prometheus(bad).is_err());
        // Label values must be quoted...
        let bad = "# HELP h doc\n# TYPE h gauge\nh{a=x} 1\n";
        assert!(validate_prometheus(bad).is_err());
        // ...and closed.
        let bad = "# HELP h doc\n# TYPE h gauge\nh{a=\"x} 1\n";
        assert!(validate_prometheus(bad).is_err());
        // Escapes inside label values are fine, including an escaped
        // quote and a literal comma.
        let good = "# HELP h doc\n# TYPE h gauge\n\
                    h{a=\"x\\\"y\",b=\"u,v\"} 1\n";
        validate_prometheus(good).unwrap();
    }

    #[test]
    fn inspection_prometheus_renders_valid() {
        use pexeso_core::inspect::PivotSpread;
        let mut insp = IndexInspection::default();
        for columns in [10, 3] {
            insp.partitions.push(PartitionInspection {
                columns,
                vectors: 100,
                cells: 7,
                postings: 12,
                ..Default::default()
            });
        }
        insp.partitions[1].pivot_spread = vec![
            PivotSpread {
                min: 0.0,
                max: 1.0,
                mean: 0.5,
            },
            PivotSpread {
                min: 1.0,
                max: 4.0,
                mean: 2.0,
            },
        ];
        insp.delta_vectors = 20;
        let text = render_inspection_prometheus(&insp);
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# TYPE pexeso_index_columns gauge"));
        assert!(text.contains("# TYPE pexeso_index_postings_length histogram"));
        for (series, value) in [
            ("pexeso_index_columns{partition=\"0\"}", 10.0),
            ("pexeso_index_columns{partition=\"1\"}", 3.0),
            ("pexeso_index_delta_vectors", 20.0),
            (
                "pexeso_index_pivot_spread{partition=\"1\",stat=\"min\"}",
                1.0,
            ),
            (
                "pexeso_index_pivot_spread{partition=\"1\",stat=\"max\"}",
                3.0,
            ),
            (
                "pexeso_index_pivot_spread{partition=\"1\",stat=\"mean\"}",
                2.0,
            ),
        ] {
            assert_eq!(stat_value(&text, series), Some(value), "{series}");
        }
        // No unlabelled totals, and no spread for a partition without pivots.
        assert_eq!(stat_value(&text, "pexeso_index_columns"), None);
        assert!(!text.contains("pivot_spread{partition=\"0\""), "{text}");
    }

    /// Offer an uncorrelated entry of `us` microseconds.
    fn offer(log: &SlowQueryLog, verb: &'static str, us: u64, trace: &str) {
        log.offer_correlated(verb, Duration::from_micros(us), trace.into(), None, None);
    }

    #[test]
    fn slow_log_renders_request_id_and_shard() {
        let log = SlowQueryLog::new(4);
        log.offer_correlated(
            "topk",
            Duration::from_micros(500),
            "trace".into(),
            Some(0xABCD),
            Some(3),
        );
        offer(&log, "search", 100, "t");
        let text = log.render();
        assert!(text.contains("rid=000000000000abcd"), "{text}");
        assert!(text.contains("shard=3"), "{text}");
        // Uncorrelated entries stay exactly as before: no rid, no shard.
        let plain = text
            .lines()
            .find(|l| l.contains("verb=search"))
            .expect("search entry present");
        assert!(!plain.contains("rid="), "{plain}");
        assert!(!plain.contains("shard="), "{plain}");
    }

    #[test]
    fn slow_log_keeps_the_slowest() {
        let log = SlowQueryLog::new(2);
        offer(&log, "search", 100, "t100");
        offer(&log, "search", 300, "t300");
        // Faster than everything kept: dropped.
        offer(&log, "search", 50, "t50");
        // Slower than the fastest kept: evicts it.
        offer(&log, "topk", 200, "t200");
        assert_eq!(log.len(), 2);
        let text = log.render();
        assert!(text.contains("latency_us=300"));
        assert!(text.contains("latency_us=200"));
        assert!(!text.contains("latency_us=100"));
        assert!(!text.contains("latency_us=50"));
        // Slowest first, trace lines indented under their header.
        let first = text.lines().next().unwrap();
        assert!(first.contains("latency_us=300"), "{first}");
        assert!(text.contains("  t300"));
    }

    /// A thread that panics while holding the slow log costs itself, not
    /// every later SLOW request.
    #[test]
    fn a_poisoned_slow_log_keeps_working() {
        let log = SlowQueryLog::new(2);
        offer(&log, "search", 100, "t100");
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _entries = log.entries.lock().unwrap();
                panic!("while holding the slow log");
            })
            .join()
        });
        assert!(holder.is_err() && log.entries.is_poisoned());
        offer(&log, "topk", 200, "t200");
        assert_eq!(log.len(), 2);
        let text = log.render();
        let first = text.lines().next().unwrap();
        assert!(first.contains("latency_us=200"), "{text}");
        assert!(text.contains("latency_us=100"), "{text}");
    }
}
