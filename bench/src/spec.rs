//! The benchmark's fixed vocabulary: common parameters, the five
//! workloads, and every metric with its unit, direction and bound.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units and
//! bounds below; `tests::benchmark_json_matches_spec` keeps the two equal.

use std::time::Duration;

use pexeso_core::config::{IndexOptions, JoinThreshold, PivotSelection, Tau};
use pexeso_core::partition::{PartitionConfig, PartitionMethod};
use pexeso_core::query::Query;
use pexeso_lake::GeneratorConfig;

/// Distance threshold of every query (the paper's default setting).
pub const TAU: Tau = Tau::Ratio(0.06);
/// Joinability threshold of the threshold workloads.
pub const T_RATIO: f64 = 0.6;
/// `k` of the top-k workload.
pub const TOPK_K: usize = 10;
/// Seed of pivot selection; the paper-tuned options are otherwise fixed
/// per lake profile.
pub const INDEX_SEED: u64 = 42;
/// Partitions per deployment (`PartitionConfig::k`).
pub const PARTITIONS: usize = 4;
/// Shards of the routed deployment.
pub const SHARDS: usize = 2;
/// Default workload seed and the hold-out seed with committed fingerprints.
pub const DEFAULT_SEED: u64 = 13;
pub const PINNED_SEEDS: [u64; 2] = [13, 29];
/// Embedded queries covered by the input fingerprint.
pub const FINGERPRINT_QUERIES: usize = 64;
/// Tables ingested by the traced run's write phase.
pub const TRACE_WRITES: usize = 25;
/// Writes of the idle-daemon ingest probe that ends every round of a
/// read-only workload.
pub const PROBE_WRITES: usize = 5;
/// Pause before each probe write, so that every one of them meets an
/// idle daemon. Back to back, the median of 30 flipped between two
/// levels (≈1.6 and ≈2.2 ms) from run to run: over twelve runs each it
/// spread by 35 % with no pause, 23 % with 20 ms, 11 % with 50 ms and
/// 13 % with 100 ms.
pub const PROBE_GAP: Duration = Duration::from_millis(50);
/// Client 0 of `wdc_concurrent_rw` replaces every `WRITE_EVERY`-th
/// operation with a write.
pub const WRITE_EVERY: usize = 20;
/// Share of read operations that re-send an earlier query.
pub const RESEND_SHARE: f64 = 0.2;
/// Rounds of a run that set up from nothing (generate and embed the lake
/// again); `setup_s` is the median of them. Later rounds keep the inputs
/// and only build and start the deployment. Also the least number of
/// rounds a run makes, however short `--seconds` is.
pub const SETUP_REPS: usize = 3;
/// Tiny-lake scale of `--quick`.
pub const QUICK_SCALE: f64 = 0.04;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Many tables, short columns (Table III, WDC).
    Wdc,
    /// Few tables, long columns (Table III, OPEN).
    Open,
}

impl Profile {
    /// Generator scale at `--scale 1`: half the lake the issue sized, so
    /// that a run's rounds are short and many (see README, "Scale").
    pub fn base_scale(self) -> f64 {
        match self {
            Profile::Wdc => 5.0,
            Profile::Open => 0.5,
        }
    }

    pub fn generator(self, scale: f64, seed: u64) -> GeneratorConfig {
        match self {
            Profile::Wdc => GeneratorConfig::wdc_like(self.base_scale() * scale, seed),
            Profile::Open => GeneratorConfig::open_like(self.base_scale() * scale, seed),
        }
    }

    pub fn dim(self) -> usize {
        match self {
            Profile::Wdc => 48,
            Profile::Open => 96,
        }
    }

    /// Rows of every query table (and of every ingested table).
    pub fn query_rows(self) -> usize {
        match self {
            Profile::Wdc => 19,
            Profile::Open => 300,
        }
    }

    /// Paper-tuned index parameters (Table VI): |P|=3, m=4 on WDC and
    /// |P|=5, m=6 on OPEN, PCA pivots.
    pub fn index_options(self) -> IndexOptions {
        let (num_pivots, levels) = match self {
            Profile::Wdc => (3, 4),
            Profile::Open => (5, 6),
        };
        IndexOptions {
            num_pivots,
            levels: Some(levels),
            pivot_selection: PivotSelection::Pca,
            seed: INDEX_SEED,
            ..Default::default()
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Profile::Wdc => "wdc_like",
            Profile::Open => "open_like",
        }
    }
}

pub fn partition_config() -> PartitionConfig {
    PartitionConfig {
        k: PARTITIONS,
        method: PartitionMethod::JsdKmeans,
        ..Default::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Threshold,
    Topk,
}

impl Mode {
    pub fn query(self) -> Query {
        match self {
            Mode::Threshold => Query::threshold(TAU, JoinThreshold::Ratio(T_RATIO)),
            Mode::Topk => Query::topk(TAU, TOPK_K),
        }
    }
}

/// The outermost hop a workload's operations go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// `ServeClient` → one daemon over the whole lake.
    Daemon,
    /// `ServeClient` → `RouterServer` → one daemon per shard.
    Router,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub profile: Profile,
    pub mode: Mode,
    pub hop: Hop,
    /// `nproc` clients with re-sent queries, client 0 also writing.
    pub concurrent_rw: bool,
    /// Timed operations per client in one round. Every round of a run
    /// repeats the same operations against a fresh deployment; the run
    /// makes rounds until `--seconds` have passed.
    pub round_ops: usize,
    /// Listed in `BENCHMARK.json`, i.e. run by the driver. The others run
    /// the same way on request but the contract's time limit has no room
    /// for them.
    pub contract: bool,
    /// Operations of the traced run. Fixed, so every count repeats.
    pub trace_ops: usize,
    pub why: &'static str,
}

impl WorkloadSpec {
    /// Discarded warm-up operations per client and round: 5 % of the
    /// round, at least two.
    pub fn warmup_ops(&self) -> usize {
        (self.round_ops / 20).max(2)
    }
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "wdc_threshold",
        profile: Profile::Wdc,
        mode: Mode::Threshold,
        hop: Hop::Daemon,
        concurrent_rw: false,
        round_ops: 100,
        contract: true,
        trace_ops: 48,
        why: "The paper's default setting: verify is ~99% of search time and the daemon adds ~1 ms, so kernel, verify, layout and prefilter changes show here and almost nowhere else.",
    },
    WorkloadSpec {
        name: "open_threshold",
        profile: Profile::Open,
        mode: Mode::Threshold,
        hop: Hop::Daemon,
        concurrent_rw: false,
        round_ops: 40,
        contract: false,
        trace_ops: 14,
        why: "Few long columns and 300-row queries: block, embed and mapping are visible here and not on wdc_threshold, and a column-level prefilter has few columns to kill (predicted no change).",
    },
    WorkloadSpec {
        name: "wdc_topk",
        profile: Profile::Wdc,
        mode: Mode::Topk,
        hop: Hop::Daemon,
        concurrent_rw: false,
        round_ops: 40,
        contract: false,
        trace_ops: 20,
        why: "The same verify layer through the best-first top-k loop: a threshold-path gain that costs top-k, or a planner change that helps top-k only, shows as opposite moves on the two.",
    },
    WorkloadSpec {
        name: "wdc_concurrent_rw",
        profile: Profile::Wdc,
        mode: Mode::Threshold,
        hop: Hop::Daemon,
        concurrent_rw: true,
        round_ops: 100,
        contract: true,
        trace_ops: 48,
        why: "nproc clients, re-sent queries and writes beside reads: the only workload with the connection queue, worker pool, cache invalidation, delta overlay and WAL on the path.",
    },
    WorkloadSpec {
        name: "wdc_routed",
        profile: Profile::Wdc,
        mode: Mode::Threshold,
        hop: Hop::Router,
        concurrent_rw: false,
        round_ops: 100,
        contract: false,
        trace_ops: 48,
        why: "The only workload with scatter-gather, range filter, merge and a second network hop; same queries as wdc_threshold, so the difference is what routing costs or saves.",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: `bound` is the share of the parent's median by
/// which the metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "build_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_visible_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "resident_bytes_per_vector",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "disk_bytes_per_vector",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric of the traced run (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer prefix = module name. Counts are per operation (means over the
/// fixed traced operations) and repeat exactly for a seed.
pub const PER_LAYER: [PerLayer; 58] = [
    lo("embed.query_ms", "ms"),
    lo("embed.lake_s", "s"),
    hi("embed.values_per_s", "1/s"),
    lo("kernel.dist_le_ns", "ns"),
    lo("kernel.dist_ns", "ns"),
    lo("kernel.pairs", "count"),
    lo("mapping.query_ms", "ms"),
    lo("mapping.distances", "count"),
    lo("block.ms", "ms"),
    lo("block.candidate_pairs", "count"),
    lo("block.matching_pairs", "count"),
    hi("block.cell_pairs_filtered", "count"),
    hi("block.cell_pairs_matched", "count"),
    lo("block.quick_browse_pairs", "count"),
    lo("verify.ms", "ms"),
    lo("verify.ns_per_dc", "ns"),
    lo("verify.distance_computations", "count"),
    hi("verify.lemma1_filtered", "count"),
    hi("verify.lemma2_matched", "count"),
    hi("verify.early_joinable", "count"),
    hi("verify.lemma7_pruned", "count"),
    hi("verify.topk_pruned", "count"),
    hi("verify.topk_aborted", "count"),
    lo("verify.batches", "count"),
    lo("verify.dc_per_hit", "count"),
    lo("index.build_s", "s"),
    lo("index.query_p50_ms", "ms"),
    lo("index.self_ms", "ms"),
    lo("partitioned.build_s", "s"),
    lo("partitioned.query_p50_ms", "ms"),
    lo("resident.query_p50_ms", "ms"),
    lo("resident.added_ms", "ms"),
    lo("delta.ingest_ms", "ms"),
    lo("delta.apply_ms", "ms"),
    lo("delta.open_ms", "ms"),
    lo("delta.query_p50_ms", "ms"),
    lo("delta.added_ms", "ms"),
    lo("delta.compact_s", "s"),
    lo("delta.log_bytes_per_vector_byte", "ratio"),
    lo("snapshot.load_s", "s"),
    lo("snapshot.query_p50_ms", "ms"),
    lo("snapshot.added_ms", "ms"),
    lo("protocol.codec_us", "us"),
    lo("protocol.request_bytes", "B"),
    lo("protocol.reply_bytes", "B"),
    hi("cache.hit_ratio", "ratio"),
    lo("cache.hit_p50_us", "us"),
    lo("cache.miss_p50_ms", "ms"),
    lo("daemon.query_p50_ms", "ms"),
    lo("daemon.added_ms", "ms"),
    hi("daemon.scaling", "ratio"),
    lo("daemon.refused", "count"),
    lo("router.query_p50_ms", "ms"),
    lo("router.added_ms", "ms"),
    lo("routerd.added_ms", "ms"),
    lo("router.shard_skew", "ratio"),
    lo("split.s", "s"),
    lo("trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names(list: &Json) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// harness prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_spec() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        let workloads = doc.get("workloads").unwrap();
        let contract: Vec<&WorkloadSpec> = WORKLOADS.iter().filter(|w| w.contract).collect();
        assert_eq!(
            names(workloads),
            contract.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (w, spec) in workloads.as_array().unwrap().iter().zip(contract) {
            assert_eq!(w.get("why").unwrap().as_str().unwrap(), spec.why);
            assert!(spec.why.len() <= 200, "{} why too long", spec.name);
        }
        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(
            names(e2e),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, spec) in e2e.as_array().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(m.get("unit").unwrap().as_str().unwrap(), spec.unit);
            assert_eq!(
                m.get("better").unwrap().as_str().unwrap(),
                spec.better.name()
            );
            assert_eq!(m.get("bound").unwrap().as_f64().unwrap(), spec.bound);
        }
        let layers = doc.get("per_layer").unwrap();
        assert_eq!(
            names(layers),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, spec) in layers.as_array().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(m.get("unit").unwrap().as_str().unwrap(), spec.unit);
            assert_eq!(
                m.get("better").unwrap().as_str().unwrap(),
                spec.better.name()
            );
        }
        assert_eq!(
            doc.get("paths").unwrap().as_array().unwrap()[0].as_str(),
            Some("bench")
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }
}
