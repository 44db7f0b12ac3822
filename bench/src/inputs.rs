//! Everything a run's inputs are made of, all derived from `--seed`: the
//! generated lake, its embedding, the query and ingest tables, the
//! operation schedule, and a fingerprint pinning all of them.

use std::time::Instant;

use pexeso::pipeline::{embed_query, embed_synthetic_lake, EmbeddedQuery};
use pexeso_core::column::ColumnSet;
use pexeso_delta::IngestColumn;
use pexeso_embed::SemanticEmbedder;
use pexeso_lake::{GenTable, SyntheticLake};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::json::Json;
use crate::spec::{Profile, WorkloadSpec, FINGERPRINT_QUERIES, RESEND_SHARE, WRITE_EVERY};

/// Query-id streams. Every query any phase sends has its own id, so no
/// two phases share a query (and the result cache stays cold) unless a
/// phase re-sends on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Timed (and traced) operations.
    Timed = 0,
    /// The discarded warm-up.
    Warmup = 1,
    /// Untraced twins of the traced operations (tracing overhead).
    Twin = 2,
    /// The `daemon.scaling` bursts.
    Burst = 3,
    /// Ingested tables.
    Ingest = 4,
}

/// Identifies one generated query table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryId {
    pub stream: Stream,
    pub client: usize,
    pub index: usize,
}

impl QueryId {
    pub fn timed(client: usize, index: usize) -> Self {
        Self {
            stream: Stream::Timed,
            client,
            index,
        }
    }

    fn key(self) -> u64 {
        ((self.stream as u64) << 56) | ((self.client as u64) << 32) | self.index as u64
    }
}

fn mix(seed: u64, key: u64) -> u64 {
    // splitmix64 finaliser over the pair.
    let mut z = seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct Inputs {
    pub profile: Profile,
    pub seed: u64,
    pub lake: SyntheticLake,
    pub embedder: SemanticEmbedder,
    /// The embedded, normalised key columns; `external_id` = column index.
    pub columns: ColumnSet,
    pub embed_lake_s: f64,
}

impl Inputs {
    pub fn generate(profile: Profile, scale: f64, seed: u64) -> Self {
        let lake = SyntheticLake::generate(profile.generator(scale, seed));
        let started = Instant::now();
        let embedder = SemanticEmbedder::new(profile.dim(), lake.lexicon.clone());
        let mut embedded =
            embed_synthetic_lake(&embedder, &lake).expect("a generated lake has key columns");
        embedded.columns.store_mut().normalize_all();
        let embed_lake_s = started.elapsed().as_secs_f64();
        Self {
            profile,
            seed,
            lake,
            embedder,
            columns: embedded.columns,
            embed_lake_s,
        }
    }

    pub fn n_vectors(&self) -> usize {
        self.columns.n_vectors()
    }

    /// The query table of `id`. Its domain is drawn per query, not
    /// rotated: query cost differs by domain, and a rotation would give
    /// each third of a run a different mix of domains.
    pub fn query_table(&self, id: QueryId) -> GenTable {
        let seed = mix(self.seed, id.key());
        let domain = (mix(seed, 0xd0) % self.lake.config.num_domains as u64) as usize;
        self.lake
            .make_query(domain, self.profile.query_rows(), seed)
    }

    /// The online half of an operation: embed a query table's key values.
    pub fn embed(&self, table: &GenTable) -> EmbeddedQuery {
        embed_query(&self.embedder, table.key_values())
    }

    /// The `w`-th table a run ingests: a fresh query-sized table, embedded
    /// and normalised exactly like the offline build.
    pub fn ingest_column(&self, w: usize) -> IngestColumn {
        let table = self.query_table(QueryId {
            stream: Stream::Ingest,
            client: 0,
            index: w,
        });
        let mut store = self.embed(&table).store().clone();
        store.normalize_all();
        IngestColumn {
            table_name: format!("ingest_{w:04}"),
            column_name: "name".to_string(),
            vectors: store.raw_data().to_vec(),
        }
    }
}

/// What one slot of a client's schedule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A first-time query (the slot's own [`QueryId`]).
    Fresh,
    /// Re-send one of the client's queries issued since the last write it
    /// saw; `pick` selects among them. Falls back to `Fresh` when there
    /// is none.
    Resend { pick: u32 },
    /// `ingest_columns` of table `table` + `APPLY`.
    Write { table: usize },
}

/// Client `client`'s operation schedule: a function of the seed and the
/// client number only, never of `nproc` or of timing.
pub fn schedule(spec: &WorkloadSpec, seed: u64, client: usize, n_ops: usize) -> Vec<OpKind> {
    if !spec.concurrent_rw {
        return vec![OpKind::Fresh; n_ops];
    }
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5c4e_d01e ^ ((client as u64) << 40)));
    (0..n_ops)
        .map(|i| {
            // Draw for every slot so a write does not shift the stream.
            let resend = rng.gen_bool(RESEND_SHARE);
            let pick = rng.next_u32();
            if client == 0 && i % WRITE_EVERY == WRITE_EVERY - 1 {
                OpKind::Write {
                    table: i / WRITE_EVERY,
                }
            } else if resend {
                OpKind::Resend { pick }
            } else {
                OpKind::Fresh
            }
        })
        .collect()
}

/// Word-wise FNV-1a: fast enough for the lake's ~20 MB of vectors.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn floats(&mut self, data: &[f32]) {
        self.word(data.len() as u64);
        for f in data {
            self.word(u64::from(f.to_bits()));
        }
    }

    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Clients whose schedules the fingerprint covers, whatever `nproc` is.
const FINGERPRINT_CLIENTS: usize = 8;

/// Hash of what a run measures: the embedded lake's vector bits and
/// column shapes, the first embedded queries, and the operation schedule
/// (with the first ingested tables where the workload writes).
pub fn fingerprint(inputs: &Inputs, spec: &WorkloadSpec) -> String {
    let mut lake = Fnv::new();
    lake.floats(inputs.columns.store().raw_data());
    for col in inputs.columns.columns() {
        lake.word(col.external_id);
        lake.word(u64::from(col.len));
        lake.text(&col.table_name);
    }

    let mut queries = Fnv::new();
    for i in 0..FINGERPRINT_QUERIES {
        let table = inputs.query_table(QueryId::timed(0, i));
        queries.floats(inputs.embed(&table).store().raw_data());
    }

    let mut sched = Fnv::new();
    for client in 0..FINGERPRINT_CLIENTS {
        for op in schedule(spec, inputs.seed, client, spec.round_ops) {
            match op {
                OpKind::Fresh => sched.word(1),
                OpKind::Resend { pick } => sched.word(2 | (u64::from(pick) << 8)),
                OpKind::Write { table } => sched.word(3 | ((table as u64) << 8)),
            }
        }
    }
    if spec.concurrent_rw {
        for w in 0..4 {
            sched.floats(&inputs.ingest_column(w).vectors);
        }
    }
    format!(
        "lake:{:016x} queries:{:016x} schedule:{:016x}",
        lake.finish(),
        queries.finish(),
        sched.finish()
    )
}

/// The committed fingerprints (`bench/fingerprints.json`): workload →
/// seed → fingerprint, at `--scale 1`.
pub fn expected_fingerprint(workload: &str, seed: u64) -> Option<String> {
    let doc = Json::parse(include_str!("../fingerprints.json"))
        .expect("bench/fingerprints.json is valid JSON");
    doc.get(workload)?
        .get(&seed.to_string())?
        .as_str()
        .map(str::to_string)
}

/// Hold `fingerprint` against the committed one where one exists — the
/// pinned seeds at `--scale 1`. `Ok(true)` = pinned and equal,
/// `Ok(false)` = nothing pinned for this seed and scale, `Err` = the
/// inputs are no longer what the recorded baselines measured.
pub fn verify_fingerprint(
    spec: &WorkloadSpec,
    seed: u64,
    scale: f64,
    fingerprint: &str,
) -> Result<bool, String> {
    if scale != 1.0 {
        return Ok(false);
    }
    match expected_fingerprint(spec.name, seed) {
        None => Ok(false),
        Some(want) if want == fingerprint => Ok(true),
        Some(want) => Err(format!(
            "input fingerprint mismatch on {} seed {seed}: committed '{want}', generated \
             '{fingerprint}' — pexeso-lake, pexeso-embed or the schedule changed what is \
             measured (see bench/README.md, \"Pinned inputs\")",
            spec.name
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, QUICK_SCALE};

    #[test]
    fn schedule_is_deterministic_per_seed_and_client() {
        let rw = workload("wdc_concurrent_rw").unwrap();
        let a = schedule(rw, 13, 0, 200);
        assert_eq!(a, schedule(rw, 13, 0, 200));
        assert_ne!(a, schedule(rw, 29, 0, 200));
        assert_ne!(a, schedule(rw, 13, 1, 200));
        // A prefix of a longer schedule is the shorter schedule.
        assert_eq!(a[..50], schedule(rw, 13, 0, 50)[..]);
    }

    #[test]
    fn schedule_mix_follows_the_spec() {
        let rw = workload("wdc_concurrent_rw").unwrap();
        let ops = schedule(rw, 13, 0, 2000);
        let writes: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, OpKind::Write { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(writes.len(), 100);
        assert!(writes.iter().all(|i| i % WRITE_EVERY == WRITE_EVERY - 1));
        assert_eq!(ops[19], OpKind::Write { table: 0 });
        assert_eq!(ops[39], OpKind::Write { table: 1 });
        let resends = ops
            .iter()
            .filter(|op| matches!(op, OpKind::Resend { .. }))
            .count();
        assert!((300..460).contains(&resends), "{resends} of 1900 reads");
        // Other clients never write; read-only workloads only send fresh queries.
        assert!(schedule(rw, 13, 1, 500)
            .iter()
            .all(|op| !matches!(op, OpKind::Write { .. })));
        let ro = workload("wdc_threshold").unwrap();
        assert!(schedule(ro, 13, 0, 100)
            .iter()
            .all(|op| *op == OpKind::Fresh));
    }

    #[test]
    fn fingerprint_is_stable_and_seed_sensitive() {
        let spec = workload("wdc_concurrent_rw").unwrap();
        let a = Inputs::generate(spec.profile, QUICK_SCALE, 13);
        let b = Inputs::generate(spec.profile, QUICK_SCALE, 13);
        let fa = fingerprint(&a, spec);
        assert_eq!(fa, fingerprint(&b, spec));
        let c = Inputs::generate(spec.profile, QUICK_SCALE, 29);
        assert_ne!(fa, fingerprint(&c, spec));
        // Same lake and queries, different schedule.
        let ro = fingerprint(&a, workload("wdc_threshold").unwrap());
        assert_eq!(fa.split(' ').next(), ro.split(' ').next());
        assert_ne!(fa.rsplit(' ').next(), ro.rsplit(' ').next());
    }

    #[test]
    fn query_ids_never_collide_across_streams() {
        let ids = [
            QueryId::timed(0, 5),
            QueryId::timed(1, 5),
            QueryId {
                stream: Stream::Warmup,
                client: 0,
                index: 5,
            },
            QueryId {
                stream: Stream::Burst,
                client: 0,
                index: 5,
            },
        ];
        let mut keys: Vec<u64> = ids.iter().map(|id| id.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ids.len());
    }

    #[test]
    fn every_pinned_fingerprint_is_committed() {
        for w in &crate::spec::WORKLOADS {
            for seed in crate::spec::PINNED_SEEDS {
                assert!(
                    expected_fingerprint(w.name, seed).is_some(),
                    "{} seed {seed}",
                    w.name
                );
            }
        }
        assert!(expected_fingerprint("wdc_threshold", 12345).is_none());
        let spec = workload("wdc_threshold").unwrap();
        assert_eq!(verify_fingerprint(spec, 12345, 1.0, "x"), Ok(false));
        assert_eq!(verify_fingerprint(spec, 13, 0.5, "x"), Ok(false));
        assert!(verify_fingerprint(spec, 13, 1.0, "x").is_err());
    }
}
