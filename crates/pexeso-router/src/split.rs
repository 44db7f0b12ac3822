//! Offline shard tooling: cut a built lake into per-shard deployment
//! directories by external-id range.
//!
//! `shard-plan` ([`plan_shards`]) computes balanced ranges without
//! writing anything; `shard-split` ([`split_lake`]) materialises one
//! complete deployment per shard — each a normal lake directory any
//! `pexeso serve` daemon can load unchanged. The split is **exact in
//! union**: every column of the source appears in exactly one shard
//! (ranges are disjoint and cover `[0, u64::MAX)`), with its external
//! id, names, and vectors byte-preserved — so a router over the shards
//! answers byte-identically to the source lake (see the exactness
//! argument in [`crate::router`]).
//!
//! Shards are *re-partitioned and re-indexed* from their column subsets
//! rather than carved out of the source's partition files: a shard's
//! columns are a different distribution than the whole lake's, so the
//! k-means partitioning and pivot mappings are rebuilt per shard, under
//! the build options stored in the source's partitions. This
//! does not perturb answers — match counts are partition-structure
//! independent (the delta suite pins the same property for compaction
//! rebuilds) — and it keeps every shard a first-class deployment
//! instead of a franken-directory of foreign partitions.
//!
//! The source is opened with [`DeltaLake::open`] and its columns read
//! with [`read_lake_columns`], the column reader compaction uses: every
//! column in ascending external id, a repeated id refused as
//! [`PexesoError::Corrupt`]. A shard's columns are a contiguous run of
//! that order, copied out with [`sub_column_set`].
//!
//! Splitting refuses a lake with a **live delta log**: unapplied delta
//! columns and tombstones live outside the partition files, and a split
//! that silently dropped them would be exact against the wrong corpus.
//! Compact first (`pexeso compact`), then split.

use std::path::Path;

use pexeso_core::error::{PexesoError, Result};
use pexeso_core::outofcore::{LakeManifest, PartitionedLake};
use pexeso_core::partition::{sub_column_set, PartitionConfig};
use pexeso_delta::{read_lake_columns, DeltaLake, DeltaState, LakeColumns};

use crate::shardmap::{ShardMap, ShardSpec};

/// File name of the map a split writes next to its shard directories.
pub const SHARD_MAP_FILE: &str = "shardmap.txt";

/// Directory name of shard `i` under the split output directory.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard_{i:02}")
}

/// Compute a balanced `shards`-way plan for the lake at `dir` without
/// writing anything: ranges hold equal column counts (±1), cover all of
/// `[0, u64::MAX)` (so future ids land somewhere), and carry the `-`
/// unassigned-replica placeholder for the operator to fill in.
pub fn plan_shards(dir: &Path, shards: usize) -> Result<ShardMap> {
    let (_, source) = read_source(dir)?;
    plan_from_ids(&external_ids(&source), shards)
}

/// Split the lake at `dir` into `shards` deployment directories under
/// `out` (`out/shard_00`, `out/shard_01`, …), write the shard map to
/// `out/shardmap.txt`, and return it. Refuses a live delta log.
pub fn split_lake(dir: &Path, shards: usize, out: &Path) -> Result<ShardMap> {
    let (lake, source) = read_source(dir)?;
    let ids = external_ids(&source);
    let map = plan_from_ids(&ids, shards)?;
    std::fs::create_dir_all(out)?;
    let mut taken = 0usize;
    for (i, spec) in map.shards().iter().enumerate() {
        let group: Vec<usize> = (0..ids.len()).filter(|&c| spec.owns(ids[c])).collect();
        taken += group.len();
        build_shard(&lake, &source, spec, &group, &out.join(shard_dir_name(i)))?;
    }
    debug_assert_eq!(
        taken,
        ids.len(),
        "disjoint covering ranges must take every column exactly once"
    );
    map.write(&out.join(SHARD_MAP_FILE))?;
    Ok(map)
}

/// Cut sorted ids into `shards` contiguous chunks of equal size (±1) and
/// turn the chunk starts into range boundaries.
fn plan_from_ids(sorted_ids: &[u64], shards: usize) -> Result<ShardMap> {
    if shards == 0 {
        return Err(PexesoError::InvalidParameter(
            "cannot split into zero shards".into(),
        ));
    }
    if sorted_ids.len() < shards {
        return Err(PexesoError::InvalidParameter(format!(
            "cannot cut {} columns into {shards} shards: every shard needs at least one column",
            sorted_ids.len()
        )));
    }
    let n = sorted_ids.len();
    let (base, extra) = (n / shards, n % shards);
    let mut specs = Vec::with_capacity(shards);
    let mut pos = 0usize;
    for s in 0..shards {
        // The first `extra` shards absorb the remainder.
        let take = base + usize::from(s < extra);
        let lo = if s == 0 { 0 } else { sorted_ids[pos] };
        pos += take;
        let hi = if s == shards - 1 {
            u64::MAX
        } else {
            sorted_ids[pos]
        };
        specs.push(ShardSpec {
            lo,
            hi,
            replicas: Vec::new(),
        });
    }
    ShardMap::new(specs)
}

/// Open the source lake and read its columns, refusing a live delta log.
fn read_source(dir: &Path) -> Result<(DeltaLake, LakeColumns)> {
    let lake = DeltaLake::open(dir)?;
    let pending = lake.overlay().n_records();
    if pending > 0 {
        return Err(PexesoError::InvalidParameter(format!(
            "{}: delta log has {pending} unapplied record(s); a split would drop them — \
             compact the lake first",
            dir.display()
        )));
    }
    let source = read_lake_columns(lake.base(), lake.manifest(), &DeltaState::default())?;
    Ok((lake, source))
}

/// The source's external ids, ascending.
fn external_ids(source: &LakeColumns) -> Vec<u64> {
    let columns = source.columns.columns();
    columns.iter().map(|meta| meta.external_id).collect()
}

/// Build one shard's deployment directory: re-partition and re-index the
/// source columns at `group`, then write a manifest inheriting the
/// source's `index_version` and `next_external_id` and recording the
/// shard's id range. Every fresh id lies at or above the source's
/// watermark, which only the last shard's unbounded range owns, so ingest
/// refuses to allocate ids in any other shard: the router would drop
/// every reply entry such an id produced.
fn build_shard(
    lake: &DeltaLake,
    source: &LakeColumns,
    spec: &ShardSpec,
    group: &[usize],
    dir: &Path,
) -> Result<()> {
    let set = sub_column_set(&source.columns, group);
    // A shard holds a fraction of the corpus: keep the source's partition
    // granularity where possible, but never more partitions than columns.
    let config = PartitionConfig {
        k: lake.base().num_partitions().min(group.len()).max(1),
        ..PartitionConfig::default()
    };
    let metric = &lake.manifest().metric;
    PartitionedLake::build_named(&set, metric, &config, &source.options, dir)?
        .sync_files("split.sync")?;
    let manifest = LakeManifest {
        id_range: Some(spec.lo..spec.hi),
        ..lake.manifest().clone()
    };
    manifest.write(dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_balances_and_covers_everything() {
        let ids: Vec<u64> = (0..10).map(|i| i * 7 + 3).collect();
        let map = plan_from_ids(&ids, 3).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map.shards()[0].lo, 0);
        assert_eq!(map.shards()[2].hi, u64::MAX);
        // Chunks of 4/3/3: boundaries at the 4th and 7th ids.
        assert_eq!(map.shards()[0].hi, ids[4]);
        assert_eq!(map.shards()[1].lo, ids[4]);
        assert_eq!(map.shards()[1].hi, ids[7]);
        // Every id owned exactly once, future ids owned somewhere.
        for id in 0..200 {
            assert_eq!(
                map.shards().iter().filter(|s| s.owns(id)).count(),
                1,
                "id {id}"
            );
        }
        let counts: Vec<usize> = map
            .shards()
            .iter()
            .map(|s| ids.iter().filter(|&&i| s.owns(i)).count())
            .collect();
        assert_eq!(counts, vec![4, 3, 3]);
    }

    #[test]
    fn plan_refuses_degenerate_cuts() {
        assert!(plan_from_ids(&[1, 2, 3], 0).is_err());
        assert!(
            plan_from_ids(&[1, 2], 3).is_err(),
            "more shards than columns"
        );
        assert!(plan_from_ids(&[1, 2, 3], 3).is_ok());
    }
}
