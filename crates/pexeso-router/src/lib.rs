//! # pexeso-router — sharded distributed serving for PEXESO
//!
//! One `pexeso serve` daemon tops out at one machine's cores and disk.
//! This crate scales the serving tier *out* without giving up the
//! repo-wide exactness contract: a lake is cut into shards by
//! external-id range, each shard is a complete, independently-servable
//! deployment run by one or more replica daemons, and a **router**
//! daemon scatters every query across the shards and merges the replies
//! — byte-identical to what a single-node deployment of the whole lake
//! would answer.
//!
//! * [`shardmap`] — the routing table: disjoint external-id ranges,
//!   each with its replica addresses; a line-oriented text file.
//! * [`split`] — offline tooling (`pexeso shard-plan` /
//!   `pexeso shard-split`): cut a built lake into N shard deployments,
//!   exact in union.
//! * [`router`] — the scatter-gather [`pexeso_core::query::Queryable`]:
//!   per-shard [`pexeso_serve::ResilientClient`]s with replica failover
//!   and circuit breakers, range-filtered replies, tie-inclusive exact
//!   merge (threshold and top-k with adaptive over-ask), typed refusal
//!   when a shard is unreachable, correlated `shard/N` trace spans.
//! * [`daemon`] — the router behind the same wire protocol shard
//!   daemons speak, so every existing client works unchanged; its own
//!   METRICS/SLOW observability plane with per-shard gauges.
//!
//! The exactness argument is spelled out in [`router`]; the short
//! version: blocking-complete matching makes a column's match count a
//! semantic fact independent of partition structure, shard ranges are
//! disjoint, and external ids are globally unique — so per-shard exact
//! answers concatenate and re-rank into the exact global answer.

pub mod daemon;
pub mod router;
pub mod shardmap;
pub mod split;

pub use daemon::{RouterServeConfig, RouterServer, RouterServerHandle};
pub use router::{Router, RouterConfig, RouterInfo, ShardStatus};
pub use shardmap::{ShardMap, ShardSpec};
pub use split::{plan_shards, shard_dir_name, split_lake, SHARD_MAP_FILE};
