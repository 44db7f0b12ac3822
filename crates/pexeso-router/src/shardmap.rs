//! The shard map: which external-id range each shard owns and which
//! replica daemons serve it.
//!
//! The map is a line-oriented text file (comments with `#`), one line
//! per shard:
//!
//! ```text
//! # pexeso shard map
//! shard 0 1000 127.0.0.1:7001,127.0.0.1:7002
//! shard 1000 2000 127.0.0.1:7003
//! shard 2000 * -
//! ```
//!
//! `shard <lo> <hi> <replicas>`: the shard owns external ids in
//! `[lo, hi)`; `*` spells an unbounded upper end (`u64::MAX`, itself
//! never allocated as an id); replicas are comma-separated addresses, or
//! `-` for "not yet assigned" (what `shard-plan`/`shard-split` emit —
//! the router refuses to start until every shard has at least one).
//!
//! Ranges must be disjoint and sorted ascending. Gaps are allowed (a
//! gap's ids are simply served by nobody), overlap is not: with
//! overlapping ownership one column would be answered twice and the
//! merged counts would be wrong — disjointness is what makes the
//! cross-shard merge exact (see [`crate::router`]).

use std::fmt::Write as _;
use std::path::Path;

use pexeso_core::error::{PexesoError, Result};

/// One shard: an external-id range and the replica daemons serving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// First owned external id (inclusive).
    pub lo: u64,
    /// One past the last owned external id (exclusive; `u64::MAX` =
    /// unbounded).
    pub hi: u64,
    /// Replica daemon addresses; empty = unassigned (plan placeholder).
    pub replicas: Vec<String>,
}

impl ShardSpec {
    /// Whether this shard owns external id `id`.
    pub fn owns(&self, id: u64) -> bool {
        self.lo <= id && id < self.hi
    }
}

/// A validated set of disjoint, ascending shard ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: Vec<ShardSpec>,
}

impl ShardMap {
    /// Validate and wrap: at least one shard, every range non-empty,
    /// ranges sorted ascending and pairwise disjoint.
    pub fn new(shards: Vec<ShardSpec>) -> Result<Self> {
        if shards.is_empty() {
            return Err(PexesoError::InvalidParameter(
                "shard map needs at least one shard".into(),
            ));
        }
        for (i, s) in shards.iter().enumerate() {
            if s.lo >= s.hi {
                return Err(PexesoError::InvalidParameter(format!(
                    "shard {i} range [{}, {}) is empty",
                    s.lo, s.hi
                )));
            }
            if let Some(prev) = i.checked_sub(1).map(|p| &shards[p]) {
                if s.lo < prev.hi {
                    return Err(PexesoError::InvalidParameter(format!(
                        "shard {i} range [{}, {}) overlaps or precedes shard {} range [{}, {})",
                        s.lo,
                        s.hi,
                        i - 1,
                        prev.lo,
                        prev.hi
                    )));
                }
            }
        }
        Ok(Self { shards })
    }

    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Parse the text format described in the module docs.
    pub fn parse(text: &str) -> Result<Self> {
        let mut shards = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = n + 1;
            let mut fields = line.split_whitespace();
            let bad = |what: &str| {
                PexesoError::InvalidParameter(format!(
                    "shard map line {lineno}: {what} (want `shard <lo> <hi> <addr,addr|->`)"
                ))
            };
            if fields.next() != Some("shard") {
                return Err(bad("unknown directive"));
            }
            let lo: u64 = fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| bad("unparseable lower bound"))?;
            let hi: u64 = match fields.next() {
                Some("*") => u64::MAX,
                Some(f) => f.parse().map_err(|_| bad("unparseable upper bound"))?,
                None => return Err(bad("missing upper bound")),
            };
            let replicas = match fields.next() {
                Some("-") => Vec::new(),
                Some(f) => f.split(',').map(str::to_string).collect(),
                None => return Err(bad("missing replica list")),
            };
            if fields.next().is_some() {
                return Err(bad("trailing fields"));
            }
            shards.push(ShardSpec { lo, hi, replicas });
        }
        Self::new(shards)
    }

    /// Read and parse a shard-map file.
    pub fn read(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
            .map_err(|e| PexesoError::InvalidParameter(format!("{}: {e}", path.display())))
    }

    /// Render back to the text format (parse ∘ render is identity).
    pub fn render(&self) -> String {
        let mut out = String::from("# pexeso shard map\n");
        for s in &self.shards {
            let _ = write!(out, "shard {} ", s.lo);
            if s.hi == u64::MAX {
                out.push('*');
            } else {
                let _ = write!(out, "{}", s.hi);
            }
            out.push(' ');
            if s.replicas.is_empty() {
                out.push('-');
            } else {
                out.push_str(&s.replicas.join(","));
            }
            out.push('\n');
        }
        out
    }

    /// Write the rendered map to `path`.
    pub fn write(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.render())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lo: u64, hi: u64, replicas: &[&str]) -> ShardSpec {
        ShardSpec {
            lo,
            hi,
            replicas: replicas.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn parse_render_roundtrip() {
        let text =
            "# pexeso shard map\nshard 0 1000 a:1,b:2\nshard 1000 2000 c:3\nshard 5000 * -\n";
        let map = ShardMap::parse(text).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map.shards()[0], spec(0, 1000, &["a:1", "b:2"]));
        assert_eq!(map.shards()[2], spec(5000, u64::MAX, &[]));
        assert_eq!(ShardMap::parse(&map.render()).unwrap(), map);
    }

    #[test]
    fn overlap_and_disorder_are_rejected() {
        assert!(ShardMap::new(vec![]).is_err());
        assert!(
            ShardMap::new(vec![spec(5, 5, &["a:1"])]).is_err(),
            "empty range"
        );
        assert!(
            ShardMap::new(vec![spec(0, 10, &["a:1"]), spec(9, 20, &["b:1"])]).is_err(),
            "overlap"
        );
        assert!(
            ShardMap::new(vec![spec(10, 20, &["a:1"]), spec(0, 10, &["b:1"])]).is_err(),
            "out of order"
        );
        assert!(ShardMap::parse("shard 0 ten a:1").is_err());
        assert!(ShardMap::parse("split 0 10 a:1").is_err());
        assert!(ShardMap::parse("shard 0 10 a:1 extra").is_err());
    }
}
