//! Persist the embedded lake and start the serving stack a workload's
//! outermost hop needs — all inside this process, over loopback.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pexeso_core::metric::Euclidean;
use pexeso_core::outofcore::{LakeManifest, PartitionedLake, ResidentPartitions};
use pexeso_router::{
    shard_dir_name, split_lake, RouterServeConfig, RouterServer, RouterServerHandle, ShardMap,
    ShardSpec,
};
use pexeso_serve::{ServeConfig, Server, ServerHandle};

use crate::inputs::Inputs;
use crate::spec::{partition_config, Hop, SHARDS};
use crate::Res;

/// Which serving tiers to start.
#[derive(Debug, Clone, Copy)]
pub struct Tiers {
    /// One daemon over the whole lake.
    pub daemon: bool,
    /// `split_lake`, one daemon per shard, and the router daemon.
    pub routed: bool,
    /// Connections the traced ladder keeps open to each daemon besides
    /// the workload's own. A daemon worker owns a connection until the
    /// peer hangs up, so each held-open connection gets a worker of its
    /// own; the ladder sends one request at a time, so the extra workers
    /// never run beside the measured one.
    pub ladder_connections: (usize, usize),
}

impl Tiers {
    pub fn of(hop: Hop) -> Self {
        Self {
            daemon: hop == Hop::Daemon,
            routed: hop == Hop::Router,
            ladder_connections: (0, 0),
        }
    }

    /// The whole stack for the traced run: the ladder's own client to the
    /// whole-lake daemon, and a direct client plus an in-process `Router`
    /// to every shard daemon.
    pub const LADDER: Tiers = Tiers {
        daemon: true,
        routed: true,
        ladder_connections: (1, 2),
    };
}

/// Workers of a shard daemon. Never one: the router keeps a pooled
/// connection to each shard, and a routed `APPLY` opens a second; with a
/// single worker that second connection waits out the first one's 30 s
/// read timeout (measured: a 1 s run took 33 s of wall time).
pub fn shard_workers(nproc: usize) -> usize {
    (nproc / SHARDS).max(2)
}

pub struct Deployment {
    pub lake_dir: PathBuf,
    pub shard_dirs: Vec<PathBuf>,
    pub shard_specs: Vec<ShardSpec>,
    pub daemon: Option<ServerHandle>,
    pub shards: Vec<ServerHandle>,
    pub routerd: Option<RouterServerHandle>,
    /// `PartitionedLake::build` + manifest.
    pub partitioned_build_s: f64,
    /// `split_lake` (0 when not routed).
    pub split_s: f64,
    /// Embedded lake in memory → every daemon ready.
    pub build_s: f64,
}

/// Every product config at its shipped default except `workers`.
fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..Default::default()
    }
}

impl Deployment {
    /// Build under `root` (created; must not hold an earlier deployment)
    /// and start the requested tiers. `nproc` sizes the worker pools:
    /// `nproc` for the whole-lake daemon, [`shard_workers`] per shard
    /// daemon.
    pub fn build(inputs: &Inputs, root: &Path, tiers: Tiers, nproc: usize) -> Res<Self> {
        let started = Instant::now();
        let lake_dir = root.join("lake");
        std::fs::create_dir_all(&lake_dir).map_err(|e| format!("create {lake_dir:?}: {e}"))?;
        PartitionedLake::build(
            &inputs.columns,
            Euclidean,
            &partition_config(),
            &inputs.profile.index_options(),
            &lake_dir,
        )
        .map_err(|e| format!("PartitionedLake::build: {e}"))?;
        let mut manifest = LakeManifest::new("semantic", inputs.profile.dim());
        manifest.next_external_id = inputs.columns.n_columns() as u64;
        manifest
            .write(&lake_dir)
            .map_err(|e| format!("manifest: {e}"))?;
        let partitioned_build_s = started.elapsed().as_secs_f64();

        let mut dep = Deployment {
            lake_dir,
            shard_dirs: Vec::new(),
            shard_specs: Vec::new(),
            daemon: None,
            shards: Vec::new(),
            routerd: None,
            partitioned_build_s,
            split_s: 0.0,
            build_s: 0.0,
        };
        // From here on a failure must still stop what already started.
        match dep.start_tiers(root, tiers, nproc) {
            Ok(()) => {
                dep.build_s = started.elapsed().as_secs_f64();
                Ok(dep)
            }
            Err(e) => {
                dep.shutdown();
                Err(e)
            }
        }
    }

    fn start_tiers(&mut self, root: &Path, tiers: Tiers, nproc: usize) -> Res<()> {
        if tiers.routed {
            let out = root.join("shards");
            let split_started = Instant::now();
            let map =
                split_lake(&self.lake_dir, SHARDS, &out).map_err(|e| format!("split_lake: {e}"))?;
            self.split_s = split_started.elapsed().as_secs_f64();
            for (i, spec) in map.shards().iter().enumerate() {
                let dir = out.join(shard_dir_name(i));
                let workers = shard_workers(nproc) + tiers.ladder_connections.1;
                let handle = Server::start(&dir, "127.0.0.1:0", serve_config(workers))
                    .map_err(|e| format!("shard {i} daemon: {e}"))?;
                self.shard_specs.push(ShardSpec {
                    lo: spec.lo,
                    hi: spec.hi,
                    replicas: vec![handle.addr().to_string()],
                });
                self.shards.push(handle);
                self.shard_dirs.push(dir);
            }
            let map_path = root.join("shardmap.txt");
            ShardMap::new(self.shard_specs.clone())
                .and_then(|m| m.write(&map_path))
                .map_err(|e| format!("shard map: {e}"))?;
            self.routerd = Some(
                RouterServer::start(&map_path, "127.0.0.1:0", RouterServeConfig::default())
                    .map_err(|e| format!("router daemon: {e}"))?,
            );
        }
        if tiers.daemon {
            self.daemon = Some(
                Server::start(
                    &self.lake_dir,
                    "127.0.0.1:0",
                    serve_config(nproc + tiers.ladder_connections.0),
                )
                .map_err(|e| format!("daemon: {e}"))?,
            );
        }
        Ok(())
    }

    /// Address of the workload's outermost hop.
    pub fn outer_addr(&self, hop: Hop) -> SocketAddr {
        match hop {
            Hop::Daemon => self.daemon.as_ref().expect("daemon tier started").addr(),
            Hop::Router => self.routerd.as_ref().expect("routed tier started").addr(),
        }
    }

    /// The deployment directories the hop's daemons serve from.
    pub fn served_dirs(&self, hop: Hop) -> Vec<&Path> {
        match hop {
            Hop::Daemon => vec![&self.lake_dir],
            Hop::Router => self.shard_dirs.iter().map(PathBuf::as_path).collect(),
        }
    }

    /// Stop every daemon and wait for its threads.
    pub fn shutdown(&mut self) {
        if let Some(r) = self.routerd.take() {
            r.shutdown();
        }
        for s in self.shards.drain(..) {
            s.shutdown();
        }
        if let Some(d) = self.daemon.take() {
            d.shutdown();
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Footprint of the deployments under `dirs`: (resident bytes, disk
/// bytes), resident = Σ partitions (`index_bytes` + `data_bytes`).
pub fn footprint(dirs: &[&Path]) -> Res<(u64, u64)> {
    let mut resident = 0u64;
    let mut disk = 0u64;
    for dir in dirs {
        let lake = PartitionedLake::open(dir).map_err(|e| format!("open {dir:?}: {e}"))?;
        disk += lake.disk_bytes().map_err(|e| format!("disk_bytes: {e}"))?;
        let loaded =
            ResidentPartitions::load(&lake, Euclidean).map_err(|e| format!("load {dir:?}: {e}"))?;
        for i in 0..loaded.num_partitions() {
            let p = loaded.partition(i);
            resident += (p.index_bytes() + p.data_bytes()) as u64;
        }
    }
    Ok((resident, disk))
}

/// A scratch directory under `bench/out/`, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(out_dir: &Path, label: &str) -> Res<Self> {
        let path = out_dir.join(format!("deploy-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {path:?}: {e}"))?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
