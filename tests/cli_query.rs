//! `pexeso query` is the one query command: asked of a deployment
//! (`--index`) or of a `pexeso serve` daemon over it (`--addr`), it prints
//! the same hit lines and, under `--explain`, the same candidate funnel.
//! A daemon answers under its own manifest's metric, whatever the
//! deployment was built with.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

use pexeso::core::outofcore::{LakeManifest, PartitionedLake};
use pexeso::core::partition::PartitionConfig;
use pexeso::lake::csv::read_table_file;
use pexeso::lake::keycol::KeyColumnConfig;
use pexeso::pipeline::embed_tables;
use pexeso::prelude::*;

fn pexeso(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pexeso"))
        .args(args)
        .output()
        .expect("spawn pexeso")
}

fn run(args: &[&str]) -> String {
    let out = pexeso(args);
    assert!(
        out.status.success(),
        "pexeso {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A daemon serving `index` on an ephemeral port; shut down on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Start it and parse the bound address from its startup line
    /// (printed only once the listener is accepting).
    fn start(index: &Path) -> Self {
        let index = index.to_str().unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_pexeso"))
            .args(["serve", "--index", index, "--addr", "127.0.0.1:0"])
            .args(["--workers", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("daemon stdout piped"))
            .read_line(&mut line)
            .expect("read daemon startup line");
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unparsable startup line: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        pexeso(&["query", "--addr", &self.addr, "--shutdown"]);
        self.child.wait().ok();
    }
}

/// The `  table . column  (n records matched)` lines of an answer.
fn hit_lines(answer: &str) -> Vec<&str> {
    answer
        .lines()
        .take_while(|l| *l != "query plan:")
        .filter(|l| l.starts_with("  "))
        .collect()
}

/// The rendered report after `query plan:`, up to the trace if any.
fn funnel(answer: &str) -> &str {
    let plan = answer
        .split_once("query plan:\n")
        .unwrap_or_else(|| panic!("no query plan in:\n{answer}"))
        .1;
    plan.split("\ntrace (").next().unwrap()
}

/// A three-table CSV lake (table1 joins the query, the others do not) and
/// the query CSV, under a fresh directory named after `tag`.
fn csv_lake(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("pexeso_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let lake = root.join("lake");
    std::fs::create_dir_all(&lake).unwrap();
    for (t, city) in [(1, "Berlin"), (2, "Rome"), (3, "Oslo")] {
        let mut csv = String::from("name,city\n");
        for i in 1..=12 {
            match t {
                1 => csv.push_str(&format!("Person Alpha {i},{city}\n")),
                _ => csv.push_str(&format!("Other {t}_{i} Item,{city}\n")),
            }
        }
        std::fs::write(lake.join(format!("table{t}.csv")), csv).unwrap();
    }
    let query = root.join("query.csv");
    let mut csv = String::from("name,score\n");
    for i in 1..=10 {
        csv.push_str(&format!("Person Alpha {i},{i}\n"));
    }
    std::fs::write(&query, csv).unwrap();
    (root, lake, query)
}

#[test]
fn local_and_served_queries_print_the_same_answer() {
    let (root, lake, query) = csv_lake("diff");
    let idx = root.join("idx");
    let (idx_s, query_s) = (idx.to_str().unwrap(), query.to_str().unwrap());
    run(&[
        "index",
        "--lake",
        lake.to_str().unwrap(),
        "--out",
        idx_s,
        "--dim",
        "32",
        "--partitions",
        "2",
    ]);
    let daemon = Daemon::start(&idx);

    for mode in [["--t", "0.5"], ["--k", "3"]] {
        let local = run(&[
            "query", "--index", idx_s, "--query", query_s, mode[0], mode[1],
        ]);
        let served = run(&[
            "query",
            "--addr",
            &daemon.addr,
            "--query",
            query_s,
            mode[0],
            mode[1],
        ]);
        assert!(
            hit_lines(&local).iter().any(|l| l.contains("table1")),
            "{local}"
        );
        assert_eq!(hit_lines(&local), hit_lines(&served), "{local}\n{served}");
        assert!(served.contains("generation"), "{served}");

        let local = run(&[
            "query",
            "--index",
            idx_s,
            "--query",
            query_s,
            mode[0],
            mode[1],
            "--explain",
        ]);
        let served = run(&[
            "query",
            "--addr",
            &daemon.addr,
            "--query",
            query_s,
            mode[0],
            mode[1],
            "--explain",
        ]);
        assert_eq!(hit_lines(&local), hit_lines(&served), "{local}\n{served}");
        assert!(funnel(&local).contains("funnel:"), "{local}");
        assert_eq!(funnel(&local), funnel(&served), "{local}\n{served}");
    }

    // The index shape rides METRICS; the INSPECT verb is retired.
    let metrics = run(&["query", "--addr", &daemon.addr, "--metrics"]);
    assert!(
        metrics.contains("pexeso_index_vectors{partition=\"0\"} "),
        "{metrics}"
    );
    let retired = pexeso(&["query", "--addr", &daemon.addr, "--inspect"]);
    assert_eq!(retired.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&retired.stderr);
    assert!(stderr.contains("unknown flag --inspect"), "{stderr}");
    // An admin verb needs a daemon or router to ask.
    let refused = pexeso(&["query", "--index", idx_s, "--metrics"]);
    assert_eq!(refused.status.code(), Some(1));
    drop(daemon);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn retired_query_subcommands_get_the_usage_error() {
    for cmd in ["search", "topk", "explain", "inspect"] {
        let out = pexeso(&[cmd, "--help"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let usage = String::from_utf8_lossy(&out.stderr);
        assert!(usage.starts_with("usage:"), "{usage}");
        assert!(!usage.contains(&format!("pexeso {cmd} ")), "{usage}");
    }
}

#[test]
fn a_served_query_answers_under_the_deployments_metric() {
    let (root, lake, query) = csv_lake("manhattan");
    let idx = root.join("idx");
    std::fs::create_dir_all(&idx).unwrap();
    let mut tables = Vec::new();
    for t in 1..=3 {
        tables.push(read_table_file(&lake.join(format!("table{t}.csv"))).unwrap());
    }
    let mut embedded =
        embed_tables(&HashEmbedder::new(32), &tables, &KeyColumnConfig::default()).unwrap();
    embedded.columns.store_mut().normalize_all();
    let config = PartitionConfig {
        k: 2,
        ..Default::default()
    };
    PartitionedLake::build_named(
        &embedded.columns,
        "manhattan",
        &config,
        &IndexOptions::default(),
        &idx,
    )
    .unwrap();
    let manifest = LakeManifest {
        metric: "manhattan".into(),
        next_external_id: embedded.columns.n_columns() as u64,
        ..LakeManifest::new("hash", 32)
    };
    manifest.write(&idx).unwrap();
    let daemon = Daemon::start(&idx);

    let (idx_s, query_s) = (idx.to_str().unwrap(), query.to_str().unwrap());
    let local = run(&["query", "--index", idx_s, "--query", query_s, "--t", "0.5"]);
    let served = run(&[
        "query",
        "--addr",
        &daemon.addr,
        "--query",
        query_s,
        "--t",
        "0.5",
    ]);
    assert!(
        hit_lines(&local).iter().any(|l| l.contains("table1")),
        "{local}"
    );
    assert_eq!(hit_lines(&local), hit_lines(&served), "{local}\n{served}");
    drop(daemon);
    std::fs::remove_dir_all(&root).ok();
}

/// A reader that stops reading (`pexeso query … | head`) ends the answer
/// quietly: the command exits 0 instead of panicking on the closed pipe.
#[test]
fn a_closed_stdout_ends_the_answer_quietly() {
    let (root, lake, query) = csv_lake("pipe");
    let idx = root.join("idx");
    let (idx_s, query_s) = (idx.to_str().unwrap(), query.to_str().unwrap());
    run(&[
        "index",
        "--lake",
        lake.to_str().unwrap(),
        "--out",
        idx_s,
        "--dim",
        "32",
    ]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_pexeso"))
        .args(["query", "--index", idx_s, "--query", query_s, "--explain"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pexeso");
    // Close the read end at once: the child loads the deployment and
    // embeds the query before it prints its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for pexeso");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&root).ok();
}
