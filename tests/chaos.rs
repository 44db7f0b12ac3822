//! Process-level crash recovery: SIGKILL a real `pexeso serve` daemon
//! mid-`APPLY` and prove a restarted daemon serves exactly what a fresh
//! open of the directory computes.
//!
//! This is the one failure shape the in-process chaos sweep
//! (`crates/pexeso-delta/tests/crash_chaos.rs`) cannot produce: the
//! whole OS process dies — worker threads, queued connections, the
//! snapshot cell, everything — with the deployment directory left
//! behind. The daemon is armed with `--fault-profile
//! serve.apply:0:delay:...`, which holds the first APPLY open long
//! enough for the kill to land inside it deterministically.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pexeso")
}

fn run(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn pexeso");
    assert!(
        out.status.success(),
        "pexeso {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Start a daemon on an ephemeral port and parse the bound address from
/// its startup line (printed only once the listener is accepting).
fn start_daemon(index: &Path, fault_profile: Option<&str>) -> (Child, String) {
    let mut args = vec![
        "serve".to_string(),
        "--index".to_string(),
        index.display().to_string(),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--workers".to_string(),
        "2".to_string(),
    ];
    if let Some(profile) = fault_profile {
        args.push("--fault-profile".to_string());
        args.push(profile.to_string());
    }
    let mut child = Command::new(bin())
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("daemon stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read daemon startup line");
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparsable startup line: {line:?}"))
        .to_string();
    (child, addr)
}

/// The `  table . column  (n records matched)` lines of a report.
fn hit_lines(report: &str) -> Vec<String> {
    report
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(|l| l.to_string())
        .collect()
}

#[test]
fn daemon_killed_mid_apply_recovers_on_restart() {
    let root = std::env::temp_dir().join(format!("pexeso_proc_chaos_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let lake = root.join("lake");
    let newlake = root.join("new");
    let idx = root.join("idx");
    std::fs::create_dir_all(&lake).unwrap();
    std::fs::create_dir_all(&newlake).unwrap();

    // Three base tables; table1 and the later delta table share names
    // with the query, so both must join.
    for (t, city, joins) in [(1, "Berlin", true), (2, "Rome", false), (3, "Oslo", false)] {
        let mut csv = String::from("name,city\n");
        for i in 1..=12 {
            if joins {
                csv.push_str(&format!("Person Alpha {i},{city}\n"));
            } else {
                csv.push_str(&format!("Other {t}_{i} Item,{city}\n"));
            }
        }
        std::fs::write(lake.join(format!("table{t}.csv")), csv).unwrap();
    }
    let mut delta_csv = String::from("name,city\n");
    for i in 1..=10 {
        delta_csv.push_str(&format!("Person Alpha {i},Madrid\n"));
    }
    std::fs::write(newlake.join("table9.csv"), delta_csv).unwrap();
    let mut query_csv = String::from("name,score\n");
    for i in 1..=10 {
        query_csv.push_str(&format!("Person Alpha {i},{i}\n"));
    }
    let query = root.join("query.csv");
    std::fs::write(&query, query_csv).unwrap();

    run(&[
        "index",
        "--lake",
        lake.to_str().unwrap(),
        "--out",
        idx.to_str().unwrap(),
        "--dim",
        "32",
        "--partitions",
        "2",
    ]);

    // Daemon A: the first APPLY stalls for 5 s inside the armed fault
    // window — plenty of room to SIGKILL it mid-publish.
    let (mut daemon_a, addr_a) = start_daemon(&idx, Some("serve.apply:0:delay:5000"));

    // Append a new table to the delta log offline, then ask the daemon
    // to publish it; kill -9 while the APPLY is in flight.
    run(&[
        "ingest",
        "--index",
        idx.to_str().unwrap(),
        "--lake",
        newlake.to_str().unwrap(),
    ]);
    let mut apply = Command::new(bin())
        .args(["query", "--addr", &addr_a, "--apply"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn apply client");
    std::thread::sleep(Duration::from_millis(500));
    daemon_a.kill().expect("SIGKILL daemon");
    daemon_a.wait().expect("reap daemon");
    // The apply client loses its connection and exits with an error —
    // that is the point.
    let apply_status = apply.wait().expect("reap apply client");
    assert!(
        !apply_status.success(),
        "APPLY must fail when the daemon dies"
    );

    // Daemon B: plain restart over the same directory. Recovery must be
    // automatic — WAL replay on snapshot load, no operator step.
    let (daemon_b, addr_b) = start_daemon(&idx, None);
    let served = run(&[
        "query",
        "--addr",
        &addr_b,
        "--query",
        query.to_str().unwrap(),
        "--t",
        "0.5",
    ]);
    let local = run(&[
        "query",
        "--index",
        idx.to_str().unwrap(),
        "--query",
        query.to_str().unwrap(),
        "--t",
        "0.5",
    ]);

    let served_hits = hit_lines(&served);
    let local_hits = hit_lines(&local);
    assert!(
        served_hits.iter().any(|l| l.contains("table9")),
        "delta table ingested before the crash must survive it: {served}"
    );
    assert_eq!(
        served_hits, local_hits,
        "restarted daemon must serve exactly what a fresh open computes\n\
         served:\n{served}\nlocal:\n{local}"
    );

    run(&["query", "--addr", &addr_b, "--shutdown"]);
    let mut daemon_b = daemon_b;
    daemon_b.wait().expect("reap daemon B");
    std::fs::remove_dir_all(&root).ok();
}
