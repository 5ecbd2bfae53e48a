//! Concurrent-client stress tests over a real TCP daemon.
//!
//! The quick test runs in tier-1: two clients submit overlapping plans
//! against one daemon and the test asserts cross-client dedup, identical
//! CSV bytes for the shared artifacts, and an untorn store. The deep
//! variant (`#[ignore]`, run by the nightly CI job) raises the client
//! count and mixes figures so submissions race across plan shapes. The
//! latency test pins the warm path: sequential resubmits must not wait on
//! the accept loop, and drain must release the port promptly. A client
//! that never sends a newline is cut off without affecting the others.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use commsense_apps::Scale;
use commsense_core::store::ResultStore;
use commsense_service::client::{self, SubmitOutcome};
use commsense_service::protocol::{Figure, PlanSpec};
use commsense_service::shell::{ServeConfig, Server};

fn temp_store(name: &str) -> (Arc<ResultStore>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("commsense-service-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("open store");
    (Arc::new(store), dir)
}

fn start_daemon(store: Arc<ResultStore>, workers: usize) -> (String, thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        store: Some(store),
        retries: 1,
        quiet: true,
    })
    .expect("bind daemon");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run().expect("daemon run"));
    (addr, handle)
}

fn plan(figure: Figure, apps: &[&str]) -> PlanSpec {
    PlanSpec {
        figure,
        scale: Scale::Small,
        apps: apps.iter().map(|s| s.to_string()).collect(),
        mechanisms: Vec::new(),
    }
}

fn submit(addr: &str, id: &str, plan: PlanSpec) -> thread::JoinHandle<SubmitOutcome> {
    let addr = addr.to_string();
    let id = id.to_string();
    thread::spawn(move || {
        client::submit(&addr, &id, &plan, |_| {}).unwrap_or_else(|e| panic!("{id}: {e}"))
    })
}

fn csv(outcome: &SubmitOutcome, name: &str) -> String {
    outcome
        .csvs
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing {name}"))
        .1
        .clone()
}

#[test]
fn two_clients_with_overlapping_plans_dedup_and_agree() {
    let (store, dir) = temp_store("stress2");
    let (addr, daemon) = start_daemon(store.clone(), 2);
    // Both plans cover EM3D (5 shared points); each adds a private app.
    let a = submit(&addr, "client-a", plan(Figure::Fig4, &["EM3D", "UNSTRUC"]));
    let b = submit(&addr, "client-b", plan(Figure::Fig4, &["EM3D", "ICCG"]));
    let a = a.join().expect("client a");
    let b = b.join().expect("client b");
    for (name, out) in [("a", &a), ("b", &b)] {
        assert_eq!(out.total, 10, "client {name} plan size");
        assert_eq!(out.progress, 10, "client {name} progress lines");
        assert_eq!(out.stats.failed, 0, "client {name} failures");
    }
    // 15 unique points were needed; whoever lost the EM3D race got its 5
    // points deduplicated (in flight or already finished — either way,
    // not simulated twice).
    let stats = client::fetch_stats(&addr).expect("stats");
    assert_eq!(stats.unique_runs, 15);
    assert_eq!(stats.simulated, 15, "each unique point simulated once");
    assert!(
        stats.inflight_hits >= 5,
        "the shared EM3D points must dedup across clients (got {})",
        stats.inflight_hits
    );
    assert_eq!(
        csv(&a, "fig4_em3d.csv"),
        csv(&b, "fig4_em3d.csv"),
        "shared artifact must be byte-identical for both clients"
    );
    client::request_shutdown(&addr).expect("shutdown");
    daemon.join().expect("daemon exits");
    // No torn records: every write was atomic and checksummed.
    let report = store.verify().expect("verify");
    assert_eq!(report.corrupt, 0);
    assert_eq!(report.ok, 15);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
#[ignore = "deep stress: run explicitly (nightly CI) with --ignored"]
fn many_clients_mixed_figures_stress() {
    let (store, dir) = temp_store("stress-deep");
    let (addr, daemon) = start_daemon(store.clone(), 4);
    // Two waves of four clients each; figures overlap within and across
    // waves (fig8/fig10 share their zero-consumption and message-passing
    // base points with fig4), so dedup happens at every level.
    for wave in 0..2 {
        let jobs: Vec<_> = [
            plan(Figure::Fig4, &["EM3D", "MOLDYN"]),
            plan(Figure::Fig8, &["EM3D"]),
            plan(Figure::Fig10, &["EM3D"]),
            plan(Figure::Fig4, &["EM3D", "ICCG"]),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, p)| submit(&addr, &format!("w{wave}-c{i}"), p))
        .collect();
        for (i, j) in jobs.into_iter().enumerate() {
            let out = j.join().expect("client thread");
            assert_eq!(out.stats.failed, 0, "wave {wave} client {i}");
            assert_eq!(out.progress, out.total, "wave {wave} client {i}");
        }
    }
    let stats = client::fetch_stats(&addr).expect("stats");
    // Wave 2 resubmits wave 1's plans verbatim: at least that many
    // point-level dedup hits, and nothing simulated twice.
    assert!(stats.inflight_hits >= stats.unique_runs);
    assert_eq!(stats.simulated, stats.unique_runs);
    client::request_shutdown(&addr).expect("shutdown");
    daemon.join().expect("daemon exits");
    let report = store.verify().expect("verify");
    assert_eq!(report.corrupt, 0);
    assert_eq!(report.ok, stats.unique_runs as u64);
    let _ = std::fs::remove_dir_all(dir);
}

/// Starts a store-less daemon; the receiver yields `run`'s result.
fn start_timed_daemon() -> (String, Receiver<io::Result<()>>) {
    let server = Server::bind(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().expect("local addr").to_string();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(server.run()).ok());
    (addr, rx)
}

/// Descriptors open in this process, where the platform lists them.
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(|d| d.count())
}

/// Asks the daemon to drain and asserts `run` returns within 2 s.
fn shutdown_within_2s(addr: &str, ran: &Receiver<io::Result<()>>) {
    client::request_shutdown(addr).expect("shutdown");
    ran.recv_timeout(Duration::from_secs(2))
        .expect("run() returns within 2 s of shutdown")
        .expect("daemon run");
}

#[test]
fn warm_resubmits_do_not_wait_on_accept_and_drain_frees_the_port() {
    let (addr, ran) = start_timed_daemon();
    let fig4 = plan(Figure::Fig4, &["EM3D"]);
    let cold = client::submit(&addr, "cold", &fig4, |_| {}).expect("cold job");
    assert_eq!(cold.stats.simulated, cold.total);
    // A sleeping accept poll (25 ms) would need at least 2.5 s here.
    let fds_before = open_fds();
    let started = Instant::now();
    for n in 0..100 {
        let warm = client::submit(&addr, "warm", &fig4, |_| {}).expect("warm job");
        assert_eq!(warm.stats.inflight_hits, warm.total, "resubmit {n}");
        assert_eq!(warm.csvs, cold.csvs, "resubmit {n}");
    }
    let warm = started.elapsed();
    assert!(
        warm < Duration::from_millis(1500),
        "100 warm resubmits took {warm:?}"
    );
    // A finished client's socket is closed, not kept open by the daemon
    // (slack for the last client's close and concurrent tests).
    if let (Some(before), Some(after)) = (fds_before, open_fds()) {
        assert!(
            after < before + 50,
            "{before} -> {after} open descriptors over 100 clients"
        );
    }
    shutdown_within_2s(&addr, &ran);
    TcpListener::bind(&addr).expect("the port is free once run() returns");
}

#[test]
fn a_daemon_that_never_had_a_client_shuts_down_promptly() {
    let (addr, ran) = start_timed_daemon();
    shutdown_within_2s(&addr, &ran);
}

#[test]
fn an_endless_line_disconnects_only_its_client() {
    let (addr, ran) = start_timed_daemon();
    let mut flood = TcpStream::connect(&addr).expect("connect");
    flood
        .set_write_timeout(Some(Duration::from_secs(5)))
        .expect("write timeout");
    flood
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // 2 MiB without a newline; the daemon may hang up part way, so a
    // failed write is expected, not an error.
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..32 {
        if flood.write_all(&chunk).is_err() {
            break;
        }
    }
    let mut byte = [0u8; 1];
    match flood.read(&mut byte) {
        Ok(0) => {}
        Err(e)
            if !matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) => {}
        other => panic!("the flooding client must be disconnected, got {other:?}"),
    }
    let stats = client::fetch_stats(&addr).expect("a second client is still served");
    assert_eq!(stats.jobs_active, 0);
    shutdown_within_2s(&addr, &ran);
}
