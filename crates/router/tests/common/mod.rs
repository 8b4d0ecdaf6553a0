//! Fleet fixtures shared by the router's chaos suites: a replicated
//! fleet of `workbenchd` backends, each on its own store directory and
//! streaming its journals to its rendezvous successor (`--repl-peers`),
//! plus the small session script the scenarios drive through it.

// Each suite compiles this module separately and uses a subset of it.
#![allow(dead_code)]

use iwb_router::router::{serve as serve_router, RouterConfig, RouterHandle};
use iwb_server::client::Client;
use iwb_server::fault::FaultPlan;
use iwb_server::repl::ReplConfig;
use iwb_server::server::{serve, ServerConfig, ServerHandle};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const SCHEMA_A: &str =
    "entity SHIPMENT \"An outgoing shipment.\" { ship_dt : date \"Date shipped.\" }";
pub const SCHEMA_B: &str =
    "entity DELIVERY \"A delivery record.\" { deliver_dt : date \"Date delivered.\" }";
pub const ACCEPT: &str = "accept a b a/SHIPMENT/ship_dt b/DELIVERY/deliver_dt";

/// A scratch store directory, cleaned on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("iwb-router-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reserve concrete loopback addresses: the replication peer list must
/// be identical on every backend *before* any of them starts.
fn reserve_addrs(n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap()
                .to_string()
        })
        .collect()
}

/// One fleet member at slot `slot` of `peers`: its own store,
/// replication to its rendezvous successor, no startup sweep (the
/// router promotes sessions on demand), optional faults.
fn spawn_backend(peers: &[String], slot: usize, store: &Path, faults: FaultPlan) -> ServerHandle {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match serve(ServerConfig {
            addr: peers[slot].clone(),
            store_dir: Some(store.to_path_buf()),
            recover: false,
            faults: faults.clone(),
            repl: Some(ReplConfig {
                peers: peers.to_vec(),
                self_index: slot,
            }),
            ..ServerConfig::default()
        }) {
            Ok(handle) => return handle,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not bind {}: {e}", peers[slot]),
        }
    }
}

/// A replicated fleet of `n` backends, each on its own store.
pub fn spawn_fleet(
    tag: &str,
    n: usize,
    faults_for: impl Fn(usize) -> FaultPlan,
) -> (Vec<String>, Vec<TempDir>, Vec<Option<ServerHandle>>) {
    let peers = reserve_addrs(n);
    let stores: Vec<TempDir> = (0..n).map(|i| TempDir::new(&format!("{tag}{i}"))).collect();
    let backends = (0..n)
        .map(|i| Some(spawn_backend(&peers, i, &stores[i].0, faults_for(i))))
        .collect();
    (peers, stores, backends)
}

pub fn spawn_router(peers: &[String], config: RouterConfig) -> RouterHandle {
    serve_router(RouterConfig {
        backends: peers.to_vec(),
        ..config
    })
    .expect("bind router")
}

/// Stop every backend still running.
pub fn stop_all(backends: Vec<Option<ServerHandle>>) {
    for b in backends.into_iter().flatten() {
        b.shutdown();
        b.join();
    }
}

/// Everything export- and query-visible about a session, for
/// byte-identical comparison across a failover.
pub fn observable_state(c: &mut Client) -> String {
    let export = c.request("export").unwrap().expect_ok().unwrap();
    let coverage = c.request("show coverage").unwrap().expect_ok().unwrap();
    format!("{export}\n---\n{coverage}")
}

/// Load two schemas and match them (3 mutating commands).
pub fn warm(c: &mut Client) {
    c.request_with_heredoc("load er a", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request_with_heredoc("load er b", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request("match a b").unwrap().expect_ok().unwrap();
}
