//! Curation replay against a live `workbenchd`: the identical oracle
//! script runs over TCP (exercising the journal path for every
//! mutating command), the daemon is killed mid-flight and restarted
//! on the same `--store` (with `--snapshot-every 0`, so recovery is
//! journal replay alone), and the recovered session must report
//! byte-identical match state and metrics.

use iwb_eval::domains::{generate_case, DomainKnobs, FINANCE};
use iwb_eval::replay::{run_replay, ClientTransport, OracleConfig, ShellTransport};
use iwb_eval::EvalCase;
use iwb_server::client::Client;
use iwb_server::server::{serve, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("iwb-eval-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A daemon on `store_dir` that snapshots only on eviction and
/// shutdown, so a killed daemon leaves the journal as its only record.
fn journal_only(addr: &str, store_dir: &Path, recover: bool) -> ServerConfig {
    ServerConfig {
        addr: addr.to_owned(),
        store_dir: Some(store_dir.to_path_buf()),
        snapshot_every: 0,
        recover,
        ..ServerConfig::default()
    }
}

fn restart_with_recovery(addr: &str, store_dir: &Path) -> ServerHandle {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match serve(journal_only(addr, store_dir, true)) {
            Ok(handle) => return handle,
            Err(e) if std::time::Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    }
}

fn small_case() -> EvalCase {
    let knobs = DomainKnobs {
        entities: 5,
        attrs_per_entity: 3.0,
        ..iwb_eval::default_knobs(&FINANCE)
    };
    generate_case(&FINANCE, &knobs, 90210)
}

/// Everything match-state-visible about the replayed session.
fn observable_state(c: &mut Client, case: &EvalCase) -> String {
    let src = case.pair.source.id().as_str();
    let tgt = case.pair.target.id().as_str();
    let export = c.request("export").unwrap().expect_ok().unwrap();
    let proposals = c
        .request(&format!("proposals {src} {tgt} threshold 0.25"))
        .unwrap()
        .expect_ok()
        .unwrap();
    let weights = c.request("weights").unwrap().expect_ok().unwrap();
    format!("{export}\n---\n{proposals}\n---\n{weights}")
}

#[test]
fn journaled_replay_survives_crash_and_recovery_byte_identically() {
    let dir = TempDir::new("replay");
    let case = small_case();
    let cfg = OracleConfig {
        rounds: 3,
        ..OracleConfig::default()
    };

    let handle = serve(journal_only("127.0.0.1:0", &dir.0, false)).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    client.session_new(Some("curation")).expect("session");
    let outcome = run_replay(&mut ClientTransport(&mut client), &case, &cfg).expect("replay");
    let before = observable_state(&mut client, &case);
    drop(client);

    // The in-process replay over the same case must agree with the
    // daemon-hosted one round for round, bit for bit.
    let local = run_replay(&mut ShellTransport::new(), &case, &cfg).expect("local replay");
    assert_eq!(outcome.rounds.len(), local.rounds.len());
    for (a, b) in outcome.rounds.iter().zip(&local.rounds) {
        assert_eq!(a.metrics, b.metrics, "transport changed round {}", a.round);
        assert_eq!(
            a.max_weight_delta.to_bits(),
            b.max_weight_delta.to_bits(),
            "transport changed weight motion in round {}",
            a.round
        );
    }
    assert_eq!(outcome.rounds_to_plateau, local.rounds_to_plateau);

    // Kill without shutdown; recover from the journal alone.
    handle.kill();
    let recovered = restart_with_recovery(&addr, &dir.0);
    let mut client = Client::connect(&addr).expect("reconnect");
    client.session_attach("curation").expect("re-attach");
    let after = observable_state(&mut client, &case);
    assert_eq!(before, after, "recovered session diverged");
    drop(client);
    recovered.shutdown();
}
