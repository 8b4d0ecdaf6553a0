//! Fleet chaos tests: deterministic fault injection against a live
//! router + `workbenchd` backends, each on its own store directory and
//! streaming its journals to its rendezvous successor (`--repl-peers`),
//! so failover and migration go through `repl promote`.
//!
//! Every scenario runs with fixed seeds, so a failure reproduces
//! exactly. Covered:
//!
//! * a backend hard-killed while a mutating command is in flight:
//!   the command is acked exactly once through failover, no session
//!   is lost, and the recovered state is byte-identical to a
//!   fault-free control run;
//! * split routing (the same stamped command delivered to a stale
//!   non-owner) is refused by the backend's sequence guard — the
//!   fork never applies;
//! * probe timeouts quarantine a backend (placements shed with a
//!   retryable error) and sustained probe successes re-admit it;
//! * planned `migrate <id>` with an injected stall: concurrent
//!   commands answer retryable `MOVED`, `Client::reconnect` follows
//!   the hint, and the session lands on the successor intact.

mod common;

use common::{
    observable_state, spawn_fleet, spawn_router, stop_all, warm, TempDir, ACCEPT, SCHEMA_A,
};
use iwb_router::hash;
use iwb_router::router::RouterConfig;
use iwb_server::client::{Backoff, Client};
use iwb_server::fault::{FaultPlan, FaultSpec, MIGRATION_STALL, PROBE_TIMEOUT, SPLIT_ROUTING};
use iwb_server::server::{serve, ServerConfig};
use std::time::{Duration, Instant};

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn killed_backend_mid_command_fails_over_with_zero_session_loss() {
    iwb_server::quiet_injected_panics();
    let owner = hash::rank("victim", 3)[0];
    // Every command on the victim runs slow, so the kill lands while
    // the accept is mid-execution and its ack is provably lost.
    let slow = FaultSpec::parse("seed=11,exec-slow=1.0:250")
        .unwrap()
        .build();
    let (peers, _stores, mut backends) = spawn_fleet("kill", 3, |i| {
        if i == owner {
            slow.clone()
        } else {
            FaultPlan::none()
        }
    });
    let router = spawn_router(&peers, RouterConfig::default());

    // Control: the same script against a fault-free single daemon.
    let control_store = TempDir::new("kill-control");
    let control = serve(ServerConfig {
        store_dir: Some(control_store.0.clone()),
        ..ServerConfig::default()
    })
    .expect("bind control");
    let expected = {
        let mut c = Client::connect(control.addr()).unwrap();
        c.session_new(Some("victim")).unwrap();
        warm(&mut c);
        c.request(ACCEPT).unwrap().expect_ok().unwrap();
        observable_state(&mut c)
    };
    control.shutdown();
    control.join();

    // A bystander session owned by a *different* backend must ride
    // through the kill untouched.
    let bystander = (0..)
        .map(|i| format!("by{i}"))
        .find(|id| hash::rank(id, 3)[0] != owner)
        .unwrap();
    let mut by = Client::connect(router.addr()).unwrap();
    by.session_new(Some(&bystander)).unwrap();
    by.request_with_heredoc("load er a", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("victim")).unwrap();
    warm(&mut c);
    assert_eq!(
        router.fleet().routed_backend("victim"),
        Some(owner),
        "rendezvous placement must pick the top-ranked backend"
    );

    // Fire the mutating command, kill the owner mid-execution.
    let in_flight = std::thread::spawn(move || c.request(ACCEPT).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    backends[owner].take().unwrap().kill();

    let resp = in_flight.join().unwrap();
    assert!(
        resp.ok,
        "in-flight command must be acked exactly once through failover: {}",
        resp.body
    );
    assert!(router.stats().failovers_count() >= 1);
    let landed = router.fleet().routed_backend("victim").unwrap();
    assert_ne!(landed, owner, "route must flip off the killed backend");
    assert_eq!(
        landed,
        hash::rank("victim", 3)[1],
        "failover must promote the session's own second choice"
    );

    // Zero loss, byte-identical: the state promoted from the replica
    // matches the fault-free control run exactly.
    let mut c = Client::connect(router.addr()).unwrap();
    c.session_attach("victim").unwrap();
    assert_eq!(observable_state(&mut c), expected);

    // The bystander neither moved nor lost state.
    let mut by2 = Client::connect(router.addr()).unwrap();
    by2.session_attach(&bystander).unwrap();
    by2.request("show coverage").unwrap().expect_ok().unwrap();
    assert_ne!(router.fleet().routed_backend(&bystander), Some(owner));

    router.shutdown();
    router.join();
    stop_all(backends);
}

#[test]
fn split_routing_is_rejected_by_the_sequence_guard() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, backends) = spawn_fleet("split", 2, |_| FaultPlan::none());
    let owner = hash::rank("sp", 2)[0];
    let (owner_addr, other_addr) = (&peers[owner], &peers[1 - owner]);
    // The 6th mutating command (per-point index 5) is delivered to the
    // stale non-owner as well as the owner.
    let router = spawn_router(
        &peers,
        RouterConfig {
            faults: FaultSpec::seeded(7).at(SPLIT_ROUTING, &[5]).build(),
            ..RouterConfig::default()
        },
    );

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("sp")).unwrap();
    warm(&mut c); // mutating commands 0..3 → seq 3

    // Fork a stale copy: promote the non-owner's replica directly,
    // behind the router's back, frozen at seq 3.
    let mut stale = Client::connect(other_addr).unwrap();
    let body = stale
        .request("repl promote sp 3")
        .unwrap()
        .expect_ok()
        .unwrap();
    assert_eq!(body, "session sp promoted seq=3");

    // Two more mutations through the router (owner reaches seq 5),
    // then the diverted one (stamped @5; the stale replica expects 3).
    c.request(ACCEPT).unwrap().expect_ok().unwrap();
    c.request("match a b").unwrap().expect_ok().unwrap();
    let resp = c.request("match a b").unwrap();
    assert!(resp.ok, "pinned owner must still apply it: {}", resp.body);

    assert_eq!(router.stats().split_diverts_count(), 1);
    assert!(
        router.stats().seq_gap_rejections_count() >= 1,
        "the stale replica must refuse the diverted command with SEQ-GAP"
    );

    // Exactly-once: the owner applied all 6 mutations, the stale
    // replica applied none past its recovery point.
    let mut on_owner = Client::connect(owner_addr).unwrap();
    let body = on_owner.session_attach("sp").unwrap();
    assert!(body.ends_with("seq=6"), "owner watermark: {body}");
    let mut on_other = Client::connect(other_addr).unwrap();
    let body = on_other.session_attach("sp").unwrap();
    assert!(body.ends_with("seq=3"), "stale watermark: {body}");

    router.shutdown();
    router.join();
    stop_all(backends);
}

#[test]
fn probe_timeouts_quarantine_then_readmit_a_backend() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, backends) = spawn_fleet("probe", 1, |_| FaultPlan::none());
    // The first 10 probes are swallowed; everything after succeeds.
    let router = spawn_router(
        &peers,
        RouterConfig {
            probe_interval: Duration::from_millis(40),
            quarantine_after: 2,
            readmit_after: 2,
            retry: Backoff {
                attempts: 2,
                base: Duration::from_millis(10),
                max: Duration::from_millis(20),
                seed: 0x9,
                cap: None,
            },
            faults: FaultSpec::seeded(5)
                .at(PROBE_TIMEOUT, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
                .build(),
            ..RouterConfig::default()
        },
    );

    wait_until("quarantine", Duration::from_secs(5), || {
        !router.fleet().backend_healthy(0)
    });
    assert!(router.stats().quarantines_count() >= 1);

    // While the whole fleet is quarantined, placement sheds with a
    // retryable error — the client is told to come back, not failed.
    let mut c = Client::connect(router.addr()).unwrap();
    let resp = c.request("session new q1").unwrap();
    assert!(!resp.ok);
    let err = iwb_core::RetryableError::parse(&resp.body)
        .unwrap_or_else(|| panic!("shed must be structured/retryable: {}", resp.body));
    assert!(err.is_retryable());

    wait_until("re-admission", Duration::from_secs(5), || {
        router.fleet().backend_healthy(0)
    });
    assert!(router.stats().readmissions_count() >= 1);
    c.session_new(Some("q1")).unwrap();

    router.shutdown();
    router.join();
    stop_all(backends);
}

#[test]
fn planned_migration_stalls_answer_moved_and_reconnect_follows() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, backends) = spawn_fleet("migrate", 2, |_| FaultPlan::none());
    let owner = hash::rank("mig", 2)[0];
    // The first migration stalls 700ms between release and promote —
    // long enough that concurrent commands exhaust the route-lock
    // budget and answer MOVED.
    let router = spawn_router(
        &peers,
        RouterConfig {
            faults: FaultSpec::seeded(3)
                .at(MIGRATION_STALL, &[0])
                .millis(MIGRATION_STALL, 700)
                .build(),
            ..RouterConfig::default()
        },
    );

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("mig")).unwrap();
    warm(&mut c);
    c.request(ACCEPT).unwrap().expect_ok().unwrap();
    let before = observable_state(&mut c);

    let mut admin = Client::connect(router.addr()).unwrap();
    let migration = std::thread::spawn(move || admin.request("migrate mig").unwrap());
    std::thread::sleep(Duration::from_millis(150));

    // Mid-handshake: the command times out on the route lock and gets
    // a retryable MOVED, not a hang and not a wrong answer.
    let resp = c.request("export").unwrap();
    assert!(!resp.ok);
    assert!(
        resp.body.starts_with("MOVED"),
        "expected a MOVED refusal mid-migration, got: {}",
        resp.body
    );
    assert!(router.stats().moved_refusals_count() >= 1);

    // The client-side satellite: reconnect follows the hint with
    // backoff until the migration lands, then re-attaches idempotently.
    c.reconnect(&Backoff {
        attempts: 20,
        base: Duration::from_millis(50),
        max: Duration::from_millis(200),
        seed: 0x717,
        cap: None,
    })
    .unwrap();

    let resp = migration.join().unwrap();
    assert!(resp.ok, "migration must land: {}", resp.body);
    assert!(resp.body.contains("migrated"), "{}", resp.body);
    assert_eq!(router.stats().migrations_count(), 1);
    assert_eq!(
        router.fleet().routed_backend("mig"),
        Some(1 - owner),
        "the session must land on the other backend"
    );
    assert_eq!(
        observable_state(&mut c),
        before,
        "migration must preserve the session byte-for-byte"
    );

    router.shutdown();
    router.join();
    stop_all(backends);
}
