//! Cross-machine fleet chaos: router + `workbenchd` backends with
//! **per-backend store directories** — no shared disk anywhere.
//! Durability comes entirely from streamed journal replication
//! (`--repl-peers`), and failover from `repl promote` against the
//! successor's standby journal. Deterministic fault seeds throughout.
//!
//! Covered:
//!
//! * an iwb-eval curation replay routed through the fleet with the
//!   owning backend hard-killed mid-curation: per-round metrics are
//!   byte-identical to the in-process run, zero acked mutations lost;
//! * a replica held behind by `repl-disconnect`: promotion refuses
//!   with `STALE-REPLICA` — the fleet never serves silently-wrong
//!   state;
//! * the router-side `promote-stale` fault forcing the safety check
//!   down the refusal path deterministically, and the next attempt
//!   recovering from the (actually current) replica;
//! * planned draining (`migrate --all`) and router restart
//!   re-discovery: a fresh router rebuilds placement from the
//!   backends' books and does not re-drain already-moved sessions.

use iwb_eval::domains::{generate_case, DomainKnobs, FINANCE};
use iwb_eval::replay::{run_replay, ClientTransport, OracleConfig, ReplayOutcome, ShellTransport};
use iwb_eval::EvalCase;
mod common;

use common::{observable_state, spawn_fleet, spawn_router, stop_all, warm, ACCEPT};
use iwb_router::hash;
use iwb_router::router::RouterConfig;
use iwb_server::client::Client;
use iwb_server::fault::{FaultPlan, FaultSpec, PROMOTE_STALE};
use std::time::Duration;

fn small_case() -> EvalCase {
    let knobs = DomainKnobs {
        entities: 5,
        attrs_per_entity: 3.0,
        ..iwb_eval::default_knobs(&FINANCE)
    };
    generate_case(&FINANCE, &knobs, 90210)
}

/// Per-round tuples for bitwise comparison across transports.
fn round_bits(outcome: &ReplayOutcome) -> Vec<(usize, usize, usize, u64, u64)> {
    outcome
        .rounds
        .iter()
        .map(|r| {
            (
                r.accepted,
                r.rejected,
                r.noisy_accepts,
                r.metrics.f1().to_bits(),
                r.max_weight_delta.to_bits(),
            )
        })
        .collect()
}

#[test]
fn curation_replay_survives_a_mid_run_backend_kill_byte_identically() {
    iwb_server::quiet_injected_panics();
    let case = small_case();
    let cfg = OracleConfig {
        rounds: 3,
        noise: 0.1,
        ..OracleConfig::default()
    };

    // The in-process control run: ground truth for every round.
    let mut control = ShellTransport::new();
    let expected = run_replay(&mut control, &case, &cfg).expect("control replay");
    // trim_end: the wire protocol frames bodies line-wise, so the
    // client side never sees the shell's trailing newline.
    let expected_export = control
        .shell
        .execute("export", None)
        .expect("export")
        .trim_end()
        .to_owned();

    // Three backends, each with its own store; the owner of the
    // curation session runs every command slow so the kill provably
    // lands mid-curation.
    let owner = hash::rank("cur", 3)[0];
    let slow = FaultSpec::parse("seed=21,exec-slow=1.0:40")
        .unwrap()
        .build();
    let (peers, _stores, mut backends) = spawn_fleet("replay", 3, |i| {
        if i == owner {
            slow.clone()
        } else {
            FaultPlan::none()
        }
    });
    let router = spawn_router(&peers, RouterConfig::default());
    let router_addr = router.addr();

    let replay = std::thread::spawn(move || {
        let mut c = Client::connect(router_addr).unwrap();
        c.session_new(Some("cur")).unwrap();
        let outcome = run_replay(&mut ClientTransport(&mut c), &case, &cfg).expect("fleet replay");
        let export = c.request("export").unwrap().expect_ok().unwrap();
        (outcome, export.trim_end().to_owned())
    });

    // Kill the owner while the oracle is mid-session (~40ms per
    // command guarantees the replay is still far from done).
    std::thread::sleep(Duration::from_millis(500));
    backends[owner].take().unwrap().kill();

    let (outcome, export) = replay.join().unwrap();
    assert_eq!(
        round_bits(&outcome),
        round_bits(&expected),
        "per-round metrics must survive the failover bit for bit"
    );
    assert_eq!(outcome.rounds_to_plateau, expected.rounds_to_plateau);
    assert_eq!(
        outcome.weights, expected.weights,
        "voter weights must survive the failover"
    );
    assert_eq!(export, expected_export, "exported state diverged");

    assert!(router.stats().failovers_count() >= 1);
    assert!(
        router.stats().promotions_count() >= 1,
        "failover must promote from the streamed replica"
    );
    assert_eq!(router.stats().stale_replica_refusals_count(), 0);
    let landed = router.fleet().routed_backend("cur").unwrap();
    assert_ne!(landed, owner, "route must flip off the killed backend");

    router.shutdown();
    router.join();
    stop_all(backends);
}

#[test]
fn a_replica_held_behind_by_disconnects_refuses_promotion_as_stale() {
    iwb_server::quiet_injected_panics();
    let owner = hash::rank("st", 2)[0];
    // Every ship from the owner drops the stream before sending: the
    // successor's standby journal never receives a single record.
    let cut = FaultSpec::parse("seed=5,repl-disconnect=1.0")
        .unwrap()
        .build();
    let (peers, _stores, mut backends) = spawn_fleet("stale", 2, |i| {
        if i == owner {
            cut.clone()
        } else {
            FaultPlan::none()
        }
    });
    let router = spawn_router(&peers, RouterConfig::default());

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("st")).unwrap();
    warm(&mut c); // 3 acked mutations the replica never saw

    backends[owner].take().unwrap().kill();

    // The failover walk finds the successor, but its evidence is
    // provably behind the last acked mutation: the router surfaces the
    // refusal instead of serving an empty session as if it were real.
    let resp = c.request("export").unwrap();
    assert!(!resp.ok, "a stale promotion must not ack: {}", resp.body);
    assert!(
        resp.body.starts_with("STALE-REPLICA"),
        "expected the structured refusal, got: {}",
        resp.body
    );
    assert!(router.stats().stale_replica_refusals_count() >= 1);
    assert_eq!(
        router.stats().promotions_count(),
        0,
        "nothing may be promoted from a stale replica"
    );

    // Still refused on re-attach — the refusal is sticky, not racy.
    let mut again = Client::connect(router.addr()).unwrap();
    let resp = again.request("session attach st").unwrap();
    assert!(
        !resp.ok && resp.body.starts_with("STALE-REPLICA"),
        "{}",
        resp.body
    );

    router.shutdown();
    router.join();
    stop_all(backends);
}

#[test]
fn promote_stale_fault_forces_one_deterministic_refusal_then_recovers() {
    iwb_server::quiet_injected_panics();
    let owner = hash::rank("ps", 2)[0];
    let (peers, _stores, mut backends) = spawn_fleet("pstale", 2, |_| FaultPlan::none());
    // The router's *first* promotion safety check is forced down the
    // STALE-REPLICA path even though the replica is fully caught up.
    let router = spawn_router(
        &peers,
        RouterConfig {
            faults: FaultSpec::seeded(13).at(PROMOTE_STALE, &[0]).build(),
            ..RouterConfig::default()
        },
    );

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("ps")).unwrap();
    warm(&mut c);
    c.request(ACCEPT).unwrap().expect_ok().unwrap();
    let before = {
        let mut direct = Client::connect(router.addr()).unwrap();
        direct.session_attach("ps").unwrap();
        observable_state(&mut direct)
    };

    backends[owner].take().unwrap().kill();

    // First command after the kill: the injected check refuses.
    let resp = c.request("export").unwrap();
    assert!(
        !resp.ok && resp.body.starts_with("STALE-REPLICA"),
        "{}",
        resp.body
    );
    assert_eq!(router.stats().stale_replica_refusals_count(), 1);

    // The refusal is evidence-scoped, not terminal: the next attempt
    // re-runs the un-faulted check and promotes the current replica.
    let resp = c.request("export").unwrap();
    assert!(resp.ok, "recovery after the forced refusal: {}", resp.body);
    assert!(router.stats().promotions_count() >= 1);
    assert_eq!(
        observable_state(&mut c),
        before,
        "promoted state must match the pre-kill session byte for byte"
    );

    router.shutdown();
    router.join();
    stop_all(backends);
}

#[test]
fn drain_then_router_restart_rediscovers_placement_without_redraining() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, backends) = spawn_fleet("drain", 3, |_| FaultPlan::none());
    let router = spawn_router(
        &peers,
        RouterConfig {
            drain_interval: Duration::from_millis(1),
            ..RouterConfig::default()
        },
    );

    // Two sessions owned by backend 0 (the drain target) and one owned
    // elsewhere, found by scanning ids against the rendezvous ranking.
    let mut on_zero = Vec::new();
    let mut elsewhere = None;
    for i in 0.. {
        let id = format!("s{i}");
        if hash::rank(&id, 3)[0] == 0 {
            if on_zero.len() < 2 {
                on_zero.push(id);
            }
        } else if elsewhere.is_none() {
            elsewhere = Some(id);
        }
        if on_zero.len() == 2 && elsewhere.is_some() {
            break;
        }
    }
    let elsewhere = elsewhere.unwrap();

    let mut states = std::collections::HashMap::new();
    for id in on_zero.iter().chain([&elsewhere]) {
        let mut c = Client::connect(router.addr()).unwrap();
        c.session_new(Some(id)).unwrap();
        warm(&mut c);
        states.insert(id.clone(), observable_state(&mut c));
    }
    assert_eq!(router.fleet().routed_backend(&on_zero[0]), Some(0));

    // Planned drain: every session leaves backend 0, none is lost.
    let mut admin = Client::connect(router.addr()).unwrap();
    let resp = admin.request("migrate --all 0").unwrap();
    assert!(resp.ok, "drain must succeed: {}", resp.body);
    assert!(
        resp.body.contains("drained 2/2 session(s) from backend 0"),
        "{}",
        resp.body
    );
    assert_eq!(router.stats().drained_count(), 2);
    for id in &on_zero {
        assert_ne!(
            router.fleet().routed_backend(id),
            Some(0),
            "{id} not drained"
        );
    }
    let parked = router.fleet().routed_backend(&elsewhere);

    // The router "crashes" (no handoff of its placement map) and a
    // fresh one starts against the same fleet: re-discovery rebuilds
    // placement from the backends' own session books, so the drained
    // sessions are NOT re-placed onto their hash owner.
    router.shutdown();
    router.join();
    let restarted = spawn_router(
        &peers,
        RouterConfig {
            drain_interval: Duration::from_millis(1),
            ..RouterConfig::default()
        },
    );
    assert!(
        restarted.stats().rediscovered_count() >= 3,
        "restart must pin the live sessions it finds"
    );
    for id in &on_zero {
        assert_ne!(
            restarted.fleet().routed_backend(id),
            Some(0),
            "{id} must stay where the drain put it"
        );
    }
    assert_eq!(restarted.fleet().routed_backend(&elsewhere), parked);

    // Resumability: re-issuing the drain moves nothing — the already
    // drained sessions are recognized, not bounced a second time.
    let mut admin = Client::connect(restarted.addr()).unwrap();
    let resp = admin.request("migrate --all 0").unwrap();
    assert!(resp.ok, "{}", resp.body);
    assert!(
        resp.body.contains("drained 0/0 session(s) from backend 0"),
        "{}",
        resp.body
    );

    // Every session still serves its exact pre-drain state.
    for (id, before) in &states {
        let mut c = Client::connect(restarted.addr()).unwrap();
        c.session_attach(id).unwrap();
        assert_eq!(&observable_state(&mut c), before, "{id} state drifted");
    }

    restarted.shutdown();
    restarted.join();
    stop_all(backends);
}
