//! `fleet-edit`: writes beside reads on the durable, replicated path.
//!
//! One `workbench-router` in front of two `workbenchd` backends, each
//! with its own `--store` (fsync on) and `--repl-peers` naming both.
//! Two sessions on two connections, driven alternately from one
//! thread, with ids chosen by rendezvous rank so each backend owns one.
//! Per session, every cycle of 29 commands holds one `match`, then
//! reads and edits in the scripted oracle's pattern (`weights` after
//! the match, a `proposals … k 8` listing before each batch of eight
//! decisions): four reads and 24 edits cycling over the session's top
//! proposals with alternating verdicts.
//!
//! A pair of sessions lives for [`GEN_CYCLES`] cycles, then both close
//! and a fresh pair opens. The daemon's memory grows with every edit a
//! session holds (journal records, blackboard provenance), so a run of
//! unbounded sessions would report a peak RSS — and read costs — set by
//! how many edits the host managed in the run, not by the program.
//!
//! Checks, at the end of every generation: each session's `export` is
//! byte-identical to an in-process `Shell` replay of its acknowledged
//! mutations, every replication stream reports lag 0, and no command
//! fails.

use crate::mirror::{send, session_close, session_new, Mirror, TraceCtx};
use crate::procs::{disk_bytes, free_port, stop_all, Env, Program};
use crate::stages;
use crate::stats::{classify, nearest_rank, Class, Recorder};
use crate::Outcome;
use iwb_core::shell::{mutates, Shell};
use iwb_eval::domains::{default_knobs, generate_case, CLINICAL};
use iwb_eval::replay::parse_links;
use iwb_loaders::to_er_text;
use iwb_rng::StdRng;
use iwb_server::Client;
use iwb_store::rendezvous::rank;
use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

/// Decisions after each listing: the scripted oracle
/// (`iwb_eval::replay`) lists `proposals … k 8` and decides on each.
pub const BATCH: usize = 8;
/// Listings, each followed by a batch of decisions, per cycle.
pub const BATCHES: usize = 3;
/// Commands per session per cycle: `match`, `weights`, then
/// [`BATCHES`] × (one listing + [`BATCH`] decisions).
pub const CYCLE: usize = 2 + BATCHES * (1 + BATCH);
/// Top proposals each session's edits cycle over.
pub const TOP: usize = 16;
/// Generator seed of the schema pair. The pair is the same in every
/// run; the run's seed, with the generation and session, orders the
/// edits (see `open_sessions`). Daemon
/// memory differs from one generated pair to the next by up to 2×, which
/// would put the pair, not the program, into `peak_rss_mb`'s spread.
pub const PAIR_SEED: u64 = 1;
/// Cycles one pair of sessions lives for.
pub const GEN_CYCLES: usize = 48;
/// Cycles of the unmeasured warm-up generation.
pub const WARMUP_CYCLES: usize = 8;

/// The fixed command pattern: position in the cycle → command. The
/// reads follow the scripted oracle's round: `weights` after the match,
/// and a listing before each batch of decisions.
fn step_command(pos: usize, edit: usize, src: &str, tgt: &str, top: &[(String, String)]) -> String {
    match pos {
        0 => format!("match {src} {tgt}"),
        1 => "weights".to_owned(),
        p if (p - 2) % (1 + BATCH) == 0 => format!("proposals {src} {tgt} k {BATCH}"),
        _ => {
            let (a, b) = &top[edit % top.len()];
            let verb = if (edit / top.len()).is_multiple_of(2) {
                "accept"
            } else {
                "reject"
            };
            format!("{verb} {src} {tgt} {a} {b}")
        }
    }
}

struct Workload {
    seed: u64,
    /// Elements of the source and target schema.
    sizes: (usize, usize),
    src: String,
    tgt: String,
    src_text: String,
    tgt_text: String,
}

impl Workload {
    fn new(seed: u64) -> Workload {
        // Small enough that Harmony stays well under a tenth of the
        // traced wall time.
        let knobs = iwb_eval::domains::DomainKnobs {
            entities: 5,
            attrs_per_entity: 3.0,
            ..default_knobs(&CLINICAL)
        };
        let case = generate_case(&CLINICAL, &knobs, PAIR_SEED);
        Workload {
            seed,
            sizes: (case.pair.source.len(), case.pair.target.len()),
            src: case.pair.source.id().as_str().to_owned(),
            tgt: case.pair.target.id().as_str().to_owned(),
            src_text: to_er_text(&case.pair.source),
            tgt_text: to_er_text(&case.pair.target),
        }
    }

    /// Session ids of generation `gen`, by rendezvous rank: backend 0
    /// owns the first, backend 1 the second.
    fn ids(&self, gen: usize) -> [String; 2] {
        let mut ids = [String::new(), String::new()];
        for n in 0.. {
            let id = format!("fleet-{}-{gen}-{n}", self.seed);
            let owner = rank(&id, 2)[0];
            if ids[owner].is_empty() {
                ids[owner] = id;
            }
            if ids.iter().all(|i| !i.is_empty()) {
                break;
            }
        }
        ids
    }

    fn setup_commands(&self) -> Vec<(String, Option<&str>)> {
        vec![
            (
                format!("load er {}", self.src),
                Some(self.src_text.as_str()),
            ),
            (
                format!("load er {}", self.tgt),
                Some(self.tgt_text.as_str()),
            ),
            ("match-config threads 1".to_owned(), None),
            (format!("match {} {}", self.src, self.tgt), None),
        ]
    }
}

struct Fleet {
    backends: Vec<Program>,
    router: Program,
    stores: Vec<std::path::PathBuf>,
}

impl Fleet {
    fn start(env: &Env, rep: usize) -> Result<Fleet, String> {
        let e = |e: std::io::Error| e.to_string();
        let peers: Vec<String> = (0..2)
            .map(|_| free_port().map(|p| format!("127.0.0.1:{p}")))
            .collect::<Result<_, _>>()
            .map_err(e)?;
        let mut backends = Vec::new();
        let mut stores = Vec::new();
        for (i, addr) in peers.iter().enumerate() {
            let store = env.dir(&format!("store{rep}-b{i}")).map_err(e)?;
            let flags = vec![
                "--store".into(),
                store.display().to_string(),
                "--no-recover".into(),
                "--repl-peers".into(),
                peers.join(","),
                "--repl-self".into(),
                i.to_string(),
            ];
            backends.push(
                env.workbenchd(&format!("backend{i}"), addr, &flags)
                    .map_err(e)?,
            );
            stores.push(store);
        }
        let router = env.router(&peers).map_err(e)?;
        Ok(Fleet {
            backends,
            router,
            stores,
        })
    }

    fn stop(self) -> Result<(), String> {
        let mut all = vec![self.router];
        all.extend(self.backends);
        stop_all(all).map_err(|e| e.to_string())
    }

    /// Replication lag of every source stream on every backend.
    fn lags(&self) -> Result<Vec<u64>, String> {
        let mut lags = Vec::new();
        for b in &self.backends {
            let mut c = Client::connect(b.addr()).map_err(|e| e.to_string())?;
            let body = c
                .request("repl status")
                .and_then(|r| r.expect_ok())
                .map_err(|e| format!("repl status: {e}"))?;
            for line in body.lines().filter(|l| l.starts_with("source ")) {
                if let Some(lag) = line
                    .split_whitespace()
                    .find_map(|f| f.strip_prefix("lag="))
                    .and_then(|v| v.parse().ok())
                {
                    lags.push(lag);
                }
            }
        }
        Ok(lags)
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// The traced run's extra connections and mirror for one session.
struct Side {
    /// Attached straight to the owning backend.
    direct: Client,
    /// Attached to the control backend (no router, no replication).
    control: Client,
    mirror: Mirror,
}

/// One session's driver state.
struct Sess {
    id: String,
    client: Client,
    pos: usize,
    edits: usize,
    top: Vec<(String, String)>,
    /// Acknowledged mutations, in order (the replay for the check).
    acked: Vec<(String, Option<String>)>,
    side: Option<Side>,
}

/// Open generation `gen`'s two sessions through the router and run
/// their set-up.
fn open_sessions(
    w: &Workload,
    gen: usize,
    router: &str,
    rec: &mut Recorder,
) -> Result<Vec<Sess>, String> {
    let mut out = Vec::new();
    for (i, id) in w.ids(gen).into_iter().enumerate() {
        let mut client = Client::connect(router).map_err(|e| e.to_string())?;
        session_new(rec, &mut client, Some(&id))?;
        let mut acked = Vec::new();
        for (command, heredoc) in w.setup_commands() {
            send(rec, &mut client, &command, heredoc)?;
            acked.push((command, heredoc.map(str::to_owned)));
        }
        let listing = send(
            rec,
            &mut client,
            &format!("proposals {} {} k {TOP}", w.src, w.tgt),
            None,
        )?;
        let mut top: Vec<(String, String)> = parse_links(&listing)?
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect();
        // Each session edits the cells in its own order.
        shuffle(&mut top, w.seed ^ ((((gen as u64) << 8) | i as u64) << 32));
        if top.is_empty() {
            return Err("fleet-edit: the schema pair yields no proposals".into());
        }
        out.push(Sess {
            id,
            client,
            pos: 1,
            edits: 0,
            top,
            acked,
            side: None,
        });
    }
    Ok(out)
}

/// Accumulators of the traced run.
struct Traced<'a> {
    ctx: TraceCtx,
    /// Mutations replayed on the control backend.
    control: Recorder,
    control_addr: &'a str,
    env: &'a Env,
    lag_samples: Vec<f64>,
}

impl Sess {
    /// The session's next command; advances its position.
    fn next_command(&mut self, w: &Workload) -> String {
        let pos = self.pos % CYCLE;
        let command = step_command(pos, self.edits, &w.src, &w.tgt, &self.top);
        if classify(&command) == Some(Class::Edit) {
            self.edits += 1;
        }
        self.pos += 1;
        command
    }

    fn step(
        &mut self,
        w: &Workload,
        rec: &mut Recorder,
        traced: Option<&mut Traced>,
    ) -> Result<(), String> {
        let command = self.next_command(w);
        match (traced, self.side.as_mut()) {
            (Some(t), Some(side)) => {
                t.ctx
                    .execute(rec, &mut self.client, &mut side.mirror, &command, None)?;
                if mutates(&command) {
                    send(&mut t.control, &mut side.control, &command, None)?;
                }
            }
            _ => {
                send(rec, &mut self.client, &command, None)?;
            }
        }
        if mutates(&command) {
            self.acked.push((command, None));
        }
        Ok(())
    }

    /// Traced run: attach the direct and control connections and bring
    /// a mirror up to the session's state.
    fn attach_side(&mut self, owner: &str, t: &mut Traced) -> Result<(), String> {
        let e = |e: std::io::Error| e.to_string();
        let mut scratch = Recorder::default();
        let mut direct = Client::connect(owner).map_err(e)?;
        send(
            &mut scratch,
            &mut direct,
            &format!("session attach {}", self.id),
            None,
        )?;
        let mut control = Client::connect(t.control_addr).map_err(e)?;
        session_new(&mut scratch, &mut control, Some(&self.id))?;
        let dir = t.env.dir(&format!("mirror-{}", self.id)).map_err(e)?;
        let mut mirror = Mirror::new(&self.id, dir)?;
        for (command, heredoc) in &self.acked {
            send(&mut scratch, &mut control, command, heredoc.as_deref())?;
            mirror.replay(command, heredoc.as_deref())?;
        }
        self.side = Some(Side {
            direct,
            control,
            mirror,
        });
        Ok(())
    }
}

/// End-of-generation checks: each export equals an in-process replay
/// of the session's acked mutations; replication lag drains to 0.
fn check(fleet: &Fleet, sessions: &mut [Sess]) -> Result<(), String> {
    let mut scratch = Recorder::default();
    for s in sessions.iter_mut() {
        let exported = send(&mut scratch, &mut s.client, "export", None)?;
        let mut shell = Shell::new();
        for (command, heredoc) in &s.acked {
            shell
                .execute(command, heredoc.as_deref())
                .map_err(|e| format!("in-process replay of {command:?}: {e}"))?;
        }
        let expected = shell.execute("export", None).map_err(|e| e.to_string())?;
        // The wire framing carries body lines, not the final newline.
        if exported != expected.trim_end_matches('\n') {
            return Err(format!(
                "session {}: export differs from the in-process replay of its {} acked mutations",
                s.id,
                s.acked.len()
            ));
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let lags = fleet.lags()?;
        if lags.len() == 2 && lags.iter().all(|&l| l == 0) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("replication lag did not drain to 0: {lags:?}"));
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// Close a generation's sessions (and, traced, retire their mirrors).
fn close(
    sessions: Vec<Sess>,
    rec: &mut Recorder,
    mut traced: Option<&mut Traced>,
) -> Result<(), String> {
    for mut s in sessions {
        session_close(rec, &mut s.client)?;
        if let (Some(t), Some(mut side)) = (traced.as_deref_mut(), s.side.take()) {
            session_close(&mut Recorder::default(), &mut side.control)?;
            t.ctx.retire(side.mirror)?;
        }
    }
    Ok(())
}

/// One generation: open, `cycles` cycles, check, close. Returns the
/// time spent in the check (not part of the measured loop).
fn generation(
    w: &Workload,
    gen: usize,
    cycles: usize,
    fleet: &Fleet,
    rec: &mut Recorder,
    mut traced: Option<&mut Traced>,
) -> Result<Duration, String> {
    let mut sessions = open_sessions(w, gen, fleet.router.addr(), rec)?;
    if let Some(t) = traced.as_deref_mut() {
        for (i, s) in sessions.iter_mut().enumerate() {
            s.attach_side(fleet.backends[i].addr(), t)?;
        }
        if t.ctx.router_hop.is_none() {
            t.ctx.router_hop = Some(router_hop(w, &mut sessions)?);
        }
    }
    for step in 0..cycles * CYCLE {
        for s in sessions.iter_mut() {
            s.step(w, rec, traced.as_deref_mut())?;
        }
        if let Some(t) = traced.as_deref_mut() {
            if step % 16 == 15 {
                t.lag_samples
                    .extend(fleet.lags()?.into_iter().map(|l| l as f64));
            }
        }
    }
    let t = Instant::now();
    check(fleet, &mut sessions)?;
    let checked = t.elapsed();
    close(sessions, rec, traced)?;
    Ok(checked)
}

/// Router hop: the same reads sent via the router and straight to the
/// owning backend (replies must agree); the median difference.
fn router_hop(w: &Workload, sessions: &mut [Sess]) -> Result<Duration, String> {
    let mut scratch = Recorder::default();
    let mut hop_ms = Vec::new();
    for n in 0..200 {
        let s = &mut sessions[n % 2];
        let side = s.side.as_mut().expect("traced sessions have a side");
        let command = if n % 4 < 2 {
            "weights".to_owned()
        } else {
            format!("proposals {} {} k 8", w.src, w.tgt)
        };
        let t = Instant::now();
        let via = send(&mut scratch, &mut s.client, &command, None)?;
        let via_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let straight = send(&mut scratch, &mut side.direct, &command, None)?;
        let direct_ms = t.elapsed().as_secs_f64() * 1e3;
        if via != straight {
            return Err(format!("{command:?}: router and backend replies differ"));
        }
        hop_ms.push(via_ms - direct_ms);
    }
    Ok(Duration::from_secs_f64(
        nearest_rank(&hop_ms, 0.5).max(0.0) / 1e3,
    ))
}

/// Run the workload for `seconds` of measured time (whole
/// generations; end-of-generation checks are not measured).
pub fn run(env: &Env, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let w = Workload::new(seed);
    let mut out = Outcome::default();
    let mut live = None;
    for rep in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        let fleet = Fleet::start(env, rep)?;
        generation(&w, 0, WARMUP_CYCLES, &fleet, &mut Recorder::default(), None)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < crate::SETUP_REPEATS {
            fleet.stop()?;
        } else {
            live = Some(fleet);
        }
    }
    let fleet = live.expect("at least one set-up");

    let control_store = env.dir("control").map_err(|e| e.to_string())?;
    let control = if trace {
        Some(
            env.workbenchd(
                "control",
                "127.0.0.1:0",
                &["--store".into(), control_store.display().to_string()],
            )
            .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let mut traced = control.as_ref().map(|c| Traced {
        ctx: TraceCtx::default(),
        control: Recorder::default(),
        control_addr: c.addr(),
        env,
        lag_samples: Vec::new(),
    });

    out.traced = trace;
    let mut gens = 0;
    while !out.done(seconds) {
        gens += 1;
        let mut rec = Recorder::default();
        let t = Instant::now();
        let checked = generation(&w, gens, GEN_CYCLES, &fleet, &mut rec, traced.as_mut())?;
        out.unit((t.elapsed() - checked).as_secs_f64(), rec);
        let programs: Vec<&Program> = std::iter::once(&fleet.router)
            .chain(&fleet.backends)
            .collect();
        out.sample_rss(&programs)?;
    }
    out.notes.push(format!(
        "generations={gens} pair={}x{}",
        w.sizes.0, w.sizes.1
    ));

    if let Some(t) = traced {
        let (layers, ctx) = layer_metrics(t, &w, &fleet, &out.rec)?;
        out.layers = layers;
        out.tracer = Some(ctx);
    }
    if let Some(c) = control {
        c.stop().map_err(|e| e.to_string())?;
    }
    fleet.stop()?;
    Ok(out)
}

/// The traced run's per-layer metrics, and its spans.
fn layer_metrics(
    t: Traced,
    w: &Workload,
    fleet: &Fleet,
    rec: &Recorder,
) -> Result<(BTreeMap<String, f64>, TraceCtx), String> {
    let Traced {
        ctx,
        control,
        lag_samples,
        ..
    } = t;
    let mut m = BTreeMap::new();
    ctx.layer_metrics(rec, &mut m);
    let hop = ctx.router_hop.unwrap_or_default().as_secs_f64() * 1e3;
    let edit_p50 = |r: &Recorder| nearest_rank(&r.samples(Class::Edit), 0.5);
    m.insert("router.hop_p50_ms".into(), hop);
    m.insert(
        "repl.ship_p50_ms".into(),
        edit_p50(rec) - hop - edit_p50(&control),
    );
    m.insert(
        "repl.lag_p99_records".into(),
        nearest_rank(&lag_samples, 0.99),
    );
    m.insert(
        "repl.lag_max_records".into(),
        lag_samples.iter().copied().fold(0.0, f64::max),
    );
    let disk: u64 = fleet.stores.iter().map(|d| disk_bytes(d)).sum();
    m.insert(
        "store.disk_bytes_per_edit".into(),
        disk as f64 / ctx.edits.max(1) as f64,
    );
    let mut rc = Client::connect(fleet.router.addr()).map_err(|e| e.to_string())?;
    let stats = rc
        .request("stats")
        .and_then(|r| r.expect_ok())
        .map_err(|e| format!("router stats: {e}"))?;
    for (key, metric) in [
        ("duplicate_acks", "router.duplicate_acks"),
        ("seq_gap_rejections", "router.seq_gap_rejections"),
        ("failovers", "router.failovers"),
    ] {
        let v = stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix(&format!("{key}=")).map(str::to_owned))
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("router stats has no {key}"))?;
        m.insert(metric.into(), v);
    }

    let texts = vec![
        (w.src.clone(), w.src_text.clone()),
        (w.tgt.clone(), w.tgt_text.clone()),
    ];
    let (graphs, parse_ms) = crate::curation::parse_er(&texts)?;
    m.insert("loaders.er_parse_ms".into(), parse_ms);
    stages::measure(&[(graphs[0].clone(), graphs[1].clone())], 3)?.metrics(1, &mut m);
    Ok((m, ctx))
}
