//! `curation`: the wait an engineer feels in the match → accept/reject
//! → re-match loop (§4.3).
//!
//! One `workbenchd --store` (fsync on, default snapshot cadence). Each
//! pass replays the scripted oracle (`iwb_eval::replay::run_replay`)
//! over TCP in a fresh session for each case, with `match-config
//! threads 1`, then closes the session. The cases are the four
//! `standard_suite` domains of [`SUITE_SEED`], the same in every run:
//! engine cost differs from one generated pair to the next by more
//! than host noise, which would put the pairs, not the program, into
//! the run-to-run spread. The run's seed orders the cases within a
//! pass.
//! Every pass's per-round F1 curve and final weights must be
//! bit-identical to an in-process `ShellTransport` replay.

use crate::fleet::shuffle;
use crate::mirror::{send, session_close, session_new, Mirror, TraceCtx};
use crate::procs::{disk_bytes, Env};
use crate::stages;
use crate::stats::{median, Recorder};
use crate::Outcome;
use iwb_eval::domains::{standard_suite, EvalCase};
use iwb_eval::replay::{run_replay, OracleConfig, ReplayOutcome, ReplayTransport, ShellTransport};
use iwb_loaders::{to_er_text, ErLoader, SchemaLoader};
use iwb_model::SchemaGraph;
use iwb_server::Client;
use std::collections::BTreeMap;
use std::time::Instant;

/// Bit pattern of a replay: per-round F1 and final weights.
type Fingerprint = (Vec<u64>, Vec<(String, u64)>);

fn fingerprint(o: &ReplayOutcome) -> Fingerprint {
    (
        o.f1_curve().iter().map(|f| f.to_bits()).collect(),
        o.weights
            .iter()
            .map(|(n, w)| (n.clone(), w.to_bits()))
            .collect(),
    )
}

struct Timed<'a> {
    client: &'a mut Client,
    rec: &'a mut Recorder,
}

impl ReplayTransport for Timed<'_> {
    fn execute(&mut self, command: &str, heredoc: Option<&str>) -> Result<String, String> {
        send(self.rec, self.client, command, heredoc)
    }
}

struct Traced<'a> {
    ctx: &'a mut TraceCtx,
    rec: &'a mut Recorder,
    client: &'a mut Client,
    mirror: &'a mut Mirror,
}

impl ReplayTransport for Traced<'_> {
    fn execute(&mut self, command: &str, heredoc: Option<&str>) -> Result<String, String> {
        self.ctx
            .execute(self.rec, self.client, self.mirror, command, heredoc)
    }
}

/// `standard_suite` seed of the cases.
pub const SUITE_SEED: u64 = 1;

struct Workload {
    cases: Vec<EvalCase>,
    /// The order in which a pass replays the cases.
    order: Vec<usize>,
    oracle: OracleConfig,
    reference: Vec<Fingerprint>,
}

impl Workload {
    fn new(seed: u64) -> Result<Workload, String> {
        let cases: Vec<EvalCase> = standard_suite(SUITE_SEED);
        let mut order: Vec<usize> = (0..cases.len()).collect();
        shuffle(&mut order, seed);
        let oracle = OracleConfig::default();
        let reference = cases
            .iter()
            .map(|case| {
                let mut t = ShellTransport::new();
                t.execute("match-config threads 1", None)?;
                run_replay(&mut t, case, &oracle).map(|o| fingerprint(&o))
            })
            .collect::<Result<_, String>>()?;
        Ok(Workload {
            cases,
            order,
            oracle,
            reference,
        })
    }

    fn check(&self, i: usize, outcome: &ReplayOutcome) -> Result<(), String> {
        if fingerprint(outcome) != self.reference[i] {
            return Err(format!(
                "curation {}: F1 curve / weights differ from the in-process replay",
                self.cases[i].domain
            ));
        }
        Ok(())
    }

    /// Replay case `i` over `t` and check the outcome.
    fn replay<T: ReplayTransport>(&self, i: usize, mut t: T) -> Result<(), String> {
        t.execute("match-config threads 1", None)?;
        let outcome = run_replay(&mut t, &self.cases[i], &self.oracle)?;
        self.check(i, &outcome)
    }

    /// One pass over the cases `cases`.
    fn pass(&self, client: &mut Client, rec: &mut Recorder, cases: &[usize]) -> Result<(), String> {
        for &i in cases {
            session_new(rec, client, None)?;
            self.replay(
                i,
                Timed {
                    client: &mut *client,
                    rec: &mut *rec,
                },
            )?;
            session_close(rec, client)?;
        }
        Ok(())
    }

    /// One traced pass: every command also runs on a mirror.
    fn traced_pass(
        &self,
        ctx: &mut TraceCtx,
        client: &mut Client,
        rec: &mut Recorder,
        env: &Env,
        pass: usize,
    ) -> Result<(), String> {
        for &i in &self.order {
            let id = session_new(rec, client, None)?;
            let id = id.split_whitespace().last().unwrap_or("s").to_owned();
            let dir = env
                .dir(&format!("mirror-{pass}-{i}"))
                .map_err(|e| e.to_string())?;
            let mut mirror = Mirror::new(&id, dir)?;
            self.replay(
                i,
                Traced {
                    ctx: &mut *ctx,
                    rec: &mut *rec,
                    client: &mut *client,
                    mirror: &mut mirror,
                },
            )?;
            ctx.retire(mirror)?;
            session_close(rec, client)?;
        }
        Ok(())
    }
}

/// Run the workload for `seconds` (whole passes).
pub fn run(env: &Env, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let w = Workload::new(seed)?;
    let mut out = Outcome::default();
    let mut live = None;
    for rep in 0..crate::SETUP_REPEATS {
        let store = env.dir(&format!("store{rep}")).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let daemon = env
            .workbenchd(
                "backend0",
                "127.0.0.1:0",
                &["--store".into(), store.display().to_string()],
            )
            .map_err(|e| e.to_string())?;
        let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
        // Warm-up: one unmeasured pass.
        w.pass(&mut client, &mut Recorder::default(), &w.order)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < crate::SETUP_REPEATS {
            drop(client);
            daemon.stop().map_err(|e| e.to_string())?;
        } else {
            live = Some((daemon, client, store));
        }
    }
    let (daemon, mut client, store) = live.expect("at least one set-up");

    let mut ctx = TraceCtx::default();
    out.traced = trace;
    let mut passes = 0;
    while !out.done(seconds) {
        let mut rec = Recorder::default();
        let t = Instant::now();
        if trace {
            w.traced_pass(&mut ctx, &mut client, &mut rec, env, passes)?;
        } else {
            w.pass(&mut client, &mut rec, &w.order)?;
        }
        out.unit(t.elapsed().as_secs_f64(), rec);
        out.sample_rss(&[&daemon])?;
        passes += 1;
    }
    out.notes
        .push(format!("passes={passes} cases={}", w.cases.len()));

    if trace {
        let m = &mut out.layers;
        ctx.layer_metrics(&out.rec, m);
        let edits = ctx.edits.max(1) as f64;
        m.insert(
            "store.disk_bytes_per_edit".into(),
            disk_bytes(&store) as f64 / edits,
        );
        harmony_metrics(&w.cases, m)?;
        crate::registry::blocking_metrics(seed, m)?;
        out.tracer = Some(ctx);
    }
    drop(client);
    daemon.stop().map_err(|e| e.to_string())?;
    Ok(out)
}

/// Parse the cases' schemas as the daemon does (ER text), then time
/// the harmony stages on each pair.
fn harmony_metrics(cases: &[EvalCase], m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let texts: Vec<_> = cases
        .iter()
        .flat_map(|c| [&c.pair.source, &c.pair.target])
        .map(|g| (g.id().as_str().to_owned(), to_er_text(g)))
        .collect();
    let (graphs, parse_ms) = parse_er(&texts)?;
    m.insert("loaders.er_parse_ms".into(), parse_ms);
    let pairs: Vec<_> = graphs
        .chunks(2)
        .map(|p| (p[0].clone(), p[1].clone()))
        .collect();
    stages::measure(&pairs, 3)?.metrics(pairs.len(), m);
    Ok(())
}

/// Parse `(id, ER text)` schemas as `load er` does
/// (`ErLoader::load_validated`); the median of three
/// timed parses of the whole set, in ms.
pub fn parse_er(texts: &[(String, String)]) -> Result<(Vec<SchemaGraph>, f64), String> {
    let mut parse_ms = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        graphs = texts
            .iter()
            .map(|(id, text)| ErLoader.load_validated(text, id).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((graphs, median(&parse_ms)))
}
