//! Sending commands: timed (client only) or traced (client, mirror
//! shell, and the library call behind the command).

use crate::stats::{classify, nearest_rank, Class, Recorder};
use crate::trace::Tracer;
use iwb_core::persist;
use iwb_core::shell::{mutates, Shell};
use iwb_core::tools::HarmonyTool;
use iwb_harmony::{Confidence, Feedback, HarmonyEngine, MatchResult};
use iwb_model::{ElementId, SchemaGraph, SchemaId};
use iwb_server::fault::FaultPlan;
use iwb_server::journal::{Journal, JournalConfig, JournalRecord};
use iwb_server::Client;
use iwb_store::{CommandRecord, SessionStore};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Background-snapshot cadence of `workbenchd --store` (its default),
/// which the traced run replays against `SessionStore`.
pub const SNAPSHOT_EVERY: u64 = 64;

/// Send one command, timing it into `rec` under its class.
pub fn send(
    rec: &mut Recorder,
    client: &mut Client,
    command: &str,
    heredoc: Option<&str>,
) -> Result<String, String> {
    let class = classify(command).ok_or_else(|| format!("unclassified command {command:?}"))?;
    let t = Instant::now();
    let resp = match heredoc {
        Some(body) => client.request_with_heredoc(command, body),
        None => client.request(command),
    };
    let elapsed = t.elapsed();
    match resp {
        Ok(r) => {
            rec.record(class, elapsed, r.ok, r.body.len());
            if r.ok {
                Ok(r.body)
            } else {
                Err(format!("{command:?} failed: {}", r.body))
            }
        }
        Err(e) => {
            rec.record(class, elapsed, false, 0);
            Err(format!("{command:?}: {e}"))
        }
    }
}

/// Open a session on `client` (timed as a set-up command).
pub fn session_new(
    rec: &mut Recorder,
    client: &mut Client,
    id: Option<&str>,
) -> Result<String, String> {
    let t = Instant::now();
    let r = client.session_new(id);
    rec.record(Class::Setup, t.elapsed(), r.is_ok(), 0);
    r.map_err(|e| format!("session new: {e}"))
}

/// Close the attached session (timed as a set-up command).
pub fn session_close(rec: &mut Recorder, client: &mut Client) -> Result<(), String> {
    send(rec, client, "session close", None).map(drop)
}

/// A Harmony engine driven exactly as the workbench's harmony tool
/// drives its own: locked cells and fresh feedback read from the
/// blackboard, `learn` against the previous result, then `run`.
#[derive(Default)]
pub struct LibHarmony {
    engine: HarmonyEngine,
    learned: HashSet<(String, String, String, String)>,
    last: HashMap<(String, String), MatchResult>,
    /// Runs, incremental runs, and dirty rows re-merged.
    pub runs: u64,
    pub incremental: u64,
    pub dirty_rows: u64,
}

/// Inputs of one `match`, captured before the mirror executes it.
pub struct Prepared {
    key: (String, String),
    src: SchemaGraph,
    tgt: SchemaGraph,
    locked: HashMap<(ElementId, ElementId), Confidence>,
    feedback: Vec<Feedback>,
}

impl LibHarmony {
    /// Capture a `match <src> <tgt>` command's inputs from `shell`.
    pub fn prepare(&mut self, shell: &Shell, src: &str, tgt: &str) -> Option<Prepared> {
        let bb = shell.manager().blackboard();
        let (sid, tid) = (SchemaId::new(src), SchemaId::new(tgt));
        let src_graph = bb.schema(&sid)?.clone();
        let tgt_graph = bb.schema(&tid)?.clone();
        let mut locked = HashMap::new();
        let mut feedback = Vec::new();
        if let Some(matrix) = bb.matrix(&sid, &tid) {
            for &row in matrix.rows() {
                for &col in matrix.cols() {
                    let cell = matrix.cell(row, col);
                    if cell.user_defined {
                        locked.insert((row, col), cell.confidence);
                        let key = (
                            src.to_owned(),
                            tgt.to_owned(),
                            src_graph.name_path(row),
                            tgt_graph.name_path(col),
                        );
                        if self.learned.insert(key) {
                            feedback.push(Feedback {
                                src: row,
                                tgt: col,
                                accepted: cell.confidence == Confidence::ACCEPT,
                            });
                        }
                    }
                }
            }
        }
        Some(Prepared {
            key: (src.to_owned(), tgt.to_owned()),
            src: src_graph,
            tgt: tgt_graph,
            locked,
            feedback,
        })
    }

    /// Learn from the fresh feedback, then run the engine.
    pub fn run(&mut self, p: Prepared) {
        if let Some(prev) = self.last.get(&p.key) {
            if !p.feedback.is_empty() {
                self.engine.learn(&p.src, &p.tgt, prev, &p.feedback);
            }
        }
        let result = self.engine.run(&p.src, &p.tgt, &p.locked);
        let report = self.engine.last_run();
        self.runs += 1;
        if report.incremental {
            self.incremental += 1;
            self.dirty_rows += report.dirty_rows as u64;
        }
        self.last.insert(p.key, result);
    }
}

/// One session's in-process mirror: the same commands run through a
/// `Shell`, a harmony engine, a journal, and periodic snapshots.
pub struct Mirror {
    id: String,
    /// The mirror shell.
    pub shell: Shell,
    /// The mirror's stand-alone Harmony engine.
    pub harmony: LibHarmony,
    journal: Journal,
    store_dir: PathBuf,
}

impl Mirror {
    /// A mirror for session `id`, journaling and snapshotting under
    /// `dir`.
    pub fn new(id: &str, dir: PathBuf) -> Result<Mirror, String> {
        let journal = Journal::create(&JournalConfig::new(dir.join("journal")), id)
            .map_err(|e| format!("mirror journal: {e}"))?;
        Ok(Mirror {
            id: id.to_owned(),
            shell: Shell::new(),
            harmony: LibHarmony::default(),
            journal,
            store_dir: dir.join("store"),
        })
    }

    /// Apply one command to the shell and the stand-alone engine
    /// without tracing (to bring a mirror up to a session's state).
    pub fn replay(&mut self, command: &str, heredoc: Option<&str>) -> Result<(), String> {
        let words: Vec<&str> = command.split_whitespace().collect();
        let prepared = match words.as_slice() {
            ["match", src, tgt] => self.harmony.prepare(&self.shell, src, tgt),
            _ => None,
        };
        self.shell
            .execute(command, heredoc)
            .map_err(|e| format!("mirror {command:?}: {e}"))?;
        if let Some(p) = prepared {
            self.harmony.run(p);
        }
        if mutates(command) {
            let record = JournalRecord {
                command: command.to_owned(),
                heredoc: heredoc.map(str::to_owned),
            };
            self.journal
                .append(record, &FaultPlan::none())
                .map_err(|e| format!("mirror journal append: {e}"))?;
        }
        Ok(())
    }

    /// Fail unless the stand-alone engine learned exactly what the
    /// mirror shell's harmony tool learned (so the harmony spans timed
    /// the same work).
    pub fn check_engine(&mut self) -> Result<(), String> {
        let lib = self.harmony.engine.reweight_state();
        let tool = self
            .shell
            .manager_mut()
            .tool_mut::<HarmonyTool>("harmony")
            .ok_or("mirror shell has no harmony tool")?
            .engine()
            .reweight_state();
        let bits = |w: &[(String, f64)]| -> Vec<(String, u64)> {
            w.iter().map(|(n, v)| (n.clone(), v.to_bits())).collect()
        };
        if bits(&lib) != bits(&tool) {
            return Err(format!(
                "session {}: stand-alone engine weights {lib:?} differ from the shell's {tool:?}",
                self.id
            ));
        }
        Ok(())
    }
}

/// Accumulated per-layer measurements of a traced run.
#[derive(Default)]
pub struct TraceCtx {
    /// The spans.
    pub tracer: Tracer,
    /// Client round trip minus mirror exec, per class (ms).
    pub wire_ms: BTreeMap<Class, Vec<f64>>,
    /// Mirror `Shell::execute`, per class (ms).
    pub exec_ms: BTreeMap<Class, Vec<f64>>,
    /// Mirror `proposals` executions (ms).
    pub proposals_ms: Vec<f64>,
    /// `Journal::append` with fsync (ms).
    pub journal_ms: Vec<f64>,
    /// Bytes appended to mirror journals.
    pub journal_bytes: u64,
    /// Most records one mirror journal held in memory when its session
    /// ended (the journal keeps a session's whole history).
    pub journal_resident: u64,
    /// Edits (`accept`/`reject`) sent.
    pub edits: u64,
    /// `SessionStore::commit` / `load` (ms) and snapshot sizes.
    pub snapshot_write_ms: Vec<f64>,
    pub snapshot_load_ms: Vec<f64>,
    pub snapshot_bytes: Vec<f64>,
    /// Router hop estimate charged to every routed request.
    pub router_hop: Option<Duration>,
    /// Stand-alone engine totals of retired mirrors: runs, incremental
    /// runs, dirty rows, text hits/misses, context hits/misses.
    pub harmony: [u64; 7],
}

impl TraceCtx {
    /// Send `command` to the daemon and replay it on `mirror` and on
    /// the library behind it, recording spans and layer samples.
    /// Read replies must match the mirror's output byte for byte.
    pub fn execute(
        &mut self,
        rec: &mut Recorder,
        client: &mut Client,
        mirror: &mut Mirror,
        command: &str,
        heredoc: Option<&str>,
    ) -> Result<String, String> {
        let class = classify(command).ok_or_else(|| format!("unclassified command {command:?}"))?;
        let words: Vec<&str> = command.split_whitespace().collect();
        let id = self.tracer.request();
        let t0 = Instant::now();
        let reply = send(rec, client, command, heredoc);
        let t1 = Instant::now();
        let req = self.tracer.record("request", "server", t0, t1, None, id);
        if let Some(hop) = self.router_hop {
            self.tracer
                .record_estimate("router.hop", "router", hop, req, id);
        }
        let reply = reply?;

        let prepared = match words.as_slice() {
            ["match", src, tgt] => Some(
                mirror
                    .harmony
                    .prepare(&mirror.shell, src, tgt)
                    .ok_or_else(|| format!("mirror cannot resolve {command:?}"))?,
            ),
            _ => None,
        };
        let t2 = Instant::now();
        let mirrored = mirror.shell.execute(command, heredoc);
        let t3 = Instant::now();
        let exec = self.tracer.record("exec", "core", t2, t3, Some(req), id);
        let mirrored = mirrored.map_err(|e| format!("mirror {command:?}: {e}"))?;
        // The wire framing carries body lines, not the final newline.
        if class == Class::Read && mirrored.trim_end_matches('\n') != reply {
            return Err(format!(
                "{command:?}: daemon reply differs from the in-process shell\n daemon: {reply:?}\n shell:  {mirrored:?}"
            ));
        }
        let exec_ms = (t3 - t2).as_secs_f64() * 1e3;
        self.exec_ms.entry(class).or_default().push(exec_ms);
        self.wire_ms
            .entry(class)
            .or_default()
            .push((t1 - t0).as_secs_f64() * 1e3 - exec_ms);
        if words.first() == Some(&"proposals") {
            self.proposals_ms.push(exec_ms);
        }

        if let Some(p) = prepared {
            let t = Instant::now();
            mirror.harmony.run(p);
            self.tracer
                .record("harmony.run", "harmony", t, Instant::now(), Some(exec), id);
        }
        if class == Class::Edit {
            self.edits += 1;
        }
        if mutates(command) {
            let record = JournalRecord {
                command: command.to_owned(),
                heredoc: heredoc.map(str::to_owned),
            };
            self.journal_bytes += (command.len() + heredoc.map_or(0, |h| h.len() + 1)) as u64;
            let t = Instant::now();
            mirror
                .journal
                .append(record, &FaultPlan::none())
                .map_err(|e| format!("mirror journal append: {e}"))?;
            let t_end = Instant::now();
            self.tracer
                .record("journal.append", "journal", t, t_end, Some(req), id);
            self.journal_ms.push((t_end - t).as_secs_f64() * 1e3);
            if (mirror.journal.len() as u64).is_multiple_of(SNAPSHOT_EVERY) {
                self.snapshot(mirror)?;
            }
        }
        Ok(reply)
    }

    /// Capture the mirror's state and write + read back a snapshot, as
    /// the daemon's background snapshotter does at its cadence.
    fn snapshot(&mut self, mirror: &mut Mirror) -> Result<(), String> {
        let watermark = mirror.journal.len() as u64;
        let commands = mirror
            .journal
            .records()
            .iter()
            .map(|r| CommandRecord {
                command: r.command.clone(),
                heredoc: r.heredoc.clone(),
            })
            .collect();
        let snap = persist::capture(&mut mirror.shell).into_snapshot(
            mirror.id.clone(),
            watermark,
            commands,
        );
        let store = SessionStore::new(&mirror.store_dir, mirror.id.clone());
        std::fs::create_dir_all(&mirror.store_dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        store
            .commit(&snap, &FaultPlan::none())
            .map_err(|e| format!("snapshot commit: {e}"))?;
        self.snapshot_write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let loaded = store.load().map_err(|e| format!("snapshot load: {e:?}"))?;
        self.snapshot_load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if loaded.map(|s| s.watermark) != Some(watermark) {
            return Err("snapshot read back a different watermark".into());
        }
        let bytes = std::fs::metadata(store.path())
            .map_err(|e| e.to_string())?
            .len();
        self.snapshot_bytes.push(bytes as f64);
        Ok(())
    }

    /// Finish a mirror session: engine check and journal accounting.
    pub fn retire(&mut self, mut mirror: Mirror) -> Result<(), String> {
        mirror.check_engine()?;
        let h = &mirror.harmony;
        let c = h.engine.cache_stats();
        let add = [
            h.runs,
            h.incremental,
            h.dirty_rows,
            c.text_hits,
            c.text_misses,
            c.context_hits,
            c.context_misses,
        ];
        for (acc, v) in self.harmony.iter_mut().zip(add) {
            *acc += v;
        }
        self.journal_resident = self.journal_resident.max(mirror.journal.len() as u64);
        mirror.journal.discard().map_err(|e| e.to_string())
    }

    /// Per-layer metrics gathered from the mirror and library spans.
    pub fn layer_metrics(&self, rec: &Recorder, out: &mut BTreeMap<String, f64>) {
        let p = |v: &[f64], q: f64| nearest_rank(v, q);
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let empty = Vec::new();
        for class in Class::TIMED {
            let name = class.name();
            let wire = self.wire_ms.get(&class).unwrap_or(&empty);
            let exec = self.exec_ms.get(&class).unwrap_or(&empty);
            out.insert(format!("server.wire_p50_ms.{name}"), p(wire, 0.5));
            out.insert(format!("core.exec_p50_ms.{name}"), p(exec, 0.5));
        }
        let reads = rec.samples(Class::Read).len().max(1) as f64;
        out.insert(
            "server.response_bytes.read".into(),
            rec.read_bytes as f64 / reads,
        );
        out.insert("core.proposals_p50_ms".into(), p(&self.proposals_ms, 0.5));
        out.insert("journal.append_p50_ms".into(), p(&self.journal_ms, 0.5));
        out.insert("journal.append_p99_ms".into(), p(&self.journal_ms, 0.99));
        let per_edit = |bytes: f64| {
            if self.edits == 0 {
                0.0
            } else {
                bytes / self.edits as f64
            }
        };
        out.insert(
            "journal.bytes_per_edit".into(),
            per_edit(self.journal_bytes as f64),
        );
        out.insert(
            "journal.records_resident".into(),
            self.journal_resident as f64,
        );
        out.insert(
            "store.snapshot_write_ms".into(),
            mean(&self.snapshot_write_ms),
        );
        out.insert(
            "store.snapshot_load_ms".into(),
            mean(&self.snapshot_load_ms),
        );
        out.insert("store.snapshot_bytes".into(), mean(&self.snapshot_bytes));
        let [runs, inc, dirty, th, tm, ch, cm] = self.harmony;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.insert("harmony.incremental_share".into(), ratio(inc, runs));
        out.insert("harmony.dirty_rows".into(), ratio(dirty, inc));
        out.insert("harmony.text_hit_rate".into(), ratio(th, th + tm));
        out.insert("harmony.context_hit_rate".into(), ratio(ch, ch + cm));
        self.tracer.share_metrics(out);
    }
}
