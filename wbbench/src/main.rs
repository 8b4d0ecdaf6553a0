//! `wbbench` — end-to-end and per-layer benchmark of the workbench.
//!
//! ```sh
//! bash wbbench/run.sh --workload curation --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Starts the programs under test (`workbenchd`, `workbench-router`) as
//! their own processes, drives one named workload from this single
//! closed-loop process (one thread, at most two connections), checks
//! the programs' outputs, and prints one JSON object as the last line
//! of stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! replays the same seeded stream with spans around the client
//! request, an in-process mirror `Shell`, and the library call behind
//! each command, and reports per-layer metrics. A failed output check
//! exits non-zero and reports no numbers. See `wbbench/README.md`.

mod curation;
mod fleet;
mod mirror;
mod probe;
mod procs;
mod registry;
mod stages;
mod stats;
mod trace;

use mirror::TraceCtx;
use procs::Env;
use stats::{median, Class, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 2] = ["curation", "fleet-edit"];

/// End-to-end metrics (`--trace 0`), with units. The read p90 and the
/// match and edit percentiles are on the `detail` line only: over sets
/// of ten runs on a shared 2-vCPU VM the read p90 spread past the bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cmd_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Programs whose peak RSS is reported per process.
const PROCESSES: [&str; 3] = ["backend0", "backend1", "router"];

/// Per-layer metric names (`--trace 1`) with units. Every workload
/// reports every name; a layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_owned(), u));
    add("router.hop_p50_ms", "ms");
    add("router.duplicate_acks", "count");
    add("router.seq_gap_rejections", "count");
    add("router.failovers", "count");
    for c in Class::TIMED {
        add(&format!("server.wire_p50_ms.{}", c.name()), "ms");
    }
    add("server.response_bytes.read", "bytes");
    add("journal.append_p50_ms", "ms");
    add("journal.append_p99_ms", "ms");
    add("journal.bytes_per_edit", "bytes");
    add("journal.records_resident", "count");
    add("repl.ship_p50_ms", "ms");
    add("repl.lag_p99_records", "count");
    add("repl.lag_max_records", "count");
    add("store.snapshot_write_ms", "ms");
    add("store.snapshot_load_ms", "ms");
    add("store.snapshot_bytes", "bytes");
    add("store.disk_bytes_per_edit", "bytes");
    for c in Class::TIMED {
        add(&format!("core.exec_p50_ms.{}", c.name()), "ms");
    }
    add("core.proposals_p50_ms", "ms");
    add("harmony.run_ms", "ms");
    add("harmony.context_ms", "ms");
    for voter in stages::voter_names() {
        add(&format!("harmony.voter.{voter}_ms"), "ms");
    }
    add("harmony.merge_ms", "ms");
    add("harmony.flood_ms", "ms");
    add("harmony.flood_iterations", "count");
    add("harmony.cells_per_s", "1/s");
    add("harmony.incremental_share", "ratio");
    add("harmony.dirty_rows", "count");
    add("harmony.text_hit_rate", "ratio");
    add("harmony.context_hit_rate", "ratio");
    add("harmony.stage_residual", "ratio");
    add("blocking.build_ms", "ms");
    add("blocking.query_p50_ms", "ms");
    add("blocking.query_p90_ms", "ms");
    add("registry.generate_ms", "ms");
    add("loaders.er_parse_ms", "ms");
    for p in PROCESSES {
        add(&format!("process.peak_rss_mb.{p}"), "MiB");
    }
    for layer in trace::LAYERS {
        add(&format!("trace.layer_share.{layer}"), "ratio");
    }
    add("trace.overhead_frac", "ratio");
    v
}

/// One reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// Units of work after which a run samples peak RSS: the programs'
/// memory grows with the work they have done, so a sample taken after
/// a fixed amount of work does not depend on the host's speed.
pub const RSS_AFTER_UNITS: usize = 3;

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up (spawn → first measured command).
    pub setup_s: Vec<f64>,
    /// Commands of the measured loop.
    pub rec: Recorder,
    /// The measured loop cut into units of identical work (a curation
    /// pass, a fleet generation):
    /// wall time and commands of each.
    pub units: Vec<(f64, Recorder)>,
    /// Peak RSS per program process (MiB).
    pub rss: Vec<(String, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// The traced run's spans.
    pub tracer: Option<TraceCtx>,
    /// Free-form `key=value` facts for the detail line.
    pub notes: Vec<String>,
    /// A traced run (one unit suffices; RSS is sampled at the end).
    pub traced: bool,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: wbbench --bin-dir DIR --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.bin_dir.as_os_str().is_empty() {
        usage();
    }
    args
}

fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

/// The result line: every metric of the run, checks passed.
fn print_result(rec: &Recorder, metrics: &[Metric]) -> Result<(), String> {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value).map_err(|e| format!("{name}: {e}"))?
        )
        .expect("write to string");
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        rec.attempted, rec.failed
    );
    Ok(())
}

impl Outcome {
    /// Record one finished unit of work.
    pub fn unit(&mut self, secs: f64, rec: Recorder) {
        self.rec.merge(&rec);
        self.units.push((secs, rec));
    }

    /// Whether the run should take its peak-RSS sample now.
    pub fn rss_due(&self) -> bool {
        self.rss.is_empty() && (self.traced || self.units.len() >= RSS_AFTER_UNITS)
    }

    /// Whether the measured loop may stop: the RSS sample taken, and
    /// `seconds` of measured time.
    pub fn done(&self, seconds: f64) -> bool {
        !self.rss.is_empty() && self.units.iter().map(|(s, _)| s).sum::<f64>() >= seconds
    }

    /// Take the peak-RSS sample if it is due.
    pub fn sample_rss(&mut self, programs: &[&procs::Program]) -> Result<(), String> {
        if self.rss_due() {
            for p in programs {
                let mb = p.peak_rss_mb().map_err(|e| e.to_string())?;
                self.rss.push((p.name().to_owned(), mb));
            }
        }
        Ok(())
    }
}

/// The end-to-end metrics of an untraced run: commands completed per
/// second of measured wall time, and the read p50 over every read the
/// measured loop sent.
fn end_to_end(out: &Outcome) -> Result<Vec<Metric>, String> {
    let secs: f64 = out.units.iter().map(|(s, _)| s).sum();
    let read_p50 = out
        .rec
        .quantile(Class::Read, 0.5)
        .ok_or("too few reads for a p50")?;
    let values = [
        median(&out.setup_s),
        out.rec.attempted as f64 / secs,
        read_p50,
        out.rss.iter().map(|(_, mb)| mb).sum(),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n.to_owned(), v, u))
        .collect())
}

/// Dominant-layer expectations of the traced run.
fn check_layers(workload: &str, m: &BTreeMap<String, f64>) -> Result<(), String> {
    let share = |l: &str| m[&format!("trace.layer_share.{l}")];
    let largest = trace::LAYERS
        .iter()
        .copied()
        .max_by(|a, b| share(a).total_cmp(&share(b)))
        .unwrap_or("");
    let ok = match workload {
        "curation" => share("harmony") > 0.5,
        _ => share("harmony") <= 0.1,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{workload}: unexpected layer shares (largest {largest}, harmony {:.3})",
            share("harmony")
        ))
    }
}

fn run(args: &Args, env: &Env) -> Result<(Outcome, Vec<Metric>), String> {
    let mut out = match args.workload.as_str() {
        "curation" => curation::run(env, args.seed, args.seconds, args.trace)?,
        _ => fleet::run(env, args.seed, args.seconds, args.trace)?,
    };
    if out.rec.failed > 0 {
        return Err(format!("{} command(s) failed", out.rec.failed));
    }
    if !args.trace {
        let metrics = end_to_end(&out)?;
        return Ok((out, metrics));
    }
    for p in PROCESSES {
        let mb = out
            .rss
            .iter()
            .find(|(n, _)| n == p)
            .map_or(0.0, |(_, mb)| *mb);
        out.layers.insert(format!("process.peak_rss_mb.{p}"), mb);
    }
    check_layers(&args.workload, &out.layers)?;
    let mut metrics = Vec::new();
    for (name, unit) in per_layer() {
        let value = out.layers.get(&name).copied().unwrap_or(0.0);
        metrics.push((name, value, unit));
    }
    Ok((out, metrics))
}

/// Diagnostics printed before the result line: per-class percentiles
/// with sample counts, `fail_frac`, the host probe, per-process RSS,
/// set-up and unit times, and workload notes. None of it is gated.
fn detail_line(
    args: &Args,
    out: &Outcome,
    before: probe::Reading,
    after: probe::Reading,
) -> String {
    let mut detail = format!(
        "detail workload={} seed={} trace={} nproc={} threads_effective=1 \
         probe_before_alu_ms={:.1} probe_before_walk_ms={:.1} \
         probe_after_alu_ms={:.1} probe_after_walk_ms={:.1} fail_frac={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        before.alu_ms,
        before.walk_ms,
        after.alu_ms,
        after.walk_ms,
        out.rec.failed as f64 / out.rec.attempted.max(1) as f64,
    );
    for c in Class::TIMED {
        for (p, tag) in [(0.5, "p50"), (0.9, "p90")] {
            match out.rec.quantile(c, p) {
                Some(v) => write!(detail, " {}_{tag}_ms={v:.3}", c.name()),
                None => write!(detail, " {}_{tag}_ms=n/a", c.name()),
            }
            .expect("write to string");
        }
        write!(detail, " {}_n={}", c.name(), out.rec.samples(c).len()).expect("write to string");
    }
    for (name, mb) in &out.rss {
        write!(detail, " rss_{name}_mb={mb:.1}").expect("write to string");
    }
    let list = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(",")
    };
    write!(
        detail,
        " setup_s=[{}] unit_s=[{}]",
        list(&mut out.setup_s.iter().copied()),
        list(&mut out.units.iter().map(|(s, _)| *s))
    )
    .expect("write to string");
    for note in &out.notes {
        write!(detail, " {note}").expect("write to string");
    }
    detail
}

fn main() {
    let args = parse_args();
    let work_root = PathBuf::from(".bench_work");
    let work_dir = work_root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("wbbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let env = Env {
        bin_dir: args.bin_dir.clone(),
        work_dir: work_dir.clone(),
    };
    let host = probe::HostProbe::new(args.seed);
    let before = host.read();
    let result = run(&args, &env);
    let after = host.read();

    let code = match result {
        Ok((out, metrics)) => {
            println!("{}", detail_line(&args, &out, before, after));
            if let Some(ctx) = &out.tracer {
                let path = work_root.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
                match ctx.tracer.write(&path) {
                    Ok(()) => println!(
                        "trace: {} spans written to {}",
                        ctx.tracer.spans().len(),
                        path.display()
                    ),
                    Err(e) => eprintln!("wbbench: cannot write spans: {e}"),
                }
            }
            match print_result(&out.rec, &metrics) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("wbbench: {e}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("wbbench: {} failed: {e}", args.workload);
            1
        }
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn timings_cover_every_command_of_the_measured_loop() {
        let mut out = Outcome {
            setup_s: vec![2.0, 1.0, 3.0],
            ..Outcome::default()
        };
        for (ms, secs) in [(1, 1.0), (3, 3.0)] {
            let mut rec = Recorder::default();
            for _ in 0..60 {
                rec.record(Class::Read, Duration::from_millis(ms), true, 0);
                rec.record(Class::Edit, Duration::from_millis(9), true, 0);
            }
            out.unit(secs, rec);
        }
        let m: BTreeMap<String, f64> = end_to_end(&out)
            .unwrap()
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        assert_eq!(m["setup_s"], 2.0);
        assert_eq!(m["cmd_per_s"], 240.0 / 4.0);
        assert_eq!(m["read_p50_ms"], 1.0);
        assert!(!m.contains_key("read_p90_ms"), "p90 is a diagnostic");
        out.rec = Recorder::default();
        for _ in 0..19 {
            out.rec
                .record(Class::Read, Duration::from_millis(1), true, 0);
        }
        assert!(end_to_end(&out).is_err(), "19 reads: too few for a p50");
    }
}
