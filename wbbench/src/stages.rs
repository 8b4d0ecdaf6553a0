//! Harmony's pipeline stages timed one by one from outside the engine.
//!
//! The stages are the engine's public building blocks —
//! `MatchContext::build`, each voter of `default_suite()`,
//! `VoteMerger::merge`, `flooding::flood` — run in the engine's order
//! on one schema pair. The result must equal `HarmonyEngine::run` on
//! the same inputs bit for bit (so the stages timed the engine's
//! work), and their summed time is compared with the engine's own:
//! `harmony.stage_residual` = |run − Σ stages| / run.

use crate::stats::median;
use iwb_harmony::flooding::flood;
use iwb_harmony::matrix::matchable_ids;
use iwb_harmony::voters::default_suite;
use iwb_harmony::{
    Confidence, FloodingConfig, HarmonyEngine, MatchConfig, MatchContext, ScoreMatrix, VoteMerger,
};
use iwb_ling::{Corpus, Thesaurus};
use iwb_model::SchemaGraph;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Bound on `harmony.stage_residual`: the stages run voter-major and
/// skip the engine's bookkeeping (retained state, result clones), so
/// they may differ from the fused run by this share and no more.
pub const RESIDUAL_BOUND: f64 = 0.25;

/// Median stage times (ms) over the repeats, summed over pairs.
#[derive(Debug, Default, Clone)]
pub struct StageTimes {
    pub context_ms: f64,
    pub voter_ms: BTreeMap<&'static str, f64>,
    pub merge_ms: f64,
    pub flood_ms: f64,
    pub flood_iterations: f64,
    pub run_ms: f64,
    pub cells: f64,
}

impl StageTimes {
    fn stages_ms(&self) -> f64 {
        self.context_ms + self.voter_ms.values().sum::<f64>() + self.merge_ms + self.flood_ms
    }

    /// |run − Σ stages| / run.
    pub fn residual(&self) -> f64 {
        if self.run_ms <= 0.0 {
            0.0
        } else {
            (self.run_ms - self.stages_ms()).abs() / self.run_ms
        }
    }

    /// The `harmony.*` stage metrics.
    pub fn metrics(&self, pairs: usize, out: &mut BTreeMap<String, f64>) {
        out.insert("harmony.run_ms".into(), self.run_ms);
        out.insert("harmony.context_ms".into(), self.context_ms);
        for name in voter_names() {
            let ms = self.voter_ms.get(name).copied().unwrap_or(0.0);
            out.insert(format!("harmony.voter.{name}_ms"), ms);
        }
        out.insert("harmony.merge_ms".into(), self.merge_ms);
        out.insert("harmony.flood_ms".into(), self.flood_ms);
        out.insert(
            "harmony.flood_iterations".into(),
            self.flood_iterations / pairs.max(1) as f64,
        );
        out.insert(
            "harmony.cells_per_s".into(),
            if self.run_ms > 0.0 {
                self.cells / (self.run_ms / 1e3)
            } else {
                0.0
            },
        );
        out.insert("harmony.stage_residual".into(), self.residual());
    }
}

/// Voter names of `default_suite()`, in run order.
pub fn voter_names() -> Vec<&'static str> {
    default_suite().iter().map(|v| v.name()).collect()
}

struct Once {
    context: f64,
    voters: Vec<(&'static str, f64)>,
    merge: f64,
    flood: f64,
    iterations: usize,
    run: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn once(src: &SchemaGraph, tgt: &SchemaGraph) -> Result<Once, String> {
    let thesaurus = Thesaurus::builtin();
    let t = Instant::now();
    let ctx = MatchContext::build(src, tgt, &thesaurus, Corpus::new());
    let context = ms(t);

    let src_ids = matchable_ids(src);
    let tgt_ids = matchable_ids(tgt);
    let mut per_voter = Vec::new();
    let mut voters = Vec::new();
    for voter in default_suite() {
        let t = Instant::now();
        let mut slab = Vec::with_capacity(src_ids.len() * tgt_ids.len());
        for &s in &src_ids {
            for &g in &tgt_ids {
                slab.push(voter.vote(&ctx, s, g).value());
            }
        }
        let mut m = ScoreMatrix::new(src_ids.clone(), tgt_ids.clone());
        m.splice_rows(0, &slab);
        voters.push((voter.name(), ms(t)));
        per_voter.push((voter.name(), m));
    }

    let merger = VoteMerger::default();
    let t = Instant::now();
    let mut slab = Vec::with_capacity(src_ids.len() * tgt_ids.len());
    let mut votes: Vec<(&str, Confidence)> = Vec::with_capacity(per_voter.len());
    for &s in &src_ids {
        for &g in &tgt_ids {
            votes.clear();
            votes.extend(per_voter.iter().map(|(n, m)| (*n, m.get(s, g))));
            slab.push(merger.merge(&votes).value());
        }
    }
    let mut matrix = ScoreMatrix::new(src_ids.clone(), tgt_ids.clone());
    matrix.splice_rows(0, &slab);
    let merge = ms(t);

    let t = Instant::now();
    let iterations = flood(
        &mut matrix,
        src,
        tgt,
        &HashSet::new(),
        &FloodingConfig::default(),
    );
    let flood_ms = ms(t);

    let mut engine = HarmonyEngine::default();
    engine.set_match_config(MatchConfig {
        threads: 1,
        cache: false,
        timeout_ms: None,
    });
    let t = Instant::now();
    let result = engine.run(src, tgt, &HashMap::new());
    let run = ms(t);

    let same = result.matrix.scores().len() == matrix.scores().len()
        && result
            .matrix
            .scores()
            .iter()
            .zip(matrix.scores())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same || result.flooding_iterations != iterations {
        return Err(format!(
            "stage decomposition of {} × {} differs from HarmonyEngine::run",
            src.id(),
            tgt.id()
        ));
    }
    Ok(Once {
        context,
        voters,
        merge,
        flood: flood_ms,
        iterations,
        run,
    })
}

/// Time the stages on every pair `repeats` times; medians per pair,
/// summed over pairs. Fails if the stages stop reproducing the engine
/// or the residual exceeds [`RESIDUAL_BOUND`].
pub fn measure(pairs: &[(SchemaGraph, SchemaGraph)], repeats: usize) -> Result<StageTimes, String> {
    let mut out = StageTimes::default();
    for (src, tgt) in pairs {
        let runs: Vec<Once> = (0..repeats.max(1))
            .map(|_| once(src, tgt))
            .collect::<Result<_, _>>()?;
        let med = |f: &dyn Fn(&Once) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        out.context_ms += med(&|o| o.context);
        for (i, &(name, _)) in runs[0].voters.iter().enumerate() {
            *out.voter_ms.entry(name).or_default() += med(&|o| o.voters[i].1);
        }
        out.merge_ms += med(&|o| o.merge);
        out.flood_ms += med(&|o| o.flood);
        out.flood_iterations += runs[0].iterations as f64;
        out.run_ms += med(&|o| o.run);
        out.cells += (matchable_ids(src).len() * matchable_ids(tgt).len()) as f64;
    }
    if out.residual() > RESIDUAL_BOUND {
        return Err(format!(
            "harmony.stage_residual {:.3} exceeds its bound {RESIDUAL_BOUND} \
             (run {:.2} ms vs stages {:.2} ms)",
            out.residual(),
            out.run_ms,
            out.stages_ms()
        ));
    }
    Ok(out)
}
