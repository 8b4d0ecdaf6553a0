//! The blocking layer, timed from outside: "which registered model
//! matches mine?" asked of the library directly.
//!
//! No workload sends `find-candidates`: a registry-search workload was
//! dropped because its timings followed the host's contention state
//! more than any bound allows (see `wbbench/README.md`). The traced
//! curation run still times the layer's public functions on the
//! enterprise's one registry (`generate_registry` seed 1, scale 0.25:
//! 66 models): `RegistryIndex::build`, then `RegistryIndex::query` for
//! [`QUERIES`] perturbed registry members, one per size stratum so the
//! queries span small to large models alike. The run's seed draws the
//! perturbations. Each query's origin model must be among its top
//! [`K`], or the traced run fails.

use crate::curation::parse_er;
use crate::stats::nearest_rank;
use iwb_blocking::{BlockingConfig, RegistryIndex};
use iwb_loaders::{to_er_text, ErLoader, SchemaLoader};
use iwb_model::SchemaGraph;
use iwb_registry::perturb::{perturb_schema, PerturbConfig};
use iwb_registry::{generate_registry, GeneratorConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Registry scale (0.25 of Table 1: ~66 models).
pub const SCALE: f64 = 0.25;
/// Generator seed of the registry.
pub const REGISTRY_SEED: u64 = 1;
/// Query schemas.
pub const QUERIES: usize = 120;
/// Candidates requested per query.
pub const K: usize = 10;

/// Time the blocking layer and insert `registry.generate_ms`,
/// `blocking.build_ms`, `blocking.query_p50_ms` and
/// `blocking.query_p90_ms` into `m`.
pub fn blocking_metrics(seed: u64, m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let t = Instant::now();
    let registry = generate_registry(GeneratorConfig::scaled(REGISTRY_SEED, SCALE));
    m.insert(
        "registry.generate_ms".into(),
        t.elapsed().as_secs_f64() * 1e3,
    );
    let t = Instant::now();
    let index = RegistryIndex::build(&registry.models, BlockingConfig::default());
    m.insert("blocking.build_ms".into(), t.elapsed().as_secs_f64() * 1e3);

    let mut by_size: Vec<&SchemaGraph> = registry.models.iter().collect();
    by_size.sort_by_key(|g| (g.len(), g.id().as_str().to_owned()));
    let n = by_size.len();
    let origin_of = |i: usize| by_size[(2 * i + 1) * n / (2 * QUERIES)];
    // A perturbation can give two siblings one name, which the ER
    // loader refuses; such a draw is skipped for the next seed.
    let texts: Vec<(String, String)> = (0..QUERIES)
        .map(|i| {
            let origin = origin_of(i);
            let id = format!("q{i}");
            (0..64u64)
                .map(|attempt| PerturbConfig {
                    seed: seed
                        .wrapping_mul(1_000_003)
                        .wrapping_add((i as u64) << 8 | attempt),
                    ..PerturbConfig::default()
                })
                .map(|cfg| to_er_text(&perturb_schema(origin, &cfg).target))
                .find(|text| ErLoader.load_validated(text, &id).is_ok())
                .map(|text| (id.clone(), text))
                .ok_or_else(|| format!("{id}: no loadable perturbation of {}", origin.id()))
        })
        .collect::<Result<_, _>>()?;
    let (graphs, _) = parse_er(&texts)?;

    let mut query_ms = Vec::new();
    for (i, graph) in graphs.iter().enumerate() {
        let t = Instant::now();
        let found = index.query(graph, K);
        query_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let origin = origin_of(i).id();
        if !found.iter().any(|c| c.id == *origin) {
            return Err(format!("q{i}: origin model {origin} not among its top {K}"));
        }
    }
    m.insert("blocking.query_p50_ms".into(), nearest_rank(&query_ms, 0.5));
    m.insert("blocking.query_p90_ms".into(), nearest_rank(&query_ms, 0.9));
    Ok(())
}
